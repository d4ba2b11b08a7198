/**
 * @file
 * The supervised, scheduler-agnostic campaign worker
 * (DESIGN.md §4g).
 *
 * A Worker owns one replica — a private Machine / AttackerProcess /
 * PacOracle stack, provisioned once and checkpointed
 * (sim::ReplicaCheckpoint) — and executes work through a stable
 * request/response boundary: the caller supplies a WorkRequest (the
 * item's identity and seeds; never thread identity) and a WorkFn
 * (what to compute), and receives a WorkOutcome. Nothing in the
 * boundary references the pool, chunking, or threads, which is
 * exactly the seam a long-lived oracle-as-a-service scheduler needs:
 * any dispatcher that can produce WorkRequests can drive a Worker.
 *
 * Supervision (all opt-in via SupervisionConfig):
 *
 *  - watchdogs: per-item guest-cycle and host-deadline budgets,
 *    checked at every fault opportunity (the injectNoise() markers
 *    between attack steps), abandoning the attempt with a classified
 *    WorkerError;
 *  - an escalating recovery ladder: rung 1 rewinds the checkpoint,
 *    verifies the replica's state fingerprint against the
 *    provisioning fingerprint (sim/fingerprint.hh) and the attack
 *    runtime's own integrity check, and retries; rung 2 rebuilds the
 *    whole stack from configuration; rung 3 gives up and reports the
 *    item for quarantine;
 *  - classification per base/supervision.hh: budget overruns are
 *    Hangs, fingerprint mismatches ReplicaCorrupt, failures that
 *    clear on retry TransientFaults, and items that fail a fresh
 *    replica PoisonedItems.
 *
 * Determinism: an item is a pure function of (config, seeds); a
 * restore is bit-exact (PR 4) and a fresh provision reaches the same
 * state, so a retry on any rung either reproduces the identical
 * result or the identical deterministic failure. Supervised
 * campaigns therefore stay bit-identical at every --jobs count, with
 * wall-clock-triggered retries affecting only latency.
 */

#ifndef PACMAN_RUNNER_WORKER_HH
#define PACMAN_RUNNER_WORKER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "attack/bruteforce.hh"
#include "base/supervision.hh"
#include "sim/faults.hh"

namespace pacman::runner
{

/** What each worker's replica is provisioned with. */
struct ReplicaConfig
{
    /** Base machine configuration. Its seed fixes the per-boot PAC
     *  keys, shared by every replica of the campaign. */
    kernel::MachineConfig machine;

    /** Oracle tuning (gadget kind, training iterations, thresholds). */
    attack::OracleConfig oracle;

    /** Target kernel address the oracle is bound to. */
    isa::Addr target = 0;

    /** PAC modifier (salt) for the target. */
    uint64_t modifier = 0;

    /** Oracle samples per candidate (median-of-k; paper: 5). */
    unsigned samples = 1;

    /** Adaptive-resampling ceiling per candidate (0 = fixed
     *  median-of-k; see attack::ResamplePolicy). */
    unsigned maxSamples = 0;

    /** Full re-measurements for still-ambiguous candidates. */
    unsigned candidateRetries = 0;

    /**
     * Fault plan injected into every replica. Injectors are seeded
     * deriveSeed(stream_seed, FaultSeedStream) and attached only
     * after the oracle is provisioned, so set construction and
     * calibration run undisturbed; both the faults and the recovery
     * they trigger stay a pure function of the chunk index.
     */
    FaultPlan faults;

    /**
     * Provision-once / restore-per-item checkpointing (the fast
     * path). When false, each work item reconstructs the replica from
     * scratch — the slow reference path the snapshot equivalence
     * tests compare against; the recovery ladder then has no rung 1
     * (there is no checkpoint to rewind) and escalates straight to
     * re-provisioning. Either way the per-item results are
     * bit-identical; only wall-clock time differs. Travels the wire
     * with the rest of the replica config; the examples expose it as
     * --no-snapshot.
     */
    bool snapshot = true;
};

/** Supervision knobs for a campaign's workers. */
struct SupervisionConfig
{
    /** Per-item execution budgets (0 = no watchdog). */
    ItemBudget budget;

    /**
     * Verify the replica's state fingerprint (and the attack
     * runtime's routine integrity) against the provisioning
     * fingerprint before a rung-1 retry. Costs one fingerprint at
     * provisioning time plus one per ladder escalation.
     */
    bool verifyFingerprint = true;

    /**
     * Durable campaign journal path; empty disables journaling.
     * Chunk-completion records are appended fsync'd and keyed by
     * (campaign_seed, chunk_index), so a killed campaign process
     * resumes mid-campaign (see `resume`) with bit-identical merged
     * output.
     */
    std::string journalPath;

    /** Replay completed chunks from the journal instead of
     *  recomputing them. Requires journalPath. */
    bool resume = false;

    /**
     * Quarantine-record sink; empty derives "<journalPath>.quarantine"
     * when journaling, else quarantines are only reported in the
     * campaign result.
     */
    std::string quarantinePath;

    /** Chaos-test hook, forwarded to Journal::crashAfterAppends():
     *  _Exit(137) after the n-th fsync'd record. 0 disables. */
    uint64_t crashAfterAppends = 0;

    /** Resolved quarantine path (may be empty = none). */
    std::string
    effectiveQuarantinePath() const
    {
        if (!quarantinePath.empty())
            return quarantinePath;
        if (!journalPath.empty())
            return journalPath + ".quarantine";
        return {};
    }
};

/** One work item, identified by seeds — never by thread. */
struct WorkRequest
{
    /** Chunk/trial index (quarantine bookkeeping only). */
    uint64_t itemIndex = 0;

    /** The item's main RNG stream (Machine::reseedRng). */
    uint64_t streamSeed = 0;

    /** Per-trial PAC-key rotation stream, if the item wants fresh
     *  keys (accuracy campaigns). */
    std::optional<uint64_t> rekeySeed;
};

/** The work itself, run against the prepared replica. */
using WorkFn =
    std::function<void(attack::PacOracle &oracle,
                       kernel::Machine &machine)>;

/** The supervisor's verdict on one request. */
struct WorkOutcome
{
    /** False when every ladder rung failed (item quarantined). */
    bool completed = true;

    /** Set iff !completed: the classification to quarantine under. */
    std::optional<WorkerFaultKind> quarantined;

    /** Failure context (first and last error) for the record. */
    std::string detail;

    /** Executions attempted (1 = clean first run). */
    unsigned attempts = 1;
};

/** A supervised single-replica worker. */
class Worker
{
  public:
    /** Validates cfg.faults (FaultPlan::validate; throws
     *  std::invalid_argument on a malformed plan). Provisioning is
     *  lazy — the first run() (or oracle()/machine() access) pays it. */
    Worker(const ReplicaConfig &cfg, const SupervisionConfig &sup);
    ~Worker();

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    /**
     * Execute one work item under supervision: prepare the replica
     * for the request (checkpoint rewind or fresh provision, optional
     * rekey, stream switch, fault-injector arming), arm the
     * watchdogs, run @p fn, and walk the recovery ladder on failure.
     * WorkerErrors are absorbed into the outcome; any other exception
     * (a simulator bug) propagates.
     */
    WorkOutcome run(const WorkRequest &req, const WorkFn &fn);

    /** Injected-fault counters from the most recent attempt. */
    FaultStats faultStats() const;

    /** Ladder counters over this worker's lifetime. */
    const RecoveryStats &recovery() const { return recovery_; }

    /** Replica stacks built (1 + ladder re-provisions; every item in
     *  fresh-provision mode). */
    uint64_t provisions() const { return provisions_; }

    /** The post-provisioning integrity fingerprint (0 when
     *  fingerprint verification is disabled or nothing is
     *  provisioned yet). */
    uint64_t provisionFingerprint() const { return provisionFp_; }

    /** The replica's oracle/machine (provisions on first access).
     *  Campaign code uses these between run() calls — e.g. to read
     *  ground truth; the supervisor owns them during run(). */
    attack::PacOracle &oracle();
    kernel::Machine &machine();

    /**
     * Chaos/test hook: corrupt the captured checkpoint so the next
     * restore reproduces a damaged replica — the ReplicaCorrupt
     * ladder path. Writes @p value over the guest word at @p va
     * *inside the checkpoint image* (the live machine is untouched
     * until restore). Requires snapshot mode.
     */
    void corruptCheckpointForTest(isa::Addr va, uint64_t value);

  private:
    struct Stack;

    void ensureProvisioned();
    void beginItem(const WorkRequest &req);
    void endItem();
    void onOpportunity();
    bool integrityOk();

    const ReplicaConfig cfg_;
    const SupervisionConfig sup_;
    std::unique_ptr<Stack> stack_;
    RecoveryStats recovery_;
    uint64_t provisions_ = 0;
    uint64_t provisionFp_ = 0;

    // Armed-watchdog state (valid between beginItem/endItem).
    uint64_t itemStartCycle_ = 0;
    double deadlineAt_ = 0; //!< CLOCK_MONOTONIC seconds; 0 = none
};

} // namespace pacman::runner

#endif // PACMAN_RUNNER_WORKER_HH
