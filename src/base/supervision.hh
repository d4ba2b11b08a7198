/**
 * @file
 * Supervision vocabulary for long-lived campaign workers
 * (DESIGN.md §4g): the structured error taxonomy a watchdog uses to
 * classify overruns, per-item execution budgets, recovery-ladder
 * counters, and the quarantine record that preserves a poisoned work
 * item's seed/fault context for offline reproduction.
 *
 * Pure data at the base layer — the runner's Worker interprets these,
 * and bench/chaos_recovery proves every classification path. FIPAC
 * (arXiv 2104.14993) motivates the shape: cheap state-checksum fault
 * *detection* between recovery points, with the expensive response
 * (re-provision, quarantine) reserved for confirmed corruption.
 */

#ifndef PACMAN_BASE_SUPERVISION_HH
#define PACMAN_BASE_SUPERVISION_HH

#include <cstdint>
#include <optional>
#include <string>

#include "base/fields.hh"

namespace pacman
{

/**
 * Why a supervised work item failed. The ladder's classification is
 * behavioural, not declarative: an overrun is a Hang when a budget
 * expired, a TransientFault when the same item succeeds after a
 * checkpoint-restore retry, ReplicaCorrupt when the restored replica
 * fails its state-fingerprint check, and a PoisonedItem when the item
 * still fails on a freshly provisioned replica — at which point it is
 * quarantined rather than retried forever.
 */
enum class WorkerFaultKind : uint8_t
{
    Hang,           //!< guest-step or host-deadline budget exhausted
    ReplicaCorrupt, //!< state fingerprint diverged from provisioning
    TransientFault, //!< cleared by a restore-and-retry
    PoisonedItem,   //!< fails even on a fresh replica; quarantined
    EndpointDown,   //!< one dispatch endpoint unreachable/timed out
    DispatchExhausted, //!< every endpoint and retry budget spent
};

/** Stable lower-case name (used in journals/quarantine files). */
const char *workerFaultName(WorkerFaultKind kind);

/** Parse workerFaultName()'s output back. */
std::optional<WorkerFaultKind> parseWorkerFault(const std::string &name);

/**
 * The error a supervised execution throws to abandon the current
 * attempt. Thrown host-side from between-step fault opportunities
 * (never mid-guest-instruction), so unwinding is safe; the recovery
 * ladder restores or re-provisions the replica before any retry, so
 * no attack-stack invariant has to survive the unwind.
 */
struct WorkerError
{
    WorkerFaultKind kind;
    std::string detail;
};

/**
 * Per-item execution budgets. The guest-cycle budget is deterministic
 * (simulated cycles elapse identically on every host and at every
 * --jobs count), so budget-triggered classifications — and the
 * quarantines they escalate to — are part of the campaign's
 * bit-identical output. The host deadline is a wall-clock backstop
 * for bugs the simulation cannot see (a wedged host thread); its
 * firings are inherently nondeterministic, which is safe because a
 * restore-retry of a healthy item reproduces the item's pure result.
 */
struct ItemBudget
{
    /** Max simulated cycles one item may consume past its beginItem
     *  point; 0 = unlimited. Checked at every fault opportunity. */
    uint64_t maxGuestCycles = 0;

    /** Max host wall-clock seconds per attempt; 0 = none. */
    double hostDeadlineSeconds = 0.0;
};

/** Recovery-ladder counters; mergeable per chunk/worker. */
struct RecoveryStats
{
    uint64_t hangs = 0;            //!< budget-exhaustion aborts
    uint64_t transientFaults = 0;  //!< cleared by restore-retry
    uint64_t replicaCorruptions = 0; //!< fingerprint mismatches
    uint64_t restoreRetries = 0;   //!< rung-1 attempts
    uint64_t reprovisions = 0;     //!< rung-2 full rebuilds
    uint64_t fingerprintChecks = 0; //!< integrity verifications run
    uint64_t quarantines = 0;      //!< items given up on

    uint64_t
    total() const
    {
        return hangs + transientFaults + replicaCorruptions +
               restoreRetries + reprovisions + quarantines;
    }

    /** The field list (base/fields.hh). */
    template <typename F, typename... Stats>
    static constexpr void
    forEachField(F &&f, Stats &...s)
    {
        f("hangs", s.hangs...);
        f("transient_faults", s.transientFaults...);
        f("replica_corruptions", s.replicaCorruptions...);
        f("restore_retries", s.restoreRetries...);
        f("reprovisions", s.reprovisions...);
        f("fingerprint_checks", s.fingerprintChecks...);
        f("quarantines", s.quarantines...);
    }

    void merge(const RecoveryStats &other) { addFields(*this, other); }
};

static_assert(listsEveryMember<RecoveryStats>);

/**
 * Remote-dispatch counters: how many chunks travelled, how often the
 * dispatcher had to fail over to another endpoint, and why. Purely
 * operational — which endpoint served a chunk is a wall-clock
 * accident, so none of these are ever part of a campaign fingerprint
 * (the chunk payloads themselves are endpoint-independent).
 */
struct DispatchStats
{
    uint64_t dispatched = 0;    //!< chunks served successfully
    uint64_t retries = 0;       //!< redispatch attempts after failure
    uint64_t failovers = 0;     //!< chunks completed on a non-first endpoint
    uint64_t timeouts = 0;      //!< attempts abandoned by the host deadline
    uint64_t wireErrors = 0;    //!< torn/corrupt connections
    uint64_t busyExhaustions = 0; //!< BUSY backoff budgets spent
    uint64_t breakerOpens = 0;  //!< circuit breakers tripped open
    uint64_t probes = 0;        //!< half-open PING probes sent
    uint64_t probeFailures = 0; //!< probes that kept a breaker open

    uint64_t
    faults() const
    {
        return timeouts + wireErrors + busyExhaustions;
    }

    /** The field list (base/fields.hh). */
    template <typename F, typename... Stats>
    static constexpr void
    forEachField(F &&f, Stats &...s)
    {
        f("dispatched", s.dispatched...);
        f("retries", s.retries...);
        f("failovers", s.failovers...);
        f("timeouts", s.timeouts...);
        f("wire_errors", s.wireErrors...);
        f("busy_exhaustions", s.busyExhaustions...);
        f("breaker_opens", s.breakerOpens...);
        f("probes", s.probes...);
        f("probe_failures", s.probeFailures...);
    }

    void merge(const DispatchStats &other) { addFields(*this, other); }
};

static_assert(listsEveryMember<DispatchStats>);

/**
 * Everything needed to re-run a quarantined work item standalone,
 * away from its campaign: the campaign identity and seeds, the item
 * range the failing chunk covered, and the classified failure. The
 * replica configuration itself is not serialized — reproduction
 * supplies the same campaign config and the record re-derives every
 * RNG stream from the recorded seeds, which
 * tests/runner/test_supervision.cc proves reproduces the identical
 * failure.
 */
struct QuarantineRecord
{
    std::string campaign;      //!< "bruteforce" | "accuracy"
    uint64_t campaignSeed = 0; //!< the campaign's seed
    uint64_t chunkIndex = 0;   //!< failing chunk
    uint64_t firstItem = 0;    //!< item range the chunk covered
    uint64_t lastItem = 0;
    uint64_t streamSeed = 0;   //!< per-item RNG stream actually used
    uint64_t rekeySeed = 0;    //!< per-trial key stream (accuracy)
    bool hasRekey = false;
    WorkerFaultKind kind = WorkerFaultKind::PoisonedItem;
    std::string detail;        //!< human-readable failure context

    /** One-line serialization (journal/quarantine-file payload). */
    std::string serialize() const;

    /** Parse serialize()'s output; nullopt on malformed input. */
    static std::optional<QuarantineRecord> parse(const std::string &line);
};

} // namespace pacman

#endif // PACMAN_BASE_SUPERVISION_HH
