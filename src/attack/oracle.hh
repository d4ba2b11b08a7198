/**
 * @file
 * The PAC oracle (paper Section 8.1): distinguish a correct PAC from
 * an incorrect one for an attacker-chosen (pointer, modifier) pair —
 * without ever architecturally using the pointer, hence without any
 * crash risk.
 *
 * One oracle query runs the paper's recipe:
 *
 *  1. train the gadget's guard branch (and, for the instruction
 *     gadget, the BTB) with a legitimately signed pointer;
 *  2. arm: cond <- 0 so the architectural path skips the gadget body;
 *  3. reset: evict the guard-condition page's translation (23 loads
 *     in its L2 TLB set), opening a long speculation window;
 *  4. prime the target page's dTLB set (12 loads);
 *  5. fire the gadget syscall with the guessed signed pointer; the
 *     gadget speculatively authenticates and dereferences it;
 *  6. (instruction gadget only) evict the kernel iTLB set with 4
 *     trampoline fetches so a filled translation spills into the
 *     shared dTLB;
 *  7. probe the dTLB set and count misses: a correct PAC leaves a
 *     kernel translation in the primed set, an incorrect PAC leaves
 *     nothing.
 */

#ifndef PACMAN_ATTACK_ORACLE_HH
#define PACMAN_ATTACK_ORACLE_HH

#include <cstdint>
#include <optional>

#include "attack/eviction.hh"
#include "attack/runtime.hh"
#include "base/fields.hh"

namespace pacman::attack
{

/** Which PACMAN gadget the oracle drives. */
enum class GadgetKind
{
    Data,        //!< aut + load   (Figure 3(a))
    Instruction, //!< aut + blr    (Figure 3(b))
    Combined,    //!< blraa: verification + transmission in one
                 //!< ARMv8.3 instruction (extension)
};

/** The last GadgetKind (a decoded one must not exceed it). */
constexpr GadgetKind
lastOf(GadgetKind)
{
    return GadgetKind::Combined;
}

/**
 * Which micro-architectural structure carries the transmission
 * (Section 4.1: the attack works over many side channels; the paper's
 * PoCs use the TLB, and the cache variant is provided to demonstrate
 * the generality claim).
 */
enum class Channel
{
    DtlbSet, //!< the paper's shared-L1-dTLB Prime+Probe
    L1dSet,  //!< L1 data-cache set Prime+Probe (data gadget only)
};

/** The last Channel (a decoded one must not exceed it). */
constexpr Channel
lastOf(Channel)
{
    return Channel::L1dSet;
}

/** Oracle tuning parameters. */
struct OracleConfig
{
    GadgetKind kind = GadgetKind::Data;

    /** Transmission channel; L1dSet requires the data gadget. */
    Channel channel = Channel::DtlbSet;

    /**
     * Branch-training iterations before each query. The paper uses
     * 64 (Section 8.1); this default is a deliberately scaled-down 8
     * so the test suite stays fast — the simulated bimodal predictor
     * saturates well before 64 iterations. The bench binaries
     * (fig8_oracle, sec82_bruteforce) default to the paper's 64.
     */
    unsigned trainIters = 8;

    /** Multi-thread-counter threshold separating dTLB hit from miss
     *  (paper Section 7.4: 30). Overwritten by the measured value
     *  when autoCalibrate is set. */
    uint64_t latencyThreshold = 30;

    /** Probe misses at or above this count a correct PAC
     *  (paper Figure 8: correct >= 5, incorrect <= 1). */
    unsigned missThreshold = 3;

    // --- Self-healing knobs (all off by default: the legacy
    //     fixed-threshold path, including its exact RNG draw
    //     sequence, is preserved bit-for-bit when these are 0) ---

    /**
     * Derive latencyThreshold from measured hit/miss latency
     * distributions at setTarget() time instead of trusting the
     * constant, and re-derive it whenever disturbance recovery finds
     * the eviction sets unhealthy (e.g. after a core migration
     * shifted every latency).
     */
    bool autoCalibrate = false;

    /** Hit/miss samples per calibration measurement. */
    unsigned calibrationSamples = 24;

    /**
     * Bounded per-query retries when the probe-baseline sanity check
     * (a canary translation planted at prime time in an independent
     * dTLB set) reports the query was disturbed. 0 disables both the
     * check and the retry loop.
     */
    unsigned queryRetries = 0;

    /** Retries when a gadget syscall returns the transient
     *  SyscallBusy error before the query gives up on it. */
    unsigned busyRetries = 0;

    /**
     * Ablation: skip the TLB-reset step (the paper's step 2). The
     * gadget's guard condition then resolves quickly, the
     * speculation window closes before the authenticated pointer can
     * be transmitted, and the oracle goes blind — demonstrating why
     * the reset matters.
     */
    bool skipReset = false;

    /** The field list (base/fields.hh): the wire and the fingerprint. */
    template <typename F, typename... Cfg>
    static constexpr void
    forEachField(F &&f, Cfg &...c)
    {
        f("kind", c.kind...);
        f("channel", c.channel...);
        f("trainIters", c.trainIters...);
        f("latencyThreshold", c.latencyThreshold...);
        f("missThreshold", c.missThreshold...);
        f("autoCalibrate", c.autoCalibrate...);
        f("calibrationSamples", c.calibrationSamples...);
        f("queryRetries", c.queryRetries...);
        f("busyRetries", c.busyRetries...);
        f("skipReset", c.skipReset...);
    }
};

/** Robustness counters for one oracle's lifetime; mergeable. */
struct OracleStats
{
    uint64_t busyRetries = 0;      //!< gadget calls retried after -EAGAIN
    uint64_t disturbedQueries = 0; //!< queries the sanity check flagged
    uint64_t retriedQueries = 0;   //!< flagged queries actually retried
    uint64_t calibrations = 0;     //!< threshold (re)calibrations
    uint64_t repairs = 0;          //!< eviction-set rebuilds

    /** The field list (base/fields.hh). */
    template <typename F, typename... Stats>
    static constexpr void
    forEachField(F &&f, Stats &...s)
    {
        f("busy_retries", s.busyRetries...);
        f("disturbed_queries", s.disturbedQueries...);
        f("retried_queries", s.retriedQueries...);
        f("calibrations", s.calibrations...);
        f("repairs", s.repairs...);
    }

    void merge(const OracleStats &other) { addFields(*this, other); }
};

static_assert(listsEveryMember<OracleStats>);

/** A configured PAC oracle bound to one target pointer. */
class PacOracle
{
  public:
    PacOracle(AttackerProcess &proc, const OracleConfig &cfg);

    /**
     * Bind the oracle to a target. @p target must be a mapped kernel
     * address (data for the data gadget, code for the instruction
     * gadget) whose dTLB set does not collide with runtime
     * infrastructure; isTargetUsable() checks this.
     */
    void setTarget(Addr target, uint64_t modifier);

    /** True if @p target's sets avoid infrastructure collisions. */
    bool isTargetUsable(Addr target) const;

    /**
     * Run one oracle query for @p guessed_pac.
     * @return the number of probe misses observed.
     */
    unsigned probeMisses(uint16_t guessed_pac);

    /** Classified query: does @p guessed_pac look correct? */
    bool testPac(uint16_t guessed_pac);

    /**
     * Median probe-miss count over @p samples queries. For odd
     * @p samples (the documented default usage) this is the middle
     * order statistic; for even @p samples it is the mean of the two
     * middle values rather than arbitrarily the upper one.
     */
    double sampledMisses(uint16_t guessed_pac, unsigned samples);

    /** Median-of-@p samples classification (paper Section 8.2). */
    bool testPacSampled(uint16_t guessed_pac, unsigned samples);

    const OracleConfig &config() const { return cfg_; }
    Addr target() const { return target_; }

    /** Total gadget-syscall invocations so far (speed accounting). */
    uint64_t queries() const { return queries_; }

    /** Robustness counters (retries, calibrations, repairs). */
    const OracleStats &stats() const { return stats_; }

    /** The attacker process this oracle drives. */
    AttackerProcess &process() { return proc_; }

    // --- Self-healing machinery (public for tests and benches;
    //     probeMisses() drives these automatically) ---

    /**
     * Measure hit/miss latency distributions on a quiet dTLB set and
     * set latencyThreshold to the midpoint of (hit p90, miss p10).
     * Called by setTarget() when autoCalibrate is set, and again by
     * disturbance recovery when the sets verify unhealthy.
     */
    void calibrate();

    /**
     * Prime-then-probe self-test of the prime list: true when every
     * probe reads back as a healthy hit under the current threshold
     * (and, when calibrated, within the measured hit band).
     */
    bool verifyEvictionSets();

    /** Rebuild every derived set (reset/prime/trampoline/canary)
     *  from the geometry — recovery for polluted/stale sets. */
    void repairEvictionSets();

    /**
     * Re-run the legitimate-pointer fetch syscall for the bound
     * target. Required after Machine::rekey(): the kernel re-signs
     * its pointers under the new keys, so the cached legit pointer
     * used for training would otherwise carry a stale PAC. The call
     * runs guest code and perturbs micro-architectural state — but
     * deterministically, so snapshot-restore and fresh-provision
     * replicas that both call it stay bit-identical.
     */
    void refreshLegitPointer();

    /**
     * Complete host-side mutable state, including the attacker
     * process's (the guest-visible side of both lives in the Machine
     * snapshot). The configured-then-calibrated threshold, measured
     * hit band, derived address lists, query/robustness counters, and
     * argument-array placement all rewind, so a restored replica
     * re-enters exactly the post-provisioning state.
     */
    struct Snapshot
    {
        OracleConfig cfg;
        Addr target = 0;
        uint64_t modifier = 0;
        uint64_t legitPtr = 0;
        std::vector<Addr> resetList;
        std::vector<Addr> primeList;
        std::vector<uint64_t> trampIndices;
        uint64_t queries = 0;
        Addr canaryAddr = 0;
        double calibHitLo = 0.0;
        double calibHitHi = 0.0;
        OracleStats stats;
        AttackerProcess::Snapshot proc;
    };

    Snapshot takeSnapshot() const;
    void restore(const Snapshot &snap);

  private:
    void train();
    uint16_t gadgetSyscall() const;
    void rebuildSets();
    uint64_t quietDtlbSet(uint64_t start) const;
    bool healthyHit(double count) const;
    unsigned probeOnce(uint16_t guessed_pac, bool *disturbed);
    void backoff(unsigned attempt);

    AttackerProcess &proc_;
    OracleConfig cfg_;
    EvictionSets evsets_;

    Addr target_ = 0;
    uint64_t modifier_ = 0;
    uint64_t legitPtr_ = 0;
    std::vector<Addr> resetList_;
    std::vector<Addr> primeList_;
    std::vector<uint64_t> trampIndices_;
    uint64_t queries_ = 0;

    /** Sanity-check canary: an arena page in a quiet dTLB set,
     *  loaded at prime time and timed after the probe. */
    Addr canaryAddr_ = 0;

    /** Measured hit band from the last calibration (0 = never
     *  calibrated; the fixed threshold is the only reference). */
    double calibHitLo_ = 0.0;
    double calibHitHi_ = 0.0;

    OracleStats stats_;
};

} // namespace pacman::attack

#endif // PACMAN_ATTACK_ORACLE_HH
