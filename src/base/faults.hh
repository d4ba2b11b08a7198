/**
 * @file
 * Declarative fault model for the chaos layer (sim/faults.hh).
 *
 * The paper's Section 8.2 runs the attack under real-world load
 * ("web browsing + video calls"); the disturbances such load causes
 * are not one knob but a family of distinct events. A FaultPlan
 * describes, per event type, how often the event fires at each
 * *fault opportunity* (the instants Machine::injectNoise() marks
 * between attack steps — twice per oracle query) and what shape the
 * burst takes:
 *
 *  (a) context switches — the scheduler runs another process: full
 *      or partial flush of the attacker's (EL0) TLB entries plus
 *      cache/TLB pollution from the other process's working set;
 *  (b) interrupt-style preemption — a random cycle budget is burned
 *      and the interrupt handler's footprint pollutes the primed
 *      iTLB/dTLB sets;
 *  (c) multi-thread-timer disturbance — the counting thread is
 *      descheduled (stall), migrated to a different-throughput core
 *      (rate skew), or suffers a jitter burst;
 *  (d) transient syscall failure — the kernel returns a retryable
 *      busy error from the gadget syscalls;
 *  (e) core migration — the attacker is rescheduled onto an
 *      e-core: memory latencies and timer throughput change until
 *      it migrates back.
 *
 * Pure data, base-layer: the attack stack reads none of this; only
 * the FaultInjector interprets it. All randomness is drawn by the
 * injector from a Random::deriveSeed stream, so faulted campaigns
 * stay bit-identical at any --jobs count (PR 1 contract).
 */

#ifndef PACMAN_BASE_FAULTS_HH
#define PACMAN_BASE_FAULTS_HH

#include <cstdint>
#include <string>

#include "base/fields.hh"

namespace pacman
{

/** Per-event-type fault rates and burst shapes. */
struct FaultPlan
{
    // --- (a) context switch ---
    double contextSwitchRate = 0.0; //!< probability per opportunity
    double fullFlushFraction = 0.5; //!< full vs partial EL0 TLB flush
    unsigned flushSets = 24;        //!< dTLB sets hit by a partial flush
    unsigned pollutePages = 8;      //!< other process's working set

    // --- (b) interrupt-style preemption ---
    double preemptRate = 0.0;
    uint64_t preemptMinCycles = 400;  //!< burned cycle budget range
    uint64_t preemptMaxCycles = 4000;
    unsigned preemptPollutePages = 6; //!< handler footprint (d+iTLB)

    // --- (c) multi-thread-timer disturbance ---
    double timerRate = 0.0;
    uint64_t stallMinCycles = 300;   //!< counting thread descheduled
    uint64_t stallMaxCycles = 2500;
    uint64_t skewPermilleMin = 870;  //!< throughput scale range
    uint64_t skewPermilleMax = 1130; //!< (counting thread migrated)
    uint64_t jitterBoost = 5;        //!< extra +/- counts during burst
    uint64_t jitterBurstCycles = 3000;

    // --- (d) transient syscall failure ---
    double syscallBusyRate = 0.0;
    unsigned busyMinCount = 1; //!< consecutive gadget calls that fail
    unsigned busyMaxCount = 2;

    // --- (e) core migration ---
    double migrationRate = 0.0;       //!< p-core -> e-core
    double migrationReturnRate = 0.3; //!< e-core -> p-core, per opp.

    // --- (f) wedge (hang) ---
    /**
     * Probability per opportunity that the replica wedges: the
     * scheduler never returns to the attacker for hangCycles of
     * simulated time. The default burn is effectively forever — only
     * a supervising watchdog with a guest-cycle budget (ItemBudget)
     * gets the item back; an unsupervised campaign would simply see
     * every measurement on the wedged replica time out. The chaos
     * harness uses this to prove the Hang rung of the recovery
     * ladder, which is why FaultPlan::scaled() — the robustness
     * sweep's axis — leaves it at zero.
     */
    double hangRate = 0.0;
    uint64_t hangCycles = 1ull << 40; //!< simulated-cycle burn

    /** The field list (base/fields.hh): all of it travels the wire. */
    template <typename F, typename... Plan>
    static constexpr void
    forEachField(F &&f, Plan &...p)
    {
        f("contextSwitchRate", p.contextSwitchRate...);
        f("fullFlushFraction", p.fullFlushFraction...);
        f("flushSets", p.flushSets...);
        f("pollutePages", p.pollutePages...);
        f("preemptRate", p.preemptRate...);
        f("preemptMinCycles", p.preemptMinCycles...);
        f("preemptMaxCycles", p.preemptMaxCycles...);
        f("preemptPollutePages", p.preemptPollutePages...);
        f("timerRate", p.timerRate...);
        f("stallMinCycles", p.stallMinCycles...);
        f("stallMaxCycles", p.stallMaxCycles...);
        f("skewPermilleMin", p.skewPermilleMin...);
        f("skewPermilleMax", p.skewPermilleMax...);
        f("jitterBoost", p.jitterBoost...);
        f("jitterBurstCycles", p.jitterBurstCycles...);
        f("syscallBusyRate", p.syscallBusyRate...);
        f("busyMinCount", p.busyMinCount...);
        f("busyMaxCount", p.busyMaxCount...);
        f("migrationRate", p.migrationRate...);
        f("migrationReturnRate", p.migrationReturnRate...);
        f("hangRate", p.hangRate...);
        f("hangCycles", p.hangCycles...);
    }

    /** True if any event can ever fire. */
    bool
    enabled() const
    {
        return contextSwitchRate > 0.0 || preemptRate > 0.0 ||
               timerRate > 0.0 || syscallBusyRate > 0.0 ||
               migrationRate > 0.0 || hangRate > 0.0;
    }

    /**
     * Reject malformed plans with a descriptive
     * std::invalid_argument instead of silently misbehaving
     * downstream (a NaN rate never fires, a zero-period timer burst
     * divides the disturbance into nothing, an inverted min/max range
     * traps in Random::range). Rates are validated unconditionally;
     * burst-shape constraints only when their event is enabled, so a
     * plan carrying nonsense defaults for an event that can never
     * fire stays usable. Called by sim::FaultInjector at
     * construction and by the campaign runner at provisioning.
     */
    void validate() const;

    /**
     * The robustness_sweep's one-dimensional fault axis: all event
     * rates scaled together by @p intensity in [0, 1]. Rates are the
     * per-opportunity firing probabilities; burst shapes stay at
     * their defaults. intensity 0 disables everything (the pristine
     * baseline); 0.2 is the documented "heavy load" point of
     * EXPERIMENTS.md.
     */
    static FaultPlan
    scaled(double intensity)
    {
        FaultPlan p;
        p.contextSwitchRate = 0.50 * intensity;
        p.preemptRate = 0.70 * intensity;
        p.timerRate = 0.40 * intensity;
        p.syscallBusyRate = 0.50 * intensity;
        p.migrationRate = 0.12 * intensity;
        return p;
    }
};

/** Counters for every realized fault event; mergeable per-chunk. */
struct FaultStats
{
    uint64_t contextSwitches = 0;
    uint64_t fullFlushes = 0;
    uint64_t partialFlushes = 0;
    uint64_t preemptions = 0;
    uint64_t preemptedCycles = 0;
    uint64_t timerStalls = 0;
    uint64_t timerSkews = 0;
    uint64_t jitterBursts = 0;
    uint64_t busyArms = 0;
    uint64_t migrations = 0;
    uint64_t hangs = 0;

    /** Total realized events (cycle budgets excluded). */
    uint64_t
    total() const
    {
        return contextSwitches + preemptions + timerStalls +
               timerSkews + jitterBursts + busyArms + migrations +
               hangs;
    }

    /** The field list (base/fields.hh). */
    template <typename F, typename... Stats>
    static constexpr void
    forEachField(F &&f, Stats &...s)
    {
        f("context_switches", s.contextSwitches...);
        f("full_flushes", s.fullFlushes...);
        f("partial_flushes", s.partialFlushes...);
        f("preemptions", s.preemptions...);
        f("preempted_cycles", s.preemptedCycles...);
        f("timer_stalls", s.timerStalls...);
        f("timer_skews", s.timerSkews...);
        f("jitter_bursts", s.jitterBursts...);
        f("busy_arms", s.busyArms...);
        f("migrations", s.migrations...);
        f("hangs", s.hangs...);
    }

    /** Fold @p other into this (campaign merge; order-insensitive). */
    void merge(const FaultStats &other) { addFields(*this, other); }
};

static_assert(listsEveryMember<FaultStats>);

} // namespace pacman

#endif // PACMAN_BASE_FAULTS_HH
