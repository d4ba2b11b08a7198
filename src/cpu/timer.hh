/**
 * @file
 * Timer models (the paper's Table 1 inventory):
 *
 *  - the 24 MHz generic system counter (CNTPCT_EL0, EL0-readable);
 *  - Apple's proprietary cycle/instruction counters PMC0/PMC1,
 *    gated to EL1 unless PMCR0 grants EL0 access (which the paper's
 *    kext does for reverse engineering);
 *  - the multi-thread counter: a dedicated thread incrementing a
 *    shared variable. Modelled as an uncacheable device page whose
 *    value advances at a sub-cycle rate with jitter — the increment
 *    loop's throughput on the second core — calibrated so the
 *    distributions of Figure 7(b) (dTLB hit <= 27, miss >= 32,
 *    threshold 30) reproduce.
 */

#ifndef PACMAN_CPU_TIMER_HH
#define PACMAN_CPU_TIMER_HH

#include <cstdint>

#include "base/random.hh"
#include "mem/hierarchy.hh"

namespace pacman::cpu
{

/**
 * The shared-variable counter maintained by the dedicated timer
 * thread (paper Figure 4). Mapped into the attacker's address space
 * as a device page; reads return the counter value at the time the
 * load executes.
 */
class ThreadTimerDevice : public mem::Device
{
  public:
    /**
     * @param cycle            Pointer to the core's cycle counter.
     * @param incrementsPer1k  Counter increments per 1000 core
     *                         cycles (the timer thread's loop
     *                         throughput). 450 reproduces Figure 7(b).
     * @param jitter           Max +/- jitter, in counts, per read
     *                         (scheduling and coherence noise).
     * @param rng              Noise source.
     */
    ThreadTimerDevice(const uint64_t *cycle, uint64_t incrementsPer1k,
                      uint64_t jitter, Random *rng);

    uint64_t read(uint64_t offset, unsigned size) override;
    void write(uint64_t offset, uint64_t value, unsigned size) override;

    /** Counter value at @p cycle with jitter applied. */
    uint64_t valueAt(uint64_t cycle);

    // --- Disturbance hooks (the fault injector's timer events) ---

    /**
     * Change the base throughput (counting-loop speed). Rebases the
     * counter at the current value so the change never makes the raw
     * value jump — a decrease would otherwise trip the monotonicity
     * clamp and freeze the counter until the new slope caught up.
     */
    void setBaseRatePer1k(uint64_t per1k);

    /**
     * Scale the effective throughput by @p permille / 1000 (rate
     * skew: the counting thread migrated to a faster/slower core).
     * Persists until the next skew; rebases like setBaseRatePer1k().
     */
    void setRateScalePermille(uint64_t permille);

    /**
     * Freeze the counter for @p cycles core cycles (the counting
     * thread was descheduled). On expiry the counter resumes from the
     * frozen value — no catch-up, matching a real counting loop that
     * simply was not running.
     */
    void injectStall(uint64_t cycles);

    /** Add +/- @p extra jitter per read for the next @p cycles. */
    void injectJitterBurst(uint64_t extra, uint64_t cycles);

    uint64_t ratePer1k() const { return s_.basePer1k; }
    uint64_t rateScalePermille() const { return s_.scalePermille; }

    /**
     * Every mutable field, held as one struct so snapshot and restore
     * are copies (the cycle pointer, jitter amplitude, and RNG pointer
     * are construction-time wiring; the jitter draws come from the
     * machine RNG, which the Machine snapshot covers).
     */
    struct Snapshot
    {
        uint64_t basePer1k = 0;
        uint64_t scalePermille = 1000;
        uint64_t baseCycle = 0; //!< counter == baseValue at this cycle
        uint64_t baseValue = 0;
        bool stalled = false;
        uint64_t stallUntil = 0;
        uint64_t burstUntil = 0;
        uint64_t burstExtra = 0;
        uint64_t lastValue = 0; //!< monotonicity guard under jitter
    };

    Snapshot takeSnapshot() const { return s_; }
    void restore(const Snapshot &snap) { s_ = snap; }

  private:
    void rebase(uint64_t cycle);

    const uint64_t *cycle_;
    uint64_t jitter_;
    Random *rng_;
    Snapshot s_;
};

} // namespace pacman::cpu

#endif // PACMAN_CPU_TIMER_HH
