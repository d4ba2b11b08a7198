#include "timer.hh"

namespace pacman::cpu
{

ThreadTimerDevice::ThreadTimerDevice(const uint64_t *cycle,
                                     uint64_t incrementsPer1k,
                                     uint64_t jitter, Random *rng)
    : cycle_(cycle), jitter_(jitter), rng_(rng),
      s_{.basePer1k = incrementsPer1k}
{
}

void
ThreadTimerDevice::rebase(uint64_t cycle)
{
    // Anchor the slope at the current (un-jittered) value so rate
    // changes are continuous. A backwards raw jump would be clamped
    // by the monotonicity guard and read as a long stall instead.
    const uint64_t rate = s_.basePer1k * s_.scalePermille / 1000;
    s_.baseValue += (cycle - s_.baseCycle) * rate / 1000;
    s_.baseCycle = cycle;
}

void
ThreadTimerDevice::setBaseRatePer1k(uint64_t per1k)
{
    rebase(*cycle_);
    s_.basePer1k = per1k;
}

void
ThreadTimerDevice::setRateScalePermille(uint64_t permille)
{
    rebase(*cycle_);
    s_.scalePermille = permille;
}

void
ThreadTimerDevice::injectStall(uint64_t cycles)
{
    s_.stalled = true;
    s_.stallUntil = *cycle_ + cycles;
}

void
ThreadTimerDevice::injectJitterBurst(uint64_t extra, uint64_t cycles)
{
    s_.burstExtra = extra;
    s_.burstUntil = *cycle_ + cycles;
}

uint64_t
ThreadTimerDevice::valueAt(uint64_t cycle)
{
    if (s_.stalled) {
        if (cycle < s_.stallUntil)
            return s_.lastValue; // descheduled: no draws, no progress
        // Resume counting from the frozen value — the loop iterations
        // that would have run are simply lost (permanent offset).
        s_.stalled = false;
        s_.baseCycle = cycle;
        s_.baseValue = s_.lastValue;
    }
    const uint64_t rate = s_.basePer1k * s_.scalePermille / 1000;
    uint64_t value = s_.baseValue + (cycle - s_.baseCycle) * rate / 1000;
    const uint64_t jit =
        jitter_ + (cycle < s_.burstUntil ? s_.burstExtra : 0);
    if (jit > 0 && rng_) {
        const int64_t noise = rng_->range(-int64_t(jit), int64_t(jit));
        value = uint64_t(int64_t(value) + noise);
    }
    // The real counter is monotonic; jitter must not reverse it.
    if (value < s_.lastValue)
        value = s_.lastValue;
    s_.lastValue = value;
    return value;
}

uint64_t
ThreadTimerDevice::read(uint64_t offset, unsigned size)
{
    (void)offset;
    (void)size;
    return valueAt(*cycle_);
}

void
ThreadTimerDevice::write(uint64_t offset, uint64_t value, unsigned size)
{
    // Stores to the shared counter page are permitted (the real
    // variable is ordinary memory) but have no effect on the model.
    (void)offset;
    (void)value;
    (void)size;
}

} // namespace pacman::cpu
