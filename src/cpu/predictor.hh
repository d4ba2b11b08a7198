/**
 * @file
 * Branch prediction structures: a bimodal (2-bit counter) conditional
 * predictor and a branch target buffer for indirect branches.
 *
 * The attack interacts with both: the conditional predictor is
 * trained so the PACMAN gadget's guard branch mis-speculates into the
 * gadget body, and the BTB supplies the (stale) predicted target of
 * the gadget's indirect branch until the authenticated pointer
 * resolves.
 *
 * Both log their reads to an attached mem::TouchLog while a guest call
 * records (cpu::CallMemo). The lookups sit on every committed branch,
 * so they are defined inline here.
 */

#ifndef PACMAN_CPU_PREDICTOR_HH
#define PACMAN_CPU_PREDICTOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "isa/pointer.hh"
#include "mem/touch_log.hh"

namespace pacman::cpu
{

/** Bimodal conditional-branch predictor (2-bit saturating counters). */
class BimodalPredictor
{
  public:
    /** @param entries Power-of-two table size. */
    explicit BimodalPredictor(unsigned entries);

    /** Predict taken/not-taken for the branch at @p pc. */
    bool
    predict(isa::Addr pc) const
    {
        const uint64_t idx = indexOf(pc);
        if (touchLog_)
            touchLog_->touch(touchTable_, idx, counters_[idx]);
        return counters_[idx] >= 2;
    }

    /** Train with the resolved direction. */
    void
    update(isa::Addr pc, bool taken)
    {
        const uint64_t idx = indexOf(pc);
        uint8_t &ctr = counters_[idx];
        if (touchLog_)
            touchLog_->touch(touchTable_, idx, ctr);
        if (taken) {
            if (ctr < 3)
                ++ctr;
        } else {
            if (ctr > 0)
                --ctr;
        }
    }

    /** Reset all counters to weakly not-taken. */
    void reset();

    /** Complete state: the counter table. */
    using Snapshot = std::vector<uint8_t>;

    Snapshot takeSnapshot() const { return counters_; }
    void restore(const Snapshot &snap) { counters_ = snap; }

    /** Log every counter read, with its value at the read, to @p log
     *  under table id @p table (nullptr detaches). */
    void
    attachTouchLog(mem::TouchLog *log, uint32_t table)
    {
        touchLog_ = log;
        touchTable_ = table;
    }

    /** Counter @p idx (a recorded call's guard and effect). */
    uint8_t counterAt(size_t idx) const { return counters_[idx]; }
    void setCounter(size_t idx, uint8_t value) { counters_[idx] = value; }

  private:
    uint64_t
    indexOf(isa::Addr pc) const
    {
        return (pc >> 2) & (counters_.size() - 1);
    }

    std::vector<uint8_t> counters_;
    mem::TouchLog *touchLog_ = nullptr;
    uint32_t touchTable_ = 0;
};

/** Direct-mapped branch target buffer. */
class Btb
{
  public:
    explicit Btb(unsigned entries);

    /**
     * Predicted target for the indirect branch at @p pc, if any. A
     * miss spoils an attached log: the front end then waits for the
     * target, and an authenticated target's resolve time depends on
     * scoreboard entries below the recorder's clamp.
     */
    std::optional<isa::Addr> lookup(isa::Addr pc) const;

    /** Record the resolved target. */
    void update(isa::Addr pc, isa::Addr target);

    /** Invalidate all entries. */
    void reset();

    /** One BTB entry (exposed so Snapshot can hold the table). */
    struct Entry
    {
        bool valid = false;
        isa::Addr tag = 0;
        isa::Addr target = 0;

        bool operator==(const Entry &) const = default;
    };

    /** Complete state: the entry table. */
    using Snapshot = std::vector<Entry>;

    Snapshot takeSnapshot() const { return entries_; }
    void restore(const Snapshot &snap) { entries_ = snap; }

    /** Log every entry read or written to @p log under table id
     *  @p table (nullptr detaches). */
    void
    attachTouchLog(mem::TouchLog *log, uint32_t table)
    {
        touchLog_ = log;
        touchTable_ = table;
    }

    /** Entry @p idx (a recorded call's guard). */
    const Entry &entryAt(size_t idx) const { return entries_[idx]; }

  private:
    uint64_t indexOf(isa::Addr pc) const;

    std::vector<Entry> entries_;
    mem::TouchLog *touchLog_ = nullptr;
    uint32_t touchTable_ = 0;
};

} // namespace pacman::cpu

#endif // PACMAN_CPU_PREDICTOR_HH
