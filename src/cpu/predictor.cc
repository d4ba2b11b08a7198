#include "predictor.hh"

#include "base/bitfield.hh"
#include "base/logging.hh"

namespace pacman::cpu
{

BimodalPredictor::BimodalPredictor(unsigned entries)
    : counters_(entries, 1) // weakly not-taken
{
    if (!isPowerOf2(entries))
        fatal("bimodal predictor: %u entries not a power of two",
              entries);
}

void
BimodalPredictor::reset()
{
    for (auto &ctr : counters_)
        ctr = 1;
}

Btb::Btb(unsigned entries)
    : entries_(entries)
{
    if (!isPowerOf2(entries))
        fatal("btb: %u entries not a power of two", entries);
}

uint64_t
Btb::indexOf(isa::Addr pc) const
{
    return (pc >> 2) & (entries_.size() - 1);
}

std::optional<isa::Addr>
Btb::lookup(isa::Addr pc) const
{
    const uint64_t idx = indexOf(pc);
    const Entry &entry = entries_[idx];
    if (entry.valid && entry.tag == pc) {
        if (touchLog_)
            touchLog_->touch(touchTable_, idx);
        return entry.target;
    }
    if (touchLog_)
        touchLog_->spoil();
    return std::nullopt;
}

void
Btb::update(isa::Addr pc, isa::Addr target)
{
    const uint64_t idx = indexOf(pc);
    if (touchLog_)
        touchLog_->touch(touchTable_, idx);
    Entry &entry = entries_[idx];
    entry.valid = true;
    entry.tag = pc;
    entry.target = target;
}

void
Btb::reset()
{
    for (auto &entry : entries_)
        entry.valid = false;
}

} // namespace pacman::cpu
