#include "cache.hh"

#include "base/bitfield.hh"
#include "base/logging.hh"

namespace pacman::mem
{

Cache::Cache(const SetAssocConfig &cfg, ReplPolicy policy, Random *rng)
    : cfg_(cfg), policy_(policy), rng_(rng),
      lines_(size_t(cfg.sets) * cfg.ways)
{
    if (!isPowerOf2(cfg.sets))
        fatal("cache %s: set count %u not a power of two",
              cfg.name.c_str(), cfg.sets);
    if (!isPowerOf2(cfg.lineBytes))
        fatal("cache %s: line size %u not a power of two",
              cfg.name.c_str(), cfg.lineBytes);
    if (policy_ == ReplPolicy::Random && rng_ == nullptr)
        fatal("cache %s: random replacement requires an RNG",
              cfg.name.c_str());
    lineShift_ = floorLog2(cfg_.lineBytes);
    setShift_ = floorLog2(cfg_.sets);
    setMask_ = cfg_.sets - 1;
}

uint64_t
Cache::lineNumber(Addr pa) const
{
    return pa >> lineShift_;
}

uint64_t
Cache::setIndex(Addr pa) const
{
    const uint64_t line = lineNumber(pa);
    if (!cfg_.hashedIndex)
        return line & setMask_;
    return (line ^ (line >> setShift_) ^ (line >> (2 * setShift_))) &
           setMask_;
}

uint64_t
Cache::tagOf(uint64_t line_num) const
{
    return line_num >> setShift_;
}

Cache::Line *
Cache::findLine(Addr pa)
{
    const uint64_t set = setIndex(pa);
    const uint64_t tag = tagOf(lineNumber(pa));
    Line *base = &lines_[set * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr pa) const
{
    return const_cast<Cache *>(this)->findLine(pa);
}

Cache::Line &
Cache::victimIn(uint64_t set)
{
    Line *base = &lines_[set * cfg_.ways];
    // Invalid line first.
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (!base[w].valid)
            return base[w];
    }
    if (policy_ == ReplPolicy::Random)
        return base[rng_->next(cfg_.ways)];
    Line *victim = &base[0];
    for (unsigned w = 1; w < cfg_.ways; ++w) {
        if (base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    return *victim;
}

Cache::Line *
Cache::accessRef(Addr pa, bool *hit)
{
    ++tick_;
    if (Line *line = findLine(pa)) {
        journalTouch(line);
        line->lruStamp = tick_;
        ++hits_;
        *hit = true;
        return line;
    }
    ++misses_;
    Line &victim = victimIn(setIndex(pa));
    journalTouch(&victim);
    victim.valid = true;
    victim.tag = tagOf(lineNumber(pa));
    victim.lruStamp = tick_;
    *hit = false;
    return &victim;
}

bool
Cache::access(Addr pa)
{
    bool hit;
    accessRef(pa, &hit);
    return hit;
}

bool
Cache::contains(Addr pa) const
{
    return findLine(pa) != nullptr;
}

void
Cache::invalidate(Addr pa)
{
    if (Line *line = findLine(pa)) {
        journalTouch(line);
        line->valid = false;
    }
}

void
Cache::flushAll()
{
    journalBulk();
    for (Line &line : lines_)
        line.valid = false;
}

void
Cache::resetStats()
{
    journalBulk();
    hits_ = misses_ = 0;
    uint64_t min_stamp = tick_;
    for (const Line &line : lines_) {
        if (line.valid && line.lruStamp < min_stamp)
            min_stamp = line.lruStamp;
    }
    tick_ -= min_stamp;
    for (Line &line : lines_) {
        if (line.valid)
            line.lruStamp -= min_stamp;
    }
}

Cache::Snapshot
Cache::takeSnapshot() const
{
    ++journalEpoch_;
    journalOff_ = false;
    journal_.clear();
    journaled_.assign(lines_.size(), 0);
    return {lines_, tick_, hits_, misses_, journalEpoch_};
}

void
Cache::restore(const Snapshot &snap)
{
    tick_ = snap.tick;
    hits_ = snap.hits;
    misses_ = snap.misses;
    if (snap.journalEpoch == journalEpoch_ && !journalOff_) {
        // The journal lists exactly the lines dirtied since this
        // snapshot was captured; everything else is already identical.
        for (const uint32_t idx : journal_) {
            lines_[idx] = snap.lines[idx];
            journaled_[idx] = 0;
        }
        journal_.clear();
        return;
    }
    lines_ = snap.lines;
    if (snap.journalEpoch == journalEpoch_) {
        // The journal overflowed, but the full copy just made the
        // live state equal this (still armed) snapshot again: re-arm.
        journal_.clear();
        journaled_.assign(lines_.size(), 0);
        journalOff_ = false;
    } else {
        // Restored a snapshot the journal was not armed against; its
        // contents no longer describe the divergence from anything.
        journalOff_ = true;
    }
}

} // namespace pacman::mem
