#include "tlb.hh"

#include "base/bitfield.hh"
#include "base/logging.hh"

namespace pacman::mem
{

Tlb::Tlb(const SetAssocConfig &cfg, ReplPolicy policy, Random *rng)
    : cfg_(cfg), policy_(policy), rng_(rng),
      ways_(size_t(cfg.sets) * cfg.ways)
{
    if (!isPowerOf2(cfg.sets))
        fatal("tlb %s: set count %u not a power of two",
              cfg.name.c_str(), cfg.sets);
    if (policy_ == ReplPolicy::Random && rng_ == nullptr)
        fatal("tlb %s: random replacement requires an RNG",
              cfg.name.c_str());
}

uint64_t
Tlb::setIndex(uint64_t vpn) const
{
    return vpn & (cfg_.sets - 1);
}

Tlb::Way *
Tlb::find(uint64_t vpn, Asid asid)
{
    Way *base = &ways_[setIndex(vpn) * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (base[w].valid && base[w].entry.vpn == vpn &&
            base[w].entry.asid == asid) {
            return &base[w];
        }
    }
    return nullptr;
}

const Tlb::Way *
Tlb::find(uint64_t vpn, Asid asid) const
{
    return const_cast<Tlb *>(this)->find(vpn, asid);
}

Tlb::Way &
Tlb::victimIn(uint64_t set)
{
    Way *base = &ways_[set * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (!base[w].valid)
            return base[w];
    }
    if (policy_ == ReplPolicy::Random)
        return base[rng_->next(cfg_.ways)];
    Way *victim = &base[0];
    for (unsigned w = 1; w < cfg_.ways; ++w) {
        if (base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    return *victim;
}

std::optional<TlbEntry>
Tlb::lookup(uint64_t vpn, Asid asid)
{
    ++tick_;
    if (Way *way = find(vpn, asid)) {
        journalTouch(way);
        way->lruStamp = tick_;
        ++hits_;
        return way->entry;
    }
    ++misses_;
    return std::nullopt;
}

bool
Tlb::contains(uint64_t vpn, Asid asid) const
{
    return find(vpn, asid) != nullptr;
}

std::optional<TlbEntry>
Tlb::insert(const TlbEntry &entry)
{
    ++tick_;
    // Refresh in place if already present (a remap + re-walk may
    // change the mapped frame or permissions).
    if (Way *way = find(entry.vpn, entry.asid)) {
        journalTouch(way);
        way->entry = entry;
        way->lruStamp = tick_;
        return std::nullopt;
    }
    Way &victim = victimIn(setIndex(entry.vpn));
    journalTouch(&victim);
    std::optional<TlbEntry> evicted;
    if (victim.valid)
        evicted = victim.entry;
    victim.valid = true;
    victim.entry = entry;
    victim.lruStamp = tick_;
    return evicted;
}

std::optional<TlbEntry>
Tlb::remove(uint64_t vpn, Asid asid)
{
    if (Way *way = find(vpn, asid)) {
        journalTouch(way);
        way->valid = false;
        return way->entry;
    }
    return std::nullopt;
}

void
Tlb::flushAll()
{
    journalBulk();
    for (Way &way : ways_)
        way.valid = false;
}

unsigned
Tlb::flushAsid(Asid asid)
{
    journalBulk();
    unsigned n = 0;
    for (Way &way : ways_) {
        if (way.valid && way.entry.asid == asid) {
            way.valid = false;
            ++n;
        }
    }
    return n;
}

void
Tlb::resetStats()
{
    journalBulk();
    hits_ = misses_ = 0;
    uint64_t min_stamp = tick_;
    for (const Way &way : ways_) {
        if (way.valid && way.lruStamp < min_stamp)
            min_stamp = way.lruStamp;
    }
    tick_ -= min_stamp;
    for (Way &way : ways_) {
        if (way.valid)
            way.lruStamp -= min_stamp;
    }
}

unsigned
Tlb::flushSetAsid(uint64_t set, Asid asid)
{
    unsigned n = 0;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        Way &way = ways_[set * cfg_.ways + w];
        if (way.valid && way.entry.asid == asid) {
            journalTouch(&way);
            way.valid = false;
            ++n;
        }
    }
    return n;
}

Tlb::Snapshot
Tlb::takeSnapshot() const
{
    ++journalEpoch_;
    journalOff_ = false;
    journal_.clear();
    journaled_.assign(ways_.size(), 0);
    return {ways_, tick_, hits_, misses_, journalEpoch_};
}

void
Tlb::restore(const Snapshot &snap)
{
    tick_ = snap.tick;
    hits_ = snap.hits;
    misses_ = snap.misses;
    if (snap.journalEpoch == journalEpoch_ && !journalOff_) {
        // The journal lists exactly the ways dirtied since this
        // snapshot was captured; everything else is already identical.
        for (const uint32_t idx : journal_) {
            ways_[idx] = snap.ways[idx];
            journaled_[idx] = 0;
        }
        journal_.clear();
        return;
    }
    ways_ = snap.ways;
    if (snap.journalEpoch == journalEpoch_) {
        // Journal overflowed; the full copy re-synced us with this
        // (still armed) snapshot: re-arm.
        journal_.clear();
        journaled_.assign(ways_.size(), 0);
        journalOff_ = false;
    } else {
        journalOff_ = true;
    }
}

} // namespace pacman::mem
