#include "tlb.hh"

namespace pacman::mem
{

std::optional<TlbEntry>
Tlb::lookup(uint64_t vpn, Asid asid)
{
    if (const Way *way = lookupWay(setIndex(vpn), holds(vpn, asid)))
        return way->entry;
    return std::nullopt;
}

std::optional<TlbEntry>
Tlb::insert(const TlbEntry &entry)
{
    tick();
    const uint64_t set = setIndex(entry.vpn);
    // Refresh in place if already present (a remap + re-walk may
    // change the mapped frame or permissions).
    if (Way *way = find(set, holds(entry.vpn, entry.asid))) {
        stamp(way);
        way->entry = entry;
        return std::nullopt;
    }
    Way &victim = replace(set);
    std::optional<TlbEntry> evicted;
    if (victim.valid)
        evicted = victim.entry;
    victim.valid = true;
    victim.entry = entry;
    return evicted;
}

std::optional<TlbEntry>
Tlb::remove(uint64_t vpn, Asid asid)
{
    if (Way *way = find(setIndex(vpn), holds(vpn, asid))) {
        invalidateWay(way);
        return way->entry;
    }
    return std::nullopt;
}

unsigned
Tlb::flushAsid(Asid asid)
{
    return invalidateWhere(
        [asid](const Way &way) { return way.entry.asid == asid; });
}

unsigned
Tlb::flushSetAsid(uint64_t set, Asid asid)
{
    unsigned n = 0;
    Way *ways = setWays(set);
    for (unsigned w = 0; w < config().ways; ++w) {
        if (ways[w].valid && ways[w].entry.asid == asid) {
            invalidateWay(&ways[w]);
            ++n;
        }
    }
    return n;
}

} // namespace pacman::mem
