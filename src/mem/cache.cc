#include "cache.hh"

#include "base/bitfield.hh"
#include "base/logging.hh"

namespace pacman::mem
{

Cache::Cache(const SetAssocConfig &cfg, ReplPolicy policy, Random *rng)
    : SetAssocArray(cfg, policy, rng, "cache")
{
    if (!isPowerOf2(cfg.lineBytes))
        fatal("cache %s: line size %u not a power of two",
              cfg.name.c_str(), cfg.lineBytes);
    lineShift_ = floorLog2(cfg.lineBytes);
    setShift_ = floorLog2(cfg.sets);
    setMask_ = cfg.sets - 1;
}

uint64_t
Cache::setIndex(Addr pa) const
{
    const uint64_t line = lineNumber(pa);
    if (!config().hashedIndex)
        return line & setMask_;
    return (line ^ (line >> setShift_) ^ (line >> (2 * setShift_))) &
           setMask_;
}

Cache::Line *
Cache::accessRef(Addr pa, bool *hit)
{
    const uint64_t set = setIndex(pa);
    if (Line *line = lookupWay(set, holds(pa))) {
        *hit = true;
        return line;
    }
    *hit = false;
    Line &victim = replace(set);
    victim.valid = true;
    victim.tag = tagOf(pa);
    return &victim;
}

bool
Cache::access(Addr pa)
{
    bool hit;
    accessRef(pa, &hit);
    return hit;
}

void
Cache::invalidate(Addr pa)
{
    if (Line *line = find(setIndex(pa), holds(pa)))
        invalidateWay(line);
}

} // namespace pacman::mem
