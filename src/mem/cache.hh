/**
 * @file
 * Set-associative cache tag store.
 *
 * Only presence is modelled (data lives in PhysMem); that is all the
 * timing channel needs. Lines are physically indexed and tagged.
 */

#ifndef PACMAN_MEM_CACHE_HH
#define PACMAN_MEM_CACHE_HH

#include <cstdint>

#include "base/random.hh"
#include "mem/config.hh"
#include "mem/physmem.hh"
#include "mem/set_assoc.hh"

namespace pacman::mem
{

/** One tag-array way. */
struct CacheLine
{
    bool valid = false;
    uint64_t tag = 0;
    uint64_t lruStamp = 0; //!< larger = more recently used
};

/** A set-associative tag array with LRU or random replacement. */
class Cache : public SetAssocArray<CacheLine>
{
    uint64_t lineNumber(Addr pa) const { return pa >> lineShift_; }
    uint64_t tagOf(Addr pa) const { return lineNumber(pa) >> setShift_; }

    /** Matcher for the line holding @p pa. */
    auto holds(Addr pa) const
    {
        return [tag = tagOf(pa)](const CacheLine &line) {
            return line.tag == tag;
        };
    }

  public:
    using Line = CacheLine;

    Cache(const SetAssocConfig &cfg, ReplPolicy policy, Random *rng);

    /**
     * Access the line containing @p pa: on a hit, refresh LRU state;
     * on a miss, allocate (evicting the victim).
     *
     * @return true on hit.
     */
    bool access(Addr pa);

    /**
     * access() with the touched line returned: the hit line, or the
     * freshly (re)allocated victim on a miss. State effects are
     * identical to access() — this exists so the superblock executor
     * can hold the line and replay later same-line fetches through
     * rehitN() without repeating the tag scan.
     */
    Line *accessRef(Addr pa, bool *hit);

    /** Live line containing @p pa, or nullptr. No state change. */
    Line *lineFor(Addr pa) { return find(setIndex(pa), holds(pa)); }

    /** Probe without changing any state. */
    bool contains(Addr pa) const
    {
        return find(setIndex(pa), holds(pa)) != nullptr;
    }

    /** Invalidate the line containing @p pa if present. */
    void invalidate(Addr pa);

    /** Set index the line containing @p pa maps to. */
    uint64_t setIndex(Addr pa) const;

  private:
    // lineBytes and sets are enforced powers of two, so the address
    // decomposition in lineNumber()/setIndex()/tagOf() reduces to
    // shifts and masks (hot enough that the divisions showed up at
    // the top of profiles).
    unsigned lineShift_ = 0;
    unsigned setShift_ = 0;
    uint64_t setMask_ = 0;
};

} // namespace pacman::mem

#endif // PACMAN_MEM_CACHE_HH
