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
#include <vector>

#include "base/random.hh"
#include "mem/config.hh"
#include "mem/physmem.hh"

namespace pacman::mem
{

/** A set-associative tag array with LRU or random replacement. */
class Cache
{
  public:
    Cache(const SetAssocConfig &cfg, ReplPolicy policy, Random *rng);

    /**
     * Access the line containing @p pa: on a hit, refresh LRU state;
     * on a miss, allocate (evicting the victim).
     *
     * @return true on hit.
     */
    bool access(Addr pa);

    struct Line;

    /**
     * access() with the touched line returned: the hit line, or the
     * freshly (re)allocated victim on a miss. State effects are
     * identical to access() — this exists so the superblock executor
     * can hold the line and replay later same-line fetches through
     * rehitN() without repeating the tag scan.
     */
    Line *accessRef(Addr pa, bool *hit);

    /**
     * Replay @p k back-to-back hits on @p line, each with exactly the
     * bookkeeping of access()'s hit path (tick, journal touch, LRU
     * stamp, hit count), applied at once — see Tlb::rehitN for why
     * that is exact. @p line must be the live line a fresh lookup of
     * the same address would return (the superblock executor
     * guarantees this by holding the pointer only across a
     * straight-line run with no intervening invalidation). No effect
     * when @p k is 0.
     */
    void rehitN(Line *line, uint64_t k)
    {
        if (k == 0)
            return;
        tick_ += k;
        journalTouch(line);
        line->lruStamp = tick_;
        hits_ += k;
    }

    /** Live line containing @p pa, or nullptr. No state change. */
    Line *lineFor(Addr pa) { return findLine(pa); }

    /** Line at raw array index @p idx (timing-trace replay: the trace
     *  recorded the index of the line it hit; the set's generation
     *  label guarantees the index still names the same line). */
    Line *lineAt(size_t idx) { return &lines_[idx]; }

    /** Raw array index of a live @p line (timing-trace recording). */
    size_t indexOf(const Line *line) const
    {
        return size_t(line - lines_.data());
    }

    /**
     * Generation label of @p set: a value drawn from a never-rewound
     * per-structure counter on every *structural* mutation of the set
     * — a miss fill/eviction, an invalidation, or a flush. Pure LRU
     * refreshes on hits deliberately do NOT move it: hit replay is
     * order-insensitive (no victim choice happens), so the
     * timing-trace layer only needs to know the set's *membership* is
     * unchanged. Like PhysMem's page write generations, labels are
     * never reused and a snapshot restore rewinds a set's label
     * together with its lines, so a label match always implies the
     * identical set contents — across restores included.
     */
    uint64_t setGen(uint64_t set) const { return setGen_[set]; }

    /** Probe without changing any state. */
    bool contains(Addr pa) const;

    /** Invalidate the line containing @p pa if present. */
    void invalidate(Addr pa);

    /** Invalidate everything. */
    void flushAll();

    /** Set index the line containing @p pa maps to. */
    uint64_t setIndex(Addr pa) const;

    const SetAssocConfig &config() const { return cfg_; }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    /** Hit fraction since construction / the last resetStats(). */
    double hitRate() const
    {
        const uint64_t total = hits_ + misses_;
        return total ? double(hits_) / double(total) : 0.0;
    }

    /**
     * Zero the hit/miss counters and rebase the LRU clock so benches
     * can exclude warm-up. Rebasing subtracts a common offset from
     * tick_ and every live stamp; LRU ordering is purely relative, so
     * replacement decisions are unchanged.
     */
    void resetStats();

    /** One tag-array way (exposed so Snapshot can hold the array). */
    struct Line
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lruStamp = 0; //!< larger = more recently used
    };

    /** Complete mutable state: tag array, LRU clock, counters. */
    struct Snapshot
    {
        std::vector<Line> lines;
        std::vector<uint64_t> setGen; //!< per-set generation labels
        uint64_t tick = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;

        /** Which arming of the dirty-line journal this capture
         *  belongs to (restore fast-path validity check). */
        uint64_t journalEpoch = 0;
    };

    /**
     * Capture the complete tag-array state. Also (re)arms the
     * dirty-line journal — bookkeeping, not observable state, hence
     * const — so a later restore of THIS snapshot can copy back just
     * the lines touched since the capture instead of the whole array
     * (the large L2/SLC arrays make the full copy the dominant cost
     * of a replica restore). Restoring any other snapshot falls back
     * to the full copy.
     */
    Snapshot takeSnapshot() const;

    void restore(const Snapshot &snap);

  private:
    uint64_t lineNumber(Addr pa) const;
    uint64_t tagOf(uint64_t line_num) const;
    Line *findLine(Addr pa);
    const Line *findLine(Addr pa) const;
    Line &victimIn(uint64_t set);

    /** Record @p line as dirtied since the last takeSnapshot(). */
    void journalTouch(const Line *line)
    {
        if (journalOff_)
            return;
        const size_t idx = size_t(line - lines_.data());
        if (journaled_[idx])
            return;
        if (journal_.size() >= lines_.size() / 4) {
            journalOff_ = true; // cheaper to copy the array wholesale
            return;
        }
        journaled_[idx] = 1;
        journal_.push_back(uint32_t(idx));
    }

    /** Whole-array mutation (flushAll/resetStats): give up on the
     *  journal until the next capture re-arms it. */
    void journalBulk() { journalOff_ = true; }

    /** Stamp a fresh generation label on @p set (structural change). */
    void bumpSet(uint64_t set) { setGen_[set] = ++genCounter_; }

    SetAssocConfig cfg_;
    ReplPolicy policy_;
    Random *rng_;
    // lineBytes and sets are enforced powers of two, so the address
    // decomposition in lineNumber()/setIndex()/tagOf() reduces to
    // shifts and masks (hot enough that the divisions showed up at
    // the top of profiles).
    unsigned lineShift_ = 0;
    unsigned setShift_ = 0;
    uint64_t setMask_ = 0;
    std::vector<Line> lines_;  //!< sets * ways, set-major
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;

    // Per-set generation labels (see setGen()). The counter is the
    // label source; like PhysMem's write-generation counter it is
    // never captured or rewound, so labels stay unique across
    // restores and a stale timing trace can never re-validate.
    std::vector<uint64_t> setGen_;
    uint64_t genCounter_ = 0;

    // Dirty-line journal (see takeSnapshot). Mutable: arming from the
    // const capture path only redirects how restore copies bytes, it
    // never changes modelled behaviour. Disarmed until first capture.
    mutable bool journalOff_ = true;
    mutable uint64_t journalEpoch_ = 0;
    mutable std::vector<uint32_t> journal_;  //!< dirtied line indices
    mutable std::vector<uint8_t> journaled_; //!< per-line dedup flag
};

} // namespace pacman::mem

#endif // PACMAN_MEM_CACHE_HH
