/**
 * @file
 * The set-associative way array behind every modelled cache and TLB.
 *
 * PACMAN transmits through set-conflict Prime+Probe on these
 * structures, so everything the channel depends on is defined here,
 * once: victim choice (an invalid way first, then the random or LRU
 * victim), the LRU clock, the hit/miss counters, and the dirty-way
 * journal that makes a snapshot restore cheap. Cache and Tlb derive
 * from it and add only what differs: the key and set index, and their
 * fill and invalidation verbs. Nothing here is virtual.
 *
 * The guest-call memo (cpu::CallMemo) attaches a TouchLog: while a
 * call records, every stamp logs its way, and a lookup miss spoils the
 * log, since a replay reproduces only hits. Fills, evictions and random-replacement draws
 * all follow a miss; invalidations other than a TLB entry's move after
 * an iTLB miss, flushes and resetStats() happen only between calls.
 */

#ifndef PACMAN_MEM_SET_ASSOC_HH
#define PACMAN_MEM_SET_ASSOC_HH

#include <cstdint>
#include <vector>

#include "base/bitfield.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "mem/config.hh"
#include "mem/touch_log.hh"

namespace pacman::mem
{

/**
 * A sets x ways array of @p Way with LRU or random replacement. A Way
 * has `bool valid` and `uint64_t lruStamp` (larger = more recently
 * used) beside its key; the array never reads the key itself — callers
 * pass a matcher.
 */
template <typename Way>
class SetAssocArray
{
  public:
    /** Complete mutable state: way array, LRU clock, counters. */
    struct Snapshot
    {
        std::vector<Way> ways;
        uint64_t tick = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;

        /** Which arming of the dirty-way journal this capture
         *  belongs to (restore fast-path validity check). */
        uint64_t journalEpoch = 0;
    };

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
     * Replay @p k back-to-back hits on @p way, each with exactly the
     * bookkeeping of a lookup's hit path (tick, journal touch, LRU
     * stamp, hit count), applied at once: tick += k, one journal
     * touch, one stamp, hits += k — the state k single hits leave,
     * provided nothing else touches this array in between (the
     * superblock executor batches its in-block fetch replays this
     * way). @p way must be the live way a fresh lookup of the same key
     * would return. No effect when @p k is 0.
     */
    void rehitN(Way *way, uint64_t k)
    {
        if (k == 0)
            return;
        tick_ += k;
        stamp(way);
        hits_ += k;
    }

    /** Route this array's touches to @p log under table id
     *  @p table (nullptr detaches). */
    void attachTouchLog(TouchLog *log, uint32_t table)
    {
        touchLog_ = log;
        touchTable_ = table;
    }

    /** The LRU clock: the stamp the next hit or fill will write. */
    uint64_t lruClock() const { return tick_; }

    /** Way @p index (set-major), read-only. */
    const Way &wayAt(size_t index) const { return ways_[index]; }

    /**
     * Replay a recorded call's net effect on way @p index: stamp it
     * @p offset ticks past the current clock, through the dirty-way
     * journal like every stamp. Call it for every way the call touched
     * before replayAdvance() moves the clock.
     */
    void replayStamp(size_t index, uint64_t offset)
    {
        Way *way = &ways_[index];
        journalTouch(way);
        way->lruStamp = tick_ + offset;
    }

    /** Advance the clock and the hit count by a recorded call's
     *  @p hits (a call that only hit moved its clock by as many). */
    void replayHits(uint64_t hits)
    {
        tick_ += hits;
        hits_ += hits;
    }

    /** Invalidate everything. */
    void flushAll()
    {
        invalidateWhere([](const Way &) { return true; });
    }

    /**
     * Zero the hit/miss counters and rebase the LRU clock so benches
     * can exclude warm-up. Rebasing subtracts a common offset from the
     * clock and every live stamp; LRU ordering is purely relative, so
     * replacement decisions are unchanged.
     */
    void resetStats()
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

    /**
     * Capture the complete state. Also (re)arms the dirty-way journal
     * — bookkeeping, not observable state, hence const — so a later
     * restore of THIS snapshot can copy back just the ways touched
     * since the capture instead of the whole array (the large L2/SLC
     * arrays make the full copy the dominant cost of a replica
     * restore). Restoring any other snapshot falls back to the full
     * copy.
     */
    Snapshot takeSnapshot() const
    {
        ++journalEpoch_;
        journalOff_ = false;
        journal_.clear();
        journaled_.assign(ways_.size(), 0);
        return {ways_, tick_, hits_, misses_, journalEpoch_};
    }

    void restore(const Snapshot &snap)
    {
        tick_ = snap.tick;
        hits_ = snap.hits;
        misses_ = snap.misses;
        if (snap.journalEpoch == journalEpoch_ && !journalOff_) {
            // The journal lists exactly the ways dirtied since this
            // snapshot was captured; everything else is already
            // identical.
            for (const uint32_t idx : journal_) {
                ways_[idx] = snap.ways[idx];
                journaled_[idx] = 0;
            }
            journal_.clear();
            return;
        }
        ways_ = snap.ways;
        if (snap.journalEpoch == journalEpoch_) {
            // The journal overflowed, but the full copy just made the
            // live state equal this (still armed) snapshot again:
            // re-arm.
            journal_.clear();
            journaled_.assign(ways_.size(), 0);
            journalOff_ = false;
        } else {
            // Restored a snapshot the journal was not armed against;
            // its contents no longer describe the divergence from
            // anything.
            journalOff_ = true;
        }
    }

  protected:
    /** @p kind names the structure in geometry errors. */
    SetAssocArray(const SetAssocConfig &cfg, ReplPolicy policy,
                  Random *rng, const char *kind)
        : cfg_(cfg), policy_(policy), rng_(rng),
          ways_(size_t(cfg.sets) * cfg.ways)
    {
        if (!isPowerOf2(cfg.sets))
            fatal("%s %s: set count %u not a power of two", kind,
                  cfg.name.c_str(), cfg.sets);
        if (policy_ == ReplPolicy::Random && rng_ == nullptr)
            fatal("%s %s: random replacement requires an RNG", kind,
                  cfg.name.c_str());
    }

    /** First way of @p set (ways are stored set-major). */
    Way *setWays(uint64_t set) { return &ways_[set * cfg_.ways]; }

    /** Valid way in @p set that @p match accepts, or nullptr. No
     *  state change. */
    template <typename Match>
    Way *find(uint64_t set, Match match)
    {
        Way *base = setWays(set);
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (base[w].valid && match(base[w]))
                return &base[w];
        }
        return nullptr;
    }

    template <typename Match>
    const Way *find(uint64_t set, Match match) const
    {
        return const_cast<SetAssocArray *>(this)->find(set, match);
    }

    /** A lookup: one hit on the way @p match accepts, or one tick of
     *  the LRU clock and a miss. */
    template <typename Match>
    Way *lookupWay(uint64_t set, Match match)
    {
        Way *way = find(set, match);
        if (way) {
            rehitN(way, 1);
        } else {
            if (touchLog_)
                touchLog_->spoil();
            ++tick_;
            ++misses_;
        }
        return way;
    }

    /** Advance the LRU clock without counting a hit or a miss (a
     *  TLB fill after its lookup already counted one). */
    void tick() { ++tick_; }

    /** Mark @p way most recently used at the current tick. */
    void stamp(Way *way)
    {
        if (touchLog_)
            touchLog_->touch(touchTable_, size_t(way - ways_.data()));
        journalTouch(way);
        way->lruStamp = tick_;
    }

    /**
     * The way a fill of @p set takes — an invalid way first, else the
     * random or LRU victim — stamped at the current tick. Its old
     * contents are left for the caller to read (the TLB spill) and
     * overwrite.
     */
    Way &replace(uint64_t set)
    {
        Way &victim = victimIn(set);
        stamp(&victim);
        return victim;
    }

    /** Invalidate one way (without touching the LRU clock). */
    void invalidateWay(Way *way)
    {
        journalTouch(way);
        way->valid = false;
    }

    /** Invalidate every valid way @p pred accepts, across all sets.
     *  @return the number invalidated. */
    template <typename Pred>
    unsigned invalidateWhere(Pred pred)
    {
        journalBulk();
        unsigned n = 0;
        for (Way &way : ways_) {
            if (way.valid && pred(way)) {
                way.valid = false;
                ++n;
            }
        }
        return n;
    }

  private:
    Way &victimIn(uint64_t set)
    {
        Way *base = setWays(set);
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

    /** Record @p way as dirtied since the last takeSnapshot(). */
    void journalTouch(const Way *way)
    {
        if (journalOff_)
            return;
        const size_t idx = size_t(way - ways_.data());
        if (journaled_[idx])
            return;
        if (journal_.size() >= ways_.size() / 4) {
            journalOff_ = true; // cheaper to copy the array wholesale
            return;
        }
        journaled_[idx] = 1;
        journal_.push_back(uint32_t(idx));
    }

    /** Whole-array mutation (flushes, resetStats): give up on the
     *  journal until the next capture re-arms it. */
    void journalBulk() { journalOff_ = true; }

    SetAssocConfig cfg_;
    ReplPolicy policy_;
    Random *rng_;
    std::vector<Way> ways_; //!< sets * ways, set-major
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;

    // Host-side: the guest-call memo's log (FastPath::Full only).
    TouchLog *touchLog_ = nullptr;
    uint32_t touchTable_ = 0;

    // Dirty-way journal (see takeSnapshot). Mutable: arming from the
    // const capture path only redirects how restore copies bytes, it
    // never changes modelled behaviour. Disarmed until first capture.
    mutable bool journalOff_ = true;
    mutable uint64_t journalEpoch_ = 0;
    mutable std::vector<uint32_t> journal_;  //!< dirtied way indices
    mutable std::vector<uint8_t> journaled_; //!< per-way dedup flag
};

} // namespace pacman::mem

#endif // PACMAN_MEM_SET_ASSOC_HH
