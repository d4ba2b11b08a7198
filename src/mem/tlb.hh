/**
 * @file
 * Set-associative TLB model.
 *
 * Entries are tagged with the virtual page number and an address-space
 * id (user vs kernel), so user and kernel translations coexist in the
 * shared structures — exactly the property the cross-privilege-level
 * Prime+Probe channel in the paper relies on.
 */

#ifndef PACMAN_MEM_TLB_HH
#define PACMAN_MEM_TLB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/random.hh"
#include "mem/config.hh"
#include "mem/physmem.hh"

namespace pacman::mem
{

/** Address-space id distinguishing translations in shared TLBs. */
enum class Asid : uint8_t
{
    User = 0,
    Kernel = 1,
};

/** A cached translation. */
struct TlbEntry
{
    uint64_t vpn = 0;    //!< virtual page number
    Asid asid = Asid::User;
    uint64_t ppn = 0;    //!< physical page number
    bool writable = false;
    bool executable = false;
};

/** One TLB structure (an L1 iTLB, the L1 dTLB, or the L2 TLB). */
class Tlb
{
  public:
    Tlb(const SetAssocConfig &cfg, ReplPolicy policy, Random *rng);

    /**
     * Look up a translation; refreshes LRU state on hit.
     * @return the entry, or nullopt on miss.
     */
    std::optional<TlbEntry> lookup(uint64_t vpn, Asid asid);

    /** Probe without touching LRU state (test/verification use). */
    bool contains(uint64_t vpn, Asid asid) const;

    struct Way;

    /**
     * Live way holding (@p vpn, @p asid), or nullptr. No state change
     * (unlike lookup()). The superblock executor resolves the way once
     * per block entry and replays per-instruction hits via rehitN().
     */
    Way *wayFor(uint64_t vpn, Asid asid) { return find(vpn, asid); }

    /**
     * Replay @p k back-to-back hits on @p way, each with exactly the
     * bookkeeping of lookup()'s hit path (tick, journal touch, LRU
     * stamp, hit count), applied at once: tick += k, one journal
     * touch, one stamp, hits += k — the state k single hits leave,
     * provided nothing else touches this TLB in between (the
     * superblock executor batches its in-block fetch replays this
     * way). @p way must be the live way a fresh find of the same key
     * would return. No effect when @p k is 0.
     */
    void rehitN(Way *way, uint64_t k)
    {
        if (k == 0)
            return;
        tick_ += k;
        journalTouch(way);
        way->lruStamp = tick_;
        hits_ += k;
    }

    /**
     * Insert a translation; evicts the set's victim if full.
     * @return the evicted valid entry, if any (used to model the
     *         iTLB -> dTLB non-inclusive spill from Section 7.3).
     */
    std::optional<TlbEntry> insert(const TlbEntry &entry);

    /** Remove a translation if present; @return it. */
    std::optional<TlbEntry> remove(uint64_t vpn, Asid asid);

    /** Invalidate everything (e.g. on key rotation / boot). */
    void flushAll();

    /**
     * Invalidate every translation tagged @p asid (a context switch
     * flushing one address space while the other survives).
     * @return the number of entries invalidated.
     */
    unsigned flushAsid(Asid asid);

    /** Invalidate @p asid's translations in set @p set only (a
     *  partial flush). @return the number invalidated. */
    unsigned flushSetAsid(uint64_t set, Asid asid);

    /** Set index for @p vpn. */
    uint64_t setIndex(uint64_t vpn) const;

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
     * Zero the hit/miss counters and rebase the LRU clock (see
     * Cache::resetStats — replacement behaviour is unchanged).
     */
    void resetStats();

    /** One TLB way (exposed so Snapshot can hold the array). */
    struct Way
    {
        bool valid = false;
        TlbEntry entry;
        uint64_t lruStamp = 0;
    };

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

    /**
     * Capture the complete TLB state. Also (re)arms the dirty-way
     * journal (see Cache::takeSnapshot — same scheme, same
     * const-but-mutable-bookkeeping rationale): restoring this
     * snapshot copies back only the ways touched since the capture;
     * restoring any other snapshot falls back to the full copy.
     */
    Snapshot takeSnapshot() const;

    void restore(const Snapshot &snap);

  private:
    Way *find(uint64_t vpn, Asid asid);
    const Way *find(uint64_t vpn, Asid asid) const;
    Way &victimIn(uint64_t set);

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

    /** Whole-array mutation: disarm until the next capture. */
    void journalBulk() { journalOff_ = true; }

    SetAssocConfig cfg_;
    ReplPolicy policy_;
    Random *rng_;
    std::vector<Way> ways_;
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;

    // Dirty-way journal (see Cache). Disarmed until first capture.
    mutable bool journalOff_ = true;
    mutable uint64_t journalEpoch_ = 0;
    mutable std::vector<uint32_t> journal_;
    mutable std::vector<uint8_t> journaled_;
};

} // namespace pacman::mem

#endif // PACMAN_MEM_TLB_HH
