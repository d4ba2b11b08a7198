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

#include "base/random.hh"
#include "mem/config.hh"
#include "mem/physmem.hh"
#include "mem/set_assoc.hh"

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

/** One TLB way. */
struct TlbWay
{
    bool valid = false;
    TlbEntry entry;
    uint64_t lruStamp = 0;
};

/** One TLB structure (an L1 iTLB, the L1 dTLB, or the L2 TLB). */
class Tlb : public SetAssocArray<TlbWay>
{
    /** Matcher for the way holding (@p vpn, @p asid). */
    static auto holds(uint64_t vpn, Asid asid)
    {
        return [vpn, asid](const TlbWay &way) {
            return way.entry.vpn == vpn && way.entry.asid == asid;
        };
    }

  public:
    using Way = TlbWay;

    Tlb(const SetAssocConfig &cfg, ReplPolicy policy, Random *rng)
        : SetAssocArray(cfg, policy, rng, "tlb")
    {
    }

    /**
     * Look up a translation; refreshes LRU state on hit.
     * @return the entry, or nullopt on miss.
     */
    std::optional<TlbEntry> lookup(uint64_t vpn, Asid asid);

    /** Probe without touching LRU state (test/verification use). */
    bool contains(uint64_t vpn, Asid asid) const
    {
        return find(setIndex(vpn), holds(vpn, asid)) != nullptr;
    }

    /**
     * Live way holding (@p vpn, @p asid), or nullptr. No state change
     * (unlike lookup()). The superblock executor resolves the way once
     * per block entry and replays per-instruction hits via rehitN().
     */
    Way *wayFor(uint64_t vpn, Asid asid)
    {
        return find(setIndex(vpn), holds(vpn, asid));
    }

    /**
     * Insert a translation; evicts the set's victim if full.
     * @return the evicted valid entry, if any (used to model the
     *         iTLB -> dTLB non-inclusive spill from Section 7.3).
     */
    std::optional<TlbEntry> insert(const TlbEntry &entry);

    /** Remove a translation if present; @return it. */
    std::optional<TlbEntry> remove(uint64_t vpn, Asid asid);

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
    uint64_t setIndex(uint64_t vpn) const
    {
        return vpn & (config().sets - 1);
    }
};

} // namespace pacman::mem

#endif // PACMAN_MEM_TLB_HH
