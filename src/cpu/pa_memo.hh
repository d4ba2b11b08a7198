/**
 * @file
 * The physical-address-keyed memo table behind the front end's fast
 * path: the decoded-instruction cache (cpu/decode_cache.hh) and the
 * superblock cache (cpu/superblock.hh) are both this table.
 *
 * Coherence is validation-based rather than invalidation-based, so the
 * store hot path carries no callbacks: every entry records the PhysMem
 * write generation its page had when the entry was built, a lookup
 * under a different generation drops it, and the hierarchy's fetch
 * epoch (syncEpoch) drops everything at once.
 */

#ifndef PACMAN_CPU_PA_MEMO_HH
#define PACMAN_CPU_PA_MEMO_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/pointer.hh"

namespace pacman::cpu
{

/** Key of one memo entry; entry types derive from it. */
struct PaMemoKey
{
    static constexpr isa::Addr NoPa = ~isa::Addr(0);

    isa::Addr pa = NoPa; //!< PA the entry was built at; NoPa: empty
    uint64_t gen = 0;    //!< page write generation at build time
};

/**
 * Two-way set-associative table of @p NumEntries (a power of two)
 * @p Entry values keyed by PA. Two ways (with a 1-bit LRU per set)
 * matter: the training loop alternates between user trampoline PCs and
 * kernel gadget PCs whose index bits coincide, and a direct-mapped
 * array thrashes on exactly that pair-per-set pattern.
 */
template <typename Entry, size_t NumEntries>
class PaMemo
{
  public:
    static constexpr unsigned Ways = 2;
    static constexpr size_t NumSets = NumEntries / Ways;

    PaMemo() : entries_(NumEntries), victim_(NumSets, 0) {}

    /**
     * Entry keyed @p pa, or nullptr when absent or stale (the page's
     * write generation no longer matches @p page_gen — the entry is
     * dropped on the spot and counted in @p *invalidations if given).
     */
    Entry *
    lookup(isa::Addr pa, uint64_t page_gen,
           uint64_t *invalidations = nullptr)
    {
        const size_t set = setOf(pa);
        for (unsigned w = 0; w < Ways; ++w) {
            Entry &e = entries_[set * Ways + w];
            if (e.pa != pa)
                continue;
            if (e.gen != page_gen) {
                e.pa = Entry::NoPa;
                if (invalidations)
                    ++*invalidations;
                return nullptr;
            }
            victim_[set] = uint8_t(w ^ 1);
            return &e;
        }
        return nullptr;
    }

    /**
     * Claim the fill slot for @p pa — its own way if present, else an
     * empty way, else the set's LRU victim — and key it with
     * @p page_gen. The caller fills in the rest.
     */
    Entry &
    claim(isa::Addr pa, uint64_t page_gen)
    {
        const size_t set = setOf(pa);
        unsigned pick = victim_[set];
        for (unsigned w = 0; w < Ways; ++w) {
            const Entry &e = entries_[set * Ways + w];
            if (e.pa == pa || e.pa == Entry::NoPa) {
                pick = w;
                break;
            }
        }
        victim_[set] = uint8_t(pick ^ 1);
        Entry &e = entries_[set * Ways + pick];
        e.pa = pa;
        e.gen = page_gen;
        return e;
    }

    /**
     * Compare against the hierarchy's fetch epoch; drop everything
     * when it moved (counted once in @p *invalidations if given).
     */
    void
    syncEpoch(uint64_t epoch, uint64_t *invalidations = nullptr)
    {
        if (epoch != epoch_) {
            epoch_ = epoch;
            flush();
            if (invalidations)
                ++*invalidations;
        }
    }

    /** Drop every entry. */
    void
    flush()
    {
        for (Entry &e : entries_)
            e.pa = Entry::NoPa;
    }

  private:
    static size_t
    setOf(isa::Addr pa)
    {
        // Fold page-number bits into the index: hot code regions
        // (trampolines, eviction stubs) sit at identical page offsets
        // across many pages, which a pure offset index would alias
        // into a handful of sets.
        return (size_t(pa >> 2) ^ size_t(pa >> isa::PageShift) ^
                size_t(pa >> (2 * isa::PageShift))) &
               (NumSets - 1);
    }

    std::vector<Entry> entries_;
    std::vector<uint8_t> victim_;
    uint64_t epoch_ = 0;
};

} // namespace pacman::cpu

#endif // PACMAN_CPU_PA_MEMO_HH
