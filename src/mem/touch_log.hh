/**
 * @file
 * The footprint log of one guest call under recording (cpu::CallMemo).
 *
 * While a call records, the structures its execution reads append what
 * they touched here: the cache and TLB ways they stamped, the predictor
 * counters and BTB entries they read, and the physical pages loads read
 * from. Anything a replay could not reproduce from that footprint — a
 * cache or TLB miss (which every fill, eviction and device access
 * follows), a store — spoils the log instead, and every later append
 * is dropped, so a call that cannot be recorded stops paying for the
 * log at its first impure event. Logging never changes modelled state.
 *
 * Each structure is attached under a small table id chosen by the
 * recorder (MemoryHierarchy numbers its eight arrays 0..7). The
 * recorder attaches its log once; outside a recording the log stays
 * spoiled, so a hook costs a null check and a flag test. Without a
 * recorder (FastPath::Reference) every hook is one null check.
 */

#ifndef PACMAN_MEM_TOUCH_LOG_HH
#define PACMAN_MEM_TOUCH_LOG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/pointer.hh"

namespace pacman::mem
{

struct TouchLog
{
    /** One touched entry: table id, index in the table, and a value
     *  the table wants remembered from the moment of the touch. */
    struct Touch
    {
        uint32_t table;
        uint32_t index;
        uint64_t value;
    };

    /** A call touching more than this many entries is not recorded:
     *  replaying it would not pay for its guards. */
    static constexpr size_t MaxTouches = 2048;

    std::vector<Touch> touches;
    std::vector<uint64_t> pages; //!< page numbers of PAs loads read
    bool impure = true;          //!< true outside a clean recording

    /** Start a fresh recording. */
    void
    arm()
    {
        touches.clear();
        pages.clear();
        impure = false;
    }

    /** Something happened that a replay could not reproduce. */
    void spoil() { impure = true; }

    void
    touch(uint32_t table, size_t index, uint64_t value = 0)
    {
        if (!impure)
            append(table, index, value);
    }

    /** A load read @p size bytes at @p pa (one or two pages). */
    void
    load(isa::Addr pa, unsigned size)
    {
        if (!impure)
            appendLoad(pa, size);
    }

  private:
    // touch() and load() on an armed log. Out of line, so that the
    // hooks on every cache, TLB, predictor and memory access stay
    // small: inlined whole, they kept the compiler from inlining the
    // access paths around them (PhysMem::read, SetAssocArray::stamp).
    __attribute__((noinline)) void
    append(uint32_t table, size_t index, uint64_t value)
    {
        if (touches.size() >= MaxTouches) {
            impure = true;
            return;
        }
        touches.push_back({table, uint32_t(index), value});
    }

    __attribute__((noinline)) void
    appendLoad(isa::Addr pa, unsigned size)
    {
        pages.push_back(isa::pageNumber(pa));
        if (isa::pageNumber(pa + size - 1) != pages.back())
            pages.push_back(isa::pageNumber(pa + size - 1));
    }
};

} // namespace pacman::mem

#endif // PACMAN_MEM_TOUCH_LOG_HH
