/**
 * @file
 * Decoded-instruction cache for the core front end.
 *
 * The attack's training loops execute a handful of hot PCs millions
 * of times; re-running `isa::decode` on every fetch dominates guest
 * execution time. This cache memoizes successful decodes keyed by the
 * instruction's *physical* address. It is a pure performance artifact:
 * the core consults it only after the architectural
 * `mem_->access(Fetch, ...)` call, so iTLB/iCache state and
 * `fetchLatency` are byte-for-byte identical with the cache on or off
 * (proved end to end by tests/runner/test_fastpath_equiv.cc).
 *
 * Coherence is the memo table's validation (cpu/pa_memo.hh):
 *
 *  - Self-modifying code: a store to the page bumps its write
 *    generation and the next fetch sees the mismatch and re-decodes.
 *  - Remap/unmap/flushAll: the core feeds the hierarchy's fetch epoch
 *    through syncEpoch() once per fetch; any mapping change or flush
 *    bumps the epoch and drops the whole cache. (PA keying already
 *    makes remaps content-safe; the epoch makes them explicit.)
 */

#ifndef PACMAN_CPU_DECODE_CACHE_HH
#define PACMAN_CPU_DECODE_CACHE_HH

#include <cstdint>

#include "cpu/pa_memo.hh"
#include "isa/inst.hh"

namespace pacman::cpu
{

/** A memoized decode outcome (also caches decode *failures* so
 *  wrong-path run-off into non-code bytes is memoized too). */
struct DecodedInst : PaMemoKey
{
    uint32_t word = 0;     //!< raw word (valid when undefined)
    bool undefined = false;
    isa::Inst inst;
};

/** Decode outcomes keyed by PA, 8192 entries. */
class DecodeCache : public PaMemo<DecodedInst, 8192>
{
  public:
    /** Memoize a successful decode. */
    void
    insert(isa::Addr pa, uint64_t page_gen, const isa::Inst &inst)
    {
        DecodedInst &e = claim(pa, page_gen);
        e.undefined = false;
        e.inst = inst;
    }

    /** Memoize a decode failure of @p word. */
    void
    insertUndefined(isa::Addr pa, uint64_t page_gen, uint32_t word)
    {
        DecodedInst &e = claim(pa, page_gen);
        e.undefined = true;
        e.word = word;
    }
};

} // namespace pacman::cpu

#endif // PACMAN_CPU_DECODE_CACHE_HH
