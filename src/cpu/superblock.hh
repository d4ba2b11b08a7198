/**
 * @file
 * Superblock cache for the committed fast path.
 *
 * The decode cache (cpu/decode_cache.hh) made decode free, which left
 * per-instruction fetch/dispatch bookkeeping as the wall (~20 guest
 * MIPS at a decode hit rate of 0.9999996). A *superblock* is the
 * next rung: a straight-line run of already-decoded instructions,
 * discovered at a committed fetch, cached keyed by physical address,
 * and executed by a threaded dispatch loop (Core::runSuperblock) that
 * skips the per-instruction fetch/decode machinery while replaying its
 * exact microarchitectural side effects (iTLB hit bookkeeping, L1I
 * line touches and real line fills on crossings, fetch-group pacing,
 * front-end stalls). The cycle-accurate interpreter remains the
 * reference: speculation windows, trace hooks, ineligible opcodes,
 * and every block exit fall back to it, and the fast/slow equivalence
 * suite (tests/runner/test_fastpath_equiv.cc) proves bit-identical
 * architectural state, cycle counts and cache/TLB counters.
 *
 * A superblock is a *trace*, not just a fall-through run: discovery
 * follows unconditional direct branches (B/BL) to their targets and
 * conditional branches along their likely direction (backward taken —
 * a loop back-edge — forward not-taken), so a hot loop unrolls into
 * one block covering many iterations. Execution of a conditional
 * branch first peeks the predictor and the actual outcome with no
 * side effect at all: a mispredict would run the full speculation
 * machinery, so the block bails out and the interpreter re-executes
 * the branch from scratch. A correctly predicted branch retires
 * inside the block with the interpreter's exact effect (branch count,
 * predictor update, no cycle penalty), and execution continues while
 * the resolved direction matches the trace. MRS/MSR and barriers are
 * also in-block ops (their serialization is a pure function of the
 * core's completion clock), so the attack's timer-read measurement
 * sequences (mrs/isb/ldr/isb/mrs) do not fragment blocks. SVC, ERET,
 * HLT and BRK are *terminators*: in-block ops with the interpreter's
 * exact effects that always end the block (the first two change the
 * EL, and with it the iTLB the fetch replay is pinned to; the last two
 * end the run). Discovery still stops at indirect branches (BTB,
 * pointer authentication), undecodable words, any branch leaving the
 * page (one block = one page = one write generation), and the length
 * cap.
 *
 * A block that ends normally — its last op, a branch resolving off the
 * trace, or an SVC/ERET — hands over to the next block without going
 * back through the interpreter's fetch (Core::chainTo): a side-effect-
 * free peek at the successor (iTLB probe and permission check, PA,
 * block lookup, entry-branch prediction) either accepts, and then
 * replays the successor's entry fetch exactly, or refuses and leaves
 * the fetch to the interpreter. One guest call (user stub → SVC →
 * kernel handler → ERET → HLT) thus runs as one chain of blocks.
 *
 * Coherence is validation-based, exactly like the decode cache:
 *
 *  - Entries carry the PhysMem write generation of their page; every
 *    label is permanently bound to one byte image (writes draw fresh
 *    labels, restores rewind a dirtied page to the captured label
 *    along with the captured bytes), so a match always implies
 *    identical bytes — which lets the superblock cache survive
 *    Machine::restore() unflushed, with pre-capture entries
 *    re-validating after the rewind.
 *  - Guest stores *inside* a running block check the generation after
 *    executing; a change (self-modifying code into the block's own
 *    page) exits the block and resumes interpretation, and the stale
 *    cached block gen-fails on its next lookup.
 *  - The hierarchy's fetch epoch is compared once per dispatch;
 *    flushAll (boot/reset/key rotation) bumps it and drops the whole
 *    cache. Remap/unmap deliberately do not: entries are PA-keyed and
 *    every dispatch translates the fetch VA afresh, so a remapped VA
 *    resolves to a different PA and an unmapped one faults before any
 *    lookup (see MemoryHierarchy::fetchEpoch()).
 */

#ifndef PACMAN_CPU_SUPERBLOCK_HH
#define PACMAN_CPU_SUPERBLOCK_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "cpu/pa_memo.hh"
#include "isa/inst.hh"
#include "isa/pointer.hh"

namespace pacman::mem
{
class PhysMem;
}

namespace pacman::cpu
{

/** Dispatch kind of one superblock op (indexes the threaded-dispatch
 *  label table in Core::runSuperblock). */
enum class SbOpKind : uint8_t
{
    Alu = 0,
    Load = 1,
    Store = 2,
    Pac = 3,        //!< PacSign or PacAuth (opcode disambiguates)
    Branch = 4,     //!< unconditional direct branch (B/BL)
    BranchCond = 5, //!< conditional branch (B.cond/CBZ/CBNZ)
    Mrs = 6,        //!< system-register read
    Msr = 7,        //!< system-register write (self-synchronizing)
    Barrier = 8,    //!< ISB/DSB pipeline drain
    Svc = 9,        //!< terminator: enter EL1
    Eret = 10,      //!< terminator: return to EL0
    Stop = 11,      //!< terminator: HLT/BRK end the run
};

/**
 * Superblock eligibility: map @p op to its dispatch kind.
 * @return false when the opcode must be interpreted (and therefore
 *         terminates block discovery).
 */
bool sbKindFor(isa::Opcode op, SbOpKind *kind);

/** One pre-decoded instruction inside a superblock. */
struct SuperblockOp
{
    isa::Inst inst;
    SbOpKind kind = SbOpKind::Alu;

    /**
     * Byte offset of this instruction within its page (the trace may
     * jump backward across loop back-edges, so offsets are not
     * sequential). The op's VA/PA are the entry's page bases plus
     * this offset — the whole trace stays on one page.
     */
    uint16_t pageOff = 0;

    // Operand fields the op reads as sources (isa::readsRn/readsRm/
    // readsRdAsSource), computed once at discovery instead of on
    // every execute.
    bool readsRn = false;
    bool readsRm = false;
    bool readsRd = false;
};

/** A cached single-page trace entered at physical address pa (all
 *  ops on the same page). */
struct Superblock : PaMemoKey
{
    std::vector<SuperblockOp> ops;
};

/** The guards a guest-call replay checks, in this order
 *  (cpu/call_memo.hh). A miss is counted under the first one the most
 *  recently used recording at the call's entry pc fails. */
enum class CallGuard : uint8_t
{
    Entry,      //!< EL or fetch-group phase
    Budget,     //!< recorded instructions exceed the budget
    Registers,  //!< register file or flags
    SysRegs,    //!< system-register array
    Scoreboard, //!< ready times relative to the cycle
    Latency,    //!< hierarchy latency constants
    Ways,       //!< a touched cache/TLB way's content
    Predictor,  //!< a read predictor counter or BTB entry
    Pages,      //!< a fetched or loaded page's write generation
    NumGuards,  //!< (every guard matched)
};

constexpr size_t NumCallGuards = size_t(CallGuard::NumGuards);

/** Short name of @p guard ("entry", "budget", ...) for reports. */
const char *callGuardName(CallGuard guard);

/** "call_memo_miss_<guard name>": the metric name of @p guard's
 *  SuperblockStats::replayMisses slot. */
std::string_view replayMissMetric(CallGuard guard);

/**
 * Monotonic fast-path telemetry. Deliberately outside CoreStats and
 * Core::Snapshot: CoreStats rewinds with every per-item replica
 * restore (it is architectural-run bookkeeping), while fleet-facing
 * telemetry (Machine::statsReport, the pacman-oracled METRICS
 * endpoint) needs counters that only ever grow so per-interval deltas
 * stay non-negative. Nothing here feeds timing, fingerprints, or the
 * equivalence dumps.
 */
struct SuperblockStats
{
    uint64_t blocksBuilt = 0;   //!< discovery passes (cache fills)
    uint64_t blockHits = 0;     //!< dispatches served by a cached block
    uint64_t blockInsts = 0;    //!< instructions retired inside blocks
    uint64_t invalidations = 0; //!< stale-generation drops + epoch flushes
    uint64_t fallbackExits = 0; //!< early exits: SMC into the running
                                //!< block, or a conditional branch the
                                //!< predictor gets wrong (speculation
                                //!< belongs to the interpreter)
    uint64_t chainedDispatches = 0; //!< blocks entered straight from
                                    //!< the previous block, without an
                                    //!< interpreter fetch (subset of
                                    //!< blockHits + blocksBuilt)

    // Decoded-instruction cache effectiveness (cpu/decode_cache.hh):
    // fetches served from the memo vs decoded afresh.
    uint64_t decodeHits = 0;
    uint64_t decodeMisses = 0;

    // Guest-call replay (cpu/call_memo.hh).
    uint64_t callsRecorded = 0; //!< pure calls kept as recordings
    uint64_t callsReplayed = 0; //!< calls served by a recording
    uint64_t instsReplayed = 0; //!< instructions those calls retired
    /** Calls with a recording at their entry pc that none matched,
     *  by the first guard the most recently used of them failed. */
    std::array<uint64_t, NumCallGuards> replayMisses{};

    /**
     * The field list: calls f(metric, better, counter...) once per
     * counter, in report order, passing that counter of each of
     * @p stats. Machine::statsReport's rows, pacman-oracled's
     * per-replica deltas and its METRICS rows all come from here, so
     * a new counter is one line. @p better is "higher" or "lower", or
     * nullptr for the decode-cache counts, which METRICS shows only
     * as their ratio (decode_hit_rate).
     */
    template <typename F, typename... Stats>
    static void
    forEachField(F &&f, Stats &...stats)
    {
        f("superblock_blocks_built", "lower", stats.blocksBuilt...);
        f("superblock_block_hits", "higher", stats.blockHits...);
        f("superblock_block_insts", "higher", stats.blockInsts...);
        f("superblock_invalidations", "lower", stats.invalidations...);
        f("superblock_fallback_exits", "lower", stats.fallbackExits...);
        f("superblock_chained_dispatches", "higher",
          stats.chainedDispatches...);
        f("decode_hits", nullptr, stats.decodeHits...);
        f("decode_misses", nullptr, stats.decodeMisses...);
        f("call_memo_recorded", "lower", stats.callsRecorded...);
        f("call_memo_replayed", "higher", stats.callsReplayed...);
        f("call_memo_insts_replayed", "higher", stats.instsReplayed...);
        for (size_t g = 0; g < NumCallGuards; ++g)
            f(replayMissMetric(CallGuard(g)), "lower",
              stats.replayMisses[g]...);
    }
};

/**
 * Superblocks keyed by entry PA, 2048 entries: the decode cache's
 * table (same index hash and 1-bit LRU — hot entry PCs repeat at
 * identical page offsets across user trampolines and kernel gadgets).
 */
class SuperblockCache : public PaMemo<Superblock, 2048>
{
  public:
    static constexpr unsigned MaxOps = 64; //!< longest block, in insts

    /**
     * Claim the fill slot for a block entered at @p pa: sets the key,
     * clears the op list (capacity retained — rebuilds are
     * allocation-free once warm) and returns the slot for
     * buildSuperblock() to fill.
     */
    Superblock &
    insertSlot(isa::Addr pa, uint64_t page_gen)
    {
        Superblock &b = claim(pa, page_gen);
        b.ops.clear();
        return b;
    }
};

/**
 * Discover the superblock trace starting at @p sb.pa: decode from the
 * entry word, following unconditional direct branches to their
 * targets and conditional branches along their likely direction
 * (backward taken, forward not-taken), until a terminator (included
 * as the last op), an ineligible opcode, an undecodable word, any
 * step leaving the page, or @p max_ops (the core passes
 * SuperblockCache::MaxOps). Reads physical memory
 * functionally (PhysMem::read is const — discovery has no
 * architectural or timing side effect). The result is empty exactly
 * when the entry instruction itself must be interpreted.
 */
void buildSuperblock(Superblock &sb, const mem::PhysMem &phys,
                     unsigned max_ops);

} // namespace pacman::cpu

#endif // PACMAN_CPU_SUPERBLOCK_HH
