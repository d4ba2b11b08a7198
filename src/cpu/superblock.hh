/**
 * @file
 * Superblock cache for the committed fast path.
 *
 * The decode cache (cpu/decode_cache.hh) made decode free; BENCH_PR5
 * shows per-instruction fetch/dispatch bookkeeping is now the wall
 * (~20 guest MIPS, decode hit rate 0.9999996). A *superblock* is the
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

#include <cstdint>
#include <vector>

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

/**
 * A superblock's memoized data-side hierarchy walk (DESIGN.md §4k).
 *
 * On first execution (record mode) the core captures, per committed
 * memory op, the address it resolved and the raw indices of the dTLB
 * way and L1D line it hit — eligible only when *every* data op was an
 * L1-TLB hit + L1D hit to a non-device page (an all-hit walk touches
 * no victim logic, so its replay is insensitive to interleaved LRU
 * refreshes from other code). On later dispatches the core replays
 * each op as Tlb::rehitN + Cache::rehitN on the recorded entries — the
 * exact hit-path bookkeeping sequence (tick, journal touch, LRU
 * stamp, hit count) the live walk would perform, with the physical
 * address re-derived from the live way's mapping — skipping the
 * translation and tag scans entirely.
 *
 * Validity is guard-based, the same never-reused-label discipline as
 * the decode/superblock caches themselves:
 *
 *  - guards[]: the generation label of every cache/TLB set the trace
 *    touched, captured at record time. Any structural change to a
 *    guarded set (eviction-set prime, noise, fault-injector flush,
 *    snapshot restore past the capture) moves the label and the
 *    trace falls back to the live model and re-records.
 *  - el: a block changes EL only at a terminating SVC/ERET, after all
 *    its data ops; pinning the entry EL makes the recorded permission
 *    outcomes (all None) re-apply.
 *  - addrRegMask/regFingerprint: a hash of the entry-live address
 *    registers (those not written earlier in the block). A mismatch
 *    is a *soft* miss — the block runs live but the trace is kept,
 *    re-recording only after several consecutive misses.
 *  - Per-op, replay re-computes the VA from live registers and
 *    requires it to equal the recorded one — the definitive address
 *    guard (the fingerprint is only a fast pre-check); a divergence
 *    mid-block falls back to live execution for the remaining ops,
 *    which is safe because replay applies effects op by op (any
 *    prefix is valid).
 */
struct TimingTrace
{
    enum class State : uint8_t
    {
        None,       //!< never recorded (or dropped; may re-record)
        Recorded,   //!< valid trace, replayable while guards hold
        Ineligible, //!< contains a device op or is pure-ALU: never
                    //!< replayable, don't burn record attempts
    };

    /** One memoized data op. */
    struct MemOp
    {
        uint16_t opIdx = 0;   //!< position in Superblock::ops
        uint32_t way = 0;     //!< raw dTLB way index (Tlb::wayAt)
        uint32_t line = 0;    //!< raw L1D line index (Cache::lineAt)
        isa::Addr va = 0;     //!< address the op resolved at record
    };

    /** Structures a guard entry can name. */
    enum class GuardStruct : uint8_t
    {
        Dtlb,
        L1d,
    };

    /** One guarded set: its generation label at record time. */
    struct Guard
    {
        GuardStruct structId = GuardStruct::Dtlb;
        uint32_t set = 0;
        uint64_t label = 0;
    };

    State state = State::None;
    uint8_t el = 0;            //!< entry EL the trace was recorded at
    uint8_t softMisses = 0;    //!< consecutive fingerprint/VA misses
    uint16_t recordBackoff = 0; //!< dispatches to skip before retrying
                                //!< a failed (non-all-hit) recording
    uint64_t addrRegMask = 0;   //!< entry-live address registers
    uint64_t regFingerprint = 0; //!< hash of those registers at entry
    uint64_t disturbNoise = 0;  //!< hierarchy noise count at record
    uint64_t disturbFlush = 0;  //!< hierarchy flush count at record
    std::vector<MemOp> memOps;
    std::vector<Guard> guards;

    // Transient capture flags, meaningful only between
    // Core::beginTraceRecord and Core::finalizeTraceRecord.
    bool recFailed = false; //!< a data op was not an all-hit access
    bool recDevice = false; //!< ... because it touched a device page

    /** Forget the recording but keep vector capacity (rebuild-free). */
    void
    reset()
    {
        state = State::None;
        softMisses = 0;
        recordBackoff = 0;
        memOps.clear();
        guards.clear();
        recFailed = false;
        recDevice = false;
    }
};

/** A cached single-page trace entered at physical address pa. */
struct Superblock
{
    static constexpr isa::Addr NoPa = ~isa::Addr(0);

    isa::Addr pa = NoPa; //!< entry PA (all ops on the same page)
    uint64_t gen = 0;    //!< page write generation at build time
    std::vector<SuperblockOp> ops;
    TimingTrace trace;   //!< memoized data-side walk (§4k)
};

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

    // Monotonic mirrors of CoreStats::icacheDecode{Hits,Misses},
    // bumped at the same sites; see the struct comment for why the
    // CoreStats copies cannot serve telemetry across restores.
    uint64_t decodeHits = 0;
    uint64_t decodeMisses = 0;

    // --- Timing-trace telemetry (DESIGN.md §4k) ---
    uint64_t tracesRecorded = 0;     //!< successful recordings
    uint64_t traceRecordFailures = 0; //!< aborted: a data op missed,
                                      //!< hit a device page, or the
                                      //!< post-run verification failed
    uint64_t traceReplays = 0;       //!< dispatches served by replay
    uint64_t traceOpsReplayed = 0;   //!< data ops replayed (each one a
                                      //!< skipped full hierarchy walk)
    uint64_t traceGuardBreaks = 0;   //!< set-label guard failures
                                      //!< (sum of the three causes)
    uint64_t traceBreakFlush = 0;    //!< ... fault-injector flush ran
    uint64_t traceBreakNoise = 0;    //!< ... injectNoise ran
    uint64_t traceBreakEviction = 0; //!< ... plain cross-access
                                      //!< eviction (prime/probe etc.)
    uint64_t traceBreakEl = 0;       //!< entry-EL mismatch
    uint64_t traceSoftMisses = 0;    //!< fingerprint/VA/length misses
                                      //!< (ran live, trace kept)
};

/**
 * Two-way set-associative cache of superblocks keyed by entry PA,
 * with the same page-folding index hash and 1-bit-LRU scheme as the
 * decode cache (hot entry PCs repeat at identical page offsets across
 * user trampolines and kernel gadgets).
 */
class SuperblockCache
{
  public:
    SuperblockCache();

    /**
     * Cached block entered at @p pa, or nullptr when absent or stale
     * (the page's write generation moved; the entry is dropped on the
     * spot and counted in @p stats->invalidations).
     */
    Superblock *
    lookup(isa::Addr pa, uint64_t page_gen, SuperblockStats *stats)
    {
        const size_t set = setOf(pa);
        for (unsigned w = 0; w < Ways; ++w) {
            Superblock &b = blocks_[set * Ways + w];
            if (b.pa != pa)
                continue;
            if (b.gen != page_gen) {
                b.pa = Superblock::NoPa;
                ++stats->invalidations;
                return nullptr;
            }
            victim_[set] = uint8_t(w ^ 1);
            return &b;
        }
        return nullptr;
    }

    /**
     * Claim the fill slot for a block entered at @p pa: sets the key,
     * clears the op list (capacity retained — rebuilds are
     * allocation-free once warm) and returns the slot for
     * buildSuperblock() to fill.
     */
    Superblock &
    insertSlot(isa::Addr pa, uint64_t page_gen)
    {
        const size_t set = setOf(pa);
        unsigned pick = victim_[set];
        for (unsigned w = 0; w < Ways; ++w) {
            Superblock &b = blocks_[set * Ways + w];
            if (b.pa == pa || b.pa == Superblock::NoPa) {
                pick = w;
                break;
            }
        }
        victim_[set] = uint8_t(pick ^ 1);
        Superblock &b = blocks_[set * Ways + pick];
        b.pa = pa;
        b.gen = page_gen;
        b.ops.clear();
        b.trace.reset(); // new code, fresh recording eligibility
        return b;
    }

    /**
     * Compare against the hierarchy's fetch epoch; drop everything
     * when it moved (remap/unmap/flushAll — also counted once in
     * @p stats->invalidations).
     */
    void
    syncEpoch(uint64_t epoch, SuperblockStats *stats)
    {
        if (epoch != epoch_) {
            epoch_ = epoch;
            flush();
            ++stats->invalidations;
        }
    }

    /** Drop every block. */
    void flush();

    static constexpr size_t NumBlocks = 2048; //!< total, power of two
    static constexpr unsigned Ways = 2;
    static constexpr size_t NumSets = NumBlocks / Ways;

  private:
    static size_t
    setOf(isa::Addr pa)
    {
        return (size_t(pa >> 2) ^ size_t(pa >> isa::PageShift) ^
                size_t(pa >> (2 * isa::PageShift))) &
               (NumSets - 1);
    }

    std::vector<Superblock> blocks_;
    std::vector<uint8_t> victim_;
    uint64_t epoch_ = 0;
};

/**
 * Discover the superblock trace starting at @p sb.pa: decode from the
 * entry word, following unconditional direct branches to their
 * targets and conditional branches along their likely direction
 * (backward taken, forward not-taken), until a terminator (included
 * as the last op), an ineligible opcode, an undecodable word, any
 * step leaving the page, or @p max_ops. Reads physical memory
 * functionally (PhysMem::read is const — discovery has no
 * architectural or timing side effect). The result is empty exactly
 * when the entry instruction itself must be interpreted.
 */
void buildSuperblock(Superblock &sb, const mem::PhysMem &phys,
                     unsigned max_ops);

} // namespace pacman::cpu

#endif // PACMAN_CPU_SUPERBLOCK_HH
