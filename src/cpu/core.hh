/**
 * @file
 * The speculative out-of-order core model.
 *
 * The model is a dataflow-timed interpreter with explicit wrong-path
 * execution:
 *
 *  - Architectural execution proceeds instruction by instruction; a
 *    per-register ready-time scoreboard gives out-of-order dataflow
 *    timing (an instruction issues when its sources are ready, not
 *    when its predecessors finish).
 *  - On a mispredicted branch, the wrong path is *actually executed*
 *    against a speculative register context until the branch's
 *    resolution time (bounded by the ROB size), by the same per-op
 *    executors as architectural execution. Memory operations and
 *    instruction fetches issued on the wrong path modulate the cache
 *    and TLB hierarchy; their faults are recorded and suppressed.
 *    Architectural state is untouched — exactly the asymmetry every
 *    speculative-execution attack exploits.
 *  - Nested mispredictions inside the wrong path recurse; with eager
 *    squash enabled (the M1-like default), an inner branch redirects
 *    speculative fetch to its computed target as soon as it resolves,
 *    which is the behaviour the instruction PACMAN gadget requires
 *    (Section 4.2).
 *
 * Faults reaching architectural execution terminate the run: an EL0
 * fault models the OS killing the process ("crash"), an EL1 fault is
 * a kernel panic — the events Pointer Authentication's
 * security-by-crash design relies on, and which the attack avoids.
 */

#ifndef PACMAN_CPU_CORE_HH
#define PACMAN_CPU_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "base/fields.hh"
#include "base/random.hh"
#include "cpu/config.hh"
#include "cpu/decode_cache.hh"
#include "cpu/predictor.hh"
#include "cpu/superblock.hh"
#include "crypto/pac.hh"
#include "isa/encoding.hh"
#include "isa/inst.hh"
#include "mem/hierarchy.hh"
#include "mem/touch_log.hh"

namespace pacman::cpu
{

class CallMemo;

/** Why a run() returned. */
enum class ExitKind : uint8_t
{
    Halted,        //!< HLT executed
    CrashEl0,      //!< architectural fault at EL0 (process killed)
    KernelPanic,   //!< architectural fault at EL1
    Breakpoint,    //!< BRK executed
    MaxInsts,      //!< instruction budget exhausted
    UndefinedInst, //!< fetched word failed isa::decode (SIGILL-style)
};

/** Exit details. */
struct ExitStatus
{
    ExitKind kind = ExitKind::Halted;
    uint64_t code = 0;        //!< HLT/BRK immediate; undecodable word
    isa::Addr pc = 0;         //!< faulting / final pc
    mem::Fault fault = mem::Fault::None;
    std::string reason;       //!< human-readable description
};

/**
 * One executed instruction, delivered to the trace hook: either an
 * architecturally retired instruction or a wrong-path (speculative)
 * one — letting tools watch exactly the asymmetry the attack uses.
 */
struct TraceRecord
{
    isa::Addr pc = 0;
    isa::Inst inst;
    unsigned el = 0;
    bool speculative = false; //!< wrong-path execution
    uint64_t cycle = 0;       //!< fetch-time of the instruction
};

/** Aggregate pipeline statistics. */
struct CoreStats
{
    uint64_t instsRetired = 0;
    uint64_t branches = 0;
    uint64_t branchMispredicts = 0;
    uint64_t wrongPathInsts = 0;
    uint64_t wrongPathMemOps = 0;
    uint64_t specFaultsSuppressed = 0;
    uint64_t syscalls = 0;

    /** The field list (base/fields.hh), as Machine::statsReport rows. */
    template <typename F, typename... Stats>
    static constexpr void
    forEachField(F &&f, Stats &...s)
    {
        f("instructions retired", s.instsRetired...);
        f("syscalls", s.syscalls...);
        f("branches", s.branches...);
        f("branch mispredicts", s.branchMispredicts...);
        f("wrong-path instructions", s.wrongPathInsts...);
        f("wrong-path memory ops", s.wrongPathMemOps...);
        f("speculative faults suppressed", s.specFaultsSuppressed...);
    }
};

static_assert(listsEveryMember<CoreStats>);

/** A register the host sets before each call of Core::runRepeat(). */
struct RegWrite
{
    unsigned index = 0;
    uint64_t value = 0;
};

/** The core. One instance per simulated hardware thread. */
class Core
{
  public:
    Core(const CoreConfig &cfg, mem::MemoryHierarchy *mem, Random *rng);
    ~Core();

    // --- Architectural state (host-side orchestration API) ---

    uint64_t reg(unsigned idx) const;
    void setReg(unsigned idx, uint64_t value);

    isa::Addr pc() const { return pc_; }
    void setPc(isa::Addr pc) { pc_ = pc; }

    unsigned el() const { return el_; }
    void setEl(unsigned el);

    const isa::Pstate &flags() const { return flags_; }

    /** Raw system-register access (no privilege check; host use). */
    uint64_t sysreg(isa::SysReg reg) const;
    void setSysreg(isa::SysReg reg, uint64_t value);

    /** Current PA key material assembled from the key registers. */
    crypto::PacKey pacKey(crypto::PacKeySelect sel) const;

    /** Core cycle count (the dataflow "now"). */
    uint64_t cycle() const { return cycle_; }

    /** Pointer to the cycle counter (for timer devices). */
    const uint64_t *cyclePtr() const { return &cycle_; }

    /**
     * Advance the cycle counter by @p n without executing guest
     * instructions — time spent preempted (the fault injector's
     * interrupt model). Forward-only, so pending dataflow ready
     * times simply fall due.
     */
    void advanceCycles(uint64_t n) { cycle_ += n; }

    // --- Execution ---

    /**
     * Run until an exit condition, executing at most @p max_insts
     * architectural instructions. On FastPath::Full with no trace hook
     * armed, a call matching a recorded pure call is replayed instead
     * of executed (cpu/call_memo.hh), with the identical effect.
     */
    ExitStatus run(uint64_t max_insts = 100'000'000);

    /**
     * Run one host-prepared call @p n times: before each run(), enter
     * EL0 at @p pc and set each of @p regs, in order. Stops at the
     * first exit other than Halted and returns the last status
     * (Halted when @p n is 0). The effect is exactly that loop's; once
     * two calls of the run in a row replay the same recording, the
     * call memo accounts for all but the last of the rest in one step.
     */
    ExitStatus runRepeat(isa::Addr pc, std::span<const RegWrite> regs,
                         uint64_t n);

    // --- Structures and statistics ---

    /**
     * Install an execution-trace hook (nullptr to remove). Called
     * for every architecturally executed and every wrong-path
     * instruction; keep it cheap.
     */
    void setTraceHook(std::function<void(const TraceRecord &)> hook);

    BimodalPredictor &predictor() { return predictor_; }
    Btb &btb() { return btb_; }
    const CoreStats &stats() const { return stats_; }
    void resetStats() { stats_ = CoreStats{}; }

    /**
     * Monotonic fast-path telemetry (superblock + decode-cache
     * counters). Unlike stats(), never rewound by restore() or
     * cleared by resetStats() — see SuperblockStats.
     */
    const SuperblockStats &superblockStats() const { return sbStats_; }
    const CoreConfig &config() const { return cfg_; }
    mem::MemoryHierarchy &mem() { return *mem_; }

    /**
     * Complete per-core state: architectural registers/flags/pc/EL and
     * system registers (so PAC keys rewind), the dataflow timing
     * scoreboard, branch predictor and BTB tables, and the stats
     * counters. The decoded-instruction cache and the superblock cache
     * are deliberately NOT captured: both are pure host-side
     * memoization with no architectural or timing effect, and their
     * entries are (pa, write-generation)-validated against labels
     * PhysMem never reuses (restores relabel rewound pages with fresh
     * values), so a stale entry can never re-validate after a restore
     * — they survive the rewind warm. The speculation-context pool is
     * scratch (fully re-seeded before every use) and the trace hook is
     * host wiring; neither is captured.
     */
    struct Snapshot
    {
        std::array<uint64_t, isa::NumRegs> regs{};
        isa::Pstate flags;
        isa::Addr pc = 0;
        unsigned el = 0;
        std::array<uint64_t, size_t(isa::SysReg::NumSysRegs)> sysregs{};
        uint64_t cycle = 0;
        std::array<uint64_t, isa::NumRegs> ready{};
        uint64_t flagsReady = 0;
        uint64_t lastCompletion = 0;
        unsigned fetchGroup = 0;
        BimodalPredictor::Snapshot predictor;
        Btb::Snapshot btb;
        CoreStats stats;
    };

    Snapshot takeSnapshot() const;
    void restore(const Snapshot &snap);

  private:
    friend class CallMemo;

    /**
     * When a value is available: the cycle it is ready and, on the
     * wrong path, whether it never will be (poison: a suppressed fault
     * or undefined MRS upstream) or is a PA output under pacTaint
     * (taint; never set with that mitigation off).
     */
    struct Ready
    {
        uint64_t cycle = 0;
        bool poison = false;
        bool taint = false;

        /** Wait for @p src too; a store's data lends no taint. */
        void
        join(const Ready &src, bool taints = true)
        {
            cycle = std::max(cycle, src.cycle);
            poison |= src.poison;
            taint |= taints && src.taint;
        }
    };

    /** Speculative (wrong-path) execution context: the register state
     *  a WrongPath view reads and writes, each Ready with its poison
     *  and taint. */
    struct SpecContext
    {
        std::array<uint64_t, isa::NumRegs> regs;
        std::array<Ready, isa::NumRegs> ready;
        isa::Pstate flags;
        Ready flagsReady;
    };

    /** Either a fault or the instruction + its sequencing times. */
    struct FetchedInst
    {
        bool ok = false;
        bool undefined = false; //!< fetched fine, failed isa::decode
        mem::Fault fault = mem::Fault::None; //!< when !ok && !undefined
        uint32_t word = 0;      //!< raw word (valid when undefined)
        isa::Inst inst;
        uint64_t fetchLatency = 0;
        bool hasPa = false;     //!< pa/pageGen below are populated
        isa::Addr pa = 0;       //!< physical address of the word
        uint64_t pageGen = 0;   //!< write generation of pa's page
    };

    /** run() without the call memo: the interpreter loop with its
     *  superblock dispatch. */
    ExitStatus execute(uint64_t max_insts);

    // Architectural-path helpers.
    ExitStatus archFault(mem::Fault fault, isa::Addr addr,
                         const char *what);
    FetchedInst fetch(isa::Addr pc, bool speculative);
    uint64_t sysregRead(isa::SysReg reg, uint64_t when, bool *undef);
    bool sysregWrite(isa::SysReg reg, uint64_t value);
    uint64_t ccsidrValue() const;
    void serialize(uint64_t extra);

    /** The run's exit status for an undefined MRS or illegal MSR. */
    ExitStatus sysregFault(const char *what, isa::SysReg reg) const;

    // One executor per op class, shared by the interpreter switch in
    // execute(), the superblock labels in runSuperblock() and the
    // wrong path in speculate(). Each is a template over a state view
    // (core.cc): Committed reads regs_/ready_ against cycle_, WrongPath
    // a SpecContext against the wrong path's fetch time, and every
    // difference between the two paths is a view method (DESIGN.md
    // §4k). An executor that returns false ends its path at the op: a
    // committed fault (the view's *status is filled) or a wrong-path
    // stop. On the committed path pc_ is the op's own pc.
    struct Committed;
    struct WrongPath;

    /** @p reads_rn / @p reads_rm / @p reads_rd: the operand fields
     *  the op reads (isa::readsRn and siblings; superblocks pass the
     *  values discovery computed once). */
    template <class V>
    void execAlu(V &v, const isa::Inst &inst, bool reads_rn,
                 bool reads_rm, bool reads_rd);
    /** Loads and stores: readiness, address, access and value. */
    template <class V> bool execMem(V &v, const isa::Inst &inst);
    /** pac*, aut* and xpac, with FPAC and the aut fence. */
    template <class V> bool execPac(V &v, const isa::Inst &inst);
    template <class V> bool execMrs(V &v, const isa::Inst &inst);
    /** A conditional branch's direction. With @p resolve, also when
     *  it resolves: its operand (the flags, or rd for CBZ/CBNZ) joined
     *  plus the resolve latency. */
    template <class V>
    bool condTaken(const V &v, const isa::Inst &inst,
                   Ready *resolve = nullptr) const;
    /** A direct or indirect branch's target (authenticated for BRAA/
     *  BLRAA/RETAA, with FPAC), the link write of BL/BLR/BLRAA and,
     *  for an indirect branch, when it resolves (*resolve; a direct
     *  branch may pass nullptr). */
    template <class V>
    bool branchTarget(V &v, const isa::Inst &inst, isa::Addr *target,
                      Ready *resolve);

    // Committed-only executors (the wrong path stops at these ops).
    /** @return false on an illegal write; *status is filled. */
    bool execMsr(const isa::Inst &inst, ExitStatus *status);
    /** Enter EL1 at VBAR_EL1 (*next_pc). @return false on a nested
     *  SVC at EL1; *status is filled. */
    bool execSvc(const isa::Inst &inst, ExitStatus *status,
                 isa::Addr *next_pc);
    /** Return to EL0 at ELR_EL1 (*next_pc). @return false on an ERET
     *  at EL0; *status is filled. */
    bool execEret(ExitStatus *status, isa::Addr *next_pc);
    /** The run's exit status for a HLT or BRK. */
    ExitStatus stopStatus(const isa::Inst &inst) const;

    /** How a runSuperblock() dispatch ended. */
    enum class SbExit : uint8_t
    {
        Chain,     //!< ended normally: the successor may be chained
        Interpret, //!< the interpreter fetches the next instruction
        Return,    //!< run() must return *status
    };

    /**
     * Execute @p sb through the threaded dispatch loop, starting at
     * its first op — whose architectural fetch (pacing, hierarchy
     * touches, stall) has already been performed, leaving the entry
     * translation in iTLB way @p way and the entry line in L1I line
     * @p line — and executing at most @p budget instructions.
     * Advances pc_ past every executed op. @return the number
     * executed (0 only when the entry op is a mispredicted
     * conditional branch, which the interpreter must run); *how says
     * how the block ended (SbExit::Return with *status filled on a
     * fault, FPAC, undefined system access, HLT or BRK).
     */
    uint64_t runSuperblock(Superblock &sb, mem::Tlb::Way *way,
                           mem::Cache::Line *line, uint64_t budget,
                           ExitStatus *status, SbExit *how);

    /**
     * The cached block entered at @p pa, built on a miss (*built
     * says which); nullptr when the entry instruction must be
     * interpreted (possible only for a chain successor, which no
     * fetch has decoded yet).
     */
    Superblock *blockAt(isa::Addr pa, uint64_t page_gen, bool *built);

    /**
     * Run the block the interpreter just fetched at pc_ (@p pa,
     * @p page_gen), then every block chained after it, within
     * @p budget instructions. @return the number executed (0 when the
     * entry op is a mispredicted conditional branch); sets *exited
     * (and *status) when run() must return.
     */
    uint64_t dispatchBlocks(isa::Addr pa, uint64_t page_gen,
                            uint64_t budget, ExitStatus *status,
                            bool *exited);

    /**
     * Chain from a block that ended normally to the block at pc_.
     * Peeks with no side effect — iTLB probe and permission check at
     * the current EL, PA and block lookup, entry-branch prediction —
     * and only then replays the entry fetch the interpreter would
     * have made (pacing, iTLB re-hit, L1I access, front-end stall).
     * @return the successor with *way / *line set to its entry state,
     * or nullptr (nothing touched) when the interpreter must fetch.
     */
    Superblock *chainTo(mem::Tlb::Way **way, mem::Cache::Line **line);

    /**
     * Execute the wrong path from @p pc until @p deadline (the
     * resolution time of the oldest mispredicted branch), consuming
     * @p rob_budget. @p depth caps recursion into nested wrong paths.
     * Each op runs through the same executor as on the committed
     * path, on a WrongPath view; this loop keeps only the wrong
     * path's own fetch timing, where it stops, and its branch policy
     * (nested mispredictions, eager or lazy squash, BTB-miss stall).
     *
     * @p ctx is the callee's private working context — slot
     * specCtx_[depth] of the per-core pool, seeded by the caller (a
     * copy of the parent context for nested wrong paths). Passing the
     * slot by reference keeps the recursion allocation-free while
     * preserving the by-value semantics the eager-squash path needs:
     * the parent's own slot is never written by the callee.
     */
    void speculate(isa::Addr pc, uint64_t start, uint64_t deadline,
                   SpecContext &ctx, unsigned &rob_budget,
                   unsigned depth);

    /**
     * A committed branch resolving at @p resolve was mispredicted
     * towards @p wrong_pc: count it, run that wrong path from the
     * committed state (specCtx_[0]), then pay the redirect penalty.
     */
    void mispredict(isa::Addr wrong_pc, uint64_t resolve);

    /** Deepest speculate() recursion: the depth guard admits depths
     *  0..MaxSpecDepth, and a nested call may seed one slot beyond. */
    static constexpr unsigned MaxSpecDepth = 8;

    CoreConfig cfg_;
    mem::MemoryHierarchy *mem_;
    Random *rng_;

    // Architectural state.
    std::array<uint64_t, isa::NumRegs> regs_{};
    isa::Pstate flags_;
    isa::Addr pc_ = 0;
    unsigned el_ = 0;
    std::array<uint64_t, size_t(isa::SysReg::NumSysRegs)> sysregs_{};

    // Dataflow timing state.
    uint64_t cycle_ = 1000; //!< non-zero so "ready at 0" reads clean
    std::array<uint64_t, isa::NumRegs> ready_{};
    uint64_t flagsReady_ = 0;
    uint64_t lastCompletion_ = 0;
    unsigned fetchGroup_ = 0;

    BimodalPredictor predictor_;
    Btb btb_;
    CoreStats stats_;
    std::function<void(const TraceRecord &)> traceHook_;

    DecodeCache decodeCache_;

    // Superblock cache + monotonic telemetry. Like the decode cache,
    // neither is captured by Snapshot: blocks are (pa, generation)-
    // validated against never-reused write generations and the fetch
    // epoch, so they survive restore() safely, and the telemetry must
    // keep growing across restores (see SuperblockStats).
    SuperblockCache superblocks_;
    SuperblockStats sbStats_;

    /** Pre-reserved speculation contexts, one per recursion depth. */
    std::array<SpecContext, MaxSpecDepth + 2> specCtx_;

    /** log2 of the L1I line size (fixed geometry: migration swaps
     *  only latencies). */
    unsigned l1iLineShift_;

    // Guest-call replay (FastPath::Full only): host-side like the
    // caches above, never snapshotted. touchLog_ is the memo's log,
    // which MRS/MSR and mispredicts spoil while a call records.
    std::unique_ptr<CallMemo> callMemo_;
    mem::TouchLog *touchLog_ = nullptr;
};

} // namespace pacman::cpu

#endif // PACMAN_CPU_CORE_HH
