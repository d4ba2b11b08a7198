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
 *    resolution time (bounded by the ROB size). Memory operations and
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

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "base/random.hh"
#include "cpu/config.hh"
#include "cpu/decode_cache.hh"
#include "cpu/predictor.hh"
#include "cpu/superblock.hh"
#include "crypto/pac.hh"
#include "isa/encoding.hh"
#include "isa/inst.hh"
#include "mem/hierarchy.hh"

namespace pacman::cpu
{

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
};

/** The core. One instance per simulated hardware thread. */
class Core
{
  public:
    Core(const CoreConfig &cfg, mem::MemoryHierarchy *mem, Random *rng);

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
     * architectural instructions.
     */
    ExitStatus run(uint64_t max_insts = 100'000'000);

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
    /** Speculative (wrong-path) execution context. */
    struct SpecContext
    {
        std::array<uint64_t, isa::NumRegs> regs;
        std::array<uint64_t, isa::NumRegs> ready;
        std::array<bool, isa::NumRegs> poison; //!< no value (faulted)
        std::array<bool, isa::NumRegs> taint;  //!< PA-output taint
        isa::Pstate flags;
        uint64_t flagsReady = 0;
        bool flagsPoison = false;
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

    // Architectural-path helpers.
    ExitStatus archFault(mem::Fault fault, isa::Addr addr,
                         const char *what);
    FetchedInst fetch(isa::Addr pc, bool speculative);
    uint64_t sysregRead(isa::SysReg reg, uint64_t when, bool *undef);
    bool sysregWrite(isa::SysReg reg, uint64_t value);
    uint64_t ccsidrValue() const;
    void serialize(uint64_t extra);

    // Committed-path executors, shared verbatim between the
    // interpreter switch in run() and the superblock dispatch loop.
    // pc_ must hold the instruction's own pc on entry (fault
    // reporting and link-register writes read it); the caller
    // advances it afterwards.
    /** @p reads_rn / @p reads_rm / @p reads_rd: the operand fields
     *  the op reads (isa::readsRn and siblings; superblocks pass the
     *  values discovery computed once). */
    void execAlu(const isa::Inst &inst, bool reads_rn, bool reads_rm,
                 bool reads_rd);
    /** @return false when the access faulted; *status is filled. */
    bool execMem(const isa::Inst &inst, ExitStatus *status);
    /** @return false on an FPAC fault; *status is filled. */
    bool execPac(const isa::Inst &inst, ExitStatus *status);
    /** @return the branch target (next pc). */
    isa::Addr execBranchDirect(const isa::Inst &inst);
    /** @return false on an undefined read; *status is filled. */
    bool execMrs(const isa::Inst &inst, ExitStatus *status);
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
    /** Resolved direction of a conditional branch against the
     *  architectural flags/registers (no side effect). */
    bool condTaken(const isa::Inst &inst) const;

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
};

} // namespace pacman::cpu

#endif // PACMAN_CPU_CORE_HH
