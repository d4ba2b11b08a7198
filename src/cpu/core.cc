#include "core.hh"

#include <algorithm>

#include "base/bitfield.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "cpu/call_memo.hh"
#include "isa/disasm.hh"
#include "isa/pointer.hh"

namespace pacman::cpu
{

using isa::Addr;
using isa::Cond;
using isa::Inst;
using isa::InstClass;
using isa::Opcode;
using isa::Pstate;
using isa::SysReg;

namespace
{

/** Result of an ALU-class execution. */
struct AluOut
{
    uint64_t value = 0;
    Pstate flags;
    bool setsFlags = false;
    bool writes = true;
};

/** Evaluate any ALU-class instruction on operand values; @p has_imm
 *  (the op does not read rm) selects the immediate as operand b. */
AluOut
aluExec(const Inst &inst, bool has_imm, uint64_t rdv, uint64_t rnv,
        uint64_t rmv)
{
    AluOut out;
    const uint64_t b = has_imm ? uint64_t(inst.imm) : rmv;

    auto sub_flags = [&](uint64_t a, uint64_t s) {
        const uint64_t r = a - s;
        out.flags.n = bits(r, 63) != 0;
        out.flags.z = r == 0;
        out.flags.c = a >= s;
        out.flags.v = bits((a ^ s) & (a ^ r), 63) != 0;
        out.setsFlags = true;
        return r;
    };

    switch (inst.op) {
      case Opcode::ADD:
      case Opcode::ADDI:
        out.value = rnv + b;
        break;
      case Opcode::SUB:
      case Opcode::SUBI:
        out.value = rnv - b;
        break;
      case Opcode::AND:
      case Opcode::ANDI:
        out.value = rnv & b;
        break;
      case Opcode::ORR:
      case Opcode::ORRI:
        out.value = rnv | b;
        break;
      case Opcode::EOR:
      case Opcode::EORI:
        out.value = rnv ^ b;
        break;
      case Opcode::LSLV:
      case Opcode::LSLI:
        out.value = rnv << (b & 63);
        break;
      case Opcode::LSRV:
      case Opcode::LSRI:
        out.value = rnv >> (b & 63);
        break;
      case Opcode::ASRV:
      case Opcode::ASRI:
        out.value = uint64_t(int64_t(rnv) >> (b & 63));
        break;
      case Opcode::MUL:
        out.value = rnv * b;
        break;
      case Opcode::SUBS:
      case Opcode::SUBSI:
        out.value = sub_flags(rnv, b);
        break;
      case Opcode::ADDS: {
        const uint64_t r = rnv + b;
        out.flags.n = bits(r, 63) != 0;
        out.flags.z = r == 0;
        out.flags.c = r < rnv;
        out.flags.v = bits(~(rnv ^ b) & (rnv ^ r), 63) != 0;
        out.setsFlags = true;
        out.value = r;
        break;
      }
      case Opcode::CMP:
      case Opcode::CMPI:
        sub_flags(rnv, b);
        out.writes = false;
        break;
      case Opcode::MOVR:
        out.value = rnv;
        break;
      case Opcode::NOP:
        out.writes = false;
        break;
      case Opcode::MOVZ:
        out.value = uint64_t(inst.imm) << (16 * inst.hw);
        break;
      case Opcode::MOVK: {
        const unsigned shift = 16 * inst.hw;
        out.value = (rdv & ~(0xffffull << shift)) |
                    (uint64_t(inst.imm) << shift);
        break;
      }
      default:
        panic("aluExec: %s is not an ALU op",
              isa::opcodeName(inst.op).c_str());
    }
    return out;
}

/** Access size in bytes for a memory opcode. */
unsigned
memSize(Opcode op)
{
    return (op == Opcode::LDRB || op == Opcode::STRB) ? 1 : 8;
}

/** Whether this memory op carries a register offset. */
bool
regOffset(Opcode op)
{
    return op == Opcode::LDRR || op == Opcode::STRR;
}

} // anonymous namespace

Core::Core(const CoreConfig &cfg, mem::MemoryHierarchy *mem, Random *rng)
    : cfg_(cfg), mem_(mem), rng_(rng),
      predictor_(cfg.bimodalEntries), btb_(cfg.btbEntries),
      l1iLineShift_(floorLog2(mem->config().l1i.lineBytes))
{
    sysregs_[size_t(SysReg::CNTFRQ_EL0)] = cfg.cntFreqHz;
    if (cfg.fastPath == FastPath::Full)
        callMemo_ = std::make_unique<CallMemo>(*this);
}

Core::~Core() = default;

uint64_t
Core::reg(unsigned idx) const
{
    PACMAN_ASSERT(idx < isa::NumRegs, "register %u out of range", idx);
    return regs_[idx];
}

void
Core::setReg(unsigned idx, uint64_t value)
{
    PACMAN_ASSERT(idx < isa::NumRegs, "register %u out of range", idx);
    regs_[idx] = value;
    ready_[idx] = cycle_;
}

void
Core::setEl(unsigned el)
{
    PACMAN_ASSERT(el <= 1, "exception level %u unsupported", el);
    el_ = el;
}

uint64_t
Core::sysreg(SysReg reg) const
{
    return sysregs_[size_t(reg)];
}

void
Core::setSysreg(SysReg reg, uint64_t value)
{
    sysregs_[size_t(reg)] = value;
}

crypto::PacKey
Core::pacKey(crypto::PacKeySelect sel) const
{
    const size_t base = size_t(SysReg::APIAKEY_LO) + 2 * size_t(sel);
    return crypto::PacKey{sysregs_[base + 1], sysregs_[base]};
}

uint64_t
Core::ccsidrValue() const
{
    // ARM-style CCSIDR: LineSize[2:0] = log2(bytes) - 4,
    // Associativity[12:3] = ways - 1, NumSets[27:13] = sets - 1.
    // Reports the *architectural* L1D geometry, which the paper finds
    // to be twice the observed associativity (footnote 5).
    const auto &cfg = mem_->config();
    const uint64_t sel = sysregs_[size_t(SysReg::CSSELR_EL1)];
    const bool icache = sel & 1;
    const unsigned level = unsigned(sel >> 1);

    unsigned ways, sets, line;
    if (level == 0 && icache) {
        ways = cfg.l1i.ways;
        sets = cfg.l1i.sets;
        line = cfg.l1i.lineBytes;
    } else if (level == 0) {
        ways = cfg.l1dArchWays;
        sets = cfg.l1dArchSets;
        line = cfg.l1d.lineBytes;
    } else {
        ways = cfg.l2.ways;
        sets = cfg.l2.sets;
        line = cfg.l2.lineBytes;
    }
    return uint64_t(floorLog2(line) - 4) | (uint64_t(ways - 1) << 3) |
           (uint64_t(sets - 1) << 13);
}

uint64_t
Core::sysregRead(SysReg reg, uint64_t when, bool *undef)
{
    *undef = false;

    // Privilege gating (Table 1 semantics).
    if (el_ == 0 && !isa::sysRegEl0Readable(reg)) {
        const bool pmc = reg == SysReg::PMC0 || reg == SysReg::PMC1;
        const bool granted =
            sysregs_[size_t(SysReg::PMCR0)] & isa::PMCR0_EL0_ACCESS;
        if (!(pmc && granted)) {
            *undef = true;
            return 0;
        }
    }

    switch (reg) {
      case SysReg::CNTPCT_EL0:
        // 24 MHz system counter derived from the core clock.
        return when / (cfg_.cpuFreqHz / cfg_.cntFreqHz);
      case SysReg::CNTFRQ_EL0:
        return cfg_.cntFreqHz;
      case SysReg::PMC0:
        return when;
      case SysReg::PMC1:
        return stats_.instsRetired;
      case SysReg::CURRENT_EL:
        return uint64_t(el_) << 2;
      case SysReg::CCSIDR_EL1:
        return ccsidrValue();
      case SysReg::CLIDR_EL1:
        // L1 split I+D, L2 unified: Ctype1 = 0b011, Ctype2 = 0b100.
        return 0b011ull | (0b100ull << 3);
      default:
        return sysregs_[size_t(reg)];
    }
}

bool
Core::sysregWrite(SysReg reg, uint64_t value)
{
    if (el_ == 0)
        return false; // all MSR targets are privileged
    switch (reg) {
      case SysReg::CNTPCT_EL0:
      case SysReg::CNTFRQ_EL0:
      case SysReg::PMC0:
      case SysReg::PMC1:
      case SysReg::CURRENT_EL:
      case SysReg::CCSIDR_EL1:
      case SysReg::CLIDR_EL1:
        return false; // read-only
      default:
        sysregs_[size_t(reg)] = value;
        return true;
    }
}

void
Core::setTraceHook(std::function<void(const TraceRecord &)> hook)
{
    traceHook_ = std::move(hook);
}

Core::Snapshot
Core::takeSnapshot() const
{
    Snapshot snap;
    snap.regs = regs_;
    snap.flags = flags_;
    snap.pc = pc_;
    snap.el = el_;
    snap.sysregs = sysregs_;
    snap.cycle = cycle_;
    snap.ready = ready_;
    snap.flagsReady = flagsReady_;
    snap.lastCompletion = lastCompletion_;
    snap.fetchGroup = fetchGroup_;
    snap.predictor = predictor_.takeSnapshot();
    snap.btb = btb_.takeSnapshot();
    snap.stats = stats_;
    return snap;
}

void
Core::restore(const Snapshot &snap)
{
    regs_ = snap.regs;
    flags_ = snap.flags;
    pc_ = snap.pc;
    el_ = snap.el;
    sysregs_ = snap.sysregs;
    cycle_ = snap.cycle;
    ready_ = snap.ready;
    flagsReady_ = snap.flagsReady;
    lastCompletion_ = snap.lastCompletion;
    fetchGroup_ = snap.fetchGroup;
    predictor_.restore(snap.predictor);
    btb_.restore(snap.btb);
    stats_ = snap.stats;
    // The decode cache and superblock cache deliberately survive the
    // rewind (pure host-side memoization with no architectural or
    // timing effect; re-decoding/re-discovering all guest code per
    // restore would dominate the restore-per-item fast path). This is
    // safe because entries are PA-keyed and validated against page
    // write generations, and every generation label is permanently
    // bound to exactly one byte image — PhysMem::restore rewinds a
    // dirtied page to the captured label along with the captured
    // bytes, so a generation match always implies identical bytes and
    // a stale entry can never re-validate. sbStats_ is likewise
    // untouched: it is monotonic telemetry, not run state (see
    // SuperblockStats).
}

void
Core::serialize(uint64_t extra)
{
    cycle_ = std::max(cycle_, lastCompletion_) + extra;
    fetchGroup_ = 0;
}

Core::FetchedInst
Core::fetch(Addr pc, bool speculative)
{
    FetchedInst out;
    const auto res =
        mem_->access(mem::AccessKind::Fetch, pc, el_, speculative);
    if (res.fault != mem::Fault::None) {
        out.fault = res.fault;
        return out;
    }
    out.fetchLatency = res.latency;

    // PA + page write generation for the fast-path caches (decoded-
    // instruction cache here, superblock dispatch in run()). Device
    // pages are never executable, so res.isDevice cannot be set here;
    // the check keeps the value path honest regardless.
    const bool memoize =
        cfg_.fastPath == FastPath::Full && !res.isDevice;
    uint64_t page_gen = 0;
    if (memoize) {
        page_gen = mem_->phys().pageGen(res.pa);
        out.hasPa = true;
        out.pa = res.pa;
        out.pageGen = page_gen;

        // Decoded-instruction cache: consulted strictly after the
        // architectural access() above, so hierarchy state and
        // latency are identical whether it hits, misses, or is off.
        // A hit skips only the (state-free) value load and decode.
        decodeCache_.syncEpoch(mem_->fetchEpoch());
        if (const auto *hit = decodeCache_.lookup(res.pa, page_gen)) {
            ++sbStats_.decodeHits;
            if (hit->undefined) {
                out.undefined = true;
                out.word = hit->word;
                return out;
            }
            out.ok = true;
            out.inst = hit->inst;
            return out;
        }
        ++sbStats_.decodeMisses;
    }

    const uint32_t word = uint32_t(mem_->loadValue(res, pc, 4));
    const auto inst = isa::decode(word);
    if (!inst) {
        if (memoize)
            decodeCache_.insertUndefined(res.pa, page_gen, word);
        out.undefined = true;
        out.word = word;
        return out;
    }
    if (memoize)
        decodeCache_.insert(res.pa, page_gen, *inst);
    out.ok = true;
    out.inst = *inst;
    return out;
}

ExitStatus
Core::archFault(mem::Fault fault, Addr addr, const char *what)
{
    ExitStatus status;
    status.kind = el_ == 0 ? ExitKind::CrashEl0 : ExitKind::KernelPanic;
    status.pc = pc_;
    status.fault = fault;
    status.reason = strprintf(
        "%s at pc=0x%llx addr=0x%llx (%s, EL%u)", what,
        (unsigned long long)pc_, (unsigned long long)addr,
        fault == mem::Fault::Permission ? "permission" : "translation",
        el_);
    return status;
}

void
Core::execAlu(const Inst &inst, bool reads_rn, bool reads_rm,
              bool reads_rd)
{
    uint64_t src_ready = cycle_ + 1;
    if (reads_rn)
        src_ready = std::max(src_ready, ready_[inst.rn]);
    if (reads_rm)
        src_ready = std::max(src_ready, ready_[inst.rm]);
    if (reads_rd)
        src_ready = std::max(src_ready, ready_[inst.rd]);
    const AluOut out = aluExec(inst, !reads_rm, regs_[inst.rd],
                               regs_[inst.rn], regs_[inst.rm]);
    const uint64_t lat =
        inst.op == Opcode::MUL ? cfg_.mulLat : cfg_.aluLat;
    const uint64_t done = src_ready + lat;
    if (out.writes) {
        regs_[inst.rd] = out.value;
        ready_[inst.rd] = done;
    }
    if (out.setsFlags) {
        flags_ = out.flags;
        flagsReady_ = done;
    }
    lastCompletion_ = std::max(lastCompletion_, done);
}

bool
Core::execMem(const Inst &inst, ExitStatus *status)
{
    const bool is_load = isa::instClass(inst.op) == InstClass::Load;
    uint64_t issue = cycle_ + 1;
    issue = std::max(issue, ready_[inst.rn]);
    if (regOffset(inst.op))
        issue = std::max(issue, ready_[inst.rm]);
    if (!is_load)
        issue = std::max(issue, ready_[inst.rd]);
    const Addr va = regs_[inst.rn] +
                    (regOffset(inst.op) ? regs_[inst.rm]
                                        : uint64_t(inst.imm));
    const auto res = mem_->access(
        is_load ? mem::AccessKind::Load : mem::AccessKind::Store,
        va, el_, false);
    if (res.fault != mem::Fault::None) {
        *status = archFault(res.fault, va,
                            is_load ? "data abort on load"
                                    : "data abort on store");
        return false;
    }
    const unsigned size = memSize(inst.op);
    const uint64_t done = issue + res.latency;
    if (is_load) {
        regs_[inst.rd] = mem_->loadValue(res, va, size);
        ready_[inst.rd] = done;
    } else {
        mem_->storeValue(res, va, regs_[inst.rd], size);
    }
    lastCompletion_ = std::max(lastCompletion_, done);
    return true;
}

bool
Core::execPac(const Inst &inst, ExitStatus *status)
{
    const uint64_t ptr = regs_[inst.rd];
    uint64_t issue = std::max(cycle_ + 1, ready_[inst.rd]);
    uint64_t value;
    if (inst.op == Opcode::XPAC) {
        value = isa::stripPac(ptr);
    } else {
        issue = std::max(issue, ready_[inst.rn]);
        const auto key = pacKey(isa::pacKeyOf(inst.op));
        const uint64_t mod = regs_[inst.rn];
        value = isa::isPacSign(inst.op)
                    ? isa::signPointer(ptr, mod, key)
                    : isa::authPointer(ptr, mod, key);
    }
    // ARMv8.6 FPAC: authentication failure faults at the aut
    // itself rather than poisoning the pointer.
    if (cfg_.fpac && isa::isPacAuth(inst.op) &&
        !isa::isCanonical(value)) {
        *status = archFault(mem::Fault::Permission, ptr,
                            "FPAC authentication failure");
        return false;
    }
    const uint64_t done = issue + cfg_.pacLat;
    regs_[inst.rd] = value;
    ready_[inst.rd] = done;
    lastCompletion_ = std::max(lastCompletion_, done);
    if (cfg_.autFence && isa::isPacAuth(inst.op)) {
        // PAC-agnostic execution: implicit ISB after aut.
        serialize(cfg_.isbDrain);
    }
    return true;
}

Addr
Core::execBranchDirect(const Inst &inst)
{
    ++stats_.branches;
    if (inst.op == Opcode::BL) {
        regs_[isa::LR] = pc_ + isa::InstBytes;
        ready_[isa::LR] = cycle_ + 1;
    }
    return pc_ + uint64_t(inst.imm);
}

bool
Core::execMrs(const Inst &inst, ExitStatus *status)
{
    if (touchLog_)
        touchLog_->spoil(); // counters read the cycle and retired count
    const uint64_t issue = cycle_ + 1;
    bool undef = false;
    const uint64_t value = sysregRead(inst.sysreg, issue, &undef);
    if (undef) {
        status->kind =
            el_ == 0 ? ExitKind::CrashEl0 : ExitKind::KernelPanic;
        status->pc = pc_;
        status->reason = strprintf(
            "undefined MRS of %s at EL%u (pc=0x%llx)",
            isa::sysRegName(inst.sysreg).c_str(), el_,
            (unsigned long long)pc_);
        return false;
    }
    regs_[inst.rd] = value;
    ready_[inst.rd] = issue + cfg_.mrsLat;
    lastCompletion_ = std::max(lastCompletion_, ready_[inst.rd]);
    return true;
}

bool
Core::execMsr(const Inst &inst, ExitStatus *status)
{
    if (touchLog_)
        touchLog_->spoil();
    if (!sysregWrite(inst.sysreg, regs_[inst.rd])) {
        status->kind =
            el_ == 0 ? ExitKind::CrashEl0 : ExitKind::KernelPanic;
        status->pc = pc_;
        status->reason = strprintf(
            "illegal MSR of %s at EL%u (pc=0x%llx)",
            isa::sysRegName(inst.sysreg).c_str(), el_,
            (unsigned long long)pc_);
        return false;
    }
    serialize(cfg_.mrsLat); // MSR is self-synchronizing here
    return true;
}

bool
Core::execSvc(const Inst &inst, ExitStatus *status, Addr *next_pc)
{
    if (el_ != 0) {
        status->kind = ExitKind::KernelPanic;
        status->pc = pc_;
        status->reason = "nested SVC at EL1";
        return false;
    }
    ++stats_.syscalls;
    sysregs_[size_t(SysReg::ELR_EL1)] = pc_ + isa::InstBytes;
    sysregs_[size_t(SysReg::ESR_EL1)] = uint64_t(inst.imm);
    el_ = 1;
    serialize(cfg_.svcLat);
    *next_pc = sysregs_[size_t(SysReg::VBAR_EL1)];
    return true;
}

bool
Core::execEret(ExitStatus *status, Addr *next_pc)
{
    if (el_ != 1) {
        status->kind = ExitKind::CrashEl0;
        status->pc = pc_;
        status->reason = "ERET at EL0";
        return false;
    }
    el_ = 0;
    serialize(cfg_.eretLat);
    *next_pc = sysregs_[size_t(SysReg::ELR_EL1)];
    return true;
}

ExitStatus
Core::stopStatus(const Inst &inst) const
{
    ExitStatus status;
    status.code = uint64_t(inst.imm);
    status.pc = pc_;
    if (inst.op == Opcode::HLT) {
        status.kind = ExitKind::Halted;
    } else {
        status.kind = ExitKind::Breakpoint;
        status.reason =
            strprintf("brk #%llu", (unsigned long long)inst.imm);
    }
    return status;
}

bool
Core::condTaken(const Inst &inst) const
{
    if (inst.op == Opcode::BCOND)
        return isa::condHolds(inst.cond, flags_);
    const bool zero = regs_[inst.rd] == 0;
    return inst.op == Opcode::CBZ ? zero : !zero;
}

void
Core::mispredict(Addr wrong_pc, uint64_t resolve)
{
    ++stats_.branchMispredicts;
    if (touchLog_)
        touchLog_->spoil(); // the wrong path is not recorded
    SpecContext &ctx = specCtx_[0];
    ctx.regs = regs_;
    ctx.ready = ready_;
    ctx.poison.fill(false);
    ctx.taint.fill(false);
    ctx.flags = flags_;
    ctx.flagsReady = flagsReady_;
    ctx.flagsPoison = false;
    unsigned rob = cfg_.robSize;
    speculate(wrong_pc, cycle_ + 1, resolve, ctx, rob, 0);
    cycle_ = resolve + cfg_.redirectPenalty;
    fetchGroup_ = 0;
}

ExitStatus
Core::run(uint64_t max_insts)
{
    if (!callMemo_ || traceHook_)
        return execute(max_insts);
    ExitStatus status;
    if (callMemo_->replay(*this, max_insts, &status))
        return status;
    callMemo_->beginRecord(*this);
    status = execute(max_insts);
    callMemo_->endRecord(*this, status);
    return status;
}

ExitStatus
Core::execute(uint64_t max_insts)
{
    uint64_t n = 0;
    while (n < max_insts) {
        // Fetch-group pacing: fetchWidth instructions per cycle.
        if (++fetchGroup_ >= cfg_.fetchWidth) {
            fetchGroup_ = 0;
            ++cycle_;
        }

        const FetchedInst f = fetch(pc_, false);
        if (!f.ok) {
            if (f.undefined) {
                // The word mapped and fetched fine but fails decode:
                // an undefined-instruction exception, not a
                // translation fault.
                ExitStatus status;
                status.kind = ExitKind::UndefinedInst;
                status.code = f.word;
                status.pc = pc_;
                status.reason = strprintf(
                    "undefined instruction 0x%08x at pc=0x%llx (EL%u)",
                    f.word, (unsigned long long)pc_, el_);
                return status;
            }
            return archFault(f.fault, pc_, "instruction fetch fault");
        }
        // Front-end stall on icache/iTLB misses.
        if (f.fetchLatency > mem_->config().lat.l1Hit)
            cycle_ += f.fetchLatency - mem_->config().lat.l1Hit;

        const Inst &inst = f.inst;

        // Committed-fast-path superblock dispatch: a trace starting
        // here, and every block chained after it, executes through
        // the threaded loop in runSuperblock(), which replays the
        // interpreter's exact per-instruction side effects. Only
        // attempted with no trace hook armed and a cacheable PA in
        // hand; ineligible opcodes and every unchained block exit
        // fall through to the interpreter below.
        SbOpKind kind0;
        if (f.hasPa && !traceHook_ && sbKindFor(inst.op, &kind0)) {
            ExitStatus status;
            bool exited = false;
            const uint64_t executed = dispatchBlocks(
                f.pa, f.pageGen, max_insts - n, &status, &exited);
            if (exited)
                return status;
            n += executed;
            if (executed)
                continue;
            // The entry op is a conditional branch the predictor gets
            // wrong: fall through — the interpreter below runs it,
            // speculation machinery and all.
        }

        ++n;
        ++stats_.instsRetired;
        if (traceHook_)
            traceHook_(TraceRecord{pc_, inst, el_, false, cycle_});
        Addr next_pc = pc_ + isa::InstBytes;

        switch (isa::instClass(inst.op)) {
          case InstClass::Alu:
            execAlu(inst, isa::readsRn(inst), isa::readsRm(inst),
                    isa::readsRdAsSource(inst));
            break;

          case InstClass::Load:
          case InstClass::Store: {
            ExitStatus status;
            if (!execMem(inst, &status))
                return status;
            break;
          }

          case InstClass::BranchCond: {
            ++stats_.branches;
            const Addr taken_target = pc_ + uint64_t(inst.imm);
            const bool actual = condTaken(inst);
            const uint64_t op_ready = inst.op == Opcode::BCOND
                                          ? flagsReady_
                                          : ready_[inst.rd];
            const bool predicted = predictor_.predict(pc_);
            const uint64_t resolve =
                std::max(cycle_ + 1, op_ready) + cfg_.branchResolveLat;
            predictor_.update(pc_, actual);
            if (predicted != actual)
                mispredict(predicted ? taken_target : next_pc, resolve);
            if (actual)
                next_pc = taken_target;
            break;
          }

          case InstClass::BranchDirect:
            next_pc = execBranchDirect(inst);
            break;

          case InstClass::BranchIndirect: {
            ++stats_.branches;
            uint64_t target = regs_[inst.rn];
            uint64_t target_ready = ready_[inst.rn];
            // Combined authenticate-and-branch: the target is the
            // authenticated pointer and resolves a QARMA latency
            // later. A failed authentication poisons the target (or
            // faults right here under FPAC); the branch to a poisoned
            // target then faults at its fetch.
            if (isa::isAuthBranch(inst.op)) {
                const auto key = pacKey(isa::pacKeyOf(inst.op));
                target = isa::authPointer(target, regs_[inst.rm], key);
                target_ready = std::max(target_ready, ready_[inst.rm]) +
                               cfg_.pacLat;
                if (cfg_.fpac && !isa::isCanonical(target)) {
                    return archFault(mem::Fault::Permission,
                                     regs_[inst.rn],
                                     "FPAC authentication failure");
                }
            }
            const auto predicted = btb_.lookup(pc_);
            const uint64_t resolve =
                std::max(cycle_ + 1, target_ready) +
                cfg_.branchResolveLat;
            btb_.update(pc_, target);
            if (inst.op == Opcode::BLR ||
                inst.op == Opcode::BLRAA) {
                regs_[isa::LR] = pc_ + isa::InstBytes;
                ready_[isa::LR] = cycle_ + 1;
            }
            if (predicted && *predicted != target) {
                mispredict(*predicted, resolve);
            } else if (!predicted) {
                // BTB miss: the front end waits for the target.
                cycle_ = resolve;
                fetchGroup_ = 0;
            }
            next_pc = target;
            break;
          }

          case InstClass::PacSign:
          case InstClass::PacAuth: {
            ExitStatus status;
            if (!execPac(inst, &status))
                return status;
            break;
          }

          case InstClass::System: {
            switch (inst.op) {
              case Opcode::MRS: {
                ExitStatus status;
                if (!execMrs(inst, &status))
                    return status;
                break;
              }
              case Opcode::MSR: {
                ExitStatus status;
                if (!execMsr(inst, &status))
                    return status;
                break;
              }
              case Opcode::SVC: {
                ExitStatus status;
                if (!execSvc(inst, &status, &next_pc))
                    return status;
                break;
              }
              case Opcode::ERET: {
                ExitStatus status;
                if (!execEret(&status, &next_pc))
                    return status;
                break;
              }
              case Opcode::HLT:
              case Opcode::BRK:
                return stopStatus(inst);
              default:
                panic("unhandled system op %s",
                      isa::opcodeName(inst.op).c_str());
            }
            break;
          }

          case InstClass::Barrier:
            serialize(cfg_.isbDrain);
            break;
        }

        pc_ = next_pc;
    }

    ExitStatus status;
    status.kind = ExitKind::MaxInsts;
    status.pc = pc_;
    status.reason = "instruction budget exhausted";
    return status;
}

Superblock *
Core::blockAt(Addr pa, uint64_t page_gen, bool *built)
{
    superblocks_.syncEpoch(mem_->fetchEpoch(), &sbStats_.invalidations);
    *built = false;
    Superblock *sb =
        superblocks_.lookup(pa, page_gen, &sbStats_.invalidations);
    if (!sb) {
        sb = &superblocks_.insertSlot(pa, page_gen);
        buildSuperblock(*sb, mem_->phys(), SuperblockCache::MaxOps);
        *built = !sb->ops.empty();
        sbStats_.blocksBuilt += *built;
    }
    // An empty block records, under the page's write generation, that
    // the entry op must be interpreted (an indirect branch or an
    // undecodable word — only a chain successor can be one), so later
    // chains to it refuse without decoding.
    return sb->ops.empty() ? nullptr : sb;
}

uint64_t
Core::dispatchBlocks(Addr pa, uint64_t page_gen, uint64_t budget,
                     ExitStatus *status, bool *exited)
{
    bool built = false;
    Superblock *sb = blockAt(pa, page_gen, &built);
    PACMAN_ASSERT(sb != nullptr, "fetched superblock entry ineligible");
    if (!built)
        ++sbStats_.blockHits;
    // The interpreter's fetch of the entry op left its translation in
    // the iTLB and its line in the L1I.
    mem::Tlb::Way *way = mem_->itlb(el_).wayFor(
        isa::pageNumber(isa::vaPart(pc_)),
        isa::isKernelVa(pc_) ? mem::Asid::Kernel : mem::Asid::User);
    mem::Cache::Line *line = mem_->l1i().lineFor(pa);
    PACMAN_ASSERT(way != nullptr && line != nullptr,
                  "superblock entry state missing after fetch");

    uint64_t executed = 0;
    for (;;) {
        SbExit how = SbExit::Interpret;
        const uint64_t n = runSuperblock(*sb, way, line,
                                         budget - executed, status,
                                         &how);
        executed += n;
        sbStats_.blockInsts += n;
        if (how == SbExit::Return) {
            *exited = true;
            return executed;
        }
        if (how != SbExit::Chain || executed >= budget)
            return executed;
        sb = chainTo(&way, &line);
        if (!sb)
            return executed;
        ++sbStats_.chainedDispatches;
    }
}

Superblock *
Core::chainTo(mem::Tlb::Way **way_out, mem::Cache::Line **line_out)
{
    // Peek, with no side effect, at what the interpreter's fetch of
    // pc_ would do: the translation must hit the current EL's iTLB
    // and pass the fetch permission check (a miss walks, a fault
    // exits — both belong to the interpreter)...
    if (!isa::isCanonical(pc_))
        return nullptr;
    const Addr va = isa::vaPart(pc_);
    const bool kernel_va = isa::isKernelVa(pc_);
    mem::Tlb &itlb = mem_->itlb(el_);
    mem::Tlb::Way *way = itlb.wayFor(
        isa::pageNumber(va),
        kernel_va ? mem::Asid::Kernel : mem::Asid::User);
    if (!way || !way->entry.executable || (el_ == 0 && kernel_va))
        return nullptr;
    // ...the word must start a block (cached, or discovered now —
    // discovery is functional)...
    const Addr pa =
        (way->entry.ppn << isa::PageShift) | isa::pageOffset(va);
    bool built = false;
    Superblock *sb = blockAt(pa, mem_->phys().pageGen(pa), &built);
    if (!sb)
        return nullptr;
    // ...and an entry conditional branch must be predicted right (a
    // mispredict needs the interpreter's speculation machinery).
    const SuperblockOp &entry = sb->ops.front();
    if (entry.kind == SbOpKind::BranchCond &&
        predictor_.predict(pc_) != condTaken(entry.inst))
        return nullptr;

    // Accepted: replay the interpreter's fetch of the entry op —
    // fetch-group pacing, the iTLB hit, the L1I access (a real fill
    // on a miss) and the front-end stall.
    if (!built)
        ++sbStats_.blockHits;
    if (++fetchGroup_ >= cfg_.fetchWidth) {
        fetchGroup_ = 0;
        ++cycle_;
    }
    itlb.rehitN(way, 1);
    const uint64_t lat = mem_->fetchLineAccess(pa, line_out);
    const uint64_t l1_lat = mem_->config().lat.l1Hit;
    if (lat > l1_lat)
        cycle_ += lat - l1_lat;
    *way_out = way;
    return sb;
}

uint64_t
Core::runSuperblock(Superblock &sb, mem::Tlb::Way *way,
                    mem::Cache::Line *line, uint64_t budget,
                    ExitStatus *status, SbExit *how)
{
    // Fetch-replay state. Every in-block fetch re-hits the entry's
    // iTLB way (one block = one page, and the EL changes only at a
    // terminating SVC/ERET) and the current L1I line. Nothing else
    // touches the iTLB or the L1I until the block exits — data ops
    // walk the dTLB/L1D side only, speculation never runs inside a
    // block, and host-side disturbances (noise, fault-injector
    // flushes) run only between guest calls — so the re-hits are
    // counted here and applied in bulk through rehitN: the pending
    // L1I run before a line crossing's fill, both at every exit.
    mem::Tlb &itlb = mem_->itlb(el_);
    mem::Cache &l1i = mem_->l1i();
    uint64_t itlb_hits = 0;
    uint64_t l1i_hits = 0;

    const uint64_t l1_lat = mem_->config().lat.l1Hit;
    const unsigned line_shift = l1iLineShift_;
    const Addr pa_base = sb.pa & ~isa::Addr(isa::PageMask);
    const Addr va_base = pc_ & ~isa::Addr(isa::PageMask);
    uint64_t cur_line = sb.pa >> line_shift;
    const SuperblockOp *op = sb.ops.data();
    const SuperblockOp *const end = op + sb.ops.size();
    uint64_t executed = 0;
    *how = SbExit::Interpret;

    // Per-op sequence, identical to one interpreter iteration: the
    // caller (or the `next` replay below) has already paced the fetch
    // group and touched the hierarchy; here we retire, execute, and
    // step pc_. Each op jumps through a label table (computed goto).
    // Stores re-check the page's write generation so self-modifying
    // code into the running block falls back before a stale decoded
    // op can execute. Conditional branches peek their outcome against
    // the predictor first — with no side effect at all — and bail to
    // the interpreter on a mispredict, which owns the speculation
    // machinery.
    static const void *const kDispatch[] = {
        &&sb_alu, &&sb_load, &&sb_store, &&sb_pac, &&sb_branch,
        &&sb_branch_cond, &&sb_mrs, &&sb_msr, &&sb_barrier,
        &&sb_svc, &&sb_eret, &&sb_stop};

  sb_dispatch:
    goto *kDispatch[size_t(op->kind)];

  sb_alu:
    ++stats_.instsRetired;
    ++executed;
    execAlu(op->inst, op->readsRn, op->readsRm, op->readsRd);
    pc_ += isa::InstBytes;
    goto sb_next;

  sb_load:
    ++stats_.instsRetired;
    ++executed;
    if (!execMem(op->inst, status))
        goto sb_return;
    pc_ += isa::InstBytes;
    goto sb_next;

  sb_store:
    ++stats_.instsRetired;
    ++executed;
    if (!execMem(op->inst, status))
        goto sb_return;
    if (mem_->phys().pageGen(sb.pa) != sb.gen)
        goto sb_smc;
    pc_ += isa::InstBytes;
    goto sb_next;

  sb_pac:
    ++stats_.instsRetired;
    ++executed;
    if (!execPac(op->inst, status))
        goto sb_return;
    pc_ += isa::InstBytes;
    goto sb_next;

  sb_branch:
    ++stats_.instsRetired;
    ++executed;
    pc_ = execBranchDirect(op->inst);
    goto sb_next;

  sb_mrs:
    ++stats_.instsRetired;
    ++executed;
    if (!execMrs(op->inst, status))
        goto sb_return;
    pc_ += isa::InstBytes;
    goto sb_next;

  sb_msr:
    ++stats_.instsRetired;
    ++executed;
    if (!execMsr(op->inst, status))
        goto sb_return;
    pc_ += isa::InstBytes;
    goto sb_next;

  sb_barrier:
    ++stats_.instsRetired;
    ++executed;
    serialize(cfg_.isbDrain);
    pc_ += isa::InstBytes;
    goto sb_next;

  sb_branch_cond: {
    const isa::Inst &bi = op->inst;
    const bool actual = condTaken(bi);
    // Only the entry op can still mispredict here: later branches are
    // peeked in sb_next before their fetch is replayed, and a chained
    // block's entry in chainTo(). The entry op's fetch came from the
    // interpreter loop, which re-uses it on the fall-through, so
    // bailing costs no duplicate fetch effect.
    if (predictor_.predict(pc_) != actual)
        goto sb_bail;
    // Correctly predicted: the interpreter's exact effect is the
    // retire bookkeeping, the branch count, and the predictor
    // update — no cycle penalty in either direction.
    ++stats_.instsRetired;
    ++executed;
    ++stats_.branches;
    predictor_.update(pc_, actual);
    pc_ = actual ? pc_ + uint64_t(bi.imm) : pc_ + isa::InstBytes;
    goto sb_next;
  }

  // Terminators: always a block's last op, so sb_next ends the block.
  sb_svc: {
    ++stats_.instsRetired;
    ++executed;
    Addr target = 0;
    if (!execSvc(op->inst, status, &target))
        goto sb_return;
    pc_ = target;
    goto sb_next;
  }

  sb_eret: {
    ++stats_.instsRetired;
    ++executed;
    Addr target = 0;
    if (!execEret(status, &target))
        goto sb_return;
    pc_ = target;
    goto sb_next;
  }

  sb_stop:
    ++stats_.instsRetired;
    ++executed;
    *status = stopStatus(op->inst);
    goto sb_return;

  sb_next:
    // The block ends normally after its last op, or where the
    // architectural next pc (set by the op above) leaves the trace —
    // a branch resolving against the trace direction; either way the
    // successor may be chained.
    if (++op == end) {
        *how = SbExit::Chain;
        goto sb_exit;
    }
    if (executed >= budget)
        goto sb_exit;
    if (pc_ != (va_base | Addr(op->pageOff))) {
        *how = SbExit::Chain;
        goto sb_exit;
    }
    // A conditional branch the predictor will get wrong must not have
    // its fetch replayed: the block ends and the interpreter fetches
    // and executes it exactly once, speculation machinery and all.
    // Peeking before the replay keeps the fetch side effects —
    // l1i/iTLB touches and fetch-group pacing — bit-identical to the
    // slow path, which fetches a mispredicted branch only once.
    if (op->kind == SbOpKind::BranchCond &&
        predictor_.predict(pc_) != condTaken(op->inst)) {
        ++sbStats_.fallbackExits;
        goto sb_exit;
    }
    // Replay the architectural fetch of the next op: fetch-group
    // pacing, the iTLB hit, the L1I touch (or a real fill + front-end
    // stall on a line crossing) — the exact side-effect sequence the
    // interpreter's fetch() performs, with the re-hits batched.
    if (++fetchGroup_ >= cfg_.fetchWidth) {
        fetchGroup_ = 0;
        ++cycle_;
    }
    ++itlb_hits;
    if (const Addr pa = pa_base | Addr(op->pageOff);
        (pa >> line_shift) == cur_line) {
        ++l1i_hits;
    } else {
        l1i.rehitN(line, l1i_hits);
        l1i_hits = 0;
        cur_line = pa >> line_shift;
        const uint64_t lat = mem_->fetchLineAccess(pa, &line);
        if (lat > l1_lat)
            cycle_ += lat - l1_lat;
    }
    goto sb_dispatch;

  sb_smc:
    pc_ += isa::InstBytes;
    ++sbStats_.fallbackExits;
    goto sb_exit;

  sb_bail:
    // pc_ still points at the mispredicted branch; the interpreter
    // re-executes it from scratch (no effect has happened yet).
    ++sbStats_.fallbackExits;
    goto sb_exit;

  sb_return:
    *how = SbExit::Return;
  sb_exit:
    itlb.rehitN(way, itlb_hits);
    l1i.rehitN(line, l1i_hits);
    return executed;
}

void
Core::speculate(Addr pc, uint64_t start, uint64_t deadline,
                SpecContext &ctx, unsigned &rob_budget, unsigned depth)
{
    if (depth > MaxSpecDepth)
        return;

    uint64_t fetch_t = start;
    unsigned group = 0;
    const uint64_t l1_lat = mem_->config().lat.l1Hit;

    while (true) {
        if (fetch_t >= deadline || rob_budget == 0)
            return;

        const FetchedInst f = fetch(pc, true);
        if (!f.ok) {
            // Speculative fetch fault (e.g. fetching through a
            // poisoned authenticated pointer): no architectural
            // consequence, the wrong-path front end simply stalls.
            ++stats_.specFaultsSuppressed;
            return;
        }
        if (f.fetchLatency > l1_lat)
            fetch_t += f.fetchLatency - l1_lat;
        if (fetch_t >= deadline)
            return;

        --rob_budget;
        ++stats_.wrongPathInsts;
        if (++group >= cfg_.fetchWidth) {
            group = 0;
            ++fetch_t;
        }

        const Inst &inst = f.inst;
        if (traceHook_)
            traceHook_(TraceRecord{pc, inst, el_, true, fetch_t});
        Addr next_pc = pc + isa::InstBytes;

        switch (isa::instClass(inst.op)) {
          case InstClass::Alu: {
            uint64_t issue = fetch_t + 1;
            bool poison = false;
            bool taint = false;
            auto use = [&](isa::RegIndex r) {
                issue = std::max(issue, ctx.ready[r]);
                poison |= ctx.poison[r];
                taint |= ctx.taint[r];
            };
            const bool reads_rm = isa::readsRm(inst);
            if (isa::readsRn(inst))
                use(inst.rn);
            if (reads_rm)
                use(inst.rm);
            if (isa::readsRdAsSource(inst))
                use(inst.rd);
            const uint64_t lat =
                inst.op == Opcode::MUL ? cfg_.mulLat : cfg_.aluLat;
            const AluOut out = aluExec(inst, !reads_rm, ctx.regs[inst.rd],
                                       ctx.regs[inst.rn],
                                       ctx.regs[inst.rm]);
            if (out.writes) {
                ctx.regs[inst.rd] = out.value;
                ctx.ready[inst.rd] = issue + lat;
                ctx.poison[inst.rd] = poison;
                ctx.taint[inst.rd] = taint;
            }
            if (out.setsFlags) {
                ctx.flags = out.flags;
                ctx.flagsReady = issue + lat;
                ctx.flagsPoison = poison;
            }
            break;
          }

          case InstClass::Load:
          case InstClass::Store: {
            const bool is_load =
                isa::instClass(inst.op) == InstClass::Load;
            uint64_t issue = fetch_t + 1;
            bool poison = ctx.poison[inst.rn];
            bool taint = ctx.taint[inst.rn];
            issue = std::max(issue, ctx.ready[inst.rn]);
            if (regOffset(inst.op)) {
                issue = std::max(issue, ctx.ready[inst.rm]);
                poison |= ctx.poison[inst.rm];
                taint |= ctx.taint[inst.rm];
            }
            if (!is_load) {
                issue = std::max(issue, ctx.ready[inst.rd]);
                poison |= ctx.poison[inst.rd];
            }
            if (is_load)
                ctx.poison[inst.rd] = true; // until proven delivered

            const bool blocked =
                !cfg_.speculativeMemIssue || poison ||
                (cfg_.pacTaint && taint) || issue >= deadline;
            if (!blocked) {
                const Addr va =
                    ctx.regs[inst.rn] +
                    (regOffset(inst.op) ? ctx.regs[inst.rm]
                                        : uint64_t(inst.imm));
                const auto res = mem_->access(
                    is_load ? mem::AccessKind::Load
                            : mem::AccessKind::Store,
                    va, el_, true);
                ++stats_.wrongPathMemOps;
                if (res.fault != mem::Fault::None) {
                    ++stats_.specFaultsSuppressed;
                } else if (is_load) {
                    // Speculative loads read committed memory; stores
                    // modulate the hierarchy but never write data.
                    ctx.regs[inst.rd] =
                        mem_->loadValue(res, va, memSize(inst.op));
                    ctx.ready[inst.rd] = issue + res.latency;
                    ctx.poison[inst.rd] = false;
                    ctx.taint[inst.rd] = false;
                }
            }
            break;
          }

          case InstClass::BranchCond: {
            const Addr taken_target = pc + uint64_t(inst.imm);
            const bool predicted = predictor_.predict(pc);
            const Addr pred_target =
                predicted ? taken_target : next_pc;
            bool actual;
            bool op_poison;
            uint64_t op_ready;
            if (inst.op == Opcode::BCOND) {
                actual = isa::condHolds(inst.cond, ctx.flags);
                op_poison = ctx.flagsPoison;
                op_ready = ctx.flagsReady;
            } else {
                const bool zero = ctx.regs[inst.rd] == 0;
                actual = inst.op == Opcode::CBZ ? zero : !zero;
                op_poison = ctx.poison[inst.rd];
                op_ready = ctx.ready[inst.rd];
            }
            const uint64_t resolve =
                std::max(fetch_t + 1, op_ready) + cfg_.branchResolveLat;
            if (op_poison || resolve >= deadline) {
                // Resolves after the outer squash (or never):
                // prediction carries the wrong path to its end.
                next_pc = pred_target;
                break;
            }
            const Addr actual_target = actual ? taken_target : next_pc;
            if (predicted == actual) {
                next_pc = actual_target;
                break;
            }
            // Nested misprediction inside the wrong path. The child
            // runs on its own pool slot seeded with a copy of this
            // context, leaving ours untouched across the call.
            SpecContext &nested = specCtx_[depth + 1];
            nested = ctx;
            if (cfg_.eagerNestedSquash) {
                speculate(pred_target, fetch_t + 1, resolve, nested,
                          rob_budget, depth + 1);
                fetch_t = resolve + cfg_.redirectPenalty;
                group = 0;
                next_pc = actual_target;
                break;
            }
            // Lazy squash: the inner branch never becomes oldest, so
            // its wrong path runs until the outer branch resolves and
            // its computed target is never fetched.
            speculate(pred_target, fetch_t + 1, deadline, nested,
                      rob_budget, depth + 1);
            return;
          }

          case InstClass::BranchDirect: {
            if (inst.op == Opcode::BL) {
                ctx.regs[isa::LR] = pc + isa::InstBytes;
                ctx.ready[isa::LR] = fetch_t + 1;
                ctx.poison[isa::LR] = false;
                ctx.taint[isa::LR] = false;
            }
            next_pc = pc + uint64_t(inst.imm);
            break;
          }

          case InstClass::BranchIndirect: {
            const auto predicted = btb_.lookup(pc);
            uint64_t target = ctx.regs[inst.rn];
            bool tgt_poison = ctx.poison[inst.rn];
            bool tgt_taint = cfg_.pacTaint && ctx.taint[inst.rn];
            uint64_t target_ready = ctx.ready[inst.rn];
            if (isa::isAuthBranch(inst.op)) {
                const auto key = pacKey(isa::pacKeyOf(inst.op));
                target = isa::authPointer(target, ctx.regs[inst.rm],
                                          key);
                tgt_poison |= ctx.poison[inst.rm];
                target_ready = std::max(target_ready,
                                        ctx.ready[inst.rm]) +
                               cfg_.pacLat;
                // Under FPAC the speculative auth failure is a
                // suppressed fault: the target never materializes.
                if (cfg_.fpac && !isa::isCanonical(target)) {
                    ++stats_.specFaultsSuppressed;
                    tgt_poison = true;
                }
                // STT-style taint applies to the internal auth
                // output as well.
                tgt_taint |= cfg_.pacTaint;
            }
            const uint64_t resolve =
                std::max(fetch_t + 1, target_ready) +
                cfg_.branchResolveLat;
            if (inst.op == Opcode::BLR ||
                inst.op == Opcode::BLRAA) {
                ctx.regs[isa::LR] = pc + isa::InstBytes;
                ctx.ready[isa::LR] = fetch_t + 1;
                ctx.poison[isa::LR] = false;
                ctx.taint[isa::LR] = false;
            }
            if (predicted) {
                if (tgt_poison || tgt_taint || resolve >= deadline) {
                    // Target unavailable before the outer squash:
                    // the BTB prediction carries the wrong path.
                    next_pc = *predicted;
                    break;
                }
                if (*predicted == target) {
                    next_pc = target;
                    break;
                }
                SpecContext &nested = specCtx_[depth + 1];
                nested = ctx;
                if (cfg_.eagerNestedSquash) {
                    // This is the instruction-PACMAN moment: execute
                    // down the stale BTB target until the aut output
                    // resolves, then squash eagerly and refetch from
                    // the verified pointer while still speculative.
                    speculate(*predicted, fetch_t + 1, resolve, nested,
                              rob_budget, depth + 1);
                    fetch_t = resolve + cfg_.redirectPenalty;
                    group = 0;
                    next_pc = target;
                    break;
                }
                speculate(*predicted, fetch_t + 1, deadline, nested,
                          rob_budget, depth + 1);
                return;
            }
            // No BTB entry: fetch stalls until the target computes.
            if (tgt_poison || tgt_taint || resolve >= deadline)
                return;
            fetch_t = resolve + cfg_.redirectPenalty;
            group = 0;
            next_pc = target;
            break;
          }

          case InstClass::PacSign:
          case InstClass::PacAuth: {
            uint64_t issue = std::max(fetch_t + 1, ctx.ready[inst.rd]);
            bool poison = ctx.poison[inst.rd];
            uint64_t value;
            if (inst.op == Opcode::XPAC) {
                value = isa::stripPac(ctx.regs[inst.rd]);
            } else {
                issue = std::max(issue, ctx.ready[inst.rn]);
                poison |= ctx.poison[inst.rn];
                const auto key = pacKey(isa::pacKeyOf(inst.op));
                const uint64_t mod = ctx.regs[inst.rn];
                value = isa::isPacSign(inst.op)
                            ? isa::signPointer(ctx.regs[inst.rd], mod,
                                               key)
                            : isa::authPointer(ctx.regs[inst.rd], mod,
                                               key);
            }
            // Under FPAC a speculative authentication failure is a
            // suppressed fault: the result never becomes available,
            // so dependents (the transmission op) cannot issue — the
            // same signal the poisoned-pointer path produces.
            if (cfg_.fpac && isa::isPacAuth(inst.op) &&
                !isa::isCanonical(value)) {
                ++stats_.specFaultsSuppressed;
                poison = true;
            }
            ctx.regs[inst.rd] = value;
            ctx.ready[inst.rd] = issue + cfg_.pacLat;
            ctx.poison[inst.rd] = poison;
            // STT-style mitigation: PA outputs are tainted and may
            // not speculatively form addresses.
            ctx.taint[inst.rd] = cfg_.pacTaint;
            if (cfg_.autFence && isa::isPacAuth(inst.op)) {
                // Fence after aut: nothing younger executes under
                // speculation.
                return;
            }
            break;
          }

          case InstClass::System:
            if (inst.op == Opcode::MRS) {
                // Counter reads are harmless to execute speculatively.
                bool undef = false;
                const uint64_t issue = fetch_t + 1;
                const uint64_t value =
                    sysregRead(inst.sysreg, issue, &undef);
                if (undef) {
                    ctx.poison[inst.rd] = true;
                } else {
                    ctx.regs[inst.rd] = value;
                    ctx.ready[inst.rd] = issue + cfg_.mrsLat;
                    ctx.poison[inst.rd] = false;
                    ctx.taint[inst.rd] = false;
                }
                break;
            }
            // MSR/SVC/ERET/HLT/BRK do not execute speculatively.
            return;

          case InstClass::Barrier:
            // ISB/DSB serialize: younger wrong-path work never issues.
            return;
        }

        pc = next_pc;
    }
}

} // namespace pacman::cpu
