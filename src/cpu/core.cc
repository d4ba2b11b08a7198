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
    state_.sysregs[size_t(SysReg::CNTFRQ_EL0)] = cfg.cntFreqHz;
    if (cfg.fastPath == FastPath::Full)
        callMemo_ = std::make_unique<CallMemo>(*this);
}

Core::~Core() = default;

uint64_t
Core::reg(unsigned idx) const
{
    PACMAN_ASSERT(idx < isa::NumRegs, "register %u out of range", idx);
    return state_.regs[idx];
}

void
Core::setReg(unsigned idx, uint64_t value)
{
    PACMAN_ASSERT(idx < isa::NumRegs, "register %u out of range", idx);
    state_.regs[idx] = value;
    state_.ready[idx] = state_.cycle;
}

void
Core::setEl(unsigned el)
{
    PACMAN_ASSERT(el <= 1, "exception level %u unsupported", el);
    state_.el = el;
}

uint64_t
Core::sysreg(SysReg reg) const
{
    return state_.sysregs[size_t(reg)];
}

void
Core::setSysreg(SysReg reg, uint64_t value)
{
    state_.sysregs[size_t(reg)] = value;
}

crypto::PacKey
Core::pacKey(crypto::PacKeySelect sel) const
{
    const size_t base = size_t(SysReg::APIAKEY_LO) + 2 * size_t(sel);
    return crypto::PacKey{state_.sysregs[base + 1], state_.sysregs[base]};
}

uint64_t
Core::ccsidrValue() const
{
    // ARM-style CCSIDR: LineSize[2:0] = log2(bytes) - 4,
    // Associativity[12:3] = ways - 1, NumSets[27:13] = sets - 1.
    // Reports the *architectural* L1D geometry, which the paper finds
    // to be twice the observed associativity (footnote 5).
    const auto &cfg = mem_->config();
    const uint64_t sel = state_.sysregs[size_t(SysReg::CSSELR_EL1)];
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
    if (state_.el == 0 && !isa::sysRegEl0Readable(reg)) {
        const bool pmc = reg == SysReg::PMC0 || reg == SysReg::PMC1;
        const bool granted =
            state_.sysregs[size_t(SysReg::PMCR0)] & isa::PMCR0_EL0_ACCESS;
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
        return uint64_t(state_.el) << 2;
      case SysReg::CCSIDR_EL1:
        return ccsidrValue();
      case SysReg::CLIDR_EL1:
        // L1 split I+D, L2 unified: Ctype1 = 0b011, Ctype2 = 0b100.
        return 0b011ull | (0b100ull << 3);
      default:
        return state_.sysregs[size_t(reg)];
    }
}

bool
Core::sysregWrite(SysReg reg, uint64_t value)
{
    if (state_.el == 0)
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
        state_.sysregs[size_t(reg)] = value;
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
    return {state_, predictor_.takeSnapshot(), btb_.takeSnapshot(), stats_};
}

void
Core::restore(const Snapshot &snap)
{
    state_ = snap;
    predictor_.restore(snap.predictor);
    btb_.restore(snap.btb);
    stats_ = snap.stats;
    // Host-side state survives the rewind; Snapshot says why.
}

void
Core::serialize(uint64_t extra)
{
    state_.cycle = std::max(state_.cycle, state_.lastCompletion) + extra;
    state_.fetchGroup = 0;
}

Core::FetchedInst
Core::fetch(Addr pc, bool speculative)
{
    FetchedInst out;
    const auto res =
        mem_->access(mem::AccessKind::Fetch, pc, state_.el, speculative);
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
    status.kind = state_.el == 0 ? ExitKind::CrashEl0 : ExitKind::KernelPanic;
    status.pc = state_.pc;
    status.fault = fault;
    status.reason = strprintf(
        "%s at pc=0x%llx addr=0x%llx (%s, EL%u)", what,
        (unsigned long long)state_.pc, (unsigned long long)addr,
        fault == mem::Fault::Permission ? "permission" : "translation",
        state_.el);
    return status;
}

/**
 * The committed state view: the run state's registers, ready times and
 * flags, read against its cycle.
 * Its poison and taint are always false, so no memory op is blocked; a
 * fault ends the run with *status; stores write memory; results
 * advance state_.lastCompletion; a fence drains the pipeline.
 */
struct Core::Committed
{
    Core &c;
    ExitStatus *status = nullptr;

    uint64_t now() const { return c.state_.cycle; }
    Addr pc() const { return c.state_.pc; }
    uint64_t reg(unsigned r) const { return c.state_.regs[r]; }
    const Pstate &flags() const { return c.state_.flags; }
    Ready ready(unsigned r) const { return {c.state_.ready[r]}; }
    Ready flagsReady() const { return {c.state_.flagsReady}; }
    void poison(unsigned) {}
    bool blocked(const Ready &) const { return false; }

    void write(unsigned r, uint64_t value, const Ready &when)
    {
        c.state_.regs[r] = value;
        c.state_.ready[r] = when.cycle;
    }
    void writeFlags(const Pstate &f, const Ready &when)
    {
        c.state_.flags = f;
        c.state_.flagsReady = when.cycle;
    }
    void complete(uint64_t done)
    {
        c.state_.lastCompletion = std::max(c.state_.lastCompletion, done);
    }
    mem::AccessResult access(mem::AccessKind kind, Addr va)
    {
        return c.mem_->access(kind, va, c.state_.el, false);
    }
    void store(const mem::AccessResult &res, Addr va, uint64_t value,
               unsigned size)
    {
        c.mem_->storeValue(res, va, value, size);
    }
    bool fault(mem::Fault f, Addr addr, const char *what)
    {
        *status = c.archFault(f, addr, what);
        return false;
    }
    bool undefinedMrs(const Inst &inst)
    {
        *status = c.sysregFault("undefined MRS", inst.sysreg);
        return false;
    }
    bool fence(uint64_t drain)
    {
        c.serialize(drain);
        return true;
    }
};

/**
 * The wrong-path state view: a SpecContext read against the fetch time
 * t of the instruction at `at`. Results inherit their sources' poison
 * and taint (DESIGN.md §4k lists the executors' exceptions). A memory
 * op issues only with speculativeMemIssue on, no poisoned or tainted
 * operand and an issue time before the deadline; it counts as a
 * wrong-path memory op, and a store writes nothing. Faults are counted
 * and suppressed (an undefined MRS only poisons), nothing advances
 * state_.lastCompletion, and where the committed path would serialize the
 * wrong path stops.
 */
struct Core::WrongPath
{
    Core &c;
    SpecContext &ctx;
    uint64_t deadline;
    uint64_t t;
    Addr at;

    uint64_t now() const { return t; }
    Addr pc() const { return at; }
    uint64_t reg(unsigned r) const { return ctx.regs[r]; }
    const Pstate &flags() const { return ctx.flags; }
    Ready ready(unsigned r) const { return ctx.ready[r]; }
    Ready flagsReady() const { return ctx.flagsReady; }
    void poison(unsigned r) { ctx.ready[r].poison = true; }
    void complete(uint64_t) {}
    void store(const mem::AccessResult &, Addr, uint64_t, unsigned) {}
    bool undefinedMrs(const Inst &) { return true; }
    bool fence(uint64_t) { return false; }

    bool blocked(const Ready &when) const
    {
        return !c.cfg_.speculativeMemIssue || when.poison || when.taint ||
               when.cycle >= deadline;
    }
    void write(unsigned r, uint64_t value, const Ready &when)
    {
        ctx.regs[r] = value;
        ctx.ready[r] = when;
    }
    void writeFlags(const Pstate &f, const Ready &when)
    {
        ctx.flags = f;
        ctx.flagsReady = when;
    }
    mem::AccessResult access(mem::AccessKind kind, Addr va)
    {
        ++c.stats_.wrongPathMemOps;
        return c.mem_->access(kind, va, c.state_.el, true);
    }
    bool fault(mem::Fault, Addr, const char *)
    {
        ++c.stats_.specFaultsSuppressed;
        return true;
    }
};

template <class V>
void
Core::execAlu(V &v, const Inst &inst, bool reads_rn, bool reads_rm,
              bool reads_rd)
{
    Ready when{v.now() + 1};
    if (reads_rn)
        when.join(v.ready(inst.rn));
    if (reads_rm)
        when.join(v.ready(inst.rm));
    if (reads_rd)
        when.join(v.ready(inst.rd));
    const AluOut out = aluExec(inst, !reads_rm, v.reg(inst.rd),
                               v.reg(inst.rn), v.reg(inst.rm));
    when.cycle += inst.op == Opcode::MUL ? cfg_.mulLat : cfg_.aluLat;
    if (out.writes)
        v.write(inst.rd, out.value, when);
    if (out.setsFlags)
        v.writeFlags(out.flags, when);
    v.complete(when.cycle);
}

template <class V>
bool
Core::execMem(V &v, const Inst &inst)
{
    const bool is_load = isa::instClass(inst.op) == InstClass::Load;
    const bool reg_off = regOffset(inst.op);
    Ready when{v.now() + 1};
    when.join(v.ready(inst.rn));
    if (reg_off)
        when.join(v.ready(inst.rm));
    if (is_load)
        v.poison(inst.rd); // no value until the load delivers one
    else
        when.join(v.ready(inst.rd), false);
    if (v.blocked(when))
        return true;
    const Addr va = v.reg(inst.rn) +
                    (reg_off ? v.reg(inst.rm) : uint64_t(inst.imm));
    const auto res = v.access(
        is_load ? mem::AccessKind::Load : mem::AccessKind::Store, va);
    if (res.fault != mem::Fault::None)
        return v.fault(res.fault, va,
                       is_load ? "data abort on load"
                               : "data abort on store");
    const unsigned size = memSize(inst.op);
    const uint64_t done = when.cycle + res.latency;
    if (is_load)
        v.write(inst.rd, mem_->loadValue(res, va, size), Ready{done});
    else
        v.store(res, va, v.reg(inst.rd), size);
    v.complete(done);
    return true;
}

template <class V>
bool
Core::execPac(V &v, const Inst &inst)
{
    const bool auth = isa::isPacAuth(inst.op);
    const uint64_t ptr = v.reg(inst.rd);
    Ready when{v.now() + 1};
    when.join(v.ready(inst.rd));
    uint64_t value;
    if (inst.op == Opcode::XPAC) {
        value = isa::stripPac(ptr);
    } else {
        when.join(v.ready(inst.rn));
        const auto key = pacKey(isa::pacKeyOf(inst.op));
        value = auth ? isa::authPointer(ptr, v.reg(inst.rn), key)
                     : isa::signPointer(ptr, v.reg(inst.rn), key);
    }
    // ARMv8.6 FPAC: authentication failure faults at the aut itself
    // rather than poisoning the pointer. On the wrong path the fault is
    // suppressed and the result never becomes available, so dependents
    // (the transmission op) cannot issue — the same signal the
    // poisoned-pointer path produces.
    if (cfg_.fpac && auth && !isa::isCanonical(value)) {
        if (!v.fault(mem::Fault::Permission, ptr,
                     "FPAC authentication failure"))
            return false;
        when.poison = true;
    }
    when.cycle += cfg_.pacLat;
    // STT-style mitigation: PA outputs are tainted and may not
    // speculatively form addresses.
    when.taint = cfg_.pacTaint;
    v.write(inst.rd, value, when);
    v.complete(when.cycle);
    // PAC-agnostic execution: implicit ISB after aut.
    return !(cfg_.autFence && auth) || v.fence(cfg_.isbDrain);
}

template <class V>
bool
Core::execMrs(V &v, const Inst &inst)
{
    if (touchLog_)
        touchLog_->spoil(); // counters read the cycle and retired count
    const uint64_t issue = v.now() + 1;
    bool undef = false;
    const uint64_t value = sysregRead(inst.sysreg, issue, &undef);
    if (undef) {
        v.poison(inst.rd);
        return v.undefinedMrs(inst);
    }
    v.write(inst.rd, value, Ready{issue + cfg_.mrsLat});
    v.complete(issue + cfg_.mrsLat);
    return true;
}

template <class V>
bool
Core::condTaken(const V &v, const Inst &inst, Ready *resolve) const
{
    const bool bcond = inst.op == Opcode::BCOND;
    if (resolve) {
        resolve->join(bcond ? v.flagsReady() : v.ready(inst.rd));
        resolve->cycle = std::max(v.now() + 1, resolve->cycle) +
                         cfg_.branchResolveLat;
    }
    if (bcond)
        return isa::condHolds(inst.cond, v.flags());
    return (v.reg(inst.rd) == 0) == (inst.op == Opcode::CBZ);
}

template <class V>
bool
Core::branchTarget(V &v, const Inst &inst, Addr *target, Ready *resolve)
{
    Addr to = v.pc() + uint64_t(inst.imm);
    if (isa::isIndirectBranch(inst.op)) {
        resolve->join(v.ready(inst.rn));
        to = v.reg(inst.rn);
        // Combined authenticate-and-branch: the target is the
        // authenticated pointer and resolves a QARMA latency later. A
        // failed authentication leaves a non-canonical target (or
        // faults right here under FPAC); the branch to it then faults
        // at its fetch.
        if (isa::isAuthBranch(inst.op)) {
            resolve->join(v.ready(inst.rm));
            const uint64_t ptr = to;
            to = isa::authPointer(ptr, v.reg(inst.rm),
                                  pacKey(isa::pacKeyOf(inst.op)));
            resolve->cycle += cfg_.pacLat;
            resolve->taint |= cfg_.pacTaint; // a PA output
            if (cfg_.fpac && !isa::isCanonical(to)) {
                if (!v.fault(mem::Fault::Permission, ptr,
                             "FPAC authentication failure"))
                    return false;
                resolve->poison = true;
            }
        }
        resolve->cycle = std::max(v.now() + 1, resolve->cycle) +
                         cfg_.branchResolveLat;
    }
    if (isa::writesRd(inst)) // BL, BLR, BLRAA
        v.write(isa::LR, v.pc() + isa::InstBytes, Ready{v.now() + 1});
    *target = to;
    return true;
}

ExitStatus
Core::sysregFault(const char *what, SysReg reg) const
{
    ExitStatus status;
    status.kind = state_.el == 0 ? ExitKind::CrashEl0 : ExitKind::KernelPanic;
    status.pc = state_.pc;
    status.reason = strprintf("%s of %s at EL%u (pc=0x%llx)", what,
                              isa::sysRegName(reg).c_str(), state_.el,
                              (unsigned long long)state_.pc);
    return status;
}

bool
Core::execMsr(const Inst &inst, ExitStatus *status)
{
    if (touchLog_)
        touchLog_->spoil();
    if (!sysregWrite(inst.sysreg, state_.regs[inst.rd])) {
        *status = sysregFault("illegal MSR", inst.sysreg);
        return false;
    }
    serialize(cfg_.mrsLat); // MSR is self-synchronizing here
    return true;
}

bool
Core::execSvc(const Inst &inst, ExitStatus *status, Addr *next_pc)
{
    if (state_.el != 0) {
        status->kind = ExitKind::KernelPanic;
        status->pc = state_.pc;
        status->reason = "nested SVC at EL1";
        return false;
    }
    ++stats_.syscalls;
    state_.sysregs[size_t(SysReg::ELR_EL1)] = state_.pc + isa::InstBytes;
    state_.sysregs[size_t(SysReg::ESR_EL1)] = uint64_t(inst.imm);
    state_.el = 1;
    serialize(cfg_.svcLat);
    *next_pc = state_.sysregs[size_t(SysReg::VBAR_EL1)];
    return true;
}

bool
Core::execEret(ExitStatus *status, Addr *next_pc)
{
    if (state_.el != 1) {
        status->kind = ExitKind::CrashEl0;
        status->pc = state_.pc;
        status->reason = "ERET at EL0";
        return false;
    }
    state_.el = 0;
    serialize(cfg_.eretLat);
    *next_pc = state_.sysregs[size_t(SysReg::ELR_EL1)];
    return true;
}

ExitStatus
Core::stopStatus(const Inst &inst) const
{
    ExitStatus status;
    status.code = uint64_t(inst.imm);
    status.pc = state_.pc;
    if (inst.op == Opcode::HLT) {
        status.kind = ExitKind::Halted;
    } else {
        status.kind = ExitKind::Breakpoint;
        status.reason =
            strprintf("brk #%llu", (unsigned long long)inst.imm);
    }
    return status;
}

void
Core::mispredict(Addr wrong_pc, uint64_t resolve)
{
    ++stats_.branchMispredicts;
    if (touchLog_)
        touchLog_->spoil(); // the wrong path is not recorded
    SpecContext &ctx = specCtx_[0];
    ctx.regs = state_.regs;
    for (unsigned r = 0; r < isa::NumRegs; ++r)
        ctx.ready[r] = Ready{state_.ready[r]};
    ctx.flags = state_.flags;
    ctx.flagsReady = Ready{state_.flagsReady};
    unsigned rob = cfg_.robSize;
    speculate(wrong_pc, state_.cycle + 1, resolve, ctx, rob, 0);
    state_.cycle = resolve + cfg_.redirectPenalty;
    state_.fetchGroup = 0;
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
Core::runRepeat(Addr pc, std::span<const RegWrite> regs, uint64_t n)
{
    // An armed trace hook bypasses the memo, and it may disarm itself
    // mid-run: a run that starts with one armed takes no bulk step.
    const bool bulk = callMemo_ && !traceHook_;
    ExitStatus status;
    for (uint64_t done = 0; done < n;) {
        state_.el = 0;
        state_.pc = pc;
        for (const RegWrite &w : regs)
            setReg(w.index, w.value);
        status = run();
        if (status.kind != ExitKind::Halted)
            break;
        ++done;
        if (bulk && n - done > 1)
            done += callMemo_->skipRepeats(*this, done, n - done - 1);
    }
    return status;
}

ExitStatus
Core::execute(uint64_t max_insts)
{
    // Filled by whichever exit ends the run.
    ExitStatus status;
    Committed arch{*this, &status};
    uint64_t n = 0;
    while (n < max_insts) {
        // Fetch-group pacing: fetchWidth instructions per cycle.
        if (++state_.fetchGroup >= cfg_.fetchWidth) {
            state_.fetchGroup = 0;
            ++state_.cycle;
        }

        const FetchedInst f = fetch(state_.pc, false);
        if (!f.ok) {
            if (f.undefined) {
                // The word mapped and fetched fine but fails decode:
                // an undefined-instruction exception, not a
                // translation fault.
                status.kind = ExitKind::UndefinedInst;
                status.code = f.word;
                status.pc = state_.pc;
                status.reason = strprintf(
                    "undefined instruction 0x%08x at pc=0x%llx (EL%u)",
                    f.word, (unsigned long long)state_.pc, state_.el);
                return status;
            }
            return archFault(f.fault, state_.pc, "instruction fetch fault");
        }
        // Front-end stall on icache/iTLB misses.
        if (f.fetchLatency > mem_->config().lat.l1Hit)
            state_.cycle += f.fetchLatency - mem_->config().lat.l1Hit;

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
            traceHook_(TraceRecord{state_.pc, inst, state_.el, false,
                                   state_.cycle});
        Addr next_pc = state_.pc + isa::InstBytes;

        switch (isa::instClass(inst.op)) {
          case InstClass::Alu:
            execAlu(arch, inst, isa::readsRn(inst), isa::readsRm(inst),
                    isa::readsRdAsSource(inst));
            break;

          case InstClass::Load:
          case InstClass::Store:
            if (!execMem(arch, inst))
                return status;
            break;

          case InstClass::BranchCond: {
            ++stats_.branches;
            const Addr taken_target = state_.pc + uint64_t(inst.imm);
            Ready resolve;
            const bool actual = condTaken(arch, inst, &resolve);
            const bool predicted = predictor_.predict(state_.pc);
            predictor_.update(state_.pc, actual);
            if (predicted != actual)
                mispredict(predicted ? taken_target : next_pc,
                           resolve.cycle);
            if (actual)
                next_pc = taken_target;
            break;
          }

          case InstClass::BranchDirect:
          case InstClass::BranchIndirect: {
            ++stats_.branches;
            Ready resolve;
            if (!branchTarget(arch, inst, &next_pc, &resolve))
                return status;
            if (!isa::isIndirectBranch(inst.op))
                break;
            const auto predicted = btb_.lookup(state_.pc);
            btb_.update(state_.pc, next_pc);
            if (predicted && *predicted != next_pc) {
                mispredict(*predicted, resolve.cycle);
            } else if (!predicted) {
                // BTB miss: the front end waits for the target.
                state_.cycle = resolve.cycle;
                state_.fetchGroup = 0;
            }
            break;
          }

          case InstClass::PacSign:
          case InstClass::PacAuth:
            if (!execPac(arch, inst))
                return status;
            break;

          case InstClass::System:
            switch (inst.op) {
              case Opcode::MRS:
                if (!execMrs(arch, inst))
                    return status;
                break;
              case Opcode::MSR:
                if (!execMsr(inst, &status))
                    return status;
                break;
              case Opcode::SVC:
                if (!execSvc(inst, &status, &next_pc))
                    return status;
                break;
              case Opcode::ERET:
                if (!execEret(&status, &next_pc))
                    return status;
                break;
              case Opcode::HLT:
              case Opcode::BRK:
                return stopStatus(inst);
              default:
                panic("unhandled system op %s",
                      isa::opcodeName(inst.op).c_str());
            }
            break;

          case InstClass::Barrier:
            serialize(cfg_.isbDrain);
            break;
        }

        state_.pc = next_pc;
    }

    status.kind = ExitKind::MaxInsts;
    status.pc = state_.pc;
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
    mem::Tlb::Way *way = mem_->itlb(state_.el).wayFor(
        isa::pageNumber(isa::vaPart(state_.pc)),
        isa::isKernelVa(state_.pc) ? mem::Asid::Kernel : mem::Asid::User);
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
    // state_.pc would do: the translation must hit the current EL's iTLB
    // and pass the fetch permission check (a miss walks, a fault
    // exits — both belong to the interpreter)...
    if (!isa::isCanonical(state_.pc))
        return nullptr;
    const Addr va = isa::vaPart(state_.pc);
    const bool kernel_va = isa::isKernelVa(state_.pc);
    mem::Tlb &itlb = mem_->itlb(state_.el);
    mem::Tlb::Way *way = itlb.wayFor(
        isa::pageNumber(va),
        kernel_va ? mem::Asid::Kernel : mem::Asid::User);
    if (!way || !way->entry.executable || (state_.el == 0 && kernel_va))
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
        predictor_.predict(state_.pc) !=
            condTaken(Committed{*this}, entry.inst))
        return nullptr;

    // Accepted: replay the interpreter's fetch of the entry op —
    // fetch-group pacing, the iTLB hit, the L1I access (a real fill
    // on a miss) and the front-end stall.
    if (!built)
        ++sbStats_.blockHits;
    if (++state_.fetchGroup >= cfg_.fetchWidth) {
        state_.fetchGroup = 0;
        ++state_.cycle;
    }
    itlb.rehitN(way, 1);
    const uint64_t lat = mem_->fetchLineAccess(pa, line_out);
    const uint64_t l1_lat = mem_->config().lat.l1Hit;
    if (lat > l1_lat)
        state_.cycle += lat - l1_lat;
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
    mem::Tlb &itlb = mem_->itlb(state_.el);
    mem::Cache &l1i = mem_->l1i();
    uint64_t itlb_hits = 0;
    uint64_t l1i_hits = 0;

    const uint64_t l1_lat = mem_->config().lat.l1Hit;
    const unsigned line_shift = l1iLineShift_;
    const Addr pa_base = sb.pa & ~isa::Addr(isa::PageMask);
    const Addr va_base = state_.pc & ~isa::Addr(isa::PageMask);
    uint64_t cur_line = sb.pa >> line_shift;
    const SuperblockOp *op = sb.ops.data();
    const SuperblockOp *const end = op + sb.ops.size();
    Committed arch{*this, status};
    uint64_t executed = 0;
    *how = SbExit::Interpret;

    // Per-op sequence, identical to one interpreter iteration: the
    // caller (or the `next` replay below) has already paced the fetch
    // group and touched the hierarchy; here we retire, execute, and
    // step state_.pc. Each op jumps through a label table (computed goto).
    // Stores re-check the page's write generation so self-modifying
    // code into the running block falls back before a stale decoded
    // op can execute. Conditional branches peek their outcome against
    // the predictor first — with no side effect at all — and leave a
    // mispredict to the interpreter, which owns the speculation
    // machinery.
    static const void *const kDispatch[] = {
        &&sb_alu, &&sb_mem, &&sb_mem, &&sb_pac, &&sb_branch,
        &&sb_branch_cond, &&sb_mrs, &&sb_msr, &&sb_barrier,
        &&sb_svc, &&sb_eret, &&sb_stop};
    const auto mispredicted = [&] {
        return op->kind == SbOpKind::BranchCond &&
               predictor_.predict(state_.pc) != condTaken(arch, op->inst);
    };

    // Later branches are peeked in sb_next before their fetch is
    // replayed, and a chained block's entry in chainTo(). The entry
    // op's fetch came from the interpreter loop, which re-uses it on
    // the fall-through, so leaving it costs no duplicate fetch effect.
    if (mispredicted())
        goto sb_fallback;

  sb_dispatch:
    ++stats_.instsRetired;
    ++executed;
    goto *kDispatch[size_t(op->kind)];

  sb_alu:
    execAlu(arch, op->inst, op->readsRn, op->readsRm, op->readsRd);
    state_.pc += isa::InstBytes;
    goto sb_next;

  sb_mem:
    if (!execMem(arch, op->inst))
        goto sb_return;
    if (op->kind == SbOpKind::Store &&
        mem_->phys().pageGen(sb.pa) != sb.gen)
        goto sb_smc;
    state_.pc += isa::InstBytes;
    goto sb_next;

  sb_pac:
    if (!execPac(arch, op->inst))
        goto sb_return;
    state_.pc += isa::InstBytes;
    goto sb_next;

  sb_branch:
    ++stats_.branches;
    branchTarget(arch, op->inst, &state_.pc, nullptr);
    goto sb_next;

  sb_mrs:
    if (!execMrs(arch, op->inst))
        goto sb_return;
    state_.pc += isa::InstBytes;
    goto sb_next;

  sb_msr:
    if (!execMsr(op->inst, status))
        goto sb_return;
    state_.pc += isa::InstBytes;
    goto sb_next;

  sb_barrier:
    serialize(cfg_.isbDrain);
    state_.pc += isa::InstBytes;
    goto sb_next;

  sb_branch_cond: {
    // Predicted right (see mispredicted above): the interpreter's
    // exact effect is the branch count and the predictor update — no
    // cycle penalty in either direction.
    const isa::Inst &bi = op->inst;
    const bool actual = condTaken(arch, bi);
    ++stats_.branches;
    predictor_.update(state_.pc, actual);
    state_.pc += actual ? uint64_t(bi.imm) : isa::InstBytes;
    goto sb_next;
  }

  // Terminators: always a block's last op, so sb_next ends the block.
  sb_svc: {
    Addr target = 0;
    if (!execSvc(op->inst, status, &target))
        goto sb_return;
    state_.pc = target;
    goto sb_next;
  }

  sb_eret: {
    Addr target = 0;
    if (!execEret(status, &target))
        goto sb_return;
    state_.pc = target;
    goto sb_next;
  }

  sb_stop:
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
    if (state_.pc != (va_base | Addr(op->pageOff))) {
        *how = SbExit::Chain;
        goto sb_exit;
    }
    // A conditional branch the predictor will get wrong must not have
    // its fetch replayed: the block ends and the interpreter fetches
    // and executes it exactly once, speculation machinery and all.
    // Peeking before the replay keeps the fetch side effects —
    // l1i/iTLB touches and fetch-group pacing — bit-identical to the
    // slow path, which fetches a mispredicted branch only once.
    if (mispredicted())
        goto sb_fallback;
    // Replay the architectural fetch of the next op: fetch-group
    // pacing, the iTLB hit, the L1I touch (or a real fill + front-end
    // stall on a line crossing) — the exact side-effect sequence the
    // interpreter's fetch() performs, with the re-hits batched.
    if (++state_.fetchGroup >= cfg_.fetchWidth) {
        state_.fetchGroup = 0;
        ++state_.cycle;
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
            state_.cycle += lat - l1_lat;
    }
    goto sb_dispatch;

  sb_smc:
    state_.pc += isa::InstBytes;
  sb_fallback:
    // The interpreter fetches the op at state_.pc afresh: a store rewrote
    // this block's page, or it is a mispredicted branch, which has had
    // no effect yet.
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

    WrongPath v{*this, ctx, deadline, start, pc};
    unsigned group = 0;
    const uint64_t l1_lat = mem_->config().lat.l1Hit;

    while (true) {
        if (v.t >= deadline || rob_budget == 0)
            return;

        const FetchedInst f = fetch(v.at, true);
        if (!f.ok) {
            // Speculative fetch fault (e.g. fetching through a
            // poisoned authenticated pointer): no architectural
            // consequence, the wrong-path front end simply stalls.
            ++stats_.specFaultsSuppressed;
            return;
        }
        if (f.fetchLatency > l1_lat)
            v.t += f.fetchLatency - l1_lat;
        if (v.t >= deadline)
            return;

        --rob_budget;
        ++stats_.wrongPathInsts;
        if (++group >= cfg_.fetchWidth) {
            group = 0;
            ++v.t;
        }

        const Inst &inst = f.inst;
        if (traceHook_)
            traceHook_(TraceRecord{v.at, inst, state_.el, true, v.t});
        Addr next_pc = v.at + isa::InstBytes;
        // A branch whose operands resolve before the outer squash
        // (resolve) can mispredict here too, sending fetch to *nested,
        // or stall fetch until then on a BTB miss (redirect).
        Ready resolve;
        std::optional<Addr> nested;
        bool redirect = false;

        switch (isa::instClass(inst.op)) {
          case InstClass::Alu:
            execAlu(v, inst, isa::readsRn(inst), isa::readsRm(inst),
                    isa::readsRdAsSource(inst));
            break;

          case InstClass::Load:
          case InstClass::Store:
            execMem(v, inst);
            break;

          case InstClass::PacSign:
          case InstClass::PacAuth:
            if (!execPac(v, inst))
                return; // aut fence
            break;

          case InstClass::System:
            // Counter reads are harmless to execute speculatively;
            // MSR/SVC/ERET/HLT/BRK do not execute speculatively.
            if (inst.op != Opcode::MRS)
                return;
            execMrs(v, inst);
            break;

          case InstClass::Barrier:
            // ISB/DSB serialize: younger wrong-path work never issues.
            return;

          case InstClass::BranchDirect:
            branchTarget(v, inst, &next_pc, &resolve);
            break;

          case InstClass::BranchCond: {
            const bool actual = condTaken(v, inst, &resolve);
            const bool predicted = predictor_.predict(v.at);
            const Addr taken_target = v.at + uint64_t(inst.imm);
            const Addr pred_target = predicted ? taken_target : next_pc;
            // A poisoned operand, or one that resolves after the outer
            // squash: prediction carries the wrong path to its end.
            if (predicted != actual && !resolve.poison &&
                resolve.cycle < deadline) {
                nested = pred_target;
                next_pc = actual ? taken_target : next_pc;
            } else {
                next_pc = pred_target;
            }
            break;
          }

          case InstClass::BranchIndirect: {
            Addr target = 0;
            branchTarget(v, inst, &target, &resolve);
            const auto predicted = btb_.lookup(v.at);
            // A target that is poisoned, tainted or ready only after
            // the outer squash never redirects fetch.
            const bool resolves = !resolve.poison && !resolve.taint &&
                                  resolve.cycle < deadline;
            if (!predicted) {
                // No BTB entry: fetch stalls until the target computes.
                if (!resolves)
                    return;
                redirect = true;
                next_pc = target;
            } else if (resolves && *predicted != target) {
                nested = *predicted;
                next_pc = target;
            } else {
                next_pc = *predicted; // the BTB carries the wrong path
            }
            break;
          }
        }

        if (nested) {
            // Nested misprediction inside the wrong path. The child
            // runs on its own pool slot seeded with a copy of this
            // context, leaving ours untouched across the call.
            SpecContext &child = specCtx_[depth + 1];
            child = ctx;
            if (!cfg_.eagerNestedSquash) {
                // Lazy squash: the inner branch never becomes oldest,
                // so its wrong path runs until the outer branch
                // resolves and its computed target is never fetched.
                speculate(*nested, v.t + 1, deadline, child, rob_budget,
                          depth + 1);
                return;
            }
            // Eager squash — for an auth-branch this is the
            // instruction-PACMAN moment: execute down the stale target
            // until the branch resolves, then squash and refetch from
            // its computed target while still speculative.
            speculate(*nested, v.t + 1, resolve.cycle, child, rob_budget,
                      depth + 1);
            redirect = true;
        }
        if (redirect) {
            v.t = resolve.cycle + cfg_.redirectPenalty;
            group = 0;
        }
        v.at = next_pc;
    }
}

} // namespace pacman::cpu
