#include "runtime.hh"

#include "asm/assembler.hh"
#include "base/logging.hh"
#include "kernel/layout.hh"

namespace pacman::attack
{

using asmjit::Assembler;
using namespace pacman::isa; // register names
using namespace pacman::kernel;

AttackerProcess::AttackerProcess(Machine &machine)
    : machine_(machine)
{
    // User code (2 pages) and data (256 scratch pages).
    machine_.mem().mapRange(
        UserCodeBase, 2 * PageSize,
        mem::PageFlags{.user = true, .writable = true,
                       .executable = true, .device = false});
    machine_.mem().mapRange(
        UserDataBase, 256 * PageSize,
        mem::PageFlags{.user = true, .writable = true,
                       .executable = false, .device = false});

    // Default argument arrays: list in scratch page 0 (dTLB set 0),
    // out in scratch page 1 (set 1). Oracles relocate them away from
    // the set under probe via placeArrays().
    listArray_ = scratchPage(0);
    outArray_ = scratchPage(1);

    buildRoutines();
}

Addr
AttackerProcess::scratchPage(unsigned index) const
{
    PACMAN_ASSERT(index < 256, "scratch page %u out of range", index);
    return UserDataBase + uint64_t(index) * PageSize;
}

void
AttackerProcess::placeArrays(unsigned list_page, unsigned out_page)
{
    listArray_ = scratchPage(list_page);
    outArray_ = scratchPage(out_page);
}

std::vector<uint64_t>
AttackerProcess::reservedDtlbSets() const
{
    // Only *fixed* infrastructure counts: the argument arrays are
    // relocatable (placeArrays) and oracles move them per target.
    const uint64_t sets = machine_.mem().config().dtlb.sets;
    return {
        // Kernel data page the gadget reads (cond/modifier slots).
        pageNumber(vaPart(KernelDataBase)) & (sets - 1),
        // Benign data page touched during training.
        pageNumber(vaPart(BenignDataBase)) & (sets - 1),
        // Busy-slot page every gadget syscall checks first.
        pageNumber(vaPart(KernelDataBase + BusySlotOff)) & (sets - 1),
    };
}

void
AttackerProcess::buildRoutines()
{
    Assembler a(UserCodeBase);

    // syscall: number in x16, args in x0..x5 (host pre-sets regs).
    a.label("r_syscall");
    a.svc(0);
    a.hlt(0);

    // timedLoad: x1 = address -> x0 = multithread-counter delta.
    a.label("r_timed_load");
    a.mov64(X3, TimerPage);
    a.isb();
    a.ldr(X4, X3, 0);   // t1
    a.isb();
    a.ldr(X5, X1, 0);   // the access under measurement
    a.isb();
    a.ldr(X6, X3, 0);   // t2
    a.isb();
    a.sub(X0, X6, X4);
    a.hlt(0);

    // timedLoadPmc: x1 = address -> x0 = PMC0 cycle delta.
    a.label("r_timed_load_pmc");
    a.isb();
    a.mrs(X4, SysReg::PMC0);
    a.isb();
    a.ldr(X5, X1, 0);
    a.isb();
    a.mrs(X6, SysReg::PMC0);
    a.isb();
    a.sub(X0, X6, X4);
    a.hlt(0);

    // loadAll: x1 = list address, x2 = count.
    a.label("r_load_list");
    a.label("ll_loop");
    a.cbz(X2, "ll_done");
    a.ldr(X3, X1, 0);   // next target address
    a.ldr(X4, X3, 0);   // access it
    a.addi(X1, X1, 8);
    a.subi(X2, X2, 1);
    a.b("ll_loop");
    a.label("ll_done");
    a.hlt(0);

    // probeAll: x1 = list, x2 = count, x3 = out array.
    a.label("r_probe_list");
    a.mov64(X9, TimerPage);
    a.label("pl_loop");
    a.cbz(X2, "pl_done");
    a.ldr(X4, X1, 0);   // next target address
    a.isb();
    a.ldr(X5, X9, 0);   // t1
    a.isb();
    a.ldr(X6, X4, 0);   // probe access
    a.isb();
    a.ldr(X7, X9, 0);   // t2
    a.isb();
    a.sub(X8, X7, X5);
    a.str(X8, X3, 0);
    a.addi(X1, X1, 8);
    a.addi(X3, X3, 8);
    a.subi(X2, X2, 1);
    a.b("pl_loop");
    a.label("pl_done");
    a.hlt(0);

    // fetchAt: x1 = target containing a ret stub.
    a.label("r_fetch_at");
    a.blr(X1);
    a.hlt(0);

    // fetchAllAt: x1 = list, x2 = count; branch to each address.
    a.label("r_fetch_list");
    a.label("fl_loop");
    a.cbz(X2, "fl_done");
    a.ldr(X3, X1, 0);
    a.blr(X3);
    a.addi(X1, X1, 8);
    a.subi(X2, X2, 1);
    a.b("fl_loop");
    a.label("fl_done");
    a.hlt(0);

    // readCntpct: x0 = CNTPCT_EL0.
    a.label("r_read_cntpct");
    a.isb();
    a.mrs(X0, SysReg::CNTPCT_EL0);
    a.isb();
    a.hlt(0);

    // readPmc0: traps at EL0 unless the kext granted access.
    a.label("r_read_pmc0");
    a.isb();
    a.mrs(X0, SysReg::PMC0);
    a.isb();
    a.hlt(0);

    const asmjit::Program prog = a.finalize();
    Addr addr = prog.base;
    for (InstWord word : prog.words) {
        machine_.mem().writeVirt(addr, word, 4);
        addr += InstBytes;
    }

    rSyscall_ = prog.symbol("r_syscall");
    rTimedLoad_ = prog.symbol("r_timed_load");
    rTimedLoadPmc_ = prog.symbol("r_timed_load_pmc");
    rLoadList_ = prog.symbol("r_load_list");
    rProbeList_ = prog.symbol("r_probe_list");
    rFetchAt_ = prog.symbol("r_fetch_at");
    rFetchList_ = prog.symbol("r_fetch_list");
    rReadCntpct_ = prog.symbol("r_read_cntpct");
    rReadPmc0_ = prog.symbol("r_read_pmc0");
}

bool
AttackerProcess::verifyRoutines() const
{
    // The `mem()` accessor is non-const but the functional probes
    // below only read; keep this check usable from const contexts.
    auto &mem = const_cast<Machine &>(machine_).mem();
    for (Addr entry :
         {rSyscall_, rTimedLoad_, rTimedLoadPmc_, rLoadList_,
          rProbeList_, rFetchAt_, rFetchList_, rReadCntpct_,
          rReadPmc0_}) {
        if (entry == 0)
            return false; // buildRoutines never ran to completion
        if (!mem.translateFunctional(entry))
            return false; // code page unmapped
        if (mem.readVirt(entry, 4) == 0)
            return false; // entry word zeroed (no ARM inst is 0)
    }
    const Addr lo = UserDataBase;
    const Addr hi = UserDataBase + 256 * PageSize;
    return listArray_ >= lo && listArray_ < hi && outArray_ >= lo &&
           outArray_ < hi;
}

uint64_t
AttackerProcess::syscall(uint16_t num, uint64_t a0, uint64_t a1,
                         uint64_t a2)
{
    auto &core = machine_.core();
    core.setReg(X16, num);
    return machine_.call(rSyscall_, {a0, a1, a2});
}

void
AttackerProcess::syscallRepeat(uint16_t num, uint64_t a0, uint64_t n)
{
    machine_.callRepeat(rSyscall_,
                        {{X16, num}, {X0, a0}, {X1, 0}, {X2, 0}}, n);
}

uint64_t
AttackerProcess::timedLoad(Addr va)
{
    return machine_.call(rTimedLoad_, {0, va});
}

uint64_t
AttackerProcess::timedLoadPmc(Addr va)
{
    return machine_.call(rTimedLoadPmc_, {0, va});
}

void
AttackerProcess::writeList(const std::vector<Addr> &addrs)
{
    PACMAN_ASSERT(addrs.size() * 8 <= PageSize,
                  "address list exceeds one page (%zu entries)",
                  addrs.size());
    Addr slot = listArray_;
    for (Addr va : addrs) {
        machine_.mem().writeVirt64(slot, va);
        slot += 8;
    }
}

void
AttackerProcess::loadAll(const std::vector<Addr> &addrs)
{
    for (Addr va : addrs)
        ensureMapped(va);
    writeList(addrs);
    machine_.call(rLoadList_, {0, listArray_, addrs.size()});
}

const std::vector<uint64_t> &
AttackerProcess::probeAll(const std::vector<Addr> &addrs)
{
    for (Addr va : addrs)
        ensureMapped(va);
    writeList(addrs);
    machine_.call(rProbeList_, {0, listArray_, addrs.size(), outArray_});
    probeScratch_.clear();
    probeScratch_.reserve(addrs.size());
    for (size_t i = 0; i < addrs.size(); ++i)
        probeScratch_.push_back(machine_.mem().readVirt64(outArray_ + 8 * i));
    return probeScratch_;
}

void
AttackerProcess::fetchAt(Addr va)
{
    machine_.call(rFetchAt_, {0, va});
}

void
AttackerProcess::fetchAllAt(const std::vector<Addr> &addrs)
{
    writeList(addrs);
    machine_.call(rFetchList_, {0, listArray_, addrs.size()});
}

uint64_t
AttackerProcess::readCntpct()
{
    return machine_.call(rReadCntpct_, {});
}

cpu::ExitStatus
AttackerProcess::tryReadPmc0(uint64_t *value)
{
    const cpu::ExitStatus status = machine_.runGuest(rReadPmc0_, {});
    if (status.kind == cpu::ExitKind::Halted && value)
        *value = machine_.core().reg(X0);
    return status;
}

void
AttackerProcess::ensureMapped(Addr va)
{
    auto &mem = machine_.mem();
    if (!mem.translateFunctional(va)) {
        mem.mapPage(va, mem::PageFlags{.user = true, .writable = true,
                                       .executable = false,
                                       .device = false});
    }
}

void
AttackerProcess::plantRetStub(Addr va)
{
    auto &mem = machine_.mem();
    if (!mem.translateFunctional(va)) {
        mem.mapPage(va, mem::PageFlags{.user = true, .writable = true,
                                       .executable = true,
                                       .device = false});
    }
    Assembler a(va);
    a.ret();
    const asmjit::Program prog = a.finalize();
    mem.writeVirt(va, prog.words[0], 4);
}

} // namespace pacman::attack
