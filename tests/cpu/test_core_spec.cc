#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "asm/assembler.hh"
#include "cpu/core.hh"
#include "mem/hierarchy.hh"

namespace pacman::cpu
{
namespace
{

using namespace pacman::isa;
using asmjit::Assembler;

constexpr Addr CodeBase = 0x0000'4000'0000ull;
constexpr Addr DataBase = 0x0000'6000'0000ull;
// A page the wrong path touches; its dTLB fill is the observable.
constexpr Addr ProbePage = 0x0000'6100'0000ull;
constexpr Addr CondPage = 0x0000'6200'0000ull;

/** Fixture with per-test core configuration. */
class SpecTest : public ::testing::Test
{
  protected:
    SpecTest()
        : rng(1), hier(mem::m1PCoreConfig(), &rng)
    {
        hier.mapRange(CodeBase, 16 * PageSize, exec());
        hier.mapRange(DataBase, 16 * PageSize, data());
        hier.mapRange(ProbePage, PageSize, data());
        hier.mapRange(CondPage, PageSize, data());
    }

    static mem::PageFlags
    exec()
    {
        return {.user = true, .writable = true, .executable = true,
                .device = false};
    }

    static mem::PageFlags
    data()
    {
        return {.user = true, .writable = true, .executable = false,
                .device = false};
    }

    Core &
    makeCore(const CoreConfig &cfg = CoreConfig{})
    {
        core = std::make_unique<Core>(cfg, &hier, &rng);
        return *core;
    }

    void
    loadProgram(const asmjit::Program &p)
    {
        Addr addr = p.base;
        for (InstWord w : p.words) {
            hier.writeVirt(addr, w, 4);
            addr += InstBytes;
        }
    }

    /**
     * The canonical victim shape: a branch on a guard value loaded
     * from memory, guarding a speculation body. The guard branch is
     * trained taken, then the final run executes with guard = 0 so
     * the body runs only on the mispredicted path.
     *
     * @param slow_guard Leave the guard's translation cold for the
     *                   final run (big speculation window); when
     *                   false, re-warm it (tiny window).
     * @param body       Emitted as the speculated gadget body.
     * @param post_train Runs after training, before the attack run
     *                   (state cleanup for assertions).
     */
    ExitStatus
    runVictim(Core &c, bool slow_guard,
              const std::function<void(Assembler &)> &body,
              const std::function<void()> &post_train = [] {},
              const std::vector<Addr> &rewarm = {})
    {
        Assembler a(CodeBase);
        a.mov64(X9, CondPage);
        a.ldr(X1, X9, 0); // guard value
        a.cbnz(X1, "body");
        a.b("out");
        a.label("body");
        body(a);
        a.label("out");
        a.hlt(0);
        loadProgram(a.finalize());

        // Train with guard = 1 until the predictor saturates taken.
        hier.writeVirt64(CondPage, 1);
        for (int i = 0; i < 4; ++i) {
            c.setPc(CodeBase);
            c.setEl(0);
            EXPECT_EQ(c.run(10000).kind, ExitKind::Halted);
        }

        post_train();

        // Arm: guard = 0. Flush translations so training side
        // effects cannot satisfy the probe; re-warm the guard's
        // translation for the fast-resolve variant.
        hier.writeVirt64(CondPage, 0);
        hier.dtlb().flushAll();
        hier.l2tlb().flushAll();
        if (!slow_guard)
            hier.access(mem::AccessKind::Load, CondPage, 0, false);
        for (Addr va : rewarm)
            hier.access(mem::AccessKind::Load, va, 0, false);

        c.setPc(CodeBase);
        c.setEl(0);
        return c.run(10000);
    }

    bool
    probeFilled()
    {
        return hier.dtlb().contains(pageNumber(vaPart(ProbePage)),
                                    mem::Asid::User);
    }

    Random rng;
    mem::MemoryHierarchy hier;
    std::unique_ptr<Core> core;
};

TEST_F(SpecTest, WrongPathLoadModulatesTlbWithoutArchEffect)
{
    Core &c = makeCore();
    const ExitStatus status = runVictim(
        c, true,
        [](Assembler &a) {
            a.mov64(X2, ProbePage);
            a.ldr(X3, X2, 0);
            a.movz(X4, 0xDEAD); // wrong-path arch write
        },
        [&] { c.setReg(X4, 0); });
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_TRUE(probeFilled());    // micro-architectural effect
    EXPECT_EQ(c.reg(X4), 0u);      // no architectural effect
    EXPECT_GT(c.stats().wrongPathInsts, 0u);
}

TEST_F(SpecTest, SpeculativeFaultSuppressed)
{
    // The pointer is attacker-controlled data: valid during training,
    // non-canonical during the attack run. Dereferencing it on the
    // wrong path must neither crash nor leave a side effect.
    Core &c = makeCore();
    hier.writeVirt64(DataBase, ProbePage); // benign training pointer
    const ExitStatus status = runVictim(
        c, true,
        [](Assembler &a) {
            a.mov64(X8, DataBase);
            a.ldr(X2, X8, 0);
            a.ldr(X3, X2, 0);
        },
        [&] {
            hier.writeVirt64(DataBase, ProbePage | (0x0003ull << 48));
        },
        {DataBase});
    EXPECT_EQ(status.kind, ExitKind::Halted); // no crash
    EXPECT_FALSE(probeFilled());              // and no side effect
    EXPECT_GT(c.stats().specFaultsSuppressed, 0u);
}

TEST_F(SpecTest, ArchitecturalFaultStillCrashes)
{
    Core &c = makeCore();
    Assembler a(CodeBase);
    a.mov64(X2, ProbePage | (0x0003ull << 48));
    a.ldr(X3, X2, 0);
    a.hlt(0);
    loadProgram(a.finalize());
    c.setPc(CodeBase);
    EXPECT_EQ(c.run(100).kind, ExitKind::CrashEl0);
}

TEST_F(SpecTest, ShortWindowBlocksSlowDependentLoad)
{
    // With a fast-resolving guard, a load behind a 10-cycle pac/aut
    // dependency cannot issue before the squash.
    Core &c = makeCore();
    c.setSysreg(SysReg::APDAKEY_LO, 0x42);
    const ExitStatus status = runVictim(c, false, [](Assembler &a) {
        a.mov64(X2, ProbePage);
        a.pacda(X2, X9);
        a.autda(X2, X9);
        a.ldr(X3, X2, 0);
    });
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_FALSE(probeFilled());
}

TEST_F(SpecTest, LongWindowAdmitsDependentLoad)
{
    Core &c = makeCore();
    c.setSysreg(SysReg::APDAKEY_LO, 0x42);
    const ExitStatus status = runVictim(c, true, [](Assembler &a) {
        a.mov64(X2, ProbePage);
        a.pacda(X2, X9);
        a.autda(X2, X9);
        a.ldr(X3, X2, 0);
    });
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_TRUE(probeFilled());
}

TEST_F(SpecTest, SpeculativeStoreLeavesDataUntouched)
{
    Core &c = makeCore();
    const ExitStatus status = runVictim(
        c, true,
        [](Assembler &a) {
            a.mov64(X2, ProbePage);
            a.mov64(X3, 0x2222);
            a.str(X3, X2, 0);
        },
        [&] { hier.writeVirt64(ProbePage, 0x1111); });
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_EQ(hier.readVirt64(ProbePage), 0x1111u); // data intact
    EXPECT_TRUE(probeFilled()); // but the translation was touched
}

TEST_F(SpecTest, SpeculativeMemIssueOffClosesChannel)
{
    CoreConfig cfg;
    cfg.speculativeMemIssue = false;
    Core &c = makeCore(cfg);
    const ExitStatus status = runVictim(c, true, [](Assembler &a) {
        a.mov64(X2, ProbePage);
        a.ldr(X3, X2, 0);
    });
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_FALSE(probeFilled());
}

TEST_F(SpecTest, PacTaintBlocksAutAddressedLoad)
{
    CoreConfig cfg;
    cfg.pacTaint = true;
    Core &c = makeCore(cfg);
    c.setSysreg(SysReg::APDAKEY_LO, 0x42);
    const ExitStatus status = runVictim(c, true, [](Assembler &a) {
        a.mov64(X2, ProbePage);
        a.pacda(X2, X9);
        a.autda(X2, X9);
        a.ldr(X3, X2, 0); // address tainted -> blocked
    });
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_FALSE(probeFilled());
}

TEST_F(SpecTest, PacTaintStillAllowsUntaintedLoads)
{
    CoreConfig cfg;
    cfg.pacTaint = true;
    Core &c = makeCore(cfg);
    const ExitStatus status = runVictim(c, true, [](Assembler &a) {
        a.mov64(X2, ProbePage);
        a.ldr(X3, X2, 0); // plain Spectre-style leak unaffected
    });
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_TRUE(probeFilled());
}

TEST_F(SpecTest, AutFenceStopsSpeculationAfterAut)
{
    CoreConfig cfg;
    cfg.autFence = true;
    Core &c = makeCore(cfg);
    c.setSysreg(SysReg::APDAKEY_LO, 0x42);
    const ExitStatus status = runVictim(c, true, [](Assembler &a) {
        a.mov64(X2, ProbePage);
        a.pacda(X2, X9);
        a.autda(X2, X9);
        a.ldr(X3, X2, 0);
    });
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_FALSE(probeFilled());
}

TEST_F(SpecTest, EagerSquashDirected)
{
    // Train blr to stub_a; then speculatively execute the same blr
    // with the pointer now holding stub_b. With eager squash stub_b's
    // page is fetched once the target resolves; without it only the
    // BTB target is fetched.
    for (const bool eager : {true, false}) {
        CoreConfig cfg;
        cfg.eagerNestedSquash = eager;
        Core &c = makeCore(cfg);
        hier.flushAll();

        const Addr stub_a = CodeBase + 8 * PageSize;
        const Addr stub_b = CodeBase + 9 * PageSize;
        Assembler sa(stub_a);
        sa.ret();
        loadProgram(sa.finalize());
        Assembler sb(stub_b);
        sb.ret();
        loadProgram(sb.finalize());

        Assembler a(CodeBase);
        a.mov64(X9, CondPage);
        a.ldr(X1, X9, 0);      // guard
        a.mov64(X8, DataBase); // holds the function pointer
        a.ldr(X2, X8, 0);
        a.cbnz(X1, "body");
        a.b("out");
        a.label("body");
        a.blr(X2);
        a.label("out");
        a.hlt(0);
        loadProgram(a.finalize());

        // Train with guard = 1, pointer = stub_a.
        hier.writeVirt64(CondPage, 1);
        hier.writeVirt64(DataBase, stub_a);
        for (int i = 0; i < 4; ++i) {
            c.setPc(CodeBase);
            c.setEl(0);
            ASSERT_EQ(c.run(10000).kind, ExitKind::Halted);
        }

        // Attack run: guard = 0 (mispredicted), pointer = stub_b.
        hier.writeVirt64(CondPage, 0);
        hier.writeVirt64(DataBase, stub_b);
        hier.dtlb().flushAll();
        hier.l2tlb().flushAll();
        hier.itlb(0).flushAll();
        // Keep the pointer load fast: only the guard stays cold.
        hier.access(mem::AccessKind::Load, DataBase, 0, false);
        c.setPc(CodeBase);
        c.setEl(0);
        ASSERT_EQ(c.run(10000).kind, ExitKind::Halted);

        const bool b_fetched =
            hier.itlb(0).contains(pageNumber(vaPart(stub_b)),
                                  mem::Asid::User) ||
            hier.dtlb().contains(pageNumber(vaPart(stub_b)),
                                 mem::Asid::User);
        EXPECT_EQ(b_fetched, eager) << "eager=" << eager;
    }
}

TEST_F(SpecTest, PoisonedIndirectTargetFetchSuppressed)
{
    // The full instruction-gadget shape: authenticate an attacker-
    // supplied signed pointer and call through it, all on the wrong
    // path. A wrong-PAC pointer poisons; its fetch is suppressed.
    Core &c = makeCore();
    c.setSysreg(SysReg::APIAKEY_LO, 0x7777);
    const crypto::PacKey key = c.pacKey(crypto::PacKeySelect::IA);

    const Addr stub_a = CodeBase + 8 * PageSize;
    Assembler sa(stub_a);
    sa.ret();
    loadProgram(sa.finalize());
    const Addr victim_page = CodeBase + 10 * PageSize;

    // Training pointer: correctly signed stub_a (modifier = x9 value,
    // which the victim preamble sets to CondPage).
    hier.writeVirt64(DataBase, signPointer(stub_a, CondPage, key));
    const ExitStatus status = runVictim(
        c, true,
        [](Assembler &a) {
            a.mov64(X8, DataBase);
            a.ldr(X2, X8, 0);
            a.autia(X2, X9);
            a.blr(X2);
        },
        [&] {
            // Attack pointer: victim page with a bogus PAC.
            hier.writeVirt64(DataBase,
                             withExt(victim_page, 0x1234));
        },
        {DataBase});
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_FALSE(hier.itlb(0).contains(
        pageNumber(vaPart(victim_page)), mem::Asid::User));
}

TEST_F(SpecTest, CorrectPacIndirectTargetFetchFills)
{
    // The other arm of the oracle: a *correct* PAC lets the wrong-
    // path fetch of the verified target fill the iTLB.
    Core &c = makeCore();
    c.setSysreg(SysReg::APIAKEY_LO, 0x7777);
    const crypto::PacKey key = c.pacKey(crypto::PacKeySelect::IA);

    const Addr stub_a = CodeBase + 8 * PageSize;
    const Addr victim_page = CodeBase + 10 * PageSize;
    Assembler sa(stub_a);
    sa.ret();
    loadProgram(sa.finalize());
    Assembler sv(victim_page);
    sv.ret();
    loadProgram(sv.finalize());

    hier.writeVirt64(DataBase, signPointer(stub_a, CondPage, key));
    const ExitStatus status = runVictim(
        c, true,
        [](Assembler &a) {
            a.mov64(X8, DataBase);
            a.ldr(X2, X8, 0);
            a.autia(X2, X9);
            a.blr(X2);
        },
        [&] {
            hier.writeVirt64(DataBase,
                             signPointer(victim_page, CondPage, key));
        },
        {DataBase});
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_TRUE(hier.itlb(0).contains(
        pageNumber(vaPart(victim_page)), mem::Asid::User));
}

TEST_F(SpecTest, RobLimitBoundsWrongPath)
{
    CoreConfig cfg;
    cfg.robSize = 4;
    Core &c = makeCore(cfg);
    runVictim(c, true, [](Assembler &a) {
        for (int i = 0; i < 64; ++i)
            a.nop();
        a.mov64(X2, ProbePage);
        a.ldr(X3, X2, 0);
    });
    EXPECT_FALSE(probeFilled()); // load was beyond the ROB budget
}

TEST_F(SpecTest, BarrierStopsWrongPath)
{
    Core &c = makeCore();
    runVictim(c, true, [](Assembler &a) {
        a.isb();
        a.mov64(X2, ProbePage);
        a.ldr(X3, X2, 0);
    });
    EXPECT_FALSE(probeFilled());
}

TEST_F(SpecTest, SyscallNotExecutedSpeculatively)
{
    Core &c = makeCore();
    // Minimal kernel so the trained (architectural) runs survive
    // their syscall.
    const Addr kcode = 0xFFFF'8000'0000'0000ull;
    hier.mapRange(kcode, PageSize,
                  mem::PageFlags{.user = false, .writable = false,
                                 .executable = true, .device = false});
    Assembler k(kcode);
    k.eret();
    loadProgram(k.finalize());
    c.setSysreg(SysReg::VBAR_EL1, kcode);

    runVictim(c, true, [](Assembler &a) {
        a.svc(0);
        a.mov64(X2, ProbePage);
        a.ldr(X3, X2, 0);
    });
    // 4 architectural training syscalls; the wrong path's svc and
    // everything after it never execute.
    EXPECT_EQ(c.stats().syscalls, 4u);
    EXPECT_FALSE(probeFilled());
}

TEST_F(SpecTest, MispredictStatsCount)
{
    Core &c = makeCore();
    runVictim(c, true, [](Assembler &a) {
        a.nop();
    });
    EXPECT_GT(c.stats().branches, 0u);
    EXPECT_GT(c.stats().branchMispredicts, 0u);
}

TEST_F(SpecTest, WrongPathMrsDeliversValue)
{
    // A counter read on the wrong path delivers a value, so a load
    // whose address depends on it issues (the value itself is masked
    // to zero).
    Core &c = makeCore();
    const ExitStatus status = runVictim(c, true, [](Assembler &a) {
        a.mrs(X2, SysReg::CNTPCT_EL0);
        a.andi(X2, X2, 0);
        a.mov64(X3, ProbePage);
        a.add(X3, X3, X2);
        a.ldr(X4, X3, 0);
    });
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_TRUE(probeFilled());
}

TEST_F(SpecTest, UndefinedWrongPathMrsPoisonsDestination)
{
    // PMC0 is readable at EL0 while training runs the body for real;
    // once PMCR0 revokes that, the wrong path's read is undefined and
    // leaves no value, so the dependent load never issues.
    Core &c = makeCore();
    c.setSysreg(SysReg::PMCR0, PMCR0_EL0_ACCESS);
    const ExitStatus status = runVictim(
        c, true,
        [](Assembler &a) {
            a.mrs(X2, SysReg::PMC0);
            a.andi(X2, X2, 0);
            a.mov64(X3, ProbePage);
            a.add(X3, X3, X2);
            a.ldr(X4, X3, 0);
        },
        [&] { c.setSysreg(SysReg::PMCR0, 0); });
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_FALSE(probeFilled());
}

TEST_F(SpecTest, FpacWrongPathAutPoisonsOrTransmits)
{
    // Under FPAC a wrong-path aut with a wrong PAC counts a suppressed
    // fault and poisons its result: the transmission load never
    // issues. With the right PAC the load issues and fills the dTLB.
    for (const bool right_pac : {false, true}) {
        CoreConfig cfg;
        cfg.fpac = true;
        Core &c = makeCore(cfg);
        hier.flushAll();
        c.setSysreg(SysReg::APDAKEY_LO, 0x42);
        const crypto::PacKey key = c.pacKey(crypto::PacKeySelect::DA);
        hier.writeVirt64(DataBase,
                         signPointer(DataBase + 0x80, CondPage, key));
        CoreStats trained;
        const ExitStatus status = runVictim(
            c, true,
            [](Assembler &a) {
                a.mov64(X8, DataBase);
                a.ldr(X2, X8, 0);
                a.autda(X2, X9);
                a.ldr(X3, X2, 0);
            },
            [&] {
                hier.writeVirt64(DataBase,
                                 right_pac
                                     ? signPointer(ProbePage, CondPage, key)
                                     : withExt(ProbePage, 0x1111));
                trained = c.stats();
            },
            {DataBase});
        EXPECT_EQ(status.kind, ExitKind::Halted);
        EXPECT_EQ(probeFilled(), right_pac) << "right_pac=" << right_pac;
        EXPECT_EQ(c.stats().specFaultsSuppressed -
                      trained.specFaultsSuppressed,
                  right_pac ? 0u : 1u);
        // The pointer load always issues; the transmission only after
        // a successful aut.
        EXPECT_EQ(c.stats().wrongPathMemOps - trained.wrongPathMemOps,
                  right_pac ? 2u : 1u);
    }
}

TEST_F(SpecTest, WrongPathBtbMissWaitsForTarget)
{
    // With the BTB cleared after training, the wrong path's blr has no
    // prediction: fetch waits for the target register, then fetches
    // the target. When the target's load faulted (poisoned), the wrong
    // path stops there and fetches nothing, not even the stale value
    // the register still holds from training.
    const Addr stub_a = CodeBase + 8 * PageSize;
    const Addr stub_b = CodeBase + 9 * PageSize;
    const Addr slot = DataBase + 0x100;
    for (const bool poisoned : {false, true}) {
        Core &c = makeCore();
        hier.flushAll();
        Assembler sa(stub_a);
        sa.ret();
        loadProgram(sa.finalize());
        Assembler sb(stub_b);
        sb.ret();
        loadProgram(sb.finalize());
        hier.writeVirt64(DataBase, slot);
        hier.writeVirt64(slot, stub_a);
        const ExitStatus status = runVictim(
            c, true,
            [](Assembler &a) {
                a.mov64(X8, DataBase);
                a.ldr(X7, X8, 0);
                a.ldr(X2, X7, 0);
                a.blr(X2);
            },
            [&] {
                c.btb().reset();
                hier.itlb(0).flushAll();
                hier.writeVirt64(slot, stub_b);
                if (poisoned)
                    hier.writeVirt64(DataBase, slot | (0x0003ull << 48));
            },
            {DataBase, slot});
        EXPECT_EQ(status.kind, ExitKind::Halted);
        EXPECT_EQ(hier.itlb(0).contains(pageNumber(vaPart(stub_b)),
                                        mem::Asid::User),
                  !poisoned)
            << "poisoned=" << poisoned;
        EXPECT_FALSE(hier.itlb(0).contains(pageNumber(vaPart(stub_a)),
                                           mem::Asid::User))
            << "poisoned=" << poisoned;
    }
}

TEST_F(SpecTest, PoisonedAuthBranchModifierStopsBtbMissFetch)
{
    // A blraa's target is only as available as its modifier. With the
    // BTB cleared after training, a wrong-path blraa waits for its
    // target and fetches it — unless the modifier's load faulted. The
    // modifier register still holds the right value from training, so
    // only the poison keeps the fetch from happening.
    constexpr uint64_t Mod = 0x77;
    const Addr stub = CodeBase + 8 * PageSize;
    const Addr slot = DataBase + 0x100;
    for (const bool poisoned : {false, true}) {
        Core &c = makeCore();
        hier.flushAll();
        c.setSysreg(SysReg::APIAKEY_LO, 0x7777);
        const crypto::PacKey key = c.pacKey(crypto::PacKeySelect::IA);
        Assembler s(stub);
        s.ret();
        loadProgram(s.finalize());
        hier.writeVirt64(DataBase, signPointer(stub, Mod, key));
        hier.writeVirt64(DataBase + 8, slot);
        hier.writeVirt64(slot, Mod);
        const ExitStatus status = runVictim(
            c, true,
            [](Assembler &a) {
                a.mov64(X8, DataBase);
                a.ldr(X2, X8, 0);
                a.ldr(X7, X8, 8);
                a.ldr(X3, X7, 0); // the modifier
                a.blraa(X2, X3);
            },
            [&] {
                c.btb().reset();
                hier.itlb(0).flushAll();
                if (poisoned)
                    hier.writeVirt64(DataBase + 8,
                                     slot | (0x0003ull << 48));
            },
            {DataBase, slot});
        EXPECT_EQ(status.kind, ExitKind::Halted);
        EXPECT_EQ(hier.itlb(0).contains(pageNumber(vaPart(stub)),
                                        mem::Asid::User),
                  !poisoned)
            << "poisoned=" << poisoned;
    }
}

TEST_F(SpecTest, AuthBranchBtbMissWaitsForItsModifier)
{
    // The committed side of the same readiness: a blraa that misses in
    // the BTB stalls fetch until its authenticated target resolves,
    // so a modifier whose load misses the dTLB delays the branch.
    Core &c = makeCore();
    c.setSysreg(SysReg::APIAKEY_LO, 0x7777);
    const crypto::PacKey key = c.pacKey(crypto::PacKeySelect::IA);
    const Addr stub = CodeBase + 8 * PageSize;
    Assembler s(stub);
    s.ret();
    loadProgram(s.finalize());
    hier.writeVirt64(DataBase, 0x77);
    Assembler a(CodeBase);
    a.mov64(X8, DataBase);
    a.ldr(X3, X8, 0);
    a.mov64(X2, signPointer(stub, 0x77, key));
    a.blraa(X2, X3);
    a.hlt(0);
    loadProgram(a.finalize());

    auto cycles = [&](bool cold_modifier) {
        c.btb().reset();
        if (cold_modifier) {
            hier.dtlb().flushAll();
            hier.l2tlb().flushAll();
        }
        c.setPc(CodeBase);
        const uint64_t before = c.cycle();
        EXPECT_EQ(c.run(100).kind, ExitKind::Halted);
        return c.cycle() - before;
    };
    cycles(false); // warm the code
    const uint64_t warm = cycles(false);
    EXPECT_GT(cycles(true), warm);
}

TEST_F(SpecTest, PacTaintBlocksCorrectPacIndirectTargetFetch)
{
    // CorrectPacIndirectTargetFetchFills under the STT-style taint:
    // the verified target is a PA output, so the wrong path may not
    // redirect fetch to it.
    CoreConfig cfg;
    cfg.pacTaint = true;
    Core &c = makeCore(cfg);
    c.setSysreg(SysReg::APIAKEY_LO, 0x7777);
    const crypto::PacKey key = c.pacKey(crypto::PacKeySelect::IA);

    const Addr stub_a = CodeBase + 8 * PageSize;
    const Addr victim_page = CodeBase + 10 * PageSize;
    Assembler sa(stub_a);
    sa.ret();
    loadProgram(sa.finalize());
    Assembler sv(victim_page);
    sv.ret();
    loadProgram(sv.finalize());

    hier.writeVirt64(DataBase, signPointer(stub_a, CondPage, key));
    const ExitStatus status = runVictim(
        c, true,
        [](Assembler &a) {
            a.mov64(X8, DataBase);
            a.ldr(X2, X8, 0);
            a.autia(X2, X9);
            a.blr(X2);
        },
        [&] {
            hier.writeVirt64(DataBase,
                             signPointer(victim_page, CondPage, key));
        },
        {DataBase});
    EXPECT_EQ(status.kind, ExitKind::Halted);
    EXPECT_FALSE(hier.itlb(0).contains(
        pageNumber(vaPart(victim_page)), mem::Asid::User));
}

} // namespace
} // namespace pacman::cpu
