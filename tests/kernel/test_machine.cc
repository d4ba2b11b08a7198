#include <gtest/gtest.h>

#include "attack/runtime.hh"
#include "kernel/layout.hh"
#include "kernel/machine.hh"
#include "state_dump.hh"

namespace pacman::kernel
{
namespace
{

TEST(Machine, BootsAndRunsTrivialGuest)
{
    Machine machine;
    attack::AttackerProcess proc(machine);
    EXPECT_GT(proc.readCntpct() + 1, 0u);
}

TEST(Machine, DeterministicAcrossSameSeed)
{
    MachineConfig cfg = defaultMachineConfig();
    cfg.seed = 77;
    Machine m1(cfg), m2(cfg);
    EXPECT_EQ(m1.kernel().key(crypto::PacKeySelect::IA),
              m2.kernel().key(crypto::PacKeySelect::IA));
    attack::AttackerProcess p1(m1), p2(m2);
    EXPECT_EQ(p1.syscall(SYS_GET_LEGIT_DATA),
              p2.syscall(SYS_GET_LEGIT_DATA));
}

TEST(Machine, TimerDeviceReadableFromEl0)
{
    Machine machine;
    attack::AttackerProcess proc(machine);
    const uint64_t t1 = proc.timedLoad(proc.scratchPage(9));
    EXPECT_GT(t1, 0u);
}

TEST(Machine, TimerPageDoesNotOccupyTlb)
{
    Machine machine;
    attack::AttackerProcess proc(machine);
    proc.timedLoad(proc.scratchPage(9));
    const uint64_t timer_vpn =
        isa::pageNumber(isa::vaPart(TimerPage));
    EXPECT_FALSE(machine.mem().dtlb().contains(timer_vpn,
                                               mem::Asid::User));
}

TEST(Machine, CallReturnsX0)
{
    Machine machine;
    attack::AttackerProcess proc(machine);
    // SYS_GET_LEGIT_DATA returns a signed pointer in x0.
    const uint64_t v = proc.syscall(SYS_GET_LEGIT_DATA);
    EXPECT_EQ(isa::stripPac(v), machine.kernel().benignData());
}

TEST(Machine, NoiseDisabledByDefault)
{
    Machine machine;
    const uint64_t misses = machine.mem().dtlb().misses();
    for (int i = 0; i < 100; ++i)
        machine.injectNoise();
    EXPECT_EQ(machine.mem().dtlb().misses(), misses);
}

TEST(Machine, NoisePerturbsTlbWhenEnabled)
{
    MachineConfig cfg = defaultMachineConfig();
    cfg.noiseProbability = 1.0;
    cfg.noisePages = 8;
    Machine machine(cfg);
    const uint64_t accesses = machine.mem().dtlb().misses() +
                              machine.mem().dtlb().hits();
    for (int i = 0; i < 10; ++i)
        machine.injectNoise();
    EXPECT_GT(machine.mem().dtlb().misses() + machine.mem().dtlb().hits(),
              accesses);
}

TEST(Machine, NoiseTouchesExactlyConfiguredPageCount)
{
    // Regression: the old model drew noise pages *with* replacement,
    // so the touched-set size silently undershot noisePages. Every
    // noise access is one dTLB lookup (kernel-side loads share the
    // dTLB; the extra kernel fetches go to the EL1 iTLB).
    MachineConfig cfg = defaultMachineConfig();
    cfg.noiseProbability = 1.0;
    cfg.noisePages = 7;
    Machine machine(cfg);
    auto &dtlb = machine.mem().dtlb();
    for (int i = 0; i < 20; ++i) {
        const uint64_t before = dtlb.hits() + dtlb.misses();
        machine.injectNoise();
        EXPECT_EQ(dtlb.hits() + dtlb.misses() - before, 7u)
            << "call " << i;
    }
}

TEST(Machine, NoisePageCountClampedTo256)
{
    MachineConfig cfg = defaultMachineConfig();
    cfg.noiseProbability = 1.0;
    cfg.noisePages = 100000;
    Machine machine(cfg);
    auto &dtlb = machine.mem().dtlb();
    const uint64_t before = dtlb.hits() + dtlb.misses();
    machine.injectNoise();
    EXPECT_EQ(dtlb.hits() + dtlb.misses() - before, 256u);
}

TEST(Machine, KernelSideNoisePerturbsEl1Itlb)
{
    MachineConfig cfg = defaultMachineConfig();
    cfg.noiseProbability = 1.0;
    cfg.noisePages = 64;
    Machine machine(cfg);
    auto &itlb1 = machine.mem().itlb(1);
    const uint64_t before = itlb1.hits() + itlb1.misses();
    for (int i = 0; i < 10; ++i)
        machine.injectNoise();
    // Interrupt handlers / kext code fetch at EL1: the iTLB the
    // instruction-gadget oracle primes must see pressure too.
    EXPECT_GT(itlb1.hits() + itlb1.misses(), before);
}

TEST(Machine, NoiseDeterministicAcrossSameSeedMachines)
{
    MachineConfig cfg = defaultMachineConfig();
    cfg.seed = 1234;
    cfg.noiseProbability = 0.7;
    cfg.noisePages = 12;
    Machine a(cfg), b(cfg);
    for (int i = 0; i < 50; ++i) {
        a.injectNoise();
        b.injectNoise();
    }
    EXPECT_EQ(a.mem().dtlb().hits(), b.mem().dtlb().hits());
    EXPECT_EQ(a.mem().dtlb().misses(), b.mem().dtlb().misses());
    EXPECT_EQ(a.mem().itlb(1).misses(), b.mem().itlb(1).misses());
}

TEST(Machine, NoiseDrawsDecoupledFromMainRngStream)
{
    // Regression: noise used to draw from the machine's main RNG, so
    // enabling it shifted every subsequent jitter/replacement draw.
    // Now it forks a dedicated stream at boot/reseed: the main RNG
    // sequence must be identical whether or not noise ever fired.
    MachineConfig quiet_cfg = defaultMachineConfig();
    quiet_cfg.seed = 99;
    MachineConfig noisy_cfg = quiet_cfg;
    noisy_cfg.noiseProbability = 1.0;
    noisy_cfg.noisePages = 16;

    Machine quiet(quiet_cfg), noisy(noisy_cfg);
    for (int i = 0; i < 25; ++i)
        noisy.injectNoise();
    EXPECT_EQ(quiet.rng().next(1u << 30), noisy.rng().next(1u << 30));

    // And the same holds after a mid-run reseed (campaign path).
    quiet.reseedRng(4242);
    noisy.reseedRng(4242);
    for (int i = 0; i < 25; ++i)
        noisy.injectNoise();
    EXPECT_EQ(quiet.rng().next(1u << 30), noisy.rng().next(1u << 30));
}

TEST(Machine, MigrateCoreSwapsAndRestoresLatency)
{
    Machine machine;
    const auto pcore = machine.mem().config().lat;
    const uint64_t rate = machine.timer().ratePer1k();

    machine.migrateCore(true);
    EXPECT_TRUE(machine.onECore());
    EXPECT_GT(machine.mem().config().lat.l1Hit, pcore.l1Hit);
    EXPECT_GT(machine.mem().config().lat.dram, pcore.dram);
    EXPECT_GT(machine.timer().ratePer1k(), rate);

    machine.migrateCore(true); // idempotent
    EXPECT_TRUE(machine.onECore());

    machine.migrateCore(false);
    EXPECT_FALSE(machine.onECore());
    EXPECT_EQ(machine.mem().config().lat.l1Hit, pcore.l1Hit);
    EXPECT_EQ(machine.timer().ratePer1k(), rate);
}

TEST(Machine, RunGuestReportsCrashes)
{
    Machine machine;
    attack::AttackerProcess proc(machine);
    // Jump to an unmapped user address.
    const auto status = machine.runGuest(0x0000'7ABC'0000ull, {});
    EXPECT_EQ(status.kind, cpu::ExitKind::CrashEl0);
}

TEST(Machine, StatsReportReflectsActivity)
{
    Machine machine;
    attack::AttackerProcess proc(machine);
    for (int i = 0; i < 5; ++i)
        proc.syscall(SYS_NOP);
    const std::string report = machine.statsReport();
    EXPECT_NE(report.find("instructions retired"), std::string::npos);
    EXPECT_NE(report.find("syscalls"), std::string::npos);
    EXPECT_NE(report.find("dTLB"), std::string::npos);
    // 5 syscalls recorded.
    EXPECT_NE(report.find("5"), std::string::npos);
}

TEST(Machine, StatsReportListsEveryCacheAndTlb)
{
    Machine machine;
    const std::string report = machine.statsReport();
    for (const char *name : {"L1I", "L1D", "L2", "SLC", "iTLB (EL0)",
                             "iTLB (EL1)", "dTLB", "L2 TLB"})
        EXPECT_NE(report.find("\n" + std::string(name) + "  "),
                  std::string::npos)
            << name;
}

TEST(Machine, StateDumpShowsTheTimerStallFlag)
{
    // Two machines that differ only in the timer's stalled flag.
    Machine a, b;
    using testing_support::fullStateDump;
    using testing_support::sameState;
    ASSERT_TRUE(sameState(fullStateDump(a), fullStateDump(b)));
    cpu::ThreadTimerDevice::Snapshot t = b.timer().takeSnapshot();
    t.stalled = !t.stalled;
    b.timer().restore(t);
    EXPECT_FALSE(sameState(fullStateDump(a), fullStateDump(b)));
}

TEST(Machine, GuestStatePersistsAcrossCalls)
{
    Machine machine;
    attack::AttackerProcess proc(machine);
    machine.mem().writeVirt64(proc.scratchPage(3), 0x77);
    proc.timedLoad(proc.scratchPage(3));
    // The scratch page's translation is now cached.
    EXPECT_TRUE(machine.mem().dtlb().contains(
        isa::pageNumber(isa::vaPart(proc.scratchPage(3))),
        mem::Asid::User));
}

} // namespace
} // namespace pacman::kernel
