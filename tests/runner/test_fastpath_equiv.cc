/**
 * @file
 * The fast-path equivalence contract: with CoreConfig::fastPath at
 * FastPath::Full (decode cache + superblock engine, the default
 * build), every observable architectural outcome is bit-identical to
 * FastPath::Reference, the plain interpreter — oracle miss counts,
 * cycle counts, every cache/TLB hit/miss counter, and whole-campaign
 * fingerprints at any job count, with and without injected faults,
 * ambient noise, or context-switch flushes. The fast path is
 * host-side memoization only; if any of these comparisons ever
 * diverges, it leaked into architectural state.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "attack/oracle.hh"
#include "base/stats.hh"
#include "crypto/pac.hh"
#include "kernel/layout.hh"
#include "runner/campaign.hh"
#include "sim/faults.hh"
#include "state_dump.hh"

namespace pacman
{
namespace
{

using namespace pacman::attack;
using namespace pacman::kernel;
using namespace pacman::runner;
using cpu::FastPath;

/** The setting under test, compared against FastPath::Reference. */
constexpr FastPath Fast = FastPath::Full;

/** The default machine with CoreConfig::fastPath set explicitly (a
 *  PACMAN_DISABLE_FASTPATH build only flips the default). */
MachineConfig
fastPathConfig(FastPath fast_path)
{
    MachineConfig cfg = defaultMachineConfig();
    cfg.core.fastPath = fast_path;
    return cfg;
}

/**
 * Full architectural stats dump: every counter the simulation exposes
 * (the fast path's own telemetry, SuperblockStats, is host-side by
 * design and not part of it).
 */
std::string
archDump(Machine &m)
{
    const cpu::CoreStats &cs = m.core().stats();
    std::string s;
    const auto add = [&](const char *name, uint64_t v) {
        s += strprintf("%s=%llu ", name, (unsigned long long)v);
    };
    add("cycles", m.core().cycle());
    add("retired", cs.instsRetired);
    add("branches", cs.branches);
    add("mispredicts", cs.branchMispredicts);
    add("wrongpath", cs.wrongPathInsts);
    add("wrongpath_mem", cs.wrongPathMemOps);
    add("spec_faults", cs.specFaultsSuppressed);
    add("syscalls", cs.syscalls);
    const auto structure = [&](const char *name, uint64_t hits,
                               uint64_t misses) {
        s += strprintf("%s=%llu/%llu ", name, (unsigned long long)hits,
                       (unsigned long long)misses);
    };
    mem::MemoryHierarchy &h = m.mem();
    structure("l1i", h.l1i().hits(), h.l1i().misses());
    structure("l1d", h.l1d().hits(), h.l1d().misses());
    structure("l2", h.l2().hits(), h.l2().misses());
    structure("slc", h.slc().hits(), h.slc().misses());
    structure("itlb0", h.itlb(0).hits(), h.itlb(0).misses());
    structure("itlb1", h.itlb(1).hits(), h.itlb(1).misses());
    structure("dtlb", h.dtlb().hits(), h.dtlb().misses());
    structure("l2tlb", h.l2tlb().hits(), h.l2tlb().misses());
    return s;
}

/** Per-query oracle miss counts for 24 Figure-8 queries on
 *  @p machine, followed by its architectural stats dump. */
std::string
runFig8Subset(Machine &machine, std::vector<unsigned> *counts)
{
    AttackerProcess proc(machine);
    OracleConfig ocfg;
    ocfg.trainIters = 8;
    PacOracle oracle(proc, ocfg);
    oracle.setTarget(BenignDataBase + 37 * isa::PageSize, 0x6D0D);
    for (unsigned g = 0; g < 24; ++g)
        counts->push_back(oracle.probeMisses(uint16_t(g * 2731)));
    return archDump(machine);
}

TEST(FastpathEquiv, Fig8SubsetBitIdentical)
{
    std::vector<unsigned> ref_counts, fast_counts;
    Machine ref(fastPathConfig(FastPath::Reference));
    Machine fast(fastPathConfig(Fast));
    EXPECT_EQ(runFig8Subset(fast, &fast_counts),
              runFig8Subset(ref, &ref_counts));
    EXPECT_EQ(fast_counts, ref_counts);
    // Vacuity guard: Full must actually have run blocks, Reference
    // none.
    EXPECT_GT(fast.core().superblockStats().blockInsts, 0u);
    EXPECT_EQ(ref.core().superblockStats().blockInsts, 0u);
}

TEST(FastpathEquiv, HeavyNoiseDataGadgetBitIdentical)
{
    // The ambient noise model at full strength: every injectNoise
    // opportunity sweeps 64 pages of the noise arena (which spans
    // every dTLB set) between the data gadget's attack steps, so the
    // structures the superblocks' data ops hit are evicted over and
    // over. Both settings see the identical noise stream.
    MachineConfig cfg = defaultMachineConfig();
    cfg.noiseProbability = 1.0;
    cfg.noisePages = 64;
    std::vector<unsigned> ref_counts, fast_counts;
    cfg.core.fastPath = FastPath::Reference;
    Machine ref(cfg);
    const std::string ref_dump = runFig8Subset(ref, &ref_counts);
    cfg.core.fastPath = Fast;
    Machine fast(cfg);
    EXPECT_EQ(runFig8Subset(fast, &fast_counts), ref_dump);
    EXPECT_EQ(fast_counts, ref_counts);
    EXPECT_GT(fast.core().superblockStats().blockInsts, 0u);
}

TEST(FastpathEquiv, ContextSwitchFlushBitIdentical)
{
    // The fault injector's context switch at every opportunity: whole-
    // ASID or per-set dTLB flushes plus pollution between guest calls,
    // from one seeded stream shared by both settings.
    FaultPlan plan;
    plan.contextSwitchRate = 1.0;
    std::vector<unsigned> ref_counts, fast_counts;
    Machine ref(fastPathConfig(FastPath::Reference));
    sim::FaultInjector ref_inj(ref, plan, Random::deriveSeed(99, 1));
    ref_inj.attach();
    const std::string ref_dump = runFig8Subset(ref, &ref_counts);
    Machine fast(fastPathConfig(Fast));
    sim::FaultInjector fast_inj(fast, plan, Random::deriveSeed(99, 1));
    fast_inj.attach();
    EXPECT_EQ(runFig8Subset(fast, &fast_counts), ref_dump);
    EXPECT_EQ(fast_counts, ref_counts);
    // Vacuity guards: the flushes fired, between running blocks.
    EXPECT_GT(fast_inj.stats().contextSwitches, 0u);
    EXPECT_EQ(fast_inj.stats().contextSwitches,
              ref_inj.stats().contextSwitches);
    EXPECT_GT(fast.core().superblockStats().blockInsts, 0u);
}

// --- Full-state equivalence -----------------------------------------
//
// The tests above compare counters, cycles and oracle answers. These
// compare the whole modelled state (tests/state_dump.hh): every
// register and its scoreboard entry, every predictor counter and BTB
// entry, every cache/TLB way with its LRU stamp, and every page's
// write generation — state a fast path could get wrong while every
// counter still agrees.

using testing_support::fullStateDump;
using testing_support::sameState;

/** 24 Figure-8 queries with the paper's 64 training calls each;
 *  @return the per-query miss counts. */
std::vector<unsigned>
runFig8Queries(Machine &machine, GadgetKind kind)
{
    AttackerProcess proc(machine);
    OracleConfig ocfg;
    ocfg.kind = kind;
    ocfg.trainIters = 64;
    PacOracle oracle(proc, ocfg);
    isa::Addr target = kind == GadgetKind::Data
                           ? BenignDataBase + 37 * isa::PageSize
                           : TrampolineBase + 37 * isa::PageSize;
    while (!oracle.isTargetUsable(target))
        target += isa::PageSize;
    oracle.setTarget(target, 0x6D0D);
    std::vector<unsigned> counts;
    for (unsigned g = 0; g < 24; ++g)
        counts.push_back(oracle.probeMisses(uint16_t(g * 2731)));
    return counts;
}

/** Run the Figure-8 queries on a Reference and a Full machine built
 *  from @p cfg and expect identical answers and identical state. */
void
expectFullStateIdentical(MachineConfig cfg, GadgetKind kind,
                         const FaultPlan *plan = nullptr)
{
    cfg.core.fastPath = FastPath::Reference;
    Machine ref(cfg);
    cfg.core.fastPath = Fast;
    Machine fast(cfg);
    std::vector<unsigned> counts[2];
    Machine *machines[2] = {&ref, &fast};
    for (int i = 0; i < 2; ++i) {
        std::unique_ptr<sim::FaultInjector> inj;
        if (plan) {
            inj = std::make_unique<sim::FaultInjector>(
                *machines[i], *plan, Random::deriveSeed(99, 1));
            inj->attach();
        }
        counts[i] = runFig8Queries(*machines[i], kind);
    }
    EXPECT_EQ(counts[1], counts[0]);
    EXPECT_TRUE(sameState(fullStateDump(fast), fullStateDump(ref)));
    EXPECT_GT(fast.core().superblockStats().blockInsts, 0u);
}

TEST(FastpathEquiv, Fig8SubsetFullStateIdentical)
{
    expectFullStateIdentical(defaultMachineConfig(), GadgetKind::Data);
}

TEST(FastpathEquiv, InstructionGadgetFullStateIdentical)
{
    // BLR/RET through the BTB, and kernel iTLB pressure from the
    // trampoline fetches.
    expectFullStateIdentical(defaultMachineConfig(),
                             GadgetKind::Instruction);
}

TEST(FastpathEquiv, HeavyNoiseDataGadgetFullStateIdentical)
{
    MachineConfig cfg = defaultMachineConfig();
    cfg.noiseProbability = 1.0;
    cfg.noisePages = 64;
    expectFullStateIdentical(cfg, GadgetKind::Data);
}

TEST(FastpathEquiv, ContextSwitchFlushFullStateIdentical)
{
    FaultPlan plan;
    plan.contextSwitchRate = 1.0;
    expectFullStateIdentical(defaultMachineConfig(), GadgetKind::Data,
                             &plan);
}

/** Brute-force campaign over a small window with the truth inside. */
BruteForceCampaignConfig
equivCampaign(FastPath fast_path, unsigned jobs, bool faults)
{
    MachineConfig mcfg = fastPathConfig(fast_path);
    mcfg.seed = 42;

    const isa::Addr target = BenignDataBase + 37 * isa::PageSize;
    Machine probe(mcfg);
    uint64_t modifier = 0x100;
    uint16_t truth = 0;
    for (;; ++modifier) {
        truth = probe.kernel().truePac(target, modifier,
                                       crypto::PacKeySelect::DA);
        if (truth >= 48 && truth <= 0xFFF0)
            break;
    }

    BruteForceCampaignConfig cfg;
    cfg.replica.machine = mcfg;
    cfg.replica.target = target;
    cfg.replica.modifier = modifier;
    cfg.replica.samples = 1;
    cfg.first = uint16_t(truth - 23);
    cfg.last = uint16_t(truth + 8);
    cfg.seed = 7;
    cfg.pool.chunkSize = 4;
    cfg.pool.jobs = jobs;
    if (faults) {
        cfg.replica.faults = FaultPlan::scaled(0.2);
        cfg.replica.oracle.autoCalibrate = true;
        cfg.replica.oracle.queryRetries = 2;
        cfg.replica.oracle.busyRetries = 3;
        cfg.replica.maxSamples = cfg.replica.samples + 2;
        cfg.replica.candidateRetries = 1;
    }
    return cfg;
}

TEST(FastpathEquiv, BruteForceFingerprintAcrossJobs)
{
    for (const unsigned jobs : {1u, 4u, 16u}) {
        const std::string ref_fp =
            runBruteForceCampaign(
                equivCampaign(FastPath::Reference, jobs, false))
                .fingerprint();
        const std::string fast_fp =
            runBruteForceCampaign(equivCampaign(Fast, jobs, false))
                .fingerprint();
        EXPECT_EQ(fast_fp, ref_fp) << "jobs " << jobs;
    }
}

TEST(FastpathEquiv, FaultedBruteForceFingerprintAcrossJobs)
{
    // The contract must also hold when the chaos layer is injecting
    // faults and the self-healing machinery is retrying/recalibrating
    // — the paths where divergence would hide best.
    for (const unsigned jobs : {1u, 4u, 16u}) {
        const BruteForceCampaignResult ref_res = runBruteForceCampaign(
            equivCampaign(FastPath::Reference, jobs, true));
        const BruteForceCampaignResult fast_res =
            runBruteForceCampaign(equivCampaign(Fast, jobs, true));
        EXPECT_EQ(fast_res.fingerprint(), ref_res.fingerprint())
            << "jobs " << jobs;
        // Vacuity guard: the plan must have realized faults.
        EXPECT_GT(fast_res.faultStats.total(), 0u);
    }
}

/**
 * An accuracy campaign shaped like the benchmark's noisy one: the
 * instruction gadget (BLR/RET block exits, the iTLB side of the
 * channel), ambient noise 0.5 on 4 pages perturbing the structures
 * between chained guest calls, and a fresh PAC key per trial.
 */
AccuracyCampaignConfig
equivInstCampaign(FastPath fast_path, unsigned jobs)
{
    AccuracyCampaignConfig cfg;
    ReplicaConfig &r = cfg.replica;
    r.machine = fastPathConfig(fast_path);
    r.machine.seed = 42;
    r.machine.noiseProbability = 0.5;
    r.machine.noisePages = 4;
    r.oracle.kind = GadgetKind::Instruction;
    r.oracle.trainIters = 64;
    r.samples = 3;
    r.maxSamples = r.samples + 2;
    r.candidateRetries = 1;
    r.modifier = 0x9999;

    Machine probe(r.machine);
    AttackerProcess proc(probe);
    PacOracle oracle(proc, r.oracle);
    r.target = TrampolineBase + 37 * isa::PageSize;
    while (!oracle.isTargetUsable(r.target))
        r.target += isa::PageSize;

    cfg.trials = 4;
    cfg.window = 16;
    cfg.seed = 1000;
    cfg.pool.chunkSize = 1;
    cfg.pool.jobs = jobs;
    return cfg;
}

TEST(FastpathEquiv, NoisyInstructionAccuracyFingerprintAcrossJobs)
{
    for (const unsigned jobs : {1u, 4u, 16u}) {
        const AccuracyCampaignResult ref_res = runAccuracyCampaign(
            equivInstCampaign(FastPath::Reference, jobs));
        const AccuracyCampaignResult fast_res =
            runAccuracyCampaign(equivInstCampaign(Fast, jobs));
        EXPECT_EQ(fast_res.fingerprint(), ref_res.fingerprint())
            << "jobs " << jobs;
        // Vacuity guard: the campaign must have found its truths.
        EXPECT_GT(ref_res.truePositives, 0u);
    }
}

} // namespace
} // namespace pacman
