/**
 * @file
 * The fast-path equivalence contract: with the decode cache, the
 * PhysMem frame table, the PAC memo, the superblock engine, and the
 * timing-trace memoization enabled (the default build), every
 * observable architectural outcome is bit-identical to the slow
 * reference paths — oracle miss counts, cycle counts, every cache/TLB
 * hit/miss counter, and whole-campaign fingerprints at any job count,
 * with and without injected faults. The fast paths are host-side
 * memoization only; if any of these comparisons ever diverges, one of
 * them leaked into architectural state.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attack/oracle.hh"
#include "base/stats.hh"
#include "crypto/pac.hh"
#include "kernel/layout.hh"
#include "runner/campaign.hh"

namespace pacman
{
namespace
{

using namespace pacman::attack;
using namespace pacman::kernel;
using namespace pacman::runner;

/**
 * The four equivalence rungs: 0 = slow reference (plain interpreter,
 * sparse PhysMem), 1 = decode cache + frame table, 2 = those plus the
 * superblock engine with timing traces off, 3 = the full default
 * build (superblocks + timing-trace memoization, DESIGN.md §4k).
 * Every rung must be bit-identical to every other.
 */
MachineConfig
fastSlowConfig(int level)
{
    MachineConfig cfg = defaultMachineConfig();
    cfg.core.decodeCache = level >= 1;
    cfg.hier.fastMem = level >= 1;
    cfg.core.superblocks = level >= 2;
    cfg.core.timingTraces = level >= 3;
    return cfg;
}

/** RAII toggle for the thread-local PAC memo. */
struct PacMemoScope
{
    explicit PacMemoScope(bool on) : prev(crypto::pacMemoEnabled())
    {
        crypto::setPacMemoEnabled(on);
    }
    ~PacMemoScope() { crypto::setPacMemoEnabled(prev); }
    bool prev;
};

/**
 * Full architectural stats dump: every counter the simulation exposes
 * except the decode-cache hit/miss counters, which are host-side by
 * design (they count memo effectiveness, not guest behavior).
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

/** A Figure-8 subset: 24 oracle queries, returning per-query miss
 *  counts and the final architectural stats dump. */
std::string
runFig8Subset(int level, std::vector<unsigned> *counts)
{
    const PacMemoScope memo(level >= 1);
    Machine machine(fastSlowConfig(level));
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
    std::vector<unsigned> slow_counts;
    const std::string slow_dump = runFig8Subset(0, &slow_counts);
    for (const int level : {1, 2, 3}) {
        std::vector<unsigned> fast_counts;
        const std::string fast_dump =
            runFig8Subset(level, &fast_counts);
        EXPECT_EQ(fast_counts, slow_counts) << "level " << level;
        EXPECT_EQ(fast_dump, slow_dump) << "level " << level;
    }
}

/** Brute-force campaign over a small window with the truth inside. */
BruteForceCampaignConfig
equivCampaign(int level, unsigned jobs, bool faults)
{
    MachineConfig mcfg = fastSlowConfig(level);
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
        const std::string slow_fp =
            runBruteForceCampaign(equivCampaign(0, jobs, false))
                .fingerprint();
        for (const int level : {1, 2, 3}) {
            const std::string fast_fp =
                runBruteForceCampaign(equivCampaign(level, jobs, false))
                    .fingerprint();
            EXPECT_EQ(fast_fp, slow_fp)
                << "jobs " << jobs << " level " << level;
        }
    }
}

TEST(FastpathEquiv, FaultedBruteForceFingerprintAcrossJobs)
{
    // The contract must also hold when the chaos layer is injecting
    // faults and the self-healing machinery is retrying/recalibrating
    // — the paths where divergence would hide best.
    for (const unsigned jobs : {1u, 4u, 16u}) {
        const BruteForceCampaignResult slow_res =
            runBruteForceCampaign(equivCampaign(0, jobs, true));
        for (const int level : {1, 2, 3}) {
            const BruteForceCampaignResult fast_res =
                runBruteForceCampaign(equivCampaign(level, jobs, true));
            EXPECT_EQ(fast_res.fingerprint(), slow_res.fingerprint())
                << "jobs " << jobs << " level " << level;
            // Vacuity guard: the plan must have realized faults.
            EXPECT_GT(fast_res.faultStats.total(), 0u);
        }
    }
}

/**
 * An accuracy campaign shaped like the benchmark's noisy one: the
 * instruction gadget (BLR/RET block exits, the iTLB side of the
 * channel), ambient noise 0.5 on 4 pages perturbing the structures
 * between chained guest calls, and a fresh PAC key per trial.
 */
AccuracyCampaignConfig
equivInstCampaign(int level, unsigned jobs)
{
    AccuracyCampaignConfig cfg;
    ReplicaConfig &r = cfg.replica;
    r.machine = fastSlowConfig(level);
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
    for (const unsigned jobs : {1u, 4u}) {
        const AccuracyCampaignResult slow_res =
            runAccuracyCampaign(equivInstCampaign(0, jobs));
        for (const int level : {1, 2, 3}) {
            const AccuracyCampaignResult fast_res =
                runAccuracyCampaign(equivInstCampaign(level, jobs));
            EXPECT_EQ(fast_res.fingerprint(), slow_res.fingerprint())
                << "jobs " << jobs << " level " << level;
        }
        // Vacuity guard: the campaign must have found its truths.
        EXPECT_GT(slow_res.truePositives, 0u);
    }
}

} // namespace
} // namespace pacman
