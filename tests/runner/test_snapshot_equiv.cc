/**
 * @file
 * The snapshot-restore equivalence contract (DESIGN.md §4f): a
 * checkpointed replica restored per work item produces bit-identical
 * results to a replica freshly provisioned per work item — machine
 * dumps, oracle miss counts, and whole-campaign fingerprints at any
 * job count, with and without injected faults, under both
 * CoreConfig::fastPath settings. Provisioning is deterministic in the
 * boot seed, so the restored state IS the state a fresh construction
 * reaches; any divergence means some state escaped the snapshot.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attack/oracle.hh"
#include "base/stats.hh"
#include "cpu/config.hh"
#include "crypto/pac.hh"
#include "isa/pointer.hh"
#include "kernel/layout.hh"
#include "runner/campaign.hh"
#include "sim/snapshot.hh"
#include "state_dump.hh"

namespace pacman
{
namespace
{

using namespace pacman::attack;
using namespace pacman::kernel;
using namespace pacman::runner;
using cpu::FastPath;

/** Both execution strategies: each must honour the contract. */
constexpr FastPath FastPaths[] = {FastPath::Reference, FastPath::Full};

/** Full architectural stats dump (mirrors test_fastpath_equiv.cc). */
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

/** One provisioned attack stack for the machine-level tests. */
struct Stack
{
    explicit Stack(const MachineConfig &cfg = defaultMachineConfig())
        : machine(cfg), proc(machine),
          oracle(proc, OracleConfig{})
    {
        oracle.setTarget(BenignDataBase + 37 * isa::PageSize, 0x6D0D);
    }

    std::string
    runQueries(std::vector<unsigned> *counts)
    {
        for (unsigned g = 0; g < 16; ++g)
            counts->push_back(oracle.probeMisses(uint16_t(g * 2731)));
        return archDump(machine);
    }

    Machine machine;
    AttackerProcess proc;
    PacOracle oracle;
};

TEST(Snapshot, MachineRestoreReplaysBitIdentically)
{
    Stack stack;
    sim::ReplicaCheckpoint ckpt(stack.machine, stack.oracle);

    std::vector<unsigned> first_counts, replay_counts;
    const std::string first_dump = stack.runQueries(&first_counts);

    ckpt.restore();
    const std::string replay_dump = stack.runQueries(&replay_counts);

    EXPECT_EQ(first_counts, replay_counts);
    EXPECT_EQ(first_dump, replay_dump);
    EXPECT_EQ(ckpt.stats().restores, 1u);
    // Vacuity guard: the run must actually have dirtied pages, so the
    // restore had real rewinding to do.
    EXPECT_GT(ckpt.stats().pagesCopied, 0u);
}

TEST(SnapshotEquiv, RestoreFullStateIdentical)
{
    // A restore must rewind the whole modelled state, not just the
    // counters: every LRU stamp, scoreboard entry and predictor
    // counter. The dumps bracket the snapshot and the restore (never
    // between them: a dump re-arms the dirty-way journals, which would
    // hide a way dirtied without its journal entry). After the
    // restore both settings run on and must still dump identically.
    using testing_support::fullStateDump;
    using testing_support::sameState;
    std::string after[2];
    for (const FastPath fp : FastPaths) {
        MachineConfig cfg = defaultMachineConfig();
        cfg.core.fastPath = fp;
        Stack stack(cfg);
        std::vector<unsigned> counts;
        stack.runQueries(&counts); // warm every structure and memo
        const std::string before = fullStateDump(stack.machine);
        const Machine::Snapshot snap = stack.machine.takeSnapshot();
        stack.runQueries(&counts);
        stack.machine.restore(snap);
        EXPECT_TRUE(sameState(fullStateDump(stack.machine), before))
            << "fastPath " << int(fp);
        stack.runQueries(&counts);
        after[int(fp)] = fullStateDump(stack.machine);
    }
    EXPECT_TRUE(sameState(after[int(FastPath::Full)],
                          after[int(FastPath::Reference)]));
}

TEST(Snapshot, SuperblockCacheSurvivesRestore)
{
    // The decode and superblock caches deliberately outlive
    // Machine::restore(): blocks built before the capture must
    // re-validate afterwards (restore rewinds a dirtied page to the
    // captured generation label together with the captured bytes, so
    // a label match still implies identical bytes), and the replay
    // must be bit-identical. A full rebuild per restore is the
    // regression this test exists to catch — it would put the
    // restore-per-item campaign path back to rebuilding every cached
    // block per work item.
    MachineConfig cfg = defaultMachineConfig();
    cfg.core.fastPath = FastPath::Full;
    Stack stack(cfg);
    std::vector<unsigned> warm_counts;
    stack.runQueries(&warm_counts); // build the hot blocks pre-capture
    sim::ReplicaCheckpoint ckpt(stack.machine, stack.oracle);

    const cpu::SuperblockStats &sb =
        stack.machine.core().superblockStats();
    ASSERT_GT(sb.blocksBuilt, 0u);
    const uint64_t warm_built = sb.blocksBuilt;

    std::vector<unsigned> first_counts, replay_counts;
    stack.runQueries(&first_counts);
    ckpt.restore();
    const uint64_t built_at_restore = sb.blocksBuilt;
    stack.runQueries(&replay_counts);

    EXPECT_EQ(first_counts, replay_counts);
    // The replay may discover a stray block or two, but must be
    // served overwhelmingly from the pre-capture cache.
    EXPECT_LE(sb.blocksBuilt - built_at_restore, warm_built / 10);
}

TEST(Snapshot, RestoreIsCopyOnWrite)
{
    Stack stack;
    sim::ReplicaCheckpoint ckpt(stack.machine, stack.oracle);

    std::vector<unsigned> counts;
    stack.runQueries(&counts);
    ckpt.restore();
    const uint64_t copied_after_work = ckpt.stats().pagesCopied;
    EXPECT_GT(copied_after_work, 0u);
    // The queries touch a handful of pages out of the whole captured
    // footprint; COW must copy only those.
    EXPECT_LT(copied_after_work, ckpt.stats().pagesCaptured);

    // A restore with no intervening writes finds every generation
    // unchanged and copies nothing.
    ckpt.restore();
    EXPECT_EQ(ckpt.stats().pagesCopied, copied_after_work);
}

TEST(Snapshot, RekeyIsDeterministicAndRotatesKeys)
{
    const isa::Addr target = BenignDataBase + 37 * isa::PageSize;
    Machine a(defaultMachineConfig());
    Machine b(defaultMachineConfig());

    const uint16_t boot_pac =
        a.kernel().truePac(target, 0x77, crypto::PacKeySelect::DA);

    a.rekey(123);
    b.rekey(123);
    const uint16_t a_pac =
        a.kernel().truePac(target, 0x77, crypto::PacKeySelect::DA);
    EXPECT_EQ(a_pac,
              b.kernel().truePac(target, 0x77, crypto::PacKeySelect::DA));

    // The jump2win signed pointers must be re-signed under the new
    // keys: authenticate the stored vtable pointer with the live key.
    const uint64_t vtab_signed = a.mem().readVirt64(a.kernel().object2());
    EXPECT_EQ(isa::stripPac(vtab_signed), a.kernel().vtable());
    EXPECT_EQ(vtab_signed,
              isa::signPointer(a.kernel().vtable(), a.kernel().object2(),
                               a.kernel().key(crypto::PacKeySelect::DA)));

    // Distinct seeds draw distinct keys (16-bit PACs can collide, so
    // compare the key register directly).
    const uint64_t key_123 =
        a.kernel().key(crypto::PacKeySelect::DA).k0;
    a.rekey(456);
    EXPECT_NE(key_123, a.kernel().key(crypto::PacKeySelect::DA).k0);
    (void)boot_pac;
}

/** Brute-force campaign (mirrors test_fastpath_equiv's window). */
BruteForceCampaignConfig
equivCampaign(FastPath fast_path, bool snapshot, unsigned jobs,
              bool faults)
{
    MachineConfig mcfg = defaultMachineConfig();
    mcfg.core.fastPath = fast_path;
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
    cfg.replica.snapshot = snapshot;
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

AccuracyCampaignConfig
accuracyCampaign(FastPath fast_path, bool snapshot, unsigned jobs,
                 bool faults)
{
    AccuracyCampaignConfig cfg;
    cfg.replica.machine = defaultMachineConfig();
    cfg.replica.machine.core.fastPath = fast_path;
    cfg.replica.target = BenignDataBase + 37 * isa::PageSize;
    cfg.replica.modifier = 0x9999;
    cfg.replica.samples = 1;
    cfg.replica.snapshot = snapshot;
    cfg.trials = 3;
    cfg.window = 24;
    cfg.seed = 1000;
    cfg.pool.chunkSize = 1;
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

TEST(SnapshotEquiv, BruteForceFingerprintAcrossJobs)
{
    for (const FastPath fp : FastPaths) {
        for (const unsigned jobs : {1u, 4u, 16u}) {
            const std::string snap_fp =
                runBruteForceCampaign(equivCampaign(fp, true, jobs, false))
                    .fingerprint();
            const std::string fresh_fp =
                runBruteForceCampaign(
                    equivCampaign(fp, false, jobs, false))
                    .fingerprint();
            EXPECT_EQ(snap_fp, fresh_fp)
                << "fastPath " << int(fp) << " jobs " << jobs;
        }
    }
}

TEST(SnapshotEquiv, FaultedBruteForceFingerprintAcrossJobs)
{
    // The contract must hold while the chaos layer fires and the
    // self-healing machinery retries/recalibrates — restores then
    // rewind mid-recovery state, where leaks would hide best.
    for (const FastPath fp : FastPaths) {
        for (const unsigned jobs : {1u, 4u, 16u}) {
            const BruteForceCampaignResult snap_res =
                runBruteForceCampaign(equivCampaign(fp, true, jobs, true));
            const BruteForceCampaignResult fresh_res =
                runBruteForceCampaign(
                    equivCampaign(fp, false, jobs, true));
            EXPECT_EQ(snap_res.fingerprint(), fresh_res.fingerprint())
                << "fastPath " << int(fp) << " jobs " << jobs;
            // Vacuity guard: the plan must have realized faults.
            EXPECT_GT(snap_res.faultStats.total(), 0u);
        }
    }
}

TEST(SnapshotEquiv, AccuracyFingerprintAcrossJobs)
{
    for (const FastPath fp : FastPaths) {
        for (const unsigned jobs : {1u, 4u, 16u}) {
            const AccuracyCampaignResult snap_res = runAccuracyCampaign(
                accuracyCampaign(fp, true, jobs, false));
            const AccuracyCampaignResult fresh_res = runAccuracyCampaign(
                accuracyCampaign(fp, false, jobs, false));
            EXPECT_EQ(snap_res.fingerprint(), fresh_res.fingerprint())
                << "fastPath " << int(fp) << " jobs " << jobs;
            EXPECT_EQ(snap_res.truePositives + snap_res.falsePositives +
                          snap_res.falseNegatives,
                      3u);
        }
    }
}

TEST(SnapshotEquiv, FaultedAccuracyFingerprintAcrossJobs)
{
    for (const FastPath fp : FastPaths) {
        for (const unsigned jobs : {1u, 4u, 16u}) {
            const AccuracyCampaignResult snap_res = runAccuracyCampaign(
                accuracyCampaign(fp, true, jobs, true));
            const AccuracyCampaignResult fresh_res = runAccuracyCampaign(
                accuracyCampaign(fp, false, jobs, true));
            EXPECT_EQ(snap_res.fingerprint(), fresh_res.fingerprint())
                << "fastPath " << int(fp) << " jobs " << jobs;
            EXPECT_GT(snap_res.faultStats.total(), 0u);
        }
    }
}

} // namespace
} // namespace pacman
