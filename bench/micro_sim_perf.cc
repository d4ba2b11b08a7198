/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own building
 * blocks: QARMA throughput, hierarchy access cost, guest instruction
 * rate, and oracle query cost. These gauge how long the paper-scale
 * experiments (20000 Figure 8 trials, full 16-bit sweeps) take.
 *
 * The end-to-end benchmarks double as the perf-regression harness's
 * data source: tools/perf_smoke.py runs this binary with
 * --benchmark_format=json and distils the result into BENCH_PR13.json
 * (guest MIPS, oracle queries/sec, Figure-8-subset wall clock), which
 * tools/perf_compare.py diffs across commits.
 *
 * The Figure-8 training-loop benchmark is registered once per
 * cpu::FastPath value: arg 1 is FastPath::Full (decode cache +
 * superblocks, the shipped default) and arg 0 FastPath::Reference
 * (the plain interpreter, as in a PACMAN_DISABLE_FASTPATH build), so
 * the fast path's end-to-end speedup is measurable from one binary.
 * Both run a pinned iteration count so the speedup ratio compares
 * identical workloads (time-budgeted runs gave the slow path far
 * fewer iterations, letting per-run fixed costs skew the ratio).
 */

#include <benchmark/benchmark.h>

#include "attack/oracle.hh"
#include "base/random.hh"
#include "crypto/pac.hh"
#include "crypto/qarma64.hh"
#include "kernel/layout.hh"
#include "runner/campaign.hh"
#include "sim/snapshot.hh"

using namespace pacman;
using namespace pacman::kernel;

namespace
{

/** The default machine with CoreConfig::fastPath set to @p fast_path. */
MachineConfig
machineConfig(cpu::FastPath fast_path)
{
    MachineConfig cfg = defaultMachineConfig();
    cfg.core.fastPath = fast_path;
    return cfg;
}

/** Paper-faithful Figure-8 oracle (Section 8.1: 64 training iters). */
attack::OracleConfig
fig8OracleConfig()
{
    attack::OracleConfig cfg;
    cfg.trainIters = 64;
    return cfg;
}

void
BM_QarmaEncrypt(benchmark::State &state)
{
    const crypto::Qarma64 cipher(0x84be85ce9804e94bull,
                                 0xec2802d4e0a488e9ull, 7);
    uint64_t x = 0xfb623599da6e8127ull;
    for (auto _ : state) {
        x = cipher.encrypt(x, 0x477d469dec0b8762ull);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_QarmaEncrypt);

void
BM_HierarchyLoad(benchmark::State &state)
{
    Random rng(1);
    mem::MemoryHierarchy hier(mem::m1PCoreConfig(), &rng);
    hier.mapRange(0x4000'0000, 64 * isa::PageSize,
                  mem::PageFlags{.user = true, .writable = true,
                                 .executable = false, .device = false});
    uint64_t i = 0;
    for (auto _ : state) {
        const auto res = hier.access(
            mem::AccessKind::Load,
            0x4000'0000 + (i++ % 64) * isa::PageSize, 0, false);
        benchmark::DoNotOptimize(res.latency);
    }
}
BENCHMARK(BM_HierarchyLoad);

void
BM_GuestSyscall(benchmark::State &state)
{
    Machine machine;
    attack::AttackerProcess proc(machine);
    for (auto _ : state)
        benchmark::DoNotOptimize(proc.syscall(SYS_NOP));
    state.counters["guest_insts"] = benchmark::Counter(
        double(machine.core().stats().instsRetired),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GuestSyscall);

void
BM_OracleQuery(benchmark::State &state)
{
    Machine machine;
    attack::AttackerProcess proc(machine);
    attack::PacOracle oracle(proc, attack::OracleConfig{});
    oracle.setTarget(BenignDataBase + 37 * isa::PageSize, 0x42);
    uint16_t guess = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(oracle.probeMisses(guess++));
    state.counters["queries_per_sec"] = benchmark::Counter(
        double(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OracleQuery);

/**
 * The Figure-8 training-loop workload with the paper's 64 training
 * iterations per query — the loop shape every paper-scale campaign
 * spends its time in. One iteration = one full oracle query.
 * Arg: the cpu::FastPath value; 1 (Full) is the shipped default.
 *
 * The iteration count is pinned (not time-budgeted) so both settings
 * measure the exact same query sequence and the speedup ratio
 * divides like for like.
 */
void
BM_Fig8TrainingLoop(benchmark::State &state)
{
    Machine machine(machineConfig(cpu::FastPath(state.range(0))));
    attack::AttackerProcess proc(machine);
    attack::PacOracle oracle(proc, fig8OracleConfig());
    oracle.setTarget(BenignDataBase + 37 * isa::PageSize, 0x6D0D);

    // Warm up (first query pays all compulsory misses), then exclude
    // it from the instruction-rate accounting via the resettable
    // stats the benches exist to exercise. The fast-path counters
    // (decode cache and superblocks) are monotonic (never reset,
    // never restored), so the measured region is taken as a delta
    // instead.
    benchmark::DoNotOptimize(oracle.probeMisses(0));
    machine.core().resetStats();
    const cpu::SuperblockStats sb0 = machine.core().superblockStats();

    uint16_t guess = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(oracle.probeMisses(guess++));

    const cpu::CoreStats &cs = machine.core().stats();
    const cpu::SuperblockStats &sb1 = machine.core().superblockStats();
    state.counters["guest_insts"] = benchmark::Counter(
        double(cs.instsRetired), benchmark::Counter::kIsRate);
    state.counters["queries_per_sec"] = benchmark::Counter(
        double(state.iterations()), benchmark::Counter::kIsRate);
    const uint64_t decode_hits = sb1.decodeHits - sb0.decodeHits;
    const double decode_total =
        double(decode_hits + (sb1.decodeMisses - sb0.decodeMisses));
    state.counters["decode_hit_rate"] =
        decode_total > 0.0 ? double(decode_hits) / decode_total : 0.0;
    // Superblock engine telemetry (all zero under Reference): the rate
    // of instructions retired via threaded dispatch, the dispatch hit
    // rate (cached-block entries over all block entries), and the
    // stale-generation/epoch invalidation count in the measured
    // region.
    state.counters["sb_insts"] = benchmark::Counter(
        double(sb1.blockInsts - sb0.blockInsts),
        benchmark::Counter::kIsRate);
    const double sb_entries =
        double((sb1.blockHits - sb0.blockHits) +
               (sb1.blocksBuilt - sb0.blocksBuilt));
    state.counters["sb_hit_rate"] =
        sb_entries > 0.0
            ? double(sb1.blockHits - sb0.blockHits) / sb_entries
            : 0.0;
    state.counters["sb_invalidations"] =
        double(sb1.invalidations - sb0.invalidations);
    // Block entries that skipped the interpreter's fetch: chained
    // straight from the previous block (user stub -> SVC -> handler
    // -> ERET -> caller), per oracle query.
    state.counters["sb_chained_per_query"] =
        double(sb1.chainedDispatches - sb0.chainedDispatches) /
        double(state.iterations());
}
BENCHMARK(BM_Fig8TrainingLoop)
    ->Arg(int(cpu::FastPath::Full))
    ->Arg(int(cpu::FastPath::Reference))
    ->Iterations(1024);

/**
 * End-to-end wall clock of a Figure-8 subset: per benchmark
 * iteration, 16 coin-flip correct/incorrect oracle queries — a
 * 1/1250-scale replica of the 20000-trial experiment, from which
 * tools/perf_smoke.py extrapolates full-campaign wall clock.
 */
void
BM_Fig8Subset(benchmark::State &state)
{
    constexpr unsigned TrialsPerIter = 16;

    Machine machine;
    attack::AttackerProcess proc(machine);
    attack::PacOracle oracle(proc, fig8OracleConfig());
    const isa::Addr target = BenignDataBase + 37 * isa::PageSize;
    const uint64_t modifier = 0x6D0D;
    oracle.setTarget(target, modifier);
    const uint16_t correct = machine.kernel().truePac(
        target, modifier, crypto::PacKeySelect::DA);
    Random coin(machine.config().seed ^ 0xC01Cull);

    // Exercise the structure-level reset + hit-rate accessors: drop
    // the construction/boot warm-up from the reported rates.
    benchmark::DoNotOptimize(oracle.probeMisses(correct));
    machine.mem().dtlb().resetStats();
    machine.mem().l1d().resetStats();

    for (auto _ : state) {
        for (unsigned t = 0; t < TrialsPerIter; ++t) {
            uint16_t pac = correct;
            if (coin.chance(0.5)) {
                do {
                    pac = uint16_t(coin.next(0x10000));
                } while (pac == correct);
            }
            benchmark::DoNotOptimize(oracle.probeMisses(pac));
        }
    }

    state.counters["trials_per_sec"] = benchmark::Counter(
        double(state.iterations()) * TrialsPerIter,
        benchmark::Counter::kIsRate);
    state.counters["dtlb_hit_rate"] = machine.mem().dtlb().hitRate();
    state.counters["l1d_hit_rate"] = machine.mem().l1d().hitRate();
}
BENCHMARK(BM_Fig8Subset);

/**
 * Full replica provisioning — what a campaign worker pays before its
 * first work item, and what fresh-provision mode pays PER item: boot
 * (keys, kernel image, page tables), guest program assembly, eviction
 * set construction, target binding and threshold calibration. The
 * per-iteration time is the provision_ms baseline metric; the
 * checkpoint restore below is the price the snapshot path pays
 * instead.
 */
void
BM_ReplicaProvision(benchmark::State &state)
{
    attack::OracleConfig ocfg;
    ocfg.autoCalibrate = true;
    for (auto _ : state) {
        Machine machine;
        attack::AttackerProcess proc(machine);
        attack::PacOracle oracle(proc, ocfg);
        oracle.setTarget(BenignDataBase + 37 * isa::PageSize, 0x6D0D);
        benchmark::DoNotOptimize(oracle.queries());
    }
}
BENCHMARK(BM_ReplicaProvision)->Unit(benchmark::kMillisecond);

/**
 * Checkpoint restore of a dirtied replica — the per-item cost of the
 * snapshot path. Each iteration first dirties machine state with one
 * oracle query (outside the timed region), then rewinds: the restore
 * therefore pays the realistic COW page count, not the no-op
 * clean-restore fast case.
 */
void
BM_SnapshotRestore(benchmark::State &state)
{
    Machine machine;
    attack::AttackerProcess proc(machine);
    attack::PacOracle oracle(proc, attack::OracleConfig{});
    oracle.setTarget(BenignDataBase + 37 * isa::PageSize, 0x6D0D);
    sim::ReplicaCheckpoint ckpt(machine, oracle);

    uint16_t guess = 0;
    for (auto _ : state) {
        state.PauseTiming();
        benchmark::DoNotOptimize(oracle.probeMisses(guess++));
        state.ResumeTiming();
        ckpt.restore();
    }
    state.counters["pages_copied_per_restore"] =
        ckpt.stats().restores
            ? double(ckpt.stats().pagesCopied) / ckpt.stats().restores
            : 0.0;
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMicrosecond);

/**
 * End-to-end accuracy campaign, small enough to iterate: 6 trials,
 * each re-keying and sweeping an 8-candidate window. Arg 1 runs the
 * provision-once/restore-per-item path, arg 0 the fresh-provision
 * reference — the pair is the accuracy_snapshot_speedup metric, the
 * headline number of the checkpointing work (the two modes produce
 * bit-identical fingerprints; tests/runner/test_snapshot_equiv.cc
 * asserts that, this measures the wall-clock gap).
 */
void
BM_AccuracyCampaign(benchmark::State &state)
{
    constexpr uint64_t Trials = 6;
    runner::AccuracyCampaignConfig cfg;
    cfg.replica.machine = defaultMachineConfig();
    cfg.replica.oracle.autoCalibrate = true;
    cfg.replica.target = BenignDataBase + 37 * isa::PageSize;
    cfg.replica.modifier = 0x6D0D;
    cfg.replica.samples = 1;
    cfg.replica.snapshot = state.range(0) != 0;
    cfg.trials = Trials;
    cfg.window = 8;
    cfg.pool.jobs = 1;
    for (auto _ : state) {
        const auto res = runner::runAccuracyCampaign(cfg);
        benchmark::DoNotOptimize(res.totals.guessesTested);
    }
    state.counters["trials_per_sec"] = benchmark::Counter(
        double(state.iterations()) * Trials, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AccuracyCampaign)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
