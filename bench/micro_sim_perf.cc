/**
 * @file
 * Same-binary A/Bs of two simulator layers, as google-benchmark
 * microbenchmarks. Each pair runs the same work both ways in one
 * process, so the ratio does not depend on the host's speed in the
 * window it ran in:
 *
 *  - BM_Fig8TrainingLoop/1 vs /0: the Figure-8 training loop on
 *    cpu::FastPath::Full (decode cache, superblocks and guest-call
 *    replay, the shipped default) vs FastPath::Reference (the plain
 *    interpreter of a PACMAN_DISABLE_FASTPATH build). Both run a
 *    pinned iteration count so they measure the identical query
 *    sequence (time-budgeted runs gave the slow path far fewer
 *    iterations, letting per-run fixed costs skew the ratio).
 *  - BM_AccuracyCampaign/1 vs /0: an accuracy campaign on checkpointed
 *    replicas (restore per item) vs fresh provisioning per item.
 *
 * End-to-end speed and the other layers (QARMA, hierarchy walk,
 * syscall, oracle query, provisioning, restore) are measured by the
 * repository benchmark, perfbench/ (tools/ab.py compares two trees on
 * it).
 */

#include <benchmark/benchmark.h>

#include "attack/oracle.hh"
#include "kernel/layout.hh"
#include "runner/campaign.hh"

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
 * End-to-end accuracy campaign, small enough to iterate: 6 trials,
 * each re-keying and sweeping an 8-candidate window. Arg 1 runs the
 * provision-once/restore-per-item path, arg 0 the fresh-provision
 * reference; their ratio is what checkpointing saves (the two modes
 * produce bit-identical fingerprints; tests/runner/test_snapshot_equiv.cc
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
