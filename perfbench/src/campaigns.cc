/**
 * @file
 * The two campaign workloads, bf_sweep and acc_noisy.
 *
 * Each measuring cycle runs the workload's campaign twice:
 *
 *  A. through runner::runBruteForceCampaign / runAccuracyCampaign,
 *     untouched (wall time, output);
 *  B. through run*CampaignWith and a benchmark-owned dispatcher that
 *     does what the runner's own does (one lazily provisioned
 *     runner::Worker per pool slot, then execute*Chunk) and also
 *     times each chunk and reads the replica's modelled counters; its
 *     output must equal A's.
 *
 * A campaign has no arrival process: it keeps its pool of two workers
 * saturated ("high" load). Its QUERY latency is a chunk's wall time
 * divided by the oracle queries the chunk made (per query, as the
 * server's QUERY latency is), chunk_p99_ms_high is the raw chunk
 * latency, and max_qps is the oracle query rate the campaign sustains.
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

#include "attack/oracle.hh"
#include "kernel/layout.hh"
#include "runner/chunk_codec.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace pacman;
using namespace pacman::runner;

namespace perfbench
{

uint64_t
pickTarget(const kernel::MachineConfig &mcfg,
           const attack::OracleConfig &ocfg, uint64_t seed)
{
    kernel::Machine machine(mcfg);
    attack::AttackerProcess proc(machine);
    attack::PacOracle oracle(proc, ocfg);
    const bool data = ocfg.kind == attack::GadgetKind::Data;
    const isa::Addr base =
        data ? kernel::BenignDataBase : kernel::TrampolineBase;
    // 64 benign-data pages are mapped; page 0 holds the word legit
    // pointers point to.
    const uint64_t pages = data ? 64 : kernel::TrampolineCount;
    Random rng(seed);
    for (;;) {
        const isa::Addr t =
            base + (1 + rng.next(pages - 1)) * isa::PageSize;
        if (oracle.isTargetUsable(t))
            return t;
    }
}

BruteForceCampaignConfig
bfSweepConfig(uint64_t seed)
{
    BruteForceCampaignConfig cfg;
    ReplicaConfig &r = cfg.replica;
    r.machine = kernel::defaultMachineConfig();
    r.machine.seed = Random::deriveSeed(seed, BootStream);
    r.oracle.kind = attack::GadgetKind::Data;
    r.oracle.trainIters = 64; // paper Section 8.1
    r.samples = 1;
    r.target = pickTarget(r.machine, r.oracle,
                          Random::deriveSeed(seed, TargetStream));

    // Walk modifiers from a seeded start until the true PAC is the
    // last candidate, so the sweep tests every one of the 2^16.
    kernel::Machine probe(r.machine);
    r.modifier = Random(Random::deriveSeed(seed, ModifierStream)).next();
    while (probe.kernel().truePac(r.target, r.modifier,
                                  crypto::PacKeySelect::DA) != 0xFFFF)
        ++r.modifier;

    cfg.first = 0x0000;
    cfg.last = 0xFFFF;
    cfg.seed = Random::deriveSeed(seed, CampaignStream);
    cfg.pool.jobs = 2;
    cfg.pool.chunkSize = 256;
    return cfg;
}

AccuracyCampaignConfig
accNoisyConfig(uint64_t seed)
{
    AccuracyCampaignConfig cfg;
    ReplicaConfig &r = cfg.replica;
    r.machine = kernel::defaultMachineConfig();
    r.machine.seed = Random::deriveSeed(seed, BootStream);
    r.machine.noiseProbability = 0.5; // browsing + video call
    r.machine.noisePages = 4;
    r.oracle.kind = attack::GadgetKind::Instruction;
    r.oracle.trainIters = 64;
    r.samples = 5; // median-of-5, as the paper
    // Adaptive resampling: a candidate whose median lands near the
    // threshold gets up to four more samples and one full
    // re-measurement. Without it about one seed in twenty reports a
    // false positive under this noise. (The canary-checked query
    // retries are left off: how often the canary fires depends on the
    // target page, which would make the cost of a trial depend on the
    // seed by a third.)
    r.maxSamples = r.samples + 4;
    r.candidateRetries = 1;
    r.target = pickTarget(r.machine, r.oracle,
                          Random::deriveSeed(seed, TargetStream));
    r.modifier = Random(Random::deriveSeed(seed, ModifierStream)).next();
    cfg.trials = 100;
    cfg.window = 96;
    cfg.seed = Random::deriveSeed(seed, CampaignStream);
    cfg.pool.jobs = 2;
    cfg.pool.chunkSize = 1; // a trial is already a chunk of work
    return cfg;
}

namespace
{

/** What one campaign produced, in the units the metrics use. */
struct Outcome
{
    double wall = 0;
    std::string fingerprint;
    uint64_t items = 0; //!< candidates (bf) or trials (acc)
    uint64_t queries = 0;
    uint64_t cycles = 0;
    uint64_t candidates = 0;
    uint64_t samples = 0;
    uint64_t retried = 0;
    uint64_t quarantined = 0;
    uint64_t tp = 0, fp = 0, fn = 0;
    std::optional<uint16_t> found;
};

Outcome
outcomeOf(const BruteForceCampaignResult &r)
{
    Outcome o;
    o.fingerprint = r.fingerprint();
    o.items = r.stats.guessesTested;
    o.queries = r.stats.oracleQueries;
    o.cycles = r.stats.cyclesSimulated;
    o.candidates = r.stats.guessesTested;
    o.samples = r.stats.samplesTaken;
    o.retried = r.oracleStats.retriedQueries;
    o.quarantined = r.quarantined.size();
    o.found = r.stats.found;
    return o;
}

Outcome
outcomeOf(const AccuracyCampaignResult &r)
{
    Outcome o;
    o.fingerprint = r.fingerprint();
    o.tp = r.truePositives;
    o.fp = r.falsePositives;
    o.fn = r.falseNegatives;
    o.quarantined = r.quarantined.size();
    o.items = o.tp + o.fp + o.fn + o.quarantined;
    o.queries = r.totals.oracleQueries;
    o.cycles = r.totals.cyclesSimulated;
    o.candidates = r.totals.guessesTested;
    o.samples = r.totals.samplesTaken;
    o.retried = r.oracleStats.retriedQueries;
    return o;
}

// The two campaign kinds differ only in these calls.
BruteForceCampaignResult
runPlain(const BruteForceCampaignConfig &c)
{
    return runBruteForceCampaign(c);
}

AccuracyCampaignResult
runPlain(const AccuracyCampaignConfig &c)
{
    return runAccuracyCampaign(c);
}

BruteForceCampaignResult
runWith(const BruteForceCampaignConfig &c, const ChunkDispatcher &d)
{
    return runBruteForceCampaignWith(c, d);
}

AccuracyCampaignResult
runWith(const AccuracyCampaignConfig &c, const ChunkDispatcher &d)
{
    return runAccuracyCampaignWith(c, d);
}

std::string
executeChunk(Worker &w, const BruteForceCampaignConfig &c,
             const Chunk &chunk)
{
    ScopedSpan span("runner.executeBfChunk",
                    chunk.lastItem - chunk.firstItem + 1);
    return executeBfChunk(w, c, chunk);
}

std::string
executeChunk(Worker &w, const AccuracyCampaignConfig &c,
             const Chunk &chunk)
{
    ScopedSpan span("runner.executeAccuracyChunk",
                    chunk.lastItem - chunk.firstItem + 1);
    return executeAccuracyChunk(w, c, chunk);
}

/** Oracle queries the chunk made, from its payload. */
uint64_t
chunkQueries(const std::string &payload, const BruteForceCampaignConfig &,
             const Chunk &)
{
    ScopedSpan span("runner.decodeBfChunk");
    BfChunkResult r;
    return decodeBfChunk(payload, r) ? r.stats.oracleQueries : 0;
}

uint64_t
chunkQueries(const std::string &payload, const AccuracyCampaignConfig &,
             const Chunk &chunk)
{
    ScopedSpan span("runner.decodeTrialChunk");
    std::vector<TrialResult> trials;
    if (!decodeTrialChunk(payload, trials, chunk))
        return 0;
    uint64_t q = 0;
    for (const TrialResult &t : trials)
        q += t.stats.oracleQueries;
    return q;
}

// Timing-trace telemetry may be removed from the simulator; read it
// only where the fields exist.
template <class S>
uint64_t
sbTraceReplays(const S &s)
{
    if constexpr (requires { s.traceReplays; })
        return s.traceReplays;
    else
        return 0;
}

template <class S>
uint64_t
sbGuardBreaks(const S &s)
{
    if constexpr (requires { s.traceGuardBreaks; })
        return s.traceGuardBreaks;
    else
        return 0;
}

/**
 * Counters read from a replica. The modelled ones (instructions and
 * TLB/cache hits) are architectural: restore rewinds them, so a
 * chunk's share is "after" minus the post-provisioning baseline, and
 * their campaign sums are a pure function of the seed. The fast-path
 * ones depend on which worker ran which chunk and are not.
 */
struct SimCounters
{
    uint64_t insts = 0;
    uint64_t dtlbHits = 0, dtlbMisses = 0;
    uint64_t l1dHits = 0, l1dMisses = 0;
    uint64_t blockInsts = 0, blockHits = 0;
    uint64_t traceReplays = 0, guardBreaks = 0;

    static SimCounters
    read(kernel::Machine &m)
    {
        SimCounters c;
        c.insts = m.core().stats().instsRetired;
        c.dtlbHits = m.mem().dtlb().hits();
        c.dtlbMisses = m.mem().dtlb().misses();
        c.l1dHits = m.mem().l1d().hits();
        c.l1dMisses = m.mem().l1d().misses();
        const cpu::SuperblockStats &sb = m.core().superblockStats();
        c.blockInsts = sb.blockInsts;
        c.blockHits = sb.blockHits;
        c.traceReplays = sbTraceReplays(sb);
        c.guardBreaks = sbGuardBreaks(sb);
        return c;
    }

    void
    add(const SimCounters &o)
    {
        insts += o.insts;
        dtlbHits += o.dtlbHits;
        dtlbMisses += o.dtlbMisses;
        l1dHits += o.l1dHits;
        l1dMisses += o.l1dMisses;
        blockInsts += o.blockInsts;
        blockHits += o.blockHits;
        traceReplays += o.traceReplays;
        guardBreaks += o.guardBreaks;
    }

    /** @p after's modelled counters minus @p base's (restore-rewound),
     *  fast-path counters minus @p last's (monotonic). */
    static SimCounters
    delta(const SimCounters &after, const SimCounters &base,
          const SimCounters &last)
    {
        SimCounters d;
        d.insts = after.insts - base.insts;
        d.dtlbHits = after.dtlbHits - base.dtlbHits;
        d.dtlbMisses = after.dtlbMisses - base.dtlbMisses;
        d.l1dHits = after.l1dHits - base.l1dHits;
        d.l1dMisses = after.l1dMisses - base.l1dMisses;
        d.blockInsts = after.blockInsts - last.blockInsts;
        d.blockHits = after.blockHits - last.blockHits;
        d.traceReplays = after.traceReplays - last.traceReplays;
        d.guardBreaks = after.guardBreaks - last.guardBreaks;
        return d;
    }

    std::string
    modelled() const
    {
        return strprintf("insts=%llu dtlb=%llu/%llu l1d=%llu/%llu",
                         (unsigned long long)insts,
                         (unsigned long long)dtlbHits,
                         (unsigned long long)dtlbMisses,
                         (unsigned long long)l1dHits,
                         (unsigned long long)l1dMisses);
    }
};

struct ChunkSample
{
    double ms = 0;
    uint64_t queries = 0;
};

/**
 * The benchmark-owned ChunkDispatcher. The pool calls it concurrently
 * only with distinct worker indices, so each slot is touched by one
 * thread at a time and needs no lock (runner::campaign relies on the
 * same property for its own worker slots).
 */
template <class Cfg>
class TimedDispatch
{
  public:
    TimedDispatch(const Cfg &cfg, uint64_t campaign_span)
        : cfg_(cfg), campaignSpan_(campaign_span),
          slots_(effectiveJobs(cfg.pool.jobs))
    {
    }

    std::string
    operator()(unsigned worker, const Chunk &chunk)
    {
        Slot &s = slots_[worker];
        ScopedSpan span("runner.chunk", chunk.lastItem - chunk.firstItem + 1,
                        campaignSpan_);
        const Clock::time_point t0 = Clock::now();
        if (!s.worker) {
            ScopedSpan provision("attack.provision.worker");
            s.worker = std::make_unique<Worker>(cfg_.replica,
                                                cfg_.supervision);
            s.base = s.last = SimCounters::read(s.worker->machine());
        }
        const std::string payload = executeChunk(*s.worker, cfg_, chunk);
        const double ms = secondsSince(t0) * 1e3;
        s.samples.push_back({ms, chunkQueries(payload, cfg_, chunk)});
        const SimCounters now = SimCounters::read(s.worker->machine());
        s.sum.add(SimCounters::delta(now, s.base, s.last));
        s.last = now;
        return payload;
    }

    std::vector<ChunkSample>
    samples() const
    {
        std::vector<ChunkSample> all;
        for (const Slot &s : slots_)
            all.insert(all.end(), s.samples.begin(), s.samples.end());
        return all;
    }

    SimCounters
    counters() const
    {
        SimCounters c;
        for (const Slot &s : slots_)
            c.add(s.sum);
        return c;
    }

    void
    releaseWorkers()
    {
        for (Slot &s : slots_)
            s.worker.reset();
    }

  private:
    struct Slot
    {
        std::unique_ptr<Worker> worker;
        SimCounters base, last, sum;
        std::vector<ChunkSample> samples;
    };

    const Cfg &cfg_;
    uint64_t campaignSpan_;
    std::vector<Slot> slots_;
};

struct TimedOutcome
{
    Outcome out;
    std::vector<ChunkSample> samples;
    SimCounters counters;
};

template <class Cfg>
Outcome
campaignPlain(const Cfg &cfg)
{
    const Clock::time_point t0 = Clock::now();
    const auto r = runPlain(cfg);
    const double wall = secondsSince(t0);
    Outcome o = outcomeOf(r);
    o.wall = wall;
    return o;
}

template <class Cfg>
TimedOutcome
campaignTimed(const Cfg &cfg)
{
    TimedOutcome t;
    ScopedSpan root("bench.campaign");
    TimedDispatch<Cfg> dispatch(cfg, root.id());
    const Clock::time_point t0 = Clock::now();
    const auto r = runWith(cfg, [&](unsigned w, const Chunk &c) {
        return dispatch(w, c);
    });
    root.end(); // the merge ends here; what follows is the benchmark's
    t.samples = dispatch.samples();
    t.counters = dispatch.counters();
    // The runner's own entry point frees its workers before it
    // returns; so does this one, inside the timed interval.
    dispatch.releaseWorkers();
    const double wall = secondsSince(t0);
    t.out = outcomeOf(r);
    t.out.wall = wall;
    return t;
}

/** Median of @p k replica provisionings: the time until a campaign's
 *  first item can run. */
double
provisionSeconds(const ReplicaConfig &replica,
                 const SupervisionConfig &sup, unsigned k)
{
    std::vector<double> s;
    for (unsigned i = 0; i < k; ++i) {
        const Clock::time_point t0 = Clock::now();
        Worker w(replica, sup);
        w.oracle();
        s.push_back(secondsSince(t0));
    }
    return median(s);
}

void
addLatencyMetrics(Result &res, const std::vector<ChunkSample> &samples)
{
    std::vector<double> per_query, chunk_ms;
    for (const ChunkSample &c : samples) {
        chunk_ms.push_back(c.ms);
        if (c.queries != 0)
            per_query.push_back(c.ms / double(c.queries));
    }
    const Summary q = summarize(per_query), cs = summarize(chunk_ms);
    res.set("p50_ms_high", q.p50, "ms");
    res.set("p99_ms_high", q.tail, "ms");
    res.set("chunk_p99_ms_high", cs.tail, "ms");
    std::printf("  QUERY latency: n=%zu p50=%.5f ms p%.1f=%.5f ms\n"
                "  chunk latency: n=%zu p50=%.3f ms p%.1f=%.3f ms\n",
                q.n, q.p50, q.tailP, q.tail, cs.n, cs.p50, cs.tailP,
                cs.tail);
}

/** The workload-specific parts of a campaign workload. */
template <class Cfg>
struct Spec
{
    const char *name;
    const char *itemName; //!< "candidates" / "trials"
    Cfg cfg;
    /** Correctness gates on one full campaign's outcome. */
    std::function<void(const Outcome &, Result &)> gate;
};

template <class Cfg>
Result
runCampaignWorkload(const Options &opt, const Spec<Cfg> &spec)
{
    Result res;
    Tracer &tracer = Tracer::global();

    constexpr unsigned SetupReps = 25;
    const double setup = provisionSeconds(spec.cfg.replica,
                                          spec.cfg.supervision, SetupReps);
    res.set("setup_s", setup, "s");
    std::printf("%s: setup (median of %u provisionings) %.4f s\n",
                spec.name, SetupReps, setup);

    if (opt.trace) {
        runLayerProbes(opt);
        runServingProbe(opt, res);
    }

    std::optional<std::string> ref_fp, ref_sim;
    std::vector<double> walls;
    std::vector<ChunkSample> chunks;
    Outcome last;
    auto check = [&](const Outcome &o) {
        res.attempted += o.items;
        res.fail(Failure::Quarantined, o.quarantined);
        if (!ref_fp)
            ref_fp = o.fingerprint;
        else if (*ref_fp != o.fingerprint)
            res.wrong(strprintf("%s: campaign output differs between "
                                "repetitions of one seed",
                                spec.name));
        spec.gate(o, res);
    };
    auto checkSim = [&](const SimCounters &c) {
        if (!ref_sim)
            ref_sim = c.modelled();
        else if (*ref_sim != c.modelled())
            res.wrong(strprintf("%s: modelled counters differ between "
                                "repetitions", spec.name));
    };

    const Clock::time_point start = Clock::now();
    unsigned cycles = 0;
    double cycle_s = 0;
    std::vector<double> traced_rate, untraced_rate;
    do {
        const Clock::time_point c0 = Clock::now();
        if (!opt.trace) {
            const Outcome a = campaignPlain(spec.cfg);
            check(a);
            walls.push_back(a.wall);
            last = a;
        }
        // In the traced run B alternates untraced/traced: the pair
        // gives the tracing overhead.
        for (int traced = 0; traced <= int(opt.trace); ++traced) {
            tracer.enable(traced != 0);
            const TimedOutcome b = campaignTimed(spec.cfg);
            tracer.enable(false);
            check(b.out);
            checkSim(b.counters);
            (traced ? traced_rate : untraced_rate)
                .push_back(double(b.out.items) / b.out.wall);
            if (traced) {
                tracer.count("bench.campaigns", 1);
                tracer.count("bench.items", double(b.out.items));
                tracer.count("attack.queries", double(b.out.queries));
                tracer.count("attack.candidates", double(b.out.candidates));
                tracer.count("attack.samples", double(b.out.samples));
                tracer.count("attack.retried_queries", double(b.out.retried));
                tracer.count("sim.cycles", double(b.out.cycles));
                tracer.count("sim.cycle_items", double(b.out.items));
                tracer.count("cpu.insts", double(b.counters.insts));
                tracer.count("cpu.block_insts", double(b.counters.blockInsts));
                tracer.count("cpu.block_hits", double(b.counters.blockHits));
                tracer.count("cpu.trace_replays",
                             double(b.counters.traceReplays));
                tracer.count("cpu.trace_guard_breaks",
                             double(b.counters.guardBreaks));
                tracer.count("mem.dtlb_hits", double(b.counters.dtlbHits));
                tracer.count("mem.dtlb_misses",
                             double(b.counters.dtlbMisses));
                tracer.count("mem.l1d_hits", double(b.counters.l1dHits));
                tracer.count("mem.l1d_misses", double(b.counters.l1dMisses));
            } else {
                walls.push_back(b.out.wall);
                chunks.insert(chunks.end(), b.samples.begin(),
                              b.samples.end());
                last = b.out;
            }
        }
        ++cycles;
        cycle_s = secondsSince(c0);
    } while (secondsSince(start) + cycle_s <= opt.seconds);

    const double wall = median(walls);
    std::printf("%s: campaign walls (s):", spec.name);
    for (double w : walls)
        std::printf(" %.3f", w);
    std::printf("\n");
    std::printf("%s: %u cycles, %zu full campaigns, median wall %.4f s, "
                "%llu %s, %llu oracle queries, %llu sim cycles each\n",
                spec.name, cycles, walls.size(), wall,
                (unsigned long long)last.items, spec.itemName,
                (unsigned long long)last.queries,
                (unsigned long long)last.cycles);

    res.digest = strprintf("%s %s %s", spec.name, ref_fp->c_str(),
                           ref_sim ? ref_sim->c_str() : "");
    if (opt.trace) {
        tracer.count("bench.items_per_s_untraced", median(untraced_rate));
        tracer.count("bench.items_per_s_traced", median(traced_rate));
    } else {
        res.set("wall_s", wall, "s");
        res.set("items_per_s", double(last.items) / wall, "1/s");
        res.set("sim_mcycles_per_s", double(last.cycles) / wall / 1e6,
                "Mcycles/s");
        res.set("max_qps", double(last.queries) / wall, "1/s");
        addLatencyMetrics(res, chunks);
    }
    return res;
}

} // anonymous namespace

void
runProbeCampaign(uint64_t seed)
{
    BruteForceCampaignConfig cfg = bfSweepConfig(seed);
    cfg.first = 0xF000;
    campaignTimed(cfg);
}

Result
runBfSweep(const Options &opt)
{
    Spec<BruteForceCampaignConfig> spec;
    spec.name = "bf_sweep";
    spec.itemName = "candidates";
    spec.cfg = bfSweepConfig(opt.seed);
    spec.gate = [](const Outcome &o, Result &res) {
        if (!o.found || *o.found != 0xFFFF)
            res.wrong("bf_sweep: sweep did not find the true PAC 0xffff");
        if (o.candidates != 0x10000)
            res.wrong(strprintf("bf_sweep: tested %llu candidates, "
                                "not all 65536",
                                (unsigned long long)o.candidates));
        if (o.found && *o.found != 0xFFFF)
            res.fail(Failure::WrongVerdict);
    };
    std::printf("bf_sweep: target 0x%llx modifier 0x%llx\n",
                (unsigned long long)spec.cfg.replica.target,
                (unsigned long long)spec.cfg.replica.modifier);
    return runCampaignWorkload(opt, spec);
}

Result
runAccNoisy(const Options &opt)
{
    Spec<AccuracyCampaignConfig> spec;
    spec.name = "acc_noisy";
    spec.itemName = "trials";
    spec.cfg = accNoisyConfig(opt.seed);
    spec.gate = [trials = spec.cfg.trials](const Outcome &o, Result &res) {
        if (o.fp != 0)
            res.wrong(strprintf("acc_noisy: %llu false positives",
                                (unsigned long long)o.fp));
        if (o.tp + o.fn != trials)
            res.wrong(strprintf("acc_noisy: TP %llu + FN %llu != %llu "
                                "trials",
                                (unsigned long long)o.tp,
                                (unsigned long long)o.fn,
                                (unsigned long long)trials));
        res.fail(Failure::WrongVerdict, o.fp + o.fn);
    };
    std::printf("acc_noisy: target 0x%llx modifier 0x%llx\n",
                (unsigned long long)spec.cfg.replica.target,
                (unsigned long long)spec.cfg.replica.modifier);
    return runCampaignWorkload(opt, spec);
}

} // namespace perfbench
