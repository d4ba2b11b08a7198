/**
 * @file
 * Benchmarks the deterministic parallel campaign runner on the
 * Section 8.2 brute-force workload (and, with --trials, the
 * Monte-Carlo oracle-accuracy campaign).
 *
 * For each thread count the sweep runs over the same candidate range
 * with the same campaign seed; the run asserts that the merged output
 * (found PAC, query/cycle counters, decision-statistic distribution)
 * is bit-identical across thread counts, then reports throughput.
 * The truth PAC is placed at the end of the swept range so every
 * thread count performs the full workload before the early exit.
 *
 * Emits one BENCH JSON line per configuration:
 *
 *   BENCH {"bench":"parallel_campaign","workload":"sec82_bruteforce",
 *          "jobs":4,"items":2048,...,"speedup_vs_1":3.7,
 *          "identical":true}
 *
 * Flags: --items N (default 2048), --jobs LIST (default "1,2,4,8"),
 * --chunk N (default 256), --train N (default 8), --samples N
 * (default 1), --noise P (default 0: ambient noise plus single-shot
 * sampling produces oracle false positives that truncate the sweep
 * at a noise-dependent point — fine for determinism stress-testing,
 * misleading for throughput), --trials N (default 0 = skip the
 * accuracy campaign), --window N (default 96), --fault-rate X
 * (default 0: FaultPlan::scaled(X) chaos on every replica, plus the
 * self-healing oracle knobs — the determinism contract must hold for
 * the faults *and* the recovery they trigger), --journal PATH /
 * --resume (durable per-jobs-count chunk journals; DESIGN.md §4g).
 * Run --help for the full list; unknown flags exit 2.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "campaign_setup.hh"

using namespace pacman;
using namespace pacman::attack;
using namespace pacman::bench;
using namespace pacman::kernel;
using namespace pacman::runner;

namespace
{

struct Options
{
    unsigned items = 2048;
    std::vector<unsigned> jobs = {1, 2, 4, 8};
    uint64_t chunk = 256;
    unsigned train = 8;
    unsigned samples = 1;
    double noise = 0.0;
    uint64_t trials = 0;
    unsigned window = 96;
    double faultRate = 0.0;
    std::string journal;
    bool resume = false;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Deterministic parallel campaign benchmark (Section 8.2\n"
        "brute force; --trials adds the Monte-Carlo accuracy run).\n"
        "\n"
        "  --items N       brute-force candidates (default 2048)\n"
        "  --jobs LIST     thread counts, comma-separated\n"
        "                  (default 1,2,4,8)\n"
        "  --chunk N       items per work chunk (default 256)\n"
        "  --train N       oracle training iterations (default 8)\n"
        "  --samples N     oracle samples per candidate (default 1)\n"
        "  --noise P       ambient noise probability (default 0)\n"
        "  --trials N      accuracy trials; 0 skips the accuracy\n"
        "                  campaign (default 0)\n"
        "  --window N      accuracy sweep window (default 96)\n"
        "  --fault-rate X  FaultPlan::scaled(X) chaos + self-healing\n"
        "                  knobs on every replica (default 0)\n"
        "  --journal PATH  durable chunk journal; each jobs count\n"
        "                  writes PATH.j<jobs> (accuracy:\n"
        "                  PATH.accuracy.j<jobs>)\n"
        "  --resume        replay completed chunks from the journal\n"
        "                  instead of recomputing them\n"
        "  --help          this text\n",
        argv0);
}

/** Per-jobs-count journal wiring (empty --journal disables). */
SupervisionConfig
journalFor(const Options &opt, const char *part, unsigned jobs)
{
    SupervisionConfig sup;
    if (opt.journal.empty())
        return sup;
    sup.journalPath =
        strprintf("%s%s.j%u", opt.journal.c_str(), part, jobs);
    sup.resume = opt.resume;
    return sup;
}

int
bruteForcePart(const Options &opt)
{
    BruteForceCampaignConfig cfg = truthLastBruteForce(
        opt.items, opt.train, opt.chunk, opt.faultRate, opt.samples);
    cfg.replica.machine.noiseProbability = opt.noise;
    const uint16_t truth = cfg.last;

    std::printf("== parallel campaign: Section 8.2 brute force ==\n");
    std::printf("range [0x%04x, 0x%04x] (%u candidates), truth 0x%04x, "
                "chunk %llu, train %u, samples %u, noise %.2f, "
                "fault rate %.2f\n",
                cfg.first, cfg.last, opt.items, truth,
                (unsigned long long)opt.chunk, opt.train, opt.samples,
                opt.noise, opt.faultRate);
    std::printf("host hardware threads: %u\n\n",
                std::thread::hardware_concurrency());

    // Legacy serial reference: one persistent machine, one sweep.
    {
        Machine machine(cfg.replica.machine);
        AttackerProcess proc(machine);
        OracleConfig ocfg;
        ocfg.trainIters = opt.train;
        PacOracle oracle(proc, ocfg);
        oracle.setTarget(cfg.replica.target, cfg.replica.modifier);
        PacBruteForcer forcer(oracle, opt.samples);
        const auto t0 = std::chrono::steady_clock::now();
        const auto stats = forcer.search(cfg.first, cfg.last);
        const auto t1 = std::chrono::steady_clock::now();
        const double wall = std::chrono::duration<double>(t1 - t0).count();
        std::printf("legacy serial search: %.3f s, %.0f candidates/s, "
                    "found %s\n", wall,
                    double(stats.guessesTested) / wall,
                    stats.found ? strprintf("0x%04x", *stats.found).c_str()
                                : "none");
        std::printf("BENCH {\"bench\":\"parallel_campaign\","
                    "\"workload\":\"sec82_bruteforce_serial_legacy\","
                    "\"items\":%llu,\"wall_s\":%.4f,"
                    "\"items_per_s\":%.1f}\n\n",
                    (unsigned long long)stats.guessesTested, wall,
                    double(stats.guessesTested) / wall);
    }

    std::string reference;
    double wall1 = 0;
    bool all_identical = true;
    for (unsigned jobs : opt.jobs) {
        cfg.pool.jobs = jobs;
        cfg.supervision = journalFor(opt, "", jobs);
        const BruteForceCampaignResult r = runBruteForceCampaign(cfg);
        const std::string fp = r.fingerprint();
        if (reference.empty()) {
            reference = fp;
            wall1 = r.wallSeconds;
        }
        const bool identical = fp == reference;
        all_identical = all_identical && identical;
        const double rate = double(r.stats.guessesTested) / r.wallSeconds;
        std::printf("jobs=%-2u  %.3f s  %7.0f candidates/s  "
                    "speedup %.2fx  chunks %llu run / %llu skipped  "
                    "%s\n",
                    jobs, r.wallSeconds, rate, wall1 / r.wallSeconds,
                    (unsigned long long)r.chunksRun,
                    (unsigned long long)r.chunksSkipped,
                    identical ? "output identical" : "OUTPUT DIVERGED");
        std::printf("BENCH {\"bench\":\"parallel_campaign\","
                    "\"workload\":\"sec82_bruteforce\",\"jobs\":%u,"
                    "\"items\":%u,\"wall_s\":%.4f,\"items_per_s\":%.1f,"
                    "\"speedup_vs_1\":%.3f,\"found\":\"0x%04x\","
                    "\"fault_rate\":%.3f,\"faults\":%llu,"
                    "\"query_retries\":%llu,\"identical\":%s}\n",
                    jobs, opt.items, r.wallSeconds, rate,
                    wall1 / r.wallSeconds,
                    r.stats.found ? *r.stats.found : 0, opt.faultRate,
                    (unsigned long long)r.faultStats.total(),
                    (unsigned long long)r.oracleStats.retriedQueries,
                    identical ? "true" : "false");
    }
    std::printf("\nmerged output fingerprint:\n  %s\n\n",
                reference.c_str());
    return all_identical ? 0 : 1;
}

int
accuracyPart(const Options &opt)
{
    MachineConfig mcfg = defaultMachineConfig();
    mcfg.noiseProbability = 0.5; // browsing + video calls
    mcfg.noisePages = 4;

    AccuracyCampaignConfig cfg;
    cfg.replica.machine = mcfg;
    cfg.replica.oracle.trainIters = opt.train;
    cfg.replica.target = BenignDataBase + 37 * isa::PageSize;
    cfg.replica.modifier = 0x9999;
    cfg.replica.samples = 5; // median-of-5, exactly as the paper
    cfg.trials = opt.trials;
    cfg.window = opt.window;
    cfg.seed = 1000;
    cfg.pool.chunkSize = 1; // a trial is already a chunk of work
    applyFaults(cfg.replica, opt.faultRate);

    std::printf("== parallel campaign: Section 8.2 accuracy "
                "(%llu trials, window %u) ==\n",
                (unsigned long long)cfg.trials, cfg.window);

    std::string reference;
    double wall1 = 0;
    bool all_identical = true;
    for (unsigned jobs : opt.jobs) {
        cfg.pool.jobs = jobs;
        cfg.supervision = journalFor(opt, ".accuracy", jobs);
        const AccuracyCampaignResult r = runAccuracyCampaign(cfg);
        const std::string fp = r.fingerprint();
        if (reference.empty()) {
            reference = fp;
            wall1 = r.wallSeconds;
        }
        const bool identical = fp == reference;
        all_identical = all_identical && identical;
        const double rate = double(cfg.trials) / r.wallSeconds;
        std::printf("jobs=%-2u  %.3f s  %5.2f trials/s  speedup %.2fx  "
                    "tp/fp/fn %llu/%llu/%llu  %s\n",
                    jobs, r.wallSeconds, rate, wall1 / r.wallSeconds,
                    (unsigned long long)r.truePositives,
                    (unsigned long long)r.falsePositives,
                    (unsigned long long)r.falseNegatives,
                    identical ? "output identical" : "OUTPUT DIVERGED");
        std::printf("BENCH {\"bench\":\"parallel_campaign\","
                    "\"workload\":\"sec82_accuracy\",\"jobs\":%u,"
                    "\"trials\":%llu,\"wall_s\":%.4f,"
                    "\"trials_per_s\":%.3f,\"speedup_vs_1\":%.3f,"
                    "\"identical\":%s}\n",
                    jobs, (unsigned long long)cfg.trials, r.wallSeconds,
                    rate, wall1 / r.wallSeconds,
                    identical ? "true" : "false");
    }
    std::printf("\nmerged output fingerprint:\n  %s\n\n",
                reference.c_str());
    return all_identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--items") && i + 1 < argc)
            opt.items = unsigned(std::strtoul(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
            opt.jobs = parseJobsList(argv[++i]);
        else if (!std::strcmp(argv[i], "--chunk") && i + 1 < argc)
            opt.chunk = std::strtoull(argv[++i], nullptr, 0);
        else if (!std::strcmp(argv[i], "--train") && i + 1 < argc)
            opt.train = unsigned(std::strtoul(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--samples") && i + 1 < argc)
            opt.samples = unsigned(std::strtoul(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--noise") && i + 1 < argc)
            opt.noise = std::strtod(argv[++i], nullptr);
        else if (!std::strcmp(argv[i], "--trials") && i + 1 < argc)
            opt.trials = std::strtoull(argv[++i], nullptr, 0);
        else if (!std::strcmp(argv[i], "--window") && i + 1 < argc)
            opt.window = unsigned(std::strtoul(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--fault-rate") && i + 1 < argc)
            opt.faultRate = std::strtod(argv[++i], nullptr);
        else if (!std::strcmp(argv[i], "--journal") && i + 1 < argc)
            opt.journal = argv[++i];
        else if (!std::strcmp(argv[i], "--resume"))
            opt.resume = true;
        else if (!std::strcmp(argv[i], "--help")) {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n\n", argv[i]);
            usage(argv[0]);
            return 2;
        }
    }

    int rc = bruteForcePart(opt);
    if (opt.trials > 0)
        rc |= accuracyPart(opt);
    return rc;
}
