/**
 * @file
 * Remote-campaign equivalence and throughput bench for pacman-oracled
 * (DESIGN.md §4h): a campaign dispatched to a forked oracle server
 * over the length-prefixed IPC protocol must merge to the exact
 * fingerprint the in-process runner produces — at every --jobs count,
 * with and without injected faults — because both paths journal and
 * merge the same encoded chunk payload bytes.
 *
 * Measurements:
 *
 *  1. remote brute-force campaign vs local, jobs x fault rates
 *     {0, 0.2} — fingerprint equality plus wall-clock for both paths.
 *  2. remote accuracy campaign vs local (per-trial rekey travels the
 *     wire as WorkRequest::rekeySeed on the server side).
 *  3. single-connection QUERY throughput (queries/sec): the latency
 *     floor of one oracle probe round-trip, server-side replica
 *     restore included.
 *
 * Each campaign line gives the local and remote wall clock.
 *
 * Flags: --items N (default 192), --chunk N (default 16), --jobs LIST
 * (default "1,4,16"), --train N (default 4), --trials N (accuracy
 * trials, default 8), --queries N (throughput probe count, default
 * 200), --workdir DIR (default "server_artifacts"), --quick (CI-sized
 * matrix). Exits non-zero if any fingerprint diverges.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "kernel/layout.hh"
#include "runner/campaign.hh"
#include "runner/client.hh"
#include "runner/server.hh"

using namespace pacman;
using namespace pacman::attack;
using namespace pacman::kernel;
using namespace pacman::runner;

namespace
{

struct Options
{
    unsigned items = 192;
    uint64_t chunk = 16;
    std::vector<unsigned> jobs = {1, 4, 16};
    unsigned train = 4;
    uint64_t trials = 8;
    unsigned queries = 200;
    std::string workdir = "server_artifacts";
    bool quick = false;
};

std::vector<unsigned>
parseJobsList(const char *arg)
{
    std::vector<unsigned> jobs;
    const std::string s(arg);
    size_t pos = 0;
    while (pos < s.size()) {
        size_t next = s.find(',', pos);
        if (next == std::string::npos)
            next = s.size();
        jobs.push_back(
            unsigned(std::strtoul(s.substr(pos, next - pos).c_str(),
                                  nullptr, 0)));
        pos = next + 1;
    }
    return jobs;
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Remote campaign equivalence + throughput for pacman-oracled\n"
        "(DESIGN.md section 4h).\n"
        "\n"
        "  --items N      brute-force candidates (default 192)\n"
        "  --chunk N      items per chunk (default 16)\n"
        "  --jobs LIST    client thread counts (default 1,4,16)\n"
        "  --train N      oracle training iterations (default 4)\n"
        "  --trials N     accuracy trials (default 8)\n"
        "  --queries N    QUERY throughput probes (default 200)\n"
        "  --workdir DIR  socket/metrics artifact directory\n"
        "                 (default server_artifacts)\n"
        "  --quick        CI-sized matrix\n"
        "  --help         this text\n",
        argv0);
}

unsigned g_failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        ++g_failures;
        std::printf("FAIL: %s\n", what);
    }
}

/** Brute-force workload with the truth at the end of the range so
 *  every run sweeps all --items candidates (mirrors chaos_recovery). */
BruteForceCampaignConfig
makeBruteForceConfig(const Options &opt, double fault_rate)
{
    MachineConfig mcfg = defaultMachineConfig();
    mcfg.seed = 42;

    const isa::Addr target = BenignDataBase + 37 * isa::PageSize;
    Machine probe(mcfg);
    uint64_t modifier = 0x1000;
    uint16_t truth = 0;
    for (;; ++modifier) {
        truth = probe.kernel().truePac(target, modifier,
                                       crypto::PacKeySelect::DA);
        if (truth >= opt.items - 1)
            break;
    }

    BruteForceCampaignConfig cfg;
    cfg.replica.machine = mcfg;
    cfg.replica.oracle.trainIters = opt.train;
    cfg.replica.target = target;
    cfg.replica.modifier = modifier;
    cfg.first = uint16_t(truth - (opt.items - 1));
    cfg.last = truth;
    cfg.seed = 7;
    cfg.pool.chunkSize = opt.chunk;
    if (fault_rate > 0.0) {
        cfg.replica.faults = FaultPlan::scaled(fault_rate);
        cfg.replica.oracle.autoCalibrate = true;
        cfg.replica.oracle.queryRetries = 2;
        cfg.replica.oracle.busyRetries = 3;
        cfg.replica.maxSamples = cfg.replica.samples + 4;
        cfg.replica.candidateRetries = 1;
    }
    return cfg;
}

pid_t
forkServer(const std::string &socket, unsigned threads,
           const std::string &metrics_out)
{
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
        ServerConfig scfg;
        scfg.socketPath = socket;
        scfg.threads = threads;
        OracleServer server(scfg);
        server.start();
        while (!server.draining()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        server.waitDrained();
        if (!metrics_out.empty()) {
            if (std::FILE *f = std::fopen(metrics_out.c_str(), "w")) {
                const std::string json = server.metricsJson();
                std::fwrite(json.data(), 1, json.size(), f);
                std::fputc('\n', f);
                std::fclose(f);
            }
        }
        std::_Exit(0);
    }
    return pid;
}

bool
waitForServer(const std::string &endpoint)
{
    for (int i = 0; i < 250; ++i) {
        try {
            OracleClient probe(endpoint);
            probe.ping();
            return true;
        } catch (const WireError &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }
    return false;
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

void
bruteForceEquivalence(const Options &opt, const std::string &endpoint)
{
    const std::vector<double> fault_rates = {0.0, 0.2};
    for (double fault_rate : fault_rates) {
        BruteForceCampaignConfig cfg =
            makeBruteForceConfig(opt, fault_rate);

        cfg.pool.jobs = 1;
        const auto l0 = std::chrono::steady_clock::now();
        const std::string local_fp =
            runBruteForceCampaign(cfg).fingerprint();
        const auto l1 = std::chrono::steady_clock::now();

        for (unsigned jobs : opt.jobs) {
            cfg.pool.jobs = jobs;
            const auto r0 = std::chrono::steady_clock::now();
            const BruteForceCampaignResult remote =
                runBruteForceCampaignRemote(cfg, endpoint);
            const auto r1 = std::chrono::steady_clock::now();
            const bool identical = remote.fingerprint() == local_fp;
            check(identical,
                  "remote brute-force fingerprint diverged");
            std::printf("bruteforce f=%.1f jobs=%-2u  %s  (local %.3fs, "
                        "remote %.3fs)\n",
                        fault_rate, jobs,
                        identical ? "identical" : "DIVERGED",
                        seconds(l0, l1), seconds(r0, r1));
        }
    }
}

void
accuracyEquivalence(const Options &opt, const std::string &endpoint)
{
    AccuracyCampaignConfig cfg;
    cfg.replica.machine = defaultMachineConfig();
    cfg.replica.machine.seed = 42;
    cfg.replica.oracle.trainIters = opt.train;
    cfg.replica.target = BenignDataBase + 37 * isa::PageSize;
    cfg.replica.modifier = 0x9999;
    cfg.replica.samples = 1;
    cfg.trials = opt.trials;
    cfg.window = 24;
    cfg.seed = 1000;
    cfg.pool.chunkSize = 2;

    cfg.pool.jobs = 1;
    const auto l0 = std::chrono::steady_clock::now();
    const std::string local_fp = runAccuracyCampaign(cfg).fingerprint();
    const auto l1 = std::chrono::steady_clock::now();

    for (unsigned jobs : opt.jobs) {
        cfg.pool.jobs = jobs;
        const auto r0 = std::chrono::steady_clock::now();
        const AccuracyCampaignResult remote =
            runAccuracyCampaignRemote(cfg, endpoint);
        const auto r1 = std::chrono::steady_clock::now();
        const bool identical = remote.fingerprint() == local_fp;
        check(identical, "remote accuracy fingerprint diverged");
        std::printf("accuracy jobs=%-2u  %s  (local %.3fs, remote "
                    "%.3fs)\n",
                    jobs, identical ? "identical" : "DIVERGED",
                    seconds(l0, l1), seconds(r0, r1));
    }
}

void
queryThroughput(const Options &opt, const std::string &endpoint)
{
    const BruteForceCampaignConfig cfg =
        makeBruteForceConfig(opt, 0.0);

    OracleClient client(endpoint);
    // Warm the server-side replica cache so the measurement sees the
    // steady state (checkpoint restore per query), not provisioning.
    client.query(0, Random::deriveSeed(cfg.seed, 0), cfg.replica);

    const auto t0 = std::chrono::steady_clock::now();
    unsigned hot = 0;
    for (unsigned i = 0; i < opt.queries; ++i) {
        const auto r =
            client.query(uint16_t(cfg.first + i % opt.items),
                         Random::deriveSeed(cfg.seed, i), cfg.replica);
        hot += r.hot;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = seconds(t0, t1);
    const double qps = wall > 0 ? opt.queries / wall : 0.0;

    std::printf("query throughput: %u queries (%u hot) in %.3fs "
                "= %.1f queries/sec\n",
                opt.queries, hot, wall, qps);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--items") && i + 1 < argc)
            opt.items = unsigned(std::strtoul(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--chunk") && i + 1 < argc)
            opt.chunk = std::strtoull(argv[++i], nullptr, 0);
        else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
            opt.jobs = parseJobsList(argv[++i]);
        else if (!std::strcmp(argv[i], "--train") && i + 1 < argc)
            opt.train = unsigned(std::strtoul(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--trials") && i + 1 < argc)
            opt.trials = std::strtoull(argv[++i], nullptr, 0);
        else if (!std::strcmp(argv[i], "--queries") && i + 1 < argc)
            opt.queries =
                unsigned(std::strtoul(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--workdir") && i + 1 < argc)
            opt.workdir = argv[++i];
        else if (!std::strcmp(argv[i], "--quick"))
            opt.quick = true;
        else if (!std::strcmp(argv[i], "--help")) {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n\n", argv[i]);
            usage(argv[0]);
            return 2;
        }
    }
    if (opt.quick) {
        if (opt.jobs.size() > 2)
            opt.jobs = {1, 4};
        opt.trials = std::min<uint64_t>(opt.trials, 4);
        opt.queries = std::min(opt.queries, 50u);
    }

    std::error_code ec;
    std::filesystem::create_directories(opt.workdir, ec);

    const std::string socket = opt.workdir + "/oracled.sock";
    const std::string endpoint = "unix:" + socket;
    const std::string metrics = opt.workdir + "/metrics.json";
    unsigned max_jobs = 1;
    for (unsigned j : opt.jobs)
        max_jobs = std::max(max_jobs, j);

    const pid_t pid =
        forkServer(socket, std::min(max_jobs, 4u), metrics);
    if (!waitForServer(endpoint)) {
        std::fprintf(stderr, "server never came up on %s\n",
                     socket.c_str());
        return 1;
    }

    std::printf("== server campaign: brute-force equivalence ==\n");
    bruteForceEquivalence(opt, endpoint);
    std::printf("\n== server campaign: accuracy equivalence ==\n");
    accuracyEquivalence(opt, endpoint);
    std::printf("\n== server campaign: query throughput ==\n");
    queryThroughput(opt, endpoint);

    {
        OracleClient closer(endpoint);
        closer.drain();
    }
    int status = 0;
    waitpid(pid, &status, 0);
    check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
          "drained server exited uncleanly");

    std::printf("\n%s; server metrics in %s\n",
                g_failures == 0 ? "all fingerprints identical"
                                : "FINGERPRINTS DIVERGED",
                metrics.c_str());
    return g_failures == 0 ? 0 : 1;
}
