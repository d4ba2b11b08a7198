/**
 * @file
 * Setup shared by the campaign harnesses (parallel_campaign,
 * server_campaign, chaos_recovery): the --jobs list parser, the
 * truth-last brute-force workload with its self-healing fault wiring,
 * and a forked pacman-oracled.
 */

#ifndef PACMAN_BENCH_CAMPAIGN_SETUP_HH
#define PACMAN_BENCH_CAMPAIGN_SETUP_HH

#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "kernel/layout.hh"
#include "runner/campaign.hh"
#include "runner/client.hh"
#include "runner/server.hh"

namespace pacman::bench
{

/** "1,4,16" -> {1, 4, 16}. */
inline std::vector<unsigned>
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

/** Chaos plus self-healing on every replica: FaultPlan::scaled(@p
 *  fault_rate) and the oracle's recovery knobs. Nothing at rate 0. */
inline void
applyFaults(runner::ReplicaConfig &replica, double fault_rate)
{
    if (fault_rate <= 0.0)
        return;
    replica.faults = FaultPlan::scaled(fault_rate);
    replica.oracle.autoCalibrate = true;
    replica.oracle.queryRetries = 2;
    replica.oracle.busyRetries = 3;
    replica.maxSamples = replica.samples + 4;
    replica.candidateRetries = 1;
}

/**
 * The Section 8.2 brute-force workload with the truth last: one boot
 * seed (one set of per-boot PAC keys every replica reproduces), a
 * data target, and the first modifier whose true PAC leaves room for
 * @p items candidates below it. The sweep covers [truth - items + 1,
 * truth], so the hit lands on the last item: every run does the full
 * workload and still exercises the found-PAC path. @p samples oracle
 * samples per candidate, then applyFaults(@p fault_rate).
 */
inline runner::BruteForceCampaignConfig
truthLastBruteForce(unsigned items, unsigned train, uint64_t chunk,
                    double fault_rate, unsigned samples = 1)
{
    kernel::MachineConfig mcfg = kernel::defaultMachineConfig();
    mcfg.seed = 42;

    const isa::Addr target = kernel::BenignDataBase + 37 * isa::PageSize;
    kernel::Machine probe(mcfg);
    uint64_t modifier = 0x1000;
    uint16_t truth = 0;
    for (;; ++modifier) {
        truth = probe.kernel().truePac(target, modifier,
                                       crypto::PacKeySelect::DA);
        if (truth >= items - 1)
            break;
    }

    runner::BruteForceCampaignConfig cfg;
    cfg.replica.machine = mcfg;
    cfg.replica.oracle.trainIters = train;
    cfg.replica.target = target;
    cfg.replica.modifier = modifier;
    cfg.first = uint16_t(truth - (items - 1));
    cfg.last = truth;
    cfg.seed = 7;
    cfg.pool.chunkSize = chunk;
    cfg.replica.samples = samples;
    applyFaults(cfg.replica, fault_rate);
    return cfg;
}

/**
 * Fork a process hosting pacman-oracled on @p socket. With
 * @p crash_after_chunks != 0 it _Exit(137)s after that many CHUNK
 * replies; otherwise it serves until a client DRAINs it, writes its
 * METRICS JSON to @p metrics_out (if any) and exits 0.
 */
inline pid_t
forkServer(const std::string &socket, unsigned threads,
           uint64_t crash_after_chunks = 0,
           const std::string &metrics_out = {})
{
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
        runner::ServerConfig scfg;
        scfg.socketPath = socket;
        scfg.threads = threads;
        scfg.crashAfterChunks = crash_after_chunks;
        runner::OracleServer server(scfg);
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

/** Spin until the forked server answers PING (at most 5 s). */
inline bool
waitForServer(const std::string &endpoint)
{
    for (int i = 0; i < 250; ++i) {
        try {
            runner::OracleClient probe(endpoint);
            probe.ping();
            return true;
        } catch (const runner::WireError &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }
    return false;
}

} // namespace pacman::bench

#endif // PACMAN_BENCH_CAMPAIGN_SETUP_HH
