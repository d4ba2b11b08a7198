/**
 * @file
 * pacman-oracled entry point: parse deployment flags, run the
 * PAC-oracle server (server.hh) until SIGTERM/SIGINT or a client
 * DRAIN request, drain gracefully, and optionally dump the final
 * pacman-bench-v1 metrics document.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "runner/server.hh"

namespace
{

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [options]\n"
        "\n"
        "Serve PAC-oracle queries and campaign chunks from a pool of\n"
        "checkpointed replicas (wire protocol: DESIGN.md Sec. 4h).\n"
        "\n"
        "  --socket PATH          Unix listening socket (required)\n"
        "  --tcp-port N           also listen on 127.0.0.1:N\n"
        "                         (1 = pick an ephemeral port)\n"
        "  --threads N            service threads / live replicas\n"
        "                         (1 to %u) [2]\n"
        "  --max-queue N          admission-control queue depth [64]\n"
        "  --allow-truth          enable the TRUTH verb (grading)\n"
        "  --crash-after-chunks N chaos: _Exit(137) after the N-th\n"
        "                         chunk response (tests only)\n"
        "  --metrics-out PATH     write final metrics JSON on exit\n",
        argv0, pacman::runner::MaxServiceThreads);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    pacman::runner::OracledArgs args;
    try {
        args = pacman::runner::parseOracledArgs(argc, argv);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv[0]);
        return 2;
    }
    if (args.help) {
        usage(argv[0]);
        return 0;
    }
    const pacman::runner::ServerConfig &cfg = args.cfg;

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    pacman::runner::OracleServer server(cfg);
    server.start();
    if (cfg.tcpPort != 0) {
        std::printf("pacman-oracled: listening on %s and "
                    "127.0.0.1:%u\n",
                    cfg.socketPath.c_str(), server.boundTcpPort());
    } else {
        std::printf("pacman-oracled: listening on %s\n",
                    cfg.socketPath.c_str());
    }
    std::fflush(stdout);

    while (g_stop == 0 && !server.draining())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::printf("pacman-oracled: draining\n");
    std::fflush(stdout);
    server.requestDrain();
    server.waitDrained();

    if (!args.metricsOut.empty()) {
        std::ofstream out(args.metricsOut, std::ios::trunc);
        out << server.metricsJson() << "\n";
    }
    std::printf("pacman-oracled: drained, exiting\n");
    return 0;
}
