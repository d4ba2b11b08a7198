/**
 * @file
 * pacbench: runs one benchmark workload and prints its result.
 *
 *   pacbench --workload bf_sweep|acc_noisy|oracled_mixed --seed N
 *            --seconds S [--trace 0|1] [--trace-out FILE]
 *            [--work-dir DIR]
 *
 * The last line of standard output is `RESULT {json}`: correctness,
 * items attempted and failed (by cause), the end-to-end metrics of an
 * untraced run, and the digest of the run's simulated statistics.
 * With --trace 1 the run also records spans and counters and writes
 * them to --trace-out as Chrome trace-event JSON for summarize.py.
 * The digest is checked against the one stored for the same workload
 * and seed in DIR/digests.txt by any earlier run, traced or not.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "base/logging.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

int
main(int argc, char **argv)
{
    Options opt;
    std::string trace_out = "pacbench-trace.json";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload")
            opt.workload = v;
        else if (flag == "--seed")
            opt.seed = std::strtoull(v, nullptr, 0);
        else if (flag == "--seconds")
            opt.seconds = std::strtod(v, nullptr);
        else if (flag == "--trace")
            opt.trace = std::strcmp(v, "0") != 0;
        else if (flag == "--trace-out")
            trace_out = v;
        else if (flag == "--work-dir")
            opt.workDir = v;
        else {
            std::fprintf(stderr, "pacbench: unknown flag %s\n", flag.c_str());
            return 2;
        }
    }
    if (opt.seconds <= 0) {
        std::fprintf(stderr, "pacbench: --seconds must be positive\n");
        return 2;
    }
    pacman::setLogLevel(pacman::LogLevel::Quiet);

    Result res;
    if (opt.workload == "bf_sweep")
        res = runBfSweep(opt);
    else if (opt.workload == "acc_noisy")
        res = runAccNoisy(opt);
    else if (opt.workload == "oracled_mixed")
        res = runOracledMixed(opt);
    else {
        std::fprintf(stderr, "pacbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    const std::string key = pacman::strprintf(
        "%s seed=%llu seconds=%g", opt.workload.c_str(),
        (unsigned long long)opt.seed, opt.seconds);
    std::printf("digest %016llx: %s\n",
                (unsigned long long)digestOf(res.digest), res.digest.c_str());
    const std::string digest =
        pacman::strprintf("%016llx", (unsigned long long)digestOf(res.digest));
    if (res.correct && !res.digest.empty() &&
        !checkDigest(opt.workDir + "/digests.txt", key, digest))
        res.wrong("simulated-statistics digest differs from an earlier run "
                  "of the same seed");
    res.digest = digest;
    res.set("rss_mb", peakRssMb(), "MB");
    // The complement of the error rate: spreads and regressions are
    // judged as shares of a metric's median, and a clean run's error
    // rate is 0.
    res.set("success_rate",
            res.attempted ? 1.0 - double(res.failed()) / double(res.attempted)
                          : 0.0,
            "share");

    if (opt.trace && !Tracer::global().write(trace_out)) {
        std::fprintf(stderr, "pacbench: cannot write %s\n",
                     trace_out.c_str());
        return 1;
    }
    std::printf("RESULT %s\n", resultJson(res).c_str());
    std::fflush(stdout);
    return 0;
}
