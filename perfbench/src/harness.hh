/**
 * @file
 * Measurement helpers shared by the benchmark's workloads: the
 * percentile/sample-count rule, the seeded open-loop arrival schedule,
 * generator-lateness accounting, the result record every workload
 * fills, and the cross-run digest store.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Median of @p v (mean of the middle two for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** Percentile @p p (0..100) of @p v as SampleStat::percentile
 *  computes it; 0 if empty. */
double percentile(std::vector<double> v, double p);

/**
 * The highest percentile, at most @p want, that leaves at least ten
 * samples above it in a sample of @p n: min(want, 100 * (1 - 10/n)).
 * Never below the median, which every non-empty sample supports.
 */
double tailPercentile(size_t n, double want = 99.0);

/** A latency sample reduced by the rule above. */
struct Summary
{
    size_t n = 0;
    double p50 = 0;
    double tailP = 0; //!< the percentile actually reported as the tail
    double tail = 0;
};

Summary summarize(const std::vector<double> &samples, double want = 99.0);

/**
 * Poisson arrival offsets (seconds from the phase start) at @p rate
 * per second over [0, @p duration): exponential gaps drawn from a
 * generator seeded with @p seed. The same arguments always give the
 * same schedule.
 */
std::vector<double> poissonArrivals(uint64_t seed, double rate,
                                    double duration);

/**
 * How late an open-loop generator sent its requests: each send is
 * recorded against the time it was due. Requests sent more than
 * @p limit seconds late count as failed measurements.
 */
class Lateness
{
  public:
    explicit Lateness(double limit) : limit_(limit) {}

    /** Record one send; returns true when it was late past the limit. */
    bool record(double due, double sent);

    size_t pastLimit() const { return pastLimit_; }
    double max() const { return max_; }
    double p99() const { return percentile(late_, 99.0); }

  private:
    double limit_;
    std::vector<double> late_;
    size_t pastLimit_ = 0;
    double max_ = 0;
};

/** Why a request or item failed; every failure has exactly one. */
enum class Failure
{
    Quarantined,
    Busy,
    WireError,
    Timeout,
    Late,
    WrongVerdict,
    Count,
};

const char *failureName(Failure f);

/** One reported metric. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** Everything a workload run reports. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failures[size_t(Failure::Count)] = {};
    std::map<std::string, Metric> metrics;
    std::vector<std::string> errors; //!< why `correct` is false

    /** Canonical text of the run's simulated statistics; identical
     *  for every run of one seed, traced or not. */
    std::string digest;

    uint64_t failed() const;
    void fail(Failure f, uint64_t n = 1) { failures[size_t(f)] += n; }

    /** Record a correctness violation (sets correct = false). */
    void wrong(const std::string &why);

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

/** Render @p r as the single-line JSON object run.py relays. */
std::string resultJson(const Result &r);

/** sim::StateDigest of @p text (digest lines print this). */
uint64_t digestOf(const std::string &text);

/**
 * Compare @p digest against the one stored under @p key in the
 * digest file at @p path (one "key digest" line each), storing it if
 * absent. Returns false when a different digest is already stored.
 */
bool checkDigest(const std::string &path, const std::string &key,
                 const std::string &digest);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
