/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one timed call the benchmark makes into a simulator
 * module: its name ("<layer>.<function>"), start and end, the span
 * that caused it, an optional request id shared by the spans of one
 * served request, and `n`, the number of calls it covers (a span
 * around a loop of n identical calls reports their total). Spans are
 * kept in per-thread buffers while the run is measured and written
 * once, at the end, as Chrome trace-event JSON; summarize.py derives
 * self times and the per-layer metrics from that file.
 *
 * While tracing is disabled a ScopedSpan costs one relaxed load.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench
{

struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 = root
    uint64_t request = 0; //!< 0 = not part of a served request
    uint64_t n = 1;
    uint32_t tid = 0;
};

class Tracer
{
  public:
    static Tracer &global();

    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Nanoseconds on the trace clock (steady_clock since the tracer
     *  was created). */
    int64_t nowNs() const;
    int64_t toNs(Clock::time_point t) const;

    uint64_t newId() { return nextId_.fetch_add(1) + 1; }

    /** Record a finished span on the calling thread's buffer. */
    void record(const Span &s);

    /** Add @p v to the named counter (counters travel with the trace). */
    void count(const std::string &name, double v);

    /** Write every span and counter as Chrome trace-event JSON. */
    bool write(const std::string &path);

    /** Id of the innermost open ScopedSpan on this thread (0 = none). */
    static uint64_t current();

  private:
    friend class ScopedSpan;
    struct Buffer
    {
        uint32_t tid = 0;
        std::vector<Span> spans;
    };
    Buffer &buffer();

    Clock::time_point epoch_ = Clock::now();
    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> nextId_{0};
    std::mutex mu_; // guards buffers_ and counters_
    std::vector<std::unique_ptr<Buffer>> buffers_;
    std::map<std::string, double> counters_;
};

/** RAII span: opens at construction, records at destruction. */
class ScopedSpan
{
  public:
    /** @p parent 0 nests under the thread's innermost open span. */
    explicit ScopedSpan(const char *name, uint64_t n = 1,
                        uint64_t parent = 0, uint64_t request = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id (0 while tracing is off). */
    uint64_t id() const { return span_.id; }

    /** Record the span now instead of at destruction. */
    void end();

  private:
    Span span_;
    uint64_t outer_ = 0;
    bool on_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
