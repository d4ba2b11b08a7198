#include "trace.hh"

#include <cstdio>
#include <memory>

namespace perfbench
{

namespace
{

thread_local uint64_t tlsCurrent = 0;

} // anonymous namespace

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

int64_t
Tracer::toNs(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
}

int64_t
Tracer::nowNs() const
{
    return toNs(Clock::now());
}

uint64_t
Tracer::current()
{
    return tlsCurrent;
}

Tracer::Buffer &
Tracer::buffer()
{
    // Buffers outlive their threads: the tracer owns them and writes
    // them out after every measuring thread has been joined.
    thread_local Buffer *tls = nullptr;
    if (!tls) {
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        tls = buffers_.back().get();
        tls->tid = uint32_t(buffers_.size());
    }
    return *tls;
}

void
Tracer::record(const Span &s)
{
    buffer().spans.push_back(s);
}

void
Tracer::count(const std::string &name, double v)
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] += v;
}

bool
Tracer::write(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    bool first = true;
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Buffer> &b : buffers_) {
        for (const Span &s : b->spans) {
            std::fprintf(
                f,
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                "\"parent\":%llu,\"req\":%llu,\"n\":%llu}}",
                first ? "" : ",", s.name, b->tid, double(s.startNs) / 1e3,
                double(s.endNs - s.startNs) / 1e3,
                (unsigned long long)s.id, (unsigned long long)s.parent,
                (unsigned long long)s.request, (unsigned long long)s.n);
            first = false;
        }
    }
    std::fprintf(f, "\n],\"otherData\":{\"counters\":{");
    first = true;
    for (const auto &[name, v] : counters_) {
        std::fprintf(f, "%s\n\"%s\":%.17g", first ? "" : ",", name.c_str(),
                     v);
        first = false;
    }
    std::fprintf(f, "\n}}}\n");
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char *name, uint64_t n, uint64_t parent,
                       uint64_t request)
{
    Tracer &t = Tracer::global();
    if (!t.enabled())
        return;
    on_ = true;
    span_.name = name;
    span_.n = n;
    span_.request = request;
    span_.id = t.newId();
    span_.parent = parent ? parent : tlsCurrent;
    outer_ = tlsCurrent;
    tlsCurrent = span_.id;
    span_.startNs = t.nowNs();
}

ScopedSpan::~ScopedSpan()
{
    end();
}

void
ScopedSpan::end()
{
    if (!on_)
        return;
    on_ = false;
    Tracer &t = Tracer::global();
    span_.endNs = t.nowNs();
    tlsCurrent = outer_;
    t.record(span_);
}

} // namespace perfbench
