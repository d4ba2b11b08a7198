#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/random.hh"
#include "base/stats.hh"
#include "sim/fingerprint.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    pacman::SampleStat s;
    for (double x : v)
        s.add(x);
    return s.percentile(p);
}

double
tailPercentile(size_t n, double want)
{
    if (n == 0)
        return 50.0;
    const double supported = 100.0 * (1.0 - 10.0 / double(n));
    return std::max(50.0, std::min(want, supported));
}

Summary
summarize(const std::vector<double> &samples, double want)
{
    Summary s;
    s.n = samples.size();
    s.p50 = percentile(samples, 50.0);
    s.tailP = tailPercentile(s.n, want);
    s.tail = percentile(samples, s.tailP);
    return s;
}

std::vector<double>
poissonArrivals(uint64_t seed, double rate, double duration)
{
    std::vector<double> at;
    if (rate <= 0)
        return at;
    pacman::Random rng(seed);
    double t = 0;
    for (;;) {
        // 1 - u lies in (0, 1], so the log is finite.
        t += -std::log(1.0 - rng.nextDouble()) / rate;
        if (t >= duration)
            return at;
        at.push_back(t);
    }
}

bool
Lateness::record(double due, double sent)
{
    const double late = std::max(0.0, sent - due);
    late_.push_back(late);
    max_ = std::max(max_, late);
    if (late > limit_) {
        ++pastLimit_;
        return true;
    }
    return false;
}

const char *
failureName(Failure f)
{
    switch (f) {
      case Failure::Quarantined:
        return "quarantined";
      case Failure::Busy:
        return "busy";
      case Failure::WireError:
        return "wire_error";
      case Failure::Timeout:
        return "timeout";
      case Failure::Late:
        return "late";
      case Failure::WrongVerdict:
        return "wrong_verdict";
      case Failure::Count:
        break;
    }
    return "?";
}

uint64_t
Result::failed() const
{
    uint64_t n = 0;
    for (uint64_t f : failures)
        n += f;
    return n;
}

void
Result::wrong(const std::string &why)
{
    correct = false;
    if (errors.size() < 20)
        errors.push_back(why);
}

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out + "\"";
}

} // anonymous namespace

std::string
resultJson(const Result &r)
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\":" << (r.correct ? "true" : "false")
        << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed()
        << ",\"failures\":{";
    for (size_t f = 0; f < size_t(Failure::Count); ++f) {
        out << (f ? "," : "") << "\"" << failureName(Failure(f))
            << "\":" << r.failures[f];
    }
    out << "},\"metrics\":{";
    bool first = true;
    for (const auto &[name, m] : r.metrics) {
        out << (first ? "" : ",") << jsonString(name) << ":{\"value\":"
            << m.value << ",\"unit\":" << jsonString(m.unit) << "}";
        first = false;
    }
    out << "},\"digest\":" << jsonString(r.digest) << ",\"errors\":[";
    for (size_t i = 0; i < r.errors.size(); ++i)
        out << (i ? "," : "") << jsonString(r.errors[i]);
    out << "]}";
    return out.str();
}

uint64_t
digestOf(const std::string &text)
{
    pacman::sim::StateDigest d;
    d.bytes(text.data(), text.size());
    return d.value();
}

bool
checkDigest(const std::string &path, const std::string &key,
            const std::string &digest)
{
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            const size_t sp = line.rfind(' ');
            if (sp != std::string::npos && line.substr(0, sp) == key)
                return line.substr(sp + 1) == digest;
        }
    }
    std::ofstream out(path, std::ios::app);
    out << key << " " << digest << "\n";
    return true;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace perfbench
