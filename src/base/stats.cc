#include "stats.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "logging.hh"

namespace pacman
{

void
SampleStat::add(double v)
{
    samples_.push_back(v);
    sorted_ = false;
}

void
SampleStat::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
SampleStat::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : samples_)
        sum += v;
    return sum / double(samples_.size());
}

double
SampleStat::stddev() const
{
    if (samples_.size() < 2)
        return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double v : samples_)
        acc += (v - m) * (v - m);
    return std::sqrt(acc / double(samples_.size() - 1));
}

double
SampleStat::stderrOfMean() const
{
    if (samples_.size() < 2)
        return 0.0;
    return stddev() / std::sqrt(double(samples_.size()));
}

double
SampleStat::marginOfError(double z) const
{
    return z * stderrOfMean();
}

double
SampleStat::min() const
{
    PACMAN_ASSERT(!samples_.empty(), "min() of empty SampleStat");
    ensureSorted();
    return samples_.front();
}

double
SampleStat::max() const
{
    PACMAN_ASSERT(!samples_.empty(), "max() of empty SampleStat");
    ensureSorted();
    return samples_.back();
}

double
SampleStat::median() const
{
    return percentile(50.0);
}

double
SampleStat::percentile(double p) const
{
    PACMAN_ASSERT(!samples_.empty(), "percentile() of empty SampleStat");
    PACMAN_ASSERT(p >= 0.0 && p <= 100.0, "percentile %f out of [0,100]",
                  p);
    ensureSorted();
    // Linear interpolation between the two bracketing order
    // statistics. Truncating the fractional rank (the old behaviour)
    // biases tail percentiles low: p90 of 100 samples landed on the
    // 90th order statistic instead of 0.1 of the way to the 91st.
    const double rank = p / 100.0 * double(samples_.size() - 1);
    const size_t lo = size_t(rank);
    const size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - double(lo);
    return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

void
SampleStat::merge(const SampleStat &other)
{
    if (other.samples_.empty())
        return;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
}

void
Histogram::add(uint64_t value)
{
    ++counts_[value];
    ++total_;
}

uint64_t
Histogram::countOf(uint64_t value) const
{
    auto it = counts_.find(value);
    return it == counts_.end() ? 0 : it->second;
}

double
Histogram::fractionAtMost(uint64_t value) const
{
    if (total_ == 0)
        return 0.0;
    uint64_t acc = 0;
    for (const auto &[v, n] : counts_) {
        if (v > value)
            break;
        acc += n;
    }
    return double(acc) / double(total_);
}

double
Histogram::fractionAtLeast(uint64_t value) const
{
    if (total_ == 0)
        return 0.0;
    uint64_t acc = 0;
    for (const auto &[v, n] : counts_) {
        if (v >= value)
            acc += n;
    }
    return double(acc) / double(total_);
}

uint64_t
Histogram::maxValue() const
{
    return counts_.empty() ? 0 : counts_.rbegin()->first;
}

std::string
Histogram::render(uint64_t max_shown, unsigned width) const
{
    std::ostringstream out;
    uint64_t peak = 0;
    for (const auto &[v, n] : counts_)
        peak = std::max(peak, n);
    if (peak == 0)
        peak = 1;
    for (uint64_t v = 0; v <= max_shown; ++v) {
        const uint64_t n = countOf(v);
        const unsigned bar = unsigned(double(n) / double(peak) * width);
        out << strprintf("%4llu | %-*s %6.2f%% (%llu)\n",
                         (unsigned long long)v, int(width),
                         std::string(bar, '#').c_str(),
                         total_ ? 100.0 * double(n) / double(total_) : 0.0,
                         (unsigned long long)n);
    }
    uint64_t beyond = 0;
    for (const auto &[v, n] : counts_) {
        if (v > max_shown)
            beyond += n;
    }
    if (beyond > 0) {
        out << strprintf("  >%llu: %llu samples\n",
                         (unsigned long long)max_shown,
                         (unsigned long long)beyond);
    }
    return out.str();
}

void
TextTable::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
TextTable::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    size_t ncols = header_.size();
    for (const auto &r : rows_)
        ncols = std::max(ncols, r.size());

    std::vector<size_t> widths(ncols, 0);
    auto account = [&](const std::vector<std::string> &r) {
        for (size_t i = 0; i < r.size(); ++i)
            widths[i] = std::max(widths[i], r[i].size());
    };
    account(header_);
    for (const auto &r : rows_)
        account(r);

    std::ostringstream out;
    auto emit = [&](const std::vector<std::string> &r) {
        for (size_t i = 0; i < ncols; ++i) {
            const std::string cell = i < r.size() ? r[i] : "";
            out << cell << std::string(widths[i] - cell.size(), ' ');
            if (i + 1 < ncols)
                out << "  ";
        }
        out << '\n';
    };
    if (!header_.empty()) {
        emit(header_);
        size_t total = 0;
        for (size_t w : widths)
            total += w;
        out << std::string(total + 2 * (ncols - 1), '-') << '\n';
    }
    for (const auto &r : rows_)
        emit(r);
    return out.str();
}

std::string
strprintf(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::va_list ap2;
    va_copy(ap2, ap);
    const int len = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(size_t(len), '\0');
    std::vsnprintf(out.data(), size_t(len) + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

bool
parseWhole(std::string_view s, uint64_t *value, int base, size_t max_digits)
{
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, *value, base);
    return s.size() <= max_digits && ec == std::errc() && ptr == end;
}

} // namespace pacman
