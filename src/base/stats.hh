/**
 * @file
 * Lightweight statistics containers used by the benchmark harnesses:
 * sample accumulators (median/percentile), integer histograms, and an
 * ASCII table formatter for printing paper-style rows.
 */

#ifndef PACMAN_BASE_STATS_HH
#define PACMAN_BASE_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pacman
{

/**
 * Accumulates scalar samples and answers order-statistic queries.
 * Samples are stored; suitable for the 1e3..1e5 sample counts used by
 * the reproduction experiments.
 */
class SampleStat
{
  public:
    /** Add one sample. */
    void add(double v);

    /** Number of samples recorded. */
    size_t count() const { return samples_.size(); }

    /** Arithmetic mean (0 if empty). */
    double mean() const;

    /** Sample standard deviation (0 if fewer than 2 samples). */
    double stddev() const;

    /** Smallest sample. */
    double min() const;

    /** Largest sample. */
    double max() const;

    /** Median (mean of the two middle elements for even counts). */
    double median() const;

    /**
     * p-th percentile with p in [0, 100], linear interpolation between
     * the two bracketing order statistics (rank = p/100 * (n-1)).
     * Requires at least one sample.
     */
    double percentile(double p) const;

    /**
     * Standard error of the mean: stddev / sqrt(n). 0 with fewer
     * than 2 samples (no spread information yet).
     */
    double stderrOfMean() const;

    /**
     * Half-width of the mean's confidence interval at @p z standard
     * errors (z = 1.96 for ~95%). The adaptive resampler treats a
     * decision as ambiguous while the threshold sits within
     * mean() +/- marginOfError(z).
     */
    double marginOfError(double z) const;

    /**
     * Fold @p other's samples into this accumulator. Associative and
     * commutative with respect to every query above, so per-worker
     * accumulators from a parallel campaign can be merged in any
     * order and still report identical statistics.
     */
    void merge(const SampleStat &other);

    /** Discard all samples. */
    void reset() { samples_.clear(); sorted_ = true; }

    /** Access raw samples (unsorted insertion order not preserved). */
    const std::vector<double> &samples() const { return samples_; }

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * Histogram over non-negative integer values (e.g. "number of TLB misses
 * observed per trial" in Figure 8).
 */
class Histogram
{
  public:
    /** Count one occurrence of @p value. */
    void add(uint64_t value);

    /** Total occurrences recorded. */
    uint64_t total() const { return total_; }

    /** Occurrences of exactly @p value. */
    uint64_t countOf(uint64_t value) const;

    /** Fraction of samples <= @p value. */
    double fractionAtMost(uint64_t value) const;

    /** Fraction of samples >= @p value. */
    double fractionAtLeast(uint64_t value) const;

    /** Largest recorded value (0 if empty). */
    uint64_t maxValue() const;

    /**
     * Render as an ASCII bar chart, one row per value in [0, maxShown],
     * with percentage labels — the textual analogue of Figure 8.
     */
    std::string render(uint64_t max_shown, unsigned width = 50) const;

    const std::map<uint64_t, uint64_t> &buckets() const { return counts_; }

  private:
    std::map<uint64_t, uint64_t> counts_;
    uint64_t total_ = 0;
};

/**
 * Fixed-column ASCII table builder used by every bench binary to print
 * the rows the paper's tables/figures report.
 */
class TextTable
{
  public:
    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a data row. */
    void row(std::vector<std::string> cells);

    /** Render with column alignment and a separator under the header. */
    std::string render() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf-style std::string formatter. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * @p s whole as an unsigned number in @p base with 1 to @p max_digits
 * digits: no sign, prefix, space or other character. The one reader
 * of numbers in text the tree accepts from outside: wire arguments,
 * journal headers and keys, record lines and command-line flags.
 */
bool parseWhole(std::string_view s, uint64_t *value, int base = 10,
                size_t max_digits = 20);

} // namespace pacman

#endif // PACMAN_BASE_STATS_HH
