/**
 * @file
 * PAC brute-forcing on top of the oracle (paper Section 8.2): sweep
 * candidate PACs through the crash-free oracle, optionally with
 * median-of-k sampling, and report speed/accuracy statistics.
 */

#ifndef PACMAN_ATTACK_BRUTEFORCE_HH
#define PACMAN_ATTACK_BRUTEFORCE_HH

#include <cstddef>
#include <cstdint>
#include <optional>

#include "attack/oracle.hh"
#include "base/fields.hh"
#include "base/stats.hh"

namespace pacman::attack
{

/**
 * Adaptive sampling policy for one brute-force candidate. The legacy
 * fixed median-of-k behaviour (and its exact oracle-query sequence)
 * is the default: no escalation, no retries.
 */
struct ResamplePolicy
{
    /** Initial oracle samples per candidate (paper: 5, median). */
    unsigned samples = 1;

    /**
     * Escalation ceiling: while a candidate's verdict is ambiguous,
     * keep adding escalateBy samples up to this many. 0 (or a value
     * <= samples) disables escalation — the legacy fixed median-of-k.
     */
    unsigned maxSamples = 0;

    /** Extra samples added per escalation step. */
    unsigned escalateBy = 2;

    /** A verdict is ambiguous when the median lands within this
     *  distance of missThreshold... */
    double ambiguity = 1.0;

    /** ...or when the sample mean sits within z standard errors of
     *  missThreshold (only meaningful with >= 2 samples). */
    double z = 2.0;

    /** Full re-measurements granted to a candidate whose verdict is
     *  still ambiguous after escalation ran dry. */
    unsigned candidateRetries = 0;

    /** True when this policy can take more than `samples` queries. */
    bool
    adaptive() const
    {
        return maxSamples > samples || candidateRetries > 0;
    }
};

/** Brute-force run statistics. */
struct BruteForceStats
{
    uint64_t guessesTested = 0;
    uint64_t oracleQueries = 0;
    uint64_t cyclesSimulated = 0;  //!< guest cycles consumed
    uint64_t samplesTaken = 0;     //!< oracle samples across candidates
    uint64_t escalations = 0;      //!< ambiguous verdicts escalated
    uint64_t candidateRetries = 0; //!< full candidate re-measurements
    std::optional<uint16_t> found; //!< matching PAC, if any

    /** The field list (base/fields.hh): the counters. merge() and the
     *  codec handle `found` themselves. */
    template <typename F, typename... Stats>
    static constexpr void
    forEachField(F &&f, Stats &...s)
    {
        f("guesses_tested", s.guessesTested...);
        f("oracle_queries", s.oracleQueries...);
        f("cycles_simulated", s.cyclesSimulated...);
        f("samples_taken", s.samplesTaken...);
        f("escalations", s.escalations...);
        f("candidate_retries", s.candidateRetries...);
    }

    /**
     * Fold @p other into this. Counters sum; when both runs found a
     * PAC the lowest candidate wins, matching what one serial
     * low-to-high sweep over the union of the two ranges reports.
     */
    void merge(const BruteForceStats &other);
};

// Every counter before `found` is listed.
static_assert(fieldCount<BruteForceStats>() * sizeof(uint64_t) ==
              offsetof(BruteForceStats, found));

/** PAC search driver. */
class PacBruteForcer
{
  public:
    /**
     * @param oracle  A target-bound oracle.
     * @param samples Oracle samples per candidate (paper: 5, median).
     */
    PacBruteForcer(PacOracle &oracle, unsigned samples = 1);

    /** Adaptive-resampling construction. */
    PacBruteForcer(PacOracle &oracle, const ResamplePolicy &policy);

    /**
     * Test candidates [first, last] in order; stop at the first hit.
     * The full space is first = 0x0000, last = 0xFFFF (paper
     * Section 8.2: "testing every possible PAC value starting from
     * 0x0 to 0xFFFF").
     *
     * @param decision_stat If non-null, receives one sample per
     *        tested candidate: the median-of-k probe-miss count the
     *        verdict was based on. Batch callers (the campaign
     *        runner) merge these per-chunk accumulators into the
     *        campaign-wide distribution.
     */
    BruteForceStats search(uint16_t first = 0x0000,
                           uint16_t last = 0xFFFF,
                           SampleStat *decision_stat = nullptr);

    /**
     * Baseline for contrast: what brute force *without* the oracle
     * looks like — architecturally dereferencing each guess.
     * Returns after the first guess because the machine crashes (and
     * on a real system the keys would rotate on restart).
     */
    static const char *naiveBruteForceOutcome();

    const ResamplePolicy &policy() const { return policy_; }

  private:
    /** Median-of-k measurement of one candidate, escalating while
     *  the verdict is ambiguous and budget remains. */
    double measure(uint16_t guess, BruteForceStats &stats,
                   bool *ambiguous);

    PacOracle &oracle_;
    ResamplePolicy policy_;
};

} // namespace pacman::attack

#endif // PACMAN_ATTACK_BRUTEFORCE_HH
