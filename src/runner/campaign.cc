#include "campaign.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/journal.hh"
#include "base/logging.hh"
#include "runner/chunk_codec.hh"

namespace pacman::runner
{

namespace
{

using Clock = std::chrono::steady_clock;

std::string
statFingerprint(const SampleStat &s)
{
    if (s.count() == 0)
        return "n=0";
    return strprintf("n=%llu mean=%.17g median=%.17g p90=%.17g "
                     "p99=%.17g min=%.17g max=%.17g",
                     (unsigned long long)s.count(), s.mean(), s.median(),
                     s.percentile(90), s.percentile(99), s.min(),
                     s.max());
}

std::string
robustnessFingerprint(const attack::BruteForceStats &b,
                      const attack::OracleStats &o, const FaultStats &f)
{
    return strprintf(
        "samples=%llu esc=%llu cand_retry=%llu busy_retry=%llu "
        "disturbed=%llu query_retry=%llu calib=%llu repair=%llu "
        "faults=%llu",
        (unsigned long long)b.samplesTaken,
        (unsigned long long)b.escalations,
        (unsigned long long)b.candidateRetries,
        (unsigned long long)o.busyRetries,
        (unsigned long long)o.disturbedQueries,
        (unsigned long long)o.retriedQueries,
        (unsigned long long)o.calibrations,
        (unsigned long long)o.repairs, (unsigned long long)f.total());
}

std::string
quarantineFingerprint(const std::vector<QuarantineRecord> &records)
{
    if (records.empty())
        return "none";
    std::string out;
    for (const QuarantineRecord &r : records) {
        out += strprintf("%sc%llu:%s", out.empty() ? "" : " ",
                         (unsigned long long)r.chunkIndex,
                         workerFaultName(r.kind));
    }
    return out;
}

// --- Campaign journal wiring ---------------------------------------

std::string
chunkKey(uint64_t campaign_seed, uint64_t chunk_index)
{
    return strprintf("chunk/%016llx/%llu",
                     (unsigned long long)campaign_seed,
                     (unsigned long long)chunk_index);
}

/** The journal plus the resume map its replay produced. */
struct CampaignJournal
{
    Journal journal;
    std::unordered_map<uint64_t, std::string> resumable;

    /**
     * Open (or start fresh) per the supervision config and bind the
     * file to this campaign via its meta record. Only records keyed
     * with @p campaign_seed become resumable; a meta record from a
     * *different* campaign configuration is a hard error — resuming
     * someone else's journal would silently merge foreign results.
     */
    void
    open(const SupervisionConfig &sup, uint64_t campaign_seed,
         const std::string &meta_payload)
    {
        if (sup.journalPath.empty())
            return;
        if (!sup.resume)
            std::remove(sup.journalPath.c_str());
        const Journal::Replay replay = journal.open(sup.journalPath);
        journal.crashAfterAppends(sup.crashAfterAppends);
        bool have_meta = false;
        for (const Journal::Record &rec : replay.records) {
            if (rec.key == "meta") {
                PACMAN_ASSERT(
                    rec.payload == meta_payload,
                    "journal %s belongs to a different campaign\n"
                    "  journal: %s\n  campaign: %s",
                    sup.journalPath.c_str(), rec.payload.c_str(),
                    meta_payload.c_str());
                have_meta = true;
                continue;
            }
            unsigned long long seed = 0, index = 0;
            if (sscanf(rec.key.c_str(), "chunk/%16llx/%llu", &seed,
                       &index) == 2 &&
                seed == campaign_seed) {
                resumable[index] = rec.payload; // last record wins
            }
        }
        if (!have_meta)
            journal.append("meta", meta_payload);
    }

    void
    record(uint64_t campaign_seed, uint64_t chunk_index,
           const std::string &payload)
    {
        if (journal.isOpen())
            journal.append(chunkKey(campaign_seed, chunk_index),
                           payload);
    }
};

/** Rewrite the quarantine file from the campaign's final record list
 *  (deterministic; idempotent across resumes). */
void
writeQuarantineFile(const SupervisionConfig &sup,
                    const std::vector<QuarantineRecord> &records)
{
    const std::string path = sup.effectiveQuarantinePath();
    if (path.empty())
        return;
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        warn("cannot write quarantine file %s", path.c_str());
        return;
    }
    for (const QuarantineRecord &r : records)
        out << r.serialize() << "\n";
}

/**
 * First-failure capture for dispatchers. Pool workers run on plain
 * std::threads, so a dispatcher exception cannot propagate through
 * runChunked — it is recorded here, remaining chunks are skipped, and
 * the campaign runner throws CampaignAborted after the pool drains.
 * Already-journaled chunks survive for resume.
 */
struct AbortFlag
{
    std::atomic<bool> aborted{false};
    std::mutex mu;
    std::string why;

    void
    trip(const std::string &reason)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!aborted.exchange(true, std::memory_order_release))
            why = reason;
    }

    bool
    tripped() const
    {
        return aborted.load(std::memory_order_acquire);
    }

    void
    rethrow()
    {
        if (tripped())
            throw CampaignAborted(why);
    }
};

/** Run @p dispatch for one chunk, tripping @p abort on failure.
 *  Returns the decoded-validated payload or nullopt on abort. */
std::optional<std::string>
dispatchChunk(const ChunkDispatcher &dispatch, unsigned worker,
              const Chunk &chunk, AbortFlag &abort)
{
    try {
        return dispatch(worker, chunk);
    } catch (const std::exception &e) {
        abort.trip(strprintf("chunk %llu dispatch failed: %s",
                             (unsigned long long)chunk.index, e.what()));
        return std::nullopt;
    }
}

/**
 * Run a campaign in-process: @p run_with (a run*CampaignWith) drives
 * the pool, each pool worker runs its chunks through @p execute on its
 * own supervised Worker, built on first use, and every Worker's
 * recovery statistics are merged into the result once the pool drains.
 */
template <class Config, class RunWith, class Execute>
auto
runInProcess(const Config &cfg, RunWith run_with, Execute execute)
{
    std::vector<std::unique_ptr<Worker>> workers(
        effectiveJobs(cfg.pool.jobs));
    auto result = run_with(cfg, [&](unsigned worker, const Chunk &chunk) {
        std::unique_ptr<Worker> &slot = workers[worker];
        if (!slot)
            slot = std::make_unique<Worker>(cfg.replica, cfg.supervision);
        return execute(*slot, cfg, chunk);
    });
    for (const std::unique_ptr<Worker> &w : workers) {
        if (w)
            result.recovery.merge(w->recovery());
    }
    return result;
}

} // anonymous namespace

std::string
BruteForceCampaignResult::fingerprint() const
{
    return strprintf(
        "found=%s guesses=%llu queries=%llu cycles=%llu "
        "chunks_merged=%llu decisions[%s] robustness[%s] "
        "quarantined[%s]",
        stats.found ? strprintf("0x%04x", *stats.found).c_str() : "none",
        (unsigned long long)stats.guessesTested,
        (unsigned long long)stats.oracleQueries,
        (unsigned long long)stats.cyclesSimulated,
        (unsigned long long)chunksMerged,
        statFingerprint(decisionMisses).c_str(),
        robustnessFingerprint(stats, oracleStats, faultStats).c_str(),
        quarantineFingerprint(quarantined).c_str());
}

BruteForceCampaignResult
runBruteForceCampaignWith(const BruteForceCampaignConfig &cfg,
                          const ChunkDispatcher &dispatch)
{
    PACMAN_ASSERT(cfg.first <= cfg.last,
                  "brute-force campaign range is empty");
    const uint64_t num_items = uint64_t(cfg.last) - cfg.first + 1;
    const uint64_t num_chunks = chunkCount(num_items, cfg.pool.chunkSize);

    std::vector<BfChunkResult> results(num_chunks);
    std::atomic<uint64_t> resumed{0};
    AbortFlag abort;

    // A payload decodes only if its PAC, if any, is one of the chunk's
    // candidates: anything else would merge a PAC the sweep never
    // tested.
    auto decode = [&](const std::string &payload, const Chunk &chunk,
                      BfChunkResult &r) {
        if (!decodeBfChunk(payload, r))
            return false;
        if (!r.stats.found)
            return true;
        const uint64_t pac = *r.stats.found;
        return pac >= cfg.first + chunk.firstItem &&
               pac <= cfg.first + chunk.lastItem;
    };

    CampaignJournal journal;
    journal.open(cfg.supervision, cfg.seed,
                 strprintf("campaign=bruteforce seed=%016llx first=%u "
                           "last=%u chunk_size=%llu",
                           (unsigned long long)cfg.seed, cfg.first,
                           cfg.last,
                           (unsigned long long)cfg.pool.chunkSize));

    const auto t0 = Clock::now();
    const PoolOutcome outcome = runChunked(
        cfg.pool, num_items,
        [&](unsigned worker, const Chunk &chunk)
            -> std::optional<uint64_t> {
            if (abort.tripped())
                return std::nullopt;
            BfChunkResult &r = results[chunk.index];

            // Resume: a journaled chunk short-circuits — the stored
            // result is bit-exact, so the merge cannot tell.
            auto it = journal.resumable.find(chunk.index);
            if (it != journal.resumable.end() &&
                decode(it->second, chunk, r)) {
                resumed.fetch_add(1, std::memory_order_relaxed);
                if (r.stats.found)
                    return uint64_t(*r.stats.found) - cfg.first;
                return std::nullopt;
            }

            const std::optional<std::string> payload =
                dispatchChunk(dispatch, worker, chunk, abort);
            if (!payload)
                return std::nullopt;
            if (!decode(*payload, chunk, r)) {
                abort.trip(strprintf(
                    "chunk %llu: undecodable result payload",
                    (unsigned long long)chunk.index));
                return std::nullopt;
            }
            journal.record(cfg.seed, chunk.index, *payload);
            if (r.stats.found)
                return uint64_t(*r.stats.found) - cfg.first;
            return std::nullopt;
        });
    const auto t1 = Clock::now();
    abort.rethrow();

    // Merge in chunk order, up to and including the chunk holding the
    // lowest hit — exactly the candidates a serial sweep would have
    // tested before stopping.
    BruteForceCampaignResult result;
    result.jobs = effectiveJobs(cfg.pool.jobs);
    result.chunksRun = outcome.chunksRun;
    result.chunksSkipped = outcome.chunksSkipped;
    result.chunksResumed = resumed.load();
    result.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    for (uint64_t c = 0; c < num_chunks; ++c) {
        if (outcome.firstHit && c * cfg.pool.chunkSize > *outcome.firstHit)
            break;
        result.stats.merge(results[c].stats);
        result.decisionMisses.merge(results[c].decisions);
        result.oracleStats.merge(results[c].oracle);
        result.faultStats.merge(results[c].faults);
        if (results[c].quarantine)
            result.quarantined.push_back(*results[c].quarantine);
        ++result.chunksMerged;
    }
    writeQuarantineFile(cfg.supervision, result.quarantined);
    return result;
}

BruteForceCampaignResult
runBruteForceCampaign(const BruteForceCampaignConfig &cfg)
{
    return runInProcess(cfg, runBruteForceCampaignWith, executeBfChunk);
}

std::string
AccuracyCampaignResult::fingerprint() const
{
    return strprintf(
        "tp=%llu fp=%llu fn=%llu guesses=%llu queries=%llu "
        "cycles=%llu per_trial[%s] robustness[%s] quarantined[%s]",
        (unsigned long long)truePositives,
        (unsigned long long)falsePositives,
        (unsigned long long)falseNegatives,
        (unsigned long long)totals.guessesTested,
        (unsigned long long)totals.oracleQueries,
        (unsigned long long)totals.cyclesSimulated,
        statFingerprint(guessesPerTrial).c_str(),
        robustnessFingerprint(totals, oracleStats, faultStats).c_str(),
        quarantineFingerprint(quarantined).c_str());
}

AccuracyCampaignResult
runAccuracyCampaignWith(const AccuracyCampaignConfig &cfg,
                        const ChunkDispatcher &dispatch)
{
    std::vector<TrialResult> results(cfg.trials);
    std::atomic<uint64_t> resumed{0};
    AbortFlag abort;

    CampaignJournal journal;
    journal.open(cfg.supervision, cfg.seed,
                 strprintf("campaign=accuracy seed=%016llx trials=%llu "
                           "window=%u chunk_size=%llu",
                           (unsigned long long)cfg.seed,
                           (unsigned long long)cfg.trials, cfg.window,
                           (unsigned long long)cfg.pool.chunkSize));

    const auto t0 = Clock::now();
    runChunked(
        cfg.pool, cfg.trials,
        [&](unsigned worker, const Chunk &chunk)
            -> std::optional<uint64_t> {
            if (abort.tripped())
                return std::nullopt;
            std::vector<TrialResult> local(chunk.lastItem -
                                           chunk.firstItem + 1);

            auto it = journal.resumable.find(chunk.index);
            if (it != journal.resumable.end() &&
                decodeTrialChunk(it->second, local, chunk)) {
                resumed.fetch_add(1, std::memory_order_relaxed);
            } else {
                const std::optional<std::string> payload =
                    dispatchChunk(dispatch, worker, chunk, abort);
                if (!payload)
                    return std::nullopt;
                if (!decodeTrialChunk(*payload, local, chunk)) {
                    abort.trip(strprintf(
                        "chunk %llu: undecodable result payload",
                        (unsigned long long)chunk.index));
                    return std::nullopt;
                }
                journal.record(cfg.seed, chunk.index, *payload);
            }
            for (uint64_t t = chunk.firstItem; t <= chunk.lastItem; ++t)
                results[t] = local[t - chunk.firstItem];
            return std::nullopt;
        });
    const auto t1 = Clock::now();
    abort.rethrow();

    AccuracyCampaignResult result;
    result.jobs = effectiveJobs(cfg.pool.jobs);
    result.chunksResumed = resumed.load();
    result.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    for (const TrialResult &r : results) {
        switch (r.verdict) {
          case TrialVerdict::TruePositive:
            ++result.truePositives;
            break;
          case TrialVerdict::FalsePositive:
            ++result.falsePositives;
            break;
          case TrialVerdict::FalseNegative:
            ++result.falseNegatives;
            break;
          case TrialVerdict::Quarantined:
            // Quarantined trials contribute their record, never
            // their partial statistics.
            if (r.quarantine)
                result.quarantined.push_back(*r.quarantine);
            continue;
        }
        // Sum the counters only: `found` differs per trial (fresh
        // keys), so a merged "found" would be meaningless here.
        addFields(result.totals, r.stats);
        result.oracleStats.merge(r.oracle);
        result.faultStats.merge(r.faults);
        result.guessesPerTrial.add(double(r.stats.guessesTested));
    }
    writeQuarantineFile(cfg.supervision, result.quarantined);
    return result;
}

AccuracyCampaignResult
runAccuracyCampaign(const AccuracyCampaignConfig &cfg)
{
    return runInProcess(cfg, runAccuracyCampaignWith,
                        executeAccuracyChunk);
}

WorkOutcome
replayQuarantine(const BruteForceCampaignConfig &cfg,
                 const QuarantineRecord &record)
{
    PACMAN_ASSERT(record.campaign == "bruteforce",
                  "record is for campaign '%s', not bruteforce",
                  record.campaign.c_str());
    Worker w(cfg.replica, replaySupervision(cfg.supervision));
    const WorkRequest req{record.chunkIndex, record.streamSeed,
                          record.hasRekey
                              ? std::optional<uint64_t>(record.rekeySeed)
                              : std::nullopt};
    return w.run(req, [&](attack::PacOracle &oracle,
                          kernel::Machine &) {
        attack::PacBruteForcer forcer(oracle,
                                      resamplePolicy(cfg.replica));
        forcer.search(uint16_t(record.firstItem),
                      uint16_t(record.lastItem));
    });
}

WorkOutcome
replayQuarantine(const AccuracyCampaignConfig &cfg,
                 const QuarantineRecord &record)
{
    PACMAN_ASSERT(record.campaign == "accuracy",
                  "record is for campaign '%s', not accuracy",
                  record.campaign.c_str());
    Worker w(cfg.replica, replaySupervision(cfg.supervision));
    const WorkRequest req{record.firstItem, record.streamSeed,
                          record.hasRekey
                              ? std::optional<uint64_t>(record.rekeySeed)
                              : std::nullopt};
    TrialResult scratch;
    return w.run(req, [&](attack::PacOracle &oracle,
                          kernel::Machine &machine) {
        runAccuracyTrial(cfg, oracle, machine, scratch);
    });
}

} // namespace pacman::runner
