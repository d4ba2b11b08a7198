/**
 * @file
 * The campaign chunk codec: one chunk of campaign work as a unit of
 * execution and as a bit-exact serialized payload (DESIGN.md §4h).
 *
 * A chunk result travels three ways and must be identical on all of
 * them: merged in-process right after execution, replayed from the
 * crash-recovery journal on resume, and shipped over the oracle
 * server's wire protocol from a remote replica. This header is the
 * single definition of that unit — the structs, the tagged-line
 * encoding (runner/protocol.hh: each line written from its
 * struct's field list, doubles as their 64-bit patterns so a decode
 * is bit-exact), and the executors that produce a chunk's result
 * against a supervised runner::Worker.
 *
 * The campaign runners (campaign.cc), the journal resume path, and
 * the oracle server (server.cc) all dispatch through encoded chunk
 * payloads, which is what makes a remote campaign's merged
 * fingerprint bit-identical to the in-process run: the bytes being
 * merged are the same bytes.
 */

#ifndef PACMAN_RUNNER_CHUNK_CODEC_HH
#define PACMAN_RUNNER_CHUNK_CODEC_HH

#include <optional>
#include <string>
#include <vector>

#include "runner/campaign.hh"

namespace pacman::runner
{

/** The replica's per-candidate sampling policy. */
attack::ResamplePolicy resamplePolicy(const ReplicaConfig &cfg);

/** One brute-force chunk's completed result (journal/wire unit). */
struct BfChunkResult
{
    attack::BruteForceStats stats;
    SampleStat decisions;
    attack::OracleStats oracle;
    FaultStats faults;
    std::optional<QuarantineRecord> quarantine;
};

/** One accuracy trial's graded outcome. */
enum class TrialVerdict : unsigned
{
    TruePositive = 0,
    FalsePositive = 1,
    FalseNegative = 2,
    Quarantined = 3,
};

/** The last TrialVerdict (a decoded one must not exceed it). */
constexpr TrialVerdict
lastOf(TrialVerdict)
{
    return TrialVerdict::Quarantined;
}

struct TrialResult
{
    TrialVerdict verdict = TrialVerdict::FalseNegative;
    attack::BruteForceStats stats;
    attack::OracleStats oracle;
    FaultStats faults;
    std::optional<QuarantineRecord> quarantine;
};

/** Serialize one brute-force chunk result. */
std::string encodeBfChunk(const BfChunkResult &r);

/** Parse encodeBfChunk()'s output; false on malformed payload. */
bool decodeBfChunk(const std::string &payload, BfChunkResult &r);

/**
 * Serialize one accuracy chunk: @p trials holds the chunk's trials
 * in chunk-local order (trials[0] is chunk.firstItem). Lines carry
 * the absolute trial index so a payload is self-describing.
 */
std::string encodeTrialChunk(const std::vector<TrialResult> &trials,
                             const Chunk &chunk);

/** Parse encodeTrialChunk()'s output into chunk-local order. */
bool decodeTrialChunk(const std::string &payload,
                      std::vector<TrialResult> &trials,
                      const Chunk &chunk);

/**
 * Execute one brute-force chunk against @p w and return the encoded
 * result payload. Quarantine handling (a chunk no ladder rung could
 * complete contributes only its quarantine record) happens here, so
 * every dispatcher — in-process, resumed, remote — agrees on the
 * payload bytes.
 */
std::string executeBfChunk(Worker &w,
                           const BruteForceCampaignConfig &cfg,
                           const Chunk &chunk);

/** Execute one accuracy chunk (per-trial rekey) against @p w. */
std::string executeAccuracyChunk(Worker &w,
                                 const AccuracyCampaignConfig &cfg,
                                 const Chunk &chunk);

/**
 * The accuracy campaign's per-trial work: rekey already happened in
 * the worker's beginItem; read ground truth, place the window,
 * search, grade. Shared with replayQuarantine so a quarantined trial
 * reproduces the exact campaign execution. Resets @p r first — the
 * recovery ladder may run the function several times for one trial.
 */
void runAccuracyTrial(const AccuracyCampaignConfig &cfg,
                      attack::PacOracle &oracle,
                      kernel::Machine &machine, TrialResult &r);

/** Replay/server-side supervision: same budgets and recovery
 *  ladder, no journal (journaling belongs to the campaign owner). */
SupervisionConfig replaySupervision(const SupervisionConfig &sup);

} // namespace pacman::runner

#endif // PACMAN_RUNNER_CHUNK_CODEC_HH
