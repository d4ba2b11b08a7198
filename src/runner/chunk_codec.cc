#include "chunk_codec.hh"

#include <type_traits>

#include "base/logging.hh"
#include "runner/protocol.hh"

namespace pacman::runner
{

namespace
{

/** Stream id for per-trial PAC-key rotation (accuracy campaigns):
 *  key draws must come from a stream distinct from the trial's main
 *  stream or the first jitter draws would correlate with the keys. */
constexpr uint64_t KeySeedStream = 0x4B65'7973ull; // "Keys"

// --- Chunk payload (de)serialization -------------------------------
//
// A run (a brute-force chunk, or one accuracy trial) travels as tagged
// lines (runner/protocol.hh), each written from its struct's field
// list: S (found + 1, or 0 for none, then the search counters), O, F,
// a brute-force chunk's D (its decision samples in insertion order:
// mean() sums in that order) and, if quarantined, Q.

/** The S, O, F and D lines, as the bits a decoder marks. */
enum RunLine : unsigned
{
    SLine = 1,
    OLine = 2,
    FLine = 4,
    DLine = 8,
};

template <class Run>
std::string
encodeRun(const Run &r)
{
    LineWriter s("S"), o("O"), f("F");
    s << (r.stats.found ? uint64_t(*r.stats.found) + 1 : 0);
    attack::BruteForceStats::forEachField(s, r.stats);
    attack::OracleStats::forEachField(o, r.oracle);
    FaultStats::forEachField(f, r.faults);
    std::string out = s.str() + o.str() + f.str();
    if constexpr (std::is_same_v<Run, BfChunkResult>) {
        LineWriter d("D");
        d << uint64_t(r.decisions.count());
        for (double v : r.decisions.samples())
            d << v;
        out += d.str();
    }
    return r.quarantine ? out + "Q " + r.quarantine->serialize() + "\n"
                        : out;
}

/** Read the current line into @p r if it is one of a run's lines,
 *  marking it in @p seen; false if it is malformed. */
template <class Run>
bool
decodeRunLine(LineReader &in, Run &r, unsigned &seen)
{
    const std::string_view tag = in.tag();
    if (tag == "S") {
        uint64_t found1 = 0;
        r.stats = attack::BruteForceStats{};
        if (in.number(found1, 10, 0x10000) && found1)
            r.stats.found = uint16_t(found1 - 1);
        attack::BruteForceStats::forEachField(in, r.stats);
        seen |= SLine;
    } else if (tag == "O") {
        attack::OracleStats::forEachField(in, r.oracle);
        seen |= OLine;
    } else if (tag == "F") {
        FaultStats::forEachField(in, r.faults);
        seen |= FLine;
    } else if (tag == "Q") {
        r.quarantine = QuarantineRecord::parse(std::string(in.rest()));
        return r.quarantine.has_value();
    } else if constexpr (std::is_same_v<Run, BfChunkResult>) {
        if (tag == "D") {
            uint64_t n = 0;
            in >> n;
            r.decisions.reset();
            for (double v = 0; n > 0 && in >> v; --n)
                r.decisions.add(v);
            seen |= DLine;
        }
    }
    return bool(in);
}

QuarantineRecord
makeQuarantineRecord(const char *campaign, uint64_t campaign_seed,
                     uint64_t chunk_index, uint64_t first_item,
                     uint64_t last_item, const WorkRequest &req,
                     const WorkOutcome &outcome)
{
    QuarantineRecord qr;
    qr.campaign = campaign;
    qr.campaignSeed = campaign_seed;
    qr.chunkIndex = chunk_index;
    qr.firstItem = first_item;
    qr.lastItem = last_item;
    qr.streamSeed = req.streamSeed;
    if (req.rekeySeed) {
        qr.rekeySeed = *req.rekeySeed;
        qr.hasRekey = true;
    }
    qr.kind = outcome.quarantined.value_or(
        WorkerFaultKind::PoisonedItem);
    qr.detail = outcome.detail;
    return qr;
}

} // anonymous namespace

attack::ResamplePolicy
resamplePolicy(const ReplicaConfig &cfg)
{
    attack::ResamplePolicy policy;
    policy.samples = cfg.samples;
    policy.maxSamples = cfg.maxSamples;
    policy.candidateRetries = cfg.candidateRetries;
    return policy;
}

std::string
encodeBfChunk(const BfChunkResult &r)
{
    return encodeRun(r);
}

bool
decodeBfChunk(const std::string &payload, BfChunkResult &r)
{
    r = BfChunkResult{};
    unsigned seen = 0;
    for (LineReader in(payload); in.next();)
        if (!decodeRunLine(in, r, seen))
            return false;
    return seen == (SLine | OLine | FLine | DLine);
}

std::string
encodeTrialChunk(const std::vector<TrialResult> &trials,
                 const Chunk &chunk)
{
    std::string out;
    for (uint64_t t = chunk.firstItem; t <= chunk.lastItem; ++t) {
        const TrialResult &r = trials[t - chunk.firstItem];
        out += (LineWriter("T") << t << r.verdict).str() + encodeRun(r);
    }
    return out;
}

bool
decodeTrialChunk(const std::string &payload,
                 std::vector<TrialResult> &trials, const Chunk &chunk)
{
    const uint64_t count = chunk.lastItem - chunk.firstItem + 1;
    if (trials.size() != count)
        trials.assign(count, TrialResult{});
    // Every trial once, in order, each with its own S, O and F lines.
    constexpr unsigned Complete = SLine | OLine | FLine;
    uint64_t next = 0;
    unsigned seen = 0;
    for (LineReader in(payload); in.next();) {
        if (in.tag() == "T") {
            uint64_t t = 0;
            TrialVerdict v{};
            if (!(in >> t >> v) || next == count ||
                t != chunk.firstItem + next ||
                (next > 0 && seen != Complete))
                return false;
            trials[next] = TrialResult{};
            trials[next++].verdict = v;
            seen = 0;
        } else if (next == 0 || !decodeRunLine(in, trials[next - 1], seen)) {
            return false;
        }
    }
    return next == count && seen == Complete;
}

std::string
executeBfChunk(Worker &w, const BruteForceCampaignConfig &cfg,
               const Chunk &chunk)
{
    BfChunkResult r;
    // Same provision seed on every replica (same PAC keys — they are
    // sweeping for the *same* PAC), per-chunk RNG stream from the
    // item's index.
    const WorkRequest req{chunk.index,
                          Random::deriveSeed(cfg.seed, chunk.index),
                          std::nullopt};
    const WorkOutcome oc = w.run(
        req, [&](attack::PacOracle &oracle, kernel::Machine &) {
            // Reset first: the recovery ladder may run this several
            // times for one chunk.
            r = BfChunkResult{};
            attack::PacBruteForcer forcer(oracle,
                                          resamplePolicy(cfg.replica));
            r.stats = forcer.search(
                uint16_t(cfg.first + chunk.firstItem),
                uint16_t(cfg.first + chunk.lastItem), &r.decisions);
            r.oracle = oracle.stats();
        });
    r.faults = w.faultStats();
    if (!oc.completed) {
        // No rung completed the chunk: drop the partial attempt's
        // statistics and quarantine it.
        r = BfChunkResult{};
        r.quarantine = makeQuarantineRecord(
            "bruteforce", cfg.seed, chunk.index,
            cfg.first + chunk.firstItem, cfg.first + chunk.lastItem,
            req, oc);
    }
    return encodeBfChunk(r);
}

std::string
executeAccuracyChunk(Worker &w, const AccuracyCampaignConfig &cfg,
                     const Chunk &chunk)
{
    std::vector<TrialResult> trials(chunk.lastItem - chunk.firstItem +
                                    1);
    for (uint64_t trial = chunk.firstItem; trial <= chunk.lastItem;
         ++trial) {
        // Fresh keys per trial — rekey from a dedicated key stream
        // (the checkpointed equivalent of a per-trial reboot) — then
        // the per-trial main stream.
        const uint64_t stream = Random::deriveSeed(cfg.seed, trial);
        const WorkRequest req{trial, stream,
                              Random::deriveSeed(stream, KeySeedStream)};
        TrialResult &r = trials[trial - chunk.firstItem];
        const WorkOutcome oc = w.run(
            req, [&](attack::PacOracle &oracle,
                     kernel::Machine &machine) {
                runAccuracyTrial(cfg, oracle, machine, r);
            });
        r.faults = w.faultStats();
        if (!oc.completed) {
            r = TrialResult{};
            r.verdict = TrialVerdict::Quarantined;
            r.quarantine = makeQuarantineRecord("accuracy", cfg.seed,
                                                chunk.index, trial,
                                                trial, req, oc);
        }
    }
    return encodeTrialChunk(trials, chunk);
}

void
runAccuracyTrial(const AccuracyCampaignConfig &cfg,
                 attack::PacOracle &oracle, kernel::Machine &machine,
                 TrialResult &r)
{
    r = TrialResult{};
    const auto sel =
        cfg.replica.oracle.kind == attack::GadgetKind::Data
            ? crypto::PacKeySelect::DA
            : crypto::PacKeySelect::IA;
    const uint16_t truth = machine.kernel().truePac(
        cfg.replica.target, cfg.replica.modifier, sel);

    uint16_t first = 0x0000, last = 0xFFFF;
    if (cfg.window != 0) {
        // Window placed from ground truth for scaling only; each
        // candidate is decided by the oracle.
        const uint32_t start = truth >= cfg.window / 2
                                   ? truth - cfg.window / 2
                                   : 0;
        first = uint16_t(start);
        last = uint16_t(
            std::min<uint32_t>(start + cfg.window - 1, 0xFFFF));
    }

    attack::PacBruteForcer forcer(oracle, resamplePolicy(cfg.replica));
    r.stats = forcer.search(first, last);
    r.oracle = oracle.stats();
    if (!r.stats.found)
        r.verdict = TrialVerdict::FalseNegative;
    else if (*r.stats.found == truth)
        r.verdict = TrialVerdict::TruePositive;
    else
        r.verdict = TrialVerdict::FalsePositive;
}

SupervisionConfig
replaySupervision(const SupervisionConfig &sup)
{
    SupervisionConfig replay = sup;
    replay.journalPath.clear();
    replay.quarantinePath.clear();
    replay.resume = false;
    replay.crashAfterAppends = 0;
    return replay;
}

} // namespace pacman::runner
