#include "chunk_codec.hh"

#include <bit>
#include <cstdio>
#include <sstream>

#include "base/logging.hh"

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
// Payloads are line-oriented, one tagged line per embedded struct.
// Doubles travel as their 64-bit patterns in hex, so a decoded chunk
// merges bit-identical values — the resume and remote-dispatch
// determinism contracts depend on this, not on printf round-tripping.

std::string
encodeBfStats(const attack::BruteForceStats &s)
{
    return strprintf(
        "S %llu %llu %llu %llu %llu %llu %llu",
        s.found ? (unsigned long long)*s.found + 1 : 0ull,
        (unsigned long long)s.guessesTested,
        (unsigned long long)s.oracleQueries,
        (unsigned long long)s.cyclesSimulated,
        (unsigned long long)s.samplesTaken,
        (unsigned long long)s.escalations,
        (unsigned long long)s.candidateRetries);
}

bool
decodeBfStats(std::istringstream &in, attack::BruteForceStats &s)
{
    unsigned long long found1 = 0, g = 0, q = 0, c = 0, sm = 0, e = 0,
                       r = 0;
    if (!(in >> found1 >> g >> q >> c >> sm >> e >> r))
        return false;
    s = attack::BruteForceStats{};
    if (found1)
        s.found = uint16_t(found1 - 1);
    s.guessesTested = g;
    s.oracleQueries = q;
    s.cyclesSimulated = c;
    s.samplesTaken = sm;
    s.escalations = e;
    s.candidateRetries = r;
    return true;
}

std::string
encodeOracleStats(const attack::OracleStats &o)
{
    return strprintf("O %llu %llu %llu %llu %llu",
                     (unsigned long long)o.busyRetries,
                     (unsigned long long)o.disturbedQueries,
                     (unsigned long long)o.retriedQueries,
                     (unsigned long long)o.calibrations,
                     (unsigned long long)o.repairs);
}

bool
decodeOracleStats(std::istringstream &in, attack::OracleStats &o)
{
    o = attack::OracleStats{};
    return bool(in >> o.busyRetries >> o.disturbedQueries >>
                o.retriedQueries >> o.calibrations >> o.repairs);
}

std::string
encodeFaultStats(const FaultStats &f)
{
    return strprintf(
        "F %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu",
        (unsigned long long)f.contextSwitches,
        (unsigned long long)f.fullFlushes,
        (unsigned long long)f.partialFlushes,
        (unsigned long long)f.preemptions,
        (unsigned long long)f.preemptedCycles,
        (unsigned long long)f.timerStalls,
        (unsigned long long)f.timerSkews,
        (unsigned long long)f.jitterBursts,
        (unsigned long long)f.busyArms,
        (unsigned long long)f.migrations, (unsigned long long)f.hangs);
}

bool
decodeFaultStats(std::istringstream &in, FaultStats &f)
{
    f = FaultStats{};
    return bool(in >> f.contextSwitches >> f.fullFlushes >>
                f.partialFlushes >> f.preemptions >> f.preemptedCycles >>
                f.timerStalls >> f.timerSkews >> f.jitterBursts >>
                f.busyArms >> f.migrations >> f.hangs);
}

/** Samples in insertion order: mean() sums in that order, so
 *  preserving it keeps floating-point rounding identical on decode. */
std::string
encodeSamples(const SampleStat &s)
{
    std::string out = strprintf("D %llu",
                                (unsigned long long)s.count());
    for (double v : s.samples())
        out += strprintf(" %016llx",
                         (unsigned long long)std::bit_cast<uint64_t>(v));
    return out;
}

bool
decodeSamples(std::istringstream &in, SampleStat &s)
{
    unsigned long long n = 0;
    if (!(in >> n))
        return false;
    s.reset();
    for (unsigned long long i = 0; i < n; ++i) {
        std::string word;
        if (!(in >> word))
            return false;
        unsigned long long bits = 0;
        if (sscanf(word.c_str(), "%llx", &bits) != 1)
            return false;
        s.add(std::bit_cast<double>(uint64_t(bits)));
    }
    return true;
}

/** The S, O and F lines both chunk kinds carry for each run. */
std::string
encodeRunLines(const attack::BruteForceStats &s,
               const attack::OracleStats &o, const FaultStats &f)
{
    return encodeBfStats(s) + "\n" + encodeOracleStats(o) + "\n" +
           encodeFaultStats(f) + "\n";
}

/** The Q line of a quarantined run; empty if none. */
std::string
encodeQuarantineLine(const std::optional<QuarantineRecord> &q)
{
    return q ? "Q " + q->serialize() + "\n" : std::string();
}

/** Parse the rest of a Q line into @p q; false if it is malformed. */
bool
decodeQuarantineLine(std::istringstream &in,
                     std::optional<QuarantineRecord> &q)
{
    std::string rest;
    std::getline(in, rest);
    if (!rest.empty() && rest.front() == ' ')
        rest.erase(0, 1);
    q = QuarantineRecord::parse(rest);
    return q.has_value();
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
    return encodeRunLines(r.stats, r.oracle, r.faults) +
           encodeSamples(r.decisions) + "\n" +
           encodeQuarantineLine(r.quarantine);
}

bool
decodeBfChunk(const std::string &payload, BfChunkResult &r)
{
    r = BfChunkResult{};
    std::istringstream lines(payload);
    std::string line;
    bool s = false, o = false, f = false, d = false;
    while (std::getline(lines, line)) {
        std::istringstream in(line);
        std::string tag;
        if (!(in >> tag))
            continue;
        if (tag == "S")
            s = decodeBfStats(in, r.stats);
        else if (tag == "O")
            o = decodeOracleStats(in, r.oracle);
        else if (tag == "F")
            f = decodeFaultStats(in, r.faults);
        else if (tag == "D")
            d = decodeSamples(in, r.decisions);
        else if (tag == "Q" && !decodeQuarantineLine(in, r.quarantine))
            return false;
    }
    return s && o && f && d;
}

std::string
encodeTrialChunk(const std::vector<TrialResult> &trials,
                 const Chunk &chunk)
{
    std::string out;
    for (uint64_t t = chunk.firstItem; t <= chunk.lastItem; ++t) {
        const TrialResult &r = trials[t - chunk.firstItem];
        out += strprintf("T %llu %u\n", (unsigned long long)t,
                         unsigned(r.verdict));
        out += encodeRunLines(r.stats, r.oracle, r.faults) +
               encodeQuarantineLine(r.quarantine);
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
    std::istringstream lines(payload);
    std::string line;
    TrialResult *cur = nullptr;
    uint64_t seen = 0;
    while (std::getline(lines, line)) {
        std::istringstream in(line);
        std::string tag;
        if (!(in >> tag))
            continue;
        if (tag == "T") {
            unsigned long long t = 0;
            unsigned v = 0;
            if (!(in >> t >> v) || t < chunk.firstItem ||
                t > chunk.lastItem ||
                v > unsigned(TrialVerdict::Quarantined))
                return false;
            cur = &trials[t - chunk.firstItem];
            *cur = TrialResult{};
            cur->verdict = TrialVerdict(v);
            ++seen;
        } else if (!cur) {
            return false;
        } else if (tag == "S") {
            if (!decodeBfStats(in, cur->stats))
                return false;
        } else if (tag == "O") {
            if (!decodeOracleStats(in, cur->oracle))
                return false;
        } else if (tag == "F") {
            if (!decodeFaultStats(in, cur->faults))
                return false;
        } else if (tag == "Q") {
            if (!decodeQuarantineLine(in, cur->quarantine))
                return false;
        }
    }
    return seen == count;
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
