/**
 * @file
 * The tagged-line record codecs: the configs pacman-oracled receives
 * and the chunk results it and the journal send back. Pins their
 * exact bytes, fuzzes the decoders, and checks that a chunk result
 * cannot smuggle a PAC outside its chunk into a campaign.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/random.hh"
#include "runner/chunk_codec.hh"
#include "runner/protocol.hh"

namespace pacman
{
namespace
{

using namespace pacman::attack;
using namespace pacman::runner;

// --- pinned inputs -------------------------------------------------

/** Every wire field distinct from its default (and, where the type
 *  allows, from every other field). */
ReplicaConfig
pinnedReplica()
{
    ReplicaConfig cfg;
    cfg.machine.seed = 0x0123456789abcdefull;
    cfg.machine.timerRatePer1k = 411;
    cfg.machine.timerJitter = 3;
    cfg.machine.noiseProbability = 0.125;
    cfg.machine.noisePages = 5;
    cfg.machine.core.speculativeMemIssue = false;
    cfg.machine.core.eagerNestedSquash = false;
    cfg.machine.core.autFence = true;
    cfg.machine.core.pacTaint = true;
    cfg.machine.core.fpac = true;
    cfg.oracle.kind = GadgetKind::Combined;
    cfg.oracle.channel = Channel::L1dSet;
    cfg.oracle.trainIters = 17;
    cfg.oracle.latencyThreshold = 31;
    cfg.oracle.missThreshold = 4;
    cfg.oracle.autoCalibrate = true;
    cfg.oracle.calibrationSamples = 25;
    cfg.oracle.queryRetries = 6;
    cfg.oracle.busyRetries = 7;
    cfg.oracle.skipReset = true;
    cfg.target = 0xffff000012345000ull;
    cfg.modifier = 0xcafef00dull;
    cfg.samples = 9;
    cfg.maxSamples = 13;
    cfg.candidateRetries = 2;
    cfg.snapshot = false;
    FaultPlan &f = cfg.faults;
    f.contextSwitchRate = 0.01;
    f.fullFlushFraction = 0.0625;
    f.flushSets = 23;
    f.pollutePages = 19;
    f.preemptRate = 0.02;
    f.preemptMinCycles = 401;
    f.preemptMaxCycles = 4001;
    f.preemptPollutePages = 12;
    f.timerRate = 0.03;
    f.stallMinCycles = 301;
    f.stallMaxCycles = 2501;
    f.skewPermilleMin = 871;
    f.skewPermilleMax = 1131;
    f.jitterBoost = 8;
    f.jitterBurstCycles = 3001;
    f.syscallBusyRate = 0.04;
    f.busyMinCount = 14;
    f.busyMaxCount = 15;
    f.migrationRate = 0.05;
    f.migrationReturnRate = 0.35;
    f.hangRate = 0.06;
    f.hangCycles = 12345678901ull;
    return cfg;
}

SupervisionConfig
pinnedSupervision()
{
    SupervisionConfig sup;
    sup.budget.maxGuestCycles = 987654321;
    sup.budget.hostDeadlineSeconds = 3.75;
    sup.verifyFingerprint = false;
    sup.journalPath = "never-on-the-wire.journal";
    return sup;
}

BruteForceStats
pinnedSearch(uint16_t found)
{
    BruteForceStats s;
    s.guessesTested = 292;
    s.oracleQueries = 300;
    s.cyclesSimulated = 3141592;
    s.samplesTaken = 310;
    s.escalations = 41;
    s.candidateRetries = 42;
    s.found = found;
    return s;
}

OracleStats
pinnedOracle()
{
    OracleStats o;
    o.busyRetries = 51;
    o.disturbedQueries = 52;
    o.retriedQueries = 53;
    o.calibrations = 54;
    o.repairs = 55;
    return o;
}

FaultStats
pinnedFaults()
{
    FaultStats f;
    f.contextSwitches = 11;
    f.fullFlushes = 12;
    f.partialFlushes = 13;
    f.preemptions = 14;
    f.preemptedCycles = 15;
    f.timerStalls = 16;
    f.timerSkews = 17;
    f.jitterBursts = 18;
    f.busyArms = 19;
    f.migrations = 20;
    f.hangs = 21;
    return f;
}

QuarantineRecord
pinnedQuarantine()
{
    QuarantineRecord q;
    q.campaign = "accuracy";
    q.campaignSeed = 0xacc0ffee;
    q.chunkIndex = 1;
    q.firstItem = 5;
    q.lastItem = 5;
    q.streamSeed = 0x1111222233334444ull;
    q.rekeySeed = 0x5555666677778888ull;
    q.hasRekey = true;
    q.kind = WorkerFaultKind::Hang;
    q.detail = "guest budget of 987654321 cycles exhausted";
    return q;
}

BfChunkResult
pinnedBfChunk()
{
    BfChunkResult r;
    r.stats = pinnedSearch(0x0200);
    for (double v : {0.0, 1.0, 5.5, 0.1})
        r.decisions.add(v);
    r.oracle = pinnedOracle();
    r.faults = pinnedFaults();
    return r;
}

std::vector<TrialResult>
pinnedTrials()
{
    std::vector<TrialResult> trials(2);
    trials[0].verdict = TrialVerdict::TruePositive;
    trials[0].stats = pinnedSearch(0xbeef);
    trials[0].oracle = pinnedOracle();
    trials[0].faults = pinnedFaults();
    trials[1].verdict = TrialVerdict::Quarantined;
    trials[1].faults.hangs = 1;
    trials[1].quarantine = pinnedQuarantine();
    return trials;
}

constexpr Chunk PinnedChunk{2, 32, 47};
constexpr Chunk PinnedTrialChunk{1, 4, 5};

BruteForceCampaignConfig
pinnedBfCampaign()
{
    BruteForceCampaignConfig cfg;
    cfg.replica = pinnedReplica();
    cfg.supervision = pinnedSupervision();
    cfg.seed = 0x5eed0000cafeull;
    cfg.first = 0x0100;
    cfg.last = 0x01ff;
    return cfg;
}

AccuracyCampaignConfig
pinnedAccuracyCampaign()
{
    AccuracyCampaignConfig cfg;
    cfg.replica = pinnedReplica();
    cfg.supervision = pinnedSupervision();
    cfg.seed = 0xacc0ffee;
    cfg.trials = 12;
    cfg.window = 64;
    return cfg;
}

// --- the pinned bytes ----------------------------------------------

/** encodeReplicaWire(pinnedReplica(), pinnedSupervision()). */
const std::string PinnedReplicaLines =
    "V pacman-oracle-wire-v2\n"
    "M 0123456789abcdef 411 3 3fc0000000000000 5\n"
    "C 0 0 1 1 1\n"
    "O 2 1 17 31 4 1 25 6 7 1\n"
    "R ffff000012345000 00000000cafef00d 9 13 2 0\n"
    "F 3f847ae147ae147b 3fb0000000000000 23 19 3f947ae147ae147b 401 "
    "4001 12 3f9eb851eb851eb8 301 2501 871 1131 8 3001 3fa47ae147ae147b "
    "14 15 3fa999999999999a 3fd6666666666666 3faeb851eb851eb8 "
    "12345678901\n"
    "B 987654321 400e000000000000 0\n";

TEST(Protocol, RecordEncodingsArePinned)
{
    // The parent's journals and wire peers must stay readable, and the
    // campaign fingerprints are what every equivalence check compares:
    // each record's bytes are fixed here, field by field.
    EXPECT_EQ(encodeReplicaWire(pinnedReplica(), pinnedSupervision()),
              PinnedReplicaLines);
    EXPECT_EQ(encodeBfChunkRequest(pinnedBfCampaign(), PinnedChunk),
              PinnedReplicaLines + "G bf 00005eed0000cafe 256 511\n"
                                   "K 2 32 47\n");
    EXPECT_EQ(encodeAccuracyChunkRequest(pinnedAccuracyCampaign(),
                                         PinnedChunk),
              PinnedReplicaLines + "G acc 00000000acc0ffee 12 64\n"
                                   "K 2 32 47\n");
    EXPECT_EQ(encodeBfChunk(pinnedBfChunk()),
              "S 513 292 300 3141592 310 41 42\n"
              "O 51 52 53 54 55\n"
              "F 11 12 13 14 15 16 17 18 19 20 21\n"
              "D 4 0000000000000000 3ff0000000000000 4016000000000000 "
              "3fb999999999999a\n");
    EXPECT_EQ(encodeTrialChunk(pinnedTrials(), PinnedTrialChunk),
              "T 4 0\n"
              "S 48880 292 300 3141592 310 41 42\n"
              "O 51 52 53 54 55\n"
              "F 11 12 13 14 15 16 17 18 19 20 21\n"
              "T 5 3\n"
              "S 0 0 0 0 0 0 0\n"
              "O 0 0 0 0 0\n"
              "F 0 0 0 0 0 0 0 0 0 0 1\n"
              "Q campaign=accuracy seed=00000000acc0ffee chunk=1 first=5 "
              "last=5 stream=1111222233334444 rekey=5555666677778888 "
              "kind=hang detail=guest budget of 987654321 cycles "
              "exhausted\n");

    BruteForceCampaignResult bf;
    bf.stats = pinnedSearch(0x01a5);
    bf.decisionMisses = pinnedBfChunk().decisions;
    bf.oracleStats = pinnedOracle();
    bf.faultStats = pinnedFaults();
    bf.quarantined = {pinnedQuarantine()};
    bf.chunksMerged = 7;
    EXPECT_EQ(bf.fingerprint(),
              "found=0x01a5 guesses=292 queries=300 cycles=3141592 "
              "chunks_merged=7 decisions[n=4 mean=1.6499999999999999 "
              "median=0.55000000000000004 p90=4.1500000000000004 "
              "p99=5.3649999999999984 min=0 max=5.5] "
              "robustness[samples=310 esc=41 cand_retry=42 busy_retry=51 "
              "disturbed=52 query_retry=53 calib=54 repair=55 faults=136] "
              "quarantined[c1:hang]");

    AccuracyCampaignResult acc;
    acc.truePositives = 9;
    acc.falsePositives = 2;
    acc.falseNegatives = 1;
    acc.totals = pinnedSearch(0);
    acc.totals.found.reset();
    for (double v : {96.0, 12.0, 40.0})
        acc.guessesPerTrial.add(v);
    acc.oracleStats = pinnedOracle();
    acc.faultStats = pinnedFaults();
    acc.quarantined = {pinnedQuarantine()};
    EXPECT_EQ(acc.fingerprint(),
              "tp=9 fp=2 fn=1 guesses=292 queries=300 cycles=3141592 "
              "per_trial[n=3 mean=49.333333333333336 median=40 "
              "p90=84.800000000000011 p99=94.879999999999995 min=12 "
              "max=96] robustness[samples=310 esc=41 cand_retry=42 "
              "busy_retry=51 disturbed=52 query_retry=53 calib=54 "
              "repair=55 faults=136] quarantined[c1:hang]");
}


TEST(Protocol, ReplicaWireRejectsMalformedNumbers)
{
    // A number the reader cannot take whole and in range makes the
    // config undecodable instead of wrapping or truncating it.
    auto with = [](char tag, size_t token, const std::string &word) {
        std::string text = PinnedReplicaLines;
        size_t at = text.find(std::string("\n") + tag + ' ') + 1;
        for (size_t t = 0; t <= token; ++t)
            at = text.find(' ', at) + 1;
        text.replace(at, text.find_first_of(" \n", at) - at, word);
        return text;
    };
    ReplicaConfig cfg;
    SupervisionConfig sup;
    ASSERT_TRUE(decodeReplicaWire(with('M', 1, "411"), cfg, sup));
    for (const std::string &bad : {
             with('M', 0, "-123456789abcdef"), // a signed seed
             with('M', 1, "-411"),             // once wrapped to 2^64 - 411
             with('M', 1, "411x"),             // a stray character
             with('M', 1, "18446744073709551616"), // 2^64
             with('M', 4, "4294967296"),       // 2^32 into an unsigned
             with('C', 0, "2"),                // a bool
             with('O', 0, "3"),                // past GadgetKind::Combined
             with('O', 1, "2"),                // past Channel::L1dSet
             with('R', 0, "0xffff000012345000"),
         }) {
        EXPECT_FALSE(decodeReplicaWire(bad, cfg, sup)) << bad;
    }
}

// --- random records ------------------------------------------------

/** A random value of a random bit width, so that 0, small numbers and
 *  values near 2^64 all turn up. */
uint64_t
anyU64(Random &rng)
{
    const unsigned bits = unsigned(rng.next(65));
    return bits == 64 ? rng.next() : rng.next() & ((1ull << bits) - 1);
}

unsigned
anyU32(Random &rng)
{
    return unsigned(anyU64(rng));
}

/** Any 64-bit pattern now and then (NaNs and infinities included). */
double
anyDouble(Random &rng)
{
    return rng.chance(0.3) ? std::bit_cast<double>(rng.next())
                           : rng.nextDouble();
}

bool
anyBool(Random &rng)
{
    return rng.chance(0.5);
}

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** Every wire field set at random, each by name: this list is the
 *  test's own, independent of the records' field lists. */
void
randomReplica(Random &rng, ReplicaConfig &cfg, SupervisionConfig &sup)
{
    cfg.machine.seed = anyU64(rng);
    cfg.machine.timerRatePer1k = anyU64(rng);
    cfg.machine.timerJitter = anyU64(rng);
    cfg.machine.noiseProbability = anyDouble(rng);
    cfg.machine.noisePages = anyU32(rng);
    cfg.machine.core.speculativeMemIssue = anyBool(rng);
    cfg.machine.core.eagerNestedSquash = anyBool(rng);
    cfg.machine.core.autFence = anyBool(rng);
    cfg.machine.core.pacTaint = anyBool(rng);
    cfg.machine.core.fpac = anyBool(rng);
    cfg.oracle.kind = GadgetKind(rng.next(3));
    cfg.oracle.channel = Channel(rng.next(2));
    cfg.oracle.trainIters = anyU32(rng);
    cfg.oracle.latencyThreshold = anyU64(rng);
    cfg.oracle.missThreshold = anyU32(rng);
    cfg.oracle.autoCalibrate = anyBool(rng);
    cfg.oracle.calibrationSamples = anyU32(rng);
    cfg.oracle.queryRetries = anyU32(rng);
    cfg.oracle.busyRetries = anyU32(rng);
    cfg.oracle.skipReset = anyBool(rng);
    cfg.target = anyU64(rng);
    cfg.modifier = anyU64(rng);
    cfg.samples = anyU32(rng);
    cfg.maxSamples = anyU32(rng);
    cfg.candidateRetries = anyU32(rng);
    cfg.snapshot = anyBool(rng);
    FaultPlan &f = cfg.faults;
    f.contextSwitchRate = anyDouble(rng);
    f.fullFlushFraction = anyDouble(rng);
    f.flushSets = anyU32(rng);
    f.pollutePages = anyU32(rng);
    f.preemptRate = anyDouble(rng);
    f.preemptMinCycles = anyU64(rng);
    f.preemptMaxCycles = anyU64(rng);
    f.preemptPollutePages = anyU32(rng);
    f.timerRate = anyDouble(rng);
    f.stallMinCycles = anyU64(rng);
    f.stallMaxCycles = anyU64(rng);
    f.skewPermilleMin = anyU64(rng);
    f.skewPermilleMax = anyU64(rng);
    f.jitterBoost = anyU64(rng);
    f.jitterBurstCycles = anyU64(rng);
    f.syscallBusyRate = anyDouble(rng);
    f.busyMinCount = anyU32(rng);
    f.busyMaxCount = anyU32(rng);
    f.migrationRate = anyDouble(rng);
    f.migrationReturnRate = anyDouble(rng);
    f.hangRate = anyDouble(rng);
    f.hangCycles = anyU64(rng);
    sup.budget.maxGuestCycles = anyU64(rng);
    sup.budget.hostDeadlineSeconds = anyDouble(rng);
    sup.verifyFingerprint = anyBool(rng);
}

void
expectSameReplica(const ReplicaConfig &a, const SupervisionConfig &sa,
                  const ReplicaConfig &b, const SupervisionConfig &sb)
{
    EXPECT_EQ(a.machine.seed, b.machine.seed);
    EXPECT_EQ(a.machine.timerRatePer1k, b.machine.timerRatePer1k);
    EXPECT_EQ(a.machine.timerJitter, b.machine.timerJitter);
    EXPECT_EQ(bits(a.machine.noiseProbability),
              bits(b.machine.noiseProbability));
    EXPECT_EQ(a.machine.noisePages, b.machine.noisePages);
    EXPECT_EQ(a.machine.core.speculativeMemIssue,
              b.machine.core.speculativeMemIssue);
    EXPECT_EQ(a.machine.core.eagerNestedSquash,
              b.machine.core.eagerNestedSquash);
    EXPECT_EQ(a.machine.core.autFence, b.machine.core.autFence);
    EXPECT_EQ(a.machine.core.pacTaint, b.machine.core.pacTaint);
    EXPECT_EQ(a.machine.core.fpac, b.machine.core.fpac);
    EXPECT_EQ(a.oracle.kind, b.oracle.kind);
    EXPECT_EQ(a.oracle.channel, b.oracle.channel);
    EXPECT_EQ(a.oracle.trainIters, b.oracle.trainIters);
    EXPECT_EQ(a.oracle.latencyThreshold, b.oracle.latencyThreshold);
    EXPECT_EQ(a.oracle.missThreshold, b.oracle.missThreshold);
    EXPECT_EQ(a.oracle.autoCalibrate, b.oracle.autoCalibrate);
    EXPECT_EQ(a.oracle.calibrationSamples, b.oracle.calibrationSamples);
    EXPECT_EQ(a.oracle.queryRetries, b.oracle.queryRetries);
    EXPECT_EQ(a.oracle.busyRetries, b.oracle.busyRetries);
    EXPECT_EQ(a.oracle.skipReset, b.oracle.skipReset);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.modifier, b.modifier);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.maxSamples, b.maxSamples);
    EXPECT_EQ(a.candidateRetries, b.candidateRetries);
    EXPECT_EQ(a.snapshot, b.snapshot);
    const FaultPlan &f = a.faults, &g = b.faults;
    EXPECT_EQ(bits(f.contextSwitchRate), bits(g.contextSwitchRate));
    EXPECT_EQ(bits(f.fullFlushFraction), bits(g.fullFlushFraction));
    EXPECT_EQ(f.flushSets, g.flushSets);
    EXPECT_EQ(f.pollutePages, g.pollutePages);
    EXPECT_EQ(bits(f.preemptRate), bits(g.preemptRate));
    EXPECT_EQ(f.preemptMinCycles, g.preemptMinCycles);
    EXPECT_EQ(f.preemptMaxCycles, g.preemptMaxCycles);
    EXPECT_EQ(f.preemptPollutePages, g.preemptPollutePages);
    EXPECT_EQ(bits(f.timerRate), bits(g.timerRate));
    EXPECT_EQ(f.stallMinCycles, g.stallMinCycles);
    EXPECT_EQ(f.stallMaxCycles, g.stallMaxCycles);
    EXPECT_EQ(f.skewPermilleMin, g.skewPermilleMin);
    EXPECT_EQ(f.skewPermilleMax, g.skewPermilleMax);
    EXPECT_EQ(f.jitterBoost, g.jitterBoost);
    EXPECT_EQ(f.jitterBurstCycles, g.jitterBurstCycles);
    EXPECT_EQ(bits(f.syscallBusyRate), bits(g.syscallBusyRate));
    EXPECT_EQ(f.busyMinCount, g.busyMinCount);
    EXPECT_EQ(f.busyMaxCount, g.busyMaxCount);
    EXPECT_EQ(bits(f.migrationRate), bits(g.migrationRate));
    EXPECT_EQ(bits(f.migrationReturnRate), bits(g.migrationReturnRate));
    EXPECT_EQ(bits(f.hangRate), bits(g.hangRate));
    EXPECT_EQ(f.hangCycles, g.hangCycles);
    EXPECT_EQ(sa.budget.maxGuestCycles, sb.budget.maxGuestCycles);
    EXPECT_EQ(bits(sa.budget.hostDeadlineSeconds),
              bits(sb.budget.hostDeadlineSeconds));
    EXPECT_EQ(sa.verifyFingerprint, sb.verifyFingerprint);
}

ChunkRequest
randomChunkRequest(Random &rng)
{
    ChunkRequest req;
    ReplicaConfig replica;
    SupervisionConfig sup;
    randomReplica(rng, replica, sup);
    const uint64_t a = anyU64(rng), b = anyU64(rng);
    req.chunk.index = anyU64(rng);
    req.chunk.firstItem = std::min(a, b);
    req.chunk.lastItem = std::max(a, b);
    if (rng.chance(0.5)) {
        req.kind = ChunkRequest::Kind::BruteForce;
        req.bf.replica = replica;
        req.bf.supervision = sup;
        req.bf.seed = anyU64(rng);
        req.bf.first = uint16_t(rng.next(0x10000));
        req.bf.last = uint16_t(req.bf.first +
                               rng.next(0x10000 - req.bf.first));
    } else {
        req.kind = ChunkRequest::Kind::Accuracy;
        req.acc.replica = replica;
        req.acc.supervision = sup;
        req.acc.seed = anyU64(rng);
        req.acc.trials = anyU64(rng);
        req.acc.window = anyU32(rng);
    }
    return req;
}

std::string
encodeChunkRequest(const ChunkRequest &req)
{
    return req.kind == ChunkRequest::Kind::BruteForce
               ? encodeBfChunkRequest(req.bf, req.chunk)
               : encodeAccuracyChunkRequest(req.acc, req.chunk);
}

void
expectSameChunkRequest(const ChunkRequest &a, const ChunkRequest &b)
{
    ASSERT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.chunk.index, b.chunk.index);
    EXPECT_EQ(a.chunk.firstItem, b.chunk.firstItem);
    EXPECT_EQ(a.chunk.lastItem, b.chunk.lastItem);
    if (a.kind == ChunkRequest::Kind::BruteForce) {
        expectSameReplica(a.bf.replica, a.bf.supervision, b.bf.replica,
                          b.bf.supervision);
        EXPECT_EQ(a.bf.seed, b.bf.seed);
        EXPECT_EQ(a.bf.first, b.bf.first);
        EXPECT_EQ(a.bf.last, b.bf.last);
    } else {
        expectSameReplica(a.acc.replica, a.acc.supervision,
                          b.acc.replica, b.acc.supervision);
        EXPECT_EQ(a.acc.seed, b.acc.seed);
        EXPECT_EQ(a.acc.trials, b.acc.trials);
        EXPECT_EQ(a.acc.window, b.acc.window);
    }
}

QuarantineRecord
randomQuarantine(Random &rng)
{
    QuarantineRecord q;
    q.campaign = rng.chance(0.5) ? "bruteforce" : "accuracy";
    q.campaignSeed = anyU64(rng);
    q.chunkIndex = anyU64(rng);
    q.firstItem = anyU64(rng);
    q.lastItem = anyU64(rng);
    q.streamSeed = anyU64(rng);
    q.hasRekey = anyBool(rng);
    q.rekeySeed = q.hasRekey ? anyU64(rng) : 0;
    q.kind = WorkerFaultKind(rng.next(6));
    const size_t len = rng.next(40);
    for (size_t i = 0; i < len; ++i)
        q.detail += char(' ' + rng.next(95)); // printable, spaces too
    return q;
}

void
expectSameQuarantine(const std::optional<QuarantineRecord> &a,
                     const std::optional<QuarantineRecord> &b)
{
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a)
        return;
    EXPECT_EQ(a->campaign, b->campaign);
    EXPECT_EQ(a->campaignSeed, b->campaignSeed);
    EXPECT_EQ(a->chunkIndex, b->chunkIndex);
    EXPECT_EQ(a->firstItem, b->firstItem);
    EXPECT_EQ(a->lastItem, b->lastItem);
    EXPECT_EQ(a->streamSeed, b->streamSeed);
    EXPECT_EQ(a->rekeySeed, b->rekeySeed);
    EXPECT_EQ(a->hasRekey, b->hasRekey);
    EXPECT_EQ(a->kind, b->kind);
    EXPECT_EQ(a->detail, b->detail);
}

/** One run's S, O and F lines' worth of random counters. */
template <class Run>
void
randomRun(Random &rng, Run &r)
{
    r.stats.guessesTested = anyU64(rng);
    r.stats.oracleQueries = anyU64(rng);
    r.stats.cyclesSimulated = anyU64(rng);
    r.stats.samplesTaken = anyU64(rng);
    r.stats.escalations = anyU64(rng);
    r.stats.candidateRetries = anyU64(rng);
    if (rng.chance(0.5))
        r.stats.found = uint16_t(rng.next(0x10000));
    r.oracle.busyRetries = anyU64(rng);
    r.oracle.disturbedQueries = anyU64(rng);
    r.oracle.retriedQueries = anyU64(rng);
    r.oracle.calibrations = anyU64(rng);
    r.oracle.repairs = anyU64(rng);
    r.faults.contextSwitches = anyU64(rng);
    r.faults.fullFlushes = anyU64(rng);
    r.faults.partialFlushes = anyU64(rng);
    r.faults.preemptions = anyU64(rng);
    r.faults.preemptedCycles = anyU64(rng);
    r.faults.timerStalls = anyU64(rng);
    r.faults.timerSkews = anyU64(rng);
    r.faults.jitterBursts = anyU64(rng);
    r.faults.busyArms = anyU64(rng);
    r.faults.migrations = anyU64(rng);
    r.faults.hangs = anyU64(rng);
    if (rng.chance(0.3))
        r.quarantine = randomQuarantine(rng);
}

template <class Run>
void
expectSameRun(const Run &a, const Run &b)
{
    EXPECT_EQ(a.stats.guessesTested, b.stats.guessesTested);
    EXPECT_EQ(a.stats.oracleQueries, b.stats.oracleQueries);
    EXPECT_EQ(a.stats.cyclesSimulated, b.stats.cyclesSimulated);
    EXPECT_EQ(a.stats.samplesTaken, b.stats.samplesTaken);
    EXPECT_EQ(a.stats.escalations, b.stats.escalations);
    EXPECT_EQ(a.stats.candidateRetries, b.stats.candidateRetries);
    EXPECT_EQ(a.stats.found, b.stats.found);
    EXPECT_EQ(a.oracle.busyRetries, b.oracle.busyRetries);
    EXPECT_EQ(a.oracle.disturbedQueries, b.oracle.disturbedQueries);
    EXPECT_EQ(a.oracle.retriedQueries, b.oracle.retriedQueries);
    EXPECT_EQ(a.oracle.calibrations, b.oracle.calibrations);
    EXPECT_EQ(a.oracle.repairs, b.oracle.repairs);
    EXPECT_EQ(a.faults.contextSwitches, b.faults.contextSwitches);
    EXPECT_EQ(a.faults.fullFlushes, b.faults.fullFlushes);
    EXPECT_EQ(a.faults.partialFlushes, b.faults.partialFlushes);
    EXPECT_EQ(a.faults.preemptions, b.faults.preemptions);
    EXPECT_EQ(a.faults.preemptedCycles, b.faults.preemptedCycles);
    EXPECT_EQ(a.faults.timerStalls, b.faults.timerStalls);
    EXPECT_EQ(a.faults.timerSkews, b.faults.timerSkews);
    EXPECT_EQ(a.faults.jitterBursts, b.faults.jitterBursts);
    EXPECT_EQ(a.faults.busyArms, b.faults.busyArms);
    EXPECT_EQ(a.faults.migrations, b.faults.migrations);
    EXPECT_EQ(a.faults.hangs, b.faults.hangs);
    expectSameQuarantine(a.quarantine, b.quarantine);
}

BfChunkResult
randomBfChunk(Random &rng)
{
    BfChunkResult r;
    randomRun(rng, r);
    const size_t n = rng.next(6);
    for (size_t i = 0; i < n; ++i)
        r.decisions.add(anyDouble(rng));
    return r;
}

void
expectSameBfChunk(const BfChunkResult &a, const BfChunkResult &b)
{
    expectSameRun(a, b);
    ASSERT_EQ(a.decisions.samples().size(), b.decisions.samples().size());
    for (size_t i = 0; i < a.decisions.samples().size(); ++i)
        EXPECT_EQ(bits(a.decisions.samples()[i]),
                  bits(b.decisions.samples()[i]));
}

std::vector<TrialResult>
randomTrials(Random &rng, const Chunk &chunk)
{
    std::vector<TrialResult> trials(chunk.lastItem - chunk.firstItem + 1);
    for (TrialResult &t : trials) {
        t.verdict = TrialVerdict(rng.next(4));
        randomRun(rng, t);
    }
    return trials;
}

void
expectSameTrials(const std::vector<TrialResult> &a,
                 const std::vector<TrialResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].verdict, b[i].verdict);
        expectSameRun(a[i], b[i]);
    }
}

// --- mutations -----------------------------------------------------

/** [begin, end) of each space- or newline-separated token. */
std::vector<std::pair<size_t, size_t>>
tokens(const std::string &text)
{
    std::vector<std::pair<size_t, size_t>> out;
    for (size_t i = 0; i < text.size();) {
        if (text[i] == ' ' || text[i] == '\n') {
            ++i;
            continue;
        }
        const size_t begin = i;
        while (i < text.size() && text[i] != ' ' && text[i] != '\n')
            ++i;
        out.emplace_back(begin, i);
    }
    return out;
}

/** [begin, end) of each line, its newline included. */
std::vector<std::pair<size_t, size_t>>
lines(const std::string &text)
{
    std::vector<std::pair<size_t, size_t>> out;
    for (size_t begin = 0; begin < text.size();) {
        const size_t eol = text.find('\n', begin);
        const size_t end = eol == std::string::npos ? text.size() : eol + 1;
        out.emplace_back(begin, end);
        begin = end;
    }
    return out;
}

/** @p text with one random mutation of the kinds a torn, corrupted
 *  or hostile peer produces. */
std::string
mutate(std::string text, Random &rng)
{
    if (text.empty())
        return text;
    const auto toks = tokens(text);
    const auto ls = lines(text);
    const auto [tb, te] = toks[rng.next(toks.size())];
    const auto [lb, le] = ls[rng.next(ls.size())];
    switch (rng.next(9)) {
      case 0: // flip a byte
        text[rng.next(text.size())] ^= char(1 << rng.next(8));
        break;
      case 1: // drop a token
        text.erase(tb, te - tb);
        break;
      case 2: // duplicate a token
        text.insert(te, " " + text.substr(tb, te - tb));
        break;
      case 3: // drop a line
        text.erase(lb, le - lb);
        break;
      case 4: // duplicate a line
        text.insert(le, text.substr(lb, le - lb));
        break;
      case 5: // a sign before a token
        text.insert(tb, "-");
        break;
      case 6: // 2^64 - 1
        text.replace(tb, te - tb, "18446744073709551615");
        break;
      case 7: // 2^64
        text.replace(tb, te - tb, "18446744073709551616");
        break;
      default: // truncate
        text.resize(rng.next(text.size()));
        break;
    }
    return text;
}

// --- the fuzz ------------------------------------------------------

TEST(Protocol, RecordDecodersSurviveMutation)
{
    // Random records must round-trip every field; mutated encodings
    // must not crash a decoder, and whatever one accepts must encode
    // and decode again to the same value. Under the sanitize preset
    // this is also the ASan/UBSan sweep of the decoders.
    constexpr uint64_t Seeds = 1000;
    constexpr int MutantsPerRecord = 4;
    for (uint64_t seed = 1; seed <= Seeds; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Random rng(seed);

        ReplicaConfig cfg, back;
        SupervisionConfig sup, back_sup;
        randomReplica(rng, cfg, sup);
        const std::string wire = encodeReplicaWire(cfg, sup);
        ASSERT_TRUE(decodeReplicaWire(wire, back, back_sup)) << wire;
        expectSameReplica(cfg, sup, back, back_sup);

        const ChunkRequest req = randomChunkRequest(rng);
        const std::string req_text = encodeChunkRequest(req);
        const std::optional<ChunkRequest> req_back =
            decodeChunkRequest(req_text);
        ASSERT_TRUE(req_back.has_value()) << req_text;
        expectSameChunkRequest(req, *req_back);

        const BfChunkResult bf = randomBfChunk(rng);
        const std::string bf_text = encodeBfChunk(bf);
        BfChunkResult bf_back;
        ASSERT_TRUE(decodeBfChunk(bf_text, bf_back)) << bf_text;
        expectSameBfChunk(bf, bf_back);

        const uint64_t first = anyU64(rng) % (~0ull - 8);
        const Chunk chunk{seed, first, first + rng.next(4)};
        const std::vector<TrialResult> trials = randomTrials(rng, chunk);
        const std::string trial_text = encodeTrialChunk(trials, chunk);
        std::vector<TrialResult> trials_back;
        ASSERT_TRUE(decodeTrialChunk(trial_text, trials_back, chunk))
            << trial_text;
        expectSameTrials(trials, trials_back);

        const QuarantineRecord q = randomQuarantine(rng);
        const std::string q_line = q.serialize();
        expectSameQuarantine(q, QuarantineRecord::parse(q_line));

        for (int m = 0; m < MutantsPerRecord; ++m) {
            const std::string w = mutate(wire, rng);
            if (decodeReplicaWire(w, back, back_sup)) {
                ReplicaConfig again;
                SupervisionConfig again_sup;
                ASSERT_TRUE(decodeReplicaWire(
                    encodeReplicaWire(back, back_sup), again, again_sup))
                    << w;
                expectSameReplica(back, back_sup, again, again_sup);
            }

            if (const auto r = decodeChunkRequest(mutate(req_text, rng))) {
                const auto again = decodeChunkRequest(encodeChunkRequest(*r));
                ASSERT_TRUE(again.has_value());
                expectSameChunkRequest(*r, *again);
            }

            const std::string b = mutate(bf_text, rng);
            if (decodeBfChunk(b, bf_back)) {
                BfChunkResult again;
                ASSERT_TRUE(decodeBfChunk(encodeBfChunk(bf_back), again))
                    << b;
                expectSameBfChunk(bf_back, again);
            }

            const std::string t = mutate(trial_text, rng);
            if (decodeTrialChunk(t, trials_back, chunk)) {
                std::vector<TrialResult> again;
                ASSERT_TRUE(decodeTrialChunk(
                    encodeTrialChunk(trials_back, chunk), again, chunk))
                    << t;
                expectSameTrials(trials_back, again);
            }

            const std::string l = mutate(q_line, rng);
            if (const auto parsed = QuarantineRecord::parse(l))
                expectSameQuarantine(
                    parsed, QuarantineRecord::parse(parsed->serialize()));
        }
    }
}

// --- regression cases the fuzz found -------------------------------

TEST(Protocol, QuarantineDetailKeepsEveryByte)
{
    // serialize() wrote `detail` through %s, so a NUL that parse()
    // had kept cut the detail short on the next round trip.
    QuarantineRecord q = pinnedQuarantine();
    q.detail = std::string("kSeQIBV5\",Wlo/:QpK}e\0(TyC1nsCfI{O", 33);
    const std::optional<QuarantineRecord> back =
        QuarantineRecord::parse(q.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->detail, q.detail);
}

TEST(Protocol, TrialChunkNeedsEachTrialOnceWithItsRunLines)
{
    // A payload that repeats one trial's T line in place of another's,
    // or drops a trial's S, O or F line, once decoded into a default
    // trial: a false negative with no work behind it.
    const std::string good =
        encodeTrialChunk(pinnedTrials(), PinnedTrialChunk);
    std::vector<TrialResult> back;
    ASSERT_TRUE(decodeTrialChunk(good, back, PinnedTrialChunk));

    const size_t second = good.find("T 5 3\n");
    ASSERT_NE(second, std::string::npos);
    std::string repeated = good;
    repeated.replace(second, 6, "T 4 3\n");
    EXPECT_FALSE(decodeTrialChunk(repeated, back, PinnedTrialChunk));

    for (const char *line : {"S ", "O ", "F "}) {
        std::string missing = good;
        const size_t at = missing.find(std::string("\n") + line);
        ASSERT_NE(at, std::string::npos);
        missing.erase(at + 1, missing.find('\n', at + 1) - at);
        EXPECT_FALSE(decodeTrialChunk(missing, back, PinnedTrialChunk))
            << "without the first " << line << "line";
    }
}

// --- a chunk result cannot carry a PAC outside its chunk -----------

TEST(Campaign, ChunkResultWithPacOutsideItsChunkAborts)
{
    // Candidates 0x100-0x2ff in two chunks. A dispatcher whose payload
    // for chunk 0 reports a PAC that chunk never tested must abort the
    // campaign, not merge that PAC into its result.
    BruteForceCampaignConfig cfg;
    cfg.first = 0x0100;
    cfg.last = 0x02ff;
    cfg.pool.chunkSize = 256;
    cfg.pool.jobs = 1;
    const std::string clean = encodeBfChunk(BfChunkResult{});
    auto withFound = [&](uint16_t pac) {
        BfChunkResult r;
        r.stats.found = pac;
        return encodeBfChunk(r);
    };
    auto withFoundToken = [&](const char *token) {
        std::string payload = clean;
        payload.replace(2, 1, token); // "S 0 ..." -> "S <token> ..."
        return payload;
    };
    auto run = [&](const std::string &chunk0) {
        return runBruteForceCampaignWith(
            cfg, [&](unsigned, const Chunk &chunk) {
                return chunk.index == 0 ? chunk0 : clean;
            });
    };

    // A PAC inside the chunk merges as before.
    EXPECT_EQ(run(withFound(0x0180)).stats.found, uint16_t(0x0180));

    for (const std::string &bad :
         {withFound(0x0050),        // below the campaign's range
          withFound(0x0250),        // the other chunk's candidate
          withFoundToken("70001"),  // once wrapped to 0x1170
          withFoundToken("-1")}) {  // once wrapped to 0xfffe
        EXPECT_THROW(run(bad), CampaignAborted) << bad;
    }
}

} // anonymous namespace
} // namespace pacman
