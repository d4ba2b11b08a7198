#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "base/journal.hh"
#include "base/supervision.hh"
#include "kernel/layout.hh"
#include "runner/campaign.hh"

namespace pacman
{
namespace
{

using namespace pacman::attack;
using namespace pacman::kernel;
using namespace pacman::runner;

// --- supervision vocabulary (base/supervision.hh) ---

TEST(Supervision, WorkerFaultNamesRoundTrip)
{
    for (WorkerFaultKind kind :
         {WorkerFaultKind::Hang, WorkerFaultKind::ReplicaCorrupt,
          WorkerFaultKind::TransientFault,
          WorkerFaultKind::PoisonedItem,
          WorkerFaultKind::EndpointDown,
          WorkerFaultKind::DispatchExhausted}) {
        const std::string name = workerFaultName(kind);
        EXPECT_FALSE(name.empty());
        const auto parsed = parseWorkerFault(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(parseWorkerFault("no-such-fault").has_value());
    EXPECT_FALSE(parseWorkerFault("").has_value());
}

TEST(Supervision, QuarantineRecordRoundTrip)
{
    QuarantineRecord rec;
    rec.campaign = "accuracy";
    rec.campaignSeed = 0xDEADBEEFCAFEull;
    rec.chunkIndex = 17;
    rec.firstItem = 0x8000;
    rec.lastItem = 0x80FF;
    rec.streamSeed = 0x1234567890ABCDEFull;
    rec.rekeySeed = 42;
    rec.hasRekey = true;
    rec.kind = WorkerFaultKind::ReplicaCorrupt;
    rec.detail = "first: hang (guest budget exhausted); final: hang";

    const auto parsed = QuarantineRecord::parse(rec.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->campaign, rec.campaign);
    EXPECT_EQ(parsed->campaignSeed, rec.campaignSeed);
    EXPECT_EQ(parsed->chunkIndex, rec.chunkIndex);
    EXPECT_EQ(parsed->firstItem, rec.firstItem);
    EXPECT_EQ(parsed->lastItem, rec.lastItem);
    EXPECT_EQ(parsed->streamSeed, rec.streamSeed);
    EXPECT_EQ(parsed->rekeySeed, rec.rekeySeed);
    EXPECT_EQ(parsed->hasRekey, rec.hasRekey);
    EXPECT_EQ(parsed->kind, rec.kind);
    EXPECT_EQ(parsed->detail, rec.detail);

    // A bruteforce record has no rekey stream.
    rec.hasRekey = false;
    const auto no_rekey = QuarantineRecord::parse(rec.serialize());
    ASSERT_TRUE(no_rekey.has_value());
    EXPECT_FALSE(no_rekey->hasRekey);

    EXPECT_FALSE(QuarantineRecord::parse("").has_value());
    EXPECT_FALSE(QuarantineRecord::parse("not a record").has_value());
}

TEST(Supervision, QuarantineRecordRejectsMalformedNumbers)
{
    // The Q line's numbers are read as serialize() writes them: chunk,
    // first and last in unsigned decimal, seeds as 16 hex digits, each
    // token whole. The first case is the line a sscanf parser took as
    // seed 2^64 - 1, chunk 2^64 - 2, stream 0x10 and rekey 0x12.
    const std::string good =
        "campaign=bruteforce seed=000000000000002a chunk=3 first=768 "
        "last=1023 stream=0123456789abcdef rekey=00000000000000ff "
        "kind=hang detail=guest budget exhausted";
    ASSERT_TRUE(QuarantineRecord::parse(good).has_value());
    for (const char *bad : {
             "campaign=bruteforce seed=-1 chunk=-2 first=768 last=1023 "
             "stream=0x10 rekey=12zz kind=hang detail=x",
             "campaign=bruteforce seed=-00000000000002a chunk=3 first=768 "
             "last=1023 stream=0123456789abcdef rekey=- kind=hang detail=",
             "campaign=bruteforce seed=2a chunk=3 first=768 last=1023 "
             "stream=0123456789abcdef rekey=- kind=hang detail=",
             "campaign=bruteforce seed=000000000000002a chunk=+3 first=768 "
             "last=1023 stream=0123456789abcdef rekey=- kind=hang detail=",
             "campaign=bruteforce seed=000000000000002a chunk=3x first=768 "
             "last=1023 stream=0123456789abcdef rekey=- kind=hang detail=",
             "campaign=bruteforce seed=000000000000002a chunk=3 first=0x300 "
             "last=1023 stream=0123456789abcdef rekey=- kind=hang detail=",
             "campaign=bruteforce seed=000000000000002a chunk=3 first=768 "
             "last=18446744073709551616 stream=0123456789abcdef rekey=- "
             "kind=hang detail=",
             "campaign=bruteforce seed=000000000000002a chunk=3 first=768 "
             "last=1023 stream=0x23456789abcdef0 rekey=- kind=hang detail=",
             "campaign=bruteforce seed=000000000000002a chunk=3 first=768 "
             "last=1023 stream=0123456789abcdef rekey=00000000000000ff0 "
             "kind=hang detail=",
             "campaign=bruteforce seed=000000000000002a chunk= first=768 "
             "last=1023 stream=0123456789abcdef rekey=- kind=hang detail=",
             "campaign=bruteforce seed=000000000000002a  chunk=3 first=768 "
             "last=1023 stream=0123456789abcdef rekey=- kind=hang detail=",
         })
        EXPECT_FALSE(QuarantineRecord::parse(bad).has_value()) << bad;
}

TEST(Supervision, RecoveryStatsMergeSumsEveryCounter)
{
    RecoveryStats a;
    a.hangs = 1;
    a.restoreRetries = 2;
    a.fingerprintChecks = 3;
    RecoveryStats b;
    b.transientFaults = 4;
    b.replicaCorruptions = 5;
    b.reprovisions = 6;
    b.quarantines = 7;
    a.merge(b);
    EXPECT_EQ(a.hangs, 1u);
    EXPECT_EQ(a.transientFaults, 4u);
    EXPECT_EQ(a.replicaCorruptions, 5u);
    EXPECT_EQ(a.restoreRetries, 2u);
    EXPECT_EQ(a.reprovisions, 6u);
    EXPECT_EQ(a.fingerprintChecks, 3u);
    EXPECT_EQ(a.quarantines, 7u);
    // fingerprintChecks is diagnostic, not a recovery event.
    EXPECT_EQ(a.total(), 1u + 4u + 5u + 2u + 6u + 7u);
}

TEST(Supervision, EffectiveQuarantinePathDerivation)
{
    SupervisionConfig sup;
    EXPECT_EQ(sup.effectiveQuarantinePath(), "");
    sup.journalPath = "/tmp/run.journal";
    EXPECT_EQ(sup.effectiveQuarantinePath(),
              "/tmp/run.journal.quarantine");
    sup.quarantinePath = "/tmp/elsewhere.q";
    EXPECT_EQ(sup.effectiveQuarantinePath(), "/tmp/elsewhere.q");
}

// --- the supervised worker (runner/worker.hh) ---

/** Small replica template every worker test provisions from. */
ReplicaConfig
smallReplica()
{
    ReplicaConfig r;
    r.machine = defaultMachineConfig();
    r.machine.seed = 42;
    r.target = BenignDataBase + 37 * isa::PageSize;
    r.modifier = 0x100;
    r.samples = 1;
    return r;
}

WorkRequest
request(uint64_t item)
{
    return WorkRequest{item, Random::deriveSeed(7, item),
                       std::nullopt};
}

/** A harmless item: touch a few fault opportunities. */
void
noisyItem(attack::PacOracle &, kernel::Machine &machine)
{
    for (int i = 0; i < 4; ++i)
        machine.injectNoise();
}

TEST(Worker, CleanItemCompletesOnFirstAttempt)
{
    Worker w(smallReplica(), SupervisionConfig{});
    const WorkOutcome out = w.run(request(0), noisyItem);
    EXPECT_TRUE(out.completed);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_FALSE(out.quarantined.has_value());
    EXPECT_EQ(w.recovery().total(), 0u);
    EXPECT_EQ(w.provisions(), 1u);

    // A second item reuses the provisioned, checkpointed replica.
    EXPECT_TRUE(w.run(request(1), noisyItem).completed);
    EXPECT_EQ(w.provisions(), 1u);
}

TEST(Worker, ProvisionFingerprintIsReproducible)
{
    Worker a(smallReplica(), SupervisionConfig{});
    Worker b(smallReplica(), SupervisionConfig{});
    (void)a.machine();
    (void)b.machine();
    EXPECT_NE(a.provisionFingerprint(), 0u);
    EXPECT_EQ(a.provisionFingerprint(), b.provisionFingerprint());

    SupervisionConfig no_verify;
    no_verify.verifyFingerprint = false;
    Worker c(smallReplica(), no_verify);
    (void)c.machine();
    EXPECT_EQ(c.provisionFingerprint(), 0u);
}

TEST(Worker, MalformedFaultPlanRejectedAtConstruction)
{
    ReplicaConfig cfg = smallReplica();
    cfg.faults.hangRate = 2.0;
    EXPECT_THROW(Worker(cfg, SupervisionConfig{}),
                 std::invalid_argument);
}

TEST(Worker, TransientFailureClearsOnRestoreRetry)
{
    Worker w(smallReplica(), SupervisionConfig{});

    // Observe the recovery notification the attack layer receives.
    std::optional<WorkerFaultKind> notified_kind;
    unsigned notified_rung = 0;
    w.oracle().process().setRecoveryHook(
        [&](WorkerFaultKind kind, unsigned rung) {
            notified_kind = kind;
            notified_rung = rung;
        });

    int calls = 0;
    const WorkOutcome out = w.run(
        request(0), [&](attack::PacOracle &, kernel::Machine &) {
            if (calls++ == 0)
                throw WorkerError{WorkerFaultKind::TransientFault,
                                  "induced one-shot failure"};
        });

    EXPECT_TRUE(out.completed);
    EXPECT_EQ(out.attempts, 2u);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(w.recovery().restoreRetries, 1u);
    EXPECT_EQ(w.recovery().transientFaults, 1u);
    EXPECT_EQ(w.recovery().reprovisions, 0u);
    EXPECT_EQ(w.recovery().quarantines, 0u);
    EXPECT_GT(w.recovery().fingerprintChecks, 0u);
    ASSERT_TRUE(notified_kind.has_value());
    EXPECT_EQ(*notified_kind, WorkerFaultKind::TransientFault);
    EXPECT_EQ(notified_rung, 1u);
}

TEST(Worker, CorruptCheckpointEscalatesToReprovision)
{
    const ReplicaConfig cfg = smallReplica();
    Worker w(cfg, SupervisionConfig{});

    // Damage the checkpoint image: the rung-1 restore must now fail
    // its fingerprint check and escalate to a full rebuild.
    w.corruptCheckpointForTest(cfg.target, 0xBAD0BAD0BAD0BAD0ull);

    int calls = 0;
    const WorkOutcome out = w.run(
        request(0), [&](attack::PacOracle &, kernel::Machine &) {
            if (calls++ == 0)
                throw WorkerError{WorkerFaultKind::TransientFault,
                                  "induced"};
        });

    EXPECT_TRUE(out.completed);
    EXPECT_EQ(out.attempts, 3u);
    EXPECT_EQ(w.recovery().restoreRetries, 1u);
    EXPECT_EQ(w.recovery().replicaCorruptions, 1u);
    EXPECT_EQ(w.recovery().reprovisions, 1u);
    EXPECT_EQ(w.recovery().transientFaults, 0u);
    EXPECT_EQ(w.recovery().quarantines, 0u);
    EXPECT_EQ(w.provisions(), 2u);
}

TEST(Worker, GuestBudgetClassifiesWedgeAsHangAndQuarantines)
{
    ReplicaConfig cfg = smallReplica();
    cfg.faults.hangRate = 1.0; // every opportunity wedges

    SupervisionConfig sup;
    sup.budget.maxGuestCycles = 1ull << 20;

    Worker w(cfg, sup);
    const WorkOutcome out = w.run(request(0), noisyItem);

    EXPECT_FALSE(out.completed);
    ASSERT_TRUE(out.quarantined.has_value());
    EXPECT_EQ(*out.quarantined, WorkerFaultKind::Hang);
    EXPECT_EQ(out.attempts, 3u);
    EXPECT_NE(out.detail.find("guest budget"), std::string::npos);
    // One hang per rung; the restored replica itself was healthy.
    EXPECT_EQ(w.recovery().hangs, 3u);
    EXPECT_EQ(w.recovery().restoreRetries, 1u);
    EXPECT_EQ(w.recovery().replicaCorruptions, 0u);
    EXPECT_EQ(w.recovery().reprovisions, 1u);
    EXPECT_EQ(w.recovery().quarantines, 1u);

    // The worker is not poisoned: the next item runs clean.
    const WorkOutcome ok =
        w.run(request(1), [](attack::PacOracle &, kernel::Machine &) {});
    EXPECT_TRUE(ok.completed);
}

TEST(Worker, HostDeadlineClassifiedAsHang)
{
    SupervisionConfig sup;
    sup.budget.hostDeadlineSeconds = 1e-9; // expired immediately

    Worker w(smallReplica(), sup);
    const WorkOutcome out = w.run(
        request(0), [](attack::PacOracle &, kernel::Machine &machine) {
            for (int i = 0; i < 1000000; ++i)
                machine.injectNoise();
        });

    EXPECT_FALSE(out.completed);
    ASSERT_TRUE(out.quarantined.has_value());
    EXPECT_EQ(*out.quarantined, WorkerFaultKind::Hang);
    EXPECT_NE(out.detail.find("host deadline"), std::string::npos);
}

TEST(Worker, PersistentFailureQuarantinedAsPoisonedItem)
{
    Worker w(smallReplica(), SupervisionConfig{});
    const WorkOutcome out = w.run(
        request(0), [](attack::PacOracle &, kernel::Machine &) -> void {
            throw WorkerError{WorkerFaultKind::TransientFault,
                              "fails every attempt"};
        });
    EXPECT_FALSE(out.completed);
    ASSERT_TRUE(out.quarantined.has_value());
    EXPECT_EQ(*out.quarantined, WorkerFaultKind::PoisonedItem);
    EXPECT_EQ(out.attempts, 3u);
    EXPECT_EQ(w.recovery().quarantines, 1u);
}

TEST(Worker, FreshProvisionModeHasNoRestoreRung)
{
    ReplicaConfig cfg = smallReplica();
    cfg.snapshot = false;

    Worker w(cfg, SupervisionConfig{});
    const WorkOutcome out = w.run(
        request(0), [](attack::PacOracle &, kernel::Machine &) -> void {
            throw WorkerError{WorkerFaultKind::TransientFault,
                              "fails every attempt"};
        });
    EXPECT_FALSE(out.completed);
    EXPECT_EQ(*out.quarantined, WorkerFaultKind::PoisonedItem);
    // No checkpoint: the ladder escalates straight to re-provision.
    EXPECT_EQ(w.recovery().restoreRetries, 0u);
    EXPECT_EQ(w.recovery().reprovisions, 1u);
    EXPECT_GE(w.provisions(), 2u);
}

// --- journaled campaigns: resume and quarantine ---

/** Unique temp path, removed (with companions) on destruction. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(::testing::TempDir() + "pacman_sup_" + name)
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".quarantine").c_str());
    }
    ~TempPath()
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".quarantine").c_str());
    }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

/** Campaign over a small window with the truth 40 candidates in. */
BruteForceCampaignConfig
smallCampaign(uint16_t *truth_out)
{
    MachineConfig mcfg = defaultMachineConfig();
    mcfg.seed = 42;

    const isa::Addr target = BenignDataBase + 37 * isa::PageSize;
    Machine probe(mcfg);
    uint64_t modifier = 0x100;
    uint16_t truth = 0;
    for (;; ++modifier) {
        truth = probe.kernel().truePac(target, modifier,
                                       crypto::PacKeySelect::DA);
        if (truth >= 64 && truth <= 0xFFF0)
            break;
    }
    if (truth_out)
        *truth_out = truth;

    BruteForceCampaignConfig cfg;
    cfg.replica.machine = mcfg;
    cfg.replica.target = target;
    cfg.replica.modifier = modifier;
    cfg.replica.samples = 1;
    cfg.first = uint16_t(truth - 39);
    cfg.last = uint16_t(truth + 8);
    cfg.seed = 7;
    cfg.pool.chunkSize = 16;
    return cfg;
}

TEST(CampaignJournal, ResumeReproducesUninterruptedFingerprint)
{
    TempPath journal("resume.journal");
    BruteForceCampaignConfig cfg = smallCampaign(nullptr);
    cfg.pool.jobs = 2;

    const std::string fresh = runBruteForceCampaign(cfg).fingerprint();

    cfg.supervision.journalPath = journal.str();
    const BruteForceCampaignResult journaled =
        runBruteForceCampaign(cfg);
    EXPECT_EQ(journaled.fingerprint(), fresh);
    EXPECT_EQ(journaled.chunksResumed, 0u);

    cfg.supervision.resume = true;
    const BruteForceCampaignResult resumed = runBruteForceCampaign(cfg);
    EXPECT_EQ(resumed.fingerprint(), fresh);
    EXPECT_GT(resumed.chunksResumed, 0u);
    EXPECT_EQ(resumed.chunksResumed, journaled.chunksMerged);
}

TEST(CampaignJournal, PartialJournalResumesRemainderIdentically)
{
    TempPath journal("partial.journal");
    BruteForceCampaignConfig cfg = smallCampaign(nullptr);
    cfg.pool.jobs = 1;
    cfg.supervision.journalPath = journal.str();

    const BruteForceCampaignResult full = runBruteForceCampaign(cfg);
    ASSERT_GE(full.chunksMerged, 2u);

    // Simulate a process killed after the first chunk record: rebuild
    // the journal with only the meta record and one completion.
    const Journal::Replay replay = Journal::replay(journal.str());
    ASSERT_GE(replay.records.size(), 2u);
    EXPECT_EQ(replay.records[0].key, "meta");
    std::remove(journal.str().c_str());
    {
        Journal j;
        j.open(journal.str());
        j.append(replay.records[0].key, replay.records[0].payload);
        j.append(replay.records[1].key, replay.records[1].payload);
    }

    cfg.supervision.resume = true;
    const BruteForceCampaignResult resumed = runBruteForceCampaign(cfg);
    EXPECT_EQ(resumed.fingerprint(), full.fingerprint());
    EXPECT_EQ(resumed.chunksResumed, 1u);
}

TEST(CampaignJournal, NonCanonicalChunkKeysAreNotResumed)
{
    // Chunk 0's record copied under keys that name chunk 1 in a form
    // chunkKey() never writes: a sign, a padded or suffixed index, an
    // upper-case seed. None may resume chunk 1.
    TempPath journal("noncanonical.journal");
    BruteForceCampaignConfig cfg = smallCampaign(nullptr);
    cfg.pool.jobs = 1;
    cfg.supervision.journalPath = journal.str();
    const BruteForceCampaignResult full = runBruteForceCampaign(cfg);
    ASSERT_GE(full.chunksMerged, 2u);

    const Journal::Replay replay = Journal::replay(journal.str());
    ASSERT_GE(replay.records.size(), 2u);
    const Journal::Record &meta = replay.records[0];
    const Journal::Record &chunk0 = replay.records[1];
    const std::string seed = chunk0.key.substr(6, 16);
    ASSERT_EQ(chunk0.key, "chunk/" + seed + "/0");
    std::vector<std::string> keys = {
        "chunk/" + seed + "/+1", "chunk/" + seed + "/01",
        "chunk/" + seed + "/1x", "chunk/" + seed + "/1 ",
        "chunk/" + seed + "//1"};
    std::string upper = seed;
    for (char &ch : upper)
        ch = char(std::toupper(ch));
    if (upper != seed)
        keys.push_back("chunk/" + upper + "/1");
    std::remove(journal.str().c_str());
    {
        Journal j;
        j.open(journal.str());
        j.append(meta.key, meta.payload);
        j.append(chunk0.key, chunk0.payload);
        for (const std::string &key : keys)
            j.append(key, chunk0.payload);
    }

    cfg.supervision.resume = true;
    const BruteForceCampaignResult resumed = runBruteForceCampaign(cfg);
    EXPECT_EQ(resumed.chunksResumed, 1u);
    EXPECT_EQ(resumed.fingerprint(), full.fingerprint());
}

TEST(CampaignQuarantine, DeterministicAcrossJobsAndReplayable)
{
    TempPath journal("quarantine.journal");

    uint16_t truth = 0;
    BruteForceCampaignConfig cfg = smallCampaign(&truth);
    // Sweep a range that excludes the truth so no early exit hides
    // chunks, and wedge a fraction of the items.
    cfg.first = uint16_t(truth - 48);
    cfg.last = uint16_t(truth - 1);
    cfg.pool.chunkSize = 8;
    cfg.replica.faults.hangRate = 0.02;
    cfg.supervision.budget.maxGuestCycles = 1ull << 34;

    cfg.pool.jobs = 1;
    cfg.supervision.journalPath = journal.str();
    const BruteForceCampaignResult serial = runBruteForceCampaign(cfg);

    cfg.pool.jobs = 2;
    const BruteForceCampaignResult parallel =
        runBruteForceCampaign(cfg);

    // The wedge is injected from the per-item fault stream and caught
    // by the deterministic guest-cycle budget, so the quarantine list
    // is part of the bit-identical output.
    ASSERT_FALSE(serial.quarantined.empty())
        << "no chunk hung: hangRate too low for this workload";
    EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
    EXPECT_EQ(serial.quarantined.size(), parallel.quarantined.size());
    EXPECT_GT(serial.recovery.hangs, 0u);
    EXPECT_EQ(serial.recovery.quarantines, serial.quarantined.size());

    // Quarantined statistics are excluded from the merge: the merged
    // guess count only covers completed chunks.
    EXPECT_LT(serial.stats.guessesTested,
              uint64_t(cfg.last - cfg.first + 1));

    // The quarantine file lists the same records.
    std::ifstream qf(journal.str() + ".quarantine");
    ASSERT_TRUE(qf.good());
    std::vector<QuarantineRecord> from_file;
    std::string line;
    while (std::getline(qf, line)) {
        const auto rec = QuarantineRecord::parse(line);
        ASSERT_TRUE(rec.has_value()) << line;
        from_file.push_back(*rec);
    }
    ASSERT_EQ(from_file.size(), parallel.quarantined.size());

    // Standalone replay re-derives every stream from the record's
    // seeds (never from thread identity or campaign position), so the
    // failure reproduces with the same classification.
    const QuarantineRecord &rec = serial.quarantined.front();
    const WorkOutcome replay = replayQuarantine(cfg, rec);
    EXPECT_FALSE(replay.completed);
    ASSERT_TRUE(replay.quarantined.has_value());
    EXPECT_EQ(*replay.quarantined, rec.kind);
}

} // namespace
} // namespace pacman
