/**
 * @file
 * Chaos harness for the supervised campaign runtime (DESIGN.md §4g):
 * proves that killing a campaign process at arbitrary journal-record
 * boundaries, corrupting the journal tail, and wedging replicas with
 * injected hangs never changes the campaign's deterministic output.
 *
 * Scenarios:
 *
 *  1. kill/resume — fork a child that journals the campaign and dies
 *     (_Exit(137) via Journal::crashAfterAppends) after the N-th
 *     fsync'd record; the parent resumes from the journal and the
 *     merged fingerprint must be bit-identical to an uninterrupted
 *     run. Swept over --jobs x kill points x fault rates {0, 0.2}.
 *  2. torn tail — garbage is appended to the killed child's journal;
 *     resume must truncate it and still reproduce the fingerprint.
 *  3. hang quarantine — FaultPlan::hangRate wedges replicas; the
 *     guest-cycle budget classifies them as Hangs, the ladder
 *     escalates, and the quarantine list (part of the fingerprint)
 *     must be identical at every thread count. Each quarantine record
 *     is then replayed standalone (replayQuarantine) and must
 *     reproduce the same classification.
 *  4. accuracy kill/resume — the same journal machinery under the
 *     Monte-Carlo accuracy campaign (per-trial rekey path).
 *  5. server kill/resume — the campaign's chunks are dispatched to a
 *     forked pacman-oracled (runner/server.hh) armed to _Exit(137)
 *     after the N-th CHUNK reply. The client campaign aborts
 *     (CampaignAborted), the server is restarted, and the resumed
 *     remote campaign must reproduce the local uninterrupted
 *     fingerprint — chunks journaled before the crash are replayed,
 *     not re-requested.
 *  6. endpoint failover — two forked servers behind an EndpointPool
 *     (runner/dispatch.hh), one armed to die mid-campaign: the
 *     campaign must COMPLETE on the survivor with the local
 *     fingerprint at every --jobs count. Then both endpoints are
 *     armed to die: the campaign must abort (DispatchExhausted), and
 *     resuming against a restarted survivor — with the dead endpoint
 *     still listed — must reproduce the fingerprint.
 *  7. chaos proxy — one endpoint is routed through a
 *     seed-deterministic fault-injecting relay (runner/chaos_proxy.hh:
 *     frame corruption under the original CRC, truncation, mid-chunk
 *     disconnects, deadline-busting delays, duplicate frames) with a
 *     healthy direct endpoint beside it; the pool must absorb every
 *     fault and the merged fingerprint must stay bit-identical.
 *  8. wedged endpoint — a blackhole relay accepts connections and
 *     forwards requests but never relays a response; the per-chunk
 *     host deadline must detect the wedge (dispatch timeouts > 0) and
 *     the campaign must complete on the healthy endpoint.
 *
 * Emits one BENCH JSON line per measurement, e.g.:
 *
 *   BENCH {"bench":"chaos_recovery","scenario":"kill_resume",
 *          "fault_rate":0.2,"jobs":4,"kill_after":5,"resumed":4,
 *          "wall_uninterrupted_s":0.21,"wall_resume_s":0.09,
 *          "identical":true}
 *
 * Flags: --items N (default 256), --chunk N (default 16), --jobs
 * LIST (default "1,4,16"), --train N (default 4), --workdir DIR
 * (default "chaos_artifacts"; journals, quarantine files and chaos
 * proxy fault logs are left there for CI artifact upload),
 * --scenarios LIST (comma-separated subset of kill_resume,
 * hang_quarantine, accuracy_resume, server_kill, endpoint_failover,
 * chaos_proxy, wedged_endpoint; default all), --quick (CI-sized
 * matrix). Exits non-zero if any scenario diverges.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "campaign_setup.hh"
#include "runner/chaos_proxy.hh"
#include "runner/dispatch.hh"

using namespace pacman;
using namespace pacman::attack;
using namespace pacman::bench;
using namespace pacman::kernel;
using namespace pacman::runner;

namespace
{

struct Options
{
    unsigned items = 256;
    uint64_t chunk = 16;
    std::vector<unsigned> jobs = {1, 4, 16};
    unsigned train = 4;
    std::string workdir = "chaos_artifacts";
    std::vector<std::string> scenarios; //!< empty = run all
    bool quick = false;

    bool
    enabled(const char *name) const
    {
        if (scenarios.empty())
            return true;
        for (const std::string &s : scenarios)
            if (s == name)
                return true;
        return false;
    }
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Chaos harness: kill/resume, torn journals, hang quarantine\n"
        "(DESIGN.md section 4g).\n"
        "\n"
        "  --items N      brute-force candidates to sweep (default 256)\n"
        "  --chunk N      items per chunk / journal record (default 16)\n"
        "  --jobs LIST    thread counts, comma-separated (default 1,4,16)\n"
        "  --train N      oracle training iterations (default 4)\n"
        "  --workdir DIR  journal/quarantine artifact directory\n"
        "                 (default chaos_artifacts)\n"
        "  --scenarios L  comma-separated subset to run (default all):\n"
        "                 kill_resume,hang_quarantine,accuracy_resume,\n"
        "                 server_kill,endpoint_failover,chaos_proxy,\n"
        "                 wedged_endpoint\n"
        "  --quick        CI-sized matrix (fewer kill points/jobs)\n"
        "  --help         this text\n",
        argv0);
}

/**
 * Fork a child that runs @p cfg with the journal armed to kill the
 * process after @p kill_after appends. Returns the child's exit code
 * (137 = died at the record boundary, 0 = campaign finished first).
 */
int
runChildWithKill(BruteForceCampaignConfig cfg,
                 const std::string &journal, uint64_t kill_after)
{
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
        cfg.supervision.journalPath = journal;
        cfg.supervision.resume = false;
        cfg.supervision.crashAfterAppends = kill_after;
        runBruteForceCampaign(cfg);
        std::_Exit(0); // campaign completed before the kill point
    }
    int status = 0;
    waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

struct ScenarioTally
{
    unsigned run = 0;
    unsigned failed = 0;

    void
    check(bool ok, const char *what)
    {
        ++run;
        if (!ok) {
            ++failed;
            std::printf("FAIL: %s\n", what);
        }
    }
};

/** Scenario 1 (+2): kill at a record boundary, optionally tear the
 *  journal tail, resume, compare against the uninterrupted run. */
void
killResumeScenario(const Options &opt, ScenarioTally &tally)
{
    const std::vector<double> fault_rates = {0.0, 0.2};
    for (double fault_rate : fault_rates) {
        BruteForceCampaignConfig cfg =
            truthLastBruteForce(opt.items, opt.train, opt.chunk, fault_rate);
        const uint64_t chunks =
            chunkCount(uint64_t(cfg.last) - cfg.first + 1,
                       cfg.pool.chunkSize);

        // Uninterrupted reference (no journal involved at all).
        cfg.pool.jobs = 1;
        const BruteForceCampaignResult ref =
            runBruteForceCampaign(cfg);
        const std::string ref_fp = ref.fingerprint();

        // Kill after the meta record (nothing resumable), early, and
        // late in the chunk stream. Record 1 is the meta record.
        std::vector<uint64_t> kill_points = {1, 1 + chunks / 4,
                                             1 + (3 * chunks) / 4};
        if (opt.quick)
            kill_points = {1 + chunks / 2};

        for (unsigned jobs : opt.jobs) {
            for (uint64_t kill_after : kill_points) {
                const std::string journal = strprintf(
                    "%s/kill_f%02.0f_j%u_k%llu.journal",
                    opt.workdir.c_str(), fault_rate * 100, jobs,
                    (unsigned long long)kill_after);
                cfg.pool.jobs = jobs;

                const int code =
                    runChildWithKill(cfg, journal, kill_after);
                tally.check(code == 137 || code == 0,
                            "child died outside a record boundary");

                // Torn tail: the late kill point also gets garbage
                // appended, exercising replay's truncation path.
                const bool tear = kill_after == kill_points.back();
                if (tear) {
                    std::ofstream f(journal, std::ios::app |
                                                 std::ios::binary);
                    f << "R deadbeef 4 9\ntornTORN"; // short frame
                }

                cfg.supervision.journalPath = journal;
                cfg.supervision.resume = true;
                cfg.supervision.crashAfterAppends = 0;
                const auto t0 = std::chrono::steady_clock::now();
                const BruteForceCampaignResult res =
                    runBruteForceCampaign(cfg);
                const auto t1 = std::chrono::steady_clock::now();
                cfg.supervision = SupervisionConfig{};

                const bool identical = res.fingerprint() == ref_fp;
                tally.check(identical,
                            "resumed fingerprint diverged");
                if (code == 137)
                    tally.check(res.chunksResumed > 0 ||
                                    kill_after <= 1,
                                "kill mid-run but nothing resumed");
                std::printf(
                    "kill/resume f=%.1f jobs=%-2u kill_after=%-3llu "
                    "resumed=%llu%s  %s\n",
                    fault_rate, jobs, (unsigned long long)kill_after,
                    (unsigned long long)res.chunksResumed,
                    tear ? " (torn tail)" : "",
                    identical ? "identical" : "DIVERGED");
                std::printf(
                    "BENCH {\"bench\":\"chaos_recovery\","
                    "\"scenario\":\"kill_resume\","
                    "\"fault_rate\":%.2f,\"jobs\":%u,"
                    "\"kill_after\":%llu,\"resumed\":%llu,"
                    "\"torn_tail\":%s,"
                    "\"wall_uninterrupted_s\":%.4f,"
                    "\"wall_resume_s\":%.4f,\"identical\":%s}\n",
                    fault_rate, jobs,
                    (unsigned long long)kill_after,
                    (unsigned long long)res.chunksResumed,
                    tear ? "true" : "false", ref.wallSeconds,
                    std::chrono::duration<double>(t1 - t0).count(),
                    identical ? "true" : "false");
            }
        }
    }
}

/** Scenario 3: injected wedges -> Hang classification -> quarantine,
 *  identical across thread counts and reproducible standalone. */
void
hangQuarantineScenario(const Options &opt, ScenarioTally &tally)
{
    BruteForceCampaignConfig cfg =
        truthLastBruteForce(opt.items, opt.train, opt.chunk, 0.0);
    cfg.replica.faults.hangRate = 0.003;
    cfg.supervision.budget.maxGuestCycles = 1ull << 34;

    std::string ref_fp;
    BruteForceCampaignResult ref;
    for (unsigned jobs : opt.jobs) {
        cfg.pool.jobs = jobs;
        const BruteForceCampaignResult res =
            runBruteForceCampaign(cfg);
        if (ref_fp.empty()) {
            ref = res;
            ref_fp = res.fingerprint();
            tally.check(!res.quarantined.empty(),
                        "hang plan produced no quarantines");
        }
        const bool identical = res.fingerprint() == ref_fp;
        tally.check(identical,
                    "quarantine fingerprint diverged across jobs");
        std::printf("hang-quarantine jobs=%-2u quarantined=%zu "
                    "hangs=%llu reprovisions=%llu  %s\n",
                    jobs, res.quarantined.size(),
                    (unsigned long long)res.recovery.hangs,
                    (unsigned long long)res.recovery.reprovisions,
                    identical ? "identical" : "DIVERGED");
        std::printf("BENCH {\"bench\":\"chaos_recovery\","
                    "\"scenario\":\"hang_quarantine\",\"jobs\":%u,"
                    "\"quarantined\":%zu,\"hangs\":%llu,"
                    "\"identical\":%s}\n",
                    jobs, res.quarantined.size(),
                    (unsigned long long)res.recovery.hangs,
                    identical ? "true" : "false");
    }

    // Kill/resume must also reproduce the quarantine list (the
    // records travel through the journal).
    const std::string journal =
        opt.workdir + "/hang_resume.journal";
    cfg.pool.jobs = opt.jobs.back();
    const int code = runChildWithKill(
        cfg, journal,
        1 + chunkCount(uint64_t(cfg.last) - cfg.first + 1,
                       cfg.pool.chunkSize) /
                2);
    tally.check(code == 137 || code == 0,
                "hang-plan child died outside a record boundary");
    cfg.supervision.journalPath = journal;
    cfg.supervision.resume = true;
    const BruteForceCampaignResult resumed =
        runBruteForceCampaign(cfg);
    tally.check(resumed.fingerprint() == ref_fp,
                "resumed hang-quarantine fingerprint diverged");
    cfg.supervision = SupervisionConfig{};
    cfg.supervision.budget.maxGuestCycles = 1ull << 34;

    // Standalone reproduction: each quarantine record must fail the
    // same way outside the campaign.
    size_t replayed = 0;
    for (const QuarantineRecord &rec : ref.quarantined) {
        if (replayed == (opt.quick ? 1u : 3u))
            break;
        ++replayed;
        const WorkOutcome outcome = replayQuarantine(cfg, rec);
        tally.check(!outcome.completed,
                    "quarantined item completed on replay");
        tally.check(outcome.quarantined &&
                        *outcome.quarantined == rec.kind,
                    "replayed classification differs from record");
        std::printf("replay chunk %llu: %s (%s)\n",
                    (unsigned long long)rec.chunkIndex,
                    outcome.completed ? "completed?!" : "reproduced",
                    workerFaultName(rec.kind));
    }
    std::printf("BENCH {\"bench\":\"chaos_recovery\","
                "\"scenario\":\"quarantine_replay\","
                "\"records\":%zu,\"replayed\":%zu}\n",
                ref.quarantined.size(), replayed);
}

/** Scenario 4: the accuracy campaign's journal path (rekey trials). */
void
accuracyResumeScenario(const Options &opt, ScenarioTally &tally)
{
    AccuracyCampaignConfig cfg;
    cfg.replica.machine = defaultMachineConfig();
    cfg.replica.machine.seed = 42;
    cfg.replica.oracle.trainIters = opt.train;
    cfg.replica.target = BenignDataBase + 37 * isa::PageSize;
    cfg.replica.modifier = 0x9999;
    cfg.replica.samples = 1;
    cfg.trials = opt.quick ? 4 : 8;
    cfg.window = 24;
    cfg.seed = 1000;
    cfg.pool.chunkSize = 1;

    cfg.pool.jobs = 1;
    const std::string ref_fp = runAccuracyCampaign(cfg).fingerprint();

    const std::string journal =
        opt.workdir + "/accuracy_resume.journal";
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
        cfg.supervision.journalPath = journal;
        cfg.supervision.crashAfterAppends = 1 + cfg.trials / 2;
        cfg.pool.jobs = 2;
        runAccuracyCampaign(cfg);
        std::_Exit(0);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    tally.check(WIFEXITED(status) && (WEXITSTATUS(status) == 137 ||
                                      WEXITSTATUS(status) == 0),
                "accuracy child died outside a record boundary");

    for (unsigned jobs : opt.jobs) {
        cfg.pool.jobs = jobs;
        cfg.supervision.journalPath = journal;
        cfg.supervision.resume = true;
        const AccuracyCampaignResult res = runAccuracyCampaign(cfg);
        const bool identical = res.fingerprint() == ref_fp;
        tally.check(identical, "accuracy resume diverged");
        std::printf("accuracy resume jobs=%-2u resumed=%llu  %s\n",
                    jobs, (unsigned long long)res.chunksResumed,
                    identical ? "identical" : "DIVERGED");
        std::printf("BENCH {\"bench\":\"chaos_recovery\","
                    "\"scenario\":\"accuracy_resume\",\"jobs\":%u,"
                    "\"resumed\":%llu,\"identical\":%s}\n",
                    jobs, (unsigned long long)res.chunksResumed,
                    identical ? "true" : "false");
    }
}

/** Scenario 5: kill the oracle server between chunk replies; resume
 *  against a restarted server reproduces the local fingerprint. */
void
serverKillScenario(const Options &opt, ScenarioTally &tally)
{
    BruteForceCampaignConfig cfg =
        truthLastBruteForce(opt.items, opt.train, opt.chunk, 0.0);
    const uint64_t chunks = chunkCount(
        uint64_t(cfg.last) - cfg.first + 1, cfg.pool.chunkSize);

    cfg.pool.jobs = 1;
    const std::string ref_fp =
        runBruteForceCampaign(cfg).fingerprint();

    const std::string socket = opt.workdir + "/oracled.sock";
    const std::string endpoint = "unix:" + socket;
    const std::string journal =
        opt.workdir + "/server_kill.journal";
    std::remove(journal.c_str());
    std::remove((journal + ".quarantine").c_str());

    cfg.pool.jobs = opt.jobs.back();
    cfg.supervision.journalPath = journal;

    // First attempt: the server dies after replying half the chunks.
    pid_t pid = forkServer(socket, 2, chunks / 2 + 1);
    tally.check(waitForServer(endpoint), "armed server never came up");
    bool aborted = false;
    try {
        runBruteForceCampaignRemote(cfg, endpoint);
    } catch (const CampaignAborted &) {
        aborted = true;
    }
    int status = 0;
    waitpid(pid, &status, 0);
    tally.check(WIFEXITED(status) && WEXITSTATUS(status) == 137,
                "server did not die at the armed chunk reply");
    tally.check(aborted, "campaign survived its server dying");

    // Restart the server unarmed and resume: journaled chunks replay
    // locally, only the missing ones go back on the wire.
    pid = forkServer(socket, 2);
    tally.check(waitForServer(endpoint),
                "restarted server never came up");
    cfg.supervision.resume = true;
    const auto t0 = std::chrono::steady_clock::now();
    const BruteForceCampaignResult res =
        runBruteForceCampaignRemote(cfg, endpoint);
    const auto t1 = std::chrono::steady_clock::now();
    const bool identical = res.fingerprint() == ref_fp;
    tally.check(identical, "server kill/resume fingerprint diverged");
    tally.check(res.chunksResumed > 0,
                "server kill left nothing to resume");

    {
        OracleClient closer(endpoint);
        closer.drain();
    }
    waitpid(pid, &status, 0);
    tally.check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                "drained server exited uncleanly");

    std::printf("server kill/resume jobs=%-2u chunks=%llu "
                "resumed=%llu  %s\n",
                cfg.pool.jobs, (unsigned long long)chunks,
                (unsigned long long)res.chunksResumed,
                identical ? "identical" : "DIVERGED");
    std::printf("BENCH {\"bench\":\"chaos_recovery\","
                "\"scenario\":\"server_kill\",\"jobs\":%u,"
                "\"chunks\":%llu,\"resumed\":%llu,"
                "\"wall_resume_s\":%.4f,\"identical\":%s}\n",
                cfg.pool.jobs, (unsigned long long)chunks,
                (unsigned long long)res.chunksResumed,
                std::chrono::duration<double>(t1 - t0).count(),
                identical ? "true" : "false");
}

/** Reap a forked server and report whether it exited with @p code. */
bool
serverExited(pid_t pid, int code)
{
    int status = 0;
    waitpid(pid, &status, 0);
    return WIFEXITED(status) && WEXITSTATUS(status) == code;
}

/** Drain the server at @p endpoint and reap it (clean exit). */
bool
drainServer(const std::string &endpoint, pid_t pid)
{
    try {
        OracleClient closer(endpoint);
        closer.drain();
    } catch (const WireError &) {
        // fall through to the reap: a dead server fails the check
    }
    return serverExited(pid, 0);
}

/** Scenario 6: one endpoint dies mid-campaign -> the pool completes
 *  on the survivor; both die -> abort, then resume with the dead
 *  endpoint still listed reproduces the fingerprint. */
void
endpointFailoverScenario(const Options &opt, ScenarioTally &tally)
{
    BruteForceCampaignConfig cfg =
        truthLastBruteForce(opt.items, opt.train, opt.chunk, 0.0);
    // Quarter-size chunks: the armed endpoint's affine workers must
    // still find work queued when it dies. With a dozen large chunks
    // a CPU-starved endpoint could watch the survivor drain the whole
    // queue first, leaving no fault to recover from.
    cfg.pool.chunkSize = std::max<uint64_t>(1, cfg.pool.chunkSize / 4);
    const uint64_t chunks = chunkCount(
        uint64_t(cfg.last) - cfg.first + 1, cfg.pool.chunkSize);

    cfg.pool.jobs = 1;
    const std::string ref_fp =
        runBruteForceCampaign(cfg).fingerprint();

    const std::string sockA = opt.workdir + "/failover_a.sock";
    const std::string sockB = opt.workdir + "/failover_b.sock";
    DispatchConfig dcfg;
    dcfg.endpoints = {"unix:" + sockA, "unix:" + sockB};
    dcfg.chunkDeadlineSeconds = 10.0;
    dcfg.busyDeadlineSeconds = 10.0;
    dcfg.breakerThreshold = 2;
    dcfg.probeAfterSeconds = 5.0; // the dead endpoint never returns

    for (unsigned jobs : opt.jobs) {
        // Endpoint A dies after its second chunk reply — early
        // enough that work definitely remains for its affine workers
        // at any --jobs count — and the campaign must complete
        // anyway, entirely without a journal.
        const pid_t pidA = forkServer(sockA, 2, 2);
        const pid_t pidB = forkServer(sockB, 2);
        tally.check(waitForServer(dcfg.endpoints[0]) &&
                        waitForServer(dcfg.endpoints[1]),
                    "failover servers never came up");

        // With workers affine to both endpoints, hold the survivor:
        // both of B's service threads sleep while A serves its two
        // chunks and dies, so A's workers still find chunks queued
        // and must fail over. Unheld, a CPU-starved A could watch B
        // drain the whole queue first and leave no fault to recover
        // from. B answers the PING only after it has queued both
        // SLEEPs, so they run before any chunk B receives.
        OracleClient hold(dcfg.endpoints[1]);
        if (jobs > 1) {
            hold.sendRequest("SLEEP", "1000");
            hold.sendRequest("SLEEP", "1000");
            hold.ping();
        }

        cfg.pool.jobs = jobs;
        cfg.supervision = SupervisionConfig{};
        const auto t0 = std::chrono::steady_clock::now();
        const BruteForceCampaignResult res =
            runBruteForceCampaignRemote(cfg, dcfg);
        const auto t1 = std::chrono::steady_clock::now();

        const bool identical = res.fingerprint() == ref_fp;
        tally.check(identical, "failover fingerprint diverged");
        tally.check(res.dispatch.faults() > 0,
                    "endpoint died but no dispatch fault recorded");
        tally.check(res.dispatch.retries > 0,
                    "endpoint died but nothing was redispatched");
        tally.check(serverExited(pidA, 137),
                    "armed endpoint did not die at its chunk reply");
        tally.check(drainServer(dcfg.endpoints[1], pidB),
                    "surviving endpoint exited uncleanly");
        std::printf(
            "endpoint failover jobs=%-2u faults=%llu retries=%llu "
            "failovers=%llu breaker_opens=%llu  %s\n",
            jobs, (unsigned long long)res.dispatch.faults(),
            (unsigned long long)res.dispatch.retries,
            (unsigned long long)res.dispatch.failovers,
            (unsigned long long)res.dispatch.breakerOpens,
            identical ? "identical" : "DIVERGED");
        std::printf(
            "BENCH {\"bench\":\"chaos_recovery\","
            "\"scenario\":\"endpoint_failover\",\"jobs\":%u,"
            "\"faults\":%llu,\"retries\":%llu,\"failovers\":%llu,"
            "\"wall_s\":%.4f,\"identical\":%s}\n",
            jobs, (unsigned long long)res.dispatch.faults(),
            (unsigned long long)res.dispatch.retries,
            (unsigned long long)res.dispatch.failovers,
            std::chrono::duration<double>(t1 - t0).count(),
            identical ? "true" : "false");
    }

    // Every endpoint dies: the campaign must abort with the retry
    // budget spent, and a resume against a restarted B — with dead A
    // still listed — must replay the journaled chunks and finish.
    const std::string journal =
        opt.workdir + "/failover_resume.journal";
    std::remove(journal.c_str());
    std::remove((journal + ".quarantine").c_str());

    pid_t pidA = forkServer(sockA, 2, chunks / 4 + 1);
    pid_t pidB = forkServer(sockB, 2, chunks / 4 + 1);
    tally.check(waitForServer(dcfg.endpoints[0]) &&
                    waitForServer(dcfg.endpoints[1]),
                "armed failover servers never came up");
    cfg.pool.jobs = opt.jobs.back();
    cfg.supervision = SupervisionConfig{};
    cfg.supervision.journalPath = journal;
    dcfg.probeAfterSeconds = 0.05; // abort fast once both are gone
    bool aborted = false;
    std::string abort_why;
    try {
        runBruteForceCampaignRemote(cfg, dcfg);
    } catch (const CampaignAborted &e) {
        aborted = true;
        abort_why = e.what();
    }
    tally.check(aborted, "campaign survived every endpoint dying");
    tally.check(abort_why.find("dispatch-exhausted") !=
                    std::string::npos,
                "abort reason not classified dispatch-exhausted");
    tally.check(serverExited(pidA, 137) && serverExited(pidB, 137),
                "armed endpoints did not die at their chunk replies");

    pidB = forkServer(sockB, 2);
    tally.check(waitForServer(dcfg.endpoints[1]),
                "restarted survivor never came up");
    cfg.supervision.resume = true;
    const BruteForceCampaignResult res =
        runBruteForceCampaignRemote(cfg, dcfg);
    const bool identical = res.fingerprint() == ref_fp;
    tally.check(identical, "failover resume fingerprint diverged");
    tally.check(res.chunksResumed > 0,
                "all-endpoints-die left nothing to resume");
    tally.check(drainServer(dcfg.endpoints[1], pidB),
                "restarted survivor exited uncleanly");
    std::printf("endpoint failover abort/resume resumed=%llu  %s\n",
                (unsigned long long)res.chunksResumed,
                identical ? "identical" : "DIVERGED");
    std::printf("BENCH {\"bench\":\"chaos_recovery\","
                "\"scenario\":\"endpoint_failover_resume\","
                "\"jobs\":%u,\"resumed\":%llu,\"identical\":%s}\n",
                cfg.pool.jobs,
                (unsigned long long)res.chunksResumed,
                identical ? "true" : "false");
}

/** Scenario 7: a fault-injecting relay in front of one endpoint with
 *  a healthy endpoint beside it; every injected fault must be
 *  absorbed without touching the merged fingerprint. */
void
chaosProxyScenario(const Options &opt, ScenarioTally &tally)
{
    BruteForceCampaignConfig cfg =
        truthLastBruteForce(opt.items, opt.train, opt.chunk, 0.0);
    cfg.pool.jobs = 1;
    const std::string ref_fp =
        runBruteForceCampaign(cfg).fingerprint();

    const std::string sock = opt.workdir + "/proxy_upstream.sock";
    const pid_t pid = forkServer(sock, 2);
    tally.check(waitForServer("unix:" + sock),
                "proxy upstream server never came up");

    ChaosProxyConfig pcfg;
    pcfg.upstream = "unix:" + sock;
    pcfg.seed = 42;
    pcfg.dropRate = 0.10;
    pcfg.corruptRate = 0.15;
    pcfg.truncateRate = 0.10;
    pcfg.delayRate = 0.05;
    pcfg.delaySeconds = 5.0; // must bust the 2s chunk deadline
    pcfg.duplicateRate = 0.10;
    pcfg.logPath = opt.workdir + "/chaos_proxy.log";
    ChaosProxy proxy(pcfg);

    DispatchConfig dcfg;
    dcfg.endpoints = {proxy.endpoint(), "unix:" + sock};
    dcfg.chunkDeadlineSeconds = 2.0;
    dcfg.busyDeadlineSeconds = 10.0;
    dcfg.probeAfterSeconds = 5.0;

    for (unsigned jobs : opt.jobs) {
        cfg.pool.jobs = jobs;
        cfg.supervision = SupervisionConfig{};
        const auto t0 = std::chrono::steady_clock::now();
        const BruteForceCampaignResult res =
            runBruteForceCampaignRemote(cfg, dcfg);
        const auto t1 = std::chrono::steady_clock::now();
        const bool identical = res.fingerprint() == ref_fp;
        tally.check(identical, "chaos-proxy fingerprint diverged");
        const ChaosProxy::Counters c = proxy.counters();
        std::printf(
            "chaos proxy jobs=%-2u injected=%llu (drop=%llu "
            "corrupt=%llu truncate=%llu delay=%llu dup=%llu) "
            "absorbed=%llu  %s\n",
            jobs, (unsigned long long)c.faults(),
            (unsigned long long)c.drops,
            (unsigned long long)c.corruptions,
            (unsigned long long)c.truncations,
            (unsigned long long)c.delays,
            (unsigned long long)c.duplicates,
            (unsigned long long)res.dispatch.faults(),
            identical ? "identical" : "DIVERGED");
        std::printf(
            "BENCH {\"bench\":\"chaos_recovery\","
            "\"scenario\":\"chaos_proxy\",\"jobs\":%u,"
            "\"injected\":%llu,\"absorbed\":%llu,\"wall_s\":%.4f,"
            "\"identical\":%s}\n",
            jobs, (unsigned long long)c.faults(),
            (unsigned long long)res.dispatch.faults(),
            std::chrono::duration<double>(t1 - t0).count(),
            identical ? "true" : "false");
    }
    tally.check(proxy.counters().faults() > 0,
                "chaos proxy injected no faults at these rates");

    tally.check(drainServer("unix:" + sock, pid),
                "proxy upstream exited uncleanly");
}

/** Scenario 8: a blackhole relay accepts and forwards requests but
 *  never relays a response — the chunk deadline must detect the
 *  wedge and the campaign must complete on the healthy endpoint. */
void
wedgedEndpointScenario(const Options &opt, ScenarioTally &tally)
{
    BruteForceCampaignConfig cfg =
        truthLastBruteForce(opt.items, opt.train, opt.chunk, 0.0);
    cfg.pool.jobs = 1;
    const std::string ref_fp =
        runBruteForceCampaign(cfg).fingerprint();

    const std::string sock = opt.workdir + "/wedged_upstream.sock";
    const pid_t pid = forkServer(sock, 2);
    tally.check(waitForServer("unix:" + sock),
                "wedged upstream server never came up");

    ChaosProxyConfig pcfg;
    pcfg.upstream = "unix:" + sock;
    pcfg.seed = 42;
    pcfg.blackhole = true;
    pcfg.logPath = opt.workdir + "/wedged_proxy.log";
    ChaosProxy black(pcfg);

    DispatchConfig dcfg;
    dcfg.endpoints = {black.endpoint(), "unix:" + sock};
    dcfg.chunkDeadlineSeconds = 1.5;
    dcfg.busyDeadlineSeconds = 10.0;
    dcfg.breakerThreshold = 1;  // one wedge strike opens the breaker
    dcfg.probeAfterSeconds = 30; // and nothing reopens it in-run

    for (unsigned jobs : opt.jobs) {
        cfg.pool.jobs = jobs;
        cfg.supervision = SupervisionConfig{};
        const auto t0 = std::chrono::steady_clock::now();
        const BruteForceCampaignResult res =
            runBruteForceCampaignRemote(cfg, dcfg);
        const auto t1 = std::chrono::steady_clock::now();
        const double wall =
            std::chrono::duration<double>(t1 - t0).count();
        const bool identical = res.fingerprint() == ref_fp;
        tally.check(identical, "wedged-endpoint fingerprint diverged");
        tally.check(res.dispatch.timeouts > 0,
                    "wedged endpoint never tripped the deadline");
        tally.check(res.dispatch.breakerOpens > 0,
                    "wedged endpoint never opened its breaker");
        std::printf("wedged endpoint jobs=%-2u timeouts=%llu "
                    "breaker_opens=%llu wall=%.2fs  %s\n",
                    jobs, (unsigned long long)res.dispatch.timeouts,
                    (unsigned long long)res.dispatch.breakerOpens,
                    wall, identical ? "identical" : "DIVERGED");
        std::printf("BENCH {\"bench\":\"chaos_recovery\","
                    "\"scenario\":\"wedged_endpoint\",\"jobs\":%u,"
                    "\"timeouts\":%llu,\"wall_s\":%.4f,"
                    "\"identical\":%s}\n",
                    jobs, (unsigned long long)res.dispatch.timeouts,
                    wall, identical ? "true" : "false");
    }

    tally.check(drainServer("unix:" + sock, pid),
                "wedged upstream exited uncleanly");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--items") && i + 1 < argc)
            opt.items = unsigned(std::strtoul(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--chunk") && i + 1 < argc)
            opt.chunk = std::strtoull(argv[++i], nullptr, 0);
        else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
            opt.jobs = parseJobsList(argv[++i]);
        else if (!std::strcmp(argv[i], "--train") && i + 1 < argc)
            opt.train = unsigned(std::strtoul(argv[++i], nullptr, 0));
        else if (!std::strcmp(argv[i], "--workdir") && i + 1 < argc)
            opt.workdir = argv[++i];
        else if (!std::strcmp(argv[i], "--scenarios") && i + 1 < argc) {
            const std::string s(argv[++i]);
            size_t pos = 0;
            while (pos < s.size()) {
                size_t next = s.find(',', pos);
                if (next == std::string::npos)
                    next = s.size();
                opt.scenarios.push_back(s.substr(pos, next - pos));
                pos = next + 1;
            }
        } else if (!std::strcmp(argv[i], "--quick"))
            opt.quick = true;
        else if (!std::strcmp(argv[i], "--help")) {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n\n", argv[i]);
            usage(argv[0]);
            return 2;
        }
    }
    if (opt.quick && opt.jobs.size() > 2)
        opt.jobs = {1, 4};

    std::error_code ec;
    std::filesystem::create_directories(opt.workdir, ec);

    ScenarioTally tally;
    if (opt.enabled("kill_resume")) {
        std::printf("== chaos recovery: kill/resume ==\n");
        killResumeScenario(opt, tally);
    }
    if (opt.enabled("hang_quarantine")) {
        std::printf("\n== chaos recovery: hang quarantine ==\n");
        hangQuarantineScenario(opt, tally);
    }
    if (opt.enabled("accuracy_resume")) {
        std::printf("\n== chaos recovery: accuracy resume ==\n");
        accuracyResumeScenario(opt, tally);
    }
    if (opt.enabled("server_kill")) {
        std::printf("\n== chaos recovery: server kill ==\n");
        serverKillScenario(opt, tally);
    }
    if (opt.enabled("endpoint_failover")) {
        std::printf("\n== chaos recovery: endpoint failover ==\n");
        endpointFailoverScenario(opt, tally);
    }
    if (opt.enabled("chaos_proxy")) {
        std::printf("\n== chaos recovery: chaos proxy ==\n");
        chaosProxyScenario(opt, tally);
    }
    if (opt.enabled("wedged_endpoint")) {
        std::printf("\n== chaos recovery: wedged endpoint ==\n");
        wedgedEndpointScenario(opt, tally);
    }
    if (tally.run == 0) {
        std::fprintf(stderr, "no scenario matched --scenarios\n");
        return 2;
    }

    std::printf("\n%u checks, %u failed; artifacts in %s\n",
                tally.run, tally.failed, opt.workdir.c_str());
    return tally.failed == 0 ? 0 : 1;
}
