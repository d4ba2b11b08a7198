#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/faults.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "crypto/pac.hh"
#include "kernel/layout.hh"
#include "kernel/machine.hh"
#include "runner/client.hh"
#include "runner/protocol.hh"
#include "runner/server.hh"

namespace pacman
{
namespace
{

using namespace pacman::attack;
using namespace pacman::kernel;
using namespace pacman::runner;

// --- wire protocol -------------------------------------------------

TEST(Protocol, FrameRoundTripOverPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    writeFrame(fds[1], "hello frame");
    writeFrame(fds[1], std::string("\0binary\npayload", 15));
    const auto a = readFrame(fds[0]);
    const auto b = readFrame(fds[0]);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, "hello frame");
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*b, std::string("\0binary\npayload", 15));
    // Clean close at a frame boundary reads as end-of-stream.
    ::close(fds[1]);
    EXPECT_FALSE(readFrame(fds[0]).has_value());
    ::close(fds[0]);
}

TEST(Protocol, CorruptFrameThrows)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    writeFrame(fds[1], "payload");
    // Flip one payload byte behind the CRC's back.
    char garbage = 'X';
    // Read header+payload, corrupt, and feed through a second pipe.
    char buf[12 + 7];
    ASSERT_EQ(::read(fds[0], buf, sizeof(buf)), ssize_t(sizeof(buf)));
    buf[12] = garbage;
    int fds2[2];
    ASSERT_EQ(::pipe(fds2), 0);
    ASSERT_EQ(::write(fds2[1], buf, sizeof(buf)),
              ssize_t(sizeof(buf)));
    EXPECT_THROW(readFrame(fds2[0]), WireError);
    ::close(fds[0]);
    ::close(fds[1]);
    ::close(fds2[0]);
    ::close(fds2[1]);
}

/** What reading a byte stream frame by frame produced. */
struct SplitOutcome
{
    std::vector<std::string> payloads;
    bool atBoundary = false; //!< stopped cleanly, not on a WireError
};

/** @p stream through a FrameSplitter, fed in random-sized pieces. EOF
 *  with part of a frame buffered counts as failing, as in readFrame. */
SplitOutcome
splitInPieces(const std::string &stream, Random &rng)
{
    SplitOutcome out;
    FrameSplitter frames;
    try {
        for (size_t at = 0; at < stream.size();) {
            const size_t piece = std::min<size_t>(
                stream.size() - at,
                1 + rng.next(rng.chance(0.5) ? 16 : 96 * 1024));
            frames.append(stream.data() + at, piece);
            at += piece;
            while (std::optional<std::string> payload = frames.next())
                out.payloads.push_back(std::move(*payload));
        }
        out.atBoundary = !frames.midFrame();
    } catch (const WireError &) {
    }
    return out;
}

/** @p stream read with readFrame from a socketpair until it ends. */
SplitOutcome
readOverSocket(const std::string &stream)
{
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread writer([&] {
        try {
            writeBytes(fds[1], stream.data(), stream.size());
        } catch (const WireError &) {
            // The reader gave up on a bad frame and closed its end.
        }
        ::shutdown(fds[1], SHUT_WR);
    });
    SplitOutcome out;
    try {
        while (std::optional<std::string> payload = readFrame(fds[0]))
            out.payloads.push_back(std::move(*payload));
        out.atBoundary = true;
    } catch (const WireError &) {
    }
    ::close(fds[0]);
    writer.join();
    ::close(fds[1]);
    return out;
}

TEST(Protocol, FrameSplitterMatchesReadFrame)
{
    // pacman-oracled cuts frames out of whatever bytes each read
    // brought; clients read one frame at a time with readFrame. Both
    // must agree on any stream: the same payloads, then both failing
    // or both stopping at a frame boundary. Each stream is valid frames
    // with one mutation, fed to the splitter in random-sized pieces.
    enum Mutation { Magic, Length, Crc, PayloadBit, Truncate, Mutations };
    for (uint64_t seed = 1; seed <= 300; ++seed) {
        Random rng(seed);
        std::vector<std::string> sent;
        std::vector<size_t> starts;
        std::string stream;
        const size_t count = 1 + rng.next(8);
        for (size_t f = 0; f < count; ++f) {
            // Now and then a frame larger than readFrame's 64 KiB reads.
            std::string payload(rng.chance(0.05) ? 70'000 + rng.next(8192)
                                                 : 1 + rng.next(300),
                                '\0');
            for (char &ch : payload)
                ch = char(rng.next(256));
            starts.push_back(stream.size());
            stream += encodeFrame(payload);
            sent.push_back(std::move(payload));
        }
        const size_t victim = rng.next(count);
        const size_t at = starts[victim];
        const auto mutation = Mutation(rng.next(Mutations));
        switch (mutation) {
          case Magic:
            stream[at + rng.next(4)] ^= char(1 << rng.next(8));
            break;
          case Length: {
            const uint32_t len = MaxFrameBytes + 1 + uint32_t(rng.next(1000));
            for (int b = 0; b < 4; ++b)
                stream[at + 4 + b] = char((len >> (8 * b)) & 0xff);
            break;
          }
          case Crc:
            stream[at + 8 + rng.next(4)] ^= char(1 << rng.next(8));
            break;
          case PayloadBit:
            stream[at + FrameHeaderBytes + rng.next(sent[victim].size())] ^=
                char(1 << rng.next(8));
            break;
          case Truncate:
            stream.resize(rng.next(stream.size()));
            break;
          case Mutations:
            break;
        }

        const SplitOutcome split = splitInPieces(stream, rng);
        const SplitOutcome read = readOverSocket(stream);
        EXPECT_EQ(split.payloads, read.payloads) << "seed " << seed;
        EXPECT_EQ(split.atBoundary, read.atBoundary) << "seed " << seed;
        // Every frame before the mutated one arrives intact. Any
        // mutation but a cut at a frame boundary is an error.
        size_t intact = victim;
        if (mutation == Truncate) {
            // The cut always falls inside the stream, so the last frame
            // never survives it.
            intact = 0;
            while (starts[intact] + FrameHeaderBytes + sent[intact].size() <=
                   stream.size())
                ++intact;
            EXPECT_EQ(read.atBoundary, stream.size() == starts[intact])
                << "seed " << seed;
        } else {
            EXPECT_FALSE(read.atBoundary) << "seed " << seed;
        }
        EXPECT_EQ(read.payloads, std::vector<std::string>(
                                     sent.begin(), sent.begin() + intact))
            << "seed " << seed;
    }
}

TEST(Protocol, MessageRoundTrip)
{
    WireMessage m;
    m.id = 42;
    m.verb = "QUERY";
    m.args = "00ff 0000000000000007";
    m.body = "V pacman-oracle-wire-v1\nrest of body\n";
    const auto parsed = unpackMessage(packMessage(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->id, 42u);
    EXPECT_EQ(parsed->verb, "QUERY");
    EXPECT_EQ(parsed->args, "00ff 0000000000000007");
    EXPECT_EQ(parsed->body, m.body);

    WireMessage bare;
    bare.id = 1;
    bare.verb = "PING";
    const auto p2 = unpackMessage(packMessage(bare));
    ASSERT_TRUE(p2.has_value());
    EXPECT_EQ(p2->verb, "PING");
    EXPECT_TRUE(p2->args.empty());
    EXPECT_TRUE(p2->body.empty());

    EXPECT_FALSE(unpackMessage("").has_value());
    EXPECT_FALSE(unpackMessage("notanumber PING\n").has_value());
}

TEST(Protocol, ReplicaWireRoundTripIsCanonical)
{
    ReplicaConfig cfg;
    cfg.machine = defaultMachineConfig();
    cfg.machine.seed = 0xABCDEF;
    cfg.machine.noiseProbability = 0.37;
    cfg.machine.core.autFence = true;
    cfg.oracle.trainIters = 16;
    cfg.oracle.autoCalibrate = true;
    cfg.target = BenignDataBase + 5 * isa::PageSize;
    cfg.modifier = 0x1234;
    cfg.samples = 3;
    cfg.maxSamples = 9;
    cfg.faults = FaultPlan::scaled(0.2);
    SupervisionConfig sup;
    sup.budget.maxGuestCycles = 1'000'000;
    sup.budget.hostDeadlineSeconds = 2.5;
    sup.verifyFingerprint = false;

    const std::string wire = encodeReplicaWire(cfg, sup);
    ReplicaConfig back;
    SupervisionConfig back_sup;
    ASSERT_TRUE(decodeReplicaWire(wire, back, back_sup));

    // Canonical: re-encoding the decoded config reproduces the text
    // byte-for-byte (this is what makes it a valid cache key).
    EXPECT_EQ(encodeReplicaWire(back, back_sup), wire);

    EXPECT_EQ(back.machine.seed, cfg.machine.seed);
    EXPECT_EQ(back.machine.noiseProbability,
              cfg.machine.noiseProbability);
    EXPECT_TRUE(back.machine.core.autFence);
    EXPECT_EQ(back.oracle.trainIters, 16u);
    EXPECT_TRUE(back.oracle.autoCalibrate);
    EXPECT_EQ(back.target, cfg.target);
    EXPECT_EQ(back.modifier, cfg.modifier);
    EXPECT_EQ(back.samples, 3u);
    EXPECT_EQ(back.faults.contextSwitchRate,
              cfg.faults.contextSwitchRate);
    EXPECT_EQ(back.faults.preemptMaxCycles,
              cfg.faults.preemptMaxCycles);
    EXPECT_EQ(back_sup.budget.maxGuestCycles, 1'000'000u);
    EXPECT_EQ(back_sup.budget.hostDeadlineSeconds, 2.5);
    EXPECT_FALSE(back_sup.verifyFingerprint);

    // Journal wiring never travels the wire.
    EXPECT_TRUE(back_sup.journalPath.empty());
    EXPECT_FALSE(back_sup.resume);

    EXPECT_FALSE(decodeReplicaWire("V wrong-version\n", back,
                                   back_sup));
    EXPECT_FALSE(decodeReplicaWire("", back, back_sup));

    // A well-formed v1 body, whose C line still carries the deleted
    // fault-suppression column, is rejected by its version: read with
    // v2's fixed columns it would set autFence from that column.
    std::string v1 = wire;
    const std::string v2_core = "\nC 1 1 1 0 0\n";
    const size_t core_at = v1.find(v2_core);
    ASSERT_NE(core_at, std::string::npos);
    v1.replace(core_at, v2_core.size(), "\nC 1 1 1 1 0 0\n");
    v1.replace(0, v1.find('\n'), "V pacman-oracle-wire-v1");
    EXPECT_FALSE(decodeReplicaWire(v1, back, back_sup));
}

TEST(Protocol, ChunkRequestRoundTrip)
{
    BruteForceCampaignConfig bf;
    bf.replica.machine = defaultMachineConfig();
    bf.replica.target = BenignDataBase + 3 * isa::PageSize;
    bf.seed = 0x5EED;
    bf.first = 0x0100;
    bf.last = 0x01FF;
    Chunk chunk{2, 32, 47};

    const auto req =
        decodeChunkRequest(encodeBfChunkRequest(bf, chunk));
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->kind, ChunkRequest::Kind::BruteForce);
    EXPECT_EQ(req->bf.seed, 0x5EEDu);
    EXPECT_EQ(req->bf.first, 0x0100);
    EXPECT_EQ(req->bf.last, 0x01FF);
    EXPECT_EQ(req->chunk.index, 2u);
    EXPECT_EQ(req->chunk.firstItem, 32u);
    EXPECT_EQ(req->chunk.lastItem, 47u);
    EXPECT_EQ(req->configKey,
              encodeReplicaWire(bf.replica, bf.supervision));

    AccuracyCampaignConfig acc;
    acc.replica = bf.replica;
    acc.seed = 0xACC;
    acc.trials = 12;
    acc.window = 64;
    const auto areq =
        decodeChunkRequest(encodeAccuracyChunkRequest(acc, chunk));
    ASSERT_TRUE(areq.has_value());
    EXPECT_EQ(areq->kind, ChunkRequest::Kind::Accuracy);
    EXPECT_EQ(areq->acc.seed, 0xACCu);
    EXPECT_EQ(areq->acc.trials, 12u);
    EXPECT_EQ(areq->acc.window, 64u);

    EXPECT_FALSE(decodeChunkRequest("").has_value());
    EXPECT_FALSE(decodeChunkRequest("G bf zz 0 0\nK 0 0 0\n")
                     .has_value());
}

// --- Machine rekey accounting --------------------------------------

TEST(Machine, RekeyCounterCountsRotations)
{
    Machine m;
    EXPECT_EQ(m.rekeys(), 0u);
    m.rekey(1);
    m.rekey(2);
    EXPECT_EQ(m.rekeys(), 2u);
}

// --- the server ----------------------------------------------------

int g_socket_counter = 0;

/** An in-process pacman-oracled on a temp Unix socket. */
struct TestServer
{
    ServerConfig cfg;
    std::unique_ptr<OracleServer> server;

    explicit TestServer(unsigned threads = 2, unsigned max_queue = 32,
                        bool allow_truth = true)
    {
        cfg.socketPath = ::testing::TempDir() +
                         strprintf("pacman_oracled_%d_%d.sock",
                                   int(::getpid()),
                                   g_socket_counter++);
        cfg.threads = threads;
        cfg.maxQueue = max_queue;
        cfg.allowTruth = allow_truth;
        server = std::make_unique<OracleServer>(cfg);
        server->start();
    }

    std::string endpoint() const { return "unix:" + cfg.socketPath; }
};

ReplicaConfig
testReplica(uint64_t modifier = 0x100)
{
    ReplicaConfig r;
    r.machine = defaultMachineConfig();
    r.machine.seed = 42;
    r.target = BenignDataBase + 37 * isa::PageSize;
    r.modifier = modifier;
    r.samples = 1;
    return r;
}

/** A small brute-force campaign with a known nearby truth. */
BruteForceCampaignConfig
smallCampaign(uint16_t *truth_out)
{
    ReplicaConfig replica = testReplica();
    Machine probe(replica.machine);
    uint64_t modifier = 0x100;
    uint16_t truth = 0;
    for (;; ++modifier) {
        truth = probe.kernel().truePac(replica.target, modifier,
                                       crypto::PacKeySelect::DA);
        if (truth >= 48 && truth <= 0xFFF0)
            break;
    }
    if (truth_out)
        *truth_out = truth;
    replica.modifier = modifier;

    BruteForceCampaignConfig cfg;
    cfg.replica = replica;
    cfg.first = uint16_t(truth - 39);
    cfg.last = uint16_t(truth + 8);
    cfg.seed = 7;
    cfg.pool.chunkSize = 16;
    return cfg;
}

TEST(Server, PingAndMetrics)
{
    TestServer ts;
    OracleClient c(ts.endpoint());
    c.ping();
    const std::string metrics = c.metricsJson();
    EXPECT_NE(metrics.find("\"schema\":\"pacman-bench-v1\""),
              std::string::npos);
    EXPECT_NE(metrics.find("\"queue_depth\""), std::string::npos);
    EXPECT_NE(metrics.find("\"busy_rejections\""), std::string::npos);
}

TEST(Server, QueryClassifiesTruthAgainstGroundTruth)
{
    TestServer ts;
    OracleClient c(ts.endpoint());
    const ReplicaConfig replica = testReplica();

    Machine probe(replica.machine);
    const uint16_t truth = probe.kernel().truePac(
        replica.target, replica.modifier, crypto::PacKeySelect::DA);

    const uint64_t stream = Random::deriveSeed(7, 0);
    const auto hit = c.query(truth, stream, replica);
    EXPECT_TRUE(hit.hot);
    const auto miss =
        c.query(uint16_t(truth ^ 0x0101), stream, replica);
    EXPECT_FALSE(miss.hot);

    // Server-side TRUTH for an anonymous connection matches the
    // local machine: no tenant, so provision keys apply.
    EXPECT_EQ(c.truth(replica), truth);
}

TEST(Server, TenantKeysIsolateAndPersist)
{
    TestServer ts;
    OracleClient alice(ts.endpoint());
    OracleClient bob(ts.endpoint());
    alice.hello("alice", 0xA11CE);
    bob.hello("bob", 0xB0B);

    const ReplicaConfig replica = testReplica();
    Machine probe(replica.machine);
    const uint16_t provision_truth = probe.kernel().truePac(
        replica.target, replica.modifier, crypto::PacKeySelect::DA);

    // Each tenant's PAC keys derive from (name, secret): across a
    // handful of modifiers the tenants must disagree with each other
    // somewhere (and with the provision keys) — identical PACs for
    // every modifier would mean the rekey never happened.
    bool tenants_differ = false, differs_from_provision = false;
    uint16_t alice_at_first = 0;
    for (uint64_t m = 0x100; m < 0x110; ++m) {
        ReplicaConfig r = testReplica(m);
        const uint16_t ta = alice.truth(r);
        const uint16_t tb = bob.truth(r);
        if (m == 0x100)
            alice_at_first = ta;
        tenants_differ |= (ta != tb);
        differs_from_provision |=
            (ta != probe.kernel().truePac(r.target, m,
                                          crypto::PacKeySelect::DA));
    }
    EXPECT_TRUE(tenants_differ);
    EXPECT_TRUE(differs_from_provision);
    (void)provision_truth;

    // Same tenant, new connection: same keys (isolation is by
    // identity, not by connection).
    OracleClient alice2(ts.endpoint());
    alice2.hello("alice", 0xA11CE);
    EXPECT_EQ(alice2.truth(testReplica(0x100)), alice_at_first);

    // A tenant's query verdict is graded under its OWN keys.
    const ReplicaConfig r = testReplica(0x100);
    const auto res =
        alice.query(alice_at_first, Random::deriveSeed(9, 1), r);
    EXPECT_TRUE(res.hot);
}

TEST(Server, BackpressureAnswersBusyWhenQueueFull)
{
    TestServer ts(/*threads=*/1, /*max_queue=*/1);
    OracleClient c(ts.endpoint());

    // Occupy the single service thread...
    const uint64_t id1 = c.sendRequest("SLEEP", "500");
    // ...wait until the job left the queue (METRICS bypasses it)...
    for (int i = 0; i < 200; ++i) {
        const std::string m = c.metricsJson();
        if (m.find("\"queue_depth\":{\"value\":0") !=
            std::string::npos)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // ...fill the one queue slot, then overflow it.
    const uint64_t id2 = c.sendRequest("SLEEP", "0");
    const uint64_t id3 = c.sendRequest("SLEEP", "0");

    EXPECT_EQ(c.readResponse(id3).verb, "BUSY");
    EXPECT_EQ(c.readResponse(id1).verb, "OK");
    EXPECT_EQ(c.readResponse(id2).verb, "OK");

    const std::string metrics = c.metricsJson();
    EXPECT_NE(metrics.find("\"busy_rejections\":{\"value\":1"),
              std::string::npos);
}

/** The value of metric @p name in a METRICS document, or -1. */
double
metricValue(const std::string &metrics, const std::string &name)
{
    const std::string key = "\"" + name + "\":{\"value\":";
    const size_t at = metrics.find(key);
    if (at == std::string::npos)
        return -1;
    return std::stod(metrics.substr(at + key.size()));
}

TEST(Server, TenantLatencyWindowIsBounded)
{
    // METRICS reports each tenant's latency over a fixed window of its
    // most recent requests, so the daemon's memory stays flat. A slow
    // burst (over 1 % of all the tenant's requests, so a lifetime p99
    // would keep it forever) leaves the p99 once more fast requests
    // than the window holds have followed it.
    TestServer ts(/*threads=*/1);
    OracleClient c(ts.endpoint());
    c.hello("win", 0x5EED);
    constexpr int Slow = 20, Fast = 1100;
    constexpr double SlowUs = 50'000;
    for (int i = 0; i < Slow; ++i)
        ASSERT_EQ(c.call("SLEEP", "50").verb, "OK");
    EXPECT_GE(metricValue(c.metricsJson(), "tenant_win_latency_p99_us"),
              SlowUs);
    for (int i = 0; i < Fast; ++i)
        ASSERT_EQ(c.call("SLEEP", "0").verb, "OK");
    const std::string metrics = c.metricsJson();
    EXPECT_EQ(metricValue(metrics, "tenant_win_requests"), Slow + Fast);
    const double p99 = metricValue(metrics, "tenant_win_latency_p99_us");
    EXPECT_GE(p99, 0);
    EXPECT_LT(p99, SlowUs);
}

TEST(Server, TenantTableIsBounded)
{
    // Tenant names cost the daemon memory for its whole life, so both
    // their length and their number are capped: an over-long name is
    // refused, and tenants beyond MaxTenants share one METRICS entry.
    TestServer ts(/*threads=*/1);
    OracleClient c(ts.endpoint());
    const std::string huge(1u << 20, 'n');
    EXPECT_EQ(c.call("HELLO", huge + " 1").verb, "ERR");
    EXPECT_EQ(metricValue(c.metricsJson(), "request_errors"), 1);

    for (size_t i = 0; i < 2 * MaxTenants; ++i) {
        c.hello("t" + std::to_string(i), 0x5EED);
        ASSERT_EQ(c.call("SLEEP", "0").verb, "OK");
    }
    const std::string metrics = c.metricsJson();
    const std::string p50 = "_latency_p50_us\"";
    size_t listed = 0;
    for (size_t at = metrics.find(p50); at != std::string::npos;
         at = metrics.find(p50, at + 1))
        ++listed;
    EXPECT_LE(listed, MaxTenants + 1);
    EXPECT_EQ(metricValue(metrics, "tenant__other_tenants__requests"),
              double(MaxTenants));
}

TEST(Server, WireNumbersAreReadStrictly)
{
    // HELLO's secret and QUERY's stream are 1-16 hex digits, QUERY's
    // PAC 1-4, SLEEP's milliseconds decimal up to MaxSleepMs: no sign,
    // prefix, stray character or extra word. (Read loosely, no case
    // here sleeps: the two over-long SLEEPs wrap to negative times.)
    TestServer ts(/*threads=*/1);
    OracleClient c(ts.endpoint());
    for (const std::string secret :
         {"-1", "+5", "0x10", "12zz", "00000000000000001", "1 2", "", " 1"})
        EXPECT_EQ(c.call("HELLO", "t " + secret).verb, "ERR") << secret;
    EXPECT_EQ(c.call("HELLO", "t").verb, "ERR");
    EXPECT_EQ(c.call("HELLO", "t 0123456789abcdef").verb, "OK");
    EXPECT_EQ(c.call("HELLO", "t 5eed").verb, "OK");

    for (const char *args :
         {"-1 1", "+5 1", "0x10 1", "12zz 1", "10000 1", "1 -1", "1 +1",
          "1 0x1", "1 12zz", "1 00000000000000001", "1", "1 1 1", " 1 1",
          ""}) {
        const WireMessage r = c.call("QUERY", args);
        EXPECT_EQ(r.verb, "ERR") << args;
        EXPECT_TRUE(r.args.starts_with("usage: QUERY")) << args;
    }

    for (const char *ms : {"-1", "+5", "12zz", "0x10", "", " 1", "1 ",
                           "18446744073709551615", "9223372036854775808"})
        EXPECT_EQ(c.call("SLEEP", ms).verb, "ERR") << ms;
    EXPECT_EQ(c.call("SLEEP", "1").verb, "OK");
}

TEST(OracledArgs, NumbersAreWholeAndInRange)
{
    // Parsing only: no daemon starts, whatever the flags ask for.
    const auto parse = [](std::vector<const char *> flags) {
        flags.insert(flags.begin(), "pacman-oracled");
        return parseOracledArgs(int(flags.size()), flags.data());
    };
    const OracledArgs ok =
        parse({"--socket", "s.sock", "--tcp-port", "65535", "--threads",
               "256", "--max-queue", "8", "--crash-after-chunks", "3",
               "--metrics-out", "m.json", "--allow-truth"});
    EXPECT_EQ(ok.cfg.socketPath, "s.sock");
    EXPECT_EQ(ok.cfg.tcpPort, 65535u);
    EXPECT_EQ(ok.cfg.threads, MaxServiceThreads);
    EXPECT_EQ(ok.cfg.maxQueue, 8u);
    EXPECT_EQ(ok.cfg.crashAfterChunks, 3u);
    EXPECT_EQ(ok.metricsOut, "m.json");
    EXPECT_TRUE(ok.cfg.allowTruth);
    EXPECT_FALSE(ok.help);
    EXPECT_TRUE(parse({"--help"}).help);

    const std::vector<std::vector<const char *>> bad = {
        {"--threads", "x"},         {"--threads", "0"},
        {"--threads", "257"},       {"--threads", "4294967298"},
        {"--threads", "-1"},        {"--threads", "+2"},
        {"--threads", "2x"},        {"--threads", ""},
        {"--threads"},              {"--tcp-port", "70000"},
        {"--tcp-port", "0x10"},     {"--max-queue", "0"},
        {"--max-queue", "4294967296"},
        {"--crash-after-chunks", "-1"},
        {"--crash-after-chunks", "18446744073709551616"},
        {"--bogus"}};
    for (std::vector<const char *> flags : bad) {
        const std::string what = flags.size() > 1
                                     ? std::string(flags[0]) + " " + flags[1]
                                     : flags[0];
        flags.insert(flags.begin(), {"--socket", "s.sock"});
        EXPECT_THROW(parse(flags), std::invalid_argument) << what;
    }
    EXPECT_THROW(parse({"--threads", "2"}), std::invalid_argument);
}

/** Every metric name in a METRICS document. */
std::set<std::string>
metricNames(const std::string &metrics)
{
    std::set<std::string> names;
    const std::string tail = "\":{\"value\":";
    for (size_t at = metrics.find(tail); at != std::string::npos;
         at = metrics.find(tail, at + 1)) {
        const size_t open = metrics.rfind('"', at - 1);
        names.insert(metrics.substr(open + 1, at - open - 1));
    }
    return names;
}

TEST(Server, MetricsKeySetAfterQueryAndChunk)
{
    // Dashboards and perfbench's serving workload read METRICS by key
    // (superblock_block_hits among them), so a QUERY and a CHUNK, which
    // between them touch every counter family, must leave exactly this
    // key set behind.
    TestServer ts(/*threads=*/1);
    OracleClient c(ts.endpoint());
    c.query(0x1234, Random::deriveSeed(7, 0), testReplica());
    c.chunkPayload(encodeBfChunkRequest(smallCampaign(nullptr),
                                        Chunk{0, 0, 15}));
    std::set<std::string> expected = {
        "queue_depth", "queue_peak", "busy_rejections",
        "connections_accepted", "queries_served", "truths_served",
        "chunks_served", "request_errors", "checkpoint_restores",
        "replica_provisions", "pac_rekeys", "superblock_blocks_built",
        "superblock_block_hits", "superblock_block_insts",
        "superblock_invalidations", "superblock_fallback_exits",
        "superblock_chained_dispatches", "call_memo_recorded",
        "call_memo_replayed", "call_memo_insts_replayed",
        "call_memo_miss_entry", "call_memo_miss_budget",
        "call_memo_miss_registers", "call_memo_miss_sysregs",
        "call_memo_miss_scoreboard", "call_memo_miss_latency",
        "call_memo_miss_ways", "call_memo_miss_predictor",
        "call_memo_miss_pages", "tenant___requests",
        "tenant___latency_p50_us", "tenant___latency_p99_us"};
    // The two ratios appear once a replica has used the fast path.
    if (defaultMachineConfig().core.fastPath == cpu::FastPath::Full)
        expected.insert({"superblock_hit_rate", "decode_hit_rate"});
    const std::string metrics = c.metricsJson();
    EXPECT_EQ(metricNames(metrics), expected);
    EXPECT_EQ(metricValue(metrics, "queries_served"), 1);
    EXPECT_EQ(metricValue(metrics, "chunks_served"), 1);
    EXPECT_EQ(metricValue(metrics, "tenant___requests"), 2);
}

/** Threads in this process (entries of /proc/self/task). */
size_t
threadCount()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/** A kB figure of this process from /proc/self/status, e.g. the
 *  virtual size ("VmSize:") or the resident set ("VmRSS:"). */
uint64_t
statusKb(const std::string &field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field, 0) == 0)
            return std::stoull(line.substr(field.size()));
    }
    return 0;
}

TEST(Server, ConnectCloseCyclesReapReaders)
{
    // A closed connection must leave nothing behind while the server
    // runs: anything kept per client served, such as a thread or its
    // stack, would grow a long-running daemon for its whole life.
    TestServer ts;
    const auto cycles = [&ts](int n) {
        for (int i = 0; i < n; ++i) {
            OracleClient c(ts.endpoint());
            c.ping();
        }
    };
    const auto settled = [](size_t threads) {
        for (int i = 0; i < 200 && threadCount() > threads; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return threadCount();
    };
    const size_t threads = threadCount();
    // Warm-up: the allocator's per-thread arenas and its cache of
    // thread stacks grow once, up to a bound, and are then reused.
    cycles(100);
    const uint64_t vm_kb = statusKb("VmSize:");
    cycles(500);
    EXPECT_EQ(settled(threads), threads);
    // One leaked 8 MB stack per cycle would add about 4 GB.
    EXPECT_LT(statusKb("VmSize:"), vm_kb + 256 * 1024);
}

TEST(Server, UndecodableConfigsDoNotGrowReplicaCache)
{
    // A QUERY's body is its replica config, and each service thread
    // caches one provisioned replica per distinct body. A body that
    // does not decode is answered ERR and must leave no cache entry
    // behind: keyed by the whole body (up to MaxFrameBytes), a dead
    // entry per hostile request would grow the daemon for its life.
    TestServer ts(/*threads=*/1);
    OracleClient c(ts.endpoint());
    const auto junk = [](int i) {
        std::string body(1u << 20, 'x');
        body.replace(0, 16, strprintf("%016d", i));
        return body;
    };
    const auto send = [&](int first, int last) {
        for (int i = first; i < last; ++i)
            EXPECT_EQ(c.call("QUERY", "0 1", junk(i)).verb, "ERR");
    };
    // Warm-up: the allocator's arenas grow once to the frame size.
    send(0, 20);
    const uint64_t rss_kb = statusKb("VmRSS:");
    send(20, 220);
    // 200 leaked 1 MiB keys would add about 200 MiB.
    EXPECT_LT(statusKb("VmRSS:"), rss_kb + 64 * 1024);
}

#if defined(__SANITIZE_ADDRESS__)
// libasan exports this; GCC ships no header declaring it.
extern "C" void __sanitizer_purge_allocator();
#endif

/** VmRSS in kB once freed memory has left the allocator. Under
 *  AddressSanitizer freed blocks wait in a quarantine of up to 256 MB
 *  and stay resident, so without the purge every freed replica would
 *  read as growth. */
uint64_t
settledRssKb()
{
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_purge_allocator();
#endif
    return statusKb("VmRSS:");
}

TEST(Server, DistinctConfigsDoNotGrowReplicaCache)
{
    // Each distinct replica config a service thread serves needs a
    // provisioned replica, a whole machine of about 25 MB. The thread
    // keeps only the ReplicaCacheEntries most recently used, so a
    // client sending a new config (here: a new modifier) on every
    // QUERY cannot grow the daemon for its life.
    TestServer ts(/*threads=*/1);
    OracleClient c(ts.endpoint());
    const uint64_t stream = Random::deriveSeed(7, 0);
    const auto query = [&](uint64_t i) {
        return c.query(0x1234, stream, testReplica(0x100 + i));
    };
    const auto first = query(0);
    for (uint64_t i = 1; i < ReplicaCacheEntries; ++i)
        query(i);
    const uint64_t rss_kb = settledRssKb();
    constexpr uint64_t More = 20;
    for (uint64_t i = ReplicaCacheEntries; i < ReplicaCacheEntries + More;
         ++i)
        query(i);
    // 20 more cached replicas would add about 500 MB.
    EXPECT_LT(settledRssKb(), rss_kb + 64 * 1024);

    // The first config was evicted long ago: it provisions afresh and
    // answers exactly as it did the first time.
    const auto again = query(0);
    EXPECT_EQ(again.hot, first.hot);
    EXPECT_EQ(again.misses, first.misses);
    EXPECT_EQ(metricValue(c.metricsJson(), "replica_provisions"),
              double(ReplicaCacheEntries + More + 1));
}

TEST(Server, FreshProvisionTelemetryCountsEveryReplica)
{
    // METRICS adds up each replica's monotonic fast-path counters as
    // deltas since the replica was last accounted. A fresh-provision
    // replica (snapshot off) is a new machine on every request, whose
    // counters start again from zero, so each request must be counted
    // from zero as well.
    if (defaultMachineConfig().core.fastPath != cpu::FastPath::Full)
        GTEST_SKIP() << "FastPath::Reference keeps no fast-path counters";
    TestServer ts(/*threads=*/1);
    OracleClient c(ts.endpoint());
    ReplicaConfig replica = testReplica();
    replica.snapshot = false;
    const uint64_t stream = Random::deriveSeed(7, 0);
    c.query(0x1234, stream, replica);
    const double once =
        metricValue(c.metricsJson(), "superblock_block_insts");
    c.query(0x1234, stream, replica);
    c.query(0x1234, stream, replica);
    EXPECT_GT(once, 0);
    EXPECT_EQ(metricValue(c.metricsJson(), "superblock_block_insts"),
              3 * once);
}

TEST(Server, StalledFrameHeadersDoNotCommitMemory)
{
    // A frame header states its payload length before any payload
    // byte arrives. A reader that allocates that length up front lets
    // a client that sends only headers pin MaxFrameBytes (64 MiB) per
    // connection for as long as it keeps the connection open.
    TestServer ts(/*threads=*/1);
    {
        OracleClient warm(ts.endpoint());
        warm.ping();
    }
    const auto ep = parseEndpoint(ts.endpoint());
    ASSERT_TRUE(ep.has_value());
    const uint64_t rss_kb = settledRssKb();
    // "PAC1", little-endian length MaxFrameBytes, CRC 0: a valid
    // header whose payload never comes.
    char header[FrameHeaderBytes] = {'P', 'A', 'C', '1'};
    for (int b = 0; b < 4; ++b)
        header[4 + b] = char((MaxFrameBytes >> (8 * b)) & 0xff);
    std::vector<int> fds;
    for (int i = 0; i < 8; ++i) {
        const int fd = connectEndpoint(*ep);
        ASSERT_EQ(::write(fd, header, sizeof(header)),
                  ssize_t(sizeof(header)));
        fds.push_back(fd);
    }
    // Give every reader time to take its header and block on the
    // payload.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    // Eight committed 64 MiB payloads would add about 512 MiB.
    EXPECT_LT(settledRssKb(), rss_kb + 32 * 1024);
    for (const int fd : fds)
        ::close(fd);
    OracleClient c(ts.endpoint());
    c.ping();
}

TEST(Server, StalledPartialFramesAreDropped)
{
    // Once a frame's first byte has arrived, the rest must follow
    // within PartialFrameSeconds. Otherwise a client that sends part
    // of a frame and stops pins it for as long as it keeps the
    // connection open. Meanwhile the stall holds no thread.
    TestServer ts(/*threads=*/1);
    const size_t threads = threadCount();
    size_t most_threads = threads;
    const auto ep = parseEndpoint(ts.endpoint());
    ASSERT_TRUE(ep.has_value());
    constexpr size_t Stalled = 4;
    std::vector<int> fds;
    for (size_t i = 0; i < Stalled; ++i) {
        const int fd = connectEndpoint(*ep);
        ASSERT_EQ(::write(fd, "PAC1", 4), 4); // a third of a header
        fds.push_back(fd);
    }
    // 0 once the server has closed the connection, -1 while it is open.
    const auto peek = [](int fd) {
        char byte = 0;
        return ::recv(fd, &byte, 1, MSG_DONTWAIT | MSG_PEEK);
    };
    const auto settle = [&](auto done) {
        const auto give_up = std::chrono::steady_clock::now() +
                             std::chrono::duration<double>(
                                 PartialFrameSeconds + 5);
        while (!done() && std::chrono::steady_clock::now() < give_up) {
            most_threads = std::max(most_threads, threadCount());
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    };
    // The connections are still open well before the deadline, so it
    // is the deadline that drops them...
    const auto half_second = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(500);
    settle([&] { return std::chrono::steady_clock::now() >= half_second; });
    for (const int fd : fds)
        EXPECT_EQ(peek(fd), -1);
    // ...once it has passed.
    settle([&] {
        return std::all_of(fds.begin(), fds.end(),
                           [&](int fd) { return peek(fd) == 0; });
    });
    EXPECT_EQ(most_threads, threads);
    for (const int fd : fds) {
        char byte = 0;
        EXPECT_EQ(::recv(fd, &byte, 1, MSG_DONTWAIT), 0); // EOF
        ::close(fd);
    }
    OracleClient c(ts.endpoint());
    EXPECT_TRUE(c.ping());
}

TEST(Server, IdleConnectionsHoldNoThread)
{
    // One I/O thread reads every connection, so the daemon runs main +
    // I/O + service threads however many clients it holds. The idle
    // connections stay open: EndpointPool pools idle connections.
    TestServer ts(/*threads=*/1);
    const size_t threads = threadCount();
    constexpr size_t Idle = 32;
    std::vector<std::unique_ptr<OracleClient>> clients;
    for (size_t i = 0; i < Idle; ++i) {
        clients.push_back(std::make_unique<OracleClient>(ts.endpoint()));
        ASSERT_TRUE(clients.back()->ping());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(threadCount(), threads);
    for (const auto &c : clients)
        EXPECT_TRUE(c->ping());
    EXPECT_EQ(metricValue(clients.front()->metricsJson(),
                          "connections_accepted"),
              double(Idle));
}

TEST(Server, ClientThatStopsReadingCannotStallOthers)
{
    // The I/O thread writes the cheap replies itself, so no reply may
    // block for good. A client that pipelines requests and never reads
    // its replies fills its socket; after ReplySeconds the server drops
    // it, and everyone else is served again.
    TestServer ts(/*threads=*/1, /*max_queue=*/8);
    const auto ep = parseEndpoint(ts.endpoint());
    ASSERT_TRUE(ep.has_value());
    std::string flood;
    for (uint64_t id = 1; id <= 20'000; ++id)
        flood += encodeFrame(packMessage({id, "SLEEP", "0", ""}));
    const int flood_fd = connectEndpoint(*ep);
    std::thread flooder([&] {
        try {
            writeBytes(flood_fd, flood.data(), flood.size());
        } catch (const WireError &) {
            // The server dropped the connection.
        }
    });

    const double budget = ReplySeconds + 6;
    ClientOptions opts;
    opts.readTimeoutSeconds = budget;
    OracleClient c(ts.endpoint(), opts);
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    std::string verb;
    while ((verb = c.call("SLEEP", "0").verb) == "BUSY" &&
           elapsed() < budget)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(verb, "OK");
    EXPECT_LT(elapsed(), budget);
    EXPECT_TRUE(c.ping());

    ::shutdown(flood_fd, SHUT_RDWR); // unblocks a writer still sending
    flooder.join();
    ::close(flood_fd);
}

TEST(Server, DrainFinishesQueuedWorkAndRejectsNew)
{
    TestServer ts(/*threads=*/1);
    OracleClient c(ts.endpoint());

    const uint64_t sleeping = c.sendRequest("SLEEP", "100");
    c.drain();
    EXPECT_TRUE(ts.server->draining());

    // New compute work is rejected during drain...
    const uint64_t late = c.sendRequest("SLEEP", "0");
    EXPECT_EQ(c.readResponse(late).verb, "ERR");
    // ...but already-accepted work completes.
    EXPECT_EQ(c.readResponse(sleeping).verb, "OK");

    ts.server->waitDrained();
}

TEST(Server, RemoteBruteForceFingerprintMatchesLocal)
{
    uint16_t truth = 0;
    BruteForceCampaignConfig cfg = smallCampaign(&truth);

    cfg.pool.jobs = 1;
    const std::string local =
        runBruteForceCampaign(cfg).fingerprint();

    TestServer ts(/*threads=*/2);
    for (unsigned jobs : {1u, 4u}) {
        cfg.pool.jobs = jobs;
        const BruteForceCampaignResult remote =
            runBruteForceCampaignRemote(cfg, ts.endpoint());
        EXPECT_EQ(remote.fingerprint(), local) << "jobs=" << jobs;
        ASSERT_TRUE(remote.stats.found.has_value());
        EXPECT_EQ(*remote.stats.found, truth);
    }
}

TEST(Server, RemoteBruteForceFingerprintMatchesLocalUnderFaults)
{
    uint16_t truth = 0;
    BruteForceCampaignConfig cfg = smallCampaign(&truth);
    cfg.replica.faults = FaultPlan::scaled(0.2);
    cfg.replica.oracle.busyRetries = 4;

    cfg.pool.jobs = 1;
    const std::string local =
        runBruteForceCampaign(cfg).fingerprint();

    TestServer ts(/*threads=*/2);
    cfg.pool.jobs = 4;
    EXPECT_EQ(runBruteForceCampaignRemote(cfg, ts.endpoint())
                  .fingerprint(),
              local);
}

TEST(Server, RemoteAccuracyFingerprintMatchesLocal)
{
    AccuracyCampaignConfig cfg;
    cfg.replica = testReplica();
    cfg.trials = 4;
    cfg.window = 48;
    cfg.seed = 1000;
    cfg.pool.chunkSize = 2;

    cfg.pool.jobs = 1;
    const std::string local = runAccuracyCampaign(cfg).fingerprint();

    TestServer ts(/*threads=*/2);
    cfg.pool.jobs = 2;
    const AccuracyCampaignResult remote =
        runAccuracyCampaignRemote(cfg, ts.endpoint());
    EXPECT_EQ(remote.fingerprint(), local);
    EXPECT_EQ(remote.truePositives + remote.falsePositives +
                  remote.falseNegatives,
              cfg.trials);
}

TEST(Server, RemoteCampaignJournalsAndResumes)
{
    uint16_t truth = 0;
    BruteForceCampaignConfig cfg = smallCampaign(&truth);
    const std::string journal =
        ::testing::TempDir() +
        strprintf("pacman_remote_resume_%d.journal",
                  int(::getpid()));
    std::remove(journal.c_str());
    cfg.supervision.journalPath = journal;
    cfg.pool.jobs = 2;

    TestServer ts;
    const std::string first =
        runBruteForceCampaignRemote(cfg, ts.endpoint()).fingerprint();

    // Resume replays every chunk from the journal: same fingerprint,
    // and the server sees no new CHUNK requests.
    cfg.supervision.resume = true;
    const BruteForceCampaignResult resumed =
        runBruteForceCampaignRemote(cfg, ts.endpoint());
    EXPECT_EQ(resumed.fingerprint(), first);
    EXPECT_GT(resumed.chunksResumed, 0u);

    std::remove(journal.c_str());
    std::remove((journal + ".quarantine").c_str());
}

TEST(Server, AbortedRemoteCampaignThrowsCampaignAborted)
{
    uint16_t truth = 0;
    BruteForceCampaignConfig cfg = smallCampaign(&truth);
    cfg.pool.jobs = 1;

    // No server listening: the dispatcher's connect fails and the
    // campaign aborts instead of returning partial results.
    const std::string endpoint =
        "unix:" + ::testing::TempDir() + "pacman_no_such_server.sock";
    EXPECT_THROW(runBruteForceCampaignRemote(cfg, endpoint),
                 CampaignAborted);
}

} // namespace
} // namespace pacman
