/**
 * @file
 * Tests for the client failure model and multi-endpoint dispatch:
 * endpoint parsing (IPv6 brackets, AF_UNSPEC TCP), pipelined
 * response matching under adopt()ed socketpairs, read deadlines,
 * the bounded BUSY budget, and the EndpointPool circuit
 * breaker/failover machinery (runner/dispatch.hh).
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "base/logging.hh"
#include "crypto/pac.hh"
#include "kernel/layout.hh"
#include "kernel/machine.hh"
#include "runner/campaign.hh"
#include "runner/client.hh"
#include "runner/dispatch.hh"
#include "runner/protocol.hh"
#include "runner/server.hh"

namespace pacman
{
namespace
{

using namespace pacman::kernel;
using namespace pacman::runner;

// --- endpoint parsing ----------------------------------------------

TEST(ParseEndpoint, AcceptedForms)
{
    auto unix_ep = parseEndpoint("unix:/tmp/sock");
    ASSERT_TRUE(unix_ep.has_value());
    EXPECT_EQ(unix_ep->kind, Endpoint::Kind::Unix);
    EXPECT_EQ(unix_ep->path, "/tmp/sock");

    // A bare path is shorthand for unix:.
    auto bare = parseEndpoint("/run/oracled.sock");
    ASSERT_TRUE(bare.has_value());
    EXPECT_EQ(bare->kind, Endpoint::Kind::Unix);
    EXPECT_EQ(bare->path, "/run/oracled.sock");

    auto tcp = parseEndpoint("tcp:example.com:7777");
    ASSERT_TRUE(tcp.has_value());
    EXPECT_EQ(tcp->kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(tcp->host, "example.com");
    EXPECT_EQ(tcp->port, "7777");

    // IPv6 literals are bracketed; the host keeps its colons.
    auto v6 = parseEndpoint("tcp:[::1]:7777");
    ASSERT_TRUE(v6.has_value());
    EXPECT_EQ(v6->kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(v6->host, "::1");
    EXPECT_EQ(v6->port, "7777");

    auto v6_full = parseEndpoint("tcp:[fe80::1%lo]:80");
    ASSERT_TRUE(v6_full.has_value());
    EXPECT_EQ(v6_full->host, "fe80::1%lo");
    EXPECT_EQ(v6_full->port, "80");
}

TEST(ParseEndpoint, MalformedFormsRejected)
{
    EXPECT_FALSE(parseEndpoint("").has_value());
    EXPECT_FALSE(parseEndpoint("unix:").has_value());
    EXPECT_FALSE(parseEndpoint("tcp:").has_value());
    EXPECT_FALSE(parseEndpoint("tcp:hostonly").has_value());
    EXPECT_FALSE(parseEndpoint("tcp::7777").has_value());
    EXPECT_FALSE(parseEndpoint("tcp:host:").has_value());
    EXPECT_FALSE(parseEndpoint("tcp:[::1]").has_value());
    EXPECT_FALSE(parseEndpoint("tcp:[::1]7777").has_value());
    EXPECT_FALSE(parseEndpoint("tcp:[::1:7777").has_value());
}

// --- pipelining over an adopted socketpair -------------------------

/** The peer half of a socketpair posing as a server: reads one
 *  request frame and returns the parsed message. */
std::optional<WireMessage>
readRequest(int fd)
{
    const auto payload = readFrame(fd);
    if (!payload)
        return std::nullopt;
    return unpackMessage(*payload);
}

void
writeResponse(int fd, uint64_t id, const std::string &verb,
              const std::string &args = {})
{
    WireMessage m;
    m.id = id;
    m.verb = verb;
    m.args = args;
    writeFrame(fd, packMessage(m));
}

struct SocketPair
{
    int fds[2] = {-1, -1};

    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }

    ~SocketPair()
    {
        // fds[0] is owned by the adopting client.
        if (fds[1] >= 0)
            ::close(fds[1]);
    }

    int client() const { return fds[0]; }
    int server() const { return fds[1]; }
};

TEST(Pipelining, OutOfOrderResponsesFillPendingBuffer)
{
    SocketPair sp;
    OracleClient c;
    c.adopt(sp.client());

    const uint64_t id1 = c.sendRequest("PING");
    const uint64_t id2 = c.sendRequest("PING");
    const uint64_t id3 = c.sendRequest("PING");

    // The "server" answers in reverse order.
    std::optional<WireMessage> r1 = readRequest(sp.server());
    std::optional<WireMessage> r2 = readRequest(sp.server());
    std::optional<WireMessage> r3 = readRequest(sp.server());
    ASSERT_TRUE(r1 && r2 && r3);
    writeResponse(sp.server(), id3, "OK", "three");
    writeResponse(sp.server(), id1, "OK", "one");
    writeResponse(sp.server(), id2, "OK", "two");

    // Waiting on id2 buffers the id3 and id1 responses on the way.
    EXPECT_EQ(c.readResponse(id2).args, "two");
    EXPECT_EQ(c.pendingResponses(), 2u);
    EXPECT_EQ(c.readResponse(id1).args, "one");
    EXPECT_EQ(c.readResponse(id3).args, "three");
    EXPECT_EQ(c.pendingResponses(), 0u);
}

TEST(Pipelining, MalformedFrameMidPipelineClosesConnection)
{
    SocketPair sp;
    OracleClient c;
    c.adopt(sp.client());

    const uint64_t id1 = c.sendRequest("PING");
    const uint64_t id2 = c.sendRequest("PING");
    readRequest(sp.server());
    readRequest(sp.server());

    writeResponse(sp.server(), id1, "OK");
    // A CRC-valid frame whose payload is not a message.
    writeFrame(sp.server(), "this is not a wire message");

    EXPECT_EQ(c.readResponse(id1).verb, "OK");
    EXPECT_THROW(c.readResponse(id2), WireError);
    // The stream is untrusted past the malformed frame: connection
    // retired, buffered responses gone with it.
    EXPECT_FALSE(c.connected());
    EXPECT_EQ(c.pendingResponses(), 0u);
}

TEST(Pipelining, CloseDiscardsBufferedResponses)
{
    SocketPair sp;
    OracleClient c;
    c.adopt(sp.client());

    const uint64_t id1 = c.sendRequest("PING");
    const uint64_t id2 = c.sendRequest("PING");
    readRequest(sp.server());
    readRequest(sp.server());
    writeResponse(sp.server(), id2, "OK");
    writeResponse(sp.server(), id1, "OK");

    EXPECT_EQ(c.readResponse(id1).verb, "OK");
    EXPECT_EQ(c.pendingResponses(), 1u);
    c.close();
    EXPECT_EQ(c.pendingResponses(), 0u);
    EXPECT_FALSE(c.connected());
}

TEST(Pipelining, TornConnectionMidPipelineThrows)
{
    SocketPair sp;
    OracleClient c;
    c.adopt(sp.client());

    const uint64_t id = c.sendRequest("PING");
    readRequest(sp.server());
    writeResponse(sp.server(), id, "OK");
    ::close(sp.fds[1]);
    sp.fds[1] = -1;

    // The complete frame still reads fine; the next round trip dies
    // on the torn pipe (EPIPE on the send or EOF on the read,
    // depending on buffering — both are WireError).
    EXPECT_EQ(c.readResponse(id).verb, "OK");
    EXPECT_THROW(c.readResponse(c.sendRequest("PING")), WireError);
    EXPECT_FALSE(c.connected());
}

// --- read deadlines ------------------------------------------------

TEST(Deadline, SilentPeerThrowsWireTimeoutAndCloses)
{
    SocketPair sp;
    ClientOptions opts;
    opts.readTimeoutSeconds = 0.05;
    OracleClient c(opts);
    c.adopt(sp.client());

    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t id = c.sendRequest("PING");
    EXPECT_THROW(c.readResponse(id), WireTimeout);
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    // Detected within the deadline's order of magnitude, not hung.
    EXPECT_LT(waited, 2.0);
    EXPECT_FALSE(c.connected());
}

TEST(Deadline, PartialFrameThrowsWireTimeout)
{
    SocketPair sp;
    ClientOptions opts;
    opts.readTimeoutSeconds = 0.05;
    OracleClient c(opts);
    c.adopt(sp.client());

    const uint64_t id = c.sendRequest("PING");
    readRequest(sp.server());
    // A header promising bytes that never come: the deadline must
    // cover the payload phase too.
    WireMessage m;
    m.id = id;
    m.verb = "OK";
    const std::string frame_payload = packMessage(m);
    std::string full;
    {
        int pipefd[2];
        ASSERT_EQ(::pipe(pipefd), 0);
        writeFrame(pipefd[1], frame_payload);
        full.resize(FrameHeaderBytes + frame_payload.size());
        ASSERT_TRUE(readBytes(pipefd[0], full.data(), full.size()));
        ::close(pipefd[0]);
        ::close(pipefd[1]);
    }
    writeBytes(sp.server(), full.data(), full.size() - 2);

    EXPECT_THROW(c.readResponse(id), WireTimeout);
    EXPECT_FALSE(c.connected());
}

// --- bounded BUSY retries ------------------------------------------

int g_socket_counter = 0;

struct TestServer
{
    ServerConfig cfg;
    std::unique_ptr<OracleServer> server;

    explicit TestServer(unsigned threads = 2, unsigned max_queue = 32)
    {
        cfg.socketPath = ::testing::TempDir() +
                         strprintf("pacman_dispatch_%d_%d.sock",
                                   int(::getpid()),
                                   g_socket_counter++);
        cfg.threads = threads;
        cfg.maxQueue = max_queue;
        cfg.allowTruth = true;
        server = std::make_unique<OracleServer>(cfg);
        server->start();
    }

    std::string endpoint() const { return "unix:" + cfg.socketPath; }
};

TEST(BusyBudget, ExhaustedBudgetThrowsTyped)
{
    TestServer ts(/*threads=*/1, /*max_queue=*/1);

    // Occupy the single service thread, then fill the queue.
    OracleClient blocker(ts.endpoint());
    const uint64_t sleep1 = blocker.sendRequest("SLEEP", "700");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const uint64_t sleep2 = blocker.sendRequest("SLEEP", "700");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    ClientOptions opts;
    opts.busyDeadlineSeconds = 0.25;
    OracleClient c(ts.endpoint(), opts);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(c.chunkPayload("x"), BusyExhausted);
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    EXPECT_GE(waited, 0.25);
    EXPECT_LT(waited, 5.0);
    // The exhausted connection was retired like any other failure.
    EXPECT_FALSE(c.connected());

    EXPECT_EQ(blocker.readResponse(sleep1).verb, "OK");
    EXPECT_EQ(blocker.readResponse(sleep2).verb, "OK");
}

TEST(BusyBudget, UnboundedBudgetStillSucceeds)
{
    TestServer ts(/*threads=*/1, /*max_queue=*/1);
    OracleClient blocker(ts.endpoint());
    const uint64_t sleep1 = blocker.sendRequest("SLEEP", "300");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Default options: BUSY retries until admitted (legacy behaviour).
    OracleClient c(ts.endpoint());
    EXPECT_TRUE(c.ping());
    EXPECT_EQ(blocker.readResponse(sleep1).verb, "OK");
}

// --- TCP / AF_UNSPEC -----------------------------------------------

TEST(Tcp, LocalhostResolvesAcrossFamilies)
{
    ServerConfig scfg;
    scfg.socketPath = ::testing::TempDir() +
                      strprintf("pacman_tcp_%d.sock", int(::getpid()));
    scfg.tcpPort = 1; // ephemeral
    OracleServer server(scfg);
    server.start();
    const uint16_t port = server.boundTcpPort();
    ASSERT_NE(port, 0);

    // "localhost" may resolve to ::1 first; AF_UNSPEC resolution must
    // fall through to the family the server actually bound.
    OracleClient c(strprintf("tcp:localhost:%u", unsigned(port)));
    EXPECT_TRUE(c.ping());
    c.drain();
}

TEST(Tcp, ConnectTimeoutIsBounded)
{
    // A listener whose accept queue is saturated: further handshakes
    // sit in SYN and can only end by the client's own deadline.
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    socklen_t alen = sizeof(addr);
    ::getsockname(lfd, reinterpret_cast<sockaddr *>(&addr), &alen);

    std::vector<int> fillers;
    for (int i = 0; i < 8; ++i) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr));
        fillers.push_back(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    ClientOptions opts;
    opts.connectTimeoutSeconds = 0.2;
    OracleClient c(opts);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(
        c.connect(strprintf("tcp:127.0.0.1:%u",
                            unsigned(ntohs(addr.sin_port)))),
        WireTimeout);
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    EXPECT_GE(waited, 0.2);
    EXPECT_LT(waited, 5.0);
    EXPECT_FALSE(c.connected());

    for (int fd : fillers)
        ::close(fd);
    ::close(lfd);
}

// --- EndpointPool --------------------------------------------------

std::string
deadEndpoint(int salt)
{
    return strprintf("unix:%spacman_dead_%d_%d.sock",
                     ::testing::TempDir().c_str(), int(::getpid()),
                     salt);
}

TEST(EndpointPoolTest, AllEndpointsDeadExhaustsAndOpensBreaker)
{
    DispatchConfig dcfg;
    dcfg.endpoints = {deadEndpoint(1)};
    dcfg.breakerThreshold = 2;
    dcfg.maxAttempts = 4;
    dcfg.probeAfterSeconds = 30; // never probe-eligible in this test
    dcfg.backoffMinSeconds = 0.001;
    dcfg.backoffMaxSeconds = 0.002;

    EndpointPool pool(dcfg, /*workers=*/1);
    try {
        pool.chunkPayload(0, "body");
        FAIL() << "expected DispatchError";
    } catch (const DispatchError &e) {
        EXPECT_EQ(e.kind, WorkerFaultKind::DispatchExhausted);
        EXPECT_NE(std::string(e.what()).find("dispatch-exhausted"),
                  std::string::npos);
    }
    EXPECT_TRUE(pool.breakerOpen(0));
    EXPECT_EQ(pool.healthyEndpoints(), 0u);
    const DispatchStats st = pool.stats();
    EXPECT_GE(st.wireErrors, dcfg.breakerThreshold);
    EXPECT_EQ(st.breakerOpens, 1u);
    EXPECT_EQ(st.dispatched, 0u);
}

TEST(EndpointPoolTest, HalfOpenProbeClosesBreakerOnRecovery)
{
    // Trip the breaker against a dead endpoint whose socket path a
    // real server will claim later, then watch the half-open probe
    // admit traffic again.
    DispatchConfig dcfg;
    ServerConfig scfg;
    scfg.socketPath = ::testing::TempDir() +
                      strprintf("pacman_lateserver_%d.sock",
                                int(::getpid()));
    dcfg.endpoints = {"unix:" + scfg.socketPath};
    dcfg.breakerThreshold = 1;
    dcfg.maxAttempts = 1;
    dcfg.probeAfterSeconds = 0.01;
    dcfg.probeTimeoutSeconds = 1.0;

    EndpointPool pool(dcfg, /*workers=*/1);
    EXPECT_THROW(pool.chunkPayload(0, "body"), DispatchError);
    EXPECT_TRUE(pool.breakerOpen(0));

    // Bring the endpoint up; the next dispatch's half-open probe must
    // close the breaker and admit traffic again (the request itself
    // is garbage, so the server ERRs — but over a healthy wire).
    OracleServer server(scfg);
    server.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_THROW(pool.chunkPayload(0, "body"), DispatchError);
    EXPECT_GE(pool.stats().probes, 1u);
    // ERR responses are application-level: the probe succeeded and
    // the breaker closed before the garbage request was rejected.
    EXPECT_EQ(pool.healthyEndpoints(), 0u); // garbage re-opened it
    server.requestDrain();
}

TEST(EndpointPoolTest, RemoteCampaignFailsOverFromDeadEndpoint)
{
    ReplicaConfig replica;
    replica.machine = defaultMachineConfig();
    replica.machine.seed = 42;
    replica.target = BenignDataBase + 37 * isa::PageSize;
    replica.samples = 1;

    Machine probe(replica.machine);
    uint64_t modifier = 0x100;
    uint16_t truth = 0;
    for (;; ++modifier) {
        truth = probe.kernel().truePac(replica.target, modifier,
                                       crypto::PacKeySelect::DA);
        if (truth >= 48 && truth <= 0xFFF0)
            break;
    }
    replica.modifier = modifier;

    BruteForceCampaignConfig cfg;
    cfg.replica = replica;
    cfg.first = uint16_t(truth - 23);
    cfg.last = uint16_t(truth + 8);
    cfg.seed = 7;
    cfg.pool.chunkSize = 8;

    cfg.pool.jobs = 1;
    const std::string local =
        runBruteForceCampaign(cfg).fingerprint();

    TestServer ts;
    DispatchConfig dcfg;
    // Worker w prefers endpoint w % 5, so with four dead endpoints
    // listed first every worker at jobs 1 and 4 starts on a dead one.
    // A worker that preferred the live endpoint could run every chunk
    // before the others took one, leaving no failover to count.
    dcfg.endpoints = {deadEndpoint(2), deadEndpoint(3), deadEndpoint(4),
                      deadEndpoint(5), ts.endpoint()};
    dcfg.breakerThreshold = 1;
    dcfg.probeAfterSeconds = 30;
    dcfg.chunkDeadlineSeconds = 30;
    dcfg.backoffMinSeconds = 0.001;

    for (unsigned jobs : {1u, 4u}) {
        cfg.pool.jobs = jobs;
        const BruteForceCampaignResult res =
            runBruteForceCampaignRemote(cfg, dcfg);
        EXPECT_EQ(res.fingerprint(), local) << "jobs=" << jobs;
        EXPECT_GT(res.dispatch.dispatched, 0u) << "jobs=" << jobs;
        EXPECT_GT(res.dispatch.failovers, 0u) << "jobs=" << jobs;
        EXPECT_GT(res.dispatch.wireErrors, 0u) << "jobs=" << jobs;
    }
}

} // namespace
} // namespace pacman
