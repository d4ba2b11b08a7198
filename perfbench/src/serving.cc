/**
 * @file
 * oracled_mixed: an in-process runner::OracleServer (two service
 * threads, Unix socket, TRUTH enabled for grading) driven by an
 * open-loop generator: one sender thread (the caller) and one
 * receiver thread, speaking protocol.hh frames over two tenant
 * connections. About 0.5 % of requests are one-shot clients that
 * connect, HELLO, QUERY and close.
 *
 * Mix: about 95 % QUERY (trainIters 64, about 1 % of candidates are
 * the tenant's true PAC) and 5 % CHUNK (a 16-candidate brute-force
 * chunk under the boot keys). Short and long requests share one
 * admission queue, so head-of-line blocking shows in the tail.
 *
 * Phases, all generated from the seed and sized from --seconds:
 *  - low / high: Poisson arrivals at LowRate / HighRate requests/s;
 *    QUERY latency is timed from each request's scheduled send time;
 *  - saturation: a fixed batch kept LatencyWindow requests deep
 *    (closed loop), SaturationReps times: wall_s, items_per_s;
 *  - ladder: Poisson rungs above HighRate, stopping at the first
 *    rung whose QUERY p99 exceeds LatencyLimitMs or whose backlog
 *    grows: max_qps.
 */

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "base/logging.hh"
#include "runner/chunk_codec.hh"
#include "runner/client.hh"
#include "runner/protocol.hh"
#include "runner/server.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace pacman;
using namespace pacman::runner;

namespace perfbench
{

namespace
{

constexpr unsigned ServiceThreads = 2;
constexpr double LatencyLimitMs = 5.0;

// Offered rates in requests/s, fixed as absolute numbers: about 30 %
// and 70 % of the open-loop capacity, the rate at which QUERY p99
// reaches LatencyLimitMs (about 6500/s on a 4-vCPU x86-64 VM; the
// closed-loop saturation batch completes about 11000/s there). The
// ladder climbs from just above the high rate.
constexpr double LowRate = 2000.0;
constexpr double HighRate = 4500.0;
constexpr double LadderFirst = 5000.0;
constexpr double LadderStep = 500.0;
constexpr unsigned LadderRungs = 7;

// Phase lengths as shares of --seconds.
constexpr double RateShare = 0.2;  // low and high, each
constexpr double RungShare = 0.06; // each ladder rung
constexpr size_t WindowSamples = 1000;

constexpr double QueryShare = 0.95;
constexpr double OneShotShare = 0.005;
constexpr double TruthShare = 0.01;
constexpr unsigned ChunkCandidates = 16;
constexpr unsigned SaturationBatch = 6000;
constexpr unsigned SaturationReps = 5;
constexpr unsigned SetupReps = 15;
constexpr unsigned LatencyWindow = 48; // below the server's queue of 64
constexpr double TimeoutSeconds = 2.0;
constexpr auto SpinAhead = std::chrono::microseconds(300);
/** Latency charged to a failed request: it misses every limit. */
constexpr double FailedLatencyMs = TimeoutSeconds * 1e3;

struct Tenant
{
    std::string name;
    uint64_t secret = 0;
    uint16_t truth = 0;
    int fd = -1;
};

struct Request
{
    bool chunk = false;
    bool oneShot = false;
    unsigned tenant = 0;
    uint16_t candidate = 0;
    Chunk chunkRange{0, 0, 0};
    double due = 0; //!< seconds after the phase epoch
    std::string frame; //!< packed message, ready to send

    // Written by the sender while the phase runs.
    double sent = 0; //!< seconds after the phase epoch
    bool late = false;

    // Written by the receiver (or by the sender when a send fails).
    double done = 0;
    bool resolved = false;
    std::optional<Failure> failure;
    uint64_t chunkCycles = 0, chunkGuesses = 0;
    std::string outcome; //!< deterministic result text for the digest
};

struct PhaseStats
{
    std::vector<double> queryMs, chunkMs;
    uint64_t requests = 0;
    uint64_t failures[size_t(Failure::Count)] = {};
    uint64_t chunkCycles = 0;
    uint64_t chunkCandidates = 0;
    double wall = 0;
    double lateMax = 0, lateP99 = 0;
    std::string digest;
    bool clean() const
    {
        for (uint64_t f : failures)
            if (f)
                return false;
        return true;
    }
};

/** The generator's fixed inputs: tenants, request bodies, truths. */
struct Inputs
{
    uint64_t seed = 0;
    ReplicaConfig replica;
    std::string queryBody;
    BruteForceCampaignConfig chunkCfg;
    uint16_t bootTruth = 0;
    std::vector<Tenant> tenants;
};

Inputs
makeInputs(uint64_t seed)
{
    Inputs in;
    in.seed = seed;
    // The same quiet data-gadget replica bf_sweep attacks; QUERY and
    // CHUNK share it, so each service thread provisions it once.
    in.chunkCfg = bfSweepConfig(seed);
    in.chunkCfg.pool.chunkSize = ChunkCandidates;
    in.replica = in.chunkCfg.replica;
    in.queryBody = encodeReplicaWire(in.replica, in.chunkCfg.supervision);
    Random rng(Random::deriveSeed(seed, TenantStream));
    for (const char *name : {"alice", "bob"})
        in.tenants.push_back(Tenant{name, rng.next(), 0, -1});
    return in;
}

std::vector<Request>
makeRequests(const Inputs &in, uint64_t phase, const std::vector<double> &due,
             uint64_t first_id)
{
    Random mix(Random::deriveSeed(Random::deriveSeed(in.seed, MixStream),
                                  phase));
    std::vector<Request> reqs(due.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        Request &r = reqs[i];
        r.due = due[i];
        r.tenant = unsigned(mix.next(in.tenants.size()));
        WireMessage m;
        m.id = first_id + i;
        r.chunk = !mix.chance(QueryShare);
        if (r.chunk) {
            const uint64_t idx = mix.next(0x10000 / ChunkCandidates);
            r.chunkRange = Chunk{idx, idx * ChunkCandidates,
                                 idx * ChunkCandidates + ChunkCandidates - 1};
            m.verb = "CHUNK";
            m.body = encodeBfChunkRequest(in.chunkCfg, r.chunkRange);
        } else {
            const uint16_t truth = in.tenants[r.tenant].truth;
            if (mix.chance(TruthShare)) {
                r.candidate = truth;
            } else {
                do {
                    r.candidate = uint16_t(mix.next(0x10000));
                } while (r.candidate == truth);
            }
            r.oneShot = mix.chance(OneShotShare);
            m.verb = "QUERY";
            m.args = strprintf("%04x %016llx", r.candidate,
                               (unsigned long long)mix.next());
            m.body = in.queryBody;
        }
        r.frame = packMessage(m);
    }
    return reqs;
}

/** Read one response on @p fd (blocking, bounded). */
WireMessage
readResponse(int fd)
{
    std::optional<std::string> frame = readFrame(fd, TimeoutSeconds);
    if (!frame)
        throw WireError("server closed the connection");
    std::optional<WireMessage> m = unpackMessage(*frame);
    if (!m)
        throw WireError("malformed response");
    return *m;
}

WireMessage
call(int fd, const std::string &verb, const std::string &args,
     const std::string &body = {})
{
    WireMessage m;
    m.id = 1;
    m.verb = verb;
    m.args = args;
    m.body = body;
    writeFrame(fd, packMessage(m));
    return readResponse(fd);
}

/** Value of metric @p name in a pacman-bench-v1 METRICS document. */
double
metricValue(const std::string &json, const std::string &name)
{
    const std::string key = "\"" + name + "\":{\"value\":";
    const size_t at = json.find(key);
    return at == std::string::npos
               ? 0.0
               : std::strtod(json.c_str() + at + key.size(), nullptr);
}

/**
 * The load generator. run() sends on the calling thread and
 * receives on a thread of its own, which it joins before returning.
 */
class Generator
{
  public:
    Generator(const Inputs &in, const Endpoint &ep) : in_(in), ep_(ep) {}

    PhaseStats run(std::vector<Request> &reqs, unsigned window,
                   uint64_t first_id, Result &res);

  private:
    void receive(std::vector<Request> &reqs, uint64_t first_id);
    void resolve(Request &r, const WireMessage &m);
    void finish(Request &r, std::optional<Failure> f);

    const Inputs &in_;
    Endpoint ep_;
    Clock::time_point epoch_;
    Result *res_ = nullptr;

    std::mutex mu_; // guards newFds_ and outstanding_
    std::condition_variable cv_;
    std::vector<std::pair<int, size_t>> newFds_;
    unsigned outstanding_ = 0;
    std::atomic<bool> senderDone_{false};
    int wake_[2] = {-1, -1};
    uint64_t phaseSpan_ = 0;
};

void
Generator::finish(Request &r, std::optional<Failure> f)
{
    r.done = secondsSince(epoch_);
    r.resolved = true;
    r.failure = f;
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
    cv_.notify_one();
}

void
Generator::resolve(Request &r, const WireMessage &m)
{
    Result &res = *res_;
    if (m.verb == "BUSY")
        return finish(r, Failure::Busy);
    if (m.verb != "OK") {
        const bool quarantine =
            m.args.find("quarantined") != std::string::npos;
        return finish(r, quarantine ? Failure::Quarantined
                                    : Failure::WireError);
    }
    if (r.chunk) {
        BfChunkResult c;
        if (!decodeBfChunk(m.body, c)) {
            res.wrong("oracled_mixed: undecodable CHUNK payload");
            return finish(r, Failure::WireError);
        }
        const bool has_truth = in_.bootTruth >= r.chunkRange.firstItem &&
                               in_.bootTruth <= r.chunkRange.lastItem;
        const uint64_t expect_guesses =
            has_truth ? in_.bootTruth - r.chunkRange.firstItem + 1
                      : ChunkCandidates;
        if (c.stats.found != (has_truth ? std::optional<uint16_t>(
                                              in_.bootTruth)
                                        : std::nullopt) ||
            c.stats.guessesTested != expect_guesses) {
            res.wrong(strprintf("oracled_mixed: CHUNK %llu found the wrong "
                                "PAC",
                                (unsigned long long)r.chunkRange.index));
            return finish(r, Failure::WrongVerdict);
        }
        r.chunkCycles = c.stats.cyclesSimulated;
        r.chunkGuesses = c.stats.guessesTested;
        r.outcome = strprintf("c%llu:%016llx",
                              (unsigned long long)r.chunkRange.index,
                              (unsigned long long)digestOf(m.body));
        return finish(r, std::nullopt);
    }
    int hot = 0;
    double misses = 0;
    if (std::sscanf(m.args.c_str(), "%d %lf", &hot, &misses) != 2) {
        res.wrong("oracled_mixed: malformed QUERY reply");
        return finish(r, Failure::WireError);
    }
    r.outcome = strprintf("q%d:%.17g", hot, misses);
    const bool truth = r.candidate == in_.tenants[r.tenant].truth;
    if ((hot != 0) != truth) {
        res.wrong(strprintf("oracled_mixed: QUERY %04x for %s answered "
                            "%s, truth %04x",
                            r.candidate, in_.tenants[r.tenant].name.c_str(),
                            hot ? "hot" : "cold",
                            in_.tenants[r.tenant].truth));
        return finish(r, Failure::WrongVerdict);
    }
    finish(r, std::nullopt);
}

void
Generator::receive(std::vector<Request> &reqs, uint64_t first_id)
{
    // fd -> request index for one-shot clients (SIZE_MAX = tenant).
    std::vector<std::pair<int, size_t>> fds;
    for (const Tenant &t : in_.tenants)
        fds.push_back({t.fd, SIZE_MAX});
    double last_progress = secondsSince(epoch_);
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            fds.insert(fds.end(), newFds_.begin(), newFds_.end());
            newFds_.clear();
            if (senderDone_.load() && outstanding_ == 0)
                break;
        }
        if (senderDone_.load() &&
            secondsSince(epoch_) - last_progress > TimeoutSeconds)
            break;
        std::vector<pollfd> pfd;
        pfd.push_back({wake_[0], POLLIN, 0});
        for (const auto &[fd, idx] : fds)
            pfd.push_back({fd, POLLIN, 0});
        if (::poll(pfd.data(), pfd.size(), 20) <= 0)
            continue;
        if (pfd[0].revents & POLLIN) {
            char buf[64];
            (void)!::read(wake_[0], buf, sizeof(buf));
        }
        std::vector<int> closed;
        for (size_t k = 1; k < pfd.size(); ++k) {
            if (!(pfd[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const auto [fd, idx] = fds[k - 1];
            try {
                const WireMessage m = readResponse(fd);
                if (m.id < first_id || m.id >= first_id + reqs.size())
                    continue; // a one-shot client's HELLO reply
                Request &r = reqs[m.id - first_id];
                if (r.resolved)
                    continue;
                resolve(r, m);
                last_progress = secondsSince(epoch_);
                if (idx != SIZE_MAX)
                    closed.push_back(fd);
            } catch (const WireError &) {
                if (idx != SIZE_MAX) {
                    if (!reqs[idx].resolved)
                        finish(reqs[idx], Failure::WireError);
                    closed.push_back(fd);
                } else {
                    res_->wrong("oracled_mixed: tenant connection failed");
                    std::lock_guard<std::mutex> lock(mu_);
                    senderDone_ = true;
                    outstanding_ = 0;
                    cv_.notify_one();
                    return;
                }
            }
        }
        for (int fd : closed) {
            fds.erase(std::find_if(fds.begin(), fds.end(),
                                   [fd](const auto &p) {
                                       return p.first == fd;
                                   }));
            ::close(fd);
        }
    }
    for (const auto &[fd, idx] : fds) {
        if (idx != SIZE_MAX)
            ::close(fd);
    }
}

PhaseStats
Generator::run(std::vector<Request> &reqs, unsigned window,
               uint64_t first_id, Result &res)
{
    res_ = &res;
    senderDone_ = false;
    outstanding_ = 0;
    if (::pipe(wake_) != 0)
        throw std::runtime_error("pipe failed");
    ScopedSpan phase(window ? "bench.saturation" : "bench.phase",
                     reqs.size());
    phaseSpan_ = phase.id();
    Lateness late(LatencyLimitMs / 1e3);
    epoch_ = Clock::now() + std::chrono::milliseconds(2);
    std::thread receiver([&] { receive(reqs, first_id); });

    for (size_t i = 0; i < reqs.size(); ++i) {
        Request &r = reqs[i];
        {
            std::unique_lock<std::mutex> lock(mu_);
            if (window != 0)
                cv_.wait(lock, [&] {
                    return outstanding_ < window || senderDone_.load();
                });
            if (senderDone_.load())
                break; // the receiver gave up on a failed connection
            ++outstanding_;
        }
        if (window == 0) {
            // Sleep to just short of the due time, then spin: a
            // sleeping thread's wake-up on this class of host can lag
            // by milliseconds, which would read as server latency.
            const Clock::time_point due =
                epoch_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(r.due));
            std::this_thread::sleep_until(due - SpinAhead);
            while (Clock::now() < due) {
            }
        }
        r.sent = secondsSince(epoch_);
        if (window == 0)
            r.late = late.record(r.due, r.sent);
        try {
            ScopedSpan span("runner.writeFrame", 1, 0, first_id + i);
            if (r.oneShot) {
                const int fd = connectEndpoint(ep_);
                const Tenant &t = in_.tenants[r.tenant];
                WireMessage hello;
                hello.id = 0;
                hello.verb = "HELLO";
                hello.args = strprintf("%s %llx", t.name.c_str(),
                                       (unsigned long long)t.secret);
                writeFrame(fd, packMessage(hello));
                writeFrame(fd, r.frame);
                std::lock_guard<std::mutex> lock(mu_);
                newFds_.push_back({fd, i});
                (void)!::write(wake_[1], "x", 1);
            } else {
                writeFrame(in_.tenants[r.tenant].fd, r.frame);
            }
        } catch (const WireError &) {
            finish(r, Failure::WireError);
        }
    }
    senderDone_ = true;
    (void)!::write(wake_[1], "x", 1);
    receiver.join();
    ::close(wake_[0]);
    ::close(wake_[1]);

    PhaseStats st;
    st.requests = reqs.size();
    double last_done = 0;
    std::string digest;
    Tracer &t = Tracer::global();
    for (uint64_t i = 0; i < reqs.size(); ++i) {
        Request &r = reqs[i];
        if (!r.resolved && !r.failure)
            r.failure = Failure::Timeout;
        if (r.resolved && !r.failure)
            digest += r.outcome + ";";
        if (!r.failure && r.late)
            r.failure = Failure::Late;
        if (r.failure)
            ++st.failures[size_t(*r.failure)];
        if (r.chunk) {
            st.chunkCycles += r.chunkCycles;
            st.chunkCandidates += r.chunkGuesses;
        }
        const double from = window ? r.sent : r.due;
        const double ms = r.failure ? FailedLatencyMs : (r.done - from) * 1e3;
        (r.chunk ? st.chunkMs : st.queryMs).push_back(ms);
        last_done = std::max(last_done, r.done);
        if (t.enabled() && r.resolved) {
            // One span per request, from when it was due (open loop)
            // or sent (closed loop) to its response.
            auto at = [&](double sec) {
                return t.toNs(epoch_ +
                              std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(sec)));
            };
            Span span;
            span.name = r.chunk ? "serve.CHUNK" : "serve.QUERY";
            span.startNs = at(from);
            span.endNs = at(r.done);
            span.id = t.newId();
            span.parent = phaseSpan_;
            span.request = first_id + i;
            t.record(span);
        }
    }
    // A closed-loop batch is timed from its first send; an open-loop
    // phase from its epoch.
    st.wall = last_done - (window && !reqs.empty() ? reqs.front().sent : 0);
    st.digest = strprintf("%016llx", (unsigned long long)digestOf(digest));
    st.lateMax = late.max();
    st.lateP99 = late.p99();
    return st;
}

/** A started, warmed server plus its tenant connections. */
struct Service
{
    std::unique_ptr<OracleServer> server;
    std::string endpoint;
};

/** Start the server and provision every service thread's replica. */
Service
startService(const Options &opt, const Inputs &in, unsigned k)
{
    Service s;
    ServerConfig sc;
    sc.socketPath = strprintf("%s/pb-%d-%u.sock", opt.workDir.c_str(),
                              int(::getpid()), k);
    sc.threads = ServiceThreads;
    sc.allowTruth = true;
    s.server = std::make_unique<OracleServer>(sc);
    s.server->start();
    s.endpoint = "unix:" + sc.socketPath;
    OracleClient c(s.endpoint);
    // Concurrent queries until every service thread has provisioned
    // the replica: the server then serves from warm replica caches.
    for (unsigned round = 0; round < 50; ++round) {
        std::vector<uint64_t> ids;
        for (unsigned q = 0; q < 2 * ServiceThreads; ++q)
            ids.push_back(c.sendRequest(
                "QUERY", strprintf("%04x %llx", q, (unsigned long long)q),
                in.queryBody));
        for (uint64_t id : ids)
            c.readResponse(id);
        if (metricValue(c.metricsJson(), "replica_provisions") >=
            ServiceThreads)
            break;
    }
    return s;
}

void
stopService(Service &s)
{
    if (s.server)
        s.server->waitDrained();
    s.server.reset();
}

/** HELLO each tenant on a connection of its own and read its TRUTH. */
void
connectTenants(Inputs &in, const Endpoint &ep)
{
    for (Tenant &tn : in.tenants) {
        tn.fd = connectEndpoint(ep);
        const WireMessage h = call(tn.fd, "HELLO",
                                   strprintf("%s %llx", tn.name.c_str(),
                                             (unsigned long long)tn.secret));
        const WireMessage tr = call(tn.fd, "TRUTH", "", in.queryBody);
        if (h.verb != "OK" || tr.verb != "OK")
            throw std::runtime_error("tenant set-up failed");
        tn.truth = uint16_t(std::strtoul(tr.args.c_str(), nullptr, 16));
    }
}

void
closeTenants(Inputs &in)
{
    for (Tenant &tn : in.tenants) {
        ::close(tn.fd);
        tn.fd = -1;
    }
}

/** The server's admission and isolation counters, for the trace. */
void
countServerMetrics(const std::string &endpoint)
{
    const std::string metrics = OracleClient(endpoint).metricsJson();
    Tracer &t = Tracer::global();
    t.count("runner.server_requests",
            metricValue(metrics, "queries_served") +
                metricValue(metrics, "chunks_served") +
                metricValue(metrics, "truths_served"));
    t.count("runner.queue_peak", metricValue(metrics, "queue_peak"));
    t.count("runner.busy_rejects", metricValue(metrics, "busy_rejections"));
    t.count("runner.server_restores",
            metricValue(metrics, "checkpoint_restores"));
    t.count("runner.server_rekeys", metricValue(metrics, "pac_rekeys"));
}

/**
 * The QUERY tail of a phase: cut its QUERY samples, in due-time order,
 * into consecutive windows of WindowSamples (the smallest sample whose
 * p99 has ten samples beyond it), take each window's p99 and report
 * the median window's. The hosts this benchmark runs on stall every
 * vCPU for 5-15 ms now and then; one stall moves its window's p99 by
 * milliseconds, and the median window reports the tail that a typical
 * stretch of traffic saw.
 */
double
windowedTail(const PhaseStats &st)
{
    const size_t n = st.queryMs.size();
    const size_t windows = std::max<size_t>(1, n / WindowSamples);
    std::vector<double> tails;
    for (size_t w = 0; w < windows; ++w) {
        const auto first = st.queryMs.begin() + w * WindowSamples;
        const auto last = w + 1 == windows ? st.queryMs.end()
                                           : first + WindowSamples;
        tails.push_back(summarize(std::vector<double>(first, last)).tail);
    }
    return median(tails);
}

/** A rung of the ladder passes when its QUERY tail meets the limit
 *  and the latency of its last quarter has not run away from its
 *  first quarter (no growing backlog). */
bool
rungPasses(const PhaseStats &st, double *p99)
{
    *p99 = windowedTail(st);
    const size_t q = st.queryMs.size() / 4;
    if (q < 10)
        return *p99 <= LatencyLimitMs;
    const double head = median(std::vector<double>(
        st.queryMs.begin(), st.queryMs.begin() + q));
    const double tail = median(std::vector<double>(st.queryMs.end() - q,
                                                   st.queryMs.end()));
    const bool growing = tail > 2 * head + 1.0;
    return *p99 <= LatencyLimitMs && !growing;
}

void
addFailures(Result &res, const PhaseStats &st)
{
    res.attempted += st.requests;
    for (size_t f = 0; f < size_t(Failure::Count); ++f)
        res.fail(Failure(f), st.failures[f]);
}

uint64_t
failedCount(const PhaseStats &st)
{
    uint64_t n = 0;
    for (uint64_t f : st.failures)
        n += f;
    return n;
}

void
printPhase(const char *name, double rate, const PhaseStats &st)
{
    const Summary q = summarize(st.queryMs), c = summarize(st.chunkMs);
    std::printf("  %-11s %6.0f/s  n=%llu  QUERY p50 %.3f p%.1f %.3f ms  "
                "CHUNK n=%zu p%.1f %.3f ms  late max %.3f p99 %.3f ms  "
                "failed %llu\n",
                name, rate, (unsigned long long)st.requests, q.p50, q.tailP,
                q.tail, c.n, c.tailP, c.tail, st.lateMax * 1e3,
                st.lateP99 * 1e3, (unsigned long long)failedCount(st));
}

} // anonymous namespace

void
runServingProbe(const Options &opt, Result &res)
{
    Inputs in = makeInputs(opt.seed);
    Service svc = startService(opt, in, 0);
    in.bootTruth =
        OracleClient(svc.endpoint).truth(in.replica, in.chunkCfg.supervision);
    const std::optional<Endpoint> ep = parseEndpoint(svc.endpoint);
    connectTenants(in, *ep);
    Generator gen(in, *ep);
    std::vector<Request> reqs = makeRequests(
        in, 0, std::vector<double>(SaturationBatch, 0.0), 1);
    Tracer::global().enable(true);
    addFailures(res, gen.run(reqs, LatencyWindow, 1, res));
    Tracer::global().enable(false);
    countServerMetrics(svc.endpoint);
    closeTenants(in);
    stopService(svc);
}

Result
runOracledMixed(const Options &opt)
{
    Result res;
    Tracer &t = Tracer::global();
    Inputs in = makeInputs(opt.seed);

    // setup_s: server start plus replica-cache warm-up, median of
    // SetupReps;
    // the last service stays up for the measurement.
    std::vector<double> setups;
    Service svc;
    for (unsigned k = 0; k < SetupReps; ++k) {
        if (svc.server)
            stopService(svc);
        const Clock::time_point t0 = Clock::now();
        svc = startService(opt, in, k);
        setups.push_back(secondsSince(t0));
    }
    res.set("setup_s", median(setups), "s");
    in.bootTruth =
        OracleClient(svc.endpoint).truth(in.replica, in.chunkCfg.supervision);
    std::printf("oracled_mixed: setup (median of %u) %.4f s, boot truth "
                "%04x\n",
                SetupReps, median(setups), in.bootTruth);

    if (opt.trace)
        runLayerProbes(opt);

    const std::optional<Endpoint> ep = parseEndpoint(svc.endpoint);
    connectTenants(in, *ep);

    Generator gen(in, *ep);
    uint64_t next_id = 1;
    uint64_t phase_no = 0;
    auto openLoop = [&](double rate, double duration) {
        const std::vector<double> due = poissonArrivals(
            Random::deriveSeed(Random::deriveSeed(opt.seed, ArrivalStream),
                               phase_no),
            rate, duration);
        std::vector<Request> reqs = makeRequests(in, phase_no++, due, next_id);
        PhaseStats st = gen.run(reqs, 0, next_id, res);
        next_id += reqs.size();
        return st;
    };

    const double rate_s = RateShare * opt.seconds;
    const double rung_s = RungShare * opt.seconds;
    if (opt.trace)
        t.enable(true);
    const PhaseStats low = openLoop(LowRate, rate_s);
    printPhase("low", LowRate, low);
    const PhaseStats high = openLoop(HighRate, rate_s);
    printPhase("high", HighRate, high);

    // Saturation: the same batch each repetition. In the traced run
    // the repetitions alternate untraced/traced for the overhead.
    std::vector<double> walls;
    std::vector<double> rate_untraced, rate_traced;
    std::optional<std::string> sat_digest;
    PhaseStats sat;
    const uint64_t sat_phase = phase_no++;
    for (unsigned rep = 0; rep < SaturationReps + (opt.trace ? 1 : 0);
         ++rep) {
        const bool traced = opt.trace && rep % 2 == 1;
        t.enable(traced);
        std::vector<Request> reqs = makeRequests(
            in, sat_phase, std::vector<double>(SaturationBatch, 0.0),
            next_id);
        sat = gen.run(reqs, LatencyWindow, next_id, res);
        next_id += reqs.size();
        addFailures(res, sat);
        if (sat.clean() && !sat_digest)
            sat_digest = sat.digest;
        else if (sat.clean() && *sat_digest != sat.digest)
            res.wrong("oracled_mixed: saturation batch answered "
                      "differently between repetitions");
        (traced ? rate_traced : rate_untraced)
            .push_back(double(sat.requests) / sat.wall);
        if (!traced)
            walls.push_back(sat.wall);
    }
    t.enable(opt.trace);
    printPhase("saturation", 0, sat);

    // Ladder: continue upward from the high rate.
    double max_qps = 0;
    double prev_rate = HighRate, prev_p99 = 0;
    bool prev_pass = rungPasses(high, &prev_p99);
    for (unsigned k = 0; k < LadderRungs && prev_pass; ++k) {
        const double rate = LadderFirst + k * LadderStep;
        const PhaseStats rung = openLoop(rate, rung_s);
        double p99 = 0;
        const bool pass = rungPasses(rung, &p99);
        printPhase(strprintf("rung %u", k).c_str(), rate, rung);
        std::printf("    windowed p99 %.3f ms: %s\n", p99,
                    pass ? "pass" : "fail");
        if (!pass) {
            const double f = std::clamp(
                (LatencyLimitMs - prev_p99) / (p99 - prev_p99), 0.0, 1.0);
            max_qps = prev_rate + f * (rate - prev_rate);
        }
        prev_rate = rate;
        prev_p99 = p99;
        prev_pass = pass;
    }
    if (prev_pass)
        max_qps = prev_rate; // the top rung passed; capacity is beyond it
    else if (max_qps == 0)
        max_qps = HighRate * std::min(1.0, LatencyLimitMs / prev_p99);
    t.enable(false);

    addFailures(res, low);
    addFailures(res, high);
    // The saturation batch is closed-loop and never outruns the
    // admission queue, so every request of it is answered and its
    // answers are a pure function of the seed. The open-loop phases
    // can lose requests to BUSY when the host stalls; their verdicts
    // are checked one by one instead.
    if (sat_digest)
        res.digest = strprintf("oracled_mixed sat=%s chunk_cycles=%llu "
                               "chunk_candidates=%llu",
                               sat_digest->c_str(),
                               (unsigned long long)sat.chunkCycles,
                               (unsigned long long)sat.chunkCandidates);

    const std::string metrics = OracleClient(svc.endpoint).metricsJson();
    if (opt.trace)
        countServerMetrics(svc.endpoint);
    closeTenants(in);
    stopService(svc);

    const double wall = median(walls);
    if (opt.trace) {
        t.count("cpu.block_hits",
                metricValue(metrics, "superblock_block_hits"));
        t.count("cpu.trace_replays",
                metricValue(metrics, "timing_trace_replays"));
        t.count("cpu.trace_guard_breaks",
                metricValue(metrics, "timing_trace_guard_breaks"));
        t.count("attack.queries", metricValue(metrics, "queries_served"));
        t.count("sim.cycles", double(high.chunkCycles));
        t.count("sim.cycle_items", double(high.chunkCandidates));
        t.count("bench.items_per_s_untraced", median(rate_untraced));
        t.count("bench.items_per_s_traced", median(rate_traced));
    }

    res.set("wall_s", wall, "s");
    res.set("items_per_s", double(SaturationBatch) / wall, "1/s");
    res.set("sim_mcycles_per_s", double(sat.chunkCycles) / wall / 1e6,
            "Mcycles/s");
    res.set("p50_ms_low", median(low.queryMs), "ms");
    res.set("p99_ms_low", windowedTail(low), "ms");
    res.set("p50_ms_high", median(high.queryMs), "ms");
    res.set("p99_ms_high", windowedTail(high), "ms");
    res.set("chunk_p99_ms_high", summarize(high.chunkMs).tail, "ms");
    res.set("max_qps", max_qps, "1/s");
    std::printf("oracled_mixed: saturation wall %.4f s (median of %zu), "
                "max_qps %.0f/s\n",
                wall, walls.size(), max_qps);
    return res;
}

} // namespace perfbench
