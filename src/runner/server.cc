#include "server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "base/journal.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "crypto/pac.hh"
#include "runner/chunk_codec.hh"
#include "runner/protocol.hh"

namespace pacman::runner
{

namespace
{

using Clock = std::chrono::steady_clock;

/** METRICS summarises each tenant's latency over its most recent this
 *  many requests: a fixed window keeps a long-running daemon's memory
 *  and the cost of METRICS flat (DESIGN.md §4h). */
constexpr size_t TenantLatencyWindow = 1024;

/** The tenant-table entry that counts every tenant past MaxTenants.
 *  HELLO names cannot contain a space, so no tenant is called this. */
const char *const OverflowTenant = "(other tenants)";

/** One accepted connection; jobs hold it alive past reader exit. */
struct Connection
{
    int fd = -1;

    /** Serializes response frames: service threads complete jobs out
     *  of order and interleave with reader-thread replies. */
    std::mutex writeMu;

    /** Tenant binding (set by HELLO, read by service threads). */
    std::mutex metaMu;
    std::string tenant = "-";
    std::optional<uint64_t> tenantKey;

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    void
    setTenant(const std::string &name, uint64_t key)
    {
        std::lock_guard<std::mutex> lock(metaMu);
        tenant = name;
        tenantKey = key;
    }

    std::pair<std::string, std::optional<uint64_t>>
    tenantBinding()
    {
        std::lock_guard<std::mutex> lock(metaMu);
        return {tenant, tenantKey};
    }
};

/** One queued compute request. */
struct Job
{
    std::shared_ptr<Connection> conn;
    WireMessage msg;
    std::string tenant;
    std::optional<uint64_t> tenantKey;
    Clock::time_point enqueued;
};

/** A service thread's provisioned replica for one config key. */
struct CachedWorker
{
    std::unique_ptr<Worker> worker;
    ReplicaConfig replica;
    bool snapshot = true;
    uint64_t lastProvisions = 0;
    uint64_t lastRekeys = 0;
    // Last-seen fast-path counters of the replica's machine, for delta
    // accounting into the server total: the core's counters are
    // monotonic per machine, the server sums deltas across all cached
    // workers of all service threads.
    cpu::SuperblockStats lastSb;
};

/** A service thread's replicas keyed by replica-wire body (a
 *  QUERY/TRUTH body or a CHUNK's config prefix), most recently used
 *  first and at most ReplicaCacheEntries long. */
using ReplicaCache = std::list<std::pair<std::string, CachedWorker>>;

/** Block until @p fd has a byte to read, or its peer hung up. */
void
waitReadable(int fd)
{
    pollfd pfd{fd, POLLIN, 0};
    while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
    }
}

std::string
sanitizeMetricName(const std::string &name)
{
    std::string out;
    for (char ch : name)
        out += (std::isalnum(static_cast<unsigned char>(ch)) != 0)
                   ? ch
                   : '_';
    return out.empty() ? std::string("_") : out;
}

} // anonymous namespace

struct OracleServer::Impl
{
    ServerConfig cfg;

    std::atomic<bool> started{false};
    std::atomic<bool> draining{false};
    std::atomic<bool> drained{false};

    int unixFd = -1;
    int tcpFd = -1;
    uint16_t tcpPort = 0;

    /** One connection's reader thread; done once readerLoop returned. */
    struct Reader
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    std::thread acceptor;
    std::vector<std::thread> service;
    std::mutex connMu;
    std::list<Reader> readers;                    //!< guarded by connMu
    std::vector<std::weak_ptr<Connection>> conns; //!< guarded by connMu

    mutable std::mutex qmu;
    std::condition_variable qcv;
    std::deque<Job> queue;

    // --- metrics (operational; never determinism-bearing) ---
    std::atomic<uint64_t> connectionsAccepted{0};
    std::atomic<uint64_t> busyRejections{0};
    std::atomic<uint64_t> queriesServed{0};
    std::atomic<uint64_t> truthsServed{0};
    std::atomic<uint64_t> chunksServed{0};
    std::atomic<uint64_t> requestErrors{0};
    std::atomic<uint64_t> itemsRestored{0};
    std::atomic<uint64_t> replicaProvisions{0};
    std::atomic<uint64_t> pacRekeys{0};
    std::atomic<uint64_t> queuePeak{0};
    // Fast-path telemetry summed across every worker replica this
    // server has driven (the counters Machine::statsReport prints).
    mutable std::mutex sbMu;
    cpu::SuperblockStats sbTotal; //!< guarded by sbMu
    /** One tenant's lifetime request count and its latest latencies
     *  (a ring of TenantLatencyWindow samples). */
    struct TenantLatency
    {
        uint64_t requests = 0;
        std::vector<double> recentUs;
    };
    mutable std::mutex tenantMu;
    std::map<std::string, TenantLatency> tenantLatency;

    void reply(const std::shared_ptr<Connection> &conn, uint64_t id,
               const char *verb, std::string args = {},
               std::string body = {});
    void readerLoop(std::shared_ptr<Connection> conn);
    void serviceLoop();
    void acceptLoop();
    void reapReaders();
    void executeJob(ReplicaCache &cache, Job &job);
    CachedWorker &getWorker(ReplicaCache &cache,
                            const std::string &config_text);
    void accountWorker(CachedWorker &cw, uint64_t items);
    std::string metricsJson() const;
};

void
OracleServer::Impl::reply(const std::shared_ptr<Connection> &conn,
                          uint64_t id, const char *verb,
                          std::string args, std::string body)
{
    WireMessage m;
    m.id = id;
    m.verb = verb;
    m.args = std::move(args);
    m.body = std::move(body);
    try {
        std::lock_guard<std::mutex> lock(conn->writeMu);
        writeFrame(conn->fd, packMessage(m));
    } catch (const WireError &) {
        // Peer went away between request and response; the reader
        // loop notices the same EOF and retires the connection.
    }
}

void
OracleServer::Impl::readerLoop(std::shared_ptr<Connection> conn)
{
    try {
        for (;;) {
            // A connection may idle between frames for as long as it
            // likes, but once a frame starts the rest must follow
            // within PartialFrameSeconds; a WireTimeout drops the
            // connection.
            waitReadable(conn->fd);
            const std::optional<std::string> payload =
                readFrame(conn->fd, PartialFrameSeconds);
            if (!payload)
                break;
            std::optional<WireMessage> msg = unpackMessage(*payload);
            if (!msg) {
                requestErrors.fetch_add(1);
                reply(conn, 0, "ERR", "malformed message");
                continue;
            }
            const std::string &verb = msg->verb;
            if (verb == "PING") {
                // Health probes read the args: a draining server is
                // alive but not dispatchable (dispatch.hh breakers).
                reply(conn, msg->id, "OK",
                      draining.load() ? "draining" : "ready");
            } else if (verb == "HELLO") {
                std::istringstream in(msg->args);
                std::string name, secret_word;
                unsigned long long secret = 0;
                if (!(in >> name >> secret_word) ||
                    name.size() > MaxTenantNameBytes ||
                    sscanf(secret_word.c_str(), "%llx", &secret) != 1) {
                    requestErrors.fetch_add(1);
                    reply(conn, msg->id, "ERR",
                          strprintf("usage: HELLO <name of at most %zu "
                                    "bytes> <secret-hex>",
                                    MaxTenantNameBytes));
                    continue;
                }
                // The tenant key seeds Machine::rekey() for every
                // query this connection issues: same name + secret ==
                // same PAC keys across connections and server
                // restarts; different tenants never share keys.
                conn->setTenant(
                    name, Random::deriveSeed(
                              secret, Journal::crc32(name)));
                reply(conn, msg->id, "OK");
            } else if (verb == "METRICS") {
                reply(conn, msg->id, "OK", {}, metricsJson());
            } else if (verb == "DRAIN") {
                // Flag first: a client that has seen the OK must
                // observe draining() == true.
                draining.store(true);
                qcv.notify_all();
                reply(conn, msg->id, "OK");
            } else if (verb == "QUERY" || verb == "TRUTH" ||
                       verb == "CHUNK" || verb == "SLEEP") {
                if (draining.load()) {
                    reply(conn, msg->id, "ERR", "draining");
                    continue;
                }
                Job job;
                job.conn = conn;
                job.msg = std::move(*msg);
                std::tie(job.tenant, job.tenantKey) =
                    conn->tenantBinding();
                job.enqueued = Clock::now();
                bool admitted = false;
                {
                    std::lock_guard<std::mutex> lock(qmu);
                    if (queue.size() < cfg.maxQueue) {
                        queue.push_back(std::move(job));
                        uint64_t depth = queue.size(), peak;
                        while (depth > (peak = queuePeak.load()) &&
                               !queuePeak.compare_exchange_weak(peak,
                                                                depth)) {
                        }
                        admitted = true;
                    }
                }
                if (admitted) {
                    qcv.notify_one();
                } else {
                    busyRejections.fetch_add(1);
                    reply(conn, msg->id, "BUSY");
                }
            } else {
                requestErrors.fetch_add(1);
                reply(conn, msg->id, "ERR",
                      strprintf("unknown verb '%s'", verb.c_str()));
            }
        }
    } catch (const WireError &) {
        // Torn connection; nothing to answer.
    }
}

CachedWorker &
OracleServer::Impl::getWorker(ReplicaCache &cache,
                              const std::string &config_text)
{
    for (auto it = cache.begin(); it != cache.end(); ++it) {
        if (it->first == config_text) {
            cache.splice(cache.begin(), cache, it);
            return it->second;
        }
    }
    // Build before inserting: a body that fails to decode, or whose
    // Worker constructor throws (FaultPlan::validate), must not leave
    // a dead entry keyed by the whole (up to MaxFrameBytes) body for
    // the life of the daemon.
    ReplicaConfig replica;
    SupervisionConfig sup;
    if (!decodeReplicaWire(config_text, replica, sup))
        throw std::runtime_error("undecodable replica config");
    // Evict before provisioning, so a thread never holds more than
    // ReplicaCacheEntries machines. The evicted replica's counters
    // were already folded into the server totals by accountWorker.
    if (cache.size() == ReplicaCacheEntries)
        cache.pop_back();
    // Journal/quarantine paths never travel the wire: the campaign
    // owner journals decoded payloads client-side.
    CachedWorker cw;
    cw.worker = std::make_unique<Worker>(replica, sup);
    cw.replica = replica;
    cw.snapshot = replica.snapshot;
    cache.emplace_front(config_text, std::move(cw));
    return cache.front().second;
}

void
OracleServer::Impl::accountWorker(CachedWorker &cw, uint64_t items)
{
    if (cw.snapshot)
        itemsRestored.fetch_add(items);
    const uint64_t prov = cw.worker->provisions();
    replicaProvisions.fetch_add(prov - cw.lastProvisions);
    // A provision builds a new machine, whose counters start from zero.
    if (prov != cw.lastProvisions)
        cw.lastSb = {};
    cw.lastProvisions = prov;
    const uint64_t rk = cw.worker->machine().rekeys();
    pacRekeys.fetch_add(rk - cw.lastRekeys);
    cw.lastRekeys = rk;
    std::lock_guard<std::mutex> lock(sbMu);
    cpu::SuperblockStats::forEachField(
        [](std::string_view, const char *, uint64_t &total, uint64_t now,
           uint64_t &last) {
            total += now - last;
            last = now;
        },
        sbTotal, cw.worker->machine().core().superblockStats(), cw.lastSb);
}

void
OracleServer::Impl::executeJob(ReplicaCache &cache, Job &job)
{
    const uint64_t id = job.msg.id;
    const std::string &verb = job.msg.verb;
    // The response, sent only once the request is accounted below: a
    // client holding its answer then finds it counted in METRICS.
    const char *reply_verb = "OK";
    std::string reply_args, reply_body;
    bool crash = false;
    try {
        if (verb == "SLEEP") {
            unsigned long ms = std::strtoul(job.msg.args.c_str(),
                                            nullptr, 10);
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        } else if (verb == "QUERY" || verb == "TRUTH") {
            std::istringstream in(job.msg.args);
            uint64_t candidate = 0, stream = 0;
            if (verb == "QUERY") {
                std::string cand_w, stream_w;
                unsigned long long c = 0, s = 0;
                if (!(in >> cand_w >> stream_w) ||
                    sscanf(cand_w.c_str(), "%llx", &c) != 1 ||
                    sscanf(stream_w.c_str(), "%llx", &s) != 1 ||
                    c > 0xFFFF) {
                    throw std::runtime_error(
                        "usage: QUERY <pac-hex> <stream-seed-hex>");
                }
                candidate = c;
                stream = s;
            } else if (!cfg.allowTruth) {
                throw std::runtime_error("TRUTH disabled");
            }
            CachedWorker &cw = getWorker(cache, job.msg.body);
            // Tenant isolation: restore the checkpoint (discarding
            // the previous request's state), then rotate to the
            // tenant's PAC keys.
            const WorkRequest req{stream, stream, job.tenantKey};
            if (verb == "QUERY") {
                double misses = 0;
                bool hot = false;
                const WorkOutcome oc = cw.worker->run(
                    req, [&](attack::PacOracle &oracle,
                             kernel::Machine &) {
                        misses = oracle.sampledMisses(
                            uint16_t(candidate),
                            cw.replica.samples ? cw.replica.samples
                                               : 1);
                        hot = misses >=
                              double(oracle.config().missThreshold);
                    });
                accountWorker(cw, 1);
                if (!oc.completed)
                    throw std::runtime_error("query quarantined: " +
                                             oc.detail);
                queriesServed.fetch_add(1);
                reply_args = strprintf("%d %.17g", int(hot), misses);
            } else {
                uint16_t truth = 0;
                const WorkOutcome oc = cw.worker->run(
                    req, [&](attack::PacOracle &,
                             kernel::Machine &machine) {
                        const auto sel =
                            cw.replica.oracle.kind ==
                                    attack::GadgetKind::Data
                                ? crypto::PacKeySelect::DA
                                : crypto::PacKeySelect::IA;
                        truth = machine.kernel().truePac(
                            cw.replica.target, cw.replica.modifier,
                            sel);
                    });
                accountWorker(cw, 1);
                if (!oc.completed)
                    throw std::runtime_error("truth quarantined: " +
                                             oc.detail);
                truthsServed.fetch_add(1);
                reply_args = strprintf("%04x", truth);
            }
        } else if (verb == "CHUNK") {
            std::optional<ChunkRequest> req =
                decodeChunkRequest(job.msg.body);
            if (!req)
                throw std::runtime_error("undecodable chunk request");
            std::string payload;
            uint64_t items = 1;
            CachedWorker &cw = getWorker(cache, req->configKey);
            if (req->kind == ChunkRequest::Kind::BruteForce) {
                const uint64_t n =
                    uint64_t(req->bf.last) - req->bf.first + 1;
                if (req->chunk.lastItem >= n)
                    throw std::runtime_error("chunk out of range");
                payload = executeBfChunk(*cw.worker, req->bf,
                                         req->chunk);
            } else {
                if (req->chunk.lastItem >= req->acc.trials)
                    throw std::runtime_error("chunk out of range");
                payload = executeAccuracyChunk(*cw.worker, req->acc,
                                               req->chunk);
                items = req->chunk.lastItem - req->chunk.firstItem + 1;
            }
            accountWorker(cw, items);
            const uint64_t served = chunksServed.fetch_add(1) + 1;
            reply_body = std::move(payload);
            crash = cfg.crashAfterChunks != 0 &&
                    served >= cfg.crashAfterChunks;
        } else {
            throw std::runtime_error("unqueueable verb");
        }
    } catch (const std::exception &e) {
        requestErrors.fetch_add(1);
        reply_verb = "ERR";
        reply_args = e.what();
        reply_body.clear();
    }
    const double us = std::chrono::duration<double, std::micro>(
                          Clock::now() - job.enqueued)
                          .count();
    {
        std::lock_guard<std::mutex> lock(tenantMu);
        const bool known = tenantLatency.size() < MaxTenants ||
                           tenantLatency.count(job.tenant) != 0;
        TenantLatency &t =
            tenantLatency[known ? job.tenant : OverflowTenant];
        if (t.recentUs.size() < TenantLatencyWindow)
            t.recentUs.push_back(us);
        else
            t.recentUs[t.requests % TenantLatencyWindow] = us;
        ++t.requests;
    }
    reply(job.conn, id, reply_verb, std::move(reply_args),
          std::move(reply_body));
    if (crash) {
        // Chaos harness: die right after the response frame, as a
        // SIGKILL'd server would — the client must resume from its
        // journal (bench/chaos_recovery).
        std::_Exit(137);
    }
}

void
OracleServer::Impl::serviceLoop()
{
    ReplicaCache cache;
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(qmu);
            qcv.wait(lock, [&] {
                return !queue.empty() || draining.load();
            });
            if (queue.empty())
                return; // draining and nothing left
            job = std::move(queue.front());
            queue.pop_front();
        }
        executeJob(cache, job);
    }
}

void
OracleServer::Impl::reapReaders()
{
    // Join finished readers and forget closed connections, so a
    // long-running daemon holds threads and bookkeeping for its live
    // clients only, not for every client it ever served.
    std::lock_guard<std::mutex> lock(connMu);
    for (auto it = readers.begin(); it != readers.end();) {
        if (it->done.load()) {
            it->thread.join();
            it = readers.erase(it);
        } else {
            ++it;
        }
    }
    std::erase_if(conns, [](const std::weak_ptr<Connection> &weak) {
        return weak.expired();
    });
}

void
OracleServer::Impl::acceptLoop()
{
    while (!draining.load()) {
        reapReaders();
        pollfd fds[2];
        nfds_t n = 0;
        if (unixFd >= 0)
            fds[n++] = {unixFd, POLLIN, 0};
        if (tcpFd >= 0)
            fds[n++] = {tcpFd, POLLIN, 0};
        const int rc = ::poll(fds, n, 100);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("pacman-oracled: poll failed: %s",
                 std::strerror(errno));
            break;
        }
        for (nfds_t i = 0; i < n; ++i) {
            if (!(fds[i].revents & POLLIN))
                continue;
            const int cfd = ::accept(fds[i].fd, nullptr, nullptr);
            if (cfd < 0)
                continue;
            connectionsAccepted.fetch_add(1);
            auto conn = std::make_shared<Connection>();
            conn->fd = cfd;
            std::lock_guard<std::mutex> lock(connMu);
            conns.push_back(conn);
            Reader &reader = readers.emplace_back();
            reader.thread = std::thread(
                [this, &reader, conn = std::move(conn)]() mutable {
                    readerLoop(std::move(conn));
                    reader.done.store(true);
                });
        }
    }
}

std::string
OracleServer::Impl::metricsJson() const
{
    std::string metrics;
    auto add = [&](const std::string &name, double value,
                   const char *better) {
        metrics += strprintf("%s\"%s\":{\"value\":%.17g,\"better\":"
                             "\"%s\"}",
                             metrics.empty() ? "" : ",", name.c_str(),
                             value, better);
    };
    {
        std::lock_guard<std::mutex> lock(qmu);
        add("queue_depth", double(queue.size()), "lower");
    }
    add("queue_peak", double(queuePeak.load()), "lower");
    add("busy_rejections", double(busyRejections.load()), "lower");
    add("connections_accepted", double(connectionsAccepted.load()),
        "higher");
    add("queries_served", double(queriesServed.load()), "higher");
    add("truths_served", double(truthsServed.load()), "higher");
    add("chunks_served", double(chunksServed.load()), "higher");
    add("request_errors", double(requestErrors.load()), "lower");
    add("checkpoint_restores", double(itemsRestored.load()), "higher");
    add("replica_provisions", double(replicaProvisions.load()),
        "lower");
    add("pac_rekeys", double(pacRekeys.load()), "higher");
    cpu::SuperblockStats sb;
    {
        std::lock_guard<std::mutex> lock(sbMu);
        sb = sbTotal;
    }
    cpu::SuperblockStats::forEachField(
        [&](std::string_view name, const char *better, uint64_t value) {
            if (better)
                add(std::string(name), double(value), better);
        },
        sb);
    const double sbBuilt = double(sb.blocksBuilt);
    const double sbHits = double(sb.blockHits);
    if (sbBuilt + sbHits > 0)
        add("superblock_hit_rate", sbHits / (sbBuilt + sbHits),
            "higher");
    const double dh = double(sb.decodeHits);
    const double dm = double(sb.decodeMisses);
    if (dh + dm > 0)
        add("decode_hit_rate", dh / (dh + dm), "higher");
    std::map<std::string, TenantLatency> tenants;
    {
        std::lock_guard<std::mutex> lock(tenantMu);
        tenants = tenantLatency;
    }
    for (const auto &[tenant, lat] : tenants) {
        const std::string t = sanitizeMetricName(tenant);
        add("tenant_" + t + "_requests", double(lat.requests), "higher");
        SampleStat recent;
        for (const double us : lat.recentUs)
            recent.add(us);
        add("tenant_" + t + "_latency_p50_us", recent.percentile(50),
            "lower");
        add("tenant_" + t + "_latency_p99_us", recent.percentile(99),
            "lower");
    }
    return strprintf(
        "{\"schema\":\"pacman-bench-v1\",\"context\":{\"bench\":"
        "\"pacman-oracled\",\"threads\":%u,\"max_queue\":%u},"
        "\"metrics\":{%s}}",
        cfg.threads, cfg.maxQueue, metrics.c_str());
}

OracleServer::OracleServer(const ServerConfig &cfg)
    : impl_(std::make_unique<Impl>())
{
    impl_->cfg = cfg;
}

OracleServer::~OracleServer()
{
    if (impl_->started.load() && !impl_->drained.load()) {
        requestDrain();
        waitDrained();
    }
}

void
OracleServer::start()
{
    Impl &im = *impl_;
    PACMAN_ASSERT(!im.started.load(), "server already started");
    PACMAN_ASSERT(!im.cfg.socketPath.empty(),
                  "server needs a socket path");
    PACMAN_ASSERT(im.cfg.threads >= 1 && im.cfg.maxQueue >= 1,
                  "server needs >= 1 thread and queue slot");

    // A dropped client must surface as a WireError (EPIPE), not a
    // process-killing SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);

    sockaddr_un addr{};
    if (im.cfg.socketPath.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("socket path too long: " +
                                 im.cfg.socketPath);
    im.unixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (im.unixFd < 0)
        throw std::runtime_error(strprintf("socket: %s",
                                           std::strerror(errno)));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, im.cfg.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(im.cfg.socketPath.c_str());
    if (::bind(im.unixFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(im.unixFd, 64) != 0) {
        throw std::runtime_error(strprintf("bind %s: %s",
                                           im.cfg.socketPath.c_str(),
                                           std::strerror(errno)));
    }

    if (im.cfg.tcpPort != 0) {
        im.tcpFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (im.tcpFd < 0)
            throw std::runtime_error(strprintf("tcp socket: %s",
                                               std::strerror(errno)));
        const int one = 1;
        ::setsockopt(im.tcpFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in tcp{};
        tcp.sin_family = AF_INET;
        tcp.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        tcp.sin_port =
            htons(im.cfg.tcpPort == 1 ? 0 : im.cfg.tcpPort);
        if (::bind(im.tcpFd, reinterpret_cast<sockaddr *>(&tcp),
                   sizeof(tcp)) != 0 ||
            ::listen(im.tcpFd, 64) != 0) {
            throw std::runtime_error(strprintf(
                "tcp bind 127.0.0.1:%u: %s", im.cfg.tcpPort,
                std::strerror(errno)));
        }
        socklen_t len = sizeof(tcp);
        ::getsockname(im.tcpFd, reinterpret_cast<sockaddr *>(&tcp),
                      &len);
        im.tcpPort = ntohs(tcp.sin_port);
    }

    im.started.store(true);
    for (unsigned t = 0; t < im.cfg.threads; ++t)
        im.service.emplace_back([&im] { im.serviceLoop(); });
    im.acceptor = std::thread([&im] { im.acceptLoop(); });
}

uint16_t
OracleServer::boundTcpPort() const
{
    return impl_->tcpPort;
}

void
OracleServer::requestDrain()
{
    impl_->draining.store(true);
    impl_->qcv.notify_all();
}

bool
OracleServer::draining() const
{
    return impl_->draining.load();
}

void
OracleServer::waitDrained()
{
    Impl &im = *impl_;
    PACMAN_ASSERT(im.started.load(), "server never started");
    requestDrain();
    if (im.acceptor.joinable())
        im.acceptor.join();
    for (std::thread &t : im.service) {
        if (t.joinable())
            t.join();
    }
    // All queued work is answered; unblock the readers (their peers
    // may keep the connection open indefinitely) and retire them.
    {
        std::lock_guard<std::mutex> lock(im.connMu);
        for (const std::weak_ptr<Connection> &weak : im.conns) {
            if (std::shared_ptr<Connection> conn = weak.lock())
                ::shutdown(conn->fd, SHUT_RDWR);
        }
    }
    for (Impl::Reader &reader : im.readers) {
        if (reader.thread.joinable())
            reader.thread.join();
    }
    if (im.unixFd >= 0) {
        ::close(im.unixFd);
        im.unixFd = -1;
        ::unlink(im.cfg.socketPath.c_str());
    }
    if (im.tcpFd >= 0) {
        ::close(im.tcpFd);
        im.tcpFd = -1;
    }
    im.drained.store(true);
}

std::string
OracleServer::metricsJson() const
{
    return impl_->metricsJson();
}

} // namespace pacman::runner
