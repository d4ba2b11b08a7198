/**
 * @file
 * pacman-oracled: the persistent PAC-oracle server (DESIGN.md §4h).
 *
 * The server owns a pool of provisioned, checkpointed replicas —
 * one supervised runner::Worker cache per service thread — and
 * serves oracle work over the length-prefixed wire protocol
 * (protocol.hh) on a Unix socket and, optionally, a loopback TCP
 * port. Request verbs:
 *
 *   HELLO <name> <secret-hex>  bind the connection to a tenant
 *                              (name at most MaxTenantNameBytes)
 *   QUERY <pac-hex> <stream>   one PAC-oracle query (body: replica
 *                              wire config); OK <verdict> <misses>
 *   TRUTH                      ground-truth PAC for the configured
 *                              target (grading; requires allowTruth)
 *   CHUNK                      one whole campaign chunk (body:
 *                              protocol.hh chunk request); OK body
 *                              is the chunk_codec payload
 *   METRICS                    pacman-bench-v1 metrics JSON
 *   PING / SLEEP <ms> / DRAIN  liveness, test load (at most
 *                              MaxSleepMs), graceful stop
 *
 * Numbers are read strictly (parseWhole): hex without sign or prefix,
 * 1-16 digits for a secret or stream seed, 1-4 for a PAC; anything
 * else is answered ERR.
 *
 * Tenancy: a HELLO'd connection derives a per-tenant PAC key seed
 * (deriveSeed(secret, crc32(name))) that is applied to every QUERY
 * and TRUTH via WorkRequest::rekeySeed — two tenants sharing one
 * cached replica operate under different PAC keys, and the
 * per-request checkpoint restore discards whatever state the
 * previous request left behind. CHUNK requests carry campaign
 * semantics (the campaign seed dictates keys) and are tenant-scoped
 * only for accounting.
 *
 * Threads: one I/O thread serves every socket and queues the compute
 * verbs, so the daemon runs main + I/O + service threads in all.
 *
 * Admission control: compute requests enter a bounded queue; a full
 * queue answers BUSY immediately (the client retries with backoff —
 * backpressure, not buffering). METRICS/PING/HELLO bypass the queue
 * so observability survives overload. DRAIN (or SIGTERM in
 * oracled_main) stops accepting connections, completes queued work,
 * and lets waitDrained() return — in-flight campaign chunks are
 * never dropped.
 */

#ifndef PACMAN_RUNNER_SERVER_HH
#define PACMAN_RUNNER_SERVER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace pacman::runner
{

/** Provisioned replicas one service thread keeps, least recently
 *  used evicted first. Each is a whole simulated machine (~25 MB), so
 *  the bound keeps the daemon's memory flat however many distinct
 *  configs its clients send; an evicted config re-provisions on its
 *  next request and answers as before (DESIGN.md §4h). */
constexpr size_t ReplicaCacheEntries = 4;

/** Longest tenant name HELLO accepts; a longer one is answered ERR. */
constexpr size_t MaxTenantNameBytes = 64;

/** Longest SLEEP a request may ask for, in ms; a longer one is
 *  answered ERR, so no client can park a service thread for long. */
constexpr uint64_t MaxSleepMs = 10'000;

/** Distinct tenants METRICS keeps a latency window for. Requests from
 *  tenants first seen after the table is full are counted under one
 *  shared overflow entry, so the daemon's memory and the cost of
 *  METRICS stay flat however many names its clients invent. */
constexpr size_t MaxTenants = 64;

/** Seconds the rest of a request frame may take once its first byte
 *  has arrived. A connection that stalls mid-frame is dropped, so it
 *  cannot pin a partial frame for as long as its client keeps it
 *  open. A connection idle between frames stays open: EndpointPool
 *  keeps pooled connections idle between chunks. */
constexpr double PartialFrameSeconds = 2.0;

/** Seconds a reply may wait for its client to read. A client that
 *  stops reading loses its connection, not everyone else's. */
constexpr double ReplySeconds = 2.0;

/** Deployment knobs for one pacman-oracled instance. */
struct ServerConfig
{
    /** Unix-domain listening socket path (required). */
    std::string socketPath;

    /** Optional loopback TCP listener; 0 disables, other values
     *  bind 127.0.0.1:<port> (1 = ephemeral, see boundTcpPort()). */
    uint16_t tcpPort = 0;

    /** Service threads == concurrently executing replicas. Each
     *  thread caches a provisioned Worker for each of its
     *  ReplicaCacheEntries most recently used replica configs, so
     *  steady-state campaign chunks pay only a checkpoint restore. */
    unsigned threads = 2;

    /** Bounded compute queue; admission control answers BUSY beyond
     *  this depth. */
    unsigned maxQueue = 64;

    /** Enable the TRUTH verb (tests and accuracy grading only — a
     *  deployment serving untrusted tenants keeps this off). */
    bool allowTruth = false;

    /** Chaos hook: _Exit(137) right after the n-th CHUNK response
     *  is written. 0 disables. bench/chaos_recovery uses this to
     *  prove client-side resume across a server kill. */
    uint64_t crashAfterChunks = 0;
};

/** Most service threads pacman-oracled's --threads accepts. */
constexpr unsigned MaxServiceThreads = 256;

/** pacman-oracled's command line. */
struct OracledArgs
{
    ServerConfig cfg;
    std::string metricsOut; //!< --metrics-out; empty for none
    bool help = false;      //!< --help: print usage, serve nothing
};

/** Parse pacman-oracled's flags, argv[1] on. Each number is one whole
 *  decimal number in its flag's range (--threads 1 to
 *  MaxServiceThreads, --max-queue at least 1); anything else, an
 *  unknown flag or a missing --socket throws std::invalid_argument. */
OracledArgs parseOracledArgs(int argc, const char *const *argv);

/** The server runtime (one I/O thread + service threads). */
class OracleServer
{
  public:
    explicit OracleServer(const ServerConfig &cfg);
    ~OracleServer();

    OracleServer(const OracleServer &) = delete;
    OracleServer &operator=(const OracleServer &) = delete;

    /** Bind listeners and spawn the thread pool. Throws
     *  std::runtime_error when a bind fails. */
    void start();

    /** Actual TCP port (after an ephemeral bind); 0 when disabled. */
    uint16_t boundTcpPort() const;

    /** Begin graceful drain: stop accepting, finish queued work. */
    void requestDrain();

    /** True once requestDrain() (or a DRAIN request) fired. */
    bool draining() const;

    /** Block until drained: all queued work done, threads joined,
     *  sockets closed and the socket path unlinked. */
    void waitDrained();

    /** The live pacman-bench-v1 metrics document (also served by the
     *  METRICS verb). */
    std::string metricsJson() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace pacman::runner

#endif // PACMAN_RUNNER_SERVER_HH
