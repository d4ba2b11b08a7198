/**
 * @file
 * Seed-deterministic fault-injecting TCP relay for the PAC1 wire
 * protocol — the network counterpart of base/faults.hh. A ChaosProxy
 * listens on an ephemeral loopback port and relays every accepted
 * connection to one upstream pacman-oracled endpoint:
 *
 *  - client→server bytes pass through untouched (requests must stay
 *    intact — a corrupted request would change what work the server
 *    performs, which is not the failure mode under test);
 *  - server→client traffic is re-framed (readFrame, encodeFrame),
 *    and each response frame rolls one fault decision.
 *
 * Injected faults: payload byte corruption under the original header
 * CRC (the client must detect the mismatch), frame truncation
 * followed by connection teardown (mid-frame EOF), whole-frame delay
 * past the client's read deadline (WireTimeout), immediate mid-chunk
 * disconnect (torn connection), and frame duplication (a stale id the
 * pipelining buffer must absorb). `blackhole` wedges the proxy
 * entirely: connections are accepted and requests forwarded upstream,
 * but no response byte is ever relayed — how the host-deadline path
 * is proven to detect a hung-but-accepting endpoint.
 *
 * Determinism: each fault decision is drawn from an RNG seeded by
 * Random::deriveSeed(seed, (connection ordinal << 20) | frame
 * ordinal), both counted per proxy. Thread scheduling cannot perturb
 * the schedule for a given connection's frame sequence, so a failing
 * chaos scenario replays under the same seed. Fault decisions are
 * appended to `logPath` (one line each) for post-mortem; CI uploads
 * these logs as artifacts.
 *
 * Campaign-level guarantee under all of this (bench/chaos_recovery):
 * chunks the proxy mangles are redispatched by the EndpointPool and
 * the merged fingerprint stays bit-identical to a clean local run.
 */

#ifndef PACMAN_RUNNER_CHAOS_PROXY_HH
#define PACMAN_RUNNER_CHAOS_PROXY_HH

#include <cstdint>
#include <memory>
#include <string>

namespace pacman::runner
{

/** Fault plan for one ChaosProxy. Rates are per response frame and
 *  evaluated in the order listed; at most one fault per frame. */
struct ChaosProxyConfig
{
    /** Upstream pacman-oracled endpoint (parseEndpoint() form). */
    std::string upstream;

    /** Base seed for the per-(connection, frame) fault streams. */
    uint64_t seed = 1;

    /** P(drop the connection instead of forwarding the frame). */
    double dropRate = 0;

    /** P(corrupt one payload byte, keep the original header CRC). */
    double corruptRate = 0;

    /** P(forward a truncated frame, then drop the connection). */
    double truncateRate = 0;

    /** P(hold the frame for delaySeconds before forwarding). */
    double delayRate = 0;
    double delaySeconds = 0;

    /** P(forward the frame twice). */
    double duplicateRate = 0;

    /** Accept and forward requests but never relay any response —
     *  a wedged endpoint the client can only escape by deadline. */
    bool blackhole = false;

    /** Append one line per fault decision here (empty = no log). */
    std::string logPath;
};

/**
 * The relay. Listening starts on construction; every accepted
 * connection gets its own upstream connection and relay threads.
 * Destruction closes the listener and tears down all relays.
 * Thread-safe counters, suitable for concurrent campaign traffic.
 */
class ChaosProxy
{
  public:
    explicit ChaosProxy(const ChaosProxyConfig &cfg);
    ~ChaosProxy();

    ChaosProxy(const ChaosProxy &) = delete;
    ChaosProxy &operator=(const ChaosProxy &) = delete;

    /** The client-facing endpoint, "tcp:127.0.0.1:<port>". */
    const std::string &endpoint() const;

    /** Cumulative counters (thread-safe). */
    struct Counters
    {
        uint64_t connections = 0;
        uint64_t framesForwarded = 0;
        uint64_t drops = 0;
        uint64_t corruptions = 0;
        uint64_t truncations = 0;
        uint64_t delays = 0;
        uint64_t duplicates = 0;

        uint64_t
        faults() const
        {
            return drops + corruptions + truncations + delays +
                   duplicates;
        }
    };
    Counters counters() const;

    const ChaosProxyConfig &config() const { return cfg_; }

  private:
    struct Impl;

    const ChaosProxyConfig cfg_;
    std::unique_ptr<Impl> impl_;
};

} // namespace pacman::runner

#endif // PACMAN_RUNNER_CHAOS_PROXY_HH
