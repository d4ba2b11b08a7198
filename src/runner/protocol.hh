/**
 * @file
 * Wire protocol for the PAC-oracle server (pacman-oracled;
 * DESIGN.md §4h).
 *
 * Transport framing: each message travels as one length-prefixed
 * frame — a 12-byte header (magic "PAC1", little-endian uint32
 * payload length, little-endian uint32 CRC32 of the payload, the
 * same CRC the journal uses) followed by the payload bytes. The CRC
 * rejects stream desynchronisation and torn writes the same way the
 * journal's frame CRC rejects a torn tail.
 *
 * Message payloads are text: a head line `<id> <verb>[ <args>]`
 * followed by an optional body. The id is chosen by the requester
 * and echoed verbatim in the response, which lets a client pipeline
 * requests and match responses out of order. Response verbs are OK
 * (result in args/body), BUSY (admission control rejected the
 * request; retry later), and ERR (args carries the reason).
 *
 * Configuration codec: a replica travels as the line-oriented
 * `pacman-oracle-wire-v2` text — campaign-variable machine fields
 * (seed, timer, ambient noise), the mitigation/speculation switches,
 * the full oracle tuning, target binding, the full fault plan, and
 * the supervision budgets. Cache/TLB geometry is deliberately NOT on
 * the wire: geometry is deployment configuration (the server's
 * replicas are provisioned for one simulated microarchitecture),
 * while everything a campaign varies is per-request. Doubles travel
 * as 64-bit hex patterns, so a decoded config provisions a replica
 * bit-identical to the client's local one — the foundation of the
 * remote == in-process fingerprint guarantee.
 */

#ifndef PACMAN_RUNNER_PROTOCOL_HH
#define PACMAN_RUNNER_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "runner/campaign.hh"

namespace pacman::runner
{

/** Transport or framing failure (broken pipe, bad magic/CRC). */
struct WireError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * A read deadline expired before a whole frame arrived. The stream
 * may now be mid-frame (desynchronised), so the only safe recovery
 * is to close the connection and reconnect — OracleClient does this
 * automatically before letting the error propagate.
 */
struct WireTimeout : WireError
{
    using WireError::WireError;
};

/** Frame payloads above this are rejected as desynchronisation. */
constexpr uint32_t MaxFrameBytes = 64u << 20;

/** Transport frame header size: magic + length + CRC32. */
constexpr size_t FrameHeaderBytes = 12;

/** Version line every config payload must lead with. */
constexpr const char *WireVersion = "pacman-oracle-wire-v2";

/**
 * Write @p len raw bytes (EINTR-retried, whole buffer). Sockets are
 * written with send(MSG_NOSIGNAL) so a torn peer surfaces as a
 * WireError (EPIPE) without the caller having to ignore SIGPIPE
 * process-wide; non-socket fds (pipes in tests) fall back to
 * write(2), where the caller owns the SIGPIPE disposition.
 */
void writeBytes(int fd, const char *data, size_t len);

/** Read exactly @p len raw bytes. Returns false on EOF before the
 *  first byte; throws WireError on EOF mid-read or I/O failure.
 *  @p deadline_seconds > 0 bounds the whole read (poll-based) and
 *  throws WireTimeout on expiry; <= 0 blocks indefinitely. */
bool readBytes(int fd, char *data, size_t len,
               double deadline_seconds = 0);

/** The bytes writeFrame sends for @p payload: header, then payload.
 *  Throws WireError on an oversize payload. */
std::string encodeFrame(std::string_view payload);

/** Cuts a byte stream into frames: the one place a frame's magic,
 *  length bound and CRC are checked. readFrame reads through one;
 *  pacman-oracled keeps one per connection. */
class FrameSplitter
{
  public:
    /** Buffer the next @p len bytes of the stream. */
    void append(const char *data, size_t len);

    /** The next whole frame's payload, or nullopt until one is
     *  buffered. Throws WireError on bad magic or an oversize length
     *  as soon as the header is in, and on a CRC mismatch. */
    std::optional<std::string> next();

    /** Bytes the next frame lacks, once next() returned nullopt. */
    size_t missing() const
    {
        return (frameBytes_ ? frameBytes_ : FrameHeaderBytes) -
               (buf_.size() - start_);
    }

    /** True while part of a frame is buffered. */
    bool midFrame() const { return start_ < buf_.size(); }

  private:
    std::string buf_;
    size_t start_ = 0;      //!< where the next frame begins in buf_
    size_t frameBytes_ = 0; //!< its size, once next() checked its header
};

/**
 * Write one frame to @p fd (blocking, EINTR-retried, whole frame).
 * Throws WireError on I/O failure or oversize payload.
 */
void writeFrame(int fd, std::string_view payload);

/**
 * Read one frame from @p fd through a FrameSplitter. Returns nullopt
 * on a clean EOF at a frame boundary (peer closed); throws WireError
 * on mid-frame EOF and on whatever FrameSplitter::next() rejects.
 * With @p deadline_seconds > 0 the whole frame must arrive within the
 * deadline or WireTimeout is thrown (see WireTimeout on recovery).
 */
std::optional<std::string> readFrame(int fd,
                                     double deadline_seconds = 0);

/** One request or response (the text inside a frame). */
struct WireMessage
{
    uint64_t id = 0;
    std::string verb;
    std::string args; //!< rest of the head line (may be empty)
    std::string body; //!< everything after the head line
};

std::string packMessage(const WireMessage &m);

/** Parse a frame payload; nullopt on a malformed head line. */
std::optional<WireMessage> unpackMessage(const std::string &payload);

// --- Configuration codec -------------------------------------------

/**
 * Serialize the campaign-variable replica + supervision state. The
 * rendering is canonical (field-for-field, no float formatting), so
 * the text doubles as the server's replica-cache key: equal text ==
 * provisions an identical replica.
 */
std::string encodeReplicaWire(const ReplicaConfig &cfg,
                              const SupervisionConfig &sup);

/**
 * Parse encodeReplicaWire() output into @p cfg / @p sup, which start
 * from defaults (geometry stays the server's deployment default).
 * False on malformed or version-mismatched text.
 */
bool decodeReplicaWire(const std::string &text, ReplicaConfig &cfg,
                       SupervisionConfig &sup);

/** A decoded CHUNK request: which campaign, and which chunk of it. */
struct ChunkRequest
{
    enum class Kind
    {
        BruteForce,
        Accuracy,
    };

    Kind kind = Kind::BruteForce;
    BruteForceCampaignConfig bf;
    AccuracyCampaignConfig acc;
    Chunk chunk;

    /** The replica-wire text (server replica-cache key). */
    std::string configKey;
};

/** CHUNK request body for one brute-force campaign chunk. */
std::string encodeBfChunkRequest(const BruteForceCampaignConfig &cfg,
                                 const Chunk &chunk);

/** CHUNK request body for one accuracy campaign chunk. */
std::string
encodeAccuracyChunkRequest(const AccuracyCampaignConfig &cfg,
                           const Chunk &chunk);

/** Parse either CHUNK request body; nullopt when malformed. */
std::optional<ChunkRequest>
decodeChunkRequest(const std::string &body);

} // namespace pacman::runner

#endif // PACMAN_RUNNER_PROTOCOL_HH
