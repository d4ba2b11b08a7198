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
 * Records travel as tagged lines: a tag and space-separated tokens,
 * written and read only by LineWriter and LineReader below, which
 * visit each record's field list (base/fields.hh, DESIGN.md §4l).
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

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "base/fields.hh"
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

// --- Tagged lines --------------------------------------------------

/** Builds one line: the tag, then each token written. */
class LineWriter
{
  public:
    explicit LineWriter(std::string_view tag) : line_(tag) {}

    /**
     * Appends @p v as one token: a word as it is; unsigned integers,
     * bools (0/1) and enums in decimal; Hex fields (seeds, addresses)
     * and doubles (their 64-bit pattern, so a decode is bit-exact) as
     * 16 hex digits.
     */
    template <typename T>
    LineWriter &
    operator<<(const T &v)
    {
        line_ += ' ';
        if constexpr (std::is_convertible_v<T, std::string_view>) {
            line_ += std::string_view(v);
        } else if constexpr (std::is_same_v<T, double>) {
            hex16(std::bit_cast<uint64_t>(v));
        } else if constexpr (requires { v.value; }) {
            hex16(v.value);
        } else {
            static_assert(std::is_unsigned_v<T> || std::is_enum_v<T>);
            char buf[20];
            line_.append(buf, std::to_chars(buf, buf + 20, uint64_t(v)).ptr);
        }
        return *this;
    }

    /** Field-list visitor: writes the field. */
    template <typename T>
    void
    operator()(std::string_view, const T &v)
    {
        *this << v;
    }

    /** The line, newline-terminated. */
    std::string str() const { return line_ + '\n'; }

  private:
    void
    hex16(uint64_t v)
    {
        for (int shift = 60; shift >= 0; shift -= 4)
            line_ += "0123456789abcdef"[(v >> shift) & 0xf];
    }

    std::string line_;
};

/**
 * Walks a text's tagged lines, skipping blank ones, and reads each
 * line's tokens in LineWriter's formats. A token that is missing,
 * malformed (a sign, a stray character) or out of its type's range (an
 * enum past lastOf(E)) fails the read: the reader turns false and
 * reads nothing more from that line.
 */
class LineReader
{
  public:
    explicit LineReader(std::string_view text) : text_(text) {}

    /** Moves to the next line that has a tag; false at the end. */
    bool
    next()
    {
        while (!text_.empty()) {
            const size_t eol = std::min(text_.find('\n'), text_.size());
            line_ = text_.substr(0, eol);
            text_.remove_prefix(std::min(eol + 1, text_.size()));
            ok_ = true;
            if (!(tag_ = word()).empty())
                return true;
        }
        return false;
    }

    std::string_view tag() const { return tag_; }

    /** The rest of the line after its tag and one space, verbatim. */
    std::string_view
    rest() const
    {
        return line_.starts_with(' ') ? line_.substr(1) : line_;
    }

    /** False once a read on the current line failed. */
    explicit operator bool() const { return ok_; }

    template <typename T>
    LineReader &
    operator>>(T &&v)
    {
        using V = std::remove_cvref_t<T>;
        uint64_t raw = 0;
        if constexpr (std::is_same_v<V, std::string_view>) {
            ok_ = ok_ && !(v = word()).empty();
        } else if constexpr (std::is_same_v<V, double>) {
            if (number(raw, 16))
                v = std::bit_cast<double>(raw);
        } else if constexpr (requires { v.value; }) {
            if (number(raw, 16))
                v.value = raw;
        } else if constexpr (std::is_enum_v<V>) {
            if (number(raw, 10, uint64_t(lastOf(V{}))))
                v = V(raw);
        } else if (number(raw, 10, std::numeric_limits<V>::max())) {
            v = V(raw);
        }
        return *this;
    }

    /** Field-list visitor: reads the field. */
    template <typename T>
    void
    operator()(std::string_view, T &&v)
    {
        *this >> v;
    }

    /** The next token as one whole unsigned number in @p base, no
     *  larger than @p max. */
    bool
    number(uint64_t &v, int base, uint64_t max = ~0ull)
    {
        if (!ok_)
            return false;
        const std::string_view w = word();
        const char *end = w.data() + w.size();
        const auto [ptr, ec] = std::from_chars(w.data(), end, v, base);
        return ok_ = !w.empty() && ec == std::errc() && ptr == end &&
                     v <= max;
    }

  private:
    /** The current line's next token; empty if none is left. */
    std::string_view
    word()
    {
        constexpr std::string_view Separators = " \t\r\v\f";
        const size_t begin = std::min(line_.find_first_not_of(Separators),
                                      line_.size());
        const size_t end =
            std::min(line_.find_first_of(Separators, begin), line_.size());
        const std::string_view w = line_.substr(begin, end - begin);
        line_.remove_prefix(end);
        return w;
    }

    std::string_view text_; //!< lines not reached yet
    std::string_view line_; //!< the current line's unread part
    std::string_view tag_;
    bool ok_ = true;
};

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
