#include "protocol.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "base/journal.hh"
#include "base/logging.hh"

namespace pacman::runner
{

namespace
{

constexpr char FrameMagic[4] = {'P', 'A', 'C', '1'};

void
putU32(char *p, uint32_t v)
{
    p[0] = char(v & 0xFF);
    p[1] = char((v >> 8) & 0xFF);
    p[2] = char((v >> 16) & 0xFF);
    p[3] = char((v >> 24) & 0xFF);
}

uint32_t
getU32(const char *p)
{
    return uint32_t(uint8_t(p[0])) | uint32_t(uint8_t(p[1])) << 8 |
           uint32_t(uint8_t(p[2])) << 16 | uint32_t(uint8_t(p[3])) << 24;
}

} // anonymous namespace

void
writeBytes(int fd, const char *data, size_t len)
{
    // Sockets get MSG_NOSIGNAL so a torn peer raises EPIPE instead of
    // SIGPIPE — a library call must not depend on (or mutate) the
    // process's global signal disposition. Pipes reject the flag with
    // ENOTSOCK, so fall back to plain write(2) for them.
    bool is_socket = true;
    size_t off = 0;
    while (off < len) {
        const ssize_t n =
            is_socket ? ::send(fd, data + off, len - off, MSG_NOSIGNAL)
                      : ::write(fd, data + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (is_socket && errno == ENOTSOCK) {
                is_socket = false;
                continue;
            }
            throw WireError(strprintf("wire write failed: %s",
                                      std::strerror(errno)));
        }
        off += size_t(n);
    }
}

bool
readBytes(int fd, char *data, size_t len, double deadline_seconds)
{
    using Clock = std::chrono::steady_clock;
    const bool timed = deadline_seconds > 0;
    const Clock::time_point deadline =
        timed ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       deadline_seconds))
              : Clock::time_point{};
    size_t off = 0;
    while (off < len) {
        if (timed) {
            const auto remaining = deadline - Clock::now();
            const auto remaining_ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    remaining)
                    .count();
            pollfd pfd{fd, POLLIN, 0};
            const int rc =
                ::poll(&pfd, 1,
                       int(remaining_ms < 0
                               ? 0
                               : std::min<long long>(remaining_ms,
                                                     INT32_MAX)));
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                throw WireError(strprintf("wire poll failed: %s",
                                          std::strerror(errno)));
            }
            if (rc == 0) {
                throw WireTimeout(strprintf(
                    "wire read timed out after %.3fs (%zu/%zu bytes)",
                    deadline_seconds, off, len));
            }
        }
        const ssize_t n = ::read(fd, data + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw WireError(strprintf("wire read failed: %s",
                                      std::strerror(errno)));
        }
        if (n == 0) {
            if (off == 0)
                return false;
            throw WireError("wire read: EOF mid-frame");
        }
        off += size_t(n);
    }
    return true;
}

std::string
encodeFrame(std::string_view payload)
{
    if (payload.size() > MaxFrameBytes)
        throw WireError(strprintf("frame payload too large (%zu bytes)",
                                  payload.size()));
    std::string frame(FrameHeaderBytes, '\0');
    std::memcpy(frame.data(), FrameMagic, 4);
    putU32(frame.data() + 4, uint32_t(payload.size()));
    putU32(frame.data() + 8, Journal::crc32(payload));
    return frame.append(payload);
}

void
writeFrame(int fd, std::string_view payload)
{
    // Header and payload in one buffered write: one frame, one
    // write(2) where it fits, so concurrent writers interleave at
    // frame granularity under the caller's per-connection lock.
    const std::string frame = encodeFrame(payload);
    writeBytes(fd, frame.data(), frame.size());
}

void
FrameSplitter::append(const char *data, size_t len)
{
    // Drop the frames next() took once per append, not once per frame,
    // so a read that brings many small frames costs linear time.
    buf_.erase(0, start_);
    start_ = 0;
    buf_.append(data, len);
}

std::optional<std::string>
FrameSplitter::next()
{
    const size_t have = buf_.size() - start_;
    if (frameBytes_ == 0) {
        if (have < FrameHeaderBytes)
            return std::nullopt;
        const char *header = buf_.data() + start_;
        if (std::memcmp(header, FrameMagic, 4) != 0)
            throw WireError("wire frame: bad magic");
        const uint32_t len = getU32(header + 4);
        if (len > MaxFrameBytes)
            throw WireError(
                strprintf("wire frame: oversize payload (%u bytes)", len));
        frameBytes_ = FrameHeaderBytes + len;
    }
    if (have < frameBytes_)
        return std::nullopt;
    std::string payload =
        buf_.substr(start_ + FrameHeaderBytes, frameBytes_ - FrameHeaderBytes);
    if (Journal::crc32(payload) != getU32(buf_.data() + start_ + 8))
        throw WireError("wire frame: CRC mismatch");
    start_ += frameBytes_;
    frameBytes_ = 0;
    if (!midFrame()) { // an idle stream keeps no buffer
        std::string().swap(buf_);
        start_ = 0;
    }
    return payload;
}

std::optional<std::string>
readFrame(int fd, double deadline_seconds)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    FrameSplitter frames;
    std::string piece;
    for (;;) {
        if (std::optional<std::string> payload = frames.next())
            return payload;
        // No byte past this frame, and at most 64 KiB at a time: a
        // header's length is only a claim, so a stalled peer pins one
        // piece. Each read gets what is left of the frame's deadline (a
        // tiny floor keeps an expired one from reading forever).
        piece.resize(std::min<size_t>(frames.missing(), 64 * 1024));
        const double left =
            deadline_seconds -
            std::chrono::duration<double>(Clock::now() - start).count();
        if (!readBytes(fd, piece.data(), piece.size(),
                       deadline_seconds > 0 ? std::max(left, 1e-3) : 0)) {
            if (!frames.midFrame())
                return std::nullopt;
            throw WireError("wire read: EOF mid-frame");
        }
        frames.append(piece.data(), piece.size());
    }
}

std::string
packMessage(const WireMessage &m)
{
    std::string head = strprintf("%llu %s", (unsigned long long)m.id,
                                 m.verb.c_str());
    if (!m.args.empty()) {
        head += ' ';
        head += m.args;
    }
    head += '\n';
    return head + m.body;
}

std::optional<WireMessage>
unpackMessage(const std::string &payload)
{
    const size_t eol = payload.find('\n');
    const std::string head =
        eol == std::string::npos ? payload : payload.substr(0, eol);
    std::istringstream in(head);
    WireMessage m;
    unsigned long long id = 0;
    if (!(in >> id >> m.verb))
        return std::nullopt;
    m.id = id;
    std::getline(in, m.args);
    if (!m.args.empty() && m.args.front() == ' ')
        m.args.erase(0, 1);
    if (eol != std::string::npos)
        m.body = payload.substr(eol + 1);
    return m;
}

// --- Configuration codec -------------------------------------------

std::string
encodeReplicaWire(const ReplicaConfig &cfg, const SupervisionConfig &sup)
{
    LineWriter v("V"), m("M"), c("C"), o("O"), r("R"), f("F"), b("B");
    v << WireVersion;
    kernel::MachineConfig::forEachWireField(m, cfg.machine);
    cpu::CoreConfig::forEachWireField(c, cfg.machine.core);
    attack::OracleConfig::forEachField(o, cfg.oracle);
    ReplicaConfig::forEachWireField(r, cfg);
    FaultPlan::forEachField(f, cfg.faults);
    SupervisionConfig::forEachWireField(b, sup);
    return v.str() + m.str() + c.str() + o.str() + r.str() + f.str() +
           b.str();
}

bool
decodeReplicaWire(const std::string &text, ReplicaConfig &cfg,
                  SupervisionConfig &sup)
{
    cfg = ReplicaConfig{};
    // Geometry is deployment configuration, not wire payload: the
    // server simulates the default M1 hierarchy regardless of what
    // machine the client was built for.
    cfg.machine = kernel::defaultMachineConfig();
    sup = SupervisionConfig{};
    std::string seen;
    for (LineReader in(text); in.next();) {
        const std::string_view tag = in.tag();
        if (tag == "V") {
            std::string_view version;
            if (!(in >> version) || version != WireVersion)
                return false;
        } else if (tag == "M") {
            kernel::MachineConfig::forEachWireField(in, cfg.machine);
        } else if (tag == "C") {
            cpu::CoreConfig::forEachWireField(in, cfg.machine.core);
        } else if (tag == "O") {
            attack::OracleConfig::forEachField(in, cfg.oracle);
        } else if (tag == "R") {
            ReplicaConfig::forEachWireField(in, cfg);
        } else if (tag == "F") {
            FaultPlan::forEachField(in, cfg.faults);
        } else if (tag == "B") {
            SupervisionConfig::forEachWireField(in, sup);
        } else {
            // Unknown tags are skipped: a v2 decoder tolerates v2.x
            // additions as long as the version line matches.
            continue;
        }
        if (!in)
            return false;
        seen += tag;
    }
    for (const char tag : std::string_view("VMCORFB"))
        if (seen.find(tag) == std::string::npos)
            return false;
    return true;
}

namespace
{

std::string
encodeChunkLine(const Chunk &chunk)
{
    return (LineWriter("K") << chunk.index << chunk.firstItem
                            << chunk.lastItem)
        .str();
}

} // anonymous namespace

std::string
encodeBfChunkRequest(const BruteForceCampaignConfig &cfg,
                     const Chunk &chunk)
{
    return encodeReplicaWire(cfg.replica, cfg.supervision) +
           (LineWriter("G") << "bf" << Hex{cfg.seed} << cfg.first
                            << cfg.last)
               .str() +
           encodeChunkLine(chunk);
}

std::string
encodeAccuracyChunkRequest(const AccuracyCampaignConfig &cfg,
                           const Chunk &chunk)
{
    return encodeReplicaWire(cfg.replica, cfg.supervision) +
           (LineWriter("G") << "acc" << Hex{cfg.seed} << cfg.trials
                            << cfg.window)
               .str() +
           encodeChunkLine(chunk);
}

std::optional<ChunkRequest>
decodeChunkRequest(const std::string &body)
{
    // The G and K lines name the campaign and the chunk (the last of
    // each counts); the replica decoder skips them, and the config's
    // canonical text is the replica-cache key.
    ChunkRequest req;
    bool campaign = false, chunk = false;
    for (LineReader in(body); in.next();) {
        std::string_view kind;
        if (in.tag() == "G" && in >> kind && kind == "bf") {
            req.kind = ChunkRequest::Kind::BruteForce;
            in >> Hex{req.bf.seed} >> req.bf.first >> req.bf.last;
            campaign = in && req.bf.first <= req.bf.last;
        } else if (in.tag() == "G") {
            req.kind = ChunkRequest::Kind::Accuracy;
            in >> Hex{req.acc.seed} >> req.acc.trials >> req.acc.window;
            campaign = in && kind == "acc";
        } else if (in.tag() == "K") {
            in >> req.chunk.index >> req.chunk.firstItem >> req.chunk.lastItem;
            chunk = in && req.chunk.firstItem <= req.chunk.lastItem;
        }
    }
    if (!campaign || !chunk ||
        !decodeReplicaWire(body, req.bf.replica, req.bf.supervision))
        return std::nullopt;
    req.acc.replica = req.bf.replica;
    req.acc.supervision = req.bf.supervision;
    req.configKey = encodeReplicaWire(req.bf.replica, req.bf.supervision);
    return req;
}

} // namespace pacman::runner
