#include "protocol.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
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
constexpr size_t HeaderBytes = FrameHeaderBytes;

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

std::string
hexBits(double v)
{
    return strprintf("%016llx",
                     (unsigned long long)std::bit_cast<uint64_t>(v));
}

bool
parseBits(std::istringstream &in, double &v)
{
    std::string word;
    if (!(in >> word))
        return false;
    unsigned long long bits = 0;
    if (sscanf(word.c_str(), "%llx", &bits) != 1)
        return false;
    v = std::bit_cast<double>(uint64_t(bits));
    return true;
}

bool
parseHex64(std::istringstream &in, uint64_t &v)
{
    std::string word;
    if (!(in >> word))
        return false;
    unsigned long long bits = 0;
    if (sscanf(word.c_str(), "%llx", &bits) != 1)
        return false;
    v = bits;
    return true;
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

uint32_t
parseFrameHeader(const char header[FrameHeaderBytes])
{
    if (std::memcmp(header, FrameMagic, 4) != 0)
        throw WireError("wire frame: bad magic");
    const uint32_t len = getU32(header + 4);
    if (len > MaxFrameBytes)
        throw WireError(
            strprintf("wire frame: oversize payload (%u bytes)", len));
    return len;
}

void
writeFrame(int fd, std::string_view payload)
{
    if (payload.size() > MaxFrameBytes)
        throw WireError(strprintf("frame payload too large (%zu bytes)",
                                  payload.size()));
    char header[HeaderBytes];
    std::memcpy(header, FrameMagic, 4);
    putU32(header + 4, uint32_t(payload.size()));
    putU32(header + 8, Journal::crc32(payload));
    // Header and payload in one buffered write: one frame, one
    // write(2) where it fits, so concurrent writers interleave at
    // frame granularity under the caller's per-connection lock.
    std::string frame;
    frame.reserve(HeaderBytes + payload.size());
    frame.append(header, HeaderBytes);
    frame.append(payload);
    writeBytes(fd, frame.data(), frame.size());
}

std::optional<std::string>
readFrame(int fd, double deadline_seconds)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    char header[HeaderBytes];
    if (!readBytes(fd, header, HeaderBytes, deadline_seconds))
        return std::nullopt;
    const uint32_t len = parseFrameHeader(header);
    const uint32_t crc = getU32(header + 8);
    // The payload shares the frame's deadline: whatever of it the
    // header read left over (never negative — a tiny positive floor
    // keeps an exactly-expired deadline from reading forever).
    double remaining = 0;
    if (deadline_seconds > 0) {
        remaining = deadline_seconds -
                    std::chrono::duration<double>(Clock::now() - start)
                        .count();
        remaining = std::max(remaining, 1e-3);
    }
    std::string payload(len, '\0');
    if (len != 0 && !readBytes(fd, payload.data(), len, remaining))
        throw WireError("wire frame: EOF mid-payload");
    if (Journal::crc32(payload) != crc)
        throw WireError("wire frame: CRC mismatch");
    return payload;
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
    const kernel::MachineConfig &m = cfg.machine;
    const cpu::CoreConfig &c = m.core;
    const attack::OracleConfig &o = cfg.oracle;
    const FaultPlan &f = cfg.faults;
    std::string out = strprintf("V %s\n", WireVersion);
    out += strprintf("M %016llx %llu %llu %s %u\n",
                     (unsigned long long)m.seed,
                     (unsigned long long)m.timerRatePer1k,
                     (unsigned long long)m.timerJitter,
                     hexBits(m.noiseProbability).c_str(), m.noisePages);
    out += strprintf("C %d %d %d %d %d\n", int(c.speculativeMemIssue),
                     int(c.eagerNestedSquash), int(c.autFence),
                     int(c.pacTaint), int(c.fpac));
    out += strprintf("O %u %u %u %llu %u %d %u %u %u %d\n",
                     unsigned(o.kind), unsigned(o.channel), o.trainIters,
                     (unsigned long long)o.latencyThreshold,
                     o.missThreshold, int(o.autoCalibrate),
                     o.calibrationSamples, o.queryRetries, o.busyRetries,
                     int(o.skipReset));
    out += strprintf("R %016llx %016llx %u %u %u %d\n",
                     (unsigned long long)cfg.target,
                     (unsigned long long)cfg.modifier, cfg.samples,
                     cfg.maxSamples, cfg.candidateRetries,
                     int(cfg.snapshot));
    out += strprintf(
        "F %s %s %u %u %s %llu %llu %u %s %llu %llu %llu %llu %llu "
        "%llu %s %u %u %s %s %s %llu\n",
        hexBits(f.contextSwitchRate).c_str(),
        hexBits(f.fullFlushFraction).c_str(), f.flushSets,
        f.pollutePages, hexBits(f.preemptRate).c_str(),
        (unsigned long long)f.preemptMinCycles,
        (unsigned long long)f.preemptMaxCycles, f.preemptPollutePages,
        hexBits(f.timerRate).c_str(),
        (unsigned long long)f.stallMinCycles,
        (unsigned long long)f.stallMaxCycles,
        (unsigned long long)f.skewPermilleMin,
        (unsigned long long)f.skewPermilleMax,
        (unsigned long long)f.jitterBoost,
        (unsigned long long)f.jitterBurstCycles,
        hexBits(f.syscallBusyRate).c_str(), f.busyMinCount,
        f.busyMaxCount, hexBits(f.migrationRate).c_str(),
        hexBits(f.migrationReturnRate).c_str(),
        hexBits(f.hangRate).c_str(), (unsigned long long)f.hangCycles);
    out += strprintf("B %llu %s %d\n",
                     (unsigned long long)sup.budget.maxGuestCycles,
                     hexBits(sup.budget.hostDeadlineSeconds).c_str(),
                     int(sup.verifyFingerprint));
    return out;
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
    std::istringstream lines(text);
    std::string line;
    bool v = false, m = false, c = false, o = false, r = false,
         f = false, b = false;
    while (std::getline(lines, line)) {
        std::istringstream in(line);
        std::string tag;
        if (!(in >> tag))
            continue;
        if (tag == "V") {
            std::string version;
            if (!(in >> version) || version != WireVersion)
                return false;
            v = true;
        } else if (tag == "M") {
            kernel::MachineConfig &mc = cfg.machine;
            m = parseHex64(in, mc.seed) &&
                bool(in >> mc.timerRatePer1k >> mc.timerJitter) &&
                parseBits(in, mc.noiseProbability) &&
                bool(in >> mc.noisePages);
            if (!m)
                return false;
        } else if (tag == "C") {
            cpu::CoreConfig &cc = cfg.machine.core;
            int smi = 0, ens = 0, af = 0, pt = 0, fp = 0;
            if (!(in >> smi >> ens >> af >> pt >> fp))
                return false;
            cc.speculativeMemIssue = smi;
            cc.eagerNestedSquash = ens;
            cc.autFence = af;
            cc.pacTaint = pt;
            cc.fpac = fp;
            c = true;
        } else if (tag == "O") {
            attack::OracleConfig &oc = cfg.oracle;
            unsigned kind = 0, channel = 0;
            int calib = 0, skip = 0;
            if (!(in >> kind >> channel >> oc.trainIters >>
                  oc.latencyThreshold >> oc.missThreshold >> calib >>
                  oc.calibrationSamples >> oc.queryRetries >>
                  oc.busyRetries >> skip))
                return false;
            if (kind > unsigned(attack::GadgetKind::Combined) ||
                channel > unsigned(attack::Channel::L1dSet))
                return false;
            oc.kind = attack::GadgetKind(kind);
            oc.channel = attack::Channel(channel);
            oc.autoCalibrate = calib;
            oc.skipReset = skip;
            o = true;
        } else if (tag == "R") {
            uint64_t target = 0;
            int snap = 0;
            if (!parseHex64(in, target) ||
                !parseHex64(in, cfg.modifier) ||
                !(in >> cfg.samples >> cfg.maxSamples >>
                  cfg.candidateRetries >> snap))
                return false;
            cfg.target = target;
            cfg.snapshot = snap;
            r = true;
        } else if (tag == "F") {
            FaultPlan &fp = cfg.faults;
            f = parseBits(in, fp.contextSwitchRate) &&
                parseBits(in, fp.fullFlushFraction) &&
                bool(in >> fp.flushSets >> fp.pollutePages) &&
                parseBits(in, fp.preemptRate) &&
                bool(in >> fp.preemptMinCycles >> fp.preemptMaxCycles >>
                     fp.preemptPollutePages) &&
                parseBits(in, fp.timerRate) &&
                bool(in >> fp.stallMinCycles >> fp.stallMaxCycles >>
                     fp.skewPermilleMin >> fp.skewPermilleMax >>
                     fp.jitterBoost >> fp.jitterBurstCycles) &&
                parseBits(in, fp.syscallBusyRate) &&
                bool(in >> fp.busyMinCount >> fp.busyMaxCount) &&
                parseBits(in, fp.migrationRate) &&
                parseBits(in, fp.migrationReturnRate) &&
                parseBits(in, fp.hangRate) && bool(in >> fp.hangCycles);
            if (!f)
                return false;
        } else if (tag == "B") {
            int verify = 0;
            if (!(in >> sup.budget.maxGuestCycles) ||
                !parseBits(in, sup.budget.hostDeadlineSeconds) ||
                !(in >> verify))
                return false;
            sup.verifyFingerprint = verify;
            b = true;
        }
        // Unknown tags are skipped: a v1 decoder tolerates v1.x
        // additions as long as the version line matches.
    }
    return v && m && c && o && r && f && b;
}

namespace
{

std::string
encodeChunkLine(const Chunk &chunk)
{
    return strprintf("K %llu %llu %llu\n",
                     (unsigned long long)chunk.index,
                     (unsigned long long)chunk.firstItem,
                     (unsigned long long)chunk.lastItem);
}

bool
decodeChunkLine(std::istringstream &in, Chunk &chunk)
{
    return bool(in >> chunk.index >> chunk.firstItem >> chunk.lastItem)
           && chunk.firstItem <= chunk.lastItem;
}

} // anonymous namespace

std::string
encodeBfChunkRequest(const BruteForceCampaignConfig &cfg,
                     const Chunk &chunk)
{
    return encodeReplicaWire(cfg.replica, cfg.supervision) +
           strprintf("G bf %016llx %u %u\n",
                     (unsigned long long)cfg.seed, unsigned(cfg.first),
                     unsigned(cfg.last)) +
           encodeChunkLine(chunk);
}

std::string
encodeAccuracyChunkRequest(const AccuracyCampaignConfig &cfg,
                           const Chunk &chunk)
{
    return encodeReplicaWire(cfg.replica, cfg.supervision) +
           strprintf("G acc %016llx %llu %u\n",
                     (unsigned long long)cfg.seed,
                     (unsigned long long)cfg.trials, cfg.window) +
           encodeChunkLine(chunk);
}

std::optional<ChunkRequest>
decodeChunkRequest(const std::string &body)
{
    // Split the G/K campaign lines off the replica-wire prefix; the
    // prefix (alone) is the replica-cache key.
    std::string config_text;
    std::string campaign_line, chunk_line;
    std::istringstream lines(body);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("G ", 0) == 0)
            campaign_line = line;
        else if (line.rfind("K ", 0) == 0)
            chunk_line = line;
        else {
            config_text += line;
            config_text += '\n';
        }
    }
    if (campaign_line.empty() || chunk_line.empty())
        return std::nullopt;

    ChunkRequest req;
    req.configKey = config_text;
    ReplicaConfig replica;
    SupervisionConfig sup;
    if (!decodeReplicaWire(config_text, replica, sup))
        return std::nullopt;

    std::istringstream gin(campaign_line);
    std::string tag, kind;
    if (!(gin >> tag >> kind))
        return std::nullopt;
    if (kind == "bf") {
        unsigned first = 0, last = 0;
        if (!parseHex64(gin, req.bf.seed) || !(gin >> first >> last) ||
            first > 0xFFFF || last > 0xFFFF || first > last)
            return std::nullopt;
        req.kind = ChunkRequest::Kind::BruteForce;
        req.bf.replica = replica;
        req.bf.supervision = sup;
        req.bf.first = uint16_t(first);
        req.bf.last = uint16_t(last);
    } else if (kind == "acc") {
        if (!parseHex64(gin, req.acc.seed) ||
            !(gin >> req.acc.trials >> req.acc.window))
            return std::nullopt;
        req.kind = ChunkRequest::Kind::Accuracy;
        req.acc.replica = replica;
        req.acc.supervision = sup;
    } else {
        return std::nullopt;
    }

    std::istringstream kin(chunk_line);
    if (!(kin >> tag) || !decodeChunkLine(kin, req.chunk))
        return std::nullopt;
    return req;
}

} // namespace pacman::runner
