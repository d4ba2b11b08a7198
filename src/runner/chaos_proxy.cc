#include "chaos_proxy.hh"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "runner/client.hh"
#include "runner/protocol.hh"

namespace pacman::runner
{

namespace
{

void
shutdownFd(int fd)
{
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
}

} // anonymous namespace

struct ChaosProxy::Impl
{
    explicit Impl(const ChaosProxyConfig &cfg) : cfg(cfg)
    {
        const std::optional<Endpoint> up = parseEndpoint(cfg.upstream);
        if (!up)
            throw WireError("malformed upstream endpoint: " +
                            cfg.upstream);
        upstream = *up;

        if (!cfg.logPath.empty()) {
            log.open(cfg.logPath, std::ios::app);
            if (!log)
                warn("chaos proxy: cannot open log %s",
                     cfg.logPath.c_str());
        }

        listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd < 0)
            throw WireError(strprintf("chaos proxy socket: %s",
                                      std::strerror(errno)));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0; // ephemeral
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listenFd, 64) != 0) {
            const int err = errno;
            ::close(listenFd);
            throw WireError(strprintf("chaos proxy listen: %s",
                                      std::strerror(err)));
        }
        socklen_t alen = sizeof(addr);
        ::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &alen);
        endpoint = strprintf("tcp:127.0.0.1:%u",
                             unsigned(ntohs(addr.sin_port)));

        acceptor = std::thread([this] { acceptLoop(); });
    }

    ~Impl()
    {
        stop.store(true);
        shutdownFd(listenFd);
        {
            std::lock_guard<std::mutex> lock(mu);
            for (int fd : liveFds)
                shutdownFd(fd);
        }
        acceptor.join();
        for (std::thread &t : relays)
            t.join();
        {
            std::lock_guard<std::mutex> lock(mu);
            for (int fd : liveFds)
                ::close(fd);
        }
        ::close(listenFd);
    }

    void
    acceptLoop()
    {
        uint64_t conn_ordinal = 0;
        while (!stop.load()) {
            pollfd pfd{listenFd, POLLIN, 0};
            if (::poll(&pfd, 1, 100) <= 0)
                continue;
            const int cfd = ::accept(listenFd, nullptr, nullptr);
            if (cfd < 0)
                continue;
            int ufd = -1;
            try {
                ufd = connectEndpoint(upstream, 1.0);
            } catch (const WireError &e) {
                warn("chaos proxy: upstream connect failed: %s",
                     e.what());
                ::close(cfd);
                continue;
            }
            const uint64_t conn = conn_ordinal++;
            std::lock_guard<std::mutex> lock(mu);
            ++counters.connections;
            liveFds.push_back(cfd);
            liveFds.push_back(ufd);
            relays.emplace_back(
                [this, cfd, ufd] { relayRaw(cfd, ufd); });
            relays.emplace_back(
                [this, cfd, ufd, conn] { relayFrames(ufd, cfd, conn); });
        }
    }

    /** client→server leg: byte-exact passthrough (requests must
     *  arrive intact; only responses are faulted). */
    void
    relayRaw(int from, int to)
    {
        char buf[4096];
        for (;;) {
            const ssize_t n = ::read(from, buf, sizeof(buf));
            if (n <= 0)
                break;
            try {
                writeBytes(to, buf, size_t(n));
            } catch (const WireError &) {
                break;
            }
        }
        shutdownFd(from);
        shutdownFd(to);
    }

    /** server→client leg: frame-aware with deterministic faults. */
    void
    relayFrames(int from, int to, uint64_t conn)
    {
        uint64_t frame = 0;
        try {
            while (std::optional<std::string> payload = readFrame(from)) {
                if (cfg.blackhole) {
                    // Swallow the response: the client can only
                    // escape via its read deadline.
                    record(conn, frame++, "blackhole");
                    continue;
                }
                if (!applyFault(to, conn, frame++, encodeFrame(*payload)))
                    break; // connection-terminating fault
            }
        } catch (const WireError &) {
            // Torn upstream or write failure toward the client: the
            // relay for this connection is over either way.
        }
        shutdownFd(from);
        shutdownFd(to);
    }

    /**
     * Roll this frame's fault from its private stream and forward
     * accordingly. Returns false when the fault tears the connection
     * down. The decision consumes RNG in a fixed order, so the fault
     * schedule for (seed, conn, frame) is a pure function —
     * independent of thread scheduling and of the other connections.
     */
    bool
    applyFault(int to, uint64_t conn, uint64_t frame, std::string bytes)
    {
        Random rng(
            Random::deriveSeed(cfg.seed, (conn << 20) | frame));
        const uint32_t len = uint32_t(bytes.size() - FrameHeaderBytes);

        if (rng.chance(cfg.dropRate)) {
            record(conn, frame, "drop");
            bump(&Counters::drops);
            return false;
        }
        if (len > 0 && rng.chance(cfg.corruptRate)) {
            // Flip one payload byte under the ORIGINAL header CRC:
            // the client must catch the mismatch, not the proxy.
            bytes[FrameHeaderBytes + size_t(rng.next(len))] ^= 0x01;
            record(conn, frame, "corrupt");
            bump(&Counters::corruptions);
            forward(to, bytes);
            return true;
        }
        if (len > 0 && rng.chance(cfg.truncateRate)) {
            // Header promises len bytes; deliver fewer, then tear
            // down — the client sees a mid-frame EOF.
            const size_t keep = size_t(rng.next(len));
            record(conn, frame, "truncate");
            bump(&Counters::truncations);
            writeBytes(to, bytes.data(), FrameHeaderBytes + keep);
            return false;
        }
        if (rng.chance(cfg.delayRate)) {
            record(conn, frame, "delay");
            bump(&Counters::delays);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(cfg.delaySeconds));
            forward(to, bytes);
            return true;
        }
        if (rng.chance(cfg.duplicateRate)) {
            record(conn, frame, "duplicate");
            bump(&Counters::duplicates);
            forward(to, bytes);
            forward(to, bytes);
            return true;
        }
        forward(to, bytes);
        return true;
    }

    void
    forward(int to, const std::string &bytes)
    {
        writeBytes(to, bytes.data(), bytes.size());
        std::lock_guard<std::mutex> lock(mu);
        ++counters.framesForwarded;
    }

    void
    bump(uint64_t Counters::*field)
    {
        std::lock_guard<std::mutex> lock(mu);
        ++(counters.*field);
    }

    void
    record(uint64_t conn, uint64_t frame, const char *fault)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!log)
            return;
        log << strprintf("conn=%llu frame=%llu fault=%s",
                         (unsigned long long)conn,
                         (unsigned long long)frame, fault)
            << "\n";
        log.flush();
    }

    const ChaosProxyConfig cfg;
    Endpoint upstream;
    std::string endpoint;

    int listenFd = -1;
    std::atomic<bool> stop{false};
    std::thread acceptor;

    mutable std::mutex mu;
    std::vector<std::thread> relays; //!< guarded by mu until joined
    std::vector<int> liveFds;        //!< guarded by mu
    Counters counters;
    std::ofstream log;
};

ChaosProxy::ChaosProxy(const ChaosProxyConfig &cfg)
    : cfg_(cfg), impl_(std::make_unique<Impl>(cfg_))
{
}

ChaosProxy::~ChaosProxy() = default;

const std::string &
ChaosProxy::endpoint() const
{
    return impl_->endpoint;
}

ChaosProxy::Counters
ChaosProxy::counters() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->counters;
}

} // namespace pacman::runner
