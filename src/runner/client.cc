#include "client.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "base/logging.hh"
#include "runner/dispatch.hh"

namespace pacman::runner
{

namespace
{

using Clock = std::chrono::steady_clock;

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        throw WireError("socket path too long: " + path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw WireError(strprintf("socket: %s", std::strerror(errno)));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        throw WireError(strprintf("connect %s: %s", path.c_str(),
                                  std::strerror(err)));
    }
    return fd;
}

/** connect(2) with an optional poll-based timeout (the socket is
 *  switched to non-blocking for the handshake, then restored).
 *  Returns 0 on success, the failing errno otherwise; -ETIMEDOUT is
 *  reported as ETIMEDOUT with @p timed_out set. */
int
connectWithTimeout(int fd, const sockaddr *addr, socklen_t len,
                   double timeout_seconds, bool &timed_out)
{
    timed_out = false;
    if (timeout_seconds <= 0)
        return ::connect(fd, addr, len) == 0 ? 0 : errno;

    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int err = 0;
    if (::connect(fd, addr, len) != 0) {
        if (errno != EINPROGRESS) {
            err = errno;
        } else {
            pollfd pfd{fd, POLLOUT, 0};
            const int rc =
                ::poll(&pfd, 1, int(timeout_seconds * 1000));
            if (rc == 0) {
                err = ETIMEDOUT;
                timed_out = true;
            } else if (rc < 0) {
                err = errno;
            } else {
                socklen_t elen = sizeof(err);
                ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen);
            }
        }
    }
    ::fcntl(fd, F_SETFL, flags);
    return err;
}

int
connectTcp(const std::string &host, const std::string &port,
           double timeout_seconds)
{
    // AF_UNSPEC: resolve and try every family getaddrinfo offers, so
    // "tcp:[::1]:port" and dual-stack hostnames both work.
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints,
                                 &res);
    if (rc != 0)
        throw WireError(strprintf("resolve %s:%s: %s", host.c_str(),
                                  port.c_str(), ::gai_strerror(rc)));
    int fd = -1;
    int err = 0;
    bool timed_out = false;
    for (addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        err = connectWithTimeout(fd, ai->ai_addr, ai->ai_addrlen,
                                 timeout_seconds, timed_out);
        if (err == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        const std::string what =
            strprintf("connect %s:%s: %s", host.c_str(), port.c_str(),
                      std::strerror(err));
        if (timed_out)
            throw WireTimeout(what);
        throw WireError(what);
    }
    return fd;
}

} // anonymous namespace

int
connectEndpoint(const Endpoint &ep, double timeout_seconds)
{
    if (ep.kind == Endpoint::Kind::Unix)
        return connectUnix(ep.path);
    return connectTcp(ep.host, ep.port, timeout_seconds);
}

std::optional<Endpoint>
parseEndpoint(const std::string &spec)
{
    Endpoint ep;
    if (spec.rfind("unix:", 0) == 0) {
        ep.kind = Endpoint::Kind::Unix;
        ep.path = spec.substr(5);
        if (ep.path.empty())
            return std::nullopt;
        return ep;
    }
    if (spec.rfind("tcp:", 0) == 0) {
        ep.kind = Endpoint::Kind::Tcp;
        const std::string rest = spec.substr(4);
        if (!rest.empty() && rest.front() == '[') {
            // Bracketed IPv6 literal: tcp:[<addr>]:<port>.
            const size_t close = rest.find(']');
            if (close == std::string::npos ||
                close + 1 >= rest.size() || rest[close + 1] != ':')
                return std::nullopt;
            ep.host = rest.substr(1, close - 1);
            ep.port = rest.substr(close + 2);
        } else {
            const size_t colon = rest.find_last_of(':');
            if (colon == std::string::npos)
                return std::nullopt;
            ep.host = rest.substr(0, colon);
            ep.port = rest.substr(colon + 1);
        }
        if (ep.host.empty() || ep.port.empty())
            return std::nullopt;
        return ep;
    }
    if (spec.empty())
        return std::nullopt;
    ep.kind = Endpoint::Kind::Unix;
    ep.path = spec;
    return ep;
}

OracleClient::OracleClient(const std::string &endpoint,
                           const ClientOptions &opts)
    : opts_(opts)
{
    connect(endpoint);
}

OracleClient::~OracleClient()
{
    close();
}

void
OracleClient::connect(const std::string &endpoint)
{
    PACMAN_ASSERT(fd_ < 0, "client already connected");
    const std::optional<Endpoint> ep = parseEndpoint(endpoint);
    if (!ep)
        throw WireError("malformed endpoint: " + endpoint);
    endpoint_ = endpoint;
    fd_ = connectEndpoint(*ep, opts_.connectTimeoutSeconds);
}

void
OracleClient::adopt(int fd)
{
    PACMAN_ASSERT(fd_ < 0, "client already connected");
    PACMAN_ASSERT(fd >= 0, "cannot adopt a closed fd");
    fd_ = fd;
    endpoint_.clear();
}

void
OracleClient::reconnect()
{
    PACMAN_ASSERT(!endpoint_.empty(),
                  "reconnect needs a prior connect()");
    const std::string endpoint = endpoint_;
    close();
    connect(endpoint);
}

void
OracleClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    pending_.clear();
}

uint64_t
OracleClient::sendRequest(const std::string &verb,
                          const std::string &args,
                          const std::string &body)
{
    PACMAN_ASSERT(fd_ >= 0, "client not connected");
    WireMessage m;
    m.id = nextId_++;
    m.verb = verb;
    m.args = args;
    m.body = body;
    try {
        writeFrame(fd_, packMessage(m));
    } catch (const WireError &) {
        close();
        throw;
    }
    return m.id;
}

WireMessage
OracleClient::readResponse(uint64_t id)
{
    for (;;) {
        auto it = pending_.find(id);
        if (it != pending_.end()) {
            WireMessage m = std::move(it->second);
            pending_.erase(it);
            return m;
        }
        try {
            std::optional<std::string> payload =
                readFrame(fd_, opts_.readTimeoutSeconds);
            if (!payload)
                throw WireError("server closed the connection");
            std::optional<WireMessage> m = unpackMessage(*payload);
            if (!m)
                throw WireError("malformed response frame");
            if (m->id == id)
                return *m;
            pending_[m->id] = std::move(*m);
        } catch (const WireError &) {
            // Timed out, torn, or desynchronised: the stream cannot
            // be trusted past this point, so retire it (with any
            // buffered responses) before the caller sees the error.
            close();
            throw;
        }
    }
}

WireMessage
OracleClient::call(const std::string &verb, const std::string &args,
                   const std::string &body)
{
    return readResponse(sendRequest(verb, args, body));
}

WireMessage
OracleClient::callChecked(const std::string &verb,
                          const std::string &args,
                          const std::string &body)
{
    // BUSY is backpressure, not failure: back off and retry while the
    // busy deadline allows. Exhaustion is a typed error so failover
    // layers can treat a permanently saturated endpoint as down.
    const Clock::time_point start = Clock::now();
    auto backoff = std::chrono::microseconds(500);
    for (;;) {
        WireMessage resp = call(verb, args, body);
        if (resp.verb == "OK")
            return resp;
        if (resp.verb == "BUSY") {
            if (opts_.busyDeadlineSeconds > 0) {
                const double elapsed =
                    std::chrono::duration<double>(Clock::now() - start)
                        .count();
                if (elapsed >= opts_.busyDeadlineSeconds) {
                    close();
                    throw BusyExhausted(strprintf(
                        "server still BUSY on %s after %.3fs",
                        verb.c_str(), elapsed));
                }
            }
            std::this_thread::sleep_for(backoff);
            backoff = std::min(backoff * 2,
                               std::chrono::microseconds(100'000));
            continue;
        }
        throw WireError(strprintf("server error on %s: %s",
                                  verb.c_str(), resp.args.c_str()));
    }
}

void
OracleClient::hello(const std::string &tenant, uint64_t secret)
{
    callChecked("HELLO",
                strprintf("%s %016llx", tenant.c_str(),
                          (unsigned long long)secret),
                {});
}

OracleClient::QueryResult
OracleClient::query(uint16_t candidate, uint64_t stream_seed,
                    const ReplicaConfig &replica,
                    const SupervisionConfig &sup)
{
    const WireMessage resp = callChecked(
        "QUERY",
        strprintf("%04x %016llx", candidate,
                  (unsigned long long)stream_seed),
        encodeReplicaWire(replica, sup));
    std::istringstream in(resp.args);
    int hot = 0;
    QueryResult r;
    if (!(in >> hot >> r.misses))
        throw WireError("malformed QUERY response: " + resp.args);
    r.hot = hot != 0;
    return r;
}

uint16_t
OracleClient::truth(const ReplicaConfig &replica,
                    const SupervisionConfig &sup)
{
    const WireMessage resp =
        callChecked("TRUTH", {}, encodeReplicaWire(replica, sup));
    uint64_t pac = 0;
    if (!parseWhole(resp.args, &pac, 16, 4))
        throw WireError("malformed TRUTH response: " + resp.args);
    return uint16_t(pac);
}

std::string
OracleClient::chunkPayload(const std::string &request_body)
{
    return callChecked("CHUNK", {}, request_body).body;
}

std::string
OracleClient::metricsJson()
{
    return callChecked("METRICS", {}, {}).body;
}

bool
OracleClient::ping()
{
    return callChecked("PING", {}, {}).args != "draining";
}

void
OracleClient::drain()
{
    callChecked("DRAIN", {}, {});
}

// --- Remote campaign runners (single endpoint) ---------------------

BruteForceCampaignResult
runBruteForceCampaignRemote(const BruteForceCampaignConfig &cfg,
                            const std::string &endpoint)
{
    DispatchConfig dcfg;
    dcfg.endpoints = {endpoint};
    return runBruteForceCampaignRemote(cfg, dcfg);
}

AccuracyCampaignResult
runAccuracyCampaignRemote(const AccuracyCampaignConfig &cfg,
                          const std::string &endpoint)
{
    DispatchConfig dcfg;
    dcfg.endpoints = {endpoint};
    return runAccuracyCampaignRemote(cfg, dcfg);
}

} // namespace pacman::runner
