#include "journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "base/stats.hh"

namespace pacman
{

namespace
{

/** Build the CRC32 (IEEE, reflected polynomial) lookup table once. */
const uint32_t *
crcTable()
{
    static uint32_t table[256];
    static const bool built = [] {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            table[i] = c;
        }
        return true;
    }();
    (void)built;
    return table;
}

/** One on-disk frame for (key, payload). */
std::string
frame(std::string_view key, std::string_view payload)
{
    std::string body;
    body.reserve(key.size() + payload.size());
    body.append(key);
    body.append(payload);
    std::string out = strprintf("R %08x %zu %zu\n", Journal::crc32(body),
                                key.size(), payload.size());
    out += body;
    out += '\n';
    return out;
}

/**
 * Parse one frame at @p pos of @p data. Returns true and advances
 * @p pos past the frame on success; false on a short, malformed, or
 * CRC-failing frame (the torn tail).
 */
bool
parseFrame(const std::string &data, size_t &pos, Journal::Record *rec)
{
    const size_t eol = data.find('\n', pos);
    if (eol == std::string::npos)
        return false;
    // The header as frame() writes it: "R", 8 hex digits and two
    // decimal lengths, one space apart, and nothing else.
    const std::string_view header(data.data() + pos, eol - pos);
    const size_t gap = header.find(' ', 11);
    uint64_t crc = 0, key_len = 0, payload_len = 0;
    if (!header.starts_with("R ") || gap == header.npos ||
        header[10] != ' ' || !parseWhole(header.substr(2, 8), &crc, 16) ||
        !parseWhole(header.substr(11, gap - 11), &key_len) ||
        !parseWhole(header.substr(gap + 1), &payload_len))
        return false;
    const size_t body_start = eol + 1;
    // Frame ends with the body plus a trailing newline. The lengths
    // are compared with what follows the header, never added first: a
    // corrupt header's lengths can be anything and their sum wraps.
    const size_t room = data.size() - body_start;
    if (key_len >= room || payload_len >= room - key_len)
        return false;
    const size_t body_len = key_len + payload_len;
    if (data[body_start + body_len] != '\n')
        return false;
    const std::string_view body(data.data() + body_start, body_len);
    if (Journal::crc32(body) != uint32_t(crc))
        return false;
    rec->key.assign(body.substr(0, key_len));
    rec->payload.assign(body.substr(key_len));
    pos = body_start + body_len + 1;
    return true;
}

/**
 * fsync the directory holding @p path. Creating a file (or shrinking
 * it back to a frame boundary) only becomes crash-durable once the
 * containing directory's entry is on disk too: POSIX lets a crash
 * after open(O_CREAT) lose the file entirely even though the data
 * blocks were fsync'd through the file descriptor.
 */
void
fsyncDirOf(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0) {
        fatal("journal %s: cannot open directory %s for fsync: %s",
              path.c_str(), dir.c_str(), std::strerror(errno));
    }
    while (::fsync(dfd) != 0) {
        if (errno == EINTR)
            continue;
        // Some filesystems refuse fsync on directory fds (EINVAL);
        // treat only real I/O failures as fatal.
        if (errno == EINVAL)
            break;
        ::close(dfd);
        fatal("journal %s: directory fsync failed: %s", path.c_str(),
              std::strerror(errno));
    }
    ::close(dfd);
}

} // anonymous namespace

uint32_t
Journal::crc32(std::string_view data, uint32_t seed)
{
    const uint32_t *table = crcTable();
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (unsigned char byte : data)
        c = table[(c ^ byte) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

Journal::Replay
Journal::replay(const std::string &path)
{
    Replay result;
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return result; // missing journal == empty journal
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string data = buf.str();

    size_t pos = 0;
    Record rec;
    while (pos < data.size() && parseFrame(data, pos, &rec)) {
        result.records.push_back(rec);
        result.validBytes = pos;
    }
    result.corruptTail = pos < data.size() || result.validBytes < data.size();
    return result;
}

Journal::Replay
Journal::open(const std::string &path)
{
    PACMAN_ASSERT(fd_ < 0, "journal already open (%s)", path_.c_str());
    Replay result = replay(path);
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        fatal("journal %s: cannot open for append: %s", path.c_str(),
              std::strerror(errno));
    }
    if (result.corruptTail) {
        warn("journal %s: torn tail after %llu valid bytes "
             "(%zu records keep); truncating",
             path.c_str(), (unsigned long long)result.validBytes,
             result.records.size());
        if (::ftruncate(fd_, off_t(result.validBytes)) != 0) {
            fatal("journal %s: cannot truncate torn tail: %s",
                  path.c_str(), std::strerror(errno));
        }
        // Make the truncation itself durable: without this, a crash
        // between open() and the next append can resurrect the torn
        // tail the replay already reported as repaired.
        while (::fsync(fd_) != 0) {
            if (errno == EINTR)
                continue;
            fatal("journal %s: fsync after truncate failed: %s",
                  path.c_str(), std::strerror(errno));
        }
    }
    // Make the file's existence durable. O_CREAT may have just
    // created it; a crash before the directory entry reaches disk
    // would lose the whole journal even though every append was
    // fsync'd through fd_.
    fsyncDirOf(path);
    path_ = path;
    return result;
}

void
Journal::append(std::string_view key, std::string_view payload)
{
    PACMAN_ASSERT(fd_ >= 0, "append on closed journal");
    const std::string rec = frame(key, payload);
    std::lock_guard<std::mutex> lock(mu_);
    // One write(2) per frame: a kill between appends leaves whole
    // records; a kill inside the write leaves one torn frame that
    // replay() drops. Short writes are completed in a loop (POSIX
    // permits them even for regular files).
    size_t off = 0;
    while (off < rec.size()) {
        const ssize_t n = ::write(fd_, rec.data() + off, rec.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("journal %s: write failed: %s", path_.c_str(),
                  std::strerror(errno));
        }
        off += size_t(n);
    }
    // Like the write loop above, fsync may be interrupted by a
    // signal before the data reached disk; retry instead of dying.
    while (::fsync(fd_) != 0) {
        if (errno == EINTR)
            continue;
        fatal("journal %s: fsync failed: %s", path_.c_str(),
              std::strerror(errno));
    }
    ++appends_;
    if (crashAfter_ != 0 && appends_ >= crashAfter_) {
        // Chaos harness: die at a precise record boundary. _Exit so
        // no destructor (and no ASan leak pass) runs — exactly a
        // SIGKILL's view of the filesystem.
        std::_Exit(137);
    }
}

void
Journal::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        path_.clear();
    }
}

} // namespace pacman
