#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "base/journal.hh"
#include "base/stats.hh"

namespace pacman
{
namespace
{

/** Unique journal path per test, removed on destruction. */
class TempJournalPath
{
  public:
    explicit TempJournalPath(const std::string &name)
        : path_(::testing::TempDir() + "pacman_journal_" + name)
    {
        std::remove(path_.c_str());
    }
    ~TempJournalPath() { std::remove(path_.c_str()); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

void
appendRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << bytes;
}

TEST(Journal, MissingFileReplaysEmptyNotCorrupt)
{
    const Journal::Replay r = Journal::replay("/nonexistent/journal");
    EXPECT_TRUE(r.records.empty());
    EXPECT_EQ(r.validBytes, 0u);
    EXPECT_FALSE(r.corruptTail);
}

TEST(Journal, AppendReplayRoundTrip)
{
    TempJournalPath path("roundtrip");
    {
        Journal j;
        j.open(path.str());
        j.append("chunk/0", "payload zero");
        j.append("chunk/1", "payload one\nwith a newline");
        j.append("meta", "");
        EXPECT_EQ(j.appends(), 3u);
    }
    const Journal::Replay r = Journal::replay(path.str());
    ASSERT_EQ(r.records.size(), 3u);
    EXPECT_EQ(r.records[0].key, "chunk/0");
    EXPECT_EQ(r.records[0].payload, "payload zero");
    EXPECT_EQ(r.records[1].key, "chunk/1");
    EXPECT_EQ(r.records[1].payload, "payload one\nwith a newline");
    EXPECT_EQ(r.records[2].key, "meta");
    EXPECT_EQ(r.records[2].payload, "");
    EXPECT_FALSE(r.corruptTail);
}

TEST(Journal, ReopenReturnsExistingRecordsAndAppends)
{
    TempJournalPath path("reopen");
    {
        Journal j;
        j.open(path.str());
        j.append("a", "1");
    }
    Journal j;
    const Journal::Replay r = j.open(path.str());
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].key, "a");
    // appends() counts this handle only, not replayed records.
    EXPECT_EQ(j.appends(), 0u);
    j.append("b", "2");
    j.close();
    EXPECT_EQ(Journal::replay(path.str()).records.size(), 2u);
}

TEST(Journal, TornTailIsDetectedAndTruncatedOnOpen)
{
    TempJournalPath path("torn");
    {
        Journal j;
        j.open(path.str());
        j.append("good/0", "kept");
        j.append("good/1", "also kept");
    }
    const uint64_t valid = Journal::replay(path.str()).validBytes;

    // A process killed mid-append leaves a partial frame: header
    // promising more bytes than follow.
    appendRaw(path.str(), "R deadbeef 6 100\ntorn/0partial");
    {
        const Journal::Replay r = Journal::replay(path.str());
        EXPECT_EQ(r.records.size(), 2u);
        EXPECT_TRUE(r.corruptTail);
        EXPECT_EQ(r.validBytes, valid);
    }

    // open() truncates back to the last valid frame boundary so the
    // journal is appendable again.
    Journal j;
    const Journal::Replay r = j.open(path.str());
    EXPECT_EQ(r.records.size(), 2u);
    j.append("good/2", "after repair");
    j.close();

    const Journal::Replay after = Journal::replay(path.str());
    ASSERT_EQ(after.records.size(), 3u);
    EXPECT_EQ(after.records[2].key, "good/2");
    EXPECT_FALSE(after.corruptTail);
}

TEST(Journal, TruncationIsDurableAcrossReopen)
{
    TempJournalPath path("durable_truncate");
    {
        Journal j;
        j.open(path.str());
        j.append("keep/0", "one");
        j.append("keep/1", "two");
    }
    appendRaw(path.str(), "R deadbeef 6 100\ntorn");

    // open() repairs the tail and fsyncs the truncation before
    // returning; just opening and closing must leave a clean file.
    {
        Journal j;
        const Journal::Replay r = j.open(path.str());
        EXPECT_EQ(r.records.size(), 2u);
        EXPECT_TRUE(r.corruptTail);
    }
    const Journal::Replay raw = Journal::replay(path.str());
    EXPECT_EQ(raw.records.size(), 2u);
    EXPECT_FALSE(raw.corruptTail);

    // And the repaired file appends on a clean frame boundary.
    Journal j;
    j.open(path.str());
    j.append("keep/2", "three");
    j.close();
    const Journal::Replay after = Journal::replay(path.str());
    ASSERT_EQ(after.records.size(), 3u);
    EXPECT_EQ(after.records[2].key, "keep/2");
    EXPECT_EQ(after.records[2].payload, "three");
    EXPECT_FALSE(after.corruptTail);
}

TEST(Journal, RelativePathCreateIsUsable)
{
    // A bare filename has no directory component: create/repair must
    // sync the working directory ("."), not a parsed parent path.
    char old_cwd[4096];
    ASSERT_NE(::getcwd(old_cwd, sizeof(old_cwd)), nullptr);
    ASSERT_EQ(::chdir(::testing::TempDir().c_str()), 0);

    const std::string name =
        "pacman_relative_" + std::to_string(::getpid()) + ".journal";
    std::remove(name.c_str());
    {
        Journal j;
        j.open(name);
        j.append("rel/0", "payload");
        j.close();
    }
    const Journal::Replay r = Journal::replay(name);
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].key, "rel/0");
    std::remove(name.c_str());
    ASSERT_EQ(::chdir(old_cwd), 0);
}

TEST(Journal, CrcMismatchStopsReplayAtLastValidRecord)
{
    TempJournalPath path("crc");
    {
        Journal j;
        j.open(path.str());
        j.append("ok", "fine");
    }
    // A structurally complete frame whose CRC does not match its
    // bytes: replay must reject it, not trust the frame shape.
    appendRaw(path.str(), "R 00000000 3 4\nbadData\n");
    const Journal::Replay r = Journal::replay(path.str());
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].key, "ok");
    EXPECT_TRUE(r.corruptTail);
}

TEST(Journal, WrappedKeyLengthIsACorruptTail)
{
    // Key length 2^64 - 1 plus payload length 2 wraps to a 1-byte body
    // whose CRC the header carries: the frame passes the size and CRC
    // checks, and splitting its body at the key length used to throw
    // out of replay() and open().
    TempJournalPath path("wrapped_key");
    {
        Journal j;
        j.open(path.str());
        j.append("ok", "fine");
    }
    const uint64_t valid = Journal::replay(path.str()).validBytes;
    char header[64];
    std::snprintf(header, sizeof(header), "R %08x 18446744073709551615 2\n",
                  unsigned(Journal::crc32("X")));
    appendRaw(path.str(), std::string(header) + "X\n");
    {
        const Journal::Replay r = Journal::replay(path.str());
        ASSERT_EQ(r.records.size(), 1u);
        EXPECT_TRUE(r.corruptTail);
        EXPECT_EQ(r.validBytes, valid);
    }
    Journal j;
    EXPECT_EQ(j.open(path.str()).records.size(), 1u);
    j.close();
    const Journal::Replay after = Journal::replay(path.str());
    EXPECT_EQ(after.records.size(), 1u);
    EXPECT_FALSE(after.corruptTail);
    EXPECT_EQ(after.validBytes, valid);
}

TEST(Journal, FrameHeaderIsReadExactlyAsWritten)
{
    // A frame for key "k", payload "v", whose CRC is right but whose
    // header frame() would never write: a sign, a 0x prefix, a short
    // CRC, a stray space or character, a missing length. Each is a
    // corrupt tail.
    const unsigned crc = Journal::crc32("kv");
    const std::string headers[] = {
        strprintf("R %08x +1 1", crc),  strprintf("R %08x 1 -1", crc),
        strprintf("R 0x%06x 1 1", crc), strprintf("R %07x 1 1", crc >> 4),
        strprintf("R %08x 1 1x", crc),  strprintf("R %08x 1 1 ", crc),
        strprintf("R  %08x 1 1", crc),  strprintf("R %08x  1 1", crc),
        strprintf("R %08x 1", crc),
    };
    for (const std::string &header : headers) {
        SCOPED_TRACE(header);
        TempJournalPath path("strict_header");
        {
            Journal j;
            j.open(path.str());
            j.append("ok", "fine");
        }
        const uint64_t valid = Journal::replay(path.str()).validBytes;
        appendRaw(path.str(), header + "\nkv\n");
        const Journal::Replay r = Journal::replay(path.str());
        EXPECT_EQ(r.records.size(), 1u);
        EXPECT_TRUE(r.corruptTail);
        EXPECT_EQ(r.validBytes, valid);
    }
    // The header as frame() writes it reads back.
    TempJournalPath path("exact_header");
    appendRaw(path.str(), strprintf("R %08x 1 1\nkv\n", crc));
    const Journal::Replay r = Journal::replay(path.str());
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].key, "k");
    EXPECT_FALSE(r.corruptTail);
}

TEST(Journal, GarbagePrefixMakesWholeFileCorrupt)
{
    TempJournalPath path("garbage");
    appendRaw(path.str(), "this is not a journal\n");
    const Journal::Replay r = Journal::replay(path.str());
    EXPECT_TRUE(r.records.empty());
    EXPECT_EQ(r.validBytes, 0u);
    EXPECT_TRUE(r.corruptTail);
}

TEST(Journal, BinarySafeKeysAndPayloads)
{
    TempJournalPath path("binary");
    const std::string key("k\0ey", 4);
    const std::string payload("\x01\x02\0\xff\n\r", 6);
    {
        Journal j;
        j.open(path.str());
        j.append(key, payload);
    }
    const Journal::Replay r = Journal::replay(path.str());
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].key, key);
    EXPECT_EQ(r.records[0].payload, payload);
}

TEST(Journal, Crc32KnownVectorAndChaining)
{
    // IEEE reflected CRC32 of "123456789" is the classic check value.
    EXPECT_EQ(Journal::crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(Journal::crc32(""), 0u);
    // Chaining via the seed equals one pass over the concatenation.
    const uint32_t half = Journal::crc32("12345");
    EXPECT_EQ(Journal::crc32("6789", half),
              Journal::crc32("123456789"));
}

} // namespace
} // namespace pacman
