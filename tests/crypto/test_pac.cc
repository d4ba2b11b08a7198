#include <gtest/gtest.h>

#include <map>

#include "crypto/pac.hh"
#include "crypto/qarma64.hh"

namespace pacman::crypto
{
namespace
{

const PacKey key{0x0011223344556677ull, 0x8899aabbccddeeffull};

TEST(Pac, Deterministic)
{
    EXPECT_EQ(computePac(0x1000, 0, key), computePac(0x1000, 0, key));
}

TEST(Pac, DependsOnPointer)
{
    EXPECT_NE(computePac(0x1000, 0, key), computePac(0x2000, 0, key));
}

TEST(Pac, DependsOnModifier)
{
    EXPECT_NE(computePac(0x1000, 1, key), computePac(0x1000, 2, key));
}

TEST(Pac, DependsOnKey)
{
    const PacKey other{key.w0, key.k0 ^ 1};
    EXPECT_NE(computePac(0x1000, 0, key), computePac(0x1000, 0, other));
}

TEST(Pac, WidthTruncation)
{
    // An 11-bit PAC never exceeds 11 bits (the ARM range is 11..31
    // bits depending on configuration; our platform uses 16).
    for (uint64_t p = 0; p < 64; ++p)
        EXPECT_LT(computePac(p << 14, 0, key, 11), 1u << 11);
}

TEST(Pac, SixteenBitDistributionRoughlyUniform)
{
    // Bucket PACs of many pointers: each of 16 coarse buckets should
    // receive a reasonable share.
    std::map<uint16_t, unsigned> buckets;
    const unsigned n = 4096;
    for (unsigned i = 0; i < n; ++i)
        ++buckets[computePac(uint64_t(i) << 14, 0, key) >> 12];
    for (const auto &[bucket, count] : buckets)
        EXPECT_GT(count, n / 16 / 2) << "bucket " << bucket;
    EXPECT_EQ(buckets.size(), 16u);
}

TEST(Pac, KeyNames)
{
    EXPECT_STREQ(pacKeyName(PacKeySelect::IA), "IA");
    EXPECT_STREQ(pacKeyName(PacKeySelect::DB), "DB");
    EXPECT_STREQ(pacKeyName(PacKeySelect::GA), "GA");
}

TEST(Pac, CollisionRateNearExpected)
{
    // Probability two random pointers share a 16-bit PAC should be
    // about 2^-16; over ~20k pairs expect only a few collisions.
    unsigned collisions = 0;
    const unsigned n = 20000;
    const uint16_t reference = computePac(0xABC000, 7, key);
    for (unsigned i = 1; i <= n; ++i) {
        if (computePac(0xABC000 + (uint64_t(i) << 14), 7, key) ==
            reference) {
            ++collisions;
        }
    }
    EXPECT_LT(collisions, 8u); // expectation ~0.3
}

/** The uncached reference: the top @p pac_bits of the QARMA-64
 *  ciphertext of (@p ptr, @p mod) under @p k. */
uint16_t
cipherPac(uint64_t ptr, uint64_t mod, const PacKey &k, unsigned pac_bits,
          int rounds)
{
    const uint64_t ct = Qarma64(k.w0, k.k0, rounds).encrypt(ptr, mod);
    return uint16_t(ct >> (64 - pac_bits));
}

TEST(PacMemo, MatchesUncachedCipher)
{
    // computePac memoizes into a thread-local two-way table whose set
    // index hashes (pointer, modifier, k0) only. Tuples that differ
    // in w0, PAC width or rounds therefore share one set, which steers
    // every memo path below deterministically; each answer must equal
    // the uncached cipher.
    const uint64_t ptr = 0xFFFF'8000'0123'4000ull;
    const uint64_t mod = 0x5A5A'0000'7777ull;
    const PacKey a{0x1111'2222'3333'4444ull, 0x0BAD'F00D'CAFE'D00Dull};
    const PacKey b{a.w0 ^ 1, a.k0};
    const PacKey c{a.w0 ^ 2, a.k0};
    const auto check = [&](const PacKey &k, unsigned pac_bits = 16,
                           int rounds = 7) {
        EXPECT_EQ(computePac(ptr, mod, k, pac_bits, rounds),
                  cipherPac(ptr, mod, k, pac_bits, rounds))
            << std::hex << "w0 " << k.w0 << std::dec << " bits "
            << pac_bits << " rounds " << rounds;
    };
    check(a); // fill: way 0 = a
    check(a); // way-0 hit
    check(b); // fill: way 0 = b, way 1 = a
    check(a); // way-1 hit, swapped to the front
    check(b); // way-1 hit, swapped back
    check(c); // fill: way 0 = c, way 1 = b, a evicted
    check(a); // miss after eviction: way 0 = a, way 1 = c
    check(b); // miss after eviction
    // The same (pointer, modifier, key) under another width or round
    // count must never be served from the 16-bit, 7-round entry.
    check(a, 11);
    check(a, 16, 5);
    check(a, 11);
    check(a);

    // Twice through more tuples than the table holds (1024 sets x 2
    // ways): both passes evict in every set.
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t i = 0; i < 3000; ++i) {
            const uint64_t p = ptr + (i << 14);
            const uint64_t m = mod + i;
            EXPECT_EQ(computePac(p, m, a), cipherPac(p, m, a, 16, 7))
                << "pass " << pass << " tuple " << i;
        }
    }
}

} // namespace
} // namespace pacman::crypto
