/**
 * @file
 * The PA-keyed memo table shared by the decoded-instruction cache and
 * the superblock cache: generation staleness and fetch-epoch flushes,
 * with and without an invalidation counter, on both instantiations.
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "cpu/decode_cache.hh"
#include "cpu/superblock.hh"

namespace pacman::cpu
{
namespace
{

using isa::Addr;

template <typename T>
class PaMemoUnit : public ::testing::Test
{
};

struct Names
{
    template <typename T>
    static std::string
    GetName(int)
    {
        return std::is_same_v<T, DecodeCache> ? "DecodeCache"
                                              : "SuperblockCache";
    }
};

using Tables = ::testing::Types<DecodeCache, SuperblockCache>;
TYPED_TEST_SUITE(PaMemoUnit, Tables, Names);

TYPED_TEST(PaMemoUnit, StaleGenerationDropsEntry)
{
    TypeParam c;
    uint64_t invalidations = 0;
    const Addr pa = 0x2000;

    c.claim(pa, 5);
    ASSERT_NE(c.lookup(pa, 5, &invalidations), nullptr);
    EXPECT_EQ(invalidations, 0u);

    // A write to the page bumped its generation: the lookup must miss,
    // count the invalidation, and drop the entry so the original
    // generation can never match again later.
    EXPECT_EQ(c.lookup(pa, 6, &invalidations), nullptr);
    EXPECT_EQ(invalidations, 1u);
    EXPECT_EQ(c.lookup(pa, 5, &invalidations), nullptr);
    EXPECT_EQ(invalidations, 1u);

    // The same without a counter (the decode cache keeps none).
    c.claim(pa, 7);
    EXPECT_EQ(c.lookup(pa, 8), nullptr);
    EXPECT_EQ(c.lookup(pa, 7), nullptr);
}

TYPED_TEST(PaMemoUnit, EpochChangeFlushes)
{
    TypeParam c;
    uint64_t invalidations = 0;
    const Addr pa = 0x4000;

    c.claim(pa, 1);
    c.syncEpoch(0, &invalidations); // construction epoch: no flush
    EXPECT_NE(c.lookup(pa, 1, &invalidations), nullptr);
    EXPECT_EQ(invalidations, 0u);

    c.syncEpoch(1, &invalidations); // remap / flushAll moved the epoch
    EXPECT_EQ(c.lookup(pa, 1, &invalidations), nullptr);
    EXPECT_EQ(invalidations, 1u);
    c.syncEpoch(1, &invalidations); // no move, no second flush
    EXPECT_EQ(invalidations, 1u);

    c.claim(pa, 1);
    c.syncEpoch(2);
    EXPECT_EQ(c.lookup(pa, 1), nullptr);
}

} // namespace
} // namespace pacman::cpu
