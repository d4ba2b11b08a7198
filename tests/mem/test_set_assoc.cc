/**
 * @file
 * The shared set-associative array's snapshot journal and batched hit
 * replay, run over both of its users: every restore must reproduce the
 * captured ways, LRU clock and counters exactly, whichever restore
 * path (journal replay, overflow full copy, foreign-snapshot full
 * copy) it takes, and rehitN(w, k) must leave what k single hits
 * leave.
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "base/random.hh"
#include "base/stats.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace pacman::mem
{
namespace
{

/** 8 sets x 4 ways: 32 ways, so the journal overflows past 8. */
SetAssocConfig
smallGeometry()
{
    SetAssocConfig cfg;
    cfg.name = "small";
    cfg.ways = 4;
    cfg.sets = 8;
    cfg.lineBytes = 64;
    return cfg;
}

/**
 * Per-structure verbs over small integer keys: key k lives in set
 * k % 8, so keys k, k + 8, k + 16, ... conflict.
 */
template <typename T>
struct Ops;

template <>
struct Ops<Cache>
{
    static Addr pa(uint64_t k) { return k * 64; }
    /** A lookup that allocates on a miss. */
    static void touch(Cache &c, uint64_t k) { c.access(pa(k)); }
    /** Refresh a present key: for a cache, just a hit. */
    static void refresh(Cache &c, uint64_t k) { c.access(pa(k)); }
    /** Invalidate a few ways without a whole-array flush. */
    static void partialFlush(Cache &c, uint64_t k) { c.invalidate(pa(k)); }
    static CacheLine *wayOf(Cache &c, uint64_t k) { return c.lineFor(pa(k)); }
    static bool hit(Cache &c, uint64_t k) { return c.access(pa(k)); }
    static std::string
    show(const CacheLine &l)
    {
        return strprintf("%d/%llx@%llu", int(l.valid),
                         (unsigned long long)l.tag,
                         (unsigned long long)l.lruStamp);
    }
};

template <>
struct Ops<Tlb>
{
    static TlbEntry
    entry(uint64_t k, uint64_t ppn)
    {
        TlbEntry e;
        e.vpn = k;
        e.ppn = ppn;
        e.writable = ppn & 1;
        return e;
    }
    static void
    touch(Tlb &t, uint64_t k)
    {
        if (!t.lookup(k, Asid::User))
            t.insert(entry(k, 100 + k));
    }
    /** Tlb::insert's in-place refresh: same key, new frame. */
    static void refresh(Tlb &t, uint64_t k) { t.insert(entry(k, 900 + k)); }
    static void
    partialFlush(Tlb &t, uint64_t k)
    {
        t.flushSetAsid(t.setIndex(k), Asid::User);
    }
    static TlbWay *
    wayOf(Tlb &t, uint64_t k)
    {
        return t.wayFor(k, Asid::User);
    }
    static bool
    hit(Tlb &t, uint64_t k)
    {
        return t.lookup(k, Asid::User).has_value();
    }
    static std::string
    show(const TlbWay &w)
    {
        return strprintf("%d/%llx:%llx:%d@%llu", int(w.valid),
                         (unsigned long long)w.entry.vpn,
                         (unsigned long long)w.entry.ppn,
                         int(w.entry.writable),
                         (unsigned long long)w.lruStamp);
    }
};

template <typename T>
class SetAssocJournal : public ::testing::Test
{
  protected:
    using O = Ops<T>;
    using Snapshot = typename T::Snapshot;

    SetAssocJournal() : rng(1), a(smallGeometry(), ReplPolicy::LRU, &rng)
    {
        // Three of each set's four ways valid, stamps all distinct.
        for (uint64_t k = 0; k < 24; ++k)
            O::touch(a, k);
    }

    /** Ways, LRU clock and counters of @p snap, as text. */
    static std::string
    dump(const Snapshot &snap)
    {
        std::string s = strprintf("tick=%llu hits=%llu misses=%llu:",
                                  (unsigned long long)snap.tick,
                                  (unsigned long long)snap.hits,
                                  (unsigned long long)snap.misses);
        for (const auto &way : snap.ways)
            s += " " + O::show(way);
        return s;
    }

    /** Live state of @p t, read from a copy so @p t's journal stays
     *  armed the way it was. */
    static std::string
    state(const T &t)
    {
        T copy = t;
        return dump(copy.takeSnapshot());
    }

    Random rng;
    T a;
};

struct Names
{
    template <typename T>
    static std::string
    GetName(int)
    {
        return std::is_same_v<T, Cache> ? "Cache" : "Tlb";
    }
};

using Structures = ::testing::Types<Cache, Tlb>;
TYPED_TEST_SUITE(SetAssocJournal, Structures, Names);

TYPED_TEST(SetAssocJournal, RestoreReplaysJournal)
{
    using O = typename TestFixture::O;
    TypeParam &a = this->a;
    const auto snap = a.takeSnapshot();
    const std::string captured = this->dump(snap);

    // Six ways, under the journal's quarter-of-32 limit: a hit, an
    // in-place refresh, a partial flush and a fill into a free way.
    O::touch(a, 3);
    O::refresh(a, 1);
    O::partialFlush(a, 2);
    O::touch(a, 40);
    ASSERT_NE(this->state(a), captured);
    a.restore(snap);
    EXPECT_EQ(this->state(a), captured);

    // The journal restarts empty after a replay.
    O::refresh(a, 9);
    O::partialFlush(a, 4);
    O::touch(a, 11);
    ASSERT_NE(this->state(a), captured);
    a.restore(snap);
    EXPECT_EQ(this->state(a), captured);
}

TYPED_TEST(SetAssocJournal, RestoreAfterJournalOverflow)
{
    using O = typename TestFixture::O;
    TypeParam &a = this->a;
    const auto snap = a.takeSnapshot();
    const std::string captured = this->dump(snap);

    // Twelve distinct ways (more than a quarter of 32), with evictions.
    for (uint64_t k = 24; k < 36; ++k)
        O::touch(a, k);
    a.restore(snap);
    EXPECT_EQ(this->state(a), captured);

    // The full copy re-armed the journal: a small touch set replays.
    O::refresh(a, 5);
    O::partialFlush(a, 6);
    O::touch(a, 7);
    a.restore(snap);
    EXPECT_EQ(this->state(a), captured);
}

TYPED_TEST(SetAssocJournal, RestoreAfterForeignSnapshot)
{
    using O = typename TestFixture::O;
    TypeParam &a = this->a;
    const auto older = a.takeSnapshot();
    const std::string older_state = this->dump(older);

    // Ways only these touches change: after restoring the older
    // snapshot they differ from the newer one but are not touched
    // again, so only a disarmed journal brings them back.
    O::refresh(a, 0);
    O::partialFlush(a, 1);
    O::touch(a, 2);
    const auto newer = a.takeSnapshot();
    const std::string newer_state = this->dump(newer);
    ASSERT_NE(newer_state, older_state);

    O::touch(a, 3);
    a.restore(older);
    EXPECT_EQ(this->state(a), older_state);
    O::touch(a, 4);
    O::refresh(a, 5);
    a.restore(newer);
    EXPECT_EQ(this->state(a), newer_state);
}

TYPED_TEST(SetAssocJournal, RestoreAfterBulkMutations)
{
    using O = typename TestFixture::O;
    TypeParam &a = this->a;
    O::touch(a, 3); // a nonzero clock and counters to rebase
    const auto snap = a.takeSnapshot();
    const std::string captured = this->dump(snap);

    a.flushAll();
    a.restore(snap);
    EXPECT_EQ(this->state(a), captured);

    a.resetStats();
    ASSERT_NE(this->state(a), captured);
    a.restore(snap);
    EXPECT_EQ(this->state(a), captured);

    // Both bulk mutations left the journal usable again.
    O::touch(a, 12);
    a.restore(snap);
    EXPECT_EQ(this->state(a), captured);
}

TYPED_TEST(SetAssocJournal, RehitNEqualsSingleHits)
{
    using O = typename TestFixture::O;
    TypeParam &a = this->a;
    const auto snap = a.takeSnapshot();
    TypeParam b = a;
    const auto b_snap = b.takeSnapshot();
    const std::string before = this->state(a);

    a.rehitN(O::wayOf(a, 10), 0);
    EXPECT_EQ(this->state(a), before);

    for (const uint64_t k : {1u, 5u}) {
        a.rehitN(O::wayOf(a, 10), k);
        for (uint64_t i = 0; i < k; ++i)
            ASSERT_TRUE(O::hit(b, 10));
        EXPECT_EQ(this->state(a), this->state(b)) << "k=" << k;
    }

    // The batched replay journals its way like a single hit does.
    a.restore(snap);
    b.restore(b_snap);
    EXPECT_EQ(this->state(a), before);
    EXPECT_EQ(this->state(b), before);
}

} // namespace
} // namespace pacman::mem
