/**
 * @file
 * A text dump of a machine's complete modelled state, for equivalence
 * tests that must see more than counters.
 *
 * It covers every Core::Snapshot field (registers, flags, pc, EL,
 * system registers, cycle, scoreboard, fetch-group phase, every
 * predictor counter and BTB entry, CoreStats), every way of every
 * cache and TLB (valid bit, tag or translation, LRU stamp) with each
 * structure's LRU clock and hit/miss counters, every backed physical
 * page's write generation and a hash of its bytes, both RNG stream
 * positions, the migration flag and the timer device.
 *
 * Host-only state is left out on purpose: the dirty-way journal, the
 * decode/superblock/call-memo caches and SuperblockStats. Two machines
 * that ran the same guest work under FastPath::Full and
 * FastPath::Reference must dump identically.
 *
 * The dump captures the structures through their takeSnapshot(),
 * which re-arms each array's dirty-way journal. That changes no
 * modelled state, but it does change how an older snapshot restores
 * (a full copy instead of the journal). A test that checks the
 * journal path therefore dumps before taking its snapshot and after
 * restoring it, never in between.
 */

#ifndef PACMAN_TESTS_STATE_DUMP_HH
#define PACMAN_TESTS_STATE_DUMP_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "base/stats.hh"
#include "kernel/machine.hh"

namespace pacman::testing_support
{

inline void
dumpLine(std::string &s, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

inline void
dumpLine(std::string &s, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    s += buf;
    s += '\n';
}

/** Every field of one set-associative structure's snapshot. */
template <typename Snap, typename WayFn>
void
dumpArray(std::string &s, const char *name, const Snap &snap,
          WayFn way_text)
{
    dumpLine(s, "%s tick=%llu hits=%llu misses=%llu", name,
             (unsigned long long)snap.tick, (unsigned long long)snap.hits,
             (unsigned long long)snap.misses);
    for (size_t i = 0; i < snap.ways.size(); ++i) {
        const auto &w = snap.ways[i];
        // Never-touched ways are all zero: skip them to keep the dump
        // small (an invalidated way keeps its stale fields and shows).
        const std::string body = way_text(w);
        if (!w.valid && w.lruStamp == 0 && body.empty())
            continue;
        dumpLine(s, "%s[%zu] v=%d lru=%llu %s", name, i, int(w.valid),
                 (unsigned long long)w.lruStamp, body.c_str());
    }
}

/** The machine's complete modelled state as text, one fact a line. */
inline std::string
fullStateDump(kernel::Machine &m)
{
    std::string s;
    const cpu::Core::Snapshot c = m.core().takeSnapshot();
    for (size_t r = 0; r < c.regs.size(); ++r)
        dumpLine(s, "x%zu=%llx ready=%llu", r,
                 (unsigned long long)c.regs[r],
                 (unsigned long long)c.ready[r]);
    dumpLine(s, "nzcv=%d%d%d%d flagsReady=%llu", int(c.flags.n),
             int(c.flags.z), int(c.flags.c), int(c.flags.v),
             (unsigned long long)c.flagsReady);
    dumpLine(s, "pc=%llx el=%u cycle=%llu lastCompletion=%llu "
             "fetchGroup=%u",
             (unsigned long long)c.pc, c.el, (unsigned long long)c.cycle,
             (unsigned long long)c.lastCompletion, c.fetchGroup);
    for (size_t r = 0; r < c.sysregs.size(); ++r)
        dumpLine(s, "sysreg[%zu]=%llx", r,
                 (unsigned long long)c.sysregs[r]);
    for (size_t i = 0; i < c.predictor.size(); ++i)
        if (c.predictor[i] != 1)
            dumpLine(s, "bimodal[%zu]=%u", i, unsigned(c.predictor[i]));
    for (size_t i = 0; i < c.btb.size(); ++i) {
        const auto &e = c.btb[i];
        if (e.valid || e.tag || e.target)
            dumpLine(s, "btb[%zu] v=%d tag=%llx target=%llx", i,
                     int(e.valid), (unsigned long long)e.tag,
                     (unsigned long long)e.target);
    }
    const cpu::CoreStats &st = c.stats;
    dumpLine(s, "stats retired=%llu branches=%llu mispredicts=%llu "
             "wrongpath=%llu wrongpath_mem=%llu spec_faults=%llu "
             "syscalls=%llu",
             (unsigned long long)st.instsRetired,
             (unsigned long long)st.branches,
             (unsigned long long)st.branchMispredicts,
             (unsigned long long)st.wrongPathInsts,
             (unsigned long long)st.wrongPathMemOps,
             (unsigned long long)st.specFaultsSuppressed,
             (unsigned long long)st.syscalls);

    mem::MemoryHierarchy &h = m.mem();
    const auto line = [](const mem::CacheLine &l) {
        return l.tag ? strprintf("tag=%llx", (unsigned long long)l.tag)
                     : std::string();
    };
    const auto xlat = [](const mem::TlbWay &w) {
        const mem::TlbEntry &e = w.entry;
        if (!e.vpn && !e.ppn && !e.writable && !e.executable &&
            e.asid == mem::Asid::User)
            return std::string();
        return strprintf("vpn=%llx asid=%d ppn=%llx w=%d x=%d",
                         (unsigned long long)e.vpn, int(e.asid),
                         (unsigned long long)e.ppn, int(e.writable),
                         int(e.executable));
    };
    dumpArray(s, "l1i", h.l1i().takeSnapshot(), line);
    dumpArray(s, "l1d", h.l1d().takeSnapshot(), line);
    dumpArray(s, "l2", h.l2().takeSnapshot(), line);
    dumpArray(s, "slc", h.slc().takeSnapshot(), line);
    dumpArray(s, "itlb0", h.itlb(0).takeSnapshot(), xlat);
    dumpArray(s, "itlb1", h.itlb(1).takeSnapshot(), xlat);
    dumpArray(s, "dtlb", h.dtlb().takeSnapshot(), xlat);
    dumpArray(s, "l2tlb", h.l2tlb().takeSnapshot(), xlat);
    dumpLine(s, "fetchEpoch=%llu", (unsigned long long)h.fetchEpoch());

    std::vector<std::pair<uint64_t, std::string>> pages;
    h.phys().forEachPage(
        [&](uint64_t ppn, const uint8_t *bytes, uint64_t gen) {
            uint64_t fnv = 0xcbf29ce484222325ull;
            for (size_t i = 0; i < isa::PageSize; ++i)
                fnv = (fnv ^ bytes[i]) * 0x100000001b3ull;
            pages.emplace_back(
                ppn, strprintf("page %llx gen=%llu bytes=%016llx",
                               (unsigned long long)ppn,
                               (unsigned long long)gen,
                               (unsigned long long)fnv));
        });
    std::sort(pages.begin(), pages.end());
    for (const auto &[ppn, text] : pages)
        dumpLine(s, "%s", text.c_str());

    for (const auto &[name, st] :
         {std::pair{"rng", m.rng().state()},
          std::pair{"noiseRng", m.noiseRng().state()}})
        dumpLine(s, "%s seed=%llx s=%llx,%llx,%llx,%llx", name,
                 (unsigned long long)st.seed,
                 (unsigned long long)st.s[0], (unsigned long long)st.s[1],
                 (unsigned long long)st.s[2],
                 (unsigned long long)st.s[3]);
    const auto t = m.timer().takeSnapshot();
    dumpLine(s,
             "onECore=%d timer=%llu,%llu,%llu,%llu,%d,%llu,%llu,%llu,%llu",
             int(m.onECore()), (unsigned long long)t.basePer1k,
             (unsigned long long)t.scalePermille,
             (unsigned long long)t.baseCycle,
             (unsigned long long)t.baseValue, int(t.stalled),
             (unsigned long long)t.stallUntil,
             (unsigned long long)t.burstUntil,
             (unsigned long long)t.burstExtra,
             (unsigned long long)t.lastValue);
    return s;
}

/**
 * Whether two dumps are identical; on a mismatch the message names
 * the number of differing lines and shows the first one, instead of
 * printing both multi-megabyte dumps.
 */
inline ::testing::AssertionResult
sameState(const std::string &a, const std::string &b)
{
    if (a == b)
        return ::testing::AssertionSuccess();
    std::vector<std::string> la, lb;
    for (auto [text, out] : {std::pair{&a, &la}, std::pair{&b, &lb}}) {
        size_t pos = 0;
        while (pos < text->size()) {
            const size_t eol = text->find('\n', pos);
            out->push_back(text->substr(pos, eol - pos));
            pos = eol + 1;
        }
    }
    size_t first = 0;
    while (first < la.size() && first < lb.size() &&
           la[first] == lb[first])
        ++first;
    size_t differing = 0;
    for (size_t i = 0; i < std::max(la.size(), lb.size()); ++i)
        differing += i >= la.size() || i >= lb.size() || la[i] != lb[i];
    return ::testing::AssertionFailure()
           << differing << " of " << std::max(la.size(), lb.size())
           << " lines differ; first at line " << first << ":\n  "
           << (first < la.size() ? la[first] : "<end>") << "\nvs\n  "
           << (first < lb.size() ? lb[first] : "<end>");
}

} // namespace pacman::testing_support

#endif // PACMAN_TESTS_STATE_DUMP_HH
