#include "call_memo.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "base/logging.hh"

namespace pacman::cpu
{

namespace
{

using H = mem::MemoryHierarchy;

/** Scoreboard time @p t relative to cycle @p c: how far after it, or
 *  0 for "by then" (every use of a ready time takes the max with the
 *  current cycle + 1, and the cycle never goes back). */
uint64_t
rel(uint64_t t, uint64_t c)
{
    return t > c ? t - c : 0;
}

bool
sameContent(const mem::CacheLine &a, const mem::CacheLine &b)
{
    return a.valid == b.valid && a.tag == b.tag;
}

bool
sameContent(const mem::TlbWay &a, const mem::TlbWay &b)
{
    const mem::TlbEntry &x = a.entry;
    const mem::TlbEntry &y = b.entry;
    return a.valid == b.valid && x.vpn == y.vpn && x.asid == y.asid &&
           x.ppn == y.ppn && x.writable == y.writable &&
           x.executable == y.executable;
}

/** @p s with every time relative to cycle @p base. */
Core::RunState
relative(Core::RunState s, uint64_t base)
{
    Core::RunState::forEachTime([base](uint64_t &t) { t = rel(t, base); },
                                s);
    return s;
}

CoreStats
operator-(CoreStats a, const CoreStats &b)
{
    CoreStats::forEachField([](auto, uint64_t &x, uint64_t y) { x -= y; },
                            a, b);
    return a;
}

} // anonymous namespace

CallMemo::CallMemo(Core &core)
{
    core.mem_->attachTouchLog(&log_);
    core.predictor_.attachTouchLog(&log_, PredictorTable);
    core.btb_.attachTouchLog(&log_, BtbTable);
    core.touchLog_ = &log_;
}

CallGuard
CallMemo::check(const Recording &r, Core &core, uint64_t max_insts) const
{
    // The first guard in CallGuard order that fails: a field under a
    // later guard than one already failed is not compared.
    CallGuard failed =
        r.insts > max_insts ? CallGuard::Budget : CallGuard::NumGuards;
    Core::RunState::forEachField(
        [&failed](CallGuard guard, const auto &want, const auto &live) {
            if (guard < failed && !(want == live))
                failed = guard;
        },
        r.in, core.state_);
    if (failed != CallGuard::NumGuards)
        return failed;
    const uint64_t now = core.state_.cycle;
    Core::RunState::forEachTime(
        [&failed, now](uint64_t want, uint64_t live) {
            if (rel(live, now) != want)
                failed = CallGuard::Scoreboard;
        },
        r.in, core.state_);
    if (failed != CallGuard::NumGuards)
        return failed;
    H &h = *core.mem_;
    if (!(h.config().lat == r.lat))
        return CallGuard::Latency;
    for (const auto &w : r.lines)
        if (!sameContent(h.cache(w.table).wayAt(w.index), w.content))
            return CallGuard::Ways;
    for (const auto &w : r.tlbWays)
        if (!sameContent(h.tlb(w.table).wayAt(w.index), w.content))
            return CallGuard::Ways;
    for (const auto &k : r.counters)
        if (core.predictor_.counterAt(k.index) != k.before)
            return CallGuard::Predictor;
    for (const auto &b : r.btb)
        if (!(core.btb_.entryAt(b.index) == b.entry))
            return CallGuard::Predictor;
    for (const auto &p : r.pages)
        if (h.phys().pageGen(p.page << isa::PageShift) != p.gen)
            return CallGuard::Pages;
    return CallGuard::NumGuards;
}

bool
CallMemo::replay(Core &core, uint64_t max_insts, ExitStatus *status)
{
    const bool must = std::exchange(mustReplay_, false);
    CallGuard first = CallGuard::NumGuards;
    for (auto it = table_.begin(); it != table_.end(); ++it) {
        if (it->in.pc != core.state_.pc)
            continue;
        const CallGuard failed = check(*it, core, max_insts);
        if (failed == CallGuard::NumGuards) {
            PACMAN_ASSERT(!must || it == table_.begin(),
                          "a run's last call replayed another recording");
            streak_ = it == table_.begin() ? streak_ + 1 : 1;
            table_.splice(table_.begin(), table_, it);
            apply(*it, core, status);
            lastPure_ = true;
            return true;
        }
        if (first == CallGuard::NumGuards)
            first = failed;
    }
    PACMAN_ASSERT(!must, "a run's last call did not replay");
    if (first != CallGuard::NumGuards)
        ++core.sbStats_.replayMisses[size_t(first)];
    return false;
}

void
CallMemo::settle(const Recording &r, Core &core, uint64_t entry)
{
    Core::RunState::forEachTime(
        [entry](uint64_t &live, uint64_t out) {
            if (out)
                live = entry + out;
        },
        core.state_, r.out);
}

void
CallMemo::apply(const Recording &r, Core &core, ExitStatus *status)
{
    Core::RunState::forEachField(
        [](CallGuard, auto &live, const auto &out) { live = out; },
        core.state_, r.out);
    settle(r, core, core.state_.cycle);
    addFields(core.stats_, r.stats);
    for (const auto &k : r.counters)
        core.predictor_.setCounter(k.index, k.after);

    // Every stamp lands relative to its array's clock at entry, so all
    // stamps go down before any clock moves.
    H &h = *core.mem_;
    for (const auto &w : r.lines)
        h.cache(w.table).replayStamp(w.index, w.stampOffset);
    for (const auto &w : r.tlbWays)
        h.tlb(w.table).replayStamp(w.index, w.stampOffset);
    h.forEachArray([&](uint32_t t, auto &array) {
        array.replayHits(r.hits[t]);
    });

    ++core.sbStats_.callsReplayed;
    core.sbStats_.instsReplayed += r.insts;
    *status = r.exit;
}

uint64_t
CallMemo::skipRepeats(Core &core, uint64_t done, uint64_t m)
{
    if (std::min(streak_, done) < 2)
        return 0;
    // Each skipped call would enter where the one before it ended and
    // repeat the front recording's effect. Registers, stamps and
    // predictor counters come out as the last call's replay leaves
    // them, so only the running totals change here, and the times the
    // last skipped call sets: the cycle, and the scoreboard times the
    // next call's guards read when they outlast that call.
    const Recording &r = table_.front();
    settle(r, core, core.state_.cycle + (m - 1) * r.out.cycle);
    CoreStats::forEachField(
        [m](auto, uint64_t &x, uint64_t y) { x += m * y; }, core.stats_,
        r.stats);
    core.mem_->forEachArray([&](uint32_t t, auto &array) {
        array.replayHits(m * r.hits[t]);
    });
    core.sbStats_.callsReplayed += m;
    core.sbStats_.instsReplayed += m * r.insts;
    streak_ += m;
    mustReplay_ = true;
    return m;
}

void
CallMemo::beginRecord(Core &core)
{
    streak_ = 0;
    log_.arm();
    captured_ = lastPure_;
    if (!captured_)
        return;
    start_.state = core.state_;
    start_.stats = core.stats_;
    core.mem_->forEachArray([&](uint32_t t, auto &array) {
        start_.ticks[t] = array.lruClock();
        start_.hits[t] = array.hits();
    });
}

void
CallMemo::endRecord(Core &core, const ExitStatus &status)
{
    lastPure_ = !log_.impure && status.kind == ExitKind::Halted;
    log_.spoil(); // nothing outside a recording is logged
    if (!lastPure_ || !captured_)
        return;

    // A fresh slot until the table is full, then the least recently
    // used one (its vectors keep their capacity).
    if (table_.size() < Slots)
        table_.emplace_front();
    else
        table_.splice(table_.begin(), table_, std::prev(table_.end()));
    Recording &r = table_.front();
    const uint64_t entry = start_.state.cycle;
    r.in = relative(start_.state, entry);
    r.insts = core.stats_.instsRetired - start_.stats.instsRetired;
    H &h = *core.mem_;
    r.lat = h.config().lat;
    r.lines.clear();
    r.tlbWays.clear();
    r.counters.clear();
    r.btb.clear();
    r.pages.clear();

    // One record per touched entry; the first touch carries a
    // predictor counter's value at entry (stable_sort keeps it first).
    std::vector<mem::TouchLog::Touch> &touches = log_.touches;
    std::stable_sort(touches.begin(), touches.end(),
                     [](const auto &a, const auto &b) {
                         return a.table != b.table ? a.table < b.table
                                                   : a.index < b.index;
                     });
    std::vector<uint64_t> &pages = log_.pages;
    for (size_t i = 0; i < touches.size(); ++i) {
        const mem::TouchLog::Touch &t = touches[i];
        if (i > 0 && t.table == touches[i - 1].table &&
            t.index == touches[i - 1].index)
            continue;
        if (t.table < H::NumCaches) {
            const mem::CacheLine &way = h.cache(t.table).wayAt(t.index);
            r.lines.push_back({t.table, t.index, way,
                               way.lruStamp - start_.ticks[t.table]});
        } else if (t.table < H::NumTouchTables) {
            const mem::TlbWay &way = h.tlb(t.table).wayAt(t.index);
            r.tlbWays.push_back({t.table, t.index, way,
                                 way.lruStamp - start_.ticks[t.table]});
            // A pure call's translations all hit an L1 TLB way: an
            // iTLB way's frame holds its instruction bytes, and a
            // dTLB way's is a page it loads from, logged already.
            pages.push_back(way.entry.ppn);
        } else if (t.table == PredictorTable) {
            r.counters.push_back({t.index, uint8_t(t.value),
                                  core.predictor_.counterAt(t.index)});
        } else {
            r.btb.push_back({t.index, core.btb_.entryAt(t.index)});
        }
    }
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    for (const uint64_t page : pages)
        r.pages.push_back(
            {page, h.phys().pageGen(page << isa::PageShift)});

    r.out = relative(core.state_, entry);
    r.stats = core.stats_ - start_.stats;
    h.forEachArray([&](uint32_t t, auto &array) {
        r.hits[t] = array.hits() - start_.hits[t];
        PACMAN_ASSERT(array.lruClock() - start_.ticks[t] == r.hits[t],
                      "structure %u filled during a pure call", t);
    });
    r.exit = status;
    ++core.sbStats_.callsRecorded;
}

} // namespace pacman::cpu
