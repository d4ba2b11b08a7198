#include "machine.hh"

#include <algorithm>
#include <string_view>
#include <vector>

#include "base/logging.hh"
#include "base/stats.hh"
#include "kernel/layout.hh"

namespace pacman::kernel
{

MachineConfig
defaultMachineConfig()
{
    MachineConfig cfg;
    cfg.hier = mem::m1PCoreConfig();
    return cfg;
}

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed), noiseRng_(rng_.fork(NoiseStream)),
      mem_(cfg.hier, &rng_), core_(cfg.core, &mem_, &rng_),
      timer_(core_.cyclePtr(), cfg.timerRatePer1k, cfg.timerJitter,
             &rng_),
      kernel_(&core_, &mem_, &rng_)
{
    // The shared-counter page is mapped into userspace once, at a
    // fixed address every process knows.
    mem_.mapDevice(TimerPage, &timer_);

    // Noise arena: 512 user pages spanning every dTLB set twice, used
    // by the ambient-activity model.
    mem_.mapRange(NoiseArena, 512 * isa::PageSize,
                  mem::PageFlags{.user = true, .writable = true,
                                 .executable = false, .device = false});

    kernel_.boot();
}

cpu::ExitStatus
Machine::runGuest(isa::Addr pc, std::initializer_list<uint64_t> args)
{
    core_.setEl(0);
    core_.setPc(pc);
    unsigned idx = 0;
    for (uint64_t arg : args)
        core_.setReg(idx++, arg);
    return core_.run();
}

namespace
{

void
expectHalted(isa::Addr pc, const cpu::ExitStatus &status)
{
    if (status.kind != cpu::ExitKind::Halted) {
        fatal("guest run at 0x%llx did not halt cleanly: %s",
              (unsigned long long)pc, status.reason.c_str());
    }
}

} // anonymous namespace

uint64_t
Machine::call(isa::Addr pc, std::initializer_list<uint64_t> args)
{
    expectHalted(pc, runGuest(pc, args));
    return core_.reg(0);
}

void
Machine::callRepeat(isa::Addr pc,
                    std::initializer_list<cpu::RegWrite> regs, uint64_t n)
{
    expectHalted(pc, core_.runRepeat(pc, regs, n));
}

std::string
Machine::statsReport()
{
    TextTable table;
    table.header({"Statistic", "Value"});
    auto row = [&](std::string_view name, uint64_t value) {
        table.row({std::string(name),
                   strprintf("%llu", (unsigned long long)value)});
    };
    row("cycles", core_.cycle());
    cpu::CoreStats::forEachField(row, core_.stats());
    // Fast-path telemetry (host-side, not architectural state, and
    // monotonic — unlike CoreStats these never rewind on snapshot
    // restore; see cpu/superblock.hh), under its metric names.
    cpu::SuperblockStats::forEachField(
        [&](std::string_view name, const char *, uint64_t value) {
            row(name, value);
        },
        core_.superblockStats());

    auto structure = [&](const char *name, uint64_t hits,
                         uint64_t misses) {
        const uint64_t total = hits + misses;
        table.row({name,
                   strprintf("%llu hits / %llu misses (%.1f%% hit)",
                             (unsigned long long)hits,
                             (unsigned long long)misses,
                             total ? 100.0 * double(hits) /
                                         double(total)
                                   : 0.0)});
    };
    structure("L1I", mem_.l1i().hits(), mem_.l1i().misses());
    structure("L1D", mem_.l1d().hits(), mem_.l1d().misses());
    structure("L2", mem_.l2().hits(), mem_.l2().misses());
    structure("iTLB (EL0)", mem_.itlb(0).hits(), mem_.itlb(0).misses());
    structure("iTLB (EL1)", mem_.itlb(1).hits(), mem_.itlb(1).misses());
    structure("dTLB", mem_.dtlb().hits(), mem_.dtlb().misses());
    structure("L2 TLB", mem_.l2tlb().hits(), mem_.l2tlb().misses());
    return table.render();
}

Machine::Snapshot
Machine::takeSnapshot() const
{
    Snapshot snap;
    snap.rng = rng_.state();
    snap.noiseRng = noiseRng_.state();
    snap.onECore = onECore_;
    snap.mem = mem_.takeSnapshot();
    snap.core = core_.takeSnapshot();
    snap.timer = timer_.takeSnapshot();
    return snap;
}

mem::PhysMem::RestoreStats
Machine::restore(const Snapshot &snap)
{
    rng_.setState(snap.rng);
    noiseRng_.setState(snap.noiseRng);
    const mem::PhysMem::RestoreStats stats = mem_.restore(snap.mem);
    core_.restore(snap.core);
    // The hierarchy snapshot does not carry the latency constants (they
    // are a pure function of the migration flag); re-derive them here
    // exactly as migrateCore() would.
    onECore_ = snap.onECore;
    mem_.setLatencyConfig(onECore_ ? mem::m1ECoreLatency()
                                   : cfg_.hier.lat);
    // Restore the timer after the latency swap: its snapshot already
    // holds the matching base rate, so no setBaseRatePer1k rebase
    // (which would resample base cycle/value) must run.
    timer_.restore(snap.timer);
    return stats;
}

void
Machine::migrateCore(bool to_ecore)
{
    if (to_ecore == onECore_)
        return;
    onECore_ = to_ecore;
    mem_.setLatencyConfig(to_ecore ? mem::m1ECoreLatency()
                                   : cfg_.hier.lat);
    // The counting thread's loop speed is fixed in wall time while
    // the victim's cycles stretch on the slower e-core, so each
    // victim cycle observes ~5/4 the counts.
    timer_.setBaseRatePer1k(to_ecore ? cfg_.timerRatePer1k * 5 / 4
                                     : cfg_.timerRatePer1k);
}

void
Machine::injectNoise()
{
    // Fault opportunity first: the chaos layer (if attached) fires
    // regardless of whether the ambient noise model is enabled.
    if (disturbHook_)
        disturbHook_();

    if (cfg_.noiseProbability <= 0.0 ||
        !noiseRng_.chance(cfg_.noiseProbability)) {
        return;
    }
    // Ambient system activity: one demand access per configured noise
    // page, pages drawn *without replacement* so each perturbation
    // touches exactly `noisePages` distinct pages (the old model drew
    // with replacement, so the touched-set count ignored the config).
    // All draws come from the dedicated noise stream: they never
    // interleave with timer-jitter draws, keeping measurement
    // sequences comparable with and without noise. Kernel-side noise
    // touches the trampoline region both as data and as instruction
    // fetches — interrupt handlers and kext code perturb the EL1
    // iTLB, not just the dTLB.
    const unsigned pages = std::min(cfg_.noisePages, 256u);
    // Per-machine scratch: injectNoise runs between every attack step,
    // so the draw bookkeeping must not allocate per call.
    std::vector<uint64_t> &tramp_pages = noiseTrampScratch_;
    std::vector<uint64_t> &arena_pages = noiseArenaScratch_;
    tramp_pages.clear();
    arena_pages.clear();
    auto draw_distinct = [&](std::vector<uint64_t> &used,
                             uint64_t bound) {
        uint64_t v;
        do {
            v = noiseRng_.next(bound);
        } while (std::find(used.begin(), used.end(), v) != used.end());
        used.push_back(v);
        return v;
    };
    for (unsigned i = 0; i < pages; ++i) {
        const bool kernel_side = noiseRng_.chance(0.4);
        if (kernel_side) {
            const Addr va = TrampolineBase +
                            draw_distinct(tramp_pages, TrampolineCount) *
                                isa::PageSize;
            mem_.access(mem::AccessKind::Load, va, 1, false);
            if (noiseRng_.chance(0.5))
                mem_.access(mem::AccessKind::Fetch, va, 1, false);
        } else {
            const Addr va = NoiseArena +
                            draw_distinct(arena_pages, 512) *
                                isa::PageSize +
                            noiseRng_.next(256) * 64;
            mem_.access(mem::AccessKind::Load, va, 0, false);
        }
    }
}

} // namespace pacman::kernel
