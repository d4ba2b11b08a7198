#include "faults.hh"

#include "kernel/layout.hh"

namespace pacman::sim
{

using namespace pacman::kernel;

FaultInjector::FaultInjector(Machine &machine, const FaultPlan &plan,
                             uint64_t seed)
    : machine_(machine), plan_(plan), rng_(seed)
{
    plan_.validate();
}

FaultInjector::~FaultInjector()
{
    detach();
}

void
FaultInjector::attach()
{
    machine_.setDisturbanceHook([this] { onOpportunity(); });
    attached_ = true;
}

void
FaultInjector::detach()
{
    if (attached_) {
        machine_.setDisturbanceHook(nullptr);
        attached_ = false;
    }
}

void
FaultInjector::onOpportunity()
{
    ++opportunities_;
    if (!plan_.enabled())
        return;
    // Fixed roll order per opportunity keeps the draw sequence — and
    // therefore the whole faulted run — a pure function of the seed.
    if (plan_.contextSwitchRate > 0.0 &&
        rng_.chance(plan_.contextSwitchRate)) {
        contextSwitch();
    }
    if (plan_.preemptRate > 0.0 && rng_.chance(plan_.preemptRate))
        preempt();
    if (plan_.timerRate > 0.0 && rng_.chance(plan_.timerRate))
        disturbTimer();
    if (plan_.syscallBusyRate > 0.0 &&
        rng_.chance(plan_.syscallBusyRate)) {
        armBusy();
    }
    if (plan_.migrationRate > 0.0)
        maybeMigrate();
    if (plan_.hangRate > 0.0 && rng_.chance(plan_.hangRate))
        wedge();
}

void
FaultInjector::wedge()
{
    // The scheduler never comes back: burn a budget so large that no
    // measurement on this replica can complete before a supervising
    // watchdog's guest-cycle budget expires. Deterministic — the
    // burn is simulated time, identical on every host — so the Hang
    // classification and any quarantine it escalates to are part of
    // the campaign's bit-identical output.
    ++stats_.hangs;
    machine_.core().advanceCycles(plan_.hangCycles);
}

void
FaultInjector::pollute(unsigned pages, bool kernel_fetches)
{
    // The other context's working set: demand loads across the noise
    // arena (dTLB + caches) and, for interrupt-style events, kernel
    // code fetches that press on the EL1 iTLB the instruction oracle
    // primes.
    auto &mem = machine_.mem();
    for (unsigned i = 0; i < pages; ++i) {
        const isa::Addr va = NoiseArena +
                             rng_.next(512) * isa::PageSize +
                             rng_.next(256) * 64;
        mem.access(mem::AccessKind::Load, va, 0, false);
        if (kernel_fetches && rng_.chance(0.5)) {
            const isa::Addr tva =
                TrampolineBase +
                rng_.next(TrampolineCount) * isa::PageSize;
            mem.access(mem::AccessKind::Fetch, tva, 1, false);
        }
    }
}

void
FaultInjector::contextSwitch()
{
    ++stats_.contextSwitches;
    auto &mem = machine_.mem();
    if (rng_.chance(plan_.fullFlushFraction)) {
        // Full EL0 flush: the attacker's address space was switched
        // out; kernel (global) translations survive.
        mem.dtlb().flushAsid(mem::Asid::User);
        mem.itlb(0).flushAsid(mem::Asid::User);
        mem.l2tlb().flushAsid(mem::Asid::User);
        ++stats_.fullFlushes;
    } else {
        // Partial: the other process only displaced some sets.
        const uint64_t sets = mem.dtlb().config().sets;
        for (unsigned i = 0; i < plan_.flushSets; ++i)
            mem.dtlb().flushSetAsid(rng_.next(sets), mem::Asid::User);
        ++stats_.partialFlushes;
    }
    pollute(plan_.pollutePages, false);
}

void
FaultInjector::preempt()
{
    ++stats_.preemptions;
    const uint64_t burn =
        uint64_t(rng_.range(int64_t(plan_.preemptMinCycles),
                            int64_t(plan_.preemptMaxCycles)));
    machine_.core().advanceCycles(burn);
    stats_.preemptedCycles += burn;
    // The handler's footprint pollutes the primed iTLB/dTLB sets.
    pollute(plan_.preemptPollutePages, true);
}

void
FaultInjector::disturbTimer()
{
    auto &timer = machine_.timer();
    switch (rng_.next(3)) {
      case 0:
        timer.injectStall(
            uint64_t(rng_.range(int64_t(plan_.stallMinCycles),
                                int64_t(plan_.stallMaxCycles))));
        ++stats_.timerStalls;
        break;
      case 1:
        timer.setRateScalePermille(
            uint64_t(rng_.range(int64_t(plan_.skewPermilleMin),
                                int64_t(plan_.skewPermilleMax))));
        ++stats_.timerSkews;
        break;
      default:
        timer.injectJitterBurst(plan_.jitterBoost,
                                plan_.jitterBurstCycles);
        ++stats_.jitterBursts;
        break;
    }
}

void
FaultInjector::armBusy()
{
    // Host-side functional write: arming the busy count perturbs no
    // TLB or cache state, only future gadget syscalls.
    const uint64_t count =
        uint64_t(rng_.range(int64_t(plan_.busyMinCount),
                            int64_t(plan_.busyMaxCount)));
    machine_.mem().writeVirt64(machine_.kernel().busySlot(), count);
    ++stats_.busyArms;
}

void
FaultInjector::maybeMigrate()
{
    if (!machine_.onECore()) {
        if (rng_.chance(plan_.migrationRate)) {
            machine_.migrateCore(true);
            ++stats_.migrations;
        }
    } else if (rng_.chance(plan_.migrationReturnRate)) {
        machine_.migrateCore(false);
        ++stats_.migrations;
    }
}

} // namespace pacman::sim
