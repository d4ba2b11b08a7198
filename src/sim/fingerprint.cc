#include "fingerprint.hh"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "isa/pointer.hh"

namespace pacman::sim
{

namespace
{

void
digestRngState(StateDigest &d, const Random::State &st)
{
    d.u64(st.seed);
    for (uint64_t word : st.s)
        d.u64(word);
}

void
digestAddrList(StateDigest &d, const std::vector<isa::Addr> &addrs)
{
    d.u64(addrs.size());
    for (isa::Addr a : addrs)
        d.u64(a);
}

} // anonymous namespace

uint64_t
machineFingerprint(const kernel::Machine &machine)
{
    StateDigest d;

    digestRngState(d, machine.rng().state());
    digestRngState(d, machine.noiseRng().state());
    d.u64(machine.onECore() ? 1 : 0);

    // The core's run state through its lists: with the timer and
    // memory below, it answers "would this replica produce the
    // provisioned replica's results" (the predictor tables restore
    // bit-exactly too, but are timing microstate). The core and timer
    // snapshots are small; the machine-level deep snapshot (every
    // page, cache and TLB copied only to be hashed) is what this
    // function deliberately avoids.
    const cpu::Core::Snapshot core = machine.core().takeSnapshot();
    cpu::Core::RunState::forEachField(
        [&d](cpu::CallGuard, const auto &field) {
            using T = std::remove_cvref_t<decltype(field)>;
            static_assert(std::has_unique_object_representations_v<T>);
            d.bytes(&field, sizeof field);
        },
        core);
    cpu::Core::RunState::forEachTime([&d](uint64_t t) { d.u64(t); }, core);

    const cpu::ThreadTimerDevice::Snapshot timer =
        machine.timer().takeSnapshot();
    d.u64(timer.basePer1k);
    d.u64(timer.scalePermille);
    d.u64(timer.baseCycle);
    d.u64(timer.baseValue);
    d.u64(timer.stalled ? 1 : 0);
    d.u64(timer.stallUntil);
    d.u64(timer.burstUntil);
    d.u64(timer.burstExtra);
    d.u64(timer.lastValue);

    // Physical memory: every backed page's contents digested in
    // place, frame-sorted so the digest is independent of map
    // iteration order. Write generations are excluded — they are
    // never reused across a restore, so they differ between the
    // post-provision and post-restore states by design.
    const mem::PhysMem &phys = machine.mem().phys();
    std::vector<std::pair<uint64_t, const uint8_t *>> pages;
    pages.reserve(phys.pageCount());
    phys.forEachPage([&](uint64_t ppn, const uint8_t *data, uint64_t) {
        pages.emplace_back(ppn, data);
    });
    std::sort(pages.begin(), pages.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    d.u64(pages.size());
    for (const auto &[ppn, data] : pages) {
        d.u64(ppn);
        d.bytes(data, isa::PageSize);
    }

    return d.value();
}

uint64_t
oracleFingerprint(const attack::PacOracle &oracle)
{
    const attack::PacOracle::Snapshot snap = oracle.takeSnapshot();
    StateDigest d;

    auto digest = [&d](const char *, auto value) {
        d.u64(uint64_t(value));
    };
    attack::OracleConfig::forEachField(digest, snap.cfg);

    d.u64(snap.target);
    d.u64(snap.modifier);
    d.u64(snap.legitPtr);
    digestAddrList(d, snap.resetList);
    digestAddrList(d, snap.primeList);
    d.u64(snap.trampIndices.size());
    for (uint64_t t : snap.trampIndices)
        d.u64(t);
    d.u64(snap.queries);
    d.u64(snap.canaryAddr);
    d.f64(snap.calibHitLo);
    d.f64(snap.calibHitHi);
    attack::OracleStats::forEachField(digest, snap.stats);
    d.u64(snap.proc.listArray);
    d.u64(snap.proc.outArray);

    return d.value();
}

uint64_t
replicaFingerprint(const kernel::Machine &machine,
                   const attack::PacOracle &oracle)
{
    StateDigest d;
    d.u64(machineFingerprint(machine));
    d.u64(oracleFingerprint(oracle));
    return d.value();
}

} // namespace pacman::sim
