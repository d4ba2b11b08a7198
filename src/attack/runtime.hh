/**
 * @file
 * The attacker's userspace runtime.
 *
 * All measurement and hierarchy manipulation is performed by genuine
 * EL0 guest code (assembled once at construction); the host-side C++
 * only orchestrates — mirroring the paper's attacker: a C program
 * with small assembly primitives. Primitives provided:
 *
 *  - syscalls with arbitrary arguments,
 *  - timed single loads via the multi-thread counter or PMC0,
 *  - bulk load loops over address lists (prime / reset / sweep),
 *  - per-access timed probe loops writing latencies to an out array,
 *  - indirect fetches into the JIT region (instruction experiments).
 */

#ifndef PACMAN_ATTACK_RUNTIME_HH
#define PACMAN_ATTACK_RUNTIME_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/supervision.hh"
#include "kernel/machine.hh"

namespace pacman::attack
{

using isa::Addr;
using kernel::Machine;

/** An EL0 process with the attack primitives loaded. */
class AttackerProcess
{
  public:
    explicit AttackerProcess(Machine &machine);

    Machine &machine() { return machine_; }

    // --- Syscalls ---

    /** Invoke syscall @p num with up to three arguments; returns x0. */
    uint64_t syscall(uint16_t num, uint64_t a0 = 0, uint64_t a1 = 0,
                     uint64_t a2 = 0);

    /** syscall(@p num, @p a0) @p n times, as one
     *  Machine::callRepeat() run. */
    void syscallRepeat(uint16_t num, uint64_t a0, uint64_t n);

    // --- Timed accesses ---

    /** Load @p va once; return the multi-thread-counter delta. */
    uint64_t timedLoad(Addr va);

    /** Load @p va once; return the PMC0 (cycle) delta. Requires the
     *  reverse-engineering kext to have granted EL0 access. */
    uint64_t timedLoadPmc(Addr va);

    // --- Bulk operations ---

    /** Load every address in @p addrs (prime / reset / fill). */
    void loadAll(const std::vector<Addr> &addrs);

    /**
     * Probe: load every address, timing each with the multi-thread
     * counter; returns the per-access counts.
     *
     * The result references per-process scratch reused by the next
     * probeAll() call — iterate or copy before probing again. (The
     * oracle probes on every query; returning by value would allocate
     * on the attack's hottest host-side path.)
     */
    const std::vector<uint64_t> &probeAll(const std::vector<Addr> &addrs);

    /** Branch to @p va (target must contain a `ret`). */
    void fetchAt(Addr va);

    /** Branch to every address in @p addrs in order. */
    void fetchAllAt(const std::vector<Addr> &addrs);

    // --- Raw counter reads (Table 1) ---

    /** Read CNTPCT_EL0 from EL0 (always permitted). */
    uint64_t readCntpct();

    /** Attempt an EL0 read of PMC0; exit status tells if it trapped. */
    cpu::ExitStatus tryReadPmc0(uint64_t *value);

    // --- Memory management ---

    /** Map (if needed) the page containing @p va as user data. */
    void ensureMapped(Addr va);

    /** Map an executable user page and plant a `ret` stub at @p va. */
    void plantRetStub(Addr va);

    /**
     * Scratch page @p index (0..255) in the user data area; page
     * index i maps to dTLB set i, letting callers place argument
     * arrays away from the set under probe.
     */
    Addr scratchPage(unsigned index) const;

    /** Relocate the argument arrays used by loadAll/probeAll. */
    void placeArrays(unsigned list_page, unsigned out_page);

    /** dTLB sets occupied by runtime infrastructure for a given
     *  configuration (callers must not probe these). */
    std::vector<uint64_t> reservedDtlbSets() const;

    // --- Supervision / recovery (DESIGN.md §4g) ---

    /**
     * Integrity self-check for the recovery ladder: every assembled
     * routine entry point must still be mapped and hold a non-zero
     * instruction word, and the argument arrays must point into the
     * scratch area. A replica whose code pages were lost or zeroed
     * (checkpoint corruption, a bad restore) fails here before the
     * supervisor wastes a retry on it.
     */
    bool verifyRoutines() const;

    /**
     * Register a hook the campaign supervisor invokes after it
     * recovers this process's replica (restore-retry or full
     * re-provision), with the classified fault and the ladder rung
     * that succeeded (1 = restore, 2 = re-provision). Lets the attack
     * layer react — e.g. schedule a recalibration — without the
     * runner depending on attack internals. Pass nullptr to detach.
     * Host wiring: deliberately not part of the snapshot.
     */
    void
    setRecoveryHook(
        std::function<void(WorkerFaultKind, unsigned)> hook)
    {
        recoveryHook_ = std::move(hook);
    }

    /** Invoke the recovery hook, if any (supervisor side). */
    void
    notifyRecovery(WorkerFaultKind kind, unsigned rung)
    {
        if (recoveryHook_)
            recoveryHook_(kind, rung);
    }

    /**
     * Host-side mutable state. The assembled routines and their guest
     * pages are captured by the Machine snapshot (they live in
     * simulated memory); only the argument-array placement is host
     * state that placeArrays() can move after construction. The
     * probeAll scratch is overwritten before every read, so it needs
     * no capture.
     */
    struct Snapshot
    {
        Addr listArray = 0;
        Addr outArray = 0;
    };

    Snapshot takeSnapshot() const { return {listArray_, outArray_}; }

    void restore(const Snapshot &snap)
    {
        listArray_ = snap.listArray;
        outArray_ = snap.outArray;
    }

  private:
    void buildRoutines();
    void writeList(const std::vector<Addr> &addrs);

    Machine &machine_;
    Addr rSyscall_ = 0;
    Addr rTimedLoad_ = 0;
    Addr rTimedLoadPmc_ = 0;
    Addr rLoadList_ = 0;
    Addr rProbeList_ = 0;
    Addr rFetchAt_ = 0;
    Addr rFetchList_ = 0;
    Addr rReadCntpct_ = 0;
    Addr rReadPmc0_ = 0;
    Addr listArray_ = 0;
    Addr outArray_ = 0;
    std::vector<uint64_t> probeScratch_; //!< probeAll result storage
    std::function<void(WorkerFaultKind, unsigned)> recoveryHook_;
};

} // namespace pacman::attack

#endif // PACMAN_ATTACK_RUNTIME_HH
