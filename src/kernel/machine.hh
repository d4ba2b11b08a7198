/**
 * @file
 * The simulated machine: one core, its memory hierarchy, the timer
 * devices, and a booted kernel. This is the top-level object that
 * examples, tests, benches, and the attack library instantiate.
 */

#ifndef PACMAN_KERNEL_MACHINE_HH
#define PACMAN_KERNEL_MACHINE_HH

#include <functional>
#include <memory>
#include <vector>

#include "base/fields.hh"
#include "base/random.hh"
#include "cpu/core.hh"
#include "cpu/timer.hh"
#include "kernel/kernel.hh"
#include "mem/hierarchy.hh"

namespace pacman::kernel
{

/** Machine-level configuration. */
struct MachineConfig
{
    cpu::CoreConfig core;
    mem::HierarchyConfig hier;
    uint64_t seed = 42;

    /**
     * Thread-timer throughput (counts per 1000 cycles) and jitter.
     * Calibrated so a dTLB-hit measurement never exceeds ~28 counts
     * and a dTLB miss never drops below ~32 — reproducing Figure 7(b)
     * and the paper's threshold of 30.
     */
    uint64_t timerRatePer1k = 400;
    uint64_t timerJitter = 1;

    /**
     * Background-noise model: probability that ambient activity
     * (other processes, interrupts) perturbs TLB state between guest
     * invocations, and how many random pages each perturbation
     * touches. Models the paper's "browsing + video call" load.
     */
    double noiseProbability = 0.0;
    unsigned noisePages = 4;

    /** The wire's fields (base/fields.hh): what a campaign varies.
     *  Geometry is deployment configuration; core has its own list. */
    template <typename F, typename... Cfg>
    static constexpr void
    forEachWireField(F &&f, Cfg &...c)
    {
        f("seed", Hex{c.seed}...);
        f("timerRatePer1k", c.timerRatePer1k...);
        f("timerJitter", c.timerJitter...);
        f("noiseProbability", c.noiseProbability...);
        f("noisePages", c.noisePages...);
    }
};

/** Default M1-p-core machine configuration. */
MachineConfig defaultMachineConfig();

/** A booted simulated machine. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg = defaultMachineConfig());

    cpu::Core &core() { return core_; }
    mem::MemoryHierarchy &mem() { return mem_; }
    Kernel &kernel() { return kernel_; }
    Random &rng() { return rng_; }
    cpu::ThreadTimerDevice &timer() { return timer_; }
    const MachineConfig &config() const { return cfg_; }

    // Const views for read-only consumers (e.g. the integrity
    // fingerprint, which digests live state instead of paying a full
    // deep snapshot).
    const cpu::Core &core() const { return core_; }
    const mem::MemoryHierarchy &mem() const { return mem_; }
    const cpu::ThreadTimerDevice &timer() const { return timer_; }
    const Random &rng() const { return rng_; }
    const Random &noiseRng() const { return noiseRng_; }

    /**
     * Switch the machine's RNG to a fresh stream mid-run. Everything
     * drawn at boot (notably the per-boot PAC keys) is unaffected;
     * subsequent jitter/noise/replacement draws follow the new
     * stream. Campaign replicas boot from the shared campaign seed
     * (identical keys on every replica) and then switch to a
     * per-work-item stream so concurrent machines are decorrelated
     * yet bit-reproducible regardless of which worker runs the item.
     */
    void reseedRng(uint64_t seed)
    {
        rng_ = Random(seed);
        noiseRng_ = rng_.fork(NoiseStream);
    }

    /**
     * Run guest code at @p pc in EL0 until HLT; returns x0.
     * Calls fatal() if the guest crashes — callers that expect
     * crashes use runGuest() instead.
     */
    uint64_t call(isa::Addr pc, std::initializer_list<uint64_t> args = {});

    /**
     * call(@p pc) @p n times, setting each of @p regs (instead of x0,
     * x1, ... from args) before each run; fatal() if one does not
     * halt. Its effect is exactly that loop's (Core::runRepeat).
     */
    void callRepeat(isa::Addr pc, std::initializer_list<cpu::RegWrite> regs,
                    uint64_t n);

    /** Run guest code at @p pc in EL0; returns the raw exit status. */
    cpu::ExitStatus runGuest(isa::Addr pc,
                             std::initializer_list<uint64_t> args = {});

    /**
     * Inject ambient micro-architectural noise per the configured
     * noise model (called between attack steps by the harnesses).
     *
     * Every call is also a *fault opportunity*: the disturbance hook
     * (if any) fires first, even when the ambient noise model is
     * disabled — the sim-layer FaultInjector attaches here without
     * the kernel layer depending on it.
     */
    void injectNoise();

    /**
     * Register @p hook to run at the top of every injectNoise() call
     * (pass nullptr to detach). One consumer at a time — the fault
     * injector owns this slot while attached.
     */
    void setDisturbanceHook(std::function<void()> hook)
    {
        disturbHook_ = std::move(hook);
    }

    /**
     * Reschedule the machine onto the other core type (the fault
     * injector's migration event). Swaps the latency constants and
     * the timer thread's relative throughput; cache/TLB geometry is
     * intentionally kept (DESIGN.md §4d), so eviction sets stay
     * valid while every measured latency shifts.
     */
    void migrateCore(bool to_ecore);

    /** True while migrated onto the e-core. */
    bool onECore() const { return onECore_; }

    /**
     * Render a human-readable table of core and hierarchy statistics
     * (instructions, branches, mispredicts, wrong-path activity,
     * per-structure hit rates).
     */
    std::string statsReport();

    // --- Snapshot / restore (checkpointed replica provisioning) ---

    /**
     * The complete simulated state: both RNG stream positions, the
     * e-core migration flag, the full memory hierarchy (physical
     * pages, page table, caches, TLBs), the core (architectural +
     * timing + predictor state and PAC-key sysregs), and the thread
     * timer. Host wiring — the disturbance hook, device registration,
     * trace hooks — is deliberately not captured: a snapshot must be
     * restored into the machine it was taken from.
     */
    struct Snapshot
    {
        Random::State rng;
        Random::State noiseRng;
        bool onECore = false;
        mem::MemoryHierarchy::Snapshot mem;
        cpu::Core::Snapshot core;
        cpu::ThreadTimerDevice::Snapshot timer;
    };

    /** Capture the complete simulated state. */
    Snapshot takeSnapshot() const;

    /** Convenience alias matching the subsystem's public name. */
    Snapshot snapshot() const { return takeSnapshot(); }

    /**
     * Rewind bit-identically to @p snap: any guest or host-driven
     * simulation from the restored state replays exactly the run that
     * followed the capture (given the same inputs). Physical pages
     * are rewound copy-on-write — only pages written since the
     * capture are copied back. @return the page copy/free work done.
     */
    mem::PhysMem::RestoreStats restore(const Snapshot &snap);

    /**
     * Rotate PAC keys as if freshly booted (Kernel::rekey): dedicated
     * key stream, machine RNG untouched. Pair with reseedRng() to give
     * a restored replica per-trial fresh-boot semantics.
     */
    void
    rekey(uint64_t key_seed)
    {
        kernel_.rekey(key_seed);
        ++rekeys_;
    }

    /**
     * Key rotations performed on this machine since construction.
     * Host-side bookkeeping for service metrics (pacman-oracled's
     * per-tenant isolation counters) — deliberately NOT part of the
     * snapshot: a restore rewinds the simulated state, not the
     * operational history.
     */
    uint64_t rekeys() const { return rekeys_; }

  private:
    /** Stream id for the dedicated ambient-noise RNG: noise draws
     *  must not interleave with timer-jitter draws, or enabling
     *  noise would perturb every measurement sequence. */
    static constexpr uint64_t NoiseStream = 0x4E6F'6973ull; // "Nois"

    MachineConfig cfg_;
    Random rng_;
    Random noiseRng_;
    mem::MemoryHierarchy mem_;
    cpu::Core core_;
    cpu::ThreadTimerDevice timer_;
    Kernel kernel_;
    std::function<void()> disturbHook_;
    bool onECore_ = false;
    uint64_t rekeys_ = 0;

    /** injectNoise() draw-without-replacement scratch (no per-call
     *  allocation on the attack hot path). */
    std::vector<uint64_t> noiseTrampScratch_;
    std::vector<uint64_t> noiseArenaScratch_;
};

} // namespace pacman::kernel

#endif // PACMAN_KERNEL_MACHINE_HH
