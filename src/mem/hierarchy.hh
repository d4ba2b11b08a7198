/**
 * @file
 * The composed M1-style memory hierarchy: L1I/L1D/L2/SLC caches and
 * the reverse-engineered TLB organization of the paper's Figure 6 —
 * per-exception-level L1 iTLBs, a shared L1 dTLB that doubles as the
 * iTLBs' non-inclusive backing store, and a shared L2 TLB.
 *
 * Every timed guest access (demand or speculative) flows through
 * access(), which returns the latency and fault outcome and performs
 * all micro-architectural state modulation. Value movement is done
 * separately through loadValue()/storeValue() so the CPU model can
 * roll architectural effects back on squash while the
 * micro-architectural effects persist — the essence of the channel.
 */

#ifndef PACMAN_MEM_HIERARCHY_HH
#define PACMAN_MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/random.hh"
#include "mem/cache.hh"
#include "mem/config.hh"
#include "mem/pagetable.hh"
#include "mem/physmem.hh"
#include "mem/tlb.hh"
#include "mem/touch_log.hh"

namespace pacman::mem
{

/** A memory-mapped device (one page). */
class Device
{
  public:
    virtual ~Device() = default;

    /** Read @p size bytes at @p offset within the device page. */
    virtual uint64_t read(uint64_t offset, unsigned size) = 0;

    /** Write @p value at @p offset. */
    virtual void write(uint64_t offset, uint64_t value, unsigned size) = 0;
};

/** Outcome classes for a guest memory access. */
enum class Fault : uint8_t
{
    None,
    Translation, //!< non-canonical pointer or unmapped page
    Permission,  //!< EL / writable / executable violation
};

/** Access kinds. */
enum class AccessKind : uint8_t
{
    Load,
    Store,
    Fetch,
};

/** Result of one timed access. */
struct AccessResult
{
    Fault fault = Fault::None;
    uint64_t latency = 0; //!< cycles, excluding pipeline overheads
    Addr pa = 0;          //!< valid when fault == None
    bool isDevice = false;
};

/** Latency breakdown classes, exposed for the Figure 7 experiment. */
struct AccessTrace
{
    bool l1TlbHit = false;
    bool l2TlbHit = false;
    bool walked = false;
    bool l1CacheHit = false;
    bool l2CacheHit = false;
    bool slcHit = false;
    bool spillServed = false; //!< iTLB miss served by the dTLB
};

/** The full hierarchy for one core. */
class MemoryHierarchy
{
  public:
    /**
     * @param cfg Geometry/latency configuration (e.g. m1PCoreConfig()).
     * @param rng Shared RNG (replacement tie-breaks, noise).
     */
    MemoryHierarchy(const HierarchyConfig &cfg, Random *rng);

    // --- Mapping management (used by the kernel model) ---

    /** Map one page (linear ppn = vpn). */
    void mapPage(Addr va, PageFlags flags);

    /** Map @p bytes worth of pages starting at @p va. */
    void mapRange(Addr va, uint64_t bytes, PageFlags flags);

    /**
     * Map a device page at @p va. Device translations are pinned
     * (never occupy TLB state) and accesses bypass the caches, so a
     * timer read does not disturb Prime+Probe state — matching the
     * paper's use of an uncacheable shared-memory counter.
     */
    void mapDevice(Addr va, Device *device);

    /** The page table (for tests and the kernel). */
    PageTable &pageTable() { return pt_; }

    // --- Timed guest accesses ---

    /**
     * Perform one timed access at exception level @p el.
     *
     * @param kind        Load/Store/Fetch.
     * @param va          Full 64-bit pointer (extension bits checked).
     * @param el          0 (user) or 1 (kernel).
     * @param speculative True when issued under unresolved control
     *                    flow; consulted by the delay-on-miss
     *                    mitigation and by fault bookkeeping.
     * @param trace       Optional out-param with the hit/miss path.
     */
    AccessResult access(AccessKind kind, Addr va, unsigned el,
                        bool speculative, AccessTrace *trace = nullptr);

    // --- Value movement (after a successful access) ---

    /**
     * Fetch-path cache access by physical address, returning the L1I
     * line touched (the hit line, or the freshly allocated one on a
     * miss) so the superblock executor can replay later same-line
     * fetches via Cache::rehitN(). State effects and the returned
     * latency are identical to the cache-lookup step of a committed
     * instruction fetch through access().
     */
    uint64_t fetchLineAccess(Addr pa, Cache::Line **line);

    /** Read @p size bytes at the physical address @p res resolved to. */
    uint64_t loadValue(const AccessResult &res, Addr va, unsigned size);

    /** Write through to memory or a device. */
    void storeValue(const AccessResult &res, Addr va, uint64_t value,
                    unsigned size);

    // --- Functional (untimed, state-invisible) access helpers ---

    /** Translate without touching TLB/cache state. */
    std::optional<Addr> translateFunctional(Addr va) const;

    /** Functional virtual read/write (setup and checking only). */
    uint64_t readVirt(Addr va, unsigned size) const;
    void writeVirt(Addr va, uint64_t value, unsigned size);
    uint64_t readVirt64(Addr va) const { return readVirt(va, 8); }
    void writeVirt64(Addr va, uint64_t v) { writeVirt(va, v, 8); }

    /** Backing physical memory. */
    PhysMem &phys() { return phys_; }
    const PhysMem &phys() const { return phys_; }

    // --- Structures (exposed for tests, stats, and experiments) ---

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cache &slc() { return slc_; }
    Tlb &itlb(unsigned el) { return el == 0 ? itlbEl0_ : itlbEl1_; }
    Tlb &dtlb() { return dtlb_; }
    Tlb &l2tlb() { return l2tlb_; }

    const HierarchyConfig &config() const { return cfg_; }

    /** Table ids attachTouchLog() gives the arrays. */
    enum TouchTable : uint32_t
    {
        TouchL1I, TouchL1D, TouchL2, TouchSlc,
        TouchITlb0, TouchITlb1, TouchDTlb, TouchL2Tlb,
        NumTouchTables,
    };

    /**
     * Route every array's touches, and the pages loads read, to @p log
     * (nullptr detaches). Stores spoil it: a recorded guest call must
     * leave memory alone. A device access has spoiled it already: its
     * translation is never cached, so it missed the L1 TLB first.
     */
    void attachTouchLog(TouchLog *log);

    /**
     * Swap the latency constants mid-run (core migration: the thread
     * now runs on a core with different load-to-use timings). The
     * geometry — and therefore every outstanding eviction set — is
     * deliberately left untouched; see DESIGN.md §4d for why the
     * migration model stops at latencies.
     */
    void setLatencyConfig(const LatencyConfig &lat) { cfg_.lat = lat; }

    /** Invalidate all cache and TLB state (boot / reset). */
    void flushAll();

    /**
     * Front-end invalidation epoch: changes when the hierarchy is
     * flushed wholesale (boot / reset / key rotation). The decode and
     * superblock caches compare this once per fetch and drop all
     * entries on a change.
     *
     * Mapping changes (remap/unmap, pt_.epoch()) deliberately do NOT
     * move this epoch: both caches key entries by PHYSICAL address
     * and validate content against page write generations, and every
     * dispatch translates the fetch VA afresh — so a remapped VA
     * simply resolves to a different PA and finds (or builds) the
     * right entry, and an unmapped VA faults before any lookup.
     * Flushing on pt mutations was not needed for correctness and
     * made restore-per-item campaigns (which rewind lazily-created
     * mappings, then redo them every item) rebuild every cached
     * block per work item.
     */
    uint64_t fetchEpoch() const { return flushEpoch_; }

    /**
     * Complete simulated-memory state: physical pages (COW against
     * write generations), page table, all cache tag arrays and all TLB
     * way arrays including LRU stamps, and the flush epoch. Device
     * registrations are host wiring established at boot and are not
     * captured; snapshots must be restored into the same machine they
     * were taken from. The latency configuration is owned by the
     * Machine-level snapshot (it tracks the e-core migration flag).
     */
    struct Snapshot
    {
        PhysMem::Snapshot phys;
        PageTable::Snapshot pt;
        Cache::Snapshot l1i, l1d, l2, slc;
        Tlb::Snapshot itlbEl0, itlbEl1, dtlb, l2tlb;
        uint64_t flushEpoch = 0;
    };

    Snapshot takeSnapshot() const;

    /** @return the physical-page copy/free work actually performed. */
    PhysMem::RestoreStats restore(const Snapshot &snap);

  private:
    /** Translation step shared by data and fetch paths. */
    AccessResult translateTimed(AccessKind kind, Addr va, unsigned el,
                                bool speculative, AccessTrace *trace);

    /** Cache-lookup step; returns added latency. */
    uint64_t cacheAccess(AccessKind kind, Addr pa, bool speculative,
                         AccessTrace *trace);

    /** Permission check against a mapping. */
    Fault checkPerms(AccessKind kind, const PageFlags &flags,
                     unsigned el) const;

    /** Finish a translation served by TLB entry @p entry: set
     *  res.fault from its permissions and, if none, res.pa. */
    void finishFromEntry(AccessKind kind, const TlbEntry &entry, Addr va,
                         unsigned el, AccessResult &res) const;

    HierarchyConfig cfg_;
    Random *rng_;
    PhysMem phys_;
    PageTable pt_;

    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache slc_;

    Tlb itlbEl0_;
    Tlb itlbEl1_;
    Tlb dtlb_;
    Tlb l2tlb_;

    std::vector<Device *> devices_;          //!< index = ppn - DevicePhysBase/PageSize
    TouchLog *touchLog_ = nullptr;           //!< see attachTouchLog()
    uint64_t flushEpoch_ = 0;                //!< bumped by flushAll()
};

} // namespace pacman::mem

#endif // PACMAN_MEM_HIERARCHY_HH
