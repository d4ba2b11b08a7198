/**
 * @file
 * Memory-hierarchy geometry and latency configuration, with presets
 * matching the paper's M1 measurements (Table 2 and Section 7).
 */

#ifndef PACMAN_MEM_CONFIG_HH
#define PACMAN_MEM_CONFIG_HH

#include <cstdint>
#include <string>

namespace pacman::mem
{

/** Geometry of one set-associative structure (cache or TLB). */
struct SetAssocConfig
{
    std::string name;    //!< for traces and stats
    unsigned ways = 1;
    unsigned sets = 1;   //!< must be a power of two
    unsigned lineBytes = 64; //!< ignored by TLBs (page-granular)

    /**
     * Hash the set index (XOR-fold upper line-address bits). Large
     * outer caches (L2/SLC) use hashed/sliced indexing, which is why
     * the paper's Figure 5(b) strides alias the L1D and the TLBs but
     * not the L2: reproduce that by hashing L2/SLC indices.
     */
    bool hashedIndex = false;

    uint64_t
    capacityBytes() const
    {
        return uint64_t(ways) * sets * lineBytes;
    }
};

/** Replacement policies supported by caches and TLBs. */
enum class ReplPolicy
{
    LRU,     //!< true least-recently-used (default)
    Random,  //!< uniform random victim (ablation of P+P sensitivity)
};

/**
 * Latency constants, in core cycles. The totals these compose to are
 * calibrated against the plateaus in the paper's Figure 5 and
 * Figure 7 (~60/80/95/110/115/130 cycles measured with the Apple
 * performance counter, which include ~56 cycles of measurement
 * overhead from the serialized counter-read sequence).
 */
struct LatencyConfig
{
    uint64_t l1Hit = 4;        //!< L1 load-to-use
    uint64_t l2Hit = 24;       //!< L1 miss, L2 hit
    uint64_t slcHit = 45;      //!< L2 miss, system-level cache hit
    uint64_t dram = 90;        //!< full miss
    uint64_t l1TlbMissPenalty = 35;  //!< L1 TLB miss, L2 TLB hit
    uint64_t walkPenalty = 55;       //!< L2 TLB miss, page-table walk
    uint64_t itlbSpillProbe = 8;     //!< iTLB miss served by the dTLB
    uint64_t device = 10;      //!< uncacheable device access (timer)

    bool operator==(const LatencyConfig &) const = default;
};

/** Full hierarchy configuration for one core type. */
struct HierarchyConfig
{
    std::string coreType;      //!< "p-core" or "e-core"

    SetAssocConfig l1i;
    SetAssocConfig l1d;        //!< observed (effective) geometry
    SetAssocConfig l2;
    SetAssocConfig slc;

    SetAssocConfig itlb;       //!< per-exception-level L1 iTLB
    SetAssocConfig dtlb;       //!< shared L1 dTLB
    SetAssocConfig l2tlb;      //!< shared L2 TLB

    ReplPolicy replPolicy = ReplPolicy::LRU;
    LatencyConfig lat;

    /**
     * Architectural (register-visible) L1D associativity. The paper's
     * footnote 5 observes conflicts at half the associativity the
     * system registers report; we model the observed geometry but
     * report the architectural value through CCSIDR (Table 2).
     */
    unsigned l1dArchWays = 8;
    unsigned l1dArchSets = 256;

    /**
     * Mitigation hook (Section 9, delay-on-miss): when true,
     * speculative accesses that miss in a TLB do not allocate TLB
     * state (the transmission channel is closed).
     */
    bool delayOnMiss = false;
};

/** The paper's M1 performance-core hierarchy (Table 2 + Figure 6). */
HierarchyConfig m1PCoreConfig();

/** The M1 efficiency-core hierarchy (Table 2; TLBs not paper-derived). */
HierarchyConfig m1ECoreConfig();

/**
 * E-core latency constants, in victim-core cycles. Used by the core-
 * migration fault: an attacker rescheduled onto an e-core sees every
 * memory level further away (smaller caches, lower clock relative to
 * the fabric), which shifts the whole Figure 7 latency histogram and
 * invalidates a threshold calibrated on the p-core.
 */
LatencyConfig m1ECoreLatency();

} // namespace pacman::mem

#endif // PACMAN_MEM_CONFIG_HH
