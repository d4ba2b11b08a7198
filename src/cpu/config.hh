/**
 * @file
 * Core (pipeline) configuration.
 *
 * Defaults approximate the M1 Firestorm core where the paper depends
 * on its behaviour: a very large speculation window, aggressive
 * branch prediction across nested branches, eager squash on branch
 * resolution, and speculative issue of memory operations. Each of the
 * attack's necessary conditions is an explicit switch so Section 9's
 * countermeasures can be evaluated as ablations.
 */

#ifndef PACMAN_CPU_CONFIG_HH
#define PACMAN_CPU_CONFIG_HH

#include <cstdint>

namespace pacman::cpu
{

/** Pipeline and speculation parameters. */
struct CoreConfig
{
    // --- Widths and windows ---
    unsigned fetchWidth = 8;    //!< instructions fetched per cycle
    unsigned robSize = 630;     //!< Firestorm-class reorder buffer

    // --- Operation latencies (cycles) ---
    uint64_t aluLat = 1;
    uint64_t mulLat = 3;
    uint64_t pacLat = 5;        //!< QARMA pipeline depth
    uint64_t branchResolveLat = 2;  //!< operand-ready to redirect
    uint64_t mrsLat = 3;
    uint64_t redirectPenalty = 10;  //!< squash + refetch bubble
    uint64_t isbDrain = 25;     //!< full pipeline drain on ISB;
                                //!< calibrated so the serialized
                                //!< measurement sequences land on the
                                //!< paper's ~60/80/95/115 cy plateaus
    uint64_t svcLat = 60;       //!< EL0 -> EL1 transition cost
    uint64_t eretLat = 50;      //!< EL1 -> EL0 return cost

    // --- Speculation behaviour (the attack's necessary conditions) ---

    /** Loads/stores may issue before older branches resolve. */
    bool speculativeMemIssue = true;

    /**
     * A nested mispredicted branch is squashed as soon as it
     * resolves, redirecting fetch to its computed target while older
     * branches are still unresolved (Section 4.2's requirement for
     * the instruction PACMAN gadget).
     */
    bool eagerNestedSquash = true;

    /** Faults on squashed paths are suppressed (crash suppression). */
    bool faultSuppression = true;

    // --- Section 9 mitigations (default off) ---

    /**
     * PAC-agnostic execution: an implicit fence after every aut
     * instruction; its result cannot be consumed speculatively.
     */
    bool autFence = false;

    /**
     * STT-style taint: outputs of pointer-authentication instructions
     * are tainted and may not form speculative load/store/branch
     * addresses until the instruction is no longer speculative.
     */
    bool pacTaint = false;

    /**
     * ARMv8.6 FPAC: a failing aut instruction faults immediately
     * instead of producing a poisoned pointer. Note this does NOT
     * stop PACMAN: the speculative fault is still suppressed on
     * squash, and the presence/absence of the transmission access
     * still leaks the verification result (the paper's authors later
     * demonstrated exactly this on the FPAC-enabled M2).
     */
    bool fpac = false;

    // --- Branch prediction ---
    unsigned bimodalEntries = 4096; //!< 2-bit counters
    unsigned btbEntries = 1024;

    // --- Performance (non-architectural) ---

    /**
     * Memoize decoded instructions by physical address (skips
     * isa::decode on hot PCs). Purely a host-side speedup — fetch
     * timing and hierarchy state are identical either way; see
     * cpu/decode_cache.hh. Defaults off in PACMAN_DISABLE_FASTPATH
     * builds so the sanitizer CI leg runs the reference path.
     */
#ifdef PACMAN_DISABLE_FASTPATH
    bool decodeCache = false;
#else
    bool decodeCache = true;
#endif

    /**
     * Execute straight-line runs of committed instructions as cached
     * superblocks via a threaded dispatch loop that skips the
     * per-instruction fetch/decode machinery while replaying its
     * exact microarchitectural side effects (see cpu/superblock.hh).
     * Architectural state, cycle counts and cache/TLB counters are
     * bit-identical either way; independent of decodeCache (either
     * toggles alone). Defaults off in PACMAN_DISABLE_FASTPATH builds
     * so the sanitizer/reference CI legs run the plain interpreter.
     */
#ifdef PACMAN_DISABLE_FASTPATH
    bool superblocks = false;
#else
    bool superblocks = true;
#endif

    /** Longest superblock, in instructions. */
    unsigned superblockMaxOps = 64;

    /**
     * Memoize each superblock's data-side hierarchy walk as a
     * *timing trace*: on first execution, record per memory op the
     * dTLB way and L1D line it hit plus the address it resolved; on
     * re-dispatch, while the per-set generation labels of every
     * touched set still hold (and the entry EL and address registers
     * match), skip the translation + cache walk entirely and replay
     * the recorded hits via Tlb/Cache::rehitN — bit-identical LRU
     * stamps, hit counters, latencies and values (see cpu/
     * superblock.hh). Only consulted when superblocks is on. Defaults
     * off in PACMAN_DISABLE_FASTPATH builds with the rest of the
     * fast path, and under PACMAN_DISABLE_TIMING_TRACES alone (the
     * no-traces CI leg: superblocks run every walk live so a replay
     * bug cannot hide behind its own default).
     */
#if defined(PACMAN_DISABLE_FASTPATH) || \
    defined(PACMAN_DISABLE_TIMING_TRACES)
    bool timingTraces = false;
#else
    bool timingTraces = true;
#endif

    // --- Timers ---
    uint64_t cpuFreqHz = 3'200'000'000; //!< nominal core clock
    uint64_t cntFreqHz = 24'000'000;    //!< CNTPCT (Table 1: 24 MHz)
};

} // namespace pacman::cpu

#endif // PACMAN_CPU_CONFIG_HH
