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

/** The two execution strategies (see CoreConfig::fastPath). */
enum class FastPath : uint8_t
{
    Reference = 0, //!< plain interpreter: fetch + decode every inst
    Full = 1,      //!< decode cache + superblock threaded dispatch
};

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
     * Host-side execution strategy. Full memoizes decoded instructions
     * by physical address (cpu/decode_cache.hh) and runs committed
     * straight-line code as cached superblocks through a threaded
     * dispatch loop (cpu/superblock.hh); Reference is the plain
     * fetch-decode-execute interpreter those layers must match.
     * Architectural state, cycle counts and every cache/TLB counter
     * are bit-identical either way (tests/runner/
     * test_fastpath_equiv.cc). PACMAN_DISABLE_FASTPATH builds default
     * to Reference so the reference/sanitize CI legs run the
     * interpreter.
     */
#ifdef PACMAN_DISABLE_FASTPATH
    FastPath fastPath = FastPath::Reference;
#else
    FastPath fastPath = FastPath::Full;
#endif

    // --- Timers ---
    uint64_t cpuFreqHz = 3'200'000'000; //!< nominal core clock
    uint64_t cntFreqHz = 24'000'000;    //!< CNTPCT (Table 1: 24 MHz)
};

} // namespace pacman::cpu

#endif // PACMAN_CPU_CONFIG_HH
