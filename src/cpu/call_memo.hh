/**
 * @file
 * Exact replay of repeated guest calls on the committed fast path.
 *
 * PACMAN trains the gadget's guard branch with 64 legitimate gadget
 * calls before every oracle query (Section 8.1), and nearly all of them
 * enter in the same state as the call before: the same registers and
 * system registers, the same predictor counters, every access a hit.
 * CallMemo records such a call's net effect on the modelled state once
 * and, when a later call's guards all match, applies that effect and
 * returns the recorded exit status without executing anything. A call
 * that matches no recording runs normally, so the interpreter stays
 * the specification: the memo replays recorded effects and never
 * re-implements an instruction.
 *
 * Pure calls. Only a call that halts within its budget and that a
 * replay can reproduce exactly is recorded: no cache or TLB miss,
 * fill, eviction or invalidation, no store, no device access, no
 * MRS/MSR, no mispredict (so no wrong path) and no BTB miss, and no
 * RNG draw. Core::run records only on FastPath::Full with no trace
 * hook armed. The structures log what the call touches into a
 * mem::TouchLog, and the first impure event spoils it, after which
 * nothing more is logged. A lookup miss is the one event that stands
 * for several: every fill, eviction and random-replacement draw
 * follows a miss, a device access first misses the L1 TLB (device
 * translations are never cached), and no instruction invalidates,
 * flushes or rebases a structure (the host does that between calls).
 * endRecord() asserts the consequence: each structure's clock moved
 * by exactly its hit count.
 *
 * Guards, all of which must match:
 *  - the entry pc (the lookup key), EL and fetch-group phase;
 *  - the recorded retired-instruction count is within the budget;
 *  - the whole register file and the flags;
 *  - the whole system-register array (PAC keys, VBAR, ELR, ...);
 *  - the scoreboard relative to the cycle: every ready time and the
 *    last completion, each clamped to "by this cycle" (every use takes
 *    the max with the current cycle + 1, so earlier values behave the
 *    same; the one that does not, an authenticated branch target's
 *    time, matters only on a BTB miss or a mispredict);
 *  - the hierarchy's latency constants (migration swaps them);
 *  - every cache/TLB way the call touched, by content (valid bit and
 *    key, and for TLBs the frame and permissions). Keys never repeat
 *    within a set, so a matching way is exactly the one every lookup
 *    of the call hits, whatever else the set holds;
 *  - every predictor counter and BTB entry the call read, by value;
 *  - the write generation of every page the call fetched from (the
 *    frames of the iTLB ways it touched) or loaded from (both pages of
 *    a straddling load). A generation names one byte image for good.
 * Only what the call touched is guarded, never whole tables.
 *
 * Effects: the final registers, flags, system registers, EL and pc;
 * the cycle advanced by the recorded delta; the ready times ending
 * after the entry cycle (every one the call wrote does), the last
 * completion and the fetch-group phase; the CoreStats deltas; the
 * final predictor counters (a pure call leaves the BTB as it found
 * it); each touched way's LRU stamp at its structure's entry clock
 * plus the recorded offset, written through the dirty-way journal so
 * snapshot restore stays exact; and each structure's clock and hit
 * count advanced by its recorded hits (a pure call's clock moves by
 * exactly its hit count).
 *
 * Recording costs a copy of the entry state, which traffic that never
 * repeats would pay on every call. Pure calls come in runs (the
 * oracle's training loop), so only a call that follows a pure or
 * replayed call captures its entry state and can become a recording;
 * a run loses its first call to this.
 *
 * Runs. Core::runRepeat() runs one host-prepared call n times with
 * only register, pc and EL writes between the calls. After a replay of
 * recording r and those writes, everything the guards read is a
 * function of r alone, so once two calls of a run in a row replay r,
 * every later call would too (DESIGN.md §4j). skipRepeats() then
 * accounts for all but the last of them in closed form, and the last
 * replays r through replay() (asserted).
 *
 * Recordings are host-side state like the decode cache: not in any
 * snapshot, they survive restore() and are validated on every use.
 * The table is a constant Slots recordings, least recently used out,
 * scanned by entry pc most recently used first: a run of identical
 * calls (every syscall enters at the same pc) pays one guard check.
 */

#ifndef PACMAN_CPU_CALL_MEMO_HH
#define PACMAN_CPU_CALL_MEMO_HH

#include <array>
#include <cstdint>
#include <list>
#include <vector>

#include "cpu/core.hh"

namespace pacman::cpu
{

class CallMemo
{
  public:
    /** Recordings kept, across all entry pcs. */
    static constexpr unsigned Slots = 4;

    /** Attach the touch log to @p core's structures for good. It
     *  logs only between beginRecord() and endRecord(). */
    explicit CallMemo(Core &core);

    /**
     * If a recording at @p core's pc matches its state within
     * @p max_insts, apply it, set *status and return true. Otherwise
     * count the miss under the first guard the most recently used
     * recording at this pc failed (when there is one) and return
     * false, changing nothing.
     */
    bool replay(Core &core, uint64_t max_insts, ExitStatus *status);

    /** Arm the touch log for the call @p core is about to run, and
     *  capture its entry state if the previous call was pure. */
    void beginRecord(Core &core);

    /** Disarm the log; keep the call that just ended with @p status
     *  if it was pure. */
    void endRecord(Core &core, const ExitStatus &status);

    /**
     * Between two calls of a Core::runRepeat() run, @p done of them
     * run so far: if the last two replayed the same recording, account
     * for the next @p m calls in one step and return m; else return 0.
     */
    uint64_t skipRepeats(Core &core, uint64_t done, uint64_t m);

  private:
    /** Table ids beyond the hierarchy's eight arrays. */
    static constexpr uint32_t PredictorTable =
        mem::MemoryHierarchy::NumTouchTables;
    static constexpr uint32_t BtbTable = PredictorTable + 1;

    /**
     * The core's register-level state. Scoreboard times (ready,
     * flagsReady, lastCompletion) are kept relative to a cycle c as
     * rel(t, c): t - c when t is after c, else 0.
     */
    struct CoreState
    {
        std::array<uint64_t, isa::NumRegs> regs{};
        isa::Pstate flags;
        std::array<uint64_t, size_t(isa::SysReg::NumSysRegs)> sysregs{};
        std::array<uint64_t, isa::NumRegs> ready{};
        uint64_t flagsReady = 0;
        uint64_t lastCompletion = 0;
        isa::Addr pc = 0;
        unsigned el = 0;
        unsigned fetchGroup = 0;
    };

    /** A touched way: its content (guard) and final stamp (effect). */
    template <typename Way>
    struct WayRecord
    {
        uint32_t table = 0;
        uint32_t index = 0;
        Way content;
        uint64_t stampOffset = 0; //!< final stamp - entry clock
    };

    struct CounterRecord
    {
        uint32_t index = 0;
        uint8_t before = 0; //!< guard
        uint8_t after = 0;  //!< effect
    };

    struct BtbRecord
    {
        uint32_t index = 0;
        Btb::Entry entry;
    };

    struct PageRecord
    {
        uint64_t page = 0;
        uint64_t gen = 0;
    };

    /** A value per hierarchy structure, by table id. */
    using PerTable =
        std::array<uint64_t, mem::MemoryHierarchy::NumTouchTables>;

    struct Recording
    {
        // Guards. in.ready/flagsReady/lastCompletion are relative to
        // the entry cycle.
        CoreState in;
        uint64_t insts = 0;
        mem::LatencyConfig lat;
        std::vector<WayRecord<mem::CacheLine>> lines;
        std::vector<WayRecord<mem::TlbWay>> tlbWays;
        std::vector<CounterRecord> counters;
        std::vector<BtbRecord> btb;
        std::vector<PageRecord> pages;

        // Effects. out.ready/flagsReady/lastCompletion are relative to
        // the entry cycle; 0 keeps the live value.
        CoreState out;
        uint64_t cycles = 0;
        CoreStats stats;
        PerTable hits{}; //!< hits per structure (= its clock's advance)
        ExitStatus exit;
    };

    /** The live state a recording starts from. */
    struct Start
    {
        CoreState state;
        uint64_t cycle = 0;
        CoreStats stats;
        PerTable ticks{}; //!< clocks at entry
        PerTable hits{};
    };

    /** First guard of @p r that @p core fails, or NumCallGuards. */
    CallGuard check(const Recording &r, Core &core,
                    uint64_t max_insts) const;

    void apply(const Recording &r, Core &core, ExitStatus *status);

    /** Land the scoreboard times @p r set at their recorded distance
     *  past @p entry; one it left alone keeps its live value. */
    static void settle(const Recording &r, Core &core, uint64_t entry);

    /** The live state of @p core, scoreboard relative to @p base. */
    static void capture(const Core &core, uint64_t base,
                        CoreState *state);

    /** At most Slots recordings, most recently used first. */
    std::list<Recording> table_;
    mem::TouchLog log_;
    Start start_;

    /** The previous call was replayed or ran pure (see the file
     *  comment on why only its successor captures). */
    bool lastPure_ = true;
    bool captured_ = false; //!< start_ holds this call's entry state

    uint64_t streak_ = 0;     //!< calls in a row table_.front() replayed
    bool mustReplay_ = false; //!< skipRepeats() ran: the next call
                              //!< replays table_.front()
};

} // namespace pacman::cpu

#endif // PACMAN_CPU_CALL_MEMO_HH
