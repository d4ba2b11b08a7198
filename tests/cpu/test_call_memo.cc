/**
 * @file
 * Guest-call replay (cpu/call_memo.hh). Each guard test trains the
 * data gadget until its calls replay, breaks one guard on a Full and a
 * Reference machine alike, and runs eight more calls: exactly the first
 * must miss under that guard and execute, the other seven replay, and
 * both machines must end in the identical full state
 * (tests/state_dump.hh). Further tests show that impure calls are never
 * recorded, that only a call after a pure one is, that a trace hook or
 * FastPath::Reference turns replay off, and that replayed stamps rewind
 * through snapshot restore. One relational case per run-state field
 * (after Scam-V's relational testing, arXiv 2007.06865) changes that
 * field before a call that would replay: Full must execute the call and
 * end in Reference's full state, and a snapshot restore must undo the
 * change. The CallRepeat tests show that a run of identical calls
 * through Machine::callRepeat() ends in the state, and with the
 * SuperblockStats, of the plain loop of Machine::call().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "asm/assembler.hh"
#include "attack/runtime.hh"
#include "isa/encoding.hh"
#include "kernel/layout.hh"
#include "kernel/machine.hh"
#include "state_dump.hh"

namespace pacman
{
namespace
{

using namespace pacman::kernel;
using attack::AttackerProcess;
using cpu::CallGuard;
using cpu::FastPath;
using testing_support::fullStateDump;
using testing_support::sameState;

MachineConfig
configFor(FastPath fast_path)
{
    MachineConfig cfg = defaultMachineConfig();
    cfg.core.fastPath = fast_path;
    return cfg;
}

/** An attacker process set up to train the data (or instruction)
 *  gadget with a legitimately signed pointer, as the oracle does. */
struct Rig
{
    explicit Rig(FastPath fast_path, uint16_t gadget = SYS_GADGET_DATA)
        : machine(configFor(fast_path)), proc(machine), gadget(gadget)
    {
        proc.syscall(SYS_SET_MODIFIER, 0x6D0D);
        legit = proc.syscall(gadget == SYS_GADGET_DATA
                                 ? SYS_GET_LEGIT_DATA
                                 : SYS_GET_LEGIT_INST);
        proc.syscall(SYS_SET_COND, 1);
    }

    void
    train(unsigned calls)
    {
        for (unsigned i = 0; i < calls; ++i)
            proc.syscall(gadget, legit);
    }

    const cpu::SuperblockStats &memo() const
    {
        return machine.core().superblockStats();
    }

    Machine machine;
    AttackerProcess proc;
    uint16_t gadget;
    uint64_t legit = 0;
};

uint64_t
totalMisses(const cpu::SuperblockStats &s)
{
    uint64_t n = 0;
    for (const uint64_t m : s.replayMisses)
        n += m;
    return n;
}

/**
 * Warm both rigs up, apply @p brk to each, then run @p first_call and
 * seven training calls on each. Full must replay exactly the seven,
 * count one miss in all and that one under @p guard, and dump the same
 * full state as Reference.
 */
void
expectOneMissUnder(
    CallGuard guard, const std::function<void(Rig &)> &brk,
    uint16_t gadget = SYS_GADGET_DATA,
    const std::function<void(Rig &)> &first_call = [](Rig &r) {
        r.train(1);
    })
{
    Rig full(FastPath::Full, gadget);
    Rig ref(FastPath::Reference, gadget);
    for (Rig *r : {&full, &ref})
        r->train(8);
    const cpu::SuperblockStats before = full.memo();
    ASSERT_GE(before.callsReplayed, 4u) << "warm-up never replayed";
    for (Rig *r : {&full, &ref}) {
        brk(*r);
        first_call(*r);
        r->train(7);
    }
    const cpu::SuperblockStats &after = full.memo();
    EXPECT_EQ(after.callsReplayed - before.callsReplayed, 7u);
    EXPECT_EQ(after.replayMisses[size_t(guard)] -
                  before.replayMisses[size_t(guard)],
              1u)
        << cpu::callGuardName(guard);
    EXPECT_EQ(totalMisses(after) - totalMisses(before), 1u);
    EXPECT_EQ(ref.memo().callsReplayed, 0u);
    EXPECT_TRUE(
        sameState(fullStateDump(full.machine), fullStateDump(ref.machine)));
}

/** Set the core up exactly as AttackerProcess::syscall(num, a0)
 *  does, without running it. */
void
startSyscall(Rig &r, uint16_t num, uint64_t a0)
{
    cpu::Core &core = r.machine.core();
    core.setReg(isa::X16, num);
    core.setEl(0);
    core.setPc(UserCodeBase); // r_syscall: svc #0; hlt #0
    core.setReg(0, a0);
    core.setReg(1, 0);
    core.setReg(2, 0);
}

/** Modify the core's state through a snapshot round trip (the only
 *  host path to the fetch-group phase and the scoreboard). */
void
editCore(Rig &r, const std::function<void(cpu::Core::Snapshot &)> &edit)
{
    cpu::Core::Snapshot snap = r.machine.core().takeSnapshot();
    edit(snap);
    r.machine.core().restore(snap);
}

TEST(CallMemo, EntryGuardFetchGroupPhase)
{
    expectOneMissUnder(CallGuard::Entry, [](Rig &r) {
        editCore(r, [](cpu::Core::Snapshot &s) {
            s.fetchGroup = (s.fetchGroup + 3) % 8;
        });
    });
}

TEST(CallMemo, BudgetGuard)
{
    // The first call gets 3 instructions: it stops mid-dispatcher, and
    // its remainder (entered at a pc no recording starts at) runs on.
    expectOneMissUnder(
        CallGuard::Budget, [](Rig &) {}, SYS_GADGET_DATA, [](Rig &r) {
            startSyscall(r, SYS_GADGET_DATA, r.legit);
            cpu::Core &core = r.machine.core();
            EXPECT_EQ(core.run(3).kind, cpu::ExitKind::MaxInsts);
            EXPECT_EQ(core.run().kind, cpu::ExitKind::Halted);
        });
}

TEST(CallMemo, RegisterGuard)
{
    // x20 is never read by the call; only the guard notices it.
    expectOneMissUnder(CallGuard::Registers, [](Rig &r) {
        r.machine.core().setReg(20, 0x1234);
    });
}

TEST(CallMemo, FlagsAreGuardedWithRegisters)
{
    expectOneMissUnder(CallGuard::Registers, [](Rig &r) {
        editCore(r, [](cpu::Core::Snapshot &s) { s.flags.n = !s.flags.n; });
    });
}

TEST(CallMemo, SysRegGuard)
{
    // A key the gadget does not use: it must still be guarded.
    expectOneMissUnder(CallGuard::SysRegs, [](Rig &r) {
        cpu::Core &core = r.machine.core();
        core.setSysreg(isa::SysReg::APGAKEY_LO,
                       core.sysreg(isa::SysReg::APGAKEY_LO) ^ 1);
    });
}

TEST(CallMemo, ScoreboardGuardReadyTime)
{
    // x0, the pointer the gadget authenticates, is not ready until 40
    // cycles after entry. (AttackerProcess::syscall would reset its
    // ready time, so the call is set up by hand.)
    expectOneMissUnder(
        CallGuard::Scoreboard, [](Rig &) {}, SYS_GADGET_DATA,
        [](Rig &r) {
            startSyscall(r, SYS_GADGET_DATA, r.legit);
            editCore(r, [](cpu::Core::Snapshot &s) {
                s.ready[0] = s.cycle + 40;
            });
            EXPECT_EQ(r.machine.core().run().kind,
                      cpu::ExitKind::Halted);
        });
}

TEST(CallMemo, ScoreboardGuardLastCompletion)
{
    // Pending work at entry: the call's SVC serializes behind it.
    expectOneMissUnder(CallGuard::Scoreboard, [](Rig &r) {
        editCore(r, [](cpu::Core::Snapshot &s) {
            s.lastCompletion = s.cycle + 40;
        });
    });
}

TEST(CallMemo, ScoreboardGuardFlagsReady)
{
    expectOneMissUnder(CallGuard::Scoreboard, [](Rig &r) {
        editCore(r, [](cpu::Core::Snapshot &s) {
            s.flagsReady = s.cycle + 40;
        });
    });
}

TEST(CallMemo, LatencyGuard)
{
    expectOneMissUnder(CallGuard::Latency,
                       [](Rig &r) { r.machine.migrateCore(true); });
}

TEST(CallMemo, WayGuardCacheLine)
{
    // The busy slot's L1D line leaves; the call misses once and refills
    // it into the same (lowest invalid) way.
    expectOneMissUnder(CallGuard::Ways, [](Rig &r) {
        const auto pa = r.machine.mem().translateFunctional(
            KernelDataBase + BusySlotOff);
        ASSERT_TRUE(pa.has_value());
        ASSERT_TRUE(r.machine.mem().l1d().contains(*pa));
        r.machine.mem().l1d().invalidate(*pa);
    });
}

TEST(CallMemo, WayGuardTlbEntry)
{
    expectOneMissUnder(CallGuard::Ways, [](Rig &r) {
        const uint64_t vpn = isa::pageNumber(isa::vaPart(BenignDataBase));
        ASSERT_TRUE(r.machine.mem().dtlb().remove(vpn, mem::Asid::Kernel));
    });
}

TEST(CallMemo, PredictorGuard)
{
    // The gadget's busy check (CBZ, always taken) drops from strongly
    // to weakly taken: still predicted right, so the call stays pure,
    // but it reads 2, not 3. (No warm-up call saw that state: the one
    // that trained this counter from 2 to 3 mispredicted elsewhere.)
    expectOneMissUnder(CallGuard::Predictor, [](Rig &r) {
        isa::Addr cbz = r.machine.kernel().symbol("h_gadget_data");
        while (isa::decode(uint32_t(r.machine.mem().readVirt(cbz, 4)))
                   ->op != isa::Opcode::CBZ)
            cbz += isa::InstBytes;
        cpu::BimodalPredictor &bp = r.machine.core().predictor();
        ASSERT_TRUE(bp.predict(cbz));
        bp.update(cbz, false);
        ASSERT_TRUE(bp.predict(cbz));
    });
}

TEST(CallMemo, BtbGuard)
{
    // The instruction gadget's BLR and RET read the BTB.
    expectOneMissUnder(
        CallGuard::Predictor,
        [](Rig &r) { r.machine.core().btb().reset(); }, SYS_GADGET_INST);
}

TEST(CallMemo, PageGuardLoadedPage)
{
    // Same bytes, fresh write generation.
    expectOneMissUnder(CallGuard::Pages, [](Rig &r) {
        r.machine.mem().writeVirt64(KernelDataBase + BusySlotOff, 0);
    });
}

TEST(CallMemo, PageGuardFetchedPage)
{
    expectOneMissUnder(CallGuard::Pages, [](Rig &r) {
        const isa::Addr va = r.machine.kernel().symbol("h_gadget_data");
        mem::MemoryHierarchy &h = r.machine.mem();
        h.writeVirt(va, h.readVirt(va, 4), 4);
    });
}

TEST(CallMemo, PageGuardStraddlingLoad)
{
    // SYS_TOUCH_DATA loads 8 bytes at benign data + x0; at 4 bytes
    // before a page end the load reads two pages, and the second one's
    // generation must be guarded too.
    const uint64_t off = isa::PageSize - 4;
    const isa::Addr second = BenignDataBase + isa::PageSize;
    Rig full(FastPath::Full), ref(FastPath::Reference);
    const auto touch = [off](Rig &r) {
        r.proc.syscall(SYS_TOUCH_DATA, off);
    };
    for (Rig *r : {&full, &ref})
        for (int i = 0; i < 8; ++i)
            touch(*r);
    cpu::SuperblockStats before = full.memo();
    ASSERT_GE(before.callsReplayed, 4u);

    // Same bytes, fresh generation: one call misses, the rest replay.
    for (Rig *r : {&full, &ref}) {
        r->machine.mem().writeVirt64(
            second, r->machine.mem().readVirt64(second));
        for (int i = 0; i < 8; ++i)
            touch(*r);
    }
    EXPECT_EQ(full.memo().callsReplayed - before.callsReplayed, 7u);
    EXPECT_EQ(full.memo().replayMisses[size_t(CallGuard::Pages)] -
                  before.replayMisses[size_t(CallGuard::Pages)],
              1u);
    EXPECT_EQ(totalMisses(full.memo()) - totalMisses(before), 1u);

    // New bytes: a replay would hand back the stale x10.
    for (Rig *r : {&full, &ref}) {
        r->machine.mem().writeVirt64(second, 0x1122334455667788ull);
        touch(*r);
    }
    EXPECT_EQ(full.machine.core().reg(10), ref.machine.core().reg(10));
    EXPECT_TRUE(
        sameState(fullStateDump(full.machine), fullStateDump(ref.machine)));
}

TEST(CallMemo, ImpureCallsAreNeverRecorded)
{
    // Each impure call runs on a freshly trained rig, four times, so
    // that from the third run on (the predictor has learnt its
    // branches, its lines and translations are in) the named event is
    // the only thing keeping it from being recorded.
    const auto expect_unrecorded =
        [](const char *what, uint16_t gadget,
           const std::function<void(Rig &)> &setup,
           const std::function<void(Rig &)> &call, unsigned runs = 4) {
            Rig r(FastPath::Full, gadget);
            r.train(8);
            setup(r);
            const uint64_t n = r.memo().callsRecorded;
            for (unsigned i = 0; i < runs; ++i)
                call(r);
            EXPECT_EQ(r.memo().callsRecorded, n) << what;
        };
    const auto none = [](Rig &) {};
    expect_unrecorded("store", SYS_GADGET_DATA, none,
                      [](Rig &r) { r.proc.syscall(SYS_SET_COND, 1); });
    expect_unrecorded("MSR", SYS_GADGET_DATA, none, [](Rig &r) {
        r.proc.syscall(SYS_ENABLE_PMC_EL0);
    });
    expect_unrecorded("MRS", SYS_GADGET_DATA, none,
                      [](Rig &r) { r.proc.readCntpct(); });
    expect_unrecorded("device read", SYS_GADGET_DATA, none,
                      [](Rig &r) { r.proc.timedLoad(NoiseArena); });
    expect_unrecorded(
        "cache and TLB misses", SYS_GADGET_DATA, none, [](Rig &r) {
            // A fresh page each time.
            static unsigned page = 0;
            r.proc.loadAll({NoiseArena + (++page % 512) * isa::PageSize});
        });
    // The trained guard branch now sees cond = 0: the next two calls
    // mispredict (strongly, then weakly taken).
    expect_unrecorded(
        "mispredict", SYS_GADGET_DATA,
        [](Rig &r) { r.proc.syscall(SYS_SET_COND, 0); },
        [](Rig &r) { r.train(1); }, 2);
    // The instruction gadget's BLR and RET after a BTB reset: the front
    // end stalls for the target.
    expect_unrecorded(
        "BTB miss", SYS_GADGET_INST, none,
        [](Rig &r) {
            r.machine.core().btb().reset();
            r.train(1);
        });
    expect_unrecorded("breakpoint exit", SYS_GADGET_DATA, none,
                      [](Rig &r) {
                          // An unknown syscall number falls through the
                          // dispatcher to its brk.
                          r.machine.core().setReg(isa::X16, 0xBAD);
                          EXPECT_EQ(r.machine.runGuest(UserCodeBase, {0})
                                        .kind,
                                    cpu::ExitKind::Breakpoint);
                      });
    expect_unrecorded("budget exhausted", SYS_GADGET_DATA, none,
                      [](Rig &r) {
                          startSyscall(r, SYS_GADGET_DATA, r.legit);
                          r.machine.core().run(2);
                      });
}

TEST(CallMemo, RecordsOnlyAfterAPureCall)
{
    // Pure calls come in runs, so a call captures its entry state only
    // after a pure or replayed one. After an impure call the first call
    // of a new run executes unrecorded, the second becomes a recording
    // and the third replays it.
    Rig r(FastPath::Full);
    r.train(8);
    r.proc.syscall(SYS_SET_COND, 1);     // a store: impure
    r.machine.core().setReg(20, 0x1234); // no recording matches
    const cpu::SuperblockStats before = r.memo();
    r.train(1);
    EXPECT_EQ(r.memo().callsRecorded, before.callsRecorded);
    r.train(1);
    EXPECT_EQ(r.memo().callsRecorded - before.callsRecorded, 1u);
    EXPECT_EQ(r.memo().callsReplayed, before.callsReplayed);
    r.train(1);
    EXPECT_EQ(r.memo().callsReplayed - before.callsReplayed, 1u);
}

TEST(CallMemo, ReplaysOnlyOnFullWithoutTraceHook)
{
    Rig full(FastPath::Full), ref(FastPath::Reference), hooked(FastPath::Full);
    uint64_t traced = 0;
    hooked.machine.core().setTraceHook(
        [&traced](const cpu::TraceRecord &) { ++traced; });
    for (Rig *r : {&full, &ref, &hooked})
        r->train(16);
    EXPECT_GT(full.memo().callsReplayed, 0u);
    EXPECT_GT(full.memo().instsReplayed, 0u);
    EXPECT_EQ(ref.memo().callsReplayed, 0u);
    EXPECT_EQ(ref.memo().callsRecorded, 0u);
    EXPECT_EQ(hooked.memo().callsReplayed, 0u);
    EXPECT_EQ(hooked.memo().callsRecorded, 0u);
    EXPECT_GT(traced, 0u);
    // Every instruction the replays skipped is still counted retired.
    EXPECT_EQ(full.machine.core().stats().instsRetired,
              ref.machine.core().stats().instsRetired);
}

TEST(CallMemo, ReplayedStampsRewindThroughSnapshotRestore)
{
    // Replays stamp ways through the dirty-way journal, so a restore
    // rewinds them. The dumps bracket snapshot and restore; a dump in
    // between would re-arm the journals and hide a missed journal
    // entry.
    Rig full(FastPath::Full), ref(FastPath::Reference);
    full.train(8);
    const std::string before = fullStateDump(full.machine);
    const Machine::Snapshot snap = full.machine.takeSnapshot();
    const uint64_t replayed = full.memo().callsReplayed;
    full.train(8);
    ASSERT_EQ(full.memo().callsReplayed - replayed, 8u);
    full.machine.restore(snap);
    EXPECT_TRUE(sameState(fullStateDump(full.machine), before));

    // The recordings survive the restore and replay on.
    full.train(8);
    EXPECT_EQ(full.memo().callsReplayed - replayed, 16u);

    // Reference runs the same sequence and ends in the same state.
    ref.train(8);
    const Machine::Snapshot ref_snap = ref.machine.takeSnapshot();
    ref.train(8);
    ref.machine.restore(ref_snap);
    ref.train(8);
    EXPECT_TRUE(
        sameState(fullStateDump(full.machine), fullStateDump(ref.machine)));
}

/** A run-state field, named by hand (not from Core::RunState's lists),
 *  with the guard a change to it fails and an edit that changes it
 *  given a random word. */
struct FieldEdit
{
    std::string name;
    CallGuard guard;
    std::function<void(cpu::Core::Snapshot &, uint64_t)> edit;
};

/** A time past both @p t and the cycle: a call entering now waits for
 *  it longer than for @p t. */
uint64_t
later(const cpu::Core::Snapshot &s, uint64_t t, uint64_t x)
{
    return std::max(t, s.cycle) + 1 + x % 64;
}

/** Every run-state field a replay guards. */
std::vector<FieldEdit>
guardedFields()
{
    using Snap = cpu::Core::Snapshot;
    std::vector<FieldEdit> f;
    for (unsigned r = 0; r < isa::NumRegs; ++r) {
        const std::string x = "x" + std::to_string(r);
        f.push_back({x, CallGuard::Registers,
                     [r](Snap &s, uint64_t v) { s.regs[r] ^= v | 1; }});
        f.push_back({"ready " + x, CallGuard::Scoreboard,
                     [r](Snap &s, uint64_t v) {
                         s.ready[r] = later(s, s.ready[r], v);
                     }});
    }
    for (size_t i = 0; i < size_t(isa::SysReg::NumSysRegs); ++i)
        f.push_back({isa::sysRegName(isa::SysReg(i)), CallGuard::SysRegs,
                     [i](Snap &s, uint64_t v) { s.sysregs[i] ^= v | 1; }});
    f.push_back({"flag n", CallGuard::Registers,
                 [](Snap &s, uint64_t) { s.flags.n = !s.flags.n; }});
    f.push_back({"flag z", CallGuard::Registers,
                 [](Snap &s, uint64_t) { s.flags.z = !s.flags.z; }});
    f.push_back({"flag c", CallGuard::Registers,
                 [](Snap &s, uint64_t) { s.flags.c = !s.flags.c; }});
    f.push_back({"flag v", CallGuard::Registers,
                 [](Snap &s, uint64_t) { s.flags.v = !s.flags.v; }});
    f.push_back({"el", CallGuard::Entry,
                 [](Snap &s, uint64_t) { s.el ^= 1; }});
    const unsigned width = defaultMachineConfig().core.fetchWidth;
    f.push_back({"fetch-group phase", CallGuard::Entry,
                 [width](Snap &s, uint64_t v) {
                     s.fetchGroup =
                         (s.fetchGroup + 1 + v % (width - 1)) % width;
                 }});
    f.push_back({"flagsReady", CallGuard::Scoreboard,
                 [](Snap &s, uint64_t v) {
                     s.flagsReady = later(s, s.flagsReady, v);
                 }});
    f.push_back({"lastCompletion", CallGuard::Scoreboard,
                 [](Snap &s, uint64_t v) {
                     s.lastCompletion = later(s, s.lastCompletion, v);
                 }});
    return f;
}

/** Budget of an edited call: an edit may send it astray. */
constexpr uint64_t EditedCallBudget = 20'000;

TEST(CallMemo, EveryRunStateFieldIsGuarded)
{
    Rig full(FastPath::Full), ref(FastPath::Reference);
    for (Rig *r : {&full, &ref})
        r->train(8);
    const Machine::Snapshot warm_full = full.machine.takeSnapshot();
    const Machine::Snapshot warm_ref = ref.machine.takeSnapshot();
    std::mt19937_64 rng(1);
    for (const FieldEdit &field : guardedFields()) {
        SCOPED_TRACE(field.name);
        const uint64_t v = rng();
        full.machine.restore(warm_full);
        ref.machine.restore(warm_ref);
        // Unchanged, the call replays: the warm-up's recording is at
        // the front of the table again.
        const cpu::SuperblockStats before = full.memo();
        full.train(1);
        ref.train(1);
        ASSERT_EQ(full.memo().callsReplayed - before.callsReplayed, 1u);

        for (Rig *r : {&full, &ref}) {
            startSyscall(*r, SYS_GADGET_DATA, r->legit);
            editCore(*r, [&](cpu::Core::Snapshot &s) { field.edit(s, v); });
            r->machine.core().run(EditedCallBudget);
        }
        const cpu::SuperblockStats &after = full.memo();
        EXPECT_EQ(after.callsReplayed - before.callsReplayed, 1u);
        EXPECT_EQ(after.replayMisses[size_t(field.guard)] -
                      before.replayMisses[size_t(field.guard)],
                  1u)
            << cpu::callGuardName(field.guard);
        EXPECT_TRUE(sameState(fullStateDump(full.machine),
                              fullStateDump(ref.machine)));
    }
}

TEST(CallMemo, SnapshotRestoreRewindsEveryRunStateField)
{
    std::vector<FieldEdit> fields = guardedFields();
    fields.push_back({"pc", CallGuard::Entry,
                      [](cpu::Core::Snapshot &s, uint64_t v) {
                          s.pc ^= (v | 1) << 2;
                      }});
    fields.push_back({"cycle", CallGuard::Scoreboard,
                      [](cpu::Core::Snapshot &s, uint64_t v) {
                          s.cycle += 1 + v % 64;
                      }});
    Rig r(FastPath::Full);
    r.train(8);
    cpu::Core &core = r.machine.core();
    const std::string before = fullStateDump(r.machine);
    const cpu::Core::Snapshot snap = core.takeSnapshot();
    std::mt19937_64 rng(2);
    for (const FieldEdit &field : fields) {
        SCOPED_TRACE(field.name);
        const uint64_t v = rng();
        editCore(r, [&](cpu::Core::Snapshot &s) { field.edit(s, v); });
        EXPECT_FALSE(sameState(fullStateDump(r.machine), before));
        core.restore(snap);
        EXPECT_TRUE(sameState(fullStateDump(r.machine), before));
    }
}

/** Every SuperblockStats counter under its metric name. */
std::string
statsText(const cpu::SuperblockStats &stats)
{
    std::string text;
    cpu::SuperblockStats::forEachField(
        [&text](std::string_view name, const char *, uint64_t value) {
            text += std::string(name) + "=" + std::to_string(value) + "\n";
        },
        stats);
    return text;
}

/**
 * Four rigs run the same guest work, each run of identical calls as
 * one Machine::callRepeat() run (`repeat`) or as the plain loop of
 * calls (`loop`), on FastPath::Full and FastPath::Reference. All four
 * must end in the same full state, and the two Full rigs with the same
 * SuperblockStats: a run changes how replays are paid for, not how
 * many there are.
 */
struct RepeatRigs
{
    explicit RepeatRigs(uint16_t gadget = SYS_GADGET_DATA)
        : repeat(FastPath::Full, gadget), loop(FastPath::Full, gadget),
          refRepeat(FastPath::Reference, gadget),
          refLoop(FastPath::Reference, gadget)
    {
    }

    /** @p fn(rig, run as one callRepeat() run) on every rig. */
    void
    each(const std::function<void(Rig &, bool)> &fn)
    {
        fn(repeat, true);
        fn(loop, false);
        fn(refRepeat, true);
        fn(refLoop, false);
    }

    void
    expectSame()
    {
        EXPECT_EQ(statsText(repeat.memo()), statsText(loop.memo()));
        const std::string dump = fullStateDump(loop.machine);
        EXPECT_TRUE(sameState(fullStateDump(repeat.machine), dump));
        EXPECT_TRUE(sameState(fullStateDump(refRepeat.machine), dump));
        EXPECT_TRUE(sameState(fullStateDump(refLoop.machine), dump));
    }

    Rig repeat, loop, refRepeat, refLoop;
};

/** @p n training calls, as the oracle's train() makes them. */
void
trainRun(Rig &r, bool as_run, unsigned n)
{
    r.proc.syscall(SYS_SET_COND, 1);
    if (as_run)
        r.proc.syscallRepeat(r.gadget, r.legit, n);
    else
        r.train(n);
}

/** The rest of an oracle query after its training: disarm, evict a
 *  translation the gadget uses as the reset would, fire a wrong
 *  guess. */
void
fireGuess(Rig &r)
{
    r.proc.syscall(SYS_SET_COND, 0);
    r.machine.mem().dtlb().remove(
        isa::pageNumber(isa::vaPart(BenignDataBase)), mem::Asid::Kernel);
    r.proc.syscall(r.gadget, r.legit ^ (uint64_t(1) << 50));
}

TEST(CallRepeat, TrainingRunsMatchTheLoopOfCalls)
{
    for (const uint16_t gadget : {SYS_GADGET_DATA, SYS_GADGET_INST}) {
        for (const unsigned n : {0u, 1u, 2u, 3u, 64u}) {
            SCOPED_TRACE(testing::Message()
                         << "gadget " << gadget << ", n " << n);
            // The first run meets a cold memo: its first calls record
            // and any bulk step starts later. The next runs start from
            // a query's aftermath, with older recordings in the table.
            RepeatRigs rigs(gadget);
            for (int query = 0; query < 3; ++query) {
                rigs.each([n](Rig &r, bool as_run) {
                    trainRun(r, as_run, n);
                    fireGuess(r);
                });
            }
            rigs.expectSame();
            if (n == 64) {
                EXPECT_GE(rigs.repeat.memo().callsReplayed, 3u * 55u);
            }
        }
    }
}

TEST(CallRepeat, BackoffRunOfNops)
{
    RepeatRigs rigs;
    rigs.each([](Rig &r, bool as_run) {
        for (const unsigned n : {8u, 16u, 128u}) {
            if (as_run) {
                r.proc.syscallRepeat(SYS_NOP, 0, n);
            } else {
                for (unsigned i = 0; i < n; ++i)
                    r.proc.syscall(SYS_NOP);
            }
            fireGuess(r);
        }
    });
    rigs.expectSame();
    EXPECT_GE(rigs.repeat.memo().callsReplayed, 140u);
}

TEST(CallRepeat, TraceHookTakesNoBulkStep)
{
    // With a hook armed every call executes, so the hook sees every
    // instruction of the run.
    RepeatRigs rigs;
    uint64_t traced_repeat = 0, traced_loop = 0;
    rigs.repeat.machine.core().setTraceHook(
        [&](const cpu::TraceRecord &) { ++traced_repeat; });
    rigs.loop.machine.core().setTraceHook(
        [&](const cpu::TraceRecord &) { ++traced_loop; });
    rigs.each([](Rig &r, bool as_run) { trainRun(r, as_run, 64); });
    EXPECT_EQ(traced_repeat, traced_loop);
    EXPECT_GT(traced_repeat, 64u * 20u);
    EXPECT_EQ(rigs.repeat.memo().callsReplayed, 0u);
    rigs.expectSame();
}

TEST(CallRepeat, ScoreboardTimePastTheCallsEnd)
{
    // A call of four dependent loads through a self-pointer that halts
    // before they complete: x9 and the last completion stay pending
    // past its end, so a call enters with the previous one's loads in
    // flight. The first call after a pause (the host advances the
    // cycle) enters with none and replays, or records, another
    // recording than the calls after it. Three nops make the call one
    // fetch group long, so every call enters at the same phase.
    constexpr isa::Addr code = JitBase;
    const isa::Addr data = UserDataBase + 200 * isa::PageSize;
    RepeatRigs rigs;
    rigs.each([&](Rig &r, bool) {
        mem::MemoryHierarchy &h = r.machine.mem();
        h.mapPage(code, mem::PageFlags{.user = true, .writable = true,
                                       .executable = true,
                                       .device = false});
        asmjit::Assembler a(code);
        a.ldr(isa::X9, isa::X1, 0);
        for (int i = 0; i < 3; ++i)
            a.ldr(isa::X9, isa::X9, 0);
        for (int i = 0; i < 3; ++i)
            a.nop();
        a.hlt(0);
        const asmjit::Program p = a.finalize();
        for (size_t i = 0; i < p.words.size(); ++i)
            h.writeVirt(code + i * isa::InstBytes, p.words[i], 4);
        r.proc.ensureMapped(data);
        h.writeVirt64(data, data);
    });
    // The warm-up's first call misses all the way to DRAM, and the
    // calls after it enter with that tail still in flight: none of
    // them matches another, and each records.
    for (Rig *r : {&rigs.repeat, &rigs.loop, &rigs.refRepeat, &rigs.refLoop})
        for (int i = 0; i < 4; ++i)
            r->machine.call(code, {0, data});
    const std::initializer_list<cpu::RegWrite> regs = {{0, 0}, {1, data}};
    rigs.each([&](Rig &r, bool as_run) {
        for (const unsigned n : {64u, 64u, 3u, 64u}) {
            r.machine.core().advanceCycles(1000);
            if (as_run) {
                r.machine.callRepeat(code, regs, n);
            } else {
                for (unsigned i = 0; i < n; ++i)
                    r.machine.call(code, {0, data});
            }
        }
    });
    const cpu::Core::Snapshot s = rigs.loop.machine.core().takeSnapshot();
    ASSERT_GT(s.ready[isa::X9], s.cycle);
    ASSERT_GT(s.lastCompletion, s.cycle);
    // Each run but the first replays every call.
    EXPECT_GE(rigs.repeat.memo().callsReplayed, 62u + 64u + 3u + 64u);
    rigs.expectSame();
}

} // namespace
} // namespace pacman
