/**
 * @file
 * Coverage for the committed-fast-path superblock engine: unit-level
 * behavior of the SuperblockCache (slot reuse; generation staleness
 * and epoch flushes are tests/cpu/test_pa_memo.cc's) and of
 * buildSuperblock's trace discovery (branch
 * following, likely-direction heuristics, page and length limits),
 * plus core-level equivalence — a core running with superblocks must
 * be bit-identical to the plain interpreter across loops,
 * self-modifying stores into the running block or from outside it,
 * host writes, page remap/unmap, budget exits mid-block, and snapshot
 * restores across a half-executed block.
 */

#include <gtest/gtest.h>

#include <string>

#include "asm/assembler.hh"
#include "base/stats.hh"
#include "cpu/core.hh"
#include "cpu/superblock.hh"
#include "mem/hierarchy.hh"

namespace pacman::cpu
{
namespace
{

using namespace pacman::isa;
using asmjit::Assembler;

/** Encoded word of a single-instruction snippet. */
template <typename Emit>
InstWord
wordOf(Emit emit)
{
    Assembler a(0);
    emit(a);
    return a.finalize().words[0];
}

// --- SuperblockCache unit level -------------------------------------

TEST(SuperblockCacheUnit, InsertSlotReclaimsSameKey)
{
    SuperblockCache c;
    SuperblockStats stats;
    const Addr pa = 0x8000;

    Superblock &first = c.insertSlot(pa, 1);
    first.ops.push_back({});
    // A rebuild of the same entry PA must reclaim the same slot (not
    // shadow it in the other way) with the op list cleared.
    Superblock &again = c.insertSlot(pa, 2);
    EXPECT_EQ(&first, &again);
    EXPECT_TRUE(again.ops.empty());
    EXPECT_EQ(again.gen, 2u);
}

// --- buildSuperblock trace discovery --------------------------------

/** Assemble at @p va and write the words into @p phys at pa == va. */
Addr
stage(mem::PhysMem &phys, Addr va, const std::function<void(Assembler &)> &emit)
{
    Assembler a(va);
    emit(a);
    const asmjit::Program p = a.finalize();
    Addr addr = p.base;
    for (InstWord w : p.words) {
        phys.write(addr, w, 4);
        addr += InstBytes;
    }
    return p.base;
}

Superblock
discover(mem::PhysMem &phys, Addr pa, unsigned max_ops = 64)
{
    Superblock sb;
    sb.pa = pa;
    sb.gen = phys.pageGen(pa);
    buildSuperblock(sb, phys, max_ops);
    return sb;
}

TEST(SuperblockBuild, StraightLineStopsAtHlt)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [](Assembler &a) {
        a.movz(X0, 1);
        a.movz(X1, 2);
        a.hlt(0);
    });

    const Superblock sb = discover(phys, base);
    ASSERT_EQ(sb.ops.size(), 3u); // HLT is the terminating op
    EXPECT_EQ(sb.ops[0].pageOff, 0u);
    EXPECT_EQ(sb.ops[1].pageOff, 4u);
    EXPECT_EQ(sb.ops[2].pageOff, 8u);
    EXPECT_EQ(sb.ops[0].kind, SbOpKind::Alu);
    EXPECT_EQ(sb.ops[2].kind, SbOpKind::Stop);
    // Operand reads are computed at discovery: MOVZ reads nothing.
    EXPECT_FALSE(sb.ops[0].readsRn || sb.ops[0].readsRm ||
                 sb.ops[0].readsRd);
}

TEST(SuperblockBuild, TerminatorEndsTraceAndOperandReadsRecorded)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [](Assembler &a) {
        a.add(X0, X1, X2); // +0: reads rn and rm
        a.movk(X3, 7, 1);  // +4: read-modify-write of rd
        a.svc(1);          // +8: terminator
        a.movz(X4, 1);     // +12: past the terminator
    });

    const Superblock sb = discover(phys, base);
    ASSERT_EQ(sb.ops.size(), 3u);
    EXPECT_TRUE(sb.ops[0].readsRn && sb.ops[0].readsRm);
    EXPECT_FALSE(sb.ops[0].readsRd);
    EXPECT_TRUE(sb.ops[1].readsRd);
    EXPECT_FALSE(sb.ops[1].readsRn || sb.ops[1].readsRm);
    EXPECT_EQ(sb.ops[2].kind, SbOpKind::Svc);
}

TEST(SuperblockBuild, FollowsUnconditionalBranch)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [&](Assembler &a) {
        a.movz(X0, 1);     // +0
        a.b(base + 16);    // +4: skip the dead words
        a.movz(X0, 9);     // +8: never reached
        a.movz(X0, 9);     // +12
        a.movz(X1, 2);     // +16: branch target
        a.hlt(0);          // +20
    });

    const Superblock sb = discover(phys, base);
    ASSERT_EQ(sb.ops.size(), 4u);
    EXPECT_EQ(sb.ops[0].pageOff, 0u);
    EXPECT_EQ(sb.ops[1].pageOff, 4u);
    EXPECT_EQ(sb.ops[1].kind, SbOpKind::Branch);
    EXPECT_EQ(sb.ops[2].pageOff, 16u);
    EXPECT_EQ(sb.ops[3].pageOff, 20u);
    EXPECT_EQ(sb.ops[3].kind, SbOpKind::Stop);
}

TEST(SuperblockBuild, BackwardCondBranchUnrollsLoop)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [&](Assembler &a) {
        a.subsi(X0, X0, 1); // +0: loop body
        a.cbnz(X0, base);   // +4: back-edge, assumed taken
    });

    const Superblock sb = discover(phys, base, 9);
    // The trace unrolls body/back-edge pairs up to the cap: offsets
    // alternate 0,4,0,4,...
    ASSERT_EQ(sb.ops.size(), 9u);
    for (size_t i = 0; i < sb.ops.size(); ++i)
        EXPECT_EQ(sb.ops[i].pageOff, (i % 2) * 4) << "op " << i;
}

TEST(SuperblockBuild, ForwardCondBranchFallsThrough)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [&](Assembler &a) {
        a.cbnz(X0, base + 12); // +0: forward guard, assumed not-taken
        a.movz(X1, 1);         // +4
        a.hlt(0);              // +8
        a.movz(X2, 2);         // +12: guard target, not in the trace
    });

    const Superblock sb = discover(phys, base);
    ASSERT_EQ(sb.ops.size(), 3u);
    EXPECT_EQ(sb.ops[0].pageOff, 0u);
    EXPECT_EQ(sb.ops[0].kind, SbOpKind::BranchCond);
    EXPECT_EQ(sb.ops[1].pageOff, 4u);
    EXPECT_EQ(sb.ops[2].pageOff, 8u); // the HLT ends the trace
    EXPECT_EQ(sb.ops[2].kind, SbOpKind::Stop);
}

TEST(SuperblockBuild, OffPageBranchEndsTrace)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [&](Assembler &a) {
        a.movz(X0, 1);            // +0
        a.b(base + PageSize + 8); // +4: leaves the page
        // next page: would continue here if traces could span pages
    });
    stage(phys, base + PageSize + 8,
          [](Assembler &a) { a.movz(X1, 2); });

    const Superblock sb = discover(phys, base);
    // The off-page branch is the trace's last op; discovery must not
    // cross into the second page (one block = one write generation).
    ASSERT_EQ(sb.ops.size(), 2u);
    EXPECT_EQ(sb.ops[1].kind, SbOpKind::Branch);
}

TEST(SuperblockBuild, UndecodableWordEndsTrace)
{
    mem::PhysMem phys;
    const Addr base = 0x4000'0000;
    stage(phys, base, [](Assembler &a) {
        a.movz(X0, 1);
        a.movz(X1, 2);
    });
    phys.write(base + 8, 0xFFFF'FFFFu, 4);
    ASSERT_FALSE(isa::decode(0xFFFF'FFFFu).has_value());

    const Superblock sb = discover(phys, base);
    EXPECT_EQ(sb.ops.size(), 2u);
}

// --- Core-level equivalence -----------------------------------------

constexpr Addr CodeBase = 0x0000'4000'0000ull;
constexpr Addr SlotBase = CodeBase + PageSize;
constexpr Addr PatchSlot = CodeBase + 2 * PageSize;
constexpr Addr DataBase = 0x0000'6000'0000ull;
constexpr Addr KernelCode = 0xFFFF'8000'0010'0000ull; //!< VBAR_EL1

/** One independent core+hierarchy at the given fast-path setting. */
struct Rig
{
    explicit Rig(FastPath fast_path)
        : rng(1), hier(mem::m1PCoreConfig(), &rng),
          core(coreConfig(fast_path), &hier, &rng)
    {
        hier.mapRange(CodeBase, 16 * PageSize,
                      mem::PageFlags{.user = true, .writable = true,
                                     .executable = true,
                                     .device = false});
        hier.mapRange(DataBase, 16 * PageSize,
                      mem::PageFlags{.user = true, .writable = true,
                                     .executable = false,
                                     .device = false});
        hier.mapRange(KernelCode, 2 * PageSize,
                      mem::PageFlags{.user = false, .writable = true,
                                     .executable = true,
                                     .device = false});
        core.setSysreg(SysReg::VBAR_EL1, KernelCode);
    }

    static CoreConfig
    coreConfig(FastPath fast_path)
    {
        CoreConfig cfg;
        cfg.fastPath = fast_path;
        return cfg;
    }

    void
    assemble(Addr va, const std::function<void(Assembler &)> &emit)
    {
        Assembler a(va);
        emit(a);
        const asmjit::Program p = a.finalize();
        Addr addr = p.base;
        for (InstWord w : p.words) {
            hier.writeVirt(addr, w, 4);
            addr += InstBytes;
        }
    }

    ExitStatus
    runFrom(Addr pc, uint64_t budget = 1'000'000)
    {
        core.setPc(pc);
        core.setEl(0);
        return core.run(budget);
    }

    /**
     * Everything observable: registers, pc, flags, cycle, retired and
     * branch counters, and every cache/TLB hit/miss pair. The
     * superblock engine must not perturb one bit of it.
     */
    std::string
    dump()
    {
        std::string s;
        for (unsigned r = 0; r < NumRegs; ++r)
            s += strprintf("x%u=%llx ", r,
                           (unsigned long long)core.reg(r));
        s += strprintf("pc=%llx nzcv=%u%u%u%u cycle=%llu ",
                       (unsigned long long)core.pc(),
                       core.flags().n, core.flags().z, core.flags().c,
                       core.flags().v,
                       (unsigned long long)core.cycle());
        const CoreStats &cs = core.stats();
        s += strprintf("el=%u ret=%llu br=%llu mp=%llu wp=%llu sys=%llu ",
                       core.el(),
                       (unsigned long long)cs.instsRetired,
                       (unsigned long long)cs.branches,
                       (unsigned long long)cs.branchMispredicts,
                       (unsigned long long)cs.wrongPathInsts,
                       (unsigned long long)cs.syscalls);
        const auto structure = [&](const char *name, uint64_t hits,
                                   uint64_t misses) {
            s += strprintf("%s=%llu/%llu ", name,
                           (unsigned long long)hits,
                           (unsigned long long)misses);
        };
        structure("l1i", hier.l1i().hits(), hier.l1i().misses());
        structure("l1d", hier.l1d().hits(), hier.l1d().misses());
        structure("l2", hier.l2().hits(), hier.l2().misses());
        structure("slc", hier.slc().hits(), hier.slc().misses());
        structure("itlb0", hier.itlb(0).hits(), hier.itlb(0).misses());
        structure("itlb1", hier.itlb(1).hits(), hier.itlb(1).misses());
        structure("dtlb", hier.dtlb().hits(), hier.dtlb().misses());
        structure("l2tlb", hier.l2tlb().hits(), hier.l2tlb().misses());
        return s;
    }

    /**
     * The front end's replacement state: every valid L1I line and
     * iTLB way with its LRU stamp, plus each structure's LRU clock.
     * Equal dumps mean every later victim choice is equal too.
     */
    std::string
    frontEndState()
    {
        std::string s;
        const mem::Cache::Snapshot l1i = hier.l1i().takeSnapshot();
        s += strprintf("l1i tick=%llu:", (unsigned long long)l1i.tick);
        for (size_t i = 0; i < l1i.ways.size(); ++i) {
            if (l1i.ways[i].valid)
                s += strprintf(" %zu/%llx@%llu", i,
                               (unsigned long long)l1i.ways[i].tag,
                               (unsigned long long)l1i.ways[i].lruStamp);
        }
        for (unsigned el : {0u, 1u}) {
            const mem::Tlb::Snapshot tlb = hier.itlb(el).takeSnapshot();
            s += strprintf("\nitlb%u tick=%llu:", el,
                           (unsigned long long)tlb.tick);
            for (size_t i = 0; i < tlb.ways.size(); ++i) {
                if (tlb.ways[i].valid)
                    s += strprintf(
                        " %zu/%llx@%llu", i,
                        (unsigned long long)tlb.ways[i].entry.vpn,
                        (unsigned long long)tlb.ways[i].lruStamp);
            }
        }
        return s;
    }

    Random rng;
    mem::MemoryHierarchy hier;
    Core core;
};

/** A counted loop with loads/stores: the block-friendly hot shape.
 *  @p loop_out receives the back-edge target (the address of the add),
 *  for tests that patch the loop body. */
void
emitLoop(Assembler &a, unsigned iters, Addr *loop_out = nullptr)
{
    a.movz(X0, uint16_t(iters));
    a.mov64(X2, DataBase);
    a.movz(X1, 0);
    // loop: X1 += X0; mem[X2] = X1; X3 = mem[X2]; X0 -= 1; cbnz loop
    const Addr loop = a.here();
    if (loop_out)
        *loop_out = loop;
    a.add(X1, X1, X0);
    a.str(X1, X2);
    a.ldr(X3, X2);
    a.subsi(X0, X0, 1);
    a.cbnz(X0, loop);
    a.hlt(0);
}

TEST(SuperblockCore, LoopBitIdenticalToInterpreter)
{
    Rig fast(FastPath::Full), slow(FastPath::Reference);
    for (Rig *r : {&fast, &slow}) {
        r->assemble(SlotBase, [](Assembler &a) { emitLoop(a, 100); });
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
    }
    EXPECT_EQ(fast.dump(), slow.dump());
    // Vacuity guard: the loop must actually have run inside blocks.
    EXPECT_GT(fast.core.superblockStats().blockInsts, 100u);
    EXPECT_EQ(slow.core.superblockStats().blockInsts, 0u);
}

TEST(SuperblockCore, BudgetExitMidBlockBitIdentical)
{
    // Stop both cores mid-loop — for the fast rig that is a budget
    // exit from inside a half-executed superblock — then resume to
    // completion. State must match at the pause and at the end.
    Rig fast(FastPath::Full), slow(FastPath::Reference);
    for (Rig *r : {&fast, &slow}) {
        r->assemble(SlotBase, [](Assembler &a) { emitLoop(a, 100); });
        EXPECT_EQ(r->runFrom(SlotBase, 137).kind, ExitKind::MaxInsts);
    }
    EXPECT_EQ(fast.dump(), slow.dump());
    for (Rig *r : {&fast, &slow})
        EXPECT_EQ(r->core.run(1'000'000).kind, ExitKind::Halted);
    EXPECT_EQ(fast.dump(), slow.dump());
}

TEST(SuperblockCore, GuestStoreIntoRunningBlockBitIdentical)
{
    // Self-modifying guest: the loop body stores over its own head —
    // the pair [add][subsi] the back-edge is about to jump to —
    // replacing it with [hlt 7][hlt 0]. The store lands on the
    // running block's own page while later trace ops still cover the
    // patched slots (the unrolled back-edge), the canonical
    // SMC-into-the-running-block case. Both cores must take the same
    // early exit with the same state.
    const InstWord hlt7 = wordOf([](Assembler &a) { a.hlt(7); });
    const InstWord hlt0 = wordOf([](Assembler &a) { a.hlt(0); });
    auto emit = [&](Assembler &a) {
        a.movz(X0, 50);
        a.mov64(X4, (uint64_t(hlt0) << 32) | hlt7);
        a.movz(X1, 0);
        const Addr loop = a.here();
        a.add(X1, X1, X0);
        a.subsi(X0, X0, 30);
        a.mov64(X2, loop);
        a.str(X4, X2);
        a.cbnz(X0, loop);
        a.hlt(0);
    };

    Rig fast(FastPath::Full), slow(FastPath::Reference);
    ExitStatus fast_st, slow_st;
    fast.assemble(SlotBase, emit);
    slow.assemble(SlotBase, emit);
    fast_st = fast.runFrom(SlotBase);
    slow_st = slow.runFrom(SlotBase);
    EXPECT_EQ(fast_st.kind, ExitKind::Halted);
    EXPECT_EQ(slow_st.kind, ExitKind::Halted);
    EXPECT_EQ(fast_st.code, slow_st.code);
    EXPECT_EQ(fast_st.code, 7u); // the patched-in HLT, not the final one
    EXPECT_EQ(fast.dump(), slow.dump());
}

TEST(SuperblockCore, GuestStoreFromOutsideBlockBitIdentical)
{
    // Self-modifying code from *outside* the patched block: a second
    // snippet, on its own page, stores over the warm loop's
    // [add][str] pair. The store moves the loop page's write
    // generation, so the cached loop block gen-fails at its next
    // dispatch and is rebuilt from the new bytes.
    const InstWord movz_x1 = wordOf([](Assembler &a) { a.movz(X1, 7); });
    const InstWord movz_x10 =
        wordOf([](Assembler &a) { a.movz(X10, 0); });
    const uint64_t patch = (uint64_t(movz_x10) << 32) | movz_x1;

    Rig fast(FastPath::Full), slow(FastPath::Reference);
    for (Rig *r : {&fast, &slow}) {
        Addr loop = 0;
        r->assemble(SlotBase,
                    [&](Assembler &a) { emitLoop(a, 300, &loop); });
        r->assemble(PatchSlot, [&](Assembler &a) {
            a.mov64(X6, loop);
            a.mov64(X7, patch);
            a.str(X7, X6);
            a.hlt(0);
        });
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
    }
    EXPECT_EQ(fast.dump(), slow.dump());

    const uint64_t inval = fast.core.superblockStats().invalidations;
    for (Rig *r : {&fast, &slow}) {
        EXPECT_EQ(r->runFrom(PatchSlot).kind, ExitKind::Halted);
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
    }
    EXPECT_EQ(fast.dump(), slow.dump());
    // The patched loop never adds, so X1 holds the patched-in 7.
    EXPECT_EQ(fast.core.reg(X1), 7u);
    EXPECT_GT(fast.core.superblockStats().invalidations, inval);
}

TEST(SuperblockCore, HostWriteInvalidates)
{
    Rig fast(FastPath::Full);
    fast.assemble(SlotBase, [](Assembler &a) {
        a.movz(X0, 1);
        a.hlt(0);
    });
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.core.reg(X0), 1u);

    // Re-run: served by the cached block.
    const uint64_t built1 = fast.core.superblockStats().blocksBuilt;
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.core.superblockStats().blocksBuilt, built1);
    EXPECT_GT(fast.core.superblockStats().blockHits, 0u);

    // Host (functional) write moves the page generation: the stale
    // block must be dropped and the new code executed.
    fast.hier.writeVirt(SlotBase,
                        wordOf([](Assembler &a) { a.movz(X0, 3); }), 4);
    const uint64_t inval1 = fast.core.superblockStats().invalidations;
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.core.reg(X0), 3u);
    EXPECT_GT(fast.core.superblockStats().invalidations, inval1);
}

TEST(SuperblockCore, RemapExecutesNewFrame)
{
    Rig fast(FastPath::Full);
    fast.assemble(SlotBase, [](Assembler &a) {
        a.movz(X0, 1);
        a.hlt(0);
    });
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.core.reg(X0), 1u);

    // Stage different code in the frame backing the first DataBase
    // page, remap the slot's VA onto it, and do the TLB shootdown a
    // kernel would. The old frame's bytes (and generation) are
    // untouched — only the PA keying makes the new code visible.
    const uint64_t ppn2 = DataBase >> PageShift;
    fast.hier.phys().write(
        DataBase, wordOf([](Assembler &a) { a.movz(X0, 2); }), 4);
    fast.hier.phys().write(
        DataBase + 4, wordOf([](Assembler &a) { a.hlt(0); }), 4);
    fast.hier.pageTable().mapTo(SlotBase, ppn2,
                                mem::PageFlags{.user = true,
                                               .writable = true,
                                               .executable = true,
                                               .device = false});
    fast.hier.flushAll();

    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_EQ(fast.core.reg(X0), 2u);
}

TEST(SuperblockCore, UnmapFaultsInsteadOfServingStaleBlock)
{
    Rig fast(FastPath::Full);
    fast.assemble(SlotBase, [](Assembler &a) {
        a.movz(X0, 1);
        a.hlt(0);
    });
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);

    fast.hier.pageTable().unmap(SlotBase);
    fast.hier.flushAll();

    const ExitStatus status = fast.runFrom(SlotBase);
    EXPECT_EQ(status.kind, ExitKind::CrashEl0);
    EXPECT_EQ(status.fault, mem::Fault::Translation);
}

TEST(SuperblockCore, RestoreAcrossHalfExecutedBlockBitIdentical)
{
    // Pause mid-block (budget exit inside a superblock), snapshot,
    // finish the run, then restore and finish again: both completions
    // must be bit-identical — and identical to the interpreter doing
    // the same dance. This is the per-item campaign pattern with the
    // restore point landing inside a half-executed block.
    Rig fast(FastPath::Full), slow(FastPath::Reference);
    std::string fast_end1, fast_end2, slow_end1, slow_end2;
    for (Rig *r : {&fast, &slow}) {
        r->assemble(SlotBase, [](Assembler &a) { emitLoop(a, 200); });
        EXPECT_EQ(r->runFrom(SlotBase, 231).kind, ExitKind::MaxInsts);
        const Core::Snapshot core_snap = r->core.takeSnapshot();
        const mem::MemoryHierarchy::Snapshot mem_snap =
            r->hier.takeSnapshot();

        EXPECT_EQ(r->core.run(1'000'000).kind, ExitKind::Halted);
        (r == &fast ? fast_end1 : slow_end1) = r->dump();

        r->core.restore(core_snap);
        r->hier.restore(mem_snap);
        EXPECT_EQ(r->core.run(1'000'000).kind, ExitKind::Halted);
        (r == &fast ? fast_end2 : slow_end2) = r->dump();
    }
    EXPECT_EQ(fast_end1, fast_end2);
    EXPECT_EQ(fast_end1, slow_end1);
    EXPECT_EQ(slow_end1, slow_end2);
}

TEST(SuperblockCore, TraceHookDisablesBlockPath)
{
    Rig fast(FastPath::Full);
    fast.assemble(SlotBase, [](Assembler &a) { emitLoop(a, 10); });

    unsigned records = 0;
    fast.core.setTraceHook([&](const TraceRecord &rec) {
        if (!rec.speculative)
            ++records;
    });
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    // Every committed instruction must have been traced by the
    // interpreter; none may have ducked into a block.
    EXPECT_EQ(records, unsigned(fast.core.stats().instsRetired));
    EXPECT_EQ(fast.core.superblockStats().blockInsts, 0u);
    EXPECT_EQ(fast.core.superblockStats().blocksBuilt, 0u);
}

TEST(SuperblockCore, MispredictedLoopExitFallsBack)
{
    // The loop's final trip resolves the back-edge not-taken while
    // the trace (and a warmed predictor) says taken: the block must
    // bail and hand the branch to the interpreter's speculation
    // machinery. Observable as fallback exits on the fast rig — with
    // state still bit-identical (covered by the dump comparison in
    // LoopBitIdenticalToInterpreter; here we pin the counter).
    Rig fast(FastPath::Full);
    fast.assemble(SlotBase, [](Assembler &a) { emitLoop(a, 100); });
    EXPECT_EQ(fast.runFrom(SlotBase).kind, ExitKind::Halted);
    EXPECT_GT(fast.core.superblockStats().fallbackExits, 0u);
}

// --- Chaining through terminators -----------------------------------

/** Block dispatches entered from an interpreter fetch (not chained). */
uint64_t
interpretedDispatches(const SuperblockStats &s)
{
    return s.blockHits + s.blocksBuilt - s.chainedDispatches;
}

/** User side of a guest syscall: x0 = 5, svc, x0 += 100, hlt. */
void
emitSyscallCaller(Assembler &a)
{
    a.movz(X0, 5);
    a.svc(1);
    a.addi(X0, X0, 100);
    a.hlt(0);
}

/** Kernel handler at VBAR_EL1: x0 += 7, return to the caller. */
void
emitHandler(Assembler &a)
{
    a.addi(X0, X0, 7);
    a.eret();
}

/** Both rigs running the syscall round trip, warmed by one run. */
struct WarmRoundTrip
{
    WarmRoundTrip()
    {
        for (Rig *r : {&fast, &slow}) {
            r->assemble(SlotBase, emitSyscallCaller);
            r->assemble(KernelCode, emitHandler);
            EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
        }
        EXPECT_EQ(fast.dump(), slow.dump());
    }

    Rig fast{FastPath::Full};
    Rig slow{FastPath::Reference};
};

TEST(SuperblockChain, SyscallRoundTripRunsAsOneDispatch)
{
    WarmRoundTrip rt;
    const SuperblockStats before = rt.fast.core.superblockStats();
    for (Rig *r : {&rt.fast, &rt.slow}) {
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
        EXPECT_EQ(r->core.reg(X0), 112u);
        EXPECT_EQ(r->core.el(), 0u);
    }
    EXPECT_EQ(rt.fast.dump(), rt.slow.dump());
    EXPECT_EQ(rt.fast.frontEndState(), rt.slow.frontEndState());

    // The interpreter fetched only the first instruction; the handler
    // (after SVC) and the return path (after ERET) were chained, and
    // all six instructions retired inside blocks.
    const SuperblockStats &after = rt.fast.core.superblockStats();
    EXPECT_EQ(interpretedDispatches(after) -
                  interpretedDispatches(before), 1u);
    EXPECT_EQ(after.chainedDispatches - before.chainedDispatches, 2u);
    EXPECT_EQ(after.blockInsts - before.blockInsts, 6u);
}

TEST(SuperblockChain, BudgetRunsOutMidChain)
{
    // Stop the warm round trip after every possible instruction count
    // — inside a block, on a chain boundary, right after the SVC —
    // then resume to the HLT: both cores must agree at the pause and
    // at the end.
    for (uint64_t budget = 1; budget <= 6; ++budget) {
        WarmRoundTrip rt;
        for (Rig *r : {&rt.fast, &rt.slow})
            EXPECT_EQ(r->runFrom(SlotBase, budget).kind,
                      budget < 6 ? ExitKind::MaxInsts : ExitKind::Halted);
        EXPECT_EQ(rt.fast.dump(), rt.slow.dump()) << "budget " << budget;
        for (Rig *r : {&rt.fast, &rt.slow})
            EXPECT_EQ(r->core.run(1'000'000).kind, ExitKind::Halted);
        EXPECT_EQ(rt.fast.dump(), rt.slow.dump()) << "budget " << budget;
        EXPECT_EQ(rt.fast.frontEndState(), rt.slow.frontEndState());
    }
}

TEST(SuperblockChain, RefusesOnItlbMiss)
{
    // Drop the handler page from the EL1 iTLB: the chain after SVC
    // must refuse (a miss walks, which belongs to the interpreter)
    // while the return chain after ERET still goes through.
    WarmRoundTrip rt;
    const SuperblockStats before = rt.fast.core.superblockStats();
    for (Rig *r : {&rt.fast, &rt.slow}) {
        ASSERT_TRUE(r->hier.itlb(1).remove(
            pageNumber(vaPart(KernelCode)), mem::Asid::Kernel));
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
    }
    EXPECT_EQ(rt.fast.dump(), rt.slow.dump());
    EXPECT_EQ(rt.fast.frontEndState(), rt.slow.frontEndState());
    EXPECT_EQ(rt.fast.core.superblockStats().chainedDispatches -
                  before.chainedDispatches, 1u);
}

TEST(SuperblockChain, RefusesMispredictedEntryBranch)
{
    // A block ends at an off-page branch whose target page starts
    // with a CBNZ. Run 1 trains the predictor taken; in run 2 the
    // branch falls through, so the successor's entry op mispredicts:
    // the chain must refuse and leave the branch — and its wrong-path
    // speculation — to the interpreter.
    const Addr page2 = SlotBase + PageSize;
    Rig fast(FastPath::Full), slow(FastPath::Reference);
    for (Rig *r : {&fast, &slow}) {
        r->assemble(SlotBase, [&](Assembler &a) {
            a.nop();
            a.b(page2);
        });
        r->assemble(page2, [&](Assembler &a) {
            a.cbnz(X0, page2 + 12); // +0
            a.movz(X1, 1);          // +4: fall-through
            a.hlt(1);               // +8
            a.movz(X1, 2);          // +12: taken target
            a.hlt(2);               // +16
        });
    }
    uint64_t chained = 0, fallbacks = 0;
    for (const uint64_t x0 : {1u, 1u, 0u}) {
        chained = fast.core.superblockStats().chainedDispatches;
        fallbacks = fast.core.superblockStats().fallbackExits;
        for (Rig *r : {&fast, &slow}) {
            r->core.setReg(X0, x0);
            EXPECT_EQ(r->runFrom(SlotBase).code, x0 ? 2u : 1u);
        }
        EXPECT_EQ(fast.dump(), slow.dump()) << "x0 " << x0;
    }
    EXPECT_EQ(fast.frontEndState(), slow.frontEndState());
    // The last run: no chain, and the interpreter-entered dispatch at
    // the CBNZ bailed on the mispredict.
    EXPECT_EQ(fast.core.superblockStats().chainedDispatches, chained);
    EXPECT_GT(fast.core.superblockStats().fallbackExits, fallbacks);
    EXPECT_GT(fast.core.stats().wrongPathInsts, 0u);
}

TEST(SuperblockChain, RefusesIndirectBranchEntry)
{
    // Blocks end right before a BLR and a RET (discovery stops at
    // indirect branches). Both successors must be refused: the BTB
    // and the link register belong to the interpreter.
    const Addr func = SlotBase + 0x100;
    Rig fast(FastPath::Full), slow(FastPath::Reference);
    for (Rig *r : {&fast, &slow}) {
        r->assemble(SlotBase, [&](Assembler &a) {
            a.mov64(X5, func);
            a.blr(X5);
            a.hlt(0);
        });
        r->assemble(func, [](Assembler &a) {
            a.movz(X1, 9);
            a.ret();
        });
    }
    for (int run = 0; run < 3; ++run) {
        const uint64_t chained =
            fast.core.superblockStats().chainedDispatches;
        for (Rig *r : {&fast, &slow}) {
            EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
            EXPECT_EQ(r->core.reg(X1), 9u);
        }
        EXPECT_EQ(fast.dump(), slow.dump()) << "run " << run;
        EXPECT_EQ(fast.core.superblockStats().chainedDispatches,
                  chained);
    }
    EXPECT_EQ(fast.frontEndState(), slow.frontEndState());
}

TEST(SuperblockChain, RefusesNonExecutablePage)
{
    // The block loads from a no-execute page (filling the dTLB), then
    // branches into it. The first fetch pulls the translation into
    // the iTLB through the dTLB spill path and faults; on the second
    // run the chain's peek finds that iTLB way and must refuse on the
    // permission check, leaving the fault to the interpreter.
    const Addr nx = CodeBase + 8 * PageSize;
    Rig fast(FastPath::Full), slow(FastPath::Reference);
    for (Rig *r : {&fast, &slow}) {
        r->hier.mapPage(nx, mem::PageFlags{.user = true,
                                           .writable = true,
                                           .executable = false,
                                           .device = false});
        r->assemble(SlotBase, [&](Assembler &a) {
            a.mov64(X2, nx);
            a.ldr(X3, X2);
            a.b(nx);
        });
        // Valid code, so only the permission check stops a chain.
        r->assemble(nx, [](Assembler &a) {
            a.movz(X1, 1);
            a.hlt(0);
        });
    }
    for (int run = 0; run < 2; ++run) {
        for (Rig *r : {&fast, &slow}) {
            const ExitStatus st = r->runFrom(SlotBase);
            EXPECT_EQ(st.kind, ExitKind::CrashEl0);
            EXPECT_EQ(st.fault, mem::Fault::Permission);
            EXPECT_EQ(st.pc, nx);
        }
        EXPECT_EQ(fast.dump(), slow.dump()) << "run " << run;
    }
    EXPECT_EQ(fast.frontEndState(), slow.frontEndState());
    EXPECT_TRUE(fast.hier.itlb(0).contains(pageNumber(vaPart(nx)),
                                           mem::Asid::User));
    EXPECT_EQ(fast.core.superblockStats().chainedDispatches, 0u);
}

TEST(SuperblockChain, HostWriteToSuccessorPage)
{
    // A host write to the handler's page between calls: the chain
    // must run the new code, never the cached block — and when the
    // new entry word is undecodable, refuse and let the interpreter
    // raise it.
    WarmRoundTrip rt;
    for (Rig *r : {&rt.fast, &rt.slow}) {
        r->hier.writeVirt(KernelCode,
                          wordOf([](Assembler &a) {
                              a.addi(X0, X0, 9);
                          }),
                          4);
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
        EXPECT_EQ(r->core.reg(X0), 114u);
    }
    EXPECT_EQ(rt.fast.dump(), rt.slow.dump());
    const uint64_t chained =
        rt.fast.core.superblockStats().chainedDispatches;

    for (Rig *r : {&rt.fast, &rt.slow}) {
        r->hier.writeVirt(KernelCode, 0xFFFF'FFFFu, 4);
        const ExitStatus st = r->runFrom(SlotBase);
        EXPECT_EQ(st.kind, ExitKind::UndefinedInst);
        EXPECT_EQ(st.pc, KernelCode);
    }
    EXPECT_EQ(rt.fast.dump(), rt.slow.dump());
    EXPECT_EQ(rt.fast.frontEndState(), rt.slow.frontEndState());
    EXPECT_EQ(rt.fast.core.superblockStats().chainedDispatches,
              chained);
}

TEST(SuperblockChain, NestedSvcAndEretAtEl0InsideBlock)
{
    // Terminators keep the interpreter's exit statuses: a second SVC
    // inside the handler panics the kernel, an ERET at EL0 crashes
    // the process, BRK reports a breakpoint — each as the last op of
    // a (warm, chained-into) block.
    struct Case
    {
        std::function<void(Assembler &)> user, kernel;
        ExitKind kind;
        const char *reason;
    };
    const std::vector<Case> cases = {
        {emitSyscallCaller,
         [](Assembler &a) {
             a.addi(X0, X0, 7);
             a.svc(2);
         },
         ExitKind::KernelPanic, "nested SVC at EL1"},
        {[](Assembler &a) {
             a.movz(X0, 1);
             a.eret();
         },
         emitHandler, ExitKind::CrashEl0, "ERET at EL0"},
        {[](Assembler &a) {
             a.movz(X0, 1);
             a.svc(1);
             a.brk(3);
         },
         emitHandler, ExitKind::Breakpoint, "brk #3"},
    };
    for (const Case &c : cases) {
        Rig fast(FastPath::Full), slow(FastPath::Reference);
        for (Rig *r : {&fast, &slow}) {
            r->assemble(SlotBase, c.user);
            r->assemble(KernelCode, c.kernel);
        }
        for (int run = 0; run < 2; ++run) {
            ExitStatus st[2];
            for (Rig *r : {&fast, &slow})
                st[r == &slow] = r->runFrom(SlotBase);
            EXPECT_EQ(st[0].kind, c.kind) << c.reason;
            EXPECT_EQ(st[0].reason, c.reason);
            EXPECT_EQ(st[0].reason, st[1].reason);
            EXPECT_EQ(st[0].pc, st[1].pc);
            EXPECT_EQ(st[0].code, st[1].code);
            EXPECT_EQ(fast.dump(), slow.dump()) << c.reason;
        }
        EXPECT_EQ(fast.frontEndState(), slow.frontEndState());
        EXPECT_GT(fast.core.superblockStats().blockInsts, 0u);
    }
}

TEST(SuperblockChain, CrossLineFetchWithL1iMissMidBlock)
{
    // A 40-op straight block spans three 64-byte L1I lines. With the
    // middle line invalidated, the block's second line crossing takes
    // a real L1I miss between batched re-hits. Hit/miss counters and
    // the LRU stamps of every line (so every later victim choice)
    // must match the interpreter's.
    Rig fast(FastPath::Full), slow(FastPath::Reference);
    for (Rig *r : {&fast, &slow}) {
        r->assemble(SlotBase, [](Assembler &a) {
            for (unsigned i = 0; i < 40; ++i)
                a.addi(X0, X0, 1);
            a.hlt(0);
        });
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
    }
    for (Rig *r : {&fast, &slow}) {
        const auto pa = r->hier.translateFunctional(SlotBase + 64);
        ASSERT_TRUE(pa.has_value());
        ASSERT_TRUE(r->hier.l1i().contains(*pa));
        r->hier.l1i().invalidate(*pa);
        const uint64_t misses = r->hier.l1i().misses();
        EXPECT_EQ(r->runFrom(SlotBase).kind, ExitKind::Halted);
        EXPECT_EQ(r->hier.l1i().misses(), misses + 1);
    }
    EXPECT_EQ(fast.dump(), slow.dump());
    EXPECT_EQ(fast.frontEndState(), slow.frontEndState());
    EXPECT_GE(fast.core.superblockStats().blockInsts, 41u);
}

} // namespace
} // namespace pacman::cpu
