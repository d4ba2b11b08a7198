#include "superblock.hh"

#include "isa/encoding.hh"
#include "mem/physmem.hh"

namespace pacman::cpu
{

bool
sbKindFor(isa::Opcode op, SbOpKind *kind)
{
    switch (isa::instClass(op)) {
      case isa::InstClass::Alu:
        *kind = SbOpKind::Alu;
        return true;
      case isa::InstClass::Load:
        *kind = SbOpKind::Load;
        return true;
      case isa::InstClass::Store:
        *kind = SbOpKind::Store;
        return true;
      case isa::InstClass::PacSign:
      case isa::InstClass::PacAuth:
        *kind = SbOpKind::Pac;
        return true;
      case isa::InstClass::BranchDirect:
        *kind = SbOpKind::Branch;
        return true;
      case isa::InstClass::BranchCond:
        *kind = SbOpKind::BranchCond;
        return true;
      case isa::InstClass::System:
        switch (op) {
          case isa::Opcode::MRS:
            *kind = SbOpKind::Mrs;
            return true;
          case isa::Opcode::MSR:
            *kind = SbOpKind::Msr;
            return true;
          case isa::Opcode::SVC:
            *kind = SbOpKind::Svc;
            return true;
          case isa::Opcode::ERET:
            *kind = SbOpKind::Eret;
            return true;
          default: // HLT, BRK
            *kind = SbOpKind::Stop;
            return true;
        }
      case isa::InstClass::Barrier:
        *kind = SbOpKind::Barrier;
        return true;
      default:
        // Indirect branches (BTB, pointer authentication) belong to
        // the interpreter.
        return false;
    }
}

void
buildSuperblock(Superblock &sb, const mem::PhysMem &phys,
                unsigned max_ops)
{
    const isa::Addr page_base = sb.pa & ~isa::Addr(isa::PageMask);
    int64_t off = int64_t(sb.pa & isa::PageMask);
    while (sb.ops.size() < max_ops) {
        const auto inst = isa::decode(phys.read32(page_base + off));
        if (!inst)
            break; // undecodable word: the interpreter raises it
        SbOpKind kind;
        if (!sbKindFor(inst->op, &kind))
            break;
        sb.ops.push_back({*inst, kind, uint16_t(off),
                          isa::readsRn(*inst), isa::readsRm(*inst),
                          isa::readsRdAsSource(*inst)});
        // SVC/ERET change the EL (and the iTLB the fetch replay is
        // pinned to); HLT/BRK end the run.
        if (kind == SbOpKind::Svc || kind == SbOpKind::Eret ||
            kind == SbOpKind::Stop)
            break;
        // Follow the trace: unconditional branches to their target,
        // conditional ones along the likely direction (backward taken
        // is a loop back-edge, forward not-taken a guard). Any step
        // off the page ends the block — one block, one page, one
        // write generation.
        int64_t next;
        if (kind == SbOpKind::Branch)
            next = off + inst->imm;
        else if (kind == SbOpKind::BranchCond && inst->imm < 0)
            next = off + inst->imm;
        else
            next = off + int64_t(isa::InstBytes);
        if (next < 0 || next >= int64_t(isa::PageSize))
            break;
        off = next;
    }
}

const char *
callGuardName(CallGuard guard)
{
    static const char *const names[NumCallGuards] = {
        "entry", "budget", "registers", "sysregs", "scoreboard",
        "latency", "ways", "predictor", "pages"};
    return size_t(guard) < NumCallGuards ? names[size_t(guard)] : "none";
}

} // namespace pacman::cpu
