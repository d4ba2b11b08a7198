#include "scanner.hh"

#include <array>

#include "base/stats.hh"
#include "isa/disasm.hh"
#include "isa/encoding.hh"

namespace pacman::analysis
{

using isa::Addr;
using isa::Inst;
using isa::InstClass;
using isa::Opcode;

uint64_t
ScanReport::dataCount() const
{
    uint64_t n = 0;
    for (const Gadget &g : gadgets) {
        if (g.type == GadgetType::Data)
            ++n;
    }
    return n;
}

uint64_t
ScanReport::instCount() const
{
    return gadgets.size() - dataCount();
}

double
ScanReport::meanDistance() const
{
    if (gadgets.empty())
        return 0.0;
    uint64_t sum = 0;
    for (const Gadget &g : gadgets)
        sum += g.distance;
    return double(sum) / double(gadgets.size());
}

GadgetScanner::GadgetScanner(unsigned window)
    : window_(window)
{
}

namespace
{

/** Decode the word at @p pc, if inside the program. */
std::optional<Inst>
instAt(const asmjit::Program &prog, Addr pc)
{
    if (pc < prog.base || pc >= prog.end() || pc % isa::InstBytes != 0)
        return std::nullopt;
    return isa::decode(prog.words[(pc - prog.base) / isa::InstBytes]);
}

} // anonymous namespace

void
GadgetScanner::walkPath(const asmjit::Program &prog, Addr branch_pc,
                        Addr start, bool taken,
                        std::vector<Gadget> &out) const
{
    // For each register, the pc of the live aut that produced it
    // (0 = not an authenticated pointer).
    std::array<Addr, isa::NumRegs> aut_origin{};

    Addr pc = start;
    for (unsigned dist = 1; dist <= window_; ++dist) {
        const auto inst = instAt(prog, pc);
        if (!inst)
            return;

        const InstClass cls = isa::instClass(inst->op);

        // Transmission checks come before liveness updates so that
        // e.g. "ldr x2, [x0]" with x0 authenticated counts even
        // though it writes x2.
        if (cls == InstClass::Load || cls == InstClass::Store) {
            Addr origin = aut_origin[inst->rn];
            if (origin == 0 && isa::readsRm(*inst))
                origin = aut_origin[inst->rm];
            if (origin == 0 &&
                (cls == InstClass::Store && aut_origin[inst->rd]))
                origin = aut_origin[inst->rd];
            if (origin != 0) {
                out.push_back({GadgetType::Data, branch_pc, origin, pc,
                               taken, dist});
                // One report per aut+transmit pair: clear the origin.
                for (auto &slot : aut_origin) {
                    if (slot == origin)
                        slot = 0;
                }
            }
        } else if (cls == InstClass::BranchIndirect) {
            if (isa::isAuthBranch(inst->op)) {
                // braa/blraa/retaa: verification and transmission in
                // one instruction — always a complete gadget body.
                out.push_back({GadgetType::Instruction, branch_pc, pc,
                               pc, taken, dist});
            } else if (const Addr origin = aut_origin[inst->rn];
                       origin != 0) {
                out.push_back({GadgetType::Instruction, branch_pc,
                               origin, pc, taken, dist});
                for (auto &slot : aut_origin) {
                    if (slot == origin)
                        slot = 0;
                }
            }
        }

        // Liveness update.
        if (isa::isPacAuth(inst->op)) {
            aut_origin[inst->rd] = pc;
        } else if (isa::writesRd(*inst)) {
            aut_origin[inst->rd] = 0;
            if (inst->op == Opcode::BL || inst->op == Opcode::BLR)
                aut_origin[isa::LR] = 0;
        }

        // Path continuation: straight-line plus direct branches.
        if (inst->op == Opcode::B) {
            pc = pc + uint64_t(inst->imm);
            continue;
        }
        if (cls == InstClass::BranchIndirect ||
            inst->op == Opcode::ERET || inst->op == Opcode::HLT ||
            inst->op == Opcode::BRK) {
            return; // end of statically followable path
        }
        pc += isa::InstBytes;
    }
}

ScanReport
GadgetScanner::scan(const asmjit::Program &prog) const
{
    ScanReport report;
    report.instsScanned = prog.words.size();

    for (size_t i = 0; i < prog.words.size(); ++i) {
        const auto inst = isa::decode(prog.words[i]);
        if (!inst || !isa::isCondBranch(inst->op))
            continue;
        ++report.condBranches;
        const Addr pc = prog.base + i * isa::InstBytes;
        walkPath(prog, pc, pc + uint64_t(inst->imm), true,
                 report.gadgets);
        walkPath(prog, pc, pc + isa::InstBytes, false, report.gadgets);
    }
    return report;
}

std::string
describeGadget(const Gadget &gadget, const asmjit::Program &prog)
{
    const auto aut = instAt(prog, gadget.autPc);
    const auto tx = instAt(prog, gadget.transmitPc);
    return strprintf(
        "%s gadget: branch@0x%llx (%s path) -> %s @0x%llx -> %s @0x%llx "
        "(distance %u)",
        gadget.type == GadgetType::Data ? "data" : "instruction",
        (unsigned long long)gadget.branchPc,
        gadget.takenDirection ? "taken" : "fall-through",
        aut ? isa::disassemble(*aut).c_str() : "?",
        (unsigned long long)gadget.autPc,
        tx ? isa::disassemble(*tx).c_str() : "?",
        (unsigned long long)gadget.transmitPc, gadget.distance);
}

} // namespace pacman::analysis
