/**
 * @file
 * PARM64 instruction set: opcodes, condition codes, and the decoded
 * instruction representation shared by the assembler, the CPU model,
 * the disassembler, and the static gadget scanner.
 *
 * PARM64 is a fixed-width 32-bit encoding covering the ARMv8.3 subset
 * the PACMAN attack touches: integer ALU ops, loads/stores, direct and
 * indirect branches, the pac/aut pointer-authentication family,
 * system-register access, syscalls and barriers.
 */

#ifndef PACMAN_ISA_INST_HH
#define PACMAN_ISA_INST_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "base/logging.hh"
#include "crypto/pac.hh"
#include "isa/registers.hh"
#include "isa/sysreg.hh"

namespace pacman::isa
{

/** Encoded instruction word. */
using InstWord = uint32_t;

/** Instruction byte size (fixed-width ISA). */
constexpr unsigned InstBytes = 4;

/** ARM-style condition codes for B.cond. */
enum class Cond : uint8_t
{
    EQ = 0,  //!< Z
    NE = 1,  //!< !Z
    CS = 2,  //!< C
    CC = 3,  //!< !C
    MI = 4,  //!< N
    PL = 5,  //!< !N
    VS = 6,  //!< V
    VC = 7,  //!< !V
    HI = 8,  //!< C && !Z
    LS = 9,  //!< !C || Z
    GE = 10, //!< N == V
    LT = 11, //!< N != V
    GT = 12, //!< !Z && N == V
    LE = 13, //!< Z || N != V
    AL = 14, //!< always
};

/** Evaluate @p cond against PSTATE flags. */
bool condHolds(Cond cond, const Pstate &flags);

/** Condition mnemonic suffix ("eq", "ne", ...). */
std::string condName(Cond cond);

/** Parse a condition suffix; returns nullopt if unknown. */
std::optional<Cond> parseCondName(const std::string &name);

/**
 * The PARM64 opcode table: each opcode is defined by one row here and
 * nowhere else. The Opcode enum and the per-byte OpcodeInfo table below
 * are generated from it; the encoder, decoder, CPU model and gadget
 * scanner read every per-opcode fact through them. Columns:
 *
 *   name  Opcode enumerator
 *   byte  top byte of the encoding (gaps leave room for growth)
 *   mnem  mnemonic
 *   cls   InstClass
 *   fmt   encoding Format (field layouts in encoding.hh)
 *   rn rm rd  1 if the field is read as a source (rd: store data, the
 *         halfword MOVK merges into, the register CBZ/CBNZ test, the
 *         pointer a pac/aut/xpac modifies in place)
 *   wr    1 if the op writes its rd field (BL/BLR/BLRAA write LR)
 *   key   PA key of a keyed pac/aut or authenticate-and-branch op,
 *         NoKey otherwise
 */
#define PACMAN_PARM64_OPCODES(X)                                             \
    /* name  byte  mnem      cls             fmt   rn rm rd wr key */        \
    /* ALU, register operands (R: rd, rn, rm). SUBS/ADDS set NZCV; CMP       \
       is SUBS discarding its result; MOVR is rd := rn. */                   \
    X(ADD,   0x01, "add",    Alu,            R,    1, 1, 0, 1, NoKey)        \
    X(SUB,   0x02, "sub",    Alu,            R,    1, 1, 0, 1, NoKey)        \
    X(AND,   0x03, "and",    Alu,            R,    1, 1, 0, 1, NoKey)        \
    X(ORR,   0x04, "orr",    Alu,            R,    1, 1, 0, 1, NoKey)        \
    X(EOR,   0x05, "eor",    Alu,            R,    1, 1, 0, 1, NoKey)        \
    X(LSLV,  0x06, "lslv",   Alu,            R,    1, 1, 0, 1, NoKey)        \
    X(LSRV,  0x07, "lsrv",   Alu,            R,    1, 1, 0, 1, NoKey)        \
    X(ASRV,  0x08, "asrv",   Alu,            R,    1, 1, 0, 1, NoKey)        \
    X(MUL,   0x09, "mul",    Alu,            R,    1, 1, 0, 1, NoKey)        \
    X(SUBS,  0x0A, "subs",   Alu,            R,    1, 1, 0, 1, NoKey)        \
    X(ADDS,  0x0B, "adds",   Alu,            R,    1, 1, 0, 1, NoKey)        \
    X(CMP,   0x0C, "cmp",    Alu,            R,    1, 1, 0, 0, NoKey)        \
    X(MOVR,  0x0D, "mov",    Alu,            R,    1, 0, 0, 1, NoKey)        \
                                                                             \
    /* ALU, immediate (I: rd, rn, imm14 signed). SUBSI sets NZCV; CMPI       \
       is SUBSI discarding its result. */                                    \
    X(ADDI,  0x10, "addi",   Alu,            I,    1, 0, 0, 1, NoKey)        \
    X(SUBI,  0x11, "subi",   Alu,            I,    1, 0, 0, 1, NoKey)        \
    X(ANDI,  0x12, "andi",   Alu,            I,    1, 0, 0, 1, NoKey)        \
    X(ORRI,  0x13, "orri",   Alu,            I,    1, 0, 0, 1, NoKey)        \
    X(EORI,  0x14, "eori",   Alu,            I,    1, 0, 0, 1, NoKey)        \
    X(LSLI,  0x15, "lsli",   Alu,            I,    1, 0, 0, 1, NoKey)        \
    X(LSRI,  0x16, "lsri",   Alu,            I,    1, 0, 0, 1, NoKey)        \
    X(ASRI,  0x17, "asri",   Alu,            I,    1, 0, 0, 1, NoKey)        \
    X(SUBSI, 0x18, "subsi",  Alu,            I,    1, 0, 0, 1, NoKey)        \
    X(CMPI,  0x19, "cmpi",   Alu,            I,    1, 0, 0, 0, NoKey)        \
                                                                             \
    /* Wide immediates (M: rd, hw, imm16). MOVZ: rd := imm16 << (16*hw);     \
       MOVK: rd[16*hw +: 16] := imm16. */                                    \
    X(MOVZ,  0x1C, "movz",   Alu,            M,    0, 0, 0, 1, NoKey)        \
    X(MOVK,  0x1D, "movk",   Alu,            M,    0, 0, 1, 1, NoKey)        \
                                                                             \
    /* Memory (I: rt, [rn, #imm14]; R: rt, [rn + rm]). LDR/STR move 64       \
       bits, LDRB/STRB one byte (zero-extended on load). */                  \
    X(LDR,   0x20, "ldr",    Load,           I,    1, 0, 0, 1, NoKey)        \
    X(STR,   0x21, "str",    Store,          I,    1, 0, 1, 0, NoKey)        \
    X(LDRB,  0x22, "ldrb",   Load,           I,    1, 0, 0, 1, NoKey)        \
    X(STRB,  0x23, "strb",   Store,          I,    1, 0, 1, 0, NoKey)        \
    X(LDRR,  0x24, "ldrr",   Load,           R,    1, 1, 0, 1, NoKey)        \
    X(STRR,  0x25, "strr",   Store,          R,    1, 1, 1, 0, NoKey)        \
                                                                             \
    /* Direct branches (B: imm24 word offset; C: cond, imm20; D: rt,         \
       imm19). BL is branch with link. */                                    \
    X(B,     0x30, "b",      BranchDirect,   B,    0, 0, 0, 0, NoKey)        \
    X(BL,    0x31, "bl",     BranchDirect,   B,    0, 0, 0, 1, NoKey)        \
    X(BCOND, 0x32, "b.cond", BranchCond,     C,    0, 0, 0, 0, NoKey)        \
    X(CBZ,   0x33, "cbz",    BranchCond,     D,    0, 0, 1, 0, NoKey)        \
    X(CBNZ,  0x34, "cbnz",   BranchCond,     D,    0, 0, 1, 0, NoKey)        \
                                                                             \
    /* Indirect branches (R, rn = target; RET's rn defaults to LR). */       \
    X(BR,    0x38, "br",     BranchIndirect, R,    1, 0, 0, 0, NoKey)        \
    X(BLR,   0x39, "blr",    BranchIndirect, R,    1, 0, 0, 1, NoKey)        \
    X(RET,   0x3A, "ret",    BranchIndirect, R,    1, 0, 0, 0, NoKey)        \
                                                                             \
    /* Combined authenticate-and-branch (ARMv8.3; rn = signed target,        \
       rm = modifier; RETAA: rn = LR, rm = SP by convention). A              \
       one-instruction verification + transmission pair. */                  \
    X(BRAA,  0x3C, "braa",   BranchIndirect, R,    1, 1, 0, 0, IA)           \
    X(BLRAA, 0x3D, "blraa",  BranchIndirect, R,    1, 1, 0, 1, IA)           \
    X(RETAA, 0x3E, "retaa",  BranchIndirect, R,    1, 1, 0, 0, IA)           \
                                                                             \
    /* Pointer authentication (R: rd = pointer in/out, rn = modifier).       \
       XPAC strips the PAC without authenticating. */                        \
    X(PACIA, 0x40, "pacia",  PacSign,        R,    1, 0, 1, 1, IA)           \
    X(PACIB, 0x41, "pacib",  PacSign,        R,    1, 0, 1, 1, IB)           \
    X(PACDA, 0x42, "pacda",  PacSign,        R,    1, 0, 1, 1, DA)           \
    X(PACDB, 0x43, "pacdb",  PacSign,        R,    1, 0, 1, 1, DB)           \
    X(AUTIA, 0x48, "autia",  PacAuth,        R,    1, 0, 1, 1, IA)           \
    X(AUTIB, 0x49, "autib",  PacAuth,        R,    1, 0, 1, 1, IB)           \
    X(AUTDA, 0x4A, "autda",  PacAuth,        R,    1, 0, 1, 1, DA)           \
    X(AUTDB, 0x4B, "autdb",  PacAuth,        R,    1, 0, 1, 1, DB)           \
    X(XPAC,  0x4F, "xpac",   PacAuth,        R,    0, 0, 1, 1, NoKey)        \
                                                                             \
    /* System. MRS: rd, sysreg; MSR: rn(=rd field), sysreg; SVC: imm16       \
       syscall number; HLT: stop simulation, imm16 = exit code; BRK:         \
       breakpoint exception. */                                              \
    X(MRS,   0x50, "mrs",    System,         S,    0, 0, 0, 1, NoKey)        \
    X(MSR,   0x51, "msr",    System,         S,    1, 0, 0, 0, NoKey)        \
    X(SVC,   0x52, "svc",    System,         W,    0, 0, 0, 0, NoKey)        \
    X(ERET,  0x53, "eret",   System,         None, 0, 0, 0, 0, NoKey)        \
    X(ISB,   0x54, "isb",    Barrier,        None, 0, 0, 0, 0, NoKey)        \
    X(DSB,   0x55, "dsb",    Barrier,        None, 0, 0, 0, 0, NoKey)        \
    X(NOP,   0x56, "nop",    Alu,            None, 0, 0, 0, 0, NoKey)        \
    X(HLT,   0x57, "hlt",    System,         W,    0, 0, 0, 0, NoKey)        \
    X(BRK,   0x58, "brk",    System,         W,    0, 0, 0, 0, NoKey)

/** Opcodes. The numeric value is the top byte of the encoding. */
enum class Opcode : uint8_t
{
#define PACMAN_OPCODE_ENUMERATOR(name, byte, ...) name = byte,
    PACMAN_PARM64_OPCODES(PACMAN_OPCODE_ENUMERATOR)
#undef PACMAN_OPCODE_ENUMERATOR
};

/** Broad instruction classes used by the pipeline and the scanner. */
enum class InstClass : uint8_t
{
    Alu,
    Load,
    Store,
    BranchDirect,
    BranchCond,
    BranchIndirect,
    PacSign,
    PacAuth,
    System,
    Barrier,
};

/** Encoding format families; encoding.hh gives each field layout. */
enum class Format : uint8_t
{
    R, I, M, B, C, D, S, W, None,
};

/** Everything the ISA knows about one opcode byte. */
struct OpcodeInfo
{
    const char *mnemonic = nullptr; //!< nullptr: byte is not an opcode
    InstClass cls = InstClass::Alu;
    Format format = Format::None;
    // An undefined byte keeps these defaults, which describe a
    // generic rd := f(rn) ALU op.
    bool readsRn = true;
    bool readsRm = false;
    bool readsRd = false;  //!< reads its rd field as a source
    bool writesRd = true;
    std::optional<crypto::PacKeySelect> key;
};

namespace detail
{

constexpr std::array<OpcodeInfo, 256>
buildOpcodeTable()
{
    using enum crypto::PacKeySelect;
    constexpr std::optional<crypto::PacKeySelect> NoKey;
    std::array<OpcodeInfo, 256> table{};
#define PACMAN_OPCODE_INFO(name, byte, mnem, cls, fmt, rn, rm, rd, wr,   \
                           key)                                           \
    if (table[byte].mnemonic)                                             \
        throw "two opcodes share byte " #byte;                            \
    table[byte] = {mnem, InstClass::cls, Format::fmt, rn, rm, rd, wr, key};
    PACMAN_PARM64_OPCODES(PACMAN_OPCODE_INFO)
#undef PACMAN_OPCODE_INFO
    return table;
}

/** Indexed by opcode byte; constant-evaluated, so a byte used by two
 *  rows fails the build. */
inline constexpr std::array<OpcodeInfo, 256> OpcodeTable =
    buildOpcodeTable();

} // namespace detail

/** The table row for @p op (the all-default entry if undefined). */
inline const OpcodeInfo &
opcodeInfo(Opcode op)
{
    return detail::OpcodeTable[uint8_t(op)];
}

/**
 * A decoded instruction. All fields are populated by the decoder;
 * unused fields are zero.
 */
struct Inst
{
    Opcode op = Opcode::NOP;
    RegIndex rd = 0;       //!< destination (or PAC pointer reg, or store data)
    RegIndex rn = 0;       //!< first source / base / modifier / target
    RegIndex rm = 0;       //!< second source / offset
    Cond cond = Cond::AL;  //!< for BCOND
    int64_t imm = 0;       //!< sign-extended immediate (byte offset for
                           //!< branches, already scaled)
    SysReg sysreg = SysReg::CNTPCT_EL0;
    uint8_t hw = 0;        //!< MOVZ/MOVK halfword selector

    bool operator==(const Inst &) const = default;
};

/** Mnemonic for an opcode ("add", "autia", ...). */
inline std::string
opcodeName(Opcode op)
{
    const char *mnemonic = opcodeInfo(op).mnemonic;
    return mnemonic ? mnemonic : "?unk?";
}

/** Classification used by the CPU pipeline and gadget scanner. */
inline InstClass
instClass(Opcode op)
{
    return opcodeInfo(op).cls;
}

/** True for any load or store. */
inline bool
isMemOp(Opcode op)
{
    const InstClass c = instClass(op);
    return c == InstClass::Load || c == InstClass::Store;
}

/** True for any branch (direct, conditional, indirect). */
inline bool
isBranch(Opcode op)
{
    const InstClass c = instClass(op);
    return c == InstClass::BranchDirect || c == InstClass::BranchCond ||
           c == InstClass::BranchIndirect;
}

/** True for BCOND / CBZ / CBNZ. */
inline bool
isCondBranch(Opcode op)
{
    return instClass(op) == InstClass::BranchCond;
}

/** True for BR / BLR / RET and the authenticating variants. */
inline bool
isIndirectBranch(Opcode op)
{
    return instClass(op) == InstClass::BranchIndirect;
}

/** True for BRAA / BLRAA / RETAA (authenticate-and-branch). */
inline bool
isAuthBranch(Opcode op)
{
    return isIndirectBranch(op) && opcodeInfo(op).key.has_value();
}

/** True for the pac* signing family. */
inline bool
isPacSign(Opcode op)
{
    return instClass(op) == InstClass::PacSign;
}

/** True for the aut* family (not XPAC, which strips without a key). */
inline bool
isPacAuth(Opcode op)
{
    return instClass(op) == InstClass::PacAuth &&
           opcodeInfo(op).key.has_value();
}

/** Key selector used by a keyed pac/aut opcode. */
inline crypto::PacKeySelect
pacKeyOf(Opcode op)
{
    const OpcodeInfo &info = opcodeInfo(op);
    if (!info.key) {
        panic("pacKeyOf: %s is not a keyed PA opcode",
              opcodeName(op).c_str());
    }
    return *info.key;
}

/** True if the instruction writes its rd field. */
inline bool
writesRd(const Inst &inst)
{
    return opcodeInfo(inst.op).writesRd;
}

/** True if the instruction reads its rn / rm / rd(as source) field. */
inline bool
readsRn(const Inst &inst)
{
    return opcodeInfo(inst.op).readsRn;
}

inline bool
readsRm(const Inst &inst)
{
    return opcodeInfo(inst.op).readsRm;
}

inline bool
readsRdAsSource(const Inst &inst)
{
    return opcodeInfo(inst.op).readsRd;
}

} // namespace pacman::isa

#endif // PACMAN_ISA_INST_HH
