#include "encoding.hh"

#include "base/bitfield.hh"
#include "base/logging.hh"

namespace pacman::isa
{

namespace
{

/** Check and encode a signed word-scaled branch offset. */
uint64_t
encodeWordOffset(const Inst &inst, unsigned nbits)
{
    if (inst.imm % InstBytes != 0) {
        fatal("encode %s: branch offset %lld not word-aligned",
              opcodeName(inst.op).c_str(), (long long)inst.imm);
    }
    const int64_t words = inst.imm / InstBytes;
    if (!fitsSigned(words, nbits)) {
        fatal("encode %s: branch offset %lld exceeds %u-bit field",
              opcodeName(inst.op).c_str(), (long long)inst.imm, nbits);
    }
    return uint64_t(words) & mask(nbits);
}

} // anonymous namespace

InstWord
encode(const Inst &inst)
{
    uint64_t word = uint64_t(uint8_t(inst.op)) << 24;

    PACMAN_ASSERT(inst.rd < NumRegs && inst.rn < NumRegs &&
                  inst.rm < NumRegs,
                  "encode %s: register index out of range",
                  opcodeName(inst.op).c_str());

    switch (opcodeInfo(inst.op).format) {
      case Format::R:
        word = insertBits(word, 23, 19, inst.rd);
        word = insertBits(word, 18, 14, inst.rn);
        word = insertBits(word, 13, 9, inst.rm);
        break;
      case Format::I:
        if (!fitsSigned(inst.imm, 14)) {
            fatal("encode %s: immediate %lld exceeds signed 14-bit field",
                  opcodeName(inst.op).c_str(), (long long)inst.imm);
        }
        word = insertBits(word, 23, 19, inst.rd);
        word = insertBits(word, 18, 14, inst.rn);
        word = insertBits(word, 13, 0, uint64_t(inst.imm) & mask(14));
        break;
      case Format::M:
        if (!fitsUnsigned(uint64_t(inst.imm), 16)) {
            fatal("encode %s: immediate %lld exceeds 16-bit field",
                  opcodeName(inst.op).c_str(), (long long)inst.imm);
        }
        PACMAN_ASSERT(inst.hw < 4, "encode %s: bad halfword selector %u",
                      opcodeName(inst.op).c_str(), inst.hw);
        word = insertBits(word, 23, 19, inst.rd);
        word = insertBits(word, 18, 17, inst.hw);
        word = insertBits(word, 16, 1, uint64_t(inst.imm));
        break;
      case Format::B:
        word = insertBits(word, 23, 0, encodeWordOffset(inst, 24));
        break;
      case Format::C:
        word = insertBits(word, 23, 20, uint64_t(inst.cond));
        word = insertBits(word, 19, 0, encodeWordOffset(inst, 20));
        break;
      case Format::D:
        word = insertBits(word, 23, 19, inst.rd);
        word = insertBits(word, 18, 0, encodeWordOffset(inst, 19));
        break;
      case Format::S:
        word = insertBits(word, 23, 19, inst.rd);
        word = insertBits(word, 18, 9, uint64_t(inst.sysreg));
        break;
      case Format::W:
        if (!fitsUnsigned(uint64_t(inst.imm), 16)) {
            fatal("encode %s: immediate %lld exceeds 16-bit field",
                  opcodeName(inst.op).c_str(), (long long)inst.imm);
        }
        word = insertBits(word, 15, 0, uint64_t(inst.imm));
        break;
      case Format::None:
        break;
    }
    return InstWord(word);
}

std::optional<Inst>
decode(InstWord word)
{
    Inst inst;
    inst.op = Opcode(bits(word, 31, 24));
    const OpcodeInfo &info = opcodeInfo(inst.op);
    if (!info.mnemonic)
        return std::nullopt;

    switch (info.format) {
      case Format::R:
        inst.rd = RegIndex(bits(word, 23, 19));
        inst.rn = RegIndex(bits(word, 18, 14));
        inst.rm = RegIndex(bits(word, 13, 9));
        break;
      case Format::I:
        inst.rd = RegIndex(bits(word, 23, 19));
        inst.rn = RegIndex(bits(word, 18, 14));
        inst.imm = sext(bits(word, 13, 0), 14);
        break;
      case Format::M:
        inst.rd = RegIndex(bits(word, 23, 19));
        inst.hw = uint8_t(bits(word, 18, 17));
        inst.imm = int64_t(bits(word, 16, 1));
        break;
      case Format::B:
        inst.imm = sext(bits(word, 23, 0), 24) * InstBytes;
        break;
      case Format::C: {
        // Condition 0b1111 is not encodable by the assembler; treat
        // it as AL (as AArch64 does for the NV encoding).
        const uint64_t cond = bits(word, 23, 20);
        inst.cond = cond >= 15 ? Cond::AL : Cond(cond);
        inst.imm = sext(bits(word, 19, 0), 20) * InstBytes;
        break;
      }
      case Format::D:
        inst.rd = RegIndex(bits(word, 23, 19));
        inst.imm = sext(bits(word, 18, 0), 19) * InstBytes;
        break;
      case Format::S:
        inst.rd = RegIndex(bits(word, 23, 19));
        inst.sysreg = SysReg(bits(word, 18, 9));
        break;
      case Format::W:
        inst.imm = int64_t(bits(word, 15, 0));
        break;
      case Format::None:
        break;
    }
    return inst;
}

} // namespace pacman::isa
