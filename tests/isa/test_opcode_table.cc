/**
 * @file
 * Golden text of every PARM64 opcode byte. For each byte: whether it
 * decodes. For each opcode: mnemonic, class, operand roles, the seven
 * classification predicates, the PA key of keyed ops, the fields
 * decode() returns for (byte << 24 | 0xABCDEF), the re-encoding of
 * that Inst, and its disassembly at pc 0x1000. The CPU model and the
 * gadget scanner both read these facts, so any change to one opcode's
 * properties shows up here as a one-line diff.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/stats.hh"
#include "isa/disasm.hh"
#include "isa/encoding.hh"

namespace pacman::isa
{
namespace
{

/** Low 24 bits under every opcode byte: exercises every field. */
constexpr InstWord FieldBits = 0xABCDEF;

std::string
className(InstClass c)
{
    static const char *names[] = {
        "alu", "load", "store", "br-direct", "br-cond", "br-indirect",
        "pac-sign", "pac-auth", "system", "barrier",
    };
    return names[unsigned(c)];
}

/** Comma-separated @p names whose flag is set, or "-". */
std::string
flagList(std::initializer_list<std::pair<bool, const char *>> flags)
{
    std::string out;
    for (const auto &[set, name] : flags) {
        if (set)
            out += (out.empty() ? "" : ",") + std::string(name);
    }
    return out.empty() ? "-" : out;
}

/** Two lines for one defined opcode: properties, then operands. */
std::string
describe(const Inst &inst)
{
    const Opcode op = inst.op;
    const bool keyed = isPacSign(op) || isPacAuth(op) || isAuthBranch(op);
    std::string out = strprintf(
        "%02x %-6s %-11s reads=%s writes=%s is=%s key=%s\n",
        unsigned(op), opcodeName(op).c_str(),
        className(instClass(op)).c_str(),
        flagList({{readsRn(inst), "rn"},
                  {readsRm(inst), "rm"},
                  {readsRdAsSource(inst), "rd"}})
            .c_str(),
        writesRd(inst) ? "rd" : "-",
        flagList({{isMemOp(op), "mem"},
                  {isBranch(op), "branch"},
                  {isCondBranch(op), "cond"},
                  {isIndirectBranch(op), "indirect"},
                  {isAuthBranch(op), "authbr"},
                  {isPacSign(op), "pacsign"},
                  {isPacAuth(op), "pacauth"}})
            .c_str(),
        keyed ? crypto::pacKeyName(pacKeyOf(op)) : "-");
    out += strprintf(
        "   rd=%u rn=%u rm=%u cond=%s imm=%lld sysreg=%u hw=%u "
        "enc=%08x \"%s\"\n",
        unsigned(inst.rd), unsigned(inst.rn), unsigned(inst.rm),
        condName(inst.cond).c_str(), (long long)inst.imm,
        unsigned(inst.sysreg), unsigned(inst.hw), encode(inst),
        disassemble(inst, 0x1000).c_str());
    return out;
}

/** The whole table; runs of undefined bytes collapse to one line. */
std::string
renderTable()
{
    std::string out;
    unsigned byte = 0;
    while (byte < 256) {
        const auto inst = decode(InstWord(byte) << 24 | FieldBits);
        if (inst) {
            out += describe(*inst);
            ++byte;
            continue;
        }
        unsigned last = byte;
        while (last + 1 < 256 &&
               !decode(InstWord(last + 1) << 24 | FieldBits))
            ++last;
        out += strprintf("%02x-%02x undefined\n", byte, last);
        byte = last + 1;
    }
    return out;
}

const char *const Golden = R"(00-00 undefined
01 add    alu         reads=rn,rm writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=01abcc00 "add x21, x15, x6"
02 sub    alu         reads=rn,rm writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=02abcc00 "sub x21, x15, x6"
03 and    alu         reads=rn,rm writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=03abcc00 "and x21, x15, x6"
04 orr    alu         reads=rn,rm writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=04abcc00 "orr x21, x15, x6"
05 eor    alu         reads=rn,rm writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=05abcc00 "eor x21, x15, x6"
06 lslv   alu         reads=rn,rm writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=06abcc00 "lslv x21, x15, x6"
07 lsrv   alu         reads=rn,rm writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=07abcc00 "lsrv x21, x15, x6"
08 asrv   alu         reads=rn,rm writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=08abcc00 "asrv x21, x15, x6"
09 mul    alu         reads=rn,rm writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=09abcc00 "mul x21, x15, x6"
0a subs   alu         reads=rn,rm writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=0aabcc00 "subs x21, x15, x6"
0b adds   alu         reads=rn,rm writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=0babcc00 "adds x21, x15, x6"
0c cmp    alu         reads=rn,rm writes=- is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=0cabcc00 "cmp x15, x6"
0d mov    alu         reads=rn writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=0dabcc00 "mov x21, x15"
0e-0f undefined
10 addi   alu         reads=rn writes=rd is=- key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=10abcdef "addi x21, x15, #3567"
11 subi   alu         reads=rn writes=rd is=- key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=11abcdef "subi x21, x15, #3567"
12 andi   alu         reads=rn writes=rd is=- key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=12abcdef "andi x21, x15, #3567"
13 orri   alu         reads=rn writes=rd is=- key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=13abcdef "orri x21, x15, #3567"
14 eori   alu         reads=rn writes=rd is=- key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=14abcdef "eori x21, x15, #3567"
15 lsli   alu         reads=rn writes=rd is=- key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=15abcdef "lsli x21, x15, #3567"
16 lsri   alu         reads=rn writes=rd is=- key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=16abcdef "lsri x21, x15, #3567"
17 asri   alu         reads=rn writes=rd is=- key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=17abcdef "asri x21, x15, #3567"
18 subsi  alu         reads=rn writes=rd is=- key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=18abcdef "subsi x21, x15, #3567"
19 cmpi   alu         reads=rn writes=- is=- key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=19abcdef "cmpi x15, #3567"
1a-1b undefined
1c movz   alu         reads=- writes=rd is=- key=-
   rd=21 rn=0 rm=0 cond=al imm=59127 sysreg=0 hw=1 enc=1cabcdee "movz x21, #0xe6f7, lsl #16"
1d movk   alu         reads=rd writes=rd is=- key=-
   rd=21 rn=0 rm=0 cond=al imm=59127 sysreg=0 hw=1 enc=1dabcdee "movk x21, #0xe6f7, lsl #16"
1e-1f undefined
20 ldr    load        reads=rn writes=rd is=mem key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=20abcdef "ldr x21, [x15, #3567]"
21 str    store       reads=rn,rd writes=- is=mem key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=21abcdef "str x21, [x15, #3567]"
22 ldrb   load        reads=rn writes=rd is=mem key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=22abcdef "ldrb x21, [x15, #3567]"
23 strb   store       reads=rn,rd writes=- is=mem key=-
   rd=21 rn=15 rm=0 cond=al imm=3567 sysreg=0 hw=0 enc=23abcdef "strb x21, [x15, #3567]"
24 ldrr   load        reads=rn,rm writes=rd is=mem key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=24abcc00 "ldrr x21, [x15, x6]"
25 strr   store       reads=rn,rm,rd writes=- is=mem key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=25abcc00 "strr x21, [x15, x6]"
26-2f undefined
30 b      br-direct   reads=- writes=- is=branch key=-
   rd=0 rn=0 rm=0 cond=al imm=-22071364 sysreg=0 hw=0 enc=30abcdef "b 0xfffffffffeaf47bc"
31 bl     br-direct   reads=- writes=rd is=branch key=-
   rd=0 rn=0 rm=0 cond=al imm=-22071364 sysreg=0 hw=0 enc=31abcdef "bl 0xfffffffffeaf47bc"
32 b.cond br-cond     reads=- writes=- is=branch,cond key=-
   rd=0 rn=0 rm=0 cond=ge imm=-1099844 sysreg=0 hw=0 enc=32abcdef "b.ge 0xffffffffffef47bc"
33 cbz    br-cond     reads=rd writes=- is=branch,cond key=-
   rd=21 rn=0 rm=0 cond=al imm=997308 sysreg=0 hw=0 enc=33abcdef "cbz x21, 0xf47bc"
34 cbnz   br-cond     reads=rd writes=- is=branch,cond key=-
   rd=21 rn=0 rm=0 cond=al imm=997308 sysreg=0 hw=0 enc=34abcdef "cbnz x21, 0xf47bc"
35-37 undefined
38 br     br-indirect reads=rn writes=- is=branch,indirect key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=38abcc00 "br x15"
39 blr    br-indirect reads=rn writes=rd is=branch,indirect key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=39abcc00 "blr x15"
3a ret    br-indirect reads=rn writes=- is=branch,indirect key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=3aabcc00 "ret x15"
3b-3b undefined
3c braa   br-indirect reads=rn,rm writes=- is=branch,indirect,authbr key=IA
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=3cabcc00 "braa x15, x6"
3d blraa  br-indirect reads=rn,rm writes=rd is=branch,indirect,authbr key=IA
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=3dabcc00 "blraa x15, x6"
3e retaa  br-indirect reads=rn,rm writes=- is=branch,indirect,authbr key=IA
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=3eabcc00 "retaa"
3f-3f undefined
40 pacia  pac-sign    reads=rn,rd writes=rd is=pacsign key=IA
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=40abcc00 "pacia x21, x15"
41 pacib  pac-sign    reads=rn,rd writes=rd is=pacsign key=IB
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=41abcc00 "pacib x21, x15"
42 pacda  pac-sign    reads=rn,rd writes=rd is=pacsign key=DA
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=42abcc00 "pacda x21, x15"
43 pacdb  pac-sign    reads=rn,rd writes=rd is=pacsign key=DB
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=43abcc00 "pacdb x21, x15"
44-47 undefined
48 autia  pac-auth    reads=rn,rd writes=rd is=pacauth key=IA
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=48abcc00 "autia x21, x15"
49 autib  pac-auth    reads=rn,rd writes=rd is=pacauth key=IB
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=49abcc00 "autib x21, x15"
4a autda  pac-auth    reads=rn,rd writes=rd is=pacauth key=DA
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=4aabcc00 "autda x21, x15"
4b autdb  pac-auth    reads=rn,rd writes=rd is=pacauth key=DB
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=4babcc00 "autdb x21, x15"
4c-4e undefined
4f xpac   pac-auth    reads=rd writes=rd is=- key=-
   rd=21 rn=15 rm=6 cond=al imm=0 sysreg=0 hw=0 enc=4fabcc00 "xpac x21"
50 mrs    system      reads=- writes=rd is=- key=-
   rd=21 rn=0 rm=0 cond=al imm=0 sysreg=486 hw=0 enc=50abcc00 "mrs x21, sysreg#486"
51 msr    system      reads=rn writes=- is=- key=-
   rd=21 rn=0 rm=0 cond=al imm=0 sysreg=486 hw=0 enc=51abcc00 "msr sysreg#486, x21"
52 svc    system      reads=- writes=- is=- key=-
   rd=0 rn=0 rm=0 cond=al imm=52719 sysreg=0 hw=0 enc=5200cdef "svc #52719"
53 eret   system      reads=- writes=- is=- key=-
   rd=0 rn=0 rm=0 cond=al imm=0 sysreg=0 hw=0 enc=53000000 "eret"
54 isb    barrier     reads=- writes=- is=- key=-
   rd=0 rn=0 rm=0 cond=al imm=0 sysreg=0 hw=0 enc=54000000 "isb"
55 dsb    barrier     reads=- writes=- is=- key=-
   rd=0 rn=0 rm=0 cond=al imm=0 sysreg=0 hw=0 enc=55000000 "dsb"
56 nop    alu         reads=- writes=- is=- key=-
   rd=0 rn=0 rm=0 cond=al imm=0 sysreg=0 hw=0 enc=56000000 "nop"
57 hlt    system      reads=- writes=- is=- key=-
   rd=0 rn=0 rm=0 cond=al imm=52719 sysreg=0 hw=0 enc=5700cdef "hlt #52719"
58 brk    system      reads=- writes=- is=- key=-
   rd=0 rn=0 rm=0 cond=al imm=52719 sysreg=0 hw=0 enc=5800cdef "brk #52719"
59-ff undefined
)";

TEST(OpcodeTable, EveryByteMatchesGolden)
{
    EXPECT_EQ(renderTable(), Golden);
}

} // anonymous namespace
} // namespace pacman::isa
