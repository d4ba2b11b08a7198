/**
 * @file
 * Section 9 countermeasure ablations. Each mitigation (plus each of
 * the attack's necessary micro-architectural conditions) is toggled
 * and the PAC oracle re-run: a defeated oracle can no longer
 * distinguish the correct PAC. The aut-fence's performance cost is
 * also measured on a PA-heavy workload.
 *
 * Flags: --trials N (default 400). One row's binomial standard error
 * is about 0.5/sqrt(N), 0.025 at the default: small enough to tell a
 * defeated oracle from one that still recognises a few correct PACs,
 * which 40 queries (0.08) could not.
 */

#include <cstdio>
#include <cstring>
#include <functional>

#include "attack/oracle.hh"
#include "base/stats.hh"
#include "kernel/layout.hh"

using namespace pacman;
using namespace pacman::attack;
using namespace pacman::kernel;

namespace
{

struct Ablation
{
    const char *name;
    const char *paperRef;
    std::function<void(MachineConfig &)> apply;
    GadgetKind gadget = GadgetKind::Data;
    bool skipReset = false;
    bool expectDefeated = true;
};

/** Fraction of trials where the oracle classifies correctly. */
double
oracleAccuracy(const MachineConfig &cfg, GadgetKind kind,
               unsigned trials, bool skip_reset = false)
{
    Machine machine(cfg);
    AttackerProcess proc(machine);
    OracleConfig ocfg;
    ocfg.kind = kind;
    ocfg.skipReset = skip_reset;
    PacOracle oracle(proc, ocfg);
    const isa::Addr target =
        kind == GadgetKind::Data ? BenignDataBase + 37 * isa::PageSize
                                 : TrampolineBase + 37 * isa::PageSize;
    oracle.setTarget(target, 0x42);
    const uint16_t truth = machine.kernel().truePac(
        target, 0x42,
        kind == GadgetKind::Data ? crypto::PacKeySelect::DA
                                 : crypto::PacKeySelect::IA);

    Random coin(7);
    unsigned right = 0;
    for (unsigned t = 0; t < trials; ++t) {
        const bool use_correct = coin.chance(0.5);
        const uint16_t pac =
            use_correct ? truth : uint16_t(truth + 1 + coin.next(100));
        right += oracle.testPac(pac) == use_correct;
    }
    return double(right) / trials;
}

/** Cycles for a PA-heavy kernel workload (training loop). */
uint64_t
paWorkloadCycles(const MachineConfig &cfg)
{
    Machine machine(cfg);
    AttackerProcess proc(machine);
    proc.syscall(SYS_SET_MODIFIER, 0);
    proc.syscall(SYS_SET_COND, 1);
    const uint64_t legit = proc.syscall(SYS_GET_LEGIT_DATA);
    const uint64_t before = machine.core().cycle();
    for (int i = 0; i < 200; ++i)
        proc.syscall(SYS_GADGET_DATA, legit); // aut + load each call
    return machine.core().cycle() - before;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned trials = 400;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--trials") && i + 1 < argc)
            trials = unsigned(std::strtoul(argv[++i], nullptr, 0));
    }

    std::printf("=== Section 9: countermeasures and necessary-"
                "condition ablations ===\n\n");
    std::printf("Oracle accuracy: 1.0 = perfect PAC oracle, ~0.5 = "
                "defeated (coin-flip).\n\n");

    const Ablation ablations[] = {
        {"baseline (no mitigation)", "Section 8 PoC",
         [](MachineConfig &) {}, GadgetKind::Data, false, false},
        {"aut-fence (PAC-agnostic execution)",
         "Sec 9: fence after pointer authentication",
         [](MachineConfig &cfg) { cfg.core.autFence = true; }},
        {"STT-style PA-output taint",
         "Sec 9: taint starts at aut, not loads",
         [](MachineConfig &cfg) { cfg.core.pacTaint = true; }},
        {"delay-on-miss TLB fills",
         "Sec 9: invisible speculation, extended to TLBs",
         [](MachineConfig &cfg) { cfg.hier.delayOnMiss = true; }},
        {"FPAC (ARMv8.6 fault-on-aut)",
         "does NOT help: crash suppression still applies",
         [](MachineConfig &cfg) { cfg.core.fpac = true; },
         GadgetKind::Data, false, false},
        {"FPAC, instruction gadget",
         "likewise bypassed",
         [](MachineConfig &cfg) { cfg.core.fpac = true; },
         GadgetKind::Instruction, false, false},
        {"aut-fence vs combined blraa gadget",
         "extension: no place to fence inside braa/blraa",
         [](MachineConfig &cfg) { cfg.core.autFence = true; },
         GadgetKind::Combined, false, false},
        {"PA-output taint vs combined gadget",
         "taint covers the internal auth output",
         [](MachineConfig &cfg) { cfg.core.pacTaint = true; },
         GadgetKind::Combined},
        {"no speculative memory issue",
         "necessary condition for the data gadget",
         [](MachineConfig &cfg) {
             cfg.core.speculativeMemIssue = false;
         }},
        {"no eager nested squash (inst gadget)",
         "necessary condition, Section 4.2",
         [](MachineConfig &cfg) {
             cfg.core.eagerNestedSquash = false;
         },
         GadgetKind::Instruction},
        {"attacker skips the TLB-reset step",
         "why the paper's step (2) matters: short window",
         [](MachineConfig &) {}, GadgetKind::Data,
         /*skipReset=*/true},
        {"random TLB replacement",
         "the P+P sensitivity the reset step tames",
         [](MachineConfig &cfg) {
             cfg.hier.replPolicy = mem::ReplPolicy::Random;
         },
         GadgetKind::Data, false, false},
    };

    TextTable table;
    table.header({"Configuration", "Gadget", "Oracle accuracy",
                  "Verdict"});
    for (const Ablation &ab : ablations) {
        MachineConfig cfg = defaultMachineConfig();
        ab.apply(cfg);
        const double acc =
            oracleAccuracy(cfg, ab.gadget, trials, ab.skipReset);
        const char *gname = ab.gadget == GadgetKind::Data
                                ? "data"
                                : (ab.gadget == GadgetKind::Combined
                                       ? "blraa" : "inst");
        table.row({ab.name, gname,
                   strprintf("%.2f", acc),
                   acc > 0.9 ? "attack works"
                             : (acc < 0.65 ? "attack defeated"
                                           : "degraded")});
    }
    std::printf("%s\n", table.render().c_str());

    // Performance cost of the aut-fence, the paper's main worry
    // ("can incur significant performance penalty").
    MachineConfig base = defaultMachineConfig();
    MachineConfig fenced = defaultMachineConfig();
    fenced.core.autFence = true;
    const uint64_t base_cycles = paWorkloadCycles(base);
    const uint64_t fence_cycles = paWorkloadCycles(fenced);
    std::printf("aut-fence overhead on a PA-heavy syscall loop: "
                "%.1f%% (%llu -> %llu cycles)\n",
                100.0 * (double(fence_cycles) / double(base_cycles) -
                         1.0),
                (unsigned long long)base_cycles,
                (unsigned long long)fence_cycles);
    return 0;
}
