/**
 * @file
 * The benchmark's workloads and the traced run's layer probes.
 *
 * Every input (machine boot seed and so PAC keys, target page,
 * modifier, campaign seeds, tenant secrets, request mix and arrival
 * schedule) is derived from the workload seed; the simulator only
 * ever sees the generated inputs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "harness.hh"
#include "runner/campaign.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir = "."; //!< sockets and the digest file go here
};

/** Stream ids for Random::deriveSeed(seed, ...): one per input. */
enum SeedStream : uint64_t
{
    BootStream = 1,
    TargetStream,
    ModifierStream,
    CampaignStream,
    TenantStream,
    MixStream,
    ArrivalStream,
    ProbeStream,
};

/** bf_sweep's campaign: the full 2^16 sweep whose truth is 0xFFFF. */
pacman::runner::BruteForceCampaignConfig bfSweepConfig(uint64_t seed);

/** acc_noisy's campaign: fresh keys per trial, noisy instruction
 *  gadget, median-of-5. */
pacman::runner::AccuracyCampaignConfig accNoisyConfig(uint64_t seed);

/** A usable oracle target for @p kind, picked from @p seed. */
uint64_t pickTarget(const pacman::kernel::MachineConfig &mcfg,
                    const pacman::attack::OracleConfig &ocfg,
                    uint64_t seed);

Result runBfSweep(const Options &opt);
Result runAccNoisy(const Options &opt);
Result runOracledMixed(const Options &opt);

/**
 * Time calls into each module's public functions on replicas built
 * from the workload seed (traced run only; records spans and
 * counters on the global tracer).
 */
void runLayerProbes(const Options &opt);

/**
 * A 4096-candidate slice of bf_sweep through the benchmark-owned
 * dispatcher with tracing on, so that every traced run carries the
 * runner's chunk, pool and merge spans.
 */
void runProbeCampaign(uint64_t seed);

/**
 * One closed-loop batch of oracled_mixed's request mix against an
 * in-process server, traced, recording the server's admission and
 * isolation counters: the campaign workloads' traced runs use it to
 * measure the serving side of the runner layer.
 */
void runServingProbe(const Options &opt, Result &res);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
