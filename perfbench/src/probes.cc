/**
 * @file
 * The traced run's layer probes: loops of calls into one public
 * function of each simulator module, each loop (or each call, where a
 * call is long enough to time alone) recorded as a span named
 * "<layer>.<function>" with n = calls covered. summarize.py turns the
 * spans into the per-layer metrics. Replicas are built from the
 * workload seed: the quiet data-gadget replica of bf_sweep and the
 * noisy instruction-gadget replica of acc_noisy.
 */

#include <unistd.h>

#include <memory>

#include "attack/oracle.hh"
#include "crypto/pac.hh"
#include "crypto/qarma64.hh"
#include "kernel/layout.hh"
#include "runner/chunk_codec.hh"
#include "runner/client.hh"
#include "runner/protocol.hh"
#include "runner/server.hh"
#include "sim/fingerprint.hh"
#include "sim/snapshot.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace pacman;
using namespace pacman::runner;

namespace perfbench
{

namespace
{

/** Keeps a probe loop's result alive so the calls are not elided. */
volatile uint64_t probeSink = 0;

/** A provisioned attack stack outside any runner::Worker. */
struct Replica
{
    std::unique_ptr<kernel::Machine> machine;
    std::unique_ptr<attack::AttackerProcess> proc;
    std::unique_ptr<attack::PacOracle> oracle;
    std::unique_ptr<sim::ReplicaCheckpoint> checkpoint;

    explicit Replica(const ReplicaConfig &cfg)
    {
        {
            ScopedSpan span("kernel.boot");
            machine = std::make_unique<kernel::Machine>(cfg.machine);
        }
        {
            ScopedSpan span("attack.provision");
            proc = std::make_unique<attack::AttackerProcess>(*machine);
            oracle = std::make_unique<attack::PacOracle>(*proc, cfg.oracle);
            oracle->setTarget(cfg.target, cfg.modifier);
        }
        ScopedSpan span("sim.ReplicaCheckpoint::capture");
        checkpoint =
            std::make_unique<sim::ReplicaCheckpoint>(*machine, *oracle);
    }
};

/** Queries with a restore after each; the span pair per query gives
 *  attack.query_us, cpu.guest_mips and sim.restore_us. */
void
probeQueries(Replica &r, const char *query_span, const char *insts_counter,
             unsigned n, Random &rng, bool time_restore)
{
    Tracer &t = Tracer::global();
    uint64_t insts = 0, pages = 0;
    for (unsigned i = 0; i < n; ++i) {
        const uint16_t cand = uint16_t(rng.next(0x10000));
        const uint64_t before = r.machine->core().stats().instsRetired;
        {
            ScopedSpan span(query_span);
            probeSink = probeSink + r.oracle->probeMisses(cand);
        }
        insts += r.machine->core().stats().instsRetired - before;
        const uint64_t copied = r.checkpoint->stats().pagesCopied;
        if (time_restore) {
            ScopedSpan span("sim.ReplicaCheckpoint::restore");
            r.checkpoint->restore();
        } else {
            r.checkpoint->restore();
        }
        pages += r.checkpoint->stats().pagesCopied - copied;
    }
    t.count(insts_counter, double(insts));
    if (time_restore) {
        t.count("sim.restores", n);
        t.count("sim.pages_copied", double(pages));
    }
}

void
probeCrypto(const crypto::PacKey &key, Random &rng)
{
    const uint64_t ptr = kernel::BenignDataBase + 0x40;
    const uint64_t tweak = rng.next();
    crypto::Qarma64 q(key.w0, key.k0);
    uint64_t acc = 0;
    {
        constexpr unsigned N = 100000;
        ScopedSpan span("crypto.Qarma64::encrypt", N);
        for (unsigned i = 0; i < N; ++i)
            acc ^= q.encrypt(ptr + i, tweak);
    }
    acc ^= crypto::computePac(ptr, tweak, key); // warm the memo entry
    {
        constexpr unsigned N = 100000;
        ScopedSpan span("crypto.computePac.hit", N);
        for (unsigned i = 0; i < N; ++i)
            acc += crypto::computePac(ptr, tweak, key);
    }
    {
        // Modifiers never used before: every call misses the memo.
        constexpr unsigned N = 20000;
        const uint64_t base = rng.next();
        ScopedSpan span("crypto.computePac.miss", N);
        for (unsigned i = 0; i < N; ++i)
            acc += crypto::computePac(ptr, base + i, key);
    }
    probeSink = probeSink + acc;
}

void
probeKernelAndMem(Replica &quiet, Replica &noisy, Random &rng)
{
    {
        constexpr unsigned N = 2000;
        ScopedSpan span("kernel.AttackerProcess::syscall", N);
        for (unsigned i = 0; i < N; ++i)
            probeSink = probeSink + quiet.proc->syscall(kernel::SYS_NOP);
    }
    quiet.checkpoint->restore();
    {
        constexpr unsigned N = 200;
        const uint64_t base = rng.next();
        ScopedSpan span("kernel.Machine::rekey", N);
        for (unsigned i = 0; i < N; ++i)
            quiet.machine->rekey(base + i);
    }
    quiet.checkpoint->restore();
    {
        constexpr unsigned N = 2000;
        ScopedSpan span("kernel.Machine::injectNoise", N);
        for (unsigned i = 0; i < N; ++i)
            noisy.machine->injectNoise();
    }
    noisy.checkpoint->restore();
    {
        constexpr unsigned N = 200000;
        mem::MemoryHierarchy &mem = quiet.machine->mem();
        uint64_t lat = 0;
        ScopedSpan span("mem.MemoryHierarchy::access", N);
        for (unsigned i = 0; i < N; ++i) {
            const isa::Addr va =
                quiet.proc->scratchPage(8 + (i & 63)) + (i & 0x3F8);
            lat += mem.access(mem::AccessKind::Load, va, 0, false).latency;
        }
        probeSink = probeSink + lat;
    }
    quiet.checkpoint->restore();
    {
        constexpr unsigned N = 50;
        for (unsigned i = 0; i < N; ++i) {
            ScopedSpan span("sim.machineFingerprint");
            probeSink = probeSink + sim::machineFingerprint(*quiet.machine);
        }
    }
}

void
probeCodecAndWire(const BruteForceCampaignConfig &cfg)
{
    // A real chunk payload: 256 candidates that miss the truth.
    Worker w(cfg.replica, cfg.supervision);
    const std::string payload = executeBfChunk(w, cfg, Chunk{0, 0, 255});
    BfChunkResult r;
    decodeBfChunk(payload, r);
    {
        constexpr unsigned N = 1000;
        ScopedSpan span("runner.codec.encodeBfChunk", N);
        for (unsigned i = 0; i < N; ++i)
            probeSink = probeSink + encodeBfChunk(r).size();
    }
    {
        constexpr unsigned N = 1000;
        ScopedSpan span("runner.codec.decodeBfChunk", N);
        for (unsigned i = 0; i < N; ++i)
            probeSink = probeSink + decodeBfChunk(payload, r);
    }

    const std::string config =
        encodeReplicaWire(cfg.replica, cfg.supervision);
    WireMessage m;
    m.id = 12345;
    m.verb = "QUERY";
    m.args = "1f2e 0123456789abcdef";
    m.body = config;
    const std::string packed = packMessage(m);
    {
        constexpr unsigned N = 5000;
        ScopedSpan span("runner.wire.packMessage", N);
        for (unsigned i = 0; i < N; ++i)
            probeSink = probeSink + packMessage(m).size();
    }
    {
        constexpr unsigned N = 5000;
        ScopedSpan span("runner.wire.unpackMessage", N);
        for (unsigned i = 0; i < N; ++i)
            probeSink = probeSink + unpackMessage(packed)->id;
    }
    {
        constexpr unsigned N = 2000;
        ScopedSpan span("runner.wire.encodeReplicaWire", N);
        for (unsigned i = 0; i < N; ++i)
            probeSink = probeSink +
                        encodeReplicaWire(cfg.replica, cfg.supervision).size();
    }
    {
        constexpr unsigned N = 2000;
        ReplicaConfig rc;
        SupervisionConfig sc;
        ScopedSpan span("runner.wire.decodeReplicaWire", N);
        for (unsigned i = 0; i < N; ++i)
            probeSink = probeSink + decodeReplicaWire(config, rc, sc);
    }
}

void
probePing(const Options &opt)
{
    ServerConfig sc;
    sc.socketPath = strprintf("%s/pb-probe-%d.sock", opt.workDir.c_str(),
                              int(::getpid()));
    sc.threads = 1;
    OracleServer server(sc);
    server.start();
    {
        OracleClient client("unix:" + sc.socketPath);
        constexpr unsigned N = 500;
        for (unsigned i = 0; i < N; ++i) {
            ScopedSpan span("runner.ping");
            client.ping();
        }
    }
    server.waitDrained();
}

} // anonymous namespace

void
runLayerProbes(const Options &opt)
{
    Tracer &t = Tracer::global();
    t.enable(true);
    Random rng(Random::deriveSeed(opt.seed, ProbeStream));
    const BruteForceCampaignConfig bf = bfSweepConfig(opt.seed);
    const AccuracyCampaignConfig acc = accNoisyConfig(opt.seed);

    // Extra provisionings for a steadier attack.provision figure.
    for (int i = 0; i < 4; ++i)
        Replica discard(bf.replica);
    Replica quiet(bf.replica);
    Replica noisy(acc.replica);

    probeQueries(quiet, "attack.PacOracle::probeMisses.data",
                 "cpu.probe_insts.data", 1000, rng, true);
    probeQueries(noisy, "attack.PacOracle::probeMisses.inst",
                 "cpu.probe_insts.inst", 500, rng, false);
    probeKernelAndMem(quiet, noisy, rng);
    probeCrypto(quiet.machine->kernel().key(crypto::PacKeySelect::DA), rng);
    probeCodecAndWire(bf);
    probePing(opt);
    runProbeCampaign(opt.seed);
    t.enable(false);
}

} // namespace perfbench
