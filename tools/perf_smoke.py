#!/usr/bin/env python3
"""Run the micro_sim_perf benchmark binary and distil its JSON output
into the checked-in perf baseline (BENCH_PR13.json).

The baseline captures the handful of end-to-end numbers the project
optimizes for — guest MIPS on the Figure-8 training loop at both
CoreConfig::fastPath settings (FastPath::Full, the default build, and
FastPath::Reference, the plain interpreter), the superblock engine's
own telemetry (threaded-dispatch instruction rate, dispatch hit rate,
invalidation count), oracle queries per second, the wall clock of a
Figure-8 subset extrapolated to the paper's 20000-trial campaign, and
the replica checkpointing numbers
(full provision cost, per-item restore cost, and the snapshot-vs-
fresh accuracy-campaign speedup) — in a direction-annotated schema
that tools/perf_compare.py can diff across commits. Metrics new in
this baseline simply show as "added" against older baselines; the
compare gate only fires on shared metrics.

Benchmarks run --repetitions times (default 5); every distilled value
is the across-repetition *median*, and each metric carries the
run-to-run coefficient of variation ("cv", fractional) alongside it
so a noisy measurement is visible in the baseline itself rather than
silently baked into a single sample.

With --server-bench pointing at build/bench/server_campaign, the
baseline additionally records the oracle server's single-connection
QUERY throughput and the remote-vs-local campaign wall-clock overhead
(parsed from the bench's BENCH JSON lines).

Usage:
    python3 tools/perf_smoke.py --bench build/bench/micro_sim_perf \
        --output BENCH_PR13.json [--min-time 0.5] [--repetitions 5] \
        [--server-bench build/bench/server_campaign] \
        [--supersedes BENCH_PR10.json] [--provenance "why rebaselined"]
"""

import argparse
import json
import math
import subprocess
import sys

SCHEMA = "pacman-bench-v1"

# Paper scale: Figure 8 runs 20000 trials; BM_Fig8Subset runs 16 per
# benchmark iteration.
FIG8_CAMPAIGN_TRIALS = 20000
FIG8_SUBSET_TRIALS_PER_ITER = 16


def run_benchmark(bench, min_time, repetitions):
    """Run the benchmark binary, returning google-benchmark's JSON."""
    cmd = [
        bench,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if repetitions > 1:
        cmd += [
            f"--benchmark_repetitions={repetitions}",
            "--benchmark_report_aggregates_only=true",
        ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


def index_runs(raw):
    """Map base benchmark name -> {aggregate_name: benchmark entry}.

    Without repetitions each benchmark appears once, keyed under the
    pseudo-aggregate "value"; with --benchmark_repetitions the JSON
    carries one entry per aggregate (mean/median/stddev/cv) whose
    run_name is the base name.
    """
    runs = {}
    for b in raw.get("benchmarks", []):
        base = b.get("run_name", b["name"])
        agg = b.get("aggregate_name", "value")
        runs.setdefault(base, {})[agg] = b
    return runs


def to_seconds(value, unit):
    return value * {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[unit]


def distil(raw):
    """Reduce google-benchmark JSON to the headline metric dict."""
    runs = index_runs(raw)

    def need(name):
        # Benchmarks registered with a pinned Iterations() count carry
        # an "/iterations:N" suffix in google-benchmark's JSON; accept
        # the bare name either way. Returns (median entry, cv entry or
        # None): the median is the distilled value, the cv entry holds
        # the fractional run-to-run variation of every field.
        for base, aggs in runs.items():
            if base == name or base.startswith(name + "/iterations:"):
                value = aggs.get("median") or aggs.get("value")
                if value is not None:
                    return value, aggs.get("cv")
        raise KeyError(f"benchmark '{name}' missing from output")

    # The benchmark argument is the cpu::FastPath value.
    fast, fast_cv = need("BM_Fig8TrainingLoop/1")  # FastPath::Full
    slow, slow_cv = need("BM_Fig8TrainingLoop/0")  # FastPath::Reference
    oracle, oracle_cv = need("BM_OracleQuery")
    syscall, syscall_cv = need("BM_GuestSyscall")
    subset, subset_cv = need("BM_Fig8Subset")
    provision, provision_cv = need("BM_ReplicaProvision")
    restore, restore_cv = need("BM_SnapshotRestore")
    acc_snap, acc_snap_cv = need("BM_AccuracyCampaign/1")
    acc_fresh, acc_fresh_cv = need("BM_AccuracyCampaign/0")

    def metric(value, better, cv_entry, cv_field):
        m = {"value": value, "better": better}
        # A constant-zero counter yields cv = 0/0 = NaN; keep the
        # baseline strict JSON by recording only finite CVs.
        if cv_entry is not None and cv_field in cv_entry:
            cv = cv_entry[cv_field]
            if math.isfinite(cv):
                m["cv"] = cv
        return m

    subset_iter_s = to_seconds(subset["real_time"], subset["time_unit"])
    campaign_wall_s = (subset_iter_s / FIG8_SUBSET_TRIALS_PER_ITER *
                      FIG8_CAMPAIGN_TRIALS)

    metrics = {
        # FastPath::Full — the shipped build.
        "fig8_guest_mips": metric(
            fast["guest_insts"] / 1e6, "higher", fast_cv,
            "guest_insts"),
        "fig8_guest_mips_slowpath": metric(
            slow["guest_insts"] / 1e6, "higher", slow_cv,
            "guest_insts"),
        # Superblock engine telemetry (from the default-config run):
        # the rate of instructions retired via threaded dispatch, the
        # dispatch hit rate, and stale-generation/epoch invalidations
        # over the measured region (a handful from warm-up churn is
        # normal; a large count means blocks are thrashing).
        "fig8_superblock_mips": metric(
            fast["sb_insts"] / 1e6, "higher", fast_cv, "sb_insts"),
        "superblock_hit_rate": metric(
            fast["sb_hit_rate"], "higher", fast_cv, "sb_hit_rate"),
        "superblock_invalidations": metric(
            fast["sb_invalidations"], "lower", fast_cv,
            "sb_invalidations"),
        "fig8_queries_per_sec": metric(
            fast["queries_per_sec"], "higher", fast_cv,
            "queries_per_sec"),
        "fig8_decode_hit_rate": metric(
            fast["decode_hit_rate"], "higher", fast_cv,
            "decode_hit_rate"),
        "oracle_queries_per_sec": metric(
            oracle["queries_per_sec"], "higher", oracle_cv,
            "queries_per_sec"),
        "syscall_guest_mips": metric(
            syscall["guest_insts"] / 1e6, "higher", syscall_cv,
            "guest_insts"),
        "fig8_subset_wall_s": metric(
            campaign_wall_s, "lower", subset_cv, "real_time"),
    }
    speedup = (metrics["fig8_guest_mips"]["value"] /
               metrics["fig8_guest_mips_slowpath"]["value"])
    metrics["fastpath_speedup"] = {"value": speedup, "better": "higher"}

    # Replica checkpointing (the provision-once/restore-per-item fast
    # path): what one worker pays to provision a replica from scratch,
    # what a per-item checkpoint restore costs instead, and the
    # end-to-end accuracy-campaign speedup the trade buys (both modes
    # produce bit-identical fingerprints; tests/runner/
    # test_snapshot_equiv.cc holds that line).
    metrics["provision_ms"] = metric(
        to_seconds(provision["real_time"],
                   provision["time_unit"]) * 1e3,
        "lower", provision_cv, "real_time")
    metrics["restore_us"] = metric(
        to_seconds(restore["real_time"],
                   restore["time_unit"]) * 1e6,
        "lower", restore_cv, "real_time")
    metrics["accuracy_trials_per_sec"] = metric(
        acc_snap["trials_per_sec"], "higher", acc_snap_cv,
        "trials_per_sec")
    metrics["accuracy_snapshot_speedup"] = {
        "value": (to_seconds(acc_fresh["real_time"],
                             acc_fresh["time_unit"]) /
                  to_seconds(acc_snap["real_time"],
                             acc_snap["time_unit"])),
        "better": "higher",
    }
    return metrics


def bench_json_lines(output):
    """Parse `BENCH {...}` JSON lines from a bench binary's stdout."""
    records = []
    for line in output.splitlines():
        if line.startswith("BENCH "):
            records.append(json.loads(line[len("BENCH "):]))
    return records


def server_metrics(server_bench, workdir):
    """Run bench/server_campaign --quick and distil its BENCH lines."""
    proc = subprocess.run(
        [server_bench, "--quick", "--workdir", workdir],
        stdout=subprocess.PIPE, check=True, text=True)
    records = bench_json_lines(proc.stdout)

    metrics = {}
    throughput = [r for r in records
                  if r.get("scenario") == "query_throughput"]
    if throughput:
        metrics["server_queries_per_sec"] = {
            "value": throughput[-1]["queries_per_sec"],
            "better": "higher",
        }
    # Dispatch overhead at the highest measured concurrency: remote
    # wall over local wall for the fault-free brute-force sweep.
    brute = [r for r in records
             if r.get("scenario") == "bruteforce"
             and r.get("fault_rate") == 0.0]
    if brute:
        best = max(brute, key=lambda r: r["jobs"])
        if best["wall_local_s"] > 0:
            metrics["server_dispatch_overhead"] = {
                "value": best["wall_remote_s"] / best["wall_local_s"],
                "better": "lower",
            }
    if any(not r.get("identical", True) for r in records):
        raise RuntimeError("server_campaign reported a fingerprint "
                           "divergence")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", default="build/bench/micro_sim_perf",
                        help="path to the micro_sim_perf binary")
    parser.add_argument("--output", default="BENCH_PR13.json",
                        help="where to write the distilled baseline")
    parser.add_argument("--min-time", default="0.5",
                        help="per-benchmark --benchmark_min_time")
    parser.add_argument("--repetitions", type=int, default=5,
                        help="benchmark repetitions; values are "
                             "medians across them, with run-to-run "
                             "CV recorded per metric")
    parser.add_argument("--server-bench", default=None,
                        help="path to bench/server_campaign; adds the "
                             "oracle-server throughput metrics")
    parser.add_argument("--server-workdir", default="server_artifacts",
                        help="artifact dir for --server-bench")
    parser.add_argument("--supersedes", default=None,
                        help="baseline file this measurement replaces "
                             "(recorded as provenance)")
    parser.add_argument("--provenance", default=None,
                        help="one-line reason this baseline was "
                             "re-measured (recorded in the output)")
    args = parser.parse_args(argv)

    raw = run_benchmark(args.bench, args.min_time, args.repetitions)
    metrics = distil(raw)
    if args.server_bench:
        metrics.update(server_metrics(args.server_bench,
                                      args.server_workdir))

    result = {
        "schema": SCHEMA,
        "context": {
            "host": raw.get("context", {}).get("host_name", "unknown"),
            "num_cpus": raw.get("context", {}).get("num_cpus", 0),
            "repetitions": args.repetitions,
        },
        "metrics": metrics,
    }
    if args.supersedes or args.provenance:
        result["provenance"] = {}
        if args.supersedes:
            result["provenance"]["supersedes"] = args.supersedes
        if args.provenance:
            result["provenance"]["note"] = args.provenance
    with open(args.output, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")

    for name in sorted(metrics):
        cv = metrics[name].get("cv")
        cv_note = f" (cv {cv:.1%})" if cv is not None else ""
        print(f"{name}: {metrics[name]['value']:.4g}{cv_note}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
