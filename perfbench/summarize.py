#!/usr/bin/env python3
"""Derive the per-layer metrics from a pacbench trace.

The trace is Chrome trace-event JSON written by a traced run
(`pacbench --trace 1`): one complete ("X") event per span, with
`args.id`, `args.parent` (0 for a root), `args.req` (the request a span
belongs to, 0 if none) and `args.n` (calls the span covers), plus the
run's counters under `otherData.counters`.

    python3 perfbench/summarize.py TRACE.json

prints the self-time table and the metrics as JSON. run.py imports
`per_layer_metrics` instead.
"""

import json
import sys
from collections import defaultdict


def load(path):
    """Return (spans, counters) from a trace file."""
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        a = e.get("args", {})
        spans.append({
            "name": e["name"],
            "tid": e.get("tid", 0),
            "start": float(e["ts"]),           # microseconds
            "end": float(e["ts"]) + float(e["dur"]),
            "id": int(a.get("id", 0)),
            "parent": int(a.get("parent", 0)),
            "req": int(a.get("req", 0)),
            "n": int(a.get("n", 1)),
        })
    return spans, doc.get("otherData", {}).get("counters", {})


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals
                     if min(e, hi) > max(s, lo))
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Map span id -> self time: its duration minus the part of its
    interval that its child spans cover (overlapping children, as on
    a pool's threads, count once)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) -
            covered(children[s["id"]], s["start"], s["end"])
            for s in spans}


def by_name(spans):
    """name -> (span count, calls covered, total us, self us)."""
    selfs = self_times(spans)
    table = defaultdict(lambda: [0, 0, 0.0, 0.0])
    for s in spans:
        row = table[s["name"]]
        row[0] += 1
        row[1] += s["n"]
        row[2] += s["end"] - s["start"]
        row[3] += selfs[s["id"]]
    return table


def ratio(a, b):
    return a / b if b else 0.0


def campaign_stats(spans):
    """Pool busy share and merge time over the traced campaigns.

    A campaign span's children are its chunk spans, run on the pool's
    threads; busy share is their total time over (threads x campaign
    time), and the merge is what follows the last chunk's end."""
    chunks = defaultdict(list)
    for s in spans:
        if s["name"] == "runner.chunk":
            chunks[s["parent"]].append(s)
    busy, capacity, merges = 0.0, 0.0, []
    for c in spans:
        if c["name"] != "bench.campaign" or not chunks[c["id"]]:
            continue
        kids = chunks[c["id"]]
        threads = len({k["tid"] for k in kids})
        busy += sum(k["end"] - k["start"] for k in kids)
        capacity += threads * (c["end"] - c["start"])
        merges.append(c["end"] - max(k["end"] for k in kids))
    return ratio(busy, capacity), ratio(sum(merges), len(merges))


def per_layer_metrics(spans, counters):
    """Every per-layer metric, as {name: (value, unit)}."""
    t = by_name(spans)
    c = defaultdict(float, counters)

    def per_call_us(name):
        _, calls, total, _ = t.get(name, (0, 0, 0.0, 0.0))
        return ratio(total, calls)

    def mean_span_us(name):
        count, _, total, _ = t.get(name, (0, 0, 0.0, 0.0))
        return ratio(total, count)

    busy_share, merge_us = campaign_stats(spans)
    probe_s = t.get("attack.PacOracle::probeMisses.data",
                    (0, 0, 0.0, 0.0))[2] / 1e6
    served = c["runner.server_requests"]
    m = {
        "cpu.guest_mips":
            (ratio(c["cpu.probe_insts.data"], probe_s) / 1e6, "MIPS"),
        "cpu.block_inst_share":
            (ratio(c["cpu.block_insts"], c["cpu.insts"]), "share"),
        "cpu.trace_replay_rate":
            (ratio(c["cpu.trace_replays"], c["cpu.block_hits"]), "share"),
        "cpu.trace_guard_breaks":
            (ratio(c["cpu.trace_guard_breaks"], c["attack.queries"]),
             "1/query"),
        "cpu.sim_cycles_per_item":
            (ratio(c["sim.cycles"], c["sim.cycle_items"]), "cycles"),
        "mem.access_ns":
            (per_call_us("mem.MemoryHierarchy::access") * 1e3, "ns"),
        "mem.dtlb_hit_rate":
            (ratio(c["mem.dtlb_hits"], c["mem.dtlb_hits"] +
                   c["mem.dtlb_misses"]), "share"),
        "mem.l1d_hit_rate":
            (ratio(c["mem.l1d_hits"], c["mem.l1d_hits"] +
                   c["mem.l1d_misses"]), "share"),
        "crypto.qarma_ns":
            (per_call_us("crypto.Qarma64::encrypt") * 1e3, "ns"),
        "crypto.pac_hit_ns":
            (per_call_us("crypto.computePac.hit") * 1e3, "ns"),
        "crypto.pac_miss_ns":
            (per_call_us("crypto.computePac.miss") * 1e3, "ns"),
        "kernel.syscall_ns":
            (per_call_us("kernel.AttackerProcess::syscall") * 1e3, "ns"),
        "kernel.rekey_us": (per_call_us("kernel.Machine::rekey"), "us"),
        "kernel.noise_us":
            (per_call_us("kernel.Machine::injectNoise"), "us"),
        "attack.query_us_data":
            (per_call_us("attack.PacOracle::probeMisses.data"), "us"),
        "attack.query_us_inst":
            (per_call_us("attack.PacOracle::probeMisses.inst"), "us"),
        "attack.samples_per_candidate":
            (ratio(c["attack.samples"], c["attack.candidates"]), "count"),
        "attack.retried_queries":
            (ratio(c["attack.retried_queries"], c["bench.campaigns"]),
             "count"),
        "attack.provision_ms":
            (per_call_us("attack.provision") / 1e3, "ms"),
        "sim.restore_us":
            (per_call_us("sim.ReplicaCheckpoint::restore"), "us"),
        "sim.pages_copied_per_restore":
            (ratio(c["sim.pages_copied"], c["sim.restores"]), "pages"),
        "sim.fingerprint_us":
            (per_call_us("sim.machineFingerprint"), "us"),
        "runner.chunk_ms": (mean_span_us("runner.chunk") / 1e3, "ms"),
        "runner.pool_busy_share": (busy_share, "share"),
        "runner.merge_ms": (merge_us / 1e3, "ms"),
        "runner.codec_us":
            (per_call_us("runner.codec.encodeBfChunk") +
             per_call_us("runner.codec.decodeBfChunk"), "us"),
        "runner.wire_us":
            (sum(per_call_us("runner.wire." + f) for f in
                 ("packMessage", "unpackMessage", "encodeReplicaWire",
                  "decodeReplicaWire")), "us"),
        "runner.ping_rtt_us": (mean_span_us("runner.ping"), "us"),
        "runner.queue_peak": (c["runner.queue_peak"], "count"),
        "runner.busy_rejects":
            (ratio(c["runner.busy_rejects"], served), "1/request"),
        "runner.server_restores":
            (ratio(c["runner.server_restores"], served), "1/request"),
        "runner.server_rekeys":
            (ratio(c["runner.server_rekeys"], served), "1/request"),
        "trace.overhead_share":
            (1.0 - ratio(c["bench.items_per_s_traced"],
                         c["bench.items_per_s_untraced"]), "share"),
    }
    return m


def self_time_table(spans):
    """The self-time table, largest self time first."""
    rows = sorted(by_name(spans).items(), key=lambda kv: -kv[1][3])
    lines = ["%-42s %8s %10s %12s %12s" %
             ("span", "spans", "calls", "total_ms", "self_ms")]
    for name, (count, calls, total, own) in rows:
        lines.append("%-42s %8d %10d %12.3f %12.3f" %
                     (name, count, calls, total / 1e3, own / 1e3))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans, counters = load(argv[1])
    print(self_time_table(spans))
    print(json.dumps({k: {"value": v, "unit": u} for k, (v, u) in
                      per_layer_metrics(spans, counters).items()},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
