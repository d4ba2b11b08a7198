#!/usr/bin/env python3
"""Paired A/B comparison of two trees on the repository benchmark.

    python3 tools/ab.py --base REV --change REV|DIR [--workload W]...
        [--seed S]... [--pairs N] [--seconds S]
    python3 tools/ab.py --self-test

Each side is copied into its own scratch tree (a git revision with
`git archive`; a directory as the files git lists for it, committed or
not) and builds perfbench into that tree's own `.bench_build`, so the
two sides never share a build or a digest store, whatever
CARGO_TARGET_DIR the caller has set. After one untimed warm-up run per
side, `perfbench/run.py` runs in pairs, one run of each side per pair,
alternating which side goes first. The scratch trees go under $TMPDIR
and are deleted at the end.

For every workload and every end-to-end metric in BENCHMARK.json it
prints a Markdown table row: each side's median and quartiles, the
median pair ratio (above 1 when the change is better) with a seeded
bootstrap 95 % interval, the pairs the change won (ties count for
neither), and the first verdict that holds:

  worse than bound  the change's median is worse than the base's by
                    more than the metric's bound;
  unresolved        either side's interquartile range over its median
                    is wider than the bound, and not every change run
                    beats every base run;
  gain              the change won at least 9 in 10 pairs, the medians
                    differ its way by more than the distance between
                    the base's quartiles, and its runs failed no more
                    operations than the base's;
  no regression     otherwise.

The last line of standard output is one JSON object with every run's
values. The exit code is 1 when a run reports "correct": false or a
digest line differs between the sides, 2 when a run breaks.
"""

import argparse
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFAULT_SEED = 11       # the seed CI pins perfbench's digests at
DEFAULT_PAIRS = 10      # the fewest pairs a gain may rest on
GAIN_SHARE = 0.9        # share of pairs a gain must win
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 1
WARMUP_SECONDS = 1


def fail(msg):
    print("ab: " + msg, file=sys.stderr)
    sys.exit(2)


# --- statistics ---------------------------------------------------------

def quantile(xs, q):
    """The q-quantile of xs, interpolating linearly between ranks."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartiles(xs):
    return [quantile(xs, q) for q in (0.25, 0.5, 0.75)]


def better_than(a, b, better):
    """True when value a is strictly better than value b."""
    return a > b if better == "higher" else a < b


def pair_ratio(base, change, better):
    """The change's value relative to the base's; above 1 is better."""
    num, den = (change, base) if better == "higher" else (base, change)
    if num == den:
        return 1.0
    return num / den if den else math.inf


def bootstrap_ci(ratios):
    """95 % interval of the median ratio, resampling the pairs."""
    rng = random.Random(BOOTSTRAP_SEED)
    meds = sorted(quantile(rng.choices(ratios, k=len(ratios)), 0.5)
                  for _ in range(BOOTSTRAP_RESAMPLES))
    return [quantile(meds, 0.025), quantile(meds, 0.975)]


def spread(q):
    """Interquartile range over the median, from quartiles()."""
    iqr = q[2] - q[0]
    if iqr == 0:
        return 0.0
    return iqr / abs(q[1]) if q[1] else math.inf


def compare(base, change, better, bound, more_failures=False):
    """Pair statistics and verdict for one metric. base[i] and
    change[i] are pair i; more_failures is true when the change's runs
    failed more operations than the base's, which rules out a gain."""
    bq, cq = quartiles(base), quartiles(change)
    ratios = [pair_ratio(b, c, better) for b, c in zip(base, change)]
    won = sum(better_than(c, b, better) for b, c in zip(base, change))
    if better == "higher":
        worse = cq[1] < bq[1] * (1 - bound)
    else:
        worse = cq[1] > bq[1] * (1 + bound)
    separated = all(better_than(c, b, better)
                    for c in change for b in base)
    gain = (not more_failures and won >= GAIN_SHARE * len(ratios) and
            better_than(cq[1], bq[1], better) and
            abs(cq[1] - bq[1]) > bq[2] - bq[0])
    if worse:
        verdict = "worse than bound"
    elif max(spread(bq), spread(cq)) > bound and not separated:
        verdict = "unresolved"
    elif gain:
        verdict = "gain"
    else:
        verdict = "no regression"
    return {"base": bq, "change": cq, "ratio": quantile(ratios, 0.5),
            "ci": bootstrap_ci(ratios), "won": won, "pairs": len(ratios),
            "verdict": verdict, "base_runs": list(base),
            "change_runs": list(change)}


def problems(runs):
    """Correctness failures and digest differences, as messages.
    runs[side][key] lists the run records of one (workload, seed)."""
    out = []
    for side, by_key in sorted(runs.items()):
        for key, records in sorted(by_key.items()):
            bad = sum(not r["correct"] for r in records)
            if bad:
                out.append("%s %s seed %d: %d run(s) not correct" %
                           (side, key[0], key[1], bad))
    for key in sorted(runs["base"]):
        seen = {side: sorted({d for r in runs[side][key]
                              for d in r["digests"]})
                for side in runs}
        if seen["base"] != seen["change"]:
            out.append("%s seed %d: digests differ: base %s, change %s" %
                       (key[0], key[1], seen["base"], seen["change"]))
    return out


# --- running the benchmark ----------------------------------------------

def git(args, cwd):
    return subprocess.run(["git", "-C", cwd] + args, check=True,
                           stdout=subprocess.PIPE, text=True).stdout


def checkout(spec, dest):
    """Copy spec, a directory or a git revision of this repository,
    into dest. Returns the label the report uses for it."""
    os.makedirs(dest)
    if os.path.isdir(spec):
        listed = git(["ls-files", "-z", "--cached", "--others",
                      "--exclude-standard"], spec).split("\0")
        for rel in listed:
            src = os.path.join(spec, rel)
            if rel and os.path.isfile(src):
                os.makedirs(os.path.join(dest, os.path.dirname(rel)),
                            exist_ok=True)
                shutil.copy2(src, os.path.join(dest, rel))
        return os.path.abspath(spec)
    sha = git(["rev-parse", "--verify", spec + "^{commit}"], ROOT).strip()
    tar = subprocess.run(["git", "-C", ROOT, "archive", sha], check=True,
                         stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest)
    return sha[:12]


def run_once(tree, workload, seed, seconds):
    """One perfbench run in tree: its last-line result plus the digest
    lines it printed."""
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s: run.py --workload %s --seed %d exited %d" %
             (tree, workload, seed, proc.returncode))
    result["digests"] = [l for l in lines if l.startswith("digest ")]
    return result


def fmt(x):
    return "%.4g" % x


def table(workload, stats, units):
    rows = ["| metric | better | bound | base median [q1, q3] | "
            "change median [q1, q3] | ratio [95 % CI] | won | verdict |",
            "|---|---|---|---|---|---|---|---|"]
    for name, s in stats.items():
        better, bound, unit = units[name]
        b, c = s["base"], s["change"]
        rows.append(
            "| `%s` (%s) | %s | %g | %s [%s, %s] | %s [%s, %s] | "
            "%.3f [%.3f, %.3f] | %d/%d | %s |" %
            (name, unit, better, bound, fmt(b[1]), fmt(b[0]), fmt(b[2]),
             fmt(c[1]), fmt(c[0]), fmt(c[2]), s["ratio"], s["ci"][0],
             s["ci"][1], s["won"], s["pairs"], s["verdict"]))
    return "### %s\n\n%s\n" % (workload, "\n".join(rows))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base")
    ap.add_argument("--change")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--pairs", type=int, default=DEFAULT_PAIRS)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        suite = unittest.defaultTestLoader.loadTestsFromTestCase(SelfTest)
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        return 0 if ok else 1
    if not args.base or not args.change or args.pairs < 1:
        ap.error("--base and --change are required, --pairs >= 1")

    work = tempfile.mkdtemp(prefix="ab-")
    try:
        trees = {side: os.path.join(work, side)
                 for side in ("base", "change")}
        labels = {"base": checkout(args.base, trees["base"]),
                  "change": checkout(args.change, trees["change"])}
        with open(os.path.join(trees["base"], "BENCHMARK.json")) as f:
            bench = json.load(f)
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        seeds = args.seed or [DEFAULT_SEED]
        seconds = args.seconds or bench["run_seconds"]
        keys = [(w, s) for w in workloads for s in seeds]

        runs = {side: {k: [] for k in keys} for side in trees}
        for side, tree in trees.items():
            print("ab: building and warming up %s (%s)" %
                  (side, labels[side]), file=sys.stderr, flush=True)
            runs[side][keys[0]].append(
                run_once(tree, keys[0][0], keys[0][1], WARMUP_SECONDS))
        timed = {side: {k: [] for k in keys} for side in trees}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change",
                                                           "base")
            for key in keys:
                for side in order:
                    r = run_once(trees[side], key[0], key[1], seconds)
                    runs[side][key].append(r)
                    timed[side][key].append(r)
                print("ab: pair %d/%d %s seed %d done" %
                      (i + 1, args.pairs, key[0], key[1]),
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: (m["better"], m["bound"], m["unit"])
             for m in bench["end_to_end"]}
    report = {}
    print("Base %s, change %s; seeds %s; %d pairs of %g-s runs per "
          "workload and seed; ratios above 1 favour the change.\n" %
          (labels["base"], labels["change"],
           ", ".join(map(str, seeds)), args.pairs, seconds))
    for w in workloads:
        pooled = {side: [r for s in seeds for r in timed[side][(w, s)]]
                  for side in timed}
        failed = {side: sum(r["failed"] for r in pooled[side])
                  for side in pooled}
        stats = {}
        for name, (better, bound, _) in units.items():
            stats[name] = compare(
                [r["metrics"][name]["value"] for r in pooled["base"]],
                [r["metrics"][name]["value"] for r in pooled["change"]],
                better, bound, failed["change"] > failed["base"])
        report[w] = stats
        print(table(w, stats, units))
    issues = problems(runs)
    for msg in issues:
        print("ab: " + msg, file=sys.stderr)
    print(json.dumps({"base": labels["base"], "change": labels["change"],
                      "seeds": seeds, "pairs": args.pairs,
                      "seconds": seconds, "ok": not issues,
                      "problems": issues, "workloads": report}))
    return 1 if issues else 0


# --- self-test ----------------------------------------------------------

def record(correct=True, digest="digest 00: x"):
    return {"correct": correct, "digests": [digest]}


class SelfTest(unittest.TestCase):
    def test_quantiles_interpolate(self):
        self.assertEqual(quartiles([4, 1, 3, 2, 5]), [2, 3, 4])
        self.assertEqual(quantile([1, 2], 0.5), 1.5)
        self.assertEqual(quantile([7], 0.75), 7)

    def test_ties_count_for_neither_side(self):
        s = compare([10, 10, 10, 10], [10, 10, 11, 9], "higher", 0.25)
        self.assertEqual(s["won"], 1)
        self.assertEqual(s["ratio"], 1.0)
        self.assertEqual(s["verdict"], "no regression")

    def test_all_ties_are_no_gain(self):
        s = compare([5.0] * 10, [5.0] * 10, "lower", 0.25)
        self.assertEqual(s["won"], 0)
        self.assertEqual(s["verdict"], "no regression")

    def test_lower_is_better_ratio_favours_the_faster_side(self):
        s = compare([2.0] * 10, [1.0] * 10, "lower", 0.25)
        self.assertEqual(s["ratio"], 2.0)
        self.assertEqual(s["won"], 10)
        self.assertEqual(s["verdict"], "gain")
        s = compare([1.0] * 10, [2.0] * 10, "lower", 0.25)
        self.assertEqual(s["ratio"], 0.5)
        self.assertEqual(s["won"], 0)
        self.assertEqual(s["verdict"], "worse than bound")

    def test_higher_is_better_ratio(self):
        s = compare([100.0] * 4, [150.0] * 4, "higher", 0.25)
        self.assertEqual(s["ratio"], 1.5)
        self.assertEqual(s["won"], 4)

    def test_gain_needs_nine_in_ten_pairs(self):
        base = [100.0 + i for i in range(10)]
        change = [b * 1.2 for b in base]
        self.assertEqual(compare(base, change, "higher", 0.25)["verdict"],
                         "gain")
        change[0] = change[1] = 50.0   # 8 of 10 won
        self.assertEqual(compare(base, change, "higher", 0.25)["verdict"],
                         "no regression")

    def test_gain_needs_a_gap_wider_than_the_base_spread(self):
        base = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
        change = [b + 1.0 for b in base]   # every pair won, gap 1
        s = compare(base, change, "higher", 0.25)
        self.assertEqual(s["won"], 10)
        self.assertEqual(s["verdict"], "no regression")

    def test_more_failures_rule_out_a_gain(self):
        s = compare([2.0] * 10, [1.0] * 10, "lower", 0.25,
                    more_failures=True)
        self.assertEqual(s["verdict"], "no regression")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        wide = [60.0, 100.0, 140.0, 80.0, 120.0, 100.0]
        tight = [100.0] * 6
        self.assertGreater(spread(quartiles(wide)), 0.25)
        for base, change in ((wide, wide[::-1]), (wide, tight),
                             (tight, wide)):
            self.assertEqual(
                compare(base, change, "higher", 0.25)["verdict"],
                "unresolved")

    def test_wide_spread_resolves_when_every_change_run_is_better(self):
        base = [60.0, 100.0, 140.0, 80.0, 120.0, 100.0]
        change = [b + 200.0 for b in base]
        self.assertEqual(compare(base, change, "higher", 0.25)["verdict"],
                         "gain")

    def test_worse_than_bound(self):
        s = compare([100.0] * 10, [70.0] * 10, "higher", 0.25)
        self.assertEqual(s["verdict"], "worse than bound")
        s = compare([100.0] * 10, [80.0] * 10, "higher", 0.25)
        self.assertEqual(s["verdict"], "no regression")

    def test_zero_values_do_not_divide(self):
        s = compare([0.0] * 3, [0.0] * 3, "lower", 0.25)
        self.assertEqual(s["ratio"], 1.0)
        self.assertEqual(pair_ratio(0.0, 1.0, "higher"), math.inf)

    def test_bootstrap_interval_is_seeded_and_holds_the_median(self):
        ratios = [0.9, 0.95, 1.0, 1.02, 1.05, 1.1, 0.98, 1.01]
        ci = bootstrap_ci(ratios)
        self.assertEqual(ci, bootstrap_ci(ratios))
        self.assertLessEqual(ci[0], quantile(ratios, 0.5))
        self.assertGreaterEqual(ci[1], quantile(ratios, 0.5))

    def test_problems_flag_incorrect_runs_and_digest_differences(self):
        key = ("bf_sweep", 11)
        clean = {"base": {key: [record()]}, "change": {key: [record()]}}
        self.assertEqual(problems(clean), [])
        wrong = {"base": {key: [record()]},
                 "change": {key: [record(correct=False)]}}
        self.assertEqual(len(problems(wrong)), 1)
        moved = {"base": {key: [record()]},
                 "change": {key: [record(digest="digest 01: y")]}}
        self.assertEqual(len(problems(moved)), 1)


if __name__ == "__main__":
    sys.exit(main())
