#!/usr/bin/env python3
"""Steadiness check for the SemTree benchmark.

    python3 perfbench/steady.py [--runs N] [--series S] [--seconds S]
        [--seed0 K] [--workloads a,b] [--trace] [--log FILE]

Run from the repository root. Makes S series (default 2) one after the
other. A series runs every workload N times (default 10), the workloads
in alternation (w1 w2 ... w1 w2 ...), with the seeds seed0 ...
seed0+N-1, so every seed runs once per series. With a single series,
each workload then runs seed0 once more. Either way every invocation
runs some seed twice. With --trace each run is followed by a traced run
of the same seed.

Prints, per series, workload and metric, the median, quartiles (Python's
statistics.quantiles, n=4) and spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json, flagged "ok" below a third of the
bound, "WIDE" up to the bound and "OVER BOUND" beyond it. With two or
more series it also prints how far each later series' median is worse
than the first's, against the same bound. The p99 lines the benchmark
logs on stderr are summarised the same way.

Exits 1 when a run is incorrect or fails, when the share of failed
operations differs between runs of a workload, when an exact count
differs between two runs of one seed (such drift is a determinism bug,
not noise), when a spread other than that of setup_s exceeds its bound,
or when a later series' median is worse than the first's by more than
the bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that must repeat bit for bit on the same seed.
EXACT = {
    "msgs_per_op", "detect_recall", "engine.cache_hit_rate",
    "semtree.points_moved_per_tick", "semtree.splits", "semtree.merges",
    "semtree.migrations", "core.leaf_distances_per_query",
    "semtree.handler_ops_per_op", "semtree.partitions_visited_per_query",
    "cluster.bytes_per_op", "cluster.calls_per_op",
    "cluster.forwards_per_op",
}
TAIL = re.compile(r"tail (\w+): p50 [\d.]+ us, p99 ([\d.]+) us "
                  r"\((\d+) samples\)")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("steady: %s seed %d failed (exit %d)"
                         % (workload, seed, proc.returncode))
    tails = [l for l in proc.stderr.splitlines() if l.startswith("tail ")]
    return json.loads(lines[-1]), tails


def quartiles(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3


def flag(share, bound):
    return ("ok" if share <= bound / 3 else
            "WIDE" if share <= bound else "OVER BOUND")


def summarise(label, runs, bounds):
    """Prints one series of one workload and mode; returns its medians
    and whether every gated spread is inside its bound."""
    ok = True
    medians = {}
    print("\n%s (%d runs)" % (label, len(runs)))
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med, q1, q3 = quartiles(values)
        medians[name] = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name) if runs[0]["mode"] == "untraced" else None
        note = ""
        if bound is not None:
            note = "bound %.0f%% %s" % (100 * bound, flag(spread, bound))
            if spread > bound and name != "setup_s":
                ok = False
            if name == "setup_s":
                note += " (spread not gated)"
        print("  %-38s median %-12.6g q1 %-12.6g q3 %-12.6g spread "
              "%6.2f%% %s" % (name, med, q1, q3, 100 * spread, note))
    tails = {}
    for r in runs:
        for t in r["tails"]:
            m = TAIL.match(t)
            if m:
                tails.setdefault(m.group(1), []).append(
                    (float(m.group(2)), int(m.group(3))))
    for kind, vals in sorted(tails.items()):
        med, q1, q3 = quartiles([p for p, _ in vals])
        counts = [n for _, n in vals]
        print("  p99 %-34s median %-12.6g spread %6.2f%% (%d-%d samples)"
              % (kind, med, 100 * (q3 - q1) / med if med else 0.0,
                 min(counts), max(counts)))
    return medians, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--series", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--log", default=None,
                        help="append every run's result here (JSON lines)")
    args = parser.parse_args()
    if args.runs < 1 or args.series < 1:
        parser.error("--runs and --series must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    modes = ["untraced", "traced"] if args.trace else ["untraced"]

    # (series, seed, workload) in run order; series -1 is the repeat.
    plan = [(s, args.seed0 + r, w) for s in range(args.series)
            for r in range(args.runs) for w in workloads]
    if args.series == 1:
        plan += [(-1, args.seed0, w) for w in workloads]

    records = []
    ok = True
    log = open(args.log, "a") if args.log else None
    for series, seed, w in plan:
        for mode in modes:
            res, tails = run_once(w, seed, seconds, mode == "traced")
            rec = {"series": series, "workload": w, "mode": mode,
                   "seed": seed, "result": res, "tails": tails}
            records.append(rec)
            print("series %-2d %-15s %-8s seed %-4d attempted %-8d failed "
                  "%-4d correct %s" % (series, w, mode, seed,
                                       res["attempted"], res["failed"],
                                       res["correct"]))
            for t in tails:
                print("    " + t)
            sys.stdout.flush()
            if log:
                log.write(json.dumps(rec) + "\n")
                log.flush()
            if not res["correct"]:
                ok = False

    medians = {}  # (series, workload, mode) -> {metric: median}
    for w in workloads:
        for mode in modes:
            for series in range(args.series):
                runs = [r for r in records if r["series"] == series and
                        r["workload"] == w and r["mode"] == mode]
                m, spread_ok = summarise(
                    "series %d: %s, %s" % (series, w, mode), runs, bounds)
                medians[(series, w, mode)] = m
                ok = ok and spread_ok

    print("\nchecks over every run, repeats included:")
    for w in workloads:
        runs = [r for r in records if r["workload"] == w]
        shares = {r["result"]["failed"] / r["result"]["attempted"]
                  for r in runs}
        if len(shares) > 1:
            print("  FAIL %s: failed share differs between runs: %s"
                  % (w, sorted(shares)))
            ok = False
        by_seed = {}
        for r in runs:
            for name, m in r["result"]["metrics"].items():
                if name in EXACT:
                    by_seed.setdefault((r["mode"], r["seed"], name),
                                       set()).add(m["value"])
        seen = {}
        for r in runs:
            key = (r["mode"], r["seed"])
            seen[key] = seen.get(key, 0) + 1
        repeated = sum(1 for n in seen.values() if n > 1)
        drift = {k: v for k, v in by_seed.items() if len(v) > 1}
        for (mode, seed, name), values in sorted(drift.items()):
            print("  FAIL %s %s seed %d: %s drifts: %s"
                  % (w, mode, seed, name, sorted(values)))
        ok = ok and not drift
        print("  %-15s failed share %s; %d seeds run more than once, "
              "%d exact counts drift" % (w, sorted(shares), repeated,
                                         len(drift)))

    if args.series > 1:
        print("\nlater series against series 0 (untraced medians; "
              "positive = worse):")
        for w in workloads:
            first = medians[(0, w, "untraced")]
            for series in range(1, args.series):
                later = medians[(series, w, "untraced")]
                for name, bound in bounds.items():
                    if name not in first or not first[name]:
                        continue
                    change = (later[name] - first[name]) / first[name]
                    worse = change if better[name] == "lower" else -change
                    if worse > bound:
                        ok = False
                    print("  %-15s series %d %-16s %+7.2f%% bound %.0f%% %s"
                          % (w, series, name, 100 * worse, 100 * bound,
                             "OVER BOUND" if worse > bound else
                             flag(abs(worse), bound)))

    if args.trace:
        print("\ntracing overhead (traced / untraced ops_per_s, medians):")
        for w in workloads:
            for series in range(args.series):
                plain = medians[(series, w, "untraced")]["ops_per_s"]
                traced = medians[(series, w, "traced")]["trace.ops_per_s"]
                print("  %-15s series %d %.3f" % (w, series, traced / plain))
    print("\n" + ("steady: OK" if ok else "steady: FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
