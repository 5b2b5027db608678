#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 perfbench/steady.py --workload slide_1m --seeds 1 2 3 4 5
                                [--seconds S] [--save runs.json]
                                [--against earlier.json]

Runs run.py once per seed (untraced), then prints for every end-to-end
metric of BENCHMARK.json its median and its spread (inter-quartile
distance as a share of the median) next to the metric's bound. With
--against, it also compares the medians with an earlier saved set, the
way a regression check does. Exits 1 when a spread (setup_s excepted) or
a median comparison exceeds its bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def run(workload, seed, seconds):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False)
    last = result.stdout.strip().splitlines()[-1] if result.stdout.strip() else ""
    if result.returncode != 0 or not last.startswith("{"):
        raise SystemExit("seed %s: run failed (exit %d)" % (seed, result.returncode))
    out = json.loads(last)
    if not out["correct"]:
        raise SystemExit("seed %s: incorrect answers" % seed)
    flags = [line for line in result.stdout.splitlines()
             if line.startswith(("host steal", "FLAG"))]
    return {k: v["value"] for k, v in out["metrics"].items()}, flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    bounds, run_seconds = load_bounds()
    seconds = args.seconds or run_seconds
    runs = []
    for seed in args.seeds:
        metrics, flags = run(args.workload, seed, seconds)
        runs.append(metrics)
        print("seed %d: %s" % (seed, json.dumps(metrics)), flush=True)
        for flag in flags:
            print("  " + flag, flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump(runs, f)
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            earlier = json.load(f)
    ok = True
    print("%-18s %14s %8s %7s %9s" % ("metric", "median", "spread", "bound",
                                      "vs earlier"))
    for name, spec in bounds.items():
        values = [r[name] for r in runs]
        spread = stats.spread(values) if len(values) >= 2 else 0.0
        line = "%-18s %14.4f %7.1f%% %6.1f%%" % (
            name, stats.median(values), 100 * spread, 100 * spec["bound"])
        if name != "setup_s" and spread > spec["bound"]:
            ok = False
            line += "  SPREAD OVER BOUND"
        if earlier is not None:
            before = stats.median([r[name] for r in earlier])
            after = stats.median(values)
            line += " %+8.1f%%" % (
                100 * stats.worsening(before, after, spec["better"]))
            if not stats.within_bound(before, after, spec["better"],
                                      spec["bound"]):
                ok = False
                line += "  WORSE THAN BOUND"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
