#!/usr/bin/env python3
"""Steadiness check: run one workload k times and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/steady.py --workload W [--runs K] [--save FILE] [--compare FILE]

Runs ``perfbench/run.py --trace 0`` K times on the same code with seeds
1..K and BENCHMARK.json's ``run_seconds`` (one seed per run, as a
regression check does) and prints, for every end-to-end metric, the median,
the quartiles from ``statistics.quantiles(values, n=4)``, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. The
spread is labelled ``steady`` below a third of the bound, ``noisy`` below
the bound, and ``unresolved`` at or above it: a change of that metric
smaller than its spread cannot be told from noise with these runs.

``--save`` writes the runs (values, fingerprints, verdict tables) to FILE.
``--compare`` loads an earlier saved set and reports, per metric, whether
this set's median is worse than the earlier one's by more than the bound,
and whether every seed's fingerprint and verdict table are identical.

The exit status is 1 when an item failed, when a median is worse than the
earlier set's by more than its bound, or when a fingerprint or verdict table
differs; steadiness is reported but never changes it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench-out", f"{workload}-seed{seed}-trace0.json")) as fh:
        full = json.load(fh)
    return {"seed": seed, "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "values": {k: v["value"] for k, v in last["metrics"].items()},
            "fingerprint": full["fingerprint"], "verdicts": full["verdicts"]}


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def steadiness(spread: float, bound: float) -> str:
    if spread < bound / 3:
        return "steady"
    return "noisy" if spread < bound else "unresolved"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()
    seconds, seeds = bench["run_seconds"], list(range(1, args.runs + 1))

    earlier = None
    if args.compare:
        with open(args.compare) as handle:
            earlier = json.load(handle)
        if earlier["workload"] != args.workload or earlier["seconds"] != seconds:
            raise SystemExit(f"{args.compare} holds {earlier['workload']} runs of "
                             f"{earlier['seconds']} s, not {args.workload} runs of {seconds} s")

    runs = []
    for seed in seeds:
        runs.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: correct={runs[-1]['correct']} attempted={runs[-1]['attempted']} "
              f"failed={runs[-1]['failed']} " + " ".join(
                  f"{k}={v:.6g}" for k, v in runs[-1]["values"].items()), flush=True)

    ok = True
    print(f"\n{args.workload}: {len(runs)} runs, seeds 1..{args.runs}, {seconds} s each")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        s = summarize([r["values"][name] for r in runs])
        line = (f"  {name:24s} median {s['median']:.6g} {metric['unit']}  q1 {s['q1']:.6g}  "
                f"q3 {s['q3']:.6g}  spread {s['spread']:.2%}  bound {bound:.0%}  "
                f"{steadiness(s['spread'], bound)}")
        if earlier is not None:
            before = summarize([r["values"][name] for r in earlier["runs"]])["median"]
            change = (s["median"] - before) / before
            worse = change if metric["better"] == "lower" else -change
            line += f"  vs earlier {change:+.2%} {'WORSE THAN BOUND' if worse > bound else 'ok'}"
            ok &= worse <= bound
        print(line)
    failed = sum(r["failed"] for r in runs)
    print(f"  failed items: {failed} of {sum(r['attempted'] for r in runs)}")
    ok &= failed == 0
    if earlier is not None:
        before = {r["seed"]: r for r in earlier["runs"]}
        same = [r["seed"] in before and before[r["seed"]]["fingerprint"] == r["fingerprint"]
                and before[r["seed"]]["verdicts"] == r["verdicts"] for r in runs]
        print(f"  fingerprints and verdict tables identical for {sum(same)} of {len(same)} seeds")
        ok &= all(same)
    if args.save:
        with open(args.save, "w") as handle:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs},
                      handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
