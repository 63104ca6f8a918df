#!/usr/bin/env python3
"""Smoke self-test of the benchmark (not part of the library's test suite).

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny grid for one second, once
untraced and once traced, and checks that each run exits 0, reports correct
results, and prints every metric BENCHMARK.json names with its unit, both
as a "metric NAME VALUE UNIT" line and in the final JSON line. It also
checks that a copy holding only BENCHMARK.json and the benchmark's files
(no library sources) fails without printing a result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_N = 301


def check_run(bench: dict, workload: str, trace: int) -> list:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--n", str(TINY_N)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: last line keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in expected}:
        problems.append(f"{where}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    for m in expected:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), float):
            problems.append(f"{where}: {m['name']} printed as {got} in the JSON line")
        if not any(line.startswith(f"metric {m['name']} ") and f" {m['unit']}" in line
                   for line in lines[:-1]):
            problems.append(f"{where}: no 'metric {m['name']} ... {m['unit']}' line")
    return problems


def check_bare_copy(bench: dict) -> list:
    """Without src/ the benchmark must fail and print no result."""
    bare = os.path.join(ROOT, ".perfbench-out", "bare-copy")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    problems = check_bare_copy(bench)
    for workload in bench["workloads"]:
        for trace in (0, 1):
            found = check_run(bench, workload["name"], trace)
            print(f"{workload['name']} trace={trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    for problem in problems:
        print(problem)
    print("selftest passed" if not problems else f"selftest: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
