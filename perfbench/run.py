#!/usr/bin/env python3
"""curvemates benchmark: one workload, one seed, one timed run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {ode-rk4,oracle-large,cli-files} \\
        --seed N --seconds S --trace {0,1} [--n GRID_POINTS]

The load is one closed-loop client in one process: the next item starts
when the previous one has finished and been checked. The run repeats the
workload's seeded pass of items until S seconds have passed, always ending
on a whole pass so every run does the same mix of work. ``--n`` overrides
the workload's grid size (the smoke test uses it); the figures are defined
at the default sizes.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates traced and untraced passes and reports the
per-layer metrics, taken from spans around the library's public functions,
plus the tracing overhead. Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Full results go to .perfbench-out/ in the checkout.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPS = 3
CLI_IMPORT_REPS = 5
# One BLAS thread here and in every child: the benchmark is one closed-loop client.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = [("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("throughput_items_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
PER_LAYER = [
    ("solvers.solve_ms", "ms"), ("solvers.rk4_steps", "count"),
    ("solvers.us_per_rk4_step", "us"), ("solvers.typed_errors", "count"),
    ("geometry.sample_ms", "ms"), ("geometry.reparam_ms", "ms"),
    ("geometry.oracle_frames_ms", "ms"), ("geometry.points", "count"),
    ("association.associate_ms", "ms"), ("association.construct_ms", "ms"),
    ("association.closed_form_ms", "ms"),
    ("verify.check_ms", "ms"), ("verify.self_ms", "ms"), ("verify.audit_ms", "ms"),
    ("verify.constraint_ms", "ms"), ("verify.gated_fraction", "fraction"),
    ("verify.excluded_bands", "count"), ("verify.verdict_pass", "count"),
    ("verify.verdict_fail", "count"), ("verify.verdict_flag", "count"),
    ("io.serialize_ms", "ms"), ("io.write_ms", "ms"), ("io.parse_ms", "ms"),
    ("io.bytes_written", "B"), ("io.bytes_read", "B"), ("io.write_mb_per_s", "MB/s"),
    ("io.roundtrip_mismatches", "count"),
    ("cli.import_ms", "ms"), ("cli.self_ms", "ms"), ("cli.exit_mismatches", "count"),
    ("trace.overhead_ms", "ms"),
]


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import curvemates from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "curvemates", "__init__.py")):
        die(f"no curvemates sources under {SRC}")
    sys.path.insert(0, SRC)
    import curvemates.cli  # noqa: F401  (the tracer patches every loaded module)

    if not os.path.abspath(curvemates.cli.__file__).startswith(SRC + os.sep):
        die(f"imported curvemates from {curvemates.cli.__file__}, not from {SRC}")


def timed_child(cmd: list, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
                   timeout=120)
    return time.perf_counter() - t0


def tail(latencies: list, pct: float) -> tuple[float, int]:
    import numpy as np

    value = float(np.percentile(latencies, pct))
    return value, sum(1 for x in latencies if x > value)


def measure(workload, items, n, seconds, tracer, base_ctx):
    """The closed loop. Returns one record per attempted item."""
    from tracing import item_layer_values
    from workloads import Outcome, run_item_safely

    records, first_digest = [], {}
    start = time.perf_counter()
    passes = 0
    min_passes = 2 if tracer else 1  # a traced run needs a traced and an untraced pass
    while passes < min_passes or time.perf_counter() - start < seconds:
        traced = tracer is not None and passes % 2 == 0
        for item in items:
            k = len(records)
            ctx = {**base_ctx, "traced": traced}
            first_span = len(tracer.spans) if tracer else 0
            t0 = time.perf_counter()
            if traced and workload.in_process:
                with tracer.item_scope(k):
                    result, error = run_item_safely(workload, item, n, ctx)
            else:
                result, error = run_item_safely(workload, item, n, ctx)
            ms = (time.perf_counter() - t0) * 1e3
            if traced and not workload.in_process and result is not None:
                for path in result[2]:
                    if os.path.exists(path):
                        with open(path) as handle:
                            tracer.adopt(json.load(handle), k)
            if error is None:
                try:
                    outcome = workload.check(item, n, result, first_pass=passes == 0)
                except Exception as exc:  # a check that cannot run is a failed check
                    error = f"check: {type(exc).__name__}: {exc}"
            if error is not None:
                outcome = Outcome(digest="", verdicts=[], reports=[], failures=[error])
            if passes == 0:
                first_digest[item.index] = outcome.digest
            elif outcome.digest != first_digest[item.index]:
                outcome.failures.append("output bytes differ from the first pass")
            record = {"item": item.index, "pass": passes, "ms": ms, "traced": traced,
                      "outcome": outcome}
            if not workload.in_process and result is not None:
                record["child_rss_kib"] = result[3]
            if traced:
                local = [dataclasses.replace(s, parent=s.parent - first_span if s.parent >= 0
                                             else -1) for s in tracer.spans[first_span:]]
                record["layers"] = item_layer_values(local, ms)
            records.append(record)
        passes += 1
    return records


def end_to_end(workload, records, setup_samples, n):
    latencies = [r["ms"] for r in records]
    p50 = statistics.median(latencies)
    tail_ms, beyond = tail(latencies, workload.tail_pct)
    if workload.in_process:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:  # the largest CLI call measured; set-up and warm-up children are left out
        rss_kib = max(r.get("child_rss_kib", 0) for r in records)
    rss_mb = rss_kib * 1024 / 1e6  # ru_maxrss is KiB on Linux
    notes = {
        "latency_p50_ms": f"median of {len(latencies)} items",
        "latency_tail_ms": f"p{workload.tail_pct:g} of {len(latencies)} items, "
                           f"{beyond} beyond it",
        "throughput_items_per_s": f"items / busy seconds, n = {n}",
        "peak_rss_mb": "RUSAGE_SELF" if workload.in_process
                       else "largest ru_maxrss of the measured CLI processes (os.wait4)",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup_samples)
                   + " s (fresh processes: imports, inputs, one warm-up item)",
    }
    values = {
        "latency_p50_ms": p50,
        "latency_tail_ms": tail_ms,
        "throughput_items_per_s": len(latencies) / (sum(latencies) / 1e3),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup_samples),
    }
    return values, notes, {"tail_pct": workload.tail_pct, "tail_beyond": beyond}


def per_layer(records, cli_import_ms):
    from tracing import layer_metrics

    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    values, self_ms = layer_metrics([r["layers"] for r in traced])
    first = [rep for r in records if r["pass"] == 0 for rep in r["outcome"].reports]
    verdicts = [rep["verdict"] for rep in first]
    values.update({
        "verify.gated_fraction": statistics.mean(rep["gated_fraction"] for rep in first)
        if first else 0.0,
        "verify.excluded_bands": sum(rep["excluded_bands"] for rep in first),
        "verify.verdict_pass": verdicts.count("pass"),
        "verify.verdict_fail": verdicts.count("fail"),
        "verify.verdict_flag": verdicts.count("formula-audit-flag"),
        "io.roundtrip_mismatches": sum(r["outcome"].roundtrip_mismatches for r in records),
        "cli.exit_mismatches": sum(r["outcome"].exit_mismatches for r in records),
        "cli.import_ms": cli_import_ms,
        "trace.overhead_ms": statistics.median(r["ms"] for r in traced)
        - statistics.median(r["ms"] for r in untraced),
    })
    return values, self_ms


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ode-rk4", "oracle-large", "cli-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--n", type=int, default=None, help="grid size override (smoke test)")
    args = parser.parse_args()

    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})  # before numpy loads
    import_library()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, child_env, item_context, run_item_safely

    import environment
    from tracing import Tracer

    workload = WORKLOADS[args.workload]
    n = args.n or workload.n
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    env = child_env()

    setup_samples, cli_import_ms = [], 0.0
    if args.trace == 0:
        setup_cmd = [sys.executable, os.path.join(HERE, "setup_child.py"), workload.name,
                     str(args.seed), str(n), workdir + "-setup"]
        setup_samples = [timed_child(setup_cmd, env) for _ in range(SETUP_REPS)]
    else:
        cli_import_ms = 1e3 * statistics.median(
            timed_child([sys.executable, "-c", "import curvemates.cli"], env)
            for _ in range(CLI_IMPORT_REPS))

    items = workload.make_items(args.seed, n)
    tracer = Tracer() if args.trace else None
    try:
        with item_context(workload, workdir) as ctx:
            run_item_safely(workload, items[0], n, {**ctx, "workdir": workdir + "-warmup"})
            records = measure(workload, items, n, args.seconds, tracer, ctx)
    finally:
        for d in (workdir, workdir + "-warmup"):
            shutil.rmtree(d, ignore_errors=True)

    env_info = environment.describe()
    sizes = workload.sizes(n)
    failed = [r for r in records if r["outcome"].failures]
    fingerprint_items = [(r["item"], r["outcome"].digest) for r in records if r["pass"] == 0]
    fingerprint = hashlib.sha256("".join(f"{i}\0{d}\n" for i, d in fingerprint_items)
                                 .encode()).hexdigest()
    labels = {item.index: item.label for item in items}
    verdict_table = [{"item": r["item"], "label": labels[r["item"]],
                      "verdicts": r["outcome"].verdicts} for r in records if r["pass"] == 0]

    result = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "n": n, "why": workload.why, "environment": env_info,
              "sizes_computed": sizes,
              "bandwidth_note": environment.bandwidth_note(env_info, sizes),
              "attempted": len(records), "failed": len(failed),
              "fail_share": len(failed) / len(records),
              "failures": [{"item": r["item"], "pass": r["pass"], "why": r["outcome"].failures}
                           for r in failed][:50],
              "fingerprint": fingerprint, "item_digests": fingerprint_items,
              "verdicts": verdict_table,
              "latencies_ms": [round(r["ms"], 4) for r in records]}

    lines = [f"perfbench {workload.name} seed={args.seed} n={n} trace={args.trace} "
             f"passes={records[-1]['pass'] + 1} items={len(records)}",
             f"env: python {env_info['python']}, numpy {env_info['numpy']}, "
             f"scipy {env_info['scipy']}, nproc {env_info['nproc']}, "
             f"cpu {env_info['cpu_model']!r}, caches "
             + ", ".join(f"{k} {v // 1024} KiB" for k, v in env_info["cache_bytes"].items()),
             "sizes (computed): " + ", ".join(f"{k} {v:,} B" for k, v in sizes.items()),
             f"note: {result['bandwidth_note']}",
             f"fail_share {result['fail_share']:.6g} fraction "
             f"({len(failed)} of {len(records)} items failed)"]
    lines += [f"failure: item {f['item']} pass {f['pass']}: {'; '.join(f['why'])}"
              for f in result["failures"][:5]]
    lines.append(f"fingerprint {fingerprint}")
    lines += [f"verdict #{v['item']} {v['label']}: {' / '.join(v['verdicts']) or '-'}"
              for v in verdict_table]

    if args.trace == 0:
        values, notes, extra = end_to_end(workload, records, setup_samples, n)
        result.update(extra)
        units = dict(END_TO_END)
    else:
        values, self_ms = per_layer(records, cli_import_ms)
        notes = {"trace.overhead_ms": "median traced item minus median untraced item"}
        units = dict(PER_LAYER)
        result["self_ms_by_layer"] = self_ms
        lines.append("self time per traced item by layer (mean ms): " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(self_ms.items(), key=lambda kv: -kv[1])))
        tracer.dump(os.path.join(OUT, f"{tag}-spans.jsonl"))
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    result["metrics"] = metrics
    result["metric_notes"] = notes
    lines += [f"metric {name} {m['value']:.6g} {m['unit']}"
              + (f" ({notes[name]})" if name in notes else "") for name, m in metrics.items()]
    results_path = os.path.join(OUT, f"{tag}.json")
    with open(results_path, "w") as handle:
        json.dump(result, handle, indent=1)
    lines.append(f"results: {os.path.relpath(results_path, ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
