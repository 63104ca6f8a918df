"""The three workloads: seeded inputs, one item of work, and its checks.

An item is the unit the benchmark times. Each workload builds, from the
seed alone, an ordered list of items (one "pass"); the run repeats the pass
until its time is up. Every pass has the same families in the same order,
so runs with different seeds do the same mix of work. Checks run after the
timed region and never count a verdict as a failure: the oracle's verdict
is recorded as an output, while a failure is an exception, a wrong exit
code, or a failed correctness check.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from curvemates import association, geometry, solvers, verify
from curvemates import io as cio
from spawn import Spawner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CLI_CHILD = os.path.join(ROOT, "perfbench", "cli_child.py")

INV_SQRT2 = 1.0 / math.sqrt(2.0)
# The interval every helix angle phi is drawn from: a = cos(phi) = kappa and
# b = sin(phi) = tau of a unit-speed helix, both bounded away from zero.
PHI_RANGE = (0.2, 1.35)
# Closed-form checks of lambda, relative to max(1, |lambda|): 1e-9 plus an
# allowance for the O(h^4) truncation of Simpson quadrature and RK4, which
# matters only on the coarse grids of the smoke test.
LAMBDA_REL_TOL = 1e-9
LAMBDA_H4_ALLOWANCE = 10.0
VERDICT_EXIT = {"pass": 0, "fail": 1, "formula-audit-flag": 2}


@dataclass
class Item:
    index: int
    kind: str
    label: str
    params: dict


@dataclass
class Outcome:
    """What an item produced, as the checks and fingerprints need it."""

    digest: str
    verdicts: list
    reports: list  # per report: verdict, band count, gated fraction, distance
    failures: list = field(default_factory=list)
    exit_mismatches: int = 0
    roundtrip_mismatches: int = 0


def _helix(rng) -> tuple[float, float, float]:
    phi = float(rng.uniform(*PHI_RANGE))
    return phi, math.cos(phi), math.sin(phi)


def child_env() -> dict:
    """Environment for child processes: this checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def gated_fraction(grid: np.ndarray, bands: list, boundary_skip: int) -> float:
    """Share of grid points outside every excluded band and the boundary rows."""
    excluded = np.zeros(grid.size, dtype=bool)
    for lo, hi in bands:
        excluded[np.searchsorted(grid, lo, "left"):np.searchsorted(grid, hi, "right")] = True
    if boundary_skip > 0:
        excluded[:boundary_skip] = True
        excluded[-boundary_skip:] = True
    return float(np.count_nonzero(~excluded)) / grid.size


def _report_summary(report: dict, grid: np.ndarray) -> dict:
    tols = report["tolerances"]
    return {"verdict": report["verdict"], "excluded_bands": len(report["excluded_bands"]),
            "gated_fraction": gated_fraction(grid, report["excluded_bands"],
                                             int(tols["boundary_skip"])),
            "distance_check": report["distance_check"], "distance_tol": tols["distance"]}


def _distance_failures(summary: dict) -> list:
    d = summary["distance_check"]
    if not isinstance(d, float) or not d <= summary["distance_tol"]:
        return [f"check_distance {d!r} above Tolerances.distance {summary['distance_tol']!r}"]
    return []


def _lambda_failure(name: str, grid, lam: np.ndarray, expected: np.ndarray) -> list:
    err = float(np.max(np.abs(lam - expected) / np.maximum(1.0, np.abs(expected))))
    tol = LAMBDA_REL_TOL + LAMBDA_H4_ALLOWANCE * float(grid[1] - grid[0]) ** 4
    if not err <= tol:
        return [f"{name}: lambda differs from its closed form by {err:.3e} (relative, "
                f"tolerance {tol:.3e})"]
    return []


def _exponential_lambda(grid, kappa: float, ratio: float, c1: float) -> np.ndarray:
    """Closed form of 1 + lambda' = ratio*kappa*lambda with lambda(grid[0]) = c1."""
    rk = ratio * kappa
    return 1.0 / rk + (c1 - 1.0 / rk) * np.exp(rk * (grid - grid[0]))


def lambda_closed_form_failures(kind: str, p: dict, grid, lam) -> list:
    """The closed-form checks that apply to an item's lambda samples."""
    if kind == "BO-riccati":
        A, C = p["tau"] * p["kappa"] / 2.0, p["kappa"] / (2.0 * p["tau"])
        expected = math.sqrt(C / A) * np.tan(
            math.sqrt(A * C) * grid + math.atan(p["lambda0"] * math.sqrt(A / C)))
        return _lambda_failure("BO Riccati", grid, lam, expected)
    if kind in ("TO", "TR"):
        expected = _exponential_lambda(grid, p["kappa"], p["ratio"], p["c1"])
        return _lambda_failure(kind, grid, lam, expected)
    if kind == "TP":
        if not np.array_equal(lam, -grid + p["c0"]):
            return ["TP: lambda is not exactly -s + c0"]
    return []


class Workload:
    name = ""
    n = 0
    tail_pct = 50.0  # fixed so every run and every later commit reports the same percentile
    in_process = True
    why = ""

    def make_items(self, seed: int, n: int) -> list:
        raise NotImplementedError

    def run(self, item: Item, n: int, ctx: dict):
        """The timed work of one item."""
        raise NotImplementedError

    def check(self, item: Item, n: int, result, first_pass: bool) -> Outcome:
        """Correctness checks and the output digest of one finished item."""
        raise NotImplementedError

    def sizes(self, n: int) -> dict:
        return {"position_array_bytes": n * 3 * 8,
                "frame_arrays_bytes": 3 * n * 3 * 8}


class InMemoryWorkload(Workload):
    """Items are sample, solve, associate, check_association, all in memory."""

    def run(self, item: Item, n: int, ctx: dict):
        p = item.params
        base = self.base(item, n)
        sol = self.solve(item, base)
        spec = association.AssociationSpec(p["family"][0], p["family"][1], p["coeffs"])
        pred = association.associate(base, spec, sol)
        report = verify.check_association(base, pred.mate, spec, lam_sol=sol, predicted=pred)
        return base.grid, sol, report

    def check(self, item, n, result, first_pass) -> Outcome:
        grid, sol, report = result
        text = cio.report_to_json(report)
        summary = _report_summary(json.loads(text), grid)
        failures = _distance_failures(summary)
        failures += lambda_closed_form_failures(item.params.get("check"), item.params,
                                                grid, sol.lam)
        return Outcome(digest=hashlib.sha256(text.encode()).hexdigest(),
                       verdicts=[report.verdict], reports=[summary], failures=failures)


class OdeRk4(InMemoryWorkload):
    name = "ode-rk4"
    n = 2001
    tail_pct = 95.0
    why = ("fixed-step Python RK4 in the lambda solvers is ~90% of each item; "
           "sampling, association and the oracle do little")
    # Families in pass order. The BR and NR domains stay below the escape
    # points found for every (phi, lambda0) in the sampled box (BR >= 2.2,
    # NR >= 1.57); the BO Riccati domain is a fraction of its exact escape point.
    SCHEDULE = ("BO-riccati", "NO-ivp", "BO-ivp", "BR-ivp", "NR-ivp") * 2

    def make_items(self, seed, n):
        rng = np.random.default_rng([seed, 1])
        items = []
        for i, kind in enumerate(self.SCHEDULE):
            phi, a, b = _helix(rng)
            lam0 = float(rng.uniform(0.1, 0.6))
            p = {"phi": phi, "a": a, "b": b, "kappa": a, "tau": b, "lambda0": lam0,
                 "coeffs": (1.0, 1.0), "family": kind[:2]}
            if kind == "BO-riccati":
                p["check"] = kind
                A, C = b * a / 2.0, a / (2.0 * b)
                escape = (math.pi / 2 - math.atan(lam0 * math.sqrt(A / C))) / math.sqrt(A * C)
                p["L"] = float(rng.uniform(0.5, 0.8)) * escape
            elif kind == "NO-ivp":
                p["L"] = float(rng.uniform(2.0, 6.0))
            elif kind == "BO-ivp":
                p["coeffs"] = (float(rng.uniform(0.3, 1.0)), 1.0)
                p["L"] = float(rng.uniform(1.5, 3.0))
            elif kind == "BR-ivp":
                p["L"] = float(rng.uniform(1.0, 1.8))
            else:
                p["L"] = float(rng.uniform(0.8, 1.2))
            label = f"{kind} phi={phi:.4f} lambda0={lam0:.4f} L={p['L']:.4f}"
            items.append(Item(i, kind, label, p))
        return items

    def base(self, item, n):
        p = item.params
        return geometry.sample_curve(geometry.CurveSpec.helix(p["a"], p["b"]),
                                     np.linspace(0.0, p["L"], n))

    def solve(self, item, base):
        p = item.params
        if item.kind == "BO-riccati":
            return solvers.solve_riccati(p["kappa"], p["tau"], p["lambda0"], base.grid)
        ratio = p["coeffs"][0] / p["coeffs"][1] if p["family"] == "BO" else None
        return solvers.solve_constraint_ode(p["family"], p["kappa"], p["tau"],
                                            (p["lambda0"], 0.0), base.grid, ratio=ratio)


class OracleLarge(InMemoryWorkload):
    name = "oracle-large"
    n = 200001
    tail_pct = 75.0
    why = ("vectorized geometry, association and oracle code on 200 001 points "
           "does almost all the work; one item in eight is a sampled curve")
    SCHEDULE = ("TO", "TP", "TR", "NO-const", "NO-hyper", "NP", "BP", "TP-sampled")
    CONTROL_POINTS = 4000

    def make_items(self, seed, n):
        rng = np.random.default_rng([seed, 2])
        items = []
        for i, kind in enumerate(self.SCHEDULE):
            coeffs = (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5)))
            p = {"coeffs": coeffs, "family": kind[:2]}
            if p["family"] in ("TO", "TP", "TR"):
                p["check"] = p["family"]
            if kind == "TO":
                r = float(rng.uniform(0.5, 2.0))
                ratio = coeffs[0] / coeffs[1]
                # Growth exponent ratio*kappa*L kept in [1.5, 3] so |lambda| stays moderate.
                p.update(r=r, kappa=1.0 / r, ratio=ratio, c1=float(rng.uniform(0.5, 2.0)),
                         L=float(rng.uniform(1.5, 3.0)) * r / ratio)
                label = f"TO circle r={r:.4f} L={p['L']:.4f}"
            elif kind == "TP-sampled":
                t_end = float(rng.uniform(4.0, 6.0))
                t = np.linspace(0.0, t_end, self.CONTROL_POINTS)
                R, c = float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.4, 0.8))
                eps = rng.uniform(0.02, 0.06, 3)
                ph = rng.uniform(0.0, 2.0 * math.pi, 3)
                pts = np.column_stack([
                    t,
                    R * np.cos(t) + eps[0] * np.cos(3.0 * t + ph[0]),
                    R * np.sin(t) + eps[1] * np.sin(2.0 * t + ph[1]),
                    c * t + eps[2] * np.sin(t + ph[2]),
                ])
                p.update(points=pts, t_end=t_end, c0=float(rng.uniform(0.5, 3.0)),
                         coeffs=(-1.0, 1.0))
                label = f"TP sampled helix R={R:.4f} c={c:.4f} t_end={t_end:.4f}"
            else:
                phi, a, b = _helix(rng)
                p.update(phi=phi, a=a, b=b, kappa=a, tau=b)
                if kind == "TP":
                    p.update(c0=float(rng.uniform(0.5, 3.0)), L=float(rng.uniform(2.0, 6.0)))
                elif kind == "TR":
                    ratio = coeffs[0] / coeffs[1]
                    p.update(ratio=ratio, c1=float(rng.uniform(0.5, 2.0)),
                             L=float(rng.uniform(1.5, 3.0)) / (ratio * a))
                elif kind == "NO-hyper":
                    w = coeffs[0] / coeffs[1]  # (a/b) sqrt(kappa^2 + tau^2), unit speed
                    p.update(c1=float(rng.uniform(-0.3, 0.3)), c2=float(rng.uniform(-0.3, 0.3)),
                             L=float(rng.uniform(1.5, 3.0)) / w)
                elif kind in ("NP", "BP"):
                    p.update(value=float(rng.uniform(0.2, 1.0)), L=float(rng.uniform(2.0, 6.0)))
                else:
                    p["L"] = float(rng.uniform(2.0, 6.0))
                label = f"{kind} helix phi={phi:.4f} L={p['L']:.4f}"
            items.append(Item(i, kind, label, p))
        return items

    def base(self, item, n):
        p = item.params
        if "points" in p:
            spec = geometry.CurveSpec.from_samples(p["points"])
            return geometry.reparametrize_arclength(spec, (0.0, p["t_end"]), n)
        grid = np.linspace(0.0, p["L"], n)
        if item.kind == "TO":
            return geometry.sample_curve(geometry.CurveSpec.circle(p["r"]), grid)
        return geometry.sample_curve(geometry.CurveSpec.helix(p["a"], p["b"]), grid)

    def solve(self, item, base):
        p, grid, kind = item.params, base.grid, item.kind
        if kind in ("TO", "TR"):
            return solvers.solve_linear(base.frames.kappa, p["ratio"], p["c1"], grid)
        if kind in ("TP", "TP-sampled"):
            return solvers.lambda_involute(p["c0"], grid)
        if kind == "NO-const":
            return solvers.lambda_half_curvature(p["kappa"], grid)
        if kind == "NO-hyper":
            return solvers.lambda_helix_hyperbolic(p["coeffs"][0], p["coeffs"][1], p["kappa"],
                                                   p["tau"], p["c1"], p["c2"], grid)
        return solvers.lambda_constant(p["value"], grid)

    def sizes(self, n):
        out = super().sizes(n)
        out["reparam_fine_grid_bytes"] = max(8 * n + 1, 4097) * 3 * 8
        return out


class CliFiles(Workload):
    name = "cli-files"
    n = 20001
    tail_pct = 50.0
    in_process = False
    why = ("each item runs `curvemates example K` then `curvemates verify --mate` as "
           "subprocesses; writing ~17 MB and parsing ~12 MB of CSV dominates")
    TIMEOUT_S = 60.0

    def make_items(self, seed, n):
        rng = np.random.default_rng([seed, 3])
        items = []
        for i, example in enumerate((1, 2, 3)):
            c0 = float(rng.uniform(0.0, 0.25))
            items.append(Item(i, ("TO", "TP", "TR")[i], f"example {example} c0={c0:.4f}",
                              {"example": example, "c0": c0}))
        return items

    @staticmethod
    def grid_arg(n: int) -> str:
        return f"0:{2.0 * math.pi!r}:{n}"

    def _verify_args(self, item) -> list:
        helix = json.dumps({"kind": "helix", "a": INV_SQRT2, "b": INV_SQRT2})
        return {
            1: [f"--curve={json.dumps({'kind': 'circle', 'r': 1.0})}", "--family=TO",
                "--coeffs=1.0,1.0"],
            2: [f"--curve={helix}", "--family=TP", f"--coeffs={-INV_SQRT2!r},{INV_SQRT2!r}"],
            3: [f"--curve={helix}", "--family=TR", "--coeffs=1.0,1.0"],
        }[item.params["example"]]

    def run(self, item, n, ctx):
        """Both CLI calls of one item; returns their exit codes and spans files."""
        work = os.path.join(ctx["workdir"], f"item{item.index}")
        shutil.rmtree(work, ignore_errors=True)
        ex_dir, vf_dir = os.path.join(work, "example"), os.path.join(work, "verify")
        os.makedirs(work)
        calls = [
            ["example", str(item.params["example"]), f"--grid={self.grid_arg(n)}",
             f"--c0={item.params['c0']!r}", f"--out={ex_dir}"],
            ["verify", *self._verify_args(item), f"--grid={self.grid_arg(n)}",
             f"--mate={os.path.join(ex_dir, 'mate.csv')}",
             f"--lambda-csv={os.path.join(ex_dir, 'lambda.csv')}", f"--out={vf_dir}"],
        ]
        codes, spans_files, rss_kib = [], [], 0
        for k, args in enumerate(calls):
            if ctx.get("traced"):
                spans_files.append(os.path.join(work, f"spans{k}.json"))
                cmd = [sys.executable, CLI_CHILD, spans_files[-1], *args]
            else:
                cmd = [sys.executable, "-m", "curvemates.cli", *args]
            code, stderr, maxrss = ctx["spawner"].run(cmd, os.path.join(work, f"stderr{k}"),
                                                      self.TIMEOUT_S)
            codes.append((code, stderr))
            rss_kib = max(rss_kib, maxrss)
        return work, codes, spans_files, rss_kib

    def reference(self, item, grid):
        """The example's base, lambda and mate computed in memory."""
        c0 = item.params["c0"]
        example = item.params["example"]
        if example == 1:
            base = geometry.sample_curve(geometry.CurveSpec.circle(1.0), grid)
            spec = association.AssociationSpec("T", "O", (1.0, 1.0))
            sol = solvers.solve_linear(base.frames.kappa, 1.0, 1.0 + c0, grid)
        else:
            base = geometry.sample_curve(geometry.CurveSpec.helix(INV_SQRT2, INV_SQRT2), grid)
            if example == 2:
                spec = association.AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2))
                sol = solvers.lambda_involute(c0, grid)
            else:
                spec = association.AssociationSpec("T", "R", (1.0, 1.0))
                sol = solvers.solve_linear(base.frames.kappa, 1.0, math.sqrt(2.0) + c0, grid)
        return base, sol, association.associate(base, spec, sol)

    def roundtrip_failures(self, item, grid, directory: str) -> tuple[list, np.ndarray]:
        """Failures for the written CSVs that do not parse back bitwise equal, and lambda.

        Each file is read back with the library's own parser
        (``sampled_curve_from_csv``, ``lambda_from_csv``,
        ``mate_positions_from_csv``). The mate columns that no public
        parser returns are compared as read with Python's float().
        """
        base, sol, pred = self.reference(item, grid)
        f = base.frames

        def text(name):
            with open(os.path.join(directory, name)) as handle:
                return handle.read()

        got_base = cio.sampled_curve_from_csv(text("base.csv"))
        got_lam = cio.lambda_from_csv(text("lambda.csv"))
        mate_text = text("mate.csv")
        mate_grid, mate_pos, mate_lam = cio.mate_positions_from_csv(mate_text)
        mate_rest = np.delete(csv_numbers(mate_text), [0, 15, 16, 17, 18], axis=1)
        pairs = {
            "base.csv": [(got_base.grid, grid), (got_base.positions, base.positions)] + [
                (getattr(got_base.frames, k), getattr(f, k))
                for k in ("T", "N", "B", "kappa", "tau")],
            "lambda.csv": [(getattr(got_lam, k), getattr(sol, k))
                           for k in ("grid", "lam", "lam_prime", "lam_double_prime")],
            "mate.csv": [(mate_grid, grid), (mate_pos, pred.mate.positions),
                         (mate_lam, sol.lam),
                         (mate_rest, np.column_stack([base.positions, f.T, f.N, f.B, f.kappa,
                                                      f.tau, pred.T_star, pred.N_star,
                                                      pred.B_star, pred.kappa_star,
                                                      pred.tau_star]))],
        }
        bad = [name for name, arrays in pairs.items()
               if not all(same_bits(a, b) for a, b in arrays)]
        return [f"{name} does not parse back bitwise equal" for name in bad], got_lam.lam

    def check(self, item, n, result, first_pass) -> Outcome:
        work, codes = result[:2]
        failures, verdicts, reports = [], [], []
        exit_mismatches = roundtrip = 0
        grid = np.linspace(0.0, 2.0 * math.pi, n)
        digest = hashlib.sha256()
        for sub, (code, stderr) in zip(("example", "verify"), codes):
            path = os.path.join(work, sub, "report.json")
            if not os.path.exists(path):
                failures.append(f"{sub}: exit {code}, no report.json: {stderr.strip()}")
                exit_mismatches += 1
                continue
            with open(path) as handle:
                report = json.load(handle)
            summary = _report_summary(report, grid)
            reports.append(summary)
            verdicts.append(report["verdict"])
            if VERDICT_EXIT.get(report["verdict"]) != code:
                exit_mismatches += 1
                failures.append(f"{sub}: exit code {code} but verdict {report['verdict']}")
            failures += _distance_failures(summary)
        for sub in ("example", "verify"):
            directory = os.path.join(work, sub)
            for name in sorted(os.listdir(directory)) if os.path.isdir(directory) else []:
                with open(os.path.join(directory, name), "rb") as handle:
                    data = handle.read()
                digest.update(f"{sub}/{name}\0{len(data)}\0".encode())
                digest.update(data)
        if first_pass and not failures:
            mismatched, lam = self.roundtrip_failures(item, grid, os.path.join(work, "example"))
            roundtrip += len(mismatched)
            failures += mismatched
            kind = item.kind
            p = {"c0": item.params["c0"], "ratio": 1.0,
                 "kappa": 1.0 if kind == "TO" else INV_SQRT2,
                 "c1": (1.0 if kind == "TO" else math.sqrt(2.0)) + item.params["c0"]}
            failures += lambda_closed_form_failures(kind, p, grid, lam)
        shutil.rmtree(work, ignore_errors=True)
        return Outcome(digest=digest.hexdigest(), verdicts=verdicts, reports=reports,
                       failures=failures, exit_mismatches=exit_mismatches,
                       roundtrip_mismatches=roundtrip)

    def sizes(self, n):
        out = super().sizes(n)
        out["mate_csv_values_bytes"] = n * 30 * 8  # the float64 values mate.csv holds
        return out


def csv_numbers(text: str) -> np.ndarray:
    """Numeric rows of a curvemates CSV, parsed with Python's float()."""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    return np.array([[float(c) for c in row.split(",")] for row in rows[1:]])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality, with any NaN matching any NaN (text keeps no payload)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return bool(np.array_equal(nan_a, nan_b)
                and np.array_equal(a[~nan_a].view(np.uint64), b[~nan_b].view(np.uint64)))


WORKLOADS = {w.name: w for w in (OdeRk4(), OracleLarge(), CliFiles())}


@contextmanager
def item_context(workload: Workload, workdir: str):
    """What a workload's items run with: a spawn server when they start CLI calls."""
    if workload.in_process:
        yield {"workdir": workdir}
        return
    with Spawner(child_env()) as spawner:
        yield {"workdir": workdir, "spawner": spawner}


def run_item_safely(workload: Workload, item: Item, n: int, ctx: dict):
    """Run one item; any exception becomes a recorded failure, not a crash."""
    try:
        return workload.run(item, n, ctx), None
    except Exception as exc:  # the loop must go on and count it
        return None, f"{type(exc).__name__}: {exc}"
