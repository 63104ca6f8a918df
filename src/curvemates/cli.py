"""Command line front end.

Subcommands: frenet, solve-lambda, associate, verify, example. Outputs are
deterministic (no timestamps, repr-formatted floats, atomic writes).

Exit codes: 0 verification passed, 1 verification failed, 2 formula audit
flag raised, 64 usage or parse error, 65 data error (grid misalignment,
domain violations, degenerate configurations). No other codes occur.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import io as cio
from .association import FAMILIES, AssociationSpec, associate
from .errors import (
    AlignmentError,
    CurveMatesError,
    ParseError,
    SpecificationError,
    UsageError,
)
from .geometry import CurveSpec, SampledCurve, sample_curve
from .numdiff import same_grid
from .solvers import (
    LambdaSolution,
    constant_admissible_lambda,
    lambda_constant,
    lambda_half_curvature,
    lambda_helix_hyperbolic,
    lambda_involute,
    solve_constraint_ode,
    solve_linear,
    solve_riccati,
)
from .verify import Tolerances, check_association

DEFAULT_GRID = (0.0, 2.0 * math.pi, 2001)
_VERDICT_EXIT = {"pass": 0, "fail": 1, "formula-audit-flag": 2}
ENV_TOL_PREFIX = "CURVEMATES_TOL_"

# The worked examples as verify options: curve, family, coefficients, and the start
# value that --c0 is added to, passed as --c1 (None for TP's involute, lambda = c0 - s).
_HELIX = '{"kind": "helix", "a": 0.7071067811865475, "b": 0.7071067811865475}'
EXAMPLES = {
    1: ('{"kind": "circle", "r": 1.0}', "TO", "1,1", 1.0),
    2: (_HELIX, "TP", "-0.7071067811865475,0.7071067811865475", None),
    3: (_HELIX, "TR", "1,1", math.sqrt(2.0)),
}

_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot a base curve and its associated mate from the emitted CSV files.\"\"\"
import csv
import sys

import matplotlib.pyplot as plt


def read_columns(path):
    with open(path) as handle:
        rows = [r for r in csv.reader(line for line in handle if not line.startswith("#"))]
    header, data = rows[0], rows[1:]
    return {name: [float(r[i]) for r in data] for i, name in enumerate(header)}


def main(argv):
    mate = read_columns(argv[1] if len(argv) > 1 else "mate.csv")
    ax = plt.figure().add_subplot(projection="3d")
    ax.plot(mate["x"], mate["y"], mate["z"], label="base")
    ax.plot(mate["xs"], mate["ys"], mate["zs"], label="mate")
    ax.legend()
    plt.show()


if __name__ == "__main__":
    main(sys.argv)
"""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting (argparse's own exit code 2
    would collide with the audit-flag exit code)."""

    def error(self, message):
        raise UsageError(message)


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise UsageError(f"--grid expects min:max:n, got {text!r}") from None
    if not math.isfinite(hi - lo):  # also false for a non-finite bound
        raise UsageError(f"--grid bounds and max - min must be finite, got {text!r}")
    if not (lo < hi and n >= 7):
        raise UsageError("--grid requires min < max and n >= 7")
    return np.linspace(lo, hi, n)


@contextmanager
def _opened(path: str, what: str):
    """A file named on the command line, open as UTF-8 text."""
    if not os.path.exists(path):
        raise UsageError(f"{what} file not found: {path}")
    with open(path, encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise UsageError(f"{what} file {path} is not UTF-8 text: {exc}") from None


def _parse_curve(text: str) -> CurveSpec:
    text = text.strip()
    if not text.startswith("{"):
        with _opened(text, "curve") as handle:
            text = handle.read()
    return cio.curve_from_json(text)


def _parse_coeffs(text: str) -> tuple[float, float]:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"--coeffs expects two comma-separated reals, got {text!r}") from None
    if len(parts) != 2:
        raise UsageError("--coeffs expects exactly two values")
    return parts[0], parts[1]


def _family_spec(family: str, coeffs: tuple[float, float] | None) -> AssociationSpec:
    family = family.upper()
    if family not in FAMILIES:
        raise UsageError(f"--family must be one of {','.join(FAMILIES)}, got {family!r}")
    if coeffs is None:
        coeffs = (1.0, 1.0)
    try:
        return AssociationSpec(vector=family[0], plane=family[1], coeffs=coeffs)
    except SpecificationError as exc:
        raise UsageError(str(exc)) from None


def _tolerances(args) -> Tolerances:
    tols = Tolerances()
    overrides = {}
    for key, value in os.environ.items():
        if key.startswith(ENV_TOL_PREFIX):
            overrides[key[len(ENV_TOL_PREFIX):].lower()] = value
    for item in args.tol or []:
        if "=" not in item:
            raise UsageError(f"--tol expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value
    try:
        return tols.replace(**overrides) if overrides else tols
    except (SpecificationError, ValueError) as exc:
        raise UsageError(f"bad tolerance override: {exc}") from None


def _named_constants(curve: CurveSpec) -> tuple[float, float]:
    if not curve.is_analytic:
        raise UsageError("this solver needs a named analytic curve (constant kappa, tau)")
    return curve.closed_form_curvatures()


# The start options that each family's default solve reads; TO and TR read --c0 or
# --c1, not both. Any other start option, or one given with --lambda-csv, exits 64.
START_OPTIONS = {
    "TO": ("--c0", "--c1"), "TR": ("--c0", "--c1"), "TP": ("--c0",),
    "NO": ("--c1", "--c2"), "NP": ("--lambda0",), "BP": ("--lambda0",),
    "BO": ("--lambda0",), "BR": ("--lambda0", "--lambda0-prime"), "NR": (),
}


def _check_start_options(code: str, args) -> None:
    """Raise UsageError on a start option that family ``code``'s solve does not
    read, or that is not finite."""
    values = {flag: getattr(args, flag[2:].replace("-", "_"), None)
              for flag in ("--c0", "--c1", "--c2", "--lambda0", "--lambda0-prime")}
    given = [flag for flag, value in values.items() if value is not None]
    if given and getattr(args, "lambda_csv", None):
        raise UsageError(f"{given[0]} is not read for family {code} with --lambda-csv")
    for flag in given:
        if flag not in START_OPTIONS[code]:
            reads = ", ".join(START_OPTIONS[code]) or "no start option"
            raise UsageError(f"{flag} is not read for family {code}, which reads {reads}")
        if not math.isfinite(values[flag]):
            raise UsageError(f"{flag} must be finite, got {values[flag]!r}")
    if code in ("TO", "TR") and len(given) == 2:
        raise UsageError(f"family {code} reads --c0 or --c1, not both")


def _solve_family_lambda(
    spec: AssociationSpec, curve: CurveSpec, base: SampledCurve, args
) -> LambdaSolution:
    """Default offset solver per family, started from the options in START_OPTIONS."""
    def start(name: str, default: float) -> float:
        value = getattr(args, name)
        return default if value is None else value  # -0.0 keeps its sign

    grid, code = base.grid, spec.code
    if code in ("TO", "TR"):
        ratio, kappa = spec.ratio(), base.frames.kappa
        c1 = args.c1
        if c1 is None:
            if abs(ratio * float(kappa[0])) < 1e-12:
                raise UsageError("cannot derive c1 from c0: ratio*kappa vanishes")
            c1 = 1.0 / (ratio * float(kappa[0])) + start("c0", 0.0)
        return solve_linear(kappa, ratio, c1, grid)
    if code == "TP":
        return lambda_involute(start("c0", 0.0), grid)
    if code in ("NP", "BP"):
        return lambda_constant(start("lambda0", 1.0), grid)
    kappa, tau = _named_constants(curve)
    if code == "NO":
        if args.c1 is None and args.c2 is None:
            return lambda_half_curvature(kappa, grid)
        a, b = spec.coeffs
        return lambda_helix_hyperbolic(a, b, kappa, tau, start("c1", 0.0), start("c2", 0.0), grid)
    if code == "NR":
        return lambda_constant(constant_admissible_lambda("NR", kappa, tau), grid)
    if code == "BO":
        return solve_riccati(kappa, tau, start("lambda0", 0.0), grid)
    initial = (start("lambda0", 0.5), start("lambda0_prime", 0.0))
    return solve_constraint_ode("BR", kappa, tau, initial, grid)


def cmd_frenet(args) -> int:
    base = sample_curve(_parse_curve(args.curve), _parse_grid(args.grid))
    cio.write_files(args.out, {"base.csv": cio.sampled_curve_csv(base)})
    return 0


def _inputs(args) -> tuple[CurveSpec, SampledCurve, AssociationSpec]:
    """The curve, its sampled base and the family spec named by the options."""
    spec = _family_spec(args.family, _parse_coeffs(args.coeffs) if args.coeffs else None)
    _check_start_options(spec.code, args)
    curve = _parse_curve(args.curve)
    base = sample_curve(curve, _parse_grid(args.grid))
    return curve, base, spec


def _offset(args, curve: CurveSpec, base: SampledCurve, spec: AssociationSpec) -> LambdaSolution:
    """The --lambda-csv offset on the base grid, or else the family's default solve."""
    if not args.lambda_csv:
        return _solve_family_lambda(spec, curve, base, args)
    with _opened(args.lambda_csv, "lambda") as handle:
        sol = cio.lambda_from_lines(handle)
    sol.require_grid(base.grid)
    return sol


def cmd_solve_lambda(args) -> int:
    curve, base, spec = _inputs(args)
    sol = _solve_family_lambda(spec, curve, base, args)
    sol.require_bounded()  # a lambda.csv that associate would refuse is not written
    cio.write_files(args.out, {"lambda.csv": cio.lambda_csv(sol)})
    return 0


def cmd_associate(args) -> int:
    curve, base, spec = _inputs(args)
    pred = associate(base, spec, _offset(args, curve, base, spec))
    cio.write_files(args.out, {"mate.csv": cio.mate_csv(pred)})
    return 0


def cmd_verify(args) -> int:
    curve, base, spec = _inputs(args)
    tols = _tolerances(args)
    sol = _offset(args, curve, base, spec)
    pred = associate(base, spec, sol)
    mate = pred.mate
    if args.mate:
        with _opened(args.mate, "mate") as handle:
            mate_grid, mate_pos, _ = cio.mate_positions_from_lines(handle)
        if not same_grid(mate_grid, base.grid):
            raise AlignmentError("mate file grid does not match --grid")
        mate = SampledCurve(grid=mate_grid, positions=mate_pos)
    report = check_association(base, mate, spec, lam_sol=sol, predicted=pred,
                               tolerances=tols)
    if args.command == "example":
        files = {"base.csv": cio.sampled_curve_csv(base), "lambda.csv": cio.lambda_csv(sol),
                 "mate.csv": cio.mate_csv(pred)}
        if args.emit_plot_script:
            files["plot_mates.py"] = _PLOT_SCRIPT
        cio.write_files(args.out, files)
    cio.atomic_write_text(os.path.join(args.out, "report.json"), cio.report_to_json(report))
    print(f"verdict: {report.verdict}")
    return _VERDICT_EXIT[report.verdict]


def cmd_example(args) -> int:
    """Run verify on the example's row of EXAMPLES, also writing its CSV files."""
    curve, family, coeffs, start = EXAMPLES[args.index]
    _check_start_options(family, args)  # before --c0 moves into --c1
    if start is not None:  # --c0 moves into --c1, as a user would type it
        args.c1, args.c0 = start + (args.c0 or 0.0), None
    vars(args).update(curve=curve, family=family, coeffs=coeffs, c2=None,
                      lambda0=None, lambda0_prime=None, lambda_csv=None, mate=None)
    return cmd_verify(args)


def _add_options(sub: argparse.ArgumentParser, *groups: str) -> None:
    """Register --grid, --out and the option groups that the subcommand reads."""
    sub.add_argument("--grid", default=f"{DEFAULT_GRID[0]}:{DEFAULT_GRID[1]}:{DEFAULT_GRID[2]}",
                     help="sample grid as min:max:n (default [0, 2pi] with 2001 points); "
                          "a negative min needs '=', as in --grid=-1:1:201")
    sub.add_argument("--out", default=".", help="output directory (default .)")
    if "curve" in groups:
        sub.add_argument("--curve", required=True,
                         help="curve JSON (inline or a file path)")
    if "family" in groups:
        sub.add_argument("--family", required=True,
                         help="family code: TO TP TR NO NP NR BO BP BR")
        sub.add_argument("--coeffs", help="plane coefficients, e.g. 1,1; a value that "
                         "starts with '-' needs '=', as in --coeffs=-1,1")
        for name in ("--c1", "--c2", "--lambda0", "--lambda0-prime"):
            sub.add_argument(name, type=float, default=None)
    if "c0" in groups:
        sub.add_argument("--c0", type=float, default=None)
    if "tol" in groups:
        sub.add_argument("--tol", action="append", metavar="KEY=VAL",
                         help="tolerance override (also CURVEMATES_TOL_<KEY> env vars)")
    if "lambda-csv" in groups:
        sub.add_argument("--lambda-csv", dest="lambda_csv", default=None,
                         help="load the offset function from a CSV instead of solving")


def build_parser() -> _Parser:
    parser = _Parser(prog="curvemates",
                     description="Frenet frames, offset functions, associated mates, verification")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("frenet", help="sample a curve with its Frenet frames")
    _add_options(p, "curve")

    p = subs.add_parser("solve-lambda", help="solve the offset function of a family")
    _add_options(p, "curve", "family", "c0")

    p = subs.add_parser("associate", help="construct an associated mate")
    _add_options(p, "curve", "family", "c0", "lambda-csv")

    p = subs.add_parser("verify", help="verify a mate against its family relations")
    _add_options(p, "curve", "family", "c0", "tol", "lambda-csv")
    p.add_argument("--mate", default=None, help="verify this mate CSV instead of a fresh construction")

    p = subs.add_parser("example", help="reproduce one of the three worked examples")
    p.add_argument("index", type=int, choices=(1, 2, 3))
    _add_options(p, "c0", "tol")
    p.add_argument("--emit-plot-script", action="store_true")
    return parser


_COMMANDS = {
    "frenet": cmd_frenet,
    "solve-lambda": cmd_solve_lambda,
    "associate": cmd_associate,
    "verify": cmd_verify,
    "example": cmd_example,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except (CurveMatesError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 65


if __name__ == "__main__":
    sys.exit(main())
