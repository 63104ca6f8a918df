"""File formats: curve/association JSON, sample/offset/mate CSV, report JSON.

Floats are serialized with repr (shortest round-trip decimal form) so every
file reloads bit-identically; writes go through a temp file plus rename.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict

import numpy as np

from .association import AssociationSpec, PredictedMate
from .errors import ParseError, SpecificationError
from .geometry import CurveSpec, FrameData, SampledCurve
from .solvers import LambdaSolution
from .verify import GATING_TABLE_VERSION, VerificationReport

_CURVE_COLUMNS = ["s", "x", "y", "z", "Tx", "Ty", "Tz", "Nx", "Ny", "Nz",
                  "Bx", "By", "Bz", "kappa", "tau"]
_LAMBDA_COLUMNS = ["s", "lambda", "lambda_prime", "lambda_double_prime"]
_MATE_COLUMNS = _CURVE_COLUMNS + ["lambda", "xs", "ys", "zs",
                                  "Tsx", "Tsy", "Tsz", "Nsx", "Nsy", "Nsz",
                                  "Bsx", "Bsy", "Bsz", "kappa_star", "tau_star"]


def atomic_write_text(path: str, text: str) -> None:
    """Write-temp-rename so partially written files are never observed."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def _rows_to_csv(header: list[str], rows: np.ndarray, comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _parse_csv(text: str, expected_header: list[str]) -> tuple[np.ndarray, list[str]]:
    comments = []
    header = None
    data = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            if header != expected_header:
                raise ParseError(
                    f"unexpected header {header}; expected {expected_header}"
                )
            continue
        cells = line.split(",")
        if len(cells) != len(expected_header):
            raise ParseError(f"line {lineno}: expected {len(expected_header)} columns")
        try:
            data.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if header is None or not data:
        raise ParseError("empty CSV")
    return np.asarray(data, dtype=float), comments


# ---------------------------------------------------------------------------
# CurveSpec / AssociationSpec JSON


def curve_to_json(spec: CurveSpec) -> str:
    if spec.kind == "circle":
        obj = {"kind": "circle", "r": spec.r}
    elif spec.kind == "helix":
        obj = {"kind": "helix", "a": spec.a, "b": spec.b}
    else:
        obj = {"kind": "samples", "points": [list(map(float, row)) for row in spec.points]}
    return json.dumps(obj, sort_keys=True)


def curve_from_json(text: str) -> CurveSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid curve JSON: {exc}") from None
    try:
        kind = obj["kind"]
        if kind == "circle":
            return CurveSpec.circle(obj["r"])
        if kind == "helix":
            return CurveSpec.helix(obj["a"], obj["b"])
        if kind == "samples":
            return CurveSpec.from_samples(obj["points"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed curve JSON: {exc}") from None
    except SpecificationError as exc:
        raise ParseError(str(exc)) from None
    raise ParseError(f"unknown curve kind {obj.get('kind')!r}")


def association_to_json(spec: AssociationSpec) -> str:
    return json.dumps(
        {"vector": spec.vector, "plane": spec.plane, "coeffs": list(spec.coeffs)},
        sort_keys=True,
    )


def association_from_json(text: str) -> AssociationSpec:
    try:
        obj = json.loads(text)
        return AssociationSpec(vector=obj["vector"], plane=obj["plane"],
                               coeffs=tuple(obj["coeffs"]))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid association JSON: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed association JSON: {exc}") from None
    except SpecificationError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# SampledCurve CSV


def sampled_curve_to_csv(curve: SampledCurve) -> str:
    if curve.frames is None:
        raise SpecificationError("CSV export requires a curve with frames")
    f = curve.frames
    rows = np.column_stack([curve.grid, curve.positions, f.T, f.N, f.B, f.kappa, f.tau])
    return _rows_to_csv(_CURVE_COLUMNS, rows)


def sampled_curve_from_csv(text: str) -> SampledCurve:
    data, _ = _parse_csv(text, _CURVE_COLUMNS)
    grid = data[:, 0]
    pos = data[:, 1:4]
    kappa = data[:, 13]
    tau = data[:, 14]
    h = float(grid[1] - grid[0]) if grid.size > 1 else 1.0
    from .numdiff import diff1, diff2

    speed = np.linalg.norm(diff1(pos, h), axis=1) if grid.size >= 3 else np.ones_like(grid)
    safe = np.where(speed > 0, speed, 1.0)
    frames = FrameData(
        T=data[:, 4:7], N=data[:, 7:10], B=data[:, 10:13],
        kappa=kappa, tau=tau,
        kappa_prime=diff1(kappa, h) / safe if grid.size >= 3 else np.zeros_like(grid),
        tau_prime=diff1(tau, h) / safe if grid.size >= 3 else np.zeros_like(grid),
        speed=speed,
        kappa_second=diff2(kappa, h) / safe**2 if grid.size >= 4 else np.zeros_like(grid),
        tau_second=diff2(tau, h) / safe**2 if grid.size >= 4 else np.zeros_like(grid),
    )
    unit = bool(np.max(np.abs(speed - 1.0)) < 1e-6)
    return SampledCurve(grid=grid, positions=pos, frames=frames, unit_speed=unit)


# ---------------------------------------------------------------------------
# LambdaSolution CSV


def lambda_to_csv(sol: LambdaSolution) -> str:
    constants = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(sol.constants.items()))
    comments = [f"provenance={sol.provenance}" + (f" {constants}" if constants else "")]
    rows = np.column_stack([sol.grid, sol.lam, sol.lam_prime, sol.lam_double_prime])
    return _rows_to_csv(_LAMBDA_COLUMNS, rows, comments)


def lambda_from_csv(text: str) -> LambdaSolution:
    data, comments = _parse_csv(text, _LAMBDA_COLUMNS)
    provenance = "closed-form"
    constants: dict[str, float] = {}
    for comment in comments:
        for token in comment.split():
            if "=" in token:
                key, value = token.split("=", 1)
                if key == "provenance":
                    provenance = value
                else:
                    try:
                        constants[key] = float(value)
                    except ValueError:
                        pass
    return LambdaSolution(grid=data[:, 0], lam=data[:, 1], lam_prime=data[:, 2],
                          lam_double_prime=data[:, 3], provenance=provenance,
                          constants=constants)


# ---------------------------------------------------------------------------
# PredictedMate CSV


def mate_to_csv(pred: PredictedMate) -> str:
    base = pred.base
    if base.frames is None:
        raise SpecificationError("mate export requires base frames")
    f = base.frames
    rows = np.column_stack([
        base.grid, base.positions, f.T, f.N, f.B, f.kappa, f.tau,
        pred.lam.lam, pred.mate.positions,
        pred.T_star, pred.N_star, pred.B_star,
        pred.kappa_star, pred.tau_star,
    ])
    comments = [f"family={pred.family.code} classification={pred.classification}"]
    return _rows_to_csv(_MATE_COLUMNS, rows, comments)


def mate_positions_from_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grid, mate positions, lambda) from a mate CSV."""
    data, _ = _parse_csv(text, _MATE_COLUMNS)
    return data[:, 0], data[:, 16:19], data[:, 15]


# ---------------------------------------------------------------------------
# VerificationReport JSON


def _json_safe(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def report_to_json(report: VerificationReport) -> str:
    obj = {
        "family": {"vector": report.family.vector, "plane": report.family.plane,
                   "coeffs": list(report.family.coeffs)},
        "residuals": _json_safe(report.constraint_residuals),
        "frame_errors": _json_safe(report.frame_errors),
        "frame_raw_angles": _json_safe(report.frame_raw_angles),
        "frame_sign_flips": _json_safe(report.frame_sign_flips),
        "curvature_deltas": _json_safe(report.curvature_deltas),
        "distance_check": _json_safe(report.distance_check),
        "excluded_bands": _json_safe(report.excluded_bands),
        "gated": report.gated,
        "verdict": report.verdict,
        "tolerances": _json_safe(asdict(report.tolerances)),
        "notes": list(report.notes),
        "gating_table_version": GATING_TABLE_VERSION,
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
