"""File formats: curve JSON (read), sample/offset/mate CSV, report JSON.

Floats are serialized with repr (shortest round-trip decimal form) so every
file reloads bit-identically; writes go through a temp file plus rename.
CSV rows are written and parsed in blocks of ``_BLOCK_ROWS`` rows. Within a
block each distinct float of a column (keyed by its bits, so -0.0 stays
apart from 0.0) is formatted once; repr depends only on the bits, so the
bytes are the same as formatting every cell.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict

import numpy as np

from .association import PredictedMate
from .errors import ParseError, SpecificationError
from .geometry import CurveSpec, FrameData, SampledCurve, curvature_derivatives
from .numdiff import diff1, norm3, uniform_spacing
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


# Rows per block when writing and parsing CSV. Only one block's cell strings
# are alive at a time, so that memory does not grow with the row count.
_BLOCK_ROWS = 2048


def _rows_to_csv(header: list[str], rows: np.ndarray, comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(header))
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.int64)
    for start in range(0, len(bits), _BLOCK_ROWS):
        columns = []
        for column in bits[start:start + _BLOCK_ROWS].T:
            keys, inverse = np.unique(column, return_inverse=True)
            texts = list(map(repr, keys.view(np.float64).tolist()))
            columns.append([texts[i] for i in inverse.tolist()])
        lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def _parse_csv(
    text: str, expected_header: list[str], finite: tuple[str, ...] = ()
) -> tuple[np.ndarray, list[str]]:
    """Numeric rows and comment lines; the ``finite`` columns must hold finite values."""
    comments = []
    header = None
    data = []
    for line in text.splitlines():
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
        data.append(line)
    if header is None or not data:
        raise ParseError("empty CSV")
    width = len(expected_header)
    array = np.empty((len(data), width))
    for start in range(0, len(data), _BLOCK_ROWS):
        block = data[start:start + _BLOCK_ROWS]
        # Per-row counts: a short row and a long row would balance in the joined split.
        if any(line.count(",") != width - 1 for line in block):
            raise ParseError(_row_error(text, width))
        cells = ",".join(block).split(",")
        try:
            values = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
        except ValueError:
            raise ParseError(_row_error(text, width)) from None
        array[start:start + len(block)] = values.reshape(-1, width)
    for name in finite:
        column = array[:, expected_header.index(name)]
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise ParseError(f"data row {bad[0] + 1}: {name} must be finite, "
                             f"got {float(column[bad[0]])!r}")
    return array, comments


def _row_error(text: str, width: int) -> str:
    """The located message of the first malformed data row, found by a rescan."""
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != width:
            return f"line {lineno}: expected {width} columns"
        try:
            for cell in cells:
                float(cell)
        except ValueError as exc:
            return f"line {lineno}: {exc}"
    return "malformed data row"


# ---------------------------------------------------------------------------
# CurveSpec JSON


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
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed curve JSON: {exc}") from None
    except SpecificationError as exc:
        raise ParseError(str(exc)) from None
    raise ParseError(f"unknown curve kind {obj.get('kind')!r}")


# ---------------------------------------------------------------------------
# SampledCurve CSV


def sampled_curve_to_csv(curve: SampledCurve) -> str:
    if curve.frames is None:
        raise SpecificationError("CSV export requires a curve with frames")
    f = curve.frames
    rows = np.column_stack([curve.grid, curve.positions, f.T, f.N, f.B, f.kappa, f.tau])
    return _rows_to_csv(_CURVE_COLUMNS, rows)


def sampled_curve_from_csv(text: str) -> SampledCurve:
    """A base curve from its CSV; the grid must be uniform with at least 4 rows."""
    data, _ = _parse_csv(text, _CURVE_COLUMNS)
    grid, pos, kappa, tau = data[:, 0], data[:, 1:4], data[:, 13], data[:, 14]
    h = uniform_spacing(grid)
    speed = norm3(diff1(pos, h))
    kp, tp, ks, ts = curvature_derivatives(kappa, tau, speed, h)
    frames = FrameData(T=data[:, 4:7], N=data[:, 7:10], B=data[:, 10:13],
                       kappa=kappa, tau=tau, kappa_prime=kp, tau_prime=tp,
                       speed=speed, kappa_second=ks, tau_second=ts)
    unit = bool(np.max(np.abs(speed - 1.0)) < 1e-6)
    return SampledCurve(grid=grid, positions=pos, frames=frames, unit_speed=unit)


# ---------------------------------------------------------------------------
# LambdaSolution CSV


def lambda_to_csv(sol: LambdaSolution) -> str:
    constants = " ".join(f"{k}={float(v)!r}" for k, v in sorted(sol.constants.items()))
    comments = [f"provenance={sol.provenance}" + (f" {constants}" if constants else "")]
    rows = np.column_stack([sol.grid, sol.lam, sol.lam_prime, sol.lam_double_prime])
    return _rows_to_csv(_LAMBDA_COLUMNS, rows, comments)


def lambda_from_csv(text: str) -> LambdaSolution:
    data, comments = _parse_csv(text, _LAMBDA_COLUMNS, finite=tuple(_LAMBDA_COLUMNS))
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
    """(grid, mate positions, lambda) from a mate CSV; all three must be finite.

    The mate frame and curvature columns may hold nan, which mate_to_csv
    writes where the closed form is undefined.
    """
    data, _ = _parse_csv(text, _MATE_COLUMNS, finite=("s", "lambda", "xs", "ys", "zs"))
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
