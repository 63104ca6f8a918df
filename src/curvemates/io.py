"""File formats: curve JSON (read), sample/offset/mate CSV, report JSON.

Floats are serialized with repr (shortest round-trip decimal form) so every
file reloads bit-identically; writes go through a temp file plus rename.
CSV rows are written in blocks of ``_BLOCK_ROWS`` rows. Within a block each
distinct float of a column (keyed by its bits, so -0.0 stays apart from 0.0)
is formatted once; repr depends only on the bits, so the bytes are the same
as formatting every cell. The base columns of a mate CSV are copied from the
base CSV's lines, so they are formatted once. numpy's text reader converts
the data rows back, to the same bits as ``float``.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import fields, is_dataclass

import numpy as np

from .association import PredictedMate
from .errors import ParseError, SpecificationError
from .geometry import CurveSpec, FrameData, SampledCurve, with_arclength_derivatives
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


# Rows per block when writing CSV. Only one block's cell strings are alive
# at a time, so that memory does not grow with the row count.
_BLOCK_ROWS = 2048


def _row_blocks(rows: np.ndarray):
    """The CSV lines of ``rows``, without newlines, one list per block."""
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.int64)
    for start in range(0, len(bits), _BLOCK_ROWS):
        columns = []
        for column in bits[start:start + _BLOCK_ROWS].T:
            keys, inverse = np.unique(column, return_inverse=True)
            texts = list(map(repr, keys.view(np.float64).tolist()))
            columns.append([texts[i] for i in inverse.tolist()])
        yield list(map(",".join, zip(*columns)))


def _rows_to_csv(header: list[str], rows: np.ndarray, comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(header))
    for block in _row_blocks(rows):
        lines.extend(block)
    return "\n".join(lines) + "\n"


def _parse_csv(text: str, expected_header: list[str],
               finite: tuple[str, ...] = ()) -> tuple[np.ndarray, list[str]]:
    """Numeric rows and comment lines; the ``finite`` columns must hold finite values."""
    comments = []
    header = None
    data, numbers = [], []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            if header != expected_header:
                raise ParseError(f"unexpected header {header}; expected {expected_header}")
            continue
        data.append(line)
        numbers.append(number)
    if header is None or not data:
        raise ParseError("empty CSV")
    width = len(expected_header)
    try:
        array = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        raise ParseError(_row_error(data, numbers, width)) from None
    if array.shape[1] != width:
        raise ParseError(_row_error(data, numbers, width))
    for name in finite:
        column = array[:, expected_header.index(name)]
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise ParseError(f"data row {bad[0] + 1}: {name} must be finite, "
                             f"got {float(column[bad[0]])!r}")
    return array, comments


def _row_error(rows: list[str], numbers: list[int], width: int) -> str:
    """The located message of the first malformed row; ``numbers`` are the line numbers."""
    for number, row in zip(numbers, rows):
        cells = row.split(",")
        if len(cells) != width:
            return f"line {number}: expected {width} columns"
        for cell in cells:
            try:
                float(cell)
            except ValueError as exc:
                return f"line {number}: {exc}"
            # float reads digit grouping (1_0) and non-ASCII digits; numpy does not.
            if "_" in cell or not cell.strip().isascii():
                return f"line {number}: could not convert string to float: {cell!r}"
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    grid, pos = data[:, 0], data[:, 1:4]
    h = uniform_spacing(grid)
    frames = FrameData(T=data[:, 4:7], N=data[:, 7:10], B=data[:, 10:13],
                       kappa=data[:, 13], tau=data[:, 14], speed=norm3(diff1(pos, h)))
    return SampledCurve(grid=grid, positions=pos, frames=with_arclength_derivatives(frames, h))


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
    for key, value in (t.split("=", 1) for c in comments for t in c.split() if "=" in t):
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


def mate_to_csv(pred: PredictedMate, base_csv: str) -> str:
    """The mate CSV; ``base_csv`` must be ``sampled_curve_to_csv(pred.base)``.

    Each row is that text's line for the same grid point, then the mate
    columns, so the base columns are formatted once for both files.
    """
    header_end = base_csv.find("\n")
    if base_csv[:header_end] != ",".join(_CURVE_COLUMNS):
        raise SpecificationError("base_csv does not start with the base curve CSV header")
    rows = len(pred.base.grid)
    if base_csv.count("\n") != rows + 1 or not base_csv.endswith("\n"):
        raise SpecificationError(f"base_csv must hold {rows} data rows, one per grid point")
    mate_rows = np.column_stack([pred.lam.lam, pred.mate.positions, pred.T_star, pred.N_star,
                                 pred.B_star, pred.kappa_star, pred.tau_star])
    chunks = [f"# family={pred.family.code} classification={pred.classification}\n",
              ",".join(_MATE_COLUMNS) + "\n"]
    base_lines = _data_lines(base_csv, header_end + 1)
    for block in _row_blocks(mate_rows):
        # The block goes first: zip draws from its first iterator before it
        # finds the second spent, so base_lines first would lose a line per block.
        chunks.append("".join(f"{line},{mate}\n" for mate, line in zip(block, base_lines)))
    return "".join(chunks)


def _data_lines(text: str, pos: int):
    """The newline-terminated lines of ``text`` from ``pos`` on, read lazily
    so that the whole text is never split."""
    while pos < len(text):
        end = text.index("\n", pos)
        yield text[pos:end]
        pos = end + 1


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
    """JSON data for ``value``: dataclasses as dicts, tuples as lists, nan and inf as strings."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(float(value))  # "nan", "inf", "-inf"
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if is_dataclass(value):
        return {f.name: _json_safe(getattr(value, f.name)) for f in fields(value)}
    return value


def report_to_json(report: VerificationReport) -> str:
    obj = _json_safe(report)
    obj["residuals"] = obj.pop("constraint_residuals")
    obj["gating_table_version"] = GATING_TABLE_VERSION
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
