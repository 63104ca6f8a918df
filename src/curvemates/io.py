"""File formats: curve JSON (read), sample/offset/mate CSV, report JSON.

Floats are serialized with repr (shortest round-trip decimal form) so every
file reloads bit-identically; writes go through a temp file plus rename.
CSV text is made and read in blocks of ``_BLOCK_ROWS`` rows. Within a block
each distinct float of a column (keyed by its bits, so -0.0 stays apart from
0.0) is formatted once; repr depends only on the bits, so the bytes are the
same as formatting every cell. When the base and mate CSV are written
together, each base line is formatted once for both. numpy's text reader
converts the data rows back, to the same bits as ``float``.
"""
from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Iterator
from contextlib import ExitStack
from dataclasses import fields, is_dataclass
from itertools import chain, islice, tee, zip_longest

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


def write_files(directory: str, files: dict[str, Iterable[str]]) -> None:
    """Write ``files`` (name: its text in chunks) in ``directory``, made if missing,
    one chunk of each file per step, through a temp file each (with the mode
    ``open(path, "w")`` gives); all are renamed into place after the last chunk,
    and on an error the temp files are removed and existing files are left as
    they were."""
    os.makedirs(directory, exist_ok=True)
    temps = [os.path.join(directory, f".tmp-{os.urandom(8).hex()}") for _ in files]
    try:
        with ExitStack() as stack:
            handles = [stack.enter_context(open(tmp, "x", encoding="utf-8", newline="\n"))
                       for tmp in temps]
            for chunks in zip_longest(*files.values(), fillvalue=""):
                for handle, chunk in zip(handles, chunks):
                    handle.write(chunk)
        for tmp, name in zip(temps, files):
            os.replace(tmp, os.path.join(directory, name))
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def atomic_write_text(path: str, text: str) -> None:
    """Write-temp-rename so partially written files are never observed."""
    path = os.path.abspath(path)
    write_files(os.path.dirname(path), {os.path.basename(path): [text]})


# Rows per block when writing CSV. Only one block's cell strings are alive
# at a time, so that memory does not grow with the row count.
_BLOCK_ROWS = 2048


def _row_lines(columns: list[np.ndarray]):
    """The CSV lines, without newlines, of the rows that ``np.column_stack(columns)``
    would give; the rows are stacked and formatted one block at a time."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        rows = np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns])
        cells = []
        for column in np.asarray(rows, dtype=np.float64).view(np.int64).T:
            keys, inverse = np.unique(column, return_inverse=True)
            texts = list(map(repr, keys.view(np.float64).tolist()))
            cells.append([texts[i] for i in inverse.tolist()])
        lines = list(map(",".join, zip(*cells)))
        del cells  # not held while the lines are taken
        yield from lines


def _csv_chunks(header: list[str], lines: Iterator[str], comments=()) -> Iterator[str]:
    """A CSV text in chunks: the comments and header, then one chunk per block of lines."""
    yield "".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n"
    while block := list(islice(lines, _BLOCK_ROWS)):
        yield "\n".join(block) + "\n"


def _parse_csv(lines: Iterable[str], expected_header: list[str],
               finite: tuple[str, ...] = ()) -> tuple[np.ndarray, list[str]]:
    """Data rows and comments of CSV ``lines`` (a list or open file); checks ``finite`` columns."""
    comments = []
    rows = _data_rows(lines, expected_header, comments)
    first = next(rows, None)
    if first is None:
        raise ParseError("empty CSV")
    try:
        array = np.loadtxt((row for _, row in chain([first], rows)), delimiter=",",
                           comments=None, ndmin=2)
    except ValueError:
        raise ParseError(_row_error(lines, expected_header)) from None
    if array.shape[1] != len(expected_header):
        raise ParseError(_row_error(lines, expected_header))
    for name in finite:
        column = array[:, expected_header.index(name)]
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise ParseError(f"data row {bad[0] + 1}: {name} must be finite, "
                             f"got {float(column[bad[0]])!r}")
    return array, comments


def _data_rows(lines: Iterable[str], expected_header: list[str], comments: list[str]):
    """(line number, stripped line) of each data row; comment lines go to ``comments``."""
    header = None
    for number, line in enumerate(lines, start=1):
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
        yield number, line


def _row_error(lines, expected_header: list[str]) -> str:
    """The located message of the first malformed row, rescanning ``lines`` from the start."""
    if hasattr(lines, "seek"):
        lines.seek(0)
    width = len(expected_header)
    for number, row in _data_rows(lines, expected_header, []):
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


def _curve_lines(curve: SampledCurve) -> Iterator[str]:
    if curve.frames is None:
        raise SpecificationError("CSV export requires a curve with frames")
    f = curve.frames
    return _row_lines([curve.grid, curve.positions, f.T, f.N, f.B, f.kappa, f.tau])


def sampled_curve_chunks(curve: SampledCurve) -> Iterator[str]:
    return _csv_chunks(_CURVE_COLUMNS, _curve_lines(curve))


def sampled_curve_to_csv(curve: SampledCurve) -> str:
    return "".join(sampled_curve_chunks(curve))


def sampled_curve_from_csv(text: str) -> SampledCurve:
    """A base curve from its CSV; the grid must be uniform with at least 4 rows."""
    data, _ = _parse_csv(text.splitlines(), _CURVE_COLUMNS)
    grid, pos = data[:, 0], data[:, 1:4]
    h = uniform_spacing(grid)
    frames = FrameData(T=data[:, 4:7], N=data[:, 7:10], B=data[:, 10:13],
                       kappa=data[:, 13], tau=data[:, 14], speed=norm3(diff1(pos, h)))
    return SampledCurve(grid=grid, positions=pos, frames=with_arclength_derivatives(frames, h))


# ---------------------------------------------------------------------------
# LambdaSolution CSV


def lambda_chunks(sol: LambdaSolution) -> Iterator[str]:
    constants = " ".join(f"{k}={float(v)!r}" for k, v in sorted(sol.constants.items()))
    comments = [f"provenance={sol.provenance}" + (f" {constants}" if constants else "")]
    lines = _row_lines([sol.grid, sol.lam, sol.lam_prime, sol.lam_double_prime])
    return _csv_chunks(_LAMBDA_COLUMNS, lines, comments)


def lambda_to_csv(sol: LambdaSolution) -> str:
    return "".join(lambda_chunks(sol))


def lambda_from_lines(lines: Iterable[str]) -> LambdaSolution:
    data, comments = _parse_csv(lines, _LAMBDA_COLUMNS, finite=tuple(_LAMBDA_COLUMNS))
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


def lambda_from_csv(text: str) -> LambdaSolution:
    return lambda_from_lines(text.splitlines())


# ---------------------------------------------------------------------------
# PredictedMate CSV


def mate_chunks(pred: PredictedMate, base_lines: Iterable[str] | None = None) -> Iterator[str]:
    """The mate CSV in chunks. Each row is the base CSV's line for the same
    grid point, then the mate columns; ``base_lines`` are those lines without
    newlines, formatted from ``pred.base`` when not given."""
    base = _curve_lines(pred.base) if base_lines is None else base_lines
    mate = _row_lines([pred.lam.lam, pred.mate.positions, pred.T_star, pred.N_star,
                       pred.B_star, pred.kappa_star, pred.tau_star])
    comments = [f"family={pred.family.code} classification={pred.classification}"]
    return _csv_chunks(_MATE_COLUMNS, map("{},{}".format, base, mate), comments)


def base_and_mate_chunks(pred: PredictedMate) -> tuple[Iterator[str], Iterator[str]]:
    """The chunks of ``pred.base``'s CSV and of the mate CSV, each base line formatted
    once for both; advanced together, as by ``write_files``, they hold one block."""
    lines, shared = tee(_curve_lines(pred.base))
    return _csv_chunks(_CURVE_COLUMNS, lines), mate_chunks(pred, shared)


def mate_to_csv(pred: PredictedMate) -> str:
    return "".join(mate_chunks(pred))


def mate_positions_from_lines(lines: Iterable[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grid, mate positions, lambda), all finite, from a mate CSV given as in
    ``_parse_csv``; the other columns may hold nan, where the closed form is undefined."""
    data, _ = _parse_csv(lines, _MATE_COLUMNS, finite=("s", "lambda", "xs", "ys", "zs"))
    return data[:, 0].copy(), data[:, 16:19].copy(), data[:, 15].copy()


def mate_positions_from_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return mate_positions_from_lines(text.splitlines())


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
