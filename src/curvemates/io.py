"""File formats: curve JSON (read), sample/offset/mate CSV, report JSON.

Floats are serialized with repr (shortest round-trip decimal form) so every
file reloads bit-identically; writes go through a temp file plus rename.
A CSV is a :class:`Csv`: its head text and the float columns its rows print.
Its rows are made in blocks of ``_BLOCK_ROWS``, and one block of every CSV
of a write is formatted at once: each distinct column array (the same
memory, as the base columns of ``base.csv`` and ``mate.csv`` or the s and
lambda of ``lambda.csv`` and ``mate.csv``) once, and within it each distinct
float (keyed by its bits, so -0.0 stays apart from 0.0) once; repr depends
only on the bits, so the bytes are the same as formatting every cell.
``write_files`` shares a write's blocks with one forked child when the
host has a second CPU and no other thread is alive: the two take blocks
from either end until none is left (see its docstring). numpy's text
reader converts the data rows back, to the same bits as ``float``.
"""
from __future__ import annotations

import json
import math
import mmap
import os
import signal
import sys
import threading
from collections.abc import Iterable
from contextlib import ExitStack, suppress
from dataclasses import dataclass, fields, is_dataclass
from itertools import chain

import numpy as np

from . import numdiff
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

# Rows per block when writing CSV. Only one block's cell strings are alive
# at a time, so that memory does not grow with the row count.
_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class Csv:
    """A CSV file: its head (comment lines and header, each ending in a newline)
    and the float64 columns, of one length, that its rows print left to right.
    A text file is a head without columns."""

    head: str
    columns: tuple[np.ndarray, ...] = ()

    @property
    def rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0


def _csv(header: list[str], arrays: list[np.ndarray], comments=()) -> Csv:
    """The :class:`Csv` of the rows of ``np.column_stack(arrays)``; each (n, k)
    array gives its k columns as views."""
    columns = []
    for array in arrays:
        array = np.asarray(array, dtype=np.float64)
        columns.extend(array.T if array.ndim == 2 else [array])
    return Csv("".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n",
               tuple(columns))


def _key(column: np.ndarray) -> tuple:
    """Equal for two views of the same memory, which print the same cells."""
    return column.__array_interface__["data"][0], column.strides, column.shape


def _format_rows(csvs: list[Csv], lo: int, hi: int) -> list[str]:
    """The lines of rows lo..hi of each CSV, each line ending in a newline. A
    column array that several CSVs print is formatted once."""
    cells = {}
    for column in (c for csv in csvs for c in csv.columns):
        if _key(column) not in cells:
            keys, inverse = np.unique(column[lo:hi].view(np.int64), return_inverse=True)
            texts = list(map(repr, keys.view(np.float64).tolist()))
            cells[_key(column)] = [texts[i] for i in inverse.tolist()]
    blocks = []
    for csv in csvs:
        block = "\n".join(map(",".join, zip(*(cells[_key(c)] for c in csv.columns))))
        blocks.append(block + "\n" if block else "")
    return blocks


def _write_blocks(csvs: list[Csv], handles: list, starts: list[int],
                  tokens: int | None = None) -> int:
    """Rows start..start + ``_BLOCK_ROWS`` of each CSV, for each start in turn, to
    its binary handle, each block after one byte read from the pipe ``tokens``
    when given; the number of blocks written."""
    for count, lo in enumerate(starts):
        if tokens is not None and not os.read(tokens, 1):
            return count
        for handle, text in zip(handles, _format_rows(csvs, lo, lo + _BLOCK_ROWS)):
            handle.write(text.encode())
    return len(starts)


def _csv_text(csv: Csv) -> str:
    return csv.head + "".join(_format_rows([csv], lo, lo + _BLOCK_ROWS)[0]
                              for lo in range(0, csv.rows, _BLOCK_ROWS))


def _fork_writer(csvs: list[Csv], temps: list[str], parts: list[str],
                 starts: list[int]) -> tuple[int, int, np.ndarray] | None:
    """(pid, pipe, byte counts) of a child that takes blocks from the back of
    ``starts``, or None when there is no child. The pipe holds one byte per
    block and has no writer: each process reads a byte before it takes a
    block, until the pipe reads empty. The child writes its blocks, last
    first, to the ``parts`` files and each block's byte counts to its row of
    a shared map, and exits 0, or 1 on any error. It is forked only on
    Linux, with two usable CPUs or more, no thread alive but the caller's
    (``numdiff.rowmap`` leaves none), and a pipe that holds a byte for every
    block. A child whose parent has died removes the ``temps`` and ``parts``
    files before its next block and exits."""
    if not (sys.platform == "linux" and numdiff._usable_cpus() >= 2
            and threading.active_count() == 1):
        return None
    tokens, fill = os.pipe()
    os.set_blocking(fill, False)
    try:
        full = os.write(fill, bytes(len(starts))) == len(starts)
    except BlockingIOError:
        full = False
    os.close(fill)
    pid, parent = None, os.getpid()
    sizes = np.frombuffer(mmap.mmap(-1, 8 * len(starts) * len(csvs)), np.int64)
    sizes = sizes.reshape(len(starts), len(csvs))
    if full:
        with suppress(OSError):
            pid = os.fork()
    if pid is None:
        os.close(tokens)
        return None
    if pid:
        return pid, tokens, sizes
    status = 1
    try:  # the child never returns: the parent's stack and handles are not its own
        with ExitStack() as stack:
            handles = [stack.enter_context(open(part, "xb")) for part in parts]
            for block in reversed(range(len(starts))):
                if os.getppid() != parent or not os.read(tokens, 1):
                    break
                texts = _format_rows(csvs, starts[block], starts[block] + _BLOCK_ROWS)
                for k, (handle, text) in enumerate(zip(handles, texts)):
                    sizes[block, k] = handle.write(text.encode())
        status = int(os.getppid() != parent)
    finally:
        if os.getppid() != parent:
            for path in temps + parts:
                with suppress(OSError):
                    os.unlink(path)
        os._exit(status)


def _append_parts(handles: list, parts: list[str], sizes: np.ndarray) -> None:
    """Append to each handle its part file, whose blocks were written last block
    first with the byte counts ``sizes`` (a row per block, a column per part),
    in row order."""
    for handle, part, counts in zip(handles, parts, sizes.T):
        offsets = counts[::-1].cumsum()[::-1] - counts
        with open(part, "rb") as source:
            for offset, count in zip(offsets.tolist(), counts.tolist()):
                handle.write(os.pread(source.fileno(), count, offset))


def write_files(directory: str, files: dict[str, Csv | str]) -> None:
    """Write ``files`` (name: a :class:`Csv` or a text) in ``directory``, made if
    missing, through a temp file each (with the mode ``open(path, "w")`` gives);
    all are renamed into place after the last block, and on an error the temp
    files are removed and existing files are left as they were.

    Each block of rows is formatted for every CSV at once. For two blocks or
    more, when :func:`_fork_writer` forks, this process takes blocks from the
    front and its child from the back, one at a time, until every block is
    taken, so the faster of the two writes more of them; the child writes
    into part files beside the temp files, and this process then appends the
    parts of a child that exited 0. In every other case, a failed child
    included, this process writes the blocks, so an error is raised as by the
    inline writer. The child is reaped, and killed first when this process is
    interrupted, before the call ends. When this process is killed, so that
    no ``finally`` runs, the child stops before its next block and removes
    the temp and part files.
    """
    os.makedirs(directory, exist_ok=True)
    csvs = [f if isinstance(f, Csv) else Csv(f) for f in files.values()]
    temps = [os.path.join(directory, f".tmp-{os.urandom(8).hex()}") for _ in files]
    parts = [f"{tmp}.part" for tmp in temps]
    starts = list(range(0, max((csv.rows for csv in csvs), default=0), _BLOCK_ROWS))
    pid = tokens = None
    try:
        with ExitStack() as stack:
            handles = [stack.enter_context(open(tmp, "xb")) for tmp in temps]
            for handle, csv in zip(handles, csvs):
                handle.write(csv.head.encode())
                handle.flush()  # a forked child inherits no unwritten bytes
            if len(starts) >= 2:
                pid, tokens, sizes = _fork_writer(csvs, temps, parts, starts) or (None,) * 3
            done = _write_blocks(csvs, handles, starts, tokens)
            if pid:
                status = os.waitpid(pid, 0)[1]
                pid = None
                if os.waitstatus_to_exitcode(status) != 0:
                    _write_blocks(csvs, handles, starts[done:])
                else:
                    _append_parts(handles, parts, sizes[done:])
        for tmp, name in zip(temps, files):
            os.replace(tmp, os.path.join(directory, name))
    finally:
        if tokens is not None:
            os.close(tokens)
        if pid:
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for path in temps + parts:
            if os.path.exists(path):
                os.unlink(path)


def atomic_write_text(path: str, text: str) -> None:
    """Write-temp-rename so partially written files are never observed."""
    path = os.path.abspath(path)
    write_files(os.path.dirname(path), {os.path.basename(path): text})


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


def _curve_arrays(curve: SampledCurve) -> list[np.ndarray]:
    if curve.frames is None:
        raise SpecificationError("CSV export requires a curve with frames")
    f = curve.frames
    return [curve.grid, curve.positions, f.T, f.N, f.B, f.kappa, f.tau]


def sampled_curve_csv(curve: SampledCurve) -> Csv:
    return _csv(_CURVE_COLUMNS, _curve_arrays(curve))


def sampled_curve_to_csv(curve: SampledCurve) -> str:
    return _csv_text(sampled_curve_csv(curve))


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


def lambda_csv(sol: LambdaSolution) -> Csv:
    constants = " ".join(f"{k}={float(v)!r}" for k, v in sorted(sol.constants.items()))
    comments = [f"provenance={sol.provenance}" + (f" {constants}" if constants else "")]
    arrays = [sol.grid, sol.lam, sol.lam_prime, sol.lam_double_prime]
    return _csv(_LAMBDA_COLUMNS, arrays, comments)


def lambda_to_csv(sol: LambdaSolution) -> str:
    return _csv_text(lambda_csv(sol))


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


def mate_csv(pred: PredictedMate) -> Csv:
    """Each row is the base CSV's row for the same grid point, then the mate columns."""
    arrays = _curve_arrays(pred.base) + [pred.lam.lam, pred.mate.positions, pred.T_star,
                                         pred.N_star, pred.B_star, pred.kappa_star,
                                         pred.tau_star]
    comments = [f"family={pred.family.code} classification={pred.classification}"]
    return _csv(_MATE_COLUMNS, arrays, comments)


def mate_to_csv(pred: PredictedMate) -> str:
    return _csv_text(mate_csv(pred))


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
