"""Finite-difference stencils on uniform grids, row kernels for (n, 3) arrays,
and the row-block executor.

All interior stencils are central and second order; boundary rows use
one-sided second-order stencils so every returned array matches the input
length. ``diff1_o4`` is the fourth-order first derivative of
``solvers.offset_residual``, whose residuals must stay well below solver
tolerances; that rule trims its second-order edge rows. ``norm3`` and
``cross3`` are the row norm and row cross product of (n, 3) arrays.

``rowmap`` runs a row-local computation in blocks of ``_BLOCK_ROWS`` rows on
the usable CPUs, into arrays sized by a 7-row probe, with one call's bits;
each call starts its own threads, which end before it returns.
"""
from __future__ import annotations

import contextvars
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError

# Rows per rowmap block; a grid of at most this many rows runs in one call.
_BLOCK_ROWS = 2**15
# diff3, the widest stencil, needs 7 rows: a shorter tail joins the block before it.
_MIN_BLOCK_ROWS = 7


def uniform_spacing(grid: np.ndarray) -> float:
    """Return the spacing of a uniform grid, validating uniformity and a step
    whose cube is a normal float."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise InsufficientDataError("grid needs at least 2 points")
    steps = np.diff(grid)
    h = float(steps[0])
    if h <= 0 or not np.allclose(steps, h, rtol=1e-8, atol=0.0):
        raise InsufficientDataError("grid must be uniform and increasing")
    if h ** 3 < np.finfo(float).tiny:  # diff3 divides by h**3
        raise InsufficientDataError(f"grid step h={h!r} is too small for the stencils")
    return h


def same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two grids have the same shape and agree to 1e-12 absolute; a grid
    is the same as itself without a comparison."""
    return a is b or a.shape == b.shape and bool(np.allclose(a, b, rtol=0.0, atol=1e-12))


def norm3(v: np.ndarray) -> np.ndarray:
    """Row norms of an (n, 3) array, bit for bit ``np.linalg.norm(v, axis=-1)``.

    The same squares summed in the same order, from the three columns,
    without numpy's generic reduction.
    """
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    return np.sqrt(x * x + y * y + z * z)


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row cross products of (n, 3) arrays, bit for bit ``np.cross(a, b)``."""
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    out = np.empty((a.shape[0], 3))
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    return out


def diff1(y: np.ndarray, h: float) -> np.ndarray:
    """First derivative, central O(h^2), one-sided O(h^2) at the ends."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 3:
        raise InsufficientDataError("first derivative needs at least 3 samples")
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return d


def diff2(y: np.ndarray, h: float) -> np.ndarray:
    """Second derivative, central O(h^2), one-sided O(h^2) at the ends."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 4:
        raise InsufficientDataError("second derivative needs at least 4 samples")
    d = np.empty_like(y)
    h2 = h * h
    d[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h2
    d[0] = (2.0 * y[0] - 5.0 * y[1] + 4.0 * y[2] - y[3]) / h2
    d[-1] = (2.0 * y[-1] - 5.0 * y[-2] + 4.0 * y[-3] - y[-4]) / h2
    return d


def diff3(y: np.ndarray, h: float) -> np.ndarray:
    """Third derivative, central O(h^2); needs 7 samples for the edge rows."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 7:
        raise InsufficientDataError("third derivative needs at least 7 samples")
    d = np.empty_like(y)
    h3 = h ** 3
    d[2:-2] = (y[4:] - 2.0 * y[3:-1] + 2.0 * y[1:-3] - y[:-4]) / (2.0 * h3)
    d[0] = (-5.0 * y[0] + 18.0 * y[1] - 24.0 * y[2] + 14.0 * y[3] - 3.0 * y[4]) / (2.0 * h3)
    d[1] = (-3.0 * y[0] + 10.0 * y[1] - 12.0 * y[2] + 6.0 * y[3] - y[4]) / (2.0 * h3)
    d[-2] = (3.0 * y[-1] - 10.0 * y[-2] + 12.0 * y[-3] - 6.0 * y[-4] + y[-5]) / (2.0 * h3)
    d[-1] = (5.0 * y[-1] - 18.0 * y[-2] + 24.0 * y[-3] - 14.0 * y[-4] + 3.0 * y[-5]) / (2.0 * h3)
    return d


def diff1_o4(y: np.ndarray, h: float) -> np.ndarray:
    """First derivative, central O(h^4) in the interior.

    The two rows at each end fall back to the O(h^2) stencils.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 5:
        raise InsufficientDataError("fourth-order derivative needs at least 5 samples")
    d = diff1(y, h)
    d[2:-2] = (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * h)
    return d


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled ``y`` by composite Simpson.

    Even indices follow the classical composite rule; odd indices integrate
    the local quadratic over its final subinterval, keeping every cumulative
    value O(h^4).
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 3:
        raise InsufficientDataError("Simpson quadrature needs at least 3 samples")
    out = np.zeros(n, dtype=float)
    pair = (h / 3.0) * (y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[2::2] = np.cumsum(pair)
    # Half-interval from the parabola through (k-1, k, k+1) where available.
    out[1] = out[0] + (h / 12.0) * (5.0 * y[0] + 8.0 * y[1] - y[2])
    if n > 3:
        out[3::2] = out[2:-1:2] + (h / 12.0) * (
            -y[1:-2:2] + 8.0 * y[2:-1:2] + 5.0 * y[3::2]
        )
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blocks(n: int) -> list[tuple[int, int]]:
    """Rows 0..n in blocks of ``_BLOCK_ROWS``; a tail shorter than
    ``_MIN_BLOCK_ROWS`` joins the block before it."""
    starts = list(range(0, n, _BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] < _MIN_BLOCK_ROWS:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _run_block(fn, n, halo, a, b, err, outs):
    lo, hi = max(a - halo, 0), min(b + halo, n)
    # numpy 2 keeps errstate in the copied context; numpy 1 keeps it per thread.
    with np.errstate(**err):
        parts = fn(lo, hi)
    for out, part in zip(outs, parts):
        out[a:b] = part[a - lo:b - lo]


def rowmap(
    fn: Callable[[int, int], Sequence[np.ndarray]], n: int, halo: int = 0
) -> tuple[np.ndarray, ...]:
    """The arrays of ``fn(0, n)``, computed in blocks of rows on the usable CPUs.

    ``fn(lo, hi)`` returns arrays whose first axis holds rows ``lo..hi``, and
    each of its rows may depend on the rows within ``halo`` of it. Rows
    ``0..n`` go in the blocks of :func:`_blocks`, each with ``halo`` extra
    rows on each side (fewer at the grid's ends), trimmed before the block's
    own thread writes its rows into arrays of n rows: the result has the bits
    of ``fn(0, n)`` for any row-local ``fn``. The caller makes those arrays
    with ``np.empty``, from the shapes and dtypes of a probe ``fn(0, 7)`` that
    it runs as a block would and discards (its last rows are one-sided):
    glibc keeps memory in the arena of the thread that allocated it, and
    arrays made by a worker raised ``oracle-large``'s peak RSS from 201 to
    283 MB. Blocks run on threads started by this call, one per usable CPU at
    most, each in a copy of the caller's ``contextvars`` context and
    ``np.errstate``; the call returns once they have ended and left Linux's
    /proc task list, so none outlives it. With one block or one usable CPU,
    ``fn(0, n)`` runs inline and no thread is started; a rowmap inside a
    block or the probe starts threads of its own. A failing probe raises
    before any block is submitted; else, once every block has stopped, the
    first failing block in row order does.
    """
    blocks = _blocks(n)
    if len(blocks) < 2 or _usable_cpus() < 2:
        return tuple(fn(0, n))
    outs = tuple(np.empty((n,) + part.shape[1:], part.dtype) for part in fn(0, _MIN_BLOCK_ROWS))
    err, ids = np.geterr(), []
    with ThreadPoolExecutor(_usable_cpus(),
                            initializer=lambda: ids.append(threading.get_native_id())) as pool:
        futures = [pool.submit(contextvars.copy_context().run, _run_block, fn, n, halo, a, b,
                               err, outs) for a, b in blocks]
    # A joined thread can stay in Linux's /proc task list for a moment (in 36 of
    # 200 shutdowns of two workers), where Python 3.12's fork check counts it.
    tasks = [f"/proc/self/task/{i}" for i in ids]
    deadline = time.monotonic() + 0.1
    while any(map(os.path.exists, tasks)) and time.monotonic() < deadline:
        time.sleep(1e-4)
    for future in futures:
        future.result()
    return outs
