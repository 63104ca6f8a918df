import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from curvemates import (
    FAMILIES,
    AssociationSpec,
    CurveSpec,
    associate,
    numdiff,
    reparametrize_arclength,
    sample_curve,
    verify_mate,
)
from curvemates.errors import CurvatureDegenerateError, InsufficientDataError
from curvemates.geometry import frenet_frames_sampled
from curvemates.io import report_to_json
from curvemates.numdiff import cross3, norm3

from conftest import cli_default_inputs

INF, NAN = np.inf, np.nan


def _random_rows(rng):
    return rng.standard_normal((1000, 3)) * 10.0 ** rng.integers(-8, 9, (1000, 1))


def _special_rows(rng):
    values = np.array([0.0, -0.0, 1.0, -2.5, INF, -INF, NAN])
    return rng.choice(values, (500, 3))


def _subnormal_rows(rng):
    return rng.uniform(-1.0, 1.0, (500, 3)) * 1e-310


def _overflow_rows(rng):
    # Squares and products near 1e320 overflow to inf in both versions.
    return rng.uniform(-1.0, 1.0, (500, 3)) * 1e160


def _strided_rows(rng):
    return rng.standard_normal((500, 6))[:, ::2]


ROWS = [_random_rows, _special_rows, _subnormal_rows, _overflow_rows, _strided_rows]


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", ROWS, ids=lambda f: f.__name__.strip("_"))
def test_row_kernels_bit_identical_to_numpy(rows):
    rng = np.random.default_rng(7)
    a, b = rows(rng), rows(rng)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert _same_bits(norm3(a), np.linalg.norm(a, axis=-1))
        assert _same_bits(cross3(a, b), np.cross(a, b))


@pytest.mark.parametrize("call, message", [
    (lambda: numdiff.uniform_spacing(np.zeros(1)), "grid needs at least 2 points"),
    (lambda: numdiff.diff2(np.zeros(3), 0.1), "second derivative needs at least 4 samples"),
    (lambda: numdiff.diff3(np.zeros(6), 0.1), "third derivative needs at least 7 samples"),
    (lambda: numdiff.diff1_o4(np.zeros(4), 0.1),
     "fourth-order derivative needs at least 5 samples"),
    (lambda: numdiff.cumulative_simpson(np.zeros(2), 0.1),
     "Simpson quadrature needs at least 3 samples"),
], ids=["spacing of 1 point", "diff2 of 3", "diff3 of 6", "diff1_o4 of 4", "Simpson of 2"])
def test_too_few_samples(call, message):
    with pytest.raises(InsufficientDataError) as err:
        call()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# rowmap: blocks of rows on the usable CPUs, with the bits of one block


BLOCK = numdiff._BLOCK_ROWS
# One block; a tail of one and of three rows, which join the block before
# them (diff3 needs 7); two blocks, the second with a 5-row tail.
BOUNDARY_SIZES = [BLOCK, BLOCK + 1, BLOCK + 3, 2 * BLOCK + 5]
S2 = 1.0 / math.sqrt(2.0)


def _one_block(monkeypatch, call):
    """``call()`` with every rowmap in one block: the whole-array path."""
    with monkeypatch.context() as m:
        m.setattr(numdiff, "_BLOCK_ROWS", 2**62)
        return call()


def _assert_same_fields(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert _same_bits(a, b), field.name
        elif dataclasses.is_dataclass(b):
            _assert_same_fields(a, b)
        else:
            assert a == b, field.name


def test_blocks_partition_rows():
    assert numdiff._blocks(BLOCK) == [(0, BLOCK)]
    assert numdiff._blocks(BLOCK + 6) == [(0, BLOCK + 6)]
    assert numdiff._blocks(BLOCK + 7) == [(0, BLOCK), (BLOCK, BLOCK + 7)]
    assert numdiff._blocks(2 * BLOCK + 5) == [(0, BLOCK), (BLOCK, 2 * BLOCK + 5)]
    assert numdiff._blocks(3) == [(0, 3)]


@pytest.mark.parametrize("n", [BLOCK + 7, 3 * BLOCK])
@pytest.mark.parametrize("halo", [0, 3])
def test_rowmap_trims_halo_rows(n, halo):
    calls = []

    def fn(lo, hi):
        calls.append((lo, hi))
        rows = np.arange(lo, hi)
        return rows, np.stack([rows, -rows], axis=-1), rows % 2 == 0

    rows, pairs, even = numdiff.rowmap(fn, n, halo)
    want = np.arange(n)
    assert _same_bits(rows, want) and _same_bits(even, want % 2 == 0)
    assert _same_bits(pairs, np.stack([want, -want], axis=-1))
    if numdiff._usable_cpus() > 1:
        # The 7-row probe that sizes the result, then the blocks in any order.
        assert calls[:1] + sorted(calls[1:]) == [(0, 7)] + [
            (max(a - halo, 0), min(b + halo, n)) for a, b in numdiff._blocks(n)]
    else:
        assert calls == [(0, n)]


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
@pytest.mark.parametrize("spec", [CurveSpec.circle(1.0), CurveSpec.helix(S2, S2)],
                         ids=["circle", "helix"])
def test_rowmap_sample_curve_bits(monkeypatch, spec, n):
    grid = np.linspace(0.0, 3.0, n)
    got = sample_curve(spec, grid)
    want = _one_block(monkeypatch, lambda: sample_curve(spec, grid))
    _assert_same_fields(got, want)


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_rowmap_oracle_frames_bits(monkeypatch, n):
    mate = associate(*cli_default_inputs("TP", n)).mate
    got = frenet_frames_sampled(mate.grid, mate.positions, strict=False)
    want = _one_block(monkeypatch,
                      lambda: frenet_frames_sampled(mate.grid, mate.positions, strict=False))
    _assert_same_fields(got, want)


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_rowmap_reparametrize_bits(monkeypatch, n):
    t = np.linspace(0.0, 5.0, 400)
    curve = CurveSpec.from_samples(np.column_stack(
        [t, np.cos(t), np.sin(t) + 0.05 * np.sin(3.0 * t), 0.6 * t]))
    got = reparametrize_arclength(curve, (0.0, 5.0), n)
    want = _one_block(monkeypatch, lambda: reparametrize_arclength(curve, (0.0, 5.0), n))
    _assert_same_fields(got, want)


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
@pytest.mark.parametrize("code", list(FAMILIES))
def test_rowmap_associate_and_report_bits(monkeypatch, code, n):
    base, spec, sol = cli_default_inputs(code, n)

    def run():
        pred = associate(base, spec, sol)
        return pred, report_to_json(verify_mate(pred))

    (got, got_report), (want, want_report) = run(), _one_block(monkeypatch, run)
    _assert_same_fields(got, want)
    assert got_report == want_report


def _straight_after(n, row):
    """(s, x, y, z) rows of a plane curve that is straight from ``row`` on."""
    grid = np.linspace(0.0, 3.0, n)
    c = grid[row]
    return grid, np.column_stack(
        [grid, np.where(grid < c, (c - grid) ** 3, 0.0), np.zeros(n)])


def test_rowmap_strict_frames_raise_in_a_later_block(monkeypatch):
    n = 2 * BLOCK + 5
    grid, positions = _straight_after(n, BLOCK + 100)

    def message():
        with pytest.raises(CurvatureDegenerateError) as info:
            frenet_frames_sampled(grid, positions)
        return str(info.value)

    got, want = message(), _one_block(monkeypatch, message)
    assert got == want
    # Row BLOCK + 101 is the first whose second-difference stencil is straight.
    assert got.endswith(f" at s={grid[BLOCK + 101]}")


def _divide_in_last_block(lo, hi):
    rows = np.arange(lo, hi, dtype=float)
    return (1.0 / np.where(rows == 2 * BLOCK + 1, 0.0, rows + 1.0),)


def test_rowmap_errstate_raise_reaches_the_blocks():
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            numdiff.rowmap(_divide_in_last_block, 3 * BLOCK)


def test_rowmap_errstate_ignore_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="ignore"):
            out, = numdiff.rowmap(_divide_in_last_block, 3 * BLOCK)
    assert np.isinf(out[2 * BLOCK + 1]) and np.isfinite(np.delete(out, 2 * BLOCK + 1)).all()
    with pytest.warns(RuntimeWarning, match="divide"):
        with np.errstate(divide="warn"):
            numdiff.rowmap(_divide_in_last_block, 3 * BLOCK)


def test_rowmap_raises_the_first_failing_block_in_row_order():
    def fn(lo, hi):
        if hi > BLOCK:
            if lo == BLOCK:
                time.sleep(0.05)  # so that the third block fails first
            raise ValueError(f"rows from {max(lo, BLOCK)}")
        return (np.zeros(hi - lo),)

    with pytest.raises(ValueError, match=f"rows from {BLOCK}$"):
        numdiff.rowmap(fn, 3 * BLOCK)


def test_rowmap_all_blocks_raise_and_the_pool_serves_the_next_call():
    # The probe passes and every block fails; the first failure in row order
    # propagates, and the next call must still run its blocks, not hang.
    def fail(lo, hi):
        if hi == 7:  # the probe
            return (np.zeros(hi - lo),)
        if lo == 0:
            time.sleep(0.05)  # so that later blocks fail first
        raise ValueError(f"rows from {lo}")

    outcome = {}

    def calls():
        try:
            numdiff.rowmap(fail, 3 * BLOCK)
        except ValueError as error:
            outcome["error"] = str(error)
        outcome["rows"] = numdiff.rowmap(lambda lo, hi: (np.arange(lo, hi),), 3 * BLOCK)[0]

    caller = threading.Thread(target=calls, daemon=True)
    caller.start()
    caller.join(timeout=10)
    assert not caller.is_alive()
    assert outcome["error"] == "rows from 0"
    assert _same_bits(outcome["rows"], np.arange(3 * BLOCK))


def test_rowmap_inside_a_block_runs_inline():
    # Each call owns its threads, so a 2-block rowmap inside the probe and
    # both blocks of another starts its own and returns fn(0, n)'s bits.
    def inner(lo, hi):
        return (np.arange(lo, hi, dtype=float),)

    def outer(lo, hi):
        return (numdiff.rowmap(inner, 2 * BLOCK)[0][lo:hi] * 3.0,)

    assert _same_bits(numdiff.rowmap(outer, 2 * BLOCK)[0], np.arange(2 * BLOCK) * 3.0)


def test_rowmap_failing_probe_raises_before_any_block():
    calls = []

    def fn(lo, hi):
        calls.append((lo, hi))
        if lo < 7:
            raise ValueError(f"rows {lo}..{hi}")
        return (np.zeros(hi - lo),)

    # On one CPU the one call is the inline fn(0, n).
    first = (0, 7) if numdiff._usable_cpus() > 1 else (0, 3 * BLOCK)
    with pytest.raises(ValueError) as err:
        numdiff.rowmap(fn, 3 * BLOCK)
    assert str(err.value) == "rows {}..{}".format(*first)
    assert calls == [first]


def test_rowmap_concurrent_callers_get_their_own_rows():
    # Four callers, more than the CPUs here, each start their own threads at
    # once; each must get its own rows back, bit for bit.
    n, results = 3 * BLOCK, {}

    def call(k):
        results[k] = numdiff.rowmap(lambda lo, hi: (np.arange(lo, hi) * k,), n)[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(1, 5)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    assert all(_same_bits(results[k], np.arange(n) * k) for k in range(1, 5))


def _run_script(script):
    """stdout of ``script`` in a fresh interpreter that imports this checkout's src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_rowmap_runs_in_a_forked_child():
    # The child starts its own threads. An alarm ends a child whose blocks
    # would wait forever.
    out = _run_script("""
import os, signal
import numpy as np
from curvemates import numdiff
n = 3 * numdiff._BLOCK_ROWS
fn = lambda lo, hi: (np.arange(lo, hi),)
numdiff.rowmap(fn, n)
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    os._exit(0 if np.array_equal(numdiff.rowmap(fn, n)[0], np.arange(n)) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
""")
    assert out.split() == ["0"]


@pytest.mark.skipif(sys.platform != "linux" or numdiff._usable_cpus() < 2,
                    reason="rowmap starts threads only on two CPUs or more; /proc is Linux's")
def test_no_thread_outlives_a_rowmap_call():
    # Right after a 3-block rowmap the caller is the only thread, in threading
    # and in the kernel's count that the parent reads right after a fork
    # (field 20 of /proc/self/stat, which Python 3.12's fork warning reads).
    out = _run_script("""
import os, threading
import numpy as np
from curvemates import numdiff
for _ in range(20):
    numdiff.rowmap(lambda lo, hi: (np.arange(lo, hi),), 3 * numdiff._BLOCK_ROWS)
    alive = threading.active_count()
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    with open("/proc/self/stat") as stat:
        tasks = stat.read().rsplit(")", 1)[1].split()[17]
    os.waitpid(pid, 0)
    print(alive, tasks)
""")
    assert out.split() == ["1"] * 40


def test_rowmap_small_grids_start_no_thread():
    # Grids of one block (every workload but the 200 001-point one) run
    # inline: no thread is started.
    script = """
import argparse, math, threading
import numpy as np
from curvemates import AssociationSpec, CurveSpec, associate, sample_curve, verify_mate
from curvemates.cli import _solve_family_lambda
started, start = [], threading.Thread.start
threading.Thread.start = lambda thread: (started.append(thread), start(thread))[1]
s2 = 1.0 / math.sqrt(2.0)
curve = CurveSpec.helix(s2, s2)
base = sample_curve(curve, np.linspace(0.0, 3.0, 2001))
spec = AssociationSpec("B", "R", (1.0, 1.0))
args = argparse.Namespace(c0=None, c1=None, c2=None, lambda0=None, lambda0_prime=None)
report = verify_mate(associate(base, spec, _solve_family_lambda(spec, curve, base, args)))
print(report.verdict, threading.active_count(), len(started))
"""
    assert _run_script(script).split()[1:] == ["1", "0"]
