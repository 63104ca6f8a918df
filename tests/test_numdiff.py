import numpy as np
import pytest

from curvemates.numdiff import cross3, norm3

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
