import argparse
import math

import numpy as np
import pytest

from curvemates import AssociationSpec, CurveSpec, sample_curve
from curvemates.cli import _solve_family_lambda
from curvemates.numdiff import diff1
from curvemates.verify import _frame_angles

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="session")
def unit_helix_spec():
    """The unit-speed helix with kappa = tau = 1/sqrt(2)."""
    return CurveSpec.helix(INV_SQRT2, INV_SQRT2)


@pytest.fixture(scope="session")
def grid_0_2():
    return np.linspace(0.0, 2.0, 2001)


@pytest.fixture(scope="session")
def helix_base(unit_helix_spec, grid_0_2):
    return sample_curve(unit_helix_spec, grid_0_2)


@pytest.fixture(scope="session")
def circle_base(grid_0_2):
    return sample_curve(CurveSpec.circle(1.0), grid_0_2)


def cli_default_inputs(code, n):
    """(base, spec, lambda solution) of family ``code`` on [0, 3] with n rows and
    the CLI's default coefficients and solve: TO on the unit circle, every
    other family on the helix a = b = 1/sqrt(2)."""
    curve = CurveSpec.circle(1.0) if code == "TO" else CurveSpec.helix(INV_SQRT2, INV_SQRT2)
    base = sample_curve(curve, np.linspace(0.0, 3.0, n))
    spec = AssociationSpec(code[0], code[1], (1.0, 1.0))
    args = argparse.Namespace(c0=None, c1=None, c2=None, lambda0=None, lambda0_prime=None)
    return base, spec, _solve_family_lambda(spec, curve, base, args)


def rotation_matrix(axis, angle):
    """Rodrigues rotation; used to generate arbitrary orthonormal frames."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def linear_equation(kappa, ratio):
    """1 + lambda' - ratio lambda kappa, the tangent-offset linear ODE, as an
    order-1 ``offset_residual`` equation."""
    return lambda lam, lam_p, _: 1.0 + lam_p - ratio * lam * kappa


def helix_equation(a, b, kappa, tau):
    """lambda'' - (a/b)^2 ((lambda kappa - 1) kappa + lambda tau^2), the
    normal-offset helix ODE, as an order-2 ``offset_residual`` equation."""
    return lambda lam, _, lam_pp: lam_pp - (a / b) ** 2 * (
        (lam * kappa - 1.0) * kappa + lam * tau * tau)


def riccati_z(kappa, tau, tau_prime=0.0):
    """Z = -lambda tau' - 2 lambda' tau + kappa + lambda^2 tau^2 kappa, the
    binormal-offset Riccati equation, as an order-1 ``offset_residual`` equation."""
    return lambda lam, lam_p, _: (-lam * tau_prime - 2.0 * lam_p * tau + kappa
                                  + lam**2 * tau**2 * kappa)


def prime_consistency(sol):
    """Max interior gap between a solution's stored lambda' and central differences."""
    fd = diff1(sol.lam, sol.spacing())
    return float(np.max(np.abs(fd[1:-1] - sol.lam_prime[1:-1])))


def vector_angles(dots):
    """(raw angles, line angles) of unit-vector pairs from their dot products,
    one verify._frame_angles call per pair."""
    line, raw = np.array([_frame_angles(dots[i:i + 1])[:2] for i in range(dots.size)]).T
    return raw, line
