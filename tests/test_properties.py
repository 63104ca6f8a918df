"""Property-based checks of the algebraic kernels and frame invariants."""
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from curvemates import (
    AssociationSpec,
    CurveSpec,
    FrameData,
    classify_special_case,
    construct_mate,
    sample_curve,
)
from curvemates.association import klm_coefficients, xyz_coefficients
from curvemates.geometry import frenet_from_cross
from curvemates.solvers import LambdaSolution, lambda_constant, solve_linear
from conftest import prime_consistency, rotation_matrix, vector_angles

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
angle = st.floats(min_value=0.0, max_value=2.0 * math.pi)
positive = st.floats(min_value=0.05, max_value=3.0)


def random_frame(axis_angle, spin, kappa=1.0, tau=0.5):
    """One-point FrameData whose T, N, B are the columns of a random rotation."""
    R = rotation_matrix([math.cos(axis_angle), math.sin(axis_angle), 0.7], spin)
    one = np.ones(1)
    return FrameData(T=R[None, :, 0], N=R[None, :, 1], B=R[None, :, 2],
                     kappa=kappa * one, tau=tau * one, kappa_prime=0 * one,
                     tau_prime=0 * one, speed=one, kappa_second=0 * one,
                     tau_second=0 * one)


@given(lam=finite, lam_p=finite, lam_pp=finite, kappa=positive, tau=finite,
       kappa_p=finite, tau_p=finite)
@settings(max_examples=200, deadline=None)
def test_klm_equals_cross_product(lam, lam_p, lam_pp, kappa, tau, kappa_p, tau_p):
    # The coefficient triple is by construction the cross product of the
    # first- and second-derivative component vectors of the normal offset.
    u = np.array([1.0 - lam * kappa, lam_p, lam * tau])
    v = np.array([-lam * kappa_p - 2.0 * lam_p * kappa,
                  (1.0 - lam * kappa) * kappa - lam * tau**2 + lam_pp,
                  lam * tau_p + 2.0 * lam_p * tau])
    K, L, M = klm_coefficients(lam, lam_p, lam_pp, kappa, tau, kappa_p, tau_p)
    np.testing.assert_allclose([K, L, M], np.cross(u, v), rtol=1e-10, atol=1e-10)


@given(lam=finite, lam_p=finite, lam_pp=finite, kappa=positive, tau=finite,
       kappa_p=finite, tau_p=finite)
@settings(max_examples=200, deadline=None)
def test_xyz_equals_cross_product(lam, lam_p, lam_pp, kappa, tau, kappa_p, tau_p):
    u = np.array([1.0, -lam * tau, lam_p])
    v = np.array([lam * tau * kappa,
                  kappa - lam * tau_p - 2.0 * lam_p * tau,
                  lam_pp - lam * tau**2])
    X, Y, Z = xyz_coefficients(lam, lam_p, lam_pp, kappa, tau, kappa_p, tau_p)
    np.testing.assert_allclose([X, Y, Z], np.cross(u, v), rtol=1e-10, atol=1e-10)


@given(values=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=9, max_size=9),
       vector=st.sampled_from(["T", "N", "B"]))
@settings(max_examples=60, deadline=None)
def test_construct_mate_distance_identity(values, vector):
    grid = np.linspace(0.0, 1.0, 9)
    base = sample_curve(CurveSpec.helix(1 / math.sqrt(2), 1 / math.sqrt(2)), grid)
    lam = np.asarray(values)
    sol = LambdaSolution(grid=grid, lam=lam, lam_prime=np.zeros(9),
                         lam_double_prime=np.zeros(9), provenance="constant")
    mate = construct_mate(base, vector, sol)
    dist = np.linalg.norm(mate.positions - base.positions, axis=1)
    np.testing.assert_allclose(dist, np.abs(lam), atol=1e-12)


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_classification_scale_invariant(scale):
    grid = np.linspace(0.0, 1.0, 9)
    const = lambda_constant(0.4, grid)
    base_spec = AssociationSpec("N", "O", (0.0, 1.0))
    scaled = AssociationSpec("N", "O", (0.0, scale))
    assert classify_special_case(base_spec, const) == classify_special_case(scaled, const)
    generic = AssociationSpec("B", "R", (1.0 * scale, 1.0 * scale))
    assert classify_special_case(generic, const) == "generic"


@given(axis_angle=angle, spin=angle, axis_angle2=angle, spin2=angle)
@settings(max_examples=100, deadline=None)
def test_compare_frames_symmetric_and_zero_on_identity(axis_angle, spin, axis_angle2, spin2):
    f1 = random_frame(axis_angle, spin)
    f2 = random_frame(axis_angle2, spin2)
    a = np.concatenate([f1.T, f1.N, f1.B])
    b = np.concatenate([f2.T, f2.N, f2.B])
    forward = vector_angles(np.einsum("ij,ij->i", a, b))
    backward = vector_angles(np.einsum("ij,ij->i", b, a))
    np.testing.assert_allclose(forward, backward, atol=1e-12)
    # arccos turns ulp-level dot noise into ~sqrt(eps) angles.
    np.testing.assert_allclose(vector_angles(np.einsum("ij,ij->i", a, a)), 0.0, atol=1e-7)


@given(a=st.floats(min_value=0.1, max_value=2.0), b=st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_helix_frames_orthonormal_and_curvatures(a, b):
    spec = CurveSpec.helix(a, b)
    grid = np.linspace(0.0, 3.0, 41)
    base = sample_curve(spec, grid)
    f = base.frames
    for arr in (f.T, f.N, f.B):
        np.testing.assert_allclose(np.linalg.norm(arr, axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(np.einsum("ij,ij->i", f.T, f.N), 0.0, atol=1e-9)
    np.testing.assert_allclose(np.einsum("ij,ij->i", f.T, f.B), 0.0, atol=1e-9)
    np.testing.assert_allclose(np.cross(f.T, f.N), f.B, atol=1e-9)
    kappa, tau = spec.closed_form_curvatures()
    np.testing.assert_allclose(f.kappa, kappa, rtol=1e-6)
    np.testing.assert_allclose(f.tau, tau, rtol=1e-6, atol=1e-9)


@given(rows=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=27, max_size=27),
       axis_angle=angle, spin=angle, reflect=st.booleans())
@settings(max_examples=200, deadline=None)
def test_frenet_from_cross_is_basis_invariant(rows, axis_angle, spin, reflect):
    # The closed-form mate applies the Frenet rule in base-frame components;
    # that is sound because an orthonormal change of basis Q carries T and B
    # along and leaves kappa and tau alone.
    d1, cross, d3 = np.array(rows).reshape(3, 3, 3)
    assume(np.all(np.linalg.norm(d1, axis=1) > 0.1))
    assume(np.all(np.linalg.norm(cross, axis=1) > 0.1))
    Q = rotation_matrix([math.cos(axis_angle), math.sin(axis_angle), 0.7], spin)
    if reflect:
        Q = Q @ np.diag([1.0, 1.0, -1.0])
    T, B, kappa, tau, speed, cn = frenet_from_cross(d1, cross, d3)
    QT, QB, Qkappa, Qtau, Qspeed, Qcn = frenet_from_cross(d1 @ Q.T, cross @ Q.T, d3 @ Q.T)
    np.testing.assert_allclose(QT, T @ Q.T, atol=1e-13)
    np.testing.assert_allclose(QB, B @ Q.T, atol=1e-13)
    for rotated, original in ((Qkappa, kappa), (Qtau, tau), (Qspeed, speed), (Qcn, cn)):
        np.testing.assert_allclose(rotated, original, rtol=1e-12, atol=1e-12)


@given(kappa0=st.floats(min_value=0.2, max_value=2.0),
       ratio=st.floats(min_value=0.2, max_value=2.0),
       c1=st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_linear_solver_consistency(kappa0, ratio, c1):
    grid = np.linspace(0.0, 1.0, 501)
    sol = solve_linear(np.full_like(grid, kappa0), ratio, c1, grid)
    h = sol.spacing()
    # Central-difference remainder: (h^2/6) max |lambda'''|.
    from curvemates.numdiff import diff1

    third = float(np.max(np.abs(diff1(sol.lam_double_prime, h))))
    # Floor: differencing quadrature-level roundoff wiggles costs ~eps/h.
    noise_floor = 1e-11 * (1.0 + float(np.max(np.abs(sol.lam)))) / h
    assert prime_consistency(sol) < 1.5 * (h * h / 6.0) * third + noise_floor
    # Exact solution of the constant-coefficient equation.
    part = 1.0 / (ratio * kappa0)
    exact = part + (c1 - part) * np.exp(ratio * kappa0 * grid)
    scale = 1.0 + float(np.max(np.abs(exact)))
    np.testing.assert_allclose(sol.lam, exact, atol=1e-9 * scale)
