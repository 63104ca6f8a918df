import argparse
import math

import numpy as np
import pytest

from curvemates import (
    FAMILIES,
    AssociationSpec,
    CurveSpec,
    FrameData,
    associate,
    classify_special_case,
    construct_mate,
    mate_curvatures_closed,
    plane_unit_vector,
    sample_curve,
)
from curvemates.association import (
    klm_coefficients,
    predicted_curvature_arrays,
    predicted_frames_grid,
    xyz_coefficients,
)
from curvemates.cli import _solve_family_lambda
from curvemates.errors import (
    AlignmentError,
    PlanarityError,
    SpecificationError,
)
from curvemates.geometry import frenet_frames_sampled
from curvemates.solvers import (
    LambdaSolution,
    lambda_constant,
    lambda_involute,
    solve_riccati,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def identity_frames(kappa=1.0, tau=0.0):
    """One-point FrameData with the standard basis as T, N, B."""
    one = np.ones(1)
    return FrameData(T=np.array([[1.0, 0, 0]]), N=np.array([[0, 1.0, 0]]),
                     B=np.array([[0, 0, 1.0]]), kappa=kappa * one, tau=tau * one,
                     kappa_prime=0 * one, tau_prime=0 * one, speed=one)


def one_point(lam, lam_p=0.0, lam_pp=0.0):
    """One-point LambdaSolution."""
    return LambdaSolution(grid=[0.0], lam=[lam], lam_prime=[lam_p],
                          lam_double_prime=[lam_pp], provenance="closed-form")


# ---------------------------------------------------------------------------
# AssociationSpec


def test_spec_validation():
    with pytest.raises(SpecificationError):
        AssociationSpec(vector="T", plane="O", coeffs=(0.0, 0.0))
    with pytest.raises(SpecificationError):
        AssociationSpec(vector="T", plane="O", coeffs=(1.0, 0.0))  # b must be nonzero
    with pytest.raises(SpecificationError):
        AssociationSpec(vector="T", plane="R", coeffs=(1.0, 0.0))  # f must be nonzero
    with pytest.raises(SpecificationError):
        AssociationSpec(vector="Q", plane="O", coeffs=(1.0, 1.0))
    with pytest.raises(SpecificationError):
        AssociationSpec(vector="T", plane="X", coeffs=(1.0, 1.0))
    assert AssociationSpec(vector="N", plane="O", coeffs=(0.0, 1.0)).code == "NO"


@pytest.mark.parametrize("code", list(FAMILIES))
@pytest.mark.parametrize("coeffs", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0)])
def test_spec_rejects_nonfinite_coefficients(code, coeffs):
    with pytest.raises(SpecificationError, match="finite"):
        AssociationSpec(code[0], code[1], coeffs)


# ---------------------------------------------------------------------------
# plane_unit_vector


def test_plane_unit_vector_osculating_symmetric():
    v = plane_unit_vector(identity_frames(), AssociationSpec("T", "O", (1.0, 1.0)))
    np.testing.assert_allclose(v, [[INV_SQRT2, INV_SQRT2, 0.0]], atol=1e-15)


def test_plane_unit_vector_normal_plane_example():
    v = plane_unit_vector(identity_frames(), AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2)))
    np.testing.assert_allclose(v, [[0.0, -INV_SQRT2, INV_SQRT2]], atol=1e-15)


def test_plane_unit_vector_degenerate_axis():
    v = plane_unit_vector(identity_frames(), AssociationSpec("N", "R", (1.0, 0.0)))
    np.testing.assert_allclose(v, [[1.0, 0.0, 0.0]], atol=1e-15)


# ---------------------------------------------------------------------------
# construct_mate


def test_construct_mate_zero_offset(helix_base, grid_0_2):
    mate = construct_mate(helix_base, "T", lambda_constant(0.0, grid_0_2))
    np.testing.assert_allclose(mate.positions, helix_base.positions, atol=0)


def test_construct_mate_involute_touches_base(helix_base, grid_0_2):
    mate = construct_mate(helix_base, "T", lambda_involute(1.0, grid_0_2))
    i = np.argmin(np.abs(grid_0_2 - 1.0))
    np.testing.assert_allclose(mate.positions[i], helix_base.positions[i], atol=1e-12)


def test_construct_mate_binormal_translates_circle(circle_base, grid_0_2):
    mate = construct_mate(circle_base, "B", lambda_constant(5.0, grid_0_2))
    np.testing.assert_allclose(mate.positions,
                               circle_base.positions + np.array([0.0, 0.0, 5.0]),
                               atol=1e-12)


def test_construct_mate_grid_mismatch(helix_base):
    other = lambda_constant(1.0, np.linspace(0.0, 2.0, 1999))
    with pytest.raises(AlignmentError):
        construct_mate(helix_base, "T", other)


def test_construct_mate_distance_identity(helix_base, grid_0_2):
    sol = lambda_involute(0.5, grid_0_2)
    mate = construct_mate(helix_base, "N", sol)
    dist = np.linalg.norm(mate.positions - helix_base.positions, axis=1)
    np.testing.assert_allclose(dist, np.abs(sol.lam), atol=1e-12)


# ---------------------------------------------------------------------------
# KLM / XYZ coefficients


def test_klm_constant_offset_constant_curvatures():
    lam = 0.4
    K, L, M = klm_coefficients(lam, 0.0, 0.0, INV_SQRT2, INV_SQRT2, 0.0, 0.0)
    d = (1.0 - lam * INV_SQRT2) * INV_SQRT2 - lam * 0.5
    assert K == pytest.approx(-lam * INV_SQRT2 * d, rel=1e-12)
    assert L == pytest.approx(0.0, abs=1e-15)
    assert M == pytest.approx((1.0 - lam * INV_SQRT2) * d, rel=1e-12)


def test_klm_zero_offset_reduces_to_base():
    out = klm_coefficients(0.0, 0.0, 0.0, 0.8, 0.3, 0.0, 0.0)
    assert out == pytest.approx((0.0, 0.0, 0.8))


def test_klm_matches_finite_difference_cross_product():
    # Oracle: construct the normal-offset mate with lambda(s) = sqrt(2) + (s - s0)
    # and difference its positions directly.
    grid = np.linspace(0.0, 2.0, 4001)
    base = sample_curve(CurveSpec.helix(INV_SQRT2, INV_SQRT2), grid)
    lam = math.sqrt(2.0) + (grid - 1.0)
    from curvemates.solvers import LambdaSolution

    sol = LambdaSolution(grid=grid, lam=lam, lam_prime=np.ones_like(grid),
                         lam_double_prime=np.zeros_like(grid), provenance="closed-form")
    mate = construct_mate(base, "N", sol)
    h = grid[1] - grid[0]
    from curvemates.numdiff import diff1, diff2

    d1 = diff1(mate.positions, h)
    d2 = diff2(mate.positions, h)
    cross = np.cross(d1, d2)
    i = 2000
    f = base.frames
    K, L, M = klm_coefficients(lam[i], 1.0, 0.0, f.kappa[i], f.tau[i],
                               f.kappa_prime[i], f.tau_prime[i])
    expected = K * f.T[i] + L * f.N[i] + M * f.B[i]
    np.testing.assert_allclose(cross[i], expected, atol=5e-6)


def test_xyz_constant_offset():
    lam = 0.5
    X, Y, Z = xyz_coefficients(lam, 0.0, 0.0, 0.9, 0.6, 0.0, 0.0)
    assert X == pytest.approx(lam**2 * 0.6**3, rel=1e-12)
    assert Y == pytest.approx(lam * 0.36, rel=1e-12)
    assert Z == pytest.approx(0.9 * (1.0 + lam**2 * 0.36), rel=1e-12)


def test_xyz_zero_offset():
    out = xyz_coefficients(0.0, 0.0, 0.0, 0.9, 0.6, 0.0, 0.0)
    assert out == pytest.approx((0.0, 0.0, 0.9))


def test_xyz_on_riccati_trajectory_start():
    # lambda(0) = 0, lambda'(0) = 1/2 is the start of the vanishing-Z
    # trajectory: all three components are zero there (the mate starts at an
    # inflection of its own).
    X, Y, Z = xyz_coefficients(0.0, 0.5, 0.0, INV_SQRT2, INV_SQRT2, 0.0, 0.0)
    assert X == pytest.approx(0.0, abs=1e-15)
    assert Y == pytest.approx(0.0, abs=1e-15)
    assert Z == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# predicted frames


def test_predicted_frame_tangent_normal_plane_is_base_normal():
    frames = identity_frames(kappa=INV_SQRT2, tau=INV_SQRT2)
    T, N, B, defined = predicted_frames_grid(frames, "T", one_point(0.7, -1.0))
    assert defined[0]
    np.testing.assert_allclose(T, frames.N, atol=1e-12)
    # Orthonormal right-handed triad.
    np.testing.assert_allclose(np.cross(T, N), B, atol=1e-12)


def test_predicted_frame_tangent_rectifying_combination():
    # e = f = 1 with the family's offset relation 1 + lambda' = lambda*kappa.
    frames = identity_frames(kappa=INV_SQRT2, tau=INV_SQRT2)
    lam = math.sqrt(2.0)
    lam_p = lam * INV_SQRT2 - 1.0
    T, N, B, defined = predicted_frames_grid(frames, "T", one_point(lam, lam_p))
    assert defined[0]
    np.testing.assert_allclose(T, (frames.T + frames.N) * INV_SQRT2, atol=1e-12)


def test_predicted_frame_singular_configuration():
    # Zero offset on the involute: the mate speed 1 + lambda' vanishes.
    T, N, B, defined = predicted_frames_grid(identity_frames(), "T", one_point(0.0, -1.0))
    assert not defined[0]
    assert np.all(np.isnan(np.concatenate([T, N, B])))


def test_predicted_frames_grid_orthonormal(helix_base, grid_0_2):
    sol = solve_riccati(INV_SQRT2, INV_SQRT2, 0.25, grid_0_2)
    T, N, B, defined = predicted_frames_grid(helix_base.frames, "B", sol)
    assert np.all(defined)
    for arr in (T, N, B):
        np.testing.assert_allclose(np.linalg.norm(arr, axis=1), 1.0, atol=1e-8)
    np.testing.assert_allclose(np.einsum("ij,ij->i", T, N), 0.0, atol=1e-8)
    np.testing.assert_allclose(np.cross(T, N), B, atol=1e-8)


# ---------------------------------------------------------------------------
# predicted curvatures (catalogued printed formulas)


def test_predicted_curvatures_tangent_normal_plane_helix():
    frames = identity_frames(kappa=INV_SQRT2, tau=INV_SQRT2)
    spec = AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2))
    ks, ts = predicted_curvature_arrays(frames, spec, one_point(1.0, -1.0), lam_ppp=np.zeros(1))
    assert ks[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert ts[0] == pytest.approx(0.0, abs=1e-15)


def test_predicted_curvatures_tangent_osculating():
    spec = AssociationSpec("T", "O", (1.0, 1.0))
    ks, ts = predicted_curvature_arrays(identity_frames(), spec, one_point(1.0, 0.0, 1.0),
                                        lam_ppp=np.zeros(1))
    assert ks[0] == pytest.approx(INV_SQRT2, rel=1e-12)
    assert ts[0] == 0.0


def test_predicted_curvatures_zero_offset_guard():
    # A vanishing printed denominator is NaN, never a silently repaired value.
    frames = identity_frames(kappa=1.0, tau=0.5)
    spec = AssociationSpec("T", "P", (-1.0, 1.0))
    ks, ts = predicted_curvature_arrays(frames, spec, one_point(0.0, -1.0), lam_ppp=np.zeros(1))
    assert np.isnan(ks[0]) and np.isnan(ts[0])


# ---------------------------------------------------------------------------
# closed-form mate curvatures vs numeric oracle


@pytest.mark.parametrize("vector,make_sol", [
    ("T", lambda grid: lambda_involute(3.0, grid)),
    ("N", lambda grid: lambda_constant(0.3, grid)),
    ("B", lambda grid: solve_riccati(INV_SQRT2, INV_SQRT2, 0.25, grid)),
])
def test_mate_curvatures_closed_match_numeric(helix_base, grid_0_2, vector, make_sol):
    sol = make_sol(grid_0_2)
    mate = construct_mate(helix_base, vector, sol)
    ks, ts, defined = mate_curvatures_closed(helix_base.frames, vector, sol)
    numeric = frenet_frames_sampled(grid_0_2, mate.positions, strict=False)
    inner = slice(5, -5)
    ok = defined[inner] & numeric.valid[inner]
    assert np.max(np.abs(ks[inner][ok] - numeric.kappa[inner][ok])
                  / np.maximum(numeric.kappa[inner][ok], 1e-12)) < 1e-3
    assert np.max(np.abs(ts[inner][ok] - numeric.tau[inner][ok])) < 1e-3


# ---------------------------------------------------------------------------
# classification


def test_classify_involute(grid_0_2):
    spec = AssociationSpec("T", "P", (-1.0, 1.0))
    assert classify_special_case(spec, lambda_involute(1.0, grid_0_2)) == "involute"


def test_classify_bertrand_variants(grid_0_2):
    const = lambda_constant(0.5, grid_0_2)
    assert classify_special_case(AssociationSpec("N", "O", (0.0, 1.0)), const) == "bertrand-like"
    assert classify_special_case(AssociationSpec("N", "P", (1.0, 0.0)), const) == "bertrand-like"
    moving = lambda_involute(0.0, grid_0_2)
    assert classify_special_case(AssociationSpec("N", "P", (1.0, 0.0)), moving) == "generic"


def test_classify_mannheim(grid_0_2):
    const = lambda_constant(0.5, grid_0_2)
    assert classify_special_case(AssociationSpec("B", "O", (0.0, 1.0)), const) == "mannheim-like"
    assert classify_special_case(AssociationSpec("B", "O", (1.0, 1.0)), const) == "generic"


def test_classify_invariant_under_positive_rescale(grid_0_2):
    const = lambda_constant(0.5, grid_0_2)
    for scale in (0.25, 1.0, 40.0):
        spec = AssociationSpec("N", "O", (0.0 * scale, 1.0 * scale))
        assert classify_special_case(spec, const) == "bertrand-like"


# ---------------------------------------------------------------------------
# associate pipeline gates


def test_associate_tangent_osculating_requires_planar(helix_base, grid_0_2):
    spec = AssociationSpec("T", "O", (1.0, 1.0))
    sol = lambda_constant(1.0, grid_0_2)
    with pytest.raises(PlanarityError):
        associate(helix_base, spec, sol)


def test_associate_normal_plane_requires_constant_offset(helix_base, grid_0_2):
    spec = AssociationSpec("N", "P", (1.0, 0.0))
    with pytest.raises(SpecificationError):
        associate(helix_base, spec, lambda_involute(0.0, grid_0_2))


def test_associate_requires_unit_speed(grid_0_2):
    fast = sample_curve(CurveSpec.helix(2.0, 0.0), grid_0_2)
    with pytest.raises(SpecificationError):
        associate(fast, AssociationSpec("N", "O", (0.0, 1.0)), lambda_constant(0.4, grid_0_2))


@pytest.mark.parametrize("code", list(FAMILIES))
def test_associate_matches_public_closed_form(code):
    # associate shares one closed-form set-up between frames and curvatures;
    # the public pair must give the same bits.
    curve = CurveSpec.circle(1.0) if code == "TO" else CurveSpec.helix(INV_SQRT2, INV_SQRT2)
    base = sample_curve(curve, np.linspace(0.0, 3.0, 401))
    spec = AssociationSpec(code[0], code[1], (1.0, 1.0))
    defaults = argparse.Namespace(c0=None, c1=None, c2=None, lambda0=None, lambda0_prime=None)
    sol = _solve_family_lambda(spec, curve, base, defaults)
    pred = associate(base, spec, sol)
    frames = predicted_frames_grid(base.frames, spec.vector, sol)
    ks, ts, _ = mate_curvatures_closed(base.frames, spec.vector, sol)
    got = (pred.T_star, pred.N_star, pred.B_star, pred.defined,
           pred.kappa_star_closed, pred.tau_star_closed)
    for a, b in zip(got, frames + (ks, ts)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
