import argparse
import dataclasses
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
    sample_curve,
)
from curvemates.association import (
    _mate_derivatives,
    klm_coefficients,
    plane_condition,
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
                     kappa_prime=0 * one, tau_prime=0 * one, speed=one,
                     kappa_second=0 * one, tau_second=0 * one)


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


def test_ratio_of_a_zero_second_coefficient():
    with pytest.raises(SpecificationError) as err:
        AssociationSpec("N", "P", (1.0, 0.0)).ratio()
    assert str(err.value) == "ratio undefined: second coefficient is zero"


@pytest.mark.parametrize("call, frames, message", [
    (lambda base, lam: construct_mate(base, "X", lam), True,
     "offset vector must be one of ('T', 'N', 'B')"),
    (lambda base, lam: construct_mate(base, "N", lam), False, "base curve must carry frames"),
    (lambda base, lam: associate(base, AssociationSpec("N", "P", (1.0, 1.0)), lam), False,
     "base curve must carry frames"),
], ids=["construct vector X", "construct without frames", "associate without frames"])
def test_mate_specification_errors(call, frames, message, helix_base, grid_0_2):
    base = helix_base if frames else dataclasses.replace(helix_base, frames=None)
    with pytest.raises(SpecificationError) as err:
        call(base, lambda_constant(0.5, grid_0_2))
    assert str(err.value) == message


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
# closed form on exact data: the cubic alpha(t) = (t, t^2/2, t^3/6), where
# s = t + t^3/6 and kappa = tau = (1 + t^2/2)^-2, with lambda = 0.3 + 0.1 t + 0.05 t^2.
# Rows are t = 0.3, 0.9 and 1.7; every value is sympy's exact one, rounded to a
# float. Unlike the named curves, kappa', tau', kappa'' and tau'' are nonzero.

_CUBIC_T = (0.3, 0.9, 1.7)
_CUBIC_BASE = [  # T, N, B, kappa, tau, kappa', tau', kappa'', tau''
    (0.9569377990430622, 0.28708133971291866, 0.0430622009569378, -0.28708133971291866,
     0.9138755980861244, 0.28708133971291866, 0.0430622009569378, -0.28708133971291866,
     0.9569377990430622, 0.9157299512373801, 0.9157299512373801, -0.5031368061559287,
     -0.5031368061559287, -1.0520171614410878, -1.0520171614410878),
    (0.7117437722419929, 0.6405693950177936, 0.28825622775800713, -0.6405693950177936,
     0.4234875444839858, 0.6405693950177936, 0.28825622775800713, -0.6405693950177936,
     0.7117437722419929, 0.5065791973252618, 0.5065791973252618, -0.4619204696928718,
     -0.4619204696928718, 0.47709857433777847, 0.47709857433777847),
    (0.40899795501022496, 0.6952965235173824, 0.591002044989775, -0.6952965235173824,
     -0.18200408997955012, 0.6952965235173824, 0.591002044989775, -0.6952965235173824,
     0.40899795501022496, 0.16727932720254599, 0.16727932720254599, -0.09514006925174391,
     -0.09514006925174391, 0.0853323071464578, 0.0853323071464578),
]
_CUBIC_LAMBDA = [  # lambda, lambda', lambda'', lambda''' in s
    (0.3345, 0.12440191387559808, 0.05739742756559655, -0.1563174638583332),
    (0.4305, 0.13523131672597866, -0.010996914959729884, -0.0337170892468581),
    (0.6145, 0.11042944785276074, -0.014675425638014772, 0.004964725374883496),
]
_CUBIC_MATES = {  # kappa*, tau*, T*, B* of alpha + lambda V, per V
    "T": [
        (0.7644657500385867, 0.8001640862558632, 0.8478331521345157, 0.5171930736521507,
         0.11700543024959201, 0.18424946595182784, -0.49424047338067195, 0.849575475616449),
        (0.35377516956280874, 0.337119348559367, 0.5781171563787558, 0.708959819467135,
         0.40392638918702545, 0.4586572560525463, -0.6917794425279289, 0.5577407322099551),
        (0.11987028339964267, 0.10743733063541615, 0.34316670600329424, 0.6755599213351946,
         0.6525759760950707, 0.6712649304771229, -0.662358680711245, 0.3326926076696058),
    ],
    "N": [
        (0.7096258492420693, -0.020069586910804738, 0.834535209534124, 0.2926647690518918,
         0.46679579797127424, -0.26084519809038026, -0.5364003564764267, 0.8026421619907296),
        (0.40549431503966665, 0.6644982151361458, 0.6473846183051296, 0.5084703542378449,
         0.5677596805367233, -0.12703002979571454, -0.6625276768362769, 0.7381872722798909),
        (0.1419329071910658, 0.27600283262676156, 0.3857159995347415, 0.5850217720848503,
         0.7134232221406988, 0.3777347612909551, -0.8056162768293513, 0.45639770444216654),
    ],
    "B": [
        (0.8366844669910298, 0.965360577083717, 0.9971485892955848, -0.0271192131154307,
         0.0704218655378067, -0.07163450102605722, -0.04669401338468717, 0.9963373762821399),
        (0.5544464933874227, 0.6029791948083355, 0.8624785889166995, 0.447103547908286,
         0.23712676168682845, 0.07795280999048786, -0.5803136910378577, 0.8106536741473542),
        (0.1878795547053768, 0.19783708512731857, 0.5396270047605933, 0.6300936213790062,
         0.5583768655940181, 0.421742960111394, -0.7763264496764956, 0.4684550342660081),
    ],
}


@pytest.mark.parametrize("vector", ["T", "N", "B"])
def test_closed_form_on_exact_cubic_jets(vector):
    base, lam = np.array(_CUBIC_BASE), np.array(_CUBIC_LAMBDA)
    frames = FrameData(T=base[:, 0:3], N=base[:, 3:6], B=base[:, 6:9], kappa=base[:, 9],
                       tau=base[:, 10], speed=np.ones(3), kappa_prime=base[:, 11],
                       tau_prime=base[:, 12], kappa_second=base[:, 13], tau_second=base[:, 14])
    sol = LambdaSolution(grid=[t + t**3 / 6.0 for t in _CUBIC_T], lam=lam[:, 0],
                         lam_prime=lam[:, 1], lam_double_prime=lam[:, 2], provenance="exact")
    want = np.array(_CUBIC_MATES[vector])
    ks, ts, defined = mate_curvatures_closed(frames, vector, sol, lam[:, 3])
    T_star, _, B_star, defined_frames = predicted_frames_grid(frames, vector, sol)
    assert defined.all() and defined_frames.all()
    np.testing.assert_allclose(ks, want[:, 0], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(ts, want[:, 1], rtol=1e-13, atol=0.0)
    # Unit vectors: an absolute bound is a bound relative to their length.
    np.testing.assert_allclose(T_star, want[:, 2:5], rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(B_star, want[:, 5:8], rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# The Frenet-Serret jet rule against the hand-written components it replaced,
# kept verbatim below as the reference.


def _first_derivative_components(vector, lam, lam_p, kappa, tau):
    """alpha*' in the base frame basis, per offset vector."""
    zeros = np.zeros_like(lam)
    if vector == "T":
        return np.stack([1.0 + lam_p, lam * kappa, zeros], axis=-1)
    if vector == "N":
        return np.stack([1.0 - lam * kappa, lam_p, lam * tau], axis=-1)
    return np.stack([np.ones_like(lam), -lam * tau, lam_p], axis=-1)


def _cross_components(vector, lam, lam_p, lam_pp, kappa, tau, kappa_p, tau_p):
    """alpha*' x alpha*'' in the base frame basis, per offset vector."""
    if vector == "T":
        wT = lam**2 * kappa**2 * tau
        wN = -(1.0 + lam_p) * lam * kappa * tau
        wB = (1.0 + lam_p) * ((1.0 + lam_p) * kappa + lam_p * kappa + lam * kappa_p) \
            - lam * kappa * (lam_pp - lam * kappa**2)
        return np.stack([wT, wN, wB], axis=-1)
    if vector == "N":
        K, L, M = klm_coefficients(lam, lam_p, lam_pp, kappa, tau, kappa_p, tau_p)
        return np.stack([K, L, M], axis=-1)
    X, Y, Z = xyz_coefficients(lam, lam_p, lam_pp, kappa, tau, kappa_p, tau_p)
    return np.stack([X, Y, Z], axis=-1)


def _third_derivative_components(vector, lam, lam_p, lam_pp, lam_ppp,
                                 kappa, tau, kappa_p, tau_p, kappa_pp, tau_pp):
    """alpha*''' in the base frame basis, per offset vector."""
    if vector == "T":
        cT = lam_ppp - 3.0 * lam_p * kappa**2 - 3.0 * lam * kappa * kappa_p - kappa**2
        cN = (-kappa**3 * lam - lam * kappa * tau**2 + 3.0 * lam_pp * kappa
              + 3.0 * lam_p * kappa_p + lam * kappa_pp + kappa_p)
        cB = 3.0 * lam_p * kappa * tau + lam * kappa * tau_p + 2.0 * lam * kappa_p * tau + kappa * tau
    elif vector == "N":
        cT = (lam * kappa**3 + lam * kappa * tau**2 - 3.0 * lam_p * kappa_p
              - lam * kappa_pp - 3.0 * lam_pp * kappa - kappa**2)
        cN = (lam_ppp - 3.0 * lam_p * (kappa**2 + tau**2)
              - 3.0 * lam * (kappa * kappa_p + tau * tau_p) + kappa_p)
        cB = (kappa * tau - lam * kappa**2 * tau - lam * tau**3
              + 3.0 * lam_p * tau_p + lam * tau_pp + 3.0 * lam_pp * tau)
    else:
        cT = lam * tau * kappa_p + 2.0 * lam * tau_p * kappa + 3.0 * lam_p * tau * kappa - kappa**2
        cN = (lam * tau * kappa**2 + lam * tau**3 - lam * tau_pp
              - 3.0 * lam_pp * tau - 3.0 * lam_p * tau_p + kappa_p)
        cB = lam_ppp - 3.0 * lam * tau * tau_p - 3.0 * lam_p * tau**2 + kappa * tau
    return np.stack([cT, cN, cB], axis=-1)


class _Terms:
    """A number with the summed magnitude of the terms that make it up: a sum
    or difference adds the magnitudes, a product multiplies them."""

    def __init__(self, value, size):
        self.value, self.size = value, size

    @staticmethod
    def of(x):
        return x if isinstance(x, _Terms) else _Terms(x, abs(x))

    def __add__(self, other):
        other = _Terms.of(other)
        return _Terms(self.value + other.value, self.size + other.size)

    def __sub__(self, other):
        other = _Terms.of(other)
        return _Terms(self.value - other.value, self.size + other.size)

    def __mul__(self, other):
        other = _Terms.of(other)
        return _Terms(self.value * other.value, self.size * other.size)

    def __rsub__(self, other):
        return _Terms.of(other) - self

    def __neg__(self):
        return _Terms(-self.value, self.size)

    def __pow__(self, k):
        return _Terms(self.value**k, self.size**k)

    __radd__, __rmul__ = __add__, __mul__


def _hand_written(vector, lam, kappa, tau):
    """u, w and alpha*''' from the reference components."""
    return (_first_derivative_components(vector, lam[0], lam[1], kappa[0], tau[0]),
            _cross_components(vector, *lam[:3], kappa[0], tau[0], kappa[1], tau[1]),
            _third_derivative_components(vector, *lam, kappa[0], tau[0], kappa[1], tau[1],
                                         kappa[2], tau[2]))


@pytest.mark.parametrize("vector", ["T", "N", "B"])
def test_frenet_jet_rule_matches_hand_written_components(vector):
    # Seeded jets with magnitudes in [0.5, 2] and kappa > 0: every term of a
    # component is at least 0.5**5 ~ 0.03, so a dropped or mis-signed term
    # misses the bound, 1e-13 times the component's summed term magnitudes
    # (at most ~100), by about nine orders.
    rng = np.random.default_rng(20211)
    jets = rng.uniform(0.5, 2.0, (10, 400)) * rng.choice([-1.0, 1.0], (10, 400))
    jets[4] = np.abs(jets[4])
    lam, kappa, tau = tuple(jets[:4]), tuple(jets[4:7]), tuple(jets[7:])
    u, w, d3 = _mate_derivatives(vector, lam, kappa, tau)
    want_u, want_w, want_d3 = _hand_written(vector, lam, kappa, tau)
    assert u.tobytes() == want_u.tobytes()
    terms = np.vectorize(_Terms, otypes=[object])(jets, np.abs(jets))
    sizes = _hand_written(vector, tuple(terms[:4]), tuple(terms[4:7]), tuple(terms[7:]))
    for got, want, size in ((w, want_w, sizes[1]), (d3, want_d3, sizes[2])):
        size = np.vectorize(lambda x: _Terms.of(x).size, otypes=[float])(size)
        assert np.all(np.abs(got - want) <= 1e-13 * size)


# ---------------------------------------------------------------------------
# plane_condition against the four coefficient lambdas that FAMILIES held
# before it, kept verbatim below as the reference, and its exact reductions.

_COEFFICIENT_LAMBDAS = {
    "NO": (klm_coefficients, lambda K, L, M, lam, k, t: L),
    "NR": (klm_coefficients, lambda K, L, M, lam, k, t: M * (1.0 - lam * k) - K * lam * t),
    "BO": (xyz_coefficients, lambda X, Y, Z, lam, k, t: Z),
    "BR": (xyz_coefficients, lambda X, Y, Z, lam, k, t: -X * lam * t - Y),
}


def _plane_condition_draws(n=2000):
    """Seeded jets (lam, kappa, tau) of n rows: kappa in [0.2, 2], |tau| <= 2,
    lambda, lambda' and lambda'' in [-2, 2], kappa' and tau' in [-1, 1]."""
    rng = np.random.default_rng(20212)
    kappa, tau = rng.uniform(0.2, 2.0, n), rng.uniform(-2.0, 2.0, n)
    lam = tuple(rng.uniform(-2.0, 2.0, (3, n)))
    kappa_p, tau_p = rng.uniform(-1.0, 1.0, (2, n))
    return lam, (kappa, kappa_p), (tau, tau_p)


@pytest.mark.parametrize("code", list(_COEFFICIENT_LAMBDAS))
def test_plane_condition_matches_the_coefficient_lambdas(code):
    lam, kappa, tau = _plane_condition_draws()
    cross, coefficient = _COEFFICIENT_LAMBDAS[code]
    components = cross(*lam, kappa[0], tau[0], kappa[1], tau[1])
    want = coefficient(*components, lam[0], kappa[0], tau[0])
    want_norm = np.sqrt(sum(c**2 for c in components))
    raw, norm = plane_condition(code[0], code[1], lam, kappa, tau)
    assert np.all(np.abs(raw - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    assert np.all(np.abs(norm - want_norm) <= 1e-13 * np.maximum(1.0, want_norm))


def test_plane_condition_exact_reductions():
    # <T, T*>, <N, T*> and <B, T*> are components of alpha*' itself; <T, B*> is
    # w's T component lambda kappa * lambda kappa tau - 0 * v_N.
    lam, kappa, tau = _plane_condition_draws()
    raw = {code: plane_condition(code[0], code[1], lam, kappa, tau)[0]
           for code in ("TP", "NP", "BP", "TO")}
    assert np.array_equal(raw["TP"], 1.0 + lam[1])
    assert np.array_equal(raw["NP"], lam[1]) and np.array_equal(raw["BP"], lam[1])
    want = kappa[0] ** 2 * lam[0] ** 2 * tau[0]
    assert np.all(np.abs(raw["TO"] - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


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


@pytest.mark.parametrize("missing", ["kappa_prime", "tau_prime", "kappa_second",
                                     "tau_second"])
def test_associate_requires_arclength_derivatives(helix_base, grid_0_2, missing):
    # Stencil frames carry no kappa', tau', kappa'', tau'': a typed error
    # names the field instead of numpy failing on None.
    stencil = frenet_frames_sampled(grid_0_2, helix_base.positions)
    spec, sol = AssociationSpec("N", "O", (0.0, 1.0)), lambda_constant(0.4, grid_0_2)
    with pytest.raises(SpecificationError, match="base frames carry no kappa_prime"):
        associate(helix_base.with_frames(stencil), spec, sol)
    frames = dataclasses.replace(helix_base.frames, **{missing: None})
    with pytest.raises(SpecificationError, match=f"base frames carry no {missing};"):
        associate(helix_base.with_frames(frames), spec, sol)


def test_associate_constant_offset_is_bertrand_like():
    # associate and the classification apply one constant-offset test, so an
    # NP offset accepted as constant is never classified generic.
    grid = np.linspace(0.0, 3.0, 2001)
    base = sample_curve(CurveSpec.helix(INV_SQRT2, INV_SQRT2), grid)
    sol = LambdaSolution(grid=grid, lam=1.0 + 5e-9 * grid, lam_prime=np.full(grid.shape, 5e-9),
                         lam_double_prime=np.zeros(grid.shape), provenance="closed-form")
    pred = associate(base, AssociationSpec("N", "P", (1.0, 1.0)), sol)
    assert pred.classification == "bertrand-like"


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
