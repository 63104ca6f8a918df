import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from curvemates import (
    CurveSpec,
    SampledCurve,
    frenet_residuals,
    reparametrize_arclength,
    sample_curve,
)
from curvemates.errors import (
    CurvatureDegenerateError,
    DomainError,
    InsufficientDataError,
    RegularityError,
    SpecificationError,
)
from curvemates.geometry import FrameData, curvature_derivatives, frenet_frames_sampled
from curvemates.numdiff import diff1, diff3, norm3, uniform_spacing

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def assert_right_handed_frames(f, tol=1e-9):
    """Unit, mutually orthogonal, B = T x N and kappa >= 0 on every row."""
    for v in (f.T, f.N, f.B):
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=tol)
    for u, v in ((f.T, f.N), (f.T, f.B), (f.N, f.B)):
        np.testing.assert_allclose(np.einsum("ij,ij->i", u, v), 0.0, atol=tol)
    np.testing.assert_allclose(np.cross(f.T, f.N), f.B, atol=tol)
    assert np.all(f.kappa >= 0)


# ---------------------------------------------------------------------------
# CurveSpec and sampling


def test_evaluate_circle_first_order():
    base = sample_curve(CurveSpec.circle(1.0), np.array([0.0]))
    np.testing.assert_allclose(base.positions[0], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(base.frames.T[0], [0.0, 1.0, 0.0], atol=1e-15)
    assert base.frames.speed[0] == 1.0


def test_evaluate_helix_second_order(unit_helix_spec):
    base = sample_curve(unit_helix_spec, np.array([0.0]))
    f = base.frames
    np.testing.assert_allclose(base.positions[0], [INV_SQRT2, 0.0, 0.0], atol=1e-15)
    # Unit speed, so alpha' = T and alpha'' = kappa N.
    np.testing.assert_allclose(f.speed[0] * f.T[0], [0.0, INV_SQRT2, INV_SQRT2], atol=1e-15)
    np.testing.assert_allclose(f.kappa[0] * f.N[0], [-INV_SQRT2, 0.0, 0.0], atol=1e-15)


def test_evaluate_sampled_too_short_for_third_order():
    s = np.linspace(0.0, 1.0, 5)
    pts = np.column_stack([s, np.cos(s), np.sin(s), 0 * s])
    with pytest.raises(InsufficientDataError):
        frenet_frames_sampled(s, pts[:, 1:])
    with pytest.raises(InsufficientDataError):
        sample_curve(CurveSpec.from_samples(pts), s)


def test_evaluate_sampled_matches_analytic():
    s = np.linspace(0.0, 2.0, 801)
    pts = np.column_stack([s, np.cos(s), np.sin(s), 0 * s])
    curve = CurveSpec.from_samples(pts)
    base = sample_curve(curve, s)
    i = 400  # s = 1
    np.testing.assert_allclose(base.frames.T[i], [-math.sin(1), math.cos(1), 0], atol=1e-4)
    np.testing.assert_allclose(diff3(base.positions, s[1] - s[0])[i],
                               [math.sin(1), -math.cos(1), 0], atol=1e-3)
    # Off the sample grid, positions come from the cubic interpolant.
    fine = np.linspace(0.0, 2.0, 1203)
    off = sample_curve(curve, fine)
    np.testing.assert_allclose(off.positions, np.column_stack([np.cos(fine), np.sin(fine),
                                                               0 * fine]), atol=1e-9)
    np.testing.assert_allclose(diff1(off.positions, fine[1] - fine[0])[601],
                               [-math.sin(1), math.cos(1), 0], atol=1e-4)
    # That interpolant is scipy's not-a-knot CubicSpline, bit for bit.
    from scipy.interpolate import CubicSpline
    assert_same_bits(off.positions, CubicSpline(s, pts[:, 1:4], axis=0)(fine))


def test_evaluate_domain_and_order_errors():
    s = np.linspace(0.0, 1.0, 9)
    curve = CurveSpec.from_samples(np.column_stack([s, s, 0 * s, 0 * s]))
    with pytest.raises(DomainError):
        sample_curve(curve, np.array([0.0, 2.0]))
    with pytest.raises(DomainError):
        reparametrize_arclength(curve, (0.0, 2.0), n=9)


def test_curvespec_validation():
    with pytest.raises(SpecificationError):
        CurveSpec.circle(0.0)
    with pytest.raises(SpecificationError):
        CurveSpec.helix(-1.0, 0.5)
    with pytest.raises(SpecificationError):
        CurveSpec.from_samples([[0, 0, 0, 0], [0, 1, 0, 0]])  # s not increasing


@pytest.mark.parametrize("make, name", [
    (lambda v: CurveSpec.circle(v), "radius r"),
    (lambda v: CurveSpec.helix(v, 0.5), "a"),
    (lambda v: CurveSpec.helix(0.7, v), "b"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_curvespec_rejects_nonfinite_parameters(make, name, value):
    # Rejected before any arithmetic: no RuntimeWarning, no curvature-floor error.
    with pytest.raises(SpecificationError, match=f"finite {name}.*got {value!r}"):
        make(value)


@pytest.mark.parametrize("make", [
    lambda: CurveSpec.circle(1e300),  # r^2 overflows
    lambda: CurveSpec.circle(1e-160),  # 1/r^2 overflows
    lambda: CurveSpec.circle(1e-320),  # r^2 underflows to 0
    lambda: CurveSpec.helix(1e200, 1.0),  # a^2 + b^2 overflows
    lambda: CurveSpec.helix(1e-200, 0.0),  # a^2 + b^2 underflows to 0
])
def test_curvespec_rejects_out_of_range_parameters(make):
    with pytest.raises(SpecificationError, match="out of range"):
        make()


@pytest.mark.parametrize("domain, end", [
    ((0.0, math.inf), "t1"), ((-math.inf, 1.0), "t0"), ((math.nan, 1.0), "t0"),
    ((0.0, math.nan), "t1"),
])
def test_reparametrize_rejects_nonfinite_domain_end(domain, end):
    with pytest.raises(SpecificationError, match=f"domain end {end} must be finite"):
        reparametrize_arclength(CurveSpec.helix(0.6, 0.8), domain, 101)


# ---------------------------------------------------------------------------
# Frenet frames


def test_frenet_unit_circle():
    f = sample_curve(CurveSpec.circle(1.0), np.array([0.0])).frames
    np.testing.assert_allclose(f.T[0], [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(f.N[0], [-1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(f.B[0], [0, 0, 1], atol=1e-12)
    assert f.kappa[0] == pytest.approx(1.0, abs=1e-12)
    assert f.tau[0] == pytest.approx(0.0, abs=1e-12)
    assert_right_handed_frames(f)


@pytest.mark.parametrize("s", [0.0, 0.7, 3.1])
def test_frenet_helix_constant_curvatures(unit_helix_spec, s):
    f = sample_curve(unit_helix_spec, np.array([s])).frames
    assert f.kappa[0] == pytest.approx(INV_SQRT2, rel=1e-12)
    assert f.tau[0] == pytest.approx(INV_SQRT2, rel=1e-12)
    assert_right_handed_frames(f)


def test_frenet_straight_line_degenerate():
    s = np.linspace(0.0, 1.0, 21)
    pts = np.column_stack([s, s, 2 * s, 3 * s])
    with pytest.raises(CurvatureDegenerateError):
        sample_curve(CurveSpec.from_samples(pts), s)
    numeric = frenet_frames_sampled(s, pts[:, 1:], strict=False)
    assert not np.any(numeric.valid)


def test_closed_form_curvatures_match_numeric():
    for spec in (CurveSpec.circle(2.0), CurveSpec.helix(0.8, 0.6), CurveSpec.helix(2.0, 0.0)):
        f = sample_curve(spec, np.array([0.9])).frames
        kappa, tau = spec.closed_form_curvatures()
        assert f.kappa[0] == pytest.approx(kappa, rel=1e-6)
        assert f.tau[0] == pytest.approx(tau, abs=1e-6)


# ---------------------------------------------------------------------------
# frenet_residuals


def test_frenet_residuals_helix(unit_helix_spec):
    grid = np.linspace(0.0, 2.0 * math.pi, 2000)
    base = sample_curve(unit_helix_spec, grid)
    res = frenet_residuals(base)
    for r in res.maxima():
        assert r < 1e-4


def test_frenet_residuals_analytic_circle_frames():
    grid = np.linspace(0.0, 2.0 * math.pi, 2001)
    base = sample_curve(CurveSpec.circle(1.0), grid)
    res = frenet_residuals(base)
    h = base.spacing()
    # Exact frames, so the defect is purely the difference-scheme error.
    for r in res.maxima():
        assert r < 2.0 * h * h


def test_frenet_residuals_flag_flipped_binormal(unit_helix_spec):
    grid = np.linspace(0.0, 2.0 * math.pi, 1001)
    base = sample_curve(unit_helix_spec, grid)
    f = base.frames
    flipped = FrameData(T=f.T, N=f.N, B=-f.B, kappa=f.kappa, tau=f.tau,
                        kappa_prime=f.kappa_prime, tau_prime=f.tau_prime,
                        speed=f.speed, kappa_second=f.kappa_second,
                        tau_second=f.tau_second)
    res = frenet_residuals(base.with_frames(flipped))
    # B' + tau N picks up 2|tau| when the binormal is negated.
    assert res.maxima()[2] == pytest.approx(2.0 * INV_SQRT2, rel=0.05)


def test_frenet_residuals_second_order_convergence(unit_helix_spec):
    maxima = []
    for n in (1001, 2001):
        grid = np.linspace(0.0, 2.0 * math.pi, n)
        res = frenet_residuals(sample_curve(unit_helix_spec, grid))
        maxima.append(max(res.maxima()))
    ratio = maxima[0] / maxima[1]
    assert 3.0 <= ratio <= 5.3


# ---------------------------------------------------------------------------
# reparametrize_arclength


def test_reparametrize_angle_circle():
    # Radius-2 circle parametrized by angle over [0, pi]: arc length 2*pi.
    curve = CurveSpec.helix(2.0, 0.0)
    out = reparametrize_arclength(curve, (0.0, math.pi), n=100)
    assert out.grid[-1] == pytest.approx(2.0 * math.pi, abs=1e-8)
    h = out.spacing()
    speeds = np.linalg.norm(np.gradient(out.positions, h, axis=0), axis=1)
    # Central differences of an exact unit-speed circle deviate by
    # (kappa*h)^2/6; anything beyond that bound would be a real defect.
    assert np.max(np.abs(speeds[1:-1] - 1.0)) < h * h / 12.0


def test_reparametrize_identity_on_unit_speed(unit_helix_spec):
    out = reparametrize_arclength(unit_helix_spec, (0.0, 2.0), n=101)
    np.testing.assert_allclose(out.grid, np.linspace(0.0, 2.0, 101), atol=1e-9)
    expected = np.column_stack([
        INV_SQRT2 * np.cos(out.grid), INV_SQRT2 * np.sin(out.grid), INV_SQRT2 * out.grid,
    ])
    np.testing.assert_allclose(out.positions, expected, atol=1e-9)


def test_reparametrize_cusp_regularity_error():
    t = np.linspace(-1.0, 1.0, 2001)
    pts = np.column_stack([t, t**2, t**3, 0 * t])
    curve = CurveSpec.from_samples(pts)
    with pytest.raises(RegularityError) as err:
        reparametrize_arclength(curve, (-1.0, 1.0), n=50)
    assert err.value.s == pytest.approx(0.0, abs=0.05)


def test_reparametrize_refuses_a_straight_segment():
    # Straight for t < 2: sample_curve and reparametrize_arclength refuse it
    # with the same located message, not a base whose valid is False.
    t = np.linspace(0.0, 4.0, 400)
    curve = CurveSpec.from_samples(
        np.column_stack([t, t, np.where(t < 2.0, 0.0, (t - 2.0) ** 3), 0 * t]))
    message = "curvature below floor 1e-08 (straight or singular segment) at s=0.0"
    with pytest.raises(CurvatureDegenerateError) as err:
        sample_curve(curve, np.linspace(0.0, 4.0, 2001))
    assert str(err.value) == message
    with pytest.raises(CurvatureDegenerateError) as err:
        reparametrize_arclength(curve, (0.0, 4.0), 2001)
    assert str(err.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: CurveSpec(kind="x"), "unknown curve kind 'x'"),
    (lambda: CurveSpec.from_samples([[0, 0, 0, 0], [1, 1, 0, 0]]).closed_form_curvatures(),
     "closed-form curvature and torsion only for named curves"),
    (lambda: frenet_residuals(SampledCurve(grid=np.linspace(0.0, 1.0, 9),
                                           positions=np.zeros((9, 3)))),
     "frenet_residuals requires a curve with frames"),
    (lambda: reparametrize_arclength(CurveSpec.circle(1.0), (1.0, 1.0), 9),
     "domain must satisfy t0 < t1"),
], ids=["unknown kind", "curvature of samples", "residuals without frames", "empty domain"])
def test_geometry_specification_errors(call, message):
    with pytest.raises(SpecificationError) as err:
        call()
    assert str(err.value) == message


def test_reparametrize_needs_enough_points():
    with pytest.raises(SpecificationError):
        reparametrize_arclength(CurveSpec.circle(1.0), (0.0, 1.0), n=5)


def test_reparametrize_names_the_row_off_unit_speed():
    # A tight circle at a coarse step: the stencil speed is off by
    # (kappa*h)^2/6 = 1.7e-5 on every interior row, above max(tol, 50 h^2).
    with pytest.raises(RegularityError) as err:
        reparametrize_arclength(CurveSpec.circle(0.05), (0.0, 1.0), 2001)
    s = err.value.s
    assert s is not None and 0.0 < s < 1.0
    assert f"s={s:.6g}" in str(err.value)


def wobbly_helix_samples(t_end=5.0, rows=400, seed=7):
    """A seeded, non-unit-speed helix with small harmonics, as (s, x, y, z) rows."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, t_end, rows)
    eps = rng.uniform(0.02, 0.06, 3)
    ph = rng.uniform(0.0, 2.0 * math.pi, 3)
    R, c = 1.0 + eps[0] * np.sin(3.0 * t + ph[0]), 0.6 + eps[1] * np.cos(2.0 * t + ph[1])
    return np.column_stack([t, R * np.cos(t), R * np.sin(t), c * t + eps[2] * np.sin(t + ph[2])])


def quad_length(curve, domain):
    """Arc length by adaptive quadrature of the exact speed |a'|, summed over
    the intervals between the spline's knots, where the speed is smooth."""
    from scipy.integrate import quad
    from scipy.interpolate import CubicSpline

    t0, t1 = domain
    if curve.is_analytic:
        def speed(t):
            return float(norm3(curve._analytic_derivs(np.array([t]))[1])[0])
        cuts = [t0, t1]
    else:
        pts = curve.points
        d1 = CubicSpline(pts[:, 0], pts[:, 1:4], axis=0).derivative()

        def speed(t):
            return float(np.linalg.norm(d1(t)))
        knots = pts[:, 0]
        cuts = [t0, *knots[(knots > t0) & (knots < t1)], t1]
    # epsrel must exceed 50 machine epsilons when epsabs is 0.
    return math.fsum(quad(speed, a, b, epsabs=0.0, epsrel=1e-13)[0]
                     for a, b in zip(cuts, cuts[1:]))


KNOTS = wobbly_helix_samples()[:, 0]


@pytest.mark.parametrize("curve, domain", [
    (CurveSpec.helix(1.3, 0.4), (-1.0, 4.0)),
    (CurveSpec.circle(2.0), (0.0, 6.0)),
    (CurveSpec.from_samples(wobbly_helix_samples()), (0.0, 5.0)),
    (CurveSpec.from_samples(wobbly_helix_samples()), (0.7, 3.9)),
    # Six rows: few knots, so the 64 equal pieces carry the accuracy.
    (CurveSpec.from_samples(wobbly_helix_samples(rows=6)), (0.0, 5.0)),
    # Both ends on knots.
    (CurveSpec.from_samples(wobbly_helix_samples()), (KNOTS[37], KNOTS[311])),
], ids=["helix", "circle", "sampled", "sampled-sub-domain", "six-row-spline", "knot-ends"])
def test_reparametrize_length_matches_quadrature(curve, domain):
    out = reparametrize_arclength(curve, domain, 2001)
    want = quad_length(curve, domain)
    assert abs(out.grid[-1] - want) <= 1e-12 * want


def test_reparametrize_helix_follows_exact_arclength():
    # (a cos t, a sin t, b t) has s = sqrt(a^2 + b^2) (t - t0).
    a, b, t0 = 1.3, 0.4, -1.0
    out = reparametrize_arclength(CurveSpec.helix(a, b), (t0, 4.0), 2001)
    c = math.hypot(a, b)
    assert out.grid[-1] == pytest.approx(5.0 * c, rel=1e-14)
    t = t0 + out.grid / c
    exact = np.column_stack([a * np.cos(t), a * np.sin(t), b * t])
    np.testing.assert_allclose(out.positions, exact, rtol=0.0, atol=1e-13)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


ARCLENGTH_DERIVATIVES = ("kappa_prime", "tau_prime", "kappa_second", "tau_second")


def test_base_builders_add_arclength_derivatives_to_stencil_frames():
    # frenet_frames_sampled leaves kappa', tau', kappa'', tau'' None; the
    # sampled and the reparametrized base carry them, as curvature_derivatives
    # gives them from the stencil frames' own kappa, tau and speed.
    curve = CurveSpec.from_samples(wobbly_helix_samples())
    grid = np.linspace(0.0, 5.0, 2001)
    for base, strict in ((sample_curve(curve, grid), True),
                         (reparametrize_arclength(curve, (0.0, 5.0), 2001), False)):
        stencil = frenet_frames_sampled(base.grid, base.positions, strict=strict)
        for name in ARCLENGTH_DERIVATIVES:
            assert getattr(stencil, name) is None
        want = dict(zip(ARCLENGTH_DERIVATIVES, curvature_derivatives(
            stencil.kappa, stencil.tau, stencil.speed, uniform_spacing(base.grid))))
        for field in dataclasses.fields(FrameData):
            name = field.name
            assert_same_bits(getattr(base.frames, name),
                             want[name] if name in want else getattr(stencil, name))


def test_reparametrize_memory_stays_below_49_output_arrays():
    # Imported before tracing starts, so loading the modules is not counted.
    from scipy.interpolate import CubicSpline  # noqa: F401

    n = 20001
    curve = CurveSpec.from_samples(wobbly_helix_samples())
    tracemalloc.start()
    try:
        reparametrize_arclength(curve, (0.0, 5.0), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 49 * 8 * n, f"traced peak {peak / (8 * n):.1f} arrays of n rows"


# ---------------------------------------------------------------------------
# sampled-curve plumbing


def test_numeric_frames_match_analytic(unit_helix_spec):
    grid = np.linspace(0.0, 2.0, 2001)
    base = sample_curve(unit_helix_spec, grid)
    numeric = frenet_frames_sampled(grid, base.positions)
    interior = slice(3, -3)
    assert np.max(np.abs(numeric.kappa[interior] - INV_SQRT2)) < 1e-6
    assert np.max(np.abs(numeric.tau[interior] - INV_SQRT2)) < 1e-6
    assert np.max(np.linalg.norm(numeric.T[interior] - base.frames.T[interior], axis=1)) < 1e-6


def test_sampled_curve_validation():
    with pytest.raises(SpecificationError):
        SampledCurve(grid=np.array([0.0, 1.0]), positions=np.zeros((3, 3)))
    with pytest.raises(SpecificationError):
        SampledCurve(grid=np.array([0.0, 0.0]), positions=np.zeros((2, 3)))


def test_numeric_frames_reject_misaligned_positions(unit_helix_spec):
    # 50 rows on a 40-point grid used to give 50 frames at the 40-point
    # spacing; (n, 2) rows used to fail inside numpy.
    grid = np.linspace(0.0, 2.0, 40)
    positions = sample_curve(unit_helix_spec, np.linspace(0.0, 2.0, 50)).positions
    for bad in (positions, positions[:40, :2]):
        with pytest.raises(SpecificationError, match=r"positions must be \(n, 3\) aligned"):
            frenet_frames_sampled(grid, bad)


def test_curvature_derivatives_chain_rule_off_arc_length():
    # (cos t, 2 sin t, t/2) is not arc-length parametrized, so kappa'' and
    # tau'' need the -x_t v_t / v term of the chain rule; without it kappa''
    # is off by 8 % of its maximum here. The reference applies d/ds = (1/v) d/dt
    # twice to the exact kappa(t), tau(t) with a fine central difference.
    t = np.linspace(0.3, 2.5, 4001)
    speed = lambda t: np.sqrt(1.25 + 3.0 * np.cos(t) ** 2)
    kappa = lambda t: np.sqrt(5.0 - 0.75 * np.cos(t) ** 2) / speed(t) ** 3
    tau = lambda t: 1.0 / (5.0 - 0.75 * np.cos(t) ** 2)

    def d_ds(g, d=1e-4):
        return lambda t: (g(t + d) - g(t - d)) / (2.0 * d) / speed(t)

    kpp, tpp = d_ds(d_ds(kappa))(t), d_ds(d_ds(tau))(t)
    _, _, ks, ts = curvature_derivatives(kappa(t), tau(t), speed(t), t[1] - t[0])
    assert np.max(np.abs(ks - kpp)) < 1e-5 * np.max(np.abs(kpp))
    assert np.max(np.abs(ts - tpp)) < 1e-5 * np.max(np.abs(tpp))
    # The oracle's own kappa'' from positions alone (its tau'' is round-off
    # dominated at this step).
    positions = np.column_stack([np.cos(t), 2.0 * np.sin(t), 0.5 * t])
    frames = sample_curve(CurveSpec.from_samples(np.column_stack([t, positions])), t).frames
    assert np.max(np.abs(frames.kappa_second - kpp)) < 0.01 * np.max(np.abs(kpp))
