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
from curvemates.numdiff import cumulative_simpson, diff1, diff3, norm3, uniform_spacing

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
    off = sample_curve(curve, fine, with_frames=False)
    np.testing.assert_allclose(off.positions, np.column_stack([np.cos(fine), np.sin(fine),
                                                               0 * fine]), atol=1e-9)
    np.testing.assert_allclose(diff1(off.positions, fine[1] - fine[0])[601],
                               [-math.sin(1), math.cos(1), 0], atol=1e-4)


def test_evaluate_domain_and_order_errors():
    s = np.linspace(0.0, 1.0, 9)
    curve = CurveSpec.from_samples(np.column_stack([s, s, 0 * s, 0 * s]))
    with pytest.raises(DomainError):
        sample_curve(curve, np.array([0.0, 2.0]), with_frames=False)
    with pytest.raises(DomainError):
        reparametrize_arclength(curve, (0.0, 2.0), n=9)


def test_curvespec_validation():
    with pytest.raises(SpecificationError):
        CurveSpec.circle(0.0)
    with pytest.raises(SpecificationError):
        CurveSpec.helix(-1.0, 0.5)
    with pytest.raises(SpecificationError):
        CurveSpec.from_samples([[0, 0, 0, 0], [0, 1, 0, 0]])  # s not increasing


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
        assert f.kappa[0] == pytest.approx(spec.closed_form_curvature(), rel=1e-6)
        assert f.tau[0] == pytest.approx(spec.closed_form_torsion(), abs=1e-6)


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
    out = reparametrize_arclength(curve, (0.0, math.pi), n=100, tol=1e-6)
    assert out.grid[-1] == pytest.approx(2.0 * math.pi, abs=1e-8)
    h = out.spacing()
    speeds = np.linalg.norm(np.gradient(out.positions, h, axis=0), axis=1)
    # Central differences of an exact unit-speed circle deviate by
    # (kappa*h)^2/6; anything beyond that bound would be a real defect.
    assert np.max(np.abs(speeds[1:-1] - 1.0)) < h * h / 12.0


def test_reparametrize_identity_on_unit_speed(unit_helix_spec):
    out = reparametrize_arclength(unit_helix_spec, (0.0, 2.0), n=101, tol=1e-9)
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
        reparametrize_arclength(curve, (-1.0, 1.0), n=50, tol=1e-3)
    assert err.value.s == pytest.approx(0.0, abs=0.05)


def test_reparametrize_needs_enough_points():
    with pytest.raises(SpecificationError):
        reparametrize_arclength(CurveSpec.circle(1.0), (0.0, 1.0), n=5)


def reparametrize_whole_grid(curve, domain, n):
    """The whole-grid reparametrization that the blocked one must reproduce
    bit for bit: (m, 3) derivative tables and one m-node PCHIP interpolant."""
    from scipy.interpolate import CubicSpline, PchipInterpolator

    t0, t1 = domain
    m = max(8 * n + 1, 4097)
    t_fine = np.linspace(t0, t1, m)
    if curve.is_analytic:
        d1 = curve._analytic_derivs(t_fine)[1]
    else:
        d1 = diff1(sample_curve(curve, t_fine, with_frames=False).positions,
                   uniform_spacing(t_fine))
    s_of_t = cumulative_simpson(norm3(d1), t_fine[1] - t_fine[0])
    s_grid = np.linspace(0.0, float(s_of_t[-1]), n)
    t_grid = np.asarray(PchipInterpolator(s_of_t, t_fine)(s_grid), dtype=float)
    t_grid[0], t_grid[-1] = t0, t1
    if curve.is_analytic:
        pos = curve._analytic_derivs(t_grid)[0]
    else:
        pts = curve.points
        pos = CubicSpline(pts[:, 0], pts[:, 1:4], axis=0)(t_grid)
    frames = frenet_frames_sampled(s_grid, pos, strict=False)
    kp, tp, ks, ts = curvature_derivatives(frames.kappa, frames.tau, frames.speed,
                                           uniform_spacing(s_grid))
    frames = dataclasses.replace(frames, kappa_prime=kp, tau_prime=tp, kappa_second=ks,
                                 tau_second=ts)
    return SampledCurve(grid=s_grid, positions=pos, frames=frames)


def wobbly_helix_samples(t_end=5.0, rows=400, seed=7, t=None):
    """A seeded, non-unit-speed helix with small harmonics, as (s, x, y, z) rows."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, t_end, rows) if t is None else t
    eps = rng.uniform(0.02, 0.06, 3)
    ph = rng.uniform(0.0, 2.0 * math.pi, 3)
    R, c = 1.0 + eps[0] * np.sin(3.0 * t + ph[0]), 0.6 + eps[1] * np.cos(2.0 * t + ph[1])
    return np.column_stack([t, R * np.cos(t), R * np.sin(t), c * t + eps[2] * np.sin(t + ph[2])])


def _fine_grid_samples():
    # n = 5001 gives m = 40001 fine points, the very s column of these rows.
    n, t_end = 5001, 5.0
    t = np.linspace(0.0, t_end, 8 * n + 1)
    return CurveSpec.from_samples(wobbly_helix_samples(t=t)), (0.0, t_end), n


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", [
    "sampled-several-blocks", "sampled-sub-domain", "helix", "circle", "single-block",
    "one-row-last-block", "samples-on-the-fine-grid",
])
def test_reparametrize_blocks_match_whole_grid(case):
    sampled = CurveSpec.from_samples(wobbly_helix_samples())
    curve, domain, n = {
        "sampled-several-blocks": (sampled, (0.0, 5.0), 20001),
        "sampled-sub-domain": (sampled, (0.7, 3.9), 20001),
        "helix": (CurveSpec.helix(1.3, 0.4), (-1.0, 4.0), 20001),
        "circle": (CurveSpec.circle(2.0), (0.0, 6.0), 20001),
        "single-block": (sampled, (0.0, 5.0), 7),
        # m = 8 * 4096 + 1 leaves one row for the last block of 2**15.
        "one-row-last-block": (sampled, (0.0, 5.0), 4096),
        "samples-on-the-fine-grid": _fine_grid_samples(),
    }[case]
    got = reparametrize_arclength(curve, domain, n)
    want = reparametrize_whole_grid(curve, domain, n)
    assert_same_bits(got.grid, want.grid)
    assert_same_bits(got.positions, want.positions)
    for field in dataclasses.fields(FrameData):
        assert_same_bits(getattr(got.frames, field.name), getattr(want.frames, field.name))


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


def test_reparametrize_memory_stays_below_ten_fine_arrays():
    # Imported before tracing starts, so loading the modules is not counted.
    from scipy.interpolate import CubicSpline, PchipInterpolator  # noqa: F401

    n = 20001
    m = 8 * n + 1
    curve = CurveSpec.from_samples(wobbly_helix_samples())
    tracemalloc.start()
    try:
        reparametrize_arclength(curve, (0.0, 5.0), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * m, f"traced peak {peak / (8 * m):.1f} fine-grid arrays"


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
