import math

import numpy as np
import pytest

from curvemates.errors import (
    AlignmentError,
    FiniteEscapeError,
    PoleError,
    QuadratureRangeError,
    SingularOdeError,
    SpecificationError,
    TorsionDegenerateError,
)
from curvemates.numdiff import diff1
from curvemates.solvers import (
    LambdaSolution,
    constant_admissible_lambda,
    constraint_residual,
    helix_ode_residual,
    helix_ode_variant_report,
    lambda_constant,
    lambda_exponential_pair,
    lambda_half_curvature,
    lambda_helix_hyperbolic,
    lambda_involute,
    linear_ode_residual,
    riccati_linearize,
    riccati_z_residual,
    solve_constraint_ode,
    solve_linear,
    solve_riccati,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
GRID = np.linspace(0.0, 2.0, 2001)


# ---------------------------------------------------------------------------
# linear integrating-factor solver


@pytest.mark.parametrize("c0", [-1.0, 0.0, 1.0])
def test_linear_unit_kappa_family(c0):
    # kappa = 1, ratio = 1: lambda = 1 + c0 e^s with lambda(0) = 1 + c0.
    sol = solve_linear(np.ones_like(GRID), 1.0, 1.0 + c0, GRID)
    np.testing.assert_allclose(sol.lam, 1.0 + c0 * np.exp(GRID), atol=1e-9)


@pytest.mark.parametrize("c0", [-1.0, 0.0, 1.0])
def test_linear_helix_kappa_family(c0):
    # kappa = 1/sqrt(2), ratio = 1: lambda = sqrt(2) + c0 e^{s/sqrt(2)}.
    sol = solve_linear(np.full_like(GRID, INV_SQRT2), 1.0, math.sqrt(2.0) + c0, GRID)
    np.testing.assert_allclose(sol.lam, math.sqrt(2.0) + c0 * np.exp(GRID * INV_SQRT2),
                               atol=1e-9)


def test_linear_constant_particular_solution():
    kappa0, ratio = 0.37, 2.5
    sol = solve_linear(np.full_like(GRID, kappa0), ratio, 1.0 / (ratio * kappa0), GRID)
    np.testing.assert_allclose(sol.lam, 1.0 / (ratio * kappa0), atol=1e-10)
    assert np.max(linear_ode_residual(sol, np.full_like(GRID, kappa0), ratio)) < 1e-10


def test_linear_residual_postcondition():
    sol = solve_linear(np.ones_like(GRID), 1.0, 2.0, GRID)
    assert np.max(linear_ode_residual(sol, np.ones_like(GRID), 1.0)) < 1e-8


def test_linear_overflow_guard():
    grid = np.linspace(0.0, 800.0, 2001)
    with pytest.raises(QuadratureRangeError):
        solve_linear(np.ones_like(grid), 1.0, 1.0, grid)


def test_linear_rejects_nonfinite_ratio():
    with pytest.raises(SpecificationError):
        solve_linear(np.ones_like(GRID), math.inf, 1.0, GRID)


# ---------------------------------------------------------------------------
# involute offset


def test_involute_values():
    sol = lambda_involute(1.0, GRID)
    i = np.argmin(np.abs(GRID - 1.0))
    assert sol.lam[i] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(sol.lam_prime, -1.0)
    np.testing.assert_allclose(sol.lam_double_prime, 0.0)
    np.testing.assert_allclose(np.abs(lambda_involute(0.0, GRID).lam), GRID)
    assert lambda_involute(-1.0, GRID).lam[0] == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# hyperbolic helix offset


def test_hyperbolic_particular_solution():
    sol = lambda_helix_hyperbolic(1.0, 1.0, INV_SQRT2, INV_SQRT2, 0.0, 0.0, GRID)
    np.testing.assert_allclose(sol.lam, INV_SQRT2, atol=1e-14)
    assert np.max(helix_ode_residual(sol, 1.0, 1.0, INV_SQRT2, INV_SQRT2)) < 1e-8


def test_hyperbolic_a_zero_collapses_to_constant():
    sol = lambda_helix_hyperbolic(0.0, 1.0, INV_SQRT2, INV_SQRT2, 5.0, 0.25, GRID)
    np.testing.assert_allclose(sol.lam, 0.25 + INV_SQRT2, atol=1e-14)


def test_hyperbolic_cosh_value_at_zero():
    sol = lambda_helix_hyperbolic(1.0, 1.0, INV_SQRT2, INV_SQRT2, 0.0, 1.0, GRID)
    assert sol.lam[0] == pytest.approx(1.0 + INV_SQRT2, abs=1e-14)


def test_hyperbolic_matches_rk4_of_second_order_ode():
    # Independent oracle: integrate lambda'' = (a/b)^2((lambda k - 1)k + lambda t^2)
    # with classical RK4 and compare against the closed form.
    a, b, k, t = 1.0, 1.0, INV_SQRT2, INV_SQRT2
    sol = lambda_helix_hyperbolic(a, b, k, t, 0.1, 0.2, GRID)
    h = GRID[1] - GRID[0]
    y = np.array([sol.lam[0], sol.lam_prime[0]])
    path = [y[0]]

    def f(y):
        return np.array([y[1], (a / b) ** 2 * ((y[0] * k - 1.0) * k + y[0] * t * t)])

    for _ in range(GRID.size - 1):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        path.append(y[0])
    np.testing.assert_allclose(np.asarray(path), sol.lam, atol=1e-10)


def test_hyperbolic_variant_report():
    report = helix_ode_variant_report(1.0, 1.0, INV_SQRT2, INV_SQRT2, 0.3, 0.4, GRID)
    assert report["satisfied"] == "standard"
    assert report["standard"] < 1e-8
    assert report["flipped"] > 1e-2


def test_hyperbolic_validation():
    with pytest.raises(SpecificationError):
        lambda_helix_hyperbolic(1.0, 0.0, 1.0, 1.0, 0.0, 0.0, GRID)
    with pytest.raises(SpecificationError):
        lambda_helix_hyperbolic(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, GRID)


# ---------------------------------------------------------------------------
# constant offsets


def test_half_curvature_values():
    assert lambda_half_curvature(INV_SQRT2, GRID).lam[0] == pytest.approx(math.sqrt(2) / 2)
    assert lambda_half_curvature(1.0, GRID).lam[0] == pytest.approx(0.5)
    with pytest.raises(SpecificationError):
        lambda_half_curvature(0.0, GRID)


def test_exponential_pair_solves_squared_constraint():
    a, b, tau = 1.0, 2.0, 0.7
    w = (a / b) * tau
    # c1*c2 = -1/(4 tau^2) additionally satisfies the unsquared constraint.
    c1 = 0.8
    c2 = -1.0 / (4.0 * tau * tau * c1)
    sol = lambda_exponential_pair(a, b, tau, c1, c2, GRID)
    np.testing.assert_allclose(sol.lam_double_prime, w * w * sol.lam, atol=1e-12)
    lhs = sol.lam_prime**2
    rhs = (a / b) ** 2 * (1.0 + sol.lam**2 * tau**2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


# ---------------------------------------------------------------------------
# Riccati


def test_riccati_matches_tangent_closed_form():
    sol = solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, GRID)
    exact = math.sqrt(2.0) * np.tan(GRID / (2.0 * math.sqrt(2.0)))
    assert np.max(np.abs(sol.lam - exact)) < 1e-6
    assert np.max(riccati_z_residual(sol, INV_SQRT2, INV_SQRT2)) < 1e-6


def test_riccati_fourth_order_convergence():
    errs = []
    for n in (21, 41):
        grid = np.linspace(0.0, 2.0, n)
        sol = solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, grid)
        exact = math.sqrt(2.0) * np.tan(grid / (2.0 * math.sqrt(2.0)))
        errs.append(np.max(np.abs(sol.lam - exact)))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_riccati_zero_kappa_is_constant():
    sol = solve_riccati(0.0, INV_SQRT2, 0.75, GRID)
    np.testing.assert_allclose(sol.lam, 0.75, atol=1e-12)


def test_riccati_finite_escape():
    grid = np.linspace(0.0, 5.0, 5001)
    with pytest.raises(FiniteEscapeError, match=r"\|y\| > 1e\+06 near s=4\.444$") as err:
        solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, grid)
    assert err.value.s == pytest.approx(math.pi * math.sqrt(2.0), abs=0.05)
    assert err.value.s == 4.444


def test_riccati_torsion_vanishing_at_half_step_escapes():
    # The grid check passes, but tau is exactly zero at one midpoint stage;
    # the division by zero there is a located escape at that step's end.
    h = float(GRID[1] - GRID[0])
    s0 = float(GRID[1000]) + 0.5 * h
    with pytest.raises(FiniteEscapeError) as err:
        solve_riccati(0.7, lambda s: s - s0, 0.3, GRID)
    assert err.value.s == float(GRID[1001])


def test_riccati_torsion_floor():
    with pytest.raises(TorsionDegenerateError):
        solve_riccati(1.0, 0.0, 0.0, GRID)


# ---------------------------------------------------------------------------
# Riccati linearization


def test_linearize_same_solution_degenerate():
    particular = solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, GRID)
    with pytest.raises(SpecificationError):
        riccati_linearize(particular, INV_SQRT2, INV_SQRT2, GRID, lambda0=particular.lam[0])


def test_linearize_matches_direct_rk4():
    particular = solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, GRID)
    lin = riccati_linearize(particular, INV_SQRT2, INV_SQRT2, GRID, mu0=1.0)
    assert lin.lam[0] == pytest.approx(particular.lam[0] + 1.0, abs=1e-12)
    direct = solve_riccati(INV_SQRT2, INV_SQRT2, 1.0, GRID)
    assert np.max(np.abs(lin.lam - direct.lam)) < 1e-5


def test_linearize_torsion_floor():
    particular = lambda_constant(0.0, GRID)
    with pytest.raises(TorsionDegenerateError):
        riccati_linearize(particular, 1.0, 0.0, GRID, mu0=1.0)


def test_linearize_pole_detection():
    # From lambda0 = 2 the general solution blows up inside [0, 2]; the
    # linearizing function must cross zero there.
    particular = solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, GRID)
    with pytest.raises(PoleError):
        riccati_linearize(particular, INV_SQRT2, INV_SQRT2, GRID, lambda0=2.0)


# ---------------------------------------------------------------------------
# constraint ODEs


def test_constraint_br_constant_branch_is_zero():
    # With lambda' = lambda'' = 0 the binormal/rectifying constraint reduces
    # to -lambda tau^2 (1 + lambda^2 tau^2) = 0, so only lambda = 0 remains.
    assert constant_admissible_lambda("BR", INV_SQRT2, INV_SQRT2) == 0.0
    lam = 0.6
    value = -lam * INV_SQRT2**2 * (1.0 + lam**2 * INV_SQRT2**2)
    from curvemates.association import xyz_coefficients

    X, Y, Z = xyz_coefficients(lam, 0.0, 0.0, INV_SQRT2, INV_SQRT2, 0.0, 0.0)
    assert -X * lam * INV_SQRT2 - Y == pytest.approx(value, rel=1e-12)


def test_constraint_nr_constant_branch(helix_base):
    sol = solve_constraint_ode("NR", INV_SQRT2, INV_SQRT2, (0.0, 0.0), GRID, ansatz="constant")
    assert sol.lam[0] == pytest.approx(INV_SQRT2, rel=1e-12)
    assert np.max(constraint_residual(sol, "NR", INV_SQRT2, INV_SQRT2)) < 1e-10


def test_constraint_no_constant_branch():
    sol = solve_constraint_ode("NO", INV_SQRT2, INV_SQRT2, (0.0, 0.0), GRID, ansatz="constant")
    assert sol.lam[0] == pytest.approx(1.0 / (2.0 * INV_SQRT2), rel=1e-12)
    assert np.max(constraint_residual(sol, "NO", INV_SQRT2, INV_SQRT2)) < 1e-10


def test_constraint_br_ivp_residual():
    sol = solve_constraint_ode("BR", INV_SQRT2, INV_SQRT2, (0.3, 0.0), GRID)
    assert np.max(constraint_residual(sol, "BR", INV_SQRT2, INV_SQRT2)) < 1e-6


def test_constraint_no_ivp_is_constant_on_constant_curvatures():
    sol = solve_constraint_ode("NO", INV_SQRT2, INV_SQRT2, (0.3, 0.0), GRID)
    np.testing.assert_allclose(sol.lam, 0.3, atol=1e-12)
    assert np.max(constraint_residual(sol, "NO", INV_SQRT2, INV_SQRT2)) < 1e-10


def test_constraint_nr_singular_at_degenerate_constant():
    # The constant branch sits exactly on the vanishing second-derivative
    # coefficient; integrating from it must report the singular location.
    with pytest.raises(SingularOdeError) as err:
        solve_constraint_ode("NR", INV_SQRT2, INV_SQRT2, (INV_SQRT2, 0.0), GRID)
    assert err.value.s == 0.0


def test_constraint_no_torsion_vanishing_at_half_step():
    # The torsion is nonzero on every grid point but vanishes exactly at the
    # midpoint abscissa s_i + h/2 of one step; the error must name that s.
    h = float(GRID[1] - GRID[0])
    s0 = float(GRID[1000]) + 0.5 * h
    assert not np.any(GRID == s0)
    with pytest.raises(SingularOdeError) as err:
        solve_constraint_ode("NO", INV_SQRT2, lambda s: s - s0, (0.3, 0.0), GRID)
    assert err.value.s == s0


def test_constraint_bo_first_order():
    # lambda' = ratio * sqrt(1 + lambda^2 tau^2) with ratio = 0 keeps lambda.
    sol = solve_constraint_ode("BO", INV_SQRT2, INV_SQRT2, (0.4, 0.0), GRID, ratio=0.0)
    np.testing.assert_allclose(sol.lam, 0.4, atol=1e-12)
    grown = solve_constraint_ode("BO", INV_SQRT2, INV_SQRT2, (0.0, 0.0), GRID, ratio=0.5)
    assert grown.lam[-1] > 1.0  # sinh-type growth


@pytest.mark.parametrize("cap", [math.inf, None])
@pytest.mark.parametrize("solve, grid, near", [
    (lambda g, cap: solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, g, cap=cap),
     np.linspace(0.0, 5.0, 5001), math.pi * math.sqrt(2.0)),
    (lambda g, cap: solve_constraint_ode("BO", INV_SQRT2, INV_SQRT2, (0.0, 0.0), g,
                                         ratio=1.0, cap=cap),
     np.linspace(0.0, 3000.0, 3001), None),
    (lambda g, cap: solve_constraint_ode("BR", INV_SQRT2, INV_SQRT2, (0.3, 0.0), g, cap=cap),
     np.linspace(0.0, 10.0, 2001), None),
], ids=["riccati", "BO", "BR"])
def test_rk4_overflow_is_finite_escape(solve, grid, near, cap):
    # Without a finite cap the trajectory runs until a float overflows; that
    # must still end in a located FiniteEscapeError, never a bare OverflowError
    # or non-finite samples.
    with pytest.raises(FiniteEscapeError) as err:
        solve(grid, cap)
    assert grid[0] < err.value.s <= grid[-1]
    if near is not None:
        assert err.value.s == pytest.approx(near, abs=0.05)


def test_constraint_unknown_family():
    with pytest.raises(SpecificationError):
        solve_constraint_ode("XX", 1.0, 1.0, (0.0, 0.0), GRID)


# ---------------------------------------------------------------------------
# LambdaSolution plumbing


def test_lambda_solution_alignment():
    sol = lambda_involute(0.0, GRID)
    with pytest.raises(AlignmentError):
        sol.require_grid(np.linspace(0.0, 2.0, 1999))
    with pytest.raises(AlignmentError):
        LambdaSolution(grid=GRID, lam=GRID, lam_prime=GRID[:-1], lam_double_prime=GRID,
                       provenance="constant")


@pytest.mark.parametrize("make", [
    lambda: solve_linear(np.ones_like(GRID), 1.0, 2.0, GRID),
    lambda: lambda_involute(1.0, GRID),
    lambda: lambda_helix_hyperbolic(1.0, 1.0, INV_SQRT2, INV_SQRT2, 0.1, 0.2, GRID),
    lambda: solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, GRID),
])
def test_prime_consistency(make):
    sol = make()
    h = sol.spacing()
    scale = 1.0 + float(np.max(np.abs(sol.lam)))
    assert sol.prime_consistency() < 5.0 * h * h * scale


# ---------------------------------------------------------------------------
# bit identity of the float RK4 against the numpy-stage reference
#
# The reference below is the array-per-stage RK4 and the five right-hand
# sides the solvers used before they stepped in plain floats. The float
# version keeps every expression's order and every ``** 2``, so the two
# must agree bit for bit, not merely within a tolerance.


def _ref_rk4_path(f, y0, grid, cap=None):
    h = float(grid[1] - grid[0])
    y = np.empty((grid.size,) + np.shape(y0), dtype=float)
    y[0] = y0
    for i in range(grid.size - 1):
        s = grid[i]
        yi = y[i]
        k1 = f(s, yi)
        k2 = f(s + 0.5 * h, yi + 0.5 * h * k1)
        k3 = f(s + 0.5 * h, yi + 0.5 * h * k2)
        k4 = f(s + h, yi + h * k3)
        y[i + 1] = yi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if cap is not None and not np.all(np.abs(y[i + 1]) <= cap):
            raise FiniteEscapeError("escape", s=float(grid[i + 1]))
    return y


def _ref_fns(kappa, tau):
    def as_fn(value):
        return value if callable(value) else (lambda s: float(value))

    def derivative(fn):
        return lambda s: (fn(s + 1e-5) - fn(s - 1e-5)) / (2.0 * 1e-5)

    k_fn, t_fn = as_fn(kappa), as_fn(tau)
    kp_fn = derivative(k_fn) if callable(kappa) else (lambda s: 0.0)
    tp_fn = derivative(t_fn) if callable(tau) else (lambda s: 0.0)
    return k_fn, t_fn, kp_fn, tp_fn


def _ref_solve(family, kappa, tau, lam0, grid, ratio=None):
    k_fn, t_fn, kp_fn, tp_fn = _ref_fns(kappa, tau)
    h = float(grid[1] - grid[0])
    if family == "riccati":
        def rhs(s, y):
            t = t_fn(s)
            k = k_fn(s)
            return np.array([(t * k / 2.0) * y[0] ** 2 - (tp_fn(s) / (2.0 * t)) * y[0]
                             + k / (2.0 * t)])

        lam = _ref_rk4_path(rhs, np.array([lam0]), grid, cap=1e6)[:, 0]
        taus = np.array([t_fn(s) for s in grid])
        kappas = np.array([k_fn(s) for s in grid])
        tps = np.array([tp_fn(s) for s in grid])
        lam_p = ((taus * kappas / 2.0) * lam**2 - (tps / (2.0 * taus)) * lam
                 + kappas / (2.0 * taus))
        return lam, lam_p, diff1(lam_p, h)
    if family in ("NO", "BO"):
        if family == "NO":
            def rhs(s, y):
                lam = y[0]
                t = t_fn(s)
                num = lam * lam * t * kp_fn(s) + (1.0 - lam * k_fn(s)) * lam * tp_fn(s)
                return np.array([-num / (2.0 * t)])
        else:
            def rhs(s, y):
                t = t_fn(s)
                return np.array([1.0 * ratio * math.sqrt(1.0 + (y[0] * t) ** 2)])

        lam = _ref_rk4_path(rhs, np.array([lam0]), grid, cap=1e6)[:, 0]
        lam_p = np.array([rhs(s, np.array([v]))[0] for s, v in zip(grid, lam)])
        return lam, lam_p, diff1(lam_p, h)

    def second_derivative(s, lam, lam_p):
        k, t = k_fn(s), t_fn(s)
        kp, tp = kp_fn(s), tp_fn(s)
        if family == "BR":
            denom = 1.0 + (lam * t) ** 2
            num = lam * t * (lam * lam * t**3 + t + lam * tp * lam_p + 2.0 * t * lam_p**2)
            return num / denom
        coeff = (lam * t) ** 2 - (1.0 - lam * k) ** 2
        d = (1.0 - lam * k) * k - lam * t * t
        k0 = lam_p * (lam * tp + 2.0 * lam_p * t) - lam * t * d
        m0 = (1.0 - lam * k) * d - lam_p * (-lam * kp - 2.0 * lam_p * k)
        rest = m0 * (lam * k - 1.0) - k0 * lam * t
        return -rest / coeff

    def rhs(s, y):
        return np.array([y[1], second_derivative(s, y[0], y[1])])

    path = _ref_rk4_path(rhs, np.array([lam0, 0.0]), grid, cap=1e6)
    lam, lam_p = path[:, 0], path[:, 1]
    lam_pp = np.array([second_derivative(s, a, b) for s, a, b in zip(grid, lam, lam_p)])
    return lam, lam_p, lam_pp


@pytest.mark.parametrize("coefficients", ["constant", "callable"])
@pytest.mark.parametrize("family", ["riccati", "NO", "BO", "BR", "NR"])
def test_rk4_bit_identical_to_numpy_stage_reference(family, coefficients):
    grid = np.linspace(0.0, 1.0, 2001)
    if coefficients == "constant":
        kappa, tau = 0.8, 0.6
    else:
        kappa = lambda s: 0.7 + 0.1 * math.sin(s)  # noqa: E731
        tau = lambda s: 0.6 + 0.1 * math.cos(3.0 * s)  # noqa: E731
    ratio = 0.7 if family == "BO" else None
    if family == "riccati":
        sol = solve_riccati(kappa, tau, 0.3, grid)
    else:
        sol = solve_constraint_ode(family, kappa, tau, (0.3, 0.0), grid, ratio=ratio)
    lam, lam_p, lam_pp = _ref_solve(family, kappa, tau, 0.3, grid, ratio=ratio)
    assert np.array_equal(sol.lam, lam)
    assert np.array_equal(sol.lam_prime, lam_p)
    assert np.array_equal(sol.lam_double_prime, lam_pp)
    # NO on constant curvatures keeps lambda constant; every other case moves it.
    assert np.all(np.isfinite(lam_pp))
    assert (float(np.ptp(lam)) > 1e-3) != (family == "NO" and coefficients == "constant")
