import math
import tracemalloc
import warnings

import numpy as np
import pytest

from curvemates.errors import (
    AlignmentError,
    FiniteEscapeError,
    InsufficientDataError,
    PoleError,
    QuadratureRangeError,
    SingularOdeError,
    SpecificationError,
    TorsionDegenerateError,
)
from curvemates.association import FAMILIES, plane_condition
from curvemates.numdiff import diff1, diff1_o4
from curvemates import solvers
from curvemates.solvers import (
    LambdaSolution,
    _as_grid_array,
    _coefficient_arrays,
    _coefficients,
    _rhs,
    constant_admissible_lambda,
    constraint_residual,
    lambda_constant,
    lambda_exponential_pair,
    lambda_half_curvature,
    lambda_helix_hyperbolic,
    lambda_involute,
    offset_residual,
    riccati_linearize,
    solve_constraint_ode,
    solve_linear,
    solve_riccati,
)

from conftest import helix_equation, linear_equation, prime_consistency, riccati_z

INV_SQRT2 = 1.0 / math.sqrt(2.0)
GRID = np.linspace(0.0, 2.0, 2001)
# (kappa, tau) of two circular helices: a = b = 1/sqrt(2), and a = 0.8, b = 0.6.
HELICES = [(INV_SQRT2, INV_SQRT2), (0.8, 0.6)]


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
    assert np.max(offset_residual(sol, linear_equation(kappa0, ratio), 1)) < 1e-10


def test_linear_residual_postcondition():
    sol = solve_linear(np.ones_like(GRID), 1.0, 2.0, GRID)
    assert np.max(offset_residual(sol, linear_equation(1.0, 1.0), 1)) < 1e-8


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
    assert np.max(offset_residual(sol, helix_equation(1.0, 1.0, INV_SQRT2, INV_SQRT2), 2)) < 1e-8


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
    """The closed form obeys the printed sign of the helix ODE, and the
    bracket with the curvature term negated, (1 - lambda*kappa)*kappa +
    lambda*tau^2, misses it by far."""
    a = b = 1.0
    k = t = INV_SQRT2
    sol = lambda_helix_hyperbolic(a, b, k, t, 0.3, 0.4, GRID)
    standard = float(np.max(offset_residual(sol, helix_equation(a, b, k, t), 2)))
    flipped = float(np.max(offset_residual(
        sol, lambda lam, _, lam_pp: lam_pp - (a / b) ** 2 * ((1.0 - lam * k) * k + lam * t * t),
        2)))
    assert standard <= flipped  # the standard variant is the one satisfied
    assert standard < 1e-8
    assert flipped > 1e-2


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


# Each shipped closed form on a circular helix (kappa, tau), read against its
# family's raw plane condition on its exact lambda, lambda' and lambda''. The
# raw value, not the normalized one: on the axis mates (NO at a = b, NR's
# constant branch) |w| is itself round-off, so a ratio means nothing there.
@pytest.mark.parametrize("code, kappa, tau, closed_form", [
    pytest.param("NO", INV_SQRT2, INV_SQRT2, lambda g: lambda_half_curvature(INV_SQRT2, g),
                 id="NO-half-curvature"),
    pytest.param("NR", INV_SQRT2, INV_SQRT2, lambda g: lambda_constant(
        constant_admissible_lambda("NR", INV_SQRT2, INV_SQRT2), g), id="NR-constant"),
    pytest.param("BR", INV_SQRT2, INV_SQRT2, lambda g: lambda_constant(
        constant_admissible_lambda("BR", INV_SQRT2, INV_SQRT2), g), id="BR-constant"),
    # On the unit circle tau = 0, so NO's L vanishes for every lambda.
    pytest.param("NO", 1.0, 0.0, lambda g: lambda_helix_hyperbolic(1.0, 1.0, 1.0, 0.0, 0.3, 0.1, g),
                 id="NO-hyperbolic-circle"),
    pytest.param("NO", 0.8, 0.6, lambda g: lambda_helix_hyperbolic(1.0, 1.0, 0.8, 0.6, 0.3, 0.1, g),
                 id="NO-hyperbolic-helix", marks=pytest.mark.xfail(
                     strict=True, reason="on a helix L = -2 tau lambda', and the hyperbolic "
                     "form has lambda' != 0: |L| reaches 1.79, |L|/|w| 0.894")),
    pytest.param("BO", INV_SQRT2, INV_SQRT2, lambda g: lambda_exponential_pair(
        1.0, 1.0, INV_SQRT2, 0.5, -1.0, g), id="BO-exponential-pair", marks=pytest.mark.xfail(
            strict=True, reason="the pair solves lambda'^2 = (a/b)^2 (1 + lambda^2 tau^2), "
            "not BO's Z = 0: |Z| and |Z|/|w| reach 0.71")),
])
def test_closed_form_satisfies_its_family_constraint(code, kappa, tau, closed_form):
    sol = closed_form(GRID)
    k, t, zero = np.full(GRID.shape, kappa), np.full(GRID.shape, tau), np.zeros(GRID.shape)
    raw, _ = plane_condition(code[0], code[1], (sol.lam, sol.lam_prime, sol.lam_double_prime),
                             (k, zero), (t, zero))
    assert np.max(np.abs(raw)) <= 1e-12


# ---------------------------------------------------------------------------
# Riccati


def test_riccati_matches_tangent_closed_form():
    # lambda = (1/tau) tan(kappa s/2 + atan(lambda0 tau)) on a circular helix.
    for (kappa, tau), lam0 in zip(HELICES, (0.0, 0.3)):
        sol = solve_riccati(kappa, tau, lam0, GRID)
        exact = np.tan(kappa * GRID / 2.0 + math.atan(lam0 * tau)) / tau
        assert np.max(np.abs(sol.lam - exact)) < 1e-6
        assert np.max(offset_residual(sol, riccati_z(kappa, tau), 1)) < 1e-6


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


def test_numpy_scalar_torsion_vanishing_at_half_step_escapes_without_warnings():
    # A callable returning numpy scalars steps in Python floats all the same:
    # the midpoint division by zero raises, rather than warning and carrying
    # inf to the step's end, so the escape is the float one, located alike.
    h = float(GRID[1] - GRID[0])
    s0 = float(GRID[1000]) + 0.5 * h
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FiniteEscapeError) as err:
            solve_riccati(0.7, lambda s: np.float64(s) - s0, 0.3, GRID)
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


def test_linearize_callable_torsion_matches_direct_rk4():
    # tau' follows the rule solve_riccati uses, so a particular solution on a
    # varying torsion passes the residual check and the two paths agree.
    tau = lambda s: 0.6 + 0.1 * math.cos(3.0 * s)  # noqa: E731
    particular = solve_riccati(0.7, tau, 0.0, GRID)
    lin = riccati_linearize(particular, 0.7, tau, GRID, lambda0=0.5)
    direct = solve_riccati(0.7, tau, 0.5, GRID)
    assert np.max(np.abs(lin.lam - direct.lam)) < 1e-10


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
    sol = lambda_constant(constant_admissible_lambda("NR", INV_SQRT2, INV_SQRT2), GRID)
    assert sol.lam[0] == pytest.approx(INV_SQRT2, rel=1e-12)
    assert np.max(constraint_residual(sol, "NR", INV_SQRT2, INV_SQRT2)) < 1e-10


def test_constraint_no_constant_branch():
    sol = lambda_constant(constant_admissible_lambda("NO", INV_SQRT2, INV_SQRT2), GRID)
    assert sol.lam[0] == pytest.approx(1.0 / (2.0 * INV_SQRT2), rel=1e-12)
    assert np.max(constraint_residual(sol, "NO", INV_SQRT2, INV_SQRT2)) < 1e-10


def test_constraint_br_ivp_residual():
    sol = solve_constraint_ode("BR", INV_SQRT2, INV_SQRT2, (0.3, 0.0), GRID)
    assert np.max(constraint_residual(sol, "BR", INV_SQRT2, INV_SQRT2)) < 1e-6


def test_constraint_no_ivp_is_constant_on_constant_curvatures():
    for kappa, tau in HELICES:
        sol = solve_constraint_ode("NO", kappa, tau, (0.3, 0.0), GRID)
        np.testing.assert_allclose(sol.lam, 0.3, atol=1e-12)
        assert np.max(constraint_residual(sol, "NO", kappa, tau)) < 1e-10


@pytest.mark.parametrize("n", [2001, 20001])
@pytest.mark.parametrize("kappa, tau", HELICES)
def test_constraint_br_ivp_keeps_its_first_integral(kappa, tau, n):
    # With theta = atan(lambda tau), BR's constraint on a circular helix is
    # theta'' = (tau^2/2) sin 2 theta, so E = theta'^2 + (tau^2/2) cos 2 theta
    # is constant along every solution.
    sol = solve_constraint_ode("BR", kappa, tau, (0.5, 0.1), np.linspace(0.0, 1.5, n))
    theta = np.arctan(sol.lam * tau)
    theta_p = tau * sol.lam_prime / (1.0 + (sol.lam * tau) ** 2)
    energy = theta_p**2 + 0.5 * tau**2 * np.cos(2.0 * theta)
    assert energy[0] > 0.1
    assert np.max(np.abs(energy - energy[0])) < 1e-13


@pytest.mark.parametrize("family", ["NO", "NR", "BR"])
def test_constraint_residual_default_slopes_follow_the_solver(family):
    # kappa' and tau' left to their default are the solver's own central
    # differences, so a correct solve on varying coefficients reads small.
    grid = np.linspace(0.0, 1.0, 2001)
    kappa = lambda s: 0.7 + 0.1 * math.sin(s)  # noqa: E731
    tau = lambda s: 0.6 + 0.1 * math.cos(3.0 * s)  # noqa: E731
    sol = solve_constraint_ode(family, kappa, tau, (0.3, 0.0), grid)
    assert np.max(constraint_residual(sol, family, kappa, tau)) < 1e-6


def test_constraint_nr_singular_at_degenerate_constant():
    # The second-derivative coefficient (1 - lambda kappa)^2 + (lambda tau)^2
    # vanishes only where lambda tau = 0 and lambda kappa = 1, as on a circle
    # (kappa = 1, tau = 0) from lambda = 1, its centre; integrating from there
    # must report the singular location.
    with pytest.raises(SingularOdeError) as err:
        solve_constraint_ode("NR", 1.0, 0.0, (1.0, 0.0), GRID)
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
@pytest.mark.parametrize("solve, grid, escapes", [
    (lambda g: solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, g), np.linspace(0.0, 5.0, 5001),
     {None: 4.444, math.inf: 4.446}),
    (lambda g: solve_constraint_ode("BO", INV_SQRT2, INV_SQRT2, (0.0, 0.0), g, ratio=1.0),
     np.linspace(0.0, 3000.0, 3001), {None: 21.0, math.inf: 504.0}),
    (lambda g: solve_constraint_ode("BR", INV_SQRT2, INV_SQRT2, (0.3, 0.0), g),
     np.linspace(0.0, 10.0, 2001), {None: 4.215, math.inf: 4.25}),
    (lambda g: solve_constraint_ode("NR", INV_SQRT2, INV_SQRT2, (0.3, 0.0), g),
     np.linspace(0.0, 3.0, 3001), {None: 2.158, math.inf: 2.166}),
    (lambda g: solve_riccati(INV_SQRT2, INV_SQRT2, 1e300, g), np.linspace(0.0, 1.0, 11),
     {None: None, math.inf: 0.1}),
], ids=["riccati", "BO", "BR", "NR", "riccati-stage-overflow"])
def test_rk4_overflow_is_finite_escape(solve, grid, escapes, cap, monkeypatch):
    # The step that leaves |y| <= BLOWUP_CAP, or whose float arithmetic
    # overflows (1e300 ** 2 raises OverflowError), ends in a FiniteEscapeError
    # located at its end point, never a bare OverflowError or non-finite
    # samples. cap None keeps the shipped BLOWUP_CAP = 1e6; cap inf lifts it,
    # so every trajectory runs on until a float overflows. The Riccati
    # trajectory from 0 escapes just past its pole at s = pi sqrt(2) = 4.4429.
    # A start beyond the cap (escape None) is refused before the first step.
    if cap is not None:
        monkeypatch.setattr(solvers, "BLOWUP_CAP", cap)
    limit = solvers.BLOWUP_CAP if cap is None else cap
    if escapes[cap] is None:
        with pytest.raises(SpecificationError) as err:
            solve(grid)
        assert err.value.s == 0.0
        assert str(err.value) == f"start 1e+300 lies outside |y| <= BLOWUP_CAP = {limit:g} at s=0"
        return
    with pytest.raises(FiniteEscapeError) as err:
        solve(grid)
    assert err.value.s == escapes[cap]
    assert str(err.value) == f"trajectory escaped |y| > {limit:g} near s={escapes[cap]:g}"


@pytest.mark.parametrize("call, message", [
    (lambda: solve_constraint_ode("BO", INV_SQRT2, INV_SQRT2, (0.0, 0.0), GRID),
     "BO constraint needs ratio = a/b"),
    (lambda: solve_constraint_ode("riccati", INV_SQRT2, INV_SQRT2, (0.0, 0.0), GRID),
     "unknown constraint family 'riccati'"),
    (lambda: constraint_residual(lambda_constant(0.0, GRID), "XY", INV_SQRT2, INV_SQRT2),
     "unknown constraint family 'XY'"),
    (lambda: constraint_residual(lambda_constant(0.0, GRID), "TP", INV_SQRT2, INV_SQRT2),
     "unknown constraint family 'TP'"),
    (lambda: riccati_linearize(solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, GRID),
                               INV_SQRT2, INV_SQRT2, GRID),
     "provide mu0 or lambda0"),
    (lambda: lambda_exponential_pair(1.0, 0.0, INV_SQRT2, 0.1, 0.2, GRID), "b must be nonzero"),
    (lambda: constant_admissible_lambda("NR", 0.0, INV_SQRT2), "kappa must be positive"),
    (lambda: constant_admissible_lambda("TP", INV_SQRT2, INV_SQRT2),
     "no constant branch catalogued for family TP"),
], ids=["BO without ratio", "riccati is not a constraint family", "residual of XY",
        "residual of TP, which has no coefficient check",
        "linearize without a start", "exponential pair b=0", "NR constant kappa=0",
        "TP constant"])
def test_solver_specification_errors(call, message):
    with pytest.raises(SpecificationError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("family", ["BO", "BR"])
def test_sampled_coefficients_need_their_derivatives(family):
    # Zeroing (or differencing) a sampled tau' misjudges a valid solution:
    # the BO residual read 0.76 with tau' = 0 against 1.7e-9 with callables.
    grid = np.linspace(0.0, 1.0, 2001)
    tau = lambda s: 0.6 + 0.1 * np.cos(3.0 * s)
    sol = (solve_riccati(0.7, tau, 0.3, grid) if family == "BO"
           else solve_constraint_ode("BR", 0.7, tau, (0.5, 0.1), grid))
    kappas, taus = np.full(grid.size, 0.7), tau(grid)
    for kappa, t, name in ((kappas, tau, "kappa"), (0.7, taus, "tau")):
        with pytest.raises(SpecificationError) as err:
            constraint_residual(sol, family, kappa, t)
        assert str(err.value) == f"sampled {name} needs {name}' given; it is not differenced"
    slopes = (np.zeros(grid.size), -0.3 * np.sin(3.0 * grid))
    assert np.max(constraint_residual(sol, family, kappas, taus, *slopes)) < 1e-6
    if family == "BO":  # riccati_linearize takes constants and callables, as RK4 does
        with pytest.raises(SpecificationError) as err:
            riccati_linearize(sol, kappas, taus, grid, lambda0=0.5)
        assert str(err.value) == "sampled kappa needs kappa' given; it is not differenced"
        riccati_linearize(sol, 0.7, tau, grid, lambda0=0.5)


@pytest.mark.parametrize("family", ["NO", "NR", "BO", "BR"])
def test_constraint_residual_peak_memory(family):
    # The plane condition's Frenet derivative forms each component right
    # after its own Leibniz products; forming all products first held
    # 13 x 8n bytes at the peak for NO and NR, against 11 x 8n now (plus a few
    # KiB of Python objects, which the 64 KiB margin covers).
    n = 200_001
    grid = np.linspace(0.0, 3.0, n)
    sol = lambda_helix_hyperbolic(1.0, 1.0, INV_SQRT2, INV_SQRT2, 0.1, 0.2, grid)
    sampled, zeros = np.full(n, INV_SQRT2), np.zeros(n)
    tracemalloc.start()
    try:
        constraint_residual(sol, family, sampled, sampled, zeros, zeros)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 8 * n + 2**16


def test_linear_rejects_a_misaligned_kappa():
    with pytest.raises(AlignmentError) as err:
        solve_linear(np.ones(GRID.size - 1), 1.0, 1.0, GRID)
    assert str(err.value) == "sampled coefficient not aligned with grid"


def test_constraint_unknown_family():
    with pytest.raises(SpecificationError):
        solve_constraint_ode("XX", 1.0, 1.0, (0.0, 0.0), GRID)


@pytest.mark.parametrize("sampled", ["kappa", "tau"])
@pytest.mark.parametrize("solve", [
    lambda k, t: solve_riccati(k, t, 0.0, GRID),
    lambda k, t: solve_constraint_ode("NO", k, t, (0.3, 0.0), GRID),
    lambda k, t: solve_constraint_ode("BO", k, t, (0.0, 0.0), GRID, ratio=0.5),
    lambda k, t: solve_constraint_ode("BR", k, t, (0.5, 0.0), GRID),
    lambda k, t: solve_constraint_ode("NR", k, t, (0.5, 0.0), GRID),
], ids=["riccati", "NO", "BO", "BR", "NR"])
def test_rk4_solvers_reject_sampled_coefficients(solve, sampled):
    # RK4 stages sit between grid points, where a sampled array has no value.
    arrays = {"kappa": INV_SQRT2, "tau": INV_SQRT2, sampled: np.full(GRID.shape, INV_SQRT2)}
    with pytest.raises(SpecificationError, match="constants or callables"):
        solve(arrays["kappa"], arrays["tau"])


# ---------------------------------------------------------------------------
# each hand-written RK4 kernel against its family's plane condition
#
# A family's raw plane condition g is affine in the derivative that its kernel
# returns (lambda' for NO and BO's Riccati, lambda'' for NR and BR), so the
# value that zeroes it is -g(0) / (g(1) - g(0)). The "BO" ratio IVP of _rhs
# keeps <B, T*> fixed, not a plane condition, so it has no case here.


@pytest.mark.parametrize("code, kernel", [
    ("NO", "NO"), ("NR", "NR"), ("BR", "BR"), ("BO", "riccati"),
])
def test_rk4_kernel_zeroes_its_family_coefficient(code, kernel):
    rng = np.random.default_rng(20211)
    for _ in range(2000):
        # s, kappa(s), and the slopes of the linear kappa and tau
        s, k0, dk, dt = (float(v) for v in rng.uniform((0, 0.2, -1, -1), (3, 2, 1, 1)))
        t0 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0))
        lam, lam_p = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        kappa = lambda x: k0 + dk * (x - s)  # noqa: E731
        tau = lambda x: t0 + dt * (x - s)  # noqa: E731
        k, t, kp, tp = _coefficients(kappa, tau)(s)
        rhs = _rhs(kernel, kappa, tau)
        if code in ("NR", "BR"):
            got = rhs(s, lam, lam_p)
            g = lambda top: plane_condition(  # noqa: E731
                code[0], code[1], (lam, lam_p, top), (k, kp), (t, tp))[0]
        else:
            got = rhs(s, lam)
            g = lambda top: plane_condition(  # noqa: E731
                code[0], code[1], (lam, top, 0.0), (k, kp), (t, tp))[0]
        derived = -g(0.0) / (g(1.0) - g(0.0))
        assert abs(got - derived) <= 1e-12 * max(1.0, abs(derived)), (s, k, t, kp, tp, lam, lam_p)


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
    assert prime_consistency(sol) < 5.0 * h * h * scale


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
        coeff = (1.0 - lam * k) ** 2 + (lam * t) ** 2
        d = (1.0 - lam * k) * k - lam * t * t
        k0 = lam_p * (lam * tp + 2.0 * lam_p * t) - lam * t * d
        m0 = (1.0 - lam * k) * d - lam_p * (-lam * kp - 2.0 * lam_p * k)
        rest = m0 * (1.0 - lam * k) - k0 * lam * t
        return -rest / coeff

    def rhs(s, y):
        return np.array([y[1], second_derivative(s, y[0], y[1])])

    path = _ref_rk4_path(rhs, np.array([lam0, 0.0]), grid, cap=1e6)
    lam, lam_p = path[:, 0], path[:, 1]
    lam_pp = np.array([second_derivative(s, a, b) for s, a, b in zip(grid, lam, lam_p)])
    return lam, lam_p, lam_pp


@pytest.mark.parametrize("family, grid", [
    ("BR", np.linspace(0.0, 10.0, 2001)), ("NR", np.linspace(0.0, 3.0, 3001)),
])
def test_second_order_escape_matches_numpy_stage_reference(family, grid):
    # The second-order loop checks |lambda| and |lambda'| after every step,
    # as the reference checks its (n, 2) state, so both stop at one grid point.
    with pytest.raises(FiniteEscapeError) as ref:
        _ref_solve(family, INV_SQRT2, INV_SQRT2, 0.3, grid)
    with pytest.raises(FiniteEscapeError) as err:
        solve_constraint_ode(family, INV_SQRT2, INV_SQRT2, (0.3, 0.0), grid)
    assert err.value.s == ref.value.s


@pytest.mark.parametrize("family", ["riccati", "NO", "BO", "BR", "NR"])
def test_rk4_numpy_scalar_coefficients_step_in_floats(family):
    # Callables that return numpy scalars give the coefficients as Python
    # floats, so every RK4 stage is float arithmetic with the same bits.
    grid = np.linspace(0.0, 1.0, 2001)
    kappa_np = lambda s: 0.7 + 0.1 * np.sin(s)  # noqa: E731
    tau_np = lambda s: 0.6 + 0.1 * np.cos(3.0 * s)  # noqa: E731
    kappa, tau = (lambda s: float(kappa_np(s))), (lambda s: float(tau_np(s)))
    assert type(tau_np(0.5)) is np.float64
    assert all(type(v) is float for v in _coefficients(kappa_np, tau_np)(0.5))

    def solve(k, t):
        if family == "riccati":
            return solve_riccati(k, t, 0.3, grid)
        return solve_constraint_ode(family, k, t, (0.3, 0.0), grid,
                                    ratio=0.7 if family == "BO" else None)

    want, got = solve(kappa, tau), solve(kappa_np, tau_np)
    for name in ("lam", "lam_prime", "lam_double_prime"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("coefficients", ["constant", "callable", "mixed"])
@pytest.mark.parametrize("family", ["riccati", "NO", "BO", "BR", "NR"])
def test_rk4_bit_identical_to_numpy_stage_reference(family, coefficients):
    grid = np.linspace(0.0, 1.0, 2001)
    kappa, tau = 0.8, 0.6
    if coefficients == "callable":
        kappa = lambda s: 0.7 + 0.1 * math.sin(s)  # noqa: E731
    if coefficients != "constant":
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


# ---------------------------------------------------------------------------
# bit identity of offset_residual against the per-equation residuals
#
# The four functions below are the residuals the solvers module had before
# offset_residual, verbatim but for their names. Each picked its own stencils
# and trim; the one rule must give their values bit for bit.


def _ref_linear_ode(sol: LambdaSolution, kappa, ratio: float) -> np.ndarray:
    """|1 + lambda' - ratio*lambda*kappa| with fourth-order FD lambda'."""
    kappa_arr = _as_grid_array(kappa, sol.grid)
    lam_p = diff1_o4(sol.lam, sol.spacing())
    res = np.abs(1.0 + lam_p - ratio * sol.lam * kappa_arr)
    return res[2:-2]


def _ref_helix_ode(
    sol: LambdaSolution, a: float, b: float, kappa: float, tau: float,
) -> np.ndarray:
    """Residual of lambda'' = (a/b)^2 ((lambda*kappa - 1)*kappa + lambda*tau^2)
    with fourth-order FD lambda''."""
    h = sol.spacing()
    lam_pp = diff1_o4(diff1_o4(sol.lam, h), h)
    lam = sol.lam
    bracket = (lam * kappa - 1.0) * kappa + lam * tau * tau
    res = np.abs(lam_pp - (a / b) ** 2 * bracket)
    return res[4:-4]


def _ref_riccati_z(sol: LambdaSolution, kappa, tau) -> np.ndarray:
    """|Z| = |-lambda tau' - 2 lambda' tau + kappa + lambda^2 tau^2 kappa|.

    lambda' comes from fourth-order differences of the lambda samples, so a
    vanishing residual is an independent confirmation, not a tautology; tau'
    follows _slope, as in solve_riccati.
    """
    k, t, _, tp = _coefficient_arrays(sol.grid, kappa, tau)
    lam = sol.lam
    lam_p = diff1_o4(lam, sol.spacing())
    z = -lam * tp - 2.0 * lam_p * t + k + lam**2 * t**2 * k
    return np.abs(z)[2:-2]


def _ref_constraint(
    sol: LambdaSolution, family: str, kappa, tau,
    kappa_prime=None, tau_prime=None,
) -> np.ndarray:
    """Normalized plane-condition residual along a solution.

    Uses fourth-order differences of lambda for lambda' and lambda''. The
    raw value is normalized by |w| = |alpha*' x alpha*''|, both taken from
    plane_condition, so the numbers are comparable across families and
    scales. kappa' and tau' left None follow _slope, as in
    solve_constraint_ode.
    """
    entry = FAMILIES.get(family)
    if entry is None or entry.coefficient is None:
        raise SpecificationError(f"unknown constraint family {family!r}")
    h = sol.spacing()
    k, t, kp, tp = _coefficient_arrays(sol.grid, kappa, tau, kappa_prime, tau_prime)
    lam = sol.lam
    lam_p = diff1_o4(lam, h)
    lam_pp = diff1_o4(lam_p, h)

    raw, norm = plane_condition(entry.vector, entry.plane, (lam, lam_p, lam_pp),
                                (k, kp), (t, tp))
    scale = np.where(norm > 1e-12, norm, 1.0)
    return (np.abs(raw) / scale)[4:-4]


REF_SIZES = [9, 2001, 20001]


def _ref_coefficients(kind):
    if kind == "constant":
        return 0.8, 0.6
    return (lambda s: 0.7 + 0.1 * math.sin(s)), (lambda s: 0.6 + 0.1 * math.cos(3.0 * s))


def _assert_bits(got, want):
    assert got.size >= 1
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", REF_SIZES)
@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
def test_offset_residual_bits_linear(ratio, n):
    grid = np.linspace(0.0, 1.0, n)
    for kappa in (np.full(n, 0.8), 0.7 + 0.1 * np.sin(grid)):
        sol = solve_linear(kappa, ratio, 1.0, grid)
        _assert_bits(offset_residual(sol, linear_equation(kappa, ratio), 1),
                     _ref_linear_ode(sol, kappa, ratio))


@pytest.mark.parametrize("n", REF_SIZES)
def test_offset_residual_bits_hyperbolic(n):
    a, b, k, t = 0.7, 1.3, 0.8, 0.6
    sol = lambda_helix_hyperbolic(a, b, k, t, 0.3, 0.4, np.linspace(0.0, 1.0, n))
    _assert_bits(offset_residual(sol, helix_equation(a, b, k, t), 2),
                 _ref_helix_ode(sol, a, b, k, t))


@pytest.mark.parametrize("n", REF_SIZES)
@pytest.mark.parametrize("kind", ["constant", "callable"])
def test_offset_residual_bits_riccati(kind, n):
    grid = np.linspace(0.0, 1.0, n)
    kappa, tau = _ref_coefficients(kind)
    k, t, _, tp = _coefficient_arrays(grid, kappa, tau)
    particular = solve_riccati(kappa, tau, 0.3, grid)
    worst = float(np.max(_ref_riccati_z(particular, kappa, tau)))
    _assert_bits(offset_residual(particular, riccati_z(k, t, tp), 1),
                 _ref_riccati_z(particular, kappa, tau))
    # riccati_linearize's own check of the particular solution rejects
    # exactly when the reference residual exceeds its 1e-6 bound.
    if worst > 1e-6:
        with pytest.raises(SpecificationError, match="particular solution residual"):
            riccati_linearize(particular, kappa, tau, grid, lambda0=0.5)
        return
    lin = riccati_linearize(particular, kappa, tau, grid, lambda0=0.5)
    _assert_bits(offset_residual(lin, riccati_z(k, t, tp), 1), _ref_riccati_z(lin, kappa, tau))


@pytest.mark.parametrize("n", REF_SIZES)
@pytest.mark.parametrize("kind", ["constant", "callable"])
@pytest.mark.parametrize("family", ["NO", "NR", "BR", "BO"])
def test_constraint_residual_bits(family, kind, n):
    grid = np.linspace(0.0, 1.0, n)
    kappa, tau = _ref_coefficients(kind)
    ratio = 0.7 if family == "BO" else None
    sol = solve_constraint_ode(family, kappa, tau, (0.3, 0.0), grid, ratio=ratio)
    _assert_bits(constraint_residual(sol, family, kappa, tau),
                 _ref_constraint(sol, family, kappa, tau))
    # Sampled slopes, as the oracle passes them from the base frames.
    slopes = (0.1 * np.cos(grid), -0.3 * np.sin(3.0 * grid))
    _assert_bits(constraint_residual(sol, family, kappa, tau, *slopes),
                 _ref_constraint(sol, family, kappa, tau, *slopes))


@pytest.mark.parametrize("order", [1, 2])
def test_offset_residual_keeps_one_row_at_the_smallest_grid(order):
    n = 4 * order + 1
    sol = lambda_involute(1.0, np.linspace(0.0, 1.0, n))
    assert offset_residual(sol, lambda lam, lam_p, _: 1.0 + lam_p, order).shape == (1,)
    short = lambda_involute(1.0, np.linspace(0.0, 1.0, n - 1))
    with pytest.raises(InsufficientDataError, match=f"at least {n} samples, got {n - 1}"):
        offset_residual(short, lambda lam, lam_p, _: 1.0 + lam_p, order)
