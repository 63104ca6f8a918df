"""Offset-function solvers.

The scalar offset lambda(s) obeys, depending on the family:
  * a first-order linear ODE  1 + lambda' = r * lambda * kappa   (tangent offsets),
  * lambda = -s + c            (tangent/normal-plane offsets, involutes),
  * a constant-coefficient second-order ODE with hyperbolic solutions
    (normal offsets on helices),
  * a Riccati equation          (binormal/osculating offsets),
  * implicit first/second-order constraint ODEs (remaining families).

Closed forms are evaluated exactly; quadrature is cumulative composite
Simpson; initial-value integration is classical fixed-step RK4, stepped in
plain Python floats (a float state, or a pair for second-order ODEs) with
no per-stage arrays. Residuals are always evaluated with independent
finite differences of the lambda samples, never with derivatives recycled
from the defining equation.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    AlignmentError,
    FiniteEscapeError,
    PoleError,
    QuadratureRangeError,
    SingularOdeError,
    SpecificationError,
    TorsionDegenerateError,
)
from .numdiff import cumulative_simpson, diff1, diff1_o4, uniform_spacing

TORSION_FLOOR = 1e-8
BLOWUP_CAP_DEFAULT = 1e6
_EXP_LIMIT = 700.0  # log of the largest double
_DOUBLE_MAX = sys.float_info.max


@dataclass(frozen=True)
class LambdaSolution:
    """Offset function samples with first and second derivatives."""

    grid: np.ndarray
    lam: np.ndarray
    lam_prime: np.ndarray
    lam_double_prime: np.ndarray
    provenance: str
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        for name in ("lam", "lam_prime", "lam_double_prime"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != g.shape:
                raise AlignmentError(f"{name} not aligned with grid")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "grid", g)

    def spacing(self) -> float:
        return uniform_spacing(self.grid)

    def lam_third(self) -> np.ndarray:
        """Third derivative by differencing the second-derivative samples."""
        return diff1(self.lam_double_prime, self.spacing())

    def require_grid(self, grid: np.ndarray) -> None:
        grid = np.asarray(grid, dtype=float)
        if self.grid.shape != grid.shape or not np.allclose(self.grid, grid, atol=1e-12):
            raise AlignmentError("lambda grid does not match the curve grid")

    def prime_consistency(self) -> float:
        """Max interior gap between stored lambda' and central differences."""
        fd = diff1(self.lam, self.spacing())
        return float(np.max(np.abs(fd[1:-1] - self.lam_prime[1:-1])))

    def is_constant(self, tol: float = 1e-10) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.lam))))
        return float(np.max(np.abs(self.lam_prime))) <= tol * scale


def _as_grid_array(value, grid: np.ndarray) -> np.ndarray:
    """Coerce a scalar, array, or callable to samples on ``grid``."""
    if callable(value):
        return np.asarray([float(value(s)) for s in grid], dtype=float)
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.shape, float(arr))
    if arr.shape != grid.shape:
        raise AlignmentError("sampled coefficient not aligned with grid")
    return arr


def _as_fn(value, name: str) -> Callable[[float], float]:
    if callable(value):
        return value
    v = float(value)
    return lambda s: v


def _fn_derivative(fn: Callable[[float], float], h: float = 1e-5) -> Callable[[float], float]:
    return lambda s: (fn(s + h) - fn(s - h)) / (2.0 * h)


def solve_linear_first_order(
    p, q, y0: float, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Integrating-factor solution of y' = p(s) y + q(s), y(grid[0]) = y0.

    Returns (y, y') with y' from the ODE relation. Raises
    QuadratureRangeError when the integrating factor would overflow.
    """
    grid = np.asarray(grid, dtype=float)
    h = uniform_spacing(grid)
    p_arr = _as_grid_array(p, grid)
    q_arr = _as_grid_array(q, grid)
    bigP = cumulative_simpson(p_arr, h)
    if float(np.max(np.abs(bigP))) > _EXP_LIMIT:
        raise QuadratureRangeError(
            "integrating factor overflows on this grid; split the domain"
        )
    growth = np.exp(bigP)
    decay = np.exp(-bigP)
    y = growth * (y0 + cumulative_simpson(decay * q_arr, h))
    y_prime = p_arr * y + q_arr
    return y, y_prime


def solve_linear(kappa, ratio: float, c1: float, grid: np.ndarray) -> LambdaSolution:
    """Solve 1 + lambda' = ratio * lambda * kappa with lambda(grid[0]) = c1.

    ratio is a/b (osculating) or e/f (rectifying); the plane coefficient in
    the denominator must be nonzero for the family to exist.
    """
    if not math.isfinite(ratio):
        raise SpecificationError("ratio must be finite (zero plane coefficient?)")
    grid = np.asarray(grid, dtype=float)
    kappa_arr = _as_grid_array(kappa, grid)
    lam, lam_p = solve_linear_first_order(ratio * kappa_arr, -1.0, c1, grid)
    h = uniform_spacing(grid)
    kappa_p = diff1(kappa_arr, h)
    lam_pp = ratio * (kappa_p * lam + kappa_arr * lam_p)
    return LambdaSolution(grid=grid, lam=lam, lam_prime=lam_p,
                          lam_double_prime=lam_pp,
                          provenance="integrating-factor",
                          constants={"c1": float(c1), "ratio": float(ratio)})


def linear_ode_residual(sol: LambdaSolution, kappa, ratio: float) -> np.ndarray:
    """|1 + lambda' - ratio*lambda*kappa| with fourth-order FD lambda'."""
    kappa_arr = _as_grid_array(kappa, sol.grid)
    lam_p = diff1_o4(sol.lam, sol.spacing())
    res = np.abs(1.0 + lam_p - ratio * sol.lam * kappa_arr)
    return res[2:-2]


def lambda_involute(c0: float, grid: np.ndarray) -> LambdaSolution:
    """lambda(s) = -s + c0, the tangent-offset solution with 1 + lambda' = 0."""
    grid = np.asarray(grid, dtype=float)
    return LambdaSolution(grid=grid, lam=-grid + c0,
                          lam_prime=np.full(grid.shape, -1.0),
                          lam_double_prime=np.zeros(grid.shape),
                          provenance="closed-form", constants={"c0": float(c0)})


def lambda_helix_hyperbolic(
    a: float, b: float, kappa: float, tau: float,
    c1: float, c2: float, grid: np.ndarray,
) -> LambdaSolution:
    """Real form of the constant-coefficient normal-offset solution.

    lambda(s) = c1 sinh(w s) + c2 cosh(w s) + kappa/(kappa^2 + tau^2) with
    w = (a/b) sqrt(kappa^2 + tau^2); solves
    lambda'' = (a/b)^2 ((lambda kappa - 1) kappa + lambda tau^2) exactly.
    """
    if b == 0:
        raise SpecificationError("b must be nonzero")
    k2t2 = kappa * kappa + tau * tau
    if not k2t2 > 0:
        raise SpecificationError("kappa^2 + tau^2 must be positive")
    grid = np.asarray(grid, dtype=float)
    w = (a / b) * math.sqrt(k2t2)
    part = kappa / k2t2
    lam = c1 * np.sinh(w * grid) + c2 * np.cosh(w * grid) + part
    lam_p = w * (c1 * np.cosh(w * grid) + c2 * np.sinh(w * grid))
    lam_pp = w * w * (lam - part)
    return LambdaSolution(grid=grid, lam=lam, lam_prime=lam_p,
                          lam_double_prime=lam_pp, provenance="closed-form",
                          constants={"a": a, "b": b, "c1": c1, "c2": c2,
                                     "kappa": kappa, "tau": tau})


def helix_ode_residual(
    sol: LambdaSolution, a: float, b: float, kappa: float, tau: float,
    variant: str = "standard",
) -> np.ndarray:
    """Residual of lambda'' = (a/b)^2 * bracket with fourth-order FD lambda''.

    variant="standard" uses bracket = (lambda*kappa - 1)*kappa + lambda*tau^2;
    variant="flipped" negates the curvature term. Only one of the two is
    satisfied by the hyperbolic closed form; see helix_ode_variant_report.
    """
    if variant not in ("standard", "flipped"):
        raise SpecificationError("variant must be 'standard' or 'flipped'")
    h = sol.spacing()
    lam_pp = diff1_o4(diff1_o4(sol.lam, h), h)
    lam = sol.lam
    if variant == "standard":
        bracket = (lam * kappa - 1.0) * kappa + lam * tau * tau
    else:
        bracket = (1.0 - lam * kappa) * kappa + lam * tau * tau
    res = np.abs(lam_pp - (a / b) ** 2 * bracket)
    return res[4:-4]


def helix_ode_variant_report(
    a: float, b: float, kappa: float, tau: float,
    c1: float, c2: float, grid: np.ndarray,
) -> dict:
    """Which sign variant of the second-order helix ODE the closed form obeys."""
    sol = lambda_helix_hyperbolic(a, b, kappa, tau, c1, c2, grid)
    standard = float(np.max(helix_ode_residual(sol, a, b, kappa, tau, "standard")))
    flipped = float(np.max(helix_ode_residual(sol, a, b, kappa, tau, "flipped")))
    return {
        "standard": standard,
        "flipped": flipped,
        "satisfied": "standard" if standard <= flipped else "flipped",
    }


def lambda_half_curvature(kappa: float, grid: np.ndarray) -> LambdaSolution:
    """Constant offset lambda = 1/(2 kappa) for constant-curvature bases."""
    if not kappa > 0:
        raise SpecificationError("kappa must be positive")
    grid = np.asarray(grid, dtype=float)
    val = 1.0 / (2.0 * kappa)
    return LambdaSolution(grid=grid, lam=np.full(grid.shape, val),
                          lam_prime=np.zeros(grid.shape),
                          lam_double_prime=np.zeros(grid.shape),
                          provenance="constant", constants={"kappa": kappa})


def lambda_constant(value: float, grid: np.ndarray) -> LambdaSolution:
    """A caller-chosen constant offset."""
    grid = np.asarray(grid, dtype=float)
    return LambdaSolution(grid=grid, lam=np.full(grid.shape, float(value)),
                          lam_prime=np.zeros(grid.shape),
                          lam_double_prime=np.zeros(grid.shape),
                          provenance="constant", constants={"value": float(value)})


def lambda_exponential_pair(
    a: float, b: float, tau: float, c1: float, c2: float, grid: np.ndarray
) -> LambdaSolution:
    """lambda = c1 e^{(a/b) tau s} + c2 e^{-(a/b) tau s}.

    Solves lambda'' = (a/b)^2 tau^2 lambda (the squared form of the
    binormal-offset direction constraint with constant torsion). The
    unsquared first-order constraint additionally pins c1*c2 = -1/(4 tau^2).
    """
    if b == 0:
        raise SpecificationError("b must be nonzero")
    grid = np.asarray(grid, dtype=float)
    w = (a / b) * tau
    up, down = np.exp(w * grid), np.exp(-w * grid)
    lam = c1 * up + c2 * down
    lam_p = w * (c1 * up - c2 * down)
    lam_pp = w * w * lam
    return LambdaSolution(grid=grid, lam=lam, lam_prime=lam_p,
                          lam_double_prime=lam_pp, provenance="closed-form",
                          constants={"a": a, "b": b, "tau": tau, "c1": c1, "c2": c2})


def _rk4_path(
    f, y0: float | tuple[float, float], grid: np.ndarray, cap: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 over a uniform grid, stepped in plain Python floats.

    The state ``y0`` is a float or, for a second-order ODE, a pair of floats,
    and ``f(s, y)`` returns the same kind. The stages sit at s_i, s_i + h/2
    and s_i + h. Returns ``(path, slope)``: the state and ``f`` at every grid
    point, with shape (n,) for a float state and (n, 2) for a pair.

    After each step every component of the state must be finite and, unless
    ``cap`` is None, at most ``cap`` in magnitude; otherwise the step raises
    FiniteEscapeError at its end point. A stage whose float arithmetic
    overflows or divides by zero (Python floats raise where numpy arrays
    give inf) is the same escape.
    """
    grid = np.asarray(grid, dtype=float)
    h = uniform_spacing(grid)
    half, sixth = 0.5 * h, h / 6.0
    limit = _DOUBLE_MAX if cap is None else min(cap, _DOUBLE_MAX)
    if isinstance(y0, tuple):
        def axpy(y, c, k):
            return (y[0] + c * k[0], y[1] + c * k[1])

        def combine(y, k1, k2, k3, k4):
            return (y[0] + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                    y[1] + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))

        def within(y):
            return abs(y[0]) <= limit and abs(y[1]) <= limit
    else:
        def axpy(y, c, k):
            return y + c * k

        def combine(y, k1, k2, k3, k4):
            return y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        def within(y):
            return abs(y) <= limit

    def escape(s):
        return FiniteEscapeError(f"trajectory escaped |y| > {limit:g} near s={s:.6g}", s=s)

    points = grid.tolist()
    y = y0
    path, slope = [y], []
    for s, s_next in zip(points, points[1:]):
        try:
            k1 = f(s, y)
            k2 = f(s + half, axpy(y, half, k1))
            k3 = f(s + half, axpy(y, half, k2))
            k4 = f(s + h, axpy(y, h, k3))
            y = combine(y, k1, k2, k3, k4)
        except (OverflowError, ZeroDivisionError) as err:
            raise escape(s_next) from err
        if not within(y):
            raise escape(s_next)
        path.append(y)
        slope.append(k1)
    try:
        slope.append(f(points[-1], y))
    except (OverflowError, ZeroDivisionError) as err:
        raise escape(points[-1]) from err
    return np.array(path), np.array(slope)


def solve_riccati(
    kappa, tau, lambda0: float, grid: np.ndarray,
    tau_prime=None, cap: float = BLOWUP_CAP_DEFAULT,
) -> LambdaSolution:
    """RK4 integration of the binormal-offset Riccati equation.

    lambda' = (tau kappa / 2) lambda^2 - (tau'/(2 tau)) lambda + kappa/(2 tau),
    the rearranged vanishing of the binormal cross-product coefficient.
    """
    grid = np.asarray(grid, dtype=float)
    k_fn = _as_fn(kappa, "kappa")
    t_fn = _as_fn(tau, "tau")
    if tau_prime is None:
        tp_fn = (lambda s: 0.0) if not callable(tau) else _fn_derivative(t_fn)
    else:
        tp_fn = _as_fn(tau_prime, "tau_prime")

    taus = np.array([t_fn(s) for s in grid])
    if float(np.min(np.abs(taus))) <= TORSION_FLOOR:
        raise TorsionDegenerateError(
            f"|tau| falls below {TORSION_FLOOR:g} on the grid; Riccati form undefined"
        )

    def rhs(s: float, lam: float) -> float:
        t = t_fn(s)
        k = k_fn(s)
        return (t * k / 2.0) * lam ** 2 - (tp_fn(s) / (2.0 * t)) * lam + k / (2.0 * t)

    lam, _ = _rk4_path(rhs, float(lambda0), grid, cap=cap)
    # lambda' stays an array expression rather than the RK4 slope: numpy's
    # lam**2 is lam*lam, which differs from the float pow in rhs in the last bit.
    kappas = np.array([k_fn(s) for s in grid])
    tps = np.array([tp_fn(s) for s in grid])
    lam_p = (taus * kappas / 2.0) * lam**2 - (tps / (2.0 * taus)) * lam + kappas / (2.0 * taus)
    lam_pp = diff1(lam_p, uniform_spacing(grid))
    return LambdaSolution(grid=grid, lam=lam, lam_prime=lam_p,
                          lam_double_prime=lam_pp, provenance="rk4",
                          constants={"lambda0": float(lambda0)})


def riccati_z_residual(sol: LambdaSolution, kappa, tau, tau_prime=0.0) -> np.ndarray:
    """|Z| = |-lambda tau' - 2 lambda' tau + kappa + lambda^2 tau^2 kappa|.

    lambda' comes from fourth-order differences of the lambda samples, so a
    vanishing residual is an independent confirmation, not a tautology.
    """
    grid = sol.grid
    k = _as_grid_array(kappa, grid)
    t = _as_grid_array(tau, grid)
    tp = _as_grid_array(tau_prime, grid)
    lam = sol.lam
    lam_p = diff1_o4(lam, sol.spacing())
    z = -lam * tp - 2.0 * lam_p * t + k + lam**2 * t**2 * k
    return np.abs(z)[2:-2]


def riccati_linearize(
    lambda_particular: LambdaSolution, kappa, tau, grid: np.ndarray,
    mu0: float | None = None, lambda0: float | None = None,
    tau_prime=None,
) -> LambdaSolution:
    """General Riccati solution through a known particular solution.

    Substituting lambda = lambda_1 + 1/mu turns the Riccati equation into
    mu' - (2 lambda_1 (-tau kappa/2) + tau'/(2 tau)) mu = -tau kappa/2,
    solved with the integrating-factor routine. The returned trajectory must
    agree with direct RK4 from the same initial value away from mu = 0.
    """
    grid = np.asarray(grid, dtype=float)
    lambda_particular.require_grid(grid)
    k = _as_grid_array(kappa, grid)
    t = _as_grid_array(tau, grid)
    tp = _as_grid_array(0.0 if tau_prime is None else tau_prime, grid)
    if float(np.min(np.abs(t))) <= TORSION_FLOOR:
        raise TorsionDegenerateError("|tau| below floor; Riccati form undefined")

    part_res = riccati_z_residual(lambda_particular, k, t, tp)
    if float(np.max(part_res)) > 1e-6:
        raise SpecificationError(
            f"particular solution residual {np.max(part_res):.3e} exceeds 1e-6"
        )

    lam1 = lambda_particular.lam
    if mu0 is None:
        if lambda0 is None:
            raise SpecificationError("provide mu0 or lambda0")
        gap = float(lambda0) - float(lam1[0])
        if abs(gap) < 1e-12:
            raise SpecificationError(
                "initial value coincides with the particular solution (1/mu = 0 limit)"
            )
        mu0 = 1.0 / gap

    p_arr = 2.0 * lam1 * (-t * k / 2.0) + tp / (2.0 * t)
    q_arr = -t * k / 2.0
    mu, mu_p = solve_linear_first_order(p_arr, q_arr, float(mu0), grid)
    if float(np.min(np.abs(mu))) < 1e-12 or np.any(np.sign(mu) != np.sign(mu[0])):
        i = int(np.argmin(np.abs(mu)))
        raise PoleError(
            f"mu crosses zero near s={grid[i]:.6g}; general solution has a pole there"
        )
    lam = lam1 + 1.0 / mu
    lam_p = lambda_particular.lam_prime - mu_p / mu**2
    lam_pp = diff1(lam_p, uniform_spacing(grid))
    return LambdaSolution(grid=grid, lam=lam, lam_prime=lam_p,
                          lam_double_prime=lam_pp, provenance="integrating-factor",
                          constants={"mu0": float(mu0)})


_CONSTRAINT_FAMILIES = ("NO", "NR", "BO", "BR")


def constant_admissible_lambda(family: str, kappa: float, tau: float) -> float:
    """The constant offset admitted by a family's vanishing constraint.

    NO: 1/(2 kappa) (every constant solves the constraint on a circular
    helix; this is the conventional branch value). NR: kappa/(kappa^2 +
    tau^2) (forces the cross-coefficient factor to zero). BR: 0.
    """
    if family == "NO":
        if not kappa > 0:
            raise SpecificationError("kappa must be positive")
        return 1.0 / (2.0 * kappa)
    if family == "NR":
        if not (kappa > 0 and kappa * kappa + tau * tau > 0):
            raise SpecificationError("kappa must be positive")
        return kappa / (kappa * kappa + tau * tau)
    if family == "BR":
        return 0.0
    raise SpecificationError(f"no constant branch catalogued for family {family}")


def solve_constraint_ode(
    family: str,
    kappa, tau,
    initial: tuple[float, float],
    grid: np.ndarray,
    kappa_prime=None, tau_prime=None,
    ansatz: str = "ivp",
    ratio: float | None = None,
    sign: float = 1.0,
    cap: float = BLOWUP_CAP_DEFAULT,
) -> LambdaSolution:
    """Integrate the implicit constraint ODE of an associated-curve family.

    family: "NO" (first order, cross-coefficient along the normal = 0),
    "NR"/"BR" (second order, affine in lambda''), "BO" (first order,
    lambda' = sign*ratio*sqrt(1 + lambda^2 tau^2)). ansatz="constant"
    returns the family's constant branch instead of integrating.
    """
    if family not in _CONSTRAINT_FAMILIES:
        raise SpecificationError(f"unknown constraint family {family!r}")
    grid = np.asarray(grid, dtype=float)

    k_fn = _as_fn(kappa, "kappa")
    t_fn = _as_fn(tau, "tau")
    kp_fn = _as_fn(kappa_prime, "kappa_prime") if kappa_prime is not None else (
        _fn_derivative(k_fn) if callable(kappa) else (lambda s: 0.0))
    tp_fn = _as_fn(tau_prime, "tau_prime") if tau_prime is not None else (
        _fn_derivative(t_fn) if callable(tau) else (lambda s: 0.0))

    if ansatz == "constant":
        if family == "BO":
            if ratio not in (None, 0.0):
                raise SpecificationError("constant binormal offsets require ratio 0")
            return lambda_constant(initial[0], grid)
        value = constant_admissible_lambda(family, k_fn(grid[0]), t_fn(grid[0]))
        return lambda_constant(value, grid)
    if ansatz != "ivp":
        raise SpecificationError("ansatz must be 'ivp' or 'constant'")

    if family == "NO":
        def rhs(s: float, lam: float) -> float:
            t = t_fn(s)
            if abs(t) < 1e-10:
                raise SingularOdeError(f"torsion vanishes at s={s:.6g}", s=s)
            num = lam * lam * t * kp_fn(s) + (1.0 - lam * k_fn(s)) * lam * tp_fn(s)
            return -num / (2.0 * t)

        lam, lam_p = _rk4_path(rhs, float(initial[0]), grid, cap=cap)
        lam_pp = diff1(lam_p, uniform_spacing(grid))
        return LambdaSolution(grid, lam, lam_p, lam_pp, "rk4",
                              {"lambda0": float(initial[0])})

    if family == "BO":
        if ratio is None:
            raise SpecificationError("BO constraint needs ratio = a/b")

        def rhs(s: float, lam: float) -> float:
            t = t_fn(s)
            return sign * ratio * math.sqrt(1.0 + (lam * t) ** 2)

        lam, lam_p = _rk4_path(rhs, float(initial[0]), grid, cap=cap)
        lam_pp = diff1(lam_p, uniform_spacing(grid))
        return LambdaSolution(grid, lam, lam_p, lam_pp, "rk4",
                              {"lambda0": float(initial[0]), "ratio": float(ratio)})

    def second_derivative(s: float, lam: float, lam_p: float) -> float:
        k, t = k_fn(s), t_fn(s)
        kp, tp = kp_fn(s), tp_fn(s)
        if family == "BR":
            denom = 1.0 + (lam * t) ** 2
            num = lam * t * (lam * lam * t**3 + t + lam * tp * lam_p + 2.0 * t * lam_p**2)
            return num / denom
        # NR: the constraint is affine in lambda''; isolate it.
        coeff = (lam * t) ** 2 - (1.0 - lam * k) ** 2
        if abs(coeff) < 1e-10:
            raise SingularOdeError(
                f"vanishing second-derivative coefficient at s={s:.6g}", s=s
            )
        d = (1.0 - lam * k) * k - lam * t * t
        k0 = lam_p * (lam * tp + 2.0 * lam_p * t) - lam * t * d
        m0 = (1.0 - lam * k) * d - lam_p * (-lam * kp - 2.0 * lam_p * k)
        rest = m0 * (lam * k - 1.0) - k0 * lam * t
        return -rest / coeff

    def rhs(s: float, y: tuple[float, float]) -> tuple[float, float]:
        return (y[1], second_derivative(s, y[0], y[1]))

    path, slope = _rk4_path(rhs, (float(initial[0]), float(initial[1])), grid, cap=cap)
    lam, lam_p = path[:, 0], path[:, 1]
    lam_pp = slope[:, 1]
    return LambdaSolution(grid, lam, lam_p, lam_pp, "rk4",
                          {"lambda0": float(initial[0]), "lambda0_prime": float(initial[1])})


def constraint_residual(
    sol: LambdaSolution, family: str, kappa, tau,
    kappa_prime=0.0, tau_prime=0.0,
) -> np.ndarray:
    """Normalized defining-constraint residual along a solution.

    Uses fourth-order differences of lambda for lambda' and lambda''. The
    raw constraint value is normalized by the cross-product magnitude so the
    numbers are comparable across families and scales.
    """
    from .association import klm_coefficients, xyz_coefficients

    grid = sol.grid
    h = sol.spacing()
    k = _as_grid_array(kappa, grid)
    t = _as_grid_array(tau, grid)
    kp = _as_grid_array(kappa_prime, grid)
    tp = _as_grid_array(tau_prime, grid)
    lam = sol.lam
    lam_p = diff1_o4(lam, h)
    lam_pp = diff1_o4(lam_p, h)

    if family in ("NO", "NR"):
        K, L, M = klm_coefficients(lam, lam_p, lam_pp, k, t, kp, tp)
        norm = np.sqrt(K**2 + L**2 + M**2)
        raw = L if family == "NO" else M * (lam * k - 1.0) - K * lam * t
    elif family in ("BO", "BR"):
        X, Y, Z = xyz_coefficients(lam, lam_p, lam_pp, k, t, kp, tp)
        norm = np.sqrt(X**2 + Y**2 + Z**2)
        raw = Z if family == "BO" else -X * lam * t - Y
    else:
        raise SpecificationError(f"unknown constraint family {family!r}")
    scale = np.where(norm > 1e-12, norm, 1.0)
    return (np.abs(raw) / scale)[4:-4]
