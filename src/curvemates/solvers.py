"""Offset-function solvers.

The scalar offset lambda(s) obeys, depending on the family:
  * a first-order linear ODE  1 + lambda' = r * lambda * kappa   (tangent offsets),
  * lambda = -s + c            (tangent/normal-plane offsets, involutes),
  * a constant-coefficient second-order ODE with hyperbolic solutions
    (normal offsets on helices),
  * a Riccati equation          (binormal/osculating offsets),
  * implicit first/second-order constraint ODEs (remaining families).

Closed forms are evaluated exactly; quadrature is cumulative composite
Simpson; initial-value integration is classical fixed-step RK4 in Python
floats, one loop per order with no per-stage tuples, over the float kernels
of one factory, ``_rhs``, that a test checks against plane_condition:
lambda' = f(s, lambda) for BO's Riccati, NO and the BO ratio IVP, lambda'' =
f(s, lambda, lambda') for NR and BR. Leaving |y| <= BLOWUP_CAP = 1e6 is a
located FiniteEscapeError. BO's Riccati has one array form, ``_riccati``.
``offset_residual`` is the one independent residual rule for every offset
equation: it differentiates the lambda samples with fourth-order differences,
never recycling derivatives from the defining equation, and trims the rows
where those stencils are not fourth order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    AlignmentError,
    FiniteEscapeError,
    InsufficientDataError,
    PoleError,
    QuadratureRangeError,
    SingularOdeError,
    SpecificationError,
    TorsionDegenerateError,
)
from .numdiff import cumulative_simpson, diff1, diff1_o4, same_grid, uniform_spacing

TORSION_FLOOR = 1e-8
BLOWUP_CAP = 1e6
_EXP_LIMIT = 700.0  # log of the largest double


@dataclass(frozen=True)
class LambdaSolution:
    """Offset function samples with first and second derivatives; a lambda''
    passed as None is diff1 of lambda', as lam_third is diff1 of lambda''."""

    grid: np.ndarray
    lam: np.ndarray
    lam_prime: np.ndarray
    lam_double_prime: np.ndarray | None
    provenance: str
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        for name in ("lam", "lam_prime", "lam_double_prime"):
            value = getattr(self, name)
            if value is None and name == "lam_double_prime":
                value = diff1(self.lam_prime, self.spacing())
            arr = np.asarray(value, dtype=float)
            if arr.shape != self.grid.shape:
                raise AlignmentError(f"{name} not aligned with grid")
            object.__setattr__(self, name, arr)

    def spacing(self) -> float:
        return uniform_spacing(self.grid)

    def lam_third(self) -> np.ndarray:
        """Third derivative by differencing the second-derivative samples."""
        return diff1(self.lam_double_prime, self.spacing())

    def require_grid(self, grid: np.ndarray) -> None:
        grid = np.asarray(grid, dtype=float)
        if not same_grid(self.grid, grid):
            raise AlignmentError("lambda grid does not match the curve grid")

    def require_bounded(self) -> None:
        """Raise SpecificationError at the first s where |lambda| > BLOWUP_CAP, the
        bound RK4 enforces; NaN is not within it either."""
        if not np.max(np.abs(self.lam)) <= BLOWUP_CAP:
            i = int(np.argmin(np.abs(self.lam) <= BLOWUP_CAP))
            s = float(self.grid[i])
            raise SpecificationError(f"lambda = {float(self.lam[i])!r} lies outside |lambda| <="
                                     f" BLOWUP_CAP = {BLOWUP_CAP:g} at s={s:.6g}", s=s)

    def is_constant(self) -> bool:
        """Whether max |lambda'| <= 1e-8 max(1, max |lambda|): the one test of a
        constant offset, for family prerequisites and classification alike."""
        scale = max(1.0, float(np.max(np.abs(self.lam))))
        return float(np.max(np.abs(self.lam_prime))) <= 1e-8 * scale


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


def _slope(value, name: str):
    """The arc-length derivative of coefficient ``name``: a central difference
    of step 1e-5 for a callable, 0.0 for a constant; a sampled array raises."""
    if callable(value):
        return lambda s: float((value(s + 1e-5) - value(s - 1e-5)) / (2.0 * 1e-5))
    if np.ndim(value) != 0:
        raise SpecificationError(f"sampled {name} needs {name}' given; it is not differenced")
    return 0.0


def _coefficients(kappa, tau) -> Callable[[float], tuple[float, float, float, float]]:
    """One function of s giving (kappa, tau, kappa', tau'); derivatives follow
    _slope. Constant coefficients give one tuple, built once."""
    if any(not callable(v) and np.ndim(v) != 0 for v in (kappa, tau)):
        raise SpecificationError(
            "RK4 solvers take kappa and tau as constants or callables of s, not sampled arrays"
        )
    values = (kappa, tau, _slope(kappa, "kappa"), _slope(tau, "tau"))
    if not any(callable(v) for v in values):
        fixed = tuple(float(v) for v in values)
        return lambda s: fixed
    k, t, kp, tp = (v if callable(v) else (lambda s, c=float(v): c) for v in values)
    return lambda s: (float(k(s)), float(t(s)), float(kp(s)), float(tp(s)))


def _coefficient_arrays(grid, kappa, tau, kappa_prime=None, tau_prime=None):
    """kappa, tau, kappa' and tau' sampled on ``grid``; a derivative left None
    follows _slope."""
    kp = _slope(kappa, "kappa") if kappa_prime is None else kappa_prime
    tp = _slope(tau, "tau") if tau_prime is None else tau_prime
    return tuple(_as_grid_array(v, grid) for v in (kappa, tau, kp, tp))


def offset_residual(sol: LambdaSolution, equation, order: int) -> np.ndarray:
    """|equation(lambda, lambda', lambda'')| on the rows where every stencil is
    fourth order: the one independent residual rule for the offset equations.

    lambda' is ``diff1_o4`` of the lambda samples and, for ``order`` 2,
    lambda'' is ``diff1_o4`` of that lambda'; at order 1 ``equation`` gets
    None for lambda''. Each ``diff1_o4`` falls back to second order in its
    two edge rows, so ``2 * order`` rows are trimmed at each end. Raises
    InsufficientDataError when no row survives the trim.
    """
    trim = 2 * order
    if sol.lam.size <= 2 * trim:
        raise InsufficientDataError(
            f"an order-{order} residual needs at least {2 * trim + 1} samples,"
            f" got {sol.lam.size}")
    h = sol.spacing()
    lam_p = diff1_o4(sol.lam, h)
    lam_pp = diff1_o4(lam_p, h) if order == 2 else None
    return np.abs(equation(sol.lam, lam_p, lam_pp))[trim:-trim]


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


def _constant(value: float, grid: np.ndarray, constants: dict) -> LambdaSolution:
    grid = np.asarray(grid, dtype=float)
    return LambdaSolution(grid=grid, lam=np.full(grid.shape, value),
                          lam_prime=np.zeros(grid.shape),
                          lam_double_prime=np.zeros(grid.shape),
                          provenance="constant", constants=constants)


def lambda_half_curvature(kappa: float, grid: np.ndarray) -> LambdaSolution:
    """Constant offset lambda = 1/(2 kappa) for constant-curvature bases."""
    # The NO branch value does not depend on tau.
    return _constant(constant_admissible_lambda("NO", kappa, 0.0), grid, {"kappa": kappa})


def lambda_constant(value: float, grid: np.ndarray) -> LambdaSolution:
    """A caller-chosen constant offset."""
    return _constant(float(value), grid, {"value": float(value)})


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


def _rk4_path(f, y0: float | tuple[float, float], grid) -> tuple[np.ndarray, ...]:
    """Classical RK4 over a uniform grid, stepped in plain Python floats.

    A float ``y0`` starts lambda' = f(s, lambda); a pair (lambda, b = lambda') starts
    lambda'' = f(s, lambda, b), whose lambda stage slopes are the b stage values b,
    b + (h/2) g1, b + (h/2) g2 and b + h g3 (Hairer, Norsett & Wanner, Solving ODEs I,
    II.14). One loop per order, stages at s_i, s_i + h/2 and s_i + h. Returns (lambda,
    lambda') or (lambda, lambda', lambda'') at every grid point, the last column ``f``.

    A start beyond BLOWUP_CAP is a SpecificationError at grid[0]. A step that leaves
    |y| <= BLOWUP_CAP, or a stage whose float arithmetic overflows or divides by zero
    (Python floats raise where numpy gives inf), is a FiniteEscapeError at its end point.
    """
    grid = np.asarray(grid, dtype=float)
    h = uniform_spacing(grid)
    half, sixth = 0.5 * h, h / 6.0
    limit = BLOWUP_CAP

    def escape(s):
        return FiniteEscapeError(f"trajectory escaped |y| > {limit:g} near s={s:.6g}", s=s)

    points = grid.tolist()
    second = isinstance(y0, tuple)
    lam, b = y0 if second else (y0, 0.0)
    if not (abs(lam) <= limit and abs(b) <= limit):
        raise SpecificationError(f"start {y0!r} lies outside |y| <= BLOWUP_CAP = {limit:g}"
                                 f" at s={points[0]:.6g}", s=points[0])
    path, path_p, top = [lam], [b], []
    try:
        if second:
            for s, s_next in zip(points, points[1:]):
                g1 = f(s, lam, b)
                b2 = b + half * g1
                g2 = f(s + half, lam + half * b, b2)
                b3 = b + half * g2
                g3 = f(s + half, lam + half * b2, b3)
                b4 = b + h * g3
                g4 = f(s + h, lam + h * b3, b4)
                lam = lam + sixth * (b + 2.0 * b2 + 2.0 * b3 + b4)
                b = b + sixth * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
                if not (abs(lam) <= limit and abs(b) <= limit):
                    raise escape(s_next)
                path.append(lam)
                path_p.append(b)
                top.append(g1)
        else:
            for s, s_next in zip(points, points[1:]):
                k1 = f(s, lam)
                k2 = f(s + half, lam + half * k1)
                k3 = f(s + half, lam + half * k2)
                k4 = f(s + h, lam + h * k3)
                lam = lam + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not abs(lam) <= limit:
                    raise escape(s_next)
                path.append(lam)
                top.append(k1)
        s_next = points[-1]
        top.append(f(s_next, lam, b) if second else f(s_next, lam))
    except (OverflowError, ZeroDivisionError) as err:
        raise escape(s_next) from err
    return tuple(np.array(column) for column in ((path, path_p, top) if second else (path, top)))


def _riccati(grid, kappa, tau):
    """(A, B, C) of BO's Riccati equation lambda' = A lambda^2 + B lambda + C on
    ``grid``, and the (kappa, kappa') and (tau, tau') arrays they come from."""
    k, t, kp, tp = _coefficient_arrays(grid, kappa, tau)
    if float(np.min(np.abs(t))) <= TORSION_FLOOR:
        raise TorsionDegenerateError(
            f"|tau| falls below {TORSION_FLOOR:g} on the grid; Riccati form undefined")
    return (t * k / 2.0, -tp / (2.0 * t), k / (2.0 * t)), (k, kp), (t, tp)


def _rhs(family: str, kappa, tau, ratio: float | None = None):
    """The RK4 kernel of an offset ODE: BO's "riccati" and "NO" give lambda',
    "NR" and "BR" lambda'' = f(s, lambda, lambda'), and the "BO" ratio IVP is
    no family's plane condition. Hand-written, since a kernel derived from the
    condition made RK4 2-5x slower; a test checks each against plane_condition."""
    coefficients = _coefficients(kappa, tau)
    if family == "riccati":
        def rhs(s: float, lam: float) -> float:
            k, t, _, tp = coefficients(s)
            return (t * k / 2.0) * lam ** 2 - (tp / (2.0 * t)) * lam + k / (2.0 * t)
    elif family == "NO":
        def rhs(s: float, lam: float) -> float:
            k, t, kp, tp = coefficients(s)
            if abs(t) < 1e-10:
                raise SingularOdeError(f"torsion vanishes at s={s:.6g}", s=s)
            num = lam * lam * t * kp + (1.0 - lam * k) * lam * tp
            return -num / (2.0 * t)
    elif family == "BO":
        if ratio is None:
            raise SpecificationError("BO constraint needs ratio = a/b")

        def rhs(s: float, lam: float) -> float:
            t = coefficients(s)[1]
            return ratio * math.sqrt(1.0 + (lam * t) ** 2)
    elif family == "NR":
        def rhs(s: float, lam: float, lam_p: float) -> float:
            k, t, kp, tp = coefficients(s)
            coeff = (1.0 - lam * k) ** 2 + (lam * t) ** 2
            if abs(coeff) < 1e-10:
                raise SingularOdeError(
                    f"vanishing second-derivative coefficient at s={s:.6g}", s=s
                )
            d = (1.0 - lam * k) * k - lam * t * t
            k0 = lam_p * (lam * tp + 2.0 * lam_p * t) - lam * t * d
            m0 = (1.0 - lam * k) * d - lam_p * (-lam * kp - 2.0 * lam_p * k)
            rest = m0 * (1.0 - lam * k) - k0 * lam * t
            return -rest / coeff
    elif family == "BR":
        def rhs(s: float, lam: float, lam_p: float) -> float:
            _, t, _, tp = coefficients(s)
            denom = 1.0 + (lam * t) ** 2
            num = lam * t * (lam * lam * t**3 + t + lam * tp * lam_p + 2.0 * t * lam_p**2)
            return num / denom
    else:
        raise SpecificationError(f"unknown constraint family {family!r}")
    return rhs


def solve_riccati(kappa, tau, lambda0: float, grid: np.ndarray) -> LambdaSolution:
    """RK4 integration of the binormal-offset Riccati equation.

    lambda' = (tau kappa / 2) lambda^2 - (tau'/(2 tau)) lambda + kappa/(2 tau),
    the rearranged vanishing of the binormal cross-product coefficient.
    """
    grid = np.asarray(grid, dtype=float)
    rhs = _rhs("riccati", kappa, tau)
    (A, B, C), _, _ = _riccati(grid, kappa, tau)
    lam, _ = _rk4_path(rhs, float(lambda0), grid)
    # lambda' stays an array expression rather than the RK4 slope: numpy's
    # lam**2 is lam*lam, which differs from the float pow in rhs in the last bit.
    return LambdaSolution(grid, lam, A * lam**2 + B * lam + C, None, "rk4",
                          {"lambda0": float(lambda0)})


def riccati_linearize(
    lambda_particular: LambdaSolution, kappa, tau, grid: np.ndarray,
    mu0: float | None = None, lambda0: float | None = None,
) -> LambdaSolution:
    """General Riccati solution through a known particular solution.

    lambda = lambda_1 + 1/mu turns lambda' = A lambda^2 + B lambda + C
    (``_riccati``) into mu' = (2 lambda_1 (-A) - B) mu - A, solved with the
    integrating-factor routine; lambda_1 must zero BO's plane condition, Z,
    to 1e-6. kappa and tau are constants or callables, as in RK4, and the
    trajectory must agree with direct RK4 from the same start away from mu = 0.
    """
    from .association import plane_condition

    grid = np.asarray(grid, dtype=float)
    lambda_particular.require_grid(grid)
    (A, B, _), kappa_jet, tau_jet = _riccati(grid, kappa, tau)

    part_res = offset_residual(lambda_particular, lambda lam, lam_p, _: plane_condition(
        "B", "O", (lam, lam_p, 0.0), kappa_jet, tau_jet)[0], 1)  # Z does not read lambda''
    if float(np.max(part_res)) > 1e-6:
        raise SpecificationError(
            f"particular solution residual {np.max(part_res):.3e} exceeds 1e-6")

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

    mu, mu_p = solve_linear_first_order(2.0 * lam1 * (-A) - B, -A, float(mu0), grid)
    if float(np.min(np.abs(mu))) < 1e-12 or np.any(np.sign(mu) != np.sign(mu[0])):
        i = int(np.argmin(np.abs(mu)))
        raise PoleError(f"mu crosses zero near s={grid[i]:.6g}; general solution has a pole there")
    lam = lam1 + 1.0 / mu
    lam_p = lambda_particular.lam_prime - mu_p / mu**2
    return LambdaSolution(grid, lam, lam_p, None, "integrating-factor", {"mu0": float(mu0)})


def solve_constraint_ode(family: str, kappa, tau, initial: tuple[float, float], grid: np.ndarray,
                         ratio: float | None = None) -> LambdaSolution:
    """Integrate the implicit constraint ODE of an associated-curve family.

    family: "NO" (first order, cross-coefficient along the normal = 0),
    "NR"/"BR" (second order, affine in lambda''), "BO" (first order,
    lambda' = ratio*sqrt(1 + lambda^2 tau^2)). The "BO" IVP is not BO's
    constraint: with ratio = a/b it keeps <B, T*> = a/sqrt(a^2 + b^2), not
    <B, B*> = 0; BO's own solver is ``solve_riccati``. A family's constant
    branch is ``lambda_constant(constant_admissible_lambda(...), grid)``.
    """
    if family == "riccati":  # a kernel of _rhs, but solve_riccati's equation
        raise SpecificationError(f"unknown constraint family {family!r}")
    grid = np.asarray(grid, dtype=float)
    rhs = _rhs(family, kappa, tau, ratio)
    constants = {"lambda0": float(initial[0])}
    if family == "BO":
        constants["ratio"] = float(ratio)
    y0 = constants["lambda0"]
    if family in ("NR", "BR"):
        constants["lambda0_prime"] = float(initial[1])
        y0 = (y0, constants["lambda0_prime"])
    lam, lam_p, *lam_pp = _rk4_path(rhs, y0, grid)
    return LambdaSolution(grid, lam, lam_p, lam_pp[0] if lam_pp else None, "rk4", constants)


def constraint_residual(
    sol: LambdaSolution, family: str, kappa, tau,
    kappa_prime=None, tau_prime=None,
) -> np.ndarray:
    """A family's coefficient check, ``association.plane_condition`` along a
    solution as an order-2 offset_residual, normalized by |w| = |alpha*' x alpha*''|
    so the numbers are comparable across families and scales. kappa' and tau'
    left None follow _slope, as in solve_constraint_ode."""
    from .association import FAMILIES, plane_condition

    entry = FAMILIES.get(family)
    if entry is None or entry.coefficient is None:
        raise SpecificationError(f"unknown constraint family {family!r}")
    k, t, kp, tp = _coefficient_arrays(sol.grid, kappa, tau, kappa_prime, tau_prime)

    def equation(lam, lam_p, lam_pp):
        raw, norm = plane_condition(*family, (lam, lam_p, lam_pp), (k, kp), (t, tp))
        return raw / np.where(norm > 1e-12, norm, 1.0)

    try:
        return offset_residual(sol, equation, 2)
    except InsufficientDataError as err:
        raise InsufficientDataError(f"{family} coefficient residual: {err}") from err
