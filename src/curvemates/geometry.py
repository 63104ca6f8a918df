"""Parametric space curves, arc-length sampling, and the Frenet apparatus.

Curves live in E^3. Named analytic curves carry exact derivatives; sampled
curves are differentiated with second-order stencils. The frame convention
is T = a'/|a'|, B = (a' x a'') / |a' x a''|, N = B x T, which is the unique
right-handed choice compatible with T' = kappa N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebint, chebval, chebvander

from .errors import (
    CurvatureDegenerateError,
    DomainError,
    InsufficientDataError,
    RegularityError,
    SpecificationError,
)
from .numdiff import cross3, diff1, diff2, diff3, norm3, rowmap, same_grid, uniform_spacing

KAPPA_FLOOR_DEFAULT = 1e-8
SPEED_FLOOR_DEFAULT = 1e-12

_ANALYTIC_KINDS = ("circle", "helix")

# reparametrize_arclength's Chebyshev-Lobatto nodes, ascending. _CHEB_FIT maps values there to
# series coefficients; _CHEB_INT and _CHEB_DER to those of its integral from -1 and derivative.
_EQUAL_PIECES = 64
_CHEB_POINTS = 12
_CHEB_NODES = -np.cos(np.pi * np.arange(_CHEB_POINTS) / (_CHEB_POINTS - 1))
_CHEB_FIT = np.linalg.inv(chebvander(_CHEB_NODES, _CHEB_POINTS - 1))
_CHEB_INT = chebint(_CHEB_FIT, lbnd=-1.0)
_CHEB_DER = chebder(_CHEB_FIT)
_NEWTON_STEPS = 50


@dataclass(frozen=True)
class CurveSpec:
    """Declarative description of a base curve.

    kind is one of "circle", "helix", "samples". A circle of radius r is
    parametrized by arc length, (r cos(s/r), r sin(s/r), 0). A helix is
    (a cos t, a sin t, b t), which is unit speed exactly when a^2 + b^2 = 1.
    Samples are rows (s, x, y, z) with strictly increasing s.
    """

    kind: str
    r: float | None = None
    a: float | None = None
    b: float | None = None
    points: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "circle":
            if self.r is None or not (self.r > 0):
                raise SpecificationError("circle requires radius r > 0")
        elif self.kind == "helix":
            if self.a is None or self.b is None or not (self.a > 0):
                raise SpecificationError("helix requires a > 0 and finite b")
        elif self.kind == "samples":
            pts = np.asarray(self.points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 4 or pts.shape[0] < 2:
                raise SpecificationError("samples need at least 2 rows of (s, x, y, z)")
            if not np.all(np.isfinite(pts)):
                raise SpecificationError("samples must be finite")
            if not np.all(np.diff(pts[:, 0]) > 0):
                raise SpecificationError("sample parameter must be strictly increasing")
            object.__setattr__(self, "points", pts)
        else:
            raise SpecificationError(f"unknown curve kind {self.kind!r}")

    @classmethod
    def circle(cls, r: float) -> "CurveSpec":
        return cls(kind="circle", r=float(r))

    @classmethod
    def helix(cls, a: float, b: float) -> "CurveSpec":
        return cls(kind="helix", a=float(a), b=float(b))

    @classmethod
    def from_samples(cls, points: Sequence[Sequence[float]]) -> "CurveSpec":
        return cls(kind="samples", points=np.asarray(points, dtype=float))

    @property
    def is_analytic(self) -> bool:
        return self.kind in _ANALYTIC_KINDS

    def domain(self) -> tuple[float, float]:
        if self.kind == "samples":
            return float(self.points[0, 0]), float(self.points[-1, 0])
        return (-math.inf, math.inf)

    def interpolant(self):
        """The not-a-knot cubic spline through the samples, s to (x, y, z)."""
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.points[:, 0], self.points[:, 1:4], axis=0)

    def closed_form_curvature(self) -> float:
        """kappa of the named family (circle: 1/r; helix: a/(a^2+b^2))."""
        if self.kind == "circle":
            return 1.0 / self.r
        if self.kind == "helix":
            return self.a / (self.a**2 + self.b**2)
        raise SpecificationError("closed-form curvature only for named curves")

    def closed_form_torsion(self) -> float:
        if self.kind == "circle":
            return 0.0
        if self.kind == "helix":
            return self.b / (self.a**2 + self.b**2)
        raise SpecificationError("closed-form torsion only for named curves")

    def _analytic_derivs(self, s: np.ndarray) -> list[np.ndarray]:
        s = np.asarray(s, dtype=float)
        zero = np.zeros_like(s)
        if self.kind == "circle":
            r = self.r
            u = s / r
            cos, sin = np.cos(u), np.sin(u)
            table = [
                np.stack([r * cos, r * sin, zero], axis=-1),
                np.stack([-sin, cos, zero], axis=-1),
                np.stack([-cos / r, -sin / r, zero], axis=-1),
                np.stack([sin / r**2, -cos / r**2, zero], axis=-1),
            ]
        else:
            a, b = self.a, self.b
            cos, sin = np.cos(s), np.sin(s)
            table = [
                np.stack([a * cos, a * sin, b * s], axis=-1),
                np.stack([-a * sin, a * cos, np.full_like(s, b)], axis=-1),
                np.stack([-a * cos, -a * sin, zero], axis=-1),
                np.stack([a * sin, -a * cos, zero], axis=-1),
            ]
        return table


@dataclass(frozen=True)
class FrameData:
    """Vectorized frame arrays aligned with a sample grid.

    The arc-length derivatives ``kappa_prime`` ... ``tau_second`` are None on
    stencil frames from :func:`frenet_frames_sampled`, which the oracle uses
    without them; base curves carry them. ``direction_error`` is the
    leading finite-difference error of the T and B directions, per point,
    for frames differentiated from samples; it is None for exact analytic
    frames and for frames read from a file.
    """

    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    speed: np.ndarray
    kappa_prime: np.ndarray | None = None
    tau_prime: np.ndarray | None = None
    kappa_second: np.ndarray | None = None
    tau_second: np.ndarray | None = None
    valid: np.ndarray | None = None
    direction_error: np.ndarray | None = None

    def require(self, *names: str) -> None:
        """Raise SpecificationError naming the first of ``names`` left None."""
        for name in names:
            if getattr(self, name) is None:
                raise SpecificationError(f"base frames carry no {name}; build the base"
                                         " with sample_curve or reparametrize_arclength")


@dataclass(frozen=True)
class SampledCurve:
    """A curve sampled on an increasing grid, optionally carrying frames."""

    grid: np.ndarray
    positions: np.ndarray
    frames: FrameData | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        pos = np.asarray(self.positions, dtype=float)
        if grid.ndim != 1 or pos.shape != (grid.size, 3):
            raise SpecificationError("positions must be (n, 3) aligned with grid")
        if not np.all(np.diff(grid) > 0):
            raise SpecificationError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.grid.size

    def spacing(self) -> float:
        return uniform_spacing(self.grid)

    def with_frames(self, frames: FrameData) -> "SampledCurve":
        return replace(self, frames=frames)


def frenet_from_cross(
    d1: np.ndarray, cross: np.ndarray, d3: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The Frenet rule, for (n, 3) rows of a', w = a' x a'' and a''' in any
    orthonormal basis: T = a'/|a'|, B = w/|w|, kappa = |w|/|a'|^3 and
    tau = <w, a'''>/|w|^2. Returns (T, B, kappa, tau, |a'|, |w|); a zero
    norm divides as 1. N = B x T is left to the caller, in its own basis.
    """
    speed = norm3(d1)
    cn = norm3(cross)
    safe_speed = np.where(speed > 0, speed, 1.0)
    safe_cn = np.where(cn > 0, cn, 1.0)
    kappa = cn / safe_speed**3
    tau = np.einsum("ij,ij->i", cross, d3) / safe_cn**2
    T = d1 / safe_speed[:, None]
    B = cross / safe_cn[:, None]
    return T, B, kappa, tau, speed, cn


def _frenet_from_derivs(
    d1: np.ndarray, d2: np.ndarray, d3: np.ndarray, kappa_min: float
) -> tuple[np.ndarray, ...]:
    """Frames from derivative arrays via the general (non-unit-speed) formulas."""
    T, B, kappa, tau, speed, cn = frenet_from_cross(d1, cross3(d1, d2), d3)
    valid = (speed > SPEED_FLOOR_DEFAULT) & (kappa > kappa_min)
    return T, cross3(B, T), B, kappa, tau, speed, cn, valid


def _require_valid(valid: np.ndarray, kappa_min: float, grid: np.ndarray) -> None:
    """Raise CurvatureDegenerateError at the first row of ``grid`` not ``valid``."""
    if not np.all(valid):
        raise CurvatureDegenerateError(
            f"curvature below floor {kappa_min:g} (straight or singular segment)"
            f" at s={grid[int(np.argmin(valid))]}"
        )


def curvature_derivatives(
    kappa: np.ndarray, tau: np.ndarray, speed: np.ndarray, h: float
) -> tuple[np.ndarray, ...]:
    """kappa', tau', kappa'' and tau'' with respect to arc length, by the chain
    rule through the speed v of a uniform sample parameter t of step h:
    x' = x_t / v and x'' = (x_tt - x_t v_t / v) / v**2."""
    safe_speed = np.where(speed > 0, speed, 1.0)
    stretch = diff1(speed, h) / safe_speed
    kappa_t, tau_t = diff1(kappa, h), diff1(tau, h)
    return (kappa_t / safe_speed, tau_t / safe_speed,
            (diff2(kappa, h) - kappa_t * stretch) / safe_speed**2,
            (diff2(tau, h) - tau_t * stretch) / safe_speed**2)


def with_arclength_derivatives(frames: FrameData, h: float) -> FrameData:
    """``frames`` plus kappa', tau', kappa'' and tau'' from its own kappa, tau
    and speed on a uniform grid of step h."""
    kp, tp, ks, ts = curvature_derivatives(frames.kappa, frames.tau, frames.speed, h)
    return replace(frames, kappa_prime=kp, tau_prime=tp, kappa_second=ks, tau_second=ts)


def frenet_frames_sampled(
    grid: np.ndarray,
    positions: np.ndarray,
    kappa_min: float = KAPPA_FLOOR_DEFAULT,
    strict: bool = True,
) -> FrameData:
    """Numeric frames for sampled positions (O(h^2) stencils).

    With strict=False degenerate points are masked in ``valid`` instead of
    raising; their frame rows are not meaningful. ``direction_error`` is the
    h^2-scaled leading stencil error of T (amplified by 1/speed at cusps)
    plus that of B (amplified by 1/|a' x a''| at inflections). kappa', tau',
    kappa'' and tau'' are left None.
    """
    grid = np.asarray(grid, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if grid.ndim != 1 or positions.shape != (grid.size, 3):
        raise SpecificationError("positions must be (n, 3) aligned with grid")
    if positions.shape[0] < 7:
        raise InsufficientDataError("numeric frames need at least 7 samples")
    # One h for every block: a block's own first step can differ in the last ulp.
    h = uniform_spacing(grid)

    def rows(lo, hi):
        p = positions[lo:hi]
        d1, d2, d3 = diff1(p, h), diff2(p, h), diff3(p, h)
        T, N, B, kappa, tau, speed, cn, valid = _frenet_from_derivs(d1, d2, d3, kappa_min)
        n2, n3, n4 = (norm3(d) for d in (d2, d3, diff1(d3, h)))
        tiny = 1e-300
        est_tangent = (h * h / 6.0) * n3 / np.maximum(speed, tiny)
        est_binormal = h * h * (n3 * n2 / 6.0 + speed * n4 / 12.0) / np.maximum(cn, tiny)
        return T, N, B, kappa, tau, speed, valid, est_tangent + est_binormal

    # diff1 of diff3 reaches three rows on each side.
    T, N, B, kappa, tau, speed, valid, direction_error = rowmap(rows, grid.size, halo=3)
    if strict:
        _require_valid(valid, kappa_min, grid)
    return FrameData(T=T, N=N, B=B, kappa=kappa, tau=tau, speed=speed, valid=valid,
                     direction_error=direction_error)


def sample_curve(
    spec: CurveSpec,
    grid: np.ndarray,
    with_frames: bool = True,
) -> SampledCurve:
    """Sample a CurveSpec on ``grid``; analytic curves get exact frames."""
    grid = np.asarray(grid, dtype=float)
    lo, hi = spec.domain()
    if grid[0] < lo - 1e-12 or grid[-1] > hi + 1e-12:
        raise DomainError("grid extends outside the curve domain")
    if spec.is_analytic:
        def rows(lo, hi):
            d0, d1, d2, d3 = spec._analytic_derivs(grid[lo:hi])
            if not with_frames:
                return (d0,)
            T, N, B, kappa, tau, speed, _, valid = _frenet_from_derivs(
                d1, d2, d3, KAPPA_FLOOR_DEFAULT)
            return d0, T, N, B, kappa, tau, speed, valid

        d0, *frame_rows = rowmap(rows, grid.size)
        frames = None
        if with_frames:
            T, N, B, kappa, tau, speed, valid = frame_rows
            _require_valid(valid, KAPPA_FLOOR_DEFAULT, grid)
            zeros = np.zeros_like(kappa)
            # Named families have constant curvature and torsion.
            frames = FrameData(T=T, N=N, B=B, kappa=kappa, tau=tau,
                               kappa_prime=zeros, tau_prime=zeros, speed=speed,
                               kappa_second=zeros, tau_second=zeros,
                               valid=valid)
        return SampledCurve(grid=grid, positions=d0, frames=frames)

    pts = spec.points
    pos = pts[:, 1:4] if same_grid(pts[:, 0], grid) else spec.interpolant()(grid)
    frames = (with_arclength_derivatives(frenet_frames_sampled(grid, pos),
                                         uniform_spacing(grid)) if with_frames else None)
    return SampledCurve(grid=grid, positions=pos, frames=frames)


@dataclass(frozen=True)
class FrenetResiduals:
    """Pointwise defects of the frame transport identities."""

    tangent: np.ndarray   # |T' - kappa N|
    normal: np.ndarray    # |N' + kappa T - tau B|
    binormal: np.ndarray  # |B' + tau N|

    def maxima(self) -> tuple[float, float, float]:
        return (float(self.tangent.max()), float(self.normal.max()),
                float(self.binormal.max()))


def frenet_residuals(curve: SampledCurve) -> FrenetResiduals:
    """Finite-difference check of T' = kN, N' = -kT + tB, B' = -tN.

    The identities hold for unit-speed curves; residuals decay as O(h^2)
    under grid refinement.
    """
    if curve.frames is None:
        raise SpecificationError("frenet_residuals requires a curve with frames")
    step = curve.spacing()
    f = curve.frames
    dT = diff1(f.T, step)
    dN = diff1(f.N, step)
    dB = diff1(f.B, step)
    k = f.kappa[:, None]
    t = f.tau[:, None]
    r1 = norm3(dT - k * f.N)
    r2 = norm3(dN + k * f.T - t * f.B)
    r3 = norm3(dB + t * f.N)
    return FrenetResiduals(tangent=r1, normal=r2, binormal=r3)


def reparametrize_arclength(
    curve: CurveSpec,
    domain: tuple[float, float],
    n: int,
    tol: float = 1e-6,
) -> SampledCurve:
    """Resample ``curve`` at n equally spaced arc-length values.

    The domain is cut into ``_EQUAL_PIECES`` equal pieces and at each knot of
    a sampled curve's spline. On each piece, the Chebyshev series through the
    exact speed |a'| at the nodes, integrated, gives s(t) and the length; t(s)
    is the Chebyshev interpolant in s, its node values found by Newton's method.
    """
    if n < 7:
        raise SpecificationError("reparametrization needs n >= 7")
    t0, t1 = float(domain[0]), float(domain[1])
    if not t0 < t1:
        raise SpecificationError("domain must satisfy t0 < t1")
    lo, hi = curve.domain()
    if t0 < lo - 1e-12 or t1 > hi + 1e-12:
        raise DomainError("requested domain extends outside the curve")

    cuts = np.linspace(t0, t1, _EQUAL_PIECES + 1)
    if not curve.is_analytic:
        spline = curve.interpolant()
        cuts = np.union1d(cuts, spline.x[(spline.x > t0) & (spline.x < t1)])
    # (node, piece) arrays. On a piece x = (t - mid) / half, and s = half * arc(x).
    mid, half = (cuts[1:] + cuts[:-1]) / 2.0, (cuts[1:] - cuts[:-1]) / 2.0
    t_nodes = (mid + half * _CHEB_NODES[:, None]).ravel()
    d1 = curve._analytic_derivs(t_nodes)[1] if curve.is_analytic else spline(t_nodes, 1)
    speed = norm3(d1).reshape(_CHEB_POINTS, mid.size)
    if np.min(speed) <= tol:
        bad = float(t_nodes[int(np.argmin(speed))])
        raise RegularityError(f"near-zero speed {np.min(speed):.3e} at s={bad:.6g}; curve is"
                              " not regular there", s=bad)
    # Products with (node, piece) arrays are einsum: BLAS threads cost more than they save.
    arc = np.einsum("jk,kp->jp", chebvander(_CHEB_NODES, _CHEB_POINTS) @ _CHEB_INT, speed)
    target = arc[-1] * ((_CHEB_NODES[:, None] + 1.0) / 2.0)
    # Newton's method for arc(x) = target, from the nodes, where the slope is
    # the speed. A step d leaves an error in t of at most bound * d**2.
    bound = half * np.abs(np.einsum("mk,kp->mp", _CHEB_DER, speed)).sum(0) / (2 * speed.min(0))
    step = (arc - target) / speed
    x = _CHEB_NODES[:, None] - step
    for _ in range(_NEWTON_STEPS):
        if np.max(bound * (step * step).max(0)) <= np.spacing(max(abs(t0), abs(t1))):
            break
        step = chebval(x, np.einsum("mk,kp->mp", _CHEB_INT, speed), tensor=False) - target
        step /= chebval(x, np.einsum("mk,kp->mp", _CHEB_FIT, speed), tensor=False)
        x = np.clip(x - step, -1.0, 1.0)

    edges = np.concatenate([[0.0], np.cumsum(half * arc[-1])])
    s_grid = np.linspace(0.0, float(edges[-1]), n)
    p = np.searchsorted(edges[1:-1], s_grid, side="right")
    y = 2.0 * (s_grid - edges[p]) / (half[p] * arc[-1, p]) - 1.0
    x_rows = chebval(y, np.einsum("mk,kp->mp", _CHEB_FIT, x)[:, p], tensor=False)
    t_grid = mid[p] + half[p] * x_rows
    t_grid[0], t_grid[-1] = t0, t1
    pos = curve._analytic_derivs(t_grid)[0] if curve.is_analytic else spline(t_grid)

    # The frames' speed is the finite-difference |a'| of the unit-speed check.
    frames = frenet_frames_sampled(s_grid, pos, strict=False)
    h = uniform_spacing(s_grid)
    dev = np.abs(frames.speed[1:-1] - 1.0)
    if dev.max() > max(tol, 50.0 * h * h):
        bad = float(s_grid[1 + np.argmax(dev)])
        raise RegularityError(f"unit-speed residual {dev.max():.3e} exceeds tolerance after"
                              f" reparametrization at s={bad:.6g}", s=bad)
    return SampledCurve(grid=s_grid, positions=pos,
                        frames=with_arclength_derivatives(frames, h))
