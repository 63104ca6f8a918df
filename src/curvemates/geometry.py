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

from .errors import (
    CurvatureDegenerateError,
    DomainError,
    InsufficientDataError,
    RegularityError,
    SpecificationError,
)
from .numdiff import (
    cross3,
    cumulative_simpson,
    diff1,
    diff2,
    diff3,
    norm3,
    same_grid,
    uniform_spacing,
)

KAPPA_FLOOR_DEFAULT = 1e-8
SPEED_FLOOR_DEFAULT = 1e-12

_ANALYTIC_KINDS = ("circle", "helix")


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

    def _analytic_derivs(self, s: np.ndarray, order: int) -> list[np.ndarray]:
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
        return table[: order + 1]


@dataclass(frozen=True)
class FrameData:
    """Vectorized frame arrays aligned with a sample grid.

    ``direction_error`` is the leading finite-difference error of the T and
    B directions, per point, for frames differentiated from samples; it is
    None for exact analytic frames and for frames read from a file.
    """

    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    kappa_prime: np.ndarray
    tau_prime: np.ndarray
    speed: np.ndarray
    kappa_second: np.ndarray | None = None
    tau_second: np.ndarray | None = None
    valid: np.ndarray | None = None
    direction_error: np.ndarray | None = None

    def kappa_second_or_zero(self) -> np.ndarray:
        return self.kappa_second if self.kappa_second is not None else np.zeros_like(self.kappa)

    def tau_second_or_zero(self) -> np.ndarray:
        return self.tau_second if self.tau_second is not None else np.zeros_like(self.tau)


@dataclass(frozen=True)
class SampledCurve:
    """A curve sampled on an increasing grid, optionally carrying frames."""

    grid: np.ndarray
    positions: np.ndarray
    frames: FrameData | None = None
    unit_speed: bool = False

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


def _frenet_from_derivs(
    d1: np.ndarray,
    d2: np.ndarray,
    d3: np.ndarray,
    kappa_min: float,
    strict: bool = True,
    grid: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """Frames from derivative arrays via the general (non-unit-speed) formulas."""
    speed = norm3(d1)
    cross = cross3(d1, d2)
    cn = norm3(cross)
    safe_speed = np.where(speed > 0, speed, 1.0)
    kappa = cn / safe_speed**3
    valid = (speed > SPEED_FLOOR_DEFAULT) & (kappa > kappa_min)
    if strict and not np.all(valid):
        i = int(np.argmin(valid))
        where = f" at s={grid[i]}" if grid is not None else f" at index {i}"
        raise CurvatureDegenerateError(
            f"curvature below floor {kappa_min:g} (straight or singular segment){where}"
        )
    safe_cn = np.where(cn > 0, cn, 1.0)
    tau = np.einsum("...i,...i->...", cross, d3) / safe_cn**2
    T = d1 / safe_speed[..., None]
    B = cross / safe_cn[..., None]
    N = cross3(B, T)
    return T, N, B, kappa, tau, speed, cn, valid


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
    plus that of B (amplified by 1/|a' x a''| at inflections).
    """
    grid = np.asarray(grid, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if grid.ndim != 1 or positions.shape != (grid.size, 3):
        raise SpecificationError("positions must be (n, 3) aligned with grid")
    if positions.shape[0] < 7:
        raise InsufficientDataError("numeric frames need at least 7 samples")
    h = uniform_spacing(grid)
    d1 = diff1(positions, h)
    d2 = diff2(positions, h)
    d3 = diff3(positions, h)
    T, N, B, kappa, tau, speed, cn, valid = _frenet_from_derivs(
        d1, d2, d3, kappa_min, strict=strict, grid=grid
    )
    kp, tp, ks, ts = curvature_derivatives(kappa, tau, speed, h)
    n2, n3, n4 = (norm3(d) for d in (d2, d3, diff1(d3, h)))
    tiny = 1e-300
    est_tangent = (h * h / 6.0) * n3 / np.maximum(speed, tiny)
    est_binormal = h * h * (n3 * n2 / 6.0 + speed * n4 / 12.0) / np.maximum(cn, tiny)
    return FrameData(T=T, N=N, B=B, kappa=kappa, tau=tau, kappa_prime=kp,
                     tau_prime=tp, speed=speed, kappa_second=ks, tau_second=ts,
                     valid=valid, direction_error=est_tangent + est_binormal)


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
        d0, d1, d2, d3 = spec._analytic_derivs(grid, 3)
        frames = None
        if with_frames:
            T, N, B, kappa, tau, speed, _, _ = _frenet_from_derivs(
                d1, d2, d3, KAPPA_FLOOR_DEFAULT, strict=True, grid=grid
            )
            zeros = np.zeros_like(kappa)
            # Named families have constant curvature and torsion.
            frames = FrameData(T=T, N=N, B=B, kappa=kappa, tau=tau,
                               kappa_prime=zeros, tau_prime=zeros, speed=speed,
                               kappa_second=zeros, tau_second=zeros,
                               valid=np.ones_like(kappa, dtype=bool))
        speed = frames.speed if frames is not None else norm3(d1)
        unit = bool(np.max(np.abs(speed - 1.0)) < 1e-9)
        return SampledCurve(grid=grid, positions=d0, frames=frames, unit_speed=unit)

    pts = spec.points
    from scipy.interpolate import CubicSpline

    if same_grid(pts[:, 0], grid):
        pos = pts[:, 1:4]
    else:
        pos = CubicSpline(pts[:, 0], pts[:, 1:4], axis=0)(grid)
    frames = frenet_frames_sampled(grid, pos) if with_frames else None
    speed_dev = 0.0
    if frames is not None:
        speed_dev = float(np.max(np.abs(frames.speed - 1.0)))
    return SampledCurve(grid=grid, positions=pos, frames=frames,
                        unit_speed=frames is not None and speed_dev < 1e-6)


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

    Cumulative Simpson quadrature of the speed gives s(t); the monotone
    inverse t(s) comes from a PCHIP interpolant, which preserves the strict
    monotonicity of the quadrature.
    """
    if n < 7:
        raise SpecificationError("reparametrization needs n >= 7")
    t0, t1 = float(domain[0]), float(domain[1])
    if not t0 < t1:
        raise SpecificationError("domain must satisfy t0 < t1")
    lo, hi = curve.domain()
    if t0 < lo - 1e-12 or t1 > hi + 1e-12:
        raise DomainError("requested domain extends outside the curve")

    m = max(8 * n + 1, 4097)
    t_fine = np.linspace(t0, t1, m)
    if curve.is_analytic:
        d1 = curve._analytic_derivs(t_fine, 1)[1]
    else:
        d1 = diff1(sample_curve(curve, t_fine, with_frames=False).positions,
                   uniform_spacing(t_fine))
    speed = norm3(d1)
    # The (m, 3) fine-grid arrays are the largest this function holds; free
    # them before the quadrature and the PCHIP fit add their own.
    del d1
    if np.min(speed) <= tol:
        bad = float(t_fine[int(np.argmin(speed))])
        raise RegularityError(
            f"near-zero speed {np.min(speed):.3e} at s={bad:.6g}; curve is not regular there",
            s=bad,
        )
    s_of_t = cumulative_simpson(speed, t_fine[1] - t_fine[0])
    total = float(s_of_t[-1])

    from scipy.interpolate import PchipInterpolator

    t_of_s = PchipInterpolator(s_of_t, t_fine)
    s_grid = np.linspace(0.0, total, n)
    t_grid = np.asarray(t_of_s(s_grid), dtype=float)
    t_grid[0], t_grid[-1] = t0, t1
    if curve.is_analytic:
        pos = curve._analytic_derivs(t_grid, 0)[0]
    else:
        from scipy.interpolate import CubicSpline

        pts = curve.points
        pos = CubicSpline(pts[:, 0], pts[:, 1:4], axis=0)(t_grid)

    out = SampledCurve(grid=s_grid, positions=pos, unit_speed=True)
    h = out.spacing()
    fd_speed = norm3(diff1(pos, h))
    dev = float(np.max(np.abs(fd_speed[1:-1] - 1.0)))
    if dev > max(tol, 50.0 * h * h):
        raise RegularityError(
            f"unit-speed residual {dev:.3e} exceeds tolerance after reparametrization"
        )
    frames = frenet_frames_sampled(s_grid, pos, strict=False)
    return out.with_frames(frames)
