"""The nine associated-curve families.

A mate is alpha* = alpha + lambda * V with V one of the base Frenet vectors
T, N, B; the association requires V to lie in the osculating (O), normal
(P), or rectifying (R) plane of the mate. For each offset vector the
derivatives of alpha* have closed-form components in the base frame:

    V = T:  alpha*'  = (1 + lambda') T + lambda kappa N
    V = N:  alpha*'  = (1 - lambda kappa) T + lambda' N + lambda tau B
    V = B:  alpha*'  = T - lambda tau N + lambda' B

Taken as jets (value and derivatives) of the components, alpha*'' and
alpha*''' follow from alpha*' by one Frenet-Serret derivative,
D(a, b, c) = (a' - kappa b, b' + kappa a - tau c, c' + tau b), with the
Leibniz rule for products. The mate's tangent is the normalized first
derivative, its binormal the normalized cross product of the first two
derivatives, and N* = B* x T*; predicted frames and curvatures below are
evaluated on the whole grid from those exact component vectors. The same
rule states each family's condition <V, n*> = 0 (``plane_condition``).

FAMILIES holds what distinguishes the nine families: the coefficient and
base-curve prerequisites, which verification checks gate the verdict, the
report key of the coefficient check, and the catalogued printed curvature
formulas, kept verbatim for the formula audit in :mod:`curvemates.verify`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .errors import PlanarityError, SpecificationError
from .geometry import FrameData, SampledCurve, frenet_from_cross
from .numdiff import cross3, rowmap
from .solvers import LambdaSolution

VECTORS = ("T", "N", "B")
# Which mate frame vector is normal to each plane.
PLANE_NORMAL = {"O": "B", "P": "T", "R": "N"}

_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class AssociationSpec:
    """Family selector: offset vector, plane of the mate, plane coefficients."""

    vector: str
    plane: str
    coeffs: tuple[float, float]

    def __post_init__(self):
        if self.vector not in VECTORS:
            raise SpecificationError(f"offset vector must be one of {VECTORS}")
        if self.code not in FAMILIES:
            raise SpecificationError("plane must be one of ('O', 'P', 'R')")
        c = (float(self.coeffs[0]), float(self.coeffs[1]))
        object.__setattr__(self, "coeffs", c)
        FAMILIES[self.code].check_coeffs(c)

    @property
    def code(self) -> str:
        return self.vector + self.plane

    def ratio(self) -> float:
        """First-over-second coefficient (a/b or e/f), used by the linear ODE."""
        if self.coeffs[1] == 0.0:
            raise SpecificationError("ratio undefined: second coefficient is zero")
        return self.coeffs[0] / self.coeffs[1]


def construct_mate(
    base: SampledCurve, offset_vector: str, lam: LambdaSolution
) -> SampledCurve:
    """Pointwise alpha*_i = alpha_i + lambda_i V_i along a base frame vector."""
    if offset_vector not in VECTORS:
        raise SpecificationError(f"offset vector must be one of {VECTORS}")
    if base.frames is None:
        raise SpecificationError("base curve must carry frames")
    lam.require_grid(base.grid)
    V = getattr(base.frames, offset_vector)
    positions = base.positions + lam.lam[:, None] * V
    return SampledCurve(grid=base.grid, positions=positions)


def klm_coefficients(lam, lam_p, lam_pp, kappa, tau, kappa_p, tau_p):
    """Components of alpha*' x alpha*'' for normal offsets (vectorized).

    K and M follow the customary printed forms; L is the actual cross
    product component lam*tau*(-lam*kappa' - 2*lam'*kappa) -
    (1 - lam*kappa)*(lam*tau' + 2*lam'*tau), which differs from a commonly
    printed variant by the sign of its first term. The triple (K, L, M)
    always equals the finite-difference cross product of the constructed
    mate, which is the property tests key on.
    """
    one = 1.0 - lam * kappa
    d = one * kappa - lam * tau**2 + lam_pp
    K = lam_p * (lam * tau_p + 2.0 * lam_p * tau) - lam * tau * d
    L = lam * tau * (-lam * kappa_p - 2.0 * lam_p * kappa) - one * (lam * tau_p + 2.0 * lam_p * tau)
    M = one * d - lam_p * (-lam * kappa_p - 2.0 * lam_p * kappa)
    return K, L, M


def xyz_coefficients(lam, lam_p, lam_pp, kappa, tau, kappa_p, tau_p):
    """Components of alpha*' x alpha*'' for binormal offsets (vectorized)."""
    X = -lam * tau * (-lam * tau**2 + lam_pp) - lam_p * (-lam * tau_p - 2.0 * lam_p * tau + kappa)
    Y = lam * tau**2 - lam_pp + lam_p * lam * tau * kappa
    Z = -lam * tau_p - 2.0 * lam_p * tau + kappa + lam**2 * tau**2 * kappa
    return X, Y, Z


def _leibniz(x, y, m):
    """Orders 0..m-1 (m <= 3) of the product of two jets, each a tuple of a
    function's value and derivatives: the Leibniz rule."""
    xy = (x[0] * y[0],)
    if m > 1:
        xy += (x[1] * y[0] + x[0] * y[1],)
    if m > 2:
        xy += (x[2] * y[0] + 2 * x[1] * y[1] + x[0] * y[2],)
    return xy


def _frenet_derivative(v, kappa, tau):
    """D(a, b, c) = (a' - kappa b, b' + kappa a - tau c, c' + tau b): the
    derivative of a T + b N + c B along the unit-speed base, on jets of its
    components; each result jet is one order shorter. Each component is formed
    right after its own Leibniz products, which are freed before the next ones."""
    a, b, c = v
    m = len(a) - 1
    kb = _leibniz(kappa, b, m)
    da = tuple(a[i + 1] - kb[i] for i in range(m))
    del kb
    ka, tc = _leibniz(kappa, a, m), _leibniz(tau, c, m)
    db = tuple(b[i + 1] + ka[i] - tc[i] for i in range(m))
    del ka, tc
    tb = _leibniz(tau, b, m)
    return da, db, tuple(c[i + 1] + tb[i] for i in range(m))


def _velocity(vector, lam, kappa, tau):
    """alpha*', the module docstring's line for V, as jets of its base-frame
    components as long as kappa's (0 where one vanishes); lam is one longer."""
    m = len(kappa)
    if vector == "T":
        return ((1 + lam[1], *lam[2:]), _leibniz(lam, kappa, m), (0,) * m)
    if vector == "N":
        lk = _leibniz(lam, kappa, m)
        return ((1 - lk[0], *(-x for x in lk[1:])), lam[1:], _leibniz(lam, tau, m))
    return ((1,) + (0,) * (m - 1), tuple(-x for x in _leibniz(lam, tau, m)), lam[1:])


def _mate_derivatives(vector, lam, kappa, tau):
    """alpha*', alpha*' x alpha*'' and alpha*''' in the base frame basis, (n, 3) each,
    from the jets (lambda, ..., lambda'''), (kappa, kappa', kappa''), (tau, tau', tau'')."""
    d1 = _velocity(vector, lam, kappa, tau)
    d2 = _frenet_derivative(d1, kappa, tau)
    u, v, d3 = ([c[0] for c in d] for d in (d1, d2, _frenet_derivative(d2, kappa, tau)))
    w = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    return tuple(np.stack(np.broadcast_arrays(*x), axis=-1) for x in (u, w, d3))


def plane_condition(vector, plane, lam, kappa, tau):
    """(raw, |w|) of a family's condition <V, n*> = 0 from the jets (lambda, lambda',
    lambda''), (kappa, kappa') and (tau, tau'), arrays or floats: raw is V's component
    of u = alpha*' if n* = T* (P), of w = u x alpha*'' if B* (O), of w x u if N* (R)."""
    d1 = _velocity(vector, lam, kappa, tau)
    u = [c[0] for c in d1]
    v = [c[0] for c in _frenet_derivative(d1, kappa, tau)]
    del d1  # the jets' derivative rows are not read again
    w = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    del v
    i, normal = VECTORS.index(vector), PLANE_NORMAL[plane]
    j, k = (i + 1) % 3, (i + 2) % 3
    raw = u[i] if normal == "T" else w[i] if normal == "B" else w[j] * u[k] - w[k] * u[j]
    return raw, np.sqrt(w[0] ** 2 + w[1] ** 2 + w[2] ** 2)


def _embed(components: np.ndarray, frames: FrameData) -> np.ndarray:
    """Lift frame-basis components (n, 3) to world vectors, summed into one
    array in the order c0 T + c1 N + c2 B."""
    out = components[:, 0:1] * frames.T
    out += components[:, 1:2] * frames.N
    out += components[:, 2:3] * frames.B
    return out


def _closed_form(
    frames: FrameData, vector: str, lam_sol: LambdaSolution, lam_ppp: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(T*, N*, B*, kappa*, tau*, defined) of the mate from base data.

    u = alpha*', w = alpha*' x alpha*'' and alpha*''' are built in base-frame
    components and go through :func:`geometry.frenet_from_cross`, which
    holds in any orthonormal basis; T* and B* are then lifted to world
    vectors and N* = B* x T*. ``defined`` masks points where |u| or |w| is at
    the floor; those rows are NaN.
    """
    u, w, d3 = _mate_derivatives(
        vector, (lam_sol.lam, lam_sol.lam_prime, lam_sol.lam_double_prime, lam_ppp),
        (frames.kappa, frames.kappa_prime, frames.kappa_second),
        (frames.tau, frames.tau_prime, frames.tau_second))
    T_c, B_c, kappa_star, tau_star, un, wn = frenet_from_cross(u, w, d3)
    # Free the component arrays before the world vectors are built; held,
    # they would set associate's memory peak.
    del u, w, d3
    defined = (un > _DENOM_FLOOR) & (wn > _DENOM_FLOOR)
    T_star, B_star = _embed(T_c, frames), _embed(B_c, frames)
    N_star = cross3(B_star, T_star)
    bad = ~defined
    for arr in (T_star, N_star, B_star, kappa_star, tau_star):
        arr[bad] = np.nan
    return T_star, N_star, B_star, kappa_star, tau_star, defined


def predicted_frames_grid(
    frames: FrameData, vector: str, lam_sol: LambdaSolution
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form mate frames on the whole grid.

    Returns (T*, N*, B*, defined) where ``defined`` masks points at which
    either the mate speed or its cross product vanishes; those rows are NaN.
    """
    # The frames never read alpha*''', so lambda''' is passed as zeros; a
    # lambda too short to difference still gets its frames.
    T_star, N_star, B_star, _, _, defined = _closed_form(
        frames, vector, lam_sol, np.zeros_like(lam_sol.lam))
    return T_star, N_star, B_star, defined


def mate_curvatures_closed(
    frames: FrameData, vector: str, lam_sol: LambdaSolution,
    lam_ppp: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact closed-form kappa*, tau* of the mate from base data.

    kappa* = |w| / |u|^3 and tau* = <w, alpha*'''> / |w|^2 with the
    component vectors above. Returns (kappa*, tau*, defined).
    """
    if lam_ppp is None:
        lam_ppp = lam_sol.lam_third()
    return _closed_form(frames, vector, lam_sol, lam_ppp)[3:]


def _safe_div(num, den):
    den = np.asarray(den, dtype=float)
    ok = np.abs(den) > _DENOM_FLOOR
    out = np.divide(num, np.where(ok, den, 1.0))
    return np.where(ok, out, np.nan)


# Catalogued printed formulas for kappa*, tau*, one per family, evaluated
# verbatim. Each takes the two plane coefficients plus the keyword arrays
# passed by predicted_curvature_arrays and returns (kappa*, tau*).


def _printed_to(a, b, lam, **_):
    ks = _safe_div(b, lam * math.hypot(a, b))
    ts = np.zeros_like(lam)
    return ks, ts


def _printed_tp(p, q, lam, k, t, kp, tp, **_):
    ks = _safe_div(np.sqrt(k**2 + t**2), lam * k)
    ts = _safe_div(k * tp - kp * t, lam * k * (k**2 + t**2))
    return ks, ts


def _printed_tr(e, f, lam, k, t, kp, tp, **_):
    ks = _safe_div(t * f**2, lam * k * (e**2 + f**2))
    num = f * (k**2 * t * e**3 + k**2 * t * e * f**2 + t**3 * e * f**2
               + k * tp * e**2 * f + k * tp * f**3
               - kp * t * e**2 * f - kp * t * f**3)
    den = lam * k * (t**2 * e**2 * f**2 + t**2 * f**4 + k**2 * e**4
                     + 2.0 * k**2 * e**2 * f**2 + k**2 * f**4)
    ts = _safe_div(num, den)
    return ks, ts


def _printed_no(a, b, lam, lam_p, lam_pp, k, t, kp, tp, kpp, tpp, **_):
    K, L, M = klm_coefficients(lam, lam_p, lam_pp, k, t, kp, tp)
    G = M * (lam * k - 1.0) - K * lam * t
    ks = _safe_div(a**4 * G, b * (a**2 + b**2) * lam_p**4)
    third_T = (lam * k**3 + lam * k * t**2 - 3.0 * lam_p * kp
               - lam * kpp - 3.0 * lam_pp * k - k**2)
    third_B = (k * t - lam * k**2 * t - lam * t**3
               + 3.0 * lam_p * tp + lam * tpp + 3.0 * lam_pp * t)
    ts = _safe_div(b * lam_p, a * G) * (K * third_T + M * third_B)
    return ks, ts


def _printed_np(c, d, lam, lam_pp, k, t, kp, tp, kpp, tpp, **_):
    zeros = np.zeros_like(lam)
    kk, ll, mm = klm_coefficients(lam, zeros, lam_pp, k, t, kp, tp)
    G = mm * (lam * k - 1.0) - kk * lam * t
    ks = _safe_div(ll * c**3 * math.hypot(c, d), d**4 * G**3)
    ts = _safe_div(ll**2 * (c**2 + d**2), d**2) * (
        kk * (k**3 * lam + k * t**2 * lam - lam * kpp - k**2)
        + ll * (-3.0 * lam * t * tp - 3.0 * lam * kp * k + kp)
        + mm * (-k**2 * t * lam - t**3 * lam + lam * tpp + k * t)
    )
    return ks, ts


def _printed_nr(e, f, lam, lam_p, lam_pp, lam_ppp, k, t, kp, tp, kpp, tpp, **_):
    K, L, M = klm_coefficients(lam, lam_p, lam_pp, k, t, kp, tp)
    ks = _safe_div(e**3 * L, f * (e**2 + f**2) * lam_p**3)
    ts = _safe_div(L**2 * (e**2 + f**2), f**2) * (
        K * (lam * k**3 + lam * k * t**2 - lam * kpp - k**2
             - 3.0 * lam_pp * k - 3.0 * lam_p * kp)
        + L * (-3.0 * lam * k * kp - 3.0 * lam * t * tp - 3.0 * k**2 * lam_p
               - 3.0 * lam_p * t**2 + lam_ppp + kp)
        + M * (-lam * k**2 * t - lam * t**3 + lam * tpp + k * t
               + 3.0 * lam_pp * t + 3.0 * lam_p * tp)
    )
    return ks, ts


def _printed_bo(a, b, lam, lam_p, lam_pp, k, t, kp, tp, tpp, **_):
    X, Y, Z = xyz_coefficients(lam, lam_p, lam_pp, k, t, kp, tp)
    G = X * lam * t + Y
    ks = _safe_div(-(a**4) * G, lam_p**2 * b * (a**2 + b**2) ** 1.5)
    ts = _safe_div(b**2 * lam_p**2, a**2 * G**2) * (
        X * (lam * t * kp + 3.0 * lam_p * t * k + 2.0 * lam * tp * k - k**2)
        + Y * (lam * t**3 + lam * t * k**2 - lam * tpp
               - 3.0 * lam_p * tp - 3.0 * lam_pp * t + kp)
    )
    return ks, ts


def _printed_bp(c, d, lam, k, t, kp, tp, tpp, **_):
    core = -lam * tp + k + lam**2 * t**2
    ks = _safe_div(-(d**2) * math.hypot(c, d) * (lam * t**2 * (1.0 + lam**2 * t**2)) ** 3,
                   c**3 * core**2)
    num = d**2 * (lam**2 * t**3 * (lam * t * kp + 2.0 * tp * k * lam - k**2)
                  + lam * t**2 * (lam * t * k**2 + lam * t**3 - tpp * lam + kp)
                  + core * (-3.0 * tp * t * lam + k * t))
    ts = _safe_div(num, (c**2 + d**2) * core**2)
    return ks, ts


def _printed_br(e, f, lam, lam_p, lam_pp, lam_ppp, k, t, kp, tp, tpp, **_):
    X, Y, Z = xyz_coefficients(lam, lam_p, lam_pp, k, t, kp, tp)
    ks = _safe_div(Z * e**3, f * (e**2 + f**2) * lam_p**3)
    ts = _safe_div(f**2, Z**2 * (e**2 + f**2)) * (
        X * (lam * t * kp + 2.0 * lam * tp * k + 3.0 * lam_p * t * k - k**2)
        + Y * (lam * t * k**2 + lam * t**3 - lam * tpp
               - 3.0 * lam_pp * t - 3.0 * lam_p * tp + kp)
        + Z * (-3.0 * lam * t * tp - 3.0 * lam_p * t**2 + k * t + lam_ppp)
    )
    return ks, ts


@dataclass(frozen=True)
class Family:
    """What distinguishes one associated-curve family.

    ``gates`` says which residual groups of the verification gate the
    verdict (True) and which are reported for audit only (False).
    ``coefficient`` is the report key of the family's :func:`plane_condition` check.
    ``curvatures`` is the printed kappa*, tau* formula. ``nonzero`` names
    the second plane coefficient when the family needs it nonzero;
    ``planar_base`` and ``constant_offset`` are prerequisites of
    :func:`associate`.
    """

    vector: str
    plane: str
    title: str
    gates: dict
    curvatures: Callable
    coefficient: str | None = None
    nonzero: str | None = None
    planar_base: bool = False
    constant_offset: bool = False

    def check_coeffs(self, coeffs: tuple[float, float]) -> None:
        if not (math.isfinite(coeffs[0]) and math.isfinite(coeffs[1])):
            raise SpecificationError("plane coefficients must be finite")
        if coeffs[0] == 0.0 and coeffs[1] == 0.0:
            raise SpecificationError("plane coefficients must not both vanish")
        if self.nonzero is not None and coeffs[1] == 0.0:
            raise SpecificationError(f"{self.title} association requires {self.nonzero} != 0")


def _gates(constraint: bool, frames: bool, curvatures: bool) -> dict:
    return {"constraint": constraint, "frames": frames, "curvatures": curvatures}


# Printed curvature formulas of the normal and binormal families are
# audit-only; the tangent/rectifying family's printed curvatures and its
# defining orthogonality are audit-only because they are unattainable for
# curves with positive curvature (the first-order offset relation forces a
# nonzero normal component of the mate cross product), which the report
# surfaces instead of enshrining. Gating is versioned by
# verify.GATING_TABLE_VERSION.
FAMILIES = {f.vector + f.plane: f for f in (
    Family("T", "O", "tangent/osculating", _gates(True, True, True), _printed_to,
           nonzero="b", planar_base=True),
    Family("T", "P", "tangent/normal", _gates(True, True, True), _printed_tp),
    Family("T", "R", "tangent/rectifying", _gates(False, True, False), _printed_tr,
           nonzero="f"),
    Family("N", "O", "normal/osculating", _gates(True, False, False), _printed_no,
           coefficient="L-coefficient"),
    Family("N", "P", "normal/normal", _gates(True, True, False), _printed_np,
           constant_offset=True),
    Family("N", "R", "normal/rectifying", _gates(True, False, False), _printed_nr,
           coefficient="NR-coefficient"),
    Family("B", "O", "binormal/osculating", _gates(True, False, False), _printed_bo,
           coefficient="Z-coefficient"),
    Family("B", "P", "binormal/normal", _gates(True, True, False), _printed_bp,
           constant_offset=True),
    Family("B", "R", "binormal/rectifying", _gates(True, False, False), _printed_br,
           coefficient="BR-coefficient"),
)}


def predicted_curvature_arrays(
    frames: FrameData, spec: AssociationSpec, lam_sol: LambdaSolution, lam_ppp: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The family's catalogued printed formulas for kappa*, tau*.

    Points where a printed denominator vanishes become NaN; formulas under
    the audit posture are reported and flagged, never silently repaired.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return FAMILIES[spec.code].curvatures(
            *spec.coeffs, lam=lam_sol.lam, lam_p=lam_sol.lam_prime,
            lam_pp=lam_sol.lam_double_prime, lam_ppp=lam_ppp,
            k=frames.kappa, t=frames.tau, kp=frames.kappa_prime, tp=frames.tau_prime,
            kpp=frames.kappa_second, tpp=frames.tau_second,
        )


def classify_special_case(spec: AssociationSpec, lam_sol: LambdaSolution) -> str:
    """involute / bertrand-like / mannheim-like / generic.

    Involutes are exactly the tangent/normal-plane family. Normal offsets
    are Bertrand-like when the osculating combination degenerates to the
    mate normal (a = 0) or when the offset is constant in the normal-plane
    family; binormal/osculating offsets with a = 0 are Mannheim-like. Only
    coefficient ratios matter, so the classification is invariant under
    positive rescaling.
    """
    if spec.vector == "T" and spec.plane == "P":
        return "involute"
    if spec.vector == "N":
        if spec.plane == "O" and spec.coeffs[0] == 0.0:
            return "bertrand-like"
        if spec.plane == "P" and lam_sol.is_constant():
            return "bertrand-like"
    if spec.vector == "B" and spec.plane == "O" and spec.coeffs[0] == 0.0:
        return "mannheim-like"
    return "generic"


def _rows(data, lo: int, hi: int):
    """A copy of a FrameData or LambdaSolution holding rows lo..hi of each array."""
    return replace(data, **{f.name: value[lo:hi] for f in fields(data)
                            if isinstance(value := getattr(data, f.name), np.ndarray)})


@dataclass(frozen=True)
class PredictedMate:
    """A constructed mate with its closed-form frames and curvatures."""

    base: SampledCurve
    mate: SampledCurve
    family: AssociationSpec
    lam: LambdaSolution
    T_star: np.ndarray
    N_star: np.ndarray
    B_star: np.ndarray
    kappa_star: np.ndarray
    tau_star: np.ndarray
    kappa_star_closed: np.ndarray
    tau_star_closed: np.ndarray
    defined: np.ndarray
    classification: str


def associate(
    base: SampledCurve,
    spec: AssociationSpec,
    lam_sol: LambdaSolution,
) -> PredictedMate:
    """Construct the mate of ``base`` for the given family.

    Enforces the family prerequisites in FAMILIES: tangent/osculating mates
    exist only for planar bases (max |tau| < 1e-6), and the
    normal-plane families require a constant offset. Every offset keeps
    |lambda| <= BLOWUP_CAP, the bound RK4 enforces; a value beyond it is a
    SpecificationError at its first s.
    """
    if base.frames is None:
        raise SpecificationError("base curve must carry frames")
    base.frames.require("kappa_prime", "tau_prime", "kappa_second", "tau_second")
    lam_sol.require_grid(base.grid)
    lam_sol.require_bounded()
    if float(np.max(np.abs(base.frames.speed - 1.0))) > 1e-4:
        raise SpecificationError("base curve must be arc-length parametrized")

    family = FAMILIES[spec.code]
    if family.planar_base:
        max_tau = float(np.max(np.abs(base.frames.tau)))
        if max_tau >= 1e-6:
            raise PlanarityError(
                f"{family.title} association requires a planar base; max |tau| = {max_tau:.3e}"
            )
    if family.constant_offset and not lam_sol.is_constant():
        raise SpecificationError(
            f"{spec.code} association requires a constant offset (lambda' = 0)"
        )

    lam_ppp = lam_sol.lam_third()

    def rows(lo, hi):
        frames, lam = _rows(base.frames, lo, hi), _rows(lam_sol, lo, hi)
        # On lambda's own grid rows, so that construct_mate's grid check is an identity test.
        block = SampledCurve(grid=lam.grid, positions=base.positions[lo:hi], frames=frames)
        return (construct_mate(block, spec.vector, lam).positions,
                *_closed_form(frames, spec.vector, lam, lam_ppp[lo:hi]),
                *predicted_curvature_arrays(frames, spec, lam, lam_ppp[lo:hi]))

    positions, T_star, N_star, B_star, ks_c, ts_c, defined, ks, ts = rowmap(
        rows, base.n)
    return PredictedMate(
        base=base, mate=SampledCurve(grid=base.grid, positions=positions),
        family=spec, lam=lam_sol,
        T_star=T_star, N_star=N_star, B_star=B_star,
        kappa_star=ks, tau_star=ts,
        kappa_star_closed=ks_c, tau_star_closed=ts_c,
        defined=defined,
        classification=classify_special_case(spec, lam_sol),
    )
