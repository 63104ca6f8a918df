"""Independent numeric verification of constructed mates.

The oracle recomputes the mate's Frenet apparatus from its positions alone
(second-order stencils) and checks, per family:

  * the defining orthogonality (offset vector against the mate's plane
    normal) and, for NO, NR, BO and BR, its coefficient check on lambda,
  * the distance identity |alpha* - alpha| = |lambda| (pure algebra),
  * closed-form frames against the numeric frames,
  * printed curvature formulas against numeric curvatures.

Which checks gate the verdict and which are audit-only is fixed per family
in association.FAMILIES (versioned by GATING_TABLE_VERSION). Frame gating
uses the angle between spanned lines; raw signed angles and sign-flip
fractions are reported alongside so orientation conventions are never
silently absorbed. Points where the mate is curvature-degenerate or its
speed collapses (offset cusps) are excluded from gating and enumerated in
the report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .association import FAMILIES, PLANE_NORMAL, AssociationSpec, PredictedMate
from .errors import SpecificationError
from .geometry import STENCIL_HALO, FrameData, SampledCurve, stencil_frames
from .numdiff import norm3, rowmap, same_grid, uniform_spacing
from .solvers import LambdaSolution, constraint_residual

GATING_TABLE_VERSION = 1

@dataclass(frozen=True)
class Tolerances:
    """Verification tolerances; all overridable per run.

    band_safety scales the degenerate-band detector: a grid point is
    excluded when the estimated finite-difference direction error of the
    oracle frames exceeds band_safety * constraint AND is anomalously
    larger than the grid's well-resolved floor (offset cusps, inflections,
    and straight segments cannot be certified there at any gate the
    remaining points can honestly meet).
    """

    constraint: float = 1e-5
    frame_angle: float = 1e-4
    curvature: float = 1e-3
    distance: float = 1e-12
    audit_flag: float = 1e-2
    kappa_min: float = 1e-8
    band_safety: float = 0.125
    band_pad: int = 4
    boundary_skip: int = 2

    def replace(self, **overrides) -> "Tolerances":
        """Copy with overrides; each value must be a finite number >= 0."""
        data = asdict(self)
        for key, value in overrides.items():
            if key not in data:
                raise SpecificationError(f"unknown tolerance {key!r}")
            number = float(value)
            if not (math.isfinite(number) and number >= 0):
                raise SpecificationError(
                    f"tolerance {key} must be finite and >= 0, got {value!r}")
            if isinstance(data[key], int):
                if not number.is_integer():
                    raise SpecificationError(
                        f"tolerance {key} must be a whole number, got {value!r}")
                number = int(number)
            data[key] = number
        return Tolerances(**data)


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated residuals of one mate verification."""

    family: AssociationSpec
    constraint_residuals: dict
    frame_errors: dict
    frame_raw_angles: dict
    frame_sign_flips: dict
    curvature_deltas: dict
    distance_check: float | None
    excluded_bands: list
    gated: dict
    verdict: str
    tolerances: Tolerances = field(default_factory=Tolerances)
    notes: list = field(default_factory=list)


def _frame_angles(dots: np.ndarray) -> tuple[float, float, float]:
    """(largest line angle, largest raw angle, sign-flip fraction) of
    unit-vector pairs from their dot products; 0.0 each for no pairs.

    The line angle arccos|d| equals the raw angle arccos(d) where d >= 0
    (-0.0 included), so arccos runs a second time only on the sign-flipped
    rows. A NaN dot makes both maxima NaN.
    """
    raw = np.arccos(np.clip(dots, -1.0, 1.0))
    raw_max = float(np.max(raw, initial=0.0))
    flipped = dots < 0.0
    line = raw  # reused in place: raw's maximum is already taken
    line[flipped] = np.arccos(np.clip(-dots[flipped], 0.0, 1.0))
    return (float(np.max(line, initial=0.0)), raw_max,
            np.count_nonzero(flipped) / max(dots.size, 1))


def _bands_from_mask(grid: np.ndarray, bad: np.ndarray) -> list:
    """Contiguous grid intervals covered by a boolean mask."""
    edges = np.diff(np.concatenate(([False], bad, [False])).astype(np.int8))
    starts = grid[np.flatnonzero(edges == 1)]
    ends = grid[np.flatnonzero(edges == -1) - 1]
    return np.column_stack([starts, ends]).tolist()


def _gate_mask(grid: np.ndarray, numeric: FrameData, tol: Tolerances) -> tuple[np.ndarray, list]:
    """Points eligible for gating, plus the excluded degenerate bands.

    A point is excluded when the oracle frames are not valid there (speed
    or curvature below its floor) or when their ``direction_error`` is too
    large to certify the constraint tolerance.
    """
    est = numeric.direction_error
    # Degenerate means both unresolvable at the gate tolerance and
    # anomalously worse than the grid's well-resolved floor; a uniformly
    # coarse grid is not a degeneracy.
    ill = (est > tol.band_safety * tol.constraint) & (est > 5.0 * np.percentile(est, 20.0))
    bad = ill | ~numeric.valid
    if tol.band_pad > 0 and np.any(bad):
        padded = bad.copy()
        for shift in range(1, tol.band_pad + 1):
            padded[shift:] |= bad[:-shift]
            padded[:-shift] |= bad[shift:]
        bad = padded
    bands = _bands_from_mask(grid, bad)
    gate = ~bad
    k = tol.boundary_skip
    if k > 0:
        gate[:k] = False
        gate[-k:] = False
    return gate, bands


def check_distance(
    base: SampledCurve, mate: SampledCurve, lam_sol: LambdaSolution
) -> float:
    """max | |alpha* - alpha| - |lambda| | / max(1, |alpha|, |lambda|) over the
    aligned grids: the identity's round-off grows with the larger of |alpha|
    and |lambda|, so rows beyond unit scale are judged relative to it."""
    if not same_grid(base.grid, mate.grid):
        raise SpecificationError("base and mate grids must coincide")
    lam_sol.require_grid(base.grid)
    lam = np.abs(lam_sol.lam)
    residual = norm3(mate.positions - base.positions)
    residual -= lam
    np.abs(residual, out=residual)
    scale = norm3(base.positions)
    np.maximum(scale, lam, out=scale)
    np.maximum(scale, 1.0, out=scale)
    residual /= scale
    return float(np.max(residual))


def _relative_deltas(ks_f, ts_f, ks_n, ts_n) -> tuple[float, float]:
    """Worst relative (kappa, tau) deltas of formula values against the oracle's.

    kappa deltas compare magnitudes (numeric curvature is nonnegative by
    definition while printed formulas inherit the sign of lambda); tau
    deltas are normalized by max(|tau*|, kappa*) pointwise so near-zero
    torsions are judged on the natural torsion-per-curvature scale. A
    formula that fails to evaluate (vanishing printed denominator) reports
    an infinite delta.
    """
    kappa = tau = math.inf
    if np.all(np.isfinite(ks_f)):
        kappa = float(np.max(np.abs(np.abs(ks_f) - ks_n) / np.maximum(ks_n, 1e-300)))
    if np.all(np.isfinite(ts_f)):
        scale = np.maximum(np.maximum(np.abs(ts_n), np.abs(ts_f)), ks_n)
        tau = float(np.max(np.abs(ts_f - ts_n) / np.maximum(scale, 1e-300)))
    return kappa, tau


def audit_curvature_formulas(
    predicted: PredictedMate, numeric: FrameData, rows: np.ndarray
) -> dict:
    """Relative deltas of the printed and the closed-form kappa*, tau* in
    ``predicted`` against the oracle, on the grid indices ``rows``."""
    if rows.size == 0:
        return {"kappa": 0.0, "tau": 0.0, "gated_points": 0}
    ks_n, ts_n = numeric.kappa[rows], numeric.tau[rows]
    kappa, tau = _relative_deltas(predicted.kappa_star[rows], predicted.tau_star[rows],
                                  ks_n, ts_n)
    kappa_closed, tau_closed = _relative_deltas(
        predicted.kappa_star_closed[rows], predicted.tau_star_closed[rows], ks_n, ts_n)
    return {"kappa": kappa, "tau": tau, "gated_points": int(rows.size),
            "kappa_closed": kappa_closed, "tau_closed": tau_closed}


def check_association(
    base: SampledCurve,
    mate: SampledCurve,
    spec: AssociationSpec,
    lam_sol: LambdaSolution | None = None,
    predicted: PredictedMate | None = None,
    tolerances: Tolerances | None = None,
) -> VerificationReport:
    """Verify a constructed mate against its family's defining relations.

    The mate's frames are recomputed from its positions by
    ``geometry.stencil_frames`` in ``rowmap`` blocks, which return per row
    only kappa, tau, ``valid``, ``direction_error`` and the dots the checks
    read, never the whole (n, 3) frames. The family's defining orthogonality
    (offset vector against the mate plane normal) is evaluated on the gated
    interior, independently of the closed forms. With ``lam_sol`` the distance
    identity and the coefficient check (``plane_condition``, which shares the
    closed forms' jet rule) run too; with ``predicted`` the closed-form frames
    and printed formulas are compared against the oracle.
    """
    tols = tolerances or Tolerances()
    if mate.n < 7:
        raise SpecificationError("mate needs at least 7 samples")
    if base.frames is None:
        raise SpecificationError("base curve must carry frames")
    if not same_grid(base.grid, mate.grid):
        raise SpecificationError("base and mate grids must coincide")
    if not np.isfinite(mate.positions).all():
        first = np.argmin(np.isfinite(mate.positions).all(axis=1))
        raise SpecificationError(
            f"mate positions must be finite; first non-finite row at s={mate.grid[first]:.6g}")

    h = uniform_spacing(mate.grid)  # one h for every block, as in frenet_frames_sampled
    normal_name = PLANE_NORMAL[spec.plane]
    # (rows, oracle frame) pairs whose row dots the checks read.
    pairs = [(getattr(base.frames, spec.vector), normal_name)]
    if predicted is not None:
        pairs += [(getattr(predicted, f"{name}_star"), name) for name in "TNB"]

    def block(lo, hi):
        T, N, B, kappa, tau, _, valid, error = stencil_frames(mate.positions[lo:hi], h,
                                                              tols.kappa_min)
        frames = {"T": T, "N": N, "B": B}
        return (kappa, tau, valid, error,
                *(np.einsum("ij,ij->i", v[lo:hi], frames[name]) for v, name in pairs))

    kappa, tau, valid, error, normal_dots, *frame_dots = rowmap(block, mate.n, STENCIL_HALO)
    # No T, N, B or speed: _gate_mask and audit_curvature_formulas read the other fields.
    numeric = FrameData(None, None, None, kappa, tau, None, valid=valid, direction_error=error)
    gate, bands = _gate_mask(mate.grid, numeric, tols)
    family = FAMILIES[spec.code]
    gates_for = family.gates
    notes = []

    key = f"<{spec.vector},{normal_name}*>"
    constraint_residuals = {key: float(np.max(np.abs(normal_dots[gate]), initial=0.0))}
    if not np.any(gate):
        notes.append("gated set empty: every point is degenerate or boundary")
    # One row per check, in failure order: (name, value, gates, tolerance).
    checks = [(key, constraint_residuals[key], gates_for["constraint"], tols.constraint)]

    distance = None
    if lam_sol is not None:
        coeff_key = family.coefficient
        if coeff_key is not None:
            base.frames.require("kappa_prime", "tau_prime")
            res = constraint_residual(lam_sol, spec.code, base.frames.kappa,
                                      base.frames.tau, base.frames.kappa_prime,
                                      base.frames.tau_prime)
            constraint_residuals[coeff_key] = float(np.max(res))
            checks.append((coeff_key, constraint_residuals[coeff_key],
                           gates_for["constraint"], tols.constraint))
        distance = check_distance(base, mate, lam_sol)
        checks.append(("distance", distance, True, tols.distance))

    frame_errors: dict[str, float] = {}
    frame_raw: dict[str, float] = {}
    frame_flips: dict[str, float] = {}
    curvature_deltas: dict[str, float] = {}
    if predicted is not None:
        rows = np.flatnonzero(gate & predicted.defined)
        for name, row_dots in zip("TNB", frame_dots):
            # Whole rows were dotted, then gathered: NaN rows of undefined frames stay silent.
            dots = row_dots[rows]
            frame_errors[name], frame_raw[name], frame_flips[name] = _frame_angles(dots)
            checks.append((f"frame_{name}", frame_errors[name], gates_for["frames"],
                           tols.frame_angle))
        curvature_deltas = audit_curvature_formulas(predicted, numeric, rows)
        for name in ("kappa", "tau"):
            checks.append((name, curvature_deltas[name], gates_for["curvatures"],
                           tols.curvature))

    # A gating check fails and an audit-only check flags when its value is
    # not <= its bound (so NaN counts); curvature flags are listed first.
    gated = {name: gates for name, _, gates, _ in checks}
    failed = [name for name, value, gates, tol in checks if gates and not value <= tol]
    audited = sorted((c for c in checks if not c[2]), key=lambda c: c[0] not in ("kappa", "tau"))
    flagged = [name for name, value, _, _ in audited if not value <= tols.audit_flag]

    if failed:
        verdict = "fail"
        notes.append("gated residuals above tolerance: " + ", ".join(failed))
    elif flagged:
        verdict = "formula-audit-flag"
        notes.append("audited values above flag threshold: " + ", ".join(flagged))
    else:
        verdict = "pass"

    return VerificationReport(
        family=spec,
        constraint_residuals=constraint_residuals,
        frame_errors=frame_errors,
        frame_raw_angles=frame_raw,
        frame_sign_flips=frame_flips,
        curvature_deltas=curvature_deltas,
        distance_check=distance,
        excluded_bands=bands,
        gated=gated,
        verdict=verdict,
        tolerances=tols,
        notes=notes,
    )


def verify_mate(pred: PredictedMate, tolerances: Tolerances | None = None) -> VerificationReport:
    """Full verification of an associated mate built by ``associate``."""
    return check_association(
        pred.base, pred.mate, pred.family,
        lam_sol=pred.lam, predicted=pred, tolerances=tolerances,
    )
