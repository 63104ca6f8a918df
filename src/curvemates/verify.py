"""Independent numeric verification of constructed mates.

The oracle recomputes the mate's Frenet apparatus from its positions alone
(second-order stencils) and checks, per family:

  * the defining orthogonality (offset vector against the mate's plane
    normal) and the matching cross-product coefficient constraint,
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
from .geometry import FrameData, SampledCurve, frenet_frames_sampled
from .numdiff import same_grid
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
            data[key] = type(data[key])(value)
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


def _vector_angles(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(raw angle, line angle) between rows of two unit-vector arrays."""
    dots = np.einsum("ij,ij->i", u, v)
    raw = np.arccos(np.clip(dots, -1.0, 1.0))
    line = np.arccos(np.clip(np.abs(dots), 0.0, 1.0))
    return raw, line


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
    """max | |alpha* - alpha| - |lambda| | over the aligned grids."""
    if not same_grid(base.grid, mate.grid):
        raise SpecificationError("base and mate grids must coincide")
    lam_sol.require_grid(base.grid)
    dist = np.linalg.norm(mate.positions - base.positions, axis=1)
    return float(np.max(np.abs(dist - np.abs(lam_sol.lam))))


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
    predicted: PredictedMate,
    numeric: FrameData,
    mask: np.ndarray | None = None,
) -> dict:
    """Relative deltas of the printed kappa*, tau* in ``predicted`` against the oracle."""
    if mask is None:
        mask = np.ones(predicted.lam.grid.shape, dtype=bool)
    ks_f = predicted.kappa_star[mask]
    if ks_f.size == 0:
        return {"kappa": 0.0, "tau": 0.0, "gated_points": 0}
    kappa, tau = _relative_deltas(ks_f, predicted.tau_star[mask],
                                  numeric.kappa[mask], numeric.tau[mask])
    return {"kappa": kappa, "tau": tau, "gated_points": int(ks_f.size)}


def check_association(
    base: SampledCurve,
    mate: SampledCurve,
    spec: AssociationSpec,
    lam_sol: LambdaSolution | None = None,
    predicted: PredictedMate | None = None,
    tolerances: Tolerances | None = None,
) -> VerificationReport:
    """Verify a constructed mate against its family's defining relations.

    The mate's frames are recomputed numerically from its positions; the
    family's defining orthogonality (offset vector against the mate plane
    normal) is evaluated on the gated interior. With ``lam_sol`` the
    distance identity and the coefficient constraint are checked too; with
    ``predicted`` the closed-form frames and printed curvature formulas are
    compared against the oracle.
    """
    tols = tolerances or Tolerances()
    if mate.n < 7:
        raise SpecificationError("mate needs at least 7 samples")
    if base.frames is None:
        raise SpecificationError("base curve must carry frames")
    if not same_grid(base.grid, mate.grid):
        raise SpecificationError("base and mate grids must coincide")
    nonfinite = np.flatnonzero(~np.isfinite(mate.positions).all(axis=1))
    if nonfinite.size:
        raise SpecificationError(
            f"mate positions must be finite; first non-finite row at s={mate.grid[nonfinite[0]]:.6g}")

    numeric = frenet_frames_sampled(mate.grid, mate.positions,
                                    kappa_min=tols.kappa_min, strict=False)
    gate, bands = _gate_mask(mate.grid, numeric, tols)
    family = FAMILIES[spec.code]
    gates_for = family.gates
    notes = []
    gated: dict[str, bool] = {}

    offset = getattr(base.frames, spec.vector)
    normal_name = PLANE_NORMAL[spec.plane]
    plane_normal = getattr(numeric, normal_name)
    ortho = np.abs(np.einsum("ij,ij->i", offset, plane_normal))
    key = f"<{spec.vector},{normal_name}*>"
    constraint_residuals = {}
    if np.any(gate):
        constraint_residuals[key] = float(np.max(ortho[gate]))
    else:
        constraint_residuals[key] = 0.0
        notes.append("gated set empty: every point is degenerate or boundary")
    gated[key] = gates_for["constraint"]

    coeff_key = family.coefficient[0] if family.coefficient else None
    if lam_sol is not None and coeff_key is not None:
        res = constraint_residual(lam_sol, spec.code, base.frames.kappa,
                                  base.frames.tau, base.frames.kappa_prime,
                                  base.frames.tau_prime)
        constraint_residuals[coeff_key] = float(np.max(res)) if res.size else 0.0
        gated[coeff_key] = gates_for["constraint"]

    distance = None
    if lam_sol is not None:
        distance = check_distance(base, mate, lam_sol)
        gated["distance"] = True

    frame_errors: dict[str, float] = {}
    frame_raw: dict[str, float] = {}
    frame_flips: dict[str, float] = {}
    curvature_deltas: dict[str, float] = {}
    if predicted is not None:
        both = gate & predicted.defined
        for name, pred_arr, num_arr in (
            ("T", predicted.T_star, numeric.T),
            ("N", predicted.N_star, numeric.N),
            ("B", predicted.B_star, numeric.B),
        ):
            if np.any(both):
                raw, line = _vector_angles(pred_arr[both], num_arr[both])
                frame_errors[name] = float(np.max(line))
                frame_raw[name] = float(np.max(raw))
                dots = np.einsum("ij,ij->i", pred_arr[both], num_arr[both])
                frame_flips[name] = float(np.mean(dots < 0.0))
            else:
                frame_errors[name] = 0.0
                frame_raw[name] = 0.0
                frame_flips[name] = 0.0
            gated[f"frame_{name}"] = gates_for["frames"]

        curvature_deltas = audit_curvature_formulas(predicted, numeric, mask=both)
        gated["kappa"] = gates_for["curvatures"]
        gated["tau"] = gates_for["curvatures"]

        if np.any(both):
            curvature_deltas["kappa_closed"], curvature_deltas["tau_closed"] = _relative_deltas(
                predicted.kappa_star_closed[both], predicted.tau_star_closed[both],
                numeric.kappa[both], numeric.tau[both])

    failed = []
    if constraint_residuals.get(key, 0.0) > tols.constraint and gated[key]:
        failed.append(key)
    if gated.get(coeff_key) and constraint_residuals[coeff_key] > tols.constraint:
        failed.append(coeff_key)
    if distance is not None and not distance <= tols.distance:
        failed.append("distance")
    for name in ("T", "N", "B"):
        if gated.get(f"frame_{name}") and frame_errors.get(name, 0.0) > tols.frame_angle:
            failed.append(f"frame_{name}")
    for name in ("kappa", "tau"):
        if gated.get(name) and curvature_deltas.get(name, 0.0) > tols.curvature:
            failed.append(name)

    flagged = []
    for name in ("kappa", "tau"):
        if name in curvature_deltas and not gated.get(name, False):
            if not math.isfinite(curvature_deltas[name]) or curvature_deltas[name] > tols.audit_flag:
                flagged.append(name)
    if not gated[key] and constraint_residuals.get(key, 0.0) > tols.audit_flag:
        flagged.append(key)
    for name in ("T", "N", "B"):
        if f"frame_{name}" in gated and not gated[f"frame_{name}"]:
            if frame_errors.get(name, 0.0) > tols.audit_flag:
                flagged.append(f"frame_{name}")

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
