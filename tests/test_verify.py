import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from curvemates import (
    FAMILIES,
    AssociationSpec,
    CurveSpec,
    SampledCurve,
    associate,
    check_association,
    check_distance,
    numdiff,
    sample_curve,
    verify_mate,
)
from curvemates.association import PLANE_NORMAL
from curvemates.errors import SpecificationError
from curvemates.geometry import frenet_frames_sampled
from curvemates.solvers import (
    lambda_constant,
    lambda_half_curvature,
    lambda_involute,
    solve_constraint_ode,
    solve_linear,
    solve_riccati,
)
from curvemates.verify import (
    GATING_TABLE_VERSION,
    Tolerances,
    _bands_from_mask,
    _frame_angles,
    _gate_mask,
    audit_curvature_formulas,
)

from conftest import cli_default_inputs, vector_angles

INV_SQRT2 = 1.0 / math.sqrt(2.0)
IDENTITY = np.eye(3)  # rows T, N, B
BLOCK = numdiff._BLOCK_ROWS


# ---------------------------------------------------------------------------
# frame comparison: raw angles report signs, line angles gate


def _row_dots(u, v):
    return np.einsum("ij,ij->i", u, v)


def test_compare_frames_identical():
    raw, line = vector_angles(_row_dots(IDENTITY, IDENTITY))
    np.testing.assert_allclose(raw, 0.0)
    np.testing.assert_allclose(line, 0.0)


def test_compare_frames_binormal_flip_reported_not_masked():
    flipped = IDENTITY * np.array([[1.0], [1.0], [-1.0]])
    raw, line = vector_angles(_row_dots(IDENTITY, flipped))
    np.testing.assert_allclose(raw, [0.0, 0.0, math.pi])
    np.testing.assert_allclose(line, 0.0)


def test_compare_frames_symmetry():
    c, s = math.cos(0.3), math.sin(0.3)
    rotated = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1.0]])
    forward = vector_angles(_row_dots(IDENTITY, rotated))
    backward = vector_angles(_row_dots(rotated, IDENTITY))
    np.testing.assert_allclose(forward, backward)
    np.testing.assert_allclose(forward[0], [0.3, 0.3, 0.0], atol=1e-7)


def test_compare_frames_predicted_binormal_vs_numeric(circle_base, grid_0_2):
    # The closed-form binormal of the constructed planar mate agrees with the
    # numeric oracle; the commonly printed opposite-sign value shows up as a
    # reported pi and a sign-flip fraction of 1, never silently absorbed.
    sol = solve_linear(circle_base.frames.kappa, 1.0, 1.0, grid_0_2)
    spec = AssociationSpec("T", "O", (1.0, 1.0))
    pred = associate(circle_base, spec, sol)
    report = check_association(circle_base, pred.mate, spec, lam_sol=sol, predicted=pred)
    assert max(report.frame_raw_angles.values()) < 1e-4
    assert report.frame_sign_flips == {"T": 0.0, "N": 0.0, "B": 0.0}
    flipped = dataclasses.replace(pred, N_star=-pred.N_star, B_star=-pred.B_star)
    report = check_association(circle_base, pred.mate, spec, lam_sol=sol, predicted=flipped)
    assert report.frame_raw_angles["N"] == pytest.approx(math.pi, abs=1e-3)
    assert report.frame_raw_angles["B"] == pytest.approx(math.pi, abs=1e-3)
    assert report.frame_sign_flips == {"T": 0.0, "N": 1.0, "B": 1.0}
    assert max(report.frame_errors.values()) < 1e-4


def _angles_reference(dots, size):
    """Reference: the two-arccos angles that _frame_angles replaced."""
    raw = np.arccos(np.clip(dots, -1.0, 1.0))
    line = np.arccos(np.clip(np.abs(dots), 0.0, 1.0))
    return (float(np.max(line, initial=0.0)), float(np.max(raw, initial=0.0)),
            np.count_nonzero(dots < 0.0) / max(size, 1))


def _same_bits(a, b):
    return np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


def test_frame_angle_maxima_match_reference(unit_helix_spec, circle_base, helix_base,
                                            grid_0_2):
    # Against the gather-then-dot, two-arccos computation, bit for bit.
    grid = np.linspace(0.0, 3.0, 2001)
    base = sample_curve(unit_helix_spec, grid)
    everything = Tolerances(band_safety=1e300, band_pad=0, boundary_skip=0)
    # The involute through its cusp at s = 2, gated there, flips N* and B*;
    # the opposite-sign convention on the circle flips them everywhere.
    sol = solve_linear(circle_base.frames.kappa, 1.0, 1.0, grid_0_2)
    to_pred = associate(circle_base, AssociationSpec("T", "O", (1.0, 1.0)), sol)
    cases = [
        (associate(base, AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2)),
                   lambda_involute(2.0, grid)), everything),
        (dataclasses.replace(to_pred, N_star=-to_pred.N_star, B_star=-to_pred.B_star),
         Tolerances()),
        (associate(helix_base, AssociationSpec("B", "O", (1.0, 1.0)),
                   solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, grid_0_2)), everything),
    ]
    flipped = 0
    for pred, tol in cases:
        report = check_association(pred.base, pred.mate, pred.family, lam_sol=pred.lam,
                                   predicted=pred, tolerances=tol)
        numeric = frenet_frames_sampled(pred.mate.grid, pred.mate.positions,
                                        kappa_min=tol.kappa_min, strict=False)
        rows = np.flatnonzero(_gate_mask(pred.mate.grid, numeric, tol)[0] & pred.defined)
        for name in ("T", "N", "B"):
            dots = _row_dots(getattr(pred, f"{name}_star")[rows], getattr(numeric, name)[rows])
            flipped += np.count_nonzero(dots < 0.0)
            got = (report.frame_errors[name], report.frame_raw_angles[name],
                   report.frame_sign_flips[name])
            assert _same_bits(got, _angles_reference(dots, rows.size))
    assert flipped > 0
    # NaN (undefined rows), -0.0 (arccos(-0.0) is pi/2 as for +0.0), values
    # just above 1 in magnitude, and no rows at all.
    above = np.nextafter(1.0, 2.0)
    for dots in ([0.5, np.nan, -0.2], [np.nan], [-0.0, 0.3], [-0.0], [-0.0, -0.4],
                 [above, -above, 0.9], [-above], [1.0, -1.0], []):
        dots = np.array(dots, dtype=float)
        assert _same_bits(_frame_angles(dots), _angles_reference(dots, dots.size))
    assert _frame_angles(np.empty(0)) == (0.0, 0.0, 0.0)


def _bands_loop(grid, bad):
    """Reference: the per-point loop that _bands_from_mask replaced."""
    bands = []
    in_band = False
    start = 0.0
    for i, flag in enumerate(bad):
        if flag and not in_band:
            in_band, start = True, float(grid[i])
        elif not flag and in_band:
            bands.append([start, float(grid[i - 1])])
            in_band = False
    if in_band:
        bands.append([start, float(grid[-1])])
    return bands


def test_bands_from_mask_matches_loop():
    rng = np.random.default_rng(7)
    n = 41
    grid = np.sort(rng.uniform(-3.0, 3.0, n))
    masks = [np.ones(n, bool), np.zeros(n, bool), np.arange(n) == 0, np.arange(n) == n - 1,
             (np.arange(n) == 0) | (np.arange(n) == n - 1)]
    masks += [rng.random(n) < rng.random() for _ in range(300)]
    for bad in masks:
        got = _bands_from_mask(grid, bad)
        assert got == _bands_loop(grid, bad)
        assert all(type(x) is float for band in got for x in band)


def _gate_mask_reference(grid, positions, numeric, tol):
    """Reference: the gate mask that differentiated the positions itself."""
    from curvemates.numdiff import diff1, diff2, diff3

    h = float(grid[1] - grid[0])
    d1 = diff1(positions, h)
    d2 = diff2(positions, h)
    d3 = diff3(positions, h)
    d4 = diff1(d3, h)
    sp = np.linalg.norm(d1, axis=1)
    wn = np.linalg.norm(np.cross(d1, d2), axis=1)
    n1, n2, n3, n4 = (np.linalg.norm(d, axis=1) for d in (d1, d2, d3, d4))
    tiny = 1e-300
    est_tangent = (h * h / 6.0) * n3 / np.maximum(sp, tiny)
    est_binormal = h * h * (n3 * n2 / 6.0 + n1 * n4 / 12.0) / np.maximum(wn, tiny)
    est = est_tangent + est_binormal
    ill = (est > tol.band_safety * tol.constraint) & (est > 5.0 * np.percentile(est, 20.0))

    bad = (numeric.kappa < tol.kappa_min) | (sp < 1e-12) | ill
    if numeric.valid is not None:
        bad |= ~numeric.valid
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


@pytest.mark.parametrize("n", [2001, 20001])
def test_gate_mask_matches_reference(unit_helix_spec, n):
    grid = np.linspace(0.0, 3.0, n)
    base = sample_curve(unit_helix_spec, grid)
    assert base.frames.direction_error is None
    mates = [
        # involute cusp at s = 2
        associate(base, AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2)),
                  lambda_involute(2.0, grid)).mate.positions,
        # normal offset 1/(2 kappa) collapses onto the helix axis
        associate(base, AssociationSpec("N", "O", (1.0, 1.0)),
                  lambda_half_curvature(INV_SQRT2, grid)).mate.positions,
        # binormal/normal offset whose printed formulas raise the audit flag
        associate(base, AssociationSpec("B", "P", (1.0, 1.0)),
                  lambda_constant(1.0, grid)).mate.positions,
        # sampled curve with an inflection at s = 1.5
        np.column_stack([grid - 1.5, (grid - 1.5) ** 3, 0.2 * np.sin(2.0 * (grid - 1.5))]),
    ]
    for tol in (Tolerances(), Tolerances(kappa_min=1e-3, band_pad=0, boundary_skip=0)):
        for positions in mates:
            numeric = frenet_frames_sampled(grid, positions, kappa_min=tol.kappa_min,
                                            strict=False)
            gate, bands = _gate_mask(grid, numeric, tol)
            ref_gate, ref_bands = _gate_mask_reference(grid, positions, numeric, tol)
            np.testing.assert_array_equal(gate, ref_gate)
            assert bands == ref_bands


# ---------------------------------------------------------------------------
# the oracle pass: stencil frames and their dots in row blocks


@pytest.mark.parametrize("n", [BLOCK + 7, 2 * BLOCK + 5])
@pytest.mark.parametrize("code", list(FAMILIES))
def test_oracle_pass_matches_reference_at_block_sizes(code, n):
    # Against the whole (n, 3) stencil frames, their gate mask and row dots.
    base, spec, sol = cli_default_inputs(code, n)
    pred = associate(base, spec, sol)
    tol = Tolerances()
    report = verify_mate(pred, tol)
    numeric = frenet_frames_sampled(pred.mate.grid, pred.mate.positions,
                                    kappa_min=tol.kappa_min, strict=False)
    gate, bands = _gate_mask(pred.mate.grid, numeric, tol)
    assert report.excluded_bands == bands
    normal = PLANE_NORMAL[spec.plane]
    ortho = np.abs(_row_dots(getattr(base.frames, spec.vector), getattr(numeric, normal)))
    assert _same_bits(report.constraint_residuals[f"<{spec.vector},{normal}*>"],
                      np.max(ortho[gate], initial=0.0))
    rows = np.flatnonzero(gate & pred.defined)
    for name in ("T", "N", "B"):
        dots = _row_dots(getattr(pred, f"{name}_star"), getattr(numeric, name))[rows]
        got = (report.frame_errors[name], report.frame_raw_angles[name],
               report.frame_sign_flips[name])
        assert _same_bits(got, _angles_reference(dots, rows.size))
    want = audit_curvature_formulas(pred, numeric, rows)
    assert report.curvature_deltas.keys() == want.keys()
    assert _same_bits(list(report.curvature_deltas.values()), list(want.values()))


def test_oracle_peak_memory_stays_in_blocks(monkeypatch):
    # The mate's numeric frames alone would be 3 x 4.8 MB at this size. Each
    # worker holds one block's temporaries, so rowmap runs two workers here
    # whatever the CPU count: with four the peak is ~33 MiB, with eight ~45.
    pred = associate(*cli_default_inputs("TP", 200_001))
    monkeypatch.setattr(numdiff, "_usable_cpus", lambda: 2)
    tracemalloc.start()
    try:
        verify_mate(pred)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * 2**20


# ---------------------------------------------------------------------------
# check_distance


def test_check_distance_involute(helix_base, grid_0_2):
    sol = lambda_involute(1.0, grid_0_2)
    from curvemates import construct_mate

    mate = construct_mate(helix_base, "T", sol)
    assert check_distance(helix_base, mate, sol) < 1e-12
    dist = np.linalg.norm(mate.positions - helix_base.positions, axis=1)
    np.testing.assert_allclose(dist, np.abs(1.0 - grid_0_2), atol=1e-12)


def test_check_distance_zero_offset(helix_base, grid_0_2):
    from curvemates import construct_mate

    sol = lambda_constant(0.0, grid_0_2)
    mate = construct_mate(helix_base, "N", sol)
    assert check_distance(helix_base, mate, sol) == 0.0


def test_check_distance_constant_unit(circle_base, grid_0_2):
    sol = solve_linear(circle_base.frames.kappa, 1.0, 1.0, grid_0_2)
    from curvemates import construct_mate

    mate = construct_mate(circle_base, "T", sol)
    dist = np.linalg.norm(mate.positions - circle_base.positions, axis=1)
    np.testing.assert_allclose(dist, 1.0, atol=1e-9)


# The CLI's default offsets of these families, beyond unit scale on the helix: an
# absolute 1e-12 read 1.8e-12 to 3.9e-12 of round-off here as a failed identity.
@pytest.mark.parametrize("code, lam, lo", [
    ("NP", 1e4, 0.0), ("BP", 1e4, 0.0), ("TP", None, 1e4), ("BP", 1.0, 1e5),
], ids=["NP lambda 1e4", "BP lambda 1e4", "TP at s 1e4", "BP at s 1e5"])
def test_check_distance_is_relative_beyond_unit_scale(unit_helix_spec, code, lam, lo):
    from curvemates import construct_mate

    grid = np.linspace(lo, lo + 3.0, 2001)
    base = sample_curve(unit_helix_spec, grid)
    sol = lambda_involute(0.0, grid) if lam is None else lambda_constant(lam, grid)
    assert check_distance(base, construct_mate(base, code[0], sol), sol) <= Tolerances().distance


@pytest.mark.parametrize("lam", [1.0, 1e4])
def test_check_distance_fails_a_mate_moved_along_its_vector(unit_helix_spec, lam):
    grid = np.linspace(0.0, 3.0, 2001)
    base = sample_curve(unit_helix_spec, grid)
    moved = SampledCurve(grid, base.positions + (lam + 1e-9 * lam) * base.frames.N)
    assert check_distance(base, moved, lambda_constant(lam, grid)) > Tolerances().distance


# ---------------------------------------------------------------------------
# inputs that check_association and check_distance refuse


_TP = AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2))


@pytest.mark.parametrize("check, args, message", [
    (check_association, lambda base, grid: (
        base, SampledCurve(grid[:6], base.positions[:6]), _TP), "mate needs at least 7 samples"),
    (check_association, lambda base, grid: (
        SampledCurve(grid, base.positions), base, _TP), "base curve must carry frames"),
    (check_association, lambda base, grid: (
        base, SampledCurve(grid + 0.5, base.positions), _TP), "base and mate grids must coincide"),
    (check_distance, lambda base, grid: (
        base, SampledCurve(grid + 0.5, base.positions), lambda_constant(0.0, grid)),
     "base and mate grids must coincide"),
], ids=["association: 6-row mate", "association: base without frames",
        "association: mismatched grids", "distance: mismatched grids"])
def test_checks_refuse_their_inputs(helix_base, grid_0_2, check, args, message):
    with pytest.raises(SpecificationError, match=f"^{message}$"):
        check(*args(helix_base, grid_0_2))


# ---------------------------------------------------------------------------
# check_association


def test_check_association_circle_tangent_osculating(circle_base, grid_0_2):
    sol = solve_linear(circle_base.frames.kappa, 1.0, 1.0, grid_0_2)
    spec = AssociationSpec("T", "O", (1.0, 1.0))
    pred = associate(circle_base, spec, sol)
    report = check_association(circle_base, pred.mate, spec,
                               lam_sol=sol, predicted=pred)
    assert report.verdict == "pass"
    assert report.constraint_residuals["<T,B*>"] < 1e-6


def test_check_association_involute_away_from_cusp(unit_helix_spec):
    grid = np.linspace(0.0, 3.0, 12001)
    base = sample_curve(unit_helix_spec, grid)
    sol = lambda_involute(2.0, grid)
    spec = AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2))
    pred = associate(base, spec, sol)
    report = verify_mate(pred)
    assert report.verdict == "pass"
    assert report.constraint_residuals["<T,T*>"] < 1e-6
    # The cusp at s = 2 is excluded and reported.
    assert any(lo <= 2.0 <= hi for lo, hi in report.excluded_bands)


def test_check_association_nan_offset_fails_distance(helix_base, grid_0_2):
    sol = lambda_involute(1.0, grid_0_2)
    spec = AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2))
    pred = associate(helix_base, spec, sol)
    nan_sol = dataclasses.replace(sol, lam=np.full_like(sol.lam, np.nan))
    report = check_association(helix_base, pred.mate, spec, lam_sol=nan_sol, predicted=pred)
    assert math.isnan(report.distance_check)
    assert report.verdict == "fail"
    assert report.notes[-1].endswith(": distance")


def test_check_association_rejects_nonfinite_mate(helix_base, grid_0_2):
    spec = AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2))
    for first in (0, 700):
        positions = helix_base.positions.copy()
        positions[first:] = np.nan
        mate = SampledCurve(grid=grid_0_2, positions=positions)
        with pytest.raises(SpecificationError,
                           match=f"first non-finite row at s={grid_0_2[first]:.6g}$"):
            check_association(helix_base, mate, spec)
    positions = helix_base.positions.copy()
    positions[5, 2] = np.inf
    with pytest.raises(SpecificationError, match=f"s={grid_0_2[5]:.6g}$"):
        check_association(helix_base, SampledCurve(grid=grid_0_2, positions=positions), spec)


@pytest.mark.parametrize("missing", ["kappa_prime", "tau_prime"])
def test_check_association_requires_arclength_derivatives(helix_base, grid_0_2, missing):
    # The coefficient constraint reads the base's kappa' and tau'; stencil
    # frames lack them, and a typed error names the field.
    sol = solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, grid_0_2)
    spec = AssociationSpec("B", "O", (1.0, 1.0))
    mate = associate(helix_base, spec, sol).mate
    stencil = frenet_frames_sampled(grid_0_2, helix_base.positions)
    with pytest.raises(SpecificationError, match="base frames carry no kappa_prime"):
        check_association(helix_base.with_frames(stencil), mate, spec, lam_sol=sol)
    frames = dataclasses.replace(helix_base.frames, **{missing: None})
    with pytest.raises(SpecificationError, match=f"base frames carry no {missing};"):
        check_association(helix_base.with_frames(frames), mate, spec, lam_sol=sol)


def test_check_association_translated_copy_fails(helix_base, grid_0_2):
    mate = SampledCurve(grid=grid_0_2,
                        positions=helix_base.positions + np.array([1.0, 0.0, 0.0]))
    spec = AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2))
    report = check_association(helix_base, mate, spec)
    assert report.verdict == "fail"
    assert report.constraint_residuals["<T,T*>"] == pytest.approx(1.0, abs=1e-6)


def test_check_association_riccati_binormal(helix_base, grid_0_2):
    sol = solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, grid_0_2)
    spec = AssociationSpec("B", "O", (1.0, 1.0))
    pred = associate(helix_base, spec, sol)
    report = verify_mate(pred)
    assert report.verdict != "fail"
    assert report.constraint_residuals["<B,B*>"] < 1e-5
    assert report.constraint_residuals["Z-coefficient"] < 1e-6


@pytest.mark.parametrize("initial", [(0.3, 0.0), (0.5, 0.1)])
def test_check_association_rk4_normal_rectifying(initial):
    # N lies in the mate's rectifying plane: the oracle's <N,N*> and the
    # closed form's must both vanish on an RK4 solution, not only the
    # coefficient equation that the solver integrates.
    grid = np.linspace(0.0, 1.0, 2001)
    base = sample_curve(CurveSpec.helix(0.8, 0.6), grid)
    sol = solve_constraint_ode("NR", 0.8, 0.6, initial, grid)
    pred = associate(base, AssociationSpec("N", "R", (1.0, 1.0)), sol)
    report = verify_mate(pred)
    assert report.verdict != "fail"
    assert report.constraint_residuals["<N,N*>"] < 1e-5
    assert report.constraint_residuals["NR-coefficient"] < 1e-6
    dots = _row_dots(base.frames.N, pred.N_star)[pred.defined]
    assert dots.size > 1900 and np.max(np.abs(dots)) < 1e-10


def test_constraint_residual_refines_with_grid(unit_helix_spec):
    # O(h^2) oracle: doubling the grid cuts the orthogonality defect by >= 3
    # on a fixed healthy window.
    values = []
    for n in (2001, 4001):
        grid = np.linspace(0.0, 2.0, n)
        base = sample_curve(unit_helix_spec, grid)
        sol = lambda_involute(3.0, grid)
        from curvemates import construct_mate

        mate = construct_mate(base, "T", sol)
        numeric = frenet_frames_sampled(grid, mate.positions, strict=False)
        window = (grid >= 0.5) & (grid <= 1.5)
        ortho = np.abs(np.einsum("ij,ij->i", base.frames.T, numeric.T))
        values.append(np.max(ortho[window]))
    assert values[0] / values[1] >= 3.0


# ---------------------------------------------------------------------------
# audit posture


def test_audit_flags_divergent_printed_formula(helix_base, grid_0_2):
    # Constant-offset binormal/normal-plane mate: the printed curvature
    # formulas disagree with the oracle, which must flag, not fail.
    spec = AssociationSpec("B", "P", (-1.0, 1.0))
    pred = associate(helix_base, spec, lambda_constant(1.0, grid_0_2))
    report = verify_mate(pred)
    assert report.verdict == "formula-audit-flag"
    assert report.constraint_residuals["<B,T*>"] < 1e-5
    assert report.curvature_deltas["kappa"] > 1e-2


def test_audit_tangent_osculating_torsion_zero(circle_base, grid_0_2):
    sol = solve_linear(circle_base.frames.kappa, 1.0, 1.0, grid_0_2)
    pred = associate(circle_base, AssociationSpec("T", "O", (1.0, 1.0)), sol)
    numeric = frenet_frames_sampled(grid_0_2, pred.mate.positions, strict=False)
    assert np.max(np.abs(numeric.tau[5:-5])) < 1e-6
    report = verify_mate(pred)
    assert report.curvature_deltas["tau"] < 1e-6


def test_audit_curvature_formula_matches_for_involute(unit_helix_spec):
    grid = np.linspace(0.0, 2.0, 4001)
    base = sample_curve(unit_helix_spec, grid)
    sol = lambda_involute(3.0, grid)
    spec = AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2))
    pred = associate(base, spec, sol)
    report = verify_mate(pred)
    assert report.verdict == "pass"
    assert report.curvature_deltas["kappa"] < 1e-3


def test_gating_table_shape():
    assert list(FAMILIES) == ["TO", "TP", "TR", "NO", "NP", "NR", "BO", "BP", "BR"]
    for code, family in FAMILIES.items():
        assert family.vector + family.plane == code
        assert set(family.gates) == {"constraint", "frames", "curvatures"}
    # Gating version 1: (constraint, frames, curvatures) per family.
    assert GATING_TABLE_VERSION == 1
    table = {code: tuple(f.gates[g] for g in ("constraint", "frames", "curvatures"))
             for code, f in FAMILIES.items()}
    assert table == {
        "TO": (True, True, True), "TP": (True, True, True), "TR": (False, True, False),
        "NO": (True, False, False), "NP": (True, True, False), "NR": (True, False, False),
        "BO": (True, False, False), "BP": (True, True, False), "BR": (True, False, False),
    }
    coefficients = {code: f.coefficient for code, f in FAMILIES.items() if f.coefficient}
    assert coefficients == {"NO": "L-coefficient", "NR": "NR-coefficient",
                            "BO": "Z-coefficient", "BR": "BR-coefficient"}


def test_tolerances_override():
    tols = Tolerances().replace(constraint=1e-3, band_pad=2)
    assert tols.constraint == 1e-3
    assert tols.band_pad == 2
    assert Tolerances().replace(audit_flag=0.0).audit_flag == 0.0
    with pytest.raises(Exception):
        Tolerances().replace(bogus=1.0)


@pytest.mark.parametrize("key,value", [("constraint", math.nan), ("constraint", "nan"),
                                       ("frame_angle", -1e-4), ("band_pad", -1),
                                       ("kappa_min", "-inf"), ("kappa_min", math.inf),
                                       ("constraint", "inf"), ("band_pad", math.inf),
                                       ("band_pad", 2.5), ("boundary_skip", 0.5)])
def test_tolerances_reject_nan_and_negative(key, value):
    with pytest.raises(SpecificationError):
        Tolerances().replace(**{key: value})


def test_report_gated_set_matches_table(helix_base, grid_0_2):
    sol = lambda_constant(0.3, grid_0_2)
    spec = AssociationSpec("N", "O", (0.0, 1.0))
    pred = associate(helix_base, spec, sol)
    report = verify_mate(pred)
    assert report.gated["<N,B*>"] is True
    assert report.gated["kappa"] is False
    assert report.verdict in ("pass", "formula-audit-flag")
