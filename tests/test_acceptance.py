"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured values (run pytest with -s or -v to see them). Tolerances are
pinned here, not configurable.

Criterion 3's orthogonality clause is implemented exactly as stated and is
expected to fail: for the tangent/rectifying family the defining relation
<T, N*> = 0 is unattainable on curves with positive curvature (the offset
relation forces the mate cross product to keep a fixed normal-plane
component, making the residual identically 1/sqrt(3) for this fixture).
The test is marked strict-xfail so the defect stays visible.
"""
import math

import numpy as np
import pytest

from curvemates import (
    AssociationSpec,
    CurveSpec,
    associate,
    frenet_residuals,
    sample_curve,
    verify_mate,
)
from curvemates.association import klm_coefficients
from curvemates.errors import PlanarityError
from curvemates.geometry import frenet_frames_sampled
from curvemates.solvers import (
    constant_admissible_lambda,
    constraint_residual,
    lambda_constant,
    lambda_half_curvature,
    lambda_helix_hyperbolic,
    lambda_involute,
    offset_residual,
    riccati_linearize,
    solve_constraint_ode,
    solve_linear,
    solve_riccati,
)
from curvemates.cli import main as cli_main

from conftest import helix_equation, linear_equation, riccati_z

INV_SQRT2 = 1.0 / math.sqrt(2.0)
SQRT2 = math.sqrt(2.0)


def _criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {description} {detail}".rstrip())
    assert ok, f"criterion {num}: {description} {detail}"


def _helix_base(grid):
    return sample_curve(CurveSpec.helix(INV_SQRT2, INV_SQRT2), grid)


def _line_angles(u, v):
    dots = np.abs(np.einsum("ij,ij->i", u, v))
    return np.arccos(np.clip(dots, 0.0, 1.0))


def _gated_mask(grid, bands, skip=2):
    mask = np.ones(grid.size, dtype=bool)
    mask[:skip] = False
    mask[-skip:] = False
    for lo, hi in bands:
        mask &= ~((grid >= lo) & (grid <= hi))
    return mask


def test_criterion_01_circle_tangent_osculating_reproduction():
    grid = np.linspace(0.0, 2.0, 2001)
    base = sample_curve(CurveSpec.circle(1.0), grid)
    spec = AssociationSpec("T", "O", (1.0, 1.0))
    worst_dev = 0.0
    verdicts = []
    for c0 in (-1.0, 0.0, 1.0):
        sol = solve_linear(base.frames.kappa, 1.0, 1.0 + c0, grid)
        worst_dev = max(worst_dev, float(np.max(np.abs(sol.lam - (1.0 + c0 * np.exp(grid))))))
        report = verify_mate(associate(base, spec, sol))
        verdicts.append(report.verdict)
    ok = worst_dev < 1e-8 and all(v == "pass" for v in verdicts)
    _criterion(1, "circle tangent/osculating reproduction",
               ok, f"(max offset dev {worst_dev:.2e}, verdicts {verdicts})")


def test_criterion_02_helix_involute_reproduction():
    grid = np.linspace(0.0, 2.0, 2001)
    base = _helix_base(grid)
    c0 = 1.0
    sol = lambda_involute(c0, grid)
    exact = np.max(np.abs(sol.lam - (-grid + c0)))

    spec = AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2))
    pred = associate(base, spec, sol)
    dist = np.linalg.norm(pred.mate.positions - base.positions, axis=1)
    dist_dev = float(np.max(np.abs(dist - np.abs(-grid + c0))))

    report = verify_mate(pred)
    numeric = frenet_frames_sampled(grid, pred.mate.positions, strict=False)
    gated = _gated_mask(grid, report.excluded_bands)
    angles = _line_angles(numeric.T[gated], base.frames.N[gated])
    max_angle = float(np.max(angles))
    # Points on both sides of the cusp must be exercised.
    both_sides = np.any(grid[gated] < c0) and np.any(grid[gated] > c0)

    ok = exact == 0.0 and dist_dev < 1e-12 and max_angle < 1e-4 and both_sides
    _criterion(2, "helix involute reproduction", ok,
               f"(offset exact to {exact:.1e}, distance dev {dist_dev:.1e}, "
               f"tangent-vs-normal angle {max_angle:.2e} outside cusp band "
               f"{report.excluded_bands})")


def test_criterion_03a_rectifying_offset_solver():
    grid = np.linspace(0.0, 2.0, 2001)
    base = _helix_base(grid)
    worst = 0.0
    for c0 in (-1.0, 0.0, 1.0):
        sol = solve_linear(base.frames.kappa, 1.0, SQRT2 + c0, grid)
        exact = SQRT2 + c0 * np.exp(grid * INV_SQRT2)
        worst = max(worst, float(np.max(np.abs(sol.lam - exact))))
    _criterion("3a", "tangent/rectifying offset solver", worst < 1e-8,
               f"(max deviation {worst:.2e})")


@pytest.mark.xfail(
    strict=True,
    reason="the tangent/rectifying defining orthogonality <T,N*> = 0 cannot hold "
    "for positive-curvature bases; the residual is exactly 1/sqrt(3) here",
)
def test_criterion_03b_rectifying_orthogonality():
    grid = np.linspace(0.0, 2.0, 2001)
    base = _helix_base(grid)
    sol = solve_linear(base.frames.kappa, 1.0, SQRT2, grid)
    spec = AssociationSpec("T", "R", (1.0, 1.0))
    pred = associate(base, spec, sol)
    numeric = frenet_frames_sampled(grid, pred.mate.positions, strict=False)
    ortho = np.abs(np.einsum("ij,ij->i", base.frames.T, numeric.N))
    residual = float(np.max(ortho[2:-2]))
    _criterion("3b", "tangent/rectifying orthogonality <T,N*>", residual < 1e-5,
               f"(measured {residual:.6f}, analytically 1/sqrt(3) = {1/math.sqrt(3):.6f})")


def test_criterion_04_involute_curvature_prediction():
    grid = np.linspace(0.0, 2.0, 2001)
    base = _helix_base(grid)
    sol = lambda_involute(2.0, grid)  # lambda(1) = 1, cusp at the boundary
    pred = associate(base, AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2)), sol)
    numeric = frenet_frames_sampled(grid, pred.mate.positions, strict=False)
    i = int(np.argmin(np.abs(grid - 1.0)))
    kappa_rel = abs(numeric.kappa[i] - SQRT2) / SQRT2
    # The torsion oracle differences third derivatives, so ulp-level jitter
    # in the (exactly planar) mate is amplified by 1/(h^3 |a' x a''|);
    # check where the offset keeps that amplification resolvable.
    window = (grid >= 0.2) & (grid <= 1.6)
    tau_max = float(np.max(np.abs(numeric.tau[window])))
    ok = kappa_rel < 1e-3 and tau_max < 1e-5
    _criterion(4, "involute curvature sqrt(2) and vanishing torsion", ok,
               f"(kappa* rel dev {kappa_rel:.2e}, max |tau*| {tau_max:.2e})")


def test_criterion_05_normal_osculating_half_curvature():
    grid = np.linspace(0.0, 2.0 * math.pi, 2001)
    base = _helix_base(grid)
    sol = lambda_half_curvature(INV_SQRT2, grid)
    value_ok = sol.lam[0] == pytest.approx(SQRT2 / 2.0, abs=1e-15)

    spec = AssociationSpec("N", "O", (0.0, 1.0))
    pred = associate(base, spec, sol)
    report = verify_mate(pred)
    # This offset equals the helix radius, so the mate collapses onto the
    # axis: a straight line with no Frenet frame. Every point is excluded
    # and reported; the gated orthogonality is vacuously zero.
    axis_dev = float(np.max(np.abs(pred.mate.positions[:, :2])))
    degenerate = axis_dev < 1e-12 and report.excluded_bands == [[0.0, grid[-1]]]
    vacuous = report.constraint_residuals["<N,B*>"] == 0.0 and report.verdict == "pass"

    # Substantive check of the same orthogonality on non-degenerate constant
    # offsets (the gated set is real there).
    neighbor_worst = 0.0
    for lam in (0.3, 1.2):
        rep = verify_mate(associate(base, spec, lambda_constant(lam, grid)))
        assert rep.verdict in ("pass", "formula-audit-flag")
        neighbor_worst = max(neighbor_worst, rep.constraint_residuals["<N,B*>"])
    ok = value_ok and degenerate and vacuous and neighbor_worst < 1e-5
    _criterion(5, "normal/osculating constant offset 1/(2 kappa)", ok,
               f"(mate is the axis to {axis_dev:.1e}; gated set empty by band policy; "
               f"non-degenerate constants give max <N,B*> {neighbor_worst:.2e})")


def test_criterion_06_normal_rectifying_constant():
    grid = np.linspace(0.0, 2.0 * math.pi, 2001)
    base = _helix_base(grid)
    lam = INV_SQRT2  # kappa/(kappa^2 + tau^2)
    # Independent algebraic oracle: with lambda' = lambda'' = 0 the
    # rectifying constraint M(lambda kappa - 1) - K lambda tau vanishes.
    K, L, M = klm_coefficients(lam, 0.0, 0.0, INV_SQRT2, INV_SQRT2, 0.0, 0.0)
    algebraic = abs(M * (lam * INV_SQRT2 - 1.0) - K * lam * INV_SQRT2)

    sol = lambda_constant(lam, grid)
    spec = AssociationSpec("N", "R", (0.0, 1.0))
    pred = associate(base, spec, sol)
    report = verify_mate(pred)
    axis_dev = float(np.max(np.abs(pred.mate.positions[:, :2])))
    degenerate = axis_dev < 1e-12 and report.excluded_bands == [[0.0, grid[-1]]]
    vacuous = report.constraint_residuals["<N,N*>"] == 0.0 and report.verdict == "pass"

    # Sanity: a nearby constant does not satisfy the constraint, so the
    # check has teeth.
    other = verify_mate(associate(base, spec, lambda_constant(0.5, grid)))
    teeth = other.constraint_residuals["<N,N*>"] > 1e-2

    ok = algebraic < 1e-12 and degenerate and vacuous and teeth
    _criterion(6, "normal/rectifying constant offset kappa/(kappa^2+tau^2)", ok,
               f"(algebraic constraint {algebraic:.1e}; mate is the axis to {axis_dev:.1e}; "
               f"off-solution residual {other.constraint_residuals['<N,N*>']:.3f})")


def test_criterion_07_riccati_closed_form_and_order():
    grid = np.linspace(0.0, 2.0, 2001)
    sol = solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, grid)
    exact = SQRT2 * np.tan(grid / (2.0 * SQRT2))
    dev = float(np.max(np.abs(sol.lam - exact)))

    errs = []
    for n in (21, 41):
        g = np.linspace(0.0, 2.0, n)
        s = solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, g)
        errs.append(float(np.max(np.abs(s.lam - SQRT2 * np.tan(g / (2.0 * SQRT2))))))
    ratio = errs[0] / errs[1]
    ok = dev < 1e-6 and 12.0 <= ratio <= 20.0
    _criterion(7, "Riccati trajectory matches the tangent closed form", ok,
               f"(max dev {dev:.2e}, halving improves {ratio:.1f}x)")


def test_criterion_08_defining_equation_residuals():
    grid = np.linspace(0.0, 2.0, 2001)
    kappa_one = np.ones_like(grid)
    kappa_helix = np.full_like(grid, INV_SQRT2)
    residuals = {}

    for c0 in (-1.0, 0.0, 1.0):
        sol = solve_linear(kappa_one, 1.0, 1.0 + c0, grid)
        residuals[f"linear-circle c0={c0:+.0f}"] = np.max(
            offset_residual(sol, linear_equation(kappa_one, 1.0), 1))
        sol = solve_linear(kappa_helix, 1.0, SQRT2 + c0, grid)
        residuals[f"linear-helix c0={c0:+.0f}"] = np.max(
            offset_residual(sol, linear_equation(kappa_helix, 1.0), 1))

    inv = lambda_involute(1.0, grid)
    residuals["involute"] = np.max(offset_residual(inv, lambda lam, lam_p, _: 1.0 + lam_p, 1))

    hyp = lambda_helix_hyperbolic(1.0, 1.0, INV_SQRT2, INV_SQRT2, 0.1, 0.2, grid)
    residuals["hyperbolic"] = np.max(
        offset_residual(hyp, helix_equation(1.0, 1.0, INV_SQRT2, INV_SQRT2), 2))

    half = lambda_half_curvature(INV_SQRT2, grid)
    residuals["half-curvature"] = np.max(constraint_residual(half, "NO", INV_SQRT2, INV_SQRT2))

    nr = lambda_constant(constant_admissible_lambda("NR", INV_SQRT2, INV_SQRT2), grid)
    residuals["rectifying-constant"] = np.max(constraint_residual(nr, "NR", INV_SQRT2, INV_SQRT2))

    ric = solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, grid)
    residuals["riccati-Z"] = np.max(offset_residual(ric, riccati_z(INV_SQRT2, INV_SQRT2), 1))

    lin = riccati_linearize(ric, INV_SQRT2, INV_SQRT2, grid, mu0=1.0)
    residuals["riccati-linearized-Z"] = np.max(
        offset_residual(lin, riccati_z(INV_SQRT2, INV_SQRT2), 1))

    br = solve_constraint_ode("BR", INV_SQRT2, INV_SQRT2, (0.3, 0.0), grid)
    residuals["binormal-rectifying"] = np.max(constraint_residual(br, "BR", INV_SQRT2, INV_SQRT2))

    worst = max(residuals.values())
    ok = worst < 1e-6
    _criterion(8, "defining-equation residuals of every shipped fixture", ok,
               f"(worst {worst:.2e} from "
               f"{max(residuals, key=residuals.get)})")


def test_criterion_09_frenet_property_suite():
    grid = np.linspace(0.0, 2.0 * math.pi, 2001)
    base = _helix_base(grid)
    f = base.frames
    ortho = max(
        float(np.max(np.abs(np.linalg.norm(f.T, axis=1) - 1.0))),
        float(np.max(np.abs(np.linalg.norm(f.N, axis=1) - 1.0))),
        float(np.max(np.abs(np.linalg.norm(f.B, axis=1) - 1.0))),
        float(np.max(np.abs(np.einsum("ij,ij->i", f.T, f.N)))),
        float(np.max(np.abs(np.einsum("ij,ij->i", f.T, f.B)))),
        float(np.max(np.abs(np.einsum("ij,ij->i", f.N, f.B)))),
        float(np.max(np.abs(np.cross(f.T, f.N) - f.B))),
    )
    numeric = frenet_frames_sampled(grid, base.positions)
    ortho_num = max(
        float(np.max(np.abs(np.linalg.norm(numeric.T, axis=1) - 1.0))),
        float(np.max(np.abs(np.einsum("ij,ij->i", numeric.T, numeric.B)))),
        float(np.max(np.abs(np.cross(numeric.T, numeric.N) - numeric.B))),
    )

    res = frenet_residuals(base)
    worst = max(res.maxima())

    ratios = []
    coarse = frenet_residuals(_helix_base(np.linspace(0.0, 2.0 * math.pi, 1001))).maxima()
    fine = frenet_residuals(_helix_base(np.linspace(0.0, 2.0 * math.pi, 2001))).maxima()
    ratios = [c / f for c, f in zip(coarse, fine)]

    ok = (ortho < 1e-9 and ortho_num < 1e-9 and worst < 1e-4
          and all(3.0 <= r <= 5.3 for r in ratios))
    _criterion(9, "Frenet orthonormality and transport residuals", ok,
               f"(orthonormality {max(ortho, ortho_num):.1e}, residual {worst:.2e}, "
               f"refinement ratios {[round(r, 2) for r in ratios]})")


def test_criterion_10_tangent_osculating_planarity_gate():
    grid = np.linspace(0.0, 2.0, 2001)
    base = _helix_base(grid)
    spec = AssociationSpec("T", "O", (1.0, 1.0))
    sol = lambda_constant(1.0, grid)
    raised = False
    try:
        associate(base, spec, sol)
    except PlanarityError:
        raised = True
    _criterion(10, "tangent/osculating construction rejects space curves", raised,
               "(planarity error raised on the helix)")


def test_criterion_11_formula_audit_mechanism(tmp_path):
    grid = np.linspace(0.0, 2.0, 2001)
    base = _helix_base(grid)
    cases = {
        "NO": (AssociationSpec("N", "O", (0.0, 1.0)), lambda_constant(0.3, grid)),
        "BO": (AssociationSpec("B", "O", (1.0, 1.0)), solve_riccati(INV_SQRT2, INV_SQRT2, 0.0, grid)),
        "BP": (AssociationSpec("B", "P", (-1.0, 1.0)), lambda_constant(1.0, grid)),
        "BR": (AssociationSpec("B", "R", (1.0, 1.0)),
               solve_constraint_ode("BR", INV_SQRT2, INV_SQRT2, (0.3, 0.0), grid)),
    }
    deltas_present = True
    no_fail = True
    any_flagged = False
    for code, (spec, sol) in cases.items():
        report = verify_mate(associate(base, spec, sol))
        deltas_present &= "kappa" in report.curvature_deltas and "tau" in report.curvature_deltas
        no_fail &= report.verdict != "fail"
        delta = report.curvature_deltas["kappa"]
        if (not math.isfinite(delta)) or delta > 1e-2:
            any_flagged |= report.verdict == "formula-audit-flag"

    exit_code = cli_main([
        "verify", "--curve", f'{{"kind":"helix","a":{INV_SQRT2},"b":{INV_SQRT2}}}',
        "--family", "BP", "--coeffs=-1,1", "--lambda0", "1.0",
        "--grid", "0:2:2001", "--out", str(tmp_path),
    ])
    ok = deltas_present and no_fail and any_flagged and exit_code == 2
    _criterion(11, "printed-formula audit reports deltas and flags divergence", ok,
               f"(all audited families reported; flagged exit code {exit_code})")
