import json
import math
import os

import numpy as np
import pytest

from curvemates import AssociationSpec, CurveSpec, associate, verify_mate
from curvemates.errors import ParseError
from curvemates import io as cio
from curvemates.solvers import lambda_involute, solve_linear

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_curve_json_round_trip():
    for spec in (CurveSpec.circle(1.0), CurveSpec.helix(0.7071, 0.7071)):
        again = cio.curve_from_json(cio.curve_to_json(spec))
        assert again == spec


def test_curve_json_samples_round_trip():
    pts = np.column_stack([np.linspace(0, 1, 9)] * 4)
    pts[:, 0] = np.linspace(0, 1, 9)
    spec = CurveSpec.from_samples(pts)
    again = cio.curve_from_json(cio.curve_to_json(spec))
    np.testing.assert_array_equal(again.points, spec.points)


def test_curve_json_errors():
    with pytest.raises(ParseError):
        cio.curve_from_json("not json")
    with pytest.raises(ParseError):
        cio.curve_from_json('{"kind": "sphere"}')
    with pytest.raises(ParseError):
        cio.curve_from_json('{"kind": "circle", "r": -1.0}')
    for bad in ('{"kind": "circle", "r": "x"}', '{"kind": "helix", "a": 1, "b": "x"}',
                '{"kind": "samples", "points": [[0, 0, 0, 0], [1, 0, "x", 0]]}'):
        with pytest.raises(ParseError):
            cio.curve_from_json(bad)
    with pytest.raises(ParseError):
        cio.association_from_json('{"vector": "T", "plane": "P", "coeffs": ["x", 1]}')


def test_association_json_round_trip():
    spec = AssociationSpec("T", "P", (-0.7071, 0.7071))
    again = cio.association_from_json(cio.association_to_json(spec))
    assert again == spec


def test_sampled_curve_csv_round_trip(helix_base):
    text = cio.sampled_curve_to_csv(helix_base)
    again = cio.sampled_curve_from_csv(text)
    np.testing.assert_array_equal(again.grid, helix_base.grid)
    np.testing.assert_array_equal(again.positions, helix_base.positions)
    np.testing.assert_array_equal(again.frames.T, helix_base.frames.T)
    np.testing.assert_array_equal(again.frames.kappa, helix_base.frames.kappa)
    assert again.frames.direction_error is None
    # Byte-identical re-serialization (full round-trip floats).
    assert cio.sampled_curve_to_csv(again) == text


def test_lambda_csv_round_trip(grid_0_2):
    sol = solve_linear(np.ones_like(grid_0_2), 1.0, 2.0, grid_0_2)
    text = cio.lambda_to_csv(sol)
    assert text.startswith("# provenance=integrating-factor")
    again = cio.lambda_from_csv(text)
    np.testing.assert_array_equal(again.lam, sol.lam)
    np.testing.assert_array_equal(again.lam_prime, sol.lam_prime)
    assert again.provenance == "integrating-factor"
    assert again.constants["c1"] == 2.0


def test_mate_csv_round_trip(helix_base, grid_0_2):
    sol = lambda_involute(1.0, grid_0_2)
    pred = associate(helix_base, AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2)), sol)
    text = cio.mate_to_csv(pred)
    # The mate frame is undefined at the involute cusp (s = 1): its cells read nan.
    assert ",nan," in text
    grid, pos, lam = cio.mate_positions_from_csv(text)
    np.testing.assert_array_equal(grid, grid_0_2)
    np.testing.assert_array_equal(pos, pred.mate.positions)
    np.testing.assert_array_equal(lam, sol.lam)
    lines = text.splitlines()
    for column in ("s", "lambda", "xs", "ys", "zs"):
        cells = lines[2].split(",")
        cells[lines[1].split(",").index(column)] = "nan"
        bad = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
        with pytest.raises(ParseError, match=f"data row 1: {column} must be finite"):
            cio.mate_positions_from_csv(bad)


def test_report_json_schema(helix_base, grid_0_2):
    sol = lambda_involute(1.0, grid_0_2)
    pred = associate(helix_base, AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2)), sol)
    report = verify_mate(pred)
    obj = json.loads(cio.report_to_json(report))
    for key in ("family", "residuals", "frame_errors", "curvature_deltas",
                "excluded_bands", "verdict"):
        assert key in obj
    assert obj["family"] == {"vector": "T", "plane": "P",
                             "coeffs": [-INV_SQRT2, INV_SQRT2]}
    assert obj["verdict"] in ("pass", "formula-audit-flag", "fail")


def test_report_json_handles_nonfinite(helix_base, grid_0_2):
    from curvemates.solvers import lambda_constant

    pred = associate(helix_base, AssociationSpec("N", "O", (0.0, 1.0)),
                     lambda_constant(0.3, grid_0_2))
    report = verify_mate(pred)
    text = cio.report_to_json(report)
    json.loads(text)  # strict JSON even with undefined formula values
    assert "Infinity" not in text


def test_atomic_write(tmp_path):
    path = tmp_path / "out.txt"
    cio.atomic_write_text(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    cio.atomic_write_text(str(path), "world\n")
    assert path.read_text() == "world\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_csv_parse_errors():
    with pytest.raises(ParseError):
        cio.lambda_from_csv("s,lambda\n0,1\n")
    with pytest.raises(ParseError):
        cio.lambda_from_csv("s,lambda,lambda_prime,lambda_double_prime\n0,1,x,0\n")
    with pytest.raises(ParseError):
        cio.lambda_from_csv("")
    for row in ("nan,1,0,0", "0,nan,0,0", "0,1,inf,0", "0,1,0,-inf"):
        with pytest.raises(ParseError, match="data row 1: .* must be finite"):
            cio.lambda_from_csv(f"# provenance=x\ns,lambda,lambda_prime,lambda_double_prime\n{row}\n")
