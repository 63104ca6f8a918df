import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import curvemates
from curvemates import cli
from curvemates import io as cio
from curvemates.cli import main

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def read(path):
    with open(path) as handle:
        return handle.read()


def test_example_1_constant_offset(tmp_path):
    out = str(tmp_path)
    code = main(["example", "1", "--c0", "0", "--grid", "0:2:801", "--out", out])
    assert code == 0
    for name in ("base.csv", "lambda.csv", "mate.csv", "report.json"):
        assert os.path.exists(os.path.join(out, name))
    sol = cio.lambda_from_csv(read(os.path.join(out, "lambda.csv")))
    np.testing.assert_allclose(sol.lam, 1.0, atol=1e-9)
    grid, mate_pos, lam = cio.mate_positions_from_csv(read(os.path.join(out, "mate.csv")))
    base = cio.sampled_curve_from_csv(read(os.path.join(out, "base.csv")))
    dist = np.linalg.norm(mate_pos - base.positions, axis=1)
    np.testing.assert_allclose(dist, 1.0, atol=1e-9)
    report = json.loads(read(os.path.join(out, "report.json")))
    assert report["verdict"] == "pass"


def test_example_2_cusp_row_and_band(tmp_path):
    out = str(tmp_path)
    code = main(["example", "2", "--c0", "1", "--grid", "0:2:801", "--out", out])
    assert code == 0
    base = cio.sampled_curve_from_csv(read(os.path.join(out, "base.csv")))
    grid, mate_pos, lam = cio.mate_positions_from_csv(read(os.path.join(out, "mate.csv")))
    i = int(np.argmin(np.abs(grid - 1.0)))
    np.testing.assert_allclose(mate_pos[i], base.positions[i], atol=1e-12)
    report = json.loads(read(os.path.join(out, "report.json")))
    assert any(lo <= 1.0 <= hi for lo, hi in report["excluded_bands"])


def test_example_3_offset_value_and_flag(tmp_path):
    out = str(tmp_path)
    code = main(["example", "3", "--c0", "-1", "--grid", "0:2:801", "--out", out])
    # The printed rectifying-family formulas diverge from the oracle, so the
    # example reports the audit flag.
    assert code == 2
    sol = cio.lambda_from_csv(read(os.path.join(out, "lambda.csv")))
    assert sol.lam[0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)
    report = json.loads(read(os.path.join(out, "report.json")))
    assert report["verdict"] == "formula-audit-flag"


def test_example_usage_error():
    assert main(["example", "7"]) == 64


def test_example_emits_plot_script(tmp_path):
    out = str(tmp_path)
    assert main(["example", "1", "--grid", "0:2:401", "--out", out,
                 "--emit-plot-script"]) == 0
    assert "mate.csv" in read(os.path.join(out, "plot_mates.py"))


@pytest.mark.parametrize("index", [1, 2, 3])
@pytest.mark.parametrize("c0", ["0.137", "-0.0"])
def test_example_files_come_from_its_verify_options(index, c0, tmp_path):
    # Each example is its row of EXAMPLES run through verify's code path, so
    # frenet, solve-lambda and associate on that row write the same bytes.
    curve, family, coeffs, start = cli.EXAMPLES[index]
    grid = "--grid=0:3:201"
    code = main(["example", str(index), grid, f"--c0={c0}", f"--out={tmp_path / 'ex'}"])
    offset = [f"--c0={c0}"] if start is None else [f"--c1={start + float(c0)!r}"]
    row = ["--curve", curve, "--family", family, f"--coeffs={coeffs}", grid]
    assert main(["verify", *row, *offset, f"--out={tmp_path / 'v'}"]) == code
    assert main(["frenet", "--curve", curve, grid, f"--out={tmp_path / 'f'}"]) == 0
    assert main(["solve-lambda", *row, *offset, f"--out={tmp_path / 's'}"]) == 0
    assert main(["associate", *row, f"--lambda-csv={tmp_path / 'ex' / 'lambda.csv'}",
                 f"--out={tmp_path / 'a'}"]) == 0
    for sub, name in (("v", "report.json"), ("f", "base.csv"), ("s", "lambda.csv"),
                      ("a", "mate.csv")):
        assert read(tmp_path / sub / name) == read(tmp_path / "ex" / name), name


@pytest.mark.parametrize("command", ["solve-lambda", "associate"])
def test_tp_offset_keeps_the_sign_of_c0(command, tmp_path):
    # lambda = c0 - s, so --c0=-0.0 starts at -0.0, as example 2 does.
    assert main([command, "--curve", HELIX, "--family", "TP", "--grid", "0:1:9",
                 "--c0=-0.0", "--out", str(tmp_path)]) == 0
    text = read(tmp_path / ("lambda.csv" if command == "solve-lambda" else "mate.csv"))
    lam0 = text.splitlines()[2].split(",")[1 if command == "solve-lambda" else 15]
    assert lam0 == "-0.0"


@pytest.mark.parametrize("flag, other", [("--c1", "--c2"), ("--c2", "--c1")])
def test_no_offset_keeps_the_sign_of_c1_and_c2(flag, other, tmp_path):
    # NO reads --c1 and --c2 as TP reads --c0: -0.0 reaches lambda.csv's provenance.
    assert main(["solve-lambda", "--curve", '{"kind":"helix","a":0.8,"b":0.6}', "--family", "NO",
                 f"{flag}=-0.0", other, "0.1", "--grid", "0:1:9", "--out", str(tmp_path)]) == 0
    provenance = read(tmp_path / "lambda.csv").splitlines()[0].split()
    assert f"{flag[2:]}=-0.0" in provenance and f"{other[2:]}=0.1" in provenance


def test_frenet_csv_columns(tmp_path):
    out = str(tmp_path)
    curve = json.dumps({"kind": "helix", "a": INV_SQRT2, "b": INV_SQRT2})
    code = main(["frenet", "--curve", curve, "--grid", "0:1:9", "--out", out])
    assert code == 0
    base = cio.sampled_curve_from_csv(read(os.path.join(out, "base.csv")))
    np.testing.assert_allclose(base.frames.kappa, INV_SQRT2, atol=1e-12)
    np.testing.assert_allclose(base.frames.tau, INV_SQRT2, atol=1e-12)


def test_solve_lambda_value(tmp_path):
    out = str(tmp_path)
    code = main(["solve-lambda", "--curve", '{"kind":"circle","r":1.0}',
                 "--family", "TO", "--coeffs", "1,1", "--c0", "1",
                 "--grid", "0:2:2001", "--out", out])
    assert code == 0
    sol = cio.lambda_from_csv(read(os.path.join(out, "lambda.csv")))
    i = int(np.argmin(np.abs(sol.grid - 1.0)))
    assert sol.lam[i] == pytest.approx(1.0 + math.e, abs=1e-8)


def test_associate_grid_mismatch_exit_65(tmp_path):
    out = str(tmp_path)
    assert main(["solve-lambda", "--curve", '{"kind":"circle","r":1.0}',
                 "--family", "TO", "--coeffs", "1,1", "--c0", "0",
                 "--grid", "0:2:801", "--out", out]) == 0
    code = main(["associate", "--curve", '{"kind":"circle","r":1.0}',
                 "--family", "TO", "--coeffs", "1,1",
                 "--lambda-csv", os.path.join(out, "lambda.csv"),
                 "--grid", "0:2:401", "--out", out])
    assert code == 65


@pytest.mark.parametrize("command", ["associate", "verify"])
def test_lambda_csv_on_a_grid_1e5_apart_exit_65(tmp_path, command):
    # Grids must agree to 1e-12 absolute, not within numpy's default rtol.
    out = str(tmp_path)
    curve = '{"kind":"circle","r":1.0}'
    assert main(["solve-lambda", "--curve", curve, "--family", "TO", "--coeffs", "1,1",
                 "--grid", "0:2:801", "--out", out]) == 0
    code = main([command, "--curve", curve, "--family", "TO", "--coeffs", "1,1",
                 "--lambda-csv", os.path.join(out, "lambda.csv"),
                 "--grid", "0:2.00001:801", "--out", out])
    assert code == 65


def test_verify_perturbed_mate_fails(tmp_path):
    out = str(tmp_path)
    curve = '{"kind":"circle","r":1.0}'
    args = ["--curve", curve, "--family", "TO", "--coeffs", "1,1", "--c0", "0",
            "--grid", "0:2:801", "--out", out]
    assert main(["associate"] + args) == 0
    assert main(["verify"] + args) == 0

    # Perturb the mate positions by 1e-2 noise and verify the same file.
    text = read(os.path.join(out, "mate.csv"))
    grid, pos, lam = cio.mate_positions_from_csv(text)
    rng = np.random.default_rng(7)
    noisy = pos + 1e-2 * rng.standard_normal(pos.shape)
    lines = [line for line in text.splitlines() if line.startswith("#")]
    header = [line for line in text.splitlines() if not line.startswith("#")][0]
    rows = []
    data_lines = [line for line in text.splitlines()
                  if line and not line.startswith("#")][1:]
    for j, line in enumerate(data_lines):
        cells = line.split(",")
        cells[16:19] = [repr(float(v)) for v in noisy[j]]
        rows.append(",".join(cells))
    noisy_path = os.path.join(out, "mate_noisy.csv")
    with open(noisy_path, "w") as handle:
        handle.write("\n".join(lines + [header] + rows) + "\n")

    code = main(["verify"] + args + ["--mate", noisy_path])
    assert code == 1


def test_verify_audit_family_exits_2(tmp_path):
    out = str(tmp_path)
    curve = json.dumps({"kind": "helix", "a": INV_SQRT2, "b": INV_SQRT2})
    code = main(["verify", "--curve", curve, "--family", "BP",
                 "--coeffs=-1,1", "--lambda0", "1.0",
                 "--grid", "0:2:801", "--out", out])
    assert code == 2


def test_cli_usage_errors():
    assert main([]) == 64
    assert main(["verify", "--curve", '{"kind":"circle","r":1.0}']) == 64
    assert main(["frenet", "--curve", "missing_file.json"]) == 64
    assert main(["frenet", "--curve", '{"kind":"circle","r":1.0}', "--grid", "bad"]) == 64


HELIX = json.dumps({"kind": "helix", "a": INV_SQRT2, "b": INV_SQRT2})
# The helix above sampled at 41 points of [0, 4], as a "samples" curve.
SAMPLED_HELIX = json.dumps({"kind": "samples", "points": [
    [s, INV_SQRT2 * math.cos(s * INV_SQRT2), INV_SQRT2 * math.sin(s * INV_SQRT2), s * INV_SQRT2]
    for s in np.linspace(0.0, 4.0, 41).tolist()]})


@pytest.mark.parametrize("argv, code, message", [
    (["frenet", "--curve", HELIX, "--grid", "1:1:9"], 64, "--grid requires min < max and n >= 7"),
    (["frenet", "--curve", HELIX, "--grid", "0:1:6"], 64, "--grid requires min < max and n >= 7"),
    # A span of 2e308 is inf, where numpy warned and sampled the curve at nan.
    (["verify", "--curve", HELIX, "--family", "TP", "--grid=-1e308:1e308:7"], 64,
     "--grid bounds and max - min must be finite, got '-1e308:1e308:7'"),
    # 1e14 rows (728 TiB) exceed the user address space of a 64-bit Linux
    # process (128 TiB on x86-64), so numpy's MemoryError, a traceback and
    # exit 1 before, comes before any page is touched.
    (["frenet", "--curve", HELIX, "--grid", "0:1:100000000000000"], 65,
     "Unable to allocate 728. TiB for an array with shape (100000000000000,)"
     " and data type float64"),
    (["verify", "--curve", HELIX, "--family", "NP", "--coeffs", "1,x"], 64,
     "--coeffs expects two comma-separated reals, got '1,x'"),
    (["verify", "--curve", HELIX, "--family", "NP", "--coeffs", "1,1,1"], 64,
     "--coeffs expects exactly two values"),
    (["verify", "--curve", HELIX, "--family", "XY"], 64,
     "--family must be one of TO,TP,TR,NO,NP,NR,BO,BP,BR, got 'XY'"),
    (["verify", "--curve", HELIX, "--family", "TP", "--tol", "constraint"], 64,
     "--tol expects key=value, got 'constraint'"),
    (["solve-lambda", "--curve", SAMPLED_HELIX, "--family", "BO", "--grid", "0:3:61"], 64,
     "this solver needs a named analytic curve (constant kappa, tau)"),
    (["verify", "--curve", HELIX, "--family", "TP", "--grid", "0:1.5:9", "--mate", "{mate}"], 65,
     "mate file grid does not match --grid"),
    (["solve-lambda", "--curve", '{"kind":"circle","r":1.0}', "--family", "TO", "--coeffs", "0,1"],
     64, "cannot derive c1 from c0: ratio*kappa vanishes"),
    (["frenet", "--curve", '{"kind":"samples","points":[[0,0,0,0],[1,NaN,0,0],[2,2,0,0]]}'], 64,
     "samples must be finite"),
    (["frenet", "--curve", '{"kind":"samples","points":[[0,0,0,0]]}'], 64,
     "samples need at least 2 rows of (s, x, y, z)"),
], ids=["grid min=max", "grid n=6", "grid span overflows", "grid beyond the address space",
        "coeffs not a number", "three coeffs", "unknown family",
        "tol without =", "samples curve for BO", "mate on another grid", "TO with a = 0",
        "samples with NaN", "samples of one row"])
def test_cli_error_branches(argv, code, message, tmp_path, capsys):
    # The --mate case reads a TP mate written on [0, 1] with the same 9 rows.
    assert main(["associate", "--curve", HELIX, "--family", "TP", "--grid", "0:1:9",
                 "--out", str(tmp_path / "mate")]) == 0
    argv = [str(tmp_path / "mate" / "mate.csv") if arg == "{mate}" else arg for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_format_is_not_an_option(tmp_path, capsys):
    # Every file is CSV (and report.json); no subcommand takes --format.
    out = str(tmp_path)
    for argv in (["example", "1"],
                 ["frenet", "--curve", HELIX],
                 ["solve-lambda", "--curve", HELIX, "--family", "TP"],
                 ["associate", "--curve", HELIX, "--family", "TP"],
                 ["verify", "--curve", HELIX, "--family", "TP"]):
        assert main(argv + ["--grid", "0:1:9", "--format", "json", "--out", out]) == 64
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert os.listdir(out) == []


START_FLAGS = ("--c0", "--c1", "--c2", "--lambda0", "--lambda0-prime")
CIRCLE = '{"kind":"circle","r":1.0}'


def _solve_lambda(family, out, *options):
    curve = CIRCLE if family == "TO" else HELIX
    return main(["solve-lambda", "--curve", curve, "--family", family, "--grid", "0:3:201",
                 "--out", str(out), *options])


@pytest.mark.parametrize("family", list(cli.START_OPTIONS))
def test_each_family_reads_only_its_start_options(family, tmp_path, capsys):
    # The 12 pairs of START_OPTIONS each change lambda.csv; the other 33 exit 64.
    assert _solve_lambda(family, tmp_path / "default") == 0
    default = read(tmp_path / "default" / "lambda.csv")
    for flag in START_FLAGS:
        out = tmp_path / flag
        code = _solve_lambda(family, out, f"{flag}=0.1")
        if flag in cli.START_OPTIONS[family]:
            assert code == 0
            assert read(out / "lambda.csv") != default, flag
        else:
            assert code == 64, flag
            assert f"{flag} is not read for family {family}" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("family, flag", [("TP", "--c0"), ("TO", "--c0"), ("TR", "--c1"),
                                          ("NO", "--c1"), ("NO", "--c2"), ("NP", "--lambda0"),
                                          ("BO", "--lambda0"), ("BR", "--lambda0-prime")])
def test_nonfinite_start_option_exit_64(family, flag, value, tmp_path, capsys):
    # Rejected before sampling, naming the option: not a lambda.csv of NaN
    # (exit 0), an RK4 escape at the first step (exit 65), or a mate that
    # verify finds non-finite (exit 65).
    assert _solve_lambda(family, tmp_path, f"{flag}={value}") == 64
    assert capsys.readouterr().err == f"error: {flag} must be finite, got {float(value)!r}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["verify", "--curve", HELIX, "--family", "TP", "--c0=nan"],
    ["example", "1", "--c0=-inf"],
    ["example", "2", "--c0=nan"],
])
def test_nonfinite_start_option_exit_64_in_verify_and_example(argv, tmp_path, capsys):
    # example 1 moves --c0 into --c1, after the check, so the message names --c0.
    assert main(argv + ["--grid", "0:3:201", "--out", str(tmp_path)]) == 64
    flag, value = argv[-1].split("=")
    assert capsys.readouterr().err == f"error: {flag} must be finite, got {float(value)!r}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("family, flag, value, s", [
    ("NP", "--lambda0", "1e300", "0"), ("NO", "--c1", "1e300", "0.015"),
    ("TR", "--c1", "1e300", "0"), ("NP", "--lambda0", "2e6", "0"),
])
def test_offset_beyond_the_rk4_cap_exit_65(family, flag, value, s, tmp_path, capsys):
    # Refused by associate before any array work: no numpy warning and no report.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "--curve", HELIX, "--family", family, flag, value,
                     "--grid", "0:3:201", "--out", str(tmp_path)])
    assert code == 65 and caught == []
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    # NO's hyperbolic lambda is c2 cosh + c1 sinh + kappa/(kappa^2 + tau^2), so 1.0 at s = 0.
    value = f"{float(value)!r} " if family != "NO" else ""
    assert err.startswith(f"error: lambda = {value}")
    assert err.endswith(f" lies outside |lambda| <= BLOWUP_CAP = 1e+06 at s={s}\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("curve, family, flag", [
    (HELIX, "NP", "--lambda0"), (HELIX, "NO", "--c1"), (CIRCLE, "TO", "--c1"),
])
def test_solve_lambda_refuses_the_offset_that_associate_refuses(curve, family, flag, tmp_path,
                                                                capsys):
    # One bound, one message: solve-lambda writes no lambda.csv that associate
    # would refuse, and says what verify says for the same start.
    argv = ["--curve", curve, "--family", family, flag, "1e300", "--grid", "0:3:201"]
    assert main(["verify", *argv, "--out", str(tmp_path / "verify")]) == 65
    refused = capsys.readouterr().err
    assert main(["solve-lambda", *argv, "--out", str(tmp_path / "solve")]) == 65
    assert capsys.readouterr().err == refused
    assert refused.startswith("error: lambda = ") and " lies outside |lambda| <= " in refused
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, h", [
    (["--curve", CIRCLE, "--family", "TO", "--coeffs=1,1", "--grid=0:1e-300:7"],
     "1.6666666666666667e-301"),
    (["--curve", HELIX, "--family", "TP", "--grid=0:1e-200:2001"], "5e-204"),
])
def test_a_grid_step_too_small_for_the_stencils_exit_65(argv, h, tmp_path, capsys):
    # h**3 underflows, and diff3 would divide by zero; the refusal comes
    # before any stencil, so with no numpy warning and no vacuous pass.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", *argv, "--out", str(tmp_path)])
    assert code == 65 and caught == []
    assert capsys.readouterr() == ("", f"error: grid step h={h} is too small for the stencils\n")
    assert os.listdir(tmp_path) == []


def test_offset_at_the_rk4_cap_is_not_refused(tmp_path):
    assert main(["verify", "--curve", HELIX, "--family", "NP", "--lambda0", "1e6",
                 "--grid", "0:3:201", "--out", str(tmp_path)]) != 65


@pytest.mark.parametrize("family", ["TO", "TR"])
def test_c0_with_c1_exit_64(family, tmp_path, capsys):
    # TO and TR start from --c1, or derive it from --c0; both at once is ambiguous.
    assert _solve_lambda(family, tmp_path, "--c0=0.25", "--c1=2") == 64
    assert f"family {family} reads --c0 or --c1, not both" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["associate", "verify"])
@pytest.mark.parametrize("flag", START_FLAGS)
def test_start_option_with_lambda_csv_exit_64(command, flag, tmp_path, capsys):
    # A loaded offset is not solved, so no start option is read.
    assert main(["solve-lambda", "--curve", CIRCLE, "--family", "TO", "--grid", "0:3:201",
                 "--out", str(tmp_path)]) == 0
    out = tmp_path / "out"
    assert main([command, "--curve", CIRCLE, "--family", "TO", "--grid", "0:3:201",
                 "--lambda-csv", str(tmp_path / "lambda.csv"), f"{flag}=1",
                 "--out", str(out)]) == 64
    assert f"{flag} is not read for family TO with --lambda-csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["example", "1", "--family", "NO"],
    ["example", "1", "--lambda-csv", "/nonexistent"],
    ["example", "1", "--lambda0", "5"],
    ["example", "1", "--coeffs=1,1"],
    ["frenet", "--curve", HELIX, "--family", "BO"],
    ["frenet", "--curve", HELIX, "--tol", "constraint=1"],
    ["frenet", "--curve", HELIX, "--c0", "1"],
    ["solve-lambda", "--curve", HELIX, "--family", "TP", "--tol", "constraint=1"],
    ["solve-lambda", "--curve", HELIX, "--family", "TP", "--lambda-csv", "lambda.csv"],
    ["solve-lambda", "--curve", HELIX, "--family", "TP", "--mate", "mate.csv"],
    ["associate", "--curve", HELIX, "--family", "TP", "--tol", "constraint=0"],
    ["associate", "--curve", HELIX, "--family", "TP", "--mate", "mate.csv"],
])
def test_options_a_subcommand_never_reads_exit_64(tmp_path, capsys, argv):
    assert main(argv + ["--grid", "0:1:9", "--out", str(tmp_path)]) == 64
    assert "unrecognized arguments" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("curve", [
    '{"kind": "circle", "r": "x"}',
    '{"kind": "helix", "a": "x", "b": 0.5}',
    '{"kind": "samples", "points": [[0, 0, 0, 0], [1, "x", 0, 0]]}',
])
def test_bad_curve_numbers_exit_64(tmp_path, capsys, curve):
    # A parse error, not a traceback and not exit 1 ("verification failed").
    assert main(["verify", "--curve", curve, "--family", "TO", "--out", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("curve, name", [
    ('{"kind": "helix", "a": 0.7, "b": NaN}', "b"),
    ('{"kind": "helix", "a": Infinity, "b": 0.7}', "a"),
    ('{"kind": "circle", "r": Infinity}', "radius r"),
    ('{"kind": "circle", "r": -Infinity}', "radius r"),
])
def test_nonfinite_curve_parameters_exit_64(tmp_path, capsys, curve, name):
    # A parse error that names the parameter, not a curvature-floor exit 65.
    assert main(["frenet", "--curve", curve, "--grid", "0:1:9", "--out", str(tmp_path)]) == 64
    assert f"finite {name}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("curve, message", [
    ('{"kind": "circle", "r": 1e300}', "radius r=1e+300 out of range: r^2 and 1/r^2"),
    ('{"kind": "circle", "r": 1e-320}', "radius r=1e-320 out of range: r^2 and 1/r^2"),
    ('{"kind": "helix", "a": 1e200, "b": 1}', "a=1e+200, b=1.0 out of range: a^2 + b^2"),
    ('{"kind": "circle", "r": 1' + "0" * 400 + "}", "int too large to convert to float"),
])
def test_out_of_range_curve_parameters_exit_64(tmp_path, capsys, curve, message):
    # Finite but huge or tiny: a parse error that names the parameter, not an
    # OverflowError traceback (exit 1) or a curvature-floor exit 65.
    assert main(["frenet", "--curve", curve, "--grid", "0:1:9", "--out", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [
    ["--family", "BO", "--grid", "0:3:61", "--tol", "constraint=nan"],
    ["--family", "BO", "--grid", "0:3:61", "--tol", "frame_angle=-1e-4"],
    ["--family", "BO", "--grid", "0:3:61", "--tol", "kappa_min=inf"],
    ["--family", "NP", "--coeffs", "nan,1"],
    ["--family", "NP", "--coeffs", "1,inf"],
    ["--family", "NO", "--grid", "0:inf:10"],
    ["--family", "NO", "--grid=-inf:1:10"],
])
def test_nonfinite_or_negative_inputs_exit_64(tmp_path, args):
    assert main(["verify", "--curve", HELIX, *args, "--out", str(tmp_path)]) == 64


def _set_nan(path, columns):
    """Rewrite the named columns of every data row of a CSV file to nan."""
    lines = read(path).splitlines()
    at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    index = [lines[at].split(",").index(name) for name in columns]
    for i in range(at + 1, len(lines)):
        cells = lines[i].split(",")
        for j in index:
            cells[j] = "nan"
        lines[i] = ",".join(cells)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("name,columns", [("mate.csv", ("xs", "ys", "zs")),
                                          ("lambda.csv", ("lambda",))])
def test_verify_nonfinite_files_exit_64(tmp_path, capsys, name, columns):
    # A non-finite file must not verify as an empty, passing gated set.
    ex, out = str(tmp_path / "ex"), str(tmp_path / "out")
    assert main(["example", "1", "--grid", "0:2:401", "--out", ex]) == 0
    _set_nan(os.path.join(ex, name), columns)
    code = main(["verify", "--curve", '{"kind":"circle","r":1.0}', "--family", "TO",
                 "--coeffs=1,1", "--grid", "0:2:401", "--out", out,
                 "--mate", os.path.join(ex, "mate.csv"),
                 "--lambda-csv", os.path.join(ex, "lambda.csv")])
    assert code == 64
    assert f"{columns[0]} must be finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_bad_cell_deep_in_a_streamed_mate_file_is_located(tmp_path, capsys):
    # Data row 5 000 is line 5 002, after the comment and the header; the
    # reader rescans the file from its start to name it.
    ex, grid = tmp_path / "ex", "0:6.283185307179586:6001"
    assert main(["example", "1", "--grid", grid, "--out", str(ex)]) == 0
    lines = (ex / "mate.csv").read_text().split("\n")
    cells = lines[5001].split(",")
    cells[cio._MATE_COLUMNS.index("Tsx")] = "x"
    lines[5001] = ",".join(cells)
    (ex / "mate.csv").write_text("\n".join(lines))
    code = main(["verify", "--curve", '{"kind":"circle","r":1.0}', "--family", "TO",
                 "--coeffs=1,1", "--grid", grid, "--mate", str(ex / "mate.csv"),
                 "--out", str(tmp_path / "out")])
    assert code == 64
    assert capsys.readouterr().err == "error: line 5002: could not convert string to float: 'x'\n"


def _not_utf8(path, source, row):
    """``source`` with a Latin-1 byte in the first cell of data row ``row``."""
    lines = source.read_bytes().split(b"\n")
    at = next(i for i, line in enumerate(lines) if not line.startswith(b"#")) + row
    lines[at] = b"1\xe9" + lines[at][lines[at].index(b","):]
    path.write_bytes(b"\n".join(lines))
    return str(path)


def test_unreadable_input_files_exit_64_naming_them(tmp_path, capsys):
    ex = tmp_path / "ex"
    assert main(["example", "1", "--grid", "0:2:3001", "--out", str(ex)]) == 0
    curve = tmp_path / "curve.json"
    curve.write_bytes(b'{"kind": "circle", "r": 1.0} \xff')
    lam, mate = str(ex / "lambda.csv"), str(ex / "mate.csv")
    cases = {
        str(tmp_path): ["--mate", str(tmp_path), "--lambda-csv", lam],
        # Row 2 500 lies past the first chunk that the text reader decodes.
        str(tmp_path / "m.csv"): ["--mate", _not_utf8(tmp_path / "m.csv", ex / "mate.csv", 2500)],
        str(tmp_path / "l.csv"): ["--lambda-csv", _not_utf8(tmp_path / "l.csv", ex / "lambda.csv", 1),
                                  "--mate", mate],
        str(curve): ["--curve", str(curve)],
    }
    for path, options in cases.items():
        argv = ["verify", "--curve", '{"kind":"circle","r":1.0}', "--family", "TO",
                "--coeffs=1,1", "--grid", "0:2:3001", "--out", str(tmp_path / "out")]
        code = main(argv + options)
        err = capsys.readouterr().err
        assert code == 64, (path, err)
        assert err.startswith("error: ") and path in err, err
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["example", "1", f"--out={blocker / 'x'}"]) == 64
    assert str(blocker / "x") in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "report.json")


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_output_files_get_the_mode_of_the_umask(tmp_path, umask, mode):
    # The mode that open(path, "w") gives, for every file a call writes.
    old = os.umask(umask)
    try:
        assert main(["example", "1", "--emit-plot-script", "--out", str(tmp_path / "ex")]) == 0
        assert main(["frenet", "--curve", '{"kind":"circle","r":1.0}',
                     "--out", str(tmp_path / "frenet")]) == 0
    finally:
        os.umask(old)
    modes = {p.relative_to(tmp_path).as_posix(): p.stat().st_mode & 0o777
             for p in tmp_path.rglob("*") if p.is_file()}
    assert modes == dict.fromkeys(["ex/base.csv", "ex/lambda.csv", "ex/mate.csv",
                                   "ex/plot_mates.py", "ex/report.json", "frenet/base.csv"], mode)


def test_nan_tolerance_env_exit_64(tmp_path, monkeypatch):
    monkeypatch.setenv("CURVEMATES_TOL_CONSTRAINT", "nan")
    assert main(["verify", "--curve", HELIX, "--family", "BO", "--grid", "0:3:61",
                 "--out", str(tmp_path)]) == 64


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported lazily by the code paths that need it, which keeps
    # the start-up of every CLI call short.
    src = os.path.dirname(os.path.dirname(curvemates.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, curvemates.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# Example 3 exits 2, so a __main__ that dropped main()'s exit code would fail.
@pytest.mark.parametrize("index", ["1", "3"])
def test_python_m_curvemates_is_the_cli(index, tmp_path):
    src = os.path.dirname(os.path.dirname(curvemates.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-m", "curvemates", "example", index,
                            "--out", str(tmp_path / "m")], env=env, capture_output=True)
    assert child.returncode == main(["example", index, "--out", str(tmp_path / "main")])
    assert (tmp_path / "m" / "mate.csv").read_bytes() == \
        (tmp_path / "main" / "mate.csv").read_bytes()


def test_cli_deterministic_outputs(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert main(["example", "1", "--c0", "1", "--grid", "0:2:401", "--out", out]) == 0
    for name in ("base.csv", "lambda.csv", "mate.csv", "report.json"):
        assert read(os.path.join(a, name)) == read(os.path.join(b, name))


def test_cli_tol_override_env(tmp_path, monkeypatch):
    out = str(tmp_path)
    curve = json.dumps({"kind": "helix", "a": INV_SQRT2, "b": INV_SQRT2})
    # Loosening the audit threshold turns the flag verdict into a pass.
    monkeypatch.setenv("CURVEMATES_TOL_AUDIT_FLAG", "1e9")
    code = main(["verify", "--curve", curve, "--family", "BP",
                 "--coeffs=-1,1", "--lambda0", "1.0",
                 "--grid", "0:2:801", "--out", out])
    assert code == 0


# Every family at --grid 0:3:2001 with the CLI defaults (the helix
# a = b = 1/sqrt(2); TO on the unit circle): (exit code, verdict, notes,
# gated ("+" gates the verdict, "-" is audit-only), band count, residuals,
# frame errors, curvature deltas).
NINE_FAMILIES = {
    "TO": (
        0, 'pass', [],
        '+<T,B*> +distance +frame_T +frame_N +frame_B +kappa +tau',
        0, {'<T,B*>': 0.0},
        {'B': 0.0, 'N': 2.580956827951785e-08, 'T': 2.580956827951785e-08},
        {'gated_points': 1997,
         'kappa': 6.571420917602179e-07,
         'kappa_closed': 6.571420917602179e-07,
         'tau': 0.0,
         'tau_closed': 0.0}),
    "TP": (
        0, 'pass', [],
        '+<T,T*> +distance +frame_T +frame_N +frame_B +kappa +tau',
        1, {'<T,T*>': 1.0979920733178439e-06},
        {'B': 2.1073424255447017e-08, 'N': 1.5529412268631577e-06, 'T': 1.5528697335856362e-06},
        {'gated_points': 1677,
         'kappa': 2.652204395957454e-06,
         'kappa_closed': 2.652204396109125e-06,
         'tau': 9.826692510736383e-08,
         'tau_closed': 9.826692494329168e-08}),
    "TR": (
        2, 'formula-audit-flag', ['audited values above flag threshold: kappa, <T,N*>'],
        '-<T,N*> +distance +frame_T +frame_N +frame_B -kappa -tau',
        0, {'<T,N*>': 0.5773502784483195},
        {'B': 1.659323085197815e-07, 'N': 3.6500241499888574e-08, 'T': 1.639127731323244e-07},
        {'gated_points': 1997,
         'kappa': 0.42264996564829577,
         'kappa_closed': 4.067512611458361e-07,
         'tau': 1.688017851409769e-05,
         'tau_closed': 1.688018808249352e-05}),
    "NO": (
        0, 'pass', ['gated set empty: every point is degenerate or boundary'],
        '+<N,B*> +L-coefficient +distance -frame_T -frame_N -frame_B -kappa -tau',
        1, {'<N,B*>': 0.0, 'L-coefficient': 3.4890943526306126e-14},
        {'B': 0.0, 'N': 0.0, 'T': 0.0},
        {'gated_points': 0, 'kappa': 0.0, 'tau': 0.0}),
    "NP": (
        2, 'formula-audit-flag', ['audited values above flag threshold: kappa, tau'],
        '+<N,T*> +distance +frame_T +frame_N +frame_B -kappa -tau',
        0, {'<N,T*>': 1.7207762992299536e-13},
        {'B': 1.3493575361575816e-07, 'N': 3.332000937312528e-08, 'T': 1.3575603930867175e-07},
        {'gated_points': 1997,
         'kappa': 1.0,
         'kappa_closed': 7.855514711858872e-08,
         'tau': 1.0,
         'tau_closed': 4.862507749191255e-07}),
    "NR": (
        0, 'pass', ['gated set empty: every point is degenerate or boundary'],
        '+<N,N*> +NR-coefficient +distance -frame_T -frame_N -frame_B -kappa -tau',
        1, {'<N,N*>': 0.0, 'NR-coefficient': 1.9428902930931458e-16},
        {'B': 0.0, 'N': 0.0, 'T': 0.0},
        {'gated_points': 0, 'kappa': 0.0, 'tau': 0.0}),
    "BO": (
        2, 'formula-audit-flag', ['audited values above flag threshold: kappa, tau'],
        '+<B,B*> +Z-coefficient +distance -frame_T -frame_N -frame_B -kappa -tau',
        2, {'<B,B*>': 2.3516670328432854e-06, 'Z-coefficient': 2.0115891494221013e-11},
        {'B': 2.6329976557098057e-06, 'N': 2.634051588351387e-06, 'T': 1.698993779866605e-07},
        {'gated_points': 1736,
         'kappa': 2.301565498679884,
         'kappa_closed': 1.542293966302655e-06,
         'tau': 0.7495963842155781,
         'tau_closed': 3.0712258183690485e-05}),
    "BP": (
        2, 'formula-audit-flag', ['audited values above flag threshold: kappa, tau'],
        '+<B,T*> +distance +frame_T +frame_N +frame_B -kappa -tau',
        0, {'<B,T*>': 1.53093268534521e-07},
        {'B': 1.788139343261721e-07, 'N': 2.9802322387695312e-08, 'T': 1.7819197093101463e-07},
        {'gated_points': 1997,
         'kappa': 0.38581595276538516,
         'kappa_closed': 3.126685204015135e-07,
         'tau': 0.30545654903089514,
         'tau_closed': 2.927378139464199e-07}),
    "BR": (
        2, 'formula-audit-flag', ['audited values above flag threshold: kappa, tau'],
        '+<B,N*> +BR-coefficient +distance -frame_T -frame_N -frame_B -kappa -tau',
        1, {'<B,N*>': 7.791836666246749e-07, 'BR-coefficient': 2.6797511002612434e-08},
        {'B': 9.23150688513165e-07, 'N': 9.310543150790854e-07, 'T': 2.1283115233608674e-07},
        {'gated_points': 1053,
         'kappa': 1414210498.702526,
         'kappa_closed': 5.31474596022803e-07,
         'tau': 0.49979654691487524,
         'tau_closed': 1.8637610236181083e-05}),
}
# The floating-point figures are pinned to a relative 1e-9 plus an absolute
# floor per group. Perturbing the sampled base by 1-2 ulp (as another libm
# would) moves the residuals and frame angles by up to 1e-8 and the
# curvature deltas by up to 3.3e-6, so the floors sit about 10x above that
# and at least 30x below the gates.
PIN_FLOORS = {"residuals": 1e-7, "frame_errors": 1e-7, "curvature_deltas": 3e-5}


@pytest.mark.parametrize("family", list(NINE_FAMILIES))
def test_nine_family_verdicts_pinned(family, tmp_path):
    code, verdict, notes, gated, bands, *figures = NINE_FAMILIES[family]
    curve = ('{"kind":"circle","r":1.0}' if family == "TO"
             else f'{{"kind":"helix","a":{INV_SQRT2!r},"b":{INV_SQRT2!r}}}')
    assert main(["verify", "--curve", curve, "--family", family, "--grid", "0:3:2001",
                 "--out", str(tmp_path)]) == code
    report = json.loads(read(os.path.join(str(tmp_path), "report.json")))
    assert (report["verdict"], report["notes"]) == (verdict, notes)
    assert report["gated"] == {name[1:]: name[0] == "+" for name in gated.split()}
    assert len(report["excluded_bands"]) == bands
    for (group, floor), expected in zip(PIN_FLOORS.items(), figures):
        assert report[group] == pytest.approx(expected, rel=1e-9, abs=floor), group


# At n = 7 and 8 the order-2 coefficient residual keeps no row, so the four
# coefficient families exit 65 with a typed error instead of reading an
# empty residual as 0; n = 9 keeps one row and its verdict.
@pytest.mark.parametrize("family, exit_at_9", [("NO", 0), ("NR", 0), ("BO", 1), ("BR", 1)])
@pytest.mark.parametrize("n", [7, 8, 9])
def test_coefficient_families_on_too_few_samples(family, exit_at_9, n, tmp_path, capsys):
    curve = f'{{"kind":"helix","a":{INV_SQRT2!r},"b":{INV_SQRT2!r}}}'
    code = main(["verify", "--curve", curve, "--family", family, "--grid", f"0:0.3:{n}",
                 "--out", str(tmp_path)])
    if n == 9:
        assert code == exit_at_9
        return
    assert code == 65
    assert f"{family} coefficient residual: " in capsys.readouterr().err
