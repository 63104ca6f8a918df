import dataclasses
import json
import math
import os
import tracemalloc
from io import StringIO
from itertools import islice

import numpy as np
import pytest

from curvemates import (AssociationSpec, CurveSpec, SampledCurve, associate, sample_curve,
                        verify_mate)
from curvemates import cli
from curvemates.errors import InsufficientDataError, ParseError, SpecificationError
from curvemates import io as cio
from curvemates.geometry import curvature_derivatives
from curvemates.numdiff import diff1, norm3, uniform_spacing
from curvemates.solvers import (constant_admissible_lambda, lambda_constant, lambda_involute,
                                solve_linear)
from curvemates.verify import GATING_TABLE_VERSION

INV_SQRT2 = 1.0 / math.sqrt(2.0)
EDGE_VALUES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
               5e-324, 1e16, 1e-5, 0.1]


def _reference_rows_to_csv(header, rows, comments=None):
    """The per-cell writer that the blocked one must match byte for byte."""
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(header))
    lines.extend(_reference_row_lines([rows]))
    return "\n".join(lines) + "\n"


def _reference_row_lines(columns):
    """Each row of the stacked columns as a line, every cell formatted on its own."""
    return (",".join(repr(float(v)) for v in row) for row in np.column_stack(columns))


def _blocked_csv(header, rows, comments=()):
    """The library's blocked writer on a table of rows."""
    return "".join(cio._csv_chunks(header, cio._row_lines([rows]), comments))


def _reference_parse_csv(text, expected_header):
    """The per-row float parser that numpy's reader must match, messages included."""
    comments = []
    header = None
    data = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            assert header == expected_header
            continue
        cells = line.split(",")
        if len(cells) != len(expected_header):
            raise ParseError(f"line {lineno}: expected {len(expected_header)} columns")
        try:
            data.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return np.asarray(data, dtype=float), comments


def _assert_same_text(got, want, name):
    """Equal texts; on a mismatch, name the first differing line (a full diff
    of two multi-megabyte texts would take minutes)."""
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        line = next((i for i, (a, b) in enumerate(pairs, start=1) if a != b), "end")
        pytest.fail(f"{name}: first difference at line {line}")


def _assert_same_parse(text, header):
    # As a list of lines (the *_from_csv readers) and as a stream (an open file).
    ref_array, ref_comments = _reference_parse_csv(text, header)
    for lines in (text.splitlines(), StringIO(text)):
        array, comments = cio._parse_csv(lines, header)
        assert comments == ref_comments
        assert array.shape == ref_array.shape
        assert array.tobytes() == ref_array.tobytes()


def _parse_errors(text, header):
    """The ParseError messages of a malformed CSV, read as a list of lines and as a stream."""
    messages = []
    for lines in (text.splitlines(), StringIO(text)):
        with pytest.raises(ParseError) as exc:
            cio._parse_csv(lines, header)
        messages.append(str(exc.value))
    return messages


def _edge_table(rows):
    """Columns: constant, all distinct, edge values with repeats, a ramp through 0."""
    rng = np.random.default_rng(7)
    return np.column_stack([
        np.full(rows, 0.1),
        rng.standard_normal(rows),
        rng.choice(np.array(EDGE_VALUES), rows),
        np.linspace(-1.0, 1.0, rows),
    ])


def test_curve_json_round_trip():
    assert cio.curve_from_json('{"kind": "circle", "r": 1.0}') == CurveSpec.circle(1.0)
    helix = cio.curve_from_json('{"a": 0.7071, "b": 0.7071, "kind": "helix"}')
    assert helix == CurveSpec.helix(0.7071, 0.7071)


def test_curve_json_samples_round_trip():
    pts = np.column_stack([np.linspace(0, 1, 9)] * 4)
    spec = cio.curve_from_json(json.dumps({"kind": "samples", "points": pts.tolist()}))
    np.testing.assert_array_equal(spec.points, pts)


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


@pytest.mark.parametrize("curve", ["helix", "sampled"])
def test_sampled_curve_csv_arclength_derivatives_keep_their_bits(curve, helix_base):
    # The reader's speed, kappa', tau', kappa'' and tau'' have the bits of the
    # rule it spelled out before calling geometry.with_arclength_derivatives.
    base = helix_base
    if curve == "sampled":  # off arc length, so the chain-rule terms count
        t = np.linspace(0.0, 2.0, 401)
        points = np.column_stack([t, np.cos(t), np.sin(2.0 * t), 0.3 * t * t])
        base = sample_curve(CurveSpec.from_samples(points), t)
    again = cio.sampled_curve_from_csv(cio.sampled_curve_to_csv(base))
    h = uniform_spacing(again.grid)
    speed = norm3(diff1(again.positions, h))
    want = (speed,) + curvature_derivatives(again.frames.kappa, again.frames.tau, speed, h)
    names = ("speed", "kappa_prime", "tau_prime", "kappa_second", "tau_second")
    for name, value in zip(names, want):
        assert np.array_equal(getattr(again.frames, name), value), name


def test_sampled_curve_csv_needs_frames():
    curve = SampledCurve(grid=np.linspace(0.0, 1.0, 9), positions=np.zeros((9, 3)))
    with pytest.raises(SpecificationError) as err:
        cio.sampled_curve_to_csv(curve)
    assert str(err.value) == "CSV export requires a curve with frames"


def test_sampled_curve_csv_needs_uniform_grid_of_4_rows(helix_base):
    lines = cio.sampled_curve_to_csv(helix_base).splitlines()
    cells = lines[5].split(",")
    cells[0] = repr(float(cells[0]) + 1e-4)
    shifted = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
    with pytest.raises(InsufficientDataError, match="uniform"):
        cio.sampled_curve_from_csv(shifted)
    with pytest.raises(InsufficientDataError):
        cio.sampled_curve_from_csv("\n".join(lines[:3]) + "\n")


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


@pytest.fixture
def involute_mate(helix_base, grid_0_2):
    """The TP involute mate of the helix."""
    return associate(helix_base, AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2)),
                     lambda_involute(1.0, grid_0_2))


def test_mate_reader_converts_every_column(involute_mate, helix_base):
    # The reader returns 5 of the 30 columns but converts all of them, so a
    # malformed cell in a column it does not return is still located.
    lines = cio.mate_to_csv(involute_mate).splitlines()
    cells = lines[5].split(",")
    cells[cio._MATE_COLUMNS.index("Tsx")] = "x"
    lines[5] = ",".join(cells)
    with pytest.raises(ParseError, match="line 6: could not convert string to float: 'x'"):
        cio.mate_positions_from_csv("\n".join(lines) + "\n")


def test_report_json_schema(helix_base, grid_0_2):
    sol = lambda_involute(1.0, grid_0_2)
    pred = associate(helix_base, AssociationSpec("T", "P", (-INV_SQRT2, INV_SQRT2)), sol)
    report = verify_mate(pred)
    obj = json.loads(cio.report_to_json(report))
    # Every report field, with constraint_residuals written as "residuals".
    fields = {f.name for f in dataclasses.fields(report)} - {"constraint_residuals"}
    assert set(obj) == fields | {"residuals", "gating_table_version"}
    assert obj["gating_table_version"] == GATING_TABLE_VERSION
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


_EXAMPLE_HEADERS = {"base.csv": cio._CURVE_COLUMNS, "lambda.csv": cio._LAMBDA_COLUMNS,
                    "mate.csv": cio._MATE_COLUMNS}


def _reference_example_texts(base, sol, pred, monkeypatch):
    """An example's three CSV files, every cell formatted on its own."""
    f = base.frames
    base_rows = np.column_stack([base.grid, base.positions, f.T, f.N, f.B, f.kappa, f.tau])
    mate_rows = np.column_stack([base_rows, pred.lam.lam, pred.mate.positions,
                                 pred.T_star, pred.N_star, pred.B_star,
                                 pred.kappa_star, pred.tau_star])
    mate_comment = f"family={pred.family.code} classification={pred.classification}"
    with monkeypatch.context() as patch:
        patch.setattr(cio, "_row_lines", _reference_row_lines)
        lambda_text = cio.lambda_to_csv(sol)
    return {"base.csv": _reference_rows_to_csv(cio._CURVE_COLUMNS, base_rows),
            "lambda.csv": lambda_text,
            "mate.csv": _reference_rows_to_csv(cio._MATE_COLUMNS, mate_rows, [mate_comment])}


def _example_inputs(index, n):
    """(base, spec, lambda) of an example, solved by verify from its row of cli.EXAMPLES."""
    curve, family, coeffs, start = cli.EXAMPLES[index]
    args = cli.build_parser().parse_args(
        ["verify", f"--curve={curve}", f"--family={family}", f"--coeffs={coeffs}",
         f"--grid=0:{2.0 * math.pi!r}:{n}"] + ([] if start is None else [f"--c1={start!r}"]))
    curve, base, spec = cli._inputs(args)
    return base, spec, cli._solve_family_lambda(spec, curve, base, args)


@pytest.mark.parametrize("index", [1, 2, 3])
def test_example_csv_matches_per_cell_writer(index, monkeypatch):
    base, spec, sol = _example_inputs(index, 2001)
    pred = associate(base, spec, sol)
    texts = {"base.csv": cio.sampled_curve_to_csv(base), "lambda.csv": cio.lambda_to_csv(sol),
             "mate.csv": cio.mate_to_csv(pred)}
    expected = _reference_example_texts(base, sol, pred, monkeypatch)
    for name, text in texts.items():
        _assert_same_text(text, expected[name], name)
        _assert_same_parse(text, _EXAMPLE_HEADERS[name])


@pytest.mark.parametrize("index", [1, 2, 3])
def test_example_files_match_per_cell_writer_across_blocks(index, tmp_path, monkeypatch):
    # mate.csv splices base.csv's lines into blocks of mate cells; a base row
    # lost or repeated at a block boundary would shift every later row.
    n = 2 * cio._BLOCK_ROWS + 1
    assert cli.main(["example", str(index), "--grid", f"0:{2.0 * math.pi!r}:{n}",
                     "--out", str(tmp_path)]) in (0, 1, 2)
    base, spec, sol = _example_inputs(index, n)
    expected = _reference_example_texts(base, sol, associate(base, spec, sol), monkeypatch)
    for name, text in expected.items():
        _assert_same_text((tmp_path / name).read_text(), text, name)


def _first_rows(obj, rows):
    """A copy of a dataclass whose array fields, nested ones too, keep their first ``rows`` rows."""
    changes = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, np.ndarray) and value.ndim:
            changes[field.name] = value[:rows]
        elif dataclasses.is_dataclass(value):
            changes[field.name] = _first_rows(value, rows)
    return dataclasses.replace(obj, **changes)


def _example_files(pred):
    """The chunk iterators of an example's three CSV files, as the CLI writes them."""
    base_chunks, mate_chunks = cio.base_and_mate_chunks(pred)
    return {"base.csv": base_chunks, "lambda.csv": cio.lambda_chunks(pred.lam),
            "mate.csv": mate_chunks}


@pytest.mark.parametrize("rows", [1, 2047, 2048, 2049, 3 * 2048 + 5])
def test_streamed_files_match_text_and_per_cell_writers(rows, tmp_path, monkeypatch):
    # One row, a block less one, one block, a block plus one, three blocks plus five.
    assert cio._BLOCK_ROWS == 2048
    base, spec, sol = _example_inputs(1, 3 * 2048 + 5)
    pred = _first_rows(associate(base, spec, sol), rows)
    base, sol = pred.base, pred.lam
    texts = {"base.csv": cio.sampled_curve_to_csv(base), "lambda.csv": cio.lambda_to_csv(sol),
             "mate.csv": cio.mate_to_csv(pred)}
    expected = _reference_example_texts(base, sol, pred, monkeypatch)
    cio.write_files(str(tmp_path / "example"), _example_files(pred))
    # The standalone generators, as frenet and associate write them.
    cio.write_files(str(tmp_path / "alone"), {"base.csv": cio.sampled_curve_chunks(base),
                                              "mate.csv": cio.mate_chunks(pred)})
    for name, text in texts.items():
        assert text.count("\n") == rows + 1 + (name != "base.csv")
        _assert_same_text(text, expected[name], name)
        _assert_same_text((tmp_path / "example" / name).read_text(), text, name)
        if name != "lambda.csv":
            _assert_same_text((tmp_path / "alone" / name).read_text(), text, name)
    assert sorted(os.listdir(tmp_path / "example")) == sorted(texts)


def _raising_after(chunks, count):
    """The first ``count`` chunks of ``chunks``, then an error."""
    yield from islice(chunks, count)
    raise RuntimeError("no second block")


def test_write_files_error_leaves_no_temp_and_old_files(tmp_path):
    base, spec, sol = _example_inputs(1, 2 * 2048 + 1)
    files = _example_files(associate(base, spec, sol))
    for name in files:
        (tmp_path / name).write_text(f"old {name}\n")
    files["mate.csv"] = _raising_after(files["mate.csv"], 2)  # the header and one block
    with pytest.raises(RuntimeError, match="no second block"):
        cio.write_files(str(tmp_path), files)
    assert sorted(os.listdir(tmp_path)) == sorted(files)  # no .tmp-* file is left
    for name in files:
        assert (tmp_path / name).read_text() == f"old {name}\n"


def test_streamed_write_and_parse_hold_one_block_of_text(tmp_path):
    # Traced peaks stay within the float data plus 16 MB. Holding the text
    # instead peaks at 37.8 MB (write) and 34.9 MB (parse) at n = 20 001.
    n = 16 * cio._BLOCK_ROWS + 1
    base, spec, sol = _example_inputs(1, n)
    pred = associate(base, spec, sol)
    tracemalloc.start()
    try:
        cio.write_files(str(tmp_path), _example_files(pred))
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with open(tmp_path / "mate.csv", encoding="utf-8") as handle:
            grid, positions, lam = cio.mate_positions_from_lines(handle)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(positions, pred.mate.positions) and np.array_equal(lam, sol.lam)
    assert write_peak < 34 * 8 * n + 16e6, write_peak
    assert parse_peak < 30 * 8 * n + 16e6, parse_peak


def test_rows_to_csv_matches_per_cell_writer():
    header = ["a", "b", "c", "d"]
    tables = [
        _edge_table(2 * cio._BLOCK_ROWS + 1),  # rows span two block boundaries
        _edge_table(1),
        np.array([EDGE_VALUES]),
        np.array(EDGE_VALUES).reshape(-1, 1),
    ]
    for rows in tables:
        names = header if rows.shape[1] == 4 else [f"c{i}" for i in range(rows.shape[1])]
        text = _blocked_csv(names, rows, ["note=1"])
        assert text == _reference_rows_to_csv(names, rows, ["note=1"])
        _assert_same_parse(text, names)
    assert _blocked_csv(["a"], np.array([[-0.0], [0.0]])) == "a\n-0.0\n0.0\n"


def _long_csv():
    """2 * block + 1 data rows with comments, blank lines and padded cells."""
    header = ["a", "b", "c", "d"]
    lines = _blocked_csv(header, _edge_table(2 * cio._BLOCK_ROWS + 1), ["first"]).splitlines()
    lines.insert(10, "# between rows")
    lines.insert(20, "")
    lines.insert(cio._BLOCK_ROWS + 30, "   ")
    lines[40] = " " + lines[40].replace(",", " , ") + "\t"
    return header, lines


def test_parse_csv_matches_per_row_parser():
    header, lines = _long_csv()
    text = "\n".join(lines) + "\n"
    _assert_same_parse(text, header)
    array, comments = cio._parse_csv(text.splitlines(), header)
    assert comments == ["first", "between rows"]
    assert array.shape == (2 * cio._BLOCK_ROWS + 1, 4)


def test_parse_csv_errors_after_first_block():
    header, lines = _long_csv()
    row = cio._BLOCK_ROWS + 100  # a line past the first block of written rows
    cases = {
        "bad cell": (lines[row].replace(",", ",x", 1), lines[row + 1],
                     f"line {row + 1}: could not convert string to float: 'x"),
        "short row": (lines[row].rsplit(",", 1)[0], lines[row + 1],
                      f"line {row + 1}: expected 4 columns"),
        "long row": (lines[row] + ",1.0", lines[row + 1],
                     f"line {row + 1}: expected 4 columns"),
        # Three cells then five: 8 = 2 * 4 cells in all, but two bad rows.
        "short then long": (lines[row].rsplit(",", 1)[0], lines[row + 1] + ",2.0",
                            f"line {row + 1}: expected 4 columns"),
    }
    for name, (first, second, message) in cases.items():
        bad = lines.copy()
        bad[row], bad[row + 1] = first, second
        text = "\n".join(bad) + "\n"
        with pytest.raises(ParseError) as ref:
            _reference_parse_csv(text, header)
        assert _parse_errors(text, header) == [str(ref.value)] * 2, name
        assert str(ref.value).startswith(message), name


@pytest.mark.parametrize("row", [5, cio._BLOCK_ROWS + 100])  # in the first block and past it
def test_parse_csv_locates_cells_numpy_rejects(row):
    # float reads 1_0 as 10.0 and Arabic-Indic digits as 12.0; numpy's reader
    # reads neither, so the cell is a located error, not a silent value.
    header, lines = _long_csv()
    cells = lines[row].split(",")
    cases = {
        "digit grouping": (",".join(cells[:2] + ["1_0"] + cells[3:]),
                           "could not convert string to float: '1_0'"),
        "non-ASCII digits": (",".join(cells[:2] + ["\u0661\u0662"] + cells[3:]),
                             "could not convert string to float: '\u0661\u0662'"),
        "trailing comma": (lines[row] + ",", "expected 4 columns"),
        "commas alone": (",,,", "could not convert string to float: ''"),
    }
    for name, (line, message) in cases.items():
        bad = lines.copy()
        bad[row] = line
        assert _parse_errors("\n".join(bad) + "\n", header) == [f"line {row + 1}: {message}"] * 2, name


@pytest.mark.parametrize("rows", ["1,2,3\n5,6,7\n", "1,2,3,4,0\n5,6,7,8,0\n"])
def test_parse_csv_checks_the_header_width(rows):
    # numpy takes its column count from the rows, so three or five numbers on
    # every row parse; the count must still be checked against the header.
    assert _parse_errors("a,b,c,d\n" + rows, ["a", "b", "c", "d"]) == ["line 2: expected 4 columns"] * 2


def test_parse_mate_csv_with_nan_cells(helix_base, grid_0_2):
    # NO's constant branch puts the mate on the axis, where the closed-form
    # frames and curvatures are undefined: mate_to_csv writes nan there.
    kappa, tau = float(helix_base.frames.kappa[0]), float(helix_base.frames.tau[0])
    sol = lambda_constant(constant_admissible_lambda("NO", kappa, tau), grid_0_2)
    pred = associate(helix_base, AssociationSpec("N", "O", (0.0, 1.0)), sol)
    text = cio.mate_to_csv(pred)
    array, _ = cio._parse_csv(text.splitlines(), cio._MATE_COLUMNS)
    assert np.isnan(array).sum() >= len(grid_0_2)
    _assert_same_parse(text, cio._MATE_COLUMNS)
