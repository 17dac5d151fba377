import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import siegel.cli as cli_module
import siegel.verify as verify_module
from siegel.cli import build_parser, main
from siegel.connection import gamma_closed, gamma_from_metric
from siegel.indexing import omega_list, omega_size
from siegel.metric import metric_pair
from siegel.symplectic import DegeneracyError, SiegelPoint, random_point


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qexp_delta(capsys):
    code, out, _ = run_cli(capsys, "qexp", "--form", "Delta", "--terms", "5")
    assert code == 0
    assert out.strip() == "0, 1, -24, 252, -1472"


def test_qexp_g2_prints_prefactor(capsys):
    code, out, _ = run_cli(capsys, "qexp", "--form", "G2", "--terms", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "prefactor: pi/3"
    assert lines[1] == "1, -24, -72"


def test_qexp_rejects_unknown_form(capsys):
    code, _, err = run_cli(capsys, "qexp", "--form", "E8")
    assert code == 2
    assert "unknown form" in err


def test_serre_weight_raising(capsys):
    code, out, _ = run_cli(capsys, "serre", "--form", "E4", "--terms", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight: 6"
    assert lines[1] == "-1/3, 168, 5544, 40992"


def test_anomaly_pass_and_usage(capsys):
    code, out, _ = run_cli(capsys, "anomaly", "--z", "0.2+1.1i",
                           "--gamma", "S", "--terms", "300")
    assert code == 0
    assert "PASS" in out
    code, _, err = run_cli(capsys, "anomaly", "--z", "0.2-1.1i")
    assert code == 2
    code, _, err = run_cli(capsys, "anomaly", "--z", "0.2+1.1i",
                           "--gamma", "Q")
    assert code == 2


@pytest.mark.parametrize("terms", ["1", "2"])
def test_anomaly_too_few_terms_is_a_truncation_error(capsys, terms):
    # a one-term expansion is a truncation like any other, not a failed
    # identity
    code, out, err = run_cli(capsys, "anomaly", "--z", "0.1+1i",
                             "--terms", terms)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tail estimate") and "terms required" in err


def test_metric_default_point(capsys):
    code, out, _ = run_cli(capsys, "metric", "--g", "2")
    assert code == 0
    data = json.loads(out)
    assert data["omega"] == [[1, 1], [1, 2], [2, 2]]
    np.testing.assert_allclose(data["W"], np.diag([0.5, 1.0, 0.5]))
    np.testing.assert_allclose(data["M"], np.diag([2.0, 1.0, 2.0]))


def test_metric_requires_point_or_degree(capsys):
    code, _, err = run_cli(capsys, "metric")
    assert code == 2
    assert "required" in err


@pytest.mark.parametrize("command", ["metric", "gamma"])
def test_point_and_degree_together_are_refused(tmp_path, capsys, command):
    # a point file and a degree name two points; neither is dropped
    path = tmp_path / "p2.json"
    path.write_text(random_point(2, seed=1).to_json())
    with pytest.raises(SystemExit) as exc:
        main([command, "--point", str(path), "--g", "5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not allowed with argument" in err


def test_gamma_degree_one_single_entry(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--g", "1", "--method", "closed")
    assert code == 0
    data = json.loads(out)
    assert len(data["entries"]) == 1
    entry = data["entries"][0]
    assert entry["K"] == [1, 1] and entry["I"] == [1, 1]
    assert abs(entry["re"]) < 1e-15 and abs(entry["im"] - 1.0) < 1e-15


def test_gamma_from_point_file(tmp_path, capsys):
    point = SiegelPoint(2, np.array([[0.1, 0.2], [0.2, -0.3]]),
                        np.array([[1.5, 0.2], [0.2, 1.1]]))
    path = tmp_path / "point.json"
    path.write_text(point.to_json())

    def emit(method):
        out_path = tmp_path / f"gamma-{method}.json"
        code, _, _ = run_cli(capsys, "gamma", "--point", str(path),
                             "--method", method, "--out", str(out_path))
        assert code == 0
        return json.loads(out_path.read_text())

    data = emit("metricA")
    assert data["method"] == "metricA"
    closed = emit("closed")
    by_key = {(tuple(e["K"]), tuple(e["I"]), tuple(e["J"])):
              complex(e["re"], e["im"]) for e in data["entries"]}
    for e in closed["entries"]:
        key = (tuple(e["K"]), tuple(e["I"]), tuple(e["J"]))
        assert abs(by_key[key] - complex(e["re"], e["im"])) < 1e-10


@pytest.mark.parametrize("method", sorted(cli_module._GAMMA_METHODS))
def test_gamma_cutoff_is_relative_to_the_table(tmp_path, capsys, method):
    # Gamma scales as Y^{-1}: at Y = 1e20 I every entry is about 1e-20, and
    # each must still be listed, with the pattern and values of Y = I scaled
    g = 2
    tables = {}
    for y in (1.0, 1e20):
        path = tmp_path / f"point-{y}.json"
        path.write_text(SiegelPoint(g, np.zeros((g, g)),
                                    y * np.eye(g)).to_json())
        code, out, err = run_cli(capsys, "gamma", "--point", str(path),
                                 "--method", method)
        assert code == 0 and err == ""
        tables[y] = {(tuple(e["K"]), tuple(e["I"]), tuple(e["J"])):
                     complex(e["re"], e["im"])
                     for e in json.loads(out)["entries"]}
    assert len(tables[1.0]) == 8
    assert tables[1e20].keys() == tables[1.0].keys()
    for key, value in tables[1.0].items():
        assert abs(tables[1e20][key] * 1e20 - value) < 1e-12 * abs(value)


def test_gamma_rejects_bad_method(capsys):
    code, _, err = run_cli(capsys, "gamma", "--g", "1", "--method", "x")
    assert code == 2


def test_verify_quick_suite_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "qseries",
                           "--seed", "7", "--report", str(report))
    assert code == 0
    assert "failed=0" in out
    data = json.loads(report.read_text())
    assert data["summary"]["failed"] == 0
    assert data["seed"] == 7
    assert all("ms" not in record for record in data["records"])
    for record in data["records"]:
        if record["residual"] is not None:
            assert record["pass"] == (record["residual"]
                                      < record["tolerance"])
        else:
            assert record["pass"] == record["exact"]


def test_verify_report_is_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "verify", "--suite", "qseries",
                             "--seed", "3", "--report", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_tightened_tolerance_fails(tmp_path, capsys):
    report = tmp_path / "tight.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "metric",
                             "--g", "2", "--tol", "1e-30",
                             "--report", str(report), "--quiet")
    assert code == 1
    data = json.loads(report.read_text())
    assert data["summary"]["failed"] > 0
    failing = [r for r in data["records"] if not r["pass"]]
    assert all(r["residual"] is not None for r in failing)
    # exact records are immune to the override
    exact = [r for r in data["records"] if r["exact"] is not None]
    assert all(r["pass"] for r in exact)


def test_verify_usage_errors(capsys):
    assert run_cli(capsys, "verify", "--suite", "nope")[0] == 2
    assert run_cli(capsys, "verify", "--g", "0..2")[0] == 2
    assert run_cli(capsys, "verify", "--g", "2..9")[0] == 2
    assert run_cli(capsys, "verify", "--g", "x")[0] == 2


@pytest.mark.parametrize("g, shown", [("4..5", "4..5"), ("5", "5..5")])
def test_verify_request_without_checks_is_a_usage_error(tmp_path, capsys, g,
                                                        shown):
    # the operators suite covers g = 1..3
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "operators",
                             "--g", g, "--report", str(report))
    assert (code, out) == (2, "")
    assert err == f"error: suite operators draws no check at g={shown}\n"
    assert not report.exists()


def test_verify_all_above_the_operators_degrees_still_runs(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--g",
                             "4..5", "--report", str(report))
    assert (code, err) == (0, "")
    data = json.loads(report.read_text())
    assert out == (f"suite=all g=4..5 seed=0 total="
                   f"{data['summary']['total']} passed="
                   f"{data['summary']['total']} failed=0\n")
    assert ({record["suite"] for record in data["records"]}
            == {"metric", "connection", "qseries"})
    assert {record["params"].get("g") for record in data["records"]
            if record["suite"] == "metric"} == {4, 5}


@pytest.mark.parametrize("argv, message", [
    (("--tol", "inf"), "tol must be finite and positive, got inf"),
    (("--g", "2..9"), "bad degree range 2..9; use A..B with 1 <= A <= B <= 5"),
])
def test_verify_malformed_request_is_one_error_line(tmp_path, capsys, argv,
                                                    message):
    # the request is refused before any case runs, so no report is written
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", *argv,
                             "--report", str(report))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("weights", ["1,1", "2,1,2"])
def test_verify_repeated_weight_is_a_usage_error(tmp_path, capsys, weights):
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "operators",
                             "--g", "1", "--k", weights,
                             "--report", str(report))
    assert (code, out) == (2, "")
    assert err == f"error: repeated weight in {weights!r}\n"
    assert not report.exists()


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
@pytest.mark.parametrize("argv", [
    ["gamma", "--g", "2", "--out"],
    ["metric", "--g", "2", "--out"],
    ["verify", "--suite", "qseries", "--g", "1", "--report"],
])
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv,
                                                 target):
    path = (tmp_path if target == "directory"
            else tmp_path / "missing" / "out.json")
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert err == f"error: cannot write {path}: " + (
        "Is a directory" if target == "directory"
        else "No such file or directory") + "\n"


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_unwritable_report_is_refused_before_any_case(tmp_path, monkeypatch,
                                                      capsys, target):
    path = (tmp_path if target == "directory"
            else tmp_path / "missing" / "r.json")

    def run_suite(*args, **kwargs):
        pytest.fail("a case was drawn for an unwritable report")
    monkeypatch.setattr(cli_module, "run_suite", run_suite)
    code, out, err = run_cli(capsys, "verify", "--suite", "qseries",
                             "--report", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {path}: " + (
        "Is a directory" if target == "directory"
        else "No such file or directory") + "\n"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("failure, code", [
    (DegeneracyError("singular"), 3),
    (verify_module.UsageError("refused"), 2),
])
def test_aborted_run_leaves_the_report_path_as_it_was(
        tmp_path, monkeypatch, capsys, existing, failure, code):
    report = tmp_path / "report.json"
    if existing:
        report.write_text("kept\n")

    def run_suite(*args, **kwargs):
        raise failure
    monkeypatch.setattr(cli_module, "run_suite", run_suite)
    got, out, _ = run_cli(capsys, "verify", "--report", str(report))
    assert (got, out) == (code, "")
    if existing:
        assert report.read_text() == "kept\n"
    else:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("part, bad", [("X", "NaN"), ("Y", "NaN"),
                                       ("X", "Infinity"), ("Y", "-Infinity")])
def test_metric_rejects_non_finite_point_file(tmp_path, capsys, part, bad):
    blocks = {"X": "[[0.0]]", "Y": "[[1.0]]"}
    blocks[part] = f"[[{bad}]]"
    path = tmp_path / "point.json"
    path.write_text(f'{{"g": 1, "X": {blocks["X"]}, "Y": {blocks["Y"]}}}')
    code, _, err = run_cli(capsys, "metric", "--point", str(path))
    assert code == 2
    assert "non-finite" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--seed", "-1"),
    ("verify", "--suite", "qseries", "--seed", "-1"),
    ("verify", "--suite", "qseries", "--tol", "nan"),
    ("verify", "--suite", "qseries", "--tol", "inf"),
    ("verify", "--suite", "qseries", "--tol", "0"),
    ("verify", "--suite", "qseries", "--tol=-1e-9"),
    ("gamma", "--g", "0"),
    ("gamma", "--g", "-2"),
    ("metric", "--g", "0"),
    ("metric", "--g", "-2"),
    ("anomaly", "--z", "0.1+1i", "--terms", "0"),
    ("anomaly", "--z", "0.1+1i", "--tol", "nan"),
    ("anomaly", "--z", "0.1+1i", "--tol", "0"),
    ("anomaly", "--z", "nan+1i"),
    ("anomaly", "--z", "inf+1i"),
    ("anomaly", "--z", "0+nani"),
    ("anomaly", "--z", "nan+nani", "--gamma", "T"),
    # refused by anomaly_residual before it divides by c z + d
    ("anomaly", "--z", "0+0i"),
    ("anomaly", "--z", "0.5-0.5i"),
])
def test_bad_numeric_arguments_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("z", ["inf+1i", "inf+infi", "nan+1i", "0+nani"])
def test_non_finite_z_is_reported_as_not_finite(capsys, z):
    # only a final i is the imaginary unit, so the i of "inf" is kept
    code, out, err = run_cli(capsys, "anomaly", "--z", z)
    assert code == 2
    assert out == ""
    assert err == (f"error: evaluation point must be finite, got "
                   f"{complex(z[:-1] + 'j')}\n")


@pytest.mark.parametrize("z, gamma", [
    ("1e200+1i", "S"),      # Im(-1/z) rounds to 0
    ("1e308+1e308i", "S"),  # -1/z rounds to 0
    ("0+5e-324i", "S"),     # -1/z overflows
    ("0+5e-324i", "W"),     # Im((z + 1)/(z + 2)) rounds to 0
    ("0+1e-300i", "S"),     # (cz+d)^2 rounds to 0
    ("0+1e300i", "ST"),     # (cz+d)^2 overflows
    ("1e300+1i", "T"),      # z + 1 rounds to z: the phase of q is noise
])
def test_anomaly_image_outside_the_upper_half_plane_exits_3(capsys, z,
                                                            gamma):
    code, out, err = run_cli(capsys, "anomaly", "--z", z, "--gamma", gamma)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: numerical degeneracy: ")


def test_verify_degenerate_action_image_exits_3(monkeypatch, capsys):
    # the first metric.pairing_invariance case meets an image of the
    # action that is not a Siegel point
    def degenerate(gamma, point):
        raise DegeneracyError("image of the action is not a Siegel point")
    monkeypatch.setattr(verify_module, "act", degenerate)
    code, out, err = run_cli(capsys, "verify", "--suite", "metric",
                             "--g", "1..1", "--seed", "0")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "numerical degeneracy" in err


def test_degeneracy_exit_code(monkeypatch, capsys):
    def boom(point):
        raise DegeneracyError("forced")
    monkeypatch.setattr(cli_module, "metric_pair", boom)
    code, _, err = run_cli(capsys, "metric", "--g", "1")
    assert code == 3
    assert "degeneracy" in err


@pytest.mark.parametrize("argv, exponent", [
    # nabla case 16 at g = 3, k = 21 draws |det(CZ+D)| = 683, whose power
    # 2gk + 2 = 128 is beyond the float range
    (("--suite", "operators", "--g", "3", "--k", "21"), 128),
    (("--suite", "all", "--g", "1..5", "--k", "24"), 146),
])
def test_weight_factor_overflow_is_a_degeneracy(capsys, tmp_path, argv,
                                                exponent):
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", *argv, "--quiet",
                             "--report", str(report))
    assert code == 3
    assert out == ""
    assert err == (f"error: numerical degeneracy: weight factor "
                   f"det(CZ+D)^{exponent} overflows the float range\n")
    assert not report.exists()


def test_det_nabla_beyond_the_float_range_is_a_degeneracy(capsys, tmp_path):
    # det_weight_factor case 6 at g = 3, k = 18: det(CZ+D)^110 is about
    # 1e307, but det nabla_18 F(gamma Z) is beyond the float range
    report = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "verify", "--suite", "operators",
                                 "--g", "3", "--seed", "0", "--k", "18",
                                 "--quiet", "--report", str(report))
    assert code == 3
    assert out == ""
    assert err == ("error: numerical degeneracy: det nabla_18 leaves the "
                   "float range\n")
    assert not report.exists()
    assert caught == []


def test_writer_texts_are_built_once_per_degree_and_read_only():
    assert cli_module._entry_layout() is cli_module._entry_layout()
    for g in (1, 4):
        pairs = cli_module._pair_texts(g, 3)
        assert isinstance(pairs, tuple) and len(pairs) == omega_size(g)
        assert pairs is cli_module._pair_texts(g, 3)
        columns = cli_module._field_texts(g)
        assert columns is cli_module._field_texts(g)
        for column in columns:
            assert column.shape == (omega_size(g),)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = ""


@pytest.mark.parametrize("command, target", [("gamma", "gamma_closed"),
                                             ("metric", "metric_pair")])
def test_table_too_large_to_allocate_is_a_usage_error(monkeypatch, tmp_path,
                                                      capsys, command,
                                                      target):
    def out_of_memory(point):
        raise MemoryError
    monkeypatch.setattr(cli_module, target, out_of_memory)
    out_file = tmp_path / "table.json"
    code, out, err = run_cli(capsys, command, "--g", "3",
                             "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert err == (f"error: not enough memory for: siegel {command} "
                   f"--g 3 --out {out_file}\n")
    assert not out_file.exists()


# ------------------------------------------------- table output oracles
#
# The table commands write their JSON text directly.  The reference below
# is how that text was first produced: a payload of Python lists and
# dicts, encoded by json.dumps(payload, indent=2, sort_keys=True).  The
# comparison is byte for byte.

_METHODS = {"closed": None, "metricA": "A", "metricB": "B",
            "metricB-expanded": "B-expanded"}


def _old_gamma_text(point, method, table=None):
    if table is None:
        table = (gamma_closed(point) if method == "closed" else
                 gamma_from_metric(point, _METHODS[method]))
    pairs = omega_list(point.g)
    magnitude = np.abs(table)
    largest = float(magnitude.max())
    cutoff = 1e-14 if np.isnan(largest) else 1e-14 * largest
    where = np.nonzero(magnitude > cutoff)
    entries = [{"K": list(pairs[k]), "I": list(pairs[a]),
                "J": list(pairs[b]), "re": value.real, "im": value.imag}
               for k, a, b, value in zip(*(w.tolist() for w in where),
                                         table[where].tolist())]
    return json.dumps({"g": point.g, "method": method,
                       "point": json.loads(point.to_json()),
                       "entries": entries}, indent=2, sort_keys=True)


def _old_metric_text(point, pair):
    return json.dumps({"g": point.g,
                       "omega": [list(p) for p in omega_list(point.g)],
                       "W": pair.W.tolist(), "M": pair.M.tolist()},
                      indent=2, sort_keys=True)


def _point_source(tmp_path, g, where):
    """The CLI arguments naming the point, and the point the CLI reads."""
    if where == "iI":
        return ["--g", str(g)], SiegelPoint(g, np.zeros((g, g)), np.eye(g))
    path = tmp_path / "point.json"
    path.write_text(random_point(g, 500 + g, spread=2.0).to_json())
    return ["--point", str(path)], SiegelPoint.from_json(path.read_text())


def _assert_same_text(got, expected):
    # one short excerpt, not pytest's diff of two texts of up to a megabyte
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                  min(len(got), len(expected)))
        pytest.fail(f"texts differ at character {at} (lengths {len(got)} "
                    f"and {len(expected)}): {got[at - 40:at + 40]!r} != "
                    f"{expected[at - 40:at + 40]!r}")


def _both_outputs(tmp_path, capsys, argv):
    """The text on stdout and in --out, each with its trailing newline."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    out_path = tmp_path / "out.json"
    code, quiet, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert (code, quiet, err) == (0, "", "")
    return out, out_path.read_text()


_GAMMA_CASES = [(method, g) for g in range(1, 9) for method in _METHODS
                if method != "metricB-expanded" or g <= 5]


@pytest.mark.parametrize("where", ["iI", "random"])
@pytest.mark.parametrize("method, g", _GAMMA_CASES)
def test_gamma_output_is_byte_identical_to_json_dumps(tmp_path, capsys,
                                                      method, g, where):
    source, point = _point_source(tmp_path, g, where)
    expected = _old_gamma_text(point, method) + "\n"
    stdout, written = _both_outputs(tmp_path, capsys,
                                    ["gamma", *source, "--method", method])
    _assert_same_text(stdout, expected)
    _assert_same_text(written, expected)


@pytest.mark.parametrize("where", ["iI", "random"])
@pytest.mark.parametrize("g", range(1, 9))
def test_metric_output_is_byte_identical_to_json_dumps(tmp_path, capsys, g,
                                                       where):
    source, point = _point_source(tmp_path, g, where)
    expected = _old_metric_text(point, metric_pair(point)) + "\n"
    stdout, written = _both_outputs(tmp_path, capsys, ["metric", *source])
    _assert_same_text(stdout, expected)
    _assert_same_text(written, expected)


_EXTREMES = [np.inf, -np.inf, -0.0, 5e-324, np.nan, 1e308, -2.5]


def _extreme_table(g, values, seed):
    """A table of degree g holding the given complex values, scattered over
    a table of moderate entries."""
    m = omega_size(g)
    rng = np.random.default_rng(seed)
    table = rng.uniform(-1.0, 1.0, (m, m, m)) * 1j
    flat = table.reshape(-1)
    flat[rng.choice(flat.size, len(values), replace=False)] = values
    return table


@pytest.mark.parametrize("name, values", [
    # a NaN magnitude makes the largest magnitude NaN and the cutoff 1e-14,
    # so every infinite magnitude is listed, some with a NaN part
    ("non-finite", [complex(v, w) for v in _EXTREMES for w in _EXTREMES]),
    # without a NaN, an infinite magnitude raises the cutoff to inf
    ("infinite", [complex(np.inf, 1.0), complex(-2.0, -np.inf)]),
    # the signed zero and the smallest subnormal are listed beside large
    # parts
    ("signed-zero-subnormal",
     [complex(-0.0, 1.0), complex(1.0, -0.0), complex(5e-324, -2.0),
      complex(3.0, 5e-324), complex(np.nan, 1.0), complex(1e-15, 0.0),
      complex(-0.0, -0.0)]),
    ("all-zero", None),
])
def test_gamma_output_of_extreme_tables(monkeypatch, tmp_path, capsys, name,
                                        values):
    g = 3
    if values is None:
        table = np.zeros((6, 6, 6), dtype=complex)
    else:
        table = _extreme_table(g, values, seed=len(values))
    monkeypatch.setattr(cli_module, "gamma_closed", lambda point: table)
    point = SiegelPoint(g, np.zeros((g, g)), np.eye(g))
    expected = _old_gamma_text(point, "closed", table) + "\n"
    stdout, written = _both_outputs(tmp_path, capsys, ["gamma", "--g", "3"])
    _assert_same_text(stdout, expected)
    _assert_same_text(written, expected)
    listed = {
        "non-finite": ('"re": Infinity', '"re": -Infinity', '"im": NaN'),
        "signed-zero-subnormal": ('"re": -0.0', '"im": 5e-324'),
    }.get(name, ('"entries": [],',))
    for text in listed:
        assert text in stdout


def test_metric_output_spells_non_finite_values_as_json(monkeypatch,
                                                        tmp_path, capsys):
    g = 2
    point = SiegelPoint(g, np.zeros((g, g)), np.eye(g))
    real = metric_pair(point)
    W = np.array(real.W)
    M = np.array(real.M)
    W.reshape(-1)[:7] = _EXTREMES
    M.reshape(-1)[-7:] = _EXTREMES
    pair = SimpleNamespace(W=W, M=M)
    monkeypatch.setattr(cli_module, "metric_pair", lambda point: pair)
    expected = _old_metric_text(point, pair) + "\n"
    stdout, written = _both_outputs(tmp_path, capsys, ["metric", "--g", "2"])
    _assert_same_text(stdout, expected)
    _assert_same_text(written, expected)
    for text in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324"):
        assert text in stdout


def _complex_parts():
    rng = np.random.default_rng(7)
    values = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    values[::2, 1] = complex(-0.0, 0.0)
    values[1::2, 3] = complex(0.0, -0.0)
    return values


@pytest.mark.parametrize("values", [
    pytest.param(np.tile([0.5, -0.5, 1 / 3, 0.5], 50), id="repeats"),
    pytest.param(np.array([-0.0, 0.0, 0.0, -0.0, 1.0, -0.0]), id="signed-zero"),
    pytest.param(np.array([0x7FF8000000000000, 0xFFF8000000000000,
                           0x7FF0000000000001, 0xFFF4000000000123,
                           0x7FFFFFFFFFFFFFFF, 0x7FF8000000000000],
                          dtype=np.uint64).view(np.float64), id="nan-payloads"),
    pytest.param(np.array([np.inf, -np.inf, 5e-324, -5e-324,
                           1.7976931348623157e308, -1.7976931348623157e308,
                           np.inf, 5e-324]), id="range-ends"),
    pytest.param(np.arange(12.0).reshape(3, 4) % 5 - 2.0, id="matrix"),
    pytest.param(_complex_parts().real, id="real-view"),
    pytest.param(_complex_parts().imag, id="imag-view"),
    pytest.param(_complex_parts().real.T, id="transposed-view"),
    pytest.param(np.zeros(0), id="empty"),
])
def test_float_texts_spell_each_value_as_json(values):
    assert cli_module._float_texts(values) == [
        json.dumps(x) for x in values.ravel().tolist()]


@pytest.mark.parametrize("command", ["gamma", "metric"])
@pytest.mark.parametrize("text", [
    '"hello"',
    '[1, 2]',
    'null',
    '{"g": null, "X": [[0.0]], "Y": [[1.0]]}',
    '{"g": true, "X": [[0.0]], "Y": [[1.0]]}',
    '{"g": 1.7, "X": [[0.0]], "Y": [[1.0]]}',
    '{"g": 1.0, "X": [[0.0]], "Y": [[1.0]]}',
    '{"g": "1", "X": [[0.0]], "Y": [[1.0]]}',
    '{"g": 1, "X": {"a": 1}, "Y": [[1.0]]}',
    pytest.param('{"g": 1, "X": [[1%s]], "Y": [[1.0]]}' % ("0" * 400),
                 id="integer-beyond-float"),
    '{"g": 1, "X": [[0.0]]}',
    '{"g": 1, "X": [[0.0]], "Y": [[1.0]]',
    '{"g": 1, "X": [["0.5"]], "Y": [[1.0]]}',
    '{"g": 1, "X": [[0.5]], "Y": [[true]]}',
    '{"g": 1, "X": [[null]], "Y": [[1.0]]}',
    '{"g": 2, "X": [[0.0, 0.0], [0.0, false]], "Y": [[1, 0], [0, 1]]}',
    pytest.param('{"g": 2, "X": [[0.0, 0.0], [0.0]], "Y": [[1, 0], [0, 1]]}',
                 id="ragged-row"),
    pytest.param('{"g": 2, "X": [[0, 0], [0, 0]], "Y": [[1, 0], [0, 1e-13]]}',
                 id="cond-Y-above-limit"),
])
def test_malformed_point_files_are_usage_errors(tmp_path, capsys, command,
                                                text):
    path = tmp_path / "point.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, "--point", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot read")


@pytest.mark.parametrize("command", ["gamma", "metric"])
@pytest.mark.parametrize("missing", ["g", "X", "Y"])
def test_point_file_missing_a_key_names_it(tmp_path, capsys, command,
                                           missing):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({key: value for key, value in
                                (("g", 1), ("X", [[0.0]]), ("Y", [[1.0]]))
                                if key != missing}))
    code, out, err = run_cli(capsys, command, "--point", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read point file {path}: "
                   f"missing key '{missing}'\n")


@pytest.mark.parametrize("command", ["gamma", "metric"])
def test_point_file_holds_one_point(tmp_path, capsys, command):
    # a stack of two 2 x 2 points passes point validation, but a point
    # file names one point
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"g": 2, "X": [np.zeros((2, 2)).tolist()] * 2,
                                "Y": [np.eye(2).tolist()] * 2}))
    code, out, err = run_cli(capsys, command, "--point", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read point file {path}: expected one "
                   f"point, got a stack of shape (2,)\n")


def test_point_near_the_largest_float_is_printed_finite(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text('{"g": 1, "X": [[1e308]], "Y": [[1.0]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "gamma", "--point", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["point"]["X"] == [[1e308]]
    assert "Infinity" not in out


@pytest.mark.parametrize("command", ["metric", "gamma"])
@pytest.mark.parametrize("y", ["1e308", "1e-320"])
def test_point_whose_metric_leaves_the_float_range_exits_3(tmp_path, capsys,
                                                           command, y):
    # Y (x) Y overflows at 1e308, Y^-1 at the subnormal 1e-320
    path = tmp_path / "point.json"
    path.write_text('{"g": 1, "X": [[0.0]], "Y": [[%s]]}' % y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, command, "--point", str(path))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "numerical degeneracy" in err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli_module, "build_parser", counting)
    cli_module._parser.cache_clear()
    try:
        for argv in (["qexp", "--form", "E4", "--terms", "3"],
                     ["metric", "--g", "1"], ["gamma", "--g", "2"],
                     ["gamma", "--method", "nope"]):
            run_cli(capsys, *argv)
        assert len(built) == 1
        assert build_parser() is not build_parser()
    finally:
        cli_module._parser.cache_clear()


_SEQUENCE = (
    ("gamma", "--g", "2", "--method", "metricB", "--out", "F"),
    ("gamma", "--g", "2"),
    ("verify", "--suite", "qseries", "--timings", "--report", "R1"),
    ("verify", "--suite", "qseries", "--report", "R2"),
    ("gamma", "--method", "nope"),
    ("gamma", "--g"),
    ("--version",),
    ("metric", "--g", "2"),
)


def _run_sequence(capsys, fresh):
    """Exit code (or SystemExit code), stdout, stderr and the bytes of F,
    R1 and R2 after each call of _SEQUENCE, run in the current directory.
    With fresh, every call builds its own parser."""
    results = []
    for argv in _SEQUENCE:
        if fresh:
            cli_module._parser.cache_clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        files = {name: Path(name).read_bytes()
                 for name in ("F", "R1", "R2") if Path(name).exists()}
        results.append((code, out, err, files))
    return results


def test_reused_parser_carries_nothing_between_calls(tmp_path, monkeypatch,
                                                     capsys):
    runs = {}
    for fresh in (True, False):
        directory = tmp_path / ("fresh" if fresh else "shared")
        directory.mkdir()
        monkeypatch.chdir(directory)
        cli_module._parser.cache_clear()
        runs[fresh] = _run_sequence(capsys, fresh)
    cli_module._parser.cache_clear()

    shared = runs[False]
    for argv, got, want in zip(_SEQUENCE, shared, runs[True]):
        assert got[:3] == want[:3], argv
        assert got[3].keys() == want[3].keys(), argv
        # R1 holds wall times
        assert all(got[3][name] == want[3][name]
                   for name in got[3] if name != "R1"), argv

    first, second, timed, untimed, bad_method, bad_usage, version, metric = \
        shared
    assert first[0] == 0 and first[1] == ""
    assert json.loads(first[3]["F"])["method"] == "metricB"
    # the second gamma writes to stdout with the default method, F is kept
    assert second[0] == 0 and second[3]["F"] == first[3]["F"]
    assert json.loads(second[1])["method"] == "closed"
    assert all("ms" in r for r in json.loads(timed[3]["R1"])["records"])
    assert untimed[0] == 0
    assert all("ms" not in r for r in json.loads(untimed[3]["R2"])["records"])
    # --g 2 of the calls before does not carry over
    assert bad_method[:3] == (2, "", "error: either --point FILE or --g N "
                                     "is required\n")
    assert bad_usage[0] == ("SystemExit", 2)
    assert version[:2] == (("SystemExit", 0), "0.1.0\n")
    assert metric[0] == 0 and json.loads(metric[1])["g"] == 2
