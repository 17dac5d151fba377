import json

import numpy as np
import pytest

from siegel.cli import main
from siegel.symplectic import DegeneracyError, SiegelPoint


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
    ("anomaly", "--z", "0.1+1i", "--terms", "0"),
    ("anomaly", "--z", "0.1+1i", "--tol", "nan"),
    ("anomaly", "--z", "0.1+1i", "--tol", "0"),
])
def test_bad_numeric_arguments_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_verify_degenerate_action_image_exits_3(capsys):
    # seed 12 draws a metric.pairing_invariance case at g = 5 whose image
    # under the action fails the positive-definiteness test
    code, out, err = run_cli(capsys, "verify", "--suite", "metric",
                             "--g", "5..5", "--seed", "12")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "numerical degeneracy" in err


def test_degeneracy_exit_code(monkeypatch, capsys):
    import siegel.cli as cli_module

    def boom(point):
        raise DegeneracyError("forced")
    monkeypatch.setattr(cli_module, "metric_pair", boom)
    code, _, err = run_cli(capsys, "metric", "--g", "1")
    assert code == 3
    assert "degeneracy" in err
