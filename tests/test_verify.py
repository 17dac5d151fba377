import json

import pytest

from siegel import __version__
from siegel.verify import TOLERANCES, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


@pytest.mark.parametrize("name", ["qseries", "metric"])
def test_negative_seed_rejected(name):
    with pytest.raises(ValueError, match="seed must be a non-negative"):
        run_suite(name, (1, 1), seed=-1)


def test_report_invariants():
    report = run_suite("qseries", (1, 1), seed=11)
    assert report.version == __version__
    assert report.seed == 11
    summary = report.summary
    assert summary["total"] == len(report.records)
    assert summary["passed"] + summary["failed"] == summary["total"]
    for record in report.records:
        if record.residual is not None:
            assert record.passed == (record.residual < record.tolerance)
        else:
            assert record.exact is not None
            assert record.passed == record.exact
    assert report.all_passed


def test_reports_are_deterministic_per_seed():
    a = run_suite("connection", (1, 2), seed=5)
    b = run_suite("connection", (1, 2), seed=5)
    assert json.dumps(a.to_dict(), sort_keys=True) \
        == json.dumps(b.to_dict(), sort_keys=True)
    c = run_suite("connection", (1, 2), seed=6)
    assert json.dumps(a.to_dict(), sort_keys=True) \
        != json.dumps(c.to_dict(), sort_keys=True)


def test_timings_excluded_unless_requested():
    report = run_suite("qseries", (1, 1), seed=0)
    plain = report.to_dict()
    timed = report.to_dict(include_timings=True)
    assert all("ms" not in r for r in plain["records"])
    assert all("ms" in r for r in timed["records"])


def test_tolerance_override_hits_residual_records_only():
    report = run_suite("metric", (2, 2), seed=1, tol=1e-30)
    failed = [r for r in report.records if not r.passed]
    assert failed
    assert all(r.residual is not None for r in failed)
    assert all(r.tolerance == 1e-30 for r in failed)
    exact = [r for r in report.records if r.exact is not None]
    assert exact and all(r.passed for r in exact)


def test_operators_weight_selection():
    full = run_suite("operators", (1, 1), seed=2)
    only_one = run_suite("operators", (1, 1), seed=2, ks=(1,))
    ks_full = {r.params.get("k") for r in full.records
               if r.check == "nabla_transform"}
    ks_one = {r.params.get("k") for r in only_one.records
              if r.check == "nabla_transform"}
    assert ks_full == {1, 2}
    assert ks_one == {1}


def test_default_tolerances_documented_keys():
    assert TOLERANCES["linear"] == 1e-9
    assert TOLERANCES["mcc"] == 1e-8
    assert TOLERANCES["transform"] == 1e-7
    assert TOLERANCES["series"] == 1e-6
