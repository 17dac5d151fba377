import json

import pytest

import siegel.verify as verify_module
from siegel import __version__
from siegel.functions import fd_gradient
from siegel.verify import TOLERANCES, UsageError, run_suite


@pytest.mark.parametrize("seed, g", [(12, 5), (30, 5), (44, 5), (47, 4)])
def test_well_conditioned_images_are_not_degenerate(seed, g):
    # each seed draws a metric case whose image under the action has
    # cond(Y) far below COND_LIMIT and leading minors far below max|Y|^k
    run_suite("metric", (g, g), seed)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


@pytest.mark.parametrize("name", ["qseries", "metric"])
def test_negative_seed_rejected(name):
    with pytest.raises(ValueError, match="seed must be a non-negative"):
        run_suite(name, (1, 1), seed=-1)


@pytest.mark.parametrize("ks", [(1, 1), (2, 1, 2)])
def test_repeated_weight_rejected(ks):
    # each weight names its records by (check, params); a repeat would run
    # its cases twice under the same names
    with pytest.raises(ValueError, match="repeated weight"):
        run_suite("operators", (1, 1), seed=0, ks=ks)


def test_inverse_derivative_fd_makes_one_fd_gradient_call_per_case(
        monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fd_gradient(*args, **kwargs)
    monkeypatch.setattr(verify_module, "fd_gradient", counted)
    cases = [case for case in verify_module.metric_suite((1, 3), seed=0)
             if case[0] == "inverse_derivative_fd"]
    assert len(cases) == 9
    for check, params, kind, fn in cases:
        before = len(calls)
        assert fn() < TOLERANCES[kind]
        assert len(calls) == before + 1, params


@pytest.fixture
def collected(monkeypatch):
    """The suites whose collector is called; a suite that draws a case
    fails the test."""
    suites = []

    def collect(self):
        suites.append(self.suite)
        for check, *_ in self.cases:
            pytest.fail(f"{self.suite} drew a {check} case")
        return []
    monkeypatch.setattr(verify_module._Collector, "collect", collect)
    return suites


@pytest.mark.parametrize("name, g_range, kwargs, message", [
    ("metric", (1, 1), {"tol": float("inf")}, "tol must be finite"),
    ("metric", (1, 1), {"tol": float("nan")}, "tol must be finite"),
    ("metric", (1, 1), {"tol": 0.0}, "tol must be finite"),
    ("metric", (1, 1), {"tol": -1.0}, "tol must be finite"),
    ("all", (0, 1), {}, "bad degree range 0..1"),
    ("all", (5, 1), {}, "bad degree range 5..1"),
    ("all", (6, 7), {}, "bad degree range 6..7"),
    ("all", (2, 9), {}, "bad degree range 2..9"),
    ("all", (1, 2), {"ks": ()}, "bad weight list ''"),
    ("all", (1, 2), {"ks": (0,)}, "bad weight list '0'"),
    ("all", (1, 2), {"ks": (-1,)}, "bad weight list '-1'"),
])
def test_malformed_request_draws_no_case(collected, name, g_range, kwargs,
                                         message):
    with pytest.raises(UsageError, match=message):
        run_suite(name, g_range, 0, **kwargs)
    assert collected == []


def test_request_without_checks_is_a_usage_error(collected):
    # the operators suite covers g = 1..3
    with pytest.raises(UsageError,
                       match=r"^suite operators draws no check at g=4\.\.5$"):
        run_suite("operators", (4, 5), 0)
    assert collected == ["operators"]


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


# records per (suite, check) of the full job, run_suite("all", (1, 5)), in
# the order each check first appears; every seed draws these counts, the
# default job siegel verify --suite all --g 1..5 --seed 0 among them
_DEFAULT_JOB = {
    ("metric", "inverse_pair"): 500,
    ("metric", "gram_positive_definite"): 50,
    ("metric", "trace_form_recombination"): 50,
    ("metric", "pairing_invariance"): 50,
    ("metric", "inverse_derivative_fd"): 9,
    ("connection", "path_agreement"): 80,
    ("connection", "case_analysis"): 12,
    ("connection", "symmetry_sparsity"): 12,
    ("connection", "closed_form_degree_one"): 5,
    ("connection", "modular_law"): 150,
    ("connection", "cocycle_identity"): 30,
    ("connection", "action_composition"): 30,
    ("connection", "pushforward_cocycle"): 30,
    ("connection", "cocycle_derivative_fd"): 30,
    ("connection", "curvature_quadratic"): 12,
    ("connection", "determinant_derivative"): 12,
    ("connection", "scalar_det_power"): 21,
    ("connection", "trace_form_derivative"): 12,
    ("connection", "leibniz_rule"): 12,
    ("connection", "kron_trace_identity"): 100,
    ("connection", "equivariance"): 40,
    ("connection", "det_power_invariance"): 40,
    ("operators", "gradient_pairing"): 30,
    ("operators", "nabla_transform"): 180,
    ("operators", "nabla_transform_fd"): 180,
    ("operators", "det_weight_factor"): 180,
    ("operators", "extension_gradient_fd"): 30,
    ("operators", "G_law_im_inverse"): 60,
    ("operators", "default_field_consistency"): 15,
    ("operators", "bracket_equal_weight"): 30,
    ("operators", "bracket_antisymmetry"): 30,
    ("operators", "bracket_defect_prediction"): 30,
    ("operators", "bracket_weight_corrected"): 30,
    ("operators", "ig2_transformation_law"): 5,
    ("operators", "ig2_serre_match"): 5,
    ("operators", "ig2_holomorphy"): 5,
    ("qseries", "eisenstein_heads"): 1,
    ("qseries", "weight_raising_e4"): 1,
    ("qseries", "weight_raising_e6"): 1,
    ("qseries", "weight_raising_delta"): 1,
    ("qseries", "discriminant_relation"): 1,
    ("qseries", "weight_raising_closure"): 9,
    ("qseries", "weight_two_membership"): 1,
    ("qseries", "basis_dimension"): 4,
    ("qseries", "g2_anomaly"): 50,
    ("qseries", "evaluate_modularity"): 12,
    ("qseries", "bracket_cusp_membership"): 1,
    ("qseries", "bracket_antisymmetry"): 1,
}


# records whose params are not the values their case rng is keyed on:
# closed_form_degree_one names the drawn y, and the ig2 checks below run
# at fixed z and draw no rng (nor does any qseries case)
_NAMED_OTHERWISE = {"closed_form_degree_one"}
_UNDRAWN = {"ig2_serre_match", "ig2_holomorphy"}


def test_params_name_the_draw(monkeypatch):
    # the suites are drawn without running any check
    keys = []
    case_rng = verify_module._case_rng

    def keyed(seed, *tags):
        keys.append(tags)
        return case_rng(seed, *tags)
    monkeypatch.setattr(verify_module, "_case_rng", keyed)
    suites = {"metric": verify_module.metric_suite((1, 5), 0),
              "connection": verify_module.connection_suite((1, 5), 0),
              "operators": verify_module.operators_suite((1, 5), 0),
              "qseries": verify_module.qseries_suite()}
    named = 0
    for suite, cases in suites.items():
        drawn = len(keys)
        for check, params, _, _ in cases:
            if suite == "qseries" or check in _UNDRAWN:
                assert len(keys) == drawn, (suite, check, params)
                continue
            drawn = len(keys)
            if check in _NAMED_OTHERWISE:
                continue
            # the latest group key, (tag, *values); leibniz_rule's second
            # rng is keyed on (*values, "leibniz")
            tag, *values = next(key for key in reversed(keys)
                                if isinstance(key[0], str))
            assert list(params.values())[:len(values)] == values, (
                suite, check, tag, params)
            named += 1
    assert named == sum(
        count for (suite, check), count in _DEFAULT_JOB.items()
        if suite != "qseries" and check not in _NAMED_OTHERWISE | _UNDRAWN)


def test_record_keys_are_distinct(full_job_report):
    # the benchmark pairs records by (suite, check, params), and a replay
    # finds one record by them
    keys = {(r.suite, r.check, json.dumps(r.params, sort_keys=True))
            for r in full_job_report.records}
    assert len(keys) == len(full_job_report.records) == 2180


def test_default_job_counts(full_job_report):
    report = full_job_report
    counts = {}
    for record in report.records:
        key = (record.suite, record.check)
        counts[key] = counts.get(key, 0) + 1
    assert len(report.records) == 2180 == sum(_DEFAULT_JOB.values())
    assert list(counts.items()) == list(_DEFAULT_JOB.items())
    assert report.summary == {"total": 2180, "passed": 2180, "failed": 0}
