"""The benchmark's own tests.

    python3 perfbench/selftest.py      # or: python3 -m pytest perfbench/selftest.py

They check that tracing does not change the verify reports and that the
per-suite requests make the same checks as one ``--suite all`` request, that
a round with the reference times every request twice, that span self times
are consistent, that every metric name and unit obeys the grammar of
BENCHMARK.json and that a traced run reports exactly its per-layer
metrics, that other seeds give the same operation counts, and that
the benchmark refuses to run without the library's sources.  The verify
tests run the full suite several times (about two minutes).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCRATCH = ROOT / ".perfbench" / "selftest"


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _scratch(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_metric_grammar_and_names():
    bench = _benchmark()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    assert set(WORKLOADS) == set(run.WORKLOADS)
    design = json.loads((HERE / "design.json").read_text())
    assert set(design["workloads"]) == set(run.WORKLOADS)
    mapped = {name for row in design["interaction_map"]
              for name in row["layer"]}
    assert {name for name in mapped if name in SPANS} == set(SPANS)


def test_per_layer_names_match_traced_output():
    tracer = Tracer()
    fake = worker.Phase.__new__(worker.Phase)
    fake.rounds, fake.attempted, fake.busy_s, fake.headroom = 1, 1, 1.0, 0.0
    emitted = worker.per_layer(tracer, fake, fake)
    assert list(emitted) == list(run.PER_LAYER_UNITS)


def _traced_calls():
    """A few library calls that nest spans: cli.main -> gamma -> metric."""
    from siegel import cli, qseries, symplectic
    path = _scratch("tracer") / "point.json"
    point = symplectic.random_point(3, np.random.default_rng(1))
    path.write_text(point.to_json())
    for method in ("closed", "metricA", "metricB-expanded"):
        assert cli.main(["gamma", "--point", str(path), "--method", method,
                         "--out", str(path.with_suffix(".out"))]) == 0
    e4 = qseries.eisenstein(4, 60)
    qseries.serre_derivative(e4 * e4)
    try:
        symplectic.SiegelPoint(2, np.zeros((2, 2)), -np.eye(2))
    except ValueError:
        pass


def test_self_time_consistency_and_uninstall():
    from siegel import cli, symplectic, verify
    originals = (symplectic.act, verify.act, cli.main,
                 symplectic.SiegelPoint.__init__)
    tracer = Tracer()
    start = time.perf_counter()
    tracer.install()
    try:
        _traced_calls()
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - start
    assert (symplectic.act, verify.act, cli.main,
            symplectic.SiegelPoint.__init__) == originals
    aggregate = tracer.aggregate()
    for name, entry in aggregate.items():
        assert -1e-9 <= entry["self_s"] <= entry["incl_s"] + 1e-9, name
    total_self = sum(entry["self_s"] for entry in aggregate.values())
    assert abs(total_self - tracer.root_cover_s()) < 1e-6
    assert total_self <= wall
    assert aggregate["cli.main"]["calls"] == 3
    assert aggregate["connection.gamma_path_B-expanded"]["calls"] == 1
    assert aggregate["metric.metric_pair"]["calls"] >= 2
    assert aggregate["qseries.mul"]["calls"] >= 2
    assert aggregate["symplectic.point"]["errors"] == 1
    # a child span lies inside its parent
    for i, parent in enumerate(tracer.span_parent):
        if parent >= 0:
            assert tracer.span_start[parent] <= tracer.span_start[i]
            assert tracer.span_end[i] <= tracer.span_end[parent]


def test_traced_verify_report_is_byte_identical():
    from refsiegel import cli as reference_cli
    from siegel import cli
    scratch = _scratch("verify")
    workload = WORKLOADS["verify_all"](42, scratch)
    # the per-suite requests make the same checks as one request for all
    plain, reports = scratch / "plain.json", []
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--suite", "all"] + workload.argv_job
                        + ["--report", str(plain)]) == 0
        for suite in workload.suites:
            path = scratch / f"{suite}.json"
            assert cli.main(["verify", "--suite", suite] + workload.argv_job
                            + ["--report", str(path)]) == 0
            reports.append(json.loads(path.read_text()))
    assert [r for report in reports for r in report["records"]] == \
        json.loads(plain.read_text())["records"]
    untraced = workload.round(reference_cli.main)
    # the digest is that of the reports the CLI writes without --timings
    text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    assert untraced.digest == hashlib.sha256(text.encode()).hexdigest()
    assert len(untraced.ref_latencies_s) == workload.ops_per_round
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.round()
    finally:
        tracer.uninstall()
    assert untraced.digest == traced.digest
    assert untraced.attempted == traced.attempted == workload.ops_per_round
    assert untraced.failed == traced.failed == 0
    assert traced.ref_latencies_s == []
    assert tracer.aggregate()["verify.run_suite"]["calls"] == 4
    assert tracer.fd_evals > 0


def test_other_seeds_same_counts_and_all_pass():
    from refsiegel import cli as reference_cli
    # verify_all runs the same job for every seed (checked by the
    # byte-identical test above); tables_highg makes its points from it
    scratch = _scratch("verify_seeds")
    argvs = {tuple(WORKLOADS["verify_all"](seed, scratch).argv("all", scratch))
             for seed in (0, 42, 912207800)}
    assert len(argvs) == 1
    seeds = (0, 42, 20240601, 912207800, 2**63 - 1)
    for seed in seeds:
        workload = WORKLOADS["tables_highg"](seed, _scratch("tables"))
        rnd = workload.round(reference_cli.main if seed == 0 else None)
        assert rnd.failed == 0, (seed, rnd.problems)
        assert rnd.attempted == workload.ops_per_round == 54
        assert len(rnd.ref_latencies_s) == (54 if seed == 0 else 0)


def test_tail_percentile_has_ten_samples_beyond():
    for workload_cls in WORKLOADS.values():
        n = workload_cls(0, _scratch("tail")).ops_per_round
        values = [float(v) for v in range(n)]
        tail = worker.nearest_rank(values, worker.tail_percentile(n))
        assert sum(1 for v in values if v > tail) >= worker.MIN_TAIL_SAMPLES
    assert worker.tail_percentile(2180) == 99.0


def test_refuses_without_sources():
    bare = _scratch("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        start = time.perf_counter()
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc!r}")
            continue
        print(f"ok   {name} ({time.perf_counter() - start:.1f} s)")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
