"""The benchmark's workloads: their inputs (made from the seed, except for
verify_all's fixed job), one round of CLI requests, and an independent check
of every output.

Every request goes through ``siegel.cli.main`` in-process, one at a time (a
closed loop with one client).  Only the request itself is timed; checking
its output happens between requests and is not counted as busy time.

In a round with a reference, each request is also sent, on the same inputs,
to ``refsiegel``: a frozen copy of the library as it was when the benchmark
was defined.  Its output is not used; its latency, taken just before or just
after the program's (rounds alternate), shows how fast the shared machine
was at that moment (see ``worker.py``).

Each workload's ``round_s`` is the share of a run's seconds given to one
round, reference requests included.  It fixes how many rounds a run makes
(see ``worker.py``) and is never measured, so faster code does not get more
samples.  It is about the round's time at the parent commit on a busy 2-vCPU
VM, so that the driver's runs fit its time limit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from siegel import cli

Main = Callable[[list[str]], int]


@dataclass
class Round:
    """What one round of a workload did."""

    reference: Main | None = None   # refsiegel's cli.main, or no reference
    ref_first: bool = True          # send each request to the reference first
    latencies_s: list[float] = field(default_factory=list)
    ref_latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0     # operations whose output is wrong or missing
    busy_s: float = 0.0
    other_s: float = 0.0    # busy time outside the operations' latencies
    ref_other_s: float = 0.0
    headroom: float = 0.0
    digest: str | None = None
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)

    def see_headroom(self, residual: float, tolerance: float) -> None:
        self.headroom = max(self.headroom, residual / tolerance)


def _timed(main: Main, argv: list[str]) -> tuple[int | None, str, str, float]:
    """Run one request: (exit code or None on an exception, stdout, stderr,
    wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the benchmark counts it and keeps running
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def call_cli(argv: list[str], rnd: Round) -> tuple[int | None, str, str]:
    """Run one request, and the same request to the reference if the round
    has one; the program's wall time counts as busy time and as one latency
    sample.
    Returns (exit code or None on an exception, stdout, stderr)."""
    if rnd.reference is not None and rnd.ref_first:
        rnd.ref_latencies_s.append(_timed(rnd.reference, argv)[3])
    code, out, err, elapsed = _timed(cli.main, argv)
    if rnd.reference is not None and not rnd.ref_first:
        rnd.ref_latencies_s.append(_timed(rnd.reference, argv)[3])
    rnd.busy_s += elapsed
    rnd.latencies_s.append(elapsed)
    rnd.attempted += 1
    return code, out, err


def _seeded_rng(seed: int, stream: int) -> np.random.Generator:
    # SeedSequence takes non-negative entropy; a negative seed wraps
    return np.random.default_rng(
        np.random.SeedSequence([seed % 2**64, stream]))


# ------------------------------------------------------------ verify_all


class VerifyAll:
    """``siegel verify --suite all --g 1..5 --seed 0``, sent as one request
    per suite (the same checks in the same order); every check in the
    reports is one operation.

    The job is the CLI's default verify job, the same for every benchmark
    seed.  Verify draws its own cases from its ``--seed``, and at the parent
    commit a quarter to a third of its seeds fail a check or crash (see
    ``design.json``, ``known_failures``), so a seed-dependent job would fail
    operations on many benchmark seeds.  Seed 0 passes every check, so any
    failed check is a regression and makes the run incorrect.  One request
    per suite, rather than one for all four, puts each reference request
    within seconds of the program's."""

    name = "verify_all"
    ops_per_round = 2180
    round_s = 20.0
    suites = ("metric", "connection", "operators", "qseries")
    argv_job = ["--g", "1..5", "--seed", "0"]

    def __init__(self, seed: int, workdir: Path):
        self.report_path = workdir / f"{self.name}-report.json"
        self.ref_report_path = workdir / f"{self.name}-ref-report.json"

    def argv(self, suite: str, report: Path) -> list[str]:
        return (["verify", "--suite", suite] + self.argv_job
                + ["--report", str(report), "--timings", "--quiet"])

    def round(self, reference: Main | None = None,
              ref_first: bool = True) -> Round:
        rnd = Round(reference, ref_first)
        reports = []
        for suite in self.suites:
            if reference is not None and ref_first:
                self._reference_request(rnd, suite)
            reports.append(self._request(rnd, suite))
            if reference is not None and not ref_first:
                self._reference_request(rnd, suite)
        # case generation, the collectors and the report writing
        rnd.attempted = len(rnd.latencies_s)
        rnd.other_s = rnd.busy_s - sum(rnd.latencies_s)
        if rnd.attempted != self.ops_per_round:
            rnd.fail(f"{rnd.attempted} records, expected "
                     f"{self.ops_per_round}")
            rnd.attempted = max(rnd.attempted, self.ops_per_round)
        # the reports as the CLI writes them without --timings
        text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
        rnd.digest = hashlib.sha256(text.encode()).hexdigest()
        return rnd

    def _reference_request(self, rnd: Round, suite: str) -> None:
        self.ref_report_path.unlink(missing_ok=True)
        elapsed = _timed(rnd.reference,
                         self.argv(suite, self.ref_report_path))[3]
        ref_ms = [record["ms"] for record in json.loads(
            self.ref_report_path.read_text())["records"]]
        rnd.ref_latencies_s += [ms / 1000.0 for ms in ref_ms]
        rnd.ref_other_s += elapsed - sum(ref_ms) / 1000.0

    def _request(self, rnd: Round, suite: str) -> dict | None:
        self.report_path.unlink(missing_ok=True)
        code, _, err, elapsed = _timed(
            cli.main, self.argv(suite, self.report_path))
        rnd.busy_s += elapsed
        try:
            report = json.loads(self.report_path.read_text())
        except (OSError, ValueError) as exc:
            # none of the suite's checks produced a record
            rnd.fail(f"{suite}: no report (exit {code}): {exc} {err[-400:]}")
            return None
        passed = True
        for record in report["records"]:
            rnd.latencies_s.append(record.pop("ms") / 1000.0)
            if record["residual"] is not None:
                rnd.see_headroom(record["residual"], record["tolerance"])
            if not record["pass"]:
                passed = False
                rnd.fail(f"check failed: {record['suite']}.{record['check']} "
                         f"{json.dumps(record['params'], sort_keys=True)} "
                         f"residual={record['residual']}")
        if code != (0 if passed else 1):
            rnd.fail(f"{suite}: exit {code} disagrees with the report: "
                     f"{err[-400:]}")
        return report


# ---------------------------------------------------------- tables_highg


AGREEMENT_TOL = 1e-10   # connection agreement, as in the acceptance tests
INVERSE_TOL = 1e-9      # metric inverse


def _entry_map(payload: dict) -> dict:
    return {(tuple(e["K"]), tuple(e["I"]), tuple(e["J"])):
            complex(e["re"], e["im"]) for e in payload["entries"]}


class TablesHighG:
    """``siegel gamma`` with every method and ``siegel metric`` on seeded
    point files at g = 4, 5, 6 and 8."""

    name = "tables_highg"
    round_s = 6.0
    degrees = (4, 5, 6, 8)
    points_per_degree = 3
    other_methods = ("metricA", "metricB", "metricB-expanded")
    expanded_max_g = 5

    def __init__(self, seed: int, workdir: Path):
        self.points = []
        for g in self.degrees:
            rng = _seeded_rng(seed, g)
            for case in range(self.points_per_degree):
                X = rng.uniform(-1.0, 1.0, size=(g, g))
                A = rng.uniform(-1.0, 1.0, size=(g, g)) / np.sqrt(g)
                payload = {"g": g, "X": ((X + X.T) / 2.0).tolist(),
                           "Y": (A @ A.T + np.eye(g)).tolist()}
                path = workdir / f"{self.name}-g{g}-{case}.json"
                path.write_text(json.dumps(payload))
                self.points.append((g, str(path)))
        self.ops_per_round = sum(
            2 + len(self.methods(g)) for g, _ in self.points)

    def methods(self, g: int) -> tuple[str, ...]:
        if g <= self.expanded_max_g:
            return self.other_methods
        return self.other_methods[:2]

    def round(self, reference: Main | None = None,
              ref_first: bool = True) -> Round:
        rnd = Round(reference, ref_first)
        for g, path in self.points:
            closed = self._table(rnd, g, path, "closed")
            for method in self.methods(g):
                table = self._table(rnd, g, path, method)
                if closed is None or table is None:
                    continue
                diff = max(abs(closed.get(key, 0j) - table.get(key, 0j))
                           for key in closed.keys() | table.keys())
                rnd.see_headroom(diff, AGREEMENT_TOL)
                if not diff < AGREEMENT_TOL:
                    rnd.fail(f"gamma {method} vs closed at {path}: {diff:.3e}")
            code, out, err = call_cli(["metric", "--point", path], rnd)
            try:
                payload = json.loads(out)
                W = np.array(payload["W"], dtype=complex)
                M = np.array(payload["M"], dtype=complex)
                residual = float(np.abs(M @ W - np.eye(len(W))).max())
            except (ValueError, KeyError, TypeError) as exc:
                rnd.fail(f"metric at {path}: exit {code}, {exc} {err[-400:]}")
                continue
            rnd.see_headroom(residual, INVERSE_TOL)
            if code != 0 or payload["g"] != g or not residual < INVERSE_TOL:
                rnd.fail(f"metric at {path}: exit {code}, "
                         f"|MW - I| = {residual:.3e}")
        return rnd

    def _table(self, rnd: Round, g: int, path: str, method: str):
        code, out, err = call_cli(
            ["gamma", "--point", path, "--method", method], rnd)
        try:
            payload = json.loads(out)
            entries = _entry_map(payload)
        except (ValueError, KeyError, TypeError) as exc:
            rnd.fail(f"gamma {method} at {path}: exit {code}, {exc} "
                     f"{err[-400:]}")
            return None
        if code != 0 or payload["g"] != g or payload["method"] != method \
                or not entries:
            rnd.fail(f"gamma {method} at {path}: exit {code}, "
                     f"{len(entries)} entries")
            return None
        return entries


WORKLOADS = {w.name: w for w in (VerifyAll, TablesHighG)}
