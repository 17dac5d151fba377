"""One benchmark run in a fresh interpreter (started by ``run.py``).

Imports ``siegel`` from the checkout's ``src``, makes the workload's inputs
from the seed and reports its set-up time.  Unless ``--setup-only`` is
given it then runs a fixed number of rounds of the workload, about the
requested seconds' worth at the parent commit's speed, and prints one JSON
object with the measurements as its last line.

Other tenants of a shared machine slow everything on it, for stretches of
seconds to minutes, by up to 2x (CPU time slows with wall time, so this is
not waiting for a CPU).  Rounds therefore repeat identical operations, each
operation's latency is its fastest over the run's rounds, and an untraced
run also times every request on the frozen reference library
(``refsiegel``), so that its timing metrics compare the two in the same
moments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

# a run makes a fixed number of rounds, --seconds / the workload's round_s
# and at least MIN_ROUNDS, so every run and every commit takes its minima
# over the same number of samples however fast the machine or the code is
MIN_ROUNDS = 2
# a traced run makes this share of those rounds untraced, then as many
# traced, so the tracing overhead compares two phases of the same process
TRACED_SHARE = 1 / 3
# the tail is the highest of these percentiles with MIN_TAIL_SAMPLES
# operations beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_TAIL_SAMPLES = 10


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(samples: int) -> float:
    """Highest percentile of the ladder with MIN_TAIL_SAMPLES beyond it;
    the maximum when there are too few samples for any."""
    for percentile in TAIL_LADDER:
        if math.floor(samples * (100.0 - percentile) / 100.0 + 1e-9) \
                >= MIN_TAIL_SAMPLES:
            return percentile
    return 100.0


class Phase:
    """A fixed number of identical rounds, run back to back; with the
    reference's ``cli.main``, every request is also timed on it."""

    def __init__(self, workload, rounds: int, reference=None):
        self.round_latencies_s: list[list[float]] = []
        self.round_other_s: list[float] = []
        self.round_ref_latencies_s: list[list[float]] = []
        self.round_ref_other_s: list[float] = []
        self.latencies_s: list[float] = []
        self.attempted = self.failed = 0
        self.rounds = rounds
        self.busy_s = self.headroom = 0.0
        self.digests: list[str] = []
        for i in range(rounds):
            # alternate which of the program and the reference goes first,
            # so neither always runs on the other's warm caches
            rnd = workload.round(reference, ref_first=i % 2 == 0)
            for message in rnd.problems[:5]:
                print(f"perfbench: {message}", file=sys.stderr)
            if len(rnd.latencies_s) == workload.ops_per_round:
                self.round_latencies_s.append(rnd.latencies_s)
                self.round_other_s.append(rnd.other_s)
            if len(rnd.ref_latencies_s) == workload.ops_per_round:
                self.round_ref_latencies_s.append(rnd.ref_latencies_s)
                self.round_ref_other_s.append(rnd.ref_other_s)
            self.latencies_s.extend(rnd.latencies_s)
            self.attempted += rnd.attempted
            self.failed += rnd.failed
            self.busy_s += rnd.busy_s
            self.headroom = max(self.headroom, rnd.headroom)
            if rnd.digest is not None:
                self.digests.append(rnd.digest)

    @property
    def ops_per_s(self) -> float:
        """Operations per second of request time."""
        return self.attempted / self.busy_s

    def best_latencies_s(self) -> list[float]:
        """Each operation's fastest latency over the phase's rounds.

        Rounds repeat the same operations on the same inputs and the
        machine's other tenants only ever slow an operation down, so the
        minimum over rounds is the steadiest estimate of its own cost."""
        return [min(samples) for samples in zip(*self.round_latencies_s)]

    def best_ref_latencies_s(self) -> list[float]:
        return [min(samples) for samples in zip(*self.round_ref_latencies_s)]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    sha = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "SIEGEL_THREADS": os.environ.get("SIEGEL_THREADS",
                                         "unset (default 1)"),
        "blas_threads": {var: os.environ.get(var, "unset") for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def _summary(best: list[float], other_s: float) -> dict:
    percentile = tail_percentile(len(best))
    tail = nearest_rank(sorted(best), percentile)
    return {"ops_per_s": len(best) / (sum(best) + other_s),
            "op_p50_ms": statistics.median(best) * 1000.0,
            "op_tail_ms": tail * 1000.0,
            "tail_percentile": percentile,
            "tail_samples": len(best),
            "tail_samples_beyond": sum(1 for v in best if v > tail)}


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    """End-to-end metrics (setup_s is added by the launcher), and the
    details behind them.

    The shared machine's speed changes by up to 1.7x over seconds to
    minutes, more than any bound allows, and it slows the program and the
    reference (``refsiegel``) alike when they run moments apart.  So the
    timing metrics compare the program with the reference on the same
    requests in the same run: throughput as a ratio, and latency as the
    median of the per-operation ratios.  The absolute values, and the same
    median over the reference's tail operations, are details."""
    if phase.round_latencies_s:
        best = phase.best_latencies_s()
        program = _summary(best, min(phase.round_other_s))
    else:
        # no round finished whole (the program crashed): time what ran
        best = []
        program = _summary(phase.latencies_s or [phase.busy_s], 0.0)
    ref_best = phase.best_ref_latencies_s()
    reference = _summary(ref_best, min(phase.round_ref_other_s))
    ratios = [p / r for p, r in zip(best, ref_best)] or [
        program["op_p50_ms"] / reference["op_p50_ms"]]
    ref_tail_s = reference["op_tail_ms"] / 1000.0
    tail_ratios = [q for q, r in zip(ratios, ref_best)
                   if r >= ref_tail_s] or ratios
    metrics = {
        "ops_per_s_rel": program["ops_per_s"] / reference["ops_per_s"],
        "op_p50_rel": statistics.median(ratios),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # a detail, not a metric: on verify_all the tail operations run in two
    # seconds-long requests, so their ratio rests on two samples a side and
    # spread 0.26 over ten runs
    detail = {"program": program, "reference": reference,
              "op_tail_rel": statistics.median(tail_ratios),
              "tail_ops": len(tail_ratios),
              "full_rounds": len(phase.round_latencies_s)}
    return metrics, detail


def per_layer(tracer, traced: Phase, untraced: Phase) -> dict:
    """Per-round layer metrics from the traced phase."""
    from tracer import ENCLOSING_SPANS, FD_SPAN, SPANS
    rounds = traced.rounds
    metrics = {}
    aggregate = tracer.aggregate()
    for name, (_, can_raise) in SPANS.items():
        entry = aggregate[name]
        metrics[f"{name}.calls"] = entry["calls"] / rounds
        metrics[f"{name}.self_s"] = entry["self_s"] / rounds
        if can_raise:
            metrics[f"{name}.errors"] = entry["errors"] / rounds
    fd_calls = aggregate[FD_SPAN]["calls"]
    metrics[f"{FD_SPAN}.evals_per_call"] = (
        tracer.fd_evals / fd_calls if fd_calls else 0.0)
    for suite, seconds in tracer.check_s.items():
        metrics[f"verify.suite.{suite}.check_s"] = seconds / rounds
    metrics["check.max_headroom"] = traced.headroom
    metrics["trace.ops_per_s"] = traced.ops_per_s
    metrics["trace.overhead"] = untraced.ops_per_s / traced.ops_per_s
    # the share of request time the library layers account for, beyond the
    # CLI front end and the verify suite runner that enclose them
    enclosing = sum(aggregate[name]["self_s"] for name in ENCLOSING_SPANS)
    metrics["trace.layer_cover"] = (
        (tracer.root_cover_s() - enclosing) / traced.busy_s)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the launcher started "
                             "this interpreter")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import siegel
    if Path(siegel.__file__).resolve().parent != SRC / "siegel":
        print(f"perfbench: imported siegel from {siegel.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "env": environment(),
              "ops_per_round": workload.ops_per_round}
    rounds = max(MIN_ROUNDS, round(args.seconds / workload.round_s))
    if args.trace:
        from tracer import Tracer
        traced_rounds = max(1, round(rounds * TRACED_SHARE))
        untraced = Phase(workload, traced_rounds)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Phase(workload, traced_rounds)
        finally:
            tracer.uninstall()
        phases = (untraced, traced)
    else:
        from refsiegel import cli as reference_cli
        phases = (Phase(workload, rounds, reference_cli.main),)

    digests = [d for phase in phases for d in phase.digests]
    # every round of a run has the same inputs, so its report must be the
    # same bytes, traced or not
    stable = len(set(digests)) <= 1
    if not stable:
        print(f"perfbench: report digests differ: {digests}",
              file=sys.stderr)
    failed = sum(p.failed for p in phases) + (0 if stable else 1)
    result.update(attempted=sum(p.attempted for p in phases), failed=failed,
                  correct=failed == 0,
                  max_headroom=max(p.headroom for p in phases),
                  rounds=[p.rounds for p in phases],
                  report_sha256=digests[0] if digests else None)
    if args.trace:
        spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(spans_path)
        result["metrics"] = per_layer(tracer, traced, untraced)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tracer.span_name)
    else:
        result["metrics"], result["tail"] = end_to_end(phases[0])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
