"""Benchmark entry point.

    python3 perfbench/run.py --workload verify_all --seed 42 --seconds 40 --trace 0

Run from the root of a checkout.  Each run starts fresh interpreters
(``worker.py``): a few that only set up, for the set-up time, and one that
sets up and then measures.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics of a traced
run with ``--trace 1``.  A line before the result carries the run's
details: the environment, the median and tail latency with the tail
percentile and its sample counts, the largest residual/tolerance and the
report digest.  Workload names, metric
names and units are read from ``BENCHMARK.json``; how the workloads and
metrics are defined is in ``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# workload names and metric units come from BENCHMARK.json alone
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# fresh interpreters that only set up, half before and half after the
# measuring one, so the set-up time (the median of SETUP_PROBES + 1 starts)
# samples the machine over the whole run
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    # one process, no worker threads: the library's own pool stays at its
    # default of one thread and BLAS runs single-threaded
    env.pop("SIEGEL_THREADS", None)
    # the same string hashing in every interpreter, so set and dict layouts
    # do not differ from run to run
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, extra: list[str], timeout: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--t0", repr(time.monotonic())] + extra
    proc = subprocess.run(command, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="siegel benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "siegel" / "__init__.py").is_file():
        print(f"perfbench: no siegel sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    def setup_only() -> dict:
        return start_worker(args, ["--setup-only"], PROBE_TIMEOUT_S)

    try:
        starts = [setup_only() for _ in range(SETUP_PROBES // 2)]
        run = start_worker(args, ["--seconds", str(args.seconds),
                                  "--trace", str(args.trace)],
                           RUN_TIMEOUT_S)
        starts += [setup_only()
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    setups = [start["setup_s"] for start in starts + [run]]
    values = dict(run["metrics"], setup_s=statistics.median(setups))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    try:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    except KeyError as exc:
        print(f"perfbench: the run did not report {exc}", file=sys.stderr)
        return 1
    detail = {key: run.get(key) for key in
              ("env", "ops_per_round", "rounds", "tail", "max_headroom",
               "report_sha256", "spans_file", "spans")}
    detail.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_samples_s=setups,
                  run_wall_s=time.monotonic() - started)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": run["correct"],
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
