"""The benchmark's tracer wraps library functions by name; every name it
wraps must exist, so a rename in the library fails here instead of in a
traced benchmark run.  The tracer module is loaded from its file and only
read: nothing is installed."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

MODULES = ("cli", "connection", "forms", "functions", "metric", "operators",
           "qseries", "symplectic", "verify")
for _name in MODULES:
    importlib.import_module(f"siegel.{_name}")


def _load_tracer():
    """The tracer module, executed from its file without writing bytecode
    next to it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


tracer = _load_tracer()
TARGETS = [target for targets, _ in tracer.SPANS.values()
           for target in targets]


@pytest.mark.parametrize("target", TARGETS)
def test_every_span_target_resolves(target):
    assert target.split(":")[0] in MODULES
    owner, attr = tracer._resolve(target)
    assert callable(getattr(owner, attr))


def test_the_collector_the_tracer_wraps_exists():
    verify = importlib.import_module("siegel.verify")
    assert callable(verify._Collector.collect)


def test_pinned_form_layer_names_are_live_code():
    # the connection suite calls apply_D, FormPolynomial.__mul__ and
    # det_dz: the tracer's form-layer spans count work the suite does
    run_suite = importlib.import_module("siegel.verify").run_suite
    spans = tracer.Tracer()
    spans.install()
    try:
        run_suite("connection", (1, 2), 0)
    finally:
        spans.uninstall()
    calls = {name: entry["calls"] for name, entry in spans.aggregate().items()}
    for name in ("connection.apply_D", "forms.mul", "forms.det_dz"):
        assert calls[name] >= 1, name
