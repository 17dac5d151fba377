"""Span tracer for the per-layer metrics.

The tracer wraps the public entry points of each ``siegel`` module from the
benchmark's side: it replaces the function (or class method) in every loaded
``siegel.*`` module namespace that holds it, so names bound through
``from ... import`` are traced too.  Nothing in the library changes on disk,
and ``uninstall`` puts the original objects back.

Spans are kept in memory with parent links (the runs are serial, so a call
stack is exact) and written out by ``write_spans`` after the timed region.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# span name -> (targets as "module:qualname", whether the call can raise)
SPANS = {
    "symplectic.point": (["symplectic:SiegelPoint.__init__"], True),
    "symplectic.act": (["symplectic:act"], True),
    "symplectic.pushforward_matrix": (["symplectic:pushforward_matrix"],
                                      True),
    "symplectic.cocycle": (["symplectic:cocycle"], True),
    "symplectic.sample": (["symplectic:random_point",
                           "symplectic:random_symplectic"], False),
    "functions.fd_gradient": (["functions:fd_gradient"], False),
    "functions.test_value": (["functions:TestFunction.value"], False),
    "functions.test_gradient": (["functions:TestFunction.gradient"], False),
    "operators.verify_nabla_transform": (
        ["operators:verify_nabla_transform"], True),
    "operators.extension": (["operators:ModularExtension.value",
                             "operators:ModularExtension.gradient",
                             "operators:ModularExtension.gradient_fd"],
                            False),
    "operators.nabla": (["operators:nabla"], False),
    "operators.verify_G_law": (["operators:verify_G_law"], False),
    "operators.bracket1_transform_residual": (
        ["operators:bracket1_transform_residual"], False),
    "metric.metric_pair": (["metric:metric_pair"], True),
    "metric.metric_form": (["metric:metric_form"], False),
    "connection.gamma_closed": (["connection:gamma_closed"], False),
    "connection.gamma_path_A": (["connection:_gamma_path_a"], False),
    "connection.gamma_path_B": (["connection:_gamma_path_b"], False),
    "connection.gamma_path_B-expanded": (
        ["connection:_gamma_path_b_expanded"], False),
    "connection.apply_D": (["connection:apply_D"], False),
    "connection.mcc_residual": (["connection:mcc_residual"], False),
    "connection.equivariance_residual": (
        ["connection:equivariance_residual"], False),
    "forms.mul": (["forms:FormPolynomial.__mul__"], False),
    "forms.det_dz": (["forms:det_dz"], False),
    "qseries.mul": (["qseries:QSeries.__mul__"], False),
    "qseries.series": (["qseries:eisenstein", "qseries:delta",
                        "qseries:g2_series"], True),
    "qseries.serre_derivative": (["qseries:serre_derivative"], True),
    "qseries.membership_in_Mw": (["qseries:membership_in_Mw"], True),
    "qseries.modular_basis": (["qseries:ModularBasis.__init__"], False),
    "qseries.evaluate": (["qseries:evaluate"], True),
    "verify.run_suite": (["verify:run_suite"], True),
    "cli.main": (["cli:main"], True),
}

# per-suite check time: inclusive time of each suite's collector, kept as a
# plain accumulator rather than a span so run_suite's self time still holds
# the collector, as the layer table defines it
SUITES = ("metric", "connection", "operators", "qseries")

FD_SPAN = "functions.fd_gradient"
ENCLOSING_SPANS = ("cli.main", "verify.run_suite")


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = sys.modules[f"siegel.{module_name}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans around the targets in ``SPANS`` while installed."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_error = array("b")
        self.fd_evals = 0
        self.check_s = {suite: 0.0 for suite in SUITES}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for name, (targets, _) in SPANS.items():
            for target in targets:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    self._patch_everywhere(original, wrapper)
        verify = sys.modules["siegel.verify"]
        self._patch(verify._Collector, "collect",
                    self._wrap_collect(verify._Collector.collect))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("siegel") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name: str, fn):
        name_id = self.name_ids[name]
        counts_evals = name == FD_SPAN
        clock = time.perf_counter
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        span_error = self.span_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_evals:
                args = (self._counted(args[0]),) + args[1:]
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            span_error.append(0)
            stack.append(index)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span_error[index] = 1
                raise
            finally:
                span_end[index] = clock()
                stack.pop()
        return traced

    def _counted(self, value_fn):
        def counted(*args, **kwargs):
            self.fd_evals += 1
            return value_fn(*args, **kwargs)
        return counted

    def _wrap_collect(self, collect):
        clock = time.perf_counter

        @functools.wraps(collect)
        def timed(collector):
            start = clock()
            try:
                return collect(collector)
            finally:
                self.check_s[collector.suite] += clock() - start
        return timed

    # ------------------------------------------------------------ results

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, errors, inclusive and self seconds."""
        n = len(self.span_name)
        child_s = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_s[parent] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "errors": 0, "incl_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            duration = self.span_end[i] - self.span_start[i]
            entry["calls"] += 1
            entry["errors"] += self.span_error[i]
            entry["incl_s"] += duration
            entry["self_s"] += duration - child_s[i]
        return out

    def root_cover_s(self) -> float:
        """Time covered by root spans; equals the sum of all self times."""
        return sum(self.span_end[i] - self.span_start[i]
                   for i in range(len(self.span_name))
                   if self.span_parent[i] < 0)

    def write_spans(self, path) -> None:
        """One span per line: index, parent, name, start_s, end_s, error."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("index\tparent\tname\tstart_s\tend_s\terror\n")
            for i in range(len(self.span_name)):
                handle.write(
                    f"{i}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - origin:.9f}\t"
                    f"{self.span_end[i] - origin:.9f}\t"
                    f"{self.span_error[i]}\n")
