"""The mutation catalogue: each mutant breaks one formula in memory, and
some check of the report must then fail.

A mutant is an in-memory patch, undone after its test: either a patched
attribute, or a function recompiled from its source with one expression
replaced and bound in every module that binds the original.  Each run is
one suite at seed 0 over g = 1..2.  Every mutant runs the connection suite,
where the form layer's checks (``equivariance``, ``det_power_invariance``,
``scalar_det_power`` and ``trace_form_derivative``) all run, and so do the
checks that read the closed-form coefficients (``modular_law``,
``path_agreement``, ``case_analysis`` and ``curvature_quadratic``).  The
gradient-matrix mutant also runs the operators suite, where
``gradient_pairing`` reads the symmetrized gradient.  A jet's gradient is
also compared with a central-difference gradient, which no suite check
does.
"""

import inspect
import sys
import textwrap
from collections import Counter

import numpy as np
import pytest

import siegel.connection as connection
import siegel.indexing as indexing
from siegel.functions import Jet, fd_gradient, random_test_function
from siegel.symplectic import random_point
from siegel.verify import run_suite

G_RANGE = (1, 2)


def _failing_checks(suite: str = "connection") -> Counter:
    report = run_suite(suite, G_RANGE, seed=0)
    return Counter(r.check for r in report.records if not r.passed)


def _jet_gradient_error(g: int) -> float:
    """The largest difference, relative to max(1, |FD gradient|), between
    Jet.at's gradient and fd_gradient for four random test functions."""
    rng = np.random.default_rng(70 + g)
    point = random_point(g, rng)
    worst = 0.0
    for _ in range(4):
        fn = random_test_function(g, rng, conj=True)
        approx = fd_gradient(fn.value, point)
        error = np.abs(Jet.at(fn, point).grad - approx).max()
        worst = max(worst, error / max(1.0, np.abs(approx).max()))
    return worst


def _replace_in_source(monkeypatch, module, name, old, new):
    """Recompile module.name from its source with the expression old
    replaced by new, and bind the mutant in every siegel module that binds
    the original (``from ... import`` copies the name); old must occur
    exactly once."""
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, f"{old!r} not found once in {name}"
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getfile(module), "exec"),
         vars(module).copy(), namespace)
    for module_name, bound in list(sys.modules.items()):
        if (module_name.split(".")[0] == "siegel"
                and vars(bound).get(name) is original):
            monkeypatch.setattr(bound, name, namespace[name])


def _product_without_first_gradient(monkeypatch):
    # the jet product drops the gradient of its first factor, which in
    # gamma_act_on_form is the pulled-back coefficient
    product = Jet.product

    def mutant(factors):
        first = factors[0]
        return product([Jet(first.value, np.zeros_like(first.grad))]
                       + list(factors[1:]))
    monkeypatch.setattr(Jet, "product", staticmethod(mutant))


def _pullback_without_cocycle(monkeypatch):
    _replace_in_source(monkeypatch, connection, "gamma_act_on_form",
                       "Jet(coef.value, S @ coef.grad)",
                       "Jet(coef.value, coef.grad)")


def _cocycle_entries_without_derivatives(monkeypatch):
    _replace_in_source(monkeypatch, connection, "gamma_act_on_form",
                       "Jet(complex(S[l, k]), dS[:, l, k])",
                       "Jet(complex(S[l, k]), 0 * dS[:, l, k])")


def _closed_form_undivided(monkeypatch):
    # every closed-form entry with divisor 1: the entries that the
    # off-diagonal K halve come out twice their size
    _replace_in_source(monkeypatch, connection, "_closed_pattern",
                       "2.0, 1.0", "1.0, 1.0")


def _gradient_matrix_unhalved(monkeypatch):
    # the off-diagonal entries of the symmetrized gradient are not halved,
    # so Tr(grad E_ij) counts d f / dZ_ij twice
    _replace_in_source(monkeypatch, indexing, "covector_to_sym",
                       "v / 2.0", "v")


def _jet_with_zero_gradient(monkeypatch):
    def mutant(cls, fn, point):
        grad = fn.gradient(point)
        return cls(fn.value(point), np.zeros_like(grad))
    monkeypatch.setattr(Jet, "at", classmethod(mutant))


# mutant -> its patch and, per suite, the checks that must fail under it.
# Two checks do not catch the zero-gradient jet: trace_form_derivative,
# whose two sides read the same jets, and equivariance, whose two sides both
# take their df terms from Jet.at, and those terms transform into each
# other on their own.  The comparison with fd_gradient at the end of this
# module catches it too.  The closed-form mutant fails every check that
# reads the closed form: path_agreement, case_analysis, the residuals that
# evaluate it (modular_law, equivariance, det_power_invariance) and the
# closed forms of D compared with apply_D on it, curvature_quadratic (0.0
# on the unmutated code) among them.  The unhalved gradient matrix fails
# gradient_pairing, also 0.0 on the unmutated code, the operator laws built
# on the gradient, and the closed forms of D that read a gradient as a
# matrix: scalar_det_power through nabla, trace_form_derivative through
# the jets' partials
MUTANTS = {
    "closed_form_undivided": (
        _closed_form_undivided,
        {"connection": {"modular_law", "equivariance",
                        "det_power_invariance", "path_agreement",
                        "curvature_quadratic", "case_analysis",
                        "trace_form_derivative", "determinant_derivative",
                        "scalar_det_power"}}),
    "product_without_pullback_gradient": (
        _product_without_first_gradient, {"connection": {"equivariance"}}),
    "pullback_gradient_without_S": (
        _pullback_without_cocycle, {"connection": {"equivariance"}}),
    "cocycle_entries_without_dS": (
        _cocycle_entries_without_derivatives,
        {"connection": {"equivariance"}}),
    "jet_with_zero_gradient": (
        _jet_with_zero_gradient,
        {"connection": {"scalar_det_power", "det_power_invariance"}}),
    "gradient_matrix_unhalved": (
        _gradient_matrix_unhalved,
        {"operators": {"gradient_pairing", "nabla_transform"},
         "connection": {"scalar_det_power", "trace_form_derivative"}}),
}


def test_the_unmutated_suite_passes():
    assert _failing_checks() == Counter()
    assert _failing_checks("operators") == Counter()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(monkeypatch, name):
    patch, caught_by = MUTANTS[name]
    patch(monkeypatch)
    for suite, checks in caught_by.items():
        failing = _failing_checks(suite)
        missed = {check for check in checks if not failing[check]}
        assert not missed, f"{name} passes {sorted(missed)} in {suite}"


@pytest.mark.parametrize("g", [1, 2, 3])
def test_jet_gradient_matches_fd_gradient(g):
    assert _jet_gradient_error(g) < 1e-7


@pytest.mark.parametrize("g", [1, 2, 3])
def test_zero_gradient_jet_fails_the_fd_comparison(monkeypatch, g):
    _jet_with_zero_gradient(monkeypatch)
    assert _jet_gradient_error(g) > 0.1
