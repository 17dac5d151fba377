"""The mutation catalogue: each mutant breaks one formula in memory, and
some check of the report must then fail.

A mutant is an in-memory patch, undone after its test: either a patched
attribute, or a function recompiled from its source with one expression
replaced and bound in every module that binds the original.  Each run is
one suite at seed 0 over g = 1..2, the suite or suites whose checks read
the mutated formula.  The connection suite holds the form layer's checks
(``equivariance``, ``det_power_invariance``, ``scalar_det_power`` and
``trace_form_derivative``) and the checks that read the closed-form
coefficients (``modular_law``, ``path_agreement``, ``case_analysis`` and
``curvature_quadratic``).  One mutant breaks the evaluator of D,
``apply_D``, and three break the left side of ``equivariance``,
D(gamma . alpha) evaluated at a probe vector.  The operators suite holds
the laws of the gradient, of G = i Y^-1 and of the brackets, and the
qseries suite the Serre derivative.  The metric suite's
``pairing_invariance`` reads the tangent pushforward.  A jet's gradient is
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
import siegel.metric as metric
import siegel.operators as operators
import siegel.qseries as qseries
import siegel.symplectic as symplectic
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
    # the left side of equivariance drops its pulled-back gradient term,
    # (grad f . w) w^mu
    _replace_in_source(monkeypatch, connection, "_transported_D",
                       "terms = [(w @ jet.grad) * w[:, list(mono)]"
                       ".prod(axis=-1)]", "terms = []")


def _pullback_without_cocycle(monkeypatch):
    # the pulled-back gradient is paired with v instead of w = S^t v
    _replace_in_source(monkeypatch, connection, "_transported_D",
                       "(w @ jet.grad)", "(v @ jet.grad)")


def _cocycle_entries_without_derivatives(monkeypatch):
    # D(theta)(v) = u loses dS(V)^t v and keeps only -S^t q
    _replace_in_source(monkeypatch, connection, "_transported_D",
                       'parts = (np.einsum("pl,plk->pk", v, dS), -(q @ S))',
                       "parts = (-(q @ S),)")


def _curvature_sign_flipped(monkeypatch):
    # the evaluator of D moves the monomials along +q, not along
    # q_K = -sum_{I,J} Gamma_IJ^K v_I v_J
    _replace_in_source(monkeypatch, connection, "apply_D",
                       "q = -np.einsum(", "q = np.einsum(")


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


def _dR_factor_doubled(monkeypatch):
    # dR/dZ = (i/2) R E R loses its half
    _replace_in_source(monkeypatch, metric, "dR_tensor", "0.5j", "1.0j")


def _pair_matrix_of_W_unhalved(monkeypatch):
    # path B's Wt_I keeps W[I, L] off the diagonal, where it counts the
    # pair L twice and must be halved
    _replace_in_source(monkeypatch, connection, "_gamma_path_b",
                       "np.where(ii == jj, 1.0, 0.5)",
                       "np.where(ii == jj, 1.0, 1.0)")


def _pair_matrix_of_M_unhalved(monkeypatch):
    # path A's Mt_K loses the half that folds in dW's powers of 2
    _replace_in_source(monkeypatch, connection, "_gamma_path_a",
                       "0.5 * coords_to_sym", "1.0 * coords_to_sym")


def _serre_weight_over_six(monkeypatch):
    # the Serre derivative subtracts (w/6) E2 f instead of (w/12) E2 f
    _replace_in_source(monkeypatch, qseries, "serre_derivative",
                       "Fraction(f.weight, 12)", "Fraction(f.weight, 6)")


def _G_law_without_factor_two(monkeypatch):
    # the G law's inhomogeneous term 2 C^t loses its 2
    _replace_in_source(monkeypatch, operators, "verify_G_law",
                       "2.0 * gamma.C.T", "gamma.C.T")


def _bracket_weights_swapped(monkeypatch):
    # s h grad f - r f grad h with the weights r and s exchanged
    _replace_in_source(monkeypatch, operators, "bracket_matrix",
                       "r, s = weights", "s, r = weights")


def _bracket_without_curvature(monkeypatch):
    # the bracket law loses its curvature term 2(r b - s a) f h C j^t
    _replace_in_source(monkeypatch, operators, "bracket1_transform_residual",
                       "2.0 * (r * b - s * a)", "0.0")


def _bracket_weight_exponent_off_by_one(monkeypatch):
    # the bracket law's weight factor det(CZ+D)^{2r+2s} gains a power
    _replace_in_source(monkeypatch, operators, "bracket1_transform_residual",
                       "2 * r + 2 * s", "2 * r + 2 * s + 1")


def _pushforward_by_untransposed_cocycle(monkeypatch):
    # the tangent pushforward solves against C Z + D where its transpose
    # Z C^t + D^t belongs
    _replace_in_source(monkeypatch, symplectic, "tangent_pushforward",
                       "point.derived(_cocycle, gamma)[0].T",
                       "point.derived(_cocycle, gamma)[0]")


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
# the jets' partials.  The flipped sign of q in apply_D fails every check
# that compares apply_D with something else: the four closed forms of D at
# the probe matrices, equivariance, whose left side builds D(theta) apart,
# and det_power_invariance; not leibniz_rule, since D with either sign of
# q is a derivation.  dR reaches the checks only through metric path A,
# which contracts it with the pair matrices Mt_K; path B contracts dY with
# the pair matrices Wt_I, and path_agreement alone reads either pair
# matrix.  Of the bracket checks only bracket_defect_prediction has
# r b != s a, so only it reads the bracket law's curvature term; the weight
# factor is read by all three.  The Serre derivative is read by the classical
# weight-raising checks and by the degree-one i G2 check of the operators
# suite.  The untransposed cocycle is caught at g = 2 only: at g = 1 the
# cocycle is its own transpose
MUTANTS = {
    "closed_form_undivided": (
        _closed_form_undivided,
        {"connection": {"modular_law", "equivariance",
                        "det_power_invariance", "path_agreement",
                        "curvature_quadratic", "case_analysis",
                        "trace_form_derivative", "determinant_derivative",
                        "scalar_det_power"}}),
    "curvature_sign_flipped": (
        _curvature_sign_flipped,
        {"connection": {"curvature_quadratic", "determinant_derivative",
                        "scalar_det_power", "trace_form_derivative",
                        "equivariance", "det_power_invariance"}}),
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
    "dR_factor_doubled": (
        _dR_factor_doubled, {"connection": {"path_agreement"}}),
    "pair_matrix_of_W_unhalved": (
        _pair_matrix_of_W_unhalved, {"connection": {"path_agreement"}}),
    "pair_matrix_of_M_unhalved": (
        _pair_matrix_of_M_unhalved, {"connection": {"path_agreement"}}),
    "serre_weight_over_six": (
        _serre_weight_over_six,
        {"qseries": {"weight_raising_e4", "weight_raising_e6",
                     "weight_raising_delta", "weight_raising_closure"},
         "operators": {"ig2_serre_match"}}),
    "G_law_without_factor_two": (
        _G_law_without_factor_two,
        {"operators": {"G_law_im_inverse", "ig2_transformation_law"}}),
    "bracket_weights_swapped": (
        _bracket_weights_swapped,
        {"operators": {"bracket_weight_corrected"}}),
    "bracket_without_curvature": (
        _bracket_without_curvature,
        {"operators": {"bracket_defect_prediction"}}),
    "bracket_weight_exponent_off_by_one": (
        _bracket_weight_exponent_off_by_one,
        {"operators": {"bracket_equal_weight", "bracket_defect_prediction",
                       "bracket_weight_corrected"}}),
    "pushforward_by_untransposed_cocycle": (
        _pushforward_by_untransposed_cocycle,
        {"metric": {"pairing_invariance"}}),
}


def test_the_unmutated_suite_passes():
    for suite in ("metric", "connection", "operators", "qseries"):
        assert _failing_checks(suite) == Counter()


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
