from fractions import Fraction

import numpy as np
import pytest

from siegel.forms import FormPolynomial, det_dz, probe_vectors, trace_form
from siegel.connection import _transported_D
from siegel.functions import (Jet, TestFunction, fd_gradient,
                              random_test_function)
from siegel.indexing import (covector_to_sym, omega_list, position,
                             position_table, sym_to_covector)
from siegel.metric import metric_pair
from siegel.symplectic import (SiegelPoint, act, random_point,
                               random_symplectic)


def test_fraction_coefficients_stay_exact():
    # a coefficient is kept as the number it was given; sums, products and
    # partial derivatives use Python's own arithmetic, exact for Fraction
    z11, z12 = (TestFunction.coordinate(2, pair) for pair in ((1, 1), (1, 2)))
    f = z11 * Fraction(1, 3) * z11
    (coef,) = f.partial((1, 1)).terms.values()
    assert coef == Fraction(2, 3) and type(coef) is Fraction
    total = f + Fraction(1, 6) * z12 + Fraction(1, 2)
    assert sorted(total.terms.values()) == [Fraction(1, 6), Fraction(1, 3),
                                            Fraction(1, 2)]
    assert all(type(c) is Fraction for c in total.terms.values())
    # a sum that cancels exactly drops its term
    assert not (f - Fraction(1, 3) * z11 ** 2).terms


def test_coefficient_that_is_not_a_number_is_refused():
    with pytest.raises(TypeError, match="coefficient must be a number"):
        TestFunction(1, {((0,), (0,)): "a"})
    with pytest.raises(TypeError, match="coefficient must be a number"):
        TestFunction.constant(2, "a")


def test_form_commutativity():
    g = 2
    d11 = FormPolynomial.generator(g, (1, 1))
    d12 = FormPolynomial.generator(g, (1, 2))
    assert (d11 * d12).terms == (d12 * d11).terms
    v = probe_vectors(g)
    assert np.array_equal((d11 * d12).evaluate(v), (d12 * d11).evaluate(v))


def test_det_form_counts():
    # permutation expansion collapses transposed pairs in the commutative ring
    assert len(det_dz(1).terms) == 1
    assert len(det_dz(2).terms) == 2
    form3 = det_dz(3)
    assert all(len(m) == 3 for m in form3.terms)
    # 3x3 determinant: 6 permutation terms, the two 3-cycles merge
    assert len(form3.terms) == 5
    cycle_mono = tuple(sorted((1, 2, 4)))  # positions of (1,2), (1,3), (2,3)
    assert form3.terms[cycle_mono] == 2.0


def test_entry_positions_cover_both_orders():
    for g in (1, 2, 3, 4):
        table = position_table(g)
        assert table.shape == (g, g) and not table.flags.writeable
        for pos, (i, j) in enumerate(omega_list(g)):
            assert (table[i - 1, j - 1] == table[j - 1, i - 1] == pos
                    == position((i, j), g))


@pytest.mark.parametrize("pair", [(2, 1), (0, 1), (1, 3)])
def test_a_callers_pair_outside_omega_is_refused(pair):
    # (2, 1) is below the diagonal; (0, 1) and (1, 3) lie outside g = 2
    with pytest.raises(ValueError, match="upper-triangle"):
        FormPolynomial.generator(2, pair)
    with pytest.raises(ValueError, match="upper-triangle"):
        TestFunction.coordinate(2, pair)
    with pytest.raises(ValueError, match="upper-triangle"):
        TestFunction.coordinate(2, (1, 1)).partial(pair)


def test_keys_that_sort_to_one_monomial_add():
    form = FormPolynomial(2, {(1, 0): 1.0, (0, 1): 2.0})
    assert form.terms == {(0, 1): 3.0}
    cancelled = FormPolynomial(2, {(1, 0): 1.0, (0, 1): -1.0, (2,): 4.0})
    assert cancelled.terms == {(2,): 4.0}


@pytest.mark.parametrize("g", [1, 2, 3])
def test_covector_conversions_are_inverse(g):
    rng = np.random.default_rng(80 + g)
    v = rng.standard_normal(g * (g + 1) // 2) + 0j
    G = covector_to_sym(v, g)
    assert np.array_equal(G, G.T)
    assert np.array_equal(sym_to_covector(G), v)
    # Tr(G dZ) pairs the matrix with each basis direction as v does
    assert trace_form(G, g).terms == {(pos,): c for pos, c in enumerate(v)}


def test_trace_form_weights():
    g = 2
    G = np.array([[1.0, 2.0], [2.0, 5.0]])
    form = trace_form(G, g)
    pos = {pair: idx for idx, pair in enumerate(omega_list(g))}
    assert form.terms[(pos[(1, 1)],)] == 1.0
    assert form.terms[(pos[(1, 2)],)] == 4.0  # 2 G_12
    assert form.terms[(pos[(2, 2)],)] == 5.0
    # a matrix of another size is refused, not read in part
    for wrong in (np.eye(3), np.eye(1)):
        with pytest.raises(ValueError, match="2x2"):
            trace_form(wrong, g)


def test_substitute_basis_expands_linearly():
    # transport through S is evaluation at S^t v: 2 dZ^2 at 3 v
    g = 1
    form = FormPolynomial(g, {(0, 0): 2.0})
    S = np.array([[3.0 + 0j]])
    assert form.evaluate(np.array([1.0]) @ S) == 18.0
    v = np.array([[1.0], [-0.5j]])
    assert np.array_equal(form.evaluate(v @ S), [18.0, -4.5])
    # a stack of vectors gives one value each, and a generator reads its
    # own coordinate
    assert np.array_equal(
        FormPolynomial.generator(2, (1, 2)).evaluate(probe_vectors(2)),
        probe_vectors(2)[:, 1])


def test_test_function_exact_derivatives():
    g = 2
    z11 = TestFunction.coordinate(g, (1, 1))
    z12 = TestFunction.coordinate(g, (1, 2))
    f = z11 * z11 * z12 + 3 * z12
    df = f.partial((1, 1))
    point = random_point(g, seed=1)
    z = point.Z
    expect = 2 * z[0, 0] * z[0, 1]
    assert abs(df.value(point) - expect) < 1e-14
    assert f.partial((2, 2)).value(point) == 0
    assert not any(any(anti) for _, anti in f.terms)


def test_test_function_conjugate_variables():
    g = 1
    f = TestFunction.coordinate(g, (1, 1), conj=True)
    point = random_point(1, seed=2)
    assert abs(f.value(point) - np.conj(point.Z[0, 0])) < 1e-15
    assert any(any(anti) for _, anti in f.terms)
    # holomorphic partial ignores the conjugate variable
    assert not f.partial((1, 1)).terms


def test_gradient_matches_finite_differences():
    g = 2
    rng = np.random.default_rng(5)
    f = random_test_function(g, rng, conj=True)
    point = random_point(g, rng)
    exact = f.gradient(point)
    approx = fd_gradient(f.value, point)
    assert np.abs(exact - approx).max() < 1e-7


def _value_by_terms(f, point):
    """Term-by-term evaluation: (value, sum of the term magnitudes)."""
    coords = [point.Z[i - 1, j - 1] for i, j in omega_list(f.g)]
    total, size = 0j, 0.0
    for (holo, anti), coef in f.terms.items():
        term = complex(coef)
        for c, e, a in zip(coords, holo, anti):
            term *= c ** e * np.conj(c) ** a
        total += term
        size += abs(term)
    return total, size


@pytest.mark.parametrize("g", [1, 2, 3])
def test_value_and_gradient_on_stack_match_each_point(g):
    rng = np.random.default_rng(80 + g)
    f = random_test_function(g, rng, n_terms=6, conj=True)
    points = [random_point(g, rng) for _ in range(5)]
    stack = SiegelPoint(g, np.stack([p.X for p in points]),
                        np.stack([p.Y for p in points]))
    values = f.value(stack)
    grads = f.gradient(stack)
    assert values.shape == (5,) and grads.shape == (5, len(omega_list(g)))
    for value, grad, point in zip(values, grads, points):
        expect, size = _value_by_terms(f, point)
        assert abs(f.value(point) - expect) <= 1e-14 * max(1.0, size)
        assert abs(value - f.value(point)) <= 1e-14 * max(1.0, abs(value))
        for pos, pair in enumerate(omega_list(g)):
            expect, size = _value_by_terms(f.partial(pair), point)
            assert abs(grad[pos] - expect) <= 1e-14 * max(1.0, size)


def test_fd_gradient_evaluates_one_stack():
    g = 3
    rng = np.random.default_rng(11)
    f = random_test_function(g, rng)
    point = random_point(g, rng)
    for order in (2, 4):
        calls = []

        def counted(stack):
            calls.append(stack)
            return f.value(stack)
        fd_gradient(counted, point, order=order)
        assert len(calls) == 1
    with pytest.raises(ValueError, match="value_fn returned shape"):
        fd_gradient(lambda stack: 1.0, point)
    # several steps: still one stack and one call, one gradient per step
    calls = []

    def counted(stack):
        calls.append(stack)
        return f.value(stack)
    grads = fd_gradient(counted, point, (1e-4, 2e-4, 4e-4), order=4)
    assert len(calls) == 1 and len(grads) == 3
    assert all(grad.shape == (6,) for grad in grads)


@pytest.mark.parametrize("lambda_min, distinct", [
    # steps h/2, h and 2h: 12 offsets, of which 8 are distinct
    (1.0, 8),
    # 2h is clipped to 0.05 lambda_min = 1.5h: 10 distinct offsets
    (6e-4, 10),
])
def test_fd_gradient_evaluates_each_distinct_offset_once(lambda_min,
                                                         distinct):
    g, h = 3, 2e-5
    m = g * (g + 1) // 2
    rng = np.random.default_rng(12)
    f = random_test_function(g, rng)
    Q, _ = np.linalg.qr(rng.standard_normal((g, g)))
    Y = (Q * np.array([lambda_min, 1.5, 2.0])) @ Q.T
    X = rng.uniform(-1.0, 1.0, size=(g, g))
    point = SiegelPoint(g, (X + X.T) / 2, (Y + Y.T) / 2)
    clipped = 0.05 * float(point.spectrum.min()) < 2 * h
    assert clipped == (distinct == 10)
    stacks = []

    def counted(stack):
        stacks.append(stack)
        return f.value(stack)
    steps = (0.5 * h, h, 2 * h)
    grads = fd_gradient(counted, point, steps, order=4)
    assert len(stacks) == 1
    assert stacks[0].X.shape == (2, distinct, m, g, g)
    for step, grad in zip(steps, grads):
        alone = fd_gradient(f.value, point, step, order=4)
        assert grad.tobytes() == alone.tobytes()


@pytest.mark.parametrize("g", [1, 2, 3])
def test_fd_gradient_of_an_array_value_matches_each_entry(g):
    # M over every stacked point: the stack's axes, then (m, m); the
    # gradient axis comes first, so entry (a, b) is whole[:, a, b]
    point = random_point(g, seed=40 + g)
    m = g * (g + 1) // 2
    for order in (2, 4):
        whole = fd_gradient(lambda pt: metric_pair(pt).M, point, order=order)
        assert whole.shape == (m, m, m)
        for a in range(m):
            for b in range(m):
                alone = fd_gradient(
                    lambda pt: metric_pair(pt).M[..., a, b], point,
                    order=order)
                assert np.array_equal(whole[:, a, b], alone)


@pytest.mark.parametrize("value_fn", [
    lambda stack: metric_pair(stack).M[0],
    lambda stack: np.ones(stack.X.shape[1:-2]),
    lambda stack: np.ones(5),
])
def test_fd_gradient_rejects_a_value_of_the_wrong_leading_shape(value_fn):
    point = random_point(2, seed=6)
    with pytest.raises(ValueError, match="value_fn returned shape"):
        fd_gradient(value_fn, point)


@pytest.mark.parametrize("order", [0, 1, 3, 5])
def test_fd_gradient_rejects_unknown_orders(order):
    point = random_point(2, seed=4)
    f = random_test_function(2, 4)
    with pytest.raises(ValueError, match="order must be 2 or 4"):
        fd_gradient(f.value, point, order=order)


@pytest.mark.parametrize("h", [0.0, -1e-6, float("nan"), float("inf"),
                               (1e-6, 0.0), (float("nan"), 1e-6), (), True,
                               np.True_, (1e-6, True)])
def test_fd_gradient_rejects_steps_that_are_not_finite_and_positive(h):
    point = random_point(2, seed=5)
    f = random_test_function(2, 5)
    calls = []

    def counted(stack):
        calls.append(stack)
        return f.value(stack)
    with pytest.raises(ValueError, match="finite and positive"):
        fd_gradient(counted, point, h)
    assert calls == []


def test_pullback_chain_rule():
    g = 2
    rng = np.random.default_rng(8)
    gamma = random_symplectic(g, 4, rng)
    f = random_test_function(g, rng)
    point = random_point(g, rng)
    # D(gamma . f)(v) of a function f is the differential of f(gamma Z)
    # at v, against a central-difference gradient of f(gamma Z)
    jet = Jet.at(f, act(gamma, point))
    pulled = _transported_D(gamma, point, FormPolynomial(g, {(): jet}))[0]
    approx = fd_gradient(lambda p: f.value(act(gamma, p)), point)
    expected = probe_vectors(g) @ approx
    assert np.abs(pulled - expected).max() < \
        1e-6 * max(1, np.abs(expected).max())


def test_product_function_rule():
    # the sum and scaling rules of jets, against exact polynomials; a jet
    # is multiplied by numbers only
    g = 2
    rng = np.random.default_rng(9)
    f, h = (random_test_function(g, rng) for _ in range(2))
    point = random_point(g, rng)
    jf, jh = (Jet.at(fn, point) for fn in (f, h))
    with pytest.raises(TypeError):
        jf * jh
    for jet, fn in ((jf + jh, f + h),
                    (jf * (0.5 - 1j), f * (0.5 - 1j)),
                    (np.complex128(2j) * jf, f * 2j)):
        exact = Jet.at(fn, point)
        assert abs(jet.value - exact.value) < 1e-12 * max(1, abs(exact.value))
        assert np.abs(jet.grad - exact.grad).max() < \
            1e-12 * max(1, np.abs(exact.grad).max())
    # a jet is never zero, so a form keeps it
    assert not jf == 0
    assert FormPolynomial(g, {(0,): jf}).terms[(0,)] is jf


def test_degree_mixing_with_functions():
    g = 1
    f = TestFunction.coordinate(g, (1, 1))
    form = FormPolynomial(g, {(0,): f})
    scaled = form.map_coefficients(lambda c: c * 2.0)
    point = random_point(g, seed=3)
    assert abs(scaled.terms[(0,)].value(point)
               - 2 * point.Z[0, 0]) < 1e-14
