"""The scalar loops and step-by-step forms that the connection tables, the
metric and its derivatives, the cocycle, the finite-difference stencils,
the gradient of a modular extension, the dZ algebra, the point-function
coefficients that jets replaced, the expansion of group words and the
symplectic test (as three block identities) were first written as, kept as
references.

The array forms perform the same floating-point operations in the same
order, so every comparison here is bit for bit (``tobytes`` equality, and
for forms the same monomials in the same dictionary order).  The one
exception is the contraction over L in metric paths A and B: BLAS sums it
in its own blocked order, so those tables are compared with the loop within
a few ulps of the magnitude of the summed terms.
"""

import numbers
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import siegel.symplectic as symplectic
from siegel.connection import (_f_det_form, apply_D, curvature_quadratics,
                               gamma_act_on_form, gamma_closed,
                               gamma_from_metric)
from siegel.forms import (FormPolynomial, add_term, det_dz,
                          substitute_basis, trace_form)
from siegel.functions import Jet, fd_gradient, random_test_function
from siegel.indexing import (basis_matrix, coords_to_sym, delta, omega_list,
                             omega_size, row_col_indices, sym_to_coords)
from siegel.metric import _power_table, dM_tensor, dW_tensor, metric_pair
from siegel.operators import ImInverseField, ModularExtension
from siegel.symplectic import (DegeneracyError, SiegelPoint,
                               SymplecticElement, act, cocycle,
                               pushforward_derivatives, pushforward_matrix,
                               pushforward_matrix_derivative, random_point,
                               random_symplectic, random_word)


def _draws(g, count):
    """Fixed points of degree g, spread from 0.5 to 3."""
    rng = np.random.default_rng(7000 + g)
    return [random_point(g, rng, spread=float(rng.uniform(0.5, 3.0)))
            for _ in range(count)]


# ------------------------------------------------------------ tables


def _cross_complement(pair, axis):
    i, j = pair
    if i == axis:
        return j
    if j == axis:
        return i
    return None


def _gamma_closed_loop(point):
    pairs = omega_list(point.g)
    m = len(pairs)
    R = metric_pair(point).R
    table = np.zeros((m, m, m), dtype=complex)
    for k, (r, s) in enumerate(pairs):
        for a, I in enumerate(pairs):
            for b, J in enumerate(pairs):
                i = _cross_complement(I, s)
                j = _cross_complement(J, r)
                if i is None or j is None:
                    i = _cross_complement(J, s)
                    j = _cross_complement(I, r)
                if i is None or j is None:
                    continue
                exponent = (1 - delta(r, s)) * (1 - delta(I, J))
                table[k, a, b] = 1j * R[i - 1, j - 1] / 2.0 ** exponent
    return table


def _b_expanded_loop(point):
    pairs = omega_list(point.g)
    m = len(pairs)
    R = metric_pair(point).R

    def bracket(subject, u, v, y):
        return (delta(subject, u) * R[y - 1, v - 1]
                + delta(subject, v) * R[y - 1, u - 1]
                - delta(subject, u) * delta(subject, v) * R[y - 1, v - 1])

    table = np.zeros((m, m, m), dtype=complex)
    for k, (p, q) in enumerate(pairs):
        for a, (i, j) in enumerate(pairs):
            for b, (r, s) in enumerate(pairs):
                first = (delta(q, j) * bracket(p, r, s, i)
                         + delta(q, i) * bracket(p, r, s, j)
                         + delta(p, i) * bracket(q, r, s, j)
                         + delta(p, j) * bracket(q, r, s, i))
                second = (delta(q, s) * bracket(p, i, j, r)
                          + delta(q, r) * bracket(p, i, j, s)
                          + delta(p, r) * bracket(q, i, j, s)
                          + delta(p, s) * bracket(q, i, j, r))
                table[k, a, b] = (1j / 2.0 ** (2 + delta(i, j)) * first
                                  + 1j / 2.0 ** (2 + delta(r, s)) * second)
    return table


@pytest.mark.parametrize("g", range(1, 9))
def test_gamma_closed_matches_loop(g):
    for point in _draws(g, 4 if g <= 5 else 2):
        assert (gamma_closed(point).table.tobytes()
                == _gamma_closed_loop(point).tobytes())


@pytest.mark.parametrize("g", range(1, 6))
def test_b_expanded_matches_loop(g):
    for point in _draws(g, 4):
        got = gamma_from_metric(point, "B-expanded").table
        assert got.tobytes() == _b_expanded_loop(point).tobytes()


def _metric_path_loop(point, path):
    """Path A, (1/2) sum_L M_KL dW_ILJ, or path B, -(1/2) sum_L W_IL dM_KLJ,
    summed over L in index order, each symmetrized in (I, J); and the
    largest sum of the terms' magnitudes, the scale of their rounding."""
    pair = metric_pair(point)
    M, W, dW, dM = pair.M, pair.W, dW_tensor(pair), dM_tensor(pair)
    m = M.shape[0]
    half = np.zeros((m, m, m), dtype=complex)
    magnitude = np.zeros((m, m, m))
    for l in range(m):
        # axes (K, I, J)
        if path == "A":
            term = M[:, None, l, None] * dW[None, :, l, :]
        else:
            term = dM[:, None, l, :] * W[None, :, l, None]
        half += term
        magnitude += np.abs(term)
    half = (0.5 if path == "A" else -0.5) * half
    return half + half.transpose(0, 2, 1), float(magnitude.max())


@pytest.mark.parametrize("path", ["A", "B"])
@pytest.mark.parametrize("g", range(1, 9))
def test_metric_path_matches_loop(g, path):
    # the BLAS contraction rounds in its own order: at most about one ulp
    # of the largest sum of term magnitudes was measured (g = 1..8, spreads
    # 0.5 to 3); relative to max|Gamma| that can be several ulps, because
    # the terms cancel
    for point in _draws(g, 4 if g <= 5 else 2):
        got = gamma_from_metric(point, path).table
        expected, scale = _metric_path_loop(point, path)
        assert got.shape == expected.shape
        assert (np.abs(got - expected).max()
                <= 4 * np.finfo(float).eps * scale)


# ------------------------------------------------------------ metric


def _dW_loop(pair):
    g = pair.point.g
    m = omega_size(g)
    R = pair.R
    ii, jj = row_col_indices(g)
    powers = _power_table(g)
    out = np.empty((m, m, m), dtype=complex)
    for c, J in enumerate(omega_list(g)):
        dR = 0.5j * (R @ basis_matrix(J, g) @ R)
        gram = (dR[np.ix_(ii, ii)] * R[np.ix_(jj, jj)]
                + R[np.ix_(ii, ii)] * dR[np.ix_(jj, jj)]
                + dR[np.ix_(jj, ii)] * R[np.ix_(ii, jj)]
                + R[np.ix_(jj, ii)] * dR[np.ix_(ii, jj)])
        out[:, :, c] = gram * powers
    return out


def _dM_loop(pair):
    g = pair.point.g
    m = omega_size(g)
    Y = pair.point.Y
    ii, jj = row_col_indices(g)
    out = np.empty((m, m, m), dtype=complex)
    for c, J in enumerate(omega_list(g)):
        dY = -0.5j * basis_matrix(J, g)
        out[:, :, c] = (dY[np.ix_(ii, ii)] * Y[np.ix_(jj, jj)]
                        + Y[np.ix_(ii, ii)] * dY[np.ix_(jj, jj)]
                        + dY[np.ix_(jj, ii)] * Y[np.ix_(ii, jj)]
                        + Y[np.ix_(jj, ii)] * dY[np.ix_(ii, jj)])
    return out


def _pair_gram_loop(Mat, powers):
    """W or M entry by entry: (Mat_ir Mat_js + Mat_jr Mat_is) times the
    power of 2 of the entry, or alone when powers is None."""
    pairs = list(zip(*row_col_indices(Mat.shape[-1])))
    out = np.empty((len(pairs), len(pairs)))
    for a, (i, j) in enumerate(pairs):
        for b, (r, s) in enumerate(pairs):
            value = Mat[i, r] * Mat[j, s] + Mat[j, r] * Mat[i, s]
            out[a, b] = value if powers is None else value * powers[a, b]
    return out


@pytest.mark.parametrize("g", range(1, 9))
def test_metric_matches_loop(g):
    for point in _draws(g, 4 if g <= 5 else 2):
        pair = metric_pair(point)
        assert pair.W.tobytes() == _pair_gram_loop(
            pair.R, _power_table(g)).tobytes()
        assert pair.M.tobytes() == _pair_gram_loop(point.Y, None).tobytes()


@pytest.mark.parametrize("g", range(1, 9))
def test_metric_derivatives_match_loop(g):
    for point in _draws(g, 4 if g <= 5 else 2):
        pair = metric_pair(point)
        for got, expected in ((dW_tensor(pair), _dW_loop(pair)),
                              (dM_tensor(pair), _dM_loop(pair))):
            # paths A and B multiply by each slice dW[I] and dM[K]; in a
            # C-contiguous stack every slice is a matrix numpy hands to BLAS
            # as it is, without a copy
            assert got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("g", range(1, 6))
def test_im_inverse_entry_gradient_matches_loop(g):
    # the entry gradient reads dR from the expression dW_tensor uses; the
    # loop it replaced formed -(1/2) R E_J R per coordinate.  Equal in
    # value: only the sign of a zero may differ
    entries = ImInverseField().entry_matrix(g)
    for point in _draws(g, 3):
        R = metric_pair(point).R
        for p, q in omega_list(g):
            expected = np.array(
                [-0.5 * (R @ basis_matrix(J, g) @ R)[p - 1, q - 1]
                 for J in omega_list(g)], dtype=complex)
            got = entries[p - 1][q - 1].gradient(point)
            assert np.array_equal(got, expected)


# ------------------------------------------------------------ cocycle


def _pushforward_loop(gamma, point):
    Q = np.linalg.inv(cocycle(gamma, point))
    pairs = omega_list(point.g)
    S = np.empty((len(pairs), len(pairs)), dtype=complex)
    for pos, (a, b) in enumerate(pairs):
        P = np.outer(Q[a - 1, :], Q[b - 1, :])
        P = P + P.T if a != b else P
        S[pos, :] = sym_to_coords(P)
    return S


def _pushforward_derivative_loop(gamma, point, V):
    Q = np.linalg.inv(cocycle(gamma, point))
    dQ = -Q @ (gamma.C @ np.asarray(V, dtype=complex)) @ Q
    pairs = omega_list(point.g)
    dS = np.empty((len(pairs), len(pairs)), dtype=complex)
    for pos, (a, b) in enumerate(pairs):
        P = (np.outer(dQ[a - 1, :], Q[b - 1, :])
             + np.outer(Q[a - 1, :], dQ[b - 1, :]))
        P = P + P.T if a != b else P
        dS[pos, :] = sym_to_coords(P)
    return dS


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(g=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       word_length=st.integers(0, 12))
def test_pushforward_matrix_matches_loop(g, seed, word_length):
    rng = np.random.default_rng(seed)
    gamma = random_symplectic(g, word_length, rng)
    point = random_point(g, rng, spread=float(rng.uniform(0.5, 3.0)))
    try:
        S = pushforward_matrix(gamma, point)
    except DegeneracyError:
        return
    assert S.flags.c_contiguous
    assert S.tobytes() == _pushforward_loop(gamma, point).tobytes()
    V = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
    for direction in [V + V.T] + [basis_matrix(pair, g, dtype=complex)
                                  for pair in omega_list(g)]:
        dS = pushforward_matrix_derivative(gamma, point, direction)
        assert dS.flags.c_contiguous
        assert dS.tobytes() == _pushforward_derivative_loop(
            gamma, point, direction).tobytes()


def test_cocycle_entries_are_one_evaluation_per_point(monkeypatch):
    # repeat requests are memo hits, so count the builds behind the memo
    calls, derivative_calls = [], []
    build_S = symplectic._pushforward_matrix
    build_dS = symplectic._pushforward_derivatives

    def counted(gamma, point):
        calls.append(point)
        return build_S(gamma, point)

    def counted_derivatives(gamma, point):
        derivative_calls.append(point)
        return build_dS(gamma, point)
    monkeypatch.setattr(symplectic, "_pushforward_matrix", counted)
    monkeypatch.setattr(symplectic, "_pushforward_derivatives",
                        counted_derivatives)
    g = 2
    rng = np.random.default_rng(31)
    gamma = random_symplectic(g, 4, rng)
    here, there = random_point(g, rng), random_point(g, rng)
    form = det_dz(g) * FormPolynomial.generator(g, (1, 2))
    apply_D(gamma_closed(here), gamma_act_on_form(gamma, here, form))
    assert calls == [here]
    assert derivative_calls == [here]
    apply_D(gamma_closed(there), gamma_act_on_form(gamma, there, form))
    assert calls == [here, there]
    assert derivative_calls == [here, there]
    # each entry jet still holds its own entry of S and of dS/dZ
    for point in (here, there):
        S = _pushforward_loop(gamma, point)
        dS = np.stack([_pushforward_derivative_loop(
            gamma, point, basis_matrix(pair, g, dtype=complex))
            for pair in omega_list(g)])
        generator = gamma_act_on_form(gamma, point,
                                      FormPolynomial.generator(g, (1, 2)))
        for (l,), jet in generator.terms.items():
            assert jet.value == S[l, 1]
            assert np.array_equal(jet.grad, dS[:, l, 1])
    assert calls == [here, there]
    assert derivative_calls == [here, there]


# ------------------------------------------------------------ stencils


def _near_boundary(g, rng, lambda_min):
    """A point whose Y has smallest eigenvalue lambda_min."""
    Q, _ = np.linalg.qr(rng.standard_normal((g, g)))
    eigs = rng.uniform(1.0, 2.0, size=g)
    eigs[0] = lambda_min
    Y = (Q * eigs) @ Q.T
    X = rng.uniform(-1.0, 1.0, size=(g, g))
    return SiegelPoint(g, (X + X.T) / 2, (Y + Y.T) / 2)


def _gradient_fd_three_calls(ext, point):
    """ModularExtension.gradient_fd with one fd_gradient call per step."""
    scale = float(np.abs(point.Z).max())
    h = 2e-5 * (1.0 + 0.01 * scale)
    h = min(h, 0.04 * float(np.linalg.eigvalsh(point.Y).min()))
    stencils = [fd_gradient(ext.value, point, h * f, order=4)
                for f in (0.5, 1.0, 2.0)]
    spread_small = float(np.abs(stencils[0] - stencils[1]).max())
    spread_big = float(np.abs(stencils[1] - stencils[2]).max())
    if spread_small <= spread_big:
        return (16.0 * stencils[0] - stencils[1]) / 15.0
    return (16.0 * stencils[1] - stencils[2]) / 15.0


@pytest.mark.parametrize("g", [1, 2, 3])
def test_one_stack_of_steps_matches_separate_calls(g):
    rng = np.random.default_rng(80 + g)
    points = _draws(g, 2) + [_near_boundary(g, rng, 2e-4)]
    for point in points:
        ext = ModularExtension(random_test_function(g, rng), 4,
                               random_symplectic(g, 4, rng))
        h = min(2e-5, 0.04 * float(np.linalg.eigvalsh(point.Y).min()))
        steps = (0.5 * h, h, 2.0 * h)
        for value_fn, order in ((ext.value, 4), (ext.f.value, 2)):
            together = fd_gradient(value_fn, point, steps, order=order)
            for step, grad in zip(steps, together):
                alone = fd_gradient(value_fn, point, step, order=order)
                assert grad.tobytes() == alone.tobytes()
        assert (ext.gradient_fd(point).tobytes()
                == _gradient_fd_three_calls(ext, point).tobytes())
    # at the last point, the near-boundary one, the largest step is clipped
    lambda_min = float(np.linalg.eigvalsh(points[-1].Y).min())
    assert 2.0 * h > 0.05 * lambda_min


def _extension_gradient_loop(ext, point):
    """ModularExtension.gradient with one matrix and one trace per
    coordinate."""
    base = act(ext.mu, point)
    den = cocycle(ext.gamma, base)
    det_pow = np.linalg.det(den) ** ext.weight
    P = np.linalg.solve(den, ext.gamma.C.astype(complex))
    S_mu = pushforward_matrix(ext.mu, point)
    fval = ext.f.value(base)
    fgrad = ext.f.gradient(base)
    out = np.empty(omega_size(ext.g), dtype=complex)
    chain = S_mu @ fgrad
    for pos in range(out.size):
        T = coords_to_sym(S_mu[pos, :], ext.g)
        out[pos] = det_pow * (ext.weight * np.trace(P @ T) * fval
                              + chain[pos])
    return out


@pytest.mark.parametrize("g", range(1, 9))
def test_extension_gradient_matches_loop(g):
    rng = np.random.default_rng(90 + g)
    for weight, point in zip((0, 2, 4, 6), _draws(g, 4)):
        ext = ModularExtension(random_test_function(g, rng), weight,
                               random_symplectic(g, 3, rng))
        # fresh points, so neither side reads what the other memoized
        again = SiegelPoint(g, point.X, point.Y)
        assert (ext.gradient(point).tobytes()
                == _extension_gradient_loop(ext, again).tobytes())


# ------------------------------------------------------------ point functions


class _ConstFunction:
    def __init__(self, g, value):
        self.g = g
        self._value = complex(value)

    def value(self, point):
        return np.full(point.X.shape[:-2], self._value)[()]

    def gradient(self, point):
        return np.zeros(omega_size(self.g), dtype=complex)


class _SumFunction:
    def __init__(self, parts):
        self.parts = list(parts)
        self.g = self.parts[0].g

    def value(self, point):
        return sum(p.value(point) for p in self.parts)

    def gradient(self, point):
        return sum(p.gradient(point) for p in self.parts)


class _ProductFunction:
    def __init__(self, factors):
        self.factors = list(factors)
        self.g = self.factors[0].g

    def value(self, point):
        out = 1 + 0j
        for f in self.factors:
            out *= f.value(point)
        return out

    def gradient(self, point):
        values = [f.value(point) for f in self.factors]
        grads = [f.gradient(point) for f in self.factors]
        total = np.zeros_like(grads[0])
        for t in range(len(self.factors)):
            rest = 1 + 0j
            for u, v in enumerate(values):
                if u != t:
                    rest *= v
            total = total + grads[t] * rest
        return total


class _ScaledFunction:
    def __init__(self, fn, scale):
        self.fn = fn
        self.g = fn.g
        self.scale = complex(scale)

    def value(self, point):
        return self.scale * self.fn.value(point)

    def gradient(self, point):
        return self.scale * self.fn.gradient(point)


class _PullbackFunction:
    """z -> f(gamma z), by the chain rule through the coordinate cocycle."""

    def __init__(self, gamma, fn):
        self.gamma = gamma
        self.fn = fn
        self.g = fn.g

    def value(self, point):
        return self.fn.value(act(self.gamma, point))

    def gradient(self, point):
        return (pushforward_matrix(self.gamma, point)
                @ self.fn.gradient(act(self.gamma, point)))


class _CocycleEntryFunction:
    """Z -> S(gamma, Z)[L, K] with its coordinate gradient."""

    def __init__(self, gamma, l, k):
        self.gamma = gamma
        self.g = gamma.g
        self.l = l
        self.k = k

    def value(self, point):
        return complex(pushforward_matrix(self.gamma, point)[self.l, self.k])

    def gradient(self, point):
        return pushforward_derivatives(self.gamma, point)[:, self.l, self.k]


def _coefficient_value(coef, point):
    if isinstance(coef, numbers.Complex):
        return complex(coef)
    return coef.value(point)


def _coefficient_gradient(coef, point, g):
    if isinstance(coef, numbers.Complex):
        return np.zeros(omega_size(g), dtype=complex)
    return coef.gradient(point)


# ------------------------------------------------------------ dZ algebra


def _dict_add(a, b):
    """Sum of two numeric forms held as dicts: existing monomials keep
    their place, new ones go last, and cancelled ones are removed."""
    out = dict(a)
    for mono, coef in b.items():
        if mono in out:
            out[mono] = complex(out[mono]) + complex(coef)
            if out[mono] == 0:
                del out[mono]
        else:
            out[mono] = coef
    return out


def _dict_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(sorted(m1 + m2))
            c = complex(c1) * complex(c2)
            out[mono] = complex(out[mono]) + c if mono in out else c
    return {mono: c for mono, c in out.items() if complex(c) != 0}


def _same_terms(form, reference):
    values = np.array(list(form.terms.values()), dtype=complex)
    expected = np.array(list(reference.values()), dtype=complex)
    return (list(form.terms) == list(reference)
            and values.tobytes() == expected.tobytes())


def _random_terms(g, rng, count):
    # coefficients from a small set, so sums and products cancel
    choices = (1.0, -1.0, 0.5j, -0.5j, 2.0 + 1.0j, 0.0)
    m = omega_size(g)
    terms = {}
    for _ in range(count):
        mono = tuple(sorted(int(v) for v in
                            rng.integers(0, m, size=int(rng.integers(0, 3)))))
        terms[mono] = complex(choices[int(rng.integers(0, len(choices)))])
    return terms


@pytest.mark.parametrize("g", [1, 2, 3])
def test_form_sum_and_product_match_dict_reference(g):
    rng = np.random.default_rng(40 + g)
    for _ in range(40):
        a = FormPolynomial(g, _random_terms(g, rng, 6))
        b = FormPolynomial(g, _random_terms(g, rng, 6))
        assert _same_terms(a + b, _dict_add(a.terms, b.terms))
        assert _same_terms(a - a, {})
        assert _same_terms(a * b, _dict_mul(a.terms, b.terms))
        # in-place accumulation, as apply_D does it: -a removes the
        # monomials of a that b does not share, and a appends them again
        terms, reference = {}, {}
        for form in (a, b, -a, a):
            for mono, coef in form.terms.items():
                add_term(terms, mono, coef)
            reference = _dict_add(reference, form.terms)
        assert _same_terms(FormPolynomial.canonical(g, terms), reference)


def _quadratics_loop(table):
    m = table.table.shape[0]
    out = []
    for k in range(m):
        terms = {}
        for a in range(m):
            c = -table.table[k, a, a]
            if c != 0:
                terms[(a, a)] = terms.get((a, a), 0j) + c
            for b in range(a + 1, m):
                c = -2.0 * table.table[k, a, b]
                if c != 0:
                    terms[(a, b)] = terms.get((a, b), 0j) + c
        out.append(terms)
    return out


def _apply_D_reference(table, terms):
    """D at the table's point of a form held as a dict of numbers and
    point functions, each evaluated there."""
    point, g = table.point, table.g
    quadratics = _quadratics_loop(table)
    out = {}
    for mono, coef in terms.items():
        cval = _coefficient_value(coef, point)
        grad = _coefficient_gradient(coef, point, g)
        out = _dict_add(out, {tuple(sorted(mono + (pos,))): grad[pos]
                              for pos in range(len(grad)) if grad[pos] != 0})
        for t in range(len(mono)):
            base = {} if complex(cval) == 0 else {mono[:t] + mono[t + 1:]:
                                                   cval}
            out = _dict_add(out, _dict_mul(base, quadratics[mono[t]]))
    return out


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_apply_D_matches_dict_reference(g):
    rng = np.random.default_rng(60 + g)
    for point in _draws(g, 2):
        table = gamma_closed(point)
        for quadratic, reference in zip(curvature_quadratics(table),
                                        _quadratics_loop(table)):
            assert _same_terms(quadratic, reference)
        f = random_test_function(g, rng)
        jet = Jet.at(f, point)
        # each form beside its reference: numbers, or point functions
        # built from the combinators the jets replaced
        numeric = [det_dz(g), FormPolynomial(g, _random_terms(g, rng, 8))]
        numeric += [FormPolynomial.generator(g, K) for K in omega_list(g)]
        pairs = [(form, form.terms) for form in numeric]
        pairs.append((_f_det_form(f, 1, point),
                      {mono: _ScaledFunction(f, c)
                       for mono, c in det_dz(g).terms.items()}))
        pairs.append((trace_form(np.array([[jet] * g] * g, dtype=object), g),
                      {(pos,): _ScaledFunction(f, 1.0 if i == j else 2.0)
                       for pos, (i, j) in enumerate(omega_list(g))}))
        if g <= 2:
            gamma = random_symplectic(g, 3, rng)
            form = det_dz(g).map_coefficients(lambda c: f)
            pairs.append((gamma_act_on_form(gamma, point, form),
                          _gamma_act_reference(gamma, g, form)))
        for form, reference in pairs:
            assert _same_terms(apply_D(table, form),
                               _apply_D_reference(table, reference))


def _substitute_basis_chain(form, S):
    """substitute_basis as a chain of + on whole forms."""
    m = form.m
    out = FormPolynomial(form.g, {})
    for mono, coef in form.terms.items():
        expanded = FormPolynomial.scalar(form.g, coef)
        for k in mono:
            lin = FormPolynomial(form.g, {(l,): S[l, k] for l in range(m)
                                          if S[l, k] != 0})
            expanded = expanded * lin
        out = out + expanded
    return out


@pytest.mark.parametrize("g", [1, 2, 3])
def test_substitute_basis_matches_chain_of_sums(g):
    rng = np.random.default_rng(90 + g)
    m = omega_size(g)
    for point in _draws(g, 2):
        gamma = random_symplectic(g, 4, rng)
        S = pushforward_matrix(gamma, point)
        # small integer matrices make sums cancel and monomials come back
        cancelling = rng.integers(-1, 2, size=(m, m)).astype(complex)
        numeric = apply_D(gamma_closed(point), det_dz(g))
        forms = [numeric, FormPolynomial(g, _random_terms(g, rng, 8)),
                 FormPolynomial(g, _random_terms(g, rng, 8))]
        for form in forms:
            for matrix in (S, np.abs(S), cancelling):
                reference = _substitute_basis_chain(form, matrix)
                assert _same_terms(substitute_basis(form, matrix),
                                   reference.terms)


def _gamma_act_reference(gamma, g, form):
    """gamma_act_on_form with point-function coefficients: one product of
    the pullback and the cocycle entry functions per assignment, summed per
    monomial as the dZ algebra summed them."""
    m = omega_size(g)
    out = {}
    for mono, coef in form.terms.items():
        base = coef if not isinstance(coef, numbers.Complex) \
            else _ConstFunction(g, coef)
        pulled = _PullbackFunction(gamma, base) \
            if not isinstance(base, _ConstFunction) else base
        for assignment in product(range(m), repeat=len(mono)):
            factors = [pulled] + [_CocycleEntryFunction(gamma, l, k)
                                  for l, k in zip(assignment, mono)]
            fn = _ProductFunction(factors) if len(factors) > 1 \
                else factors[0]
            key = tuple(sorted(assignment))
            out[key] = _SumFunction([out[key], fn]) if key in out else fn
    return out


def _zero_signless(x):
    """The bytes of x with -0.0 read as 0.0: _SumFunction adds with sum(),
    which starts from the integer 0, and a jet sum does not, so an exact
    zero may carry either sign; every other value is compared bit for
    bit."""
    return (np.asarray(x, dtype=complex) + 0.0).tobytes()


@pytest.mark.parametrize("g", [1, 2, 3])
def test_gamma_act_on_form_matches_chain_of_sums(g):
    rng = np.random.default_rng(100 + g)
    for point in _draws(g, 2):
        gamma = random_symplectic(g, 4, rng)
        f = random_test_function(g, rng)
        last = omega_size(g) - 1
        forms = [det_dz(g),
                 det_dz(g).map_coefficients(lambda c: _ScaledFunction(f, c)),
                 FormPolynomial(g, {(0,): f, (0, last): 2.0,
                                    (): random_test_function(g, rng)})]
        for form in forms:
            got = gamma_act_on_form(gamma, point, form)
            reference = _gamma_act_reference(gamma, g, form)
            assert list(got.terms) == list(reference)
            for jet, ref in zip(got.terms.values(), reference.values()):
                assert _zero_signless(jet.value) == \
                    _zero_signless(ref.value(point))
                assert _zero_signless(jet.grad) == \
                    _zero_signless(ref.gradient(point))


# ------------------------------------------------------------ group words


def _expand_step_by_step(word):
    """GeneratorWord.expand as a product of validated elements."""
    out = SymplecticElement.identity(word.g)
    for tag, param in word.steps:
        if tag == "J":
            step = SymplecticElement.inversion(word.g)
        elif tag == "T":
            step = SymplecticElement.translation(np.array(param))
        else:
            step = SymplecticElement.unimodular(np.array(param))
        out = out @ step
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(g=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       word_length=st.integers(0, 12))
def test_word_expansion_matches_step_by_step_product(g, seed, word_length):
    word = random_word(g, word_length, np.random.default_rng(seed))
    expanded = word.expand()
    reference = _expand_step_by_step(word)
    assert expanded == reference
    assert expanded.matrix.tobytes() == reference.matrix.tobytes()
    for name in "ABCD":
        block = getattr(expanded, name)
        assert not block.flags.writeable
        assert block.tobytes() == getattr(reference, name).tobytes()


def _block_identities(M):
    """M J M^t = J for the integer matrix M = (A, B; C, D), as the three
    block identities A B^t and C D^t symmetric and A D^t - B C^t = I, in
    Python ints."""
    g = M.shape[0] // 2
    M = M.astype(object)
    A, B, C, D = M[:g, :g], M[:g, g:], M[g:, :g], M[g:, g:]
    ABt, CDt = A @ B.T, C @ D.T
    return bool((ABt == ABt.T).all() and (CDt == CDt.T).all()
                and (A @ D.T - B @ C.T == np.eye(g, dtype=np.int64)).all())


# entries at the edges of the int64 fast path and of the integer types
_EDGE_ENTRIES = (2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, -2 ** 31, 2 ** 32,
                 2 ** 62, -2 ** 63)


@st.composite
def _integer_block_matrices(draw):
    """An integer matrix of size 2g in int64, int32 or uint64 (entries
    wrap into the type): an element whose translation block may hold an
    entry near 2^31, the same with one entry moved, or arbitrary small and
    edge entries."""
    g = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("element", "moved", "arbitrary")))
    if kind == "arbitrary":
        entries = draw(st.lists(st.one_of(st.integers(-3, 3),
                                          st.sampled_from(_EDGE_ENTRIES)),
                                min_size=4 * g * g, max_size=4 * g * g))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        B = rng.integers(-2, 3, size=(g, g))
        B[0, 0] = draw(st.one_of(st.integers(-2, 2),
                                 st.sampled_from(_EDGE_ENTRIES[:5])))
        B = np.triu(B) + np.triu(B, 1).T
        element = (random_symplectic(g, 3, rng)
                   @ SymplecticElement.translation(B))
        entries = element.matrix.ravel().tolist()
        if kind == "moved":
            at = draw(st.integers(0, len(entries) - 1))
            entries[at] += draw(st.sampled_from((1, -1, 2 ** 32)))
    dtype = draw(st.sampled_from((np.int64, np.int32, np.uint64)))
    wrapped = np.array([v % 2 ** 64 for v in entries], dtype=np.uint64)
    return wrapped.astype(dtype).reshape(2 * g, 2 * g)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(M=_integer_block_matrices())
def test_one_product_check_matches_the_block_identities(M):
    expected = _block_identities(M)
    assert symplectic._blocks_symplectic(M) is expected
    assert symplectic.is_symplectic(M) is expected
    if M.dtype == np.int64:
        if expected:
            assert SymplecticElement.from_matrix(M).matrix.tobytes() == \
                M.tobytes()
        else:
            with pytest.raises(ValueError, match="symplectic relation"):
                SymplecticElement.from_matrix(M)


# ------------------------------------------------------------ reuse


def test_pullback_acts_once_per_point(monkeypatch):
    # repeat requests are memo hits, so count the builds behind act
    calls = []
    build = symplectic._act

    def counted(gamma, point):
        calls.append(point)
        return build(gamma, point)
    monkeypatch.setattr(symplectic, "_act", counted)
    g = 2
    rng = np.random.default_rng(33)
    gamma = random_symplectic(g, 4, rng)
    here, there = random_point(g, rng), random_point(g, rng)
    f = random_test_function(g, rng)
    # one function coefficient: every assignment's product holds the same
    # pulled-back function
    form = FormPolynomial(g, {(0, 2): f, (1,): 3.0})
    first = apply_D(gamma_closed(here), gamma_act_on_form(gamma, here, form))
    assert calls == [here]
    apply_D(gamma_closed(there), gamma_act_on_form(gamma, there, form))
    assert calls == [here, there]
    # the kept action gives what a fresh point computes
    fresh = SiegelPoint(g, here.X, here.Y)
    again = apply_D(gamma_closed(fresh), gamma_act_on_form(gamma, fresh, form))
    assert calls == [here, there, fresh]
    assert _same_terms(first, again.terms)


def test_extensions_on_one_element_share_its_inverse(monkeypatch):
    gamma = random_symplectic(3, 6, seed=14)
    built = []
    post_init = SymplecticElement.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)
    monkeypatch.setattr(SymplecticElement, "__post_init__", counted)
    rng = np.random.default_rng(14)
    extensions = [ModularExtension(random_test_function(3, rng), 2 * k,
                                   gamma) for k in (1, 2, 3)]
    assert len(built) == 1
    assert all(ext.mu is built[0] for ext in extensions)
    assert gamma @ built[0] == SymplecticElement.identity(3)
