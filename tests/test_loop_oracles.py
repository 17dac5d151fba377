"""The scalar loops and step-by-step forms that the connection tables, the
metric and its derivatives, the cocycle, the finite-difference stencils,
the gradient of a modular extension, the dZ algebra, the point-function
coefficients that jets replaced, the product of random generators and the
symplectic test (as three block identities) were first written as, kept as
references.  So are the coefficient transports that evaluation at probe
vectors replaced, gamma . form and the substitution dZ_K -> sum_L S[L, K]
dZ_L: the evaluated sides of ``equivariance_residual`` and
``invariance_residual`` must equal those coefficient forms evaluated at the
probes.  So is D coefficient by coefficient, with the curvature quadratics
and the closed forms of D multiplied out as forms: ``apply_D`` and the
matrix closed forms at the probes must equal them evaluated there, within a
few ulps of the summed magnitude of the evaluated terms.

Otherwise the array forms perform the same floating-point operations in
the same order, so every comparison is bit for bit (``tobytes`` equality,
and for forms the same monomials in the same dictionary order).  The other
exception is metric paths A and B: they sum over L through products of
g x g factors, in BLAS's blocked order, so those tables are compared with
the loop over L within a few ulps of the magnitude of the summed terms.
The loop's dW, which the library no longer builds, is checked against
finite differences of W.
"""

import numbers
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import siegel.symplectic as symplectic
from siegel.connection import (_jets_at, _transported_D, apply_D,
                               d_det_closed, d_dz_closed, d_f_detk,
                               d_trace_form, equivariance_residual,
                               gamma_closed, gamma_from_metric)
from siegel.forms import FormPolynomial, det_dz, probe_vectors, trace_form
from siegel.functions import Jet, fd_gradient, random_test_function
from siegel.indexing import (basis_stack, coords_to_sym, omega_list,
                             omega_size, position_table, row_col_indices,
                             sym_to_coords)
from siegel.metric import _power_table, dM_tensor, dR_tensor, metric_pair
from siegel.operators import ModularExtension, nabla
from siegel.symplectic import (DegeneracyError, SiegelPoint,
                               SymplecticElement, act, cocycle,
                               pushforward_matrix,
                               pushforward_matrix_derivative,
                               random_point, random_symplectic)


def delta(a, b) -> int:
    return 1 if a == b else 0


def _basis_matrix(pair, g, dtype=float):
    """Symmetric coordinate direction for Z_pair, written out entry by
    entry: E_ij + E_ji off the diagonal, E_ii on it."""
    i, j = pair
    E = np.zeros((g, g), dtype=dtype)
    E[i - 1, j - 1] = E[j - 1, i - 1] = 1
    return E


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
        assert (gamma_closed(point).tobytes()
                == _gamma_closed_loop(point).tobytes())


@pytest.mark.parametrize("g", range(1, 6))
def test_b_expanded_matches_loop(g):
    for point in _draws(g, 4):
        got = gamma_from_metric(point, "B-expanded")
        assert got.tobytes() == _b_expanded_loop(point).tobytes()


def _metric_path_loop(point, path):
    """Path A, (1/2) sum_L M_KL dW_ILJ, or path B, -(1/2) sum_L W_IL dM_KLJ,
    summed over L in index order, each symmetrized in (I, J); and the
    largest sum of the terms' magnitudes, the scale of their rounding."""
    W, M, R = metric_pair(point)
    dW, dM = _dW_loop(R), dM_tensor(point.Y)
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
    # the g x g factor products round in their own order: at most about
    # two ulps of the largest sum of term magnitudes were measured
    # (g = 1..8); relative to max|Gamma| that can be several ulps, because
    # the terms cancel
    for point in _draws(g, 4 if g <= 5 else 2):
        got = gamma_from_metric(point, path)
        expected, scale = _metric_path_loop(point, path)
        assert got.shape == expected.shape
        assert (np.abs(got - expected).max()
                <= 4 * np.finfo(float).eps * scale)


# ------------------------------------------------------------ metric


def _dW_loop(R):
    g = R.shape[-1]
    m = omega_size(g)
    ii, jj = row_col_indices(g)
    powers = _power_table(g)
    out = np.empty((m, m, m), dtype=complex)
    for c, J in enumerate(omega_list(g)):
        dR = 0.5j * (R @ _basis_matrix(J, g) @ R)
        gram = (dR[np.ix_(ii, ii)] * R[np.ix_(jj, jj)]
                + R[np.ix_(ii, ii)] * dR[np.ix_(jj, jj)]
                + dR[np.ix_(jj, ii)] * R[np.ix_(ii, jj)]
                + R[np.ix_(jj, ii)] * dR[np.ix_(ii, jj)])
        out[:, :, c] = gram * powers
    return out


def _dM_loop(Y):
    g = Y.shape[-1]
    m = omega_size(g)
    ii, jj = row_col_indices(g)
    out = np.empty((m, m, m), dtype=complex)
    for c, J in enumerate(omega_list(g)):
        dY = -0.5j * _basis_matrix(J, g)
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
        got = dM_tensor(point.Y)
        assert got.flags.c_contiguous
        assert got.tobytes() == _dM_loop(point.Y).tobytes()


def test_gram_derivative_finite_differences():
    # the loop's dW, which path A's oracle contracts, against central
    # differences of W
    g = 2
    point = random_point(g, seed=17)
    dW = _dW_loop(metric_pair(point).R)
    pairs = omega_list(g)
    for a in range(len(pairs)):
        for b in range(len(pairs)):
            def entry(pt, a=a, b=b):
                return metric_pair(pt).W[..., a, b]
            grad = fd_gradient(entry, point)
            for c in range(len(pairs)):
                assert abs(grad[c] - dW[a, b, c]) < 1e-7


@pytest.mark.parametrize("g", range(1, 6))
def test_im_inverse_entry_gradient_matches_loop(g):
    # the gradients of the entries of i Y^{-1} are i dR_tensor(R), the
    # expression path A reads; the loop it replaced formed
    # -(1/2) R E_J R per coordinate.  Equal in value: only the sign of a
    # zero may differ
    for point in _draws(g, 3):
        R = metric_pair(point).R
        dR = dR_tensor(R)
        for p, q in omega_list(g):
            expected = np.array(
                [-0.5 * (R @ _basis_matrix(J, g) @ R)[p - 1, q - 1]
                 for J in omega_list(g)], dtype=complex)
            got = 1j * dR[:, p - 1, q - 1]
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
    for direction in [V + V.T] + [_basis_matrix(pair, g, dtype=complex)
                                  for pair in omega_list(g)]:
        dS = pushforward_matrix_derivative(gamma, point, direction)
        assert dS.flags.c_contiguous
        assert dS.tobytes() == _pushforward_derivative_loop(
            gamma, point, direction).tobytes()


def test_cocycle_entries_are_one_evaluation_per_point(monkeypatch):
    # repeat requests are memo hits, so count the builds behind the memo
    calls = []
    build_S = symplectic._pushforward_matrix

    def counted(gamma, point):
        calls.append(point)
        return build_S(gamma, point)
    monkeypatch.setattr(symplectic, "_pushforward_matrix", counted)
    g = 2
    rng = np.random.default_rng(31)
    gamma = random_symplectic(g, 4, rng)
    here, there = random_point(g, rng), random_point(g, rng)
    form = det_dz(g) * FormPolynomial.generator(g, (1, 2))
    equivariance_residual(gamma, here, form)
    assert calls == [here]
    equivariance_residual(gamma, there, form)
    assert calls == [here, there]
    # each entry jet of the coefficient transport holds its own entry of S
    # and of dS/dZ
    for point in (here, there):
        S = _pushforward_loop(gamma, point)
        dS = np.stack([_pushforward_derivative_loop(
            gamma, point, _basis_matrix(pair, g, dtype=complex))
            for pair in omega_list(g)])
        generator = _gamma_act_on_form(gamma, point,
                                       FormPolynomial.generator(g, (1, 2)))
        for (l,), jet in generator.terms.items():
            assert jet.value == S[l, 1]
            assert np.array_equal(jet.grad, dS[:, l, 1])
    assert calls == [here, there]


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
        return _pushforward_derivatives(self.gamma, point)[:, self.l, self.k]


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


def _add_term(terms, mono, coef):
    """Add coef to terms[mono] in place, a canonical key being assumed;
    a sum that cancels to zero is removed, and a new key goes last."""
    if mono in terms:
        total = terms[mono] + coef
        if total == 0:
            del terms[mono]
        else:
            terms[mono] = total
    else:
        terms[mono] = coef


def _form_sum(a, b):
    """a + b as the dZ algebra added forms: a's monomials in place, new
    ones appended."""
    return FormPolynomial(a.g, _dict_add(a.terms, b.terms))


def _scaled(form, scalar):
    return form.map_coefficients(lambda c: c * scalar)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_form_sum_and_product_match_dict_reference(g):
    rng = np.random.default_rng(40 + g)
    for _ in range(40):
        a = FormPolynomial(g, _random_terms(g, rng, 6))
        b = FormPolynomial(g, _random_terms(g, rng, 6))
        assert _same_terms(a * b, _dict_mul(a.terms, b.terms))
        # in-place accumulation, as the coefficient D does it: -a removes
        # the monomials of a that b does not share, and a appends them
        terms, reference = {}, {}
        for form in (a, b, _scaled(a, -1.0), a):
            for mono, coef in form.terms.items():
                _add_term(terms, mono, coef)
            reference = _dict_add(reference, form.terms)
        assert _same_terms(FormPolynomial(g, terms), reference)


def _quadratics_loop(table):
    m = table.shape[0]
    out = []
    for k in range(m):
        terms = {}
        for a in range(m):
            c = -table[k, a, a]
            if c != 0:
                terms[(a, a)] = terms.get((a, a), 0j) + c
            for b in range(a + 1, m):
                c = -2.0 * table[k, a, b]
                if c != 0:
                    terms[(a, b)] = terms.get((a, b), 0j) + c
        out.append(terms)
    return out


def _apply_D_reference(point, table, terms):
    """D at the point, with the table there, of a form held as a dict of
    numbers and point functions, each evaluated there."""
    g = point.g
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


# ------------------------------------------ D coefficient by coefficient


def _curvature_quadratics(table, g):
    """D(dZ_K) = -sum_{I,J} Gamma_IJ^K dZ_I dZ_J for each K, as forms of
    degree 2."""
    a, b = np.triu_indices(table.shape[0])
    upper = table[:, a, b]
    coefs = 0j + np.where(a == b, -upper, -2.0 * upper)
    monos = list(zip(a.tolist(), b.tolist()))
    return [FormPolynomial(g, dict(zip(monos, row)))
            for row in coefs.tolist()]


def _apply_D_coefficients(table, form):
    """D(form) at the table's base point as a form with numeric
    coefficients, from a form with number or jet coefficients there: every
    term is added into one dictionary, in the order of the sum
    df dZ_{K_1}...dZ_{K_r} + sum_t f dZ_{K_1}...D(dZ_{K_t})...dZ_{K_r}."""
    quadratics = _curvature_quadratics(table, form.g)
    out = {}
    for mono, coef in form.terms.items():
        if isinstance(coef, Jet):
            cval = complex(coef.value)
            for pos, d in enumerate(coef.grad):
                if d != 0:
                    _add_term(out, tuple(sorted(mono + (pos,))), d)
        else:
            cval = complex(coef)
        if cval == 0:
            continue
        for t in range(len(mono)):
            rest = mono[:t] + mono[t + 1:]
            for m2, c2 in quadratics[mono[t]].terms.items():
                c = cval * c2
                if c != 0:
                    _add_term(out, tuple(sorted(rest + m2)), c)
    return FormPolynomial(form.g, out)


def _max_coefficient_diff(f1, f2):
    """Max |c1 - c2| over the union of monomials; numeric coefficients
    only."""
    worst = 0.0
    for mono in set(f1.terms) | set(f2.terms):
        c1 = complex(f1.terms.get(mono, 0j))
        c2 = complex(f2.terms.get(mono, 0j))
        worst = max(worst, abs(c1 - c2))
    return worst


def test_max_coefficient_diff_over_union():
    g = 1
    a = FormPolynomial(g, {(0,): 1.0})
    b = FormPolynomial(g, {(0,): 1.0, (0, 0): 0.5})
    assert _max_coefficient_diff(a, b) == 0.5


def _d_dz_closed_dict(point, K):
    """-i (dZ_s.) Y^{-1} (dZ_r.)^t for K = (r, s): the closed quadratic."""
    g = point.g
    R = metric_pair(point).R
    r, s = K
    pos = position_table(g).tolist()
    terms = {}
    for i in range(g):
        for j in range(g):
            mono = tuple(sorted((pos[s - 1][i], pos[r - 1][j])))
            terms[mono] = terms.get(mono, 0j) - 1j * R[i, j]
    return FormPolynomial(g, terms)


def _d_trace_form_loop(point, Gfield):
    """D(Tr(G dZ)) for a symmetric matrix G of jets, read as G[i][j]: the
    Kronecker-product derivative term plus the curvature correction
    -i Tr(G dZ Y^{-1} dZ), with numeric coefficients at the point."""
    g = point.g
    pos = position_table(g).tolist()
    R = metric_pair(point).R
    values = np.array([[Gfield[i][j].value for j in range(g)]
                       for i in range(g)], dtype=complex)
    terms = {}

    def add(mono, c):
        if c != 0:
            mono = tuple(sorted(mono))
            terms[mono] = terms.get(mono, 0j) + c

    # sum_{i,j,k,l} partial_kl G_ij dZ_kl dZ_ji, the partial halved off
    # the diagonal
    for i in range(g):
        for j in range(g):
            grad = Gfield[i][j].grad
            for k in range(g):
                for l in range(g):
                    half = 1.0 if k == l else 0.5
                    add((pos[k][l], pos[j][i]), half * grad[pos[k][l]])
    # -i Tr(G dZ Y^{-1} dZ)
    for x in range(g):
        for u in range(g):
            for w in range(g):
                for v in range(g):
                    add((pos[u][w], pos[v][x]), -1j * values[x, u] * R[w, v])
    return FormPolynomial(g, terms)


def _random_jets(g, point, rng):
    """A symmetric g x g matrix of jets of random test functions."""
    jets = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            fn = random_test_function(g, rng, max_degree=2, n_terms=3)
            jets[i][j] = jets[j][i] = Jet.at(fn, point)
    return jets


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_apply_D_matches_dict_reference(g, f_det_power):
    # the coefficient D, against the point-function dicts that jets
    # replaced, bit for bit
    rng = np.random.default_rng(60 + g)
    for point in _draws(g, 2):
        table = gamma_closed(point)
        for quadratic, reference in zip(_curvature_quadratics(table, g),
                                        _quadratics_loop(table)):
            assert _same_terms(quadratic, reference)
        f = random_test_function(g, rng)
        jet = Jet.at(f, point)
        # each form beside its reference: numbers, or point functions
        # built from the combinators the jets replaced
        numeric = [det_dz(g), FormPolynomial(g, _random_terms(g, rng, 8))]
        numeric += [FormPolynomial.generator(g, K) for K in omega_list(g)]
        pairs = [(form, form.terms) for form in numeric]
        pairs.append((f_det_power(jet, 1, g),
                      {mono: _ScaledFunction(f, c)
                       for mono, c in det_dz(g).terms.items()}))
        pairs.append((trace_form(np.array([[jet] * g] * g, dtype=object), g),
                      {(pos,): _ScaledFunction(f, 1.0 if i == j else 2.0)
                       for pos, (i, j) in enumerate(omega_list(g))}))
        if g <= 2:
            gamma = random_symplectic(g, 3, rng)
            form = det_dz(g).map_coefficients(lambda c: f)
            pairs.append((_gamma_act_on_form(gamma, point, form),
                          _gamma_act_reference(gamma, g, form)))
        for form, reference in pairs:
            assert _same_terms(_apply_D_coefficients(table, form),
                               _apply_D_reference(point, table, reference))


def _ulps_of_terms(size, coefficients, v):
    """A few ulps of the summed magnitude of the evaluated terms: the
    larger of apply_D's own sum, size, and the sum over the terms of a
    coefficient form at v, which also counts the terms that make up each
    coefficient, such as the m^2 of each Gamma contraction q_K."""
    summed = coefficients.map_coefficients(abs).evaluate(abs(v)).real
    return 8 * np.finfo(float).eps * np.maximum(size, summed)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_evaluated_D_matches_the_coefficient_D(g, f_det_power):
    # apply_D at the probes against the coefficient D evaluated there
    rng = np.random.default_rng(130 + g)
    v = probe_vectors(g)
    for point in _draws(g, 2):
        table = gamma_closed(point)
        f = random_test_function(g, rng)
        forms = [FormPolynomial.generator(g, K) for K in omega_list(g)]
        forms += [det_dz(g), trace_form(_random_jets(g, point, rng), g)]
        forms += [f_det_power(Jet.at(f, point), k, g) for k in (1, 2)
                  if k == 1 or g <= 3]
        forms += [FormPolynomial(g, _random_terms(g, rng, 8))
                  for _ in range(2)]
        for form in forms:
            value, size = apply_D(table, form, v)
            coefficients = _apply_D_coefficients(table, form)
            assert (abs(value - coefficients.evaluate(v))
                    <= _ulps_of_terms(size, coefficients, v)).all()


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_closed_forms_at_V_match_their_coefficient_forms(g, f_det_power):
    # each closed form at the matrices V of the probes against the same
    # closed form multiplied out as a form and evaluated at the probes,
    # on the scale of D's own terms on that input
    rng = np.random.default_rng(140 + g)
    v = probe_vectors(g)
    V = coords_to_sym(v, g)
    for point in _draws(g, 2):
        table = gamma_closed(point)
        R = metric_pair(point).R
        quadratics = d_dz_closed(point, V)
        # (input of D, closed form at V, closed form as a form)
        cases = [(FormPolynomial.generator(g, (r, s)),
                  quadratics[:, s - 1, r - 1],
                  _d_dz_closed_dict(point, (r, s)))
                 for r, s in omega_list(g)]
        cases.append((det_dz(g), d_det_closed(point, V),
                      _scaled(trace_form(R, g), -1j) * det_dz(g)))
        f = random_test_function(g, rng)
        for k in (1, 2) if g <= 3 else (1,):
            cases.append((f_det_power(Jet.at(f, point), k, g),
                          d_f_detk(point, f, k, V),
                          trace_form(nabla(f, point, k), g)
                          * f_det_power(1, k, g)))
        jets = _random_jets(g, point, rng)
        cases.append((trace_form(jets, g), d_trace_form(point, jets, V),
                      _d_trace_form_loop(point, jets)))
        for form, closed, coefficients in cases:
            size = apply_D(table, form, v)[1]
            assert (abs(closed - coefficients.evaluate(v))
                    <= _ulps_of_terms(size, coefficients, v)).all()


# ------------------------------------- the coefficient transport, by hand


def _jet_product(factors):
    """The jet of a product: the values multiplied in order, and the
    gradient sum_t grad f_t prod_{u != t} f_u, each partial product in
    factor order and the sum in t order."""
    value = 1 + 0j
    for f in factors:
        value *= f.value
    grad = np.zeros_like(factors[0].grad)
    for t, f in enumerate(factors):
        rest = 1 + 0j
        for u, other in enumerate(factors):
            if u != t:
                rest *= other.value
        grad = grad + f.grad * rest
    return Jet(value, grad)


def _pushforward_derivatives(gamma, point):
    """dS[pos], the derivative of Z -> S(gamma, Z) along Z_pos."""
    return np.stack([pushforward_matrix_derivative(gamma, point, E)
                     for E in basis_stack(point.g)])


def _gamma_act_on_form(gamma, point, form):
    """gamma . form at point, for a form with number or point-function
    coefficients: each coefficient is pulled back through gamma, and each
    generator dZ_K becomes sum_L S[L, K] dZ_L.  The result has jet
    coefficients at point: a pullback is (f(gamma Z), S grad f(gamma Z)), a
    cocycle entry is (S[L, K], dS[:, L, K]), and a term is the jet product
    of its pullback and its entries."""
    m = omega_size(point.g)
    S = pushforward_matrix(gamma, point)
    dS = _pushforward_derivatives(gamma, point)
    entries = [[Jet(complex(S[l, k]), dS[:, l, k]) for k in range(m)]
               for l in range(m)]
    terms = {}
    for mono, coef in _jets_at(form, act(gamma, point)).terms.items():
        pulled = Jet(coef.value, S @ coef.grad)
        for assignment in product(range(m), repeat=len(mono)):
            jet = _jet_product([pulled] + [
                entries[l][k] for l, k in zip(assignment, mono)]) \
                if mono else pulled
            _add_term(terms, tuple(sorted(assignment)), jet)
    return FormPolynomial(point.g, terms)


def _substitute_basis(form, S):
    """Substitute dZ_K -> sum_L S[L, K] dZ_L into a numeric-coefficient
    form."""
    m = omega_size(form.g)
    linear = {}
    terms = {}
    for mono, coef in form.terms.items():
        expanded = FormPolynomial(form.g, {(): coef})
        for k in mono:
            if k not in linear:
                linear[k] = FormPolynomial(
                    form.g, {(l,): S[l, k] for l in range(m) if S[l, k] != 0})
            expanded = expanded * linear[k]
        for out_mono, out_coef in expanded.terms.items():
            _add_term(terms, out_mono, out_coef)
    return FormPolynomial(form.g, terms)


def _substitute_basis_chain(form, S):
    """_substitute_basis as a chain of + on whole forms."""
    m = omega_size(form.g)
    out = FormPolynomial(form.g, {})
    for mono, coef in form.terms.items():
        expanded = FormPolynomial(form.g, {(): coef})
        for k in mono:
            lin = FormPolynomial(form.g, {(l,): S[l, k] for l in range(m)
                                          if S[l, k] != 0})
            expanded = expanded * lin
        out = _form_sum(out, expanded)
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
        numeric = _apply_D_coefficients(gamma_closed(point), det_dz(g))
        forms = [numeric, FormPolynomial(g, _random_terms(g, rng, 8)),
                 FormPolynomial(g, _random_terms(g, rng, 8))]
        for form in forms:
            for matrix in (S, np.abs(S), cancelling):
                reference = _substitute_basis_chain(form, matrix)
                assert _same_terms(_substitute_basis(form, matrix),
                                   reference.terms)


def _gamma_act_reference(gamma, g, form):
    """_gamma_act_on_form with point-function coefficients: one product of
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
            got = _gamma_act_on_form(gamma, point, form)
            reference = _gamma_act_reference(gamma, g, form)
            assert list(got.terms) == list(reference)
            for jet, ref in zip(got.terms.values(), reference.values()):
                assert _zero_signless(jet.value) == \
                    _zero_signless(ref.value(point))
                assert _zero_signless(jet.grad) == \
                    _zero_signless(ref.gradient(point))


@pytest.mark.parametrize("g", [1, 2])
def test_evaluated_sides_match_the_coefficient_transport(g):
    # D(gamma . form) built at the point, and D(form) at gamma Z read at
    # S^t v, against the coefficient forms of the transport evaluated at
    # each probe v, within 1e-12 of the summed magnitude of each evaluated
    # side's terms: the left side's own, and for the right side the image
    # form with absolute coefficients at |S|^t |v|
    rng = np.random.default_rng(110 + g)
    v = probe_vectors(g)
    for point in _draws(g, 3):
        gamma = random_symplectic(g, 4, rng)
        image = act(gamma, point)
        S = pushforward_matrix(gamma, point)
        f = random_test_function(g, rng)
        last = omega_size(g) - 1
        forms = [det_dz(g).map_coefficients(lambda c: c * f),
                 FormPolynomial(g, {(0,): f, (0, last): 2.0,
                                    (): random_test_function(g, rng)})]
        for form in forms:
            jets = _jets_at(form, image)
            d_image = _apply_D_coefficients(gamma_closed(image), jets)
            left, left_size = _transported_D(gamma, point, jets)
            right = apply_D(gamma_closed(image), jets, v @ S)[0]
            right_size = d_image.map_coefficients(abs).evaluate(
                abs(v) @ abs(S)).real
            expected = (_apply_D_coefficients(
                            gamma_closed(point),
                            _gamma_act_on_form(gamma, point, form)),
                        _substitute_basis(d_image, S))
            for got, size, coefficients in zip(
                    (left, right), (left_size, right_size), expected):
                assert (abs(got - coefficients.evaluate(v))
                        <= 1e-12 * size).all()


# ------------------------------------------------------- random elements


def _draw_step_by_step(g, word_length, rng):
    """random_symplectic as a product of validated elements, each generator
    redrawn by a copy of its draw loop."""
    out = SymplecticElement.identity(g)
    for _ in range(word_length):
        kind = rng.integers(0, 3)
        if kind == 0:
            step = SymplecticElement.inversion(g)
        elif kind == 1:
            B = rng.integers(-2, 3, size=(g, g))
            step = SymplecticElement.translation(np.triu(B)
                                                 + np.triu(B, 1).T)
        else:
            U = np.eye(g, dtype=np.int64)
            for _ in range(int(rng.integers(1, 4))):
                i, j = rng.integers(0, g, size=2)
                if g > 1 and i == j:
                    j = (j + 1) % g
                if g == 1:
                    U[0, 0] *= -1 if rng.integers(0, 2) else 1
                else:
                    U[j, :] += int(rng.integers(-2, 3)) * U[i, :]
            step = SymplecticElement.unimodular(U)
        out = out @ step
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(g=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       word_length=st.integers(0, 12))
def test_word_expansion_matches_step_by_step_product(g, seed, word_length):
    rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
    drawn = random_symplectic(g, word_length, rng)
    reference = _draw_step_by_step(g, word_length, reference_rng)
    # the same draws, in the same order
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert drawn == reference
    assert drawn.matrix.tobytes() == reference.matrix.tobytes()
    for name in "ABCD":
        block = getattr(drawn, name)
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
            assert SymplecticElement(M).matrix.tobytes() == M.tobytes()
        else:
            with pytest.raises(ValueError, match="symplectic relation"):
                SymplecticElement(M)


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
    # one function coefficient and one number: both sides read the one
    # image of each point
    form = FormPolynomial(g, {(0, 2): f, (1,): 3.0})
    first = equivariance_residual(gamma, here, form)
    assert calls == [here]
    equivariance_residual(gamma, there, form)
    assert calls == [here, there]
    # the kept action gives what a fresh point computes
    fresh = SiegelPoint(g, here.X, here.Y)
    again = equivariance_residual(gamma, fresh, form)
    assert calls == [here, there, fresh]
    assert again == first


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
