"""Connection coefficients on the Siegel upper half space and the induced
degree-raising operator D on the dZ algebra.

The coefficients Gamma_IJ^K of the Levi-Civita connection of the invariant
metric are produced three independent ways:

* ``gamma_closed`` -- the closed form: for K = (r, s), the entry is
  i R_ij / 2^{(1-delta(r,s))(1-delta(I,J))} when one of I, J lies in the
  column cross Omega_s and the other in the row cross Omega_r (i and j are
  the complementary indices of I and J in those crosses), and 0 otherwise.
* ``gamma_from_metric(path="A")`` -- (1/2) sum_L M_KL (dW_IL/dZ_J + dW_JL/dZ_I).
* ``gamma_from_metric(path="B")`` -- the same after trading the W-derivative
  for an M-derivative, -(1/2) sum_L (dM_KL/dZ_J W_IL + dM_KL/dZ_I W_JL);
  ``path="B-expanded"`` evaluates the fully expanded eight-term delta/R
  expression of that sum.

Each derivation returns its table as a read-only (m, m, m) complex array
with axes (K, I, J), Omega-ordered.  ``gamma_closed`` scatters
i R_ij / 2^e into a pattern of (K, I, J) positions, R entries and divisors
built once per degree; the B-expanded path evaluates its own delta/R
expression over broadcast (K, I, J) index grids and shares nothing with
that pattern, so the two stay independent derivations.  Paths A and B
contract over L with stacked BLAS matrix products (M dW[I] for each I,
W dM[K] for each K).  BLAS sums in its own blocked order, so their tables
are not bit-equal to an index-order sum (or to the einsum these paths once
used); they agree with it to a few ulps of the magnitude of the summed
terms.  ``gamma_closed``, B-expanded, W, M, dW and dM are index arithmetic
in a fixed order, and the loop oracles in ``tests/test_loop_oracles.py``
pin them bit for bit.

The operator D acts on forms with function coefficients by
D(f dZ_{K_1}...dZ_{K_r}) = df dZ_{K_1}...dZ_{K_r}
+ sum_t f dZ_{K_1}...D(dZ_{K_t})...dZ_{K_r}, with
D(dZ_K) = -sum_{I,J} Gamma_IJ^K dZ_I dZ_J and df the holomorphic
differential only.

Everything is evaluated pointwise: a table holds numbers at its base point,
and a form's coefficients are numbers or jets there (``functions.Jet``, a
value and a holomorphic gradient), which is all that D reads.  ``apply_D``
adds every term into one dictionary, in the order of the sum above.
``gamma_act_on_form`` builds its jets from one gamma Z, one S(gamma, Z) and
one set of its derivatives at the point: a pulled-back coefficient is
(f(gamma Z), S grad f(gamma Z)) and a cocycle entry is (S[L, K], dS[:, L, K]).
"""

from __future__ import annotations

import numbers
from functools import lru_cache
from itertools import product

import numpy as np

from .forms import (FormPolynomial, add_term, det_dz, max_coefficient_diff,
                    substitute_basis, trace_form)
from .functions import Jet
from .indexing import (Pair, entry_positions, omega_list, omega_size,
                       row_col_indices, sym_to_coords)
from .metric import dM_tensor, dW_tensor, metric_pair
from .operators import ModularExtension, sym_gradient
from .symplectic import (SiegelPoint, SymplecticElement, act,
                         pushforward_derivatives, pushforward_matrix,
                         pushforward_matrix_derivative)


@lru_cache(maxsize=16)
def _closed_pattern(g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]:
    """Where the closed form is nonzero, built once per degree: the flat
    (K, I, J) positions, the 0-based R entry (i, j) of each and its divisor
    2^{(1-delta(r,s))(1-delta(I,J))}.

    For K = (r, s), i completes I against s and j completes J against r;
    where that fails, the mirrored assignment (J against s, I against r) is
    tried, so a triple that fits both takes the first."""
    ii, jj = row_col_indices(g)
    r, s = ii[:, None, None], jj[:, None, None]
    I = ii[None, :, None], jj[None, :, None]
    J = ii[None, None, :], jj[None, None, :]

    def complement(pair, axis):
        # whether axis is in the pair, and the index completing it there
        a, b = pair
        return (a == axis) | (b == axis), np.where(a == axis, b, a)

    (i_in, i1), (j_in, j1) = complement(I, s), complement(J, r)
    (i_in2, i2), (j_in2, j2) = complement(J, s), complement(I, r)
    first = i_in & j_in
    hit = first | (i_in2 & j_in2)
    halved = (r != s) & ~np.eye(ii.size, dtype=bool)
    out = (np.flatnonzero(hit), np.where(first, i1, i2)[hit],
           np.where(first, j1, j2)[hit],
           np.where(np.broadcast_to(halved, hit.shape)[hit], 2.0, 1.0))
    for a in out:
        a.setflags(write=False)
    return out


def gamma_closed(point: SiegelPoint) -> np.ndarray:
    """Closed-form coefficient table of the invariant Levi-Civita connection,
    read-only, axes (K, I, J)."""
    g = point.g
    m = omega_size(g)
    R = metric_pair(point).R
    where, i, j, divisor = _closed_pattern(g)
    table = np.zeros((m, m, m), dtype=complex)
    table.flat[where] = 1j * R[i, j] / divisor
    table.setflags(write=False)
    return table


def _gamma_path_a(point: SiegelPoint) -> np.ndarray:
    pair = metric_pair(point)
    dW = dW_tensor(pair)  # dW[I, L, J]
    # one matrix product per I: (M dW[I])[K, J], then axes to (K, I, J)
    half = 0.5 * (pair.M @ dW).transpose(1, 0, 2)
    return half + half.transpose(0, 2, 1)


def _gamma_path_b(point: SiegelPoint) -> np.ndarray:
    pair = metric_pair(point)
    dM = dM_tensor(pair)  # dM[K, L, J]
    # one matrix product per K: (W dM[K])[I, J]
    half = -0.5 * (pair.W @ dM)
    return half + half.transpose(0, 2, 1)


def _gamma_path_b_expanded(point: SiegelPoint) -> np.ndarray:
    # axes (K, I, J) = ((p, q), (i, j), (r, s)), 0-based; sums accumulate
    # in place, in the order of the expression, so few (m, m, m)
    # temporaries are alive at once
    R = metric_pair(point).R
    ii, jj = row_col_indices(point.g)
    p, q = ii[:, None, None], jj[:, None, None]
    i, j = ii[None, :, None], jj[None, :, None]
    r, s = ii[None, None, :], jj[None, None, :]

    def delta(a, b):
        return (a == b).astype(int)

    def bracket(subject, u, v, y):
        # delta(subject,u) R_{y v} + delta(subject,v) R_{y u}
        #   - delta(subject,u) delta(subject,v) R_{y v}
        du, dv = delta(subject, u), delta(subject, v)
        out = du * R[y, v]
        out += dv * R[y, u]
        out -= du * dv * R[y, v]
        return out

    first = delta(q, j) * bracket(p, r, s, i)
    first += delta(q, i) * bracket(p, r, s, j)
    first += delta(p, i) * bracket(q, r, s, j)
    first += delta(p, j) * bracket(q, r, s, i)
    table = 1j / 2.0 ** (2 + delta(i, j)) * first
    del first
    second = delta(q, s) * bracket(p, i, j, r)
    second += delta(q, r) * bracket(p, i, j, s)
    second += delta(p, r) * bracket(q, i, j, s)
    second += delta(p, s) * bracket(q, i, j, r)
    table += 1j / 2.0 ** (2 + delta(r, s)) * second
    return table


def gamma_from_metric(point: SiegelPoint, path: str = "A") -> np.ndarray:
    """Levi-Civita coefficients derived from the metric matrices, read-only,
    axes (K, I, J)."""
    if path == "A":
        table = _gamma_path_a(point)
    elif path == "B":
        table = _gamma_path_b(point)
    elif path == "B-expanded":
        table = _gamma_path_b_expanded(point)
    else:
        raise ValueError(f"unknown derivation path {path!r}")
    table.setflags(write=False)
    return table


def case_analysis_residual(point: SiegelPoint) -> float:
    """Exhaustively re-derive the closed-form table from its case analysis.

    For K = (p, p): whenever I and J share the index p, the entry is i R_xy
    with x, y the complementary indices.  For K = (p, q), p < q, with
    I = (p, j) in the row of K and J = (r, q) in its column (or the mirror
    assignment), the entry is i R_pq when j = q and r = p, and i R_jr / 2
    otherwise.  Entries outside the row/column crosses vanish.  Returns the
    max absolute discrepancy against gamma_closed (0.0 expected: both sides
    are assembled from the same R entries).
    """
    g = point.g
    pairs = omega_list(g)
    R = metric_pair(point).R
    table = gamma_closed(point)

    def contains(pair: Pair, x: int) -> bool:
        return pair[0] == x or pair[1] == x

    worst = 0.0
    for k, (p, q) in enumerate(pairs):
        for a, I in enumerate(pairs):
            for b, J in enumerate(pairs):
                got = complex(table[k, a, b])
                in_cross = ((contains(I, q) and contains(J, p))
                            or (contains(J, q) and contains(I, p)))
                if not in_cross:
                    worst = max(worst, abs(got))
                    continue
                expected = _bullet_values(p, q, I, J, R)
                for value in expected:
                    worst = max(worst, abs(got - value))
    return worst


def _bullet_values(p: int, q: int, I: Pair, J: Pair, R) -> list[complex]:
    """All case-analysis values whose hypotheses hold for (K, I, J)."""
    i, j = I
    r, s = J
    out: list[complex] = []
    if p == q:
        if i == r == p:
            out.append(1j * R[j - 1, s - 1])
        if i == s == p:
            out.append(1j * R[j - 1, r - 1])
        if j == r == p:
            out.append(1j * R[i - 1, s - 1])
        if j == s == p:
            out.append(1j * R[i - 1, r - 1])
        return out
    for (i1, j1), (r1, s1) in (((i, j), (r, s)), ((r, s), (i, j))):
        # (i1, j1) in the row of Z_pq, (r1, s1) in its column
        if i1 != p or s1 != q:
            continue
        if i1 == j1:
            out.append(0.5j * R[j1 - 1, r1 - 1])
        elif j1 == q and r1 == p:
            out.append(1j * R[p - 1, q - 1])
        else:
            out.append(0.5j * R[j1 - 1, r1 - 1])
    return out


def connection_matrix_contracted(table: np.ndarray,
                                 coords: np.ndarray) -> np.ndarray:
    """omega(V): entry (I, J) is sum_K Gamma_IK^J coords_K (I row, J column)."""
    # table axes are (K, I, J): omega_I^J = sum_K Gamma[J][I][K] dZ_K
    return np.einsum("jik,k->ij", table, coords)


def mcc_residual(gamma: SymplecticElement, point: SiegelPoint,
                 V: np.ndarray) -> float:
    """Max-norm defect of S . omega'(V') - omega(V) . S + dS(V), where the
    primes are the closed-form coefficients at gamma(Z) contracted with the
    pushed-forward tangent.  Vanishes for a family satisfying the modular
    transformation law.

    Normalized by the magnitude of the three law terms (floored at 1):
    their scale grows without bound along ill-conditioned group elements,
    so only a scale-aware defect supports a fixed tolerance.
    """
    S = pushforward_matrix(gamma, point)
    dS = pushforward_matrix_derivative(gamma, point, V)
    image = act(gamma, point)
    coords = sym_to_coords(np.asarray(V, dtype=complex))
    coords_image = coords @ S
    omega_here = connection_matrix_contracted(gamma_closed(point), coords)
    omega_image = connection_matrix_contracted(gamma_closed(image),
                                               coords_image)
    left = S @ omega_image
    right = omega_here @ S
    residual = left - right + dS
    scale = max(1.0, float(np.abs(left).max()), float(np.abs(right).max()),
                float(np.abs(dS).max()))
    return float(np.abs(residual).max()) / scale


def curvature_quadratics(table: np.ndarray, g: int) -> list[FormPolynomial]:
    """D(dZ_K) = -sum_{I,J} Gamma_IJ^K dZ_I dZ_J for each K, as forms of
    degree g."""
    a, b = np.triu_indices(table.shape[0])
    upper = table[:, a, b]
    coefs = 0j + np.where(a == b, -upper, -2.0 * upper)
    monos = list(zip(a.tolist(), b.tolist()))
    return [FormPolynomial.canonical(g, dict(zip(monos, row)))
            for row in coefs.tolist()]


def apply_D(table: np.ndarray, form: FormPolynomial) -> FormPolynomial:
    """Evaluate D(form) at the table's base point.

    Coefficients of the input are numbers or jets at that point; the output
    has numeric coefficients.  The holomorphic differential of a jet is its
    gradient over the upper-triangle coordinates.  Terms are accumulated
    into one dictionary, in the order of the sum
    df dZ_{K_1}...dZ_{K_r} + sum_t f dZ_{K_1}...D(dZ_{K_t})...dZ_{K_r}.
    """
    quadratics = curvature_quadratics(table, form.g)
    out: dict = {}
    for mono, coef in form.terms.items():
        if isinstance(coef, Jet):
            cval = complex(coef.value)
            for pos, d in enumerate(coef.grad):
                if d != 0:
                    add_term(out, tuple(sorted(mono + (pos,))), d)
        else:
            cval = complex(coef)
        if cval == 0:
            continue
        for t in range(len(mono)):
            rest = mono[:t] + mono[t + 1:]
            for m2, c2 in quadratics[mono[t]].terms.items():
                c = cval * c2
                if c != 0:
                    add_term(out, tuple(sorted(rest + m2)), c)
    return FormPolynomial.canonical(form.g, out)


def d_dz_closed(point: SiegelPoint, K: Pair) -> FormPolynomial:
    """-i (dZ_s.) Y^{-1} (dZ_r.)^t for K = (r, s): the closed quadratic."""
    g = point.g
    R = metric_pair(point).R
    r, s = K
    pos = entry_positions(g)
    terms: dict = {}
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            mono = tuple(sorted((pos[s, i], pos[r, j])))
            c = -1j * R[i - 1, j - 1]
            terms[mono] = terms.get(mono, 0j) + c
    return FormPolynomial(g, terms)


def d_det_closed(point: SiegelPoint) -> FormPolynomial:
    """-i Tr(Y^{-1} dZ) det(dZ)."""
    R = metric_pair(point).R
    return trace_form(R, point.g).scale(-1j) * det_dz(point.g)


def d_f_detk(point: SiegelPoint, f, k: int) -> FormPolynomial:
    """Factored form of D(f det(dZ)^k):
    Tr([grad - i k Y^{-1}] f dZ) det(dZ)^k, expanded as a form with numeric
    coefficients at the point."""
    if k < 0:
        raise ValueError("determinant power must be >= 0")
    g = point.g
    R = metric_pair(point).R
    nab = sym_gradient(f, point) - 1j * k * f.value(point) * R
    return trace_form(nab, g) * _det_power(g, k)


def _det_power(g: int, k: int) -> FormPolynomial:
    """det(dZ)^k, multiplied out from the scalar 1."""
    out = FormPolynomial.scalar(g, 1.0 + 0j)
    for _ in range(k):
        out = out * det_dz(g)
    return out


def _require_symmetric_entries(Gfield, g: int) -> None:
    """Entries (i, j) and (j, i) must be one jet, or equal in value and in
    gradient."""
    for i in range(g):
        for j in range(i + 1, g):
            a, b = Gfield[i][j], Gfield[j][i]
            if a is b or (a.value == b.value
                          and np.array_equal(a.grad, b.grad)):
                continue
            raise ValueError("matrix of jets must be symmetric")


def d_trace_form(point: SiegelPoint, Gfield) -> FormPolynomial:
    """Closed form of D(Tr(G dZ)) for a symmetric matrix G of jets at the
    point, read as G[i][j]: the Kronecker-product derivative term plus the
    curvature correction -i Tr(G dZ Y^{-1} dZ), with numeric coefficients
    at the point."""
    g = point.g
    pos = entry_positions(g)
    R = metric_pair(point).R
    _require_symmetric_entries(Gfield, g)

    grads = {}
    values = np.empty((g, g), dtype=complex)
    for i in range(1, g + 1):
        for j in range(i, g + 1):
            jet = Gfield[i - 1][j - 1]
            values[i - 1, j - 1] = values[j - 1, i - 1] = jet.value
            grads[i, j] = grads[j, i] = jet.grad

    terms: dict = {}

    def add(mono, c):
        if c != 0:
            mono = tuple(sorted(mono))
            terms[mono] = terms.get(mono, 0j) + c

    # sum_{i,j,k,l} partial_kl G_ij dZ_kl dZ_ji with the symmetrized partials
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            grad = grads[i, j]
            for k in range(1, g + 1):
                for l in range(1, g + 1):
                    partial = grad[pos[k, l]]
                    if k != l:
                        partial = partial / 2.0
                    add((pos[k, l], pos[j, i]), partial)

    # -i Tr(G dZ Y^{-1} dZ)
    for x in range(1, g + 1):
        for u in range(1, g + 1):
            for w in range(1, g + 1):
                for v in range(1, g + 1):
                    c = -1j * values[x - 1, u - 1] * R[w - 1, v - 1]
                    add((pos[u, w], pos[v, x]), c)

    return FormPolynomial(g, terms)


def kron_trace(A, B, C, D) -> complex:
    """Tr((A kron B)(C kron D)) without forming the Kronecker products."""
    return complex(np.einsum("ij,kl,lk,ji->", A, B, C, D))


def _jets_at(form: FormPolynomial, point: SiegelPoint) -> FormPolynomial:
    """The form with each coefficient replaced by its jet at point: a
    point function's from Jet.at, a number's with a zero gradient."""
    zero = np.zeros(omega_size(point.g), dtype=complex)
    return form.map_coefficients(
        lambda c: Jet(complex(c), zero) if isinstance(c, numbers.Number)
        else Jet.at(c, point))


def gamma_act_on_form(gamma: SymplecticElement, point: SiegelPoint,
                      form: FormPolynomial) -> FormPolynomial:
    """gamma . form at point, for a form with number or point-function
    coefficients: each coefficient is pulled back through gamma, and each
    generator dZ_K becomes sum_L S[L, K] dZ_L.  The result has jet
    coefficients at point: a pullback is (f(gamma Z), S grad f(gamma Z)), a
    cocycle entry is (S[L, K], dS[:, L, K]), and a term is the jet product
    of its pullback and its entries."""
    m = omega_size(point.g)
    S = pushforward_matrix(gamma, point)
    dS = pushforward_derivatives(gamma, point)
    entries = [[Jet(complex(S[l, k]), dS[:, l, k]) for k in range(m)]
               for l in range(m)]
    terms: dict = {}
    for mono, coef in _jets_at(form, act(gamma, point)).terms.items():
        pulled = Jet(coef.value, S @ coef.grad)
        for assignment in product(range(m), repeat=len(mono)):
            jet = Jet.product([pulled] + [
                entries[l][k] for l, k in zip(assignment, mono)]) \
                if mono else pulled
            add_term(terms, tuple(sorted(assignment)), jet)
    return FormPolynomial.canonical(point.g, terms)


def _coefficient_scale(*forms: FormPolynomial) -> float:
    scale = 1.0
    for form in forms:
        for coef in form.terms.values():
            scale = max(scale, abs(complex(coef)))
    return scale


def equivariance_residual(gamma: SymplecticElement, point: SiegelPoint,
                          form: FormPolynomial) -> float:
    """Max coefficient discrepancy between D(gamma . form) and
    gamma . (D form), both evaluated with the closed-form coefficients at
    the given point and normalized by the coefficient scale (floored at 1),
    which is unbounded over random group elements."""
    image = act(gamma, point)
    # D(gamma . form) at the point
    lhs = apply_D(gamma_closed(point), gamma_act_on_form(gamma, point, form))
    # gamma . (D form): evaluate D(form) at gamma(Z), transport the basis
    d_at_image = apply_D(gamma_closed(image), _jets_at(form, image))
    rhs = substitute_basis(d_at_image, pushforward_matrix(gamma, point))
    return max_coefficient_diff(lhs, rhs) / _coefficient_scale(lhs, rhs)


def invariance_residual(gamma: SymplecticElement, point: SiegelPoint, f,
                        k: int) -> float:
    """Invariance defect of D(f det(dZ)^k) along gamma, for f extended to a
    function transforming with determinant weight 2k (see
    operators.ModularExtension).  The two evaluations agree exactly for the
    Levi-Civita table, here the closed form; the residual is the numeric
    defect.

    Normalization: the image-side coefficients carry determinant weight
    factors that cancel during the pullback, so the defect is measured
    against the absolute-value transport (the roundoff ceiling of that
    cancellation), floored at 1.
    """
    image = act(gamma, point)
    extension = ModularExtension(f, 2 * k, gamma)
    alpha_here = _f_det_form(f, k, point)
    alpha_image = _f_det_form(extension, k, image)
    here = apply_D(gamma_closed(point), alpha_here)
    d_image = apply_D(gamma_closed(image), alpha_image)
    S = pushforward_matrix(gamma, point)
    transported = substitute_basis(d_image, S)
    ceiling = substitute_basis(
        d_image.map_coefficients(lambda c: abs(complex(c))), np.abs(S))
    scale = max(_coefficient_scale(here, transported),
                _coefficient_scale(ceiling))
    return max_coefficient_diff(here, transported) / scale


def _f_det_form(f, k: int, point: SiegelPoint) -> FormPolynomial:
    """f det(dZ)^k at point: det(dZ)^k with each coefficient scaled by the
    jet of the point function f there."""
    jet = Jet.at(f, point)
    return _det_power(point.g, k).map_coefficients(lambda c: c * jet)
