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
that pattern, so the two stay independent derivations.

Paths A and B build neither dW nor dM: by the product rule of the pair
Gram, each sum over L folds into g x g matrices.  For I = (i1, i2) and
K = (k1, k2), path A is 2^{-delta(i1,i2)} (Q + Q^t)[i1, i2] with
Q = dR_J Mt_K R, Mt_K[l1, l2] = M[K, (l1, l2)] / 2, and path B is
-(P + P^t)[k1, k2] with P = dY_J Wt_I Y, Wt_I[l1, l2] = W[I, (l1, l2)]
halved off the diagonal.  dR and dY (``metric.dR_tensor``, ``dY_tensor``)
are i times real matrices, so the products are real and i is restored
once.  Each path is one BLAS product of a (m g, g) and a (g, g m) stack,
m^2 g^3 multiply-adds, then an (m, m, m) gather at the Omega pairs, where
contracting an m^3 derivative tensor took m^4.  BLAS sums in its own
order, so these tables agree with an index-order sum over L to a few ulps
of the magnitude of the summed terms.  ``gamma_closed``, B-expanded, W, M
and dM are index arithmetic in a fixed order, and the loop oracles in
``tests/test_loop_oracles.py`` pin them bit for bit.

The operator D acts on forms with function coefficients by
D(f dZ_{K_1}...dZ_{K_r}) = df dZ_{K_1}...dZ_{K_r}
+ sum_t f dZ_{K_1}...D(dZ_{K_t})...dZ_{K_r}, with
D(dZ_K) = -sum_{I,J} Gamma_IJ^K dZ_I dZ_J and df the holomorphic
differential only.

Everything is evaluated pointwise: a table holds numbers at its base point,
and a form's coefficients are numbers or jets there (``functions.Jet``, a
value and a holomorphic gradient), which is all that D reads.  D is never
multiplied out: ``apply_D`` evaluates D(form) at tangent vectors v, with
q_K(v) = -sum_{I,J} Gamma_IJ^K v_I v_J standing for D(dZ_K).  Its closed
forms are matrix formulas at V, the symmetric matrix of v:
D(dZ_K) = -i (V R V)[s, r] for K = (r, s), D(det dZ) = -i tr(R V) det V,
D(f det(dZ)^k) = tr(nabla_k f V) det(V)^k and
D(Tr(G dZ)) = tr(dG(V) V) - i tr(G V R V), with R = Y^{-1}.

Forms are compared, at one point and across gamma, by evaluation at the
fixed probe vectors v of the degree (``forms.probe_vectors``): with
S = S(gamma, Z) and w = S^t v, a form P at gamma Z transported to Z is
P(w), so no coefficient of a transported form is ever multiplied out.
"""

from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np

from .forms import FormPolynomial, det_dz, probe_vectors
from .functions import Jet
from .indexing import (Pair, coords_to_sym, covector_to_sym, omega_list,
                       omega_size, row_col_indices, sym_to_coords)
from .metric import dR_tensor, dY_tensor, metric_pair
from .operators import ModularExtension, nabla, relative_residual
from .symplectic import (SiegelPoint, SymplecticElement, _require_one_point,
                         act, pushforward_matrix,
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
    read-only, axes (K, I, J); DimensionError for a stack of points."""
    _require_one_point(point)
    g = point.g
    m = omega_size(g)
    R = metric_pair(point).R
    where, i, j, divisor = _closed_pattern(g)
    table = np.zeros((m, m, m), dtype=complex)
    table.flat[where] = 1j * R[i, j] / divisor
    table.setflags(write=False)
    return table


def _symmetrized_times_i(half: np.ndarray) -> np.ndarray:
    """i (half + half with I and J exchanged), with +0.0 real parts."""
    table = np.zeros(half.shape, dtype=complex)
    np.add(half, half.transpose(0, 2, 1), out=table.imag)
    return table


def _gamma_path_a(point: SiegelPoint) -> np.ndarray:
    # 2^{-delta(i1,i2)} (Q + Q^t)[i1, i2] with Q = dR_J Mt_K R
    g = point.g
    m = omega_size(g)
    pair = metric_pair(point)
    ii, jj = row_col_indices(g)
    # [(K, i2), a] = (R Mt_K)[i2, a] against [a, (i1, J)] = Im dR_J[a, i1]
    left = (pair.R @ (0.5 * coords_to_sym(pair.M, g))).reshape(m * g, g)
    right = dR_tensor(pair.R).imag.transpose(1, 2, 0).reshape(g, g * m)
    Q = (left @ right).reshape(m, g * g, m)  # [K, (i2, i1), J] = Im Q[i1, i2]
    half = Q[:, jj * g + ii]
    half += Q[:, ii * g + jj]
    half *= np.where(ii == jj, 0.5, 1.0)[:, None]
    return _symmetrized_times_i(half)


def _gamma_path_b(point: SiegelPoint) -> np.ndarray:
    # -(P + P^t)[k1, k2] with P = dY_J Wt_I Y
    g = point.g
    m = omega_size(g)
    ii, jj = row_col_indices(g)
    halved = np.where(ii == jj, 1.0, 0.5)
    Wt = coords_to_sym(metric_pair(point).W * halved, g)
    # [(k2, I), a] = (Y Wt_I)[k2, a] against [a, (k1, J)] = -Im dY_J[a, k1]
    left = (Wt.reshape(m * g, g) @ point.Y).reshape(m, g, g)
    left = left.transpose(2, 0, 1).reshape(g * m, g)
    right = -dY_tensor(g).imag.transpose(1, 2, 0).reshape(g, g * m)
    P = (left @ right).reshape(g, m, g, m)  # [k2, I, k1, J] = -Im P[k1, k2]
    half = P[jj, :, ii]
    half += P[ii, :, jj]
    return _symmetrized_times_i(half)


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
    axes (K, I, J); DimensionError for a stack of points."""
    _require_one_point(point)
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
    worst = 0.0
    for k, (p, q) in enumerate(pairs):
        for a, I in enumerate(pairs):
            for b, J in enumerate(pairs):
                got = complex(table[k, a, b])
                in_cross = (q in I and p in J) or (q in J and p in I)
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
    return relative_residual(left - right + dS, left, right, dS)


def apply_D(table: np.ndarray, form: FormPolynomial,
            v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D(form) at the table's base point, evaluated at each tangent vector
    of the stack v, shape (..., |Omega|); and the summed magnitude of its
    terms at each v, counting the m^2 products inside each q_K.

    Coefficients of the form are numbers or jets at that point.  With
    q_K = -sum_{I,J} Gamma_IJ^K v_I v_J, the value of D(c dZ^mu) at v is
    (grad c . v) v^mu + c sum_t q_{mu_t} v^{mu minus t}: the differential
    of the coefficient, and the derivative of the monomial along q."""
    v = np.asarray(v, dtype=complex)
    q = -np.einsum("kij,...i,...j->...k", table, v, v)
    q_size = np.einsum("kij,...i,...j->...k", np.abs(table), np.abs(v),
                       np.abs(v))
    value = np.zeros(v.shape[:-1], dtype=complex)
    size = np.zeros(v.shape[:-1])
    for mono, coef in form.terms.items():
        terms, sizes = [], []
        if isinstance(coef, Jet):
            terms.append((v @ coef.grad) * v[..., list(mono)].prod(axis=-1))
            sizes.append(np.abs(terms[-1]))
            coef = coef.value
        for t in range(len(mono)):
            rest = v[..., list(mono[:t] + mono[t + 1:])].prod(axis=-1)
            terms.append(coef * q[..., mono[t]] * rest)
            # |c| q_size |rest| bounds |term| but for rounding, which can
            # tip it below when q_K is a single product (g = 1)
            sizes.append(np.maximum(np.abs(terms[-1]), abs(coef)
                                    * q_size[..., mono[t]] * np.abs(rest)))
        value = value + sum(terms)
        size = size + sum(sizes)
    return value, size


def _trace(A: np.ndarray) -> np.ndarray:
    """The trace of a matrix, or of each matrix of a stack."""
    return np.trace(A, axis1=-2, axis2=-1)


def d_dz_closed(point: SiegelPoint, V: np.ndarray) -> np.ndarray:
    """-i V Y^{-1} V at the symmetric V, or at each matrix of a stack:
    entry [s, r] is D(dZ_K) at V for K = (r, s)."""
    return -1j * (V @ metric_pair(point).R @ V)


def d_det_closed(point: SiegelPoint, V: np.ndarray) -> np.ndarray:
    """D(det dZ) at V: -i Tr(Y^{-1} V) det V."""
    return -1j * _trace(metric_pair(point).R @ V) * np.linalg.det(V)


def d_f_detk(point: SiegelPoint, f, k: int, V: np.ndarray) -> np.ndarray:
    """Factored form of D(f det(dZ)^k) at V: Tr(nabla_k f V) det(V)^k,
    with nabla_k f = (grad - i k Y^{-1}) f at the point."""
    if k < 0:
        raise ValueError("determinant power must be >= 0")
    return _trace(nabla(f, point, k) @ V) * np.linalg.det(V) ** k


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


def d_trace_form(point: SiegelPoint, Gfield, V: np.ndarray) -> np.ndarray:
    """Closed form of D(Tr(G dZ)) at V for a symmetric matrix G of jets at
    the point, read as G[i][j]: Tr(dG(V) V) - i Tr(G V Y^{-1} V), with
    dG(V)_ij = Tr(dG_ij V) and dG_ij the gradient of G_ij read as a
    symmetric matrix, its off-diagonal entries halved."""
    g = point.g
    _require_symmetric_entries(Gfield, g)
    upper = [Gfield[i][j] for i, j in zip(*row_col_indices(g))]
    G = coords_to_sym(np.array([jet.value for jet in upper], dtype=complex),
                      g)
    partials = covector_to_sym([jet.grad for jet in upper], g)
    dG = coords_to_sym(np.einsum("akl,...lk->...a", partials, V), g)
    R = metric_pair(point).R
    return _trace(dG @ V) - 1j * _trace(G @ V @ R @ V)


def kron_trace(A, B, C, D) -> complex:
    """Tr((A kron B)(D kron C)) = Tr(AD) Tr(BC), the sum of
    a_ij b_kl c_lk d_ji, without forming the Kronecker products."""
    return complex(np.einsum("ij,kl,lk,ji->", A, B, C, D))


def _jets_at(form: FormPolynomial, point: SiegelPoint) -> FormPolynomial:
    """The form with each coefficient replaced by its jet at point: a
    point function's from Jet.at, a number's with a zero gradient."""
    zero = np.zeros(omega_size(point.g), dtype=complex)
    return form.map_coefficients(
        lambda c: Jet(complex(c), zero) if isinstance(c, numbers.Number)
        else Jet.at(c, point))


def _transported_D(gamma: SymplecticElement, point: SiegelPoint,
                   jets: FormPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """D(gamma . alpha) at point, evaluated at each probe vector v, for
    alpha = sum_mu f_mu dZ^mu given by its jets at gamma Z; and the summed
    magnitude of its terms at each v, the two parts of u counted apart.

    gamma . alpha is sum_mu f_mu(gamma Z) theta^mu with theta_K =
    sum_L S[L, K] dZ_L.  At v, theta is w = S^t v, the differential of
    f_mu(gamma Z) is grad f_mu . w, and D(theta)(v) is
    u = dS(V)^t v - S^t q with V the matrix of v and
    q_K = sum_{I,J} Gamma_IJ^K(Z) v_I v_J; so the value is
    sum_mu (grad f_mu . w) w^mu + f_mu sum_t u_{mu_t} w^{mu minus t}."""
    v = probe_vectors(point.g)
    S = pushforward_matrix(gamma, point)
    dS = np.stack([pushforward_matrix_derivative(gamma, point, V)
                   for V in coords_to_sym(v, point.g)])
    q = np.einsum("kij,pi,pj->pk", gamma_closed(point), v, v)
    w = v @ S
    # u = dS(V)^t v - S^t q, kept as its two parts
    parts = (np.einsum("pl,plk->pk", v, dS), -(q @ S))
    value, size = np.zeros(len(v), dtype=complex), np.zeros(len(v))
    for mono, jet in jets.terms.items():
        terms = [(w @ jet.grad) * w[:, list(mono)].prod(axis=-1)]
        for t in range(len(mono)):
            rest = w[:, list(mono[:t] + mono[t + 1:])].prod(axis=-1)
            terms += [jet.value * part[:, mono[t]] * rest for part in parts]
        value = value + sum(terms)
        size = size + sum(np.abs(term) for term in terms)
    return value, size


def equivariance_residual(gamma: SymplecticElement, point: SiegelPoint,
                          form: FormPolynomial) -> float:
    """Largest defect between D(gamma . form) and gamma . (D form) at the
    probe vectors v of the degree, both with the closed-form coefficients.
    The left side is built at the point (_transported_D); the right side is
    apply_D at gamma Z, evaluated at w = S^t v.  The defect is normalized
    by the larger of the two sides and the summed magnitude of the left
    side's terms over the probes (floored at 1), which is unbounded over
    random group elements."""
    image = act(gamma, point)
    jets = _jets_at(form, image)
    left, size = _transported_D(gamma, point, jets)
    w = probe_vectors(point.g) @ pushforward_matrix(gamma, point)
    right = apply_D(gamma_closed(image), jets, w)[0]
    return relative_residual(left - right, left, right, size)


def invariance_residual(gamma: SymplecticElement, point: SiegelPoint, f,
                        k: int) -> float:
    """Invariance defect of D(f det(dZ)^k) along gamma, for f extended to a
    function transforming with determinant weight 2k (see
    operators.ModularExtension).  The two evaluations agree exactly for the
    Levi-Civita table, here the closed form; the residual is the largest
    numeric defect between D at the point, evaluated at each probe vector
    v, and D at gamma Z, evaluated at w = S^t v.

    Normalization: the image-side coefficients carry determinant weight
    factors that cancel during the pullback, so the defect is measured
    against the summed magnitude of D's terms on both sides (floored at
    1), not against the values, which cancel.
    """
    image = act(gamma, point)
    extension = ModularExtension(f, 2 * k, gamma)
    v = probe_vectors(point.g)
    here = _d_f_det_power(gamma_closed(point), f, k, point, v)
    there = _d_f_det_power(gamma_closed(image), extension, k, image,
                           v @ pushforward_matrix(gamma, point))
    return relative_residual(here[0] - there[0], here[1], there[1])


def _d_f_det_power(table: np.ndarray, f, k: int, point: SiegelPoint,
                   v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D(f det(dZ)^k) at point, k >= 1, and its summed term magnitude, at
    each tangent vector of the stack v.  For k > 1, D is a derivation:
    D(f det^k) = D(f det) P + (k - 1) f P D(det), P = det(dZ)^(k-1), and
    det(dZ) with |coefficients| at |v|, to the k - 1, bounds P's terms."""
    jet = Jet.at(f, point)
    det = det_dz(point.g)
    value, size = apply_D(table, det.map_coefficients(lambda c: c * jet), v)
    if k == 1:
        return value, size
    d_det, d_det_size = apply_D(table, det, v)
    power = det.evaluate(v) ** (k - 1)
    power_size = det.map_coefficients(abs).evaluate(np.abs(v)).real ** (k - 1)
    return (value * power + (k - 1) * jet.value * power * d_det,
            (size + (k - 1) * abs(jet.value) * d_det_size) * power_size)
