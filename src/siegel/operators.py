"""Weight-raising derivative operators on (locally extended) modular forms.

The basic operator sends a scalar function f to the symmetric matrix
nabla_k f = (grad f) - k G(Z) f, where grad is the symmetrized holomorphic
gradient (off-diagonal entries carry a factor 1/2 so that
df = Tr(grad f . dZ)) and G defaults to i Y^{-1}.  For G satisfying the
transformation law (CZ+D)^{-1} G(gamma Z) = G(Z)(CZ+D)^t + 2 C^t these
operators intertwine the weight-2k and matrix-weight actions, and their
determinants raise determinant weight 2k to 2gk+2.

Modularity is never assumed of the test inputs; instead a ModularExtension
realizes the transformation hypothesis exactly along one group element, so
transformation laws become machine-checkable identities for arbitrary
holomorphic polynomials.
"""

from __future__ import annotations

import numpy as np

from .functions import _point_matrix, coefficient_value, fd_gradient
from .indexing import (basis_matrix, coords_to_sym, omega_list, omega_size,
                       row_col_indices)
from .metric import metric_pair
from .symplectic import (SiegelPoint, SymplecticElement, act,
                         pushforward_matrix)


def sym_gradient(f, point: SiegelPoint) -> np.ndarray:
    """Symmetrized gradient matrix: entry (i, j) is d f / dZ_ij weighted by
    1/2 off the diagonal."""
    return _sym_from_coords(f.gradient(point), point.g)


class ImInverseField:
    """The non-holomorphic matrix i (Im Z)^{-1} with exact entry rules."""

    def value(self, point: SiegelPoint) -> np.ndarray:
        return 1j * metric_pair(point).R

    def entry_matrix(self, g: int) -> list:
        entries = [[None] * g for _ in range(g)]
        for p in range(1, g + 1):
            for q in range(p, g + 1):
                fn = _ImInverseEntry(g, p, q)
                entries[p - 1][q - 1] = entries[q - 1][p - 1] = fn
        return entries


class _ImInverseEntry:
    """Entry (p, q) of i (Im Z)^{-1} as a point function."""

    def __init__(self, g: int, p: int, q: int):
        self.g = g
        self.p = p
        self.q = q

    def value(self, point) -> complex:
        return complex(1j * metric_pair(point).R[self.p - 1, self.q - 1])

    def gradient(self, point) -> np.ndarray:
        # d(i R)/dZ_J = i (i/2) R E_J R = -(1/2) R E_J R
        R = metric_pair(point).R
        out = np.empty(omega_size(self.g), dtype=complex)
        for pos, pair in enumerate(omega_list(self.g)):
            E = basis_matrix(pair, self.g)
            out[pos] = -0.5 * (R @ E @ R)[self.p - 1, self.q - 1]
        return out


class PolynomialMatrixField:
    """Symmetric matrix of scalar point functions."""

    def __init__(self, entries):
        from .connection import _require_symmetric_entries
        self.entries = [list(row) for row in entries]
        g = len(self.entries)
        for i in range(g):
            if len(self.entries[i]) != g:
                raise ValueError("entries must form a square matrix")
        _require_symmetric_entries(self.entries, g)

    def value(self, point) -> np.ndarray:
        g = len(self.entries)
        out = np.empty((g, g), dtype=complex)
        for i in range(g):
            for j in range(g):
                out[i, j] = coefficient_value(self.entries[i][j], point)
        return out


class ScalarFunctionField:
    """Degree-one matrix field built from a complex function z -> c(z)."""

    def __init__(self, value_fn):
        self.value_fn = value_fn

    def value(self, point) -> np.ndarray:
        z = complex(point.Z[0, 0])
        return np.array([[self.value_fn(z)]], dtype=complex)


class QSeriesFunction:
    """Degree-one point function backed by an exact q-expansion.

    The gradient uses f'(z) = 2 pi i (theta f)(z), exact at the series level.
    """

    def __init__(self, series, n_terms: int | None = None):
        self.g = 1
        self.series = series.truncate(n_terms) if n_terms else series
        self.theta_series = self.series.theta()

    def value(self, point) -> complex:
        from .qseries import evaluate
        zs = _point_matrix(point)[..., 0, 0]
        values = [evaluate(self.series, complex(z)) for z in zs.flat]
        return np.array(values).reshape(zs.shape)[()]

    def gradient(self, point) -> np.ndarray:
        from .qseries import evaluate
        z = complex(point.Z[0, 0]) if hasattr(point, "Z") else complex(point[0, 0])
        return np.array([2j * np.pi * evaluate(self.theta_series, z)])


def ig2_field(n_terms: int = 300) -> ScalarFunctionField:
    """The holomorphic degree-one field i G2 = i (pi/3) E2, evaluated from
    its q-expansion."""
    from .qseries import evaluate, g2_series
    tagged = g2_series(n_terms)
    return ScalarFunctionField(lambda z: 1j * evaluate(tagged, z))


def nabla(f, point: SiegelPoint, k: int, G=None) -> np.ndarray:
    """(grad - k G) f at the point; G defaults to i Y^{-1}."""
    if k < 0:
        raise ValueError("weight parameter must be >= 0")
    field = G if G is not None else ImInverseField()
    return sym_gradient(f, point) - k * field.value(point) * f.value(point)


def det_nabla(f, point: SiegelPoint, k: int, G=None) -> complex:
    return complex(np.linalg.det(nabla(f, point, k, G)))


class ModularExtension:
    """F(W) = det(C Z(W) + D)^{2k} f(Z(W)) with Z(W) = gamma^{-1}(W).

    By construction F(gamma Z) = det(C Z + D)^{2k} f(Z), so F realizes the
    weight-2k transformation hypothesis along gamma.  The gradient is exact
    (chain rule through the inverse element); a finite-difference gradient
    is kept as an independent check.
    """

    def __init__(self, f, weight: int, gamma: SymplecticElement):
        if weight % 2 != 0 or weight < 0:
            raise ValueError("weight must be an even nonnegative integer")
        self.f = f
        self.g = gamma.g
        self.weight = weight
        self.gamma = gamma
        self.mu = gamma.inverse()

    def _parts(self, point: SiegelPoint):
        base = act(self.mu, point)
        den = self.gamma.C @ base.Z + self.gamma.D
        return base, den

    def value(self, point) -> complex:
        """F at a point, or at every point of a stack."""
        base, den = self._parts(point)
        return np.linalg.det(den) ** self.weight * self.f.value(base)

    def gradient(self, point) -> np.ndarray:
        base, den = self._parts(point)
        det_pow = np.linalg.det(den) ** self.weight
        P = np.linalg.solve(den, self.gamma.C.astype(complex))
        S_mu = pushforward_matrix(self.mu, point)
        fval = self.f.value(base)
        fgrad = self.f.gradient(base)
        out = np.empty(omega_size(self.g), dtype=complex)
        chain = S_mu @ fgrad
        for pos in range(out.size):
            T = coords_to_sym(S_mu[pos, :], self.g)
            out[pos] = det_pow * (self.weight * np.trace(P @ T) * fval
                                  + chain[pos])
        return out

    def gradient_fd(self, point, h: float | None = None) -> np.ndarray:
        # Richardson-extrapolated fourth-order stencils at an adaptively
        # chosen step: deep images of long words are truncation-dominated
        # (want small steps) while ill-conditioned inverse cocycles are
        # noise-dominated (want large ones); the stencil pair that agrees
        # better wins
        if h is None:
            scale = float(np.abs(point.Z).max())
            h = 2e-5 * (1.0 + 0.01 * scale)
            h = min(h, 0.04 * float(np.linalg.eigvalsh(point.Y).min()))
        stencils = [fd_gradient(self.value, point, h * f, order=4)
                    for f in (0.5, 1.0, 2.0)]
        spread_small = float(np.abs(stencils[0] - stencils[1]).max())
        spread_big = float(np.abs(stencils[1] - stencils[2]).max())
        if spread_small <= spread_big:
            return (16.0 * stencils[0] - stencils[1]) / 15.0
        return (16.0 * stencils[1] - stencils[2]) / 15.0


def verify_G_law(G, gamma: SymplecticElement, point: SiegelPoint) -> float:
    """Max-norm defect of (CZ+D)^{-1} G(gamma Z) - G(Z)(CZ+D)^t - 2 C^t,
    normalized by the magnitude of the two sides (floored at 1)."""
    den = gamma.C @ point.Z + gamma.D
    lhs = np.linalg.solve(den, G.value(act(gamma, point)))
    rhs = G.value(point) @ den.T + 2.0 * gamma.C.T
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max()) / scale


def _transform_frame(gamma: SymplecticElement, point: SiegelPoint):
    Z = point.Z
    j = gamma.C @ Z + gamma.D
    jt = Z @ gamma.C.T + gamma.D.T
    return j, jt, complex(np.linalg.det(j))


def verify_nabla_transform(f, gamma: SymplecticElement, point: SiegelPoint,
                           k: int, G=None, grad: str = "exact") -> float:
    """Residual of nabla_k F (gamma Z) = det(CZ+D)^{2k} (CZ+D) nabla_k f(Z)
    (ZC^t+D^t), with F the weight-2k extension of f along gamma.

    The max-norm defect is normalized by the magnitude of the compared
    sides (floored at 1): the determinant weight factor makes the raw scale
    unbounded over random group elements, so only a scale-aware residual
    supports a fixed tolerance.
    """
    field = G if G is not None else ImInverseField()
    extension = ModularExtension(f, 2 * k, gamma)
    image = act(gamma, point)
    j, jt, detj = _transform_frame(gamma, point)
    if grad == "exact":
        lhs = (sym_gradient(extension, image)
               - k * field.value(image) * extension.value(image))
        here = nabla(f, point, k, field)
    elif grad == "fd":
        lhs = (_sym_from_coords(extension.gradient_fd(image), point.g)
               - k * field.value(image) * extension.value(image))
        here = (_sym_from_coords(fd_gradient(f.value, point), point.g)
                - k * field.value(point) * f.value(point))
    else:
        raise ValueError(f"unknown gradient mode {grad!r}")
    rhs = detj ** (2 * k) * (j @ here @ jt)
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max()) / scale


def det_nabla_weight_residual(f, gamma: SymplecticElement, point: SiegelPoint,
                              k: int, G=None,
                              floor: float = 1e-8) -> float | None:
    """Relative defect of det nabla_k F (gamma Z) =
    det(CZ+D)^{2gk+2} det nabla_k f(Z); None when the determinant is below
    the floor (relative error is meaningless near zeros)."""
    field = G if G is not None else ImInverseField()
    extension = ModularExtension(f, 2 * k, gamma)
    image = act(gamma, point)
    _, _, detj = _transform_frame(gamma, point)
    g = point.g
    here = det_nabla(f, point, k, field)
    if abs(here) <= floor:
        return None
    lhs = complex(np.linalg.det(
        sym_gradient(extension, image)
        - k * field.value(image) * extension.value(image)))
    rhs = detj ** (2 * g * k + 2) * here
    return abs(lhs - rhs) / max(abs(rhs), floor)


def _sym_from_coords(grad: np.ndarray, g: int) -> np.ndarray:
    """Symmetric matrix of a gradient over Omega, off-diagonal entries
    halved."""
    grad = np.asarray(grad, dtype=complex)
    ii, jj = row_col_indices(g)
    return coords_to_sym(np.where(ii == jj, grad, grad / 2.0), g)


def bracket_matrix(f, h, point: SiegelPoint, weights: tuple[int, int] | None = None) -> np.ndarray:
    """h grad f - f grad h; with weights (r, s) given, the weight-corrected
    variant s h grad f - r f grad h."""
    gf = sym_gradient(f, point)
    gh = sym_gradient(h, point)
    fv = f.value(point)
    hv = h.value(point)
    if weights is None:
        return hv * gf - fv * gh
    r, s = weights
    return s * hv * gf - r * fv * gh


def bracket1(f, h, point: SiegelPoint,
             weights: tuple[int, int] | None = None) -> complex:
    """det(h grad f - f grad h); the experimental weight-corrected variant
    is enabled by passing weights=(r, s)."""
    return complex(np.linalg.det(bracket_matrix(f, h, point, weights)))


def bracket1_transform_residual(f, h, r: int, s: int,
                                gamma: SymplecticElement, point: SiegelPoint,
                                weights_corrected: bool = False
                                ) -> tuple[float, float]:
    """(raw, defect_corrected) residuals for the transformation of the
    bracket matrix built from extensions of weights 2r and 2s.

    raw compares against det(CZ+D)^{2r+2s} j W j^t alone; the corrected
    residual also subtracts the curvature mismatch term
    det(CZ+D)^{2r+2s} . 2(r-s) f h . C j^t, which vanishes iff r = s.
    For the weight-corrected variant the defect term is identically zero.
    """
    F = ModularExtension(f, 2 * r, gamma)
    H = ModularExtension(h, 2 * s, gamma)
    image = act(gamma, point)
    j, jt, detj = _transform_frame(gamma, point)
    weights = (r, s) if weights_corrected else None
    here = bracket_matrix(f, h, point, weights)
    there = bracket_matrix(F, H, image, weights)
    main = detj ** (2 * r + 2 * s) * (j @ here @ jt)
    scale = max(1.0, float(np.abs(there).max()), float(np.abs(main).max()))
    raw = float(np.abs(there - main).max()) / scale
    if weights_corrected:
        return raw, raw
    defect = (detj ** (2 * r + 2 * s) * 2.0 * (r - s)
              * f.value(point) * h.value(point) * (gamma.C @ jt))
    corrected = float(np.abs(there - main - defect).max()) / scale
    return raw, corrected
