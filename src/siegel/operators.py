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

import cmath

import numpy as np

from .functions import fd_gradient
from .indexing import _same_degree, coords_to_sym, covector_to_sym, omega_size
from .metric import metric_pair
from .qseries import G2_FACTOR, evaluate, g2_series
from .symplectic import (DegeneracyError, SiegelPoint, SymplecticElement,
                         act, cocycle, pushforward_matrix)

# below this |det nabla_k f| the relative determinant defect is not reported
_DET_FLOOR = 1e-8


def relative_residual(defect, *sides) -> float:
    """max|defect| over the largest max|side|, floored at 1, so that a fixed
    tolerance holds for sides that grow without bound along ill-conditioned
    group elements.  A side with a NaN entry never sets the scale."""
    scale = max(max(1.0, float(np.abs(side).max())) for side in sides)
    return float(np.abs(defect).max()) / scale


def sym_gradient(f, point: SiegelPoint) -> np.ndarray:
    """Symmetrized gradient matrix: entry (i, j) is d f / dZ_ij weighted by
    1/2 off the diagonal."""
    return covector_to_sym(f.gradient(point), point.g)


def im_inverse(point: SiegelPoint) -> np.ndarray:
    """The non-holomorphic matrix field i (Im Z)^{-1} at the point."""
    return 1j * metric_pair(point).R


class QSeriesFunction:
    """Degree-one point function backed by an exact q-expansion.

    The gradient uses f'(z) = 2 pi i (theta f)(z), exact at the series level.
    """

    def __init__(self, series):
        self.g = 1
        self.series = series
        self.theta_series = series.theta()

    def value(self, point: SiegelPoint) -> complex:
        zs = point.Z[..., 0, 0]
        values = [evaluate(self.series, complex(z)) for z in zs.flat]
        return np.array(values).reshape(zs.shape)[()]

    def gradient(self, point: SiegelPoint) -> np.ndarray:
        """The gradient at a point, or at every point of a stack, with
        shape (..., 1)."""
        zs = point.Z[..., 0, 0]
        values = [2j * np.pi * evaluate(self.theta_series, complex(z))
                  for z in zs.flat]
        return np.array(values).reshape(zs.shape + (1,))


def ig2_field(n_terms: int):
    """The holomorphic degree-one field i G2 = i (pi/3) E2 as a function of
    the point, evaluated from its q-expansion."""
    e2 = g2_series(n_terms)

    def field(point: SiegelPoint) -> np.ndarray:
        z = complex(point.Z[0, 0])
        return np.array([[1j * (G2_FACTOR * evaluate(e2, z))]],
                        dtype=complex)
    return field


def nabla(f, point: SiegelPoint, k: int, G=im_inverse) -> np.ndarray:
    """(grad - k G) f at the point, for a matrix field G given as a function
    of the point; G defaults to i Y^{-1}."""
    if k < 0:
        raise ValueError("weight parameter must be >= 0")
    return _nabla(f.gradient(point), f, point, k, G)


def _nabla(grad, f, point: SiegelPoint, k: int, G=im_inverse) -> np.ndarray:
    """(grad - k G) f at the point, from grad, f's gradient over Omega."""
    return covector_to_sym(grad, point.g) - k * G(point) * f.value(point)


def det_nabla(f, point: SiegelPoint, k: int) -> complex:
    """det nabla_k f at the point, with G = i Y^{-1}; DegeneracyError when
    it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.linalg.det(nabla(f, point, k)))
    if not cmath.isfinite(value):
        raise DegeneracyError(f"det nabla_{k} leaves the float range")
    return value


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
        _same_degree("function", f.g, "element", gamma.g)
        self.f = f
        self.g = gamma.g
        self.weight = weight
        self.gamma = gamma
        self.mu = gamma.inverse()

    def _parts(self, point: SiegelPoint):
        """(Z(W), C Z(W) + D), both kept on the points by act and cocycle,
        so value and gradient at one image point share them."""
        base = act(self.mu, point)
        return base, cocycle(self.gamma, base)

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
        # row pos of S_mu, as a symmetric matrix, is dZ/dW_pos
        traces = np.trace(P @ coords_to_sym(S_mu, self.g), axis1=-2, axis2=-1)
        chain = S_mu @ fgrad
        out = np.empty(omega_size(self.g), dtype=complex)
        # scalar arithmetic: a vectorized product rounds differently
        for pos in range(out.size):
            out[pos] = det_pow * (self.weight * traces[pos] * fval
                                  + chain[pos])
        return out

    def gradient_fd(self, point) -> np.ndarray:
        # Richardson-extrapolated fourth-order stencils at an adaptively
        # chosen step: deep images of long words are truncation-dominated
        # (want small steps) while ill-conditioned inverse cocycles are
        # noise-dominated (want large ones); the stencil pair that agrees
        # better wins.  The stencils of all three steps are one stack of
        # points, so F is evaluated by one validation and one action
        scale = float(np.abs(point.Z).max())
        h = 2e-5 * (1.0 + 0.01 * scale)
        h = min(h, 0.04 * float(point.spectrum.min()))
        stencils = fd_gradient(self.value, point,
                               tuple(h * f for f in (0.5, 1.0, 2.0)),
                               order=4)
        spread_small = float(np.abs(stencils[0] - stencils[1]).max())
        spread_big = float(np.abs(stencils[1] - stencils[2]).max())
        if spread_small <= spread_big:
            return (16.0 * stencils[0] - stencils[1]) / 15.0
        return (16.0 * stencils[1] - stencils[2]) / 15.0


def verify_G_law(G, gamma: SymplecticElement, point: SiegelPoint) -> float:
    """Max-norm defect of (CZ+D)^{-1} G(gamma Z) - G(Z)(CZ+D)^t - 2 C^t,
    normalized by the magnitude of the two sides (floored at 1)."""
    den = cocycle(gamma, point)
    lhs = np.linalg.solve(den, G(act(gamma, point)))
    rhs = G(point) @ den.T + 2.0 * gamma.C.T
    return relative_residual(lhs - rhs, lhs, rhs)


def _weight_factor(j: np.ndarray, exponent: int) -> complex:
    """det(j)^exponent, for the cocycle j = CZ+D, as a Python complex;
    DegeneracyError when the power leaves the float range."""
    try:
        factor = complex(np.linalg.det(j)) ** exponent
    except OverflowError:
        factor = None
    if factor is None or not cmath.isfinite(factor):
        raise DegeneracyError(f"weight factor det(CZ+D)^{exponent} "
                              f"overflows the float range")
    return factor


def verify_nabla_transform(f, gamma: SymplecticElement, point: SiegelPoint,
                           k: int, grad: str = "exact") -> float:
    """Residual of nabla_k F (gamma Z) = det(CZ+D)^{2k} (CZ+D) nabla_k f(Z)
    (ZC^t+D^t), with F the weight-2k extension of f along gamma and
    G = i Y^{-1}.

    The max-norm defect is normalized by the magnitude of the compared
    sides (floored at 1): the determinant weight factor makes the raw scale
    unbounded over random group elements, so only a scale-aware residual
    supports a fixed tolerance.
    """
    extension = ModularExtension(f, 2 * k, gamma)
    image = act(gamma, point)
    j = cocycle(gamma, point)
    factor = _weight_factor(j, 2 * k)
    if grad == "exact":
        lhs = nabla(extension, image, k)
        here = nabla(f, point, k)
    elif grad == "fd":
        lhs = _nabla(extension.gradient_fd(image), extension, image, k)
        here = _nabla(fd_gradient(f.value, point), f, point, k)
    else:
        raise ValueError(f"unknown gradient mode {grad!r}")
    # j.T = Z C^t + D^t, as Z is symmetric
    rhs = factor * (j @ here @ j.T)
    return relative_residual(lhs - rhs, lhs, rhs)


def det_nabla_weight_residual(f, gamma: SymplecticElement, point: SiegelPoint,
                              k: int) -> float | None:
    """Relative defect of det nabla_k F (gamma Z) =
    det(CZ+D)^{2gk+2} det nabla_k f(Z), with G = i Y^{-1}; None when
    |det nabla_k f(Z)| is at most _DET_FLOOR (relative error is meaningless
    near zeros), DegeneracyError when either determinant leaves the float
    range."""
    extension = ModularExtension(f, 2 * k, gamma)
    image = act(gamma, point)
    here = det_nabla(f, point, k)
    if abs(here) <= _DET_FLOOR:
        return None
    factor = _weight_factor(cocycle(gamma, point), 2 * point.g * k + 2)
    lhs = det_nabla(extension, image, k)
    rhs = factor * here
    return abs(lhs - rhs) / max(abs(rhs), _DET_FLOOR)


def bracket_matrix(f, h, point: SiegelPoint,
                   weights: tuple[int, int] = (1, 1)) -> np.ndarray:
    """s h grad f - r f grad h for weights (r, s); the default (1, 1) gives
    h grad f - f grad h."""
    gf = sym_gradient(f, point)
    gh = sym_gradient(h, point)
    fv = f.value(point)
    hv = h.value(point)
    r, s = weights
    return s * hv * gf - r * fv * gh


def bracket1(f, h, point: SiegelPoint) -> complex:
    """det(h grad f - f grad h)."""
    return complex(np.linalg.det(bracket_matrix(f, h, point)))


def bracket1_transform_residual(f, h, r: int, s: int,
                                gamma: SymplecticElement, point: SiegelPoint,
                                weights: tuple[int, int] = (1, 1)) -> float:
    """Residual of the bracket law for extensions F, H of f, h of weights
    2r and 2s along gamma, with bracket weights (a, b) = weights:

        [F, H](gamma Z) = det(CZ+D)^{2r+2s} (j [f, h] j^t
                                             + 2(r b - s a) f h C j^t),

    with j = CZ+D and [f, h] = bracket_matrix(f, h, Z, weights).  The
    curvature term vanishes for equal weights and for the weight-corrected
    bracket (a, b) = (r, s)."""
    F = ModularExtension(f, 2 * r, gamma)
    H = ModularExtension(h, 2 * s, gamma)
    image = act(gamma, point)
    j = cocycle(gamma, point)
    factor = _weight_factor(j, 2 * r + 2 * s)
    a, b = weights
    there = bracket_matrix(F, H, image, weights)
    main = factor * (j @ bracket_matrix(f, h, point, weights) @ j.T)
    curvature = (factor * 2.0 * (r * b - s * a)
                 * f.value(point) * h.value(point) * (gamma.C @ j.T))
    return relative_residual(there - main - curvature, there, main)
