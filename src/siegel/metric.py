"""The invariant metric on the Siegel upper half space in Omega coordinates.

Writing R = Y^{-1}, the line element Tr(Y^{-1} dZ Y^{-1} dZbar) has
Omega-indexed Gram matrix

    W[(i,j), (r,s)] = (R_ir R_js + R_jr R_is) / 2^{delta(i,j)+delta(r,s)},

whose explicit inverse is M[(i,j), (r,s)] = Y_ir Y_js + Y_jr Y_is.  Both
are assembled here, with the holomorphic coordinate derivatives of R and
Y that the two metric-side derivations of the connection coefficients
contract against them, and with dM, which the metric suite compares with
finite differences.

Derivatives use the Wirtinger convention d/dZ_J = (d/dX_J - i d/dY_J)/2 on
the independent upper-triangle coordinates, so dY/dZ_J = -(i/2) E_J with
E_J the symmetric basis direction of coordinate J.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .indexing import basis_stack, row_col_indices
from .symplectic import DegeneracyError, SiegelPoint, _require_one_point


@lru_cache(maxsize=16)
def _power_table(g: int) -> np.ndarray:
    """2^{-delta(i_a, j_a) - delta(i_b, j_b)} over Omega x Omega, read-only
    and built once per degree."""
    ii, jj = row_col_indices(g)
    d = (ii == jj).astype(float)
    table = 2.0 ** (-(d[:, None] + d[None, :]))
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _pair_gram_plan(g: int) -> np.ndarray:
    """The flat positions in a g x g matrix of the four (m, m) factors of
    the pair Gram, (i_a, i_b), (j_a, j_b), (j_a, i_b) and (i_a, j_b), as
    one read-only (4, m, m) array built once per degree."""
    ii, jj = row_col_indices(g)
    plan = np.stack([rows[:, None] * g + cols[None, :]
                     for rows, cols in ((ii, ii), (jj, jj), (jj, ii),
                                        (ii, jj))])
    plan.setflags(write=False)
    return plan


@lru_cache(maxsize=16)
def _two_identity(g: int) -> np.ndarray:
    """2 I of size g, read-only and built once per degree."""
    two = 2.0 * np.eye(g)
    two.setflags(write=False)
    return two


def _pair_gram(Mat: np.ndarray) -> np.ndarray:
    """Symmetrized rank-2 Gram over Omega: Mat_ir Mat_js + Mat_jr Mat_is,
    for one matrix or a stack of them.  The four factors are gathered by
    one flat take."""
    g = Mat.shape[-1]
    factors = Mat.reshape(Mat.shape[:-2] + (g * g,)).take(
        _pair_gram_plan(g), axis=-1)
    ii_ii, jj_jj, jj_ii, ii_jj = (factors[..., k, :, :] for k in range(4))
    return ii_ii * jj_jj + jj_ii * ii_jj


class MetricPair(NamedTuple):
    """Gram matrix W, its closed-form inverse M, and R = Y^{-1}, all
    read-only."""

    W: np.ndarray
    M: np.ndarray
    R: np.ndarray


def _metric_pair(point: SiegelPoint) -> MetricPair:
    g = point.g
    Y = point.Y
    # validation held cond(Y) to COND_LIMIT, so Y has a Cholesky factor
    inv_cho = np.linalg.inv(np.linalg.cholesky(Y))
    # Y^-1 of a subnormal Y, or the Grams Y (x) Y and Y^-1 (x) Y^-1 of a Y
    # near either end of the float range, overflow: a degeneracy.  W holds
    # the squares of R's entries, so a non-finite R leaves W non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        R = inv_cho.swapaxes(-1, -2) @ inv_cho
        # one Newton step tightens the inverse near degenerate points
        R = R @ (_two_identity(g) - Y @ R)
        R = (R + R.swapaxes(-1, -2)) / 2.0
        # the Grams of Y and R as one stack, gathered once; M is the first
        grams = _pair_gram(np.array((Y, R)))
        M = grams[0]
        W = grams[1] * _power_table(g)
    # W is the Gram of R times powers of 2, finite exactly where it is
    if not np.isfinite(grams).all():
        raise DegeneracyError("the metric overflows the float range")
    for Mat in (W, M, R):
        Mat.setflags(write=False)
    return MetricPair(W, M, R)


def metric_pair(point: SiegelPoint) -> MetricPair:
    """W, M and R at a point or over a stack of points: the one MetricPair
    kept on the point, computed on the first call."""
    return point.derived(_metric_pair)


def metric_form(point: SiegelPoint, V1: np.ndarray, V2: np.ndarray) -> complex:
    """The invariant Hermitian pairing Tr(Y^{-1} V1 Y^{-1} conj(V2)) at one
    point; DimensionError for a stack of points."""
    _require_one_point(point)
    R = metric_pair(point).R
    return complex(np.trace(R @ V1 @ R @ np.conj(V2)))


def dR_tensor(R: np.ndarray) -> np.ndarray:
    """dR[c] = dR/dZ_{I_c} = (i/2) R E_c R, the holomorphic derivative of
    R = Y^{-1} along every coordinate, for one R."""
    return 0.5j * (R @ basis_stack(R.shape[-1]) @ R)


def dY_tensor(g: int) -> np.ndarray:
    """dY[c] = dY/dZ_{I_c} = -(i/2) E_c, the holomorphic derivative of Y
    along every coordinate."""
    return -0.5j * basis_stack(g)


def _pair_gram_derivative(dMat: np.ndarray, Mat: np.ndarray) -> np.ndarray:
    """Derivatives of the Gram Mat_ir Mat_js + Mat_jr Mat_is over Omega
    along every coordinate, from dMat[..., c], the derivative of Mat along
    coordinate c: the C-contiguous (m, m, m) array whose [:, :, c] is
    dMat_ir Mat_js + Mat_ir dMat_js + dMat_jr Mat_is + Mat_jr dMat_is,
    summed in that order."""
    ii, jj = row_col_indices(Mat.shape[-1])

    def product(moving_rows, moving_cols, fixed_rows, fixed_cols,
                moving_first):
        # written into the gathered (m, m, m) factor, so at most two such
        # arrays are alive; the factors keep the order of the sum
        moving = dMat[moving_rows[:, None], moving_cols[None, :]]
        fixed = Mat[fixed_rows[:, None], fixed_cols[None, :], None]
        if moving_first:
            return np.multiply(moving, fixed, out=moving)
        return np.multiply(fixed, moving, out=moving)
    out = product(ii, ii, jj, jj, True)
    out += product(jj, jj, ii, ii, False)
    out += product(jj, ii, ii, jj, True)
    out += product(ii, jj, jj, ii, False)
    return out


def dM_tensor(Y: np.ndarray) -> np.ndarray:
    """dM[a, b, c] = dM_{I_a, I_b} / dZ_{I_c} over Omega^3, from the Y of
    one point."""
    return _pair_gram_derivative(np.moveaxis(dY_tensor(Y.shape[-1]), 0, -1),
                                 Y)

