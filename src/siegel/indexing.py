"""Index bookkeeping for the independent entries of symmetric g x g matrices.

The index set Omega = {(i, j) : 1 <= i <= j <= g} is kept in dictionary
order throughout the package, so that the list position of a pair I agrees
with the rank function N(i, j) = (i-1)(2g-i)/2 + j (1-based).  Coordinate
vectors over Omega always use this ordering.

This module is the one place that knows the layout: the position table,
the two pairs of conversions between symmetric matrices and Omega vectors
(coordinates, and covectors paired with dZ) and the basis directions.  It
also holds what every layer shares: the degree gates (_degree,
_same_degree) and the rules for kept values (_read_only, _per_degree).
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

Pair = tuple[int, int]


class DimensionError(ValueError):
    """Matrix sizes incompatible with the requested operation."""


def _degree(g: int) -> int:
    """g as a plain int, after the one degree gate: DimensionError unless g
    is an integer (a numpy integer too, a bool not) and g >= 1."""
    if type(g) is not int:  # a bool is an int to isinstance
        if isinstance(g, bool) or not isinstance(g, numbers.Integral):
            raise DimensionError(f"degree must be an integer, got {g!r}")
        g = int(g)
    if g < 1:
        raise DimensionError(f"degree must be at least 1, got {g}")
    return g


def _same_degree(what: str, g: int, other: str, h: int) -> None:
    """The one mixed-degree gate: DimensionError naming both sides."""
    if g != h:
        raise DimensionError(f"degree mismatch: {what} has g={g}, "
                             f"{other} has g={h}")


def _read_only(value):
    """The one read-only rule for kept values: value made read-only in
    place, an ndarray or each ndarray of a tuple (a NamedTuple too), and
    returned; anything else is returned as it is."""
    for a in value if isinstance(value, tuple) else (value,):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return value


def _per_degree(build):
    """The one built-once rule: build(g) computed on the first request for
    its degree, kept for the last 16 degrees asked and read-only
    (_read_only).  The kept function keeps build's name, doc and source."""
    @functools.lru_cache(maxsize=16)
    @functools.wraps(build)
    def kept(g):
        return _read_only(build(g))
    return kept


def omega_size(g: int) -> int:
    return g * (g + 1) // 2


def omega_list(g: int) -> list[Pair]:
    """All pairs (i, j) with 1 <= i <= j <= g, in dictionary order."""
    g = _degree(g)
    return [(i, j) for i in range(1, g + 1) for j in range(i, g + 1)]


@_per_degree
def row_col_indices(g: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based read-only arrays ii, jj with (ii[a], jj[a]) the a-th pair of
    Omega, built once per degree."""
    pairs = omega_list(g)
    return (np.array([p[0] - 1 for p in pairs]),
            np.array([p[1] - 1 for p in pairs]))


@_per_degree
def position_table(g: int) -> np.ndarray:
    """0-based read-only (g, g) table of Omega positions: entry [i, j] is
    the position of Z_{i+1, j+1}, in both orders since Z is symmetric."""
    ii, jj = row_col_indices(g)
    table = np.empty((g, g), dtype=int)
    table[ii, jj] = table[jj, ii] = np.arange(ii.size)
    return table


def position(pair: Pair, g: int) -> int:
    """Omega position of a caller's 1-based upper-triangle pair;
    DimensionError for g < 1, ValueError for a pair outside Omega."""
    g = _degree(g)
    i, j = pair
    if not (1 <= i <= j <= g):
        raise ValueError(f"{pair} is not an upper-triangle index for g={g}")
    return int(position_table(g)[i - 1, j - 1])


def sym_to_coords(V: np.ndarray) -> np.ndarray:
    """Omega-ordered coordinate vector of a symmetric matrix, or of each
    matrix in a stack of shape (..., g, g)."""
    V = np.asarray(V)
    ii, jj = row_col_indices(V.shape[-1])
    return V[..., ii, jj]


def coords_to_sym(v: np.ndarray, g: int) -> np.ndarray:
    """Inverse of sym_to_coords, over the last axis of v."""
    v = np.asarray(v)
    ii, jj = row_col_indices(g)
    V = np.zeros(v.shape[:-1] + (g, g), dtype=v.dtype)
    V[..., ii, jj] = v
    V[..., jj, ii] = v
    return V


def sym_to_covector(G) -> np.ndarray:
    """The components v_I of Tr(G dZ) = sum_I v_I dZ_I over Omega: the
    diagonal entries of the symmetric G, and twice the ones above it.  G,
    read as G[i][j], may hold numbers or jets."""
    G = np.asarray(G)
    ii, jj = row_col_indices(G.shape[-1])
    return G[..., ii, jj] * np.where(ii == jj, 1.0 + 0j, 2.0 + 0j)


def covector_to_sym(v: np.ndarray, g: int) -> np.ndarray:
    """Inverse of sym_to_covector, over the last axis of v: the symmetric
    matrix of a covector (a gradient over Omega), its off-diagonal
    entries halved."""
    v = np.asarray(v, dtype=complex)
    ii, jj = row_col_indices(g)
    return coords_to_sym(np.where(ii == jj, v, v / 2.0), g)


@_per_degree
def basis_stack(g: int) -> np.ndarray:
    """Read-only stack of the symmetric basis directions, one per Omega
    position: E_ij + E_ji off the diagonal, E_ii on it."""
    return coords_to_sym(np.eye(omega_size(g)), g)
