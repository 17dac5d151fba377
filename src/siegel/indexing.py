"""Index bookkeeping for the independent entries of symmetric g x g matrices.

The index set Omega = {(i, j) : 1 <= i <= j <= g} is kept in dictionary
order throughout the package, so that the list position of a pair I agrees
with the rank function N(i, j) = (i-1)(2g-i)/2 + j (1-based).  Coordinate
vectors over Omega always use this ordering.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

Pair = tuple[int, int]


def omega_size(g: int) -> int:
    return g * (g + 1) // 2


def omega_list(g: int) -> list[Pair]:
    """All pairs (i, j) with 1 <= i <= j <= g, in dictionary order."""
    if g < 1:
        raise ValueError(f"degree must be >= 1, got {g}")
    return [(i, j) for i in range(1, g + 1) for j in range(i, g + 1)]


def n_index(pair: Pair, g: int) -> int:
    """1-based rank of a pair in the dictionary order on Omega."""
    i, j = pair
    if not (1 <= i <= j <= g):
        raise ValueError(f"{pair} is not an upper-triangle index for g={g}")
    return (i - 1) * (2 * g - i) // 2 + j


def entry_positions(g: int) -> dict[Pair, int]:
    """0-based Omega position of the entry Z_ij, keyed by both (i, j) and
    (j, i) (1-based), since Z is symmetric."""
    table = {}
    for position, (i, j) in enumerate(omega_list(g)):
        table[i, j] = table[j, i] = position
    return table


def basis_matrix(pair: Pair, g: int, dtype=float) -> np.ndarray:
    """Symmetric coordinate direction for Z_pair: E_ij + E_ji off the
    diagonal, E_ii on it."""
    i, j = pair
    E = np.zeros((g, g), dtype=dtype)
    E[i - 1, j - 1] = 1
    E[j - 1, i - 1] = 1
    return E


@lru_cache(maxsize=16)
def basis_stack(g: int) -> np.ndarray:
    """Read-only stack of the basis directions, one per Omega position:
    basis_stack(g)[a] is basis_matrix of the a-th pair."""
    E = np.stack([basis_matrix(pair, g) for pair in omega_list(g)])
    E.setflags(write=False)
    return E


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


@lru_cache(maxsize=16)
def row_col_indices(g: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based read-only arrays ii, jj with (ii[a], jj[a]) the a-th pair of
    Omega, built once per degree."""
    pairs = omega_list(g)
    ii = np.array([p[0] - 1 for p in pairs])
    jj = np.array([p[1] - 1 for p in pairs])
    ii.setflags(write=False)
    jj.setflags(write=False)
    return ii, jj
