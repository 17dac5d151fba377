"""Points of the Siegel upper half space, the symplectic group and its action.

Conventions: an element gamma = (A, B; C, D) acts by
gamma(Z) = (A Z + B)(C Z + D)^{-1}, and the differential of the action is
d(gamma Z) = (Z C^t + D^t)^{-1} dZ (C Z + D)^{-1}.  In the Omega-ordered
coordinate basis the differential is recorded as a row-vector cocycle:
(dW_11, ..., dW_gg) = (dZ_11, ..., dZ_gg) . S(gamma, Z), i.e. S[L, K] is
the K-th coordinate of the pushforward of the L-th basis direction.

Group elements carry exact integer blocks; floating point enters only when
they are applied to a point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .indexing import omega_list, sym_to_coords

COND_LIMIT = 1e12


class DimensionError(ValueError):
    """Matrix sizes incompatible with the requested operation."""


class DegeneracyError(ArithmeticError):
    """A cocycle factor is numerically singular, or the image of the action
    is no longer a valid point."""


def _mT(M: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack of shape (..., g, g)."""
    return M.swapaxes(-1, -2)


def _max_abs(M: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of every matrix in a stack."""
    return np.abs(M).max(axis=(-2, -1))


def _first_bad(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of bad, or None when there is none."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.argwhere(bad)[0])


def _at(index: tuple[int, ...]) -> str:
    return f" at stack index {index}" if index else ""


_PARTS = ("real part", "imaginary part")


def _validated(g: int, X, Y, tol: float = 1e-12
               ) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized, read-only X and Y after one batched pass of checks over
    every point of a stack: finite entries, symmetry against tol times the
    entry scale, and Y > 0 by the same relative test on its leading
    principal minors."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[-2:] != (g, g) or Y.shape != X.shape:
        raise DimensionError(f"expected {g}x{g} blocks, got "
                             f"{X.shape} and {Y.shape}")
    XY = np.array((X, Y))
    bad = _first_bad(~np.isfinite(XY).all(axis=(-2, -1)))
    if bad is not None:
        raise ValueError(f"{_PARTS[bad[0]]} has non-finite entries"
                         f"{_at(bad[1:])}")
    XYt = _mT(XY)
    skew = _max_abs(XY - XYt)
    scale = np.maximum(1.0, _max_abs(XY))
    bad = _first_bad(skew > tol * scale)
    if bad is not None:
        raise ValueError(f"{_PARTS[bad[0]]} is not symmetric (asymmetry "
                         f"{skew[bad]:.3e}){_at(bad[1:])}")
    XY = (XY + XYt) / 2.0
    XY.setflags(write=False)
    X, Y = XY
    # minor k of Y is the product of the first k squared Cholesky pivots
    try:
        L = np.linalg.cholesky(Y)
    except np.linalg.LinAlgError:
        bad = _first_bad(np.linalg.eigvalsh(Y)[..., 0] <= 0)
        raise ValueError(f"imaginary part is not positive definite"
                         f"{_at(bad or ())}") from None
    minors = np.multiply.accumulate(
        np.diagonal(L, axis1=-2, axis2=-1) ** 2, axis=-1)
    bad = _first_bad(minors <= tol * scale[1][..., None]
                     ** np.arange(1, g + 1))
    if bad is not None:
        raise ValueError(f"imaginary part is not positive definite "
                         f"(leading minor {bad[-1] + 1} = {minors[bad]:.3e})"
                         f"{_at(bad[:-1])}")
    return X, Y


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """A point Z = X + iY with X, Y real symmetric and Y positive definite,
    or a stack of such points when X and Y have shape (..., g, g).

    Points compare and hash by identity: their entries are floats.
    """

    g: int
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X, Y = _validated(self.g, self.X, self.Y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def Z(self) -> np.ndarray:
        return self.X + 1j * self.Y

    @classmethod
    def from_matrix(cls, Z: np.ndarray) -> "SiegelPoint":
        Z = np.asarray(Z, dtype=complex)
        return cls(Z.shape[-1], Z.real, Z.imag)

    @classmethod
    def from_complex(cls, z: complex) -> "SiegelPoint":
        return cls(1, np.array([[z.real]]), np.array([[z.imag]]))

    def to_json(self) -> str:
        return json.dumps({"g": self.g, "X": self.X.tolist(),
                           "Y": self.Y.tolist()}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SiegelPoint":
        data = json.loads(text)
        return cls(int(data["g"]), np.array(data["X"], dtype=float),
                   np.array(data["Y"], dtype=float))


def symplectic_j(g: int) -> np.ndarray:
    J = np.zeros((2 * g, 2 * g), dtype=np.int64)
    J[:g, g:] = np.eye(g, dtype=np.int64)
    J[g:, :g] = -np.eye(g, dtype=np.int64)
    return J


# an integer product whose partial sums are bounded by max|a| max|b| n
# below this runs in int64; the margin below 2^63 covers the rounding of
# the bound, which is taken in floating point
_INT64_SAFE = 2.0 ** 62


def _magnitude(a: np.ndarray) -> float:
    """max|a| of an integer matrix (in floating point, where abs(-2^63)
    does not wrap)."""
    return float(np.abs(a, dtype=float).max(initial=0.0))


def is_symplectic(M: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether M J M^t = J.  Exact for integer input, residual test else."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got {M.shape}")
    if M.shape[0] % 2 != 0:
        raise DimensionError(f"symplectic matrices have even size, "
                             f"got {M.shape[0]}")
    g = M.shape[0] // 2
    J = symplectic_j(g)
    if np.issubdtype(M.dtype, np.integer):
        if _magnitude(M) ** 2 * 2 * g >= _INT64_SAFE:
            M = M.astype(object)  # Python ints, which do not wrap
        return bool(np.array_equal(M @ J @ M.T, J))
    return bool(np.abs(M @ J @ M.T - J).max() < tol)


@dataclass(frozen=True, eq=False)
class SymplecticElement:
    """Integer block matrix (A, B; C, D) with M J M^t = J.

    Elements compare by exact value and hash by g and the int64 bytes of
    their matrix.
    """

    g: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        blocks = {}
        for name in "ABCD":
            M = np.asarray(getattr(self, name), dtype=np.int64)
            if M.shape != (self.g, self.g):
                raise DimensionError(f"block {name} must be {self.g}x{self.g}")
            M.setflags(write=False)
            blocks[name] = M
        for name, M in blocks.items():
            object.__setattr__(self, name, M)
        if not is_symplectic(self.matrix):
            raise ValueError("blocks do not satisfy the symplectic relation")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The read-only 2g x 2g block matrix, built on first access."""
        M = np.block([[self.A, self.B], [self.C, self.D]])
        M.setflags(write=False)
        return M

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymplecticElement):
            return NotImplemented
        return self.g == other.g and np.array_equal(self.matrix,
                                                    other.matrix)

    def __hash__(self) -> int:
        return hash((self.g, self.matrix.tobytes()))

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "SymplecticElement":
        M = np.asarray(M, dtype=np.int64)
        g = M.shape[0] // 2
        return cls(g, M[:g, :g], M[:g, g:], M[g:, :g], M[g:, g:])

    @classmethod
    def identity(cls, g: int) -> "SymplecticElement":
        I = np.eye(g, dtype=np.int64)
        O = np.zeros((g, g), dtype=np.int64)
        return cls(g, I, O, O, I)

    @classmethod
    def inversion(cls, g: int) -> "SymplecticElement":
        I = np.eye(g, dtype=np.int64)
        O = np.zeros((g, g), dtype=np.int64)
        return cls(g, O, I, -I, O)

    @classmethod
    def translation(cls, B: np.ndarray) -> "SymplecticElement":
        B = np.asarray(B, dtype=np.int64)
        if not np.array_equal(B, B.T):
            raise ValueError("translation block must be symmetric")
        g = B.shape[0]
        I = np.eye(g, dtype=np.int64)
        O = np.zeros((g, g), dtype=np.int64)
        return cls(g, I, B, O, I)

    @classmethod
    def unimodular(cls, U: np.ndarray) -> "SymplecticElement":
        U = np.asarray(U, dtype=np.int64)
        if round(abs(np.linalg.det(U.astype(float)))) != 1:
            raise ValueError("embedding block must be unimodular")
        g = U.shape[0]
        O = np.zeros((g, g), dtype=np.int64)
        Uinv_t = np.rint(np.linalg.inv(U.astype(float))).astype(np.int64).T
        return cls(g, U, O, O, Uinv_t)

    def __matmul__(self, other: "SymplecticElement") -> "SymplecticElement":
        if self.g != other.g:
            raise DimensionError("degree mismatch")
        a, b = self.matrix, other.matrix
        if _magnitude(a) * _magnitude(b) * 2 * self.g >= _INT64_SAFE:
            a = a.astype(object)  # Python ints, which do not wrap
        try:
            product = np.asarray(a @ b, dtype=np.int64)
        except OverflowError:
            raise DegeneracyError("product has entries beyond the 64-bit "
                                  "integer range") from None
        return SymplecticElement.from_matrix(product)

    def inverse(self) -> "SymplecticElement":
        # -(-2^63) wraps to itself in int64
        if min(self.B.min(initial=0), self.C.min(initial=0)) == -2 ** 63:
            raise DegeneracyError("inverse has entries beyond the 64-bit "
                                  "integer range")
        return SymplecticElement(self.g, self.D.T, -self.B.T,
                                 -self.C.T, self.A.T)

    def to_json(self) -> str:
        return json.dumps({"g": self.g, "A": self.A.tolist(),
                           "B": self.B.tolist(), "C": self.C.tolist(),
                           "D": self.D.tolist()}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SymplecticElement":
        data = json.loads(text)
        return cls(int(data["g"]), *(np.array(data[k], dtype=np.int64)
                                     for k in "ABCD"))


@dataclass(frozen=True)
class GeneratorWord:
    """A word in the generators: inversion, symmetric translation,
    unimodular embedding.  Expanding the word gives an exact group element."""

    g: int
    steps: tuple[tuple[str, tuple | None], ...]

    def expand(self) -> SymplecticElement:
        out = SymplecticElement.identity(self.g)
        for tag, param in self.steps:
            if tag == "J":
                step = SymplecticElement.inversion(self.g)
            elif tag == "T":
                step = SymplecticElement.translation(np.array(param))
            elif tag == "U":
                step = SymplecticElement.unimodular(np.array(param))
            else:
                raise ValueError(f"unknown generator tag {tag!r}")
            out = out @ step
        return out


def _cocycle_blocks(gamma: SymplecticElement, point: SiegelPoint):
    if gamma.g != point.g:
        raise DimensionError(f"degree mismatch: element has g={gamma.g}, "
                             f"point has g={point.g}")
    Z = point.Z
    return Z, gamma.C @ Z + gamma.D


def cocycle(gamma: SymplecticElement, point: SiegelPoint) -> np.ndarray:
    """The automorphy factor C Z + D (one per point of a stack)."""
    _, den = _cocycle_blocks(gamma, point)
    return den


def act(gamma: SymplecticElement, point: SiegelPoint) -> SiegelPoint:
    """Generalized Moebius action (A Z + B)(C Z + D)^{-1}, applied to every
    point of a stack; any member failing a check fails the call."""
    Z, den = _cocycle_blocks(gamma, point)
    if (np.linalg.cond(den) > COND_LIMIT).any():
        raise DegeneracyError("cocycle factor is numerically singular")
    num = gamma.A @ Z + gamma.B
    den_t = _mT(den)
    W = _mT(np.linalg.solve(den_t, _mT(num)))
    # one step of iterative refinement: downstream identities divide by
    # Im(gamma Z), so squeeze the solve to its backward-stable limit
    W = W + _mT(np.linalg.solve(den_t, _mT(num - W @ den)))
    # the result is symmetric in exact arithmetic; reject only genuine blowup
    Wt = _mT(W)
    if (_max_abs(W - Wt) > 1e-6 * np.maximum(1.0, _max_abs(W))).any():
        raise DegeneracyError("action lost symmetry beyond roundoff")
    try:
        return SiegelPoint.from_matrix((W + Wt) / 2.0)
    except ValueError as exc:
        raise DegeneracyError(f"image of the action is not a Siegel point: "
                              f"{exc}") from exc


def im_of_action(gamma: SymplecticElement, point: SiegelPoint) -> np.ndarray:
    """Imaginary part of gamma(Z), computed as
    ((C Zbar + D)^t)^{-1} Y (C Z + D)^{-1}."""
    Z, den = _cocycle_blocks(gamma, point)
    den_bar = gamma.C @ Z.conj() + gamma.D
    W = np.linalg.solve(den_bar.T, point.Y.astype(complex))
    W = np.linalg.solve(den.T, W.T).T
    W = (W + W.T) / 2.0
    return W.real


def tangent_pushforward(gamma: SymplecticElement, point: SiegelPoint,
                        V: np.ndarray) -> np.ndarray:
    """Differential of the action: (Z C^t + D^t)^{-1} V (C Z + D)^{-1}."""
    V = np.asarray(V, dtype=complex)
    if np.abs(V - V.T).max() > 1e-12 * max(1.0, np.abs(V).max()):
        raise ValueError("tangent matrix must be symmetric")
    Z, den = _cocycle_blocks(gamma, point)
    left = Z @ gamma.C.T + gamma.D.T
    out = np.linalg.solve(left, V)
    out = np.linalg.solve(den.T, out.T).T
    return (out + out.T) / 2.0


def pushforward_matrix(gamma: SymplecticElement,
                       point: SiegelPoint) -> np.ndarray:
    """Row-convention cocycle S(gamma, Z) on Omega coordinates."""
    Z, den = _cocycle_blocks(gamma, point)
    if np.linalg.cond(den) > COND_LIMIT:
        raise DegeneracyError("cocycle factor is numerically singular")
    Q = np.linalg.inv(den)
    pairs = omega_list(point.g)
    m = len(pairs)
    S = np.empty((m, m), dtype=complex)
    for pos, (a, b) in enumerate(pairs):
        qa, qb = Q[a - 1, :], Q[b - 1, :]
        P = np.outer(qa, qb)
        P = P + P.T if a != b else P
        S[pos, :] = sym_to_coords(P)
    return S


def pushforward_matrix_derivative(gamma: SymplecticElement,
                                  point: SiegelPoint,
                                  V: np.ndarray) -> np.ndarray:
    """Directional derivative of Z -> S(gamma, Z) along the symmetric V,
    from d(C Z + D)^{-1} = -(C Z + D)^{-1} C V (C Z + D)^{-1}."""
    Z, den = _cocycle_blocks(gamma, point)
    Q = np.linalg.inv(den)
    dQ = -Q @ (gamma.C @ np.asarray(V, dtype=complex)) @ Q
    pairs = omega_list(point.g)
    m = len(pairs)
    dS = np.empty((m, m), dtype=complex)
    for pos, (a, b) in enumerate(pairs):
        qa, qb = Q[a - 1, :], Q[b - 1, :]
        da, db = dQ[a - 1, :], dQ[b - 1, :]
        P = np.outer(da, qb) + np.outer(qa, db)
        P = P + P.T if a != b else P
        dS[pos, :] = sym_to_coords(P)
    return dS


def random_symplectic(g: int, word_length: int,
                      seed: int | np.random.Generator) -> SymplecticElement:
    """Deterministic product of word_length random generators."""
    return random_word(g, word_length, seed).expand()


def random_word(g: int, word_length: int,
                seed: int | np.random.Generator) -> GeneratorWord:
    if word_length < 0:
        raise ValueError("word length must be >= 0")
    rng = np.random.default_rng(seed) if isinstance(seed, int) else seed
    steps = []
    for _ in range(word_length):
        kind = rng.integers(0, 3)
        if kind == 0:
            steps.append(("J", None))
        elif kind == 1:
            B = rng.integers(-2, 3, size=(g, g))
            B = np.triu(B) + np.triu(B, 1).T
            steps.append(("T", tuple(map(tuple, B.tolist()))))
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
            steps.append(("U", tuple(map(tuple, U.tolist()))))
    return GeneratorWord(g, tuple(steps))


def random_point(g: int, seed: int | np.random.Generator,
                 spread: float = 1.0) -> SiegelPoint:
    """Random point with X in [-spread, spread] entries and Y = A A^t + I."""
    rng = np.random.default_rng(seed) if isinstance(seed, int) else seed
    X = rng.uniform(-spread, spread, size=(g, g))
    X = (X + X.T) / 2.0
    A = rng.uniform(-spread, spread, size=(g, g)) / np.sqrt(g)
    Y = A @ A.T + np.eye(g)
    return SiegelPoint(g, X, Y)
