"""Points of the Siegel upper half space, the symplectic group and its action.

Conventions: an element gamma = (A, B; C, D) acts by
gamma(Z) = (A Z + B)(C Z + D)^{-1}, and the differential of the action is
d(gamma Z) = (Z C^t + D^t)^{-1} dZ (C Z + D)^{-1}.  In the Omega-ordered
coordinate basis the differential is recorded as a row-vector cocycle:
(dW_11, ..., dW_gg) = (dZ_11, ..., dZ_gg) . S(gamma, Z), i.e. S[L, K] is
the K-th coordinate of the pushforward of the L-th basis direction.

Group elements carry exact integer blocks; floating point enters only when
they are applied to a point.  A unimodular block is tested, and inverted,
by exact fraction-free solves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .indexing import (DimensionError, _degree, _same_degree,
                       row_col_indices, sym_to_coords)

# largest condition number accepted for Y of a point and for C Z + D
COND_LIMIT = 1e12

# relative tolerance of the symmetry test of point validation
_POINT_TOL = 1e-12


class DegeneracyError(ArithmeticError):
    """A cocycle factor is numerically singular, or the image of the action
    is no longer a valid point."""


def _square_size(M: np.ndarray, what: str) -> int:
    """n of the n x n matrix M; DimensionError for any other shape."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {M.shape}")
    return M.shape[0]


def _mT(M: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack of shape (..., g, g)."""
    return M.swapaxes(-1, -2)


def _max_abs(M: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of every matrix in a stack."""
    return np.abs(M).max(axis=(-2, -1))


def _first_bad(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of bad, or None when there is none.
    Validation calls it only once a test has failed, to say where."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.argwhere(bad)[0])


def _at(index: tuple[int, ...]) -> str:
    return f" at stack index {index}" if index else ""


_PARTS = ("real part", "imaginary part")

_MISSING = object()


# below this magnitude a - b and a + b of two finite floats cannot overflow
_HALF_RANGE = 2.0 ** 1023


def _skew_and_mean_near_overflow(XY: np.ndarray, XYt: np.ndarray):
    """max|a - b| and (a + b) / 2 over a stack with entries of magnitude
    2^1023 or more.  An overflowed skew is infinite, and is rejected as
    asymmetry; where the sum overflowed, the sum of the halves, exact at
    that magnitude, replaces it."""
    with np.errstate(over="ignore"):
        skew = _max_abs(XY - XYt)
        mean = (XY + XYt) / 2.0
    return skew, np.where(np.isfinite(mean), mean, XY / 2.0 + XYt / 2.0)


def _validated(g: int, X, Y) -> tuple[np.ndarray, ...]:
    """Symmetrized, read-only X and Y and the read-only ascending
    eigenvalues of Y, after one batched pass of checks over every point of
    a stack: finite entries, symmetry against _POINT_TOL times the entry
    scale, and one spectral test of Y, which must have lambda_min > 0 and
    lambda_max <= COND_LIMIT * lambda_min.

    The finiteness test is folded into the entry scale: a NaN or infinite
    entry leaves max|entry| non-finite.  Each test is one reduction over
    the stack; only a failed one looks for the first bad member."""
    _degree(g)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[-2:] != (g, g) or Y.shape != X.shape:
        raise DimensionError(f"expected {g}x{g} blocks, got "
                             f"{X.shape} and {Y.shape}")
    XY = np.array((X, Y))
    scale = np.maximum(1.0, _max_abs(XY))
    top = scale.max()
    if top < _HALF_RANGE:
        XYt = _mT(XY)
        skew, mean = _max_abs(XY - XYt), (XY + XYt) / 2.0
    elif np.isfinite(top):
        skew, mean = _skew_and_mean_near_overflow(XY, _mT(XY))
    else:
        bad = _first_bad(~np.isfinite(XY).all(axis=(-2, -1)))
        raise ValueError(f"{_PARTS[bad[0]]} has non-finite entries"
                         f"{_at(bad[1:])}")
    asymmetric = skew > _POINT_TOL * scale
    if asymmetric.any():
        bad = _first_bad(asymmetric)
        raise ValueError(f"{_PARTS[bad[0]]} is not symmetric (asymmetry "
                         f"{skew[bad]:.3e}){_at(bad[1:])}")
    XY = mean
    XY.setflags(write=False)
    X, Y = XY
    spectrum = np.linalg.eigvalsh(Y)
    low, high = spectrum[..., 0], spectrum[..., -1]
    if ((low <= 0) | (high / COND_LIMIT > low)).any():
        bad = _first_bad(low <= 0)
        if bad is not None:
            raise ValueError(f"imaginary part is not positive definite "
                             f"(lambda_min = {low[bad]:.3e}){_at(bad)}")
        bad = _first_bad(high / COND_LIMIT > low)
        raise ValueError(f"imaginary part is numerically singular "
                         f"(eigenvalues {low[bad]:.3e} to {high[bad]:.3e}, "
                         f"condition number above {COND_LIMIT:.0e})"
                         f"{_at(bad)}")
    spectrum.setflags(write=False)
    return X, Y, spectrum


def _json_object(text: str, *keys: str) -> tuple[int, dict]:
    """The degree and the fields of a JSON object with an integer "g" and
    the given keys; ValueError for any other text, a missing key
    included, and DimensionError for a degree below 1."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with keys g, "
                         f"{', '.join(keys)}; got {type(data).__name__}")
    for key in ("g",) + keys:
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    g = data["g"]
    if type(g) is not int:  # a bool is an int to isinstance
        raise ValueError(f"g must be an integer, got {g!r}")
    return _degree(g), data


def _json_array(data: dict, key: str, dtype) -> np.ndarray:
    """data[key] as an array; its entries must be JSON integers for an
    integer dtype and JSON numbers else (a bool, a string or null is not
    coerced)."""
    integer = np.issubdtype(dtype, np.integer)
    entries = np.array(data[key], dtype=object)
    for entry in entries.flat:
        if type(entry) not in ((int,) if integer else (int, float)):
            # a bool is an int to isinstance
            raise ValueError(f"{key} is not a matrix of numbers: {entry!r} "
                             f"is not a JSON "
                             f"{'integer' if integer else 'number'}")
    try:
        return entries.astype(dtype)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{key} is not a matrix of numbers ({exc})") from None


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """A point Z = X + iY with X, Y real symmetric and Y positive definite,
    or a stack of such points when X and Y have shape (..., g, g).

    Points compare and hash by identity: their entries are floats.  Each
    point keeps one memo of what is derived from it: its images under the
    action, its cocycles, its metric and the values of test functions at
    it (see ``derived``).  ``spectrum`` holds the eigenvalues of Y in
    ascending order, shape (..., g), as validation computed them.  The
    constructor builds Z = X + iY and the memo.  Z, X, Y, the spectrum
    and every memoized array are read-only.
    """

    g: int
    X: np.ndarray
    Y: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)
    Z: np.ndarray = field(init=False, repr=False)
    _memo: dict = field(init=False, repr=False)

    def __post_init__(self):
        X, Y, spectrum = _validated(self.g, self.X, self.Y)
        Z = X + 1j * Y
        Z.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "_memo", {})

    def derived(self, build, *args):
        """build(*args, self), computed on the first request and kept on
        this point under the key (build, *args), so every later request
        returns the same object.  Group elements in args compare by value,
        so equal elements share one entry.  A build that raises stores
        nothing.  The memo lives and dies with the point; builders return
        read-only values."""
        key = (build,) + args
        memo = self._memo
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = build(*args, self)
        return value

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
        """One point; ValueError for X or Y other than a g x g matrix, a
        stack of them included."""
        g, data = _json_object(text, "X", "Y")
        blocks = [_json_array(data, key, float) for key in "XY"]
        for key, block in zip("XY", blocks):
            if block.shape != (g, g):
                raise ValueError(f"{key} must be a {g}x{g} matrix, got "
                                 f"shape {block.shape}")
        return cls(g, *blocks)


# an integer product whose partial sums are bounded by max|a| max|b| n
# below this runs in int64; the margin below 2^63 covers the rounding of
# the bound, which is taken in floating point
_INT64_SAFE = 2.0 ** 62


def _magnitude(a: np.ndarray) -> float:
    """max|a| of an integer matrix (in floating point, where abs(-2^63)
    does not wrap)."""
    return float(np.abs(a, dtype=float).max(initial=0.0))


def _int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two integer matrices in int64, through Python ints
    when the partial sums could pass the int64 range; a product beyond
    that range raises DegeneracyError."""
    if _magnitude(a) * _magnitude(b) * a.shape[-1] >= _INT64_SAFE:
        a = a.astype(object)  # Python ints, which do not wrap
    try:
        return np.asarray(a @ b, dtype=np.int64)
    except OverflowError:
        raise DegeneracyError("product has entries beyond the 64-bit "
                              "integer range") from None


@lru_cache(maxsize=16)
def _symplectic_form(g: int) -> np.ndarray:
    """The read-only int64 matrix J = (O, I; -I, O) of degree g, built once
    per degree."""
    J = np.zeros((2 * g, 2 * g), dtype=np.int64)
    J[:g, g:] = np.eye(g, dtype=np.int64)
    J[g:, :g] = -J[:g, g:]
    J.setflags(write=False)
    return J


def _integer_matrix(M, what: str) -> np.ndarray:
    """M as an array; ValueError unless its dtype is an integer type."""
    M = np.asarray(M)
    if not np.issubdtype(M.dtype, np.integer):
        raise ValueError(f"{what}: integer matrices only, got dtype "
                         f"{M.dtype}")
    return M


def _int64_entries(M, what: str) -> np.ndarray:
    """M as an integer array whose entries fit int64, the type an element
    keeps; ValueError else (a uint64 entry of 2^63 or more would wrap)."""
    M = _integer_matrix(M, what)
    if M.dtype == np.uint64 and M.max(initial=0) > np.iinfo(np.int64).max:
        raise ValueError(f"{what}: entries beyond the 64-bit integer range")
    return M


def _symplectic_degree(M: np.ndarray) -> int:
    """g of the 2g x 2g matrix M, g >= 1; DimensionError for any other
    shape.  The shape test of the element constructor and is_symplectic."""
    n = _square_size(M, "symplectic matrix")
    if n % 2 != 0:
        raise DimensionError(f"symplectic matrices have even size, got {n}")
    return _degree(n // 2)


def _blocks_symplectic(M: np.ndarray) -> bool:
    """Whether the integer block matrix M = (A, B; C, D) satisfies
    M J M^t = J, tested as one exact product.  An int64 M is multiplied in
    int64 while the partial sums, at most 2g max|M|^2, stay in range; any
    other integer type, whose own products would wrap sooner (or not fit
    in int64 at all), goes through Python ints."""
    J = _symplectic_form(M.shape[0] // 2)
    if (M.dtype != np.int64
            or _magnitude(M) ** 2 * M.shape[0] >= _INT64_SAFE):
        M = M.astype(object)  # Python ints, which do not wrap
    return bool((M @ J @ M.T == J).all())


def is_symplectic(M: np.ndarray) -> bool:
    """Whether the integer matrix M satisfies M J M^t = J, tested exactly by
    the product of the constructor; ValueError for any other dtype."""
    M = np.asarray(M)
    _symplectic_degree(M)
    return _blocks_symplectic(_integer_matrix(M, "is_symplectic"))


def _solve_exact(columns: list[list[int]],
                 target: list[int]) -> list[Fraction] | None:
    """Solve sum_j x_j columns[j] = target exactly over the integers, or
    report failure (None).  Free unknowns are set to zero.

    Fraction-free Gauss-Jordan elimination (Bareiss): every entry stays an
    integer minor of the augmented matrix, so each division by the previous
    pivot is exact, and each pivot row ends with the last pivot on its
    diagonal, which is the common denominator of the solution.
    """
    n_cols = len(columns)
    rows = [list(row) for row in zip(*columns, target)]
    pivots = []
    previous = 1
    for col in range(n_cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead_row = rows[rank]
        lead = lead_row[col]
        for r, row in enumerate(rows):
            if r != rank:
                factor = row[col]
                rows[r] = [(lead * v - factor * u) // previous
                           for v, u in zip(row, lead_row)]
        previous = lead
        pivots.append(col)
    if any(row[n_cols] for row in rows[len(pivots):]):
        return None
    solution = [Fraction(0)] * n_cols
    for r, col in enumerate(pivots):
        solution[col] = Fraction(rows[r][n_cols], previous)
    return solution


def _unimodular_inverse_t(U: np.ndarray) -> np.ndarray:
    """U^-t of the square integer matrix U, exactly: row j solves
    U x = e_j (_solve_exact).  ValueError unless every solution is
    integral, that is unless U is unimodular; DegeneracyError for an entry
    beyond the 64-bit integer range."""
    columns = U.T.tolist()  # Python ints, which do not wrap
    rows = []
    for e in np.eye(len(U), dtype=np.int64).tolist():
        x = _solve_exact(columns, e)
        if x is None or any(c.denominator != 1 for c in x):
            raise ValueError("embedding block must be unimodular")
        rows.append([int(c) for c in x])
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise DegeneracyError("inverse has entries beyond the 64-bit "
                              "integer range") from None


def _assembled(A, B, C, D) -> np.ndarray:
    """The int64 block matrix (A, B; C, D) of four g x g integer blocks."""
    g = len(A)
    M = np.empty((2 * g, 2 * g), dtype=np.int64)
    M[:g, :g], M[:g, g:], M[g:, :g], M[g:, g:] = A, B, C, D
    return M


@dataclass(frozen=True, eq=False)
class SymplecticElement:
    """The element of Sp(2g, Z) with the integer matrix M = (A, B; C, D).

    The one constructor takes M: one integer check, one shape test (2g x 2g,
    g >= 1) and one exact test of M J M^t = J.  It keeps a read-only int64
    copy as ``matrix``, whose size gives the degree ``g`` and whose blocks
    ``A``, ``B``, ``C`` and ``D`` are read-only views.  Elements compare by
    exact value and hash by the bytes of the matrix, computed here;
    ``inverse`` builds the inverse on first call.
    """

    matrix: np.ndarray

    def __post_init__(self):
        M = _int64_entries(self.matrix, "symplectic matrix")
        g = _symplectic_degree(M)
        # a new matrix, so that the caller's array stays writable
        M = M.astype(np.int64)
        if not _blocks_symplectic(M):
            raise ValueError("blocks do not satisfy the symplectic relation")
        M.setflags(write=False)
        # the instance is frozen, so its attributes go into its dict
        vars(self).update(matrix=M, g=g, _hash=hash(M.tobytes()),
                          A=M[:g, :g], B=M[:g, g:], C=M[g:, :g], D=M[g:, g:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymplecticElement):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def identity(cls, g: int) -> "SymplecticElement":
        return cls(np.eye(2 * _degree(g), dtype=np.int64))

    @classmethod
    def inversion(cls, g: int) -> "SymplecticElement":
        """J = (O, I; -I, O)."""
        return cls(_symplectic_form(_degree(g)))

    @classmethod
    def translation(cls, B: np.ndarray) -> "SymplecticElement":
        """(I, B; O, I) for the symmetric integer matrix B."""
        B = _int64_entries(B, "translation block")
        g = _degree(_square_size(B, "translation block"))
        if not np.array_equal(B, B.T):
            raise ValueError("translation block must be symmetric")
        I = np.eye(g, dtype=np.int64)
        return cls(_assembled(I, B, 0, I))

    @classmethod
    def unimodular(cls, U: np.ndarray) -> "SymplecticElement":
        """(U, O; O, U^-t) for the unimodular integer matrix U."""
        U = _int64_entries(U, "embedding block")
        g = _degree(_square_size(U, "embedding block"))
        return cls(_assembled(U, 0, 0, _unimodular_inverse_t(U)))

    def __matmul__(self, other: "SymplecticElement") -> "SymplecticElement":
        _same_degree("element", self.g, "element", other.g)
        return SymplecticElement(_int_matmul(self.matrix, other.matrix))

    def inverse(self) -> "SymplecticElement":
        """The exact inverse, built on first call and kept."""
        return self._inverse

    @cached_property
    def _inverse(self) -> "SymplecticElement":
        # -(-2^63) wraps to itself in int64
        if min(self.B.min(initial=0), self.C.min(initial=0)) == -2 ** 63:
            raise DegeneracyError("inverse has entries beyond the 64-bit "
                                  "integer range")
        return SymplecticElement(_assembled(self.D.T, -self.B.T, -self.C.T,
                                            self.A.T))

    def to_json(self) -> str:
        return json.dumps({"g": self.g, "A": self.A.tolist(),
                           "B": self.B.tolist(), "C": self.C.tolist(),
                           "D": self.D.tolist()}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SymplecticElement":
        """One element from its blocks, each g x g (DimensionError)."""
        g, data = _json_object(text, "A", "B", "C", "D")
        blocks = [_json_array(data, key, np.int64) for key in "ABCD"]
        for key, block in zip("ABCD", blocks):
            if block.shape != (g, g):
                raise DimensionError(f"block {key} must be {g}x{g}")
        return cls(_assembled(*blocks))


def _cocycle(gamma: SymplecticElement, point: SiegelPoint) -> tuple:
    """(C Z + D, its condition number), built and tested once per (gamma,
    point): the one COND_LIMIT test of every reader of C Z + D."""
    _same_degree("element", gamma.g, "point", point.g)
    den = gamma.C @ point.Z + gamma.D
    cond = np.linalg.cond(den)
    if (cond > COND_LIMIT).any():
        raise DegeneracyError("cocycle factor is numerically singular")
    den.setflags(write=False)
    if isinstance(cond, np.ndarray):  # not the scalar of one point
        cond.setflags(write=False)
    return den, cond


def cocycle(gamma: SymplecticElement, point: SiegelPoint) -> np.ndarray:
    """The automorphy factor C Z + D (one per point of a stack), built
    once per (gamma, point) and kept on the point, read-only;
    DegeneracyError when its condition number exceeds COND_LIMIT."""
    return point.derived(_cocycle, gamma)[0]


def cocycle_condition(gamma: SymplecticElement,
                      point: SiegelPoint) -> np.ndarray:
    """cond(C Z + D) (one per point of a stack), kept beside it by its
    builder, which raises DegeneracyError above COND_LIMIT."""
    return point.derived(_cocycle, gamma)[1]


def _require_one_point(point: SiegelPoint) -> None:
    """The one-point gate: DimensionError for a stack of points."""
    if point.Y.ndim != 2:
        raise DimensionError(f"expected one point, got a stack of shape "
                             f"{point.Y.shape[:-2]}")


def _cocycle_inverse(gamma: SymplecticElement,
                     point: SiegelPoint) -> np.ndarray:
    """(C Z + D)^{-1} at one point, for both pushforwards; see _cocycle."""
    _require_one_point(point)
    Q = np.linalg.inv(point.derived(_cocycle, gamma)[0])
    Q.setflags(write=False)
    return Q


def _act(gamma: SymplecticElement, point: SiegelPoint) -> SiegelPoint:
    Z, den = point.Z, point.derived(_cocycle, gamma)[0]
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


def act(gamma: SymplecticElement, point: SiegelPoint) -> SiegelPoint:
    """Generalized Moebius action (A Z + B)(C Z + D)^{-1}, applied to every
    point of a stack; any member failing a check fails the call.  The image
    is built (and validated) once per (gamma, point) and kept on the point:
    asking again returns the same image object."""
    return point.derived(_act, gamma)


def _tangent(V, g: int) -> np.ndarray:
    """V as a complex array, the one gate for a tangent matrix: ValueError
    for a NaN or infinite entry, DimensionError for a shape other than
    g x g, ValueError for a V that is not symmetric."""
    V = np.asarray(V, dtype=complex)
    if not np.isfinite(V).all():
        raise ValueError("tangent matrix must be finite")
    if V.shape != (g, g):
        raise DimensionError(
            f"expected a {g}x{g} tangent matrix, got shape {V.shape}")
    if np.abs(V - V.T).max() > 1e-12 * max(1.0, np.abs(V).max()):
        raise ValueError("tangent matrix must be symmetric")
    return V


def tangent_pushforward(gamma: SymplecticElement, point: SiegelPoint,
                        V: np.ndarray) -> np.ndarray:
    """Differential of the action: (Z C^t + D^t)^{-1} V (C Z + D)^{-1} at
    one point (DimensionError for a stack); V passes the tangent gate
    (_tangent) and C Z + D the COND_LIMIT test of its builder (_cocycle)."""
    _require_one_point(point)
    V = _tangent(V, point.g)
    den_t = point.derived(_cocycle, gamma)[0].T  # Z C^t + D^t, Z symmetric
    out = np.linalg.solve(den_t, V)
    out = np.linalg.solve(den_t, out.T).T
    return (out + out.T) / 2.0


def _symmetrized_rows(outer: np.ndarray) -> np.ndarray:
    """Rows of a cocycle: row pos = (a, b) holds the Omega coordinates of
    the pushed-forward basis direction E_pos, from outer[pos], the product
    of rows a and b: outer[pos] + outer[pos]^t for a != b, outer[pos] for
    a = b.  Made C-contiguous (sym_to_coords of a stack is not), the
    layout of a row-by-row fill, which the loop oracle and later BLAS
    products rely on."""
    ii, jj = row_col_indices(outer.shape[-1])
    pushed = np.where((ii != jj)[:, None, None], outer + _mT(outer), outer)
    return np.ascontiguousarray(sym_to_coords(pushed))


def _pushforward_matrix(gamma: SymplecticElement,
                        point: SiegelPoint) -> np.ndarray:
    Q = point.derived(_cocycle_inverse, gamma)
    ii, jj = row_col_indices(point.g)
    S = _symmetrized_rows(Q[ii, :, None] * Q[jj, None, :])
    S.setflags(write=False)
    return S


def pushforward_matrix(gamma: SymplecticElement,
                       point: SiegelPoint) -> np.ndarray:
    """Row-convention cocycle S(gamma, Z) on Omega coordinates: row (a, b)
    holds the coordinates of the symmetrized outer product of rows a and b
    of (C Z + D)^{-1}, at one point (DimensionError for a stack).
    Computed once per (gamma, point) and kept on the point, read-only."""
    return point.derived(_pushforward_matrix, gamma)


def pushforward_matrix_derivative(gamma: SymplecticElement,
                                  point: SiegelPoint,
                                  V: np.ndarray) -> np.ndarray:
    """Directional derivative of Z -> S(gamma, Z) along the symmetric V,
    from d(C Z + D)^{-1} = -(C Z + D)^{-1} C V (C Z + D)^{-1}, with the
    inverse that pushforward_matrix keeps on the point, so at one point
    (DimensionError for a stack); V passes the tangent gate (_tangent)."""
    V = _tangent(V, point.g)
    Q = point.derived(_cocycle_inverse, gamma)
    dQ = -Q @ (gamma.C @ V) @ Q
    ii, jj = row_col_indices(point.g)
    outer = (dQ[ii, :, None] * Q[jj, None, :]
             + Q[ii, :, None] * dQ[jj, None, :])
    return _symmetrized_rows(outer)


def random_symplectic(g: int, word_length: int,
                      seed: int | np.random.Generator) -> SymplecticElement:
    """Deterministic product of word_length random generators: inversions,
    symmetric translations and unimodular embeddings.  Each drawn
    generator is written straight into its step matrix, unvalidated, and
    multiplied into the product exactly, in int64 or through Python ints
    (see _int_matmul); only the product becomes, and is validated as, an
    element, by one test of M J M^t = J.  B is drawn symmetric.  U is
    built by row operations U[j] += c U[i], unimodular by construction,
    and U^-t beside it by V[i] -= c V[j], so neither is tested or solved
    for."""
    _degree(g)
    if word_length < 0:
        raise ValueError("word length must be >= 0")
    rng = np.random.default_rng(seed)
    out = np.eye(2 * g, dtype=np.int64)
    for _ in range(word_length):
        kind = rng.integers(0, 3)
        step = (_symplectic_form(g) if kind == 0
                else np.eye(2 * g, dtype=np.int64))
        if kind == 1:
            B = rng.integers(-2, 3, size=(g, g))
            step[:g, g:] = np.triu(B) + np.triu(B, 1).T
        elif kind == 2:
            # U and U^-t, built in place as the diagonal blocks of step
            U, V = step[:g, :g], step[g:, g:]
            for _ in range(int(rng.integers(1, 4))):
                i, j = rng.integers(0, g, size=2)
                if g > 1 and i == j:
                    j = (j + 1) % g
                if g == 1:
                    sign = -1 if rng.integers(0, 2) else 1
                    U *= sign
                    V *= sign
                else:
                    c = int(rng.integers(-2, 3))
                    U[j, :] += c * U[i, :]
                    V[i, :] -= c * V[j, :]
        out = _int_matmul(out, step)
    return SymplecticElement(out)


def random_point(g: int, seed: int | np.random.Generator,
                 spread: float = 1.0) -> SiegelPoint:
    """Random point with X in [-spread, spread] entries and Y = A A^t + I."""
    _degree(g)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-spread, spread, size=(g, g))
    X = (X + X.T) / 2.0
    A = rng.uniform(-spread, spread, size=(g, g)) / np.sqrt(g)
    Y = A @ A.T + np.eye(g)
    return SiegelPoint(g, X, Y)
