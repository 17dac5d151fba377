"""Exact truncated q-expansions for degree-1 modular forms.

Coefficients are exact rationals, stored as Python-int numerators over one
common denominator.  Products multiply the numerator vectors as single
integers (Kronecker substitution), membership solves are fraction-free
(Bareiss), and floating point appears only in ``evaluate``.

The weight-2 Eisenstein series is normalized as G2 = (pi/3) E2, the unique
scaling for which i G2 obeys the same transformation defect 2c/(cz+d) as
i/y; the series keeps the exact E2 and the float G2_FACTOR = pi/3
multiplies it where G2 is evaluated.

The holomorphic weight-raising derivative is computed in the
theta-normalization  v_w f = theta f - (w/12) E2 f  with theta = q d/dq,
which equals (1/2 pi i)(f' - i k G2 f) for w = 2k.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

from .symplectic import DegeneracyError

# largest estimated truncation tail that evaluate accepts
_TAIL_TOL = 1e-9

# G2 = G2_FACTOR E2
G2_FACTOR = math.pi / 3


class TruncationError(ArithmeticError):
    """Requested evaluation cannot meet the tail tolerance."""


class QSeries:
    """Truncated power series in q with exact rational coefficients.

    Coefficient m is ``_nums[m] / _den``: integer numerators over one
    positive common denominator, reduced so that their gcd with it is 1.
    A series is immutable; ``coeffs`` gives the coefficients as Fractions.
    """

    __slots__ = ("_nums", "_den", "_weight", "_floats")

    def __init__(self, coeffs, weight: int | None = None):
        values = [Fraction(c) for c in coeffs]
        den = math.lcm(*(v.denominator for v in values))
        self._store([v.numerator * (den // v.denominator) for v in values],
                    den, weight)

    @classmethod
    def _exact(cls, nums, den: int, weight: int | None) -> "QSeries":
        """The series with coefficients nums[m] / den, for den > 0."""
        series = cls.__new__(cls)
        series._store(nums, den, weight)
        return series

    def _store(self, nums, den: int, weight: int | None) -> None:
        if not nums:
            raise ValueError("series needs at least one coefficient")
        common = math.gcd(den, *nums)
        if common != 1:
            nums = [c // common for c in nums]
            den //= common
        self._nums = tuple(nums)
        self._den = den
        self._weight = weight
        self._floats = None

    @property
    def weight(self) -> int | None:
        return self._weight

    def _with_weight(self, weight: int | None) -> "QSeries":
        return QSeries._exact(self._nums, self._den, weight)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._nums)

    def _float_coeffs(self) -> tuple[float, ...]:
        """Each coefficient rounded once to the nearest float (int true
        division rounds correctly, as float(Fraction) does)."""
        if self._floats is None:
            self._floats = tuple(c / self._den for c in self._nums)
        return self._floats

    def __len__(self) -> int:
        return len(self._nums)

    def truncate(self, n: int) -> "QSeries":
        return QSeries._exact(self._nums[:n], self._den, self.weight)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        # the stored form is reduced with den > 0, so it is unique: equal
        # series store equal numbers, and series of different lengths differ
        return self._den == other._den and self._nums == other._nums

    def __add__(self, other: "QSeries") -> "QSeries":
        w = self.weight if self.weight == other.weight else None
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        return QSeries._exact([a * fa + b * fb for a, b in zip(self._nums,
                                                               other._nums)],
                              den, w)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "QSeries") -> "QSeries":
        n = min(len(self), len(other))
        w = None
        if self.weight is not None and other.weight is not None:
            w = self.weight + other.weight
        return QSeries._exact(_product_head(self._nums[:n], other._nums[:n]),
                              self._den * other._den, w)

    def scale(self, scalar) -> "QSeries":
        scalar = Fraction(scalar)
        return QSeries._exact([scalar.numerator * c for c in self._nums],
                              scalar.denominator * self._den, self.weight)

    def theta(self) -> "QSeries":
        """q d/dq."""
        return QSeries._exact([m * c for m, c in enumerate(self._nums)],
                              self._den, None)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def __repr__(self):
        head = ", ".join(str(Fraction(c, self._den)) for c in self._nums[:6])
        return f"QSeries([{head}, ...], weight={self.weight})"


def _product_head(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The first n coefficients of the product of two integer polynomials
    of length n, by Kronecker substitution: each vector becomes one integer
    in base 2^(8 size), with a digit wide enough for any product
    coefficient (at most n max|a| max|b| in magnitude), and one integer
    multiplication yields every coefficient as a signed digit."""
    n = len(a)
    bound = n * max(map(abs, a)) * max(map(abs, b))
    if not bound:
        return [0] * n
    size = bound.bit_length() // 8 + 1
    half = 1 << (8 * size - 1)
    # half in every digit: adding it makes every signed digit below half in
    # magnitude non-negative, so packing and unpacking never carry
    offset = int.from_bytes(half.to_bytes(size, "little") * n, "little")

    def pack(coeffs):
        return int.from_bytes(b"".join((c + half).to_bytes(size, "little")
                                       for c in coeffs), "little") - offset

    x = pack(a)
    product = x * x if b is a else x * pack(b)
    width = size * n
    raw = ((product + offset) & ((1 << (8 * width)) - 1)).to_bytes(width,
                                                                   "little")
    return [int.from_bytes(raw[i:i + size], "little") - half
            for i in range(0, width, size)]


def _divisor_sum(m: int, power: int) -> int:
    total = 0
    d = 1
    while d * d <= m:
        if m % d == 0:
            total += d ** power
            e = m // d
            if e != d:
                total += e ** power
        d += 1
    return total


_EISENSTEIN_FACTOR = {2: -24, 4: 240, 6: -504}


@functools.lru_cache(maxsize=32)
def eisenstein(k: int, n: int) -> QSeries:
    """Normalized E_k = 1 - (2k/B_k) sum sigma_{k-1}(m) q^m for k in {2,4,6}."""
    if k not in _EISENSTEIN_FACTOR:
        raise ValueError(f"only weights 2, 4, 6 are built in, got {k}")
    if n < 1:
        raise ValueError("need at least one term")
    factor = _EISENSTEIN_FACTOR[k]
    nums = [1] + [factor * _divisor_sum(m, k - 1) for m in range(1, n)]
    return QSeries._exact(nums, 1, k)


def g2_series(n: int) -> QSeries:
    """The exact E2 of G2 = G2_FACTOR E2; i G2 satisfies
    i G2(gamma z)/(cz+d)^2 = i G2(z) + 2c/(cz+d)."""
    return eisenstein(2, n)


def delta(n: int) -> QSeries:
    """The discriminant cusp form (E4^3 - E6^2)/1728."""
    e4 = eisenstein(4, n)
    e6 = eisenstein(6, n)
    out = (e4 * e4 * e4 - e6 * e6).scale(Fraction(1, 1728))
    return out._with_weight(12)


def serre_derivative(f: QSeries) -> QSeries:
    """theta f - (w/12) E2 f, exact, of weight w + 2."""
    if f.weight is None:
        raise ValueError("input series must declare its weight")
    e2 = eisenstein(2, len(f))
    out = f.theta() - (e2 * f).scale(Fraction(f.weight, 12))
    return out._with_weight(f.weight + 2)


def bracket1_classical(f: QSeries, h: QSeries) -> QSeries:
    """h theta f - f theta h; a cusp form of weight w_f + w_h + 2 when the
    weights agree."""
    if f.weight is None or h.weight is None:
        raise ValueError("both series must declare weights")
    out = h * f.theta() - f * h.theta()
    return out._with_weight(f.weight + h.weight + 2)


def evaluate(f: QSeries, z: complex) -> complex:
    """Evaluate at q = exp(2 pi i z), guarding the truncation tail.

    The tail is estimated through |c_m| <= A (m+1)^p with p the declared
    weight (12 when undeclared) and A fitted to the stored coefficients; a
    TruncationError reports the length that would bring it to _TAIL_TOL.
    ValueError for a z that is not finite or not in the upper half plane;
    DegeneracyError for |Re z| >= 2^23, where one ulp of Re z exceeds
    _TAIL_TOL, so the float z does not fix the phase of q to it (a
    weight-0 constant aside, which is exact at every z).
    """
    if not cmath.isfinite(z):
        raise ValueError(f"evaluation point must be finite, got {z}")
    if z.imag <= 0:
        raise ValueError("evaluation point must lie in the upper half plane")
    n = len(f)
    coeffs = f._float_coeffs()
    if n == 1 and f.weight == 0:
        # weight-0 forms are constants, so a length-one series of weight 0
        # is exact; any other length-one series is a truncation like any
        # other and goes through the tail guard
        return complex(coeffs[0])
    if math.ulp(z.real) > _TAIL_TOL:
        raise DegeneracyError(f"phase of q is not resolved at Re z = "
                              f"{z.real:.3e}, whose ulp "
                              f"{math.ulp(z.real):.1e} exceeds "
                              f"{_TAIL_TOL:.1e}")
    q = cmath.exp(2j * math.pi * z)
    p = f.weight if f.weight is not None else 12
    p = max(p, 1)
    A = max(abs(c) / (m + 1) ** p for m, c in enumerate(coeffs))
    growth = (1.0 + 1.0 / n) ** p
    aq = abs(q)
    if aq * growth >= 1.0:
        raise TruncationError("q too large for a geometric tail estimate")
    tail = A * (n + 1) ** p * aq ** n / (1.0 - aq * growth)
    if tail > _TAIL_TOL:
        need = n
        while need < 10 ** 7:
            need *= 2
            est = A * (need + 1) ** p * aq ** need / (1.0 - aq * growth)
            if est <= _TAIL_TOL:
                break
        raise TruncationError(
            f"tail estimate {tail:.2e} exceeds {_TAIL_TOL:.1e}; "
            f"about {need} terms required")
    total = 0j
    for c in reversed(coeffs):
        total = total * q + c
    return total


def dim_modular_forms(w: int) -> int:
    """Dimension of the level-one weight-w space."""
    if w < 0 or w % 2 == 1:
        return 0
    if w % 12 == 2:
        return w // 12
    return w // 12 + 1


class ModularBasis:
    """Monomials E4^a E6^b with 4a + 6b = w, in lex order on (a, b)."""

    def __init__(self, weight: int, n: int):
        self.elements: list[QSeries] = []
        if weight >= 0 and weight % 2 == 0:
            e4 = eisenstein(4, n)
            e6 = eisenstein(6, n)
            for a in range(weight // 4 + 1):
                rem = weight - 4 * a
                if rem % 6 != 0:
                    continue
                b = rem // 6
                term = QSeries._exact([1] + [0] * (n - 1), 1, 0)
                for _ in range(a):
                    term = term * e4
                for _ in range(b):
                    term = term * e6
                self.elements.append(term._with_weight(weight))

    def __len__(self) -> int:
        return len(self.elements)


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


def membership_in_Mw(f: QSeries,
                     w: int) -> tuple[bool, list[Fraction] | None]:
    """Exact membership of f in the weight-w space; returns coordinates on
    the E4-E6 monomial basis when it is a member.  f needs five
    coefficients beyond the dimension of the space."""
    dim = dim_modular_forms(w)
    if len(f) < dim + 5:
        raise ValueError(f"need at least {dim + 5} coefficients, "
                         f"have {len(f)}")
    if dim == 0:
        return (f.is_zero(), [] if f.is_zero() else None)
    basis = ModularBasis(w, len(f))
    # the monomials have integer coefficients: scaling them by the
    # denominator of f keeps the unknowns and makes the system integral
    coords = _solve_exact([[f._den * c for c in b._nums]
                           for b in basis.elements], list(f._nums))
    return (coords is not None, coords)


SL2_WORDS = {
    "S": (0, -1, 1, 0),
    "T": (1, 1, 0, 1),
    "ST": (0, -1, 1, 1),
    "TS": (1, 0, 1, 1),
    "W": (1, 1, 1, 2),
}


def anomaly_residual(abcd: tuple[int, int, int, int], z: complex,
                     n: int) -> float:
    """|i G2(gamma z)/(cz+d)^2 - i G2(z) - 2c/(cz+d)| at a point.

    ValueError for a z that is not finite or not in the upper half plane,
    and from g2_series for n < 1; DegeneracyError when gamma z leaves the
    representable upper half plane (not finite, or its imaginary part
    rounds to 0), when (cz+d)^2 overflows or rounds to 0, or when z or
    gamma z has |Re| >= 2^23, where evaluate cannot resolve the phase of
    q."""
    a, b, c, d = abcd
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    if not cmath.isfinite(z):
        raise ValueError(f"evaluation point must be finite, got {z}")
    if z.imag <= 0:
        raise ValueError("evaluation point must lie in the upper half plane")
    e2 = g2_series(n)
    den = c * z + d
    gz = (a * z + b) / den
    if not (cmath.isfinite(gz) and gz.imag > 0):
        raise DegeneracyError(f"image {gz} of {z} is not in the "
                              f"representable upper half plane")
    factor = den * den  # inf past the float range, where ** would raise
    if factor == 0 or not cmath.isfinite(factor):
        raise DegeneracyError(f"automorphy factor (cz+d)^2 at {z} is not "
                              f"representable")
    lhs = 1j * (G2_FACTOR * evaluate(e2, gz)) / factor
    rhs = 1j * (G2_FACTOR * evaluate(e2, z)) + 2.0 * c / den
    return abs(lhs - rhs)
