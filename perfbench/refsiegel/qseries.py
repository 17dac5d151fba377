"""Exact truncated q-expansions for degree-1 modular forms.

Coefficients are Fractions throughout; floating point appears only in
``evaluate``.  The weight-2 Eisenstein series is normalized as
G2 = (pi/3) E2, the unique scaling for which i G2 obeys the same
transformation defect 2c/(cz+d) as i/y; transcendental prefactors are kept
as symbolic tags on the series rather than folded into coefficients.

The holomorphic weight-raising derivative is computed in the
theta-normalization  v_w f = theta f - (w/12) E2 f  with theta = q d/dq,
which equals (1/2 pi i)(f' - i k G2 f) for w = 2k.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction


class TruncationError(ArithmeticError):
    """Requested evaluation cannot meet the tail tolerance."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class QSeries:
    """Truncated power series in q with exact rational coefficients."""

    __slots__ = ("coeffs", "weight")

    def __init__(self, coeffs, weight: int | None = None):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least one coefficient")
        self.weight = weight

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, m: int) -> Fraction:
        return self.coeffs[m]

    def truncate(self, n: int) -> "QSeries":
        return QSeries(self.coeffs[:n], self.weight)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(len(self), len(other))
        return self.coeffs[:n] == other.coeffs[:n]

    def __add__(self, other: "QSeries") -> "QSeries":
        n = min(len(self), len(other))
        w = self.weight if self.weight == other.weight else None
        return QSeries([self.coeffs[m] + other.coeffs[m] for m in range(n)], w)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "QSeries") -> "QSeries":
        n = min(len(self), len(other))
        out = [Fraction(0)] * n
        for a, ca in enumerate(self.coeffs[:n]):
            if not ca:
                continue
            for b in range(n - a):
                cb = other.coeffs[b]
                if cb:
                    out[a + b] += ca * cb
        w = None
        if self.weight is not None and other.weight is not None:
            w = self.weight + other.weight
        return QSeries(out, w)

    def scale(self, scalar) -> "QSeries":
        scalar = Fraction(scalar)
        return QSeries([scalar * c for c in self.coeffs], self.weight)

    def theta(self) -> "QSeries":
        """q d/dq."""
        return QSeries([m * c for m, c in enumerate(self.coeffs)], None)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QSeries([{head}, ...], weight={self.weight})"


@dataclass(frozen=True)
class TaggedSeries:
    """A rational series times a symbolic prefactor rational * pi^pi_power."""

    series: QSeries
    rational: Fraction = Fraction(1)
    pi_power: int = 0

    def prefactor(self) -> float:
        return float(self.rational) * math.pi ** self.pi_power


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


def eisenstein(k: int, n: int) -> QSeries:
    """Normalized E_k = 1 - (2k/B_k) sum sigma_{k-1}(m) q^m for k in {2,4,6}."""
    if k not in _EISENSTEIN_FACTOR:
        raise ValueError(f"only weights 2, 4, 6 are built in, got {k}")
    if n < 1:
        raise ValueError("need at least one term")
    factor = _EISENSTEIN_FACTOR[k]
    coeffs = [Fraction(1)] + [Fraction(factor * _divisor_sum(m, k - 1))
                              for m in range(1, n)]
    return QSeries(coeffs, weight=k)


def g2_series(n: int) -> TaggedSeries:
    """G2 = (pi/3) E2; i G2 then satisfies
    i G2(gamma z)/(cz+d)^2 = i G2(z) + 2c/(cz+d)."""
    return TaggedSeries(eisenstein(2, n), Fraction(1, 3), 1)


def delta(n: int) -> QSeries:
    """The discriminant cusp form (E4^3 - E6^2)/1728."""
    e4 = eisenstein(4, n)
    e6 = eisenstein(6, n)
    out = (e4 * e4 * e4 - e6 * e6).scale(Fraction(1, 1728))
    return QSeries(out.coeffs, weight=12)


def serre_derivative(f: QSeries, n: int | None = None) -> QSeries:
    """theta f - (w/12) E2 f, exact, of weight w + 2."""
    if f.weight is None:
        raise ValueError("input series must declare its weight")
    if n is not None:
        f = f.truncate(n)
    e2 = eisenstein(2, len(f))
    out = f.theta() - (e2 * f).scale(Fraction(f.weight, 12))
    return QSeries(out.coeffs, weight=f.weight + 2)


def bracket1_classical(f: QSeries, h: QSeries) -> QSeries:
    """h theta f - f theta h; a cusp form of weight w_f + w_h + 2 when the
    weights agree."""
    if f.weight is None or h.weight is None:
        raise ValueError("both series must declare weights")
    out = h * f.theta() - f * h.theta()
    return QSeries(out.coeffs, weight=f.weight + h.weight + 2)


def evaluate(f: QSeries | TaggedSeries, z: complex, prefactor: complex = 1.0,
             tol: float = 1e-9) -> complex:
    """Evaluate at q = exp(2 pi i z), guarding the truncation tail.

    The tail is estimated through |c_m| <= A (m+1)^p with p the declared
    weight (12 when undeclared) and A fitted to the stored coefficients; a
    TruncationError reports the length that would meet the tolerance.
    """
    if isinstance(f, TaggedSeries):
        prefactor = prefactor * f.prefactor()
        f = f.series
    if z.imag <= 0:
        raise ValueError("evaluation point must lie in the upper half plane")
    q = cmath.exp(2j * math.pi * z)
    n = len(f)
    if n == 1:
        # a length-one series carries no decay information; treat it as an
        # exact constant rather than a truncation
        return prefactor * complex(float(f.coeffs[0]))
    p = f.weight if f.weight is not None else 12
    p = max(p, 1)
    A = max(abs(float(c)) / (m + 1) ** p for m, c in enumerate(f.coeffs))
    growth = (1.0 + 1.0 / n) ** p
    aq = abs(q)
    if aq * growth >= 1.0:
        raise TruncationError("q too large for a geometric tail estimate",
                              required=4 * n)
    tail = A * (n + 1) ** p * aq ** n / (1.0 - aq * growth)
    if tail > tol:
        need = n
        while need < 10 ** 7:
            need *= 2
            est = A * (need + 1) ** p * aq ** need / (1.0 - aq * growth)
            if est <= tol:
                break
        raise TruncationError(
            f"tail estimate {tail:.2e} exceeds {tol:.1e}; "
            f"about {need} terms required", required=need)
    total = 0j
    for c in reversed(f.coeffs):
        total = total * q + complex(float(c))
    return prefactor * total


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
        self.weight = weight
        self.n = n
        self.exponents: list[tuple[int, int]] = []
        self.elements: list[QSeries] = []
        if weight >= 0 and weight % 2 == 0:
            e4 = eisenstein(4, n)
            e6 = eisenstein(6, n)
            for a in range(weight // 4 + 1):
                rem = weight - 4 * a
                if rem % 6 != 0:
                    continue
                b = rem // 6
                term = QSeries([Fraction(1)] + [Fraction(0)] * (n - 1), 0)
                for _ in range(a):
                    term = term * e4
                for _ in range(b):
                    term = term * e6
                self.exponents.append((a, b))
                self.elements.append(QSeries(term.coeffs, weight=weight))

    def __len__(self) -> int:
        return len(self.elements)


def membership_in_Mw(f: QSeries, w: int,
                     margin: int = 5) -> tuple[bool, list[Fraction] | None]:
    """Exact membership of f in the weight-w space; returns coordinates on
    the E4-E6 monomial basis when it is a member."""
    dim = dim_modular_forms(w)
    if len(f) < dim + margin:
        raise ValueError(f"need at least {dim + margin} coefficients, "
                         f"have {len(f)}")
    if dim == 0:
        return (f.is_zero(), [] if f.is_zero() else None)
    basis = ModularBasis(w, len(f))
    coords = _solve_exact([list(b.coeffs) for b in basis.elements],
                          list(f.coeffs))
    return (coords is not None, coords)


def _solve_exact(columns: list[list[Fraction]],
                 target: list[Fraction]) -> list[Fraction] | None:
    """Solve sum_j x_j columns[j] = target exactly, or report failure."""
    n_rows = len(target)
    n_cols = len(columns)
    rows = [[columns[j][m] for j in range(n_cols)] + [target[m]]
            for m in range(n_rows)]
    pivots = []
    rank_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank_row, n_rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank_row], rows[pivot] = rows[pivot], rows[rank_row]
        lead = rows[rank_row][col]
        rows[rank_row] = [v / lead for v in rows[rank_row]]
        for r in range(n_rows):
            if r != rank_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r],
                                                          rows[rank_row])]
        pivots.append(col)
        rank_row += 1
    for r in range(rank_row, n_rows):
        if rows[r][n_cols]:
            return None
    solution = [Fraction(0)] * n_cols
    for row_idx, col in enumerate(pivots):
        solution[col] = rows[row_idx][n_cols]
    return solution


SL2_WORDS = {
    "S": (0, -1, 1, 0),
    "T": (1, 1, 0, 1),
    "ST": (0, -1, 1, 1),
    "TS": (1, 0, 1, 1),
    "W": (1, 1, 1, 2),
}


def anomaly_residual(abcd: tuple[int, int, int, int], z: complex,
                     n: int = 300) -> float:
    """|i G2(gamma z)/(cz+d)^2 - i G2(z) - 2c/(cz+d)| at a point."""
    a, b, c, d = abcd
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    g2 = g2_series(n)
    den = c * z + d
    gz = (a * z + b) / den
    lhs = 1j * evaluate(g2, gz) / den ** 2
    rhs = 1j * evaluate(g2, z) + 2.0 * c / den
    return abs(lhs - rhs)
