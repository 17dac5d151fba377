import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegel.cli import main
from siegel.qseries import (G2_FACTOR, ModularBasis, QSeries, SL2_WORDS,
                            TruncationError, anomaly_residual,
                            bracket1_classical, delta, dim_modular_forms,
                            eisenstein, evaluate, g2_series, membership_in_Mw,
                            serre_derivative)
from siegel.symplectic import DegeneracyError, _solve_exact


def test_eisenstein_heads():
    e2 = eisenstein(2, 4)
    assert e2.coeffs == (Fraction(1), Fraction(-24), Fraction(-72),
                         Fraction(-96))
    e4 = eisenstein(4, 3)
    assert e4.coeffs == (Fraction(1), Fraction(240), Fraction(2160))
    e6 = eisenstein(6, 3)
    assert e6.coeffs == (Fraction(1), Fraction(-504), Fraction(-16632))
    with pytest.raises(ValueError):
        eisenstein(8, 5)
    with pytest.raises(ValueError):
        eisenstein(4, 0)


def test_delta_head_and_relation():
    d = delta(5)
    assert d.coeffs == (Fraction(0), Fraction(1), Fraction(-24),
                        Fraction(252), Fraction(-1472))
    n = 120
    d, e4, e6 = delta(n), eisenstein(4, n), eisenstein(6, n)
    assert (d.scale(1728) + e6 * e6) == e4 * e4 * e4
    assert d.coeffs[0] == 0


def test_series_arithmetic_is_exact_and_truncation_aware():
    a = QSeries([1, Fraction(1, 2), 3], weight=4)
    b = QSeries([2, 0, -1, 7], weight=4)
    total = a + b
    assert len(total) == 3
    assert total.weight == 4
    prod = a * b
    assert len(prod) == 3
    assert prod.coeffs[1] == Fraction(1)  # 1*0 + 1/2*2
    assert prod.weight == 8
    assert a.theta().coeffs == (Fraction(0), Fraction(1, 2), Fraction(6))


def test_multiplication_commutative_associative_up_to_truncation():
    import numpy as np
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = QSeries([int(v) for v in rng.integers(-5, 6, size=12)])
        b = QSeries([int(v) for v in rng.integers(-5, 6, size=15)])
        c = QSeries([int(v) for v in rng.integers(-5, 6, size=10)])
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("n", [200])
def test_weight_raising_identities(n):
    e4, e6, d = eisenstein(4, n), eisenstein(6, n), delta(n)
    assert serre_derivative(e4) == e6.scale(Fraction(-1, 3))
    assert serre_derivative(e6) == (e4 * e4).scale(Fraction(-1, 2))
    assert serre_derivative(d).is_zero()


def test_serre_derivative_requires_weight():
    with pytest.raises(ValueError):
        serre_derivative(QSeries([1, 2, 3]))


def test_basis_and_membership():
    ok, coords = membership_in_Mw(eisenstein(4, 40), 4)
    assert ok and coords == [Fraction(1)]
    ok, coords = membership_in_Mw(serre_derivative(eisenstein(4, 40)), 6)
    assert ok and coords == [Fraction(-1, 3)]
    ok, _ = membership_in_Mw(eisenstein(2, 40), 2)
    assert not ok
    ok, coords = membership_in_Mw(QSeries([0] * 40), 2)
    assert ok and coords == []
    with pytest.raises(ValueError):
        membership_in_Mw(QSeries([1, 2]), 12)


def test_basis_dimensions_match_classical_formula():
    for w, dim in ((0, 1), (2, 0), (4, 1), (6, 1), (8, 1), (10, 1), (12, 2),
                   (14, 1), (26, 2), (24, 3)):
        assert dim_modular_forms(w) == dim
        assert len(ModularBasis(w, 40)) == dim


def test_weight_raising_stays_modular():
    for w in (4, 6, 8, 10, 12, 16, 20, 24):
        basis = ModularBasis(w, 60)
        for element in basis.elements:
            ok, _ = membership_in_Mw(serre_derivative(element), w + 2)
            assert ok


def test_evaluate_constant_and_discriminant():
    one = QSeries([1], weight=0)
    assert evaluate(one, 0.5 + 2j) == 1
    d = delta(150)
    value = evaluate(d, 1j)
    assert abs(value.imag) < 1e-12
    assert value.real > 0


def test_evaluate_modularity_of_eisenstein():
    z = 0.3 + 1.2j
    e4 = eisenstein(4, 250)
    lhs = evaluate(e4, -1 / z)
    rhs = z ** 4 * evaluate(e4, z)
    assert abs(lhs - rhs) < 1e-8 * abs(rhs)


def test_evaluate_tail_guard():
    short = QSeries([1] * 5, weight=12)
    with pytest.raises(TruncationError) as info:
        evaluate(short, 0.0 + 0.05j)
    assert info.value.required > 5
    with pytest.raises(ValueError):
        evaluate(short, 0.3 - 1j)


@pytest.mark.parametrize("z", [complex(0, math.nan), complex(math.nan, 1),
                               complex(math.inf, 1), complex(0, math.inf)])
def test_evaluate_refuses_a_point_that_is_not_finite(z):
    # NaN compares false with 0, so the half-plane test alone let it through
    # and the value came out nan+nanj
    for f in (eisenstein(4, 50), g2_series(50)):
        with pytest.raises(ValueError, match="finite"):
            evaluate(f, z)


def test_g2_normalization_and_anomaly():
    e2 = g2_series(50)
    assert e2 == eisenstein(2, 50)
    assert G2_FACTOR == float(Fraction(1, 3)) * math.pi
    # leading term pi/3 at deep imaginary points
    value = G2_FACTOR * evaluate(e2, 0.0 + 40j)
    assert abs(value - math.pi / 3) < 1e-12

    zs = [complex(0.05 * t - 0.2, 0.9 + 0.1 * t) for t in range(10)]
    for name, word in SL2_WORDS.items():
        for z in zs:
            assert anomaly_residual(word, z, 300) < 1e-6


@pytest.mark.parametrize("z", [complex(math.nan, 1.0),
                               complex(0.0, math.nan),
                               complex(math.inf, 1.0)])
def test_anomaly_rejects_a_point_that_is_not_finite(z):
    with pytest.raises(ValueError, match="must be finite"):
        anomaly_residual(SL2_WORDS["S"], z, 300)


@pytest.mark.parametrize("word, z, what", [
    ("S", 1e200 + 1j, "image"),
    ("W", 5e-324j, "image"),
    ("S", 1e-300j, "automorphy factor"),
    ("ST", 1e300j, "automorphy factor"),
])
def test_anomaly_image_outside_the_upper_half_plane_is_a_degeneracy(
        word, z, what):
    with pytest.raises(DegeneracyError, match=what):
        anomaly_residual(SL2_WORDS[word], z, 300)


def test_anomaly_translation_is_periodicity():
    # c = 0: both sides differ by q-periodicity only
    assert anomaly_residual(SL2_WORDS["T"], 0.2 + 1.1j, 200) < 1e-12
    with pytest.raises(ValueError):
        anomaly_residual((1, 1, 1, 1), 0.2 + 1.1j, 50)


def test_classical_bracket_cusp_form():
    n = 60
    e4, d = eisenstein(4, n), delta(n)
    assert bracket1_classical(e4, e4).is_zero()
    f = e4 * e4 * e4  # weight 12
    b = bracket1_classical(f, d)
    assert b.weight == 26
    ok, _ = membership_in_Mw(b, 26)
    assert ok
    assert b.coeffs[0] == 0
    with pytest.raises(ValueError):
        bracket1_classical(QSeries([1, 2, 3]), d)


# ------------------------------------------- integer arithmetic references


def _schoolbook_product(a, b):
    """Truncated product of two coefficient lists, one Fraction at a time."""
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += Fraction(a[i]) * Fraction(b[j])
    return tuple(out)


def _gauss_jordan(columns, target):
    """Fraction Gauss-Jordan solve with free unknowns set to zero."""
    n_rows, n_cols = len(target), len(columns)
    rows = [[Fraction(columns[j][m]) for j in range(n_cols)]
            + [Fraction(target[m])] for m in range(n_rows)]
    pivots = []
    for col in range(n_cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, n_rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [v / rows[rank][col] for v in rows[rank]]
        for r in range(n_rows):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * u for v, u in zip(rows[r], rows[rank])]
        pivots.append(col)
    if any(row[n_cols] for row in rows[len(pivots):]):
        return None
    solution = [Fraction(0)] * n_cols
    for r, col in enumerate(pivots):
        solution[col] = rows[r][n_cols]
    return solution


BIG = 2 ** 64 + 13

PRODUCT_CASES = {
    "signed": ([3, -1, 0, 7, -5], [-2, 4, -6, 1, 0, 9]),
    "all_zero": ([0, 0, 0], [1, -2, 3]),
    "zero_times_zero": ([0, 0], [0, 0]),
    "length_one": ([-7], [11, 5]),
    "unequal_lengths": ([1, 2, 3, 4, 5, 6, 7, 8], [-1, 1]),
    "mixed_denominators": ([Fraction(1, 2), Fraction(-2, 3), 5],
                           [Fraction(3, 4), 0, Fraction(-7, 6), 1]),
    "above_2_64": ([BIG, -BIG * 3, 1, -(BIG ** 2)],
                   [-BIG, 2, BIG ** 3, Fraction(BIG, 3)]),
    "single_large_digit": ([0, 0, -(2 ** 200)], [0, 2 ** 190 + 1, 1]),
}


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_kronecker_product_matches_schoolbook(case):
    a, b = PRODUCT_CASES[case]
    expect = _schoolbook_product(a, b)
    assert (QSeries(a) * QSeries(b)).coeffs == expect
    assert (QSeries(b) * QSeries(a)).coeffs == expect
    square = QSeries(a)
    assert (square * square).coeffs == _schoolbook_product(a, a)


def test_series_store_reduced_integer_numerators():
    s = QSeries([Fraction(2, 4), Fraction(-3, 6), 1])
    assert s._nums == (1, -1, 2) and s._den == 2
    assert s.scale(2)._den == 1
    zero = QSeries([Fraction(0), Fraction(0, 5)]) * QSeries([1, 2])
    assert zero._nums == (0, 0) and zero._den == 1
    third = QSeries([Fraction(1, 3), 2])
    assert third.truncate(1) == QSeries([Fraction(1, 3)])
    # truncation reduces again: (3, 2) / 6 keeps 3 / 6 = 1 / 2
    assert QSeries([Fraction(1, 2), Fraction(1, 3)]).truncate(1)._den == 2
    assert third != QSeries([Fraction(1, 3), 3])
    with pytest.raises(ValueError):
        QSeries([1, 2]).truncate(0)


def _random_system(rng, n_rows, n_cols, rank, consistent):
    """Integer columns of the given rank and a target in or off their span."""
    basis = [[int(v) for v in rng.integers(-9, 10, size=n_rows)]
             for _ in range(rank)]
    columns = []
    for _ in range(n_cols):
        mix = [int(v) for v in rng.integers(-3, 4, size=rank)]
        columns.append([sum(c * vec[m] for c, vec in zip(mix, basis))
                        for m in range(n_rows)])
    mix = [int(v) for v in rng.integers(-5, 6, size=n_cols)]
    target = [sum(c * col[m] for c, col in zip(mix, columns))
              for m in range(n_rows)]
    if not consistent:
        target[int(rng.integers(0, n_rows))] += int(rng.integers(1, 9))
    return columns, target


@pytest.mark.parametrize("n_rows,n_cols,rank,consistent", [
    (6, 3, 3, True),     # full column rank
    (3, 3, 3, True),     # square, invertible
    (6, 4, 2, True),     # rank deficient
    (5, 3, 1, True),
    (6, 3, 3, False),    # inconsistent
    (6, 4, 2, False),    # rank deficient and inconsistent
    (4, 2, 0, True),     # zero columns, zero target
])
def test_bareiss_solve_matches_fraction_gauss_jordan(n_rows, n_cols, rank,
                                                     consistent):
    rng = np.random.default_rng(n_rows * 100 + n_cols * 10 + rank)
    for _ in range(25):
        columns, target = _random_system(rng, n_rows, n_cols, rank,
                                         consistent)
        got = _solve_exact(columns, target)
        assert got == _gauss_jordan(columns, target)
        assert (got is not None) == consistent
        if consistent:
            assert all(sum(x * col[m] for x, col in zip(got, columns))
                       == target[m] for m in range(n_rows))


def test_bareiss_solve_large_entries_and_inconsistency():
    columns = [[BIG, 3, -BIG ** 2], [1, BIG, 7]]
    target = [BIG + 5, 3 + 5 * BIG, 35 - BIG ** 2]
    assert _solve_exact(columns, target) == [1, 5]
    assert _solve_exact(columns, [1, 0, 0]) is None
    assert _solve_exact(columns, [1, 0, 0]) == _gauss_jordan(columns,
                                                             [1, 0, 0])


def test_membership_of_a_series_with_denominators():
    e6 = eisenstein(6, 40)
    ok, coords = membership_in_Mw(e6.scale(Fraction(5, 7)), 6)
    assert ok and coords == [Fraction(5, 7)]
    e4 = eisenstein(4, 40)
    mixed = (e4 * e4 * e4).scale(Fraction(1, 3)) + delta(40).scale(
        Fraction(-2, 5))
    ok, coords = membership_in_Mw(mixed, 12)
    # basis order (a, b) lex: E6^2, E4^3
    assert ok and coords == [Fraction(2, 5 * 1728),
                             Fraction(1, 3) - Fraction(2, 5 * 1728)]


def test_evaluate_rounds_each_coefficient_like_float_of_fraction():
    f = delta(60).scale(Fraction(1, 7)) + eisenstein(4, 60).scale(
        Fraction(-3, 11))
    z = 0.13 + 0.9j
    q = cmath.exp(2j * math.pi * z)
    total = 0j
    for c in reversed(f.coeffs):
        total = total * q + complex(float(c))
    assert evaluate(f, z) == total


def test_eisenstein_is_reused_across_calls():
    assert eisenstein(2, 300) is eisenstein(2, 300)
    assert eisenstein(2, 300) is g2_series(300)
    # a shared series cannot be changed under its other holders
    with pytest.raises(AttributeError):
        eisenstein(2, 300).weight = 4


@pytest.mark.parametrize("argv,lines", [
    (("serre", "--form", "E6", "--terms", "4"),
     ["weight: 8", "-1/2, -240, -30960, -525120"]),
    (("serre", "--form", "Delta", "--terms", "5"),
     ["weight: 14", "0, 0, 0, 0, 0"]),
    (("qexp", "--form", "E6", "--terms", "1"), ["1"]),
])
def test_cli_golden_strings(capsys, argv, lines):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out.strip().splitlines() == lines


# ---------------------------------------------------------- ring laws

_rationals = st.fractions(max_denominator=12).filter(
    lambda v: abs(v.numerator) < 2 ** 70)
_coefficients = st.one_of(st.integers(-2 ** 70, 2 ** 70), _rationals)
_series = st.lists(_coefficients, min_size=1, max_size=9)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_series, _series, _series)
def test_ring_laws_against_fraction_reference(a, b, c):
    x, y, z = QSeries(a), QSeries(b), QSeries(c)
    assert (x * y).coeffs == _schoolbook_product(a, b)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    n = min(len(a), len(b), len(c))
    assert len(x * (y + z)) == n
