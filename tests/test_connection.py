import numpy as np
import pytest

from siegel.connection import (apply_D, case_analysis_residual, d_det_closed,
                               d_dz_closed, d_f_detk, d_trace_form,
                               equivariance_residual, gamma_closed,
                               gamma_from_metric, invariance_residual,
                               kron_trace, mcc_residual, _f_det_form)
from siegel.forms import (FormPolynomial, det_dz, max_coefficient_diff,
                          substitute_basis, trace_form)
from siegel.functions import ConstFunction, TestFunction, \
    random_test_function
from siegel.indexing import omega_list, omega_size
from siegel.metric import metric_pair
from siegel.operators import ImInverseField
from siegel.symplectic import (SiegelPoint, SymplecticElement, act,
                               pushforward_matrix,
                               pushforward_matrix_derivative, random_point,
                               random_symplectic)


def test_closed_form_degree_one():
    y = 1.7
    table = gamma_closed(SiegelPoint.from_complex(0.3 + 1j * y))
    assert abs(table.table[0, 0, 0] - 1j / y) < 1e-15


@pytest.mark.parametrize("g", [2, 3])
def test_closed_form_first_column_cross(g):
    # for K = (1,1): entries i R_ij on the pairs containing 1, zero outside
    point = random_point(g, seed=g)
    table = gamma_closed(point)
    R = metric_pair(point).R
    K = (1, 1)
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            I = (min(1, i), max(1, i))
            J = (min(1, j), max(1, j))
            got = table.entry(K, I, J)
            assert abs(got - 1j * R[i - 1, j - 1]) < 1e-15
    for I in omega_list(g):
        for J in omega_list(g):
            if 1 not in I or 1 not in J:
                assert table.entry(K, I, J) == 0


def test_closed_form_mixed_entry_degree_two():
    point = random_point(2, seed=11)
    R = metric_pair(point).R
    table = gamma_closed(point)
    assert abs(table.entry((1, 2), (1, 1), (2, 2))
               - 0.5j * R[1, 0]) < 1e-15


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 8])
def test_three_derivations_agree(g):
    # up to g = 8, the highest degree gamma tables are requested at;
    # B-expanded up to g = 6
    rng = np.random.default_rng(300 + g)
    paths = ("A", "B", "B-expanded") if g <= 6 else ("A", "B")
    for _ in range(5):
        point = random_point(g, rng)
        closed = gamma_closed(point).table
        for path in paths:
            table = gamma_from_metric(point, path).table
            assert np.abs(table - closed).max() < 1e-10


def test_unknown_derivation_path():
    with pytest.raises(ValueError):
        gamma_from_metric(random_point(1, seed=0), "C")


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_case_analysis_reproduces_closed_form(g):
    rng = np.random.default_rng(400 + g)
    for _ in range(3):
        assert case_analysis_residual(random_point(g, rng)) == 0.0


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_symmetry_and_sparsity(g):
    point = random_point(g, seed=500 + g)
    for maker in (gamma_closed,
                  lambda p: gamma_from_metric(p, "B-expanded")):
        table = maker(point).table
        assert np.array_equal(table, table.transpose(0, 2, 1))
        pairs = omega_list(g)
        for k, (r, s) in enumerate(pairs):
            for a, I in enumerate(pairs):
                for b, J in enumerate(pairs):
                    in_cross = ((s in I and r in J) or (s in J and r in I))
                    if not in_cross:
                        assert table[k, a, b] == 0
    # entries are i times a real number
    assert np.abs(gamma_closed(point).table.real).max() == 0.0


def test_form_cocycle_basics():
    point = random_point(2, seed=21)
    B = np.array([[1, 0], [0, -2]])
    S = pushforward_matrix(SymplecticElement.translation(B), point)
    np.testing.assert_allclose(S, np.eye(3), atol=1e-14)

    z = 0.2 + 0.9j
    S1 = pushforward_matrix(SymplecticElement.inversion(1),
                            SiegelPoint.from_complex(z))
    assert abs(S1[0, 0] - 1 / z ** 2) < 1e-14


def test_form_cocycle_property():
    rng = np.random.default_rng(23)
    for g in (1, 2, 3):
        for _ in range(5):
            g1 = random_symplectic(g, int(rng.integers(0, 6)), rng)
            g2 = random_symplectic(g, int(rng.integers(0, 6)), rng)
            point = random_point(g, rng)
            S12 = pushforward_matrix(g1 @ g2, point)
            S = pushforward_matrix(g2, point) @ pushforward_matrix(
                g1, act(g2, point))
            assert np.abs(S12 - S).max() < 1e-10 * max(1, np.abs(S12).max())


def test_cocycle_derivative():
    point = random_point(2, seed=31)
    B = np.array([[2, 1], [1, 0]])
    V = np.array([[0.5, 0.1], [0.1, -0.2]], dtype=complex)
    dS = pushforward_matrix_derivative(SymplecticElement.translation(B),
                                       point, V)
    assert np.abs(dS).max() == 0.0

    z, v = 0.4 + 1.1j, 0.3 - 0.7j
    got = pushforward_matrix_derivative(SymplecticElement.inversion(1),
                                        SiegelPoint.from_complex(z),
                                        np.array([[v]]))
    assert abs(got[0, 0] - (-2 * v / z ** 3)) < 1e-13


def test_cocycle_derivative_finite_differences():
    rng = np.random.default_rng(37)
    gamma = random_symplectic(2, 5, rng)
    point = random_point(2, rng)
    V = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    V = (V + V.T) / 2
    dS = pushforward_matrix_derivative(gamma, point, V)
    h = 1e-6
    Sp = pushforward_matrix(gamma, SiegelPoint(2, point.X + h * V.real,
                                               point.Y + h * V.imag))
    Sm = pushforward_matrix(gamma, SiegelPoint(2, point.X - h * V.real,
                                               point.Y - h * V.imag))
    assert np.abs((Sp - Sm) / (2 * h) - dS).max() < 1e-7


def test_modular_law_identity_element():
    point = random_point(2, seed=41)
    V = np.array([[1.0, 0.3], [0.3, -1.0]], dtype=complex)
    residual = mcc_residual(gamma_closed, SymplecticElement.identity(2),
                            point, V)
    assert residual == 0.0


def test_modular_law_degree_one_inversion():
    point = SiegelPoint.from_complex(0.2 + 1.4j)
    residual = mcc_residual(gamma_closed, SymplecticElement.inversion(1),
                            point, np.array([[0.5 - 0.1j]]))
    assert residual < 1e-10


@pytest.mark.parametrize("g", [1, 2, 3])
def test_modular_law_corpus(g):
    rng = np.random.default_rng(600 + g)
    for _ in range(15):
        gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
        point = random_point(g, rng)
        V = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        V = (V + V.T) / 2
        assert mcc_residual(gamma_closed, gamma, point, V) < 1e-8


def test_derivative_of_generator_degree_one():
    y = 1.1
    point = SiegelPoint.from_complex(0.5 + 1j * y)
    table = gamma_closed(point)
    out = apply_D(table, FormPolynomial.generator(1, (1, 1)))
    assert set(out.terms) == {(0, 0)}
    assert abs(out.terms[(0, 0)] - (-1j / y)) < 1e-14


@pytest.mark.parametrize("g", [2, 3, 4])
def test_derivative_of_generator_closed_form(g):
    point = random_point(g, seed=700 + g)
    table = gamma_closed(point)
    for K in omega_list(g):
        got = apply_D(table, FormPolynomial.generator(g, K))
        assert max_coefficient_diff(got, d_dz_closed(point, K)) < 1e-12


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_derivative_of_determinant(g):
    point = random_point(g, seed=800 + g)
    table = gamma_closed(point)
    got = apply_D(table, det_dz(g))
    assert max_coefficient_diff(got, d_det_closed(point)) < 1e-10


def test_derivative_raises_degree_and_leibniz():
    g = 2
    point = random_point(g, seed=51)
    table = gamma_closed(point)
    rng = np.random.default_rng(52)
    m = omega_size(g)
    for _ in range(5):
        a_terms = {tuple(sorted(rng.integers(0, m, size=rng.integers(0, 3)))):
                   complex(rng.standard_normal()) for _ in range(3)}
        b_terms = {tuple(sorted(rng.integers(0, m, size=rng.integers(0, 3)))):
                   complex(rng.standard_normal()) for _ in range(3)}
        a = FormPolynomial(g, a_terms)
        b = FormPolynomial(g, b_terms)
        lhs = apply_D(table, a * b)
        rhs = apply_D(table, a) * b + a * apply_D(table, b)
        assert max_coefficient_diff(lhs, rhs) < 1e-10
        degrees_in = {len(mono) for mono in (a * b).terms}
        degrees_out = {len(mono) for mono in lhs.terms}
        if degrees_in and degrees_out:
            assert degrees_out <= {d + 1 for d in degrees_in}


def test_scalar_det_power_cases():
    # k = 0 reduces to the holomorphic differential
    g = 2
    point = random_point(g, seed=61)
    table = gamma_closed(point)
    f = random_test_function(g, np.random.default_rng(62))
    out = d_f_detk(table, f, 0)
    grad = f.gradient(point)
    for pos, pair in enumerate(omega_list(g)):
        expect = grad[pos]
        got = out.terms.get((pos,), 0j)
        assert abs(got - expect) < 1e-12

    # degree one: (f' - i k f / y) dz^{k+1}
    y = 1.3
    p1 = SiegelPoint.from_complex(0.1 + 1j * y)
    t1 = gamma_closed(p1)
    f1 = TestFunction.coordinate(1, (1, 1)) ** 2
    for k in (1, 2):
        out = d_f_detk(t1, f1, k)
        z = p1.Z[0, 0]
        expect = 2 * z - 1j * k * z * z / y
        key = tuple([0] * (k + 1))
        assert abs(out.terms[key] - expect) < 1e-13


def test_scalar_det_power_against_expansion():
    g = 2
    point = random_point(g, seed=63)
    table = gamma_closed(point)
    z11 = TestFunction.coordinate(g, (1, 1))
    z22 = TestFunction.coordinate(g, (2, 2))
    f = z11 * z22
    got = d_f_detk(table, f, 1)
    expect = apply_D(table, _f_det_form(f, 1, g))
    assert max_coefficient_diff(got, expect) < 1e-12


def test_trace_form_derivative_constant_degree_one():
    y = 0.9
    point = SiegelPoint.from_complex(0.2 + 1j * y)
    table = gamma_closed(point)
    G = [[ConstFunction(1, 2.5)]]
    out = d_trace_form(table, G)
    assert set(out.terms) == {(0, 0)}
    assert abs(out.terms[(0, 0)] - (-1j * 2.5 / y)) < 1e-14


@pytest.mark.parametrize("g", [1, 2, 3])
def test_trace_form_derivative_polynomial(g):
    rng = np.random.default_rng(900 + g)
    point = random_point(g, rng)
    table = gamma_closed(point)
    entries = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            f = random_test_function(g, rng, max_degree=2, n_terms=3)
            entries[i][j] = entries[j][i] = f
    got = d_trace_form(table, entries)
    expect = apply_D(table, trace_form(np.array(entries, dtype=object), g))
    assert max_coefficient_diff(got, expect) < 1e-10


def test_trace_form_derivative_im_inverse_field():
    g = 2
    point = random_point(g, seed=71)
    table = gamma_closed(point)
    entries = ImInverseField().entry_matrix(g)
    got = d_trace_form(table, entries)
    expect = apply_D(table, trace_form(np.array(entries, dtype=object), g))
    assert max_coefficient_diff(got, expect) < 1e-10


def test_kron_trace_contraction():
    rng = np.random.default_rng(81)
    for _ in range(100):
        A, B, C, D = (rng.standard_normal((3, 3))
                      + 1j * rng.standard_normal((3, 3)) for _ in range(4))
        value = kron_trace(A, B, C, D)
        swapped = kron_trace(A, C, B, D)
        factored = np.trace(A @ D) * np.trace(B @ C)
        assert abs(value - swapped) < 1e-12
        assert abs(value - factored) < 1e-12


def test_equivariance_identity_element():
    g = 2
    point = random_point(g, seed=91)
    form = FormPolynomial(g, {(0, 1): random_test_function(
        g, np.random.default_rng(92))})
    residual = equivariance_residual(gamma_closed,
                                     SymplecticElement.identity(g), point,
                                     form)
    assert residual < 1e-14


@pytest.mark.parametrize("g", [1, 2])
def test_equivariance_random_forms(g):
    rng = np.random.default_rng(1000 + g)
    m = omega_size(g)
    for _ in range(8):
        gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
        point = random_point(g, rng)
        terms = {}
        for _ in range(3):
            deg = int(rng.integers(0, 3))
            mono = tuple(sorted(int(rng.integers(0, m)) for _ in range(deg)))
            terms[mono] = random_test_function(g, rng, max_degree=2,
                                               n_terms=2)
        form = FormPolynomial(g, terms)
        assert equivariance_residual(gamma_closed, gamma, point,
                                     form) < 1e-8


@pytest.mark.parametrize("g", [1, 2])
def test_invariance_of_weighted_det_power(g):
    rng = np.random.default_rng(1100 + g)
    for _ in range(6):
        gamma = random_symplectic(g, int(rng.integers(1, 7)), rng)
        point = random_point(g, rng)
        f = random_test_function(g, rng)
        k = int(rng.integers(1, 3))
        assert invariance_residual(gamma_closed, gamma, point, f, k) < 1e-8


def test_gamma_transform_form_det_weight():
    # det(dZ) transforms with det(CZ+D)^{-2}
    g = 2
    rng = np.random.default_rng(121)
    gamma = random_symplectic(g, 5, rng)
    point = random_point(g, rng)
    transformed = substitute_basis(det_dz(g), pushforward_matrix(gamma, point))
    detj = np.linalg.det(gamma.C @ point.Z + gamma.D)
    expect = det_dz(g).scale(detj ** -2)
    assert max_coefficient_diff(transformed, expect) < 1e-12 * max(
        1, abs(detj ** -2))
