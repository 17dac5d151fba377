import numpy as np
import pytest

from siegel.connection import (apply_D, case_analysis_residual, d_det_closed,
                               d_dz_closed, d_f_detk, d_trace_form,
                               equivariance_residual, gamma_closed,
                               gamma_from_metric, invariance_residual,
                               kron_trace, mcc_residual, _d_f_det_power)
from siegel.forms import FormPolynomial, det_dz, probe_vectors, trace_form
from siegel.functions import Jet, TestFunction, random_test_function
from siegel.indexing import coords_to_sym, omega_list, omega_size
from siegel.metric import dR_tensor, metric_pair
from siegel.symplectic import (DimensionError, SiegelPoint, SymplecticElement,
                               act, pushforward_matrix,
                               pushforward_matrix_derivative, random_point,
                               random_symplectic)


def test_closed_form_degree_one():
    y = 1.7
    table = gamma_closed(SiegelPoint(1, [[0.3]], [[y]]))
    assert abs(table[0, 0, 0] - 1j / y) < 1e-15


@pytest.mark.parametrize("g", [2, 3])
def test_closed_form_first_column_cross(g):
    # for K = (1,1): entries i R_ij on the pairs containing 1, zero outside
    point = random_point(g, seed=g)
    table = gamma_closed(point)
    R = metric_pair(point).R
    # K = (1, 1) is the first pair of Omega
    pos = {pair: n for n, pair in enumerate(omega_list(g))}
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            I = (min(1, i), max(1, i))
            J = (min(1, j), max(1, j))
            got = table[0, pos[I], pos[J]]
            assert abs(got - 1j * R[i - 1, j - 1]) < 1e-15
    for I in pos:
        for J in pos:
            if 1 not in I or 1 not in J:
                assert table[0, pos[I], pos[J]] == 0


def test_closed_form_mixed_entry_degree_two():
    point = random_point(2, seed=11)
    R = metric_pair(point).R
    table = gamma_closed(point)
    # K = (1, 2), I = (1, 1), J = (2, 2)
    assert abs(table[1, 0, 2] - 0.5j * R[1, 0]) < 1e-15


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 8, 10, 12])
def test_three_derivations_agree(g):
    # up to g = 12, past g = 8, the highest degree gamma tables are
    # requested at; B-expanded up to g = 6
    rng = np.random.default_rng(300 + g)
    paths = ("A", "B", "B-expanded") if g <= 6 else ("A", "B")
    for _ in range(5):
        point = random_point(g, rng)
        closed = gamma_closed(point)
        for path in paths:
            table = gamma_from_metric(point, path)
            assert np.abs(table - closed).max() < 1e-10


def test_tables_are_built_at_one_point():
    # a stack of points used to die in a numpy broadcast
    rng = np.random.default_rng(7)
    Z = np.stack([random_point(2, rng).Z for _ in range(3)])
    stack = SiegelPoint(2, Z.real, Z.imag)
    with pytest.raises(DimensionError, match="one point"):
        gamma_closed(stack)
    for path in ("A", "B", "B-expanded"):
        with pytest.raises(DimensionError, match="one point"):
            gamma_from_metric(stack, path)


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
        table = maker(point)
        assert np.array_equal(table, table.transpose(0, 2, 1))
        pairs = omega_list(g)
        for k, (r, s) in enumerate(pairs):
            for a, I in enumerate(pairs):
                for b, J in enumerate(pairs):
                    in_cross = ((s in I and r in J) or (s in J and r in I))
                    if not in_cross:
                        assert table[k, a, b] == 0
    # entries are i times a real number
    assert np.abs(gamma_closed(point).real).max() == 0.0


def test_form_cocycle_basics():
    point = random_point(2, seed=21)
    # the translation (I, B; O, I)
    translation = SymplecticElement([[1, 0, 1, 0], [0, 1, 0, -2],
                                     [0, 0, 1, 0], [0, 0, 0, 1]])
    S = pushforward_matrix(translation, point)
    np.testing.assert_allclose(S, np.eye(3), atol=1e-14)

    z = 0.2 + 0.9j
    S1 = pushforward_matrix(SymplecticElement([[0, 1], [-1, 0]]),
                            SiegelPoint(1, [[z.real]], [[z.imag]]))
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
    I, B = np.eye(2, dtype=int), np.array([[2, 1], [1, 0]])
    translation = SymplecticElement(np.block([[I, B], [0 * I, I]]))
    V = np.array([[0.5, 0.1], [0.1, -0.2]], dtype=complex)
    dS = pushforward_matrix_derivative(translation, point, V)
    assert np.abs(dS).max() == 0.0

    z, v = 0.4 + 1.1j, 0.3 - 0.7j
    got = pushforward_matrix_derivative(SymplecticElement([[0, 1], [-1, 0]]),
                                        SiegelPoint(1, [[z.real]], [[z.imag]]),
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
    residual = mcc_residual(SymplecticElement(np.eye(4, dtype=int)), point,
                            V)
    assert residual == 0.0


def test_modular_law_degree_one_inversion():
    point = SiegelPoint(1, [[0.2]], [[1.4]])
    residual = mcc_residual(SymplecticElement([[0, 1], [-1, 0]]), point,
                            np.array([[0.5 - 0.1j]]))
    assert residual < 1e-10


@pytest.mark.parametrize("g", [1, 2, 3])
def test_modular_law_corpus(g):
    rng = np.random.default_rng(600 + g)
    for _ in range(15):
        gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
        point = random_point(g, rng)
        V = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        V = (V + V.T) / 2
        assert mcc_residual(gamma, point, V) < 1e-8


def _probes(g):
    """The probe vectors of the degree and their symmetric matrices."""
    v = probe_vectors(g)
    return v, coords_to_sym(v, g)


def test_derivative_of_generator_degree_one():
    y = 1.1
    point = SiegelPoint(1, [[0.5]], [[y]])
    table = gamma_closed(point)
    v, _ = _probes(1)
    out = apply_D(table, FormPolynomial.generator(1, (1, 1)), v)[0]
    # D(dZ) = -i/y dZ^2
    assert np.abs(out - (-1j / y) * v[:, 0] ** 2).max() < 1e-14


@pytest.mark.parametrize("g", [2, 3, 4])
def test_derivative_of_generator_closed_form(g):
    point = random_point(g, seed=700 + g)
    table = gamma_closed(point)
    v, V = _probes(g)
    closed = d_dz_closed(point, V)
    for r, s in omega_list(g):
        got = apply_D(table, FormPolynomial.generator(g, (r, s)), v)[0]
        assert np.abs(got - closed[:, s - 1, r - 1]).max() < 1e-12
        # either order of K names one quadratic: V Y^{-1} V is symmetric
        assert np.abs(got - closed[:, r - 1, s - 1]).max() < 1e-12


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_derivative_of_determinant(g):
    point = random_point(g, seed=800 + g)
    table = gamma_closed(point)
    v, V = _probes(g)
    got = apply_D(table, det_dz(g), v)[0]
    assert np.abs(got - d_det_closed(point, V)).max() < 1e-10


def test_derivative_raises_degree_and_leibniz():
    g = 2
    point = random_point(g, seed=51)
    table = gamma_closed(point)
    rng = np.random.default_rng(52)
    m = omega_size(g)
    v, _ = _probes(g)
    for _ in range(5):
        a_terms = {tuple(sorted(rng.integers(0, m, size=rng.integers(0, 3)))):
                   complex(rng.standard_normal()) for _ in range(3)}
        b_terms = {tuple(sorted(rng.integers(0, m, size=rng.integers(0, 3)))):
                   complex(rng.standard_normal()) for _ in range(3)}
        a = FormPolynomial(g, a_terms)
        b = FormPolynomial(g, b_terms)
        lhs = apply_D(table, a * b, v)[0]
        rhs = (apply_D(table, a, v)[0] * b.evaluate(v)
               + a.evaluate(v) * apply_D(table, b, v)[0])
        assert np.abs(lhs - rhs).max() < 1e-10
        # D of a form of degree d has degree d + 1: at 2v it is 2^(d+1)
        # times its value at v, exactly, since powers of 2 scale exactly
        for d in {len(mono) for mono in (a * b).terms}:
            part = FormPolynomial(g, {mono: c for mono, c in
                                      (a * b).terms.items()
                                      if len(mono) == d})
            assert np.array_equal(apply_D(table, part, 2 * v)[0],
                                  2 ** (d + 1) * apply_D(table, part, v)[0])


def test_scalar_det_power_cases():
    # k = 0 reduces to the holomorphic differential
    g = 2
    point = random_point(g, seed=61)
    f = random_test_function(g, np.random.default_rng(62))
    v, V = _probes(g)
    out = d_f_detk(point, f, 0, V)
    assert np.abs(out - v @ f.gradient(point)).max() < 1e-12

    # degree one: (f' - i k f / y) dz^{k+1}
    y = 1.3
    p1 = SiegelPoint(1, [[0.1]], [[y]])
    f1 = TestFunction.coordinate(1, (1, 1)) ** 2
    v1, V1 = _probes(1)
    for k in (1, 2):
        out = d_f_detk(p1, f1, k, V1)
        z = p1.Z[0, 0]
        expect = (2 * z - 1j * k * z * z / y) * v1[:, 0] ** (k + 1)
        assert np.abs(out - expect).max() < 1e-13
    with pytest.raises(ValueError, match="weight parameter must be >= 0"):
        d_f_detk(point, f, -1, V)


def test_scalar_det_power_against_expansion(f_det_power):
    g = 2
    point = random_point(g, seed=63)
    table = gamma_closed(point)
    z11 = TestFunction.coordinate(g, (1, 1))
    z22 = TestFunction.coordinate(g, (2, 2))
    f = z11 * z22
    v, V = _probes(g)
    got = d_f_detk(point, f, 1, V)
    expect = apply_D(table, f_det_power(Jet.at(f, point), 1, g), v)[0]
    assert np.abs(got - expect).max() < 1e-12


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_derivation_rule_matches_the_multiplied_out_power(g, f_det_power):
    # D(f det(dZ)^k) by the derivation rule against apply_D on f det(dZ)^k
    # multiplied out: the same terms at k = 1, so bit for bit, and within
    # a few ulps of the larger summed magnitude at k = 2, 3
    rng = np.random.default_rng(150 + g)
    v = probe_vectors(g)
    for _ in range(2):
        point = random_point(g, rng)
        table = gamma_closed(point)
        f = random_test_function(g, rng)
        for k in (1, 2, 3):
            value, size = _d_f_det_power(table, f, k, point, v)
            expect, expect_size = apply_D(
                table, f_det_power(Jet.at(f, point), k, g), v)
            if k == 1:
                assert value.tobytes() == expect.tobytes()
                assert size.tobytes() == expect_size.tobytes()
            else:
                assert (abs(value - expect) <= 8 * np.finfo(float).eps
                        * np.maximum(size, expect_size)).all()


def test_trace_form_derivative_constant_degree_one():
    y = 0.9
    point = SiegelPoint(1, [[0.2]], [[y]])
    G = [[Jet.at(TestFunction.constant(1, 2.5), point)]]
    v, V = _probes(1)
    out = d_trace_form(point, G, V)
    assert np.abs(out - (-1j * 2.5 / y) * v[:, 0] ** 2).max() < 1e-14


@pytest.mark.parametrize("g", [1, 2, 3])
def test_trace_form_derivative_polynomial(g):
    rng = np.random.default_rng(900 + g)
    point = random_point(g, rng)
    table = gamma_closed(point)
    entries = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            f = random_test_function(g, rng, max_degree=2, n_terms=3)
            entries[i][j] = entries[j][i] = Jet.at(f, point)
    v, V = _probes(g)
    got = d_trace_form(point, entries, V)
    expect = apply_D(table, trace_form(np.array(entries, dtype=object), g),
                     v)[0]
    assert np.abs(got - expect).max() < 1e-10


def test_trace_form_derivative_im_inverse_field():
    # the entries of i Y^{-1}, with gradients i dR/dZ
    g = 2
    point = random_point(g, seed=71)
    table = gamma_closed(point)
    R = metric_pair(point).R
    dR = dR_tensor(R)
    entries = [[None] * g for _ in range(g)]
    for p in range(g):
        for q in range(p, g):
            entries[p][q] = entries[q][p] = Jet(complex(1j * R[p, q]),
                                                1j * dR[:, p, q])
    v, V = _probes(g)
    got = d_trace_form(point, entries, V)
    expect = apply_D(table, trace_form(np.array(entries, dtype=object), g),
                     v)[0]
    assert np.abs(got - expect).max() < 1e-10


def test_trace_form_derivative_requires_symmetric_jets():
    g = 2
    rng = np.random.default_rng(73)
    point = random_point(g, rng)
    f = random_test_function(g, rng, max_degree=2, n_terms=3)
    diagonal = Jet.at(random_test_function(g, rng), point)
    off = Jet.at(f, point)
    _, V = _probes(g)
    same = d_trace_form(point, [[diagonal, off], [off, diagonal]], V)
    # equal jets built apart, at a fresh point with its own arrays
    twin = Jet.at(f, SiegelPoint(g, point.X, point.Y))
    assert twin is not off and twin.grad is not off.grad
    apart = d_trace_form(point, [[diagonal, off], [twin, diagonal]], V)
    assert np.array_equal(same, apart)
    # a different value, or the same value with another gradient
    other = Jet.at(f + 1, point)
    tilted = Jet(off.value, off.grad + np.eye(omega_size(g))[0])
    for wrong in (other, tilted):
        with pytest.raises(ValueError, match="symmetric"):
            d_trace_form(point, [[diagonal, off], [wrong, diagonal]], V)


def test_kron_trace_contraction():
    rng = np.random.default_rng(81)
    for _ in range(100):
        A, B, C, D = (rng.standard_normal((3, 3))
                      + 1j * rng.standard_normal((3, 3)) for _ in range(4))
        value = kron_trace(A, B, C, D)
        swapped = kron_trace(A, C, B, D)
        factored = np.trace(A @ D) * np.trace(B @ C)
        literal = np.trace(np.kron(A, B) @ np.kron(D, C))
        assert abs(value - swapped) < 1e-12
        assert abs(value - factored) < 1e-12
        assert abs(value - literal) < 1e-12


def test_equivariance_identity_element():
    g = 2
    point = random_point(g, seed=91)
    form = FormPolynomial(g, {(0, 1): random_test_function(
        g, np.random.default_rng(92))})
    residual = equivariance_residual(
        SymplecticElement(np.eye(2 * g, dtype=int)), point, form)
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
        assert equivariance_residual(gamma, point, form) < 1e-8


@pytest.mark.parametrize("g", [1, 2])
def test_invariance_of_weighted_det_power(g):
    rng = np.random.default_rng(1100 + g)
    for _ in range(6):
        gamma = random_symplectic(g, int(rng.integers(1, 7)), rng)
        point = random_point(g, rng)
        f = random_test_function(g, rng)
        k = int(rng.integers(1, 3))
        assert invariance_residual(gamma, point, f, k) < 1e-8


def test_gamma_transform_form_det_weight():
    # det(dZ) transforms with det(CZ+D)^{-2}: det(dZ) at S^t v is
    # det(CZ+D)^{-2} det(dZ) at v
    g = 2
    rng = np.random.default_rng(121)
    gamma = random_symplectic(g, 5, rng)
    point = random_point(g, rng)
    v = probe_vectors(g)
    transformed = det_dz(g).evaluate(v @ pushforward_matrix(gamma, point))
    detj = np.linalg.det(gamma.C @ point.Z + gamma.D)
    expect = detj ** -2 * det_dz(g).evaluate(v)
    assert np.abs(transformed - expect).max() < 1e-12 * max(
        1, abs(detj ** -2))


def _beyond_degree_two(g):
    """(k, gamma, point, f, terms) for k = 1, 2, drawn from seed 1200 + g:
    gamma a word other than the identity, f a test function and terms the
    coefficients of a random form of degree <= 2."""
    rng = np.random.default_rng(1200 + g)
    m = omega_size(g)
    for k in (1, 2):
        gamma = random_symplectic(g, int(rng.integers(1, 7)), rng)
        # a word that multiplies out to the identity would check nothing
        identity = SymplecticElement(np.eye(2 * g, dtype=int))
        while gamma == identity:
            gamma = random_symplectic(g, int(rng.integers(1, 7)), rng)
        assert gamma != identity
        point = random_point(g, rng)
        f = random_test_function(g, rng)
        terms = {tuple(sorted(int(i) for i in rng.integers(0, m, size=d))):
                 random_test_function(g, rng, max_degree=2, n_terms=2)
                 for d in (0, 1, 2)}
        yield k, gamma, point, f, terms


@pytest.mark.parametrize("g", [3, 4])
def test_transport_residuals_beyond_degree_two(g, f_det_power):
    # the evaluated checks reach degrees the coefficient transport could
    # not: a random form of degree <= 2 and f det(dZ)^k for equivariance,
    # and D(f det(dZ)^k) for invariance
    for k, gamma, point, f, terms in _beyond_degree_two(g):
        for form in (FormPolynomial(g, terms), f_det_power(f, k, g)):
            assert equivariance_residual(gamma, point, form) < 1e-8
        assert invariance_residual(gamma, point, f, k) < 1e-8


def test_invariance_residual_at_degree_five():
    # the derivation rule never multiplies out det(dZ)^2, which has 2,021
    # monomials at g = 5
    for k, gamma, point, f, _ in _beyond_degree_two(5):
        assert invariance_residual(gamma, point, f, k) < 1e-8
