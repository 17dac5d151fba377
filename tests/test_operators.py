import warnings

import numpy as np
import pytest

from siegel.functions import TestFunction, fd_gradient, random_test_function
from siegel.indexing import basis_stack, omega_list
from siegel.metric import dR_tensor, metric_pair
from siegel.operators import (ModularExtension, QSeriesFunction, bracket1,
                              bracket1_transform_residual, det_nabla,
                              det_nabla_weight_residual, ig2_field,
                              im_inverse, nabla, sym_gradient, verify_G_law,
                              verify_nabla_transform)
from siegel.qseries import eisenstein, evaluate, serre_derivative
from siegel.symplectic import (DegeneracyError, SiegelPoint,
                               SymplecticElement, act,
                               random_point, random_symplectic)
from siegel.verify import run_suite


@pytest.mark.parametrize("g", [1, 2, 3])
def test_im_inverse_entries_have_the_fd_gradient(g):
    # d(i R)/dZ_J = i dR/dZ_J, entry by entry
    point = random_point(g, seed=60 + g)
    dR = dR_tensor(metric_pair(point).R)
    for p, q in omega_list(g):
        approx = fd_gradient(
            lambda pt: 1j * metric_pair(pt).R[..., p - 1, q - 1], point)
        exact = 1j * dR[:, p - 1, q - 1]
        np.testing.assert_allclose(exact, approx, atol=1e-7)


def test_sym_gradient_coordinates():
    g = 2
    point = random_point(g, seed=1)
    f = TestFunction.coordinate(g, (1, 1))
    np.testing.assert_allclose(sym_gradient(f, point),
                               np.array([[1, 0], [0, 0]]), atol=1e-15)
    f = TestFunction.coordinate(g, (1, 2))
    np.testing.assert_allclose(sym_gradient(f, point),
                               np.array([[0, 0.5], [0.5, 0]]), atol=1e-15)


def test_sym_gradient_pairing_with_determinant():
    # df(V) = Tr(grad f . V) checked on all coordinate directions
    g = 3
    point = random_point(g, seed=2)
    z = [[TestFunction.coordinate(g, (min(i, j), max(i, j)))
          for j in range(1, g + 1)] for i in range(1, g + 1)]
    det = (z[0][0] * z[1][1] * z[2][2] + z[0][1] * z[1][2] * z[2][0]
           + z[0][2] * z[1][0] * z[2][1] - z[0][2] * z[1][1] * z[2][0]
           - z[0][0] * z[1][2] * z[2][1] - z[0][1] * z[1][0] * z[2][2])
    grad = sym_gradient(det, point)
    direct = det.gradient(point)
    for pos, E in enumerate(basis_stack(g)):
        assert abs(np.trace(grad @ E) - direct[pos]) < 1e-10


def test_nabla_reduces_to_gradient_at_weight_zero():
    g = 2
    point = random_point(g, seed=3)
    f = random_test_function(g, np.random.default_rng(4))
    np.testing.assert_allclose(nabla(f, point, 0), sym_gradient(f, point),
                               atol=1e-15)


def test_nabla_degree_one_formula():
    y = 1.2
    point = SiegelPoint(1, [[0.4]], [[y]])
    f = TestFunction.coordinate(1, (1, 1)) ** 3
    z = point.Z[0, 0]
    for k in (1, 2):
        got = nabla(f, point, k)[0, 0]
        expect = 3 * z ** 2 - 1j * k / y * z ** 3
        assert abs(got - expect) < 1e-13


def test_det_nabla_constant_function():
    rng = np.random.default_rng(5)
    for g in (1, 2, 3):
        point = random_point(g, rng)
        f = TestFunction.constant(g, 1)
        got = det_nabla(f, point, 1)
        expect = (-1j) ** g / np.linalg.det(point.Y)
        assert abs(got - expect) < 1e-12 * abs(expect)


def test_modular_extension_realizes_weight_transform():
    g = 2
    rng = np.random.default_rng(6)
    gamma = random_symplectic(g, 5, rng)
    point = random_point(g, rng)
    f = random_test_function(g, rng)
    k = 1
    ext = ModularExtension(f, 2 * k, gamma)
    detj = np.linalg.det(gamma.C @ point.Z + gamma.D)
    got = ext.value(act(gamma, point))
    expect = detj ** (2 * k) * f.value(point)
    assert abs(got - expect) < 1e-10 * max(1, abs(expect))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_modular_extension_value_on_stack_matches_each_point(g):
    rng = np.random.default_rng(90 + g)
    ext = ModularExtension(random_test_function(g, rng), 4,
                           random_symplectic(g, 5, rng))
    points = [random_point(g, rng) for _ in range(5)]
    stack = SiegelPoint(g, np.stack([p.X for p in points]),
                        np.stack([p.Y for p in points]))
    values = ext.value(stack)
    assert values.shape == (5,)
    for value, point in zip(values, points):
        expect = ext.value(point)
        assert abs(value - expect) <= 1e-14 * max(1.0, abs(expect))


def test_modular_extension_reuses_the_action_at_one_point(monkeypatch):
    # repeat requests are memo hits, so count the builds behind act
    import siegel.symplectic as symplectic
    calls = []
    build = symplectic._act

    def counted(gamma, point):
        calls.append(point)
        return build(gamma, point)
    monkeypatch.setattr(symplectic, "_act", counted)
    rng = np.random.default_rng(8)
    g = 2
    ext = ModularExtension(random_test_function(g, rng), 4,
                           random_symplectic(g, 5, rng))
    here, there = random_point(g, rng), random_point(g, rng)
    value, gradient = ext.value(here), ext.gradient(here)
    assert calls == [here]
    ext.value(there)
    assert calls == [here, there]
    # the reused parts give what a fresh extension computes
    fresh = ModularExtension(ext.f, 4, ext.gamma)
    assert value == fresh.value(here)
    assert np.array_equal(gradient, fresh.gradient(here))


def test_modular_extension_gradient_against_finite_differences():
    rng = np.random.default_rng(7)
    for g in (1, 2):
        gamma = random_symplectic(g, 5, rng)
        point = random_point(g, rng)
        f = random_test_function(g, rng)
        ext = ModularExtension(f, 4, gamma)
        exact = ext.gradient(point)
        approx = ext.gradient_fd(point)
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(exact - approx).max() < 1e-7 * scale


def test_modular_extension_rejects_odd_weight():
    gamma = SymplecticElement([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        ModularExtension(TestFunction.constant(1, 1), 3, gamma)


def test_nabla_transform_identity_element():
    g = 2
    point = random_point(g, seed=8)
    f = random_test_function(g, np.random.default_rng(9))
    identity = SymplecticElement(np.eye(2 * g, dtype=int))
    residual = verify_nabla_transform(f, identity, point, 1)
    assert residual < 1e-14


@pytest.mark.parametrize("g,k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1),
                                 (3, 2)])
def test_nabla_transform_corpus(g, k):
    rng = np.random.default_rng(10 * g + k)
    for _ in range(8):
        gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
        point = random_point(g, rng)
        f = random_test_function(g, rng)
        assert verify_nabla_transform(f, gamma, point, k) < 1e-7
        assert verify_nabla_transform(f, gamma, point, k,
                                      grad="fd") < 1e-5
        residual = det_nabla_weight_residual(f, gamma, point, k)
        if residual is not None:
            assert residual < 1e-7


def test_G_law_translation_reduces_to_invariance():
    # C = 0: the law says G(Z + B) = G(Z) exactly
    g = 2
    point = random_point(g, seed=11)
    I, B = np.eye(g, dtype=int), np.array([[1, 2], [2, 0]])
    gamma = SymplecticElement(np.block([[I, B], [0 * I, I]]))
    assert verify_G_law(im_inverse, gamma, point) < 1e-12


@pytest.mark.parametrize("g", [1, 2, 3])
def test_G_law_im_inverse(g):
    rng = np.random.default_rng(20 + g)
    for _ in range(15):
        gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
        point = random_point(g, rng)
        assert verify_G_law(im_inverse, gamma, point) < 1e-10


def test_G_law_fails_for_wrong_field():
    # a polynomial G(z) = z violates the law for a generic inversion word
    def field(point):
        return np.array([[point.Z[0, 0]]])
    gamma = SymplecticElement([[0, 1], [-1, 0]])
    point = SiegelPoint(1, [[0.3]], [[0.8]])
    assert verify_G_law(field, gamma, point) > 1e-3


def test_generic_field_agrees_with_default():
    g = 2
    point = random_point(g, seed=13)
    f = random_test_function(g, np.random.default_rng(14))
    # the default G against i Y^{-1} from an independent inverse
    expected = (sym_gradient(f, point)
                - 2 * f.value(point) * 1j * np.linalg.inv(point.Y))
    assert np.abs(nabla(f, point, 2) - expected).max() <= 1e-14


def test_bracket_antisymmetry_and_wronskian():
    g = 1
    point = SiegelPoint(1, [[0.25]], [[1.5]])
    f = TestFunction.coordinate(g, (1, 1)) ** 2
    h = TestFunction.coordinate(g, (1, 1)) ** 3 + 2
    assert bracket1(f, f, point) == 0
    z = point.Z[0, 0]
    # h f' - f h' for the explicit polynomials
    expect = (z ** 3 + 2) * 2 * z - z ** 2 * 3 * z ** 2
    assert abs(bracket1(f, h, point) - expect) < 1e-12


@pytest.mark.parametrize("g", [1, 2])
def test_bracket_transformation(g, bracket_law_without_curvature):
    rng = np.random.default_rng(30 + g)
    for _ in range(6):
        gamma = random_symplectic(g, int(rng.integers(1, 6)), rng)
        point = random_point(g, rng)
        f = random_test_function(g, rng)
        h = random_test_function(g, rng)
        assert bracket1_transform_residual(f, h, 2, 2, gamma, point) < 1e-7

        corrected = bracket1_transform_residual(f, h, 1, 2, gamma, point)
        raw = bracket_law_without_curvature(f, h, 1, 2, gamma, point)
        # the defect is real for words containing an inversion, and the
        # predicted curvature term always absorbs it
        assert corrected < 1e-7
        if np.abs(gamma.C).max() > 0:
            fh = abs(f.value(point) * h.value(point))
            if fh > 1e-3:
                assert raw > corrected

        weighted = bracket1_transform_residual(f, h, 1, 2, gamma, point,
                                               (1, 2))
        assert weighted < 1e-7


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("r, s", [(1, 2), (2, 1), (2, 3)])
def test_bracket_law_at_any_weights(g, r, s):
    # the one formula, curvature term 2(r b - s a) f h C j^t, away from the
    # three (r, s, weights) that verify uses
    rng = np.random.default_rng([g, r, s])
    for _ in range(6):
        gamma = random_symplectic(g, int(rng.integers(1, 6)), rng)
        point = random_point(g, rng)
        f = random_test_function(g, rng)
        h = random_test_function(g, rng)
        for weights in ((1, 1), (2, 3), (3, -1), (r, s)):
            assert bracket1_transform_residual(f, h, r, s, gamma, point,
                                               weights) < 1e-7


def test_degree_one_wronskian_defect_formula():
    # the transformation defect of h f' - f h' for unequal weights is
    # 2 c (r - s) (cz+d)^{2r+2s+1} f h, checked at determinant level
    r, s = 1, 2
    gamma = SymplecticElement(np.array([[1, 1], [1, 2]]))
    point = SiegelPoint(1, [[0.3]], [[1.1]])
    rng = np.random.default_rng(41)
    f = random_test_function(1, rng)
    h = random_test_function(1, rng)
    z = point.Z[0, 0]
    c, d = 1, 2
    F = ModularExtension(f, 2 * r, gamma)
    H = ModularExtension(h, 2 * s, gamma)
    image = act(gamma, point)
    W_image = bracket1(F, H, image)
    W_here = bracket1(f, h, point)
    defect = W_image - (c * z + d) ** (2 * r + 2 * s + 2) * W_here
    predicted = (2 * c * (r - s) * (c * z + d) ** (2 * r + 2 * s + 1)
                 * f.value(point) * h.value(point))
    assert abs(defect - predicted) < 1e-7 * max(1.0, abs(predicted))


def test_qseries_function_and_ig2_field():
    e4 = eisenstein(4, 200)
    f = QSeriesFunction(e4)
    z = 0.21 + 1.4j
    point = SiegelPoint(1, [[z.real]], [[z.imag]])
    assert abs(f.value(point) - evaluate(e4, z)) < 1e-14
    approx = fd_gradient(f.value, point)
    assert abs(f.gradient(point)[0] - approx[0]) < 1e-6 * max(
        1, abs(approx[0]))

    G2 = ig2_field(300)
    rng = np.random.default_rng(51)
    for _ in range(4):
        gamma = random_symplectic(1, int(rng.integers(1, 5)), rng)
        p = random_point(1, rng)
        assert verify_G_law(G2, gamma, p) < 1e-6


def test_qseries_function_gradient_broadcasts_over_a_stack():
    f = QSeriesFunction(eisenstein(4, 200))
    zs = (0.21 + 1.4j, -0.3 + 0.9j)
    stack = SiegelPoint(1, np.array([[[z.real]] for z in zs]),
                        np.array([[[z.imag]] for z in zs]))
    grads = f.gradient(stack)
    assert grads.shape == (2, 1)
    for z, grad in zip(zs, grads):
        single = f.gradient(SiegelPoint(1, [[z.real]], [[z.imag]]))
        assert single.shape == (1,)
        assert grad.tobytes() == single.tobytes()


def test_ig2_field_is_one_matrix_per_point_of_a_stack():
    # a stack of points died in numpy's TypeError
    G2 = ig2_field(300)
    zs = (0.21 + 1.4j, -0.3 + 0.9j)
    stack = SiegelPoint(1, np.array([[[z.real]] for z in zs]),
                        np.array([[[z.imag]] for z in zs]))
    fields = G2(stack)
    assert fields.shape == (2, 1, 1)
    for z, field in zip(zs, fields):
        single = G2(SiegelPoint(1, [[z.real]], [[z.imag]]))
        assert single.shape == (1, 1)
        assert field.tobytes() == single.tobytes()


def test_ig2_operator_matches_exact_weight_raising():
    n = 300
    e4 = eisenstein(4, n)
    f = QSeriesFunction(e4)
    G2 = ig2_field(n)
    v4 = serre_derivative(e4)
    for z in (0.3 + 1.2j, -0.2 + 0.9j, 0.05 + 1.6j):
        point = SiegelPoint(1, [[z.real]], [[z.imag]])
        got = nabla(f, point, 2, G2)[0, 0]
        expect = 2j * np.pi * evaluate(v4, z)
        assert abs(got - expect) < 1e-8 * abs(expect)


def test_ig2_operator_output_is_holomorphic():
    n = 300
    f = QSeriesFunction(eisenstein(4, n))
    G2 = ig2_field(n)

    def op(z):
        return nabla(f, SiegelPoint(1, [[z.real]], [[z.imag]]), 2, G2)[0, 0]

    z = 0.3 + 1.2j
    h = 1e-5
    dx = (op(z + h) - op(z - h)) / (2 * h)
    dy = (op(z + 1j * h) - op(z - 1j * h)) / (2 * h)
    assert abs(0.5 * (dx + 1j * dy)) < 1e-6

    # contrast: the default non-holomorphic field fails the same test
    def op_im(z):
        return nabla(f, SiegelPoint(1, [[z.real]], [[z.imag]]), 2)[0, 0]
    dx = (op_im(z + h) - op_im(z - h)) / (2 * h)
    dy = (op_im(z + 1j * h) - op_im(z - 1j * h)) / (2 * h)
    assert abs(0.5 * (dx + 1j * dy)) > 1e-3


# (1, 0; N, 1) sends i to i / (N i + 1), with det(C Z + D) = N i + 1
_STEEP = SymplecticElement(np.array([[1, 0], [10 ** 6, 1]]))


@pytest.mark.parametrize("c, N", [
    # det nabla_1 f(Z) is about 1e198 and det(CZ+D)^8 about 1.7e199, so
    # det nabla_1 F(gamma Z), their product, is beyond the float range
    (10 ** 66, 2 * 10 ** 8),
    # det nabla_1 f(Z) itself is about 1e330
    (10 ** 110, 1),
], ids=["at-the-image", "at-the-point"])
def test_det_nabla_beyond_the_float_range_is_a_degeneracy(c, N):
    # f = c at Z = iI, g = 3, along (I, 0; N I, I)
    eye = np.eye(3, dtype=np.int64)
    gamma = SymplecticElement(np.block([[eye, 0 * eye], [N * eye, eye]]))
    point = SiegelPoint(3, np.zeros((3, 3)), np.eye(3))
    f = TestFunction.constant(3, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError,
                           match=r"det nabla_1 leaves the float range"):
            det_nabla_weight_residual(f, gamma, point, 1)


def test_det_nabla_beyond_the_float_range_is_a_degeneracy_alone():
    # det nabla_1 of the constant 1e200 is about i 1e600 / det Y: a
    # degeneracy, not a NaN residual with two numpy warnings
    f = TestFunction.constant(3, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError,
                           match=r"det nabla_1 leaves the float range"):
            det_nabla(f, random_point(3, 7), 1)


@pytest.mark.parametrize("name, residual", [
    # det(CZ+D)^{2k} with k = 30: |N i + 1|^60 is about 1e360
    ("nabla_transform", lambda f, point: verify_nabla_transform(
        f, _STEEP, point, 30)),
    ("nabla_transform_fd", lambda f, point: verify_nabla_transform(
        f, _STEEP, point, 30, grad="fd")),
    # det(CZ+D)^{2gk+2} = (N i + 1)^62
    ("det_weight_factor", lambda f, point: det_nabla_weight_residual(
        f, _STEEP, point, 30)),
    # det(CZ+D)^{2r+2s} = (N i + 1)^120
    ("bracket", lambda f, point: bracket1_transform_residual(
        f, f, 30, 30, _STEEP, point)),
])
def test_weight_factor_beyond_the_float_range_is_a_degeneracy(name,
                                                              residual):
    point = SiegelPoint(1, [[0.0]], [[1.0]])
    f = random_test_function(1, np.random.default_rng(5))
    assert abs(det_nabla(f, point, 30)) > 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError,
                           match=r"weight factor det\(CZ\+D\)\^\d+ "
                                 r"overflows the float range"):
            residual(f, point)


@pytest.mark.parametrize("method", ["value", "gradient"])
def test_an_extension_beyond_the_float_range_is_a_degeneracy(method):
    # at gamma(i) the weight-2 factor det(C Z + D)^2 = (N i + 1)^2 is
    # about 1e12, which takes the constant 1e300 past the float range
    f = TestFunction.constant(1, 1e300)
    image = act(_STEEP, SiegelPoint(1, [[0.0]], [[1.0]]))
    extension = ModularExtension(f, 2, _STEEP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError,
                           match=r"^weight-2 extension( gradient)? leaves "
                                 r"the float range$"):
            getattr(extension, method)(image)


# a test function whose value at a valid point leaves the float range:
# (seed of random_test_function(1, seed), X, Y); both values were NaN
_TEST_FUNCTION_OVERFLOWS = {"y-1e160": (0, 0.0, 1e160),
                            "x-1e300": (1, 1e300, 1e-100)}


@pytest.mark.parametrize("det_first", [False, True],
                         ids=["alone", "after-det_nabla"])
@pytest.mark.parametrize("read", [
    lambda f, point: f.value(point),
    lambda f, point: f.gradient(point),
    lambda f, point: sym_gradient(f, point),
    lambda f, point: nabla(f, point, 1),
    lambda f, point: fd_gradient(f.value, point),
], ids=["value", "gradient", "sym_gradient", "nabla", "fd_gradient"])
@pytest.mark.parametrize("case", list(_TEST_FUNCTION_OVERFLOWS))
def test_a_test_function_beyond_the_float_range_is_a_degeneracy(
        case, read, det_first):
    # det_nabla ignores overflow while it takes the determinant; the NaN
    # value and gradient it built under that were kept on the point, and
    # every later read returned them with no warning
    seed, x, y = _TEST_FUNCTION_OVERFLOWS[case]
    f = random_test_function(1, seed)
    point = SiegelPoint(1, [[x]], [[y]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if det_first:
            with pytest.raises(DegeneracyError):
                det_nabla(f, point, 1)
        with pytest.raises(DegeneracyError,
                           match="^test function leaves the float range$"):
            read(f, point)


def test_the_operators_suite_at_a_weight_beyond_the_float_range_degenerates():
    # at k = 284 the weight-568 extension leaves the float range before any
    # determinant is taken; with numpy's warnings as errors the suite
    # stops at a DegeneracyError, not at an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegeneracyError, match="leaves the float range"):
            run_suite("operators", (1, 1), seed=0, ks=(284,))
