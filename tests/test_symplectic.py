import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import siegel.symplectic as symplectic
from siegel.connection import invariance_residual
from siegel.forms import FormPolynomial
from siegel.functions import Jet, TestFunction, random_test_function
from siegel.indexing import omega_list
from siegel.metric import metric_form, metric_pair
from siegel.operators import (ModularExtension, QSeriesFunction, bracket1,
                              im_inverse, nabla, verify_G_law,
                              verify_nabla_transform)
from siegel.qseries import eisenstein
from siegel.symplectic import (DegeneracyError, DimensionError, SiegelPoint,
                               SymplecticElement, act, cocycle,
                               cocycle_condition, is_symplectic,
                               random_point, random_symplectic,
                               tangent_pushforward, pushforward_matrix,
                               pushforward_matrix_derivative)


def test_is_symplectic_identity_and_j():
    for g in (1, 2, 3):
        assert is_symplectic(np.eye(2 * g, dtype=np.int64))
        # the inversion element's matrix is J
        assert is_symplectic(SymplecticElement.inversion(g).matrix)


def test_is_symplectic_rejects_scaling():
    M = np.diag([2, 1, 1, 1]).astype(np.int64)
    assert not is_symplectic(M)


def test_is_symplectic_rejects_float_matrices():
    # a float matrix is refused, not tested by residual, even when it is J
    J = SymplecticElement.inversion(2).matrix.astype(float)
    for M in (np.eye(4), J):
        with pytest.raises(ValueError, match="integer matrices"):
            is_symplectic(M)


def test_is_symplectic_dimension_errors():
    with pytest.raises(DimensionError):
        is_symplectic(np.eye(3))
    with pytest.raises(DimensionError):
        is_symplectic(np.ones((2, 4)))


_EMPTY = np.zeros((0, 0), dtype=np.int64)
_DEGREE_0 = "degree must be at least 1, got 0"


@pytest.mark.parametrize("build, match", [
    (lambda: SymplecticElement.translation(5),
     r"translation block must be square, got shape \(\)"),
    (lambda: SymplecticElement.unimodular(5),
     r"embedding block must be square, got shape \(\)"),
    (lambda: SymplecticElement.translation(_EMPTY), _DEGREE_0),
    (lambda: SymplecticElement.unimodular(_EMPTY), _DEGREE_0),
    (lambda: SymplecticElement.inversion(0), _DEGREE_0),
    (lambda: SymplecticElement.identity(0), _DEGREE_0),
    (lambda: SymplecticElement.identity(-1),
     "degree must be at least 1, got -1"),
    (lambda: SymplecticElement(_EMPTY), _DEGREE_0),
    # the range check of a uint64 matrix passes an empty one to the gate
    (lambda: SymplecticElement(np.zeros((0, 0), dtype=np.uint64)),
     _DEGREE_0),
    (lambda: SymplecticElement(np.eye(3, dtype=int)),
     "symplectic matrices have even size, got 3"),
    (lambda: SymplecticElement(np.ones(4, dtype=int)),
     r"symplectic matrix must be square, got shape \(4,\)"),
    (lambda: is_symplectic(_EMPTY), _DEGREE_0),
    (lambda: SiegelPoint(0, np.zeros((0, 0)), np.zeros((0, 0))), _DEGREE_0),
    (lambda: random_point(0, 1), _DEGREE_0),
    (lambda: random_symplectic(0, 3, 1), _DEGREE_0),
    (lambda: omega_list(0), _DEGREE_0),
    (lambda: TestFunction(0), _DEGREE_0),
    (lambda: TestFunction(-1), "degree must be at least 1, got -1"),
    (lambda: TestFunction.constant(0, 1), _DEGREE_0),
    (lambda: random_test_function(0, 1), _DEGREE_0),
    (lambda: FormPolynomial(0), _DEGREE_0),
    (lambda: TestFunction.coordinate(0, (1, 1)), _DEGREE_0),
    (lambda: FormPolynomial.generator(0, (1, 1)), _DEGREE_0),
], ids=["translation-scalar", "unimodular-scalar", "translation-0x0",
        "unimodular-0x0", "inversion-0", "identity-0", "identity-negative",
        "constructor-0", "from_matrix-0x0", "constructor-odd",
        "constructor-1d",
        "is_symplectic-0x0", "point-0", "random_point-0",
        "random_symplectic-0", "omega_list-0", "test_function-0",
        "test_function-negative", "constant_function-0",
        "random_test_function-0", "form-0", "coordinate-0",
        "generator-0"])
def test_degenerate_degrees_and_shapes_raise_dimension_error(build, match):
    # one degree gate: an element, a point, a test function or a form has
    # degree g >= 1, and a block or a matrix of another shape names its
    # shape
    with pytest.raises(DimensionError, match=match):
        build()


_F2 = random_test_function(2, 1)
_F3 = random_test_function(3, 1)
_P3 = random_point(3, 1)
_G3 = random_symplectic(3, 3, 1)
_FUNCTION_AND_POINT = "degree mismatch: function has g=2, point has g=3"
_FUNCTION_AND_ELEMENT = "degree mismatch: function has g=2, element has g=3"
# a degree-one q-series function read at a degree-two point
_Q1 = QSeriesFunction(eisenstein(4, 20))
_P2 = random_point(2, 1)
_SERIES_AND_POINT = "degree mismatch: function has g=1, point has g=2"


@pytest.mark.parametrize("build, match", [
    (lambda: _F2 + _F3, "degree mismatch: function has g=2, function has g=3"),
    (lambda: _F2 - _F3, "degree mismatch: function has g=2, function has g=3"),
    (lambda: _F2 * _F3, "degree mismatch: function has g=2, function has g=3"),
    (lambda: FormPolynomial(2, {(0,): 1.0}) * FormPolynomial(3, {(0,): 1.0}),
     "degree mismatch: form has g=2, form has g=3"),
    (lambda: SymplecticElement.identity(2) @ _G3,
     "degree mismatch: element has g=2, element has g=3"),
    (lambda: _F2.value(_P3), _FUNCTION_AND_POINT),
    (lambda: _F2.gradient(_P3), _FUNCTION_AND_POINT),
    (lambda: nabla(_F2, _P3, 1), _FUNCTION_AND_POINT),
    (lambda: Jet.at(_F2, _P3), _FUNCTION_AND_POINT),
    (lambda: bracket1(_F2, _F2, _P3), _FUNCTION_AND_POINT),
    (lambda: ModularExtension(_F2, 2, _G3), _FUNCTION_AND_ELEMENT),
    (lambda: verify_nabla_transform(_F2, _G3, _P3, 1), _FUNCTION_AND_ELEMENT),
    (lambda: invariance_residual(_G3, _P3, _F2, 1), _FUNCTION_AND_ELEMENT),
    (lambda: _Q1.value(_P2), _SERIES_AND_POINT),
    (lambda: _Q1.gradient(_P2), _SERIES_AND_POINT),
], ids=["function-sum", "function-difference", "function-product",
        "form-product", "element-product", "value", "gradient", "nabla",
        "jet", "bracket1", "extension", "nabla_transform",
        "invariance_residual", "series-value", "series-gradient"])
def test_objects_of_two_degrees_do_not_mix(build, match):
    # one mixed-degree gate, with act's wording: a degree-2 function is
    # neither combined with a degree-3 one nor read at a degree-3 point,
    # and is not extended along a degree-3 element; a degree-1 q-series
    # function is not read at a degree-2 point
    with pytest.raises(DimensionError, match=match):
        build()


def test_point_construction_symmetrizes_and_rejects():
    X = np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]])
    point = SiegelPoint(2, X, np.eye(2))
    assert np.array_equal(point.X, point.X.T)
    with pytest.raises(ValueError, match="not symmetric"):
        SiegelPoint(2, np.array([[0.0, 1.0], [2.0, 0.0]]), np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        SiegelPoint(2, np.zeros((2, 2)), np.diag([1.0, -1.0]))


# Y = L L^t with L = [[1, 0], [10, 1.2e-5]]: every Cholesky pivot is
# above 1e-12 max|Y|, but cond(Y) = 7.1e13
_L = np.array([[1.0, 0.0], [10.0, 1.2e-5]])
_ILL_CONDITIONED = _L @ _L.T


def test_y_is_accepted_by_its_condition_number_alone():
    # cond(Y) = 1000, far inside COND_LIMIT, while its leading minor 5
    # is far below max|Y|^5
    Y = np.diag([1000.0, 1.0, 1.0, 1.0, 1.0])
    point = SiegelPoint(5, np.zeros((5, 5)), Y)
    np.testing.assert_array_equal(point.spectrum, [1.0] * 4 + [1000.0])
    # and metric_pair factors it: R = Y^-1 to roundoff
    np.testing.assert_allclose(metric_pair(point).R, np.diag(1.0 / np.diag(Y)),
                               rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("Y", [np.diag([1.0, 1e-14]), _ILL_CONDITIONED],
                         ids=["diagonal", "pivots-pass"])
def test_y_above_the_condition_limit_is_rejected(Y):
    assert np.linalg.cond(Y) > 1e13
    with pytest.raises(ValueError, match="numerically singular"):
        SiegelPoint(2, np.zeros((2, 2)), Y)


def test_zero_y_is_not_positive_definite():
    # lambda_max <= COND_LIMIT lambda_min holds for Y = 0
    with pytest.raises(ValueError, match="not positive definite"):
        SiegelPoint(2, np.zeros((2, 2)), np.zeros((2, 2)))


def test_stack_names_its_ill_conditioned_member():
    Y = np.stack([np.diag([1000.0, 1.0, 1.0, 1.0, 1.0]), np.eye(5),
                  np.eye(5)])
    Y[2, :2, :2] = _ILL_CONDITIONED
    with pytest.raises(ValueError,
                       match=r"numerically singular.*stack index \(2,\)"):
        SiegelPoint(5, np.zeros((3, 5, 5)), Y)


@pytest.mark.parametrize("part", ["X", "Y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_rejects_non_finite_entries(part, bad):
    blocks = {"X": np.zeros((2, 2)), "Y": np.eye(2)}
    blocks[part][1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        SiegelPoint(2, blocks["X"], blocks["Y"])


@pytest.mark.parametrize("X", [
    [[1e308]],
    [[1e308, 1.5e308], [1.5e308, -1.7e308]],
    [[1.7976931348623157e308, -0.0], [-0.0, 5e-324]],
], ids=["1x1", "2x2", "extremes"])
def test_symmetric_entries_near_the_largest_float_keep_their_bits(X):
    X = np.array(X)
    Y = np.eye(len(X))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = SiegelPoint(len(X), X, Y)
    assert point.X.tobytes() == X.tobytes()
    assert point.Y.tobytes() == Y.tobytes()


def test_near_symmetric_entries_near_the_largest_float_stay_finite():
    a = 1.7e308
    b = np.nextafter(a, np.inf)
    X = np.array([[a, a], [b, -a]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = SiegelPoint(2, X, np.eye(2))
    assert np.isfinite(point.X).all()
    assert np.array_equal(point.X, point.X.T)
    assert point.X[0, 1] in (a, b)
    # far from symmetric, a - b overflows and is rejected, not accepted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not symmetric"):
            SiegelPoint(2, np.array([[0.0, a], [-a, 0.0]]), np.eye(2))


@pytest.mark.parametrize("defect, match", [
    ("asymmetric", "not symmetric"),
    ("indefinite", "not positive definite"),
    ("singular", "numerically singular"),
    ("nan", "non-finite"),
])
def test_stack_with_one_bad_member_raises(defect, match):
    X = np.zeros((4, 2, 2))
    Y = np.stack([np.eye(2)] * 4)
    if defect == "asymmetric":
        X[2, 0, 1] = 1.0
    elif defect == "indefinite":
        Y[2] = np.diag([1.0, -1.0])
    elif defect == "singular":
        Y[2] = np.diag([1.0, 1e-14])
    else:
        X[2, 0, 0] = np.nan
    with pytest.raises(ValueError, match=match + r".*stack index \(2,\)"):
        SiegelPoint(2, X, Y)


def _stack_with_defect(defect):
    """A (2, 3) stack of degree-two points, i*I but for one defect."""
    X = np.zeros((2, 3, 2, 2))
    Y = np.broadcast_to(np.eye(2), (2, 3, 2, 2)).copy()
    if defect == "nan-X":
        X[1, 2, 0, 1] = np.nan
    elif defect == "inf-Y":
        Y[1, 0, 1, 1] = np.inf
    elif defect == "minus-inf-X":
        X[0, 2, 1, 1] = -np.inf
    elif defect == "asymmetric-X":
        X[1, 1, 0, 1] = 0.5
    elif defect == "asymmetric-Y":
        Y[0, 2, 1, 0] = 1e-3
    elif defect == "indefinite":
        Y[1, 1] = np.diag([2.0, -0.5])
    elif defect == "zero":
        Y[1, 0] = 0.0
    elif defect == "singular":
        Y[0, 1] = np.diag([4.0, 1e-12])
    elif defect == "singular-then-indefinite":
        Y[0, 1] = np.diag([4.0, 1e-12])
        Y[1, 2] = np.diag([-1.0, 3.0])
    return X, Y


@pytest.mark.parametrize("defect, message", [
    ("nan-X", "real part has non-finite entries at stack index (1, 2)"),
    ("inf-Y", "imaginary part has non-finite entries at stack index (1, 0)"),
    ("minus-inf-X", "real part has non-finite entries at stack index (0, 2)"),
    ("asymmetric-X", "real part is not symmetric (asymmetry 5.000e-01) "
                     "at stack index (1, 1)"),
    ("asymmetric-Y", "imaginary part is not symmetric (asymmetry "
                     "1.000e-03) at stack index (0, 2)"),
    ("indefinite", "imaginary part is not positive definite (lambda_min = "
                   "-5.000e-01) at stack index (1, 1)"),
    ("zero", "imaginary part is not positive definite (lambda_min = "
             "0.000e+00) at stack index (1, 0)"),
    ("singular", "imaginary part is numerically singular (eigenvalues "
                 "1.000e-12 to 4.000e+00, condition number above 1e+12) "
                 "at stack index (0, 1)"),
    # a member that is not positive definite is named before an earlier
    # ill-conditioned one
    ("singular-then-indefinite", "imaginary part is not positive definite "
                                 "(lambda_min = -1.000e+00) at stack index "
                                 "(1, 2)"),
])
def test_stack_member_failure_keeps_its_message_and_index(defect, message):
    X, Y = _stack_with_defect(defect)
    with pytest.raises(ValueError) as info:
        SiegelPoint(2, X, Y)
    assert str(info.value) == message
    # the same member alone fails with the same message, without an index
    at = tuple(int(i) for i in message.rsplit("(", 1)[1][:-1].split(","))
    with pytest.raises(ValueError) as info:
        SiegelPoint(2, X[at], Y[at])
    assert str(info.value) == message.rsplit(" at stack index", 1)[0]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_act_on_stack_matches_each_point(g):
    rng = np.random.default_rng(70 + g)
    gamma = random_symplectic(g, 5, rng)
    points = [random_point(g, rng) for _ in range(6)]
    # a (2, 3) stack: any number of leading axes broadcasts
    stack = SiegelPoint(g, np.stack([p.X for p in points]).reshape(2, 3, g, g),
                        np.stack([p.Y for p in points]).reshape(2, 3, g, g))
    images = act(gamma, stack).Z.reshape(6, g, g)
    factors = cocycle(gamma, stack).reshape(6, g, g)
    for i, point in enumerate(points):
        expect = act(gamma, point).Z
        assert (np.abs(images[i] - expect).max()
                <= 1e-14 * max(1.0, np.abs(expect).max()))
        np.testing.assert_array_equal(factors[i], cocycle(gamma, point))


def test_inversion_fixes_i_identity():
    for g in (1, 2, 3):
        point = SiegelPoint(g, np.zeros((g, g)), np.eye(g))
        image = act(SymplecticElement.inversion(g), point)
        np.testing.assert_allclose(image.Z, point.Z, atol=1e-14)


def test_translation_shifts_real_part():
    B = np.array([[1, 2], [2, -1]])
    gamma = SymplecticElement.translation(B)
    point = random_point(2, seed=5)
    image = act(gamma, point)
    np.testing.assert_allclose(image.X, point.X + B, atol=1e-14)
    np.testing.assert_allclose(image.Y, point.Y, atol=1e-14)


def test_moebius_degree_one():
    # (a, b; c, d) = (1, 1; 1, 2) sends i to (i+1)/(i+2) = (3+i)/5
    gamma = SymplecticElement(np.array([[1, 1], [1, 2]]))
    image = act(gamma, SiegelPoint.from_complex(1j))
    assert abs(complex(image.Z[0, 0]) - (3 + 1j) / 5) < 1e-15


def test_cocycle_block_forms():
    point = random_point(2, seed=1)
    B = np.array([[0, 1], [1, 3]])
    np.testing.assert_array_equal(
        cocycle(SymplecticElement.translation(B), point), np.eye(2))
    np.testing.assert_allclose(
        cocycle(SymplecticElement.inversion(2), point), -point.Z)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_action_and_cocycle_composition(g):
    rng = np.random.default_rng(100 + g)
    for _ in range(67):
        g1 = random_symplectic(g, int(rng.integers(0, 7)), rng)
        g2 = random_symplectic(g, int(rng.integers(0, 7)), rng)
        point = random_point(g, rng)
        left = act(g1 @ g2, point).Z
        right = act(g1, act(g2, point)).Z
        scale = max(1.0, np.abs(left).max())
        assert np.abs(left - right).max() < 1e-10 * scale
        c_left = cocycle(g1 @ g2, point)
        c_right = cocycle(g1, act(g2, point)) @ cocycle(g2, point)
        scale = max(1.0, np.abs(c_left).max())
        assert np.abs(c_left - c_right).max() < 1e-10 * scale


def _im_by_congruence(gamma, point):
    """Im gamma(Z) as ((C Zbar + D)^t)^{-1} Y (C Z + D)^{-1}, a second
    formula for the imaginary part of the image."""
    den = gamma.C @ point.Z + gamma.D
    den_bar = gamma.C @ point.Z.conj() + gamma.D
    W = np.linalg.solve(den_bar.T, point.Y.astype(complex))
    W = np.linalg.solve(den.T, W.T).T
    return ((W + W.T) / 2.0).real


def test_imaginary_part_of_the_action_matches_the_congruence():
    B = np.array([[1, 0], [0, 2]])
    point = random_point(2, seed=2)
    gamma = SymplecticElement.translation(B)
    assert np.abs(act(gamma, point).Y - point.Y).max() < 1e-14
    assert np.abs(_im_by_congruence(gamma, point) - point.Y).max() < 1e-14
    # degree one inversion: Im(-1/(iy)) = 1/y
    y = 1.7
    point = SiegelPoint.from_complex(1j * y)
    gamma = SymplecticElement.inversion(1)
    assert abs(act(gamma, point).Y[0, 0] - 1 / y) < 1e-14
    assert abs(_im_by_congruence(gamma, point)[0, 0] - 1 / y) < 1e-14

    rng = np.random.default_rng(3)
    for _ in range(5):
        gamma = random_symplectic(3, 5, rng)
        point = random_point(3, rng)
        image = act(gamma, point)
        expected = _im_by_congruence(gamma, point)
        assert np.abs(image.Y - expected).max() < 1e-10
        assert np.linalg.eigvalsh(expected).min() > 0
        assert image.spectrum[0] > 0


def test_tangent_pushforward_basics():
    point = random_point(2, seed=7)
    V = np.array([[1.0, 2.0], [2.0, -0.5]], dtype=complex)
    ident = SymplecticElement.identity(2)
    np.testing.assert_allclose(tangent_pushforward(ident, point, V), V,
                               atol=1e-14)
    B = np.array([[1, 1], [1, 0]])
    np.testing.assert_allclose(
        tangent_pushforward(SymplecticElement.translation(B), point, V), V,
        atol=1e-14)
    with pytest.raises(ValueError, match="symmetric"):
        tangent_pushforward(ident, point, np.array([[0, 1], [0, 0]]))


def test_tangent_pushforward_refuses_an_ill_conditioned_cocycle():
    # a valid point where C Z + D = -Z for the inversion has condition
    # number 2e13: pushforward_matrix refused it, while tangent_pushforward
    # returned entries of 5e25
    point = SiegelPoint.from_matrix(np.ones((2, 2)) + 1e-13j * np.eye(2))
    gamma = SymplecticElement.inversion(2)
    with pytest.raises(DegeneracyError, match="numerically singular"):
        pushforward_matrix(gamma, point)
    with pytest.raises(DegeneracyError, match="numerically singular"):
        tangent_pushforward(gamma, point, np.eye(2))


@pytest.mark.parametrize("read", [
    cocycle, cocycle_condition, act, pushforward_matrix,
    lambda gamma, point: pushforward_matrix_derivative(gamma, point,
                                                       np.eye(2)),
    lambda gamma, point: tangent_pushforward(gamma, point, np.eye(2)),
    lambda gamma, point: verify_G_law(im_inverse, gamma, point),
], ids=["cocycle", "cocycle_condition", "act", "pushforward_matrix",
        "pushforward_matrix_derivative", "tangent_pushforward",
        "verify_G_law"])
def test_every_reader_of_the_cocycle_refuses_an_ill_conditioned_one(read):
    # C Z + D = -Z with cond(Z) about 2e12, above the limit of 1e12: the
    # test runs where C Z + D is built, so no reader gets past it, the
    # public cocycle included
    point = SiegelPoint(2, 1e12 * np.ones((2, 2)), np.eye(2))
    gamma = SymplecticElement.inversion(2)
    with pytest.raises(DegeneracyError, match="numerically singular"):
        read(gamma, point)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pushforward", [
    tangent_pushforward, pushforward_matrix_derivative],
    ids=["tangent_pushforward", "pushforward_matrix_derivative"])
def test_non_finite_tangent_is_refused(pushforward, bad):
    # NaN passes the symmetry test, since it compares false, and the
    # result came out NaN everywhere; inf did too, with a RuntimeWarning
    point = random_point(2, seed=7)
    gamma = random_symplectic(2, 4, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            pushforward(gamma, point, np.array([[bad, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("pushforward", [
    tangent_pushforward, pushforward_matrix_derivative],
    ids=["tangent_pushforward", "pushforward_matrix_derivative"])
def test_tangent_of_another_shape_or_not_symmetric_is_refused(pushforward):
    # pushforward_matrix_derivative returned a matrix for a V that is not
    # symmetric, and a 3 x 3 V at g = 2 died in numpy's matmul
    point = random_point(2, seed=7)
    gamma = random_symplectic(2, 4, 3)
    with pytest.raises(ValueError, match="symmetric"):
        pushforward(gamma, point, np.array([[0.0, 1.0], [0.0, 0.0]]))
    for wrong in (np.eye(3), np.eye(1), np.ones(2)):
        with pytest.raises(DimensionError, match="2x2 tangent"):
            pushforward(gamma, point, wrong)


@pytest.mark.parametrize("n", [2, 3])
def test_one_point_functions_refuse_a_stack(n):
    # tangent_pushforward on a stack of two points returned an array that
    # matched neither point's pushforward, and of three died in numpy's
    # solve; the others died in a numpy broadcast or a TypeError
    rng = np.random.default_rng(5)
    gamma = random_symplectic(2, 4, rng)
    stack = SiegelPoint.from_matrix(
        np.stack([random_point(2, rng).Z for _ in range(n)]))
    V = np.array([[1.0, 0.5], [0.5, -1.0]])
    for call in (lambda: tangent_pushforward(gamma, stack, V),
                 lambda: pushforward_matrix(gamma, stack),
                 lambda: pushforward_matrix_derivative(gamma, stack, V),
                 lambda: metric_form(stack, V, V)):
        with pytest.raises(DimensionError, match="one point, got a stack of "
                           rf"shape \({n},\)"):
            call()


def test_tangent_pushforward_degree_one_inversion():
    z = 0.4 + 1.3j
    v = 0.7 - 0.2j
    got = tangent_pushforward(SymplecticElement.inversion(1),
                              SiegelPoint.from_complex(z),
                              np.array([[v]]))
    assert abs(got[0, 0] - v / z ** 2) < 1e-14


@pytest.mark.parametrize("g", [1, 2, 3])
def test_pushforward_composition(g):
    rng = np.random.default_rng(200 + g)
    for _ in range(67):
        g1 = random_symplectic(g, int(rng.integers(0, 7)), rng)
        g2 = random_symplectic(g, int(rng.integers(0, 7)), rng)
        point = random_point(g, rng)
        V = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        V = (V + V.T) / 2
        left = tangent_pushforward(g1 @ g2, point, V)
        right = tangent_pushforward(g1, act(g2, point),
                                    tangent_pushforward(g2, point, V))
        scale = max(1.0, np.abs(left).max())
        assert np.abs(left - right).max() < 1e-10 * scale


def test_pushforward_matrix_agrees_with_tangent_map():
    from siegel.indexing import basis_stack, sym_to_coords
    rng = np.random.default_rng(11)
    gamma = random_symplectic(2, 5, rng)
    point = random_point(2, rng)
    S = pushforward_matrix(gamma, point)
    for pos, E in enumerate(basis_stack(2)):
        direct = tangent_pushforward(gamma, point, E)
        np.testing.assert_allclose(S[pos, :], sym_to_coords(direct),
                                   atol=1e-12)


def test_random_symplectic_contract():
    assert (random_symplectic(2, 0, seed=1).matrix
            == SymplecticElement.identity(2).matrix).all()
    a = random_symplectic(3, 6, seed=42)
    b = random_symplectic(3, 6, seed=42)
    assert np.array_equal(a.matrix, b.matrix)
    for seed in range(20):
        el = random_symplectic(2, 8, seed=seed)
        assert is_symplectic(el.matrix)


def test_a_numpy_integer_seed_draws_as_the_plain_int():
    # the drawers hand the seed to default_rng, which takes numpy integers
    # as well as a Generator
    seed = np.int64(5)
    assert random_symplectic(2, 3, seed) == random_symplectic(2, 3, 5)
    a, b = random_point(2, seed), random_point(2, 5)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
    assert random_test_function(2, seed).terms == random_test_function(
        2, 5).terms


def test_generator_word_expansion_is_symplectic(monkeypatch):
    # the three generators, their products, and the steps random_symplectic
    # writes straight into its word: each is its constructor's matrix
    J = SymplecticElement.inversion(2).matrix
    T = SymplecticElement.translation(np.array([[1, 2], [2, 0]])).matrix
    U = SymplecticElement.unimodular(np.array([[1, 1], [0, 1]])).matrix
    for M in (J, T, U, symplectic._int_matmul(J, T), J @ T @ U):
        assert is_symplectic(M)
    steps = []
    multiply = symplectic._int_matmul

    def recorded(a, b):
        steps.append(b.copy())
        return multiply(a, b)
    monkeypatch.setattr(symplectic, "_int_matmul", recorded)
    g = 3
    for seed in range(10):
        random_symplectic(g, 12, seed)
    assert len(steps) == 120
    kinds = set()
    for step in steps:
        if np.array_equal(step, symplectic._symplectic_form(g)):
            kinds.add("inversion")
        elif np.array_equal(step[:g, :g], np.eye(g)):
            assert step.tobytes() == SymplecticElement.translation(
                step[:g, g:]).matrix.tobytes()
            kinds.add("translation")
        else:
            assert step.tobytes() == SymplecticElement.unimodular(
                step[:g, :g]).matrix.tobytes()
            kinds.add("unimodular")
    assert kinds == {"inversion", "translation", "unimodular"}


def test_drawing_a_word_checks_only_the_product_blocks(monkeypatch):
    # the element built from the product checks its one matrix; no drawn
    # generator block is checked on its own
    calls = []
    check = symplectic._int64_entries

    def counted(M, what):
        calls.append(what)
        return check(M, what)
    monkeypatch.setattr(symplectic, "_int64_entries", counted)
    for seed in range(10):
        calls.clear()
        random_symplectic(3, 12, seed)
        assert calls == ["symplectic matrix"]


def test_word_expansion_validates_only_the_product(monkeypatch):
    checked = []
    check = symplectic._blocks_symplectic

    def counted(M):
        checked.append(M.copy())
        return check(M)
    monkeypatch.setattr(symplectic, "_blocks_symplectic", counted)
    for length in (0, 1, 8):
        checked.clear()
        element = random_symplectic(2, length, seed=length)
        assert len(checked) == 1
        assert checked[0].tobytes() == element.matrix.tobytes()


@pytest.mark.parametrize("tag, param, match", [
    ("T", ((0, 1), (2, 0)), "translation block must be symmetric"),
    ("U", ((2, 0), (0, 1)), "embedding block must be unimodular"),
    ("U", ((1, 2), (2, 4)), "embedding block must be unimodular"),
    # det -2, which a floating-point determinant rounds away
    ("U", ((3, 2 ** 52 + 1), (1, (2 ** 52 + 1) // 3)),
     "embedding block must be unimodular"),
])
def test_bad_generators_are_rejected_in_words_and_alone(tag, param, match):
    # a bad block written into a word, as random_symplectic writes its
    # draws, fails the product's one test; the generator's constructor
    # refuses it alone, with its own message
    block = np.array(param)
    step = np.eye(4, dtype=np.int64)
    if tag == "T":
        step[:2, 2:] = block
    else:
        step[:2, :2] = block
    word = symplectic._int_matmul(symplectic._symplectic_form(2), step)
    with pytest.raises(ValueError, match="symplectic relation"):
        SymplecticElement(word)
    build = (SymplecticElement.translation if tag == "T"
             else SymplecticElement.unimodular)
    with pytest.raises(ValueError, match=match):
        build(block)


def test_the_symplectic_form_is_built_once_and_read_only():
    for g in (1, 2, 5):
        J = symplectic._symplectic_form(g)
        assert J is symplectic._symplectic_form(g)
        assert not J.flags.writeable
        assert J.tobytes() == SymplecticElement.inversion(g).matrix.tobytes()
        # an inversion, built or drawn, does not hand out the shared J
        drawn = next(element for element in (
            random_symplectic(g, 1, seed) for seed in range(100))
            if element == SymplecticElement.inversion(g))
        assert SymplecticElement.inversion(g).matrix is not J
        assert drawn.matrix is not J


def test_inverse_is_exact_group_inverse():
    gamma = random_symplectic(3, 6, seed=9)
    product = gamma @ gamma.inverse()
    assert np.array_equal(product.matrix,
                          SymplecticElement.identity(3).matrix)


def test_json_round_trips():
    point = random_point(2, seed=4)
    again = SiegelPoint.from_json(point.to_json())
    np.testing.assert_array_equal(again.X, point.X)
    np.testing.assert_array_equal(again.Y, point.Y)
    data = json.loads(point.to_json())
    assert set(data) == {"g", "X", "Y"}

    gamma = random_symplectic(2, 5, seed=8)
    again = SymplecticElement.from_json(gamma.to_json())
    assert np.array_equal(again.matrix, gamma.matrix)
    data = json.loads(gamma.to_json())
    assert set(data) == {"g", "A", "B", "C", "D"}
    assert all(isinstance(v, int) for row in data["A"] for v in row)


@pytest.mark.parametrize("key", "ABCD")
def test_element_json_names_a_block_of_another_shape(key):
    # the file keeps one block per key, and each is checked as a g x g
    # matrix before the blocks are assembled into the element's matrix
    for block in ([[1, 0]], [[1]], [1, 0], [[[1, 0]]]):
        fields = {"g": 2, "A": [[1, 0], [0, 1]], "B": [[0, 0], [0, 0]],
                  "C": [[0, 0], [0, 0]], "D": [[1, 0], [0, 1]], key: block}
        with pytest.raises(DimensionError,
                           match=f"^block {key} must be 2x2$"):
            SymplecticElement.from_json(json.dumps(fields))


@pytest.mark.parametrize("cls, blocks", [
    (SiegelPoint, '"X": [[0.0]], "Y": [[1.0]]'),
    (SymplecticElement, '"A": [[1]], "B": [[0]], "C": [[0]], "D": [[1]]'),
])
@pytest.mark.parametrize("text, match", [
    ('"hello"', "expected a JSON object"),
    ("[1, 2]", "expected a JSON object"),
    ('{{"g": null, {blocks}}}', "g must be an integer"),
    ('{{"g": true, {blocks}}}', "g must be an integer"),
    ('{{"g": 1.7, {blocks}}}', "g must be an integer"),
    ('{{"g": 1.0, {blocks}}}', "g must be an integer"),
    ('{{"g": 0, {blocks}}}', "degree must be at least 1, got 0"),
    ('{{{blocks}, "g": 1, "{first}": {{"a": 1}}}}', "not a matrix of numbers"),
])
def test_json_rejects_what_is_not_an_object_of_degree_and_blocks(
        cls, blocks, text, match):
    # the later duplicate key replaces the first block
    text = text.format(blocks=blocks, first=blocks[1])
    with pytest.raises(ValueError, match=match):
        cls.from_json(text)
    assert cls.from_json(f'{{"g": 1, {blocks}}}').g == 1


@pytest.mark.parametrize("cls, keys", [(SiegelPoint, "gXY"),
                                       (SymplecticElement, "gABCD")])
def test_json_names_a_missing_key(cls, keys):
    fields = {"g": 1, "X": [[0.0]], "Y": [[1.0]],
              "A": [[1]], "B": [[0]], "C": [[0]], "D": [[1]]}
    for missing in keys:
        text = json.dumps({key: fields[key] for key in keys
                           if key != missing})
        with pytest.raises(ValueError, match=f"^missing key '{missing}'$"):
            cls.from_json(text)


@pytest.mark.parametrize("text", [
    '{"g": 1, "X": [["0.5"]], "Y": [[1.0]]}',
    '{"g": 1, "X": [[0.5]], "Y": [[true]]}',
    '{"g": 1, "X": [[0.5]], "Y": [[null]]}',
    '{"g": 1, "X": [[0.5]], "Y": [[{"y": 1.0}]]}',
])
def test_point_json_entries_must_be_numbers(text):
    with pytest.raises(ValueError, match="is not a JSON number"):
        SiegelPoint.from_json(text)


@pytest.mark.parametrize("A", ["1.7", "1.0", "true", '"1"', "null"])
def test_element_json_blocks_must_be_integers(A):
    text = f'{{"g": 1, "A": [[{A}]], "B": [[0]], "C": [[0]], "D": [[1]]}}'
    with pytest.raises(ValueError, match="is not a JSON integer"):
        SymplecticElement.from_json(text)


def test_json_integers_are_numbers_for_points():
    point = SiegelPoint.from_json('{"g": 1, "X": [[0]], "Y": [[2]]}')
    assert point.X.dtype == point.Y.dtype == float
    assert (point.X[0, 0], point.Y[0, 0]) == (0.0, 2.0)


def test_degenerate_cocycle_raises():
    # force a huge condition number through the raw matrix path
    gamma = SymplecticElement.inversion(1)
    with pytest.raises(ValueError):
        # not even a valid point: Y fails positive definiteness
        act(gamma, SiegelPoint(1, np.zeros((1, 1)), np.array([[-1.0]])))
    with pytest.raises(DimensionError):
        act(SymplecticElement.identity(2), random_point(3, seed=0))


def test_symplectic_elements_compare_and_hash_by_value():
    a = random_symplectic(2, 4, 7)
    b = random_symplectic(2, 4, 7)
    identity = SymplecticElement.identity(2)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a @ a.inverse() == identity
    assert a != identity
    assert len({a, b, identity}) == 2
    assert SymplecticElement.identity(1) != identity
    assert a != a.matrix.tolist()


def test_points_compare_and_hash_by_identity():
    p = random_point(2, 1)
    q = random_point(2, 1)
    assert p == p and p != q
    assert hash(p) == hash(p)
    assert len({p, q}) == 2


def test_integer_products_never_wrap_around():
    # det = 1 + 2^64, which wraps to 1 in int64
    M = np.array([[1, 2 ** 32], [-2 ** 32, 1]], dtype=np.int64)
    assert not is_symplectic(M)
    with pytest.raises(ValueError):
        SymplecticElement(M)
    # a symplectic element whose check passes 2^63 on the way
    big = SymplecticElement.translation(np.array([[2 ** 40]]))
    assert is_symplectic(big.matrix)
    # the partial-sum bound passes 2^62 but the product fits
    shift = SymplecticElement.translation(np.array([[2 ** 31]]))
    back = SymplecticElement.translation(np.array([[-2 ** 31]]))
    assert shift @ back == SymplecticElement.identity(1)
    # entries of the product reach 2^80
    step = big @ SymplecticElement.inversion(1)
    with pytest.raises(DegeneracyError):
        step @ big
    # the inverse would need +2^63
    lowest = SymplecticElement.translation(np.array([[-2 ** 63]]))
    with pytest.raises(DegeneracyError):
        lowest.inverse()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(g=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       log_lambda_min=st.floats(-11.0, 0.0), log_x=st.floats(-2.0, 8.0),
       word_length=st.integers(0, 60))
def test_boundary_points_and_long_words_are_finite_or_degenerate(
        g, seed, log_lambda_min, log_x, word_length):
    # Y has smallest eigenvalue 10^log_lambda_min, X entries reach 10^log_x
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((g, g)))
    eigs = 10.0 ** rng.uniform(log_lambda_min, 1.0, size=g)
    eigs[0] = 10.0 ** log_lambda_min
    Y = (Q * eigs) @ Q.T
    X = 10.0 ** log_x * rng.uniform(-1.0, 1.0, size=(g, g))
    try:
        point = SiegelPoint(g, (X + X.T) / 2, (Y + Y.T) / 2)
    except ValueError:
        return  # rejected at construction, as documented
    gamma = random_symplectic(g, word_length, rng)
    assert _finite_or_degenerate(lambda: [act(gamma, point).Z])
    assert _finite_or_degenerate(lambda: metric_pair(point))
    assert _finite_or_degenerate(lambda: [pushforward_matrix(gamma, point)])


def _finite_or_degenerate(compute) -> bool:
    try:
        arrays = compute()
    except DegeneracyError:
        return True
    return all(np.isfinite(a).all() for a in arrays)


def test_element_copies_the_callers_blocks():
    M = np.eye(4, dtype=np.int64)
    element = SymplecticElement(M)
    assert element.g == 2
    # the caller's matrix stays writable and is not shared
    assert M.flags.writeable and not np.shares_memory(M, element.matrix)
    M[0, 2] = 1
    M[1, 1] = 5
    assert element.B[0, 0] == 0 and element.A[1, 1] == 1
    assert not element.matrix.flags.writeable
    for block in (element.A, element.B, element.C, element.D):
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1


def _reject_both_ways(A, B, C, D):
    """is_symplectic and the constructor both reject the block matrix."""
    M = np.block([[A, B], [C, D]]).astype(np.int64)
    assert not is_symplectic(M)
    with pytest.raises(ValueError, match="symplectic relation"):
        SymplecticElement(M)


def test_element_blocks_are_views_of_its_one_matrix():
    element = random_symplectic(3, 6, seed=14)
    g = element.g
    for block, (rows, cols) in zip(
            (element.A, element.B, element.C, element.D),
            ((0, 0), (0, g), (g, 0), (g, g))):
        assert np.shares_memory(block, element.matrix)
        assert np.array_equal(block,
                              element.matrix[rows:rows + g, cols:cols + g])


@pytest.mark.parametrize("build", ["constructor", "from_matrix",
                                   "translation", "unimodular"])
def test_float_blocks_are_refused_not_truncated(build):
    # each of these floats truncates to the identity's entries, and a float
    # matrix is refused even when its entries are whole
    calls = {
        "constructor": lambda: SymplecticElement(
            np.array([[1.9, 0.7], [0.0, 1.2]])),
        "from_matrix": lambda: SymplecticElement(np.eye(2)),
        "translation": lambda: SymplecticElement.translation([[0.7]]),
        "unimodular": lambda: SymplecticElement.unimodular([[1.2]]),
    }
    with pytest.raises(ValueError, match="integer matrices only"):
        calls[build]()


@pytest.mark.parametrize("build", ["constructor", "from_matrix",
                                   "translation", "unimodular"])
def test_uint64_entries_beyond_int64_are_refused_not_wrapped(build):
    # 2^64 - 1 wraps to -1 in int64: diag(A, A) would be read as -I, the
    # whole matrix (1, B; 0, 1) and the translation by B as the translation
    # by -1, and the block (1, B; 0, 1) as unimodular
    big = np.array([[2 ** 64 - 1]], dtype=np.uint64)
    zero = np.zeros((1, 1), dtype=np.uint64)
    calls = {
        "constructor": lambda: SymplecticElement(
            np.block([[big, zero], [zero, big]])),
        "from_matrix": lambda: SymplecticElement(
            np.array([[1, 2 ** 64 - 1], [0, 1]], dtype=np.uint64)),
        "translation": lambda: SymplecticElement.translation(big),
        "unimodular": lambda: SymplecticElement.unimodular(
            np.array([[1, 2 ** 64 - 1], [0, 1]], dtype=np.uint64)),
    }
    with pytest.raises(ValueError, match="64-bit integer range"):
        calls[build]()
    # a uint64 entry inside the range is taken as it is
    assert SymplecticElement(np.eye(2, dtype=np.uint64)) == \
        SymplecticElement.identity(1)


@pytest.mark.parametrize("U, D", [
    # det -1, with entries whose floating-point determinant is not +-1
    (((10 ** 8 + 1, 10 ** 8), (10 ** 8, 10 ** 8 - 1)),
     ((-99999999, 10 ** 8), (10 ** 8, -100000001))),
    # det 1, with an entry that a float inverse rounds to 2^53
    (((1, 2 ** 53 + 1), (0, 1)), ((1, 0), (-9007199254740993, 1))),
])
def test_unimodular_blocks_are_tested_and_inverted_exactly(U, D):
    embedding = SymplecticElement.unimodular(np.array(U))
    assert is_symplectic(embedding.matrix)
    assert embedding.D.tolist() == [list(row) for row in D]


@pytest.mark.parametrize("U", [
    ((1, -2 ** 63), (0, 1)),
    ((1, 2 ** 40, 0), (0, 1, 2 ** 40), (0, 0, 1)),
])
def test_a_unimodular_inverse_beyond_int64_is_degenerate(U):
    # U^-1 has the entry 2^63, or 2^80 = 2^40 * 2^40
    with pytest.raises(DegeneracyError, match="64-bit integer range"):
        SymplecticElement.unimodular(np.array(U, dtype=np.int64))


def test_non_symplectic_unimodular_blocks_are_rejected():
    # diag(U, U) with U unimodular: A D^t = U U^t is not I
    U = np.array([[1, 1], [0, 1]], dtype=np.int64)
    O = np.zeros((2, 2), dtype=np.int64)
    _reject_both_ways(U, O, O, U)
    # diag(U, U^-t) is the embedding, which passes both checks
    embedding = SymplecticElement.unimodular(U)
    assert is_symplectic(embedding.matrix)


def test_translation_with_a_non_symmetric_block_is_rejected():
    # A B^t = B^t is not symmetric
    I = np.eye(2, dtype=np.int64)
    O = np.zeros((2, 2), dtype=np.int64)
    _reject_both_ways(I, np.array([[0, 1], [0, 0]]), O, I)


def test_entries_near_2_31_are_checked_in_python_ints():
    # B = C = 2^31 ones(4): B C^t = 2^64 ones(4), which wraps to 0 in
    # int64, so a wrapped check would see A D^t - B C^t = I
    g = 4
    I = np.eye(g, dtype=np.int64)
    big = np.full((g, g), 2 ** 31, dtype=np.int64)
    assert np.array_equal(I - big @ big.T, I)  # what int64 would see
    _reject_both_ways(I, big, big, I)
    # the same in narrower and unsigned integer types: 2^15 ones(4) wraps
    # the products of int32, and uint64 does not fit int64 arithmetic
    small = np.full((g, g), 2 ** 15, dtype=np.int32)
    M32 = np.block([[I.astype(np.int32), small], [small, I.astype(np.int32)]])
    assert not is_symplectic(M32)
    assert not is_symplectic(np.block([[I, big], [big, I]]).astype(np.uint64))
    assert is_symplectic(SymplecticElement.translation(small).matrix
                         .astype(np.int32))
    # a symplectic element with entries near 2^31 is accepted
    near = SymplecticElement.translation(big - 1)
    assert is_symplectic(near.matrix)
    assert near @ near.inverse() == SymplecticElement.identity(g)


def test_inverse_is_built_once():
    gamma = random_symplectic(3, 6, seed=12)
    assert gamma.inverse() is gamma.inverse()
