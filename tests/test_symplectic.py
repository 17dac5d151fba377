import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegel.metric import metric_pair
from siegel.symplectic import (DegeneracyError, DimensionError, GeneratorWord,
                               SiegelPoint, SymplecticElement, act, cocycle,
                               im_of_action, is_symplectic, random_point,
                               random_symplectic, symplectic_j,
                               tangent_pushforward, pushforward_matrix)


def test_is_symplectic_identity_and_j():
    for g in (1, 2, 3):
        assert is_symplectic(np.eye(2 * g, dtype=np.int64))
        assert is_symplectic(symplectic_j(g))


def test_is_symplectic_rejects_scaling():
    M = np.diag([2, 1, 1, 1]).astype(np.int64)
    assert not is_symplectic(M)


def test_is_symplectic_dimension_errors():
    with pytest.raises(DimensionError):
        is_symplectic(np.eye(3))
    with pytest.raises(DimensionError):
        is_symplectic(np.ones((2, 4)))


def test_point_construction_symmetrizes_and_rejects():
    X = np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]])
    point = SiegelPoint(2, X, np.eye(2))
    assert np.array_equal(point.X, point.X.T)
    with pytest.raises(ValueError, match="not symmetric"):
        SiegelPoint(2, np.array([[0.0, 1.0], [2.0, 0.0]]), np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        SiegelPoint(2, np.zeros((2, 2)), np.diag([1.0, -1.0]))


@pytest.mark.parametrize("part", ["X", "Y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_rejects_non_finite_entries(part, bad):
    blocks = {"X": np.zeros((2, 2)), "Y": np.eye(2)}
    blocks[part][1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        SiegelPoint(2, blocks["X"], blocks["Y"])


@pytest.mark.parametrize("defect, match", [
    ("asymmetric", "not symmetric"),
    ("indefinite", "not positive definite"),
    ("singular", "leading minor 2"),
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
    gamma = SymplecticElement(1, *(np.array([[v]]) for v in (1, 1, 1, 2)))
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


def test_im_of_action_matches_action():
    B = np.array([[1, 0], [0, 2]])
    point = random_point(2, seed=2)
    assert np.abs(im_of_action(SymplecticElement.translation(B), point)
                  - point.Y).max() < 1e-14
    # degree one inversion: Im(-1/(iy)) = 1/y
    y = 1.7
    got = im_of_action(SymplecticElement.inversion(1),
                       SiegelPoint.from_complex(1j * y))
    assert abs(got[0, 0] - 1 / y) < 1e-14

    rng = np.random.default_rng(3)
    for _ in range(5):
        gamma = random_symplectic(3, 5, rng)
        point = random_point(3, rng)
        expected = act(gamma, point).Y
        got = im_of_action(gamma, point)
        assert np.abs(got - expected).max() < 1e-10
        assert np.linalg.eigvalsh(got).min() > 0


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
    from siegel.indexing import basis_matrix, omega_list, sym_to_coords
    rng = np.random.default_rng(11)
    gamma = random_symplectic(2, 5, rng)
    point = random_point(2, rng)
    S = pushforward_matrix(gamma, point)
    for pos, pair in enumerate(omega_list(2)):
        direct = tangent_pushforward(gamma, point,
                                     basis_matrix(pair, 2, dtype=complex))
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


def test_generator_word_expansion_is_symplectic():
    word = GeneratorWord(2, (("J", None), ("T", ((1, 2), (2, 0)))))
    assert is_symplectic(word.expand().matrix)
    with pytest.raises(ValueError, match="unknown generator"):
        GeneratorWord(2, (("X", None),)).expand()


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
        SymplecticElement.from_matrix(M)
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
    assert _finite_or_degenerate(lambda: _metric_arrays(point))
    assert _finite_or_degenerate(lambda: [pushforward_matrix(gamma, point)])


def _finite_or_degenerate(compute) -> bool:
    try:
        arrays = compute()
    except DegeneracyError:
        return True
    return all(np.isfinite(a).all() for a in arrays)


def _metric_arrays(point):
    pair = metric_pair(point)
    return pair.W, pair.M, pair.R
