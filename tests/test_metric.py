import warnings

import numpy as np
import pytest

import siegel.cli as cli
import siegel.connection as connection
import siegel.forms as forms
import siegel.indexing as indexing
import siegel.metric as metric
import siegel.symplectic as symplectic
from siegel.functions import fd_gradient
from siegel.indexing import (omega_list, position, position_table,
                             sym_to_coords)
from siegel.metric import dM_tensor, metric_form, metric_pair
from siegel.symplectic import (DegeneracyError, DimensionError, SiegelPoint,
                               act, random_point, random_symplectic,
                               tangent_pushforward)


def test_enumerate_omega_order_and_rank():
    assert omega_list(1) == [(1, 1)]
    assert omega_list(3) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3),
                             (3, 3)]
    assert position((2, 3), 3) == position_table(3)[2, 1] == 4
    assert position((2, 2), 3) == position_table(3)[1, 1] == 3
    for g in range(1, 6):
        pairs = omega_list(g)
        assert len(pairs) == g * (g + 1) // 2
        for pos, pair in enumerate(pairs):
            assert position(pair, g) == pos
    with pytest.raises(ValueError):
        omega_list(0)


def test_gram_matrix_degree_one():
    y = 1.3
    W = metric_pair(SiegelPoint(1, [[0.2]], [[y]])).W
    assert abs(W[0, 0] - 1 / (2 * y * y)) < 1e-14


def test_gram_matrix_degree_two_identity():
    point = SiegelPoint(2, np.zeros((2, 2)), np.eye(2))
    np.testing.assert_allclose(metric_pair(point).W, np.diag([0.5, 1.0, 0.5]),
                               atol=1e-15)
    np.testing.assert_allclose(metric_pair(point).M, np.diag([2.0, 1.0, 2.0]),
                               atol=1e-15)


def test_inverse_pair_degree_one():
    y = 0.8
    M = metric_pair(SiegelPoint(1, [[0.0]], [[y]])).M
    assert abs(M[0, 0] - 2 * y * y) < 1e-14


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_inverse_pair_random(g):
    rng = np.random.default_rng(40 + g)
    m = len(omega_list(g))
    for _ in range(100):
        pair = metric_pair(random_point(g, rng))
        assert np.abs(pair.M @ pair.W - np.eye(m)).max() < 1e-9
        assert np.array_equal(pair.W, pair.W.T)
        assert np.array_equal(pair.M, pair.M.T)


def test_gram_positive_definite():
    rng = np.random.default_rng(77)
    for g in (1, 2, 3, 4, 5):
        for _ in range(10):
            assert np.linalg.eigvalsh(
                metric_pair(random_point(g, rng)).W).min() > 0


def test_recombination_against_trace_form():
    # the block metric [[0, W], [W, 0]] doubles each unordered pair
    rng = np.random.default_rng(13)
    for g in (1, 2, 3):
        for _ in range(5):
            point = random_point(g, rng)
            pair = metric_pair(point)
            V1 = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
            V1 = (V1 + V1.T) / 2
            V2 = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
            V2 = (V2 + V2.T) / 2
            total = 2.0 * (sym_to_coords(V1) @ pair.W
                           @ np.conj(sym_to_coords(V2)))
            assert abs(total - metric_form(point, V1, V2)) < 1e-10


@pytest.mark.parametrize("V, error", [
    # died in numpy's matmul with a raw ValueError
    (np.eye(3), DimensionError),
    # returned a number for a tangent that is not symmetric
    ([[0.0, 1.0], [0.0, 0.0]], ValueError),
    # returned nan+0j
    ([[np.nan, 0.0], [0.0, 1.0]], ValueError),
])
def test_metric_form_refuses_what_is_not_a_tangent(V, error):
    point = random_point(2, 3)
    good = np.eye(2)
    with pytest.raises(error):
        metric_form(point, V, good)
    with pytest.raises(error):
        metric_form(point, good, V)


def test_pairing_invariance_under_action():
    rng = np.random.default_rng(29)
    for g in (1, 2, 3):
        for _ in range(10):
            point = random_point(g, rng)
            gamma = random_symplectic(g, int(rng.integers(0, 6)), rng)
            V1 = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
            V1 = (V1 + V1.T) / 2
            V2 = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
            V2 = (V2 + V2.T) / 2
            before = metric_form(point, V1, V2)
            after = metric_form(act(gamma, point),
                                tangent_pushforward(gamma, point, V1),
                                tangent_pushforward(gamma, point, V2))
            assert abs(after - before) < 1e-9 * max(1.0, abs(before) * 100)


def test_inverse_entry_derivative_degree_one():
    # d(2y^2)/dz via dY/dz = -i/2 gives -2iy
    y = 1.25
    point = SiegelPoint(1, [[0.3]], [[y]])
    got = dM_tensor(point.Y)[0, 0, 0]
    assert abs(got - (-2j * y)) < 1e-14


def test_inverse_entry_derivative_disjoint_indices():
    # M_(1,1),(2,2) = 2 Y_12^2 does not move with Z_34
    g = 4
    point = random_point(g, seed=3)
    K, L, J = (position(pair, g) for pair in ((1, 1), (2, 2), (3, 4)))
    assert dM_tensor(point.Y)[K, L, J] == 0


@pytest.mark.parametrize("g", [1, 2, 3])
def test_inverse_entry_derivative_finite_differences(g):
    rng = np.random.default_rng(60 + g)
    point = random_point(g, rng)
    pairs = omega_list(g)
    dM = dM_tensor(point.Y)
    worst = 0.0
    for k, K in enumerate(pairs):
        for l, L in enumerate(pairs):
            def entry(pt, K=K, L=L):
                p, q = K
                a, b = L
                Y = pt.Y
                return (Y[..., p - 1, a - 1] * Y[..., q - 1, b - 1]
                        + Y[..., q - 1, a - 1] * Y[..., p - 1, b - 1])
            grad = fd_gradient(entry, point)
            worst = max(worst, np.abs(grad - dM[k, l]).max())
    assert worst < 1e-7


def test_degenerate_metric_rejected():
    with pytest.raises(ValueError):
        metric_pair(SiegelPoint(2, np.zeros((2, 2)),
                                np.diag([1.0, 1e-14]))).W


@pytest.mark.parametrize("Y", [
    [[1e308]],                  # Y (x) Y overflows, Y^-1 (x) Y^-1 is 0
    [[1e-320]],                 # Y^-1 overflows
    [[1e200, 0.0], [0.0, 3e200]],
])
def test_metric_beyond_the_float_range_is_a_degeneracy(Y):
    g = len(Y)
    point = SiegelPoint(g, np.zeros((g, g)), np.array(Y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError, match="float range"):
            metric_pair(point)


def test_metric_near_the_float_range_is_kept():
    # W = 1 / (2 y^2) = 5e-301 and M = 2 y^2 = 2e300 are representable
    y = 1e150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = metric_pair(SiegelPoint(1, [[0.0]], [[y]]))
    assert abs(pair.W[0, 0] / (1 / (2 * y * y)) - 1) < 1e-14
    assert abs(pair.M[0, 0] / (2 * y * y) - 1) < 1e-14


# every builder behind the one built-once rule, indexing._per_degree
_PER_DEGREE = (indexing.row_col_indices, indexing.position_table,
               indexing.basis_stack, symplectic._symplectic_form,
               metric._power_table, metric._pair_gram_plan,
               metric._two_identity, connection._closed_pattern,
               forms.probe_vectors, cli._field_texts)


@pytest.mark.parametrize("g", [1, 3, 5])
def test_per_degree_plans_are_built_once_and_read_only(g):
    for build in _PER_DEGREE:
        plan = build(g)
        assert plan is build(g)
        for array in plan if isinstance(plan, tuple) else (plan,):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0
