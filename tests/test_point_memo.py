"""The memo on each SiegelPoint: what is derived from a point is computed
once per point object, shared by every caller, and read-only."""

from functools import cached_property

import numpy as np
import pytest

import siegel.metric as metric
import siegel.symplectic as symplectic
from siegel.connection import equivariance_residual, gamma_closed, \
    gamma_from_metric
from siegel.forms import FormPolynomial
from siegel.functions import random_test_function
from siegel.operators import ModularExtension, im_inverse
from siegel.symplectic import (DegeneracyError, SiegelPoint,
                               SymplecticElement, act, cocycle,
                               pushforward_matrix,
                               pushforward_matrix_derivative,
                               random_point, random_symplectic)


def _count(monkeypatch, module, name):
    """Points at which module.name, a builder behind the memo, runs."""
    calls = []
    build = getattr(module, name)

    def counted(*args):
        calls.append(args[-1])
        return build(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_metric_pair_is_computed_once_per_point(monkeypatch):
    calls = _count(monkeypatch, metric, "_metric_pair")
    point, other = random_point(3, seed=4), random_point(3, seed=5)
    first = metric.metric_pair(point)
    field = im_inverse(point)
    closed = gamma_closed(point)
    for path in ("A", "B", "B-expanded"):
        gamma_from_metric(point, path)
    assert calls == [point]
    metric.metric_pair(other)
    assert calls == [point, other]
    assert metric.metric_pair(point) is first
    assert first._fields == ("W", "M", "R")
    assert np.array_equal(field, 1j * first.R)
    assert np.array_equal(closed, gamma_closed(point))


def test_two_function_monomials_share_one_action_and_cocycle(monkeypatch):
    acts = _count(monkeypatch, symplectic, "_act")
    cocycles = _count(monkeypatch, symplectic, "_pushforward_matrix")
    g = 2
    rng = np.random.default_rng(12)
    gamma = random_symplectic(g, 5, rng)
    here, there = random_point(g, rng), random_point(g, rng)
    form = FormPolynomial(g, {(0,): random_test_function(g, rng),
                              (1, 2): random_test_function(g, rng)})
    built = []
    for point in (here, there):
        built.append(point)
        equivariance_residual(gamma, point, form)
        assert acts == cocycles == built


def test_derived_arrays_are_read_only():
    g = 2
    gamma = random_symplectic(g, 4, seed=3)
    point = random_point(g, seed=3)
    f = random_test_function(g, seed=3)
    stack = SiegelPoint(g, np.stack([point.X, point.X]),
                        np.stack([point.Y, point.Y]))
    arrays = [point.Z, metric.metric_pair(point).R,
              metric.metric_pair(point).W, metric.metric_pair(point).M,
              cocycle(gamma, point), pushforward_matrix(gamma, point),
              act(gamma, point).Z,
              f.value(stack), f.gradient(point)]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0


def test_a_failed_action_is_not_kept(monkeypatch):
    calls = _count(monkeypatch, symplectic, "_act")
    # C Z + D = -Z with cond(Z) about 2e12, above the limit of 1e12
    point = SiegelPoint(2, 1e12 * np.ones((2, 2)), np.eye(2))
    gamma = SymplecticElement.inversion(2)
    for _ in range(2):
        with pytest.raises(DegeneracyError):
            act(gamma, point)
    assert calls == [point, point]


def test_equal_elements_share_one_entry():
    g = 3
    gamma = random_symplectic(g, 6, seed=8)
    twin = SymplecticElement(gamma.matrix.copy())
    assert twin is not gamma and twin == gamma
    point = random_point(g, seed=8)
    assert act(twin, point) is act(gamma, point)
    assert pushforward_matrix(twin, point) is pushforward_matrix(gamma, point)
    assert cocycle(twin, point) is cocycle(gamma, point)
    # and a fresh point, which shares nothing, gets the same bits
    fresh = SiegelPoint(g, point.X, point.Y)
    assert act(twin, fresh).Z.tobytes() == act(gamma, point).Z.tobytes()
    assert (pushforward_matrix(twin, fresh).tobytes()
            == pushforward_matrix(gamma, point).tobytes())


def _count_linalg(monkeypatch, name):
    """The arrays that np.linalg.name runs on, in call order."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(a)
        return original(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_cocycle_is_tested_and_inverted_once_per_element_and_point(
        monkeypatch):
    g = 3
    rng = np.random.default_rng(21)
    gamma = random_symplectic(g, 6, rng)
    here, there = random_point(g, rng), random_point(g, rng)
    tested = _count(monkeypatch, symplectic, "_cocycle_condition")
    inverted = _count(monkeypatch, symplectic, "_cocycle_inverse")
    conds = _count_linalg(monkeypatch, "cond")
    invs = _count_linalg(monkeypatch, "inv")
    for point in (here, there):
        for _ in range(2):
            act(gamma, point)
            pushforward_matrix(gamma, point)
            pushforward_matrix_derivative(gamma, point, np.eye(g))
    assert tested == [here, there] and inverted == [here, there]
    assert len(conds) == len(invs) == 2
    for calls in (conds, invs):
        assert calls[0] is cocycle(gamma, here)
        assert calls[1] is cocycle(gamma, there)
    # in the other order the same single test and inverse serve act
    fresh = SiegelPoint(g, here.X, here.Y)
    pushforward_matrix_derivative(gamma, fresh, np.eye(g))
    act(gamma, fresh)
    pushforward_matrix(gamma, fresh)
    assert tested[2:] == inverted[2:] == [fresh]
    assert len(conds) == len(invs) == 3


def test_kept_inverse_is_the_one_pushforward_uses():
    g = 2
    gamma = random_symplectic(g, 5, seed=6)
    point = random_point(g, seed=6)
    S = pushforward_matrix(gamma, point)
    Q = point.derived(symplectic._cocycle_inverse, gamma)
    assert Q is point.derived(symplectic._cocycle_inverse, gamma)
    assert Q.tobytes() == np.linalg.inv(cocycle(gamma, point)).tobytes()
    ii, jj = np.triu_indices(g)
    assert S.tobytes() == symplectic._symmetrized_rows(
        Q[ii, :, None] * Q[jj, None, :]).tobytes()


def test_y_is_factored_once_per_point(monkeypatch):
    # validation factors nothing; the first metric_pair call factors Y,
    # once per point or stack, and the later readers share its pair
    factors = _count_linalg(monkeypatch, "cholesky")
    rng = np.random.default_rng(9)
    for g in (1, 3):
        point = random_point(g, rng)
        stack = SiegelPoint(g, np.stack([point.X, point.X]),
                            np.stack([point.Y, 2.0 * point.Y]))
        assert factors == []
        for p in (point, stack):
            metric.metric_pair(p)
            im_inverse(p)
        gamma_closed(point)
        assert len(factors) == 2
        assert all(a is b for a, b in zip(factors, [point.Y, stack.Y]))
        factors.clear()


def test_kept_factor_and_inverse_are_read_only():
    g = 2
    gamma = random_symplectic(g, 5, seed=2)
    point = random_point(g, seed=2)
    stack = SiegelPoint(g, np.stack([point.X, point.X]),
                        np.stack([point.Y, point.Y]))
    pushforward_matrix(gamma, point)
    act(gamma, stack)
    # R = Y^-1, which metric_pair builds from the factor of Y and keeps
    arrays = [point.spectrum, stack.spectrum, metric.metric_pair(point).R,
              metric.metric_pair(stack).R,
              point.derived(symplectic._cocycle_inverse, gamma),
              symplectic.cocycle_condition(gamma, stack)]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0


def test_a_failed_condition_test_is_not_kept(monkeypatch):
    tested = _count(monkeypatch, symplectic, "_cocycle_condition")
    inverted = _count(monkeypatch, symplectic, "_cocycle_inverse")
    # C Z + D = -Z with cond(Z) about 2e12, above the limit of 1e12
    point = SiegelPoint(2, 1e12 * np.ones((2, 2)), np.eye(2))
    gamma = SymplecticElement.inversion(2)
    for call in (act, pushforward_matrix, act,
                 lambda gamma, point: pushforward_matrix_derivative(
                     gamma, point, np.eye(2))):
        with pytest.raises(DegeneracyError):
            call(gamma, point)
    assert tested == [point] * 4
    assert inverted == [point] * 2


def test_y_spectrum_is_computed_once_per_point_at_construction(
        monkeypatch):
    # gradient_fd clips its step at 0.04 lambda_min(Y) and fd_gradient
    # clips each step at 0.05 lambda_min(Y); both read the spectrum that
    # validation kept, so the only spectra computed are those of the
    # stencil stacks gradient_fd builds
    eigs = _count_linalg(monkeypatch, "eigvalsh")
    rng = np.random.default_rng(17)
    for g in (1, 2, 3):
        ext = ModularExtension(random_test_function(g, rng), 4,
                               random_symplectic(g, 4, rng))
        point = random_point(g, rng)
        assert len(eigs) == 1 and eigs[0] is point.Y
        assert point.spectrum.tobytes() == \
            np.linalg.eigvalsh(point.Y).tobytes()
        eigs.clear()
        for _ in range(2):
            ext.gradient_fd(point)
        assert eigs and all(Y is not point.Y and Y.ndim > 2 for Y in eigs)
        eigs.clear()


def test_metric_pair_computes_no_condition_number(monkeypatch):
    # validation held cond(Y) to COND_LIMIT; the metric relies on it
    conds = _count_linalg(monkeypatch, "cond")
    rng = np.random.default_rng(19)
    for g in (1, 2, 3, 4):
        points = [random_point(g, rng) for _ in range(3)]
        stack = SiegelPoint(g, np.stack([p.X for p in points]),
                            np.stack([p.Y for p in points]))
        for point in points + [stack]:
            metric.metric_pair(point)
    assert conds == []


def test_a_point_builds_z_and_its_memo_in_the_constructor():
    point = random_point(2, seed=7)
    assert {"Z", "_memo"} <= vars(point).keys()
    assert not point.Z.flags.writeable and point._memo == {}
    assert not any(isinstance(attr, cached_property)
                   for attr in vars(SiegelPoint).values())
    gamma = random_symplectic(2, 3, seed=7)
    assert vars(gamma)["_hash"] == hash(gamma)
