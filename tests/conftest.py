import numpy as np
import pytest

from siegel.forms import FormPolynomial, det_dz
from siegel.operators import (ModularExtension, bracket_matrix,
                              relative_residual)
from siegel.symplectic import act, cocycle
from siegel.verify import run_suite


@pytest.fixture(scope="session")
def full_job_report():
    """run_suite("all", (1, 5)) at the seed of test_acceptance.py, run once
    per session: acceptance criterion 12 compares it with a run of its own,
    and test_verify.py counts its records."""
    return run_suite("all", (1, 5), seed=20240601)


def _bracket_law_without_curvature(f, h, r, s, gamma, point) -> float:
    """The residual of [F, H](gamma Z) against det(CZ+D)^{2r+2s} j [f, h] j^t
    alone, for the plain bracket of the extensions F, H of f, h of weights
    2r and 2s: the law without its curvature term 2(r - s) f h C j^t, so
    nonzero for r != s where C and f h are."""
    F = ModularExtension(f, 2 * r, gamma)
    H = ModularExtension(h, 2 * s, gamma)
    j = cocycle(gamma, point)
    factor = complex(np.linalg.det(j)) ** (2 * r + 2 * s)
    there = bracket_matrix(F, H, act(gamma, point))
    main = factor * (j @ bracket_matrix(f, h, point) @ j.T)
    return relative_residual(there - main, there, main)


def _f_det_power(f, k: int, g: int) -> FormPolynomial:
    """f det(dZ)^k multiplied out: the scalar 1 times det(dZ), k times, by
    FormPolynomial.__mul__, then each coefficient c scaled to c * f, for f
    a number, a jet or a point function."""
    power = FormPolynomial(g, {(): 1.0 + 0j})
    for _ in range(k):
        power = power * det_dz(g)
    return power.map_coefficients(lambda c: c * f)


@pytest.fixture
def f_det_power():
    """f det(dZ)^k multiplied out, the reference for D of a determinant
    power, which the library evaluates by the derivation rule instead."""
    return _f_det_power


@pytest.fixture
def bracket_law_without_curvature():
    """The bracket law's residual without its curvature term, which
    bracket1_transform_residual always subtracts."""
    return _bracket_law_without_curvature
