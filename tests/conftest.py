import numpy as np
import pytest

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


@pytest.fixture
def bracket_law_without_curvature():
    """The bracket law's residual without its curvature term, which
    bracket1_transform_residual always subtracts."""
    return _bracket_law_without_curvature
