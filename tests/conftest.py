import pytest

from siegel.verify import run_suite


@pytest.fixture(scope="session")
def full_job_report():
    """run_suite("all", (1, 5)) at the seed of test_acceptance.py, run once
    per session: acceptance criterion 12 compares it with a run of its own,
    and test_verify.py counts its records."""
    return run_suite("all", (1, 5), seed=20240601)
