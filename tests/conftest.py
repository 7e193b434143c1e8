"""Fixtures shared by the test modules."""

import pytest

from oment import default_params


@pytest.fixture(scope="session")
def params():
    """The default parameter set; frozen, so one instance serves every test."""
    return default_params()
