"""Shared fixtures for the event-core tests."""

import pytest

from repro.simcore import make_engine


@pytest.fixture(params=["reference", "fast"])
def any_engine(request):
    """A fresh engine of each mode: the test runs once per event core."""
    return make_engine(request.param)
