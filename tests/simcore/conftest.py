"""Shared fixtures for the event-core tests."""

import pytest

from repro.simcore import Engine, use_engine_mode


@pytest.fixture(params=["reference", "fast"])
def any_engine(request):
    """A fresh engine under each accepted event-core name.

    Both names select the one :class:`Engine`; the test runs once per
    name so a script pinned to either name keeps the same behaviour.
    """
    with use_engine_mode(request.param):
        yield Engine()
