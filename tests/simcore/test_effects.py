"""Unit tests for the effect dataclasses themselves."""

import pytest

from repro.simcore import Delay, Signal, WaitUntil
from repro.simcore.effects import Acquire, Fire, Join, Release, Spawn
from repro.simcore.resource import Resource


def test_delay_is_frozen_and_validated():
    d = Delay(5)
    with pytest.raises(Exception):
        d.ns = 10  # type: ignore[misc]
    with pytest.raises(ValueError):
        Delay(-0.5)
    assert Delay(0).ns == 0


def test_wait_until_carries_reason():
    sig = Signal("s")
    w = WaitUntil(sig, lambda: True, "my reason")
    assert w.reason == "my reason"
    assert w.signal is sig


def test_acquire_release_reference_resource():
    res = Resource("r")
    assert Acquire(res).resource is res
    assert Release(res).resource is res
    assert Acquire(res).reason == "acquire"


def test_spawn_default_name():
    gen = iter(())
    s = Spawn(gen)  # type: ignore[arg-type]
    assert s.name == "proc"
    assert s.generator is gen


def test_fire_payload_defaults_none():
    sig = Signal("s")
    f = Fire(sig)
    assert f.payload is None


def test_join_reason_default():
    class FakeProcess:
        pass

    j = Join(FakeProcess())  # type: ignore[arg-type]
    assert j.reason == "join"


@pytest.mark.parametrize("ns", [float("nan"), float("inf"), float("-inf")])
def test_delay_rejects_non_finite(ns):
    with pytest.raises(ValueError, match="finite"):
        Delay(ns)
