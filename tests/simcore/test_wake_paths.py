"""Process bookkeeping after every way a process parks and wakes.

The engine writes a process's ``state``, ``waiting_on`` and
``blocked_on`` where it parks and where it is woken, not on every
resume, and sets ``started_at`` at spawn.  Each test pauses the run with
``run(until=...)`` on either side of one wake path and checks the fields
together with :attr:`Engine.blocked_processes` and
:meth:`Engine.pending_events`.  The input checks at the engine's
boundaries (``spawn`` delays, ``run`` horizons) sit at the end.
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.simcore import (
    Acquire,
    Cancelled,
    Delay,
    Engine,
    Fire,
    Join,
    ProcessState,
    Release,
    Resource,
    Signal,
    Spawn,
    WaitUntil,
)

RUNNING = ProcessState.RUNNING
BLOCKED = ProcessState.BLOCKED


def fields(process):
    return (process.state, process.waiting_on, process.blocked_on)


def running(process):
    assert fields(process) == (RUNNING, None, None)


def test_signal_fire_wakes_a_parked_waiter():
    eng = Engine()
    sig = Signal("flag")
    box = {"set": False}

    def waiter():
        yield WaitUntil(sig, lambda: box["set"], "flag set")
        yield Delay(10)

    def setter():
        yield Delay(5)
        box["set"] = True
        yield Fire(sig)

    w = eng.spawn(waiter(), "waiter")
    eng.spawn(setter(), "setter")
    assert eng.run(until=3) == 3
    assert fields(w) == (BLOCKED, "flag set (signal 'flag')", sig)
    assert eng.blocked_processes == [("waiter", "flag set (signal 'flag')")]
    assert eng.pending_events() == 1  # the setter's delay
    eng.run(until=7)
    running(w)
    assert w.started_at == 0
    assert eng.blocked_processes == []
    assert eng.pending_events() == 1  # the waiter's delay to t=15
    assert sig.waiter_count == 0


def test_release_grants_the_unit_to_the_queued_process():
    eng = Engine()
    res = Resource("unit")

    def holder():
        yield Acquire(res)
        yield Delay(10)
        yield Release(res)

    def queued():
        yield Delay(1)
        yield Acquire(res, "want unit")
        yield Delay(10)
        yield Release(res)

    h = eng.spawn(holder(), "holder")
    q = eng.spawn(queued(), "queued")
    eng.run(until=5)
    assert fields(q) == (BLOCKED, "want unit (resource 'unit')", res)
    assert eng.blocked_processes == [("queued", "want unit (resource 'unit')")]
    assert eng.pending_events() == 1  # the holder's delay
    eng.run(until=12)
    running(q)
    assert q.holding == [res] and h.holding == []
    assert not h.alive
    assert eng.blocked_processes == []
    assert eng.pending_events() == 1  # the queued process's delay to t=20


def test_cancel_grants_the_held_unit_to_the_queued_process():
    eng = Engine()
    res = Resource("unit")

    def holder():
        yield Acquire(res)
        yield Delay(100)

    def queued():
        queued_ns = yield Acquire(res, "want unit")
        yield Delay(10)
        return queued_ns

    h = eng.spawn(holder(), "holder")
    q = eng.spawn(queued(), "queued")
    eng.run(until=5)
    assert fields(q) == (BLOCKED, "want unit (resource 'unit')", res)
    assert eng.cancel(h, "killed")
    running(q)
    assert q.holding == [res]
    assert h.state == ProcessState.CANCELLED and h.started_at == 0
    assert eng.blocked_processes == []
    assert eng.pending_events() == 1  # q's grant; h's delay is tombstoned
    eng.run()
    assert q.result == 5


def test_finish_wakes_a_joiner():
    eng = Engine()

    def child():
        yield Delay(10)
        return "x"

    def parent():
        c = yield Spawn(child(), "child")
        got = yield Join(c, "wait child")
        yield Delay(5)
        return got

    p = eng.spawn(parent(), "parent")
    eng.run(until=5)
    (c,) = [q for q in eng.live_processes if q.name == "child"]
    assert fields(p) == (BLOCKED, "wait child (process 'child')", c)
    assert eng.blocked_processes == [("parent", "wait child (process 'child')")]
    assert eng.pending_events() == 1  # the child's delay
    eng.run(until=12)
    running(p)
    assert c.state == ProcessState.DONE and c.joiners == []
    assert eng.blocked_processes == []
    assert eng.pending_events() == 1
    eng.run()
    assert p.result == "x"


def test_cancel_wakes_a_joiner_with_the_sentinel():
    eng = Engine()

    def child():
        yield Delay(100)

    def parent(c):
        got = yield Join(c)
        return got

    c = eng.spawn(child(), "child")
    p = eng.spawn(parent(c), "parent")
    eng.run(until=5)
    assert fields(p) == (BLOCKED, "join (process 'child')", c)
    eng.cancel(c, "operator")
    running(p)
    assert eng.blocked_processes == []
    assert eng.pending_events() == 1  # p's wakeup; c's delay is tombstoned
    eng.run()
    assert isinstance(p.result, Cancelled) and p.result.reason == "operator"


def test_wait_until_true_at_once_never_parks():
    eng = Engine()
    sig = Signal("s")

    def proc():
        polls = yield WaitUntil(sig, lambda: True, "already")
        yield Delay(10)
        return polls

    p = eng.spawn(proc(), "proc")
    eng.run(until=5)
    running(p)
    assert sig.waiter_count == 0
    assert eng.blocked_processes == []
    assert eng.pending_events() == 1
    eng.run()
    assert p.result == 0


def test_spawn_with_delay_starts_later():
    eng = Engine()
    ran = []

    def proc():
        ran.append(eng.now)
        yield Delay(1)

    p = eng.spawn(proc(), "late", delay=10)
    eng.run(until=5)
    assert ran == []
    running(p)
    assert p.started_at == 10
    assert eng.pending_events() == 1
    eng.run()
    assert ran == [10] and p.started_at == 10


def test_cancel_before_the_start_time_leaves_started_at_unset():
    eng = Engine()

    def proc():
        yield Delay(1)

    p = eng.spawn(proc(), "late", delay=10)
    eng.run(until=5)
    eng.cancel(p)
    assert p.started_at is None
    assert eng.pending_events() == 0


def test_pending_events_ignores_a_paused_process():
    eng = Engine()

    def sleeper():
        yield Delay(50)

    a = eng.spawn(sleeper(), "a")
    b = eng.spawn(sleeper(), "b")
    eng.run(until=10)
    assert eng.pending_events() == 2
    assert eng.pending_events(ignore=(a,)) == 1
    assert eng.pending_events(ignore=(a, b)) == 0


# -- Delay ticks -----------------------------------------------------------


@pytest.mark.parametrize("ns, tick", [(2.5, 2), (3.5, 4), (1.6, 2), (7, 7)])
def test_delay_ticks_round_half_to_even(ns, tick):
    assert Delay(ns).tick == tick == int(round(ns))
    eng = Engine()

    def proc():
        yield Delay(ns)

    eng.spawn(proc())
    assert eng.run() == tick


def test_delay_rejects_attribute_assignment():
    d = Delay(5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.ns = 10  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.tick = 10  # type: ignore[misc]
    assert (d.ns, d.tick) == (5, 5)


# -- input boundaries --------------------------------------------------------


def test_run_until_before_now_is_refused():
    eng = Engine()

    def proc():
        yield Delay(15)
        yield Delay(100)

    eng.spawn(proc())
    assert eng.run(until=15) == 15
    with pytest.raises(ConfigError, match="before now"):
        eng.run(until=5)
    assert eng.now == 15
    assert eng.pending_events() == 1
    assert eng.run() == 115


def test_run_until_now_is_a_no_op_pause():
    eng = Engine()

    def proc():
        yield Delay(10)

    eng.spawn(proc())
    assert eng.run(until=0) == 0
    assert eng.pending_events() == 1


@pytest.mark.parametrize(
    "delay", [-5, -1, float("nan"), "3", 2.0, True, False, None]
)
def test_spawn_refuses_a_delay_that_is_not_a_non_negative_int(delay):
    eng = Engine()

    def proc():
        yield Delay(1)

    with pytest.raises(ConfigError, match="spawn delay"):
        eng.spawn(proc(), delay=delay)
    assert eng.live_processes == []
    assert eng.run() == 0
