"""Tests for process cancellation in the engine."""

from repro.simcore import (
    Acquire,
    Cancelled,
    Delay,
    Engine,
    Join,
    ProcessState,
    Release,
    Resource,
    Signal,
    Spawn,
    WaitUntil,
)


def test_cancel_scheduled_process_never_runs_again():
    eng = Engine()
    ticks = []

    def ticker():
        while True:
            yield Delay(10)
            ticks.append(eng.now)

    p = eng.spawn(ticker())

    def killer():
        yield Delay(25)
        eng.cancel(p, "enough")

    eng.spawn(killer())
    eng.run()
    assert ticks == [10, 20]
    assert p.state == ProcessState.CANCELLED
    assert not p.alive


def test_cancel_returns_false_for_finished_process():
    eng = Engine()

    def quick():
        yield Delay(1)

    p = eng.spawn(quick())
    eng.run()
    assert eng.cancel(p) is False


def test_cancelled_waiter_detached_from_signal():
    eng = Engine()
    sig = Signal("s")

    def waiter():
        yield WaitUntil(sig, lambda: False, "forever")

    p = eng.spawn(waiter())

    def killer():
        yield Delay(5)
        eng.cancel(p, "stuck")

    eng.spawn(killer())
    eng.run()  # would raise DeadlockError if the waiter stayed parked
    assert sig.waiter_count == 0


def test_cancelled_holder_releases_resource_to_next_waiter():
    """The crucial cleanup: killing a slot holder frees the slot."""
    eng = Engine()
    res = Resource("slot")
    got = []

    def holder():
        yield Acquire(res)
        yield Delay(10_000)  # holds ~forever
        yield Release(res)

    def waiter():
        yield Acquire(res)
        got.append(eng.now)
        yield Release(res)

    h = eng.spawn(holder())
    eng.spawn(waiter())

    def killer():
        yield Delay(50)
        eng.cancel(h, "kill holder")

    eng.spawn(killer())
    eng.run()
    assert got == [50]  # waiter granted the instant the holder died


def test_cancelled_queued_process_removed_from_resource_queue():
    eng = Engine()
    res = Resource("slot")

    def holder():
        yield Acquire(res)
        yield Delay(100)
        yield Release(res)

    def queued():
        yield Acquire(res)
        yield Release(res)

    eng.spawn(holder())
    q = eng.spawn(queued())

    def killer():
        yield Delay(10)
        eng.cancel(q, "no need")

    eng.spawn(killer())
    eng.run()
    assert res.queue_length == 0
    assert res.available == 1


def test_joiners_of_cancelled_process_get_sentinel():
    eng = Engine()
    results = []

    def sleeper():
        yield Delay(10_000)

    s = eng.spawn(sleeper())

    def joiner():
        result = yield Join(s)
        results.append(result)

    eng.spawn(joiner())

    def killer():
        yield Delay(7)
        eng.cancel(s, "watchdog")

    eng.spawn(killer())
    eng.run()
    assert len(results) == 1
    assert isinstance(results[0], Cancelled)
    assert results[0].reason == "watchdog"


def test_join_on_already_cancelled_process_is_immediate():
    eng = Engine()

    def sleeper():
        yield Delay(10_000)

    s = eng.spawn(sleeper())
    results = []

    def late_joiner():
        yield Delay(100)
        result = yield Join(s)
        results.append((eng.now, result))

    eng.spawn(late_joiner())

    def killer():
        yield Delay(5)
        eng.cancel(s, "early kill")

    eng.spawn(killer())
    eng.run()
    assert results[0][0] == 100
    assert isinstance(results[0][1], Cancelled)


def test_cancelled_holder_frees_every_held_resource():
    """A holder of several resources frees all of them on cancel."""
    eng = Engine()
    a, b = Resource("a"), Resource("b")
    got = []

    def hoarder():
        yield Acquire(a)
        yield Acquire(b)
        yield Delay(10_000)
        yield Release(b)
        yield Release(a)

    def waiter(res, tag):
        yield Delay(1)  # let the hoarder take both units first
        yield Acquire(res)
        got.append((tag, eng.now))
        yield Release(res)

    h = eng.spawn(hoarder())
    eng.spawn(waiter(a, "a"))
    eng.spawn(waiter(b, "b"))

    def killer():
        yield Delay(30)
        eng.cancel(h, "hoarding")

    eng.spawn(killer())
    eng.run()
    assert sorted(got) == [("a", 30), ("b", 30)]
    assert a.available == 1 and b.available == 1
    assert h.holding == []


def test_cancel_wakes_multiple_pending_joiners():
    """Every joiner parked on the victim gets the Cancelled sentinel."""
    eng = Engine()
    results = []

    def sleeper():
        yield Delay(10_000)

    s = eng.spawn(sleeper())

    def joiner(tag):
        result = yield Join(s)
        results.append((tag, eng.now, result))

    for tag in ("x", "y", "z"):
        eng.spawn(joiner(tag))

    def killer():
        yield Delay(12)
        eng.cancel(s, "abort")

    eng.spawn(killer())
    eng.run()
    assert len(results) == 3
    assert {tag for tag, _, _ in results} == {"x", "y", "z"}
    assert all(t == 12 for _, t, _ in results)
    assert all(isinstance(r, Cancelled) for _, _, r in results)
    assert all(r.reason == "abort" for _, _, r in results)


def test_double_cancel_is_idempotent():
    """The second cancel is a no-op returning False, not an error."""
    eng = Engine()

    def sleeper():
        yield Delay(10_000)

    s = eng.spawn(sleeper())
    outcomes = []

    def killer():
        yield Delay(5)
        outcomes.append(eng.cancel(s, "first"))
        outcomes.append(eng.cancel(s, "second"))

    eng.spawn(killer())
    eng.run()
    assert outcomes == [True, False]
    assert s.state == ProcessState.CANCELLED


def test_cancelling_a_join_blocked_process_detaches_it():
    eng = Engine()

    def sleeper():
        yield Delay(200)

    s = eng.spawn(sleeper())

    def joiner():
        yield Join(s)

    j = eng.spawn(joiner())

    def killer():
        yield Delay(10)
        eng.cancel(j, "impatient")

    eng.spawn(killer())
    eng.run()
    assert j.state == ProcessState.CANCELLED
    assert s.state == ProcessState.DONE
    assert j not in s.joiners


# ---------------------------------------------------------------------------
# O(1) tombstoned cancellation (both engines)
# ---------------------------------------------------------------------------
#
# Engine.cancel used to leave the cancelled wakeup as a dead tuple in
# the heap, visible to nothing but still popped and compared.  Both
# engines now tombstone the entry in place; these regressions pin the
# observable consequences — cancel-then-reschedule at the *same*
# timestamp, and pending_events counting live wakeups only.  The
# ``any_engine`` fixture (tests/simcore/conftest.py) runs each of them
# under both event cores.


def test_cancel_then_respawn_at_same_timestamp(any_engine):
    """The tombstone must not shadow a replacement at the same time.

    Kill a sleeper mid-flight and spawn its replacement scheduled at
    the exact timestamp the stale wakeup occupied; the replacement must
    dispatch there, once, with no interference from the dead entry.
    """
    eng = any_engine
    ran = []

    def sleeper():
        yield Delay(100)
        ran.append(("stale", eng.now))

    def replacement():
        yield Delay(75)  # spawned at t=25 -> wakes at the stale t=100
        ran.append(("fresh", eng.now))

    victim = eng.spawn(sleeper())

    def killer():
        yield Delay(25)
        assert eng.cancel(victim, "superseded") is True
        yield Spawn(replacement(), "replacement")

    eng.spawn(killer())
    eng.run()
    assert ran == [("fresh", 100)]
    assert victim.state == ProcessState.CANCELLED


def test_pending_events_ignores_tombstones(any_engine):
    """pending_events counts live wakeups, not dead heap entries."""
    eng = any_engine
    observed = []

    def sleeper():
        yield Delay(1000)

    victims = [eng.spawn(sleeper()) for _ in range(3)]
    survivor = eng.spawn(sleeper())

    def watcher():
        yield Delay(10)
        observed.append(eng.pending_events(ignore=(me,)))
        for v in victims:
            eng.cancel(v, "bulk kill")
        observed.append(eng.pending_events(ignore=(me,)))
        observed.append(eng.pending_events())

    me = eng.spawn(watcher())
    eng.run()
    # Before: 4 sleepers (watcher discounted).  After: only the
    # survivor; including the watcher itself there is still only the
    # survivor because the watcher has no further wakeup scheduled.
    assert observed == [4, 1, 1]
    assert survivor.state == ProcessState.DONE


def test_cancel_storm_then_full_drain(any_engine):
    """Hundreds of tombstones at one timestamp never block the queue."""
    eng = any_engine
    ran = []

    def sleeper(i):
        yield Delay(500)
        ran.append(i)

    procs = [eng.spawn(sleeper(i)) for i in range(200)]

    def killer():
        yield Delay(1)
        for p in procs[::2]:  # kill every other one
            eng.cancel(p, "thin the herd")

    eng.spawn(killer())
    eng.run()
    # Survivors dispatch at t=500 in spawn order, none of the dead run.
    assert ran == list(range(1, 200, 2))
    assert eng.pending_events() == 0
