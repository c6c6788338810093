"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.errors import DeadlockError, ProcessError, SimulationError
from repro.simcore import (
    Acquire,
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


def test_delay_advances_time():
    eng = Engine()

    def proc():
        yield Delay(42)
        return eng.now

    p = eng.spawn(proc())
    eng.run()
    assert p.result == 42
    assert eng.now == 42


def test_zero_delay_is_legal():
    eng = Engine()

    def proc():
        yield Delay(0)
        yield Delay(0)

    eng.spawn(proc())
    assert eng.run() == 0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1)


def test_fractional_delay_rounds():
    eng = Engine()

    def proc():
        yield Delay(1.6)

    eng.spawn(proc())
    assert eng.run() == 2


def test_spawn_with_initial_delay():
    eng = Engine()
    times = []

    def proc():
        times.append(eng.now)
        yield Delay(1)

    eng.spawn(proc(), delay=10)
    eng.run()
    assert times == [10]


def test_processes_interleave_deterministically():
    eng = Engine()
    order = []

    def proc(name, step):
        for i in range(3):
            yield Delay(step)
            order.append((name, eng.now))

    eng.spawn(proc("a", 10))
    eng.spawn(proc("b", 15))
    eng.run()
    # At t=30 both wake; b's event was scheduled earlier (t=15) so it runs first.
    assert order == [
        ("a", 10),
        ("b", 15),
        ("a", 20),
        ("b", 30),
        ("a", 30),
        ("b", 45),
    ]


def test_same_time_events_fifo():
    eng = Engine()
    order = []

    def proc(name):
        yield Delay(5)
        order.append(name)

    for name in "abcde":
        eng.spawn(proc(name))
    eng.run()
    assert order == list("abcde")


def test_process_return_value_via_join():
    eng = Engine()

    def child():
        yield Delay(7)
        return "payload"

    def parent():
        c = yield Spawn(child(), "child")
        result = yield Join(c)
        return result

    p = eng.spawn(parent())
    eng.run()
    assert p.result == "payload"


def test_join_on_finished_process_is_immediate():
    eng = Engine()

    def child():
        yield Delay(1)
        return 99

    def parent(c):
        yield Delay(50)
        got = yield Join(c)
        assert eng.now == 50
        return got

    c = eng.spawn(child())
    p = eng.spawn(parent(c))
    eng.run()
    assert p.result == 99


def test_multiple_joiners_all_wake():
    eng = Engine()
    results = []

    def child():
        yield Delay(10)
        return "x"

    def joiner(c):
        got = yield Join(c)
        results.append((eng.now, got))

    c = eng.spawn(child())
    for _ in range(3):
        eng.spawn(joiner(c))
    eng.run()
    assert results == [(10, "x")] * 3


def test_wait_until_immediate_when_predicate_true():
    eng = Engine()
    sig = Signal("s")

    def proc():
        polls = yield WaitUntil(sig, lambda: True, "always")
        return (eng.now, polls)

    p = eng.spawn(proc())
    eng.run()
    assert p.result == (0, 0)


def test_wait_until_wakes_on_fire():
    eng = Engine()
    sig = Signal("s")
    box = {"ready": False}

    def waiter():
        polls = yield WaitUntil(sig, lambda: box["ready"], "box ready")
        return (eng.now, polls)

    def firer():
        yield Delay(5)
        yield Fire(sig)  # predicate false: waiter polls but stays
        yield Delay(5)
        box["ready"] = True
        yield Fire(sig)

    w = eng.spawn(waiter())
    eng.spawn(firer())
    eng.run()
    assert w.result == (10, 2)  # woke at t=10 after 2 polls


def test_fire_wakes_only_matching_predicates():
    eng = Engine()
    sig = Signal("s")
    box = {"n": 0}
    woken = []

    def waiter(threshold):
        yield WaitUntil(sig, lambda t=threshold: box["n"] >= t, f">={threshold}")
        woken.append((threshold, eng.now))

    def driver():
        for _ in range(3):
            yield Delay(10)
            box["n"] += 1
            yield Fire(sig)

    eng.spawn(waiter(1))
    eng.spawn(waiter(2))
    eng.spawn(waiter(3))
    eng.spawn(driver())
    eng.run()
    assert woken == [(1, 10), (2, 20), (3, 30)]


def test_resource_fifo_serialization():
    eng = Engine()
    res = Resource("unit", capacity=1)
    order = []

    def contender(i):
        queued = yield Acquire(res)
        order.append((i, eng.now, queued))
        yield Delay(10)
        yield Release(res)

    for i in range(4):
        eng.spawn(contender(i))
    eng.run()
    assert order == [(0, 0, 0), (1, 10, 10), (2, 20, 20), (3, 30, 30)]


def test_resource_capacity_two_allows_two_holders():
    eng = Engine()
    res = Resource("pair", capacity=2)
    grants = []

    def contender(i):
        yield Acquire(res)
        grants.append((i, eng.now))
        yield Delay(10)
        yield Release(res)

    for i in range(4):
        eng.spawn(contender(i))
    eng.run()
    assert grants == [(0, 0), (1, 0), (2, 10), (3, 10)]


def test_release_without_acquire_raises():
    eng = Engine()
    res = Resource("unit")

    def bad():
        yield Release(res)

    eng.spawn(bad())
    with pytest.raises(SimulationError):
        eng.run()


def test_resource_capacity_validation():
    with pytest.raises(SimulationError):
        Resource("bad", capacity=0)


def test_deadlock_detection_names_blocked_processes():
    eng = Engine()
    sig = Signal("never")

    def stuck(i):
        yield WaitUntil(sig, lambda: False, f"stuck-{i}")

    eng.spawn(stuck(0), name="p0")
    eng.spawn(stuck(1), name="p1")
    with pytest.raises(DeadlockError) as exc:
        eng.run()
    names = [name for name, _reason in exc.value.blocked]
    assert names == ["p0", "p1"]


def test_deadlock_on_unreleased_resource():
    eng = Engine()
    res = Resource("unit")

    def holder():
        yield Acquire(res)
        yield Delay(1)  # never releases

    def waiter():
        yield Acquire(res)

    eng.spawn(holder(), name="holder")
    eng.spawn(waiter(), name="waiter")
    with pytest.raises(DeadlockError) as exc:
        eng.run()
    assert exc.value.blocked == [("waiter", "acquire (resource 'unit')")]


def test_process_exception_propagates_with_name():
    eng = Engine()

    def boom():
        yield Delay(1)
        raise ValueError("kapow")

    eng.spawn(boom(), name="bomb")
    with pytest.raises(ProcessError, match="bomb.*kapow"):
        eng.run()


def test_yielding_non_effect_raises():
    eng = Engine()

    def bad():
        yield 42

    eng.spawn(bad(), name="bad")
    with pytest.raises(ProcessError, match="non-effect"):
        eng.run()


def test_spawn_non_generator_raises():
    eng = Engine()
    with pytest.raises(ProcessError):
        eng.spawn(lambda: None)  # type: ignore[arg-type]


def test_run_until_horizon_stops_early():
    eng = Engine()

    def proc():
        yield Delay(100)

    eng.spawn(proc())
    assert eng.run(until=50) == 50
    # remaining work still completes on a follow-up run
    assert eng.run() == 100


def test_run_not_reentrant():
    eng = Engine()
    errors = []

    def proc():
        try:
            eng.run()
        except SimulationError as exc:
            errors.append(exc)
        yield Delay(1)

    eng.spawn(proc())
    eng.run()
    assert len(errors) == 1


def test_max_events_guard():
    eng = Engine(max_events=10)

    def spinner():
        while True:
            yield Delay(1)

    eng.spawn(spinner())
    with pytest.raises(SimulationError, match="max_events"):
        eng.run()


def test_nested_generators_compose_with_yield_from():
    eng = Engine()

    def inner():
        yield Delay(5)
        return "inner-done"

    def outer():
        result = yield from inner()
        yield Delay(5)
        return result

    p = eng.spawn(outer())
    eng.run()
    assert p.result == "inner-done"
    assert eng.now == 10


def test_process_state_transitions():
    eng = Engine()
    sig = Signal("s")

    def waiter():
        yield WaitUntil(sig, lambda: sig.fire_count > 0, "fired once")

    def firer():
        yield Delay(1)
        yield Fire(sig)

    w = eng.spawn(waiter())
    assert w.state == ProcessState.RUNNING
    eng.spawn(firer())
    eng.run()
    assert w.state == ProcessState.DONE
    assert not w.alive
    assert w.finished_at == 1


def test_signal_waiter_introspection():
    eng = Engine()
    sig = Signal("s")

    def waiter():
        yield WaitUntil(sig, lambda: False, "forever")

    eng.spawn(waiter(), name="w")
    with pytest.raises(DeadlockError):
        eng.run()
    assert sig.waiter_count == 1
    assert sig.waiting_processes() == [("w", "forever")]


def test_events_dispatched_counter():
    eng = Engine()

    def proc():
        yield Delay(1)
        yield Delay(1)

    eng.spawn(proc())
    eng.run()
    assert eng.events_dispatched == 3  # initial resume + two delays


def test_release_of_resource_held_by_another_raises():
    """Releasing someone else's unit is a protocol error, not silent."""
    eng = Engine()
    res = Resource("unit")

    def holder():
        yield Acquire(res)
        yield Delay(100)
        yield Release(res)

    def thief():
        yield Delay(10)
        yield Release(res)  # held by holder, not us

    eng.spawn(holder(), name="holder")
    eng.spawn(thief(), name="thief")
    with pytest.raises(ProcessError, match="thief.*does not hold"):
        eng.run()


def test_double_release_raises():
    eng = Engine()
    res = Resource("unit")

    def sloppy():
        yield Acquire(res)
        yield Release(res)
        yield Release(res)

    eng.spawn(sloppy(), name="sloppy")
    with pytest.raises(ProcessError, match="does not hold"):
        eng.run()


def test_cancelled_wakeups_do_not_inflate_final_time():
    """A dead process's future wakeup must not drag the clock forward."""
    eng = Engine()

    def sleeper():
        yield Delay(1_000_000)

    s = eng.spawn(sleeper())

    def killer():
        yield Delay(10)
        eng.cancel(s, "not needed")

    eng.spawn(killer())
    assert eng.run() == 10  # not 1_000_000


def test_cancelled_wakeup_beyond_horizon_does_not_pause_run():
    """A dead entry past the horizon is skipped, not treated as progress."""
    eng = Engine()
    done = []

    def sleeper():
        yield Delay(1_000_000)

    def worker():
        yield Delay(5)
        done.append(eng.now)

    s = eng.spawn(sleeper())
    eng.cancel(s, "immediately")
    eng.spawn(worker())
    assert eng.run(until=100) == 5
    assert done == [5]


def test_blocked_processes_lists_parked_only():
    eng = Engine()
    sig = Signal("s")

    def waiter():
        yield WaitUntil(sig, lambda: False, "the flag")

    def sleeper():
        yield Delay(500)

    eng.spawn(waiter(), name="w")
    eng.spawn(sleeper(), name="zz")
    eng.run(until=100)
    blocked = eng.blocked_processes
    assert len(blocked) == 1
    name, reason = blocked[0]
    assert name == "w" and "the flag" in reason


def test_pending_events_counts_live_wakeups_and_ignores():
    eng = Engine()
    sig = Signal("s")

    def waiter():
        yield WaitUntil(sig, lambda: False, "forever")

    def sleeper():
        yield Delay(500)

    eng.spawn(waiter(), name="w")
    zz = eng.spawn(sleeper(), name="zz")
    eng.run(until=100)
    # The sleeper's 500 ns wakeup is pending; the waiter has none.
    assert eng.pending_events() == 1
    assert eng.pending_events(ignore=(zz,)) == 0


def test_pumped_delay_chain_across_horizon_matches_reference():
    """A Delay chain paused mid-chain at a horizon, with a seeded tie.

    A rival wakes at t=50, the same timestamp as the chain's fifth
    wakeup; the seeded tiebreak decides who goes first.  After the rival
    finishes the chain runs alone until its next wakeup crosses
    ``until``.  The engine must pause with the chain's next event
    pending, then finish with the same clock and event count whichever
    way the tie went.
    """

    def drive(seed, until):
        rng = random.Random(seed)
        eng = Engine(tiebreak=rng.random)
        log = []

        def chain():
            for _ in range(20):
                yield Delay(10)
                log.append(("chain", eng.now))

        def rival():
            yield Delay(50)
            log.append(("rival", eng.now))

        eng.spawn(rival(), name="rival")
        eng.spawn(chain(), name="chain")
        paused = eng.run(until=until)
        head = eng.next_event_time()
        final = eng.run()
        return paused, head, final, eng.events_dispatched, log

    orders = set()
    for seed in range(8):
        for until in (120, 125):
            ref = drive(seed, until)
            assert ref[:4] == (until, 130, 200, 23)
            log = ref[4]
            orders.add(log.index(("rival", 50)) < log.index(("chain", 50)))
    assert orders == {True, False}  # the tie went each way at least once


def test_use_engine_mode_names_select_the_one_engine():
    """Both legacy names run the same engine; any other name is refused."""
    from repro.algorithms import MeanMicrobench
    from repro.errors import ConfigError
    from repro.harness import experiments, run
    from repro.simcore import use_engine_mode

    outputs = []
    for mode in ("reference", "fast"):
        with use_engine_mode(mode) as selected:
            assert selected == mode
            result = run(MeanMicrobench(rounds=3), "gpu-lockfree", 4,
                         keep_device=True)
            sweep = experiments.fig11(rounds=3, blocks=[2, 4])
        assert isinstance(result.device.engine, Engine)
        outputs.append((result.total_ns, result.device.engine.events_dispatched,
                        sweep.to_json()))
    assert outputs[0] == outputs[1]
    with pytest.raises(ConfigError, match="unknown engine mode"):
        with use_engine_mode("turbo"):
            pass  # pragma: no cover - never entered


def test_effect_subclass_is_dispatched_as_its_base():
    class LongDelay(Delay):
        pass

    eng = Engine()

    def proc():
        yield LongDelay(7)

    eng.spawn(proc())
    assert eng.run() == 7


def test_alive_clears_on_done_failed_and_cancelled():
    eng = Engine()

    def done():
        yield Delay(1)

    def failed():
        yield Delay(1)
        raise ValueError("boom")

    def parked():
        yield WaitUntil(Signal("never"), lambda: False, "forever")

    d, f, c = eng.spawn(done()), eng.spawn(failed()), eng.spawn(parked())
    assert d.alive and f.alive and c.alive
    with pytest.raises(ProcessError):
        eng.run()
    assert (d.state, d.alive) == (ProcessState.DONE, False)
    assert (f.state, f.alive) == (ProcessState.FAILED, False)
    assert c.alive
    eng.cancel(c)
    assert (c.state, c.alive) == (ProcessState.CANCELLED, False)


def test_live_processes_drop_done_failed_and_cancelled():
    eng = Engine()

    def done():
        yield Delay(1)

    def failed():
        yield Delay(2)
        raise ValueError("boom")

    def parked():
        yield WaitUntil(Signal("never"), lambda: False, "forever")

    d, f, c = eng.spawn(done()), eng.spawn(failed()), eng.spawn(parked())
    assert eng.live_processes == [d, f, c]
    with pytest.raises(ProcessError):
        eng.run()
    assert eng.live_processes == [c]
    assert [name for name, _reason in eng.blocked_processes] == [c.name]
    eng.cancel(c)
    assert eng.live_processes == [] and eng.blocked_processes == []


def test_drain_check_keeps_spawn_order_after_pruning():
    eng = Engine()
    sig = Signal("never")

    def stuck(i):
        yield WaitUntil(sig, lambda: False, f"stuck-{i}")

    def brief():
        yield Delay(1)

    names = []
    for i in range(4):
        eng.spawn(brief(), name=f"brief{i}")
        eng.spawn(stuck(i), name=f"p{i}")
        names.append(f"p{i}")
    with pytest.raises(DeadlockError) as exc:
        eng.run()
    assert [name for name, _reason in exc.value.blocked] == names
    assert [p.name for p in eng.live_processes] == names
