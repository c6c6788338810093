"""Tests for the supervising executor: journal, resume, retry, poison.

The ``fragile`` and ``sleep`` diagnostic workers stand in for real
simulations so every failure mode is deterministic and fast; the final
tests run a real (tiny) fig11 sweep interrupted mid-flight and assert
the resumed result is bit-identical to an uninterrupted one — the same
equality contract ``benchmarks/bench_parallel.py`` checks for plain
parallelism.
"""

import signal

import pytest

from repro.errors import ExecutorError, InterruptedSweepError
from repro.harness.experiments import fig11
from repro.parallel import Executor, ResultCache, run_id_for

SLEEPERS = [{"value": v, "seconds": 0.0} for v in range(6)]


# -- journaling and resume ---------------------------------------------------


def test_journaled_batch_writes_journal(tmp_path):
    ex = Executor(journal_dir=tmp_path)
    assert ex.map("sleep", SLEEPERS) == list(range(6))
    stats = ex.last_batch
    assert stats.run_id == run_id_for("sleep", SLEEPERS)
    assert stats.total == 6
    assert stats.replayed == 0
    assert stats.resumed_from is None
    assert (tmp_path / stats.run_id / "journal.jsonl").is_file()


def test_resume_replays_bit_identical(tmp_path):
    first = Executor(journal_dir=tmp_path)
    expected = first.map("sleep", SLEEPERS)
    rid = first.last_batch.run_id

    resumed = Executor(journal_dir=tmp_path)
    assert resumed.map("sleep", SLEEPERS, resume=rid) == expected
    stats = resumed.last_batch
    assert stats.replayed == 6
    assert stats.resumed_from == rid
    assert resumed.tasks_run == 0  # nothing re-executed


def test_resume_auto_without_journal_starts_fresh(tmp_path):
    ex = Executor(journal_dir=tmp_path)
    assert ex.map("sleep", SLEEPERS, resume="auto") == list(range(6))
    assert ex.last_batch.resumed_from is None
    assert ex.last_batch.replayed == 0


def test_resume_auto_with_journal_replays(tmp_path):
    Executor(journal_dir=tmp_path).map("sleep", SLEEPERS)
    ex = Executor(journal_dir=tmp_path)
    assert ex.map("sleep", SLEEPERS, resume="auto") == list(range(6))
    assert ex.last_batch.replayed == 6


def test_resume_mismatched_run_id_is_typed(tmp_path):
    ex = Executor(journal_dir=tmp_path)
    with pytest.raises(ExecutorError, match="cannot resume") as info:
        ex.map("sleep", SLEEPERS, resume="0" * 16)
    assert info.value.kind == "resume"


def test_resume_explicit_id_without_journal_is_typed(tmp_path):
    ex = Executor(journal_dir=tmp_path)
    rid = run_id_for("sleep", SLEEPERS)
    with pytest.raises(ExecutorError, match="nothing to resume") as info:
        ex.map("sleep", SLEEPERS, resume=rid)
    assert info.value.kind == "resume"


def test_resume_without_journal_dir_uses_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # DEFAULT_JOURNAL_DIR is cwd-relative
    Executor(journal_dir=None).map("sleep", SLEEPERS)  # un-journaled
    ex = Executor(journal_dir=None)
    assert ex.map("sleep", SLEEPERS, resume="auto") == list(range(6))
    assert (tmp_path / "benchmarks" / "out" / "journal").is_dir()


def test_resume_composes_with_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    first = Executor(cache=cache, journal_dir=tmp_path / "journal")
    first.map("sleep", SLEEPERS)
    ex = Executor(cache=cache, journal_dir=tmp_path / "journal")
    assert ex.map("sleep", SLEEPERS, resume="auto") == list(range(6))
    # replay wins over the cache: replayed results are not cache hits.
    assert ex.last_batch.replayed == 6
    assert ex.tasks_cached == 0


# -- interruption ------------------------------------------------------------


def make_tripwire(at, signum=signal.SIGINT):
    def tripwire(done, total, cached):
        if done == at:
            signal.raise_signal(signum)

    return tripwire


def test_inline_sigint_drains_and_resumes(tmp_path):
    interrupted = Executor(
        journal_dir=tmp_path, progress=make_tripwire(3)
    )
    with pytest.raises(InterruptedSweepError) as info:
        interrupted.map("sleep", SLEEPERS)
    exc = info.value
    assert exc.run_id == run_id_for("sleep", SLEEPERS)
    assert exc.signal_name == "SIGINT"
    assert exc.done == 3
    assert exc.total == 6
    assert "resume" in str(exc)

    resumed = Executor(journal_dir=tmp_path)
    assert resumed.map("sleep", SLEEPERS, resume=exc.run_id) == list(range(6))
    assert resumed.last_batch.replayed == 3
    assert resumed.tasks_run == 3  # only the remainder executed


def test_pool_sigterm_drains_and_resumes(tmp_path):
    interrupted = Executor(
        jobs=2, journal_dir=tmp_path, progress=make_tripwire(2, signal.SIGTERM)
    )
    with pytest.raises(InterruptedSweepError) as info:
        interrupted.map("sleep", SLEEPERS)
    exc = info.value
    assert exc.signal_name == "SIGTERM"
    # Everything in flight at the signal drains first (quick tasks may
    # all finish); the interrupt still surfaces so the run is resumable.
    assert 2 <= exc.done <= 6

    resumed = Executor(jobs=2, journal_dir=tmp_path)
    assert resumed.map("sleep", SLEEPERS, resume=exc.run_id) == list(range(6))
    assert resumed.last_batch.replayed == exc.done


def test_unjournaled_run_leaves_signals_alone(tmp_path):
    ex = Executor(progress=make_tripwire(2))
    with pytest.raises(KeyboardInterrupt):
        ex.map("sleep", SLEEPERS)


# -- crash recovery and poison payloads --------------------------------------


def test_transient_worker_death_is_retried(tmp_path):
    marker = tmp_path / "died-once"
    payloads = [{"value": 0}, {"once_marker": str(marker), "value": 1}, {"value": 2}]
    ex = Executor(jobs=2)
    assert ex.map("fragile", payloads) == [0, 1, 2]
    assert marker.exists()
    assert ex.last_batch.retries >= 1
    assert ex.last_batch.quarantined == []


def test_poison_payload_raises_after_siblings_complete(tmp_path):
    payloads = [{"value": 0}, {"die": True}, {"value": 2}, {"value": 3}]
    ex = Executor(jobs=2, journal_dir=tmp_path)
    with pytest.raises(ExecutorError, match="quarantined as") as info:
        ex.map("fragile", payloads)
    exc = info.value
    assert exc.kind == "poison"
    assert exc.task_index == 1
    assert "3 task(s) completed" in str(exc)
    stats = ex.last_batch
    assert stats.quarantined == [1]

    # Every sibling reached the journal before the poison surfaced; a
    # resume replays all four entries, the poison included, and raises
    # the same typed error without re-running (or re-dying on) anything.
    resumed = Executor(jobs=2, journal_dir=tmp_path)
    with pytest.raises(ExecutorError, match="quarantined as") as again:
        resumed.map("fragile", payloads, resume=stats.run_id)
    assert again.value.kind == "poison"
    assert str(again.value) == str(exc)
    assert resumed.last_batch.quarantined == [1]
    assert resumed.last_batch.replayed == 4
    assert resumed.tasks_run == 0


# -- real-sweep equality contract --------------------------------------------


def test_interrupted_fig11_resumes_bit_identical(tmp_path):
    kwargs = dict(rounds=4, blocks=[2, 3], strategies=("gpu-simple",))
    reference = fig11(**kwargs)

    tripped = Executor(journal_dir=tmp_path, progress=make_tripwire(2))
    with pytest.raises(InterruptedSweepError) as info:
        fig11(executor=tripped, **kwargs)

    resumed_ex = Executor(journal_dir=tmp_path)
    resumed = fig11(executor=resumed_ex, resume=info.value.run_id, **kwargs)
    assert resumed.to_json() == reference.to_json()  # byte-identical
    assert resumed.resumed_from == info.value.run_id
    assert resumed_ex.last_batch.replayed == 2
