"""Unit tests for span tracing."""

import pytest

from repro.simcore import Span, Trace


def test_span_duration():
    assert Span("b0", "compute", 10, 25).duration == 15


def test_span_rejects_negative_duration():
    with pytest.raises(ValueError):
        Span("b0", "compute", 10, 5)


def test_trace_add_and_filter():
    tr = Trace()
    tr.add("b0", "compute", 0, 10)
    tr.add("b0", "sync", 10, 14)
    tr.add("b1", "compute", 0, 12)
    assert len(tr) == 3
    assert tr.total("compute") == 22
    assert tr.total("compute", owner="b0") == 10
    assert tr.total("sync") == 4
    assert tr.total() == 26


def test_trace_phases_in_first_appearance_order():
    tr = Trace()
    tr.add("a", "launch", 0, 1)
    tr.add("a", "compute", 1, 2)
    tr.add("b", "launch", 0, 1)
    assert tr.phases() == ["launch", "compute"]


def test_trace_by_phase_totals():
    tr = Trace()
    tr.add("a", "x", 0, 5)
    tr.add("b", "x", 0, 5)
    tr.add("a", "y", 5, 6)
    assert tr.by_phase() == {"x": 10, "y": 1}
    tr.add("c", "z", 0, 2)
    tr.add("c", "x", 2, 9)
    tr.add("c", "y", 9, 9)
    expected = {}
    for row in tr.rows:  # the plain loop by_phase replaced
        expected[row[1]] = expected.get(row[1], 0) + row[3] - row[2]
    assert list(tr.by_phase().items()) == list(expected.items())
    assert list(tr.by_phase()) == tr.phases() == ["x", "y", "z"]


def test_trace_meta_is_preserved():
    tr = Trace()
    span = tr.add("b0", "sync", 0, 3, round=7)
    assert span.meta == {"round": 7}
    assert tr.spans("sync")[0].meta == {"round": 7}


def test_trace_merge_sorts_by_start():
    a, b = Trace(), Trace()
    a.add("a", "x", 10, 20)
    b.add("b", "x", 0, 5)
    merged = a.merge([b])
    assert [s.owner for s in merged] == ["b", "a"]
    assert len(a) == 1 and len(b) == 1  # originals untouched


def test_trace_clear():
    tr = Trace()
    tr.add("a", "x", 0, 1)
    tr.clear()
    assert len(tr) == 0
    assert tr.total() == 0


def _periodic_trace():
    """A head span, two 10 ns periods of two spans each, a tail span."""
    tr = Trace()
    tr.add("k:r0", "setup", 0, 4)
    for r in range(2):
        tr.add("k:r0/b0", "compute", 4 + 10 * r, 9 + 10 * r, round=r)
        tr.add("k:r0/b0", "sync", 9 + 10 * r, 14 + 10 * r, round=r, strategy="s")
    tr.add("k:r0", "teardown", 24, 30)
    return tr


def test_splice_counts_arithmetically_then_materializes_copies():
    tr = _periodic_trace()
    tr.splice(at=5, period=2, copies=3, period_ns=10)
    assert len(tr) == 12
    assert tr.total() == 4 + 5 * 10 + 6
    assert tr.total("compute") == 5 * 5
    assert tr.by_phase() == {"setup": 4, "compute": 25, "sync": 25, "teardown": 6}
    assert tr.phases() == ["setup", "compute", "sync", "teardown"]
    spans = tr.spans()
    assert len(spans) == 12
    assert [s.meta["round"] for s in spans[1:11]] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    assert [s.start for s in spans[1:11:2]] == [4, 14, 24, 34, 44]
    assert spans[-1] == Span("k:r0", "teardown", 54, 60)
    assert tr.total() == sum(s.duration for s in spans)


def test_splice_relabels_owners_and_keeps_later_spans_where_added():
    def relabel(owner, k):
        return owner.replace("r0", f"r{k}")

    tr = _periodic_trace()
    tr.splice(at=5, period=2, copies=2, period_ns=10, relabel=relabel)
    tr.add("host", "late", 60, 61)
    assert len(tr) == 11
    assert tr.total("sync", owner="k:r1/b0") == 5
    owners = [s.owner for s in tr]
    assert owners[5:7] == ["k:r1/b0", "k:r1/b0"]
    assert owners[-2:] == ["k:r2", "host"]
    assert tr.spans()[-1] == Span("host", "late", 60, 61)


def test_splice_with_zero_copies_is_a_no_op_and_bad_splices_raise():
    tr = _periodic_trace()
    before = tr.to_tuples()
    tr.splice(at=5, period=2, copies=0, period_ns=10)
    assert tr.to_tuples() == before
    for at, period in ((5, 0), (7, 2), (1, 2)):
        with pytest.raises(ValueError):
            tr.splice(at=at, period=period, copies=1, period_ns=10)


# -- row-stored spans ----------------------------------------------------------


def _observables(tr):
    return (
        len(tr),
        tr.total(),
        tr.total("compute"),
        tr.total("sync", owner="k:r0/b0"),
        tr.by_phase(),
        tr.phases(),
        tr.digest(),
        tr.to_tuples(),
    )


def test_add_returns_an_equal_span_and_validates():
    tr = Trace()
    span = tr.add("b0", "sync", 0, 3, round=7)
    assert span == Span("b0", "sync", 0, 3, {"round": 7})
    assert tr.spans() == [span]
    with pytest.raises(ValueError):
        tr.add("b0", "sync", 5, 4)
    assert len(tr) == 1


def test_aggregates_agree_before_and_after_spans_are_read():
    tr = _periodic_trace()
    unread = _observables(tr)
    spans = tr.spans()
    assert _observables(tr) == unread
    assert [s.duration for s in spans] == [4, 5, 5, 5, 5, 6]


def test_spans_added_after_a_read_are_built_on_the_next_read():
    tr = _periodic_trace()
    assert len(tr.spans()) == 6
    tr.add("host", "late", 30, 31, round=9)
    assert tr.spans()[-1] == Span("host", "late", 30, 31, {"round": 9})
    assert [s.owner for s in tr][-2:] == ["k:r0", "host"]


def test_splice_over_spans_never_read_matches_splice_over_read_spans():
    read, unread = _periodic_trace(), _periodic_trace()
    read.spans()
    for tr in (read, unread):
        tr.splice(at=5, period=2, copies=3, period_ns=10)
    before = _observables(unread)
    assert before == _observables(read)
    assert unread.spans() == read.spans()
    assert _observables(unread) == before
    assert len(unread.spans()) == 12
