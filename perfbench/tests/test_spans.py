"""Self-time arithmetic, span recording and tail-percentile selection."""

import threading

import pytest

from spans import Span, SpanRecorder, covered_length, percentile, self_times, tail, tail_percentile


def test_nested_self_time_subtracts_children():
    spans = [
        Span(0, -1, "root", 0.0, 10.0),
        Span(1, 0, "child", 1.0, 3.0),
        Span(2, 1, "grandchild", 1.5, 2.0),
        Span(3, 0, "child", 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 0.5, 4.0])


def test_overlapping_children_are_counted_once():
    # two children overlapping in [3, 4]: covered = [2, 6] = 4, not 5
    spans = [
        Span(0, -1, "root", 0.0, 10.0),
        Span(1, 0, "a", 2.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),
    ]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_child_spilling_past_parent_is_clipped():
    spans = [
        Span(0, -1, "root", 0.0, 10.0),
        Span(1, 0, "early", -2.0, 1.0),   # only [0, 1] counts
        Span(2, 0, "late", 8.0, 15.0),    # only [8, 10] counts
    ]
    assert self_times(spans)[0] == pytest.approx(7.0)


def test_self_time_is_order_independent():
    spans = [
        Span(7, 3, "b", 3.0, 6.0),
        Span(3, -1, "root", 0.0, 10.0),
        Span(5, 3, "a", 2.0, 4.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 6.0, 2.0])


def test_covered_length_union():
    assert covered_length(0.0, 10.0, [(1, 2), (1.5, 3), (5, 6), (9, 20)]) == pytest.approx(4.0)
    assert covered_length(0.0, 10.0, []) == 0.0
    assert covered_length(0.0, 10.0, [(11, 12), (-3, -1)]) == 0.0


def test_recorder_nests_per_thread_and_self_times_match():
    rec = SpanRecorder()
    outer, inner = rec.name_id("l.outer"), rec.name_id("l.inner")

    def work():
        o = rec.open(outer)
        rec.call(inner, sum, range(1000))
        rec.close(o, attr="done")

    threads = [threading.Thread(target=work) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    per_thread = rec.spans()
    assert len(per_thread) == 3
    for _name, spans, attrs in per_thread:
        assert [s.name for s in spans] == ["l.outer", "l.inner"]
        assert spans[1].parent == spans[0].span_id
        assert attrs == {0: "done"}
        own = self_times(spans)
        assert own[0] == pytest.approx(
            (spans[0].end - spans[0].start) - (spans[1].end - spans[1].start)
        )


@pytest.mark.parametrize(
    "count, expected",
    [(10, None), (11, 9), (20, 50), (100, 90), (110, 90), (1000, 99), (5000, 99)],
)
def test_tail_percentile_leaves_ten_beyond(count, expected):
    p = tail_percentile(count)
    assert p == expected
    if p is not None:
        values = list(range(count))
        beyond = sum(1 for v in values if v > percentile(values, p))
        assert beyond >= 10
        # and it is the highest whole percentile that does
        if p < 99:
            assert sum(1 for v in values if v > percentile(values, p + 1)) < 10


def test_tail_reports_value_and_percentile():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert tail(values) == (90.0, 90)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100)  # too few: the maximum
    with pytest.raises(ValueError):
        tail([])
