"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.obs import EngineProfiler
from repro.simulation.engine import SimulationEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(3.0, fired.append, "c")
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(2.0, fired.append, "b")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = SimulationEngine()
        fired = []
        for tag in ("first", "second", "third"):
            engine.schedule(1.0, fired.append, tag)
        engine.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        engine = SimulationEngine()
        engine.schedule(2.5, lambda: None)
        engine.run()
        assert engine.now == 2.5

    def test_clock_starts_at_zero(self):
        assert SimulationEngine().now == 0.0

    def test_schedule_at_absolute_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match="past"):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_before_now_rejected(self):
        engine = SimulationEngine()
        engine.schedule(10.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="before current time"):
            engine.schedule_at(5.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        engine = SimulationEngine()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                engine.schedule(1.0, chain, depth + 1)

        engine.schedule(1.0, chain, 0)
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 4.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule(1.0, fired.append, "x")
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = SimulationEngine()
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancelling_one_event_leaves_others(self):
        engine = SimulationEngine()
        fired = []
        keep = engine.schedule(1.0, fired.append, "keep")
        drop = engine.schedule(2.0, fired.append, "drop")
        drop.cancel()
        engine.run()
        assert fired == ["keep"]
        assert keep.time == 1.0


class TestRunBounds:
    def test_run_until_leaves_future_events_queued(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, fired.append, "early")
        engine.schedule(10.0, fired.append, "late")
        engine.run(until=5.0)
        assert fired == ["early"]
        assert engine.now == 5.0
        assert engine.pending_events == 1
        engine.run()
        assert fired == ["early", "late"]

    def test_max_events_guards_livelock(self):
        engine = SimulationEngine()

        def forever():
            engine.schedule(1.0, forever)

        engine.schedule(1.0, forever)
        with pytest.raises(SimulationError, match="livelock"):
            engine.run(max_events=100)

    def test_run_is_not_reentrant(self):
        engine = SimulationEngine()
        errors = []

        def nested():
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(str(exc))

        engine.schedule(1.0, nested)
        engine.run()
        assert errors and "reentrant" in errors[0]

    def test_step_returns_false_when_drained(self):
        engine = SimulationEngine()
        assert engine.step() is False
        engine.schedule(1.0, lambda: None)
        assert engine.step() is True
        assert engine.step() is False

    def test_processed_events_counter(self):
        engine = SimulationEngine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.processed_events == 5


class TestHeapEntries:
    """The heap holds plain ``[time, seq, callback, args]`` lists."""

    def test_cancelled_head_is_skipped_by_step(self):
        engine = SimulationEngine()
        fired = []
        head = engine.schedule(1.0, fired.append, "dead")
        engine.schedule(2.0, fired.append, "alive")
        head.cancel()
        assert engine.step() is True
        assert fired == ["alive"]
        assert engine.now == 2.0
        assert engine.processed_events == 1
        assert engine.step() is False

    def test_pending_events_and_run_until_skip_a_cancelled_head(self):
        engine = SimulationEngine()
        fired = []
        head = engine.schedule(1.0, fired.append, "dead")
        engine.schedule(5.0, fired.append, "late")
        assert engine.pending_events == 2
        head.cancel()
        assert engine.pending_events == 1
        engine.run(until=3.0)
        assert fired == []
        assert engine.now == 3.0
        assert engine.pending_events == 1

    def test_handle_reports_time_and_state(self):
        engine = SimulationEngine()
        dropped = engine.schedule(2.5, lambda: None)
        kept = engine.schedule_at(4.0, lambda: None)
        assert (dropped.time, dropped.cancelled) == (2.5, False)
        dropped.cancel()
        dropped.cancel()
        assert (dropped.time, dropped.cancelled) == (2.5, True)
        engine.run()
        assert engine.processed_events == 1
        assert (kept.time, kept.cancelled) == (4.0, False)

    def test_same_time_events_fire_fifo(self):
        """Ties break on the sequence number; callbacks are never compared."""
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, fired.append, "a")
        engine.schedule_at(1.0, fired.append, "b")
        engine.schedule(0.5, lambda: engine.schedule(0.5, fired.append, "d"))
        engine.schedule(1.0, fired.append, "c")
        engine.run()
        assert fired == ["a", "b", "c", "d"]

    def test_heap_time_going_backwards_raises(self):
        engine = SimulationEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        # an entry earlier than ``now`` can only come from corruption
        engine._heap.append([1.0, -1, lambda: None, ()])
        with pytest.raises(SimulationError, match="time went backwards"):
            engine.step()

    def test_profiler_receives_heap_depth(self):
        profiler = EngineProfiler()
        engine = SimulationEngine(profiler=profiler)
        for delay in (1.0, 2.0, 3.0):
            engine.schedule(delay, lambda: None)
        engine.schedule_at(4.0, lambda: None)
        engine.run()
        report = profiler.report()
        assert report.heap_high_water == 4
        assert report.events_processed == 4
