"""Distributed tracing and telemetry aggregation (repro.obs.distributed).

Unit coverage for the trace-context header, span identity, clock-offset
estimation, the telemetry buffer/aggregator pair, the degraded-healthz
window, and the fsync-on-close event log -- plus the end-to-end check:
a job submitted through a real TCP gateway to two socket workers
exports one merged Perfetto trace whose worker spans causally link back
into the daemon process with clock-corrected timestamps.
"""

import io
import json
import time

import pytest

from repro.apst.daemon import APSTDaemon, DaemonConfig
from repro.execution.appspec import app_spec
from repro.execution.local import DigestApp
from repro.net import (
    GatewayClient,
    GatewayConfig,
    JobGateway,
    RemoteWorkerPool,
)
from repro.net.protocol import http_status_for
from repro.obs import (
    CHUNK_COMPLETED,
    ClockOffsetEstimator,
    EventBus,
    JsonlSink,
    MetricsRegistry,
    Observability,
    TelemetryAggregator,
    TelemetryBuffer,
    TraceContext,
    Tracer,
    distributed_trace_events,
    parse_traceparent,
    span_record,
)
from repro.platform.presets import das2_cluster

from tests.validate_trace import validate_trace_file


class TestTraceContext:
    def test_roundtrip(self):
        context = TraceContext.new_root()
        parsed = TraceContext.from_traceparent(context.to_traceparent())
        assert parsed == context

    def test_new_root_shapes(self):
        context = TraceContext.new_root()
        assert len(context.trace_id) == 32
        assert len(context.span_id) == 16

    def test_new_root_uses_tracer_span_ids(self):
        tracer = Tracer()
        context = TraceContext.new_root(tracer)
        assert len(context.span_id) == 16

    @pytest.mark.parametrize("header", [
        None,
        "",
        "not-a-header",
        "00-short-abcdefabcdefabcd-01",                       # trace_id wrong length
        "00-" + "a" * 32 + "-" + "b" * 20 + "-01",            # span_id wrong length
        "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",            # unknown version
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",            # all-zero trace_id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",            # all-zero span_id
        "00-" + "g" * 32 + "-" + "b" * 16 + "-01",            # non-hex
    ])
    def test_lenient_parse_rejects_garbage_as_none(self, header):
        assert parse_traceparent(header) is None

    def test_lenient_parse_accepts_valid(self):
        header = "00-" + "a" * 32 + "-" + "b" * 16 + "-01"
        context = parse_traceparent(header)
        assert context is not None
        assert context.trace_id == "a" * 32


class TestTracerIdentity:
    def test_no_context_means_no_identity(self):
        tracer = Tracer()
        with tracer.span("plain"):
            pass
        (span,) = tracer.spans()
        assert span.trace_id is None
        assert span.span_id is None
        assert span.parent_span_id is None
        assert tracer.current_traceparent() is None

    def test_span_ids_are_w3c_width(self):
        tracer = Tracer()
        for _ in range(3):
            span_id = tracer.new_span_id()
            assert len(span_id) == 16
            assert int(span_id, 16) > 0

    def test_nesting_parents_within_a_process(self):
        tracer = Tracer()
        context = TraceContext.new_root(tracer)
        with tracer.activate(context):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        inner, outer = tracer.spans()
        assert outer.trace_id == context.trace_id
        assert outer.parent_span_id == context.span_id
        assert inner.parent_span_id == outer.span_id

    def test_activate_restores_previous_context(self):
        tracer = Tracer()
        context = TraceContext.new_root(tracer)
        with tracer.activate(context):
            assert tracer.context is context
        assert tracer.context is None

    def test_current_traceparent_names_innermost_open_span(self):
        tracer = Tracer()
        context = TraceContext.new_root(tracer)
        with tracer.activate(context):
            assert tracer.current_traceparent().split("-")[2] == context.span_id
            with tracer.span("probe"):
                header = tracer.current_traceparent()
        (probe,) = tracer.spans()
        assert header == f"00-{context.trace_id}-{probe.span_id}-01"

    def test_open_span_traceparent_propagates_across_the_wire(self):
        master = Tracer()
        with master.activate(TraceContext.new_root(master)):
            open_span = master.start_span("chunk.dispatch", chunk_id=7)
        worker = Tracer()
        worker.set_context(parse_traceparent(open_span.traceparent))
        with worker.span("chunk.process"):
            pass
        worker.set_context(None)
        (processed,) = worker.spans()
        assert processed.trace_id == open_span.trace_id
        assert processed.parent_span_id == open_span.span_id
        master.finish(open_span)
        (dispatched,) = master.spans()
        assert dispatched.span_id == open_span.span_id

    def test_open_span_without_context_has_no_header(self):
        tracer = Tracer()
        open_span = tracer.start_span("chunk.dispatch")
        assert open_span.traceparent is None


class TestClockOffsetEstimator:
    def test_symmetric_exchange_recovers_skew(self):
        estimator = ClockOffsetEstimator()
        # remote clock 10s ahead; 1ms each way; 5ms compute between t1/t2
        estimator.add_sample("w", t0=0.0, t1=10.001, t2=10.006, t3=0.007)
        assert estimator.offset("w") == pytest.approx(10.0, abs=1e-9)
        assert estimator.quality("w") == pytest.approx(0.002, abs=1e-9)

    def test_compute_time_between_recv_and_send_does_not_bias(self):
        estimator = ClockOffsetEstimator()
        estimator.add_sample("w", t0=0.0, t1=5.001, t2=5.001 + 60.0, t3=60.002)
        assert estimator.offset("w") == pytest.approx(5.0, abs=1e-9)

    def test_min_rtt_sample_wins(self):
        estimator = ClockOffsetEstimator()
        estimator.add_sample("w", t0=0.0, t1=1.050, t2=1.050, t3=0.100)  # noisy
        estimator.add_sample("w", t0=0.0, t1=1.001, t2=1.001, t3=0.002)  # clean
        estimator.add_sample("w", t0=0.0, t1=1.200, t2=1.200, t3=0.400)  # noisier
        assert estimator.offset("w") == pytest.approx(1.0, abs=1e-3)
        assert estimator.to_dict()["w"]["samples"] == 3

    def test_negative_rtt_sample_is_rejected(self):
        estimator = ClockOffsetEstimator()
        estimator.add_sample("w", t0=0.0, t1=1.0, t2=3.0, t3=0.5)  # t2-t1 > t3-t0
        assert estimator.offset("w") == 0.0
        assert estimator.quality("w") is None

    def test_unknown_process_reads_zero(self):
        assert ClockOffsetEstimator().offset("nobody") == 0.0


class TestTelemetryBuffer:
    def _traced_buffer(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        buffer = TelemetryBuffer("w0", tracer=tracer, metrics=metrics)
        return tracer, metrics, buffer

    def test_drain_empty_returns_none(self):
        _, _, buffer = self._traced_buffer()
        assert buffer.drain() is None

    def test_drain_collects_spans_events_and_metrics(self):
        tracer, metrics, buffer = self._traced_buffer()
        bus = EventBus([buffer])
        with tracer.span("chunk.process", chunk_id=1):
            pass
        bus.emit(CHUNK_COMPLETED, chunk_id=1, worker="w0")
        metrics.counter("repro_worker_chunks_total", "chunks").inc()
        batch = buffer.drain()
        assert batch["process"] == "w0"
        assert [s["name"] for s in batch["spans"]] == ["chunk.process"]
        assert batch["spans"][0]["start"] > 1e9  # absolute unix seconds
        assert [e["name"] for e in batch["events"]] == [CHUNK_COMPLETED]
        assert "repro_worker_chunks_total" in batch["metrics"]

    def test_drain_cursor_ships_each_span_once(self):
        tracer, _, buffer = self._traced_buffer()
        with tracer.span("one"):
            pass
        assert len(buffer.drain()["spans"]) == 1
        with tracer.span("two"):
            pass
        batch = buffer.drain()
        assert [s["name"] for s in batch["spans"]] == ["two"]

    def test_span_and_event_bounds(self):
        tracer = Tracer()
        buffer = TelemetryBuffer("w0", tracer=tracer, max_spans=4, max_events=3)
        bus = EventBus([buffer])
        for index in range(8):
            with tracer.span(f"s{index}"):
                pass
            bus.emit(CHUNK_COMPLETED, chunk_id=index)
        batch = buffer.drain()
        assert len(batch["spans"]) == 4      # newest spans kept
        assert batch["spans"][-1]["name"] == "s7"
        assert len(batch["events"]) == 3     # oldest events evicted
        assert batch["events"][0]["fields"]["chunk_id"] == 5


class TestTelemetryAggregator:
    def test_ingest_rekeys_to_registered_name(self):
        aggregator = TelemetryAggregator()
        aggregator.ingest(
            {"process": "self-reported", "spans": [{"name": "x", "start": 1.0}]},
            process="endpoint-name",
        )
        (span,) = aggregator.spans()
        assert span["process"] == "endpoint-name"
        assert aggregator.processes() == ["endpoint-name"]

    def test_remote_spans_are_clock_corrected_locals_are_not(self):
        aggregator = TelemetryAggregator()
        aggregator.add_offset_sample("w0", t0=0.0, t1=100.001, t2=100.001, t3=0.002)
        aggregator.ingest(
            {"spans": [{"name": "chunk.process", "start": 200.0, "duration": 1.0}]},
            process="w0",
        )
        aggregator.record_span(
            {"name": "job.run", "process": "daemon", "start": 100.0, "duration": 2.0}
        )
        by_name = {s["name"]: s for s in aggregator.spans()}
        corrected = by_name["chunk.process"]
        assert corrected["start"] == pytest.approx(100.0, abs=1e-3)
        assert corrected["raw_start"] == 200.0
        assert corrected["clock_offset"] == pytest.approx(100.0, abs=1e-3)
        assert by_name["job.run"]["clock_offset"] == 0.0

    def test_sync_tracer_is_idempotent_per_span(self):
        aggregator = TelemetryAggregator()
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert aggregator.sync_tracer(tracer, process="daemon") == 1
        assert aggregator.sync_tracer(tracer, process="daemon") == 0
        with tracer.span("b"):
            pass
        assert aggregator.sync_tracer(tracer, process="daemon") == 1
        assert len(aggregator.spans()) == 2

    def test_ingest_tolerates_garbage(self):
        aggregator = TelemetryAggregator()
        aggregator.ingest("not a dict")
        aggregator.ingest({"spans": ["nope", 3, {"no_name": True}]})
        aggregator.ingest({"events": [17], "metrics": 42})
        assert aggregator.spans() == []

    def test_remote_prometheus_rendering_labels_by_process(self):
        metrics = MetricsRegistry()
        metrics.counter("repro_worker_chunks_total", "chunks").inc(3)
        metrics.histogram(
            "repro_worker_compute_seconds", "compute", buckets=(0.1, 1.0)
        ).observe(0.5)
        aggregator = TelemetryAggregator()
        aggregator.ingest({"metrics": metrics.to_json()}, process="w0")
        text = aggregator.render_remote_prometheus()
        assert 'repro_worker_chunks_total{process="w0"} 3' in text
        assert 'repro_worker_compute_seconds_count{process="w0"} 1' in text
        assert 'le=' in text

    def test_to_dict_shape_matches_the_trace_verb(self):
        aggregator = TelemetryAggregator()
        store = aggregator.to_dict()
        assert set(store) == {
            "spans", "events", "clock_offsets", "processes", "trace_ids"
        }


class TestDistributedChromeTrace:
    def _record(self, **overrides):
        record = {
            "name": "chunk.process", "process": "w0", "category": "compute",
            "start": 100.0, "duration": 0.5, "trace_id": "a" * 32,
            "span_id": "b" * 16, "parent_span_id": "c" * 16,
            "args": {"lane": 2, "chunk_id": 1},
        }
        record.update(overrides)
        return record

    def test_track_groups_order_gateway_daemon_workers(self):
        events = distributed_trace_events([
            self._record(process="w1", start=101.0),
            self._record(process="gateway", name="gateway.submit", args={}),
            self._record(process="daemon", name="job.run", args={}),
        ])
        names = {
            e["args"]["name"]: e["pid"]
            for e in events if e.get("name") == "process_name"
        }
        assert names["distributed: gateway"] < names["distributed: daemon"]
        assert names["distributed: daemon"] < names["distributed: w1"]

    def test_lane_arg_selects_thread_and_timeline_rezeroed(self):
        events = distributed_trace_events(
            [self._record(start=50.0), self._record(start=51.0, args={})]
        )
        complete = [e for e in events if e["ph"] == "X"]
        assert complete[0]["ts"] == 0.0           # earliest span is the zero
        assert complete[0]["tid"] == 2            # lane arg moved to tid
        assert complete[1]["tid"] == 0
        assert complete[0]["args"]["span_id"] == "b" * 16
        assert "lane" not in complete[0]["args"]

    def test_incomplete_spans_are_skipped(self):
        assert distributed_trace_events([self._record(duration=None)]) == []


class TestHealthzDegradedWindow:
    def _gateway(self, tmp_path, **config_kwargs):
        daemon = APSTDaemon(
            das2_cluster(nodes=2, total_load=400.0),
            config=DaemonConfig(base_dir=tmp_path, seed=1),
        )
        return JobGateway(daemon, config=GatewayConfig(**config_kwargs))

    def test_healthy_until_the_window_elapses(self, tmp_path):
        gateway = self._gateway(tmp_path, degraded_window_s=30.0)
        assert gateway._healthz_response()["status"] == "ok"
        gateway._note_queue_full()
        assert gateway._healthz_response()["status"] == "ok"  # within window

    def test_sustained_saturation_reports_degraded_503(self, tmp_path):
        gateway = self._gateway(tmp_path, degraded_window_s=0.05)
        gateway._note_queue_full()
        time.sleep(0.08)
        response = gateway._healthz_response()
        assert response["status"] == "error"
        assert response["error_code"] == "degraded"
        assert http_status_for(response) == 503

    def test_successful_admission_clears_saturation(self, tmp_path):
        gateway = self._gateway(tmp_path, degraded_window_s=0.05)
        gateway._note_queue_full()
        time.sleep(0.08)
        gateway._note_admitted()
        assert gateway._healthz_response()["status"] == "ok"


class TestJsonlSinkDurability:
    def test_close_flushes_and_fsyncs_owned_files(self, tmp_path, monkeypatch):
        synced = []
        import repro.obs.events as events_module
        real_fsync = events_module.os.fsync
        monkeypatch.setattr(
            events_module.os, "fsync",
            lambda fd: (synced.append(fd), real_fsync(fd)),
        )
        path = tmp_path / "events.jsonl"
        bus = EventBus([JsonlSink(path)])
        bus.emit(CHUNK_COMPLETED, chunk_id=1, worker="w0")
        bus.close()
        assert synced, "close() must fsync the event log"
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["name"] == CHUNK_COMPLETED

    def test_close_tolerates_streams_without_a_real_fd(self):
        stream = io.StringIO()
        bus = EventBus([JsonlSink(stream)])
        bus.emit(CHUNK_COMPLETED, chunk_id=2)
        bus.close()  # StringIO.fileno() raises; close must swallow it
        assert json.loads(stream.getvalue())["fields"]["chunk_id"] == 2


TASK_XML = """
<task executable="app" input="load.bin">
  <divisibility input="load.bin" method="uniform" start="0"
                steptype="bytes" stepsize="10" algorithm="umr"
                probe="probe.bin"/>
</task>
"""


class TestDistributedTraceEndToEnd:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        """One job through a real gateway to 2 socket workers, trace fetched."""
        tmp_path = tmp_path_factory.mktemp("dist_trace")
        (tmp_path / "load.bin").write_bytes(bytes(255) * 8)  # 2040 bytes
        (tmp_path / "probe.bin").write_bytes(bytes(100))
        observability = Observability.armed(distributed=True)
        daemon = APSTDaemon(
            das2_cluster(nodes=2, total_load=2040.0),
            config=DaemonConfig(base_dir=tmp_path, seed=3,
                                observability=observability),
        )
        pool = RemoteWorkerPool()
        pool.spawn(2, app_spec(DigestApp), tmp_path / "workers")
        gateway = JobGateway(daemon, config=GatewayConfig(), worker_pool=pool)
        gateway.start_in_background()
        try:
            with GatewayClient(gateway.host, gateway.port) as client:
                assert client.ping()["workers"] == 2
                job_id = client.submit(TASK_XML)
                assert client.wait(job_id, timeout_s=120)["state"] == "done"
                trace = client.trace()
            yield gateway, trace, tmp_path
        finally:
            gateway.shutdown()

    def test_merged_trace_links_every_process(self, traced_run):
        _, trace, _ = traced_run
        spans = trace["spans"]
        processes = {s["process"] for s in spans}
        worker_names = {p for p in processes if p.startswith("netw")}
        assert {"gateway", "daemon"} <= processes
        assert len(worker_names) == 2

        # one trace: every identified span shares the submit's trace id
        trace_ids = {s["trace_id"] for s in spans if s.get("trace_id")}
        assert len(trace_ids) == 1
        assert trace["trace_ids"] == sorted(trace_ids)

        # causal links: every worker chunk span has a parent span that
        # was recorded in the daemon process
        by_id = {s["span_id"]: s for s in spans if s.get("span_id")}
        worker_chunk_spans = [
            s for s in spans
            if s["process"] in worker_names and s["name"].startswith("chunk.")
        ]
        assert worker_chunk_spans
        for span in worker_chunk_spans:
            parent = by_id.get(span.get("parent_span_id"))
            assert parent is not None, f"unparented worker span: {span}"
            assert parent["process"] == "daemon"

        # both workers measured an offset from real round trips
        assert set(trace["clock_offsets"]) == worker_names
        for estimate in trace["clock_offsets"].values():
            assert estimate["samples"] >= 1
            assert estimate["rtt_s"] >= 0.0

    def test_children_start_after_parents_post_correction(self, traced_run):
        _, trace, _ = traced_run
        spans = trace["spans"]
        by_id = {s["span_id"]: s for s in spans if s.get("span_id")}
        checked = 0
        for span in spans:
            parent = by_id.get(span.get("parent_span_id"))
            if parent is None:
                continue
            checked += 1
            # corrected timestamps: children cannot start before their
            # parent (tolerance = the offset estimates' RTT bound)
            tolerance = 2 * max(
                (e["rtt_s"] for e in trace["clock_offsets"].values()),
                default=0.0,
            )
            assert span["start"] >= parent["start"] - tolerance, (
                f"{span['name']} in {span['process']} starts "
                f"{parent['start'] - span['start']:.6f}s before its parent "
                f"{parent['name']}"
            )
        assert checked >= 8  # job.run + engine + dispatch/process chains

    def test_exported_chrome_trace_validates_against_schema(self, traced_run):
        gateway, _, tmp_path = traced_run
        out = tmp_path / "distributed_trace.json"
        gateway.export_trace(out)
        assert validate_trace_file(out) == []
        chrome = json.loads(out.read_text())
        track_names = {
            e["args"]["name"]
            for e in chrome["traceEvents"] if e.get("name") == "process_name"
        }
        assert {"distributed: gateway", "distributed: daemon"} <= track_names
        assert len(track_names) == 4

    def test_gateway_metrics_include_worker_histograms_and_e2e(self, traced_run):
        gateway, trace, _ = traced_run
        aggregator = gateway._obs.aggregator
        remote_text = aggregator.render_remote_prometheus()
        assert 'repro_worker_chunks_total{process="netw0"}' in remote_text
        assert "repro_worker_compute_seconds_bucket" in remote_text
        local_text = gateway._obs.metrics.render_prometheus()
        assert "repro_net_job_e2e_seconds_count 1" in local_text
        assert trace["gateway"]["queue_depth"]  # time series captured
