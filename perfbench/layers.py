"""Per-layer metrics from a traced run's spans and counters.

Every workload reports the same per-layer metric names; a layer that
does no work on a workload reports 0 there (see README.md for the
prediction table).
"""

from __future__ import annotations

import bisect
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from spans import SpanRecorder, covered_length, layer_of, self_times_sorted

#: per-layer metric -> unit, in report order
PER_LAYER_UNITS = {
    "dispatch.self_us_per_chunk": "us",
    "dispatch.callback_us_per_chunk": "us",
    "dispatch.polls_per_dispatch": "ratio",
    "core.self_us_per_chunk": "us",
    "core.calls_per_chunk": "ratio",
    "division.self_us_per_chunk": "us",
    "division.calls_per_chunk": "ratio",
    "division.extract_ms_per_mb": "ms/MB",
    "simulation.self_us_per_chunk": "us",
    "simulation.wait_calls_per_chunk": "ratio",
    "apst.submit_ms": "ms",
    "apst.prepare_ms": "ms",
    "apst.run_ms_per_job": "ms",
    "service.segments_per_job": "ratio",
    "service.self_ms_per_job": "ms",
    "store.ops_per_job": "ratio",
    "store.ms_per_job": "ms",
    "store.conflicts": "count",
    "net.submit_rtt_ms": "ms",
    "net.status_rtt_ms": "ms",
    "net.status_polls_per_job": "ratio",
    "net.backpressure_retries_per_submit": "ratio",
    "net.overhead_ms_per_job": "ms",
    "net.remote.send_ms_per_mb": "ms/MB",
    "net.remote.chunk_rtt_ms": "ms",
    "net.wire_bytes_per_payload_byte": "ratio",
    "execution.modeled_sleep_share": "ratio",
    "net.teardown_s": "s",
    "trace.delta_jobs_per_s": "1/s",
    "trace.delta_job_p50_ms": "ms",
}

MB = float(1 << 20)


@dataclass
class SpanTotals:
    """Per span name: calls, total duration and self time (seconds)."""

    calls: Counter = field(default_factory=Counter)
    duration: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    durations: dict = field(default_factory=lambda: defaultdict(list))

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if layer_of(k) == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if layer_of(k) == layer)


def totals(rec: SpanRecorder, keep_durations=()) -> SpanTotals:
    out = SpanTotals()
    names = rec.names
    keep = {i for i, name in enumerate(names) if name in keep_durations}
    for name_ids, parent, start, end, _attrs in rec.columns():
        own = self_times_sorted(parent, start, end)
        for i, nid in enumerate(name_ids):
            if end[i] == 0.0:
                continue  # never closed
            name = names[nid]
            out.calls[name] += 1
            out.duration[name] += end[i] - start[i]
            out.self_s[name] += own[i]
            if nid in keep:
                out.durations[name].append(end[i] - start[i])
    # calls made through count-only proxies (trivial accessors)
    for key, n in rec.counts.items():
        if key.startswith("calls:"):
            out.calls[key[len("calls:"):]] += n
    return out


@dataclass
class Batch:
    """One runner batch: claim_pending through its last record_result."""

    jobs: list[int]
    start: float
    end: float
    service_self: float


def batches(rec: SpanRecorder) -> tuple[list[Batch], dict[int, float]]:
    """Runner batches and each job's ``apst.submit`` duration.

    A batch opens when ``claim_pending`` hands back jobs and closes at
    the last ``record_result`` of those jobs on the same thread.  The
    batch's service self time is its window minus every span of that
    thread that covers part of it (daemon, store, scheduler ... calls):
    what is left is the service layer's own code (manager, arbiter and
    the ``ServiceClock`` driver).
    """
    out: list[Batch] = []
    submit_s: dict[int, float] = {}
    names = rec.names
    for name_ids, parent, start, end, attrs in rec.columns():
        recorded: dict[int, float] = {}
        claims = []
        for i, attr in attrs.items():
            name = names[name_ids[i]]
            if name == "apst.claim_pending" and attr:
                claims.append((i, list(attr)))
            elif name == "apst.record_result":
                recorded[attr] = end[i]
            elif name == "apst.submit":
                submit_s[attr] = end[i] - start[i]
        if not claims:
            continue
        for claim, jobs in claims:
            ends = [recorded[j] for j in jobs if j in recorded]
            if not ends:
                continue
            claim_start, end_ = start[claim], max(ends)
            # spans overlapping the window: the claim's ancestors, and
            # the spans that start inside it (start order = index order)
            inside = range(claim, bisect.bisect_right(start, end_, lo=claim))
            ancestors = []
            p = parent[claim]
            while p >= 0:
                ancestors.append(p)
                p = parent[p]
            busy = covered_length(
                claim_start, end_,
                [(start[i], end[i]) for i in (*ancestors, *inside) if end[i] > 0.0],
            )
            out.append(Batch(jobs, claim_start, end_, (end_ - claim_start) - busy))
    return out, submit_s


def per_chunk(value: float, chunks: int) -> float:
    return value / chunks if chunks else 0.0


def compute(
    rec: SpanRecorder,
    *,
    jobs: int,
    chunks: int,
    job_latency: dict[int, float] | None = None,
    client_stats=None,
    substrate_stats=(),
    teardowns=(),
    job_wall_s: float = 0.0,
    time_scale: float = 0.0,
) -> dict[str, float]:
    """Every per-layer metric (0 where the layer did no work)."""
    t = totals(rec, keep_durations=("net.client.submit", "net.client.status"))
    m = {name: 0.0 for name in PER_LAYER_UNITS}

    dispatch_cb = t.self_s["dispatch.chunk_arrived"] + t.self_s["dispatch.chunk_completed"]
    m["dispatch.self_us_per_chunk"] = per_chunk(t.layer_self("dispatch"), chunks) * 1e6
    m["dispatch.callback_us_per_chunk"] = per_chunk(dispatch_cb, chunks) * 1e6
    m["dispatch.polls_per_dispatch"] = per_chunk(t.calls["core.next_dispatch"], chunks)
    m["core.self_us_per_chunk"] = per_chunk(t.layer_self("core"), chunks) * 1e6
    m["core.calls_per_chunk"] = per_chunk(t.layer_calls("core"), chunks)
    m["division.self_us_per_chunk"] = per_chunk(t.layer_self("division"), chunks) * 1e6
    m["division.calls_per_chunk"] = per_chunk(t.layer_calls("division"), chunks)
    extracted = rec.counts["division.extract.bytes"]
    if extracted:
        m["division.extract_ms_per_mb"] = t.self_s["division.extract"] * 1e3 / (extracted / MB)
    m["simulation.self_us_per_chunk"] = per_chunk(t.layer_self("simulation"), chunks) * 1e6
    m["simulation.wait_calls_per_chunk"] = per_chunk(t.calls["simulation.host.wait"], chunks)

    def mean_ms(name: str) -> float:
        return t.duration[name] / t.calls[name] * 1e3 if t.calls[name] else 0.0

    m["apst.submit_ms"] = mean_ms("apst.submit")
    m["apst.prepare_ms"] = mean_ms("apst.prepare")
    if jobs:
        # run_pending contains the remote runs; simulate_segment calls
        # are the service's runs and never nest inside run_pending here
        run_s = t.duration["apst.run_pending"] + t.duration["apst.simulate_segment"]
        m["apst.run_ms_per_job"] = run_s * 1e3 / jobs
        m["service.segments_per_job"] = t.calls["apst.simulate_segment"] / jobs
        m["store.ops_per_job"] = t.layer_calls("store") / jobs
        m["store.ms_per_job"] = sum(
            v for k, v in t.duration.items() if layer_of(k) == "store"
        ) * 1e3 / jobs
    m["store.conflicts"] = float(rec.counts["store.conflicts"])

    found, submit_s = batches(rec)
    if jobs:
        m["service.self_ms_per_job"] = sum(b.service_self for b in found) * 1e3 / jobs
    if job_latency:
        overheads = []
        for batch in found:
            for job_id in batch.jobs:
                if job_id in job_latency:
                    in_program = (batch.end - batch.start) + submit_s.get(job_id, 0.0)
                    overheads.append(job_latency[job_id] - in_program)
        if overheads:
            m["net.overhead_ms_per_job"] = statistics.fmean(overheads) * 1e3

    submits = t.durations.get("net.client.submit") or []
    statuses = t.durations.get("net.client.status") or []
    if submits:
        m["net.submit_rtt_ms"] = statistics.median(submits) * 1e3
        if client_stats:
            retries = sum(s.backpressure_retries for s in client_stats)
            m["net.backpressure_retries_per_submit"] = retries / len(submits)
    if statuses:
        m["net.status_rtt_ms"] = statistics.median(statuses) * 1e3
    if jobs and statuses:
        m["net.status_polls_per_job"] = len(statuses) / jobs

    rtts = [r for s in substrate_stats for r in s.chunk_rtts]
    if rtts:
        m["net.remote.chunk_rtt_ms"] = statistics.median(rtts) * 1e3
    wire = payload = 0
    modeled = 0.0
    for s in substrate_stats:
        w, p = s.wire_bytes()
        wire += w
        payload += p
        modeled += s.modeled_s
    if payload:
        send_s = t.self_s["net.transport.send"] + t.self_s["net.host.enqueue"]
        m["net.remote.send_ms_per_mb"] = send_s * 1e3 / (payload / MB)
        m["net.wire_bytes_per_payload_byte"] = wire / payload
    if job_wall_s and modeled:
        m["execution.modeled_sleep_share"] = modeled * time_scale / job_wall_s
    if teardowns:
        m["net.teardown_s"] = statistics.median(teardowns)
    return m


def put_trace_delta(metrics: dict, traced, untraced) -> None:
    """Tracing overhead: the traced phase's end-to-end numbers minus the
    untraced phase's, as the contract reports them."""
    for name, key in (("trace.delta_jobs_per_s", "jobs_per_s"), ("trace.delta_job_p50_ms", "job_p50_ms")):
        metrics[name] = traced.metrics[key].value - untraced.metrics[key].value
