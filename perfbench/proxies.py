"""Outside-in layer timing: proxies around the objects layers hand each other.

Nothing here changes what the program decides.  Each proxy forwards
every call to the real object, unchanged, inside a span named
``<layer>.<what>`` (see ``spans.py``).  The wrapped boundaries are the
public ones:

* the ``Scheduler`` handed to ``DispatchCore`` (layer ``core``);
* the ``DivisionMethod`` (layer ``division``);
* the transport, compute host, clock and probe-cost source of a
  ``DispatchSubstrate``, and the core callbacks those call back into
  (layer ``simulation`` or ``net`` for transport/host/probe by
  substrate, ``execution`` for the scaled wall clock, ``dispatch`` for
  the core);
* the ``JobStore`` given to ``APSTDaemon(store=)`` (layer ``store``);
* the daemon's public job verbs, through :class:`TracedDaemon`
  (layer ``apst``), whose ``simulate_segment`` builds each segment from
  the public parts (``build_substrate`` + ``DispatchCore``) so the
  service's segments are traced layer by layer too;
* ``GatewayClient`` requests (layer ``net``).

``DispatchCore.run`` itself is bracketed by the host's ``start()`` and
``stop()`` calls, so the host proxy opens the ``dispatch.run`` span in
``start()`` and closes it after ``stop()``.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from time import perf_counter

from repro.apst.daemon import APSTDaemon
from repro.apst.division import UniformUnitsDivision
from repro.dispatch.core import DispatchCore
from repro.dispatch.protocols import DispatchSubstrate
from repro.net.client import GatewayClient
from repro.store import StoreConflictError
from repro.net.protocol import encode_payload
from repro.net.remote import RemoteExecutionBackend
from repro.simulation.compute import UncertaintyModel
from repro.simulation.master import SimulationOptions, build_substrate

from spans import SpanRecorder

#: wall seconds per modeled second on the remote substrate; the gateway
#: builds its ``RemoteExecutionBackend`` with the default
REMOTE_TIME_SCALE = inspect.signature(RemoteExecutionBackend).parameters[
    "time_scale"
].default


class _Forward:
    """Forward attributes; wrap the named methods in spans.

    ``counted`` methods are trivial accessors called several times per
    chunk: a span around them would mostly time its own clock reads, so
    they are only counted and their time stays with the caller.
    """

    def __init__(self, target, rec: SpanRecorder, prefix: str, methods, counted=()) -> None:
        self._t = target
        self._rec = rec
        for method in methods:
            nid = rec.name_id(f"{prefix}.{method}")
            fn = getattr(target, method)
            setattr(self, method, self._wrap(nid, fn))
        for method in counted:
            setattr(self, method, self._count(f"calls:{prefix}.{method}", getattr(target, method)))

    def _count(self, key: str, fn):
        counts = self._rec.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, nid: int, fn):
        rec = self._rec

        def traced(*args, **kwargs):
            index = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(index)

        return traced

    def __getattr__(self, name):
        return getattr(self._t, name)


class SchedulerProxy(_Forward):
    """A ``Scheduler`` whose every call is a ``core.*`` span."""

    def __init__(self, scheduler, rec: SpanRecorder) -> None:
        super().__init__(
            scheduler, rec, "core",
            ("configure", "notify_dispatched", "notify_arrival", "notify_completion", "annotations"),
        )
        self._next_id = rec.name_id("core.next_dispatch")

    def next_dispatch(self, now, workers):
        request = self._rec.call(self._next_id, self._t.next_dispatch, now, workers)
        if request is None:
            self._rec.count("core.next_dispatch.none")
        return request


class DivisionProxy(_Forward):
    """A ``DivisionMethod`` whose every call is a ``division.*`` span."""

    def __init__(self, division, rec: SpanRecorder) -> None:
        super().__init__(
            division, rec, "division", ("nearest_cutoff", "next_cutoff", "validate_extent")
        )
        self._extract_id = rec.name_id("division.extract")

    @property
    def total_units(self) -> float:
        self._rec.count("calls:division.total_units")
        return self._t.total_units

    def extract(self, extent):
        payload = self._rec.call(self._extract_id, self._t.extract, extent)
        if payload is not None:
            self._rec.count("division.extract.bytes", payload.nbytes)
        return payload


class _CoreProxy(_Forward):
    """The driver port the transport and host call back into."""

    def __init__(self, core, rec: SpanRecorder, substrate_stats: "SubstrateStats") -> None:
        super().__init__(core, rec, "dispatch", ("chunk_arrived", "chunk_failed", "output_done"))
        self._completed_id = rec.name_id("dispatch.chunk_completed")
        self._stats = substrate_stats

    def chunk_completed(self, chunk, result_path=None):
        enqueued = self._stats.enqueued_at.pop(chunk.chunk_id, None)
        if enqueued is not None:
            self._stats.chunk_rtts.append(perf_counter() - enqueued)
        index = self._rec.open(self._completed_id)
        try:
            return self._t.chunk_completed(chunk, result_path=result_path)
        finally:
            self._rec.close(index)


@dataclasses.dataclass
class SubstrateStats:
    """What the substrate proxies observed, beyond spans."""

    chunk_rtts: list = dataclasses.field(default_factory=list)
    enqueued_at: dict = dataclasses.field(default_factory=dict)
    #: (payload bytes, chunk id, units) of every remote chunk, for the
    #: computed wire-size ratio
    frames: list = dataclasses.field(default_factory=list)
    #: modeled seconds of transfer + compute the substrate slept through
    modeled_s: float = 0.0

    def wire_bytes(self) -> tuple[int, int]:
        """(computed wire bytes, payload bytes) over every remote chunk.

        Each chunk's frame is rebuilt the way the remote host frames it
        (a JSON ``process`` request carrying the base64 payload, one
        line); a zero payload of the same length encodes to the same
        size, so the real bytes need not be kept.
        """
        wire = payload = 0
        for nbytes, chunk_id, units in self.frames:
            request = {
                "cmd": "process", "chunk_id": chunk_id,
                "data_b64": encode_payload(bytes(nbytes)), "units": units,
                "min_wall_time": 0.0,
            }
            wire += len(json.dumps(request).encode("utf-8")) + 1
            payload += nbytes
        return wire, payload


class _HostProxy(_Forward):
    def __init__(self, host, rec, layer, stats: SubstrateStats, grid, remote: bool) -> None:
        # the simulated host's poll() is a no-op; the remote host's
        # drains replies and writes result files, so it is spanned
        spanned = ("wait", "idle_tick", "poll") if remote else ("wait", "idle_tick")
        super().__init__(
            host, rec, f"{layer}.host", spanned, counted=() if remote else ("poll",)
        )
        self._run_id = rec.name_id("dispatch.run")
        self._start_id = rec.name_id(f"{layer}.host.start")
        self._stop_id = rec.name_id(f"{layer}.host.stop")
        self._enqueue_id = rec.name_id(f"{layer}.host.enqueue")
        self._run_index: int | None = None
        self._stats = stats
        self._grid = grid
        self._remote = remote

    def start(self) -> None:
        self._run_index = self._rec.open(self._run_id)
        self._rec.call(self._start_id, self._t.start)

    def stop(self) -> None:
        try:
            self._rec.call(self._stop_id, self._t.stop)
        finally:
            if self._run_index is not None:
                self._rec.close(self._run_index)
                self._run_index = None

    def enqueue(self, chunk, payload) -> None:
        if self._remote:
            self._stats.frames.append((len(payload), chunk.chunk_id, chunk.units))
            self._stats.modeled_s += self._grid.workers[chunk.worker_index].compute_time(
                chunk.units
            )
        index = self._rec.open(self._enqueue_id)
        self._stats.enqueued_at[chunk.chunk_id] = perf_counter()
        try:
            return self._t.enqueue(chunk, payload)
        finally:
            self._rec.close(index)


class _TransportProxy(_Forward):
    def __init__(self, transport, rec, layer, stats: SubstrateStats, grid, remote: bool) -> None:
        super().__init__(transport, rec, f"{layer}.transport", ("send", "send_output"))
        self._busy_key = f"calls:{layer}.transport.busy"
        if remote:
            send = self.send

            def send_modeled(chunk, extent):
                stats.modeled_s += grid.workers[chunk.worker_index].transfer_time(extent.units)
                return send(chunk, extent)

            self.send = send_modeled

    @property
    def busy(self):
        self._rec.counts[self._busy_key] += 1
        return self._t.busy


class _ProbeCostsProxy(_Forward):
    def __init__(self, costs, rec, layer, stats: SubstrateStats, grid, remote: bool) -> None:
        super().__init__(
            costs, rec, f"{layer}.probe",
            ("realized_transfer_time", "realized_compute_time"),
        )
        if remote:
            transfer, compute = self.realized_transfer_time, self.realized_compute_time

            def transfer_modeled(index, units):
                stats.modeled_s += grid.workers[index].transfer_time(units)
                return transfer(index, units)

            def compute_modeled(index, units):
                stats.modeled_s += grid.workers[index].compute_time(units)
                return compute(index, units)

            self.realized_transfer_time = transfer_modeled
            self.realized_compute_time = compute_modeled


def wrap_substrate(
    substrate: DispatchSubstrate, rec: SpanRecorder, grid, *, remote: bool
) -> tuple[DispatchSubstrate, SubstrateStats]:
    """A substrate whose transport, host, clock, probe costs and core
    callbacks are all spanned; returns it with its observation record."""
    layer = "net" if remote else "simulation"
    clock_layer = "execution" if remote else "simulation"
    stats = SubstrateStats()
    transport = _TransportProxy(substrate.transport, rec, layer, stats, grid, remote)
    host = _HostProxy(substrate.host, rec, layer, stats, grid, remote)
    clock = _Forward(substrate.clock, rec, f"{clock_layer}.clock", (), counted=("now",))
    probe = _ProbeCostsProxy(substrate.probe_costs, rec, layer, stats, grid, remote)
    wrapped = dataclasses.replace(
        substrate, clock=clock, transport=transport, host=host, probe_costs=probe
    )

    def bind(core) -> None:
        port = _CoreProxy(core, rec, stats)
        substrate.transport.bind(port)
        substrate.host.bind(port)

    # DispatchSubstrate.bind binds the transport and host to the core;
    # bind the real ones to the spanned driver port instead
    wrapped.bind = bind
    return wrapped, stats


def traced_simulation(grid, scheduler, total_units: float, rec: SpanRecorder, *,
                      uncertainty: UncertaintyModel, seed, options: SimulationOptions,
                      division=None):
    """What ``SimulatedMaster(...).run()`` does, every layer proxied:
    ``build_substrate``, spanned, driving a ``DispatchCore`` over the
    spanned scheduler and division (the core's default division when
    none is given)."""
    substrate = build_substrate(grid, uncertainty=uncertainty, seed=seed, options=options)
    substrate, _stats = wrap_substrate(substrate, rec, grid, remote=False)
    if division is None:
        division = UniformUnitsDivision(total=total_units, step=options.quantum)
    if not isinstance(division, DivisionProxy):
        division = DivisionProxy(division, rec)
    if not isinstance(scheduler, SchedulerProxy):
        scheduler = SchedulerProxy(scheduler, rec)
    core = DispatchCore(
        grid, scheduler, total_units, substrate=substrate, division=division, options=options
    )
    return core.run()


class TracedBackend:
    """An execution backend whose substrates are wrapped (remote runs)."""

    def __init__(self, backend, rec: SpanRecorder, sink: list) -> None:
        self._b = backend
        self._rec = rec
        self._sink = sink

    def __getattr__(self, name):
        return getattr(self._b, name)

    def substrate(self, grid, division, task=None):
        substrate = self._b.substrate(grid, division, task)
        wrapped, stats = wrap_substrate(substrate, self._rec, grid, remote=True)
        self._sink.append(stats)
        return wrapped


class StoreProxy(_Forward):
    """A ``JobStore`` whose every method call is a ``store.*`` span."""

    METHODS = (
        "insert_job", "get_job", "list_jobs", "counts", "transition", "claim",
        "release", "steal_expired", "claimable", "transitions", "claim_audit",
        "park", "dlq_entries", "dlq_get", "dlq_mark_replayed", "dlq_purge",
        "tenant_usage", "tenant_usages", "tenant_charge",
    )

    def __init__(self, store, rec: SpanRecorder) -> None:
        super().__init__(store, rec, "store", ())
        for method in self.METHODS:
            setattr(self, method, self._traced(rec.name_id(f"store.{method}"), getattr(store, method)))

    def _traced(self, nid: int, fn):
        """Span the call and count the store's CAS conflicts."""
        rec = self._rec

        def traced(*args, **kwargs):
            index = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            except StoreConflictError:
                rec.count("store.conflicts")
                raise
            finally:
                rec.close(index)

        return traced


@dataclasses.dataclass
class Segment:
    """One traced ``simulate_segment`` call: its inputs, unproxied, and
    what the traced run reported, for :meth:`TracedDaemon.check_segments`."""

    grid: object
    scheduler_factory: object
    total_units: float
    division: object
    probe_units: float | None
    seed: int | None
    quantum: float | None
    makespan: float
    chunks: int


class TracedDaemon(APSTDaemon):
    """The daemon with its public job verbs spanned (layer ``apst``).

    ``prepare`` also hands back spanned scheduler and division objects,
    remote backends installed through ``set_backend`` get spanned
    substrates, and ``simulate_segment`` runs the segment with every
    layer proxied (:func:`traced_simulation`), so every run the daemon
    starts is traced.
    """

    def __init__(self, *args, recorder: SpanRecorder, **kwargs) -> None:
        self._rec = recorder
        self.substrate_stats: list[SubstrateStats] = []
        self.segments: list[Segment] = []
        self._sid = {
            m: recorder.name_id(f"apst.{m}")
            for m in (
                "submit", "prepare", "simulate_segment", "run_pending",
                "claim_pending", "record_result",
            )
        }
        super().__init__(*args, **kwargs)

    def set_backend(self, backend) -> None:
        if isinstance(backend, RemoteExecutionBackend):
            backend = TracedBackend(backend, self._rec, self.substrate_stats)
        super().set_backend(backend)

    def submit(self, task, **kwargs) -> int:
        index = self._rec.open(self._sid["submit"])
        job_id = None
        try:
            job_id = super().submit(task, **kwargs)
            return job_id
        finally:
            self._rec.close(index, job_id)

    def prepare(self, job_id):
        prepared = self._rec.call(self._sid["prepare"], super().prepare, job_id)
        factory = prepared.scheduler_factory
        rec = self._rec

        def make_scheduler():
            scheduler = SchedulerProxy(factory(), rec)
            scheduler.fresh = factory  # an unproxied twin, for check_segments
            return scheduler

        return dataclasses.replace(
            prepared,
            division=DivisionProxy(prepared.division, rec),
            scheduler_factory=make_scheduler,
        )

    def simulate_segment(self, grid, scheduler, total_units, *, division=None,
                         probe_units=None, seed=None, quantum=None):
        """``APSTDaemon.simulate_segment`` with every layer proxied.

        The options are derived as the daemon derives them (``obs``
        stays off); :meth:`check_segments` proves the result unchanged.
        """
        config = self.config
        options = config.simulation_options or SimulationOptions()
        if probe_units is not None and options.probe_units is None:
            options = dataclasses.replace(options, probe_units=probe_units)
        if config.retry is not None:
            options = dataclasses.replace(options, retry=config.retry)
        if config.resilience is not None:
            options = dataclasses.replace(options, resilience=config.resilience)
        if quantum is not None and quantum != options.quantum:
            options = dataclasses.replace(options, quantum=quantum)
        uncertainty = UncertaintyModel(
            gamma=config.gamma, autocorrelation=config.noise_autocorrelation
        )
        report = self._rec.call(
            self._sid["simulate_segment"], traced_simulation, grid, scheduler, total_units,
            self._rec, uncertainty=uncertainty, seed=seed, options=options, division=division,
        )
        self.segments.append(Segment(
            grid, scheduler.fresh, total_units, getattr(division, "_t", division),
            probe_units, seed, quantum, report.makespan, report.num_chunks,
        ))
        return report

    def check_segments(self, checks) -> None:
        """Re-run every traced segment through the untraced
        ``APSTDaemon.simulate_segment``; makespans and chunk counts must
        be identical (the proxies change no decision)."""
        for n, seg in enumerate(self.segments):
            plain = APSTDaemon.simulate_segment(
                self, seg.grid, seg.scheduler_factory(), seg.total_units,
                division=seg.division, probe_units=seg.probe_units, seed=seg.seed,
                quantum=seg.quantum,
            )
            checks.expect(
                (plain.makespan, plain.num_chunks) == (seg.makespan, seg.chunks),
                f"segment {n}: proxied ({seg.makespan!r}, {seg.chunks}) != "
                f"unproxied ({plain.makespan!r}, {plain.num_chunks})",
            )

    def run_pending(self, **kwargs):
        return self._rec.call(self._sid["run_pending"], super().run_pending, **kwargs)

    def claim_pending(self, limit=None):
        index = self._rec.open(self._sid["claim_pending"])
        jobs = []
        try:
            jobs = super().claim_pending(limit)
            return jobs
        finally:
            self._rec.close(index, [job.job_id for job in jobs] or None)

    def record_result(self, job, report) -> bool:
        index = self._rec.open(self._sid["record_result"])
        try:
            return super().record_result(job, report)
        finally:
            self._rec.close(index, job.job_id)


class TracedClient(_Forward):
    """``GatewayClient`` requests as ``net.client.*`` spans."""

    #: the SDK's own poll loop, polling through the spanned ``status``
    wait = GatewayClient.wait

    def __init__(self, client, rec: SpanRecorder) -> None:
        super().__init__(client, rec, "net.client", ("submit", "status"))
