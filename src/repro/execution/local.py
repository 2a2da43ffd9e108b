"""Real local execution backend: threads, real bytes, real computation.

The paper deploys chunks to remote workers over Ssh/Scp/Globus; APST hides
those mechanisms from the scheduler.  This backend is our local stand-in
with the same shape, expressed as a substrate for the shared
:class:`~repro.dispatch.core.DispatchCore`:

* the clock is scaled wall time (``time_scale`` wall seconds per modeled
  second, so a 6000-second modeled run finishes in seconds);
* the transport is the master thread itself *serially* "transferring"
  chunks -- extracting the chunk payload via the division method and
  holding the link (sleeping) for the modeled transfer duration;
* the compute host is one thread per worker that *really computes* on the
  chunk bytes (via a pluggable application processor), padded up to the
  modeled duration when the real computation is faster;
* the probe cost source *measures* those scaled transfers and real
  computations, so estimates carry genuine measurement noise.

All reported times are in modeled seconds, directly comparable to the
simulation backend.  Because the computation and the thread scheduling
are real, observed times carry hardware noise on top of the model -- this
backend is how the repository demonstrates the full APST-DV code path end
to end, including the case study's split/encode/merge pipeline.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from ..apst.division import ChunkExtent, DivisionMethod
from ..apst.xmlspec import TaskSpec
from ..dispatch.core import DispatchCore, DispatchOptions
from ..dispatch.protocols import DispatchSubstrate
from ..errors import ExecutionError
from ..platform.resources import Grid
from ..simulation.trace import ChunkTrace, ExecutionReport


class AppProcessor(Protocol):
    """A divisible application: processes chunk bytes, returns result bytes."""

    def process(self, data: bytes, units: float | None = None) -> bytes:
        ...


class DigestApp:
    """Minimal real application: hash the chunk (used when none is given)."""

    def process(self, data: bytes, units: float | None = None) -> bytes:
        import hashlib

        return hashlib.sha256(data).digest()


class ScaledWallClock:
    """Modeled time derived from the wall clock: (elapsed wall) / scale."""

    __slots__ = ("_scale", "_t0")

    def __init__(self, scale: float) -> None:
        self._scale = scale
        self._t0 = time.perf_counter()

    def now(self) -> float:
        """Current modeled time in seconds."""
        return (time.perf_counter() - self._t0) / self._scale

    def sleep_model(self, model_seconds: float) -> None:
        """Hold the calling thread for a modeled duration."""
        if model_seconds > 0:
            time.sleep(model_seconds * self._scale)


def payload_for(
    division: DivisionMethod, extent: ChunkExtent, payload_cap: int
) -> bytes:
    """Chunk bytes for an extent: real division payload, or synthetic."""
    payload_obj = division.extract(extent) if extent.units > 0 else None
    if payload_obj is not None:
        return payload_obj.read_bytes()
    # abstract load: synthesize a placeholder payload (capped)
    return bytes(min(int(extent.units), payload_cap))


class SerialLinkTransport:
    """The master thread sleeping through the transfer IS the serialized link.

    Shared by every wall-clock substrate: it extracts the chunk payload,
    holds the link for the modeled transfer duration, and hands the bytes
    to the compute host (worker threads, or socket workers).
    """

    supports_outputs = False

    def __init__(
        self, grid: Grid, division: DivisionMethod, clock: ScaledWallClock, payload_cap: int
    ) -> None:
        self._grid = grid
        self._division = division
        self._clock = clock
        self._payload_cap = payload_cap
        self._busy_time = 0.0
        self._core: DispatchCore | None = None

    def bind(self, core: DispatchCore) -> None:
        self._core = core

    @property
    def busy(self) -> bool:
        return False  # send() blocks, so the link is free between calls

    @property
    def busy_time(self) -> float:
        return self._busy_time

    def send(self, chunk: ChunkTrace, extent: ChunkExtent) -> None:
        payload = payload_for(self._division, extent, self._payload_cap)
        duration = self._grid.workers[chunk.worker_index].transfer_time(extent.units)
        self._clock.sleep_model(duration)
        self._busy_time += duration
        chunk.send_end = self._clock.now()
        self._core.chunk_arrived(chunk, payload)

    def send_output(self, chunk: ChunkTrace, units: float) -> None:
        raise ExecutionError("the serial link transport does not ship outputs")


@dataclass
class _WorkerThread:
    inbox: "queue.Queue[tuple[ChunkTrace, bytes] | None]" = field(
        default_factory=queue.Queue
    )
    thread: threading.Thread | None = None


class _LocalThreadHost:
    """One thread per worker, really computing on chunk bytes."""

    time_advances_when_idle = True

    #: seconds of wall clock to wait on worker completions before giving up
    DRAIN_TIMEOUT_S = 60.0

    def __init__(
        self,
        grid: Grid,
        app: AppProcessor,
        workdir: Path,
        clock: ScaledWallClock,
        scale: float,
    ) -> None:
        self._grid = grid
        self._app = app
        self._workdir = workdir
        self._clock = clock
        self._scale = scale
        self._workers = [_WorkerThread() for _ in grid.workers]
        #: ("ok", chunk, out_path) | ("fail", chunk, message) | ("crash", None, message)
        self._completions: "queue.Queue[tuple]" = queue.Queue()
        self._core: DispatchCore | None = None

    def bind(self, core: DispatchCore) -> None:
        self._core = core

    def start(self) -> None:
        for i, spec in enumerate(self._grid.workers):
            runtime = self._workers[i]
            (self._workdir / spec.name).mkdir(parents=True, exist_ok=True)
            runtime.thread = threading.Thread(
                target=self._worker_loop, args=(i, runtime), daemon=True,
                name=f"apstdv-worker-{spec.name}",
            )
            runtime.thread.start()

    def stop(self) -> None:
        for runtime in self._workers:
            runtime.inbox.put(None)
        for runtime in self._workers:
            if runtime.thread is not None:
                runtime.thread.join(timeout=30.0)

    def enqueue(self, chunk: ChunkTrace, payload: object) -> None:
        assert isinstance(payload, bytes)
        self._workers[chunk.worker_index].inbox.put((chunk, payload))

    def poll(self) -> None:
        while True:
            try:
                completion = self._completions.get(block=False)
            except queue.Empty:
                return
            self._deliver(completion)

    def wait(self) -> bool:
        try:
            completion = self._completions.get(block=True, timeout=self.DRAIN_TIMEOUT_S)
        except queue.Empty:
            raise ExecutionError("timed out waiting for worker completions") from None
        self._deliver(completion)
        self.poll()
        return True

    def idle_tick(self) -> bool:
        time.sleep(0.001)
        return True

    def _deliver(self, completion: tuple) -> None:
        kind, chunk, detail = completion
        if kind == "ok":
            self._core.chunk_completed(chunk, result_path=detail)
        elif kind == "fail":
            self._core.chunk_failed(chunk, detail)
        else:
            raise ExecutionError(detail)

    def _worker_loop(self, index: int, runtime: _WorkerThread) -> None:
        spec = self._grid.workers[index]
        try:
            while True:
                item = runtime.inbox.get()
                if item is None:
                    return
                chunk, payload = item
                try:
                    chunk.compute_start = self._clock.now()
                    wall_start = time.perf_counter()
                    in_path = self._workdir / spec.name / f"chunk_{chunk.chunk_id}.in"
                    in_path.write_bytes(payload)
                    result = self._app.process(payload, units=chunk.units)
                    out_path = self._workdir / spec.name / f"chunk_{chunk.chunk_id}.out"
                    out_path.write_bytes(result)
                    wall_compute = time.perf_counter() - wall_start
                    target_model = spec.comp_latency + chunk.units / spec.speed
                    self._clock.sleep_model(target_model - wall_compute / self._scale)
                    chunk.compute_end = self._clock.now()
                except Exception as exc:
                    # per-chunk failure: report it, keep serving (the core's
                    # retry policy may re-ship the chunk to this worker)
                    self._completions.put(
                        ("fail", chunk, f"worker thread failed: {exc}")
                    )
                else:
                    self._completions.put(("ok", chunk, out_path))
        except BaseException as exc:  # the worker itself died
            self._completions.put(("crash", None, f"worker thread failed: {exc}"))


class ScaledProbeCosts:
    """Probe costs on a scaled wall clock: transfers sleep the modeled time.

    Subclasses measure the probe computation on their own workers.
    """

    def __init__(
        self,
        grid: Grid,
        division: DivisionMethod,
        clock: ScaledWallClock,
        scale: float,
        payload_cap: int,
    ) -> None:
        self._grid = grid
        self._division = division
        self._clock = clock
        self._scale = scale
        self._payload_cap = payload_cap

    def realized_transfer_time(self, index: int, units: float) -> float:
        spec = self._grid.workers[index]
        start = self._clock.now()
        self._clock.sleep_model(spec.transfer_time(units))
        return max(1e-9, self._clock.now() - start)


class _LocalProbeCosts(ScaledProbeCosts):
    """Measured probe costs: scaled sleeps for transfers, real app computes."""

    def __init__(
        self,
        grid: Grid,
        division: DivisionMethod,
        app: AppProcessor,
        clock: ScaledWallClock,
        scale: float,
        payload_cap: int,
    ) -> None:
        super().__init__(grid, division, clock, scale, payload_cap)
        self._app = app

    def realized_compute_time(self, index: int, units: float) -> float:
        spec = self._grid.workers[index]
        start = self._clock.now()
        if units > 0:
            # probe computation (real work on synthetic probe bytes)
            payload = payload_for(self._division, ChunkExtent(0.0, units), self._payload_cap)
            wall = time.perf_counter()
            try:
                self._app.process(payload, units=units)
            except Exception as exc:
                raise ExecutionError(f"probe computation failed: {exc}") from exc
            elapsed = (time.perf_counter() - wall) / self._scale
            self._clock.sleep_model(spec.compute_time(units) - elapsed)
        else:
            # no-op job -> comp latency
            self._clock.sleep_model(spec.compute_time(0.0))
        return max(1e-9, self._clock.now() - start)


class LocalExecutionBackend:
    """Threaded master-worker execution on the local machine.

    Parameters
    ----------
    workdir:
        Directory for chunk and result files (one subdirectory per worker).
    app:
        The application run on each chunk; defaults to :class:`DigestApp`.
        For the case study pass a video-encoding processor.
    time_scale:
        Wall seconds per modeled second (default 0.002: a 6000 s modeled
        run takes ~12 s of wall clock).
    """

    def __init__(
        self,
        workdir: str | Path,
        *,
        app: AppProcessor | None = None,
        time_scale: float = 0.002,
        payload_cap_bytes: int = 1 << 20,
    ) -> None:
        if time_scale <= 0:
            raise ExecutionError("time_scale must be positive")
        self._workdir = Path(workdir)
        self._workdir.mkdir(parents=True, exist_ok=True)
        self._app: AppProcessor = app if app is not None else DigestApp()
        self._scale = time_scale
        self._payload_cap = payload_cap_bytes
        #: result files of the most recent run, ordered by chunk offset
        self.last_outputs: list[Path] = []

    # -- ExecutionBackend interface --------------------------------------------
    def substrate(
        self,
        grid: Grid,
        division: DivisionMethod,
        task: TaskSpec | None = None,
    ) -> DispatchSubstrate:
        """Fresh single-use dispatch substrate for one run on ``grid``."""
        clock = ScaledWallClock(self._scale)
        return DispatchSubstrate(
            clock=clock,
            transport=SerialLinkTransport(grid, division, clock, self._payload_cap),
            host=_LocalThreadHost(grid, self._app, self._workdir, clock, self._scale),
            probe_costs=_LocalProbeCosts(
                grid, division, self._app, clock, self._scale, self._payload_cap
            ),
            annotations={"backend": "local-execution", "time_scale": self._scale},
        )

    def execute(
        self,
        grid: Grid,
        scheduler,
        division: DivisionMethod,
        task: TaskSpec | None = None,
        *,
        probe_units: float | None = None,
        options: DispatchOptions | None = None,
    ) -> ExecutionReport:
        opts = options or DispatchOptions()
        if probe_units is not None:
            opts.probe_units = probe_units
        core = DispatchCore(
            grid,
            scheduler,
            division.total_units,
            substrate=self.substrate(grid, division, task),
            division=division,
            options=opts,
        )
        report = core.run()
        self.last_outputs = core.outputs_in_offset_order()
        return report
