"""Remote execution backend: chunks shipped to socket workers.

This is the third execution substrate of the unified dispatch core --
the one where each worker is a separate OS process reached over a
network socket, which is what the paper means by scheduling on *grid*
platforms.  The scheduling loop is still the shared
:class:`~repro.dispatch.core.DispatchCore`, and the serialized link is
the threaded backend's
:class:`~repro.execution.local.SerialLinkTransport` (the master thread
extracts the chunk payload, holds the link for the modeled transfer
duration, and hands the bytes to the compute host); this module
contributes:

* :class:`_RemoteHost` -- a :class:`~repro.dispatch.protocols.ComputeHost`
  holding one TCP connection per grid worker to a
  :mod:`repro.net.worker` process: chunk bytes go out base64-framed,
  delimited results come back over the same socket (the Groundhog
  serialize -> submit -> delimited-result flow), and reader threads
  stream completions to the master.  A dropped connection fails the
  in-flight chunks (so the core's :class:`RetryPolicy` can retransmit)
  and the next send reconnects;
* :class:`RemoteWorkerPool` -- spawns ``python -m repro.net.worker``
  processes on loopback, tracks every handle from the moment ``Popen``
  returns, and reaps them all on ``stop()`` -- idempotent, safe on
  every error path, no leaked children.

Worker endpoints map 1:1 onto grid workers: each worker process owns
one master connection at a time, so the backend refuses a grid larger
than its endpoint list rather than silently multiplexing.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..apst.division import ChunkExtent, DivisionMethod
from ..apst.xmlspec import TaskSpec
from ..dispatch.core import DispatchCore, DispatchOptions
from ..dispatch.protocols import DispatchSubstrate
from ..errors import ExecutionError
from ..obs import NET_WORKER_LOST, OBS_DISABLED, Observability
from ..platform.resources import Grid
from ..simulation.trace import ChunkTrace, ExecutionReport
from ..execution.local import (
    ScaledProbeCosts,
    ScaledWallClock,
    SerialLinkTransport,
    payload_for,
)
from .protocol import decode_payload, encode_payload, parse_frame


@dataclass(frozen=True)
class WorkerEndpoint:
    """Where one socket worker listens."""

    name: str
    host: str
    port: int

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)


class RemoteWorkerPool:
    """Launch and reap local :mod:`repro.net.worker` processes.

    The pool is how tests, benchmarks, and ``apst-dv serve --workers N``
    get real socket workers without a cluster: each worker is a separate
    OS process listening on an ephemeral loopback port.  ``stop()`` is
    idempotent and reaps every spawned process (terminate, then kill),
    including partially spawned fleets when startup fails midway.
    """

    STARTUP_TIMEOUT_S = 30.0

    def __init__(self) -> None:
        self._processes: list[subprocess.Popen] = []
        self.endpoints: list[WorkerEndpoint] = []
        self._stopped = False

    @property
    def processes(self) -> list[subprocess.Popen]:
        """Every child spawned by this pool (for leak checks)."""
        return list(self._processes)

    def spawn(
        self,
        count: int,
        app_spec: str,
        workdir: str | Path,
        *,
        drop_after: int | None = None,
        drop_forever: bool = False,
        name_prefix: str = "netw",
    ) -> list[WorkerEndpoint]:
        """Start ``count`` workers; returns their endpoints in order."""
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self._stopped = False
        # the child must import repro however the parent did (installed,
        # PYTHONPATH, or sys.path manipulation): prepend our package root
        env = os.environ.copy()
        package_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        try:
            for i in range(count):
                args = [
                    sys.executable, "-m", "repro.net.worker",
                    app_spec, str(workdir / f"{name_prefix}{i}"),
                    "--host", "127.0.0.1", "--port", "0",
                    "--name", f"{name_prefix}{i}",
                ]
                if drop_after is not None:
                    args += ["--drop-after", str(drop_after)]
                if drop_forever:
                    args += ["--drop-forever"]
                process = subprocess.Popen(
                    args,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    bufsize=1,
                    env=env,
                )
                # track before anything can fail, so stop() reaps it
                self._processes.append(process)
                endpoint = self._await_ready(process, f"{name_prefix}{i}")
                self.endpoints.append(endpoint)
        except Exception:
            self.stop()
            raise
        return list(self.endpoints)

    def _await_ready(self, process: subprocess.Popen, name: str) -> WorkerEndpoint:
        assert process.stdout is not None
        # readline() has no timeout of its own: do it on a daemon thread
        # and join with the startup budget, so a child that hangs before
        # printing its ready line cannot hang spawn() forever
        ready: list[str] = []
        reader = threading.Thread(
            target=lambda: ready.append(process.stdout.readline()),
            daemon=True,
            name=f"apstdv-net-await-{name}",
        )
        reader.start()
        reader.join(timeout=self.STARTUP_TIMEOUT_S)
        if reader.is_alive() or not ready or not ready[0]:
            if process.poll() is None:  # hung: kill so stderr.read() returns
                process.kill()
                process.wait()
            stderr = process.stderr.read() if process.stderr else ""
            raise ExecutionError(
                f"net worker {name} failed to start within "
                f"{self.STARTUP_TIMEOUT_S:.0f}s: {stderr}"
            )
        line = ready[0]
        announce = json.loads(line)
        if announce.get("status") != "ready":
            raise ExecutionError(
                f"net worker {name} reported {announce.get('status')!r} at startup: "
                f"{announce.get('message', '')}"
            )
        return WorkerEndpoint(name=name, host=announce["host"], port=int(announce["port"]))

    def stop(self) -> None:
        """Terminate and reap every worker; safe to call repeatedly."""
        if self._stopped:
            return
        self._stopped = True
        for process in self._processes:
            if process.poll() is None:
                process.terminate()
        for process in self._processes:
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            for stream in (process.stdout, process.stderr):
                if stream is not None:
                    stream.close()
        self.endpoints.clear()

    def __enter__(self) -> "RemoteWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class _Conn:
    endpoint: WorkerEndpoint
    sock: socket.socket | None = None
    stream: object = None
    reader: threading.Thread | None = None
    generation: int = 0


class _RemoteHost:
    """One TCP connection per grid worker; completions stream back."""

    time_advances_when_idle = True

    #: seconds of wall clock to wait on worker replies before giving up
    DRAIN_TIMEOUT_S = 120.0
    CONNECT_TIMEOUT_S = 10.0

    def __init__(
        self,
        grid: Grid,
        endpoints: list[WorkerEndpoint],
        workdir: Path,
        clock: ScaledWallClock,
        scale: float,
        obs: Observability,
    ) -> None:
        if len(endpoints) < len(grid.workers):
            raise ExecutionError(
                f"remote backend needs one endpoint per grid worker: "
                f"{len(grid.workers)} workers, {len(endpoints)} endpoints"
            )
        self._grid = grid
        self._workdir = workdir
        self._clock = clock
        self._scale = scale
        self._obs = obs
        self._conns = [_Conn(endpoint=endpoints[i]) for i in range(len(grid.workers))]
        self._completions: "queue.Queue[dict]" = queue.Queue()
        self._inflight: dict[int, ChunkTrace] = {}
        self._core: DispatchCore | None = None
        self._disconnects = 0
        # telemetry return path: t0 per (worker, chunk) for offset samples
        self._aggregator = obs.aggregator
        self._tracer = obs.tracer
        self._send_times: dict[tuple[int, object], float] = {}
        metrics = obs.metrics
        self._m_lost = (
            metrics.counter(
                "repro_net_workers_lost_total",
                "Worker connections lost (mid-run or during probing)",
            )
            if metrics is not None
            else None
        )

    @property
    def disconnects(self) -> int:
        """Connections lost over the run (failure-injection assertions)."""
        return self._disconnects

    def bind(self, core: DispatchCore) -> None:
        self._core = core

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        for index in range(len(self._conns)):
            self._connect(index)
        self._workdir.mkdir(parents=True, exist_ok=True)

    def stop(self) -> None:
        """Close connections and join readers; workers stay up (pool owns them)."""
        for conn in self._conns:
            self._close_conn(conn)
        for conn in self._conns:
            if conn.reader is not None:
                conn.reader.join(timeout=5.0)
                conn.reader = None

    def _connect(self, index: int) -> None:
        conn = self._conns[index]
        try:
            sock = socket.create_connection(
                conn.endpoint.address, timeout=self.CONNECT_TIMEOUT_S
            )
        except OSError as exc:
            raise ExecutionError(
                f"cannot reach worker {conn.endpoint.name} at "
                f"{conn.endpoint.host}:{conn.endpoint.port}: {exc}"
            ) from exc
        sock.settimeout(None)
        conn.sock = sock
        conn.stream = sock.makefile("rwb")
        conn.generation += 1
        conn.reader = threading.Thread(
            target=self._reader_loop, args=(index, conn.generation, conn.stream),
            daemon=True, name=f"apstdv-net-reader-{conn.endpoint.name}",
        )
        conn.reader.start()

    @staticmethod
    def _close_conn(conn: _Conn) -> None:
        # sock.close() alone leaves the fd open while the makefile stream
        # still references it -- the worker would keep serving a dead master
        # and never accept the next run's connection.  Shut down first (wakes
        # a reader blocked in recv), then close both handles.
        if conn.sock is not None:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if conn.stream is not None:
            try:
                conn.stream.close()
            except (OSError, ValueError):
                pass
            conn.stream = None
        if conn.sock is not None:
            try:
                conn.sock.close()
            except OSError:
                pass
            conn.sock = None

    def _reader_loop(self, index: int, generation: int, stream) -> None:
        try:
            for line in stream:
                try:
                    reply = parse_frame(line)
                except Exception as exc:
                    reply = {"status": "error", "message": f"garbled reply: {exc}"}
                reply["worker_index"] = index
                self._completions.put(reply)
        except (OSError, ValueError):
            pass
        # EOF or socket error: report the loss tagged with our generation,
        # so a reconnect's fresh reader is not mistaken for another loss
        self._completions.put(
            {"status": "conn_lost", "worker_index": index, "generation": generation}
        )

    # -- ComputeHost interface -----------------------------------------------
    def enqueue(self, chunk: ChunkTrace, payload: object) -> None:
        assert isinstance(payload, bytes)
        self._inflight[chunk.chunk_id] = chunk
        request = {
            "cmd": "process",
            "chunk_id": chunk.chunk_id,
            "data_b64": encode_payload(payload),
            "units": chunk.units,
            "min_wall_time": self._grid.workers[chunk.worker_index].compute_time(
                chunk.units
            ) * self._scale,
        }
        if self._core is not None:
            traceparent = self._core.trace_parent_for(chunk.chunk_id)
            if traceparent is not None:
                request["traceparent"] = traceparent
        self._send(chunk.worker_index, request)

    def poll(self) -> None:
        while True:
            try:
                reply = self._completions.get(block=False)
            except queue.Empty:
                return
            self._handle_reply(reply)

    def wait(self) -> bool:
        try:
            reply = self._completions.get(block=True, timeout=self.DRAIN_TIMEOUT_S)
        except queue.Empty:
            raise ExecutionError(
                "timed out waiting for remote worker completions"
            ) from None
        self._handle_reply(reply)
        self.poll()
        return True

    def idle_tick(self) -> bool:
        time.sleep(0.001)
        return True

    # -- plumbing -------------------------------------------------------------
    def _send(self, worker_index: int, request: dict) -> None:
        conn = self._conns[worker_index]
        data = json.dumps(request).encode("utf-8") + b"\n"
        if self._aggregator is not None and request.get("cmd") == "process":
            self._send_times[(worker_index, request.get("chunk_id"))] = time.time()
        if conn.sock is None:
            self._connect(worker_index)
        try:
            conn.stream.write(data)
            conn.stream.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            # stale connection (worker dropped us between chunks).  Fail
            # what was in flight on it NOW -- reconnecting bumps the
            # generation, so the old reader's queued conn_lost will be
            # discarded as stale and would otherwise strand those chunks
            # until DRAIN_TIMEOUT_S.  The chunk being sent is excluded:
            # it is about to go out again on the fresh connection.
            self._drop_conn(worker_index, exclude_chunk_id=request.get("chunk_id"))
            self._connect(worker_index)
            try:
                conn.stream.write(data)
                conn.stream.flush()
            except OSError as exc:
                raise ExecutionError(
                    f"worker {conn.endpoint.name} unreachable: {exc}"
                ) from exc

    def _ingest_reply_telemetry(self, index: int, reply: dict) -> None:
        """Clock-offset sample + telemetry batch off one worker reply.

        Every reply carrying ``recv_unix``/``send_unix`` is a valid NTP
        sample (the worker's compute time between them does not bias the
        offset); chunk replies additionally piggyback the worker's
        telemetry batch.  The batch is re-keyed to the *endpoint* name
        the master registered, so offset estimates and span records
        agree on what the process is called.
        """
        if self._aggregator is None or index is None:
            return
        t3 = time.time()
        name = self._conns[index].endpoint.name
        t0 = self._send_times.pop((index, reply.get("chunk_id")), None)
        t1 = reply.get("recv_unix")
        t2 = reply.get("send_unix")
        if t0 is not None and t1 is not None and t2 is not None:
            try:
                self._aggregator.add_offset_sample(
                    name, t0=t0, t1=float(t1), t2=float(t2), t3=t3
                )
            except (TypeError, ValueError):
                pass
        batch = reply.get("telemetry")
        if batch:
            self._aggregator.ingest(batch, process=name)

    def _handle_reply(self, reply: dict) -> None:
        index = reply.get("worker_index")
        if reply.get("status") == "conn_lost":
            self._conn_lost(index, reply.get("generation", -1))
            return
        self._ingest_reply_telemetry(index, reply)
        if reply.get("status") == "error":
            chunk = self._inflight.pop(reply.get("chunk_id", -1), None)
            message = f"worker {index} failed: {reply.get('message')}"
            if chunk is None:
                raise ExecutionError(message)
            self._core.chunk_failed(chunk, message)
            return
        chunk = self._inflight.pop(reply.get("chunk_id", -1), None)
        if chunk is None:
            raise ExecutionError(f"reply for unknown chunk: {reply!r}")
        result_path = self._workdir / f"result_{chunk.chunk_id}.out"
        result_path.write_bytes(decode_payload(reply.get("result_b64", "")))
        # the worker padded its real processing up to the modeled cost, so
        # the reply time is the modeled completion; its wall_time is the
        # actual (padded) duration
        now = self._clock.now()
        compute_model = reply["wall_time"] / self._scale
        chunk.compute_end = now
        chunk.compute_start = max(chunk.send_end, now - compute_model)
        self._core.chunk_completed(chunk, result_path=result_path)

    def _conn_lost(self, index: int, generation: int) -> None:
        """A worker connection dropped: fail its in-flight chunks."""
        if generation != self._conns[index].generation:
            return  # a reader from a connection we already replaced
        self._drop_conn(index)

    def _drop_conn(self, index: int, *, exclude_chunk_id: int | None = None) -> None:
        """Close a dead connection and fail the chunks in flight on it.

        Shared by the reader's ``conn_lost`` path and ``_send``'s
        reconnect path; ``exclude_chunk_id`` names a chunk the caller is
        about to resend itself (it must not also be queued for retry).
        """
        conn = self._conns[index]
        self._disconnects += 1
        self._close_conn(conn)
        if self._m_lost is not None:
            self._m_lost.inc()
        if self._obs.enabled:
            self._obs.emit(
                NET_WORKER_LOST,
                sim_time=self._clock.now(),
                worker=conn.endpoint.name,
                worker_index=index,
                inflight=sum(
                    1 for c in self._inflight.values() if c.worker_index == index
                ),
            )
        # chunks mid-compute on that worker will never reply: fail each so
        # the core's RetryPolicy can retransmit (the next send reconnects)
        lost = [
            c
            for c in self._inflight.values()
            if c.worker_index == index and c.chunk_id != exclude_chunk_id
        ]
        for chunk in lost:
            self._inflight.pop(chunk.chunk_id, None)
            self._core.chunk_failed(
                chunk,
                f"connection to worker {conn.endpoint.name} lost mid-chunk",
            )

    def wait_for_chunk(self, chunk_id: int, worker_index: int) -> dict:
        """Synchronous reply wait, used by the probe round (nothing in flight)."""
        deadline = time.monotonic() + self.DRAIN_TIMEOUT_S
        while True:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise ExecutionError("timed out waiting for remote worker reply")
            try:
                reply = self._completions.get(timeout=timeout)
            except queue.Empty:
                raise ExecutionError(
                    "timed out waiting for remote worker reply"
                ) from None
            if reply.get("status") == "conn_lost":
                # a probe-time loss takes the same terminal accounting
                # path as a mid-run loss (net.worker.lost event, lost
                # counter, disconnect tally, socket teardown) -- only
                # then does the failure surface to the probe loop
                self._conn_lost(
                    reply["worker_index"], reply.get("generation", -1)
                )
                raise ExecutionError(
                    f"worker {worker_index} connection lost during probe"
                )
            if reply.get("status") == "error":
                raise ExecutionError(
                    f"worker {worker_index} failed: {reply.get('message')}"
                )
            if reply.get("chunk_id") == chunk_id and reply["worker_index"] == worker_index:
                self._ingest_reply_telemetry(worker_index, reply)
                return reply
            self._completions.put(reply)  # not ours; recycle


class _RemoteProbeCosts(ScaledProbeCosts):
    """Measured probe costs: scaled transfer sleeps, real remote computes."""

    def __init__(
        self,
        grid: Grid,
        division: DivisionMethod,
        host: _RemoteHost,
        clock: ScaledWallClock,
        scale: float,
        payload_cap: int,
    ) -> None:
        super().__init__(grid, division, clock, scale, payload_cap)
        self._host = host

    def realized_compute_time(self, index: int, units: float) -> float:
        spec = self._grid.workers[index]
        if units <= 0:
            return spec.comp_latency  # no-op jobs: modeled directly
        payload = payload_for(self._division, ChunkExtent(0.0, units), self._payload_cap)
        start = self._clock.now()
        request = {
            "cmd": "process", "chunk_id": -1,
            "data_b64": encode_payload(payload), "units": units,
            "min_wall_time": spec.compute_time(units) * self._scale,
        }
        tracer = self._host._tracer
        if tracer is not None:
            # parent the worker's probe-chunk span to the daemon's open
            # probe span (no per-request span of our own)
            traceparent = tracer.current_traceparent()
            if traceparent is not None:
                request["traceparent"] = traceparent
        self._host._send(index, request)
        self._host.wait_for_chunk(-1, index)
        return max(1e-9, self._clock.now() - start)


class RemoteExecutionBackend:
    """Backend running chunks on socket workers (see module docstring).

    Parameters
    ----------
    endpoints:
        Worker endpoints, one per grid worker (index-aligned; extras
        are ignored).  Get them from :class:`RemoteWorkerPool` or a
        gateway's worker registry.
    workdir:
        Directory for master-side result files.
    time_scale:
        Wall seconds per modeled second.
    observability:
        Optional handle; when set, lost worker connections emit
        ``net.worker.lost`` events on top of the core's usual
        chunk/probe instrumentation.
    """

    def __init__(
        self,
        endpoints: list[WorkerEndpoint],
        workdir: str | Path,
        *,
        time_scale: float = 0.002,
        payload_cap_bytes: int = 1 << 20,
        observability: Observability | None = None,
    ) -> None:
        if time_scale <= 0:
            raise ExecutionError("time_scale must be positive")
        if not endpoints:
            raise ExecutionError("remote backend needs at least one worker endpoint")
        self._endpoints = list(endpoints)
        self._workdir = Path(workdir)
        self._workdir.mkdir(parents=True, exist_ok=True)
        self._scale = time_scale
        self._payload_cap = payload_cap_bytes
        self._obs = observability or OBS_DISABLED
        self.last_outputs: list[Path] = []
        #: substrate of the most recent execute(); its host exposes the
        #: disconnect count (used by failure-injection tests)
        self.last_substrate: DispatchSubstrate | None = None

    # -- ExecutionBackend interface --------------------------------------------
    def substrate(
        self,
        grid: Grid,
        division: DivisionMethod,
        task: TaskSpec | None = None,
    ) -> DispatchSubstrate:
        """Fresh single-use dispatch substrate for one run on ``grid``."""
        clock = ScaledWallClock(self._scale)
        host = _RemoteHost(
            grid, self._endpoints, self._workdir / "results", clock, self._scale,
            self._obs,
        )
        return DispatchSubstrate(
            clock=clock,
            transport=SerialLinkTransport(grid, division, clock, self._payload_cap),
            host=host,
            probe_costs=_RemoteProbeCosts(
                grid, division, host, clock, self._scale, self._payload_cap
            ),
            annotations={
                "backend": "remote-execution",
                "workers": len(grid.workers),
                "endpoints": [f"{e.host}:{e.port}" for e in self._endpoints],
            },
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
        if opts.observability is None and self._obs.enabled:
            opts.observability = self._obs
        substrate = self.substrate(grid, division, task)
        self.last_substrate = substrate
        core = DispatchCore(
            grid,
            scheduler,
            division.total_units,
            substrate=substrate,
            division=division,
            options=opts,
        )
        report = core.run()
        self.last_outputs = core.outputs_in_offset_order()
        return report
