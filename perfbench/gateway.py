"""The two gateway workloads: gateway-mixed and remote-bytes.

Both drive an in-process ``JobGateway`` over loopback TCP with
closed-loop ``GatewayClient`` connections: each client submits a job,
waits for it with the SDK's ``GatewayClient.wait`` (``status`` polls
until the job is terminal), then submits the next (the service's callers
wait on their jobs: ``submit --wait`` and the SDK's ``wait``).  The daemon keeps its jobs in the durable ``SqliteStore``
that ``serve --store`` uses, in a scratch directory of the checkout.

* gateway-mixed: simulation backend, so batches run through
  ``MultiJobService`` and ``ServiceClock``; two clients in rounds
  (:class:`Rounds`); tiny jobs rotating over umr/wf/simple-5, two
  tenants and two priorities.
  Writes (submit -> store insert/claim/transition) run beside reads
  (status polls) and scheduling is a small share of each job.
* remote-bytes: the gateway owns a ``RemoteWorkerPool`` of two socket
  workers running ``DigestApp``, so remote execution is active and real
  bytes move: ``division.extract`` -> base64 NDJSON frame -> socket
  worker -> digest reply.  One client; multi-MB random inputs with
  uniform byte division, static SIMPLE-n beside adaptive WF.  The
  platform's workers have near-zero modeled latency and very high
  modeled speed and bandwidth, so the scaled wall-clock sleeps stay
  small next to the byte handling (``execution.modeled_sleep_share``).
"""

from __future__ import annotations

import hashlib
import shutil
import socket
import statistics
import tempfile
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.apst.daemon import APSTDaemon, DaemonConfig
from repro.execution.appspec import app_spec
from repro.execution.local import DigestApp
from repro.net import GatewayClient, GatewayConfig, GatewayError, JobGateway, RemoteWorkerPool
from repro.platform.presets import das2_cluster
from repro.platform.resources import Grid, WorkerSpec
from repro.store.sqlite import SqliteStore

import layers
from common import WORK_DIRNAME, ErrorLedger, RunResult, peak_rss_mb
from inputs import GatewayInputs, gateway_mixed_inputs, remote_bytes_inputs, task_xml
from proxies import REMOTE_TIME_SCALE, StoreProxy, TracedClient, TracedDaemon
from spans import SpanRecorder
#: a job not terminal after this long is counted lost
JOB_TIMEOUT_S = 30.0
#: status poll interval of the clients' ``wait``, about a tenth of the
#: job's time in the program so the poll step does not decide the job
#: time (the SDK's default, 0.05 s, exceeds a whole gateway-mixed job;
#: see README.md)
MIXED_POLL_S = 0.002
REMOTE_POLL_S = 0.01
MIXED_CLIENTS = 2
MIXED_NODES = 4
REMOTE_WORKERS = 2
MIXED_SETUPS = 9
REMOTE_SETUPS = 5
WARMUP_JOBS = 6


def remote_grid() -> Grid:
    """Two workers, near-zero modeled latency, very fast modeled links
    and compute: wall time goes to moving and hashing bytes."""
    return Grid(
        workers=tuple(
            WorkerSpec(
                name=f"rb{i}", speed=1e10, bandwidth=1e10,
                comm_latency=1e-6, comp_latency=1e-6,
            )
            for i in range(REMOTE_WORKERS)
        )
    )


@dataclass
class Harness:
    """One gateway instance with its store, daemon and optional workers."""

    workdir: Path
    grid: Grid
    inputs: GatewayInputs
    seed: int
    workers: int = 0
    recorder: SpanRecorder | None = None
    store: SqliteStore = None
    daemon: APSTDaemon = None
    gateway: JobGateway = None
    pool: RemoteWorkerPool | None = None
    #: wall interval of start(): the set-up measured by ``setup_s``
    setup_span: tuple[float, float] = (0.0, 0.0)

    def start(self) -> "Harness":
        start = perf_counter()
        self.workdir.mkdir(parents=True)
        for name, data in self.inputs.files.items():
            (self.workdir / name).write_bytes(data)
        self.store = SqliteStore(self.workdir / "jobs.db")
        config = DaemonConfig(base_dir=self.workdir, seed=self.seed)
        if self.recorder is None:
            self.daemon = APSTDaemon(self.grid, config=config, store=self.store)
        else:
            self.daemon = TracedDaemon(
                self.grid, config=config, store=StoreProxy(self.store, self.recorder),
                recorder=self.recorder,
            )
        if self.workers:
            self.pool = RemoteWorkerPool()
            self.pool.spawn(self.workers, app_spec(DigestApp), self.workdir / "workers")
        self.gateway = JobGateway(self.daemon, config=GatewayConfig(), worker_pool=self.pool)
        self.gateway.start_in_background()
        with GatewayClient(self.gateway.host, self.gateway.port) as client:
            client.ping()
        self.setup_span = (start, perf_counter())
        return self

    def stop(self) -> tuple[float, dict[str, bool]]:
        """Shut down; returns (seconds, resource -> still alive)."""
        start = perf_counter()
        self.gateway.shutdown()
        seconds = perf_counter() - start
        alive = {
            f"thread:{t.name}": True
            for t in threading.enumerate()
            if t.name.startswith("apstdv-gateway") and t.is_alive()
        }
        try:
            with socket.create_connection((self.gateway.host, self.gateway.port), timeout=1.0):
                alive["listener"] = True
        except OSError:
            alive["listener"] = False
        if self.pool is not None:
            for i, process in enumerate(self.pool.processes):
                alive[f"child:{i}"] = process.poll() is None
            self.pool.stop()  # reap anything the gateway left behind
        self.store.close()
        return seconds, alive


@dataclass
class JobRecord:
    job_id: int
    job: object
    started: float
    submitted: float
    ended: float
    status: dict | None

    @property
    def latency(self) -> float:
        return self.ended - self.started


@dataclass
class ClientLog:
    records: list = field(default_factory=list)
    stats: object = None
    check_s: float = 0.0


class Rounds:
    """Starts the clients' jobs together, one job per client per round.

    Every round, each client submits one job and waits for it; the next
    round starts when all have finished.  So every batch the gateway runs
    carries one job from each client and their loads always share the
    platform.  Left free, two clients drift between sharing batches and
    not, and throughput jumps between two levels from run to run.
    """

    def __init__(self, clients: int, deadline: float, max_rounds: int | None = None) -> None:
        self._deadline = deadline
        self._max_rounds = max_rounds
        self._done = 0
        self.over = False
        self._barrier = threading.Barrier(clients, action=self._decide)

    def _decide(self) -> None:
        over_time = perf_counter() >= self._deadline
        self.over = over_time or (self._max_rounds is not None and self._done >= self._max_rounds)
        self._done += 1

    def next(self) -> bool:
        """Wait for the other clients; False once the run is over."""
        self._barrier.wait(JOB_TIMEOUT_S + 30)
        return not self.over

    def abort(self) -> None:
        self._barrier.abort()


def client_loop(harness: Harness, jobs, rounds: Rounds, ledger, log: ClientLog, poll_s: float,
                *, check=None) -> None:
    """One closed-loop client: submit, wait for a terminal state, repeat."""
    raw = GatewayClient(harness.gateway.host, harness.gateway.port)
    client = TracedClient(raw, harness.recorder) if harness.recorder else raw
    try:
        k = 0
        while rounds.next():
            job = jobs[k % len(jobs)]
            k += 1
            ledger.attempt()
            start = perf_counter()
            try:
                job_id = client.submit(
                    task_xml(job, harness.inputs.step), tenant=job.tenant,
                    priority=job.priority,
                )
            except GatewayError as exc:
                ledger.submit_error(exc)
                continue
            submitted = perf_counter()
            try:
                status = client.wait(job_id, timeout_s=JOB_TIMEOUT_S, poll_s=poll_s)
            except GatewayError:
                status = None  # not terminal within the timeout: lost
            done = perf_counter()
            ledger.job_outcome(status["state"] if status else None)
            log.records.append(JobRecord(job_id, job, start, submitted, done, status))
            if check is not None and status is not None:
                t0 = perf_counter()
                with harness.recorder.muted() if harness.recorder else nullcontext():
                    check(job_id, job)
                log.check_s += perf_counter() - t0
    finally:
        log.stats = raw.stats
        raw.close()


def _drive(harness: Harness, seconds: float, ledger, clients: int, poll_s: float, *, check=None,
           max_rounds: int | None = None):
    """Run ``clients`` closed loops in rounds for ``seconds`` (or
    ``max_rounds``); returns (logs, window)."""
    logs = [ClientLog() for _ in range(clients)]
    errors: list[BaseException] = []
    rounds = Rounds(clients, perf_counter() + seconds, max_rounds)

    def target(i: int) -> None:
        try:
            client_loop(
                harness, harness.inputs.jobs[i], rounds, ledger, logs[i], poll_s, check=check
            )
        except BaseException as exc:  # surfaced below
            errors.append(exc)
            rounds.abort()  # release the others from the round barrier

    threads = [threading.Thread(target=target, args=(i,), name=f"client-{i}") for i in range(clients)]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOB_TIMEOUT_S + seconds + 60)
    end = perf_counter()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client did not finish")
    if errors:
        raise errors[0]
    return logs, (start, end)


def _warmup(harness: Harness, clients: int, poll_s: float) -> None:
    _drive(harness, 60.0, ErrorLedger(), clients, poll_s, max_rounds=WARMUP_JOBS)


def _check_store(checks, harness: Harness, job_ids: list[int]) -> None:
    """Every submitted job done exactly once, claimed exactly once."""
    counts = harness.store.counts()
    total = sum(counts.values())
    checks.expect(
        counts.get("done", 0) == total,
        f"store holds {total} jobs but only {counts.get('done', 0)} done: {counts}",
    )
    claims: dict[int, int] = {}
    for record in harness.store.claim_audit():
        claims[record.job_id] = claims.get(record.job_id, 0) + 1
    doubled = {j: n for j, n in claims.items() if n != 1}
    checks.expect(not doubled, f"double-claimed jobs: {doubled}")
    unclaimed = [j for j in job_ids if j not in claims]
    checks.expect(not unclaimed, f"jobs never claimed: {unclaimed[:10]}")


def _summarize(result: RunResult, logs, window) -> list[JobRecord]:
    """End-to-end metrics of one measured window.

    Time the clients spent checking outputs between jobs is not
    measured time.
    """
    records = sorted((r for log in logs for r in log.records), key=lambda r: r.started)
    done = [r for r in records if r.status and r.status["state"] == "done"]
    seconds = window[1] - window[0] - sum(log.check_s for log in logs)
    result.put_rate("jobs_per_s", len(done), seconds)
    result.put_timings("job", [r.latency for r in done])
    result.put_timings("submit", [r.submitted - r.started for r in records])
    result.put_rate("chunks_per_s", sum(r.status.get("chunks", 0) for r in done), seconds)
    for r in done:
        result.checks.expect(
            isinstance(r.status.get("makespan"), float) and r.status["makespan"] > 0
            and isinstance(r.status.get("chunks"), int) and r.status["chunks"] > 0,
            f"job {r.job_id} reports no makespan/chunk count: {r.status}",
        )
    return records


def _run_gateway(workload: str, seed: int, seconds: float, trace: bool, scratch: Path,
                 *, grid: Grid, inputs: GatewayInputs, workers: int, clients: int,
                 poll_s: float, setups: int, make_check) -> RunResult:
    result = RunResult()
    teardowns: list[float] = []
    setup: list[float] = []
    n = 0

    def fresh(recorder=None) -> Harness:
        nonlocal n
        n += 1
        harness = Harness(scratch / f"{workload}-{n}", grid, inputs, seed, workers, recorder)
        harness.start()
        start, end = harness.setup_span
        setup.append(end - start)
        return harness

    def finish(harness: Harness) -> None:
        seconds_, alive = harness.stop()
        teardowns.append(seconds_)
        result.ledger.teardown(alive)

    def measure(harness: Harness, budget: float, into: RunResult) -> list[JobRecord]:
        _warmup(harness, clients, poll_s)
        logs, window = _drive(
            harness, budget, into.ledger, clients, poll_s,
            check=make_check(harness, into.checks),
        )
        records = _summarize(into, logs, window)
        _check_store(into.checks, harness, [r.job_id for r in records])
        into.extra["client_stats"] = [log.stats for log in logs]
        return records

    # set-up is timed several times; the last instance serves the measured run
    for _ in range(setups - 1):
        finish(fresh())
    harness = fresh()
    result.put("setup_s", statistics.median(setup), "s", len(setup))
    try:
        records = measure(harness, seconds / 2 if trace else seconds, result)
    finally:
        finish(harness)
    if workers:
        _payload_rate(result, records, inputs)
    if not trace:
        result.put("peak_rss_mb", peak_rss_mb(), "MB")
        return result

    rec = SpanRecorder()
    traced = RunResult()
    harness = fresh(rec)
    try:
        records = measure(harness, seconds / 2, traced)
        substrate_stats = list(harness.daemon.substrate_stats)
        # simulated chunks computed by the traced segments (re-simulated
        # and baseline ones included); remote runs have no segments
        segment_chunks = sum(seg.chunks for seg in harness.daemon.segments)
        harness.daemon.check_segments(traced.checks)
    finally:
        finish(harness)
    result.ledger.attempted += traced.ledger.attempted
    result.ledger.failures.update(traced.ledger.failures)
    result.checks.passed += traced.checks.passed
    for message in traced.checks.failures:
        result.checks.expect(False, f"traced: {message}")
    done = [r for r in records if r.status and r.status["state"] == "done"]
    metrics = layers.compute(
        rec,
        jobs=len(done),
        chunks=segment_chunks or sum(r.status["chunks"] for r in done),
        job_latency={r.job_id: r.latency for r in done},
        client_stats=traced.extra["client_stats"],
        substrate_stats=substrate_stats,
        teardowns=teardowns,
        job_wall_s=sum(r.latency for r in done),
        time_scale=REMOTE_TIME_SCALE,
    )
    layers.put_trace_delta(metrics, traced, result)
    result.extra["trace_spans"] = rec
    result.extra["layer_metrics"] = metrics
    return result


def _payload_rate(result: RunResult, records, inputs: GatewayInputs) -> None:
    """``payload_mb_per_s``: input bytes per second of job wall time."""
    done = [r for r in records if r.status and r.status["state"] == "done"]
    payload = sum(len(inputs.files[r.job.input_name]) for r in done)
    job_wall = sum(r.latency for r in done)
    if job_wall:
        result.put("payload_mb_per_s", payload / (1 << 20) / job_wall, "MB/s", len(done))


def _no_check(harness, checks):
    return None


def _digest_check(harness: Harness, checks):
    """Every chunk's output file is the sha256 of that chunk's input bytes."""

    def check(job_id: int, job) -> None:
        data = harness.inputs.files[job.input_name]
        record = harness.daemon.job(job_id)
        chunks = sorted(record.report.chunks, key=lambda c: c.offset)
        outputs = list(record.outputs)
        checks.expect(
            len(outputs) == len(chunks),
            f"job {job_id}: {len(outputs)} output files for {len(chunks)} chunks",
        )
        covered = 0
        for chunk, path in zip(chunks, outputs):
            lo, hi = int(chunk.offset), int(chunk.offset + chunk.units)
            covered += hi - lo
            checks.expect(
                path.read_bytes() == hashlib.sha256(data[lo:hi]).digest(),
                f"job {job_id}: chunk [{lo}, {hi}) output is not its sha256",
            )
        checks.expect(
            covered == len(data), f"job {job_id}: chunks cover {covered} of {len(data)} bytes"
        )

    return check


def run_gateway_mixed(seed: int, seconds: float, trace: bool, scratch: Path) -> RunResult:
    return _run_gateway(
        "gateway-mixed", seed, seconds, trace, scratch,
        grid=das2_cluster(nodes=MIXED_NODES),
        inputs=gateway_mixed_inputs(seed, clients=MIXED_CLIENTS),
        workers=0, clients=MIXED_CLIENTS, poll_s=MIXED_POLL_S, setups=MIXED_SETUPS,
        make_check=_no_check,
    )


def run_remote_bytes(seed: int, seconds: float, trace: bool, scratch: Path) -> RunResult:
    return _run_gateway(
        "remote-bytes", seed, seconds, trace, scratch,
        grid=remote_grid(), inputs=remote_bytes_inputs(seed),
        workers=REMOTE_WORKERS, clients=1, poll_s=REMOTE_POLL_S, setups=REMOTE_SETUPS,
        make_check=_digest_check,
    )


def scratch_dir(root: Path) -> Path:
    base = root / WORK_DIRNAME / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
