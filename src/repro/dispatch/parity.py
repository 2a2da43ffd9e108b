"""Cross-backend parity harness: same decisions on every substrate.

The point of the unified :class:`~repro.dispatch.core.DispatchCore` is
that the scheduling algorithm cannot tell which execution mechanism it
runs on.  This module makes that claim testable: run the same scheduler
over the same platform and division on each backend and compare the
*decision sequence* -- chunk sizes and per-worker assignments in dispatch
order.

For the comparison to be exact the run must be timing-independent:

* ``estimate_source="oracle"`` hands every backend identical resource
  estimates (probe measurements would differ between modeled and real
  clocks);
* the scheduler must be pre-planned (``simple-n``, ``umr``: the dispatch
  queue is fixed once estimates are known).  Algorithms that react to
  observed completion times (``wf`` picks the emptiest worker, RUMR
  re-estimates gamma online) legitimately diverge on real backends and
  are out of scope;
* the simulation runs its DETERMINISTIC uncertainty model, and the real
  backends pad real work up to the same modeled costs.

The same argument extends to failure handling: recovery *decisions*
(escalation targets, quarantines, speculation outcomes) are core policy,
so an injected failure must produce the identical
:attr:`~repro.dispatch.core.DispatchCore.resilience_log` on every
substrate.  :func:`run_failure_scenario` runs the scripted scenarios in
:data:`FAILURE_SCENARIOS` against any backend and returns that log.

Used by ``tests/test_dispatch_core.py`` (exact parity),
``tests/test_resilience_parity.py`` (failure-injection parity) and
``benchmarks/bench_backend_consistency.py`` (makespan agreement).
"""

from __future__ import annotations

from pathlib import Path

from ..apst.division import UniformBytesDivision
from ..core.registry import make_scheduler
from ..errors import ExecutionError
from ..platform.resources import Cluster, Grid, WorkerSpec
from ..resilience import EscalationPolicy, ResiliencePolicy, StragglerPolicy
from ..simulation.trace import ExecutionReport
from .core import DispatchCore, DispatchOptions
from .protocols import RetryPolicy

#: Backend kinds understood by :func:`run_backend`.
BACKENDS = ("simulation", "local", "remote")

#: Schedulers whose dispatch queue is fixed once estimates are known.
TIMING_INDEPENDENT_ALGORITHMS = ("simple-1", "simple-2", "simple-5", "umr")

#: Scripted failure injections understood by :func:`run_failure_scenario`.
FAILURE_SCENARIOS = ("crash", "slowdown", "probe_crash")


def chunk_signature(report: ExecutionReport) -> list[tuple[float, int]]:
    """The scheduler's decision sequence: (units, worker) in dispatch order."""
    ordered = sorted(report.chunks, key=lambda c: c.chunk_id)
    return [(round(c.units, 6), c.worker_index) for c in ordered]


def parity_options(**overrides) -> DispatchOptions:
    """Dispatch options that make the decision sequence timing-independent."""
    options = DispatchOptions(estimate_source="oracle")
    for name, value in overrides.items():
        setattr(options, name, value)
    return options


def run_backend(
    kind: str,
    grid: Grid,
    algorithm: str,
    load_file: str | Path,
    *,
    stepsize: int = 64,
    workdir: str | Path | None = None,
    time_scale: float = 0.01,
    options: DispatchOptions | None = None,
) -> ExecutionReport:
    """One run of ``algorithm`` over ``load_file`` on the named backend.

    ``workdir`` is required for the real backends (chunk/result files);
    a per-backend subdirectory is created under it.
    """
    division = UniformBytesDivision(Path(load_file), stepsize=stepsize)
    scheduler = make_scheduler(algorithm)
    opts = options or parity_options()
    if kind == "simulation":
        from ..simulation.master import simulate_run

        return simulate_run(
            grid,
            scheduler,
            division.total_units,
            division=division,
            seed=0,
            options=opts,
        )
    if workdir is None:
        raise ValueError(f"backend {kind!r} needs a workdir")
    if kind == "local":
        from ..execution.local import LocalExecutionBackend

        backend = LocalExecutionBackend(
            Path(workdir) / "local", time_scale=time_scale
        )
        return backend.execute(grid, scheduler, division, None, options=opts)
    if kind == "remote":
        from ..execution.appspec import app_spec
        from ..execution.local import DigestApp
        from ..net.remote import RemoteExecutionBackend, RemoteWorkerPool

        with RemoteWorkerPool() as pool:
            endpoints = pool.spawn(
                len(grid.workers), app_spec(DigestApp), Path(workdir) / "remote"
            )
            backend = RemoteExecutionBackend(
                endpoints, Path(workdir) / "remote", time_scale=time_scale
            )
            return backend.execute(grid, scheduler, division, None, options=opts)
    raise ValueError(f"unknown backend kind {kind!r}; expected one of {BACKENDS}")


# -- failure-injection scenarios ---------------------------------------------
#
# Each scenario injects one scripted failure through a substrate wrapper
# and pins the resulting resilience decision log.  Injections happen at
# deterministic points in the serialized-dispatch order (enqueue-time,
# probe-time), never from timers, so the decision sequence is identical
# on the modeled clock and on real ones.

#: The worker every scenario targets (middle of the speed ladder).
FAILURE_TARGET = 1


def failure_grid() -> Grid:
    """Three heterogeneous workers; worker 0 is the fastest.

    The strict speed ladder makes recovery targets unambiguous: the
    fastest live worker is always worker 0, so escalations, redirects
    and speculations land there on every backend.
    """
    workers = [
        WorkerSpec(name=f"w{i}", speed=speed, bandwidth=4000.0, cluster="chaos")
        for i, speed in enumerate((400.0, 200.0, 100.0))
    ]
    return Grid.from_clusters(Cluster(name="chaos", workers=workers))


class _CrashHost:
    """Delegating compute host whose target worker crashes every chunk.

    The failure is reported at enqueue time -- after the serialized link
    delivered the chunk, before any compute starts -- which is the same
    point in the dispatch order on every backend.
    """

    def __init__(self, inner, target: int) -> None:
        self._inner = inner
        self._target = target
        self._core = None
        self.time_advances_when_idle = inner.time_advances_when_idle

    def bind(self, core) -> None:
        self._core = core
        self._inner.bind(core)

    def start(self) -> None:
        self._inner.start()

    def stop(self) -> None:
        self._inner.stop()

    def enqueue(self, chunk, payload) -> None:
        if chunk.worker_index == self._target:
            self._core.chunk_failed(
                chunk, f"injected: worker {self._target} crashed"
            )
            return
        self._inner.enqueue(chunk, payload)

    def poll(self) -> None:
        self._inner.poll()

    def wait(self) -> bool:
        return self._inner.wait()

    def idle_tick(self) -> bool:
        return self._inner.idle_tick()


class _SlowdownHost(_CrashHost):
    """Delegating compute host that silently swallows one chunk.

    The first chunk addressed to the target worker is held forever --
    never computed, never failed -- modeling a straggler that stopped
    making progress.  Only speculation can finish the run.
    """

    def __init__(self, inner, target: int) -> None:
        super().__init__(inner, target)
        self.held: list = []

    def enqueue(self, chunk, payload) -> None:
        if chunk.worker_index == self._target and not self.held:
            self.held.append(chunk)
            return
        self._inner.enqueue(chunk, payload)


class _ProbeCrashCosts:
    """Noise-free probe costs with one worker injected to fail its probe.

    Does NOT delegate to the backend's real probe mechanism: survivors
    get the exact modeled costs (so the derived estimates equal the
    platform truth, with zero measurement noise, on every backend) and
    the target raises.  That normalization is what lets a probing
    scheduler (UMR) plan the identical chunk sequence everywhere.
    """

    def __init__(self, grid: Grid, target: int) -> None:
        self._workers = grid.workers
        self._target = target

    def realized_transfer_time(self, index: int, units: float) -> float:
        return self._workers[index].transfer_time(units)

    def realized_compute_time(self, index: int, units: float, **_kwargs) -> float:
        if index == self._target:
            raise ExecutionError(
                f"injected: worker {index} crashed during probe"
            )
        return self._workers[index].compute_time(units)


def _scenario_setup(scenario: str) -> tuple[str, DispatchOptions]:
    if scenario == "crash":
        # w1 fails every chunk; attempts exhaust after one retransmit,
        # the chunk escalates to w0, the second escalation quarantines
        # w1 and the rest of its plan is redirected pre-dispatch.
        return "simple-5", parity_options(
            retry=RetryPolicy(max_attempts=2),
            resilience=ResiliencePolicy(
                escalation=EscalationPolicy(quarantine_after=2)
            ),
        )
    if scenario == "slowdown":
        # w1 swallows its one chunk; the detector flags it once the
        # modeled wait clears min_wait and a twin runs on idle w0.
        return "simple-1", parity_options(
            resilience=ResiliencePolicy(straggler=StragglerPolicy(min_wait=5.0)),
        )
    if scenario == "probe_crash":
        # w1 dies during the probe phase itself; the tolerate path
        # quarantines it before the first dispatch.  UMR actually uses
        # the probe estimates, so this exercises probe -> plan parity.
        options = DispatchOptions(
            estimate_source="probe",
            resilience=ResiliencePolicy(escalation=EscalationPolicy()),
        )
        return "umr", options
    raise ValueError(
        f"unknown scenario {scenario!r}; expected one of {FAILURE_SCENARIOS}"
    )


def _scenario_substrate(
    kind: str,
    grid: Grid,
    division,
    workdir: str | Path | None,
    time_scale: float,
    options: DispatchOptions,
):
    """(substrate, cleanup) for one scenario run on the named backend."""
    if kind == "simulation":
        from ..simulation.master import SimulationOptions, build_substrate

        sim_opts = SimulationOptions(**vars(options))
        return build_substrate(grid, seed=0, options=sim_opts), None
    if workdir is None:
        raise ValueError(f"backend {kind!r} needs a workdir")
    if kind == "local":
        from ..execution.local import LocalExecutionBackend

        backend = LocalExecutionBackend(
            Path(workdir) / "local", time_scale=time_scale
        )
        return backend.substrate(grid, division), None
    if kind == "remote":
        from ..execution.appspec import app_spec
        from ..execution.local import DigestApp
        from ..net.remote import RemoteExecutionBackend, RemoteWorkerPool

        pool = RemoteWorkerPool()
        try:
            endpoints = pool.spawn(
                len(grid.workers), app_spec(DigestApp), Path(workdir) / "remote"
            )
            backend = RemoteExecutionBackend(
                endpoints, Path(workdir) / "remote", time_scale=time_scale
            )
            return backend.substrate(grid, division), pool.stop
        except BaseException:
            pool.stop()
            raise
    raise ValueError(f"unknown backend kind {kind!r}; expected one of {BACKENDS}")


def run_failure_scenario(
    scenario: str,
    kind: str,
    load_file: str | Path,
    *,
    stepsize: int = 64,
    workdir: str | Path | None = None,
    time_scale: float = 0.01,
) -> list[tuple]:
    """Run one scripted failure scenario; return the resilience log.

    The returned log is the core's timestamp-free decision sequence
    (speculations, escalations, quarantines, redirects, probe failures)
    and must be identical across every backend in :data:`BACKENDS`.
    """
    grid = failure_grid()
    division = UniformBytesDivision(Path(load_file), stepsize=stepsize)
    algorithm, options = _scenario_setup(scenario)
    substrate, cleanup = _scenario_substrate(
        kind, grid, division, workdir, time_scale, options
    )
    try:
        if scenario == "crash":
            substrate.host = _CrashHost(substrate.host, FAILURE_TARGET)
        elif scenario == "slowdown":
            substrate.host = _SlowdownHost(substrate.host, FAILURE_TARGET)
        elif scenario == "probe_crash":
            substrate.probe_costs = _ProbeCrashCosts(grid, FAILURE_TARGET)
        core = DispatchCore(
            grid,
            make_scheduler(algorithm),
            division.total_units,
            substrate=substrate,
            division=division,
            options=options,
        )
        core.run()
        return core.resilience_log
    finally:
        if cleanup is not None:
            cleanup()
