"""The unified dispatch core: cross-backend parity, retry, observability.

The three backends (simulation, threaded local, remote socket workers)
are adapters over one
:class:`repro.dispatch.core.DispatchCore`.  These tests pin the property
that justifies the refactor: the scheduling algorithm makes identical
decisions no matter which substrate executes them.
"""

import json

import pytest

from repro.apst.division import UniformBytesDivision
from repro.core.registry import make_scheduler
from repro.dispatch import DispatchOptions, RetryPolicy
from repro.dispatch.parity import chunk_signature, parity_options, run_backend
from repro.errors import ExecutionError
from repro.execution.local import LocalExecutionBackend
from repro.execution.testing import FlakyApp
from repro.obs import (
    CHUNK_COMPLETED,
    CHUNK_DISPATCHED,
    CHUNK_RETRANSMITTED,
    PROBE_FINISHED,
    Observability,
    build_chrome_trace,
    write_chrome_trace,
)
from repro.platform.resources import Cluster, Grid
from repro.simulation.compute import DETERMINISTIC, ComputeModel
from repro.simulation.master import SimulationOptions, simulate_run
from repro.apst.probing import run_probe_phase

LOAD_BYTES = 1024
STEPSIZE = 64


@pytest.fixture
def grid():
    """Heterogeneous platform, so assignments actually differ per worker."""
    return Grid.from_clusters(
        Cluster.homogeneous("fast", 2, speed=800.0, bandwidth=8000.0,
                            comm_latency=0.02, comp_latency=0.01),
        Cluster.homogeneous("slow", 1, speed=300.0, bandwidth=4000.0,
                            comm_latency=0.05, comp_latency=0.02),
    )


@pytest.fixture
def load_file(tmp_path):
    path = tmp_path / "load.bin"
    path.write_bytes(bytes(LOAD_BYTES))
    return path


class TestCrossBackendParity:
    @pytest.mark.parametrize("algorithm", ["simple-2", "umr"])
    def test_identical_decision_sequence_on_all_backends(
        self, grid, load_file, tmp_path, algorithm
    ):
        """DETERMINISTIC costs + oracle estimates -> same (units, worker)

        sequence on the simulator, the threaded backend, and the remote
        socket backend.  This is the refactor's core guarantee: one loop,
        three substrates, zero behavioral drift.
        """
        signatures = {
            kind: chunk_signature(
                run_backend(kind, grid, algorithm, load_file,
                            stepsize=STEPSIZE, workdir=tmp_path,
                            time_scale=0.01)
            )
            for kind in ("simulation", "local", "remote")
        }
        assert signatures["local"] == signatures["simulation"]
        assert signatures["remote"] == signatures["simulation"]
        assert len(signatures["simulation"]) > 0

    def test_signatures_conserve_load(self, grid, load_file, tmp_path):
        signature = chunk_signature(
            run_backend("local", grid, "umr", load_file,
                        stepsize=STEPSIZE, workdir=tmp_path, time_scale=0.01)
        )
        assert sum(units for units, _ in signature) == pytest.approx(LOAD_BYTES)
        assert {worker for _, worker in signature} <= {0, 1, 2}


class TestUnifiedProbing:
    def test_sim_probe_time_matches_probe_phase(self, grid):
        """The master's reported probe_time is exactly run_probe_phase's."""
        model = ComputeModel(grid.workers, DETERMINISTIC, seed=0)
        expected = run_probe_phase(list(grid.workers), model, 32.0).duration
        report = simulate_run(
            grid, make_scheduler("wf"), total_load=float(LOAD_BYTES), seed=0,
            options=SimulationOptions(probe_units=32.0),
        )
        assert report.probe_time == pytest.approx(expected)
        assert report.probe_time > 0

    def test_sim_probe_time_matches_under_noise(self, grid):
        """Same equality when estimates inherit single-sample noise."""
        from repro.simulation.compute import UncertaintyModel

        uncertainty = UncertaintyModel(gamma=0.3)
        model = ComputeModel(grid.workers, uncertainty, seed=7)
        expected = run_probe_phase(list(grid.workers), model, 32.0).duration
        report = simulate_run(
            grid, make_scheduler("wf"), total_load=float(LOAD_BYTES),
            gamma=0.3, seed=7, options=SimulationOptions(probe_units=32.0),
        )
        assert report.probe_time == pytest.approx(expected)

    def test_simple_n_skips_probing_on_every_backend(self, grid, load_file, tmp_path):
        """SIMPLE-n 'uses no probing' (paper Section 3.6) -- uniformly now."""
        for kind in ("simulation", "local"):
            report = run_backend(
                kind, grid, "simple-1", load_file, stepsize=STEPSIZE,
                workdir=tmp_path, time_scale=0.01,
                options=DispatchOptions(),  # estimate_source="probe"
            )
            assert report.probe_time == 0.0


class TestRetryPolicy:
    def test_retransmit_recovers_from_chunk_failure(self, grid, load_file, tmp_path):
        """max_attempts=2: the failed chunk is re-shipped and the run completes."""
        division = UniformBytesDivision(load_file, stepsize=STEPSIZE)
        backend = LocalExecutionBackend(
            tmp_path / "retry", app=FlakyApp(fail_on_calls=[2]), time_scale=0.01
        )
        options = parity_options(retry=RetryPolicy(max_attempts=2))
        report = backend.execute(
            grid, make_scheduler("simple-2"), division, None, options=options
        )
        assert report.annotations["retransmitted_chunks"] == 1
        report.validate()  # load conserved, causality holds after the retry

    def test_default_policy_fails_fast(self, grid, load_file, tmp_path):
        division = UniformBytesDivision(load_file, stepsize=STEPSIZE)
        backend = LocalExecutionBackend(
            tmp_path / "failfast", app=FlakyApp(fail_on_calls=[2]), time_scale=0.01
        )
        with pytest.raises(ExecutionError, match="injected"):
            backend.execute(
                grid, make_scheduler("simple-2"), division, None,
                options=parity_options(),
            )

    def test_exhausted_retries_fail(self, grid, load_file, tmp_path):
        """A chunk that fails on every attempt still aborts the run."""
        division = UniformBytesDivision(load_file, stepsize=STEPSIZE)
        backend = LocalExecutionBackend(
            tmp_path / "exhaust",
            app=FlakyApp(fail_on_calls=list(range(2, 40))),  # all but the first
            time_scale=0.01,
        )
        with pytest.raises(ExecutionError, match="injected"):
            backend.execute(
                grid, make_scheduler("simple-2"), division, None,
                options=parity_options(retry=RetryPolicy(max_attempts=2)),
            )

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    def test_retransmit_emits_event(self, grid, load_file, tmp_path):
        obs = Observability.armed()
        division = UniformBytesDivision(load_file, stepsize=STEPSIZE)
        backend = LocalExecutionBackend(
            tmp_path / "retry_obs", app=FlakyApp(fail_on_calls=[2]), time_scale=0.01
        )
        options = parity_options(
            retry=RetryPolicy(max_attempts=2), observability=obs
        )
        backend.execute(
            grid, make_scheduler("simple-2"), division, None, options=options
        )
        events = obs.ring_events(CHUNK_RETRANSMITTED)
        assert len(events) == 1
        assert events[0].fields["attempt"] == 2


class TestRealBackendObservability:
    def test_local_run_emits_events_and_metrics(self, grid, load_file, tmp_path):
        obs = Observability.armed()
        division = UniformBytesDivision(load_file, stepsize=STEPSIZE)
        backend = LocalExecutionBackend(tmp_path / "obs", time_scale=0.01)
        report = backend.execute(
            grid, make_scheduler("umr"), division, None, probe_units=64.0,
            options=DispatchOptions(observability=obs),
        )
        assert len(obs.ring_events(CHUNK_DISPATCHED)) == report.num_chunks
        assert len(obs.ring_events(CHUNK_COMPLETED)) == report.num_chunks
        probe_events = obs.ring_events(PROBE_FINISHED)
        assert len(probe_events) == 1
        assert probe_events[0].fields["source"] == "probe"
        completed = obs.metrics.counter("repro_chunks_completed_total")
        assert completed.value == report.num_chunks
        assert [s.name for s in obs.tracer.spans("engine.run")]  # span recorded

    def test_local_run_exports_valid_chrome_trace(self, grid, load_file, tmp_path):
        obs = Observability.armed()
        division = UniformBytesDivision(load_file, stepsize=STEPSIZE)
        backend = LocalExecutionBackend(tmp_path / "trace", time_scale=0.01)
        report = backend.execute(
            grid, make_scheduler("umr"), division, None, probe_units=64.0,
            options=DispatchOptions(observability=obs),
        )
        trace = build_chrome_trace(
            reports={1: report},
            tracer=obs.tracer,
            worker_names={i: w.name for i, w in enumerate(grid.workers)},
        )
        out = write_chrome_trace(tmp_path / "trace.json", trace)
        loaded = json.loads(out.read_text())
        assert loaded["traceEvents"]
        lanes = {
            e["args"]["name"] for e in loaded["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert any("fast" in lane for lane in lanes)  # worker lanes rendered

    def test_remote_run_exports_valid_chrome_trace(self, grid, load_file, tmp_path):
        """The remote socket backend instruments exactly like the others."""
        from repro.execution.appspec import app_spec
        from repro.execution.local import DigestApp
        from repro.net.remote import RemoteExecutionBackend, RemoteWorkerPool

        obs = Observability.armed()
        division = UniformBytesDivision(load_file, stepsize=STEPSIZE)
        with RemoteWorkerPool() as pool:
            endpoints = pool.spawn(
                len(grid.workers), app_spec(DigestApp), tmp_path / "workers"
            )
            backend = RemoteExecutionBackend(
                endpoints, tmp_path / "remote_trace", time_scale=0.01
            )
            report = backend.execute(
                grid, make_scheduler("umr"), division, None, probe_units=64.0,
                options=DispatchOptions(observability=obs),
            )
        assert len(obs.ring_events(CHUNK_COMPLETED)) == report.num_chunks
        trace = build_chrome_trace(
            reports={1: report},
            tracer=obs.tracer,
            worker_names={i: w.name for i, w in enumerate(grid.workers)},
        )
        out = write_chrome_trace(tmp_path / "remote_trace.json", trace)
        loaded = json.loads(out.read_text())
        assert loaded["traceEvents"]
        lanes = {
            e["args"]["name"] for e in loaded["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert any("fast" in lane for lane in lanes)


class TestLayering:
    """The execution layer must not reach into the scheduler-driving core."""

    def test_execution_layer_does_not_import_scheduler_base(self):
        import repro.execution as execution_pkg
        from pathlib import Path

        package_dir = Path(execution_pkg.__file__).parent
        offenders = [
            path.name
            for path in sorted(package_dir.glob("*.py"))
            if "core.base" in path.read_text() or "core import base" in path.read_text()
        ]
        assert offenders == [], (
            f"{offenders} import repro.core.base; scheduler driving belongs "
            "to repro.dispatch.core -- backends only provide substrates"
        )

    def test_backends_have_no_dispatch_loop(self):
        import repro.execution as execution_pkg
        import repro.simulation as simulation_pkg
        from pathlib import Path

        for pkg in (execution_pkg, simulation_pkg):
            for path in sorted(Path(pkg.__file__).parent.glob("*.py")):
                assert "next_dispatch" not in path.read_text(), (
                    f"{path} drives the scheduler directly; only "
                    "repro.dispatch.core may call next_dispatch"
                )
