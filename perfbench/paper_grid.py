"""paper-grid: the simulator hot path that regenerates the paper's figures.

Sequential ``simulate_run`` calls in one process over the Fig. 2/3/4
platforms x gamma in {0, 0.1} x the six paper algorithms x 10 run seeds
(360 runs, a fixed chunk count, per pass).  ``dispatch``, ``core``,
``division`` and ``simulation`` do all the work; ``net``, ``store`` and
``service`` do none, so this is the "no change" side for every
service-path change.

Checks: every gamma=0 run matches the analytic replay
(``theory.report_replay_makespan``) within rel 1e-9; every run's chunks
sum to the total load; every pass dispatches the same number of chunks;
each panel's winner meets what ``benchmarks/bench_fig2/3/4`` pin.  The
traced phase rebuilds each run from ``build_substrate`` + ``DispatchCore``
with every layer proxied and must reproduce the untraced makespans and
chunk counts exactly.  Timings are host-speed normalized (``speed.py``);
the raw wall-clock ones are reported beside them as ``raw.*``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from repro.core.registry import PAPER_ALGORITHMS, make_scheduler
from repro.platform import presets
from repro.platform.presets import PAPER_LOAD_UNITS
from repro.simulation.compute import UncertaintyModel
from repro.simulation.master import SimulationOptions, simulate_run
from repro.theory import report_replay_makespan

import layers
from common import RunResult, peak_rss_mb
from inputs import PAPER_PANELS, GridRun, paper_grid_runs
from proxies import traced_simulation
from spans import SpanRecorder
from speed import SpeedSamples

#: what bench_fig2/3/4 pin about each panel's winner: the slowdown vs
#: the panel's best of ``any`` (the best of) or ``all`` (the worst of)
#: the named algorithms must not exceed the bound (0.0: the winner)
WINNER_PINS = {
    ("fig2-das2", 0.0): ("any", ("umr", "rumr"), 0.02),
    ("fig2-das2", 0.10): ("any", ("fixed-rumr",), 0.0),
    ("fig3-meteor", 0.0): ("all", ("umr", "wf", "rumr", "fixed-rumr"), 0.10),
    ("fig3-meteor", 0.10): ("any", ("wf", "fixed-rumr"), 0.0),
    ("fig4-mixed", 0.0): ("any", ("umr", "rumr"), 0.03),
    ("fig4-mixed", 0.10): ("any", ("wf", "fixed-rumr"), 0.0),
}
REPLAY_REL_TOL = 1e-9
SETUP_REPEATS = 5

_SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.core.registry import PAPER_ALGORITHMS, make_scheduler
from repro.platform import presets
from repro.simulation.master import simulate_run
from repro.theory import report_replay_makespan
grids = [getattr(presets, f)(**kw) for _n, f, kw in %r]
schedulers = [make_scheduler(a) for a in PAPER_ALGORITHMS]
""" % (PAPER_PANELS,)


def build_grids():
    return {name: getattr(presets, factory)(**kwargs) for name, factory, kwargs in PAPER_PANELS}


def measure_setup(src: str) -> list[float]:
    """Fresh-interpreter set-up: import the simulator, build the panels.

    This is what every figure regeneration pays before its first run;
    measured in a child interpreter because this process has already
    paid it.  Returns the seconds of each repeat.
    """
    seconds = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, src], check=True, timeout=120)
        seconds.append(perf_counter() - start)
    return seconds


def _simulate(grid, run: GridRun):
    return simulate_run(
        grid, make_scheduler(run.algorithm), total_load=PAPER_LOAD_UNITS,
        gamma=run.gamma, seed=run.seed,
    )


def _simulate_traced(grid, run: GridRun, rec: SpanRecorder):
    """The same run as :func:`simulate_run`, every layer proxied."""
    return traced_simulation(
        grid, make_scheduler(run.algorithm), PAPER_LOAD_UNITS, rec,
        uncertainty=UncertaintyModel(gamma=run.gamma), seed=run.seed,
        options=SimulationOptions(),
    )


def _check_run(checks, grid, run: GridRun, report) -> None:
    units = sum(c.units for c in report.chunks)
    checks.expect(
        abs(units - PAPER_LOAD_UNITS) <= 1e-9 * PAPER_LOAD_UNITS,
        f"{run}: chunk units sum to {units}, not {PAPER_LOAD_UNITS}",
    )
    if run.gamma == 0.0:
        replay = report_replay_makespan(grid, report)
        checks.expect(
            abs(replay - report.makespan) <= REPLAY_REL_TOL * abs(report.makespan),
            f"{run}: makespan {report.makespan!r} != analytic replay {replay!r}",
        )


def _check_winners(checks, makespans: dict) -> None:
    panels = defaultdict(lambda: defaultdict(list))
    for run, makespan in makespans.items():
        panels[(run.panel, run.gamma)][run.algorithm].append(makespan)
    for key, (mode, pinned, bound) in WINNER_PINS.items():
        means = {a: statistics.fmean(v) for a, v in panels[key].items()}
        best = min(means.values())
        pick = min if mode == "any" else max
        slowdown = pick(means[a] / best - 1.0 for a in pinned)
        checks.expect(
            slowdown <= bound + 1e-12,
            f"panel {key}: {mode} of {pinned} is {slowdown:.4f} behind the winner "
            f"{min(means, key=means.get)} (pinned <= {bound})",
        )


def _timed_passes(grids, runs, seconds: float, result: RunResult, samples: SpeedSamples,
                  *, rec=None):
    """Whole passes until ``seconds`` have been measured.

    One host-speed sample follows every run.  Returns the (start, end)
    wall interval of every run, the chunk total, the passes made and the
    first pass's (makespan, chunks) per run.
    """
    intervals: list[tuple[float, float]] = []
    busy = 0.0
    first: dict[GridRun, tuple[float, int]] = {}
    pass_chunks: list[int] = []
    while busy < seconds or not pass_chunks:
        chunks_this_pass = 0
        for run in runs:
            grid = grids[run.panel]
            result.ledger.attempt()
            start = perf_counter()
            try:
                report = _simulate(grid, run) if rec is None else _simulate_traced(grid, run, rec)
            except Exception as exc:  # a failed run is an error, not a crash
                result.ledger.fail(type(exc).__name__)
                continue
            end = perf_counter()
            samples.sample()
            intervals.append((start, end))
            busy += end - start
            chunks_this_pass += report.num_chunks
            first.setdefault(run, (report.makespan, report.num_chunks))
            _check_run(result.checks, grid, run, report)
        pass_chunks.append(chunks_this_pass)
    result.checks.expect(
        len(set(pass_chunks)) == 1, f"chunk count differs between passes: {pass_chunks}"
    )
    return intervals, sum(pass_chunks), len(pass_chunks), first


def _per_run_medians(times: list[float], runs_per_pass: int) -> list[float]:
    """Each run's median time over the passes (every pass repeats the
    same runs in the same order), so a burst of host noise during one
    pass does not decide the tail."""
    if len(times) % runs_per_pass:
        return times  # a run failed: passes no longer line up
    by_run = [times[i::runs_per_pass] for i in range(runs_per_pass)]
    return [statistics.median(t) for t in by_run]


def _put_run_metrics(result: RunResult, intervals, chunks: int, samples: SpeedSamples,
                     runs_per_pass: int) -> None:
    """Normalized timings, and the raw wall-clock ones as ``raw.*``."""
    raw = [end - start for start, end in intervals]
    norm = [(end - start) * samples.factor(start, end) for start, end in intervals]
    for label, seconds in (("", norm), ("raw.", raw)):
        result.put_rate(f"{label}jobs_per_s", len(seconds), sum(seconds))
        result.put_timings(f"{label}job", _per_run_medians(seconds, runs_per_pass))
        result.put_rate(f"{label}chunks_per_s", chunks, sum(seconds))


def run(seed: int, seconds: float, trace: bool, src: str) -> RunResult:
    result = RunResult()
    samples = SpeedSamples()
    runs = paper_grid_runs(seed)
    setup = measure_setup(src)
    grids = build_grids()
    # warm-up: one gamma=0 run per panel and algorithm (lazy imports,
    # first-call caches); not measured
    for panel, _f, _kw in PAPER_PANELS:
        for algorithm in PAPER_ALGORITHMS:
            _simulate(grids[panel], GridRun(panel, 0.0, algorithm, 1))

    budget = seconds / 2 if trace else seconds
    intervals, chunks, passes, plain = _timed_passes(grids, runs, budget, result, samples)
    _check_winners(result.checks, {r: v[0] for r, v in plain.items()})
    _put_run_metrics(result, intervals, chunks, samples, len(runs))
    result.put("setup_s", statistics.median(setup), "s", len(setup))
    result.extra.update(passes=passes, chunks_per_pass=chunks // passes, runs_per_pass=len(runs))
    if not trace:
        result.put("peak_rss_mb", peak_rss_mb(), "MB")
        return result

    rec = SpanRecorder()
    traced = RunResult()
    t_intervals, t_chunks, _, proxied = _timed_passes(grids, runs, 0.0, traced, samples, rec=rec)
    _put_run_metrics(traced, t_intervals, t_chunks, samples, len(runs))
    result.ledger.attempted += traced.ledger.attempted
    result.ledger.failures.update(traced.ledger.failures)
    result.checks.passed += traced.checks.passed
    for message in traced.checks.failures:
        result.checks.expect(False, f"traced: {message}")
    mismatched = [r for r in runs if proxied.get(r) != plain.get(r)]
    result.checks.expect(
        not mismatched,
        f"{len(mismatched)} proxied runs differ from unproxied, e.g. "
        + (f"{mismatched[0]}: {proxied.get(mismatched[0])} vs {plain.get(mismatched[0])}" if mismatched else ""),
    )
    metrics = layers.compute(rec, jobs=len(t_intervals), chunks=t_chunks)
    layers.put_trace_delta(metrics, traced, result)
    result.extra["trace_spans"] = rec
    result.extra["layer_metrics"] = metrics
    return result
