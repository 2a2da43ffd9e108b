"""Failure-injection parity: identical recovery decisions on every backend.

Recovery is core policy, not backend behavior: an injected crash,
straggler, or probe-phase death must produce the *same* resilience
decision log (escalations, quarantines, redirects, speculations) on the
simulator and on both real substrates.  The scenarios are scripted
at deterministic points in the serialized-dispatch order, so the logs
are pinned exactly -- any drift is a regression in the unified core.
"""

import pytest

from repro.dispatch.parity import (
    BACKENDS,
    FAILURE_SCENARIOS,
    FAILURE_TARGET,
    failure_grid,
    run_failure_scenario,
)

#: The pinned decision sequence of every scripted scenario.  Worker 1
#: (the target) fails; worker 0 is the fastest live worker, so every
#: recovery lands there.
EXPECTED = {
    # simple-5 on 3 workers plans w1's chunks as ids 1, 4, 7, 10, 13.
    # Chunk 1: retransmit (RetryPolicy) then escalate; chunk 4: second
    # escalation trips quarantine_after=2 -- but the quarantine decision
    # is recorded when the escalation count crosses the threshold,
    # before the escalate tuple of the *next* failure; the remaining
    # planned chunks are redirected pre-dispatch.
    "crash": [
        ("escalate", 1, 1, 0),
        ("quarantine", 1),
        ("escalate", 4, 1, 0),
        ("redirect", 7, 1, 0),
        ("redirect", 10, 1, 0),
        ("redirect", 13, 1, 0),
    ],
    # simple-1: w1 swallows its only chunk (id 1); once the modeled wait
    # clears min_wait the detector flags it, the twin runs on idle w0
    # and wins; the original never completes (abandoned).
    "slowdown": [
        ("speculate", 1, 1, 0),
        ("speculation_won", 1, 1, 0),
    ],
    # UMR probes; w1 dies during its probe.  The tolerate path records
    # the probe failure and quarantines before the first dispatch; every
    # chunk UMR planned for w1 is then redirected.
    "probe_crash": [
        ("probe_failure", 1),
        ("quarantine", 1),
        ("redirect", 1, 1, 0),
        ("redirect", 4, 1, 0),
        ("redirect", 7, 1, 0),
    ],
}


@pytest.fixture
def load_file(tmp_path):
    path = tmp_path / "load.bin"
    path.write_bytes(bytes(range(256)) * 4)  # 16 units at stepsize 64
    return path


def test_scenario_and_expectation_sets_agree():
    assert set(EXPECTED) == set(FAILURE_SCENARIOS)


def test_failure_grid_has_unambiguous_recovery_target():
    grid = failure_grid()
    speeds = [w.speed for w in grid.workers]
    assert speeds[0] == max(speeds)  # recovery target is always worker 0
    assert len(set(speeds)) == len(speeds)  # strict ladder, no ties
    assert FAILURE_TARGET != 0


@pytest.mark.parametrize("scenario", FAILURE_SCENARIOS)
def test_scenario_decision_log_is_pinned_on_simulation(
    scenario, load_file, tmp_path
):
    log = run_failure_scenario(
        scenario, "simulation", load_file, workdir=tmp_path
    )
    assert log == EXPECTED[scenario]


@pytest.mark.parametrize("scenario", FAILURE_SCENARIOS)
def test_scenario_decision_log_is_identical_on_every_backend(
    scenario, load_file, tmp_path
):
    """The tentpole guarantee: one recovery policy, three substrates."""
    logs = {
        kind: run_failure_scenario(
            scenario, kind, load_file, workdir=tmp_path / kind
        )
        for kind in BACKENDS
    }
    for kind in BACKENDS:
        assert logs[kind] == EXPECTED[scenario], (
            f"{scenario!r} diverged on backend {kind!r}"
        )


def test_unknown_scenario_is_rejected(load_file, tmp_path):
    with pytest.raises(ValueError, match="unknown scenario"):
        run_failure_scenario("meteor", "simulation", load_file, workdir=tmp_path)
