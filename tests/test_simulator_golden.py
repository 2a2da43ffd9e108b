"""Golden decisions of the simulator on a slice of the paper's figure grid.

Every scheduling decision the simulator makes on the Fig. 2/3/4 panels is
pinned against ``tests/fixtures/simulator_golden.json``: 3 panels x
gamma in {0, 0.1} x the six paper algorithms x run seeds 1000-1001
(72 runs).  Pinned exactly: the chunk count, every chunk's
``(worker_index, round_index, phase)`` and the annotations that are not
floats.  Pinned to rel 1e-12: the makespan and every chunk's units and
timestamps, so a last-ulp move of a float result alone does not fail
the test.  Scheduler arithmetic sums floats left to right
(``repro._util.ordered_sum``), so decisions do not depend on the Python
version's builtin ``sum()``.

Speedups of the simulator hot path must keep this test passing
unchanged.  To regenerate the fixture after an intended change of
behaviour::

    PYTHONPATH=src python tests/test_simulator_golden.py

With ``--digest`` the script instead prints a sha256 over every field of
all 360 execution reports of the full grid (run seeds 1000-1009), every
float by its exact ``repr``.  Two checkouts that make bit-identical
decisions print the same digest on the same Python::

    PYTHONPATH=src python tests/test_simulator_golden.py --digest
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from repro.core.registry import PAPER_ALGORITHMS, make_scheduler
from repro.platform import presets
from repro.platform.presets import PAPER_LOAD_UNITS
from repro.simulation.master import simulate_run

FIXTURE = Path(__file__).parent / "fixtures" / "simulator_golden.json"

PANELS = (
    ("fig2-das2", "das2_cluster", {"nodes": 16}),
    ("fig3-meteor", "meteor_cluster", {"nodes": 16}),
    ("fig4-mixed", "mixed_grid", {}),
)
GAMMAS = (0.0, 0.1)
SEEDS = (1000, 1001)
#: the paper harness's run seeds, covered by ``--digest``
DIGEST_SEEDS = tuple(range(1000, 1010))
REL_TOL = 1e-12
#: per-chunk floats, in fixture column order
CHUNK_FLOATS = ("units", "send_start", "send_end", "compute_start", "compute_end")


def _run_keys(seeds=SEEDS) -> list[tuple[str, str, dict, float, str, int]]:
    return [
        (panel, factory, kwargs, gamma, algorithm, seed)
        for panel, factory, kwargs in PANELS
        for gamma in GAMMAS
        for algorithm in PAPER_ALGORITHMS
        for seed in seeds
    ]


def _key(panel: str, gamma: float, algorithm: str, seed: int) -> str:
    return f"{panel}/gamma={gamma}/{algorithm}/seed={seed}"


def _record(report) -> dict:
    return {
        "makespan": report.makespan,
        "num_chunks": report.num_chunks,
        "decisions": [[c.worker_index, c.round_index, c.phase] for c in report.chunks],
        "floats": [[getattr(c, name) for name in CHUNK_FLOATS] for c in report.chunks],
        "annotations": {
            k: v for k, v in sorted(report.annotations.items()) if not isinstance(v, float)
        },
    }


def _simulate(factory: str, kwargs: dict, gamma: float, algorithm: str, seed: int):
    grid = getattr(presets, factory)(**kwargs)
    return simulate_run(
        grid, make_scheduler(algorithm), total_load=PAPER_LOAD_UNITS,
        gamma=gamma, seed=seed,
    )


def generate() -> dict:
    runs = {}
    for panel, factory, kwargs, gamma, algorithm, seed in _run_keys():
        report = _simulate(factory, kwargs, gamma, algorithm, seed)
        runs[_key(panel, gamma, algorithm, seed)] = _record(report)
    return {"chunk_floats": list(CHUNK_FLOATS), "runs": runs}


def digest() -> tuple[str, int]:
    """(hex digest, number of reports) over the full paper grid."""
    sha = hashlib.sha256()
    keys = _run_keys(DIGEST_SEEDS)
    for _panel, factory, kwargs, gamma, algorithm, seed in keys:
        report = _simulate(factory, kwargs, gamma, algorithm, seed)
        sha.update(json.dumps(dataclasses.asdict(report), sort_keys=True).encode())
    return sha.hexdigest(), len(keys)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_grid(golden):
    assert golden["chunk_floats"] == list(CHUNK_FLOATS)
    expected = {_key(p, g, a, s) for p, _f, _kw, g, a, s in _run_keys()}
    assert set(golden["runs"]) == expected
    assert len(expected) == 72


def _close(actual: float, expected: float) -> bool:
    return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=REL_TOL)


@pytest.mark.parametrize(
    "panel,factory,kwargs,gamma,algorithm,seed",
    _run_keys(),
    ids=[_key(p, g, a, s) for p, _f, _kw, g, a, s in _run_keys()],
)
def test_decisions_match_golden(golden, panel, factory, kwargs, gamma, algorithm, seed):
    want = golden["runs"][_key(panel, gamma, algorithm, seed)]
    got = _record(_simulate(factory, kwargs, gamma, algorithm, seed))
    assert got["num_chunks"] == want["num_chunks"]
    assert got["decisions"] == want["decisions"]
    assert got["annotations"] == want["annotations"]
    assert _close(got["makespan"], want["makespan"]), (got["makespan"], want["makespan"])
    for index, (row, want_row) in enumerate(zip(got["floats"], want["floats"])):
        for name, value, expected in zip(CHUNK_FLOATS, row, want_row):
            assert _close(value, expected), (index, name, value, expected)


def _write_fixture() -> None:
    FIXTURE.parent.mkdir(exist_ok=True)
    data = generate()
    # one run per line keeps diffs of a regenerated fixture readable
    lines = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(record, separators=(',', ':'))}"
        for key, record in data["runs"].items()
    )
    FIXTURE.write_text(
        f'{{"chunk_floats": {json.dumps(data["chunk_floats"])},\n"runs": {{\n{lines}\n}}}}\n'
    )
    sys.stdout.write(f"wrote {FIXTURE} ({len(data['runs'])} runs)\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--digest"]:
        hexdigest, count = digest()
        sys.stdout.write(f"{hexdigest}  {count} reports, Python {sys.version.split()[0]}\n")
    else:
        _write_fixture()
