"""Seeded input generation: every input a workload hands the program.

The benchmark takes ``--seed``; the functions here turn it into the
concrete inputs, and the program sees only those.  The same seed always
gives the same inputs (``tests/test_inputs.py`` pins this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.experiments import ExperimentConfig
from repro.core.registry import PAPER_ALGORITHMS

#: the Fig. 2/3/4 panels: (name, preset factory name, preset kwargs)
PAPER_PANELS = (
    ("fig2-das2", "das2_cluster", {"nodes": 16}),
    ("fig3-meteor", "meteor_cluster", {"nodes": 16}),
    ("fig4-mixed", "mixed_grid", {}),
)
PAPER_GAMMAS = (0.0, 0.10)
PAPER_RUNS = 10
PAPER_BASE_SEED = ExperimentConfig.base_seed

#: gateway-mixed job rotation: algorithms x tenants x priorities.  The
#: rotation is fixed and the files are all one size: the seed draws the
#: bytes and which file each job names, which the simulated runs do not
#: depend on, so the work does not vary from seed to seed.
MIXED_ALGORITHMS = ("umr", "wf", "simple-5")
MIXED_TENANTS = ("tenant-a", "tenant-b")
MIXED_FILES = 4
MIXED_STEP = 10
#: tiny jobs: 2k units of 10-byte steps each
MIXED_FILE_BYTES = 20_000

#: remote-bytes: static SIMPLE-n beside adaptive WF.  Two WF jobs per
#: SIMPLE job, so the median job falls inside one of the two latency
#: modes rather than on the gap between them.
REMOTE_CYCLE = ("simple-4", "wf", "wf")
REMOTE_FILES = 2
REMOTE_PAYLOAD_BYTES = 4 << 20
REMOTE_STEP = 4096


@dataclass(frozen=True)
class GridRun:
    """One ``simulate_run`` of the paper-grid workload."""

    panel: str
    gamma: float
    algorithm: str
    seed: int


def paper_grid_runs(seed: int) -> list[GridRun]:
    """One pass: 3 panels x 2 gammas x 6 algorithms x 10 run seeds.

    The run seeds are the paper harness's own (``ExperimentConfig``'s
    ``base_seed`` + k, as in ``bench_fig*``), so a pass is exactly the
    figure grid, with the winners those benches pin; like the paper,
    run *k* of every algorithm sees the same realized noise stream.
    The benchmark seed sets the order the runs execute in: run seeds
    drawn from it would change which runs are slowest, moving the tail
    from seed to seed by more than the host's noise does.
    """
    runs = [
        GridRun(panel, gamma, algorithm, PAPER_BASE_SEED + k)
        for panel, _factory, _kwargs in PAPER_PANELS
        for gamma in PAPER_GAMMAS
        for algorithm in PAPER_ALGORITHMS
        for k in range(PAPER_RUNS)
    ]
    random.Random(seed).shuffle(runs)
    return runs


@dataclass(frozen=True)
class GatewayJob:
    """One job a closed-loop client submits through the gateway."""

    algorithm: str
    input_name: str
    tenant: str = "default"
    priority: int = 0


def task_xml(job: GatewayJob, step: int) -> str:
    """The APST-DV task XML the client submits for ``job``."""
    return (
        f'<task executable="perfbench" input="{job.input_name}">'
        f'<divisibility input="{job.input_name}" method="uniform" start="0" '
        f'steptype="bytes" stepsize="{step}" algorithm="{job.algorithm}"/>'
        "</task>"
    )


@dataclass(frozen=True)
class GatewayInputs:
    files: dict[str, bytes]
    #: one job sequence per client; clients cycle through theirs
    jobs: tuple[tuple[GatewayJob, ...], ...]
    step: int


def gateway_mixed_inputs(seed: int, clients: int = 2, per_client: int = 48) -> GatewayInputs:
    rng = random.Random(seed)
    files = {
        f"mixed{i}.bin": rng.randbytes(MIXED_FILE_BYTES)
        for i in range(MIXED_FILES)
    }
    names = sorted(files)
    jobs = []
    for client in range(clients):
        sequence = []
        # clients run in rounds (gateway.Rounds); offset each client's
        # rotation so the loads sharing a round differ
        for k in range(client * 7, client * 7 + per_client):
            sequence.append(
                GatewayJob(
                    algorithm=MIXED_ALGORITHMS[k % len(MIXED_ALGORITHMS)],
                    input_name=rng.choice(names),
                    tenant=MIXED_TENANTS[(k // len(MIXED_ALGORITHMS)) % len(MIXED_TENANTS)],
                    priority=(k // (len(MIXED_ALGORITHMS) * len(MIXED_TENANTS))) % 2,
                )
            )
        jobs.append(tuple(sequence))
    return GatewayInputs(files=files, jobs=tuple(jobs), step=MIXED_STEP)


def remote_bytes_inputs(seed: int) -> GatewayInputs:
    rng = random.Random(seed)
    files = {
        f"payload{i}.bin": rng.randbytes(REMOTE_PAYLOAD_BYTES) for i in range(REMOTE_FILES)
    }
    names = sorted(files)
    jobs = tuple(
        GatewayJob(algorithm=algorithm, input_name=names[k % len(names)])
        for k, algorithm in enumerate(REMOTE_CYCLE * len(names))
    )
    return GatewayInputs(files=files, jobs=(jobs,), step=REMOTE_STEP)
