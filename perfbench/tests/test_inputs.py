"""The generated inputs depend on the seed and on nothing else."""

from inputs import (
    PAPER_BASE_SEED,
    PAPER_RUNS,
    gateway_mixed_inputs,
    paper_grid_runs,
    remote_bytes_inputs,
)


def test_paper_grid_inputs_are_seed_deterministic():
    first, again, other = paper_grid_runs(7), paper_grid_runs(7), paper_grid_runs(8)
    assert first == again
    assert first != other  # the seed orders the runs ...
    assert sorted(first, key=repr) == sorted(other, key=repr)  # ... of one figure grid
    assert len(first) == 3 * 2 * 6 * PAPER_RUNS
    # run k of every algorithm shares one noise seed (matched runs), the
    # paper harness's own
    assert {r.seed for r in first} == set(range(PAPER_BASE_SEED, PAPER_BASE_SEED + PAPER_RUNS))


def test_remote_bytes_inputs_are_seed_deterministic():
    first, again, other = remote_bytes_inputs(3), remote_bytes_inputs(3), remote_bytes_inputs(4)
    assert first == again
    assert first.files != other.files
    assert first.jobs == other.jobs  # the job mix is fixed; the bytes vary
    assert [j.algorithm for j in first.jobs[0][:3]] == ["simple-4", "wf", "wf"]


def test_gateway_mixed_inputs_are_seed_deterministic():
    assert gateway_mixed_inputs(5) == gateway_mixed_inputs(5)
    assert gateway_mixed_inputs(5) != gateway_mixed_inputs(6)
    jobs = gateway_mixed_inputs(5).jobs[0]
    assert {j.algorithm for j in jobs} == {"umr", "wf", "simple-5"}
    assert len({j.tenant for j in jobs}) == 2
    assert {j.priority for j in jobs} == {0, 1}
