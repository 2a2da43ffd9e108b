"""Classic One-Round divisible load scheduling (paper Section 2.2 lineage).

The first DLS algorithms assign exactly one chunk per worker.  On a star
(single-level tree) network with a serialized master link, the optimal
one-round schedule makes every worker finish computing at the same instant.
We implement the two canonical cost models the paper's survey section
describes:

* **linear** -- transfer and computation proportional to chunk size (no
  start-up costs).  With workers served in order 1..N, worker i starts
  computing after all transfers 1..i, so equal finish times give a linear
  system solved in closed form by back-substitution.
* **affine** -- adds the communication/computation start-up costs
  (``nLat_i``, ``cLat_i``), "known to be more realistic as real networks
  do experience start-up costs".

These serve as ablation baselines: the paper's motivation for multi-round
algorithms is precisely that one-round schedules overlap communication and
computation poorly.

Participation note: with affine costs it can be optimal to *exclude* slow
workers; we keep all workers whose resulting chunk is positive and drop
the rest, re-solving until stable (a standard greedy used in the DLS
literature).
"""

from __future__ import annotations

from .._util import ordered_sum
from ..errors import InfeasibleScheduleError, SchedulingError
from ..platform.resources import WorkerSpec
from .base import DispatchRequest, Scheduler, SchedulerConfig, WorkerState


def solve_one_round(
    estimates: list[WorkerSpec],
    total_load: float,
    *,
    affine: bool = True,
) -> list[float]:
    """Chunk sizes for the equal-finish-time one-round schedule.

    Workers are served in the given order.  Let ``t_i`` be the time worker
    *i* finishes.  Worker *i* starts computing when its transfer completes::

        finish_i = sum_{k<=i} (nLat_k + a_k/B_k) + cLat_i + a_i/S_i

    Imposing ``finish_i = finish_{i+1}`` for all i gives::

        cLat_i + a_i/S_i = nLat_{i+1} + a_{i+1}/B_{i+1} + cLat_{i+1} + a_{i+1}/S_{i+1}

    so each ``a_{i+1}`` is an affine function of ``a_i``; load conservation
    pins down ``a_1``.  With ``affine=False`` all latencies are treated as
    zero (the pure linear model).

    Returns chunk sizes aligned with ``estimates`` (0.0 for excluded
    workers).
    """
    if total_load <= 0:
        raise SchedulingError("one-round solve needs positive load")
    if not estimates:
        raise SchedulingError("one-round solve needs workers")

    active = list(range(len(estimates)))
    while active:
        chunks = _solve_active(estimates, active, total_load, affine)
        negative = [i for i, a in zip(active, chunks) if a <= 0]
        if not negative:
            out = [0.0] * len(estimates)
            for i, a in zip(active, chunks):
                out[i] = a
            return out
        # drop the most infeasible worker and re-solve
        worst = min(zip(active, chunks), key=lambda pair: pair[1])[0]
        active.remove(worst)
    raise InfeasibleScheduleError(
        "one-round schedule infeasible: start-up costs exceed the load on every subset"
    )


def _solve_active(
    estimates: list[WorkerSpec],
    active: list[int],
    total_load: float,
    affine: bool,
) -> list[float]:
    """Solve the equal-finish system for the active worker subset.

    Writes every chunk as ``a_k = p_k + q_k * a_0`` and applies load
    conservation to find ``a_0``.
    """
    specs = [estimates[i] for i in active]
    p = [0.0]
    q = [1.0]
    for i in range(len(specs) - 1):
        w, nxt = specs[i], specs[i + 1]
        n_lat = nxt.comm_latency if affine else 0.0
        c_lat_i = w.comp_latency if affine else 0.0
        c_lat_n = nxt.comp_latency if affine else 0.0
        # cLat_i + a_i/S_i = nLat_{i+1} + a_{i+1}/B_{i+1} + cLat_{i+1} + a_{i+1}/S_{i+1}
        denom = 1.0 / nxt.bandwidth + 1.0 / nxt.speed
        const = (c_lat_i - n_lat - c_lat_n) / denom
        slope = (1.0 / w.speed) / denom
        p.append(const + slope * p[i])
        q.append(slope * q[i])
    sum_p = ordered_sum(p)
    sum_q = ordered_sum(q)
    if sum_q <= 0:
        raise InfeasibleScheduleError("degenerate one-round system")
    a0 = (total_load - sum_p) / sum_q
    return [pi + qi * a0 for pi, qi in zip(p, q)]


class OneRound(Scheduler):
    """One-round equal-finish-time DLS on a star network."""

    uses_probing = True

    def __init__(self, *, affine: bool = True, order_by_bandwidth: bool = True) -> None:
        super().__init__()
        self._affine = affine
        self._order_by_bandwidth = order_by_bandwidth
        self.name = "oneround-affine" if affine else "oneround-linear"
        self._queue: list[DispatchRequest] = []
        self._excluded: list[str] = []

    def _plan(self, config: SchedulerConfig) -> None:
        order = list(range(config.num_workers))
        if self._order_by_bandwidth:
            # serving faster links first is the classic ordering heuristic
            order.sort(key=lambda i: -config.estimates[i].bandwidth)
        reordered = [config.estimates[i] for i in order]
        chunks = solve_one_round(reordered, config.total_load, affine=self._affine)
        self._excluded = [
            reordered[k].name for k, a in enumerate(chunks) if a <= 0
        ]
        self._queue = [
            DispatchRequest(
                worker_index=order[k], units=a, round_index=0, phase="oneround"
            )
            for k, a in enumerate(chunks)
            if a > 0
        ]

    def next_dispatch(self, now: float, workers: list[WorkerState]) -> DispatchRequest | None:
        while self._queue:
            request = self._queue.pop(0)
            units = min(request.units, self.remaining_units)
            if units <= 0:
                continue
            return DispatchRequest(
                worker_index=request.worker_index,
                units=units,
                round_index=0,
                phase="oneround",
            )
        remaining = self.remaining_units
        if remaining > 0 and not self.done_dispatching():
            fastest = max(
                range(len(self.config.estimates)),
                key=lambda i: self.config.estimates[i].speed,
            )
            return DispatchRequest(
                worker_index=fastest, units=remaining, round_index=1, phase="oneround"
            )
        return None

    def annotations(self) -> dict:
        return {
            "oneround_affine": self._affine,
            "oneround_excluded_workers": list(self._excluded),
        }
