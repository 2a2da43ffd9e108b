"""Fixed-round multi-installment scheduling [Bharadwaj, Ghose & Mani, 1995].

The multi-round predecessor UMR improves upon (paper Section 2.2): the
load is delivered in a *fixed, user-chosen* number of installments
(rounds), assuming purely linear communication and computation costs and a
homogeneous platform.  Because the round count is "magically fixed" rather
than optimized, and start-up costs are ignored, it underperforms UMR on
platforms with significant latencies -- which is exactly the comparison
our ablation bench regenerates.

Within each installment the chunk sizes follow the UMR-style steady-state
pipelining condition under the linear model: each round's dispatch time
fills the previous round's computation, giving pure geometric growth with
ratio ``B / (N * S)`` (no additive term, since there are no latencies).
"""

from __future__ import annotations

from .._util import ordered_sum
from ..errors import SchedulingError
from .base import DispatchRequest, Scheduler, SchedulerConfig, WorkerState


class MultiInstallment(Scheduler):
    """Homogeneous fixed-round multi-installment scheduler.

    Parameters
    ----------
    rounds:
        Number of installments (fixed in advance; the point of the
        algorithm -- and its weakness).
    """

    uses_probing = True

    def __init__(self, rounds: int = 5) -> None:
        super().__init__()
        if rounds < 1:
            raise SchedulingError(f"installments must be >= 1, got {rounds}")
        self._rounds = rounds
        self.name = f"multiinstallment-{rounds}"
        self._queue: list[DispatchRequest] = []

    def _plan(self, config: SchedulerConfig) -> None:
        n = config.num_workers
        # homogeneous approximation: mean speed / bandwidth
        mean_speed = ordered_sum(w.speed for w in config.estimates) / n
        mean_bw = ordered_sum(w.bandwidth for w in config.estimates) / n
        ratio = mean_bw / (n * mean_speed)
        if ratio <= 0:
            raise SchedulingError("degenerate platform for multi-installment")
        # per-round per-worker chunk: geometric series alpha_j = alpha_0 * ratio^j
        weights = [ratio**j for j in range(self._rounds)]
        total_weight = n * ordered_sum(weights)
        alpha0 = config.total_load / total_weight
        self._queue = [
            DispatchRequest(
                worker_index=i,
                units=alpha0 * weights[j],
                round_index=j,
                phase="installment",
            )
            for j in range(self._rounds)
            for i in range(n)
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
                round_index=request.round_index,
                phase=request.phase,
            )
        remaining = self.remaining_units
        if remaining > 0 and not self.done_dispatching():
            return DispatchRequest(
                worker_index=0,
                units=remaining,
                round_index=self._rounds,
                phase="installment",
            )
        return None

    def annotations(self) -> dict:
        return {"installments": self._rounds}
