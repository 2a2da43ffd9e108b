"""Output-transfer-aware UMR (the paper's reference [37]).

Yang & Casanova's technical report "Extensions to The Multi-Installment
Algorithm: Affine Costs and Output Data Transfers" extends multi-round
scheduling to applications that ship results *back* through the same
serialized master link -- exactly the situation of the MPEG-4 case study,
where each worker returns an encoded chunk (our simulator models this via
``SimulationOptions.output_factor``).

Planning model
--------------
If each unit of input produces ``output_factor`` units of output, the
master link must carry ``(1 + output_factor)`` units per unit of load, and
every round costs one extra start-up per worker for the result transfer.
The steady-state dispatch condition of UMR becomes::

    sum_i (2*nLat_i + (1 + o) * a_{j+1,i} / B_i) = T_j

which is the stock UMR recurrence on a *transformed platform* with
``B_i' = B_i / (1 + o)`` and ``nLat_i' = 2 * nLat_i``.  We therefore reuse
:func:`repro.core.umr.compute_umr_plan` on the transformed worker
estimates -- the chunk sizes come out output-aware while the dispatch
machinery stays identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

from ..errors import InfeasibleScheduleError, SchedulingError
from ..platform.resources import WorkerSpec
from .base import SchedulerConfig
from .umr import UMR, compute_umr_plan, proportional_one_round


def output_transformed_estimates(
    estimates: list[WorkerSpec], output_factor: float
) -> list[WorkerSpec]:
    """Platform view whose link costs include the output transfers."""
    if output_factor < 0:
        raise SchedulingError(f"output_factor must be >= 0, got {output_factor}")
    if output_factor == 0:
        return list(estimates)
    return [
        replace(
            w,
            bandwidth=w.bandwidth / (1.0 + output_factor),
            comm_latency=2.0 * w.comm_latency,
        )
        for w in estimates
    ]


class OutputAwareUMR(UMR):
    """UMR whose round plan budgets link time for result transfers.

    Use together with ``SimulationOptions(output_factor=o)`` so the
    simulated link actually carries the outputs the plan budgets for.
    Stock UMR under the same conditions overcommits the link and stalls
    its own pipelining -- the extension bench quantifies the gap.
    """

    uses_probing = True

    def __init__(self, output_factor: float, *, max_rounds: int = 128) -> None:
        super().__init__(max_rounds=max_rounds)
        if output_factor < 0:
            raise SchedulingError(f"output_factor must be >= 0, got {output_factor}")
        self._output_factor = output_factor
        self.name = "umr-out"

    def _plan(self, config: SchedulerConfig) -> None:
        transformed = output_transformed_estimates(
            config.estimates, self._output_factor
        )
        try:
            plan = compute_umr_plan(
                transformed,
                config.total_load,
                quantum=config.quantum,
                max_rounds=self._max_rounds,
            )
            self._fallback = False
        except InfeasibleScheduleError:
            plan = proportional_one_round(transformed, config.total_load)
            self._fallback = True
        self._plan_obj = plan
        self._queue = deque(self._build_queue(plan, phase="umr-out"))

    def annotations(self) -> dict:
        out = super().annotations()
        out["umr_output_factor"] = self._output_factor
        return out
