"""Factoring-family self-scheduling algorithms (paper Sections 2.2, 3.6).

**Weighted Factoring** [Hummel et al., SPAA'96] divides the load into
rounds, halving the per-round batch each time (down to a minimum chunk
size) so that execution ends with small chunks -- the classic defense
against uncertainty in computation times.  Chunk sizes within a round are
proportional to worker speed ("weighted"), and chunks are handed out
greedily as workers need work.  Following the paper's APST-DV
implementation, our Weighted Factoring uses probing for initial speed
estimates *and* keeps refining them from observed chunk execution times
throughout the run (an exponentially weighted moving average) -- "SIMPLE-n
and UMR do not perform such adaptation".

The module also provides the lineage algorithms the paper cites as
Factoring's ancestry: plain (unweighted) **Factoring** [Hummel et al.,
CACM'92] and **GSS** (Guided Self-Scheduling) [Polychronopoulos/Kuck,
via Hagerup's experimental study], used by the ablation benches.
"""

from __future__ import annotations

from .._util import ordered_sum
from ..errors import SchedulingError
from ..platform.resources import WorkerSpec
from .base import DispatchRequest, Scheduler, SchedulerConfig, WorkerState

#: Default EWMA gain for online speed adaptation.
ADAPTATION_GAIN = 0.3

#: Default multiple of the per-chunk start-up cost that the smallest chunk's
#: computation should still amortize.  10x keeps the dispatch overhead of the
#: final tiny chunks below ~10% of their own compute time while leaving the
#: load-balance granularity at ~1% of the makespan on the paper platforms.
MIN_CHUNK_STARTUP_MULTIPLE = 10.0


class WeightedFactoring(Scheduler):
    """Weighted Factoring with probing and online speed adaptation.

    Parameters
    ----------
    factor:
        Per-round decay of the remaining load (0.5 = classic halving).
    prefetch_depth:
        Maximum chunks outstanding (in flight + queued + computing) per
        worker before it stops being eligible for the next chunk.  2 gives
        single-buffering overlap; 1 disables overlap entirely.
    min_chunk:
        Smallest chunk to dispatch, in load units; ``None`` derives it
        from the platform estimates so the smallest chunk still amortizes
        ``MIN_CHUNK_STARTUP_MULTIPLE`` times the start-up costs.
    adaptive:
        Refine per-worker speed estimates from observed chunk times.
    weighted:
        Scale chunks by estimated worker speed; False gives plain
        Factoring.
    """

    name = "wf"
    uses_probing = True

    def __init__(
        self,
        *,
        factor: float = 0.5,
        prefetch_depth: int = 2,
        min_chunk: float | None = None,
        adaptive: bool = True,
        weighted: bool = True,
        adaptation_gain: float = ADAPTATION_GAIN,
    ) -> None:
        super().__init__()
        if not 0.0 < factor < 1.0:
            raise SchedulingError(f"factor must be in (0, 1), got {factor}")
        if prefetch_depth < 1:
            raise SchedulingError("prefetch_depth must be >= 1")
        if not 0.0 < adaptation_gain <= 1.0:
            raise SchedulingError("adaptation_gain must be in (0, 1]")
        self._factor = factor
        self._prefetch = prefetch_depth
        self._min_chunk_param = min_chunk
        self._adaptive = adaptive
        self._weighted = weighted
        self._gain = adaptation_gain
        if not weighted:
            self.name = "factoring"
        self._speeds: list[float] = []
        self._comp_latencies: list[float] = []
        self._min_chunks: list[float] = []
        self._per_worker_round: list[int] = []
        self._adaptations = 0

    def _plan(self, config: SchedulerConfig) -> None:
        self._speeds = [w.speed for w in config.estimates]
        self._comp_latencies = [w.comp_latency for w in config.estimates]
        self._per_worker_round = [0] * config.num_workers
        self._adaptations = 0
        if self._min_chunk_param is not None:
            floor = max(self._min_chunk_param, config.quantum)
            self._min_chunks = [floor] * config.num_workers
        else:
            self._min_chunks = [
                max(config.quantum, f)
                for f in self._derive_min_chunks(config.estimates)
            ]

    @staticmethod
    def _derive_min_chunks(estimates: list[WorkerSpec]) -> list[float]:
        """Per-worker chunk whose computation amortizes that worker's
        start-up costs (a platform-wide floor would force slow workers in
        heterogeneous grids to take disproportionately long chunks)."""
        return [
            w.speed * (w.comm_latency + w.comp_latency) * MIN_CHUNK_STARTUP_MULTIPLE
            for w in estimates
        ]

    @staticmethod
    def _derive_min_chunk(estimates: list[WorkerSpec]) -> float:
        """Platform-mean variant, used by schedulers with a single floor."""
        per_worker = WeightedFactoring._derive_min_chunks(estimates)
        return ordered_sum(per_worker) / len(per_worker)

    # -- dispatch -----------------------------------------------------------
    def next_dispatch(self, now: float, workers: list[WorkerState]) -> DispatchRequest | None:
        remaining = self.remaining_units
        if remaining <= 0:
            return None
        eligible = [w for w in workers if w.outstanding < self._prefetch]
        if not eligible:
            return None
        target = self._pick_worker(eligible)
        units = self._chunk_size(target.index, remaining)
        round_idx = self._per_worker_round[target.index]
        self._per_worker_round[target.index] += 1
        return DispatchRequest(
            worker_index=target.index,
            units=units,
            round_index=round_idx,
            phase="factoring",
        )

    def _pick_worker(self, eligible: list[WorkerState]) -> WorkerState:
        """Most-starved eligible worker: least outstanding work per unit speed."""

        def starvation(w: WorkerState) -> tuple[float, float, int]:
            speed = self._speeds[w.index]
            return (w.outstanding_units / speed, -speed, w.index)

        return min(eligible, key=starvation)

    def _chunk_size(self, worker_index: int, remaining: float) -> float:
        if self._weighted:
            total_speed = ordered_sum(self._speeds)
            weight = self._speeds[worker_index] / total_speed
        else:
            weight = 1.0 / len(self._speeds)
        units = remaining * self._factor * weight
        units = max(units, self._min_chunks[worker_index])
        return min(units, remaining)

    # -- adaptation ------------------------------------------------------------
    def notify_completion(
        self, chunk, now: float, predicted_time: float, actual_time: float
    ) -> None:
        if not self._adaptive:
            return
        latency = self._comp_latencies[chunk.worker_index]
        effective = actual_time - latency
        if effective <= 0 or chunk.units <= 0:
            return
        observed_speed = chunk.units / effective
        current = self._speeds[chunk.worker_index]
        self._speeds[chunk.worker_index] = (
            (1.0 - self._gain) * current + self._gain * observed_speed
        )
        self._adaptations += 1

    def annotations(self) -> dict:
        mean_floor = ordered_sum(self._min_chunks) / len(self._min_chunks)
        return {
            "min_chunk": round(mean_floor, 3),
            "factor": self._factor,
            "adaptive": self._adaptive,
            "weighted": self._weighted,
            "speed_adaptations": self._adaptations,
        }


class PlainFactoring(WeightedFactoring):
    """Unweighted, non-adaptive Factoring [Hummel et al., CACM'92]."""

    def __init__(self, *, factor: float = 0.5, prefetch_depth: int = 2,
                 min_chunk: float | None = None) -> None:
        super().__init__(
            factor=factor,
            prefetch_depth=prefetch_depth,
            min_chunk=min_chunk,
            adaptive=False,
            weighted=False,
        )
        self.name = "factoring"


class GuidedSelfScheduling(Scheduler):
    """GSS: each dispatched chunk is ``remaining / N`` (with a floor).

    The ancestor of Factoring's decreasing-chunk idea (paper Section 2.2);
    kept for the lineage ablation bench.
    """

    name = "gss"
    uses_probing = True

    def __init__(self, *, prefetch_depth: int = 2, min_chunk: float | None = None) -> None:
        super().__init__()
        if prefetch_depth < 1:
            raise SchedulingError("prefetch_depth must be >= 1")
        self._prefetch = prefetch_depth
        self._min_chunk_param = min_chunk
        self._min_chunk = 1.0
        self._dispatch_count = 0

    def _plan(self, config: SchedulerConfig) -> None:
        self._dispatch_count = 0
        if self._min_chunk_param is not None:
            self._min_chunk = max(self._min_chunk_param, config.quantum)
        else:
            self._min_chunk = max(
                config.quantum,
                WeightedFactoring._derive_min_chunk(config.estimates),
            )

    def next_dispatch(self, now: float, workers: list[WorkerState]) -> DispatchRequest | None:
        remaining = self.remaining_units
        if remaining <= 0:
            return None
        eligible = [w for w in workers if w.outstanding < self._prefetch]
        if not eligible:
            return None
        target = min(eligible, key=lambda w: (w.outstanding_units, w.index))
        units = max(self._min_chunk, remaining / len(workers))
        units = min(units, remaining)
        self._dispatch_count += 1
        return DispatchRequest(
            worker_index=target.index,
            units=units,
            round_index=self._dispatch_count - 1,
            phase="gss",
        )

    def annotations(self) -> dict:
        return {"min_chunk": round(self._min_chunk, 3)}
