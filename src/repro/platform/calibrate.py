"""Platform calibration from paper-reported aggregates.

The paper reports its testbed in aggregate terms -- the communication/
computation ratio ``r``, start-up costs, and the 68-178 minute makespan
band -- rather than raw per-worker rates.  This module inverts those
aggregates into concrete :class:`~repro.platform.resources.WorkerSpec`
parameters:

* the *ideal compute time* (load fully parallelized, no communication)
  pins the aggregate speed:  ``sum(S_i) = W / T_ideal``;
* the ratio pins the bandwidth:  ``B = r * mean(S_i)`` (per the paper's
  definition of r as per-unit compute time over per-unit transfer time).

Heterogeneity is expressed as per-worker speed factors (e.g. CPU clock
ratios), which preserve the aggregate speed.
"""

from __future__ import annotations

from collections.abc import Sequence

from .._util import check_positive, ordered_sum
from ..errors import PlatformError
from .resources import Cluster, Grid, WorkerSpec


def calibrate_cluster(
    name: str,
    *,
    nodes: int,
    comm_comp_ratio: float,
    total_load: float,
    ideal_compute_time: float,
    comm_latency: float = 0.0,
    comp_latency: float = 0.0,
    speed_factors: Sequence[float] | None = None,
) -> Cluster:
    """Build a cluster whose aggregates match the paper's reported values.

    Parameters
    ----------
    comm_comp_ratio:
        Target platform ``r`` (bandwidth over mean speed).
    total_load / ideal_compute_time:
        Together they fix the aggregate speed: processing ``total_load``
        units with every worker busy takes ``ideal_compute_time`` seconds.
    speed_factors:
        Optional per-node relative speeds (e.g. CPU MHz ratios); length
        must equal ``nodes``.  They are normalized so the aggregate speed
        is preserved exactly.
    """
    if nodes < 1:
        raise PlatformError("nodes must be >= 1")
    check_positive("comm_comp_ratio", comm_comp_ratio, PlatformError)
    check_positive("total_load", total_load, PlatformError)
    check_positive("ideal_compute_time", ideal_compute_time, PlatformError)
    total_speed = total_load / ideal_compute_time
    mean_speed = total_speed / nodes
    bandwidth = comm_comp_ratio * mean_speed

    if speed_factors is None:
        factors = [1.0] * nodes
    else:
        factors = [float(f) for f in speed_factors]
        if len(factors) != nodes:
            raise PlatformError(
                f"speed_factors has {len(factors)} entries for {nodes} nodes"
            )
        if min(factors) <= 0:
            raise PlatformError("speed factors must be positive")
    scale = total_speed / ordered_sum(factors)
    workers = tuple(
        WorkerSpec(
            name=f"{name}-{i:02d}",
            speed=factors[i] * scale,
            bandwidth=bandwidth,
            comm_latency=comm_latency,
            comp_latency=comp_latency,
            cluster=name,
        )
        for i in range(nodes)
    )
    return Cluster(name=name, workers=workers)


def clock_speed_factors(mhz: Sequence[float]) -> list[float]:
    """Speed factors from CPU clock rates (normalized to the fastest)."""
    if not mhz:
        raise PlatformError("need at least one clock rate")
    fastest = max(mhz)
    if fastest <= 0:
        raise PlatformError("clock rates must be positive")
    return [m / fastest for m in mhz]


def platform_summary(grid: Grid) -> dict:
    """Aggregate view of a grid, for reports and sanity checks."""
    speeds = [w.speed for w in grid.workers]
    bandwidths = [w.bandwidth for w in grid.workers]
    return {
        "workers": len(grid),
        "clusters": list(grid.clusters),
        "total_speed": grid.total_speed,
        "mean_speed": grid.mean_speed,
        "comm_comp_ratio": grid.comm_comp_ratio,
        "speed_min": min(speeds),
        "speed_max": max(speeds),
        "bandwidth_mean": ordered_sum(bandwidths) / len(bandwidths),
        "comm_latency_mean": ordered_sum(w.comm_latency for w in grid.workers) / len(grid),
        "comp_latency_mean": ordered_sum(w.comp_latency for w in grid.workers) / len(grid),
    }
