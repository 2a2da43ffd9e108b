"""Grid platform description: workers, clusters, and single-level-tree grids.

APST-DV (and all the multi-round DLS literature it implements) models the
platform as a *single-level tree*: one master that holds the input load and
``N`` workers, each reached through its own logical link.  Transfers out of
the master are **serialized** (one outgoing transfer at a time), which the
paper identifies as the reason communication matters even at large
communication/computation ratios.

Costs are *affine*, per the paper:

* transferring a chunk of ``x`` load units to worker *i* occupies the master
  link for ``comm_latency_i + x / bandwidth_i`` seconds;
* computing that chunk on worker *i* takes ``comp_latency_i + x / speed_i``
  seconds (times a multiplicative noise term when uncertainty is enabled).

Load is measured in abstract *units* (bytes, frames, records...); speeds in
units/second and bandwidths in units/second, so the communication/
computation ratio of the platform is ``r = bandwidth / speed`` per worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .._util import check_nonnegative, check_positive, ordered_sum
from ..errors import PlatformError


@dataclass(frozen=True)
class WorkerSpec:
    """Static description of one worker and its link from the master.

    Parameters
    ----------
    name:
        Unique worker identifier (e.g. ``"das2-03"``).
    speed:
        Computation rate in load units per second (``S_i``).
    bandwidth:
        Link bandwidth from the master in load units per second (``B_i``).
    comm_latency:
        Communication start-up cost ``nLat_i`` in seconds (connection
        establishment, batch-scheduler hand-off...).
    comp_latency:
        Computation start-up cost ``cLat_i`` in seconds (process launch,
        input staging on the node...).
    cluster:
        Name of the cluster this worker belongs to (informational).
    """

    name: str
    speed: float
    bandwidth: float
    comm_latency: float = 0.0
    comp_latency: float = 0.0
    cluster: str = "default"

    def __post_init__(self) -> None:
        if not self.name:
            raise PlatformError("worker name must be non-empty")
        check_positive("speed", self.speed, PlatformError)
        check_positive("bandwidth", self.bandwidth, PlatformError)
        check_nonnegative("comm_latency", self.comm_latency, PlatformError)
        check_nonnegative("comp_latency", self.comp_latency, PlatformError)

    @property
    def comm_comp_ratio(self) -> float:
        """Per-unit communication/computation ratio ``r_i = B_i / S_i``.

        Matches the paper's definition: the time to *compute* one unit of
        load divided by the time to *transfer* it.
        """
        return self.bandwidth / self.speed

    def unit_compute_time(self) -> float:
        """Seconds to compute one load unit (excluding start-up)."""
        return 1.0 / self.speed

    def unit_transfer_time(self) -> float:
        """Seconds to transfer one load unit (excluding start-up)."""
        return 1.0 / self.bandwidth

    def compute_time(self, units: float) -> float:
        """Deterministic (noise-free) compute time of a chunk."""
        check_nonnegative("units", units, PlatformError)
        return self.comp_latency + units / self.speed

    def transfer_time(self, units: float) -> float:
        """Link occupancy to send a chunk of ``units`` to this worker."""
        check_nonnegative("units", units, PlatformError)
        return self.comm_latency + units / self.bandwidth

    def scaled(self, *, speed_factor: float = 1.0, bandwidth_factor: float = 1.0) -> "WorkerSpec":
        """Return a copy with scaled speed/bandwidth (for heterogeneity)."""
        check_positive("speed_factor", speed_factor, PlatformError)
        check_positive("bandwidth_factor", bandwidth_factor, PlatformError)
        return replace(
            self,
            speed=self.speed * speed_factor,
            bandwidth=self.bandwidth * bandwidth_factor,
        )


@dataclass(frozen=True)
class Cluster:
    """A named group of workers sharing a site (DAS-2, Meteor, GRAIL...)."""

    name: str
    workers: tuple[WorkerSpec, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise PlatformError("cluster name must be non-empty")
        if not self.workers:
            raise PlatformError(f"cluster {self.name!r} has no workers")
        for w in self.workers:
            if w.cluster != self.name:
                raise PlatformError(
                    f"worker {w.name!r} declares cluster {w.cluster!r}, "
                    f"but is placed in cluster {self.name!r}"
                )

    def __len__(self) -> int:
        return len(self.workers)

    @staticmethod
    def homogeneous(
        name: str,
        count: int,
        *,
        speed: float,
        bandwidth: float,
        comm_latency: float = 0.0,
        comp_latency: float = 0.0,
    ) -> "Cluster":
        """Build a cluster of ``count`` identical workers named ``name-NN``."""
        if count <= 0:
            raise PlatformError("cluster must have at least one worker")
        workers = tuple(
            WorkerSpec(
                name=f"{name}-{i:02d}",
                speed=speed,
                bandwidth=bandwidth,
                comm_latency=comm_latency,
                comp_latency=comp_latency,
                cluster=name,
            )
            for i in range(count)
        )
        return Cluster(name=name, workers=workers)


@dataclass(frozen=True)
class Grid:
    """A single-level-tree platform: a master plus workers from >= 1 clusters.

    The order of ``workers`` is the canonical worker index used everywhere
    (scheduler dispatch targets, traces, reports).
    """

    workers: tuple[WorkerSpec, ...]
    master_name: str = "master"
    clusters: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.workers:
            raise PlatformError("grid must contain at least one worker")
        names = [w.name for w in self.workers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise PlatformError(f"duplicate worker names in grid: {dupes}")
        if not self.clusters:
            seen: list[str] = []
            for w in self.workers:
                if w.cluster not in seen:
                    seen.append(w.cluster)
            object.__setattr__(self, "clusters", tuple(seen))

    def __len__(self) -> int:
        return len(self.workers)

    def __iter__(self):
        return iter(self.workers)

    @staticmethod
    def from_clusters(*clusters: Cluster, master_name: str = "master") -> "Grid":
        """Aggregate clusters into one grid (single-level tree)."""
        if not clusters:
            raise PlatformError("at least one cluster required")
        names = [c.name for c in clusters]
        if len(set(names)) != len(names):
            raise PlatformError(f"duplicate cluster names: {names}")
        workers: list[WorkerSpec] = []
        for c in clusters:
            workers.extend(c.workers)
        return Grid(
            workers=tuple(workers),
            master_name=master_name,
            clusters=tuple(c.name for c in clusters),
        )

    def subset(self, indices: list[int]) -> "Grid":
        """Grid restricted to the given worker indices (order preserved)."""
        if not indices:
            raise PlatformError("subset must keep at least one worker")
        try:
            workers = tuple(self.workers[i] for i in indices)
        except IndexError as exc:
            raise PlatformError(f"worker index out of range: {indices}") from exc
        return Grid(workers=workers, master_name=self.master_name)

    @property
    def total_speed(self) -> float:
        """Aggregate compute rate ``sum(S_i)`` in units/second."""
        return ordered_sum(w.speed for w in self.workers)

    @property
    def mean_speed(self) -> float:
        return self.total_speed / len(self.workers)

    @property
    def comm_comp_ratio(self) -> float:
        """Platform-level ``r``: mean bandwidth over mean speed.

        For the homogeneous clusters of the paper this coincides with the
        per-worker ratio (r = 37 on DAS-2, r = 46 on Meteor).
        """
        mean_bw = ordered_sum(w.bandwidth for w in self.workers) / len(self.workers)
        return mean_bw / self.mean_speed

    def index_of(self, worker_name: str) -> int:
        """Canonical index of a worker by name."""
        for i, w in enumerate(self.workers):
            if w.name == worker_name:
                return i
        raise PlatformError(f"no worker named {worker_name!r} in grid")

    def cluster_workers(self, cluster: str) -> list[WorkerSpec]:
        """Workers belonging to ``cluster``."""
        found = [w for w in self.workers if w.cluster == cluster]
        if not found:
            raise PlatformError(f"no workers in cluster {cluster!r}")
        return found
