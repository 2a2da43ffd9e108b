"""The durable job-store contract: records, states, and the ``JobStore`` protocol.

Every layer above the dispatch core used to keep its state in process
memory -- the daemon's job table, the admission queue's tenant accounts,
the dead-letter queue's entries.  A daemon restart lost every queued and
running job, and two daemons could not share a tenant population.  The
store layer fixes both: all service-level state lives behind the
:class:`JobStore` protocol, with two backends --
:class:`~repro.store.memory.MemoryStore` (the zero-dependency default,
exactly the old in-process behavior) and
:class:`~repro.store.sqlite.SqliteStore` (SQLite in WAL mode, safe to
share between daemon processes).

The concurrency model is the claim loop: a daemon *claims* queued jobs
by writing its owner id and a lease expiry in one atomic step (the
SQLite-WAL analogue of ``SELECT ... FOR UPDATE SKIP LOCKED``), runs
them, and records a terminal transition that is checked against the
expected prior state *and* the owner -- so a job whose lease was stolen
mid-run cannot be completed twice.  Lease expiry is the crash signal:
a peer daemon (or a restarted incarnation, which always gets a fresh
owner id) takes over expired leases through :meth:`JobStore.steal_expired`.

Layering: this package sits *below* the daemon/service/gateway layers
and must not import the dispatch core or the simulation substrates
(enforced by the ``layering`` lint rule).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Protocol, Sequence, runtime_checkable

from ..errors import ReproError

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
    "ClaimRecord",
    "JobStore",
    "StoreConflictError",
    "StoreError",
    "StoredDeadLetter",
    "StoredJob",
    "TenantUsage",
    "TransitionRecord",
    "tenant_hash",
    "tenant_shard",
]

# Job lifecycle states, mirroring apst.daemon.JobState values (strings on
# purpose: the store must not import the daemon layer).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES: tuple[str, ...] = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES: frozenset[str] = frozenset({DONE, FAILED, CANCELLED})


class StoreError(ReproError):
    """The job store was asked to do something invalid (unknown id...)."""


class StoreConflictError(StoreError):
    """An atomic transition lost its race (state or owner changed under it).

    This is the exactly-once mechanism surfacing, not a bug: whoever
    catches it must drop the work item, because another owner holds it.
    """


def tenant_hash(tenant: str) -> int:
    """Stable 63-bit content hash of a tenant name.

    A content hash, not :func:`hash`, so every daemon process maps the
    same tenant to the same value regardless of ``PYTHONHASHSEED``; 63
    bits so the value fits SQLite's signed INTEGER column and the
    ``tenant_hash % shard_count`` filter computes identically in SQL
    and in Python.
    """
    digest = hashlib.sha1(tenant.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def tenant_shard(tenant: str, shard_count: int) -> int:
    """Stable shard index of ``tenant`` in a ``shard_count``-way split."""
    if shard_count < 1:
        raise StoreError(f"shard_count must be >= 1, got {shard_count}")
    return tenant_hash(tenant) % shard_count


@dataclass(frozen=True)
class StoredJob:
    """One durable job record: the spec plus its service-level state."""

    job_id: int
    spec_xml: str
    algorithm: str | None = None
    tenant: str = "default"
    priority: int = 0
    weight: float = 1.0
    arrival: float = 0.0
    state: str = QUEUED
    #: daemon instance currently holding the claim lease (None: unclaimed)
    owner: str | None = None
    #: host wall clock after which the lease may be stolen (None: no lease)
    lease_expires_at: float | None = None
    #: how many times the job has been claimed (1 = first dispatch)
    attempt: int = 0
    error: str | None = None
    makespan: float | None = None
    chunks: int | None = None
    traceparent: str | None = None
    submitted_at: float = 0.0
    updated_at: float = 0.0

    def with_state(self, state: str, **changes: object) -> "StoredJob":
        return replace(self, state=state, **changes)  # type: ignore[arg-type]

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


@dataclass(frozen=True)
class TransitionRecord:
    """One append-only state-transition audit row."""

    seq: int
    job_id: int
    from_state: str
    to_state: str
    owner: str | None
    at: float


@dataclass(frozen=True)
class ClaimRecord:
    """One append-only claim-audit row (``claim`` or ``steal``)."""

    seq: int
    job_id: int
    owner: str
    kind: str  # "claim" | "steal"
    at: float


@dataclass(frozen=True)
class StoredDeadLetter:
    """One persisted dead-letter entry.

    ``entry_id`` is store-allocated and monotonic for the lifetime of
    the store file -- it never restarts from 0 and is never reused, so
    ``replayed_as`` links stay unambiguous across daemon restarts and
    purges.
    """

    entry_id: int
    job_id: int
    algorithm: str | None = None
    spec_xml: str | None = None
    failure_chain: tuple[str, ...] = ()
    parked_at: float = 0.0
    replayed_as: int | None = None


@dataclass
class TenantUsage:
    """Per-tenant service consumption, used for fair-share admission."""

    tenant: str
    submitted: int = 0
    completed: int = 0
    #: worker-seconds of lease occupancy charged so far
    worker_seconds: float = 0.0


@runtime_checkable
class JobStore(Protocol):
    """Durable service-level state: jobs, transitions, claims, DLQ, tenants.

    Implementations must make :meth:`claim`, :meth:`steal_expired`, and
    :meth:`transition` atomic with respect to concurrent callers (other
    threads for :class:`~repro.store.memory.MemoryStore`, other
    *processes* for :class:`~repro.store.sqlite.SqliteStore`), and must
    allocate ``job_id`` / DLQ ``entry_id`` monotonically for the life of
    the store.
    """

    #: backend tag reported by ``/healthz`` and ``stats`` ("memory"/"sqlite")
    backend: str

    # -- jobs ---------------------------------------------------------------
    def insert_job(
        self,
        *,
        spec_xml: str,
        algorithm: str | None = None,
        tenant: str = "default",
        priority: int = 0,
        weight: float = 1.0,
        arrival: float = 0.0,
        traceparent: str | None = None,
        now: float | None = None,
    ) -> StoredJob:
        """Append a new QUEUED job; allocates and returns its record."""
        ...

    def get_job(self, job_id: int) -> StoredJob:
        """The record for ``job_id``; raises :class:`StoreError` if unknown."""
        ...

    def list_jobs(self, state: str | None = None) -> list[StoredJob]:
        """All jobs (optionally filtered by state), oldest first."""
        ...

    def counts(self) -> dict[str, int]:
        """Job counts per state (every state present, zero included)."""
        ...

    def transition(
        self,
        job_id: int,
        to_state: str,
        *,
        expect: Sequence[str] | None = None,
        owner: str | None = None,
        error: str | None = None,
        makespan: float | None = None,
        chunks: int | None = None,
        now: float | None = None,
    ) -> StoredJob:
        """Atomically move ``job_id`` to ``to_state`` and audit the move.

        With ``expect``, the current state must be one of those values;
        with ``owner``, the stored owner must match (the exactly-once
        check).  Either mismatch raises :class:`StoreConflictError` and
        changes nothing.  Terminal transitions clear the lease.
        """
        ...

    # -- claim / lease ------------------------------------------------------
    def claim(
        self,
        owner: str,
        *,
        lease_s: float,
        limit: int | None = None,
        shard_index: int = 0,
        shard_count: int = 1,
        now: float | None = None,
    ) -> list[StoredJob]:
        """Atomically claim up to ``limit`` claimable QUEUED jobs.

        Claimable: state QUEUED and either unowned or lease-expired, and
        the job's tenant hashes to ``shard_index`` of ``shard_count``.
        Claimed jobs get ``owner`` and a lease of ``lease_s`` seconds;
        admission order is priority (descending), arrival, job id.
        """
        ...

    def release(self, job_id: int, owner: str, *, now: float | None = None) -> StoredJob:
        """Give up an un-run claim (owner must match); job stays QUEUED."""
        ...

    def steal_expired(
        self,
        owner: str,
        *,
        lease_s: float,
        limit: int | None = None,
        shard_index: int = 0,
        shard_count: int = 1,
        now: float | None = None,
    ) -> list[StoredJob]:
        """Take over every expired lease held by *another* owner.

        RUNNING jobs whose lease expired are re-queued (their daemon is
        presumed dead -- this is the crash-takeover path); QUEUED ones
        are simply re-claimed.  Stolen jobs get ``owner`` and a fresh
        lease, their attempt count increments, and the claim audit
        records kind ``steal``.

        A caller claiming shard ``shard_index`` of ``shard_count`` also
        takes the unowned QUEUED jobs of the *other* shards that nobody
        claimed for a whole ``lease_s``: a live peer claims its shard's
        queue well within one lease, so such a job is orphaned just like
        an expired lease (its shard's owner died holding no lease).
        """
        ...

    def claimable(
        self,
        *,
        shard_index: int = 0,
        shard_count: int = 1,
        now: float | None = None,
    ) -> int:
        """How many jobs :meth:`claim` would currently consider."""
        ...

    # -- audit --------------------------------------------------------------
    def transitions(self, job_id: int | None = None) -> list[TransitionRecord]:
        """The append-only transition log (optionally for one job)."""
        ...

    def claim_audit(self) -> list[ClaimRecord]:
        """The append-only claim log (claims and steals, oldest first)."""
        ...

    # -- dead-letter queue --------------------------------------------------
    def park(
        self,
        *,
        job_id: int,
        algorithm: str | None = None,
        spec_xml: str | None = None,
        failure_chain: Sequence[str] = (),
        now: float | None = None,
    ) -> StoredDeadLetter:
        """Append a dead-letter entry with a store-allocated monotonic id."""
        ...

    def dlq_entries(self) -> list[StoredDeadLetter]:
        """All parked entries, oldest first."""
        ...

    def dlq_get(self, entry_id: int) -> StoredDeadLetter:
        """One entry by id; raises :class:`StoreError` if unknown."""
        ...

    def dlq_mark_replayed(self, entry_id: int, new_job_id: int) -> StoredDeadLetter:
        """Record that ``entry_id`` was resubmitted as ``new_job_id``."""
        ...

    def dlq_purge(self) -> int:
        """Drop every entry (ids keep rising afterwards); returns count."""
        ...

    # -- tenant accounting --------------------------------------------------
    def tenant_usage(self, tenant: str) -> TenantUsage:
        """The (possibly zero) usage record for ``tenant``."""
        ...

    def tenant_usages(self) -> list[TenantUsage]:
        """All known tenants' usage, sorted by tenant name."""
        ...

    def tenant_charge(
        self,
        tenant: str,
        *,
        submitted: int = 0,
        completed: int = 0,
        worker_seconds: float = 0.0,
    ) -> TenantUsage:
        """Atomically add to a tenant's counters; returns the new totals."""
        ...

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (connections); idempotent."""
        ...


# Shared claim ordering, used by both backends.
def admission_sort_key(job: StoredJob) -> tuple[int, float, int]:
    """Priority (descending), then arrival, then job id."""
    return (-job.priority, job.arrival, job.job_id)
