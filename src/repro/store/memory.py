"""In-process :class:`~repro.store.base.JobStore`: the zero-dependency default.

Exactly the durability the pre-store layers had (none -- state dies with
the process), but behind the same claim/lease/audit contract as the
SQLite backend, so every layer above runs identically on both.  All
operations are thread-safe: the daemon's runner thread claims while the
gateway's event loop reads counts.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from typing import Sequence

from ..analysis import lockwatch
from .base import (
    JOB_STATES,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    ClaimRecord,
    StoreConflictError,
    StoreError,
    StoredDeadLetter,
    StoredJob,
    TenantUsage,
    TransitionRecord,
    admission_sort_key,
    tenant_shard,
)

__all__ = ["MemoryStore"]


class MemoryStore:
    """Thread-safe in-memory job store (see the module docstring)."""

    backend = "memory"

    def __init__(self) -> None:
        self._jobs: dict[int, StoredJob] = {}
        self._job_ids = itertools.count(1)
        self._dlq: dict[int, StoredDeadLetter] = {}
        self._dlq_ids = itertools.count(1)
        self._transitions: list[TransitionRecord] = []
        self._claims: list[ClaimRecord] = []
        self._seq = itertools.count(1)
        self._tenants: dict[str, TenantUsage] = {}
        self._lock = lockwatch.create_lock("store.memory")

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
        at = time.time() if now is None else now
        with self._lock:
            job = StoredJob(
                job_id=next(self._job_ids),
                spec_xml=spec_xml,
                algorithm=algorithm,
                tenant=tenant,
                priority=priority,
                weight=weight,
                arrival=arrival,
                traceparent=traceparent,
                submitted_at=at,
                updated_at=at,
            )
            self._jobs[job.job_id] = job
            return job

    def get_job(self, job_id: int) -> StoredJob:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise StoreError(f"no stored job with id {job_id}") from None

    def list_jobs(self, state: str | None = None) -> list[StoredJob]:
        with self._lock:
            jobs = [self._jobs[key] for key in sorted(self._jobs)]
        if state is None:
            return jobs
        return [job for job in jobs if job.state == state]

    def counts(self) -> dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts

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
        if to_state not in JOB_STATES:
            raise StoreError(f"unknown job state {to_state!r}")
        at = time.time() if now is None else now
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise StoreError(f"no stored job with id {job_id}")
            if expect is not None and job.state not in expect:
                raise StoreConflictError(
                    f"job {job_id} is {job.state!r}, expected one of "
                    f"{tuple(expect)!r}"
                )
            if owner is not None and job.owner != owner:
                raise StoreConflictError(
                    f"job {job_id} is owned by {job.owner!r}, not {owner!r}"
                )
            changes: dict[str, object] = {"updated_at": at}
            if error is not None:
                changes["error"] = error
            if makespan is not None:
                changes["makespan"] = makespan
            if chunks is not None:
                changes["chunks"] = chunks
            if to_state in TERMINAL_STATES:
                changes["owner"] = None
                changes["lease_expires_at"] = None
            updated = job.with_state(to_state, **changes)
            self._jobs[job_id] = updated
            self._transitions.append(
                TransitionRecord(
                    seq=next(self._seq),
                    job_id=job_id,
                    from_state=job.state,
                    to_state=to_state,
                    owner=owner if owner is not None else job.owner,
                    at=at,
                )
            )
            return updated

    # -- claim / lease ------------------------------------------------------
    def _claimable_jobs(
        self, shard_index: int, shard_count: int, at: float
    ) -> list[StoredJob]:
        return sorted(
            (
                job
                for job in self._jobs.values()
                if job.state == QUEUED
                and (
                    job.owner is None
                    or job.lease_expires_at is None
                    or job.lease_expires_at < at
                )
                and tenant_shard(job.tenant, shard_count) == shard_index
            ),
            key=admission_sort_key,
        )

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
        at = time.time() if now is None else now
        with self._lock:
            candidates = self._claimable_jobs(shard_index, shard_count, at)
            if limit is not None:
                candidates = candidates[:limit]
            claimed = []
            for job in candidates:
                updated = replace(
                    job,
                    owner=owner,
                    lease_expires_at=at + lease_s,
                    attempt=job.attempt + 1,
                    updated_at=at,
                )
                self._jobs[job.job_id] = updated
                self._claims.append(
                    ClaimRecord(
                        seq=next(self._seq),
                        job_id=job.job_id,
                        owner=owner,
                        kind="claim",
                        at=at,
                    )
                )
                claimed.append(updated)
            return claimed

    def release(self, job_id: int, owner: str, *, now: float | None = None) -> StoredJob:
        at = time.time() if now is None else now
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise StoreError(f"no stored job with id {job_id}")
            if job.owner != owner:
                raise StoreConflictError(
                    f"job {job_id} is owned by {job.owner!r}, not {owner!r}"
                )
            updated = replace(job, owner=None, lease_expires_at=None, updated_at=at)
            self._jobs[job_id] = updated
            return updated

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
        at = time.time() if now is None else now
        with self._lock:
            expired = sorted(
                (
                    job
                    for job in self._jobs.values()
                    if (
                        job.state in (QUEUED, RUNNING)
                        and job.owner is not None
                        and job.owner != owner
                        and job.lease_expires_at is not None
                        and job.lease_expires_at < at
                    )
                    or (
                        job.state == QUEUED
                        and (job.owner is None or job.lease_expires_at is None)
                        and job.updated_at < at - lease_s
                        and tenant_shard(job.tenant, shard_count) != shard_index
                    )
                ),
                key=admission_sort_key,
            )
            if limit is not None:
                expired = expired[:limit]
            stolen = []
            for job in expired:
                if job.state == RUNNING:
                    self._transitions.append(
                        TransitionRecord(
                            seq=next(self._seq),
                            job_id=job.job_id,
                            from_state=RUNNING,
                            to_state=QUEUED,
                            owner=owner,
                            at=at,
                        )
                    )
                updated = replace(
                    job,
                    state=QUEUED,
                    owner=owner,
                    lease_expires_at=at + lease_s,
                    attempt=job.attempt + 1,
                    updated_at=at,
                )
                self._jobs[job.job_id] = updated
                self._claims.append(
                    ClaimRecord(
                        seq=next(self._seq),
                        job_id=job.job_id,
                        owner=owner,
                        kind="steal",
                        at=at,
                    )
                )
                stolen.append(updated)
            return stolen

    def claimable(
        self,
        *,
        shard_index: int = 0,
        shard_count: int = 1,
        now: float | None = None,
    ) -> int:
        at = time.time() if now is None else now
        with self._lock:
            return len(self._claimable_jobs(shard_index, shard_count, at))

    # -- audit --------------------------------------------------------------
    def transitions(self, job_id: int | None = None) -> list[TransitionRecord]:
        with self._lock:
            records = list(self._transitions)
        if job_id is None:
            return records
        return [r for r in records if r.job_id == job_id]

    def claim_audit(self) -> list[ClaimRecord]:
        with self._lock:
            return list(self._claims)

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
        at = time.time() if now is None else now
        with self._lock:
            entry = StoredDeadLetter(
                entry_id=next(self._dlq_ids),
                job_id=job_id,
                algorithm=algorithm,
                spec_xml=spec_xml,
                failure_chain=tuple(failure_chain),
                parked_at=at,
            )
            self._dlq[entry.entry_id] = entry
            return entry

    def dlq_entries(self) -> list[StoredDeadLetter]:
        with self._lock:
            return [self._dlq[key] for key in sorted(self._dlq)]

    def dlq_get(self, entry_id: int) -> StoredDeadLetter:
        with self._lock:
            try:
                return self._dlq[entry_id]
            except KeyError:
                raise StoreError(f"no DLQ entry with id {entry_id}") from None

    def dlq_mark_replayed(self, entry_id: int, new_job_id: int) -> StoredDeadLetter:
        with self._lock:
            if entry_id not in self._dlq:
                raise StoreError(f"no DLQ entry with id {entry_id}")
            entry = replace(self._dlq[entry_id], replayed_as=new_job_id)
            self._dlq[entry_id] = entry
            return entry

    def dlq_purge(self) -> int:
        with self._lock:
            count = len(self._dlq)
            self._dlq.clear()
            return count

    # -- tenant accounting --------------------------------------------------
    def tenant_usage(self, tenant: str) -> TenantUsage:
        with self._lock:
            usage = self._tenants.get(tenant)
            if usage is None:
                return TenantUsage(tenant=tenant)
            return replace(usage)

    def tenant_usages(self) -> list[TenantUsage]:
        with self._lock:
            return [replace(self._tenants[t]) for t in sorted(self._tenants)]

    def tenant_charge(
        self,
        tenant: str,
        *,
        submitted: int = 0,
        completed: int = 0,
        worker_seconds: float = 0.0,
    ) -> TenantUsage:
        with self._lock:
            usage = self._tenants.setdefault(tenant, TenantUsage(tenant=tenant))
            usage.submitted += submitted
            usage.completed += completed
            usage.worker_seconds += worker_seconds
            return replace(usage)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Nothing to release; present for protocol symmetry."""
