"""SQLite-backed :class:`~repro.store.base.JobStore`: the durable backend.

One database file holds the whole service-level state -- jobs, the
append-only transition and claim audit logs, dead-letter entries, and
tenant accounts -- so a daemon restart resumes exactly where the dead
process stopped, and several daemon *processes* can share one store.

Concurrency comes from SQLite itself, configured the way a shared queue
wants it:

* **WAL journal** -- readers never block the single writer, so one
  daemon's claim sweep does not stall another's ``stats`` reads;
* **``BEGIN IMMEDIATE`` claims** -- the claim/steal sweeps take the
  write lock up front, making select-then-update atomic across
  processes (the WAL analogue of ``SELECT ... FOR UPDATE SKIP LOCKED``:
  whoever gets the lock first claims, everyone else sees owned rows and
  skips them);
* **``busy_timeout``** -- a daemon that loses the race waits instead of
  erroring, so contention degrades to queueing.

``AUTOINCREMENT`` primary keys give the monotonic-id guarantee the
protocol requires: job ids and DLQ entry ids never restart and are
never reused, even across restarts and purges.

Within one process a single connection (``check_same_thread=False``) is
serialized by a lock: the gateway's runner thread, the asyncio loop's
executor reads, and test threads all funnel through it.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
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
    tenant_hash,
)

__all__ = ["SqliteStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id          INTEGER PRIMARY KEY AUTOINCREMENT,
    spec_xml        TEXT NOT NULL,
    algorithm       TEXT,
    tenant          TEXT NOT NULL DEFAULT 'default',
    tenant_hash     INTEGER NOT NULL,
    priority        INTEGER NOT NULL DEFAULT 0,
    weight          REAL NOT NULL DEFAULT 1.0,
    arrival         REAL NOT NULL DEFAULT 0.0,
    state           TEXT NOT NULL DEFAULT 'queued',
    owner           TEXT,
    lease_expires_at REAL,
    attempt         INTEGER NOT NULL DEFAULT 0,
    error           TEXT,
    makespan        REAL,
    chunks          INTEGER,
    traceparent     TEXT,
    submitted_at    REAL NOT NULL,
    updated_at      REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs (state, owner, lease_expires_at);
CREATE TABLE IF NOT EXISTS transitions (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id     INTEGER NOT NULL,
    from_state TEXT NOT NULL,
    to_state   TEXT NOT NULL,
    owner      TEXT,
    at         REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS claims (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id INTEGER NOT NULL,
    owner  TEXT NOT NULL,
    kind   TEXT NOT NULL,
    at     REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS dlq (
    entry_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id        INTEGER NOT NULL,
    algorithm     TEXT,
    spec_xml      TEXT,
    failure_chain TEXT NOT NULL DEFAULT '[]',
    parked_at     REAL NOT NULL,
    replayed_as   INTEGER
);
CREATE TABLE IF NOT EXISTS tenants (
    tenant         TEXT PRIMARY KEY,
    submitted      INTEGER NOT NULL DEFAULT 0,
    completed      INTEGER NOT NULL DEFAULT 0,
    worker_seconds REAL NOT NULL DEFAULT 0.0
);
"""

_JOB_COLUMNS = (
    "job_id, spec_xml, algorithm, tenant, priority, weight, arrival, state, "
    "owner, lease_expires_at, attempt, error, makespan, chunks, traceparent, "
    "submitted_at, updated_at"
)

#: Claim admission order (must mirror base.admission_sort_key).
_CLAIM_ORDER = "ORDER BY priority DESC, arrival ASC, job_id ASC"


def _job_from_row(row: sqlite3.Row | tuple) -> StoredJob:
    (
        job_id, spec_xml, algorithm, tenant, priority, weight, arrival, state,
        owner, lease_expires_at, attempt, error, makespan, chunks, traceparent,
        submitted_at, updated_at,
    ) = row
    return StoredJob(
        job_id=job_id,
        spec_xml=spec_xml,
        algorithm=algorithm,
        tenant=tenant,
        priority=priority,
        weight=weight,
        arrival=arrival,
        state=state,
        owner=owner,
        lease_expires_at=lease_expires_at,
        attempt=attempt,
        error=error,
        makespan=makespan,
        chunks=chunks,
        traceparent=traceparent,
        submitted_at=submitted_at,
        updated_at=updated_at,
    )


class SqliteStore:
    """Durable job store over one SQLite file (see the module docstring)."""

    backend = "sqlite"

    #: seconds a writer waits for the database lock before erroring
    BUSY_TIMEOUT_S = 10.0

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._conn = sqlite3.connect(
            str(self.path),
            timeout=self.BUSY_TIMEOUT_S,
            isolation_level=None,  # autocommit; transactions are explicit
            check_same_thread=False,
        )
        self._lock = lockwatch.create_lock("store.sqlite")
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(f"PRAGMA busy_timeout={int(self.BUSY_TIMEOUT_S * 1000)}")
            self._conn.executescript(_SCHEMA)

    # -- internals ----------------------------------------------------------
    def _immediate(self):
        """Open a write transaction (the cross-process claim lock)."""
        self._conn.execute("BEGIN IMMEDIATE")

    def _commit(self) -> None:
        self._conn.execute("COMMIT")

    def _rollback(self) -> None:
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass

    def _record_transition(
        self, job_id: int, from_state: str, to_state: str, owner: str | None, at: float
    ) -> None:
        self._conn.execute(
            "INSERT INTO transitions (job_id, from_state, to_state, owner, at) "
            "VALUES (?, ?, ?, ?, ?)",
            (job_id, from_state, to_state, owner, at),
        )

    def _record_claim(self, job_id: int, owner: str, kind: str, at: float) -> None:
        self._conn.execute(
            "INSERT INTO claims (job_id, owner, kind, at) VALUES (?, ?, ?, ?)",
            (job_id, owner, kind, at),
        )

    def _fetch_job(self, job_id: int) -> StoredJob:
        row = self._conn.execute(
            f"SELECT {_JOB_COLUMNS} FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise StoreError(f"no stored job with id {job_id}")
        return _job_from_row(row)

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
            cursor = self._conn.execute(
                "INSERT INTO jobs (spec_xml, algorithm, tenant, tenant_hash, "
                "priority, weight, arrival, traceparent, submitted_at, updated_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    spec_xml, algorithm, tenant, tenant_hash(tenant),
                    priority, weight, arrival, traceparent, at, at,
                ),
            )
            return self._fetch_job(cursor.lastrowid)

    def get_job(self, job_id: int) -> StoredJob:
        with self._lock:
            return self._fetch_job(job_id)

    def list_jobs(self, state: str | None = None) -> list[StoredJob]:
        with self._lock:
            if state is None:
                rows = self._conn.execute(
                    f"SELECT {_JOB_COLUMNS} FROM jobs ORDER BY job_id"
                ).fetchall()
            else:
                rows = self._conn.execute(
                    f"SELECT {_JOB_COLUMNS} FROM jobs WHERE state = ? ORDER BY job_id",
                    (state,),
                ).fetchall()
        return [_job_from_row(row) for row in rows]

    def counts(self) -> dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        for state, count in rows:
            counts[state] = count
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
            self._immediate()
            try:
                job = self._fetch_job(job_id)
                if expect is not None and job.state not in expect:
                    raise StoreConflictError(
                        f"job {job_id} is {job.state!r}, expected one of "
                        f"{tuple(expect)!r}"
                    )
                if owner is not None and job.owner != owner:
                    raise StoreConflictError(
                        f"job {job_id} is owned by {job.owner!r}, not {owner!r}"
                    )
                sets = ["state = ?", "updated_at = ?"]
                params: list[object] = [to_state, at]
                if error is not None:
                    sets.append("error = ?")
                    params.append(error)
                if makespan is not None:
                    sets.append("makespan = ?")
                    params.append(makespan)
                if chunks is not None:
                    sets.append("chunks = ?")
                    params.append(chunks)
                if to_state in TERMINAL_STATES:
                    sets.append("owner = NULL")
                    sets.append("lease_expires_at = NULL")
                params.append(job_id)
                self._conn.execute(
                    f"UPDATE jobs SET {', '.join(sets)} WHERE job_id = ?",
                    params,
                )
                self._record_transition(
                    job_id, job.state, to_state,
                    owner if owner is not None else job.owner, at,
                )
                updated = self._fetch_job(job_id)
                self._commit()
                return updated
            except BaseException:
                self._rollback()
                raise

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
        at = time.time() if now is None else now
        bound = -1 if limit is None else limit
        with self._lock:
            self._immediate()
            try:
                rows = self._conn.execute(
                    f"SELECT {_JOB_COLUMNS} FROM jobs "
                    "WHERE state = ? "
                    "AND (owner IS NULL OR lease_expires_at IS NULL "
                    "     OR lease_expires_at < ?) "
                    "AND (tenant_hash % ?) = ? "
                    f"{_CLAIM_ORDER} LIMIT ?",
                    (QUEUED, at, shard_count, shard_index, bound),
                ).fetchall()
                claimed = []
                for row in rows:
                    job = _job_from_row(row)
                    self._conn.execute(
                        "UPDATE jobs SET owner = ?, lease_expires_at = ?, "
                        "attempt = attempt + 1, updated_at = ? WHERE job_id = ?",
                        (owner, at + lease_s, at, job.job_id),
                    )
                    self._record_claim(job.job_id, owner, "claim", at)
                    claimed.append(self._fetch_job(job.job_id))
                self._commit()
                return claimed
            except BaseException:
                self._rollback()
                raise

    def release(self, job_id: int, owner: str, *, now: float | None = None) -> StoredJob:
        at = time.time() if now is None else now
        with self._lock:
            self._immediate()
            try:
                job = self._fetch_job(job_id)
                if job.owner != owner:
                    raise StoreConflictError(
                        f"job {job_id} is owned by {job.owner!r}, not {owner!r}"
                    )
                self._conn.execute(
                    "UPDATE jobs SET owner = NULL, lease_expires_at = NULL, "
                    "updated_at = ? WHERE job_id = ?",
                    (at, job_id),
                )
                updated = self._fetch_job(job_id)
                self._commit()
                return updated
            except BaseException:
                self._rollback()
                raise

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
        bound = -1 if limit is None else limit
        with self._lock:
            self._immediate()
            try:
                rows = self._conn.execute(
                    f"SELECT {_JOB_COLUMNS} FROM jobs "
                    "WHERE (state IN (?, ?) AND owner IS NOT NULL "
                    "       AND owner != ? AND lease_expires_at IS NOT NULL "
                    "       AND lease_expires_at < ?) "
                    "   OR (state = ? "
                    "       AND (owner IS NULL OR lease_expires_at IS NULL) "
                    "       AND updated_at < ? "
                    "       AND (tenant_hash % ?) != ?) "
                    f"{_CLAIM_ORDER} LIMIT ?",
                    (
                        QUEUED, RUNNING, owner, at,
                        QUEUED, at - lease_s, shard_count, shard_index,
                        bound,
                    ),
                ).fetchall()
                stolen = []
                for row in rows:
                    job = _job_from_row(row)
                    if job.state == RUNNING:
                        self._record_transition(
                            job.job_id, RUNNING, QUEUED, owner, at
                        )
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, owner = ?, "
                        "lease_expires_at = ?, attempt = attempt + 1, "
                        "updated_at = ? WHERE job_id = ?",
                        (QUEUED, owner, at + lease_s, at, job.job_id),
                    )
                    self._record_claim(job.job_id, owner, "steal", at)
                    stolen.append(self._fetch_job(job.job_id))
                self._commit()
                return stolen
            except BaseException:
                self._rollback()
                raise

    def claimable(
        self,
        *,
        shard_index: int = 0,
        shard_count: int = 1,
        now: float | None = None,
    ) -> int:
        at = time.time() if now is None else now
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state = ? "
                "AND (owner IS NULL OR lease_expires_at IS NULL "
                "     OR lease_expires_at < ?) "
                "AND (tenant_hash % ?) = ?",
                (QUEUED, at, shard_count, shard_index),
            ).fetchone()
        return int(row[0])

    # -- audit --------------------------------------------------------------
    def transitions(self, job_id: int | None = None) -> list[TransitionRecord]:
        with self._lock:
            if job_id is None:
                rows = self._conn.execute(
                    "SELECT seq, job_id, from_state, to_state, owner, at "
                    "FROM transitions ORDER BY seq"
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT seq, job_id, from_state, to_state, owner, at "
                    "FROM transitions WHERE job_id = ? ORDER BY seq",
                    (job_id,),
                ).fetchall()
        return [TransitionRecord(*row) for row in rows]

    def claim_audit(self) -> list[ClaimRecord]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, job_id, owner, kind, at FROM claims ORDER BY seq"
            ).fetchall()
        return [ClaimRecord(*row) for row in rows]

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
            cursor = self._conn.execute(
                "INSERT INTO dlq (job_id, algorithm, spec_xml, failure_chain, "
                "parked_at) VALUES (?, ?, ?, ?, ?)",
                (job_id, algorithm, spec_xml, json.dumps(list(failure_chain)), at),
            )
            return self._fetch_dlq(cursor.lastrowid)

    def _fetch_dlq(self, entry_id: int) -> StoredDeadLetter:
        row = self._conn.execute(
            "SELECT entry_id, job_id, algorithm, spec_xml, failure_chain, "
            "parked_at, replayed_as FROM dlq WHERE entry_id = ?",
            (entry_id,),
        ).fetchone()
        if row is None:
            raise StoreError(f"no DLQ entry with id {entry_id}")
        return self._dlq_from_row(row)

    @staticmethod
    def _dlq_from_row(row: tuple) -> StoredDeadLetter:
        entry_id, job_id, algorithm, spec_xml, chain, parked_at, replayed_as = row
        return StoredDeadLetter(
            entry_id=entry_id,
            job_id=job_id,
            algorithm=algorithm,
            spec_xml=spec_xml,
            failure_chain=tuple(json.loads(chain)),
            parked_at=parked_at,
            replayed_as=replayed_as,
        )

    def dlq_entries(self) -> list[StoredDeadLetter]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT entry_id, job_id, algorithm, spec_xml, failure_chain, "
                "parked_at, replayed_as FROM dlq ORDER BY entry_id"
            ).fetchall()
        return [self._dlq_from_row(row) for row in rows]

    def dlq_get(self, entry_id: int) -> StoredDeadLetter:
        with self._lock:
            return self._fetch_dlq(entry_id)

    def dlq_mark_replayed(self, entry_id: int, new_job_id: int) -> StoredDeadLetter:
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE dlq SET replayed_as = ? WHERE entry_id = ?",
                (new_job_id, entry_id),
            )
            if cursor.rowcount == 0:
                raise StoreError(f"no DLQ entry with id {entry_id}")
            return self._fetch_dlq(entry_id)

    def dlq_purge(self) -> int:
        with self._lock:
            cursor = self._conn.execute("DELETE FROM dlq")
            return cursor.rowcount

    # -- tenant accounting --------------------------------------------------
    def tenant_usage(self, tenant: str) -> TenantUsage:
        with self._lock:
            row = self._conn.execute(
                "SELECT tenant, submitted, completed, worker_seconds "
                "FROM tenants WHERE tenant = ?",
                (tenant,),
            ).fetchone()
        if row is None:
            return TenantUsage(tenant=tenant)
        return TenantUsage(*row)

    def tenant_usages(self) -> list[TenantUsage]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT tenant, submitted, completed, worker_seconds "
                "FROM tenants ORDER BY tenant"
            ).fetchall()
        return [TenantUsage(*row) for row in rows]

    def tenant_charge(
        self,
        tenant: str,
        *,
        submitted: int = 0,
        completed: int = 0,
        worker_seconds: float = 0.0,
    ) -> TenantUsage:
        with self._lock:
            self._conn.execute(
                "INSERT INTO tenants (tenant, submitted, completed, worker_seconds) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT(tenant) DO UPDATE SET "
                "submitted = submitted + excluded.submitted, "
                "completed = completed + excluded.completed, "
                "worker_seconds = worker_seconds + excluded.worker_seconds",
                (tenant, submitted, completed, worker_seconds),
            )
            row = self._conn.execute(
                "SELECT tenant, submitted, completed, worker_seconds "
                "FROM tenants WHERE tenant = ?",
                (tenant,),
            ).fetchone()
        return TenantUsage(*row)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
