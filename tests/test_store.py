"""The durable job store: claim/lease semantics, audit logs, both backends."""

import threading

import pytest

from repro.apst.daemon import APSTDaemon, DaemonConfig, JobState
from repro.errors import SpecificationError
from repro.platform.presets import das2_cluster
from repro.store import (
    JobStore,
    MemoryStore,
    SqliteStore,
    StoreConflictError,
    StoreError,
    open_store,
    tenant_hash,
    tenant_shard,
)

TASK_XML = """
<task executable="app" input="load.bin">
  <divisibility input="load.bin" method="uniform" start="0"
                steptype="bytes" stepsize="10" algorithm="umr"
                probe="probe.bin"/>
</task>
"""


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        backend = MemoryStore()
    else:
        backend = SqliteStore(tmp_path / "jobs.db")
    yield backend
    backend.close()


class TestProtocol:
    def test_both_backends_satisfy_the_protocol(self, store):
        assert isinstance(store, JobStore)
        assert store.backend in ("memory", "sqlite")

    def test_open_store_dispatches_on_spec(self, tmp_path):
        assert open_store(None).backend == "memory"
        assert open_store("memory").backend == "memory"
        sqlite = open_store(tmp_path / "s.db")
        assert sqlite.backend == "sqlite"
        sqlite.close()


class TestJobs:
    def test_insert_allocates_monotonic_ids(self, store):
        first = store.insert_job(spec_xml="<a/>", now=1.0)
        second = store.insert_job(spec_xml="<b/>", now=2.0)
        assert (first.job_id, second.job_id) == (1, 2)
        assert first.state == "queued"
        assert store.get_job(1).spec_xml == "<a/>"

    def test_get_unknown_job_raises(self, store):
        with pytest.raises(StoreError):
            store.get_job(99)

    def test_counts_cover_every_state(self, store):
        store.insert_job(spec_xml="<a/>", now=1.0)
        counts = store.counts()
        assert counts["queued"] == 1
        assert set(counts) == {"queued", "running", "done", "failed", "cancelled"}

    def test_transition_expect_and_owner_guards(self, store):
        job = store.insert_job(spec_xml="<a/>", now=1.0)
        with pytest.raises(StoreConflictError):
            store.transition(job.job_id, "done", expect=("running",), now=2.0)
        store.claim("d1", lease_s=10.0, now=2.0)
        with pytest.raises(StoreConflictError):
            store.transition(job.job_id, "running", owner="d2", now=3.0)
        updated = store.transition(
            job.job_id, "running", expect=("queued",), owner="d1", now=3.0
        )
        assert updated.state == "running"

    def test_terminal_transition_clears_lease_and_records_summary(self, store):
        job = store.insert_job(spec_xml="<a/>", now=1.0)
        store.claim("d1", lease_s=10.0, now=2.0)
        store.transition(job.job_id, "running", owner="d1", now=3.0)
        done = store.transition(
            job.job_id, "done", owner="d1", makespan=4.5, chunks=7, now=4.0
        )
        assert done.owner is None and done.lease_expires_at is None
        assert (done.makespan, done.chunks) == (4.5, 7)
        assert [t.to_state for t in store.transitions(job.job_id)] == [
            "running",
            "done",
        ]


class TestClaimLease:
    def test_claim_orders_by_priority_then_arrival_then_id(self, store):
        low = store.insert_job(spec_xml="<a/>", priority=0, arrival=0.0, now=1.0)
        high = store.insert_job(spec_xml="<b/>", priority=5, arrival=9.0, now=1.0)
        early = store.insert_job(spec_xml="<c/>", priority=0, arrival=0.0, now=1.0)
        claimed = store.claim("d1", lease_s=10.0, now=2.0)
        assert [j.job_id for j in claimed] == [
            high.job_id,
            low.job_id,
            early.job_id,
        ]

    def test_claimed_jobs_are_invisible_until_lease_expiry(self, store):
        store.insert_job(spec_xml="<a/>", now=1.0)
        store.claim("d1", lease_s=10.0, now=2.0)
        assert store.claim("d2", lease_s=10.0, now=3.0) == []
        assert store.claimable(now=3.0) == 0
        # after expiry the job is claimable again (d1 presumed dead)
        assert store.claimable(now=20.0) == 1
        reclaimed = store.claim("d2", lease_s=10.0, now=20.0)
        assert [j.owner for j in reclaimed] == ["d2"]
        assert reclaimed[0].attempt == 2

    def test_release_returns_job_to_the_pool(self, store):
        job = store.insert_job(spec_xml="<a/>", now=1.0)
        store.claim("d1", lease_s=10.0, now=2.0)
        with pytest.raises(StoreConflictError):
            store.release(job.job_id, "d2", now=3.0)
        released = store.release(job.job_id, "d1", now=3.0)
        assert released.owner is None
        assert store.claimable(now=4.0) == 1

    def test_steal_expired_requeues_running_jobs(self, store):
        job = store.insert_job(spec_xml="<a/>", now=1.0)
        store.claim("d1", lease_s=5.0, now=2.0)
        store.transition(job.job_id, "running", owner="d1", now=3.0)
        # lease still live: nothing to steal
        assert store.steal_expired("d2", lease_s=5.0, now=4.0) == []
        stolen = store.steal_expired("d2", lease_s=5.0, now=10.0)
        assert [j.state for j in stolen] == ["queued"]
        assert stolen[0].owner == "d2" and stolen[0].attempt == 2
        # the forced RUNNING -> QUEUED requeue is in the transition log
        assert [t.to_state for t in store.transitions(job.job_id)] == [
            "running",
            "queued",
        ]

    def test_steal_never_takes_own_leases(self, store):
        store.insert_job(spec_xml="<a/>", now=1.0)
        store.claim("d1", lease_s=5.0, now=2.0)
        assert store.steal_expired("d1", lease_s=5.0, now=10.0) == []

    def test_exactly_once_after_a_steal(self, store):
        """The loser of a lease steal cannot record a terminal state."""
        job = store.insert_job(spec_xml="<a/>", now=1.0)
        store.claim("d1", lease_s=5.0, now=2.0)
        store.transition(job.job_id, "running", owner="d1", now=3.0)
        store.steal_expired("d2", lease_s=5.0, now=10.0)
        with pytest.raises(StoreConflictError):
            store.transition(job.job_id, "done", owner="d1", now=11.0)
        store.transition(job.job_id, "running", owner="d2", now=11.0)
        store.transition(job.job_id, "done", owner="d2", now=12.0)
        terminal = [
            t for t in store.transitions(job.job_id) if t.to_state == "done"
        ]
        assert len(terminal) == 1 and terminal[0].owner == "d2"

    def test_claim_audit_records_claims_and_steals(self, store):
        job = store.insert_job(spec_xml="<a/>", now=1.0)
        store.claim("d1", lease_s=5.0, now=2.0)
        store.steal_expired("d2", lease_s=5.0, now=10.0)
        audit = store.claim_audit()
        assert [(r.job_id, r.owner, r.kind) for r in audit] == [
            (job.job_id, "d1", "claim"),
            (job.job_id, "d2", "steal"),
        ]

    def test_concurrent_claims_never_double_claim(self, store):
        for _ in range(40):
            store.insert_job(spec_xml="<a/>", now=1.0)
        results: dict[str, list[int]] = {}

        def worker(owner: str) -> None:
            ids: list[int] = []
            while True:
                batch = store.claim(owner, lease_s=60.0, limit=3)
                if not batch:
                    break
                ids.extend(j.job_id for j in batch)
            results[owner] = ids

        threads = [
            threading.Thread(target=worker, args=(f"d{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        claimed = [job_id for ids in results.values() for job_id in ids]
        assert sorted(claimed) == list(range(1, 41))  # all claimed, none twice
        assert len(store.claim_audit()) == 40


class TestSharding:
    def test_tenant_hash_is_stable_and_sqlite_safe(self):
        assert tenant_hash("acme") == tenant_hash("acme")
        assert 0 <= tenant_hash("acme") < 2**63

    def test_tenant_shard_partitions_disjointly(self, store):
        tenants = [f"tenant-{i}" for i in range(8)]
        for tenant in tenants:
            store.insert_job(spec_xml="<a/>", tenant=tenant, now=1.0)
        shard0 = store.claim("d0", lease_s=10.0, shard_index=0, shard_count=2, now=2.0)
        shard1 = store.claim("d1", lease_s=10.0, shard_index=1, shard_count=2, now=2.0)
        assert len(shard0) + len(shard1) == len(tenants)
        assert not {j.job_id for j in shard0} & {j.job_id for j in shard1}
        for job in shard0:
            assert tenant_shard(job.tenant, 2) == 0
        for job in shard1:
            assert tenant_shard(job.tenant, 2) == 1

    def test_steal_takes_other_shards_jobs_unclaimed_for_a_lease(self, store):
        tenants = [f"tenant-{i}" for i in range(8)]
        for tenant in tenants:
            store.insert_job(spec_xml="<a/>", tenant=tenant, now=1.0)
        # an unsharded caller has no other shard to cover
        assert store.steal_expired("d1", lease_s=5.0, now=100.0) == []
        # shard 0's jobs have waited less than a lease: its owner may be alive
        assert store.steal_expired(
            "d1", lease_s=5.0, shard_index=1, shard_count=2, now=5.0
        ) == []
        stolen = store.steal_expired(
            "d1", lease_s=5.0, shard_index=1, shard_count=2, now=7.0
        )
        expected = [t for t in tenants if tenant_shard(t, 2) == 0]
        assert sorted(job.tenant for job in stolen) == sorted(expected)
        assert all(
            job.state == "queued" and job.owner == "d1" and job.attempt == 1
            for job in stolen
        )
        assert {r.kind for r in store.claim_audit()} == {"steal"}
        # the caller's own shard is left to its ordinary claim
        own = store.claim("d1", lease_s=5.0, shard_index=1, shard_count=2, now=8.0)
        assert len(own) == len(tenants) - len(expected)

    def test_shard_count_must_be_positive(self):
        with pytest.raises(StoreError):
            tenant_shard("acme", 0)


class TestDeadLetters:
    def test_entry_ids_are_monotonic_across_purge(self, store):
        first = store.park(job_id=1, failure_chain=("boom",), now=1.0)
        assert first.entry_id == 1
        store.dlq_purge()
        assert store.dlq_entries() == []
        second = store.park(job_id=2, now=2.0)
        # never reused: a purge must not let a new entry capture stale
        # replayed_as references to the old id
        assert second.entry_id == 2

    def test_mark_replayed_round_trip(self, store):
        entry = store.park(
            job_id=7, algorithm="umr", spec_xml="<task/>",
            failure_chain=("a", "b"), now=1.0,
        )
        updated = store.dlq_mark_replayed(entry.entry_id, 42)
        assert updated.replayed_as == 42
        assert store.dlq_get(entry.entry_id).failure_chain == ("a", "b")
        with pytest.raises(StoreError):
            store.dlq_mark_replayed(99, 1)


class TestTenantAccounting:
    def test_charges_accumulate_atomically(self, store):
        store.tenant_charge("acme", submitted=1)
        store.tenant_charge("acme", completed=1, worker_seconds=2.5)
        usage = store.tenant_usage("acme")
        assert (usage.submitted, usage.completed) == (1, 1)
        assert usage.worker_seconds == pytest.approx(2.5)
        assert store.tenant_usage("ghost").worker_seconds == 0.0
        assert [u.tenant for u in store.tenant_usages()] == ["acme"]


class TestSqliteDurability:
    """What only the SQLite backend promises: state survives the process."""

    def test_state_survives_reopen(self, tmp_path):
        path = tmp_path / "jobs.db"
        store = SqliteStore(path)
        job = store.insert_job(spec_xml="<a/>", tenant="acme", now=1.0)
        store.claim("d1", lease_s=5.0, now=2.0)
        store.park(job_id=job.job_id, failure_chain=("x",), now=3.0)
        store.tenant_charge("acme", submitted=1)
        store.close()

        reopened = SqliteStore(path)
        record = reopened.get_job(job.job_id)
        assert record.owner == "d1" and record.tenant == "acme"
        assert reopened.dlq_entries()[0].entry_id == 1
        assert reopened.tenant_usage("acme").submitted == 1
        assert len(reopened.claim_audit()) == 1
        reopened.close()

    def test_two_connections_contend_for_claims(self, tmp_path):
        """Two SqliteStore handles model two daemon processes on one file."""
        path = tmp_path / "jobs.db"
        a, b = SqliteStore(path), SqliteStore(path)
        for _ in range(20):
            a.insert_job(spec_xml="<a/>", now=1.0)
        got_a = a.claim("da", lease_s=60.0, now=2.0)
        got_b = b.claim("db", lease_s=60.0, now=2.0)
        assert len(got_a) == 20 and got_b == []
        # the audit log is shared: b sees a's claims
        assert len(b.claim_audit()) == 20
        a.close()
        b.close()


class TestDaemonOnStore:
    """The daemon layer over the store: recovery, DLQ ids, exactly-once."""

    @staticmethod
    def _workspace(tmp_path):
        (tmp_path / "load.bin").write_bytes(bytes(255) * 80)
        (tmp_path / "probe.bin").write_bytes(bytes(100))
        return tmp_path

    def _daemon(self, workspace, store, **kwargs):
        grid = das2_cluster(nodes=4, total_load=20400.0)
        return APSTDaemon(
            grid,
            config=DaemonConfig(base_dir=workspace, seed=3),
            store=store,
            **kwargs,
        )

    def test_submit_persists_spec_and_metadata(self, tmp_path):
        workspace = self._workspace(tmp_path)
        store = SqliteStore(tmp_path / "jobs.db")
        daemon = self._daemon(workspace, store)
        job_id = daemon.submit(TASK_XML, tenant="acme", priority=3, arrival=1.5)
        record = store.get_job(job_id)
        assert (record.tenant, record.priority, record.arrival) == ("acme", 3, 1.5)
        assert 'method="uniform"' in record.spec_xml
        store.close()

    def test_restarted_daemon_recovers_queued_jobs(self, tmp_path):
        workspace = self._workspace(tmp_path)
        path = tmp_path / "jobs.db"
        store = SqliteStore(path)
        first = self._daemon(workspace, store)
        job_id = first.submit(TASK_XML)
        store.close()  # the daemon process "dies" without running the job

        reopened = SqliteStore(path)
        second = self._daemon(workspace, reopened)
        recovered = second.recover()
        assert recovered["requeued"] == 1
        executed = second.run_pending()
        assert executed == [job_id]
        assert second.job(job_id).state is JobState.DONE
        record = reopened.get_job(job_id)
        assert record.state == "done" and record.makespan > 0
        reopened.close()

    def test_recover_steals_expired_leases_of_dead_owner(self, tmp_path):
        workspace = self._workspace(tmp_path)
        path = tmp_path / "jobs.db"
        store = SqliteStore(path)
        dead = self._daemon(workspace, store, lease_s=0.05)
        job_id = dead.submit(TASK_XML)
        store.claim(dead.owner, lease_s=0.05, now=0.0)  # claimed, never run
        store.close()

        import time as _time

        _time.sleep(0.1)
        reopened = SqliteStore(path)
        survivor = self._daemon(workspace, reopened)
        recovered = survivor.recover()
        assert recovered["stolen"] == 1
        assert survivor.run_pending() == [job_id]
        assert survivor.job(job_id).state is JobState.DONE
        kinds = [r.kind for r in reopened.claim_audit()]
        assert kinds == ["claim", "steal"]
        reopened.close()

    def test_record_result_discards_after_lease_steal(self, tmp_path):
        """Exactly-once: a stolen job's original runner cannot complete it."""
        workspace = self._workspace(tmp_path)
        store = MemoryStore()
        daemon = self._daemon(workspace, store, lease_s=5.0)
        job_id = daemon.submit(TASK_XML)
        (job,) = daemon.claim_pending()
        assert daemon.mark_running(job)
        # a peer steals the lease (as if this daemon stalled past expiry)
        store.steal_expired("peer", lease_s=5.0, now=float("inf"))

        class _Report:
            makespan = 1.0
            num_chunks = 2
            algorithm = "umr"

        assert daemon.record_result(job, _Report()) is False
        assert store.get_job(job_id).state == "queued"  # peer will re-run
        done = [t for t in store.transitions(job_id) if t.to_state == "done"]
        assert done == []

    def test_dlq_ids_do_not_restart_after_daemon_restart(self, tmp_path):
        """Regression: in-memory DLQ ids restarted from 1 on every daemon
        restart, so mark_replayed/replayed_as links became ambiguous."""
        workspace = self._workspace(tmp_path)
        path = tmp_path / "jobs.db"
        store = SqliteStore(path)
        first = self._daemon(workspace, store)
        entry = first.dlq.park(
            job_id=1, algorithm="umr", task=None,
            failure_chain=["no live workers"], spec_xml="<task/>",
        )
        assert entry.entry_id == 1
        store.close()

        reopened = SqliteStore(path)
        second = self._daemon(workspace, reopened)
        later = second.dlq.park(
            job_id=2, algorithm="umr", task=None, failure_chain=["again"],
        )
        assert later.entry_id == 2  # would be 1 again with in-memory ids
        second.dlq.mark_replayed(later.entry_id, 99)
        assert second.dlq.get(1).replayed_as is None  # link unambiguous
        assert second.dlq.get(2).replayed_as == 99
        reopened.close()

    def test_dlq_replay_from_spec_xml_after_restart(self, tmp_path):
        """A restarted daemon replays parked jobs from the persisted spec."""
        workspace = self._workspace(tmp_path)
        path = tmp_path / "jobs.db"
        store = SqliteStore(path)
        first = self._daemon(workspace, store)
        first.dlq.park(
            job_id=1, algorithm="umr", task=None,
            failure_chain=["boom"], spec_xml=TASK_XML,
        )
        store.close()

        reopened = SqliteStore(path)
        second = self._daemon(workspace, reopened)
        new_id = second.dlq_replay(1)
        assert second.dlq.get(1).replayed_as == new_id
        second.run_pending()
        assert second.job(new_id).state is JobState.DONE
        reopened.close()

    def test_cancel_is_guarded_by_the_store(self, tmp_path):
        workspace = self._workspace(tmp_path)
        daemon = self._daemon(workspace, MemoryStore())
        job_id = daemon.submit(TASK_XML)
        daemon.run_pending()
        with pytest.raises(SpecificationError, match="only queued"):
            daemon.cancel(job_id)

    def test_takeover_covers_a_peer_that_died_holding_no_lease(self, tmp_path):
        """A sharded peer that dies between claims leaves queued jobs with
        no lease; the survivor takes them one lease after submission."""
        workspace = self._workspace(tmp_path)
        store = MemoryStore()
        survivor = self._daemon(
            workspace, store, lease_s=30.0, shard_index=1, shard_count=2
        )
        orphan_tenant = next(
            t for t in (f"tenant-{i}" for i in range(8)) if tenant_shard(t, 2) == 0
        )
        job_id = survivor.submit(TASK_XML, tenant=orphan_tenant)
        assert survivor.takeover() == 0
        assert not survivor.has_pending()
        survivor.lease_s = 0.05
        import time as _time

        _time.sleep(0.1)
        assert survivor.takeover() == 1
        assert survivor.run_pending() == [job_id]
        assert survivor.job(job_id).state is JobState.DONE
        assert [r.kind for r in store.claim_audit()] == ["steal"]
        # the dead shard is now covered: its new jobs are claimed at once
        later = survivor.submit(TASK_XML, tenant=orphan_tenant)
        assert survivor.run_pending() == [later]

    def test_shard_assignment_validates(self, tmp_path):
        workspace = self._workspace(tmp_path)
        daemon = self._daemon(workspace, MemoryStore())
        with pytest.raises(SpecificationError):
            daemon.set_shard(2, 2)
        daemon.set_shard(1, 2)
        assert (daemon.shard_index, daemon.shard_count) == (1, 2)
