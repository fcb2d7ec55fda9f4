"""The TCP broker: line protocol, multi-job brokerd, cross-transport parity.

Two pillars:

* **One semantics, three transports.**  The broker-semantics suite below
  is parametrized over ``InMemoryBroker``, ``FileBroker``, and
  ``TcpBroker`` (served by an in-process :class:`BrokerServer` on an
  injected :class:`FakeClock`), so every lease/heartbeat/fencing/retry
  guarantee is asserted verbatim against the socket transport too.
* **The stream survives the network and the chaos.**  A distributed run
  over TCP must merge to the byte-identical witness stream of a
  single-process run — including when a real ``repro worker`` subprocess
  is SIGKILLed mid-chunk and its lease is re-issued.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import SamplerConfig, prepare
from repro.cnf import exactly_k_solutions_formula
from repro.distributed import (
    BrokerServer,
    FakeClock,
    FileBroker,
    InMemoryBroker,
    TcpBroker,
    connect_broker,
    run_worker,
)
from repro.distributed.tcpbroker import parse_tcp_url
from repro.errors import DistributedError, LeaseExpired
from repro.execution import BrokerBackend, SerialBackend, build_plan
from repro.parallel import chunk_plan

K_SOLUTIONS = 8
N_DRAWS = 96
CHUNK = 12


def _noop_sleep(_seconds):
    pass


def submit(broker, target, n, config, *, sampler="unigen2", chunk_size=None,
           **backend_kwargs):
    """Plan and enqueue a job; returns ``(plan, backend)`` ready to
    collect.  ``backend_kwargs`` go to :class:`BrokerBackend`."""
    plan = build_plan(target, n, config, sampler=sampler,
                      chunk_size=chunk_size)
    backend = BrokerBackend(broker, **backend_kwargs)
    backend.submit_plan(plan)
    return plan, backend


@pytest.fixture(scope="module")
def instance():
    cnf = exactly_k_solutions_formula(5, K_SOLUTIONS)
    cnf.sampling_set = range(1, 6)
    config = SamplerConfig(seed=2014)
    return cnf, config, prepare(cnf, config)


@pytest.fixture(scope="module")
def reference(instance):
    cnf, config, artifact = instance
    report = SerialBackend().collect(
        build_plan(artifact, N_DRAWS, config, sampler="unigen2",
                   chunk_size=CHUNK)
    )
    assert len(report.witnesses) == N_DRAWS
    return report


@pytest.fixture(params=["inmemory", "file", "tcp"])
def transport(request, tmp_path):
    """(broker, clock) for each transport; the same semantics suite runs
    against all three."""
    clock = FakeClock()
    if request.param == "inmemory":
        yield InMemoryBroker(clock=clock), clock
    elif request.param == "file":
        yield FileBroker(tmp_path / "spool", clock=clock), clock
    else:
        with BrokerServer(clock=clock).start() as server:
            client = TcpBroker(*server.address)
            yield client, clock
            client.close()


def synthetic_job(broker, n_chunks=5, lease_timeout_s=30.0, max_deliveries=3):
    tasks = chunk_plan(n_chunks * 2, 2, root_seed=42, max_attempts_factor=10)
    return broker.submit(
        {"sampler": "synthetic", "config": {}},
        tasks,
        lease_timeout_s=lease_timeout_s,
        max_deliveries=max_deliveries,
    )


def raw_result(task):
    return {
        "chunk": task.index,
        "results": [],
        "stats": None,
        "time_seconds": 0.0,
        "error": None,
    }


class TestBrokerSemanticsAllTransports:
    """The protocol suite, verbatim across in-memory, spool, and TCP."""

    def test_lease_ack_cycle_completes_the_job(self, transport):
        broker, _clock = transport
        spec = synthetic_job(broker)
        seen = []
        while (lease := broker.lease("w0")) is not None:
            assert lease.job_id == spec.job_id
            assert lease.delivery == 1
            seen.append(lease.chunk_index)
            broker.ack(lease, raw_result(lease.task))
        assert sorted(seen) == [t.index for t in spec.tasks]
        assert broker.is_complete()
        assert sorted(broker.results()) == seen
        assert broker.result_indices() == set(seen)
        assert broker.progress().done == len(spec.tasks)

    def test_fetch_result_returns_single_chunks(self, transport):
        broker, _clock = transport
        spec = synthetic_job(broker, n_chunks=3)
        lease = broker.lease("w0")
        broker.ack(lease, raw_result(lease.task))
        fetched = broker.fetch_result(lease.chunk_index)
        assert fetched["chunk"] == lease.chunk_index
        missing = next(
            t.index for t in spec.tasks if t.index != lease.chunk_index
        )
        assert broker.fetch_result(missing) is None

    def test_heartbeat_extends_the_deadline(self, transport):
        broker, clock = transport
        synthetic_job(broker, lease_timeout_s=5.0)
        lease = broker.lease("w0")
        clock.advance(3.0)
        lease = broker.heartbeat(lease)  # deadline now t=8
        clock.advance(4.0)  # t=7: still alive
        assert broker.requeue_expired() == []
        clock.advance(2.0)  # t=9: expired
        assert broker.requeue_expired() == [lease.chunk_index]

    def test_expired_lease_is_fenced_and_requeued_with_same_seed(
        self, transport
    ):
        broker, clock = transport
        synthetic_job(broker, lease_timeout_s=5.0)
        stale = broker.lease("w0")
        clock.advance(6.0)
        assert broker.requeue_expired() == [stale.chunk_index]
        with pytest.raises(LeaseExpired):
            broker.ack(stale, raw_result(stale.task))
        with pytest.raises(LeaseExpired):
            broker.heartbeat(stale)
        retry = next(
            lease
            for lease in iter(lambda: broker.lease("w1"), None)
            if lease.chunk_index == stale.chunk_index
        )
        assert retry.task.seed == stale.task.seed  # the original seed
        assert retry.delivery == 2
        assert broker.progress().requeues == 1

    def test_nack_requeues_immediately(self, transport):
        broker, _clock = transport
        synthetic_job(broker)
        lease = broker.lease("w0")
        broker.nack(lease, reason="shutting down")
        with pytest.raises(LeaseExpired):
            broker.ack(lease, raw_result(lease.task))
        indices = []
        while (again := broker.lease("w1")) is not None:
            indices.append(again.chunk_index)
            broker.ack(again, raw_result(again.task))
        assert lease.chunk_index in indices
        assert broker.is_complete()

    def test_delivery_budget_exhaustion_marks_chunk_lost(self, transport):
        broker, clock = transport
        synthetic_job(
            broker, n_chunks=1, lease_timeout_s=1.0, max_deliveries=2
        )
        first = broker.lease("w0")
        clock.advance(2.0)
        assert broker.requeue_expired() == [first.chunk_index]
        second = broker.lease("w0")
        assert second.chunk_index == first.chunk_index
        assert second.delivery == 2
        clock.advance(2.0)
        assert broker.requeue_expired() == []  # budget burned, not requeued
        assert broker.lost() == {first.chunk_index: 2}

    def test_purge_discards_the_job(self, transport):
        broker, _clock = transport
        synthetic_job(broker, n_chunks=2)
        lease = broker.lease("w0")
        broker.ack(lease, raw_result(lease.task))
        broker.purge()
        assert broker.job() is None
        assert broker.results() == {}
        # A fresh job starts from scratch on the purged transport.
        spec = synthetic_job(broker, n_chunks=2)
        assert broker.job().job_id == spec.job_id
        assert broker.progress().done == 0


class TestTcpSpecifics:
    def test_parse_tcp_url(self):
        assert parse_tcp_url("tcp://10.0.0.5:7765") == ("10.0.0.5", 7765)
        with pytest.raises(ValueError):
            parse_tcp_url("http://x:1")
        with pytest.raises(ValueError):
            parse_tcp_url("tcp://noport")

    def test_connect_broker_resolves_both_transports(self, tmp_path):
        assert isinstance(connect_broker(tmp_path / "spool"), FileBroker)
        with BrokerServer().start() as server:
            broker = connect_broker(server.url)
            assert isinstance(broker, TcpBroker)
            assert broker.ping()["server"] == "repro-brokerd"
            broker.close()

    def test_many_concurrent_jobs_keyed_by_job_id(self, instance):
        """The brokerd headline: two coordinators, one server, no mixups."""
        cnf, config, artifact = instance
        with BrokerServer().start() as server:
            a = TcpBroker(*server.address)
            b = TcpBroker(*server.address)
            plan_a, backend_a = submit(a, artifact, 24, config,
                                       chunk_size=12, poll_interval_s=0.01,
                                       timeout_s=30.0)
            plan_b, backend_b = submit(b, artifact, 24,
                                       SamplerConfig(seed=77),
                                       chunk_size=12, poll_interval_s=0.01,
                                       timeout_s=30.0)
            assert server.job_count() == 2
            # One unpinned worker fleet drains both jobs in order.
            fleet = TcpBroker(*server.address)
            run_worker(fleet, worker_id="fleet-0", drain=True,
                       poll_interval_s=0.01)
            report_a = backend_a.collect(plan_a)
            report_b = backend_b.collect(plan_b)
            ref_a = SerialBackend().collect(plan_a)
            ref_b = SerialBackend().collect(plan_b)
            assert report_a.witnesses == ref_a.witnesses
            assert report_b.witnesses == ref_b.witnesses
            assert report_a.witnesses != report_b.witnesses  # seeds differ
            a.purge()
            b.purge()
            assert server.job_count() == 0
            for client in (a, b, fleet):
                client.close()

    def test_oversized_line_is_refused_both_directions(self, monkeypatch):
        import repro.distributed.tcpbroker as tcp

        monkeypatch.setattr(tcp, "MAX_LINE_BYTES", 4096)
        with BrokerServer().start() as server:
            client = TcpBroker(*server.address)
            # Client-side: an oversized request never leaves the process.
            with pytest.raises(DistributedError, match="MAX_LINE_BYTES"):
                client._call("ping", padding="x" * 8192)
            client.close()
            # Server-side: a raw oversized line gets a typed error reply.
            with socket.create_connection(server.address, timeout=5.0) as raw:
                raw.sendall(b"{" + b"x" * 8192 + b"}\n")
                reply = raw.makefile("rb").readline()
            assert b'"ok":false' in reply.replace(b" ", b"")
            assert b"MAX_LINE_BYTES" in reply

    def test_stale_lease_on_purged_job_raises_lease_expired(self):
        with BrokerServer().start() as server:
            client = TcpBroker(*server.address)
            synthetic_job(client, n_chunks=1)
            lease = client.lease("w0")
            client.purge()
            with pytest.raises(LeaseExpired, match="gone"):
                client.ack(lease, raw_result(lease.task))
            client.close()

    def test_second_job_progresses_while_first_is_fully_leased(self):
        """Regression: when the oldest incomplete job has zero pending
        chunks (all leased to a stalled worker), unpinned job() and
        lease() must both resolve to the next job with work — a
        disagreement made workers nack-loop the second job's chunks until
        their delivery budget burned and they were marked lost."""
        cnf = exactly_k_solutions_formula(5, K_SOLUTIONS)
        cnf.sampling_set = range(1, 6)
        config = SamplerConfig(seed=2014)
        artifact = prepare(cnf, config)
        with BrokerServer().start() as server:
            a = TcpBroker(*server.address)
            b = TcpBroker(*server.address)
            plan_a, _ = submit(a, artifact, 8, config, chunk_size=4,
                               max_deliveries=3)
            plan_b, _ = submit(b, artifact, 8, SamplerConfig(seed=77),
                               chunk_size=4, max_deliveries=3)
            # A stalled worker hogs every chunk of job A, never acking.
            hog = TcpBroker(*server.address)
            hogged = [hog.lease("stalled") for _ in plan_a.tasks]
            assert all(lease.job_id == a.job_id for lease in hogged)
            # A healthy worker must now serve job B cleanly (max_chunks,
            # not drain: job A stays incomplete throughout).
            fleet = TcpBroker(*server.address)
            report = run_worker(
                fleet, worker_id="healthy",
                max_chunks=plan_b.n_chunks,
                poll_interval_s=0.01,
            )
            assert report.chunks_done == plan_b.n_chunks
            assert report.chunks_lost == 0
            assert b.lost() == {}
            assert sorted(b.results()) == [t.index for t in plan_b.tasks]
            for client in (a, b, hog, fleet):
                client.close()

    def test_oversized_response_is_a_typed_error_not_a_hang(
        self, monkeypatch
    ):
        """Regression: a response over the line cap must come back as a
        small typed error — silently dropping it left the client blocked
        on a line that never arrived."""
        import repro.distributed.tcpbroker as tcp

        monkeypatch.setattr(tcp, "MAX_LINE_BYTES", 4096)
        with BrokerServer().start() as server:
            client = TcpBroker(*server.address)
            spec = synthetic_job(client, n_chunks=3)
            while (lease := client.lease("w0")) is not None:
                result = raw_result(lease.task)
                result["padding"] = "x" * 3000  # each ack fits the cap…
                client.ack(lease, result)
            with pytest.raises(DistributedError, match="MAX_LINE_BYTES"):
                client.results()  # …their aggregation does not
            # The connection survived: small ops still round-trip.
            assert client.result_indices() == {
                t.index for t in spec.tasks
            }
            client.close()

    def test_completed_jobs_are_reaped_lazily_on_submit(self):
        """A --jobs 0 coordinator never purges; brokerd must retire old
        completed jobs itself (keeping the newest few for late drain
        polls) so its job table cannot grow with history."""
        from repro.distributed.tcpbroker import (
            COMPLETED_JOB_LINGER_S,
            COMPLETED_JOBS_KEPT,
        )

        clock = FakeClock()
        with BrokerServer(clock=clock).start() as server:
            for _ in range(COMPLETED_JOBS_KEPT + 3):
                client = TcpBroker(*server.address)
                synthetic_job(client, n_chunks=1)
                lease = client.lease("w0")
                client.ack(lease, raw_result(lease.task))
                client.close()
                # Long-idle history: nobody polls these jobs again.
                clock.advance(COMPLETED_JOB_LINGER_S + 1.0)
            # Everything completed and idle; only the newest few survive.
            assert server.job_count() == COMPLETED_JOBS_KEPT + 1


    def test_drain_worker_exits_when_its_served_job_is_purged(self):
        """Regression: `repro broker --purge` + external drain workers —
        a worker that served the job but missed the completion window
        (job purged first) must drain-exit, not poll an empty queue
        forever."""
        from repro.cnf import CNF

        cnf = CNF()
        cnf.add_clause([1, 2])
        cnf.sampling_set = [1, 2]
        broker = InMemoryBroker()
        submit(broker, cnf, 1, SamplerConfig(seed=3), sampler="us",
               chunk_size=1)

        polls = {"n": 0}

        def sleeper(_seconds):
            polls["n"] += 1
            if polls["n"] > 50:
                raise AssertionError("worker is spinning on an empty queue")

        def serve_then_purge(lease, _raw):
            broker.purge()  # the coordinator collected and purged

        report = run_worker(
            broker, worker_id="late", drain=True, sleep=sleeper,
            on_chunk=serve_then_purge,
        )
        assert report.chunks_done == 1

    def test_worker_cli_rejects_malformed_tcp_target(self, capsys):
        from repro.experiments.cli import main

        assert main(["worker", "tcp://localhost"]) == 2
        assert "c error:" in capsys.readouterr().err

    def test_abandoned_incomplete_job_is_reaped(self):
        """Regression: an incomplete job whose coordinator vanished
        (crash, Ctrl-C — no pinned access for the abandonment window)
        must be reaped, or its payload leaks forever and idle workers
        keep being steered at a job nothing can finish."""
        from repro.distributed.tcpbroker import ABANDONED_JOB_TIMEOUT_S

        clock = FakeClock()
        with BrokerServer(clock=clock).start() as server:
            dead = TcpBroker(*server.address)
            spec = synthetic_job(dead, n_chunks=2)  # never drained
            dead.close()  # the coordinator is gone
            clock.advance(ABANDONED_JOB_TIMEOUT_S + 1.0)
            live = TcpBroker(*server.address)
            synthetic_job(live, n_chunks=1)  # submit triggers the reap
            assert server.job_count() == 1
            assert live.job() is not None
            probe = TcpBroker(*server.address, job_id=spec.job_id)
            assert probe.job() is None  # the abandoned job is gone
            live.close()
            probe.close()

    def test_reaper_spares_a_job_its_coordinator_still_polls(self):
        """Regression: a completed job whose pinned coordinator touched
        it within the linger window must never be reaped, however many
        newer jobs pile up — otherwise a slow streaming consumer loses
        its undelivered tail."""
        from repro.distributed.tcpbroker import COMPLETED_JOBS_KEPT

        clock = FakeClock()
        with BrokerServer(clock=clock).start() as server:
            slow = TcpBroker(*server.address)
            spec = synthetic_job(slow, n_chunks=1)
            lease = slow.lease("w0")
            slow.ack(lease, raw_result(lease.task))  # complete, undrained
            for _ in range(COMPLETED_JOBS_KEPT + 3):
                clock.advance(10.0)
                slow.fetch_result(0)  # the streaming coordinator's poll
                other = TcpBroker(*server.address)
                synthetic_job(other, n_chunks=1)
                done = other.lease("w")
                other.ack(done, raw_result(done.task))
                other.close()
            assert slow.job() is not None
            assert slow.job().job_id == spec.job_id
            assert slow.fetch_result(0) is not None
            slow.close()

    def test_hung_server_times_out_instead_of_blocking_forever(self):
        """Regression: a brokerd that accepts but never answers (hung
        process, partition without RST) must surface as a timely
        DistributedError, not block _call — and the coordinator's poll
        loop with it — indefinitely."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            client = TcpBroker(*listener.getsockname(), op_timeout_s=0.3)
            import time as _time

            start = _time.monotonic()
            with pytest.raises(DistributedError, match="unreachable"):
                client.ping()
            assert _time.monotonic() - start < 5.0  # two 0.3s attempts
            client.close()
        finally:
            listener.close()

    def test_job_spec_is_cached_and_revalidated_by_id(self):
        """The payload crosses the wire once per job: repeat job() polls
        revalidate by job id and reuse the cached spec object."""
        with BrokerServer().start() as server:
            client = TcpBroker(*server.address)
            spec = synthetic_job(client, n_chunks=2)
            first = client.job()
            assert first.job_id == spec.job_id
            assert client.job() is first  # revalidated, not re-shipped
            client.purge()
            assert client.job() is None  # cache invalidated with the job
            client.close()

    def test_unpinned_worker_sees_newest_job_when_all_complete(self):
        """Drain-mode workers must observe completion, not spin forever."""
        with BrokerServer().start() as server:
            coordinator = TcpBroker(*server.address)
            spec = synthetic_job(coordinator, n_chunks=1)
            worker = TcpBroker(*server.address)
            lease = worker.lease("w0")
            worker.ack(lease, raw_result(lease.task))
            assert worker.job().job_id == spec.job_id
            assert worker.is_complete()
            coordinator.close()
            worker.close()


class TestTcpDeterminismAndChaos:
    def test_tcp_inline_workers_match_single_process(
        self, instance, reference
    ):
        cnf, config, artifact = instance
        with BrokerServer().start() as server:
            client = TcpBroker(*server.address)
            plan, backend = submit(client, artifact, N_DRAWS, config,
                                   chunk_size=CHUNK, poll_interval_s=0.05,
                                   timeout_s=120.0)
            threads = [
                threading.Thread(
                    target=run_worker, args=(client,),
                    kwargs=dict(worker_id=f"inline-{i}",
                                poll_interval_s=0.05, drain=True),
                    daemon=True,
                )
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            try:
                report = backend.collect(plan)
            finally:
                for thread in threads:
                    thread.join(timeout=5.0)
            assert report.witnesses == reference.witnesses
            assert report.root_seed == reference.root_seed == 2014
            client.close()

    def test_sigkilled_cli_worker_mid_stream_is_byte_identical(
        self, instance, reference
    ):
        """The ISSUE's chaos criterion over TCP: a real `repro worker`
        process is SIGKILLed mid-chunk; the re-issued lease (original
        derived seed) must still merge to the byte-identical ordered
        stream of an uninterrupted run."""
        cnf, config, artifact = instance
        with BrokerServer().start() as server:
            client = TcpBroker(*server.address)
            plan, backend = submit(
                client, artifact, N_DRAWS, config, chunk_size=CHUNK,
                lease_timeout_s=1.0,  # fast retry of the murdered chunk
                poll_interval_s=0.05, timeout_s=60.0,
            )
            doomed = _spawn_cli_worker(server.url, "--chaos-kill-after", "2")
            doomed.wait(timeout=60)
            assert doomed.returncode == -signal.SIGKILL
            crashed = client.progress()
            assert crashed.done < plan.n_chunks
            assert crashed.leased == 1  # the dead worker's orphaned lease

            survivor = _spawn_cli_worker(server.url, "--drain")
            try:
                report = backend.collect(plan)
            finally:
                try:
                    survivor.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    survivor.kill()
                    survivor.wait()
            assert report.witnesses == reference.witnesses
            assert report.requeues >= 1
            client.close()


class TestTcpRetryWindow:
    """`--broker-retry`: clients ride out a brokerd outage instead of
    dying on the first refused connection."""

    def test_retry_window_rides_out_a_broker_outage(self):
        server = BrokerServer().start()
        host, port = server.address
        client = TcpBroker(host, port, retry_window_s=30.0)
        assert client.ping()["jobs"] == 0
        server.close()
        client.close()  # force the next op through a fresh connection
        revived = []

        def resurrect():
            time.sleep(0.4)
            revived.append(BrokerServer(host, port).start())

        thread = threading.Thread(target=resurrect)
        thread.start()
        try:
            # Blocks through the outage, reconnects, succeeds.
            assert client.ping()["jobs"] == 0
        finally:
            thread.join()
            client.close()
            for extra in revived:
                extra.close()

    def test_zero_window_fails_fast(self):
        server = BrokerServer().start()
        client = TcpBroker(*server.address)
        assert client.ping()["jobs"] == 0
        server.close()
        client.close()  # force the next op through a fresh connection
        start = time.monotonic()
        with pytest.raises(DistributedError):
            client.ping()
        assert time.monotonic() - start < 5.0
        client.close()


class TestBrokerdDurability:
    """ISSUE 7 tentpole: the spool journal makes brokerd restart-safe."""

    def test_journal_replay_restores_acks_pending_and_seeds(self, tmp_path):
        spool = tmp_path / "journal"
        server = BrokerServer(spool=spool).start()
        client = TcpBroker(*server.address)
        spec = synthetic_job(client, n_chunks=4)
        done = []
        for _ in range(2):
            lease = client.lease("w1")
            client.ack(lease, raw_result(lease.task))
            done.append(lease.chunk_index)
        client.close()
        server.close()  # hard stop: no drain, no purge — crash-shaped

        reborn = BrokerServer(spool=spool).start()
        assert reborn.replayed_jobs == 1
        # Pinned exactly as the original coordinator was: the job id is
        # stable across the restart.
        c2 = TcpBroker(*reborn.address, job_id=spec.job_id)
        assert c2.job().job_id == spec.job_id
        # Pre-crash acks survive: nothing already paid for is recomputed.
        assert c2.result_indices() == set(done)
        seeds = {task.index: task.seed for task in spec.tasks}
        while (lease := c2.lease("w2")) is not None:
            # The PR 3 invariant across a restart: re-issued chunks keep
            # their original derived seeds.
            assert lease.task.seed == seeds[lease.chunk_index]
            c2.ack(lease, raw_result(lease.task))
        assert c2.is_complete()
        assert sorted(c2.results()) == sorted(seeds)
        c2.purge()
        assert reborn.job_count() == 0
        assert not (spool / "00001").exists()
        # The sequence counter resumed past the replayed job, so the
        # next submit cannot collide with journal history.
        synthetic_job(c2, n_chunks=1)
        assert (spool / "00002").is_dir()
        c2.close()
        reborn.close()

    def test_lease_fencing_survives_restart(self, tmp_path):
        """A worker that outlives the broker crash can still ack its
        pre-crash lease after replay — the fencing state is journaled."""
        spool = tmp_path / "journal"
        server = BrokerServer(spool=spool).start()
        client = TcpBroker(*server.address)
        synthetic_job(client, n_chunks=2)
        lease = client.lease("w1")
        client.close()
        server.close()

        reborn = BrokerServer(spool=spool).start()
        c2 = TcpBroker(*reborn.address)
        c2.ack(lease, raw_result(lease.task))
        assert c2.result_indices() == {lease.chunk_index}
        assert c2.progress().leased == 0
        c2.close()
        reborn.close()

    def test_spoolless_brokerd_keeps_inmemory_semantics(self):
        server = BrokerServer().start()
        assert server.spool is None and server.replayed_jobs == 0
        client = TcpBroker(*server.address)
        synthetic_job(client, n_chunks=1)
        lease = client.lease("w0")
        client.ack(lease, raw_result(lease.task))
        assert client.is_complete()
        client.close()
        server.close()

    def test_replay_skips_unpublished_and_foreign_directories(
        self, tmp_path
    ):
        spool = tmp_path / "journal"
        server = BrokerServer(spool=spool).start()
        client = TcpBroker(*server.address)
        spec = synthetic_job(client, n_chunks=1)
        client.close()
        server.close()
        # A submit that crashed before publishing job.json, and a
        # directory that was never ours: both must be ignored.
        (spool / "00002" / "pending").mkdir(parents=True)
        (spool / "notes").mkdir()
        reborn = BrokerServer(spool=spool).start()
        assert reborn.replayed_jobs == 1
        assert reborn.job_count() == 1
        # …and seq 2 is burned, not reused.
        c2 = TcpBroker(*reborn.address, job_id=spec.job_id)
        c2.purge()
        synthetic_job(c2, n_chunks=1)
        assert (spool / "00003").is_dir()
        c2.close()
        reborn.close()

    def test_sigkilled_brokerd_restarted_on_same_spool_is_byte_identical(
        self, instance, reference, tmp_path
    ):
        """The ISSUE's chaos criterion: SIGKILL brokerd itself mid-job,
        restart it on the same spool and port, and the merged stream
        must still be byte-identical to an uninterrupted run."""
        cnf, config, artifact = instance
        spool = tmp_path / "journal"
        proc = _spawn_brokerd("--spool", str(spool))
        client = worker = reborn = None
        try:
            banner = _brokerd_banner(proc)
            assert "journaling to" in banner
            url = _banner_url(banner)
            _host, port = parse_tcp_url(url)
            client = connect_broker(url, retry_window_s=60.0)
            plan, backend = submit(
                client, artifact, N_DRAWS, config, chunk_size=CHUNK,
                poll_interval_s=0.05, timeout_s=120.0,
            )
            worker = _spawn_cli_worker(
                url, "--drain", "--broker-retry", "60"
            )
            # Wait for the journal to record real progress, then murder
            # brokerd mid-job.
            deadline = time.monotonic() + 60
            while not list(spool.glob("*/results/*.json")):
                assert time.monotonic() < deadline, "no results journaled"
                time.sleep(0.02)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=15)

            # Restart on the same spool and port; the coordinator and the
            # worker ride their retry windows across the outage.
            reborn = _spawn_brokerd(
                "--spool", str(spool), "--port", str(port)
            )
            banner = _brokerd_banner(reborn)
            assert "1 jobs replayed" in banner
            report = backend.collect(plan)
            assert report.witnesses == reference.witnesses
            worker.wait(timeout=60)
        finally:
            if client is not None:
                client.close()
            for p in (worker, proc, reborn):
                if p is not None and p.poll() is None:
                    p.kill()
                    p.wait()


def _brokerd_banner(proc):
    """Read stderr up to (and including) the listening line."""
    lines = []
    while True:
        line = proc.stderr.readline()
        assert line, "brokerd exited before announcing its socket"
        lines.append(line)
        if "listening on tcp://" in line:
            return "".join(lines)


def _banner_url(banner):
    import re

    return re.search(r"tcp://\S+", banner).group(0)


class TestBrokerdCli:
    def test_brokerd_subprocess_serves_a_ping(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "brokerd", "--port", "0"],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            assert "brokerd listening on tcp://" in banner
            url = banner.strip().split()[-1]
            client = TcpBroker.from_url(url)
            assert client.ping()["jobs"] == 0
            client.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)


def _spawn_cli_worker(url, *extra):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", url,
         "--poll", "0.05", *extra],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestBrokerAuth:
    """The shared-secret hello: satellite (b) of the service-tier PR."""

    TOKEN = "hunter2"

    def test_authenticated_client_runs_the_full_protocol(self):
        with BrokerServer(auth_token=self.TOKEN).start() as server:
            client = TcpBroker(*server.address, token=self.TOKEN)
            assert client.ping()["jobs"] == 0
            synthetic_job(client)
            lease = client.lease("w1")
            client.ack(lease, raw_result(lease.task))
            assert client.done_count() == 1
            client.close()

    def test_wrong_token_is_rejected_at_hello(self):
        with BrokerServer(auth_token=self.TOKEN).start() as server:
            client = TcpBroker(*server.address, token="letmein")
            with pytest.raises(DistributedError,
                               match="rejected the auth token"):
                client.ping()
            client.close()

    def test_missing_token_is_rejected_before_any_op(self):
        with BrokerServer(auth_token=self.TOKEN).start() as server:
            client = TcpBroker(*server.address)
            with pytest.raises(DistributedError,
                               match="requires authentication"):
                client.ping()
            client.close()

    def test_hello_against_an_open_server_is_harmless(self):
        with BrokerServer().start() as server:
            client = TcpBroker(*server.address, token="whatever")
            assert client.ping()["jobs"] == 0
            client.close()

    def test_reconnect_reauthenticates(self):
        with BrokerServer(auth_token=self.TOKEN).start() as server:
            client = TcpBroker(*server.address, token=self.TOKEN)
            assert client.ping()["jobs"] == 0
            client.close()  # drop the socket; next op must redo the hello
            assert client.ping()["jobs"] == 0
            client.close()

    def test_spool_targets_reject_a_token(self, tmp_path):
        with pytest.raises(ValueError, match="tcp://"):
            connect_broker(tmp_path / "spool", token=self.TOKEN)


class TestGracefulShutdown:
    """Satellite (c): drain in-flight connections, orphan no sockets."""

    def test_close_gracefully_drains_the_connection_census(self):
        server = BrokerServer().start()
        client = TcpBroker(*server.address)
        assert client.ping()["jobs"] == 0
        assert server.connection_count() == 1
        server.close_gracefully()
        assert server.connection_count() == 0
        with pytest.raises(DistributedError):
            client.ping()
        client.close()

    def test_brokerd_sigterm_drains_and_exits_zero(self):
        import re

        proc = _spawn_brokerd()
        client = None
        try:
            banner = proc.stderr.readline()
            assert "brokerd listening on tcp://" in banner
            url = re.search(r"tcp://\S+", banner).group(0)
            client = TcpBroker.from_url(url)
            assert client.ping()["jobs"] == 0
            proc.send_signal(signal.SIGTERM)
            tail = proc.stderr.read()  # pipe closes when the daemon exits
            assert "draining connections" in tail
            assert "drained and closed" in tail
            assert proc.wait(timeout=15) == 0
            # The served connection was shut down, not orphaned: every
            # further op fails fast instead of hanging on a dead socket.
            with pytest.raises((DistributedError, ConnectionError, OSError)):
                client.ping()
        finally:
            if client is not None:
                client.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_brokerd_auth_token_flag_guards_the_socket(self):
        import re

        proc = _spawn_brokerd("--auth-token", "hunter2")
        try:
            banner = proc.stderr.readline()
            assert "(authenticated)" in banner
            url = re.search(r"tcp://\S+", banner).group(0)
            nosy = connect_broker(url)
            with pytest.raises(DistributedError,
                               match="requires authentication"):
                nosy.ping()
            nosy.close()
            good = connect_broker(url, token="hunter2")
            assert good.ping()["jobs"] == 0
            good.close()
        finally:
            proc.terminate()
            assert proc.wait(timeout=15) == 0


def _spawn_brokerd(*extra):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "brokerd", "--port", "0", *extra],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
