"""The distributed chunk queue: broker semantics, fault tolerance, determinism.

The subsystem's acceptance criterion mirrors the parallel engine's: the
witness stream is a pure function of ``(formula, sampler, config, n,
chunk_size)`` under a fixed root seed — worker count, transports, *and
failures* cannot change it.  The chaos tests here SIGKILL a worker
mid-chunk and drop leases on the floor, then assert the retried run merges
to the byte-identical stream of an uninterrupted single-process run and
passes the same uniformity gate.

Every lease-expiry decision runs on an injected
:class:`~repro.distributed.FakeClock` — no test below sleeps its way past a
deadline.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    ParallelSamplerConfig,
    SamplerConfig,
    prepare,
    sample_parallel,
)
from repro.cnf import exactly_k_solutions_formula
from repro.distributed import (
    FakeClock,
    FileBroker,
    InMemoryBroker,
    JobSpec,
    run_worker,
    sample_distributed,
    submit_job,
    wait_for_report,
)
from repro.errors import (
    ChunkLost,
    DistributedError,
    LeaseExpired,
    WorkerFailure,
)
from repro.parallel import ChunkTask, chunk_plan
from repro.stats import uniformity_gate, witness_key

K_SOLUTIONS = 8
N_DRAWS = 480  # N/M = 60: enough that the gate's ratio check has teeth


def _noop_sleep(_seconds):
    pass


@pytest.fixture(scope="module")
def instance():
    cnf = exactly_k_solutions_formula(5, K_SOLUTIONS)
    cnf.sampling_set = range(1, 6)
    config = SamplerConfig(seed=2014)
    return cnf, config, prepare(cnf, config)


@pytest.fixture(scope="module")
def reference(instance):
    """The uninterrupted single-process stream every chaos run must match."""
    cnf, config, artifact = instance
    report = sample_parallel(
        artifact,
        N_DRAWS,
        config,
        ParallelSamplerConfig(jobs=1, sampler="unigen2", chunk_size=48),
    )
    assert len(report.witnesses) == N_DRAWS
    return report


def synthetic_job(broker, n_chunks=5, lease_timeout_s=30.0, max_deliveries=3):
    """A broker-level job whose chunks are never actually sampled."""
    tasks = chunk_plan(n_chunks * 2, 2, root_seed=42, max_attempts_factor=10)
    return broker.submit(
        {"sampler": "synthetic", "config": {}},
        tasks,
        lease_timeout_s=lease_timeout_s,
        max_deliveries=max_deliveries,
    )


def raw_result(task):
    """A well-formed empty result dict for broker-level tests."""
    return {
        "chunk": task.index,
        "results": [],
        "stats": None,
        "time_seconds": 0.0,
        "error": None,
    }


class TestChunkTaskWire:
    def test_round_trip_and_tuple_compatibility(self):
        task = ChunkTask(index=3, seed=99, count=4, max_attempts=40)
        assert ChunkTask.from_dict(task.to_dict()) == task
        index, seed, count, max_attempts = task  # run_chunk unpacks it
        assert (index, seed, count, max_attempts) == (3, 99, 4, 40)

    def test_plan_rows_are_chunk_tasks(self):
        tasks = chunk_plan(10, 3, 7, 10)
        assert all(isinstance(t, ChunkTask) for t in tasks)
        assert [t.count for t in tasks] == [3, 3, 3, 1]


class TestInMemoryBroker:
    def test_lease_ack_cycle_completes_the_job(self):
        broker = InMemoryBroker(clock=FakeClock())
        spec = synthetic_job(broker)
        seen = []
        while (lease := broker.lease("w0")) is not None:
            assert lease.delivery == 1
            assert lease.job_id == spec.job_id
            seen.append(lease.task.index)
            broker.ack(lease, raw_result(lease.task))
        assert seen == [t.index for t in spec.tasks]
        assert broker.is_complete()
        assert sorted(broker.results()) == seen
        progress = broker.progress()
        assert progress.done == len(spec.tasks) and progress.requeues == 0
        assert progress.workers == {"w0"}
        assert "chunks done" in progress.describe()

    def test_heartbeat_extends_the_deadline(self):
        clock = FakeClock()
        broker = InMemoryBroker(clock=clock)
        synthetic_job(broker, lease_timeout_s=30.0)
        lease = broker.lease("w0")
        assert lease.deadline == pytest.approx(30.0)
        clock.advance(20.0)
        lease = broker.heartbeat(lease)
        assert lease.deadline == pytest.approx(50.0)
        clock.advance(25.0)  # t=45 < 50: still alive
        assert broker.requeue_expired() == []
        clock.advance(10.0)  # t=55 > 50: gone
        assert broker.requeue_expired() == [lease.chunk_index]

    def test_expired_lease_requeues_same_seed_bumped_delivery(self):
        clock = FakeClock()
        broker = InMemoryBroker(clock=clock)
        synthetic_job(broker, lease_timeout_s=5.0)
        first = broker.lease("w0")
        clock.advance(6.0)
        assert broker.requeue_expired() == [first.chunk_index]
        # The queue hands the retried chunk out last; drain the others.
        leases = []
        while (lease := broker.lease("w1")) is not None:
            leases.append(lease)
        retried = leases[-1]
        assert retried.task == first.task  # identical row ⇒ identical seed
        assert retried.delivery == 2
        assert broker.progress().requeues == 1

    def test_stale_lease_operations_raise_lease_expired(self):
        clock = FakeClock()
        broker = InMemoryBroker(clock=clock)
        synthetic_job(broker, lease_timeout_s=5.0)
        stale = broker.lease("w0")
        clock.advance(6.0)
        broker.requeue_expired()
        with pytest.raises(LeaseExpired):
            broker.ack(stale, raw_result(stale.task))
        with pytest.raises(LeaseExpired):
            broker.heartbeat(stale)
        with pytest.raises(LeaseExpired):
            broker.nack(stale)
        assert stale.task.index not in broker.results()

    def test_nack_requeues_immediately(self):
        broker = InMemoryBroker(clock=FakeClock())
        synthetic_job(broker)
        lease = broker.lease("w0")
        broker.nack(lease, reason="shutting down")
        assert broker.progress().requeues == 1
        leases = []
        while (lease := broker.lease("w1")) is not None:
            leases.append(lease)
        assert leases[-1].delivery == 2

    def test_delivery_budget_exhaustion_marks_chunk_lost(self):
        clock = FakeClock()
        broker = InMemoryBroker(clock=clock)
        synthetic_job(broker, lease_timeout_s=5.0, max_deliveries=2)
        index = broker.lease("w0").chunk_index
        clock.advance(6.0)
        assert broker.requeue_expired() == [index]
        # Second (and final) delivery also dies (the retried chunk comes
        # back from the end of the queue).
        release = broker.lease("w0")
        while release.chunk_index != index:
            release = broker.lease("w0")
        assert release.delivery == 2
        clock.advance(6.0)
        assert index not in broker.requeue_expired()  # not re-issued: lost
        assert broker.lost() == {index: 2}

    def test_one_job_at_a_time(self):
        broker = InMemoryBroker(clock=FakeClock())
        synthetic_job(broker)
        with pytest.raises(DistributedError, match="in flight"):
            synthetic_job(broker)
        while (lease := broker.lease("w0")) is not None:
            broker.ack(lease, raw_result(lease.task))
        second = synthetic_job(broker)  # completed job: replaceable
        assert broker.job().job_id == second.job_id
        assert broker.results() == {}

    def test_job_spec_round_trips_through_json_dict(self):
        broker = InMemoryBroker(clock=FakeClock())
        spec = synthetic_job(broker)
        back = JobSpec.from_dict(spec.to_dict())
        assert back == spec


class TestFileBroker:
    def test_lease_ack_cycle_and_persistence(self, tmp_path):
        broker = FileBroker(tmp_path / "spool", clock=FakeClock())
        spec = synthetic_job(broker)
        lease = broker.lease("w0")
        broker.ack(lease, raw_result(lease.task))
        # A different broker instance over the same spool sees everything.
        other = FileBroker(tmp_path / "spool", clock=FakeClock())
        assert other.job().job_id == spec.job_id
        assert list(other.results()) == [lease.chunk_index]
        remaining = []
        while (lease := other.lease("w1")) is not None:
            remaining.append(lease)
            other.ack(lease, raw_result(lease.task))
        assert other.is_complete() and broker.is_complete()
        assert other.progress().workers == {"w0", "w1"}

    def test_claims_are_exclusive_across_instances(self, tmp_path):
        a = FileBroker(tmp_path / "spool", clock=FakeClock())
        b = FileBroker(tmp_path / "spool", clock=FakeClock())
        spec = synthetic_job(a)
        claimed = []
        for broker in [a, b] * len(spec.tasks):
            lease = broker.lease("w")
            if lease is not None:
                claimed.append(lease.chunk_index)
        assert sorted(claimed) == [t.index for t in spec.tasks]
        assert len(set(claimed)) == len(claimed)  # no double-claims

    def test_expiry_requeue_and_late_ack_fencing(self, tmp_path):
        clock = FakeClock()
        broker = FileBroker(tmp_path / "spool", clock=clock)
        synthetic_job(broker, lease_timeout_s=5.0)
        stale = broker.lease("w0")
        clock.advance(3.0)
        stale = broker.heartbeat(stale)  # deadline now t=8
        clock.advance(4.0)  # t=7: alive
        assert broker.requeue_expired() == []
        clock.advance(2.0)  # t=9: expired
        assert broker.requeue_expired() == [stale.chunk_index]
        with pytest.raises(LeaseExpired):
            broker.ack(stale, raw_result(stale.task))
        with pytest.raises(LeaseExpired):
            broker.heartbeat(stale)
        assert broker.progress().requeues == 1

    def test_corrupt_spool_files_raise_cleanly(self, tmp_path):
        # Atomic replace makes torn reads impossible, so garbage in a
        # spool file is real corruption — a clean DistributedError, never
        # a JSONDecodeError traceback (the `repro worker` CLI turns this
        # into `c error: …` + exit 2).
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "job.json").write_text("{garbage")
        with pytest.raises(DistributedError, match="corrupt spool file"):
            FileBroker(spool).job()
        (spool / "job.json").write_text('{"valid": "json, wrong shape"}')
        with pytest.raises(DistributedError, match="corrupt spool file"):
            FileBroker(spool).job()

    def test_lost_chunks_recorded_on_disk(self, tmp_path):
        clock = FakeClock()
        broker = FileBroker(tmp_path / "spool", clock=clock)
        synthetic_job(broker, lease_timeout_s=1.0, max_deliveries=1)
        index = broker.lease("w0").chunk_index
        clock.advance(2.0)
        assert broker.requeue_expired() == []
        assert broker.lost() == {index: 1}
        assert (tmp_path / "spool" / "lost" / f"{index:05d}.json").exists()


class TestWorkerLoop:
    def test_drain_serves_the_whole_job(self, instance, reference):
        cnf, config, artifact = instance
        broker = InMemoryBroker(clock=FakeClock())
        submitted = submit_job(
            broker, artifact, N_DRAWS, config,
            sampler="unigen2", chunk_size=48,
        )
        worker_report = run_worker(
            broker, worker_id="solo", drain=True, sleep=_noop_sleep
        )
        assert worker_report.chunks_done == len(submitted.spec.tasks)
        assert worker_report.chunks_lost == 0
        report = wait_for_report(
            broker, submitted, clock=FakeClock(), sleep=_noop_sleep
        )
        assert report.witnesses == reference.witnesses

    def test_max_chunks_stops_early(self, instance):
        cnf, config, artifact = instance
        broker = InMemoryBroker(clock=FakeClock())
        submit_job(broker, artifact, 8, config, sampler="unigen2",
                   chunk_size=2)
        worker_report = run_worker(
            broker, worker_id="capped", max_chunks=1, sleep=_noop_sleep
        )
        assert worker_report.chunks_done == 1
        assert not broker.is_complete()

    def test_idle_timeout_returns_without_a_job(self):
        broker = InMemoryBroker(clock=FakeClock())
        report = run_worker(
            broker,
            worker_id="idle",
            idle_timeout_s=0.0,
            clock=FakeClock(),
            sleep=_noop_sleep,
        )
        assert report.chunks_done == 0 and report.jobs_seen == []

    def test_worker_skips_a_stale_completed_job(self, instance):
        """A leftover finished job must not satisfy --drain instantly."""
        cnf, config, artifact = instance
        broker = InMemoryBroker(clock=FakeClock())
        submit_job(broker, artifact, 4, config, sampler="unigen2")
        run_worker(broker, worker_id="first", drain=True, sleep=_noop_sleep)
        assert broker.is_complete()
        # Second worker arrives at a spool whose job is already done: with
        # an idle timeout it must wait (and time out), not drain-exit
        # having "seen" the stale job.
        clock = FakeClock()

        def sleeping(seconds):
            clock.advance(max(seconds, 0.1))

        report = run_worker(
            broker,
            worker_id="late",
            drain=True,
            idle_timeout_s=5.0,
            clock=clock,
            sleep=sleeping,
        )
        assert report.jobs_seen == []


class TestDistributedDeterminism:
    """Transport changes nothing: the pool reference stream, re-drawn."""

    def test_in_memory_matches_single_process(self, instance, reference):
        cnf, config, artifact = instance
        report = sample_distributed(
            InMemoryBroker(),
            artifact,
            N_DRAWS,
            config,
            sampler="unigen2",
            chunk_size=48,
            inline_workers=3,
            timeout_s=120.0,
        )
        assert report.witnesses == reference.witnesses
        assert report.root_seed == reference.root_seed == 2014
        assert report.requeues == 0
        assert all(cnf.evaluate(w) for w in report.witnesses)

    def test_file_broker_matches_single_process(
        self, instance, reference, tmp_path
    ):
        cnf, config, artifact = instance
        report = sample_distributed(
            FileBroker(tmp_path / "spool"),
            artifact,
            N_DRAWS,
            config,
            sampler="unigen2",
            chunk_size=48,
            inline_workers=2,
            timeout_s=120.0,
        )
        assert report.witnesses == reference.witnesses

    def test_worker_error_surfaces_as_worker_failure(self):
        # UNSAT is only discovered at sample time for uniwit — inside a
        # worker's chunk, exactly like the pool path.
        from repro.cnf import CNF

        unsat = CNF()
        unsat.add_clause([1])
        unsat.add_clause([-1])
        broker = InMemoryBroker()
        with pytest.raises(WorkerFailure) as info:
            sample_distributed(
                broker,
                unsat,
                4,
                SamplerConfig(seed=1),
                sampler="uniwit",
                inline_workers=1,
                timeout_s=60.0,
            )
        assert info.value.remote_type == "UnsatisfiableError"

    def test_retryable_worker_error_is_nacked_and_retried(
        self, instance, monkeypatch
    ):
        """Worker-local trouble (MemoryError, OSError) must not fail the
        job: the chunk is handed back and another attempt — same seed —
        delivers the identical draws."""
        import repro.distributed.worker as dworker

        cnf, config, artifact = instance
        broker = InMemoryBroker(clock=FakeClock())
        submitted = submit_job(
            broker, artifact, 4, config, sampler="unigen2",
            chunk_size=4, max_deliveries=3,
        )
        real_run = dworker.run_chunk
        calls = {"n": 0}

        def oom_once(task, state):
            calls["n"] += 1
            if calls["n"] == 1:  # first attempt: worker-local failure
                return {
                    "chunk": task[0], "results": [], "stats": None,
                    "time_seconds": 0.0,
                    "error": {"type": "MemoryError", "message": "oom",
                              "traceback": "…", "retryable": True},
                }
            return real_run(task, state)

        monkeypatch.setattr(dworker, "run_chunk", oom_once)
        worker_report = run_worker(
            broker, worker_id="flaky", drain=True, sleep=_noop_sleep
        )
        assert worker_report.chunks_lost == 1  # the nacked first attempt
        assert worker_report.chunks_done == 1
        report = wait_for_report(
            broker, submitted, clock=FakeClock(), sleep=_noop_sleep
        )
        assert report.requeues == 1
        inline = sample_parallel(
            artifact, 4, config,
            ParallelSamplerConfig(jobs=1, sampler="unigen2", chunk_size=4),
        )
        assert report.witnesses == inline.witnesses

    def test_chunk_lost_raised_when_budget_burns_out(self, instance):
        cnf, config, artifact = instance
        clock = FakeClock()
        broker = InMemoryBroker(clock=clock)
        submitted = submit_job(
            broker, artifact, 8, config, sampler="unigen2",
            chunk_size=4, lease_timeout_s=5.0, max_deliveries=2,
        )
        # Two saboteur leases per delivery, never acked; the waiter's clock
        # drives expiry scans.
        def sabotage(seconds):
            while broker.lease("saboteur") is not None:
                pass
            clock.advance(max(seconds, 6.0))

        with pytest.raises(ChunkLost) as info:
            wait_for_report(
                broker, submitted, clock=clock, sleep=sabotage,
                poll_interval_s=1.0,
            )
        assert info.value.deliveries == 2
        assert info.value.chunk_index in (0, 1)


class TestChaos:
    """Failure injection: the stream must survive byte-identical."""

    def test_dropped_lease_retries_to_identical_stream(
        self, instance, reference
    ):
        """A lease that silently vanishes (worker wedged, never acks) is
        re-issued with its original seed; the merged run is bit-identical
        and passes the same uniformity gate as the reference."""
        cnf, config, artifact = instance
        clock = FakeClock()
        broker = InMemoryBroker(clock=clock)
        submitted = submit_job(
            broker, artifact, N_DRAWS, config,
            sampler="unigen2", chunk_size=48, lease_timeout_s=10.0,
        )
        victim = broker.lease("wedged-worker")  # holds chunk 0, never acks
        # A healthy worker drains everything else and goes idle.
        run_worker(
            broker,
            worker_id="healthy",
            idle_timeout_s=0.0,
            clock=clock,
            sleep=_noop_sleep,
        )
        assert len(broker.results()) == len(submitted.spec.tasks) - 1
        clock.advance(11.0)
        assert broker.requeue_expired() == [victim.chunk_index]
        with pytest.raises(LeaseExpired):  # the wedged worker's late ack
            broker.ack(victim, raw_result(victim.task))
        run_worker(
            broker,
            worker_id="healthy-2",
            idle_timeout_s=0.0,
            clock=clock,
            sleep=_noop_sleep,
        )
        report = wait_for_report(
            broker, submitted, clock=clock, sleep=_noop_sleep
        )
        assert report.witnesses == reference.witnesses
        assert report.requeues == 1
        assert report.jobs == 2  # two workers acked chunks

        svars = list(artifact.sampling_set)
        keys = [witness_key(w, svars) for w in report.witnesses]
        ref_keys = [witness_key(w, svars) for w in reference.witnesses]
        assert keys == ref_keys
        gate = uniformity_gate(keys, K_SOLUTIONS)
        assert gate.passed, gate.describe()

    def test_sigkilled_worker_mid_chunk_retries_to_identical_stream(
        self, instance, reference, tmp_path
    ):
        """The ISSUE's acceptance criterion: SIGKILL a real worker process
        mid-chunk; the retried run must produce the identical ordered
        witness stream of an uninterrupted run and pass the gate."""
        cnf, config, artifact = instance
        spool = tmp_path / "spool"
        broker = FileBroker(spool)
        submitted = submit_job(
            broker, artifact, N_DRAWS, config,
            sampler="unigen2", chunk_size=48,
            lease_timeout_s=1.0,  # fast retry of the murdered chunk
        )

        # Worker 1 acks one chunk, then SIGKILLs itself immediately after
        # leasing its second — a hard mid-chunk crash, nothing cleaned up.
        doomed = _spawn_cli_worker(spool, "--chaos-kill-after", "2")
        doomed.wait(timeout=60)
        assert doomed.returncode == -signal.SIGKILL

        crashed = broker.progress()
        assert crashed.done < len(submitted.spec.tasks)
        assert crashed.leased == 1  # the orphaned lease of the dead worker

        # Worker 2 drains the rest; the coordinator's expiry scan requeues
        # the orphaned chunk (original seed) as soon as its lease ages out.
        survivor = _spawn_cli_worker(spool, "--drain")
        try:
            report = wait_for_report(
                broker, submitted, poll_interval_s=0.05, timeout_s=60.0
            )
        finally:
            try:
                survivor.wait(timeout=60)
            except subprocess.TimeoutExpired:
                survivor.kill()
                survivor.wait()

        assert report.witnesses == reference.witnesses
        assert report.requeues >= 1

        svars = list(artifact.sampling_set)
        keys = [witness_key(w, svars) for w in report.witnesses]
        gate = uniformity_gate(keys, K_SOLUTIONS)
        assert gate.passed, gate.describe()


def _spawn_cli_worker(spool, *extra):
    """A real ``repro worker`` subprocess against ``spool``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", str(spool),
         "--poll", "0.05", *extra],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
