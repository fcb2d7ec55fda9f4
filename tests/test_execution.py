"""The streaming execution layer: one seam, three backends, one stream.

The acceptance criteria under test:

* every backend (serial / pool / broker) emits the **byte-identical**
  ordered event stream for one root seed — asserted element by element on
  ``(chunk_index, SampleResult)`` events and on the folded witness list
  against the serial backend's merged report;
* the chunk plan's windows partition ``[0, n)`` exactly once for all
  ``(n, chunk_size, window)`` (hypothesis property), so no witness is
  drawn twice or skipped no matter how the stream is windowed;
* the streaming path holds at most ``window`` chunks in the coordinator,
  asserted via an instrumented sink reading the backend's in-flight gauge
  at every event.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SamplerConfig, prepare
from repro.cnf import exactly_k_solutions_formula
from repro.core.base import SampleResult
from repro.distributed import FakeClock, InMemoryBroker, run_worker
from repro.errors import WorkerFailure
from repro.execution import (
    BrokerBackend,
    PoolBackend,
    SerialBackend,
    available_backends,
    build_plan,
    make_backend,
)
from repro.parallel import ChunkFold, chunk_plan
from repro.rng import derive_seed
from repro.stats import ProgressMeter

N_DRAWS = 48
CHUNK = 6  # → 8 chunks


def _noop_sleep(_seconds):
    pass


def _counters(stats) -> dict:
    """Stats minus the wall-clock fields (those differ run to run)."""
    out = stats.to_dict()
    out.pop("sample_time_seconds")
    out.pop("setup_time_seconds")
    return out


@pytest.fixture(scope="module")
def instance():
    cnf = exactly_k_solutions_formula(5, 8)
    cnf.sampling_set = range(1, 6)
    config = SamplerConfig(seed=2014)
    return cnf, config, prepare(cnf, config)


@pytest.fixture(scope="module")
def plan(instance):
    cnf, config, artifact = instance
    return build_plan(
        artifact, N_DRAWS, config, sampler="unigen2", chunk_size=CHUNK
    )


@pytest.fixture(scope="module")
def reference(plan):
    report = SerialBackend().collect(plan)
    assert len(report.witnesses) == N_DRAWS
    return report


def _drain_stream(backend, plan, *, window_cap=None):
    """The instrumented sink: consume events, checking the in-flight
    gauge at every single yield against the window bound."""
    events = []
    for event in backend.iter_sample_stream(plan):
        if window_cap is not None:
            assert backend.in_flight <= window_cap, (
                f"{backend.name} held {backend.in_flight} chunks, "
                f"window is {window_cap}"
            )
        events.append(event)
    return events


def _broker_backend_with_workers(n_workers=2):
    """A BrokerBackend over an InMemoryBroker served by worker threads."""
    broker = InMemoryBroker()
    backend = BrokerBackend(
        broker, poll_interval_s=0.01, timeout_s=60.0, window=3
    )

    def serve():
        run_worker(broker, drain=True, poll_interval_s=0.01)

    threads = [
        threading.Thread(target=serve, daemon=True) for _ in range(n_workers)
    ]
    return backend, threads


class TestChunkPlanPartition:
    """The determinism bedrock: the plan partitions [0, n) exactly once."""

    @given(
        n=st.integers(min_value=0, max_value=4000),
        chunk_size=st.integers(min_value=1, max_value=64),
        window=st.integers(min_value=1, max_value=32),
        root_seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_windows_partition_the_request_exactly_once(
        self, n, chunk_size, window, root_seed
    ):
        tasks = chunk_plan(n, chunk_size, root_seed, 10)
        # The chunk ranges tile [0, n): no gap, no overlap, in order.
        cursor = 0
        for index, task in enumerate(tasks):
            assert task.index == index
            assert 1 <= task.count <= chunk_size
            assert task.seed == derive_seed(root_seed, index)
            assert task.max_attempts >= task.count
            cursor += task.count
        assert cursor == n
        # A windowed consumption schedule — submit up to `window` ahead,
        # retire in order — visits every chunk exactly once, in order,
        # never holding more than `window`.
        submitted, retired = [], []
        in_flight = []
        while len(retired) < len(tasks):
            while (
                len(submitted) < len(tasks) and len(in_flight) < window
            ):
                in_flight.append(tasks[len(submitted)].index)
                submitted.append(tasks[len(submitted)].index)
            assert len(in_flight) <= window
            retired.append(in_flight.pop(0))
        assert retired == [t.index for t in tasks]
        assert sorted(set(submitted)) == submitted  # each exactly once

    @given(
        n=st.integers(min_value=1, max_value=1000),
        chunk_size=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_sibling_chunk_seeds_are_distinct(self, n, chunk_size):
        tasks = chunk_plan(n, chunk_size, 99, 10)
        seeds = [t.seed for t in tasks]
        assert len(set(seeds)) == len(seeds)


class TestBackendRegistry:
    def test_available_backends(self):
        assert available_backends() == ["broker", "pool", "serial"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("carrier-pigeon")

    def test_broker_backend_needs_a_transport(self):
        with pytest.raises(ValueError, match="broker"):
            make_backend("broker")

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            make_backend("pool", jobs=2, window=0)
        with pytest.raises(ValueError, match="jobs"):
            make_backend("pool", jobs=0)

    def test_serial_backend_rejects_a_real_window(self):
        """Serial streams one chunk at a time; a requested window must be
        refused, not silently ignored — same rule as --jobs."""
        with pytest.raises(ValueError, match="one chunk at a time"):
            make_backend("serial", window=3)
        assert make_backend("serial", window=1).resolved_window() == 1
        with pytest.raises(TypeError):
            make_backend("serial", jobs=8)


class TestStreamDeterminism:
    """serial == pool == broker, event by event, for one root seed."""

    def test_serial_stream_matches_reference(self, plan, reference):
        events = _drain_stream(SerialBackend(), plan, window_cap=1)
        witnesses = [e.result.witness for e in events if e.result.ok]
        assert witnesses == reference.witnesses
        # Events arrive in ascending chunk order.
        indices = [e.chunk_index for e in events]
        assert indices == sorted(indices)

    def test_pool_stream_matches_serial(self, plan, reference):
        backend = PoolBackend(jobs=2, window=2)
        events = _drain_stream(backend, plan, window_cap=2)
        witnesses = [e.result.witness for e in events if e.result.ok]
        assert witnesses == reference.witnesses
        assert backend.max_in_flight <= 2

    def test_broker_stream_matches_serial(self, plan, reference):
        backend, threads = _broker_backend_with_workers(2)
        # Workers poll until run_plan's submit publishes the job, then
        # drain it while the stream below consumes chunks in order.
        for thread in threads:
            thread.start()
        events = _drain_stream(backend, plan, window_cap=3)
        for thread in threads:
            thread.join(timeout=30.0)
        witnesses = [e.result.witness for e in events if e.result.ok]
        assert witnesses == reference.witnesses
        assert backend.max_in_flight <= 3

    def test_window_does_not_change_the_stream(self, plan, reference):
        for window in (1, 3, 8):
            backend = PoolBackend(jobs=2, window=window)
            events = _drain_stream(backend, plan, window_cap=window)
            witnesses = [e.result.witness for e in events if e.result.ok]
            assert witnesses == reference.witnesses, f"window={window}"

    def test_collect_equals_streaming_fold(self, plan, reference):
        report = PoolBackend(jobs=2).collect(plan)
        assert report.witnesses == reference.witnesses
        assert _counters(report.stats) == _counters(reference.stats)
        assert report.n_chunks == plan.n_chunks
        assert report.root_seed == 2014


class TestSerialIsolation:
    """Serial plans in one process never share a formula.

    The gateway runs serial groups concurrently in one process; here two
    plans for formulas with disjoint witness sets are stepped alternately
    in one thread, one witness per chunk, so every chunk after the first
    runs right after a chunk of the other plan.
    """

    N = 4

    def _plan(self, cnf, seed):
        config = SamplerConfig(seed=seed)
        artifact = prepare(cnf, config)
        return build_plan(
            artifact, self.N, config, sampler="unigen", chunk_size=1
        )

    def test_interleaved_plans_draw_from_their_own_formula(self):
        low = exactly_k_solutions_formula(5, 8)  # vars 1, 2 false
        low.sampling_set = range(1, 6)
        high = low.copy()  # the mirror image: vars 1, 2 true
        high.clauses = [
            tuple(-lit for lit in clause) for clause in low.clauses
        ]
        streams = [
            (cnf, SerialBackend().run_plan(self._plan(cnf, seed)))
            for cnf, seed in ((low, 1), (high, 2))
        ]
        checked = 0
        for _ in range(self.N):
            for cnf, stream in streams:
                raw = next(stream)
                assert raw["error"] is None, raw["error"]
                for data in raw["results"]:
                    witness = SampleResult.from_dict(data).witness
                    assert witness is not None
                    assert cnf.evaluate(witness), (cnf.name, witness)
                    checked += 1
        assert checked == 2 * self.N


class TestPreflightCost:
    def test_us_preflight_never_enumerates(self, instance, monkeypatch):
        """``build_plan``'s pre-flight US instance only sizes the chunks;
        each chunk's instance enumerates R_F once, on its first draw."""
        import repro.core.us as us

        calls = []
        real = us.enumerate_all

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(us, "enumerate_all", counting)
        cnf, config, _ = instance
        plan = build_plan(cnf, 4, config, sampler="us")
        assert calls == []
        report = SerialBackend().collect(plan)
        assert len(report.witnesses) == 4
        assert len(calls) == len(plan.tasks)


class TestStreamingStats:
    def test_stream_stats_accumulate_incrementally(self, plan, reference):
        backend = SerialBackend()
        seen_attempts = []
        for _ in backend.iter_sample_stream(plan):
            seen_attempts.append(backend.stream_stats.attempts)
        # Monotone while streaming, equal to the merge-at-end total after.
        assert seen_attempts == sorted(seen_attempts)
        assert _counters(backend.stream_stats) == _counters(reference.stats)

    def test_streaming_fold_matches_keeping_fold(self, plan):
        backend = SerialBackend()
        raws = list(backend.run_plan(plan))
        kept = ChunkFold()
        fold = ChunkFold(keep_results=False)
        for raw in raws:
            kept.add(raw)
            fold.add(raw)
        assert fold.stats.to_dict() == kept.stats.to_dict()  # same raws: exact
        assert fold.chunk_times == kept.chunk_times
        assert fold.delivered == len(kept.witnesses)
        assert fold.witnesses == []  # keep_results=False retains nothing

    def test_worker_error_raises_mid_stream(self, instance):
        from repro.cnf import CNF

        unsat = CNF()
        unsat.add_clause([1])
        unsat.add_clause([-1])
        plan = build_plan(
            unsat, 4, SamplerConfig(seed=1), sampler="uniwit", chunk_size=2
        )
        with pytest.raises(WorkerFailure) as info:
            list(SerialBackend().iter_sample_stream(plan))
        assert info.value.remote_type == "UnsatisfiableError"


class TestBrokerBackendWindow:
    def test_out_of_order_delivery_is_reordered_and_bounded(self, plan):
        """Deliver chunks to the broker in reverse; the stream must come
        out in order while the coordinator stages at most `window`."""
        broker = InMemoryBroker(clock=FakeClock())
        backend = BrokerBackend(
            broker, window=3, poll_interval_s=0.0, sleep=_noop_sleep,
            timeout_s=30.0,
        )
        backend.submit_plan(plan)
        # One inline worker computes everything up front, acking in
        # reverse chunk order — worst case for the reorder buffer.
        from repro.parallel.worker import WorkerState, run_chunk

        state = WorkerState(plan.payload)
        leases = []
        while (lease := broker.lease("adversary")) is not None:
            leases.append(lease)
        for lease in sorted(
            leases, key=lambda l: l.chunk_index, reverse=True
        ):
            broker.ack(lease, run_chunk(lease.task, state))
        raws = []
        for raw in backend.run_plan(plan):
            assert backend.in_flight <= 3
            raws.append(raw)
        indices = [raw["chunk"] for raw in raws]
        assert indices == list(range(plan.n_chunks))
        assert backend.max_in_flight <= 3

    def test_vanished_job_mid_stream_is_a_typed_error(self, plan):
        """Regression: if the job disappears under the stream (purged
        spool, reaped brokerd entry), the coordinator must raise instead
        of polling forever for chunks that can no longer arrive."""
        from repro.errors import DistributedError

        broker = InMemoryBroker(clock=FakeClock())
        backend = BrokerBackend(
            broker, poll_interval_s=0.0, sleep=_noop_sleep
        )
        backend.submit_plan(plan)
        broker.purge()
        with pytest.raises(DistributedError, match="vanished"):
            list(backend.run_plan(plan))

    def test_zero_chunk_job_completes_immediately(self, instance):
        cnf, config, artifact = instance
        plan = build_plan(artifact, 0, config, sampler="unigen2")
        assert plan.n_chunks == 0
        backend = BrokerBackend(
            InMemoryBroker(), sleep=_noop_sleep, timeout_s=5.0
        )
        assert list(backend.iter_sample_stream(plan)) == []
        assert backend.final_progress is not None


class TestProgressMeter:
    def test_emits_on_interval_with_rates_and_in_flight(self):
        clock = FakeClock()
        lines = []
        meter = ProgressMeter(
            total=100,
            interval_s=5.0,
            clock=clock,
            emit=lines.append,
            in_flight=lambda: 3,
        )
        meter.update(10)
        assert lines == []  # interval not reached
        clock.advance(5.0)
        meter.update(20)
        assert len(lines) == 1
        assert "20/100 witnesses" in lines[0]
        assert "chunks in flight" in lines[0]
        clock.advance(1.0)
        meter.update(30)
        assert len(lines) == 1  # still inside the second interval
        clock.advance(4.0)
        meter.update(40)
        assert len(lines) == 2
        meter.finish()
        assert len(lines) == 3 and "40/100" in lines[2]

    def test_open_ended_total_and_validation(self):
        clock = FakeClock()
        lines = []
        meter = ProgressMeter(
            total=None, interval_s=1.0, clock=clock, emit=lines.append
        )
        clock.advance(1.0)
        meter.update(7)
        assert "7 witnesses" in lines[0] and "/" not in lines[0].split()[2]
        with pytest.raises(ValueError, match="interval_s"):
            ProgressMeter(interval_s=0.0)


class TestBackendCli:
    """In-process `main(argv)` coverage of the --backend surface (the
    subprocess golden tests in test_cli_golden.py pin bytes; these pin
    exit codes and plumbing where coverage is actually measured)."""

    TINY = (
        "p cnf 6 3\n"
        "c ind 1 2 3 4 5 6 0\n"
        "1 2 3 0\n"
        "-1 -2 0\n"
        "4 5 6 0\n"
    )

    @pytest.fixture()
    def cnf_path(self, tmp_path):
        path = tmp_path / "tiny.cnf"
        path.write_text(self.TINY)
        return path

    def test_serial_stream_prints_v_lines(self, cnf_path, capsys):
        from repro.experiments.cli import main

        assert main(["sample", str(cnf_path), "-n", "4", "--seed", "7",
                     "--sampler", "unigen2", "--backend", "serial",
                     "--stream"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("v ") == 4
        assert "backend=serial" in captured.err

    def test_pool_backend_with_window_and_report_json(
        self, cnf_path, tmp_path, capsys
    ):
        import json

        from repro.experiments.cli import main

        report_path = tmp_path / "report.json"
        assert main(["sample", str(cnf_path), "-n", "6", "--seed", "7",
                     "--sampler", "unigen2", "--backend", "pool",
                     "--jobs", "2", "--window", "2",
                     "--report-json", str(report_path)]) == 0
        captured = capsys.readouterr()
        assert "window=2" in captured.err
        report = json.loads(report_path.read_text())
        assert report["n_delivered"] == 6 and report["jobs"] == 2

    def test_broker_backend_streams_and_purges_spool(
        self, cnf_path, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        spool = tmp_path / "spool"
        assert main(["sample", str(cnf_path), "-n", "4", "--seed", "7",
                     "--sampler", "unigen2", "--backend", "broker",
                     "--broker", str(spool), "--stream"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("v ") == 4
        assert "purged spent job state" in captured.err
        assert not spool.exists()

    def test_streaming_flags_imply_a_backend(self, cnf_path, capsys):
        from repro.experiments.cli import main

        assert main(["sample", str(cnf_path), "-n", "2", "--seed", "7",
                     "--sampler", "unigen2", "--stream"]) == 0
        assert "backend=serial" in capsys.readouterr().err
        assert main(["sample", str(cnf_path), "-n", "2", "--seed", "7",
                     "--sampler", "unigen2", "--jobs", "2",
                     "--progress", "60"]) == 0
        assert "backend=pool" in capsys.readouterr().err

    def test_backend_broker_without_target_is_an_error(
        self, cnf_path, capsys
    ):
        from repro.experiments.cli import main

        assert main(["sample", str(cnf_path), "--backend", "broker"]) == 2
        assert "--broker" in capsys.readouterr().err


    def test_jobs_zero_with_stream_is_rejected_like_classic(self, cnf_path, capsys):
        """Regression: the --stream auto-pick must not silently map
        --jobs 0 to inline sampling; it routes to the pool, which
        rejects it exactly like the classic --jobs path."""
        from repro.experiments.cli import main

        assert main(["sample", str(cnf_path), "-n", "2", "--stream",
                     "--jobs", "0"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err


    def test_serial_backend_rejects_explicit_jobs(self, cnf_path, capsys):
        """Regression: --backend serial must not silently ignore a
        requested job count (parallelism the user believes they got)."""
        from repro.experiments.cli import main

        assert main(["sample", str(cnf_path), "-n", "2", "--backend",
                     "serial", "--jobs", "8"]) == 2
        assert "conflicts with --backend serial" in capsys.readouterr().err
        assert main(["sample", str(cnf_path), "-n", "2", "--backend",
                     "serial", "--jobs", "1", "--seed", "7"]) == 0
        capsys.readouterr()

    def test_pool_backend_rejects_jobs_zero(self, cnf_path, capsys):
        """--jobs 0 means 'external workers' only on the broker path; the
        pool must reject it, not silently fork a default-sized pool."""
        from repro.experiments.cli import main

        assert main(["sample", str(cnf_path), "--backend", "pool",
                     "--jobs", "0"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_broker_target_conflicts_with_other_backends(
        self, cnf_path, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        assert main(["sample", str(cnf_path), "--backend", "pool",
                     "--broker", str(tmp_path / "s")]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_unsat_exits_1_on_the_backend_path(self, tmp_path, capsys):
        from repro.experiments.cli import main

        unsat = tmp_path / "unsat.cnf"
        unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main(["sample", str(unsat), "--backend", "serial",
                     "--stream", "--sampler", "uniwit"]) == 1
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_unsat_us_exits_1_when_its_chunk_enumerates(
        self, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        unsat = tmp_path / "unsat.cnf"
        unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main(["sample", str(unsat), "--sampler", "us", "-n", "2"]) == 1
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_worker_command_over_tcp(self, cnf_path, capsys):
        from repro.cnf import read_dimacs
        from repro.distributed import BrokerServer, TcpBroker
        from repro.experiments.cli import main

        with BrokerServer().start() as server:
            coordinator = TcpBroker(*server.address)
            plan = build_plan(read_dimacs(cnf_path), 4, SamplerConfig(seed=7),
                              sampler="us", chunk_size=2)
            BrokerBackend(coordinator).submit_plan(plan)
            assert main(["worker", server.url, "--drain",
                         "--poll", "0.01"]) == 0
            assert coordinator.is_complete()
            coordinator.close()
        assert "chunks acked" in capsys.readouterr().err

    def test_broker_command_purge_flag(self, cnf_path, tmp_path, capsys):
        from repro.experiments.cli import main

        spool = tmp_path / "spool-cmd"
        assert main(["broker", str(spool), str(cnf_path), "-n", "4",
                     "--seed", "7", "--sampler", "unigen2",
                     "--workers", "2", "--poll", "0.05",
                     "--timeout", "90", "--purge"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("v ") == 4
        assert "purged spent job state" in captured.err
        assert not spool.exists()

    def test_broker_command_keeps_spent_job_without_purge(
        self, cnf_path, tmp_path, capsys
    ):
        """`repro broker` purges only under --purge: without it the spent
        job stays on the spool, complete, for external workers to see."""
        from repro.distributed import FileBroker
        from repro.experiments.cli import main

        spool = tmp_path / "spool-kept"
        assert main(["broker", str(spool), str(cnf_path), "-n", "4",
                     "--seed", "7", "--sampler", "unigen2",
                     "--workers", "2", "--poll", "0.05",
                     "--timeout", "90"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("v ") == 4
        assert "purged" not in captured.err
        broker = FileBroker(spool)
        assert broker.job() is not None
        assert broker.is_complete()
