"""The sink layer: online/offline equivalence, early abort, composition.

The acceptance criteria under test:

* **online/offline equivalence** — feeding any permutation of a chunk
  stream through ``OnlineUniformityGate`` + ``StatsFold`` yields the
  byte-identical verdict and ``SamplerStats`` as the offline
  ``uniformity_gate`` / stats merge over the materialized in-order list
  (hypothesis property over synthetic chunk streams, plus a real-plan
  run);
* **early abort** — a deliberately biased sampler trips the gate mid-run
  on every backend; the pool's in-flight chunks die with the closed
  stream, the broker's job is purged (pending chunks nacked back into the
  void, drain workers exit), and the partial JSONL written so far is
  well-formed;
* **empty-part regressions** — ``SamplerStats.merged``, ``ChunkFold``,
  and every sink finalize cleanly over a zero-chunk plan.
"""

import json
import multiprocessing
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SamplerConfig, prepare
from repro.api.registry import _REGISTRY, register_sampler
from repro.cnf import exactly_k_solutions_formula
from repro.core.base import (
    SampleResult,
    SamplerStats,
    WitnessSampler,
    lits_to_witness,
    witness_to_lits,
)
from repro.distributed import InMemoryBroker, run_worker
from repro.errors import GateTripped
from repro.execution import (
    BrokerBackend,
    PoolBackend,
    SerialBackend,
    build_plan,
)
from repro.parallel import ChunkFold
from repro.sinks import (
    CompositeSink,
    DimacsWitnessWriter,
    JsonlWitnessWriter,
    OnlineUniformityGate,
    StatsFold,
    StreamSink,
    compose,
    run_stream,
)
from repro.stats import (
    uniformity_gate,
    uniformity_gate_from_counts,
    witness_key,
)

N_DRAWS = 48
CHUNK = 6
UNIVERSE = 8

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def instance():
    cnf = exactly_k_solutions_formula(5, UNIVERSE)
    cnf.sampling_set = range(1, 6)
    config = SamplerConfig(seed=2014)
    return cnf, config, prepare(cnf, config)


@pytest.fixture(scope="module")
def plan(instance):
    cnf, config, artifact = instance
    return build_plan(
        artifact, N_DRAWS, config, sampler="unigen2", chunk_size=CHUNK
    )


class ListSink(StreamSink):
    """Test helper: materialize the stream (exactly what sinks avoid)."""

    name = "list"

    def __init__(self):
        self.events = []
        self.chunks = []
        self.closed = 0

    def on_chunk(self, chunk_index, raw):
        self.chunks.append(chunk_index)

    def accept(self, chunk_index, result):
        self.events.append((chunk_index, result))

    def finalize(self):
        return self.events

    def close(self):
        self.closed += 1


# ----------------------------------------------------------------------
# Synthetic chunk streams for the permutation property.
# ----------------------------------------------------------------------

def _witness(key: int) -> dict:
    """Key 0..7 -> a distinct witness over variables 1..3."""
    return {v + 1: bool((key >> v) & 1) for v in range(3)}


def _raw_chunk(index: int, keys: list, fail_every: int = 0) -> dict:
    """A synthetic raw chunk dict shaped like run_chunk's output.

    Times are exact dyadic floats, so stats sums are order-independent
    down to the last bit — what lets the permutation property demand
    byte-identical ``SamplerStats``.
    """
    results = []
    for i, key in enumerate(keys):
        failed = fail_every and (i % fail_every == fail_every - 1)
        results.append(
            SampleResult(
                witness=None if failed else _witness(key),
                time_seconds=(1 + i % 4) / 1024.0,
            ).to_dict()
        )
    successes = sum(1 for r in results if r["witness"] is not None)
    return {
        "chunk": index,
        "results": results,
        "stats": {
            "attempts": len(results),
            "successes": successes,
            "failures": len(results) - successes,
            "bsat_calls": 2 * len(results),
            "sample_time_seconds": sum(
                r["time_seconds"] for r in results
            ),
        },
        "time_seconds": (1 + index % 8) / 256.0,
        "error": None,
    }


def _feed(sink: StreamSink, raws: list) -> None:
    """Drive a sink exactly like the stream driver does, chunk by chunk."""
    for raw in raws:
        sink.on_chunk(raw["chunk"], raw)
        for r in raw["results"]:
            sink.accept(raw["chunk"], SampleResult.from_dict(r))


class TestOnlineOfflineEquivalence:
    """Same counts ⇒ same verdict, byte for byte — the load-bearing one."""

    @given(
        chunks=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=UNIVERSE - 1),
                min_size=1,
                max_size=12,
            ),
            min_size=0,
            max_size=8,
        ),
        fail_every=st.sampled_from([0, 3]),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_permutation_matches_the_offline_verdict(
        self, chunks, fail_every, data
    ):
        raws = [
            _raw_chunk(i, keys, fail_every) for i, keys in enumerate(chunks)
        ]
        permuted = data.draw(st.permutations(raws))

        gate = OnlineUniformityGate(UNIVERSE, check_every=10**9)
        fold = StatsFold()
        _feed(compose(gate, fold), permuted)

        # Offline: materialize the in-order stream, then gate + merge.
        # Serialized witnesses are signed-literal lists — tuple them into
        # exactly the key the gate's default projection produces.
        draws = [
            tuple(r["witness"])
            for raw in raws
            for r in raw["results"]
            if r["witness"] is not None
        ]
        offline = uniformity_gate(draws, UNIVERSE)
        online = gate.finalize()
        assert online == offline  # dataclass equality: every float, exact

        offline_stats = SamplerStats.merged(
            SamplerStats.from_dict(raw["stats"]) for raw in raws
        )
        assert fold.finalize().to_dict() == offline_stats.to_dict()
        assert fold.fold.n_chunks == len(raws)

    def test_real_plan_equivalence_on_one_run(self, instance, plan):
        cnf, config, artifact = instance
        svars = artifact.sampling_set
        backend = SerialBackend()
        gate = OnlineUniformityGate(
            UNIVERSE, key=lambda w: witness_key(w, svars), check_every=16
        )
        fold = StatsFold()
        keeper = ListSink()
        verdict, stats, events = run_stream(backend, plan, gate, fold, keeper)

        keys = [
            witness_key(r.witness, svars) for _, r in events if r.ok
        ]
        assert len(keys) == N_DRAWS
        offline = uniformity_gate(keys, UNIVERSE)
        assert verdict == offline
        # Same run, same raws: the sink fold and the backend fold agree
        # on every field, wall-clock floats included.
        assert stats.to_dict() == backend.stream_stats.to_dict()
        assert keeper.closed == 1  # close always runs

    def test_gate_counts_stay_o_universe(self, plan, instance):
        cnf, config, artifact = instance
        gate = OnlineUniformityGate(
            UNIVERSE,
            key=lambda w: witness_key(w, artifact.sampling_set),
            check_every=10**9,
        )
        run_stream(SerialBackend(), plan, gate)
        assert gate.n_draws == N_DRAWS
        assert len(gate.counts) <= UNIVERSE


class TestSinkComposition:
    def test_compose_single_sink_is_itself(self):
        sink = ListSink()
        assert compose(sink) is sink

    def test_compose_empty_finalizes_to_empty_list(self):
        sink = compose()
        assert isinstance(sink, CompositeSink)
        assert sink.finalize() == []

    def test_composite_preserves_order_and_closes_all(self):
        first, second = ListSink(), ListSink()
        composite = compose(first, second)
        composite.accept(0, SampleResult(witness={1: True}))
        assert composite.finalize() == [first.events, second.events]
        composite.close()
        assert first.closed == second.closed == 1

    def test_composite_close_survives_a_raising_member(self):
        class Bad(ListSink):
            def close(self):
                super().close()
                raise OSError("disk gone")

        bad, good = Bad(), ListSink()
        with pytest.raises(OSError, match="disk gone"):
            compose(bad, good).close()
        assert good.closed == 1  # the raiser did not mask the sibling


class TestOnlineGateSequential:
    def _biased_result(self):
        return SampleResult(witness={1: True, 2: True, 3: True})

    def test_trips_after_warmup_with_context(self):
        gate = OnlineUniformityGate(
            UNIVERSE, check_every=4, min_expected=5.0
        )
        with pytest.raises(GateTripped) as info:
            for i in range(10_000):
                gate.accept(i // CHUNK, self._biased_result())
        trip = info.value
        # Warm-up is 5 * 8 = 40 draws; cadence 4 checks right at 40.
        assert trip.n_draws == 40
        assert trip.chunk_index == 39 // CHUNK
        assert not trip.report.passed
        assert gate.checks_run == 1

    def test_warmup_suppresses_early_noise(self):
        gate = OnlineUniformityGate(UNIVERSE, check_every=1)
        # 239 maximally biased draws: below the default 30×8 warm-up, no
        # check may run, however alarming the counts look.
        for i in range(239):
            gate.accept(0, self._biased_result())
        assert gate.checks_run == 0
        assert not gate.finalize().passed  # the verdict itself still fails

    def test_failed_draws_do_not_count(self):
        gate = OnlineUniformityGate(UNIVERSE, check_every=1, min_expected=0)
        gate.accept(0, SampleResult(witness=None))
        assert gate.n_draws == 0 and not gate.counts

    def test_validation(self):
        with pytest.raises(ValueError, match="universe"):
            OnlineUniformityGate(1)
        with pytest.raises(ValueError, match="check_every"):
            OnlineUniformityGate(8, check_every=0)
        with pytest.raises(ValueError, match="min_expected"):
            OnlineUniformityGate(8, min_expected=-1)


class TestWriters:
    def _results(self, n):
        return [
            SampleResult(witness=_witness(i % UNIVERSE)) for i in range(n)
        ]

    def test_jsonl_round_trips(self, tmp_path):
        path = tmp_path / "w.jsonl"
        writer = JsonlWitnessWriter(path)
        for i, result in enumerate(self._results(5)):
            writer.accept(i, result)
        writer.accept(5, SampleResult(witness=None))  # ⊥ is not a record
        manifest = writer.finalize()
        assert manifest == {"path": str(path), "written": 5}
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        record = json.loads(lines[2])
        assert record["chunk"] == 2
        assert lits_to_witness(record["witness"]) == _witness(2)

    def test_dimacs_writer_prints_v_lines(self, tmp_path):
        path = tmp_path / "w.txt"
        writer = DimacsWitnessWriter(path)
        writer.accept(0, SampleResult(witness={2: False, 1: True}))
        writer.accept(0, SampleResult(witness={2: True, 1: True}))
        writer.accept(1, SampleResult(witness={2: False, 1: False}))
        writer.finalize()
        # One `c chunk K` marker ahead of each chunk's first witness —
        # the structure the resume scan attributes v lines with.
        assert path.read_text() == (
            "c chunk 0\nv 1 -2 0\nv 1 2 0\nc chunk 1\nv -1 -2 0\n"
        )

    def test_accept_after_close_is_an_error(self, tmp_path):
        writer = JsonlWitnessWriter(tmp_path / "w.jsonl")
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            writer.accept(0, self._results(1)[0])

    def test_flush_every_validation(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            JsonlWitnessWriter(tmp_path / "w.jsonl", flush_every=0)


# ----------------------------------------------------------------------
# The deliberately biased sampler, registered like any other algorithm so
# every backend (including pool workers, via fork) can run it by name.
# ----------------------------------------------------------------------

BIASED_NAME = "biasedfixture"


class _BiasedSampler(WitnessSampler):
    """Always draws the same witness: maximal bias, trips any gate."""

    name = BIASED_NAME

    def __init__(self, num_vars: int):
        super().__init__()
        self._fixed = {v: True for v in range(1, num_vars + 1)}

    def _sample_once(self):
        return dict(self._fixed)


@pytest.fixture(scope="module")
def biased_sampler():
    if BIASED_NAME not in _REGISTRY:
        @register_sampler(BIASED_NAME, summary="test-only: maximally biased")
        def _make_biased(cnf, config, prepared, rng):
            return _BiasedSampler(cnf.num_vars)

    yield BIASED_NAME
    _REGISTRY.pop(BIASED_NAME, None)


class SlowSink(StreamSink):
    """Instrumentation: dawdle per draw so producers race ahead, and
    record the backend's in-flight gauge at every event."""

    name = "slow"

    def __init__(self, backend, delay_s=0.002):
        self.backend = backend
        self.delay_s = delay_s
        self.in_flight_seen = []

    def accept(self, chunk_index, result):
        self.in_flight_seen.append(self.backend.in_flight)
        time.sleep(self.delay_s)


class TestEarlyAbortChaos:
    """The gate trips mid-run on every backend; nothing keeps running."""

    N = 240
    CHUNK = 8  # → 30 chunks; warm-up 5×8=40 draws → trips in chunk 4

    @pytest.fixture(scope="class")
    def biased_plan(self, biased_sampler):
        cnf = exactly_k_solutions_formula(5, UNIVERSE)
        cnf.sampling_set = range(1, 6)
        return build_plan(
            cnf,
            self.N,
            SamplerConfig(seed=11),
            sampler=biased_sampler,
            chunk_size=self.CHUNK,
        )

    def _gate(self):
        return OnlineUniformityGate(
            UNIVERSE, check_every=8, min_expected=5.0
        )

    def _assert_partial_jsonl(self, path, expected_lines):
        text = path.read_text()
        assert text.endswith("\n")  # no truncated final record
        lines = text.splitlines()
        assert len(lines) == expected_lines
        for line in lines:
            record = json.loads(line)  # every line parses
            assert lits_to_witness(record["witness"])

    def test_serial_backend_aborts_early(self, biased_plan, tmp_path):
        backend = SerialBackend()
        gate, writer = self._gate(), JsonlWitnessWriter(tmp_path / "w.jsonl")
        with pytest.raises(GateTripped) as info:
            run_stream(backend, biased_plan, gate, writer)
        assert backend.cancelled
        assert backend.fold.n_chunks < biased_plan.n_chunks
        # The gate sits ahead of the writer in the composition, so the
        # tripping draw itself never reaches the file: every draw the
        # gate counted *before* the trip is on disk, none after.
        self._assert_partial_jsonl(
            tmp_path / "w.jsonl", info.value.n_draws - 1
        )

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_pool_backend_cancels_in_flight_chunks(
        self, biased_plan, tmp_path
    ):
        backend = PoolBackend(jobs=2, window=4, start_method="fork")
        gate = self._gate()
        slow = SlowSink(backend)
        writer = JsonlWitnessWriter(tmp_path / "w.jsonl")
        with pytest.raises(GateTripped):
            run_stream(backend, biased_plan, gate, slow, writer)
        assert backend.cancelled
        consumed = backend.fold.n_chunks
        assert consumed < biased_plan.n_chunks
        # The slow sink let workers race ahead: chunks really were in
        # flight when the gate tripped, and the closed stream tore down
        # the pool that was computing them.
        assert max(slow.in_flight_seen) >= 1
        self._assert_partial_jsonl(tmp_path / "w.jsonl", gate.n_draws - 1)

    def test_broker_backend_purges_job_and_workers_exit(
        self, biased_plan, tmp_path
    ):
        broker = InMemoryBroker()
        backend = BrokerBackend(
            broker, window=4, poll_interval_s=0.005, timeout_s=60.0
        )
        reports = []

        def serve():
            reports.append(
                run_worker(broker, drain=True, poll_interval_s=0.005)
            )

        threads = [
            threading.Thread(target=serve, daemon=True) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        gate = self._gate()
        writer = JsonlWitnessWriter(tmp_path / "w.jsonl")
        with pytest.raises(GateTripped):
            run_stream(backend, biased_plan, gate, writer)
        assert backend.cancelled
        # The purge IS the nack-back: the job is gone, pending chunks
        # will never be leased again, straggler acks are fenced out, and
        # drain workers observe the vanished job and exit.
        assert broker.job() is None
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert backend.fold.n_chunks < biased_plan.n_chunks
        self._assert_partial_jsonl(tmp_path / "w.jsonl", gate.n_draws - 1)


class TestRunStreamErrorCancellation:
    """Regression: *any* mid-stream failure cancels the run — not only a
    tripped gate.  A sink that dies (full disk) or a misconfigured gate
    (ValueError) must never leave a brokered job wedging its spool."""

    class Boom(StreamSink):
        name = "boom"

        def __init__(self, after: int):
            self.after = after
            self.seen = 0

        def accept(self, chunk_index, result):
            self.seen += 1
            if self.seen > self.after:
                raise OSError("disk full")

    def test_sink_error_cancels_the_serial_backend(self, plan):
        backend = SerialBackend()
        with pytest.raises(OSError, match="disk full"):
            run_stream(backend, plan, self.Boom(after=CHUNK))
        assert backend.cancelled
        assert backend.fold.n_chunks < plan.n_chunks

    def test_sink_error_purges_the_brokered_job(self, plan):
        broker = InMemoryBroker()
        backend = BrokerBackend(
            broker, window=2, poll_interval_s=0.005, timeout_s=60.0
        )
        thread = threading.Thread(
            target=lambda: run_worker(
                broker, drain=True, poll_interval_s=0.005
            ),
            daemon=True,
        )
        thread.start()
        with pytest.raises(OSError, match="disk full"):
            run_stream(backend, plan, self.Boom(after=CHUNK))
        assert backend.cancelled
        # The dead run must not wedge the spool: the job is purged, a new
        # submit goes straight through, and the drain worker exits.
        assert broker.job() is None
        thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_undersized_gate_universe_is_a_config_error_that_cancels(
        self, instance, plan
    ):
        cnf, config, artifact = instance
        backend = SerialBackend()
        # The true universe is 8; by the first check (24 draws in) the
        # observed support has outgrown the configured 4, so the counts
        # core rejects the configuration itself — a ValueError, not a
        # GateTripped verdict — and the run is still cancelled.
        gate = OnlineUniformityGate(
            4,
            key=lambda w: witness_key(w, artifact.sampling_set),
            check_every=24,
            min_expected=0,
        )
        with pytest.raises(ValueError, match="smaller than observed"):
            run_stream(backend, plan, gate)
        assert backend.cancelled


class TestEmptyPartsRegressions:
    """Zero chunks, zero parts, zero draws: everything merges to empty."""

    def test_sampler_stats_merged_accepts_empty_parts(self):
        assert SamplerStats.merged([]).to_dict() == SamplerStats().to_dict()
        assert SamplerStats.merged(iter([])).attempts == 0
        assert SamplerStats.merged([None, None]).attempts == 0

    def test_chunk_fold_accepts_zero_chunks(self):
        fold = ChunkFold()
        assert fold.witnesses == [] and fold.results == []
        assert fold.stats.to_dict() == SamplerStats().to_dict()
        assert fold.chunk_times == [] and fold.n_chunks == 0

    def test_zero_chunk_plan_on_serial_and_pool(self, instance):
        cnf, config, artifact = instance
        plan = build_plan(artifact, 0, config, sampler="unigen2")
        assert plan.n_chunks == 0
        for backend in (SerialBackend(), PoolBackend(jobs=2)):
            report = backend.collect(plan)
            assert report.witnesses == [] and report.n_chunks == 0
            assert report.stats.attempts == 0
            assert "0/0 witnesses" in report.describe()
            assert report.to_dict()["n_delivered"] == 0

    def test_zero_chunk_pool_never_forks(self, instance, monkeypatch):
        cnf, config, artifact = instance
        plan = build_plan(artifact, 0, config, sampler="unigen2")

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool created for a zero-chunk plan")

        monkeypatch.setattr(multiprocessing, "get_context", boom)
        assert list(PoolBackend(jobs=2).run_plan(plan)) == []

    def test_sinks_finalize_over_an_empty_stream(self, instance):
        cnf, config, artifact = instance
        plan = build_plan(artifact, 0, config, sampler="unigen2")
        gate = OnlineUniformityGate(UNIVERSE)
        fold = StatsFold()
        verdict, stats = run_stream(SerialBackend(), plan, gate, fold)
        assert verdict == uniformity_gate([], UNIVERSE)
        assert verdict == uniformity_gate_from_counts({}, UNIVERSE)
        assert not verdict.passed  # zero coverage cannot pass the ratio
        assert stats.to_dict() == SamplerStats().to_dict()


class TestSinkCli:
    """In-process `main(argv)` coverage of --gate-online / --out."""

    TINY = (
        "p cnf 6 3\n"
        "c ind 1 2 3 4 5 6 0\n"
        "1 2 3 0\n"
        "-1 -2 0\n"
        "4 5 6 0\n"
    )
    TINY_UNIVERSE = 35  # 5 (vars 1-3) × 7 (vars 4-6) satisfying patterns

    @pytest.fixture()
    def cnf_path(self, tmp_path):
        path = tmp_path / "tiny.cnf"
        path.write_text(self.TINY)
        return path

    def test_passing_gate_exits_zero(self, cnf_path, tmp_path, capsys):
        from repro.experiments.cli import main

        out = tmp_path / "w.jsonl"
        assert main(["sample", str(cnf_path), "-n", "1400", "--seed", "7",
                     "--sampler", "unigen2", "--gate-online",
                     "--gate-universe", str(self.TINY_UNIVERSE),
                     "--gate-every", "200", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "c gate: PASS" in captured.err
        assert "v " not in captured.out  # --out diverts the witnesses
        assert len(out.read_text().splitlines()) == 1400

    def test_undersampled_gate_fails_with_exit_3(self, cnf_path, capsys):
        from repro.experiments.cli import main

        # 16 draws over a 35-witness universe cannot cover it: the ratio
        # check fails deterministically on completion.
        assert main(["sample", str(cnf_path), "-n", "16", "--seed", "7",
                     "--sampler", "unigen2", "--gate-online",
                     "--gate-universe", str(self.TINY_UNIVERSE)]) == 3
        assert "c gate: FAIL" in capsys.readouterr().err

    def test_biased_sampler_trips_gate_mid_run(
        self, cnf_path, tmp_path, biased_sampler, capsys
    ):
        from repro.experiments.cli import main

        out = tmp_path / "partial.jsonl"
        code = main(["sample", str(cnf_path), "-n", "960", "--seed", "7",
                     "--sampler", biased_sampler, "--gate-online",
                     "--gate-universe", "8", "--gate-every", "8",
                     "--chunk-size", "8", "--backend", "serial",
                     "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert "TRIPPED" in captured.err
        assert "aborted early" in captured.err
        lines = out.read_text().splitlines()
        # The default warm-up is 30×8=240 draws, so the first sequential
        # check trips there — and the writer (composed ahead of the gate)
        # recorded exactly the draws the tripped verdict was computed on.
        assert len(lines) == 240
        for line in lines:
            json.loads(line)

    def test_gate_universe_defaults_from_prepared_artifact(
        self, cnf_path, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        state = tmp_path / "state.json"
        assert main(["prepare", str(cnf_path), "--out", str(state)]) == 0
        capsys.readouterr()
        # Undersampled again — the point is the implicit universe (the
        # artifact's easy-case list) reaching the gate: dof = |R_F| - 1.
        code = main(["sample", "--prepared", str(state), "-n", "16",
                     "--seed", "7", "--sampler", "unigen2",
                     "--gate-online"])
        captured = capsys.readouterr()
        assert code == 3
        assert f"dof={self.TINY_UNIVERSE - 1}" in captured.err

    def test_gate_without_universe_on_raw_cnf_is_an_error(
        self, cnf_path, capsys
    ):
        from repro.experiments.cli import main

        assert main(["sample", str(cnf_path), "-n", "4",
                     "--gate-online"]) == 2
        assert "--gate-universe" in capsys.readouterr().err

    def test_hashed_artifact_does_not_supply_an_implicit_universe(
        self, tmp_path, capsys
    ):
        """Regression: the ApproxMC estimate is (1±ε)-approximate — an
        undercount would make the gate reject the run as misconfigured
        ("universe smaller than observed support") after doing all the
        work, so a hashed artifact must demand an explicit value."""
        from repro.cnf import exactly_k_solutions_formula, write_dimacs
        from repro.experiments.cli import main

        cnf = exactly_k_solutions_formula(11, 600)
        cnf.sampling_set = range(1, 12)
        cnf_path = tmp_path / "hashed.cnf"
        write_dimacs(cnf, cnf_path)
        state = tmp_path / "state.json"
        assert main(["prepare", str(cnf_path), "--out", str(state),
                     "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["sample", "--prepared", str(state), "-n", "4",
                     "--seed", "2", "--sampler", "unigen2",
                     "--gate-online"]) == 2
        err = capsys.readouterr().err
        assert "--gate-universe" in err and "ApproxMC" in err

    def test_bad_gate_cadence_is_an_error(self, cnf_path, capsys):
        from repro.experiments.cli import main

        assert main(["sample", str(cnf_path), "-n", "4", "--gate-online",
                     "--gate-universe", "8", "--gate-every", "0"]) == 2
        assert "check_every" in capsys.readouterr().err

    def test_out_without_gate_writes_dimacs_lines(
        self, cnf_path, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        out = tmp_path / "w.txt"
        assert main(["sample", str(cnf_path), "-n", "4", "--seed", "7",
                     "--sampler", "unigen2", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "v " not in captured.out
        lines = out.read_text().splitlines()
        witnesses = [l for l in lines if not l.startswith("c ")]
        assert len(witnesses) == 4
        assert all(
            l.startswith("v ") and l.endswith(" 0") for l in witnesses
        )
        # Chunk markers interleave the v lines (resume structure).
        assert lines[0].startswith("c chunk ")
