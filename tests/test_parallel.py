"""Chunked sampling over the serial and pool backends: determinism,
merging, failure propagation.

The headline guarantee is **jobs-invariance**: under a fixed root seed the
witness stream is a pure function of ``(formula, sampler, config, n,
chunk_size)``; the job count, pool scheduling, and start method cannot
change it.  The regression here compares ``jobs=1`` against ``jobs=4``
draw-for-draw, not just as multisets.
"""

import multiprocessing
import time
from collections import Counter

import pytest

from repro.api import SamplerConfig, prepare
from repro.cnf import CNF, exactly_k_solutions_formula
from repro.core.base import SampleResult, SamplerStats
from repro.errors import BudgetExhausted, WorkerFailure
from repro.execution import PoolBackend, SerialBackend, build_plan
from repro.parallel import ChunkFold, chunk_plan, default_chunk_size
from repro.rng import RandomSource, derive_seed
from repro.stats import witness_key

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fake-clock injection into pool workers relies on fork "
    "inheriting monkeypatched module state",
)


def run(target, n, config, *, jobs=1, sampler="unigen", chunk_size=None):
    """Collect one plan on the serial backend (``jobs=1``) or the pool."""
    plan = build_plan(target, n, config, sampler=sampler,
                      chunk_size=chunk_size)
    backend = SerialBackend() if jobs == 1 else PoolBackend(jobs=jobs)
    return backend.collect(plan)


def hashed_instance(k=600, n=11):
    cnf = exactly_k_solutions_formula(n, k)
    cnf.sampling_set = range(1, n + 1)
    return cnf


def _tiny():
    """The README's six-variable example formula (easy case)."""
    cnf = CNF()
    cnf.add_clause([1, 2, 3])
    cnf.add_clause([-1, -2])
    cnf.add_clause([4, 5, 6])
    cnf.sampling_set = range(1, 7)
    return cnf


class _JumpClock:
    """A fake monotonic clock advancing ``step`` seconds per reading.

    Injected as ``repro.parallel.worker._monotonic`` so every chunk
    *measures itself* as having run ``step`` seconds — chunk-timeout
    behaviour becomes testable without wall-clock-sensitive sleeps.
    Module-level (not a closure) so forked pool workers inherit it.
    """

    def __init__(self, step: float):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _blocking_chunk(task):
    """A chunk that never finishes: the hung-BSAT stand-in for the
    wait-side timeout test.  The 60 s sleep is an upper bound the test
    never reaches — the pool must give up after ``chunk_timeout_s``."""
    time.sleep(60.0)
    raise AssertionError("the pool should have timed out this chunk")


@pytest.fixture(scope="module")
def artifact():
    """One prepared hashed-case artifact shared by the module's tests."""
    return prepare(hashed_instance(), SamplerConfig(seed=77))


@pytest.fixture(scope="module")
def case121():
    """The suite's hashed ``case121`` (as ``repro export`` writes it),
    prepared at seed 1."""
    from repro.suite import registry

    return prepare(registry.build("case121", "quick").cnf,
                   SamplerConfig(seed=1))


class TestSeedDerivation:
    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(42, 1) != derive_seed(43, 1)
        assert derive_seed(42, 1, 2) != derive_seed(42, 1, 3)

    def test_spawn_child_is_stateless(self):
        parent = RandomSource(5)
        first = parent.spawn_child(3)
        parent.bits(128)  # consuming the parent stream changes nothing
        second = parent.spawn_child(3)
        assert first.seed == second.seed
        assert parent.spawn_child(3).bits(64) == first.bits(64)

    def test_spawn_child_requires_a_seed(self):
        with pytest.raises(ValueError, match="seeded"):
            RandomSource(None).spawn_child(0)

    def test_spawn_still_draws_from_the_stream(self):
        parent = RandomSource(5)
        assert parent.spawn().seed != parent.spawn().seed


class TestChunkPlan:
    def test_pure_function_of_n_seed_and_chunk_size(self):
        assert chunk_plan(10, 3, 42, 10) == chunk_plan(10, 3, 42, 10)
        counts = [t[2] for t in chunk_plan(10, 3, 42, 10)]
        assert counts == [3, 3, 3, 1]
        seeds = [t[1] for t in chunk_plan(10, 3, 42, 10)]
        assert len(set(seeds)) == len(seeds)

    def test_default_chunk_size_independent_of_jobs(self, case121):
        # The signature itself is the guarantee: neither jobs nor the
        # backend is an input.
        assert default_chunk_size(1) == 1
        assert default_chunk_size(0) == 1
        assert 1 <= default_chunk_size(100) <= 16
        assert default_chunk_size(10_000) == 16
        assert default_chunk_size(200, 26) == 26
        # Rounded up to what one sampler instance serves without waste:
        # a whole accepted cell (⌈loThresh⌉ = 26 at ε = 6) for UniGen2 on
        # a hashed artifact, so no chunk discards part of its harvest.
        config = SamplerConfig(seed=3)
        plan = build_plan(case121, 200, config, sampler="unigen2")
        assert plan.chunk_size % 26 == 0
        assert SerialBackend().collect(plan).stats.attempts == 8
        # PAWS and US pay their count or enumeration once per instance.
        small = exactly_k_solutions_formula(6, 20)
        for name in ("paws", "us"):
            assert build_plan(small, 100, config, sampler=name).n_chunks == 1
        # The perfbench shapes keep their chunking: UniGen draws on hashed
        # artifacts, and easy-case UniGen2.
        assert build_plan(case121, 25, config).chunk_size == 1
        easy = prepare(small, config)
        assert easy.is_easy
        assert build_plan(
            easy, 6400, config, sampler="unigen2"
        ).chunk_size == 16


class TestJobsInvariance:
    """The determinism regression the ISSUE names."""

    def test_jobs_1_and_jobs_4_draw_the_same_witnesses(self, artifact):
        config = SamplerConfig(seed=42)
        reports = {
            jobs: run(artifact, 24, config, jobs=jobs, sampler="unigen2")
            for jobs in (1, 4)
        }
        svars = artifact.sampling_set
        multisets = {
            jobs: Counter(witness_key(w, svars) for w in r.witnesses)
            for jobs, r in reports.items()
        }
        # Beyond multiset equality, the backends deliver draw-for-draw
        # identical ordered streams.
        assert multisets[1] == multisets[4]
        assert reports[1].witnesses == reports[4].witnesses
        assert reports[1].root_seed == reports[4].root_seed == 42

    def test_repeated_runs_same_seed_identical(self, artifact):
        config = SamplerConfig(seed=9)
        a = run(artifact, 12, config, jobs=2)
        b = run(artifact, 12, config, jobs=2)
        assert a.witnesses == b.witnesses

    def test_entropy_seeded_run_records_replayable_root(self, artifact):
        report = run(artifact, 6, SamplerConfig(seed=None))
        replay = run(artifact, 6, SamplerConfig(seed=report.root_seed))
        assert replay.witnesses == report.witnesses

    def test_spawn_start_method_is_also_invariant(self):
        # spawn re-imports the worker module in a fresh interpreter — the
        # harshest serialization path the pool supports.
        cnf = exactly_k_solutions_formula(6, 20)
        cnf.sampling_set = range(1, 7)
        config = SamplerConfig(seed=42)
        artifact = prepare(cnf, config)
        plan = build_plan(artifact, 8, config)
        spawned = PoolBackend(jobs=2, start_method="spawn").collect(plan)
        inline = SerialBackend().collect(plan)
        assert spawned.witnesses == inline.witnesses

    def test_different_seeds_differ(self, artifact):
        draws = [
            run(artifact, 10, SamplerConfig(seed=s)).witnesses
            for s in (1, 2)
        ]
        assert draws[0] != draws[1]


class TestReportAndMerging:
    def test_report_fields_and_merged_stats(self, artifact):
        cnf = artifact.cnf
        report = run(artifact, 20, SamplerConfig(seed=4), jobs=2,
                     chunk_size=5)
        assert len(report.witnesses) == 20
        assert all(cnf.evaluate(w) for w in report.witnesses)
        assert report.n_chunks == 4 and report.chunk_size == 5
        assert len(report.chunk_times) == 4
        assert report.stats.attempts >= 20
        assert report.stats.successes == sum(
            1 for r in report.results if r.ok
        )
        assert report.witnesses_per_second > 0
        assert report.shortfall == 0
        assert "jobs=2" in report.describe()

    def test_result_stream_is_ordered_and_carries_provenance(self, artifact):
        report = run(artifact, 10, SamplerConfig(seed=4), jobs=2)
        ok_results = [r for r in report.results if r.ok]
        assert [r.witness for r in ok_results] == report.witnesses
        for r in ok_results:
            assert r.cell_size is not None and r.hash_size is not None
            assert r.time_seconds >= 0.0

    def test_n_zero_is_an_empty_report(self, artifact):
        report = run(artifact, 0, SamplerConfig(seed=1), jobs=2)
        assert report.witnesses == [] and report.n_chunks == 0
        assert report.witnesses_per_second == 0.0

    def test_sampler_stats_merge_is_fieldwise_addition(self):
        a = SamplerStats(attempts=3, successes=2, failures=1, bsat_calls=7)
        b = SamplerStats(attempts=5, successes=5, sample_time_seconds=1.5)
        total = SamplerStats.merged([a, b])
        assert total.attempts == 8
        assert total.successes == 7
        assert total.failures == 1
        assert total.bsat_calls == 7
        assert total.sample_time_seconds == pytest.approx(1.5)

    def test_sample_result_dict_round_trip(self):
        r = SampleResult({1: True, 2: False}, cell_size=9, hash_size=3,
                         time_seconds=0.25)
        back = SampleResult.from_dict(r.to_dict())
        assert back == r
        bot = SampleResult(None, time_seconds=0.1)
        assert SampleResult.from_dict(bot.to_dict()) == bot


class TestNonPreparedSamplers:
    def test_us_sampler_over_the_pool(self):
        cnf = exactly_k_solutions_formula(6, 20)
        cnf.sampling_set = range(1, 7)
        config = SamplerConfig(seed=3)
        report = run(cnf, 15, config, jobs=2, sampler="us")
        assert len(report.witnesses) == 15
        assert all(cnf.evaluate(w) for w in report.witnesses)
        serial = run(cnf, 15, config, sampler="us")
        assert serial.witnesses == report.witnesses

    def test_prepared_artifact_feeds_its_cnf_to_non_prepared_sampler(
        self, artifact
    ):
        report = run(artifact, 4, SamplerConfig(seed=3), sampler="uniwit")
        assert all(artifact.cnf.evaluate(w) for w in report.witnesses)


class TestFailurePropagation:
    def unsat(self):
        cnf = CNF()
        cnf.add_clause([1])
        cnf.add_clause([-1])
        return cnf

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_exception_surfaces_as_worker_failure(self, jobs):
        # UNSAT is only discovered at sample time for uniwit, i.e. inside
        # the worker — the parent pre-flight cannot catch it.
        with pytest.raises(WorkerFailure) as info:
            run(self.unsat(), 4, SamplerConfig(seed=1), jobs=jobs,
                sampler="uniwit")
        exc = info.value
        assert exc.remote_type == "UnsatisfiableError"
        assert exc.chunk_index == 0
        assert "UnsatisfiableError" in exc.remote_traceback

    def test_parent_preflight_rejects_bad_arguments_before_forking(self):
        cnf = exactly_k_solutions_formula(6, 20)
        cnf.sampling_set = range(1, 7)
        with pytest.raises(ValueError, match="xor_count"):
            run(cnf, 4, SamplerConfig(seed=1), jobs=2, sampler="xorsample")
        with pytest.raises(ValueError, match="unknown sampler"):
            run(cnf, 4, SamplerConfig(seed=1), jobs=2, sampler="bogus")

    def test_merge_enforces_the_chunk_budget_from_the_worker_clock(self):
        # Pure fake-clock test of the cap: no pools, no sleeps, no load
        # sensitivity.  A chunk whose *self-measured* time exceeds the cap
        # must fail the fold even though nobody waited on it.
        def raw(chunk, seconds):
            return {"chunk": chunk, "results": [], "stats": {},
                    "time_seconds": seconds, "error": None}

        fold = ChunkFold(chunk_timeout_s=5.0)
        fold.add(raw(0, 1.0))
        fold.add(raw(1, 4.9))
        assert fold.chunk_times == [1.0, 4.9]
        over = ChunkFold(chunk_timeout_s=5.0)
        over.add(raw(0, 1.0))
        with pytest.raises(BudgetExhausted, match="chunk_timeout_s"):
            over.add(raw(1, 5.1))

    @requires_fork
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_overrunning_chunk_raises_budget_exhausted(
        self, artifact, jobs, monkeypatch
    ):
        # jobs=1 included: a timeout must be enforceable on a single-
        # worker pool too.  The workers' self-measurement clock is faked to
        # jump 10 s per reading, so every chunk reports a 10 s runtime
        # against a 5 s cap while actually finishing instantly.
        monkeypatch.setattr(
            "repro.parallel.worker._monotonic", _JumpClock(step=10.0)
        )
        backend = PoolBackend(jobs=jobs, chunk_timeout_s=5.0,
                              start_method="fork")
        with pytest.raises(BudgetExhausted, match="chunk_timeout_s"):
            backend.collect(build_plan(artifact, 16, SamplerConfig(seed=1)))

    @requires_fork
    def test_fast_chunks_pass_under_the_same_cap(self, artifact, monkeypatch):
        # The control for the fake-clock plumbing: tiny self-measured
        # times sail under the identical cap.
        monkeypatch.setattr(
            "repro.parallel.worker._monotonic", _JumpClock(step=1e-6)
        )
        backend = PoolBackend(jobs=2, chunk_timeout_s=5.0,
                              start_method="fork")
        report = backend.collect(
            build_plan(artifact, 8, SamplerConfig(seed=1))
        )
        assert len(report.witnesses) == 8

    @requires_fork
    def test_hung_chunk_times_out_on_the_wait_side(
        self, artifact, monkeypatch
    ):
        # A chunk that genuinely hangs (a wedged BSAT call) can't report a
        # self-measured time; the pool must stop waiting after the cap
        # and terminate the pool.  Robust under load: the hang (60 s) is
        # far beyond the cap (0.5 s), so scheduling jitter can only make
        # the chunk *more* timed out.
        monkeypatch.setattr(
            "repro.execution.pool.run_pooled_chunk", _blocking_chunk
        )
        backend = PoolBackend(jobs=2, chunk_timeout_s=0.5,
                              start_method="fork")
        plan = build_plan(artifact, 4, SamplerConfig(seed=1))
        start = time.monotonic()
        with pytest.raises(BudgetExhausted, match="chunk_timeout_s"):
            backend.collect(plan)
        assert time.monotonic() - start < 30.0  # gave up, not slept out

    def test_invalid_parallel_config_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            PoolBackend(jobs=0)
        with pytest.raises(ValueError, match="window"):
            PoolBackend(jobs=2, window=0)
        cnf = hashed_instance()
        config = SamplerConfig(seed=1)
        for chunk_size in (0, -2):
            with pytest.raises(ValueError, match="chunk_size must be >= 1"):
                build_plan(cnf, 4, config, chunk_size=chunk_size)
        with pytest.raises(ValueError, match="max_attempts_factor"):
            build_plan(cnf, 4, config, max_attempts_factor=0)
        with pytest.raises(ValueError, match="n must be"):
            build_plan(cnf, -1, config)


class TestCliParallel:
    def _write(self, tmp_path, cnf, name):
        from repro.cnf import write_dimacs

        path = tmp_path / name
        write_dimacs(cnf, path)
        return path

    def test_sample_jobs_matches_jobs_1_output(self, tmp_path, capsys):
        from repro.experiments.cli import main

        path = self._write(tmp_path, hashed_instance(), "f.cnf")
        outputs = []
        for jobs in ("1", "2"):
            assert main(["sample", str(path), "-n", "6", "--seed", "9",
                         "--jobs", jobs, "--sampler", "unigen2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("v ") == 6

    @pytest.mark.parametrize("sampler", ["unigen", "unigen2"])
    @pytest.mark.parametrize("formula", ["case121", "tiny"])
    def test_one_stream_per_seed(self, tmp_path, capsys, case121,
                                 sampler, formula):
        """The flag-free run is the ``--jobs 1`` stream, and the pool's."""
        from repro.experiments.cli import main

        if formula == "case121":
            case121.save(tmp_path / "state.json")
            target = ["--prepared", str(tmp_path / "state.json")]
        else:
            target = [str(self._write(tmp_path, _tiny(), "tiny.cnf"))]
        outputs = []
        for extra in ([], ["--jobs", "1"], ["--jobs", "2"]):
            assert main(["sample", *target, "-n", "40", "--seed", "5",
                         "--sampler", sampler, *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].count("v ") == 40

    @pytest.mark.parametrize("formula", ["tiny", "hashed"])
    def test_entropy_run_replays_from_its_report(self, tmp_path, capsys,
                                                 formula):
        """A run without --seed records the root seed it drew, and that
        seed replays it exactly (the hashed formula is prepared under it
        too)."""
        import json

        from repro.experiments.cli import main

        cnf = _tiny() if formula == "tiny" else hashed_instance()
        path = str(self._write(tmp_path, cnf, "f.cnf"))
        report = tmp_path / "r.json"
        assert main(["sample", path, "-n", "3",
                     "--report-json", str(report)]) == 0
        first = capsys.readouterr().out
        root_seed = json.loads(report.read_text())["root_seed"]
        assert isinstance(root_seed, int)
        assert main(["sample", path, "-n", "3",
                     "--seed", str(root_seed)]) == 0
        assert capsys.readouterr().out == first
        assert first.count("v ") == 3

    @pytest.mark.parametrize("extra", [[], ["--jobs", "2"]])
    def test_unsat_reports_unsatisfiable_not_traceback(
        self, tmp_path, capsys, extra
    ):
        """UNSAT discovered at sample time (uniwit has no prepare phase)
        must exit 1 with `s UNSATISFIABLE` on both serial and pool paths."""
        from repro.experiments.cli import main

        cnf = CNF()
        cnf.add_clause([1])
        cnf.add_clause([-1])
        path = self._write(tmp_path, cnf, "unsat.cnf")
        code = main(["sample", str(path), "--sampler", "uniwit",
                     "-n", "2", "--seed", "1", *extra])
        assert code == 1
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_negative_chunk_size_exits_2(self, tmp_path, capsys):
        """A negative chunk size would cut an empty plan and deliver zero
        witnesses; the plan itself must refuse it."""
        from repro.experiments.cli import main

        path = self._write(tmp_path, hashed_instance(), "f.cnf")
        assert main(["sample", str(path), "-n", "4", "--seed", "3",
                     "--backend", "serial", "--chunk-size", "-2"]) == 2
        assert "chunk_size must be >= 1" in capsys.readouterr().err
