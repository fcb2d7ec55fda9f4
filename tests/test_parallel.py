"""The parallel sampling engine: determinism, merging, failure propagation.

The engine's headline guarantee — the acceptance criterion of this
subsystem — is **jobs-invariance**: under a fixed root seed the witness
stream is a pure function of ``(formula, sampler, config, n, chunk_size)``;
the job count, pool scheduling, and start method cannot change it.  The
regression here compares ``jobs=1`` against ``jobs=4`` draw-for-draw, not
just as multisets.
"""

import multiprocessing
import time
from collections import Counter

import pytest

from repro.api import (
    ParallelSamplerConfig,
    SamplerConfig,
    prepare,
    sample_parallel,
)
from repro.cnf import CNF, exactly_k_solutions_formula
from repro.core.base import SampleResult, SamplerStats
from repro.errors import BudgetExhausted, WorkerFailure
from repro.parallel import chunk_plan, default_chunk_size, merge_chunk_results
from repro.rng import RandomSource, derive_seed
from repro.stats import witness_key

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fake-clock injection into pool workers relies on fork "
    "inheriting monkeypatched module state",
)


def hashed_instance(k=600, n=11):
    cnf = exactly_k_solutions_formula(n, k)
    cnf.sampling_set = range(1, n + 1)
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
    never reaches — the engine must give up after ``chunk_timeout_s``."""
    time.sleep(60.0)
    raise AssertionError("the engine should have timed out this chunk")


@pytest.fixture(scope="module")
def artifact():
    """One prepared hashed-case artifact shared by the module's tests."""
    return prepare(hashed_instance(), SamplerConfig(seed=77))


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

    def test_default_chunk_size_independent_of_jobs(self):
        # The signature itself is the guarantee: jobs is not an input.
        assert default_chunk_size(1) == 1
        assert default_chunk_size(0) == 1
        assert 1 <= default_chunk_size(100) <= 16
        assert default_chunk_size(10_000) == 16


class TestJobsInvariance:
    """The determinism regression the ISSUE names."""

    def test_jobs_1_and_jobs_4_draw_the_same_witnesses(self, artifact):
        config = SamplerConfig(seed=42)
        reports = {
            jobs: sample_parallel(
                artifact,
                24,
                config,
                ParallelSamplerConfig(jobs=jobs, sampler="unigen2"),
            )
            for jobs in (1, 4)
        }
        svars = artifact.sampling_set
        multisets = {
            jobs: Counter(witness_key(w, svars) for w in r.witnesses)
            for jobs, r in reports.items()
        }
        # The ISSUE asks for order-independent multiset equality; the
        # engine actually delivers draw-for-draw identical ordered streams.
        assert multisets[1] == multisets[4]
        assert reports[1].witnesses == reports[4].witnesses
        assert reports[1].root_seed == reports[4].root_seed == 42

    def test_repeated_runs_same_seed_identical(self, artifact):
        config = SamplerConfig(seed=9)
        pconf = ParallelSamplerConfig(jobs=2, sampler="unigen")
        a = sample_parallel(artifact, 12, config, pconf)
        b = sample_parallel(artifact, 12, config, pconf)
        assert a.witnesses == b.witnesses

    def test_entropy_seeded_run_records_replayable_root(self, artifact):
        report = sample_parallel(
            artifact,
            6,
            SamplerConfig(seed=None),
            ParallelSamplerConfig(jobs=1),
        )
        replay = sample_parallel(
            artifact,
            6,
            SamplerConfig(seed=report.root_seed),
            ParallelSamplerConfig(jobs=1),
        )
        assert replay.witnesses == report.witnesses

    def test_spawn_start_method_is_also_invariant(self):
        # spawn re-imports the worker module in a fresh interpreter — the
        # harshest serialization path the engine supports.
        cnf = exactly_k_solutions_formula(6, 20)
        cnf.sampling_set = range(1, 7)
        config = SamplerConfig(seed=42)
        artifact = prepare(cnf, config)
        spawned = sample_parallel(
            artifact,
            8,
            config,
            ParallelSamplerConfig(jobs=2, start_method="spawn"),
        )
        inline = sample_parallel(
            artifact, 8, config, ParallelSamplerConfig(jobs=1)
        )
        assert spawned.witnesses == inline.witnesses

    def test_different_seeds_differ(self, artifact):
        draws = [
            sample_parallel(
                artifact, 10, SamplerConfig(seed=s), ParallelSamplerConfig()
            ).witnesses
            for s in (1, 2)
        ]
        assert draws[0] != draws[1]


class TestReportAndMerging:
    def test_report_fields_and_merged_stats(self, artifact):
        cnf = artifact.cnf
        report = sample_parallel(
            artifact,
            20,
            SamplerConfig(seed=4),
            ParallelSamplerConfig(jobs=2, sampler="unigen", chunk_size=5),
        )
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
        report = sample_parallel(
            artifact,
            10,
            SamplerConfig(seed=4),
            ParallelSamplerConfig(jobs=2, sampler="unigen"),
        )
        ok_results = [r for r in report.results if r.ok]
        assert [r.witness for r in ok_results] == report.witnesses
        for r in ok_results:
            assert r.cell_size is not None and r.hash_size is not None
            assert r.time_seconds >= 0.0

    def test_n_zero_is_an_empty_report(self, artifact):
        report = sample_parallel(
            artifact, 0, SamplerConfig(seed=1), ParallelSamplerConfig(jobs=2)
        )
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
        pconf = ParallelSamplerConfig(jobs=2, sampler="us")
        report = sample_parallel(cnf, 15, config, pconf)
        assert len(report.witnesses) == 15
        assert all(cnf.evaluate(w) for w in report.witnesses)
        serial = sample_parallel(cnf, 15, config,
                                 ParallelSamplerConfig(jobs=1, sampler="us"))
        assert serial.witnesses == report.witnesses

    def test_prepared_artifact_feeds_its_cnf_to_non_prepared_sampler(
        self, artifact
    ):
        report = sample_parallel(
            artifact,
            4,
            SamplerConfig(seed=3),
            ParallelSamplerConfig(jobs=1, sampler="uniwit"),
        )
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
            sample_parallel(
                self.unsat(),
                4,
                SamplerConfig(seed=1),
                ParallelSamplerConfig(jobs=jobs, sampler="uniwit"),
            )
        exc = info.value
        assert exc.remote_type == "UnsatisfiableError"
        assert exc.chunk_index == 0
        assert "UnsatisfiableError" in exc.remote_traceback

    def test_parent_preflight_rejects_bad_arguments_before_forking(self):
        cnf = exactly_k_solutions_formula(6, 20)
        cnf.sampling_set = range(1, 7)
        with pytest.raises(ValueError, match="xor_count"):
            sample_parallel(
                cnf,
                4,
                SamplerConfig(seed=1),
                ParallelSamplerConfig(jobs=2, sampler="xorsample"),
            )
        with pytest.raises(ValueError, match="unknown sampler"):
            sample_parallel(
                cnf,
                4,
                SamplerConfig(seed=1),
                ParallelSamplerConfig(jobs=2, sampler="bogus"),
            )

    def test_merge_enforces_the_chunk_budget_from_the_worker_clock(self):
        # Pure fake-clock test of the cap: no pools, no sleeps, no load
        # sensitivity.  A chunk whose *self-measured* time exceeds the cap
        # must fail the merge even though nobody waited on it.
        def raw(chunk, seconds):
            return {"chunk": chunk, "results": [], "stats": {},
                    "time_seconds": seconds, "error": None}

        merged = merge_chunk_results(
            [raw(0, 1.0), raw(1, 4.9)], chunk_timeout_s=5.0
        )
        assert merged.chunk_times == [1.0, 4.9]
        with pytest.raises(BudgetExhausted, match="chunk_timeout_s"):
            merge_chunk_results(
                [raw(0, 1.0), raw(1, 5.1)], chunk_timeout_s=5.0
            )

    @requires_fork
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_overrunning_chunk_raises_budget_exhausted(
        self, artifact, jobs, monkeypatch
    ):
        # jobs=1 included: a timeout must be enforceable there too (the
        # engine routes through a single-worker pool to make it so).  The
        # workers' self-measurement clock is faked to jump 10 s per
        # reading, so every chunk reports a 10 s runtime against a 5 s cap
        # while actually finishing instantly.
        monkeypatch.setattr(
            "repro.parallel.worker._monotonic", _JumpClock(step=10.0)
        )
        with pytest.raises(BudgetExhausted, match="chunk_timeout_s"):
            sample_parallel(
                artifact,
                16,
                SamplerConfig(seed=1),
                ParallelSamplerConfig(
                    jobs=jobs, sampler="unigen", chunk_timeout_s=5.0,
                    start_method="fork",
                ),
            )

    @requires_fork
    def test_fast_chunks_pass_under_the_same_cap(self, artifact, monkeypatch):
        # The control for the fake-clock plumbing: tiny self-measured
        # times sail under the identical cap.
        monkeypatch.setattr(
            "repro.parallel.worker._monotonic", _JumpClock(step=1e-6)
        )
        report = sample_parallel(
            artifact,
            8,
            SamplerConfig(seed=1),
            ParallelSamplerConfig(
                jobs=2, sampler="unigen", chunk_timeout_s=5.0,
                start_method="fork",
            ),
        )
        assert len(report.witnesses) == 8

    @requires_fork
    def test_hung_chunk_times_out_on_the_wait_side(
        self, artifact, monkeypatch
    ):
        # A chunk that genuinely hangs (a wedged BSAT call) can't report a
        # self-measured time; the engine must stop waiting after the cap
        # and terminate the pool.  Robust under load: the hang (60 s) is
        # far beyond the cap (0.5 s), so scheduling jitter can only make
        # the chunk *more* timed out.
        monkeypatch.setattr(
            "repro.execution.pool.run_pooled_chunk", _blocking_chunk
        )
        start = time.monotonic()
        with pytest.raises(BudgetExhausted, match="chunk_timeout_s"):
            sample_parallel(
                artifact,
                4,
                SamplerConfig(seed=1),
                ParallelSamplerConfig(
                    jobs=2, sampler="unigen", chunk_timeout_s=0.5,
                    start_method="fork",
                ),
            )
        assert time.monotonic() - start < 30.0  # gave up, not slept out

    def test_invalid_parallel_config_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelSamplerConfig(jobs=0)
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelSamplerConfig(chunk_size=0)
        with pytest.raises(ValueError, match="n must be"):
            sample_parallel(
                hashed_instance(), -1, SamplerConfig(seed=1)
            )

    def test_parallel_config_round_trip(self):
        pconf = ParallelSamplerConfig(jobs=3, sampler="unigen2", chunk_size=7)
        assert ParallelSamplerConfig.from_dict(pconf.to_dict()) == pconf
        # Unknown keys from future versions are ignored.
        assert ParallelSamplerConfig.from_dict({"jobs": 2, "later": 1}).jobs == 2


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

    def test_bench_throughput_runs(self, tmp_path, capsys):
        from repro.experiments.cli import main

        path = self._write(tmp_path, hashed_instance(), "f.cnf")
        assert main(["bench-throughput", str(path), "-n", "8",
                     "--jobs", "1", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "wit/s" in out and out.count("\n") >= 4
