"""Edge-coverage tests across smaller APIs: enumeration helpers, runner
options, count results, figure-1 instance override, budget variants."""

import pytest

from repro.cnf import CNF, exactly_k_solutions_formula, php
from repro.counting.types import CountResult
from repro.core import UniGen
from repro.experiments import run_figure1, run_sampler
from repro.sat import Budget, Solver, bsat, projections
from repro.suite import build, figure1_benchmark


class TestProjectionsHelper:
    def test_projections_sorted_by_var(self):
        models = [{1: True, 2: False}, {1: False, 2: False}]
        keys = projections(models, [2, 1])
        assert keys == [(1, -2), (-1, -2)]


class TestCountResult:
    def test_truthiness(self):
        assert CountResult(count=5)
        assert not CountResult(count=None)

    def test_zero_count_is_truthy(self):
        # A successful count of 0 (proven UNSAT) is not a failure.
        assert CountResult(count=0)


class TestBudgetVariants:
    def test_max_propagations_budget(self):
        result = Solver(php(7, 6), rng=1).solve(
            budget=Budget(max_propagations=10)
        )
        assert result.status == "UNKNOWN"

    def test_bsat_zero_bound_no_solver_work(self):
        cnf = CNF(3, clauses=[[1, 2]])
        result = bsat(cnf, 0)
        assert len(result.models) == 0 and not result.complete


class TestRunnerOptions:
    def test_keep_witnesses(self):
        instance = build("case121", "quick")
        m = run_sampler(
            instance,
            lambda inst: UniGen(inst.cnf, epsilon=6.0, rng=1),
            n_samples=3,
            keep_witnesses=True,
        )
        assert len(m.witnesses) == m.successes
        for witness in m.witnesses:
            assert instance.cnf.evaluate(witness)


class TestFigure1Options:
    def test_explicit_instance_and_n_samples(self):
        instance = figure1_benchmark(n_inputs=8, n_parity=3, n_gates=20,
                                     seed=4)
        result = run_figure1(instance=instance, n_samples=200, rng=5)
        assert result.n_samples == 200
        assert result.benchmark == instance.name
        assert sum(c * n for c, n in result.us_histogram.items()) == 200


class TestUniGenDegenerateWindows:
    def test_tiny_count_negative_window_indices(self):
        """If ApproxMC underestimates so q <= 3, negative i values must be
        skipped gracefully (guard in the sampling loop)."""
        cnf = exactly_k_solutions_formula(9, 70)  # just above hiThresh=62
        cnf.sampling_set = range(1, 10)
        sampler = UniGen(cnf, epsilon=6.0, rng=3)
        sampler.prepare()
        if sampler.q is not None:
            assert sampler.q - 4 <= sampler.q
        results = sampler.sample_many(20)
        good = [w for w in results if w is not None]
        for witness in good:
            assert cnf.evaluate(witness)
        assert good, "some samples must succeed near the easy boundary"

    def test_count_just_below_hithresh_is_easy(self):
        cnf = exactly_k_solutions_formula(9, 60)  # hiThresh = 62 at eps=6
        cnf.sampling_set = range(1, 10)
        sampler = UniGen(cnf, epsilon=6.0, rng=4)
        sampler.prepare()
        assert sampler._easy_witnesses is not None
        assert len(sampler._easy_witnesses) == 60
