"""ApproxMC tests: parameter math, tolerance, both search modes."""

import math

import pytest

from repro.cnf import CNF, exactly_k_solutions_formula, random_ksat
from repro.counting import (
    ApproxMC,
    approx_count,
    approxmc_iterations,
    approxmc_pivot,
)
from repro.errors import ToleranceError
from repro.sat.brute import count_models


class TestParameters:
    def test_pivot_formula(self):
        # 2 * ceil(e^1.5 * (1 + 1/0.8)^2) per CP'13
        expected = 2 * math.ceil(math.exp(1.5) * (1 + 1 / 0.8) ** 2)
        assert approxmc_pivot(0.8) == expected

    def test_pivot_decreases_with_epsilon(self):
        assert approxmc_pivot(0.3) > approxmc_pivot(0.8) > approxmc_pivot(3.0)

    def test_pivot_rejects_nonpositive(self):
        with pytest.raises(ToleranceError):
            approxmc_pivot(0.0)

    def test_iterations_formula(self):
        assert approxmc_iterations(0.2) == math.ceil(35 * math.log2(15))

    def test_iterations_rejects_bad_delta(self):
        with pytest.raises(ToleranceError):
            approxmc_iterations(0.0)
        with pytest.raises(ToleranceError):
            approxmc_iterations(1.0)

    def test_bad_iterations(self):
        with pytest.raises(ToleranceError):
            ApproxMC(CNF(1), iterations=0)


class TestExactShortcut:
    def test_small_formula_counted_exactly(self):
        cnf = CNF(2, clauses=[[1, 2]])
        result = approx_count(cnf, iterations=3, rng=1)
        assert result.exact
        assert result.count == 3

    def test_counts_are_projected_on_support(self):
        """ApproxMC counts witnesses distinct on the sampling set (here the
        syntactic support {1,2}); the free variable 3 does not double it."""
        cnf = CNF(3, clauses=[[1, 2]])
        result = approx_count(cnf, iterations=3, rng=1)
        assert result.count == 3

    def test_explicit_sampling_set_counts_full_space(self):
        cnf = CNF(3, clauses=[[1, 2]])
        cnf.sampling_set = [1, 2, 3]
        result = approx_count(cnf, iterations=3, rng=1)
        assert result.count == 6

    def test_unsat_counts_zero(self):
        cnf = CNF(1, clauses=[[1], [-1]])
        result = approx_count(cnf, iterations=3, rng=1)
        assert result.count == 0
        assert result.exact


class TestTolerance:
    @pytest.mark.parametrize("true_count", [200, 1000, 3000])
    def test_estimate_within_tolerance(self, true_count):
        cnf = exactly_k_solutions_formula(12, true_count)
        cnf.sampling_set = range(1, 13)
        result = approx_count(cnf, iterations=5, rng=42)
        assert result.count is not None
        assert true_count / 1.8 <= result.count <= 1.8 * true_count

    @pytest.mark.parametrize("seed", range(5))
    def test_random_formulas_within_tolerance(self, seed):
        cnf = random_ksat(10, 20, 3, rng=seed)
        true_count = count_models(cnf)
        if true_count == 0:
            return
        result = approx_count(cnf, iterations=5, rng=seed)
        assert result.count is not None
        assert true_count / 1.8 <= result.count <= 1.8 * true_count

    def test_confidence_over_many_seeds(self):
        """Empirical confidence must clear the 0.8 Lemma 3 needs (we demand
        substantially more since UniGen leans on it)."""
        true_count = 600
        cnf = exactly_k_solutions_formula(11, true_count)
        cnf.sampling_set = range(1, 12)
        hits = 0
        trials = 20
        for seed in range(trials):
            result = approx_count(cnf, iterations=5, rng=seed)
            if (
                result.count is not None
                and true_count / 1.8 <= result.count <= 1.8 * true_count
            ):
                hits += 1
        assert hits >= int(0.9 * trials)
