"""Tests for the baseline samplers: UniWit, XORSample', US/oracle."""

import pytest

from repro.cnf import CNF, exactly_k_solutions_formula
from repro.core import (
    UNIWIT_PIVOT,
    EnumerativeUniformSampler,
    IdealUniformSampler,
    UniWit,
    XorSamplePrime,
)
from repro.errors import UnsatisfiableError
from repro.stats import theorem1_envelope, witness_key


def instance(k=500, n=10):
    cnf = exactly_k_solutions_formula(n, k)
    cnf.sampling_set = range(1, n + 1)
    return cnf


class TestUniWit:
    def test_pivot_constant(self):
        # 2 * ceil(e^1.5) = 2 * 5 = 10
        assert UNIWIT_PIVOT == 10

    def test_easy_case(self):
        cnf = exactly_k_solutions_formula(5, 8)
        sampler = UniWit(cnf, rng=1)
        witness = sampler.sample()
        assert witness is not None
        assert cnf.evaluate(witness)

    def test_unsat(self):
        with pytest.raises(UnsatisfiableError):
            UniWit(CNF(1, clauses=[[1], [-1]]), rng=1).sample()

    def test_hashing_path_produces_witnesses(self):
        cnf = instance()
        sampler = UniWit(cnf, rng=2)
        for witness in sampler.sample_many(15):
            if witness is not None:
                assert cnf.evaluate(witness)

    def test_success_probability_beats_paper_bound(self):
        """CAV'13 guarantees ≥ 1/8; observed is typically near 1."""
        sampler = UniWit(instance(), rng=3)
        sampler.sample_many(40)
        assert sampler.stats.success_probability >= 0.125

    def test_hashes_over_full_support(self):
        """UniWit's xor length ≈ |X|/2 even when a small S is declared —
        the paper's central criticism."""
        cnf = instance(500, 10)
        cnf.sampling_set = [1, 2]  # deliberately tiny S: UniWit ignores it
        sampler = UniWit(cnf, rng=4)
        sampler.sample_many(10)
        assert sampler.stats.avg_xor_length > 3.0  # ≈ 10/2 = 5, not 1

    def test_no_amortization_between_samples(self):
        """Every sample re-runs the search: bsat_calls grows superlinearly
        compared to a cached scheme (≥ 2 calls per sample here)."""
        sampler = UniWit(instance(), rng=5)
        sampler.sample_many(5)
        assert sampler.stats.bsat_calls >= 2 * 5

    def test_leapfrog_reduces_calls(self):
        plain = UniWit(instance(), rng=6, leapfrog=False)
        plain.sample_many(8)
        leap = UniWit(instance(), rng=6, leapfrog=True)
        leap.sample_many(8)
        assert leap.stats.bsat_calls <= plain.stats.bsat_calls

    def test_near_uniform_lower_bound_statistically(self):
        """Near-uniformity: every witness appears with ≥ c/|R_F| — check
        all witnesses of a small space show up."""
        cnf = instance(48, 6)
        sampler = UniWit(cnf, rng=7)
        keys = set()
        for witness in sampler.sample_many(2500):
            if witness is not None:
                keys.add(witness_key(witness, range(1, 7)))
        assert len(keys) == 48


class TestXorSamplePrime:
    def test_rejects_negative_s(self):
        with pytest.raises(ValueError):
            XorSamplePrime(CNF(1, clauses=[[1]]), s=-1)

    def test_good_s_produces_witnesses(self):
        cnf = instance(500, 10)
        sampler = XorSamplePrime(cnf, s=6, rng=1)
        ok = 0
        for witness in sampler.sample_many(30):
            if witness is not None:
                assert cnf.evaluate(witness)
                ok += 1
        assert ok >= 15

    def test_too_many_xors_mostly_fail(self):
        """s far above log2|R_F| empties almost every cell — the
        'difficult-to-estimate parameter' failure mode."""
        cnf = instance(64, 8)  # log2 = 6
        sampler = XorSamplePrime(cnf, s=12, rng=2)
        sampler.sample_many(40)
        assert sampler.stats.success_probability < 0.5

    def test_s_zero_enumerates_everything(self):
        cnf = instance(30, 6)
        sampler = XorSamplePrime(cnf, s=0, rng=3, max_cell=100)
        witness = sampler.sample()
        assert witness is not None

    def test_cell_overflow_is_bot(self):
        cnf = instance(1000, 10)
        sampler = XorSamplePrime(cnf, s=0, rng=4, max_cell=10)
        assert sampler.sample() is None

    @pytest.mark.parametrize("size", [2, 5, 8, 13, 26, 64])
    def test_cell_one_over_max_is_bot(self, size):
        """A cell of exactly ``max_cell + 1`` witnesses overflows."""
        cnf = instance(size, 8)
        over = XorSamplePrime(cnf, s=0, rng=5, max_cell=size - 1)
        assert over.sample() is None
        fits = XorSamplePrime(cnf, s=0, rng=5, max_cell=size)
        assert fits.sample() is not None


class TestIdealUniformSampler:
    def test_count_matches_truth(self):
        us = IdealUniformSampler(instance(321, 10), rng=1)
        assert us.count == 321

    def test_unsat_raises(self):
        with pytest.raises(UnsatisfiableError):
            IdealUniformSampler(CNF(1, clauses=[[1], [-1]]), rng=1)

    def test_indices_in_range(self):
        us = IdealUniformSampler(instance(100, 8), rng=2)
        draws = us.sample_many_indices(500)
        assert all(0 <= i < 100 for i in draws)

    def test_indices_uniform(self):
        us = IdealUniformSampler(instance(16, 6), rng=3)
        draws = us.sample_many_indices(8000)
        from collections import Counter

        counts = Counter(draws)
        assert len(counts) == 16
        for c in counts.values():
            assert abs(c - 500) < 5 * 500**0.5


class TestEnumerativeUniformSampler:
    def test_serves_genuine_witnesses(self):
        cnf = instance(50, 7)
        oracle = EnumerativeUniformSampler(cnf, rng=1)
        assert oracle.count == 50
        for _ in range(20):
            witness = oracle.sample()
            assert cnf.evaluate(witness)

    def test_exactly_uniform_envelope(self):
        cnf = instance(32, 6)
        oracle = EnumerativeUniformSampler(cnf, rng=2)
        keys = [
            witness_key(w, range(1, 7)) for w in oracle.sample_many(3200)
        ]
        check = theorem1_envelope(keys, 32, epsilon=1.72, slack=0.5)
        assert check.ok
