"""Cross-component integration tests: every counter and enumerator must
agree with every other on the same formulas — the strongest internal
consistency check the reproduction has."""

import pytest

from repro.cnf import XorClause, parity_funnel, random_ksat
from repro.core import EnumerativeUniformSampler, IdealUniformSampler
from repro.counting import ApproxMC, ExactCounter
from repro.rng import RandomSource
from repro.sat import bsat
from repro.sat.brute import count_models
from repro.sat.gauss import gaussian_eliminate
from repro.suite import build


class TestCountersAgree:
    @pytest.mark.parametrize("seed", range(8))
    def test_exact_equals_brute_equals_enumeration(self, seed):
        cnf = random_ksat(9, 24, 3, rng=seed)
        cnf.sampling_set = range(1, 10)
        brute = count_models(cnf)
        exact = ExactCounter(cnf).count()
        enum = bsat(cnf, brute + 1)
        assert exact == brute
        assert enum.complete and len(enum.models) == brute

    @pytest.mark.parametrize("seed", range(4))
    def test_gauss_equals_exact_on_parity(self, seed):
        cnf = parity_funnel(12, rng=seed)
        reduced = gaussian_eliminate(cnf.xor_clauses, 12)
        assert ExactCounter(cnf).count() == reduced.solution_count()

    def test_approxmc_brackets_exact_on_suite_instance(self):
        instance = build("LoginService2", "quick")
        exact = ExactCounter(instance.cnf).count()
        approx = ApproxMC(
            instance.cnf, iterations=7, rng=3, search="galloping"
        ).count()
        assert approx.count is not None
        assert exact / 1.8 <= approx.count <= 1.8 * exact


class TestSamplersAgreeOnUniverse:
    def test_us_and_oracle_see_same_count(self):
        instance = build("case121", "quick")
        us = IdealUniformSampler(instance.cnf, rng=1)
        oracle = EnumerativeUniformSampler(instance.cnf, rng=1)
        assert us.count == oracle.count

    def test_suite_counts_stable_across_components(self):
        """On one benchmark: exact counter == enumeration == US count."""
        instance = build("s526_3_2", "quick")
        exact = ExactCounter(instance.cnf).count()
        enum = bsat(instance.cnf, exact + 1)
        assert enum.complete and len(enum.models) == exact
        assert IdealUniformSampler(instance.cnf, rng=2).count == exact


class TestMixedXorConsistency:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_counter_vs_enumeration_with_xors(self, seed):
        rng = RandomSource(seed)
        cnf = random_ksat(8, 14, 3, rng=rng)
        for _ in range(2):
            vs = [v for v in range(1, 9) if rng.random() < 0.5]
            if vs:
                cnf.add_xor(XorClause.from_vars(vs, bool(rng.bit())))
        cnf.sampling_set = range(1, 9)
        exact = ExactCounter(cnf).count()
        enum = bsat(cnf, exact + 1)
        assert enum.complete and len(enum.models) == exact


class TestCliUnsatHandling:
    def test_sample_on_unsat_file(self, tmp_path, capsys):
        from repro.cnf import CNF, write_dimacs
        from repro.experiments.cli import main

        cnf = CNF(1, clauses=[[1], [-1]])
        path = tmp_path / "u.cnf"
        write_dimacs(cnf, path)
        assert main(["sample", str(path), "--seed", "1"]) == 1
        assert "UNSATISFIABLE" in capsys.readouterr().out
