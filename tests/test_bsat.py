"""Tests for BSAT bounded enumeration — the paper's core oracle."""

import pytest

from repro.cnf import CNF, XorClause, exactly_k_solutions_formula, random_ksat
from repro.rng import RandomSource
from repro.sat import Budget, Solver, SolverSession, bsat, enumerate_all, projections
from repro.sat.brute import all_models, count_projected, model_set
from repro.sat.pysolver import PySolver


class TestBounds:
    core = Solver

    def test_bound_zero(self):
        cnf = CNF(2, clauses=[[1, 2]])
        result = bsat(cnf, 0)
        assert len(result.models) == 0
        assert not result.complete

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            bsat(CNF(1), -1)

    def test_bound_respected(self):
        cnf = CNF(4, sampling_set=[1, 2, 3, 4])  # 16 models
        result = bsat(cnf, 5)
        assert len(result.models) == 5
        assert not result.complete

    def test_complete_when_under_bound(self):
        cnf = CNF(2, clauses=[[1], [2]])
        result = bsat(cnf, 10)
        assert len(result.models) == 1
        assert result.complete

    def test_exact_boundary(self):
        """At |R_F| == bound, all witnesses are found but completeness is
        not reported (see TestCompleteAtBound); callers needing certainty
        request bound+1 — which must prove it."""
        cnf = CNF(2, sampling_set=[1, 2])  # 4 models
        result = bsat(cnf, 4)
        assert len(result.models) == 4
        one_more = bsat(cnf, 5)
        assert len(one_more.models) == 4
        assert one_more.complete

    def test_unsat_complete_empty(self):
        cnf = CNF(1, clauses=[[1], [-1]])
        result = bsat(cnf, 10)
        assert result.complete
        assert len(result.models) == 0


class TestProjection:
    core = Solver

    def test_distinct_on_sampling_set(self):
        cnf = CNF(4, clauses=[[1, 2]])
        cnf.sampling_set = [1, 2]
        result = bsat(cnf, 100)
        assert result.complete
        keys = projections(result.models, [1, 2])
        assert len(keys) == len(set(keys)) == 3

    def test_matches_brute_force_projected_count(self):
        for seed in range(10):
            cnf = random_ksat(6, 10, 3, rng=seed)
            cnf.sampling_set = [1, 2, 3]
            result = bsat(cnf, 1000)
            assert result.complete
            assert len(result.models) == count_projected(cnf, [1, 2, 3])

    def test_block_full_support(self):
        cnf = CNF(3, clauses=[[1]])
        cnf.sampling_set = [1]
        restricted = bsat(cnf, 100)
        full = bsat(cnf, 100, sampling_set=range(1, 4))
        assert len(restricted.models) == 1  # one projection on {1}
        assert len(full.models) == 4  # all (v2, v3) combinations

    def test_empty_sampling_set(self):
        cnf = CNF(2, clauses=[[1, 2]])
        result = bsat(cnf, 10, sampling_set=[])
        assert result.complete
        assert len(result.models) == 1


class TestEnumerateAll:
    core = Solver

    def test_recovers_model_set(self):
        for seed in range(8):
            cnf = random_ksat(6, 12, 3, rng=seed)
            truth = model_set(cnf)
            models = enumerate_all(cnf)
            got = {
                tuple(v if m[v] else -v for v in range(1, 7)) for m in models
            }
            assert got == truth

    def test_limit_enforced(self):
        cnf = CNF(10, sampling_set=range(1, 11))  # 1024 models
        with pytest.raises(RuntimeError):
            enumerate_all(cnf, limit=100)


class TestBudget:
    core = Solver

    def test_timeout_flags_exhaustion(self):
        from repro.cnf import php

        cnf = php(8, 7)
        result = bsat(cnf, 10, budget=Budget(timeout_seconds=0.0))
        assert result.budget_exhausted
        assert not result.complete

    def test_conflict_budget_flags_exhaustion(self):
        from repro.cnf import php

        cnf = php(7, 6)
        result = bsat(cnf, 10, budget=Budget(max_conflicts=3))
        assert result.budget_exhausted


class TestGaussReduction:
    """A session Gauss-reduces each call's rows before it installs them."""

    core = Solver

    def test_reduction_preserves_models(self):
        rng = RandomSource(4)
        base = random_ksat(7, 10, 3, rng=rng)
        rows = []
        for _ in range(3):
            vs = [v for v in range(1, 8) if rng.random() < 0.5]
            if vs:
                rows.append(XorClause.from_vars(vs, bool(rng.bit())))
        result = SolverSession(base).bsat(rows, 500)
        assert result.complete
        got = {tuple(v if m[v] else -v for v in range(1, 8))
               for m in result.models}
        assert got == model_set(base.conjoined_with(xors=rows))

    def test_inconsistent_xor_system_short_circuits(self):
        cnf = CNF(2)
        cnf.add_xor(XorClause((1, 2), True))
        cnf.add_xor(XorClause((1, 2), False))
        result = bsat(cnf, 10)
        assert result.complete
        assert len(result.models) == 0

    def test_plain_cnf_passthrough(self, monkeypatch):
        def never(*args):
            raise AssertionError("no rows to eliminate")

        monkeypatch.setattr(
            "repro.sat.enumerate.gaussian_eliminate", never
        )
        cnf = CNF(2, clauses=[[1, 2]])
        assert len(bsat(cnf, 10, sampling_set=[1, 2]).models) == 3


class TestCompleteAtBound:
    """``complete`` is True only when enumeration stopped below the bound."""

    core = Solver

    @pytest.mark.parametrize("k", [1, 5, 8, 13, 26, 64])
    @pytest.mark.parametrize("mode", ["fresh", "session"])
    def test_exactly_bound_witnesses_is_incomplete(self, k, mode):
        cnf = exactly_k_solutions_formula(8, k)

        def enumerate_(bound):
            if mode == "fresh":
                return bsat(cnf, bound)
            return SolverSession(cnf).bsat([], bound)

        at = enumerate_(k)
        assert len(at.models) == k
        assert not at.complete
        above = enumerate_(k + 1)
        assert len(above.models) == k
        assert above.complete

    def test_enumerate_all_raises_one_over_limit(self):
        cnf = exactly_k_solutions_formula(8, 13)
        with pytest.raises(RuntimeError):
            enumerate_all(cnf, limit=12)
        assert len(enumerate_all(cnf, limit=13)) == 13


class TestBruteForceAgreement:
    """BSAT against ``sat/brute.py`` on formulas with native XOR rows.

    Both solving modes must return the exact projected model set in
    canonical order when the bound exceeds the count, and ``bound``
    distinct, satisfying, canonically ordered members below it.
    """

    core = Solver

    SVARS = (1, 2, 3, 4, 5, 6)

    def _instance(self, seed):
        rng = RandomSource(seed)
        base = random_ksat(9, 14, 3, rng=rng)
        base.sampling_set = self.SVARS
        rows = []
        for _ in range(rng.randint(1, 3)):
            vs = [v for v in range(1, 10) if rng.bit()]
            if vs:
                rows.append(XorClause.from_vars(vs, bool(rng.bit())))
        return base, rows

    def _keys(self, models):
        return [tuple(m[v] for v in self.SVARS) for m in models]

    @pytest.mark.parametrize("seed", range(12))
    def test_xor_rows_and_bounds_below_count(self, seed):
        base, rows = self._instance(seed)
        hashed = base.conjoined_with(xors=rows)
        truth = sorted(set(self._keys(all_models(hashed))))
        session = SolverSession(base)
        modes = (
            lambda bound: bsat(hashed, bound),
            lambda bound: session.bsat(rows, bound),
        )
        for enumerate_ in modes:
            full = enumerate_(len(truth) + 1)
            assert full.complete
            assert self._keys(full.models) == truth
            for bound in sorted({1, len(truth) // 2, len(truth) - 1} - {0}):
                part = enumerate_(bound)
                assert not part.complete
                keys = self._keys(part.models)
                assert len(keys) == bound
                assert keys == sorted(set(keys))
                assert set(keys) <= set(truth)
                assert all(hashed.evaluate(m) for m in part.models)


# The same tests on the pure-Python reference core (see conftest.py).
for _case in (TestBounds, TestProjection, TestEnumerateAll, TestBudget, TestGaussReduction, TestCompleteAtBound, TestBruteForceAgreement,):
    _twin = type(f"{_case.__name__}OnPySolver", (_case,), {"core": PySolver})
    globals()[_twin.__name__] = _twin
