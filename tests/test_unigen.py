"""UniGen functional tests (statistical guarantees live in
test_unigen_guarantees.py)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cnf import CNF, exactly_k_solutions_formula, random_ksat
from repro.core import UniGen
from repro.errors import ToleranceError, UnsatisfiableError
from repro.sat import Budget


def small_instance(k=600, n=11):
    cnf = exactly_k_solutions_formula(n, k)
    cnf.sampling_set = range(1, n + 1)
    return cnf


class TestValidation:
    def test_epsilon_too_small(self):
        with pytest.raises(ToleranceError):
            UniGen(CNF(1, clauses=[[1]]), epsilon=1.5)

    def test_unsat_formula(self):
        sampler = UniGen(CNF(1, clauses=[[1], [-1]]), epsilon=6.0, rng=0)
        with pytest.raises(UnsatisfiableError):
            sampler.sample()


class TestEasyCase:
    def test_few_witnesses_served_from_enumeration(self):
        cnf = exactly_k_solutions_formula(6, 20)
        sampler = UniGen(cnf, epsilon=6.0, rng=1)
        sampler.prepare()
        assert sampler.q is None  # never reached ApproxMC
        for _ in range(30):
            witness = sampler.sample()
            assert witness is not None
            assert cnf.evaluate(witness)

    def test_single_witness_formula(self):
        cnf = CNF(3, clauses=[[1], [2], [3]])
        sampler = UniGen(cnf, epsilon=6.0, rng=1)
        assert sampler.sample() == {1: True, 2: True, 3: True}

    def test_easy_case_never_fails(self):
        cnf = exactly_k_solutions_formula(6, 30)
        sampler = UniGen(cnf, epsilon=6.0, rng=2)
        samples = sampler.sample_many(50)
        assert all(s is not None for s in samples)
        assert sampler.stats.success_probability == 1.0


class TestHashingPath:
    def test_prepare_sets_window(self):
        sampler = UniGen(small_instance(), epsilon=6.0, rng=3)
        sampler.prepare()
        assert sampler.q is not None
        assert sampler.approx_count_value is not None
        # q ≈ log2(C * 1.8 / pivot)
        import math

        expected = math.ceil(
            math.log2(sampler.approx_count_value)
            + math.log2(1.8)
            - math.log2(sampler.kp.pivot)
        )
        assert sampler.q == expected

    def test_prepare_idempotent(self):
        sampler = UniGen(small_instance(), epsilon=6.0, rng=3)
        sampler.prepare()
        q = sampler.q
        calls = sampler.stats.bsat_calls
        sampler.prepare()
        assert sampler.q == q
        assert sampler.stats.bsat_calls == calls

    def test_prepare_counts_approxmc_bsat_calls(self, monkeypatch):
        """The easy-case check and every ApproxMC probe are BSAT calls of
        the prepare, each on a session, and the exported artifact reports
        them all."""
        from repro.api import PreparedFormula
        from repro.sat.enumerate import SolverSession

        probes = []
        real_bsat = SolverSession.bsat

        def counting_bsat(self, *args, **kwargs):
            probes.append(1)
            return real_bsat(self, *args, **kwargs)

        monkeypatch.setattr(SolverSession, "bsat", counting_bsat)
        sampler = UniGen(small_instance(), rng=9)
        prepared = PreparedFormula.from_sampler(sampler)
        assert sampler.q is not None and len(probes) > 1
        assert prepared.prepare_bsat_calls == len(probes)

    def test_samples_are_witnesses(self):
        cnf = small_instance()
        sampler = UniGen(cnf, epsilon=6.0, rng=4)
        for witness in sampler.sample_many(25):
            if witness is not None:
                assert cnf.evaluate(witness)

    def test_success_probability_beats_paper_bound(self):
        """Theorem 1: success probability >= 0.62 (observed is usually ~1)."""
        sampler = UniGen(small_instance(), epsilon=6.0, rng=5)
        sampler.sample_many(60)
        assert sampler.stats.success_probability >= 0.62

    def test_xor_lengths_tracked(self):
        sampler = UniGen(small_instance(), epsilon=6.0, rng=6)
        sampler.sample_many(5)
        # |S| = 11 → expected length ≈ 5.5
        assert 3.0 < sampler.stats.avg_xor_length < 8.0

    def test_explicit_sampling_set_override(self):
        cnf = small_instance()
        sampler = UniGen(cnf, epsilon=6.0, sampling_set=[1, 2, 3, 4, 5, 6, 7],
                         rng=7)
        # Guarantees need an independent support; {1..7} is not one here, but
        # the machinery must still run and produce genuine witnesses.
        witness = sampler.sample()
        if witness is not None:
            assert cnf.evaluate(witness)

    def test_stats_accumulate(self):
        sampler = UniGen(small_instance(), epsilon=6.0, rng=8)
        sampler.sample_many(10)
        stats = sampler.stats
        assert stats.attempts == 10
        assert stats.bsat_calls > 0
        assert stats.sample_time_seconds > 0

    def test_larger_epsilon_smaller_cells(self):
        tight = UniGen(small_instance(), epsilon=2.0, rng=9)
        loose = UniGen(small_instance(), epsilon=16.0, rng=9)
        assert tight.hi_thresh > loose.hi_thresh


class TestBudgets:
    def test_budget_exhaustion_raises_after_retries(self):
        from repro.errors import BudgetExhausted

        cnf = small_instance()
        sampler = UniGen(
            cnf,
            epsilon=6.0,
            rng=10,
            bsat_budget=Budget(max_conflicts=1),
            max_retries_per_cell=2,
        )
        with pytest.raises(BudgetExhausted):
            for _ in range(20):
                sampler.sample()

    def test_timeouts_counted(self):
        cnf = small_instance()
        sampler = UniGen(
            cnf,
            epsilon=6.0,
            rng=11,
            bsat_budget=Budget(max_conflicts=40),
            max_retries_per_cell=50,
        )
        try:
            sampler.sample_many(5)
        except Exception:
            pass
        # Either it coped (some retries) or the budget was generous enough.
        assert sampler.stats.bsat_timeouts >= 0


NO_NUMPY_DRAWS = """
import sys
from repro.api import SamplerConfig, make_sampler, prepare
from repro.suite import build

config = SamplerConfig(seed=1)
artifact = prepare(build("case121").cnf, config)
draws = make_sampler("unigen", artifact, config).sample_many(3)
assert artifact.q is not None and any(w is not None for w in draws)
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""

NO_SCIPY_GATE = """
import sys
from repro.core.base import SampleResult
from repro.sinks import OnlineUniformityGate
from repro.stats import uniformity_gate

witnesses = [{1: a, 2: b} for a in (False, True) for b in (False, True)] * 40
gate = OnlineUniformityGate(4)
for witness in witnesses:
    gate.accept(0, SampleResult(witness=witness))
draws = [tuple(sorted(witness.items())) for witness in witnesses]
assert gate.verdict().passed and uniformity_gate(draws, 4).passed
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def _run_in_fresh_interpreter(code: str) -> str:
    """Run ``code`` in a fresh interpreter over the repo's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


class TestImports:
    def test_hashed_sampling_never_imports_numpy(self):
        """Prepare (ApproxMC) plus hashed UniGen draws stay numpy-free, so
        no user pays its import time or memory for sampling."""
        assert _run_in_fresh_interpreter(NO_NUMPY_DRAWS) == "[]"

    def test_uniformity_gates_never_import_scipy(self):
        """The online and offline gates compute their χ² tail in the
        standard library, so a verdict is the same on every host."""
        assert _run_in_fresh_interpreter(NO_SCIPY_GATE) == "[]"
