"""The statistical-uniformity gate, and serial-vs-parallel equivalence.

Covers the new machinery in :mod:`repro.stats.uniformity`:

* :func:`frequency_ratio_check` — min/max per-witness counts against the
  uniform expectation (the check that catches duplicated or dropped chunks
  in a buggy parallel merge);
* :func:`uniformity_gate` — the combined χ² + ratio verdict;
* the headline property: under a fixed seed, **serial and parallel runs of
  the same sampler pass the same uniformity gate** on a small formula —
  the pool may change throughput, never the distribution.
"""

import random

import pytest

from repro.api import SamplerConfig, prepare
from repro.cnf import exactly_k_solutions_formula
from repro.execution import PoolBackend, SerialBackend, build_plan
from repro.stats import (
    frequency_ratio_check,
    uniformity_gate,
    witness_key,
)

UNIVERSE = 24


def uniform_draws(n, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(UNIVERSE) for _ in range(n)]


class TestFrequencyRatioCheck:
    def test_uniform_counts_pass(self):
        draws = list(range(UNIVERSE)) * 40
        check = frequency_ratio_check(draws, UNIVERSE, bound=2.0)
        assert check.ok
        assert check.min_count == check.max_count == 40
        assert check.coverage == 1.0
        assert check.min_over_expected == check.max_over_expected == 1.0

    def test_random_uniform_draws_pass(self):
        check = frequency_ratio_check(uniform_draws(2400, seed=7), UNIVERSE)
        assert check.ok, check

    def test_overrepresented_witness_fails(self):
        draws = list(range(UNIVERSE)) * 40 + [0] * 1000
        check = frequency_ratio_check(draws, UNIVERSE, bound=2.0)
        assert not check.ok
        assert check.max_over_expected > 2.0

    def test_missing_witness_fails(self):
        # Witness UNIVERSE-1 never drawn: min count 0 < expectation/bound.
        draws = list(range(UNIVERSE - 1)) * 40
        check = frequency_ratio_check(draws, UNIVERSE, bound=2.0)
        assert not check.ok
        assert check.min_count == 0
        assert check.coverage < 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="universe"):
            frequency_ratio_check([1], 0)
        with pytest.raises(ValueError, match="bound"):
            frequency_ratio_check([1], 4, bound=1.0)
        with pytest.raises(ValueError, match="smaller than observed"):
            frequency_ratio_check([1, 2, 3], 2)


class TestUniformityGate:
    def test_uniform_stream_passes(self):
        report = uniformity_gate(uniform_draws(2400, seed=3), UNIVERSE)
        assert report.passed, report.describe()
        assert "PASS" in report.describe()

    def test_skewed_stream_fails_gate(self):
        # Half the universe drawn three times as often as the other half.
        draws = (
            list(range(UNIVERSE // 2)) * 90
            + list(range(UNIVERSE // 2, UNIVERSE)) * 30
        )
        report = uniformity_gate(draws, UNIVERSE)
        assert not report.passed
        assert report.chi_square.rejects_uniformity(0.01)
        assert "FAIL" in report.describe()

    def test_dropped_chunk_pattern_fails_ratio_even_if_subtle(self):
        # One witness missing entirely — exactly what a dropped parallel
        # chunk would do to a small universe.
        draws = [d for d in uniform_draws(2400, seed=5) if d != 11]
        report = uniformity_gate(draws, UNIVERSE)
        assert not report.ratio.ok


class TestSerialParallelGateEquivalence:
    """The fixed-seed serial/parallel uniformity regression."""

    N_DRAWS = 1200
    K_SOLUTIONS = 20

    @pytest.fixture(scope="class")
    def instance(self):
        cnf = exactly_k_solutions_formula(6, self.K_SOLUTIONS)
        cnf.sampling_set = range(1, 7)
        config = SamplerConfig(seed=2014)
        return cnf, config, prepare(cnf, config)

    def _run(self, instance, jobs):
        cnf, config, artifact = instance
        plan = build_plan(artifact, self.N_DRAWS, config)
        backend = SerialBackend() if jobs == 1 else PoolBackend(jobs=jobs)
        report = backend.collect(plan)
        assert len(report.witnesses) == self.N_DRAWS
        svars = artifact.sampling_set
        return [witness_key(w, svars) for w in report.witnesses]

    def test_serial_and_parallel_pass_the_same_gate(self, instance):
        serial_keys = self._run(instance, jobs=1)
        parallel_keys = self._run(instance, jobs=3)

        serial_gate = uniformity_gate(serial_keys, self.K_SOLUTIONS)
        parallel_gate = uniformity_gate(parallel_keys, self.K_SOLUTIONS)
        assert serial_gate.passed, serial_gate.describe()
        assert parallel_gate.passed, parallel_gate.describe()

        # Stronger than "both pass": the streams are identical, so the two
        # gates see literally the same statistics.
        assert serial_keys == parallel_keys
        assert serial_gate.chi_square.statistic == pytest.approx(
            parallel_gate.chi_square.statistic
        )

    def test_gate_catches_a_corrupted_parallel_merge(self, instance):
        # Simulate the bug the gate exists for: a merge that collapses two
        # distinct witnesses into one (every draw of witness A reported as
        # witness B).  One count doubles, one drops to zero — both the χ²
        # statistic and the min/max ratio blow through their bounds.
        keys = self._run(instance, jobs=1)
        a, b = sorted(set(keys))[:2]
        corrupted = [b if k == a else k for k in keys]
        gate = uniformity_gate(corrupted, self.K_SOLUTIONS)
        assert not gate.passed, gate.describe()
        assert gate.ratio.min_count == 0
