"""Tests for the uniformity statistics module."""

import math

import pytest

from repro.rng import RandomSource
from repro.stats import (
    chi_square_uniform,
    empirical_distribution,
    kl_from_uniform,
    occurrence_histogram,
    theorem1_envelope,
    total_variation_from_uniform,
    witness_key,
)
from repro.stats.uniformity import _chi2_sf


class TestOccurrenceHistogram:
    def test_basic(self):
        draws = ["a", "a", "b", "c", "c", "c"]
        assert occurrence_histogram(draws) == {1: 1, 2: 1, 3: 1}

    def test_universe_adds_zero_bucket(self):
        draws = ["a", "a", "b"]
        hist = occurrence_histogram(draws, universe_size=5)
        assert hist[0] == 3
        assert hist[1] == 1
        assert hist[2] == 1

    def test_universe_too_small_raises(self):
        with pytest.raises(ValueError):
            occurrence_histogram(["a", "b"], universe_size=1)

    def test_histogram_mass_conserved(self):
        rng = RandomSource(1)
        draws = [rng.randint(0, 19) for _ in range(500)]
        hist = occurrence_histogram(draws, universe_size=20)
        assert sum(hist.values()) == 20
        assert sum(c * n for c, n in hist.items()) == 500


class TestChiSquare:
    def test_uniform_draws_accepted(self):
        rng = RandomSource(2)
        draws = [rng.randint(0, 49) for _ in range(5000)]
        result = chi_square_uniform(draws, 50)
        assert result.dof == 49
        assert not result.rejects_uniformity(alpha=0.001)

    def test_skewed_draws_rejected(self):
        draws = [0] * 500 + [1] * 100 + [2] * 10
        result = chi_square_uniform(draws, 10)
        assert result.rejects_uniformity()

    def test_universe_validation(self):
        with pytest.raises(ValueError):
            chi_square_uniform([1, 2, 3], 2)
        with pytest.raises(ValueError):
            chi_square_uniform([0], 1)

    def test_statistic_definition(self):
        # 2 cells, 10 draws: 7/3 split -> chi2 = (7-5)^2/5 + (3-5)^2/5 = 1.6
        draws = [0] * 7 + [1] * 3
        result = chi_square_uniform(draws, 2)
        assert result.statistic == pytest.approx(1.6)


#: ``(dof, x, Q)`` with ``x`` the χ² quantile at tail p = 0.5, 1e-2, 1e-4,
#: 1e-6, 1e-8 and 1e-12, and ``Q`` the exact upper tail at that ``x``:
#: ``scipy.stats.chi2.isf`` and ``.sf`` (scipy 1.17.1), computed once and
#: kept as literals so the test runs without scipy.
CHI2_TAIL_REFERENCE = [
    (1, 0.4549364231195724, 0.5),
    (1, 6.634896601021217, 0.009999999999999998),
    (1, 15.136705226623397, 9.999999999999999e-05),
    (1, 23.928126976934827, 1e-06),
    (1, 32.84125336123679, 9.999999999999985e-09),
    (1, 50.844127911818155, 9.999999999999988e-13),
    (2, 1.386294361119891, 0.5),
    (2, 9.210340371976182, 0.010000000000000004),
    (2, 18.420680743952364, 0.00010000000000000006),
    (2, 27.631021115928547, 1.0000000000000008e-06),
    (2, 36.84136148790473, 1.000000000000001e-08),
    (2, 55.262042231857095, 9.999999999999994e-13),
    (3, 2.3659738843753377, 0.5),
    (3, 11.344866730144368, 0.010000000000000024),
    (3, 21.10751346616021, 0.00010000000000000006),
    (3, 30.664849706213598, 1.0000000000000004e-06),
    (3, 40.12999901768822, 1.000000000000002e-08),
    (3, 58.919755683202155, 9.99999999999999e-13),
    (7, 6.345811195521515, 0.5),
    (7, 18.475306906582365, 0.009999999999999998),
    (7, 29.877503909224902, 0.00010000000000000011),
    (7, 40.521831234179864, 9.999999999999995e-07),
    (7, 50.81289201979628, 1.0000000000000002e-08),
    (7, 70.83842825582607, 9.999999999999998e-13),
    (60, 59.33466627644246, 0.49999999999999994),
    (60, 88.37941890144937, 0.01000000000000003),
    (60, 109.50293050040449, 0.00010000000000000224),
    (60, 127.0963602497362, 9.999999999999987e-07),
    (60, 142.9676047308382, 9.999999999999949e-09),
    (60, 171.85901842688767, 9.999999999999953e-13),
    (255, 254.3336440735108, 0.4999999999999999),
    (255, 310.45738821990585, 0.009999999999999981),
    (255, 347.6542127045889, 0.00010000000000000011),
    (255, 377.07811549898673, 9.999999999998763e-07),
    (255, 402.6846259767481, 1.0000000000000197e-08),
    (255, 447.51427950397806, 9.99999999999956e-13),
    (1000, 999.333412403381, 0.49999999999999994),
    (1000, 1106.9689943522174, 0.010000000000000016),
    (1000, 1174.933496584159, 0.00010000000000000017),
    (1000, 1227.1524211875756, 9.999999999999936e-07),
    (1000, 1271.632287170434, 9.999999999999997e-09),
    (1000, 1347.620053856608, 1.0000000000000075e-12),
]

#: The same quantiles at the large dofs a suite instance can reach
#: (|S| <= 22, so at most 2^22 - 1 degrees of freedom).
CHI2_TAIL_REFERENCE_LARGE_DOF = [
    (4095, 4094.333352631608, 0.5000000000000007),
    (4095, 4308.467865579965, 0.010000000000000057),
    (4095, 4440.150322533049, 0.00010000000000000034),
    (4095, 4539.664051381019, 9.999999999999966e-07),
    (4095, 4623.373056164858, 1.0000000000000108e-08),
    (4095, 4764.291511356668, 9.999999999999834e-13),
    (65535, 65534.333334539, 0.4999999999999995),
    (65535, 66380.16158998621, 0.00999999999999952),
    (65535, 66889.97932044683, 0.0001000000000000045),
    (65535, 67270.32961472419, 1.0000000000000796e-06),
    (65535, 67587.11763124619, 9.999999999999987e-09),
    (65535, 68114.14953706486, 9.999999999998643e-13),
    (4194303, 4194302.333333352, 0.5000000000000078),
    (4194303, 4201043.7634767, 0.010000000000000687),
    (4194303, 4205082.976060888, 0.00010000000000000709),
    (4194303, 4208084.785288295, 9.999999999995741e-07),
    (4194303, 4210577.424857609, 9.999999999999759e-09),
    (4194303, 4214709.373125584, 9.999999999997524e-13),
]


class TestChiSquareTail:
    @pytest.mark.parametrize("dof, x, tail", CHI2_TAIL_REFERENCE)
    def test_matches_reference_to_1e_10(self, dof, x, tail):
        assert math.isclose(_chi2_sf(x, dof), tail, rel_tol=1e-10)

    @pytest.mark.parametrize("dof, x, tail", CHI2_TAIL_REFERENCE_LARGE_DOF)
    def test_matches_reference_at_large_dof_to_1e_8(self, dof, x, tail):
        # Held to the same 1e-10 as the rows above, which is tighter than
        # the name says: the Stirling form of the prefactor keeps large
        # dofs as accurate as small ones.
        assert math.isclose(_chi2_sf(x, dof), tail, rel_tol=1e-10)

    def test_reference_rows_cover_both_branches(self):
        # The power series runs below x/2 < dof/2 + 1, the continued
        # fraction at or above it.
        rows = CHI2_TAIL_REFERENCE + CHI2_TAIL_REFERENCE_LARGE_DOF
        below = {x / 2 < dof / 2 + 1 for dof, x, _ in rows}
        assert below == {True, False}

    def test_endpoints(self):
        assert _chi2_sf(0.0, 5) == 1.0
        assert _chi2_sf(-1.0, 5) == 1.0
        assert _chi2_sf(1e6, 5) == 0.0
        assert _chi2_sf(1e-300, 100) == 1.0


class TestDistances:
    def test_empirical_distribution_sums_to_one(self):
        dist = empirical_distribution(["x", "y", "x"])
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist["x"] == pytest.approx(2 / 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_distribution([])

    def test_kl_zero_for_exact_uniform(self):
        draws = list(range(10)) * 10
        assert kl_from_uniform(draws, 10) == pytest.approx(0.0, abs=1e-12)

    def test_kl_positive_for_skew(self):
        draws = [0] * 90 + [1] * 10
        assert kl_from_uniform(draws, 2) > 0.5

    def test_tv_bounds(self):
        draws = [0] * 100
        tv = total_variation_from_uniform(draws, 4)
        assert tv == pytest.approx(0.75)  # point mass vs uniform over 4

    def test_tv_zero_for_exact_uniform(self):
        draws = list(range(8)) * 5
        assert total_variation_from_uniform(draws, 8) == pytest.approx(0.0)


class TestEnvelope:
    def test_uniform_within_envelope(self):
        draws = list(range(20)) * 50
        check = theorem1_envelope(draws, 20, epsilon=1.72)
        assert check.ok
        assert check.max_ratio == pytest.approx(19 / 20)

    def test_hoarding_violates(self):
        draws = [0] * 900 + list(range(1, 11)) * 10
        check = theorem1_envelope(draws, 11, epsilon=2.0)
        assert not check.ok
        witness, freq, lo, hi = check.violations[0]
        assert witness == 0
        assert freq > hi

    def test_slack_loosens(self):
        draws = [0] * 60 + [1] * 40
        tight = theorem1_envelope(draws, 2, epsilon=1.72, slack=0.0)
        loose = theorem1_envelope(draws, 2, epsilon=1.72, slack=5.0)
        assert loose.ok or len(loose.violations) <= len(tight.violations)


class TestWitnessKey:
    def test_projection(self):
        model = {1: True, 2: False, 3: True}
        assert witness_key(model, [3, 1]) == (1, 3)
        assert witness_key(model, [2]) == (-2,)

    def test_keys_hashable_and_distinct(self):
        a = witness_key({1: True, 2: False}, [1, 2])
        b = witness_key({1: True, 2: True}, [1, 2])
        assert a != b
        assert len({a, b}) == 2
