"""Tests for the Hxor hash family: shape, statistics, prefix consistency."""

import pytest

from repro.hashing import HxorFamily
from repro.rng import RandomSource


class TestConstruction:
    def test_vars_sorted_dedup(self):
        family = HxorFamily([3, 1, 3])
        assert family.variables == (1, 3)
        assert family.n == 2

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            HxorFamily([1], density=0.0)
        with pytest.raises(ValueError):
            HxorFamily([1], density=1.5)

    def test_rejects_nonpositive_vars(self):
        with pytest.raises(ValueError):
            HxorFamily([0, 1])

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            HxorFamily([1, 2]).draw(-1, rng=0)


class TestDrawShape:
    def test_row_count(self):
        family = HxorFamily(range(1, 11))
        constraint = family.draw(4, rng=1)
        assert constraint.num_rows == 4
        assert len(constraint.xors) == 4

    def test_rows_only_touch_family_vars(self):
        family = HxorFamily([2, 5, 9])
        constraint = family.draw(6, rng=2)
        for xor in constraint.xors:
            assert set(xor.vars) <= {2, 5, 9}

    def test_expected_length_half_support(self):
        """Avg XOR length ≈ n/2 — the 'Avg XOR len' claim of Tables 1/2."""
        n = 40
        family = HxorFamily(range(1, n + 1))
        rng = RandomSource(7)
        total, rows = 0.0, 0
        for _ in range(200):
            constraint = family.draw(5, rng)
            total += sum(len(x) for x in constraint.xors)
            rows += constraint.num_rows
        mean = total / rows
        assert abs(mean - n / 2) < 2.0  # ±2 vars at 1000 rows

    def test_sparse_density_shortens_rows(self):
        n = 40
        rng = RandomSource(3)
        sparse = HxorFamily(range(1, n + 1), density=0.1)
        constraint = sparse.draw(50, rng)
        assert constraint.average_xor_length() < n * 0.25

    def test_average_length_empty(self):
        family = HxorFamily([1, 2])
        assert family.draw(0, rng=0).average_xor_length() == 0.0


class TestStatisticalProperties:
    def test_cell_membership_is_roughly_uniform(self):
        """Each point lands in a fixed cell w.p. 2^-m over the h draw."""
        n, m, trials = 8, 3, 1500
        family = HxorFamily(range(1, n + 1))
        rng = RandomSource(11)
        point = {v: bool((v * 7) % 3 == 0) for v in range(1, n + 1)}
        hits = 0
        for _ in range(trials):
            constraint = family.draw(m, rng)
            if family.hash_of(constraint, point):
                hits += 1
        expected = trials / 2**m
        assert abs(hits - expected) < 5 * expected**0.5

    def test_pairwise_independence_of_cell_assignment(self):
        """Two distinct points collide in the same cell w.p. 2^-m."""
        n, m, trials = 8, 3, 2000
        family = HxorFamily(range(1, n + 1))
        rng = RandomSource(13)
        p1 = {v: False for v in range(1, n + 1)}
        p2 = {v: v == 1 for v in range(1, n + 1)}
        collisions = 0
        for _ in range(trials):
            constraint = family.draw(m, rng)
            h1 = tuple(x.evaluate(p1) for x in constraint.xors)
            h2 = tuple(x.evaluate(p2) for x in constraint.xors)
            if h1 == h2:
                collisions += 1
        expected = trials / 2**m
        assert abs(collisions - expected) < 5 * expected**0.5


class CountingSource(RandomSource):
    """RandomSource that records every primitive draw (for RNG contracts)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.bits_calls = 0
        self.bit_calls = 0
        self.random_calls = 0

    def bits(self, n):
        self.bits_calls += 1
        return super().bits(n)

    def bit(self):
        self.bit_calls += 1
        return super().bit()

    def random(self):
        self.random_calls += 1
        return super().random()


class TestRowWordContract:
    """The whole-word RNG-consumption contract of row_word (see its doc):
    exactly ``len(density_digits(density))`` bits(n) draws per row, a
    function of density alone — never of outcomes, never rng.random()."""

    def test_density_digits_expansions(self):
        from repro.hashing.xor_family import density_digits

        assert density_digits(0.5) == [1]
        assert density_digits(0.25) == [0, 1]
        assert density_digits(0.75) == [1, 1]
        assert density_digits(0.375) == [0, 1, 1]
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                density_digits(bad)

    def test_half_density_is_one_word_stream_identical(self):
        """density=0.5 consumes exactly one bits(n) word — the historical
        fast path's stream, so fixed-seed goldens are preserved."""
        from repro.hashing.xor_family import row_word

        n = 40
        counting = CountingSource(123)
        word = row_word(counting, n, 0.5)
        assert (counting.bits_calls, counting.bit_calls,
                counting.random_calls) == (1, 0, 0)
        assert word == RandomSource(123).bits(n)

    def test_full_density_consumes_nothing(self):
        from repro.hashing.xor_family import row_word

        counting = CountingSource(9)
        assert row_word(counting, 5, 1.0) == 0b11111
        assert (counting.bits_calls, counting.bit_calls,
                counting.random_calls) == (0, 0, 0)

    def test_word_count_is_digit_count_for_any_density(self):
        from repro.hashing.xor_family import density_digits, row_word

        for density in (0.5, 0.25, 0.75, 0.125, 0.625, 0.3):
            counting = CountingSource(3)
            row_word(counting, 16, density)
            assert counting.bits_calls == len(density_digits(density))
            assert counting.random_calls == 0

    def test_bit_probability_matches_density(self):
        from repro.hashing.xor_family import row_word

        n, draws = 64, 400
        for density in (0.25, 0.5, 0.75):
            rng = RandomSource(2014)
            total = sum(
                row_word(rng, n, density).bit_count() for _ in range(draws)
            )
            assert total / (n * draws) == pytest.approx(density, abs=0.02)

    def test_family_draw_routes_through_row_word(self):
        """Every density goes through the one word-draw primitive: the
        family's per-row consumption equals digits + 2 single bits."""
        from repro.hashing.xor_family import density_digits

        for density in (0.5, 0.25):
            counting = CountingSource(11)
            HxorFamily(range(1, 13), density=density).draw(5, counting)
            assert counting.bits_calls == 5 * len(density_digits(density))
            assert counting.bit_calls == 5 * 2  # a_{i,0} and alpha_i per row
