"""Property suite for the GF(2) kernel (``repro.sat.gf2``).

The RREF of a row space is unique, so the int-mask :class:`BitMatrix`
must agree *exactly* with a textbook dense Gauss–Jordan reference —
reduced rows, rank, inconsistency, implied units — whether rows arrive in
one batch or one by one between reads.  A pinned fixed-seed draw catches
any drift of the kernel or of the ``sample_xor_solution`` RNG stream.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf import XorClause
from repro.hashing.xor_family import row_word
from repro.rng import RandomSource
from repro.sat.gauss import gaussian_eliminate, sample_xor_solution
from repro.sat.gf2 import BitMatrix, mask_of_vars, vars_of_mask


def xor_systems(max_vars=24, max_rows=20):
    """Strategy: (num_vars, [(mask, rhs), ...]) with masks over 1..num_vars.

    Drawing raw masks (rather than variable subsets) reaches empty rows and
    duplicate rows easily, which is where inconsistency and rank-deficiency
    live.
    """

    def build(num_vars):
        row = st.tuples(
            st.integers(min_value=0, max_value=(1 << (num_vars + 1)) - 2).map(
                lambda m: m & ~1  # bit 0 is unused (variables start at 1)
            ),
            st.integers(min_value=0, max_value=1),
        )
        return st.tuples(
            st.just(num_vars), st.lists(row, max_size=max_rows)
        )

    return st.integers(min_value=1, max_value=max_vars).flatmap(build)


def snapshot(matrix):
    return (matrix.rank, matrix.inconsistent, matrix.reduced_rows())


def reference_rref(num_vars, rows):
    """Textbook Gauss–Jordan on the augmented matrix, column by column.

    Returns ``(rank, inconsistent, rows)`` in :meth:`BitMatrix.reduced_rows`
    form: ascending by pivot, with every RHS cleared when ``0 = 1`` is in
    the row space (canonical augmented RREF).
    """
    work = [(mask, rhs & 1) for mask, rhs in rows]
    pivots = []
    for col in range(num_vars, 0, -1):
        bit = 1 << col
        at = next((k for k, (m, _) in enumerate(work) if m & bit), None)
        if at is None:
            continue
        pm, pr = work.pop(at)
        work = [(m ^ pm, r ^ pr) if m & bit else (m, r) for m, r in work]
        pivots = [(m ^ pm, r ^ pr) if m & bit else (m, r) for m, r in pivots]
        pivots.append((pm, pr))
    inconsistent = any(r for m, r in work if m == 0)
    pivots.sort(key=lambda row: row[0].bit_length())
    if inconsistent:
        pivots = [(m, 0) for m, _ in pivots]
    return len(pivots), inconsistent, pivots


def as_xors(rows):
    return [
        XorClause.from_vars(vars_of_mask(mask), bool(rhs)) for mask, rhs in rows
    ]


class TestBackendEquality:
    """The kernel against :func:`reference_rref`."""

    @settings(max_examples=150, deadline=None)
    @given(xor_systems())
    def test_extend_identical_across_backends(self, system):
        num_vars, rows = system
        matrix = BitMatrix(num_vars)
        matrix.extend(rows)
        assert snapshot(matrix) == reference_rref(num_vars, rows)

    @settings(max_examples=100, deadline=None)
    @given(xor_systems(), st.lists(st.tuples(
        st.integers(min_value=0, max_value=(1 << 25) - 2),
        st.integers(min_value=0, max_value=1),
    ), max_size=6))
    def test_incremental_append_matches_batch(self, system, extra):
        """Appends after a batch and after reads reuse the eliminated state
        and still land on the RREF of every row so far."""
        num_vars, rows = system
        mask_limit = (1 << (num_vars + 1)) - 2
        matrix = BitMatrix(num_vars)
        matrix.extend(rows)
        seen = list(rows)
        for mask, rhs in extra:
            mask &= mask_limit & ~1
            # Interleave reads so deferred reduction paths are exercised.
            assert snapshot(matrix) == reference_rref(num_vars, seen)
            matrix.append(mask, rhs)
            seen.append((mask, rhs))
        assert snapshot(matrix) == reference_rref(num_vars, seen)

    @settings(max_examples=80, deadline=None)
    @given(xor_systems(max_vars=16, max_rows=14))
    def test_gaussian_eliminate_result_equal(self, system):
        num_vars, rows = system
        result = gaussian_eliminate(as_xors(rows), num_vars)
        rank, inconsistent, reduced = reference_rref(num_vars, rows)
        assert (result.rank, result.inconsistent) == (rank, inconsistent)
        assert result.rows == reduced
        assert result.units == {
            mask.bit_length() - 1: bool(rhs)
            for mask, rhs in reduced if mask.bit_count() == 1
        }
        assert result.solution_count() == (
            0 if inconsistent else 1 << (num_vars - rank)
        )

    @settings(max_examples=50, deadline=None)
    @given(
        xor_systems(max_vars=12, max_rows=10),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_sample_xor_solution_stream_identical(self, system, seed):
        """A fixed seed draws one sample: a free-variable coin per non-pivot
        variable in ascending order, pivots by back-substitution."""
        num_vars, rows = system
        xors = as_xors(rows)
        sample = sample_xor_solution(xors, num_vars, RandomSource(seed))
        again = sample_xor_solution(xors, num_vars, RandomSource(seed))
        assert sample == again
        _, inconsistent, reduced = reference_rref(num_vars, rows)
        if inconsistent:
            assert sample is None
            return
        assert all(x.evaluate(sample) for x in xors)
        pivots = {mask.bit_length() - 1 for mask, _ in reduced}
        rng = RandomSource(seed)
        for v in range(1, num_vars + 1):
            if v not in pivots:
                assert sample[v] == bool(rng.bit())

    @settings(max_examples=60, deadline=None)
    @given(xor_systems())
    def test_copy_is_independent(self, system):
        num_vars, rows = system
        matrix = BitMatrix(num_vars)
        matrix.extend(rows)
        frozen = snapshot(matrix)
        clone = matrix.copy()
        clone.append(mask_of_vars([1]), 1)
        assert snapshot(matrix) == frozen


class TestFixedSeedGolden:
    """A pinned Hxor-style draw: catches *any* semantic drift of the kernel,
    including RNG-stream changes in row_word."""

    NUM_VARS = 24
    ROWS = 16
    SEED = 2014

    def _draw(self):
        rng = RandomSource(self.SEED)
        xors = []
        for _ in range(self.ROWS):
            word = row_word(rng, self.NUM_VARS, 0.5)
            vs = [v for v in range(1, self.NUM_VARS + 1) if (word >> (v - 1)) & 1]
            xors.append(XorClause.from_vars(vs, bool(rng.bit())))
        return xors

    def test_python_golden(self):
        result = gaussian_eliminate(self._draw(), self.NUM_VARS)
        assert result.rank == 16
        assert not result.inconsistent
        assert result.rows[:4] == [(500, 1), (644, 0), (2152, 1), (4242, 0)]
        sol = sample_xor_solution(self._draw(), self.NUM_VARS, RandomSource(77))
        lits = [v if sol[v] else -v for v in sorted(sol)]
        assert lits == [
            1, -2, -3, -4, -5, -6, 7, -8, 9, 10, 11, -12,
            -13, -14, 15, -16, -17, 18, -19, -20, 21, 22, -23, 24,
        ]


class TestMaskHelpers:
    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(min_value=1, max_value=200)))
    def test_mask_roundtrip(self, vs):
        assert vars_of_mask(mask_of_vars(vs)) == sorted(vs)

    def test_empty(self):
        assert mask_of_vars([]) == 0
        assert vars_of_mask(0) == []
