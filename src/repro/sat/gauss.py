"""Gaussian elimination over GF(2) for XOR constraint systems.

CryptoMiniSAT couples its SAT core with Gauss–Jordan elimination over the XOR
clauses; we provide the same capability as a preprocessing/analysis pass:

* detect inconsistent XOR systems before search;
* compute the rank, hence the exact solution count ``2^(n - rank)`` of a pure
  XOR system — used by tests and by the parity benchmark generators;
* reduce a system to row-echelon form, exposing implied units and
  equivalences that can be handed to the CDCL solver.

The row arithmetic lives in :mod:`repro.sat.gf2`'s int-mask
:class:`~repro.sat.gf2.BitMatrix`.  This module is the elimination API on
top of it; :func:`gaussian_eliminate` is the one entry point BSAT calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cnf.xor import XorClause
from .gf2 import BitMatrix, mask_of_vars, vars_of_mask

__all__ = [
    "GaussResult",
    "gaussian_eliminate",
    "xor_system_solutions",
    "sample_xor_solution",
    "rows_as_xors",
]


def rows_as_xors(rows: list[tuple[int, int]]) -> list[XorClause]:
    """Convert ``(mask, rhs)`` reduced rows back into XOR clauses."""
    return [
        XorClause.from_vars(vars_of_mask(mask), bool(rhs)) for mask, rhs in rows
    ]


@dataclass
class GaussResult:
    """Row-echelon summary of an XOR system over variables ``1..num_vars``.

    ``rank``
        Number of independent rows.
    ``inconsistent``
        True iff the system contains the row ``0 = 1``.
    ``rows``
        Reduced rows as ``(mask, rhs)`` pairs, pivot variables distinct,
        ascending by pivot variable.
    ``units``
        Variables forced to a constant by single-variable rows.
    """

    num_vars: int
    rank: int = 0
    inconsistent: bool = False
    rows: list[tuple[int, int]] = field(default_factory=list)
    units: dict[int, bool] = field(default_factory=dict)

    def solution_count(self) -> int:
        """Solutions of the pure XOR system over all ``num_vars`` variables."""
        if self.inconsistent:
            return 0
        return 1 << (self.num_vars - self.rank)

    @classmethod
    def from_matrix(cls, matrix: BitMatrix) -> "GaussResult":
        """Snapshot a :class:`BitMatrix`'s eliminated state."""
        result = cls(
            num_vars=matrix.num_vars,
            rank=matrix.rank,
            inconsistent=matrix.inconsistent,
        )
        for mask, rhs in matrix.reduced_rows():
            result.rows.append((mask, rhs))
            if mask.bit_count() == 1:
                result.units[mask.bit_length() - 1] = bool(rhs)
        return result


def _mask_of(xor: XorClause) -> int:
    return mask_of_vars(xor.vars)


def gaussian_eliminate(xors: list[XorClause], num_vars: int) -> GaussResult:
    """Reduce ``xors`` to reduced row-echelon form over GF(2)."""
    matrix = BitMatrix(num_vars)
    matrix.extend_xors(xors)
    return GaussResult.from_matrix(matrix)


def xor_system_solutions(xors: list[XorClause], num_vars: int) -> int:
    """Exact number of assignments over ``num_vars`` vars satisfying all xors."""
    return gaussian_eliminate(xors, num_vars).solution_count()


def sample_xor_solution(
    xors: list[XorClause], num_vars: int, rng
) -> dict[int, bool] | None:
    """Uniformly sample a solution of a pure XOR system (None if UNSAT).

    Free variables get independent fair coin flips; pivot variables are then
    determined by back-substitution — this is exactly uniform over the
    affine solution space.  RNG consumption depends only on the pivot set,
    which the (unique) RREF fixes.
    """
    reduced = gaussian_eliminate(xors, num_vars)
    if reduced.inconsistent:
        return None
    pivot_vars = {mask.bit_length() - 1 for mask, _ in reduced.rows}
    assignment: dict[int, bool] = {}
    for v in range(1, num_vars + 1):
        if v not in pivot_vars:
            assignment[v] = bool(rng.bit())
    # Rows are reduced: each row's non-pivot vars are all free.
    for mask, rhs in reduced.rows:
        lead = mask.bit_length() - 1
        acc = bool(rhs)
        for v in vars_of_mask(mask & ~(1 << lead)):
            acc ^= assignment[v]
        assignment[lead] = acc
    return assignment
