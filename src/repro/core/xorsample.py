"""XORSample′ — Gomes, Sabharwal, Selman (NIPS 2007), second baseline.

The original hashing-based near-uniform sampler: conjoin a **user-chosen**
number ``s`` of random XOR constraints over the full variable set, enumerate
the surviving cell exhaustively, and return a uniform member.  Its guarantee
holds only when ``s`` is close to ``log₂|R_F|`` — the "difficult-to-estimate
input parameters" the paper repeatedly calls out (Sections 1, 3, 4): too
small an ``s`` leaves giant cells (expensive, biased toward nothing — the
enumeration cap fails); too large empties most cells (⊥ dominates).

UniGen's entire design — ApproxMC choosing the window, the [loThresh,
hiThresh] acceptance test — exists to remove this knob.
"""

from __future__ import annotations

from ..cnf.formula import CNF
from ..errors import BudgetExhausted
from ..hashing import HxorFamily
from ..rng import RandomSource, as_random_source
from ..sat.enumerate import SolverSession
from ..sat.types import Budget
from .base import Witness, WitnessSampler


class XorSamplePrime(WitnessSampler):
    """XORSample′ with user-supplied XOR count ``s``.

    ``max_cell`` caps the enumeration of one cell; an overflowing cell is
    reported as ⊥ (matching the practical behaviour of the original, which
    must bound its exhaustive model count).
    """

    name = "XORSample'"

    def __init__(
        self,
        cnf: CNF,
        s: int,
        rng: RandomSource | int | None = None,
        bsat_budget: Budget | None = None,
        max_cell: int = 10_000,
        hash_set=None,
    ):
        super().__init__()
        if s < 0:
            raise ValueError("s must be non-negative")
        self.cnf = cnf
        self.s = int(s)
        self.max_cell = int(max_cell)
        self._rng = as_random_source(rng)
        if hash_set is None:
            self._hvars = list(range(1, cnf.num_vars + 1))
        else:
            self._hvars = sorted(set(hash_set))
        self._family = HxorFamily(self._hvars) if self._hvars else None
        self._bsat_budget = bsat_budget

    def _sample_once(self) -> Witness | None:
        if self._family is None:
            return None
        constraint = self._family.draw(self.s, self._rng)
        cell = SolverSession(self.cnf).bsat(
            constraint.xors,
            self.max_cell + 1,
            sampling_set=self._hvars,
            budget=self._bsat_budget,
        )
        self.stats.bsat_calls += 1
        self.stats.xor_clauses_added += len(constraint.xors)
        self.stats.xor_literals_added += sum(len(x) for x in constraint.xors)
        if cell.budget_exhausted:
            raise BudgetExhausted("cell enumeration exceeded its budget")
        if not cell.complete or len(cell.models) == 0:
            # Cell too big to enumerate, or empty: both are ⊥ outcomes.
            return None
        return dict(self._rng.choice(cell.models))
