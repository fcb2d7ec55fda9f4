"""UniWit — the CAV 2013 near-uniform generator, the paper's main baseline.

Reconstructed from Chakraborty, Meel, Vardi (CAV 2013) as summarized in
Sections 3–5 of the DAC 2014 paper.  The differences from UniGen are exactly
the ones the paper's evaluation isolates:

1. **Full-support hashing** — ``h`` is drawn from ``Hxor(|X|, i, 3)`` over
   *all* variables, so each XOR clause contains ≈ |X|/2 variables (column
   "Avg XOR len" of Tables 1/2 shows ≈ |X|/2 vs UniGen's ≈ |S|/2).
2. **Full-support blocking clauses** in BSAT (no sampling-set restriction).
3. **No amortization** — every ``sample()`` re-runs the sequential search
   for a good hash size from scratch ("generating every witness in UniWit
   ... requires sequentially searching over all values afresh", Section 5).
4. Weaker guarantees: *near*-uniformity (a lower bound only) with success
   probability ≥ 1/8 = 0.125, vs UniGen's two-sided bound and ≥ 0.62.

The "leap-frogging" heuristic of CAV 2013 (start the search at the hash
size that worked last time) is implemented behind ``leapfrog=True`` but off
by default, since it **voids the near-uniformity guarantee** — the paper
disables it in all comparisons, and so do our Table 1/2 reproductions.  It
exists here for the A2-style ablations.
"""

from __future__ import annotations

import math

from ..cnf.formula import CNF
from ..errors import BudgetExhausted, UnsatisfiableError
from ..hashing import HxorFamily
from ..rng import RandomSource, as_random_source
from ..sat.enumerate import SolverSession
from ..sat.types import Budget
from .base import Witness, WitnessSampler

#: Cell-size threshold used by UniWit: 2·⌈e^{3/2}⌉.
UNIWIT_PIVOT = 2 * math.ceil(math.exp(1.5))


class UniWit(WitnessSampler):
    """Near-uniform witness generator (UniWit, CAV 2013) — baseline.

    Parameters mirror :class:`~repro.core.unigen.UniGen` where meaningful.
    ``sampling_set`` is accepted for experimental symmetry but — faithfully
    to the original — defaults to the **full** variable set, and blocking
    clauses always span the full set.
    """

    name = "UniWit"

    def __init__(
        self,
        cnf: CNF,
        rng: RandomSource | int | None = None,
        bsat_budget: Budget | None = None,
        max_retries_per_cell: int = 20,
        leapfrog: bool = False,
        hash_set=None,
    ):
        super().__init__()
        self.cnf = cnf
        self._rng = as_random_source(rng)
        if hash_set is None:
            self._hvars = list(range(1, cnf.num_vars + 1))
        else:
            self._hvars = sorted(set(hash_set))
        self._family = HxorFamily(self._hvars) if self._hvars else None
        self._bsat_budget = bsat_budget
        self._max_retries = max_retries_per_cell
        self.leapfrog = leapfrog
        self._leap_start: int | None = None
        self.pivot = UNIWIT_PIVOT

    def _sample_once(self) -> Witness | None:
        pivot = self.pivot
        # Easy case: |R_F| <= pivot — re-checked every sample (no caching in
        # UniWit; that is the point of the comparison).
        first = SolverSession(self.cnf).bsat(
            (),
            pivot + 1,
            sampling_set=self._hvars,  # blocking over the full set
            budget=self._bsat_budget,
        )
        self.stats.bsat_calls += 1
        if first.budget_exhausted:
            raise BudgetExhausted("initial BSAT call exceeded its budget")
        if len(first.models) == 0:
            raise UnsatisfiableError("formula has no witnesses")
        if first.complete and len(first.models) <= pivot:
            return dict(self._rng.choice(first.models))

        assert self._family is not None
        n = len(self._hvars)
        start_i = 1
        if self.leapfrog and self._leap_start is not None:
            start_i = max(1, self._leap_start - 1)
        i = start_i - 1
        while i < n:
            i += 1
            retries = 0
            while True:
                constraint = self._family.draw(i, self._rng)
                cell = SolverSession(self.cnf).bsat(
                    constraint.xors,
                    pivot + 1,
                    sampling_set=self._hvars,
                    budget=self._bsat_budget,
                )
                self.stats.bsat_calls += 1
                self.stats.xor_clauses_added += len(constraint.xors)
                self.stats.xor_literals_added += sum(
                    len(x) for x in constraint.xors
                )
                if not cell.budget_exhausted:
                    break
                self.stats.bsat_timeouts += 1
                retries += 1
                if retries > self._max_retries:
                    raise BudgetExhausted(
                        f"BSAT timed out {retries} times at hash size {i}"
                    )
            if cell.complete and 1 <= len(cell.models) <= pivot:
                self._leap_start = i
                return dict(self._rng.choice(cell.models))
        return None
