"""A PAWS-style sampler — the paper's third point of comparison, specialized
to uniform distributions.

PAWS (Ermon, Gomes, Sabharwal, Selman, NIPS 2013) samples from weighted
distributions given by graphical models via "embed and project": estimate
the partition function, then project with a **single** hash size derived
from the estimate and a user parameter, and enumerate the surviving bucket.
The DAC 2014 paper's comparison (Sections 1, 3, 4) makes two points about
it, both reproduced by this specialization to the uniform case:

1. PAWS derives **one** hash size ``m`` from the count estimate and a
   user-provided bucket parameter ``b`` — unlike UniGen's window
   ``{q−3..q}`` — so a slightly-off estimate silently degrades the success
   probability and the distribution quality ("this does not facilitate
   proving that PAWS is an almost-uniform generator");
2. like UniWit, it hashes over the **full** variable set, inheriting the
   long-XOR scalability wall that motivated UniGen's independent-support
   hashing.

This implementation follows that structure faithfully for the uniform case:
``m = max(0, ⌈log₂ C⌉ − ⌈log₂ b⌉)``, one draw of ``m`` XORs over the full
support, exhaustive enumeration of the cell up to ``b``, uniform choice on
success, ⊥ otherwise.
"""

from __future__ import annotations

import math

from ..cnf.formula import CNF
from ..counting.approxmc import ApproxMC
from ..errors import BudgetExhausted, SamplingError
from ..hashing import HxorFamily
from ..rng import RandomSource, as_random_source
from ..sat.enumerate import SolverSession
from ..sat.types import Budget
from .base import Witness, WitnessSampler


class PawsStyle(WitnessSampler):
    """PAWS-like fixed-hash-size sampler for uniform distributions.

    Parameters
    ----------
    cnf:
        The formula.
    bucket:
        The user parameter ``b``: target bucket size (and enumeration cap).
        This is precisely the "difficult-to-estimate input parameter" the
        paper criticizes — too small and cells are empty, too large and the
        enumeration cost explodes.
    hash_set:
        Defaults to the full variable set, as in PAWS.
    """

    name = "PAWS-style"

    def __init__(
        self,
        cnf: CNF,
        bucket: int = 32,
        rng: RandomSource | int | None = None,
        bsat_budget: Budget | None = None,
        approxmc_iterations: int = 9,
        hash_set=None,
    ):
        super().__init__()
        if bucket < 1:
            raise ValueError("bucket must be >= 1")
        self.cnf = cnf
        self.bucket = int(bucket)
        self._rng = as_random_source(rng)
        if hash_set is None:
            self._hvars = list(range(1, cnf.num_vars + 1))
        else:
            self._hvars = sorted(set(hash_set))
        self._family = HxorFamily(self._hvars) if self._hvars else None
        self._bsat_budget = bsat_budget
        self._approxmc_iterations = approxmc_iterations
        self._m: int | None = None
        self.count_estimate: int | None = None

    def prepare(self) -> None:
        """Estimate the count once and fix the single hash size ``m``."""
        if self._m is not None:
            return
        counter = ApproxMC(
            self.cnf,
            epsilon=0.8,
            delta=0.2,
            iterations=self._approxmc_iterations,
            rng=self._rng,
            budget=self._bsat_budget,
        )
        result = counter.count()
        self.stats.bsat_calls += counter.bsat_calls
        if result.count is None:
            raise SamplingError("ApproxMC failed in every iteration")
        self.count_estimate = result.count
        if result.count == 0:
            raise SamplingError("formula has no witnesses")
        self._m = max(
            0,
            math.ceil(math.log2(result.count)) - math.ceil(math.log2(self.bucket)),
        )

    def draws_per_instance(self, n: int) -> int:
        """The whole run: every instance pays for its own ApproxMC count."""
        return max(1, n)

    def _sample_once(self) -> Witness | None:
        self.prepare()
        assert self._m is not None and self._family is not None
        constraint = self._family.draw(self._m, self._rng)
        cell = SolverSession(self.cnf).bsat(
            constraint.xors,
            self.bucket + 1,
            sampling_set=self._hvars,
            budget=self._bsat_budget,
        )
        self.stats.bsat_calls += 1
        self.stats.xor_clauses_added += len(constraint.xors)
        self.stats.xor_literals_added += sum(len(x) for x in constraint.xors)
        if cell.budget_exhausted:
            raise BudgetExhausted("cell enumeration exceeded its budget")
        if not cell.complete or not (1 <= len(cell.models) <= self.bucket):
            return None  # empty or oversized bucket: ⊥
        return dict(self._rng.choice(cell.models))
