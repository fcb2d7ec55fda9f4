"""ApproxMC — the (ε, δ) approximate model counter of Chakraborty, Meel and
Vardi (CP 2013), reimplemented on our CDCL/XOR substrate.

UniGen's Algorithm 1 calls ``ApproxModelCounter(F, 0.8, 0.8)`` (line 9) to
derive the window ``{q-3..q}`` of candidate hash sizes; Lemma 3 of the paper
needs exactly the guarantee ApproxMC provides:

    Pr[ |R_F|/(1+ε) ≤ C ≤ (1+ε)|R_F| ] ≥ 1 − δ.

Algorithm (faithful to CP 2013):

* ``pivot = 2·⌈e^{3/2}·(1 + 1/ε)²⌉``;
* each **core** iteration adds ``i = 1, 2, ...`` random XOR constraints from
  ``Hxor`` until the surviving cell has between 1 and ``pivot`` witnesses,
  then reports ``|cell| · 2^i`` (⊥ if no ``i`` works);
* the final estimate is the **median** of ``t`` core iterations, with
  ``t = ⌈35·log₂(3/δ)⌉`` sufficing for the theoretical bound.

The theoretical ``t`` is famously conservative; callers may override
``iterations`` (UniGen does, see :mod:`repro.core.unigen`) — the empirical
confidence stays far above 1−δ, which the statistical tests check directly.
As in the paper's setup, hashing is performed over the formula's sampling
set and witnesses are counted projected on it; when the sampling set is an
independent support this equals ``|R_F|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cnf.formula import CNF
from ..errors import ToleranceError
from ..hashing import HxorFamily
from ..rng import RandomSource, as_random_source
from ..sat.enumerate import SolverSession
from ..sat.types import Budget
from .types import CountResult


def approxmc_pivot(epsilon: float) -> int:
    """``2·⌈e^{3/2}·(1 + 1/ε)²⌉`` — the cell-size threshold of CP 2013."""
    if epsilon <= 0:
        raise ToleranceError("ApproxMC requires epsilon > 0")
    return 2 * math.ceil(math.exp(1.5) * (1 + 1 / epsilon) ** 2)


def approxmc_iterations(delta: float) -> int:
    """``⌈35·log₂(3/δ)⌉`` — iteration count for confidence 1−δ (CP 2013)."""
    if not 0 < delta < 1:
        raise ToleranceError("ApproxMC requires 0 < delta < 1")
    return math.ceil(35 * math.log2(3 / delta))


@dataclass
class _CoreOutcome:
    estimate: int | None  # None = ⊥
    exact: bool = False


class ApproxMC:
    """Approximate model counter over a fixed formula.

    Parameters
    ----------
    cnf:
        Formula to count (clauses + native XORs allowed).
    epsilon, delta:
        Tolerance and confidence; the guarantee is
        ``|R|/(1+ε) ≤ count ≤ (1+ε)|R|`` with probability ≥ 1−δ.
    iterations:
        Override for the number of core iterations (default: the
        theoretical ``⌈35·log₂(3/δ)⌉``).
    budget:
        Per-BSAT-call budget (conflicts and/or wall clock).
    search:
        ``"linear"`` — the CP'13 core, growing ``i`` one row at a time;
        ``"galloping"`` — the ApproxMC2 core: one prefix-consistent hash
        matrix per iteration, exponential probe then binary search over the
        prefix length.  Cell sizes are monotone in the prefix length, so
        this finds the same boundary with O(log n) BSAT calls.
    """

    def __init__(
        self,
        cnf: CNF,
        epsilon: float = 0.8,
        delta: float = 0.2,
        iterations: int | None = None,
        rng: RandomSource | int | None = None,
        budget: Budget | None = None,
        search: str = "linear",
    ):
        self.cnf = cnf
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.pivot = approxmc_pivot(self.epsilon)
        self.iterations = (
            iterations if iterations is not None else approxmc_iterations(self.delta)
        )
        if self.iterations < 1:
            raise ToleranceError("iterations must be >= 1")
        if search not in ("linear", "galloping"):
            raise ValueError("search must be 'linear' or 'galloping'")
        self.search = search
        self._rng = as_random_source(rng)
        self._budget = budget
        self._svars = list(cnf.sampling_set_or_support())
        self._family = HxorFamily(self._svars) if self._svars else None

    def count(self) -> CountResult:
        """Run the full median-of-cores procedure.

        The returned :class:`~repro.counting.types.CountResult` carries the
        estimate's full provenance (exactness, iteration/failure counts);
        UniGen retains it verbatim so a cached
        :class:`repro.api.PreparedFormula` records not just the count but
        how it was obtained.

        Every BSAT call of the count, the shortcut and each core's probes,
        runs on one :class:`~repro.sat.enumerate.SolverSession` over the
        formula: the base clauses load once, each probe's hash rows enter
        as a releasable group, and learnt clauses carry across probes.
        """
        session = SolverSession(self.cnf)
        # Shortcut shared by every core iteration: if |R| <= pivot, the count
        # is exact and no hashing is needed.
        first = self._cell(session, [])
        if first.complete and len(first) <= self.pivot:
            return CountResult(count=len(first), exact=True, iterations=0)

        estimates: list[int] = []
        failures = 0
        for _ in range(self.iterations):
            outcome = self._core(session)
            if outcome.estimate is None:
                failures += 1
            else:
                estimates.append(outcome.estimate)
        if not estimates:
            return CountResult(
                count=None, iterations=self.iterations, failures=failures
            )
        estimates.sort()
        median = estimates[len(estimates) // 2]
        return CountResult(
            count=median,
            exact=False,
            iterations=self.iterations,
            failures=failures,
        )

    # ------------------------------------------------------------------
    def _cell(self, session: SolverSession, xors):
        """BSAT of the cell ``xors`` cuts out, up to pivot+1 witnesses."""
        return session.bsat(
            xors,
            self.pivot + 1,
            sampling_set=self._svars,
            budget=self._budget,
        )

    def _cell_size(self, session: SolverSession, xors) -> int | None:
        """|cell| clipped at pivot+1; None on budget exhaustion."""
        cell = self._cell(session, xors)
        if cell.budget_exhausted:
            return None
        return len(cell)

    def _core(self, session: SolverSession) -> _CoreOutcome:
        """One ApproxMCCore run (CP'13 linear search)."""
        if self.search == "galloping":
            return self._core_galloping(session)
        assert self._family is not None
        n = len(self._svars)
        for i in range(1, n + 1):
            constraint = self._family.draw(i, self._rng)
            size = self._cell_size(session, constraint.xors)
            if size is None:
                return _CoreOutcome(estimate=None)
            if 1 <= size <= self.pivot:
                return _CoreOutcome(estimate=size * (1 << i))
            if size == 0:
                # Larger i only shrinks cells further: fail this core.
                return _CoreOutcome(estimate=None)
        return _CoreOutcome(estimate=None)

    def _core_galloping(self, session: SolverSession) -> _CoreOutcome:
        """One ApproxMC2-style core: prefix-consistent matrix + galloping.

        With a single matrix whose prefixes define the cells, |cell(i)| is
        monotone non-increasing in i, so the boundary "first i with
        |cell| <= pivot" is well-defined and binary-searchable.
        """
        assert self._family is not None
        n = len(self._svars)
        matrix = self._family.draw_matrix(n, self._rng)

        sizes: dict[int, int] = {}

        def size_at(i: int) -> int | None:
            if i not in sizes:
                got = self._cell_size(session, matrix.xors[:i])
                if got is None:
                    return None
                sizes[i] = got
            return sizes[i]

        # Exponential probe for some prefix length with |cell| <= pivot.
        # Every earlier probe was > pivot; by monotonicity, hi // 2 (which
        # never exceeds the last failed probe) is a valid lower bracket.
        probe = 1
        while True:
            size = size_at(probe)
            if size is None:
                return _CoreOutcome(estimate=None)
            if size <= self.pivot:
                hi = probe
                break
            if probe == n:
                return _CoreOutcome(estimate=None)
            probe = min(probe * 2, n)
        lo = hi // 2  # |cell(lo)| > pivot (lo == 0 means the unhashed set)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            size = size_at(mid)
            if size is None:
                return _CoreOutcome(estimate=None)
            if size <= self.pivot:
                hi = mid
            else:
                lo = mid
        boundary = size_at(hi)
        if boundary is None or boundary == 0:
            return _CoreOutcome(estimate=None)
        return _CoreOutcome(estimate=boundary * (1 << hi))


def approx_count(
    cnf: CNF,
    epsilon: float = 0.8,
    delta: float = 0.2,
    iterations: int | None = None,
    rng: RandomSource | int | None = None,
    budget: Budget | None = None,
    search: str = "linear",
) -> CountResult:
    """One-shot convenience wrapper around :class:`ApproxMC`."""
    return ApproxMC(
        cnf,
        epsilon=epsilon,
        delta=delta,
        iterations=iterations,
        rng=rng,
        budget=budget,
        search=search,
    ).count()
