"""UniGen — Algorithm 1 of the paper, the primary contribution.

An almost-uniform SAT witness generator with the two-sided guarantee of
Theorem 1: for every witness ``y`` of ``F`` (with ε > 1.71 and ``S`` an
independent support),

    1/((1+ε)(|R_F|−1)) ≤ Pr[UniGen(F, ε, S) = y] ≤ (1+ε)/(|R_F|−1),

and success probability ≥ 0.62.

Structure mirrors the pseudocode:

* **lines 1–3** — ``ComputeKappaPivot(ε)`` and the cell-size window
  ``[loThresh, hiThresh]`` (:mod:`repro.core.kappa_pivot`);
* **lines 4–7** — the easy case: if ``|R_F| ≤ hiThresh``, enumerate all
  witnesses once and return uniform draws forever after;
* **lines 9–11** — one ApproxMC call (ε' = δ' = 0.8) fixes the window
  ``{q−3, …, q}`` of candidate hash sizes;
* **lines 12–22** — per sample: grow ``i`` through the window, draw
  ``(h, α)`` from ``Hxor(|S|, i, 3)``, enumerate the cell with ``BSAT``
  bounded by ``hiThresh``, and return a uniform member of the first cell
  whose size lands in the window (⊥ if none does).  The search itself lives
  in :mod:`repro.core.cellsearch`, shared with UniGen2.

The expensive lines 1–11 run **once per formula** (``prepare()``); repeated
``sample()`` calls re-run only lines 12–22.  This is the legitimate
amortization the paper contrasts with "leap-frogging" — it sacrifices no
guarantees.  The lines-1–11 artifact can moreover be exported as a
:class:`repro.api.PreparedFormula` (JSON-serializable) and handed to any
number of UniGen/UniGen2 instances via the ``prepared`` argument, which
skips the easy-case BSAT call and the ApproxMC run entirely.  Per Section
5, a BSAT timeout inside the loop causes lines 14–16 to be repeated
*without incrementing* ``i``.
"""

from __future__ import annotations

import math
import time

from ..cnf.formula import CNF
from ..counting.approxmc import ApproxMC
from ..counting.types import CountResult
from ..errors import BudgetExhausted, SamplingError, UnsatisfiableError
from ..hashing import HxorFamily
from ..rng import RandomSource, as_random_source
from ..sat.enumerate import SolverSession
from ..sat.types import Budget
from .base import Witness, WitnessSampler
from .cellsearch import AcceptedCell, CellSearch
from .kappa_pivot import KappaPivot, compute_kappa_pivot

#: ApproxMC tolerance and confidence hard-wired by Algorithm 1, line 9.
_APPROXMC_EPSILON = 0.8
_APPROXMC_DELTA = 0.2  # confidence 1 - δ' = 0.8


class UniGen(WitnessSampler):
    """Almost-uniform witness generator (UniGen, DAC 2014).

    Parameters
    ----------
    cnf:
        The formula ``F`` (clauses and native XOR clauses allowed).
    epsilon:
        Tolerance ε > 1.71.  The paper's experiments use ε = 6.
    sampling_set:
        The set ``S`` — intended to be an independent support of ``F``.
        Defaults to ``cnf.sampling_set`` (e.g. from a ``c ind`` DIMACS line
        or a Tseitin encoder) or, failing that, the full support: the
        guarantees hold for any independent support, the performance depends
        on |S|.
    rng:
        Random source or seed.
    bsat_budget:
        Per-BSAT-call budget; ``timeout_seconds`` plays the role of the
        paper's 2,500 s cap, triggering the retry-without-increment rule.
    max_retries_per_cell:
        How many timed-out BSAT calls to retry at one ``i`` before raising
        :class:`~repro.errors.BudgetExhausted` (the paper's overall 20 h
        limit, made deterministic).
    approxmc_iterations:
        Core-iteration override for the internal ApproxMC call.  ``None``
        uses the CP'13 theoretical count (⌈35·log₂(3/δ)⌉ = 137), which is
        prohibitively conservative; the default 9 keeps the empirical
        confidence far above the required 0.8 (verified by the test suite)
        at a fraction of the cost.
    prepared:
        A :class:`repro.api.PreparedFormula` for this formula (e.g. loaded
        from a cache file, or shared with another sampler).  When given,
        :meth:`prepare` adopts its lines-1–11 artifact instead of running
        the easy-case BSAT call and ApproxMC.  Its ``epsilon`` and
        ``sampling_set`` must match this sampler's.
    """

    name = "UniGen"

    def __init__(
        self,
        cnf: CNF,
        epsilon: float = 6.0,
        sampling_set=None,
        rng: RandomSource | int | None = None,
        bsat_budget: Budget | None = None,
        max_retries_per_cell: int = 20,
        approxmc_iterations: int | None = 9,
        hash_density: float = 0.5,
        prepared=None,
    ):
        super().__init__()
        self.cnf = cnf
        self.epsilon = float(epsilon)
        self.kp: KappaPivot = compute_kappa_pivot(self.epsilon)
        self._rng = as_random_source(rng)
        if sampling_set is None:
            self._svars = list(cnf.sampling_set_or_support())
        else:
            self._svars = sorted(set(sampling_set))
        # hash_density != 0.5 switches to the sparse "short XOR" family of
        # Gomes et al. 2007 — faster solving, but Theorem 1 NO LONGER HOLDS
        # (the family stops being 3-independent).  Ablation A4 only.
        self._family = (
            HxorFamily(self._svars, density=hash_density) if self._svars else None
        )
        self._bsat_budget = bsat_budget
        self._max_retries = max_retries_per_cell
        self._approxmc_iterations = approxmc_iterations
        # prepare() outputs:
        self._prepared = False
        self._easy_witnesses: list[Witness] | None = None
        self._q: int | None = None
        self.approx_count_value: int | None = None
        self.approx_count_result: CountResult | None = None
        self._engine: CellSearch | None = None
        self._adopted = prepared
        if prepared is not None:
            self._check_prepared_compatible(prepared)

    # ------------------------------------------------------------------
    @property
    def sampling_set(self) -> list[int]:
        """The set ``S`` actually in use."""
        return list(self._svars)

    @property
    def hi_thresh(self) -> int:
        return self.kp.hi_thresh

    @property
    def lo_thresh(self) -> float:
        return self.kp.lo_thresh

    @property
    def q(self) -> int | None:
        """Upper end of the hash-size window {q−3..q} (after prepare())."""
        return self._q

    @property
    def easy_witnesses(self) -> list[Witness] | None:
        """The full witness list when the easy case applied (lines 5–7)."""
        return self._easy_witnesses

    # ------------------------------------------------------------------
    def _check_prepared_compatible(self, prepared) -> None:
        """Reject an artifact built for a different formula, ε, or sampling
        set: the witness list / window {q−3..q} and the hash family are tied
        to all three, and a mismatch silently voids Theorem 1."""
        p_eps = getattr(prepared, "epsilon", None)
        if p_eps is not None and abs(float(p_eps) - self.epsilon) > 1e-9:
            raise SamplingError(
                f"prepared artifact was built for epsilon={p_eps}, "
                f"sampler uses epsilon={self.epsilon}"
            )
        p_svars = getattr(prepared, "sampling_set", None)
        if p_svars is not None and sorted(p_svars) != sorted(self._svars):
            raise SamplingError(
                "prepared artifact was built for a different sampling set"
            )
        p_cnf = getattr(prepared, "cnf", None)
        if p_cnf is not None and p_cnf is not self.cnf:
            from ..cnf.dimacs import dimacs_body

            if dimacs_body(p_cnf) != dimacs_body(self.cnf):
                raise SamplingError(
                    "prepared artifact was built for a different formula"
                )

    def prepare(self) -> None:
        """Run lines 1–11 once: easy-case check and the ApproxMC estimate.

        Idempotent; called automatically by the first :meth:`sample`.  When
        a prepared artifact was supplied, its outputs are adopted instead —
        no BSAT or ApproxMC calls are made.  Raises
        :class:`~repro.errors.UnsatisfiableError` if ``F`` has no witnesses
        at all (the paper's generators assume ``R_F ≠ ∅``).
        """
        if self._prepared:
            return
        start = time.monotonic()
        try:
            if self._adopted is not None:
                self._adopt_prepared(self._adopted)
            else:
                self._prepare_inner()
        finally:
            self.stats.setup_time_seconds += time.monotonic() - start
        self._prepared = True

    def _adopt_prepared(self, prepared) -> None:
        easy = getattr(prepared, "easy_witnesses", None)
        if easy is not None:
            self._easy_witnesses = [dict(w) for w in easy]
            return
        q = getattr(prepared, "q", None)
        if q is None:
            raise SamplingError(
                "prepared artifact has neither easy witnesses nor a q window"
            )
        self._q = int(q)
        count = getattr(prepared, "approx_count", None)
        if isinstance(count, CountResult):
            self.approx_count_result = count
            self.approx_count_value = count.count
        elif count is not None:
            self.approx_count_value = int(count)

    def _prepare_inner(self) -> None:
        hi = self.kp.hi_thresh
        first = SolverSession(self.cnf).bsat(
            (),
            hi + 1,
            sampling_set=self._svars,
            budget=self._bsat_budget,
        )
        self.stats.bsat_calls += 1
        self.stats.book_solver(first.solver)
        if first.budget_exhausted:
            raise BudgetExhausted("initial BSAT call exceeded its budget")
        if len(first.models) == 0:
            raise UnsatisfiableError("formula has no witnesses")
        if first.complete and len(first.models) <= hi:
            # Lines 5–7: |R_F| <= hiThresh — uniform over the full list.
            self._easy_witnesses = first.models
            return
        counter = ApproxMC(
            self.cnf,
            epsilon=_APPROXMC_EPSILON,
            delta=_APPROXMC_DELTA,
            iterations=self._approxmc_iterations,
            rng=self._rng,
            budget=self._bsat_budget,
        )
        result = counter.count()
        self.stats.bsat_calls += counter.bsat_calls
        if result.count is None:
            raise SamplingError("ApproxMC failed in every iteration")
        self.approx_count_result = result
        self.approx_count_value = result.count
        # Line 10: q = ceil(log2 C + log2 1.8 - log2 pivot).
        self._q = math.ceil(
            math.log2(result.count) + math.log2(1.8) - math.log2(self.kp.pivot)
        )

    # ------------------------------------------------------------------
    def _find_accepted_cell(self) -> AcceptedCell | None:
        """Run the shared lines-12–19 search once (after :meth:`prepare`)."""
        assert self._q is not None and self._family is not None
        if self._engine is None:
            self._engine = CellSearch(
                cnf=self.cnf,
                family=self._family,
                sampling_set=self._svars,
                hi_thresh=self.kp.hi_thresh,
                lo_thresh=self.kp.lo_thresh,
                rng=self._rng,
                stats=self.stats,
                bsat_budget=self._bsat_budget,
                max_retries=self._max_retries,
            )
        cell = self._engine.find_accepted_cell(self._q)
        if cell is not None:
            self._last_cell_size = len(cell.models)
            self._last_hash_size = cell.hash_size
        return cell

    def _sample_once(self) -> Witness | None:
        self.prepare()
        if self._easy_witnesses is not None:
            self._last_cell_size = len(self._easy_witnesses)
            return dict(self._rng.choice(self._easy_witnesses))
        cell = self._find_accepted_cell()
        if cell is None:
            # Lines 18–19: window exhausted without an acceptable cell.
            return None
        # Lines 21–22: one uniform member of the accepted cell.
        return dict(self._rng.choice(cell.models))
