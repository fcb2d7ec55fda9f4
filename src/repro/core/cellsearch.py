"""The shared cell-search engine: lines 12–19 of Algorithm 1.

UniGen and UniGen2 differ only in how an *accepted* cell is consumed (one
uniform member vs ⌈loThresh⌉ distinct members); the search for that cell —
sweep ``i`` through the window ``{q−3..q}``, draw ``(h, α)`` from
``Hxor(|S|, i, 3)``, enumerate the hashed formula with ``BSAT`` bounded by
``hiThresh``, accept the first cell whose size lands in
``[loThresh, hiThresh]`` — is identical, including the Section 5 rule that
a BSAT timeout repeats lines 14–16 *without incrementing* ``i``.

This module holds that search exactly once.  The engine mutates the owning
sampler's :class:`~repro.core.base.SamplerStats` in place so that the
bsat-call / XOR-length / timeout accounting of Tables 1 and 2 keeps working
unchanged no matter which sampler drives it.  Timed-out draws that the
Section 5 rule discards are accounted under ``xor_clauses_retried`` /
``xor_literals_retried``, never under the ``*_added`` counters the
"Avg XOR len" columns divide — a retried cell contributed no results, so
folding its rows in would skew the table math.

Every sweep solves on one :class:`~repro.sat.enumerate.SolverSession`, the
way the paper rides CryptoMiniSAT's incremental interface (Section 4,
"Implementation issues"): the base formula is loaded once per sweep, and
each cell's Gauss-reduced hash rows enter as a releasable XOR group, so
learnt clauses, VSIDS activity and saved phases over the base formula
carry from cell to cell instead of cold-starting.  Each ``i`` still draws
an independent ``(h, α)``.  BSAT draws nothing from the sampler's random
stream and returns each cell in canonical order, so the fixed-seed stream
is the one a fresh solver per cell would draw.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cnf.formula import CNF
from ..errors import BudgetExhausted
from ..hashing import HxorFamily
from ..rng import RandomSource
from ..sat.enumerate import SolverSession
from ..sat.types import Budget
from .base import SamplerStats, Witness


@dataclass(frozen=True)
class AcceptedCell:
    """A cell that passed the ``[loThresh, hiThresh]`` acceptance test.

    ``models``
        The cell's witnesses (projected on the sampling set).
    ``hash_size``
        The number of XOR constraints ``i`` that produced the cell —
        reported as ``hash_size`` in :class:`~repro.core.base.SampleResult`.
    """

    models: list[Witness]
    hash_size: int


class CellSearch:
    """Lines 12–19 of Algorithm 1 over a fixed formula and hash family.

    One instance is created per prepared sampler and reused for every
    sample; it is stateless between calls apart from the shared ``stats``.
    """

    def __init__(
        self,
        cnf: CNF,
        family: HxorFamily,
        sampling_set: list[int],
        hi_thresh: int,
        lo_thresh: float,
        rng: RandomSource,
        stats: SamplerStats,
        bsat_budget: Budget | None = None,
        max_retries: int = 20,
    ):
        self._cnf = cnf
        self._family = family
        self._svars = sampling_set
        self._hi = hi_thresh
        self._lo = lo_thresh
        self._rng = rng
        self._stats = stats
        self._budget = bsat_budget
        self._max_retries = max_retries

    def draw_cell(self, i: int, session: SolverSession) -> list[Witness]:
        """One ``(h, α)`` draw and bounded enumeration (lines 14–16).

        Retries a fresh draw at the same ``i`` on BSAT timeout (Section 5),
        raising :class:`~repro.errors.BudgetExhausted` after
        ``max_retries`` consecutive timeouts.  The rows enter ``session``
        as a releasable group.
        """
        retries = 0
        while True:
            constraint = self._family.draw(i, self._rng)
            cell = session.bsat(
                constraint.xors,
                self._hi + 1,
                sampling_set=self._svars,
                budget=self._budget,
            )
            self._stats.bsat_calls += 1
            self._stats.book_solver(cell.solver)
            n_clauses = len(constraint.xors)
            n_literals = sum(len(x) for x in constraint.xors)
            if not cell.budget_exhausted:
                self._stats.xor_clauses_added += n_clauses
                self._stats.xor_literals_added += n_literals
                return cell.models
            # Section 5 retry: this draw's cell is discarded, so its rows
            # must not feed the Avg-XOR-len columns — book them separately.
            self._stats.bsat_timeouts += 1
            self._stats.xor_clauses_retried += n_clauses
            self._stats.xor_literals_retried += n_literals
            retries += 1
            if retries > self._max_retries:
                raise BudgetExhausted(
                    f"BSAT timed out {retries} times at hash size {i}"
                )

    def find_accepted_cell(self, q: int) -> AcceptedCell | None:
        """Sweep ``i`` through ``{q−3..q}``; return the first accepted cell.

        ``None`` is the ⊥ outcome of lines 18–19 (window exhausted without
        an acceptable cell).  An ``i`` below zero — possible only when
        ApproxMC underestimated a count the easy case would normally have
        caught — is skipped rather than treated as "no hashing".
        """
        session = SolverSession(self._cnf)
        for i in range(max(q - 3, 0), q + 1):
            models = self.draw_cell(i, session)
            if self._lo <= len(models) <= self._hi:
                return AcceptedCell(models=models, hash_size=i)
        return None
