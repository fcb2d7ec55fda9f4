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

Two search modes share the acceptance logic:

*fresh* (default, the paper's exact protocol)
    Each ``i`` draws an independent ``(h, α)`` and Gauss-reduces the hashed
    formula from scratch inside BSAT.

*matrix reuse* (opt-in, ``matrix_reuse=True``)
    One :meth:`HxorFamily.draw_matrix` draw per sweep; hash size ``i`` uses
    the first ``i`` rows (prefix-consistent, as in ApproxMC2), and the
    GF(2) elimination state is carried *incrementally* across the
    ``{q−3..q}`` window in a :class:`~repro.sat.gf2.BitMatrix` — growing
    ``i`` appends one row to already-eliminated state instead of
    re-reducing ``i`` rows from scratch.  Distributionally each prefix is
    an honest ``Hxor`` draw, but the prefixes of one sweep are coupled and
    the RNG consumption differs from fresh mode, so the mode is off by
    default to preserve fixed-seed streams.

Orthogonally, *solver reuse* (opt-in, ``solver_reuse=True``) keeps one
:class:`~repro.sat.enumerate.SolverSession` alive for all BSAT calls of a
sweep: each cell's hash rows enter as a releasable XOR group, so learnt
clauses / VSIDS activity / saved phases over the base formula carry from
cell to cell instead of cold-starting.  It composes with either search
mode — under ``matrix_reuse`` the pre-reduced prefix rows become the
incremental groups.  BSAT draws nothing from the sampler's random stream
and returns each cell in canonical order, so solver reuse changes no RNG
consumption: its fixed-seed streams equal those of fresh solving.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cnf.formula import CNF
from ..errors import BudgetExhausted
from ..hashing import HxorFamily
from ..hashing.xor_family import HashConstraint
from ..rng import RandomSource
from ..sat.enumerate import SolverSession, bsat
from ..sat.gauss import rows_as_xors
from ..sat.gf2 import BitMatrix
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

    ``matrix_reuse`` selects the prefix-consistent incremental search (see
    the module docstring); ``gf2_backend`` picks the elimination kernel for
    that mode (``python`` | ``numpy`` | ``auto``/None).
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
        matrix_reuse: bool = False,
        gf2_backend: str | None = None,
        solver_reuse: bool = False,
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
        self._matrix_reuse = matrix_reuse
        self._gf2_backend = gf2_backend
        self._solver_reuse = solver_reuse
        # Lazily eliminated base XOR system of ``cnf`` (matrix-reuse mode):
        # copied at the start of each sweep so hash rows append onto
        # already-reduced state.
        self._base_matrix: BitMatrix | None = None

    def draw_cell(
        self, i: int, session: SolverSession | None = None
    ) -> list[Witness]:
        """One ``(h, α)`` draw and bounded enumeration (lines 14–16).

        Retries a fresh draw at the same ``i`` on BSAT timeout (Section 5),
        raising :class:`~repro.errors.BudgetExhausted` after
        ``max_retries`` consecutive timeouts.  With a ``session`` the rows
        enter the shared solver as a releasable group instead of building
        a fresh conjoined formula.
        """
        retries = 0
        while True:
            constraint = self._family.draw(i, self._rng)
            if session is not None:
                cell = session.bsat(
                    constraint.xors,
                    self._hi + 1,
                    sampling_set=self._svars,
                    budget=self._budget,
                )
            else:
                hashed = self._cnf.conjoined_with(xors=constraint.xors)
                cell = bsat(
                    hashed,
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
        session = self._make_session() if self._solver_reuse else None
        if self._matrix_reuse:
            return self._find_accepted_cell_prefix(q, session)
        i = q - 4
        while i < q:
            i += 1
            if i < 0:
                continue
            models = self.draw_cell(i, session)
            if self._lo <= len(models) <= self._hi:
                return AcceptedCell(models=models, hash_size=i)
        return None

    def _make_session(self) -> SolverSession:
        """A fresh per-sweep solver session over the base formula."""
        return SolverSession(self._cnf)

    # -- matrix-reuse (prefix-consistent, incremental) mode -------------
    def _base_state(self) -> BitMatrix:
        """A fresh copy of ``cnf``'s eliminated XOR system."""
        if self._base_matrix is None:
            matrix = BitMatrix.create(self._cnf.num_vars, backend=self._gf2_backend)
            matrix.extend_xors(self._cnf.xor_clauses)
            self._base_matrix = matrix
        return self._base_matrix.copy()

    def _find_accepted_cell_prefix(
        self, q: int, session: SolverSession | None = None
    ) -> AcceptedCell | None:
        """The window sweep over prefixes of one ``draw_matrix`` draw.

        Hash size ``i`` uses rows ``0..i`` of the matrix; the elimination
        state grows with ``i`` instead of restarting.  A BSAT timeout
        redraws the whole matrix and rebuilds the prefix at the same ``i``
        (Section 5's fresh-``(h, α)``-same-``i`` rule carried over to the
        prefix protocol); the retry counter is per ``i``, matching
        :meth:`draw_cell`.
        """
        rows = max(q, 0)
        constraint = self._family.draw_matrix(rows, self._rng)
        state = self._base_state()
        appended = 0
        retries = 0
        i = q - 4
        while i < q:
            i += 1
            if i < 0:
                continue
            while appended < i:
                state.append_xor(constraint.xors[appended])
                appended += 1
            models, timed_out = self._enumerate_prefix(
                state, constraint, i, session
            )
            if timed_out:
                retries += 1
                if retries > self._max_retries:
                    raise BudgetExhausted(
                        f"BSAT timed out {retries} times at hash size {i}"
                    )
                constraint = self._family.draw_matrix(rows, self._rng)
                state = self._base_state()
                appended = 0
                i -= 1
                continue
            retries = 0
            if self._lo <= len(models) <= self._hi:
                return AcceptedCell(models=models, hash_size=i)
        return None

    def _enumerate_prefix(
        self,
        state: BitMatrix,
        constraint: HashConstraint,
        i: int,
        session: SolverSession | None = None,
    ) -> tuple[list[Witness], bool]:
        """BSAT over the pre-reduced ``i``-row prefix; ``(models, timed_out)``.

        The hashed formula is assembled from ``state``'s reduced rows and
        solved with ``gauss=False`` — the elimination BSAT would redo per
        call already happened incrementally.  With a ``session`` the
        reduced rows become an incremental group on the shared solver.
        Accounting counts the drawn prefix rows (not the reduced ones) so
        fresh and reuse modes report comparable Avg-XOR-len numbers.
        """
        prefix = constraint.xors[:i]
        n_literals = sum(len(x) for x in prefix)
        if state.inconsistent:
            # The reduced system already contains 0 = 1: the cell is empty;
            # account it like the (trivially UNSAT) bsat call it replaces.
            self._stats.bsat_calls += 1
            self._stats.xor_clauses_added += i
            self._stats.xor_literals_added += n_literals
            return [], False
        if session is not None:
            cell = session.bsat(
                rows_as_xors(state.reduced_rows()),
                self._hi + 1,
                sampling_set=self._svars,
                budget=self._budget,
                gauss=False,
            )
        else:
            hashed = CNF(self._cnf.num_vars, name=self._cnf.name)
            hashed.clauses = list(self._cnf.clauses)
            hashed.sampling_set = self._cnf.sampling_set
            for xor in rows_as_xors(state.reduced_rows()):
                hashed.add_xor(xor)
            cell = bsat(
                hashed,
                self._hi + 1,
                sampling_set=self._svars,
                budget=self._budget,
                gauss=False,
            )
        self._stats.bsat_calls += 1
        self._stats.book_solver(cell.solver)
        if cell.budget_exhausted:
            self._stats.bsat_timeouts += 1
            self._stats.xor_clauses_retried += i
            self._stats.xor_literals_retried += n_literals
            return [], True
        self._stats.xor_clauses_added += i
        self._stats.xor_literals_added += n_literals
        return cell.models, False
