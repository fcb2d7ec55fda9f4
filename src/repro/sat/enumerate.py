"""``BSAT`` — bounded model enumeration (Section 4, "Implementation issues").

``BSAT(F, N)`` returns up to ``N`` witnesses of ``F`` that are *distinct in
their projection onto the sampling set* ``S``.  After each witness, a
blocking clause over only the variables of ``S`` is added — the optimization
the paper implemented inside CryptoMiniSAT ("blocking clauses can be
restricted to only variables in the set S"), which keeps blocking clauses
short when ``S`` is a small independent support.

Enumeration is incremental: the blocking clause is attached where the
search stands, and the solver backtracks only to the clause's asserting
level (the second-highest decision level among its literals, or one level
below a tie of the two highest) before it looks for the next witness,
instead of restarting from the root (:meth:`Solver.block_model`).  Each
witness still costs exactly one ``solve()`` call.

Callers that need to distinguish "the cell has exactly N witnesses" from
"the cell has more than N" should request ``N + 1`` and inspect
``EnumerationResult.complete`` / the returned count, which is what UniGen
does for its threshold tests.  ``complete`` is True only when enumeration
stopped *below* the bound, so a cell of exactly ``N`` witnesses enumerated
with bound ``N`` always reports ``complete=False``.

The result is independent of the solver's search: the solver is seeded
from a fixed constant (it never draws from a sampler's random stream) and
the models come back sorted by their values on ``S``.  A complete
enumeration is therefore a pure function of the cell's witness set, which
is what lets UniGen's fixed-seed streams survive any change to the solver,
including the move from one fresh solver per cell to one
:class:`SolverSession` per sweep.

Two entry points share the enumeration loop: :func:`bsat`, a one-shot
call on a fresh solver (the baselines, ApproxMC, and the reference the
session tests compare against), and :meth:`SolverSession.bsat`, which
UniGen's cell search uses for every cell.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from ..cnf.formula import CNF
from ..cnf.xor import XorClause
from .gauss import gaussian_eliminate, rows_as_xors
from .solver import Solver
from .types import SAT, UNKNOWN, UNSAT, Budget, EnumerationResult, SolverStats

#: Seed of every enumeration solver's tie-breaking stream.  A constant, so
#: the solver never consumes a sampler's random stream.
_SOLVER_SEED = 0


def gauss_reduce_xors(cnf: CNF) -> CNF | None:
    """Replace the XOR clauses of ``cnf`` with their reduced row-echelon form.

    Row reduction over GF(2) preserves the solution set exactly, so every
    guarantee downstream is untouched — but it transforms the random dense
    rows drawn from ``Hxor`` into rows with distinct pivot variables, which
    restores efficient unit propagation (this is the role Gauss–Jordan
    elimination plays inside CryptoMiniSAT, Section 4 "Implementation
    issues").  Returns ``None`` when the XOR system alone is inconsistent
    (the formula is UNSAT), else a new :class:`CNF`.
    """
    if not cnf.xor_clauses:
        return cnf
    reduced = gaussian_eliminate(cnf.xor_clauses, cnf.num_vars)
    if reduced.inconsistent:
        return None
    out = CNF(cnf.num_vars, name=cnf.name)
    out.clauses = list(cnf.clauses)
    out.sampling_set = cnf.sampling_set
    for xor in rows_as_xors(reduced.rows):
        out.add_xor(xor)
    return out


def bsat(
    cnf: CNF,
    bound: int,
    sampling_set: Sequence[int] | None = None,
    budget: Budget | None = None,
    block_full_support: bool = False,
    gauss: bool = True,
) -> EnumerationResult:
    """Enumerate up to ``bound`` witnesses of ``cnf`` distinct on ``S``.

    Parameters
    ----------
    cnf:
        The formula (clauses + native XOR clauses allowed).
    bound:
        Maximum number of witnesses to return (``N`` in the paper).
    sampling_set:
        The set ``S``; defaults to ``cnf.sampling_set`` or, failing that, the
        full syntactic support.
    budget:
        Total budget for the whole enumeration: ``timeout_seconds`` is a
        wall-clock deadline for the entire BSAT call (the paper's 2,500 s
        limit), ``max_conflicts`` a total conflict allowance.
    block_full_support:
        If True, blocking clauses mention every variable (the un-optimized
        behaviour UniWit is stuck with); used by the A3 ablation.
    gauss:
        If True (default), Gauss-reduce the XOR system before solving — the
        CryptoMiniSAT behaviour.  Solution-set preserving; disable only for
        the solver ablation benchmarks.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    budget = budget or Budget()
    if sampling_set is None:
        svars: list[int] = list(cnf.sampling_set_or_support())
    else:
        svars = sorted(set(sampling_set))
    if block_full_support:
        svars = list(range(1, cnf.num_vars + 1))

    result = EnumerationResult()
    if bound == 0:
        return result
    if gauss:
        reduced = gauss_reduce_xors(cnf)
        if reduced is None:
            result.complete = True
            result.solver = SolverStats()
            return result
        cnf = reduced
    solver = Solver(cnf, rng=_SOLVER_SEED)
    return _enumerate(solver, bound, svars, budget, cnf.num_vars)


def _enumerate(
    solver: Solver,
    bound: int,
    svars: Sequence[int],
    budget: Budget,
    num_vars: int,
    assumptions: Sequence[int] = (),
    tag=None,
) -> EnumerationResult:
    """The blocking-clause enumeration loop of both entry points.

    :func:`bsat` passes no group; a session passes the ``assumptions`` and
    ``tag`` of the call's constraint group, so the search runs under the
    group's assumptions and each blocking clause carries the group's guard
    literal.  Either way :meth:`Solver.block_model` blocks a model at its
    asserting level and the next ``solve()`` resumes from there.  Models
    are cut to the first ``num_vars`` variables so session auxiliaries
    never leak into witnesses.  ``result.solver`` carries the
    solver-counter deltas this call spent, whichever exit is taken, and
    ``result.models`` comes back sorted by the models' values on
    ``svars`` (ascending, False < True).
    """
    deadline = (
        time.monotonic() + budget.timeout_seconds
        if budget.timeout_seconds is not None
        else None
    )
    conflicts_left = budget.max_conflicts
    result = EnumerationResult()
    before = solver.stats.snapshot()
    try:
        while True:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    # Deadline fully elapsed: report exhaustion now rather
                    # than issuing one more solve() with a zero timeout.
                    result.budget_exhausted = True
                    return result
            else:
                remaining = None
            call_budget = Budget(
                max_conflicts=conflicts_left,
                timeout_seconds=remaining,
            )
            res = solver.solve(assumptions, call_budget, model_vars=num_vars)
            if conflicts_left is not None:
                conflicts_left = max(conflicts_left - res.conflicts, 0)
            if res.status == UNKNOWN:
                result.budget_exhausted = True
                return result
            if res.status == UNSAT:
                result.complete = True
                return result
            assert res.status == SAT and res.model is not None
            result.models.append(res.model)
            if len(result.models) == bound:
                # Stopped at the bound: whether a further witness exists
                # is unknown, so the result is never complete here.
                return result
            if not svars:
                # Empty projection space: one point only.
                result.complete = True
                return result
            if not solver.block_model(svars, tag):
                result.complete = True
                return result
            if conflicts_left is not None and conflicts_left == 0:
                result.budget_exhausted = True
                return result
    finally:
        result.models.sort(key=lambda m: [m[v] for v in svars])
        result.solver = solver.stats.since(before)


class SolverSession:
    """One CDCL solver carried across the BSAT calls of a sweep.

    Construction loads the *base* formula (clauses plus its own XOR
    clauses) once.  Each :meth:`bsat` call installs that call's hash rows
    as a releasable group (:meth:`~repro.sat.solver.Solver.add_xor_group`),
    enumerates under the group's assumptions with group-scoped blocking
    clauses, and releases the group on the way out — so learnt clauses,
    VSIDS activity, and saved phases over base variables survive from cell
    to cell, the way the paper's CryptoMiniSAT deployment rides the
    incremental interface.

    ``budget`` is an optional *session* allowance shared by every call:
    remaining conflicts / wall-clock are layered under each call's own
    ``Budget`` slice, i.e. the effective per-call limit is the minimum of
    the slice and what the session has left.
    """

    def __init__(
        self,
        cnf: CNF,
        budget: Budget | None = None,
    ):
        self._num_vars = cnf.num_vars
        self._default_svars: list[int] = list(cnf.sampling_set_or_support())
        self._solver = Solver(cnf, rng=_SOLVER_SEED)
        self._next_tag = 0
        shared = budget or Budget()
        self._conflicts_left = shared.max_conflicts
        self._deadline = (
            time.monotonic() + shared.timeout_seconds
            if shared.timeout_seconds is not None
            else None
        )

    @property
    def solver(self) -> Solver:
        return self._solver

    @property
    def stats(self) -> SolverStats:
        """Cumulative solver counters for the whole session."""
        return self._solver.stats

    def bsat(
        self,
        xors: Iterable[XorClause],
        bound: int,
        sampling_set: Sequence[int] | None = None,
        budget: Budget | None = None,
    ) -> EnumerationResult:
        """Enumerate up to ``bound`` witnesses of base ∧ ``xors``.

        Same contract as :func:`bsat`, but the hash rows come in as a
        group on the shared solver instead of a fresh conjoined formula.
        The rows are Gauss-reduced standalone before grouping.
        """
        if bound < 0:
            raise ValueError("bound must be non-negative")
        budget = budget or Budget()
        if sampling_set is None:
            svars = list(self._default_svars)
        else:
            svars = sorted(set(sampling_set))
        result = EnumerationResult()
        if bound == 0:
            return result
        rows = list(xors)
        if rows:
            reduced = gaussian_eliminate(rows, self._num_vars)
            if reduced.inconsistent:
                result.complete = True
                result.solver = SolverStats()
                return result
            rows = list(rows_as_xors(reduced.rows))
        sliced = self._slice(budget)
        tag = self._next_tag
        self._next_tag += 1
        solver = self._solver
        assumptions = solver.add_xor_group(rows, tag)
        try:
            result = _enumerate(
                solver, bound, svars, sliced, self._num_vars,
                assumptions=assumptions, tag=tag,
            )
        finally:
            solver.release_group(tag)
        if self._conflicts_left is not None and result.solver is not None:
            self._conflicts_left = max(
                self._conflicts_left - result.solver.conflicts, 0
            )
        return result

    def _slice(self, call_budget: Budget) -> Budget:
        """The per-call budget capped by what the session has left."""
        max_conflicts = call_budget.max_conflicts
        if self._conflicts_left is not None:
            max_conflicts = (
                self._conflicts_left
                if max_conflicts is None
                else min(max_conflicts, self._conflicts_left)
            )
        timeout = call_budget.timeout_seconds
        if self._deadline is not None:
            remaining = max(self._deadline - time.monotonic(), 0.0)
            timeout = remaining if timeout is None else min(timeout, remaining)
        return Budget(max_conflicts=max_conflicts, timeout_seconds=timeout)


def enumerate_all(
    cnf: CNF,
    sampling_set: Sequence[int] | None = None,
    limit: int = 1_000_000,
) -> list[dict[int, bool]]:
    """Enumerate *all* witnesses distinct on the sampling set.

    Raises :class:`RuntimeError` if more than ``limit`` witnesses exist —
    this is a test/fixture helper, not a production counter (use
    :mod:`repro.counting` for that).
    """
    result = bsat(cnf, limit + 1, sampling_set=sampling_set)
    if not result.complete:
        raise RuntimeError(f"formula has more than {limit} witnesses")
    return result.models


def projections(
    models: Iterable[dict[int, bool]], svars: Sequence[int]
) -> list[tuple[int, ...]]:
    """Project each model onto ``svars`` as a sorted literal tuple."""
    ordered = sorted(svars)
    return [tuple(v if m[v] else -v for v in ordered) for m in models]
