"""Shared types for the SAT subsystem.

Internal literal encoding (MiniSat-style): variable ``v`` (positive int) has
positive literal ``2*v`` and negative literal ``2*v + 1``; ``lit ^ 1`` negates
and ``lit >> 1`` recovers the variable.  Truth values are ``TRUE = 1``,
``FALSE = 0``, ``UNDEF = -1`` so that the truth of an internal literal under
an assignment ``a`` is ``a[lit >> 1] ^ (lit & 1)`` whenever assigned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TRUE = 1
FALSE = 0
UNDEF = -1

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


def to_internal(ext_lit: int) -> int:
    """External (DIMACS, signed) literal to internal encoding."""
    v = ext_lit if ext_lit > 0 else -ext_lit
    return (v << 1) | (ext_lit < 0)


def to_external(int_lit: int) -> int:
    """Internal literal back to DIMACS form."""
    v = int_lit >> 1
    return -v if int_lit & 1 else v


@dataclass
class SolverStats:
    """Cumulative counters over the life of a :class:`~repro.sat.Solver`."""

    decisions: int = 0
    propagations: int = 0
    xor_propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    learned_literals: int = 0
    db_reductions: int = 0
    removed_clauses: int = 0

    def snapshot(self) -> "SolverStats":
        return SolverStats(**self.__dict__)

    def since(self, earlier: "SolverStats") -> "SolverStats":
        """The counter deltas accumulated after ``earlier`` was snapshot."""
        return SolverStats(
            **{k: v - earlier.__dict__[k] for k, v in self.__dict__.items()}
        )


@dataclass
class SolveResult:
    """Outcome of a single :meth:`Solver.solve` call.

    ``status``
        One of :data:`SAT`, :data:`UNSAT`, :data:`UNKNOWN` (budget/timeout).
    ``model``
        For SAT: mapping ``var -> bool`` over all allocated variables.
    ``conflicts``
        Conflicts spent by this call (not cumulative).
    ``time_seconds``
        Wall-clock time of this call.
    """

    status: str
    model: dict[int, bool] | None = None
    conflicts: int = 0
    time_seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.status == SAT


@dataclass
class Budget:
    """Resource limits for one solve call.

    ``None`` fields are unlimited.  ``max_conflicts`` is the conventional
    deterministic budget (reproducible across machines); ``timeout_seconds``
    mirrors the paper's 2,500 s per-BSAT-call wall-clock limit.
    """

    max_conflicts: int | None = None
    max_propagations: int | None = None
    timeout_seconds: float | None = None

    def unlimited(self) -> bool:
        return (
            self.max_conflicts is None
            and self.max_propagations is None
            and self.timeout_seconds is None
        )


@dataclass
class EnumerationResult:
    """Outcome of one BSAT call, :meth:`repro.sat.SolverSession.bsat`.

    ``models``
        Distinct witnesses found (full models, ``var -> bool``).
    ``complete``
        True iff the enumeration proved there are no further witnesses
        (i.e. ``len(models)`` is exactly the projected model count).
    ``budget_exhausted``
        True iff a solver call gave up before the bound was reached; the
        caller (UniGen) must treat this as a BSAT timeout and retry.
    ``solver``
        The :class:`SolverStats` deltas this enumeration spent (conflicts,
        propagations, ...); ``None`` only for the trivial ``bound == 0``
        exit that never touched a solver.
    """

    models: list[dict[int, bool]] = field(default_factory=list)
    complete: bool = False
    budget_exhausted: bool = False
    solver: SolverStats | None = None

    def __len__(self) -> int:
        return len(self.models)
