"""The CDCL solver with native XOR propagation: BSAT's oracle.

This is the library's stand-in for CryptoMiniSAT, which the paper uses as
the ``BSAT`` oracle.  :class:`Solver` is one of two cores with one API:

* :class:`NativeSolver`, a thin :mod:`ctypes` class over the C search core
  in ``solver_core.c``.  The whole search state lives in C: the clause
  table with two-watched-literal propagation, XOR records with two watched
  variables, the trail, first-UIP analysis with basic minimisation, the
  VSIDS heap, phase saving, Luby restarts, learnt-DB reduction, the single
  assumption level, :meth:`~NativeSolver.block_model` and the
  :meth:`~NativeSolver.add_xor_group` / :meth:`~NativeSolver.release_group`
  groups.  The library is compiled on first import with the system C
  compiler and cached under ``$XDG_CACHE_HOME/repro-native/`` (else
  ``~/.cache/repro-native/``); see :mod:`repro.sat.native`.
* :class:`~repro.sat.pysolver.PySolver`, the same algorithm in pure
  Python: the reference the equivalence tests hold the native core to.
  :class:`Solver` is ``PySolver`` only when no compiler or library is
  available (:data:`repro.sat.native.STATUS` says which core loaded);
  nothing else chooses between them.

The two cores make different search decisions, so a single model (what
``repro solve`` prints) and the answer of a conflict-budgeted call may
differ between them.  BSAT results do not: they are sorted cell sets, a
function of the witness set alone (:mod:`repro.sat.enumerate`), so
fixed-seed streams and prepared artifacts are the same on both cores.

Typical use::

    solver = Solver(cnf, rng=seed)
    result = solver.solve()
    if result:               # SAT
        model = result.model
"""

from __future__ import annotations

import array
import ctypes
import time
from itertools import compress, repeat
from typing import Iterable, Sequence

from ..cnf.formula import CNF
from ..cnf.xor import XorClause
from ..rng import RandomSource, as_random_source
from . import native
from .pysolver import PySolver, luby
from .types import SAT, UNKNOWN, UNSAT, Budget, SolveResult, SolverStats

__all__ = ["NativeSolver", "PySolver", "Solver", "luby", "select"]

#: ``rs_solve`` return codes, in order.
_STATUS = (SAT, UNSAT, UNKNOWN)
#: The int64 array shared with the core: the ``SolverStats`` counters in
#: field order, then the variable count and the value array's address.
_STATS = len(SolverStats.__dataclass_fields__)
_CONFLICTS = list(SolverStats.__dataclass_fields__).index("conflicts")
_NVARS, _VALUES = _STATS, _STATS + 1
_NO_BUDGET = Budget()


def _ints(values: Iterable[int]) -> tuple[ctypes.Array | None, int]:
    """``values`` as a C ``int`` array (``None`` when empty) and its length."""
    buf = array.array("i", values)
    return (ctypes.c_int * len(buf)).from_buffer(buf) if buf else None, len(buf)


class NativeSolver:
    """CDCL solver over clauses and native XOR constraints, in C.

    Clauses may be added between ``solve`` calls (the solver backtracks to
    the root level automatically); XOR constraints may be added any time
    before the next solve.  A SAT answer leaves the satisfying trail in
    place, so :meth:`block_model` can read the decision levels of the
    model it blocks.  ``rng`` seeds the core's own generator (one 64-bit
    draw from it), used for the occasional random decision.
    """

    def __init__(
        self,
        cnf: CNF | None = None,
        rng: RandomSource | int | None = None,
        phase_default: bool = False,
    ):
        self._lib = native.LIB
        self._shared = (ctypes.c_int64 * (_STATS + 2))()
        # Per-solve conflict, propagation and time limits; < 0 is none.
        self._limits = (ctypes.c_double * 3)()
        seed = as_random_source(rng).bits(64)
        self._handle = self._lib.rs_new(seed, int(phase_default),
                                        self._shared, self._limits)
        self._groups: dict[object, int] = {}
        # Solve and block_model are called over and over with the same
        # assumptions and sampling set: keep their C arrays.
        self._assumed: tuple = ((), _ints(()))
        self._blocked: tuple = ((), _ints(()))
        self._all_false: dict[int, bool] = {}
        if cnf is not None:
            self.add_cnf(cnf)

    def __del__(self):
        handle = getattr(self, "_handle", None)
        if handle:
            self._handle = None
            self._lib.rs_free(handle)

    @property
    def stats(self) -> SolverStats:
        """Cumulative counters over the life of this solver (a copy)."""
        return SolverStats(*self._shared[:_STATS])

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._shared[_NVARS]

    @property
    def ok(self) -> bool:
        """False once the clause set is known unsatisfiable at the root."""
        return bool(self._lib.rs_ok(self._handle))

    def ensure_vars(self, n: int) -> None:
        """Grow the variable space to at least ``n`` variables."""
        self._lib.rs_ensure_vars(self._handle, n)

    def add_cnf(self, cnf: CNF) -> None:
        """Load a whole formula (clauses + XOR clauses)."""
        self.ensure_vars(cnf.num_vars)
        flat = array.array("i")
        for clause in cnf.clauses:
            flat.extend(clause)
            flat.append(0)
        self._lib.rs_add_clauses(self._handle, *_ints(flat))
        for xor in cnf.xor_clauses:
            self.add_xor(xor)

    def add_clause(self, ext_lits: Iterable[int]) -> bool:
        """Add a clause (external/DIMACS literals) at the root level.

        Returns the solver's ``ok`` status.  Tautologies are dropped;
        literals already false at the root are removed; a resulting empty
        clause marks the instance unsatisfiable.
        """
        return bool(self._lib.rs_add_clause(self._handle, *_ints(ext_lits)))

    def add_xor(self, xor: XorClause) -> bool:
        """Add a native XOR constraint; attached lazily at the next solve."""
        return bool(self._lib.rs_add_xor(
            self._handle, *_ints(xor.vars), int(bool(xor.rhs))
        ))

    # ------------------------------------------------------------------
    # Assumption-guarded constraint groups (incremental sessions)
    # ------------------------------------------------------------------
    def add_xor_group(self, xors: Iterable[XorClause], tag) -> list[int]:
        """Register ``xors`` as a releasable group; returns its assumptions.

        Each row gets a fresh *activation variable* folded into its parity:
        the stored constraint is ``xor(vars ∪ {a}) = rhs``, which merely
        *defines* ``a`` while it is free, and collapses to
        ``xor(vars) = rhs`` under the assumption ``¬a``.  A per-group
        *guard variable* plays the same role for the group's blocking
        clauses (:meth:`block_model`).  The returned external literals (all
        negative) activate the group when passed to :meth:`solve`;
        :meth:`release_group` retires it for good.
        """
        if tag in self._groups:
            raise ValueError(f"group {tag!r} already exists")
        rows = list(xors)
        flat = array.array("i")
        for xor in rows:
            flat.extend((len(xor.vars), int(bool(xor.rhs))))
            flat.extend(xor.vars)
        aux = (ctypes.c_int * (1 + len(rows)))()
        self._groups[tag] = self._lib.rs_add_xor_group(
            self._handle, _ints(flat)[0], len(rows), aux
        )
        return [-v for v in aux]

    def release_group(self, tag) -> None:
        """Retire group ``tag``: detach its rows and clauses for good.

        Its auxiliary variables are assigned at the root, its blocking
        clauses go, and so does every learnt clause that mentions one of
        its variables; the other learnt clauses follow from the base
        formula alone and stay, which is the carried-over learning an
        incremental session is for.
        """
        self._lib.rs_release_group(self._handle, self._groups.pop(tag))

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        budget: Budget | None = None,
        model_vars: int | None = None,
    ) -> SolveResult:
        """Run CDCL search, optionally under assumptions and budgets.

        Search starts from the root, unless :meth:`block_model` ran since
        the last call and ``assumptions`` equal that call's: then it
        resumes from the trail :meth:`block_model` left.  ``model_vars``
        limits the returned model to variables ``1..model_vars`` (default:
        every variable).
        """
        start = time.monotonic()
        budget = budget or _NO_BUDGET
        shared, limits = self._shared, self._limits
        before = shared[_CONFLICTS]
        lits = tuple(assumptions)
        if lits != self._assumed[0]:
            self._assumed = (lits, _ints(lits))
        limits[0] = (-1.0 if budget.max_conflicts is None
                     else budget.max_conflicts)
        limits[1] = (-1.0 if budget.max_propagations is None
                     else budget.max_propagations)
        limits[2] = (-1.0 if budget.timeout_seconds is None
                     else max(budget.timeout_seconds, 0.0))
        code = self._lib.rs_solve(self._handle, *self._assumed[1])
        model = None
        if code == 0:
            width = shared[_NVARS]
            if model_vars is not None:
                width = min(width, model_vars)
            values = ctypes.string_at(shared[_VALUES] + 1, width)
            # Copying an all-False model and setting the true variables
            # costs about half of building the dict pair by pair.
            if len(self._all_false) != width:
                self._all_false = dict.fromkeys(range(1, width + 1), False)
            model = self._all_false.copy()
            model.update(zip(compress(range(1, width + 1), values),
                             repeat(True)))
        return SolveResult(
            status=_STATUS[code],
            model=model,
            conflicts=shared[_CONFLICTS] - before,
            time_seconds=time.monotonic() - start,
        )

    def block_model(self, svars: Sequence[int], tag=None) -> bool:
        """Forbid the current model's values on ``svars``; resume in place.

        Call right after :meth:`solve` answered SAT.  The blocking clause
        is false under the model; literals false at the root are left
        out.  The solver backtracks to the clause's *asserting level*, the
        second-highest decision level among its literals, where the clause
        becomes unit and its highest literal is implied (one level below
        the two highest when they tie), and the next :meth:`solve` under
        the same assumptions resumes from there.  With a group ``tag`` the
        clause also carries the group's guard literal, so it binds only
        while the group's assumptions hold.  Returns False when no further
        model can exist (the clause is empty).
        """
        gid = -1 if tag is None else self._groups[tag]
        key = tuple(svars)
        if key != self._blocked[0]:
            self._blocked = (key, _ints(key))
        return bool(self._lib.rs_block_model(self._handle, *self._blocked[1],
                                             gid))


def select(lib) -> type:
    """The solver class for a loaded core: native, else the Python one."""
    return PySolver if lib is None else NativeSolver


#: The solver every caller uses: native when the core loaded.
Solver = select(native.LIB)
