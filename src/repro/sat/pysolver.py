"""The pure-Python CDCL solver: the reference for the native core.

:class:`PySolver` implements the same algorithm and public API as the
native core behind :class:`repro.sat.solver.Solver` (``solver_core.c``),
and stands in for it when that core cannot be built or loaded.  The two
make different search decisions, so a single model, or the answer of a
conflict-budgeted call, may differ between them; BSAT's sorted cell sets
do not (see :mod:`repro.sat.enumerate`).  The equivalence tests run both.

Features:

* two-watched-literal propagation over regular clauses;
* watched-variable propagation over native XOR (parity) constraints, with
  lazily materialized reason clauses feeding the standard conflict analysis —
  so hash constraints from :mod:`repro.hashing` never need CNF expansion.
  Each XOR's variable set is additionally packed into a gf2-style word mask
  (bit ``v`` = variable ``v``, the :mod:`repro.sat.gf2` convention), so
  parity evaluation and watch replacement are whole-word AND/popcount
  operations instead of python list scans;
* first-UIP clause learning with VSIDS variable activities, phase saving,
  Luby restarts, and activity-driven learnt-clause database reduction;
* solving under assumptions, and incremental top-level clause addition
  between solve calls;
* incremental model enumeration (:meth:`PySolver.block_model`): after a
  model, the clause blocking its values on the sampling set is attached
  where the search stands, the solver backtracks only to the clause's
  asserting level, and the next :meth:`PySolver.solve` resumes from there
  instead of from the root — how ``BSAT`` enumerates;
* assumption-guarded *constraint groups* (:meth:`PySolver.add_xor_group` /
  :meth:`PySolver.release_group`): each hash row carries a fresh activation
  variable folded into its parity, so one solver can carry learnt clauses,
  VSIDS activity, and saved phases across the cells of a UniGen sweep —
  the CryptoMiniSAT incremental interface the paper's deployments use.
  Releasing a group permanently assigns its activators, detaches the rows,
  and drops the learnt clauses that mention them; learnt clauses a released
  group merely *satisfies* are reaped by the next DB reduction;
* deterministic conflict budgets plus wall-clock timeouts, reported as
  :data:`~repro.sat.types.UNKNOWN` — the signal UniGen interprets as a BSAT
  timeout (Section 5 of the paper).

The implementation favours plain lists and integer literals over objects in
the hot paths; see :mod:`repro.sat.types` for the literal encoding.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from ..cnf.formula import CNF
from ..cnf.xor import XorClause
from ..rng import RandomSource, as_random_source
from .gf2 import mask_of_vars
from .types import (
    FALSE,
    SAT,
    TRUE,
    UNDEF,
    UNKNOWN,
    UNSAT,
    Budget,
    SolveResult,
    SolverStats,
    to_internal,
)

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100
_RESTART_BASE = 100
_RANDOM_DECISION_FREQ = 0.02


def luby(x: int) -> int:
    """The x-th term (0-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


class PySolver:
    """CDCL solver over clauses and native XOR constraints, in Python.

    Typical use::

        solver = PySolver(cnf, rng=seed)
        result = solver.solve()
        if result:               # SAT
            model = result.model

    Clauses may be added between ``solve`` calls (the solver backtracks to
    the root level automatically); XOR constraints may be added any time
    before the next solve.  A SAT answer leaves the satisfying trail in
    place, so :meth:`block_model` can read the decision levels of the
    model it blocks.
    """

    def __init__(
        self,
        cnf: CNF | None = None,
        rng: RandomSource | int | None = None,
        phase_default: bool = False,
    ):
        self._rng = as_random_source(rng)
        self._phase_default = phase_default
        self._ok = True
        self._nvars = 0
        # Indexed by variable (1-based; slot 0 is padding).
        self._assigns: list[int] = [UNDEF]
        self._level: list[int] = [0]
        self._reason: list = [None]
        self._phase: list[bool] = [phase_default]
        self._activity: list[float] = [0.0]
        self._seen: list[bool] = [False]
        # Indexed by internal literal (slots 0 and 1 are padding).
        self._watches: list[list] = [[], []]
        self._xwatches: list[list[int]] = [[]]  # per variable
        self._clauses: list[list[int]] = []
        self._learnts: list[list[int]] = []
        self._cla_activity: dict[int, float] = {}
        # XOR records: [vars, rhs, watch_var_a, watch_var_b, var_mask].
        # ``vars`` stays sorted ascending and ``var_mask`` packs it with
        # bit v = variable v (the sat.gf2 convention), so watch replacement
        # is a single AND/lowest-bit step and parity evaluation is one
        # popcount against the assignment masks below.
        self._xors: list[list] = []
        self._pending_xors: list[int] = []
        # Whole-assignment word masks: bit v set iff var v is assigned
        # (resp. assigned TRUE).  Kept in lockstep with ``_assigns`` by the
        # enqueue/backtrack paths.
        self._assigned_mask = 0
        self._true_mask = 0
        # Assumption-guarded constraint groups (incremental sessions):
        # tag -> {"aux": [guard + activator vars], "xids": [...],
        #         "clauses": [clause objects]}.
        self._groups: dict[object, dict] = {}
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._heap: list[tuple[float, int]] = []
        self._max_learnts = 4000
        # Set by block_model: the next solve() under the same assumptions
        # (``_assumps``, those of the last solve) resumes from the current
        # trail instead of backtracking to the root.
        self._resume = False
        self._assumps: list[int] = []
        self.stats = SolverStats()
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._nvars

    @property
    def ok(self) -> bool:
        """False once the clause set is known unsatisfiable at the root."""
        return self._ok

    def ensure_vars(self, n: int) -> None:
        """Grow the variable space to at least ``n`` variables."""
        while self._nvars < n:
            self._nvars += 1
            v = self._nvars
            self._assigns.append(UNDEF)
            self._level.append(0)
            self._reason.append(None)
            self._phase.append(self._phase_default)
            self._activity.append(0.0)
            self._seen.append(False)
            self._watches.append([])
            self._watches.append([])
            self._xwatches.append([])
            heappush(self._heap, (0.0, v))

    def add_cnf(self, cnf: CNF) -> None:
        """Load a whole formula (clauses + XOR clauses)."""
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            self.add_clause(clause)
        for xor in cnf.xor_clauses:
            self.add_xor(xor)

    def add_clause(self, ext_lits: Iterable[int]) -> bool:
        """Add a clause (external/DIMACS literals) at the root level.

        Returns the solver's ``ok`` status.  Tautologies are dropped;
        literals already false at the root are removed; a resulting empty
        clause marks the instance unsatisfiable.
        """
        if self._trail_lim:
            self.cancel_until(0)
        if not self._ok:
            return False
        lits: list[int] = []
        seen: set[int] = set()
        tautology = False
        for ext in ext_lits:
            il = to_internal(ext)
            self.ensure_vars(il >> 1)
            if il in seen:
                continue
            if il ^ 1 in seen:
                tautology = True
                break
            seen.add(il)
            lits.append(il)
        if tautology:
            return True
        # Root-level simplification against the current fixed assignment.
        out: list[int] = []
        assigns = self._assigns
        for il in lits:
            val = assigns[il >> 1]
            if val == UNDEF:
                out.append(il)
            elif val ^ (il & 1) == TRUE:
                return True  # clause already satisfied at root
            # else: falsified at root, drop the literal
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            self._unchecked_enqueue(out[0], None)
            return self._ok
        self._watches[out[0]].append(out)
        self._watches[out[1]].append(out)
        self._clauses.append(out)
        return True

    def add_xor(self, xor: XorClause) -> bool:
        """Add a native XOR constraint; attached lazily at the next solve."""
        if self._trail_lim:
            self.cancel_until(0)
        if not self._ok:
            return False
        if xor.vars:
            self.ensure_vars(max(xor.vars))
        self._new_xor_record(list(xor.vars), bool(xor.rhs))
        return True

    def _new_xor_record(self, xvars: list[int], rhs: bool) -> int:
        """Append one XOR record (vars sorted ascending) and queue it."""
        wa = xvars[0] if xvars else 0
        wb = xvars[min(1, len(xvars) - 1)] if xvars else 0
        record = [xvars, rhs, wa, wb, mask_of_vars(xvars)]
        self._xors.append(record)
        xid = len(self._xors) - 1
        self._pending_xors.append(xid)
        return xid

    # ------------------------------------------------------------------
    # Assumption-guarded constraint groups (incremental sessions)
    # ------------------------------------------------------------------
    def add_xor_group(self, xors: Iterable[XorClause], tag) -> list[int]:
        """Register ``xors`` as a releasable group; returns its assumptions.

        Each row gets a fresh *activation variable* folded into its parity:
        the stored constraint is ``xor(vars ∪ {a}) = rhs``, which merely
        *defines* ``a`` while it is free (a conservative extension — it
        constrains nothing else), and collapses to ``xor(vars) = rhs`` under
        the assumption ``¬a``.  A per-group *guard variable* plays the same
        role for the group's blocking clauses (:meth:`block_model`).  The
        returned external literals (all negative) activate the group when
        passed to :meth:`solve`; dropping them deactivates it without
        unsoundness, and :meth:`release_group` retires it for good.
        """
        if tag in self._groups:
            raise ValueError(f"group {tag!r} already exists")
        if self._trail_lim:
            self.cancel_until(0)
        self.ensure_vars(self._nvars + 1)
        guard = self._nvars
        group = {"aux": [guard], "guard": guard, "xids": [], "clauses": []}
        self._groups[tag] = group
        for xor in xors:
            if xor.vars:
                self.ensure_vars(max(xor.vars))
            self.ensure_vars(self._nvars + 1)
            activator = self._nvars
            group["aux"].append(activator)
            # The activator is the largest allocated var, so appending it
            # keeps the record's vars sorted ascending.
            group["xids"].append(
                self._new_xor_record(list(xor.vars) + [activator], bool(xor.rhs))
            )
        return [-v for v in group["aux"]]

    def release_group(self, tag) -> None:
        """Retire group ``tag``: detach its rows and clauses for good.

        The activators and the guard are permanently assigned (TRUE unless
        root propagation already fixed them), which keeps every root-level
        consequence consistent; learnt clauses that *mention* a group
        variable are dropped immediately — the rest are implied by the base
        formula alone (the group constraints are definitional while their
        activators are free) and stay, which is exactly the carried-over
        learning the incremental session is for.  Learnt clauses a released
        guard merely satisfies are reaped by the next :meth:`_reduce_db`.
        """
        group = self._groups.pop(tag)
        if self._trail_lim:
            self.cancel_until(0)
        xidset = set(group["xids"])
        if self._pending_xors:
            self._pending_xors = [
                x for x in self._pending_xors if x not in xidset
            ]
        xwatches = self._xwatches
        for xid in group["xids"]:
            rec = self._xors[xid]
            for wv in {rec[2], rec[3]}:
                ws = xwatches[wv]
                if xid in ws:
                    ws.remove(xid)
            rec[0], rec[4] = [], 0  # dead record; xid stays allocated
        # Permanently assign every still-free group variable.
        for v in group["aux"]:
            if self._assigns[v] == UNDEF:
                self._unchecked_enqueue(v << 1, None)
        # Drop the group's own clauses and every learnt clause that
        # mentions a group variable (either polarity).
        aux_mask = mask_of_vars(group["aux"])
        removed: set[int] = set()
        for c in group["clauses"]:
            self._detach_clause(c)
            removed.add(id(c))
        if removed:
            self._clauses = [c for c in self._clauses if id(c) not in removed]
        kept: list[list[int]] = []
        for c in self._learnts:
            dead = False
            for lit in c:
                if aux_mask >> (lit >> 1) & 1:
                    dead = True
                    break
            if dead:
                self._detach_clause(c)
                self._cla_activity.pop(id(c), None)
                removed.add(id(c))
                self.stats.removed_clauses += 1
            else:
                kept.append(c)
        self._learnts = kept
        # Root-assigned literals may hold reasons pointing at what we just
        # removed; root reasons are never dereferenced by analysis, but
        # clear them so nothing dangles.
        reason = self._reason
        for lit in self._trail:
            v = lit >> 1
            r = reason[v]
            if r is None:
                continue
            if isinstance(r, list):
                if id(r) in removed:
                    reason[v] = None
            elif r[1] in xidset:
                reason[v] = None

    # ------------------------------------------------------------------
    # Public solving API
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
        budget = budget or Budget()
        deadline = (
            start + budget.timeout_seconds
            if budget.timeout_seconds is not None
            else None
        )
        start_conflicts = self.stats.conflicts
        iassumps = []
        for ext in assumptions:
            il = to_internal(ext)
            self.ensure_vars(il >> 1)
            iassumps.append(il)
        if not (self._resume and iassumps == self._assumps):
            self.cancel_until(0)
        self._resume = False
        self._assumps = iassumps
        if not self._ok:
            return self._result(UNSAT, start, start_conflicts)
        if not self._attach_pending_xors():
            return self._result(UNSAT, start, start_conflicts)

        local_conflicts = 0
        restart_idx = 0
        next_restart = _RESTART_BASE * luby(restart_idx)
        since_restart = 0

        while True:
            confl = self._propagate()
            if confl is not None:
                local_conflicts += 1
                since_restart += 1
                self.stats.conflicts += 1
                if not self._trail_lim:
                    self._ok = False
                    return self._result(UNSAT, start, start_conflicts)
                if iassumps and len(self._trail_lim) == 1:
                    # Only the shared assumption level is decided: the
                    # conflict follows from root + assumptions alone, so
                    # the formula is UNSAT *under these assumptions* (the
                    # base instance may still be fine — don't touch ok).
                    self.cancel_until(0)
                    return self._result(UNSAT, start, start_conflicts)
                learnt, btlevel = self._analyze(confl)
                self.cancel_until(btlevel)
                self._record_learnt(learnt)
                if not self._ok:
                    return self._result(UNSAT, start, start_conflicts)
                self._decay_activities()
                if (
                    budget.max_conflicts is not None
                    and local_conflicts >= budget.max_conflicts
                ):
                    self.cancel_until(0)
                    return self._result(UNKNOWN, start, start_conflicts)
                if (
                    budget.max_propagations is not None
                    and self.stats.propagations >= budget.max_propagations
                ):
                    self.cancel_until(0)
                    return self._result(UNKNOWN, start, start_conflicts)
                if since_restart >= next_restart:
                    self.stats.restarts += 1
                    restart_idx += 1
                    next_restart = _RESTART_BASE * luby(restart_idx)
                    since_restart = 0
                    self.cancel_until(0)
                continue

            if deadline is not None and time.monotonic() > deadline:
                self.cancel_until(0)
                return self._result(UNKNOWN, start, start_conflicts)
            if len(self._learnts) >= self._max_learnts:
                self._reduce_db()

            outcome = self._decide(iassumps)
            if outcome == SAT:
                # Every variable is assigned, so each value is TRUE or FALSE.
                width = self._nvars if model_vars is None else model_vars
                values = map(bool, self._assigns[1 : width + 1])
                model = dict(zip(range(1, width + 1), values))
                return self._result(SAT, start, start_conflicts, model)
            if outcome == UNSAT:
                self.cancel_until(0)
                return self._result(UNSAT, start, start_conflicts)

    def block_model(self, svars: Sequence[int], tag=None) -> bool:
        """Forbid the current model's values on ``svars``; resume in place.

        Call right after :meth:`solve` answered SAT.  The blocking clause
        is false under the model; literals false at the root are left
        out.  Rather than restarting from the root, the solver backtracks
        to the clause's *asserting level*, the second-highest decision
        level among its literals, where the clause becomes unit and its
        highest literal is implied.  When the two highest levels tie, it
        backtracks one level below them, where the clause has two free
        literals to watch.  The next :meth:`solve` under the same
        assumptions resumes the search from there; one under other
        assumptions starts from the root as usual.

        With a group ``tag`` the clause also carries the group's guard
        literal, which is false at the assumption level, so it binds only
        while the group's assumptions hold; :meth:`release_group` drops it
        with the group.  Returns False when no further model can exist
        (the clause is empty).
        """
        assigns = self._assigns
        level = self._level
        lits = [(v << 1) | assigns[v] for v in svars if level[v]]
        group = None
        if tag is not None:
            group = self._groups[tag]
            lits.append(group["guard"] << 1)
        if not lits:
            self.cancel_until(0)
            self._ok = False
            return False
        # Highest-level literal first, the next highest second.
        top = max(range(len(lits)), key=lambda k: level[lits[k] >> 1])
        lits[0], lits[top] = lits[top], lits[0]
        self._resume = True
        if len(lits) == 1:
            self.cancel_until(0)
            self._unchecked_enqueue(lits[0], None)
            return True
        second = max(range(1, len(lits)), key=lambda k: level[lits[k] >> 1])
        lits[1], lits[second] = lits[second], lits[1]
        high = level[lits[0] >> 1]
        asserting = level[lits[1] >> 1]
        self.cancel_until(high - 1 if asserting == high else asserting)
        self._watches[lits[0]].append(lits)
        self._watches[lits[1]].append(lits)
        self._clauses.append(lits)
        if group is not None:
            group["clauses"].append(lits)
        if asserting != high:
            self._unchecked_enqueue(lits[0], lits)
        return True

    def _result(
        self,
        status: str,
        start: float,
        start_conflicts: int,
        model: dict[int, bool] | None = None,
    ) -> SolveResult:
        return SolveResult(
            status=status,
            model=model,
            conflicts=self.stats.conflicts - start_conflicts,
            time_seconds=time.monotonic() - start,
        )

    # ------------------------------------------------------------------
    # Trail management
    # ------------------------------------------------------------------
    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def cancel_until(self, level: int) -> None:
        """Backtrack, unassigning everything above ``level``."""
        if self._decision_level() <= level:
            return
        lim = self._trail_lim[level]
        trail = self._trail
        assigns = self._assigns
        reason = self._reason
        phase = self._phase
        heap = self._heap
        activity = self._activity
        undone = 0
        for k in range(len(trail) - 1, lim - 1, -1):
            lit = trail[k]
            v = lit >> 1
            phase[v] = not (lit & 1)
            assigns[v] = UNDEF
            reason[v] = None
            undone |= 1 << v
            heappush(heap, (-activity[v], v))
        self._assigned_mask &= ~undone
        self._true_mask &= ~undone
        del trail[lim:]
        del self._trail_lim[level:]
        self._qhead = len(trail)

    def _unchecked_enqueue(self, lit: int, reason) -> bool:
        """Assign ``lit`` true with the given reason. Root conflicts set ok."""
        v = lit >> 1
        val = self._assigns[v]
        if val != UNDEF:
            if val ^ (lit & 1) == TRUE:
                return True
            if not self._trail_lim:
                self._ok = False
            return False
        self._assigns[v] = (lit & 1) ^ 1  # positive lit -> TRUE
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._assigned_mask |= 1 << v
        if not lit & 1:
            self._true_mask |= 1 << v
        self._trail.append(lit)
        return True

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self):
        """Propagate to fixpoint; return a conflicting clause (list of
        internal literals, all false) or None.

        The hot state (queue head, decision level, the per-variable
        arrays, both assignment masks, the counters) lives in locals for
        the whole call and is written back once on the way out.
        """
        trail = self._trail
        watches = self._watches
        assigns = self._assigns
        level = self._level
        reason = self._reason
        xwatches = self._xwatches
        xors = self._xors
        dl = len(self._trail_lim)
        assigned_mask = self._assigned_mask
        true_mask = self._true_mask
        qhead = self._qhead
        props = xprops = 0
        confl = None
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            props += 1

            # --- regular clauses watching ¬p -------------------------------
            false_lit = p ^ 1
            ws = watches[false_lit]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                fval = assigns[first >> 1]
                if fval != UNDEF and fval ^ (first & 1) == TRUE:
                    ws[j] = c
                    j += 1
                    continue
                found = False
                for k in range(2, len(c)):
                    lk = c[k]
                    vk = assigns[lk >> 1]
                    if vk == UNDEF or vk ^ (lk & 1) == TRUE:
                        c[1], c[k] = lk, false_lit
                        watches[lk].append(c)
                        found = True
                        break
                if found:
                    continue
                ws[j] = c
                j += 1
                if fval == UNDEF:
                    # Unit: imply c[0]; keep implied literal at slot 0.
                    v = first >> 1
                    assigns[v] = (first & 1) ^ 1
                    level[v] = dl
                    reason[v] = c
                    assigned_mask |= 1 << v
                    if not first & 1:
                        true_mask |= 1 << v
                    trail.append(first)
                else:
                    # Conflict: compact the rest of the watch list and stop.
                    while i < n:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    confl = c
            del ws[j:]
            if confl is not None:
                break

            # --- XOR constraints watching var(p) ----------------------------
            # All parity/watch work below is whole-word arithmetic on the
            # packed masks: a free replacement watch is the lowest set bit
            # of vars & ~assigned, and a parity is one AND + popcount.
            var = p >> 1
            xws = xwatches[var]
            if not xws:
                continue
            i = j = 0
            n = len(xws)
            while i < n:
                xid = xws[i]
                i += 1
                rec = xors[xid]
                if rec[3] == var:
                    rec[2], rec[3] = rec[3], rec[2]
                other = rec[3]
                free = rec[4] & ~assigned_mask & ~(1 << other)
                if free:
                    # Lowest free var == the first unassigned position of
                    # the (sorted) var list, matching the list-scan order.
                    nv = (free & -free).bit_length() - 1
                    rec[2] = nv
                    xwatches[nv].append(xid)
                    continue
                xws[j] = xid
                j += 1
                if assigns[other] == UNDEF:
                    parity = (rec[4] & true_mask).bit_count() & 1
                    value = rec[1] ^ bool(parity)
                    lit = (other << 1) | (not value)
                    assigns[other] = 1 if value else 0
                    level[other] = dl
                    reason[other] = ("x", xid)
                    assigned_mask |= 1 << other
                    if value:
                        true_mask |= 1 << other
                    trail.append(lit)
                    xprops += 1
                else:
                    parity = (rec[4] & true_mask).bit_count() & 1
                    if bool(parity) != rec[1]:
                        while i < n:
                            xws[j] = xws[i]
                            j += 1
                            i += 1
                        confl = self._xor_conflict_clause(xid)
            del xws[j:]
            if confl is not None:
                break
        self._qhead = qhead
        self._assigned_mask = assigned_mask
        self._true_mask = true_mask
        self.stats.propagations += props
        self.stats.xor_propagations += xprops
        return confl

    def _xor_conflict_clause(self, xid: int) -> list[int]:
        """The CNF clause of the XOR falsified by the current assignment."""
        rec = self._xors[xid]
        assigns = self._assigns
        return [(u << 1) | assigns[u] for u in rec[0]]

    def _reason_lits(self, lit: int) -> list[int]:
        """Reason clause for an implied literal, implied literal first."""
        v = lit >> 1
        reason = self._reason[v]
        if isinstance(reason, list):
            return reason
        # XOR reason: implied literal, then negations of the other vars'
        # current assignments.
        _, xid = reason
        rec = self._xors[xid]
        assigns = self._assigns
        out = [lit]
        for u in rec[0]:
            if u != v:
                out.append((u << 1) | assigns[u])
        return out

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, confl) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        seen = self._seen
        to_clear: list[int] = []
        level = self._level
        trail = self._trail
        cur_level = len(self._trail_lim)
        counter = 0
        p = -1
        idx = len(trail) - 1
        btlevel = 0
        reason_lits = confl
        first = True
        cla_act = self._cla_activity

        while True:
            if isinstance(reason_lits, list):
                rid = id(reason_lits)
                if rid in cla_act:
                    self._bump_clause(reason_lits)
            start = 0 if first else 1
            for k in range(start, len(reason_lits)):
                q = reason_lits[k]
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    to_clear.append(v)
                    self._bump_var(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
                        if level[v] > btlevel:
                            btlevel = level[v]
            first = False
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason_lits = self._reason_lits(p)
        learnt[0] = p ^ 1

        learnt = self._minimize_learnt(learnt, to_clear)
        for v in to_clear:
            seen[v] = False
        if len(learnt) == 1:
            btlevel = 0
        else:
            btlevel = 0
            for q in learnt[1:]:
                lv = level[q >> 1]
                if lv > btlevel:
                    btlevel = lv
        return learnt, btlevel

    def _minimize_learnt(self, learnt: list[int], to_clear: list[int]) -> list[int]:
        """Drop literals whose reason is entirely inside the learnt clause
        (cheap local self-subsumption, MiniSat's 'basic' mode)."""
        seen = self._seen
        out = [learnt[0]]
        for q in learnt[1:]:
            v = q >> 1
            reason = self._reason[v]
            if reason is None:
                out.append(q)
                continue
            lits = self._reason_lits(q ^ 1)
            redundant = True
            for r in lits[1:]:
                rv = r >> 1
                if not seen[rv] and self._level[rv] > 0:
                    redundant = False
                    break
            if not redundant:
                out.append(q)
        return out

    def _record_learnt(self, learnt: list[int]) -> None:
        self.stats.learned_clauses += 1
        self.stats.learned_literals += len(learnt)
        if len(learnt) == 1:
            self._unchecked_enqueue(learnt[0], None)
            return
        level = self._level
        mi = 1
        for k in range(2, len(learnt)):
            if level[learnt[k] >> 1] > level[learnt[mi] >> 1]:
                mi = k
        learnt[1], learnt[mi] = learnt[mi], learnt[1]
        self._watches[learnt[0]].append(learnt)
        self._watches[learnt[1]].append(learnt)
        self._learnts.append(learnt)
        self._cla_activity[id(learnt)] = self._cla_inc
        self._unchecked_enqueue(learnt[0], learnt)

    # ------------------------------------------------------------------
    # Activities, decisions, restarts, DB reduction
    # ------------------------------------------------------------------
    def _bump_var(self, v: int) -> None:
        act = self._activity[v] + self._var_inc
        self._activity[v] = act
        if act > _RESCALE_LIMIT:
            for u in range(1, self._nvars + 1):
                self._activity[u] *= _RESCALE_FACTOR
            self._var_inc *= _RESCALE_FACTOR
            self._rebuild_heap()
            return
        if self._assigns[v] == UNDEF:
            heappush(self._heap, (-act, v))

    def _bump_clause(self, c: list[int]) -> None:
        cid = id(c)
        act = self._cla_activity.get(cid, 0.0) + self._cla_inc
        self._cla_activity[cid] = act
        if act > _RESCALE_LIMIT:
            for key in self._cla_activity:
                self._cla_activity[key] *= _RESCALE_FACTOR
            self._cla_inc *= _RESCALE_FACTOR

    def _decay_activities(self) -> None:
        self._var_inc *= self._var_decay
        self._cla_inc *= self._cla_decay
        if self._var_inc > _RESCALE_LIMIT:
            for u in range(1, self._nvars + 1):
                self._activity[u] *= _RESCALE_FACTOR
            self._var_inc *= _RESCALE_FACTOR
            self._rebuild_heap()
        if self._cla_inc > _RESCALE_LIMIT:
            for key in self._cla_activity:
                self._cla_activity[key] *= _RESCALE_FACTOR
            self._cla_inc *= _RESCALE_FACTOR

    def _rebuild_heap(self) -> None:
        self._heap = [
            (-self._activity[v], v)
            for v in range(1, self._nvars + 1)
            if self._assigns[v] == UNDEF
        ]
        heapify(self._heap)

    def _pick_branch_var(self) -> int:
        if len(self._heap) > max(100_000, 8 * self._nvars):
            self._rebuild_heap()
        if self._rng.random() < _RANDOM_DECISION_FREQ:
            v = self._rng.randint(1, self._nvars) if self._nvars else 0
            if v and self._assigns[v] == UNDEF:
                return v
        heap = self._heap
        assigns = self._assigns
        while heap:
            __, v = heappop(heap)
            if assigns[v] == UNDEF:
                return v
        return 0

    def _decide(self, iassumps: list[int]) -> str:
        """Push the next decision; returns SAT (all assigned), UNSAT
        (assumption contradicted), or '' (decided).

        All assumptions share a single *assumption level* (level 1) so
        that re-establishing them after a backtrack to root costs one
        propagation round, not one per assumption — the difference shows
        on incremental sessions that solve under the same group
        assumptions thousands of times.  A conflict while only the
        assumption level is decided means the assumptions are inconsistent
        with the formula (handled in :meth:`solve`).
        """
        assigns = self._assigns
        if iassumps and not self._trail_lim:
            self._trail_lim.append(len(self._trail))
            decided = False
            for p in iassumps:
                val = assigns[p >> 1]
                if val != UNDEF:
                    if val ^ (p & 1) == TRUE:
                        continue
                    return UNSAT
                self._unchecked_enqueue(p, None)
                self.stats.decisions += 1
                decided = True
            if decided:
                return ""
        v = self._pick_branch_var()
        if v == 0:
            return SAT
        self._trail_lim.append(len(self._trail))
        lit = (v << 1) | (not self._phase[v])
        self._unchecked_enqueue(lit, None)
        self.stats.decisions += 1
        return ""

    def _reduce_db(self) -> None:
        """Throw away the less active half of the learnt clauses.

        Learnt clauses satisfied at the root level are reaped regardless
        of activity — this is what makes ``release_group`` effective: the
        released group's activators become root-true, so every learnt
        clause guarded by them dies on the next reduction.
        """
        self.stats.db_reductions += 1
        locked: set[int] = set()
        for lit in self._trail:
            reason = self._reason[lit >> 1]
            if isinstance(reason, list):
                locked.add(id(reason))
        assigns = self._assigns
        level = self._level
        cla_act = self._cla_activity
        ordered = sorted(self._learnts, key=lambda c: cla_act.get(id(c), 0.0))
        keep_from = len(ordered) // 2
        kept: list[list[int]] = []
        for pos, c in enumerate(ordered):
            if id(c) not in locked:
                root_sat = False
                for lit in c:
                    v = lit >> 1
                    val = assigns[v]
                    if val != UNDEF and val ^ (lit & 1) == TRUE and not level[v]:
                        root_sat = True
                        break
                if root_sat:
                    self._detach_clause(c)
                    cla_act.pop(id(c), None)
                    self.stats.removed_clauses += 1
                    continue
            if pos >= keep_from or id(c) in locked or len(c) <= 2:
                kept.append(c)
                continue
            self._detach_clause(c)
            cla_act.pop(id(c), None)
            self.stats.removed_clauses += 1
        self._learnts = kept
        self._max_learnts = int(self._max_learnts * 1.1) + 16

    def _detach_clause(self, c: list[int]) -> None:
        for lit in (c[0], c[1]):
            ws = self._watches[lit]
            for idx in range(len(ws)):
                if ws[idx] is c:
                    ws[idx] = ws[-1]
                    ws.pop()
                    break

    # ------------------------------------------------------------------
    # XOR attachment
    # ------------------------------------------------------------------
    def _attach_pending_xors(self) -> bool:
        """Initialize watches for XORs added since the last solve.

        Must run at decision level 0.  Handles XORs that are already fully
        or almost fully assigned by root-level propagation.
        """
        for xid in self._pending_xors:
            rec = self._xors[xid]
            free = rec[4] & ~self._assigned_mask
            nfree = free.bit_count()
            if nfree >= 2:
                wa = (free & -free).bit_length() - 1
                rest = free & (free - 1)
                wb = (rest & -rest).bit_length() - 1
                rec[2], rec[3] = wa, wb
                self._xwatches[wa].append(xid)
                self._xwatches[wb].append(xid)
                continue
            parity = bool((rec[4] & self._true_mask).bit_count() & 1)
            if not nfree:
                if parity != rec[1]:
                    self._ok = False
                    return False
                continue
            u = (free & -free).bit_length() - 1
            value = rec[1] ^ parity
            lit = (u << 1) | (not value)
            if not self._unchecked_enqueue(lit, ("x", xid)):
                return False
            # Watch it anyway so backtracking past this point re-engages it
            # (can only happen if it was enqueued above level 0 — impossible
            # here, but keep the record consistent).
            rec[2] = rec[3] = u
            self._xwatches[u].append(xid)
        self._pending_xors.clear()
        return True
