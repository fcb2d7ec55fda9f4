"""Per-layer tracing from outside the program.

The benchmark never edits ``repro``: it wraps the public entry point of
each layer where that entry point is looked up.  A function imported by
name (``bsat`` lives in ``repro.sat.enumerate`` but is called through
``repro.core.cellsearch``, ``repro.core.unigen`` and
``repro.counting.approxmc``) is replaced in every loaded ``repro`` module
that holds it; a method is replaced on its class.

Each wrapper opens a span on a per-thread stack (the gateway runs groups on
executor threads), and on exit books the span's call count, total time and
self time (total minus the time of spans nested directly inside it).  Only
these aggregates are kept, in memory, so a traced run holds O(layers)
state however many calls it makes.  A span nested inside another span of
the same name books calls and self time but no extra total time, so a
total is never counted twice.  Spans on concurrent threads overlap, so on
service-mix the covered time can exceed the wall time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter


class Tracer:
    """Span aggregates for every wrapped entry point.

    ``calls``/``total``/``self_time`` are keyed by span name; ``under``
    counts calls of a span by each span name on the stack above it (how
    ``counting.bsat_calls`` is told apart from the sampling phase's BSAT
    calls); ``counts`` holds the counters the ``on_exit`` hooks book.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.under: Counter = Counter()
        self.counts: Counter = Counter()
        #: Wall time covered by outermost spans (no span above them).
        self.covered = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_exit=None):
        """``fn`` with a span named ``name`` around every call.

        ``on_exit(tracer, args, result)`` runs after a call that returned,
        to book counters that need the arguments or the result.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                tracer._book(name, elapsed, elapsed - frame[1], stack)
            if on_exit is not None:
                on_exit(tracer, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _book(self, name: str, elapsed: float, own: float, stack) -> None:
        outer = {frame[0] for frame in stack}
        with self._lock:
            self.calls[name] += 1
            self.self_time[name] += own
            if name not in outer:
                self.total[name] += elapsed
            for above in outer:
                self.under[(above, name)] += 1
            if not stack:
                self.covered += elapsed

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- patching -----------------------------------------------------------
    def patch_function(self, module_name: str, attr: str, name: str,
                       on_exit=None) -> None:
        """Wrap ``module_name.attr`` in every loaded ``repro`` module."""
        original = getattr(sys.modules[module_name], attr)
        traced = self.wrap(name, original, on_exit)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, traced)

    def patch_method(self, cls, attr: str, name: str, on_exit=None) -> None:
        """Wrap the method ``cls.attr`` (class and static methods too)."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            # Inherited: wrap the resolved function on this class only.
            raw = getattr(cls, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, on_exit))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(name, raw.__func__, on_exit))
        else:
            replacement = self.wrap(name, raw, on_exit)
        self._patches.append((cls, attr, cls.__dict__.get(attr, _ABSENT)))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


_ABSENT = object()


# -- the layer table ---------------------------------------------------------
def _book_bsat(tracer: Tracer, args, cell) -> None:
    # ``cell.solver`` holds the solver counter deltas of this one call,
    # which covers every Solver.solve the program makes.
    if cell.solver is not None:
        tracer.count("sat.propagations", cell.solver.propagations)
        tracer.count("sat.conflicts", cell.solver.conflicts)


def _book_hash_draw(tracer: Tracer, args, constraint) -> None:
    tracer.count("hashing.rows", len(constraint.xors))
    tracer.count("hashing.literals", sum(len(x) for x in constraint.xors))


def _book_cell_search(tracer: Tracer, args, cell) -> None:
    tracer.count("core.accepted" if cell is not None else "core.bot")


def _book_batch(tracer: Tracer, args, batch) -> None:
    if batch:
        tracer.count("core.harvest_capacity", args[0].batch_size())


def _book_chunk(tracer: Tracer, args, raw) -> None:
    if raw.get("error") is None:
        tracer.count(
            "parallel.witnesses",
            sum(1 for r in raw["results"] if r["witness"] is not None),
        )


def install(tracer: Tracer, *, service: bool = False) -> Tracer:
    """Wrap every layer entry point the per-layer metrics read.

    Imports the layers first so that name lookups in already-loaded
    modules are the ones replaced.  ``service`` adds the gateway's cache
    and coalescing entry points.
    """
    import repro.api  # noqa: F401 - load the modules whose names get patched
    import repro.execution  # noqa: F401
    import repro.sinks  # noqa: F401
    from repro.core.base import SampleResult, WitnessSampler
    from repro.core.cellsearch import CellSearch
    from repro.core.unigen import UniGen
    from repro.core.unigen2 import UniGen2
    from repro.cnf.formula import CNF
    from repro.counting.approxmc import ApproxMC
    from repro.hashing.xor_family import HxorFamily
    from repro.sat.enumerate import SolverSession
    from repro.sat.solver import Solver
    from repro.sinks import JsonlWitnessWriter, OnlineUniformityGate, StatsFold

    if service:
        import repro.service.gateway  # noqa: F401
        from repro.service.cache import SingleFlightCache
        from repro.service.coalesce import CoalesceGroup

    fn = tracer.patch_function
    fn("repro.api.prepared", "prepare", "api.prepare")
    fn("repro.cnf.dimacs", "parse_dimacs", "cnf.parse")
    fn("repro.sat.enumerate", "bsat", "sat.bsat", _book_bsat)
    fn("repro.sat.gauss", "gaussian_eliminate", "sat.gauss")
    fn("repro.execution.base", "build_plan", "execution.plan")
    fn("repro.parallel.worker", "run_chunk", "parallel.chunk",
       _book_chunk)
    fn("repro.api.registry", "make_sampler", "core.adopt")

    meth = tracer.patch_method
    meth(ApproxMC, "count", "counting.approxmc")
    meth(CellSearch, "find_accepted_cell", "core.cell_search",
         _book_cell_search)
    meth(CellSearch, "draw_cell", "core.cell")
    meth(UniGen, "_adopt_prepared", "core.adopt")
    meth(WitnessSampler, "sample_batch", "core.batch", _book_batch)
    meth(UniGen2, "sample_batch", "core.batch", _book_batch)
    meth(HxorFamily, "draw", "hashing.draw", _book_hash_draw)
    meth(CNF, "conjoined_with", "cnf.conjoin")
    meth(CNF, "canonical_hash", "cnf.hash")
    meth(SolverSession, "bsat", "sat.bsat", _book_bsat)
    meth(Solver, "solve", "sat.solve")
    meth(SampleResult, "to_dict", "execution.encode")
    meth(SampleResult, "from_dict", "execution.decode")
    meth(JsonlWitnessWriter, "accept", "sinks.write")
    meth(OnlineUniformityGate, "accept", "sinks.gate")
    meth(StatsFold, "on_chunk", "sinks.fold")
    if service:
        meth(SingleFlightCache, "get_or_build", "service.prepare_build")
        meth(CoalesceGroup, "run", "service.group_run")
    return tracer


#: Spans reported as ``<span>_s``, their total time.
TIMED_SPANS = (
    "counting.approxmc", "api.prepare", "core.cell_search", "core.adopt",
    "hashing.draw", "cnf.conjoin", "cnf.parse", "sat.bsat",
    "sat.solve", "sat.gauss", "execution.plan", "parallel.chunk",
    "execution.encode", "execution.decode", "sinks.write", "sinks.gate",
    "sinks.fold",
)
#: Spans with other spans inside them, also reported as ``<span>_self_s``.
SELF_TIMED_SPANS = (
    "counting.approxmc", "api.prepare", "core.cell_search", "sat.bsat",
    "parallel.chunk", "sinks.fold",
)
#: Spans only the service path enters, reported by service-mix alone.
SERVICE_SPANS = ("cnf.hash", "service.prepare_build", "service.group_run")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, *, service: bool = False) -> dict:
    """The per-layer metric values (name -> (value, unit))."""
    t, c, k = tracer, tracer.calls, tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for span in TIMED_SPANS + (SERVICE_SPANS if service else ()):
        out[f"{span}_s"] = (t.total[span], "s")
    for span in SELF_TIMED_SPANS:
        out[f"{span}_self_s"] = (t.self_time[span], "s")
    searches = c["core.cell_search"]
    out["counting.bsat_calls"] = (t.under[("counting.approxmc", "sat.bsat")],
                                  "count")
    out["core.cell_searches"] = (searches, "count")
    out["core.bsat_per_search"] = (
        _ratio(t.under[("core.cell_search", "sat.bsat")], searches), "ratio")
    out["core.accept_ratio"] = (_ratio(k["core.accepted"], c["core.cell"]),
                                "ratio")
    out["core.bot_rate"] = (_ratio(k["core.bot"], searches), "ratio")
    out["core.harvest_ratio"] = (
        _ratio(k["parallel.witnesses"], k["core.harvest_capacity"]), "ratio")
    out["hashing.avg_xor_len"] = (
        _ratio(k["hashing.literals"], k["hashing.rows"]), "vars")
    out["sat.bsat_calls"] = (c["sat.bsat"], "count")
    out["sat.solve_calls"] = (c["sat.solve"], "count")
    out["sat.solves_per_bsat"] = (_ratio(c["sat.solve"], c["sat.bsat"]),
                                  "ratio")
    out["sat.propagations"] = (k["sat.propagations"], "count")
    out["sat.conflicts"] = (k["sat.conflicts"], "count")
    out["sat.props_per_solve_s"] = (
        _ratio(k["sat.propagations"], t.self_time["sat.solve"]), "1/s")
    out["parallel.chunks"] = (c["parallel.chunk"], "count")
    return out


def span_table(tracer: Tracer) -> list[str]:
    """Human-readable ``calls total self`` lines, one per span."""
    lines = [f"{'span':<24}{'calls':>10}{'total_s':>12}{'self_s':>12}"]
    for name in sorted(tracer.calls):
        lines.append(
            f"{name:<24}{tracer.calls[name]:>10}"
            f"{tracer.total[name]:>12.4f}{tracer.self_time[name]:>12.4f}"
        )
    return lines
