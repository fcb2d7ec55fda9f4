"""The execution seam: one plan, many backends, one incremental stream.

Algorithm 1's per-sample phase is embarrassingly parallel, and PR 2/3 grew
three execution paths for it — an inline serial loop, a process pool, and
a broker-served worker fleet — that all buffered every witness and merged
at the end.  This module folds them behind one abstraction:

* :func:`build_plan` — the shared front half.  Pre-flight the sampler,
  resolve the root seed, cut the deterministic chunk plan
  (:func:`~repro.parallel.plan.chunk_plan`), and serialize the worker
  payload.  A plan is a pure value: every backend executes the *same* plan
  rows, which is why the drawn witness stream cannot depend on the
  backend.
* :class:`SampleBackend` — the protocol.  A backend's one obligation is
  :meth:`~SampleBackend.run_plan`: yield raw chunk result dicts **in chunk
  order**, holding at most ``window`` chunks in flight.  Everything else —
  the per-draw event stream (:meth:`~SampleBackend.iter_sample_stream`),
  error/timeout enforcement, streaming stats accumulation, and the
  merge-at-end report (:meth:`~SampleBackend.collect`) — is shared code on
  the base class, built on :class:`~repro.parallel.plan.ChunkFold`.

The streaming contract: ``iter_sample_stream`` yields
:class:`StreamEvent` ``(chunk_index, SampleResult)`` tuples in
deterministic order — chunk 0's draws first, each chunk's draws in draw
order — identical for every backend, window, and job count under one root
seed.  The coordinator's live state is O(window) chunks; the classic
O(n) witness list only materializes if the caller asks for
:meth:`~SampleBackend.collect`.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from ..core.base import SampleResult, SamplerStats, Witness, witness_to_lits
from ..parallel.plan import (
    ChunkFold,
    ChunkTask,
    build_payload,
    chunk_plan,
    default_chunk_size,
)
from ..rng import RandomSource, fresh_root_seed

#: Fallback in-flight window when a backend is not given one explicitly.
DEFAULT_WINDOW = 4


class StreamEvent(NamedTuple):
    """One draw of the incremental stream: ``(chunk_index, SampleResult)``.

    Events arrive in deterministic order — ascending ``chunk_index``, draws
    within a chunk in draw order — so two backends' streams over the same
    :class:`ExecutionPlan` are comparable element by element.
    """

    chunk_index: int
    result: SampleResult


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything a backend needs to draw one run's witness stream.

    A pure value (tasks carry *derived* seeds, the payload is plain dicts),
    so the stream a plan produces is a function of the plan alone — never
    of the backend, window, worker count, or scheduling that executes it.
    """

    sampler: str
    n: int
    chunk_size: int
    root_seed: int
    tasks: tuple[ChunkTask, ...]
    payload: dict

    @property
    def n_chunks(self) -> int:
        return len(self.tasks)


@dataclass
class SampleReport:
    """Everything one run of a plan produced, merged and ordered.

    ``witnesses`` and ``results`` are in chunk order (chunk 0's draws
    first), the same order on every backend.  ``root_seed`` is always
    concrete — when the caller seeded from OS entropy it records the drawn
    root, so any run can be replayed exactly.
    """

    witnesses: list[Witness]
    results: list[SampleResult]
    stats: SamplerStats
    sampler: str
    jobs: int
    n_requested: int
    chunk_size: int
    n_chunks: int
    root_seed: int
    wall_time_seconds: float
    chunk_times: list[float] = field(default_factory=list)
    #: Chunk re-issues after lost leases; always 0 on the pool path, where a
    #: dead worker kills the run instead of being retried.
    requeues: int = 0

    @property
    def witnesses_per_second(self) -> float:
        """End-to-end throughput (pool setup and merge included)."""
        if self.wall_time_seconds <= 0:
            return 0.0
        return len(self.witnesses) / self.wall_time_seconds

    @property
    def shortfall(self) -> int:
        """Requested-but-undelivered witnesses (⊥-heavy chunks ran out of
        attempts); 0 on a fully successful run."""
        return self.n_requested - len(self.witnesses)

    def describe(self) -> str:
        """One human-readable line for CLI output."""
        retried = f", {self.requeues} requeued" if self.requeues else ""
        return (
            f"{len(self.witnesses)}/{self.n_requested} witnesses via "
            f"{self.sampler} [jobs={self.jobs}, {self.n_chunks} chunks × "
            f"{self.chunk_size}{retried}, seed={self.root_seed}] in "
            f"{self.wall_time_seconds:.2f}s "
            f"({self.witnesses_per_second:.1f} witnesses/s, "
            f"success={self.stats.success_probability:.3f})"
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (the ``--report-json`` schema).

        Witnesses appear in their canonical signed-literal wire form; the
        per-draw results and merged stats use their own ``to_dict`` layouts.
        """
        return {
            "sampler": self.sampler,
            "jobs": self.jobs,
            "n_requested": self.n_requested,
            "n_delivered": len(self.witnesses),
            "chunk_size": self.chunk_size,
            "n_chunks": self.n_chunks,
            "root_seed": self.root_seed,
            "requeues": self.requeues,
            "wall_time_seconds": self.wall_time_seconds,
            "witnesses_per_second": self.witnesses_per_second,
            "chunk_times": list(self.chunk_times),
            "witnesses": [witness_to_lits(w) for w in self.witnesses],
            "results": [r.to_dict() for r in self.results],
            "stats": self.stats.to_dict(),
        }


def build_plan(
    cnf_or_prepared,
    n: int,
    config=None,
    *,
    sampler: str = "unigen",
    chunk_size: int | None = None,
    max_attempts_factor: int = 10,
    only_chunks=None,
) -> ExecutionPlan:
    """The shared front half of every execution path.

    Samplers with a prepare phase run lines 1–11 here, once, unless
    handed an artifact already; samplers without one take the bare
    formula (an artifact's embedded one).  One instance is then built
    over that target in the submitting process, so bad arguments — an
    ε/sampling-set mismatch with the artifact, a missing ``xor_count`` —
    fail here with a clean error instead of inside every worker.

    ``chunk_size``
        Witnesses per chunk; ``None`` applies
        :func:`~repro.parallel.plan.default_chunk_size` to that instance's
        :meth:`~repro.core.base.WitnessSampler.draws_per_instance`.  Part
        of the determinism key — two runs agree only if their chunking
        agrees.
    ``max_attempts_factor``
        Per chunk, allow ``count × factor`` batch attempts before the
        chunk returns short (⊥-heavy samplers must terminate; Theorem 1
        only bounds the failure probability away from 1).
    ``only_chunks``
        Optional iterable of chunk indices to keep.  The *full* chunk
        plan is always cut first, so surviving tasks carry exactly the
        derived seeds they would under the whole run — this is what lets
        a resumed run (:mod:`repro.runs`) re-execute the missing chunks
        and still land on the byte-identical stream.  Unknown indices
        are a ``ValueError``.
    """
    from ..api.config import SamplerConfig
    from ..api.prepared import PreparedFormula, prepare
    from ..api.registry import get_entry, make_sampler

    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if max_attempts_factor < 1:
        raise ValueError(
            f"max_attempts_factor must be >= 1, got {max_attempts_factor}"
        )
    config = config or SamplerConfig()
    entry = get_entry(sampler)
    root_seed = config.seed if config.seed is not None else fresh_root_seed()
    target = cnf_or_prepared
    if isinstance(target, PreparedFormula):
        if not entry.supports_prepared:
            target = target.cnf
    elif entry.supports_prepared:
        # Prepared under the root seed, so a run seeded from OS entropy
        # replays exactly with the root seed it records.
        target = prepare(target, config, rng=RandomSource(root_seed))
    instance = make_sampler(entry.name, target, config)
    if chunk_size is None:
        chunk_size = default_chunk_size(n, instance.draws_per_instance(n))
    tasks = chunk_plan(n, chunk_size, root_seed, max_attempts_factor)
    if only_chunks is not None:
        wanted = set(only_chunks)
        known = {task.index for task in tasks}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"only_chunks names chunk indices {sorted(unknown)} outside "
                f"the plan's 0..{len(tasks) - 1} range"
            )
        tasks = [task for task in tasks if task.index in wanted]
    return ExecutionPlan(
        sampler=entry.name,
        n=n,
        chunk_size=chunk_size,
        root_seed=root_seed,
        tasks=tuple(tasks),
        payload=build_payload(target, entry.name, config),
    )


class SampleBackend(ABC):
    """One way of executing an :class:`ExecutionPlan`.

    Subclasses implement :meth:`run_plan` — yield the plan's raw chunk
    result dicts in ascending chunk order, holding at most ``window``
    chunks alive at once (call :meth:`_track` with the current count; the
    ``max_in_flight`` high-water mark is how tests assert the bound).  The
    base class turns that ordered chunk stream into the per-draw event
    stream and the classic merged report.
    """

    #: Registry name; subclasses override.
    name: str = "backend"

    #: Per-chunk wall-clock cap enforced by the fold (see
    #: :class:`~repro.parallel.plan.ChunkFold`); backends that can also
    #: interrupt a running chunk (the pool) additionally stop waiting.
    chunk_timeout_s: float | None = None

    def __init__(self, *, window: int | None = None):
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        #: High-water mark of simultaneously held chunks (instrumentation).
        self.max_in_flight = 0
        self._in_flight = 0
        #: The fold of the most recent stream, for post-stream stats.
        self.fold: ChunkFold | None = None
        #: True once :meth:`cancel_in_flight` ran or a stream was abandoned
        #: mid-run (the consumer closed it before exhaustion).
        self.cancelled = False

    # -- instrumentation ------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Chunks currently held by the backend (in-flight + staged)."""
        return self._in_flight

    def _track(self, count: int) -> None:
        self._in_flight = count
        if count > self.max_in_flight:
            self.max_in_flight = count

    def resolved_window(self) -> int:
        """The concrete in-flight bound this backend runs under."""
        return self.window if self.window is not None else DEFAULT_WINDOW

    # -- the backend contract -------------------------------------------
    @abstractmethod
    def run_plan(self, plan: ExecutionPlan) -> Iterator[dict]:
        """Yield the plan's raw chunk result dicts in chunk-index order."""

    def cancel_in_flight(self) -> None:
        """Stop feeding the current plan: drop work not yet consumed.

        The early-abort half of the sink seam
        (:func:`repro.sinks.run_stream`): called after the consumer closes
        the stream mid-run (a tripped gate), it discards whatever the
        backend still holds *outside* the generator frame — the pool's
        in-flight chunks die with the generator's ``with Pool`` block on
        close, so the base implementation only records the cancellation;
        the broker backend overrides to purge the queued job, which nacks
        pending chunks back and fences out straggler worker acks.
        """
        self.cancelled = True

    # -- shared surface -------------------------------------------------
    def iter_sample_stream(
        self, plan: ExecutionPlan, *, on_chunk=None
    ) -> Iterator[StreamEvent]:
        """The unified entrypoint: incremental ``(chunk_index, result)``.

        Validates every chunk as it arrives (worker errors raise
        :class:`~repro.errors.WorkerFailure`, overruns raise
        :class:`~repro.errors.BudgetExhausted`) and folds stats
        incrementally — read :attr:`stream_stats` at any point, including
        mid-stream.  Nothing per-witness is retained here: memory is the
        backend's in-flight window, not O(n).

        ``on_chunk``
            Optional ``(chunk_index, raw_dict) -> None`` callback fired
            once per *validated* chunk, before its per-draw events are
            yielded — the hook chunk-granular sinks
            (:class:`repro.sinks.StatsFold`) fold raw chunk stats through
            without the per-draw events having to carry them.

        Closing the returned generator mid-stream (or any error escaping
        it) deterministically closes :meth:`run_plan` too, so backend
        resources wound into the generator frame — the pool's worker
        processes above all — are torn down at abandonment, not at GC.
        """
        fold = ChunkFold(
            chunk_timeout_s=self.chunk_timeout_s, keep_results=False
        )
        self.fold = fold
        self.cancelled = False
        chunks = self.run_plan(plan)
        exhausted = False
        try:
            for raw in chunks:
                results = fold.add(raw)
                if on_chunk is not None:
                    on_chunk(raw["chunk"], raw)
                for result in results:
                    yield StreamEvent(raw["chunk"], result)
            exhausted = True
        finally:
            if not exhausted:
                self.cancelled = True
            chunks.close()

    @property
    def stream_stats(self) -> SamplerStats:
        """Stats folded so far by the most recent stream (streaming-safe)."""
        return self.fold.stats if self.fold is not None else SamplerStats()

    def collect(self, plan: ExecutionPlan) -> SampleReport:
        """Run the plan to completion and return the classic merged report.

        This is the merge-at-end :class:`SampleReport`: it holds
        every witness, which is exactly what the streaming entrypoint
        exists to avoid — use it when ``n`` is coordinator-memory sized.
        """
        fold = ChunkFold(
            chunk_timeout_s=self.chunk_timeout_s, keep_results=True
        )
        self.fold = fold
        start = time.monotonic()
        for raw in self.run_plan(plan):
            fold.add(raw)
        return self.build_report(
            plan, wall_time_seconds=time.monotonic() - start
        )

    def build_report(
        self,
        plan: ExecutionPlan,
        *,
        results: list[SampleResult] | None = None,
        wall_time_seconds: float = 0.0,
    ) -> SampleReport:
        """The classic report, assembled from the most recent run's fold.

        The one place the report schema is built: :meth:`collect` uses it
        with the fold's own results, and streaming consumers that kept
        their own :class:`~repro.core.base.SampleResult` list (the CLI's
        ``--report-json``) pass it via ``results``.
        """
        fold = self.fold if self.fold is not None else ChunkFold()
        if results is None:
            results = fold.results
        extras = self._report_extras()
        return SampleReport(
            witnesses=[r.witness for r in results if r.ok],
            results=results,
            stats=fold.stats,
            sampler=plan.sampler,
            jobs=extras.get("jobs", 1),
            n_requested=plan.n,
            chunk_size=plan.chunk_size,
            n_chunks=plan.n_chunks,
            root_seed=plan.root_seed,
            wall_time_seconds=wall_time_seconds,
            chunk_times=list(fold.chunk_times),
            requeues=extras.get("requeues", 0),
        )

    def _report_extras(self) -> dict:
        """Backend-specific report fields (worker count, requeues)."""
        return {}
