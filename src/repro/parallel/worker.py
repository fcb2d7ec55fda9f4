"""Worker side of the chunked sampling pipeline.

Every chunk plan is drawn here, whichever entry point built it (the
library's ``build_plan``, ``repro sample`` with or without ``--jobs``,
the broker, the gateway): inside a pool process or a broker worker, or
inline on the serial backend, through the *same* code path, so the
jobs-invariance guarantee is enforced by construction rather than by
careful duplication.

Lifecycle:

* :class:`WorkerState` deserializes the payload — a
  :class:`~repro.api.prepared.PreparedFormula` **dict** (or DIMACS text for
  samplers without a prepare phase), the sampler's registry name, and the
  shared sampler-config dict — once per plan.  Shipping the dict rather
  than a pickled object means the JSON round trip that ``repro prepare
  --out`` relies on is exercised on every parallel run.
* :func:`run_chunk` handles one unit of work against the state it is
  given: build a **fresh** sampler (which is why default chunks are a
  multiple of :meth:`~repro.core.base.WitnessSampler.draws_per_instance`)
  seeded from the chunk's deterministically derived seed, run the base
  class's :meth:`~repro.core.base.WitnessSampler.sample_until_results`
  retry loop for up to ``count`` witnesses, and return a plain-dict result
  (the per-draw :class:`~repro.core.base.SampleResult` dicts — witnesses
  ride inside them, serialized once — and the chunk's
  :class:`~repro.core.base.SamplerStats`).  Exceptions never cross the
  boundary raw — they are captured with their traceback text and re-raised
  by the fold as :class:`~repro.errors.WorkerFailure`.

The serial backend and the distributed worker hold their ``WorkerState``
in a local variable, so two plans running in one process (the gateway's
concurrent groups) never see each other's formula.  Only a pool process
keeps a module slot: :func:`init_worker` fills it as the pool initializer
and :func:`run_pooled_chunk` reads it.
"""

from __future__ import annotations

import time
import traceback

from ..errors import ReproError
from ..rng import RandomSource

#: A pool process's deserialized payload, set by :func:`init_worker`.
_POOL_STATE: "WorkerState | None" = None

#: The clock chunks measure themselves with.  An indirection (rather than a
#: direct ``time.monotonic()`` call) so tests can substitute a fake clock —
#: under the ``fork`` start method a monkeypatched value is inherited by
#: pool workers, which lets chunk-timeout behaviour be tested without
#: wall-clock-sensitive sleeps.
_monotonic = time.monotonic


class WorkerState:
    """The payload after deserialization: target formula + sampler recipe."""

    def __init__(self, payload: dict):
        from ..api.config import SamplerConfig
        from ..api.prepared import PreparedFormula
        from ..cnf.dimacs import parse_dimacs

        self.sampler_name: str = payload["sampler"]
        self.config = SamplerConfig.from_dict(payload["config"])
        prepared = payload.get("prepared")
        if prepared is not None:
            # The serialization round trip "in anger": every worker adopts
            # the artifact exactly the way `repro sample --prepared` does.
            self.target = PreparedFormula.from_dict(prepared)
        else:
            self.target = parse_dimacs(
                payload["dimacs"], name=payload.get("name", "")
            )


def init_worker(payload: dict) -> None:
    """Pool initializer: deserialize the payload once per process."""
    global _POOL_STATE
    _POOL_STATE = WorkerState(payload)


def run_pooled_chunk(task: tuple[int, int, int, int]) -> dict:
    """:func:`run_chunk` against this pool process's state."""
    return run_chunk(task, _POOL_STATE)


def run_chunk(
    task: tuple[int, int, int, int], state: WorkerState | None
) -> dict:
    """Execute one chunk of ``state``'s plan.

    ``task`` is ``(chunk_index, seed, count, max_attempts)``.  Returns a
    JSON-friendly dict; on failure the ``error`` key carries the
    exception's type name, message, and formatted traceback instead of the
    witnesses.
    """
    chunk_index, seed, count, max_attempts = task
    start = _monotonic()
    try:
        from ..api.registry import make_sampler

        if state is None:
            raise RuntimeError(
                "worker process not initialized (init_worker did not run)"
            )
        sampler = make_sampler(
            state.sampler_name,
            state.target,
            state.config,
            rng=RandomSource(seed),
        )
        # The shared retry loop; ⊥ entries ride along so observed success
        # probability survives the merge.
        results = sampler.sample_until_results(
            count, max_attempts=max_attempts
        )
        return {
            "chunk": chunk_index,
            "results": [r.to_dict() for r in results],
            "stats": sampler.stats.to_dict(),
            "time_seconds": _monotonic() - start,
            "error": None,
        }
    except Exception as exc:  # noqa: BLE001 — must not kill the pool
        return {
            "chunk": chunk_index,
            "results": [],
            "stats": None,
            "time_seconds": _monotonic() - start,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
                # Library/config errors (UNSAT, bad ε, exhausted budgets)
                # are deterministic — rerunning the same seed reproduces
                # them.  Anything else (MemoryError, OSError, …) is
                # worker-local trouble a different host might not hit; the
                # distributed queue retries those instead of failing the
                # job.
                "retryable": not isinstance(exc, (ReproError, ValueError)),
            },
        }
