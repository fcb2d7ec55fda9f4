"""The chunked work plan and result merge shared by every fan-out path.

PR 2's process pool and the distributed broker (:mod:`repro.distributed`)
must draw the *identical* witness stream from one root seed — that is the
jobs-invariance guarantee, and it holds because both paths share, verbatim,
the three pure pieces this module isolates:

* :func:`chunk_plan` — the task list.  A pure function of
  ``(n, chunk_size, root_seed)``: nothing about jobs, workers, transports,
  or scheduling enters, which is the whole determinism argument.  Each
  :class:`ChunkTask` carries its *derived* seed, so a chunk re-issued after
  a worker crash (or run by a different worker on a different host) draws
  exactly what the original lease would have drawn.
* :func:`build_payload` — the serialized per-worker recipe (plain dicts and
  strings only), identical whether it crosses a ``fork()``, a spool
  directory, or a socket.
* :class:`ChunkFold` — fold raw per-chunk result dicts, already ordered
  by chunk index, back into one witness stream, one
  :class:`~repro.core.base.SampleResult` stream, and one merged
  :class:`~repro.core.base.SamplerStats`; re-raise worker errors as
  :class:`~repro.errors.WorkerFailure` and enforce the per-chunk time cap.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..core.base import SampleResult, SamplerStats, Witness
from ..errors import BudgetExhausted, WorkerFailure
from ..rng import derive_seed


class ChunkTask(NamedTuple):
    """One unit of work: draw ``count`` witnesses under ``seed``.

    A plain tuple subclass on purpose: it unpacks positionally into
    :func:`repro.parallel.worker.run_chunk` exactly like the raw tuples PR 2
    shipped, pickles cheaply across the pool boundary, and round-trips
    through JSON (:meth:`to_dict`/:meth:`from_dict`) for broker transports.
    ``seed`` is derived from the run's root seed and ``index`` — never drawn
    from shared state — so the task row itself is the unit of determinism:
    wherever and however often it runs, it produces the same draws.
    """

    index: int
    seed: int
    count: int
    max_attempts: int

    def to_dict(self) -> dict:
        """JSON wire form (broker spool files); inverse of :meth:`from_dict`."""
        return {
            "index": self.index,
            "seed": self.seed,
            "count": self.count,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChunkTask":
        return cls(
            index=int(data["index"]),
            seed=int(data["seed"]),
            count=int(data["count"]),
            max_attempts=int(data["max_attempts"]),
        )


def default_chunk_size(n: int, per_instance: int = 1) -> int:
    """The chunking policy: a pure function of ``n`` and the sampler.

    Deliberately **not** a function of the job count or the backend — if
    it were, running the same seed under ``--jobs 1`` and ``--jobs 8``
    would partition the per-chunk seed sequence differently and draw
    different witnesses.  Aims for enough chunks to keep any pool busy
    (≥ 2 per witness up to 32 chunks), then rounds up to a multiple of
    ``per_instance``, the draws one sampler instance serves without waste
    (:meth:`~repro.core.base.WitnessSampler.draws_per_instance`): a whole
    accepted cell for UniGen2 on a hashed artifact, the whole run for PAWS
    and US, whose set-up every chunk would otherwise repeat.
    """
    size = 1 if n <= 0 else max(1, min(16, math.ceil(n / 32)))
    return math.ceil(size / per_instance) * per_instance


def chunk_plan(
    n: int, chunk_size: int, root_seed: int, max_attempts_factor: int
) -> list[ChunkTask]:
    """The task list: a pure function of ``(n, chunk_size, root_seed)``."""
    tasks = []
    for index in range(math.ceil(n / chunk_size)):
        count = min(chunk_size, n - index * chunk_size)
        tasks.append(
            ChunkTask(
                index=index,
                seed=derive_seed(root_seed, index),
                count=count,
                max_attempts=max(1, count * max_attempts_factor),
            )
        )
    return tasks


def build_payload(target, sampler: str, config) -> dict:
    """The serialized per-worker payload (plain dicts and strings only).

    ``target`` is what every chunk's sampler is built over: a
    :class:`~repro.api.prepared.PreparedFormula` for samplers with a
    prepare phase, whose lines 1–11 ran once in the submitting process, or
    the bare formula, shipped as DIMACS text (``c ind``/``x`` lines
    included), for samplers without one.
    """
    from ..api.prepared import PreparedFormula
    from ..cnf.dimacs import to_dimacs

    payload = {"sampler": sampler, "config": config.to_dict()}
    if isinstance(target, PreparedFormula):
        payload["prepared"] = target.to_dict()
    else:
        payload["dimacs"] = to_dimacs(target)
        payload["name"] = target.name
    return payload


def raise_worker_failure(raw: dict) -> None:
    """Re-raise a worker-captured exception dict as :class:`WorkerFailure`."""
    error = raw["error"]
    raise WorkerFailure(
        f"worker chunk {raw['chunk']} failed with {error['type']}: "
        f"{error['message']}",
        chunk_index=raw["chunk"],
        remote_type=error["type"],
        remote_traceback=error["traceback"],
    )


class ChunkFold:
    """The streaming fold over ordered raw chunk results.

    One chunk at a time: :meth:`add` validates the chunk (worker errors
    re-raise as :class:`~repro.errors.WorkerFailure`, self-measured time is
    checked against ``chunk_timeout_s``), folds its stats into a running
    :class:`~repro.core.base.SamplerStats`, and returns the chunk's decoded
    :class:`~repro.core.base.SampleResult` list for the caller to forward.

    With ``keep_results=False`` nothing per-witness is retained — the fold
    holds O(1) state plus one float per chunk, which is what lets the
    streaming backends bound coordinator memory by their in-flight window.
    """

    def __init__(
        self,
        *,
        chunk_timeout_s: float | None = None,
        keep_results: bool = True,
    ):
        self.chunk_timeout_s = chunk_timeout_s
        self.keep_results = keep_results
        self.witnesses: list[Witness] = []
        self.results: list[SampleResult] = []
        self.stats = SamplerStats()
        self.chunk_times: list[float] = []
        self.delivered = 0
        self.n_chunks = 0

    def add(self, raw: dict) -> list[SampleResult]:
        """Fold one raw chunk dict; returns its decoded per-draw results."""
        if raw["error"] is not None:
            raise_worker_failure(raw)
        if (
            self.chunk_timeout_s is not None
            and raw["time_seconds"] > self.chunk_timeout_s
        ):
            raise BudgetExhausted(
                f"parallel chunk {raw['chunk']} ran "
                f"{raw['time_seconds']:.3f}s, exceeding chunk_timeout_s="
                f"{self.chunk_timeout_s}"
            )
        chunk_results = [SampleResult.from_dict(r) for r in raw["results"]]
        if self.keep_results:
            self.results.extend(chunk_results)
            # Witnesses are carried inside the results (serialized once);
            # the flat list shares those dict objects rather than copying.
            self.witnesses.extend(r.witness for r in chunk_results if r.ok)
        self.delivered += sum(1 for r in chunk_results if r.ok)
        self.stats.merge_raw(raw["stats"])
        self.chunk_times.append(raw["time_seconds"])
        self.n_chunks += 1
        return chunk_results
