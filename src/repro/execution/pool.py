"""The pool backend: a process pool fed through a bounded in-flight window.

PR 2's engine submitted every chunk up front and collected them all before
merging — O(n) witnesses in the coordinator even though results were
consumed in order.  The windowed submission loop here keeps at most
``window`` chunks outstanding: submit up to the window, wait for the
*oldest* handle (chunk order — no reorder buffer needed), yield it, top
the window back up.  Scheduling changes nothing about the draws (chunk
seeds are derived in the plan), so the stream is byte-identical to the
serial backend's.

``chunk_timeout_s`` is enforced both ways the old engine enforced it: the
wait on a handle is capped (a hung chunk terminates the pool and raises
:class:`~repro.errors.BudgetExhausted`), and the shared fold re-checks
every chunk's self-measured time, so an overrun masked by waiting on an
earlier chunk is still reported.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from typing import Iterator

from ..errors import BudgetExhausted
from ..parallel.worker import init_worker, run_pooled_chunk
from .base import ExecutionPlan, SampleBackend
from .registry import register_backend


def resolve_start_method(explicit: str | None) -> str:
    """The one start-method policy: honor an explicit choice, else
    ``fork`` where the platform offers it (cheap on Linux), else
    ``spawn``.  Either way the payload crosses the process boundary in
    its serialized dict form, so the drawn stream does not depend on it."""
    if explicit is not None:
        return explicit
    available = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in available else "spawn"


class PoolBackend(SampleBackend):
    """Windowed ``multiprocessing.Pool`` execution."""

    name = "pool"

    def __init__(
        self,
        *,
        jobs: int = 2,
        window: int | None = None,
        start_method: str | None = None,
        chunk_timeout_s: float | None = None,
    ):
        super().__init__(window=window)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.start_method = start_method
        self.chunk_timeout_s = chunk_timeout_s

    def resolved_window(self) -> int:
        """Default: twice the job count — enough lookahead to keep every
        worker busy while the coordinator drains the oldest chunk."""
        if self.window is not None:
            return self.window
        return max(2, 2 * self.jobs)

    def run_plan(self, plan: ExecutionPlan) -> Iterator[dict]:
        if not plan.tasks:
            # A zero-chunk plan (n=0) completes without forking a single
            # process; the empty fold downstream merges to empty stats.
            return
        window = self.resolved_window()
        ctx = multiprocessing.get_context(
            resolve_start_method(self.start_method)
        )
        with ctx.Pool(
            processes=self.jobs,
            initializer=init_worker,
            initargs=(plan.payload,),
        ) as pool:
            pending: deque = deque()
            next_submit = 0
            tasks = plan.tasks
            while pending or next_submit < len(tasks):
                while next_submit < len(tasks) and len(pending) < window:
                    task = tasks[next_submit]
                    pending.append(
                        (task, pool.apply_async(run_pooled_chunk, (task,)))
                    )
                    next_submit += 1
                    self._track(len(pending))
                task, handle = pending.popleft()
                try:
                    raw = handle.get(self.chunk_timeout_s)
                except multiprocessing.TimeoutError:
                    pool.terminate()
                    raise BudgetExhausted(
                        f"parallel chunk {task.index} exceeded "
                        f"chunk_timeout_s={self.chunk_timeout_s}"
                    ) from None
                yield raw
                self._track(len(pending))

    def _report_extras(self) -> dict:
        return {"jobs": self.jobs}


@register_backend(
    "pool",
    summary="process pool with a bounded in-flight window (same host)",
)
def _make_pool(**kwargs) -> PoolBackend:
    return PoolBackend(**kwargs)
