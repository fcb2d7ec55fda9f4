"""UniGen2-style batched sampling — the paper's follow-up optimization.

The DAC 2014 algorithm returns **one** witness per accepted cell (Algorithm
1, lines 21–22) even though it just enumerated up to ``hiThresh`` of them.
The successor work (Chakraborty, Fremont, Meel, Seshia, Vardi — *On Parallel
Scalable Uniform SAT Witness Generation*, TACAS 2015, "UniGen2") observed
that a cell that passed the ``[loThresh, hiThresh]`` acceptance test can
safely yield **⌈loThresh⌉ distinct witnesses**, cutting the amortized cost
per witness by an order of magnitude while preserving the per-sample
almost-uniformity guarantee.

The trade-off, stated plainly: witnesses drawn from the *same* cell are not
mutually independent (they are distinct members of one random cell).  Each
witness is still marginally almost-uniform, which is what constrained-random
verification consumes; applications needing full independence should stick
to :class:`~repro.core.unigen.UniGen`.

This class reuses the parent's ``prepare()`` (lines 1–11) and the shared
:class:`~repro.core.cellsearch.CellSearch` engine (lines 12–19) unchanged —
the only thing it overrides is the *consumption* of an accepted cell:
``batch_size()`` witnesses per cell instead of one.
"""

from __future__ import annotations

import math
import time

from .base import Witness
from .unigen import UniGen


class UniGen2(UniGen):
    """Batched almost-uniform generator (UniGen2, TACAS 2015 style).

    ``sample()`` behaves exactly like UniGen (one witness, same guarantee).
    ``sample_batch()`` returns up to ``⌈loThresh⌉`` distinct witnesses from
    one accepted cell; ``sample_stream(n)`` chains batches until ``n``
    witnesses are collected (it is the base class's ``sample_until`` under
    its historical name).
    """

    name = "UniGen2"

    def batch_size(self) -> int:
        """Witnesses harvested per accepted cell: ``⌈loThresh⌉``."""
        return max(1, math.ceil(self.kp.lo_thresh))

    def draws_per_instance(self, n: int) -> int:
        """One accepted cell's harvest; 1 in the easy case, where every
        draw is an independent pick from the cached witness list."""
        self.prepare()
        return 1 if self._easy_witnesses is not None else self.batch_size()

    def sample_batch(self) -> list[Witness]:
        """One cell draw, many witnesses.

        Returns an empty list on the ⊥ outcome.  Witnesses within a batch
        are distinct (on the sampling set) but not mutually independent.
        """
        self.prepare()
        want = self.batch_size()
        start = time.monotonic()
        try:
            if self._easy_witnesses is not None:
                # Easy case: the full witness list is cached; independent
                # uniform draws are free, so return genuinely independent
                # ones.
                batch = [
                    dict(self._rng.choice(self._easy_witnesses))
                    for _ in range(want)
                ]
                self.stats.attempts += 1
                self.stats.successes += 1
                return batch
            cell = self._find_accepted_cell()
            self.stats.attempts += 1
            if cell is None:
                self.stats.failures += 1
                return []
            self.stats.successes += 1
            take = min(want, len(cell.models))
            return [dict(w) for w in self._rng.sample(cell.models, take)]
        finally:
            self.stats.sample_time_seconds += time.monotonic() - start

    def sample_stream(self, n: int, max_attempts: int | None = None) -> list[Witness]:
        """Collect ``n`` witnesses across as many batches as needed."""
        return self.sample_until(n, max_attempts=max_attempts)
