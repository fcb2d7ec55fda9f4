"""``US`` — the idealized uniform sampler of Section 5 (Figure 1), plus a
true enumerative uniform witness sampler for tests.

The paper's US works like this: determine ``|R_F|`` with an exact model
counter (they used sharpSAT; we use :class:`~repro.counting.ExactCounter`),
then "to mimic generating a random witness, US simply generates a random
number i in {1 .. |R_F|}".  The Figure 1 comparison only needs the
*distribution of draw counts*, for which the index is enough — and crucially
US shares the random source with UniGen, as the paper stresses.

:class:`EnumerativeUniformSampler` additionally materializes the witnesses
(feasible at test scale), giving exactly uniform *witnesses* — the oracle
against which UniGen's Theorem 1 envelope is checked.
"""

from __future__ import annotations

from ..cnf.formula import CNF
from ..counting.exact import ExactCounter
from ..errors import UnsatisfiableError
from ..rng import RandomSource, as_random_source
from ..sat.enumerate import enumerate_all
from .base import Witness, WitnessSampler


class IdealUniformSampler:
    """US: exact count once, then uniform indices (Section 5).

    ``sample_index()`` returns a uniform draw from ``{0, .., |R_F|-1}``;
    :meth:`sample_many_indices` batches draws for histogramming.
    """

    name = "US"

    def __init__(
        self,
        cnf: CNF,
        rng: RandomSource | int | None = None,
        max_nodes: int = 2_000_000,
    ):
        self.cnf = cnf
        self._rng = as_random_source(rng)
        self.count = ExactCounter(cnf, max_nodes=max_nodes).count()
        if self.count == 0:
            raise UnsatisfiableError("formula has no witnesses")

    def sample_index(self) -> int:
        """A uniform witness index in ``[0, |R_F|)``."""
        return self._rng.randint(0, self.count - 1)

    def sample_many_indices(self, n: int) -> list[int]:
        return [self.sample_index() for _ in range(n)]


class EnumerativeUniformSampler(WitnessSampler):
    """Exactly uniform witness sampler by full enumeration (test oracle).

    Enumerates all witnesses once (distinct on the sampling set), on the
    first draw or ``count`` access, then serves uniform draws.  Only
    suitable when ``|R_F|`` fits in memory — enforced by ``limit``.
    """

    name = "UniformEnum"

    def __init__(
        self,
        cnf: CNF,
        rng: RandomSource | int | None = None,
        limit: int = 200_000,
        sampling_set=None,
    ):
        super().__init__()
        self.cnf = cnf
        self._rng = as_random_source(rng)
        self._limit = limit
        self._sampling_set = sampling_set
        self._witnesses: list[Witness] | None = None

    def prepare(self) -> None:
        """Enumerate ``R_F`` once; raises
        :class:`~repro.errors.UnsatisfiableError` if it is empty."""
        if self._witnesses is not None:
            return
        witnesses = enumerate_all(
            self.cnf, sampling_set=self._sampling_set, limit=self._limit
        )
        if not witnesses:
            raise UnsatisfiableError("formula has no witnesses")
        self._witnesses = witnesses

    @property
    def count(self) -> int:
        self.prepare()
        return len(self._witnesses)

    def draws_per_instance(self, n: int) -> int:
        """The whole run: every instance enumerates ``R_F`` in full."""
        return max(1, n)

    def _sample_once(self) -> Witness | None:
        self.prepare()
        return dict(self._rng.choice(self._witnesses))
