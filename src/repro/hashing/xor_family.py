"""The 3-independent XOR hash family ``Hxor(n, m, 3)`` (Section 4).

A hash function ``h : {0,1}^n -> {0,1}^m`` from the family is

    ``h(y)[i] = a_{i,0} ⊕ (⊕_{k=1..n} a_{i,k} · y[k])``

with all coefficients ``a_{i,j}`` drawn independently and uniformly from
``{0,1}``.  Gomes, Sabharwal and Selman showed this family is 3-wise
independent; UniGen draws ``h`` and a random target ``α ∈ {0,1}^m`` and
conjoins the constraint ``h(S-vars) = α`` — which is just ``m`` XOR clauses,
each over about half of the sampling variables.

The *expected* number of variables per XOR clause is ``|S| / 2`` — this is
the quantity reported in the "Avg XOR len" columns of Tables 1 and 2, and it
is the reason hashing over a small independent support (UniGen) beats
hashing over the full variable set (UniWit/XORSample'/PAWS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..cnf.xor import XorClause
from ..rng import RandomSource, as_random_source


def density_digits(density: float) -> list[int]:
    """Binary digits ``b1..bk`` of ``density`` (``0.b1b2…bk``), trailing
    zeros trimmed — ``k`` is the number of RNG words one row consumes.

    Every Python float is a dyadic rational, so the expansion is finite
    (53 significant digits, more only for subnormals).  ``density == 0.5``
    gives ``[1]``; ``density == 1.0`` is handled separately by
    :func:`row_word` (zero draws).
    """
    if not 0.0 < density < 1.0:
        raise ValueError("density must be in (0, 1) for a digit expansion")
    digits: list[int] = []
    x = density
    while x:
        x *= 2.0
        bit = int(x)
        digits.append(bit)
        x -= bit
    while digits and digits[-1] == 0:  # pragma: no cover - x==0 trims exactly
        digits.pop()
    return digits


def row_word(rng: RandomSource, n: int, density: float = 0.5) -> int:
    """Draw one row's variable-selection word: bit ``k`` set with
    probability ``density``, independently, via whole-word RNG draws.

    **RNG-consumption contract** — per row, exactly ``len(density_digits
    (density))`` calls to ``rng.bits(n)`` and nothing else: a fixed
    function of ``density`` alone, never of the drawn outcomes.  In
    particular ``density == 0.5`` consumes exactly one word — the same
    stream the historical fast path consumed, so fixed-seed goldens are
    preserved — and ``density == 1.0`` consumes zero (the row is the full
    mask).  The historical general path consumed ``n`` ``rng.random()``
    floats per row, so the same root seed put density-ablation runs (A4)
    on unrelated downstream streams; routing every density through this
    primitive makes consumption shape uniform across the ablation grid.

    The construction folds fair words over the binary expansion
    ``density = 0.b1…bk``, least-significant digit first: starting from
    the word for ``bk`` (always 1 after trimming), each earlier digit
    ``b`` maps ``acc`` to ``word | acc`` (``b = 1``) or ``word & acc``
    (``b = 0``), giving per-bit probability ``b/2 + q/2`` at each step —
    exactly ``density`` after ``k`` steps.
    """
    if density == 1.0:
        return (1 << n) - 1
    digits = density_digits(density)
    acc = rng.bits(n)
    for b in reversed(digits[:-1]):
        word = rng.bits(n)
        acc = (word | acc) if b else (word & acc)
    return acc


@dataclass(frozen=True)
class HashConstraint:
    """A sampled ``(h, α)`` pair lowered to XOR clauses over given variables.

    ``xors[i]`` is the clause ``⊕_{v in row i} v = α[i] ⊕ a_{i,0}`` — i.e. the
    coefficient rows with the target already folded into the right-hand side.
    """

    num_rows: int
    xors: tuple[XorClause, ...]

    def average_xor_length(self) -> float:
        """Mean variable count per XOR clause (Tables 1/2, "Avg XOR len")."""
        if not self.xors:
            return 0.0
        return sum(len(x) for x in self.xors) / len(self.xors)


class HxorFamily:
    """Sampler for ``Hxor(|variables|, m, 3)`` over a fixed variable list.

    Parameters
    ----------
    variables:
        The (external) CNF variables being hashed — UniGen passes the
        sampling set ``S``, UniWit the full support ``X``.
    density:
        Probability that a variable appears in a row.  The theoretical family
        uses 0.5; smaller values give the "short XOR" variant of Gomes et al.
        (2007) that trades guarantees for speed (ablation A4).
    """

    def __init__(self, variables: Sequence[int], density: float = 0.5):
        if not 0.0 < density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        self.variables = tuple(sorted(set(int(v) for v in variables)))
        if any(v <= 0 for v in self.variables):
            raise ValueError("hash variables must be positive")
        self.density = density

    @property
    def n(self) -> int:
        return len(self.variables)

    def draw(self, m: int, rng: RandomSource | int | None = None) -> HashConstraint:
        """Draw ``h`` from the family and ``α`` uniformly; return ``h = α``.

        Each of the ``m`` rows selects each variable with probability
        ``density`` and a uniform constant term; the row's XOR right-hand
        side is ``α[i] ⊕ a_{i,0}``.  Empty rows are legal: they are the
        constraints ``0 = α[i] ⊕ a_{i,0}``, which with probability 1/2 make
        the cell empty — exactly the semantics the analysis expects.
        """
        rng = as_random_source(rng)
        if m < 0:
            raise ValueError("m must be non-negative")
        rows: list[XorClause] = []
        variables = self.variables
        n = self.n
        for _ in range(m):
            # Whole-word draw at every density (see row_word's contract):
            # one rng.bits(n) word per binary digit of the density.
            word = row_word(rng, n, self.density)
            vs = [v for k, v in enumerate(variables) if (word >> k) & 1]
            a0 = rng.bit()
            alpha_i = rng.bit()
            rows.append(XorClause.from_vars(vs, bool(a0 ^ alpha_i)))
        return HashConstraint(num_rows=m, xors=tuple(rows))

    def hash_of(self, constraint: HashConstraint, assignment: dict[int, bool]) -> bool:
        """True iff ``assignment`` lands in the cell selected by ``constraint``."""
        return all(x.evaluate(assignment) for x in constraint.xors)
