"""The GF(2) bit-matrix kernel behind Gaussian elimination.

Rows are Python ints used as bit masks (bit ``v`` = variable ``v``), so a
row XOR is one arbitrary-precision int operation and the kernel needs no
dependency.  At sampling sizes (a handful of hash rows over a few hundred
variables) this beats a packed vectorized kernel, whose per-call dispatch
costs more than the elimination itself.

:class:`BitMatrix` appends incrementally: forward elimination happens row
by row, so a caller growing an XOR system reuses all previously eliminated
state instead of re-reducing from scratch.

Back-substitution touches only rows that actually contain the pivot being
cleared, via pivot-column hit masks, instead of an O(p²) all-pairs scan
(see ``benchmarks/configs/innerloop.json``'s rank-500 micro, which keeps
that from regressing).
"""

from __future__ import annotations


def mask_of_vars(vars) -> int:
    """Pack variable indices into a bit mask (bit ``v`` = variable ``v``)."""
    mask = 0
    for v in vars:
        mask |= 1 << v
    return mask


def vars_of_mask(mask: int) -> list[int]:
    """Unpack a bit mask into its variable indices, ascending."""
    vs = []
    while mask:
        low = mask & -mask
        vs.append(low.bit_length() - 1)
        mask ^= low
    return vs


class BitMatrix:
    """Incremental GF(2) row space in reduced row-echelon form.

    Append rows as ``(mask, rhs)`` pairs (or XOR clauses via
    :meth:`extend_xors`); read the state back at any time with
    :meth:`reduced_rows` / :attr:`rank` / :attr:`inconsistent`.  Appends
    after a read are fine: the eliminated state is reused.

    Forward elimination is the classic cascade on the leading bit;
    back-substitution is deferred to :meth:`reduced_rows` and, per row,
    XORs only the pivot rows named by the row's *hit mask*
    (``mask & lead_mask``); rows without the pivot are never visited.
    """

    def __init__(self, num_vars: int):
        self.num_vars = int(num_vars)
        self.inconsistent = False
        # lead bit -> (mask, rhs) in forward (row-echelon) form.
        self._pivots: dict[int, tuple[int, int]] = {}
        self._lead_mask = 0
        self._reduced: list[tuple[int, int]] | None = []

    def extend(self, pairs) -> None:
        """Append many ``(mask, rhs)`` rows."""
        for mask, rhs in pairs:
            self.append(mask, rhs)

    def extend_xors(self, xors) -> None:
        self.extend(
            (mask_of_vars(xor.vars), 1 if xor.rhs else 0) for xor in xors
        )

    def append(self, mask: int, rhs: int) -> None:
        self._reduced = None
        rhs &= 1
        pivots = self._pivots
        while mask:
            lead = mask.bit_length() - 1
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = (mask, rhs)
                self._lead_mask |= 1 << lead
                return
            mask ^= hit[0]
            rhs ^= hit[1]
        if rhs:
            self.inconsistent = True

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduced_rows(self) -> list[tuple[int, int]]:
        if self._reduced is None:
            # An inconsistent system contains the row 0 = 1, which in the
            # canonical augmented RREF clears every other RHS bit; zero
            # them so the result does not depend on the elimination order.
            zero_rhs = self.inconsistent
            reduced: dict[int, tuple[int, int]] = {}
            lead_mask = self._lead_mask
            out = []
            for lead in sorted(self._pivots):
                mask, rhs = self._pivots[lead]
                # Pivot columns present in this row, all below its lead and
                # all already reduced (ascending order): XORing a reduced
                # row toggles only free columns, so the hit mask computed
                # once is exhaustive.
                hits = (mask ^ (1 << lead)) & lead_mask
                while hits:
                    low = hits & -hits
                    pm, pr = reduced[low.bit_length() - 1]
                    mask ^= pm
                    rhs ^= pr
                    hits ^= low
                reduced[lead] = (mask, rhs)
                out.append((mask, 0 if zero_rhs else rhs))
            self._reduced = out
        return list(self._reduced)

    def copy(self) -> "BitMatrix":
        clone = BitMatrix(self.num_vars)
        clone.inconsistent = self.inconsistent
        clone._pivots = dict(self._pivots)
        clone._lead_mask = self._lead_mask
        clone._reduced = None if self._reduced is None else list(self._reduced)
        return clone
