"""Regression tests for the Section 5 retry accounting in CellSearch.

A BSAT timeout repeats lines 14–16 with a *fresh* ``(h, α)`` at the same
hash size; the discarded draw contributed no cell, so its rows must land in
``xor_clauses_retried`` / ``xor_literals_retried`` — never in the
``*_added`` counters that the Tables-1/2 "Avg XOR len" column divides.
The old behaviour folded retried draws into ``*_added``, skewing the
average toward however many times BSAT happened to time out.

The search solves every cell on a per-sweep ``SolverSession``; these tests
stand a scripted session in for it.
"""

import pytest

from repro.cnf.formula import CNF
from repro.core.base import SamplerStats
from repro.core.cellsearch import CellSearch
from repro.errors import BudgetExhausted
from repro.hashing import HxorFamily
from repro.rng import RandomSource
from repro.sat.types import EnumerationResult


class ScriptedSession:
    """A session whose first ``timeouts`` BSAT calls exhaust the budget.

    ``calls`` records the hash rows of each call, timed-out and successful
    alike.
    """

    def __init__(self, timeouts):
        self.calls = []
        self.timeouts = timeouts

    def bsat(self, xors, bound, **kwargs):
        self.calls.append(list(xors))
        if len(self.calls) <= self.timeouts:
            return EnumerationResult(models=[], budget_exhausted=True)
        return EnumerationResult(
            models=[{v: False for v in range(1, 7)}], complete=True
        )


def make_search(monkeypatch, timeouts, max_retries=20):
    """A CellSearch whose sweeps all solve on one scripted session.

    Returns ``(search, stats, session)``.
    """
    cnf = CNF(6)
    cnf.add_clauses([[1, 2], [3, 4], [5, 6]])
    stats = SamplerStats()
    search = CellSearch(
        cnf=cnf,
        family=HxorFamily([1, 2, 3, 4, 5, 6]),
        sampling_set=[1, 2, 3, 4, 5, 6],
        hi_thresh=64,
        lo_thresh=1.0,
        rng=RandomSource(7),
        stats=stats,
        max_retries=max_retries,
    )
    session = ScriptedSession(timeouts)
    monkeypatch.setattr(
        "repro.core.cellsearch.SolverSession", lambda cnf: session
    )
    return search, stats, session


def drawn_xor_counts(calls):
    """(clauses, literals) of the hash rows of each bsat call."""
    return [(len(xors), sum(len(x) for x in xors)) for xors in calls]


class TestRetriedAccounting:
    def test_timeouts_do_not_skew_avg_xor_len(self, monkeypatch):
        search, stats, session = make_search(monkeypatch, timeouts=2)
        models = search.draw_cell(3, session)
        assert len(models) == 1
        assert len(session.calls) == 3
        counts = drawn_xor_counts(session.calls)
        # Only the final (successful) draw feeds the *_added counters...
        assert stats.xor_clauses_added == counts[2][0] == 3
        assert stats.xor_literals_added == counts[2][1]
        # ...while both discarded draws are booked separately.
        assert stats.bsat_timeouts == 2
        assert stats.xor_clauses_retried == counts[0][0] + counts[1][0] == 6
        assert stats.xor_literals_retried == counts[0][1] + counts[1][1]
        # Avg XOR len is the successful draw's mean length, untouched by
        # however many retries preceded it.
        assert stats.avg_xor_length == pytest.approx(counts[2][1] / 3)

    def test_no_timeout_leaves_retried_counters_zero(self, monkeypatch):
        search, stats, session = make_search(monkeypatch, timeouts=0)
        search.draw_cell(2, session)
        assert stats.bsat_timeouts == 0
        assert stats.xor_clauses_retried == 0
        assert stats.xor_literals_retried == 0
        assert stats.xor_clauses_added == 2

    def test_retries_exhausted_raises(self, monkeypatch):
        search, stats, session = make_search(
            monkeypatch, timeouts=100, max_retries=4
        )
        with pytest.raises(BudgetExhausted):
            search.draw_cell(3, session)
        assert stats.bsat_timeouts == 5  # max_retries + the final attempt
        assert stats.xor_clauses_added == 0
        assert stats.xor_clauses_retried == 15

    def test_sweep_retries_at_the_same_hash_size(self, monkeypatch):
        search, stats, session = make_search(monkeypatch, timeouts=1)
        # q=4 sweeps i through {1..4}: the first (timed-out) call draws one
        # row, the retry at the same i succeeds and is accepted.
        cell = search.find_accepted_cell(4)
        assert cell is not None
        assert cell.hash_size == 1
        assert [len(xors) for xors in session.calls] == [1, 1]
        assert stats.bsat_calls == 2
        assert stats.bsat_timeouts == 1
        # Retried rows never reach the added counters.
        assert stats.xor_clauses_retried == 1
        assert stats.xor_clauses_added == 1
        assert stats.xor_literals_retried > 0
        assert stats.avg_xor_length == stats.xor_literals_added

    def test_merge_accumulates_retried_counters(self):
        a = SamplerStats(xor_clauses_retried=2, xor_literals_retried=7)
        b = SamplerStats(xor_clauses_retried=3, xor_literals_retried=5)
        a.merge(b)
        assert a.xor_clauses_retried == 5
        assert a.xor_literals_retried == 12
