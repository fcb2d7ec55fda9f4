"""Run a solver test class on the search core it names.

A test class with a ``core`` attribute builds its solvers as
``self.core(...)``, and this fixture makes ``bsat`` and ``SolverSession``
build theirs from the same class.  The solver test modules set
``core = Solver`` (the native core when it loaded) on their classes and
add an ``...OnPySolver`` twin of each with ``core = PySolver``, so both
cores pass the same tests.
"""

import pytest


@pytest.fixture(autouse=True)
def _solver_core(request, monkeypatch):
    core = getattr(request.cls, "core", None)
    if core is not None:
        monkeypatch.setattr("repro.sat.enumerate.Solver", core)
