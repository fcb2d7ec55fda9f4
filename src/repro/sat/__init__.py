"""SAT subsystem: CDCL solver, XOR engine, BSAT enumeration, GF(2) tools."""

from .brute import (
    all_models,
    count_models,
    count_projected,
    is_satisfiable,
    model_set,
)
from .enumerate import SolverSession, bsat, enumerate_all, projections
from .gauss import (
    GaussResult,
    gaussian_eliminate,
    rows_as_xors,
    sample_xor_solution,
    xor_system_solutions,
)
from .gf2 import BitMatrix
from .solver import Solver, luby
from .types import (
    FALSE,
    SAT,
    TRUE,
    UNDEF,
    UNKNOWN,
    UNSAT,
    Budget,
    EnumerationResult,
    SolveResult,
    SolverStats,
    to_external,
    to_internal,
)

__all__ = [
    "Solver",
    "SolverSession",
    "luby",
    "bsat",
    "enumerate_all",
    "projections",
    "Budget",
    "SolveResult",
    "SolverStats",
    "EnumerationResult",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "TRUE",
    "FALSE",
    "UNDEF",
    "to_internal",
    "to_external",
    "all_models",
    "count_models",
    "count_projected",
    "is_satisfiable",
    "model_set",
    "GaussResult",
    "gaussian_eliminate",
    "xor_system_solutions",
    "sample_xor_solution",
    "rows_as_xors",
    "BitMatrix",
]
