"""The benchmark registry: one entry per row of the paper's Tables 1 and 2.

Each entry records

* a **builder** producing a scaled synthetic analog of that row's CNF (see
  :mod:`repro.suite.families` for why the originals cannot be bundled), and
* the **paper's reference numbers** for that row (|X|, |S|, UniGen/UniWit
  success probability, average runtime per witness, average XOR length),
  used by :mod:`repro.experiments` to print paper-vs-measured tables and by
  ``EXPERIMENTS.md``.

Two scales are provided:

* ``"quick"`` — small instances for CI and ``repro bench`` runs
  (seconds per row);
* ``"full"``  — larger instances for standalone CLI runs (minutes per row),
  still far below the paper's absolute sizes: the paper used a C++ solver
  on a Xeon cluster, this reproduction is pure Python.  What must carry
  over is the *shape*: |S| ≪ |X|, UniGen ≫ UniWit, XOR length ≈ |S|/2 vs
  ≈ |X|/2, success probability ≈ 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .families import (
    BenchmarkInstance,
    case_benchmark,
    figure1_benchmark,
    iscas_benchmark,
    sketch_equality_service,
    sketch_linear,
    sketch_memory_reverse,
    sketch_sort_network,
    sketch_tree_max,
    squaring_benchmark,
)

SCALES = ("quick", "full")


@dataclass
class RegistryEntry:
    """One Table-row analog: builders per scale + the paper's numbers."""

    name: str
    family: str
    builder: Callable[..., BenchmarkInstance]
    quick_params: dict
    full_params: dict
    paper: dict = field(default_factory=dict)
    in_table1: bool = False

    def build(self, scale: str = "quick") -> BenchmarkInstance:
        if scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}")
        params = self.quick_params if scale == "quick" else self.full_params
        instance = self.builder(self.name, **params)
        instance.paper_reference = dict(self.paper)
        return instance


def _paper(
    x: int,
    s: int,
    ug_succ: float | None,
    ug_time: float | None,
    ug_xor: int | None,
    uw_time: float | None,
    uw_xor: int | None,
    uw_succ: float | None = None,
):
    """Pack one row of the paper's Table 2 (None = '—' in the paper)."""
    return {
        "num_vars": x,
        "support_size": s,
        "unigen_success": ug_succ,
        "unigen_time_s": ug_time,
        "unigen_xor_len": ug_xor,
        "uniwit_time_s": uw_time,
        "uniwit_xor_len": uw_xor,
        "uniwit_success": uw_succ,
    }


_ENTRIES: list[RegistryEntry] = [
    # ------------------------------------------------------------------
    # case* (BMC-derived)
    # ------------------------------------------------------------------
    RegistryEntry(
        "case121", "case", case_benchmark,
        quick_params=dict(n_inputs=4, n_ffs=4, n_gates=30, frames=2, n_parity=2, seed=121),
        full_params=dict(n_inputs=6, n_ffs=6, n_gates=60, frames=3, n_parity=3, seed=121),
        paper=_paper(291, 48, 1.0, 0.19, 24, 56.09, 145),
    ),
    RegistryEntry(
        "case1_b11_1", "case", case_benchmark,
        quick_params=dict(n_inputs=4, n_ffs=4, n_gates=36, frames=2, n_parity=2, seed=111),
        full_params=dict(n_inputs=6, n_ffs=6, n_gates=70, frames=3, n_parity=3, seed=111),
        paper=_paper(340, 48, 1.0, 0.2, 24, 755.97, 170),
    ),
    RegistryEntry(
        "case2_b12_2", "case", case_benchmark,
        quick_params=dict(n_inputs=5, n_ffs=4, n_gates=40, frames=2, n_parity=2, seed=122),
        full_params=dict(n_inputs=6, n_ffs=8, n_gates=90, frames=4, n_parity=3, seed=122),
        paper=_paper(827, 45, 1.0, 0.33, 22, None, None),
    ),
    RegistryEntry(
        "case35", "case", case_benchmark,
        quick_params=dict(n_inputs=5, n_ffs=4, n_gates=34, frames=2, n_parity=3, seed=35),
        full_params=dict(n_inputs=7, n_ffs=6, n_gates=70, frames=3, n_parity=4, seed=35),
        paper=_paper(400, 46, 0.99, 11.23, 23, 666.14, 199),
    ),
    # ------------------------------------------------------------------
    # squaring* (bit-blasted arithmetic)
    # ------------------------------------------------------------------
    RegistryEntry(
        "squaring1", "squaring", squaring_benchmark,
        quick_params=dict(width=9, observed_bits=2, seed=1),
        full_params=dict(width=11, observed_bits=3, seed=1),
        paper=_paper(891, 72, 1.0, 0.38, 36, None, None),
    ),
    RegistryEntry(
        "squaring7", "squaring", squaring_benchmark,
        quick_params=dict(width=9, observed_bits=2, seed=7),
        full_params=dict(width=12, observed_bits=3, seed=7),
        paper=_paper(1628, 72, 1.0, 2.44, 36, 2937.5, 813, 0.87),
        in_table1=True,
    ),
    RegistryEntry(
        "squaring8", "squaring", squaring_benchmark,
        quick_params=dict(width=9, observed_bits=2, seed=8),
        full_params=dict(width=11, observed_bits=3, seed=8),
        paper=_paper(1101, 72, 1.0, 1.77, 36, 5212.19, 550, 1.0),
        in_table1=True,
    ),
    RegistryEntry(
        "squaring9", "squaring", squaring_benchmark,
        quick_params=dict(width=9, observed_bits=3, seed=9),
        full_params=dict(width=11, observed_bits=3, seed=9),
        paper=_paper(1434, 72, 1.0, 4.43, 36, 4054.42, 718),
    ),
    RegistryEntry(
        "squaring10", "squaring", squaring_benchmark,
        quick_params=dict(width=9, observed_bits=2, seed=10),
        full_params=dict(width=11, observed_bits=3, seed=10),
        paper=_paper(1099, 72, 1.0, 1.83, 36, 4521.11, 550, 0.5),
        in_table1=True,
    ),
    RegistryEntry(
        "squaring12", "squaring", squaring_benchmark,
        quick_params=dict(width=9, observed_bits=3, seed=12),
        full_params=dict(width=11, observed_bits=3, seed=12),
        paper=_paper(1507, 72, 1.0, 31.88, 36, 3421.83, 752),
    ),
    RegistryEntry(
        "squaring14", "squaring", squaring_benchmark,
        quick_params=dict(width=9, observed_bits=3, seed=14),
        full_params=dict(width=11, observed_bits=3, seed=14),
        paper=_paper(1458, 72, 1.0, 24.34, 36, 2697.42, 728),
    ),
    RegistryEntry(
        "squaring16", "squaring", squaring_benchmark,
        quick_params=dict(width=9, observed_bits=3, seed=16),
        full_params=dict(width=12, observed_bits=4, seed=16),
        paper=_paper(1627, 72, 1.0, 41.08, 36, 2852.17, 812),
    ),
    # ------------------------------------------------------------------
    # s* (ISCAS89 + parity conditions)
    # ------------------------------------------------------------------
    RegistryEntry(
        "s526_3_2", "iscas", iscas_benchmark,
        quick_params=dict(n_inputs=6, n_ffs=6, n_gates=60, n_parity=3, seed=5260),
        full_params=dict(n_inputs=8, n_ffs=10, n_gates=140, n_parity=3, seed=5260),
        paper=_paper(365, 24, 0.98, 0.68, 12, 51.77, 181),
    ),
    RegistryEntry(
        "s526a_3_2", "iscas", iscas_benchmark,
        quick_params=dict(n_inputs=6, n_ffs=6, n_gates=62, n_parity=3, seed=5261),
        full_params=dict(n_inputs=8, n_ffs=10, n_gates=142, n_parity=3, seed=5261),
        paper=_paper(366, 24, 1.0, 0.97, 12, 84.04, 182),
    ),
    RegistryEntry(
        "s526_15_7", "iscas", iscas_benchmark,
        quick_params=dict(n_inputs=6, n_ffs=6, n_gates=70, n_parity=4, seed=5262),
        full_params=dict(n_inputs=8, n_ffs=10, n_gates=170, n_parity=7, seed=5262),
        paper=_paper(452, 24, 0.99, 1.68, 12, 23.04, 225),
    ),
    RegistryEntry(
        "s953a_3_2", "iscas", iscas_benchmark,
        quick_params=dict(n_inputs=8, n_ffs=7, n_gates=80, n_parity=3, seed=9530),
        full_params=dict(n_inputs=12, n_ffs=12, n_gates=200, n_parity=3, seed=9530),
        paper=_paper(515, 45, 0.99, 12.48, 23, 22414.86, 257, None),
        in_table1=True,
    ),
    RegistryEntry(
        "s1196a_3_2", "iscas", iscas_benchmark,
        quick_params=dict(n_inputs=7, n_ffs=7, n_gates=90, n_parity=3, seed=11960),
        full_params=dict(n_inputs=10, n_ffs=12, n_gates=260, n_parity=3, seed=11960),
        paper=_paper(690, 32, 1.0, 7.12, 16, 451.03, 345),
    ),
    RegistryEntry(
        "s1196a_7_4", "iscas", iscas_benchmark,
        quick_params=dict(n_inputs=7, n_ffs=7, n_gates=92, n_parity=4, seed=11961),
        full_params=dict(n_inputs=10, n_ffs=12, n_gates=262, n_parity=4, seed=11961),
        paper=_paper(708, 32, 1.0, 6.9, 16, 833.1, 353, 0.37),
        in_table1=True,
    ),
    RegistryEntry(
        "s1196a_15_7", "iscas", iscas_benchmark,
        quick_params=dict(n_inputs=7, n_ffs=7, n_gates=96, n_parity=5, seed=11962),
        full_params=dict(n_inputs=10, n_ffs=12, n_gates=270, n_parity=7, seed=11962),
        paper=_paper(777, 32, 0.97, 8.98, 16, 133.45, 388),
    ),
    RegistryEntry(
        "s1238a_3_2", "iscas", iscas_benchmark,
        quick_params=dict(n_inputs=7, n_ffs=7, n_gates=90, n_parity=3, seed=12380),
        full_params=dict(n_inputs=10, n_ffs=12, n_gates=250, n_parity=3, seed=12380),
        paper=_paper(686, 32, 0.99, 10.85, 16, 1416.28, 342),
    ),
    RegistryEntry(
        "s1238a_7_4", "iscas", iscas_benchmark,
        quick_params=dict(n_inputs=7, n_ffs=7, n_gates=92, n_parity=4, seed=12381),
        full_params=dict(n_inputs=10, n_ffs=12, n_gates=252, n_parity=4, seed=12381),
        paper=_paper(704, 32, 1.0, 7.26, 16, 1570.27, 352, 0.35),
        in_table1=True,
    ),
    RegistryEntry(
        "s1238a_15_7", "iscas", iscas_benchmark,
        quick_params=dict(n_inputs=7, n_ffs=7, n_gates=96, n_parity=5, seed=12382),
        full_params=dict(n_inputs=10, n_ffs=12, n_gates=260, n_parity=7, seed=12382),
        paper=_paper(773, 32, 1.0, 7.94, 16, 136.7, 385),
    ),
    # ------------------------------------------------------------------
    # Program-synthesis sketches
    # ------------------------------------------------------------------
    RegistryEntry(
        "LoginService2", "sketch", sketch_equality_service,
        quick_params=dict(key_bits=16, n_tests=5, seed=2),
        full_params=dict(key_bits=30, n_tests=8, seed=2),
        paper=_paper(11511, 36, 0.98, 6.14, 18, None, None),
        in_table1=True,
    ),
    RegistryEntry(
        "ProcessBean", "sketch", sketch_equality_service,
        quick_params=dict(key_bits=18, n_tests=6, seed=77),
        full_params=dict(key_bits=36, n_tests=10, seed=77),
        paper=_paper(4768, 64, 0.98, 123.52, 32, None, None),
    ),
    RegistryEntry(
        "Karatsuba", "sketch", sketch_linear,
        quick_params=dict(width=6, n_tests=1, observed_bits=5, seed=41),
        full_params=dict(width=10, n_tests=2, observed_bits=8, seed=41),
        paper=_paper(19594, 41, 1.0, 85.64, 21, None, None),
        in_table1=True,
    ),
    RegistryEntry(
        "ProjectService3", "sketch", sketch_linear,
        quick_params=dict(width=6, n_tests=1, observed_bits=4, seed=33),
        full_params=dict(width=9, n_tests=2, observed_bits=7, seed=33),
        paper=_paper(3175, 55, 1.0, 71.74, 28, None, None),
    ),
    RegistryEntry(
        "Sort", "sketch", sketch_sort_network,
        quick_params=dict(n_words=4, width=3, n_tests=1, seed=52),
        full_params=dict(n_words=5, width=4, n_tests=2, seed=52),
        paper=_paper(12125, 52, 0.99, 79.44, 26, None, None),
        in_table1=True,
    ),
    RegistryEntry(
        "EnqueueSeqSK", "sketch", sketch_memory_reverse,
        quick_params=dict(n_cells=4, width=4, observed_bits=6, seed=16466),
        full_params=dict(n_cells=6, width=6, observed_bits=12, seed=16466),
        paper=_paper(16466, 42, 1.0, 32.39, 21, None, None),
        in_table1=True,
    ),
    RegistryEntry(
        "LLReverse", "sketch", sketch_memory_reverse,
        quick_params=dict(n_cells=4, width=5, observed_bits=8, seed=63797),
        full_params=dict(n_cells=6, width=7, observed_bits=14, seed=63797),
        paper=_paper(63797, 25, 1.0, 33.92, 13, 3460.58, 31888, 0.63),
        in_table1=True,
    ),
    RegistryEntry(
        "TreeMax", "sketch", sketch_tree_max,
        quick_params=dict(n_leaves=4, width=4, observed_bits=3, seed=24859),
        full_params=dict(n_leaves=8, width=5, observed_bits=4, seed=24859),
        paper=_paper(24859, 19, 1.0, 0.52, 10, 49.78, 12423),
    ),
    RegistryEntry(
        "tutorial3_4_31", "sketch", sketch_linear,
        quick_params=dict(width=7, n_tests=2, observed_bits=6, seed=486),
        full_params=dict(width=12, n_tests=3, observed_bits=10, seed=486),
        paper=_paper(486193, 31, 0.98, 782.85, 16, None, None, None),
        in_table1=True,
    ),
]

_BY_NAME = {e.name: e for e in _ENTRIES}


def entries() -> list[RegistryEntry]:
    """All Table 2 rows, in the paper's grouping order."""
    return list(_ENTRIES)


def names() -> list[str]:
    """All benchmark names, in the paper's grouping order (CLI helper)."""
    return [e.name for e in _ENTRIES]


def table1_entries() -> list[RegistryEntry]:
    """The Table 1 subset (the paper's headline comparison)."""
    return [e for e in _ENTRIES if e.in_table1]


def get(name: str) -> RegistryEntry:
    """Look up a registry entry by its paper row name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {sorted(_BY_NAME)}"
        ) from None


def build(name: str, scale: str = "quick") -> BenchmarkInstance:
    """Build one named benchmark at the requested scale."""
    return get(name).build(scale)


def build_figure1(scale: str = "quick") -> BenchmarkInstance:
    """The Figure 1 fixture (known power-of-two witness count)."""
    if scale == "quick":
        return figure1_benchmark(n_inputs=10, n_parity=4, n_gates=40, seed=110)
    return figure1_benchmark(n_inputs=14, n_parity=0, n_gates=80, seed=110)
