"""Circuit encoding and BMC unrolling tests: CNF models ≡ circuit semantics."""

import pytest

from repro.circuits import (
    Netlist,
    encode_combinational,
    synthetic_sequential,
    unroll,
)
from repro.rng import RandomSource
from repro.sat import Solver
from repro.sat.enumerate import enumerate_all
from repro.support import is_independent_support


class TestCombinationalEncoding:
    def test_model_count_is_input_space(self):
        """Unconstrained encoding: one model per input assignment."""
        nl = Netlist("free")
        xs = nl.inputs("x", 4)
        nl.outputs([nl.xor(*xs)])
        enc = encode_combinational(nl.circuit)
        models = enumerate_all(enc.cnf)
        assert len(models) == 16

    def test_models_match_evaluation(self):
        rng = RandomSource(5)
        nl = Netlist("ev")
        xs = nl.inputs("x", 5)
        pool = list(xs)
        for i in range(20):
            kind = rng.choice(("and", "or", "xor", "nand", "nor"))
            pool.append(nl.gate(kind, rng.choice(pool), rng.choice(pool)))
        nl.outputs(pool[-2:])
        enc = encode_combinational(nl.circuit)
        for model in enumerate_all(enc.cnf)[:40]:
            env = {x: model[enc.var_of[x]] for x in xs}
            values = nl.circuit.evaluate(env)
            for sig, var in enc.var_of.items():
                assert model[var] == values[sig], sig

    def test_sampling_set_is_sources(self):
        nl = Netlist("s")
        xs = nl.inputs("x", 3)
        nl.outputs([nl.and_(*xs)])
        enc = encode_combinational(nl.circuit)
        assert set(enc.cnf.sampling_set) == {enc.var_of[x] for x in xs}

    def test_sampling_set_is_independent_support(self):
        nl = Netlist("ind")
        xs = nl.inputs("x", 4)
        nl.outputs([nl.or_(nl.and_(xs[0], xs[1]), nl.xor(xs[2], xs[3]))])
        enc = encode_combinational(nl.circuit)
        assert is_independent_support(enc.cnf, enc.cnf.sampling_set)

    def test_assignment_of_roundtrip(self):
        nl = Netlist("rt")
        xs = nl.inputs("x", 2)
        g = nl.and_(*xs)
        nl.outputs([g])
        enc = encode_combinational(nl.circuit)
        result = Solver(enc.cnf, rng=0).solve(
            assumptions=[enc.lit(xs[0], True), enc.lit(xs[1], True)]
        )
        signals = enc.assignment_of(result.model)
        assert signals[g] is True


class TestBmcUnroll:
    def test_validation(self):
        c = synthetic_sequential("v", 2, 2, 10, 1, rng=1)
        with pytest.raises(ValueError):
            unroll(c, 0)
        with pytest.raises(ValueError):
            unroll(c, 2, initial_state="maybe")

    def test_zero_initial_state_pins_latches(self):
        c = synthetic_sequential("z", 2, 3, 12, 1, rng=2)
        enc = unroll(c, 2, initial_state="zero")
        result = Solver(enc.cnf, rng=0).solve()
        assert result.status == "SAT"
        for q in c.latches:
            assert result.model[enc.var_of[(q, 0)]] is False

    def test_free_initial_state_in_sampling_set(self):
        c = synthetic_sequential("f", 2, 3, 12, 1, rng=3)
        enc = unroll(c, 2, initial_state="free")
        sset = set(enc.cnf.sampling_set)
        for q in c.latches:
            assert enc.var_of[(q, 0)] in sset

    def test_latch_aliasing(self):
        """Frame t latch output variable is frame t-1's data variable."""
        c = synthetic_sequential("a", 2, 2, 10, 1, rng=4)
        enc = unroll(c, 3, initial_state="zero")
        for q, d in c.latches.items():
            for t in (1, 2):
                assert enc.var_of[(q, t)] == enc.var_of[(d, t - 1)]

    @pytest.mark.parametrize("frames", [1, 2, 4])
    def test_unroll_matches_simulation(self, frames):
        rng = RandomSource(frames)
        c = synthetic_sequential("m", 3, 3, 20, 2, rng=7)
        enc = unroll(c, frames, initial_state="free")
        seq = [{i: bool(rng.bit()) for i in c.inputs} for _ in range(frames)]
        init = {q: bool(rng.bit()) for q in c.latches}
        trace = c.simulate(seq, init)
        assumptions = []
        for t, frame_inputs in enumerate(seq):
            for name, value in frame_inputs.items():
                v = enc.var_of[(name, t)]
                assumptions.append(v if value else -v)
        for q, value in init.items():
            v = enc.var_of[(q, 0)]
            assumptions.append(v if value else -v)
        result = Solver(enc.cnf, rng=1).solve(assumptions=assumptions)
        assert result.status == "SAT"
        for t in range(frames):
            for g in c.gates:
                assert result.model[enc.var_of[(g, t)]] == trace[t][g]

    def test_unrolled_sampling_set_independent(self):
        c = synthetic_sequential("i", 2, 2, 14, 1, rng=9)
        enc = unroll(c, 2, initial_state="free")
        assert is_independent_support(enc.cnf, enc.cnf.sampling_set)
