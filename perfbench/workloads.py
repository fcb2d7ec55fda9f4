"""The benchmark's workloads, driven through the public ``repro`` API.

Each workload has three steps:

* ``inputs(seed, seconds)`` — a JSON value that is a pure function of the
  workload seed (and, for service-mix, the run length): DIMACS texts,
  every sampler, prepare and request seed, the request order and the work
  of one pass.  The program sees only these inputs.
* ``setup(inputs)`` — everything a user pays before the first draw:
  parsing, ``prepare`` (ApproxMC or the easy-case enumeration), plans,
  lazy imports (numpy on the first BSAT call, scipy in the gate).
* ``measure(state, workdir)`` — one pass of the measured work.  Its size
  is fixed by the inputs, not by a clock, so a pass does the same work
  whether or not it is traced, and its fingerprint can be compared across
  runs.  The clock only decides how many passes a run makes.

``export``/``adopt`` hand a set-up state from a set-up interpreter to the
measuring one, ``setup_digest`` lets the two check they agree, and
``teardown`` releases what set-up started.

Every delivered witness is evaluated against its own formula by a checking
sink whose own time is subtracted from the measured wall time.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field

from repro.core.base import lits_to_witness
from repro.sinks import StreamSink

#: Work of one pass.  On a 2-core x86 container a hashed-unigen draw takes
#: about 70 ms and an easy-stream witness about 0.5 ms, so a pass takes
#: about 7 s and 3.5 s.  Each is the smallest size that keeps its checks
#: meaningful: a p90 with 10 draws beyond it needs 100 draws, and the
#: uniformity gate wants about 100 draws of each of the 61 witnesses.
HASHED_DRAWS = 100
EASY_WITNESSES = 6400
#: Service-mix requests per second of ``--seconds``, over its two passes.
SERVICE_REQUESTS_PER_S = 8

HASHED_INSTANCES = ("case121", "s1196a_7_4", "LLReverse", "Karatsuba")
EASY_INSTANCE = "squaring16"
#: Hashed formulas cold at the start of a service-mix pass (prepared on the
#: request path the first time one is asked for).
COLD_INSTANCES = ("case1_b11_1", "case35")


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(62)


def _dimacs(name: str) -> str:
    from repro.cnf import to_dimacs
    from repro.suite import registry

    return to_dimacs(registry.build(name).cnf)


def artifact_digest(prepared) -> str:
    """Digest of a prepared artifact without its timing field."""
    data = prepared.to_dict()
    data.pop("prepare_time_seconds", None)
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def satisfies(cnf, witness) -> bool:
    """``witness`` satisfies ``cnf``; a missing variable is a failure."""
    try:
        return cnf.evaluate(witness)
    except (KeyError, ValueError, IndexError):
        return False


class CheckSink(StreamSink):
    """Checks, digests and times one plan's stream from the benchmark side.

    Every witness is evaluated against ``cnf``; verdicts are memoised per
    distinct witness, so a stream that repeats witnesses is checked once per
    distinct one.  A witness is keyed by its variable order (recorded in the
    digest whenever it changes) and the bytes of its values, which is cheap
    enough to do for every witness of a long stream.  ``marks`` are chunk
    arrival times on a clock that stops while this sink runs, so intervals
    between them exclude the harness.
    """

    name = "check"

    def __init__(self, cnf, digest, label: str):
        self.cnf = cnf
        self.digest = digest
        self.verdicts: dict = {}
        self.delivered = 0
        self.invalid = 0
        self.draw_times: list[float] = []
        self.own_s = 0.0
        self.marks: list[float] = []
        self._variables: tuple = ()
        self._layout = 0
        digest.update(f"#{label}".encode())

    def clock(self) -> float:
        """Wall clock minus the time spent inside this sink."""
        return time.perf_counter() - self.own_s

    def on_chunk(self, chunk_index: int, raw: dict) -> None:
        start = time.perf_counter()
        self.marks.append(start - self.own_s)
        self.digest.update(f"|{chunk_index}".encode())
        self.own_s += time.perf_counter() - start

    def accept(self, chunk_index: int, result) -> None:
        start = time.perf_counter()
        self.draw_times.append(result.time_seconds)
        witness = result.witness
        if witness is not None:
            self.delivered += 1
            variables = tuple(witness)
            if variables != self._variables:
                self._variables = variables
                self._layout += 1
                self.digest.update(repr(variables).encode())
            values = bytes(witness.values())
            key = (self._layout, values)
            verdict = self.verdicts.get(key)
            if verdict is None:
                verdict = satisfies(self.cnf, witness)
                self.verdicts[key] = verdict
            if not verdict:
                self.invalid += 1
            self.digest.update(values)
        else:
            self.digest.update(b"_")
        self.own_s += time.perf_counter() - start


@dataclass
class Pass:
    """What one measured pass produced."""

    wall_s: float = 0.0          #: measured wall time, harness excluded
    harness_s: float = 0.0       #: time inside the checking sinks
    attempted: int = 0           #: operations attempted
    failed: int = 0              #: operations failed
    delivered: int = 0           #: witnesses delivered
    invalid: int = 0             #: delivered witnesses that failed the check
    #: Wall time between consecutive chunk arrivals (harness excluded),
    #: in stream order; they sum to ``wall_s``.
    segments: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    ttfw: list = field(default_factory=list)
    fingerprint: str = ""
    counters: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# hashed-unigen and easy-stream: seeded batch sampling on the serial backend
# ---------------------------------------------------------------------------
class _StreamWorkload:
    """Shared code of the two batch workloads: plans into ``run_stream``.

    An operation is one requested draw; it fails when the stream raises
    before delivering it, when fewer than ``n`` witnesses arrive, or when
    the witness does not satisfy its formula.  A ⊥ draw that the retry
    loop absorbs is not a failure.
    """

    name = ""
    sampler = ""
    setup_repeats = 3
    service = False
    #: Every pass does identical work, so their timings pair up.
    paired = True
    #: A run makes at least ``min_passes`` and then as many more as fit in
    #: ``--seconds``; each added pass deepens every per-operation minimum.
    min_passes = 5
    max_passes = None

    def setup(self, inputs):
        from repro.api import SamplerConfig, prepare
        from repro.cnf import parse_dimacs

        config = SamplerConfig(seed=inputs["prepare_seed"])
        prepared = [
            prepare(parse_dimacs(item["dimacs"], name=item["name"]), config)
            for item in inputs["formulas"]
        ]
        return self._plan(inputs, prepared)

    def export(self, streams) -> list:
        """The prepared artifacts, for another process to adopt."""
        return [prepared.to_dict() for _, _, prepared, _ in streams]

    def adopt(self, inputs, exported):
        """The state :meth:`setup` returns, from artifacts it exported."""
        from repro.api import PreparedFormula

        return self._plan(
            inputs, [PreparedFormula.from_dict(d) for d in exported]
        )

    def _plan(self, inputs, prepared):
        from repro.api import SamplerConfig
        from repro.execution import build_plan

        streams = []
        for item, artifact in zip(inputs["formulas"], prepared):
            plan = build_plan(
                artifact, item["n"], SamplerConfig(seed=item["seed"]),
                sampler=self.sampler,
            )
            streams.append((item["name"], artifact.cnf, artifact, plan))
        self.warm(streams)
        return streams

    def setup_digest(self, streams) -> str:
        return hashlib.sha256(
            "".join(artifact_digest(p) for _, _, p, _ in streams).encode()
        ).hexdigest()

    def warm(self, streams) -> None:
        """Pay the workload's remaining lazy set-up."""

    def sinks(self, streams, index: int, workdir):
        return []

    def latencies(self, check: CheckSink, start: float) -> list[float]:
        raise NotImplementedError

    def measure(self, streams, workdir) -> Pass:
        from repro.execution import make_backend
        from repro.sinks import StatsFold, run_stream

        out = Pass()
        digest = hashlib.sha256()
        counters = {"bsat_calls": 0, "propagations": 0, "accepted": 0,
                    "attempts": 0}
        for index, (name, cnf, _prepared, plan) in enumerate(streams):
            check = CheckSink(cnf, digest, name)
            fold = StatsFold()
            extra = self.sinks(streams, index, workdir)
            backend = make_backend("serial")
            start = check.clock()
            try:
                verdicts = run_stream(backend, plan, check, fold, *extra)
            except Exception as exc:  # noqa: BLE001 — counted, then reported
                verdicts = None
                out.notes.append(f"{name}: stream raised "
                                 f"{type(exc).__name__}: {exc}")
            end = check.clock()
            out.wall_s += end - start
            out.harness_s += check.own_s
            marks = [start] + check.marks + [end]
            out.segments.extend(b - a for a, b in zip(marks, marks[1:]))
            out.attempted += plan.n
            out.delivered += check.delivered
            out.invalid += check.invalid
            out.failed += check.invalid + max(0, plan.n - check.delivered)
            if verdicts is not None:
                out.failed += self.check_verdicts(verdicts, out)
            out.latencies.extend(self.latencies(check, start))
            stats = fold.stats
            counters["bsat_calls"] += stats.bsat_calls
            counters["propagations"] += stats.solver_propagations
            counters["accepted"] += stats.successes
            counters["attempts"] += stats.attempts
            self.after_stream(extra, out)
        for key in sorted(counters):
            digest.update(f"{key}={counters[key]}".encode())
        out.counters.update(counters)
        out.fingerprint = digest.hexdigest()
        return out

    def check_verdicts(self, verdicts, out: Pass) -> int:
        """Failed operations found in the sinks' verdicts."""
        return 0

    def after_stream(self, extra, out: Pass) -> None:
        """Release per-stream sinks and book their counters."""

    def teardown(self, streams) -> None:
        pass


class HashedUnigen(_StreamWorkload):
    """UniGen over four hashed quick-suite formulas, one cell search a draw."""

    name = "hashed-unigen"
    sampler = "unigen"

    def inputs(self, seed: int, seconds: int):
        rng = random.Random(f"{self.name}:{seed}")
        per = math.ceil(HASHED_DRAWS / len(HASHED_INSTANCES))
        names = list(HASHED_INSTANCES)
        rng.shuffle(names)
        return {
            "prepare_seed": _seed(rng),
            "formulas": [
                {"name": n, "dimacs": _dimacs(n), "seed": _seed(rng), "n": per}
                for n in names
            ],
        }

    def latencies(self, check: CheckSink, start: float) -> list[float]:
        # UniGen2 would split a batch's time evenly over its witnesses;
        # UniGen's draw time is one real cell search plus one pick.
        return check.draw_times


class EasyStream(_StreamWorkload):
    """UniGen2 on an easy-case formula: per-witness execution and sinks."""

    name = "easy-stream"
    sampler = "unigen2"
    #: Set-up and passes are short, so more of them fit.
    setup_repeats = 5
    min_passes = 8

    def inputs(self, seed: int, seconds: int):
        rng = random.Random(f"{self.name}:{seed}")
        n = EASY_WITNESSES
        return {
            "prepare_seed": _seed(rng),
            "formulas": [{"name": EASY_INSTANCE,
                          "dimacs": _dimacs(EASY_INSTANCE),
                          "seed": _seed(rng), "n": n}],
        }

    def warm(self, streams) -> None:
        # The gate's first verdict imports scipy; CLI users pay it on every
        # run, so it belongs to set-up.
        self._gate(streams[0]).verdict()

    @staticmethod
    def _gate(stream):
        """The online gate, sized so a uniform stream passes every seed.

        The default fixed cadence looks every 64 draws at alpha 0.01 from
        30 expected draws per witness, so a pass takes dozens of looks and
        a uniform stream trips it on some seeds.  Alpha spending bounds the mass of all looks by 1e-4,
        the final verdict tests at 1e-4 too, and waiting for 100 expected
        draws per witness makes a false trip of the frequency-ratio check
        about 1e-5 per look.
        """
        from repro.sinks import OnlineUniformityGate
        from repro.stats import AlphaSpendingSchedule

        return OnlineUniformityGate(
            len(stream[2].easy_witnesses), alpha=1e-4, min_expected=100,
            schedule=AlphaSpendingSchedule(alpha=1e-4),
        )

    def sinks(self, streams, index: int, workdir):
        from repro.sinks import JsonlWitnessWriter

        path = workdir / f"{self.name}-{index}.jsonl"
        return [JsonlWitnessWriter(path, overwrite=True),
                self._gate(streams[index])]

    def check_verdicts(self, verdicts, out: Pass) -> int:
        # run_stream returns [check, fold, writer, gate] verdicts in order.
        gate = verdicts[3]
        if gate.passed:
            return 0
        out.notes.append(f"uniformity gate failed: {gate.describe()}")
        return 1

    def after_stream(self, extra, out: Pass) -> None:
        writer = extra[0]
        writer.close()
        out.counters["sink_bytes"] = (out.counters.get("sink_bytes", 0)
                                      + writer.path.stat().st_size)
        writer.path.unlink()

    def latencies(self, check: CheckSink, start: float) -> list[float]:
        # One chunk: its draws, the wire round trip and delivery of the
        # previous chunk's witnesses through every sink.
        marks = [start] + check.marks
        return [b - a for a, b in zip(marks, marks[1:])]


# ---------------------------------------------------------------------------
# service-mix: an in-process gateway and two closed-loop clients
# ---------------------------------------------------------------------------
class ServiceMix:
    """Two closed-loop clients against one in-process gateway.

    An operation is one request, timed from submit to its last witness
    line (``ttfw`` to its first).  It fails when it raises, delivers fewer
    than ``n`` witnesses, or delivers a witness that does not satisfy the
    formula it asked about.
    """

    name = "service-mix"
    setup_repeats = 3
    service = True
    #: Concurrent clients interleave differently on every pass.
    paired = False
    min_passes = max_passes = 2
    clients = 2

    def inputs(self, seed: int, seconds: int):
        rng = random.Random(f"{self.name}:{seed}")
        hot = list(HASHED_INSTANCES)
        total = max(100, round(seconds * SERVICE_REQUESTS_PER_S
                                / self.max_passes))
        # Cold formulas enter at fixed shares of the run, so prepare runs
        # on the request path after the gateway is warm; from then on they
        # are drawn like the hot ones.
        cold_at = {round(total * (i + 1) / (len(COLD_INSTANCES) + 1)): name
                   for i, name in enumerate(COLD_INSTANCES)}
        pool = list(hot)
        ops = []
        for i in range(total):
            if i in cold_at:
                formula = cold_at[i]
                pool.append(formula)
            else:
                formula = rng.choice(pool)
            request = {"formula": formula, "n": rng.choice((16, 24, 32)),
                       "seed": _seed(rng)}
            # About one op in six is an exact duplicate pair, submitted back
            # to back so the second joins the first's coalescing group.
            copies = 2 if rng.random() < 1 / 6 else 1
            ops.append({"requests": [request] * copies,
                        "client": i % self.clients})
        formulas = hot + list(COLD_INSTANCES)
        return {
            "prepare_seed": _seed(rng),
            "hot": hot,
            "cold": list(COLD_INSTANCES),
            "dimacs": {name: _dimacs(name) for name in formulas},
            "ops": ops,
        }

    def setup(self, inputs):
        from repro.service import GatewayConfig, GatewayThread, ServiceClient

        gateway = GatewayThread(
            GatewayConfig(prepare_seed=inputs["prepare_seed"])
        ).start()
        client = ServiceClient(gateway.url)
        prepared = [client.prepare(inputs["dimacs"][name], name=name)
                    for name in inputs["hot"]]
        return {"gateway": gateway, "inputs": inputs, "prepared": prepared}

    def export(self, state):
        return None

    def adopt(self, inputs, exported):
        return self.setup(inputs)

    def setup_digest(self, state) -> str:
        text = json.dumps(
            [[p["key"], p["q"], p["approx_count"], p["prepare_bsat_calls"]]
             for p in state["prepared"]]
        )
        return hashlib.sha256(text.encode()).hexdigest()

    def teardown(self, state) -> None:
        state["gateway"].stop()

    def measure(self, state, workdir) -> Pass:
        from repro.cnf import parse_dimacs
        from repro.api import PreparedFormula

        inputs = state["inputs"]
        gateway = state["gateway"].gateway
        # Each pass starts from the post-setup cache: cold formulas cold.
        cnfs = {name: parse_dimacs(text, name=name)
                for name, text in inputs["dimacs"].items()}
        for name in inputs["cold"]:
            gateway.cache.invalidate(
                PreparedFormula.key_for(cnfs[name], gateway.config.epsilon)
            )
        before = _gateway_stats(state)
        out = Pass()
        lock = threading.Lock()
        threads = [
            threading.Thread(
                target=self._client, name=f"client-{c}",
                args=(state, cnfs, [op for op in inputs["ops"]
                                    if op["client"] == c], out, lock),
            )
            for c in range(self.clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.wall_s = time.perf_counter() - start
        after = _gateway_stats(state)
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        out.counters.update({
            "cache_hits": hits,
            "cache_misses": misses,
            "coalesce_joins": (after["coalescer"]["joins"]
                               - before["coalescer"]["joins"]),
            "bsat_calls": (after["sampler"]["bsat_calls"]
                           - before["sampler"]["bsat_calls"]),
        })
        return out

    def _client(self, state, cnfs, ops, out: Pass, lock) -> None:
        from repro.service import ServiceClient, ServiceError

        client = ServiceClient(state["gateway"].url)
        inputs = state["inputs"]
        verdicts: dict = {}
        for op in ops:
            submitted = []
            for request in op["requests"]:
                start = time.perf_counter()
                while True:
                    try:
                        ticket = client.sample(
                            inputs["dimacs"][request["formula"]],
                            request["n"], seed=request["seed"],
                            name=request["formula"],
                        )
                        break
                    except ServiceError as exc:
                        # A throttled client waits as told; the wait counts
                        # in the request's latency.
                        if exc.status != 429:
                            ticket = exc
                            break
                        with lock:
                            out.counters["throttled"] = (
                                out.counters.get("throttled", 0) + 1)
                        time.sleep(exc.retry_after_s or 1.0)
                if isinstance(ticket, Exception):
                    with lock:
                        out.attempted += 1
                        out.failed += 1
                        out.notes.append(f"submit failed: {ticket}")
                    continue
                submitted.append((request, ticket["job_id"], start))
            for request, job_id, start in submitted:
                self._stream(client, cnfs[request["formula"]], request,
                             job_id, start, verdicts, out, lock)

    @staticmethod
    def _stream(client, cnf, request, job_id, start, verdicts, out, lock):
        delivered = invalid = 0
        first = last = None
        error = None
        try:
            for record in client.witnesses(job_id):
                last = time.perf_counter()
                if first is None:
                    first = last
                lits = tuple(record["witness"])
                verdict = verdicts.get((cnf.name, lits))
                if verdict is None:
                    verdict = satisfies(cnf, lits_to_witness(lits))
                    verdicts[(cnf.name, lits)] = verdict
                delivered += 1
                invalid += not verdict
        except Exception as exc:  # noqa: BLE001 — a failed request
            error = exc
        with lock:
            out.attempted += 1
            out.delivered += delivered
            out.invalid += invalid
            out.failed += (error is not None or delivered < request["n"]
                           or invalid > 0)
            if error is not None:
                out.notes.append(f"{job_id}: {type(error).__name__}: {error}")
            if last is not None:
                out.latencies.append(last - start)
                out.ttfw.append(first - start)


def _gateway_stats(state) -> dict:
    """The gateway's ``/v1/stats`` document."""
    from repro.service import ServiceClient

    return ServiceClient(state["gateway"].url).stats()


WORKLOADS = {w.name: w for w in (HashedUnigen(), EasyStream(), ServiceMix())}
