"""The TCP transport: a line-protocol broker that crosses hosts.

:class:`~repro.distributed.filebroker.FileBroker` needs a filesystem every
participant can reach; this module needs a socket.  Two halves:

* :class:`BrokerServer` — the ``repro brokerd`` daemon.  Long-lived, and
  unlike the one-job-at-a-time spool it serves **many jobs concurrently**,
  keyed by job id: each job is its own
  :class:`~repro.distributed.broker.InMemoryBroker` (the reference
  implementation of the queue semantics — leases, heartbeats, fencing,
  and seed-preserving retry arrive here by construction, not by
  reimplementation), and requests are routed to it by the ``job_id`` they
  carry.
* :class:`TcpBroker` — the client, a full
  :class:`~repro.distributed.broker.Broker` implementation, so
  coordinators, ``repro worker`` processes, and the streaming
  :class:`~repro.execution.brokered.BrokerBackend` drive it exactly like
  the other transports.

Wire protocol — newline-delimited JSON, one request line, one response
line, over a persistent connection::

    → {"op": "lease", "worker_id": "host:123"}\n
    ← {"ok": true, "value": {"job_id": …, "task": …, "lease_id": …}}\n
    → {"op": "ack", "lease": {…}, "result": {…}}\n
    ← {"ok": false, "error": {"type": "LeaseExpired", "message": …}}\n

Every line is **length-checked** against :data:`MAX_LINE_BYTES` on both
sides before parsing — a corrupt or hostile peer can cost one connection,
never unbounded memory.  Failures come back as typed errors
(``LeaseExpired`` re-raises as itself client-side, with its fencing
fields; everything else as :class:`~repro.errors.DistributedError`), so
lease-id fencing works across the socket exactly as it does in process.

Job addressing: a client that ``submit``\\ s is *pinned* to the job it
created — its ``job()``/``results()``/``progress()``/``purge()`` speak
about that job only.  An unpinned client (a worker) asks the server for
"the job that needs hands": the oldest incomplete job, or the newest
complete one when all are drained (so ``--drain`` workers observe
completion and exit).  Workers re-ask on every poll, which is how one
worker fleet serves many coordinators' jobs back to back.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from pathlib import Path

from ..errors import DistributedError, LeaseExpired
from ..parallel.plan import ChunkTask
from .broker import (
    DEFAULT_LEASE_TIMEOUT_S,
    DEFAULT_MAX_DELIVERIES,
    Broker,
    BrokerProgress,
    InMemoryBroker,
    JobSpec,
    Lease,
)
from .clock import Clock, wall_clock

#: Hard cap on one protocol line, both directions.  Generous for real
#: payloads (a serialized PreparedFormula plus a chunk plan), but a bound:
#: a peer cannot make either side buffer an unbounded line.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Default ``repro brokerd`` port (unassigned range, no meaning beyond).
DEFAULT_PORT = 7765

#: Completed jobs the daemon keeps around (newest first) for late drain
#: polls before lazily reaping them on the next submit.  Coordinators that
#: own their workers purge explicitly; this cap is the backstop for
#: ``--jobs 0`` runs whose coordinator never purges, so a long-lived
#: brokerd's memory stays bounded by its in-flight work, not its history.
COMPLETED_JOBS_KEPT = 4

#: Seconds since a job's last pinned access before the reaper may take a
#: *completed* job beyond the keep window.  A coordinator still streaming
#: a finished job's results touches it every poll tick, so it can never
#: be reaped out from under an attached consumer.
COMPLETED_JOB_LINGER_S = 60.0

#: Seconds without any *pinned* access before an **incomplete** job is
#: declared abandoned and reaped.  An incomplete job only makes progress
#: while its coordinator drives requeue_expired and collects results —
#: all pinned operations — so a job whose coordinator has not spoken for
#: this long (crashed, Ctrl-C'd) will never finish; without this, its
#: payload would live in the daemon forever and `_current()`'s
#: oldest-incomplete rule would keep steering idle workers at it.
ABANDONED_JOB_TIMEOUT_S = 15 * 60.0


def _dump_line(obj: dict) -> bytes:
    line = json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"
    if len(line) > MAX_LINE_BYTES:
        raise DistributedError(
            f"protocol line of {len(line)} bytes exceeds MAX_LINE_BYTES="
            f"{MAX_LINE_BYTES}"
        )
    return line


def _read_line(rfile) -> dict | None:
    """One length-checked JSON line; ``None`` on a clean EOF."""
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise DistributedError(
            f"peer sent a protocol line over MAX_LINE_BYTES={MAX_LINE_BYTES}"
        )
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DistributedError(f"bad protocol line: {exc}") from exc
    if not isinstance(data, dict):
        raise DistributedError(
            f"bad protocol line: expected a JSON object, got {type(data).__name__}"
        )
    return data


def parse_tcp_url(url: str) -> tuple[str, int]:
    """``tcp://host:port`` → ``(host, port)``; raises on anything else."""
    if not url.startswith("tcp://"):
        raise ValueError(f"not a tcp:// URL: {url!r}")
    hostport = url[len("tcp://") :]
    host, sep, port = hostport.rpartition(":")
    if not sep or not host:
        raise ValueError(f"tcp URL needs host:port, got {url!r}")
    return host, int(port)


def connect_broker(
    target: str | Path, *, token: str | None = None,
    clock: Clock = wall_clock,
    retry_window_s: float = 0.0,
) -> Broker:
    """One resolver for every CLI broker target.

    ``tcp://host:port`` connects a :class:`TcpBroker`; anything else is a
    spool directory for a :class:`~repro.distributed.filebroker.FileBroker`.
    ``token`` is the brokerd shared secret (TCP only — a spool directory
    has no authentication seam, so passing a token for one is an error,
    not a silent no-op).  ``retry_window_s`` is how long idempotent TCP
    calls ride out an unreachable brokerd (``--broker-retry``); a spool
    directory never disconnects, so there it is a harmless no-op rather
    than an error — workers pass it regardless of transport.
    """
    if isinstance(target, str) and target.startswith("tcp://"):
        host, port = parse_tcp_url(target)
        return TcpBroker(host, port, token=token,
                         retry_window_s=retry_window_s)
    if token is not None:
        raise ValueError(
            f"--auth-token only applies to tcp:// brokers, not the spool "
            f"directory {target!r}"
        )
    from .filebroker import FileBroker

    return FileBroker(target, clock=clock)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


class TcpBroker(Broker):
    """The client half: the :class:`Broker` protocol over one socket.

    Thread-safe (one lock around each request/response round trip —
    the worker's heartbeat thread shares the instance with the chunk
    loop) and reconnecting: a dropped connection is retried once per
    call before surfacing as :class:`~repro.errors.DistributedError`.
    With ``retry_window_s > 0`` idempotent calls keep retrying (with a
    short backoff) for that long instead — the knob that lets workers
    and coordinators ride out a brokerd restart on a spool journal.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        job_id: str | None = None,
        token: str | None = None,
        connect_timeout_s: float = 10.0,
        op_timeout_s: float = 60.0,
        retry_window_s: float = 0.0,
        retry_backoff_s: float = 0.25,
    ):
        self.host = host
        self.port = port
        #: The pinned job (set by ``submit``); ``None`` = worker mode.
        self.job_id = job_id
        #: Shared secret sent as a ``hello`` on every (re)connect.  An
        #: authenticated brokerd drops the connection on any other op
        #: first, so a tokenless client against an authenticated daemon
        #: fails its first call instead of hanging.
        self.token = token
        self._connect_timeout_s = connect_timeout_s
        #: How long idempotent ops keep retrying a dead connection before
        #: surfacing.  0.0 preserves the historical single immediate
        #: retry; a positive window makes this client survive a brokerd
        #: that is SIGKILLed and restarted on the same spool journal.
        self._retry_window_s = retry_window_s
        self._retry_backoff_s = retry_backoff_s
        #: Per-operation read deadline.  Every op is an in-memory lookup
        #: server-side, so a response that takes this long means the
        #: daemon is hung or the network is partitioned — without a
        #: deadline a dead brokerd would block `_call` (and with it the
        #: coordinator's whole poll loop, lock included) forever, and
        #: the broker backend's own timeout could never fire.
        self._op_timeout_s = op_timeout_s
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._rfile = None
        # The last JobSpec this client saw, revalidated by job id on each
        # job() poll so the multi-MB payload crosses the wire once per
        # job, not once per worker poll tick.
        self._spec_cache: JobSpec | None = None

    @classmethod
    def from_url(cls, url: str, **kwargs) -> "TcpBroker":
        host, port = parse_tcp_url(url)
        return cls(host, port, **kwargs)

    # -- transport ------------------------------------------------------
    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self._connect_timeout_s
        )
        # socket.timeout is an OSError: an overdue response flows through
        # the same disconnect/retry/raise path as a dropped connection.
        sock.settimeout(self._op_timeout_s)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        if self.token is not None:
            # Authenticate inline, inside the same (re)connect that every
            # _call retry path goes through, so a reconnection mid-run
            # re-authenticates transparently.
            self._sock.sendall(
                _dump_line({"op": "hello", "token": self.token})
            )
            response = _read_line(self._rfile)
            if response is None:
                raise ConnectionError(
                    "brokerd closed the connection during hello"
                )
            if not response.get("ok"):
                self._disconnect()
                raise _revive_error(response.get("error") or {})

    def _disconnect(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Drop the connection (idempotent; calls reconnect lazily)."""
        with self._lock:
            self._disconnect()

    def _call(self, op: str, **params):
        request = {"op": op, **params}
        # A lost connection is retried once — except for submit, the one
        # op that *creates* server-side state: if its response was lost
        # the job may already exist, and re-sending would enqueue a
        # duplicate job that orphan workers then drain twice.  (The
        # others are safe: reads are pure, lease at worst grants a lease
        # that ages out, and ack/nack/heartbeat are lease-id fenced.)
        # With a retry window, the same idempotent ops keep retrying on a
        # backoff until the window (opened at the first failure) closes.
        retry_ok = op != "submit"
        with self._lock:
            response = None
            deadline: float | None = None
            while True:
                try:
                    if self._sock is None:
                        self._connect()
                    self._sock.sendall(_dump_line(request))
                    response = _read_line(self._rfile)
                    if response is None:  # server closed mid-call
                        raise ConnectionError("brokerd closed the connection")
                    break
                except (OSError, ConnectionError) as exc:
                    self._disconnect()
                    if not retry_ok:
                        raise DistributedError(
                            f"brokerd at tcp://{self.host}:{self.port} "
                            f"unreachable ({op}): {exc}"
                        ) from exc
                    now = time.monotonic()
                    if deadline is None:
                        # First failure: open the window and take the
                        # historical immediate retry (no sleep).
                        deadline = now + self._retry_window_s
                        continue
                    if now >= deadline:
                        raise DistributedError(
                            f"brokerd at tcp://{self.host}:{self.port} "
                            f"unreachable ({op}): {exc}"
                        ) from exc
                    time.sleep(
                        min(self._retry_backoff_s, max(deadline - now, 0.0))
                    )
                except DistributedError:
                    # Framing trouble (oversized or non-JSON line): the
                    # stream may be stuck mid-line, so any further read
                    # would return fragments of the old response against
                    # new requests.  Drop the connection before
                    # surfacing — a later call reconnects cleanly.
                    self._disconnect()
                    raise
        if not response.get("ok"):
            raise _revive_error(response.get("error") or {})
        return response.get("value")

    # -- the Broker protocol --------------------------------------------
    def submit(
        self,
        payload: dict,
        tasks: list[ChunkTask],
        *,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        max_deliveries: int = DEFAULT_MAX_DELIVERIES,
    ) -> JobSpec:
        value = self._call(
            "submit",
            payload=payload,
            tasks=[t.to_dict() for t in tasks],
            lease_timeout_s=lease_timeout_s,
            max_deliveries=max_deliveries,
        )
        spec = JobSpec.from_dict(value)
        self.job_id = spec.job_id  # pin: this client now speaks for its job
        self._spec_cache = spec
        return spec

    def job(self) -> JobSpec | None:
        cached = self._spec_cache
        value = self._call(
            "job",
            job_id=self.job_id,
            if_job_id=cached.job_id if cached is not None else None,
        )
        if value is None:
            self._spec_cache = None
            return None
        if (
            cached is not None
            and value.get("same") == cached.job_id
            and "payload" not in value
        ):
            return cached  # revalidated: the server skipped the payload
        spec = JobSpec.from_dict(value)
        self._spec_cache = spec
        return spec

    def lease(self, worker_id: str) -> Lease | None:
        value = self._call("lease", job_id=self.job_id, worker_id=worker_id)
        return None if value is None else Lease.from_dict(value)

    def heartbeat(self, lease: Lease) -> Lease:
        value = self._call("heartbeat", lease=lease.to_dict())
        return Lease.from_dict(value)

    def ack(self, lease: Lease, result: dict) -> None:
        self._call("ack", lease=lease.to_dict(), result=result)

    def nack(self, lease: Lease, reason: str = "") -> None:
        self._call("nack", lease=lease.to_dict(), reason=reason)

    def requeue_expired(self) -> list[int]:
        return list(self._call("requeue_expired", job_id=self.job_id))

    def results(self) -> dict[int, dict]:
        return {int(k): v for k, v in self._call("results", job_id=self.job_id).items()}

    def result_indices(self) -> set[int]:
        return set(self._call("result_indices", job_id=self.job_id))

    def fetch_result(self, index: int) -> dict | None:
        return self._call("fetch_result", job_id=self.job_id, index=index)

    def done_count(self) -> int:
        return int(self._call("done_count", job_id=self.job_id))

    def lost(self) -> dict[int, int]:
        return {int(k): int(v) for k, v in self._call("lost", job_id=self.job_id).items()}

    def progress(self) -> BrokerProgress:
        return BrokerProgress.from_dict(self._call("progress", job_id=self.job_id))

    def is_complete(self) -> bool:
        """Constant-size completion check via the progress census.

        Every idle worker polls this; the inherited
        ``result_indices()``-based default would ship an O(n_chunks) index
        list over the socket per tick (the server's progress counters are
        O(1) to produce — its jobs are in-memory brokers).
        """
        progress = self.progress()
        if progress.n_tasks == 0:
            # No tasks: either no job at all, or a zero-chunk job (n=0),
            # which is trivially complete the moment it exists.
            return self.job() is not None
        return progress.done == progress.n_tasks

    def purge(self) -> None:
        self._call("purge", job_id=self.job_id)
        self._spec_cache = None

    def ping(self) -> dict:
        """Server liveness + census (not part of the Broker protocol)."""
        return self._call("ping")


def _revive_error(error: dict) -> Exception:
    """Server-side error dict → the matching client-side exception."""
    message = error.get("message", "broker error")
    if error.get("type") == "LeaseExpired":
        return LeaseExpired(
            message,
            chunk_index=error.get("chunk_index"),
            lease_id=error.get("lease_id"),
        )
    return DistributedError(message)


# ----------------------------------------------------------------------
# Server (the brokerd daemon)
# ----------------------------------------------------------------------


class _Handler(socketserver.StreamRequestHandler):
    """One connection: loop request lines until EOF or a framing error.

    Authentication is per-connection state, held here: when the server
    carries an ``auth_token``, a connection must open with a matching
    ``hello`` before any other op.  A wrong or missing token gets one
    typed error line and a disconnect — never a hung peer, never partial
    service.
    """

    def setup(self) -> None:
        super().setup()
        self.server.broker_server._track_connection(self.connection, True)

    def finish(self) -> None:
        self.server.broker_server._track_connection(self.connection, False)
        super().finish()

    def handle(self) -> None:
        broker_server = self.server.broker_server
        authed = broker_server.auth_token is None
        while True:
            try:
                request = _read_line(self.rfile)
            except DistributedError as exc:
                # Framing/oversize trouble: answer once, drop the peer.
                self._respond({"ok": False, "error": {
                    "type": "DistributedError", "message": str(exc)}})
                return
            if request is None:
                return
            if request.get("op") == "hello":
                # Always answered, even by an open daemon, so clients can
                # send their token unconditionally.
                if (
                    broker_server.auth_token is not None
                    and request.get("token") != broker_server.auth_token
                ):
                    self._respond({"ok": False, "error": {
                        "type": "DistributedError",
                        "message": "brokerd rejected the auth token"}})
                    return
                authed = True
                self._respond({"ok": True, "value": {
                    "server": "repro-brokerd", "authenticated": True}})
                continue
            if not authed:
                self._respond({"ok": False, "error": {
                    "type": "DistributedError",
                    "message": "brokerd requires authentication "
                               "(send a hello with the auth token)"}})
                return
            self._respond(broker_server._handle(request))

    def _respond(self, response: dict) -> None:
        try:
            payload = _dump_line(response)
        except DistributedError as exc:
            # The response itself is over the line cap (a huge results()
            # set).  Never go silent — the client is blocking on this
            # line and would hang forever; send a small typed error it
            # can raise instead.
            payload = _dump_line({"ok": False, "error": {
                "type": "DistributedError", "message": str(exc)}})
        try:
            self.wfile.write(payload)
            self.wfile.flush()
        except OSError:
            pass  # peer gone; the next readline sees EOF and ends


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class BrokerServer:
    """``repro brokerd``: many concurrent jobs, one broker each.

    The job table is append-ordered; unpinned requests (workers) resolve
    to the oldest incomplete job so a fleet drains jobs in submission
    order.  ``purge`` drops a job from the table.

    Durability is the ``spool`` knob.  Without it (the historical
    default) every job is an :class:`~repro.distributed.broker.
    InMemoryBroker` and a daemon restart loses all in-flight work.  With
    ``spool=DIR`` each job lives in its own
    :class:`~repro.distributed.filebroker.FileBroker` under a
    sequence-numbered subdirectory::

        spool/
          00001/job.json pending/ leased/ results/ lost/ requeues.log
          00002/…

    so every submitted payload, lease, ack, and result is journaled via
    the FileBroker's atomic-rename machinery.  A restarted daemon
    replays the journal on construction: jobs reappear under their
    original ids in submission order, already-acked results are served
    from disk, and unacked chunks are still pending — or sit in
    ``leased/`` until the coordinator's normal ``requeue_expired`` scan
    re-issues them *with their original derived seeds*, so the merged
    stream stays byte-identical to an uninterrupted run.  Lease files
    persist their lease ids across the restart, which keeps fencing
    honest for workers that outlived the daemon: a surviving worker's
    ack/heartbeat lands exactly as if the daemon had never blinked.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        auth_token: str | None = None,
        clock: Clock = wall_clock,
        spool: str | Path | None = None,
    ):
        self._clock = clock
        self._lock = threading.RLock()
        self._jobs: dict[str, Broker] = {}
        self._order: list[str] = []
        #: job id → last pinned access (the reaper's liveness signal).
        self._touched: dict[str, float] = {}
        #: Shared secret; ``None`` = open daemon (the historical default).
        self.auth_token = auth_token
        #: Journal root (None = in-memory jobs, nothing survives).
        self.spool = None if spool is None else Path(spool)
        #: Next journal subdirectory sequence number.
        self._job_seq = 1
        #: Jobs restored from the journal at construction (CLI banner).
        self.replayed_jobs = 0
        if self.spool is not None:
            self.spool.mkdir(parents=True, exist_ok=True)
            self._replay()
        self._conn_lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.broker_server = self
        self._thread: threading.Thread | None = None

    def _replay(self) -> None:
        """Rebuild the job table from the spool journal (startup only).

        Subdirectory names are zero-padded submission sequence numbers,
        so a sorted scan restores submission order — the order unpinned
        workers drain in.  A subdirectory without a ``job.json`` is a
        submit or purge that crashed mid-flight: its queue was never
        published (or was already being torn down), so it is skipped —
        but its sequence number is still honoured so new submissions
        never collide with it.  A corrupt journal entry is skipped the
        same way rather than wedging the daemon at boot.
        """
        from .filebroker import FileBroker

        for entry in sorted(self.spool.iterdir()):
            if not entry.is_dir():
                continue
            try:
                seq = int(entry.name)
            except ValueError:
                continue  # a foreign directory, not ours
            self._job_seq = max(self._job_seq, seq + 1)
            broker = FileBroker(entry, clock=self._clock)
            try:
                spec = broker.job()
            except DistributedError:
                continue  # corrupt job.json — skip, keep serving the rest
            if spec is None:
                continue  # unpublished (crashed submit) or purged dir
            self._jobs[spec.job_id] = broker
            self._order.append(spec.job_id)
            self._touched[spec.job_id] = self._clock()
            self.replayed_jobs += 1

    def _new_job_broker(self) -> Broker:
        """One broker per submit: journaled when a spool is configured."""
        if self.spool is None:
            return InMemoryBroker(clock=self._clock)
        from .filebroker import FileBroker

        with self._lock:
            seq = self._job_seq
            self._job_seq += 1
        return FileBroker(self.spool / f"{seq:05d}", clock=self._clock)

    # -- lifecycle ------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — concrete even for ``port=0``."""
        return self._tcp.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"tcp://{host}:{port}"

    def serve_forever(self) -> None:
        self._tcp.serve_forever(poll_interval=0.2)

    def start(self) -> "BrokerServer":
        """Serve from a daemon thread (tests, examples); returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- connection census (graceful shutdown) --------------------------
    def _track_connection(self, conn: socket.socket, alive: bool) -> None:
        with self._conn_lock:
            if alive:
                self._connections.add(conn)
            else:
                self._connections.discard(conn)

    def connection_count(self) -> int:
        with self._conn_lock:
            return len(self._connections)

    def close_gracefully(self, timeout_s: float = 5.0) -> None:
        """Drain, then close: the SIGTERM path of ``repro brokerd``.

        Ordered so no client is left mid-response and no socket is left
        orphaned:

        1. stop the accept loop (new connections are refused);
        2. half-close every live connection for reading — each handler
           finishes (and fully writes) the request it is on, then its
           next readline sees EOF and the handler exits cleanly;
        3. wait up to ``timeout_s`` for the handler census to drain, then
           force-close stragglers;
        4. release the listener socket.

        Must be called from a thread other than the one inside
        :meth:`serve_forever` (``shutdown`` blocks on that loop exiting)
        — the CLI serves from a background thread for exactly this
        reason.
        """
        self._tcp.shutdown()
        with self._conn_lock:
            draining = list(self._connections)
        for conn in draining:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closing on its own
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._conn_lock:
                if not self._connections:
                    break
            time.sleep(0.02)
        with self._conn_lock:
            stragglers = list(self._connections)
            self._connections.clear()
        for conn in stragglers:
            try:
                conn.close()
            except OSError:
                pass
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None

    def __enter__(self) -> "BrokerServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- job routing ----------------------------------------------------
    def job_count(self) -> int:
        with self._lock:
            return len(self._jobs)

    def _pinned(self, job_id: str) -> Broker | None:
        with self._lock:
            broker = self._jobs.get(job_id)
            if broker is not None:
                self._touched[job_id] = self._clock()
            return broker

    def _current(self) -> Broker | None:
        """The job an unpinned client means.

        Resolution order: first job (submission order) with **pending**
        work, else the oldest incomplete job, else the newest job of all
        (so drain-mode workers see completion), else ``None``.

        The pending-first rule is load-bearing: unpinned ``lease`` grants
        from exactly this job, so ``job()`` and ``lease()`` always agree.
        If they could disagree (e.g. ``job()`` naming an incomplete job
        whose chunks are all leased out while ``lease()`` served another
        job's chunk), a worker would nack the mismatched chunk, re-lease
        it immediately, and burn its whole delivery budget in a tight
        loop — marking healthy chunks lost.
        """
        with self._lock:
            ordered = [
                self._jobs[job_id]
                for job_id in self._order
                if job_id in self._jobs
            ]
        for broker in ordered:
            if broker.progress().pending > 0:
                return broker
        for broker in ordered:
            if not broker.is_complete():
                return broker
        return ordered[-1] if ordered else None

    def _resolve(self, job_id: str | None) -> Broker | None:
        return self._current() if job_id is None else self._pinned(job_id)

    def _reap_jobs(self) -> None:
        """Retire spent and abandoned jobs; the daemon's memory bound.

        Called lazily on submit — brokers run no timers — so jobs whose
        coordinator never purged cannot grow the table unboundedly:

        * **completed** jobs beyond the :data:`COMPLETED_JOBS_KEPT` keep
          window go, unless pinned-accessed within
          :data:`COMPLETED_JOB_LINGER_S` — a coordinator slowly streaming
          a finished job's results touches it every poll, so the reaper
          cannot pull the job out from under an attached consumer;
        * **incomplete** jobs with no pinned access for
          :data:`ABANDONED_JOB_TIMEOUT_S` go too — their coordinator is
          gone and nothing can ever finish them (worker polls are
          unpinned and deliberately do not count as liveness).
        """
        now = self._clock()
        with self._lock:
            completed = [
                job_id
                for job_id in self._order
                if job_id in self._jobs and self._jobs[job_id].is_complete()
            ]
            doomed = [
                job_id
                for job_id in completed[:-COMPLETED_JOBS_KEPT]
                if now - self._touched.get(job_id, 0.0)
                >= COMPLETED_JOB_LINGER_S
            ]
            doomed += [
                job_id
                for job_id in self._order
                if job_id in self._jobs
                and job_id not in completed
                and now - self._touched.get(job_id, 0.0)
                >= ABANDONED_JOB_TIMEOUT_S
            ]
            for job_id in doomed:
                self._jobs.pop(job_id).purge()
                self._order.remove(job_id)
                self._touched.pop(job_id, None)

    def _broker_for_lease(self, lease_dict: dict) -> Broker:
        broker = self._pinned(lease_dict.get("job_id"))
        if broker is None:
            raise LeaseExpired(
                f"job {lease_dict.get('job_id')} is gone (completed and "
                "purged, or never submitted here)",
                chunk_index=(lease_dict.get("task") or {}).get("index"),
                lease_id=lease_dict.get("lease_id"),
            )
        return broker

    # -- dispatch -------------------------------------------------------
    def _handle(self, request: dict) -> dict:
        try:
            value = self._dispatch(request)
            return {"ok": True, "value": value}
        except LeaseExpired as exc:
            return {"ok": False, "error": {
                "type": "LeaseExpired",
                "message": str(exc),
                "chunk_index": exc.chunk_index,
                "lease_id": exc.lease_id,
            }}
        except DistributedError as exc:
            return {"ok": False, "error": {
                "type": "DistributedError", "message": str(exc)}}
        except Exception as exc:  # noqa: BLE001 — a bad request must not
            # kill the daemon; it answers typed and keeps serving.
            return {"ok": False, "error": {
                "type": "DistributedError",
                "message": f"{type(exc).__name__}: {exc}"}}

    def _dispatch(self, request: dict):
        op = request.get("op")
        job_id = request.get("job_id")

        if op == "ping":
            return {"server": "repro-brokerd", "jobs": self.job_count()}

        if op == "submit":
            tasks = [ChunkTask.from_dict(t) for t in request["tasks"]]
            broker = self._new_job_broker()
            spec = broker.submit(
                request["payload"],
                tasks,
                lease_timeout_s=float(
                    request.get("lease_timeout_s", DEFAULT_LEASE_TIMEOUT_S)
                ),
                max_deliveries=int(
                    request.get("max_deliveries", DEFAULT_MAX_DELIVERIES)
                ),
            )
            with self._lock:
                self._jobs[spec.job_id] = broker
                self._order.append(spec.job_id)
                self._touched[spec.job_id] = self._clock()
            self._reap_jobs()
            return spec.to_dict()

        if op == "purge":
            with self._lock:
                broker = self._jobs.pop(job_id, None)
                if job_id in self._order:
                    self._order.remove(job_id)
                self._touched.pop(job_id, None)
            if broker is not None:
                broker.purge()
            return True

        if op in ("heartbeat", "ack", "nack"):
            lease_dict = request["lease"]
            broker = self._broker_for_lease(lease_dict)
            lease = Lease.from_dict(lease_dict)
            if op == "heartbeat":
                return broker.heartbeat(lease).to_dict()
            if op == "ack":
                broker.ack(lease, request["result"])
                return True
            broker.nack(lease, reason=request.get("reason", ""))
            return True

        if op == "lease":
            worker_id = request.get("worker_id", "tcp-worker")
            # Unpinned leases come from the same job job() resolves to —
            # see _current() for why the two must agree.
            broker = (
                self._pinned(job_id) if job_id is not None
                else self._current()
            )
            lease = broker.lease(worker_id) if broker else None
            return None if lease is None else lease.to_dict()

        # Read-side ops share job resolution: pinned when the client
        # submitted, the fleet's current job otherwise.
        broker = self._resolve(job_id)
        if op == "job":
            spec = broker.job() if broker else None
            if spec is None:
                return None
            if request.get("if_job_id") == spec.job_id:
                # Client already holds this spec — skip the payload.
                return {"same": spec.job_id}
            return spec.to_dict()
        if op == "requeue_expired":
            if broker is not None:
                return broker.requeue_expired()
            with self._lock:
                brokers = [self._jobs[j] for j in self._order if j in self._jobs]
            requeued: list[int] = []
            for each in brokers:
                requeued.extend(each.requeue_expired())
            return requeued
        if op == "results":
            return (
                {} if broker is None
                else {str(k): v for k, v in broker.results().items()}
            )
        if op == "result_indices":
            return [] if broker is None else sorted(broker.result_indices())
        if op == "done_count":
            return 0 if broker is None else broker.done_count()
        if op == "fetch_result":
            index = int(request["index"])
            return None if broker is None else broker.fetch_result(index)
        if op == "lost":
            return (
                {} if broker is None
                else {str(k): v for k, v in broker.lost().items()}
            )
        if op == "progress":
            progress = broker.progress() if broker else BrokerProgress()
            return progress.to_dict()

        raise DistributedError(f"unknown op {op!r}")


__all__ = [
    "MAX_LINE_BYTES",
    "DEFAULT_PORT",
    "TcpBroker",
    "BrokerServer",
    "connect_broker",
    "parse_tcp_url",
]
