"""TCP socket backend: sweep cells pulled by workers on other machines.

The executor is the server: it listens, welcomes workers that complete the
hello/fingerprint handshake, ships cell batches and collects per-cell
results as they stream back.  ``beaconplace worker --connect HOST:PORT``
(:func:`run_worker`) is the client; any number may join or leave mid-sweep.

Threading model — one place mutates sweep state:

* an acceptor thread accepts connections and starts one handler thread per
  connection; handlers *only receive*, pushing every frame (and the
  disconnect) onto a single event queue;
* the ``execute`` loop is the sole consumer of that queue and the sole
  sender on server-side sockets, so journal writes, retry bookkeeping and
  metrics all stay single-threaded.

Because workers stream one ``result`` frame per cell (not per batch), a
disconnect mid-batch identifies the victim exactly: the first unfinished
cell of the batch was the one running — it is charged an attempt; its
batch-mates requeue at their current attempt ("innocent").  Compare the
local pool, where a chunk's results only arrive together and a dead worker
costs the whole chunk an attempt.

The executor outlives ``execute`` sessions: the CLI builds one per command,
runs several sweeps (noise levels, figure panels) through it, and workers
rejoin between sessions — each session re-runs the handshake because the
cell function and fingerprint change per sweep.
"""

from __future__ import annotations

import os
import queue as queue_mod
import socket
import threading
import time
from typing import Callable, Sequence

from ...obs import (
    get_live,
    get_metrics,
    metrics_enabled,
    process_metadata,
    set_worker_id,
)
from .base import (
    CellExecutor,
    DispatchQueue,
    EmitFn,
    ProgressFn,
    apply_dispatch_extras,
    cell_fn_ref,
    dispatch_extras,
    merge_metric_snapshots,
    plan_chunk,
    resolve_cell_fn,
    run_one_cell,
    worker_session_metrics,
)
from .wire import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_payload,
    enable_nodelay,
    encode_payload,
    recv_frame,
    send_frame,
)

__all__ = ["SocketExecutor", "WorkerRejected", "run_worker"]

#: Default cells shipped per batch frame; network round-trips cost more
#: than local pipe round-trips, so the socket default is fixed rather than
#: scaled down for small sweeps.
DEFAULT_SOCKET_CHUNK = 8


class WorkerRejected(RuntimeError):
    """The server refused this worker's handshake (protocol/fingerprint)."""


def _merge_remote_delta(metrics, delta) -> None:
    """Fold a worker-shipped metrics delta into the driver registry.

    Best-effort: a malformed or incompatible delta (newer worker build)
    must not take the sweep down — the frame already served its liveness
    purpose.
    """
    if not delta:
        return
    try:
        metrics.merge(delta)
    except (KeyError, TypeError, ValueError):
        metrics.counter("executor.socket.bad_deltas").inc()


class _Conn:
    """Server-side connection state (mutated only by the execute loop)."""

    __slots__ = ("sock", "name", "batch_id", "cells", "done", "deadline")

    def __init__(self, sock: socket.socket, name: str):
        self.sock = sock
        self.name = name
        self.batch_id: int | None = None
        self.cells: list | None = None  # [(key, args, attempt), ...]
        self.done: list | None = None  # per-cell completion flags
        self.deadline: float | None = None


class SocketExecutor(CellExecutor):
    """Serve sweep cells to TCP workers.

    Args:
        bind: ``(host, port)`` to listen on; port 0 picks a free port
            (read it back from :attr:`address`).
        chunk: cells per batch frame (default ``DEFAULT_SOCKET_CHUNK``).
        heartbeat: seconds between worker heartbeats; a connection silent
            for ``3 × heartbeat`` is treated as dead by its handler.
    """

    def __init__(self, bind=("127.0.0.1", 0), *, chunk: int | None = None,
                 heartbeat: float = 30.0):
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self.chunk = chunk or DEFAULT_SOCKET_CHUNK
        self.heartbeat = heartbeat
        #: Optional shared-memory handle advertised in the welcome frame;
        #: only workers on this host can attach (attach is best-effort).
        self.shared_handle = None
        self._events: queue_mod.Queue = queue_mod.Queue()
        self._conn_lock = threading.Lock()
        self._conn_socks: set[socket.socket] = set()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(tuple(bind))
        self._listener.listen(16)
        self._closed = False
        self._batch_seq = 0
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="sweep-socket-acceptor", daemon=True
        )
        self._acceptor.start()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — where workers connect."""
        return self._listener.getsockname()[:2]

    # -- receive side (threads) --------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            # Per-cell result frames and heartbeats are tiny; without
            # TCP_NODELAY each one can stall a delayed-ACK round trip.
            enable_nodelay(sock)
            with self._conn_lock:
                if self._closed:
                    sock.close()
                    continue
                self._conn_socks.add(sock)
            conn = _Conn(sock, f"{peer[0]}:{peer[1]}")
            threading.Thread(
                target=self._recv_loop, args=(conn,),
                name=f"sweep-socket-recv-{conn.name}", daemon=True,
            ).start()

    def _recv_loop(self, conn: _Conn) -> None:
        try:
            while True:
                try:
                    # Set inside the loop's try: the handshake path may
                    # close a rejected connection before this thread runs.
                    conn.sock.settimeout(self.heartbeat * 3)
                    message, nbytes = recv_frame(conn.sock)
                except (ProtocolError, OSError) as exc:
                    self._events.put(("gone", conn, str(exc), 0))
                    return
                if message is None:
                    self._events.put(("gone", conn, "connection closed", 0))
                    return
                self._events.put(("msg", conn, message, nbytes))
        finally:
            with self._conn_lock:
                self._conn_socks.discard(conn.sock)

    # -- execute loop (single-threaded state) ------------------------------

    def execute(
        self,
        pending: Sequence[tuple],
        fn: Callable,
        *,
        policy,
        emit: EmitFn,
        progress: ProgressFn | None = None,
        fingerprint: str | None = None,
    ) -> None:
        if self._closed:
            raise RuntimeError("socket executor is closed")
        metrics = get_metrics()
        instrument = metrics_enabled()
        fn_ref = cell_fn_ref(fn)
        fingerprint = fingerprint or f"adhoc:{fn_ref}"
        bytes_sent = metrics.counter("executor.socket.bytes_sent")
        bytes_received = metrics.counter("executor.socket.bytes_received")
        queue = DispatchQueue(pending, policy=policy, emit=emit, instrument=instrument)
        ready: list[_Conn] = []  # welcomed, no batch assigned
        working: dict[int, _Conn] = {}  # batch id -> connection
        if progress is not None:
            host, port = self.address
            progress(f"socket executor serving {len(pending)} cell(s) on {host}:{port}")

        def send(conn: _Conn, message: dict) -> bool:
            try:
                bytes_sent.inc(send_frame(conn.sock, message))
                return True
            except OSError:
                # The handler thread will surface the matching "gone".
                return False

        def assign(conn: _Conn) -> bool:
            """Ship ``conn`` a batch of ready cells; park it if none is ready."""
            cells = queue.take(self.chunk)
            if not cells:
                ready.append(conn)
                return False
            self._batch_seq += 1
            conn.batch_id = self._batch_seq
            conn.cells = cells
            conn.done = [False] * len(cells)
            conn.deadline = (
                time.monotonic() + policy.timeout * len(cells)
                if policy.timeout is not None
                else None
            )
            working[conn.batch_id] = conn
            metrics.counter("executor.socket.batches").inc()
            get_live().worker_seen(conn.name, current=list(cells[0][0]))
            send(
                conn,
                {
                    "type": "batch",
                    "id": conn.batch_id,
                    "cells": [
                        {"key": list(key), "args": encode_payload(args)}
                        for key, args, _ in cells
                    ],
                },
            )
            return True

        def release(conn: _Conn) -> None:
            if conn.batch_id is not None:
                working.pop(conn.batch_id, None)
            conn.batch_id = conn.cells = conn.done = conn.deadline = None

        def fail_batch(conn: _Conn, cause: str, counter: str) -> None:
            """Charge the running cell; requeue unfinished batch-mates."""
            unfinished = [
                cell for flag, cell in zip(conn.done, conn.cells) if not flag
            ]
            if unfinished:
                metrics.counter(counter).inc()
                queue.fail(unfinished[0], cause)
            queue.put_back(unfinished[1:])
            innocent = len(unfinished) - 1
            if innocent > 0:
                metrics.counter("executor.socket.requeues").inc(innocent)
                metrics.counter("sweep.cells.requeued_innocent").inc(innocent)
                if progress is not None:
                    progress(
                        f"worker {conn.name} lost batch {conn.batch_id}; requeued "
                        f"{innocent} innocent batch-mate(s) at their current attempt"
                    )
            release(conn)

        def handle(conn: _Conn, message: dict) -> None:
            kind = message.get("type")
            if kind == "hello":
                if message.get("protocol") != PROTOCOL_VERSION:
                    send(conn, {
                        "type": "reject",
                        "reason": (
                            f"protocol {message.get('protocol')!r} != "
                            f"{PROTOCOL_VERSION} (upgrade the worker)"
                        ),
                    })
                    conn.sock.close()
                    return
                offered = message.get("fingerprint")
                if offered is not None and offered != fingerprint:
                    send(conn, {
                        "type": "reject",
                        "reason": (
                            f"sweep fingerprint {offered!r} != {fingerprint!r} "
                            "(this server runs a different sweep)"
                        ),
                    })
                    conn.sock.close()
                    return
                send(conn, {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "fingerprint": fingerprint,
                    "fn": fn_ref,
                    "instrument": instrument,
                    "heartbeat": self.heartbeat,
                    # Additive field: old workers ignore it, old servers
                    # simply never send it — protocol version 1 holds.
                    "extras": dispatch_extras(shared=self.shared_handle),
                })
                if progress is not None:
                    progress(f"worker {conn.name} joined")
                assign(conn)
            elif kind == "result":
                owner = working.get(message.get("batch"))
                if owner is not conn or owner is None:
                    return  # stale frame from a superseded session
                index = message.get("index")
                if not isinstance(index, int) or not 0 <= index < len(conn.cells):
                    return
                if conn.done[index]:
                    return
                conn.done[index] = True
                queue.settle(
                    conn.cells[index], decode_payload(message["outcome"]), conn.name
                )
                if all(conn.done):
                    release(conn)
                    assign(conn)
            elif kind == "heartbeat":
                # Receipt alone resets the handler's recv timeout.  New
                # workers also attach a status payload (worker health for
                # the live ledger) and a metrics snapshot delta; both are
                # optional, so bare version-1 heartbeats still work.
                _merge_remote_delta(metrics, message.get("metrics"))
                status = message.get("status") or {}
                get_live().worker_seen(
                    conn.name,
                    current=status.get("current"),
                    pid=status.get("pid"),
                    host=status.get("host"),
                    cells_done=status.get("cells"),
                )
            elif kind == "goodbye":
                # A departing worker flushes its final session delta here.
                _merge_remote_delta(metrics, message.get("metrics"))
                conn.sock.close()

        def handle_gone(conn: _Conn, detail: str) -> None:
            if conn in ready:
                ready.remove(conn)
            if conn.batch_id is not None and conn.batch_id in working:
                fail_batch(conn, "worker process died", "sweep.cells.worker_death")
            try:
                conn.sock.close()
            except OSError:
                pass

        def expire_deadlines() -> None:
            now = time.monotonic()
            for conn in list(working.values()):
                if conn.deadline is not None and conn.deadline <= now:
                    fail_batch(
                        conn,
                        f"timeout after {policy.timeout}s",
                        "sweep.cells.timeout",
                    )
                    # The worker is stuck on a cell; cut it loose so its
                    # eventual results cannot race the requeued copies.
                    conn.sock.close()

        while queue or working:
            while ready and assign(ready.pop()):
                pass
            wait_for = queue.wait_timeout(c.deadline for c in working.values())
            try:
                kind, conn, payload, nbytes = self._events.get(timeout=wait_for)
            except queue_mod.Empty:
                expire_deadlines()
                continue
            bytes_received.inc(nbytes)
            if kind == "msg":
                handle(conn, payload)
            else:
                handle_gone(conn, payload)
            expire_deadlines()

        # Sweep complete: drain every idle worker so it can exit or rejoin
        # for the next session's handshake.
        for conn in ready:
            send(conn, {"type": "drain"})
            conn.sock.close()
        ready.clear()

    def close(self) -> None:
        """Stop accepting workers; disconnect any that are still attached.

        Closing live connections (not just the listener) matters for
        workers idling between sweep sessions: they are blocked waiting for
        the next welcome and would otherwise hang until their heartbeat
        window expires.
        """
        with self._conn_lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._conn_socks)
            self._conn_socks.clear()
        try:
            self._listener.close()
        except OSError:
            pass
        for sock in pending:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


def run_worker(
    address,
    *,
    fingerprint: str | None = None,
    max_batches: int | None = None,
    connect_timeout: float = 10.0,
    progress: ProgressFn | None = None,
) -> int:
    """Pull and run cell batches from a :class:`SocketExecutor`.

    Connects (retrying for up to ``connect_timeout`` seconds, so workers
    may start before the server), performs the hello handshake, then loops:
    receive a batch, run each cell, stream one result frame per cell.  On
    ``drain`` the worker reconnects for the server's next sweep session;
    when the server is gone it returns.

    Args:
        address: ``(host, port)`` of the serving executor.
        fingerprint: expected sweep fingerprint; the server rejects the
            connection on mismatch (guards against pointing a fleet at the
            wrong sweep).  ``None`` trusts the server.
        max_batches: stop after this many batches (testing/chaos tools).
        connect_timeout: seconds to keep retrying the initial connect, and
            to wait for the server's next session after a drain.
        progress: optional status callback.

    Returns:
        Total cells processed.

    Raises:
        WorkerRejected: the server refused the handshake.
        ConnectionError: the server never became reachable.
    """
    host, port = address
    cells_done = 0
    batches_done = 0
    ever_connected = False
    set_worker_id(f"sock:{os.getpid()}")
    # Shared with the heartbeat thread: plain-assignment updates, read
    # whole — worker-lifetime state surviving drain/rejoin cycles.
    state: dict = {"cells": 0, "current": None}
    session = worker_session_metrics()
    while True:
        sock = _connect_with_retry(
            host, port, connect_timeout, give_up_on_refused=ever_connected
        )
        if sock is None:
            if ever_connected:
                return cells_done
            raise ConnectionError(
                f"no sweep server at {host}:{port} after {connect_timeout}s"
            )
        ever_connected = True
        drained = False
        try:
            sock.settimeout(None)  # block on batches; liveness is the server's job
            hello = {"type": "hello", "protocol": PROTOCOL_VERSION}
            if fingerprint is not None:
                hello["fingerprint"] = fingerprint
            try:
                send_frame(sock, hello)
                welcome, _ = recv_frame(sock)
            except OSError:
                welcome = None  # server shut down mid-handshake
            if welcome is None:
                continue  # retry the connect; refusal ends the loop above
            if welcome.get("type") == "reject":
                raise WorkerRejected(welcome.get("reason", "rejected"))
            if welcome.get("type") != "welcome":
                raise ProtocolError(f"expected welcome, got {welcome!r}")
            fn = resolve_cell_fn(welcome["fn"])
            instrument = bool(welcome.get("instrument"))
            apply_dispatch_extras(welcome.get("extras"))
            if progress is not None:
                progress(
                    f"joined sweep {welcome.get('fingerprint')} at {host}:{port} "
                    f"(fn {welcome['fn']})"
                )
            send_lock = threading.Lock()
            stop_heartbeat = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop,
                args=(sock, send_lock, stop_heartbeat,
                      float(welcome.get("heartbeat", 30.0)),
                      state, session if instrument else None),
                daemon=True,
            )
            beat.start()
            try:
                while True:
                    try:
                        message, _ = recv_frame(sock)
                    except (OSError, ProtocolError):
                        message = None  # server died mid-session
                    if message is None:
                        break
                    def safe_send(frame: dict) -> bool:
                        try:
                            with send_lock:
                                send_frame(sock, frame)
                            return True
                        except OSError:
                            return False  # server gone; end the session

                    if message["type"] == "drain":
                        safe_send(_goodbye_frame(session if instrument else None))
                        drained = True
                        break
                    if message["type"] != "batch":
                        continue
                    lost_server = False
                    batch_args = [
                        decode_payload(cell["args"]) for cell in message["cells"]
                    ]
                    thunks, plan_metrics = plan_chunk(fn, batch_args, instrument)
                    for index, args in enumerate(batch_args):
                        state["current"] = message["cells"][index].get("key")
                        outcome = run_one_cell(
                            fn, args, instrument=instrument,
                            thunk=thunks[index] if thunks is not None else None,
                        )
                        if plan_metrics is not None:
                            # Charge the plan's counters to the first result
                            # frame (mirrors run_cell_chunk's chunk-level
                            # accounting).
                            outcome["metrics"] = merge_metric_snapshots(
                                outcome["metrics"], plan_metrics
                            )
                            plan_metrics = None
                        if not safe_send({
                            "type": "result",
                            "batch": message["id"],
                            "index": index,
                            "outcome": encode_payload(outcome),
                        }):
                            lost_server = True
                            break
                        cells_done += 1
                        state["cells"] += 1
                        session.counter("worker.cells").inc()
                    state["current"] = None
                    if lost_server:
                        break
                    batches_done += 1
                    session.counter("worker.batches").inc()
                    if progress is not None:
                        progress(f"batch {message['id']}: {len(message['cells'])} cell(s)")
                    if max_batches is not None and batches_done >= max_batches:
                        safe_send(_goodbye_frame(session if instrument else None))
                        return cells_done
            finally:
                stop_heartbeat.set()
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if not drained:
            return cells_done
        # Drained: the server may start another sweep session (next noise
        # level, next figure panel) — rejoin it with a fresh handshake.


def _connect_with_retry(
    host: str, port: int, timeout: float, *, give_up_on_refused: bool = False
) -> socket.socket | None:
    """Connect, retrying until ``timeout``.

    ``give_up_on_refused`` short-circuits on ECONNREFUSED: once a worker has
    been connected, the listener stays open between sweep sessions, so a
    refusal means the server shut down — no point retrying out the window.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=max(timeout, 1.0))
            enable_nodelay(sock)
            return sock
        except ConnectionRefusedError:
            if give_up_on_refused or time.monotonic() >= deadline:
                return None
            time.sleep(0.2)
        except OSError:
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.2)


def _nonempty_delta(session) -> dict | None:
    """The session registry's pending delta, or ``None`` when quiet."""
    if session is None:
        return None
    delta = session.snapshot_delta()
    if delta["counters"] or delta["gauges"] or delta["histograms"]:
        return delta
    return None


def _goodbye_frame(session) -> dict:
    """A goodbye frame flushing the final session metrics delta, if any."""
    frame: dict = {"type": "goodbye"}
    delta = _nonempty_delta(session)
    if delta is not None:
        frame["metrics"] = delta
    return frame


def _heartbeat_loop(sock, send_lock, stop: threading.Event, interval: float,
                    state: dict | None = None, session=None) -> None:
    """Send periodic heartbeats, carrying worker status + metrics deltas.

    Both payloads are additive protocol-v1 fields: an old server ignores
    them, and an old worker's bare ``{"type": "heartbeat"}`` still counts
    as liveness on a new server.
    """
    while not stop.wait(interval):
        frame: dict = {"type": "heartbeat"}
        if state is not None:
            frame["status"] = {
                **process_metadata(),
                "cells": state.get("cells", 0),
                "current": state.get("current"),
            }
        delta = _nonempty_delta(session)
        if delta is not None:
            frame["metrics"] = delta
        try:
            with send_lock:
                send_frame(sock, frame)
        except OSError:
            return
