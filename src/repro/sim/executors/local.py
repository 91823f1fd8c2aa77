"""Local backends: in-process serial and the spawn pool.

``PoolExecutor`` runs ``workers`` slots.  A slot is one spawn process with
its own pipe, and it runs one chunk of ``chunk`` cells at a time; the
driver collects from every pipe with ``multiprocessing.connection.wait``
under per-chunk deadlines.  Because every chunk is pinned to a known
process, a failure charges exactly its own chunk:

* **death** — end-of-file on a slot's pipe charges that slot's chunk one
  attempt (``sweep.cells.worker_death``) and respawns only that process;
* **timeout** — a chunk past its deadline (``timeout × cells``) is charged
  one attempt (``sweep.cells.timeout``), and only its process is killed
  and respawned;
* every other slot's chunk keeps running, untouched.

A process that dies or stalls mid-chunk does not say which cell was at
fault, so every cell of its chunk spends one attempt — the poisonous cell
exhausts its budget within ``max_attempts`` respawns.  A fresh process
reports ready once it has started and imported the package, and gets its
first chunk only then, so start-up never counts against a cell's timeout.
"""

from __future__ import annotations

import os
import pickle
import time
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Sequence

from ...obs import get_live, get_metrics, get_tracer, metrics_enabled
from . import base
from .base import (
    CellExecutor,
    DispatchQueue,
    EmitFn,
    ProgressFn,
    batch_thunks,
    dispatch_extras,
    spawn_context,
)

__all__ = ["SerialExecutor", "PoolExecutor", "auto_chunk"]

#: Most cells one batch-planning pass covers, on every backend: a serial
#: block, and the largest pool chunk :func:`auto_chunk` picks.  Bounds the
#: state a batch planner retains (pre-warmed worlds live until their cell
#: runs).  At paper shape one world already fills a kernel block
#: (``DEFAULT_BLOCK_ELEMENTS``), so a larger pass batches no better.
MAX_CHUNK = 16


class SerialExecutor(CellExecutor):
    """Run cells in-process, in order.  No timeouts (nothing can preempt).

    Cells whose function has a registered batch planner are planned in
    blocks of :data:`MAX_CHUNK` — one vectorized pass per block — and
    retried scalar (thunks are first-attempt only; a retry should not trust
    the batch state that just failed).
    """

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
        metrics = get_metrics()
        cell_seconds = metrics.histogram("sweep.cell.seconds")
        retries = metrics.counter("sweep.cells.retried")
        tracer = get_tracer()
        live = get_live()
        pending = list(pending)
        for start_index in range(0, len(pending), MAX_CHUNK):
            block = pending[start_index : start_index + MAX_CHUNK]
            thunks = batch_thunks(fn, [args for _, args in block])
            for j, (key, args) in enumerate(block):
                thunk = thunks[j] if thunks is not None else None
                last_error = None
                for attempt in range(1, policy.max_attempts + 1):
                    if attempt > 1:
                        retries.inc()
                        policy.sleep_before(attempt)
                    live.worker_seen("serial", current=list(key), pid=os.getpid())
                    try:
                        with tracer.span("sweep.cell", key=list(key), attempt=attempt):
                            start = time.perf_counter()
                            if thunk is not None and attempt == 1:
                                try:
                                    value = thunk()
                                except Exception:  # noqa: BLE001 — fall back
                                    metrics.counter(
                                        "kernel.batch.thunk_fallbacks"
                                    ).inc()
                                    value = fn(args)
                            else:
                                value = fn(args)
                            elapsed = time.perf_counter() - start
                            cell_seconds.observe(elapsed)
                    except Exception as exc:  # noqa: BLE001 — degrade, never abort
                        last_error = f"{type(exc).__name__}: {exc}"
                        continue
                    live.cell_timing(key, elapsed, "serial")
                    live.worker_cell_done("serial")
                    emit(key, ok=True, value=value, attempts=attempt)
                    break
                else:
                    emit(key, ok=False, attempts=policy.max_attempts, error=last_error)


def auto_chunk(cells: int, workers: int) -> int:
    """Default cells-per-chunk: enough to amortize IPC, small enough to
    keep all workers busy (≥ 4 chunks per worker) and to keep the
    charge-the-chunk failure blast radius modest."""
    return max(1, min(MAX_CHUNK, cells // (workers * 4)))


def _slot_main(conn) -> None:
    """One pool slot's process: report ready, then run chunks until stopped.

    The chunk entry point is looked up on :mod:`.base` for every chunk, so
    a replacement installed on that module in this process takes effect.
    An empty message (or a closed pipe) stops the process.
    """
    try:
        conn.send(None)
        while message := conn.recv_bytes():
            try:
                reply = ("ok", base.run_cell_chunk(pickle.loads(message)))
                data = ForkingPickler.dumps(reply)
            except Exception as exc:  # noqa: BLE001 — charged like a cell error
                data = ForkingPickler.dumps(("error", f"{type(exc).__name__}: {exc}"))
            conn.send_bytes(data)
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # the driver closed the pipe or is shutting down


class _Slot:
    """One pool process, its pipe, and the chunk it is running."""

    __slots__ = ("process", "conn", "ready", "cells", "deadline")

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe()
        # Daemonic, so no slot outlives the driver, even an unclosed one.
        self.process = ctx.Process(target=_slot_main, args=(child,), daemon=True)
        self.process.start()
        child.close()
        self.ready = False
        self.cells: list | None = None  # [(key, args, attempt), ...]
        self.deadline: float | None = None

    def kill(self) -> None:
        self.conn.close()
        self.process.kill()
        self.process.join()


class PoolExecutor(CellExecutor):
    """Spawn-pool backend: one process per slot, one chunk per slot.

    Args:
        workers: slot (process) count.
        chunk: cells per dispatched chunk; ``None`` = :func:`auto_chunk`.
        mp_context: multiprocessing context override (default: spawn).
    """

    def __init__(self, workers: int, *, chunk: int | None = None, mp_context=None):
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self.workers = workers
        self.chunk = chunk
        #: Optional shared-memory handle (see ``executors.shm``) shipped with
        #: every chunk so workers attach the sweep's immutable arrays
        #: zero-copy instead of rebuilding them per process.
        self.shared_handle = None
        self._ctx = mp_context if mp_context is not None else spawn_context()
        # Slots persist across execute() sessions — spawn start-up (workers
        # re-import the package) is paid once per executor, not once per
        # sweep, so a multi-panel figure reuses warm workers.
        self._slots: list[_Slot] = []

    def close(self) -> None:
        """Stop every slot without waiting for it (idempotent).

        An idle slot is sent a stop; a slot still running a chunk (an
        interrupted ``execute``) is killed.
        """
        for slot in self._slots:
            if slot.cells is None:
                try:
                    slot.conn.send_bytes(b"")
                except OSError:
                    pass  # already gone
            else:
                slot.process.kill()
            slot.conn.close()
        self._slots = []

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
        metrics = get_metrics()
        # With observability on, cells run under a worker-local registry
        # whose snapshot ships back with the value (see obs.run_one_cell);
        # the parent merges it so per-worker metrics aggregate into one
        # registry.
        instrument = metrics_enabled()
        chunk_size = self.chunk or auto_chunk(len(pending), self.workers)
        queue = DispatchQueue(pending, policy=policy, emit=emit, instrument=instrument)
        chunks = -(-len(pending) // chunk_size)
        while len(self._slots) < min(self.workers, chunks):
            self._slots.append(_Slot(self._ctx))

        def dispatch(slot: _Slot, cells: list) -> None:
            payload = (
                fn,
                [args for _, args, _ in cells],
                instrument,
                dispatch_extras(shared=self.shared_handle),
            )
            try:
                data = ForkingPickler.dumps(payload)
            except Exception as exc:  # noqa: BLE001 — e.g. an unpicklable fn
                for cell in cells:
                    queue.fail(cell, f"{type(exc).__name__}: {exc}")
                return
            if instrument:
                metrics.counter("executor.pool.bytes_shipped").inc(len(data))
            metrics.counter("executor.pool.batches").inc()
            slot.cells = cells
            if policy.timeout is not None:
                slot.deadline = time.monotonic() + policy.timeout * len(cells)
            try:
                slot.conn.send_bytes(data)
            except OSError:
                pass  # the process is gone; its end-of-file charges the chunk

        def respawn(slot: _Slot, error: str, counter: str) -> None:
            """Replace ``slot``'s process and charge its chunk one attempt."""
            slot.kill()
            self._slots[self._slots.index(slot)] = _Slot(self._ctx)
            for cell in slot.cells or ():
                metrics.counter(counter).inc()
                queue.fail(cell, error)

        def fill_idle_slots() -> None:
            for slot in self._slots:
                # A chunk that fails to pickle leaves its slot idle and its
                # cells requeued, so keep offering that slot ready cells.
                while slot.ready and slot.cells is None and (
                    cells := queue.take(chunk_size)
                ):
                    dispatch(slot, cells)

        fill_idle_slots()
        while queue or any(slot.cells is not None for slot in self._slots):
            wait_for = queue.wait_timeout(slot.deadline for slot in self._slots)
            by_conn = {slot.conn: slot for slot in self._slots}
            for conn in wait(list(by_conn), timeout=wait_for):
                slot = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    if not slot.ready:
                        slot.kill()
                        self._slots.remove(slot)
                        code = slot.process.exitcode
                        raise RuntimeError(
                            f"pool worker exited during start-up (exit code {code})"
                        ) from None
                    respawn(slot, "worker process died", "sweep.cells.worker_death")
                    continue
                if not slot.ready:
                    slot.ready = True
                    continue
                cells = slot.cells
                slot.cells = slot.deadline = None
                status, body = message
                if status == "ok":
                    for cell, outcome in zip(cells, body):
                        winfo = outcome.get("worker")
                        queue.settle(cell, outcome, winfo and winfo.get("worker"))
                else:
                    # A chunk-level failure (unpicklable results, executor
                    # internals): charge every cell like a cell error.
                    for cell in cells:
                        queue.fail(cell, body)
            now = time.monotonic()
            for slot in list(self._slots):
                if slot.deadline is not None and slot.deadline <= now:
                    respawn(slot, f"timeout after {policy.timeout}s", "sweep.cells.timeout")
            fill_idle_slots()
