"""Local backends: in-process serial and the chunked spawn pool.

``PoolExecutor`` replaces the old batch-ordered collection in
``sim/resilient.py`` with a window of chunk futures collected as they
complete (``concurrent.futures.wait(FIRST_COMPLETED)``) under per-chunk
deadlines.  Two consequences:

* a stuck worker is detected within ``timeout × chunk`` of its own deadline
  instead of up to ``workers × timeout`` after the whole batch is awaited;
* one pickled round-trip ships ``chunk`` cells, amortizing submit/collect
  overhead that dominates sweeps of small cells.

Failure semantics match the legacy pool: a cell that raises is retried with
backoff up to the policy budget; a timeout or worker death taints the whole
pool, which is discarded and rebuilt, and outstanding cells that were *not*
charged are requeued at their current attempt ("innocent").  When a worker
dies or stalls mid-chunk the runtime cannot tell which cell was at fault,
so every cell of the charged chunk spends one attempt — guaranteeing the
poisonous cell exhausts its budget within ``max_attempts`` rebuilds.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from ...obs import get_live, get_metrics, get_tracer, metrics_enabled
from .base import (
    CellExecutor,
    EmitFn,
    ProgressFn,
    batch_thunks,
    dispatch_extras,
    run_cell_chunk,
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


class _Outstanding:
    """One in-flight chunk future and its accounting."""

    __slots__ = ("future", "cells", "order", "deadline")

    def __init__(self, future, cells, order, deadline):
        self.future = future
        self.cells = cells  # [(key, args, attempt), ...]
        self.order = order
        self.deadline = deadline


class PoolExecutor(CellExecutor):
    """Spawn-pool backend: chunked submission, completion-order collection.

    Args:
        workers: pool size.
        chunk: cells per submitted chunk; ``None`` = :func:`auto_chunk`.
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
        # The pool persists across execute() sessions — spawn start-up
        # (workers re-import the package) is paid once per executor, not
        # once per sweep, so a multi-panel figure reuses warm workers.
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._ctx
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

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
        tracer = get_tracer()
        # With observability on, cells run under a worker-local registry
        # whose snapshot ships back with the value (see obs.run_one_cell);
        # the parent merges it so per-worker metrics aggregate into one
        # registry.
        instrument = metrics_enabled()
        chunk_size = self.chunk or auto_chunk(len(pending), self.workers)
        queue: list[tuple] = [(key, args, 1) for key, args in pending]
        self._ensure_pool()
        outstanding: list[_Outstanding] = []
        order = 0

        def submit_next():
            nonlocal order
            cells, rest = queue[:chunk_size], queue[chunk_size:]
            queue[:] = rest
            payload = (
                fn,
                [args for _, args, _ in cells],
                instrument,
                dispatch_extras(shared=self.shared_handle),
            )
            if instrument:
                metrics.counter("executor.pool.bytes_shipped").inc(
                    len(pickle.dumps(payload))
                )
            metrics.counter("executor.pool.batches").inc()
            deadline = None
            if policy.timeout is not None:
                deadline = time.monotonic() + policy.timeout * len(cells)
            outstanding.append(
                _Outstanding(
                    self._pool.submit(run_cell_chunk, payload), cells, order, deadline
                )
            )
            order += 1

        def fail_or_requeue(key, args, attempt, error):
            if attempt < policy.max_attempts:
                metrics.counter("sweep.cells.retried").inc()
                policy.sleep_before(attempt + 1)
                queue.append((key, args, attempt + 1))
            else:
                emit(key, ok=False, attempts=attempt, error=error)

        def harvest(entry: _Outstanding) -> bool:
            """Emit one completed chunk's outcomes; True if the pool broke."""
            try:
                cell_outcomes = entry.future.result()
            except BrokenProcessPool:
                return True
            except Exception as exc:  # noqa: BLE001 — chunk-level failure
                # run_cell_chunk only raises on unpicklable results or
                # executor internals; charge the chunk like a cell error.
                for key, args, attempt in entry.cells:
                    fail_or_requeue(key, args, attempt, f"{type(exc).__name__}: {exc}")
                return False
            live = get_live()
            for (key, args, attempt), outcome in zip(entry.cells, cell_outcomes):
                winfo = outcome.get("worker")
                worker_id = winfo.get("worker") if winfo else None
                if outcome["ok"]:
                    value = outcome["value"]
                    if instrument:
                        metrics.merge(outcome["metrics"])
                        span = outcome.get("span")
                        if span is not None:
                            # Worker-built record: keep its identity/parent,
                            # stamp the driver-known attributes.
                            span.setdefault("attrs", {}).update(
                                key=list(key), attempt=attempt
                            )
                            tracer.write_span_record(span)
                        else:
                            tracer.record_span(
                                "sweep.cell", outcome["seconds"],
                                key=list(key), attempt=attempt,
                            )
                    live.cell_timing(key, outcome["seconds"], worker_id)
                    if worker_id is not None:
                        live.worker_seen(
                            worker_id, pid=winfo.get("pid"), host=winfo.get("host")
                        )
                        live.worker_cell_done(worker_id)
                    emit(key, ok=True, value=value, attempts=attempt)
                else:
                    fail_or_requeue(key, args, attempt, outcome["error"])
            return False

        def rebuild(charged: list[_Outstanding], error: str, counter: str):
            """Charge ``charged`` chunks, requeue the rest innocent, new pool."""
            innocent = 0
            requeue_front: list[tuple] = []
            for entry in outstanding:
                if entry in charged:
                    for key, args, attempt in entry.cells:
                        metrics.counter(counter).inc()
                        fail_or_requeue(key, args, attempt, error)
                else:
                    # The fault was not theirs; same attempt, ahead of the
                    # queue so retried work finishes first.
                    innocent += len(entry.cells)
                    requeue_front.extend(entry.cells)
            queue[:0] = requeue_front
            outstanding.clear()
            metrics.counter("sweep.pool.rebuilds").inc()
            if innocent:
                metrics.counter("sweep.cells.requeued_innocent").inc(innocent)
                if progress is not None:
                    progress(
                        f"pool rebuilt; requeued {innocent} innocent "
                        "chunk-mate(s) at their current attempt"
                    )
            self.close()
            self._ensure_pool()

        while queue or outstanding:
            while queue and len(outstanding) < self.workers:
                submit_next()
            wait_for = None
            if policy.timeout is not None:
                nearest = min(e.deadline for e in outstanding)
                wait_for = max(0.0, nearest - time.monotonic())
            done, _ = wait(
                [e.future for e in outstanding],
                timeout=wait_for,
                return_when=FIRST_COMPLETED,
            )
            broke = False
            harvested = []
            for entry in sorted(outstanding, key=lambda e: e.order):
                if entry.future in done:
                    if harvest(entry):
                        broke = True
                    else:
                        harvested.append(entry)
            outstanding[:] = [e for e in outstanding if e not in harvested]
            if broke:
                # The runtime cannot tell which chunk killed the worker
                # (every outstanding future raises BrokenProcessPool);
                # charge the earliest-submitted one — it ran longest —
                # and spare the rest.
                charged = sorted(outstanding, key=lambda e: e.order)[:1]
                rebuild(charged, "worker process died", "sweep.cells.worker_death")
                continue
            if policy.timeout is not None:
                now = time.monotonic()
                expired = [e for e in outstanding if e.deadline <= now]
                if expired:
                    rebuild(
                        expired,
                        f"timeout after {policy.timeout}s",
                        "sweep.cells.timeout",
                    )
