"""The executor contract and shared cell-running machinery.

A :class:`CellExecutor` turns a list of pending ``(key, args)`` cells into
outcome callbacks, nothing more: retry accounting, journaling, metrics on
completion and result collection all stay in :func:`repro.sim.resilient.run_cells`
via the ``emit`` callback it passes in.  That keeps journal + retry
semantics identical across backends — an executor only decides *where* a
cell runs and *how* its result travels back.  Every sweep in the package,
the default in-process figure sweeps included, reaches an executor through
``run_cells``.

Pool setup (``spawn_context``/``validate_workers``/:func:`make_executor`)
lives here, once.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import time
import warnings
from abc import ABC, abstractmethod
from typing import Callable, Protocol, Sequence

from ...obs import (
    MetricsRegistry,
    current_trace_context,
    disable_metrics,
    enable_metrics,
    get_live,
    get_metrics,
    get_tracer,
    process_metadata,
    set_trace_context,
    set_worker_id,
    span_record,
)

__all__ = [
    "CellExecutor",
    "DispatchQueue",
    "EmitFn",
    "ProgressFn",
    "batch_thunks",
    "cell_fn_ref",
    "dispatch_extras",
    "make_executor",
    "plan_chunk",
    "register_batch_planner",
    "resolve_cell_fn",
    "run_cell_chunk",
    "run_one_cell",
    "spawn_context",
    "validate_workers",
    "worker_session_metrics",
]

ProgressFn = Callable[[str], None]


class EmitFn(Protocol):
    """Outcome callback handed to :meth:`CellExecutor.execute`.

    One call per finally-settled cell: either ``ok=True`` with a value or
    ``ok=False`` with an error string.  The caller (``run_cells``) owns the
    journal, the results dict and the completed/failed counters.
    """

    def __call__(
        self, key: tuple, *, ok: bool, value=None, attempts: int, error: str | None = None
    ) -> None: ...


def spawn_context() -> multiprocessing.context.BaseContext:
    """The start method every sweep pool uses.

    Pinned to ``spawn`` so results (and failure behavior) are identical
    across platforms: fork would silently share parent state on POSIX while
    macOS/Windows spawn, and forked workers can inherit locks mid-acquire.
    Determinism never relied on fork — every cell derives its own named RNG
    streams — so spawn only costs worker start-up time.
    """
    return multiprocessing.get_context("spawn")


def validate_workers(workers: int) -> int:
    """Check a worker count: reject non-positive, warn on oversubscription.

    Returns:
        ``workers`` unchanged — oversubscription is allowed (it can still
        help on I/O-stalled hosts) but never silent.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cpus = os.cpu_count()
    if cpus is not None and workers > cpus:
        warnings.warn(
            f"workers={workers} oversubscribes this host ({cpus} CPU(s)); "
            "expect slowdown, not speedup",
            RuntimeWarning,
            stacklevel=3,
        )
    return workers


def cell_fn_ref(fn: Callable) -> str:
    """The ``module:qualname`` wire reference of a module-level cell function."""
    name = getattr(fn, "__qualname__", getattr(fn, "__name__", None))
    module = getattr(fn, "__module__", None)
    if not name or not module or "<locals>" in name:
        raise ValueError(
            f"cell function {fn!r} is not module-level; socket workers "
            "resolve functions by module:qualname"
        )
    return f"{module}:{name}"


def resolve_cell_fn(ref: str) -> Callable:
    """Resolve a :func:`cell_fn_ref` string back to the callable."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed cell-function reference {ref!r}")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ValueError(f"cell-function reference {ref!r} is not callable")
    return obj


def run_one_cell(fn: Callable, args, *, instrument: bool = False, thunk=None) -> dict:
    """Run one cell, catching its exception into a shippable outcome dict.

    Returns ``{"ok": True, "value": …, "seconds": …}`` or ``{"ok": False,
    "error": "Type: msg", "seconds": …}``; with ``instrument`` the cell runs
    under a private metrics registry whose snapshot rides along as
    ``"metrics"`` (the :func:`repro.obs.instrumented_call` protocol, minus
    the exception-aborts-the-chunk behavior — a chunk must survive one bad
    cell).

    ``thunk`` — a zero-argument callable from :func:`batch_thunks` — takes
    the place of ``fn(args)`` when given; it is contracted to return the
    value ``fn(args)`` would.  If the thunk raises, the cell falls back to
    the scalar ``fn(args)`` before the failure is charged, so a kernel bug
    degrades to slow, never to wrong or failed.
    """
    registry = previous = None
    if instrument:
        previous = get_metrics()
        registry = MetricsRegistry()
        enable_metrics(registry)
    start = time.perf_counter()
    try:
        if thunk is not None:
            try:
                value = thunk()
            except Exception:  # noqa: BLE001 — batch path is an optimization
                get_metrics().counter("kernel.batch.thunk_fallbacks").inc()
                value = fn(args)
        else:
            value = fn(args)
    except Exception as exc:  # noqa: BLE001 — degrade, never abort the chunk
        outcome = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    else:
        outcome = {"ok": True, "value": value}
    outcome["seconds"] = time.perf_counter() - start
    if instrument:
        enable_metrics(previous) if previous.enabled else disable_metrics()
        if outcome["ok"]:
            registry.histogram("sweep.cell.seconds").observe(outcome["seconds"])
        outcome["metrics"] = registry.snapshot()
        # Identity + a pre-built span record (parented under the shipped
        # trace context) so the driver can stitch and attribute this cell.
        outcome["worker"] = process_metadata()
        outcome["span"] = span_record("sweep.cell", outcome["seconds"])
    return outcome


#: Batch planners by cell function: ``planner(args_list) -> [thunk | None]``.
#: A planner pre-computes a whole chunk in one vectorized pass (see
#: :mod:`repro.sim.kernels`) and returns one zero-argument thunk per cell
#: whose call yields the exact value ``fn(args)`` would return; ``None``
#: entries mean "this cell could not be batched — run it scalar".
_BATCH_PLANNERS: dict = {}


def register_batch_planner(fn: Callable, planner: Callable) -> None:
    """Register ``planner`` as the batched implementation of cell ``fn``.

    Registration happens at module import of the cell function's module, so
    pool and socket workers — which resolve ``fn`` by import — see the same
    registry as the parent process.
    """
    _BATCH_PLANNERS[fn] = planner


def batch_thunks(fn: Callable, args_list) -> "list | None":
    """Plan a chunk through ``fn``'s registered batch planner, if any.

    Returns one thunk-or-None per cell, or ``None`` when the chunk must run
    fully scalar (no planner, scalar kernel mode, or the planner failed —
    planner failures are contained here so batching is never the reason a
    cell fails).
    """
    planner = _BATCH_PLANNERS.get(fn)
    if planner is None or len(args_list) < 2:
        return None
    from ..kernels import kernel_mode

    if kernel_mode() != "batch":
        return None
    metrics = get_metrics()
    try:
        thunks = planner(list(args_list))
    except Exception:  # noqa: BLE001 — planner bugs degrade to scalar
        metrics.counter("kernel.batch.plan_errors").inc()
        return None
    if thunks is None or len(thunks) != len(args_list):
        metrics.counter("kernel.batch.plan_errors").inc()
        return None
    metrics.counter("kernel.batch.chunks").inc()
    return thunks


def _under_private_registry(instrument: bool, call: Callable) -> tuple:
    """``(call(), metrics snapshot or None)`` — the instrumented-call shape."""
    if not instrument:
        return call(), None
    previous = get_metrics()
    registry = MetricsRegistry()
    enable_metrics(registry)
    try:
        result = call()
    finally:
        enable_metrics(previous) if previous.enabled else disable_metrics()
    return result, registry.snapshot()


def plan_chunk(fn: Callable, args_list, instrument: bool) -> tuple:
    """(thunks, plan-metrics snapshot) for one dispatch chunk.

    With ``instrument`` the planning pass (world building, kernel passes)
    runs under a private registry so its counters ship back to the parent
    alongside the cells' own snapshots.
    """
    return _under_private_registry(instrument, lambda: batch_thunks(fn, args_list))


def merge_metric_snapshots(base: dict, extra: dict) -> dict:
    """Combine two registry snapshots into one (for chunk-level metrics)."""
    registry = MetricsRegistry()
    registry.merge(base)
    registry.merge(extra)
    return registry.snapshot()


def dispatch_extras(shared=None) -> dict:
    """The extras dict shipped with pool payloads / socket welcomes.

    Carries cross-process execution context: the parent's kernel mode (so
    ``REPRO_KERNELS=scalar`` measurements cover workers too), the trace
    context (trace id + the dispatching span's id) when the driver is
    tracing — the hook that lets worker spans stitch under the driver's
    tree — and, when the driver published one, the shared-memory
    world-state handle.
    """
    from ..kernels import kernel_mode

    extras: dict = {"kernels": kernel_mode()}
    trace = current_trace_context()
    if trace is not None:
        extras["trace"] = trace
    if shared is not None:
        extras["shared"] = shared
    return extras


def apply_dispatch_extras(extras: dict | None) -> None:
    """Install chunk execution context on the worker side (idempotent)."""
    if not extras:
        return
    mode = extras.get("kernels")
    if mode:
        from ..kernels import set_kernel_mode

        try:
            set_kernel_mode(mode)
        except ValueError:
            pass  # a newer parent's mode name; keep the local default
    trace = extras.get("trace")
    if trace:
        set_trace_context(trace.get("trace"), trace.get("parent"))
    handle = extras.get("shared")
    if handle:
        from .shm import attach_shared_state

        # Attach is best-effort: a worker on another machine (socket
        # backend) or one that outlived the segment simply rebuilds its
        # state through the ordinary caches.
        try:
            attach_shared_state(handle)
        except Exception:  # noqa: BLE001
            get_metrics().counter("shm.attach_failures").inc()


#: Worker-lifetime registry behind :func:`worker_session_metrics`.
_worker_session: MetricsRegistry | None = None


def worker_session_metrics() -> MetricsRegistry:
    """This worker process's session registry (created on first use).

    Unlike the per-cell private registries, this one persists across chunks;
    each dispatch ships only its :meth:`MetricsRegistry.snapshot_delta`, so
    worker-lifetime totals (chunks served, cells run) stream back to the
    driver incrementally without ever double-counting.
    """
    global _worker_session
    if _worker_session is None:
        _worker_session = MetricsRegistry()
    return _worker_session


def run_cell_chunk(payload: tuple) -> list[dict]:
    """Pool/worker entry point: run a chunk of cells, one outcome dict each.

    ``payload`` is ``(fn, args_list, instrument)`` or ``(fn, args_list,
    instrument, extras)``.  A pool slot looks it up on this module for
    every chunk it runs; one pickled round-trip carries the whole chunk.
    When ``fn`` has a registered batch planner the chunk is pre-computed in
    one vectorized pass and the per-cell loop just collects results —
    outcome shape, per-cell error attribution and instrument snapshots are
    identical either way.
    """
    fn, args_list, instrument = payload[0], payload[1], payload[2]
    extras = payload[3] if len(payload) > 3 else None
    set_worker_id(f"pool:{os.getpid()}")
    _, extras_metrics = _under_private_registry(
        instrument, lambda: apply_dispatch_extras(extras)
    )
    thunks, plan_metrics = plan_chunk(fn, args_list, instrument)
    outcomes = [
        run_one_cell(
            fn, args, instrument=instrument,
            thunk=thunks[i] if thunks is not None else None,
        )
        for i, args in enumerate(args_list)
    ]
    chunk_level = [extras_metrics, plan_metrics]
    if instrument:
        session = worker_session_metrics()
        session.counter("worker.batches").inc()
        session.counter("worker.cells").inc(len(args_list))
        chunk_level.append(session.snapshot_delta())
    for chunk_metrics in chunk_level:
        if chunk_metrics is not None and outcomes:
            outcomes[0]["metrics"] = merge_metric_snapshots(
                outcomes[0]["metrics"], chunk_metrics
            )
    return outcomes


class DispatchQueue:
    """Cells awaiting dispatch, and the settling of their outcomes.

    The pool and socket executors' shared driver-side bookkeeping.  Each
    queued cell carries the time it may next run: a failed cell is
    requeued behind its backoff instead of the dispatch loop sleeping it
    off, :meth:`take` skips cells still backing off, and
    :meth:`wait_timeout` bounds the collect loop's wait, so one failed
    chunk never stalls dispatch or collection of the others.
    """

    def __init__(self, pending: Sequence[tuple], *, policy, emit: EmitFn,
                 instrument: bool):
        self._cells = [(key, args, 1, 0.0) for key, args in pending]
        self._policy = policy
        self._emit = emit
        self._instrument = instrument

    def __bool__(self) -> bool:
        return bool(self._cells)

    def take(self, limit: int) -> list[tuple]:
        """Up to ``limit`` ready ``(key, args, attempt)`` cells, in queue order."""
        now = time.monotonic()
        taken, waiting = [], []
        for cell in self._cells:
            if len(taken) < limit and cell[3] <= now:
                taken.append(cell[:3])
            else:
                waiting.append(cell)
        self._cells = waiting
        return taken

    def wait_timeout(self, deadlines) -> float | None:
        """Seconds a collect loop may block: until the nearest of
        ``deadlines`` (monotonic times or ``None``) or the next
        backing-off cell's turn; ``None`` when neither is pending."""
        now = time.monotonic()
        wakeups = [d for d in deadlines if d is not None]
        wakeups += [cell[3] for cell in self._cells if cell[3] > now]
        return max(0.0, min(wakeups) - now) if wakeups else None

    def fail(self, cell: tuple, error: str) -> None:
        """Requeue ``(key, args, attempt)`` behind its backoff, or emit its failure."""
        key, args, attempt = cell
        if attempt < self._policy.max_attempts:
            get_metrics().counter("sweep.cells.retried").inc()
            not_before = time.monotonic() + self._policy.delay_before(attempt + 1)
            self._cells.append((key, args, attempt + 1, not_before))
        else:
            self._emit(key, ok=False, attempts=attempt, error=error)

    def put_back(self, cells: Sequence[tuple]) -> None:
        """Return uncharged ``(key, args, attempt)`` cells to the front, ready now."""
        self._cells[:0] = [(key, args, attempt, 0.0) for key, args, attempt in cells]

    def settle(self, cell: tuple, outcome: dict, worker_id: str | None) -> None:
        """Emit a returned :func:`run_one_cell` outcome, or :meth:`fail` it.

        With instrumentation on, the outcome's metrics snapshot is merged
        and its span written; ``worker_id`` names the worker in the live
        ledger (``None``: unknown).
        """
        key, _, attempt = cell
        if not outcome["ok"]:
            self.fail(cell, outcome["error"])
            return
        if self._instrument:
            get_metrics().merge(outcome["metrics"])
            span = outcome.get("span")
            if span is not None:
                # Worker-built record: keep its identity/parent, stamp the
                # driver-known attributes.
                span.setdefault("attrs", {}).update(key=list(key), attempt=attempt)
                get_tracer().write_span_record(span)
            else:
                get_tracer().record_span(
                    "sweep.cell", outcome["seconds"], key=list(key), attempt=attempt
                )
        live = get_live()
        live.cell_timing(key, outcome["seconds"], worker_id)
        if worker_id is not None:
            winfo = outcome.get("worker") or {}
            live.worker_seen(worker_id, pid=winfo.get("pid"), host=winfo.get("host"))
            live.worker_cell_done(worker_id)
        self._emit(key, ok=True, value=outcome["value"], attempts=attempt)


class CellExecutor(ABC):
    """Where sweep cells run: in-process, on a local pool, or over sockets.

    ``execute`` drives every pending cell to a final ``emit`` call; retry
    scheduling happens inside the executor (it owns the in-flight state) but
    the *policy* — attempt budget, timeout, backoff — comes from the caller
    and the bookkeeping contract is fixed: exactly one ``emit`` per key.
    """

    @abstractmethod
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
        """Run every ``(key, args)`` in ``pending`` and emit each outcome."""

    def close(self) -> None:
        """Release executor resources (listener sockets, pools)."""

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_executor(
    name: str | None = None,
    *,
    workers: int = 1,
    chunk: int | None = None,
    bind=None,
    mp_context=None,
) -> CellExecutor:
    """Build a backend by name — the single place pool setup is derived.

    ``None`` picks the default: serial for ``workers == 1``, a local spawn
    pool otherwise.  ``bind`` is a ``(host, port)`` pair for the socket
    backend.

    Raises:
        ValueError: if ``workers < 1`` and the backend is chosen by (or
            sized from) ``workers`` — ``None`` or ``"pool"``.
    """
    from .local import PoolExecutor, SerialExecutor

    if name in (None, "pool"):
        validate_workers(workers)
    if name is None:
        name = "serial" if workers == 1 else "pool"
    if name == "serial":
        return SerialExecutor()
    if name == "pool":
        return PoolExecutor(workers=workers, chunk=chunk, mp_context=mp_context)
    if name == "socket":
        from .sockets import SocketExecutor

        return SocketExecutor(bind=bind or ("127.0.0.1", 0), chunk=chunk)
    raise ValueError(f"unknown executor {name!r} (expected serial, pool or socket)")
