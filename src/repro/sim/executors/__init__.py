"""Pluggable sweep executors: where resilient sweep cells actually run.

:func:`repro.sim.run_cells` owns *what* runs (jobs, retries, the journal);
a :class:`CellExecutor` owns *where*:

* :class:`SerialExecutor` — in-process, in order (the reference backend);
* :class:`PoolExecutor` — local spawn processes, one chunk of cells per
  process at a time, collected as they finish under per-chunk deadlines;
* :class:`SocketExecutor` — TCP server feeding ``beaconplace worker``
  processes on any machine (:mod:`repro.sim.executors.wire` documents the
  frame format).

All three produce bit-identical sweeps: cells are pure functions of the
config seed, and ordering/retry bookkeeping happens in ``run_cells``
regardless of backend.
"""

from .base import (
    CellExecutor,
    batch_thunks,
    cell_fn_ref,
    dispatch_extras,
    make_executor,
    register_batch_planner,
    resolve_cell_fn,
    run_one_cell,
    spawn_context,
    validate_workers,
    worker_session_metrics,
)
from .cache import cached_grid, cached_layout, cached_localizer, clear_world_cache
from .local import PoolExecutor, SerialExecutor
from .shm import (
    SharedWorldState,
    attach_shared_state,
    publish_for_executor,
    publish_shared_state,
)
from .sockets import SocketExecutor, WorkerRejected, run_worker

__all__ = [
    "CellExecutor",
    "SerialExecutor",
    "PoolExecutor",
    "SocketExecutor",
    "WorkerRejected",
    "make_executor",
    "run_worker",
    "run_one_cell",
    "register_batch_planner",
    "batch_thunks",
    "dispatch_extras",
    "cell_fn_ref",
    "resolve_cell_fn",
    "spawn_context",
    "validate_workers",
    "worker_session_metrics",
    "cached_grid",
    "cached_layout",
    "cached_localizer",
    "clear_world_cache",
    "SharedWorldState",
    "publish_shared_state",
    "publish_for_executor",
    "attach_shared_state",
]
