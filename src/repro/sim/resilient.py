"""The sweep engine: checkpoints, retries, degraded aggregation.

Every figure sweep runs here, whatever the backend.  :func:`run_cells` fans
out independent ``(key, args)`` cells and wraps them in three layers of
protection:

* **Checkpoint journal** (:class:`SweepJournal`) — an append-only JSONL file
  next to the CSV outputs.  Every completed cell is one flushed line, so a
  killed sweep resumes from the journal and recomputes only missing cells.
  Cells are pure functions of the config seed, so a resumed sweep is
  *identical* to an uninterrupted one.  The journal header carries a
  fingerprint of (sweep kind, config, algorithms); resuming against a
  journal written for different parameters is refused loudly.
* **Bounded retry with backoff** (:class:`RetryPolicy`) — a cell that
  raises is retried up to ``max_attempts`` times with exponential backoff
  (pool and socket backends park the cell until its backoff has passed
  instead of sleeping); in pool mode a per-cell ``timeout`` additionally
  catches stuck workers.  A worker that dies or times out charges exactly
  its own chunk one attempt, and only its process is replaced.
* **Degraded aggregation** — a cell that exhausts its retries degrades to
  NaN instead of aborting the sweep.  :meth:`Curve.from_samples` drops NaNs
  and records per-point sample coverage in ``Curve.meta["coverage"]``; the
  returned curves record the failed-cell count in their ``meta``.

The figure sweeps — :func:`mean_error_curve` (Figures 4 and 6) and
:func:`placement_improvement_curves` (Figures 5, 7–9) — are one body each
over :func:`run_cells`: with no arguments they run in-process, with
``workers``/``executor``/``journal_path`` the same cells run elsewhere or
checkpointed, and the curves are bit-identical either way.

*Where* cells run is delegated to :mod:`repro.sim.executors`: in-process
(:class:`~repro.sim.executors.SerialExecutor`), on a local spawn pool
(:class:`~repro.sim.executors.PoolExecutor`), or across machines over TCP
(:class:`~repro.sim.executors.SocketExecutor`).  Every backend reports cell
outcomes through the same ``emit`` callback, so journal and retry semantics
are identical regardless of backend.  Timeouts are enforced per in-flight
batch deadline, collected in completion order — a stuck worker is detected
within ``timeout × batch`` of *its own* deadline, not after every earlier
batch has been awaited (the old batch-ordered collection delayed detection
by up to ``workers × timeout``).
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import time as _time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..obs import (
    STATUS_FILENAME,
    disable_live,
    enable_live,
    get_live,
    get_metrics,
    get_tracer,
)
from ..placement import PlacementAlgorithm
from ..radio import PropagationModel
from .config import ExperimentConfig
from .executors import (
    CellExecutor,
    SerialExecutor,
    make_executor,
    register_batch_planner,
)
from .executors.shm import publish_for_executor
from .kernels import DEFAULT_BLOCK_ELEMENTS, batch_surface_stats, warm_worlds
from .results import Curve, CurveSet
from .rng import derive_rng
from .sweep import build_world
from .trial import run_placement_trial

__all__ = [
    "RetryPolicy",
    "SweepJournal",
    "run_cells",
    "sweep_fingerprint",
    "mean_error_curve",
    "placement_improvement_curves",
    "resilient_mean_error_curve",
    "resilient_placement_improvement_curves",
]

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before degrading a cell to NaN.

    Attributes:
        max_attempts: total tries per cell (1 = no retry).
        timeout: per-cell wall-clock limit in seconds (pool mode only; the
            serial path cannot preempt a running cell).  ``None`` disables.
        backoff: sleep before retry k is ``backoff · 2^(k-1)`` seconds
            (0 disables sleeping — used by tests).
    """

    max_attempts: int = 3
    timeout: float | None = None
    backoff: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be non-negative, got {self.backoff}")

    def delay_before(self, attempt: int) -> float:
        """Seconds to back off before retry ``attempt`` (2, 3, …)."""
        return self.backoff * 2 ** (attempt - 2) if self.backoff > 0 else 0.0

    def sleep_before(self, attempt: int) -> None:
        """Back off before retry ``attempt`` (2, 3, …), in place."""
        if self.backoff > 0:
            _time.sleep(self.delay_before(attempt))


def _canon_key(key) -> tuple:
    """Canonicalize a cell key for dict lookup and JSON round-tripping."""
    out = []
    for part in key:
        if isinstance(part, bool):
            raise TypeError("cell keys must be str/int/float")
        if isinstance(part, (int, np.integer)):
            out.append(int(part))
        elif isinstance(part, (float, np.floating)):
            out.append(float(part))
        elif isinstance(part, str):
            out.append(part)
        else:
            raise TypeError(f"unsupported cell-key part {part!r}")
    return tuple(out)


def _canon_json(obj, where: str):
    """Validate/convert a fingerprint payload to JSON-canonical values.

    The old ``json.dumps(..., default=str)`` escape hatch silently hashed
    ``str(obj)`` for unknown objects — anything whose ``str()`` embeds a
    memory address fingerprinted differently every run, defeating journal
    resume without any error.  Canonicalization is now explicit: enums
    stringify (matching what ``default=str`` produced, so existing journal
    fingerprints survive), numpy scalars narrow to Python numbers, and
    anything else raises instead of degrading.
    """
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, enum.Enum):
        return str(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (list, tuple)):
        return [_canon_json(x, where) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canon_json(v, where) for k, v in obj.items()}
    raise TypeError(
        f"sweep_fingerprint: {where} contains non-JSON-canonical value {obj!r} "
        f"({type(obj).__name__}); pass plain str/int/float/bool/list/dict — "
        "for fault models, their spec()"
    )


def sweep_fingerprint(kind: str, config: ExperimentConfig, extra=None) -> str:
    """A stable identity for one sweep's parameter set.

    Two runs share a journal iff their fingerprints match — same kind of
    sweep, same config (seed included), same extras (e.g. algorithm names).

    Raises:
        TypeError: if ``extra`` (or the config) holds a value with no
            JSON-canonical form — an unstable ``str()`` would silently
            produce a fresh fingerprint every process.
    """
    payload = {
        "kind": kind,
        "config": _canon_json(asdict(config), "config"),
        "extra": _canon_json(extra, "extra"),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class _TruncatedHeader(Exception):
    """The journal's first line never made it to disk intact (killed run)."""


class SweepJournal:
    """Append-only JSONL checkpoint journal for sweep cells.

    Line 1 is a header ``{"kind": "header", "fingerprint": …, "version": 1}``;
    every further line is one cell:
    ``{"kind": "cell", "key": [...], "ok": true, "attempts": 1, "value": …}``
    (failed cells carry ``"ok": false`` and an ``"error"`` string instead of
    a value).  Lines are flushed as written, so a crashed run loses at most
    the line being written; a trailing partial line is ignored on load.  A
    run killed *during creation* leaves a truncated (or empty) header line —
    there is nothing to resume, so :meth:`open` recreates the journal with a
    warning instead of refusing the path forever.

    Use :meth:`open` — it validates the fingerprint of an existing journal
    and creates a fresh one otherwise.
    """

    VERSION = 1

    def __init__(self, path: Path, fingerprint: str, entries: dict):
        self.path = path
        self.fingerprint = fingerprint
        self._entries = entries
        self._handle = None

    @classmethod
    def open(cls, path, fingerprint: str) -> "SweepJournal":
        """Open (resuming), create, or recreate the journal at ``path``.

        Raises:
            ValueError: if an existing journal's fingerprint does not match
                — the journal belongs to a different sweep; delete it or
                pick another path.
        """
        p = Path(path)
        entries: dict = {}
        if p.exists():
            try:
                header, cells = cls._load(p)
            except _TruncatedHeader:
                warnings.warn(
                    f"journal {p} has a truncated header (the creating run "
                    "was killed mid-write); no cells are recoverable — "
                    "starting a fresh journal at this path",
                    RuntimeWarning,
                    stacklevel=2,
                )
                cls._create(p, fingerprint)
            else:
                if header.get("fingerprint") != fingerprint:
                    raise ValueError(
                        f"journal {p} was written for a different sweep "
                        f"(fingerprint {header.get('fingerprint')!r} != {fingerprint!r}); "
                        "delete it or choose another --journal path"
                    )
                entries = cells
        else:
            cls._create(p, fingerprint)
        return cls(p, fingerprint, entries)

    @classmethod
    def _create(cls, p: Path, fingerprint: str) -> None:
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w") as handle:
            handle.write(
                json.dumps(
                    {"kind": "header", "fingerprint": fingerprint, "version": cls.VERSION}
                )
                + "\n"
            )

    @staticmethod
    def _load(path: Path) -> tuple[dict, dict]:
        header: dict = {}
        cells: dict = {}
        with path.open() as handle:
            for i, line in enumerate(handle):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    if i == 0:
                        # The header itself is the partial line — the run
                        # died during journal creation; nothing to resume.
                        raise _TruncatedHeader(path) from None
                    # Partial trailing line from a killed run; everything
                    # before it is intact (one line per flushed cell).
                    break
                if i == 0:
                    if record.get("kind") != "header":
                        raise ValueError(f"journal {path} has no header line")
                    header = record
                elif record.get("kind") == "cell":
                    cells[_canon_key(record["key"])] = record
        if not header:
            # Zero complete lines: the file was created but the header never
            # hit the disk before the kill.
            raise _TruncatedHeader(path)
        return header, cells

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def num_completed(self) -> int:
        """Cells recorded with a usable value."""
        return sum(1 for e in self._entries.values() if e["ok"])

    def entry(self, key) -> dict | None:
        """The recorded entry for ``key``, or None."""
        return self._entries.get(_canon_key(key))

    def record(self, key, *, ok: bool, value=None, attempts: int, error: str | None = None) -> None:
        """Append one cell outcome (flushed immediately)."""
        k = _canon_key(key)
        entry = {"kind": "cell", "key": list(k), "ok": bool(ok), "attempts": int(attempts)}
        if ok:
            entry["value"] = value
        else:
            entry["error"] = error or "unknown"
        if self._handle is None:
            self._handle = self.path.open("a")
        self._handle.write(json.dumps(entry) + "\n")
        self._handle.flush()
        self._entries[k] = entry

    def close(self) -> None:
        """Close the append handle (reopened on the next record)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _heaviest_first(counts) -> list:
    """Beacon counts in dispatch order: largest first.

    A cell's cost grows with its beacon count, so dispatching the heaviest
    cells first leaves a pool's cheapest chunks for last and its workers
    finish together, instead of one worker idling while the other runs the
    last heavy chunk.  Results are keyed by cell, so order never reaches
    the curves.
    """
    return sorted(counts, reverse=True)


def run_cells(
    jobs: Sequence[tuple],
    fn: Callable,
    *,
    workers: int = 1,
    policy: RetryPolicy | None = None,
    journal: SweepJournal | None = None,
    progress: ProgressFn | None = None,
    mp_context=None,
    executor: CellExecutor | None = None,
) -> dict:
    """Execute ``fn(args)`` for every ``(key, args)`` job, resiliently.

    Journaled cells with a recorded value are returned without recomputation
    (previously *failed* cells are retried — a resumed run gets a fresh
    chance).  Cells that exhaust :class:`RetryPolicy` map to ``None``.

    Args:
        jobs: ``(key, args)`` pairs; keys must be unique tuples of
            str/int/float.
        fn: the cell function; must be picklable (module-level) for pool
            mode and importable by reference for socket workers.
        workers: process count when no ``executor`` is given; ``1`` runs
            in-process (no timeouts).
        policy: retry/timeout policy (default :class:`RetryPolicy`).
        journal: optional checkpoint journal.
        progress: optional callback for per-cell status lines.
        mp_context: multiprocessing context override (default: spawn).
        executor: a :class:`~repro.sim.executors.CellExecutor` to run cells
            on; overrides ``workers``.  The caller keeps ownership (it is
            not closed here), so one executor — and its connected socket
            workers — can serve several sweeps.

    Returns:
        ``{canonical key: value or None}`` for every job.

    Raises:
        ValueError: if no ``executor`` is given and ``workers < 1``.
    """
    owned = executor is None
    if owned:
        # Built before anything runs, so a bad worker count is refused up
        # front; a pool starts its processes only on first dispatch.
        executor = make_executor(workers=workers, mp_context=mp_context)
    try:
        return _execute_cells(jobs, fn, workers, policy, journal, progress, executor)
    finally:
        if owned:
            executor.close()


def _execute_cells(
    jobs, fn, workers, policy, journal, progress, executor, settled=None
) -> dict:
    """The body of :func:`run_cells` on a given executor, plus an optional
    ``settled(key, value)`` hook called once per cell as it settles: resumed
    cells first, then each executed cell as it is emitted (``None`` for a
    cell that exhausted its retries)."""
    policy = policy or RetryPolicy()
    results: dict = {}
    pending: list[tuple] = []
    seen = set()
    for key, args in jobs:
        k = _canon_key(key)
        if k in seen:
            raise ValueError(f"duplicate cell key {k}")
        seen.add(k)
        entry = journal.entry(k) if journal is not None else None
        if entry is not None and entry["ok"]:
            results[k] = entry["value"]
        else:
            pending.append((k, args))
    if journal is not None and results:
        get_metrics().counter("sweep.cells.resumed").inc(len(results))
        if progress is not None:
            progress(f"resumed {len(results)} cell(s) from {journal.path}")
    if settled is not None:
        for k, value in results.items():
            settled(k, value)
    # A journaled run keeps a live status ledger (status.json beside the
    # journal) so `beaconplace top`/`status` can watch progress.  Nested
    # run_cells calls (one CLI command sweeping several panels) reuse the
    # outer ledger rather than fight over the file.
    live = None
    if journal is not None and not get_live().enabled:
        live = enable_live(
            journal.path.parent / STATUS_FILENAME,
            fingerprint=journal.fingerprint,
            total=len(jobs),
        )
        for k, value in results.items():
            live.note_outcome(k, ok=True, value=value, resumed=True)
    if not pending:
        if live is not None:
            disable_live()
        return results

    def emit(key, *, ok, value=None, attempts, error=None):
        _note_outcome(
            results, journal, progress, key,
            ok=ok, value=value, attempts=attempts, error=error,
        )
        if settled is not None:
            settled(key, results[key])

    try:
        with get_tracer().span(
            "sweep.run_cells", cells=len(pending), workers=max(workers, 1)
        ):
            executor.execute(
                pending, fn,
                policy=policy, emit=emit, progress=progress,
                fingerprint=journal.fingerprint if journal is not None else None,
            )
    finally:
        if live is not None:
            disable_live()
    return results


def _note_outcome(results, journal, progress, key, *, ok, value=None, attempts, error=None):
    results[key] = value if ok else None
    get_metrics().counter("sweep.cells.completed" if ok else "sweep.cells.failed").inc()
    get_live().note_outcome(key, ok=ok, value=value)
    if journal is not None:
        journal.record(key, ok=ok, value=value, attempts=attempts, error=error)
    if progress is not None and not ok:
        progress(f"cell {key} FAILED after {attempts} attempt(s): {error}")


# -- Sweep drivers ----------------------------------------------------------


def _mean_error_cell(args, model_factory=None) -> float:
    config, noise, count, index, faults, fault_time = args
    world = build_world(
        config, noise, count, index,
        model_factory=model_factory, faults=faults, fault_time=fault_time,
    )
    return world.error_surface().mean_error()


def _improvement_cell(args, model_factory=None) -> dict:
    config, noise, count, index, faults, fault_time, algorithms = args

    def rng_for(name: str):
        return derive_rng(config.seed, "alg", name, noise, count, index)

    world = build_world(
        config, noise, count, index,
        model_factory=model_factory, faults=faults, fault_time=fault_time,
    )
    outcomes = run_placement_trial(world, list(algorithms), rng_for)
    return {
        o.algorithm: (o.improvement_mean, o.improvement_median) for o in outcomes
    }


def _mean_error_cells_planner(args_list):
    """Batch plan for :func:`_mean_error_cell`: one kernel pass per block.

    Worlds are built the normal way (field/realization caches make that
    cheap), pre-warmed through the batched kernels, reduced with
    :func:`batch_surface_stats`, and *dropped* — the returned thunks close
    over plain floats, so planning a chunk retains no arrays.  A cell whose
    world fails to build gets no thunk (``None``); the executor's scalar
    path recomputes it and surfaces the error with per-cell attribution.
    """
    thunks: list = [None] * len(args_list)
    worlds: list = []
    slots: list = []
    elements = 0

    def flush():
        nonlocal elements
        if not worlds:
            return
        warm_worlds(worlds)
        means, _ = batch_surface_stats(worlds, medians=False)
        for slot, mean in zip(slots, means):
            value = float(mean)
            thunks[slot] = lambda _v=value: _v
        worlds.clear()
        slots.clear()
        elements = 0

    for i, args in enumerate(args_list):
        config, noise, count, index, faults, fault_time = args
        try:
            world = build_world(
                config, noise, count, index, faults=faults, fault_time=fault_time
            )
        except Exception:  # noqa: BLE001 — scalar path owns the failure
            continue
        worlds.append(world)
        slots.append(i)
        elements += world.points().shape[0] * max(len(world.field), 1)
        if elements >= DEFAULT_BLOCK_ELEMENTS:
            flush()
    flush()
    return thunks


def _improvement_cells_planner(args_list):
    """Batch plan for :func:`_improvement_cell`: warm worlds, defer trials.

    The placement trial itself is order-sensitive, survey-driven scalar code
    — only the *initial* world evaluation (connectivity, centroid state, the
    base error surface) batches.  Each thunk runs the unchanged
    :func:`run_placement_trial` against its pre-warmed world with the exact
    RNG substreams :func:`_improvement_cell` would derive, and releases the
    world as soon as it runs so chunk memory peaks at one warmed chunk.
    """
    thunks: list = [None] * len(args_list)
    worlds: list = []
    for i, args in enumerate(args_list):
        config, noise, count, index, faults, fault_time, algorithms = args
        try:
            world = build_world(
                config, noise, count, index, faults=faults, fault_time=fault_time
            )
        except Exception:  # noqa: BLE001 — scalar path owns the failure
            continue
        worlds.append(world)
        holder = [world]

        def thunk(
            holder=holder,
            config=config,
            noise=noise,
            count=count,
            index=index,
            algorithms=algorithms,
        ):
            warmed, holder[0] = holder[0], None

            def rng_for(name: str):
                return derive_rng(config.seed, "alg", name, noise, count, index)

            outcomes = run_placement_trial(warmed, list(algorithms), rng_for)
            return {
                o.algorithm: (o.improvement_mean, o.improvement_median)
                for o in outcomes
            }

        thunks[i] = thunk
    warm_worlds(worlds)
    return thunks


register_batch_planner(_mean_error_cell, _mean_error_cells_planner)
register_batch_planner(_improvement_cell, _improvement_cells_planner)


def _open_journal(journal_path, fingerprint) -> SweepJournal | None:
    if journal_path is None:
        return None
    return SweepJournal.open(journal_path, fingerprint)


def _stable_describe(obj):
    """A run-independent JSON-able description of a parameter object.

    ``repr`` would embed object addresses for nested models (breaking
    fingerprint stability across processes); this recurses into ``__dict__``
    instead.
    """
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, (list, tuple)):
        return [_stable_describe(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _stable_describe(v) for k, v in obj.items()}
    if getattr(obj, "__dict__", None):
        described = {k: _stable_describe(v) for k, v in vars(obj).items()}
        return {"__type__": type(obj).__name__, **described}
    return f"{type(obj).__name__}()"


def _fault_extra(faults, fault_time) -> dict | None:
    if faults is None:
        return None
    described = faults.spec() if hasattr(faults, "spec") else _stable_describe(faults)
    return {"faults": described, "time": fault_time}


def _figure_cells(
    fn: Callable,
    config: ExperimentConfig,
    noise: float,
    cell_args: Callable[[int, int], tuple],
    *,
    fingerprint: str,
    workers: int,
    journal_path,
    policy: RetryPolicy | None,
    executor: CellExecutor | None,
    model_factory,
    progress: ProgressFn | None,
    describe: Callable[[int, list], str],
) -> dict:
    """Run one figure sweep's ``(noise, count, field)`` cells.

    The engine under both figure sweeps: ``cell_args(count, index)`` builds
    each cell's argument tuple and :func:`run_cells` runs the cells on
    ``executor`` (default: ``workers`` local processes; in-process for 1).

    The backend decides how cells are handed out.  On the serial executor
    they run in config order and unplanned — each world is built, run and
    dropped before the next, so memory holds one world and the trial
    computes its own connectivity.  Pool and socket backends get the
    heaviest counts first (see :func:`_heaviest_first`) and batch-plan each
    chunk.  The curves are bit-identical either way.

    ``describe(count, values)`` builds the per-density progress line.  It
    fires once per count, in ``config.beacon_counts`` order, as soon as that
    count and every earlier one have settled — on the serial executor, as
    the count's last cell settles.

    Returns:
        ``{count: [value per field index, None where the cell degraded]}``
        in config order.

    Raises:
        ValueError: if ``model_factory`` is combined with a journal or with
            a backend other than the serial executor.
    """
    counts = [int(count) for count in config.beacon_counts]
    fields = config.fields_per_density
    values = {count: [None] * fields for count in counts}
    unsettled = {count: fields for count in counts}
    reported = 0

    def settled(key, value):
        nonlocal reported
        _, count, index = key
        values[count][index] = value
        unsettled[count] -= 1
        while reported < len(counts) and unsettled[counts[reported]] == 0:
            if progress is not None:
                progress(describe(counts[reported], values[counts[reported]]))
            reported += 1

    owned = executor is None
    if owned:
        # Built here, not inside run_cells, so shared world state can be
        # published on a pool before its first dispatch.
        executor = make_executor(workers=workers)
    journal = shared = None
    try:
        serial = isinstance(executor, SerialExecutor)
        if model_factory is not None and (journal_path is not None or not serial):
            raise ValueError(
                "model_factory runs only on the serial executor without a "
                "journal: a custom model family has no stable journal "
                "fingerprint, and its closure does not pickle to pool or "
                "socket workers"
            )
        if serial:
            # A bound cell matches no batch planner, so each cell runs
            # scalar: one world in memory at a time, and each trial computes
            # its own connectivity, as perfbench's tracer self-test expects.
            bound = {} if model_factory is None else {"model_factory": model_factory}
            fn = functools.partial(fn, **bound)
        jobs = [
            ((noise, count, index), cell_args(count, index))
            for count in (counts if serial else _heaviest_first(counts))
            for index in range(fields)
        ]
        journal = _open_journal(journal_path, fingerprint)
        shared = publish_for_executor(executor, config, noises=[noise])
        _execute_cells(jobs, fn, workers, policy, journal, progress, executor, settled)
    finally:
        if shared is not None:
            executor.shared_handle = None
            shared.unlink()
        if owned:
            executor.close()
        if journal is not None:
            journal.close()
    return values


def _samples(values: list, pick: Callable = float) -> np.ndarray:
    """One count's samples: ``pick(value)`` per field, NaN where degraded."""
    return np.array([np.nan if v is None else pick(v) for v in values], dtype=float)


def _failed_cells(cells: dict) -> int:
    return sum(v is None for values in cells.values() for v in values)


def mean_error_curve(
    config: ExperimentConfig,
    noise: float,
    *,
    workers: int = 1,
    journal_path=None,
    policy: RetryPolicy | None = None,
    label: str | None = None,
    model_factory: Callable[[float], PropagationModel] | None = None,
    faults=None,
    fault_time: float = 0.0,
    progress: ProgressFn | None = None,
    executor: CellExecutor | None = None,
) -> Curve:
    """Mean localization error vs beacon density (Figures 4 and 6).

    Every ``(count, field)`` replication is one cell of :func:`run_cells`.
    With the defaults the cells run in-process; ``workers``, ``executor``
    and ``journal_path`` move or checkpoint the same cells, and the curve is
    bit-identical either way (a resumed journal included).  A cell that
    raises is retried under ``policy`` and then degrades to NaN: the curve
    drops it, records per-point coverage in ``meta["coverage"]`` and the
    failed-cell count in ``meta["failed_cells"]``.

    Args:
        config: experiment parameters (counts, replications, seed …).
        noise: the model's noise level for every cell.
        workers: local process count when no ``executor`` is given (1 =
            in-process).
        journal_path: JSONL checkpoint path (next to your CSV output);
            ``None`` disables checkpointing.
        policy: per-cell retry/timeout policy (default :class:`RetryPolicy`).
        label: series label; defaults to ``"Noise=x"`` / ``"Ideal"``.
        model_factory: override the propagation family (ablations); serial
            executor and no journal only.
        faults: optional :class:`repro.faults.FaultModel` degrading every
            world (see :func:`repro.sim.build_world`).
        fault_time: snapshot time for ``faults``.
        progress: optional status callback: one line per density, in config
            order, plus resume and failure lines.
        executor: run cells on this backend (see :mod:`repro.sim.executors`)
            instead of ``workers`` local processes; stays open for the
            caller to reuse.
    """
    if label is None:
        label = "Ideal" if noise == 0.0 else f"Noise={noise:g}"
    cells = _figure_cells(
        _mean_error_cell, config, noise,
        lambda count, index: (config, noise, count, index, faults, fault_time),
        fingerprint=sweep_fingerprint("mean-error", config, _fault_extra(faults, fault_time)),
        workers=workers, journal_path=journal_path, policy=policy,
        executor=executor, model_factory=model_factory, progress=progress,
        describe=lambda count, values: (
            f"{label}: count={count} mean={_samples(values).mean():.2f} m"
        ),
    )
    curve = Curve.from_samples(
        label,
        config.beacon_counts,
        config.densities(),
        [_samples(values) for values in cells.values()],
        confidence=config.confidence,
    )
    curve.meta["failed_cells"] = _failed_cells(cells)
    return curve


def placement_improvement_curves(
    config: ExperimentConfig,
    noise: float,
    algorithms: Sequence[PlacementAlgorithm],
    *,
    workers: int = 1,
    journal_path=None,
    policy: RetryPolicy | None = None,
    model_factory: Callable[[float], PropagationModel] | None = None,
    faults=None,
    fault_time: float = 0.0,
    progress: ProgressFn | None = None,
    executor: CellExecutor | None = None,
) -> tuple[CurveSet, CurveSet]:
    """Improvement in mean and median error vs density (Figures 5, 7–9).

    Every algorithm sees the same worlds and the same surveys; each draws
    decisions from its own named RNG substream.  A failed cell degrades
    that replication to NaN for *every* algorithm (the comparison stays
    paired); per-point coverage lands in each curve's ``meta["coverage"]``
    and the failed-cell total in the curve sets' ``meta["failed_cells"]``.
    See :func:`mean_error_curve` for the keyword arguments.

    Returns:
        ``(mean_improvements, median_improvements)`` — two curve sets with
        one series per algorithm.
    """
    names = [a.name for a in algorithms]
    if len(set(names)) != len(names):
        raise ValueError(f"algorithm names must be unique, got {names}")

    def describe(count, values):
        gains = ", ".join(
            f"{n}={_samples(values, lambda v: v[n][0]).mean():.3f}" for n in names
        )
        return f"noise={noise:g} count={count}: mean gains {gains} m"

    cells = _figure_cells(
        _improvement_cell, config, noise,
        lambda count, index: (
            config, noise, count, index, faults, fault_time, tuple(algorithms)
        ),
        fingerprint=sweep_fingerprint(
            "improvement", config,
            {"algorithms": names, **(_fault_extra(faults, fault_time) or {})},
        ),
        workers=workers, journal_path=journal_path, policy=policy,
        executor=executor, model_factory=model_factory, progress=progress,
        describe=describe,
    )
    failed = _failed_cells(cells)

    def to_set(metric: str, which: int) -> CurveSet:
        curves = [
            Curve.from_samples(
                n,
                config.beacon_counts,
                config.densities(),
                [_samples(values, lambda v: v[n][which]) for values in cells.values()],
                confidence=config.confidence,
            )
            for n in names
        ]
        return CurveSet(
            title=f"Improvement in {metric} error (noise={noise:g})",
            curves=curves,
            meta={
                "noise": noise,
                "fields_per_density": config.fields_per_density,
                "metric": metric,
                "workers": workers,
                "failed_cells": failed,
            },
        )

    return to_set("mean", 0), to_set("median", 1)


#: The names the checkpointed sweeps were published under; the same
#: function objects as the figure sweeps.
resilient_mean_error_curve = mean_error_curve
resilient_placement_improvement_curves = placement_improvement_curves
