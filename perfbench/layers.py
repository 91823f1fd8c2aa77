"""The traced run: spans around the program's layer boundaries.

The benchmark wraps the layers' public functions from here, at every name
they are bound to (``from .hashrand import hash_symmetric`` binds a second
name in ``repro.radio.beacon_noise``, and so on).  Each call becomes a
span — name, start, end, parent — kept in memory; a span's self time is
its duration minus the part its child spans cover.  Nothing under ``src/``
changes: :func:`install` patches attributes and :func:`Tracer.uninstall`
puts the originals back, so untraced repetitions in the same process run
the program as shipped.

Pool workers re-import the entry script; when :data:`WORKER_ENV` names a
directory, :func:`install_in_worker` patches the worker the same way and
writes its per-name totals there after every chunk, so Figure 9's
in-worker layers (batched kernels, Grid scoring) are seen too.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict

#: Environment variable naming the directory pool workers write totals to.
WORKER_ENV = "PERFBENCH_WORKER_TRACE"

# Span names, one per wrapped function (metric names derive from these).
BUILD_WORLD = "sim.sweep.build_world"
TRIAL_CONN = "sim.trial.connectivity"
TRIAL_SURVEY = "sim.trial.survey"
TRIAL_EVALUATE = "sim.trial.evaluate"
RADIO_CONN = "radio.connectivity"
JITTER_HASH = "radio.jitter_hash"
CENTROID = "localization.centroid"
PROPOSE = "placement.propose."
GRID_CUMULATIVE = "placement.grid_cumulative"
WARM = "sim.kernels.warm"
EXECUTE = "sim.executors.execute"
SHM_PUBLISH = "sim.executors.shm_publish"
FIELD_BUILD = "sim.incremental.field_build"
FINGERPRINT = "sim.incremental.fingerprint"
CACHE_GET = "sim.incremental.cache_get"
CACHE_PUT = "sim.incremental.cache_put"
SOLVE = "serve.solve"
CODEC = "serve.codec"


class Tracer:
    """In-memory span recorder with self-time and per-call counters."""

    def __init__(self):
        self._local = threading.local()
        #: Finished spans: ``(name, start, end, parent_name, self_seconds)``.
        self.spans: list[tuple] = []
        #: Free-form counters (pairs, hashed elements, cache hits, ...).
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []

    # -- Spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, result)`` runs
        once the span has closed, and its own time is hidden from every
        enclosing span so bookkeeping never inflates a layer."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]  # name, seconds covered by children
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                parent = stack[-1] if stack else None
                tracer.spans.append(
                    (name, start, end, parent[0] if parent else None,
                     (end - start) - frame[1])
                )
                if parent is not None:
                    parent[1] += end - start
            if after is not None:
                t0 = time.perf_counter()
                after(args, kwargs, result)
                if stack:
                    # The enclosing span's duration carries this time up to
                    # every outer span, so charging it here hides it from all.
                    stack[-1][1] += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper (restored on uninstall).

        Classmethods are unwrapped and rewrapped; a method a class inherits
        is traced by defining it on the class itself, and uninstall deletes
        that definition again.
        """
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        if isinstance(owner, type) and not inherited:
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.span(name, original.__func__, after))
        else:
            wrapped = self.span(name, original, after)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, None if inherited else original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- Aggregation ---------------------------------------------------------

    def totals(self) -> dict:
        """Per-name ``[self seconds, calls]`` plus the counters.

        One reporting rule keeps the names a partition of the traced time:
        the radio connectivity call a :class:`TrialWorld` makes for its own
        ``(P, N)`` matrix is charged to ``sim.trial.connectivity`` — it is
        that stage's work — while radio calls from anywhere else (candidate
        columns, field-state builds, batched kernels) stay ``radio``'s.
        """
        out: dict = defaultdict(lambda: [0.0, 0])
        for name, _start, _end, parent, self_s in self.spans:
            charged = TRIAL_CONN if (name == RADIO_CONN and parent == TRIAL_CONN) else name
            out[charged][0] += self_s
            if charged == name:
                out[charged][1] += 1
        return {"spans": dict(out), "counts": dict(self.counts)}


def merge_totals(into: dict, extra: dict) -> dict:
    """Add one :meth:`Tracer.totals` result into another."""
    spans = into.setdefault("spans", {})
    for name, (seconds, calls) in extra.get("spans", {}).items():
        entry = spans.setdefault(name, [0.0, 0])
        entry[0] += seconds
        entry[1] += calls
    counts = into.setdefault("counts", {})
    for name, value in extra.get("counts", {}).items():
        counts[name] = counts.get(name, 0.0) + value
    return into


# -- Patch set ------------------------------------------------------------


def _jitter_band(noise: float, radio_range: float, cm_thresh) -> tuple[float, float]:
    """Distances at which the jitter ``u`` can still change a link.

    The effective range is ``R(1 + u·nf) − (2c − 1)·nf·R`` with
    ``u ∈ [−1, 1)`` and ``nf ∈ [0, Noise]`` (c = CM_thresh; the symmetric
    reading has no correction term), so outside ``[R(1 − 2c·Noise),
    R(1 + (2 − 2c)·Noise)]`` the link is decided whatever ``u`` is.
    """
    c = 0.5 if cm_thresh is None else float(cm_thresh)
    return radio_range * (1.0 - 2.0 * c * noise), radio_range * (1.0 + (2.0 - 2.0 * c) * noise)


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer function at each of its bindings."""
    import numpy as np

    import repro.radio.beacon_noise as beacon_noise
    import repro.radio.kernels as radio_kernels
    import repro.serve as serve_pkg
    import repro.serve.client as serve_client
    import repro.serve.schema as schema
    import repro.serve.server as server
    import repro.sim as sim_pkg
    import repro.sim.executors.local as local
    import repro.sim.executors.shm as shm
    import repro.sim.executors.sockets as sockets
    import repro.sim.incremental as incremental
    import repro.sim.kernels as sim_kernels
    import repro.sim.resilient as resilient
    import repro.sim.sweep as sweep
    from repro.geometry import pairwise_distances
    from repro.localization import CentroidState
    from repro.placement import GridPlacement, MaxPlacement, RandomPlacement
    from repro.radio.base import beacon_rows
    from repro.radio.kernels import batch_params_from_realization
    from repro.sim.trial import TrialWorld

    counts = tracer.counts

    def count_hash(kind):
        def after(args, kwargs, result):
            size = int(np.size(result))
            counts["jitter_hash_elems"] += size
            if kind == "pair":
                counts["jitter_pairs_hashed"] += size
        return after

    def after_scalar_conn(args, kwargs, result):
        realization, points, beacons = args[0], args[1], args[2]
        counts["radio_pairs"] += result.size
        params = batch_params_from_realization(realization)
        if params is None or params.noise == 0.0 or result.size == 0:
            return
        # Recomputed only to classify pairs; hidden from the layer's time.
        _, positions = beacon_rows(beacons)
        lo, hi = _jitter_band(params.noise, params.radio_range, params.cm_thresh)
        dist = pairwise_distances(np.asarray(points, dtype=float), positions)
        counts["jitter_pairs_useful"] += int(np.count_nonzero((dist >= lo) & (dist <= hi)))

    def after_batched_conn(args, kwargs, result):
        params, _seeds, _ids, positions, points = args[:5]
        counts["radio_pairs"] += result.size
        if params.noise == 0.0 or result.size == 0:
            return
        lo, hi = _jitter_band(params.noise, params.radio_range, params.cm_thresh)
        pts = np.asarray(points, dtype=float)
        pos = np.asarray(positions, dtype=float)
        diff = pts[None, :, None, :] - pos[:, None, :, :]
        dist = np.sqrt(np.einsum("tpnk,tpnk->tpn", diff, diff))
        counts["jitter_pairs_useful"] += int(np.count_nonzero((dist >= lo) & (dist <= hi)))

    def after_evaluate(args, kwargs, result):
        counts["evaluate_calls"] += 1

    def after_cache_get(args, kwargs, result):
        counts["cache_gets"] += 1
        if result is not None:
            counts["cache_hits"] += 1

    # sim.sweep: build_world, at its definition and at each import site.
    for owner in (sweep, resilient, sim_pkg, schema):
        tracer.patch(owner, "build_world", BUILD_WORLD)
    # sim.trial
    tracer.patch(TrialWorld, "connectivity", TRIAL_CONN)
    tracer.patch(TrialWorld, "survey", TRIAL_SURVEY)
    tracer.patch(TrialWorld, "evaluate_candidate", TRIAL_EVALUATE, after=after_evaluate)
    # radio: the scalar path is inherited from PropagationRealization and
    # is traced on the concrete class the paper's model uses.
    tracer.patch(
        beacon_noise.BeaconNoiseRealization, "connectivity", RADIO_CONN,
        after=after_scalar_conn,
    )
    for owner in (radio_kernels, sim_kernels):
        tracer.patch(owner, "batched_connectivity", RADIO_CONN, after=after_batched_conn)
    for owner in (beacon_noise, radio_kernels):
        tracer.patch(owner, "hash_symmetric", JITTER_HASH, after=count_hash("pair"))
        tracer.patch(owner, "hash_uniform", JITTER_HASH, after=count_hash("beacon"))
    # localization
    tracer.patch(CentroidState, "from_connectivity", CENTROID)
    tracer.patch(CentroidState, "estimates", CENTROID)
    # placement
    for cls in (RandomPlacement, MaxPlacement, GridPlacement):
        tracer.patch(cls, "propose", PROPOSE + cls.name)
    tracer.patch(GridPlacement, "cumulative_errors", GRID_CUMULATIVE)
    # sim.kernels
    for owner in (sim_kernels, resilient):
        tracer.patch(owner, "warm_worlds", WARM)
    # sim.executors
    for cls in (local.SerialExecutor, local.PoolExecutor, sockets.SocketExecutor):
        tracer.patch(cls, "execute", EXECUTE)
    for owner in (shm, resilient):
        tracer.patch(owner, "publish_for_executor", SHM_PUBLISH)
    # sim.incremental
    tracer.patch(incremental.FieldState, "build", FIELD_BUILD)
    for owner in (incremental, schema):
        tracer.patch(owner, "field_fingerprint", FINGERPRINT)
    tracer.patch(incremental.FieldCache, "get", CACHE_GET, after=after_cache_get)
    tracer.patch(incremental.FieldCache, "put", CACHE_PUT)
    # serve
    for owner in (schema, server, serve_pkg):
        tracer.patch(owner, "solve_request", SOLVE)
    for owner in (schema, server, serve_pkg):
        tracer.patch(owner, "encode_array", CODEC)
    for owner in (schema, serve_client, serve_pkg):
        tracer.patch(owner, "decode_array", CODEC)
    return tracer


# -- Pool workers -----------------------------------------------------------


def install_in_worker(directory: str) -> None:
    """Trace this pool worker and write its totals after every chunk.

    The pool resolves its chunk entry point by reference, so patching
    ``repro.sim.executors.base.run_cell_chunk`` here gives a hook that runs
    after each chunk without touching the program.
    """
    import repro.sim.executors.base as base

    tracer = install(Tracer())
    original = base.run_cell_chunk
    path = os.path.join(directory, f"worker-{os.getpid()}.json")

    def run_cell_chunk(payload):
        start = time.perf_counter()
        try:
            return original(payload)
        finally:
            tracer.counts["worker_busy_s"] += time.perf_counter() - start
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(tracer.totals(), handle)
            os.replace(tmp, path)

    base.run_cell_chunk = run_cell_chunk


def read_worker_totals(directory: str) -> dict:
    """Merge every worker's totals file found in ``directory``."""
    merged: dict = {}
    if not os.path.isdir(directory):
        return merged
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("worker-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as handle:
                merge_totals(merged, json.load(handle))
    return merged
