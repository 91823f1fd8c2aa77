"""Connectivity kernels for the paper's beacon-noise model: the one implementation.

Every connectivity question asked of a
:class:`~repro.radio.BeaconNoiseRealization` is answered here: the
per-world ``(P × N)`` matrix (:meth:`PropagationRealization.connectivity
<repro.radio.PropagationRealization.connectivity>` routes to this module),
candidate columns, and the stacked ``(T × P × N)`` pass that
:func:`repro.sim.warm_worlds` makes for a chunk of trials
(:func:`batched_connectivity`).  Four steps keep the pass cheap:

1. **Window the lattice.**  A beacon is never heard beyond its *reach*:
   ``R`` at Noise = 0, the top of the undecided band (step 4) otherwise,
   widened by a relative :data:`_BAND_MARGIN`.  When the query points are
   the x-major product of two sorted axes — :meth:`MeasurementGrid.points
   <repro.geometry.MeasurementGrid.points>` always is — each beacon's
   per-axis differences are cut to the contiguous window within its reach,
   distances are computed only over the ``(Wx × Wy)`` window, and the
   connected pairs are scattered into a zeroed ``(T, P, N)`` answer.
   Every pair outside the window lies beyond the reach, so it is
   disconnected.  Other point sets, non-finite inputs and the scalar mode
   take the dense plan: all ``(T, P, N)`` distances.
2. **Split-form distances.**  ``sqrt(dx·dx + dy·dy)`` from per-pair
   coordinate differences, the same formula as
   :func:`repro.geometry.pairwise_distances`, with no ``(T, P, N, 2)``
   temporary.  Both plans apply the same elementwise operations to the
   same operands, so every distance has the same bits in either plan.
3. **Noise = 0 is the ideal disk.**  ``nf ≡ 0`` makes every effective range
   exactly ``R``, so the answer is ``dist <= R`` and nothing is hashed.
4. **Hash only the undecided band.**  The effective range
   ``R(1 + u·nf) − (2c − 1)·nf·R`` with ``u ∈ [−1, 1]``, ``nf ∈ [0, Noise]``
   and ``c`` = CM_thresh (the correction is absent without a threshold,
   which reads as ``c = 1/2``) always lies in
   ``[R(1 − 2c·Noise), R(1 + (2 − 2c)·Noise)]`` — the connectivity-region
   annulus of Zhang & Herman's *Localization in Wireless Sensor Grids*.
   A pair closer than the band is connected whatever ``u`` is; a pair
   beyond it never is.  The band is widened by :data:`_BAND_MARGIN` ``· R``
   on each side, far above the few-ulp rounding of the range arithmetic,
   and only the pairs inside it have ``u`` hashed and their range computed.
   Steps 3 and 4 are one stage shared by both plans (:func:`_decide`).

Bit-identity contract
---------------------
``nf`` and ``u`` are counter hashes of ``(seed, id[, qx, qy])`` and the range
arithmetic (:func:`repro.radio.beacon_noise.jittered_range`) is elementwise,
so evaluating them on any subset of pairs — or on a whole ``(T, P, N)``
stack — gives each pair the bits the unpruned per-world path gives it.
Pairs decided by the band bound get the comparison's own answer, because
the bound holds with margin to spare.  Reductions whose summation *order*
could differ between shapes (mat-vecs, means) are deliberately NOT
performed here — :mod:`repro.sim.kernels` runs those per trial with the
exact scalar call.  ``tests/test_sim_kernels.py`` enforces the contract
against the unpruned path.

Kernel mode
-----------
``REPRO_KERNELS=scalar`` (or :func:`set_kernel_mode`) selects the legacy
unpruned path: every pair's range is hashed and compared, at every noise
level, and sweep chunks are not batch-planned.  It exists as the A/B
denominator and as the test oracle; outputs are identical in both modes.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict

import numpy as np

from .beacon_noise import _NF_TAG, _U_TAG, BeaconNoiseRealization, jittered_range
from .hashrand import hash_symmetric, hash_uniform, quantize_coords

__all__ = [
    "BatchNoiseParams",
    "batch_params_from_realization",
    "batched_effective_ranges",
    "batched_connectivity",
    "kernel_mode",
    "set_kernel_mode",
]

#: Relative widening of the undecided band on each side (in units of R).
#: The range arithmetic rounds at the 1e-16·R level; this keeps every
#: bound-decided pair decided the way the full comparison would.  The
#: window reach is widened by the same relative amount.
_BAND_MARGIN = 1e-9

#: Recognised lattices of immutable point arrays, keyed on the array object
#: (``id -> (weakref, axes or None)``), least recently used evicted first.
_LATTICE_CACHE: OrderedDict = OrderedDict()
_LATTICE_CACHE_SIZE = 8
_LATTICE_LOCK = threading.Lock()

_VALID_MODES = ("batch", "scalar")
_mode = os.environ.get("REPRO_KERNELS", "batch")
if _mode not in _VALID_MODES:
    _mode = "batch"


def kernel_mode() -> str:
    """The active kernel mode: ``"batch"`` (default) or ``"scalar"``."""
    return _mode


def set_kernel_mode(mode: str) -> None:
    """Select the kernel mode (propagated to workers via dispatch payloads).

    Args:
        mode: ``"batch"`` — pruned kernels, and sweep chunks pre-warm world
            caches in stacked passes; ``"scalar"`` — the legacy unpruned
            per-cell path (A/B measurement and test oracle).
    """
    global _mode
    if mode not in _VALID_MODES:
        raise ValueError(f"kernel mode must be one of {_VALID_MODES}, got {mode!r}")
    _mode = mode


class BatchNoiseParams:
    """Realization-family parameters shared by a stack of trials.

    One :class:`~repro.radio.BeaconNoiseRealization` per trial differs only
    in its seed; everything else (range, noise amplitude, CM_thresh reading,
    u granularity) comes from the propagation *model* and is constant across
    a sweep.  Instances are plain value objects — cheap to build per batch.
    """

    __slots__ = ("radio_range", "noise", "cm_thresh", "u_granularity")

    def __init__(
        self,
        radio_range: float,
        noise: float,
        cm_thresh: float | None,
        u_granularity: str,
    ):
        if cm_thresh is not None and not 0.5 <= cm_thresh <= 1.0:
            raise ValueError(f"cm_thresh must be in [0.5, 1], got {cm_thresh}")
        self.radio_range = float(radio_range)
        self.noise = float(noise)
        self.cm_thresh = cm_thresh
        self.u_granularity = u_granularity

    def key(self) -> tuple:
        """Hashable grouping key (trials sharing it may stack)."""
        return (self.radio_range, self.noise, self.cm_thresh, self.u_granularity)


def batch_params_from_realization(
    realization,
) -> BatchNoiseParams | None:
    """Extract batchable parameters, or ``None`` if the realization's
    connectivity cannot be expressed by these kernels (other model families
    compare distances against their own ``effective_ranges``)."""
    if type(realization) is not BeaconNoiseRealization:
        return None
    return BatchNoiseParams(
        realization._radio_range,
        realization._noise,
        realization._cm_thresh,
        realization._u_granularity,
    )


def batched_effective_ranges(
    params: BatchNoiseParams,
    seeds: np.ndarray,
    ids: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Effective ranges for ``T`` realizations at once, ``(T, P, N)``.

    The unpruned reference: every pair is hashed, at every noise level.

    Args:
        params: the shared model parameters.
        seeds: ``(T,)`` uint64 realization seeds.
        ids: ``(T, N)`` uint64 beacon ids (N equal across the stack).
        points: ``(P, 2)`` query locations, shared by every trial.

    Every element equals the scalar
    :meth:`~repro.radio.BeaconNoiseRealization.effective_ranges` value for
    its trial — all arithmetic is elementwise (see module docstring).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    ids = np.asarray(ids, dtype=np.uint64)
    if seeds.ndim != 1 or ids.ndim != 2 or ids.shape[0] != seeds.shape[0]:
        raise ValueError(
            f"expected seeds (T,) and ids (T, N), got {seeds.shape} / {ids.shape}"
        )
    pts = np.asarray(points, dtype=float)
    nf = params.noise * hash_uniform(seeds[:, None], ids, _NF_TAG)  # (T, N)
    if params.u_granularity == "beacon":
        u = hash_symmetric(seeds[:, None], ids, _U_TAG)[:, None, :]  # (T, 1, N)
    else:
        qx, qy = quantize_coords(pts)
        u = hash_symmetric(
            seeds[:, None, None],
            ids[:, None, :],
            _U_TAG,
            qx[None, :, None],
            qy[None, :, None],
        )  # (T, P, N)
    ranges = jittered_range(params.radio_range, u, nf[:, None, :], params.cm_thresh)
    return np.ascontiguousarray(
        np.broadcast_to(ranges, (seeds.shape[0], pts.shape[0], ids.shape[1]))
    )


def _undecided_band(params: BatchNoiseParams) -> tuple[float, float]:
    """``(lo, hi)``: distances outside this closed interval are decided by
    the bound alone (connected below ``lo``, disconnected above ``hi``).

    Parameters outside the model's domain (negative or non-finite noise or
    range) get the whole line, so every pair takes the full comparison.
    """
    noise, radio_range = params.noise, params.radio_range
    if not (0.0 < noise < np.inf and 0.0 < radio_range < np.inf):
        return -np.inf, np.inf
    c = 0.5 if params.cm_thresh is None else float(params.cm_thresh)
    margin = _BAND_MARGIN * radio_range
    return (
        radio_range * (1.0 - 2.0 * c * noise) - margin,
        radio_range * (1.0 + (2.0 - 2.0 * c) * noise) + margin,
    )


def _reach(params: BatchNoiseParams) -> float | None:
    """Distance beyond which no pair is connected or undecided, or ``None``
    when the parameters give no finite positive bound (dense plan)."""
    if params.noise == 0.0:
        edge = params.radio_range
    else:
        edge = _undecided_band(params)[1]
    reach = edge * (1.0 + _BAND_MARGIN)
    return reach if 0.0 < reach < np.inf else None


def _product_axes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(xs, ys)`` if ``points[i·len(ys) + j] == (xs[i], ys[j])`` for two
    strictly increasing finite axes, else ``None``.  O(P), no sort."""
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] == 0:
        return None
    x, y = points[:, 0], points[:, 1]
    ny = int(np.argmax(x != x[0])) or x.shape[0]
    if x.shape[0] % ny:
        return None
    xs, ys = x[::ny].copy(), y[:ny].copy()
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        return None
    if (xs[1:] <= xs[:-1]).any() or (ys[1:] <= ys[:-1]).any():
        return None
    if not ((x.reshape(-1, ny) == xs[:, None]).all() and (y.reshape(-1, ny) == ys).all()):
        return None
    return xs, ys


def _immutable(arr) -> bool:
    """Whether ``arr`` and every array it views are non-writeable."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return True


def _lattice_axes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`_product_axes`, cached per object for immutable arrays only
    (a writeable array could change between calls, so it is checked on
    each).  A dead weak reference marks a reused ``id`` as a miss."""
    if not _immutable(points):
        return _product_axes(points)
    key = id(points)
    with _LATTICE_LOCK:
        hit = _LATTICE_CACHE.get(key)
        if hit is not None and hit[0]() is points:
            _LATTICE_CACHE.move_to_end(key)
            return hit[1]
    axes = _product_axes(points)
    with _LATTICE_LOCK:
        _LATTICE_CACHE[key] = (weakref.ref(points), axes)
        _LATTICE_CACHE.move_to_end(key)
        while len(_LATTICE_CACHE) > _LATTICE_CACHE_SIZE:
            _LATTICE_CACHE.popitem(last=False)
    return axes


def _split_distances(points: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``(T, P, N)`` distances ``sqrt(dx·dx + dy·dy)``, computed in place."""
    dx = points[None, :, None, 0] - positions[:, None, :, 0]
    dy = points[None, :, None, 1] - positions[:, None, :, 1]
    np.multiply(dx, dx, out=dx)
    np.multiply(dy, dy, out=dy)
    np.add(dx, dy, out=dx)
    return np.sqrt(dx, out=dx)


def _axis_window(axis: np.ndarray, coords: np.ndarray, reach: float):
    """Per-beacon window on one sorted axis: ``(T, N, W)`` indices and the
    differences ``axis[i] − coord`` there, for a common width ``W``.

    Rounding is monotone, so the points whose computed difference lies in
    ``[−reach, reach]`` are contiguous; windows are shifted inside the axis
    where the common width overhangs it.
    """
    coords = coords[:, :, None]
    diff = axis - coords  # (T, N, A)
    start = (diff < -reach).sum(axis=2)
    width = int(((diff <= reach).sum(axis=2) - start).max(initial=0))
    idx = np.minimum(start, axis.shape[0] - width)[:, :, None] + np.arange(width)
    return idx, axis[idx] - coords


def _window_distances(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``(T, N, Wx, Wy)`` distances from per-axis differences — the same
    operations on the same operands as :func:`_split_distances`."""
    dist = np.multiply(dx, dx)[:, :, :, None] + np.multiply(dy, dy)[:, :, None, :]
    return np.sqrt(dist, out=dist)


def _decide(params, seeds, ids, points, dist, pair_of):
    """The shared stage: ``dist`` (any layout) → connectivity, same layout.

    Noise = 0 compares against ``R``; otherwise pairs outside the band are
    decided by its bound and only in-band pairs are hashed.  ``pair_of``
    maps ``np.nonzero`` of ``dist``'s layout to ``(t, p, n)`` indices.
    """
    if params.noise == 0.0:
        return dist <= params.radio_range
    lo, hi = _undecided_band(params)
    conn = dist < lo
    band = np.nonzero((dist >= lo) & (dist <= hi))
    if band[0].size == 0:
        return conn
    t, p, n = pair_of(band)
    nf = params.noise * hash_uniform(seeds[:, None], ids, _NF_TAG)  # (T, N)
    if params.u_granularity == "beacon":
        u = hash_symmetric(seeds[:, None], ids, _U_TAG)[t, n]
    else:
        qx, qy = quantize_coords(points)
        u = hash_symmetric(seeds[t], ids[t, n], _U_TAG, qx[p], qy[p])
    ranges = jittered_range(params.radio_range, u, nf[t, n], params.cm_thresh)
    conn[band] = dist[band] <= ranges
    return conn


def _window_connectivity(params, seeds, ids, positions, points, axes, reach):
    """The window plan over a product lattice: ``(T, P, N)`` bool."""
    xs, ys = axes
    (t_count, n_count), p_count = positions.shape[:2], points.shape[0]
    ix, dx = _axis_window(xs, positions[:, :, 0], reach)
    iy, dy = _axis_window(ys, positions[:, :, 1], reach)
    dist = _window_distances(dx, dy).reshape(-1)  # flat (T, N, Wx, Wy)
    # Flat (T, P, N) offset of every window pair: (t·P + ix·Ny + iy)·N + n.
    tn = np.arange(t_count)[:, None] * (p_count * n_count) + np.arange(n_count)
    x_part = ix * (ys.shape[0] * n_count) + tn[:, :, None]
    flat = (x_part[:, :, :, None] + (iy * n_count)[:, :, None, :]).reshape(-1)

    def pair_of(window):
        offsets = flat[window]
        return offsets // (p_count * n_count), offsets // n_count % p_count, offsets % n_count

    connected = _decide(params, seeds, ids, points, dist, pair_of)
    conn = np.zeros((t_count, p_count, n_count), dtype=bool)
    conn.reshape(-1)[flat[connected]] = True
    return conn


def _connectivity(params, seeds, ids, positions, points) -> np.ndarray:
    """The kernel behind every entry point: ``(T, P, N)`` bool, N ≥ 1."""
    if _mode == "scalar":
        dist = _split_distances(points, positions)
        return dist <= batched_effective_ranges(params, seeds, ids, points)
    reach = _reach(params)
    if reach is not None and np.isfinite(positions).all():
        axes = _lattice_axes(points)
        if axes is not None:
            return _window_connectivity(params, seeds, ids, positions, points, axes, reach)
    dist = _split_distances(points, positions)
    return _decide(params, seeds, ids, points, dist, lambda band: band)


def _realization_connectivity(realization, ids, positions, points) -> np.ndarray | None:
    """One world's ``(P, N)`` matrix, or ``None`` for model families the
    kernel does not cover (the caller then compares against their
    ``effective_ranges``).  ``N`` must be at least 1."""
    params = batch_params_from_realization(realization)
    if params is None:
        return None
    seeds = np.array([realization.seed], dtype=np.uint64)
    return _connectivity(params, seeds, ids[None, :], positions[None, :, :], points)[0]


def batched_connectivity(
    params: BatchNoiseParams,
    seeds: np.ndarray,
    ids: np.ndarray,
    positions: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Boolean connectivity for ``T`` realizations at once, ``(T, P, N)``.

    Args:
        params: shared model parameters (see :class:`BatchNoiseParams`).
        seeds: ``(T,)`` realization seeds.
        ids: ``(T, N)`` beacon ids.
        positions: ``(T, N, 2)`` beacon coordinates.
        points: ``(P, 2)`` query locations shared across trials.

    Returns:
        C-contiguous ``(T, P, N)`` bool; slice ``[t]`` is bit-identical to
        the scalar ``realization.connectivity(points, field_t)``.
    """
    pts = np.asarray(points, dtype=float)
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 3 or pos.shape[2] != 2:
        raise ValueError(f"expected (T, N, 2) positions, got {pos.shape}")
    if pos.shape[1] == 0:
        return np.zeros((pos.shape[0], pts.shape[0], 0), dtype=bool)
    seeds = np.asarray(seeds, dtype=np.uint64)
    ids = np.asarray(ids, dtype=np.uint64)
    return _connectivity(params, seeds, ids, pos, pts)
