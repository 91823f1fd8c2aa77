"""Property tests for the batched LE kernels and zero-copy shared state.

Bit-identity with the scalar per-cell ``TrialWorld`` path is the design
invariant of :mod:`repro.sim.kernels` — these tests enforce it down to the
byte across localizer policies, noise levels, empty fields, fault-degraded
worlds and all-NaN cells, plus the numerical facts the kernels rely on
(stacked mat-muls and row-wise nan-reductions matching their per-slice
forms).  The pruned connectivity kernel (:mod:`repro.radio.kernels`) is
compared with the unpruned oracle on band-edge points, every noise reading
and stacks, and its hash calls are counted.  Its window plan on product
lattices meets the same oracle on beacons at R, the band edges and the
reach (± 1 ulp), plan selection is watched through the distance helpers,
and the lattice cache is pinned bounded, never stale and thread-safe.  The
shared-memory world state (:mod:`repro.sim.executors.shm`) is covered for
bit-identical cache pre-seeding and segment lifecycle.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import CentroidLocalizer, ExperimentConfig, UnlocalizedPolicy
from repro.faults import CrashFault
from repro.field import Beacon, BeaconField
from repro.geometry import MeasurementGrid, Point, pairwise_distances
from repro.obs import MetricsRegistry, disable_metrics, enable_metrics
from repro.placement import MaxPlacement, RandomPlacement
from repro.radio import BeaconNoiseRealization, beacon_rows
from repro.radio import kernels as radio_kernels
from repro.radio.beacon_noise import jittered_range
from repro.sim import (
    PoolExecutor,
    batch_surface_stats,
    build_world,
    kernel_mode,
    paper_config,
    resilient_mean_error_curve,
    resilient_placement_improvement_curves,
    set_kernel_mode,
    warm_worlds,
)
from repro.sim.executors import clear_world_cache
from repro.sim.executors import shm as shm_mod
from repro.sim.executors.base import (
    _BATCH_PLANNERS,
    batch_thunks,
    plan_chunk,
    register_batch_planner,
    run_one_cell,
)
from repro.sim.executors.cache import _MAX_ENTRIES, _grids, cached_grid
from repro.sim.kernels import candidate_columns

SIDE = 30.0
RANGE = 10.0
STEP = 5.0


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        side=SIDE,
        radio_range=RANGE,
        step=STEP,
        num_grids=16,
        beacon_counts=(4, 8),
        noise_levels=(0.0, 0.3),
        fields_per_density=2,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_bits_equal(a, b):
    """Equality down to the byte — NaNs compare equal, -0.0 != 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def build_world_pair(config, noise, count, index, **kwargs):
    """Two independent TrialWorlds for the same cell (caches empty on both)."""
    return (
        build_world(config, noise, count, index, **kwargs),
        build_world(config, noise, count, index, **kwargs),
    )


@pytest.fixture
def metrics():
    """A live registry so kernel/shm counters are observable."""
    registry = MetricsRegistry()
    enable_metrics(registry)
    yield registry
    disable_metrics()


@pytest.fixture(autouse=True)
def _batch_mode():
    """Every test starts (and leaves the process) in the default mode."""
    set_kernel_mode("batch")
    yield
    set_kernel_mode("batch")


# -- Numerical identities the kernels are built on ---------------------------


class TestStackedReductionIdentity:
    def test_stacked_matmul_matches_per_slice(self, rng):
        conn = rng.random((5, 31, 7)) < 0.4
        positions = rng.uniform(0, 100, (5, 7, 2))
        stacked = conn.astype(float) @ positions
        for t in range(5):
            assert_bits_equal(stacked[t], conn[t].astype(float) @ positions[t])

    def test_row_nan_reductions_match_per_row(self, rng):
        stacked = rng.uniform(0, 50, (6, 49))
        stacked[stacked < 5.0] = np.nan
        means = np.nanmean(stacked, axis=1)
        medians = np.nanmedian(stacked, axis=1)
        for t in range(6):
            assert_bits_equal(means[t], np.nanmean(stacked[t]))
            assert_bits_equal(medians[t], np.nanmedian(stacked[t]))


class TestSplitFormDistances:
    def test_split_form_matches_einsum_on_paper_fields(self):
        """``pairwise_distances`` and the kernel's stacked distances use
        ``sqrt(dx·dx + dy·dy)``; pinned bit-identical to the einsum form
        they replaced over 50 paper-shape fields."""
        config = paper_config()
        counts = config.beacon_counts
        points = build_world(config, 0.0, counts[0], 0).points()
        for index in range(50):
            count = counts[index % len(counts)]
            positions = build_world(config, 0.0, count, index).field.positions()
            diff = points[:, None, :] - positions[None, :, :]
            einsum = np.sqrt(np.einsum("pnk,pnk->pn", diff, diff))
            split = pairwise_distances(points, positions)
            assert_bits_equal(split, einsum)
            stacked = radio_kernels._split_distances(points, positions[None])
            assert_bits_equal(stacked[0], split)


# -- The pruned connectivity kernel vs the unpruned oracle --------------------


def _oracle(realization, points, beacons):
    """The legacy per-world formula: every pair hashed and compared."""
    _, positions = beacon_rows(beacons)
    ranges = realization.effective_ranges(points, beacons)
    return pairwise_distances(points, positions) <= ranges


def _scalar_mode(call):
    set_kernel_mode("scalar")
    try:
        return call()
    finally:
        set_kernel_mode("batch")


def _edge_points(noise, cm_thresh):
    """Points at distances exactly ``lo`` and ``hi`` from a beacon at the
    origin (the band with and without its float margin), exactly R, one ulp
    either side of each, plus a scatter of off-lattice points."""
    c = 0.5 if cm_thresh is None else cm_thresh
    radii = [
        RANGE * (1.0 - 2.0 * c * noise),
        RANGE * (1.0 + (2.0 - 2.0 * c) * noise),
        RANGE,
    ]
    params = radio_kernels.BatchNoiseParams(RANGE, noise, cm_thresh, "pair")
    radii += [r for r in radio_kernels._undecided_band(params) if np.isfinite(r)]
    radii += [np.nextafter(r, d) for r in radii for d in (-np.inf, np.inf)]
    radii = [r for r in radii if r > 0]
    on_axes = [(r, 0.0) for r in radii] + [(0.0, r) for r in radii]
    scatter = np.random.default_rng(11).uniform(-20.0, 50.0, (2000, 2))
    return np.vstack([np.array(on_axes), scatter])


class TestPrunedKernel:
    @pytest.mark.parametrize("granularity", ["pair", "beacon"])
    @pytest.mark.parametrize("cm_thresh", [None, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("noise", [0.0, -0.0, 0.1, 0.9])
    def test_matches_unpruned_oracle(self, noise, cm_thresh, granularity):
        seeds = [3, 17, 2024]
        fields = [
            BeaconField.from_positions([(0.0, 0.0), (12.5, 7.25), (30.0, 0.0)]),
            BeaconField.from_positions([(0.0, 0.0), (1.0, 1.0), (33.3, 21.7)]),
            BeaconField.from_positions([(19.0, 0.0), (0.0, 0.0), (8.0, 8.0)]),
        ]
        points = _edge_points(noise, cm_thresh)
        stacked_pos, stacked_ids, stacked_seeds, per_world = [], [], [], []
        for seed, field in zip(seeds, fields):
            realization = BeaconNoiseRealization(
                RANGE, noise, seed, granularity, cm_thresh
            )
            expected = _oracle(realization, points, field)
            assert_bits_equal(realization.connectivity(points, field), expected)
            assert_bits_equal(
                _scalar_mode(lambda: realization.connectivity(points, field)), expected
            )
            stacked_pos.append(field.positions())
            stacked_ids.append(np.asarray(field.beacon_ids, dtype=np.uint64))
            stacked_seeds.append(realization.seed)
            per_world.append(expected)
        params = radio_kernels.BatchNoiseParams(RANGE, noise, cm_thresh, granularity)
        args = (
            params,
            np.array(stacked_seeds, dtype=np.uint64),
            np.stack(stacked_ids),
            np.stack(stacked_pos),
            points,
        )
        stacked = radio_kernels.batched_connectivity(*args)
        assert stacked.flags.c_contiguous
        assert_bits_equal(stacked, np.stack(per_world))
        unpruned = _scalar_mode(lambda: radio_kernels.batched_connectivity(*args))
        assert_bits_equal(unpruned, stacked)

    @pytest.mark.parametrize("cm_thresh", [None, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("noise", [0.1, 0.9])
    def test_band_holds_every_reachable_range(self, noise, cm_thresh):
        """The range is bilinear in ``u ∈ [−1, 1]`` and ``nf ∈ [0, Noise]``,
        so its corners are its extremes: they must sit inside the widened
        band, and within the margin of its edges (the band is tight)."""
        params = radio_kernels.BatchNoiseParams(RANGE, noise, cm_thresh, "pair")
        lo, hi = radio_kernels._undecided_band(params)
        u = np.array([-1.0, 1.0])[:, None]
        nf = np.array([0.0, noise])[None, :]
        corners = jittered_range(RANGE, u, nf, cm_thresh)
        margin = 2.0 * radio_kernels._BAND_MARGIN * RANGE
        assert lo < corners.min() <= lo + margin
        assert hi - margin <= corners.max() < hi

    @pytest.mark.parametrize("cm_thresh", [None, 0.9])
    def test_point_exactly_at_the_effective_range(self, cm_thresh):
        """Per-beacon u gives one range for every point, so a point can sit
        exactly on it: connected, as the oracle's ``<=`` says."""
        field = BeaconField.from_positions([(0.0, 0.0)])
        realization = BeaconNoiseRealization(RANGE, 0.5, 8, "beacon", cm_thresh)
        r = realization.effective_ranges(np.zeros((1, 2)), field)[0, 0]
        points = np.array([[r, 0.0], [0.0, r], [np.nextafter(r, np.inf), 0.0]])
        conn = realization.connectivity(points, field)
        assert conn[:, 0].tolist() == [True, True, False]
        assert_bits_equal(conn, _oracle(realization, points, field))

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_empty_fields(self, noise):
        realization = BeaconNoiseRealization(RANGE, noise, 5)
        points = np.array([[0.5, 0.25], [10.0, 3.0]])
        conn = realization.connectivity(points, BeaconField.from_positions([]))
        assert conn.shape == (2, 0) and conn.dtype == bool
        params = radio_kernels.batch_params_from_realization(realization)
        stacked = radio_kernels.batched_connectivity(
            params,
            np.array([5, 6], dtype=np.uint64),
            np.zeros((2, 0), dtype=np.uint64),
            np.zeros((2, 0, 2)),
            points,
        )
        assert stacked.shape == (2, 2, 0)

    def test_sweep_worlds_and_candidate_columns_match_oracle(self):
        config = tiny_config()
        for noise in config.noise_levels:
            for count in config.beacon_counts:
                world = build_world(config, noise, count, 1)
                points = world.points()
                expected = _oracle(world.realization, points, world.field)
                assert_bits_equal(world.connectivity(), expected)
                probes = points[::3] + 0.37
                columns = candidate_columns(world.realization, points, 99, probes)
                beacons = [Beacon(99, Point(x, y)) for x, y in probes]
                assert_bits_equal(columns, _oracle(world.realization, points, beacons))


class _HashCounter:
    """Counts the elements each hash function of the kernel module returns."""

    def __init__(self, monkeypatch):
        self.counts = {"hash_symmetric": 0, "hash_uniform": 0}
        for name in self.counts:
            original = getattr(radio_kernels, name)
            monkeypatch.setattr(radio_kernels, name, self._wrap(name, original))

    def _wrap(self, name, original):
        def counted(*keys):
            out = original(*keys)
            self.counts[name] += int(np.size(out))
            return out

        return counted


class TestPrunedKernelHashCounts:
    def test_no_hashing_at_noise_zero(self, monkeypatch):
        counter = _HashCounter(monkeypatch)
        world = build_world(tiny_config(), 0.0, 8, 0)
        world.connectivity()
        warm_worlds([build_world(tiny_config(), 0.0, 8, 1)])
        candidate_columns(world.realization, world.points(), 50, world.points()[::2])
        assert counter.counts == {"hash_symmetric": 0, "hash_uniform": 0}

    @pytest.mark.parametrize("cm_thresh", [None, 0.9])
    def test_hashed_pairs_equal_in_band_pairs(self, monkeypatch, cm_thresh):
        counter = _HashCounter(monkeypatch)
        config = tiny_config()
        field = build_world(config, 0.3, 8, 0).field
        realization = BeaconNoiseRealization(RANGE, 0.3, 41, "pair", cm_thresh)
        points = build_world(config, 0.3, 8, 0).points()
        conn = realization.connectivity(points, field)
        lo, hi = radio_kernels._undecided_band(
            radio_kernels.batch_params_from_realization(realization)
        )
        dist = pairwise_distances(points, field.positions())
        in_band = int(np.count_nonzero((dist >= lo) & (dist <= hi)))
        assert 0 < in_band < dist.size
        assert counter.counts["hash_symmetric"] == in_band
        assert counter.counts["hash_uniform"] == len(field)
        assert_bits_equal(conn, _oracle(realization, points, field))

    def test_scalar_mode_hashes_every_pair(self, monkeypatch):
        counter = _HashCounter(monkeypatch)
        world = build_world(tiny_config(), 0.0, 8, 0)
        _scalar_mode(world.connectivity)
        assert counter.counts["hash_symmetric"] == world.points().shape[0] * 8


class TestBatchNoiseParamsDomain:
    @pytest.mark.parametrize("cm_thresh", [1.5, -0.5, 0.49, float("nan")])
    def test_out_of_domain_cm_thresh_rejected(self, cm_thresh):
        """The band (and the window reach) hold only for ``c ∈ [0.5, 1]``;
        the realization refuses anything else, and so do batch params."""
        with pytest.raises(ValueError, match=r"cm_thresh must be in \[0.5, 1\]"):
            radio_kernels.BatchNoiseParams(RANGE, 0.3, cm_thresh, "pair")
        with pytest.raises(ValueError, match=r"cm_thresh must be in \[0.5, 1\]"):
            BeaconNoiseRealization(RANGE, 0.3, 1, "pair", cm_thresh)


# -- The window plan on product lattices ---------------------------------------


def _lattice(xs, ys, writeable=False):
    """The x-major product of two axes, as ``MeasurementGrid.points()``."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    points = np.column_stack([np.repeat(xs, ys.size), np.tile(ys, xs.size)])
    points.setflags(write=writeable)
    return points


#: (xs, ys): a square lattice whose step divides R, a non-square one whose
#: step (3) does not, and an irregular sorted one straddling the origin.
LATTICES = {
    "square": (np.arange(7) * 5.0, np.arange(7) * 5.0),
    "non-square": (np.arange(11) * 3.0, np.arange(7) * 3.0),
    "irregular": (
        np.array([-4.5, -1.0, 0.0, 0.1, 2.0, 7.75, 12.0, 20.0]),
        np.array([0.0, 1e-3, 5.0, 6.0, 13.5]),
    ),
}


def _with_ulps(v):
    """``v`` and its two float neighbours."""
    return [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]


def _probe_beacons(xs, ys, params):
    """Beacons at float distance exactly R (and the band edges and the
    window reach) from a lattice point along an axis and on a (6, 8)
    diagonal, one ulp either side of each; ±1e-17 and ±1 ulp off lattice
    coordinates; in the terrain's corners; and outside it."""
    x0, y0 = xs[len(xs) // 2], ys[len(ys) // 2]
    lo, hi = radio_kernels._undecided_band(params)
    radii = [RANGE, radio_kernels._reach(params)]
    radii += [r for r in (lo, hi) if np.isfinite(r) and r > 0]
    beacons = []
    for r in radii:
        for edge in (x0 + r, x0 - r):
            beacons += [(bx, y0) for bx in _with_ulps(edge)]
        for edge in (y0 + r, y0 - r):
            beacons += [(x0, by) for by in _with_ulps(edge)]
    beacons += [(bx, by) for bx in _with_ulps(x0 + 6.0) for by in _with_ulps(y0 - 8.0)]
    for x in (xs[0], xs[1], x0, xs[-1]):
        beacons += [(x + 1e-17, y0), (x - 1e-17, y0)]
        beacons += [(bx, ys[0]) for bx in _with_ulps(x)[1:]]
    beacons += [(xs[0], ys[0]), (xs[-1], ys[-1]), (xs[0], ys[-1]), (xs[-1], ys[0])]
    beacons += [
        (xs[0] - RANGE - 0.5, y0),
        (xs[-1] + 3.0, ys[-1] + 4.0),
        (xs[0] - 50.0, ys[0] - 50.0),
        (xs[-1] + RANGE, ys[-1] + RANGE),
    ]
    return np.array(beacons)


class _PlanSpy:
    """Records the element count of every window / dense distance pass."""

    def __init__(self, monkeypatch):
        self.window: list[int] = []
        self.dense: list[int] = []
        for name, log in (("_window_distances", self.window), ("_split_distances", self.dense)):
            monkeypatch.setattr(
                radio_kernels, name, self._wrap(getattr(radio_kernels, name), log)
            )

    @staticmethod
    def _wrap(original, log):
        def spied(*args):
            out = original(*args)
            log.append(int(out.size))
            return out

        return spied

    def reset(self):
        self.window.clear()
        self.dense.clear()


def _in_band_pairs(params, points, positions):
    lo, hi = radio_kernels._undecided_band(params)
    total = 0
    for pos in positions:
        dist = pairwise_distances(points, pos)
        total += int(np.count_nonzero((dist >= lo) & (dist <= hi)))
    return total


class TestWindowPlan:
    @pytest.mark.parametrize("granularity", ["pair", "beacon"])
    @pytest.mark.parametrize("cm_thresh", [None, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("noise", [0.0, -0.0, 0.1, 0.9])
    @pytest.mark.parametrize("lattice", sorted(LATTICES))
    def test_matches_scalar_oracle(
        self, monkeypatch, lattice, noise, cm_thresh, granularity
    ):
        xs, ys = LATTICES[lattice]
        points = _lattice(xs, ys)
        params = radio_kernels.BatchNoiseParams(RANGE, noise, cm_thresh, granularity)
        beacons = _probe_beacons(xs, ys, params)
        order = np.random.default_rng(len(beacons)).permutation(len(beacons))
        positions = np.stack([beacons, beacons[order], beacons[::-1]])  # T = 3
        seeds = np.array([3, 17, 2024], dtype=np.uint64)
        ids = np.tile(np.arange(len(beacons), dtype=np.uint64), (3, 1))
        args = (params, seeds, ids, positions, points)
        expected = _scalar_mode(lambda: radio_kernels.batched_connectivity(*args))

        spy = _PlanSpy(monkeypatch)
        counter = _HashCounter(monkeypatch)
        stacked = radio_kernels.batched_connectivity(*args)
        assert spy.dense == [] and len(spy.window) == 1
        assert stacked.flags.c_contiguous
        assert_bits_equal(stacked, expected)
        if noise != 0.0 and granularity == "pair":
            assert counter.counts["hash_symmetric"] == _in_band_pairs(
                params, points, positions
            )

        for t in (0, 2):  # T = 1: one world through the per-world entry point
            realization = BeaconNoiseRealization(
                RANGE, noise, int(seeds[t]), granularity, cm_thresh
            )
            field = BeaconField.from_positions(positions[t])
            conn = realization.connectivity(points, field)
            assert_bits_equal(conn, expected[t])
            assert_bits_equal(conn, _oracle(realization, points, field))
        # N = 1: one candidate column in the last world.
        probe = positions[2][:1]
        column = candidate_columns(realization, points, 99, probe)
        assert column.shape == (points.shape[0], 1)
        assert_bits_equal(column, _oracle(realization, points, [Beacon(99, Point(*probe[0]))]))
        assert spy.dense == []

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_empty_stacks_and_fields_on_a_lattice(self, monkeypatch, noise):
        points = _lattice(*LATTICES["non-square"])
        params = radio_kernels.BatchNoiseParams(RANGE, noise, None, "pair")
        spy = _PlanSpy(monkeypatch)
        no_trials = radio_kernels.batched_connectivity(
            params,
            np.zeros(0, dtype=np.uint64),
            np.zeros((0, 3), dtype=np.uint64),
            np.zeros((0, 3, 2)),
            points,
        )
        assert no_trials.shape == (0, points.shape[0], 3)
        assert spy.window == [0] and spy.dense == []
        no_beacons = radio_kernels.batched_connectivity(
            params,
            np.array([5, 6], dtype=np.uint64),
            np.zeros((2, 0), dtype=np.uint64),
            np.zeros((2, 0, 2)),
            points,
        )
        assert no_beacons.shape == (2, points.shape[0], 0)

    def test_all_beacons_out_of_reach(self, monkeypatch):
        points = _lattice(*LATTICES["square"])
        params = radio_kernels.BatchNoiseParams(RANGE, 0.3, None, "pair")
        positions = np.array([[[-100.0, -100.0], [500.0, 15.0]]])
        spy = _PlanSpy(monkeypatch)
        conn = radio_kernels.batched_connectivity(
            params, np.array([1], dtype=np.uint64),
            np.array([[0, 1]], dtype=np.uint64), positions, points,
        )
        assert spy.window == [0] and spy.dense == []
        assert not conn.any() and conn.shape == (1, points.shape[0], 2)


class TestPlanSelection:
    def test_lattice_computes_only_window_distances(self, monkeypatch):
        """The per-axis window holds at most ``floor(2·reach/step) + 1``
        points, so a world costs at most ``N·Wx·Wy`` distances."""
        grid = MeasurementGrid(60.0, 1.0)
        points = grid.points()
        rng = np.random.default_rng(4)
        positions = rng.uniform(-5.0, 65.0, (2, 12, 2))
        ids = np.tile(np.arange(12, dtype=np.uint64), (2, 1))
        seeds = np.array([1, 2], dtype=np.uint64)
        for noise in (0.0, 0.3):
            params = radio_kernels.BatchNoiseParams(RANGE, noise, 0.9, "pair")
            width = int(np.floor(2.0 * radio_kernels._reach(params) / grid.step)) + 1
            spy = _PlanSpy(monkeypatch)
            conn = radio_kernels.batched_connectivity(params, seeds, ids, positions, points)
            assert spy.dense == []
            assert spy.window[0] <= 2 * 12 * width * width < 2 * 12 * points.shape[0]
            expected = _scalar_mode(
                lambda: radio_kernels.batched_connectivity(
                    params, seeds, ids, positions, points
                )
            )
            assert_bits_equal(conn, expected)

    def test_paper_path_callers_take_the_window_plan(self, monkeypatch):
        from repro.sim.incremental import FieldState

        config = tiny_config()
        spy = _PlanSpy(monkeypatch)
        for noise in config.noise_levels:
            world = build_world(config, noise, 8, 0)
            world.connectivity()
            candidate_columns(world.realization, world.points(), 50, world.points()[::2])
            warm_worlds([build_world(config, noise, 8, 1)])
            FieldState.build(
                world.field, world.realization, world.grid, localizer=world.localizer
            )
        assert spy.dense == [] and len(spy.window) == 4 * len(config.noise_levels)

    @staticmethod
    def _dense_case(monkeypatch, points, noise=0.3):
        realization = BeaconNoiseRealization(RANGE, noise, 77, "pair", 0.9)
        params = radio_kernels.batch_params_from_realization(realization)
        field = BeaconField.from_positions(_probe_beacons(*LATTICES["square"], params))
        spy = _PlanSpy(monkeypatch)
        conn = realization.connectivity(points, field)
        assert spy.window == [] and len(spy.dense) == 1
        assert_bits_equal(conn, _oracle(realization, points, field))

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_off_lattice_points_take_the_dense_plan(self, monkeypatch, noise):
        points = _lattice(*LATTICES["square"]) + np.array([0.0, 0.37])
        points[::5, 1] += 0.01
        self._dense_case(monkeypatch, points, noise)

    def test_row_permuted_lattice_takes_the_dense_plan(self, monkeypatch):
        lattice = _lattice(*LATTICES["square"])
        order = np.random.default_rng(2).permutation(lattice.shape[0])
        self._dense_case(monkeypatch, lattice[order])
        self._dense_case(monkeypatch, lattice[:, ::-1].copy())  # y-major

    def test_partial_survey_takes_the_dense_plan(self, monkeypatch):
        lattice = _lattice(*LATTICES["square"])
        self._dense_case(monkeypatch, lattice[::3])
        self._dense_case(monkeypatch, lattice[lattice[:, 0] + lattice[:, 1] <= 30.0])

    def test_non_finite_inputs_take_the_dense_plan(self, monkeypatch):
        points = _lattice(*LATTICES["square"])
        params = radio_kernels.BatchNoiseParams(RANGE, 0.3, None, "pair")
        positions = np.array([[[5.0, 5.0], [np.nan, 3.0], [np.inf, 1.0]]])
        args = (params, np.array([9], dtype=np.uint64),
                np.array([[0, 1, 2]], dtype=np.uint64), positions, points)
        spy = _PlanSpy(monkeypatch)
        conn = radio_kernels.batched_connectivity(*args)
        assert spy.window == [] and len(spy.dense) == 1
        assert_bits_equal(conn, _scalar_mode(lambda: radio_kernels.batched_connectivity(*args)))

    def test_mutated_writeable_copy_is_rechecked(self, monkeypatch):
        points = MeasurementGrid(30.0, 5.0).points().copy()
        assert points.flags.writeable
        realization = BeaconNoiseRealization(RANGE, 0.3, 12)
        field = BeaconField.from_positions([(7.0, 8.0), (20.0, 25.5), (31.0, -2.0)])
        spy = _PlanSpy(monkeypatch)
        assert_bits_equal(
            realization.connectivity(points, field), _oracle(realization, points, field)
        )
        assert len(spy.window) == 1 and spy.dense == []
        points[4] += (0.25, -0.5)
        spy.reset()
        assert_bits_equal(
            realization.connectivity(points, field), _oracle(realization, points, field)
        )
        assert spy.window == [] and len(spy.dense) == 1

    def test_lattice_cache_is_bounded_and_never_stale(self, monkeypatch):
        monkeypatch.setattr(radio_kernels, "_LATTICE_CACHE", type(radio_kernels._LATTICE_CACHE)())
        cache = radio_kernels._LATTICE_CACHE
        lattices = [_lattice(np.arange(4) * (i + 1.0), np.arange(3.0)) for i in range(20)]
        for points in lattices:
            xs, _ = radio_kernels._lattice_axes(points)
            assert_bits_equal(xs, points[::3, 0])
            assert len(cache) <= radio_kernels._LATTICE_CACHE_SIZE
        # An entry whose array died (its id free for reuse) is a miss.
        points = _lattice(np.arange(5.0), np.arange(2.0))

        class Dead:
            pass

        dead = weakref.ref(Dead())
        cache[id(points)] = (dead, (np.zeros(1), np.zeros(1)))
        xs, ys = radio_kernels._lattice_axes(points)
        assert_bits_equal(xs, np.arange(5.0))
        assert_bits_equal(ys, np.arange(2.0))
        assert cache[id(points)][0]() is points
        # Writeable arrays, and read-only views of them, are never cached.
        size = len(cache)
        base = _lattice(np.arange(3.0), np.arange(3.0), writeable=True)
        view = base[:]
        view.setflags(write=False)
        for points in (base, view):
            assert radio_kernels._lattice_axes(points) is not None
        assert len(cache) == size
        base[0, 0] = 99.0
        assert radio_kernels._lattice_axes(view) is None

    def test_lattice_cache_under_thread_contention(self, monkeypatch):
        """More threads than cores, a short switch interval and more arrays
        than cache slots: every lookup still returns its own array's axes."""
        monkeypatch.setattr(radio_kernels, "_LATTICE_CACHE", type(radio_kernels._LATTICE_CACHE)())
        lattices = [_lattice(np.arange(3.0) + i, np.arange(2.0)) for i in range(24)]
        errors = []

        def hammer(offset):
            try:
                for k in range(3000):
                    i = (offset + k) % len(lattices)
                    xs, _ = radio_kernels._lattice_axes(lattices[i])
                    if xs[0] != i:
                        errors.append((i, xs[0]))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(7 * n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(radio_kernels._LATTICE_CACHE) <= radio_kernels._LATTICE_CACHE_SIZE


# -- warm_worlds bit-identity -------------------------------------------------


class TestWarmWorldsBitIdentity:
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("policy", list(UnlocalizedPolicy))
    def test_matches_scalar_across_policies(self, policy, noise):
        config = tiny_config()
        localizer = CentroidLocalizer(config.side, policy)
        pairs = [
            build_world_pair(config, noise, count, index, localizer=localizer)
            for count in config.beacon_counts
            for index in range(config.fields_per_density)
        ]
        warmed = warm_worlds([w for w, _ in pairs])
        assert warmed == len(pairs)
        for batched, scalar in pairs:
            assert np.array_equal(batched.connectivity(), scalar.connectivity())
            assert_bits_equal(batched.errors(), scalar.errors())
            assert_bits_equal(
                batched._centroid_state().coord_sums,
                scalar._centroid_state().coord_sums,
            )
            surface_b, surface_s = batched.error_surface(), scalar.error_surface()
            assert_bits_equal(surface_b.mean_error(), surface_s.mean_error())
            assert_bits_equal(surface_b.median_error(), surface_s.median_error())

    def test_empty_field(self):
        config = tiny_config(beacon_counts=(0,), fields_per_density=1)
        batched, scalar = build_world_pair(config, 0.0, 0, 0)
        assert warm_worlds([batched]) == 1
        assert batched.connectivity().shape == (batched.points().shape[0], 0)
        assert_bits_equal(batched.errors(), scalar.errors())

    def test_all_beacons_down_nan_cells(self):
        """A fully crashed field under EXCLUDE degrades every cell to NaN —
        identically on both paths, including the all-NaN surface guard."""
        config = tiny_config()
        localizer = CentroidLocalizer(config.side, UnlocalizedPolicy.EXCLUDE)
        faults = CrashFault(mean_lifetime=1.0)
        batched, scalar = build_world_pair(
            config, 0.3, 8, 0,
            localizer=localizer, faults=faults, fault_time=1e9,
        )
        assert len(batched.field) == 0
        assert warm_worlds([batched]) == 1
        assert np.isnan(batched.errors()).all()
        assert_bits_equal(batched.errors(), scalar.errors())
        means, medians = batch_surface_stats([batched])
        assert np.isnan(means[0]) and np.isnan(medians[0])
        assert_bits_equal(means[0], np.float64(scalar.error_surface().mean_error()))

    def test_fault_masked_connectivity(self):
        """Partial crash survivors: the degraded field runs bit-identically."""
        config = tiny_config()
        faults = CrashFault(mean_lifetime=1.0)
        pairs = [
            build_world_pair(
                config, 0.3, 8, index, faults=faults, fault_time=0.7
            )
            for index in range(config.fields_per_density)
        ]
        survivors = {len(w.field) for w, _ in pairs}
        assert survivors != {8}  # the fault actually degraded something
        warm_worlds([w for w, _ in pairs])
        for batched, scalar in pairs:
            assert np.array_equal(batched.connectivity(), scalar.connectivity())
            assert_bits_equal(batched.errors(), scalar.errors())

    def test_batch_surface_stats_matches_scalar(self):
        config = tiny_config()
        pairs = [
            build_world_pair(config, noise, count, index)
            for noise in (0.0, 0.3)
            for count in config.beacon_counts
            for index in range(config.fields_per_density)
        ]
        batched_worlds = [w for w, _ in pairs]
        warm_worlds(batched_worlds)
        means, medians = batch_surface_stats(batched_worlds)
        for i, (_, scalar) in enumerate(pairs):
            surface = scalar.error_surface()
            assert_bits_equal(means[i], np.float64(surface.mean_error()))
            assert_bits_equal(medians[i], np.float64(surface.median_error()))

    def test_medians_skippable(self):
        config = tiny_config()
        world = build_world(config, 0.0, 4, 0)
        warm_worlds([world])
        _, medians = batch_surface_stats([world], medians=False)
        assert np.isnan(medians).all()


# -- Eligibility: what stays scalar ------------------------------------------


class _NotQuiteCentroid(CentroidLocalizer):
    """Subclasses must not be batched — only the exact paper localizer is."""


class TestEligibility:
    def test_evaluated_world_left_alone(self, metrics):
        world = build_world(tiny_config(), 0.0, 4, 0)
        errors = world.errors()
        assert warm_worlds([world]) == 0
        assert world.errors() is errors
        assert metrics.counter("kernel.scalar.worlds").value == 1

    def test_non_centroid_localizer_stays_cold(self):
        config = tiny_config()
        world = build_world(
            config, 0.0, 4, 0, localizer=_NotQuiteCentroid(config.side)
        )
        assert warm_worlds([world]) == 0
        assert world._conn is None and world._errors is None

    def test_kernel_mode_validation(self):
        with pytest.raises(ValueError, match="kernel mode"):
            set_kernel_mode("turbo")
        assert kernel_mode() == "batch"


# -- The batch-planner contract ----------------------------------------------


def _square(args):
    return args * args


def _square_planner(args_list):
    return [lambda a=args: a * a for args in args_list]


def _short_planner(args_list):
    return [None]


def _raising_planner(args_list):
    raise RuntimeError("planner boom")


@pytest.fixture
def _planner_registry():
    yield
    _BATCH_PLANNERS.pop(_square, None)


@pytest.mark.usefixtures("_planner_registry")
class TestBatchPlannerContract:
    def test_thunks_match_scalar(self, metrics):
        register_batch_planner(_square, _square_planner)
        thunks = batch_thunks(_square, [2, 3, 4])
        assert [t() for t in thunks] == [_square(a) for a in (2, 3, 4)]
        assert metrics.counter("kernel.batch.chunks").value == 1

    def test_no_planner_returns_none(self):
        assert batch_thunks(_square, [2, 3]) is None

    def test_single_cell_chunks_stay_scalar(self):
        register_batch_planner(_square, _square_planner)
        assert batch_thunks(_square, [2]) is None

    def test_scalar_mode_disables_planning(self):
        register_batch_planner(_square, _square_planner)
        set_kernel_mode("scalar")
        assert batch_thunks(_square, [2, 3]) is None

    def test_planner_exception_degrades_to_scalar(self, metrics):
        register_batch_planner(_square, _raising_planner)
        assert batch_thunks(_square, [2, 3]) is None
        assert metrics.counter("kernel.batch.plan_errors").value == 1

    def test_wrong_length_plan_degrades_to_scalar(self, metrics):
        register_batch_planner(_square, _short_planner)
        assert batch_thunks(_square, [2, 3]) is None
        assert metrics.counter("kernel.batch.plan_errors").value == 1

    def test_thunk_failure_falls_back_to_fn(self, metrics):
        def bad_thunk():
            raise RuntimeError("thunk boom")

        outcome = run_one_cell(_square, 6, thunk=bad_thunk)
        assert outcome["ok"] and outcome["value"] == 36
        assert metrics.counter("kernel.batch.thunk_fallbacks").value == 1

    def test_plan_chunk_ships_instrumented_metrics(self):
        register_batch_planner(_square, _square_planner)
        thunks, snapshot = plan_chunk(_square, [2, 3], True)
        assert [t() for t in thunks] == [4, 9]
        assert snapshot["counters"]["kernel.batch.chunks"] == 1


# -- Whole-sweep identity: batch vs scalar, serial vs pool -------------------


class TestSweepBatchIdentity:
    def test_serial_mean_error_curve_bit_identical(self):
        config = tiny_config()
        batched = resilient_mean_error_curve(config, 0.3)
        set_kernel_mode("scalar")
        scalar = resilient_mean_error_curve(config, 0.3)
        assert_bits_equal(batched.values, scalar.values)
        assert_bits_equal(batched.ci_half_widths, scalar.ci_half_widths)

    def test_serial_improvement_curves_bit_identical(self):
        config = tiny_config(beacon_counts=(8,))
        algorithms = [RandomPlacement(), MaxPlacement()]
        batched_mean, batched_median = resilient_placement_improvement_curves(
            config, 0.0, algorithms
        )
        set_kernel_mode("scalar")
        scalar_mean, scalar_median = resilient_placement_improvement_curves(
            config, 0.0, algorithms
        )
        for b_set, s_set in ((batched_mean, scalar_mean), (batched_median, scalar_median)):
            for b, s in zip(b_set.curves, s_set.curves):
                assert b.label == s.label
                assert_bits_equal(b.values, s.values)
                assert_bits_equal(b.ci_half_widths, s.ci_half_widths)

    def test_pool_with_shared_state_matches_serial_scalar(self):
        """End to end: pool workers attach the shm segment, plan batches, and
        still reproduce the scalar serial curve bit for bit."""
        config = tiny_config()
        set_kernel_mode("scalar")
        reference = resilient_mean_error_curve(config, 0.3)
        set_kernel_mode("batch")
        executor = PoolExecutor(workers=2, chunk=4)
        try:
            curve = resilient_mean_error_curve(
                config, 0.3, workers=2, executor=executor
            )
        finally:
            executor.close()
        assert executor.shared_handle is None  # driver reset it after unlink
        assert_bits_equal(curve.values, reference.values)
        assert_bits_equal(curve.ci_half_widths, reference.ci_half_widths)


# -- Shared-memory world state ------------------------------------------------


class TestSharedMemory:
    def test_publish_handle_jsonable_and_unlink_idempotent(self):
        config = tiny_config()
        state = shm_mod.publish_shared_state(config, noises=[0.3])
        try:
            json.loads(json.dumps(state.handle))  # must survive the wire
            assert os.path.exists(f"/dev/shm/{state.name}")
        finally:
            state.unlink()
        assert not os.path.exists(f"/dev/shm/{state.name}")
        state.unlink()  # idempotent

    def test_attach_preseeds_caches_bit_identical(self, monkeypatch, metrics):
        config = tiny_config()
        expected = {}
        for count in config.beacon_counts:
            for index in range(config.fields_per_density):
                world = build_world(config, 0.3, count, index)
                expected[(count, index)] = (
                    world.field.positions().copy(),
                    world.realization.seed,
                )
        state = shm_mod.publish_shared_state(config, noises=[0.3])
        # Simulate a fresh worker: empty caches, and hide the in-process
        # publisher (attach_shared_state refuses to shadow its own segment).
        clear_world_cache()
        monkeypatch.setattr(shm_mod, "_published", [])
        monkeypatch.setattr(shm_mod, "_unregister_attachment", lambda shm: None)
        try:
            assert shm_mod.attach_shared_state(state.handle) is True
            assert shm_mod.attach_shared_state(state.handle) is False  # idempotent
            assert shm_mod.attached_segment_name() == state.name
            assert metrics.counter("shm.attached").value == 1
            segment = shm_mod._attached[state.name]
            for count in config.beacon_counts:
                for index in range(config.fields_per_density):
                    world = build_world(config, 0.3, count, index)
                    positions, seed = expected[(count, index)]
                    assert_bits_equal(world.field.positions(), positions)
                    assert world.realization.seed == seed
                    # Zero-copy: the positions really live in the segment.
                    assert np.shares_memory(
                        world.field.positions(), np.frombuffer(segment.buf, np.uint8)
                    )
                    assert not world.field.positions().flags.writeable
        finally:
            clear_world_cache()
            shm_mod._attached.clear()
            state.unlink()

    def test_publish_for_executor_needs_a_handle_slot(self):
        config = tiny_config()
        assert shm_mod.publish_for_executor(None, config) is None

        class Slotless:
            pass

        assert shm_mod.publish_for_executor(Slotless(), config) is None

        class WithSlot:
            shared_handle = None

        executor = WithSlot()
        state = shm_mod.publish_for_executor(executor, config, noises=[0.0])
        try:
            assert state is not None
            assert executor.shared_handle == state.handle
            # A second publish is refused while a handle is installed.
            assert shm_mod.publish_for_executor(executor, config) is None
        finally:
            state.unlink()


# -- World-cache LRU eviction -------------------------------------------------


class TestWorldCacheLRU:
    def test_hit_refreshes_and_miss_evicts_single_stalest(self):
        clear_world_cache()
        try:
            for i in range(_MAX_ENTRIES):
                cached_grid(100.0 + 10.0 * i, 10.0)
            cached_grid(100.0, 10.0)  # refresh the oldest entry
            cached_grid(990.0, 10.0)  # one past capacity
            assert len(_grids) == _MAX_ENTRIES
            assert (100.0, 10.0) in _grids  # refreshed entry survived
            assert (110.0, 10.0) not in _grids  # the stalest entry went
            assert (990.0, 10.0) in _grids
        finally:
            clear_world_cache()
