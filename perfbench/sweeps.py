"""The two figure-sweep workloads: Figure 5 serial and Figure 9 on a pool.

Both drive the entry points ``beaconplace reproduce`` uses: Figure 5 with
no ``--workers`` runs :func:`repro.sim.placement_improvement_curves`
in-process; ``beaconplace --workers 2 reproduce fig9`` runs
:func:`repro.sim.resilient_placement_improvement_curves` with
``workers=2`` once per noise panel, each panel on its own pool.  The shape
is the paper's (100 m terrain, 1 m lattice, N_G = 400); only the field
count per density is reduced.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np

import harness
import layers
from repro.obs import disable_metrics, enable_metrics
from repro.placement import GridPlacement, MaxPlacement, RandomPlacement
from repro.sim import (
    PAPER_NOISE_LEVELS,
    Curve,
    ExperimentConfig,
    build_world,
    derive_rng,
    placement_improvement_curves,
    resilient_placement_improvement_curves,
    run_placement_trial,
)

#: Both ends of the paper's 20–240 density sweep and its middle.
COUNTS = (20, 120, 240)
#: Fields per density: Figure 5 runs 12 cells per repetition, Figure 9 24
#: cells per panel (96 per figure), enough for the pool to ship chunks of 3
#: cells so its batch planner runs.
FIG5_FIELDS = 4
FIG9_FIELDS = 8
FIG9_WORKERS = 2
#: Figures 5 and 7–9 draw 13 curves over 23 densities × 1000 fields.
PAPER_CURVES = 13
PAPER_FIELDS = 1000


def paper_algorithms(config: ExperimentConfig) -> list:
    """Random, Max and Grid in the paper's configuration (as the CLI builds them)."""
    return [
        RandomPlacement(),
        MaxPlacement(),
        GridPlacement.paper_configuration(config.side, config.radio_range, config.num_grids),
    ]


def grid_algorithm(config: ExperimentConfig) -> GridPlacement:
    return GridPlacement.paper_configuration(config.side, config.radio_range, config.num_grids)


class Rep:
    """One measured repetition: wall time, cells, curve sets, timings."""

    def __init__(self, seed: int):
        self.seed = seed
        self.wall = 0.0
        self.cells = 0
        self.failed = 0
        self.panels: dict = {}  # noise -> (mean_set, median_set)
        self.panel_walls: list[float] = []
        self.count_seconds: dict = {}  # count -> seconds for its fields

    @property
    def rate(self) -> float:
        return self.cells / self.wall

    def rates(self) -> list[float]:
        """Cells per second of each panel (Figure 9), or of the whole rep."""
        if not self.panel_walls:
            return [self.rate]
        per_panel = self.cells / len(self.panel_walls)
        return [per_panel / wall for wall in self.panel_walls]


def _lost_cells(curve_sets, fields: int) -> int:
    """Cells of one panel that produced no sample (failed or NaN-degraded).

    A lost cell is missing from every algorithm's curve, so the panel's
    loss is the largest shortfall of any one curve.
    """
    return max(
        sum(fields - n for n in curve.num_samples)
        for curve_set in curve_sets
        for curve in curve_set.curves
    )


def run_fig5(seed: int) -> Rep:
    """Figure 5 (Ideal; Random, Max, Grid) at paper shape, in-process."""
    rep = Rep(seed)
    config = ExperimentConfig(beacon_counts=COUNTS, fields_per_density=FIG5_FIELDS, seed=seed)
    algorithms = paper_algorithms(config)
    marks = []

    def progress(_message: str) -> None:
        marks.append(time.perf_counter())

    start = time.perf_counter()
    mean_set, median_set = placement_improvement_curves(
        config, 0.0, algorithms, progress=progress
    )
    rep.wall = time.perf_counter() - start
    previous = start
    for count, mark in zip(COUNTS, marks):
        rep.count_seconds[count] = mark - previous
        previous = mark
    rep.cells = len(COUNTS) * FIG5_FIELDS
    rep.panels[0.0] = (mean_set, median_set)
    rep.failed = _lost_cells([mean_set, median_set], FIG5_FIELDS)
    return rep


def run_fig9(seed: int) -> Rep:
    """Figure 9 (Grid at every paper noise level) on a 2-worker pool."""
    rep = Rep(seed)
    config = ExperimentConfig(beacon_counts=COUNTS, fields_per_density=FIG9_FIELDS, seed=seed)
    grid = grid_algorithm(config)
    start = time.perf_counter()
    for noise in PAPER_NOISE_LEVELS:
        t0 = time.perf_counter()
        sets = resilient_placement_improvement_curves(
            config, noise, [grid], workers=FIG9_WORKERS
        )
        rep.panel_walls.append(time.perf_counter() - t0)
        rep.panels[noise] = sets
        rep.failed += _lost_cells(sets, FIG9_FIELDS)
    rep.wall = time.perf_counter() - start
    rep.cells = len(PAPER_NOISE_LEVELS) * len(COUNTS) * FIG9_FIELDS
    return rep


# -- Correctness oracle ------------------------------------------------------


def column(curve_sets, count: int) -> list[tuple]:
    """Every curve's (label, value, CI half-width, samples) at ``count``."""
    out = []
    for curve_set in curve_sets:
        for curve in curve_set.curves:
            i = curve.counts.index(count)
            out.append((curve.label, curve.values[i], curve.ci_half_widths[i], curve.num_samples[i]))
    return out


def column_digest(rows) -> str:
    h = hashlib.sha256()
    for label, value, ci, n in rows:
        h.update(label.encode())
        h.update(harness.float_bytes([value, ci]))
        h.update(int(n).to_bytes(8, "little"))
    return h.hexdigest()[:16]


def recompute_column(config: ExperimentConfig, noise: float, count: int, algorithms) -> list[tuple]:
    """The sweep's column at ``count``, rebuilt cell by cell.

    Goes through :func:`build_world` and :func:`run_placement_trial` with
    the sweep's documented decision streams, not through either sweep
    engine, so an engine that drops, reorders or mis-seeds a cell differs.
    """
    names = [a.name for a in algorithms]
    means = {n: np.empty(config.fields_per_density) for n in names}
    medians = {n: np.empty(config.fields_per_density) for n in names}
    for index in range(config.fields_per_density):
        world = build_world(config, noise, count, index)

        def rng_for(name, _index=index):
            return derive_rng(config.seed, "alg", name, noise, count, _index)

        for outcome in run_placement_trial(world, list(algorithms), rng_for):
            means[outcome.algorithm][index] = outcome.improvement_mean
            medians[outcome.algorithm][index] = outcome.improvement_median
    density = config.with_counts([count]).densities()
    rows = []
    for samples in (means, medians):
        for n in names:
            curve = Curve.from_samples(
                n, (count,), density, [samples[n]], confidence=config.confidence
            )
            rows.append((curve.label, curve.values[0], curve.ci_half_widths[0], curve.num_samples[0]))
    return rows


def check_rep(workload: str, rep: Rep, pick: int, log) -> tuple[int, int]:
    """Oracle for one measured repetition; returns (checks, mismatches).

    Two checks on one seed-chosen (noise, count) column of the figure:
    the same public entry point rerun for that column must repeat the
    column's digest exactly, and an independent cell-by-cell rebuild must
    match it bit for bit.
    """
    count = COUNTS[pick % len(COUNTS)]
    noises = sorted(rep.panels)
    noise = noises[pick % len(noises)]
    measured = column(rep.panels[noise], count)
    if workload == "fig5-serial":
        config = ExperimentConfig(beacon_counts=(count,), fields_per_density=FIG5_FIELDS, seed=rep.seed)
        algorithms = paper_algorithms(config)
        again = placement_improvement_curves(config, noise, algorithms)
    else:
        config = ExperimentConfig(beacon_counts=(count,), fields_per_density=FIG9_FIELDS, seed=rep.seed)
        algorithms = [grid_algorithm(config)]
        again = resilient_placement_improvement_curves(
            config, noise, algorithms, workers=FIG9_WORKERS
        )
    mismatches = 0
    repeat = column(again, count)
    if column_digest(repeat) != column_digest(measured):
        log(f"ORACLE: rerun of count={count} noise={noise:g} did not repeat the column digest")
        mismatches += 1
    rebuilt = recompute_column(config, noise, count, algorithms)
    if column_digest(rebuilt) != column_digest(measured):
        log(f"ORACLE: cell-by-cell rebuild of count={count} noise={noise:g} differs from the sweep")
        mismatches += 1
    log(
        f"oracle: count={count} noise={noise:g} column digest {column_digest(measured)} "
        f"({'ok' if mismatches == 0 else 'MISMATCH'})"
    )
    return 2, mismatches


# -- Full-paper estimate ------------------------------------------------------


def paper_cost_hours(reps: list[Rep]) -> float:
    """Extrapolate Figure 5's per-count cell cost to the whole paper.

    Per-count cell seconds come from the sweep's per-density progress
    callbacks (median over repetitions), are interpolated linearly over the
    23 paper counts, and are charged once per curve: 13 curves × 1000
    fields.  A Figure 5 cell evaluates three algorithms on one world, so
    charging it per single-algorithm curve overestimates Figures 7–9 a
    little; the world and survey work that dominates is the same.
    """
    from repro.field import paper_density_sweep

    per_cell = {
        count: float(np.median([r.count_seconds[count] for r in reps])) / FIG5_FIELDS
        for count in COUNTS
    }
    counts = paper_density_sweep()
    seconds = np.interp(counts, list(per_cell), list(per_cell.values()))
    return float(seconds.sum()) * PAPER_FIELDS * PAPER_CURVES / 3600.0


# -- Entry point ---------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: str, log) -> dict:
    """Measure one workload for ``seconds``; returns the run's summary dict."""
    rep_fn = run_fig5 if workload == "fig5-serial" else run_fig9
    reps: list[Rep] = []
    traced_reps: list[Rep] = []
    totals: dict = {}
    snapshots: list = []
    start = time.perf_counter()
    index = 0
    # Repetitions run whole; a run stops at the first boundary past the
    # budget.  A traced run alternates untraced and traced repetitions
    # (same shape, fresh seeds) so both sides of the tracing overhead are
    # measured, and runs at least one traced repetition.
    while True:
        rep_seed = harness.derive_seed(seed, workload, "rep", index)
        traced_rep = trace and index % 2 == 1
        if traced_rep:
            rep, rep_totals, snapshot = _traced(rep_fn, rep_seed, scratch, index)
            traced_reps.append(rep)
            layers.merge_totals(totals, rep_totals)
            snapshots.append(snapshot)
        else:
            rep = rep_fn(rep_seed)
            reps.append(rep)
        log(
            f"rep {index}{' (traced)' if traced_rep else ''}: seed {rep_seed}, "
            f"{rep.cells} cells in {rep.wall:.3f} s = {rep.rate:.3f} trials/s, "
            f"curve digest {harness.curve_digest([s for p in rep.panels.values() for s in p])}"
        )
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (not trace or traced_reps):
            break
    harness.reap_children()
    # Taken before the oracle, whose in-process rebuilds are not the workload.
    peak = harness.peak_rss_mb()
    return {
        "peak_rss_mb": peak,
        "reps": reps,
        "traced_reps": traced_reps,
        "totals": totals,
        "snapshots": snapshots,
    }


def _traced(rep_fn, rep_seed: int, scratch: str, index: int):
    """One repetition under the tracer (and, for pools, traced workers)."""
    registry = enable_metrics()
    tracer = layers.install(layers.Tracer())
    worker_dir = os.path.join(scratch, f"workers-{index}")
    os.makedirs(worker_dir, exist_ok=True)
    os.environ[layers.WORKER_ENV] = worker_dir
    try:
        rep = rep_fn(rep_seed)
    finally:
        del os.environ[layers.WORKER_ENV]
        tracer.uninstall()
        disable_metrics()
    harness.reap_children()
    totals = layers.merge_totals(tracer.totals(), layers.read_worker_totals(worker_dir))
    shutil.rmtree(worker_dir, ignore_errors=True)
    return rep, totals, registry.snapshot()
