"""Command-line interface: ``beaconplace`` / ``python -m repro``.

Subcommands:

* ``table1`` — print the simulation parameters (Table 1) plus the derived
  quantities quoted in the paper's text.
* ``reproduce {fig4,fig5,fig6,fig7,fig8,fig9}`` — rerun a figure's sweep at
  configurable fidelity and print the series (table + ASCII chart).
* ``place`` — one adaptive-placement trial, narrated.
* ``protocol`` — run the §2.2 discrete-event protocol and compare with the
  geometric connectivity model.
* ``bounds`` — the §2.2 uniform-grid error bounds vs range-overlap ratio.
* ``survey`` — drive a survey robot along a path and report what it saw.
* ``activate`` — density-adaptive beacon self-scheduling on a dense field.
* ``regions`` — localization-region (locus) statistics of a deployment.
* ``report`` — run a compact evaluation and write a markdown report.
* ``faults`` — degrade a deployment over time under a fault model and
  measure how localization and adaptive placement hold up.
* ``timeline`` — error-vs-time curves: sweep several fault models through
  the resilient engine (``--models crash,battery,intermittent --times
  0:86400:24``), with bootstrap CIs, journal resume and every executor
  backend.
* ``selfheal`` — the closed-loop version of ``timeline``: a repair
  controller (thresholds, hysteresis, beacon budget) walks each fault
  timeline and fights the degradation with fault-aware placement; prints
  paired controller-on/off curves, recovery metrics and the decision log
  (``--decisions PATH`` writes it as JSON).
* ``greedyk`` — greedy-k placement over the full measurement lattice,
  powered by the incremental delta-engine (one base field + K cheap deltas
  per round instead of K rebuilds); bit-identical across executor backends.
* ``obs`` — summarize the observability artifacts of an instrumented run
  (top spans by cumulative time, counters, duration histograms).
* ``journal`` — inspect a sweep checkpoint journal (done/failed/NaN
  counts), compact superseded lines out of it, or ``--merge`` the journals
  of sharded/distributed runs into one.
* ``worker`` — join a sweep served on another machine
  (``--connect HOST:PORT``) and pull cell batches until drained.
* ``serve`` — reproduce a figure with the socket executor: cells are
  served to ``worker`` processes instead of computed locally.
* ``place-serve`` — long-running placement service: answers concurrent
  placement queries from a shared expected-LE field cache
  (:mod:`repro.serve`; DESIGN §14).
* ``place-client`` — query a running placement service (field spec +
  algorithm in, placement + base statistics out; ``--repeat`` shows the
  cache warming up, ``--prom`` dumps the server's live counters).

Long sweeps are resilient: ``--workers N`` fans cells across processes and
``--journal PATH`` checkpoints every completed cell to a JSONL file, so an
interrupted ``reproduce`` resumes instead of recomputing.  ``--executor
{serial,pool,socket}`` picks where cells run (``--chunk`` sets the cells
per dispatch, ``--bind`` the socket listen address); see
:mod:`repro.sim.executors`.

Any command can be observed: ``--trace DIR`` writes a JSONL span trace and
a metrics snapshot into ``DIR`` (render them with ``beaconplace obs DIR``)
and ``--profile`` prints a per-stage wall-clock breakdown plus the top
cProfile entries.  Both are off by default and the uninstrumented path is
byte-identical.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .faults import (
    BatteryFault,
    CompositeFault,
    CrashFault,
    DriftFault,
    IntermittentFault,
    NoFaults,
)
from .localization import overlap_ratio_sweep
from .obs import (
    METRICS_FILENAME,
    ObsSession,
    TRACE_FILENAME,
    compact_journal,
    format_journal_summary,
    format_status,
    format_trace_tree,
    inspect_journal,
    merge_journals,
    read_status,
    snapshot_to_prometheus,
    summarize_run_dir,
)
from .placement import GridPlacement, MaxPlacement, RandomPlacement
from .protocol import ProtocolConnectivityEstimator
from .selfheal import ControllerConfig, selfheal_timeline
from .sim import (
    PAPER_NOISE_LEVELS,
    TimelineConfig,
    WorkerRejected,
    bench_config,
    build_world,
    derive_rng,
    fault_error_timeline,
    make_executor,
    mean_error_curve,
    placement_improvement_curves,
    run_placement_trial,
    run_worker,
    write_curve_set,
    write_time_curve_set,
)
from .sim.results import CurveSet
from .viz import format_curve_set, format_table, format_timeline_set, line_chart

__all__ = ["main", "build_parser"]


def _config_from_args(args) -> "object":
    config = bench_config()
    if args.fields is not None:
        config = config.with_fields(args.fields)
    if args.counts:
        config = config.with_counts(args.counts)
    return config


def _paper_algorithms(config):
    return [
        RandomPlacement(),
        MaxPlacement(),
        GridPlacement.paper_configuration(config.side, config.radio_range, config.num_grids),
    ]


def _emit(curve_set: CurveSet, args, csv_suffix: str = "") -> None:
    print(format_curve_set(curve_set))
    series = [(c.label, c.densities, c.values) for c in curve_set.curves]
    print()
    print(
        line_chart(
            series,
            title=curve_set.title,
            x_label="beacons per m^2",
            y_label="meters",
            y_min=0.0,
        )
    )
    if args.csv:
        target = args.csv
        if csv_suffix:
            from pathlib import Path

            p = Path(target)
            target = p.with_name(p.stem + csv_suffix + p.suffix)
        path = write_curve_set(curve_set, target)
        print(f"\nwrote {path}")


def _cmd_table1(args) -> int:
    config = _config_from_args(args)
    rows = [
        ("Side", f"{config.side:g} m"),
        ("R", f"{config.radio_range:g} m"),
        ("step", f"{config.step:g} m"),
        ("N_G", str(config.num_grids)),
        ("P_T (derived)", str(config.num_measurement_points)),
        ("gridSide = 2R (derived)", f"{config.grid_side:g} m"),
        ("P_G (derived)", f"{config.points_per_grid:.0f}"),
        ("density sweep", f"{config.beacon_counts[0]}..{config.beacon_counts[-1]} beacons"),
        ("noise levels", ", ".join(f"{n:g}" for n in config.noise_levels)),
        ("fields per density", str(config.fields_per_density)),
    ]
    print(format_table(("parameter", "value"), rows))
    return 0


def _executor_from_args(args):
    """The CellExecutor requested by --executor/--chunk, built once per run.

    The instance is cached on ``args`` so every sweep of a multi-panel
    figure shares it — for the socket backend that means workers stay
    connected across panels; ``main`` closes it when the command finishes.
    ``None`` means "no explicit choice": the sweep layer's default (serial
    or pool, from ``--workers``) applies.
    """
    executor = getattr(args, "_executor", None)
    if executor is not None:
        return executor
    name = args.executor
    if name is None and args.chunk is not None and args.workers > 1:
        name = "pool"  # --chunk alone upgrades the default pool to chunked
    if name is None:
        return None
    executor = make_executor(
        name, workers=args.workers, chunk=args.chunk,
        bind=args.bind or ("127.0.0.1", 0),
    )
    if name == "socket":
        host, port = executor.address
        print(
            f"serving sweep cells on {host}:{port} — join with: "
            f"beaconplace worker --connect {host}:{port}",
            file=sys.stderr,
        )
    args._executor = executor
    return executor


def _mean_curve(config, noise, args):
    """A figure 4/6 series on the backend and journal the flags choose.

    One journal file serves a whole multi-noise figure: the fingerprint
    covers (kind, config) while each cell key carries its noise level.
    """
    return mean_error_curve(
        config,
        noise,
        workers=args.workers,
        journal_path=args.journal,
        progress=_progress(args),
        executor=_executor_from_args(args),
    )


def _improvement(config, noise, algorithms, args):
    """Figure 5/7–9 curve sets on the backend and journal the flags choose."""
    return placement_improvement_curves(
        config,
        noise,
        algorithms,
        workers=args.workers,
        journal_path=args.journal,
        progress=_progress(args),
        executor=_executor_from_args(args),
    )


def _warn_failed(failed: int) -> None:
    """Report cells that exhausted their retries (their samples are NaN)."""
    if failed:
        print(
            f"\nwarning: {failed} cell(s) exhausted retries (NaN-degraded)",
            file=sys.stderr,
        )


def _cmd_reproduce(args) -> int:
    config = _config_from_args(args)
    figure = args.figure
    if figure == "fig4":
        curve = _mean_curve(config, 0.0, args)
        _emit(CurveSet("Figure 4: mean localization error vs density (Ideal)", [curve]), args)
        _warn_failed(curve.meta["failed_cells"])
        return 0
    if figure == "fig6":
        curves = [_mean_curve(config, noise, args) for noise in PAPER_NOISE_LEVELS]
        _emit(CurveSet("Figure 6: mean localization error vs density (Noise)", curves), args)
        _warn_failed(sum(c.meta["failed_cells"] for c in curves))
        return 0
    if figure == "fig5":
        mean_set, median_set = _improvement(config, 0.0, _paper_algorithms(config), args)
        mean_set.title = "Figure 5a: improvement in mean error (Ideal)"
        median_set.title = "Figure 5b: improvement in median error (Ideal)"
        _emit(mean_set, args, csv_suffix="_mean")
        print()
        _emit(median_set, args, csv_suffix="_median")
        _warn_failed(mean_set.meta["failed_cells"])
        return 0
    algorithm = {"fig7": RandomPlacement(), "fig8": MaxPlacement()}.get(figure)
    if algorithm is None:
        algorithm = GridPlacement.paper_configuration(
            config.side, config.radio_range, config.num_grids
        )
    mean_curves, median_curves = [], []
    failed = 0
    for noise in PAPER_NOISE_LEVELS:
        mean_set, median_set = _improvement(config, noise, [algorithm], args)
        label = "Ideal" if noise == 0.0 else f"Noise={noise:g}"
        mean_curves.append(_relabel(mean_set.curves[0], label))
        median_curves.append(_relabel(median_set.curves[0], label))
        failed += mean_set.meta["failed_cells"]
    number = {"fig7": "7", "fig8": "8", "fig9": "9"}[figure]
    name = algorithm.name.capitalize()
    _emit(
        CurveSet(f"Figure {number}a: {name} improvement in mean error", mean_curves),
        args,
        csv_suffix="_mean",
    )
    print()
    _emit(
        CurveSet(f"Figure {number}b: {name} improvement in median error", median_curves),
        args,
        csv_suffix="_median",
    )
    _warn_failed(failed)
    return 0


def _relabel(curve, label):
    from dataclasses import replace

    return replace(curve, label=label)


def _progress(args):
    if not args.verbose:
        return None

    def report(message: str) -> None:
        print(f"  … {message}", file=sys.stderr)

    return report


def _cmd_place(args) -> int:
    config = _config_from_args(args)
    world = build_world(config, args.noise, args.beacons, args.field_index)
    algorithms = _paper_algorithms(config)
    if args.algorithm != "all":
        algorithms = [a for a in algorithms if a.name == args.algorithm]

    def rng_for(name):
        return derive_rng(config.seed, "cli", name, args.noise, args.beacons, args.field_index)

    outcomes = run_placement_trial(world, algorithms, rng_for)
    base = outcomes[0]
    print(
        f"{args.beacons} beacons (density {args.beacons / config.side**2:.4f}/m^2), "
        f"noise {args.noise:g}: mean LE {base.base_mean:.2f} m, median {base.base_median:.2f} m"
    )
    rows = [
        (
            o.algorithm,
            f"({o.pick.x:.1f}, {o.pick.y:.1f})",
            o.improvement_mean,
            o.improvement_median,
        )
        for o in outcomes
    ]
    print(
        format_table(
            ("algorithm", "placed at", "mean gain (m)", "median gain (m)"), rows
        )
    )
    return 0


def _cmd_protocol(args) -> int:
    config = _config_from_args(args)
    world = build_world(config, args.noise, args.beacons, args.field_index)
    rng = derive_rng(config.seed, "cli-protocol", args.beacons, args.noise)
    points = world.points()[:: args.stride]
    estimator = ProtocolConnectivityEstimator(
        period=args.period,
        listen_time=args.listen_time,
        message_duration=args.message_duration,
        cm_thresh=args.cm_thresh,
    )
    result = estimator.run(points, world.field, world.realization, rng)
    geometric = world.realization.connectivity(points, world.field)
    agreement = float((result.connectivity == geometric).mean())
    rows = [
        ("clients", points.shape[0]),
        ("messages sent", result.messages_sent),
        ("decoded", result.decoded_messages),
        ("collision losses", result.collision_losses),
        ("propagation losses", result.propagation_losses),
        ("collision rate", f"{result.collision_rate:.4f}"),
        ("agreement with geometric model", f"{agreement:.4f}"),
    ]
    print(format_table(("metric", "value"), rows))
    return 0


def _cmd_bounds(args) -> int:
    results = overlap_ratio_sweep()
    rows = [
        (r.overlap_ratio, r.max_error_fraction, r.mean_error_fraction)
        for r in results
    ]
    print(
        format_table(
            ("R/d", "max error (fraction of d)", "mean error (fraction of d)"),
            rows,
            float_digits=3,
        )
    )
    print("\npaper (§2.2): max error 0.5d at R/d=1, falling to 0.25d by R/d=4")
    return 0


def _parse_workers(text: str) -> int:
    try:
        workers = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid worker count {text!r}") from exc
    if workers < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {workers}")
    return workers


def _parse_counts(text: str) -> list[int]:
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid count list {text!r}") from exc
    if not counts:
        raise argparse.ArgumentTypeError("count list must not be empty")
    return counts


def _cmd_survey(args) -> int:
    from .exploration import (
        GpsErrorModel,
        SurveyAgent,
        lawnmower_path,
        path_length,
        random_walk_path,
        spiral_path,
    )
    from .localization import CentroidLocalizer
    from .placement import GridPlacement

    config = _config_from_args(args)
    world = build_world(config, args.noise, args.beacons, args.field_index)
    rng = derive_rng(config.seed, "cli-survey", args.path, args.beacons)
    if args.path == "lawnmower":
        path = lawnmower_path(config.side, args.spacing, args.spacing)
    elif args.path == "spiral":
        path = spiral_path(config.side, args.spacing)
    else:
        path = random_walk_path(config.side, 2000, args.spacing, rng)
    gps = GpsErrorModel(args.gps_sigma, clamp_side=config.side) if args.gps_sigma else None
    agent = SurveyAgent(
        world.field,
        world.realization,
        CentroidLocalizer(config.side, config.policy),
        config.side,
        gps=gps,
    )
    survey = agent.measure_at(path, rng)
    pick = GridPlacement(config.grid_layout()).propose(survey, rng)
    gain_mean, gain_median = world.evaluate_candidate(pick)
    rows = [
        ("path", args.path),
        ("measurements", survey.num_points),
        ("travel", f"{path_length(path):.0f} m"),
        ("surveyed mean LE", f"{survey.mean_error():.2f} m"),
        ("surveyed median LE", f"{survey.median_error():.2f} m"),
        ("grid pick", f"({pick.x:.1f}, {pick.y:.1f})"),
        ("true mean gain", f"{gain_mean:.3f} m"),
        ("true median gain", f"{gain_median:.3f} m"),
    ]
    print(format_table(("metric", "value"), rows))
    return 0


def _cmd_activate(args) -> int:
    from .placement import DensityAdaptiveActivation
    from .sim import TrialWorld

    config = _config_from_args(args)
    world = build_world(config, args.noise, args.beacons, args.field_index)
    base_mean, _ = world.base_stats()
    result = DensityAdaptiveActivation(target_neighbors=args.target).run(
        world.field,
        world.realization,
        derive_rng(config.seed, "cli-activate", args.beacons, args.target),
    )
    active_world = TrialWorld(
        result.active_field, world.realization, world.grid, world.layout, world.localizer
    )
    active_mean, _ = active_world.base_stats()
    rows = [
        ("deployed beacons", len(world.field)),
        ("active beacons", result.num_active),
        ("duty fraction", f"{result.duty_fraction:.0%}"),
        ("mean LE (all on)", f"{base_mean:.2f} m"),
        ("mean LE (active set)", f"{active_mean:.2f} m"),
    ]
    print(format_table(("metric", "value"), rows))
    return 0


def _cmd_regions(args) -> int:
    from .geometry import decompose_regions

    config = _config_from_args(args)
    world = build_world(config, args.noise, args.beacons, args.field_index)
    regions = decompose_regions(
        world.connectivity(), world.grid, split_spatially=args.split
    )
    areas = regions.covered_region_areas()
    rows = [
        ("beacons", args.beacons),
        ("regions (total)", regions.num_regions),
        ("covered regions", regions.num_covered_regions),
        ("mean covered area", f"{regions.mean_covered_region_area():.1f} m^2"),
        ("largest covered area", f"{areas.max():.1f} m^2" if areas.size else "n/a"),
        ("uncovered area", f"{regions.region_areas.sum() - areas.sum():.1f} m^2"),
    ]
    print(format_table(("metric", "value"), rows))
    return 0


def _cmd_report(args) -> int:
    from .viz import ReportBuilder

    config = _config_from_args(args)
    builder = ReportBuilder("Adaptive Beacon Placement — evaluation report")
    builder.add_section(
        "Configuration",
        f"terrain {config.side:g} m, R = {config.radio_range:g} m, "
        f"{config.fields_per_density} fields per density, "
        f"counts {list(config.beacon_counts)}",
    )
    curve = mean_error_curve(config, 0.0, progress=_progress(args))
    builder.add_section("Mean error vs density (ideal) — Figure 4")
    builder.add_curve_set(CurveSet("Figure 4", [curve]))
    mean_set, median_set = placement_improvement_curves(
        config, 0.0, _paper_algorithms(config), progress=_progress(args)
    )
    builder.add_section("Placement improvements (ideal) — Figure 5")
    builder.add_curve_set(mean_set)
    builder.add_curve_set(median_set, chart=False)
    out = builder.write(args.output)
    print(f"wrote {out}")
    return 0


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("float list must not be empty")
    return values


def _fault_model_from_args(args):
    if args.mode == "crash":
        return CrashFault(args.lifetime)
    if args.mode == "battery":
        return BatteryFault(args.lifetime, spread=args.spread)
    if args.mode == "flap":
        return IntermittentFault(args.up_time, args.down_time)
    if args.mode == "drift":
        return DriftFault(args.drift_rate, args.max_drift)
    return CompositeFault(
        [CrashFault(args.lifetime), DriftFault(args.drift_rate, args.max_drift)]
    )


def _cmd_faults(args) -> int:
    config = _config_from_args(args)
    model = _fault_model_from_args(args)
    algorithms = _paper_algorithms(config)
    rows = []
    for t in args.times:
        alive: list[float] = []
        base_errors: list[float] = []
        gains: dict[str, list[float]] = {a.name: [] for a in algorithms}
        for index in range(config.fields_per_density):
            world = build_world(
                config, args.noise, args.beacons, index, faults=model, fault_time=t
            )
            alive.append(len(world.field))

            def rng_for(name, t=t, index=index):
                return derive_rng(
                    config.seed, "cli-faults", name, t, args.beacons, index
                )

            outcomes = run_placement_trial(world, algorithms, rng_for)
            base_errors.append(outcomes[0].base_mean)
            for o in outcomes:
                gains[o.algorithm].append(o.improvement_mean)
        rows.append(
            (
                f"{t:g}",
                f"{float(np.mean(alive)):.1f}/{args.beacons}",
                float(np.nanmean(base_errors)),
                *(float(np.nanmean(gains[a.name])) for a in algorithms),
            )
        )
    header = (
        "time",
        "alive",
        "mean LE (m)",
        *(f"{a.name} gain (m)" for a in algorithms),
    )
    print(
        f"fault mode {args.mode}, {args.beacons} beacons, noise {args.noise:g}, "
        f"{config.fields_per_density} field(s) per point"
    )
    print(format_table(header, rows))
    return 0


def _parse_times(text: str) -> list[float]:
    """A time axis: ``START:STOP:NUM`` (inclusive linspace) or comma floats."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"expected START:STOP:NUM, got {text!r}"
            )
        try:
            start, stop = float(parts[0]), float(parts[1])
            num = int(parts[2])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid time range {text!r}") from exc
        if num < 2:
            raise argparse.ArgumentTypeError(
                f"time range needs at least 2 points, got {num}"
            )
        if stop <= start:
            raise argparse.ArgumentTypeError(
                f"time range must be increasing, got {text!r}"
            )
        return [float(t) for t in np.linspace(start, stop, num)]
    return _parse_floats(text)


_TIMELINE_MODELS = ["crash", "battery", "intermittent", "flap", "drift", "mixed", "none"]


def _parse_model_names(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("model list must not be empty")
    for name in names:
        if name not in _TIMELINE_MODELS:
            raise argparse.ArgumentTypeError(
                f"unknown fault model {name!r} (choose from {', '.join(_TIMELINE_MODELS)})"
            )
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"duplicate fault model in {names}")
    return names


def _timeline_models(args):
    """The (name, model) list for the timeline sweep, from the fault flags."""

    def build(name):
        if name == "crash":
            return CrashFault(args.lifetime)
        if name == "battery":
            return BatteryFault(args.lifetime, spread=args.spread)
        if name in ("intermittent", "flap"):
            return IntermittentFault(args.up_time, args.down_time)
        if name == "drift":
            return DriftFault(args.drift_rate, args.max_drift)
        if name == "mixed":
            return CompositeFault(
                [CrashFault(args.lifetime), DriftFault(args.drift_rate, args.max_drift)]
            )
        return NoFaults()

    return [(name, build(name)) for name in args.models]


def _emit_timeline(curve_set, args, csv_suffix: str = "") -> None:
    print(format_timeline_set(curve_set))
    series = [(c.label, c.times, c.values) for c in curve_set.curves]
    print()
    print(
        line_chart(
            series,
            title=curve_set.title,
            x_label="time",
            y_label="meters",
            y_min=0.0,
        )
    )
    if args.csv:
        target = args.csv
        if csv_suffix:
            from pathlib import Path

            p = Path(target)
            target = p.with_name(p.stem + csv_suffix + p.suffix)
        path = write_time_curve_set(curve_set, target)
        print(f"\nwrote {path}")


def _cmd_timeline(args) -> int:
    config = _config_from_args(args)
    mean_set, upper_set = fault_error_timeline(
        config,
        _timeline_from_args(args),
        _timeline_models(args),
        workers=args.workers,
        journal_path=args.journal,
        progress=_progress(args),
        executor=_executor_from_args(args),
    )
    _emit_timeline(mean_set, args, csv_suffix="_mean")
    print()
    _emit_timeline(upper_set, args, csv_suffix=f"_p{args.percentile:g}")
    _warn_failed(mean_set.meta.get("failed_cells", 0))
    return 0


def _timeline_from_args(args) -> TimelineConfig:
    return TimelineConfig(
        times=tuple(args.times),
        beacons=args.beacons,
        noise=args.noise,
        trials=args.trials,
        percentile=args.percentile,
        resamples=args.resamples,
    )


def _cmd_selfheal(args) -> int:
    config = _config_from_args(args)
    controller = ControllerConfig(
        mean_threshold=args.mean_threshold,
        alive_threshold=args.alive_threshold,
        budget=args.budget,
        repair_k=args.repair_k,
        horizon=args.horizon,
        hysteresis=args.hysteresis,
        catastrophic_fraction=args.catastrophic,
        penalty=args.penalty,
    )
    result = selfheal_timeline(
        config,
        _timeline_from_args(args),
        _timeline_models(args),
        controller,
        workers=args.workers,
        journal_path=args.journal,
        progress=_progress(args),
        executor=_executor_from_args(args),
    )
    for curve_set, suffix in (
        (result.off_mean, "_off_mean"),
        (result.off_upper, f"_off_p{args.percentile:g}"),
        (result.on_mean, "_on_mean"),
        (result.on_upper, f"_on_p{args.percentile:g}"),
    ):
        _emit_timeline(curve_set, args, csv_suffix=suffix)
        print()
    print("recovery summary (mean LE vs the controller threshold):")
    for name in result.on_mean.labels():
        on = result.on_mean.curve(name)
        off = result.off_mean.curve(name)
        print(
            f"  {name}: repairs={result.repairs[name]} "
            f"added={result.added[name]} moved={result.moved[name]} | "
            f"time-to-recover on={on.meta['time_to_recover']:g} "
            f"off={off.meta['time_to_recover']:g} | "
            f"area-under-degradation on={on.meta['area_under_degradation']:g} "
            f"off={off.meta['area_under_degradation']:g}"
        )
    if args.decisions:
        import json
        from pathlib import Path

        payload = {
            "controller": controller.spec(),
            "decisions": result.decisions,
            "repairs": result.repairs,
            "added": result.added,
            "moved": result.moved,
        }
        Path(args.decisions).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )
        print(f"\nwrote decision log {args.decisions}")
    _warn_failed(result.on_mean.meta.get("failed_cells", 0))
    return 0


def _cmd_greedyk(args) -> int:
    """Greedy-k placement sweep through the incremental delta-engine.

    Cells run through :func:`repro.sim.run_cells`, so ``--workers``,
    ``--executor`` and ``--journal`` all apply; results are bit-identical
    across backends (the CI incremental-smoke job compares serial vs pool
    CSVs byte for byte).
    """
    from .sim import RetryPolicy, SweepJournal, run_cells, sweep_fingerprint
    from .sim.incremental import _greedyk_cell

    config = _config_from_args(args)
    counts = args.counts if args.counts else [args.beacons]
    jobs = []
    for noise in args.noise:
        for count in counts:
            for index in range(config.fields_per_density):
                key = ("greedyk", noise, count, index, args.k, args.subsample)
                jobs.append(
                    (key, (config, noise, count, index, args.k, args.subsample))
                )
    fingerprint = sweep_fingerprint(
        "greedy-k", config, {"k": args.k, "subsample": args.subsample}
    )
    journal = SweepJournal.open(args.journal, fingerprint) if args.journal else None
    results = run_cells(
        jobs,
        _greedyk_cell,
        workers=args.workers,
        policy=RetryPolicy(),
        journal=journal,
        progress=_progress(args),
        executor=_executor_from_args(args),
    )

    rows = []
    for key, _ in jobs:
        _, noise, count, index, k, subsample = key
        cell = results.get(("greedyk", noise, count, index, k, subsample))
        if cell is None:
            rows.append((noise, count, index, float("nan"), float("nan"), ""))
            continue
        picks = ";".join(f"{x:g}/{y:g}" for x, y in cell["picks"])
        rows.append(
            (noise, count, index, cell["base_mean"], cell["final_mean"], picks)
        )

    header = ["noise", "beacons", "field", "base_mean", "final_mean", "picks"]
    print(
        format_table(
            ["noise", "beacons", "field", "base mean", f"mean after +{args.k}", "picks"],
            [
                [f"{n:g}", str(c), str(i), f"{b:.4f}", f"{f:.4f}", p]
                for n, c, i, b, f, p in rows
            ],
        )
    )
    finite = [(b, f) for _, _, _, b, f, _ in rows if b == b and f == f]
    if finite:
        base = sum(b for b, _ in finite) / len(finite)
        after = sum(f for _, f in finite) / len(finite)
        print(
            f"\nmean LE over {len(finite)} cell(s): "
            f"{base:.4f} -> {after:.4f} m (greedy-{args.k})"
        )
    if args.csv:
        from pathlib import Path

        lines = [",".join(header)]
        for n, c, i, b, f, p in rows:
            lines.append(f"{n!r},{c},{i},{b!r},{f!r},{p}")
        Path(args.csv).write_text("\n".join(lines) + "\n")
        print(f"\nwrote {args.csv}")
    _warn_failed(sum(1 for _, _, _, b, _, _ in rows if b != b))
    return 0


def _cmd_obs(args) -> int:
    try:
        if args.tree:
            from pathlib import Path

            print(format_trace_tree(Path(args.run_dir) / TRACE_FILENAME))
        else:
            print(summarize_run_dir(args.run_dir))
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _status_complete(status: dict) -> bool:
    cells = status.get("cells", {})
    settled = (
        cells.get("done", 0) + cells.get("failed", 0) + cells.get("degraded", 0)
    )
    return status.get("state") == "complete" or settled >= cells.get("total", 0)


def _cmd_top(args) -> int:
    """Live refreshing view of a running sweep's ``status.json``."""
    import time

    waiting_logged = False
    try:
        while True:
            status = read_status(args.run_dir)
            if status is None:
                if args.once:
                    print(
                        f"error: no status.json under {args.run_dir} "
                        "(is a journaled sweep running there?)",
                        file=sys.stderr,
                    )
                    return 1
                if not waiting_logged:
                    print(f"waiting for status.json under {args.run_dir} …")
                    waiting_logged = True
            else:
                if not args.once and sys.stdout.isatty():
                    sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
                print(format_status(status))
                if args.once or _status_complete(status):
                    return 0
                print()  # frame separator for non-tty consumers
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_status(args) -> int:
    """One-shot sweep status; ``--prom`` renders Prometheus text format."""
    import json
    from pathlib import Path

    status = read_status(args.run_dir)
    if args.prom:
        sections = []
        metrics_path = Path(args.run_dir) / METRICS_FILENAME
        if metrics_path.exists():
            try:
                with metrics_path.open() as handle:
                    sections.append(snapshot_to_prometheus(json.load(handle)))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                print(f"error: unreadable {metrics_path}: {exc}", file=sys.stderr)
                return 1
        if status is not None:
            cells = status.get("cells", {})
            rate = status.get("rate", {})
            lines = []
            for name, value in (
                ("sweep_cells_total", cells.get("total", 0)),
                ("sweep_cells_done", cells.get("done", 0)),
                ("sweep_cells_failed", cells.get("failed", 0)),
                ("sweep_cells_degraded", cells.get("degraded", 0)),
                ("sweep_cells_per_second", rate.get("cells_per_second", 0.0)),
                ("sweep_workers", len(status.get("workers", {}))),
            ):
                metric = f"beaconplace_{name}"
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {value}")
            sections.append("\n".join(lines) + "\n")
        if not sections:
            print(
                f"error: neither {METRICS_FILENAME} nor status.json under "
                f"{args.run_dir}",
                file=sys.stderr,
            )
            return 1
        print("".join(sections), end="")
        return 0
    if status is None:
        print(
            f"error: no status.json under {args.run_dir} "
            "(journaled sweeps write one next to the journal)",
            file=sys.stderr,
        )
        return 1
    print(format_status(status))
    return 0


def _cmd_journal(args) -> int:
    try:
        if args.merge is not None:
            stats = merge_journals(args.merge, args.paths)
            print(
                f"merged {stats.inputs} journal(s) into {stats.out}: "
                f"{stats.cells} cell(s), {stats.superseded} superseded "
                "line(s) dropped"
            )
            print(format_journal_summary(inspect_journal(stats.out), keys=args.cells))
            return 0
        if len(args.paths) > 1:
            print(
                "error: multiple journals need --merge OUT (inspection takes one)",
                file=sys.stderr,
            )
            return 1
        path = args.paths[0]
        if args.compact:
            kept, dropped = compact_journal(path)
            print(f"compacted {path}: kept {kept} line(s), dropped {dropped} superseded")
        print(format_journal_summary(inspect_journal(path), keys=args.cells))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _parse_hostport(text: str) -> tuple:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid port in {text!r}") from exc


def _cmd_worker(args) -> int:
    try:
        cells = run_worker(
            args.connect,
            fingerprint=args.fingerprint,
            max_batches=args.max_batches,
            connect_timeout=args.connect_timeout,
            progress=_progress(args),
        )
    except WorkerRejected as exc:
        print(f"error: server rejected this worker: {exc}", file=sys.stderr)
        return 1
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"worker done: {cells} cell(s) processed")
    return 0


def _cmd_serve(args) -> int:
    """``reproduce`` with cells served to socket workers instead of run here."""
    args.executor = "socket"
    return _cmd_reproduce(args)


def _cmd_place_serve(args) -> int:
    """Run the placement service until interrupted (or --max-requests)."""
    import asyncio

    from .serve import PlacementServer

    async def run() -> int:
        server = PlacementServer(
            args.bind or ("127.0.0.1", 0),
            cache_capacity=args.cache,
            heartbeat=args.heartbeat,
            max_requests=args.max_requests,
        )
        await server.start()
        host, port = server.address
        print(
            f"placement service on {host}:{port} — query with: "
            f"beaconplace place-client --connect {host}:{port}",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.aclose()
        print(
            f"served {server.requests} request(s), "
            f"{server.cache_hits} cache hit(s), {server.errors} error(s)"
        )
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_place_client(args) -> int:
    """One conversation with a placement service: place, then show status."""
    from .serve import PlacementClient, PlacementRequest, PlacementServiceError

    try:
        request = PlacementRequest(
            side=args.side,
            radio_range=args.radio_range,
            seed=args.seed,
            noise=args.noise,
            count=args.beacons,
            field_index=args.field_index,
            algorithm=args.algorithm,
            k=args.k,
            subsample=args.subsample,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        with PlacementClient(args.connect, retry_for=args.connect_timeout) as client:
            for _ in range(args.repeat):
                solution = client.place(request)
                picks = "; ".join(f"({x:.1f}, {y:.1f})" for x, y in solution.picks)
                print(
                    f"{solution.algorithm}: {picks} | base mean "
                    f"{solution.base_mean:.2f} m, median "
                    f"{solution.base_median:.2f} m | "
                    f"{'cache hit' if solution.cache_hit else 'cold'} "
                    f"({solution.fingerprint})"
                )
            if args.prom:
                print(client.status(prom=True)["prom"], end="")
            else:
                status = client.status()
                cache = status["cache"]
                print(
                    f"server: {status['requests']} request(s), "
                    f"{cache['hits']} cache hit(s), "
                    f"{cache['size']}/{cache['capacity']} field(s) cached",
                    file=sys.stderr,
                )
    except PlacementServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach placement service: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="beaconplace",
        description=(
            "Adaptive beacon placement for RF-proximity localization "
            "(reproduction of Bulusu, Heidemann, Estrin; ICDCS 2001)"
        ),
    )
    parser.add_argument("--fields", type=int, default=None, help="fields per density")
    parser.add_argument(
        "--counts",
        type=_parse_counts,
        default=None,
        help="beacon-count sweep override, comma-separated (e.g. 20,60,120)",
    )
    parser.add_argument("--csv", default=None, help="also write results to this CSV path")
    parser.add_argument(
        "--workers",
        type=_parse_workers,
        default=1,
        help="worker processes for reproduce sweeps (1 = in-process)",
    )
    parser.add_argument(
        "--journal",
        default=None,
        help=(
            "JSONL checkpoint journal for reproduce sweeps; an interrupted "
            "run resumes from it instead of recomputing"
        ),
    )
    parser.add_argument(
        "--executor",
        choices=["serial", "pool", "socket"],
        default=None,
        help=(
            "where sweep cells run: in-process, on a local spawn pool, or "
            "served over TCP to 'beaconplace worker' processes (default: "
            "serial, or pool when --workers > 1)"
        ),
    )
    parser.add_argument(
        "--chunk",
        type=_parse_workers,
        default=None,
        metavar="N",
        help=(
            "cells shipped per dispatch to a pool/socket worker "
            "(default: sized automatically)"
        ),
    )
    parser.add_argument(
        "--bind",
        type=_parse_hostport,
        default=None,
        metavar="HOST:PORT",
        help=(
            "listen address for --executor socket (default 127.0.0.1:0 — "
            "a free port, announced on stderr)"
        ),
    )
    parser.add_argument(
        "--kernels",
        choices=["batch", "scalar"],
        default=None,
        help=(
            "cell evaluation path: 'batch' (default) runs the pruned "
            "connectivity kernel and pre-computes dispatch chunks through the "
            "vectorized LE kernels; 'scalar' forces the legacy unpruned "
            "per-cell path, same outputs (A/B measurement; also REPRO_KERNELS)"
        ),
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="progress to stderr")
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help=(
            "observability run directory: span trace (trace.jsonl) and "
            "metrics snapshot (metrics.json) land here; summarize with "
            "'beaconplace obs DIR'"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "profile the command (cProfile + per-stage wall-clock "
            "breakdown, printed at exit; also written to the --trace dir)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1 and derived quantities")

    rep = sub.add_parser("reproduce", help="reproduce a figure's data series")
    rep.add_argument(
        "figure", choices=["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]
    )

    place = sub.add_parser("place", help="run one adaptive-placement trial")
    place.add_argument("--beacons", type=int, default=40)
    place.add_argument("--noise", type=float, default=0.0)
    place.add_argument("--field-index", type=int, default=0)
    place.add_argument(
        "--algorithm", choices=["random", "max", "grid", "all"], default="all"
    )

    proto = sub.add_parser("protocol", help="run the §2.2 protocol simulation")
    proto.add_argument("--beacons", type=int, default=40)
    proto.add_argument("--noise", type=float, default=0.0)
    proto.add_argument("--field-index", type=int, default=0)
    proto.add_argument("--period", type=float, default=1.0)
    proto.add_argument("--listen-time", type=float, default=20.0)
    proto.add_argument("--message-duration", type=float, default=0.005)
    proto.add_argument("--cm-thresh", type=float, default=0.75)
    proto.add_argument("--stride", type=int, default=100, help="client subsampling")

    sub.add_parser("bounds", help="uniform-grid error bounds vs overlap ratio")

    survey = sub.add_parser("survey", help="drive a survey robot along a path")
    survey.add_argument("--beacons", type=int, default=30)
    survey.add_argument("--noise", type=float, default=0.3)
    survey.add_argument("--field-index", type=int, default=0)
    survey.add_argument(
        "--path", choices=["lawnmower", "spiral", "walk"], default="lawnmower"
    )
    survey.add_argument("--spacing", type=float, default=5.0)
    survey.add_argument("--gps-sigma", type=float, default=0.0)

    activate = sub.add_parser("activate", help="density-adaptive self-scheduling")
    activate.add_argument("--beacons", type=int, default=240)
    activate.add_argument("--noise", type=float, default=0.0)
    activate.add_argument("--field-index", type=int, default=0)
    activate.add_argument("--target", type=int, default=5, help="target active neighbours")

    regions = sub.add_parser("regions", help="localization-region statistics")
    regions.add_argument("--beacons", type=int, default=40)
    regions.add_argument("--noise", type=float, default=0.0)
    regions.add_argument("--field-index", type=int, default=0)
    regions.add_argument(
        "--split", action="store_true", help="split regions into contiguous loci"
    )

    report = sub.add_parser("report", help="write a markdown evaluation report")
    report.add_argument("--output", default="beaconplace-report.md")

    faults = sub.add_parser(
        "faults", help="degrade a deployment under a fault model over time"
    )
    faults.add_argument("--beacons", type=int, default=40)
    faults.add_argument("--noise", type=float, default=0.0)
    faults.add_argument(
        "--mode",
        choices=["crash", "flap", "battery", "drift", "mixed"],
        default="crash",
    )
    faults.add_argument(
        "--lifetime",
        type=float,
        default=50.0,
        help="mean beacon lifetime (crash/battery/mixed)",
    )
    faults.add_argument(
        "--spread", type=float, default=0.1, help="battery lifetime spread fraction"
    )
    faults.add_argument(
        "--up-time", type=float, default=30.0, help="flap mean up-time"
    )
    faults.add_argument(
        "--down-time", type=float, default=10.0, help="flap mean down-time"
    )
    faults.add_argument(
        "--drift-rate",
        type=float,
        default=0.5,
        help="drift magnitude in m per unit sqrt(time) (drift/mixed)",
    )
    faults.add_argument(
        "--max-drift", type=float, default=10.0, help="drift displacement cap in m"
    )
    faults.add_argument(
        "--times",
        type=_parse_floats,
        default=[0.0, 25.0, 50.0, 100.0],
        help="snapshot times, comma-separated",
    )

    def add_timeline_arguments(p) -> None:
        """Flags shared by the ``timeline`` and ``selfheal`` sweeps."""
        p.add_argument(
            "--models",
            type=_parse_model_names,
            default=["crash", "battery", "intermittent"],
            help=(
                "fault models to sweep, comma-separated from "
                f"{{{','.join(_TIMELINE_MODELS)}}} ('flap' is an alias for "
                "'intermittent')"
            ),
        )
        p.add_argument(
            "--times",
            type=_parse_times,
            default=[0.0, 25.0, 50.0, 75.0, 100.0],
            help=(
                "snapshot times: comma-separated floats, or START:STOP:NUM for "
                "an inclusive linspace (e.g. 0:86400:24)"
            ),
        )
        p.add_argument("--beacons", type=int, default=40)
        p.add_argument("--noise", type=float, default=0.0)
        p.add_argument(
            "--trials", type=int, default=8, help="random fields per fault model"
        )
        p.add_argument(
            "--percentile",
            type=float,
            default=90.0,
            help="upper-tail LE percentile reported alongside the mean",
        )
        p.add_argument(
            "--resamples",
            type=int,
            default=500,
            help="bootstrap iterations behind each confidence interval",
        )
        p.add_argument(
            "--lifetime", type=float, default=50.0,
            help="mean beacon lifetime (crash/battery/mixed)",
        )
        p.add_argument(
            "--spread", type=float, default=0.1, help="battery lifetime spread fraction"
        )
        p.add_argument(
            "--up-time", type=float, default=30.0, help="intermittent mean up-time"
        )
        p.add_argument(
            "--down-time", type=float, default=10.0, help="intermittent mean down-time"
        )
        p.add_argument(
            "--drift-rate", type=float, default=0.5,
            help="drift magnitude in m per unit sqrt(time) (drift/mixed)",
        )
        p.add_argument(
            "--max-drift", type=float, default=10.0, help="drift displacement cap in m"
        )

    timeline = sub.add_parser(
        "timeline",
        help=(
            "error-vs-time curves for several fault models, through the "
            "resilient sweep engine"
        ),
    )
    add_timeline_arguments(timeline)

    selfheal = sub.add_parser(
        "selfheal",
        help=(
            "closed-loop recovery: a repair controller walks each fault "
            "timeline and fights back (paired controller-on/off curves)"
        ),
    )
    add_timeline_arguments(selfheal)
    selfheal.add_argument(
        "--mean-threshold",
        type=float,
        default=15.0,
        help="mean-LE ceiling in meters; exceeding it (or total outage) is a breach",
    )
    selfheal.add_argument(
        "--alive-threshold",
        type=float,
        default=0.0,
        help="minimum surviving fraction of the designed field size",
    )
    selfheal.add_argument(
        "--budget", type=int, default=8,
        help="total beacons the controller may add over the whole timeline",
    )
    selfheal.add_argument(
        "--repair-k", type=int, default=2,
        help="beacons added per repair (capped by the remaining budget)",
    )
    selfheal.add_argument(
        "--horizon", type=float, default=25.0,
        help="survivability look-ahead in seconds for fault-aware placement",
    )
    selfheal.add_argument(
        "--hysteresis", type=float, default=0.9,
        help="re-arm fraction of the mean threshold after a repair",
    )
    selfheal.add_argument(
        "--catastrophic", type=float, default=0.0,
        help=(
            "surviving fraction below which a breach redeploys the "
            "survivors instead of adding beacons (0 disables)"
        ),
    )
    selfheal.add_argument(
        "--penalty", type=float, default=None,
        help="orphaned-point error for fault-aware placement (default: side/2)",
    )
    selfheal.add_argument(
        "--decisions",
        default=None,
        metavar="PATH",
        help="write the controller decision log as JSON to PATH",
    )

    greedyk = sub.add_parser(
        "greedyk",
        help=(
            "greedy-k placement over the full lattice through the "
            "incremental delta-engine (bit-identical across executors)"
        ),
    )
    greedyk.add_argument("--beacons", type=int, default=12, help="initial field size")
    greedyk.add_argument(
        "--noise",
        type=float,
        nargs="+",
        default=[0.0],
        help="noise levels to sweep",
    )
    greedyk.add_argument("--k", type=int, default=2, help="beacons to place greedily")
    greedyk.add_argument(
        "--subsample",
        type=int,
        default=1,
        help="stride over the candidate lattice (2 keeps every second point)",
    )

    obs = sub.add_parser("obs", help="summarize an instrumented run directory")
    obs.add_argument("run_dir", help="directory written by --trace/--profile")
    obs.add_argument(
        "--tree",
        action="store_true",
        help="render the stitched driver→worker→cell trace tree",
    )

    top = sub.add_parser(
        "top", help="live refreshing view of a running journaled sweep"
    )
    top.add_argument("run_dir", help="directory holding the sweep's status.json")
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh period (default: 1.0)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (nonzero if no status.json yet)",
    )

    status = sub.add_parser(
        "status", help="one-shot sweep status from a run directory"
    )
    status.add_argument("run_dir", help="directory holding status.json/metrics.json")
    status.add_argument(
        "--prom",
        action="store_true",
        help="emit Prometheus text format instead of the human view",
    )

    journal = sub.add_parser(
        "journal", help="inspect, compact or merge sweep journals"
    )
    journal.add_argument(
        "paths", nargs="+", metavar="path",
        help="JSONL checkpoint journal(s); several only with --merge",
    )
    journal.add_argument(
        "--cells", action="store_true", help="list every cell's latest status"
    )
    journal.add_argument(
        "--compact",
        action="store_true",
        help="drop superseded lines in place (atomic rewrite) before summarizing",
    )
    journal.add_argument(
        "--merge",
        default=None,
        metavar="OUT",
        help=(
            "merge the given journals (shards of one sweep — same "
            "fingerprint) into OUT; duplicate cells resolve last-writer-"
            "wins in the order given"
        ),
    )

    worker = sub.add_parser(
        "worker", help="join a served sweep and pull cell batches"
    )
    worker.add_argument(
        "--connect",
        type=_parse_hostport,
        required=True,
        metavar="HOST:PORT",
        help="address of the serving sweep (see 'serve' / --executor socket)",
    )
    worker.add_argument(
        "--fingerprint",
        default=None,
        help=(
            "expected sweep fingerprint; the server refuses this worker on "
            "mismatch (guards fleets against joining the wrong sweep)"
        ),
    )
    worker.add_argument(
        "--max-batches",
        type=int,
        default=None,
        help="exit after this many batches (testing/chaos tools)",
    )
    worker.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        help="seconds to retry the initial connect (workers may start first)",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "reproduce a figure with cells served to socket workers "
            "(reproduce + --executor socket)"
        ),
    )
    serve.add_argument(
        "figure", choices=["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]
    )

    place_serve = sub.add_parser(
        "place-serve",
        help=(
            "run the placement service: concurrent placement queries "
            "answered from a shared expected-LE field cache"
        ),
    )
    place_serve.add_argument(
        "--cache",
        type=_parse_workers,
        default=256,
        metavar="N",
        help="expected-LE maps held in the server's LRU field cache",
    )
    place_serve.add_argument(
        "--heartbeat",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="advertised heartbeat interval; 3x silence drops a connection",
    )
    place_serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after answering N placements (CI smoke runs)",
    )

    place_client = sub.add_parser(
        "place-client", help="query a running placement service"
    )
    place_client.add_argument(
        "--connect",
        type=_parse_hostport,
        required=True,
        metavar="HOST:PORT",
        help="address of the placement service (see 'place-serve')",
    )
    place_client.add_argument(
        "--algorithm",
        choices=["random", "max", "grid", "greedy"],
        default="grid",
    )
    place_client.add_argument("--beacons", type=int, default=40)
    place_client.add_argument("--noise", type=float, default=0.0)
    place_client.add_argument("--field-index", type=int, default=0)
    place_client.add_argument("--side", type=float, default=100.0)
    place_client.add_argument("--radio-range", type=float, default=15.0)
    place_client.add_argument("--seed", type=int, default=20010416)
    place_client.add_argument("--k", type=int, default=1, help="greedy-k picks")
    place_client.add_argument(
        "--subsample", type=int, default=1, help="greedy candidate stride"
    )
    place_client.add_argument(
        "--repeat",
        type=_parse_workers,
        default=1,
        metavar="N",
        help="issue the query N times (the repeats should be cache hits)",
    )
    place_client.add_argument(
        "--prom",
        action="store_true",
        help="print the server's live Prometheus counters after placing",
    )
    place_client.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        help="seconds to retry the initial connect (client may start first)",
    )

    return parser


_COMMANDS = {
    "table1": _cmd_table1,
    "reproduce": _cmd_reproduce,
    "place": _cmd_place,
    "protocol": _cmd_protocol,
    "bounds": _cmd_bounds,
    "survey": _cmd_survey,
    "activate": _cmd_activate,
    "regions": _cmd_regions,
    "report": _cmd_report,
    "faults": _cmd_faults,
    "timeline": _cmd_timeline,
    "selfheal": _cmd_selfheal,
    "greedyk": _cmd_greedyk,
    "obs": _cmd_obs,
    "top": _cmd_top,
    "status": _cmd_status,
    "journal": _cmd_journal,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
    "place-serve": _cmd_place_serve,
    "place-client": _cmd_place_client,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "kernels", None):
        from .sim import set_kernel_mode

        set_kernel_mode(args.kernels)
    session = ObsSession(args.trace, profile=args.profile)
    with session:
        try:
            code = _COMMANDS[args.command](args)
        finally:
            executor = getattr(args, "_executor", None)
            if executor is not None:
                executor.close()
    if session.profile_report is not None:
        print(f"\n{session.profile_report}")
    if session.run_dir is not None:
        print(
            f"\nobservability artifacts in {session.run_dir} "
            f"(summarize with: beaconplace obs {session.run_dir})",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
