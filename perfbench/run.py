"""Paper-shape benchmark for beaconplace: figure sweeps and the placement service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5-serial --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``fig5-serial`` — Figure 5 (Ideal; Random, Max, Grid), in-process;
* ``fig9-pool2`` — Figure 9 (Grid at four noise levels), 2-worker pool;
* ``serve-mixed`` — the placement service under a hit/miss request mix.

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures the per-layer metrics from a traced run.  Human-readable lines go
to stdout; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import harness
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig5-serial", "fig9-pool2", "serve-mixed")

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.sweep.build_world_s": "s/trial",
    "sim.sweep.worlds": "count/trial",
    "sim.trial.connectivity_s": "s/trial",
    "sim.trial.survey_s": "s/trial",
    "sim.trial.evaluate_s": "s/trial",
    "sim.trial.evaluate_calls": "count/trial",
    "radio.connectivity_s": "s/trial",
    "radio.pairs": "count/trial",
    "radio.jitter_hash_s": "s/trial",
    "radio.jitter_hash_elems": "count/trial",
    "radio.jitter_useful_frac": "frac",
    "localization.centroid_s": "s/trial",
    "placement.propose_s.random": "s/trial",
    "placement.propose_s.max": "s/trial",
    "placement.propose_s.grid": "s/trial",
    "placement.grid_cumulative_s": "s/trial",
    "sim.kernels.warm_s": "s/trial",
    "sim.kernels.batch_worlds": "count/trial",
    "sim.executors.execute_s": "s/trial",
    "sim.executors.worker_cell_s": "s/trial",
    "sim.executors.utilization": "frac",
    "sim.executors.shm_publish_s": "s/trial",
    "sim.executors.bytes_shipped": "B/trial",
    "sim.executors.batches": "count/trial",
    "sim.resilient.cells_failed": "count",
    "sim.resilient.cells_retried": "count",
    "sim.incremental.field_build_s": "s/trial",
    "sim.incremental.fingerprint_s": "s/trial",
    "sim.incremental.cache_hit_rate": "frac",
    "sim.incremental.cache_evictions": "count",
    "serve.solve_s": "s",
    "serve.codec_s": "s",
    "serve.response_bytes": "B",
    "serve.residual_ms": "ms",
    "obs.trial_wall_s": "s/trial",
    "obs.trace_overhead_frac": "frac",
}

# Spawned pool workers re-import this script as ``__mp_main__``; in a
# traced repetition they trace themselves and write totals home.
if __name__ == "__mp_main__" and os.environ.get(layers.WORKER_ENV):
    layers.install_in_worker(os.environ[layers.WORKER_ENV])


def log(message: str) -> None:
    print(message, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def probe_setup(env: dict, root: str) -> float:
    """Seconds from interpreter start to a warmed sweep set-up."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py")],
        stdout=subprocess.PIPE, text=True, env=env, cwd=root,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return elapsed


# -- Metric assembly ------------------------------------------------------------


def merge_snapshots(snapshots) -> dict:
    counters: dict = {}
    histograms: dict = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, data in snap.get("histograms", {}).items():
            entry = histograms.setdefault(name, {"count": 0, "sum": 0.0})
            entry["count"] += data["count"]
            entry["sum"] += data["sum"]
    return {"counters": counters, "histograms": histograms}


def layer_metrics(totals: dict, snapshot: dict, trials: int, traced_wall: float,
                  overhead: float, workers: int, serve: dict | None) -> dict:
    """Every per-layer metric from the traced repetitions.

    Times are self times (a span minus its traced children) per trial; a
    trial is a sweep cell or a served request.  ``overhead`` is the traced
    over the untraced wall time per trial, minus 1.
    """
    spans = totals.get("spans", {})
    counts = totals.get("counts", {})
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    def self_s(name):
        return spans.get(name, [0.0, 0])[0] / trials

    def calls(name):
        return spans.get(name, [0.0, 0])[1] / trials

    execute_s = spans.get(layers.EXECUTE, [0.0, 0])[0]
    pooled = execute_s > 0 and counts.get("worker_busy_s", 0.0) > 0
    hashed = counts.get("jitter_pairs_hashed", 0.0)
    gets = counts.get("cache_gets", 0.0)
    cell_seconds = histograms.get("sweep.cell.seconds", {}).get("sum", 0.0)
    values = {
        "sim.sweep.build_world_s": self_s(layers.BUILD_WORLD),
        "sim.sweep.worlds": calls(layers.BUILD_WORLD),
        "sim.trial.connectivity_s": self_s(layers.TRIAL_CONN),
        "sim.trial.survey_s": self_s(layers.TRIAL_SURVEY),
        "sim.trial.evaluate_s": self_s(layers.TRIAL_EVALUATE),
        "sim.trial.evaluate_calls": counts.get("evaluate_calls", 0.0) / trials,
        "radio.connectivity_s": self_s(layers.RADIO_CONN),
        "radio.pairs": counts.get("radio_pairs", 0.0) / trials,
        "radio.jitter_hash_s": self_s(layers.JITTER_HASH),
        "radio.jitter_hash_elems": counts.get("jitter_hash_elems", 0.0) / trials,
        "radio.jitter_useful_frac": counts.get("jitter_pairs_useful", 0.0) / hashed if hashed else 0.0,
        "localization.centroid_s": self_s(layers.CENTROID),
        "placement.propose_s.random": self_s(layers.PROPOSE + "random"),
        "placement.propose_s.max": self_s(layers.PROPOSE + "max"),
        "placement.propose_s.grid": self_s(layers.PROPOSE + "grid"),
        "placement.grid_cumulative_s": self_s(layers.GRID_CUMULATIVE),
        "sim.kernels.warm_s": self_s(layers.WARM),
        "sim.kernels.batch_worlds": counters.get("kernel.batch.worlds", 0) / trials,
        "sim.executors.execute_s": execute_s / trials,
        "sim.executors.worker_cell_s": cell_seconds / trials if pooled else 0.0,
        "sim.executors.utilization": (
            counts["worker_busy_s"] / (workers * execute_s) if pooled else 0.0
        ),
        "sim.executors.shm_publish_s": self_s(layers.SHM_PUBLISH),
        "sim.executors.bytes_shipped": counters.get("executor.pool.bytes_shipped", 0) / trials,
        "sim.executors.batches": counters.get("executor.pool.batches", 0) / trials,
        "sim.resilient.cells_failed": counters.get("sweep.cells.failed", 0),
        "sim.resilient.cells_retried": counters.get("sweep.cells.retried", 0),
        "sim.incremental.field_build_s": self_s(layers.FIELD_BUILD),
        "sim.incremental.fingerprint_s": self_s(layers.FINGERPRINT),
        "sim.incremental.cache_hit_rate": counts.get("cache_hits", 0.0) / gets if gets else 0.0,
        "sim.incremental.cache_evictions": counters.get("cache.le_field.evictions", 0),
        "serve.solve_s": 0.0,
        "serve.codec_s": 0.0,
        "serve.response_bytes": 0.0,
        "serve.residual_ms": 0.0,
        "obs.trial_wall_s": traced_wall / trials,
        "obs.trace_overhead_frac": overhead,
    }
    if serve is not None:
        values.update(serve)
    return values


def report_layers(values: dict) -> None:
    wall = values["obs.trial_wall_s"]
    log("per-layer metrics (traced repetitions; times are self seconds per trial):")
    for name, unit in PER_LAYER.items():
        value = values[name]
        share = ""
        if unit == "s/trial" and name != "obs.trial_wall_s" and wall > 0 and value > 0:
            share = f"  ({100.0 * value / wall:.1f}% of traced wall)"
        log(f"  {name} = {value:.6g} {unit}{share}")
    stage = values["sim.trial.connectivity_s"] + values["radio.jitter_hash_s"]
    if wall > 0:
        log(
            f"  sim.trial.connectivity_s + radio.jitter_hash_s = "
            f"{100.0 * stage / wall:.1f}% of traced wall per trial"
        )


# -- Workloads -------------------------------------------------------------------


def run_sweep(args, env, root, scratch) -> tuple:
    import setup_probe
    import sweeps

    setups = [probe_setup(env, root) for _ in range(harness.SETUP_REPEATS)]
    setup_probe.warm()
    out = sweeps.run(args.workload, args.seed, args.seconds, bool(args.trace), scratch, log)
    reps, traced = out["reps"], out["traced_reps"]
    attempted = sum(r.cells for r in reps + traced)
    failed = sum(r.failed for r in reps + traced)
    pick = harness.derive_seed(args.seed, "oracle")
    checks, mismatches = sweeps.check_rep(args.workload, reps[0], pick, log)
    attempted += checks
    failed += mismatches
    harness.reap_children()
    rates = [x for r in reps for x in r.rates()]
    rate = harness.lower_tail(rates)
    log(
        f"trials_per_s: {rate.p50:.4f} 1/s median over "
        f"{'panels' if args.workload == 'fig9-pool2' else 'repetitions'}"
        + (f", p{100 - rate.tail_q:g} {rate.tail:.4f}" if rate.tail_q else "")
        + f", n={rate.n} ({sweeps.FIG5_FIELDS if args.workload == 'fig5-serial' else sweeps.FIG9_FIELDS}"
        f" fields x {len(sweeps.COUNTS)} counts per panel)"
    )
    if args.workload == "fig9-pool2":
        walls = [w for r in reps for w in r.panel_walls]
        log(f"panel wall: {harness.timing(walls).describe('s')}")
    else:
        hours = sweeps.paper_cost_hours(reps)
        log(
            f"full-paper estimate (informational): {hours:.2f} core-hours for 13 curves x "
            f"23 counts x 1000 fields at this host's Figure 5 per-count cell cost"
        )
    metrics = {
        "setup_s": statistics.median(setups),
        "trials_per_s": rate.p50,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    log(f"setup_s: {harness.timing(setups).describe('s')}")
    if args.trace:
        cells = sum(r.cells for r in traced)
        overhead = (
            statistics.median(r.wall / r.cells for r in traced)
            / statistics.median(r.wall / r.cells for r in reps) - 1.0
        )
        layer = layer_metrics(
            out["totals"], merge_snapshots(out["snapshots"]), cells,
            sum(r.wall for r in traced), overhead, sweeps.FIG9_WORKERS, None,
        )
        return layer, attempted, failed, metrics
    return None, attempted, failed, metrics


def run_serve(args, env, root, scratch) -> tuple:
    import serve_mixed

    out = serve_mixed.run(args.seed, args.seconds, bool(args.trace), env, root, log)
    report = out["report"]
    records = report["records"]
    plan = out["plan"]
    attempted = len(records) + len(report["errors"])
    failed = len(report["errors"]) + out["mismatches"]
    for index, message in report["errors"][:5]:
        log(f"ERROR on request #{index}: {message}")
    latencies = [r[2] for r in records]
    hits = [r[2] for r in records if serve_mixed.is_hot(plan[r[0]])]
    misses = [r[2] for r in records if not serve_mixed.is_hot(plan[r[0]])]
    qps = len(records) / report["wall"]
    log(f"serve_qps = {qps:.4f} 1/s ({len(records)} requests in {report['wall']:.3f} s, "
        f"closed loop over {serve_mixed.CONNECTIONS} connections)")
    try:
        p90 = f"{1e3 * harness.percentile(latencies, 90):.4f} ms"
    except ValueError:
        p90 = "not supported (fewer than 100 requests)"
    log(f"serve_p50_ms = {1e3 * harness.percentile(latencies, 50):.4f} ms, "
        f"serve_p90_ms = {p90} (n={len(latencies)})")
    log(f"serve_hit_p50_ms = {1e3 * harness.percentile(hits, 50):.4f} ms (n={len(hits)}), "
        f"serve_miss_p50_ms = {1e3 * harness.percentile(misses, 50):.4f} ms (n={len(misses)})")
    log(f"setup_s (server start + hot-set warm): {harness.timing(out['setups']).describe('s')}")
    metrics = {
        "setup_s": statistics.median(out["setups"]),
        "trials_per_s": qps,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    if args.trace:
        plain, traced = out["replay"], out["traced_replay"]
        n = len(traced["solve"])
        solve = statistics.median(plain["solve"])
        codec = statistics.median(plain["codec"])
        serve = {
            "serve.solve_s": solve,
            "serve.codec_s": codec,
            "serve.response_bytes": statistics.median(plain["sizes"]),
            "serve.residual_ms": (statistics.median(latencies) - solve - codec) * 1e3,
        }
        layer = layer_metrics(
            out["totals"], merge_snapshots([traced["snapshot"]]), n, traced["wall"],
            traced["wall"] / plain["wall"] - 1.0, 1, serve,
        )
        return layer, attempted, failed, metrics
    return None, attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "perfbench: no program source at ./src/repro; run from the root of a "
            "beaconplace checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    os.environ["PYTHONPATH"] = env["PYTHONPATH"]
    scratch = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    log(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    try:
        runner = run_serve if args.workload == "serve-mixed" else run_sweep
        layer, attempted, failed, metrics = runner(args, env, root, scratch)
    finally:
        harness.reap_children()
        harness.stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    log(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    if args.trace:
        report_layers(layer)
        chosen = {name: (layer[name], unit) for name, unit in PER_LAYER.items()}
    else:
        for name, unit in END_TO_END.items():
            log(f"{name} = {metrics[name]:.6g} {unit}")
        chosen = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}
    print(json.dumps(harness.result_line(failed == 0, attempted, failed, chosen)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
