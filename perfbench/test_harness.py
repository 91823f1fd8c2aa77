"""Self-tests for the benchmark harness (not part of the program's suite).

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py

They use toy shapes (a 40 m terrain, 4 m lattice) so they take seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402
import serve_mixed  # noqa: E402
import sweeps  # noqa: E402
from repro.placement import GridPlacement, MaxPlacement, RandomPlacement  # noqa: E402
from repro.serve import PlacementRequest, solve_request  # noqa: E402
from repro.sim import ExperimentConfig, placement_improvement_curves  # noqa: E402


def toy_config(seed: int = 5) -> ExperimentConfig:
    return ExperimentConfig(
        side=40.0, step=4.0, radio_range=10.0, num_grids=16,
        beacon_counts=(5, 9), fields_per_density=3, seed=seed,
    )


def toy_algorithms(config):
    return [
        RandomPlacement(),
        MaxPlacement(),
        GridPlacement.paper_configuration(config.side, config.radio_range, config.num_grids),
    ]


def toy_request(**changes) -> PlacementRequest:
    spec = dict(side=40.0, step=4.0, radio_range=10.0, num_grids=16, seed=3,
                count=6, noise=0.3, field_index=2, algorithm="grid")
    spec.update(changes)
    return PlacementRequest(**spec)


# -- Percentiles --------------------------------------------------------------------


def test_timing_reports_sample_count_and_highest_supported_tail():
    t = harness.timing(range(100))
    assert t.n == 100
    assert t.tail_q == 90.0  # p95 would leave 5 samples beyond it
    assert t.p50 == pytest.approx(49.5)
    assert "n=100" in t.describe("s")


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError, match="at least 10 samples beyond"):
        harness.percentile(range(50), 90)
    assert harness.percentile(range(100), 90) == pytest.approx(89.1)
    short = harness.timing(range(19))
    assert short.tail_q is None and short.tail is None and short.n == 19


def test_lower_tail_of_a_rate_is_its_low_end():
    t = harness.lower_tail(range(1, 101))
    assert t.p50 == pytest.approx(50.5)
    assert t.tail < t.p50


# -- Seeds ------------------------------------------------------------------------------


def test_seeds_are_deterministic_and_distinct():
    assert harness.derive_seed(1, "fig5-serial", "rep", 0) == harness.derive_seed(1, "fig5-serial", "rep", 0)
    reps = {harness.derive_seed(1, "fig5-serial", "rep", i) for i in range(50)}
    assert len(reps) == 50  # every repetition gets its own inputs
    assert harness.derive_seed(1, "x") != harness.derive_seed(2, "x")


def test_different_seeds_yield_different_serve_plans():
    hot1, plan1 = serve_mixed.make_plan(1)
    hot1b, plan1b = serve_mixed.make_plan(1)
    _, plan2 = serve_mixed.make_plan(2)
    assert [r.payload() for r in plan1] == [r.payload() for r in plan1b]
    assert [r.payload() for r in hot1] == [r.payload() for r in hot1b]
    assert [r.payload() for r in plan1[:50]] != [r.payload() for r in plan2[:50]]


def test_serve_plan_mix_and_never_seen_misses():
    hot, plan = serve_mixed.make_plan(7)
    block = plan[:8]
    assert sum(serve_mixed.is_hot(r) for r in block) == 6
    assert sorted(r.algorithm for r in block) == sorted(serve_mixed.BLOCK_ALGORITHMS)
    misses = [r.field_index for r in plan if not serve_mixed.is_hot(r)]
    assert len(misses) == len(set(misses))
    assert {r.field_index for r in hot}.isdisjoint(misses)


def test_different_seeds_yield_different_curves_and_same_seed_repeats():
    config = toy_config(5)
    first = placement_improvement_curves(config, 0.0, toy_algorithms(config))
    again = placement_improvement_curves(config, 0.0, toy_algorithms(config))
    other_config = toy_config(6)
    other = placement_improvement_curves(other_config, 0.0, toy_algorithms(other_config))
    assert harness.curve_digest(first) == harness.curve_digest(again)
    assert harness.curve_digest(first) != harness.curve_digest(other)


# -- Oracle -----------------------------------------------------------------------------


def test_perturbed_curve_value_trips_the_sweep_oracle():
    config = toy_config(5)
    algorithms = toy_algorithms(config)
    measured = placement_improvement_curves(config, 0.3, algorithms)
    rebuilt = sweeps.recompute_column(config, 0.3, 9, algorithms)
    assert sweeps.column_digest(sweeps.column(measured, 9)) == sweeps.column_digest(rebuilt)
    rows = sweeps.column(measured, 9)
    label, value, ci, n = rows[2]
    rows[2] = (label, float(np.nextafter(value, np.inf)), ci, n)  # one ulp
    assert sweeps.column_digest(rows) != sweeps.column_digest(rebuilt)


def _report_for(plan):
    records = []
    for index, request in enumerate(plan):
        solution = solve_request(request)
        digest = harness.solution_digest(
            solution.algorithm, solution.picks, solution.errors.tobytes(), solution.base_mean
        )
        records.append([index, 0.0, 0.01, serve_mixed.is_hot(request), digest])
    return {"records": records, "errors": [], "wall": 1.0}


def test_perturbed_response_byte_trips_the_serve_oracle():
    plan = [toy_request(), toy_request(algorithm="max", field_index=serve_mixed.MISS_BASE)]
    report = _report_for(plan)
    assert serve_mixed.check(plan, report, lambda _m: None) == (2, 0)
    solution = solve_request(plan[0])
    data = bytearray(solution.errors.tobytes())
    data[17] ^= 0x01
    report["records"][0][4] = harness.solution_digest(
        solution.algorithm, solution.picks, bytes(data), solution.base_mean
    )
    assert serve_mixed.check(plan, report, lambda _m: None) == (2, 1)


def test_wrong_cache_flag_trips_the_serve_oracle():
    plan = [toy_request()]
    report = _report_for(plan)
    report["records"][0][3] = False  # a hot-set field reported as a miss
    assert serve_mixed.check(plan, report, lambda _m: None)[1] == 1


# -- Tracer --------------------------------------------------------------------------------


def test_tracer_self_time_and_clean_uninstall():
    from repro.radio.beacon_noise import BeaconNoiseRealization
    from repro.sim.trial import TrialWorld

    original = TrialWorld.__dict__["connectivity"]
    tracer = layers.install(layers.Tracer())
    try:
        config = toy_config(5)
        placement_improvement_curves(config, 0.3, toy_algorithms(config))
    finally:
        tracer.uninstall()
    assert TrialWorld.__dict__["connectivity"] is original
    assert "connectivity" not in BeaconNoiseRealization.__dict__
    totals = tracer.totals()
    spans = totals["spans"]
    assert spans[layers.BUILD_WORLD][1] == 6  # 2 counts x 3 fields
    assert spans[layers.TRIAL_CONN][0] > 0
    assert all(self_s >= 0 for *_, self_s in tracer.spans)
    assert 0 < totals["counts"]["jitter_pairs_useful"] <= totals["counts"]["jitter_pairs_hashed"]


def test_jitter_band_matches_the_cm_threshold_reading():
    lo, hi = layers._jitter_band(0.5, 15.0, 0.9)
    assert lo == pytest.approx(15.0 * (1 - 1.8 * 0.5))
    assert hi == pytest.approx(15.0 * (1 + 0.2 * 0.5))
    assert layers._jitter_band(0.0, 15.0, 0.9) == (15.0, 15.0)


# -- Entry point ------------------------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
