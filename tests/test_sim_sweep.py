"""Unit tests for the §4 methodology drivers: worlds and figure sweeps."""

import numpy as np
import pytest

from repro.placement import GridPlacement, MaxPlacement, RandomPlacement
from repro.radio import BeaconNoiseModel
from repro.sim import (
    SerialExecutor,
    build_world,
    default_model_factory,
    make_executor,
    mean_error_curve,
    placement_improvement_curves,
    resilient_mean_error_curve,
    resilient_placement_improvement_curves,
)


class TestBuildWorld:
    def test_reproducible(self, tiny_config):
        a = build_world(tiny_config, 0.3, 20, 1)
        b = build_world(tiny_config, 0.3, 20, 1)
        assert np.array_equal(a.field.positions(), b.field.positions())
        assert np.array_equal(a.connectivity(), b.connectivity())

    def test_field_geometry_shared_across_noise(self, tiny_config):
        ideal = build_world(tiny_config, 0.0, 20, 2)
        noisy = build_world(tiny_config, 0.3, 20, 2)
        assert np.array_equal(ideal.field.positions(), noisy.field.positions())

    def test_different_field_index_differs(self, tiny_config):
        a = build_world(tiny_config, 0.0, 20, 0)
        b = build_world(tiny_config, 0.0, 20, 1)
        assert not np.array_equal(a.field.positions(), b.field.positions())

    def test_count_respected(self, tiny_config):
        assert len(build_world(tiny_config, 0.0, 40, 0).field) == 40

    def test_custom_model_factory(self, tiny_config):
        def factory(noise):
            return BeaconNoiseModel(tiny_config.radio_range, noise, u_granularity="beacon")

        world = build_world(tiny_config, 0.3, 20, 0, model_factory=factory)
        assert world.connectivity().shape == (tiny_config.num_measurement_points, 20)


class TestMeanErrorCurve:
    def test_shape_and_labels(self, tiny_config):
        curve = mean_error_curve(tiny_config, 0.0)
        assert curve.label == "Ideal"
        assert len(curve) == len(tiny_config.beacon_counts)
        assert curve.counts == tiny_config.beacon_counts

    def test_noise_label(self, tiny_config):
        assert mean_error_curve(tiny_config, 0.3).label == "Noise=0.3"

    def test_label_default(self, tiny_config):
        assert mean_error_curve(tiny_config, 0.0, workers=1).label == "Ideal"

    def test_error_decreases_with_density(self, tiny_config):
        curve = mean_error_curve(tiny_config.with_fields(5), 0.0)
        assert curve.values[0] > curve.values[-1]

    def test_ci_nonnegative_and_sane(self, tiny_config):
        curve = mean_error_curve(tiny_config, 0.0)
        assert all(h >= 0 for h in curve.ci_half_widths)
        assert all(n == tiny_config.fields_per_density for n in curve.num_samples)

    def test_progress_callback_invoked(self, tiny_config):
        messages = []
        mean_error_curve(tiny_config, 0.0, progress=messages.append)
        assert len(messages) == len(tiny_config.beacon_counts)

    def test_deterministic(self, tiny_config):
        a = mean_error_curve(tiny_config, 0.3)
        b = mean_error_curve(tiny_config, 0.3)
        assert a.values == b.values


class TestPlacementImprovementCurves:
    @pytest.fixture
    def algorithms(self, tiny_config):
        return [
            RandomPlacement(),
            MaxPlacement(),
            GridPlacement(tiny_config.grid_layout()),
        ]

    def test_curve_sets_structure(self, tiny_config, algorithms):
        mean_set, median_set = placement_improvement_curves(tiny_config, 0.0, algorithms)
        assert mean_set.labels() == ["random", "max", "grid"]
        assert median_set.labels() == ["random", "max", "grid"]
        assert mean_set.meta["metric"] == "mean"

    def test_duplicate_names_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="unique"):
            placement_improvement_curves(
                tiny_config, 0.0, [RandomPlacement(), RandomPlacement()]
            )

    def test_deterministic(self, tiny_config, algorithms):
        a, _ = placement_improvement_curves(tiny_config, 0.0, algorithms)
        b, _ = placement_improvement_curves(tiny_config, 0.0, algorithms)
        for ca, cb in zip(a.curves, b.curves):
            assert ca.values == cb.values

    def test_grid_beats_random_at_low_density(self, tiny_config, algorithms):
        config = tiny_config.with_counts([8]).with_fields(10)
        mean_set, _ = placement_improvement_curves(config, 0.0, algorithms)
        assert mean_set.curve("grid").values[0] > mean_set.curve("random").values[0]

    def test_progress_callback(self, tiny_config, algorithms):
        messages = []
        placement_improvement_curves(
            tiny_config.with_counts([8]), 0.0, algorithms, progress=messages.append
        )
        assert messages and "gains" in messages[0]


class TestOneEngine:
    """Both figure sweeps are one body over run_cells, whatever the backend."""

    @pytest.fixture
    def algorithms(self):
        return [RandomPlacement(), MaxPlacement()]

    def test_resilient_names_are_the_same_functions(self):
        assert resilient_mean_error_curve is mean_error_curve
        assert resilient_placement_improvement_curves is placement_improvement_curves

    def test_workers_one_matches_serial(self, tiny_config):
        """The default path and a caller-supplied serial executor give the
        same curve."""
        default = mean_error_curve(tiny_config, 0.3, workers=1)
        explicit = mean_error_curve(tiny_config, 0.3, executor=SerialExecutor())
        assert explicit.values == default.values
        assert explicit.ci_half_widths == default.ci_half_widths

    def test_mean_error_two_workers_match_serial(self, tiny_config):
        """Determinism survives the pool: named streams, no shared state."""
        serial = mean_error_curve(tiny_config, 0.0)
        pooled = mean_error_curve(tiny_config, 0.0, workers=2)
        assert pooled.values == serial.values
        assert pooled.ci_half_widths == serial.ci_half_widths

    def test_improvements_two_workers_match_serial(self, tiny_config, algorithms):
        config = tiny_config.with_counts([8, 20])
        serial_mean, serial_median = placement_improvement_curves(config, 0.0, algorithms)
        pooled_mean, pooled_median = placement_improvement_curves(
            config, 0.0, algorithms, workers=2
        )
        for s, p in zip(serial_mean.curves, pooled_mean.curves):
            assert s.values == p.values
        for s, p in zip(serial_median.curves, pooled_median.curves):
            assert s.values == p.values

    def test_duplicate_names_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="unique"):
            placement_improvement_curves(
                tiny_config, 0.0, [RandomPlacement(), RandomPlacement()], workers=2
            )

    def test_meta_records_workers(self, tiny_config, algorithms):
        config = tiny_config.with_counts([8])
        mean_set, median_set = placement_improvement_curves(
            config, 0.0, algorithms, workers=2
        )
        assert mean_set.meta["workers"] == median_set.meta["workers"] == 2
        assert mean_set.meta["failed_cells"] == 0
        serial_set, _ = placement_improvement_curves(config, 0.0, algorithms)
        assert serial_set.meta["workers"] == 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_bad_workers(self, tiny_config, algorithms, workers, tmp_path):
        journal = tmp_path / "j.jsonl"
        with pytest.raises(ValueError, match="workers"):
            mean_error_curve(tiny_config, 0.0, workers=workers, journal_path=journal)
        with pytest.raises(ValueError, match="workers"):
            placement_improvement_curves(tiny_config, 0.0, algorithms, workers=workers)
        assert not journal.exists()  # refused before anything was written

    def test_progress_fires_once_per_count_in_config_order(self, tiny_config, algorithms):
        config = tiny_config.with_counts([20, 8, 40])
        lines = []
        curve = mean_error_curve(config, 0.3, progress=lines.append)
        assert [line.split("count=")[1].split()[0] for line in lines] == ["20", "8", "40"]
        for line, value in zip(lines, curve.values):
            assert line.startswith("Noise=0.3: ") and f"mean={value:.2f} m" in line
        lines.clear()
        mean_set, _ = placement_improvement_curves(
            config, 0.0, algorithms, progress=lines.append
        )
        assert [line.split("count=")[1].split(":")[0] for line in lines] == ["20", "8", "40"]
        random_curve = mean_set.curve("random")
        for line, value in zip(lines, random_curve.values):
            assert line.startswith("noise=0 count=") and f"random={value:.3f}" in line

    def test_progress_keeps_config_order_on_other_backends(self, tiny_config):
        """Heaviest-first dispatch never reorders the per-density lines."""
        lines = []
        with make_executor("pool", workers=2) as executor:
            mean_error_curve(tiny_config, 0.0, progress=lines.append, executor=executor)
        counts = [int(line.split("count=")[1].split()[0]) for line in lines]
        assert counts == list(tiny_config.beacon_counts)

    def test_model_factory_runs_in_process(self, tiny_config):
        """A custom family runs scalar and bit-identically to the default."""
        factory = default_model_factory(tiny_config)
        custom = mean_error_curve(tiny_config, 0.3, model_factory=factory)
        explicit = mean_error_curve(
            tiny_config, 0.3, model_factory=factory, executor=SerialExecutor()
        )
        reference = mean_error_curve(tiny_config, 0.3)
        assert custom.values == explicit.values == reference.values
        assert custom.ci_half_widths == reference.ci_half_widths

    def test_model_factory_changes_the_model(self, tiny_config):
        def factory(noise):
            return BeaconNoiseModel(tiny_config.radio_range, noise, u_granularity="beacon")

        custom = mean_error_curve(tiny_config, 0.3, model_factory=factory)
        assert custom.values != mean_error_curve(tiny_config, 0.3).values

    def test_model_factory_refused_off_the_serial_executor(
        self, tiny_config, algorithms, tmp_path
    ):
        factory = default_model_factory(tiny_config)
        with pytest.raises(ValueError, match="model_factory"):
            mean_error_curve(tiny_config, 0.0, model_factory=factory, workers=2)
        with pytest.raises(ValueError, match="journal"):
            mean_error_curve(
                tiny_config, 0.0, model_factory=factory,
                journal_path=tmp_path / "j.jsonl",
            )
        with make_executor("pool", workers=2) as pool:
            with pytest.raises(ValueError, match="model_factory"):
                placement_improvement_curves(
                    tiny_config, 0.0, algorithms, model_factory=factory, executor=pool
                )
        with pytest.raises(ValueError, match="model_factory"):
            placement_improvement_curves(
                tiny_config, 0.0, algorithms, model_factory=factory, workers=2
            )
        assert not (tmp_path / "j.jsonl").exists()

    def test_serial_sweeps_run_unplanned(self, tiny_config, algorithms, monkeypatch):
        """On the serial executor no world is pre-warmed: each trial computes
        its own connectivity, one world at a time."""
        from repro.sim import resilient
        from repro.sim.trial import TrialWorld

        warmed, connected = [], []
        real_connectivity = TrialWorld.connectivity

        def spy(world):
            connected.append(len(world.field))
            return real_connectivity(world)

        monkeypatch.setattr(resilient, "warm_worlds", warmed.append)
        monkeypatch.setattr(TrialWorld, "connectivity", spy)
        config = tiny_config.with_counts([8, 20])
        mean_error_curve(config, 0.3)
        placement_improvement_curves(config, 0.3, algorithms, executor=SerialExecutor())
        assert warmed == []
        assert set(connected) >= {8, 20}

    def test_failing_cell_degrades_on_the_default_path(self, tiny_config, monkeypatch):
        """A cell that raises is retried, then NaN-degraded — the in-process
        default no longer lets the exception escape the sweep."""
        from repro.sim import RetryPolicy
        from repro.sim import resilient

        real = resilient.build_world
        calls = []

        def flaky(config, noise, count, index, **kwargs):
            if (count, index) == (20, 1):
                calls.append(index)
                raise RuntimeError("injected")
            return real(config, noise, count, index, **kwargs)

        monkeypatch.setattr(resilient, "build_world", flaky)
        curve = mean_error_curve(tiny_config, 0.0, policy=RetryPolicy(backoff=0.0))
        assert curve.meta["failed_cells"] == 1
        assert curve.num_samples == (3, 2, 3)
        assert curve.coverage()[1] == pytest.approx(2 / 3)
        # The serial executor runs cells unplanned: three scalar attempts.
        assert len(calls) == RetryPolicy().max_attempts
