"""Unit tests for repro.sim.resilient (checkpoints, retries, degradation)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.placement import MaxPlacement, RandomPlacement
from repro.sim import (
    RetryPolicy,
    SweepJournal,
    mean_error_curve,
    placement_improvement_curves,
    resilient_mean_error_curve,
    resilient_placement_improvement_curves,
    run_cells,
    sweep_fingerprint,
)
from repro.sim.resilient import _canon_key


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)

    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.timeout is None


class TestJournal:
    def test_create_record_reload(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal.open(path, "abc123") as journal:
            journal.record((0.0, 8, 0), ok=True, value=1.5, attempts=1)
            journal.record((0.0, 8, 1), ok=False, attempts=3, error="boom")
        reloaded = SweepJournal.open(path, "abc123")
        assert len(reloaded) == 2
        assert reloaded.num_completed == 1
        assert reloaded.entry((0.0, 8, 0))["value"] == 1.5
        assert reloaded.entry((0.0, 8, 1))["error"] == "boom"

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        SweepJournal.open(path, "abc123").close()
        with pytest.raises(ValueError, match="different sweep"):
            SweepJournal.open(path, "def456")

    def test_partial_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with SweepJournal.open(path, "abc123") as journal:
            journal.record((0,), ok=True, value=1.0, attempts=1)
            journal.record((1,), ok=True, value=2.0, attempts=1)
        # Simulate a kill mid-write: chop the last line in half.
        text = path.read_text()
        path.write_text(text[: len(text) - 10])
        reloaded = SweepJournal.open(path, "abc123")
        assert reloaded.entry((0,))["value"] == 1.0
        assert reloaded.entry((1,)) is None

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"kind": "cell", "key": [0], "ok": true}\n')
        with pytest.raises(ValueError, match="header"):
            SweepJournal.open(path, "abc123")

    def test_truncated_header_recreated_with_warning(self, tmp_path):
        """A kill during the very first write leaves half a header line; the
        journal is unrecoverable (no cells can exist yet) and must be
        recreated rather than crash every future resume."""
        path = tmp_path / "sweep.jsonl"
        with SweepJournal.open(path, "abc123") as journal:
            journal.record((0,), ok=True, value=1.0, attempts=1)
        text = path.read_text()
        path.write_text(text[:10])  # mid-header kill
        with pytest.warns(RuntimeWarning, match="truncated header"):
            journal = SweepJournal.open(path, "abc123")
        journal.record((0,), ok=True, value=2.0, attempts=1)
        journal.close()
        reloaded = SweepJournal.open(path, "abc123")
        assert reloaded.entry((0,))["value"] == 2.0

    def test_empty_file_recreated_with_warning(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text("")
        with pytest.warns(RuntimeWarning, match="truncated header"):
            journal = SweepJournal.open(path, "abc123")
        journal.close()
        assert SweepJournal.open(path, "abc123") is not None

    def test_fingerprint_depends_on_config(self, tiny_config):
        a = sweep_fingerprint("mean-error", tiny_config)
        b = sweep_fingerprint("mean-error", tiny_config.with_fields(5))
        c = sweep_fingerprint("improvement", tiny_config)
        assert a != b and a != c

    def test_fingerprint_stable_across_calls(self, tiny_config):
        from repro.faults import CompositeFault, CrashFault, DriftFault
        from repro.sim.resilient import _fault_extra

        model = CompositeFault([CrashFault(30.0), DriftFault(0.5, 5.0)])
        a = sweep_fingerprint("mean-error", tiny_config, _fault_extra(model, 60.0))
        fresh = CompositeFault([CrashFault(30.0), DriftFault(0.5, 5.0)])
        b = sweep_fingerprint("mean-error", tiny_config, _fault_extra(fresh, 60.0))
        assert a == b

    def test_fingerprint_rejects_non_canonical_extra(self, tiny_config):
        """Objects whose identity would hinge on an unstable str() are
        refused outright — a silently drifting fingerprint defeats resume."""

        class Opaque:
            pass

        with pytest.raises(TypeError, match="non-JSON-canonical"):
            sweep_fingerprint("mean-error", tiny_config, {"faults": Opaque()})

    def test_fingerprint_identical_across_processes(self, tiny_config):
        """The regression that motivated canonical extras: two fresh
        interpreters must fingerprint the same sweep identically, or a
        restarted run silently refuses (or worse, mixes) its own journal."""
        code = (
            "from repro.faults import CompositeFault, CrashFault, DriftFault\n"
            "from repro.sim import ExperimentConfig, sweep_fingerprint\n"
            "from repro.sim.resilient import _fault_extra\n"
            "config = ExperimentConfig(side=60.0, radio_range=12.0, step=3.0,\n"
            "    num_grids=100, beacon_counts=(8, 20, 40), noise_levels=(0.0, 0.3),\n"
            "    fields_per_density=3, seed=99)\n"
            "model = CompositeFault([CrashFault(30.0), DriftFault(0.5, 5.0)])\n"
            "print(sweep_fingerprint('mean-error', config, _fault_extra(model, 60.0)))\n"
        )
        import repro

        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src_root)
        prints = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert prints[0] == prints[1]
        # And both match this process.
        from repro.faults import CompositeFault, CrashFault, DriftFault
        from repro.sim.resilient import _fault_extra

        model = CompositeFault([CrashFault(30.0), DriftFault(0.5, 5.0)])
        here = sweep_fingerprint("mean-error", tiny_config, _fault_extra(model, 60.0))
        assert prints[0] == here


class TestRunCells:
    def test_basic(self):
        results = run_cells([((i,), i) for i in range(4)], lambda x: x * 2)
        assert results == {(0,): 0, (1,): 2, (2,): 4, (3,): 6}

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_cells([((0,), 1), ((0,), 2)], lambda x: x)

    def test_retry_then_success(self):
        calls = {"n": 0}

        def flaky(args):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return 42

        results = run_cells(
            [(("cell",), None)],
            flaky,
            policy=RetryPolicy(max_attempts=3, backoff=0.0),
        )
        assert results[("cell",)] == 42
        assert calls["n"] == 3

    def test_degrades_to_none_after_exhaustion(self, tmp_path):
        journal = SweepJournal.open(tmp_path / "j.jsonl", "fp")

        def always_fails(args):
            raise RuntimeError("permanent")

        results = run_cells(
            [(("cell",), None)],
            always_fails,
            policy=RetryPolicy(max_attempts=2, backoff=0.0),
            journal=journal,
        )
        journal.close()
        assert results[("cell",)] is None
        entry = journal.entry(("cell",))
        assert entry["ok"] is False
        assert entry["attempts"] == 2
        assert "permanent" in entry["error"]

    def test_journaled_cells_not_recomputed(self, tmp_path):
        """A resumed cell returns the recorded value — compute never runs."""
        path = tmp_path / "j.jsonl"
        with SweepJournal.open(path, "fp") as journal:
            journal.record(("done",), ok=True, value=123.0, attempts=1)

        def poison(args):
            raise AssertionError("recomputed a journaled cell")

        with SweepJournal.open(path, "fp") as journal:
            results = run_cells([(("done",), None)], poison, journal=journal)
        assert results[("done",)] == 123.0

    def test_failed_journal_cells_are_retried(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal.open(path, "fp") as journal:
            journal.record(("cell",), ok=False, attempts=3, error="old failure")
        with SweepJournal.open(path, "fp") as journal:
            results = run_cells([(("cell",), 7)], lambda x: x + 1, journal=journal)
        assert results[("cell",)] == 8

    def test_canon_key_round_trips_through_json(self):
        key = _canon_key((0.3, np.int64(20), "grid"))
        assert _canon_key(json.loads(json.dumps(list(key)))) == key


def _sleepy_cell(args):
    if args == "stall":
        time.sleep(25.0)
    if args == "die":
        os._exit(1)
    return args * 2


class TestPoolResilience:
    def test_timeout_degrades_stuck_cell(self):
        # Worker start-up never counts against a chunk's deadline (a slot
        # gets work only once it reports ready), so a short timeout only
        # has to outlast the cells themselves.  The stalled cell times out
        # both times; only its own process is killed and respawned.
        results = run_cells(
            [(("a",), 1), (("stall",), "stall")],
            _sleepy_cell,
            workers=2,
            policy=RetryPolicy(max_attempts=2, timeout=1.0, backoff=0.0),
        )
        assert results[("a",)] == 2
        assert results[("stall",)] is None

    def test_dead_worker_degrades_cell_and_pool_recovers(self):
        # workers=2 forces the pool path (workers<=1 runs in-process, where
        # an os._exit cell would kill the test run itself).
        results = run_cells(
            [(("die",), "die"), (("b",), 3)],
            _sleepy_cell,
            workers=2,
            policy=RetryPolicy(max_attempts=2, timeout=30.0, backoff=0.0),
        )
        # The dying cell burns its attempts and degrades; its sibling on
        # the other slot is never charged.
        assert results[("die",)] is None
        assert results[("b",)] == 6


class TestResilientCurves:
    def test_matches_plain_serial(self, tiny_config):
        plain = mean_error_curve(tiny_config, 0.3)
        resilient = resilient_mean_error_curve(tiny_config, 0.3)
        assert resilient.values == plain.values
        assert resilient.ci_half_widths == plain.ci_half_widths
        assert resilient.meta["failed_cells"] == 0
        assert resilient.coverage() == (1.0,) * len(plain)

    def test_resume_after_interrupt_is_identical(self, tiny_config, tmp_path):
        """A sweep killed mid-run resumes to byte-identical curves."""
        path = tmp_path / "sweep.jsonl"
        full = resilient_mean_error_curve(tiny_config, 0.0, journal_path=path)
        # Simulate the kill: keep the header and the first 4 cell lines.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")
        resumed = resilient_mean_error_curve(tiny_config, 0.0, journal_path=path)
        assert resumed.values == full.values
        assert resumed.ci_half_widths == full.ci_half_widths

    def test_resume_uses_journal_not_recompute(self, tiny_config, tmp_path, monkeypatch):
        path = tmp_path / "sweep.jsonl"
        resilient_mean_error_curve(tiny_config, 0.0, journal_path=path)

        def poison(args):
            raise AssertionError("cell recomputed despite complete journal")

        monkeypatch.setattr("repro.sim.resilient._mean_error_cell", poison)
        resumed = resilient_mean_error_curve(tiny_config, 0.0, journal_path=path)
        assert all(np.isfinite(resumed.values))

    def test_failed_cells_degrade_to_nan_coverage(self, tiny_config, monkeypatch):
        """One bad cell NaNs its replication but the sweep completes."""
        from repro.sim import resilient as resilient_mod

        real_cell = resilient_mod._mean_error_cell

        def faulty(args):
            config, noise, count, index, faults, fault_time = args
            if count == tiny_config.beacon_counts[0] and index == 0:
                raise RuntimeError("injected")
            return real_cell(args)

        monkeypatch.setattr("repro.sim.resilient._mean_error_cell", faulty)
        curve = resilient_mean_error_curve(
            tiny_config, 0.0, policy=RetryPolicy(max_attempts=2, backoff=0.0)
        )
        assert curve.meta["failed_cells"] == 1
        coverage = curve.coverage()
        expected = 1.0 - 1.0 / tiny_config.fields_per_density
        assert coverage[0] == pytest.approx(expected)
        assert coverage[1:] == (1.0,) * (len(curve) - 1)
        # The degraded point still has a value (from the surviving samples).
        assert np.isfinite(curve.values[0])
        assert curve.num_samples[0] == tiny_config.fields_per_density - 1

    def test_improvement_curves_match_plain(self, tiny_config):
        config = tiny_config.with_counts([8, 20])
        algorithms = [RandomPlacement(), MaxPlacement()]
        plain_mean, plain_median = placement_improvement_curves(
            config, 0.0, algorithms
        )
        res_mean, res_median = resilient_placement_improvement_curves(
            config, 0.0, algorithms
        )
        for s, p in zip(plain_mean.curves, res_mean.curves):
            assert s.values == p.values
        for s, p in zip(plain_median.curves, res_median.curves):
            assert s.values == p.values
        assert res_mean.meta["failed_cells"] == 0

    def test_improvement_curves_resume(self, tiny_config, tmp_path):
        config = tiny_config.with_counts([8])
        algorithms = [RandomPlacement(), MaxPlacement()]
        path = tmp_path / "sweep.jsonl"
        full_mean, _ = resilient_placement_improvement_curves(
            config, 0.0, algorithms, journal_path=path
        )
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")
        resumed_mean, _ = resilient_placement_improvement_curves(
            config, 0.0, algorithms, journal_path=path
        )
        for s, p in zip(full_mean.curves, resumed_mean.curves):
            assert s.values == p.values

    def test_journal_refused_for_other_config(self, tiny_config, tmp_path):
        path = tmp_path / "sweep.jsonl"
        resilient_mean_error_curve(
            tiny_config.with_counts([8]), 0.0, journal_path=path
        )
        with pytest.raises(ValueError, match="different sweep"):
            resilient_mean_error_curve(
                tiny_config.with_counts([8, 20]), 0.0, journal_path=path
            )

    def test_one_journal_serves_multiple_noise_levels(self, tiny_config, tmp_path):
        """Cell keys carry the noise level; the fingerprint does not."""
        config = tiny_config.with_counts([8])
        path = tmp_path / "sweep.jsonl"
        ideal = resilient_mean_error_curve(config, 0.0, journal_path=path)
        noisy = resilient_mean_error_curve(config, 0.3, journal_path=path)
        assert ideal.values != noisy.values
        journal = SweepJournal.open(path, sweep_fingerprint("mean-error", config, None))
        assert len(journal) == 2 * config.fields_per_density
