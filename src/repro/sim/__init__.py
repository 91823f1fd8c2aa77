"""Experiment harness: configuration, RNG streams, trials, sweeps, results."""

from .config import ExperimentConfig, PAPER_NOISE_LEVELS, bench_config, paper_config
from .executors import (
    CellExecutor,
    PoolExecutor,
    SerialExecutor,
    SocketExecutor,
    WorkerRejected,
    make_executor,
    run_worker,
    spawn_context,
    validate_workers,
)
from .kernels import (
    batch_surface_stats,
    kernel_mode,
    set_kernel_mode,
    warm_worlds,
)
from .incremental import (
    AddBeacon,
    FieldCache,
    FieldState,
    MoveBeacon,
    RemoveBeacon,
    default_field_cache,
    expected_le_field,
    field_fingerprint,
    scan_candidates,
)
from .io import (
    read_curve_set,
    read_time_curve_set,
    write_curve_set,
    write_time_curve_set,
)
from .resilient import (
    RetryPolicy,
    SweepJournal,
    mean_error_curve,
    placement_improvement_curves,
    resilient_mean_error_curve,
    resilient_placement_improvement_curves,
    run_cells,
    sweep_fingerprint,
)
from .results import Curve, CurveSet, TimeCurve
from .rng import derive_rng, derive_seed_sequence
from .sweep import build_world, default_model_factory
from .timeline import (
    TimelineConfig,
    fault_error_timeline,
    timeline_models_from_specs,
)
from .trial import TrialOutcome, TrialWorld, run_placement_trial

__all__ = [
    "ExperimentConfig",
    "PAPER_NOISE_LEVELS",
    "paper_config",
    "bench_config",
    "derive_rng",
    "derive_seed_sequence",
    "TrialWorld",
    "TrialOutcome",
    "run_placement_trial",
    "FieldState",
    "FieldCache",
    "AddBeacon",
    "RemoveBeacon",
    "MoveBeacon",
    "field_fingerprint",
    "expected_le_field",
    "default_field_cache",
    "scan_candidates",
    "build_world",
    "default_model_factory",
    "kernel_mode",
    "set_kernel_mode",
    "warm_worlds",
    "batch_surface_stats",
    "mean_error_curve",
    "placement_improvement_curves",
    "spawn_context",
    "validate_workers",
    "CellExecutor",
    "SerialExecutor",
    "PoolExecutor",
    "SocketExecutor",
    "WorkerRejected",
    "make_executor",
    "run_worker",
    "RetryPolicy",
    "SweepJournal",
    "run_cells",
    "sweep_fingerprint",
    "resilient_mean_error_curve",
    "resilient_placement_improvement_curves",
    "Curve",
    "CurveSet",
    "TimeCurve",
    "TimelineConfig",
    "fault_error_timeline",
    "timeline_models_from_specs",
    "write_curve_set",
    "read_curve_set",
    "write_time_curve_set",
    "read_time_curve_set",
]
