"""Opt-in profiling: a per-stage breakdown plus a cProfile capture.

The ``--profile`` CLI flag wraps a whole command in a
:class:`ProfileSession`.  Two complementary views come out:

* **stages** — instrumented code times coarse stages as
  ``stage.<name>.seconds`` histograms in the metrics registry
  (``get_metrics().histogram("stage.world.build.seconds").time()``); the
  report is a per-stage table (count, total, mean, share of profiled wall
  time).  Stages answer "where does the run spend its time" at the
  granularity the methodology cares about (world build, survey, scoring,
  event loop).  Being ordinary histograms, they ship home from pool chunks
  and socket heartbeats like every other metric, so the table is the same
  whichever backend ran the cells.
* **cProfile** — the standard deterministic profiler runs underneath and
  the report appends the top functions by cumulative time, for when the
  stage view points somewhere surprising.

Profiling is strictly opt-in and never on during tier-1 runs, so its
(considerable) interpreter overhead is irrelevant to the <3% off-mode
budget enforced by ``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time

from .metrics import get_metrics

__all__ = ["ProfileSession", "enable_profiling", "disable_profiling"]

_STAGE_PREFIX, _STAGE_SUFFIX = "stage.", ".seconds"


class ProfileSession:
    """One profiled command: a cProfile capture and its wall time.

    Use as a context manager (or call :meth:`start`/:meth:`stop`); render
    the report with :meth:`render` after stopping, while the metrics
    registry that recorded the stages is still installed.
    """

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self._t0: float | None = None
        self.wall_seconds = 0.0

    def start(self) -> None:
        """Begin profiling (idempotent)."""
        if self._t0 is None:
            self._t0 = time.perf_counter()
            self._profile.enable()

    def stop(self) -> None:
        """Stop profiling and freeze the wall-clock total (idempotent)."""
        if self._t0 is not None:
            self._profile.disable()
            self.wall_seconds += time.perf_counter() - self._t0
            self._t0 = None

    def __enter__(self) -> "ProfileSession":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stage_rows(self) -> list[tuple]:
        """``(stage, count, total s, mean s, share)`` rows, biggest first.

        Read from the active registry's ``stage.<name>.seconds``
        histograms; ``share`` is the stage total over the profiled wall
        time.
        """
        stages = {
            name[len(_STAGE_PREFIX) : -len(_STAGE_SUFFIX)]: hist
            for name, hist in get_metrics().snapshot()["histograms"].items()
            if name.startswith(_STAGE_PREFIX) and name.endswith(_STAGE_SUFFIX)
        }
        total = self.wall_seconds or sum(h["sum"] for h in stages.values()) or 1.0
        rows = [
            (name, h["count"], h["sum"], h["sum"] / h["count"], h["sum"] / total)
            for name, h in stages.items()
            if h["count"]
        ]
        rows.sort(key=lambda r: r[2], reverse=True)
        return rows

    def render(self, *, top: int = 15) -> str:
        """The full profile report (stage table + top cProfile functions)."""
        from ..viz import format_table

        lines = [f"profiled wall time: {self.wall_seconds:.3f} s"]
        stage_rows = self.stage_rows()
        if stage_rows:
            rows = [
                (name, count, f"{total:.3f}", f"{mean * 1e3:.2f}", f"{share:.1%}")
                for name, count, total, mean, share in stage_rows
            ]
            lines.append("")
            lines.append(
                "stages (share = stage total / profiled wall time; stages nest, "
                "and worker stages add up across workers)"
            )
            lines.append(
                format_table(
                    ("stage", "count", "total (s)", "mean (ms)", "share"), rows
                )
            )
        stream = io.StringIO()
        stats = pstats.Stats(self._profile, stream=stream)
        stats.sort_stats("cumulative").print_stats(top)
        lines.append("")
        lines.append(f"top {top} functions by cumulative time (cProfile):")
        lines.append(stream.getvalue().rstrip())
        return "\n".join(lines)


_active: ProfileSession | None = None


def enable_profiling(session: ProfileSession | None = None) -> ProfileSession:
    """Install (and start) a profile session for this process."""
    global _active
    _active = session if session is not None else ProfileSession()
    _active.start()
    return _active


def disable_profiling() -> None:
    """Stop any active session."""
    global _active
    if _active is not None:
        _active.stop()
    _active = None
