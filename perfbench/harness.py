"""Helpers shared by every workload: seeds, percentiles, digests, memory.

Nothing here imports the program under test, so the self-tests and the
pool workers (which re-import the entry script) stay cheap.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import resource
import struct
import time
from dataclasses import dataclass

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the "tail" is one or two outliers, not a tail.
MIN_TAIL_SAMPLES = 10

#: Set-ups timed per run, each from a fresh process; the median is reported.
SETUP_REPEATS = 3

#: Tail percentiles tried from the highest down (see :func:`timing`).
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0)


def derive_seed(seed: int, *parts) -> int:
    """A 31-bit seed derived from ``seed`` and a label path.

    Every measured repetition gets its own derived seed, so the program's
    process-local field and realization caches never replay an earlier
    repetition: a user regenerates a figure in a fresh process.
    """
    text = "/".join([str(int(seed))] + [str(p) for p in parts]).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") & 0x7FFFFFFF


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation between ranks).

    Raises:
        ValueError: for an empty sample, or for a percentile above the
            median with fewer than :data:`MIN_TAIL_SAMPLES` samples beyond
            it.
    """
    data = sorted(float(v) for v in values)
    n = len(data)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if q > 50.0 and n * (100.0 - q) / 100.0 < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} needs at least {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{n} samples leave {n * (100.0 - q) / 100.0:.1f}"
        )
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


@dataclass(frozen=True)
class Timing:
    """A timing summary: median, the highest supported tail, sample count."""

    p50: float
    tail_q: float | None
    tail: float | None
    n: int

    def describe(self, unit: str, scale: float = 1.0) -> str:
        text = f"p50 {self.p50 * scale:.4g} {unit}"
        if self.tail_q is not None:
            text += f", p{self.tail_q:g} {self.tail * scale:.4g} {unit}"
        else:
            text += f" (no tail: fewer than {MIN_TAIL_SAMPLES} samples beyond p75)"
        return text + f", n={self.n}"


def timing(values) -> Timing:
    """Median plus the highest of :data:`TAIL_CANDIDATES` the sample supports."""
    values = list(values)
    p50 = percentile(values, 50.0)
    for q in TAIL_CANDIDATES:
        try:
            return Timing(p50, q, percentile(values, q), len(values))
        except ValueError:
            continue
    return Timing(p50, None, None, len(values))


def lower_tail(values) -> Timing:
    """Like :func:`timing` for a higher-is-better rate: the tail is low.

    The low tail of a rate is the high tail of its reciprocal, so the same
    ten-samples-beyond rule applies.
    """
    t = timing([-v for v in values])
    return Timing(
        -t.p50, t.tail_q, None if t.tail is None else -t.tail, t.n
    )


def float_bytes(values) -> bytes:
    """Exact IEEE-754 bytes of a float sequence (NaN payloads included)."""
    values = [float(v) for v in values]
    return struct.pack(f"<{len(values)}d", *values)


def curve_digest(curve_sets) -> str:
    """sha256 over every curve's label, counts, values, CIs and samples."""
    h = hashlib.sha256()
    for curve_set in curve_sets:
        for curve in curve_set.curves:
            h.update(curve.label.encode())
            h.update(struct.pack(f"<{len(curve.counts)}q", *curve.counts))
            h.update(float_bytes(curve.values))
            h.update(float_bytes(curve.ci_half_widths))
            h.update(struct.pack(f"<{len(curve.num_samples)}q", *curve.num_samples))
    return h.hexdigest()[:16]


def solution_digest(algorithm: str, picks, errors_bytes: bytes, base_mean: float) -> str:
    """sha256 over a placement answer: picks, LE-map bytes and base mean."""
    h = hashlib.sha256()
    h.update(algorithm.encode())
    h.update(float_bytes([c for pick in picks for c in pick]))
    h.update(errors_bytes)
    h.update(float_bytes([base_mean]))
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every multiprocessing child has exited.

    A pool shut down with ``wait=False`` lets its workers exit in the
    background; joining them here makes their peak RSS count and leaves no
    process behind.  Stragglers past ``timeout`` are killed and joined.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() >= deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join()
            return
        time.sleep(0.05)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if the run started one.

    The first shared-memory segment (the pool's world-state publish)
    starts a tracker process that would otherwise outlive this one briefly;
    stopping it here waits for it to end.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    """The final JSON object: every metric as ``{"value", "unit"}``."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
