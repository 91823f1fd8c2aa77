"""Summary statistics with confidence intervals.

All figures in the paper carry 95 % confidence intervals over the 1000
replicated beacon fields; these helpers compute the matching t-based
intervals (and medians with order-statistic intervals) for our replications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MeanCI", "mean_ci", "median_ci"]


@dataclass(frozen=True)
class MeanCI:
    """A point estimate with a symmetric confidence half-width.

    Attributes:
        value: the point estimate.
        half_width: half-width of the confidence interval (0 for n = 1).
        n: number of samples.
        confidence: the confidence level used.
    """

    value: float
    half_width: float
    n: int
    confidence: float

    @property
    def low(self) -> float:
        """Lower confidence bound."""
        return self.value - self.half_width

    @property
    def high(self) -> float:
        """Upper confidence bound."""
        return self.value + self.half_width


def mean_ci(samples, confidence: float = 0.95) -> MeanCI:
    """Sample mean with a Student-t confidence interval.

    NaN samples are dropped (they encode excluded measurements upstream).

    Raises:
        ValueError: if no finite samples remain.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    x = np.asarray(samples, dtype=float)
    x = x[~np.isnan(x)]
    if x.size == 0:
        raise ValueError("mean_ci requires at least one finite sample")
    mean = float(x.mean())
    if x.size == 1:
        return MeanCI(mean, 0.0, 1, confidence)
    sem = float(x.std(ddof=1)) / np.sqrt(x.size)
    # scipy.stats is imported here, not at module level: it is most of the
    # package's import time, which every spawned sweep worker would pay for
    # cells that never compute an interval.
    from scipy import stats as sps

    t_crit = float(sps.t.ppf(0.5 + confidence / 2.0, df=x.size - 1))
    return MeanCI(mean, t_crit * sem, int(x.size), confidence)


def median_ci(samples, confidence: float = 0.95) -> MeanCI:
    """Sample median with a distribution-free order-statistic interval.

    Uses the binomial order-statistic bounds; for tiny samples the interval
    degenerates to the data range.  Reported as a symmetric half-width for
    uniformity (the larger of the two sides).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    x = np.sort(np.asarray(samples, dtype=float))
    x = x[~np.isnan(x)]
    if x.size == 0:
        raise ValueError("median_ci requires at least one finite sample")
    med = float(np.median(x))
    n = x.size
    if n < 3:
        half = float(x.max() - x.min()) / 2.0
        return MeanCI(med, half, n, confidence)
    from scipy import stats as sps

    lo_idx = int(sps.binom.ppf((1.0 - confidence) / 2.0, n, 0.5))
    hi_idx = int(sps.binom.isf((1.0 - confidence) / 2.0, n, 0.5))
    lo_idx = max(min(lo_idx, n - 1), 0)
    hi_idx = max(min(hi_idx, n - 1), 0)
    half = max(med - float(x[lo_idx]), float(x[hi_idx]) - med)
    return MeanCI(med, half, n, confidence)
