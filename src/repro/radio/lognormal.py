"""Log-normal shadowing propagation (the "more sophisticated" model of §6).

The paper's future work calls for *"a more sophisticated terrain map and
propagation model"*; log-normal shadowing (Rappaport, ref [15] of the paper)
is the standard such model.  Received path loss at distance ``d`` is::

    PL(d) = PL(d₀) + 10·n·log₁₀(d/d₀) + X_σ,   X_σ ~ N(0, σ_dB)

with a *static* shadowing term per link.  We parameterize by the nominal
range R — the distance at which the link budget is exactly met with zero
shadowing — so the per-link effective range is::

    r_eff = R · 10^(−X_σ / (10·n))

which plugs straight into the package's effective-range interface.  The
static fade is keyed on (seed, beacon id, quantized location) exactly like
the paper's noise model, so it is a location-based time-static field.

Optionally, a fast-fading margin ``σ_fast`` (dB) gives per-message delivery
probabilities for the protocol simulator: the instantaneous fade is normal
around the static link budget, so the success probability is a smooth ramp
in the link margin rather than a hard step.
"""

from __future__ import annotations

import numpy as np

from ..geometry import as_point_array, pairwise_distances
from .base import PropagationModel, PropagationRealization, beacon_rows
from .hashrand import hash_normal, quantize_coords

__all__ = ["LogNormalShadowingModel", "LogNormalShadowingRealization"]

_SHADOW_TAG = np.uint64(0x10D0F1)


class LogNormalShadowingRealization(PropagationRealization):
    """One static shadowing field."""

    def __init__(
        self,
        radio_range: float,
        path_loss_exponent: float,
        sigma_db: float,
        fast_fading_db: float,
        seed: int,
    ):
        self._radio_range = radio_range
        self._n = path_loss_exponent
        self._sigma_db = sigma_db
        self._fast_db = fast_fading_db
        self._seed = np.uint64(seed)

    def shadowing_db(self, points, beacons) -> np.ndarray:
        """Static per-link shadowing ``X_σ`` in dB, shape ``(P, N)``."""
        ids, _ = beacon_rows(beacons)
        pts = as_point_array(points)
        if ids.shape[0] == 0:
            return np.zeros((pts.shape[0], 0))
        qx, qy = quantize_coords(pts)
        z = hash_normal(self._seed, ids[None, :], _SHADOW_TAG, qx[:, None], qy[:, None])
        return self._sigma_db * z

    def effective_ranges(self, points, beacons) -> np.ndarray:
        shadow = self.shadowing_db(points, beacons)
        return self._radio_range * np.power(10.0, -shadow / (10.0 * self._n))

    def link_margin_db(self, points, beacons) -> np.ndarray:
        """Static link margin in dB: positive ⇒ connected.

        ``margin = 10·n·log₁₀(r_eff / d)``; the hard-connectivity rule
        ``d ≤ r_eff`` is exactly ``margin ≥ 0``.
        """
        _, positions = beacon_rows(beacons)
        pts = as_point_array(points)
        if positions.shape[0] == 0:
            return np.zeros((pts.shape[0], 0))
        dist = np.maximum(pairwise_distances(pts, positions), 1e-9)
        r_eff = self.effective_ranges(pts, beacons)
        return 10.0 * self._n * np.log10(r_eff / dist)

    def message_success_probability(self, points, beacons) -> np.ndarray:
        """Per-message delivery probability under fast fading.

        With ``σ_fast = 0`` this is the hard 0/1 connectivity; otherwise
        ``P(success) = Φ(margin / σ_fast)``.
        """
        margin = self.link_margin_db(points, beacons)
        if self._fast_db <= 0.0:
            return (margin >= 0.0).astype(float)
        from scipy.special import ndtr  # imported on use, like scipy.stats

        return ndtr(margin / self._fast_db)


class LogNormalShadowingModel(PropagationModel):
    """Log-normal shadowing parameterized by nominal range.

    Args:
        radio_range: distance at which the link budget is met with zero
            shadowing (meters).
        path_loss_exponent: environment exponent ``n`` (2 free space,
            2.7–4 outdoor/urban).
        sigma_db: shadowing standard deviation (dB); 0 recovers the disk.
        fast_fading_db: optional per-message fading spread (dB) for protocol
            simulations; 0 disables fast fading.
    """

    def __init__(
        self,
        radio_range: float,
        path_loss_exponent: float = 3.0,
        sigma_db: float = 4.0,
        fast_fading_db: float = 0.0,
    ):
        if radio_range <= 0:
            raise ValueError(f"radio_range must be positive, got {radio_range}")
        if path_loss_exponent <= 0:
            raise ValueError(f"path_loss_exponent must be positive, got {path_loss_exponent}")
        if sigma_db < 0 or fast_fading_db < 0:
            raise ValueError("sigma_db and fast_fading_db must be non-negative")
        self._radio_range = float(radio_range)
        self._n = float(path_loss_exponent)
        self._sigma_db = float(sigma_db)
        self._fast_db = float(fast_fading_db)

    def __repr__(self) -> str:
        return (
            f"LogNormalShadowingModel(radio_range={self._radio_range}, "
            f"n={self._n}, sigma_db={self._sigma_db}, fast_fading_db={self._fast_db})"
        )

    @property
    def nominal_range(self) -> float:
        return self._radio_range

    @property
    def sigma_db(self) -> float:
        """Shadowing standard deviation in dB."""
        return self._sigma_db

    def realize(self, rng: np.random.Generator) -> LogNormalShadowingRealization:
        seed = int(rng.integers(0, 2**63, dtype=np.int64))
        return LogNormalShadowingRealization(
            self._radio_range, self._n, self._sigma_db, self._fast_db, seed
        )
