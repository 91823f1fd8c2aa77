"""Protocol-level connectivity estimation (§2.2, executed rather than assumed).

    "Clients listen for a period t >> T to evaluate connectivity.  If the
    percentage of messages received from a beacon in a time interval t
    exceeds a threshold CM_thresh, that beacon is considered connected."

:class:`ProtocolConnectivityEstimator` runs the full pipeline — periodic
transmitters, collision channel, listening window, threshold — and returns
the same ``(P, N)`` boolean matrix the geometric models produce, plus the
channel statistics (collision/loss rates) the geometric shortcut hides.

Bench E4 uses it two ways: to *validate* the shortcut (with generous
``t/T`` and low beacon density the protocol matrix equals the geometric
one), and to *quantify self-interference* (at high densities collisions
push per-link delivery below CM_thresh, so protocol connectivity — and with
it localization — degrades even though geometry says it should saturate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..field import BeaconField
from ..geometry import as_point_array
from ..obs import get_metrics, get_tracer
from ..radio import PropagationRealization
from .beacon_process import start_beacon_processes
from .channel import RadioChannel
from .events import Simulator

__all__ = ["BeaconBlacklist", "ProtocolConnectivityEstimator", "ProtocolRunResult"]


class BeaconBlacklist:
    """Client-side beacon blacklisting across successive listening windows.

    Under :class:`~repro.faults.IntermittentFault` flapping, a beacon that
    oscillates around ``CM_thresh`` flips in and out of every client's
    centroid set window after window, and the localization estimate jitters
    with it.  This is the minimal protocol-level recovery: each client
    tracks, per beacon, how many *consecutive* windows an expected beacon
    has gone missing; after ``miss_limit`` misses the beacon is dropped
    from the connected set for ``cooldown`` windows, then re-admitted the
    next time it is actually heard.  A flapping beacon thus degrades the
    client to its stable neighbours *gracefully* instead of oscillating —
    and a beacon that genuinely recovers rejoins after one clean window.

    A beacon becomes *expected* by being heard while admitted; a beacon the
    client has never heard is not counted as missing (clients cannot miss
    beacons they don't know about).  Hearing a beacon mid-cooldown does not
    shorten the cooldown — that is the point: one lucky window must not
    instantly restore trust in a flapper.

    The filter is stateful and deterministic: feeding it the same window
    sequence reproduces the same admitted sets.

    Args:
        miss_limit: consecutive missed windows before a beacon is dropped.
        cooldown: windows a dropped beacon stays excluded before it may be
            re-admitted.
    """

    def __init__(self, miss_limit: int = 3, cooldown: int = 5):
        if miss_limit < 1:
            raise ValueError(f"miss_limit must be >= 1, got {miss_limit}")
        if cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {cooldown}")
        self.miss_limit = int(miss_limit)
        self.cooldown = int(cooldown)
        self._expected: np.ndarray | None = None
        self._misses: np.ndarray | None = None
        self._cooldown_left: np.ndarray | None = None

    def _ensure_state(self, shape: tuple[int, int]) -> None:
        if self._expected is None:
            self._expected = np.zeros(shape, dtype=bool)
            self._misses = np.zeros(shape, dtype=np.int64)
            self._cooldown_left = np.zeros(shape, dtype=np.int64)
        elif self._expected.shape != shape:
            raise ValueError(
                f"window shape {shape} does not match blacklist state "
                f"{self._expected.shape} (one blacklist per client/field pairing)"
            )

    @property
    def blacklisted(self) -> np.ndarray:
        """Current ``(P, N)`` exclusion mask (False before the first window)."""
        if self._cooldown_left is None:
            return np.zeros((0, 0), dtype=bool)
        return self._cooldown_left > 0

    def observe(self, connectivity: np.ndarray) -> np.ndarray:
        """Fold one window's raw connectivity into the admitted set.

        Args:
            connectivity: ``(P, N)`` boolean — the §2.2 threshold outcome
                for this listening window.

        Returns:
            The admitted ``(P, N)`` matrix: raw connectivity minus
            blacklisted beacons.  Call once per window, in order.
        """
        observed = np.asarray(connectivity, dtype=bool)
        if observed.ndim != 2:
            raise ValueError(
                f"connectivity must be 2-D (clients x beacons), got {observed.shape}"
            )
        self._ensure_state(observed.shape)
        active = self._cooldown_left == 0
        admitted = observed & active

        missed = self._expected & active & ~observed
        self._misses = np.where(missed, self._misses + 1, 0)
        drop = self._misses >= self.miss_limit
        # Existing cooldowns tick down at window end; fresh drops are set
        # *after* the tick so a dropped beacon sits out `cooldown` complete
        # windows before it may be re-admitted.
        np.maximum(self._cooldown_left - 1, 0, out=self._cooldown_left)
        if drop.any():
            self._cooldown_left[drop] = self.cooldown
            self._expected[drop] = False
            self._misses[drop] = 0
            admitted &= ~drop
        self._expected |= admitted
        return admitted


@dataclass(frozen=True)
class ProtocolRunResult:
    """Outcome of one protocol listening window.

    Attributes:
        connectivity: ``(P, N)`` boolean — §2.2 threshold rule outcome.
        received_fraction: ``(P, N)`` decoded-message fraction per link
            (denominator: messages each beacon actually sent).
        messages_sent: total messages transmitted during the window.
        decoded_messages: messages successfully decoded, summed over
            listeners.
        collision_losses: messages destroyed by overlap, summed over
            listeners.
        propagation_losses: messages lost to the channel (inaudible draws),
            summed over listeners.
    """

    connectivity: np.ndarray
    received_fraction: np.ndarray
    messages_sent: int
    decoded_messages: int
    collision_losses: int
    propagation_losses: int

    @property
    def collision_rate(self) -> float:
        """Fraction of audible message arrivals destroyed by overlap."""
        audible = self.collision_losses + self.decoded_messages
        if audible <= 0:
            return 0.0
        return self.collision_losses / audible


class ProtocolConnectivityEstimator:
    """Estimate connectivity by actually running the beacon protocol.

    Args:
        period: beacon transmission period ``T`` (seconds).
        listen_time: client listening window ``t`` (seconds; the paper only
            requires ``t ≫ T`` — default 20 periods).
        message_duration: airtime per message (seconds).
        cm_thresh: the §2.2 received-fraction threshold ``CM_thresh``.
        jitter: per-message phase jitter fraction (desynchronization).
    """

    def __init__(
        self,
        period: float = 1.0,
        listen_time: float | None = None,
        message_duration: float = 0.005,
        cm_thresh: float = 0.75,
        jitter: float = 0.05,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 < cm_thresh <= 1.0:
            raise ValueError(f"cm_thresh must be in (0, 1], got {cm_thresh}")
        self.period = float(period)
        self.listen_time = float(listen_time) if listen_time is not None else 20.0 * period
        if self.listen_time < 2 * period:
            raise ValueError("listen_time must be at least 2 periods (t >> T)")
        self.message_duration = float(message_duration)
        self.cm_thresh = float(cm_thresh)
        self.jitter = float(jitter)

    def run(
        self,
        points,
        field: BeaconField,
        realization: PropagationRealization,
        rng: np.random.Generator,
        *,
        burst_loss=None,
        faults=None,
        blacklist: "BeaconBlacklist | None" = None,
    ) -> ProtocolRunResult:
        """Simulate one listening window for every client point at once.

        Args:
            points: ``(P, 2)`` client locations.
            field: the transmitting beacons.
            realization: the propagation world.
            rng: per-run randomness (phases, jitter, loss draws).
            burst_loss: optional bursty loss process (see
                :class:`~repro.protocol.GilbertElliottLoss`).
            faults: optional beacon fault realization (see
                :class:`repro.faults.FaultRealization`); down beacons skip
                scheduled transmissions.
            blacklist: optional stateful :class:`BeaconBlacklist`; this
                window's threshold outcome is folded into it and the
                returned connectivity is the *admitted* set.  Pass the same
                instance across consecutive windows.
        """
        pts = as_point_array(points)
        sim = Simulator()
        channel = RadioChannel(sim, field, realization, pts, rng, burst_loss=burst_loss)
        transmitters = start_beacon_processes(
            sim,
            channel,
            len(field),
            period=self.period,
            message_duration=self.message_duration,
            jitter=self.jitter,
            rng=rng,
            faults=faults,
        )
        with get_metrics().histogram("stage.protocol.run.seconds").time(), \
                get_tracer().span(
                    "protocol.run", clients=int(pts.shape[0]), beacons=len(field)
                ):
            sim.run(until=self.listen_time)
            for tx in transmitters:
                tx.stop()
            sim.run()  # drain in-flight message completions

        sent = np.array([tx.messages_sent for tx in transmitters], dtype=float)
        received = channel.received_matrix(len(field)).astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = np.where(sent[None, :] > 0, received / sent[None, :], 0.0)
        connectivity = fraction >= self.cm_thresh
        if blacklist is not None:
            connectivity = blacklist.observe(connectivity)

        collisions = sum(listener.collisions for listener in channel.listeners)
        missed = sum(listener.missed for listener in channel.listeners)
        decoded = int(received.sum())
        audible = collisions + decoded
        get_metrics().gauge("protocol.collision_rate").set(
            collisions / audible if audible else 0.0
        )
        return ProtocolRunResult(
            connectivity=connectivity,
            received_fraction=fraction,
            messages_sent=channel.messages_sent,
            decoded_messages=decoded,
            collision_losses=collisions,
            propagation_losses=missed,
        )

    def estimate(
        self,
        points,
        field: BeaconField,
        realization: PropagationRealization,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Just the ``(P, N)`` connectivity matrix (see :meth:`run`)."""
        return self.run(points, field, realization, rng).connectivity
