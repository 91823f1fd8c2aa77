"""Planar point primitives and distance kernels.

Everything in the simulator works on 2-D Euclidean coordinates expressed in
meters.  Points travel through the code base in two shapes:

* a single :class:`Point` — a lightweight named tuple used at API surfaces
  where a human reads or writes one coordinate pair (e.g. "the new beacon
  goes at (37.0, 12.0)"), and
* ``(P, 2)`` float arrays — the bulk representation used by every numeric
  kernel.

The helpers in this module convert between the two and provide the distance
kernels that the rest of the package builds on.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Point",
    "as_point",
    "as_point_array",
    "distance",
    "pairwise_distances",
    "distances_to_point",
    "clamp_to_square",
    "points_equal",
]


class Point(NamedTuple):
    """A 2-D point in meters.

    >>> Point(3.0, 4.0).distance_to(Point(0.0, 0.0))
    5.0
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """A new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def as_array(self) -> np.ndarray:
        """This point as a ``(2,)`` float array."""
        return np.array([self.x, self.y], dtype=float)


def as_point(value: "Point | Sequence[float] | np.ndarray") -> Point:
    """Coerce a coordinate pair of any supported shape into a :class:`Point`.

    Accepts :class:`Point`, 2-sequences and ``(2,)`` arrays.

    Raises:
        ValueError: if ``value`` does not contain exactly two coordinates.
    """
    if isinstance(value, Point):
        return value
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.shape != (2,):
        raise ValueError(f"expected a coordinate pair, got shape {arr.shape}")
    return Point(float(arr[0]), float(arr[1]))


def as_point_array(points: "np.ndarray | Iterable") -> np.ndarray:
    """Coerce an iterable of coordinate pairs into a ``(P, 2)`` float array.

    A single :class:`Point` (or 2-sequence) becomes a ``(1, 2)`` array.
    An empty iterable becomes a ``(0, 2)`` array, which every downstream
    kernel accepts.

    Raises:
        ValueError: if the input cannot be viewed as coordinate pairs.
    """
    if isinstance(points, Point):
        return np.asarray([points], dtype=float)
    arr = np.asarray(list(points) if not isinstance(points, np.ndarray) else points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim == 1:
        if arr.shape == (2,):
            return arr.reshape(1, 2)
        raise ValueError(f"cannot interpret 1-D array of length {arr.shape[0]} as points")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (P, 2) coordinates, got shape {arr.shape}")
    return arr


def distance(a, b) -> float:
    """Euclidean distance between two coordinate pairs."""
    pa, pb = as_point(a), as_point(b)
    return pa.distance_to(pb)


def pairwise_distances(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Distance matrix between two point sets.

    Args:
        points_a: ``(P, 2)`` array.
        points_b: ``(N, 2)`` array.

    Returns:
        ``(P, N)`` array with ``out[i, j] = ||points_a[i] - points_b[j]||``.
    """
    a = as_point_array(points_a)
    b = as_point_array(points_b)
    # Separate ufuncs, not an einsum over a (P, N, 2) temporary: no fused
    # multiply-add can enter, and the batched connectivity kernel uses the
    # same split form, so both give every pair the same bits.
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def distances_to_point(points: np.ndarray, target) -> np.ndarray:
    """Distances from each row of ``points`` to a single ``target`` point."""
    pts = as_point_array(points)
    t = as_point(target).as_array()
    diff = pts - t[None, :]
    return np.sqrt(np.einsum("pk,pk->p", diff, diff))


def clamp_to_square(point, side: float) -> Point:
    """Clamp a point into the axis-aligned square ``[0, side] × [0, side]``.

    Used when a placement algorithm proposes a candidate just outside the
    terrain (e.g. a grid center computed for a grid overhanging the border).
    """
    p = as_point(point)
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
    return Point(min(max(p.x, 0.0), side), min(max(p.y, 0.0), side))


def points_equal(a, b, tol: float = 1e-9) -> bool:
    """Whether two coordinate pairs coincide within ``tol`` meters."""
    return distance(a, b) <= tol
