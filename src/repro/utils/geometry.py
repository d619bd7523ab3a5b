"""2D geometry primitives used by the driving simulator.

Everything operates on plain ``numpy`` arrays in a right-handed world frame:
``x`` forward/east, ``y`` left/north, yaw measured counter-clockwise from the
``x`` axis in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# numpy's own kernels, without the Python-level argument handling of their
# public wrappers, which costs more than the work on a tick's arrays:
# - clamp_array(x, lo, hi, out=None, where=True): ``x`` limited to ``[lo,
#   hi]``, the ufunc ``np.clip`` ends in (about a quarter of its cost). It
#   returns what ``np.clip`` returns, bit for bit, for bounds ``x``'s dtype
#   can hold, so ties on signed zeros break as there: a float bound keeps
#   ``x``, an array bound returns the bound.
# - count_nonzero(a): ``np.count_nonzero(a)`` (0.1 us against 0.55 us).
try:  # numpy >= 2
    from numpy._core.multiarray import c_einsum, count_nonzero
    from numpy._core.umath import clip as clamp_array
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum, count_nonzero
    from numpy.core.umath import clip as clamp_array

TWO_PI = 2.0 * math.pi

#: Slack added to every bounding-circle reach, meters. A pair farther
#: apart than the reach is then separated by far more than the rounding
#: of the exact footprint tests, so culling it never changes their answer.
REACH_MARGIN = 1e-6


@lru_cache(maxsize=64)
def reach(*extents: tuple[float, float]) -> float:
    """Centre distance beyond which rectangles of these sizes cannot touch.

    Each extent is a ``(length, width)``; the reach is the sum of their
    circumradii plus :data:`REACH_MARGIN`. Two footprints whose centres
    lie farther apart than ``reach((l1, w1), (l2, w2))`` cannot overlap,
    and a footprint farther than ``reach((l, w))`` from a point cannot
    contain it, so the exact test may be skipped for them. Worked out
    once per set of extents.
    """
    return (
        sum(math.hypot(length / 2.0, width / 2.0) for length, width in extents)
        + REACH_MARGIN
    )


def clamp(x: float, lo: float, hi: float) -> float:
    """``x`` limited to ``[lo, hi]``, as a Python float.

    Equals numpy's ``np.clip(x, lo, hi)`` converted to ``float``, bit for
    bit, when ``lo <= hi``: a value on a bound is kept as it is (so
    ``-0.0`` stays ``-0.0``) and NaN passes through. It skips numpy's
    array round-trip, which costs about ten times the comparison on a
    scalar.
    """
    return float(lo if x < lo else hi if x > hi else x)


def normalize_angle(angle: float) -> float:
    """Wrap an angle to the interval ``[-pi, pi)``.

    >>> normalize_angle(math.pi)
    -3.141592653589793
    >>> normalize_angle(0.0)
    0.0
    """
    return (angle + math.pi) % TWO_PI - math.pi


def angle_diff(a: float, b: float) -> float:
    """Smallest signed difference ``a - b`` wrapped to ``[-pi, pi)``."""
    return normalize_angle(a - b)


def rotate(points: np.ndarray, yaw: float) -> np.ndarray:
    """Rotate ``points`` (shape ``(..., 2)``) counter-clockwise by ``yaw``."""
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s], [s, c]])
    return points @ rot.T


def unit(vector: np.ndarray) -> np.ndarray:
    """Return ``vector`` scaled to unit length (zero vector is returned as-is)."""
    norm = float(np.linalg.norm(vector))
    if norm < 1e-12:
        return np.zeros_like(vector)
    return vector / norm


def unit_planes(
    vectors: np.ndarray, norm: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`unit` of each vector of ``[2, N]`` planes (x, then y):
    ``(units, nonzero)``, units ``[2, N]``.

    Vectors shorter than ``1e-12`` become zeros and read False in
    ``nonzero``. ``norm``: the vectors' lengths, when the caller has worked
    them out as ``sqrt(x * x + y * y)`` already.
    """
    if norm is None:
        squares = vectors * vectors
        norm = np.add(squares[0], squares[1], out=squares[0])
        np.sqrt(norm, out=norm)
    zero = norm < 1e-12
    if not count_nonzero(zero):
        return vectors / norm, ~zero
    units = vectors / np.where(zero, 1.0, norm)
    units[:, zero] = 0.0
    return units, ~zero


def dot_planes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each pair of ``[2, N]`` vectors, ``[N]``:
    ``np.einsum("jn,jn->n", a, b)`` bit for bit, without its wrapper."""
    return c_einsum("jn,jn->n", a, b)


def heading_vector(yaw: float) -> np.ndarray:
    """Unit vector pointing along ``yaw``."""
    return np.array([math.cos(yaw), math.sin(yaw)])


@dataclass(frozen=True)
class OrientedBox:
    """An oriented rectangle: vehicle footprints and collision queries.

    Attributes:
        center: world-frame ``(x, y)`` of the box center.
        yaw: heading of the box's long axis, radians.
        length: extent along the heading axis (meters).
        width: extent across the heading axis (meters).
    """

    center: tuple[float, float]
    yaw: float
    length: float
    width: float

    def corners(self) -> np.ndarray:
        """The four corners, shape ``(4, 2)``, counter-clockwise from front-left."""
        half_l, half_w = self.length / 2.0, self.width / 2.0
        local = np.array(
            [
                [half_l, half_w],
                [-half_l, half_w],
                [-half_l, -half_w],
                [half_l, -half_w],
            ]
        )
        return rotate(local, self.yaw) + np.asarray(self.center)

    def axes(self) -> np.ndarray:
        """The two face normals (unit vectors), shape ``(2, 2)``."""
        return np.array(
            [heading_vector(self.yaw), heading_vector(self.yaw + math.pi / 2.0)]
        )

    def contains(self, point: np.ndarray) -> bool:
        """Whether ``point`` lies inside (or on the boundary of) the box."""
        rel = np.asarray(point, dtype=float) - np.asarray(self.center)
        local = rotate(rel[None, :], -self.yaw)[0]
        return bool(
            abs(local[0]) <= self.length / 2.0 + 1e-12
            and abs(local[1]) <= self.width / 2.0 + 1e-12
        )

    def intersects(self, other: "OrientedBox") -> bool:
        """Separating-axis test between two oriented boxes.

        Callers that test many pairs cull first: boxes whose centres lie
        beyond :func:`reach` are disjoint (see
        :func:`repro.sim.collision.check_vehicle_pair`).
        """
        corners_a, corners_b = self.corners(), other.corners()
        for axis in np.concatenate([self.axes(), other.axes()]):
            proj_a = corners_a @ axis
            proj_b = corners_b @ axis
            if proj_a.max() < proj_b.min() or proj_b.max() < proj_a.min():
                return False
        return True

    def to_local(self, point: np.ndarray) -> np.ndarray:
        """Express a world-frame ``point`` in this box's body frame."""
        rel = np.asarray(point, dtype=float) - np.asarray(self.center)
        return rotate(rel[None, :], -self.yaw)[0]


def polyline_arclength(points: np.ndarray) -> np.ndarray:
    """Cumulative arc-length of a polyline, shape ``(n,)`` starting at 0."""
    deltas = np.diff(points, axis=0)
    seg = np.hypot(deltas[:, 0], deltas[:, 1])
    return np.concatenate([[0.0], np.cumsum(seg)])


def project_to_polyline(
    point: np.ndarray, points: np.ndarray, arclength: np.ndarray
) -> tuple[float, float, float]:
    """Project ``point`` onto a polyline.

    Args:
        point: the ``(x, y)`` query.
        points: the polyline vertices, shape ``(n, 2)``.
        arclength: output of :func:`polyline_arclength` for ``points``.

    Returns:
        ``(s, d, tangent_yaw)`` — arc-length position of the foot point,
        signed lateral offset (positive to the left of travel direction)
        and the tangent heading at the foot point.
    """
    pt = np.asarray(point, dtype=float)
    starts = points[:-1]
    ends = points[1:]
    seg = ends - starts
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    seg_len2 = np.maximum(seg_len2, 1e-12)
    t = np.einsum("ij,ij->i", pt - starts, seg) / seg_len2
    t = clamp_array(t, 0.0, 1.0)
    foot = starts + t[:, None] * seg
    dist2 = np.einsum("ij,ij->i", pt - foot, pt - foot)
    idx = int(np.argmin(dist2))
    tangent = seg[idx] / math.sqrt(seg_len2[idx])
    normal = np.array([-tangent[1], tangent[0]])
    offset = pt - foot[idx]
    s = arclength[idx] + t[idx] * math.sqrt(seg_len2[idx])
    d = float(offset @ normal)
    yaw = math.atan2(tangent[1], tangent[0])
    return float(s), d, yaw


def interpolate_polyline(
    s: float, points: np.ndarray, arclength: np.ndarray
) -> tuple[np.ndarray, float]:
    """Point and tangent heading at arc-length ``s`` along a polyline.

    ``s`` is clamped to the polyline's extent.
    """
    total = float(arclength[-1])
    s = min(max(s, 0.0), total)
    idx = int(np.searchsorted(arclength, s, side="right") - 1)
    idx = min(max(idx, 0), len(points) - 2)
    seg_start, seg_end = arclength[idx], arclength[idx + 1]
    span = max(seg_end - seg_start, 1e-12)
    t = (s - seg_start) / span
    position = points[idx] * (1.0 - t) + points[idx + 1] * t
    direction = points[idx + 1] - points[idx]
    yaw = math.atan2(direction[1], direction[0])
    return position, yaw
