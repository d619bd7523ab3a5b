"""Unit and property tests for geometry primitives."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.geometry import (
    OrientedBox,
    angle_diff,
    clamp,
    clamp_array,
    heading_vector,
    interpolate_polyline,
    normalize_angle,
    polyline_arclength,
    project_to_polyline,
    rotate,
    unit,
    unit_planes,
)

angles = st.floats(-50.0, 50.0, allow_nan=False)


class TestNormalizeAngle:
    def test_identity_in_range(self):
        assert normalize_angle(0.5) == pytest.approx(0.5)

    def test_wraps_positive(self):
        assert normalize_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)

    def test_wraps_negative(self):
        assert normalize_angle(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)

    @given(angles)
    def test_always_in_range(self, angle):
        wrapped = normalize_angle(angle)
        assert -math.pi <= wrapped < math.pi

    @given(angles)
    def test_preserves_direction(self, angle):
        wrapped = normalize_angle(angle)
        assert math.cos(wrapped) == pytest.approx(math.cos(angle), abs=1e-9)
        assert math.sin(wrapped) == pytest.approx(math.sin(angle), abs=1e-9)


class TestAngleDiff:
    def test_simple(self):
        assert angle_diff(0.3, 0.1) == pytest.approx(0.2)

    def test_wrap(self):
        assert angle_diff(math.pi - 0.05, -math.pi + 0.05) == pytest.approx(-0.1)

    @given(angles, angles)
    def test_antisymmetric_mod_2pi(self, a, b):
        forward = angle_diff(a, b)
        backward = angle_diff(b, a)
        assert math.isclose(
            math.sin(forward), -math.sin(backward), abs_tol=1e-9
        )


class TestRotate:
    def test_quarter_turn(self):
        out = rotate(np.array([[1.0, 0.0]]), math.pi / 2.0)
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

    @given(angles)
    def test_preserves_norm(self, yaw):
        pts = np.array([[3.0, -4.0], [0.5, 0.25]])
        out = rotate(pts, yaw)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(pts, axis=1), atol=1e-9
        )

    @given(angles)
    def test_inverse(self, yaw):
        pts = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(rotate(rotate(pts, yaw), -yaw), pts, atol=1e-9)


class TestUnit:
    def test_scales(self):
        np.testing.assert_allclose(unit(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_zero_vector(self):
        np.testing.assert_array_equal(unit(np.zeros(2)), np.zeros(2))


def _bits(x: float) -> bytes:
    return struct.pack("d", x)


#: Signed zeros, infinities and NaN, in every slot of the clamp.
_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 5e-324]


class TestClamp:
    """``clamp`` is an exact stand-in for ``float(np.clip(x, lo, hi))``."""

    @given(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(allow_nan=False, allow_infinity=True),
        st.floats(allow_nan=False, allow_infinity=True),
    )
    @settings(max_examples=2000, deadline=None)
    def test_matches_numpy_bit_for_bit(self, x, a, b):
        lo, hi = min(a, b), max(a, b)
        assert _bits(clamp(x, lo, hi)) == _bits(float(np.clip(x, lo, hi)))

    def test_edge_values(self):
        bounds = [v for v in _EDGES if not math.isnan(v)]
        for x in _EDGES:
            for lo in bounds:
                for hi in (hi for hi in bounds if hi >= lo):
                    expected = float(np.clip(x, lo, hi))
                    assert _bits(clamp(x, lo, hi)) == _bits(expected)

    def test_keeps_the_value_on_a_tie(self):
        assert _bits(clamp(-0.0, 0.0, 1.0)) == _bits(-0.0)
        assert _bits(clamp(0.0, -1.0, -0.0)) == _bits(0.0)
        assert math.isnan(clamp(math.nan, -1.0, 1.0))


def _same_bits(a, b) -> bool:
    """Equal arrays bit for bit: dtype, shape, signed zeros and NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and a.tobytes() == b.tobytes()
    )


class TestClampArray:
    """``clamp_array`` returns what ``np.clip`` returns, bit for bit."""

    X = np.array(_EDGES)

    def test_float_bounds(self):
        bounds = [v for v in _EDGES if not math.isnan(v)]
        for lo in bounds:
            for hi in bounds:
                # np.clip keeps x on a +-0.0 tie against float bounds.
                assert _same_bits(
                    clamp_array(self.X, lo, hi), np.clip(self.X, lo, hi)
                ), (lo, hi)

    def test_array_bounds(self):
        # Every (x, lo, hi) triple of edge values at once; np.clip returns
        # the bound on a +-0.0 tie against array bounds.
        x, lo, hi = (a.ravel() for a in np.meshgrid(self.X, self.X, self.X))
        assert _same_bits(clamp_array(x, lo, hi), np.clip(x, lo, hi))
        assert _same_bits(
            clamp_array(x, -np.abs(hi), np.abs(hi)),
            np.clip(x, -np.abs(hi), np.abs(hi)),
        )

    def test_signed_zero_ties(self):
        zeros = np.array([0.0, -0.0])
        for lo, hi in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]:
            expected = np.clip(zeros, lo, hi)
            assert _same_bits(clamp_array(zeros, lo, hi), expected)
            lo_a, hi_a = np.full(2, lo), np.full(2, hi)
            expected = np.clip(zeros, lo_a, hi_a)
            assert _same_bits(clamp_array(zeros, lo_a, hi_a), expected)

    def test_out(self):
        x = np.array(_EDGES)
        out, expected = np.empty_like(x), np.empty_like(x)
        got = clamp_array(x, -0.0, 1.0, out=out)
        assert got is out
        np.clip(x, -0.0, 1.0, out=expected)
        assert _same_bits(out, expected)
        in_place = x.copy()
        clamp_array(in_place, 0.0, 0.5, out=in_place)
        assert _same_bits(in_place, np.clip(x, 0.0, 0.5))

    def test_integer_arrays(self):
        idx = np.array([-3, 0, 2, 7, 450], dtype=np.intp)
        assert _same_bits(clamp_array(idx, 0, 224), np.clip(idx, 0, 224))

    @given(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1),
        st.floats(allow_nan=False, allow_infinity=True),
        st.floats(allow_nan=False, allow_infinity=True),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_numpy(self, values, a, b):
        x = np.array(values)
        lo, hi = min(a, b), max(a, b)
        assert _same_bits(clamp_array(x, lo, hi), np.clip(x, lo, hi))
        lo_a, hi_a = np.full(len(x), lo), np.full(len(x), hi)
        assert _same_bits(clamp_array(x, lo_a, hi_a), np.clip(x, lo_a, hi_a))


class TestUnitPlanes:
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_unit_per_vector(self, rows):
        vectors = np.array(rows)
        units, nonzero = unit_planes(vectors.T)
        assert units.shape == (2, len(rows))
        for vector, row, moving in zip(vectors, units.T, nonzero):
            np.testing.assert_allclose(row, unit(vector), rtol=1e-15)
            assert moving == bool(np.any(unit(vector)))


class TestHeadingVector:
    @given(angles)
    def test_unit_norm(self, yaw):
        assert np.linalg.norm(heading_vector(yaw)) == pytest.approx(1.0)


class TestOrientedBox:
    def test_corners_axis_aligned(self):
        box = OrientedBox(center=(0.0, 0.0), yaw=0.0, length=4.0, width=2.0)
        corners = box.corners()
        assert corners.shape == (4, 2)
        np.testing.assert_allclose(
            sorted(map(tuple, corners.tolist())),
            [(-2.0, -1.0), (-2.0, 1.0), (2.0, -1.0), (2.0, 1.0)],
        )

    def test_contains_center_and_outside(self):
        box = OrientedBox(center=(1.0, 1.0), yaw=0.3, length=4.0, width=2.0)
        assert box.contains(np.array([1.0, 1.0]))
        assert not box.contains(np.array([10.0, 10.0]))

    def test_intersects_overlapping(self):
        a = OrientedBox(center=(0.0, 0.0), yaw=0.0, length=4.0, width=2.0)
        b = OrientedBox(center=(3.0, 0.0), yaw=0.5, length=4.0, width=2.0)
        assert a.intersects(b)
        assert b.intersects(a)

    def test_intersects_disjoint(self):
        a = OrientedBox(center=(0.0, 0.0), yaw=0.0, length=4.0, width=2.0)
        b = OrientedBox(center=(10.0, 0.0), yaw=0.0, length=4.0, width=2.0)
        assert not a.intersects(b)

    def test_rotated_near_miss(self):
        # Diagonal box whose AABB overlaps but the OBB does not.
        a = OrientedBox(center=(0.0, 0.0), yaw=0.0, length=2.0, width=2.0)
        b = OrientedBox(
            center=(2.0, 2.0), yaw=3.0 * math.pi / 4.0, length=4.0, width=0.5
        )
        assert not a.intersects(b)

    @given(angles, st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50)
    def test_intersection_symmetric(self, yaw, cx, cy):
        a = OrientedBox(center=(0.0, 0.0), yaw=0.0, length=4.7, width=2.0)
        b = OrientedBox(center=(cx, cy), yaw=yaw, length=4.7, width=2.0)
        assert a.intersects(b) == b.intersects(a)

    @given(angles)
    def test_self_intersection(self, yaw):
        box = OrientedBox(center=(1.0, -2.0), yaw=yaw, length=4.0, width=2.0)
        assert box.intersects(box)

    def test_to_local_roundtrip(self):
        box = OrientedBox(center=(5.0, 2.0), yaw=0.7, length=4.0, width=2.0)
        local = box.to_local(np.array([5.0, 2.0]))
        np.testing.assert_allclose(local, [0.0, 0.0], atol=1e-12)


class TestPolyline:
    def setup_method(self):
        xs = np.linspace(0.0, 100.0, 51)
        self.points = np.stack([xs, np.zeros_like(xs)], axis=1)
        self.arclength = polyline_arclength(self.points)

    def test_arclength_total(self):
        assert self.arclength[-1] == pytest.approx(100.0)

    def test_arclength_monotone(self):
        assert np.all(np.diff(self.arclength) > 0)

    def test_project_on_line(self):
        s, d, yaw = project_to_polyline(
            np.array([37.0, 2.5]), self.points, self.arclength
        )
        assert s == pytest.approx(37.0)
        assert d == pytest.approx(2.5)
        assert yaw == pytest.approx(0.0)

    def test_project_negative_offset(self):
        _, d, _ = project_to_polyline(
            np.array([10.0, -1.0]), self.points, self.arclength
        )
        assert d == pytest.approx(-1.0)

    def test_project_clamps_before_start(self):
        s, _, _ = project_to_polyline(
            np.array([-5.0, 0.0]), self.points, self.arclength
        )
        assert s == pytest.approx(0.0)

    def test_interpolate_roundtrip(self):
        position, yaw = interpolate_polyline(42.0, self.points, self.arclength)
        np.testing.assert_allclose(position, [42.0, 0.0], atol=1e-9)
        assert yaw == pytest.approx(0.0)

    def test_interpolate_clamps(self):
        position, _ = interpolate_polyline(1e9, self.points, self.arclength)
        np.testing.assert_allclose(position, [100.0, 0.0])

    @given(st.floats(0.0, 100.0))
    @settings(max_examples=50)
    def test_project_interpolate_consistency(self, s):
        position, _ = interpolate_polyline(s, self.points, self.arclength)
        s2, d2, _ = project_to_polyline(position, self.points, self.arclength)
        assert s2 == pytest.approx(s, abs=1e-6)
        assert d2 == pytest.approx(0.0, abs=1e-9)
