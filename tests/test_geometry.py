"""Core types: triangles, frames, viewing angles, degeneracy measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3pshare.errors import DegenerateAngleError, DegenerateInputError
from p3pshare.geometry import (CanonicalFrame, ControlTriangle, SolutionTriplet,
                               ViewAngles, _cross, canonical_frame,
                               circumcircle_2d, cocyclic_degeneracy,
                               interior_angles, view_angles_from_center)


def random_triangle(rng: np.random.Generator) -> ControlTriangle:
    for _ in range(1000):
        pts = rng.uniform(-2.0, 2.0, size=(3, 3))
        try:
            tri = ControlTriangle.from_points(*pts)
        except DegenerateInputError:
            continue
        if min(tri.a, tri.b, tri.c) > 0.3:
            return tri
    raise AssertionError("could not draw a triangle")


class TestControlTriangle:
    def test_sides_follow_opposite_vertex_convention(self, sc1_triangle):
        tri = sc1_triangle
        assert tri.a == pytest.approx(np.linalg.norm(tri.C - tri.B))
        assert tri.b == pytest.approx(np.linalg.norm(tri.C - tri.A))
        assert tri.c == pytest.approx(np.linalg.norm(tri.B - tri.A))

    def test_equilateral_cosines(self, eq1_triangle):
        assert eq1_triangle.sides == pytest.approx((1.0, 1.0, 1.0))
        assert interior_angles(eq1_triangle) == pytest.approx((0.5, 0.5, 0.5))

    def test_law_of_cosines(self, sc1_triangle):
        tri = sc1_triangle
        gamma = math.acos(tri.cos_C)
        c2 = tri.a ** 2 + tri.b ** 2 - 2.0 * tri.a * tri.b * math.cos(gamma)
        assert c2 == pytest.approx(tri.c ** 2, rel=1e-12)

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateInputError):
            ControlTriangle.from_points([0, 0, 0], [1, 0, 0], [2, 0, 0])

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateInputError):
            ControlTriangle.from_points([0, 0, 0], [0, 0, 0], [1, 1, 0])

    def test_scale_is_longest_side(self, sc1_triangle):
        assert sc1_triangle.scale == max(sc1_triangle.sides)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("vertex", range(3))
    def test_non_finite_coordinate_rejected(self, bad, vertex):
        pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        pts[vertex][2] = bad
        with pytest.raises(DegenerateInputError, match="non-finite"):
            ControlTriangle.from_points(*pts)

    def test_area2_is_twice_the_area(self, sc1_triangle):
        assert sc1_triangle.area2 == 6.0


#: floats spanning signed zeros, subnormals and magnitudes near overflow
_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 1.0, -1.0]))
_VEC3 = st.tuples(_EDGE_FLOATS, _EDGE_FLOATS, _EDGE_FLOATS)


class TestCross:
    @settings(max_examples=500, deadline=None)
    @given(p=_VEC3, q=_VEC3)
    def test_bit_identical_to_numpy(self, p, q):
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.cross(np.array(p), np.array(q)).tolist()
        got = _cross(p, q)
        assert [x.hex() for x in got] == [x.hex() for x in want]


class TestCanonicalFrame:
    def test_maps_vertices_to_canonical_positions(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        assert frame.a == pytest.approx(3.0)
        assert frame.e == pytest.approx(1.0)
        assert frame.f == pytest.approx(2.0)
        np.testing.assert_allclose(frame.to_canonical(sc1_triangle.B),
                                   [0.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(frame.to_canonical(sc1_triangle.C),
                                   [3.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(frame.to_canonical(sc1_triangle.A),
                                   [1.0, 2.0, 0.0], atol=1e-14)

    def test_e_f_closed_forms(self, sc1_triangle):
        tri = sc1_triangle
        frame = canonical_frame(tri)
        e = (tri.a ** 2 + tri.c ** 2 - tri.b ** 2) / (2.0 * tri.a)
        assert frame.e == pytest.approx(e, rel=1e-12)
        assert frame.f == pytest.approx(math.sqrt(tri.c ** 2 - e * e), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_round_trip_and_positive_f(self, seed):
        tri = random_triangle(np.random.default_rng(seed))
        frame = canonical_frame(tri)
        assert frame.f > 0.0
        p = np.random.default_rng(seed + 1).uniform(-3, 3, size=3)
        np.testing.assert_allclose(frame.to_world(frame.to_canonical(p)), p,
                                   atol=1e-12)

    def test_frame_is_cached(self, sc1_triangle):
        assert canonical_frame(sc1_triangle) is canonical_frame(sc1_triangle)
        assert canonical_frame(sc1_triangle) is sc1_triangle.frame

    def test_rotation_is_orthonormal(self, sc1_triangle):
        R = canonical_frame(sc1_triangle).rotation
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-14)


class TestCircumcircle:
    def test_equidistant_from_vertices(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        cx, cy, r = circumcircle_2d(frame)
        for p in ([0, 0], [frame.a, 0], [frame.e, frame.f]):
            assert math.hypot(p[0] - cx, p[1] - cy) == pytest.approx(r, rel=1e-12)

    def test_known_values(self, sc1_triangle):
        cx, cy, r = circumcircle_2d(canonical_frame(sc1_triangle))
        assert (cx, cy) == pytest.approx((1.5, 0.5))
        assert r * r == pytest.approx(2.5, rel=1e-12)


class TestViewAngles:
    def test_valid_construction(self):
        va = ViewAngles(0.625, 0.625, 0.625)
        assert va.cosines == (0.625, 0.625, 0.625)

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, -2.0])
    def test_cosine_out_of_range(self, bad):
        with pytest.raises(DegenerateAngleError):
            ViewAngles(bad, 0.5, 0.5)

    def test_spherical_inequality_violation(self):
        # alpha near pi while beta, gamma are tiny cannot come from rays
        with pytest.raises(DegenerateAngleError):
            ViewAngles(-0.999, 0.9999, 0.9999)

    def test_from_center_matches_dot_products(self, eq1_triangle, eq1_center):
        va = view_angles_from_center(eq1_triangle, eq1_center)
        assert va.cosines == pytest.approx((0.625, 0.625, 0.625), abs=1e-14)

    def test_center_on_vertex_rejected(self, eq1_triangle):
        with pytest.raises(DegenerateInputError):
            view_angles_from_center(eq1_triangle, eq1_triangle.A)


class TestCocyclicDegeneracy:
    def test_zero_on_circumcircle(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        cx, cy, r = circumcircle_2d(frame)
        O = frame.to_world(np.array([cx + r, cy, 0.0]))
        assert cocyclic_degeneracy(sc1_triangle, O) == pytest.approx(0.0, abs=1e-12)

    def test_grows_with_height(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        cx, cy, r = circumcircle_2d(frame)
        O = frame.to_world(np.array([cx + r, cy, 0.7]))
        assert cocyclic_degeneracy(sc1_triangle, O) == pytest.approx(0.7, abs=1e-12)


class TestSolutionTriplet:
    def test_positive_required(self):
        with pytest.raises(DegenerateInputError):
            SolutionTriplet(1.0, -0.5, 2.0)

    def test_values(self):
        assert SolutionTriplet(1.0, 2.0, 3.0).values == (1.0, 2.0, 3.0)
