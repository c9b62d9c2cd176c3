"""Core types: triangles, frames, viewing angles, degeneracy measures."""

import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from p3pshare.errors import DegenerateAngleError, DegenerateInputError
from p3pshare.geometry import (CanonicalFrame, ControlTriangle, SolutionTriplet,
                               ViewAngles, _cross, canonical_frame,
                               circumcircle_2d, cocyclic_degeneracy,
                               interior_angles, view_angles_from_center)
from p3pshare.conics import build_conics, intersect_conics
from p3pshare.scenes import Scene, _locus_scene, _trial_rngs, random_scene
from p3pshare.solver import SolutionSet, solve

CORPUS = Path(__file__).parent / "data" / "scene_corpus.json"


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

    def test_overflowing_side_named(self):
        """Finite control points ~1e154 or more apart: the error names the
        squared side that overflows, not a non-finite coordinate."""
        pts = [[1e300, 0.0, 0.0], [0.0, 1e300, 0.0], [0.0, 0.0, 0.0]]
        # float sums raise no overflow warning: the error comes first (the
        # warnings-as-errors run turns a warning into a failure)
        with pytest.raises(DegenerateInputError,
                           match="squared side overflows"):
            ControlTriangle.from_points(*pts)
        pts[2][2] = math.nan
        with pytest.raises(DegenerateInputError, match="non-finite"):
            ControlTriangle.from_points(*pts)

    def test_overflowing_cross_product_named(self):
        """Sides of ~1e77 or more square to finite values, but their cross
        product's square overflows: the error names it, with no numpy
        warning first and no triangle with area2 = inf."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError,
                               match="squared cross product overflows"):
                ControlTriangle.from_points((0.0, 1e100, 0.0),
                                            (0.0, 0.0, 0.0),
                                            (1e100, 0.0, 0.0))
            # at 1e70 the squared cross product, 1e280, is finite
            tri = ControlTriangle.from_points((0.0, 1e70, 0.0),
                                              (0.0, 0.0, 0.0),
                                              (1e70, 0.0, 0.0))
            assert tri.area2 == 1e140

    def test_area2_is_twice_the_area(self, sc1_triangle):
        assert sc1_triangle.area2 == 6.0


#: floats spanning signed zeros, subnormals and magnitudes near overflow
_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 1.0, -1.0]))
_VEC3 = st.tuples(_EDGE_FLOATS, _EDGE_FLOATS, _EDGE_FLOATS)


#: vertex coordinates of a triangle in the plane z = 0: normal floats and
#: zeros, small enough that no squared side or cross product overflows
_PLANE_COORD = st.floats(-1e60, 1e60, allow_nan=False, allow_infinity=False,
                         allow_subnormal=False)
#: any finite centre coordinate of that size, subnormals included
_CENTRE_COORD = st.floats(-1e60, 1e60, allow_nan=False, allow_infinity=False)


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

    @pytest.mark.parametrize("O", [[0.0, 0.0, math.nan], [math.inf, 0.0, 1.0],
                                   [0.0, -math.inf, 0.0]],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_center_rejected(self, eq1_triangle, O):
        # inf / inf and inf * 0 make nan on floats without a warning; the
        # documented error is raised before either result is handed out
        with pytest.raises(DegenerateInputError, match="not finite"):
            view_angles_from_center(eq1_triangle, O)
        with pytest.raises(DegenerateInputError, match="not finite"):
            cocyclic_degeneracy(eq1_triangle, O)

    def test_overflowing_center_rejected(self, eq1_triangle):
        """At 1e200 the squared rays overflow: the unit rays would be 0 and
        the cosines exactly 0, where a far centre sees them near 1."""
        # the squares overflow to inf on floats, with no warning first
        with pytest.raises(DegenerateInputError, match="overflows"):
            view_angles_from_center(eq1_triangle, [0.0, 0.0, 1e200])
        va = view_angles_from_center(eq1_triangle, [0.0, 0.0, 1e4])
        assert min(va.cosines) > 1.0 - 1e-7

    @pytest.mark.parametrize("e", [250, 255, 520])
    def test_scaled_scene_keeps_its_bits(self, e):
        """A scene scaled by 2**e: every subtraction, dot, root and division
        scales exactly, so the sides and area scale and the cosines stay, bit
        for bit, while the squares stay finite (2**250 and 2**255, the
        largest cross products near 2**1020); at 2**520 they overflow and
        the documented errors are raised."""
        pts = [[0.25, 0.75, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        O = [0.3, 0.2, 0.9]
        k = 2.0 ** e
        tri = ControlTriangle.from_points(*pts)
        if e == 520:
            with pytest.raises(DegenerateInputError, match="squared side"):
                ControlTriangle.from_points(*(np.array(pts) * k))
            with pytest.raises(DegenerateInputError, match="overflows"):
                view_angles_from_center(tri, np.array(O) * k)
            return
        big = ControlTriangle.from_points(*(np.array(pts) * k))
        assert (big.a, big.b, big.c) == (tri.a * k, tri.b * k, tri.c * k)
        assert big.area2 == tri.area2 * k * k
        assert (big.cos_A, big.cos_B, big.cos_C) == \
            (tri.cos_A, tri.cos_B, tri.cos_C)
        assert view_angles_from_center(big, np.array(O) * k) \
            == view_angles_from_center(tri, O)


class TestCocyclicDegeneracy:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_frame_map_rejected(self):
        """A finite centre whose canonical coordinates overflow: the frame of
        (1, 1, 0), (0, 0, 0), (1, -1, 0) turns by 45 degrees, so O =
        (1.5e308, 1.5e308, 0) maps to x = 2.1e308. The error is raised, with
        no warning first and no inf handed out."""
        tri = ControlTriangle.from_points([1.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                                          [1.0, -1.0, 0.0])
        with pytest.raises(DegenerateInputError, match="overflows"):
            cocyclic_degeneracy(tri, [1.5e308, 1.5e308, 0.0])
        # at 1e307 the map stays finite: a distance of about 1.4e307
        d = cocyclic_degeneracy(tri, [1e307, 1e307, 0.0])
        assert d == pytest.approx(math.sqrt(2.0) * 1e307)

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

    @settings(max_examples=400, deadline=None)
    @given(xy=st.lists(_PLANE_COORD, min_size=6, max_size=6),
           O=st.tuples(_CENTRE_COORD, _CENTRE_COORD, _CENTRE_COORD))
    def test_height_bounds_it_in_the_plane_z_0(self, xy, O):
        """For vertices with z = 0, the frame's third row is (+-0, +-0,
        +-1) and its translation's z +-0, so the canonical z of O is +-O_z
        bit for bit and the degeneracy is at least |O_z|: the bound by
        which scenes._scene_at skips the test."""
        x0, y0, x1, y1, x2, y2 = xy
        try:
            tri = ControlTriangle.from_points((x0, y0, 0.0), (x1, y1, 0.0),
                                              (x2, y2, 0.0))
        except DegenerateInputError:
            assume(False)
        assume(tri.area2 > 1e-150)  # its square, n2^2, in the normal range
        frame = tri.frame
        assert [abs(x) for x in frame.rotation[2].tolist()] == [0.0, 0.0, 1.0]
        assert frame.translation[2] == 0.0
        O = np.array(O)
        z = frame.to_canonical(O)[2]
        assert abs(z).hex() == abs(O[2]).hex()
        assert cocyclic_degeneracy(tri, O) >= abs(O[2])


class TestSolutionTriplet:
    def test_positive_required(self):
        with pytest.raises(DegenerateInputError):
            SolutionTriplet(1.0, -0.5, 2.0)

    def test_values(self):
        assert SolutionTriplet(1.0, 2.0, 3.0).values == (1.0, 2.0, 3.0)


def _hex(xs) -> list:
    return [float(x).hex() for x in xs]


def triangle_record(tri: ControlTriangle) -> list:
    """float.hex of every ControlTriangle field, then of the frame's a, e,
    f, rotation (row-major) and translation."""
    fr = tri.frame
    return _hex([*tri.A, *tri.B, *tri.C, tri.a, tri.b, tri.c, tri.cos_A,
                 tri.cos_B, tri.cos_C, tri.area2, fr.a, fr.e, fr.f,
                 *fr.rotation.ravel(), *fr.translation])


def outcome(record, fn, *args):
    """(value, record(value)), or (None, [exception type, message]) where fn
    raises a degeneracy error."""
    try:
        value = fn(*args)
    except (DegenerateInputError, DegenerateAngleError) as exc:
        return None, [type(exc).__name__, str(exc)]
    return value, record(value)


def view_record(tri, O) -> list:
    """The triangle's record, then the view cosines from O (or the error)
    and O's cocyclic degeneracy."""
    tri, rec = outcome(triangle_record, ControlTriangle.from_points, *tri)
    if tri is None:
        return rec
    _, cos = outcome(lambda va: _hex(va.cosines),
                     view_angles_from_center, tri, O)
    _, degeneracy = outcome(float.hex, cocyclic_degeneracy, tri, O)
    return [rec, cos, degeneracy]


#: hand-made inputs that reach the constructors' degeneracy errors, signed
#: zeros and extreme magnitudes: each triangle is seen from one centre, and
#: the unit right triangle from each centre
_RIGHT = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
_HAND_TRIANGLES = [
    [[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 0, 0], [0, 0, 0], [1, 1, 0]],
    [[0.0, 0.0, math.nan], _RIGHT[1], _RIGHT[2]],
    [_RIGHT[0], [1.0, math.inf, 0.0], _RIGHT[2]],
    [_RIGHT[0], _RIGHT[1], [0.0, -math.inf, 0.0]],
    [[0.0, 0.0], _RIGHT[1], _RIGHT[2]],
    [[1e-300, 0.0, 0.0], [0.0, 1e-300, 0.0], [0.0, 0.0, 0.0]],
    [[1e300, 0.0, 0.0], [0.0, 1e300, 0.0], [0.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-13, 0.0]],
    [[-0.0, 0.0, -0.0], [1.0, -0.0, 0.0], [0.0, 1.0, -0.0]],
]
_HAND_CENTERS = [
    [0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.25, 0.25, 0.0],
    [2.0, 2.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1e-20], [0.3, 0.2, 1.0],
    [0.0, 0.0, math.nan], [math.inf, 0.0, 1.0], [0.0, 0.0, 1e200],
]


def scene_corpus() -> dict:
    """The constructors' outputs, bit for bit: random_scene on 200 trial
    generators (with the generator's next draw and the scene's cocyclic
    degeneracy), and from_points,
    view_angles_from_center and cocyclic_degeneracy on unfiltered, sliver
    and hand-made inputs, with the error type and message where they raise.
    """
    scenes = []
    for rng in _trial_rngs(17, 200):
        sc = random_scene(rng)
        scenes.append(triangle_record(sc.triangle) + _hex(sc.angles.cosines)
                      + _hex(sc.center) + [rng.random().hex(),
                      cocyclic_degeneracy(sc.triangle, sc.center).hex()])
    rng = np.random.default_rng(18)
    unfiltered = []
    for k in range(150):
        # every third draw in the z = 0 plane, its centre in that plane too
        flat = k % 3 == 0
        pts = rng.uniform(-1.0, 1.0, (3, 3))
        O = rng.uniform(-2.0, 2.0, 3)
        if flat:
            pts[:, 2] = O[2] = 0.0
        unfiltered.append(view_record(list(pts), O))
    rng = np.random.default_rng(19)
    sliver = []
    for _ in range(80):
        a = 10.0 ** rng.uniform(-13.0, -1.0)
        A = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.0), 0.0])
        sliver.append(view_record([A, np.zeros(3), np.array([a, 0.0, 0.0])],
                                  rng.uniform(-2.0, 2.0, 3)))
    hand = [view_record(pts, [0.3, 0.2, 1.0]) for pts in _HAND_TRIANGLES]
    hand += [view_record(_RIGHT, O) for O in _HAND_CENTERS]
    return dict(random_scene=scenes, unfiltered=unfiltered, sliver=sliver,
                hand=hand)


class TestSceneCorpus:
    def test_matches_stored_bits(self):
        want = json.loads(CORPUS.read_text())
        got = scene_corpus()
        for key in want:
            assert got[key] == want[key], key
        assert got.keys() == want.keys()


def _twin(obj):
    """obj rebuilt by its class's dataclass __init__ from its field values."""
    return type(obj)(**{f.name: getattr(obj, f.name)
                        for f in dataclasses.fields(obj)})


class TestRecords:
    """ControlTriangle, CanonicalFrame and Scene are built without their
    dataclass __init__ (geometry._record); each is what that __init__ would
    build."""

    @pytest.fixture
    def scene(self):
        return random_scene(np.random.default_rng(3))

    def records(self, scene):
        return [scene.triangle, scene.triangle.frame, scene]

    def test_twin_fields_and_repr(self, scene):
        for obj in self.records(scene):
            twin = _twin(obj)
            for f in dataclasses.fields(obj):
                got, want = getattr(obj, f.name), getattr(twin, f.name)
                assert type(got) is type(want)
                if isinstance(got, np.ndarray):
                    assert got.tobytes() == want.tobytes()
                else:
                    assert got is want
            assert repr(obj) == repr(twin)
            # the fields in __init__'s order, then the triangle's cached frame
            assert [k for k in vars(obj) if k != "frame"] \
                == [f.name for f in dataclasses.fields(obj)]

    @pytest.mark.parametrize("name", ["a", "A", "rotation", "angles", "frame"])
    def test_frozen(self, scene, name):
        for obj in self.records(scene):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)

    def test_identity_hash(self, scene):
        tri = scene.triangle
        twin = _twin(tri)
        assert tri != twin and tri == tri
        assert hash(tri) == object.__hash__(tri)
        assert {tri: 1}.get(twin) is None
        assert hash(scene) == object.__hash__(scene) and scene != _twin(scene)
        assert type(scene) is Scene


def assert_is_its_twin(obj):
    """obj, a frozen record built by geometry._record, is what its
    dataclass __init__ would build: the same field objects, repr, dict,
    eq, hash and immutability."""
    twin = _twin(obj)
    names = [f.name for f in dataclasses.fields(obj)]
    for f in dataclasses.fields(obj):
        got, want = getattr(obj, f.name), getattr(twin, f.name)
        assert type(got) is type(want) and got is want
        if f.type in ("float", "int", "bool"):
            assert type(got).__name__ == f.type
    assert repr(obj) == repr(twin)
    assert list(vars(obj)) == names
    # the class's key-sharing dict, as __init__ leaves it
    assert sys.getsizeof(vars(obj)) == sys.getsizeof(vars(twin))
    if isinstance(obj, SolutionSet):  # eq=False: identity
        assert obj != twin and obj == obj
        assert hash(obj) == object.__hash__(obj)
    else:
        assert obj == twin and hash(obj) == hash(twin)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)


class TestSolveRecords:
    """The SolutionSet, Solutions, SolutionTriplets and RatioPairs that solve
    returns, and the RatioPairs of intersect_conics, are built by
    geometry._record; each is what its dataclass __init__ would build."""

    @pytest.fixture
    def scenes(self, eq1_triangle, eq1_angles):
        """The equilateral fixture, random scenes, and danger-cylinder
        scenes, whose double root is a point of multiplicity 2."""
        out = [(eq1_triangle, eq1_angles)]
        for rng in _trial_rngs(41, 30):
            sc = random_scene(rng)
            out.append((sc.triangle, sc.angles))
        for rng in _trial_rngs(43, 5):
            sc = _locus_scene(rng, None)
            out.append((sc.triangle, sc.angles))
        return out

    @staticmethod
    def records(tri, angles):
        ss = solve(tri, angles)
        out = [ss]
        for s in ss.solutions:
            out += [s, s.triplet, s.ratio]
        return out + list(intersect_conics(build_conics(tri.sides,
                                                        angles)).points)

    def test_records_match_their_twins(self, scenes):
        kinds = set()
        for tri, angles in scenes:
            for obj in self.records(tri, angles):
                kinds.add(type(obj).__name__)
                assert_is_its_twin(obj)
        assert kinds == {"SolutionSet", "Solution", "SolutionTriplet",
                         "RatioPair"}

    def test_all_real_counts_multiplicities(self, scenes):
        mults = []
        for tri, angles in scenes:
            inter = intersect_conics(build_conics(tri.sides, angles))
            mults += [p.multiplicity for p in inter.points]
            assert inter.all_real == sum(p.multiplicity for p in inter.points)
        assert 2 in mults
