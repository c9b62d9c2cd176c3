"""Danger cylinder, vertical planes, skew surfaces, sampling, meshing."""

import bisect
import dataclasses
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3pshare import loci
from p3pshare.geometry import canonical_frame, circumcircle_2d
from p3pshare.errors import SamplingFailureError
from p3pshare.loci import (_DEN_TOL, SampleRegion, SkewedDangerCylinder,
                           cylinder_membership, danger_cylinder,
                           plane_membership, sample_locus, skew_mesh,
                           skewed_danger_cylinder, skewed_membership,
                           uniform, vertical_plane)
from p3pshare.scenes import random_scene, scene_from_center, true_triplet
from p3pshare.sharing import (POINT_LABELS, SIDE_LABELS, SharingLabel,
                              sharing_residual)
from p3pshare.geometry import RatioPair
from p3pshare.solver import solve

MESH_GOLDEN = Path(__file__).parent / "data" / "skew_meshes.json"
#: the draw_record of scalar_skew_mesh on each of the random_mesh_draws,
#: written once from it
MESH_DRAWS = Path(__file__).parent / "data" / "skew_mesh_draws.json"


def mesh_cases(tri):
    """(name, surface, bounds, n) of every golden skew mesh of tri."""
    cases = [(f"{lab.name}_n{n}", skewed_danger_cylinder(tri, lab), None, n)
             for lab in POINT_LABELS for n in (96, 48)]
    cases.append(("POINT_A_bounds",
                  skewed_danger_cylinder(tri, SharingLabel.POINT_A),
                  (-1.0, 4.0, -2.5, 3.0), 40))
    return cases


def assert_face_array(faces):
    """skew_mesh's face contract: a C-contiguous int32 (F, 3) array."""
    assert isinstance(faces, np.ndarray) and faces.dtype == np.int32
    assert faces.ndim == 2 and faces.shape[1] == 3
    assert faces.flags.c_contiguous


def mesh_record(surf, bounds, n) -> dict:
    """Sizes and sha256 digests of a mesh's vertex bytes and face list."""
    verts, faces = skew_mesh(surf, bounds=bounds, n=n)
    assert_face_array(faces)
    return {"vertices": len(verts), "faces": len(faces),
            "vertex_sha256": hashlib.sha256(
                np.ascontiguousarray(verts, dtype=float).tobytes()).hexdigest(),
            "face_sha256": hashlib.sha256(
                json.dumps(faces.tolist()).encode()).hexdigest()}


def draw_record(verts, faces) -> dict:
    """A mesh's vertex shape, and sha256 digests of its vertex bytes and of
    its faces as int32 (F, 3) bytes."""
    return {"shape": list(verts.shape),
            "vertex_sha256": hashlib.sha256(
                np.ascontiguousarray(verts, dtype=float).tobytes()).hexdigest(),
            "face_sha256": hashlib.sha256(np.asarray(
                faces, dtype=np.int32).reshape(-1, 3).tobytes()).hexdigest()}


class TestLocusRecords:
    """The loci's records are built without their dataclass __init__
    (geometry._record); each is what that __init__ would build."""

    def records(self, tri):
        frame = canonical_frame(tri)
        return [danger_cylinder(frame),
                *(vertical_plane(frame, lab) for lab in SIDE_LABELS),
                *(skewed_danger_cylinder(tri, lab) for lab in POINT_LABELS),
                loci._new_region(1.5, 2.0, 0.25, 100)]

    def test_each_is_its_twin(self, sc1_triangle):
        for obj in self.records(sc1_triangle):
            fields = dataclasses.fields(obj)
            twin = type(obj)(**{f.name: getattr(obj, f.name) for f in fields})
            for f in fields:
                assert getattr(obj, f.name) is getattr(twin, f.name)
            assert repr(obj) == repr(twin)
            assert list(vars(obj)) == [f.name for f in fields]
            assert sys.getsizeof(vars(obj)) == sys.getsizeof(vars(twin))
            if isinstance(obj, SampleRegion):  # eq=True: by value
                assert obj == twin and hash(obj) == hash(twin)
            else:
                assert obj != twin and hash(obj) == object.__hash__(obj)
            for f in fields:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, 1.0)

    def test_skew_surface_caches_its_cylinder(self, sc1_triangle):
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_B)
        assert surf.cylinder is surf.cylinder
        assert surf.cylinder.frame is surf.frame


class TestDangerCylinder:
    def test_matches_circumcircle(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        cyl = danger_cylinder(frame)
        cx, cy, r = circumcircle_2d(frame)
        assert cyl.center == pytest.approx((cx, cy))
        assert cyl.radius == pytest.approx(r, rel=1e-12)
        assert cyl.center == pytest.approx((1.5, 0.5))
        assert cyl.radius_squared == pytest.approx(2.5, rel=1e-12)

    def test_membership_zero_through_vertices(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        cyl = danger_cylinder(frame)
        for p in sc1_triangle.points:
            lifted = p + np.array([0.0, 0.0, 1.3])
            assert abs(cylinder_membership(cyl, lifted)) < 1e-12

    def test_membership_sign(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        cyl = danger_cylinder(frame)
        inside = frame.to_world(np.array([*cyl.center, 0.8]))
        assert cylinder_membership(cyl, inside) < 0.0


class TestVerticalPlanes:
    def test_passes_through_own_vertex(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        tri = sc1_triangle
        vertex = {0: tri.A, 1: tri.B, 2: tri.C}
        for label in SIDE_LABELS:
            plane = vertical_plane(frame, label)
            assert abs(plane_membership(plane, vertex[label.shift])) < 1e-12

    def test_normal_is_horizontal_and_along_opposite_side(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        tri = sc1_triangle
        side = {0: tri.C - tri.B, 1: tri.A - tri.C, 2: tri.B - tri.A}
        for label in SIDE_LABELS:
            plane = vertical_plane(frame, label)
            d = frame.rotation @ side[label.shift]
            d = d / np.linalg.norm(d)
            assert abs(abs(plane.normal @ d) - 1.0) < 1e-12
            assert plane.normal[2] == pytest.approx(0.0, abs=1e-15)

    def test_on_plane_center_puts_true_solution_on_side_line(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        rng = np.random.default_rng(9)
        for label in SIDE_LABELS:
            plane = vertical_plane(frame, label)
            O = sample_locus(plane, rng)
            sc = scene_from_center(sc1_triangle, O)
            t = true_triplet(sc)
            rp = RatioPair(u=t.s2 / t.s1, v=t.s3 / t.s1)
            assert abs(sharing_residual(rp, sc1_triangle, sc.angles,
                                        label)) < 1e-12


class TestSkewSurface:
    def test_z0_slice_contains_cylinder_circle(self, sc1_triangle):
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_A)
        cyl = surf.cylinder
        cx, cy = cyl.center
        for th in np.linspace(0.0, 2.0 * math.pi, 17):
            p = surf.frame.to_world(np.array([cx + cyl.radius * math.cos(th),
                                              cy + cyl.radius * math.sin(th),
                                              0.0]))
            assert abs(skewed_membership(surf, p)) < 1e-12

    @pytest.mark.parametrize("label", POINT_LABELS)
    def test_surface_equals_point_share_line_locus(self, sc1_triangle, label):
        # the defining property: a viewpoint on the surface puts the true
        # solution on the point-share constraint line
        surf = skewed_danger_cylinder(sc1_triangle, label)
        rng = np.random.default_rng(13)
        for _ in range(10):
            O = sample_locus(surf, rng)
            assert abs(skewed_membership(surf, O)) < 1e-12
            sc = scene_from_center(sc1_triangle, O)
            t = true_triplet(sc)
            rp = RatioPair(u=t.s2 / t.s1, v=t.s3 / t.s1)
            r = sharing_residual(rp, sc1_triangle, sc.angles, label)
            assert abs(r) < 1e-9

    def test_off_surface_point_is_nonzero(self, sc1_triangle):
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_A)
        O = surf.frame.to_world(np.array([0.3, 0.4, 1.0]))
        assert abs(skewed_membership(surf, O)) > 1e-4


class TestSampling:
    def test_cylinder_samples_lie_on_wall(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        cyl = danger_cylinder(frame)
        rng = np.random.default_rng(1)
        for _ in range(20):
            O = sample_locus(cyl, rng)
            assert abs(cylinder_membership(cyl, O)) < 1e-12

    def test_plane_samples_lie_on_plane(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        rng = np.random.default_rng(1)
        for label in SIDE_LABELS:
            plane = vertical_plane(frame, label)
            for _ in range(10):
                O = sample_locus(plane, rng)
                assert abs(plane_membership(plane, O)) < 1e-12

    def test_z_exclusion_respected(self, sc1_triangle):
        frame = canonical_frame(sc1_triangle)
        cyl = danger_cylinder(frame)
        region = SampleRegion(min_abs_z=0.5, z_max=1.0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            O = sample_locus(cyl, rng, region)
            z = frame.to_canonical(O)[2]
            assert 0.5 <= abs(z) <= 1.0

    def test_unknown_locus_type_rejected(self):
        with pytest.raises(TypeError):
            sample_locus(object(), np.random.default_rng(0))


def scalar_sample_skew(surf, rng, region):
    """The one-attempt-at-a-time loop that _sample_skew replays."""
    a, e, f = surf.frame.a, surf.frame.e, surf.frame.f
    (cx, cy), h = surf.cylinder.center, region.xy_half_extent
    for _ in range(region.max_rejects):
        x = uniform(rng, cx - h, cx + h)
        y = uniform(rng, cy - h, cy + h)
        Q = (x - cx) ** 2 + (y - cy) ** 2 - surf.cylinder.radius_squared
        den = e * e - f * y - a * e
        if abs(den) < _DEN_TOL * max(1.0, a * a):
            continue
        z2 = f * y * Q / den
        if z2 <= 0.0 or not region.min_abs_z <= math.sqrt(z2) <= region.z_max:
            continue
        z = math.sqrt(z2) if rng.random() >= 0.5 else -math.sqrt(z2)
        return surf.frame.to_world(np.array([x, y, z]))
    raise SamplingFailureError("skew-surface sampling region exhausted")


def sample_run(sampler, surf, seed, region, count=3):
    """count draws of sampler from default_rng(seed): the point bytes (or
    "fail" where it raised) and the generator's end state."""
    rng = np.random.default_rng(seed)
    out = []
    try:
        for _ in range(count):
            out.append(sampler(surf, rng, region).tobytes())
    except SamplingFailureError:
        out.append("fail")
    return out, rng.bit_generator.state


class TestSkewSampler:
    """_sample_skew tests its attempts in blocks and replays the stream to
    the accepted one: the points and end state of the scalar loop."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(0, 2),
           h=st.floats(0.02, 6.0), z_lo=st.floats(0.0, 1.5),
           z_span=st.floats(0.0, 2.5), budget=st.integers(1, 400))
    def test_matches_scalar_loop(self, seed, k, h, z_lo, z_span, budget):
        tri = random_scene(np.random.default_rng(seed)).triangle
        surf = skewed_danger_cylinder(tri, POINT_LABELS[k])
        region = SampleRegion(xy_half_extent=h, min_abs_z=z_lo,
                              z_max=z_lo + z_span, max_rejects=budget)
        assert sample_run(sample_locus, surf, seed, region) \
            == sample_run(scalar_sample_skew, surf, seed, region)

    def test_no_admissible_point_raises_in_both(self, sc1_triangle):
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_B)
        region = SampleRegion(min_abs_z=1.5, z_max=1.0, max_rejects=1000)
        got = sample_run(sample_locus, surf, 7, region)
        assert got[0] == ["fail"]
        assert got == sample_run(scalar_sample_skew, surf, 7, region)

    # the default budget, one that cuts the third block short, and one that
    # ends inside the first scalar attempts
    @pytest.mark.parametrize("budget", [10000, 16 + 64 + 128 + 7, 9])
    def test_exhausted_end_state_is_scalar(self, sc1_triangle, budget):
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_B)
        region = SampleRegion(min_abs_z=1.5, z_max=1.0, max_rejects=budget)
        got = sample_run(sample_locus, surf, 11, region, count=1)
        assert got[0] == ["fail"]
        assert got == sample_run(scalar_sample_skew, surf, 11, region, count=1)

    def test_blocks_grow(self, sc1_triangle, monkeypatch):
        # an exhausted default budget: 16 scalar attempts, then blocks that
        # double from 64, the last cut to the attempts left
        sizes = []

        def counted(surf, x, y, region, den_min):
            sizes.append(len(x))
            return skew_hits(surf, x, y, region, den_min)

        skew_hits = loci._skew_hits
        monkeypatch.setattr(loci, "_skew_hits", counted)
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_B)
        with pytest.raises(SamplingFailureError):
            sample_locus(surf, np.random.default_rng(7),
                         SampleRegion(min_abs_z=1.5, z_max=1.0))
        assert sizes == [64, 128, 256, 512, 1024, 2048, 4096, 1856]

    @pytest.mark.parametrize("k", [0, 1, 2, 127, 128, 1001])
    def test_block_draw_is_scalar_draws(self, k):
        """Generator.random(k) gives the values and end state of k scalar
        rng.random() calls; the replay rests on it."""
        a, b = np.random.default_rng(k), np.random.default_rng(k)
        block = a.random(k)
        scalar = [b.random() for _ in range(k)]
        assert block.tobytes() == np.array(scalar, dtype=float).tobytes()
        assert a.bit_generator.state == b.bit_generator.state


class TestSkewMesh:
    def test_golden_meshes(self, sc1_triangle):
        """Vertices and faces equal, bit for bit, the stored digests."""
        want = json.loads(MESH_GOLDEN.read_text())
        got = {name: mesh_record(surf, bounds, n)
               for name, surf, bounds, n in mesh_cases(sc1_triangle)}
        assert got == want

    def test_vertices_satisfy_surface(self, sc1_triangle):
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_A)
        verts, faces = skew_mesh(surf, n=48)
        assert len(verts) > 0 and len(faces) > 0
        for v in verts:
            w = surf.frame.to_world(v)
            assert abs(skewed_membership(surf, w)) < 1e-9

    def test_faces_are_valid_one_based_triangles(self, sc1_triangle):
        """Every row is three distinct 1-based vertex indices in range."""
        for label in POINT_LABELS:
            surf = skewed_danger_cylinder(sc1_triangle, label)
            for n in (2, 3, 32, 96):
                verts, faces = skew_mesh(surf, n=n)
                assert_face_array(faces)
                # the default box's one-cell grid has no admissible corner
                assert (len(faces) > 0) == (n > 2)
                if len(faces):
                    assert 1 <= faces.min() and faces.max() <= len(verts)
                    a, b, c = faces.T
                    assert ((a != b) & (b != c) & (a != c)).all()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_bounds_rejected(self, sc1_triangle, slot, value):
        """A bound that is not finite raises ValueError before any grid
        arithmetic, so no numpy warning comes first."""
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_A)
        bounds = [0.0, 1.0, 0.0, 1.0]
        bounds[slot] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                skew_mesh(surf, bounds=tuple(bounds), n=10)

    def test_boundary_vertices_sit_on_cylinder(self, sc1_triangle):
        # z = 0 mesh vertices are the danger-cylinder circle (or the y = 0 line)
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_A)
        cyl = surf.cylinder
        cx, cy = cyl.center
        verts, _ = skew_mesh(surf, n=48)
        rim = [v for v in verts if v[2] == 0.0]
        assert rim, "mesh has no z = 0 boundary vertices"
        for v in rim:
            on_circle = abs(math.hypot(v[0] - cx, v[1] - cy) - cyl.radius)
            on_axis = abs(v[1])
            assert min(on_circle, on_axis) < 1e-9

    def test_seam_in_closed_form(self, sc1_triangle):
        """Every z = 0 vertex lies in its crossing edge, at y == 0 or on the
        danger circle to 4 ulps of r; criterion 9's meshes keep membership
        residuals below 1e-12."""
        for label in POINT_LABELS:
            surf = skewed_danger_cylinder(sc1_triangle, label)
            verts, _ = skew_mesh(surf)
            assert seam_errors(surf, verts, None, 96) == []
            worst = max(abs(skewed_membership(surf, surf.frame.to_world(v)))
                        for v in verts)
            assert worst <= 1e-12
        for surf, bounds, n in random_mesh_draws():
            verts, _ = skew_mesh(surf, bounds=bounds, n=n)
            assert seam_errors(surf, verts, bounds, n) == []


def scalar_skew_mesh(surf, bounds=None, n: int = 96):
    """The cell walk that skew_mesh replaced, kept as its reference: node
    tables in dicts, one scalar closed-form z = 0 vertex per crossing edge
    (cached by edge) and a fan per polygon, vertices numbered as the walk
    creates them.
    """
    a, e, f = surf.frame.a, surf.frame.e, surf.frame.f
    cyl = surf.cylinder
    cx, cy = cyl.center
    r = cyl.radius
    if bounds is None:
        pad = 1.6 * r
        bounds = (cx - pad, cx + pad, cy - pad, cy + pad)
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, n).tolist()
    ys = np.linspace(y0, y1, n).tolist()
    den_min = _DEN_TOL * max(1.0, a * a)

    def rhs_parts(x, y):
        Q = (x - cx) ** 2 + (y - cy) ** 2 - cyl.radius_squared
        den = e * e - f * y - a * e
        return f * y * Q, den

    # rhs_parts at every node at once; the squares are taken one coordinate
    # at a time with the scalar power of rhs_parts, whose last bit can
    # differ from numpy's array square
    y = np.array(ys)
    Q = np.array([(x - cx) ** 2 for x in xs])[:, None] \
        + np.array([(yj - cy) ** 2 for yj in ys]) - cyl.radius_squared
    den = e * e - f * y - a * e
    with np.errstate(divide="ignore", invalid="ignore"):
        z2 = f * y * Q / den
    adm_grid = (abs(den) >= den_min) & (z2 > 0.0)
    adm = adm_grid.tolist()
    zs = np.sqrt(np.where(adm_grid, z2, 0.0)).tolist()

    vertices: list[tuple[float, float, float]] = []
    top = {}
    bot = {}

    def node_vertex(i, j, sheet):
        key = (i, j)
        table = top if sheet > 0 else bot
        if key not in table:
            vertices.append((xs[i], ys[j], sheet * zs[i][j]))
            table[key] = len(vertices)
        return table[key]

    cross_cache = {}

    def circle_root(c, s2, lo, hi):
        """c -/+ sqrt(s2) nearer the edge [lo, hi] (either order), clipped."""
        root = c + math.copysign(math.sqrt(max(s2, 0.0)), 0.5 * (lo + hi) - c)
        return min(max(root, min(lo, hi)), max(lo, hi))

    def edge_crossing(n0, n1):
        """z=0 vertex on the edge between an admissible and inadmissible node:
        y = 0 where y changes sign along it, else the circle root."""
        key = (min(n0, n1), max(n0, n1))
        if key in cross_cache:
            return cross_cache[key]
        lx, ly = xs[n0[0]], ys[n0[1]]
        hx, hy = xs[n1[0]], ys[n1[1]]
        g0, d0 = rhs_parts(lx, ly)
        g1, d1 = rhs_parts(hx, hy)
        idx = None
        if d0 * d1 > 0.0 and min(abs(d0), abs(d1)) > den_min \
                and g0 * g1 < 0.0:
            if n0[1] == n1[1]:  # along x
                x = circle_root(cx, cyl.radius_squared - (ly - cy) ** 2,
                                lx, hx)
                vertices.append((x, ly, 0.0))
            elif (ly > 0.0) != (hy > 0.0):
                vertices.append((lx, 0.0, 0.0))
            else:
                y = circle_root(cy, cyl.radius_squared - (lx - cx) ** 2,
                                ly, hy)
                vertices.append((lx, y, 0.0))
            idx = len(vertices)
        cross_cache[key] = idx
        return idx

    faces: list[tuple[int, int, int]] = []

    def fan(poly):
        for t in range(1, len(poly) - 1):
            faces.append((poly[0], poly[t], poly[t + 1]))

    touched = adm_grid[:-1, :-1] | adm_grid[1:, :-1] | adm_grid[:-1, 1:] \
        | adm_grid[1:, 1:]
    for i, j in np.argwhere(touched).tolist():
        cyc = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
        flags = [adm[p][q] for p, q in cyc]
        for sheet in (1, -1):
            poly = []
            for t in range(4):
                p, q = cyc[t], cyc[(t + 1) % 4]
                if flags[t]:
                    poly.append(node_vertex(*p, sheet))
                if flags[t] != flags[(t + 1) % 4]:
                    idx = edge_crossing(p, q)
                    if idx is not None:
                        poly.append(idx)
            if len(poly) >= 3:
                fan(poly)

    return np.array(vertices), faces


def random_mesh_draws(seed: int = 20261018, count: int = 300):
    """(surface, bounds, n) draws: random triangle, label, n in [2, 120],
    and on odd draws a random box around the danger circle."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        tri = random_scene(rng).triangle
        surf = skewed_danger_cylinder(tri, POINT_LABELS[k % 3])
        n = int(rng.integers(2, 121))
        bounds = None
        if k % 2:
            (cx, cy), r = surf.cylinder.center, surf.cylinder.radius
            xb = np.sort(rng.uniform(cx - 2.0 * r, cx + 2.0 * r, 2))
            yb = np.sort(rng.uniform(cy - 2.0 * r, cy + 2.0 * r, 2))
            bounds = (*xb.tolist(), *yb.tolist())
        yield surf, bounds, n


def seam_errors(surf, verts, bounds, n) -> list[str]:
    """What is wrong with the mesh's z = 0 vertices, if anything. Each must
    lie in a grid edge (bounds ascending) across which f*y*Q changes sign,
    with y == 0 exactly or hypot(x - cx, y - cy) within 4 ulps of r.
    """
    cyl = surf.cylinder
    (cx, cy), r = cyl.center, cyl.radius
    if bounds is None:
        bounds = (cx - 1.6 * r, cx + 1.6 * r, cy - 1.6 * r, cy + 1.6 * r)
    xs = np.linspace(bounds[0], bounds[1], n).tolist()
    ys = np.linspace(bounds[2], bounds[3], n).tolist()

    def g(x, y):
        return surf.frame.f * y * ((x - cx) ** 2 + (y - cy) ** 2
                                   - cyl.radius_squared)

    def spans(line, t):
        k = bisect.bisect_left(line, t)
        return [j for j in (k - 1, k)
                if 0 <= j < n - 1 and line[j] <= t <= line[j + 1]]

    errors = []
    for x, y, z in verts.tolist() if len(verts) else []:
        if z != 0.0:
            continue
        edges = [((x, ys[j]), (x, ys[j + 1])) for j in spans(ys, y)
                 if x in xs]
        edges += [((xs[i], y), (xs[i + 1], y)) for i in spans(xs, x)
                  if y in ys]
        if not any(g(*p) * g(*q) < 0.0 for p, q in edges):
            errors.append(f"({x!r}, {y!r}) is in no crossing edge")
        elif y != 0.0 and abs(math.hypot(x - cx, y - cy) - r) \
                > 4.0 * math.ulp(r):
            errors.append(f"({x!r}, {y!r}) is off the circle")
    return errors


def assert_same_mesh(surf, bounds, n):
    """skew_mesh equals scalar_skew_mesh: vertex bytes, shape and dtype, and
    every face index in order; the faces are an int32 (F, 3) array."""
    want_v, want_f = scalar_skew_mesh(surf, bounds=bounds, n=n)
    got_v, got_f = skew_mesh(surf, bounds=bounds, n=n)
    assert (got_v.shape, got_v.dtype) == (want_v.shape, want_v.dtype)
    assert got_v.tobytes() == want_v.tobytes()
    assert_face_array(got_f)
    assert got_f.tolist() == [list(f) for f in want_f]
    return got_v, got_f


class TestSkewMeshReference:
    """The array mesh against the scalar cell walk, bit for bit."""

    def test_fixed_cases(self, sc1_triangle):
        cases = [(surf, bounds, n)
                 for _, surf, bounds, n in mesh_cases(sc1_triangle)]
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_A)
        cases += [(surf, None, n) for n in (2, 3, 24, 200)]
        # a reversed box and zero-width ones: the library accepts them
        cases += [(surf, (4.0, -1.0, 3.0, -2.5), 30),
                  (surf, (0.4, 0.4, -1.0, 1.0), 30),
                  (surf, (-1.0, 4.0, 0.5, 0.5), 30)]
        for surf, bounds, n in cases:
            assert_same_mesh(surf, bounds, n)

    def test_empty_region(self, sc1_triangle):
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_A)
        verts, faces = assert_same_mesh(surf, (100.0, 101.0, 100.0, 101.0),
                                        10)
        assert verts.shape == (0,) and faces.shape == (0, 3)

    def test_random_draws(self):
        """300 random triangle x label x n in [2, 120] x bounds draws, each
        against the draw_record of scalar_skew_mesh's mesh (MESH_DRAWS)."""
        want = json.loads(MESH_DRAWS.read_text())
        assert len(want) == 300
        crossings = 0
        for k, (surf, bounds, n) in enumerate(random_mesh_draws()):
            verts, faces = skew_mesh(surf, bounds=bounds, n=n)
            assert verts.dtype == np.float64
            assert_face_array(faces)
            assert draw_record(verts, faces) == want[k], k
            crossings += int(np.count_nonzero(verts[:, 2] == 0.0)) \
                if len(verts) else 0
        assert crossings > 1000  # many edges got a z = 0 vertex

    def test_overflowing_square_raises_in_both(self, sc1_triangle):
        """x ** 2 raises OverflowError past |x| ~ 1.34e154; so does the
        array mesh, not return infinities."""
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_A)
        for bounds in [(1e155, 2e155, 0.0, 1.0), (0.0, 1.0, -2e154, 0.0)]:
            with pytest.raises(OverflowError):
                scalar_skew_mesh(surf, bounds=bounds, n=5)
            with pytest.raises(OverflowError):
                skew_mesh(surf, bounds=bounds, n=5)
        assert_same_mesh(surf, (1e150, 2e150, 0.0, 1.0), 5)


class TestLibmSquare:
    """skew_mesh squares with np.float_power(x, 2.0) to get the bits of
    Python's x ** 2 (both call libm pow; np.square does not). A numpy or
    libm change that breaks this fails here, not as a golden-mesh mismatch.
    """

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(-1e154, 1e154, exclude_min=True, exclude_max=True))
    def test_float_power_is_python_square(self, x):
        got = float(np.float_power(np.array([x]), 2.0)[0])
        assert got.hex() == (x ** 2).hex()

    def test_seeded_draws(self):
        rng = np.random.default_rng(154)
        x = rng.standard_normal(1_000_000) \
            * 10.0 ** rng.uniform(-170.0, 153.0, 1_000_000)
        want = np.array([v ** 2 for v in x.tolist()])
        assert np.float_power(x, 2.0).tobytes() == want.tobytes()
