"""Danger cylinder, vertical planes, skew surfaces, sampling, meshing."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from p3pshare.geometry import canonical_frame, circumcircle_2d
from p3pshare.loci import (SampleRegion, SkewedDangerCylinder,
                           cylinder_membership, danger_cylinder,
                           plane_membership, sample_locus, skew_mesh,
                           skewed_danger_cylinder, skewed_membership,
                           vertical_plane)
from p3pshare.scenes import random_scene, scene_from_center, true_triplet
from p3pshare.sharing import (POINT_LABELS, SIDE_LABELS, SharingLabel,
                              point_share_residual, side_share_residual)
from p3pshare.geometry import RatioPair
from p3pshare.solver import solve

MESH_GOLDEN = Path(__file__).parent / "data" / "skew_meshes.json"


def mesh_cases(tri):
    """(name, surface, bounds, n) of every golden skew mesh of tri."""
    cases = [(f"{lab.name}_n{n}", skewed_danger_cylinder(tri, lab), None, n)
             for lab in POINT_LABELS for n in (96, 48)]
    cases.append(("POINT_A_bounds",
                  skewed_danger_cylinder(tri, SharingLabel.POINT_A),
                  (-1.0, 4.0, -2.5, 3.0), 40))
    return cases


def mesh_record(surf, bounds, n) -> dict:
    """Sizes and sha256 digests of a mesh's vertex bytes and face list."""
    verts, faces = skew_mesh(surf, bounds=bounds, n=n)
    return {"vertices": len(verts), "faces": len(faces),
            "vertex_sha256": hashlib.sha256(
                np.ascontiguousarray(verts, dtype=float).tobytes()).hexdigest(),
            "face_sha256": hashlib.sha256(
                json.dumps([list(f) for f in faces]).encode()).hexdigest()}


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
            assert abs(side_share_residual(rp, sc.angles, label)) < 1e-12


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
            r = point_share_residual(rp, sc1_triangle, sc.angles, label)
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
        surf = skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_A)
        verts, faces = skew_mesh(surf, n=32)
        for f in faces:
            assert len(f) == 3
            assert all(1 <= idx <= len(verts) for idx in f)
            assert len(set(f)) == 3

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
