"""Solution enumeration, residuals, and optical-center recovery."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p3pshare.errors import (DegenerateAngleError, DegenerateInputError,
                             DegeneratePencilError, InconsistentInputError,
                             InfeasibleRatioError, InfeasibleTripletError)
from p3pshare.geometry import (ControlTriangle, RatioPair, SolutionTriplet,
                               ViewAngles, view_angles_from_center)
from p3pshare.scenes import random_scene
from p3pshare.solver import (constraint_residuals, recover_centers, solve,
                             triplet_from_ratio)

from conftest import EQ1_RATIOS, EQ1_S_LONG, EQ1_S_SHORT, triplet_of


class TestConstraintResiduals:
    def test_zero_for_true_distances(self, eq1_angles):
        t = SolutionTriplet(EQ1_S_LONG, EQ1_S_LONG, EQ1_S_LONG)
        res = constraint_residuals(t, (1.0, 1.0, 1.0), eq1_angles)
        assert max(abs(r) for r in res) < 1e-15

    def test_nonzero_for_wrong_distances(self, eq1_angles):
        t = SolutionTriplet(1.0, 1.0, 2.0)
        res = constraint_residuals(t, (1.0, 1.0, 1.0), eq1_angles)
        assert max(abs(r) for r in res) > 0.1


class TestTripletFromRatio:
    @pytest.mark.parametrize("uv", EQ1_RATIOS)
    def test_eq1_points_recover_derived_triplets(self, uv, eq1_angles):
        t = triplet_from_ratio(RatioPair(*uv), (1.0, 1.0, 1.0), eq1_angles)
        expect = triplet_of(*uv, a=1.0, cos_alpha=0.625)
        assert t.values == pytest.approx(expect, abs=1e-12)

    def test_negative_ratio_rejected(self, eq1_angles):
        with pytest.raises(InfeasibleRatioError):
            triplet_from_ratio(RatioPair(-1.0, 2.0), (1.0, 1.0, 1.0), eq1_angles)

    def test_off_curve_point_rejected(self, eq1_angles):
        with pytest.raises(InconsistentInputError):
            triplet_from_ratio(RatioPair(2.0, 3.0), (1.0, 1.0, 1.0), eq1_angles)


class TestSolveEq1:
    def test_four_solutions_with_derived_values(self, eq1_triangle, eq1_angles):
        sol = solve(eq1_triangle, eq1_angles)
        assert sol.count == 4
        got = sorted((round(s.ratio.u, 9), round(s.ratio.v, 9))
                     for s in sol.solutions)
        assert got == sorted(EQ1_RATIOS)
        values = {tuple(round(x, 9) for x in s.triplet.values)
                  for s in sol.solutions}
        L = round(EQ1_S_LONG, 9)
        S = round(EQ1_S_SHORT, 9)
        assert values == {(L, L, L), (S, L, L), (L, L, S), (L, S, L)}
        assert sol.repeated_flags == [False] * 4

    def test_solutions_sorted_by_s1_then_s2(self, eq1_triangle, eq1_angles):
        sol = solve(eq1_triangle, eq1_angles)
        keys = [(s.triplet.s1, s.triplet.s2) for s in sol.solutions]
        assert keys == sorted(keys)


class TestSolveRandom:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_residuals_and_count(self, seed):
        sc = random_scene(np.random.default_rng(seed))
        sol = solve(sc.triangle, sc.angles)
        assert 1 <= sol.count <= 4
        for s in sol.solutions:
            res = constraint_residuals(s.triplet, sc.triangle.sides, sc.angles)
            assert max(abs(r) for r in res) < 1e-8

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_true_triplet_among_solutions(self, seed):
        sc = random_scene(np.random.default_rng(seed))
        truth = tuple(float(np.linalg.norm(p - sc.center))
                      for p in sc.triangle.points)
        sol = solve(sc.triangle, sc.angles)
        best = min(max(abs(x - y) for x, y in zip(s.triplet.values, truth))
                   for s in sol.solutions)
        assert best < 1e-7 * sc.scale


def truth_gap(sol, points, O) -> float:
    """Distance from the true triplet to the nearest returned solution."""
    truth = [float(np.linalg.norm(np.asarray(p) - O)) for p in points]
    return min((max(abs(x - y) for x, y in zip(s.triplet.values, truth))
                for s in sol.solutions), default=math.inf)


class TestSolveUnfiltered:
    """Scenes drawn without the SceneConfig clearances: skinny triangles,
    tiny subtended angles and viewpoints near the base plane."""

    @pytest.mark.parametrize("points, O", [
        # side a is 0.02 long: the basic-constraint check, normalized by
        # a^2, needs the conic residual polished far below the tol gate
        ([(-0.1632089725600696, -0.3212107907449424, 0.0),
          (0.8365917325026695, -0.4710944099014791, 0.0),
          (0.8179366743371381, -0.48218254487031853, 0.0)],
         (-1.2056256624527975, 0.1514545848679818, 1.4456977246728817)),
        # the quartic eliminant in u vanishes to 1e-15 although the conics
        # meet in two points: no cocyclic degeneracy
        ([(0.6214271151623025, -0.7156652484959551, 0.0),
          (-0.672895220914461, 0.9608685021928516, 0.0),
          (-0.6766836927859947, 0.9684771206372196, 0.0)],
         (-1.1585906741753722, 0.9663247414394398, 1.9231900601079408)),
    ])
    def test_skinny_triangle_finds_truth(self, points, O):
        tri = ControlTriangle.from_points(*(np.array(p) for p in points))
        O = np.array(O)
        sol = solve(tri, view_angles_from_center(tri, O))
        assert truth_gap(sol, points, O) < 1e-7 * tri.scale

    # derandomized, so a run repeats: about one draw in 1e5 is a sliver
    # triangle whose ratio conics pin the truth only to ~1e-6 of scale, as
    # the xfail example shows
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 31), scale=st.sampled_from([1e-6, 1.0, 1e6]))
    @example(seed=20531, scale=1.0).xfail(
        raises=AssertionError,
        reason="side a is 0.5% of the others: the truth and the returned point "
               "both leave conic residuals of 1e-16, 2e-6 of scale apart")
    def test_contract_at_every_scale(self, seed, scale):
        # control points uniform in [-1, 1]^2, O uniform in [-2, 2]^3
        rng = np.random.default_rng(seed)
        xy = rng.uniform(-1.0, 1.0, (3, 2))
        points = [np.array([x, y, 0.0]) * scale for x, y in xy]
        O = rng.uniform(-2.0, 2.0, 3) * scale
        try:
            tri = ControlTriangle.from_points(*points)
            angles = view_angles_from_center(tri, O)
        except (DegenerateInputError, DegenerateAngleError):
            return
        try:
            sol = solve(tri, angles)
        except DegeneratePencilError:
            return
        assert 1 <= sol.count <= 4
        for s in sol.solutions:
            res = constraint_residuals(s.triplet, tri.sides, angles)
            assert max(abs(r) for r in res) < 1e-8
        assert truth_gap(sol, points, O) < 1e-6 * tri.scale


class TestRecoverCenters:
    def test_round_trip(self, eq1_triangle, eq1_center, eq1_angles):
        t = SolutionTriplet(EQ1_S_LONG, EQ1_S_LONG, EQ1_S_LONG)
        up, dn = recover_centers(t, eq1_triangle)
        d_up = np.linalg.norm(up - eq1_center)
        d_dn = np.linalg.norm(dn - eq1_center)
        assert min(d_up, d_dn) < 1e-12
        # the two centers are mirror images through the base plane
        mid = 0.5 * (up + dn)
        assert abs(mid[2]) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_random_round_trip(self, seed):
        sc = random_scene(np.random.default_rng(seed))
        truth = SolutionTriplet(*(float(np.linalg.norm(p - sc.center))
                                  for p in sc.triangle.points))
        up, dn = recover_centers(truth, sc.triangle)
        best = min(np.linalg.norm(up - sc.center), np.linalg.norm(dn - sc.center))
        assert best < 1e-7

    def test_infeasible_triplet_rejected(self, eq1_triangle):
        with pytest.raises(InfeasibleTripletError):
            recover_centers(SolutionTriplet(10.0, 0.6, 0.6), eq1_triangle)
