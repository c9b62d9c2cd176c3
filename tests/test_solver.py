"""Solution enumeration, residuals, and optical-center recovery."""

import math
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itertools import combinations

from p3pshare import conics
from p3pshare.conics import (Conic, ConicPair, IntersectionSet, build_conics,
                             intersect_conics)
from p3pshare.errors import (DegenerateAngleError, DegenerateInputError,
                             DegeneratePencilError, InconsistentInputError,
                             InfeasibleRatioError, InfeasibleTripletError)
from p3pshare.geometry import (ControlTriangle, RatioPair, SolutionTriplet,
                               _cross, view_angles_from_center)
from p3pshare.scenes import _locus_scene, _trial_rngs, random_scene
from p3pshare.sharing import POINT_LABELS, SIDE_LABELS
from p3pshare.solver import (Solution, constraint_residuals, recover_centers,
                             solve, triplet_from_ratio)

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

    # Two constructible sliver scenes (A, B = 0, C = (a, 0, 0)) whose centres
    # lie 0.45 and 0.90 of scale from the circumcircle, far from the
    # degeneracy, yet solve returns an empty set and raises nothing
    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="_intersect itself returns no point in either scene; in the "
               "second, at tol 1e-6 the truth (u = 0.52884) comes back as a "
               "point of multiplicity 2, so the INTERSECT_TOL gate drops it; "
               "in the first, even tol 1e-6 gives nothing")
    @pytest.mark.parametrize("a, A, O", [
        (0.000412794235389062, (0.6041612302778463, 0.9375251596314176),
         (-0.004746198627944231, 0.43841624951407443, 0.24412298914528474)),
        (0.0008387272869499778, (0.9161340206568054, 0.5916571330883383),
         (-0.12174602621773412, -0.9107994307188876, 0.3499386314883819)),
    ], ids=["sliver_1", "sliver_2"])
    def test_sliver_returns_a_solution(self, a, A, O):
        tri = ControlTriangle.from_points(np.array([*A, 0.0]), np.zeros(3),
                                          np.array([a, 0.0, 0.0]))
        sol = solve(tri, view_angles_from_center(tri, np.array(O)))
        assert sol.count >= 1


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


# ---------------------------------------------------------------------------
# The solve path as it stood on Conic objects, kept as the reference for the
# straight-line kernel. It shares no code with that kernel but the pencil
# cubic's root: lam comes from the kernel's conics.farthest_real_root (tested
# on its own in tests/test_conics.py), so everything after lam, the two
# Newton steps on it included, is still pinned bit for bit. The tuple helpers
# below (_dot, _adj, _member, _split_lines, _line_seeds) are the ones the
# kernel replaced, kept verbatim.

def _dot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _adj(M):
    """Adjugate of a symmetric 3x3 matrix: cross products of its rows."""
    return (_cross(M[1], M[2]), _cross(M[2], M[0]), _cross(M[0], M[1]))


def _member(A, B, lam: float):
    """A + lam B."""
    return [(ra[0] + lam * rb[0], ra[1] + lam * rb[1], ra[2] + lam * rb[2])
            for ra, rb in zip(A, B)]


def _split_lines(D):
    """The two real lines l . (u, v, 1) = 0 whose product is the degenerate
    conic D: adj(D) = -p p^T for their common point p, and D plus the skew
    matrix of p is the rank-1 l m^T (Richter-Gebert, Perspectives on
    Projective Geometry, 11.3). None when the lines are complex conjugate."""
    q = _adj(D)
    i = max(range(3), key=lambda k: abs(q[k][k]))
    if q[i][i] > 0.0:
        return ()
    beta = math.sqrt(-q[i][i])
    p0, p1, p2 = (x / beta for x in q[i]) if beta else (0.0, 0.0, 0.0)
    (a, b, c), (_, d, e), (_, _, f) = D
    C = ((a, b + p2, c - p1), (b - p2, d, e + p0), (c + p1, e - p0, f))
    flat = [abs(x) for row in C for x in row]
    i, j = divmod(flat.index(max(flat)), 3)
    return C[i], (C[0][j], C[1][j], C[2][j])


def _line_seeds(G, line, tol: float) -> list[tuple[float, float]]:
    """Seeds for the common points of a line and the conic of matrix G.

    Along the line o + x d, G is a quadratic a2 x^2 + a1 x + a0. A complex
    pair x0 +- i im gives the seeds x0 +- im when G there, 2 |a2| im^2,
    passes the tol gate: a tangency that rounding pushed off the real axis."""
    l0, l1, l2 = line
    if abs(l1) >= abs(l0):
        if l1 == 0.0:  # the line at infinity
            return []
        d, o = (1.0, -l0 / l1, 0.0), (0.0, -l2 / l1, 1.0)
    else:
        d, o = (-l1 / l0, 1.0, 0.0), (-l2 / l0, 0.0, 1.0)
    Gd, Go = [_dot(row, d) for row in G], [_dot(row, o) for row in G]
    a2, a1, a0 = _dot(d, Gd), 2.0 * _dot(o, Gd), _dot(o, Go)
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        x0 = -0.5 * a1 / a2
        im = math.sqrt(-disc) / (2.0 * abs(a2))
        u0, v0 = o[0] + x0 * d[0], o[1] + x0 * d[1]
        if 2.0 * abs(a2) * im * im > tol * (1.0 + u0 * u0 + v0 * v0):
            return []
        xs = (x0 - im, x0 + im)
    else:
        # the stable pair q / a2, a0 / q; a2 = 0 leaves the one root a0 / q,
        # and q = 0 means a1 = 0 and a2 a0 = 0
        q = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
        if q == 0.0:
            xs = (0.0, 0.0) if a2 else ()
        else:
            xs = (q / a2, a0 / q) if a2 else (a0 / q,)
    return [(o[0] + x * d[0], o[1] + x * d[1]) for x in xs]


def ref_scaled(F: Conic) -> Conic:
    m = max(abs(c) for c in F.terms)
    if m == 0.0:
        raise DegeneratePencilError("zero conic")
    return Conic(*(c / m for c in F.terms))


def ref_newton_polish(F1, F2, u, v, tol=1e-13):
    u, v = float(u), float(v)
    best_r = max(abs(F1(u, v)), abs(F2(u, v)))
    for _ in range(50):
        if best_r < tol:
            break
        f1, f2 = F1(u, v), F2(u, v)
        a = F1.c_uv * v + 2.0 * F1.c_uu * u + F1.c_u
        b = 2.0 * F1.c_vv * v + F1.c_uv * u + F1.c_v
        c = F2.c_uv * v + 2.0 * F2.c_uu * u + F2.c_u
        d = 2.0 * F2.c_vv * v + F2.c_uv * u + F2.c_v
        if abs(c) > abs(a):
            a, b, c, d, f1, f2 = c, d, a, b, f2, f1
        l = c / a if a else 0.0
        u22 = d - l * b
        if a and u22:
            dv = (l * f1 - f2) / u22
            du = (-f1 - b * dv) / a
        else:
            du, dv = np.linalg.lstsq(np.array([[a, b], [c, d]]),
                                     np.array([-f1, -f2]), rcond=None)[0].tolist()
        if not (math.isfinite(du) and math.isfinite(dv)):
            break
        lam = 1.0
        for _ in range(8):
            qu, qv = u + lam * du, v + lam * dv
            r = max(abs(F1(qu, qv)), abs(F2(qu, qv)))
            if r < best_r:
                u, v, best_r = qu, qv, r
                break
            lam *= 0.5
        else:
            break
    return u, v, best_r


def ref_pencil_sigma2(F1: Conic, F2: Conic) -> float:
    x, y = F1.terms, F2.terms
    norms = math.hypot(*x) * math.hypot(*y)
    dot = sum(p * q for p, q in zip(x, y)) / norms
    wedge = math.sqrt(sum((x[i] * y[j] - x[j] * y[i]) ** 2
                          for i, j in combinations(range(6), 2))) / norms
    return wedge / math.sqrt(1.0 + abs(dot))


def ref_matrix(F: Conic):
    h_uv, h_u, h_v = 0.5 * F.c_uv, 0.5 * F.c_u, 0.5 * F.c_v
    return ((F.c_uu, h_uv, h_u), (h_uv, F.c_vv, h_v), (h_u, h_v, F.c_1))


def ref_intersect_conics(pair, tol=conics.INTERSECT_TOL,
                         cluster_tol=conics.CLUSTER_TOL):
    F1 = ref_scaled(pair.C1)
    F2 = ref_scaled(pair.C2)
    if ref_pencil_sigma2(F1, F2) < conics.PENCIL_RANK_TOL:
        raise DegeneratePencilError("proportional conic pair")
    A, B = ref_matrix(F1), ref_matrix(F2)
    adjA, adjB = _adj(A), _adj(B)
    detA, detB = _dot(A[0], adjA[0]), _dot(B[0], adjB[0])
    if abs(detB) < abs(detA):
        A, B, adjA, adjB, detA, detB = B, A, adjB, adjA, detB, detA
    cubic = [detA, reduce(add, map(_dot, adjA, B)),
             reduce(add, map(_dot, A, adjB)), detB]
    if max(abs(c) for c in cubic) < 1e-14:
        raise DegeneratePencilError("conics share a component")
    lam = 0.0  # detB = 0 makes detA = 0 by the swap
    if detB:
        monic = [c / detB for c in cubic[2::-1]]
        if all(map(math.isfinite, monic)):
            lam = conics.farthest_real_root(*monic)
    if abs(lam) > 1.0:
        A, B, lam = B, A, 1.0 / lam
        cubic.reverse()
    for _ in range(2):
        D = _member(A, B, lam)
        df = cubic[1] + (2.0 * cubic[2] + 3.0 * cubic[3] * lam) * lam
        if df:
            lam -= _dot(D[0], _cross(D[1], D[2])) / df
    points = []
    for line in _split_lines(_member(A, B, lam)):
        for u0, v0 in _line_seeds(B, line, tol):
            u, v, res = ref_newton_polish(F1, F2, u0, v0, tol=1e-15)
            if not res <= tol * (1.0 + u * u + v * v):
                continue
            for i, q in enumerate(points):
                if (abs(u - q.u) <= cluster_tol * (1.0 + abs(q.u))
                        and abs(v - q.v) <= cluster_tol * (1.0 + abs(q.v))):
                    points[i] = RatioPair(q.u, q.v, q.multiplicity + 1)
                    break
            else:
                points.append(RatioPair(u, v, 1))
    points.sort(key=lambda p: (p.u, p.v))
    return IntersectionSet(points=tuple(points),
                           all_real=sum(p.multiplicity for p in points))


def ref_triplet_from_ratio(rp, sides, angles, tol=1e-9):
    a, _, _ = sides
    ca = angles.cos_alpha
    u, v = rp.u, rp.v
    if not (u > 0.0 and v > 0.0):
        raise InfeasibleRatioError("ratio point outside quadrant I")
    rad = u * u + v * v - 2.0 * ca * u * v
    if rad <= 0.0:
        raise InfeasibleRatioError("non-positive base-distance radicand")
    s1 = a / math.sqrt(rad)
    t = SolutionTriplet(s1=s1, s2=u * s1, s3=v * s1)
    if max(abs(r) for r in constraint_residuals(t, sides, angles)) > tol:
        raise InconsistentInputError("ratio point violates the basic constraints")
    return t


def ref_solve(tri, angles, tol=conics.INTERSECT_TOL,
              cluster_tol=conics.CLUSTER_TOL):
    pair = build_conics(tri.sides, angles)
    inter = ref_intersect_conics(pair, tol=tol, cluster_tol=cluster_tol)
    sols = []
    for rp in conics.quadrant_one_filter(inter):
        try:
            t = ref_triplet_from_ratio(rp, tri.sides, angles,
                                       tol=max(tol, 1e-9))
        except InfeasibleRatioError:
            continue
        sols.append(Solution(triplet=t, ratio=rp,
                             repeated=rp.multiplicity >= 2))
    sols.sort(key=lambda s: (s.triplet.s1, s.triplet.s2))
    return tuple(sols)


def outcome(fn, *args, **kwargs):
    """fn's result as float.hex strings, or the type of what it raised."""
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # the reference raises the same types
        return type(exc)
    if isinstance(out, SolutionTriplet):
        return [x.hex() for x in out.values]
    if isinstance(out, IntersectionSet):
        return out.all_real, [(p.u.hex(), p.v.hex(), p.multiplicity)
                              for p in out.points]
    sols = out if isinstance(out, tuple) else out.solutions
    return [(*(x.hex() for x in s.triplet.values), s.ratio.u.hex(),
             s.ratio.v.hex(), s.ratio.multiplicity, s.repeated) for s in sols]


def unfiltered(seed: int, scale: float):
    """TestSolveUnfiltered's draw, or None when it is degenerate."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-1.0, 1.0, (3, 2))
    points = [np.array([x, y, 0.0]) * scale for x, y in xy]
    O = rng.uniform(-2.0, 2.0, 3) * scale
    try:
        tri = ControlTriangle.from_points(*points)
        return tri, view_angles_from_center(tri, O)
    except (DegenerateInputError, DegenerateAngleError):
        return None


class TestSolveReference:
    """solve, intersect_conics and triplet_from_ratio bit for bit against
    the reference path: float.hex of every output, and the type of every
    exception."""

    def assert_same(self, tri, angles):
        for cluster_tol in (conics.CLUSTER_TOL, 1e-4):
            assert outcome(solve, tri, angles, cluster_tol=cluster_tol) \
                == outcome(ref_solve, tri, angles, cluster_tol=cluster_tol)
        pair = build_conics(tri.sides, angles)
        assert outcome(intersect_conics, pair) \
            == outcome(ref_intersect_conics, pair)

    def test_random_scenes(self):
        for rng in _trial_rngs(211, 300):
            sc = random_scene(rng)
            self.assert_same(sc.triangle, sc.angles)
            for rp in intersect_conics(build_conics(sc.triangle.sides,
                                                    sc.angles)).points:
                assert outcome(triplet_from_ratio, rp, sc.triangle.sides,
                               sc.angles) \
                    == outcome(ref_triplet_from_ratio, rp, sc.triangle.sides,
                               sc.angles)

    def test_locus_scenes(self):
        labels = (*SIDE_LABELS, *POINT_LABELS, None)
        checked = repeated = 0
        for t, rng in enumerate(_trial_rngs(223, 140)):
            scene = _locus_scene(rng, labels[t % len(labels)])
            if scene is None:
                continue
            self.assert_same(scene.triangle, scene.angles)
            checked += 1
            repeated += any(s.repeated for s in solve(
                scene.triangle, scene.angles, cluster_tol=1e-4).solutions)
        assert checked >= 130 and repeated >= 5

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_unfiltered_draws(self, scale):
        # seed 20531 is the sliver triangle of the xfail above
        checked = 0
        for seed in [20531, *range(400)]:
            drawn = unfiltered(seed, scale)
            if drawn is not None:
                self.assert_same(*drawn)
                checked += 1
        assert checked >= 390

    def test_sliver_triangles(self):
        # side a of 1e-5 to 1e-3: the basic-constraint gate rejects ratio
        # points here, so both paths must raise InconsistentInputError alike
        rng = np.random.default_rng(227)
        inconsistent = 0
        for _ in range(200):
            a = 10.0 ** rng.uniform(-5.0, -3.0)
            A = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.0), 0.0])
            O = rng.uniform(-2.0, 2.0, 3)
            try:
                tri = ControlTriangle.from_points(A, np.zeros(3),
                                                  np.array([a, 0.0, 0.0]))
                angles = view_angles_from_center(tri, O)
            except (DegenerateInputError, DegenerateAngleError):
                continue
            self.assert_same(tri, angles)
            inconsistent += outcome(solve, tri, angles) is InconsistentInputError
        assert inconsistent >= 5

    def test_hand_made_pairs(self):
        circle = Conic(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)
        for C1, C2 in [
                (circle, Conic(1.0, 0.0, 1.0, -4.0, 0.0, 3.0)),
                (circle, Conic(1.0, 0.0, 0.25, 0.0, 0.0, -1.0)),
                (circle, Conic(2.0, 1.0, 1.0, -1.0, 0.0, -1.0)),
                (Conic(0.0, 1.0, 0.0, -1.0, 0.0, 0.0),
                 Conic(0.0, 1.0, 0.0, 1.0, 0.0, 0.0)),
                (circle, Conic(2.0, 0.0, 2.0, 0.0, 0.0, -2.0))]:
            bad = ConicPair(C1, C2)
            assert outcome(intersect_conics, bad) \
                == outcome(ref_intersect_conics, bad)

    # One hand-made pair per rare branch of the kernel, with its real count.
    # Terms order: c_vv, c_uv, c_uu, c_u, c_v, c_1 (F = c_vv v^2 + ... + c_1).
    @pytest.mark.parametrize("C1, C2, all_real", [
        # u^2 = v^2 and u^2 = 1: both are line pairs, det A = det B = 0, so
        # the cubic's leading coefficient is exactly 0
        pytest.param((-1.0, 0.0, 1.0, 0.0, 0.0, 0.0),
                     (0.0, 0.0, 1.0, 0.0, 0.0, -1.0), 4, id="cubic_degree_2"),
        # the lines v = +-1 and the hyperbola u^2 = v^2 + v + 1: the cubic's
        # roots 0 and +-2/sqrt(3) tie in their gaps, and the sign of the
        # depressed cubic's q = 0 picks an outer one
        pytest.param((1.0, 0.0, 0.0, 0.0, 0.0, -1.0),
                     (-1.0, 0.0, 1.0, 0.0, -1.0, -1.0), 4, id="root_tie"),
        # the lines u (v + 2) = 0 and the parabola v = -u^2, then the lines
        # v (u + 1/2) = 0 and the parabola u = -v^2: one and then the other
        # middle coefficient of the cubic sums to -0.0 (its fold starts at
        # its first term), and the roots 0 and +-1/sqrt(2) tie in their gaps
        pytest.param((0.0, 0.0, -2.0, 0.0, -2.0, 0.0),
                     (0.0, 1.0, 0.0, 2.0, 0.0, 0.0), 3, id="zero_sum_sign"),
        pytest.param((0.0, 1.0, 0.0, 0.0, 0.5, 0.0),
                     (-1.0, 0.0, 0.0, -1.0, 0.0, 0.0), 3, id="zero_sum_sign_2"),
        # the lines u (u - 2) = 0 and the hyperbola uv + u^2 + v = 0: two
        # diagonal entries of adj(D) tie in size, and the first wins
        pytest.param((0.0, 0.0, -1.0, 2.0, 0.0, 0.0),
                     (0.0, 1.0, 1.0, 0.0, 1.0, 0.0), 2, id="adjugate_tie"),
        # the double line v^2 = 0 and the line u = 0: the seed at x = -0.0
        # comes out as u = 0.0 + x = +0.0
        pytest.param((-1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                     (0.0, 0.0, 0.0, 1.0, 0.0, 0.0), 2, id="seed_sign"),
        # the unit circle and an ellipse: the isolated root has |lam| > 1
        pytest.param((1.0, 0.0, 1.0, 0.0, 0.0, -1.0),
                     (2.0, 1.0, 1.0, -1.0, 0.0, -1.0), 2, id="lam_swap"),
        # the hyperbola uv = -1 and the lines (u + v)(v - u + 2) = 0: the
        # second touches it at (1, -1), where the first crosses, a triple
        # point; det(A + lam B) is flat at the root taken
        pytest.param((0.0, 2.0, 0.0, 0.0, 0.0, 2.0),
                     (1.0, 0.0, -1.0, 2.0, 2.0, 0.0), 4, id="df_zero"),
        # the double line v^2 = 0 and the parabola 2v = (u - 1)^2 touching
        # it: the member is the double line, adj(D) = 0 and beta = 0 (and
        # df = 0 as well)
        pytest.param((-1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                     (0.0, 0.0, -1.0, 2.0, 2.0, -1.0), 4, id="beta_zero"),
        # the line v = 0 and the empty circle u^2 + v^2 = -2: the member's
        # lines are complex conjugate (q_ii > 0)
        pytest.param((0.0, 0.0, 0.0, 0.0, 1.0, 0.0),
                     (1.0, 0.0, 1.0, 0.0, 0.0, 2.0), 0, id="complex_lines"),
        # the parabola v^2 + v + 2u = 0 and the line u = 0: the other line
        # of the member is the line at infinity
        pytest.param((1.0, 0.0, 0.0, 2.0, 1.0, 0.0),
                     (0.0, 0.0, 0.0, -1.0, 0.0, 0.0), 2, id="line_at_infinity"),
        # a circle and the double line v^2 = 0 across it: each crossing is
        # a double point, and comes back as a complex pair that passes the
        # tol gate
        pytest.param((2.0, 0.0, 2.0, 2.0, 0.0, -1.0),
                     (2.0, 0.0, 0.0, 0.0, 0.0, 0.0), 4, id="complex_tangency"),
        # the lines u (v + 1) = 0 and the parabola v = u^2: u = 0 is
        # parallel to the axis and meets it once (a2 = 0, one seed)
        pytest.param((0.0, -1.0, 0.0, -1.0, 0.0, 0.0),
                     (0.0, 0.0, -1.0, 0.0, 1.0, 0.0), 1, id="a2_zero"),
        # the unit circle and an ellipse tangent to it at (0, +-1): each
        # line's quadratic has a1 = 0 and a double root, so q = 0
        pytest.param((1.0, 0.0, 1.0, 0.0, 0.0, -1.0),
                     (1.0, 0.0, 0.25, 0.0, 0.0, -1.0), 4, id="q_zero"),
    ])
    def test_rare_branches(self, C1, C2, all_real):
        pair = ConicPair(Conic(*C1), Conic(*C2))
        got = outcome(intersect_conics, pair)
        assert got == outcome(ref_intersect_conics, pair)
        assert got[0] == all_real
