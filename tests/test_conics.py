"""Characteristic conics, the eliminant, and intersection enumeration."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from p3pshare import conics, scenes, solver
from p3pshare.conics import (PENCIL_RANK_TOL, Conic, ConicPair,
                             _pencil_sigma2, build_conics, intersect_conics,
                             newton_polish, quadrant_one_filter,
                             resultant_in_u)
from p3pshare.errors import DegeneratePencilError, GenerationFailureError
from p3pshare.geometry import ViewAngles
from p3pshare.scenes import _trial_rngs, random_scene

from conftest import EQ1_RATIOS


GOLDEN = Path(__file__).parent / "data" / "criterion2_solutions.json"


def eq1_pair():
    return build_conics((1.0, 1.0, 1.0), ViewAngles(0.625, 0.625, 0.625))


def reference_resultant(F1: Conic, F2: Conic) -> np.ndarray:
    """The resultant through numpy.polynomial products, as the solver once
    computed it; the reference for the closed-form coefficients."""
    def v_poly(c):
        return ([c.c_vv], [c.c_v, c.c_uv], [c.c_1, c.c_u, c.c_uu])
    A1, B1, D1 = v_poly(F1)
    A2, B2, D2 = v_poly(F2)
    T1 = P.polysub(P.polymul(A1, D2), P.polymul(A2, D1))
    T2 = P.polysub(P.polymul(A1, B2), P.polymul(A2, B1))
    T3 = P.polysub(P.polymul(B1, D2), P.polymul(B2, D1))
    r = P.polysub(P.polymul(T1, T1), P.polymul(T2, T3))
    out = np.zeros(5)
    out[:len(r)] = r
    return out


def svd_sigma2(F1: Conic, F2: Conic) -> float:
    M = np.vstack([F1.coeffs, F2.coeffs])
    M = M / np.linalg.norm(M, axis=1, keepdims=True)
    return float(np.linalg.svd(M, compute_uv=False)[1])


def scene_pair(seed: int):
    sc = random_scene(np.random.default_rng(seed))
    return build_conics(sc.triangle.sides, sc.angles)


class TestBuildConics:
    def test_eq1_coefficients(self):
        pair = eq1_pair()
        # a = b = c = 1 and all cosines 5/8
        assert pair.C1.coeffs == pytest.approx([0.0, 1.25, -1.0, 0.0, -1.25, 1.0])
        assert pair.C2.coeffs == pytest.approx([-1.0, 1.25, 0.0, -1.25, 0.0, 1.0])

    def test_vanishes_on_all_ratio_points(self):
        pair = eq1_pair()
        for u, v in EQ1_RATIOS:
            assert pair.C1(u, v) == pytest.approx(0.0, abs=1e-12)
            assert pair.C2(u, v) == pytest.approx(0.0, abs=1e-12)

    def test_true_ratio_is_a_zero_for_random_scene(self):
        rng = np.random.default_rng(11)
        sc = random_scene(rng)
        s1, s2, s3 = (np.linalg.norm(p - sc.center) for p in sc.triangle.points)
        pair = build_conics(sc.triangle.sides, sc.angles)
        u, v = s2 / s1, s3 / s1
        scale = max(np.abs(pair.C1.coeffs).max(), np.abs(pair.C2.coeffs).max())
        assert abs(pair.C1(u, v)) < 1e-10 * scale
        assert abs(pair.C2(u, v)) < 1e-10 * scale


class TestConic:
    def test_scaled_preserves_zero_set(self):
        c = Conic(2.0, -4.0, 6.0, 1.0, -0.5, 4.0)
        s = c.scaled()
        assert np.max(np.abs(s.coeffs)) == pytest.approx(1.0)
        assert s(0.3, 0.9) * 3.0 == pytest.approx(c(0.3, 0.9) / 2.0)

    def test_zero_conic_rejected(self):
        with pytest.raises(DegeneratePencilError):
            Conic(0, 0, 0, 0, 0, 0).scaled()


class TestDifferenceConic:
    def test_contains_all_common_points(self):
        pair = eq1_pair()
        d = Conic(*(pair.C2.coeffs - pair.C1.coeffs))
        for u, v in EQ1_RATIOS:
            assert d(u, v) == pytest.approx(0.0, abs=1e-12)

    def test_no_constant_term(self):
        # both conics share the same constant a^2, so it cancels
        rng = np.random.default_rng(5)
        sc = random_scene(rng)
        pair = build_conics(sc.triangle.sides, sc.angles)
        d = Conic(*(pair.C2.coeffs - pair.C1.coeffs))
        assert d.c_1 == 0.0


class TestResultant:
    def test_vanishes_exactly_at_solution_abscissae(self):
        pair = eq1_pair()
        r = resultant_in_u(pair.C1.scaled(), pair.C2.scaled())
        for u in (1.0, 4.0, 0.25):
            assert P.polyval(u, r) == pytest.approx(0.0, abs=1e-12)

    def test_degree_at_most_four(self):
        pair = eq1_pair()
        r = resultant_in_u(pair.C1, pair.C2)
        assert len(r) == 5

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_closed_form_matches_numpy_polynomial(self, seed):
        pair = scene_pair(seed)
        for F1, F2 in ((pair.C1, pair.C2), (pair.C1.scaled(), pair.C2.scaled())):
            ref = reference_resultant(F1, F2)
            got = resultant_in_u(F1, F2)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def farthest_of(roots) -> float:
    """The real one of three roots farthest from the other two, the first
    on ties."""
    z = [complex(w) for w in roots]
    real = [k for k, w in enumerate(z) if w.imag == 0.0]

    def isolation(k):
        return min(abs(z[k] - w) for j, w in enumerate(z) if j != k)
    return z[max(real, key=isolation) if len(real) > 1 else real[0]].real


def np_roots_pick(a: float, b: float, c: float) -> float:
    """farthest_of the roots of x^3 + a x^2 + b x + c from np.roots."""
    return farthest_of(np.roots([1.0, a, b, c]).tolist())


def cubic_newton(a: float, b: float, c: float, lam: float) -> float:
    """The kernel's two Newton steps, on the monic cubic's values."""
    for _ in range(2):
        df = b + (2.0 * a + 3.0 * lam) * lam
        if df:
            lam -= (((lam + a) * lam + b) * lam + c) / df
    return lam


class TestFarthestRealRoot:
    @pytest.mark.parametrize("roots", [
        (4.0, 2.0, 1.0),                 # three distinct real roots
        (-3.0, 0.5, 0.75),
        (2.0, complex(-1.0, 1.0)),       # one real root and a complex pair
        (-0.25, complex(3.0, 1e-3)),
        (3.0, 1.0, 1.0),                 # a double root beside a simple one
        (-5.0, 0.5, 0.5),
        (2.0, 2.0, 2.0),                 # a triple root
    ])
    def test_hand_made_cubics(self, roots):
        if len(roots) == 2:  # a real root and a conjugate pair
            roots = (roots[0], roots[1], roots[1].conjugate())
        a, b, c = np.real(np.poly(roots)[1:]).tolist()
        got = conics.farthest_real_root(a, b, c)
        assert got == pytest.approx(roots[0], rel=1e-12)
        if roots[1] != roots[2]:  # np.roots splits a double root
            assert got == pytest.approx(np_roots_pick(a, b, c), rel=1e-12)

    def test_equal_gaps(self):
        """root_tie's cubic x^3 - 4/3 x: the roots 0 and +-2/sqrt(3) have
        equal gaps, and either outer root is as far from the others as any
        root; np.roots picks the first of them."""
        a, b, c = 0.0, -4.0 / 3.0, 0.0
        got = conics.farthest_real_root(a, b, c)
        outer = 2.0 / math.sqrt(3.0)
        assert abs(got) == pytest.approx(outer, rel=1e-15)
        assert abs(np_roots_pick(a, b, c)) == pytest.approx(outer, rel=1e-15)

    @pytest.mark.parametrize("c3", [5e-324, 2.5e-320, 1e-310])
    def test_subnormal_c3(self, c3):
        """The kernel's monic coefficients c_i / c3 for a subnormal det B:
        finite here, with one root near -c2 / c3 of 1e13 to 2e23."""
        c0, c1, c2 = -0.5 * c3, 1e-300, -1e-300
        a, b, c = c2 / c3, c1 / c3, c0 / c3
        want = np_roots_pick(a, b, c)
        assert want == pytest.approx(-a, rel=1e-9)
        assert conics.farthest_real_root(a, b, c) \
            == pytest.approx(want, rel=1e-12)

    def test_no_overflow(self):
        """Coefficients whose p^3 or q^2 would overflow unscaled."""
        assert conics.farthest_real_root(1e200, 1.0, 0.5) \
            == pytest.approx(-1e200, rel=1e-15)
        assert conics.farthest_real_root(1e-300, 0.0, 0.0) \
            == pytest.approx(-1e-300, rel=1e-15)
        assert conics.farthest_real_root(0.0, 0.0, 0.0) == 0.0

    def test_random_cubics(self):
        """600 cubics with coefficients over six decades: within 1e-13 of
        np.roots' pick relative to max(1, |lam|) before Newton, where a small
        root loses relative accuracy to the shift by a/3 (up to 3e-8 of
        |lam|); within 1e-12 of |lam| after the kernel's two Newton steps."""
        rng = np.random.default_rng(11)
        for _ in range(600):
            a, b, c = (rng.standard_normal(3)
                       * 10.0 ** rng.uniform(-3.0, 3.0, 3)).tolist()
            want = np_roots_pick(a, b, c)
            got = conics.farthest_real_root(a, b, c)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
            assert abs(cubic_newton(a, b, c, got) - want) <= 1e-12 * abs(want)

    def test_scene_cubics(self, monkeypatch):
        """On the kernel's own cubics (the first 300 criterion-2 scenes), the
        root against the public np.linalg.eigvals of the companion matrix,
        relative to max(1, |lam|)."""
        seen = []
        root = conics.farthest_real_root

        def spy(a, b, c):
            seen.append((a, b, c, root(a, b, c)))
            return seen[-1][-1]
        monkeypatch.setattr(conics, "farthest_real_root", spy)
        for rng in _trial_rngs(101, 300):
            sc = random_scene(rng)
            solver.solve(sc.triangle, sc.angles)
        assert len(seen) == 300
        for a, b, c, got in seen:
            want = farthest_of(np.linalg.eigvals(
                [[0.0, 0.0, -c], [1.0, 0.0, -b], [0.0, 1.0, -a]]).tolist())
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


class TestKernelLambda:
    @pytest.mark.parametrize("eps", [5e-324, 1e-320, 1e-200, 1e-3])
    def test_tiny_det_b(self, eps):
        """The lines u = +-v (det A = 0) and the conic u^2 + eps v^2 = 1,
        det B = -eps: det(A + lam B) = lam (1 + lam) (1 - eps lam). A
        subnormal eps overflows c2 / c3, so the kernel takes lam = 0, the
        line pair itself; eps = 1e-200 overflows p^3 unless the cubic is
        scaled. Each finds the four points (+-1, +-1) / sqrt(1 + eps)."""
        pair = ConicPair(Conic(-1.0, 0.0, 1.0, 0.0, 0.0, 0.0),
                         Conic(eps, 0.0, 1.0, 0.0, 0.0, -1.0))
        inter = intersect_conics(pair)
        w = 1.0 / math.sqrt(1.0 + eps)
        assert [(p.u, p.v, p.multiplicity) for p in inter.points] == [
            pytest.approx((su * w, sv * w, 1), rel=1e-15)
            for su in (-1.0, 1.0) for sv in (-1.0, 1.0)]


class TestDistinctQuarticRoots:
    """The danger_repeat campaign's independent root count, against np.roots
    of the same unit-norm eliminant clustered at the same gap."""

    @staticmethod
    def np_roots_count(scene, gap: float) -> int:
        pair = build_conics(scene.triangle.sides, scene.angles)
        F1, F2 = pair.C1.scaled(), pair.C2.scaled()
        for _ in range(2):
            r = resultant_in_u(F1, F2)
            clusters = []
            for z in sorted(np.roots(r[::-1] / np.max(np.abs(r))).tolist(),
                            key=lambda w: (w.real, w.imag)):
                if not any(abs(z - c) <= gap for c in clusters):
                    clusters.append(z)
            if len(clusters) >= 3:
                break
            F1, F2 = (Conic(F.c_uu, F.c_uv, F.c_vv, F.c_v, F.c_u, F.c_1)
                      for F in (F1, F2))
        return len(clusters)

    def test_random_scenes_have_four(self):
        for rng in _trial_rngs(17, 40):
            sc = random_scene(rng)
            assert scenes._distinct_quartic_roots(sc, scenes._REPEAT_GAP) \
                == self.np_roots_count(sc, scenes._REPEAT_GAP) == 4

    def test_danger_cylinder_scenes(self):
        counts = []
        for rng in _trial_rngs(505, 12):
            sc = scenes._locus_scene(rng, None)
            if sc is None:
                continue
            got = scenes._distinct_quartic_roots(sc, scenes._REPEAT_GAP)
            assert got == self.np_roots_count(sc, scenes._REPEAT_GAP)
            counts.append(got)
        # a center on the danger cylinder makes the truth a double root
        assert len(counts) >= 10 and counts.count(3) >= len(counts) - 1


class TestPencilSigma2:
    """The closed-form second singular value against numpy's SVD.

    Near a proportional pair the SVD itself is only accurate to about one
    ulp of the unit-norm matrix in absolute terms, so there the comparison
    allows a few ulp on top of the relative 1e-12.
    """

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_random_pairs(self, seed):
        pair = scene_pair(seed)
        F1, F2 = pair.C1.scaled(), pair.C2.scaled()
        ref = svd_sigma2(F1, F2)
        assert abs(_pencil_sigma2(F1.terms, F2.terms) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("eps", [1e-9, 3e-10, 1e-10, 3e-11, 1e-11])
    def test_near_proportional_pairs(self, eps):
        rng = np.random.default_rng(int(-math.log10(eps) * 10))
        below = 0
        for k in range(40):
            F1 = scene_pair(k).C1.scaled()
            d = rng.standard_normal(6)
            scale = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            F2 = Conic(*(scale * F1.coeffs + eps * d / np.linalg.norm(d)))
            F1, F2 = F1.scaled(), F2.scaled()
            got, ref = _pencil_sigma2(F1.terms, F2.terms), svd_sigma2(F1, F2)
            assert abs(got - ref) <= 1e-12 * ref + 4 * np.finfo(float).eps
            assert (got < PENCIL_RANK_TOL) == (ref < PENCIL_RANK_TOL)
            below += got < PENCIL_RANK_TOL
        # the perturbations straddle the gate: 1e-9 stays above it, 3e-11
        # and 1e-11 fall below it (3e-11 gives sigma2 up to 3.1e-11, so a
        # gate ten times lower would miss 27 of its 40)
        if eps >= 1e-9:
            assert below == 0
        if eps <= 3e-11:
            assert below == 40


class TestPencilGateBand:
    """intersect_conics evaluates _pencil_sigma2 only where the unit rows
    x, y have (x.y)^2 > 0.999 |x|^2 |y|^2. Outside that band sigma2 >= 0.022,
    so the proportional-pair decision is _pencil_sigma2's alone."""

    @staticmethod
    def rows_at(off: float, k: int):
        """A scene conic's row x, and y = x/|x| + off d for a unit d normal
        to x: cos^2 between x and y is 1 / (1 + off^2)."""
        x = np.array(scene_pair(k).C1.scaled().terms)
        xh = x / np.linalg.norm(x)
        d = np.random.default_rng(k).standard_normal(6)
        d -= d.dot(xh) * xh
        y = xh + off * d / np.linalg.norm(d)
        return tuple(x.tolist()), tuple(y.tolist())

    @staticmethod
    def decisions(t1, t2, monkeypatch):
        """(kernel raised "proportional", _pencil_sigma2 alone says so,
        times the kernel evaluated it)."""
        calls = []

        def spy(x, y):
            calls.append((x, y))
            return _pencil_sigma2(x, y)
        monkeypatch.setattr(conics, "_pencil_sigma2", spy)
        try:
            conics._intersect(t1, t2, conics.INTERSECT_TOL, conics.CLUSTER_TOL)
            raised = False
        except DegeneratePencilError as exc:
            raised = str(exc) == "proportional conic pair"
        x, y = Conic(*t1).scaled().terms, Conic(*t2).scaled().terms
        return raised, _pencil_sigma2(x, y) < PENCIL_RANK_TOL, len(calls)

    @pytest.mark.parametrize("k", range(20))
    def test_just_inside_and_outside_the_band(self, k, monkeypatch):
        edge = 1.0 / 0.999 - 1.0  # off^2 at cos^2 = 0.999
        inside = self.rows_at(math.sqrt(edge * (1.0 - 1e-6)), k)
        outside = self.rows_at(math.sqrt(edge * (1.0 + 1e-6)), k)
        assert self.decisions(*inside, monkeypatch) == (False, False, 1)
        assert self.decisions(*outside, monkeypatch) == (False, False, 0)
        # the bound the short cut rests on
        assert _pencil_sigma2(Conic(*outside[0]).scaled().terms,
                              Conic(*outside[1]).scaled().terms) >= 0.022

    @pytest.mark.parametrize("k", range(20))
    def test_proportional_rows(self, k, monkeypatch):
        x = scene_pair(k).C2.terms
        for scale in (1.0, -2.0, 0.75):
            y = tuple([scale * c for c in x])
            assert self.decisions(x, y, monkeypatch) == (True, True, 1)
        # 1e-11 off proportional: inside the band, below PENCIL_RANK_TOL
        x, y = self.rows_at(1e-11, k)
        assert self.decisions(x, y, monkeypatch) == (True, True, 1)


class TestNewtonPolish:
    def test_converges_from_nearby_guess(self):
        pair = eq1_pair()
        u, v, res = newton_polish(pair.C1, pair.C2, 3.9, 4.1)
        assert (u, v) == pytest.approx((4.0, 4.0), abs=1e-10)
        assert res < 1e-12

    @pytest.mark.parametrize("t1, t2, u, v, res", [
        # F1 = u^2 - 1, F2 = v^2 - 1: the Jacobian diag(2u, 2v) has a = 0 on
        # u = 0
        ((0.0, 0.0, 1.0, 0.0, 0.0, -1.0), (1.0, 0.0, 0.0, 0.0, 0.0, -1.0),
         0.0, 2.0, 3.0),
        # u + v - 2, (u + v)^2 - 4 at u + v = 1: rows [1, 1], [2, 2] swap
        # and u22 = 1 - 0.5 * 2 = 0
        ((0.0, 0.0, 0.0, 1.0, 1.0, -2.0), (1.0, 2.0, 1.0, 0.0, 0.0, -4.0),
         0.5, 0.5, 3.0),
    ], ids=["zero_a", "zero_u22"])
    def test_zero_pivot_stops(self, monkeypatch, t1, t2, u, v, res):
        """A singular step stops where it stands, as a step that is not
        finite does, and asks numpy for nothing."""
        def lstsq(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(conics.np.linalg, "lstsq", lstsq)
        assert conics._polish(t1, t2, u, v, conics.NEWTON_STOP) == (u, v, res)


class TestIntersectConics:
    def test_eq1_four_points(self):
        inter = intersect_conics(eq1_pair())
        assert inter.all_real == 4
        got = sorted((round(p.u, 9), round(p.v, 9)) for p in inter.points)
        assert got == sorted(EQ1_RATIOS)
        assert [p.multiplicity >= 2 for p in inter.points] == [False] * 4

    def test_proportional_pair_rejected(self):
        c = Conic(1.0, 0.5, -1.0, 0.0, 0.25, 1.0)
        bad = ConicPair(C1=c, C2=Conic(*(2.0 * c.coeffs)))
        with pytest.raises(DegeneratePencilError):
            intersect_conics(bad)

    def test_shared_component_rejected(self):
        # u v - u = u (v - 1) and u v + u = u (v + 1) share the line u = 0
        bad = ConicPair(C1=Conic(0.0, 1.0, 0.0, -1.0, 0.0, 0.0),
                        C2=Conic(0.0, 1.0, 0.0, 1.0, 0.0, 0.0))
        with pytest.raises(DegeneratePencilError,
                           match="^conics share a component$"):
            intersect_conics(bad)

    @pytest.mark.parametrize("C2, want", [
        # circles touching at (1, 0), and two apart
        (Conic(1.0, 0.0, 1.0, -4.0, 0.0, 3.0), [(1.0, 0.0, 2)]),
        (Conic(1.0, 0.0, 1.0, -6.0, 0.0, 8.0), []),
        # the ellipse u^2 / 4 + v^2 = 1 touches the unit circle twice
        (Conic(1.0, 0.0, 0.25, 0.0, 0.0, -1.0), [(0.0, -1.0, 2), (0.0, 1.0, 2)]),
    ])
    def test_tangencies_of_the_unit_circle(self, C2, want):
        circle = Conic(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)
        inter = intersect_conics(ConicPair(C1=circle, C2=C2))
        got = [(round(p.u, 9), round(p.v, 9), p.multiplicity)
               for p in inter.points]
        assert got == want
        assert inter.all_real == sum(w[2] for w in want)

    def test_quadrant_filter(self):
        inter = intersect_conics(eq1_pair())
        assert len(quadrant_one_filter(inter)) == 4

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_true_solution_always_found(self, seed):
        rng = np.random.default_rng(seed)
        try:
            sc = random_scene(rng)
        except GenerationFailureError:
            return
        s1, s2, s3 = (np.linalg.norm(p - sc.center) for p in sc.triangle.points)
        u_t, v_t = s2 / s1, s3 / s1
        inter = intersect_conics(build_conics(sc.triangle.sides, sc.angles))
        best = min(math.hypot(p.u - u_t, p.v - v_t) for p in inter.points)
        assert best < 1e-6 * (1.0 + u_t + v_t)

    def test_golden_criterion2_solutions(self):
        """Counts and multiplicities exactly, and (u, v) to 1e-9 relative, as
        produced by the numpy.polynomial path on the criterion-2 scenes.

        Compared as sorted multisets: solve sorts by (s1, s2), and solutions
        tying on both may swap order at the last bit.
        """
        golden = json.loads(GOLDEN.read_text())["solutions"]
        rngs = _trial_rngs(101, len(golden))
        assert len(golden) == 1000
        for rng, want in zip(rngs, golden):
            sc = random_scene(rng)
            sol = solver.solve(sc.triangle, sc.angles)
            got = sorted((s.ratio.u, s.ratio.v, s.ratio.multiplicity)
                         for s in sol.solutions)
            want = sorted(tuple(w) for w in want)
            assert len(got) == len(want)
            assert [g[2] for g in got] == [w[2] for w in want]
            for (gu, gv, _), (wu, wv, _) in zip(got, want):
                assert gu == pytest.approx(wu, rel=1e-9)
                assert gv == pytest.approx(wv, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_total_multiplicity_at_most_four(self, seed):
        rng = np.random.default_rng(seed)
        sc = random_scene(rng)
        inter = intersect_conics(build_conics(sc.triangle.sides, sc.angles))
        assert 1 <= inter.all_real <= 4
