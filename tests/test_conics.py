"""Characteristic conics, the eliminant, and intersection enumeration."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from p3pshare import conics, solver
from p3pshare.conics import (PENCIL_RANK_TOL, Conic, _pencil_sigma2,
                             build_conics, companion_roots, difference_conic,
                             intersect_conics, newton_polish,
                             quadrant_one_filter, resultant_in_u,
                             tangency_flags)
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
    def test_gradient_matches_finite_differences(self):
        c = Conic(1.0, -2.0, 3.0, 0.5, -0.25, 2.0)
        h = 1e-7
        u, v = 0.7, -1.3
        gu = (c(u + h, v) - c(u - h, v)) / (2 * h)
        gv = (c(u, v + h) - c(u, v - h)) / (2 * h)
        np.testing.assert_allclose(c.gradient(u, v), [gu, gv], rtol=1e-6)

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
        d = difference_conic(eq1_pair())
        for u, v in EQ1_RATIOS:
            assert d(u, v) == pytest.approx(0.0, abs=1e-12)

    def test_no_constant_term(self):
        # both conics share the same constant a^2, so it cancels
        rng = np.random.default_rng(5)
        sc = random_scene(rng)
        d = difference_conic(build_conics(sc.triangle.sides, sc.angles))
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


class TestCompanionRoots:
    @settings(max_examples=100, deadline=None)
    @given(coef=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=5))
    def test_matches_polyroots(self, coef):
        if abs(coef[-1]) < 1e-3:
            coef[-1] = 1.0
        got = np.sort_complex(np.array(companion_roots(coef), dtype=complex))
        ref = np.sort_complex(P.polyroots(coef).astype(complex))
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_low_degrees(self):
        assert companion_roots([3.0]) == []
        assert companion_roots([3.0, -2.0]) == [1.5]


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
        assert abs(_pencil_sigma2(F1, F2) - ref) <= 1e-12 * ref

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
            got, ref = _pencil_sigma2(F1, F2), svd_sigma2(F1, F2)
            assert abs(got - ref) <= 1e-12 * ref + 4 * np.finfo(float).eps
            assert (got < PENCIL_RANK_TOL) == (ref < PENCIL_RANK_TOL)
            below += got < PENCIL_RANK_TOL
        # the perturbations straddle the gate: 1e-9 stays above it, 1e-11
        # falls below it
        if eps >= 1e-9:
            assert below == 0
        if eps <= 1e-11:
            assert below == 40


class TestNewtonPolish:
    def test_converges_from_nearby_guess(self):
        pair = eq1_pair()
        u, v, res = newton_polish(pair.C1, pair.C2, 3.9, 4.1)
        assert (u, v) == pytest.approx((4.0, 4.0), abs=1e-10)
        assert res < 1e-12

    def test_singular_jacobian_falls_back_to_least_squares(self, monkeypatch):
        # F1 = u^2 - 1, F2 = v^2 - 1: the Jacobian diag(2u, 2v) is singular
        # on u = 0; from (0, 2) the minimum-norm lstsq step (0, -0.75) cuts
        # the residual from 3 to 1, and no later step can lower |F1| = 1
        F1 = Conic(c_vv=0.0, c_uv=0.0, c_uu=1.0, c_u=0.0, c_v=0.0, c_1=-1.0)
        F2 = Conic(c_vv=1.0, c_uv=0.0, c_uu=0.0, c_u=0.0, c_v=0.0, c_1=-1.0)
        calls = []
        lstsq = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(conics.np.linalg, "lstsq", spy)
        u, v, res = newton_polish(F1, F2, 0.0, 2.0)
        assert calls
        assert u == 0.0
        assert v == pytest.approx(1.25, abs=1e-12)
        assert res == 1.0


class TestIntersectConics:
    def test_eq1_four_points(self):
        inter = intersect_conics(eq1_pair())
        assert inter.all_real == 4
        got = sorted((round(p.u, 9), round(p.v, 9)) for p in inter.points)
        assert got == sorted(EQ1_RATIOS)
        assert tangency_flags(inter) == [False] * 4

    def test_proportional_pair_rejected(self):
        c = Conic(1.0, 0.5, -1.0, 0.0, 0.25, 1.0)
        pair = eq1_pair()
        bad = type(pair)(C1=c, C2=Conic(*(2.0 * c.coeffs)),
                         sides=pair.sides, angles=pair.angles)
        with pytest.raises(DegeneratePencilError):
            intersect_conics(bad)

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
