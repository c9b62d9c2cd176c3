"""Sharing-pair classification, mate constructions, companion structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3pshare.conics import Conic, build_conics
from p3pshare.errors import (NotOnConstraintLineError,
                             RightAngleDegeneracyError)
from p3pshare.geometry import (RatioPair, SolutionTriplet, ViewAngles,
                               interior_angles)
from p3pshare import sharing
from p3pshare.scenes import (_locus_scene, _solved, _trial_rngs, random_scene,
                             true_triplet)
from p3pshare.sharing import (POINT_LABELS, SIDE_LABELS, SharingLabel,
                              classify_solution_set, companion_check,
                              companion_identity_residual, construct_mate,
                              cycle3, factorization_residual, mate_condition,
                              relabel_ratio, relabel_triangle, relabel_triplet,
                              sharing_residual)
from p3pshare.solver import SolutionSet, constraint_residuals, solve

from conftest import EQ1_S_LONG, EQ1_S_SHORT

EQ1_SIDES = (1.0, 1.0, 1.0)


class TestRelabeling:
    def test_cycle3(self):
        assert cycle3(("x", "y", "z"), 1) == ("y", "z", "x")
        assert cycle3(("x", "y", "z"), 2) == ("z", "x", "y")

    @settings(max_examples=60, deadline=None)
    @given(u=st.floats(0.05, 20.0), v=st.floats(0.05, 20.0),
           k=st.integers(0, 2))
    def test_relabel_ratio_consistent_with_triplet(self, u, v, k):
        t = SolutionTriplet(1.0, u, v)
        tk = relabel_triplet(t, k)
        uk, vk = relabel_ratio(u, v, k)
        assert tk.s2 / tk.s1 == pytest.approx(uk, rel=1e-12)
        assert tk.s3 / tk.s1 == pytest.approx(vk, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(u=st.floats(0.05, 20.0), v=st.floats(0.05, 20.0),
           k=st.integers(0, 2))
    def test_relabel_ratio_inverse(self, u, v, k):
        uk, vk = relabel_ratio(u, v, k)
        back = relabel_ratio(uk, vk, (3 - k) % 3)
        assert back == pytest.approx((u, v), rel=1e-12)

    def test_relabel_triangle_permutes_vertices(self, sc1_triangle):
        t1 = relabel_triangle(sc1_triangle, 1)
        np.testing.assert_allclose(t1.A, sc1_triangle.B)
        np.testing.assert_allclose(t1.B, sc1_triangle.C)
        np.testing.assert_allclose(t1.C, sc1_triangle.A)

    def test_relabel_triangle_shift_zero_is_the_triangle(self, sc1_triangle):
        # a shift-0 locus reuses the triangle and its cached frame
        assert relabel_triangle(sc1_triangle, 0) is sc1_triangle
        assert relabel_triangle(sc1_triangle, 3) is sc1_triangle


class TestShareResiduals:
    def test_side_line_holds_on_eq1_pair(self, eq1_triangle, eq1_angles):
        for u, v in ((1.0, 1.0), (4.0, 4.0)):
            r = sharing_residual(RatioPair(u, v), eq1_triangle, eq1_angles,
                                 SharingLabel.SIDE_BC)
            assert r == pytest.approx(0.0, abs=1e-15)

    def test_point_line_holds_on_eq1_pair(self, eq1_triangle, eq1_angles):
        for u, v in ((1.0, 0.25), (0.25, 1.0)):
            r = sharing_residual(RatioPair(u, v), eq1_triangle, eq1_angles,
                                 SharingLabel.POINT_A)
            assert r == pytest.approx(0.0, abs=1e-12)

    def test_off_line_point_is_nonzero(self, eq1_triangle, eq1_angles):
        r = sharing_residual(RatioPair(1.0, 1.0), eq1_triangle, eq1_angles,
                             SharingLabel.POINT_A)
        assert abs(r) > 0.1


class TestMateConditions:
    def test_eq1_satisfies_all(self, eq1_triangle, eq1_angles):
        # subtended cosines 0.625 > interior cosines 0.5 everywhere
        for label in (*SIDE_LABELS, *POINT_LABELS):
            assert mate_condition(eq1_triangle, eq1_angles, label)

    def test_wide_angle_fails_side_condition(self, eq1_triangle):
        angles = ViewAngles(0.3, 0.625, 0.625)  # alpha wider than 60 degrees
        assert not mate_condition(eq1_triangle, angles, SharingLabel.SIDE_BC)


class TestConstructSideMate:
    def test_eq1_involution_between_known_pair(self, eq1_triangle, eq1_angles):
        t = SolutionTriplet(EQ1_S_LONG, EQ1_S_LONG, EQ1_S_LONG)
        mate = construct_mate(t, eq1_triangle, eq1_angles, SharingLabel.SIDE_BC)
        assert mate.values == pytest.approx(
            (EQ1_S_SHORT, EQ1_S_LONG, EQ1_S_LONG), abs=1e-12)
        back = construct_mate(mate, eq1_triangle, eq1_angles,
                              SharingLabel.SIDE_BC)
        assert back.values == pytest.approx(t.values, abs=1e-12)

    def test_mate_satisfies_basic_constraints(self, eq1_triangle, eq1_angles):
        t = SolutionTriplet(EQ1_S_LONG, EQ1_S_LONG, EQ1_S_LONG)
        mate = construct_mate(t, eq1_triangle, eq1_angles, SharingLabel.SIDE_BC)
        res = constraint_residuals(mate, EQ1_SIDES, eq1_angles)
        assert max(abs(r) for r in res) < 1e-12

    def test_off_line_solution_rejected(self, eq1_triangle, eq1_angles):
        t = SolutionTriplet(EQ1_S_LONG, EQ1_S_LONG, EQ1_S_SHORT)  # on SIDE_AB
        with pytest.raises(NotOnConstraintLineError):
            construct_mate(t, eq1_triangle, eq1_angles, SharingLabel.SIDE_BC)

    def test_shifted_label(self, eq1_triangle, eq1_angles):
        # (1, 1) and (1, 0.25) share side AB: same s1, s2, different s3
        t = SolutionTriplet(EQ1_S_LONG, EQ1_S_LONG, EQ1_S_LONG)
        mate = construct_mate(t, eq1_triangle, eq1_angles, SharingLabel.SIDE_AB)
        assert mate.values == pytest.approx(
            (EQ1_S_LONG, EQ1_S_LONG, EQ1_S_SHORT), abs=1e-12)


class TestConstructPointMate:
    def test_eq1_pair(self, eq1_triangle, eq1_angles):
        t = SolutionTriplet(*[x * 1.0 for x in
                              (EQ1_S_LONG, EQ1_S_LONG, EQ1_S_SHORT)])
        mate = construct_mate(t, eq1_triangle, eq1_angles, SharingLabel.POINT_A)
        assert mate.values == pytest.approx(
            (EQ1_S_LONG, EQ1_S_SHORT, EQ1_S_LONG), abs=1e-12)
        back = construct_mate(mate, eq1_triangle, eq1_angles,
                              SharingLabel.POINT_A)
        assert back.values == pytest.approx(t.values, abs=1e-12)

    def test_mate_satisfies_basic_constraints(self, eq1_triangle, eq1_angles):
        t = SolutionTriplet(EQ1_S_LONG, EQ1_S_LONG, EQ1_S_SHORT)
        mate = construct_mate(t, eq1_triangle, eq1_angles, SharingLabel.POINT_A)
        res = constraint_residuals(mate, EQ1_SIDES, eq1_angles)
        assert max(abs(r) for r in res) < 1e-12

    def test_off_line_solution_rejected(self, eq1_triangle, eq1_angles):
        t = SolutionTriplet(EQ1_S_LONG, EQ1_S_LONG, EQ1_S_LONG)
        with pytest.raises(NotOnConstraintLineError):
            construct_mate(t, eq1_triangle, eq1_angles, SharingLabel.POINT_A)


class TestClassification:
    def test_eq1_reports_all_six_pairs(self, eq1_triangle, eq1_angles):
        sol = solve(eq1_triangle, eq1_angles)
        cls = classify_solution_set(sol, eq1_triangle, eq1_angles)
        by_uv = {tuple(round(x, 6) for x in (s.ratio.u, s.ratio.v)): i
                 for i, s in enumerate(sol.solutions)}
        expected = {
            ((1.0, 1.0), (4.0, 4.0)): SharingLabel.SIDE_BC,
            ((1.0, 0.25), (0.25, 1.0)): SharingLabel.POINT_A,
            ((1.0, 1.0), (1.0, 0.25)): SharingLabel.SIDE_AB,
            ((1.0, 1.0), (0.25, 1.0)): SharingLabel.SIDE_CA,
            ((4.0, 4.0), (1.0, 0.25)): SharingLabel.POINT_B,
            ((4.0, 4.0), (0.25, 1.0)): SharingLabel.POINT_C,
        }
        assert len(cls.pairs) == 6
        seen = {}
        for i, j, label, resid in cls.pairs:
            assert resid < 1e-9
            seen[frozenset((i, j))] = label
        for (uv1, uv2), label in expected.items():
            key = frozenset((by_uv[uv1], by_uv[uv2]))
            assert seen[key] == label

    def test_no_pairs_for_single_solution_scene(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            sc = random_scene(rng)
            sol = solve(sc.triangle, sc.angles)
            if sol.count == 1:
                cls = classify_solution_set(sol, sc.triangle, sc.angles)
                assert cls.pairs == ()
                return
        pytest.skip("no single-solution scene drawn")

    def test_residual_gate_keeps_a_pair_at_the_bound(self):
        # a pair whose residual equals tol is reported (resid > tol rejects)
        checked = 0
        for t, rng in enumerate(_trial_rngs(78, 60)):
            scene = _locus_scene(rng, SIDE_LABELS[t % 3])
            sol = _solved(scene) if scene is not None else None
            if sol is None:
                continue
            tri, angles = scene.triangle, scene.angles
            for i, j, label, resid in classify_solution_set(
                    sol, tri, angles).pairs:
                at_bound = classify_solution_set(sol, tri, angles, tol=resid)
                assert (i, j, label, resid) in at_bound.pairs
                checked += 1
        assert checked >= 20


# The per-kind label functions as they stood before the one-line core, copied
# verbatim under reference_* names (the library helpers they call, cycle3,
# relabel_ratio, relabel_triplet and interior_angles, are unchanged).

def reference_side_share_residual(rp: RatioPair, angles: ViewAngles,
                                  label: SharingLabel) -> float:
    """Value of the side-share constraint line at the ratio point.

    For SIDE_BC this is cos(gamma) u - cos(beta) v.
    """
    k = label.shift
    _, cb, cg = cycle3(angles.cosines, k)
    u, v = relabel_ratio(rp.u, rp.v, k)
    return cg * u - cb * v


def reference_point_share_residual(rp: RatioPair, tri, angles: ViewAngles,
                                   label: SharingLabel) -> float:
    """Value of the point-share constraint line at the ratio point.

    For POINT_A: (cosACB/cos gamma) b u + (cosABC/cos beta) c v - a.
    """
    k = label.shift
    a, b, c = cycle3(tri.sides, k)
    _, cb, cg = cycle3(angles.cosines, k)
    _, cosB, cosC = cycle3(interior_angles(tri), k)
    if abs(cb) < 1e-10 or abs(cg) < 1e-10:
        raise RightAngleDegeneracyError("denominator cosine vanishes")
    u, v = relabel_ratio(rp.u, rp.v, k)
    return (cosC / cg) * b * u + (cosB / cb) * c * v - a


def reference_sharing_residual(rp, tri, angles, label):
    if label.kind == "side":
        return reference_side_share_residual(rp, angles, label)
    return reference_point_share_residual(rp, tri, angles, label)


def reference_side_mate_condition(tri, angles: ViewAngles,
                                  label: SharingLabel = SharingLabel.SIDE_BC
                                  ) -> bool:
    """True iff the subtended angle is strictly below the opposite interior angle."""
    k = label.shift
    ca = cycle3(angles.cosines, k)[0]
    cosA = cycle3(interior_angles(tri), k)[0]
    return ca > cosA


def reference_point_mate_condition(tri, angles: ViewAngles,
                                   label: SharingLabel = SharingLabel.POINT_A
                                   ) -> bool:
    """True iff the optical center is outside both toroids of the shared point."""
    k = label.shift
    _, cb, cg = cycle3(angles.cosines, k)
    _, cosB, cosC = cycle3(interior_angles(tri), k)
    return cb > cosB and cg > cosC


def reference_mate_condition(tri, angles, label):
    if label.kind == "side":
        return reference_side_mate_condition(tri, angles, label)
    return reference_point_mate_condition(tri, angles, label)


def reference_ratio_of(t: SolutionTriplet) -> RatioPair:
    return RatioPair(u=t.s2 / t.s1, v=t.s3 / t.s1)


def reference_construct_side_mate(t: SolutionTriplet, angles: ViewAngles,
                                  label: SharingLabel = SharingLabel.SIDE_BC,
                                  line_tol: float = sharing.LINE_TOL):
    """The mate sharing the labeled side, or None when it is not positive.

    The solution must lie on the side-share line (within line_tol).
    """
    if abs(reference_side_share_residual(reference_ratio_of(t), angles,
                                         label)) > line_tol:
        raise NotOnConstraintLineError("solution off the side-share line")
    k = label.shift
    _, _, cg = cycle3(angles.cosines, k)
    tk = relabel_triplet(t, k)
    s1_new = 2.0 * cg * tk.s2 - tk.s1
    if s1_new <= 0.0:
        return None
    mate_k = SolutionTriplet(s1=s1_new, s2=tk.s2, s3=tk.s3)
    return relabel_triplet(mate_k, (3 - k) % 3)


def reference_construct_point_mate(t: SolutionTriplet, angles: ViewAngles,
                                   label: SharingLabel = SharingLabel.POINT_A,
                                   line_tol: float = sharing.LINE_TOL,
                                   tri=None):
    """The mate sharing the labeled point, or None when it is not positive.

    tri is needed to evaluate the line precondition; pass None to skip it.
    """
    if tri is not None \
            and abs(reference_point_share_residual(reference_ratio_of(t), tri,
                                                   angles, label)) > line_tol:
        raise NotOnConstraintLineError("solution off the point-share line")
    k = label.shift
    _, cb, cg = cycle3(angles.cosines, k)
    tk = relabel_triplet(t, k)
    s2_new = 2.0 * cg * tk.s1 - tk.s2
    s3_new = 2.0 * cb * tk.s1 - tk.s3
    if s2_new <= 0.0 or s3_new <= 0.0:
        return None
    mate_k = SolutionTriplet(s1=tk.s1, s2=s2_new, s3=s3_new)
    return relabel_triplet(mate_k, (3 - k) % 3)


def reference_construct_mate(t, tri, angles, label, line_tol=sharing.LINE_TOL):
    if label.kind == "side":
        return reference_construct_side_mate(t, angles, label, line_tol)
    return reference_construct_point_mate(t, angles, label, line_tol, tri)


def reference_pairs(sol_set, tri, angles, tol=1e-7, dist_tol=1e-6):
    """The pair loop as first written: both residuals per pair and label."""
    def signature_ok(ti, tj, label):
        si, sj = np.array(ti.values), np.array(tj.values)
        same = np.abs(si - sj) <= dist_tol * max(si.max(), sj.max())
        if label.kind == "side":
            want = [True, True, True]
            want[label.shift] = False
        else:
            want = [False, False, False]
            want[label.shift] = True
        return list(same) == want

    sols = sol_set.solutions
    repeated = tuple(i for i, s in enumerate(sols) if s.repeated)
    pairs = []
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            if i in repeated or j in repeated:
                continue
            for label in (*SIDE_LABELS, *POINT_LABELS):
                try:
                    ri = reference_sharing_residual(sols[i].ratio, tri, angles,
                                                    label)
                    rj = reference_sharing_residual(sols[j].ratio, tri, angles,
                                                    label)
                except RightAngleDegeneracyError:
                    continue
                resid = max(abs(ri), abs(rj))
                if resid > tol or not signature_ok(sols[i].triplet,
                                                   sols[j].triplet, label):
                    continue
                pairs.append((i, j, label, resid))
    return tuple(pairs)


class TestClassificationTable:
    def test_matches_reference_loop_on_locus_scenes(self):
        labels = (*SIDE_LABELS, *POINT_LABELS, None)
        checked = found = 0
        for t, rng in enumerate(_trial_rngs(77, 200)):
            scene = _locus_scene(rng, labels[t % len(labels)])
            sol = _solved(scene) if scene is not None else None
            if sol is None:
                continue
            tri, angles = scene.triangle, scene.angles
            got = classify_solution_set(sol, tri, angles).pairs
            want = reference_pairs(sol, tri, angles)
            assert [(i, j, lab, r.hex()) for i, j, lab, r in got] \
                == [(i, j, lab, r.hex()) for i, j, lab, r in want]
            checked += 1
            found += len(got)
        assert checked >= 190 and found >= 200


def reference_factorization(tri, angles, k):
    """factorization_residual as first written: conics, difference, arrays."""
    sides = cycle3(tri.sides, k)
    pair = build_conics(sides, ViewAngles(*cycle3(angles.cosines, k)))
    d = pair.C2.coeffs - pair.C1.coeffs
    a, b, c = sides
    _, cb, cg = cycle3(angles.cosines, k)
    _, cosB, cosC = cycle3(interior_angles(tri), k)
    Pu, Pv, Pc = (cosC / cg) * b, (cosB / cb) * c, -a
    p = Conic(c_vv=-cb * Pv, c_uv=cg * Pv - cb * Pu, c_uu=cg * Pu,
              c_u=cg * Pc, c_v=-cb * Pc, c_1=0.0).coeffs
    d = d / math.sqrt(d.dot(d))
    p = p / math.sqrt(p.dot(p))
    r = d - d.dot(p) * p
    return math.sqrt(r.dot(r))


def reference_companion(sol_set, tri, angles, tol):
    """companion_check's fields as first written, on reference_pairs."""
    pairs = reference_pairs(sol_set, tri, angles, tol=tol)
    families = []
    for k in range(3):
        side = tuple((p[0], p[1]) for p in pairs
                     if p[2].kind == "side" and p[2].shift == k)
        point = tuple((p[0], p[1]) for p in pairs
                      if p[2].kind == "point" and p[2].shift == k)
        ok = None
        if sol_set.count == 4 and (side or point):
            rest = {(i, j): tuple(sorted({0, 1, 2, 3} - {i, j}))
                    for i, j in side + point}
            ok = all(rest[q] in point for q in side) \
                and all(rest[q] in side for q in point)
        fact = (reference_factorization(tri, angles, k) if side or point
                else float("nan"))
        families.append((k, side, point,
                         abs(companion_identity_residual(tri, angles, k)),
                         fact, ok))
    return sol_set.count >= 3, families


def _hex(x):
    return "nan" if math.isnan(x) else x.hex()


def companion_fields(rep):
    return (rep.applicable, rep.companion_ok,
            [(f.shift, f.side_pairs, f.point_pairs, _hex(f.identity_residual),
              _hex(f.factorization_residual), f.companion_ok)
             for f in rep.families])


class TestCompanionReference:
    """companion_check field for field against the reference path."""

    def assert_matches(self, sol, tri, angles):
        active = 0
        for tol in (1e-7, 1e-9):
            applicable, families = reference_companion(sol, tri, angles, tol)
            checks = [f[5] for f in families if f[5] is not None]
            want = (applicable, all(checks),
                    [(k, side, point, _hex(ident), _hex(fact), ok)
                     for k, side, point, ident, fact, ok in families])
            assert companion_fields(
                companion_check(sol, tri, angles, tol=tol)) == want
            active += sum(not math.isnan(f[4]) for f in families)
        return active

    def test_locus_scenes(self):
        labels = (*SIDE_LABELS, *POINT_LABELS, None)
        checked = active = 0
        for t, rng in enumerate(_trial_rngs(77, 200)):
            scene = _locus_scene(rng, labels[t % len(labels)])
            sol = _solved(scene) if scene is not None else None
            if sol is None:
                continue
            active += self.assert_matches(sol, scene.triangle, scene.angles)
            checked += 1
        assert checked >= 190 and active >= 300

    def test_four_solution_random_scenes(self):
        # generic scenes carry no pairs, so the residual is compared directly
        rng = np.random.default_rng(79)
        checked = 0
        while checked < 120:
            sc = random_scene(rng)
            sol = solve(sc.triangle, sc.angles)
            if sol.count == 4:
                self.assert_matches(sol, sc.triangle, sc.angles)
                for k in range(3):
                    assert factorization_residual(sc.triangle, sc.angles,
                                                  k).hex() \
                        == reference_factorization(sc.triangle, sc.angles,
                                                   k).hex()
                checked += 1


ALL_LABELS = (*SIDE_LABELS, *POINT_LABELS)


def outcome(f, *args):
    """f(*args) in comparable form: a float by float.hex, a triplet by its
    three, a bool or None as is, and an exception by its type."""
    try:
        out = f(*args)
    except Exception as exc:
        return type(exc)
    if isinstance(out, float):
        return out.hex()
    if isinstance(out, SolutionTriplet):
        return tuple(x.hex() for x in out.values)
    return out


class TestLabelReference:
    """sharing_residual, mate_condition and construct_mate bit for bit
    against the per-kind reference functions, on every label."""

    def assert_same(self, tri, angles, triplets):
        """Compares every label on the triplets; returns the library's
        (label, line_tol, mate outcome) of each mate."""
        got = []
        for label in ALL_LABELS:
            assert outcome(mate_condition, tri, angles, label) \
                == outcome(reference_mate_condition, tri, angles, label)
            for t in triplets:
                rp = RatioPair(u=t.s2 / t.s1, v=t.s3 / t.s1)
                res = outcome(sharing_residual, rp, tri, angles, label)
                assert res == outcome(reference_sharing_residual, rp, tri,
                                      angles, label)
                # math.inf lifts the line check, so off-line triplets also
                # compare their reflections
                for line_tol in (sharing.LINE_TOL, math.inf):
                    args = (t, tri, angles, label, line_tol)
                    mate = outcome(construct_mate, *args)
                    assert mate == outcome(reference_construct_mate, *args)
                    got.append((label, line_tol, mate))
        return got

    def test_locus_scenes(self):
        on_line = {label: 0 for label in ALL_LABELS}
        checked = 0
        for t, rng in enumerate(_trial_rngs(91, 120)):
            label = ALL_LABELS[t % 6]
            scene = _locus_scene(rng, label)
            sol = _solved(scene) if scene is not None else None
            if sol is None:
                continue
            tri, angles = scene.triangle, scene.angles
            triplets = [true_triplet(scene)] \
                + [s.triplet for s in sol.solutions]
            for lab, line_tol, mate in self.assert_same(tri, angles,
                                                        triplets):
                if line_tol == sharing.LINE_TOL \
                        and mate is not NotOnConstraintLineError:
                    on_line[lab] += 1
            for k in range(3):
                assert outcome(factorization_residual, tri, angles, k) \
                    == outcome(reference_factorization, tri, angles, k)
            checked += 1
        assert checked >= 110
        assert min(on_line.values()) >= 30

    def test_off_line_triplets(self):
        rng = np.random.default_rng(92)
        for _ in range(60):
            sc = random_scene(rng)
            triplets = [SolutionTriplet(*rng.uniform(0.05, 4.0, 3).tolist())
                        for _ in range(4)]
            got = self.assert_same(sc.triangle, sc.angles, triplets)
            assert all(mate is NotOnConstraintLineError
                       for _, tol, mate in got if tol != math.inf)

    def test_boundaries(self, eq1_triangle):
        # subtended cosines equal to the interior ones (no label's mate
        # condition holds), and reflections that land exactly on 0
        tri = eq1_triangle
        got = self.assert_same(tri, ViewAngles(*interior_angles(tri)), [])
        assert got == []
        assert not any(mate_condition(tri, ViewAngles(*interior_angles(tri)),
                                      label) for label in ALL_LABELS)
        got = self.assert_same(tri, ViewAngles(0.5, 0.5, 0.5),
                               [SolutionTriplet(1.0, 1.0, 1.0)])
        assert all(mate is None for _, tol, mate in got if tol == math.inf)

    @pytest.mark.parametrize("cb, cg", [
        *((x, 0.55) for x in (0.0, -0.0, 1e-11, -7e-12, 9.9e-11, 1.01e-10)),
        *((0.45, x) for x in (0.0, -0.0, 1e-11, -7e-12, 9.9e-11, 1.01e-10)),
        # both zero: SIDE_BC's residual is -0.0 * u - 0.0 * v = -0.0
        (0.0, -0.0), (-7e-12, 1e-11)])
    def test_right_angle_guard(self, eq1_triangle, cb, cg):
        # cos beta or cos gamma near 0: a point line whose family divides
        # by it raises, and so does that family's factorization; a side line
        # does not
        angles = ViewAngles(0.3, cb, cg)
        t = SolutionTriplet(1.0, 1.25, 0.75)
        rp = RatioPair(u=1.25, v=0.75)
        self.assert_same(eq1_triangle, angles, [t])
        for label in ALL_LABELS:
            _, cb_k, cg_k = cycle3(angles.cosines, label.shift)
            if label.kind == "point" and min(abs(cb_k), abs(cg_k)) < 1e-10:
                with pytest.raises(RightAngleDegeneracyError):
                    sharing_residual(rp, eq1_triangle, angles, label)
                with pytest.raises(RightAngleDegeneracyError):
                    construct_mate(t, eq1_triangle, angles, label, math.inf)
            else:
                sharing_residual(rp, eq1_triangle, angles, label)
        for k in range(3):
            _, cb_k, cg_k = cycle3(angles.cosines, k)
            if min(abs(cb_k), abs(cg_k)) < 1e-10:
                with pytest.raises(RightAngleDegeneracyError):
                    factorization_residual(eq1_triangle, angles, k)
            else:
                fact = factorization_residual(eq1_triangle, angles, k)
                assert fact.hex() \
                    == reference_factorization(eq1_triangle, angles, k).hex()


class TestClassificationMemo:
    """classify_solution_set keeps its last result: companion_check reuses
    the caller's classification, and no other call is served it."""

    def test_reuse_equals_cold_cache(self):
        # per scene: the caller's classification, then companion_check on the
        # same arguments, for the solved set at a tol tighter than one of its
        # pairs, the same set at LINE_TOL, and the reversed set (another
        # object of the same count) at LINE_TOL
        labels = (*SIDE_LABELS, *POINT_LABELS, None)
        checked = tol_moved = set_moved = 0
        for t, rng in enumerate(_trial_rngs(83, 230)):
            scene = _locus_scene(rng, labels[t % len(labels)])
            sol = _solved(scene) if scene is not None else None
            if sol is None:
                continue
            tri, angles = scene.triangle, scene.angles
            rev = SolutionSet(tri, angles, sol.solutions[::-1])
            resid = [r for *_, r in reference_pairs(sol, tri, angles) if r]
            tight = 0.5 * min(resid, default=sharing.LINE_TOL)
            steps = ((sol, tight), (sol, sharing.LINE_TOL),
                     (rev, sharing.LINE_TOL))
            warm = []
            for s, tol in steps:
                classify_solution_set(s, tri, angles, tol=tol)
                warm.append(companion_fields(
                    companion_check(s, tri, angles, tol=tol)))
            cold = []
            for s, tol in steps:
                classify_solution_set.cache_clear()
                cold.append(companion_fields(
                    companion_check(s, tri, angles, tol=tol)))
            assert warm == cold
            checked += 1
            tol_moved += cold[0] != cold[1]
            set_moved += cold[1] != cold[2]
        assert checked >= 200 and tol_moved >= 150 and set_moved >= 30

    def test_companion_check_runs_no_second_classification(
            self, eq1_triangle, eq1_angles):
        def misses():
            return classify_solution_set.cache_info().misses

        sol = solve(eq1_triangle, eq1_angles)
        # tol by keyword, as companion_check and `p3pshare analyze` pass it
        classify_solution_set(sol, eq1_triangle, eq1_angles,
                              tol=sharing.LINE_TOL)
        before = misses()
        assert companion_check(sol, eq1_triangle, eq1_angles).companion_ok
        assert misses() == before
        companion_check(sol, eq1_triangle, eq1_angles,
                        tol=0.5 * sharing.LINE_TOL)
        assert misses() == before + 1


class TestCompanion:
    def test_eq1_identity_and_factorization(self, eq1_triangle, eq1_angles):
        for k in range(3):
            assert abs(companion_identity_residual(
                eq1_triangle, eq1_angles, k)) < 1e-15
            assert factorization_residual(eq1_triangle, eq1_angles, k) < 1e-12

    def test_eq1_companion_structure(self, eq1_triangle, eq1_angles):
        sol = solve(eq1_triangle, eq1_angles)
        rep = companion_check(sol, eq1_triangle, eq1_angles)
        assert rep.applicable
        assert rep.companion_ok
        active = [f for f in rep.families if f.side_pairs or f.point_pairs]
        assert len(active) == 3  # every family carries a side and a point pair
        for f in active:
            assert len(f.side_pairs) == 1 and len(f.point_pairs) == 1

    def test_identity_fails_for_generic_scene(self):
        # the identity is a constraint, not a triviality
        rng = np.random.default_rng(3)
        sc = random_scene(rng)
        vals = [abs(companion_identity_residual(sc.triangle, sc.angles, k))
                for k in range(3)]
        assert max(vals) > 1e-6
