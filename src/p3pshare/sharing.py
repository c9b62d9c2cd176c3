"""Side-sharing and point-sharing analysis.

The constraint lines and mate constructions are stated for the shared side
BC and the shared point A; the other labels follow by the cyclic
relabeling (A, a, alpha, s1) -> (B, b, beta, s2) -> (C, c, gamma, s3), with
ratio points re-expressed in the relabeled base distance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import conics
from .errors import NotOnConstraintLineError, RightAngleDegeneracyError
from .geometry import (ControlTriangle, RatioPair, SolutionTriplet, ViewAngles,
                       interior_angles)
from .solver import SolutionSet


class SharingLabel(enum.Enum):
    """Which side or point the pair shares; value = cyclic shift index."""

    SIDE_BC = ("side", 0)
    SIDE_CA = ("side", 1)
    SIDE_AB = ("side", 2)
    POINT_A = ("point", 0)
    POINT_B = ("point", 1)
    POINT_C = ("point", 2)

    @property
    def kind(self) -> str:
        return self.value[0]

    @property
    def shift(self) -> int:
        return self.value[1]


SIDE_LABELS = (SharingLabel.SIDE_BC, SharingLabel.SIDE_CA, SharingLabel.SIDE_AB)
POINT_LABELS = (SharingLabel.POINT_A, SharingLabel.POINT_B, SharingLabel.POINT_C)


def cycle3(t, k: int):
    """(x1, x2, x3) shifted so the k-th element leads."""
    k %= 3
    return (t[k], t[(k + 1) % 3], t[(k + 2) % 3])


def relabel_ratio(u: float, v: float, k: int) -> tuple[float, float]:
    """(u, v) re-expressed with s_{k+1} as the base distance."""
    k %= 3
    if k == 0:
        return u, v
    if k == 1:
        return v / u, 1.0 / u
    return 1.0 / v, u / v


def relabel_triplet(t: SolutionTriplet, k: int) -> SolutionTriplet:
    s = cycle3(t.values, k)
    return SolutionTriplet(*s)


def relabel_angles(angles: ViewAngles, k: int) -> ViewAngles:
    ca, cb, cg = cycle3(angles.cosines, k)
    return ViewAngles(cos_alpha=ca, cos_beta=cb, cos_gamma=cg)


def relabel_triangle(tri: ControlTriangle, k: int) -> ControlTriangle:
    A, B, C = cycle3(tri.points, k)
    return ControlTriangle.from_points(A, B, C)


def side_share_residual(rp: RatioPair, angles: ViewAngles,
                        label: SharingLabel) -> float:
    """Value of the side-share constraint line at the ratio point.

    For SIDE_BC this is cos(gamma) u - cos(beta) v.
    """
    k = label.shift
    _, cb, cg = cycle3(angles.cosines, k)
    u, v = relabel_ratio(rp.u, rp.v, k)
    return cg * u - cb * v


def point_share_residual(rp: RatioPair, tri: ControlTriangle,
                         angles: ViewAngles, label: SharingLabel) -> float:
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


def sharing_residual(rp: RatioPair, tri: ControlTriangle, angles: ViewAngles,
                     label: SharingLabel) -> float:
    if label.kind == "side":
        return side_share_residual(rp, angles, label)
    return point_share_residual(rp, tri, angles, label)


def side_mate_condition(tri: ControlTriangle, angles: ViewAngles,
                        label: SharingLabel = SharingLabel.SIDE_BC) -> bool:
    """True iff the subtended angle is strictly below the opposite interior angle."""
    k = label.shift
    ca = cycle3(angles.cosines, k)[0]
    cosA = cycle3(interior_angles(tri), k)[0]
    return ca > cosA


def point_mate_condition(tri: ControlTriangle, angles: ViewAngles,
                         label: SharingLabel = SharingLabel.POINT_A) -> bool:
    """True iff the optical center is outside both toroids of the shared point."""
    k = label.shift
    _, cb, cg = cycle3(angles.cosines, k)
    _, cosB, cosC = cycle3(interior_angles(tri), k)
    return cb > cosB and cg > cosC


def _ratio_of(t: SolutionTriplet) -> RatioPair:
    return RatioPair(u=t.s2 / t.s1, v=t.s3 / t.s1)


def construct_side_mate(t: SolutionTriplet, angles: ViewAngles,
                        label: SharingLabel = SharingLabel.SIDE_BC,
                        line_tol: float = 1e-7):
    """The mate sharing the labeled side, or None when it is not positive.

    The solution must lie on the side-share line (within line_tol).
    """
    k = label.shift
    _, _, cg = cycle3(angles.cosines, k)
    tk = relabel_triplet(t, k)
    if abs(side_share_residual(_ratio_of(tk), relabel_angles(angles, k),
                               SharingLabel.SIDE_BC)) > line_tol:
        raise NotOnConstraintLineError("solution off the side-share line")
    s1_new = 2.0 * cg * tk.s2 - tk.s1
    if s1_new <= 0.0:
        return None
    mate_k = SolutionTriplet(s1=s1_new, s2=tk.s2, s3=tk.s3)
    return relabel_triplet(mate_k, (3 - k) % 3)


def construct_point_mate(t: SolutionTriplet, angles: ViewAngles,
                         label: SharingLabel = SharingLabel.POINT_A,
                         line_tol: float = 1e-7,
                         tri: ControlTriangle | None = None):
    """The mate sharing the labeled point, or None when it is not positive.

    tri is needed to evaluate the line precondition; pass None to skip it.
    """
    k = label.shift
    _, cb, cg = cycle3(angles.cosines, k)
    tk = relabel_triplet(t, k)
    if tri is not None:
        r = point_share_residual(_ratio_of(tk), relabel_triangle(tri, k),
                                 relabel_angles(angles, k), SharingLabel.POINT_A)
        if abs(r) > line_tol:
            raise NotOnConstraintLineError("solution off the point-share line")
    s2_new = 2.0 * cg * tk.s1 - tk.s2
    s3_new = 2.0 * cb * tk.s1 - tk.s3
    if s2_new <= 0.0 or s3_new <= 0.0:
        return None
    mate_k = SolutionTriplet(s1=tk.s1, s2=s2_new, s3=s3_new)
    return relabel_triplet(mate_k, (3 - k) % 3)


@dataclass(frozen=True)
class PairClassification:
    pairs: tuple[tuple[int, int, SharingLabel, float], ...]
    repeated_indices: tuple[int, ...]

    def labels_for(self, i: int, j: int) -> list[SharingLabel]:
        lo, hi = min(i, j), max(i, j)
        return [p[2] for p in self.pairs if (p[0], p[1]) == (lo, hi)]

    def has_kind(self, kind: str) -> bool:
        return any(p[2].kind == kind for p in self.pairs)


def _distance_signature_ok(ti: SolutionTriplet, tj: SolutionTriplet,
                           label: SharingLabel, dist_tol: float) -> bool:
    """Side pair: the two unshared distances equal; point pair: only the shared one."""
    si = np.array(ti.values)
    sj = np.array(tj.values)
    scale = max(si.max(), sj.max())
    same = np.abs(si - sj) <= dist_tol * scale
    k = label.shift
    if label.kind == "side":
        want = [True, True, True]
        want[k] = False
    else:
        want = [False, False, False]
        want[k] = True
    for idx in range(3):
        if want[idx] and not same[idx]:
            return False
        if not want[idx] and same[idx]:
            return False
    return True


def classify_solution_set(sol_set: SolutionSet, tri: ControlTriangle,
                          angles: ViewAngles, tol: float = 1e-7,
                          dist_tol: float = 1e-6) -> PairClassification:
    """All sharing labels that every unordered solution pair satisfies.

    A label is reported only when both members lie on the constraint line
    (within tol) AND the distance-level signature agrees.
    """
    sols = sol_set.solutions
    repeated = tuple(i for i, s in enumerate(sols) if s.repeated)
    pairs = []
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            if i in repeated or j in repeated:
                continue
            for label in (*SIDE_LABELS, *POINT_LABELS):
                try:
                    ri = sharing_residual(sols[i].ratio, tri, angles, label)
                    rj = sharing_residual(sols[j].ratio, tri, angles, label)
                except RightAngleDegeneracyError:
                    continue
                resid = max(abs(ri), abs(rj))
                if resid > tol:
                    continue
                if not _distance_signature_ok(sols[i].triplet, sols[j].triplet,
                                              label, dist_tol):
                    continue
                pairs.append((i, j, label, resid))
    return PairClassification(pairs=tuple(pairs), repeated_indices=repeated)


def companion_identity_residual(tri: ControlTriangle, angles: ViewAngles,
                                k: int = 0) -> float:
    """Normalized residual of the scene-level sharing identity for family k.

    2(b^2-c^2) ca cb cg - cg^2 (b^2-a^2-c^2) + cb^2 (c^2-a^2-b^2) = 0
    must hold whenever the family-k lines each carry a solution pair.
    """
    a, b, c = cycle3(tri.sides, k)
    ca, cb, cg = cycle3(angles.cosines, k)
    a2, b2, c2 = a * a, b * b, c * c
    t1 = 2.0 * (b2 - c2) * ca * cb * cg
    t2 = -cg * cg * (b2 - a2 - c2)
    t3 = cb * cb * (c2 - a2 - b2)
    norm = max(abs(t1), abs(t2), abs(t3), a2)
    return (t1 + t2 + t3) / norm


def _line_product_conic(tri: ControlTriangle, angles: ViewAngles,
                        k: int) -> conics.Conic:
    """Conic = (side line) * (point line) for the family-k relabeled basis."""
    a, b, c = cycle3(tri.sides, k)
    _, cb, cg = cycle3(angles.cosines, k)
    _, cosB, cosC = cycle3(interior_angles(tri), k)
    # L_side = cg u - cb v ; L_point = Pu u + Pv v + Pc
    Pu = (cosC / cg) * b
    Pv = (cosB / cb) * c
    Pc = -a
    return conics.Conic(c_vv=-cb * Pv, c_uv=cg * Pv - cb * Pu, c_uu=cg * Pu,
                        c_u=cg * Pc, c_v=-cb * Pc, c_1=0.0)


def factorization_residual(tri: ControlTriangle, angles: ViewAngles,
                           k: int = 0) -> float:
    """Deviation of the conic difference from the product of the two lines.

    Measured as the normalized cross product of the coefficient vectors,
    i.e. zero when they are proportional.
    """
    trik = relabel_triangle(tri, k)
    angk = relabel_angles(angles, k)
    pair = conics.build_conics(trik.sides, angk)
    d = conics.difference_conic(pair).coeffs
    p = _line_product_conic(tri, angles, k).coeffs
    d = d / np.linalg.norm(d)
    p = p / np.linalg.norm(p)
    return float(np.linalg.norm(d - (d @ p) * p))


@dataclass(frozen=True)
class FamilyReport:
    shift: int
    side_pairs: tuple[tuple[int, int], ...]
    point_pairs: tuple[tuple[int, int], ...]
    identity_residual: float
    factorization_residual: float
    companion_ok: bool | None  # None when the claim is not applicable


@dataclass(frozen=True)
class CompanionReport:
    applicable: bool
    families: tuple[FamilyReport, ...]

    @property
    def companion_ok(self) -> bool:
        checks = [f.companion_ok for f in self.families if f.companion_ok is not None]
        return all(checks) if checks else True


def companion_check(sol_set: SolutionSet, tri: ControlTriangle,
                    angles: ViewAngles, tol: float = 1e-7) -> CompanionReport:
    """Verify the companion-pair structure of a solved scene.

    For every label family with a detected pair in a 4-solution scene, the
    remaining two solutions must form the dual-kind pair, the scene-level
    identity must vanish, and the conic difference must factor into the two
    constraint lines.
    """
    cls = classify_solution_set(sol_set, tri, angles, tol=tol)
    applicable = sol_set.count >= 3
    families = []
    for k in range(3):
        side = tuple((p[0], p[1]) for p in cls.pairs
                     if p[2].kind == "side" and p[2].shift == k)
        point = tuple((p[0], p[1]) for p in cls.pairs
                      if p[2].kind == "point" and p[2].shift == k)
        ok: bool | None = None
        if sol_set.count == 4 and (side or point):
            ok = True
            all_idx = set(range(4))
            for (i, j) in side:
                rest = tuple(sorted(all_idx - {i, j}))
                if rest not in point:
                    ok = False
            for (i, j) in point:
                rest = tuple(sorted(all_idx - {i, j}))
                if rest not in side:
                    ok = False
        ident = abs(companion_identity_residual(tri, angles, k))
        fact = (factorization_residual(tri, angles, k) if side or point
                else float("nan"))
        families.append(FamilyReport(shift=k, side_pairs=side, point_pairs=point,
                                     identity_residual=ident,
                                     factorization_residual=fact,
                                     companion_ok=ok))
    return CompanionReport(applicable=applicable, families=tuple(families))
