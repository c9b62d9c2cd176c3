"""Side-sharing and point-sharing analysis.

The constraint lines and mate constructions are stated for the shared side
BC and the shared point A; the other labels follow by the cyclic
relabeling (A, a, alpha, s1) -> (B, b, beta, s2) -> (C, c, gamma, s3), with
ratio points re-expressed in the relabeled base distance.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
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

#: default tolerance on a constraint-line residual, two orders above the
#: solver's acceptance residual (conics.INTERSECT_TOL)
LINE_TOL = 1e-7


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


def mate_condition(tri: ControlTriangle, angles: ViewAngles,
                   label: SharingLabel) -> bool:
    """The mate condition of a side or a point label."""
    if label.kind == "side":
        return side_mate_condition(tri, angles, label)
    return point_mate_condition(tri, angles, label)


def _ratio_of(t: SolutionTriplet) -> RatioPair:
    return RatioPair(u=t.s2 / t.s1, v=t.s3 / t.s1)


def construct_side_mate(t: SolutionTriplet, angles: ViewAngles,
                        label: SharingLabel = SharingLabel.SIDE_BC,
                        line_tol: float = LINE_TOL):
    """The mate sharing the labeled side, or None when it is not positive.

    The solution must lie on the side-share line (within line_tol).
    """
    if abs(side_share_residual(_ratio_of(t), angles, label)) > line_tol:
        raise NotOnConstraintLineError("solution off the side-share line")
    k = label.shift
    _, _, cg = cycle3(angles.cosines, k)
    tk = relabel_triplet(t, k)
    s1_new = 2.0 * cg * tk.s2 - tk.s1
    if s1_new <= 0.0:
        return None
    mate_k = SolutionTriplet(s1=s1_new, s2=tk.s2, s3=tk.s3)
    return relabel_triplet(mate_k, (3 - k) % 3)


def construct_point_mate(t: SolutionTriplet, angles: ViewAngles,
                         label: SharingLabel = SharingLabel.POINT_A,
                         line_tol: float = LINE_TOL,
                         tri: ControlTriangle | None = None):
    """The mate sharing the labeled point, or None when it is not positive.

    tri is needed to evaluate the line precondition; pass None to skip it.
    """
    if tri is not None \
            and abs(point_share_residual(_ratio_of(t), tri, angles,
                                         label)) > line_tol:
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


def construct_mate(t: SolutionTriplet, tri: ControlTriangle,
                   angles: ViewAngles, label: SharingLabel,
                   line_tol: float = LINE_TOL):
    """The mate of t sharing the labeled side or point (None if not positive)."""
    if label.kind == "side":
        return construct_side_mate(t, angles, label, line_tol)
    return construct_point_mate(t, angles, label, line_tol, tri)


@dataclass(frozen=True)
class PairClassification:
    pairs: tuple[tuple[int, int, SharingLabel, float], ...]
    repeated_indices: tuple[int, ...]


#: the label whose pairs agree in exactly these of (s1, s2, s3): a side label
#: in the two off its shift, a point label in the one at it
_LABEL_OF_SIGNATURE = {tuple((i != label.shift) == (label.kind == "side")
                             for i in range(3)): label
                       for label in SharingLabel}
#: relative gap within which two solutions count as sharing a distance
_SAME_DISTANCE_TOL = 1e-6


@functools.lru_cache(maxsize=1)
def classify_solution_set(sol_set: SolutionSet, tri: ControlTriangle,
                          angles: ViewAngles, tol: float = LINE_TOL
                          ) -> PairClassification:
    """All sharing labels that every unordered solution pair satisfies.

    A label is reported only when the distance-level signature agrees AND
    both members lie on the constraint line (within tol). A signature names
    at most one label, so only that label's line is evaluated.

    The last call is memoised on its four arguments (tol as passed; by
    keyword in companion_check). Safe: SolutionSet and ControlTriangle are
    frozen, eq=False and hash by identity, and the cache holds them, so no id
    is reused while cached; ViewAngles hashes by value; the result is frozen.
    """
    sols = sol_set.solutions
    repeated = tuple(i for i, s in enumerate(sols) if s.repeated)
    kept = [i for i, s in enumerate(sols) if not s.repeated]
    values = [s.triplet.values for s in sols]
    pairs = []
    for i, j in itertools.combinations(kept, 2):
        si, sj = values[i], values[j]
        same_tol = _SAME_DISTANCE_TOL * max(*si, *sj)
        label = _LABEL_OF_SIGNATURE.get((abs(si[0] - sj[0]) <= same_tol,
                                         abs(si[1] - sj[1]) <= same_tol,
                                         abs(si[2] - sj[2]) <= same_tol))
        if label is None:
            continue
        try:
            resid = max(abs(sharing_residual(sols[i].ratio, tri, angles, label)),
                        abs(sharing_residual(sols[j].ratio, tri, angles, label)))
        except RightAngleDegeneracyError:
            continue
        if resid > tol:
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


def _line_product_terms(tri: ControlTriangle, angles: ViewAngles,
                        k: int) -> tuple[float, ...]:
    """Conic terms of (side line) * (point line) in the family-k basis."""
    a, b, c = cycle3(tri.sides, k)
    _, cb, cg = cycle3(angles.cosines, k)
    _, cosB, cosC = cycle3(interior_angles(tri), k)
    # L_side = cg u - cb v ; L_point = Pu u + Pv v + Pc
    Pu = (cosC / cg) * b
    Pv = (cosB / cb) * c
    Pc = -a
    return (-cb * Pv, cg * Pv - cb * Pu, cg * Pu, cg * Pc, -cb * Pc, 0.0)


def factorization_residual(tri: ControlTriangle, angles: ViewAngles,
                           k: int = 0) -> float:
    """Deviation of the conic difference from the product of the two lines.

    Measured as the normalized cross product of the coefficient vectors,
    i.e. zero when they are proportional. The three dot products stay
    numpy calls: their BLAS rounding is what the golden reports hold.
    """
    t1, t2 = conics.conic_terms(cycle3(tri.sides, k), cycle3(angles.cosines, k))
    d = np.array([y - x for x, y in zip(t1, t2)])  # the difference C2 - C1
    p = np.array(_line_product_terms(tri, angles, k))
    d = d / math.sqrt(d.dot(d))
    p = p / math.sqrt(p.dot(p))
    r = d - d.dot(p) * p
    return math.sqrt(r.dot(r))


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
                    angles: ViewAngles, tol: float = LINE_TOL) -> CompanionReport:
    """Verify the companion-pair structure of a solved scene.

    For every label family with a detected pair in a 4-solution scene, the
    remaining two solutions must form the dual-kind pair, the scene-level
    identity must vanish, and the conic difference must factor into the two
    constraint lines. After the caller's classify_solution_set on the same
    arguments (`p3pshare analyze`), the pairs are that memoised result.
    """
    cls = classify_solution_set(sol_set, tri, angles, tol=tol)
    found = {"side": ([], [], []), "point": ([], [], [])}
    for i, j, label, _ in cls.pairs:
        found[label.kind][label.shift].append((i, j))
    applicable = sol_set.count >= 3
    families = []
    for k in range(3):
        side, point = tuple(found["side"][k]), tuple(found["point"][k])
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
