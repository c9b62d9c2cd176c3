"""Side-sharing and point-sharing analysis.

Six labels, two kinds at three cyclic shifts. Each kind has one constraint
line, stated for the shared side BC or the shared point A (`_line`); the
other labels follow by the cyclic relabeling
(A, a, alpha, s1) -> (B, b, beta, s2) -> (C, c, gamma, s3), with ratio
points re-expressed in the relabeled base distance. Each label question
has one entry point: `sharing_residual`, `mate_condition` and
`construct_mate`. The companion factorization is the product of a
family's two lines.
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
                       _record, interior_angles)
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

#: LINE_TOL bounds a solution's constraint-line residual, absolute on the
#: line's value (a side line has cosine coefficients, a point line side
#: lengths): the default of classify_solution_set, companion_check,
#: construct_mate and verify_theorem. Reason as first stated: two orders above
#: the solver's acceptance residual (conics.INTERSECT_TOL). Pairs on their
#: lines reach 2.6e-13 (criterion 8's conditioned scenes).
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
    """The triangle with vertex k + 1 as A; tri itself (and its cached
    frame) when k is 0 mod 3."""
    if k % 3 == 0:
        return tri
    A, B, C = cycle3(tri.points, k)
    return ControlTriangle.from_points(A, B, C)


#: _RIGHT_ANGLE_TOL bounds a point line's denominator cosines (its family's
#: cos beta and cos gamma) in size from below, absolute: below it the line's
#: coefficients would exceed 1e10 side lengths. Value unexplained; cosines of
#: 9.9e-11 and 1.01e-10 pin it (TestLabelReference catches x10 and x0.1).
_RIGHT_ANGLE_TOL = 1e-10


def _line(tri: ControlTriangle, cosines: tuple[float, float, float],
          kind: str, k: int) -> tuple[float, float, float]:
    """(Lu, Lv, L1) of the kind's line Lu u + Lv v + L1 = 0, relabeled by k.

    SIDE_BC: (cos gamma, -cos beta, -0.0), the one zero that leaves every
    sum unchanged. POINT_A: ((cosACB/cos gamma) b, (cosABC/cos beta) c, -a),
    which raises RightAngleDegeneracyError when the family's cos beta or
    cos gamma nearly vanishes: the one right-angle guard of the module.
    """
    _, cb, cg = cycle3(cosines, k)
    if kind == "side":
        return cg, -cb, -0.0
    if abs(cb) < _RIGHT_ANGLE_TOL or abs(cg) < _RIGHT_ANGLE_TOL:
        raise RightAngleDegeneracyError("denominator cosine vanishes")
    a, b, c = cycle3(tri.sides, k)
    _, cosB, cosC = cycle3(interior_angles(tri), k)
    return (cosC / cg) * b, (cosB / cb) * c, -a


def sharing_residual(rp: RatioPair, tri: ControlTriangle, angles: ViewAngles,
                     label: SharingLabel) -> float:
    """Value of the label's constraint line at the ratio point.

    A point line divides by its family's cos beta and cos gamma: it raises
    RightAngleDegeneracyError when either nearly vanishes (`_line`).
    """
    kind, k = label.value
    lu, lv, l1 = _line(tri, angles.cosines, kind, k)
    u, v = relabel_ratio(rp.u, rp.v, k)
    return lu * u + lv * v + l1


def mate_condition(tri: ControlTriangle, angles: ViewAngles,
                   label: SharingLabel) -> bool:
    """The angle-form mate condition: for a side, the subtended angle is
    strictly below the opposite interior angle; for a point, the optical
    center is outside both toroids of the shared point."""
    kind, k = label.value
    ca, cb, cg = cycle3(angles.cosines, k)
    cosA, cosB, cosC = cycle3(interior_angles(tri), k)
    if kind == "side":
        return ca > cosA
    return cb > cosB and cg > cosC


def construct_mate(t: SolutionTriplet, tri: ControlTriangle,
                   angles: ViewAngles, label: SharingLabel,
                   line_tol: float = LINE_TOL) -> SolutionTriplet | None:
    """The mate of t sharing the labeled side or point, None if not positive.

    t must lie on the label's line (within line_tol). The mate is an exact
    reflection: s1' = 2 cos(gamma) s2 - s1 for SIDE_BC; s2' =
    2 cos(gamma) s1 - s2, s3' = 2 cos(beta) s1 - s3 for POINT_A.
    """
    kind, k = label.value
    rp = RatioPair(u=t.s2 / t.s1, v=t.s3 / t.s1)
    if abs(sharing_residual(rp, tri, angles, label)) > line_tol:
        raise NotOnConstraintLineError(f"solution off the {kind}-share line")
    _, cb, cg = cycle3(angles.cosines, k)
    s1, s2, s3 = cycle3(t.values, k)
    if kind == "side":
        s1 = 2.0 * cg * s2 - s1
    else:
        s2, s3 = 2.0 * cg * s1 - s2, 2.0 * cb * s1 - s3
    if s1 <= 0.0 or s2 <= 0.0 or s3 <= 0.0:
        return None
    return relabel_triplet(SolutionTriplet(s1, s2, s3), (3 - k) % 3)


@dataclass(frozen=True)
class PairClassification:
    pairs: tuple[tuple[int, int, SharingLabel, float], ...]
    repeated_indices: tuple[int, ...]


_new_classification = _record(PairClassification)


#: the label whose pairs agree in exactly these of (s1, s2, s3): a side label
#: in the two off its shift, a point label in the one at it
_LABEL_OF_SIGNATURE = {tuple((i != label.shift) == (label.kind == "side")
                             for i in range(3)): label
                       for label in SharingLabel}
#: _SAME_DISTANCE_TOL bounds the gap between two solutions' distances that
#: count as shared, relative to the pair's largest distance. Value
#: unexplained. On 2000 random and 700 locus scenes (seeds 19 and 23; the 15
#: pairs of a split double root left out) shared distances agree to 1.6e-12
#: and distinct ones come within 1.6e-6; the line test decides the rest.
#: Mutants x10 and x0.1: caught by tests/test_tolerances.py.
_SAME_DISTANCE_TOL = 1e-6


@functools.lru_cache(maxsize=1)
def classify_solution_set(sol_set: SolutionSet, tri: ControlTriangle,
                          angles: ViewAngles, tol: float = LINE_TOL
                          ) -> PairClassification:
    """All sharing labels that every unordered solution pair satisfies.

    A label is reported only when the distance-level signature agrees AND
    both members lie on the constraint line (within tol). A signature names
    at most one label, so only that label's line is evaluated: `_line` once
    per pair, at both members, by sharing_residual's arithmetic.

    The last call is memoised on its four arguments (tol as passed; by
    keyword in companion_check). Safe: SolutionSet and ControlTriangle are
    frozen, eq=False and hash by identity, and the cache holds them, so no id
    is reused while cached; ViewAngles hashes by value; the result is frozen.
    """
    sols = sol_set.solutions
    repeated = tuple(i for i, s in enumerate(sols) if s.repeated)
    kept = [i for i, s in enumerate(sols) if not s.repeated]
    values = [s.triplet.values for s in sols]
    cosines = angles.cosines
    pairs = []
    for i, j in itertools.combinations(kept, 2):
        si, sj = values[i], values[j]
        same_tol = _SAME_DISTANCE_TOL * max(*si, *sj)
        label = _LABEL_OF_SIGNATURE.get((abs(si[0] - sj[0]) <= same_tol,
                                         abs(si[1] - sj[1]) <= same_tol,
                                         abs(si[2] - sj[2]) <= same_tol))
        if label is None:
            continue
        kind, k = label.value
        try:
            lu, lv, l1 = _line(tri, cosines, kind, k)
        except RightAngleDegeneracyError:
            continue
        ri, rj = sols[i].ratio, sols[j].ratio
        ui, vi = relabel_ratio(ri.u, ri.v, k)
        uj, vj = relabel_ratio(rj.u, rj.v, k)
        resid = max(abs(lu * ui + lv * vi + l1), abs(lu * uj + lv * vj + l1))
        if resid > tol:
            continue
        pairs.append((i, j, label, resid))
    return _new_classification(tuple(pairs), repeated)


def _identity_residuals(sides, cosines) -> tuple[float, float, float]:
    """companion_identity_residual of the families 0, 1 and 2, in one pass:
    the squares once, each family's terms in its own cyclic order."""
    a, b, c = sides
    squares = (a * a, b * b, c * c) * 2
    cosines = cosines * 2
    out = []
    for k in range(3):
        a2, b2, c2 = squares[k:k + 3]
        ca, cb, cg = cosines[k:k + 3]
        t1 = 2.0 * (b2 - c2) * ca * cb * cg
        t2 = -cg * cg * (b2 - a2 - c2)
        t3 = cb * cb * (c2 - a2 - b2)
        out.append((t1 + t2 + t3) / max(abs(t1), abs(t2), abs(t3), a2))
    return tuple(out)


def companion_identity_residual(tri: ControlTriangle, angles: ViewAngles,
                                k: int = 0) -> float:
    """Normalized residual of the scene-level sharing identity for family k.

    2(b^2-c^2) ca cb cg - cg^2 (b^2-a^2-c^2) + cb^2 (c^2-a^2-b^2) = 0
    must hold whenever the family-k lines each carry a solution pair.
    """
    return _identity_residuals(tri.sides, angles.cosines)[k % 3]


def _line_product_terms(tri: ControlTriangle, cosines: tuple[float, ...],
                        k: int) -> tuple[float, ...]:
    """Conic terms of (side line) * (point line) in the family-k basis."""
    su, sv, _ = _line(tri, cosines, "side", k)  # through the origin
    pu, pv, p1 = _line(tri, cosines, "point", k)
    return (sv * pv, su * pv + sv * pu, su * pu, su * p1, sv * p1, 0.0)


def factorization_residual(tri: ControlTriangle, angles: ViewAngles,
                           k: int = 0) -> float:
    """Deviation of the conic difference from the product of the two lines.

    Measured as the normalized cross product of the coefficient vectors,
    i.e. zero when they are proportional. The four dot products (d.d, p.p,
    d.p and r.r) stay numpy calls: their BLAS rounding is what the golden
    reports hold.
    Raises RightAngleDegeneracyError where the point line does (`_line`).
    """
    cosines = angles.cosines
    t1, t2 = conics.conic_terms(cycle3(tri.sides, k), cycle3(cosines, k))
    d = np.array([y - x for x, y in zip(t1, t2)])  # the difference C2 - C1
    p = np.array(_line_product_terms(tri, cosines, k))
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


_new_family = _record(FamilyReport)
_new_companion = _record(CompanionReport)


#: the pair of the other two of four solutions, for each pair (i, j), i < j
_COMPLEMENT = {p: tuple(sorted({0, 1, 2, 3} - set(p)))
               for p in itertools.combinations(range(4), 2)}


def companion_check(sol_set: SolutionSet, tri: ControlTriangle,
                    angles: ViewAngles, tol: float = LINE_TOL) -> CompanionReport:
    """Verify the companion-pair structure of a solved scene.

    For every label family with a detected pair in a 4-solution scene, the
    remaining two solutions must form the dual-kind pair, the scene-level
    identity must vanish, and the conic difference must factor into the two
    constraint lines. After the caller's classify_solution_set on the same
    arguments (`p3pshare analyze`), the pairs are that memoised result.
    Raises RightAngleDegeneracyError when a family with a pair has a cos
    beta or cos gamma that nearly vanishes, as factorization_residual does.
    """
    cls = classify_solution_set(sol_set, tri, angles, tol=tol)
    found = {"side": ([], [], []), "point": ([], [], [])}
    for i, j, label, _ in cls.pairs:
        kind, k = label.value
        found[kind][k].append((i, j))
    four = sol_set.count == 4
    idents = _identity_residuals(tri.sides, angles.cosines)
    families = []
    for k in range(3):
        side, point = tuple(found["side"][k]), tuple(found["point"][k])
        ok: bool | None = None
        fact = math.nan
        if side or point:
            if four:
                ok = (all(_COMPLEMENT[p] in point for p in side)
                      and all(_COMPLEMENT[p] in side for p in point))
            fact = factorization_residual(tri, angles, k)
        families.append(_new_family(k, side, point, abs(idents[k]), fact, ok))
    return _new_companion(sol_set.count >= 3, tuple(families))
