"""From quadrant-I conic intersections to full P3P solutions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conics
from .errors import (InconsistentInputError, InfeasibleRatioError,
                     InfeasibleTripletError)
from .geometry import (ControlTriangle, RatioPair, SolutionTriplet, ViewAngles,
                       _new_ratio, _new_triplet, _record, canonical_frame)


@dataclass(frozen=True)
class Solution:
    triplet: SolutionTriplet
    ratio: RatioPair
    repeated: bool


@dataclass(frozen=True, eq=False)
class SolutionSet:
    triangle: ControlTriangle
    angles: ViewAngles
    solutions: tuple[Solution, ...]

    @property
    def count(self) -> int:
        return len(self.solutions)

    @property
    def repeated_flags(self) -> list[bool]:
        return [s.repeated for s in self.solutions]


_new_solution = _record(Solution)
_new_solution_set = _record(SolutionSet)


def constraint_residuals(t: SolutionTriplet, sides, angles: ViewAngles):
    """The three basic-constraint residuals, normalized by (c^2, b^2, a^2)."""
    a, b, c = sides
    ca, cb, cg = angles.cos_alpha, angles.cos_beta, angles.cos_gamma
    s1, s2, s3 = t.s1, t.s2, t.s3
    r_c = (s1 * s1 + s2 * s2 - 2.0 * cg * s1 * s2 - c * c) / (c * c)
    r_b = (s1 * s1 + s3 * s3 - 2.0 * cb * s1 * s3 - b * b) / (b * b)
    r_a = (s2 * s2 + s3 * s3 - 2.0 * ca * s2 * s3 - a * a) / (a * a)
    return (r_c, r_b, r_a)


#: CONSTRAINT_TOL bounds a recovered triplet's basic-constraint residuals
#: (constraint_residuals, each per its side squared): the floor of solve's
#: gate and the bound on a constructed mate. Value unexplained: solutions
#: reach 7.6e-14 on 2000 random and 700 locus scenes (seeds 19 and 23), and
#: mates 3.8e-14 in the construct campaigns (seed 0); with one side 1e-4 of
#: the others the true triplet itself fails it (README "Numerical notes").
#: Mutants x10 and x0.1: caught by tests/test_tolerances.py.
CONSTRAINT_TOL = 1e-9


def triplet_from_ratio(rp: RatioPair, sides,
                       angles: ViewAngles) -> SolutionTriplet:
    """Recover (s1, s2, s3) from a quadrant-I ratio point; its basic-constraint
    residuals must be within CONSTRAINT_TOL."""
    return _triplet(rp.u, rp.v, sides, angles, CONSTRAINT_TOL)


def _triplet(u: float, v: float, sides, angles: ViewAngles, tol: float):
    if not (u > 0.0 and v > 0.0):
        raise InfeasibleRatioError("ratio point outside quadrant I")
    ca, cb, cg = angles.cos_alpha, angles.cos_beta, angles.cos_gamma
    rad = u * u + v * v - 2.0 * ca * u * v
    if rad <= 0.0:
        raise InfeasibleRatioError("non-positive base-distance radicand")
    a, b, c = sides
    s1 = a / math.sqrt(rad)
    s2, s3 = u * s1, v * s1
    t = _new_triplet(s1, s2, s3)  # raises unless all three are > 0
    # max(map(abs, constraint_residuals(t, sides, angles))), inline
    if max(abs((s1 * s1 + s2 * s2 - 2.0 * cg * s1 * s2 - c * c) / (c * c)),
           abs((s1 * s1 + s3 * s3 - 2.0 * cb * s1 * s3 - b * b) / (b * b)),
           abs((s2 * s2 + s3 * s3 - 2.0 * ca * s2 * s3 - a * a) / (a * a))
           ) > tol:
        raise InconsistentInputError("ratio point violates the basic constraints")
    return t


def solve(tri: ControlTriangle, angles: ViewAngles,
          tol: float = conics.INTERSECT_TOL,
          cluster_tol: float = conics.CLUSTER_TOL) -> SolutionSet:
    """Enumerate all distinct positive solutions of the scene.

    tol and cluster_tol are the intersection's residual gate and merge gap
    (conics.INTERSECT_TOL and conics.CLUSTER_TOL by default); a recovered
    triplet's basic-constraint residuals must be within the larger of tol
    and CONSTRAINT_TOL.

    Raises:
        DegeneratePencilError: the two conics are proportional
            (conics.PENCIL_RANK_TOL) or share a component: cocyclic
            configurations (O near the circumcircle of the control points,
            in their plane), and most sliver triangles with one side below
            1e-3 of the others, whose cubic falls under
            conics.SHARED_COMPONENT_TOL.
        DegenerateInputError: a quadrant-I ratio point gives a triplet
            that is not positive, checked before the residual gate; a ratio
            so large that the radicand overflows does (s1 becomes 0 or nan).
            No scene of the tests or campaigns reaches it.
        InconsistentInputError: a quadrant-I ratio point fails the
            basic-constraint residual gate; sliver triangles, whose
            residuals divide by a tiny side squared, reach it.
    """
    sides = tri.sides
    gate = max(tol, CONSTRAINT_TOL)
    min_ratio = conics._MIN_RATIO
    sols = []
    for u, v, m in conics._intersect(
            *conics.conic_terms(sides, angles.cosines), tol, cluster_tol):
        if not (u > min_ratio and v > min_ratio):  # quadrant_one_filter
            continue
        try:
            t = _triplet(u, v, sides, angles, gate)
        except InfeasibleRatioError:
            continue
        sols.append(_new_solution(t, _new_ratio(u, v, m), m >= 2))
    sols.sort(key=_distances)  # stable: ties keep the kernel's order
    return _new_solution_set(tri, angles, tuple(sols))


def _distances(s: Solution) -> tuple[float, float]:
    return (s.triplet.s1, s.triplet.s2)


#: _Z2_SLACK bounds how far below 0 a trilaterated z^2 may fall and still give
#: the in-plane center, relative to scale^2. Value unexplained: the centers of
#: the solutions of 2000 random and 700 locus scenes (seeds 19 and 23) have
#: z^2 >= 3.8e-8 scale^2, as those scenes keep O off the base plane.
#: Mutants x10 and x0.1: caught by tests/test_tolerances.py.
_Z2_SLACK = 1e-9


def recover_centers(t: SolutionTriplet, tri: ControlTriangle):
    """The two mirror-image optical centers at distances (s1, s2, s3).

    Returned in world coordinates, positive-z-in-canonical-frame first.
    """
    frame = canonical_frame(tri)
    a, e, f = frame.a, frame.e, frame.f
    s1, s2, s3 = t.values
    x = (s2 * s2 - s3 * s3 + a * a) / (2.0 * a)
    y = (s2 * s2 - 2.0 * e * x + e * e + f * f - s1 * s1) / (2.0 * f)
    z2 = s2 * s2 - x * x - y * y
    if z2 < -_Z2_SLACK * tri.scale ** 2:
        raise InfeasibleTripletError("distances admit no real center")
    z = math.sqrt(max(z2, 0.0))
    up = frame.to_world(np.array([x, y, z]))
    dn = frame.to_world(np.array([x, y, -z]))
    return up, dn
