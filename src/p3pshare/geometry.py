"""Core types: control triangles, canonical frames, viewing angles, triplets.

All quantities are double precision. Cosines are the stored angle
primitives throughout; angles in radians/degrees appear only in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DegenerateAngleError, DegenerateInputError


def _as_point(p) -> np.ndarray:
    q = np.asarray(p, dtype=float)
    if q.shape != (3,):
        raise DegenerateInputError(f"expected a 3D point, got shape {q.shape}")
    return q


def _record(cls):
    """A builder of instances of the frozen dataclass cls without its __init__.

    The builder takes every field, by position or keyword, and stores each
    value straight into the new instance's __dict__, where the generated
    __init__ makes one object.__setattr__ call per field; then it runs
    cls.__post_init__, if there is one, as __init__ does. Like __init__, its
    code is generated once per class, so a build costs one call and one
    store per field. The dict stays a key-sharing one; dict.update would
    skip the stores, but it copies the keys into a table of the instance's
    own, ~30% more memory per scene. It builds ControlTriangle,
    CanonicalFrame, ViewAngles, scenes.Scene, RatioPair, SolutionTriplet, the
    solver's Solution and SolutionSet, sharing's PairClassification,
    FamilyReport and CompanionReport, and loci's DangerCylinder,
    VerticalPlane, SkewedDangerCylinder and SampleRegion (the campaigns' one
    per locus draw). ViewAngles and SolutionTriplet have a
    __post_init__: its checks run on the stored fields before the builder
    returns, so a record that fails them is never handed out. The
    instance is what __init__ would build: the same fields, repr,
    immutability, eq and hash.
    """
    names = [f.name for f in fields(cls)]
    code = (f"def build({', '.join(names)}):\n"
            "    _obj = _new(_cls)\n"
            "    _dict = _obj.__dict__\n"
            + "".join(f"    _dict[{n!r}] = {n}\n" for n in names)
            + ("    _obj.__post_init__()\n"
               if hasattr(cls, "__post_init__") else "")
            + "    return _obj\n")
    namespace = {"_new": object.__new__, "_cls": cls}
    exec(code, namespace)
    return namespace["build"]


#: _DOT_SAFE bounds every coordinate difference in size from above before a
#: BLAS dot squares it, absolute. Reason: a float of at most 2**254 squares
#: to at most 2**508, a cross product of two such differences has entries
#: of at most 2**509, and a sum of three squares of those is at most
#: 3 * 2**1018, finite; so below it no dot overflows, and numpy has nothing
#: to warn about. Above it, or with a nan or inf, the same squared lengths
#: run with the overflow warning off, as the test after them raises the
#: documented error on an overflow: it decides no outcome and no bit.
_DOT_SAFE = 2.0 ** 254


def _cross(p, q) -> tuple[float, float, float]:
    """p x q on float 3-sequences: the products and differences of np.cross,
    so bit-identical to it. Norms and dots stay numpy (see README)."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


#: _COLLINEAR_TOL bounds twice the triangle's area from below, relative to its
#: largest side squared. Reason: the computed area of an exactly collinear
#: triple is a few eps scale^2, some 4500 times under it; between it and ~1e-8
#: the rounded sides fail the triangle inequality anyway, so it rejects the
#: triples whose rounded sides pass that test and names the degeneracy.
_COLLINEAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ControlTriangle:
    """The three control points with side lengths and interior-angle cosines.

    Sides follow the opposite-vertex convention: a = |BC|, b = |AC|, c = |AB|.
    Build it with ``from_points``, which rejects degenerate triangles. The
    canonical frame is built on first use and cached (``frame``); that is
    safe because the class is frozen.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    a: float
    b: float
    c: float
    cos_A: float  # cos(angle BAC)
    cos_B: float  # cos(angle ABC)
    cos_C: float  # cos(angle ACB)
    area2: float  # twice the area, |(C - B) x (A - B)|

    @classmethod
    def from_points(cls, A, B, C) -> "ControlTriangle":
        A, B, C = _as_point(A), _as_point(B), _as_point(C)
        cb, ab, ca = C - B, A - B, C - A
        cbl, abl = cb.tolist(), ab.tolist()
        (x0, x1, x2), (y0, y1, y2), h = cbl, abl, 0.5 * _DOT_SAFE
        # C - A = (C - B) - (A - B): below _DOT_SAFE when these are below h
        safe = (-h < x0 < h and -h < x1 < h and -h < x2 < h
                and -h < y0 < h and -h < y1 < h and -h < y2 < h)
        if safe:
            a2, b2, c2 = cb.dot(cb), ca.dot(ca), ab.dot(ab)
        else:  # a nan, an inf, or a square that may overflow
            with np.errstate(over="ignore"):  # which the next test names
                a2, b2, c2 = cb.dot(cb), ca.dot(ca), ab.dot(ab)
        a, b, c = math.sqrt(a2), math.sqrt(b2), math.sqrt(c2)
        # a non-finite coordinate reaches two of the three sides; finite
        # ones of size ~1e154 or more overflow in a squared side
        if not math.isfinite(a + b + c):
            if np.isfinite((A, B, C)).all():
                raise DegenerateInputError(
                    "control points too far apart: a squared side overflows")
            raise DegenerateInputError("non-finite control point coordinates")
        if a <= 0.0 or b <= 0.0 or c <= 0.0:
            raise DegenerateInputError("coincident control points")
        n = np.array(_cross(cbl, abl))
        if safe:
            area2 = math.sqrt(n.dot(n))
        else:  # sides of ~1e77 or more: the squared cross product may overflow
            with np.errstate(over="ignore"):
                area2 = math.sqrt(n.dot(n))
            if not math.isfinite(area2):
                raise DegenerateInputError(
                    "control points too far apart: a squared cross product "
                    "overflows")
        scale = max(a, b, c)
        if area2 <= _COLLINEAR_TOL * scale * scale:
            raise DegenerateInputError("collinear control points")
        if a + b <= c or b + c <= a or c + a <= b:
            raise DegenerateInputError("triangle inequality violated")
        return _new_triangle(A=A, B=B, C=C, a=a, b=b, c=c,
                             cos_A=(b * b + c * c - a * a) / (2.0 * b * c),
                             cos_B=(a * a + c * c - b * b) / (2.0 * a * c),
                             cos_C=(a * a + b * b - c * c) / (2.0 * a * b),
                             area2=area2)

    @cached_property
    def frame(self) -> "CanonicalFrame":
        """The canonical frame (see canonical_frame)."""
        a, area2, B = self.a, self.area2, self.B
        cb, d = (self.C - B).tolist(), self.A - B
        ex = (cb[0] / a, cb[1] / a, cb[2] / a)
        n0, n1, n2 = _cross(cb, d.tolist())
        ez = (n0 / area2, n1 / area2, n2 / area2)
        rotation = np.array([ex, _cross(ez, ex), ez])
        return _new_frame(a=a, e=float(d.dot(rotation[0])),
                          f=float(d.dot(rotation[1])), rotation=rotation,
                          translation=(-rotation).dot(B))

    @property
    def sides(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    @property
    def scale(self) -> float:
        return max(self.a, self.b, self.c)

    @property
    def points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.A, self.B, self.C)


_new_triangle = _record(ControlTriangle)


def interior_angles(tri: ControlTriangle) -> tuple[float, float, float]:
    """Cosines of the interior angles (at A, B, C) by the law of cosines."""
    return (tri.cos_A, tri.cos_B, tri.cos_C)


@dataclass(frozen=True, eq=False)
class CanonicalFrame:
    """Rigid map to the frame B=(0,0,0), C=(a,0,0), A=(e,f,0) with f > 0.

    ``to_canonical(p) = rotation @ p + translation``.
    """

    a: float
    e: float
    f: float
    rotation: np.ndarray
    translation: np.ndarray

    def to_canonical(self, p) -> np.ndarray:
        return self.rotation.dot(_as_point(p)) + self.translation

    def to_world(self, p) -> np.ndarray:
        return self.rotation.T.dot(_as_point(p) - self.translation)


_new_frame = _record(CanonicalFrame)


def canonical_frame(tri: ControlTriangle) -> CanonicalFrame:
    """Canonical frame of a triangle, cached on it.

    e = (a^2 + c^2 - b^2) / (2a) and f = +sqrt(c^2 - e^2) by construction.
    """
    return tri.frame


def circumcircle_2d(frame: CanonicalFrame) -> tuple[float, float, float]:
    """Circumcenter (cx, cy) and circumradius of the canonical triangle."""
    cx = frame.a / 2.0
    cy = (frame.e ** 2 - frame.a * frame.e + frame.f ** 2) / (2.0 * frame.f)
    return cx, cy, math.hypot(cx, cy)


@dataclass(frozen=True)
class ViewAngles:
    """Cosines of the subtended angles at the optical center.

    alpha is the angle between rays OB and OC (opposite side a), beta
    between OA and OC, gamma between OA and OB.
    """

    cos_alpha: float
    cos_beta: float
    cos_gamma: float

    def __post_init__(self):
        ca, cb, cg = self.cos_alpha, self.cos_beta, self.cos_gamma
        for x in (ca, cb, cg):
            if not -1.0 < x < 1.0:
                raise DegenerateAngleError(f"cosine {x} outside (-1, 1)")
        al, be, ga = math.acos(ca), math.acos(cb), math.acos(cg)
        if al + be + ga >= 2.0 * math.pi:
            raise DegenerateAngleError("angle sum >= 2*pi")
        if al >= be + ga or be >= al + ga or ga >= al + be:
            raise DegenerateAngleError("spherical triangle inequality violated")

    @property
    def cosines(self) -> tuple[float, float, float]:
        return (self.cos_alpha, self.cos_beta, self.cos_gamma)


_new_view_angles = _record(ViewAngles)


#: _COINCIDENT_TOL bounds the distance from the optical center to each
#: control point from below, relative to scale. Reason: O - P rounds by up to
#: eps / 2 of the coordinates' size, so for coordinates of size scale a ray
#: below 1e-15 scale (4.5 eps) is wrong by a tenth or more of its length.
_COINCIDENT_TOL = 1e-15
#: _MAX_ABS_COS bounds each subtended-angle cosine in size, absolute: an angle
#: within 1.4e-6 rad of 0 or pi is degenerate. Value unexplained; mutants x10
#: and x0.1 (of the 1e-12): caught by tests/test_tolerances.py and the scene
#: corpus.
_MAX_ABS_COS = 1.0 - 1e-12


def view_angles_from_center(tri: ControlTriangle, O) -> ViewAngles:
    """Subtended-angle cosines seen from the optical center O."""
    O = _as_point(O)
    rA, rB, rC = tri.A - O, tri.B - O, tri.C - O
    scale = tri.scale
    # every entry of rA and rC is within a side of rB's, so all are below
    # _DOT_SAFE when rB's are below h, as in ControlTriangle.from_points
    (x0, x1, x2), h = rB.tolist(), _DOT_SAFE - scale
    if -h < x0 < h and -h < x1 < h and -h < x2 < h:
        nA2, nB2, nC2 = rA.dot(rA), rB.dot(rB), rC.dot(rC)
    else:
        with np.errstate(over="ignore"):
            nA2, nB2, nC2 = rA.dot(rA), rB.dot(rB), rC.dot(rC)
    nA, nB, nC = math.sqrt(nA2), math.sqrt(nB2), math.sqrt(nC2)
    # a nan or infinite centre, or one so far that a squared ray overflows
    if not nA + nB + nC < math.inf:
        raise DegenerateInputError("optical center not finite, or so far "
                                   "that a squared ray length overflows")
    if min(nA, nB, nC) <= _COINCIDENT_TOL * scale:
        raise DegenerateInputError("optical center coincides with a control point")
    rA, rB, rC = rA / nA, rB / nB, rC / nC
    ca, cb, cg = float(rB.dot(rC)), float(rA.dot(rC)), float(rA.dot(rB))
    if (abs(ca) >= _MAX_ABS_COS or abs(cb) >= _MAX_ABS_COS
            or abs(cg) >= _MAX_ABS_COS):
        raise DegenerateAngleError("subtended angle at 0 or pi")
    return _new_view_angles(ca, cb, cg)


def cocyclic_degeneracy(tri: ControlTriangle, O) -> float:
    """Distance of O from the circumcircle of ABC (in-plane and out-of-plane).

    Zero iff O lies on the circumcircle within the base plane. A nan or
    infinite O raises DegenerateInputError before the frame map, where
    inf * 0 would make nan.
    """
    O = _as_point(O)
    if not all(map(math.isfinite, O.tolist())):
        raise DegenerateInputError("optical center not finite")
    frame = tri.frame
    x, y, z = (frame.rotation.dot(O) + frame.translation).tolist()
    cx, cy, r = circumcircle_2d(frame)
    return math.hypot(math.hypot(x - cx, y - cy) - r, z)


@dataclass(frozen=True)
class SolutionTriplet:
    """Positive distances (|OA|, |OB|, |OC|)."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        if not (self.s1 > 0.0 and self.s2 > 0.0 and self.s3 > 0.0):
            raise DegenerateInputError("solution triplet must be positive")

    @property
    def values(self) -> tuple[float, float, float]:
        return (self.s1, self.s2, self.s3)


_new_triplet = _record(SolutionTriplet)


@dataclass(frozen=True)
class RatioPair:
    """A candidate conic intersection (u, v) = (s2/s1, s3/s1)."""

    u: float
    v: float
    multiplicity: int = 1


_new_ratio = _record(RatioPair)
