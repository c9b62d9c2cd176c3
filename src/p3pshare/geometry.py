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


def _cross(p, q) -> tuple[float, float, float]:
    """p x q on float 3-sequences: the products and differences of np.cross,
    so bit-identical to it."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def _dot(p, q) -> float:
    """p . q on float 3-sequences, summed left to right (see README)."""
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _diff(p, q) -> tuple[float, float, float]:
    """p - q on float 3-sequences."""
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


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
        return _triangle(_as_point(A).tolist(), _as_point(B).tolist(),
                         _as_point(C).tolist())

    @cached_property
    def frame(self) -> "CanonicalFrame":
        """The canonical frame (see canonical_frame)."""
        a, area2, B = self.a, self.area2, self.B.tolist()
        cb, d = _diff(self.C.tolist(), B), _diff(self.A.tolist(), B)
        ex = (cb[0] / a, cb[1] / a, cb[2] / a)
        n0, n1, n2 = _cross(cb, d)
        ez = (n0 / area2, n1 / area2, n2 / area2)
        rows = (ex, _cross(ez, ex), ez)
        # rows negated first: negating the products' sum can flip a signed zero
        t = [_dot((-x, -y, -z), B) for x, y, z in rows]
        return _new_frame(a=a, e=_dot(d, rows[0]), f=_dot(d, rows[1]),
                          rotation=np.array(rows), translation=np.array(t))

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


def _triangle(p, q, r) -> ControlTriangle:
    """The ControlTriangle with vertices A = p, B = q and C = r, given as
    float 3-sequences: from_points' arithmetic, checks and messages on
    Python floats. The vertex arrays are built only for the triangle it
    returns, so a rejected draw (random_scene) costs its arithmetic alone.
    """
    cb, ab, ca = _diff(r, q), _diff(p, q), _diff(r, p)
    a, b, c = (math.sqrt(_dot(cb, cb)), math.sqrt(_dot(ca, ca)),
               math.sqrt(_dot(ab, ab)))
    # a non-finite coordinate reaches two of the three sides; finite ones
    # of size ~1e154 or more overflow in a squared side
    if not math.isfinite(a + b + c):
        if all(map(math.isfinite, (*p, *q, *r))):
            raise DegenerateInputError(
                "control points too far apart: a squared side overflows")
        raise DegenerateInputError("non-finite control point coordinates")
    if a <= 0.0 or b <= 0.0 or c <= 0.0:
        raise DegenerateInputError("coincident control points")
    n = _cross(cb, ab)
    area2 = math.sqrt(_dot(n, n))
    # sides of ~1e77 or more: the squared cross product may overflow
    if not math.isfinite(area2):
        raise DegenerateInputError(
            "control points too far apart: a squared cross product overflows")
    scale = max(a, b, c)
    if area2 <= _COLLINEAR_TOL * scale * scale:
        raise DegenerateInputError("collinear control points")
    if a + b <= c or b + c <= a or c + a <= b:
        raise DegenerateInputError("triangle inequality violated")
    return _new_triangle(A=np.array(p), B=np.array(q), C=np.array(r),
                         a=a, b=b, c=c,
                         cos_A=(b * b + c * c - a * a) / (2.0 * b * c),
                         cos_B=(a * a + c * c - b * b) / (2.0 * a * c),
                         cos_C=(a * a + b * b - c * c) / (2.0 * a * b),
                         area2=area2)


def interior_angles(tri: ControlTriangle) -> tuple[float, float, float]:
    """Cosines of the interior angles (at A, B, C) by the law of cosines."""
    return (tri.cos_A, tri.cos_B, tri.cos_C)


@dataclass(frozen=True, eq=False)
class CanonicalFrame:
    """Rigid map to the frame B=(0,0,0), C=(a,0,0), A=(e,f,0) with f > 0.

    ``to_canonical(p) = rotation @ p + translation``, summed left to right
    on floats: ``_canonical`` on a 3-sequence, and ``_world``, its inverse,
    also on three coordinate arrays, elementwise.
    """

    a: float
    e: float
    f: float
    rotation: np.ndarray
    translation: np.ndarray

    @cached_property
    def _affine(self) -> tuple:
        """The rotation's entries, row-major, then the translation's."""
        return (*self.rotation.ravel().tolist(), *self.translation.tolist())

    def _canonical(self, p) -> tuple[float, float, float]:
        r00, r01, r02, r10, r11, r12, r20, r21, r22, t0, t1, t2 = self._affine
        x, y, z = p
        return (r00 * x + r01 * y + r02 * z + t0,
                r10 * x + r11 * y + r12 * z + t1,
                r20 * x + r21 * y + r22 * z + t2)

    def _world(self, p) -> tuple[float, float, float]:
        r00, r01, r02, r10, r11, r12, r20, r21, r22, t0, t1, t2 = self._affine
        x, y, z = p[0] - t0, p[1] - t1, p[2] - t2
        return (r00 * x + r10 * y + r20 * z, r01 * x + r11 * y + r21 * z,
                r02 * x + r12 * y + r22 * z)

    def to_canonical(self, p) -> np.ndarray:
        return np.array(self._canonical(_as_point(p).tolist()))

    def to_world(self, p) -> np.ndarray:
        return np.array(self._world(_as_point(p).tolist()))


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
    O = _as_point(O).tolist()
    rA, rB, rC = (_diff(tri.A.tolist(), O), _diff(tri.B.tolist(), O),
                  _diff(tri.C.tolist(), O))
    nA, nB, nC = (math.sqrt(_dot(rA, rA)), math.sqrt(_dot(rB, rB)),
                  math.sqrt(_dot(rC, rC)))
    # a nan or infinite centre, or one so far that a squared ray overflows
    if not nA + nB + nC < math.inf:
        raise DegenerateInputError("optical center not finite, or so far "
                                   "that a squared ray length overflows")
    if min(nA, nB, nC) <= _COINCIDENT_TOL * tri.scale:
        raise DegenerateInputError("optical center coincides with a control point")
    uA = (rA[0] / nA, rA[1] / nA, rA[2] / nA)
    uB = (rB[0] / nB, rB[1] / nB, rB[2] / nB)
    uC = (rC[0] / nC, rC[1] / nC, rC[2] / nC)
    ca, cb, cg = _dot(uB, uC), _dot(uA, uC), _dot(uA, uB)
    if (abs(ca) >= _MAX_ABS_COS or abs(cb) >= _MAX_ABS_COS
            or abs(cg) >= _MAX_ABS_COS):
        raise DegenerateAngleError("subtended angle at 0 or pi")
    return _new_view_angles(ca, cb, cg)


def cocyclic_degeneracy(tri: ControlTriangle, O) -> float:
    """Distance of O from the circumcircle of ABC (in-plane and out-of-plane).

    Zero iff O lies on the circumcircle within the base plane. A nan or
    infinite O, or a finite one so far that its canonical coordinates or
    the distance overflow, raises DegenerateInputError.
    """
    O = _as_point(O).tolist()
    if not all(map(math.isfinite, O)):
        raise DegenerateInputError("optical center not finite")
    x, y, z = tri.frame._canonical(O)
    cx, cy, r = circumcircle_2d(tri.frame)
    d = math.hypot(math.hypot(x - cx, y - cy) - r, z)
    if d == math.inf:  # an infinite coordinate makes the distance inf
        raise DegenerateInputError(
            "optical center so far that its canonical distance overflows")
    return d


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
