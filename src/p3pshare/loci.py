"""Geometric loci: danger cylinder, vertical planes, skewed danger cylinders.

Every locus is represented in the canonical frame of its (possibly
relabeled) triangle and evaluated on world points through the stored
rigid transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SamplingFailureError
from .geometry import CanonicalFrame, ControlTriangle, canonical_frame
from .sharing import SharingLabel, relabel_triangle


@dataclass(frozen=True, eq=False)
class DangerCylinder:
    """Vertical circular cylinder through the three control points."""

    frame: CanonicalFrame
    center: tuple[float, float]
    radius_squared: float

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_squared)


def danger_cylinder(frame: CanonicalFrame) -> DangerCylinder:
    a, e, f = frame.a, frame.e, frame.f
    cx = a / 2.0
    cy = (e * e - a * e + f * f) / (2.0 * f)
    r2 = (e * e + f * f) * ((a - e) ** 2 + f * f) / (4.0 * f * f)
    return DangerCylinder(frame=frame, center=(cx, cy), radius_squared=r2)


def cylinder_membership(cyl: DangerCylinder, O) -> float:
    """Signed radial distance of O from the cylinder wall."""
    x, y, _ = cyl.frame.to_canonical(O)
    cx, cy = cyl.center
    return math.hypot(x - cx, y - cy) - cyl.radius


@dataclass(frozen=True, eq=False)
class VerticalPlane:
    """Plane through a triangle altitude, perpendicular to the base plane."""

    label: SharingLabel
    frame: CanonicalFrame
    point: np.ndarray   # canonical coordinates of a point on the altitude
    normal: np.ndarray  # unit horizontal normal, canonical coordinates


def vertical_plane(frame: CanonicalFrame, label: SharingLabel) -> VerticalPlane:
    """pi1 holds the altitude from A (label SIDE_BC), pi2 from B, pi3 from C."""
    a, e, f = frame.a, frame.e, frame.f
    k = label.shift
    if k == 0:      # altitude from A onto BC: the line x = e
        point = np.array([e, 0.0, 0.0])
        n = np.array([1.0, 0.0, 0.0])
    elif k == 1:    # altitude from B, perpendicular to CA
        point = np.array([0.0, 0.0, 0.0])
        n = np.array([a - e, -f, 0.0])
    else:           # altitude from C, perpendicular to AB
        point = np.array([a, 0.0, 0.0])
        n = np.array([e, f, 0.0])
    n = n / math.sqrt(n.dot(n))
    return VerticalPlane(label=label, frame=frame, point=point, normal=n)


def plane_membership(plane: VerticalPlane, O) -> float:
    """Signed distance of O from the vertical plane."""
    p = plane.frame.to_canonical(O)
    return float((p - plane.point).dot(plane.normal))


@dataclass(frozen=True, eq=False)
class SkewedDangerCylinder:
    """Cubic surface f*y*Q(x,y) = z^2 (e^2 - f y - a e) for a shared point.

    The frame belongs to the relabeled triangle that puts the shared point
    at (e, f, 0); Q is the danger-cylinder quadratic of that frame. The
    factor f on the left comes out of clearing denominators in the
    point-share constraint; the z = 0 slice still contains the danger
    cylinder circle and the surface is still cubic.
    """

    label: SharingLabel
    frame: CanonicalFrame

    @cached_property
    def cylinder(self) -> DangerCylinder:
        return danger_cylinder(self.frame)


def skewed_danger_cylinder(tri: ControlTriangle,
                           label: SharingLabel = SharingLabel.POINT_A
                           ) -> SkewedDangerCylinder:
    frame = canonical_frame(relabel_triangle(tri, label.shift))
    return SkewedDangerCylinder(label=label, frame=frame)


def _skew_terms(surf: SkewedDangerCylinder, p) -> tuple[float, float]:
    a, e, f = surf.frame.a, surf.frame.e, surf.frame.f
    x, y, z = p
    cyl = surf.cylinder
    cx, cy = cyl.center
    Q = (x - cx) ** 2 + (y - cy) ** 2 - cyl.radius_squared
    return f * y * Q, z * z * (e * e - f * y - a * e)


def skewed_membership(surf: SkewedDangerCylinder, O) -> float:
    """Normalized implicit value G = f*y*Q - z^2 (e^2 - f y - a e) at O."""
    p = surf.frame.to_canonical(O)
    t1, t2 = _skew_terms(surf, p)
    return (t1 - t2) / max(1.0, abs(t1), abs(t2))


def sharing_locus(tri: ControlTriangle, label: SharingLabel):
    """Vertical plane (side label) or skewed danger cylinder (point label)."""
    if label.kind == "point":
        return skewed_danger_cylinder(tri, label)
    return vertical_plane(canonical_frame(tri), label)


def membership(locus, O) -> float:
    """Signed membership residual of O on a sharing locus; zero on it."""
    if isinstance(locus, VerticalPlane):
        return plane_membership(locus, O)
    if isinstance(locus, SkewedDangerCylinder):
        return skewed_membership(locus, O)
    raise TypeError(f"not a locus: {type(locus)!r}")


@dataclass(frozen=True)
class SampleRegion:
    """Bounding box for locus sampling; |z| below min_abs_z is excluded."""

    xy_half_extent: float = 3.0
    z_max: float = 2.5
    min_abs_z: float = 0.1
    max_rejects: int = 10000


def sample_locus(locus, rng: np.random.Generator,
                 region: SampleRegion = SampleRegion()) -> np.ndarray:
    """A world point on the locus with membership residual < 1e-12."""
    if isinstance(locus, VerticalPlane):
        return _sample_plane(locus, rng, region)
    if isinstance(locus, DangerCylinder):
        return _sample_cylinder(locus, rng, region)
    if isinstance(locus, SkewedDangerCylinder):
        return _sample_skew(locus, rng, region)
    raise TypeError(f"not a locus: {type(locus)!r}")


def uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """The draw of scalar rng.uniform(lo, hi) at a third of its cost."""
    return lo + (hi - lo) * rng.random()


def _sample_z(rng, region) -> float:
    z = uniform(rng, region.min_abs_z, region.z_max)
    return z if rng.random() < 0.5 else -z


def _sample_plane(plane: VerticalPlane, rng, region) -> np.ndarray:
    d = np.array([-plane.normal[1], plane.normal[0], 0.0])
    s = uniform(rng, -region.xy_half_extent, region.xy_half_extent)
    p = plane.point + s * d
    p[2] = _sample_z(rng, region)
    return plane.frame.to_world(p)


def _sample_cylinder(cyl: DangerCylinder, rng, region) -> np.ndarray:
    th = uniform(rng, 0.0, 2.0 * math.pi)
    cx, cy = cyl.center
    r = cyl.radius
    p = np.array([cx + r * math.cos(th), cy + r * math.sin(th),
                  _sample_z(rng, region)])
    return cyl.frame.to_world(p)


#: the skew surface z^2 = f*y*Q / (e^2 - f y - a e) has no point where the
#: denominator, next to its pole, is below _DEN_TOL * max(1, a^2)
_DEN_TOL = 1e-8


def _sample_skew(surf: SkewedDangerCylinder, rng, region) -> np.ndarray:
    a, e, f = surf.frame.a, surf.frame.e, surf.frame.f
    cyl = surf.cylinder
    cx, cy = cyl.center
    h = region.xy_half_extent
    den_min = _DEN_TOL * max(1.0, a * a)
    for _ in range(region.max_rejects):
        x = uniform(rng, cx - h, cx + h)
        y = uniform(rng, cy - h, cy + h)
        Q = (x - cx) ** 2 + (y - cy) ** 2 - cyl.radius_squared
        den = e * e - f * y - a * e
        if abs(den) < den_min:
            continue
        z2 = f * y * Q / den
        if z2 <= 0.0:
            continue
        z = math.sqrt(z2)
        if not (region.min_abs_z <= z <= region.z_max):
            continue
        if rng.random() < 0.5:
            z = -z
        return surf.frame.to_world(np.array([x, y, z]))
    raise SamplingFailureError("skew-surface sampling region exhausted")


def skew_mesh(surf: SkewedDangerCylinder, bounds=None, n: int = 96):
    """Triangulated mesh of the skew surface over an (x, y) grid.

    Returns (vertices, faces) in canonical coordinates: a float (V, 3) array
    (np.array([]) when empty) and 1-based index triples. The two sheets
    z = +/- sqrt(RHS) meet at z = 0 vertices found by bisection on y*Q.
    Raises OverflowError where a grid coordinate's square overflows.
    """
    a, e, f = surf.frame.a, surf.frame.e, surf.frame.f
    cyl = surf.cylinder
    cx, cy = cyl.center
    if bounds is None:
        pad = 1.6 * cyl.radius
        bounds = (cx - pad, cx + pad, cy - pad, cy + pad)
    x0, x1, y0, y1 = bounds
    xs, ys = np.linspace(x0, x1, n), np.linspace(y0, y1, n)
    den_min = _DEN_TOL * max(1.0, a * a)

    # squares by libm pow, as Python's x ** 2 in _skew_terms takes them;
    # np.square (x * x) differs from it in the last bit now and then
    def fyq(x, y):  # f*y*Q, the numerator of z^2
        return f * y * (np.float_power(x - cx, 2.0)
                        + np.float_power(y - cy, 2.0) - cyl.radius_squared)

    d = abs(np.concatenate((xs - cx, ys - cy)))
    float(d[d < np.inf].max(initial=0.0)) ** 2  # OverflowError, as x ** 2
    g = fyq(xs[:, None], ys)
    den = e * e - f * ys - a * e
    with np.errstate(divide="ignore", invalid="ignore"):
        z2 = g / den
    adm = (abs(den) >= den_min) & (z2 > 0.0)
    touched = adm[:-1, :-1] | adm[1:, :-1] | adm[:-1, 1:] | adm[1:, 1:]
    if not touched.any():
        return np.array([]), []

    # edges from an admissible to an inadmissible node, by flat node index:
    # ei go (i, j)-(i+1, j) and ej (i, j)-(i, j+1); ni of those kept are ei
    ei = np.flatnonzero(adm[:-1] != adm[1:])
    ej = np.flatnonzero(adm[:, :-1] != adm[:, 1:])
    ej += ej // (n - 1)
    p0, p1 = np.concatenate((ei, ej)), np.concatenate((ei + n, ej + 1))
    d0, d1 = den[p0 % n], den[p1 % n]
    ok = (d0 * d1 > 0.0) & (np.minimum(abs(d0), abs(d1)) > den_min) \
        & (g.take(p0) * g.take(p1) < 0.0)
    ni = np.count_nonzero(ok[:len(ei)])
    p0, p1 = p0[ok], p1[ok]
    # bisect them all at once; as the midpoint is symmetric and the end
    # whose sign gm has moves, either end may be lo (and lo keeps its sign)
    lx, ly, hx, hy = xs[p0 // n], ys[p0 % n], xs[p1 // n], ys[p1 % n]
    pos = g.take(p0) > 0.0
    live = np.arange(len(p0))
    for _ in range(80):
        if not live.size:
            break
        ax, ay, bx, by = lx[live], ly[live], hx[live], hy[live]
        mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
        gm = fyq(mx, my)
        move = ~((mx == ax) & (my == ay) | (mx == bx) & (my == by))
        zero = gm == 0.0
        lo = (gm > 0.0) == pos[live]
        for s, px, py in ((move & (lo | zero), lx, ly),
                          (move & (zero | ~lo), hx, hy)):
            px[live[s]], py[live[s]] = mx[s], my[s]
        live = live[move & ~zero]

    # a walk of the cells, row-major, meets per cell a polygon on the top
    # sheet, then one on the bottom, each in 8 slots counterclockwise from
    # (i, j): corner t, then the edge from corner t to t + 1; the slots hold
    # vertex ids (0 for none) from tables of top nodes, bottom nodes, edges
    # to i + 1 and edges to j + 1
    node = np.flatnonzero(adm)
    xv, yv, z = xs[node // n], ys[node % n], np.sqrt(z2.take(node))
    vertices = np.stack((np.concatenate((xv, xv, 0.5 * (lx + hx))),
                         np.concatenate((yv, yv, 0.5 * (ly + hy))),
                         np.concatenate((z, -z, np.zeros_like(lx)))), axis=1)
    at = np.concatenate((node, node + n * n, p0 + 2 * n * n))
    at[2 * len(node) + ni:] += n * n
    tab = np.zeros(4 * n * n, np.int32)
    tab[at] = np.arange(1, len(at) + 1)
    cell = np.flatnonzero(touched).astype(np.int32)
    cell += cell // (n - 1)  # now the flat index of the cell's node (i, j)
    slots = np.array([0, 2, 0, 3, 0, 2, 0, 3, 1, 2, 1, 3, 1, 2, 1, 3]) * n * n \
        + [0, 0, n, n, n + 1, 1, 1, 0] * 2
    refs = tab[cell[:, None] + slots.astype(np.int32)]
    nz = refs != 0
    flat = refs[nz]
    # vertices are numbered in the order the walk first meets them
    seen = np.full(len(at) + 1, len(flat))
    np.minimum.at(seen, flat, np.arange(len(flat)))
    order = np.argsort(seen[1:])
    ids = np.empty(len(at) + 1, object)  # the faces share one int a vertex
    ids[1 + order] = np.arange(1, len(at) + 1)
    # each polygon is fanned as (p0, pt, pt+1) over its nonzero slots
    k = np.count_nonzero(nz.reshape(-1, 8), axis=1)
    first = np.repeat(np.cumsum(k) - k, k)
    q = np.flatnonzero((first[:-1] == first[1:])
                       & (first[:-1] < np.arange(len(flat) - 1)))
    tri = np.stack((flat[first[q]], flat[q], flat[q + 1]))
    return vertices[order], list(zip(*ids[tri].tolist()))
