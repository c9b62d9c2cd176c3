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

    Returns (vertices, faces) in canonical coordinates; faces are 1-based
    index triples. The two sheets z = +/- sqrt(RHS) are stitched along
    boundary vertices located by bisection on y*Q (where z = 0).
    """
    a, e, f = surf.frame.a, surf.frame.e, surf.frame.f
    cyl = surf.cylinder
    cx, cy = cyl.center
    r = cyl.radius
    if bounds is None:
        pad = 1.6 * r
        bounds = (cx - pad, cx + pad, cy - pad, cy + pad)
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, n).tolist()
    ys = np.linspace(y0, y1, n).tolist()
    den_min = _DEN_TOL * max(1.0, a * a)

    def rhs_parts(x, y):
        Q = (x - cx) ** 2 + (y - cy) ** 2 - cyl.radius_squared
        den = e * e - f * y - a * e
        return f * y * Q, den

    # rhs_parts at every node at once; the squares are taken one coordinate
    # at a time with the scalar power of rhs_parts, whose last bit can
    # differ from numpy's array square
    y = np.array(ys)
    Q = np.array([(x - cx) ** 2 for x in xs])[:, None] \
        + np.array([(yj - cy) ** 2 for yj in ys]) - cyl.radius_squared
    den = e * e - f * y - a * e
    with np.errstate(divide="ignore", invalid="ignore"):
        z2 = f * y * Q / den
    adm_grid = (abs(den) >= den_min) & (z2 > 0.0)
    adm = adm_grid.tolist()
    zs = np.sqrt(np.where(adm_grid, z2, 0.0)).tolist()

    vertices: list[tuple[float, float, float]] = []
    top = {}
    bot = {}

    def node_vertex(i, j, sheet):
        key = (i, j)
        table = top if sheet > 0 else bot
        if key not in table:
            vertices.append((xs[i], ys[j], sheet * zs[i][j]))
            table[key] = len(vertices)
        return table[key]

    cross_cache = {}

    def edge_crossing(n0, n1):
        """z=0 vertex on the edge between an admissible and inadmissible node."""
        key = (min(n0, n1), max(n0, n1))
        if key in cross_cache:
            return cross_cache[key]
        lx, ly = xs[n0[0]], ys[n0[1]]
        hx, hy = xs[n1[0]], ys[n1[1]]
        g0, d0 = rhs_parts(lx, ly)
        g1, d1 = rhs_parts(hx, hy)
        idx = None
        if d0 * d1 > 0.0 and min(abs(d0), abs(d1)) > den_min \
                and g0 * g1 < 0.0:
            glo = g0
            for _ in range(80):
                mx, my = 0.5 * (lx + hx), 0.5 * (ly + hy)
                if (mx, my) == (lx, ly) or (mx, my) == (hx, hy):
                    break  # a fixed point: no further step moves lo or hi
                gm, _ = rhs_parts(mx, my)
                if gm == 0.0:
                    lx, ly = hx, hy = mx, my
                    break
                if (gm > 0.0) == (glo > 0.0):
                    lx, ly = mx, my
                    glo = gm
                else:
                    hx, hy = mx, my
            vertices.append((0.5 * (lx + hx), 0.5 * (ly + hy), 0.0))
            idx = len(vertices)
        cross_cache[key] = idx
        return idx

    faces: list[tuple[int, int, int]] = []

    def fan(poly):
        for t in range(1, len(poly) - 1):
            faces.append((poly[0], poly[t], poly[t + 1]))

    touched = adm_grid[:-1, :-1] | adm_grid[1:, :-1] | adm_grid[:-1, 1:] \
        | adm_grid[1:, 1:]
    for i, j in np.argwhere(touched).tolist():
        cyc = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
        flags = [adm[p][q] for p, q in cyc]
        for sheet in (1, -1):
            poly = []
            for t in range(4):
                p, q = cyc[t], cyc[(t + 1) % 4]
                if flags[t]:
                    poly.append(node_vertex(*p, sheet))
                if flags[t] != flags[(t + 1) % 4]:
                    idx = edge_crossing(p, q)
                    if idx is not None:
                        poly.append(idx)
            if len(poly) >= 3:
                fan(poly)

    return np.array(vertices), faces
