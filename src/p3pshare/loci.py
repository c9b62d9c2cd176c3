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
from .geometry import (CanonicalFrame, ControlTriangle, _as_point, _record,
                       canonical_frame)
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


_new_cylinder = _record(DangerCylinder)


def danger_cylinder(frame: CanonicalFrame) -> DangerCylinder:
    a, e, f = frame.a, frame.e, frame.f
    cx = a / 2.0
    cy = (e * e - a * e + f * f) / (2.0 * f)
    r2 = (e * e + f * f) * ((a - e) ** 2 + f * f) / (4.0 * f * f)
    return _new_cylinder(frame, (cx, cy), r2)


def cylinder_membership(cyl: DangerCylinder, O) -> float:
    """Signed radial distance of O from the cylinder wall."""
    x, y, _ = cyl.frame._canonical(_as_point(O).tolist())
    cx, cy = cyl.center
    return math.hypot(x - cx, y - cy) - cyl.radius


@dataclass(frozen=True, eq=False)
class VerticalPlane:
    """Plane through a triangle altitude, perpendicular to the base plane."""

    label: SharingLabel
    frame: CanonicalFrame
    point: np.ndarray   # canonical coordinates of a point on the altitude
    normal: np.ndarray  # unit horizontal normal, canonical coordinates


_new_plane = _record(VerticalPlane)


def vertical_plane(frame: CanonicalFrame, label: SharingLabel) -> VerticalPlane:
    """pi1 holds the altitude from A (label SIDE_BC), pi2 from B, pi3 from C."""
    a, e, f = frame.a, frame.e, frame.f
    k = label.shift
    if k == 0:      # altitude from A onto BC: the line x = e
        point, (n0, n1) = (e, 0.0, 0.0), (1.0, 0.0)
    elif k == 1:    # altitude from B, perpendicular to CA
        point, (n0, n1) = (0.0, 0.0, 0.0), (a - e, -f)
    else:           # altitude from C, perpendicular to AB
        point, (n0, n1) = (a, 0.0, 0.0), (e, f)
    norm = math.sqrt(n0 * n0 + n1 * n1)  # + 0.0 * 0.0 changes no bit
    return _new_plane(label, frame, np.array(point),
                      np.array((n0 / norm, n1 / norm, 0.0)))


def plane_membership(plane: VerticalPlane, O) -> float:
    """Signed distance of O from the vertical plane."""
    x, y, z = plane.frame._canonical(_as_point(O).tolist())
    (q0, q1, q2), (n0, n1, n2) = plane.point.tolist(), plane.normal.tolist()
    return (x - q0) * n0 + (y - q1) * n1 + (z - q2) * n2


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


_new_skew = _record(SkewedDangerCylinder)


def skewed_danger_cylinder(tri: ControlTriangle,
                           label: SharingLabel = SharingLabel.POINT_A
                           ) -> SkewedDangerCylinder:
    frame = canonical_frame(relabel_triangle(tri, label.shift))
    return _new_skew(label, frame)


def skewed_membership(surf: SkewedDangerCylinder, O) -> float:
    """Normalized implicit value G = f*y*Q - z^2 (e^2 - f y - a e) at O."""
    a, e, f = surf.frame.a, surf.frame.e, surf.frame.f
    x, y, z = surf.frame._canonical(_as_point(O).tolist())
    (cx, cy), cyl = surf.cylinder.center, surf.cylinder
    Q = (x - cx) ** 2 + (y - cy) ** 2 - cyl.radius_squared
    t1, t2 = f * y * Q, z * z * (e * e - f * y - a * e)
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


_new_region = _record(SampleRegion)


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
    (q0, q1, _), (n0, n1, _) = plane.point.tolist(), plane.normal.tolist()
    s = uniform(rng, -region.xy_half_extent, region.xy_half_extent)
    p = (q0 + s * -n1, q1 + s * n0, _sample_z(rng, region))
    return np.array(plane.frame._world(p))


def _sample_cylinder(cyl: DangerCylinder, rng, region) -> np.ndarray:
    th = uniform(rng, 0.0, 2.0 * math.pi)
    (cx, cy), r = cyl.center, cyl.radius
    p = (cx + r * math.cos(th), cy + r * math.sin(th), _sample_z(rng, region))
    return np.array(cyl.frame._world(p))


#: the skew surface z^2 = f*y*Q / (e^2 - f y - a e) has no point where the
#: denominator, next to its pole, is below _DEN_TOL * max(1, a^2). Value
#: unexplained; mutants x10 and x0.1: caught by tests/test_tolerances.py
_DEN_TOL = 1e-8


#: _sample_skew makes its first _SKEW_FIRST attempts one at a time, as most
#: calls accept within them, then tests blocks of _SKEW_BLOCK attempts, each
#: block twice the last, so a region with no admissible point runs out of
#: its budget in a few blocks
_SKEW_FIRST, _SKEW_BLOCK = 16, 64


def _sample_skew(surf: SkewedDangerCylinder, rng, region) -> np.ndarray:
    """Rejection sampling of (x, y) in the box, z from the surface.

    Each attempt draws x, then y, and, once accepted, the sign of z. After
    the first few, the attempts are tested a block at a time, in blocks of
    64, 128, 256, ... attempts capped by those left: the generator's state
    is saved, the block's 2 * m uniforms are drawn at once (rng.random(k)
    gives the values and end state of k scalar draws) and tested as arrays
    on the bits of the scalar test. Where attempt i of a block is accepted,
    the state is restored, the 2 * i uniforms before it are drawn again and
    the scalar attempt makes the point. The points and the generator's end
    state are those of the scalar loop, a failure too.
    """
    a, e, f = surf.frame.a, surf.frame.e, surf.frame.f
    cyl = surf.cylinder
    cx, cy = cyl.center
    h = region.xy_half_extent
    den_min = _DEN_TOL * max(1.0, a * a)

    def attempt():
        x = uniform(rng, cx - h, cx + h)
        y = uniform(rng, cy - h, cy + h)
        Q = (x - cx) ** 2 + (y - cy) ** 2 - cyl.radius_squared
        den = e * e - f * y - a * e
        if abs(den) < den_min:
            return None
        z2 = f * y * Q / den
        if z2 <= 0.0:
            return None
        z = math.sqrt(z2)
        if not (region.min_abs_z <= z <= region.z_max):
            return None
        if rng.random() < 0.5:
            z = -z
        return np.array(surf.frame._world((x, y, z)))

    left = region.max_rejects
    for _ in range(min(_SKEW_FIRST, left)):
        left -= 1
        p = attempt()
        if p is not None:
            return p
    block = _SKEW_BLOCK
    while left > 0:
        m = min(block, left)
        block *= 2
        state = rng.bit_generator.state
        u = rng.random(2 * m)
        x = (cx - h) + ((cx + h) - (cx - h)) * u[0::2]
        y = (cy - h) + ((cy + h) - (cy - h)) * u[1::2]
        hit = _skew_hits(surf, x, y, region, den_min)
        if not hit.size:
            left -= m
            continue
        rng.bit_generator.state = state
        rng.random(2 * int(hit[0]))
        left -= int(hit[0]) + 1
        p = attempt()
        if p is not None:
            return p
    raise SamplingFailureError("skew-surface sampling region exhausted")


@np.errstate(divide="ignore", invalid="ignore")
def _skew_hits(surf, x, y, region, den_min) -> np.ndarray:
    """Indices of the (x, y) draws that _sample_skew accepts: its tests on
    the same bits, the squares by libm pow as its x ** 2 takes them."""
    a, e, f = surf.frame.a, surf.frame.e, surf.frame.f
    cx, cy = surf.cylinder.center
    Q = np.float_power(x - cx, 2.0) + np.float_power(y - cy, 2.0) \
        - surf.cylinder.radius_squared
    den = e * e - f * y - a * e
    z2 = f * y * Q / den
    z = np.sqrt(z2)
    return np.flatnonzero((abs(den) >= den_min) & (z2 > 0.0)
                          & (region.min_abs_z <= z) & (z <= region.z_max))


def _circle_root(c, s2, lo, hi):
    """c - sqrt(s2) or c + sqrt(s2), whichever is nearer the edge [lo, hi]
    (in either order), clipped into it; s2 below 0 by rounding counts as 0.
    """
    root = c + np.copysign(np.sqrt(np.maximum(s2, 0.0)), 0.5 * (lo + hi) - c)
    return np.clip(root, np.minimum(lo, hi), np.maximum(lo, hi))


def skew_mesh(surf: SkewedDangerCylinder, bounds=None, n: int = 96):
    """Triangulated mesh of the skew surface over an (x, y) grid.

    Returns (vertices, faces) in canonical coordinates: a float (V, 3) array
    (np.array([]) when empty) and a C-contiguous int32 (F, 3) array of
    1-based vertex indices, one row per triangle ((0, 3) when empty). The
    two sheets z = +/- sqrt(RHS) meet at z = 0, where f*y*Q = 0: on the
    base line y = 0 (side BC) or on the danger circle Q = 0. So every grid
    edge on which f*y*Q changes sign gets its z = 0 vertex in closed form:
    y = 0, or the circle's root x = cx +/- sqrt(r^2 - (y - cy)^2) (along x)
    or y = cy +/- sqrt(r^2 - (x - cx)^2) (along y) nearest the edge,
    clipped into it.

    The faces are those of a walk of the cells, row-major, that meets per
    cell a polygon on the top sheet, then one on the bottom, each over 8
    slots counterclockwise from corner (i, j) (corner t, then the edge from
    corner t to t + 1), fanned from its first slot; the vertices are
    numbered in the order the walk first meets them. The walk is not made:
    every cell that holds a vertex has an admissible corner, so it is
    walked, and a vertex is first met in the first cell, row-major, that
    holds it. Cell (i, j) meets its edge up from (i + 1, j), its corner
    (i + 1, j + 1) and its edge across from (i, j + 1) first; the cells of
    row i = 0 and column j = 0 meet their outer corners and edges first as
    well. So a running count over the cells numbers every vertex into a
    table of ids by node, and each cell's fans read that table: a cell
    with four admissible corners by fixed slots, the few on the rim by
    their nonzero slots.

    Raises ValueError when a bound is not finite, and OverflowError where a
    grid coordinate's square overflows. A reversed or zero-width box is
    accepted.
    """
    a, e, f = surf.frame.a, surf.frame.e, surf.frame.f
    cyl = surf.cylinder
    cx, cy = cyl.center
    if bounds is None:
        pad = 1.6 * cyl.radius
        bounds = (cx - pad, cx + pad, cy - pad, cy + pad)
    x0, x1, y0, y1 = bounds
    if not (math.isfinite(x0) and math.isfinite(x1)
            and math.isfinite(y0) and math.isfinite(y1)):
        raise ValueError(f"skew_mesh bounds must be finite, got {bounds!r}")
    xs, ys = np.linspace(x0, x1, n), np.linspace(y0, y1, n)
    den_min = _DEN_TOL * max(1.0, a * a)

    # squares by libm pow, as skewed_membership's x ** 2 takes them;
    # np.square (x * x) differs from it in the last bit now and then
    d = abs(np.concatenate((xs - cx, ys - cy)))
    float(d[d < np.inf].max(initial=0.0)) ** 2  # OverflowError, as x ** 2
    sx, sy = np.float_power(xs - cx, 2.0), np.float_power(ys - cy, 2.0)
    g = sx[:, None] + sy
    g -= cyl.radius_squared  # Q
    g *= f * ys  # f*y*Q: z^2 * den
    den = e * e - f * ys - a * e
    with np.errstate(divide="ignore", invalid="ignore"):
        z2 = g / den
    adm = (abs(den) >= den_min) & (z2 > 0.0)
    # nodes and cells by the flat index p = i*n + j of the node (i, j), a
    # cell by that of its corner (i, j); no cell has its corner at j = n - 1
    nn, last = n * n, n * n - n - 1
    node = adm.view(np.uint8).ravel()
    touched = node[:last] | node[1:last + 1] | node[n:n + last] | node[n + 1:]
    if n > 1:
        touched[n - 1::n] = 0
    cell = np.flatnonzero(touched)  # the cells with an admissible corner
    if not len(cell):
        return np.array([]), np.empty((0, 3), np.int32)

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
    p0 = p0[ok]
    # f*y*Q changes sign on each kept edge, and f > 0, so exactly one of y
    # and Q does: the z = 0 slice is the line y = 0 (side BC) and the
    # circle Q = 0, and the crossing is on one of them in closed form
    i, j = np.divmod(p0, n)
    ix, jx, iy, jy = i[:ni], j[:ni], i[ni:], j[ni:]
    xc = _circle_root(cx, cyl.radius_squared - sy[jx], xs[ix], xs[ix + 1])
    yc = _circle_root(cy, cyl.radius_squared - sx[iy], ys[jy], ys[jy + 1])
    # a y edge across y = 0 may also hold two circle roots (Q keeps its
    # sign): the sign change of y*Q is that of y, so the vertex is y = 0
    yc[(ys[jy] > 0.0) != (ys[jy + 1] > 0.0)] = 0.0

    # a table by node of four vertex ids (0 for none), p's at 4p: its top
    # node, its bottom node, its edge to i + 1 and its edge to j + 1; a
    # cell's 16 slots, top polygon then bottom, lie at 4p + slot
    kind, step = (0, 2, 0, 3, 0, 2, 0, 3), (0, 0, n, n, n + 1, 1, 1, 0)
    slot = [4 * step[t] + kind[t] for t in range(8)]
    slot += [s + 1 if kind[t] == 0 else s for t, s in enumerate(slot)]
    held = np.zeros(4 * nn, np.uint8)  # 1 where the table will hold an id
    held[::4], held[2 + 4 * p0[:ni]], held[3 + 4 * p0[ni:]] = node, 1, 1
    cell4 = 4 * cell
    # has[t]: does the cell's slot t (on either sheet) hold a vertex
    has = np.stack([held[slot[t]:].take(cell4) for t in range(8)])
    tab = np.zeros(4 * nn, np.int32)
    # the vertices each cell meets first, in walk order: (cells, slot)
    every, row0 = slice(None), slice(0, np.searchsorted(cell, n - 1))
    starts = np.arange(0, last, n)  # the cell (i, 0) of each row, if walked
    col0 = np.searchsorted(cell, starts)
    col0 = col0[cell.take(col0, mode="clip") == starts]
    corner = slice(0, int(cell[0] == 0))
    firsts = ((corner, 0), (col0, 1), (col0, 2), (every, 3), (every, 4),
              (every, 5), (row0, 6), (row0, 7), (corner, 8), (col0, 10),
              (every, 12), (row0, 14))
    new = np.zeros(len(cell), np.int32)
    for cells, t in firsts:
        new[cells] += has[t % 8][cells]
    ids = np.cumsum(new, dtype=np.int32)
    ids -= new
    ids += 1  # the id of the next vertex a cell meets first
    for cells, t in firsts:
        h = has[t % 8][cells]
        tab[slot[t]:][cell4[cells]] = ids[cells] * h
        ids[cells] += h

    # the vertices by id: top and bottom nodes, then edge crossings
    nodes = np.flatnonzero(adm)
    xv, yv, z = xs[nodes // n], ys[nodes % n], np.sqrt(z2.take(nodes))
    vertices = np.empty((2 * len(nodes) + len(p0), 3))
    nodes *= 4
    for at, x, y, zv in (
            (tab.take(nodes), xv, yv, z), (tab[1:].take(nodes), xv, yv, -z),
            (np.concatenate((tab[2:].take(4 * p0[:ni]),
                             tab[3:].take(4 * p0[ni:]))),
             np.concatenate((xc, xs[iy])), np.concatenate((ys[jx], yc)), 0.0)):
        at = at.astype(np.intp)
        at -= 1
        for col, v in zip(vertices.T, (x, y, zv)):
            col[at] = v

    # a polygon of k slots fans into k - 2 triangles; each cell's faces
    # start at flat index at[c] of the face array, the top fan first
    k = has.sum(axis=0, dtype=np.uint8)
    nf = np.maximum(k, 2) - 2
    nf += nf
    at = np.cumsum(nf, dtype=np.intp)
    faces = np.empty((int(at[-1]), 3), np.int32)
    flat = faces.ravel()
    at -= nf
    at *= 3
    # four admissible corners: fans (0, 2, 4) and (0, 4, 6) on each sheet
    whole = has[0] & has[2] & has[4] & has[6]
    c = np.flatnonzero(whole)
    to, p = at.take(c), cell4.take(c)
    for sheet, w0 in ((0, 0), (8, 6)):
        s0, s2, s4, s6 = (tab[slot[sheet + t]:].take(p) for t in (0, 2, 4, 6))
        for w, v in enumerate((s0, s2, s4, s0, s4, s6), start=w0):
            flat[w:][to] = v
    # the rest: each polygon's nonzero slots, fanned from the first
    c = np.flatnonzero((nf != 0) & (whole == 0))
    if len(c):
        refs = tab.take(cell4.take(c)[:, None] + slot)
        refs = refs[refs != 0]  # the polygons' ids, top then bottom per cell
        kk = np.repeat(k.take(c).astype(np.intp), 2)  # each polygon's slots,
        first = np.cumsum(kk) - kk  # where it starts in refs,
        nt = kk - 2  # its triangles
        base = np.repeat(at.take(c), 2)  # and where they start in flat
        base[1::2] += 3 * nt[::2]
        fan = np.ones(len(refs), bool)  # the middle slots, one triangle each
        fan[first] = False
        fan[first + kk - 1] = False
        q = np.flatnonzero(fan)
        to = 3 * q + np.repeat(base - 3 * first - 3, nt)
        flat[to] = refs.take(np.repeat(first, nt))
        flat[1:][to] = refs.take(q)
        flat[2:][to] = refs.take(q + 1)
    return vertices, faces
