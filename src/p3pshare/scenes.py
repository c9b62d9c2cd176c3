"""Random scenes, the grid oracle, and theorem-verification campaigns."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import conics, loci, sharing, solver
from .errors import (DegenerateAngleError, DegenerateInputError,
                     DegeneratePencilError, GenerationFailureError,
                     NotOnConstraintLineError, SamplingFailureError)
from .geometry import (ControlTriangle, RatioPair, SolutionTriplet, ViewAngles,
                       _diff, _dot, _new_triplet, _record, canonical_frame,
                       cocyclic_degeneracy, interior_angles,
                       view_angles_from_center)
from .sharing import SharingLabel


class SceneConfig:
    """Bounds and degeneracy clearances for random scene generation:
    constants, read as SceneConfig.<name>."""

    vertex_half_extent = 1.5
    min_area = 0.2
    min_side = 0.4
    center_xy = 2.0
    z_range = (0.15, 2.5)
    # the three clearances: values unexplained, and tests/test_tolerances.py
    # catches each at x10 and x0.1
    #: |cos| of every subtended angle below 1 - cos_margin, absolute: angles
    #: 1.4e-3 rad or more from 0 and pi
    cos_margin = 1e-6
    #: |cos beta| and |cos gamma| above it, absolute: the point lines divide
    #: by them
    cos_bg_min = 1e-3
    #: O at least this far from the control points' circumcircle, an absolute
    #: length: on it the conic pencil is degenerate
    cocyclic_min = 1e-3
    max_rejects = 2000


@dataclass(frozen=True, eq=False)
class Scene:
    triangle: ControlTriangle
    center: np.ndarray
    angles: ViewAngles

    @property
    def scale(self) -> float:
        return self.triangle.scale


_new_scene = _record(Scene)


def scene_from_center(tri: ControlTriangle, O) -> Scene:
    O = np.asarray(O, dtype=float)
    return _new_scene(triangle=tri, center=O,
                      angles=view_angles_from_center(tri, O))


def _scene_at(tri: ControlTriangle, O) -> Scene | None:
    """The scene seen from O; None inside a degeneracy clearance of
    SceneConfig. tri's vertices must have z = 0, as random_scene builds
    them.

    Then |O_z| bounds cocyclic_degeneracy(tri, O) from below, so the
    cocyclic test runs only where |O_z| < cocyclic_min. The cross product n
    of two edges is (+-0, +-0, n2); area2 = sqrt(fl(n2^2)) = |n2|, so the
    frame's third row is (+-0, +-0, +-1) and its translation's z is
    -(that row . B) = +-0. to_canonical(O)[2] is then +-O_z exactly, and
    the degeneracy, hypot(..., O_z), is at least |O_z|. Random scenes have
    |O_z| >= 0.15 (SceneConfig.z_range); locus scenes have a canonical
    |z|, which is |O_z| by the same rows, of at least
    SampleRegion.min_abs_z = 0.1 (_locus_draw). So the bound never binds on
    campaign or random scenes; it binds on hand-made centres within 1e-3 of
    the triangle's plane (tests/test_tolerances.py, TestSceneGates).
    """
    if abs(O[2]) < SceneConfig.cocyclic_min \
            and cocyclic_degeneracy(tri, O) < SceneConfig.cocyclic_min:
        return None
    try:
        scene = scene_from_center(tri, O)
    except (DegenerateInputError, DegenerateAngleError):
        return None
    va, edge = scene.angles, 1.0 - SceneConfig.cos_margin
    bg = SceneConfig.cos_bg_min
    ca, cb, cg = abs(va.cos_alpha), abs(va.cos_beta), abs(va.cos_gamma)
    if ca >= edge or cb >= edge or cg >= edge or cb <= bg or cg <= bg:
        return None
    return scene


def random_scene(rng: np.random.Generator) -> Scene:
    """A non-degenerate scene within the bounds and clearances of
    SceneConfig; deterministic given the generator state."""
    z0, z1 = SceneConfig.z_range
    h, xy = SceneConfig.vertex_half_extent, SceneConfig.center_xy
    min_side, min_area = SceneConfig.min_side, SceneConfig.min_area
    for _ in range(SceneConfig.max_rejects):
        (x0, y0), (x1, y1), (x2, y2) = rng.uniform(-h, h, size=(3, 2)).tolist()
        try:
            tri = ControlTriangle.from_points((x0, y0, 0.0), (x1, y1, 0.0),
                                              (x2, y2, 0.0))
        except DegenerateInputError:
            continue
        if tri.a < min_side or tri.b < min_side or tri.c < min_side \
                or 0.5 * tri.area2 < min_area:
            continue
        # z, its sign, x and y, each uniform loci.uniform's lo + (hi - lo) * u:
        # rng.random(4) gives the values and end state of four scalar draws
        uz, sign, ux, uy = rng.random(4).tolist()
        z = z0 + (z1 - z0) * uz
        if sign < 0.5:
            z = -z
        O = np.array([-xy + (xy - -xy) * ux, -xy + (xy - -xy) * uy, z])
        scene = _scene_at(tri, O)
        if scene is not None:
            return scene
    raise GenerationFailureError("rejection budget exceeded")


@dataclass(frozen=True)
class GridConfig:
    """Grid oracle bounds: u, v in (0, u_max], n x n nodes."""

    u_max: float = 20.0
    n: int = 2000


#: the oracle's Newton residual gate, relative to 1 + u^2 + v^2. Value
#: unexplained: 1000 times above conics.NEWTON_STOP, where a converged seed
#: stops. Mutants x10 and x0.1: caught by tests/test_tolerances.py
_REFINE_TOL = 1e-10
#: distance, relative to 1 + |u| and 1 + |v|, within which two oracle points
#: merge: far below a cell (0.01 at GridConfig()). Value unexplained; at x0.1
#: the golden oracle points split a danger-cylinder tangency found from two
#: cells. Mutants x10 and x0.1: caught by tests/test_tolerances.py
_MERGE_TOL = 1e-5

#: box sides, in grid cells, of the oracle's coarse-to-fine exclusion
_BOX_CELLS = (128, 32, 8)

#: float64's eps and smallest subnormal, for _one_signed's margin
_EPS = float(np.finfo(float).eps)
_ETA = float(np.finfo(float).smallest_subnormal)


def _stacked(F1: conics.Conic, F2: conics.Conic, ndim: int) -> conics.Conic:
    """Both conics as one Conic whose coefficients are arrays of shape
    (2, 1, ..., 1), with ndim ones: evaluated on nodes of ndim axes, it
    gives F1's values then F2's, each computed as Conic.__call__ does."""
    return conics.Conic(*np.array([F1.terms, F2.terms]).T
                        .reshape(6, 2, *(1,) * ndim))


def _centred(lo, hi):
    """(c, h): the float midpoint of [lo, hi], 0 < lo <= hi, which lies in
    it, and its largest distance to an end rounded outward, so that
    c - h <= lo and hi <= c + h hold exactly."""
    c = 0.5 * (lo + hi)
    return c, np.nextafter(np.maximum(hi - c, c - lo), np.inf)


def _one_signed(F: conics.Conic, A: conics.Conic,
                cu, cv, hu, hv, uhi, vhi) -> np.ndarray:
    """Mask of the boxes [ulo, uhi] x [vlo, vhi] (0 < lo < hi) on whose grid
    nodes the float value F(u, v) keeps one strict sign, given each box's
    (cu, hu) = _centred(ulo, uhi), (cv, hv) = _centred(vlo, vhi) and high
    ends. A is the Conic of F's absolute coefficients. The coefficients of
    F and A may be arrays that broadcast against the boxes.

    About a box's centre c = (cu, cv), exactly F(cu + du, cv + dv) = F(c)
    + F_u du + F_v dv + c_uu du^2 + c_uv du dv + c_vv dv^2, so where
    |du| <= hu and |dv| <= hv, F differs from F(c) by at most R = |F_u| hu
    + |F_v| hv + |c_uu| hu^2 + |c_uv| hu hv + |c_vv| hv^2 (the centred
    form). The box is one-signed when the computed |F(c)| - R exceeds a
    margin of 8 eps S, S being the sum of the absolute terms of F at
    (uhi, vhi); for u, v > 0 each monomial grows with u and v, so S bounds
    that sum at every node. In units of roundoff (eps / 2) times S, the
    margin is 16 and covers:
      - the node evaluation, 7: Conic.__call__ forms each term with at most
        two products and adds the six with five additions;
      - F(c) and R, 8: F(c) errs by 7 units of its own sum of absolute
        terms S(c), and R by 8 (three roundings in F_u, one product, four
        additions) of R', the R with each gradient replaced by the sum of
        its absolute terms. Term by term, S(c) + R' is S at (cu + hu,
        cv + hv);
      - the centre and half-widths, rounded outward (_centred): every node
        lies within hu, hv of c, and cu + hu <= uhi (1 + 4 units), so S at
        (cu + hu, cv + hv) is at most S (1 + 9 units). That, the 7 units by
        which S itself may round and the errors' own rounding add terms in
        eps^2 S, which the one unit to spare covers. The last subtraction
        adds nothing: rounding is monotone and the margin is a float;
      - the subnormal term, 16 W eta with eta = smallest_subnormal and
        W = 1 + uhi + vhi: under gradual underflow a product may instead
        err by up to eta / 2 (sums of subnormals are exact), and a later
        factor u, v, hu or hv, each below W, scales that error. Summed over
        its products, a node then errs by at most 5/2 W eta, F(c) by as
        much, and R by 5/2 W eta again: two products in each gradient,
        whose errors hu or hv scale, one that scales the gradient, and two
        in each quadratic term. eps S and 2 W eta may each round by
        eta / 2, which the factor 8 makes 8 eta at most, and
        15/2 W eta + 8 eta <= 16 W eta.
    """
    fu = 2.0 * F.c_uu * cu + F.c_uv * cv + F.c_u
    fv = 2.0 * F.c_vv * cv + F.c_uv * cu + F.c_v
    r = (abs(fu) * hu + abs(fv) * hv + A.c_uu * hu * hu
         + A.c_uv * hu * hv + A.c_vv * hv * hv)
    S = A(uhi, vhi)
    W = 1.0 + uhi + vhi
    return abs(F(cu, cv)) - r > 8.0 * (_EPS * S + 2.0 * _ETA * W)


@lru_cache(maxsize=16)
def _sub_boxes(side: int, nxt: int) -> np.ndarray:
    """Offsets (di, dj), row-major, from a box's low node to those of the
    boxes of nxt cells on a side that tile it (side cells on a side). Built
    once per pair of sides and shared read-only."""
    off = np.arange(0, side, nxt)
    sub = np.stack([off.repeat(len(off)), np.tile(off, len(off))], 1)
    sub.flags.writeable = False
    return sub


def _box_tables(t: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The quantities of the box scan that depend on the grid alone, by a
    box's low node i (0 <= i < m = len(t) - 1), high nodes clipped to t[m]:
      - per side of _BOX_CELLS, a (3, m) table whose column i is the (c, h,
        hi) of the box of side cells on a side: (c, h) = _centred(t[i], hi),
        hi = t[i + side];
      - a (m, s + 1) table whose row i is the nodes t[i], ..., t[i + s] of
        a box of the last side s, which the scan visits node by node.
    Each is read-only."""
    m = len(t) - 1
    i = np.arange(max(m, 0))
    levels = []
    for side in _BOX_CELLS:
        hi = t[np.minimum(i + side, m)]
        levels.append(np.stack((*_centred(t[i], hi), hi)))
    nodes = t[np.minimum(i[:, None] + np.arange(_BOX_CELLS[-1] + 1), m)]
    for table in (*levels, nodes):
        table.flags.writeable = False
    return tuple(levels), nodes


@lru_cache(maxsize=8)
def _grid_tables(grid: GridConfig):
    """The grid's nodes t and its _box_tables, built once per grid and
    shared read-only."""
    t = np.linspace(grid.u_max / grid.n, grid.u_max, grid.n)
    t.flags.writeable = False
    return t, _box_tables(t)


def _candidate_cells(F1: conics.Conic, F2: conics.Conic,
                     t: np.ndarray, tables=None) -> np.ndarray:
    """Cells (i, j), spanning nodes t[i], t[i + 1] in u and t[j], t[j + 1]
    in v, where both conics change sign among the four corners; row-major.

    The cells are split into boxes of _BOX_CELLS[0] cells on a side; a box
    is dropped when either conic keeps one strict sign on all its nodes
    (_one_signed), and survivors split into boxes of the next size. The last
    survivors are scanned node by node, so the cells are exactly those of
    the sign scan of the full grid. Each box's bounds and nodes are read
    from tables, t's _box_tables, built here when not given.
    """
    m = len(t) - 1
    levels, nodes = _box_tables(t) if tables is None else tables
    boxes, side = np.zeros((1, 2), dtype=np.intp), m
    F = _stacked(F1, F2, 1)
    A = conics.Conic(*map(abs, F.terms))
    for nxt, table in zip(_BOX_CELLS, levels):
        boxes = (boxes[:, None] + _sub_boxes(side, nxt)).reshape(-1, 2)
        boxes = boxes[(boxes[:, 0] < m) & (boxes[:, 1] < m)]
        side = nxt
        # rows cu, cv, hu, hv, uhi, vhi: the columns of the boxes' low nodes
        bounds = table.take(boxes.T, axis=1).reshape(6, -1)
        signed = _one_signed(F, A, *bounds)
        boxes = boxes[~(signed[0] | signed[1])]
    u = nodes.take(boxes[:, 0], axis=0)[:, :, None]     # (k, s+1, 1)
    v = nodes.take(boxes[:, 1], axis=0)[:, None, :]     # (k, 1, s+1)
    S = _stacked(F1, F2, 3)(u, v) > 0.0                 # (2, k, s+1, s+1)
    S00 = S[..., :-1, :-1]
    mixed = ((S00 != S[..., 1:, :-1]) | (S00 != S[..., :-1, 1:])
             | (S00 != S[..., 1:, 1:]))
    k, di, dj = np.nonzero(mixed[0] & mixed[1])
    cells = boxes[k] + np.stack([di, dj], axis=1)
    cells = cells[(cells[:, 0] < m) & (cells[:, 1] < m)]
    return cells[np.lexsort((cells[:, 1], cells[:, 0]))]


def _merge(u: np.ndarray, v: np.ndarray) -> list[tuple[float, float]]:
    """The points (u, v) in (u, v) order, each dropped that lies within
    _MERGE_TOL of a point kept before it, relative to the kept point: keep
    the first, drop every point near it, repeat. The same points as the
    list loop over sorted (u, v) tuples that checks each against all kept
    so far, since a point drops there exactly when it is near a kept point
    before it."""
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    out = []
    while len(u):
        u0, v0 = u.item(0), v.item(0)
        out.append((u0, v0))
        far = ~((np.abs(u - u0) <= _MERGE_TOL * (1.0 + abs(u0)))
                & (np.abs(v - v0) <= _MERGE_TOL * (1.0 + abs(v0))))
        far[0] = False  # a nan point is not near itself
        u, v = u[far], v[far]
    return out


def brute_force_solutions(sides, angles: ViewAngles,
                          grid: GridConfig = GridConfig()) -> list[RatioPair]:
    """Independent conic-intersection oracle by sign-change grid scan.

    Independent of the pencil method of intersect_conics: candidate cells
    of the n x n grid are those where both conics change sign among the four
    corners, found by coarse-to-fine exclusion of boxes on which a conic
    provably keeps one sign (_candidate_cells, from the grid's cached box
    tables). Newton runs from every cell's centre at once, each lane bit for
    bit newton_polish (conics._polish_lanes); points whose residual passes
    _REFINE_TOL in quadrant I are sorted by (u, v) and merged within
    _MERGE_TOL (_merge).

    The grid's first nodes are at u, v = u_max / n, so a root with u or v
    below that lies in no cell and is not found: 0.01 at the defaults,
    where the solver finds a root at u = 0.00335 in the sixth scene of the
    oracle_mesh benchmark at seed 53.
    """
    pair = conics.build_conics(sides, angles)
    F1 = pair.C1.scaled()
    F2 = pair.C2.scaled()
    t, tables = _grid_tables(grid)
    cells = _candidate_cells(F1, F2, t, tables)
    # the cells' centres (u0, v0): the midpoints of their node spans
    u0, v0 = 0.5 * (t[cells] + t[cells + 1]).T
    u, v, res = conics._polish_lanes(F1.terms, F2.terms, u0, v0,
                                     conics.NEWTON_STOP)
    # the scalar gates' negations, so that a nan passes as it did there
    keep = (~(res > _REFINE_TOL * (1.0 + u * u + v * v))
            & ~(u <= 0.0) & ~(v <= 0.0))
    return [RatioPair(u=uu, v=vv) for uu, vv in _merge(u[keep], v[keep])]


def true_triplet(scene: Scene) -> SolutionTriplet:
    """Distances from the scene center: the ground-truth solution."""
    O = scene.center.tolist()
    rays = [_diff(P.tolist(), O) for P in scene.triangle.points]
    return _new_triplet(*[math.sqrt(_dot(r, r)) for r in rays])


# ---------------------------------------------------------------------------
# campaigns: one forward loop (_trials) over scenes from one locus sampler
# (_locus_draw) and one solve-or-skip (_solved), plus one converse scan
# (_converse) and one mate check (_mate_check)


@dataclass
class CampaignReport:
    theorem_id: str
    trials: int
    passes: int = 0
    failures: list = field(default_factory=list)  # (trial_seed, reason)
    skipped: int = 0
    residuals: list = field(default_factory=list)
    wall_time: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def residual_max(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def residual_median(self) -> float:
        return float(np.median(self.residuals)) if self.residuals else 0.0

    def record(self, ok: bool, seed, reason: str = "", residual=None):
        if residual is not None:
            self.residuals.append(residual)
        if ok:
            self.passes += 1
        else:
            self.failures.append((seed, reason))

    @property
    def pass_rate(self) -> float:
        n = self.passes + len(self.failures)
        return self.passes / n if n else 1.0


def _trial_rngs(seed: int, n: int):
    """One generator per trial, from the n children of SeedSequence(seed):
    Generator(PCG64(s)) is what default_rng(s) builds, in the same state."""
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(n)]


#: _CYL_CLEARANCE bounds a sharing-locus center's distance from the danger
#: cylinder (Sun's lines) from below, relative to scale. Value unexplained: at
#: seed 0 it rejects 47 of 1765 side_nsc and 32 of 2929 point_nsc draws; x10
#: and x0.1 change which scenes are drawn (the golden reports), and every
#: campaign still passes. Slack on both sides: the campaigns draw their own
#: scenes, so no hand-made input reaches it.
_CYL_CLEARANCE = 1e-2
#: distance, relative to scale, within which a center counts as on a sharing
#: locus. Value unexplained: the recovered centers of the side_nsc and
#: point_nsc pairs lie within 9.2e-12 and 2.0e-10 of scale at seed 0, and no
#: converse scan has found a pair; the campaign draws its own scenes, so no
#: hand-made input reaches it. Mutants x10 and x0.1: not caught.
_LOCUS_TOL = 1e-6
#: _Z_CLEARANCE bounds |z| of a sharing-locus center from below, relative to
#: scale, and never below SampleRegion's default min_abs_z (an absolute
#: length): it keeps O off the plane of the triangle. Value unexplained.
#: Mutants x10 and x0.1 change which scenes are drawn, and only the golden
#: campaign reports and the pinned analyze sha256 catch them.
_Z_CLEARANCE = 0.1
#: _CYLINDER_Z_CLEARANCE: the same bound for a danger-cylinder center. Value
#: unexplained; SceneConfig.z_range starts at the same 0.15 for random
#: scenes. Mutants x10 and x0.1: only the golden oracle points catch them.
_CYLINDER_Z_CLEARANCE = 0.15


def _locus_scene(rng, label: SharingLabel | None, *,
                 require_condition: bool = True,
                 require_positive_mate: bool = False) -> Scene | None:
    """Scene with the center sampled on the plane/skew locus of the label,
    or on the danger cylinder when label is None.

    Excludes the cocyclic band and small |z|; on a sharing locus it also
    excludes the danger-cylinder band and (optionally) requires the mate
    condition of the label and a strictly positive mate of the true
    solution. None when the rejection budget runs out.
    """
    drawn = _locus_draw(rng, label, require_condition=require_condition,
                        require_positive_mate=require_positive_mate)
    return None if drawn is None else drawn[0]


def _locus_draw(rng, label: SharingLabel | None, *,
                require_condition: bool = True,
                require_positive_mate: bool = False):
    """(scene, locus) of _locus_scene: its scene and the locus its center
    was sampled on, or None; the campaigns test membership on that locus
    rather than build it again."""
    z_clear = _CYLINDER_Z_CLEARANCE if label is None else _Z_CLEARANCE
    # SampleRegion's defaults: the floor of |z|, a length, and the budget
    min_abs_z, budget = (loci.SampleRegion.min_abs_z,
                         loci.SampleRegion.max_rejects)
    for _ in range(200):
        tri = random_scene(rng).triangle
        scale = tri.scale
        cyl = loci.danger_cylinder(canonical_frame(tri))
        region = loci._new_region(1.5 * scale, 2.0 * scale,
                                  max(min_abs_z, z_clear * scale), budget)
        locus = cyl if label is None else loci.sharing_locus(tri, label)
        try:
            O = loci.sample_locus(locus, rng, region)
        except SamplingFailureError:
            continue
        if label is not None and abs(loci.cylinder_membership(cyl, O)) \
                < _CYL_CLEARANCE * scale:
            continue
        scene = _scene_at(tri, O)
        if scene is None or label is not None and (
                (require_condition
                 and not sharing.mate_condition(tri, scene.angles, label))
                or (require_positive_mate and not _mate_positive(
                    true_triplet(scene), scene.angles, label))):
            continue
        return scene, locus
    return None


def _mate_positive(truth: SolutionTriplet, angles: ViewAngles,
                   label: SharingLabel) -> bool:
    """Whether the mate of the true solution (true_triplet) has positive
    distances, which the angle-form mate condition does not guarantee in
    obtuse configurations."""
    s1, s2, s3 = sharing.cycle3(truth.values, label.shift)
    _, cb, cg = sharing.cycle3(angles.cosines, label.shift)
    if label.kind == "side":
        return 2.0 * cg * s2 - s1 > 0.0
    return 2.0 * cg * s1 - s2 > 0.0 and 2.0 * cb * s1 - s3 > 0.0


def _solved(scene: Scene, cluster_tol: float = conics.CLUSTER_TOL):
    """The scene's solution set, or None when its conic pencil is degenerate."""
    try:
        return solver.solve(scene.triangle, scene.angles,
                            cluster_tol=cluster_tol)
    except DegeneratePencilError:
        return None


def _trials(rep: CampaignReport, seed: int, labels, sample, solve=True,
            cluster_tol: float = conics.CLUSTER_TOL):
    """The forward loop: (t, label, (scene, locus), solution set) per
    usable trial.

    Trial t draws its scene, and the locus of its center or None, by
    sample(rng, labels[t % len(labels)]), as _locus_draw does. A trial
    whose scene cannot be drawn or, with solve, cannot be solved counts as
    skipped; without solve the solution set is None.
    """
    for t, rng in enumerate(_trial_rngs(seed, rep.trials)):
        label = labels[t % len(labels)]
        drawn = sample(rng, label)
        sol = _solved(drawn[0], cluster_tol) \
            if solve and drawn is not None else None
        if drawn is None or solve and sol is None:
            rep.skipped += 1
        else:
            yield t, label, drawn, sol


def _converse(rep: CampaignReport, seed: int, n: int, offenders,
              found: str = "pairs"):
    """Random scan: every detected instance must satisfy the claim.

    offenders(scene) gives one reason per detected instance, empty when it
    holds, or None when the scene cannot be solved.
    """
    conv_found = conv_fail = 0
    for t, rng in enumerate(_trial_rngs(seed + 1, n)):
        for reason in offenders(random_scene(rng)) or ():
            conv_found += 1
            if reason:
                conv_fail += 1
                rep.failures.append((("converse", t), reason))
    rep.details.update({"converse_trials": n,
                        f"converse_{found}_found": conv_found,
                        "converse_failures": conv_fail})


def _campaign_sharing_nsc(labels, rep: CampaignReport, tol: float, seed: int,
                          nconv: int):
    sample = partial(_locus_draw, require_positive_mate=True)
    for t, label, (scene, locus), sol in _trials(rep, seed, labels, sample):
        cls = sharing.classify_solution_set(sol, scene.triangle,
                                            scene.angles, tol=tol)
        hit = [p for p in cls.pairs if p[2] == label]
        if not hit:
            rep.record(False, t, f"no {label.name} pair found")
            continue
        i, j, _, resid = min(hit, key=lambda p: p[3])
        # both mirror centers of every pair member must sit on the locus
        off = any(abs(loci.membership(locus, O)) > _LOCUS_TOL * scene.scale
                  for idx in (i, j)
                  for O in solver.recover_centers(sol.solutions[idx].triplet,
                                                  scene.triangle))
        rep.record(resid < tol and not off, t,
                   "pair center off locus" if off else "", residual=resid)

    def offenders(scene):
        sol = _solved(scene)
        if sol is None:
            return None
        cls = sharing.classify_solution_set(sol, scene.triangle, scene.angles,
                                            tol=tol)
        gaps = [abs(loci.membership(loci.sharing_locus(scene.triangle, p[2]),
                                    scene.center))
                for p in cls.pairs if p[2].kind == labels[0].kind]
        return [f"center off locus ({d:g})" if d > _LOCUS_TOL * scene.scale
                else "" for d in gaps]

    _converse(rep, seed, nconv, offenders)


#: _REPEAT_GAP: the danger_repeat campaign's cluster_tol (relative to 1 + |u|
#: and 1 + |v|) and the gap within which _distinct_quartic_roots merges the
#: unit-norm eliminant's complex roots (absolute). Measured: the two points of
#: a double root of analyze_locus seed 733 (input cylinder#790) lie 9.4e-5
#: apart, which only this gap merges (CHANGES.md); the campaign's merges reach
#: 1.1e-6 at seed 0. Mutants: x10 fails criterion 6, x0.1
#: test_danger_repeat_root_sharing_u_with_another.
_REPEAT_GAP = 1e-4
#: _OFF_CYLINDER_TOL bounds the distance from the danger cylinder of a scene
#: with a repeated root in the converse scan, relative to scale (random scenes
#: span scale 0.4-4.2). Value unexplained: no converse scan has found a
#: repeated root (the plan at seed 0, the golden reports), so no run reaches
#: it; the campaign draws its own scenes, so no hand-made input does.
#: Mutants x10 and x0.1: not caught.
_OFF_CYLINDER_TOL = 1e-4


def _distinct_quartic_roots(scene: Scene, gap: float) -> int:
    """Number of distinct complex roots of the eliminant, clustered at gap.

    Two distinct solutions can share u but not both u and v, so a count
    below 3 in u is taken again on the eliminant in v. The roots are the
    eigenvalues of the unit-norm eliminant's companion matrix.
    """
    pair = conics.build_conics(scene.triangle.sides, scene.angles)
    F1, F2 = pair.C1.scaled(), pair.C2.scaled()
    for _ in range(2):
        r = conics.resultant_in_u(F1, F2)
        r = np.trim_zeros(r / np.max(np.abs(r)), "b")
        n = len(r) - 1
        m = np.eye(n, k=-1)
        m[:, -1] = -r[:n] / r[n]
        clusters: list[complex] = []
        for z in sorted(np.linalg.eigvals(m).tolist(),
                        key=lambda w: (w.real, w.imag)):
            if not any(abs(z - c) <= gap for c in clusters):
                clusters.append(z)
        if len(clusters) >= 3:
            break
        F1, F2 = (conics.Conic(F.c_uu, F.c_uv, F.c_vv, F.c_v, F.c_u, F.c_1)
                  for F in (F1, F2))  # u and v swapped
    return len(clusters)


def _campaign_danger_repeat(rep: CampaignReport, tol: float, seed: int,
                            nconv: int):
    for t, _, (scene, _), sol in _trials(rep, seed, (None,), _locus_draw,
                                         cluster_tol=_REPEAT_GAP):
        has_double = any(s.repeated for s in sol.solutions)
        # one coincidence degenerates the quartic's 4 roots to 3 distinct
        # (over the complex numbers: the untouched pair may be conjugate)
        n_distinct = _distinct_quartic_roots(scene, _REPEAT_GAP)
        rep.record(has_double and n_distinct == 3, t,
                   f"distinct_roots={n_distinct} double={has_double}")

    def offenders(scene):
        sol = _solved(scene, cluster_tol=_REPEAT_GAP)
        if sol is None:
            return None
        if not any(s.repeated for s in sol.solutions):
            return []
        cyl = loci.danger_cylinder(canonical_frame(scene.triangle))
        off = abs(loci.cylinder_membership(cyl, scene.center)) \
            > _OFF_CYLINDER_TOL * scene.scale
        return ["repeated root off cylinder" if off else ""]

    _converse(rep, seed, nconv, offenders, found="repeated")


#: _COMPANION_TOL: the companion campaign's line tolerance for its pairs and
#: its bound on each family's identity and factorization residuals, both
#: normalized. Value unexplained: the plan (seed 0, 1185 four-solution scenes)
#: finds no pair; criterion 8's 50 conditioned scenes reach 4.6e-16 in those
#: residuals and 2.6e-13 in the line's, under its own 1e-9. The campaign
#: draws its own scenes. Mutants x10 and x0.1: not caught.
_COMPANION_TOL = 1e-9


def _campaign_companion(rep: CampaignReport, tol: float, seed: int,
                        nconv: int):
    four = with_pairs = 0
    sample = lambda rng, _: (random_scene(rng), None)
    for t, _, (scene, _), sol in _trials(rep, seed, (None,), sample):
        if sol.count != 4:
            rep.skipped += 1
            continue
        four += 1
        report = sharing.companion_check(sol, scene.triangle, scene.angles,
                                         tol=_COMPANION_TOL)
        active = [f for f in report.families if f.side_pairs or f.point_pairs]
        if not active:
            rep.passes += 1
            continue
        with_pairs += 1
        worst = max(max(f.identity_residual, f.factorization_residual)
                    for f in active)
        rep.record(report.companion_ok and worst <= _COMPANION_TOL, t,
                   "companion structure violated", residual=worst)
    rep.details.update(four_solution_scenes=four, scenes_with_pairs=with_pairs)


#: _MATE_INVERSE_TOL bounds the gap between s and the mate of its mate,
#: relative to scale. Value unexplained: both construct campaigns reach
#: 3.1e-16 at seed 0; the campaign draws its own scenes. Mutants x10 and
#: x0.1: not caught.
_MATE_INVERSE_TOL = 1e-12


def _mate_check(scene: Scene, s: SolutionTriplet, mate: SolutionTriplet,
                label: SharingLabel, tol: float) -> tuple[float, str]:
    """(constraint residual, failure reason or "") of the mate of s.

    The mate must solve the scene (solver.CONSTRAINT_TOL), lie on the
    label's line (tol; construct_mate raises otherwise) and map back to s
    under the same construction (_MATE_INVERSE_TOL of scale).
    """
    tri, angles = scene.triangle, scene.angles
    res = max(abs(r) for r in solver.constraint_residuals(mate, tri.sides,
                                                          angles))
    try:
        back = sharing.construct_mate(mate, tri, angles, label, line_tol=tol)
    except NotOnConstraintLineError:
        return res, f"mate off the {label.kind} line"
    inv = max(abs(x - y) / scene.scale
              for x, y in zip(back.values, s.values)) if back else math.inf
    ok = res <= solver.CONSTRAINT_TOL and inv <= _MATE_INVERSE_TOL
    return res, "" if ok else f"res={res:g} inv={inv:g}"


def _campaign_construct_side(rep: CampaignReport, tol: float, seed: int,
                             nconv: int):
    angle_cond_no_mate = 0
    for t, label, (scene, _), _ in _trials(rep, seed, sharing.SIDE_LABELS,
                                           _locus_draw, solve=False):
        s = true_triplet(scene)
        # exact positivity of the reflected distance decides mate emission;
        # the angle-form condition can disagree in obtuse configurations,
        # which is tracked separately
        mate = sharing.construct_mate(s, scene.triangle, scene.angles, label,
                                      line_tol=tol)
        if (mate is not None) != _mate_positive(s, scene.angles, label):
            rep.record(False, t, "mate emission disagrees with positivity")
        elif mate is None:
            angle_cond_no_mate += 1
            rep.record(True, t)
        else:
            res, reason = _mate_check(scene, s, mate, label, tol)
            rep.record(not reason, t, reason, residual=res)
    rep.details.update(angle_condition_without_mate=angle_cond_no_mate)


#: _DEAD_BAND: the construct_point campaign skips an on-line solution whose
#: s1 is within it of b or c, relative to scale. Value unexplained: the 460
#: on-line solutions of the plan (seed 0) lie 3.5e-4 of scale or more from
#: both, so no run reaches it, and the campaign draws its own scenes.
#: Mutants x10 and x0.1: not caught.
_DEAD_BAND = 1e-9


def _campaign_construct_point(rep: CampaignReport, tol: float, seed: int,
                              nconv: int):
    equiv_checked = componentwise_mismatch = 0
    sample = partial(_locus_draw, require_condition=False)
    for t, label, (scene, _), sol in _trials(rep, seed, sharing.POINT_LABELS,
                                             sample):
        tri = scene.triangle
        reason, res = "", None
        # the angle-form and distance-form mate conditions must agree jointly
        # on every on-line solution; the componentwise forms can disagree in
        # oblique configurations and are only tallied
        k = label.shift
        _, b_k, c_k = sharing.cycle3(tri.sides, k)
        _, cb, cg = sharing.cycle3(scene.angles.cosines, k)
        _, cosB, cosC = sharing.cycle3(interior_angles(tri), k)
        for s in sol.solutions:
            r = sharing.sharing_residual(s.ratio, tri, scene.angles, label)
            if abs(r) > tol:
                continue
            s1 = sharing.relabel_triplet(s.triplet, k).s1
            # dead band against boundary float noise
            if min(abs(s1 - b_k), abs(s1 - c_k)) < _DEAD_BAND * scene.scale:
                continue
            equiv_checked += 1
            if (cb > cosB and cg > cosC) != (s1 > c_k and s1 > b_k):
                reason = "condition equivalence violated"
            if (cb > cosB) != (s1 > c_k) or (cg > cosC) != (s1 > b_k):
                componentwise_mismatch += 1
        if sharing.mate_condition(tri, scene.angles, label):
            s = true_triplet(scene)
            mate = sharing.construct_mate(s, tri, scene.angles, label,
                                          line_tol=tol)
            if mate is None:
                reason = "mate not emitted under the theorem hypothesis"
            else:
                res, why = _mate_check(scene, s, mate, label, tol)
                reason = why or reason
        rep.record(not reason, t, reason, residual=res)
    rep.details.update(equivalence_checks=equiv_checked,
                       componentwise_mismatches=componentwise_mismatch)


#: theorem id -> (campaign(report, tol, seed, converse trials), and its
#: acceptance-scale plan: trials, converse trials, 0 without a converse scan)
_CAMPAIGNS = {
    "side_nsc": (partial(_campaign_sharing_nsc, sharing.SIDE_LABELS),
                 1500, 2000),
    "point_nsc": (partial(_campaign_sharing_nsc, sharing.POINT_LABELS),
                  1500, 2000),
    "companion": (_campaign_companion, 10000, 0),
    "danger_repeat": (_campaign_danger_repeat, 200, 200),
    "construct_side": (_campaign_construct_side, 300, 0),
    "construct_point": (_campaign_construct_point, 300, 0),
}
THEOREM_IDS = tuple(_CAMPAIGNS)


def verify_theorem(theorem_id: str, trials: int | None = None,
                   tol: float = sharing.LINE_TOL, seed: int = 0,
                   converse_trials: int | None = None) -> CampaignReport:
    """Run the per-theorem protocol and return its statistics.

    trials None runs the campaign's plan; converse_trials None runs the
    plan's converse count with it, and as many as trials otherwise.
    """
    if theorem_id not in _CAMPAIGNS:
        raise ValueError(f"unknown theorem id: {theorem_id!r}")
    campaign, *plan = _CAMPAIGNS[theorem_id]
    trials, nconv = plan if trials is None else (trials, trials)
    nconv = nconv if converse_trials is None else converse_trials
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if nconv < 0:
        raise ValueError("converse_trials must be >= 0")
    t0 = time.perf_counter()
    rep = CampaignReport(theorem_id=theorem_id, trials=trials)
    campaign(rep, tol, seed, nconv)
    rep.wall_time = time.perf_counter() - t0
    # forward trials by number, then converse trials ("converse", t) by t
    rep.failures.sort(key=lambda f: (1, f[0][1]) if isinstance(f[0], tuple)
                      else (0, f[0]))
    return rep
