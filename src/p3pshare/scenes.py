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
                       _diff, _dot, _new_triplet, _record, _triangle,
                       canonical_frame, cocyclic_degeneracy, interior_angles,
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
        # the vertices' x and y, rng.uniform(-h, h, size=(3, 2))'s values
        # and end state: uniform is -h + (h - -h) * u on random's u
        x0, y0, x1, y1, x2, y2 = [-h + (h - -h) * u
                                  for u in rng.random(6).tolist()]
        try:
            tri = _triangle((x0, y0, 0.0), (x1, y1, 0.0), (x2, y2, 0.0))
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

    def __post_init__(self):
        if not (0.0 < self.u_max < math.inf and self.n >= 2):
            raise ValueError(f"need a finite u_max > 0 and n >= 2: {self}")


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


def _up(x: float) -> float:
    """The next float above x: at least every real number that rounds to x."""
    return math.nextafter(x, math.inf)


def _centred(lo, hi):
    """(c, h): the float midpoint of [lo, hi], 0 < lo <= hi, which lies in
    it, and its largest distance to an end rounded outward, so that
    c - h <= lo and hi <= c + h hold exactly."""
    c = 0.5 * (lo + hi)
    return c, np.nextafter(np.maximum(hi - c, c - lo), np.inf)


def _one_signed(F: conics.Conic, T, cu, hu, cv, hv) -> np.ndarray:
    """Mask of the boxes of centres (cu, cv) and half-widths (hu, hv), from
    _centred, on whose grid nodes the float value F(u, v) keeps one strict
    sign. F's coefficients may be arrays that broadcast against the boxes.
    The nodes lie in (0, u_max]^2, every hu and hv is at most h, and T is,
    per conic, a float at least Q + margin: Q = (|c_uu| + |c_uv| + |c_vv|)
    h^2 and margin = 8 (eps S + 2 eta W), S the computed sum of F's
    absolute terms at (u_max, u_max) and W = 1 + 2 u_max.

    About the centre c, exactly F(c + d) = F(c) + F_u du + F_v dv +
    c_uu du^2 + c_uv du dv + c_vv dv^2, so on the box F is within |F_u| hu
    + |F_v| hv + Q of F(c) (the centred form), and the box is one-signed
    when the computed |F(c)| - (|F_u| hu + |F_v| hv) exceeds T. F(c) is
    (c_vv cv + c_uv cu + c_v) cv + (c_uu cu + c_u) cu + c_1; F_v and F_u
    add c_vv cv and c_uu cu + c_uv cv to its brackets. For u, v > 0 each
    monomial grows with u and v, so S bounds the sum of the absolute terms
    at every node. In units of roundoff (eps / 2) times S, the margin is 16:
      - 7 for the node value: Conic.__call__ forms each term with at most
        two products and adds the six with five additions;
      - 6 for F(c) and the gradient term: a monomial of F(c) meets at most
        six roundings, one of F_u or F_v four, then a product and an
        addition. That is 6 units of their sums of absolute terms, which
        add up to at most the sum of F's at c + h, and c + h <= u_max
        (1 + 4 units);
      - 3 spare for terms in eps^2 S: from c + h, from the 7 units by which
        S may round and from the errors' own rounding. Q, margin and T are
        rounded up, and the last subtraction adds nothing: rounding is
        monotone and T is a float.
    Under gradual underflow a product may instead err by up to eta / 2
    (eta = smallest_subnormal; sums of subnormals are exact), which a later
    factor u, v, hu or hv, each at most u_max, scales. A node then errs by
    at most 5/2 W eta (eight products, of which v scales two and u one),
    F(c) by W eta (five products, three scaled) and the gradient term by
    3/2 W eta (three product errors in each gradient, scaled by hu or hv,
    and two products): 5 W eta, within the margin's 16 W eta.
    """
    a, b = F.c_vv * cv, F.c_uv * cu
    d = F.c_uu * cu
    p = a + b + F.c_v
    q = d + F.c_u
    f = p * cv + q * cu + F.c_1
    r = abs(q + d + F.c_uv * cv) * hu + abs(p + a) * hv
    return abs(f) - r > T


def _box_tables(t: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The quantities of the box scan that depend on the grid alone, by a
    box's low node i (0 <= i < m = len(t) - 1), high nodes clipped to t[m]:
      - per side of _BOX_CELLS: a (2, m) table whose column i is the (c, h)
        = _centred(t[i], t[i + side]) of the box of side cells on a side;
        the table's largest h (0.0 when it is empty); and the offsets
        (di, dj), row-major, from the low node of a box of the previous
        side (m at the first) to those of the boxes of this side that
        tile it;
      - a (s + 1, m) table whose column i is the nodes t[i], ..., t[i + s]
        of a box of the last side s, which the scan visits node by node.
    Each array is read-only."""
    m = len(t) - 1
    i = np.arange(max(m, 0))
    levels = []
    for prev, side in zip((m, *_BOX_CELLS), _BOX_CELLS):
        table = np.stack(_centred(t[i], t[np.minimum(i + side, m)]))
        off = np.arange(0, prev, side)
        sub = off.repeat(len(off)), np.tile(off, len(off))
        for x in (table, *sub):
            x.flags.writeable = False
        levels.append((table, float(table[1].max(initial=0.0)), sub))
    nodes = t[np.minimum(np.arange(_BOX_CELLS[-1] + 1)[:, None] + i, m)]
    nodes.flags.writeable = False
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
    the sign scan of the full grid. Each box's centre, half-widths and
    nodes are read from tables, t's _box_tables, built here when not given;
    the bound's margin is built once per conic, its Q once per level.
    """
    m = len(t) - 1
    if m < 1:
        return np.zeros((0, 2), dtype=np.intp)
    levels, nodes = _box_tables(t) if tables is None else tables
    # a row per term of Conic.terms, a column per conic
    rows = np.array([F1.terms, F2.terms]).T
    F = conics.Conic(*rows.reshape(6, 2, 1))
    u_max = float(t[m])
    W = _up(1.0 + 2.0 * u_max)
    bounds = []
    for G in (F1, F2):
        A = conics.Conic(*map(abs, G.terms))
        margin = 8.0 * _up(_up(_EPS * A(u_max, u_max)) + _up(2.0 * _ETA * W))
        bounds.append((_up(_up(A.c_uu + A.c_uv) + A.c_vv), margin))
    bi = bj = np.zeros(1, dtype=np.intp)            # the boxes' low nodes
    for table, h, (di, dj) in levels:
        bi, bj = (bi[:, None] + di).ravel(), (bj[:, None] + dj).ravel()
        inside = (bi < m) & (bj < m)
        bi, bj = bi[inside], bj[inside]
        T = np.array([[_up(_up(_up(s2 * h) * h) + margin)]
                      for s2, margin in bounds])
        signed = _one_signed(F, T, *table.take(bi, axis=1),
                             *table.take(bj, axis=1))
        keep = ~(signed[0] | signed[1])
        bi, bj = bi[keep], bj[keep]
    # signs (2, s+1, s+1, k): a box per last axis keeps inner loops long
    u = nodes.take(bi, axis=1)[:, None]
    v = nodes.take(bj, axis=1)
    S = conics.Conic(*rows.reshape(6, 2, 1, 1, 1))(u, v) > 0.0
    S00 = S[:, :-1, :-1]
    mixed = ((S00 != S[:, 1:, :-1]) | (S00 != S[:, :-1, 1:])
             | (S00 != S[:, 1:, 1:]))
    di, dj, k = np.nonzero(mixed[0] & mixed[1])
    cells = np.stack([bi[k] + di, bj[k] + dj], axis=1)
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
    keep = (res <= _REFINE_TOL * (1.0 + u * u + v * v)) & (u > 0.0) & (v > 0.0)
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


#: numpy's SeedSequence hash constants: its mix (INIT_A, MULT_A, MIX_L,
#: MIX_R) and generate_state (INIT_B, MULT_B). NEP 19 freezes the
#: algorithm for stream compatibility.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, start: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = start, ..., start + n - 1, as
    uint32: the hash constant after k hash calls. A call xors its word with
    constant k and multiplies it by constant k + 1."""
    return np.array([init * pow(mult, k, 1 << 32) & 0xFFFFFFFF
                     for k in range(start, start + n)], dtype=np.uint32)


#: generate_state's hash constants for its 8 words, and the last multiplier
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, 9)


@lru_cache(maxsize=1)
def _child_state_type() -> type:
    """A seed sequence type whose generate_state returns one precomputed
    row: PCG64 asks it for generate_state(4, uint64) and reads the row's
    raw buffer, so the row must be a C-contiguous (4,) uint64 array.
    Defined on first use: numpy loads np.random lazily, and a class that
    subclasses ISeedSequence at import would load it with the package."""

    class ChildState(np.random.bit_generator.ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return ChildState


def _trial_rngs(seed: int, n: int):
    """One generator per trial, in the state default_rng(s) gives child s
    of SeedSequence(seed).spawn(n), with its draws.

    Child t's entropy is the root's, padded to 4 words, and one more word,
    t; the root's pool already holds the rest. So t is hash-mixed into
    the root's 4 pool words, the hash constant carried on from the root's
    16 + 4 * max(0, words - 4) hash calls, and generate_state(4, uint64)
    cycles that pool over 8 uint32 words, paired little-endian: one array
    pass for all n children, in place of spawn's SeedSequence per child.
    SeedSequence(seed) still validates the seed: a negative one raises
    ValueError. Each row of the (n, 4) result is C-contiguous, as PCG64
    reads it (_child_state_type).
    """
    root = np.random.SeedSequence(seed)
    words = max(1, -(-int(root.entropy).bit_length() // 32))
    mix = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(0, words - 4), 5)
    v = np.arange(n, dtype=np.uint32)[:, None] ^ mix[:4]
    v *= mix[1:]
    v ^= v >> 16
    pool = _MIX_L * root.pool - _MIX_R * v
    pool ^= pool >> 16
    state = np.hstack((pool, pool)) ^ _STATE_CONSTS[:8]
    state *= _STATE_CONSTS[1:]
    state ^= state >> 16
    rows = state.astype("<u4", copy=False).view("<u8").astype(np.uint64)
    child = _child_state_type()
    return [np.random.Generator(np.random.PCG64(child(row))) for row in rows]


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


#: theorem id -> (campaign(report, tol, seed, converse trials), its
#: acceptance-scale plan: trials, converse trials, 0 without a converse scan,
#: and whether the campaign reads tol)
_CAMPAIGNS = {
    "side_nsc": (partial(_campaign_sharing_nsc, sharing.SIDE_LABELS),
                 1500, 2000, True),
    "point_nsc": (partial(_campaign_sharing_nsc, sharing.POINT_LABELS),
                  1500, 2000, True),
    "companion": (_campaign_companion, 10000, 0, False),
    "danger_repeat": (_campaign_danger_repeat, 200, 200, False),
    "construct_side": (_campaign_construct_side, 300, 0, True),
    "construct_point": (_campaign_construct_point, 300, 0, True),
}
THEOREM_IDS = tuple(_CAMPAIGNS)
#: the ids whose campaign reads verify_theorem's tol, and converse_trials
TOL_IDS = tuple(tid for tid, c in _CAMPAIGNS.items() if c[3])
CONVERSE_IDS = tuple(tid for tid, c in _CAMPAIGNS.items() if c[2])


def verify_theorem(theorem_id: str, trials: int | None = None,
                   tol: float = sharing.LINE_TOL, seed: int = 0,
                   converse_trials: int | None = None) -> CampaignReport:
    """Run the per-theorem protocol and return its statistics.

    trials None runs the campaign's plan; converse_trials None runs the
    plan's converse count with it, and as many as trials otherwise. A
    negative seed, which SeedSequence rejects, raises ValueError before
    any work.
    """
    if theorem_id not in _CAMPAIGNS:
        raise ValueError(f"unknown theorem id: {theorem_id!r}")
    campaign, *plan, _ = _CAMPAIGNS[theorem_id]
    trials, nconv = plan if trials is None else (trials, trials)
    nconv = nconv if converse_trials is None else converse_trials
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if nconv < 0:
        raise ValueError("converse_trials must be >= 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    t0 = time.perf_counter()
    rep = CampaignReport(theorem_id=theorem_id, trials=trials)
    campaign(rep, tol, seed, nconv)
    rep.wall_time = time.perf_counter() - t0
    # forward trials by number, then converse trials ("converse", t) by t
    rep.failures.sort(key=lambda f: (1, f[0][1]) if isinstance(f[0], tuple)
                      else (0, f[0]))
    return rep
