"""Random scenes, the grid oracle, and theorem-verification campaigns."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import conics, loci, sharing, solver
from .errors import (DegenerateAngleError, DegenerateInputError,
                     DegeneratePencilError, GenerationFailureError,
                     SamplingFailureError)
from .geometry import (ControlTriangle, RatioPair, SolutionTriplet, ViewAngles,
                       canonical_frame, cocyclic_degeneracy,
                       view_angles_from_center)
from .sharing import SharingLabel


@dataclass(frozen=True)
class SceneConfig:
    """Bounds and degeneracy clearances for random scene generation."""

    vertex_half_extent: float = 1.5
    min_area: float = 0.2
    min_side: float = 0.4
    center_xy: float = 2.0
    z_range: tuple[float, float] = (0.15, 2.5)
    cos_margin: float = 1e-6
    cos_bg_min: float = 1e-3
    cocyclic_min: float = 1e-3
    max_rejects: int = 2000


@dataclass(frozen=True, eq=False)
class Scene:
    triangle: ControlTriangle
    center: np.ndarray
    angles: ViewAngles
    seed: int | None = None

    @property
    def scale(self) -> float:
        return self.triangle.scale


def scene_from_center(tri: ControlTriangle, O, seed=None) -> Scene:
    return Scene(triangle=tri, center=np.asarray(O, dtype=float),
                 angles=view_angles_from_center(tri, O), seed=seed)


def _scene_at(tri: ControlTriangle, O, cfg: SceneConfig,
              seed: int | None = None) -> Scene | None:
    """The scene seen from O; None inside a degeneracy clearance of cfg."""
    if cocyclic_degeneracy(tri, O) < cfg.cocyclic_min:
        return None
    try:
        scene = scene_from_center(tri, O, seed)
    except (DegenerateInputError, DegenerateAngleError):
        return None
    cs = scene.angles.cosines
    if any(abs(x) >= 1.0 - cfg.cos_margin for x in cs) \
            or abs(cs[1]) <= cfg.cos_bg_min or abs(cs[2]) <= cfg.cos_bg_min:
        return None
    return scene


def random_scene(rng: np.random.Generator,
                 config: SceneConfig = SceneConfig(),
                 seed: int | None = None) -> Scene:
    """A non-degenerate scene; deterministic given the generator state."""
    if config.z_range[0] >= config.z_range[1] \
            or config.z_range[0] < config.cocyclic_min:
        raise GenerationFailureError("empty feasible region")
    h = config.vertex_half_extent
    for _ in range(config.max_rejects):
        pts = rng.uniform(-h, h, size=(3, 2)).tolist()
        try:
            tri = ControlTriangle.from_points(*((x, y, 0.0) for x, y in pts))
        except DegenerateInputError:
            continue
        if min(tri.sides) < config.min_side \
                or 0.5 * tri.area2 < config.min_area:
            continue
        z = loci.uniform(rng, *config.z_range)
        if rng.random() < 0.5:
            z = -z
        O = np.array([loci.uniform(rng, -config.center_xy, config.center_xy),
                      loci.uniform(rng, -config.center_xy, config.center_xy), z])
        scene = None if abs(z) < 0.1 else _scene_at(tri, O, config, seed)
        if scene is not None:
            return scene
    raise GenerationFailureError("rejection budget exceeded")


@dataclass(frozen=True)
class GridConfig:
    """Grid oracle bounds: u, v in (0, u_max], n x n nodes."""

    u_max: float = 20.0
    n: int = 2000


#: the oracle's Newton residual gate, relative to 1 + u^2 + v^2
_REFINE_TOL = 1e-10
#: relative distance within which two oracle points merge: far below a cell
_MERGE_TOL = 1e-5

#: box sides, in grid cells, of the oracle's coarse-to-fine exclusion
_BOX_CELLS = (128, 32, 8)


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


def _one_signed(F: conics.Conic, ulo, uhi, vlo, vhi) -> np.ndarray:
    """Mask of the boxes [ulo, uhi] x [vlo, vhi] (0 < lo < hi) on whose grid
    nodes the float value F(u, v) keeps one strict sign. The coefficients
    of F may be arrays that broadcast against the boxes.

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
    (cu, hu), (cv, hv) = _centred(ulo, uhi), _centred(vlo, vhi)
    fu = 2.0 * F.c_uu * cu + F.c_uv * cv + F.c_u
    fv = 2.0 * F.c_vv * cv + F.c_uv * cu + F.c_v
    r = (abs(fu) * hu + abs(fv) * hv + abs(F.c_uu) * hu * hu
         + abs(F.c_uv) * hu * hv + abs(F.c_vv) * hv * hv)
    fi = np.finfo(float)
    S = conics.Conic(*map(abs, F.terms))(uhi, vhi)
    W = 1.0 + uhi + vhi
    return abs(F(cu, cv)) - r > 8.0 * (fi.eps * S
                                       + 2.0 * fi.smallest_subnormal * W)


def _candidate_cells(F1: conics.Conic, F2: conics.Conic,
                     t: np.ndarray) -> np.ndarray:
    """Cells (i, j), spanning nodes t[i], t[i + 1] in u and t[j], t[j + 1]
    in v, where both conics change sign among the four corners; row-major.

    The cells are split into boxes of _BOX_CELLS[0] cells on a side; a box
    is dropped when either conic keeps one strict sign on all its nodes
    (_one_signed), and survivors split into boxes of the next size. The last
    survivors are scanned node by node, so the cells are exactly those of
    the sign scan of the full grid.
    """
    m = len(t) - 1
    boxes, side = np.zeros((1, 2), dtype=np.intp), m
    F = _stacked(F1, F2, 1)
    for nxt in _BOX_CELLS:
        off = np.arange(0, side, nxt)
        sub = np.stack([off.repeat(len(off)), np.tile(off, len(off))], 1)
        boxes = (boxes[:, None] + sub).reshape(-1, 2)
        boxes = boxes[(boxes < m).all(axis=1)]
        side = nxt
        ulo, vlo = t[boxes].T
        uhi, vhi = t[np.minimum(boxes + side, m)].T
        boxes = boxes[~_one_signed(F, ulo, uhi, vlo, vhi).any(axis=0)]
    r = np.arange(side + 1)
    u = t[np.minimum(boxes[:, 0, None, None] + r[:, None], m)]  # (k, s+1, 1)
    v = t[np.minimum(boxes[:, 1, None, None] + r, m)]           # (k, 1, s+1)
    S = _stacked(F1, F2, 3)(u, v) > 0.0                     # (2, k, s+1, s+1)
    mixed = ~((S[..., :-1, :-1] == S[..., 1:, :-1])
              & (S[..., :-1, :-1] == S[..., :-1, 1:])
              & (S[..., :-1, :-1] == S[..., 1:, 1:]))
    k, di, dj = np.nonzero(mixed.all(axis=0))
    cells = boxes[k] + np.stack([di, dj], axis=1)
    cells = cells[(cells < m).all(axis=1)]
    return cells[np.lexsort((cells[:, 1], cells[:, 0]))]


def brute_force_solutions(sides, angles: ViewAngles,
                          grid: GridConfig = GridConfig()) -> list[RatioPair]:
    """Independent conic-intersection oracle by sign-change grid scan.

    Independent of the pencil method of intersect_conics: candidate cells
    of the n x n grid are those where both conics change sign among the four
    corners, found by coarse-to-fine exclusion of boxes on which a conic
    provably keeps one sign (_candidate_cells); each is refined by Newton
    iteration and gated on residual.

    The grid's first nodes are at u, v = u_max / n, so a root with u or v
    below that lies in no cell and is not found: 0.01 at the defaults,
    where the solver finds a root at u = 0.00335 in the sixth scene of the
    oracle_mesh benchmark at seed 53.
    """
    pair = conics.build_conics(sides, angles)
    F1 = pair.C1.scaled()
    F2 = pair.C2.scaled()
    t = np.linspace(grid.u_max / grid.n, grid.u_max, grid.n)
    cells = _candidate_cells(F1, F2, t)
    found: list[tuple[float, float]] = []
    t = t.tolist()
    for i, j in cells.tolist():
        u0 = 0.5 * (t[i] + t[i + 1])
        v0 = 0.5 * (t[j] + t[j + 1])
        uu, vv, res = conics.newton_polish(F1, F2, u0, v0)
        if res > _REFINE_TOL * (1.0 + uu * uu + vv * vv):
            continue
        if uu <= 0.0 or vv <= 0.0:
            continue
        found.append((uu, vv))
    out: list[RatioPair] = []
    for uu, vv in sorted(found):
        if any(abs(uu - p.u) <= _MERGE_TOL * (1.0 + abs(p.u))
               and abs(vv - p.v) <= _MERGE_TOL * (1.0 + abs(p.v))
               for p in out):
            continue
        out.append(RatioPair(u=uu, v=vv))
    return out


def true_triplet(scene: Scene) -> SolutionTriplet:
    """Distances from the scene center: the ground-truth solution."""
    rays = [p - scene.center for p in scene.triangle.points]
    return SolutionTriplet(*(math.sqrt(r.dot(r)) for r in rays))


# ---------------------------------------------------------------------------
# campaigns: one forward loop (_trials) over scenes from one locus sampler
# (_locus_scene) and one solve-or-skip (_solved), plus one converse scan
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
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


_CYL_CLEARANCE = 1e-2  # relative band around the danger cylinder (Sun's lines)
#: relative distance within which a center counts as on a sharing locus
_LOCUS_TOL = 1e-6


def _locus_scene(rng, label: SharingLabel | None,
                 cfg: SceneConfig = SceneConfig(),
                 require_condition: bool = True,
                 require_positive_mate: bool = False) -> Scene | None:
    """Scene with the center sampled on the plane/skew locus of the label,
    or on the danger cylinder when label is None.

    Excludes the cocyclic band and small |z|; on a sharing locus it also
    excludes the danger-cylinder band and (optionally) requires the mate
    condition of the label and a strictly positive mate of the true
    solution. None when the rejection budget runs out.
    """
    for _ in range(200):
        tri = random_scene(rng, cfg).triangle
        cyl = loci.danger_cylinder(canonical_frame(tri))
        z_clear = 0.15 if label is None else 0.1
        region = loci.SampleRegion(xy_half_extent=1.5 * tri.scale,
                                   z_max=2.0 * tri.scale,
                                   min_abs_z=max(0.1, z_clear * tri.scale))
        locus = cyl if label is None else loci.sharing_locus(tri, label)
        try:
            O = loci.sample_locus(locus, rng, region)
        except SamplingFailureError:
            continue
        if label is not None and abs(loci.cylinder_membership(cyl, O)) \
                < _CYL_CLEARANCE * tri.scale:
            continue
        scene = _scene_at(tri, O, cfg)
        if scene is None or label is not None and (
                (require_condition
                 and not sharing.mate_condition(tri, scene.angles, label))
                or (require_positive_mate and not _mate_positive(scene, label))):
            continue
        return scene
    return None


def _mate_positive(scene: Scene, label: SharingLabel) -> bool:
    """Whether the true solution's mate has positive distances, which the
    angle-form mate condition does not guarantee in obtuse configurations."""
    s = sharing.relabel_triplet(true_triplet(scene), label.shift)
    _, cb, cg = sharing.cycle3(scene.angles.cosines, label.shift)
    if label.kind == "side":
        return 2.0 * cg * s.s2 - s.s1 > 0.0
    return 2.0 * cg * s.s1 - s.s2 > 0.0 and 2.0 * cb * s.s1 - s.s3 > 0.0


def _solved(scene: Scene, cluster_tol: float = conics.CLUSTER_TOL):
    """The scene's solution set, or None when its conic pencil is degenerate."""
    try:
        return solver.solve(scene.triangle, scene.angles,
                            cluster_tol=cluster_tol)
    except DegeneratePencilError:
        return None


def _trials(rep: CampaignReport, seed: int, labels, sample, solve=True,
            cluster_tol: float = conics.CLUSTER_TOL):
    """The forward loop: (t, label, scene, solution set) per usable trial.

    Trial t draws its scene by sample(rng, labels[t % len(labels)]). A
    trial whose scene cannot be drawn or, with solve, cannot be solved
    counts as skipped; without solve the solution set is None.
    """
    for t, rng in enumerate(_trial_rngs(seed, rep.trials)):
        label = labels[t % len(labels)]
        scene = sample(rng, label)
        sol = _solved(scene, cluster_tol) \
            if solve and scene is not None else None
        if scene is None or solve and sol is None:
            rep.skipped += 1
        else:
            yield t, label, scene, sol


def _converse(rep: CampaignReport, seed: int, n: int, offenders,
              found: str = "pairs"):
    """Random scan: every detected instance must satisfy the claim.

    offenders(scene) gives one reason per detected instance, empty when it
    holds, or None when the scene cannot be solved.
    """
    conv_found = conv_fail = 0
    for t, rng in enumerate(_trial_rngs(seed + 1, n)):
        for reason in offenders(random_scene(rng, seed=t)) or ():
            conv_found += 1
            if reason:
                conv_fail += 1
                rep.failures.append((("converse", t), reason))
    rep.details.update({"converse_trials": n,
                        f"converse_{found}_found": conv_found,
                        "converse_failures": conv_fail})


def _campaign_sharing_nsc(labels, rep: CampaignReport, tol: float, seed: int,
                          nconv: int):
    sample = partial(_locus_scene, require_positive_mate=True)
    for t, label, scene, sol in _trials(rep, seed, labels, sample):
        cls = sharing.classify_solution_set(sol, scene.triangle,
                                            scene.angles, tol=tol)
        hit = [p for p in cls.pairs if p[2] == label]
        if not hit:
            rep.record(False, t, f"no {label.name} pair found")
            continue
        i, j, _, resid = min(hit, key=lambda p: p[3])
        # both mirror centers of every pair member must sit on the locus
        locus = loci.sharing_locus(scene.triangle, label)
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


def _distinct_quartic_roots(scene: Scene, gap: float) -> int:
    """Number of distinct complex roots of the eliminant, clustered at gap.

    Two distinct solutions can share u but not both u and v, so a count
    below 3 in u is taken again on the eliminant in v.
    """
    pair = conics.build_conics(scene.triangle.sides, scene.angles)
    F1, F2 = pair.C1.scaled(), pair.C2.scaled()
    for _ in range(2):
        r = conics.resultant_in_u(F1, F2)
        r = r / np.max(np.abs(r))
        clusters: list[complex] = []
        for z in sorted(conics.companion_roots(np.trim_zeros(r, "b")),
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
    gap = 1e-4  # root-gap band deciding "repeated" near the cylinder
    for t, _, scene, sol in _trials(rep, seed, (None,), _locus_scene,
                                    cluster_tol=gap):
        has_double = any(s.repeated for s in sol.solutions)
        # one coincidence degenerates the quartic's 4 roots to 3 distinct
        # (over the complex numbers: the untouched pair may be conjugate)
        n_distinct = _distinct_quartic_roots(scene, gap)
        rep.record(has_double and n_distinct == 3, t,
                   f"distinct_roots={n_distinct} double={has_double}")

    def offenders(scene):
        sol = _solved(scene, cluster_tol=gap)
        if sol is None:
            return None
        if not any(s.repeated for s in sol.solutions):
            return []
        cyl = loci.danger_cylinder(canonical_frame(scene.triangle))
        off = abs(loci.cylinder_membership(cyl, scene.center)) > 1e-4
        return ["repeated root off cylinder" if off else ""]

    _converse(rep, seed, nconv, offenders, found="repeated")


def _campaign_companion(rep: CampaignReport, tol: float, seed: int,
                        nconv: int):
    four = with_pairs = 0
    sample = lambda rng, _: random_scene(rng)
    for t, _, scene, sol in _trials(rep, seed, (None,), sample):
        if sol.count != 4:
            rep.skipped += 1
            continue
        four += 1
        report = sharing.companion_check(sol, scene.triangle, scene.angles,
                                         tol=1e-9)
        active = [f for f in report.families if f.side_pairs or f.point_pairs]
        if not active:
            rep.passes += 1
            continue
        with_pairs += 1
        worst = max(max(f.identity_residual, f.factorization_residual)
                    for f in active)
        rep.record(report.companion_ok and worst <= 1e-9, t,
                   "companion structure violated", residual=worst)
    rep.details.update(four_solution_scenes=four, scenes_with_pairs=with_pairs)


def _mate_check(scene: Scene, s: SolutionTriplet, mate: SolutionTriplet,
                label: SharingLabel, tol: float) -> tuple[float, str]:
    """(constraint residual, failure reason or "") of the mate of s.

    The mate must solve the scene (residual 1e-9), map back to s under the
    same construction (1e-12 of scale) and lie on the label's line (tol).
    """
    tri, angles = scene.triangle, scene.angles
    res = max(abs(r) for r in solver.constraint_residuals(mate, tri.sides,
                                                          angles))
    back = sharing.construct_mate(mate, tri, angles, label, line_tol=tol)
    inv = max(abs(x - y) / scene.scale
              for x, y in zip(back.values, s.values)) if back else math.inf
    rp = RatioPair(u=mate.s2 / mate.s1, v=mate.s3 / mate.s1)
    on_line = abs(sharing.sharing_residual(rp, tri, angles, label))
    ok = res <= 1e-9 and inv <= 1e-12 and on_line <= tol
    return res, "" if ok else f"res={res:g} inv={inv:g} line={on_line:g}"


def _campaign_construct_side(rep: CampaignReport, tol: float, seed: int,
                             nconv: int):
    angle_cond_no_mate = 0
    for t, label, scene, _ in _trials(rep, seed, sharing.SIDE_LABELS,
                                      _locus_scene, solve=False):
        s = true_triplet(scene)
        # exact positivity of the reflected distance decides mate emission;
        # the angle-form condition can disagree in obtuse configurations,
        # which is tracked separately
        mate = sharing.construct_mate(s, scene.triangle, scene.angles, label,
                                      line_tol=tol)
        if (mate is not None) != _mate_positive(scene, label):
            rep.record(False, t, "mate emission disagrees with positivity")
        elif mate is None:
            angle_cond_no_mate += 1
            rep.record(True, t)
        else:
            res, reason = _mate_check(scene, s, mate, label, tol)
            rep.record(not reason, t, reason, residual=res)
    rep.details.update(angle_condition_without_mate=angle_cond_no_mate)


def _campaign_construct_point(rep: CampaignReport, tol: float, seed: int,
                              nconv: int):
    equiv_checked = componentwise_mismatch = 0
    sample = partial(_locus_scene, require_condition=False)
    for t, label, scene, sol in _trials(rep, seed, sharing.POINT_LABELS,
                                        sample):
        tri = scene.triangle
        reason = ""
        # the angle-form and distance-form mate conditions must agree jointly
        # on every on-line solution; the componentwise forms can disagree in
        # oblique configurations and are only tallied
        k = label.shift
        _, b_k, c_k = sharing.cycle3(tri.sides, k)
        _, cb, cg = sharing.cycle3(scene.angles.cosines, k)
        _, cosB, cosC = sharing.cycle3((tri.cos_A, tri.cos_B, tri.cos_C), k)
        for s in sol.solutions:
            r = sharing.point_share_residual(s.ratio, tri, scene.angles, label)
            if abs(r) > tol:
                continue
            s1 = sharing.relabel_triplet(s.triplet, k).s1
            # dead band against boundary float noise
            if min(abs(s1 - b_k), abs(s1 - c_k)) < 1e-9 * scene.scale:
                continue
            equiv_checked += 1
            if (cb > cosB and cg > cosC) != (s1 > c_k and s1 > b_k):
                reason = "condition equivalence violated"
            if (cb > cosB) != (s1 > c_k) or (cg > cosC) != (s1 > b_k):
                componentwise_mismatch += 1
        if sharing.point_mate_condition(tri, scene.angles, label):
            s = true_triplet(scene)
            mate = sharing.construct_mate(s, tri, scene.angles, label,
                                          line_tol=tol)
            if mate is None:
                reason = "mate not emitted under the theorem hypothesis"
            else:
                res, why = _mate_check(scene, s, mate, label, tol)
                reason = why or reason
                rep.residuals.append(res)
        rep.record(not reason, t, reason)
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
    rep.failures.sort(key=lambda f: str(f[0]))
    return rep
