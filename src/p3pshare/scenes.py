"""Random scenes, the grid oracle, and theorem-verification campaigns."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

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


def _angles_ok(angles: ViewAngles, cfg: SceneConfig) -> bool:
    cs = angles.cosines
    if any(abs(x) >= 1.0 - cfg.cos_margin for x in cs):
        return False
    return abs(cs[1]) > cfg.cos_bg_min and abs(cs[2]) > cfg.cos_bg_min


def random_scene(rng: np.random.Generator,
                 config: SceneConfig = SceneConfig(),
                 seed: int | None = None) -> Scene:
    """A non-degenerate scene; deterministic given the generator state."""
    if config.z_range[0] >= config.z_range[1] \
            or config.z_range[0] < config.cocyclic_min:
        raise GenerationFailureError("empty feasible region")
    h = config.vertex_half_extent
    for _ in range(config.max_rejects):
        pts = rng.uniform(-h, h, size=(3, 2))
        try:
            tri = ControlTriangle.from_points(
                np.append(pts[0], 0.0), np.append(pts[1], 0.0),
                np.append(pts[2], 0.0))
        except DegenerateInputError:
            continue
        if min(tri.sides) < config.min_side:
            continue
        area = 0.5 * float(np.linalg.norm(
            np.cross(tri.C - tri.B, tri.A - tri.B)))
        if area < config.min_area:
            continue
        z = rng.uniform(*config.z_range)
        if rng.uniform() < 0.5:
            z = -z
        O = np.array([rng.uniform(-config.center_xy, config.center_xy),
                      rng.uniform(-config.center_xy, config.center_xy), z])
        if abs(z) < 0.1:
            continue
        if cocyclic_degeneracy(tri, O) < config.cocyclic_min:
            continue
        try:
            angles = view_angles_from_center(tri, O)
        except (DegenerateInputError, DegenerateAngleError):
            continue
        if not _angles_ok(angles, config):
            continue
        return Scene(triangle=tri, center=O, angles=angles, seed=seed)
    raise GenerationFailureError("rejection budget exceeded")


@dataclass(frozen=True)
class GridConfig:
    """Grid oracle bounds: u, v in (0, u_max], n x n nodes."""

    u_max: float = 20.0
    n: int = 2000
    refine_tol: float = 1e-10
    cluster_tol: float = 1e-5


def brute_force_solutions(sides, angles: ViewAngles,
                          grid: GridConfig = GridConfig()) -> list[RatioPair]:
    """Independent conic-intersection oracle by sign-change grid scan.

    Deliberately avoids the resultant path: candidate cells are those where
    both conics change sign among the four corners; each is refined by
    Newton iteration and gated on residual.
    """
    pair = conics.build_conics(sides, angles)
    F1 = pair.C1.scaled()
    F2 = pair.C2.scaled()
    t = np.linspace(grid.u_max / grid.n, grid.u_max, grid.n)
    U, V = np.meshgrid(t, t, indexing="ij")
    S1 = F1(U, V) > 0.0
    S2 = F2(U, V) > 0.0

    def mixed(S):
        same = (S[:-1, :-1] == S[1:, :-1]) & (S[:-1, :-1] == S[:-1, 1:]) \
            & (S[:-1, :-1] == S[1:, 1:])
        return ~same

    cells = np.argwhere(mixed(S1) & mixed(S2))
    found: list[tuple[float, float]] = []
    for i, j in cells:
        u0 = 0.5 * (t[i] + t[i + 1])
        v0 = 0.5 * (t[j] + t[j + 1])
        uu, vv, res = conics.newton_polish(F1, F2, u0, v0)
        if res > grid.refine_tol * (1.0 + uu * uu + vv * vv):
            continue
        if uu <= 0.0 or vv <= 0.0:
            continue
        found.append((uu, vv))
    out: list[RatioPair] = []
    for uu, vv in sorted(found):
        if any(abs(uu - p.u) <= grid.cluster_tol * (1.0 + abs(p.u))
               and abs(vv - p.v) <= grid.cluster_tol * (1.0 + abs(p.v))
               for p in out):
            continue
        out.append(RatioPair(u=uu, v=vv))
    return out


def true_triplet(scene: Scene) -> SolutionTriplet:
    """Distances from the scene center: the ground-truth solution."""
    O = scene.center
    tri = scene.triangle
    return SolutionTriplet(s1=float(np.linalg.norm(tri.A - O)),
                           s2=float(np.linalg.norm(tri.B - O)),
                           s3=float(np.linalg.norm(tri.C - O)))


# ---------------------------------------------------------------------------
# campaigns

THEOREM_IDS = ("side_nsc", "point_nsc", "companion", "danger_repeat",
               "construct_side", "construct_point")


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


def _locus_scene(rng, label: SharingLabel, cfg: SceneConfig,
                 require_condition: bool = True,
                 require_positive_mate: bool = False) -> Scene | None:
    """Scene with the center sampled on the plane/skew locus of the label.

    Excludes the cocyclic band, small |z| and the danger-cylinder band, and
    (optionally) requires the mate condition of the label and a strictly
    positive reflected mate for the true solution. None when the rejection
    budget runs out.
    """
    for _ in range(200):
        base = random_scene(rng, cfg)
        tri = base.triangle
        frame = canonical_frame(tri)
        cyl = loci.danger_cylinder(frame)
        region = loci.SampleRegion(xy_half_extent=1.5 * tri.scale,
                                   z_max=2.0 * tri.scale,
                                   min_abs_z=max(0.1, 0.1 * tri.scale))
        if label.kind == "side":
            locus = loci.vertical_plane(frame, label)
        else:
            locus = loci.skewed_danger_cylinder(tri, label)
        try:
            O = loci.sample_locus(locus, rng, region)
        except SamplingFailureError:
            continue
        if abs(loci.cylinder_membership(cyl, O)) < _CYL_CLEARANCE * tri.scale:
            continue
        if cocyclic_degeneracy(tri, O) < cfg.cocyclic_min:
            continue
        try:
            scene = scene_from_center(tri, O)
        except (DegenerateInputError, DegenerateAngleError):
            continue
        if not _angles_ok(scene.angles, cfg):
            continue
        if require_condition:
            if label.kind == "side" and not sharing.side_mate_condition(
                    tri, scene.angles, label):
                continue
            if label.kind == "point" and not sharing.point_mate_condition(
                    tri, scene.angles, label):
                continue
        if require_positive_mate:
            # the angle-form condition does not guarantee positivity in
            # obtuse configurations; gate on the reflected distances directly
            s = true_triplet(scene)
            sk = sharing.relabel_triplet(s, label.shift)
            _, cb, cg = sharing.cycle3(scene.angles.cosines, label.shift)
            if label.kind == "side":
                if 2.0 * cg * sk.s2 - sk.s1 <= 0.0:
                    continue
            else:
                if 2.0 * cg * sk.s1 - sk.s2 <= 0.0 \
                        or 2.0 * cb * sk.s1 - sk.s3 <= 0.0:
                    continue
        return scene
    return None


def _solve_scene(scene: Scene, cluster_tol: float = conics.CLUSTER_TOL):
    return solver.solve(scene.triangle, scene.angles, cluster_tol=cluster_tol)


def _campaign_sharing_nsc(kind: str, trials: int, tol: float, seed: int,
                          converse_trials: int | None) -> CampaignReport:
    labels = sharing.SIDE_LABELS if kind == "side" else sharing.POINT_LABELS
    rep = CampaignReport(theorem_id=f"{kind}_nsc", trials=trials)
    cfg = SceneConfig()
    rngs = _trial_rngs(seed, trials)
    for t, rng in enumerate(rngs):
        label = labels[t % 3]
        scene = _locus_scene(rng, label, cfg, require_positive_mate=True)
        if scene is None:
            rep.skipped += 1
            continue
        try:
            sol = _solve_scene(scene)
            cls = sharing.classify_solution_set(sol, scene.triangle,
                                                scene.angles, tol=tol)
        except DegeneratePencilError:
            rep.skipped += 1
            continue
        hit = [p for p in cls.pairs if p[2] == label]
        if not hit:
            rep.record(False, t, f"no {label.name} pair found")
            continue
        resid = min(p[3] for p in hit)
        # both mirror centers of every pair member must sit on the locus
        locus_ok = True
        frame = canonical_frame(scene.triangle)
        if kind == "side":
            locus = loci.vertical_plane(frame, label)
            member = lambda O: loci.plane_membership(locus, O)
        else:
            locus = loci.skewed_danger_cylinder(scene.triangle, label)
            member = lambda O: loci.skewed_membership(locus, O)
        i, j, _, _ = min(hit, key=lambda p: p[3])
        for idx in (i, j):
            for O in solver.recover_centers(sol.solutions[idx].triplet,
                                            scene.triangle):
                if abs(member(O)) > 1e-6 * scene.scale:
                    locus_ok = False
        rep.record(resid < tol and locus_ok, t,
                   "" if locus_ok else "pair center off locus",
                   residual=resid)
    # converse: random scan; every detected pair implies locus membership
    nconv = trials if converse_trials is None else converse_trials
    conv_found = 0
    conv_fail = 0
    for t, rng in enumerate(_trial_rngs(seed + 1, nconv)):
        scene = random_scene(rng, cfg, seed=t)
        try:
            sol = _solve_scene(scene)
            cls = sharing.classify_solution_set(sol, scene.triangle,
                                                scene.angles, tol=tol)
        except DegeneratePencilError:
            continue
        frame = canonical_frame(scene.triangle)
        for (i, j, label, resid) in cls.pairs:
            if label.kind != kind:
                continue
            conv_found += 1
            if kind == "side":
                locus = loci.vertical_plane(frame, label)
                d = abs(loci.plane_membership(locus, scene.center))
            else:
                locus = loci.skewed_danger_cylinder(scene.triangle, label)
                d = abs(loci.skewed_membership(locus, scene.center))
            if d > 1e-6 * scene.scale:
                conv_fail += 1
                rep.failures.append((("converse", t), f"center off locus ({d:g})"))
    rep.details.update(converse_trials=nconv, converse_pairs_found=conv_found,
                       converse_failures=conv_fail)
    return rep


def _distinct_quartic_roots(scene: Scene, gap: float) -> int:
    """Number of distinct complex roots of the eliminant, clustered at gap."""
    pair = conics.build_conics(scene.triangle.sides, scene.angles)
    r = conics.resultant_in_u(pair.C1.scaled(), pair.C2.scaled())
    r = r / np.max(np.abs(r))
    roots = conics.companion_roots(np.trim_zeros(r, "b"))
    clusters: list[complex] = []
    for z in sorted(roots, key=lambda w: (w.real, w.imag)):
        if not any(abs(z - c) <= gap for c in clusters):
            clusters.append(z)
    return len(clusters)


def _campaign_danger_repeat(trials: int, tol: float, seed: int,
                            converse_trials: int | None) -> CampaignReport:
    rep = CampaignReport(theorem_id="danger_repeat", trials=trials)
    cfg = SceneConfig()
    gap = 1e-4  # root-gap band deciding "repeated" near the cylinder
    for t, rng in enumerate(_trial_rngs(seed, trials)):
        scene = None
        for _ in range(200):
            base = random_scene(rng, cfg)
            frame = canonical_frame(base.triangle)
            cyl = loci.danger_cylinder(frame)
            region = loci.SampleRegion(xy_half_extent=1.5 * base.scale,
                                       z_max=2.0 * base.scale,
                                       min_abs_z=max(0.1, 0.15 * base.scale))
            O = loci.sample_locus(cyl, rng, region)
            if cocyclic_degeneracy(base.triangle, O) < cfg.cocyclic_min:
                continue
            try:
                cand = scene_from_center(base.triangle, O)
            except (DegenerateInputError, DegenerateAngleError):
                continue
            if _angles_ok(cand.angles, cfg):
                scene = cand
                break
        if scene is None:
            rep.skipped += 1
            continue
        try:
            sol = _solve_scene(scene, cluster_tol=gap)
        except DegeneratePencilError:
            rep.skipped += 1
            continue
        has_double = any(s.repeated for s in sol.solutions)
        # one coincidence degenerates the quartic's 4 roots to 3 distinct
        # (over the complex numbers: the untouched pair may be conjugate)
        n_distinct = _distinct_quartic_roots(scene, gap)
        rep.record(has_double and n_distinct == 3, t,
                   f"distinct_roots={n_distinct} double={has_double}")
    nconv = trials if converse_trials is None else converse_trials
    conv_found = 0
    conv_fail = 0
    for t, rng in enumerate(_trial_rngs(seed + 1, nconv)):
        scene = random_scene(rng, cfg)
        try:
            sol = _solve_scene(scene, cluster_tol=gap)
        except DegeneratePencilError:
            continue
        if any(s.repeated for s in sol.solutions):
            conv_found += 1
            cyl = loci.danger_cylinder(canonical_frame(scene.triangle))
            if abs(loci.cylinder_membership(cyl, scene.center)) > 1e-4:
                conv_fail += 1
                rep.failures.append((("converse", t), "repeated root off cylinder"))
    rep.details.update(converse_trials=nconv, converse_repeated_found=conv_found,
                       converse_failures=conv_fail)
    return rep


def _campaign_companion(trials: int, tol: float, seed: int,
                        converse_trials=None) -> CampaignReport:
    rep = CampaignReport(theorem_id="companion", trials=trials)
    cfg = SceneConfig()
    four = 0
    with_pairs = 0
    for t, rng in enumerate(_trial_rngs(seed, trials)):
        scene = random_scene(rng, cfg)
        try:
            sol = _solve_scene(scene)
        except DegeneratePencilError:
            rep.skipped += 1
            continue
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
        ok = report.companion_ok
        worst = 0.0
        for f in active:
            worst = max(worst, f.identity_residual, f.factorization_residual)
            if f.identity_residual > 1e-9 or f.factorization_residual > 1e-9:
                ok = False
        rep.record(ok, t, "companion structure violated", residual=worst)
    rep.details.update(four_solution_scenes=four, scenes_with_pairs=with_pairs)
    return rep


def _campaign_construct_side(trials: int, tol: float, seed: int,
                             converse_trials=None) -> CampaignReport:
    rep = CampaignReport(theorem_id="construct_side", trials=trials)
    cfg = SceneConfig()
    angle_cond_no_mate = 0
    for t, rng in enumerate(_trial_rngs(seed, trials)):
        label = sharing.SIDE_LABELS[t % 3]
        scene = _locus_scene(rng, label, cfg)
        if scene is None:
            rep.skipped += 1
            continue
        s = true_triplet(scene)
        # exact positivity of the reflected distance decides mate emission;
        # the angle-form condition can disagree in obtuse configurations,
        # which is tracked separately
        k = label.shift
        sk = sharing.relabel_triplet(s, k)
        cg = sharing.cycle3(scene.angles.cosines, k)[2]
        positive = 2.0 * cg * sk.s2 - sk.s1 > 0.0
        mate = sharing.construct_side_mate(s, scene.angles, label, line_tol=tol)
        if (mate is not None) != positive:
            rep.record(False, t, "mate emission disagrees with positivity")
            continue
        if mate is None:
            angle_cond_no_mate += 1
            rep.record(True, t)
            continue
        res = max(abs(r) for r in constraint_residuals_of(mate, scene))
        back = sharing.construct_side_mate(mate, scene.angles, label, line_tol=tol)
        inv = max(abs(x - y) / scene.scale
                  for x, y in zip(back.values, s.values)) if back else math.inf
        rp = RatioPair(u=mate.s2 / mate.s1, v=mate.s3 / mate.s1)
        on_line = abs(sharing.side_share_residual(rp, scene.angles, label))
        ok = res <= 1e-9 and inv <= 1e-12 and on_line <= tol
        rep.record(ok, t, f"res={res:g} inv={inv:g} line={on_line:g}",
                   residual=res)
    rep.details.update(angle_condition_without_mate=angle_cond_no_mate)
    return rep


def _campaign_construct_point(trials: int, tol: float, seed: int,
                              converse_trials=None) -> CampaignReport:
    rep = CampaignReport(theorem_id="construct_point", trials=trials)
    cfg = SceneConfig()
    equiv_checked = 0
    componentwise_mismatch = 0
    for t, rng in enumerate(_trial_rngs(seed, trials)):
        label = sharing.POINT_LABELS[t % 3]
        scene = _locus_scene(rng, label, cfg, require_condition=False)
        if scene is None:
            rep.skipped += 1
            continue
        tri = scene.triangle
        try:
            sol = _solve_scene(scene)
        except DegeneratePencilError:
            rep.skipped += 1
            continue
        ok = True
        reason = ""
        # the angle-form and distance-form mate conditions must agree jointly
        # on every on-line solution; the componentwise forms can disagree in
        # oblique configurations and are only tallied
        k = label.shift
        a_k, b_k, c_k = sharing.cycle3(tri.sides, k)
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
            angle_cond = cb > cosB and cg > cosC
            dist_cond = s1 > c_k and s1 > b_k
            if angle_cond != dist_cond:
                ok = False
                reason = "condition equivalence violated"
            if (cb > cosB) != (s1 > c_k) or (cg > cosC) != (s1 > b_k):
                componentwise_mismatch += 1
        if sharing.point_mate_condition(tri, scene.angles, label):
            s = true_triplet(scene)
            mate = sharing.construct_point_mate(s, scene.angles, label,
                                                line_tol=tol, tri=tri)
            if mate is None:
                ok = False
                reason = "mate not emitted under the theorem hypothesis"
            else:
                res = max(abs(r) for r in constraint_residuals_of(mate, scene))
                back = sharing.construct_point_mate(mate, scene.angles, label,
                                                    line_tol=tol, tri=tri)
                inv = max(abs(x - y) / scene.scale
                          for x, y in zip(back.values, s.values)) \
                    if back else math.inf
                rp = RatioPair(u=mate.s2 / mate.s1, v=mate.s3 / mate.s1)
                on_line = abs(sharing.point_share_residual(
                    rp, tri, scene.angles, label))
                if res > 1e-9 or inv > 1e-12 or on_line > tol:
                    ok = False
                    reason = f"res={res:g} inv={inv:g} line={on_line:g}"
                rep.residuals.append(res)
        rep.record(ok, t, reason)
    rep.details.update(equivalence_checks=equiv_checked,
                       componentwise_mismatches=componentwise_mismatch)
    return rep


def constraint_residuals_of(t: SolutionTriplet, scene: Scene):
    return solver.constraint_residuals(t, scene.triangle.sides, scene.angles)


def verify_theorem(theorem_id: str, trials: int, tol: float = 1e-7,
                   seed: int = 0, converse_trials: int | None = None
                   ) -> CampaignReport:
    """Run the per-theorem protocol and return its statistics."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    if theorem_id == "side_nsc":
        rep = _campaign_sharing_nsc("side", trials, tol, seed, converse_trials)
    elif theorem_id == "point_nsc":
        rep = _campaign_sharing_nsc("point", trials, tol, seed, converse_trials)
    elif theorem_id == "companion":
        rep = _campaign_companion(trials, tol, seed, converse_trials)
    elif theorem_id == "danger_repeat":
        rep = _campaign_danger_repeat(trials, tol, seed, converse_trials)
    elif theorem_id == "construct_side":
        rep = _campaign_construct_side(trials, tol, seed, converse_trials)
    elif theorem_id == "construct_point":
        rep = _campaign_construct_point(trials, tol, seed, converse_trials)
    else:
        raise ValueError(f"unknown theorem id: {theorem_id!r}")
    rep.wall_time = time.perf_counter() - t0
    rep.failures.sort(key=lambda f: str(f[0]))
    return rep
