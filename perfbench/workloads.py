"""The four benchmark workloads: input generation, the timed op and its check.

Every workload reaches p3pshare only through public functions, looked up
as module attributes at call time so that the tracer's wrappers apply.
Inputs are generated from the workload seed through the public API; the
timed op receives only those generated inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from p3pshare import (conics, geometry, loci, sceneio, scenes, sharing,
                      solver)
from p3pshare.errors import (DegenerateAngleError, DegenerateInputError,
                             SamplingFailureError)

#: criterion-2 bound on the normalized constraint residuals
RESIDUAL_BOUND = 1e-8
#: relative distance within which a returned triplet is the true one. At a
#: double root (a viewpoint on the danger cylinder) the distances move like
#: the square root of the residual, so this is sqrt(RESIDUAL_BOUND); scenes
#: on the cylinder land 1e-6 to 1e-5 from the truth
TRUTH_TOL = 1e-4
#: pair-classification tolerance of ``p3pshare analyze``
CLASS_TOL = 1e-7


@dataclass
class Item:
    """One op's input. ``key`` names it; ``group`` names the set of items
    whose summed time is one latency sample (the item itself when empty)."""

    key: str
    args: tuple
    truth: tuple | None = None
    group: str = ""


@dataclass
class Verdict:
    units: int                 # ops this call counts for
    failed: int                # of those, how many failed a check
    counts: dict = field(default_factory=dict)  # deterministic counts
    reason: str = ""           # why, when an op failed


def trial_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n)]


def digest(items: list[Item]) -> str:
    """Fingerprint of the generated inputs, to show generation is seeded."""
    h = hashlib.sha256()
    for it in items:
        h.update(repr((it.key, it.args, it.truth)).encode())
    return h.hexdigest()[:16]


def true_distances(tri, center) -> tuple[float, float, float]:
    O = np.asarray(center, dtype=float)
    return tuple(float(np.linalg.norm(P - O)) for P in tri.points)


def check_solution_set(sol, tri, angles, truth) -> str:
    """'' when 1 <= count <= 4, residuals < 1e-8 and the truth is returned."""
    if not 1 <= sol.count <= 4:
        return f"solution count {sol.count}"
    worst = 0.0
    for s in sol.solutions:
        worst = max(worst, *(abs(r) for r in solver.constraint_residuals(
            s.triplet, tri.sides, angles)))
    if not worst < RESIDUAL_BOUND:
        return f"constraint residual {worst:.3g}"
    scale = tri.scale
    if not any(max(abs(x - y) for x, y in zip(s.triplet.values, truth))
               <= TRUTH_TOL * scale for s in sol.solutions):
        return "true triplet not among the solutions"
    return ""


class Workload:
    name = ""

    def generate(self, seed: int, smoke: bool) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> Verdict:
        raise NotImplementedError

    def context(self, item: Item):
        """Trace context of an op; campaigns attribute time per theorem id."""
        return None

    def extra_metrics(self, groups: dict) -> dict:
        """Workload-specific figures from {group: (op units, cost seconds)}."""
        return {}


class SolveRandom(Workload):
    """One ``solver.solve`` per generic scene from ``SceneConfig()``."""

    name = "solve_random"

    def generate(self, seed, smoke):
        n = 40 if smoke else 1000
        items = []
        for i, rng in enumerate(trial_rngs(seed, n)):
            sc = scenes.random_scene(rng)
            items.append(Item(f"scene{i}", (sc.triangle, sc.angles),
                              true_distances(sc.triangle, sc.center)))
        return items

    def run(self, item):
        tri, angles = item.args
        return solver.solve(tri, angles)

    def check(self, item, out):
        tri, angles = item.args
        bad = check_solution_set(out, tri, angles, item.truth)
        return Verdict(1, int(bool(bad)), {
            "solutions": out.count,
            "repeated": sum(out.repeated_flags)}, bad)


#: (kind, label) of the seven loci that analyze_locus samples viewpoints on
LOCI = tuple([("plane", lab) for lab in sharing.SIDE_LABELS]
             + [("skew", lab) for lab in sharing.POINT_LABELS]
             + [("cylinder", None)])


def locus_name(kind: str, label) -> str:
    return kind if label is None else f"{kind}_{label.name}"


def _angles_clear(angles) -> bool:
    """The cosine clearances of ``SceneConfig()``."""
    cfg = scenes.SceneConfig()
    cs = angles.cosines
    return (all(abs(x) < 1.0 - cfg.cos_margin for x in cs)
            and abs(cs[1]) > cfg.cos_bg_min and abs(cs[2]) > cfg.cos_bg_min)


def locus_scene_text(rng, kind: str, label) -> tuple[str, tuple] | None:
    """Scene JSON with its viewpoint sampled on one locus, or None.

    Uses the campaigns' clearances: outside the cocyclic band, and for
    planes and skew surfaces outside the danger-cylinder band.
    """
    cfg = scenes.SceneConfig()
    tri = scenes.random_scene(rng).triangle
    frame = geometry.canonical_frame(tri)
    cyl = loci.danger_cylinder(frame)
    if kind == "plane":
        locus = loci.vertical_plane(frame, label)
    elif kind == "skew":
        locus = loci.skewed_danger_cylinder(tri, label)
    else:
        locus = cyl
    region = loci.SampleRegion(xy_half_extent=1.5 * tri.scale,
                               z_max=2.0 * tri.scale,
                               min_abs_z=max(0.1, 0.15 * tri.scale))
    try:
        O = loci.sample_locus(locus, rng, region)
    except SamplingFailureError:
        return None
    if kind != "cylinder" \
            and abs(loci.cylinder_membership(cyl, O)) < 1e-2 * tri.scale:
        return None
    if geometry.cocyclic_degeneracy(tri, O) < cfg.cocyclic_min:
        return None
    try:
        sc = scenes.scene_from_center(tri, O)
    except (DegenerateInputError, DegenerateAngleError):
        return None
    if not _angles_clear(sc.angles):
        return None
    return sceneio.serialize_scene(tri, center=O,
                                   label=locus_name(kind, label)), \
        true_distances(tri, O)


class AnalyzeLocus(Workload):
    """The ``p3pshare analyze`` pipeline on scenes with viewpoints on loci."""

    name = "analyze_locus"

    def generate(self, seed, smoke):
        per_locus = 2 if smoke else 200
        items = []
        for i, rng in enumerate(trial_rngs(seed, per_locus * len(LOCI))):
            kind, label = LOCI[i % len(LOCI)]
            made = None
            while made is None:
                made = locus_scene_text(rng, kind, label)
            text, truth = made
            items.append(Item(f"{locus_name(kind, label)}#{i}", (text,), truth))
        return items

    def run(self, item):
        (text,) = item.args
        tri, center, _, _ = sceneio.parse_scene(text)
        angles = geometry.view_angles_from_center(tri, center)
        sol = solver.solve(tri, angles)
        cls = sharing.classify_solution_set(sol, tri, angles, tol=CLASS_TOL)
        comp = sharing.companion_check(sol, tri, angles, tol=CLASS_TOL)
        return tri, angles, sol, cls, comp

    def check(self, item, out):
        tri, angles, sol, cls, comp = out
        bad = check_solution_set(sol, tri, angles, item.truth)
        for i, j, _, resid in cls.pairs:
            if not (0 <= i < j < sol.count and resid <= CLASS_TOL):
                bad = bad or f"pair ({i}, {j}) residual {resid:.3g}"
        if len(comp.families) != 3:
            bad = bad or "companion report without three families"
        return Verdict(1, int(bool(bad)), {
            "solutions": sol.count,
            "repeated": sum(sol.repeated_flags),
            "pairs": len(cls.pairs),
            "companion_ok": int(comp.applicable and comp.companion_ok)}, bad)


#: reduced (trials, converse_trials) of one call per theorem id; trials
#: stay multiples of three so every label is sampled equally. The two
#: skew-surface campaigns get more trials because their rejection sampling
#: cost is heavy-tailed across seeds.
CAMPAIGNS = (
    ("side_nsc", 30, 30),
    ("point_nsc", 60, 30),
    ("companion", 120, None),
    ("danger_repeat", 12, 12),
    ("construct_side", 30, None),
    ("construct_point", 60, None),
)
#: calls per theorem id, each under its own seed drawn from the run seed.
#: The host's speed changes less within a call of ~50 ms than within one
#: long call per id, so the reference kernel timed beside it tracks it.
CHUNKS = 10


class Campaigns(Workload):
    """The six ``verify_theorem`` ids at reduced trial counts."""

    name = "campaigns"

    def generate(self, seed, smoke):
        chunks = 1 if smoke else CHUNKS
        seeds = np.random.SeedSequence(seed).generate_state(chunks)
        return [Item(f"{tid}#{k}", (tid, trials, int(s), conv), group=tid)
                for tid, trials, conv in CAMPAIGNS
                for k, s in enumerate(seeds)]

    def run(self, item):
        tid, trials, seed, conv = item.args
        return scenes.verify_theorem(tid, trials, seed=seed,
                                     converse_trials=conv)

    def check(self, item, out):
        tid, trials, _, _ = item.args
        converse = int(out.details.get("converse_trials", 0))
        forward_failures = sum(
            1 for s, _ in out.failures
            if not (isinstance(s, tuple) and s and s[0] == "converse"))
        reasons = [f"trial {s}: {r}" for s, r in out.failures]
        if out.theorem_id != tid or out.trials != trials \
                or out.passes + forward_failures + out.skipped != trials:
            reasons.insert(0, "passes + failures + skips != trials")
        counts = {f"{tid}.passes": out.passes,
                  f"{tid}.failures": len(out.failures),
                  f"{tid}.skipped": out.skipped}
        counts.update((f"{tid}.{k}", int(v)) for k, v in out.details.items())
        return Verdict(trials + converse, min(len(reasons), trials + converse),
                       counts, "; ".join(reasons[:3]))

    def context(self, item):
        return item.group

    def extra_metrics(self, groups):
        # trials count forward and converse trials alike
        return {f"verify.{tid}.trials_per_s": (units / secs, "1/s")
                for tid, (units, secs) in groups.items()}


#: the criterion-9 scalene triangle with canonical frame a=3, e=1, f=2
SC1_POINTS = ((1.0, 2.0, 0.0), (0.0, 0.0, 0.0), (3.0, 0.0, 0.0))


class OracleMesh(Workload):
    """Grid oracle against ``intersect_conics``, plus skew-surface meshes."""

    name = "oracle_mesh"

    def generate(self, seed, smoke):
        n = 2 if smoke else 36
        self.grid = scenes.GridConfig(n=200) if smoke else scenes.GridConfig()
        self.mesh_n = 24 if smoke else 96
        items = []
        for i, rng in enumerate(trial_rngs(seed, n)):
            sc = scenes.random_scene(rng)
            items.append(Item(f"oracle{i}", ("oracle", sc.triangle.sides,
                                             sc.angles), group="oracle"))
        tri = geometry.ControlTriangle.from_points(*SC1_POINTS)
        for lab in sharing.POINT_LABELS:
            items.append(Item(f"mesh_{lab.name}",
                              ("mesh", loci.skewed_danger_cylinder(tri, lab)),
                              group="mesh"))
        return items

    def run(self, item):
        if item.args[0] == "oracle":
            _, sides, angles = item.args
            oracle = scenes.brute_force_solutions(sides, angles, self.grid)
            inter = conics.intersect_conics(conics.build_conics(sides, angles))
            return oracle, inter
        return loci.skew_mesh(item.args[1], n=self.mesh_n)

    def check(self, item, out):
        if item.args[0] == "oracle":
            return self._check_oracle(out)
        return self._check_mesh(item.args[1], out)

    def _check_oracle(self, out):
        """Criterion 3: counts agree within the tangency band, locations 1e-6."""
        oracle, inter = out
        umax = self.grid.u_max
        fast = [p for p in inter.points
                if 0.0 < p.u <= umax and 0.0 < p.v <= umax]
        band = 1 if any(p.multiplicity >= 2 for p in fast) else 0
        bad = ""
        if abs(len(oracle) - len(fast)) > band:
            bad = f"oracle {len(oracle)} points, solver {len(fast)}"
        elif oracle:
            gap = max((min(math.hypot(p.u - q.u, p.v - q.v) for q in oracle)
                       for p in fast if p.multiplicity == 1), default=0.0)
            if not gap < 1e-6:
                bad = f"location gap {gap:.3g}"
        return Verdict(1, int(bool(bad)), {"oracle_points": len(oracle),
                                           "solver_points": len(fast)}, bad)

    def _check_mesh(self, surf, out):
        """Criterion 9: a non-empty mesh whose vertices lie on the surface."""
        verts, faces = out
        bad = ""
        if len(verts) == 0 or len(faces) == 0:
            bad = "empty mesh"
        elif max(max(f) for f in faces) > len(verts) \
                or min(min(f) for f in faces) < 1:
            bad = "face index out of range"
        else:
            worst = max(abs(loci.skewed_membership(surf, surf.frame.to_world(v)))
                        for v in verts)
            if not worst < 1e-9:
                bad = f"vertex residual {worst:.3g}"
        fp = hashlib.sha256(np.ascontiguousarray(verts).tobytes()).hexdigest()
        return Verdict(1, int(bool(bad)), {
            "mesh_vertices": len(verts), "mesh_faces": len(faces),
            "mesh_fingerprint": int(fp[:8], 16)}, bad)

    def extra_metrics(self, groups):
        (n_oracle, t_oracle), (n_mesh, t_mesh) = groups["oracle"], groups["mesh"]
        return {"oracle_ms_per_scene": (1e3 * t_oracle / n_oracle, "ms"),
                "mesh_ms": (1e3 * t_mesh / n_mesh, "ms")}


WORKLOADS = {w.name: w for w in (SolveRandom, AnalyzeLocus, Campaigns,
                                 OracleMesh)}
