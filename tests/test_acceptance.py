"""Acceptance criteria: one test and one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; each test also asserts, so a plain run fails loudly.
"""

import math
import time

import numpy as np
import pytest

from p3pshare import loci, sharing, solver
from p3pshare.conics import build_conics, intersect_conics
from p3pshare.errors import DegeneratePencilError
from p3pshare.geometry import (RatioPair, ViewAngles, canonical_frame,
                               view_angles_from_center)
from p3pshare.scenes import (GridConfig, _locus_scene, _trial_rngs,
                             brute_force_solutions, random_scene,
                             true_triplet, verify_theorem)
from p3pshare.sharing import SharingLabel

from conftest import EQ1_RATIOS, EQ1_S_LONG, EQ1_S_SHORT


def report(num: int, title: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({extra})" if extra else ""
    print(f"[criterion {num}] {title}: {status}{tail}")
    assert ok, f"criterion {num} failed: {title} {tail}"


def test_criterion_1_equilateral_fixture(eq1_triangle, eq1_center):
    t0 = time.perf_counter()
    angles = view_angles_from_center(eq1_triangle, eq1_center)
    sol = solver.solve(eq1_triangle, angles)
    elapsed = time.perf_counter() - t0

    ok = sol.count == 4
    by_uv = {}
    for i, s in enumerate(sol.solutions):
        hit = min(EQ1_RATIOS,
                  key=lambda uv: math.hypot(s.ratio.u - uv[0], s.ratio.v - uv[1]))
        ok &= math.hypot(s.ratio.u - hit[0], s.ratio.v - hit[1]) < 1e-9
        by_uv[hit] = i
    ok &= len(by_uv) == 4

    # derived distance triplets
    expect = {(1.0, 1.0): (EQ1_S_LONG,) * 3,
              (4.0, 4.0): (EQ1_S_SHORT, EQ1_S_LONG, EQ1_S_LONG),
              (1.0, 0.25): (EQ1_S_LONG, EQ1_S_LONG, EQ1_S_SHORT),
              (0.25, 1.0): (EQ1_S_LONG, EQ1_S_SHORT, EQ1_S_LONG)}
    for uv, vals in expect.items():
        got = sol.solutions[by_uv[uv]].triplet.values
        ok &= max(abs(x - y) for x, y in zip(got, vals)) < 1e-9

    cls = sharing.classify_solution_set(sol, eq1_triangle, angles)
    labels = {frozenset((i, j)): lab for i, j, lab, _ in cls.pairs
              if lab in (SharingLabel.SIDE_BC, SharingLabel.POINT_A)}
    ok &= labels.get(frozenset((by_uv[(1.0, 1.0)], by_uv[(4.0, 4.0)]))) \
        == SharingLabel.SIDE_BC
    ok &= labels.get(frozenset((by_uv[(1.0, 0.25)], by_uv[(0.25, 1.0)]))) \
        == SharingLabel.POINT_A

    comp = sharing.companion_check(sol, eq1_triangle, angles)
    ok &= comp.companion_ok
    ok &= elapsed < 1.0
    report(1, "equilateral fixture: 4 solutions, pairs, companion structure",
           ok, f"{elapsed:.3f} s")


def test_criterion_2_random_scene_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    counts_ok = True
    n = 1000
    for rng in _trial_rngs(101, n):
        sc = random_scene(rng)
        sol = solver.solve(sc.triangle, sc.angles)
        counts_ok &= 1 <= sol.count <= 4
        for s in sol.solutions:
            res = solver.constraint_residuals(s.triplet, sc.triangle.sides,
                                              sc.angles)
            worst = max(worst, max(abs(r) for r in res))
    elapsed = time.perf_counter() - t0
    ok = counts_ok and worst < 1e-8 and elapsed < 10.0
    report(2, f"{n} random scenes: residual bound and count range", ok,
           f"max residual {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    grid = GridConfig()
    n = 200
    mismatches = 0
    worst = 0.0
    for rng in _trial_rngs(202, n):
        sc = random_scene(rng)
        oracle = brute_force_solutions(sc.triangle.sides, sc.angles, grid)
        inter = intersect_conics(build_conics(sc.triangle.sides, sc.angles))
        fast = [p for p in inter.points
                if 0.0 < p.u <= grid.u_max and 0.0 < p.v <= grid.u_max]
        tangent = any(p.multiplicity >= 2 for p in fast)
        band = 1 if tangent else 0
        if abs(len(oracle) - len(fast)) > band:
            mismatches += 1
            continue
        for p in fast:
            if not oracle:
                continue
            d = min(math.hypot(p.u - q.u, p.v - q.v) for q in oracle)
            if p.multiplicity == 1:
                worst = max(worst, d)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and worst < 1e-6 and elapsed < 120.0
    report(3, f"oracle equivalence over {n} scenes", ok,
           f"mismatches {mismatches}, worst location gap {worst:.2e}, "
           f"{elapsed:.0f} s")


def test_criterion_4_side_sharing_nsc():
    rep = verify_theorem("side_nsc", trials=1500, seed=303,
                         converse_trials=2000)
    forward_ok = rep.passes == 1500 - rep.skipped and not any(
        not isinstance(s, tuple) for s, _ in rep.failures)
    ok = not rep.failures and rep.residual_max < 1e-7 \
        and rep.details["converse_failures"] == 0
    report(4, "side-sharing condition: 500 samples per vertical plane "
              "+ 2000-scene converse", ok,
           f"passes {rep.passes}, skipped {rep.skipped}, "
           f"max residual {rep.residual_max:.2e}, "
           f"converse pairs {rep.details['converse_pairs_found']}, "
           f"{rep.wall_time:.0f} s")
    assert forward_ok


def test_criterion_5_point_sharing_nsc():
    rep = verify_theorem("point_nsc", trials=1500, seed=404,
                         converse_trials=2000)
    ok = not rep.failures and rep.residual_max < 1e-7 \
        and rep.details["converse_failures"] == 0
    report(5, "point-sharing condition: 500 samples per skew surface "
              "+ 2000-scene converse", ok,
           f"passes {rep.passes}, skipped {rep.skipped}, "
           f"max residual {rep.residual_max:.2e}, "
           f"converse pairs {rep.details['converse_pairs_found']}, "
           f"{rep.wall_time:.0f} s")


def test_criterion_6_danger_cylinder_repeats():
    rep = verify_theorem("danger_repeat", trials=200, seed=505)
    ok = rep.pass_rate >= 0.95 and rep.details["converse_failures"] == 0
    report(6, "danger cylinder: repeated root and 3 distinct solutions "
              "on 200 wall samples", ok,
           f"pass rate {rep.pass_rate:.3f}, "
           f"converse repeats {rep.details['converse_repeated_found']}, "
           f"{rep.wall_time:.0f} s")


def test_criterion_7_mate_constructions():
    rep_s = verify_theorem("construct_side", trials=300, seed=606)
    rep_p = verify_theorem("construct_point", trials=300, seed=707)
    ok = not rep_s.failures and not rep_p.failures \
        and rep_s.residual_max < 1e-9 and rep_p.residual_max < 1e-9
    report(7, "mate constructions: constraint residual, involution, "
              "condition equivalence", ok,
           f"side passes {rep_s.passes}, point passes {rep_p.passes}, "
           f"equivalence checks {rep_p.details['equivalence_checks']}, "
           f"max residual {max(rep_s.residual_max, rep_p.residual_max):.2e}")


def test_criterion_8_companion_structure():
    rep = verify_theorem("companion", trials=10000, seed=808)
    ok = not rep.failures

    # the random scan rarely lands exactly on a constraint line, so force
    # non-vacuity with locus-conditioned scenes that carry a detected pair
    conditioned = 0
    rngs = _trial_rngs(809, 200)
    for t, rng in enumerate(rngs):
        if conditioned >= 50:
            break
        label = sharing.SIDE_LABELS[t % 3]
        sc = _locus_scene(rng, label)
        if sc is None:
            continue
        try:
            sol = solver.solve(sc.triangle, sc.angles)
        except DegeneratePencilError:
            continue
        if sol.count != 4:
            continue
        comp = sharing.companion_check(sol, sc.triangle, sc.angles, tol=1e-9)
        active = [f for f in comp.families if f.side_pairs or f.point_pairs]
        if not active:
            continue
        conditioned += 1
        ok &= comp.companion_ok
        for f in active:
            ok &= f.identity_residual < 1e-9
            ok &= f.factorization_residual < 1e-9
    ok &= conditioned >= 50
    report(8, "companion pairs, sharing identity, line factorization "
              "(10000 random + 50 conditioned scenes)", ok,
           f"4-solution scenes {rep.details['four_solution_scenes']}, "
           f"conditioned pair scenes {conditioned}, {rep.wall_time:.0f} s")


def test_criterion_9_mesh_export(sc1_triangle):
    t0 = time.perf_counter()
    surf = loci.skewed_danger_cylinder(sc1_triangle, SharingLabel.POINT_A)
    verts, faces = loci.skew_mesh(surf)
    elapsed = time.perf_counter() - t0

    ok = len(verts) > 0 and len(faces) > 0
    worst = 0.0
    for v in verts:
        worst = max(worst, abs(loci.skewed_membership(
            surf, surf.frame.to_world(v))))
    ok &= worst < 1e-9

    cyl = surf.cylinder
    cx, cy = cyl.center
    rim = [v for v in verts
           if v[2] == 0.0
           and abs(math.hypot(v[0] - cx, v[1] - cy) - cyl.radius) < 1e-9]
    ok &= len(rim) > 0
    for v in rim:
        ok &= abs(loci.cylinder_membership(
            cyl, surf.frame.to_world(v))) < 1e-9
    ok &= elapsed < 5.0
    report(9, "skew-surface mesh export: vertex residuals and cylinder rim",
           ok, f"{len(verts)} vertices, worst residual {worst:.2e}, "
               f"{elapsed:.2f} s")
