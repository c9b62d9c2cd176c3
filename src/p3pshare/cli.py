"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 degenerate scene,
4 campaign failures present, 5 I/O error, 6 inconsistent solution (a
recovered solution failed the basic-constraint check inside the solver).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import conics, loci, scenes, sceneio, sharing, solver
from .errors import (DegenerateAngleError, DegenerateInputError,
                     DegeneratePencilError, InconsistentInputError, P3PError,
                     SceneParseError)
from .geometry import canonical_frame, cocyclic_degeneracy, view_angles_from_center

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_CAMPAIGN_FAIL = 4
EXIT_IO = 5
EXIT_INCONSISTENT = 6


def _g(x: float) -> str:
    return f"{x:.9g}"


def _load(path: str):
    """-> (tri, center, angles); derives angles when the center is given."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise _IOFail(str(exc))
    tri, center, angles, _ = sceneio.parse_scene(text)
    if center is not None:
        angles = view_angles_from_center(tri, center)
    return tri, center, angles


class _IOFail(Exception):
    pass


def _solution_rows(sol, tri):
    rows = []
    for s in sol.solutions:
        t = s.triplet
        res = max(abs(r) for r in solver.constraint_residuals(
            t, tri.sides, sol.angles))
        op, om = solver.recover_centers(t, tri)
        rows.append([_g(t.s1), _g(t.s2), _g(t.s3),
                     _g(s.ratio.u), _g(s.ratio.v), s.ratio.multiplicity,
                     int(s.repeated), _g(res),
                     *(_g(x) for x in op), *(_g(x) for x in om)])
    return rows


_SOLVE_HEADER = ["s1", "s2", "s3", "u", "v", "multiplicity", "repeated",
                 "max_residual", "Ox+", "Oy+", "Oz+", "Ox-", "Oy-", "Oz-"]


def _print_table(header, rows, out):
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
              else len(str(h)) for i, h in enumerate(header)]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)), file=out)
    for r in rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)), file=out)


def cmd_solve(args, out=None) -> int:
    out = out or sys.stdout
    tri, _, angles = _load(args.scene)
    try:
        sol = solver.solve(tri, angles, tol=args.tol,
                           cluster_tol=args.cluster_tol)
    except DegeneratePencilError:
        print("degenerate scene: cocyclic configuration", file=out)
        return EXIT_DEGENERATE
    rows = _solution_rows(sol, tri)
    print(f"solutions: {sol.count}", file=out)
    _print_table(_SOLVE_HEADER, rows, out)
    if args.out:
        sceneio.write_csv(args.out, _SOLVE_HEADER, rows)
    return EXIT_OK


def cmd_analyze(args, out=None) -> int:
    out = out or sys.stdout
    tri, center, angles = _load(args.scene)
    try:
        sol = solver.solve(tri, angles, tol=args.tol)
    except DegeneratePencilError:
        print("degenerate scene: cocyclic configuration", file=out)
        return EXIT_DEGENERATE
    print(f"solutions: {sol.count}", file=out)
    _print_table(_SOLVE_HEADER, _solution_rows(sol, tri), out)

    cls = sharing.classify_solution_set(sol, tri, angles, tol=args.tol_class)
    pair_rows = [[i, j, label.name, _g(res)] for i, j, label, res in cls.pairs]
    print("\nsharing pairs:", file=out)
    _print_table(["i", "j", "label", "residual"], pair_rows, out)
    if cls.repeated_indices:
        print(f"repeated solutions: {list(cls.repeated_indices)}", file=out)

    comp = sharing.companion_check(sol, tri, angles, tol=args.tol_class)
    if not comp.applicable:
        print("\ncompanion: no companion claim applicable", file=out)
    else:
        print(f"\ncompanion structure ok: {comp.companion_ok}", file=out)
        for f in comp.families:
            if f.side_pairs or f.point_pairs:
                print(f"  family {f.shift}: identity={_g(f.identity_residual)} "
                      f"factorization={_g(f.factorization_residual)}", file=out)

    if center is not None:
        frame = canonical_frame(tri)
        cyl = loci.danger_cylinder(frame)
        print("\nlocus membership of the optical center:", file=out)
        print(f"  danger cylinder: {_g(loci.cylinder_membership(cyl, center))}",
              file=out)
        for label in sharing.SIDE_LABELS:
            pl = loci.vertical_plane(frame, label)
            print(f"  plane {label.name}: {_g(loci.plane_membership(pl, center))}",
                  file=out)
        for label in sharing.POINT_LABELS:
            surf = loci.skewed_danger_cylinder(tri, label)
            print(f"  skew {label.name}: {_g(loci.skewed_membership(surf, center))}",
                  file=out)
        print(f"  cocyclic residual: {_g(cocyclic_degeneracy(tri, center))}",
              file=out)
    if args.out:
        sceneio.write_csv(args.out, ["i", "j", "label", "residual"], pair_rows)
    return EXIT_OK


def cmd_verify(args, out=None) -> int:
    out = out or sys.stdout
    try:
        rep = scenes.verify_theorem(args.theorem, trials=args.trials,
                                    tol=args.tol, seed=args.seed,
                                    converse_trials=args.converse_trials)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"theorem {rep.theorem_id}: trials={rep.trials} "
          f"passes={rep.passes} failures={len(rep.failures)} "
          f"skipped={rep.skipped}", file=out)
    print(f"pass rate: {rep.pass_rate:.4f}", file=out)
    print(f"residuals: max={_g(rep.residual_max)} "
          f"median={_g(rep.residual_median)}", file=out)
    for k, v in rep.details.items():
        print(f"  {k}: {v}", file=out)
    print(f"wall time: {rep.wall_time:.2f} s", file=out)
    for seed, reason in rep.failures[:20]:
        print(f"  FAIL trial {seed}: {reason}", file=out)
    if args.out:
        rows = [[rep.theorem_id, rep.trials, rep.passes, len(rep.failures),
                 rep.skipped, _g(rep.residual_max), _g(rep.residual_median),
                 f"{rep.wall_time:.3f}"]]
        sceneio.write_csv(args.out, ["theorem", "trials", "passes", "failures",
                                     "skipped", "residual_max",
                                     "residual_median", "wall_time"], rows)
    return EXIT_CAMPAIGN_FAIL if rep.failures else EXIT_OK


def cmd_export_skew_mesh(args, out=None) -> int:
    out = out or sys.stdout
    tri, _, _ = _load(args.scene)
    label = sharing.SharingLabel[args.label]
    surf = loci.skewed_danger_cylinder(tri, label)
    bounds = tuple(args.bounds) if args.bounds else None
    verts, faces = loci.skew_mesh(surf, bounds=bounds, n=args.grid)
    if len(verts) == 0:
        print("empty admissible region in bounds", file=sys.stderr)
        return EXIT_DEGENERATE
    world = np.array([surf.frame.to_world(v) for v in verts])
    sceneio.write_obj(args.out, world, faces)
    print(f"wrote {len(verts)} vertices, {len(faces)} faces to {args.out}",
          file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="p3pshare",
                                description="P3P multi-solution geometry toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="enumerate all solutions of a scene")
    sp.add_argument("scene")
    sp.add_argument("--tol", type=float, default=conics.INTERSECT_TOL)
    sp.add_argument("--cluster-tol", type=float, default=conics.CLUSTER_TOL)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve)

    ap = sub.add_parser("analyze", help="solve plus pair classification and loci")
    ap.add_argument("scene")
    ap.add_argument("--tol", type=float, default=conics.INTERSECT_TOL)
    ap.add_argument("--tol-class", type=float, default=1e-7)
    ap.add_argument("--out", default=None)
    ap.set_defaults(func=cmd_analyze)

    vp = sub.add_parser("verify", help="run a theorem-verification campaign")
    vp.add_argument("theorem", choices=scenes.THEOREM_IDS)
    vp.add_argument("--trials", type=int, default=100)
    vp.add_argument("--converse-trials", type=int, default=None)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--tol", type=float, default=1e-7)
    vp.add_argument("--out", default=None)
    vp.set_defaults(func=cmd_verify)

    mp = sub.add_parser("export-skew-mesh",
                        help="triangulated mesh of a skewed danger cylinder")
    mp.add_argument("scene")
    mp.add_argument("--label", default="POINT_A",
                    choices=[l.name for l in sharing.POINT_LABELS])
    mp.add_argument("--grid", type=int, default=96)
    mp.add_argument("--bounds", type=float, nargs=4, default=None,
                    metavar=("X0", "X1", "Y0", "Y1"))
    mp.add_argument("--out", required=True)
    mp.set_defaults(func=cmd_export_skew_mesh)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _IOFail as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SceneParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegenerateInputError, DegenerateAngleError,
            DegeneratePencilError) as exc:
        print(f"degenerate scene: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InconsistentInputError as exc:
        print(f"inconsistent solution: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except P3PError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    raise SystemExit(main())
