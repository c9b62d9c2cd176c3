"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 degenerate scene, 4 campaign failures
present, 5 I/O error, 6 inconsistent solution (a recovered solution failed the
solver's basic-constraint check), 141 stdout closed by its reader (`| head`).
"""

from __future__ import annotations

import argparse
import os
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
EXIT_PIPE = 141  # as for a process killed by SIGPIPE: 128 + 13


def _g(x: float) -> str:
    return f"{x:.9g}"


def _load(path: str):
    """-> (tri, center, angles); derives angles when the center is given."""
    tri, center, angles, _ = sceneio.load_scene(path)
    if center is not None:
        angles = view_angles_from_center(tri, center)
    return tri, center, angles


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


def _print_table(header, rows):
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
              else len(str(h)) for i, h in enumerate(header)]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))


def cmd_solve(args) -> int:
    tri, _, angles = _load(args.scene)
    sol = solver.solve(tri, angles, tol=args.tol, cluster_tol=args.cluster_tol)
    rows = _solution_rows(sol, tri)
    print(f"solutions: {sol.count}")
    _print_table(_SOLVE_HEADER, rows)
    if args.out:
        sceneio.write_csv(args.out, _SOLVE_HEADER, rows)
    return EXIT_OK


def cmd_analyze(args) -> int:
    tri, center, angles = _load(args.scene)
    sol = solver.solve(tri, angles, tol=args.tol)
    print(f"solutions: {sol.count}")
    _print_table(_SOLVE_HEADER, _solution_rows(sol, tri))

    cls = sharing.classify_solution_set(sol, tri, angles, tol=args.tol_class)
    pair_rows = [[i, j, label.name, _g(res)] for i, j, label, res in cls.pairs]
    print("\nsharing pairs:")
    _print_table(["i", "j", "label", "residual"], pair_rows)
    if cls.repeated_indices:
        print(f"repeated solutions: {list(cls.repeated_indices)}")

    comp = sharing.companion_check(sol, tri, angles, tol=args.tol_class)
    if not comp.applicable:
        print("\ncompanion: no companion claim applicable")
    else:
        print(f"\ncompanion structure ok: {comp.companion_ok}")
        for f in comp.families:
            if f.side_pairs or f.point_pairs:
                print(f"  family {f.shift}: identity={_g(f.identity_residual)} "
                      f"factorization={_g(f.factorization_residual)}")

    if center is not None:
        cyl = loci.danger_cylinder(canonical_frame(tri))
        print("\nlocus membership of the optical center:")
        print(f"  danger cylinder: {_g(loci.cylinder_membership(cyl, center))}")
        for label in (*sharing.SIDE_LABELS, *sharing.POINT_LABELS):
            d = loci.membership(loci.sharing_locus(tri, label), center)
            name = "plane" if label.kind == "side" else "skew"
            print(f"  {name} {label.name}: {_g(d)}")
        print(f"  cocyclic residual: {_g(cocyclic_degeneracy(tri, center))}")
    if args.out:
        sceneio.write_csv(args.out, ["i", "j", "label", "residual"], pair_rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    ids = scenes.THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    rows = []
    for tid in ids:
        rep = scenes.verify_theorem(tid, trials=args.trials, tol=args.tol,
                                    seed=args.seed,
                                    converse_trials=args.converse_trials)
        print(f"theorem {rep.theorem_id}: trials={rep.trials} "
              f"passes={rep.passes} failures={len(rep.failures)} "
              f"skipped={rep.skipped}")
        print(f"pass rate: {rep.pass_rate:.4f}")
        print(f"residuals: max={_g(rep.residual_max)} "
              f"median={_g(rep.residual_median)}")
        for k, v in rep.details.items():
            print(f"  {k}: {v}")
        print(f"wall time: {rep.wall_time:.2f} s")
        for seed, reason in rep.failures[:20]:
            print(f"  FAIL trial {seed}: {reason}")
        rows.append([rep.theorem_id, rep.trials, rep.passes,
                     len(rep.failures), rep.skipped, _g(rep.residual_max),
                     _g(rep.residual_median), f"{rep.wall_time:.3f}"])
    if args.out:
        sceneio.write_csv(args.out, ["theorem", "trials", "passes", "failures",
                                     "skipped", "residual_max",
                                     "residual_median", "wall_time"], rows)
    return EXIT_CAMPAIGN_FAIL if any(r[3] for r in rows) else EXIT_OK


def cmd_export_skew_mesh(args) -> int:
    tri, _, _ = _load(args.scene)
    if args.label == "all":
        root, ext = os.path.splitext(args.out)
        jobs = [(label, f"{root}_{label.name.lower()}{ext}")
                for label in sharing.POINT_LABELS]
    else:
        jobs = [(sharing.SharingLabel[args.label], args.out)]
    for label, path in jobs:
        surf = loci.skewed_danger_cylinder(tri, label)
        verts, faces = loci.skew_mesh(surf, bounds=args.bounds, n=args.grid)
        if len(verts) == 0:
            print(f"empty admissible region of {label.name} in bounds",
                  file=sys.stderr)
            return EXIT_DEGENERATE
        # to_world's float map on the vertex columns: the same operations,
        # elementwise, so the same bits as the per-vertex map (test_cli.py)
        world = np.column_stack(surf.frame._world(verts.T))
        sceneio.write_obj(path, world, faces)
        print(f"wrote {len(verts)} vertices, {len(faces)} faces to {path}")
    return EXIT_OK


def _at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""
    def parse(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"{text} is below {minimum}")
        return int(text)
    parse.__name__ = "int"  # argparse: "invalid int value" for non-integers
    return parse


def _tolerance(text: str) -> float:
    """argparse type: a finite float above 0 (nan fails the comparison)."""
    if not 0.0 < float(text) < np.inf:
        raise argparse.ArgumentTypeError(f"{text} is not finite and above 0")
    return float(text)


_tolerance.__name__ = "float"  # argparse: "invalid float value: ..."


class _Bounds(argparse.Action):
    """--bounds as a tuple: finite, X0 < X1 and Y0 < Y1 (a reversed range
    would flip the faces' winding)."""

    def __call__(self, parser, namespace, b, option_string=None):
        if not (np.isfinite(b).all() and b[0] < b[1] and b[2] < b[3]):
            parser.error(f"{option_string}: need finite X0 < X1 and Y0 < Y1")
        setattr(namespace, self.dest, tuple(b))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="p3pshare",
                                description="P3P multi-solution geometry toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="enumerate all solutions of a scene")
    sp.add_argument("scene")
    sp.add_argument("--tol", type=_tolerance, default=conics.INTERSECT_TOL)
    sp.add_argument("--cluster-tol", type=_tolerance, default=conics.CLUSTER_TOL)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve)

    ap = sub.add_parser("analyze", help="solve plus pair classification and loci")
    ap.add_argument("scene")
    ap.add_argument("--tol", type=_tolerance, default=conics.INTERSECT_TOL)
    ap.add_argument("--tol-class", type=_tolerance, default=sharing.LINE_TOL)
    ap.add_argument("--out", default=None)
    ap.set_defaults(func=cmd_analyze)

    vp = sub.add_parser("verify", help="run theorem-verification campaigns")
    vp.add_argument("theorem", choices=(*scenes.THEOREM_IDS, "all"))
    vp.add_argument("--trials", type=_at_least(1), default=None)
    vp.add_argument("--converse-trials", type=_at_least(0), default=None)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--tol", type=_tolerance, default=sharing.LINE_TOL)
    vp.add_argument("--out", default=None)
    vp.set_defaults(func=cmd_verify)

    mp = sub.add_parser("export-skew-mesh",
                        help="triangulated mesh of a skewed danger cylinder")
    mp.add_argument("scene")
    mp.add_argument("--label", default="POINT_A",
                    choices=[*(l.name for l in sharing.POINT_LABELS), "all"])
    mp.add_argument("--grid", type=_at_least(2), default=96)
    mp.add_argument("--bounds", type=float, nargs=4, action=_Bounds,
                    metavar=("X0", "X1", "Y0", "Y1"))
    mp.add_argument("--out", required=True)
    mp.set_defaults(func=cmd_export_skew_mesh)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here rather than at exit
        return code
    except BrokenPipeError:  # quietly; stdout to devnull for the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
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


if __name__ == "__main__":
    run()
