"""Command-line interface: subcommands, outputs, exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from p3pshare import scenes, sharing, solver
from p3pshare.cli import (EXIT_CAMPAIGN_FAIL, EXIT_DEGENERATE,
                          EXIT_INCONSISTENT, EXIT_IO, EXIT_OK, EXIT_PARSE,
                          EXIT_PIPE, main)
from p3pshare.errors import DegeneratePencilError, InconsistentInputError
from p3pshare.geometry import view_angles_from_center
from p3pshare.loci import skew_mesh, skewed_danger_cylinder
from p3pshare.sceneio import load_scene, read_obj, serialize_scene
from p3pshare.sharing import POINT_LABELS, SharingLabel

from test_sceneio import MALFORMED_SCENES

ROOT = Path(__file__).resolve().parent.parent
EQUILATERAL = str(ROOT / "scenes" / "equilateral.json")
#: O on the circumcircle of (0,0,0), (1,0,0), (0.3,0.8,0), lifted 1e-8: valid
#: view angles whose conic pencil is degenerate
COCYCLIC_LIFTED = str(ROOT / "scenes" / "cocyclic_lifted.json")
#: a danger-cylinder viewpoint on which solve reports a repeated root
DANGER_CYLINDER = str(ROOT / "scenes" / "danger_cylinder.json")


@pytest.fixture
def eq1_scene_path(tmp_path, eq1_triangle, eq1_center):
    path = tmp_path / "eq1.json"
    path.write_text(serialize_scene(eq1_triangle, center=eq1_center))
    return str(path)


@pytest.fixture
def cocyclic_scene_path(tmp_path, eq1_triangle):
    # viewpoint on the circumcircle in the base plane: ViewAngles rejects it
    # (DegenerateAngleError, spherical triangle inequality) before any pencil
    path = tmp_path / "bad.json"
    doc = {"controlPoints": [[float(x) for x in p]
                             for p in eq1_triangle.points],
           "opticalCenter": [0.5 - 1.0 / 3 ** 0.5, 0.28867513459481287, 0.0]}
    path.write_text(json.dumps(doc))
    return str(path)


def assert_degenerate(command, cocyclic_path, scene_path, monkeypatch,
                      capsys):
    """Exit 3 with one stderr message and no stdout, both for the cocyclic
    scene and for a degenerate pencil raised inside solve."""
    def pencil(*args, **kwargs):
        raise DegeneratePencilError("conics share a component")

    assert main([command, cocyclic_path]) == EXIT_DEGENERATE
    monkeypatch.setattr(solver, "solve", pencil)
    assert main([command, scene_path]) == EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.out == ""
    first, second = captured.err.splitlines()
    assert first.startswith("degenerate scene:")
    assert second == "degenerate scene: conics share a component"


def assert_pencil_degenerate(command, capsys):
    """The lifted cocyclic scene: solve itself raises DegeneratePencilError,
    and the command exits 3 with one stderr line and no stdout."""
    tri, center, _, _ = load_scene(COCYCLIC_LIFTED)
    with pytest.raises(DegeneratePencilError):
        solver.solve(tri, view_angles_from_center(tri, center))
    assert main([command, COCYCLIC_LIFTED]) == EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "degenerate scene: conics share a component\n"


class TestSolve:
    def test_eq1(self, eq1_scene_path, capsys):
        assert main(["solve", eq1_scene_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "solutions: 4" in out

    def test_csv_output(self, eq1_scene_path, tmp_path, capsys):
        out_csv = str(tmp_path / "sol.csv")
        assert main(["solve", eq1_scene_path, "--out", out_csv]) == EXIT_OK
        lines = Path(out_csv).read_text().splitlines()
        assert lines[0].startswith("s1,s2,s3,u,v")
        assert len(lines) == 5

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/scene.json"]) == EXIT_IO

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{")
        assert main(["solve", str(p)]) == EXIT_PARSE

    @pytest.mark.parametrize("doc", list(MALFORMED_SCENES.values()),
                             ids=list(MALFORMED_SCENES))
    def test_malformed_scene_exits_parse(self, doc, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(doc)
        assert main(["solve", str(p)]) == EXIT_PARSE
        assert main(["analyze", str(p)]) == EXIT_PARSE

    def test_degenerate_scene(self, cocyclic_scene_path, eq1_scene_path,
                              monkeypatch, capsys):
        assert_degenerate("solve", cocyclic_scene_path, eq1_scene_path,
                          monkeypatch, capsys)

    def test_degenerate_pencil_scene(self, capsys):
        assert_pencil_degenerate("solve", capsys)

    def test_inconsistent_solution(self, eq1_scene_path, monkeypatch, capsys):
        def leak(*args, **kwargs):
            raise InconsistentInputError("ratio point violates the basic constraints")

        monkeypatch.setattr(solver, "solve", leak)
        assert main(["solve", eq1_scene_path]) == EXIT_INCONSISTENT
        assert "inconsistent solution" in capsys.readouterr().err


#: sha256 of the stdout of `p3pshare analyze` on each scene of
#: TestAnalyze.test_stdout_bytes
ANALYZE_STDOUT_SHA256 = {
    "equilateral":
        "d0a005dbf87a993d58bb2a008f817ea9c814e05800d64d85fec7a7d75bd2eabb",
    "locus":
        "9f27ba63600d20fa693a222036456481cbdcac9abb56075e8971319d5e2d30b2",
    "danger_cylinder":
        "d40d0ef2d72b727cc7395d3f11e99e09a91a3fc65ccf6fc939aebedd12d8303c",
}

#: sha256 of the stdout of `p3pshare verify all --trials 12` (the default
#: seed 0), with its `wall time:` lines removed: TestVerify.test_stdout_bytes
VERIFY_ALL_STDOUT_SHA256 = \
    "4d4e2ab52e76bdbd636ad7739b3cff7e44428c5cb9935c209ec4e56eac42ff6f"


class TestAnalyze:
    def test_eq1_reports_pairs_and_loci(self, eq1_scene_path, capsys):
        assert main(["analyze", eq1_scene_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "solutions: 4" in out
        assert "sharing pairs:" in out
        for name in ("SIDE_BC", "POINT_A", "SIDE_AB", "SIDE_CA",
                     "POINT_B", "POINT_C"):
            assert name in out
        assert "companion structure ok: True" in out
        assert "danger cylinder:" in out

    def test_degenerate_scene(self, cocyclic_scene_path, eq1_scene_path,
                              monkeypatch, capsys):
        assert_degenerate("analyze", cocyclic_scene_path, eq1_scene_path,
                          monkeypatch, capsys)

    def test_degenerate_pencil_scene(self, capsys):
        assert_pencil_degenerate("analyze", capsys)

    def test_right_angle_degeneracy_exits_degenerate(self, monkeypatch,
                                                     capsys):
        """companion_check raises RightAngleDegeneracyError on a family with
        a pair whose cos beta or cos gamma is below _RIGHT_ANGLE_TOL: with
        the tolerance at 1, every such cosine is. Nothing is printed first,
        as on every other degenerate exit."""
        monkeypatch.setattr(sharing, "_RIGHT_ANGLE_TOL", 1.0)
        assert main(["analyze", EQUILATERAL]) == EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "degenerate scene: denominator cosine vanishes\n"

    def test_stdout_bytes(self, tmp_path, capsys):
        """The full report, byte for byte, on the equilateral scene, on a
        four-solution SIDE_AB locus scene whose family 2 carries a companion
        pair, and on a danger-cylinder scene with a repeated root."""
        scene = scenes._locus_scene(scenes._trial_rngs(5, 1)[0],
                                    SharingLabel.SIDE_AB)
        locus = tmp_path / "locus.json"
        locus.write_text(serialize_scene(scene.triangle, center=scene.center))
        got = {}
        for name, path in (("equilateral", EQUILATERAL), ("locus", locus),
                           ("danger_cylinder", DANGER_CYLINDER)):
            assert main(["analyze", str(path)]) == EXIT_OK
            out = capsys.readouterr().out
            got[name] = hashlib.sha256(out.encode()).hexdigest()
            if name == "locus":
                assert "solutions: 4" in out and "SIDE_AB" in out \
                    and "POINT_C" in out
        assert "repeated solutions: [2]" in out
        assert got == ANALYZE_STDOUT_SHA256


class TestVerify:
    def test_small_campaign(self, capsys):
        assert main(["verify", "construct_side", "--trials", "3",
                     "--seed", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "theorem construct_side" in out
        assert "pass rate:" in out

    def test_unknown_theorem(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "bogus", "--trials", "1"])

    def test_csv_report(self, tmp_path, capsys):
        out_csv = str(tmp_path / "rep.csv")
        assert main(["verify", "construct_side", "--trials", "2",
                     "--seed", "5", "--out", out_csv]) == EXIT_OK
        lines = Path(out_csv).read_text().splitlines()
        assert lines[0].startswith("theorem,trials,passes")

    def test_all_writes_one_row_per_id(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        assert main(["verify", "all", "--trials", "12",
                     "--out", str(out_csv)]) == EXIT_OK
        with open(out_csv, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["theorem", "trials", "passes", "failures",
                          "skipped", "residual_max", "residual_median",
                          "wall_time"]
        assert [r[0] for r in rows] == list(scenes.THEOREM_IDS)
        assert all(r[1] == "12" for r in rows)
        out = capsys.readouterr().out
        assert out.count("theorem ") == len(scenes.THEOREM_IDS)

    def test_stdout_bytes(self, capsys):
        """Every campaign's counts, details, residuals and failures at the
        CLI's default seed, byte for byte, without the wall times."""
        assert main(["verify", "all", "--trials", "12"]) == EXIT_OK
        out = "".join(line for line in
                      capsys.readouterr().out.splitlines(keepends=True)
                      if not line.startswith("wall time:"))
        assert out.count("theorem ") == len(scenes.THEOREM_IDS)
        assert hashlib.sha256(out.encode()).hexdigest() \
            == VERIFY_ALL_STDOUT_SHA256

    @pytest.fixture
    def counts_seen(self, monkeypatch):
        """Replace every campaign by one that only records its counts."""
        seen = {}
        for tid, (_, *plan) in list(scenes._CAMPAIGNS.items()):
            def fake(rep, tol, seed, nconv, tid=tid):
                seen[tid] = (rep.trials, nconv)
                rep.passes = rep.trials
            monkeypatch.setitem(scenes._CAMPAIGNS, tid, (fake, *plan))
        return seen

    def test_counts_default_to_the_plan(self, counts_seen, capsys):
        assert main(["verify", "all"]) == EXIT_OK
        assert counts_seen == {
            "side_nsc": (1500, 2000), "point_nsc": (1500, 2000),
            "companion": (10000, 0), "danger_repeat": (200, 200),
            "construct_side": (300, 0), "construct_point": (300, 0)}
        counts_seen.clear()
        assert main(["verify", "danger_repeat", "--converse-trials", "3"]) \
            == EXIT_OK
        assert counts_seen == {"danger_repeat": (200, 3)}

    def test_explicit_trials_replace_the_plan(self, counts_seen, capsys):
        assert main(["verify", "all", "--trials", "7"]) == EXIT_OK
        assert counts_seen == dict.fromkeys(scenes.THEOREM_IDS, (7, 7))

    @pytest.mark.parametrize("theorem, flag, value", [
        ("companion", "--tol", "5"), ("danger_repeat", "--tol", "1e-3"),
        ("construct_side", "--converse-trials", "9"),
        ("companion", "--converse-trials", "0"),
        ("construct_point", "--converse-trials", "3"),
    ])
    def test_unread_flag_exits_parse(self, counts_seen, theorem, flag, value,
                                     capsys):
        """A flag that the one named id does not read: exit 2 before any
        campaign runs, naming the ids that read it."""
        readers = scenes.TOL_IDS if flag == "--tol" else scenes.CONVERSE_IDS
        assert theorem not in readers
        assert main(["verify", theorem, "--trials", "2", flag, value]) \
            == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and counts_seen == {}
        assert captured.err == (
            f"p3pshare verify: error: {theorem} does not read {flag}; it is "
            f"read by {', '.join(readers)}\n")

    def test_flags_reach_the_ids_that_read_them(self, monkeypatch, capsys):
        """The ids that read --tol and --converse-trials take them when
        named; 'all' hands them to every id, and left out they are the
        library's defaults."""
        seen = []

        def spy(tid, **kwargs):
            seen.append((tid, kwargs["tol"], kwargs["converse_trials"]))
            return scenes.CampaignReport(theorem_id=tid, trials=1, passes=1)

        monkeypatch.setattr(scenes, "verify_theorem", spy)
        for tid in scenes.TOL_IDS:
            assert main(["verify", tid, "--tol", "1e-3"]) == EXIT_OK
        for tid in scenes.CONVERSE_IDS:
            assert main(["verify", tid, "--converse-trials", "4"]) == EXIT_OK
        assert main(["verify", "all", "--tol", "1e-3",
                     "--converse-trials", "4"]) == EXIT_OK
        assert main(["verify", "companion"]) == EXIT_OK
        assert seen == [
            *((tid, 1e-3, None) for tid in scenes.TOL_IDS),
            *((tid, sharing.LINE_TOL, 4) for tid in scenes.CONVERSE_IDS),
            *((tid, 1e-3, 4) for tid in scenes.THEOREM_IDS),
            ("companion", sharing.LINE_TOL, None)]
        assert scenes.TOL_IDS == ("side_nsc", "point_nsc", "construct_side",
                                  "construct_point")
        assert scenes.CONVERSE_IDS == ("side_nsc", "point_nsc",
                                       "danger_repeat")

    def test_all_fails_when_one_id_fails(self, monkeypatch, capsys):
        def fail(rep, tol, seed, nconv):
            rep.record(False, 0, "injected")

        _, *plan = scenes._CAMPAIGNS["companion"]
        monkeypatch.setitem(scenes._CAMPAIGNS, "companion", (fail, *plan))
        assert main(["verify", "all", "--trials", "2"]) == EXIT_CAMPAIGN_FAIL
        assert "FAIL trial 0: injected" in capsys.readouterr().out

    def test_failures_in_trial_order(self, monkeypatch, capsys):
        """Forward trials by number, then converse trials by number: trial
        10 after trial 9, and every converse failure after the forward
        ones, whatever order the campaign records them in."""
        def fail(rep, tol, seed, nconv):
            for t in (("converse", 3), 10, ("converse", 1), 2):
                rep.failures.append((t, "injected"))

        _, *plan = scenes._CAMPAIGNS["companion"]
        monkeypatch.setitem(scenes._CAMPAIGNS, "companion", (fail, *plan))
        rep = scenes.verify_theorem("companion", trials=12)
        assert [s for s, _ in rep.failures] \
            == [2, 10, ("converse", 1), ("converse", 3)]
        assert main(["verify", "companion", "--trials", "12"]) \
            == EXIT_CAMPAIGN_FAIL
        printed = [line.split(":")[0] for line in
                   capsys.readouterr().out.splitlines() if "FAIL" in line]
        assert printed == ["  FAIL trial 2", "  FAIL trial 10",
                           "  FAIL trial ('converse', 1)",
                           "  FAIL trial ('converse', 3)"]

    @pytest.mark.parametrize("flag, value", [
        ("--trials", "0"), ("--trials", "-3"), ("--trials", "two"),
        ("--converse-trials", "-1"), ("--seed", "-1"),
    ])
    def test_bad_count_exits_parse(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "side_nsc", "--trials", "2", flag, value])
        assert exc.value.code == EXIT_PARSE
        assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("argv, flag", [
    (["solve", EQUILATERAL], "--tol"),
    (["solve", EQUILATERAL], "--cluster-tol"),
    (["analyze", EQUILATERAL], "--tol"),
    (["analyze", EQUILATERAL], "--tol-class"),
    (["verify", "side_nsc", "--trials", "2"], "--tol"),
], ids=["solve-tol", "solve-cluster-tol", "analyze-tol", "analyze-tol-class",
        "verify-tol"])
def test_bad_tolerance_exits_parse(argv, flag, value, capsys):
    """A tolerance must be finite and above 0: exit 2 with a usage line."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{flag}={value}"])
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err


#: sha256 of the files that `export-skew-mesh scenes/equilateral.json --label
#: all` writes at the default grid
EQUILATERAL_OBJ_SHA256 = {
    "surf_point_a.obj":
        "89ecc12e73703acb592789a8f011d72231522bb259586f39202d9b7985fdfba3",
    "surf_point_b.obj":
        "4d5487dc28c3256cb72474114453c868e1dec312113cd0fa0d8780a6e6d775f0",
    "surf_point_c.obj":
        "8d7a19ec2f463f3b44c10b1e082867915291a22a7d0ebf2fbe206a0a3165e193",
}


class TestExportSkewMesh:
    def test_equilateral_bytes(self, tmp_path, capsys):
        assert main(["export-skew-mesh", EQUILATERAL, "--label", "all",
                     "--out", str(tmp_path / "surf.obj")]) == EXIT_OK
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.obj")}
        assert got == EQUILATERAL_OBJ_SHA256

    def test_writes_valid_mesh(self, eq1_scene_path, tmp_path, capsys):
        out_obj = str(tmp_path / "surf.obj")
        code = main(["export-skew-mesh", eq1_scene_path, "--grid", "32",
                     "--out", out_obj])
        assert code == EXIT_OK
        verts, faces = read_obj(out_obj)
        assert len(verts) > 0 and len(faces) > 0
        assert max(max(f) for f in faces) <= len(verts)

    def test_vertices_are_mapped_per_vertex(self, tmp_path, capsys):
        """The written vertices equal, bit for bit, to_world of each mesh
        vertex, on random triangles (the golden bytes above hold one)."""
        for k, rng in enumerate(scenes._trial_rngs(31, 12)):
            sc = scenes.random_scene(rng)
            scene = tmp_path / f"s{k}.json"
            scene.write_text(serialize_scene(sc.triangle, center=sc.center))
            out = tmp_path / f"s{k}.obj"
            assert main(["export-skew-mesh", str(scene), "--label", "all",
                         "--grid", "24", "--out", str(out)]) == EXIT_OK
            for label in POINT_LABELS:
                surf = skewed_danger_cylinder(sc.triangle, label)
                verts, _ = skew_mesh(surf, n=24)
                want = np.array([surf.frame.to_world(v) for v in verts])
                got, _ = read_obj(str(tmp_path /
                                      f"s{k}_{label.name.lower()}.obj"))
                assert got.tobytes() == want.tobytes()

    def test_label_choices(self, eq1_scene_path, tmp_path):
        out_obj = str(tmp_path / "surf_b.obj")
        code = main(["export-skew-mesh", eq1_scene_path, "--label", "POINT_B",
                     "--grid", "24", "--out", out_obj])
        assert code == EXIT_OK

    def test_label_all_writes_three_meshes(self, tmp_path, capsys):
        assert main(["export-skew-mesh", EQUILATERAL, "--label", "all",
                     "--grid", "24", "--out", str(tmp_path / "surf.obj")]) \
            == EXIT_OK
        paths = sorted(tmp_path.glob("*.obj"))
        assert [p.name for p in paths] == [
            "surf_point_a.obj", "surf_point_b.obj", "surf_point_c.obj"]
        for path in paths:
            verts, faces = read_obj(str(path))
            assert len(verts) > 0 and len(faces) > 0
            one = tmp_path / "one" / path.name
            one.parent.mkdir(exist_ok=True)
            label = path.stem.removeprefix("surf_").upper()
            assert main(["export-skew-mesh", EQUILATERAL, "--label", label,
                         "--grid", "24", "--out", str(one)]) == EXIT_OK
            assert one.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("grid", ["-1", "0", "1"])
    def test_bad_grid_exits_parse(self, eq1_scene_path, tmp_path, grid,
                                  capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export-skew-mesh", eq1_scene_path, "--grid", grid,
                  "--out", str(tmp_path / "x.obj")])
        assert exc.value.code == EXIT_PARSE
        assert not (tmp_path / "x.obj").exists()

    @pytest.mark.parametrize("bounds", [
        ["nan", "1", "0", "1"],      # wrote 109 vertices and no face
        ["0", "inf", "0", "1"],      # a RuntimeWarning, then "empty region"
        ["0", "1", "0", "inf"],
        ["0.4", "0.4", "-1", "1"],   # wrote 16340 zero-area faces
        ["0", "1", "0.5", "0.5"],
        ["1", "0", "0", "1"],        # reversed: flipped the faces' winding
        ["0", "1", "1", "0"],
    ])
    def test_bad_bounds_exits_parse(self, tmp_path, bounds, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export-skew-mesh", EQUILATERAL, "--bounds", *bounds,
                  "--out", str(tmp_path / "x.obj")])
        assert exc.value.code == EXIT_PARSE
        assert "X0 < X1 and Y0 < Y1" in capsys.readouterr().err
        assert not (tmp_path / "x.obj").exists()

    def test_bounds_reach_the_mesh(self, tmp_path, capsys):
        out_obj = tmp_path / "x.obj"
        assert main(["export-skew-mesh", EQUILATERAL, "--grid", "40",
                     "--bounds", "-1", "2", "-1.5", "2",
                     "--out", str(out_obj)]) == EXIT_OK
        tri = load_scene(EQUILATERAL)[0]
        verts, faces = skew_mesh(skewed_danger_cylinder(tri), n=40,
                                 bounds=(-1.0, 2.0, -1.5, 2.0))
        got_v, got_f = read_obj(str(out_obj))
        assert got_v.shape == verts.shape
        assert got_f == [list(f) for f in faces]


VERIFY_3 = [sys.executable, "-m", "p3pshare", "verify", "construct_side",
            "--trials", "3"]


def source_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


class TestModuleEntry:
    def test_python_m_runs_a_command(self):
        done = subprocess.run(VERIFY_3, env=source_env(), capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert "theorem construct_side: trials=3" in done.stdout
        assert "pass rate:" in done.stdout


class TestBrokenPipe:
    """A reader that leaves early, as `p3pshare verify ... | head -1` does,
    ends the command with EXIT_PIPE and nothing on stderr."""

    # unbuffered, the first print fails inside the command; block-buffered,
    # the flush after it does
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_exits_quietly(self, unbuffered):
        env = source_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        try:
            done = subprocess.run(VERIFY_3, env=env, stdout=write,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=120)
        finally:
            os.close(write)
        assert done.returncode == EXIT_PIPE
        assert done.stderr == ""
