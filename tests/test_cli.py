"""Command-line interface: subcommands, outputs, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from p3pshare import scenes, solver
from p3pshare.cli import (EXIT_CAMPAIGN_FAIL, EXIT_DEGENERATE,
                          EXIT_INCONSISTENT, EXIT_IO, EXIT_OK, EXIT_PARSE,
                          EXIT_PIPE, main)
from p3pshare.errors import DegeneratePencilError, InconsistentInputError
from p3pshare.loci import skew_mesh, skewed_danger_cylinder
from p3pshare.sceneio import load_scene, read_obj, serialize_scene

from test_sceneio import MALFORMED_SCENES

ROOT = Path(__file__).resolve().parent.parent
EQUILATERAL = str(ROOT / "scenes" / "equilateral.json")


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


class TestSolve:
    def test_eq1(self, eq1_scene_path, capsys):
        assert main(["solve", eq1_scene_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "solutions: 4" in out

    def test_csv_output(self, eq1_scene_path, tmp_path, capsys):
        out_csv = str(tmp_path / "sol.csv")
        assert main(["solve", eq1_scene_path, "--out", out_csv]) == EXIT_OK
        lines = open(out_csv).read().splitlines()
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

    def test_inconsistent_solution(self, eq1_scene_path, monkeypatch, capsys):
        def leak(*args, **kwargs):
            raise InconsistentInputError("ratio point violates the basic constraints")

        monkeypatch.setattr(solver, "solve", leak)
        assert main(["solve", eq1_scene_path]) == EXIT_INCONSISTENT
        assert "inconsistent solution" in capsys.readouterr().err


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
        lines = open(out_csv).read().splitlines()
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

    def test_all_fails_when_one_id_fails(self, monkeypatch, capsys):
        def fail(rep, tol, seed, nconv):
            rep.record(False, 0, "injected")

        _, *plan = scenes._CAMPAIGNS["companion"]
        monkeypatch.setitem(scenes._CAMPAIGNS, "companion", (fail, *plan))
        assert main(["verify", "all", "--trials", "2"]) == EXIT_CAMPAIGN_FAIL
        assert "FAIL trial 0: injected" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--trials", "0"), ("--trials", "-3"), ("--trials", "two"),
        ("--converse-trials", "-1"),
    ])
    def test_bad_count_exits_parse(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "side_nsc", "--trials", "2", flag, value])
        assert exc.value.code == EXIT_PARSE
        assert f"argument {flag}:" in capsys.readouterr().err


class TestExportSkewMesh:
    def test_writes_valid_mesh(self, eq1_scene_path, tmp_path, capsys):
        out_obj = str(tmp_path / "surf.obj")
        code = main(["export-skew-mesh", eq1_scene_path, "--grid", "32",
                     "--out", out_obj])
        assert code == EXIT_OK
        verts, faces = read_obj(out_obj)
        assert len(verts) > 0 and len(faces) > 0
        assert max(max(f) for f in faces) <= len(verts)

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
