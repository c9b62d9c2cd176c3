"""Command-line interface: subcommands, outputs, exit codes."""

import json

import numpy as np
import pytest

from p3pshare import solver
from p3pshare.cli import (EXIT_CAMPAIGN_FAIL, EXIT_DEGENERATE,
                          EXIT_INCONSISTENT, EXIT_IO, EXIT_OK, EXIT_PARSE, main)
from p3pshare.errors import InconsistentInputError
from p3pshare.sceneio import read_obj, serialize_scene

from test_sceneio import MALFORMED_SCENES


@pytest.fixture
def eq1_scene_path(tmp_path, eq1_triangle, eq1_center):
    path = tmp_path / "eq1.json"
    path.write_text(serialize_scene(eq1_triangle, center=eq1_center))
    return str(path)


@pytest.fixture
def cocyclic_scene_path(tmp_path, eq1_triangle):
    # viewpoint on the circumcircle in the base plane: degenerate pencil
    path = tmp_path / "bad.json"
    doc = {"controlPoints": [[float(x) for x in p]
                             for p in eq1_triangle.points],
           "opticalCenter": [0.5 - 1.0 / 3 ** 0.5, 0.28867513459481287, 0.0]}
    path.write_text(json.dumps(doc))
    return str(path)


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

    def test_degenerate_scene(self, cocyclic_scene_path, capsys):
        assert main(["solve", cocyclic_scene_path]) == EXIT_DEGENERATE

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
