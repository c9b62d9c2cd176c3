"""Smoke runs of the scripts in scripts/."""

import csv
import importlib.util
from pathlib import Path

from p3pshare.sceneio import read_obj

ROOT = Path(__file__).resolve().parent.parent


def _script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_run_campaigns_smoke(tmp_path):
    out = tmp_path / "campaigns.csv"
    assert _script("run_campaigns").main(
        ["--scale", "smoke", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[0] == "theorem"
    assert len(rows) == 6


def test_export_skew_mesh_writes_three_meshes(tmp_path):
    scene = ROOT / "scenes" / "equilateral.json"
    assert _script("export_skew_mesh").main(
        [str(scene), str(tmp_path), "--grid", "24"]) == 0
    paths = sorted(tmp_path.glob("*.obj"))
    assert len(paths) == 3
    for path in paths:
        verts, faces = read_obj(str(path))
        assert len(verts) > 0 and len(faces) > 0
