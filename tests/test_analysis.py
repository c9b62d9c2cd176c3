"""The analyze pass bit for bit: scene parsing, view angles, solve, pair
classification and the companion check on scenes viewed from the loci."""

import json
from pathlib import Path

import pytest

from p3pshare.errors import DegenerateAngleError, P3PError
from p3pshare.geometry import ViewAngles, view_angles_from_center
from p3pshare.scenes import _locus_scene, _trial_rngs
from p3pshare.sceneio import parse_scene, serialize_scene
from p3pshare.sharing import (LINE_TOL, POINT_LABELS, SIDE_LABELS,
                              classify_solution_set, companion_check)
from p3pshare.solver import solve

from test_geometry import assert_is_its_twin
from test_sharing import _hex

CORPUS = Path(__file__).parent / "data" / "analysis_corpus.json"
#: the seven loci: the three side planes, the three skew surfaces and the
#: danger cylinder (None), where solve meets its tangencies
LOCI = (*SIDE_LABELS, *POINT_LABELS, None)
PER_LOCUS = 20


def analysis_record(text: str) -> list:
    """`p3pshare analyze`'s library calls on one scene text, by float.hex:
    the control points and centre, the cosines, every solution, the pair
    classification and the companion report; a stage that raises gives its
    error type and message instead."""
    tri, center, _, _ = parse_scene(text)
    record = [[_hex(x) for p in (*tri.points, center) for x in p]]
    try:
        angles = view_angles_from_center(tri, center)
        record.append([_hex(x) for x in angles.cosines])
        sol = solve(tri, angles)
        record.append([[*map(_hex, (*s.triplet.values, s.ratio.u, s.ratio.v)),
                        s.ratio.multiplicity, s.repeated]
                       for s in sol.solutions])
        cls = classify_solution_set(sol, tri, angles, tol=LINE_TOL)
        record.append([[i, j, label.name, _hex(r)]
                       for i, j, label, r in cls.pairs])
        record.append(list(cls.repeated_indices))
        comp = companion_check(sol, tri, angles, tol=LINE_TOL)
        record.append([comp.applicable, comp.companion_ok,
                       [[f.shift, [list(p) for p in f.side_pairs],
                         [list(p) for p in f.point_pairs],
                         _hex(f.identity_residual),
                         _hex(f.factorization_residual), f.companion_ok]
                        for f in comp.families]])
    except P3PError as exc:
        record.append([type(exc).__name__, str(exc)])
    return record


def analysis_corpus() -> dict:
    """PER_LOCUS scenes per locus, from _locus_scene on fixed generators,
    each fed to the pass as its serialize_scene text."""
    corpus = {}
    for t, rng in enumerate(_trial_rngs(613, PER_LOCUS * len(LOCI))):
        label = LOCI[t % len(LOCI)]
        scene = _locus_scene(rng, label)
        key = f"{'cylinder' if label is None else label.name}#{t}"
        corpus[key] = None if scene is None else analysis_record(
            serialize_scene(scene.triangle, center=scene.center))
    return corpus


def write_corpus(path=CORPUS) -> None:
    """Write the corpus, one scene per line."""
    lines = [f" {json.dumps(k)}: {json.dumps(v)}"
             for k, v in analysis_corpus().items()]
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n")


class TestAnalysisCorpus:
    def test_matches_stored_bits(self):
        want = json.loads(CORPUS.read_text())
        got = analysis_corpus()
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], key

    def test_corpus_reaches_every_branch(self):
        """Tangencies, pairs of both kinds and companion families occur."""
        records = [r for r in json.loads(CORPUS.read_text()).values() if r]
        solved = [r for r in records if len(r) == 6]
        repeated = sum(s[-1] for r in solved for s in r[2])
        kinds = {p[2].split("_")[0] for r in solved for p in r[3]}
        families = sum(f[-1] is not None for r in solved for f in r[5][2])
        assert len(solved) >= 130
        assert repeated >= 10 and kinds == {"SIDE", "POINT"}
        assert families >= 20


class TestAnalysisRecords:
    """The ViewAngles, PairClassification, FamilyReports and CompanionReport
    of the pass are built by geometry._record; each is what its dataclass
    __init__ would build."""

    def test_records_match_their_twins(self):
        kinds = set()
        for t, rng in enumerate(_trial_rngs(617, 28)):
            scene = _locus_scene(rng, LOCI[t % len(LOCI)])
            tri = scene.triangle
            angles = view_angles_from_center(tri, scene.center)
            sol = solve(tri, angles)
            comp = companion_check(sol, tri, angles)
            for obj in (angles, classify_solution_set(sol, tri, angles),
                        comp, *comp.families):
                kinds.add(type(obj).__name__)
                assert_is_its_twin(obj)
        assert kinds == {"ViewAngles", "PairClassification",
                         "CompanionReport", "FamilyReport"}

    def test_view_angles_record_runs_its_checks(self, eq1_triangle):
        """view_angles_from_center's builder runs ViewAngles.__post_init__:
        a centre just above the centroid sees angles that sum to 2 pi in
        floats, and raises as ViewAngles itself raises."""
        O = [0.5, 0.2886751345948129, 1e-9]
        with pytest.raises(DegenerateAngleError) as got:
            view_angles_from_center(eq1_triangle, O)
        with pytest.raises(DegenerateAngleError) as want:
            ViewAngles(-0.5, -0.5, -0.5)
        assert str(got.value) == str(want.value)
