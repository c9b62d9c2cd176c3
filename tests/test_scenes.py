"""Random scene generation, the grid oracle, and verification campaigns."""

import json
from pathlib import Path

import numpy as np
import pytest

from p3pshare.geometry import ViewAngles
from p3pshare.scenes import (GridConfig, SceneConfig, brute_force_solutions,
                             random_scene, scene_from_center, true_triplet,
                             verify_theorem, THEOREM_IDS)
from p3pshare.solver import constraint_residuals, solve

from conftest import EQ1_RATIOS

GOLDEN = Path(__file__).parent / "data" / "campaign_reports.json"

#: (trials, converse_trials) per theorem id of the golden campaign reports
GOLDEN_PLANS = {
    "side_nsc": (30, 20),
    "point_nsc": (30, 20),
    "companion": (200, None),
    "danger_repeat": (12, 12),
    "construct_side": (30, None),
    "construct_point": (60, None),
}
GOLDEN_SEEDS = (1, 2, 3)


def campaign_record(theorem_id: str, seed: int) -> dict:
    """Every deterministic field of a golden campaign, residuals as float.hex."""
    trials, converse = GOLDEN_PLANS[theorem_id]
    rep = verify_theorem(theorem_id, trials, seed=seed,
                         converse_trials=converse)
    rec = dict(passes=rep.passes, skipped=rep.skipped, failures=rep.failures,
               details=rep.details,
               residuals=[float(r).hex() for r in rep.residuals])
    return json.loads(json.dumps(rec))  # tuples compare as the stored lists


class TestRandomScene:
    def test_deterministic_given_generator_state(self):
        a = random_scene(np.random.default_rng(42))
        b = random_scene(np.random.default_rng(42))
        np.testing.assert_array_equal(a.center, b.center)
        np.testing.assert_array_equal(np.array(a.triangle.points),
                                      np.array(b.triangle.points))

    def test_respects_bounds(self):
        cfg = SceneConfig()
        rng = np.random.default_rng(0)
        for _ in range(20):
            sc = random_scene(rng, cfg)
            assert min(sc.triangle.sides) >= cfg.min_side
            assert abs(sc.center[2]) >= 0.1
            assert cfg.z_range[0] <= abs(sc.center[2]) <= cfg.z_range[1]

    def test_true_triplet_solves_constraints(self):
        sc = random_scene(np.random.default_rng(8))
        res = constraint_residuals(true_triplet(sc), sc.triangle.sides,
                                   sc.angles)
        assert max(abs(r) for r in res) < 1e-12


class TestGridOracle:
    def test_eq1_clusters(self):
        va = ViewAngles(0.625, 0.625, 0.625)
        pts = brute_force_solutions((1.0, 1.0, 1.0), va)
        assert len(pts) == 4
        got = sorted((round(p.u, 6), round(p.v, 6)) for p in pts)
        assert got == sorted(EQ1_RATIOS)

    def test_agrees_with_quartic_path(self):
        rng = np.random.default_rng(21)
        grid = GridConfig()
        for _ in range(5):
            sc = random_scene(rng)
            oracle = brute_force_solutions(sc.triangle.sides, sc.angles, grid)
            sol = solve(sc.triangle, sc.angles)
            fast = [(s.ratio.u, s.ratio.v) for s in sol.solutions
                    if s.ratio.u <= grid.u_max and s.ratio.v <= grid.u_max]
            assert len(oracle) == len(fast)
            for u, v in fast:
                best = min(abs(u - p.u) + abs(v - p.v) for p in oracle)
                assert best < 1e-6


class TestVerifyTheorem:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            verify_theorem("no_such_claim", trials=1)

    def test_nonpositive_trials_rejected(self):
        with pytest.raises(ValueError):
            verify_theorem("side_nsc", trials=0)

    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_small_campaign_passes(self, theorem_id):
        rep = verify_theorem(theorem_id, trials=6, seed=1)
        assert rep.theorem_id == theorem_id
        assert not rep.failures, rep.failures
        assert rep.wall_time >= 0.0

    @pytest.mark.parametrize("theorem_id, trials, seed", [
        # in trial 23 of each, two of the four solutions share u
        ("side_nsc", 30, 4293933281),
        ("point_nsc", 60, 1343275688),
    ])
    def test_pair_found_when_two_solutions_share_u(self, theorem_id, trials,
                                                   seed):
        rep = verify_theorem(theorem_id, trials, seed=seed, converse_trials=30)
        assert not rep.failures, rep.failures

    def test_danger_repeat_root_sharing_u_with_another(self):
        # in trial 6 a simple root lies 1.2e-5 from the double root in u:
        # the eliminant in u shows 2 distinct roots, the one in v shows 3
        rep = verify_theorem("danger_repeat", 12, seed=2157071197,
                             converse_trials=12)
        assert not rep.failures, rep.failures

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_golden_campaign_report(self, theorem_id, seed):
        """Reports equal, field for field and bit for bit, the stored ones."""
        want = json.loads(GOLDEN.read_text())[theorem_id][str(seed)]
        assert campaign_record(theorem_id, seed) == want

    def test_report_counts_are_consistent(self):
        rep = verify_theorem("construct_side", trials=5, seed=2)
        assert rep.passes + len(rep.failures) + rep.skipped >= rep.trials
        assert 0.0 <= rep.pass_rate <= 1.0
