"""Random scene generation, the grid oracle, and verification campaigns."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from p3pshare.conics import Conic, build_conics
from p3pshare.geometry import ViewAngles
from p3pshare.scenes import (GridConfig, SceneConfig, _candidate_cells,
                             _centred, _locus_scene, _trial_rngs,
                             brute_force_solutions, random_scene,
                             scene_from_center, true_triplet, verify_theorem,
                             THEOREM_IDS)
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
ORACLE_GOLDEN = Path(__file__).parent / "data" / "oracle_points.json"


def oracle_cases():
    """(name, sides, angles, grid) of every golden grid-oracle scene."""
    cases = []
    for k, rng in enumerate(_trial_rngs(202, 40)):  # criterion 3's first 40
        sc = random_scene(rng)
        cases.append((f"random{k}", sc.triangle.sides, sc.angles, GridConfig()))
    for k, rng in enumerate(_trial_rngs(505, 10)):  # on the danger cylinder
        sc = _locus_scene(rng, None)
        if sc is not None:
            cases.append((f"cylinder{k}", sc.triangle.sides, sc.angles,
                          GridConfig()))
    cases.append(("equilateral", (1.0, 1.0, 1.0),
                  ViewAngles(0.625, 0.625, 0.625), GridConfig()))
    for k, rng in enumerate(_trial_rngs(606, 4)):
        sc = random_scene(rng)
        cases.append((f"n200_{k}", sc.triangle.sides, sc.angles,
                      GridConfig(n=200)))
        cases.append((f"umax5_{k}", sc.triangle.sides, sc.angles,
                      GridConfig(u_max=5.0)))
    return cases


def oracle_record(sides, angles, grid) -> list:
    """The oracle's points as [u, v] pairs of float.hex strings."""
    return [[p.u.hex(), p.v.hex()]
            for p in brute_force_solutions(sides, angles, grid)]


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
            sc = random_scene(rng)
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

    def test_golden_points(self):
        """Points equal, bit for bit, those of the full-grid sign scan."""
        want = json.loads(ORACLE_GOLDEN.read_text())
        got = {name: oracle_record(sides, angles, grid)
               for name, sides, angles, grid in oracle_cases()}
        assert got == want

    def test_agrees_with_pencil_path(self):
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


def full_grid_cells(F1, F2, t):
    """Reference sign scan of every node: cells where both conics change
    sign among the four corners, row-major."""
    U, V = np.meshgrid(t, t, indexing="ij")

    def mixed(S):
        same = (S[:-1, :-1] == S[1:, :-1]) & (S[:-1, :-1] == S[:-1, 1:]) \
            & (S[:-1, :-1] == S[1:, 1:])
        return ~same

    return np.argwhere(mixed(F1(U, V) > 0.0) & mixed(F2(U, V) > 0.0))


def _scene_conics(scenes, grid):
    t = np.linspace(grid.u_max / grid.n, grid.u_max, grid.n)
    for sc in scenes:
        pair = build_conics(sc.triangle.sides, sc.angles)
        yield pair.C1.scaled(), pair.C2.scaled(), t


def _circle(cu, cv, r):
    return Conic(c_vv=1.0, c_uv=0.0, c_uu=1.0, c_u=-2.0 * cu, c_v=-2.0 * cv,
                 c_1=cu * cu + cv * cv - r * r)


def certificate_cases(kind):
    """(F1, F2, t) triples on which the box exclusion is checked."""
    if kind == "random":
        return _scene_conics((random_scene(r) for r in _trial_rngs(707, 4)),
                             GridConfig())
    if kind == "cylinder":
        return _scene_conics((_locus_scene(r, None)
                              for r in _trial_rngs(808, 3)), GridConfig())
    if kind == "n200":
        return _scene_conics((random_scene(r) for r in _trial_rngs(909, 6)),
                             GridConfig(n=200))
    t = np.linspace(0.01, 20.0, 2000)
    if kind == "near_tangent":
        # radii 0.4 cells apart, centres 0.6 cells apart: the circles cross
        # twice and run within a cell of each other all the way round
        return [(_circle(10.0, 10.0, 6.0), _circle(10.006, 10.0, 6.004), t)]
    # lines u = c, v = d on the edges of boxes at every level (node indices
    # are multiples of 128): exactly zero on the first node row or column of
    # a box, or crossing the last cell of a box; lines crossing the last and
    # the first cell of the grid; two parallel lines inside one row of cells,
    # which makes the whole row candidates; then a hyperbola and the diagonal
    # through grid nodes
    u_line = lambda c: Conic(0.0, 0.0, 0.0, 1.0, 0.0, -c)
    v_line = lambda d: Conic(0.0, 0.0, 0.0, 0.0, 1.0, -d)
    mid = lambda k: 0.5 * (t[k - 1] + t[k])
    return [(u_line(t[768]), v_line(t[896]), t),
            (u_line(mid(768)), v_line(mid(896)), t),
            (u_line(mid(1999)), v_line(mid(1)), t),
            (v_line(mid(1000)), v_line(0.25 * t[999] + 0.75 * t[1000]), t),
            (Conic(0.0, 1.0, 0.0, 0.0, 0.0, -t[99] * t[199]),
             Conic(0.0, 0.0, 0.0, 1.0, -1.0, 0.0), t)]


#: the degree of each Conic.terms coefficient (c_vv, c_uv, c_uu, c_u, c_v, c_1)
DEGREES = np.array([2.0, 2.0, 2.0, 1.0, 1.0, 0.0])


def random_conic_rows(rng, log_scale, log_u_max):
    """(F1, F2, t): random coefficient rows on a random grid.

    n is in [20, 260] and u_max in 10^log_u_max; each coefficient is uniform
    in [-1, 1] times u_max^-degree, so that both conics cross the grid, then
    zero with probability 1/4, and the pair is scaled by 10^log_scale.
    Half the pairs are forced through one grid node: c_1 is minus the
    computed sum of the other terms there, so both computed values are
    exactly 0. Half the time that node is a box corner at every level.
    """
    n = int(rng.integers(20, 261))
    u_max = 10.0 ** rng.uniform(*log_u_max)
    t = np.linspace(u_max / n, u_max, n)
    scale = 10.0 ** rng.uniform(*log_scale)
    i, j = rng.integers(0, n, size=2).tolist()
    if rng.random() < 0.5:
        i, j = i - i % 8, j - j % 8
    forced = rng.random() < 0.5
    rows = []
    for _ in range(2):
        c = rng.uniform(-1.0, 1.0, 6) * scale / u_max ** DEGREES
        c[rng.random(6) < 0.25] = 0.0
        c = c.tolist()
        if forced:
            c[5] = -Conic(*c[:5], 0.0)(t[i], t[j])
        rows.append(Conic(*c))
    return (*rows, t)


class TestCandidateCells:
    @pytest.mark.parametrize("kind", ["random", "cylinder", "n200",
                                      "near_tangent", "node_lines"])
    def test_box_exclusion_keeps_every_cell(self, kind):
        """The coarse-to-fine scan finds exactly the full scan's cells."""
        for F1, F2, t in certificate_cases(kind):
            want = full_grid_cells(F1, F2, t)
            assert len(want) > 0
            np.testing.assert_array_equal(_candidate_cells(F1, F2, t), want)

    @pytest.mark.parametrize("seed, pairs, log_scale, log_u_max", [
        (1101, 500, (-150.0, 150.0), (-3.0, 3.0)),
        # subnormal terms, where a first product's rounding error is scaled
        # by a second factor u or v of up to 1000
        (1103, 300, (-318.0, -300.0), (2.0, 3.0)),
    ], ids=["normal", "subnormal"])
    def test_random_coefficient_rows(self, seed, pairs, log_scale, log_u_max):
        """The box exclusion against the full scan on random pairs."""
        rng = np.random.default_rng(seed)
        nonempty = 0
        for _ in range(pairs):
            F1, F2, t = random_conic_rows(rng, log_scale, log_u_max)
            want = full_grid_cells(F1, F2, t)
            nonempty += len(want) > 0
            np.testing.assert_array_equal(_candidate_cells(F1, F2, t), want)
        assert nonempty >= pairs // 3

    def test_half_widths_cover_the_box(self):
        """c - h <= lo and hi <= c + h in exact arithmetic, c in [lo, hi]."""
        rng = np.random.default_rng(1102)
        lo = 10.0 ** rng.uniform(-6.0, 6.0, 3000)
        hi = np.concatenate([np.nextafter(lo[:1000], np.inf),
                             lo[1000:] * (1.0 + 10.0 ** rng.uniform(
                                 -15.0, 1.0, 2000))])
        c, h = _centred(lo, hi)
        for a, b, x, y in zip(lo.tolist(), hi.tolist(), c.tolist(),
                              h.tolist()):
            assert a <= x <= b
            assert Fraction(x) - Fraction(y) <= Fraction(a)
            assert Fraction(b) <= Fraction(x) + Fraction(y)

    def test_empty_grid(self):
        F = _circle(1.0, 1.0, 0.5)
        for t in (np.array([]), np.array([1.0])):
            assert _candidate_cells(F, F, t).shape == (0, 2)


class TestVerifyTheorem:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            verify_theorem("no_such_claim", trials=1)

    def test_nonpositive_trials_rejected(self):
        with pytest.raises(ValueError):
            verify_theorem("side_nsc", trials=0)

    def test_negative_converse_trials_rejected(self):
        with pytest.raises(ValueError, match="converse_trials"):
            verify_theorem("side_nsc", trials=2, converse_trials=-1)

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
