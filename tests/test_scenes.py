"""Random scene generation, the grid oracle, and verification campaigns."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from p3pshare import conics, loci, scenes, sharing
from p3pshare.conics import NEWTON_STOP, Conic, build_conics
from p3pshare.geometry import SolutionTriplet, ViewAngles
from p3pshare.sharing import POINT_LABELS, SIDE_LABELS
from p3pshare.scenes import (_BOX_CELLS, _MERGE_TOL, GridConfig, SceneConfig,
                             _box_tables, _candidate_cells, _centred,
                             _grid_tables, _locus_draw, _locus_scene, _merge,
                             _trial_rngs,
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

    def test_config_is_constants(self):
        """SceneConfig's values are class constants; it takes no arguments."""
        assert SceneConfig().min_side == SceneConfig.min_side == 0.4
        with pytest.raises(TypeError):
            SceneConfig(min_side=1.0)

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

    @pytest.mark.parametrize("lane_min", [1, 10**9])
    def test_lane_min_changes_speed_only(self, monkeypatch, lane_min):
        """All lanes in vector steps, or all in scalar _polish: the same
        golden points."""
        monkeypatch.setattr(conics, "_LANE_MIN", lane_min)
        self.test_golden_points()

    def test_nan_residual_lane_dropped(self, monkeypatch):
        """A lane whose residual is nan fails the residual gate, here at
        (7, 9), far from the four roots, whose u and v are 0.25, 1 or 4."""
        va = ViewAngles(0.625, 0.625, 0.625)
        want = brute_force_solutions((1.0, 1.0, 1.0), va)
        polish_lanes = conics._polish_lanes

        def with_nan_lane(*args):
            return [np.append(x, y) for x, y in zip(polish_lanes(*args),
                                                    (7.0, 9.0, np.nan))]

        monkeypatch.setattr(conics, "_polish_lanes", with_nan_lane)
        assert brute_force_solutions((1.0, 1.0, 1.0), va) == want

    @pytest.mark.parametrize("kwargs", [
        {"n": 0}, {"n": 1}, {"n": -3}, {"u_max": np.nan}, {"u_max": np.inf},
        {"u_max": 0.0}, {"u_max": -5.0}],
        ids=["n0", "n1", "n_negative", "u_max_nan", "u_max_inf", "u_max0",
             "u_max_negative"])
    def test_grid_config_rejects_what_it_cannot_scan(self, kwargs):
        with pytest.raises(ValueError):
            GridConfig(**kwargs)

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


def oracle_seeds(sides, angles, grid):
    """The scaled conics' Conic.terms rows and the oracle's Newton seeds,
    the centres of its candidate cells."""
    pair = build_conics(sides, angles)
    F1, F2 = pair.C1.scaled(), pair.C2.scaled()
    t = np.linspace(grid.u_max / grid.n, grid.u_max, grid.n)
    cells = _candidate_cells(F1, F2, t)
    u0, v0 = (0.5 * (t[cells] + t[cells + 1])).T
    return F1.terms, F2.terms, u0, v0


def assert_lanes_are_polish(t1, t2, u, v, tol=NEWTON_STOP):
    """Every lane of _polish_lanes is scalar _polish's (u, v, residual),
    bit for bit (float.hex tells -0.0 and each nan apart from the rest)."""
    got = [tuple(map(float.hex, r)) for r in zip(
        *(x.tolist() for x in conics._polish_lanes(t1, t2, u, v, tol)))]
    want = [tuple(map(float.hex, conics._polish(t1, t2, a, b, tol)))
            for a, b in zip(np.asarray(u, float).tolist(),
                            np.asarray(v, float).tolist())]
    assert got == want


#: (t1, t2, u, v) of one seed on each rare branch of _polish, on hand-made
#: Conic.terms rows (c_vv, c_uv, c_uu, c_u, c_v, c_1)
RARE_LANES = {
    # u^2 - 1, v^2 - 1 from u = 0: a = 0, a zero pivot, which stops
    "zero_a": ((0.0, 0.0, 1.0, 0.0, 0.0, -1.0), (1.0, 0.0, 0.0, 0.0, 0.0, -1.0),
               0.0, 2.0),
    # u + v - 2, (u + v)^2 - 4 at u + v = 1: rows [1, 1], [2, 2] swap and
    # u22 = 1 - 0.5 * 2 = 0, a zero pivot, which stops
    "zero_u22": ((0.0, 0.0, 0.0, 1.0, 1.0, -2.0), (1.0, 2.0, 1.0, 0.0, 0.0, -4.0),
                 0.5, 0.5),
    # u^2 - 1 at u = 1e200 is inf, and the step 0 * inf is nan
    "not_finite": ((0.0, 0.0, 1.0, 0.0, 0.0, -1.0), (0.0, 0.0, 0.0, 0.0, 1.0, -1.0),
                   1e200, 1.0),
    # u^2 + 1 has no root: near u = 0 all 8 halvings fail
    "failed_halvings": ((0.0, 0.0, 1.0, 0.0, 0.0, 1.0),
                        (0.0, 0.0, 0.0, 0.0, 1.0, -1.0), 0.5, 1.0),
    # a root: the residual is 0, below NEWTON_STOP before any step
    "below_stop": ((0.0, 0.0, 0.0, 1.0, 0.0, -1.0), (0.0, 0.0, 0.0, 0.0, 1.0, -2.0),
                   1.0, 2.0),
    # u - v is 0 and u^2 - 4 v^2 is inf - inf = nan: max(0, nan) is 0
    "nan_g2": ((0.0, 0.0, 0.0, 1.0, -1.0, 0.0), (-4.0, 0.0, 1.0, 0.0, 0.0, 0.0),
               1e200, 1e200),
    # the same rows swapped: max(nan, 0) is nan, and a step is taken
    "nan_g1": ((-4.0, 0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0, -1.0, 0.0),
               1e200, 1e200),
}


class TestOracleNewton:
    """conics._polish_lanes, the oracle's Newton, against scalar _polish."""

    @pytest.mark.parametrize("lane_min", [1, None], ids=["vector", "default"])
    def test_golden_scenes(self, monkeypatch, lane_min):
        """Every seed of every golden oracle scene."""
        if lane_min is not None:
            monkeypatch.setattr(conics, "_LANE_MIN", lane_min)
        for _, sides, angles, grid in oracle_cases():
            assert_lanes_are_polish(*oracle_seeds(sides, angles, grid))

    @pytest.mark.parametrize("name", sorted(RARE_LANES))
    def test_rare_branch(self, monkeypatch, name):
        """The rare seed alone in a vector step, and among 2 * _LANE_MIN
        ordinary seeds on the same conics at the default _LANE_MIN."""
        t1, t2, u, v = RARE_LANES[name]
        n = 2 * conics._LANE_MIN
        us = np.insert(np.linspace(0.3, 3.0, n), n // 2, u)
        vs = np.insert(np.linspace(0.4, 2.5, n), n // 2, v)
        assert_lanes_are_polish(t1, t2, us, vs)
        monkeypatch.setattr(conics, "_LANE_MIN", 1)
        assert_lanes_are_polish(t1, t2, [u], [v])
        assert_lanes_are_polish(t1, t2, us, vs)

    def test_step_budget(self, monkeypatch):
        """Lanes handed to scalar _polish after k vector steps get 50 - k:
        on u^2 = 0, v = 1 each step halves u, and with tol 0 only the step
        budget stops a lane. The lane at the root (a zero pivot) leaves
        after the first step, and the other four then fall below
        _LANE_MIN."""
        monkeypatch.setattr(conics, "_LANE_MIN", 5)
        t1, t2 = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 1.0, -1.0)
        assert_lanes_are_polish(t1, t2, [1.0, 0.75, 0.5, 0.3, 0.0], [1.0] * 5,
                                tol=0.0)

    def test_lane_counts_about_lane_min(self):
        """Below, at and above _LANE_MIN, from the golden scene with the
        most seeds; an empty set of seeds gives empty arrays."""
        t1, t2, u, v = max((oracle_seeds(*case[1:]) for case in oracle_cases()),
                           key=lambda s: len(s[2]))
        k = conics._LANE_MIN
        assert len(u) > k + 1
        for n in (k - 1, k, k + 1, len(u)):
            assert_lanes_are_polish(t1, t2, u[:n], v[:n])
        assert [x.shape for x in conics._polish_lanes(t1, t2, u[:0], v[:0],
                                                      NEWTON_STOP)] == [(0,)] * 3


def reference_merge(found):
    """The oracle's merge as the list loop it replaced: (u, v) tuples in
    sorted order, each dropped when near a point kept before it."""
    out = []
    for uu, vv in sorted(found):
        if any(abs(uu - pu) <= _MERGE_TOL * (1.0 + abs(pu))
               and abs(vv - pv) <= _MERGE_TOL * (1.0 + abs(pv))
               for pu, pv in out):
            continue
        out.append((uu, vv))
    return out


class TestMerge:
    def clustered(self, rng):
        """Points in a few clusters a few _MERGE_TOL wide, chains along u or
        v whose neighbours are 0.9 tolerance apart (a-b and b-c near, a-c
        not), and exact duplicates; shuffled."""
        pts = []
        for _ in range(int(rng.integers(1, 6))):
            cu, cv = rng.uniform(0.01, 20.0, 2)
            du, dv = _MERGE_TOL * (1.0 + cu), _MERGE_TOL * (1.0 + cv)
            for _ in range(int(rng.integers(1, 30))):
                pts.append((cu + du * rng.uniform(-2.0, 2.0),
                            cv + dv * rng.uniform(-2.0, 2.0)))
            for j in range(int(rng.integers(2, 6))):
                if rng.random() < 0.5:
                    pts.append((cu + 0.9 * j * du, cv))
                else:
                    pts.append((cu, cv + 0.9 * j * dv))
        pts += [pts[i] for i in rng.integers(0, len(pts), len(pts) // 3)]
        return [pts[i] for i in rng.permutation(len(pts))]

    def test_against_list_loop(self):
        rng = np.random.default_rng(2203)
        for _ in range(300):
            pts = self.clustered(rng)
            u, v = np.array(pts).T
            got = _merge(u, v)
            assert got == reference_merge(pts)
            assert all(type(x) is float for p in got for x in p)

    def test_chain(self):
        """a-b and b-c near, a-c not: a and c are kept."""
        d = 0.9 * _MERGE_TOL * (1.0 + 5.0)
        pts = [(5.0 + 2 * d, 3.0), (5.0, 3.0), (5.0 + d, 3.0)]
        u, v = np.array(pts).T
        assert _merge(u, v) == reference_merge(pts) == [pts[1], pts[0]]

    def test_near_relative_to_kept(self):
        """The gap is weighed against the kept point's 1 + |u|, 1 + |v|: a
        u gap of 6.00002e-5 exceeds _MERGE_TOL (1 + 5) but not _MERGE_TOL
        (1 + 5.00006), and a v gap of 3.99998e-5 is within _MERGE_TOL
        (1 + 3) but not _MERGE_TOL (1 + 2.99996)."""
        for pts, want in (([(5.0, 3.0), (5.0000600002, 3.0)], 2),
                          ([(5.0, 3.0), (5.0000000001, 2.9999600002)], 1)):
            u, v = np.array(pts).T
            assert _merge(u, v) == reference_merge(pts) == pts[:want]

    def test_empty(self):
        assert _merge(np.array([]), np.array([])) == []


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


class TestBoxTables:
    @pytest.mark.parametrize("t", [
        *(np.linspace(20.0 / n, 20.0, n) for n in (1, 2, 3, 129, 200, 2000)),
        np.geomspace(1e-3, 1e3, 300),
        np.cumsum(np.random.default_rng(1104).uniform(1e-3, 1.0, 777)),
    ], ids=["n1", "n2", "n3", "n129", "n200", "n2000", "geometric", "random"])
    def test_tables_are_centred_box_ends(self, t):
        """Column i of a level's table is _centred of the box ends t[i] and
        t[min(i + side, m)], and that high end; row i of the node table is
        t[min(i + r, m)] for r = 0, ..., last side."""
        m = len(t) - 1
        levels, nodes = _box_tables(t)
        i = np.arange(max(m, 0))
        for side, table in zip(_BOX_CELLS, levels):
            hi = t[np.minimum(i + side, m)]
            c, h = _centred(t[i], hi)
            assert table.shape == (3, max(m, 0))
            assert table.tobytes() == np.stack([c, h, hi]).tobytes()
        r = np.arange(_BOX_CELLS[-1] + 1)
        assert nodes.tobytes() == t[np.minimum(i[:, None] + r, m)].tobytes()
        assert not any(x.flags.writeable for x in (*levels, nodes))

    def test_grid_tables_cached(self):
        grid = GridConfig(n=200)
        t, (levels, nodes) = _grid_tables(grid)
        assert t.tobytes() == np.linspace(0.1, 20.0, 200).tobytes()
        want, want_nodes = _box_tables(t)
        assert [x.tobytes() for x in levels] == [x.tobytes() for x in want]
        assert nodes.tobytes() == want_nodes.tobytes()
        assert _grid_tables(GridConfig(n=200))[1][1] is nodes
        assert not t.flags.writeable


class TestTrialDraws:
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 + 3])
    def test_generators_are_default_rngs(self, seed):
        """Each trial generator is in the state default_rng gives the
        trial's child of SeedSequence(seed)."""
        kids = np.random.SeedSequence(seed).spawn(6)
        rngs = _trial_rngs(seed, 6)
        assert len(rngs) == 6
        for rng, kid in zip(rngs, kids):
            assert type(rng) is np.random.Generator
            assert rng.bit_generator.state \
                == np.random.default_rng(kid).bit_generator.state

    def test_locus_draw_hands_the_sampled_locus(self):
        """_locus_draw draws _locus_scene's scene, and its locus is the one
        that loci builds for the scene's triangle, with the same bits."""
        labels = (None, *SIDE_LABELS, *POINT_LABELS)
        for t, (r1, r2) in enumerate(zip(_trial_rngs(97, 21),
                                         _trial_rngs(97, 21))):
            label = labels[t % len(labels)]
            scene, locus = _locus_draw(r1, label)
            again = _locus_scene(r2, label)
            assert r1.bit_generator.state == r2.bit_generator.state
            assert again.center.tobytes() == scene.center.tobytes()
            tri = scene.triangle
            assert np.array(again.triangle.points).tobytes() \
                == np.array(tri.points).tobytes()
            if label is None:
                fresh = loci.danger_cylinder(tri.frame)
                assert locus.frame is tri.frame
                assert (locus.center, locus.radius_squared) \
                    == (fresh.center, fresh.radius_squared)
                continue
            fresh = loci.sharing_locus(tri, label)
            assert type(locus) is type(fresh) and locus.label is label
            assert locus.frame.rotation.tobytes() \
                == fresh.frame.rotation.tobytes()
            assert loci.membership(locus, scene.center).hex() \
                == loci.membership(fresh, scene.center).hex()


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


def _drawn(seed: int, n: int, label, keep) -> list:
    """The _locus_scene draws of _trial_rngs(seed, n) for which keep(scene)
    holds."""
    drawn = (_locus_scene(rng, label) for rng in _trial_rngs(seed, n))
    return [sc for sc in drawn if sc is not None and keep(sc)]


def _pairs(scene) -> tuple:
    sol = scenes._solved(scene)
    if sol is None:
        return ()
    return sharing.classify_solution_set(sol, scene.triangle,
                                         scene.angles).pairs


def _with_companion_pair(scene) -> bool:
    sol = scenes._solved(scene)
    if sol is None or sol.count != 4:
        return False
    rep = sharing.companion_check(sol, scene.triangle, scene.angles,
                                  tol=scenes._COMPANION_TOL)
    return any(f.side_pairs or f.point_pairs for f in rep.families)


def _repeated(scene) -> bool:
    sol = scenes._solved(scene, cluster_tol=scenes._REPEAT_GAP)
    return sol is not None and any(s.repeated for s in sol.solutions)


class TestCampaignFailurePaths:
    """Each way a campaign records a failure, driven through verify_theorem
    by a patched input: the reason and the counts it leaves. A converse scan
    is fed the given scenes in place of its random ones, its forward loop
    left empty."""

    def converse_on(self, monkeypatch, given):
        it = iter(given)
        monkeypatch.setattr(scenes, "_trials", lambda *a, **k: iter(()))
        monkeypatch.setattr(scenes, "random_scene", lambda rng: next(it))

    @pytest.mark.parametrize("gap", [0.0, 1.0])
    def test_sharing_converse(self, monkeypatch, gap):
        """SIDE_AB locus scenes: each detected side pair is found, and fails
        once its center's gap to the locus is taken as 1."""
        given = _drawn(5, 6, sharing.SharingLabel.SIDE_AB, _pairs)[:3]
        assert len(given) == 3
        npairs = sum(p[2].kind == "side" for sc in given for p in _pairs(sc))
        assert npairs >= 3
        self.converse_on(monkeypatch, given)
        monkeypatch.setattr(loci, "membership", lambda locus, O: gap)
        rep = verify_theorem("side_nsc", trials=1, converse_trials=3)
        assert rep.details == {"converse_trials": 3,
                               "converse_pairs_found": npairs,
                               "converse_failures": npairs if gap else 0}
        want = [("converse", t) for t, sc in enumerate(given)
                for p in _pairs(sc) if p[2].kind == "side"] if gap else []
        assert rep.failures == [(t, "center off locus (1)") for t in want]

    @pytest.mark.parametrize("gap", [0.0, 1.0])
    def test_danger_repeat_converse(self, monkeypatch, gap):
        """Danger-cylinder scenes with a repeated root: each is found, and
        fails once its distance from the cylinder is taken as 1."""
        given = _drawn(6, 6, None, _repeated)[:3]
        assert len(given) == 3
        self.converse_on(monkeypatch, given)
        monkeypatch.setattr(loci, "cylinder_membership", lambda cyl, O: gap)
        rep = verify_theorem("danger_repeat", trials=1, converse_trials=3)
        assert rep.details == {"converse_trials": 3,
                               "converse_repeated_found": 3,
                               "converse_failures": 3 if gap else 0}
        assert rep.failures == ([(("converse", t), "repeated root off "
                                  "cylinder") for t in range(3)]
                                if gap else [])

    @pytest.mark.parametrize("theorem_id, labels", [
        ("side_nsc", SIDE_LABELS), ("point_nsc", POINT_LABELS)])
    def test_no_pair_found(self, monkeypatch, theorem_id, labels):
        """A classification with no pairs fails every solved trial."""
        monkeypatch.setattr(sharing, "classify_solution_set",
                            lambda *a, **k: sharing.PairClassification((), ()))
        rep = verify_theorem(theorem_id, trials=6, seed=1, converse_trials=0)
        assert rep.passes == 0 and rep.skipped + len(rep.failures) == 6
        assert rep.failures and rep.failures == [
            (t, f"no {labels[t % 3].name} pair found")
            for t, _ in rep.failures]

    @pytest.mark.parametrize("ok", [True, False])
    def test_companion_with_pairs(self, monkeypatch, ok):
        """Four-solution SIDE locus scenes with a companion pair in place of
        random ones: each is checked, with its worst residual recorded, and
        fails when the structure is reported violated."""
        given = _drawn(809, 12, sharing.SharingLabel.SIDE_BC,
                       _with_companion_pair)[:3]
        assert len(given) == 3
        it = iter(given)
        monkeypatch.setattr(scenes, "random_scene", lambda rng: next(it))
        check = sharing.companion_check

        def violated(*args, **kwargs):
            rep = check(*args, **kwargs)
            return dataclasses.replace(rep, families=tuple(
                dataclasses.replace(f, companion_ok=False)
                for f in rep.families))

        if not ok:
            monkeypatch.setattr(sharing, "companion_check", violated)
        rep = verify_theorem("companion", trials=3)
        assert rep.details == {"four_solution_scenes": 3,
                               "scenes_with_pairs": 3}
        assert len(rep.residuals) == 3
        assert max(rep.residuals) <= scenes._COMPANION_TOL
        assert rep.passes == (3 if ok else 0)
        assert rep.failures == ([] if ok else [
            (t, "companion structure violated") for t in range(3)])

    def test_construct_side_emission_disagrees(self, monkeypatch):
        """Positivity negated: every trial's mate emission disagrees."""
        want = verify_theorem("construct_side", trials=9, seed=1)
        assert want.passes == 9
        positive = scenes._mate_positive
        monkeypatch.setattr(scenes, "_mate_positive",
                            lambda *a: not positive(*a))
        rep = verify_theorem("construct_side", trials=9, seed=1)
        assert rep.passes == 0 and not rep.residuals
        assert rep.failures == [
            (t, "mate emission disagrees with positivity") for t in range(9)]

    def test_construct_point_condition_equivalence(self, monkeypatch):
        """Interior cosines of 2 make the angle form false everywhere: the
        trials with an on-line solution whose s1 exceeds b and c fail."""
        want = verify_theorem("construct_point", trials=30, seed=1)
        assert not want.failures
        monkeypatch.setattr(scenes, "interior_angles",
                            lambda tri: (2.0, 2.0, 2.0))
        rep = verify_theorem("construct_point", trials=30, seed=1)
        assert rep.failures and rep.failures == [
            (t, "condition equivalence violated") for t, _ in rep.failures]
        assert rep.passes + len(rep.failures) == want.passes
        assert rep.skipped == want.skipped
        assert rep.residuals == want.residuals

    def test_construct_point_mate_not_emitted(self, monkeypatch):
        """construct_mate emitting nothing fails every trial whose mate
        condition holds: those whose mate the unpatched run checked."""
        want = verify_theorem("construct_point", trials=30, seed=1)
        assert not want.failures and want.residuals
        monkeypatch.setattr(sharing, "construct_mate", lambda *a, **k: None)
        rep = verify_theorem("construct_point", trials=30, seed=1)
        assert len(rep.failures) == len(want.residuals)
        assert {r for _, r in rep.failures} \
            == {"mate not emitted under the theorem hypothesis"}
        assert rep.passes + len(rep.failures) == want.passes
        assert not rep.residuals

    def test_mate_off_the_line(self):
        """A mate with s2 raised 1% is off the side line: a failure reason,
        not NotOnConstraintLineError; the true mate passes."""
        label = sharing.SharingLabel.SIDE_BC
        for rng in _trial_rngs(3, 4):
            sc = _locus_scene(rng, label)
            s = true_triplet(sc)
            mate = sharing.construct_mate(s, sc.triangle, sc.angles, label)
            off = SolutionTriplet(mate.s1, 1.01 * mate.s2, mate.s3)
            res, reason = scenes._mate_check(sc, s, off, label,
                                             sharing.LINE_TOL)
            assert reason == "mate off the side line" and res > 1e-3
            assert scenes._mate_check(sc, s, mate, label,
                                      sharing.LINE_TOL)[1] == ""
