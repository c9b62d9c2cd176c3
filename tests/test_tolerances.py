"""The tolerance ledger: every scientific-notation number in the library is a
named module constant or a class-level field default (README "Numerical
notes" lists them with their reasons), never a bare literal in a function
body or a default argument."""

import ast
import io
import math
import tokenize
from pathlib import Path

import numpy as np
import pytest

from p3pshare import conics
from p3pshare.conics import (Conic, ConicPair, IntersectionSet,
                             intersect_conics, newton_polish,
                             quadrant_one_filter)
from p3pshare.errors import (DegenerateAngleError, DegenerateInputError,
                             DegeneratePencilError, InconsistentInputError,
                             InfeasibleTripletError, NotOnConstraintLineError)
from p3pshare.geometry import (ControlTriangle, RatioPair, SolutionTriplet,
                               ViewAngles, view_angles_from_center)
from p3pshare.loci import skew_mesh, skewed_danger_cylinder
from p3pshare.scenes import _scene_at, brute_force_solutions
from p3pshare.sharing import (SharingLabel, classify_solution_set,
                              construct_mate)
from p3pshare.solver import (Solution, SolutionSet, recover_centers, solve,
                             triplet_from_ratio)

SRC = Path(__file__).resolve().parent.parent / "src" / "p3pshare"


def _allowed_lines(tree: ast.Module) -> set[int]:
    """Lines of the module-level assignments and of the assignments directly
    in the body of a module-level class."""
    stmts = list(tree.body)
    stmts += [s for c in tree.body if isinstance(c, ast.ClassDef)
              for s in c.body]
    return {line for s in stmts if isinstance(s, (ast.Assign, ast.AnnAssign))
            for line in range(s.lineno, s.end_lineno + 1)}


def _is_scientific(text: str) -> bool:
    text = text.lower()
    return "e" in text and not text.startswith("0x")


def bare_scientific_literals(source: str) -> list[tuple[int, str]]:
    """(line, text) of each scientific-notation NUMBER token outside the
    allowed assignments; strings and comments are other tokens."""
    allowed = _allowed_lines(ast.parse(source))
    return [(tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.NUMBER and _is_scientific(tok.string)
            and tok.start[0] not in allowed]


def test_no_bare_scientific_literal_in_src():
    files = sorted(SRC.glob("*.py"))
    assert files
    bare = {f.name: hits for f in files
            if (hits := bare_scientific_literals(f.read_text()))}
    assert not bare, f"tolerances outside the ledger: {bare}"


def test_the_scan_sees_what_it_must():
    source = '''"""A docstring with 1e-9 in it."""
import math
TOL = 1e-9  # a comment with 1e-3
EDGE = 1.0 - 1e-12


class Config:
    margin: float = 1e-6
    plain = 2.5E-3

    def method(self, x=1e-4):
        return x < 3e-7


def f(x, tol=1e-13):
    big = 0x1e5 + 1e300
    return abs(x) < 1e-10 * math.pi
'''
    assert bare_scientific_literals(source) == [
        (11, "1e-4"), (12, "3e-7"), (15, "1e-13"), (16, "1e300"),
        (17, "1e-10")]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_numpy_names(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of each private numpy name the source imports, and
    of each private attribute it reads on a name bound to numpy or to one of
    its modules; private means one leading underscore, not a dunder."""
    tree = ast.parse(source)
    numpy_names, hits = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                    if any(map(_is_private, parts)):
                        hits.append((node.lineno, alias.name))
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "numpy"):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                numpy_names.add(alias.asname or alias.name)
                if any(map(_is_private, name.split("."))):
                    hits.append((node.lineno, name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            chain, base = [node.attr], node.value
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in numpy_names:
                hits.append((node.lineno, ".".join([base.id, *chain[::-1]])))
    return sorted(hits)


def test_no_private_numpy_name_in_src():
    files = sorted(SRC.glob("*.py"))
    assert files
    hits = {f.name: found for f in files
            if (found := private_numpy_names(f.read_text()))}
    assert not hits, f"private numpy names: {hits}"


def test_the_private_name_scan_sees_what_it_must():
    source = '''import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg
import numpy._core.umath
from numpy import linalg as la
from . import _private_sibling
import math._no_numpy


def f(x):
    from numpy.lib import _function_base_impl as fb
    y = np.linalg._umath_linalg.eigvals(x) + la._umath_linalg.det(x)
    return np.__version__, x._private, math._private, fb.angle, y
'''
    assert private_numpy_names(source) == [
        (2, "numpy.linalg._umath_linalg"), (3, "numpy._core.umath"),
        (10, "numpy.lib._function_base_impl"),
        (11, "la._umath_linalg"), (11, "np.linalg._umath_linalg")]


#: the BLAS and LAPACK calls that src/ may make, by (file, enclosing
#: function, name as written), each with its reason. Every other dot
#: product, norm and frame map is a left-to-right sum on Python floats, so
#: no result depends on which OpenBLAS kernel the CPU selects (README
#: "Numerical notes").
BLAS_ALLOWED = {
    ("scenes.py", "_distinct_quartic_roots", "np.linalg.eigvals"):
        "the danger_repeat count's quartic roots: eigenvalues of a 4 x 4 "
        "companion matrix, not 3-vector geometry",
}
#: numpy's dot-product family, by the last part of its dotted name
_DOT_FAMILY = {"dot", "matmul", "inner", "vdot", "vecdot", "einsum",
               "tensordot"}


def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *parts[::-1]]) \
        if isinstance(node, ast.Name) else None


def numpy_bindings(tree) -> dict[str, str]:
    """Each name the module binds to numpy or to a numpy name: its path."""
    numpy = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    numpy[alias.asname or "numpy"] = \
                        alias.name if alias.asname else "numpy"
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "numpy"):
            for alias in node.names:
                numpy[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return numpy


def blas_uses(source: str) -> list[tuple[int, str, str]]:
    """(line, enclosing function, use) of each .dot( call, @ product, name
    of numpy's dot family and numpy.linalg function in the source, the
    numpy names spelled as written; the function is "<module>" outside
    any."""
    tree = ast.parse(source)
    numpy = numpy_bindings(tree)
    hits = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "dot":
            hits.append((node.lineno, func, ".dot("))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            hits.append((node.lineno, func, "@"))
        name = _dotted(node)
        if name is not None:  # a whole chain a.b.c: its parts are not read
            head, _, rest = name.partition(".")
            path = ".".join(filter(None, (numpy.get(head), rest)))
            if head in numpy and (
                    path.rsplit(".", 1)[-1] in _DOT_FAMILY
                    or (path.startswith("numpy.linalg.")
                        and not path.endswith("Error"))):
                hits.append((node.lineno, func, name))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return sorted(hits)


def test_no_blas_in_the_geometry():
    files = sorted(SRC.glob("*.py"))
    assert files
    used = {(f.name, func, name): line for f in files
            for line, func, name in blas_uses(f.read_text())}
    assert set(used) == set(BLAS_ALLOWED), \
        f"BLAS uses outside the allowlist: {set(used) - set(BLAS_ALLOWED)}"


#: the solve path, from cosines to triplets: plain float code that reads no
#: numpy name, by file
NUMPY_FREE = {
    "conics.py": ("_intersect", "_polish", "_pencil_sigma2",
                  "farthest_real_root"),
    "solver.py": ("_triplet", "solve"),
}


def numpy_names_in(source: str, func: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound to numpy that the module-level
    function func reads."""
    tree = ast.parse(source)
    numpy = numpy_bindings(tree)
    [body] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == func]
    return sorted((node.lineno, node.id) for node in ast.walk(body)
                  if isinstance(node, ast.Name) and node.id in numpy)


@pytest.mark.parametrize("file, func", [
    (f, func) for f, funcs in NUMPY_FREE.items() for func in funcs])
def test_the_solve_path_reads_no_numpy_name(file, func):
    assert numpy_names_in((SRC / file).read_text(), func) == []


def test_the_numpy_name_scan_sees_what_it_must():
    source = '''import numpy as np
from numpy.linalg import lstsq as ls


def f(x):
    y = np.linalg.lstsq(x, x) + ls(x)
    return [np for _ in x], x.np


def g(np_):
    return np_
'''
    assert numpy_names_in(source, "f") == [(6, "ls"), (6, "np"), (7, "np")]
    assert numpy_names_in(source, "g") == []


def test_the_blas_scan_sees_what_it_must():
    source = '''import numpy as np
from numpy import linalg as la, einsum
from numpy.linalg import norm, LinAlgError


def f(R, p, q):
    a = R.dot(p) + R @ p
    q @= R
    b = np.linalg.norm(p) + la.lstsq(R, p) + norm(q) + einsum("i,i", p, q)
    c = np.vecdot(p, q) + np.tensordot(p, q) + np.cross(p, q) + p.dot


@np.errstate(over="ignore")
def g(p):
    raise LinAlgError(np.inner(p, p))
'''
    assert blas_uses(source) == [
        (7, "f", ".dot("), (7, "f", "@"), (8, "f", "@"),
        (9, "f", "einsum"), (9, "f", "la.lstsq"), (9, "f", "norm"),
        (9, "f", "np.linalg.norm"), (10, "f", "np.tensordot"),
        (10, "f", "np.vecdot"), (15, "g", "np.inner")]


# ---------------------------------------------------------------------------
# Hand-made inputs at each ledger gate that no other test reaches: each input
# sits a few times inside or outside the gate, so a tolerance ten times
# larger or smaller changes the outcome (the mutant table in CHANGES.md).
# The values are literals on purpose: a test that read the constant would
# move with it.


def _parabola(s, c, u0=0.0, v0=0.0):
    """The conic v = s (u - u0)^2 + v0 + c."""
    return Conic(0.0, 0.0, -s, 2.0 * s * u0, 1.0, -(s * u0 * u0 + v0 + c))


class TestIntersectionGates:
    def test_near_tangency_within_intersect_tol(self):
        """v = u^2 + 1 and v = 1 - eps - u^2 miss each other by eps: their
        complex pair reads as a tangency (one point of multiplicity 2) while
        eps is within INTERSECT_TOL (1 + u^2 + v^2) ~ 2e-9."""
        for eps, count in ((5e-10, 1), (5e-9, 0)):
            pair = ConicPair(_parabola(1.0, 1.0), _parabola(-1.0, 1.0 - eps))
            inter = intersect_conics(pair)
            assert len(inter.points) == count, eps
            assert inter.all_real == 2 * count

    def test_seeds_within_cluster_tol_merge(self):
        """v = u^2 meets v = h at u = +-sqrt(h): two points 3e-7 apart stay
        two, 3e-8 apart they merge into one of multiplicity 2."""
        for gap, mults in ((3e-8, [2]), (3e-7, [1, 1])):
            pair = ConicPair(_parabola(1.0, 0.0),
                             Conic(0.0, 0.0, 0.0, 0.0, 1.0, -(gap / 2) ** 2))
            assert [p.multiplicity for p in intersect_conics(pair).points] \
                == mults, gap

    def test_shared_component_gate(self):
        """(v - 1)(u - 2) against (v - 1)(u + v - 3) + delta: the cubic of
        the pencil scales with delta, and only the pair closer to sharing
        the line v = 1 counts as sharing it."""
        C1 = Conic(0.0, 1.0, 0.0, -1.0, -2.0, 2.0)
        with pytest.raises(DegeneratePencilError, match="share a component"):
            intersect_conics(ConicPair(C1, Conic(1.0, 1.0, 0.0, -1.0, -4.0,
                                                 3.0 + 1.5e-13)))
        intersect_conics(ConicPair(C1, Conic(1.0, 1.0, 0.0, -1.0, -4.0,
                                             3.0 + 1.5e-12)))

    def test_newton_stops_below_newton_stop(self):
        """At a tangency Newton converges linearly, so its residuals pass
        through every decade: from this seed the last three would be
        3.3e-13, 8.2e-14 and 5.1e-15, and newton_polish stops at the first
        below NEWTON_STOP."""
        F1, F2 = _parabola(1.0, 1.0), _parabola(-1.0, 1.0)
        _, _, res = newton_polish(F1, F2, 0.3, 1.2)
        assert 1e-14 < res < 1e-13

    def test_quadrant_one_filter_min_ratio(self):
        inter = IntersectionSet(points=(RatioPair(5e-11, 1.0),
                                        RatioPair(1.0, 5e-10)), all_real=2)
        assert quadrant_one_filter(inter) == [RatioPair(1.0, 5e-10)]


class TestSolverGates:
    def test_triplet_within_constraint_tol(self, eq1_triangle, eq1_angles):
        """A ratio point moved by d in u leaves basic-constraint residuals
        of 1.25 d: 2.5e-10 passes, 5e-9 fails."""
        rp = solve(eq1_triangle, eq1_angles).solutions[0].ratio
        for d, ok in ((2e-10, True), (4e-9, False)):
            moved = RatioPair(rp.u * (1.0 + d), rp.v)
            if ok:
                triplet_from_ratio(moved, eq1_triangle.sides, eq1_angles)
            else:
                with pytest.raises(InconsistentInputError):
                    triplet_from_ratio(moved, eq1_triangle.sides, eq1_angles)

    #: ratio points whose radicand u^2 + v^2 - 2 cos(alpha) u v overflows:
    #: inf - inf is nan at (1e200, 1e200), and s1 = a / sqrt(inf) is 0 at
    #: (1e200, 1), so neither triplet is positive
    OVERFLOWING_RATIOS = ((1e200, 1e200), (1e200, 1.0))

    def test_triplet_positivity(self, eq1_angles):
        for u, v in self.OVERFLOWING_RATIOS:
            with pytest.raises(DegenerateInputError,
                               match="^solution triplet must be positive$"):
                triplet_from_ratio(RatioPair(u, v), (1.0, 1.0, 1.0),
                                   eq1_angles)

    def test_solve_positivity(self, eq1_triangle, eq1_angles, monkeypatch):
        """The same points handed to solve in place of the kernel's: the
        positivity check raises before the residual gate."""
        for u, v in self.OVERFLOWING_RATIOS:
            monkeypatch.setattr(conics, "_intersect",
                                lambda *args: [[u, v, 1]])
            with pytest.raises(DegenerateInputError,
                               match="^solution triplet must be positive$"):
                solve(eq1_triangle, eq1_angles)

    def test_solve_min_ratio(self, eq1_triangle, eq1_angles, monkeypatch):
        """solve applies quadrant_one_filter's _MIN_RATIO to the kernel's
        points: (5e-11, 1) gets no triplet, which would fail the residual
        gate, and the equilateral fixture's (1, 1) is kept."""
        monkeypatch.setattr(conics, "_intersect",
                            lambda *args: [[5e-11, 1.0, 1], [1.0, 1.0, 1]])
        (sol,) = solve(eq1_triangle, eq1_angles).solutions
        assert sol.ratio == RatioPair(1.0, 1.0, 1)

    def test_recover_centers_z2_slack(self, eq1_triangle):
        """Distances from an in-plane point, each squared short by
        delta scale^2, trilaterate to z^2 = -delta scale^2."""
        O = np.array([0.3, 0.2, 0.0])
        for delta, ok in ((3e-10, True), (3e-9, False)):
            t = SolutionTriplet(*(math.sqrt((P - O).dot(P - O) - delta)
                                  for P in eq1_triangle.points))
            if ok:
                up, dn = recover_centers(t, eq1_triangle)
                np.testing.assert_allclose(up, O, atol=1e-12)
                np.testing.assert_allclose(dn, O, atol=1e-12)
            else:
                with pytest.raises(InfeasibleTripletError):
                    recover_centers(t, eq1_triangle)


class TestGeometryGates:
    def test_collinear_gate_names_the_degeneracy(self):
        """Twice the area at 3e-13 of the largest side squared is collinear.
        At 3e-12 it is not, but the sides sqrt(0.25 + h^2) round to 0.5 and
        fail the triangle inequality instead, so here the gate decides only
        the reason given. It rejects the nearly collinear triples whose
        rounded sides pass the inequality."""
        with pytest.raises(DegenerateInputError, match="collinear"):
            ControlTriangle.from_points((0, 0, 0), (1, 0, 0), (0.5, 3e-13, 0))
        with pytest.raises(DegenerateInputError, match="triangle inequality"):
            ControlTriangle.from_points((0, 0, 0), (1, 0, 0), (0.5, 3e-12, 0))

    def test_coincident_center(self):
        tri = ControlTriangle.from_points((0, 1, 0), (-1, 0, 0), (1, 0, 0))
        with pytest.raises(DegenerateInputError, match="coincides"):
            view_angles_from_center(tri, (0, 1, 3e-16))
        view_angles_from_center(tri, (0, 1, 3e-15))

    def test_subtended_angle_edge(self):
        """Seen from (0, 0, L), cos beta = cos gamma = 1 - 1 / (1 + L^2) and
        cos alpha = 1 - 2 / (1 + L^2): 1 - cos of 5e-13 is an angle at 0,
        3e-12 is not."""
        tri = ControlTriangle.from_points((0, 1, 0), (-1, 0, 0), (1, 0, 0))
        with pytest.raises(DegenerateAngleError, match="at 0 or pi"):
            view_angles_from_center(tri, (0, 0, math.sqrt(1 / 5e-13 - 1)))
        view_angles_from_center(tri, (0, 0, math.sqrt(1 / 3e-12 - 1)))


class TestSharingGates:
    def test_construct_mate_line_tol(self, eq1_triangle):
        """With cos beta = cos gamma = 0.5 the SIDE_BC residual of
        (1, 1 + 2 d, 1) is d."""
        angles = ViewAngles(0.5, 0.5, 0.5)
        label = SharingLabel.SIDE_BC
        mate = construct_mate(SolutionTriplet(1.0, 1.0 + 6e-8, 1.0),
                              eq1_triangle, angles, label)
        assert mate is not None
        with pytest.raises(NotOnConstraintLineError):
            construct_mate(SolutionTriplet(1.0, 1.0 + 6e-7, 1.0),
                           eq1_triangle, angles, label)

    def test_same_distance_gap(self, eq1_triangle):
        """Two solutions on the SIDE_BC line whose s2 differ by 2 g: they
        share side BC while 2 g is within 1e-6 of the largest distance, 3."""
        angles = ViewAngles(0.5, 0.5, 0.5)
        for g, npairs in ((3e-7, 1), (3e-6, 0)):
            sols = (Solution(SolutionTriplet(1.0, 2.0, 2.0),
                             RatioPair(2.0, 2.0), False),
                    Solution(SolutionTriplet(3.0, 2.0 * (1.0 + g), 2.0),
                             RatioPair(1.0, 1.0), False))
            sol_set = SolutionSet(eq1_triangle, angles, sols)
            cls = classify_solution_set(sol_set, eq1_triangle, angles)
            assert len(cls.pairs) == npairs, g


class TestLociGates:
    def test_no_vertex_near_the_pole(self):
        """A two-node mesh row at a denominator of 3e-9 (below _DEN_TOL)
        holds no vertex; one at 3e-8 does. The other row is inadmissible."""
        tri = ControlTriangle.from_points((0.3, 0.8, 0), (0, 0, 0), (1, 0, 0))
        surf = skewed_danger_cylinder(tri, SharingLabel.POINT_A)
        a, e, f = surf.frame.a, surf.frame.e, surf.frame.f
        for den, nverts in ((3e-9, 0), (3e-8, 6)):
            y0 = (e * e - a * e - den) / f
            verts, _ = skew_mesh(surf, bounds=(0.45, 0.55, y0, y0 - 0.1), n=2)
            assert len(verts) == nverts, den


class TestSceneGates:
    """The clearances of SceneConfig(), each met 3 times inside and outside
    its bound by a scene whose other clearances hold."""

    def test_cos_margin(self):
        """B, C = (-+d, 0, 0) seen from (0, 0, 1): 1 - cos alpha =
        2 d^2 / (1 + d^2)."""
        for g, kept in ((3e-7, False), (3e-6, True)):
            d = math.sqrt(g / (2.0 - g))
            tri = ControlTriangle.from_points((0, 1, 0), (-d, 0, 0), (d, 0, 0))
            assert (_scene_at(tri, (0, 0, 1)) is not None) == kept, g

    def test_cos_bg_min(self):
        """A, C = (+-1, 0, 0) seen from (0, 0, h): cos beta =
        (h^2 - 1) / (h^2 + 1)."""
        tri = ControlTriangle.from_points((1, 0, 0), (0, 1, 0), (-1, 0, 0))
        for c, kept in ((3e-4, False), (3e-3, True)):
            h = math.sqrt((1.0 + c) / (1.0 - c))
            assert (_scene_at(tri, (0, 0, h)) is not None) == kept, c

    def test_cocyclic_min(self):
        """O on the unit circumcircle, lifted by z: cocyclic_degeneracy z."""
        tri = ControlTriangle.from_points((1, 0, 0), (-0.6, 0.8, 0),
                                          (-0.6, -0.8, 0))
        for z, kept in ((3e-4, False), (3e-3, True)):
            O = (0.5, math.sqrt(0.75), z)
            assert (_scene_at(tri, O) is not None) == kept, z


class TestOracleGates:
    """The grid oracle's residual gate and merge gap on hand-made conics,
    handed to it in place of the scene's."""

    def oracle(self, monkeypatch, pair):
        monkeypatch.setattr(conics, "build_conics", lambda sides, angles: pair)
        return brute_force_solutions(None, None)

    def test_refine_tol(self, monkeypatch):
        """Parabolas missing each other by eps near (5.003, 5.003): Newton
        ends at a residual of ~eps / 40 on the scaled conics, against a gate
        of _REFINE_TOL (1 + u^2 + v^2) ~ 5.1e-9."""
        for eps, count in ((1e-7, 1), (1e-6, 0)):
            pair = ConicPair(_parabola(1.0, 0.0, 5.003, 5.003),
                             _parabola(-1.0, -eps, 5.003, 5.003))
            assert len(self.oracle(monkeypatch, pair)) == count, eps

    def test_merge_tol(self, monkeypatch):
        """Two roots gap apart across the grid node u = 5.01, each found
        from its own cell: they merge within _MERGE_TOL (1 + |u|) ~ 6e-5."""
        uk = float(np.linspace(0.01, 20.0, 2000)[500])
        for gap, count in ((2e-5, 1), (2e-4, 2)):
            pair = ConicPair(_parabola(1.0, 0.0, uk, 5.003),
                             Conic(0.0, 0.0, 0.0, 0.0, 1.0,
                                   -(5.003 + (gap / 2) ** 2)))
            assert len(self.oracle(monkeypatch, pair)) == count, gap
