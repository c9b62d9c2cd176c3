"""The two characteristic conics and their exact intersection.

The intersection splits the pencil of the two conics. One real root of the
cubic det(A + lam B) gives a degenerate member, a pair of lines through the
common points. Each line meets the other conic in one quadratic, whose
roots seed damped Newton on the bivariate system; a double root of that
quadratic is a tangency, and its two seeds merge into one point of
multiplicity 2. The kernel is straight-line arithmetic on float locals, the
cubic's root in closed form included, as numpy's per-call cost dominates;
sums fold left to right (see README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import add, mul

import numpy as np

from .errors import DegeneratePencilError
from .geometry import RatioPair, ViewAngles, _new_ratio

# The tolerances of the intersection (README "Numerical notes" has the
# ledger). Residuals are those of the unit-max-norm conic rows.

#: INTERSECT_TOL bounds a polished point's residual max(|F1|, |F2|), and a
#: complex seed pair's 2 |a2| im^2, relative to 1 + u^2 + v^2; solve's default
#: tol. Value unexplained: kept seeds reach 3.3e-16 on 2000 random scenes
#: (seed 19) and 2.0e-15 on 700 locus scenes (seed 23), and it rejected none
#: of their 7006 seeds, so it decides only how far apart two conics may pass
#: and still touch. Mutants x10 and x0.1: caught by tests/test_tolerances.py.
INTERSECT_TOL = 1e-9
#: CLUSTER_TOL bounds the gap in u and in v, relative to 1 + |u| and 1 + |v|,
#: within which polished seeds merge into one point of summed multiplicity;
#: solve's default cluster_tol. Value unexplained. On the 700 locus scenes
#: the two seeds of a danger-cylinder double root lay up to 9.8e-8 apart (89
#: merges) and the closest two returned points 1.2e-7, so it sits at the edge
#: of the tangency split; danger_repeat merges at scenes._REPEAT_GAP. The
#: switch from LAPACK's cubic root to the closed form moved 32 of 600
#: danger-cylinder scenes (seed 23) across it, both ways (15 pairs merged,
#: 17 doubles split; 515 -> 513 doubles), and none at _REPEAT_GAP.
#: Mutants x10 and x0.1: caught by tests/test_tolerances.py.
CLUSTER_TOL = 1e-7
#: PENCIL_RANK_TOL bounds the second singular value of the two unit rows,
#: absolute: below it the pair is proportional. Value unexplained. Scenes stay
#: far above it (9.7e-3 at least, on the random and locus scenes and the
#: side_nsc plan at seed 0); rows 1e-9 off proportional stay above it and
#: rows 3e-11 off fall below it (TestPencilSigma2, which catches both
#: mutants, x10 and x0.1).
PENCIL_RANK_TOL = 1e-10
#: _PENCIL_BAND bounds (x.y)^2 / (|x|^2 |y|^2) of the two unit rows, the
#: squared cosine between them: only above it does _intersect evaluate the
#: 15-term sigma2. Derivation: below it, sigma2 = sqrt(1 - |cos|) >=
#: sqrt(1 - sqrt(0.999)) = 0.022, far above PENCIL_RANK_TOL, so the band
#: saves work and changes no decision (TestPencilGateBand).
_PENCIL_BAND = 0.999


@dataclass(frozen=True)
class Conic:
    """F(u, v) = c_vv v^2 + c_uv uv + c_uu u^2 + c_u u + c_v v + c_1."""

    c_vv: float
    c_uv: float
    c_uu: float
    c_u: float
    c_v: float
    c_1: float

    @property
    def terms(self) -> tuple[float, ...]:
        return (self.c_vv, self.c_uv, self.c_uu, self.c_u, self.c_v, self.c_1)

    @property
    def coeffs(self) -> np.ndarray:
        return np.array(self.terms)

    def __call__(self, u, v):
        return (self.c_vv * v * v + self.c_uv * u * v + self.c_uu * u * u
                + self.c_u * u + self.c_v * v + self.c_1)

    def scaled(self) -> "Conic":
        """Same zero set, coefficients normalized to unit max norm."""
        return Conic(*_unit(self.terms))


def _unit(t) -> tuple[float, ...]:
    m = max(map(abs, t))
    if m == 0.0:
        raise DegeneratePencilError("zero conic")
    return tuple([c / m for c in t])


@dataclass(frozen=True)
class ConicPair:
    C1: Conic
    C2: Conic


@dataclass(frozen=True)
class IntersectionSet:
    points: tuple[RatioPair, ...]
    all_real: int


def conic_terms(sides, cosines) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The `Conic.terms` rows of the two characteristic conics."""
    a, b, c = sides
    ca, cb, cg = cosines
    a2, b2, c2 = a * a, b * b, c * c
    return ((a2 - b2, 2.0 * b2 * ca, -b2, 0.0, -2.0 * a2 * cb, a2),
            (-c2, 2.0 * c2 * ca, a2 - c2, -2.0 * a2 * cg, 0.0, a2))


def build_conics(sides: tuple[float, float, float], angles: ViewAngles) -> ConicPair:
    """The two characteristic conics of the scene (u = s2/s1, v = s3/s1)."""
    t1, t2 = conic_terms(sides, angles.cosines)
    return ConicPair(Conic(*t1), Conic(*t2))


#: NEWTON_STOP: newton_polish stops once max(|F1|, |F2|) is below it,
#: absolute. Reason: at a simple root the residual falls from ~1e-8 to
#: rounding in one step, so the stop matters at a tangency, where it falls
#: fourfold per step; it sits 1000 times under the grid oracle's gate
#: (scenes._REFINE_TOL), which a converged point must pass.
NEWTON_STOP = 1e-13


def newton_polish(F1: Conic, F2: Conic, u: float, v: float):
    """Damped Newton on (F1, F2) = 0, 50 steps at most -> (u, v, residual);
    it stops once the residual is below NEWTON_STOP."""
    return _polish(F1.terms, F2.terms, float(u), float(v), NEWTON_STOP)


def _polish(t1, t2, u: float, v: float, tol: float, steps: int = 50):
    (p_vv, p_uv, p_uu, p_u, p_v, p_1), (q_vv, q_uv, q_uu, q_u, q_v, q_1) = t1, t2
    f1 = p_vv * v * v + p_uv * u * v + p_uu * u * u + p_u * u + p_v * v + p_1
    f2 = q_vv * v * v + q_uv * u * v + q_uu * u * u + q_u * u + q_v * v + q_1
    best_r = max(abs(f1), abs(f2))
    for _ in range(steps):
        if best_r < tol:
            break
        # Jacobian [[a, b], [c, d]] from the two gradients, solved by LU with
        # row pivoting; an exactly zero pivot (singular) stops the polish
        a = p_uv * v + 2.0 * p_uu * u + p_u
        b = 2.0 * p_vv * v + p_uv * u + p_v
        c = q_uv * v + 2.0 * q_uu * u + q_u
        d = 2.0 * q_vv * v + q_uv * u + q_v
        if abs(c) > abs(a):  # a step resets f1, f2: swapping them is safe
            a, b, c, d, f1, f2 = c, d, a, b, f2, f1
        l = c / a if a else 0.0
        u22 = d - l * b
        if not (a and u22):
            break
        dv = (l * f1 - f2) / u22
        du = (-f1 - b * dv) / a
        if not (math.isfinite(du) and math.isfinite(dv)):
            break
        # backtracking keeps the iteration from overshooting near tangency
        lam = 1.0
        for _ in range(8):
            x, y = u + lam * du, v + lam * dv
            g1 = p_vv * y * y + p_uv * x * y + p_uu * x * x + p_u * x + p_v * y + p_1
            g2 = q_vv * y * y + q_uv * x * y + q_uu * x * x + q_u * x + q_v * y + q_1
            r = max(abs(g1), abs(g2))
            if r < best_r:
                u, v, best_r, f1, f2 = x, y, r, g1, g2
                break
            lam *= 0.5
        else:
            break
    return u, v, best_r


#: _LANE_MIN: _polish_lanes takes vector steps, and vector halvings, while
#: at least this many lanes take them, and hands the rest to scalar _polish.
#: It sets the speed only: every lane has _polish's bits at any value
#: (tests/test_scenes.py TestOracleNewton, and the golden oracle points at 1
#: and 10**9). Measured break-even: on the Newton seeds of the 114 of the
#: 216 oracle_mesh scenes of seeds 1, 5, 7, 13, 19 and 25 with 8 or more
#: cells (Intel Xeon, 2 shared vCPUs, numpy 2.4), the lanes took 0.65 of the
#: all-scalar time at 32 and at 48, 0.67 at 64 and 0.77 at 96; at 32,
#: scenes of 32 to 64 seeds ran up to 1.27 times slower than all-scalar,
#: at 48 none by more than the +-10% spread between runs: below about 48
#: lanes a vector step costs more than the scalar steps it replaces.
_LANE_MIN = 48


def _polish_lanes(t1, t2, u, v, tol: float):
    """_polish from every seed (u[i], v[i]) at once -> (u, v, residual)
    float arrays, each lane bit for bit _polish's result.

    Vector steps (_lane_steps) run while at least _LANE_MIN lanes take
    them. A lane left over finishes in scalar _polish with the steps left
    from the start of its step: _polish recomputes f1, f2 and the residual
    from (u, v) by the expressions that gave the lane's own, so the restart
    is exact.
    """
    out = np.empty((3, len(u)))  # rows u, v, residual
    out[0], out[1] = u, v
    if len(u) < _LANE_MIN:
        scalar = [(np.arange(len(u)), 50)]
    else:
        with np.errstate(all="ignore"):  # Python floats raise no flag either
            scalar = _lane_steps(t1, t2, out, tol)
    for lanes, steps in scalar:
        out[:, lanes] = np.array(
            [_polish(t1, t2, x, y, tol, steps)
             for x, y in out[:2, lanes].T.tolist()]).reshape(-1, 3).T
    return out[0], out[1], out[2]


def _lane_steps(t1, t2, out: np.ndarray, tol: float) -> list:
    """_polish's steps on every lane (u, v) = out[:2, i] at once. A lane
    that stops gets its (u, v, residual) in out; a lane handed to scalar
    _polish gets the (u, v) its step starts from, and the handed lanes are
    returned as [(lanes, steps left)].

    Each lane makes _polish's float operations in its order: the row swap,
    the LU step, then lam = 1 and up to 7 halvings lam = 0.5**h; Python's
    max(x, y) is where(y > x, y, x), which keeps x beside a nan y. A step
    that is not finite needs no test of its own: every trial point is then
    inf or nan, none lowers the residual, and the lane stops as it stands,
    where _polish stops it. An exactly zero pivot makes the step not finite
    (a = 0 forces c = 0, so l is nan; u22 = 0 divides by 0), so such a lane
    stops as it stands too, where _polish stops at the pivot. The halvings
    run while at least _LANE_MIN lanes take them.
    """
    # row k of P_*: the coefficient of both conics, as a (2, 1) column, so
    # that one expression on (2, n) arrays gives F1's values over F2's; K_*
    # stack the gradients' coefficients the same way, du part over dv part
    P_vv, P_uv, P_uu, P_u, P_v, P_1 = np.array([t1, t2]).T[:, :, None]
    K_v, K_u, K_1 = (np.stack((P_uv, 2.0 * P_vv)), np.stack((2.0 * P_uu, P_uv)),
                     np.stack((P_u, P_v)))

    def point(x, y):
        """Rows x, y, max(|F1|, |F2|), F1, F2 of the points (x, y)."""
        X = np.empty((5, len(x)))
        X[0], X[1] = x, y
        G = np.add(P_vv * y * y + P_uv * x * y + P_uu * x * x + P_u * x
                   + P_v * y, P_1, out=X[3:])
        A = np.abs(G)
        X[2] = np.where(A[1] > A[0], A[1], A[0])
        return X

    def hand(lanes):
        """Hand lanes to scalar _polish, from the start of step k."""
        i = lane[lanes]
        if len(i):
            out[:2, i] = S[:2, lanes]
            scalar.append((i, 50 - k))

    scalar = []
    lane = np.arange(out.shape[1])
    S = point(out[0], out[1])  # the active lanes' rows u, v, best, f1, f2
    live = ~(S[2] < tol)
    for k in range(50):
        if not live.all():  # the lanes that stop, as they stand
            out[:, lane[~live]] = S[:3, ~live]
            lane, S = lane[live], S[:, live]
        if len(lane) < _LANE_MIN:
            hand(slice(None))
            return scalar
        u, v, best = S[:3]
        # the Jacobian's columns (a, c) and (b, d), and (f1, f2): the rows
        # swapped where |c| > |a|
        J = np.empty((3, 2, len(lane)))
        np.add(K_v * v + K_u * u, K_1, out=J[:2])
        J[2] = S[3:]
        (a, c), (b, d), (f1, f2) = np.where(np.abs(J[0, 1]) > np.abs(J[0, 0]),
                                            J[:, ::-1], J)
        l = c / a
        u22 = d - l * b
        dv = (l * f1 - f2) / u22
        du = (-f1 - b * dv) / a
        # lam = 1 (1.0 * du is du), then the halvings of the lanes in p
        X = point(u + du, v + dv)
        ok = X[2] < best
        S = np.where(ok, X, S)
        p = (~ok).nonzero()[0]
        for h in range(1, 8):
            if len(p) < _LANE_MIN:
                hand(p)
                break
            lam = 0.5 ** h
            X = point(S[0, p] + lam * du[p], S[1, p] + lam * dv[p])
            ok = X[2] < S[2, p]
            S[:, p[ok]] = X[:, ok]
            p = p[~ok]
        live = ~(S[2] < tol)
        live[p] = False  # handed, or no halving lowered best
    # after 50 steps every lane stops as it stands
    out[:, lane] = S[:3]
    return scalar


def resultant_in_u(F1: Conic, F2: Conic) -> np.ndarray:
    """Degree<=4 polynomial in u (low-first) eliminating v from the pair.

    intersect_conics does not use it: it is the independent eliminant whose
    distinct roots the danger_repeat campaign counts
    (scenes._distinct_quartic_roots).

    With each conic A v^2 + B(u) v + D(u): T1^2 - T2 T3 for
    T1 = A1 D2 - A2 D1, T2 = A1 B2 - A2 B1, T3 = B1 D2 - B2 D1, summed in
    convolution order."""
    a, b0, b1, d0, d1, d2 = F1.c_vv, F1.c_v, F1.c_uv, F1.c_1, F1.c_u, F1.c_uu
    A, B0, B1, D0, D1, D2 = F2.c_vv, F2.c_v, F2.c_uv, F2.c_1, F2.c_u, F2.c_uu
    p0, p1, p2 = a * D0 - A * d0, a * D1 - A * d1, a * D2 - A * d2
    q0, q1 = a * B0 - A * b0, a * B1 - A * b1
    r0 = b0 * D0 - B0 * d0
    r1 = (b0 * D1 + b1 * D0) - (B0 * d1 + B1 * d0)
    r2 = (b0 * D2 + b1 * D1) - (B0 * d2 + B1 * d1)
    r3 = b1 * D2 - B1 * d2
    return np.array([p0 * p0 - q0 * r0,
                     2.0 * p0 * p1 - (q0 * r1 + q1 * r0),
                     (p0 * p2 + p1 * p1 + p2 * p0) - (q0 * r2 + q1 * r1),
                     2.0 * p1 * p2 - (q0 * r3 + q1 * r2),
                     p2 * p2 - q1 * r3])


def farthest_real_root(a: float, b: float, c: float) -> float:
    """The real root of x^3 + a x^2 + b x + c farthest from the other two.

    Of three real roots that is the outer one with the larger gap to the
    middle one, from the trigonometric form; of one, that root, from
    Cardano's form with the cube root taken where no cancellation occurs.
    The cubic is first scaled to x = 2^k y with |a|, |b|, |c| below 2^k,
    4^k, 8^k: exact, and it keeps p^3 and q^2 from overflow and underflow."""
    k = math.frexp(max(abs(a), math.sqrt(abs(b)), abs(c) ** (1.0 / 3.0)))[1]
    a, b, c = math.ldexp(a, -k), math.ldexp(b, -2 * k), math.ldexp(c, -3 * k)
    # y = t - a/3 leaves t^3 + p t + q, with h = q/2 and n = p/3
    a3 = a / 3.0
    n = (b - a * a3) / 3.0
    h = 0.5 * ((2.0 * a3 * a3 - b) * a3 + c)
    disc = h * h + n * n * n
    if disc < 0.0:
        # t = 2 m cos(phi), cos(3 phi) = -h / m^3: the root of the larger
        # gap is the top one when h < 0 and the bottom one when h > 0
        m = math.sqrt(-n)
        t = 2.0 * m * math.cos(math.acos(min(1.0, abs(h) / (m * m * m))) / 3.0)
        t = math.copysign(t, -h)
    else:
        w = -math.copysign((abs(h) + math.sqrt(disc)) ** (1.0 / 3.0), h)
        t = w - n / w if w else 0.0
    return math.ldexp(t - a3, k)


def _pencil_sigma2(x, y) -> float:
    """Second singular value of the 2x6 matrix of unit coefficient rows x, y:
    sqrt(1 - |x.y|), as |x ^ y| / sqrt(1 + |x.y|) to stay accurate near 0."""
    norms = math.hypot(*x) * math.hypot(*y)
    dot = reduce(add, map(mul, x, y), 0.0) / norms
    w = 0.0
    for i, j in combinations(range(6), 2):
        w += (x[i] * y[j] - x[j] * y[i]) ** 2
    return math.sqrt(w) / norms / math.sqrt(1.0 + abs(dot))


def intersect_conics(pair: ConicPair) -> IntersectionSet:
    """All real intersections of the pair, with root multiplicities: polished
    seeds that pass the INTERSECT_TOL gate merge within CLUSTER_TOL.

    Raises DegeneratePencilError when the conics are proportional or share a
    component (every member of the pencil is degenerate).
    """
    points = _intersect(pair.C1.terms, pair.C2.terms, INTERSECT_TOL,
                        CLUSTER_TOL)
    return IntersectionSet(points=tuple([_new_ratio(*p) for p in points]),
                           all_real=sum([p[2] for p in points]))


#: SHARED_COMPONENT_TOL bounds the four coefficients of det(A + lam B) of the
#: unit rows, absolute: all below it, the conics share a component. Value
#: unexplained. Scenes stay far above it (the largest coefficient is 4.0e-8 at
#: least on the scenes of INTERSECT_TOL and the side_nsc plan); triangles with
#: one side between 1e-5 and 1e-3 of the others fall under it on 181 of 200
#: draws. Mutants x10 and x0.1: caught by tests/test_tolerances.py.
SHARED_COMPONENT_TOL = 1e-14
#: _SEED_STOP: _intersect's polish of a seed stops once max(|F1|, |F2|) is
#: below it, absolute. Reason: about 4.5 eps, the rounding floor of unit rows
#: at |u|, |v| <= 1; 97-98% of the seeds of INTERSECT_TOL's scenes reach it,
#: and the rest stop when no backtracked step lowers the residual. x10
#: breaks TestSolveUnfiltered; x0.1 is slack: below the floor every seed
#: stops when no step helps, which moves points only in their last bits.
_SEED_STOP = 1e-15


def _intersect(t1, t2, tol: float, cluster_tol: float) -> list[list]:
    """intersect_conics on the two conics' `Conic.terms` rows, as plain
    [u, v, multiplicity] lists sorted by (u, v).

    Straight-line float code: A and B are the symmetric matrices of the unit
    rows (F = x^T M x for x = (u, v, 1)), held as their six upper entries;
    adjugates are the cross products of matrix rows, each subtraction in
    `geometry._cross` order, and sums fold left in the order that
    `TestSolveReference` pins bit for bit."""
    # the unit rows, as _unit makes them
    m = max(map(abs, t1))
    if m == 0.0:
        raise DegeneratePencilError("zero conic")
    x0, x1, x2, x3, x4, x5 = t1 = tuple([c / m for c in t1])
    m = max(map(abs, t2))
    if m == 0.0:
        raise DegeneratePencilError("zero conic")
    y0, y1, y2, y3, y4, y5 = t2 = tuple([c / m for c in t2])
    # sigma2 needs its 15-term wedge only inside _PENCIL_BAND
    xx = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4 + x5 * x5
    yy = y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3 + y4 * y4 + y5 * y5
    xy = x0 * y0 + x1 * y1 + x2 * y2 + x3 * y3 + x4 * y4 + x5 * y5
    if (xy * xy > _PENCIL_BAND * xx * yy
            and _pencil_sigma2(t1, t2) < PENCIL_RANK_TOL):
        raise DegeneratePencilError("proportional conic pair")

    a00, a01, a02, a11, a12, a22 = x2, 0.5 * x1, 0.5 * x3, x0, 0.5 * x4, x5
    b00, b01, b02, b11, b12, b22 = y2, 0.5 * y1, 0.5 * y3, y0, 0.5 * y4, y5
    # adj A = (e..) and adj B = (f..), symmetric to the bit
    e00, e01, e02 = (a11 * a22 - a12 * a12, a12 * a02 - a01 * a22,
                     a01 * a12 - a11 * a02)
    e11, e12, e22 = (a22 * a00 - a02 * a02, a02 * a01 - a12 * a00,
                     a00 * a11 - a01 * a01)
    f00, f01, f02 = (b11 * b22 - b12 * b12, b12 * b02 - b01 * b22,
                     b01 * b12 - b11 * b02)
    f11, f12, f22 = (b22 * b00 - b02 * b02, b02 * b01 - b12 * b00,
                     b00 * b11 - b01 * b01)
    # det(A + lam B) = c0 + c1 lam + c2 lam^2 + c3 lam^3
    c0 = a00 * e00 + a01 * e01 + a02 * e02
    c1 = ((e00 * b00 + e01 * b01 + e02 * b02)
          + (e01 * b01 + e11 * b11 + e12 * b12)
          + (e02 * b02 + e12 * b12 + e22 * b22))
    c2 = ((a00 * f00 + a01 * f01 + a02 * f02)
          + (a01 * f01 + a11 * f11 + a12 * f12)
          + (a02 * f02 + a12 * f12 + a22 * f22))
    c3 = b00 * f00 + b01 * f01 + b02 * f02
    if abs(c3) < abs(c0):  # det B leads the cubic: finite roots
        (a00, a01, a02, a11, a12, a22, b00, b01, b02, b11, b12, b22) = (
            b00, b01, b02, b11, b12, b22, a00, a01, a02, a11, a12, a22)
        c0, c1, c2, c3 = c3, c2, c1, c0
    if max(abs(c0), abs(c1), abs(c2), abs(c3)) < SHARED_COMPONENT_TOL:
        raise DegeneratePencilError("conics share a component")

    # the real root farthest from the other two is simple even at a
    # tangency, where the two members through the tangent point coincide.
    # c3 = 0 (both conics are line pairs) makes c0 = 0 by the swap, so
    # lam = 0 is a root; a c3 so small that a ratio to it is not finite
    # keeps lam = 0 too, next to the root -c0 / c1
    lam = 0.0
    if c3:
        m2, m1, m0 = c2 / c3, c1 / c3, c0 / c3
        if math.isfinite(m2) and math.isfinite(m1) and math.isfinite(m0):
            lam = farthest_real_root(m2, m1, m0)
    if abs(lam) > 1.0:
        # the same member as B + A / lam: swap the roles so that |lam| <= 1
        (a00, a01, a02, a11, a12, a22, b00, b01, b02, b11, b12, b22) = (
            b00, b01, b02, b11, b12, b22, a00, a01, a02, a11, a12, a22)
        lam = 1.0 / lam
        c0, c1, c2, c3 = c3, c2, c1, c0
    for _ in range(2):  # Newton on det(A + lam B)
        df = c1 + (2.0 * c2 + 3.0 * c3 * lam) * lam
        if df:
            d00, d01, d02 = a00 + lam * b00, a01 + lam * b01, a02 + lam * b02
            d11, d12, d22 = a11 + lam * b11, a12 + lam * b12, a22 + lam * b22
            lam -= (d00 * (d11 * d22 - d12 * d12)
                    + d01 * (d12 * d02 - d01 * d22)
                    + d02 * (d01 * d12 - d11 * d02)) / df

    # The member D splits into two real lines l . (u, v, 1) = 0:
    # adj(D) = -p p^T for their common point p, and D plus the skew matrix
    # of p is the rank-1 l m^T (Richter-Gebert, Perspectives on Projective
    # Geometry, 11.3). Complex conjugate lines (q_ii > 0) give no points.
    d00, d01, d02 = a00 + lam * b00, a01 + lam * b01, a02 + lam * b02
    d11, d12, d22 = a11 + lam * b11, a12 + lam * b12, a22 + lam * b22
    q00, q01, q02 = (d11 * d22 - d12 * d12, d12 * d02 - d01 * d22,
                     d01 * d12 - d11 * d02)
    q11, q12, q22 = (d22 * d00 - d02 * d02, d02 * d01 - d12 * d00,
                     d00 * d11 - d01 * d01)
    qii, qi = q00, (q00, q01, q02)  # the row of adj(D) of largest |q_ii|
    if abs(q11) > abs(qii):
        qii, qi = q11, (q01, q11, q12)
    if abs(q22) > abs(qii):
        qii, qi = q22, (q02, q12, q22)
    if qii > 0.0:
        return []
    beta = math.sqrt(-qii)
    p0, p1, p2 = ((qi[0] / beta, qi[1] / beta, qi[2] / beta) if beta
                  else (0.0, 0.0, 0.0))
    C = (d00, d01 + p2, d02 - p1,
         d01 - p2, d11, d12 + p0,
         d02 + p1, d12 - p0, d22)
    flat = list(map(abs, C))
    i, j = divmod(flat.index(max(flat)), 3)

    # Each line meets B in a quadratic a2 x^2 + a1 x + a0 along o + x d
    # (a2 = d.Bd, a1 = 2 o.Bd, a0 = o.Bo), with d = (1, s, 0) and
    # o = (0, t, 1) when |l1| >= |l0|; otherwise u and v trade places
    # (flip). The * 0.0 products stay: they set signed zeros and turn an
    # infinity into NaN. A complex pair xr +- i im gives the seeds xr +- im
    # when B there, 2 |a2| im^2, passes the tol gate: a tangency that
    # rounding pushed off the real axis.
    points: list[list] = []  # [u, v, multiplicity]
    for l0, l1, l2 in (C[3 * i:3 * i + 3], C[j::3]):
        if abs(l1) >= abs(l0):
            if l1 == 0.0:  # the line at infinity
                continue
            flip, s, t = False, -l0 / l1, -l2 / l1
            g00, g02, g11, g12 = b00, b02, b11, b12
        else:
            flip, s, t = True, -l1 / l0, -l2 / l0
            g00, g02, g11, g12 = b11, b12, b00, b02
        gd0 = g00 + b01 * s + g02 * 0.0
        gd1 = b01 + g11 * s + g12 * 0.0
        gd2 = g02 + g12 * s + b22 * 0.0
        a2 = gd0 + s * gd1 + 0.0 * gd2
        a1 = 2.0 * (0.0 * gd0 + t * gd1 + gd2)
        a0 = (0.0 * (g00 * 0.0 + b01 * t + g02)
              + t * (b01 * 0.0 + g11 * t + g12)
              + (g02 * 0.0 + g12 * t + b22))
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            xr = -0.5 * a1 / a2
            im = math.sqrt(-disc) / (2.0 * abs(a2))
            u0, v0 = 0.0 + xr, t + xr * s
            if flip:
                u0, v0 = v0, u0
            if 2.0 * abs(a2) * im * im > tol * (1.0 + u0 * u0 + v0 * v0):
                continue
            xs = (xr - im, xr + im)
        else:
            # the stable pair q / a2, a0 / q; a2 = 0 leaves the one root
            # a0 / q, and q = 0 means a1 = 0 and a2 a0 = 0
            q = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
            if q == 0.0:
                xs = (0.0, 0.0) if a2 else ()
            else:
                xs = (q / a2, a0 / q) if a2 else (a0 / q,)
        for x in xs:
            u, v = 0.0 + x, t + x * s
            if flip:
                u, v = v, u
            # _polish's first residual: a seed below _SEED_STOP takes no step
            res = max(abs(x0 * v * v + x1 * u * v + x2 * u * u + x3 * u
                          + x4 * v + x5),
                      abs(y0 * v * v + y1 * u * v + y2 * u * u + y3 * u
                          + y4 * v + y5))
            if not res < _SEED_STOP:
                u, v, res = _polish(t1, t2, u, v, _SEED_STOP)
            if not res <= tol * (1.0 + u * u + v * v):
                continue
            for p in points:
                if (abs(u - p[0]) <= cluster_tol * (1.0 + abs(p[0]))
                        and abs(v - p[1]) <= cluster_tol * (1.0 + abs(p[1]))):
                    p[2] += 1
                    break
            else:
                points.append([u, v, 1])
    # by (u, v), as the lists compare: two points of equal u and v are kept
    # only under a cluster_tol that merges nothing (negative or nan), so
    # both have multiplicity 1
    points.sort()
    return points


#: _MIN_RATIO bounds u and v of a kept point from below, absolute: positive
#: depths, not zero up to rounding. Value unexplained: the smallest u or v of
#: a solution of the 2000 random and 700 locus scenes is 1.8e-3. Mutants
#: x10 and x0.1: caught by tests/test_tolerances.py.
_MIN_RATIO = 1e-10


def quadrant_one_filter(inter: IntersectionSet) -> list[RatioPair]:
    """Points with u and v above _MIN_RATIO; solve keeps the same points of
    the kernel's plain ones."""
    return [p for p in inter.points if p.u > _MIN_RATIO and p.v > _MIN_RATIO]
