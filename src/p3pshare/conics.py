"""The two characteristic conics and their exact intersection.

The solver eliminates v by a closed-form resultant in u, takes the real
roots of that quartic as companion-matrix eigenvalues, back-substitutes v and
polishes every candidate with damped Newton on the bivariate system. All but
the eigenvalue call is float arithmetic: numpy's per-call cost dominates here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DegeneratePencilError
from .geometry import RatioPair, ViewAngles

#: default acceptance residual for polished intersection points
INTERSECT_TOL = 1e-9
#: default clustering threshold deciding "repeated" (coefficient-scaled)
CLUSTER_TOL = 1e-7
#: second-singular-value threshold for the degenerate-pencil test
PENCIL_RANK_TOL = 1e-10


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

    def gradient(self, u: float, v: float) -> np.ndarray:
        return np.array([self.c_uv * v + 2.0 * self.c_uu * u + self.c_u,
                         2.0 * self.c_vv * v + self.c_uv * u + self.c_v])

    def scaled(self) -> "Conic":
        """Same zero set, coefficients normalized to unit max norm."""
        m = max(abs(c) for c in self.terms)
        if m == 0.0:
            raise DegeneratePencilError("zero conic")
        return Conic(*(c / m for c in self.terms))


@dataclass(frozen=True)
class ConicPair:
    C1: Conic
    C2: Conic
    sides: tuple[float, float, float]
    angles: ViewAngles


@dataclass(frozen=True)
class IntersectionSet:
    points: tuple[RatioPair, ...]
    all_real: int


def build_conics(sides: tuple[float, float, float], angles: ViewAngles) -> ConicPair:
    """The two characteristic conics of the scene (u = s2/s1, v = s3/s1)."""
    a, b, c = sides
    ca, cb, cg = angles.cosines
    a2, b2, c2 = a * a, b * b, c * c
    C1 = Conic(c_vv=a2 - b2, c_uv=2.0 * b2 * ca, c_uu=-b2,
               c_u=0.0, c_v=-2.0 * a2 * cb, c_1=a2)
    C2 = Conic(c_vv=-c2, c_uv=2.0 * c2 * ca, c_uu=a2 - c2,
               c_u=-2.0 * a2 * cg, c_v=0.0, c_1=a2)
    return ConicPair(C1=C1, C2=C2, sides=(a, b, c), angles=angles)


def difference_conic(pair: ConicPair) -> Conic:
    """C2 - C1; every common point of the pair lies on it."""
    d = pair.C2.coeffs - pair.C1.coeffs
    return Conic(*d)


def newton_polish(F1: Conic, F2: Conic, u: float, v: float,
                  tol: float = 1e-13, max_iter: int = 50):
    """Damped Newton on (F1, F2) = 0; returns (u, v, residual)."""
    u, v = float(u), float(v)
    best_r = max(abs(F1(u, v)), abs(F2(u, v)))
    for _ in range(max_iter):
        if best_r < tol:
            break
        f1, f2 = F1(u, v), F2(u, v)
        # Jacobian [[a, b], [c, d]] from the two gradients, solved by LU with
        # row pivoting; an exactly zero pivot (singular) falls back to lstsq
        a = F1.c_uv * v + 2.0 * F1.c_uu * u + F1.c_u
        b = 2.0 * F1.c_vv * v + F1.c_uv * u + F1.c_v
        c = F2.c_uv * v + 2.0 * F2.c_uu * u + F2.c_u
        d = 2.0 * F2.c_vv * v + F2.c_uv * u + F2.c_v
        if abs(c) > abs(a):
            a, b, c, d, f1, f2 = c, d, a, b, f2, f1
        l = c / a if a else 0.0
        u22 = d - l * b
        if a and u22:
            dv = (l * f1 - f2) / u22
            du = (-f1 - b * dv) / a
        else:
            du, dv = np.linalg.lstsq(np.array([[a, b], [c, d]]),
                                     np.array([-f1, -f2]), rcond=None)[0].tolist()
        if not (math.isfinite(du) and math.isfinite(dv)):
            break
        # backtracking keeps the iteration from overshooting near tangency
        lam = 1.0
        for _ in range(8):
            qu, qv = u + lam * du, v + lam * dv
            r = max(abs(F1(qu, qv)), abs(F2(qu, qv)))
            if r < best_r:
                u, v, best_r = qu, qv, r
                break
            lam *= 0.5
        else:
            break
    return u, v, best_r


def resultant_in_u(F1: Conic, F2: Conic) -> np.ndarray:
    """Degree<=4 polynomial in u (low-first) eliminating v from the pair.

    With each conic A v^2 + B(u) v + D(u): T1^2 - T2 T3 for T1 = A1 D2 - A2 D1,
    T2 = A1 B2 - A2 B1, T3 = B1 D2 - B2 D1, summed in convolution order."""
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


def companion_roots(r) -> list:
    """Complex roots of the polynomial with low-first coefficients r (nonzero
    leading one): eigenvalues of the companion matrix numpy's polycompanion builds."""
    n = len(r) - 1
    if n < 2:
        return [-r[0] / r[1]] if n == 1 else []
    m = np.eye(n, k=-1)
    m[:, -1] = [-c / r[n] for c in r[:n]]
    return np.linalg.eigvals(m).tolist()


def _quad_roots(a2: float, a1: float, a0: float, scale: float):
    """Real roots of a2 x^2 + a1 x + a0, degenerating gracefully."""
    m = max(abs(a2), abs(a1), abs(a0))
    if m == 0.0:
        return None  # identically zero
    if abs(a2) <= 1e-13 * m:
        if abs(a1) <= 1e-13 * m:
            return []
        return [-a0 / a1]
    disc = a1 * a1 - 4.0 * a2 * a0
    band = 1e-12 * max(a1 * a1, abs(4.0 * a2 * a0), m * m * scale * scale)
    if disc < -band:
        return []
    disc = max(disc, 0.0)
    sq = math.sqrt(disc)
    q = -0.5 * (a1 + math.copysign(sq, a1)) if a1 != 0.0 else 0.5 * sq
    if q == 0.0:
        return [0.0, 0.0]
    return [q / a2, a0 / q]


def _v_candidates(F1: Conic, F2: Conic, u0: float) -> list[float]:
    """Common v roots of the two conics at fixed u."""
    # each conic as a quadratic a v^2 + b v + d, its coefficients by Horner in u
    a1, b1, d1 = F1.c_vv, F1.c_v + F1.c_uv * u0, F1.c_1 + (F1.c_u + F1.c_uu * u0) * u0
    a2, b2, d2 = F2.c_vv, F2.c_v + F2.c_uv * u0, F2.c_1 + (F2.c_u + F2.c_uu * u0) * u0
    scale = 1.0 + abs(u0)
    # linear elimination of v^2 gives v directly when non-degenerate; near a
    # double u-root the denominator degenerates, so the per-conic quadratic
    # roots are always offered too and the residual gate arbitrates
    out = []
    den = a2 * b1 - a1 * b2
    num = a1 * d2 - a2 * d1
    if abs(den) > 1e-8 * scale * max(abs(a1), abs(a2), abs(b1), abs(b2), 1e-30):
        out.append(num / den)
    r1 = _quad_roots(a1, b1, d1, scale)
    r2 = _quad_roots(a2, b2, d2, scale)
    if r1 is None or r2 is None:  # an identically zero quadratic
        return out + (r1 or r2 or [])
    matched = [0.5 * (x + y) for x in r1 for y in r2
               if abs(x - y) <= 1e-4 * (1.0 + abs(x))]
    return out + (matched or r1 + r2)


def _cluster_scalars(values: list[float], tol: float) -> list[tuple[float, int]]:
    """Greedy 1D clustering on absolute gaps; (representative, count) pairs."""
    out: list[list[float]] = []
    for x in sorted(values):
        if out and abs(x - out[-1][0]) <= tol:
            out[-1].append(x)
        else:
            out.append([x])
    return [(sum(c) / len(c), len(c)) for c in out]


def _tangency_score(F1: Conic, F2: Conic, u: float, v: float) -> float:
    """Small when the two gradients are parallel (conics tangent)."""
    g1u, g1v = F1.gradient(u, v).tolist()
    g2u, g2v = F2.gradient(u, v).tolist()
    n = math.hypot(g1u, g1v) * math.hypot(g2u, g2v)
    if n == 0.0:
        return 0.0
    return abs(g1u * g2v - g1v * g2u) / n


def _pencil_sigma2(F1: Conic, F2: Conic) -> float:
    """Second singular value of the 2x6 matrix of unit coefficient rows x, y:
    sqrt(1 - |x.y|), as |x ^ y| / sqrt(1 + |x.y|) to stay accurate near 0."""
    x, y = F1.terms, F2.terms
    norms = math.hypot(*x) * math.hypot(*y)
    dot = sum(p * q for p, q in zip(x, y)) / norms
    wedge = math.sqrt(sum((x[i] * y[j] - x[j] * y[i]) ** 2
                          for i, j in combinations(range(6), 2))) / norms
    return wedge / math.sqrt(1.0 + abs(dot))


def intersect_conics(pair: ConicPair, tol: float = INTERSECT_TOL,
                     cluster_tol: float = CLUSTER_TOL) -> IntersectionSet:
    """All real intersections of the pair, with root multiplicities.

    Raises DegeneratePencilError for proportional conics or an identically
    vanishing resultant (the cocyclic configuration).
    """
    F1 = pair.C1.scaled()
    F2 = pair.C2.scaled()
    if _pencil_sigma2(F1, F2) < PENCIL_RANK_TOL:
        raise DegeneratePencilError("proportional conic pair")

    r = resultant_in_u(F1, F2).tolist()
    rmax = max(abs(c) for c in r)
    if rmax < 1e-14:
        raise DegeneratePencilError("identically zero resultant")
    r = [c / rmax for c in r]
    while abs(r[-1]) <= 1e-13:
        r.pop()
    roots = companion_roots(r)
    # double roots perturb by the square root of the coefficient noise, so
    # near-real acceptance needs a floor; the residual gate after polishing
    # rejects genuinely complex roots that slip through
    imag_tol = max(cluster_tol, 1e-5)
    real_u = [z.real for z in roots
              if abs(z.imag) <= imag_tol * (1.0 + abs(z.real))]

    points: list[RatioPair] = []
    for u0, mult in _cluster_scalars(real_u, cluster_tol):
        # polished v candidates that pass the residual gate, deduped
        uniq: list[tuple[float, float]] = []
        for v0 in _v_candidates(F1, F2, u0):
            uu, vv, res = newton_polish(F1, F2, u0, v0)
            if res <= tol * (1.0 + uu * uu + vv * vv) and not any(
                    abs(uu - a) <= cluster_tol * (1.0 + abs(a))
                    and abs(vv - b) <= cluster_tol * (1.0 + abs(b))
                    for a, b in uniq):
                uniq.append((uu, vv))
        k = len(uniq)
        ms = [1] * k
        if 0 < k < mult:
            # the excess multiplicity goes to the most tangential point
            scores = [_tangency_score(F1, F2, uu, vv) for uu, vv in uniq]
            ms[scores.index(min(scores))] += mult - k
        for (uu, vv), m in zip(uniq, ms):
            points.append(RatioPair(u=uu, v=vv, multiplicity=m))

    # global dedupe across u clusters; a point re-found from two clusters
    # means an over-split root, so keep the larger multiplicity, not the sum
    merged: list[RatioPair] = []
    for p in sorted(points, key=lambda q: (q.u, q.v)):
        for i, q in enumerate(merged):
            if (abs(p.u - q.u) <= cluster_tol * (1.0 + abs(q.u))
                    and abs(p.v - q.v) <= cluster_tol * (1.0 + abs(q.v))):
                merged[i] = RatioPair(u=q.u, v=q.v, multiplicity=max(
                    q.multiplicity, p.multiplicity))
                break
        else:
            merged.append(p)

    total = sum(p.multiplicity for p in merged)
    if total > 4:
        # cannot exceed the Bezout bound; clamp conservatively
        merged = [RatioPair(p.u, p.v, 1) for p in merged][:4]
        total = len(merged)
    return IntersectionSet(points=tuple(merged), all_real=total)


def quadrant_one_filter(inter: IntersectionSet, eps: float = 1e-10) -> list[RatioPair]:
    """Points with u > eps and v > eps."""
    return [p for p in inter.points if p.u > eps and p.v > eps]


def tangency_flags(inter: IntersectionSet) -> list[bool]:
    """True for points with multiplicity >= 2 (repeated P3P solutions)."""
    return [p.multiplicity >= 2 for p in inter.points]
