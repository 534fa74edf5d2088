"""Upper concave envelopes over memory (time/memory sharing).

1-D curves are piecewise linear with a flat right extension (extra memory
can always be ignored, so the last rate persists).  2-D evaluation solves
the small linear program

    max sum(l) lam_l R_l   s.t.  sum lam_l Mw_l <= M_w,
                                 sum lam_l Ms_l <= M_s,
                                 sum lam_l = 1,  lam >= 0

exactly, by enumerating basic feasible supports of size <= 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BelowDomain, EmptyInput, Infeasible
from .model import TOL, RateMemoryPoint

_DET_TOL = 1e-12


@dataclass(frozen=True)
class Curve1D:
    """Piecewise-linear concave nondecreasing curve.

    ``vertices`` have strictly increasing M, strictly increasing R and
    nonincreasing slopes; the value right of the last vertex stays at the
    last R.
    """

    vertices: tuple[tuple[float, float], ...]

    def to_csv(self) -> str:
        lines = ["M,R"]
        lines += [f"{m:.12g},{r:.12g}" for m, r in self.vertices]
        return "\n".join(lines) + "\n"


def upper_hull_1d(points: Iterable[tuple[float, float]]) -> Curve1D:
    """Upper concave envelope of (M, R) points, flat-extended to the right.

    Points dominated by a cheaper-or-equal point with at least the same
    rate are removed first (memory monotonicity), then a monotone-chain
    scan removes points under chords.
    """
    pts = sorted(points)
    if not pts:
        raise EmptyInput("upper_hull_1d needs at least one point")
    for m, r in pts:
        if not (m >= 0 and r >= 0) or m != m or r != r:
            raise EmptyInput(f"invalid hull input point ({m}, {r})")

    # Dominance filter: keep points whose rate strictly exceeds anything
    # available at smaller-or-equal memory.
    filtered: list[tuple[float, float]] = []
    best = -1.0
    for m, r in pts:
        if r > best + 0.0:
            if filtered and filtered[-1][0] == m:
                filtered[-1] = (m, r)
            else:
                filtered.append((m, r))
            best = r

    # Monotone chain: slopes must be strictly decreasing left to right.
    chain: list[tuple[float, float]] = []
    for p in filtered:
        while len(chain) >= 2:
            (m1, r1), (m2, r2) = chain[-2], chain[-1]
            # middle point below the chord chain[-2] -> p?
            if (r2 - r1) * (p[0] - m1) <= (p[1] - r1) * (m2 - m1) + _DET_TOL:
                chain.pop()
            else:
                break
        chain.append(p)
    return Curve1D(tuple(chain))


def eval_hull_1d(curve: Curve1D, M: float) -> float:
    """Evaluate the curve at memory M (linear interpolation).

    Raises :class:`BelowDomain` left of the first vertex; beyond the last
    vertex the final rate is returned (flat extension).
    """
    vs = curve.vertices
    if M < vs[0][0] - TOL:
        raise BelowDomain(f"M={M} below curve domain start {vs[0][0]}")
    if M >= vs[-1][0]:
        return vs[-1][1]
    for (m1, r1), (m2, r2) in zip(vs, vs[1:]):
        if M <= m2:
            if m2 == m1:
                return max(r1, r2)
            return r1 + (r2 - r1) * (M - m1) / (m2 - m1)
    return vs[-1][1]


def eval_hull_2d(
    points: Sequence[RateMemoryPoint], M_w: float, M_s: float
) -> float:
    """Best rate of any point mixture within both memory budgets.

    Exact support enumeration: an optimal basic solution of the LP has at
    most three positive weights (three rows: two budgets and the simplex
    constraint), so singletons, pairs with one tight budget, and triples
    with both budgets tight cover every vertex of the feasible region.
    Batched with numpy (Cramer's rule for the 3x3 systems).
    """
    if len(points) == 0:
        raise EmptyInput("eval_hull_2d needs at least one point")
    ftol = 1e-9
    R = np.array([p.R for p in points])
    Mw = np.array([p.M_w for p in points])
    Ms = np.array([p.M_s for p in points])

    # Pareto filter: drop points beaten in all three coordinates by
    # another point (cuts the cubic enumeration; cannot change the LP).
    n0 = len(points)
    keep = np.ones(n0, dtype=bool)
    for i in range(n0):
        if not keep[i]:
            continue
        beaten = (
            (R >= R[i])
            & (Mw <= Mw[i])
            & (Ms <= Ms[i])
            & ((R > R[i]) | (Mw < Mw[i]) | (Ms < Ms[i]))
        )
        beaten[i] = False
        if beaten.any():
            keep[i] = False
    R, Mw, Ms = R[keep], Mw[keep], Ms[keep]
    n = len(R)

    best = -np.inf
    single = (Mw <= M_w + ftol) & (Ms <= M_s + ftol)
    if single.any():
        best = float(R[single].max())

    if n >= 2:
        ii, jj = np.triu_indices(n, k=1)
        for cost, budget in ((Mw, M_w), (Ms, M_s)):
            # lam_i cost_i + lam_j cost_j = budget, lam_i + lam_j = 1
            denom = cost[ii] - cost[jj]
            ok = np.abs(denom) > _DET_TOL
            lam_i = np.where(ok, (budget - cost[jj]) / np.where(ok, denom, 1.0), -1.0)
            lam_j = 1.0 - lam_i
            feas = (
                ok
                & (lam_i >= -ftol)
                & (lam_j >= -ftol)
                & (lam_i * Mw[ii] + lam_j * Mw[jj] <= M_w + ftol)
                & (lam_i * Ms[ii] + lam_j * Ms[jj] <= M_s + ftol)
            )
            if feas.any():
                vals = lam_i * R[ii] + lam_j * R[jj]
                best = max(best, float(vals[feas].max()))

    if n >= 3:
        idx = np.array(list(itertools.combinations(range(n), 3)))
        a, b, c = idx[:, 0], idx[:, 1], idx[:, 2]
        # rows: Mw-budget, Ms-budget, simplex; columns: the three points
        w1, w2, w3 = Mw[a], Mw[b], Mw[c]
        s1, s2, s3 = Ms[a], Ms[b], Ms[c]
        det = (
            w1 * (s2 - s3) - w2 * (s1 - s3) + w3 * (s1 - s2)
        )
        ok = np.abs(det) > _DET_TOL
        safe = np.where(ok, det, 1.0)
        l1 = (M_w * (s2 - s3) - w2 * (M_s - s3) + w3 * (M_s - s2)) / safe
        l2 = (w1 * (M_s - s3) - M_w * (s1 - s3) + w3 * (s1 - M_s)) / safe
        l3 = 1.0 - l1 - l2
        feas = ok & (l1 >= -ftol) & (l2 >= -ftol) & (l3 >= -ftol)
        if feas.any():
            vals = l1 * R[a] + l2 * R[b] + l3 * R[c]
            best = max(best, float(vals[feas].max()))

    if not np.isfinite(best):
        raise Infeasible(
            f"no point mixture fits budgets (M_w={M_w}, M_s={M_s})"
        )
    return best
