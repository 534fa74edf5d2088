"""Upper concave envelopes over memory (time/memory sharing).

1-D curves are piecewise linear with a flat right extension (extra memory
can always be ignored, so the last rate persists).

In two dimensions the best rate of a mixture of points
``l = (R_l, Mw_l, Ms_l)`` within budgets ``(M_w, M_s)`` is the linear
program

    max sum(l) lam_l R_l   s.t.  sum lam_l Mw_l <= M_w,
                                 sum lam_l Ms_l <= M_s,
                                 sum lam_l = 1,  lam >= 0.

Its dual is ``min y_w M_w + y_s M_s + z`` over the polyhedron

    P = {(y_w, y_s, z): y >= 0,  y_w Mw_l + y_s Ms_l + z >= R_l for every l}.

P contains no line, so wherever the LP is feasible, strong duality makes
its value the smallest of the planes ``y_w M_w + y_s M_s + z`` taken over
the vertices of P.  A vertex has three independent tight constraints:
three points on an upper facet of the point cloud with nonnegative slopes,
two points on an edge of the 1-D hull of the (Mw, R) or (Ms, R) projection
(``y_s = 0`` or ``y_w = 0``), or ``y = 0`` with ``z = max R``.  Given its
slopes y, a vertex's offset is ``z = g(y) = max_l (R_l - y . m_l)``.
Where the LP is infeasible (below the lower-left convex chain of the
(Mw, Ms) projection) the dual is unbounded.  :class:`Surface` finds the
vertex planes once per point set; a query is then one matrix-vector
product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BelowDomain, EmptyInput, Infeasible
from .model import TOL, RateMemoryPoint

_DET_TOL = 1e-12
# Budget slack a query may overdraw (the feasibility tolerance).
_FTOL = 1e-9
# A point this far above the candidate surface joins the candidate set.
_CERT_TOL = 1e-13


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


def _upper_chain(m: Sequence[float], r: Sequence[float]) -> list[int]:
    """Indices of the upper concave envelope of the points (m_i, r_i).

    Points dominated by a cheaper-or-equal point with at least the same
    rate are removed first (memory monotonicity), then a monotone-chain
    scan removes points under chords.  The result has strictly increasing
    m and r and strictly decreasing slopes.
    """
    # Dominance filter: keep points whose rate strictly exceeds anything
    # available at smaller-or-equal memory.
    filtered: list[int] = []
    best = -1.0
    for i in sorted(range(len(m)), key=lambda i: (m[i], r[i])):
        if r[i] > best:
            if filtered and m[filtered[-1]] == m[i]:
                filtered[-1] = i
            else:
                filtered.append(i)
            best = r[i]

    # Monotone chain: slopes must be strictly decreasing left to right.
    chain: list[int] = []
    for p in filtered:
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            # middle point below the chord chain[-2] -> p?
            if (r[b] - r[a]) * (m[p] - m[a]) <= (r[p] - r[a]) * (m[b] - m[a]) + _DET_TOL:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def upper_hull_1d(points: Iterable[tuple[float, float]]) -> Curve1D:
    """Upper concave envelope of (M, R) points, flat-extended to the right
    (see :func:`_upper_chain`)."""
    pts = list(points)
    if not pts:
        raise EmptyInput("upper_hull_1d needs at least one point")
    for m, r in pts:
        if not (m >= 0 and r >= 0) or m != m or r != r:
            raise EmptyInput(f"invalid hull input point ({m}, {r})")
    m = [p[0] for p in pts]
    r = [p[1] for p in pts]
    return Curve1D(tuple((m[i], r[i]) for i in _upper_chain(m, r)))


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


def _half_hull(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Lower convex hull of 2-D points sorted by (x, y), left to right
    (the upper hull, right to left, for points sorted in reverse)."""
    h: list[tuple[float, float]] = []
    for c in pts:
        while len(h) >= 2 and (
            (h[-1][0] - h[-2][0]) * (c[1] - h[-2][1])
            - (h[-1][1] - h[-2][1]) * (c[0] - h[-2][0])
        ) <= 0.0:
            h.pop()
        h.append(c)
    return h


def _convex_hull_2d(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Vertices of the convex hull of distinct 2-D points."""
    pts = sorted(pts)
    if len(pts) == 1:
        return pts
    return _half_hull(pts)[:-1] + _half_hull(pts[::-1])[:-1]


def _lower_left_chain(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Vertices of conv(pts) + R^2_+, by increasing x and decreasing y."""
    chain = []
    for p in _half_hull(sorted(pts)):
        if chain and p[1] >= chain[-1][1]:
            break
        chain.append(p)
    return chain


def _facet_slopes(M: np.ndarray, R: np.ndarray, first: int) -> np.ndarray:
    """Slopes y >= 0 of the planes through points i < j < k, k >= first, of
    the points (columns of M, rates R) that no point lies above (within a
    slack that only admits further valid planes once their offset is
    recomputed as g(y))."""
    Mw, Ms = M
    # pairs (i, j), i < j, ordered by j: those with j < k are a prefix
    J, I = np.tril_indices(len(R), -1)
    out = [np.empty((0, 2))]
    for k in range(max(first, 2), len(R)):
        i, j = I[: k * (k - 1) // 2], J[: k * (k - 1) // 2]
        uw, us, ur = Mw[i] - Mw[k], Ms[i] - Ms[k], R[i] - R[k]
        vw, vs, vr = Mw[j] - Mw[k], Ms[j] - Ms[k], R[j] - R[k]
        det = uw * vs - us * vw
        ok = np.abs(det) > _DET_TOL * np.hypot(uw, us) * np.hypot(vw, vs)
        det = np.where(ok, det, 1.0)
        yw = (ur * vs - us * vr) / det
        ys = (uw * vr - ur * vw) / det
        ok &= (yw >= 0.0) & (ys >= 0.0)
        Y = np.column_stack((yw[ok], ys[ok]))
        z = R[k] - Y @ M[:, k]
        # every fourth point first: it rejects most planes for little work
        for cols in (slice(None, None, 4), slice(None)):
            low = (R[cols] - Y @ M[:, cols]).max(axis=1) <= z + _FTOL
            Y, z = Y[low], z[low]
        out.append(Y)
    return np.concatenate(out)


class Surface:
    """The two-budget mixture LP over a fixed point set, solved for every
    budget pair at once: its dual's vertex planes, built once.

    Building starts from a candidate subset C of the points: the maxima
    of ``R - y . m`` on a grid of slopes y >= 0, the vertices of both
    projected 1-D hulls, and the lower-left convex chain of the (Mw, Ms)
    projection.  The planes of C's dual polyhedron P_C are then certified
    against every point; the maximiser of ``R - y . m`` for each plane
    some point lies above joins C, the planes the new points lie above
    go, and the planes through the new points come in.  Once no point
    lies above any plane, the vertices of P_C lie in P; the chain
    gives P_C the recession cone of P, so P_C = P and the planes are
    exactly P's vertices.  A query at a budget pair inside the feasible
    region returns the smallest plane value there.
    """

    def __init__(self, points: Sequence[RateMemoryPoint]):
        if len(points) == 0:
            raise EmptyInput("Surface needs at least one point")
        self._labels = [p.label for p in points]
        R = self._R = np.array([p.R for p in points])
        Mw = np.array([p.M_w for p in points])
        Ms = np.array([p.M_s for p in points])
        self._M = np.vstack((Mw, Ms))

        # The LP is feasible iff y . M >= min_l y . m_l for every ray y of
        # the dual's recession cone: the axes and the normals of the
        # lower-left chain's edges.
        where = {(w, m): i for i, (w, m) in enumerate(zip(Mw.tolist(), Ms.tolist()))}
        chain = [where[p] for p in _lower_left_chain(list(where))]
        x, y = self._M[:, chain]
        normals = np.column_stack((y[:-1] - y[1:], np.diff(x)))
        self._rays = np.vstack(
            ((1.0, 0.0), normals / np.hypot(*normals.T)[:, None], (0.0, 1.0))
        )
        self._floor = (self._rays @ self._M).min(axis=1) - _FTOL

        boundary = [np.zeros((1, 2))]
        cand = set(chain)
        for axis, cost in enumerate((Mw, Ms)):
            idx = _upper_chain(cost, R)
            cand.update(idx)
            slopes = np.diff(R[idx]) / np.diff(cost[idx])
            Y = np.zeros((len(slopes), 2))
            Y[:, axis] = slopes
            boundary.append(Y)
        boundary = np.concatenate(boundary)

        scale = max(float(self._M.max()), TOL)
        grid = (max(float(np.ptp(R)), TOL) / scale) * np.concatenate(
            ([0.0], np.geomspace(1e-3, 1e3, 13))
        )
        Y = np.array([(a, b) for a in grid for b in grid])
        cand.update((R[None, :] - Y @ self._M).argmax(axis=1).tolist())

        C: list[int] = []
        facets = np.empty((0, 2))
        new = sorted(cand)
        while new:
            first = len(C)
            C += new
            g = R[C] - facets @ self._M[:, C]
            facets = facets[g.max(axis=1) <= g[:, :first].max(axis=1, initial=-np.inf) + _FTOL]
            facets = np.concatenate((facets, _facet_slopes(self._M[:, C], R[C], first)))
            Y = np.unique(np.concatenate((boundary, facets)), axis=0)
            excess = R[None, :] - Y @ self._M
            above = excess.max(axis=1) > excess[:, C].max(axis=1) + _CERT_TOL
            new = sorted(set(excess[above].argmax(axis=1).tolist()) - set(C))
        self._Y = Y
        self._z = excess.max(axis=1)

    @property
    def planes(self) -> np.ndarray:
        """One row ``(y_w, y_s, z)`` per vertex plane."""
        return np.column_stack((self._Y, self._z))

    def _check_feasible(self, M_w: float, M_s: float) -> None:
        if (self._rays @ (M_w, M_s) < self._floor).any():
            raise Infeasible(
                f"no point mixture fits budgets (M_w={M_w}, M_s={M_s})"
            )

    def __call__(self, M_w: float, M_s: float) -> float:
        """Best rate of any point mixture within both memory budgets."""
        self._check_feasible(M_w, M_s)
        return float((self._Y @ (M_w, M_s) + self._z).min())

    def mixture(self, M_w: float, M_s: float) -> list[tuple[str, float]]:
        """An optimal mixture at (M_w, M_s): (label, weight) pairs.

        By complementary slackness an optimal mixture uses only points on
        the minimising plane; among supports of at most three such points
        with ``k - 1`` tight budgets (the LP's basic solutions), the best
        one is returned.
        """
        self._check_feasible(M_w, M_s)
        vals = self._Y @ (M_w, M_s) + self._z
        k = int(vals.argmin())
        gap = self._z[k] + self._Y[k] @ self._M - self._R
        # Points on one plane with one projection are interchangeable, and
        # any mixture of them is one of the vertices of their projection.
        tight = {tuple(self._M[:, i]): i for i in np.flatnonzero(gap <= _FTOL)}
        tight = [tight[p] for p in _convex_hull_2d(list(tight))]
        budget = np.array((M_w, M_s))
        best, best_val = None, -np.inf
        for size in (1, 2, 3):
            for sub in itertools.combinations(tight, size):
                for rows in itertools.combinations((0, 1), size - 1):
                    A = np.vstack((self._M[list(rows)][:, sub], np.ones(size)))
                    b = np.append(budget[list(rows)], 1.0)
                    try:
                        lam = np.linalg.solve(A, b)
                    except np.linalg.LinAlgError:
                        continue
                    if lam.min() < -_FTOL or (self._M[:, sub] @ lam > budget + _FTOL).any():
                        continue
                    val = float(lam @ self._R[list(sub)])
                    if val > best_val:
                        best, best_val = (sub, lam), val
        sub, lam = best
        lam = np.clip(lam, 0.0, None)
        lam /= lam.sum()
        return [(self._labels[i], float(w)) for i, w in zip(sub, lam) if w > 0.0]


def eval_hull_2d(
    points: Sequence[RateMemoryPoint], M_w: float, M_s: float
) -> float:
    """Best rate of any point mixture within both memory budgets (one
    query of :class:`Surface`; build the surface once to query it often)."""
    return Surface(points)(M_w, M_s)
