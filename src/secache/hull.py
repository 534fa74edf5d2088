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
product.  It finds them by double description: points join the dual a
batch at a time, and only the triples a joining point can complete are
solved, not every triple; the triples it does solve meet the arithmetic
and the acceptance test of solving every triple, so the planes agree
with that build to the bit (see :class:`Surface` for the one caveat).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BelowDomain, EmptyInput, Infeasible
from .model import TOL, Corners, RateMemoryPoint

_DET_TOL = 1e-12
# Budget slack a query may overdraw (the feasibility tolerance).
_FTOL = 1e-9
# A point this far above the candidate surface joins the candidate set.
_CERT_TOL = 1e-13
# A point this close below a plane counts as on it when the surface build
# proposes triples (see Surface).  It is wider than _FTOL: a triple
# accepted within _FTOL need not span an exact vertex, and the rule only
# proposes it with slack to spare.
_NEAR = 2e-9


@dataclass(frozen=True)
class Curve1D:
    """Piecewise-linear concave nondecreasing curve.

    ``vertices`` have strictly increasing M, strictly increasing R and
    nonincreasing slopes; the value right of the last vertex stays at the
    last R.  A curve over corner records keeps them, and each vertex's
    position among their rows, for :attr:`sources`.
    """

    vertices: tuple[tuple[float, float], ...]
    records: tuple[Corners, ...] = field(default=(), compare=False, repr=False)
    rows: tuple[int, ...] = field(default=(), compare=False, repr=False)

    @property
    def sources(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(rec.name, tuple(rec.index[i].tolist())) for rec, i in _sources(self.records, self.rows)]


def _upper_chain(m: np.ndarray, r: np.ndarray) -> list[int]:
    """Indices of the upper concave envelope of the points (m_i, r_i).

    Points dominated by a cheaper-or-equal point with at least the same
    rate are removed first (memory monotonicity), then a monotone-chain
    scan removes points under chords.  The result has strictly increasing
    m and r and strictly decreasing slopes.
    """
    # Dominance filter, in a stable (m, r) order: keep points whose rate
    # strictly exceeds anything at smaller-or-equal memory, the last of
    # those at each memory.
    order = np.lexsort((r, m))
    rs = r[order]
    order = order[rs > np.concatenate(([-1.0], np.maximum.accumulate(rs)[:-1]))]
    ms = m[order]
    kept = order[np.append(ms[1:] != ms[:-1], True)].tolist()

    # Monotone chain: slopes must be strictly decreasing left to right.
    m, r = m[kept].tolist(), r[kept].tolist()
    chain: list[int] = []
    for p in range(len(m)):
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            # middle point below the chord chain[-2] -> p?
            if (r[b] - r[a]) * (m[p] - m[a]) <= (r[p] - r[a]) * (m[b] - m[a]) + _DET_TOL:
                chain.pop()
            else:
                break
        chain.append(p)
    return [kept[p] for p in chain]


def upper_hull_1d(points, memory=None) -> Curve1D:
    """Upper concave envelope of (M, R) points, flat-extended to the right
    (see :func:`_upper_chain`).  With ``memory``, ``points`` are corner
    records and ``memory`` their rows' memories, an array per record."""
    if memory is not None:
        m, r = np.concatenate(memory), np.concatenate([c.R for c in points])
        idx = _upper_chain(m, r)
        return Curve1D(tuple(zip(m[idx].tolist(), r[idx].tolist())), tuple(points), tuple(idx))
    pts = list(points)
    if not pts:
        raise EmptyInput("upper_hull_1d needs at least one point")
    for m, r in pts:
        if not (m >= 0 and r >= 0) or m != m or r != r:
            raise EmptyInput(f"invalid hull input point ({m}, {r})")
    m, r = np.array(pts, float).T
    return Curve1D(tuple((pts[i][0], pts[i][1]) for i in _upper_chain(m, r)))


def _sources(records: Sequence[Corners], idx: Sequence[int]) -> list[tuple[Corners, int]]:
    """The record and row of each position ``idx`` in the records' rows."""
    ends = np.cumsum([len(rec) for rec in records], dtype=np.intp)
    at = np.searchsorted(ends, idx, side="right").tolist()
    return [(records[j], i - int(ends[j]) + len(records[j])) for j, i in zip(at, idx)]


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


def _lower_left_chain(Mw: np.ndarray, Ms: np.ndarray) -> list[int]:
    """Indices of the vertices of conv + R^2_+ of the points (Mw_i, Ms_i),
    by increasing Mw and decreasing Ms; of equal points, the last."""
    order = np.lexsort((Ms, Mw))
    w, m = Mw[order], Ms[order]
    order = order[np.append((w[1:] != w[:-1]) | (m[1:] != m[:-1]), True)]
    at = dict(zip(zip(Mw[order].tolist(), Ms[order].tolist()), order.tolist()))
    chain = []
    for p in _half_hull(list(at)):
        if chain and p[1] >= chain[-1][1]:
            break
        chain.append(p)
    return [at[p] for p in chain]


#: Most elements (plane x point, or candidate triple x point) one block of
#: the surface build evaluates at once.  It bounds the build's working set
#: at a few MB, whatever the number of points.
SURFACE_CHUNK = 1 << 15

#: Points that join the dual per double-description step.
INSERT_BATCH = 16

# Slopes, in units of the rate range per memory, whose maximisers of
# R - y . m seed the candidate set.
_SLOPES = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 13)))


def _blocks(rows: int, width: int) -> list[slice]:
    """Row blocks of about ``SURFACE_CHUNK / width`` rows.  Block edges fall
    on multiples of 16 rows and no block is a single row."""
    step = max(16, SURFACE_CHUNK // max(width, 1) // 16 * 16)
    edges = list(range(0, rows, step))
    if len(edges) > 1 and rows - edges[-1] == 1:
        edges.pop()
    return [slice(a, b) for a, b in zip(edges, edges[1:] + [rows])]


def _excess(Y: np.ndarray, M: np.ndarray, R: np.ndarray):
    """``R - y . m`` for every plane y (row of Y) and point (column of M,
    rates R), a block of rows at a time: yields (rows, values).  numpy
    rounds ``y . m`` one way in a matrix product and another on its
    matrix-vector path, so a lone row or column is computed twice over
    and cut back: each value is then rounded alike in every block shape."""
    wide = M if M.shape[1] > 1 else np.repeat(M, 2, axis=1)
    for block in _blocks(len(Y), len(R)):
        rows = Y[block] if block.stop - block.start > 1 else np.repeat(Y[block], 2, axis=0)
        yield block, R - (rows @ wide)[: block.stop - block.start, : len(R)]


def _facet_slopes(M: np.ndarray, R: np.ndarray, T: np.ndarray, against=slice(None)):
    """Slopes y >= 0 of the planes through the triples ``T`` (rows i < j < k
    of column indices of M, R) that no column of ``against`` lies above
    (within a slack that only admits further valid planes once their offset
    is recomputed as g(y)), and the rows of T they come from."""
    Mw, Ms = M
    Ma, Ra = M[:, against], R[against]
    out, rows = [np.empty((0, 2))], [np.empty(0, np.intp)]
    for block in _blocks(len(T), len(Ra)):
        i, j, k = T[block].T
        uw, us, ur = Mw[i] - Mw[k], Ms[i] - Ms[k], R[i] - R[k]
        vw, vs, vr = Mw[j] - Mw[k], Ms[j] - Ms[k], R[j] - R[k]
        det = uw * vs - us * vw
        ok = np.abs(det) > _DET_TOL * np.hypot(uw, us) * np.hypot(vw, vs)
        det = np.where(ok, det, 1.0)
        yw = (ur * vs - us * vr) / det
        ys = (uw * vr - ur * vw) / det
        ok &= (yw >= 0.0) & (ys >= 0.0)
        Y, k, row = np.column_stack((yw[ok], ys[ok])), k[ok], np.flatnonzero(ok) + block.start
        z = R[k] - (Y[:, 0] * Mw[k] + Y[:, 1] * Ms[k])
        # every fourth point first: it rejects most planes for little work
        for cols in (slice(None, None, 4), slice(None)):
            low = (Ra[cols] - Y @ Ma[:, cols]).max(axis=1) <= z + _FTOL
            Y, z, row = Y[low], z[low], row[low]
        out.append(Y)
        rows.append(row)
    return np.concatenate(out), np.concatenate(rows)


def _unique(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of ``keys``, sorted."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys


def _keys(i: np.ndarray, j: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """Triples of distinct point positions below n as keys
    ``(k n + j) n + i`` with i < j < k, which sort by pivot k, then j,
    then i."""
    lo, hi = np.minimum(np.minimum(i, j), k), np.maximum(np.maximum(i, j), k)
    return (hi * n + (i + j + k - lo - hi)) * n + lo


def _unkey(keys: np.ndarray, n: int) -> np.ndarray:
    kj, i = np.divmod(keys, n)
    k, j = np.divmod(kj, n)
    return np.column_stack((i, j, k))


def _triples(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every triple of entries of ``p``, as three columns."""
    a, b = np.nonzero(np.arange(len(p))[:, None] < np.arange(len(p)))
    reps = len(p) - 1 - b
    c = np.repeat(b - np.cumsum(reps) + reps, reps) + 1 + np.arange(reps.sum())
    return p[np.repeat(a, reps)], p[np.repeat(b, reps)], p[c]


def _spans(total: int, width: int = 1):
    """Consecutive ranges of ``range(total)`` of about SURFACE_CHUNK / width
    entries each."""
    step = max(1, SURFACE_CHUNK // width)
    for start in range(0, total, step):
        yield np.arange(start, min(start + step, total))


def _pair(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The q-th pair (a, b) with a < b in the order (0, 1), (0, 2), (1, 2),
    (0, 3), ..."""
    b = ((1.0 + np.sqrt(8.0 * q + 1.0)) // 2).astype(np.intp)
    b -= b * (b - 1) // 2 > q
    b += b * (b + 1) // 2 <= q
    return q - b * (b - 1) // 2, b


def _candidates(tight, touch, new: np.ndarray, n: int):
    """Keys of the triples that can span a vertex new to the dual once the
    points ``new`` join it (double description: a new vertex lies on an
    old edge or face that a new point cuts), sorted and distinct in blocks
    of about SURFACE_CHUNK keys; a triple on two planes can come in two
    blocks.  ``tight`` pairs each old plane with the old points on it,
    ``touch`` with the new points on or above it; n is the key base."""
    (tv, tx), (av, ak) = tight, touch
    tx = tx[np.argsort(tv, kind="stable")]
    count = np.bincount(tv, minlength=max(tv.max(initial=-1), av.max(initial=-1)) + 1)
    start, c = (np.cumsum(count) - count)[av], count[av]
    parts = [_keys(*_triples(new), n)]  # three new points

    def full():
        return sum(len(p) for p in parts) >= SURFACE_CHUNK

    # two old points on one plane that a new point touches
    reps = c * (c - 1) // 2
    ends = np.cumsum(reps)
    for g in _spans(int(ends[-1]) if len(ends) else 0):
        t = np.searchsorted(ends, g, side="right")
        a, b = _pair(g - ends[t] + reps[t])
        parts.append(_keys(tx[start[t] + a], tx[start[t] + b], ak[t], n))
        if full():
            yield _unique(np.concatenate(parts))
            parts = []
    # an old point on a plane that either of two new points touches, with
    # the other one
    ends = np.cumsum(c)
    on = np.zeros((tx.max(initial=-1) + 1, len(new)), bool)
    for g in _spans(int(ends[-1]) if len(ends) else 0):
        t = np.searchsorted(ends, g, side="right")
        on[tx[start[t] + g - ends[t] + c[t]], np.searchsorted(new, ak[t])] = True
    x, k = np.nonzero(on)
    for rows in _spans(len(x), len(new)):
        x_, k_, p = np.repeat(x[rows], len(new)), np.repeat(new[k[rows]], len(new)), np.tile(new, len(rows))
        parts.append(_keys(x_[p != k_], p[p != k_], k_[p != k_], n))
        if full():
            yield _unique(np.concatenate(parts))
            parts = []
    if parts:
        yield _unique(np.concatenate(parts))


def _tops(Y: np.ndarray, M: np.ndarray, R: np.ndarray, C):
    """Per plane y (row of Y): the largest ``R - y . m`` over the columns
    C of M, R, the (plane, index into C) pairs within _NEAR of it, and the
    largest value over all columns with the first column taking it."""
    out = [(np.empty(0), np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0), np.empty(0, np.intp))]
    for block, excess in _excess(Y, M, R):
        near = excess[:, C]
        top = near.max(axis=1)
        v, x = np.nonzero(near >= top[:, None] - _NEAR)
        out.append((top, v + block.start, x, excess.max(axis=1), excess.argmax(axis=1)))
    top, v, x, peak, arg = (np.concatenate(a) for a in zip(*out))
    return top, (v, x), peak, arg


def _meet(Y: np.ndarray, top: np.ndarray, tight, M: np.ndarray, R: np.ndarray, new: np.ndarray):
    """The planes Y, whose largest ``R - y . m`` over the old points is
    ``top`` with the (plane, point) pairs ``tight`` within _NEAR of it,
    meet the points ``new`` (positions of columns of M, R).  Returns which
    planes a new point lies more than _FTOL above, the (plane, new point)
    pairs on or above a plane within _NEAR, and top and tight over old and
    new points (an old pair stays)."""
    parts = []
    for block, excess in _excess(Y, M[:, new], R[new]):
        old = top[block]
        high = np.maximum(old, excess.max(axis=1))
        v, c = np.nonzero(excess >= old[:, None] - _NEAR)
        on = excess[v, c] >= high[v] - _NEAR
        parts.append((high > old + _FTOL, v + block.start, new[c], high, on))
    cut, v, x, top, on = (np.concatenate(p) for p in zip(*parts))
    return cut, (v, x), top, (np.concatenate((tight[0], v[on])), np.concatenate((tight[1], x[on])))


def _keep(top: np.ndarray, tight, keep: np.ndarray):
    """``top`` and ``tight`` of the planes ``keep`` selects, renumbered."""
    v, x = tight
    index = np.cumsum(keep) - 1
    return top[keep], (index[v[keep[v]]], x[keep[v]])


def _boundary(M: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The dual's vertices on the faces y_s = 0 and y_w = 0, for the points
    (columns of M, rates R): the zero slope and the edge slopes of both
    projected 1-D hulls.  Also returns the hulls' points."""
    planes, points = [np.zeros((1, 2))], []
    for axis, cost in enumerate(M):
        idx = _upper_chain(cost, R)
        points += idx
        Y = np.zeros((len(idx) - 1, 2))
        Y[:, axis] = np.diff(R[idx]) / np.diff(cost[idx])
        planes.append(Y)
    return np.concatenate(planes), points


def _grow(M, R, S, rest, planes, faces: int, keys, top, tight, partial: int, n: int):
    """Double description over the points (columns of M, rates R): the
    points ``rest`` join the points S, INSERT_BATCH at a time.  The dual
    of S has the planes ``planes``, the first ``faces`` of them on the
    faces y_w = 0 or y_s = 0 and the rest through the triples ``keys``
    (base n), with ``top`` and ``tight`` over S as :func:`_tops`
    gives them.  The face vertices are taken anew from the points in
    until the first ``partial`` points of rest are in.  Returns the keys
    of the facets left, unsorted and possibly repeated (:func:`_unique`
    them to read them), and the last batch's :func:`_meet` (cut, top,
    tight) and keys and slopes of the facets through its points."""
    for b in range(0, len(rest), INSERT_BATCH):
        if 0 < b < partial + INSERT_BATCH:
            keep = np.arange(len(planes)) >= faces
            planes, (top, tight) = planes[keep], _keep(top, tight, keep)
            face = _boundary(M[:, S], R[S])[0]
            ftop, (v, x), _, _ = _tops(face, M[:, S], R[S], slice(None))
            planes, top, faces = np.concatenate((face, planes)), np.concatenate((ftop, top)), len(face)
            tight = (np.concatenate((v, tight[0] + faces)), np.concatenate((S[x], tight[1])))
        new = np.sort(rest[b : b + INSERT_BATCH])
        cut, touch, top, after = _meet(planes, top, tight, M, R, new)
        S = np.sort(np.concatenate((S, new)))
        fresh, slopes = [np.zeros(0, np.int64)], [np.empty((0, 2))]
        for block in _candidates(tight, touch, new, n):
            block_slopes, rows = _facet_slopes(M, R, _unkey(block, n), S)
            fresh.append(block[rows])
            slopes.append(block_slopes)
        slopes = np.concatenate(slopes)
        keep = ~cut
        keep[:faces] = True
        keys = np.concatenate((keys[keep[faces:]], *fresh))
        if b + INSERT_BATCH >= len(rest):
            return keys, (cut, top, after, np.concatenate(fresh), slopes)
        top, (v, x) = _keep(top, after, keep)
        ftop, (fv, fx), _, _ = _tops(slopes, M[:, S], R[S], slice(None))
        tight = (np.concatenate((v, fv + keep.sum())), np.concatenate((x, S[fx])))
        planes, top = np.concatenate((planes[keep], slopes)), np.concatenate((top, ftop))
    return keys, None


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

    The planes through new points come from a candidate rule, not from
    every triple.  The chain's dual (all of its triples) already has P's
    recession cone; the other points join it INSERT_BATCH at a time.  A
    joining point k proposes only the triples (x, y, k) whose old points
    x and y are on one current plane that k lies on or above, (x, p, k)
    with p another joining point and x on such a plane of p or of k, and
    (p, q, k) of joining points ("on" within _NEAR).  A new vertex lies on
    an old edge or face that a joining point cuts, and an end vertex of
    that edge or face has the old points of the triple on it, so the rule
    proposes every vertex a round accepts.  Each proposed triple is
    solved with the same arithmetic, the same roles i < j < k by position
    in C and the same acceptance test against all of C as when every
    triple was solved, so the planes are the same to the bit (the
    every-triple build is kept as a test oracle).  The caveat: that test
    also accepts triples whose plane some point tops by up to _FTOL,
    near-duplicates of a vertex, and the rule finds those only through
    its _NEAR slack; on dense sets of thousands of points a few can be
    missed.  Such a plane never sets a query's value, because the vertex
    it duplicates is there.  Work arrays are taken SURFACE_CHUNK elements
    at a time.  The points are corner records' rows in turn (labelled
    points count as one-point records); :meth:`mixture` formats labels.
    """

    def __init__(self, points: Sequence[Corners] | Sequence[RateMemoryPoint]):
        if len(points) == 0:
            raise EmptyInput("Surface needs at least one point")
        self._records = [p if isinstance(p, Corners) else Corners(
            p.label, np.empty((1, 0), np.int64), *np.array([[p.R], [p.M_w], [p.M_s]], float)) for p in points]
        R = self._R = np.concatenate([c.R for c in self._records])
        self._M = np.array([np.concatenate([getattr(c, f) for c in self._records]) for f in ("M_w", "M_s")])

        # The LP is feasible iff y . M >= min_l y . m_l for every ray y of
        # the dual's recession cone: the axes and the normals of the
        # lower-left chain's edges.
        chain = _lower_left_chain(*self._M)
        x, y = self._M[:, chain]
        normals = np.column_stack((y[:-1] - y[1:], np.diff(x)))
        self._rays = np.vstack(
            ((1.0, 0.0), normals / np.hypot(*normals.T)[:, None], (0.0, 1.0))
        )
        self._floor = (self._rays @ self._M).min(axis=1) - _FTOL

        boundary, hulls = _boundary(self._M, R)
        base = set(chain) | set(hulls)
        grid = (max(float(np.ptp(R)), TOL) / max(float(self._M.max()), TOL)) * _SLOPES
        Y = np.column_stack((np.repeat(grid, len(grid)), np.tile(grid, len(grid))))
        cand = set(base)
        for _, excess in _excess(Y, self._M, R):
            cand.update(excess.argmax(axis=1).tolist())

        # Round one, over the points C.  Every triple of the chain spans the
        # chain's dual, which has P's recession cone; the 1-D hull points,
        # then the grid maxima, join it.  The facets left then pass the
        # full test against C.  A triple is a key (k n + j) n + i of its
        # positions i < j < k in C.
        C, n = sorted(cand), len(R)
        M, RC = self._M[:, C], R[C]
        S = np.searchsorted(C, sorted(chain))
        keys = _keys(*_triples(S), n)
        slopes, rows = _facet_slopes(M, RC, _unkey(keys, n), S)
        faces = _boundary(M[:, S], RC[S])[0]
        Y = np.concatenate((faces, slopes))
        top, (v, x), _, _ = _tops(Y, M[:, S], RC[S], slice(None))
        rest = np.searchsorted(C, sorted(base - set(chain)) + sorted(cand - base))
        keys = _unique(_grow(M, RC, S, rest, Y, len(faces), keys[rows], top, (v, S[x]),
                             len(base) - len(chain), n)[0])
        facets, rows = _facet_slopes(M, RC, _unkey(keys, n))
        keys = keys[rows]

        # Certification rounds: the maximisers of R - y . m above a plane
        # join C, the facets they cut go, and the facets through them (the
        # keys from pivot `first` on) come in.
        Y = np.concatenate((boundary, facets))
        top, tight, peak, arg = _tops(Y, self._M, R, C)
        while True:
            new = sorted(set(arg[peak > top + _CERT_TOL].tolist()) - set(C))
            if not new:
                break
            first, C = len(C), C + new
            M, RC, fresh = self._M[:, C], R[C], np.arange(first, len(C))
            grown, last = _grow(M, RC, np.arange(first), fresh, Y, len(boundary), keys, top, tight, 0, n)
            if len(new) <= INSERT_BATCH:  # one batch: it met Y and solved against all of C
                cut, top, tight, grown, slopes = last
                grown, rows = np.unique(grown, return_index=True)
                slopes = slopes[rows]
            else:
                grown = _unique(grown[grown >= first * n * n])
                slopes, rows = _facet_slopes(M, RC, _unkey(grown, n))
                grown = grown[rows]
                cut, _, top, tight = _meet(Y, top, tight, M, RC, fresh)
            keep = ~cut
            keep[: len(boundary)] = True
            keys = np.concatenate((keys[keep[len(boundary) :]], grown))
            top, (v, x) = _keep(top, tight, keep)
            ftop, (fv, fx), fpeak, farg = _tops(slopes, self._M, R, C)
            tight = (np.concatenate((v, fv + keep.sum())), np.concatenate((x, fx)))
            Y, top = np.concatenate((Y[keep], slopes)), np.concatenate((top, ftop))
            peak, arg = np.concatenate((peak[keep], fpeak)), np.concatenate((arg[keep], farg))
        Y = Y[np.lexsort(Y.T[::-1])]
        self._Y = Y[np.append(True, (Y[1:] != Y[:-1]).any(axis=1))]
        self._z = np.concatenate([excess.max(axis=1) for _, excess in _excess(self._Y, self._M, R)])

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
        at = _sources(self._records, sub)
        return [(rec.label(row), float(w)) for (rec, row), w in zip(at, lam) if w > 0.0]


def eval_hull_2d(
    points: Sequence[RateMemoryPoint], M_w: float, M_s: float
) -> float:
    """Best rate of any point mixture within both memory budgets (one
    query of :class:`Surface`; build the surface once to query it often)."""
    return Surface(points)(M_w, M_s)
