"""Converse (upper) bounds on the secrecy capacity-memory tradeoff.

Two bound families are evaluated for every sub-population choice
``(k_w, k_s)``:

* :func:`ub_split` — a secrecy bound obtained from a degraded-channel
  argument; a one-parameter max-min over an erasure-budget split ``beta``.
* :func:`ub_cache_sharing` — a non-secure bound where cache memory is
  shared along a receiver chain; a max-min over a ``beta`` simplex, with
  cache contributions ``alpha_i`` accumulated by :func:`alpha_sequence`.

:func:`ub_best` minimises over all choices, and :func:`ub_global` bounds
the budget-optimised tradeoff.  The ``M_s = 0`` bound ``ub_weak_only``
never wins (see :func:`ub_best_grid`), so it lives in ``tests/oracles.py``
as a cross-check.

Division conventions, applied literally: ``min{a/0, b} = b``,
``min{a/0, b/0} = +inf``, and a minimum over an empty set is ``+inf``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import IndexOutOfRange
from .model import TOL, CacheSizes, ChannelScenario, pos

_INF = float("inf")


class BoundFamily(enum.Enum):
    SPLIT = "split"                      # secrecy split over (k_w, k_s)
    CACHE_SHARING = "cache-sharing"      # non-secure cache-sharing chain


@dataclass(frozen=True)
class UpperBoundReport:
    """A bound value together with the witness that attains it."""

    value: float
    family: BoundFamily
    k_w: int
    k_s: int
    beta_witness: Optional[tuple] = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "family": self.family.value,
            "k_w": self.k_w,
            "k_s": self.k_s,
            "beta_witness": None
            if self.beta_witness is None
            else list(self.beta_witness),
        }


def _check_subpopulation(s: ChannelScenario, k_w: int, k_s: int) -> None:
    if not (0 <= k_w <= s.K_w):
        raise IndexOutOfRange(f"k_w={k_w} outside 0..{s.K_w}")
    if not (0 <= k_s <= s.K_s):
        raise IndexOutOfRange(f"k_s={k_s} outside 0..{s.K_s}")
    if k_w == 0 and k_s == 0:
        raise IndexOutOfRange("(k_w, k_s) = (0, 0) selects no receivers")


def ub_split(
    s: ChannelScenario, c: CacheSizes, k_w: int, k_s: int
) -> UpperBoundReport:
    """Secrecy upper bound for the sub-population of k_w weak and k_s
    strong receivers.

    Value:  max_{beta in [0,1]} min{ beta (dz-dw)^+ / k_w + M_w ,
            [beta (dz-dw)^+ + (1-beta)(dz-ds)^+] / (k_w+k_s)
            + (k_w M_w + k_s M_s) / (k_w+k_s) }.
    The first term is dropped when ``k_w = 0`` (min{a/0, b} = b).
    """
    _check_subpopulation(s, k_w, k_s)
    aw = pos(s.delta_z - s.delta_w)
    as_ = pos(s.delta_z - s.delta_s)
    k = k_w + k_s
    # the lines a * beta + b: (aw/k_w, M_w), dropped at k_w = 0 by an
    # infinite offset, and ((aw-as)/k, as/k + (k_w M_w + k_s M_s)/k)
    a1, b1 = (aw / k_w, c.M_w) if k_w > 0 else (0.0, _INF)
    a2, b2 = (aw - as_) / k, as_ / k + (k_w * c.M_w + k_s * c.M_s) / k
    # the max of the min is at 0, 1 or the equaliser; ties break toward
    # smaller beta so witnesses are deterministic
    candidates = [0.0, 1.0]
    if a1 != a2 and 0.0 <= (eq := (b2 - b1) / (a1 - a2)) <= 1.0:
        candidates.insert(1, eq)
    value, beta = -_INF, 0.0
    for x in candidates:
        v = min(a1 * x + b1, a2 * x + b2)
        if v > value + TOL:
            value, beta = v, x
    return UpperBoundReport(value, BoundFamily.SPLIT, k_w, k_s, (beta,))


def alpha_sequence(
    s: ChannelScenario, c: CacheSizes, k_w: int, k_s: int
) -> list[float]:
    """Cache-sharing increments alpha_1..alpha_{k_w+k_s}.

    Each alpha is the minimum of a local-cache term and the remaining
    share of the pooled cache budget, computed sequentially:

        alpha_i      = min{ i M_w / (D-i+1),
                            [k (k_w M_w + k_s M_s)/D - sum_{l<i} alpha_l]
                            / (k - i + 1) },              i = 1..k_w
        alpha_{k_w+j} = min{ (k_w M_w + j M_s) / (D-k_w-j+1),
                            [k (k_w M_w + k_s M_s)/D - sum] / (k_s-j+1) },
                                                          j = 1..k_s
    with k = k_w + k_s.
    """
    _check_subpopulation(s, k_w, k_s)
    k = k_w + k_s
    pool = k * (k_w * c.M_w + k_s * c.M_s) / s.D
    alphas: list[float] = []
    total = 0.0
    for i in range(1, k + 1):
        n_w = min(i, k_w)
        local = (n_w * c.M_w + (i - n_w) * c.M_s) / (s.D - i + 1)
        shared = (pool - total) / (k - i + 1)
        alphas.append(min(local, shared))
        total += alphas[-1]
    return alphas


def ub_cache_sharing(
    s: ChannelScenario, c: CacheSizes, k_w: int, k_s: int
) -> UpperBoundReport:
    """Non-secure cache-sharing upper bound over the beta simplex.

    Value: max over beta_1..beta_k >= 0 summing to 1 of
        min{ min_i [(1-dw) beta_i + alpha_i],
             min_j [(1-ds) beta_{k_w+j} + alpha_{k_w+j}] }.

    The budget needed to push every term with capacity factor c_i > 0 up
    to a target t is f(t) = sum_i (t - alpha_i)^+ / c_i, a nondecreasing
    piecewise-linear function, so the optimum is its root f(t) = 1 found
    exactly by water-filling over the sorted alphas.  A vanishing capacity
    factor (delta = 1) caps t at the smallest alpha of that population.
    """
    _check_subpopulation(s, k_w, k_s)
    alphas = alpha_sequence(s, c, k_w, k_s)
    factors = [1.0 - s.delta_w] * k_w + [1.0 - s.delta_s] * k_s

    t_star = min((a for a, cf in zip(alphas, factors) if cf == 0.0), default=_INF)
    levels = sorted((a, 1.0 / cf) for a, cf in zip(alphas, factors) if cf > 0.0)
    slope = offset = 0.0
    for idx, (a, w) in enumerate(levels):
        slope += w
        offset += a * w
        root = (1.0 + offset) / slope
        if idx + 1 == len(levels) or root <= levels[idx + 1][0]:
            t_star = min(t_star, root)
            break

    # Reconstruct the witness simplex point.
    betas = [pos(t_star - a) / cf if cf else 0.0 for a, cf in zip(alphas, factors)]
    slack = 1.0 - sum(betas)
    if betas and slack > 0.0:
        betas[-1] += slack  # spare budget is free to park anywhere
    return UpperBoundReport(
        t_star, BoundFamily.CACHE_SHARING, k_w, k_s, tuple(betas)
    )


#: Most pair x position x point elements one block of :func:`ub_best_grid`
#: evaluates at once (at least one pair at one point).  It bounds the
#: working set at a few MB, whatever the grid length or population.
GRID_CHUNK = 1 << 15


def ub_best(s: ChannelScenario, c: CacheSizes) -> UpperBoundReport:
    """Tightest upper bound at one cache point: :func:`ub_best_grid`."""
    return ub_best_grid(s, [c])[0]


def ub_best_grid(
    s: ChannelScenario, caches: Iterable[CacheSizes]
) -> list[UpperBoundReport]:
    """Tightest upper bound at every cache point: the minimum over all
    (k_w, k_s) and both families.

    The sweep order is (k_w, k_s) lexicographic, :func:`ub_split` before
    :func:`ub_cache_sharing`, and a candidate wins only when it is lower
    than the running best by more than TOL, so the witness is stable.
    Every value is computed in numpy with the IEEE operations of the
    scalar functions, in their order, for all pairs at a block of points
    at once; what does not depend on memory is built once per pair block.
    The winner's report is then rebuilt by calling its scalar function,
    so the beta witness has one source.

    At ``M_s = 0`` the result never exceeds the weak-only bound
    ``ub_weak_only`` (kept in ``tests/oracles.py``), so that bound needs
    no pass of its own.  Its split term is the sweep's
    ``ub_split(k_w, K_s)``.  Its inverse-sum term ``t = 1/W + k_w M_w/D``
    (``W = sum_i w_i``, ``w_i = 1/c_i``) is never below the sweep's
    ``ub_cache_sharing(k_w, K_s)``: the alphas are nondecreasing, the
    weights nonincreasing (``delta_w >= delta_s``) and ``sum alpha <= pool
    = k k_w M_w/D``, so by Chebyshev's sum inequality ``sum_i alpha_i w_i
    <= k_w M_w W/D`` and the budget ``f(t) >= t W - sum_i alpha_i w_i``
    is at least 1.  With a vanishing capacity factor the cache-sharing
    value is at most ``alpha_1 <= k_w M_w/D``.
    """
    caches = list(caches)
    mw = np.array([c.M_w for c in caches], dtype=float)[:, None]
    ms = np.array([c.M_s for c in caches], dtype=float)[:, None]
    n_pairs = (s.K_w + 1) * (s.K_s + 1) - 1
    best = np.zeros(len(caches), dtype=np.intp)  # column 2 * pair + family
    best_val = np.empty((len(caches), 1))
    pairs_per_block = max(1, GRID_CHUNK // s.K)
    # huge memories overflow to inf (and inf - inf to nan), silently, as
    # in the scalar functions
    with np.errstate(over="ignore", invalid="ignore"):
        for p0 in range(0, n_pairs, pairs_per_block):
            block = _PairBlock(s, p0, min(p0 + pairs_per_block, n_pairs))
            step = max(1, GRID_CHUNK // (block.size * s.K))
            for x0 in range(0, len(caches), step):
                sl = slice(x0, x0 + step)
                vals = block.values(mw[sl], ms[sl])
                if p0:  # continue the scan from the best of earlier blocks
                    vals = np.hstack((best_val[sl], vals))
                win = _scan_winners(vals)
                best_val[sl, 0] = vals[np.arange(len(win)), win]
                if p0:  # column 0 keeps the earlier best, column c is c - 1 here
                    win = np.where(win > 0, win - 1 + 2 * p0, best[sl])
                best[sl] = win
    reports = []
    for c, col in zip(caches, best.tolist()):
        k_w, k_s = divmod(col // 2 + 1, s.K_s + 1)
        fn = ub_cache_sharing if col % 2 else ub_split
        reports.append(fn(s, c, k_w, k_s))
    return reports


def _scan_winners(vals: np.ndarray) -> np.ndarray:
    """Per row of ``vals``, the column where the sequential scan "keep the
    first value lower than the best by more than TOL" ends.

    That is the first argmin unless some value lies in ``(min, min + TOL]``
    (then an earlier near-minimum can block the later minimum) or the
    row holds a NaN; such rows are scanned exactly.
    """
    win = vals.argmin(axis=1)
    low = vals[np.arange(len(win)), win][:, None]
    near = ((vals > low) & (vals - TOL <= low)).any(axis=1) | np.isnan(low[:, 0])
    for x in np.flatnonzero(near).tolist():
        row = vals[x].tolist()
        b = 0
        for j in range(1, len(row)):
            if row[j] < row[b] - TOL:
                b = j
        win[x] = b
    return win


class _PairBlock:
    """Pairs ``p0 .. p1-1`` of the sweep, (k_w, k_s) lexicographic without
    (0, 0), and their memory-independent arrays: receiver positions on
    axis 0 in reverse order (index j holds position i = K - j), cache
    points on axis 1 and pairs on the last axis, the longest in practice.
    """

    def __init__(self, s: ChannelScenario, p0: int, p1: int):
        self.s = s
        self.size = p1 - p0
        kw, ks = np.divmod(np.arange(p0 + 1, p1 + 1, dtype=float), s.K_s + 1)
        self.kw, self.ks, self.k = kw, ks, kw + ks
        # split: the lines (aw/k_w, M_w), dropped at k_w = 0 by an
        # infinite offset, and ((aw-as)/k, as/k + (k_w M_w + k_s M_s)/k)
        aw, as_ = pos(s.delta_z - s.delta_w), pos(s.delta_z - s.delta_s)
        has_w = kw > 0.0
        self.a1 = np.where(has_w, aw / np.maximum(kw, 1.0), 0.0)
        self.a2 = (aw - as_) / self.k
        self.b1_drop = np.where(has_w, 0.0, _INF)
        self.b2 = as_ / self.k
        # parallel lines have no equaliser; x / nan is nan, never a candidate
        da = self.a1 - self.a2
        self.da = np.where(da != 0.0, da, np.nan)
        # cache sharing: n_w = min(i, k_w) weak receivers among the first i
        i = np.arange(s.K, 0, -1, dtype=float)[:, None, None]
        self.nw = np.minimum(i, kw)
        self.ns = i - self.nw
        self.d_local = s.D - i + 1.0
        valid = i <= self.k
        # one (1, pairs) divisor per position, in the order alphas accumulate
        self.d_shared = np.where(valid, self.k - i + 1.0, 1.0)[::-1]
        cw, cs = 1.0 - s.delta_w, 1.0 - s.delta_s
        self.zero = valid if cs == 0.0 else valid & (i <= kw) if cw == 0.0 else None
        self.pad = ~valid if self.zero is None else ~valid | self.zero
        # weights 1/c_i (weak positions sit at j >= K - k_w); a position
        # with c_i = 0 is a pad, so its weight is never read
        self.ww = 1.0 / cw if cw > 0.0 else 1.0
        self.ws = 1.0 / cs if cs > 0.0 else 1.0
        self.weak_from = s.K - kw

    def values(self, mw: np.ndarray, ms: np.ndarray) -> np.ndarray:
        """Columns 2p and 2p+1: the :func:`ub_split` and
        :func:`ub_cache_sharing` values of pair p, one row per point
        (``mw`` and ``ms`` are columns)."""
        total = self.kw * mw + self.ks * ms  # k_w M_w + k_s M_s
        vals = np.empty((len(mw), self.size, 2))
        vals[:, :, 0] = self._split(mw, total)
        vals[:, :, 1] = self._cache_sharing(mw, ms, total)
        return vals.reshape(len(mw), 2 * self.size)

    def _split(self, mw, total):
        # ub_split's max-min over beta in (0, equaliser, 1).  An
        # equaliser outside [0, 1] is clipped onto 0 or 1, whose value
        # then repeats and can never be higher by more than TOL.
        b1 = mw + self.b1_drop
        b2 = self.b2 + total / self.k
        eq = np.clip((b2 - b1) / self.da, 0.0, 1.0)
        v = np.minimum(b1, b2)
        v_eq = np.minimum(self.a1 * eq + b1, self.a2 * eq + b2)
        v = np.where(v_eq > v + TOL, v_eq, v)
        v_one = np.minimum(self.a1 + b1, self.a2 + b2)
        return np.where(v_one > v + TOL, v_one, v)

    def _cache_sharing(self, mw, ms, total):
        s = self.s
        pool = self.k * total / s.D
        # alpha_sequence, one position at a time over all pairs and points;
        # a local term is never NaN, so fmin is min(local, shared)
        alpha = (self.nw * mw + self.ns * ms) / self.d_local
        spent = np.zeros(pool.shape)
        for local, d in zip(alpha[::-1], self.d_shared):
            np.fmin(local, (pool - spent) / d, out=local)
            spent += local
        cap = None if self.zero is None else np.where(self.zero, alpha, _INF).min(axis=0)
        # water-filling over the levels sorted by (alpha, 1/c): a stable
        # sort of the reversed positions puts the smaller weight (strong)
        # first among equal alphas; pads sort last as +inf
        np.copyto(alpha, _INF, where=self.pad)
        order = np.argsort(alpha, axis=0, kind="stable")
        cols = np.arange(pool.size)
        a = alpha.reshape(s.K, -1)[order.reshape(s.K, -1), cols].reshape(alpha.shape)
        w = np.where(order >= self.weak_from, self.ww, self.ws)
        offset = np.cumsum(a * w, axis=0)
        slope = np.cumsum(w, axis=0, out=w)
        root = np.divide(1.0 + offset, slope, out=offset)
        # the first root at or below the next level (+inf past the last)
        a[:-1] = a[1:]
        a[-1] = _INF
        first = np.argmax(root <= a, axis=0)
        t = root.reshape(s.K, -1)[first.reshape(-1), cols].reshape(pool.shape)
        return t if cap is None else np.where(t < cap, t, cap)


def ub_global(s: ChannelScenario, M_tot: float) -> float:
    """Converse for the total-cache-budget tradeoff.

    Value: max_{beta in [0,1]} min{ [beta (dz-dw)^+ + M_tot] / K_w ,
           [beta (dz-dw)^+ + (1-beta)(dz-ds)^+ + M_tot] / K },
    which is :func:`ub_split` over the full population with the budget
    spread over the weak caches (over the strong caches when ``K_w = 0``,
    where the first term is dropped).
    """
    if M_tot < 0:
        raise IndexOutOfRange(f"M_tot must be >= 0, got {M_tot}")
    cache = CacheSizes(M_tot / s.K_w, 0.0) if s.K_w else CacheSizes(0.0, M_tot / s.K_s)
    return ub_split(s, cache, s.K_w, s.K_s).value
