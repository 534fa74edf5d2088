"""Achievable rate-memory corner points, one family per coding scheme.

Four families, each a list of :class:`~secache.model.Corners` records
(columns, one record per scheme); ``points_*`` list them as points:

* :func:`weak_only_corners` — caches at weak receivers only (K_w+4 points).
* :func:`separate_from_weak_only` — the subset achievable with separate
  cache-channel coding.
* :func:`all_cached_corners` — caches everywhere
  (K + K_w + K_w*K_s triples).
* :func:`symmetric_corners` — equal cache size at every receiver.

Dominated points are *not* pruned here (the hull module owns that).  The
numpy columns follow the scalar closed forms' operation order, so they
equal them bit for bit (integer factors are int64, or Python integers
where ``D K^4`` could overflow it).  Positive parts ``(x)^+ = max(0, x)`` are
applied exactly where the closed forms carry them.  A closed form whose
(nonnegative) denominator vanishes at a boundary erasure has no point
there and is skipped; the remaining points still lower-bound.  A closed
form that overflows is skipped the same way: one whose binomials or
capacity powers exceed a float (Python raises ``OverflowError``), or
whose rate or memory is not finite.  At large K this drops the
high-index generalized and symmetric coded-caching corners.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .errors import IndexOutOfRange, NotApplicable
from .model import ChannelScenario, Corners, RateMemoryPoint, pos, zero_cache_capacity

#: How to resolve the under-determined exponent in the generalized-coded-
#: caching memory formulas (an index the closed form leaves unbound).
#: "lower-limit" pins it to the lower summation limit of the adjacent
#: binomial sums; "first-arg" conservatively keeps only the first argument
#: of the min, which weakly enlarges memory and stays achievable.
GENERALIZED_MEMORY_RULES = ("lower-limit", "first-arg")


def _rows(name: str, index, R, M_w, M_s) -> Corners:
    """A record; ``index`` holds a row of index columns per point."""
    return Corners(name, np.asarray(index, np.int64), *(np.asarray(v, float) for v in (R, M_w, M_s)))


def _family(parts: list) -> list[Corners]:
    """The records of ``parts``: records, or (name, rows of (t, R, M_w, M_s))
    taken from one table.  The first point that fails :class:`RateMemoryPoint`'s
    checks (finite, nonnegative) raises."""
    table = np.array([row for part in parts if type(part) is tuple for row in part[1]], float)
    table, records, at = table.reshape(-1, 4), [], 0
    for part in parts:
        if type(part) is tuple:
            name, block = part[0], table[at : at + len(part[1])]
            at += len(part[1])
            part = Corners(name, block[:, : name.count("{}")].astype(np.int64), *block[:, 1:].T)
        records.append(part)
    x = np.concatenate([v for rec in records for v in (rec.R, rec.M_w, rec.M_s)])
    if len(x) and not (x.min() >= 0 and x.max() < np.inf):  # NaN fails both
        _points(records)
    return records


def _ints(s: ChannelScenario, lo: int, hi: int) -> np.ndarray:
    """lo..hi-1: int64, or Python integers where ``D K^4`` could overflow it."""
    return np.arange(lo, hi, dtype=np.int64 if s.D * s.K**4 < 2**62 else object)


def _scalar_rows(indices, closed_form) -> list[tuple]:
    """The rows (i, *closed_form(i)) over ``indices``, but where that is
    None, raises ``OverflowError`` or is not finite."""
    rows = []
    for i in indices:
        try:
            values = closed_form(i)
        except OverflowError:
            continue
        if values is not None and all(isfinite(v) for v in values):
            rows.append((i, *values))
    return rows


def _binomials(n: int) -> list[int]:
    """``comb(n, j)`` for j = 0..n, exact."""
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


def no_cache(s: ChannelScenario) -> Corners:
    """The no-cache point (R(0), 0, 0)."""
    return _family([("no-cache", [(0, zero_cache_capacity(s), 0.0, 0.0)])])[0]


def _points(records: list[Corners]) -> list[RateMemoryPoint]:
    return [RateMemoryPoint(*values, rec.label(i)) for rec in records
            for i, values in enumerate(zip(rec.R.tolist(), rec.M_w.tolist(), rec.M_s.tolist()))]


def _require_eavesdropper_weaker_than_strong(s: ChannelScenario) -> None:
    if s.delta_z <= s.delta_s:
        raise NotApplicable(
            "weak-only cache results require delta_z > delta_s "
            f"(got delta_z={s.delta_z}, delta_s={s.delta_s}); this gate is "
            "intentional: with delta_z <= delta_s the weak-only formulas "
            "turn nonpositive and the all-cached family covers the regime"
        )

def weak_only_max_slope(s: ChannelScenario) -> float:
    """Initial (and maximal) slope of the weak-only tradeoff in M_w.

    K_w (dz-ds) / [K_w (dz-ds) + K_s (dz-dw)^+]; equals 1 when the
    eavesdropper is at least as strong as the weak receivers.
    """
    _require_eavesdropper_weaker_than_strong(s)
    num = s.K_w * (s.delta_z - s.delta_s)
    return num / (num + s.K_s * pos(s.delta_z - s.delta_w))

def weak_only_corners(s: ChannelScenario) -> list[Corners]:
    """The K_w + 4 corner points with caches at weak receivers only.

    Requires ``delta_z > delta_s`` and ``K_w >= 1``.  Order: no-cache,
    cached-keys, superposition-jamming, piggyback-one for t = 1..K_w-1,
    piggyback-two, full-library.
    """
    _require_eavesdropper_weaker_than_strong(s)
    if s.K_w < 1:
        raise NotApplicable("weak-only family needs K_w >= 1")
    dw, ds, dz = s.delta_w, s.delta_s, s.delta_z
    Kw, Ks, D = s.K_w, s.K_s, s.D
    mzw = min(1.0 - dz, 1.0 - dw)

    pts = [("no-cache", [(0, zero_cache_capacity(s), 0.0, 0.0)])]

    den1 = Ks * (1 - dw) + Kw * (dz - ds)
    pts.append(("cached-keys", [(0, (1 - dw) * (dz - ds) / den1, (dz - ds) * mzw / den1, 0.0)]))

    den2 = Ks * (1 - dw) + Kw * (dw - ds)
    r2a = (1 - dw) * (1 - ds) / (Ks * (1 - dw) + Kw * (1 - ds))
    r2b = (1 - dw) * (dz - ds) / den2 if den2 > 0 else float("inf")
    pts.append(("superposition-jamming", [(0, min(r2a, r2b), min((1 - dz) / Kw, r2b), 0.0)]))

    md = min(dw - ds, dz - ds)
    rows = []
    for t in range(1, Kw):
        den = ((Kw - t + 1) * (dz - ds) * (Ks * (t + 1) * (1 - dw) + (Kw - t) * md)
               + Ks**2 * t * (t + 1) * (1 - dw) ** 2)
        if den == 0:  # K_s = 0 and delta_w = delta_s
            continue
        rate = (t + 1) * (1 - dw) * (dz - ds) * (Ks * t * (1 - dw) + (Kw - t + 1) * md) / den
        mem = (
            D * t * (t + 1) * (1 - dw) * (dz - ds) * (Ks * (t - 1) * (1 - dw) + (Kw - t + 1) * md)
            + (t + 1) * (Kw - t + 1) * (dz - ds) * mzw * (Ks * t * (1 - dw) + (Kw - t) * md)
        ) / (Kw * den)
        rows.append((t, rate, mem, 0.0))
    pts.append(("piggyback-one[t={}]", rows))

    if Ks > 0:
        r4 = (dz - ds) / Ks
        m4 = (D * Kw * (dz - ds) ** 2 + Ks * (dz - ds) * mzw) / (Ks * (Ks * mzw + Kw * (dz - ds)))
        pts.append(("piggyback-two", [(0, r4, m4, 0.0)]))
        pts.append(("full-library", [(0, r4, D * (dz - ds) / Ks, 0.0)]))
    return _family(pts)


def points_weak_only(s: ChannelScenario) -> list[RateMemoryPoint]:
    """:func:`weak_only_corners` as points."""
    return _points(weak_only_corners(s))


def points_separate(s: ChannelScenario) -> list[RateMemoryPoint]:
    """Weak-only points achievable by separate cache-channel coding.

    The t-indexed family below plus the four reused corner points
    (no-cache, cached-keys, superposition-jamming, full-library).
    """
    _require_eavesdropper_weaker_than_strong(s)
    if s.K_w < 1:
        raise NotApplicable("separate-coding family needs K_w >= 1")
    return _points(separate_from_weak_only(s, weak_only_corners(s)))


def separate_from_weak_only(s: ChannelScenario, weak: list[Corners]) -> list[Corners]:
    """:func:`points_separate`'s records, from the weak-only records
    ``weak`` of ``s`` (where the family applies: both share one gate)."""
    dw, ds, dz = s.delta_w, s.delta_s, s.delta_z
    Kw, Ks, D = s.K_w, s.K_s, s.D
    mzw = min(1.0 - dz, 1.0 - dw)
    rows = []
    for t in range(1, Kw):
        den = Ks * (t + 1) * (1 - dw) + (Kw - t) * (dz - ds)
        rate = (t + 1) * (1 - dw) * (dz - ds) / den
        mem = (D * t * (t + 1) * (1 - dw) * (dz - ds) + (t + 1) * (Kw - t) * (dz - ds) * mzw) / (Kw * den)
        rows.append((t, rate, mem, 0.0))
    reused = {"no-cache", "cached-keys", "superposition-jamming", "full-library"}
    return [rec for rec in weak if rec.name in reused] + _family([("separate[t={}]", rows)])


def _generalized(s: ChannelScenario, memory_rule: str) -> tuple[str, list[tuple]]:
    """The generalized-coded-caching family, t = 1..K-1: each sum term by
    term over tables of the weights and exact binomials."""
    dw, ds, dz = s.delta_w, s.delta_s, s.delta_z
    Kw, Ks, K, D = s.K_w, s.K_s, s.K, s.D
    c_w, c_s, c_w1, c_s1, c_1 = (_binomials(n) for n in (Kw, Ks, Kw - 1, Ks - 1, K - 1))
    weights = []  # (1 - dw)^-tw grows with tw: all overflow past the first that does
    for tw in range(Kw + 1):
        try:
            weights.append((1 - dw) ** (-tw) * (1 - ds) ** tw)
        except OverflowError:
            break

    def closed_form(t: int):
        if min(t + 1, Kw) >= len(weights):
            return None  # a weight it needs overflows
        # Each binomial-weighted sum over its own range of tw, term by term
        # in increasing tw, as the builtin sum before Python 3.12.
        num_r = den = den_mem = mw_sum = ms_sum = 0.0
        for tw in range(max(0, t - Ks), min(t + 1, Kw) + 1):
            w = weights[tw]
            if tw <= t:
                num_r += c_w[tw] * c_s[t - tw] * w
            if tw >= t + 1 - Ks:
                term = c_w[tw] * c_s[t + 1 - tw] * w
                den += term / (1 - ds)
                den_mem += term
            if 1 <= tw <= t:
                mw_sum += c_w1[tw - 1] * c_s[t - tw] * w
            if tw < t:
                ms_sum += c_w[tw] * c_s1[t - 1 - tw] * w
        rate = num_r / den
        mw_data = D * mw_sum / den_mem
        ms_data = D * ms_sum / den_mem

        key_cap = (t + 1) * (1 - dz) / K
        if memory_rule == "first-arg":
            mw_key = ms_key = key_cap
        else:  # pin the unbound exponent to the sums' lower limit
            tw0 = max(0, t + 1 - Ks)
            c_w1_t = c_w1[t] if t < Kw else 0  # comb(K_w - 1, t)
            mw_key = min(key_cap, weights[tw0] * (c_1[t] * (1 - ds) - c_w1_t * (dw - ds)) / den_mem)
            ms_key = min(key_cap, c_1[t] * weights[tw0] * (1 - ds) / den_mem)
        return rate, mw_data + mw_key, ms_data + ms_key

    return f"all:generalized[t={{}},{memory_rule}]", _scalar_rows(range(1, K), closed_form)


def all_cached_corners(s: ChannelScenario, memory_rule: str = "lower-limit") -> list[Corners]:
    """The K + K_w + K_w*K_s corner triples with caches everywhere.

    Order: no-cache; cached-keys; piggyback-with-keys for t = 1..K_w-1;
    the (t_w, t_s)-indexed symmetric-piggyback grid, t_w outer; the
    generalized family for t = 1..K-1 (memory per ``memory_rule``, see
    :data:`GENERALIZED_MEMORY_RULES`).
    """
    if s.K_w < 1 or s.K_s < 1:
        raise NotApplicable("all-cached family needs K_w >= 1 and K_s >= 1")
    if memory_rule not in GENERALIZED_MEMORY_RULES:
        raise IndexOutOfRange(f"unknown memory_rule {memory_rule!r}")
    dw, ds, dz = s.delta_w, s.delta_s, s.delta_z
    Kw, Ks, D = s.K_w, s.K_s, s.D
    mzw = min(1.0 - dz, 1.0 - dw)
    mzs = min(1.0 - dz, 1.0 - ds)

    pts = [("no-cache", [(0, zero_cache_capacity(s), 0.0, 0.0)])]

    den1 = Kw * (1 - ds) + Ks * (1 - dw)
    if den1 > 0:  # zero at delta_w = delta_s = 1
        pts.append(("all:cached-keys", [(0, (1 - ds) * (1 - dw) / den1, (1 - ds) * mzw / den1,
                                         (1 - dw) * mzs / den1)]))

    t = _ints(s, 1, Kw)
    den = ((Kw - t + 1) * (1 - ds) * (Ks * (t + 1) * (1 - dw) + (Kw - t) * (dw - ds))
           + Ks**2 * t * (t + 1) * (1 - dw) ** 2)
    t, den = t[den != 0], den[den != 0]  # zero at delta_w = delta_s = 1
    rate = (t + 1) * (1 - dw) * (1 - ds) * (Ks * t * (1 - dw) + (Kw - t + 1) * (dw - ds)) / den
    mw = (
        D * t * (t + 1) * (1 - dw) * (1 - ds) * (Ks * (t - 1) * (1 - dw) + (Kw - t + 1) * (dw - ds))
        + Ks * t * (t + 1) * (Kw - t + 1) * (1 - dw) * (1 - ds) * mzs
        + (t + 1) * (Kw - t) * (Kw - t + 1) * (1 - ds) * (dw - ds) * mzw
    ) / (Kw * den)
    ms = (
        Ks * t * (t + 1) * (1 - dw) ** 2 * mzs
        + (t + 1) * (Kw - t + 1) * (1 - dw) * (1 - ds) * min(pos(dw - dz), dw - ds)
    ) / den
    pts.append(_rows("all:piggyback-keys[t={}]", t[:, None], rate, mw, ms))

    t_w, t_s = np.repeat(_ints(s, 1, Kw + 1), Ks), np.tile(_ints(s, 1, Ks + 1), Kw)
    den = (Kw * (Kw - t_w) * (t_s + 1) * (1 - ds) ** 2
           + Ks * (t_w + 1) * (1 - dw) * ((Ks - t_s) * (1 - dw) + Kw * (t_s + 1) * (1 - ds)))
    # zero at delta_w = 1 with t_w = K_w or delta_s = 1
    t_w, t_s, den = t_w[den != 0], t_s[den != 0], den[den != 0]
    ab = (t_w + 1) * (t_s + 1) * (1 - dw) * (1 - ds)
    rate = ab * (Ks * (1 - dw) + Kw * (1 - ds)) / den
    pair_key = ab * min(1.0 - dz, 2.0 - dw - ds)
    mw = ((t_w + 1) * (t_s + 1) * (1 - ds) ** 2 * (D * t_w * (1 - dw) + (Kw - t_w) * mzw)
          + Ks * pair_key) / den
    ms = ((t_w + 1) * (t_s + 1) * (1 - dw) ** 2 * (D * t_s * (1 - ds) + (Ks - t_s) * mzs)
          + Kw * pair_key) / den
    pts.append(_rows("all:pair[tw={},ts={}]", np.column_stack((t_w, t_s)), rate, mw, ms))

    # Negative powers of the capacity factors blow up at delta = 1; the
    # generalized family is skipped there (the rest still lower-bounds).
    if dw < 1.0 and ds < 1.0:
        pts.append(_generalized(s, memory_rule))
    return _family(pts)


def points_all_cached(s: ChannelScenario, memory_rule: str = "lower-limit") -> list[RateMemoryPoint]:
    """:func:`all_cached_corners` as points."""
    return _points(all_cached_corners(s, memory_rule))


def symmetric_corners(s: ChannelScenario) -> list[Corners]:
    """Corner points under equal cache size at every receiver.

    Indexed ell = 0..K; the would-be ell = K+1 member divides by zero and
    is excluded.  M_w = M_s for every point.
    """
    if s.K_w < 1 or s.K_s < 1:
        raise NotApplicable("symmetric family needs K_w >= 1 and K_s >= 1")
    dw, ds, dz = s.delta_w, s.delta_s, s.delta_z
    Kw, Ks, K, D = s.K_w, s.K_s, s.K, s.D
    mzw = min(1.0 - dz, 1.0 - dw)

    rows = [(0, zero_cache_capacity(s), 0.0, 0.0)]

    den1 = Kw * (1 - ds) + Ks * (1 - dw)
    if den1 > 0:  # zero at delta_w = delta_s = 1
        m1 = (1 - ds) * mzw / den1
        rows.append((1, (1 - dw) * (1 - ds) / den1, m1, m1))

    c_k, c_s = _binomials(K), _binomials(Ks)

    def coded(ell: int):
        t = ell - 1
        # nonnegative since comb(K, t+1) > comb(Ks, t+1); zero at delta_s = 1
        den = c_k[t + 1] * (1 - ds) - c_s[t + 1] * (dw - ds)
        if den == 0:
            return None
        rate = c_k[t] * (1 - dw) * (1 - ds) / den
        mem = (D * t * c_k[t] * (1 - dw) * (1 - ds)
               + (K - t) * c_k[t] * (1 - ds) * min(1.0 - dz, 1.0 - dw)) / (K * den)
        return rate, mem, mem

    rows += _scalar_rows(range(2, Ks + 1), coded)
    for t in range(Ks, K):  # t = K divides by zero; excluded
        rate = (t + 1) * (1 - dw) / (K - t)
        mem = D * t * (t + 1) * (1 - dw) / (K * (K - t)) + (t + 1) * mzw / K
        rows.append((t + 1, rate, mem, mem))
    return _family([("sym[{}]", rows)])


def points_symmetric(s: ChannelScenario) -> list[RateMemoryPoint]:
    """:func:`symmetric_corners` as points."""
    return _points(symmetric_corners(s))
