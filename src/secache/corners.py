"""Achievable rate-memory corner points, one family per coding scheme.

Four generators:

* :func:`points_weak_only` — caches at weak receivers only (K_w+4 points).
* :func:`points_separate` — the subset achievable with separate
  cache-channel coding.
* :func:`points_all_cached` — caches everywhere
  (K + K_w + K_w*K_s triples).
* :func:`points_symmetric` — equal cache size at every receiver.

Points are emitted raw, with labels; dominated points are *not* pruned
here (the hull module owns that).  Positive parts ``(x)^+ = max(0, x)``
are applied exactly where the closed forms carry them.  A closed form
whose (nonnegative) denominator vanishes at a boundary erasure has no
point there and is skipped; the remaining points still lower-bound.  A
closed form that overflows is skipped the same way: one whose binomials
or capacity powers exceed a float (Python raises ``OverflowError``), or
whose rate or memory is not finite.  At large K this drops the
high-index generalized and symmetric coded-caching corners.
"""

from __future__ import annotations

import functools
from math import comb, isfinite

from .errors import IndexOutOfRange, NotApplicable
from .model import ChannelScenario, RateMemoryPoint, pos, zero_cache_capacity

#: How to resolve the under-determined exponent in the generalized-coded-
#: caching memory formulas (an index the closed form leaves unbound).
#: "lower-limit" pins it to the lower summation limit of the adjacent
#: binomial sums; "first-arg" conservatively keeps only the first argument
#: of the min, which weakly enlarges memory and stays achievable.
GENERALIZED_MEMORY_RULES = ("lower-limit", "first-arg")

def _skip_overflow(closed_form):
    """``closed_form(...)`` returns ``(R, M_w, M_s, label)``, or None where
    it has no point; the decorated form returns the point, or None also
    where the closed form overflows (see the module docstring)."""

    @functools.wraps(closed_form)
    def point(*args) -> RateMemoryPoint | None:
        try:
            values = closed_form(*args)
        except OverflowError:
            return None
        if values is None or not all(isfinite(v) for v in values[:3]):
            return None
        return RateMemoryPoint(*values)

    return point


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

def points_weak_only(s: ChannelScenario) -> list[RateMemoryPoint]:
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

    pts = [RateMemoryPoint(zero_cache_capacity(s), 0.0, 0.0, "no-cache")]

    den1 = Ks * (1 - dw) + Kw * (dz - ds)
    pts.append(
        RateMemoryPoint(
            (1 - dw) * (dz - ds) / den1,
            (dz - ds) * mzw / den1,
            0.0,
            "cached-keys",
        )
    )

    den2 = Ks * (1 - dw) + Kw * (dw - ds)
    r2a = (1 - dw) * (1 - ds) / (Ks * (1 - dw) + Kw * (1 - ds))
    r2b = (1 - dw) * (dz - ds) / den2 if den2 > 0 else float("inf")
    pts.append(
        RateMemoryPoint(
            min(r2a, r2b),
            min((1 - dz) / Kw, r2b),
            0.0,
            "superposition-jamming",
        )
    )

    md = min(dw - ds, dz - ds)
    for t in range(1, Kw):
        den = (Kw - t + 1) * (dz - ds) * (
            Ks * (t + 1) * (1 - dw) + (Kw - t) * md
        ) + Ks**2 * t * (t + 1) * (1 - dw) ** 2
        if den == 0:  # K_s = 0 and delta_w = delta_s
            continue
        rate = (
            (t + 1)
            * (1 - dw)
            * (dz - ds)
            * (Ks * t * (1 - dw) + (Kw - t + 1) * md)
            / den
        )
        mem = (
            D * t * (t + 1) * (1 - dw) * (dz - ds)
            * (Ks * (t - 1) * (1 - dw) + (Kw - t + 1) * md)
            + (t + 1) * (Kw - t + 1) * (dz - ds) * mzw
            * (Ks * t * (1 - dw) + (Kw - t) * md)
        ) / (Kw * den)
        pts.append(RateMemoryPoint(rate, mem, 0.0, f"piggyback-one[t={t}]"))

    if Ks > 0:
        r4 = (dz - ds) / Ks
        m4 = (D * Kw * (dz - ds) ** 2 + Ks * (dz - ds) * mzw) / (
            Ks * (Ks * mzw + Kw * (dz - ds))
        )
        pts.append(RateMemoryPoint(r4, m4, 0.0, "piggyback-two"))
        pts.append(
            RateMemoryPoint(r4, D * (dz - ds) / Ks, 0.0, "full-library")
        )
    return pts

def points_separate(s: ChannelScenario) -> list[RateMemoryPoint]:
    """Weak-only points achievable by separate cache-channel coding.

    The t-indexed family below plus the four reused corner points
    (no-cache, cached-keys, superposition-jamming, full-library).
    """
    _require_eavesdropper_weaker_than_strong(s)
    if s.K_w < 1:
        raise NotApplicable("separate-coding family needs K_w >= 1")
    return separate_from_weak_only(s, points_weak_only(s))


def separate_from_weak_only(
    s: ChannelScenario, weak: list[RateMemoryPoint]
) -> list[RateMemoryPoint]:
    """:func:`points_separate` from the weak-only points ``weak`` of ``s``
    (where the family applies: both share one gate)."""
    dw, ds, dz = s.delta_w, s.delta_s, s.delta_z
    Kw, Ks, D = s.K_w, s.K_s, s.D
    mzw = min(1.0 - dz, 1.0 - dw)
    reused = {"no-cache", "cached-keys", "superposition-jamming", "full-library"}
    pts = [p for p in weak if p.label in reused]
    for t in range(1, Kw):
        den = Ks * (t + 1) * (1 - dw) + (Kw - t) * (dz - ds)
        rate = (t + 1) * (1 - dw) * (dz - ds) / den
        mem = (
            D * t * (t + 1) * (1 - dw) * (dz - ds)
            + (t + 1) * (Kw - t) * (dz - ds) * mzw
        ) / (Kw * den)
        pts.append(RateMemoryPoint(rate, mem, 0.0, f"separate[t={t}]"))
    return pts

@_skip_overflow
def _generalized_point(s: ChannelScenario, t: int, memory_rule: str):
    """One corner of the generalized-coded-caching family (index t)."""
    dw, ds, dz = s.delta_w, s.delta_s, s.delta_z
    Kw, Ks, K, D = s.K_w, s.K_s, s.K, s.D

    def wsum(lo: int, hi: int, term) -> float:
        total = 0.0  # term by term, as the builtin sum before Python 3.12
        for tw in range(lo, hi + 1):
            total += term(tw)
        return total

    def weight(tw: int) -> float:
        return (1 - dw) ** (-tw) * (1 - ds) ** tw

    num_r = wsum(
        max(0, t - Ks), min(t, Kw),
        lambda tw: comb(Kw, tw) * comb(Ks, t - tw) * weight(tw),
    )
    den = wsum(
        max(0, t + 1 - Ks), min(t + 1, Kw),
        lambda tw: comb(Kw, tw) * comb(Ks, t + 1 - tw) * weight(tw) / (1 - ds),
    )
    den_mem = wsum(
        max(0, t + 1 - Ks), min(t + 1, Kw),
        lambda tw: comb(Kw, tw) * comb(Ks, t + 1 - tw) * weight(tw),
    )
    rate = num_r / den

    mw_data = D * wsum(
        max(1, t - Ks), min(t, Kw),
        lambda tw: comb(Kw - 1, tw - 1) * comb(Ks, t - tw) * weight(tw),
    ) / den_mem
    ms_data = D * wsum(
        max(0, t - Ks), min(t - 1, Kw),
        lambda tw: comb(Kw, tw) * comb(Ks - 1, t - tw - 1) * weight(tw),
    ) / den_mem

    key_cap = (t + 1) * (1 - dz) / K
    if memory_rule == "first-arg":
        mw_key = key_cap
        ms_key = key_cap
    else:  # pin the unbound exponent to the sums' lower limit
        tw0 = max(0, t + 1 - Ks)
        mw_key = min(
            key_cap,
            weight(tw0)
            * (comb(K - 1, t) * (1 - ds) - comb(Kw - 1, t) * (dw - ds))
            / den_mem,
        )
        ms_key = min(key_cap, comb(K - 1, t) * weight(tw0) * (1 - ds) / den_mem)
    return (
        rate,
        mw_data + mw_key,
        ms_data + ms_key,
        f"all:generalized[t={t},{memory_rule}]",
    )

def points_all_cached(
    s: ChannelScenario, memory_rule: str = "lower-limit"
) -> list[RateMemoryPoint]:
    """The K + K_w + K_w*K_s corner triples with caches everywhere.

    Order: no-cache; cached-keys; piggyback-with-keys for t = 1..K_w-1;
    the (t_w, t_s)-indexed symmetric-piggyback grid; the generalized
    family for t = 1..K-1 (memory per ``memory_rule``, see
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

    pts = [RateMemoryPoint(zero_cache_capacity(s), 0.0, 0.0, "no-cache")]

    den1 = Kw * (1 - ds) + Ks * (1 - dw)
    if den1 > 0:  # zero at delta_w = delta_s = 1
        pts.append(
            RateMemoryPoint(
                (1 - ds) * (1 - dw) / den1,
                (1 - ds) * mzw / den1,
                (1 - dw) * mzs / den1,
                "all:cached-keys",
            )
        )

    for t in range(1, Kw):
        den = (Kw - t + 1) * (1 - ds) * (
            Ks * (t + 1) * (1 - dw) + (Kw - t) * (dw - ds)
        ) + Ks**2 * t * (t + 1) * (1 - dw) ** 2
        if den == 0:  # delta_w = delta_s = 1
            continue
        rate = (
            (t + 1) * (1 - dw) * (1 - ds)
            * (Ks * t * (1 - dw) + (Kw - t + 1) * (dw - ds))
            / den
        )
        mw = (
            D * t * (t + 1) * (1 - dw) * (1 - ds)
            * (Ks * (t - 1) * (1 - dw) + (Kw - t + 1) * (dw - ds))
            + Ks * t * (t + 1) * (Kw - t + 1) * (1 - dw) * (1 - ds) * mzs
            + (t + 1) * (Kw - t) * (Kw - t + 1) * (1 - ds) * (dw - ds) * mzw
        ) / (Kw * den)
        ms = (
            Ks * t * (t + 1) * (1 - dw) ** 2 * mzs
            + (t + 1) * (Kw - t + 1) * (1 - dw) * (1 - ds)
            * min(pos(dw - dz), dw - ds)
        ) / den
        pts.append(RateMemoryPoint(rate, mw, ms, f"all:piggyback-keys[t={t}]"))

    for t_w in range(1, Kw + 1):
        for t_s in range(1, Ks + 1):
            den = Kw * (Kw - t_w) * (t_s + 1) * (1 - ds) ** 2 + Ks * (
                t_w + 1
            ) * (1 - dw) * (
                (Ks - t_s) * (1 - dw) + Kw * (t_s + 1) * (1 - ds)
            )
            if den == 0:  # delta_w = 1 with t_w = K_w or delta_s = 1
                continue
            ab = (t_w + 1) * (t_s + 1) * (1 - dw) * (1 - ds)
            rate = ab * (Ks * (1 - dw) + Kw * (1 - ds)) / den
            pair_key = ab * min(1.0 - dz, 2.0 - dw - ds)
            mw = (
                (t_w + 1) * (t_s + 1) * (1 - ds) ** 2
                * (D * t_w * (1 - dw) + (Kw - t_w) * mzw)
                + Ks * pair_key
            ) / den
            ms = (
                (t_w + 1) * (t_s + 1) * (1 - dw) ** 2
                * (D * t_s * (1 - ds) + (Ks - t_s) * mzs)
                + Kw * pair_key
            ) / den
            pts.append(
                RateMemoryPoint(rate, mw, ms, f"all:pair[tw={t_w},ts={t_s}]")
            )

    # Negative powers of the capacity factors blow up at delta = 1; the
    # generalized family is skipped there (the rest still lower-bounds).
    if dw < 1.0 and ds < 1.0:
        pts += filter(None, (_generalized_point(s, t, memory_rule) for t in range(1, s.K)))
    return pts

@_skip_overflow
def _coded_symmetric_point(s: ChannelScenario, t: int):
    """The symmetric corner ``sym[t+1]`` for 1 <= t < K_s."""
    dw, ds, K, D = s.delta_w, s.delta_s, s.K, s.D
    # nonnegative since comb(K, t+1) > comb(Ks, t+1); zero at delta_s = 1
    den = comb(K, t + 1) * (1 - ds) - comb(s.K_s, t + 1) * (dw - ds)
    if den == 0:
        return None
    rate = comb(K, t) * (1 - dw) * (1 - ds) / den
    mem = (
        D * t * comb(K, t) * (1 - dw) * (1 - ds)
        + (K - t) * comb(K, t) * (1 - ds) * min(1.0 - s.delta_z, 1.0 - dw)
    ) / (K * den)
    return rate, mem, mem, f"sym[{t + 1}]"


def points_symmetric(s: ChannelScenario) -> list[RateMemoryPoint]:
    """Corner points under equal cache size at every receiver.

    Indexed ell = 0..K; the would-be ell = K+1 member divides by zero and
    is excluded.  M_w = M_s for every point.
    """
    if s.K_w < 1 or s.K_s < 1:
        raise NotApplicable("symmetric family needs K_w >= 1 and K_s >= 1")
    dw, ds, dz = s.delta_w, s.delta_s, s.delta_z
    Kw, Ks, K, D = s.K_w, s.K_s, s.K, s.D
    mzw = min(1.0 - dz, 1.0 - dw)

    pts = [RateMemoryPoint(zero_cache_capacity(s), 0.0, 0.0, "sym[0]")]

    den1 = Kw * (1 - ds) + Ks * (1 - dw)
    if den1 > 0:  # zero at delta_w = delta_s = 1
        m1 = (1 - ds) * mzw / den1
        pts.append(RateMemoryPoint((1 - dw) * (1 - ds) / den1, m1, m1, "sym[1]"))

    pts += filter(None, (_coded_symmetric_point(s, t) for t in range(1, Ks)))

    for t in range(Ks, K):  # t = K divides by zero; excluded
        rate = (t + 1) * (1 - dw) / (K - t)
        mem = D * t * (t + 1) * (1 - dw) / (K * (K - t)) + (t + 1) * mzw / K
        pts.append(RateMemoryPoint(rate, mem, mem, f"sym[{t + 1}]"))
    return pts
