"""Converse (upper) bounds on the secrecy capacity-memory tradeoff.

Two bound families are evaluated for every sub-population choice
``(k_w, k_s)``:

* :func:`ub_split` — a secrecy bound obtained from a degraded-channel
  argument; a one-parameter max-min over an erasure-budget split ``beta``.
* :func:`ub_cache_sharing` — a non-secure bound where cache memory is
  shared along a receiver chain; a max-min over a ``beta`` simplex, with
  cache contributions ``alpha_i`` accumulated by :func:`alpha_sequence`.

:func:`ub_best` minimises over all choices.  :func:`ub_weak_only` is the
``M_s = 0`` specialisation and :func:`ub_global` bounds the
budget-optimised tradeoff.

Division conventions, applied literally: ``min{a/0, b} = b``,
``min{a/0, b/0} = +inf``, and a minimum over an empty set is ``+inf``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

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


def _maximize_affine_min(lines: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """max over beta in [0,1] of min of affine functions a*beta + b.

    Candidates are beta in {0, 1} and every pairwise equaliser inside
    [0,1]; ties break toward smaller beta so witnesses are deterministic.
    Returns (value, beta).
    """
    candidates = [0.0, 1.0]
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a1, b1 = lines[i]
            a2, b2 = lines[j]
            if a1 != a2:
                beta = (b2 - b1) / (a1 - a2)
                if 0.0 <= beta <= 1.0:
                    candidates.append(beta)
    best_val, best_beta = -_INF, 0.0
    for beta in sorted(candidates):
        val = min(a * beta + b for a, b in lines)
        if val > best_val + TOL:
            best_val, best_beta = val, beta
    return best_val, best_beta


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
    lines = []
    if k_w > 0:
        lines.append((aw / k_w, c.M_w))
    # second term always present since k >= 1
    lines.append(((aw - as_) / k, as_ / k + (k_w * c.M_w + k_s * c.M_s) / k))
    value, beta = _maximize_affine_min(lines)
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


def ub_weak_only(s: ChannelScenario, M_w: float, k_w: int) -> float:
    """Upper bound on the tradeoff with empty strong caches (M_s = 0).

    The minimum of a non-secure inverse-sum bound,

        (k_w/(1-dw) + K_s/(1-ds))^-1 + k_w M_w / D,

    and the secrecy split bound with the full strong population.
    """
    if not (0 <= k_w <= s.K_w):
        raise IndexOutOfRange(f"k_w={k_w} outside 0..{s.K_w}")
    if k_w == 0 and s.K_s == 0:
        return _INF
    # delta = 1: infinite cost, zero capacity share
    inv = sum(
        n / (1.0 - d) if d < 1.0 else _INF
        for n, d in ((k_w, s.delta_w), (s.K_s, s.delta_s))
        if n > 0
    )
    sum_term = 1.0 / inv + k_w * M_w / s.D
    return min(sum_term, ub_split(s, CacheSizes(M_w, 0.0), k_w, s.K_s).value)


def ub_best(s: ChannelScenario, c: CacheSizes) -> UpperBoundReport:
    """Tightest upper bound: minimum over all (k_w, k_s) and families.

    The sweep order is deterministic so the returned witness is stable.

    At ``M_s = 0`` the result never exceeds :func:`ub_weak_only`, so that
    bound needs no pass of its own.  Its split term is the sweep's
    ``ub_split(k_w, K_s)``.  Its inverse-sum term ``t = 1/W + k_w M_w/D``
    (``W = sum_i w_i``, ``w_i = 1/c_i``) is never below the sweep's
    ``ub_cache_sharing(k_w, K_s)``: the alphas are nondecreasing, the
    weights nonincreasing (``delta_w >= delta_s``) and ``sum alpha <= pool
    = k k_w M_w/D``, so by Chebyshev's sum inequality ``sum_i alpha_i w_i
    <= k_w M_w W/D`` and the budget ``f(t) >= t W - sum_i alpha_i w_i``
    is at least 1.  With a vanishing capacity factor the cache-sharing
    value is at most ``alpha_1 <= k_w M_w/D``.
    """
    best: Optional[UpperBoundReport] = None
    for k_w in range(s.K_w + 1):
        for k_s in range(s.K_s + 1):
            if k_w == 0 and k_s == 0:
                continue
            for fn in (ub_split, ub_cache_sharing):
                rep = fn(s, c, k_w, k_s)
                if best is None or rep.value < best.value - TOL:
                    best = rep
    assert best is not None
    return best


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
