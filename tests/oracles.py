"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the production code paths: the simplex oracle
is a grid search, the cache-sharing reference is a bisection on the
water level (production solves for it in closed form), the mixture oracle
is a grid search over triple supports (no linear algebra), the two-budget
reference is the per-query support enumeration that production replaced
by dual planes built once, the converse sweep is the pair-by-pair scan
that production replaced by one batched evaluation over a grid, the
peel-rule and Monte-Carlo references are the per-receiver schedule scan
and the scalar per-draw trial loop that production replaced by receiver
bitmasks and a compiled threshold kernel (one generator per run, tested
a block of trials at a time), the plan compile is the two-walk fill of
every loaded (receiver, segment, unit) threshold that production
replaced by one schedule walk, the plan verifier is the scan of every
segment, unit and receiver that production replaced by one
representative per orbit and receiver class (its sums are ``legacy``,
the one-at-a-time sums production replaced by exact ones, or ``exact``,
a full scan of correctly rounded sums), the class-view verifier
(with ``deliveries``, its peel-rule loop) is the DECODE pass that peeled
every unit handing a representative a part, which production replaced by
one member per sub-orbit of each representative, and the entropy inverse
is a dense scan.  The eager label families (:class:`EagerFamily`) are the
dicts of every label that the subset builders built before a family
formatted a label only when it was read.  The regime certifier
(:func:`exact_regimes_reference`) is one sample, compare and append
block per claim, with every report field listed by hand, which
production folded into one claim helper and reports built from their
fields.  The corner families (``points_*_reference``) build one labelled
point at a time, and the 1-D chains (``upper_chain_reference``,
``lower_left_chain_reference``) run on Python lists, as production did
before its families and chains became numpy columns.  Grid resolution h bounds the
value error by h times the largest capacity factor, which the comparing
tests account for.  The
one-time-pad cipher lives here as well: the simulator never samples pad
values (pads cancel exactly), so only the tests exercise it.
"""

from __future__ import annotations

import functools
import itertools
import random as _random
from math import ceil, comb, fsum, isfinite, isinf, isnan
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from secache import bounds, corners, hull
from secache.bounds import UpperBoundReport, ub_cache_sharing, ub_split
from secache.errors import (
    ConfigError,
    EmptyInput,
    IndexOutOfRange,
    Infeasible,
    NotApplicable,
    RangeError,
)
from secache.model import (
    TOL,
    CacheSizes,
    ChannelScenario,
    RateMemoryPoint,
    pos,
    validate_scenario,
    zero_cache_capacity,
)
from secache.schemes import (
    RATE_TOL,
    Atom,
    CheckResult,
    DeliverySegment,
    SchemePlan,
    VerificationReport,
    _Holders,
    peel_rule,
)
from secache.simulate import GENERATOR_NAME, SimConfig, SimReport
from secache.tradeoff import RegimeClaim, RegimeReport, Tradeoff

_DET_TOL = 1e-12


def simplex_grid_maxmin(alphas, caps, step):
    """max over the probability simplex of min_i (caps_i * b_i + alphas_i).

    Exhaustive grid with resolution ``step`` over the free coordinates;
    supports 1 to 4 dimensions (enough for small oracle instances).
    """
    alphas = list(alphas)
    caps = list(caps)
    m = len(alphas)
    if m == 1:
        return caps[0] + alphas[0]
    ax = np.arange(0.0, 1.0 + step / 2, step)
    if m == 2:
        b1 = ax
        b2 = 1.0 - b1
        vals = np.minimum(caps[0] * b1 + alphas[0], caps[1] * b2 + alphas[1])
        return float(vals.max())
    if m == 3:
        b1, b2 = np.meshgrid(ax, ax, indexing="ij")
        b3 = 1.0 - b1 - b2
        ok = b3 >= -1e-12
        vals = np.minimum.reduce(
            [
                caps[0] * b1 + alphas[0],
                caps[1] * b2 + alphas[1],
                caps[2] * np.maximum(b3, 0.0) + alphas[2],
            ]
        )
        return float(vals[ok].max())
    if m == 4:
        # Grid pairs (b2, b3) of the simplex, sorted by b2 + b3: those
        # feasible beside b1 = ax[i] (b2 + b3 <= 1 - b1) are the first
        # ends[i].  b1's term is constant over them, so it caps their max.
        ax = ax[ax <= 1.0 + 1e-12]
        n = len(ax) - 1
        i2, i3 = np.indices((n + 1, n + 1)).reshape(2, -1)
        tot = i2 + i3
        order = np.argsort(tot, kind="stable")[: (n + 1) * (n + 2) // 2]
        b2, b3 = ax[i2[order]], ax[i3[order]]
        ends = np.searchsorted(tot[order], n - np.arange(n + 1), side="right")
        inner = np.minimum(caps[1] * b2 + alphas[1], caps[2] * b3 + alphas[2])
        best = -np.inf
        for b1, k in zip(ax, ends):
            b4 = 1.0 - b1 - b2[:k] - b3[:k]
            vals = np.minimum(inner[:k], caps[3] * np.maximum(b4, 0.0) + alphas[3])
            best = max(best, min(caps[0] * b1 + alphas[0], float(vals.max())))
        return best
    raise ValueError("oracle supports at most 4 simplex dimensions")


def cache_sharing_bisection(alphas, k_w, cw, cs, tol=1e-12):
    """Water level of the cache-sharing max-min over the beta simplex.

    Bisection on the target value t: the budget needed to push every term
    up to t is
        f(t) = sum_i (t - alpha_i)^+/cw + sum_j (t - alpha_j)^+/cs,
    which is nondecreasing, so the optimum is the largest t with
    f(t) <= 1.  A vanishing capacity factor (delta = 1) caps t at the
    smallest alpha of that population.  The first ``k_w`` alphas belong to
    weak receivers (factor ``cw``), the rest to strong ones (``cs``).
    Returns a t with f(t) <= 1 within ``tol`` below the optimum.
    """
    a_weak, a_strong = alphas[:k_w], alphas[k_w:]
    k_s = len(a_strong)

    def pos(x):
        return x if x > 0.0 else 0.0

    cap = float("inf")
    if k_w > 0 and cw == 0.0:
        cap = min(cap, min(a_weak))
    if k_s > 0 and cs == 0.0:
        cap = min(cap, min(a_strong))

    def budget(t):
        need = 0.0
        if cw > 0.0:
            need += sum(pos(t - a) for a in a_weak) / cw
        if cs > 0.0:
            need += sum(pos(t - a) for a in a_strong) / cs
        return need

    lo = 0.0
    hi = max(alphas) + max(cw, cs)
    if cap < float("inf"):
        hi = min(hi, cap)
    if cap < float("inf") and budget(cap) <= 1.0:
        return cap
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if budget(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return lo


def ub_best_sweep(s: ChannelScenario, c: CacheSizes) -> UpperBoundReport:
    """The converse sweep that ``bounds.ub_best_grid`` replaced, verbatim:
    every (k_w, k_s) pair in order, both families, keeping the first
    value lower by more than TOL."""
    best = None
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


def ub_weak_only(s: ChannelScenario, M_w: float, k_w: int) -> float:
    """Upper bound on the tradeoff with empty strong caches (M_s = 0).

    It never lies below ``ub_best`` at ``(M_w, 0)``, so production needs
    no pass of its own for it (see ``bounds.ub_best_grid``).

    The minimum of a non-secure inverse-sum bound,

        (k_w/(1-dw) + K_s/(1-ds))^-1 + k_w M_w / D,

    and the secrecy split bound with the full strong population.
    """
    if not (0 <= k_w <= s.K_w):
        raise IndexOutOfRange(f"k_w={k_w} outside 0..{s.K_w}")
    if k_w == 0 and s.K_s == 0:
        return float("inf")
    # delta = 1: infinite cost, zero capacity share
    inv = sum(
        n / (1.0 - d) if d < 1.0 else float("inf")
        for n, d in ((k_w, s.delta_w), (s.K_s, s.delta_s))
        if n > 0
    )
    sum_term = 1.0 / inv + k_w * M_w / s.D
    return min(sum_term, ub_split(s, CacheSizes(M_w, 0.0), k_w, s.K_s).value)


def lambda_grid_best(points, M_w, M_s, step):
    """Grid-search mixture bound: max sum(lam R) over lam in the simplex
    grid with both budgets respected; triple supports cover the optimum
    (grids include 0, so smaller supports are included).

    ``points`` is a sequence of (R, M_w, M_s) triples.  Returns -inf when
    nothing is feasible.
    """
    pts = [tuple(p) for p in points]
    n = len(pts)
    ax = np.arange(0.0, 1.0 + step / 2, step)
    l1, l2 = np.meshgrid(ax, ax, indexing="ij")
    l3 = 1.0 - l1 - l2
    ok = l3 >= -1e-12
    l3 = np.maximum(l3, 0.0)
    best = -np.inf
    for i, j, k in itertools.combinations(range(n), 3):
        ri, wi, si = pts[i]
        rj, wj, sj = pts[j]
        rk, wk, sk = pts[k]
        feas = (
            ok
            & (l1 * wi + l2 * wj + l3 * wk <= M_w + 1e-12)
            & (l1 * si + l2 * sj + l3 * sk <= M_s + 1e-12)
        )
        if feas.any():
            vals = l1 * ri + l2 * rj + l3 * rk
            best = max(best, float(vals[feas].max()))
    return best


def entropy_inverse_scan(h, samples=2_000_001):
    """p in [0, 1/2] with binary entropy closest to h, dense scan."""
    ps = np.linspace(1e-9, 0.5, samples)
    hs = -(ps * np.log2(ps) + (1.0 - ps) * np.log2(1.0 - ps))
    return float(ps[int(np.argmin(np.abs(hs - h)))])


def affine_maxmin_grid(lines, step=1e-6):
    """max over beta in [0,1] of min of affine a*beta+b, by dense grid."""
    ax = np.arange(0.0, 1.0 + step / 2, step)
    vals = np.minimum.reduce([a * ax + b for a, b in lines])
    return float(vals.max())


def eval_hull_2d_enumeration(
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
        raise EmptyInput("eval_hull_2d_enumeration needs at least one point")
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


# The 1-D chains as secache.hull ran them on Python lists, kept verbatim
# (names suffixed ``_reference``) for the surface oracle below and the
# array chains' tests.

def upper_chain_reference(m: Sequence[float], r: Sequence[float]) -> list[int]:
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
            if (r[b] - r[a]) * (m[p] - m[a]) <= (r[p] - r[a]) * (m[b] - m[a]) + hull._DET_TOL:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def _half_hull_reference(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
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


def lower_left_chain_reference(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Vertices of conv(pts) + R^2_+, by increasing x and decreasing y."""
    chain = []
    for p in _half_hull_reference(sorted(pts)):
        if chain and p[1] >= chain[-1][1]:
            break
        chain.append(p)
    return chain


def _facet_slopes_bruteforce(M: np.ndarray, R: np.ndarray, first: int) -> np.ndarray:
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
        ok = np.abs(det) > hull._DET_TOL * np.hypot(uw, us) * np.hypot(vw, vs)
        det = np.where(ok, det, 1.0)
        yw = (ur * vs - us * vr) / det
        ys = (uw * vr - ur * vw) / det
        ok &= (yw >= 0.0) & (ys >= 0.0)
        Y = np.column_stack((yw[ok], ys[ok]))
        z = R[k] - Y @ M[:, k]
        # every fourth point first: it rejects most planes for little work
        for cols in (slice(None, None, 4), slice(None)):
            low = (R[cols] - Y @ M[:, cols]).max(axis=1) <= z + hull._FTOL
            Y, z = Y[low], z[low]
        out.append(Y)
    return np.concatenate(out)


def surface_planes_bruteforce(points: Sequence[RateMemoryPoint]) -> np.ndarray:
    """The vertex planes ``(y_w, y_s, z)`` of :class:`secache.Surface`, by
    the build it replaced: each round solves every triple of the candidate
    set through a new point, and keeps the planes no candidate lies above.
    The rounds, tolerances and arithmetic are the production ones, so the
    planes must agree bit for bit."""
    R = np.array([p.R for p in points])
    Mw = np.array([p.M_w for p in points])
    Ms = np.array([p.M_s for p in points])
    M_all = np.vstack((Mw, Ms))
    where = {(w, m): i for i, (w, m) in enumerate(zip(Mw.tolist(), Ms.tolist()))}
    chain = [where[p] for p in lower_left_chain_reference(list(where))]

    boundary = [np.zeros((1, 2))]
    cand = set(chain)
    for axis, cost in enumerate((Mw, Ms)):
        idx = upper_chain_reference(cost.tolist(), R.tolist())
        cand.update(idx)
        slopes = np.diff(R[idx]) / np.diff(cost[idx])
        Y = np.zeros((len(slopes), 2))
        Y[:, axis] = slopes
        boundary.append(Y)
    boundary = np.concatenate(boundary)

    scale = max(float(M_all.max()), TOL)
    grid = (max(float(np.ptp(R)), TOL) / scale) * np.concatenate(
        ([0.0], np.geomspace(1e-3, 1e3, 13))
    )
    Y = np.array([(a, b) for a in grid for b in grid])
    cand.update((R[None, :] - Y @ M_all).argmax(axis=1).tolist())

    C: list[int] = []
    facets = np.empty((0, 2))
    new = sorted(cand)
    while new:
        first = len(C)
        C += new
        g = R[C] - facets @ M_all[:, C]
        facets = facets[g.max(axis=1) <= g[:, :first].max(axis=1, initial=-np.inf) + hull._FTOL]
        facets = np.concatenate((facets, _facet_slopes_bruteforce(M_all[:, C], R[C], first)))
        Y = np.unique(np.concatenate((boundary, facets)), axis=0)
        excess = R[None, :] - Y @ M_all
        above = excess.max(axis=1) > excess[:, C].max(axis=1) + hull._CERT_TOL
        new = sorted(set(excess[above].argmax(axis=1).tolist()) - set(C))
    return np.column_stack((Y, excess.max(axis=1)))


def deliveries(plan: SchemePlan) -> dict[int, dict[str, list[tuple[int, int]]]]:
    """Which units hand which receiver which part, once decoded.

    Maps each receiver to ``{part label: [(segment index, unit index),
    ...]}``, the units that deliver that part to it by
    :func:`peel_rule` over the plan's placement, in schedule order.
    """
    peel = peel_rule(_Holders(plan.placement), plan.message_parts, plan.virtual_cached)
    out: dict[int, dict[str, list[tuple[int, int]]]] = {
        r: {} for r in plan.message_parts
    }
    for si, seg in enumerate(plan.schedule):
        for ui, unit in enumerate(seg.units):
            at = (si, ui)
            for r, label in peel(unit):
                got = out[r].get(label)
                if got is None:
                    out[r][label] = [at]
                else:
                    got.append(at)
    return {r: got for r, got in out.items() if got}


def deliveries_one_receiver(
    plan: SchemePlan, receiver: int
) -> dict[str, list[tuple[int, int]]]:
    """The peel rule for one receiver, by a scan of the whole schedule.

    Maps each part label to the (segment index, unit index) pairs that
    deliver it.  A unit qualifies when the receiver carries load in it and
    holds its pad keys and decoder context; the part sits at the receiver's
    slot (in an XOR it must be the only part whose label the receiver
    lacks); and the part rate equals the receiver's message rate for that
    label.
    """
    cached = plan.cached_labels(receiver)
    have = cached | plan.virtual_cached.get(receiver, frozenset())
    rates = dict(plan.message_parts.get(receiver, ()))
    out: dict[str, list[tuple[int, int]]] = {}
    for si, seg in enumerate(plan.schedule):
        for ui, unit in enumerate(seg.units):
            if unit.decode_load.get(receiver, 0.0) <= 0.0:
                continue
            if any(k not in cached for k in unit.pad_keys):
                continue
            if any(c not in have for c in unit.context.get(receiver, ())):
                continue
            picks = list(enumerate(unit.parts))
            if unit.combine == "xor":
                picks = [(i, part) for i, part in picks if part[1] not in have]
                if len(picks) != 1:
                    continue
            for i, (slot, label) in picks:
                if slot == receiver and unit.part_rates[i] == rates.get(label):
                    out.setdefault(label, []).append((si, ui))
    return out


def otp_encrypt(w: int, key: int, modulus: int) -> int:
    """One-time-pad encryption: (w + key) mod modulus."""
    if modulus <= 0:
        raise RangeError(f"modulus must be positive, got {modulus}")
    if not (0 <= w < modulus):
        raise RangeError(f"plaintext {w} outside [0, {modulus})")
    if not (0 <= key < modulus):
        raise RangeError(f"key {key} outside [0, {modulus})")
    return (w + key) % modulus


def otp_decrypt(c: int, key: int, modulus: int) -> int:
    """Inverse of :func:`otp_encrypt` for the same key."""
    if modulus <= 0:
        raise RangeError(f"modulus must be positive, got {modulus}")
    if not (0 <= c < modulus):
        raise RangeError(f"ciphertext {c} outside [0, {modulus})")
    if not (0 <= key < modulus):
        raise RangeError(f"key {key} outside [0, {modulus})")
    return (c - key) % modulus


def compile_threshold_dict(plan: SchemePlan, s: ChannelScenario, n: int,
                           delivered: Optional[dict] = None) -> tuple:
    """The plan compile of ``run_monte_carlo`` as it was before the
    one-walk ``simulate._compile``, kept verbatim: a ``threshold`` entry
    for every loaded (receiver, segment, unit), then the providers of
    :func:`deliveries` (``delivered``, when the caller holds them already)
    looked up in it.  Returns the fields of ``simulate._Compiled`` in
    order."""
    seg_lengths = []
    for seg in plan.schedule:
        length = round(seg.fraction * n)
        if length == 0 and seg.units:
            raise ConfigError(
                f"segment {seg.id} rounds to zero channel uses at n={n}"
            )
        seg_lengths.append(length)

    draw_of: dict[tuple[int, int], int] = {}
    draw_seg: list[int] = []
    draw_p: list[float] = []
    threshold: dict[tuple[int, int, int], int] = {}
    for si, seg in enumerate(plan.schedule):
        receivers = set()
        cum: dict[int, int] = {}
        for ui, unit in enumerate(seg.units):
            for r, load in unit.decode_load.items():
                if load <= 0:
                    continue
                receivers.add(r)
                cum[r] = cum.get(r, 0) + ceil(load * n)
                threshold[(r, si, ui)] = cum[r]
        for r in receivers:
            draw_of[(r, si)] = len(draw_seg)
            draw_seg.append(si)
            draw_p.append(1.0 - s.erasure_of(r))

    prov_draw: list[int] = []
    prov_thr: list[int] = []
    group_start: list[int] = []
    starved = False
    if delivered is None:
        delivered = deliveries(plan)
    for r in range(1, s.K + 1):
        have = plan.cached_labels(r) | plan.virtual_cached.get(r, frozenset())
        providers = delivered.get(r, {})
        for label, _ in plan.message_parts.get(r, ()):
            if label in have:
                continue
            group_start.append(len(prov_draw))
            for si, ui in providers.get(label, ()):
                prov_draw.append(draw_of[(r, si)])
                prov_thr.append(threshold[(r, si, ui)])
            starved = starved or len(prov_draw) == group_start[-1]

    return (
        seg_lengths,
        np.array(draw_seg, dtype=np.intp),
        np.array([seg_lengths[si] for si in draw_seg], dtype=np.int64),
        np.array(draw_p, dtype=np.float64),
        np.array(prov_draw, dtype=np.intp),
        np.array(prov_thr, dtype=np.int64),
        np.array(group_start, dtype=np.intp),
        starved,
    )


def _demands_list(s: ChannelScenario, cfg: SimConfig) -> list[tuple[int, ...]]:
    canonical = tuple(range(1, s.K + 1))
    policy = cfg.demand_policy
    if policy == "all-distinct":
        return [canonical]
    if policy == "exhaustive-if-small":
        if s.D**s.K <= 10**6:
            return list(itertools.product(range(1, s.D + 1), repeat=s.K))
        return _demands_list(
            s, SimConfig(cfg.n, cfg.trials, cfg.seed, "random:1000")
        )
    if policy.startswith("random:"):
        count = int(policy.split(":", 1)[1])
        rng = _random.Random(cfg.seed ^ 0x5EED)
        out = [canonical]
        for _ in range(count):
            out.append(tuple(rng.randint(1, s.D) for _ in range(s.K)))
        return out
    raise ConfigError(f"unknown demand policy {policy!r}")


def _trial_rng(seed: int, demand_idx: int, trial: int) -> np.random.Generator:
    bitgen = np.random.Philox(
        counter=[trial, demand_idx, 0, 0],
        key=[seed & (2**64 - 1), 0x9E3779B97F4A7C15],
    )
    return np.random.Generator(bitgen)


def monte_carlo_scalar(
    plan: SchemePlan, s: ChannelScenario, cfg: SimConfig
) -> SimReport:
    """``run_monte_carlo`` with one scalar binomial draw per (receiver,
    segment) per trial and a Python scan of every provider threshold."""
    validate_scenario(s)
    n = cfg.n
    seg_lengths = []
    for seg in plan.schedule:
        length = round(seg.fraction * n)
        if length == 0 and seg.units:
            raise ConfigError(
                f"segment {seg.id} rounds to zero channel uses at n={n}"
            )
        seg_lengths.append(length)

    seg_receivers = []
    threshold: dict[tuple[int, int, int], int] = {}
    for si, seg in enumerate(plan.schedule):
        receivers = set()
        cum: dict[int, int] = {}
        for ui, unit in enumerate(seg.units):
            for r, load in unit.decode_load.items():
                if load <= 0:
                    continue
                receivers.add(r)
                cum[r] = cum.get(r, 0) + ceil(load * n)
                threshold[(r, si, ui)] = cum[r]
        seg_receivers.append(receivers)

    needs: list[tuple[int, list[tuple[int, int]]]] = []
    for r in range(1, s.K + 1):
        have = plan.cached_labels(r) | plan.virtual_cached.get(r, frozenset())
        providers = deliveries_one_receiver(plan, r)
        for label, _ in plan.message_parts.get(r, ()):
            if label not in have:
                needs.append((r, [
                    (si, threshold[(r, si, ui)])
                    for si, ui in providers.get(label, ())
                ]))

    demands = _demands_list(s, cfg)
    per_demand = []
    worst = 0.0
    seg_erasures = [0.0] * len(plan.schedule)
    seg_samples = [0] * len(plan.schedule)

    for d_idx, demand in enumerate(demands):
        errors = 0
        for trial in range(cfg.trials):
            rng = _trial_rng(cfg.seed, d_idx, trial)
            unerased: dict[tuple[int, int], int] = {}
            for si, receivers in enumerate(seg_receivers):
                for r in receivers:
                    got = int(rng.binomial(seg_lengths[si], 1.0 - s.erasure_of(r)))
                    unerased[(r, si)] = got
                    if d_idx == 0 and seg_lengths[si] > 0:
                        seg_erasures[si] += 1.0 - got / seg_lengths[si]
                        seg_samples[si] += 1
            if any(
                not any(unerased[(r, si)] >= thr for si, thr in providers)
                for r, providers in needs
            ):
                errors += 1
        rate = errors / cfg.trials
        worst = max(worst, rate)
        per_demand.append(
            {"demand": list(demand), "errors": errors, "trials": cfg.trials}
        )

    stats = [
        {
            "segment": list(seg.id),
            "length": seg_lengths[i],
            "empirical_erasure_rate": (
                seg_erasures[i] / seg_samples[i] if seg_samples[i] else None
            ),
        }
        for i, seg in enumerate(plan.schedule)
    ]
    return SimReport(
        n=cfg.n,
        trials=cfg.trials,
        seed=cfg.seed,
        generator=GENERATOR_NAME,
        worst_case_error_rate=worst,
        per_demand=per_demand,
        segment_stats=stats,
    )


#: A function that adds a list of terms.
Total = Callable[[Sequence[float]], float]


def legacy(terms: Sequence[float]) -> float:
    """The terms added one at a time from ``0.0``, as ``verify_plan`` and
    ``cache_usage`` added them before their sums were exact.  A loop, not
    the builtin ``sum``, which is compensated from Python 3.12 on."""
    acc = 0.0
    for term in terms:
        acc += term
    return acc


#: The correctly rounded sum of the terms.
exact = fsum


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of CPython 3.12, for running its float sums on
    any Python: machine-word ints add exactly, floats by Neumaier's
    compensated sum (the compensation is added at the end, when finite),
    and any other term, such as a ``Fraction``, switches to plain ``+``."""
    word = range(-2**63, 2**63)
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) not in (int, bool) or result + item not in word:
                result = result + item
                break
            result += item
        else:
            return result
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
            elif isinstance(item, int) and item in word:
                total += float(item)
            else:
                result = (total + c if c and isfinite(c) else total) + item
                break
        else:
            return total + c if c and isfinite(c) else total
    for item in items:
        result = result + item
    return result



def _below(margin: float, best: float) -> bool:
    """Whether ``margin`` replaces ``best``, the lowest margin so far: it is
    lower, or it is the first NaN, which fails its check."""
    return margin < best or (isnan(margin) and not isnan(best))


def _worst(best: tuple[float, str], margin: float, detail: str,
           args: tuple) -> tuple[float, str]:
    """``(margin, detail.format(*args))`` if ``margin`` replaces ``best``'s
    (:func:`_below`), else ``best``: the first strict minimum of the
    margins offered in order, or the first NaN."""
    return (margin, detail.format(*args)) if _below(margin, best[0]) else best


def _payload(unit, total: Total) -> float:
    """``DeliveryUnit.payload_rate``, a concatenation's rates summed by ``total``."""
    if unit.combine == "xor":
        return unit.part_rates[0] if unit.part_rates else 0.0
    return total(unit.part_rates)


def cache_usage_with(plan, D: int, total: Total) -> dict[int, float]:
    """``cache_usage``, each receiver's atom costs summed by ``total``."""
    return {r: total([a.cache_cost(D) for a in atoms])
            for r, atoms in plan.placement.items()}


def verify_plan_explicit(plan: SchemePlan, s: ChannelScenario, *,
                         total: Total) -> VerificationReport:
    """``verify_plan`` as it was before plans carried orbits: every check
    runs over every segment, unit and receiver, and every sum is ``total``
    of its terms in schedule order (``legacy`` is the verifier before its
    sums were exact, ``exact`` an exact full scan, which raises where
    :func:`math.fsum` does).

    Run the four plan checks; never raises, reports margins.

    RATE     every segment/receiver decode load strictly below capacity
    DECODE   cache + peeled deliveries tile each demanded message, and
             no XOR merges two contributions under any demand
    SECRECY  per segment, keys + bins cover min(payload, eavesdropper
             capacity) up to 1e-12
    CACHE    per-receiver occupancy within the claimed memory + 1e-12
    """
    checks: list[CheckResult] = []

    # RATE
    rate_margin = float("inf")
    rate_detail = ""
    frac_sum = total([seg.fraction for seg in plan.schedule])
    for seg in plan.schedule:
        addends: dict[int, list[float]] = {}
        for unit in seg.units:
            for r, load in unit.decode_load.items():
                addends.setdefault(r, []).append(load)
        for r, terms in addends.items():
            load = total(terms)
            capacity = seg.fraction * (1.0 - s.erasure_of(r))
            margin = capacity - load
            if _below(margin, rate_margin):
                rate_margin = margin
                rate_detail = (
                    f"segment {seg.id}, receiver {r}: load {load:.6g} vs "
                    f"capacity {capacity:.6g}"
                )
    frac_ok = abs(frac_sum - 1.0) <= 1e-12
    checks.append(
        CheckResult(
            "RATE",
            rate_margin > 0.0 and frac_ok,
            rate_margin,
            rate_detail if frac_ok else f"fractions sum to {frac_sum}",
        )
    )

    # DECODE
    decode_ok = True
    decode_detail = ""
    delivered_to = deliveries(plan)
    for r in range(1, s.K + 1):
        have = plan.cached_labels(r) | plan.virtual_cached.get(r, frozenset())
        delivered = delivered_to.get(r, {})
        rates = []
        for label, rate in plan.message_parts.get(r, ()):
            if label in have or label in delivered:
                rates.append(rate)
            else:
                decode_ok = False
                decode_detail = f"receiver {r} cannot obtain part {label!r}"
                break
        if not decode_ok:
            break
        reassembled = total(rates)
        if abs(reassembled - plan.claimed_point.R) > RATE_TOL:
            decode_ok = False
            decode_detail = (
                f"receiver {r} reassembles rate {reassembled!r}, "
                f"claimed {plan.claimed_point.R!r}"
            )
            break
    if decode_ok:
        # Within one XOR the (message, label) pairs must stay distinct, else
        # contributions merge.  A repeated label merges under the all-ones
        # demand (every slot asks for file 1); distinct labels never do.
        for seg in plan.schedule:
            if any(
                unit.combine == "xor"
                and len({label for _, label in unit.parts}) < len(unit.parts)
                for unit in seg.units
            ):
                decode_ok = False
                decode_detail = (
                    f"demand {(1,) * s.K}: merged contributions in segment "
                    f"{seg.id}"
                )
                break
    checks.append(CheckResult("DECODE", decode_ok, 0.0, decode_detail))

    # SECRECY
    sec_margin = float("inf")
    sec_detail = ""
    for seg in plan.schedule:
        payloads, securings = [], []
        for unit in seg.units:
            payloads.append(_payload(unit, total))
            securings.append(unit.bin_rate)
            for k in unit.pad_keys + unit.jam_keys:
                securings.append(plan.key_rates[k])
        payload, securing = total(payloads), total(securings)
        required = min(payload, seg.fraction * (1.0 - s.delta_z))
        margin = securing - required
        if _below(margin, sec_margin):
            sec_margin = margin
            sec_detail = (
                f"segment {seg.id}: securing {securing:.6g} vs required "
                f"{required:.6g}"
            )
    checks.append(
        CheckResult("SECRECY", sec_margin >= -RATE_TOL, sec_margin, sec_detail)
    )

    # CACHE
    usage = cache_usage_with(plan, s.D, total)
    cache_margin = float("inf")
    cache_detail = ""
    for r in range(1, s.K + 1):
        claim = (
            plan.claimed_point.M_w if r <= s.K_w else plan.claimed_point.M_s
        )
        margin = claim - usage.get(r, 0.0)
        if _below(margin, cache_margin):
            cache_margin = margin
            cache_detail = (
                f"receiver {r}: usage {usage.get(r, 0.0):.6g} vs claimed "
                f"{claim:.6g}"
            )
    checks.append(
        CheckResult("CACHE", cache_margin >= -RATE_TOL, cache_margin, cache_detail)
    )
    return VerificationReport(checks)


class _ClassView(NamedTuple):
    """The parts of a plan that :func:`deliveries` and :func:`cache_usage_with`
    read, restricted to the class representatives."""

    placement: dict[int, tuple[Atom, ...]]
    schedule: tuple[DeliverySegment, ...]
    message_parts: dict[int, tuple[tuple[str, float], ...]]
    virtual_cached: dict[int, frozenset]


def _slot_members(orb, reps: frozenset):
    """The members of orbit ``orb`` whose units may give a receiver of
    ``reps`` a slot.  In an XOR orbit, whose first member's units are XORs
    with every slot among the member's ids (a coded-caching XOR over a
    subset, or a row and a column over a pair), these are the members
    that contain one of ``reps``; in any other orbit, every member."""
    first = next(iter(orb.members))
    if type(first) is tuple and all(
            unit.combine == "xor" and {r for r, _ in unit.parts} <= set(first)
            for unit in orb.units(first)):
        return [m for m in orb.members if not reps.isdisjoint(m)]
    return orb.members


def _class_view(plan: SchemePlan) -> tuple[_ClassView, tuple[int, ...]]:
    """What DECODE and CACHE read, and the receivers they check: the class
    representatives with their atoms (from the expanded placement), their
    message parts and the units that hand them a part (a part at a
    representative's slot), in one segment, built from the members
    :func:`_slot_members` keeps.  Every bit of :func:`deliveries` concerns
    one receiver, so the view gives the representatives their own
    deliveries."""
    po = plan.orbits
    reps = po.representatives
    rep_set = frozenset(reps)
    units = tuple(
        u for orb in po.orbits for m in _slot_members(orb, rep_set) for u in orb.units(m)
        if not rep_set.isdisjoint(r for r, _ in u.parts)
    )
    view = _ClassView(
        {r: plan.placement[r] for r in reps if r in plan.placement},
        (DeliverySegment((), 0.0, units),),
        {r: plan.message_parts[r] for r in reps if r in plan.message_parts},
        {r: plan.virtual_cached[r] for r in reps if r in plan.virtual_cached},
    )
    return view, reps


def verify_plan_class_view(plan: SchemePlan, s: ChannelScenario, *,
                           total: Total) -> VerificationReport:
    """``verify_plan`` as it was before DECODE peeled one member per
    sub-orbit of each representative: DECODE peels every unit that hands
    a representative a part (:func:`_class_view`), and every sum is
    ``total`` of its terms in schedule order, as in
    :func:`verify_plan_explicit`.

    Run the four plan checks; never raises, reports margins.

    RATE     every segment/receiver decode load strictly below capacity
    DECODE   cache + peeled deliveries tile each demanded message, and
             no XOR merges two contributions under any demand
    SECRECY  per segment, keys + bins cover min(payload, eavesdropper
             capacity) up to 1e-12
    CACHE    per-receiver occupancy within the claimed memory + 1e-12

    A plan is checked one orbit (:class:`PlanOrbits`) at a time, without
    expanding it.  One pass per segment orbit, over its first member's
    units, adds the RATE loads and the SECRECY payload and securing, and
    runs the XOR-merge rule; the fraction sum, and a segment's sums over
    an orbit of its units, still take every member's terms in schedule
    order, so margins are those of a full scan.  One pass per receiver
    class, on its lowest-numbered receiver, checks the DECODE tiling and
    CACHE.
    Details name the first strict minimum in schedule and receiver order,
    as a full scan does.  A plan that claims no symmetry, such as a
    changed plan, has every segment and every receiver as its own orbit
    and class, so all of them are checked.
    """
    rate = sec = cache = (float("inf"), "")
    fractions = []
    merged = None  # the first segment whose XOR repeats a label
    for orb in plan.orbits.orbits:
        first = next(iter(orb.members))
        block = orb.units(first)
        if orb.one_segment:
            seg_id, count, times = (orb.phase, 0), 1, len(orb.members)
        else:
            seg_id, count, times = (orb.phase, first), len(orb.members), 1
        fractions += [orb.fraction] * count
        addends: dict[int, list[float]] = {}
        payloads, securings = [], []
        for _ in range(times):
            for unit in block:
                for r, load in unit.decode_load.items():
                    addends.setdefault(r, []).append(load)
                payloads.append(_payload(unit, total))
                securings.append(unit.bin_rate)
                for k in unit.pad_keys + unit.jam_keys:
                    securings.append(plan.key_rates[k])
        loads = {r: total(terms) for r, terms in addends.items()}
        payload, securing = total(payloads), total(securings)
        for r, load in loads.items():
            capacity = orb.fraction * (1.0 - s.erasure_of(r))
            rate = _worst(rate, capacity - load, "segment {}, receiver {}: load "
                          "{:.6g} vs capacity {:.6g}", (seg_id, r, load, capacity))
        required = min(payload, orb.fraction * (1.0 - s.delta_z))
        sec = _worst(sec, securing - required, "segment {}: securing {:.6g} vs "
                     "required {:.6g}", (seg_id, securing, required))
        # Within one XOR the (message, label) pairs must stay distinct, else
        # contributions merge.  A repeated label merges under the all-ones
        # demand (every slot asks for file 1); distinct labels never do.
        if merged is None and any(
            unit.combine == "xor"
            and len({label for _, label in unit.parts}) < len(unit.parts)
            for unit in block
        ):
            merged = seg_id

    decode = ""  # the first failure's detail
    point = plan.claimed_point
    view, receivers = _class_view(plan)
    delivered_to = deliveries(view)
    usage = cache_usage_with(view, s.D, total)
    for r in receivers:
        if not decode:
            have = {a.label for a in view.placement.get(r, ())}
            have |= view.virtual_cached.get(r, frozenset())
            delivered = delivered_to.get(r, {})
            rates = []
            for label, part_rate in view.message_parts.get(r, ()):
                if label not in have and label not in delivered:
                    decode = f"receiver {r} cannot obtain part {label!r}"
                    break
                rates.append(part_rate)
            else:
                reassembled = total(rates)
                if abs(reassembled - point.R) > RATE_TOL:
                    decode = (f"receiver {r} reassembles rate {reassembled!r}, "
                              f"claimed {point.R!r}")
        claim = point.M_w if r <= s.K_w else point.M_s
        used = usage.get(r, 0.0)
        cache = _worst(cache, claim - used, "receiver {}: usage {:.6g} vs claimed "
                       "{:.6g}", (r, used, claim))
    if not decode and merged is not None:
        decode = f"demand {(1,) * s.K}: merged contributions in segment {merged}"

    frac_sum = total(fractions)
    frac_ok = abs(frac_sum - 1.0) <= 1e-12
    return VerificationReport([
        CheckResult("RATE", rate[0] > 0.0 and frac_ok, rate[0],
                    rate[1] if frac_ok else f"fractions sum to {frac_sum}"),
        CheckResult("DECODE", not decode, 0.0, decode),
        CheckResult("SECRECY", sec[0] >= -RATE_TOL, *sec),
        CheckResult("CACHE", cache[0] >= -RATE_TOL, *cache),
    ])


def _eager_family(prefix: str, ids, size: int) -> dict[tuple[int, ...], str]:
    """The ``size``-subsets of ``ids`` in lexicographic order, each mapped to
    its label ``prefix[ids]``, every label formatted up front."""
    ids = sorted(ids)
    names = itertools.combinations([str(i) for i in ids], size)
    return {
        G: f"{prefix}[{','.join(name)}]"
        for G, name in zip(itertools.combinations(ids, size), names)
    }


def eager_labels(prefix: str, *blocks, outer_last: bool = False) -> dict[tuple[int, ...], str]:
    """A label family as the subset builders built it before families were
    lazy, every label formatted up front: one block is the lexicographic
    subset family; two blocks with ``outer_last`` are the keyed piggyback's
    K3 dict (per subset G of the second block, each combination j of the
    first, labelled ``prefix[j,G]``); two blocks otherwise are
    ``symmetric-piggyback``'s pair dicts, over combinations of each
    block."""
    if len(blocks) == 1:
        ((ids, size),) = blocks
        return _eager_family(prefix, ids, size)
    (first, k), (second, m) = blocks
    if outer_last:
        heads = [(j, f"{prefix}[{','.join(map(str, j))},")
                 for j in itertools.combinations(first, k)]
        return {j + G: head + label[1:]
                for G, label in _eager_family("", second, m).items() for j, head in heads}
    return {i + j: f"{prefix}[{','.join(map(str, i + j))}]"
            for i in itertools.combinations(first, k) for j in itertools.combinations(second, m)}


class EagerFamily(dict):
    """``schemes.Family`` as a dict of every label (:func:`eager_labels`),
    with the attributes the builders and the verifier read: a lookup by
    ids is a dict lookup.  Building with ``schemes.Family`` replaced by
    this class gives each plan as the builders gave it before families
    were lazy: the K3 family is the K3 dict, weak subset by weak subset,
    whatever order the builder asks for.  Its orbits are no
    ``schemes.Family``, so such a plan verifies in full."""

    def __init__(self, prefix: str, *blocks, outer_last: bool = False):
        super().__init__(eager_labels(prefix, *blocks, outer_last=prefix == "K3"))
        self.prefix, self.blocks, self.outer_last = prefix, blocks, outer_last
        self.label = self

    def has(self, label: str, ids) -> bool:
        return self.get(ids) == label


def regime_claim_dict(claim: RegimeClaim) -> dict:
    """``RegimeClaim.to_dict`` with every field listed by hand."""
    return {
        "name": claim.name,
        "applicable": claim.applicable,
        "description": claim.description,
        # an unbounded end is null: strict JSON has no Infinity
        "interval": None if claim.interval is None else [
            None if isinf(v) else v for v in claim.interval
        ],
        "max_deviation": claim.max_deviation,
        "exact": claim.exact,
        "note": claim.note,
    }


def upper_bound_dict(rep: UpperBoundReport) -> dict:
    """``UpperBoundReport.to_dict`` with every field listed by hand."""
    return {
        "value": rep.value,
        "family": rep.family.value,
        "k_w": rep.k_w,
        "k_s": rep.k_s,
        "beta_witness": None
        if rep.beta_witness is None
        else list(rep.beta_witness),
    }


def regime_report_dict(rep: RegimeReport) -> dict:
    """``RegimeReport.to_dict`` over :func:`regime_claim_dict`."""
    return {"claims": [regime_claim_dict(c) for c in rep.claims], "notes": rep.notes}


def _certify(points, lower_fn, uppers, reference_fn):
    """Largest deviation of the lower bound from the precomputed upper
    values at ``points`` and from the claimed closed form."""
    dev = 0.0
    for x, up in zip(points, uppers):
        lo = lower_fn(x)
        dev = max(dev, abs(lo - up), abs(lo - reference_fn(x)))
    return dev


def _weak_only_upper(s: ChannelScenario, xs: list[float]) -> list[float]:
    """The converse at ``(m, 0)`` for every ``m`` of ``xs``, in one call."""
    return [rep.value for rep in bounds.ub_best_grid(s, [CacheSizes(m, 0.0) for m in xs])]


#: Points per claimed interval, fixed here so that a change to
#: ``tradeoff.CERTIFY_SAMPLES`` shows in the parity test.
CERTIFY_SAMPLES = 11


def _family_or_empty(family, s: ChannelScenario) -> list[RateMemoryPoint]:
    try:
        return family(s)
    except NotApplicable:
        return []


def exact_regimes_reference(s: ChannelScenario) -> RegimeReport:
    """``tradeoff.exact_regimes`` as one sample, compare and append block
    per claim.  Certify each regime where lower and upper bounds provably
    meet.

    Every claim is re-verified numerically within 1e-9 at
    ``CERTIFY_SAMPLES`` evenly spaced points, both ends included, before
    being reported exact; mismatches are reported with their maximal
    deviation, never clamped.
    """
    rep = RegimeReport()
    lower = Tradeoff(s)
    weak = _family_or_empty(points_weak_only_reference, s)
    all_cached = _family_or_empty(points_all_cached_reference, s)
    if s.delta_z <= s.delta_s:
        rep.notes.append(
            "weak-only results gated off: delta_z <= delta_s, so caches at "
            "weak receivers alone sustain no positive secrecy rate"
        )
        if s.K_w >= 1:
            rep.claims.append(
                RegimeClaim(
                    name="weak-only-zero",
                    applicable=True,
                    description="with M_s = 0 the secrecy capacity is 0",
                    exact=True,
                    note="delta_z <= delta_s",
                )
            )

    def grid(a: float, b: float) -> list[float]:
        n = CERTIFY_SAMPLES - 1
        return [a + (b - a) * i / n for i in range(CERTIFY_SAMPLES)]

    if weak:
        pts = {p.label: p for p in weak}
        slope = corners.weak_only_max_slope(s)
        r0 = zero_cache_capacity(s)
        m1 = pts["cached-keys"].M_w
        xs = grid(0.0, m1)
        dev = _certify(
            xs,
            lambda m: hull.eval_hull_1d(lower.weak_curve, m),
            _weak_only_upper(s, xs),
            lambda m: r0 + slope * m,
        )
        rep.claims.append(
            RegimeClaim(
                name="weak-only-small-memory",
                applicable=True,
                description="keys-only placement is optimal; the shared "
                "value is R(0) + slope * M_w",
                interval=(0.0, m1),
                max_deviation=dev,
                exact=dev <= 1e-9,
            )
        )
        if "piggyback-two" in pts:
            m_top = pts["piggyback-two"].M_w
            m_lib = pts["full-library"].M_w
            flat = (s.delta_z - s.delta_s) / s.K_s
            xs = grid(m_top, max(2.0 * m_lib, m_top + 1.0))
            dev = _certify(
                xs,
                lambda m: hull.eval_hull_1d(lower.weak_curve, m),
                _weak_only_upper(s, xs),
                lambda m: flat,
            )
            rep.claims.append(
                RegimeClaim(
                    name="weak-only-large-memory",
                    applicable=True,
                    description="capacity saturates at (dz-ds)/K_s",
                    interval=(m_top, float("inf")),
                    max_deviation=dev,
                    exact=dev <= 1e-9,
                )
            )
    else:
        rep.claims.append(
            RegimeClaim(
                name="weak-only-small-memory",
                applicable=False,
                description="not applicable: delta_z <= delta_s or K_w = 0",
            )
        )

    keys_pt = next((p for p in all_cached if p.label == "all:cached-keys"), None)
    if all_cached and keys_pt is None:
        rep.claims.append(
            RegimeClaim(
                name="all-cached-keys-point",
                applicable=False,
                description="not applicable: delta_w = delta_s = 1 leaves "
                "no cached-keys point",
            )
        )
    if keys_pt is not None:
        lo = lower.surface(keys_pt.M_w, keys_pt.M_s)
        up = bounds.ub_best(s, CacheSizes(keys_pt.M_w, keys_pt.M_s)).value
        dev = max(abs(lo - up), abs(lo - keys_pt.R))
        rep.claims.append(
            RegimeClaim(
                name="all-cached-keys-point",
                applicable=True,
                description="the all-receiver cached-keys triple is optimal",
                interval=(keys_pt.M_w, keys_pt.M_s),
                max_deviation=dev,
                exact=dev <= 1e-9,
                note="interval field holds the (M_w, M_s) query point",
            )
        )

        if weak:
            # the weak-only small-memory line (r0, slope above) per unit of budget
            end = s.K_w * pts["cached-keys"].M_w
            ref = lambda m: r0 + slope / s.K_w * m
        else:
            end = s.K * keys_pt.R
            ref = lambda m: m / s.K
        xs = grid(0.0, end)
        dev = _certify(
            xs,
            lambda m: hull.eval_hull_1d(lower.global_curve, m),
            [bounds.ub_global(s, m) for m in xs],
            ref,
        )
        rep.claims.append(
            RegimeClaim(
                name="global-small-budget",
                applicable=True,
                description="global tradeoff is exact for small budgets",
                interval=(0.0, end),
                max_deviation=dev,
                exact=dev <= 1e-9,
            )
        )
    return rep


# ---------------------------------------------------------------------------
# Corner families, one RateMemoryPoint at a time
# ---------------------------------------------------------------------------
# The scalar closed forms as secache.corners evaluated them before its
# families became columns, kept verbatim (names suffixed ``_reference``):
# the columns must equal these points bit for bit, in the same order with
# the same skips.

def _skip_overflow_reference(closed_form):
    """``closed_form(...)`` returns ``(R, M_w, M_s, label)``, or None where
    it has no point; the decorated form returns the point, or None also
    where the closed form overflows (see ``secache.corners``' docstring)."""

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


def _require_eavesdropper_weaker_than_strong_reference(s: ChannelScenario) -> None:
    if s.delta_z <= s.delta_s:
        raise NotApplicable(
            "weak-only cache results require delta_z > delta_s "
            f"(got delta_z={s.delta_z}, delta_s={s.delta_s}); this gate is "
            "intentional: with delta_z <= delta_s the weak-only formulas "
            "turn nonpositive and the all-cached family covers the regime"
        )

def points_weak_only_reference(s: ChannelScenario) -> list[RateMemoryPoint]:
    """The K_w + 4 corner points with caches at weak receivers only.

    Requires ``delta_z > delta_s`` and ``K_w >= 1``.  Order: no-cache,
    cached-keys, superposition-jamming, piggyback-one for t = 1..K_w-1,
    piggyback-two, full-library.
    """
    _require_eavesdropper_weaker_than_strong_reference(s)
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

def points_separate_reference(s: ChannelScenario) -> list[RateMemoryPoint]:
    """Weak-only points achievable by separate cache-channel coding.

    The t-indexed family below plus the four reused corner points
    (no-cache, cached-keys, superposition-jamming, full-library).
    """
    _require_eavesdropper_weaker_than_strong_reference(s)
    if s.K_w < 1:
        raise NotApplicable("separate-coding family needs K_w >= 1")
    return separate_from_weak_only_reference(s, points_weak_only_reference(s))


def separate_from_weak_only_reference(
    s: ChannelScenario, weak: list[RateMemoryPoint]
) -> list[RateMemoryPoint]:
    """:func:`points_separate_reference` from the weak-only points ``weak`` of ``s``
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

@_skip_overflow_reference
def _generalized_point_reference(s: ChannelScenario, t: int, memory_rule: str):
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

def points_all_cached_reference(
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
    if memory_rule not in corners.GENERALIZED_MEMORY_RULES:
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
        pts += filter(None, (_generalized_point_reference(s, t, memory_rule) for t in range(1, s.K)))
    return pts

@_skip_overflow_reference
def _coded_symmetric_point_reference(s: ChannelScenario, t: int):
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


def points_symmetric_reference(s: ChannelScenario) -> list[RateMemoryPoint]:
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

    pts += filter(None, (_coded_symmetric_point_reference(s, t) for t in range(1, Ks)))

    for t in range(Ks, K):  # t = K divides by zero; excluded
        rate = (t + 1) * (1 - dw) / (K - t)
        mem = D * t * (t + 1) * (1 - dw) / (K * (K - t)) + (t + 1) * mzw / K
        pts.append(RateMemoryPoint(rate, mem, mem, f"sym[{t + 1}]"))
    return pts
