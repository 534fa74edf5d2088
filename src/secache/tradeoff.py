"""Assembled tradeoff curves, budget optimisation, exactness detection.

Lower bounds come from hulls over the corner-point families; upper bounds
from the converse module.  :func:`exact_regimes` numerically certifies
the regimes where the two provably meet.  Whether a family applies is
decided only in :mod:`corners`, whose gates raise ``NotApplicable``.  A
:class:`Tradeoff` holds one scenario's families and hulls, each built
once; every curve, surface and regime report is a query of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isinf

from . import bounds, corners, hull
from .errors import NotApplicable
from .model import CacheSizes, ChannelScenario, Corners, zero_cache_capacity


def _family(name: str) -> cached_property:
    """A cached property: ``corners.<name>(s)``, the family's records, or
    the ``NotApplicable`` with which :mod:`corners` gates the family off
    (every gate raises at the top of its family).  The family is looked up
    when first used, so a patched or traced one is the one called."""

    def evaluate(self) -> list[Corners] | NotApplicable:
        try:
            return getattr(corners, name)(self.s)
        except NotApplicable as gate:
            return gate

    return cached_property(evaluate)


def _available(family) -> list[Corners]:
    """A family's records; none where it is gated off."""
    return [] if isinstance(family, NotApplicable) else family


def _required(family) -> list[Corners]:
    """A family's records; where it is gated off, its ``NotApplicable``
    raised again (with a fresh traceback, so repeats do not grow it)."""
    if isinstance(family, NotApplicable):
        raise family.with_traceback(None)
    return family


def _m_w_hull(records: list[Corners]) -> hull.Curve1D:
    """Hull of ``records`` over M_w; the zero curve when there are none."""
    return (hull.upper_hull_1d(records, [c.M_w for c in records]) if records
            else hull.upper_hull_1d([(0.0, 0.0)]))


class Tradeoff:
    """The lower bounds of one scenario.  Each corner family's columns are
    evaluated at most once and each hull built at most once, on first use.

    A hull that merely includes a gated family takes no points from it; a
    hull that rests on one raises the family's ``NotApplicable``.
    """

    def __init__(self, s: ChannelScenario):
        self.s = s

    _weak_only = _family("weak_only_corners")
    _all_cached = _family("all_cached_corners")
    _symmetric = _family("symmetric_corners")

    @cached_property
    def weak_curve(self) -> hull.Curve1D:
        """Hull of the weak-only points over M_w; the zero curve where
        that family is gated off."""
        return _m_w_hull(_available(self._weak_only))

    @cached_property
    def separate_curve(self) -> hull.Curve1D:
        """Hull over M_w of the separate-coding points, derived from the
        weak-only ones (the two families share one gate)."""
        return _m_w_hull(corners.separate_from_weak_only(self.s, _required(self._weak_only)))

    @cached_property
    def surface(self) -> hull.Surface:
        """The mixture LP over the all-cached triples, augmented with the
        weak-only points whenever they exist (they remain valid with
        M_s = 0): call it with (M_w, M_s)."""
        return hull.Surface(_required(self._all_cached) + _available(self._weak_only))

    @cached_property
    def global_curve(self) -> hull.Curve1D:
        """Hull over total budget of every family's points (see
        :func:`global_curve`)."""
        s = self.s
        none, weak = [corners.no_cache(s)], _available(self._weak_only)
        cached, sym = _available(self._all_cached), _available(self._symmetric)
        return hull.upper_hull_1d(none + weak + cached + sym, [c.M_w for c in none]
                                  + [s.K_w * c.M_w for c in weak]
                                  + [s.K_w * c.M_w + s.K_s * c.M_s for c in cached]
                                  + [s.K * c.M_w for c in sym])

    @cached_property
    def uniform_curve(self) -> hull.Curve1D:
        """Symmetric-assignment hull, x-axis rescaled to total budget."""
        sym = _required(self._symmetric)
        return hull.upper_hull_1d(sym, [self.s.K * c.M_w for c in sym])


def weak_only_curve(s: ChannelScenario) -> hull.Curve1D:
    """Hull of the weak-only corner points (M_s = 0 throughout), or the zero
    curve where the family does not apply (``delta_z <= delta_s`` or K_w = 0)."""
    return Tradeoff(s).weak_curve


def lower_curve_weak_only(s: ChannelScenario, M_w: float) -> float:
    """Achievable rate with cache M_w at weak receivers, none at strong
    (0 where the weak-only family does not apply)."""
    return hull.eval_hull_1d(Tradeoff(s).weak_curve, M_w)


def separate_curve(s: ChannelScenario) -> hull.Curve1D:
    return Tradeoff(s).separate_curve


def lower_surface_all(s: ChannelScenario, M_w: float, M_s: float) -> float:
    """Achievable rate with caches (M_w, M_s) at weak/strong receivers
    (one query of :attr:`Tradeoff.surface`)."""
    return Tradeoff(s).surface(M_w, M_s)


def global_curve(s: ChannelScenario) -> hull.Curve1D:
    """Hull over total budget M_tot = K_w M_w + K_s M_s of all families.

    Every achievable triple maps to the budget it consumes; the symmetric
    family is included as well (uniform assignment is one feasible way to
    spend the budget, and at some parameters its coded-caching points beat
    the other families).
    """
    return Tradeoff(s).global_curve


def lower_global(s: ChannelScenario, M_tot: float) -> float:
    """Achievable rate with total cache budget M_tot, freely assigned."""
    return hull.eval_hull_1d(Tradeoff(s).global_curve, M_tot)


def uniform_curve(s: ChannelScenario) -> hull.Curve1D:
    """Symmetric-assignment hull, x-axis rescaled to total budget."""
    return Tradeoff(s).uniform_curve


def lower_uniform(s: ChannelScenario, M_tot: float) -> float:
    """Achievable rate when the budget is split equally over all K
    receivers (M_w = M_s = M_tot / K)."""
    return hull.eval_hull_1d(Tradeoff(s).uniform_curve, M_tot)


@dataclass
class RegimeClaim:
    """One numerically certified exactness claim."""

    name: str
    applicable: bool
    description: str
    interval: tuple[float, float] | None = None
    max_deviation: float | None = None
    exact: bool | None = None
    note: str = ""

    def to_dict(self) -> dict:
        d = dict(vars(self))
        if self.interval is not None:
            # an unbounded end is null: strict JSON has no Infinity
            d["interval"] = [None if isinf(v) else v for v in self.interval]
        return d


@dataclass
class RegimeReport:
    claims: list[RegimeClaim] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"claims": [c.to_dict() for c in self.claims], "notes": self.notes}


#: Points per claimed interval at which :func:`exact_regimes` re-checks a claim.
CERTIFY_SAMPLES = 11


def exact_regimes(s: ChannelScenario) -> RegimeReport:
    """Certify each regime where lower and upper bounds provably meet.

    A claim is reported exact when the lower bound stays within 1e-9 of
    the converse and of the claimed closed form; a mismatch is reported
    with its maximal deviation, never clamped.  ``all-cached-keys-point``
    is checked at its one query point.  The interval claims are checked
    at ``CERTIFY_SAMPLES`` evenly spaced points, both ends included;
    ``weak-only-large-memory`` claims (m_top, inf) but is sampled only up
    to max(2 m_lib, m_top + 1).
    """
    rep = RegimeReport()
    lower = Tradeoff(s)
    weak = _available(lower._weak_only)
    all_cached = _available(lower._all_cached)

    def certify(name, description, interval, deviations, note=""):
        # max keeps its first NaN and drops any later one
        dev = max(deviations)
        rep.claims.append(RegimeClaim(name, True, description, interval, dev, dev <= 1e-9, note))

    def samples(a, b):
        n = CERTIFY_SAMPLES - 1
        return [a + (b - a) * i / n for i in range(CERTIFY_SAMPLES)]

    def sampled(curve, xs, upper, reference):
        """0.0, then the lower bound's deviation from ``upper`` and from
        ``reference`` at each sample ``xs``."""
        yield 0.0
        for x, up in zip(xs, upper):
            lo = hull.eval_hull_1d(curve, x)
            yield abs(lo - up)
            yield abs(lo - reference(x))

    # the converse at every weak-only sample (M_s = 0) and at the
    # all-cached-keys point, in one call
    grids = []
    if weak:
        pts = {c.name: c for c in weak}
        m1 = float(pts["cached-keys"].M_w[0])
        grids.append(samples(0.0, m1))
        if "piggyback-two" in pts:
            m_top = float(pts["piggyback-two"].M_w[0])
            m_lib = float(pts["full-library"].M_w[0])
            grids.append(samples(m_top, max(2.0 * m_lib, m_top + 1.0)))
    keys = next((c for c in all_cached if c.name == "all:cached-keys"), None)
    caches = [CacheSizes(m, 0.0) for xs in grids for m in xs]
    if keys is not None:
        r_k, mw_k, ms_k = (float(v[0]) for v in (keys.R, keys.M_w, keys.M_s))
        caches.append(CacheSizes(mw_k, ms_k))
    upper = [r.value for r in bounds.ub_best_grid(s, caches)]

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

    if weak:
        slope = corners.weak_only_max_slope(s)
        r0 = zero_cache_capacity(s)
        certify(
            "weak-only-small-memory",
            "keys-only placement is optimal; the shared value is R(0) + slope * M_w",
            (0.0, m1),
            sampled(lower.weak_curve, grids[0], upper[:CERTIFY_SAMPLES],
                    lambda m: r0 + slope * m),
        )
        if len(grids) > 1:
            flat = (s.delta_z - s.delta_s) / s.K_s
            certify(
                "weak-only-large-memory",
                "capacity saturates at (dz-ds)/K_s",
                (m_top, float("inf")),
                sampled(lower.weak_curve, grids[1], upper[CERTIFY_SAMPLES:],
                        lambda m: flat),
            )
    else:
        rep.claims.append(
            RegimeClaim(
                name="weak-only-small-memory",
                applicable=False,
                description="not applicable: delta_z <= delta_s or K_w = 0",
            )
        )

    if all_cached and keys is None:
        rep.claims.append(
            RegimeClaim(
                name="all-cached-keys-point",
                applicable=False,
                description="not applicable: delta_w = delta_s = 1 leaves "
                "no cached-keys point",
            )
        )
    if keys is not None:
        lo = lower.surface(mw_k, ms_k)
        certify(
            "all-cached-keys-point",
            "the all-receiver cached-keys triple is optimal",
            (mw_k, ms_k),
            (abs(lo - upper[-1]), abs(lo - r_k)),
            note="interval field holds the (M_w, M_s) query point",
        )

        if weak:
            # the weak-only small-memory line (r0, slope above) per unit of budget
            end = s.K_w * m1
            ref = lambda m: r0 + slope / s.K_w * m
        else:
            end = s.K * r_k
            ref = lambda m: m / s.K
        xs = samples(0.0, end)
        certify(
            "global-small-budget",
            "global tradeoff is exact for small budgets",
            (0.0, end),
            sampled(lower.global_curve, xs, [bounds.ub_global(s, m) for m in xs], ref),
        )
    return rep
