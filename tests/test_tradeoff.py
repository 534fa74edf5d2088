from collections import Counter

import pytest

from secache import (
    CacheSizes,
    ChannelScenario,
    NotApplicable,
    Tradeoff,
    exact_regimes,
    lower_curve_weak_only,
    lower_global,
    lower_surface_all,
    lower_uniform,
    points_symmetric,
    ub_best,
    ub_global,
    zero_cache_capacity,
)
from secache import corners
from secache.cli import PRESETS
from secache.hull import eval_hull_1d
from secache.tradeoff import global_curve, uniform_curve, weak_only_curve


def test_weak_only_small_memory_segment(fig3):
    # exact linear segment: R(0) + 0.625 M on [0, M^(1)]
    m1 = 0.1 / 7
    for i in range(11):
        m = m1 * i / 10
        assert lower_curve_weak_only(fig3, m) == pytest.approx(
            0.0125 + 0.625 * m, abs=1e-12
        )


def test_weak_only_flat_tail(fig3):
    assert lower_curve_weak_only(fig3, 0.5) == pytest.approx(1 / 30, abs=1e-12)
    assert lower_curve_weak_only(fig3, 39 / 82.5) == pytest.approx(1 / 30, abs=1e-12)


def test_weak_only_slope_one_regime(fig4):
    assert lower_curve_weak_only(fig4, 0.005) == pytest.approx(0.005, abs=1e-12)


def test_weak_only_gate_returns_zero():
    s = ChannelScenario(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.2, D=30)
    assert lower_curve_weak_only(s, 0.3) == 0.0
    no_weak = ChannelScenario(K_w=0, K_s=3, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=6)
    for gated in (s, no_weak):
        curve = weak_only_curve(gated)
        for m in (0.0, 0.5, 10.0):
            assert eval_hull_1d(curve, m) == 0.0


@pytest.mark.parametrize("name", ["fig3", "fig5", "eavesdropper-strongest"])
def test_exact_regimes_evaluates_each_family_once(name, monkeypatch):
    scenarios = {
        "fig3": PRESETS["fig3"],
        "fig5": PRESETS["fig5"],
        "eavesdropper-strongest": dict(K_w=2, K_s=3, delta_w=0.7, delta_s=0.4,
                                       delta_z=0.2, D=10),
    }
    calls = Counter()

    def counted(family):
        def wrapper(*args, **kwargs):
            calls[family.__name__] += 1
            return family(*args, **kwargs)
        return wrapper

    for family in (corners.weak_only_corners, corners.all_cached_corners,
                   corners.symmetric_corners):
        monkeypatch.setattr(corners, family.__name__, counted(family))
    exact_regimes(ChannelScenario(**scenarios[name]))
    assert calls and max(calls.values()) == 1, calls


def test_tradeoff_raises_a_gated_family_from_its_one_evaluation(monkeypatch):
    """With K_w = 0 every family is gated off. The hulls resting on one
    raise its own NotApplicable on every access; the rest still build."""
    calls = Counter()
    for name in ("weak_only_corners", "all_cached_corners", "symmetric_corners"):
        def counted(*args, family=getattr(corners, name), **kwargs):
            calls[family.__name__] += 1
            return family(*args, **kwargs)
        monkeypatch.setattr(corners, name, counted)
    s = ChannelScenario(K_w=0, K_s=3, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=6)
    lower = Tradeoff(s)
    for _ in range(2):
        with pytest.raises(NotApplicable, match="weak-only family"):
            lower.separate_curve
        with pytest.raises(NotApplicable, match="all-cached family"):
            lower.surface
        with pytest.raises(NotApplicable, match="symmetric family"):
            lower.uniform_curve
    assert lower.weak_curve.vertices == ((0.0, 0.0),)
    assert lower.global_curve.vertices == ((0.0, zero_cache_capacity(s)),)
    assert calls == {"weak_only_corners": 1, "all_cached_corners": 1, "symmetric_corners": 1}


def test_surface_at_keys_point(fig3):
    assert lower_surface_all(fig3, 0.0175, 0.0075) == pytest.approx(
        0.02625, abs=1e-9
    )


def test_surface_at_origin(fig3):
    assert lower_surface_all(fig3, 0.0, 0.0) == pytest.approx(0.0125, abs=1e-9)


def test_surface_all_keys_line_when_eavesdropper_strongest():
    s = ChannelScenario(K_w=2, K_s=3, delta_w=0.7, delta_s=0.4, delta_z=0.2, D=10)
    keys = next(
        p for p in __import__("secache").points_all_cached(s)
        if p.label == "all:cached-keys"
    )
    for frac in (0.25, 0.5, 1.0):
        m = keys.R * frac
        assert lower_surface_all(s, m, m) == pytest.approx(m, abs=1e-9)


def test_surface_below_upper_bound_grid(fig3):
    for mw in (0.0, 0.02, 0.1, 0.4):
        for ms in (0.0, 0.01, 0.05):
            lo = lower_surface_all(fig3, mw, ms)
            up = ub_best(fig3, CacheSizes(mw, ms)).value
            assert lo <= up + 1e-9


def test_global_fig5_exact_segment(fig5):
    r0 = 0.06 / 13
    slope = 0.6 / 13
    for i in range(11):
        m = 0.16 * i / 10
        assert lower_global(fig5, m) == pytest.approx(r0 + slope * m, abs=1e-9)
        assert ub_global(fig5, m) == pytest.approx(r0 + slope * m, abs=1e-9)


def test_global_origin(fig3):
    assert lower_global(fig3, 0.0) == pytest.approx(
        zero_cache_capacity(fig3), abs=1e-12
    )


def test_global_small_budget_when_eavesdropper_strongest():
    s = ChannelScenario(K_w=2, K_s=3, delta_w=0.7, delta_s=0.4, delta_z=0.3, D=10)
    end = 5 * (0.3 * 0.6) / (2 * 0.6 + 3 * 0.3)
    for frac in (0.0, 0.3, 0.7, 1.0):
        m = end * frac
        assert lower_global(s, m) == pytest.approx(m / 5, abs=1e-9)
        assert ub_global(s, m) == pytest.approx(m / 5, abs=1e-12)


def test_global_never_below_reference_nodes(fig5):
    # reference nodes of the fig5 preset curve can never exceed the
    # assembled hull (the
    # hull may strictly dominate: it unions the all-cached families too)
    nodes = [
        (0.0, 0.0046), (0.16, 0.012), (0.2, 0.0126), (1.1765, 0.0229),
        (3.0, 0.0323), (5.377, 0.0393), (8.0897, 0.0445), (10.993, 0.0483),
        (14.0, 0.051), (17.0608, 0.053), (20.1471, 0.0546),
        (23.2432, 0.0557), (25.0, 0.0562),
    ]
    for m, r in nodes:
        assert lower_global(fig5, m) >= r - 5e-4, (m, r)
    # exact at the small-budget nodes, where no other family interferes
    for m, r in nodes[:4]:
        assert lower_global(fig5, m) == pytest.approx(r, abs=5e-4)


def test_global_upper_dominates_lower(fig3, fig5):
    for s in (fig3, fig5):
        for m in (0.0, 0.05, 0.2, 1.0, 3.0, 10.0):
            assert ub_global(s, m) >= lower_global(s, m) - 1e-9


def test_global_dominates_uniform_and_weak_only(fig5):
    for m in (0.0, 0.1, 0.5, 1.0, 4.0, 10.0, 20.0):
        glob = lower_global(fig5, m)
        assert glob >= lower_uniform(fig5, m) - 1e-9
        assert glob >= lower_curve_weak_only(fig5, m / fig5.K_w) - 1e-9


def test_uniform_vertices(fig3):
    pts = points_symmetric(fig3)
    assert lower_uniform(fig3, 0.0) == pytest.approx(pts[0].R, abs=1e-12)
    m1 = fig3.K * pts[1].M_w
    assert lower_uniform(fig3, m1) == pytest.approx(pts[1].R, abs=1e-12)


def test_uniform_curve_is_hull_of_symmetric_points(fig3):
    c = uniform_curve(fig3)
    for m, r in c.vertices:
        assert lower_uniform(fig3, m) == pytest.approx(r, abs=1e-12)


def test_global_curve_monotone(fig5):
    c = global_curve(fig5)
    rates = [r for _, r in c.vertices]
    assert rates == sorted(rates)


def test_exact_regimes_fig3(fig3):
    rep = exact_regimes(fig3)
    claims = {c.name: c for c in rep.claims}
    small = claims["weak-only-small-memory"]
    assert small.exact and small.applicable
    assert small.interval[0] == 0.0
    assert small.interval[1] == pytest.approx(0.1 / 7, abs=1e-12)
    large = claims["weak-only-large-memory"]
    assert large.exact
    assert large.interval[0] == pytest.approx(39 / 82.5, abs=1e-9)
    assert claims["all-cached-keys-point"].exact
    glob = claims["global-small-budget"]
    assert glob.exact
    assert glob.interval[1] == pytest.approx(fig3.K_w * 0.1 / 7, abs=1e-12)


def test_exact_regimes_eavesdropper_strongest():
    s = ChannelScenario(K_w=2, K_s=3, delta_w=0.7, delta_s=0.4, delta_z=0.3, D=10)
    rep = exact_regimes(s)
    claims = {c.name: c for c in rep.claims}
    assert claims["weak-only-zero"].exact
    assert not claims["weak-only-small-memory"].applicable
    glob = claims["global-small-budget"]
    assert glob.exact
    end = 5 * (0.3 * 0.6) / (2 * 0.6 + 3 * 0.3)
    assert glob.interval[1] == pytest.approx(end, abs=1e-12)
    assert any("gated off" in note for note in rep.notes)
