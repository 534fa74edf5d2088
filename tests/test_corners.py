import pytest

from secache import (
    CacheSizes,
    ChannelScenario,
    NotApplicable,
    points_all_cached,
    points_separate,
    points_symmetric,
    points_weak_only,
    ub_best,
    weak_only_max_slope,
    zero_cache_capacity,
)
from secache.corners import GENERALIZED_MEMORY_RULES

FIG3_WEAK_ONLY = {
    # label: (M_w, R), hand-substituted into the closed forms
    "no-cache": (0.0, 0.0125),
    "cached-keys": (0.1 / 7, 0.15 / 7),
    "superposition-jamming": (0.15 / 6.5, 0.15 / 6.5),
    "piggyback-one[t=1]": (0.0719403, 0.0291045),
    "piggyback-one[t=2]": (0.2345129, 0.0316103),
    "piggyback-two": (39 / 82.5, 0.5 / 15),
    "full-library": (1.0, 0.5 / 15),
}


def test_weak_only_fig3_values(fig3):
    pts = {p.label: p for p in points_weak_only(fig3)}
    assert len(pts) == fig3.K_w + 4
    for label, (m, r) in FIG3_WEAK_ONLY.items():
        assert pts[label].M_w == pytest.approx(m, abs=1e-6), label
        assert pts[label].R == pytest.approx(r, abs=1e-6), label
        assert pts[label].M_s == 0.0


def test_weak_only_gate():
    s = ChannelScenario(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.3, D=30)
    with pytest.raises(NotApplicable):
        points_weak_only(s)


def test_weak_only_boundary_rates_vanish():
    # at delta_z = delta_s every rate carries a (dz - ds) factor
    s = ChannelScenario(
        K_w=3, K_s=4, delta_w=0.6, delta_s=0.3, delta_z=0.3 + 1e-13, D=10
    )
    for p in points_weak_only(s):
        assert p.R <= 1e-12


def test_weak_only_top_points_share_rate(fig3):
    pts = {p.label: p for p in points_weak_only(fig3)}
    flat = (fig3.delta_z - fig3.delta_s) / fig3.K_s
    assert pts["piggyback-two"].R == pytest.approx(flat, abs=1e-15)
    assert pts["full-library"].R == pytest.approx(flat, abs=1e-15)
    assert pts["piggyback-two"].M_w <= pts["full-library"].M_w


def test_separate_fig3_first_node(fig3):
    pts = {p.label: p for p in points_separate(fig3)}
    assert pts["separate[t=1]"].M_w == pytest.approx(0.178182, abs=1e-5)
    assert pts["separate[t=1]"].R == pytest.approx(0.027273, abs=1e-5)


def test_separate_below_joint_hull(fig3):
    from secache.tradeoff import lower_curve_weak_only

    for p in points_separate(fig3):
        assert p.R <= lower_curve_weak_only(fig3, p.M_w) + 1e-9, p.label


def test_separate_single_weak_receiver():
    s = ChannelScenario(K_w=1, K_s=3, delta_w=0.6, delta_s=0.2, delta_z=0.7, D=10)
    labels = {p.label for p in points_separate(s)}
    assert labels == {
        "no-cache",
        "cached-keys",
        "superposition-jamming",
        "full-library",
    }


def test_all_cached_fig3_keys_point(fig3):
    pts = {p.label: p for p in points_all_cached(fig3)}
    assert len(pts) == fig3.K + fig3.K_w + fig3.K_w * fig3.K_s
    keys = pts["all:cached-keys"]
    assert keys.R == pytest.approx(0.21 / 8, abs=1e-12)
    assert keys.M_w == pytest.approx(0.0175, abs=1e-12)
    assert keys.M_s == pytest.approx(0.0075, abs=1e-12)


def test_all_cached_keys_point_degenerate_equality():
    # eavesdropper at least as strong as everyone: rate equals both memories
    s = ChannelScenario(K_w=2, K_s=3, delta_w=0.7, delta_s=0.4, delta_z=0.2, D=10)
    keys = next(p for p in points_all_cached(s) if p.label == "all:cached-keys")
    assert keys.R == pytest.approx(keys.M_w, abs=1e-15)
    assert keys.R == pytest.approx(keys.M_s, abs=1e-15)


def test_generalized_family_hand_expansion():
    # K_w = K_s = 1, t = 1: single-term sums collapse to
    #   R = (1-dw) + (1-ds),  M_w = D + min(1-dz, 1-ds),
    #   M_s = D (1-dw)/(1-ds) + min(1-dz, 1-ds)
    s = ChannelScenario(K_w=1, K_s=1, delta_w=0.6, delta_s=0.2, delta_z=0.5, D=3)
    pts = {p.label: p for p in points_all_cached(s)}
    g = pts["all:generalized[t=1,lower-limit]"]
    assert g.R == pytest.approx(0.4 + 0.8, abs=1e-12)
    assert g.M_w == pytest.approx(3 + 0.5, abs=1e-12)
    assert g.M_s == pytest.approx(3 * 0.4 / 0.8 + 0.5, abs=1e-12)


def test_generalized_memory_rule_variants(fig3):
    for rule in GENERALIZED_MEMORY_RULES:
        pts = points_all_cached(fig3, memory_rule=rule)
        assert len(pts) == fig3.K + fig3.K_w + fig3.K_w * fig3.K_s
    # conservative rule never shrinks memory and never changes the rate
    default = {
        p.label.split(",")[0]: p for p in points_all_cached(fig3, "lower-limit")
    }
    conservative = {
        p.label.split(",")[0]: p for p in points_all_cached(fig3, "first-arg")
    }
    for key, p in conservative.items():
        q = default[key]
        assert p.R == pytest.approx(q.R, abs=1e-15)
        assert p.M_w >= q.M_w - 1e-12
        assert p.M_s >= q.M_s - 1e-12


def test_symmetric_fig3(fig3):
    pts = points_symmetric(fig3)
    assert len(pts) == fig3.K + 1  # the divide-by-zero member is excluded
    keys = pts[1]
    assert keys.label == "sym[1]"
    assert keys.R == pytest.approx(0.02625, abs=1e-12)
    assert keys.M_w == pytest.approx(0.0175, abs=1e-12)
    assert keys.M_w == pytest.approx(max(0.0175, 0.0075), abs=1e-15)
    assert pts[0].R == pytest.approx(zero_cache_capacity(fig3), abs=1e-15)
    assert all(p.M_w == p.M_s for p in pts)


def test_slope_fig3(fig3):
    assert weak_only_max_slope(fig3) == pytest.approx(0.625, abs=1e-12)


def test_slope_one_when_eavesdropper_not_weaker_than_weak(fig4):
    assert weak_only_max_slope(fig4) == pytest.approx(1.0, abs=1e-15)


def test_slope_one_without_strong_receivers():
    s = ChannelScenario(K_w=3, K_s=0, delta_w=0.6, delta_s=0.2, delta_z=0.8, D=10)
    assert weak_only_max_slope(s) == pytest.approx(1.0, abs=1e-15)


def test_slope_matches_finite_difference(fig3):
    from secache.tradeoff import lower_curve_weak_only

    h = 1e-7
    fd = (lower_curve_weak_only(fig3, h) - lower_curve_weak_only(fig3, 0.0)) / h
    assert fd == pytest.approx(weak_only_max_slope(fig3), abs=1e-6)


@pytest.mark.parametrize(
    "scenario_kwargs",
    [
        dict(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=30),
        dict(K_w=2, K_s=3, delta_w=0.6, delta_s=0.2, delta_z=0.9, D=8),
        dict(K_w=3, K_s=2, delta_w=0.5, delta_s=0.5, delta_z=0.7, D=9),
        dict(K_w=4, K_s=1, delta_w=0.8, delta_s=0.1, delta_z=0.5, D=11),
        dict(K_w=20, K_s=10, delta_w=0.7, delta_s=0.2, delta_z=0.8, D=50),
    ],
)
def test_every_point_below_upper_bound(scenario_kwargs):
    s = ChannelScenario(**scenario_kwargs)
    pts = list(points_all_cached(s)) + list(points_symmetric(s))
    if s.delta_z > s.delta_s:
        pts += points_weak_only(s) + points_separate(s)
    for p in pts:
        ub = ub_best(s, CacheSizes(p.M_w, p.M_s)).value
        assert p.R <= ub + 1e-9, (p.label, p.R, ub)


def test_weak_only_without_strong_receivers():
    # the two strong-limited members have no meaning when K_s = 0
    s = ChannelScenario(K_w=3, K_s=0, delta_w=0.6, delta_s=0.2, delta_z=0.8, D=10)
    labels = [p.label for p in points_weak_only(s)]
    assert "piggyback-two" not in labels and "full-library" not in labels
    assert len(labels) == s.K_w + 2


def test_fig4_reproducible_nodes(fig4):
    # fig4-preset curve nodes that follow from the closed forms; note the
    # memory ordering flips here: the superposition point needs LESS
    # memory than the keys point because min{1-dz, 1-dw} = 1-dw
    pts = {p.label: p for p in points_weak_only(fig4)}
    sj = pts["superposition-jamming"]
    assert (sj.M_w, sj.R) == (
        pytest.approx(0.0109, abs=1e-4),
        pytest.approx(0.0109, abs=1e-4),
    )
    ck = pts["cached-keys"]
    assert (ck.M_w, ck.R) == (
        pytest.approx(0.0133, abs=1e-4),
        pytest.approx(0.0133, abs=1e-4),
    )
    assert sj.M_w < ck.M_w
    p1 = pts["piggyback-one[t=1]"]
    assert (p1.M_w, p1.R) == (
        pytest.approx(0.055, abs=1e-4),
        pytest.approx(0.01875, abs=1e-5),
    )
    assert pts["full-library"].M_w == pytest.approx(0.6, abs=1e-12)


def test_generalized_collapses_to_symmetric_at_equal_erasures():
    # with delta_w == delta_s the class distinction disappears and the
    # binomial-weighted rate must equal the classic coded-caching rate
    # C(K,t)(1-delta)/C(K,t+1), which the symmetric family also hits
    from math import comb

    s = ChannelScenario(K_w=3, K_s=4, delta_w=0.4, delta_s=0.4, delta_z=0.7, D=9)
    gen = {p.label: p for p in points_all_cached(s)}
    sym = points_symmetric(s)
    for t in range(1, s.K):
        g = gen[f"all:generalized[t={t},lower-limit]"]
        closed = comb(s.K, t) * 0.6 / comb(s.K, t + 1)
        assert g.R == pytest.approx(closed, abs=1e-12), t
        assert sym[t + 1].R == pytest.approx(closed, abs=1e-12), t


#: Valid scenarios whose closed forms overflow at high indices: C(2005, t)
#: exceeds a float in the coded symmetric and generalized corners of the
#: first, (1 - delta_w)^-t_w in the generalized corners of the second.
OVERFLOWING = (
    {"K_w": 5, "K_s": 2000, "delta_w": 0.7, "delta_s": 0.2, "delta_z": 0.1, "D": 5000},
    {"K_w": 2000, "K_s": 5, "delta_w": 0.7, "delta_s": 0.2, "delta_z": 0.8, "D": 5000},
)


@pytest.mark.parametrize("kwargs", OVERFLOWING)
def test_overflowing_corners_are_skipped(kwargs):
    s = ChannelScenario(**kwargs)
    generalized = [p for p in points_all_cached(s) if "generalized" in p.label]
    symmetric = points_symmetric(s)
    # the low indices stay; some high ones have no finite closed form
    assert generalized[0].label == "all:generalized[t=1,lower-limit]"
    assert [p.label for p in symmetric[:3]] == ["sym[0]", "sym[1]", "sym[2]"]
    assert len(generalized) + len(symmetric) < (s.K - 1) + (s.K + 1)
