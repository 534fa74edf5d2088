import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    affine_maxmin_grid,
    cache_sharing_bisection,
    simplex_grid_maxmin,
    ub_weak_only,
)
from strategies import scenarios
from secache.cli import PRESETS
from secache import (
    CacheSizes,
    ChannelScenario,
    IndexOutOfRange,
    alpha_sequence,
    ub_best,
    ub_cache_sharing,
    ub_global,
    ub_split,
    zero_cache_capacity,
)


def test_split_fig3_small_memory(fig3):
    rep = ub_split(fig3, CacheSizes(0.01, 0.0), 5, 15)
    assert rep.value == pytest.approx(0.01875, abs=1e-12)
    assert rep.beta_witness[0] == pytest.approx(0.4375, abs=1e-9)


def test_split_kw_zero_drops_first_term(fig3):
    rep = ub_split(fig3, CacheSizes(0.3, 0.0), 0, 15)
    # only the pooled term remains; best at beta = 0
    assert rep.value == pytest.approx((0.8 - 0.3) / 15, abs=1e-12)


def test_split_degenerate_all_equal():
    s = ChannelScenario(K_w=2, K_s=2, delta_w=0.4, delta_s=0.4, delta_z=0.4, D=10)
    assert ub_split(s, CacheSizes(0.0, 0.0), 2, 2).value == 0.0


def test_split_rejects_empty_subpopulation(fig3):
    with pytest.raises(IndexOutOfRange):
        ub_split(fig3, CacheSizes(0.0, 0.0), 0, 0)
    with pytest.raises(IndexOutOfRange):
        ub_split(fig3, CacheSizes(0.0, 0.0), 6, 0)


def test_split_matches_affine_grid_oracle(fig3):
    cache = CacheSizes(0.05, 0.02)
    for k_w, k_s in [(5, 15), (2, 7), (1, 1), (5, 0)]:
        rep = ub_split(fig3, cache, k_w, k_s)
        aw = max(0.0, fig3.delta_z - fig3.delta_w)
        as_ = max(0.0, fig3.delta_z - fig3.delta_s)
        k = k_w + k_s
        lines = [
            (
                (aw - as_) / k,
                as_ / k + (k_w * cache.M_w + k_s * cache.M_s) / k,
            )
        ]
        if k_w:
            lines.append((aw / k_w, cache.M_w))
        assert rep.value == pytest.approx(
            affine_maxmin_grid(lines), abs=2e-6
        )


def test_alpha_sequence_zero_cache(fig3):
    assert alpha_sequence(fig3, CacheSizes(0.0, 0.0), 5, 15) == [0.0] * 20


def test_alpha_sequence_first_entry(fig3):
    alphas = alpha_sequence(fig3, CacheSizes(0.1, 0.0), 5, 15)
    assert alphas[0] == pytest.approx(min(0.1 / 30, (20 * 0.5 / 30) / 20), abs=1e-15)
    assert alphas[0] == pytest.approx(0.1 / 30, abs=1e-15)
    assert all(a >= 0 for a in alphas)


def test_alpha_sequence_single_receiver(fig3):
    alphas = alpha_sequence(fig3, CacheSizes(0.4, 0.0), 1, 0)
    assert alphas == [pytest.approx(0.4 / 30, abs=1e-15)]


def test_cache_sharing_two_user_closed_form():
    s = ChannelScenario(K_w=1, K_s=1, delta_w=0.7, delta_s=0.3, delta_z=0.9, D=10)
    rep = ub_cache_sharing(s, CacheSizes(0.0, 0.0), 1, 1)
    # all alphas zero: t/0.3 + t/0.7 = 1
    assert rep.value == pytest.approx(0.21, abs=1e-10)
    assert sum(rep.beta_witness) == pytest.approx(1.0, abs=1e-9)


def test_cache_sharing_single_weak(fig3):
    rep = ub_cache_sharing(fig3, CacheSizes(0.6, 0.0), 1, 0)
    assert rep.value == pytest.approx((1 - 0.7) + 0.6 / 30, abs=1e-10)


def test_cache_sharing_matches_grid_oracle_random():
    rng = random.Random(1234)
    for trial in range(50):
        k_w = rng.randint(0, 2)
        k_s = rng.randint(0 if k_w else 1, 3 - k_w)
        K_w, K_s = max(k_w, 1), max(k_s, 1)
        s = ChannelScenario(
            K_w=K_w,
            K_s=K_s,
            delta_w=round(rng.uniform(0.35, 0.9), 3),
            delta_s=round(rng.uniform(0.05, 0.3), 3),
            delta_z=round(rng.uniform(0.0, 1.0), 3),
            D=rng.randint(K_w + K_s + 1, 12),
        )
        cache = CacheSizes(
            round(rng.uniform(0.0, 0.6), 3), round(rng.uniform(0.0, 0.6), 3)
        )
        rep = ub_cache_sharing(s, cache, k_w, k_s)
        alphas = alpha_sequence(s, cache, k_w, k_s)
        caps = [1 - s.delta_w] * k_w + [1 - s.delta_s] * k_s
        oracle = simplex_grid_maxmin(alphas, caps, step=1e-3)
        assert rep.value == pytest.approx(oracle, abs=2e-3), (trial, s)
        assert rep.value >= oracle - 1e-9  # the exact optimum dominates any grid point


def _boundary_scenario(rng, max_k):
    """A random valid scenario whose erasures are drawn from {0, 1, uniform}."""
    def erasure():
        return rng.choice((0.0, 1.0, round(rng.random(), 6)))

    K_w = rng.randint(0, max_k - 1)
    K_s = rng.randint(0 if K_w else 1, max_k - K_w)
    delta_s, delta_w = sorted((erasure(), erasure()))
    D = K_w + K_s + rng.randint(1, 6)
    return ChannelScenario(K_w, K_s, delta_w, delta_s, erasure(), D)


def _random_cache(rng):
    def memory():
        small, large = round(rng.uniform(0.0, 0.2), 6), round(rng.uniform(0.0, 3.0), 6)
        return rng.choice((0.0, small, large))

    return CacheSizes(memory(), memory())


def test_cache_sharing_matches_bisection_reference():
    rng = random.Random(4242)
    for trial in range(400):
        s = _boundary_scenario(rng, 24)
        cache = _random_cache(rng)
        k_w = rng.randint(0 if s.K_s else 1, s.K_w)
        k_s = rng.randint(0 if k_w else 1, s.K_s)
        rep = ub_cache_sharing(s, cache, k_w, k_s)
        ref = cache_sharing_bisection(
            alpha_sequence(s, cache, k_w, k_s), k_w, 1.0 - s.delta_w, 1.0 - s.delta_s
        )
        assert ref <= rep.value <= ref + 1e-12, (trial, s, cache, k_w, k_s)


def test_cache_sharing_matches_linprog():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(777)
    for trial in range(60):
        s = _boundary_scenario(rng, 8)
        cache = _random_cache(rng)
        k_w = rng.randint(0 if s.K_s else 1, s.K_w)
        k_s = rng.randint(0 if k_w else 1, s.K_s)
        alphas = alpha_sequence(s, cache, k_w, k_s)
        caps = [1.0 - s.delta_w] * k_w + [1.0 - s.delta_s] * k_s
        k = len(alphas)
        # variables (beta_1..beta_k, t): maximize t subject to
        # t - c_i beta_i <= alpha_i, sum(beta) = 1, beta >= 0
        a_ub = [
            [-c if j == i else 0.0 for j in range(k)] + [1.0] for i, c in enumerate(caps)
        ]
        lp = optimize.linprog(
            c=[0.0] * k + [-1.0],
            A_ub=a_ub,
            b_ub=alphas,
            A_eq=[[1.0] * k + [0.0]],
            b_eq=[1.0],
            bounds=[(0.0, None)] * k + [(None, None)],
        )
        assert lp.status == 0, (trial, lp.message)
        rep = ub_cache_sharing(s, cache, k_w, k_s)
        assert rep.value == pytest.approx(-lp.fun, abs=1e-9), (trial, s, k_w, k_s)


def _at_presets(test):
    """``test`` also at each preset with a few weak cache sizes."""
    for name in ("fig3", "fig4", "fig5"):
        for m_w in (0.0, 0.01, 0.05, 0.3, 2.0):
            test = example(ChannelScenario(**PRESETS[name]), m_w)(test)
    return test


@_at_presets
@settings(max_examples=150)
@given(scenarios(max_k=6), st.one_of(st.sampled_from((0.0, 0.01, 1.0)), st.floats(0.0, 40.0)))
def test_ub_best_never_above_weak_only_at_zero_strong_cache(s, m_w):
    # why ub_best needs no weak-only pass of its own (see its docstring)
    best = ub_best(s, CacheSizes(m_w, 0.0)).value
    for k_w in range(s.K_w + 1):
        assert best <= ub_weak_only(s, m_w, k_w) + 1e-12, (s, m_w, k_w)


def test_cache_sharing_2x2_coarse_grid(fig3):
    cache = CacheSizes(0.08, 0.03)
    rep = ub_cache_sharing(fig3, cache, 2, 2)
    alphas = alpha_sequence(fig3, cache, 2, 2)
    caps = [0.3, 0.3, 0.7, 0.7]
    oracle = simplex_grid_maxmin(alphas, caps, step=2e-3)
    assert rep.value == pytest.approx(oracle, abs=2e-3)


def test_weak_only_bound_fig3_zero_memory(fig3):
    val = ub_weak_only(fig3, 0.0, 5)
    sum_term = 1.0 / (5 / 0.3 + 15 / 0.7)
    assert sum_term == pytest.approx(0.02625, abs=1e-6)
    assert val == pytest.approx(0.0125, abs=1e-12)


def test_weak_only_bound_large_memory(fig3):
    assert ub_weak_only(fig3, 50.0, 0) == pytest.approx(0.5 / 15, abs=1e-12)


def test_weak_only_zero_when_eavesdropper_strongest():
    s = ChannelScenario(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.2, D=30)
    assert ub_weak_only(s, 0.0, 5) == 0.0


def test_ub_best_matches_origin(fig3, fig5):
    for s in (fig3, fig5):
        assert ub_best(s, CacheSizes(0.0, 0.0)).value == pytest.approx(
            zero_cache_capacity(s), abs=1e-12
        )


def test_ub_best_flat_tail_fig3(fig3):
    for m in (1.0, 1.5, 2.0):
        assert ub_best(fig3, CacheSizes(m, 0.0)).value == pytest.approx(
            1 / 30, abs=1e-9
        )


def test_ub_best_small_memory_witness(fig3):
    rep = ub_best(fig3, CacheSizes(0.01, 0.0))
    assert rep.value == pytest.approx(0.01875, abs=1e-12)
    assert (rep.k_w, rep.k_s) == (5, 15)


def test_ub_best_nondecreasing_in_memory(fig3):
    vals = [
        ub_best(fig3, CacheSizes(mw, ms)).value
        for mw, ms in [(0.0, 0.0), (0.01, 0.0), (0.01, 0.01), (0.05, 0.01), (0.05, 0.05)]
    ]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_ub_global_eavesdropper_strongest():
    s = ChannelScenario(K_w=2, K_s=3, delta_w=0.7, delta_s=0.4, delta_z=0.3, D=10)
    for m in (0.0, 0.3, 1.0):
        assert ub_global(s, m) == pytest.approx(m / 5, abs=1e-12)


def test_ub_global_fig5(fig5):
    assert ub_global(fig5, 0.0) == pytest.approx(0.06 / 13, abs=1e-12)
    assert ub_global(fig5, 0.16) == pytest.approx(0.012, abs=1e-12)


def test_split_witness_matches_equalizer_closed_form(fig3):
    # on the small-memory segment the maximizing split parameter is
    # K_w [(dz-ds) - K_s M_w] / [K_w (dz-ds) + K_s (dz-dw)^+]
    m1 = 0.1 / 7
    for i in range(5):
        m = m1 * i / 4
        rep = ub_split(fig3, CacheSizes(m, 0.0), fig3.K_w, fig3.K_s)
        expect = fig3.K_w * ((0.8 - 0.3) - fig3.K_s * m) / (
            fig3.K_w * 0.5 + fig3.K_s * 0.1
        )
        assert rep.beta_witness[0] == pytest.approx(expect, abs=1e-9), m
