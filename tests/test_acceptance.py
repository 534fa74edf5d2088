"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single ``[criterion NN] PASS`` line on success (visible
with ``pytest -s`` or in failure reports), so the suite doubles as a
checklist run:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import random
import time

import pytest

from oracles import lambda_grid_best, otp_decrypt, otp_encrypt, simplex_grid_maxmin
from strategies import edited
from secache import (
    Infeasible,
    CacheSizes,
    ChannelScenario,
    RateMemoryPoint,
    alpha_sequence,
    build_cached_keys_all,
    build_piggyback_allkeys,
    build_piggyback_one,
    build_piggyback_two,
    build_superposition_jamming,
    build_symmetric_piggyback,
    build_wiretap_cached_keys,
    cache_usage_by_class,
    eval_hull_2d,
    lower_curve_weak_only,
    lower_global,
    lower_surface_all,
    points_all_cached,
    points_separate,
    points_weak_only,
    run_monte_carlo,
    SimConfig,
    ub_best,
    ub_cache_sharing,
    ub_global,
    verify_plan,
)

FIG3 = ChannelScenario(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=30)
FIG4 = ChannelScenario(K_w=5, K_s=15, delta_w=0.8, delta_s=0.3, delta_z=0.6, D=30)
FIG5 = ChannelScenario(K_w=20, K_s=10, delta_w=0.7, delta_s=0.2, delta_z=0.8, D=50)


def _report(num, ok=True):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}")


def test_c01_fig3_corner_reproduction():
    start = time.perf_counter()
    pts = {p.label: (p.M_w, p.R) for p in points_weak_only(FIG3)}
    elapsed = time.perf_counter() - start
    figure_nodes = {
        "no-cache": (0.0, 0.0125),
        "cached-keys": (0.0142857, 0.0214286),
        "superposition-jamming": (0.0230769, 0.0230769),
        "piggyback-one[t=1]": (0.071940, 0.029104),
        "piggyback-one[t=2]": (0.234506, 0.031610),
        "piggyback-two": (0.472727, 0.033333),
        "full-library": (1.0, 0.033333),
    }
    for label, (m, r) in figure_nodes.items():
        assert pts[label][0] == pytest.approx(m, abs=1e-5), label
        assert pts[label][1] == pytest.approx(r, abs=1e-5), label
    formula_nodes = {
        "no-cache": (0.0, 0.05 / 4),
        "cached-keys": (0.1 / 7, 0.15 / 7),
        "superposition-jamming": (0.15 / 6.5, 0.15 / 6.5),
        "piggyback-two": (39 / 82.5, 0.5 / 15),
        "full-library": (30 * 0.5 / 15, 0.5 / 15),
    }
    for label, (m, r) in formula_nodes.items():
        assert pts[label][0] == pytest.approx(m, abs=1e-12), label
        assert pts[label][1] == pytest.approx(r, abs=1e-12), label
    assert elapsed < 1e-3, f"corner generation took {elapsed * 1e3:.3f} ms"
    _report(1)


def test_c02_fig3_separate_coding_node():
    pts = {p.label: p for p in points_separate(FIG3)}
    assert pts["separate[t=1]"].M_w == pytest.approx(0.178182, abs=1e-5)
    assert pts["separate[t=1]"].R == pytest.approx(0.027273, abs=1e-5)
    _report(2)


def test_c03_small_memory_exactness():
    m1 = 0.1 / 7
    slope = 0.625
    for i in range(100):
        m = m1 * i / 99
        lo = lower_curve_weak_only(FIG3, m)
        up = ub_best(FIG3, CacheSizes(m, 0.0)).value
        assert abs(lo - up) <= 1e-9, m
        assert lo == pytest.approx(0.0125 + slope * m, abs=1e-9), m
    _report(3)


def test_c04_large_memory_exactness():
    m_top = 39 / 82.5
    for i in range(100):
        m = m_top + (2.0 - m_top) * i / 99
        lo = lower_curve_weak_only(FIG3, m)
        up = ub_best(FIG3, CacheSizes(m, 0.0)).value
        assert abs(lo - up) <= 1e-9, m
        assert lo == pytest.approx(1 / 30, abs=1e-9), m
    _report(4)


def test_c05_fig4_slope_one_regime():
    m1 = (0.6 - 0.3) * min(0.4, 0.2) / (15 * 0.2 + 5 * 0.3)  # = 0.0133..
    assert m1 == pytest.approx(0.06 / 4.5, abs=1e-15)
    for i in range(100):
        m = m1 * i / 99
        lo = lower_curve_weak_only(FIG4, m)
        up = ub_best(FIG4, CacheSizes(m, 0.0)).value
        assert lo == pytest.approx(m, abs=1e-9)
        assert up == pytest.approx(m, abs=1e-9)
    _report(5)


def test_c06_all_cached_keys_point_optimal():
    lo = lower_surface_all(FIG3, 0.0175, 0.0075)
    up = ub_best(FIG3, CacheSizes(0.0175, 0.0075)).value
    assert lo == pytest.approx(0.02625, abs=1e-9)
    assert up == pytest.approx(0.02625, abs=1e-9)
    _report(6)


def test_c07_global_budget_regimes():
    r0 = 0.06 / 13
    slope = 0.6 / 13
    for i in range(100):
        m = 0.16 * i / 99
        lo = lower_global(FIG5, m)
        up = ub_global(FIG5, m)
        ref = r0 + slope * m
        assert abs(lo - ref) <= 1e-9 and abs(up - ref) <= 1e-9, m
    s = ChannelScenario(K_w=2, K_s=3, delta_w=0.7, delta_s=0.4, delta_z=0.3, D=10)
    end = s.K * (0.3 * 0.6) / (2 * 0.6 + 3 * 0.3)
    for i in range(100):
        m = end * i / 99
        assert lower_global(s, m) == pytest.approx(m / s.K, abs=1e-9)
        assert ub_global(s, m) == pytest.approx(m / s.K, abs=1e-9)
    _report(7)


def test_c08_oracle_equivalence():
    rng = random.Random(20240612)
    # cache-sharing bound vs beta-simplex grid search
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
        assert abs(rep.value - oracle) <= 2e-3, trial
        assert rep.value >= oracle - 1e-9
    # mixture LP vs lambda-grid search on random 6-point instances
    for trial in range(50):
        pts = [
            RateMemoryPoint(
                round(rng.uniform(0, 1), 4),
                round(rng.uniform(0, 1), 4),
                round(rng.uniform(0, 1), 4),
                f"p{i}",
            )
            for i in range(6)
        ]
        mw, ms = round(rng.uniform(0.1, 1), 4), round(rng.uniform(0.1, 1), 4)
        oracle = lambda_grid_best(
            [(p.R, p.M_w, p.M_s) for p in pts], mw, ms, 1e-2
        )
        try:
            val = eval_hull_2d(pts, mw, ms)
        except Infeasible:
            assert oracle == float("-inf"), trial
            continue
        assert abs(val - oracle) <= 2e-2, trial
    _report(8)


def _fig3_scheme_sweep(eps=1e-4):
    plans = [
        build_wiretap_cached_keys(FIG3, eps),
        build_superposition_jamming(FIG3, eps),
        build_piggyback_two(FIG3, eps),
        build_cached_keys_all(FIG3, eps),
    ]
    plans += [build_piggyback_one(FIG3, t, eps) for t in (1, 2, 3, 4)]
    plans += [build_piggyback_allkeys(FIG3, t, eps) for t in (1, 2, 3, 4)]
    rng = random.Random(971)
    combos = [(tw, ts) for tw in range(1, 6) for ts in range(1, 16)]
    for tw, ts in rng.sample(combos, 20):
        plans.append(build_symmetric_piggyback(FIG3, tw, ts, eps))
    return plans


def test_c09_scheme_verification_sweep():
    eps = 1e-4
    start = time.perf_counter()
    plans = _fig3_scheme_sweep(eps)
    corners = {p.label: p for p in points_weak_only(FIG3)}
    corners.update({p.label: p for p in points_all_cached(FIG3)})
    D, Kw, Ks = FIG3.D, FIG3.K_w, FIG3.K_s
    for plan in plans:
        rep = verify_plan(plan, FIG3)
        assert rep.passed, (plan.scheme_name, plan.params, rep.to_json())
        corner = corners[plan.claimed_point.label]
        assert plan.claimed_point.R == pytest.approx(corner.R - eps, abs=1e-12)
        usage = cache_usage_by_class(plan, FIG3)
        name = plan.scheme_name
        if name == "wiretap-cached-keys":
            assert usage.M_w == pytest.approx(corner.M_w, abs=1e-12)
        elif name == "superposition-jamming":
            assert usage.M_w == pytest.approx(
                min((1 - FIG3.delta_z) / Kw, corner.M_w - eps), abs=1e-12
            )
        elif name == "piggyback-one":
            t = plan.params["t"]
            assert usage.M_w == pytest.approx(
                corner.M_w - D * (t - 0.5) / Kw * eps, abs=1e-12
            )
        elif name == "piggyback-two":
            assert usage.M_w == pytest.approx(corner.M_w - D * eps / 2, abs=1e-12)
        elif name == "cached-keys-all":
            assert usage.M_w == pytest.approx(corner.M_w, abs=1e-12)
            assert usage.M_s == pytest.approx(corner.M_s, abs=1e-12)
        elif name == "piggyback-allkeys":
            t = plan.params["t"]
            assert usage.M_w == pytest.approx(
                corner.M_w - D * (t - 0.5) / Kw * eps, abs=1e-12
            )
            assert usage.M_s == pytest.approx(corner.M_s, abs=1e-12)
        elif name == "symmetric-piggyback":
            tw, ts = plan.params["t_w"], plan.params["t_s"]
            assert usage.M_w == pytest.approx(
                corner.M_w - D * tw / (2 * Kw) * eps, abs=1e-12
            )
            assert usage.M_s == pytest.approx(
                corner.M_s - D * ts / (2 * Ks) * eps, abs=1e-12
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"
    _report(9)


def test_c10_mutation_sensitivity():
    plans = _fig3_scheme_sweep()
    rng = random.Random(52)
    candidates = [
        (pi, r, a.label)
        for pi, plan in enumerate(plans)
        for r, atoms in plan.placement.items()
        for a in atoms
        if a.kind == "key"
    ]
    sample = rng.sample(candidates, 50)
    detected = 0
    for pi, r, label in sample:
        plan = plans[pi]
        placement = dict(plan.placement)
        placement[r] = tuple(
            a for a in placement[r] if not (a.kind == "key" and a.label == label)
        )
        mutated = edited(plan, placement=placement)
        rep = verify_plan(mutated, FIG3)
        if not rep.check("DECODE").passed or not rep.check("SECRECY").passed:
            detected += 1
    assert detected == 50, f"only {detected}/50 mutations detected"
    _report(10)


def test_c11_monte_carlo_concentration():
    start = time.perf_counter()
    plan = build_wiretap_cached_keys(FIG3, 0.002)
    rates = []
    for n in (500, 5000, 50000):
        rep = run_monte_carlo(plan, FIG3, SimConfig(n=n, trials=200, seed=20240613))
        rates.append(rep.worst_case_error_rate)
    assert rates[0] >= rates[1] >= rates[2], rates
    assert rates[2] <= 0.05, rates
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"simulation took {elapsed:.1f}s"
    _report(11)


def test_c12_one_time_pad_exactness():
    m = 16
    for w in range(m):
        assert sorted(otp_encrypt(w, k, m) for k in range(m)) == list(range(m))
        for k in range(m):
            assert otp_decrypt(otp_encrypt(w, k, m), k, m) == w
    _report(12)
