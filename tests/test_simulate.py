import json

import numpy as np
import pytest

from oracles import otp_decrypt, otp_encrypt
from strategies import edited
from secache import (
    ChannelScenario,
    ConfigError,
    RangeError,
    SimConfig,
    build_cached_keys_all,
    build_piggyback_one,
    build_symmetric_piggyback,
    build_wiretap_cached_keys,
    run_monte_carlo,
    verify_plan,
)


def test_otp_round_trip_basic():
    assert otp_encrypt(3, 5, 8) == 0
    assert otp_decrypt(0, 5, 8) == 3
    assert otp_encrypt(7, 0, 16) == 7


def test_otp_range_errors():
    with pytest.raises(RangeError):
        otp_encrypt(8, 0, 8)
    with pytest.raises(RangeError):
        otp_encrypt(0, -1, 8)
    with pytest.raises(RangeError):
        otp_decrypt(16, 0, 16)


def test_otp_exhaustive_uniformity_mod16():
    # exact one-time-pad property: every ciphertext column is a permutation
    m = 16
    for w in range(m):
        ciphertexts = sorted(otp_encrypt(w, k, m) for k in range(m))
        assert ciphertexts == list(range(m))
    for k in range(m):
        for w in range(m):
            assert otp_decrypt(otp_encrypt(w, k, m), k, m) == w


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n=0, trials=10, seed=1)
    with pytest.raises(ConfigError):
        SimConfig(n=10, trials=0, seed=1)


def test_segment_rounds_to_zero(fig3):
    plan = build_wiretap_cached_keys(fig3, 0.002)
    with pytest.raises(ConfigError):
        run_monte_carlo(plan, fig3, SimConfig(n=5, trials=2, seed=0))


def test_reproducibility(fig3):
    plan = build_wiretap_cached_keys(fig3, 0.002)
    cfg = SimConfig(n=2000, trials=40, seed=123)
    r1 = run_monte_carlo(plan, fig3, cfg)
    r2 = run_monte_carlo(plan, fig3, cfg)
    assert r1.to_json() == r2.to_json()
    r3 = run_monte_carlo(plan, fig3, SimConfig(n=2000, trials=40, seed=124))
    assert r3.to_json() != r1.to_json()


def test_report_json_fields(fig3):
    plan = build_wiretap_cached_keys(fig3, 0.002)
    rep = run_monte_carlo(plan, fig3, SimConfig(n=1000, trials=5, seed=9))
    obj = json.loads(rep.to_json())
    assert set(obj) >= {
        "n",
        "trials",
        "seed",
        "generator",
        "worst_case_error_rate",
        "per_demand",
    }
    assert obj["generator"] == "philox4x64"
    assert 0.0 <= obj["worst_case_error_rate"] <= 1.0


def test_error_rate_monotone_in_blocklength(fig3):
    plan = build_wiretap_cached_keys(fig3, 0.002)
    rates = [
        run_monte_carlo(plan, fig3, SimConfig(n=n, trials=100, seed=5)).worst_case_error_rate
        for n in (500, 5000, 50000)
    ]
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[2] <= 0.05


def test_erasure_sampler_within_three_sigma(fig3):
    plan = build_cached_keys_all(fig3, 1e-3)
    cfg = SimConfig(n=4000, trials=60, seed=31)
    rep = run_monte_carlo(plan, fig3, cfg)
    for st in rep.segment_stats:
        if st["empirical_erasure_rate"] is None:
            continue
        seg_id = st["segment"]
        delta = fig3.delta_w if seg_id[0] == 1 else fig3.delta_s
        n_samples = st["length"] * cfg.trials
        sigma = (delta * (1 - delta) / n_samples) ** 0.5
        assert abs(st["empirical_erasure_rate"] - delta) <= 3.5 * sigma


def test_infeasible_plan_fails_at_large_n(fig3):
    plan = build_wiretap_cached_keys(fig3, 0.002)
    # inflate one weak receiver's decode load beyond its segment capacity
    seg0 = plan.schedule[0]
    bad_unit = seg0.units[0]._replace(
        decode_load={r: ld * 1.4 for r, ld in seg0.units[0].decode_load.items()},
    )
    bad_seg = seg0._replace(units=(bad_unit,) + seg0.units[1:])
    bad = edited(plan, schedule=(bad_seg,) + plan.schedule[1:])
    rep = run_monte_carlo(bad, fig3, SimConfig(n=20000, trials=50, seed=77))
    assert rep.worst_case_error_rate == 1.0


def test_piggyback_plan_simulates_correctly(fig3):
    # a structurally rich plan (XOR peeling + restricted decoding) at a
    # comfortable blocklength decodes every trial
    plan = build_piggyback_one(fig3, 1, 0.01)
    rep = run_monte_carlo(plan, fig3, SimConfig(n=60000, trials=20, seed=3))
    assert rep.worst_case_error_rate <= 0.1


def test_exhaustive_demand_policy_small_library():
    s = ChannelScenario(K_w=1, K_s=1, delta_w=0.5, delta_s=0.2, delta_z=0.9, D=3)
    plan = build_cached_keys_all(s, 1e-3)
    cfg = SimConfig(n=3000, trials=4, seed=2, demand_policy="exhaustive-if-small")
    rep = run_monte_carlo(plan, s, cfg)
    assert len(rep.per_demand) == 9  # all D^K demand vectors


def test_random_demand_policy(fig3):
    plan = build_wiretap_cached_keys(fig3, 0.002)
    cfg = SimConfig(n=2000, trials=3, seed=5, demand_policy="random:7")
    rep = run_monte_carlo(plan, fig3, cfg)
    assert len(rep.per_demand) == 8  # canonical + 7 sampled
    assert rep.per_demand[0]["demand"] == list(range(1, fig3.K + 1))


def test_verifier_and_simulator_share_the_peel_rule():
    # Receiver 1 loses the context key of its row unit toward receiver 3,
    # the only unit that delivers part Br[3]: the verifier must reject the
    # plan and the simulator must fail every trial even with ample slack.
    s = ChannelScenario(K_w=2, K_s=2, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=5)
    plan = build_symmetric_piggyback(s, 1, 1, 0.01)
    cfg = SimConfig(n=100000, trials=50, seed=1)
    assert verify_plan(plan, s).passed
    assert run_monte_carlo(plan, s, cfg).worst_case_error_rate == 0.0

    placement = dict(plan.placement)
    placement[1] = tuple(a for a in placement[1] if a.label != "Ks[1,3]")
    bad = edited(plan, placement=placement)
    check = verify_plan(bad, s).check("DECODE")
    assert not check.passed
    assert check.detail == "receiver 1 cannot obtain part 'Br[3]'"
    assert run_monte_carlo(bad, s, cfg).worst_case_error_rate == 1.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: trial t draws from Philox counter (t, d, 0, 0) and every "
    "block of four words advances word 0, so trial t + 1 reads trial t's "
    "stream shifted by one block"))
def test_consecutive_trials_draw_from_disjoint_counter_ranges(fig3, monkeypatch):
    # Record each trial's Philox counter as run_monte_carlo sets it, and
    # where the trial left it: the ranges of word 0 that consecutive trials
    # of one demand consume must not meet.
    spans = []
    philox = np.random.Philox

    class Recording(philox):
        @property
        def state(self):
            return philox.state.__get__(self)

        @state.setter
        def state(self, value):
            if spans:
                spans[-1][1] = int(self.state["state"]["counter"][0])
            philox.state.__set__(self, value)
            spans.append([int(value["state"]["counter"][0]), None])
            Recording.last = self

    monkeypatch.setattr(np.random, "Philox", Recording)
    plan = build_wiretap_cached_keys(fig3, 1e-4)
    run_monte_carlo(plan, fig3, SimConfig(n=50000, trials=20, seed=1))
    spans[-1][1] = int(Recording.last.state["state"]["counter"][0])
    if len(spans) != 20 or not all(end > start for start, end in spans):
        pytest.fail(f"the recording missed a trial: {spans}")
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:])), spans
