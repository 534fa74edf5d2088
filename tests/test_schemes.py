import json
import random
import re

import pytest

from oracles import entropy_inverse_scan
from strategies import edited
from secache.schemes import RATE_TOL, DeliveryUnit
from secache import (
    BUILDERS,
    ChannelScenario,
    IndexOutOfRange,
    InvalidParameter,
    NotApplicable,
    build_cached_keys_all,
    build_piggyback_allkeys,
    build_piggyback_one,
    build_piggyback_two,
    build_superposition_jamming,
    build_symmetric_piggyback,
    build_wiretap_cached_keys,
    cache_usage_by_class,
    points_all_cached,
    points_weak_only,
    verify_plan,
)

EPS = 1e-4


def all_fig3_plans(s, eps=EPS):
    plans = [
        build_wiretap_cached_keys(s, eps),
        build_superposition_jamming(s, eps),
        build_piggyback_two(s, eps),
        build_cached_keys_all(s, eps),
    ]
    plans += [build_piggyback_one(s, t, eps) for t in range(1, s.K_w)]
    plans += [build_piggyback_allkeys(s, t, eps) for t in range(1, s.K_w)]
    rng = random.Random(2718)
    combos = [(t_w, t_s) for t_w in range(1, s.K_w + 1) for t_s in range(1, s.K_s + 1)]
    for t_w, t_s in rng.sample(combos, min(20, len(combos))):
        plans.append(build_symmetric_piggyback(s, t_w, t_s, eps))
    return plans


@pytest.fixture(scope="module")
def fig3_shared():
    return ChannelScenario(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=30)


@pytest.fixture(scope="module")
def fig3_plans(fig3_shared):
    return all_fig3_plans(fig3_shared)


def test_all_builders_pass_verification_fig3(fig3_shared, fig3_plans):
    for plan in fig3_plans:
        rep = verify_plan(plan, fig3_shared)
        assert rep.passed, (plan.scheme_name, plan.params, rep.to_json())


def test_schedule_fractions_sum_to_one(fig3_plans):
    for plan in fig3_plans:
        assert sum(seg.fraction for seg in plan.schedule) == pytest.approx(
            1.0, abs=1e-12
        )


def test_wiretap_cached_keys_parameters(fig3):
    plan = build_wiretap_cached_keys(fig3, EPS)
    # split parameter beta = 2.5/7, rate 0.15/7 - eps
    lam_w = sum(seg.fraction for seg in plan.schedule if seg.id[0] == 1)
    assert lam_w == pytest.approx(2.5 / 7, abs=1e-12)
    assert plan.claimed_point.R == pytest.approx(0.15 / 7 - EPS, abs=1e-15)
    assert plan.claimed_point.M_w == pytest.approx(0.1 / 7, abs=1e-15)


def test_wiretap_cached_keys_applies_on_fig4(fig4):
    plan = build_wiretap_cached_keys(fig4, EPS)
    assert verify_plan(plan, fig4).passed


def test_superposition_parameters(fig3):
    plan = build_superposition_jamming(fig3, EPS)
    assert plan.params["gamma"] == pytest.approx(2.5 / 6.5, abs=1e-12)
    assert plan.claimed_point.R == pytest.approx(0.15 / 6.5 - EPS, abs=1e-15)
    # satellite input bias from the independent entropy-scan oracle
    oracle_p = entropy_inverse_scan(1 - 2.5 / 6.5)
    assert plan.params["satellite_bias"] == pytest.approx(oracle_p, abs=1e-4)


def test_piggyback_one_rejects_bad_t(fig3):
    with pytest.raises(IndexOutOfRange):
        build_piggyback_one(fig3, 0, EPS)
    with pytest.raises(IndexOutOfRange):
        build_piggyback_one(fig3, 9, EPS)


def test_gated_schemes_reject_strong_eavesdropper():
    s = ChannelScenario(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.2, D=30)
    for build in (
        build_wiretap_cached_keys,
        build_superposition_jamming,
        build_piggyback_two,
    ):
        with pytest.raises(NotApplicable):
            build(s, EPS)
    with pytest.raises(NotApplicable):
        build_piggyback_one(s, 1, EPS)


def test_all_receiver_schemes_work_for_any_eavesdropper():
    s = ChannelScenario(K_w=3, K_s=2, delta_w=0.7, delta_s=0.4, delta_z=0.1, D=10)
    for plan in (
        build_cached_keys_all(s, EPS),
        build_piggyback_allkeys(s, 1, EPS),
        build_symmetric_piggyback(s, 2, 1, EPS),
    ):
        rep = verify_plan(plan, s)
        assert rep.passed, (plan.scheme_name, rep.to_json())


def test_nonpositive_eps_rejected(fig3):
    for bad in (0.0, -0.01):
        with pytest.raises(InvalidParameter):
            build_wiretap_cached_keys(fig3, bad)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_backoff_below_rate_tolerance_rejected(fig3, name):
    # below RATE_TOL the backoff is lost to rounding and RATE fails
    builder = BUILDERS[name]
    params = {"piggyback-one": (1,), "piggyback-allkeys": (1,),
              "symmetric-piggyback": (1, 1)}.get(name, ())
    for bad in (1e-20, 5e-324, RATE_TOL / 2, float("nan")):
        with pytest.raises(InvalidParameter, match="eps"):
            builder(fig3, *params, bad)
    assert verify_plan(builder(fig3, *params, RATE_TOL), fig3).passed


def test_random_backoff_builds_pass_rate_or_raise():
    # every builder either refuses (a documented error) or returns a plan
    # whose RATE check passes, for eps log-uniform over [1e-20, 1e-1]
    rng = random.Random(1012)

    def erasure():
        return rng.choice((0.0, 1.0, round(rng.random(), 6)))

    built = 0
    for _ in range(600):
        K_w, K_s = rng.randint(1, 4), rng.randint(1, 4)
        delta_s, delta_w = sorted((erasure(), erasure()))
        s = ChannelScenario(K_w, K_s, delta_w, delta_s, erasure(),
                            K_w + K_s + rng.randint(1, 4))
        eps = 10 ** rng.uniform(-20, -1)
        name = rng.choice(sorted(BUILDERS))
        params = {"piggyback-one": (rng.randint(1, K_w),),
                  "piggyback-allkeys": (rng.randint(1, K_w),),
                  "symmetric-piggyback": (rng.randint(1, K_w), rng.randint(1, K_s)),
                  }.get(name, ())
        try:
            plan = BUILDERS[name](s, *params, eps)
        except (IndexOutOfRange, InvalidParameter, NotApplicable):
            continue
        rate = next(c for c in verify_plan(plan, s).checks if c.name == "RATE")
        assert rate.passed, (name, params, eps, s, rate)
        built += 1
    assert built >= 60


def test_oversized_eps_rejected(fig3):
    with pytest.raises(InvalidParameter):
        build_wiretap_cached_keys(fig3, 1.0)


def test_claimed_rates_match_corner_formulas(fig3_shared):
    fig3 = fig3_shared
    wo = {p.label: p for p in points_weak_only(fig3)}
    ac = {p.label: p for p in points_all_cached(fig3)}
    corners = wo | ac
    for eps in (1e-6, 1e-3):
        for plan in all_fig3_plans(fig3, eps):
            corner = corners[plan.claimed_point.label]
            assert plan.claimed_point.R == pytest.approx(
                corner.R - eps, abs=1e-12
            ), plan.scheme_name


def test_cache_usage_identities_fig3(fig3):
    D, Kw, Ks = fig3.D, fig3.K_w, fig3.K_s
    wo = {p.label: p for p in points_weak_only(fig3)}
    ac = {p.label: p for p in points_all_cached(fig3)}
    eps = EPS

    def usage(plan):
        u = cache_usage_by_class(plan, fig3)
        return u.M_w, u.M_s

    mw, ms = usage(build_wiretap_cached_keys(fig3, eps))
    assert mw == pytest.approx(wo["cached-keys"].M_w, abs=1e-12)
    assert ms == 0.0

    mw, ms = usage(build_superposition_jamming(fig3, eps))
    assert mw == pytest.approx(
        min((1 - fig3.delta_z) / Kw, wo["superposition-jamming"].M_w - eps),
        abs=1e-12,
    )

    for t in range(1, Kw):
        mw, ms = usage(build_piggyback_one(fig3, t, eps))
        slack = D * (t - 0.5) / Kw * eps
        assert mw == pytest.approx(
            wo[f"piggyback-one[t={t}]"].M_w - slack, abs=1e-12
        ), t
        assert ms == 0.0

    mw, ms = usage(build_piggyback_two(fig3, eps))
    assert mw == pytest.approx(wo["piggyback-two"].M_w - D * eps / 2, abs=1e-12)

    mw, ms = usage(build_cached_keys_all(fig3, eps))
    assert mw == pytest.approx(ac["all:cached-keys"].M_w, abs=1e-12)
    assert ms == pytest.approx(ac["all:cached-keys"].M_s, abs=1e-12)

    for t in range(1, Kw):
        mw, ms = usage(build_piggyback_allkeys(fig3, t, eps))
        slack = D * (t - 0.5) / Kw * eps
        assert mw == pytest.approx(
            ac[f"all:piggyback-keys[t={t}]"].M_w - slack, abs=1e-12
        ), t
        assert ms == pytest.approx(ac[f"all:piggyback-keys[t={t}]"].M_s, abs=1e-12)

    for t_w, t_s in [(1, 1), (2, 3), (5, 15)]:
        mw, ms = usage(build_symmetric_piggyback(fig3, t_w, t_s, eps))
        pt = ac[f"all:pair[tw={t_w},ts={t_s}]"]
        assert mw == pytest.approx(pt.M_w - D * t_w / (2 * Kw) * eps, abs=1e-12)
        assert ms == pytest.approx(pt.M_s - D * t_s / (2 * Ks) * eps, abs=1e-12)


def _remove_key_atom(plan, receiver, label):
    new_placement = dict(plan.placement)
    new_placement[receiver] = tuple(
        a for a in plan.placement[receiver] if not (a.kind == "key" and a.label == label)
    )
    return edited(plan, placement=new_placement)


def test_mutation_removing_any_key_breaks_decode_or_secrecy(fig3_shared, fig3_plans):
    fig3 = fig3_shared
    rng = random.Random(31337)
    plans = fig3_plans
    candidates = []
    for pi, plan in enumerate(plans):
        for r, atoms in plan.placement.items():
            for a in atoms:
                if a.kind == "key":
                    candidates.append((pi, r, a.label))
    assert len(candidates) >= 50
    detected = 0
    sample = rng.sample(candidates, 50)
    for pi, r, label in sample:
        mutated = _remove_key_atom(plans[pi], r, label)
        rep = verify_plan(mutated, fig3)
        if not rep.check("DECODE").passed or not rep.check("SECRECY").passed:
            detected += 1
    assert detected == len(sample)


def test_mutation_zero_bin_rate_breaks_secrecy(fig3):
    plan = build_wiretap_cached_keys(fig3, EPS)
    segments = []
    for seg in plan.schedule:
        units = tuple(
            u._replace(bin_rate=0.0) if u.bin_rate > 0 else u
            for u in seg.units
        )
        segments.append(seg._replace(units=units))
    mutated = edited(plan, schedule=tuple(segments))
    rep = verify_plan(mutated, fig3)
    assert not rep.check("SECRECY").passed


def test_secrecy_check_monotone_in_key_rates(fig3):
    for plan in (
        build_piggyback_one(fig3, 2, EPS),
        build_symmetric_piggyback(fig3, 1, 2, EPS),
    ):
        base = verify_plan(plan, fig3).check("SECRECY").margin
        for label in list(plan.key_rates)[:5]:
            boosted = edited(
                plan, key_rates={**plan.key_rates, label: plan.key_rates[label] * 2}
            )
            rep = verify_plan(boosted, fig3)
            assert rep.check("SECRECY").passed
            assert rep.check("SECRECY").margin >= base - 1e-15


def test_placement_is_demand_agnostic(fig3_plans):
    # placement labels index subsets/receivers, never demands
    grammar = re.compile(r"^(A|B|Ar|Br)(\[[0-9,]*\])?$")
    for plan in fig3_plans:
        for atoms in plan.placement.values():
            for a in atoms:
                if a.kind == "file_part":
                    assert grammar.match(a.label), a.label


def test_every_key_is_cached_somewhere(fig3_plans):
    for plan in fig3_plans:
        cached = {
            a.label
            for atoms in plan.placement.values()
            for a in atoms
            if a.kind == "key"
        }
        assert set(plan.key_rates) == cached, plan.scheme_name


def test_symmetric_subphase2_period_pairing():
    # 3 weak + 2 strong receivers: six pairwise periods
    s = ChannelScenario(K_w=3, K_s=2, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=6)
    plan = build_symmetric_piggyback(s, 2, 1, EPS)
    periods = [seg.id[1] for seg in plan.schedule if seg.id[0] == 2]
    assert sorted(periods) == [(i, j) for i in (1, 2, 3) for j in (4, 5)]
    rep = verify_plan(plan, s)
    assert rep.passed


def test_plan_records_are_immutable(fig3_plans):
    # Builders share records, and the mappings inside units, between
    # plans and units: none of them may change in place.
    for plan in fig3_plans:
        seg = plan.schedule[0]
        unit = seg.units[0]
        atom = next(iter(plan.placement.values()))[0]
        for record in (atom, unit, seg):
            for name in type(record)._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                record.extra = 1
        changed = unit._replace(bin_rate=unit.bin_rate + 1.0)
        assert changed.bin_rate == unit.bin_rate + 1.0 and changed != unit
    bare = DeliveryUnit(parts=((1, "full"),), part_rates=(0.1,))
    for mapping in (bare.decode_load, bare.context):
        assert mapping == {}
        with pytest.raises(TypeError):
            mapping[1] = 0.0


def test_plan_json_round_trips(fig3):
    plan = build_piggyback_one(fig3, 1, EPS)
    obj = json.loads(plan.to_json())
    assert obj["scheme"] == "piggyback-one"
    assert obj["claimed_point"]["label"] == "piggyback-one[t=1]"
    assert len(obj["schedule"]) == len(plan.schedule)


def test_builders_registry_complete():
    assert sorted(BUILDERS) == [
        "cached-keys-all",
        "piggyback-allkeys",
        "piggyback-one",
        "piggyback-two",
        "superposition-jamming",
        "symmetric-piggyback",
        "wiretap-cached-keys",
    ]


@pytest.mark.parametrize("D", [3, 100000])
def test_repeated_xor_label_fails_decode_for_any_library(D):
    # Both receivers ask for file 1 under the all-ones demand, so an XOR of
    # (1, "full") and (2, "full") merges their contributions.  A sampled
    # demand sweep (D^K > 10^6) almost never draws that demand.
    s = ChannelScenario(K_w=1, K_s=1, delta_w=0.5, delta_s=0.2, delta_z=0.9, D=D)
    plan = build_cached_keys_all(s, 1e-3)
    seg0 = plan.schedule[0]
    R = plan.claimed_point.R
    extra = seg0.units[0]._replace(
        parts=((1, "full"), (2, "full")), part_rates=(R, R)
    )
    bad_seg = seg0._replace(units=seg0.units + (extra,))
    bad = edited(plan, schedule=(bad_seg,) + plan.schedule[1:])
    assert verify_plan(plan, s).check("DECODE").passed
    check = verify_plan(bad, s).check("DECODE")
    assert not check.passed
    assert check.detail == f"demand (1, 1): merged contributions in segment {seg0.id}"
