import dataclasses
import json

import pytest

from secache import (
    ChannelScenario,
    InvalidScenario,
    validate_scenario,
    zero_cache_capacity,
)


def test_fig3_scenario_valid(fig3):
    assert validate_scenario(fig3) is fig3


def test_erasure_ordering_rejected():
    with pytest.raises(InvalidScenario, match="ordering"):
        ChannelScenario(K_w=5, K_s=15, delta_w=0.3, delta_s=0.5, delta_z=0.8, D=30)


def test_library_size_rejected():
    with pytest.raises(InvalidScenario, match="library"):
        ChannelScenario(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=10)


def test_at_least_one_receiver():
    with pytest.raises(InvalidScenario, match="receiver"):
        ChannelScenario(K_w=0, K_s=0, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=10)


def test_delta_z_range():
    with pytest.raises(InvalidScenario, match="delta_z"):
        ChannelScenario(K_w=1, K_s=1, delta_w=0.7, delta_s=0.3, delta_z=1.2, D=10)


def test_replace_revalidates(fig3):
    with pytest.raises(InvalidScenario, match="ordering"):
        dataclasses.replace(fig3, delta_s=0.9)


def test_zero_cache_capacity_fig3(fig3):
    # harmonic form: (5/0.5 + 15/0.1)^-1 = 1/160 ... no: sum = 10+150 = 160
    assert zero_cache_capacity(fig3) == pytest.approx(0.0125, abs=1e-12)
    harmonic = 1.0 / sum(
        1.0 / (fig3.delta_z - (fig3.delta_w if k < fig3.K_w else fig3.delta_s))
        for k in range(fig3.K)
    )
    assert zero_cache_capacity(fig3) == pytest.approx(harmonic, abs=1e-15)


def test_zero_cache_capacity_fig5(fig5):
    assert zero_cache_capacity(fig5) == pytest.approx(0.06 / 13, abs=1e-12)


def test_zero_cache_capacity_zero_when_eavesdropper_strong(fig4):
    assert zero_cache_capacity(fig4) == 0.0


def test_zero_cache_monotonicity_grid():
    base = dict(K_w=3, K_s=4, D=20)
    dzs = [0.55, 0.7, 0.85, 1.0]
    dws = [0.3, 0.4, 0.5]
    dss = [0.1, 0.2, 0.3]
    for dz in dzs:
        for dw in dws:
            for ds in dss:
                if ds > dw:
                    continue
                s = ChannelScenario(delta_w=dw, delta_s=ds, delta_z=dz, **base)
                c = zero_cache_capacity(s)
                assert (c > 0) == (dz > dw)
                # nondecreasing in delta_z
                s_up = ChannelScenario(
                    delta_w=dw, delta_s=ds, delta_z=min(1.0, dz + 0.05), **base
                )
                assert zero_cache_capacity(s_up) >= c - 1e-12
                # nonincreasing in delta_w and delta_s
                if dw + 0.05 <= 1.0:
                    s_w = ChannelScenario(
                        delta_w=dw + 0.05, delta_s=ds, delta_z=dz, **base
                    )
                    assert zero_cache_capacity(s_w) <= c + 1e-12
                if ds + 0.05 <= dw:
                    s_s = ChannelScenario(
                        delta_w=dw, delta_s=ds + 0.05, delta_z=dz, **base
                    )
                    assert zero_cache_capacity(s_s) <= c + 1e-12


def test_scenario_json_round_trip(fig3):
    obj = json.loads(fig3.to_json())
    assert set(obj) == {"K_w", "K_s", "delta_w", "delta_s", "delta_z", "D"}
    assert ChannelScenario.from_dict(obj) == fig3
    integral = {**obj, "K_w": 5.0, "K_s": "15", "D": 30.0}
    assert ChannelScenario.from_dict(integral) == fig3


def test_scenario_json_missing_field():
    with pytest.raises(InvalidScenario, match="K_s"):
        ChannelScenario.from_dict({"K_w": 1})


@pytest.mark.parametrize("field,value", [
    ("K_w", 2.7), ("K_s", 15.5), ("D", 30.5), ("K_w", True), ("K_s", False),
    ("D", float("inf")), ("K_w", float("nan")),
])
def test_scenario_json_non_integral_count_rejected(fig3, field, value):
    obj = {**json.loads(fig3.to_json()), field: value}
    with pytest.raises(InvalidScenario, match=field):
        ChannelScenario.from_dict(obj)
