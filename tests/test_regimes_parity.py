"""``exact_regimes`` and the report serialisers against their references.

``tests/oracles.py::exact_regimes_reference`` certifies each claim in its
own sample, compare and append block, and ``regime_report_dict`` and
``upper_bound_dict`` list every report field by hand.  The JSON strings
must be equal, NaN deviations included.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from oracles import exact_regimes_reference, regime_report_dict, upper_bound_dict
from strategies import scenarios
from test_cli import boundary_scenarios
from secache import CacheSizes, ChannelScenario, bounds, exact_regimes
from secache.bounds import BoundFamily, UpperBoundReport
from secache.cli import PRESETS


def _assert_parity(s: ChannelScenario) -> None:
    got = json.dumps(exact_regimes(s).to_dict())
    assert got == json.dumps(regime_report_dict(exact_regimes_reference(s))), s


def test_regimes_match_reference_on_boundary_scenarios():
    for sc in boundary_scenarios():
        _assert_parity(ChannelScenario(**sc))


@settings(max_examples=60, deadline=None)
@given(scenarios(max_k=6))
def test_regimes_match_reference_on_random_scenarios(s):
    _assert_parity(s)


def test_point_claim_keeps_a_nan_converse(monkeypatch):
    """The point claim's deviation is NaN when the converse is: its max
    starts from |lower - upper|, not from 0.0.  The converse is NaN at
    every point, in the code and in the reference alike."""
    monkeypatch.setattr(
        bounds, "ub_best_grid",
        lambda s, caches: [UpperBoundReport(float("nan"), BoundFamily.SPLIT, s.K_w, s.K_s)
                           for _ in caches])
    s = ChannelScenario(**PRESETS["fig3"])
    _assert_parity(s)
    point = next(c for c in exact_regimes(s).claims if c.name == "all-cached-keys-point")
    assert point.max_deviation != point.max_deviation and point.exact is False


@pytest.mark.parametrize("preset", ["fig3", "fig4", "fig5"])
def test_upper_bound_report_matches_reference(preset):
    s = ChannelScenario(**PRESETS[preset])
    for mw, ms in ((0.0, 0.0), (0.05, 0.02), (0.3, 0.0), (40.0, 40.0)):
        rep = bounds.ub_best(s, CacheSizes(mw, ms))
        assert json.dumps(rep.to_dict()) == json.dumps(upper_bound_dict(rep))
    bare = UpperBoundReport(0.5, BoundFamily.CACHE_SHARING, 1, 0)
    assert json.dumps(bare.to_dict()) == json.dumps(upper_bound_dict(bare))
