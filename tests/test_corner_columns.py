"""The columnar corner families against the scalar closed forms.

``tests/oracles.py`` keeps the families as they were built one
:class:`RateMemoryPoint` at a time (``*_reference``).  Every family's
points, read from its columns, must equal those bit for bit: the same
labels in the same order, the same skips and the same float bits.  The
last test bounds the memory of a large global curve, which the columns
keep small.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given

import oracles
from secache import ChannelScenario, NotApplicable, Tradeoff, corners
from secache.cli import PRESETS
from strategies import scenarios
from test_cli import boundary_scenarios
from test_corners import OVERFLOWING
from test_ub_golden import _random_scenarios

FAMILIES = (
    (corners.points_weak_only, oracles.points_weak_only_reference),
    (corners.points_separate, oracles.points_separate_reference),
    (corners.points_all_cached, oracles.points_all_cached_reference),
    (lambda s: corners.points_all_cached(s, "first-arg"),
     lambda s: oracles.points_all_cached_reference(s, "first-arg")),
    (corners.points_symmetric, oracles.points_symmetric_reference),
)


def _bits(family, s):
    """The family's points as (label, R, M_w, M_s) with the floats in hex,
    which tells every bit apart (-0.0 from 0.0 too); or the gate's
    message."""
    try:
        return [(p.label, *(float.hex(v) for v in (p.R, p.M_w, p.M_s))) for p in family(s)]
    except NotApplicable as gate:
        return str(gate)


def _assert_columns_match(s, families=FAMILIES):
    for columns, reference in families:
        assert _bits(columns, s) == _bits(reference, s), s


def test_presets_match_the_scalar_forms():
    for name in ("fig3", "fig4", "fig5"):
        _assert_columns_match(ChannelScenario(**PRESETS[name]))


def test_random_and_boundary_scenarios_match_the_scalar_forms():
    cases = [s for _, s, _, _ in _random_scenarios()]
    cases += [ChannelScenario(**sc) for sc in boundary_scenarios()]
    for s in cases:
        _assert_columns_match(s)


@given(scenarios(max_k=8))
def test_hypothesis_scenarios_match_the_scalar_forms(s):
    _assert_columns_match(s)


@pytest.mark.parametrize("kwargs", OVERFLOWING)
def test_overflowing_scenarios_skip_the_same_corners(kwargs):
    _assert_columns_match(ChannelScenario(**kwargs), FAMILIES[2:3] + FAMILIES[4:])


def test_a_library_past_int64_keeps_exact_integer_factors():
    """D K^4 past int64: the integer factors are Python integers, as in
    the scalar forms."""
    _assert_columns_match(ChannelScenario(K_w=7, K_s=6, delta_w=0.6, delta_s=0.2,
                                          delta_z=0.7, D=10**17))


def test_global_curve_memory_is_bounded():
    s = ChannelScenario(K_w=300, K_s=300, delta_w=0.5, delta_s=0.4, delta_z=0.45, D=900)
    Tradeoff(ChannelScenario(**PRESETS["fig3"])).global_curve  # imports, caches
    tracemalloc.start()
    try:
        Tradeoff(s).global_curve
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


def test_curve_vertices_keep_their_corner_points():
    """Each vertex of a curve over corner records names its (family,
    index): the labelled point there, at the curve's memory, is the vertex."""
    s = ChannelScenario(**PRESETS["fig5"])
    lower = Tradeoff(s)
    at = {}
    for family, memory in ((corners.points_weak_only, lambda p: s.K_w * p.M_w),
                           (corners.points_all_cached, lambda p: s.K_w * p.M_w + s.K_s * p.M_s),
                           (corners.points_symmetric, lambda p: s.K * p.M_w)):
        at.update({p.label: (memory(p), p.R) for p in family(s)})
    curve = lower.global_curve
    assert [at[name.format(*index)] for name, index in curve.sources] == list(curve.vertices)
    weak = {p.label: (p.M_w, p.R) for p in corners.points_weak_only(s)}
    curve = lower.weak_curve
    assert [weak[name.format(*index)] for name, index in curve.sources] == list(curve.vertices)
