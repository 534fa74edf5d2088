"""The output-sensitive surface build against the build it replaced.

``oracles.surface_planes_bruteforce`` solves every triple of the
candidate set through a new point; :class:`secache.Surface` solves only
the triples the double-description rule proposes.  The planes must be
equal bit for bit, on every point set below.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given

import oracles
from secache import ChannelScenario, Surface, Tradeoff, hull
from secache.cli import PRESETS
from strategies import scenarios
from test_cli import boundary_scenarios
from test_hull import _degenerate_point_sets, _surface_points
from test_ub_golden import _random_scenarios


def _assert_same_planes(points):
    assert np.array_equal(Surface(points).planes, oracles.surface_planes_bruteforce(points))


def test_presets_match_bruteforce(fig3, fig4, fig5):
    for s in (fig3, fig4, fig5):
        _assert_same_planes(_surface_points(s))


def test_degenerate_sets_match_bruteforce():
    for seed, count in ((2024, 240), (31, 120)):
        for points in _degenerate_point_sets(seed=seed, count=count):
            _assert_same_planes(points)


def test_scenarios_match_bruteforce():
    cases = [s for _, s, _, _ in _random_scenarios()]
    cases += [ChannelScenario(**sc) for sc in boundary_scenarios()]
    built = 0
    for s in cases:
        points = _surface_points(s)
        if points is not None:
            _assert_same_planes(points)
            built += 1
    assert built > 250


@given(scenarios(max_k=8))
def test_hypothesis_scenarios_match_bruteforce(s):
    points = _surface_points(s)
    if points is not None:
        _assert_same_planes(points)


def _traced_peak(s: ChannelScenario) -> int:
    Tradeoff(ChannelScenario(**PRESETS["fig3"])).surface  # imports, caches
    tracemalloc.start()
    try:
        Tradeoff(s).surface
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_set_is_bounded():
    large = ChannelScenario(K_w=40, K_s=40, delta_w=0.7, delta_s=0.2, delta_z=0.8, D=120)
    for s in (ChannelScenario(**PRESETS["fig5"]), large):
        peak = _traced_peak(s)
        assert peak < 4 * 2**20, (s, peak)


def test_solves_a_quarter_of_the_bruteforce_triples(monkeypatch, fig5):
    solved, tried = [], []
    solve = hull._facet_slopes

    def counted(M, R, T, *against):
        solved.append(len(T))
        return solve(M, R, T, *against)

    bruteforce = oracles._facet_slopes_bruteforce

    def counted_bruteforce(M, R, first):
        # every pair below each pivot k >= first
        tried.append(sum(k * (k - 1) // 2 for k in range(max(first, 2), len(R))))
        return bruteforce(M, R, first)

    monkeypatch.setattr(hull, "_facet_slopes", counted)
    monkeypatch.setattr(oracles, "_facet_slopes_bruteforce", counted_bruteforce)
    _assert_same_planes(_surface_points(fig5))
    assert 0 < 4 * sum(solved) <= sum(tried), (sum(solved), sum(tried))


def test_small_chunks_match_bruteforce(monkeypatch, fig3, fig4, fig5):
    # Below the default SURFACE_CHUNK the build streams a step's candidate
    # triples in several blocks, and cuts its planes and triples into more
    # row blocks, a last lone row folded into the one before.  The planes
    # must not move.
    sets = [_surface_points(s) for s in (fig3, fig4, fig5)]
    sets += list(_degenerate_point_sets(seed=7, count=40))
    streamed, folded = [], []
    candidates, blocks = hull._candidates, hull._blocks

    def counted_candidates(*args):
        out = list(candidates(*args))
        streamed.append(len(out) > 1)
        return iter(out)

    def counted_blocks(rows, width):
        out = blocks(rows, width)
        # every block but a folded last one has the first one's length
        folded.append(len(out) > 1 and out[-1].stop - out[-1].start > out[0].stop - out[0].start)
        return out

    monkeypatch.setattr(hull, "_candidates", counted_candidates)
    monkeypatch.setattr(hull, "_blocks", counted_blocks)
    for chunk in (512, 2048, 8192):
        monkeypatch.setattr(hull, "SURFACE_CHUNK", chunk)
        for points in sets:
            _assert_same_planes(points)
    assert any(streamed) and any(folded)
