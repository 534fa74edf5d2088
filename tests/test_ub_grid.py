"""The batched converse ``ub_best_grid`` against the pair-by-pair sweep.

``oracles.ub_best_sweep`` is the scalar sweep the batch replaced, kept
verbatim.  Reports must be equal field for field, beta witness included.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from oracles import ub_best_sweep
from secache import CacheSizes, ChannelScenario, bounds, ub_best, ub_best_grid, ub_split
from secache.bounds import BoundFamily
from secache.cli import PRESETS
from secache.model import TOL


def _erasure(rng: random.Random) -> float:
    return rng.choice((0.0, 1.0, rng.random()))


def _memory(rng: random.Random) -> float:
    return rng.choice((0.0, rng.uniform(0.0, 0.05), rng.uniform(0.0, 5.0)))


def _random_cases(count, seed, k_max=24):
    rng = random.Random(seed)
    for _ in range(count):
        # class sizes and grid lengths skewed small: the sweep oracle is slow
        K_w = int((k_max + 1) * rng.random() ** 4)
        K_s = int((k_max + 1) * rng.random() ** 4) or (0 if K_w else 1)
        delta_s, delta_w = sorted((_erasure(rng), _erasure(rng)))
        s = ChannelScenario(K_w, K_s, delta_w, delta_s, _erasure(rng),
                            K_w + K_s + rng.randint(1, 6))
        points = 1 + int(40 * rng.random() ** 4)
        yield s, [CacheSizes(_memory(rng), _memory(rng)) for _ in range(points)]


def _extreme_cases(count, seed):
    """Capacity factors of 0 (delta = 1) and memories whose sums overflow
    to inf (and their differences to nan)."""
    rng = random.Random(seed)
    for _ in range(count):
        K_w, K_s = rng.randint(0, 6), rng.randint(0, 6)
        K_s = K_s or (0 if K_w else 1)
        delta_w = rng.choice((1.0, rng.random()))
        delta_s = rng.choice((1.0, rng.random())) if delta_w == 1.0 else delta_w * rng.random()
        s = ChannelScenario(K_w, K_s, delta_w, delta_s, _erasure(rng), K_w + K_s + rng.randint(1, 6))
        memory = lambda: rng.choice((0.0, rng.uniform(0.0, 5.0), 1e300, 9e307, 1.7e308))
        yield s, [CacheSizes(memory(), memory()) for _ in range(rng.randint(1, 8))]


def _split_values(s, c):
    return [ub_split(s, c, k_w, k_s).value
            for k_w in range(s.K_w + 1) for k_s in range(s.K_s + 1) if k_w or k_s]


def _has_near_tie(s, c):
    """Whether a split value lies in (m, m + TOL], m the split minimum."""
    vals = _split_values(s, c)
    return any(min(vals) < v and v - TOL <= min(vals) for v in vals)


def _near_tie_cases(count, seed):
    """Points within a few TOL of an M_w where the first split argmin
    changes pair, found by bisection: there two split values nearly tie."""
    rng = random.Random(seed)
    while count:
        K_w, K_s = rng.randint(1, 5), rng.randint(1, 5)
        delta_s, delta_w = sorted((rng.random(), rng.random()))
        s = ChannelScenario(K_w, K_s, delta_w, delta_s, rng.random(), K_w + K_s + rng.randint(1, 6))
        m_s = rng.choice((0.0, rng.uniform(0.0, 1.0)))

        def first(m_w):
            vals = _split_values(s, CacheSizes(m_w, m_s))
            return vals.index(min(vals))

        lo, hi = 0.0, rng.uniform(0.1, 5.0)
        if first(lo) == first(hi):
            continue
        for _ in range(50):  # hi - lo ends below 5 * 2**-50 < TOL / 4
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if first(mid) == first(lo) else (lo, mid)
        count -= 1
        yield s, [CacheSizes(lo + j * TOL / 4, m_s) for j in range(-4, 5) if lo + j * TOL / 4 >= 0]


def test_grid_matches_sweep_on_random_scenarios():
    cases = list(_random_cases(500, seed=8080))
    assert max(max(s.K_w, s.K_s) for s, _ in cases) == 24
    assert {len(caches) for _, caches in cases} >= {1, 40}
    extreme = list(_extreme_cases(150, seed=8081))
    assert any(s.delta_s == 1.0 for s, _ in extreme)
    assert any(s.delta_w == 1.0 > s.delta_s for s, _ in extreme)
    assert any(c.M_w * s.K_w == float("inf") for s, caches in extreme for c in caches)
    ties = list(_near_tie_cases(40, seed=8082))
    assert sum(_has_near_tie(s, c) for s, caches in ties for c in caches) >= 40
    for s, caches in cases + extreme + ties:
        assert ub_best_grid(s, caches) == [ub_best_sweep(s, c) for c in caches], s


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_small_blocks_match_one_block(monkeypatch, chunk):
    # chunk < K puts one pair in a block, so the scan carries its best
    # across pair blocks as well as point blocks
    cases = list(_random_cases(60, seed=chunk, k_max=8))
    cases += list(_extreme_cases(20, seed=chunk)) + list(_near_tie_cases(10, seed=chunk))
    whole = [ub_best_grid(s, caches) for s, caches in cases]
    monkeypatch.setattr(bounds, "GRID_CHUNK", chunk)
    assert [ub_best_grid(s, caches) for s, caches in cases] == whole


def test_presets_match_sweep():
    for name in ("fig3", "fig4", "fig5"):
        s = ChannelScenario(**PRESETS[name])
        caches = [CacheSizes(m_w, m_s) for m_w in (0.0, 0.01, 0.2, 1.0, 4.0)
                  for m_s in (0.0, 0.05, 1.0)]
        assert ub_best_grid(s, caches) == [ub_best_sweep(s, c) for c in caches]


def test_empty_grid():
    assert ub_best_grid(ChannelScenario(**PRESETS["fig3"]), []) == []


@pytest.mark.parametrize("candidates,winner", [
    ([1.0, 1.0 - 1.5 * TOL, 1.0 - 2 * TOL], 1),  # the argmin is blocked
    ([2.0, 1.0, 1.0, 1.0], 1),  # exact ties keep the first
    ([1.0, 1.0, 0.5, 0.5], 2),
    ([0.3], 0),
    ([0.5, float("nan"), 0.2], 2),  # NaN never wins after the first
    ([float("nan"), 0.1], 0),  # and never loses from it
    ([float("inf"), float("inf")], 0),
])
def test_scan_winners_follows_the_sequential_rule(candidates, winner):
    # one row of candidate values per cache point, in sweep order
    vals = np.array([candidates])
    assert bounds._scan_winners(vals).tolist() == [winner]
    # points are independent
    both = np.vstack((vals, np.arange(len(candidates), 0, -1.0)))
    assert bounds._scan_winners(both).tolist() == [winner, len(candidates) - 1]


def test_fig5_long_grid_working_set_is_bounded():
    s = ChannelScenario(**PRESETS["fig5"])
    caches = [CacheSizes(0.01 * i, 0.05) for i in range(501)]
    ub_best_grid(s, caches[:2])  # imports and first-call set-up
    tracemalloc.start()
    try:
        reports = ub_best_grid(s, caches)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert reports == [ub_best(s, c) for c in caches]


def test_cache_sharing_pass_runs_only_where_it_can_win(monkeypatch):
    rows = []
    cache_sharing = bounds._PairBlock._cache_sharing

    def counted(block, mw, ms, total):
        rows.append(len(mw))
        return cache_sharing(block, mw, ms, total)

    monkeypatch.setattr(bounds._PairBlock, "_cache_sharing", counted)
    # points where the split bound wins, by far enough for the screen
    split_wins = {"fig3": [(0.0, 0.0), (0.0, 0.05), (0.5, 0.0), (4.0, 0.0)],
                  "fig5": [(0.0, 0.0), (0.0, 1.0), (4.0, 0.0), (4.0, 0.02)]}
    for name, points in split_wins.items():
        s = ChannelScenario(**PRESETS[name])
        caches = [CacheSizes(*p) for p in points]
        sweep = [ub_best_sweep(s, c) for c in caches]
        assert {rep.family for rep in sweep} == {BoundFamily.SPLIT}
        assert ub_best_grid(s, caches) == sweep
        assert [ub_best(s, c) for c in caches] == sweep
    assert rows == []
    for name in ("fig3", "fig5"):
        s = ChannelScenario(**PRESETS[name])
        c = CacheSizes(0.05, 0.02)
        assert ub_best_sweep(s, c).family is BoundFamily.CACHE_SHARING
        assert ub_best(s, c) == ub_best_sweep(s, c)
    assert len(rows) >= 2 and min(rows) == 1


@pytest.mark.parametrize("chunk", [None, 300])
def test_screen_and_sweep_build_each_pair_block_once(monkeypatch, chunk):
    if chunk is not None:  # fig5's 230 pairs in blocks of 10
        monkeypatch.setattr(bounds, "GRID_CHUNK", chunk)
    built, split_rows = [], []
    init, split = bounds._Pairs.__init__, bounds._Pairs._split

    def counted_init(pairs, s, p0, p1):
        built.append(p0)
        init(pairs, s, p0, p1)

    def counted_split(pairs, mw, total):
        split_rows.append(len(mw))
        return split(pairs, mw, total)

    monkeypatch.setattr(bounds._Pairs, "__init__", counted_init)
    monkeypatch.setattr(bounds._Pairs, "_split", counted_split)
    s = ChannelScenario(**PRESETS["fig5"])
    size = max(1, bounds.GRID_CHUNK // s.K)
    starts = list(range(0, (s.K_w + 1) * (s.K_s + 1) - 1, size))
    swept = CacheSizes(0.05, 0.02)  # cache sharing wins: the sweep runs
    assert ub_best(s, swept) == ub_best_sweep(s, swept)
    assert built == starts
    # one point: the sweep reuses the screen's split values
    assert split_rows == [1] * len(starts)
    # more pair x point elements than GRID_CHUNK: the sweep computes the
    # split values of its points again, from the same blocks
    long_grid = [CacheSizes(0.01 * i, 0.02) for i in range(200)]
    built.clear()
    reports = ub_best_grid(s, long_grid)
    assert built == starts
    assert reports[::20] == [ub_best_sweep(s, c) for c in long_grid[::20]]
