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
from secache import CacheSizes, ChannelScenario, bounds, ub_best, ub_best_grid
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


def test_grid_matches_sweep_on_random_scenarios():
    cases = list(_random_cases(500, seed=8080))
    assert max(max(s.K_w, s.K_s) for s, _ in cases) == 24
    assert {len(caches) for _, caches in cases} >= {1, 40}
    for s, caches in cases:
        assert ub_best_grid(s, caches) == [ub_best_sweep(s, c) for c in caches], s


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_small_blocks_match_one_block(monkeypatch, chunk):
    # chunk < K puts one pair in a block, so the scan carries its best
    # across pair blocks as well as point blocks
    cases = list(_random_cases(60, seed=chunk, k_max=8))
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
