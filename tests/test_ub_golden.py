"""Golden parity for the converse: ``ub_best`` and ``ub_global``.

``golden/ub_best.tsv`` holds one line per case.  ``ub_best`` lines read
``<case id>\\t<value>\\t<family>\\t<k_w>\\t<k_s>`` and ``ub_global`` lines
read ``<case id>\\t<value>``, values written with ``repr``.  The file was
captured while ``ub_cache_sharing`` still found its optimum by bisection
and ``ub_best`` still ran a separate weak-only pass at ``M_s = 0``.  Values
must agree within 1e-12 and witnesses exactly.  Beta witnesses are not
pinned: the bisection's betas carry its stopping error divided by the
capacity factor.  They must not depend on the Python version, though:
every ``ub_best`` witness of these cases is the same with the compensated
builtin ``sum`` of Python 3.12 (``tests/oracles.py::compensated_sum``) in
place of the running one.  Do not regenerate the file to fit new output.

Capture (only against the code the goldens are meant to pin):

    PYTHONPATH=src python3 tests/test_ub_golden.py > tests/golden/ub_best.tsv
"""

from __future__ import annotations

import builtins
import random
import sys
from pathlib import Path

from oracles import compensated_sum
from secache import CacheSizes, ChannelScenario, ub_best, ub_global
from secache.cli import PRESETS

GOLDEN = Path(__file__).parent / "golden" / "ub_best.tsv"

M_W_GRID = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
M_S_GRID = (0.0, 0.01, 0.05, 0.3, 1.0)
M_TOT_GRID = (0.0, 0.05, 0.16, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0)


def _erasure(rng: random.Random) -> float:
    return rng.choice((0.0, 1.0, round(rng.random(), 6)))


def _memory(rng: random.Random) -> float:
    return rng.choice((0.0, round(rng.uniform(0.0, 0.2), 6), round(rng.uniform(0.0, 3.0), 6)))


def _random_scenarios(count=200, seed=20260318):
    rng = random.Random(seed)
    for i in range(count):
        K_w = rng.randint(0, 12)
        K_s = rng.randint(0 if K_w else 1, 12)
        delta_s, delta_w = sorted((_erasure(rng), _erasure(rng)))
        s = ChannelScenario(K_w, K_s, delta_w, delta_s, _erasure(rng),
                            K_w + K_s + rng.randint(1, 6))
        yield f"rand{i}", s, CacheSizes(_memory(rng), _memory(rng)), _memory(rng)


def _cases():
    """(case id, kind, scenario, argument) with kind "best" or "global"."""
    for name in ("fig3", "fig4", "fig5"):
        s = ChannelScenario(**PRESETS[name])
        for m_w in M_W_GRID:
            for m_s in M_S_GRID:
                yield f"{name}|best|mw={m_w}|ms={m_s}", "best", s, CacheSizes(m_w, m_s)
        for m in M_TOT_GRID:
            yield f"{name}|global|m={m}", "global", s, m
    for case_id, s, cache, m in _random_scenarios():
        yield f"{case_id}|best|{s.to_json()}|{cache.M_w}|{cache.M_s}", "best", s, cache
        yield f"{case_id}|global|{s.to_json()}|{m}", "global", s, m


def _rows() -> list[list[str]]:
    rows = []
    for case_id, kind, s, arg in _cases():
        if kind == "best":
            rep = ub_best(s, arg)
            rows.append([case_id, repr(rep.value), rep.family.value, str(rep.k_w), str(rep.k_s)])
        else:
            rows.append([case_id, repr(ub_global(s, arg))])
    return rows


def test_ub_best_and_ub_global_match_golden():
    golden = [ln.split("\t") for ln in GOLDEN.read_text(encoding="utf-8").splitlines()]
    rows = _rows()
    assert [r[0] for r in rows] == [g[0] for g in golden]
    for got, want in zip(rows, golden):
        assert abs(float(got[1]) - float(want[1])) <= 1e-12, (got, want)
        assert got[2:] == want[2:], (got, want)


def test_witnesses_are_the_same_under_a_compensated_sum(monkeypatch):
    # From Python 3.12 the builtin sum of floats is compensated.  The
    # cache-sharing witness took it for its slack, and 27 of these
    # witnesses moved in their last bits.
    cases = [(s, arg) for _, kind, s, arg in _cases() if kind == "best"]
    want = [repr(ub_best(s, cache).beta_witness) for s, cache in cases]
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert [repr(ub_best(s, cache).beta_witness) for s, cache in cases] == want


if __name__ == "__main__":
    sys.stdout.write("\n".join("\t".join(r) for r in _rows()) + "\n")
