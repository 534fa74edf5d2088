"""``SimReport.to_json`` against ``json.dumps`` as the oracle.

The report writer uses the report's fixed shape instead of the json
module; for every ``indent`` it must give exactly what ``json.dumps``
gives for the same dict.  Cases: every builder plan on the presets and on
the small scenarios of ``test_sim_golden.py``, changed plans with a
segment that no receiver is loaded in (a ``null`` erasure rate) and with
segment ids that hold nested tuples, strings and empty tuples.
"""

from __future__ import annotations

import json

import pytest

from strategies import edited
from test_sim_golden import BUILDERS, PAIRS, SCENARIOS, SMALL
from secache import SecacheError, SimConfig, SimReport, run_monte_carlo
from secache.schemes import DeliverySegment, build_symmetric_piggyback

INDENTS = (None, 0, 2, 4)

CASES = [*SCENARIOS, ("small", SMALL), ("pairs", PAIRS)]
PLANS = [*BUILDERS, ("symmetric-piggyback(1,1)",
                     lambda s: build_symmetric_piggyback(s, 1, 1, 0.01))]


def _oracle(rep: SimReport, indent) -> str:
    return json.dumps(
        {
            "n": rep.n,
            "trials": rep.trials,
            "seed": rep.seed,
            "generator": rep.generator,
            "worst_case_error_rate": rep.worst_case_error_rate,
            "per_demand": rep.per_demand,
            "segment_stats": rep.segment_stats,
        },
        indent=indent,
    )


def _assert_matches(rep: SimReport) -> None:
    for indent in INDENTS:
        assert rep.to_json(indent) == _oracle(rep, indent), indent


@pytest.mark.parametrize("s_name,s", CASES, ids=[c[0] for c in CASES])
def test_builder_reports_match_json_dumps(s_name, s):
    written = 0
    for b_name, build in PLANS:
        try:
            plan = build(s)
            rep = run_monte_carlo(plan, s, SimConfig(20000, 3, 5, "random:2"))
        except SecacheError:
            continue
        _assert_matches(rep)
        written += 1
    assert written >= 4


def test_idle_segment_and_nested_ids_match_json_dumps():
    plan = build_symmetric_piggyback(PAIRS, 1, 1, 0.01)
    schedule = list(plan.schedule)
    first = schedule[0]
    schedule[0] = first._replace(id=(first.id[0], ((1, 2), ("x", (3, ())))))
    schedule[1] = schedule[1]._replace(id=(2, ()))
    schedule[2] = schedule[2]._replace(id=('q"uote\\é', 7))
    idle = DeliverySegment((9, "idle"), 0.01, ())
    changed = edited(plan, schedule=tuple(schedule) + (idle,))
    rep = run_monte_carlo(changed, PAIRS, SimConfig(20000, 3, 5, "random:1"))
    assert rep.segment_stats[-1]["empirical_erasure_rate"] is None
    assert rep.segment_stats[0]["segment"] == [1, ((1, 2), ("x", (3, ())))]
    _assert_matches(rep)


def test_empty_lists_match_json_dumps():
    rep = SimReport(n=1, trials=1, seed=0, generator="philox4x64",
                    worst_case_error_rate=0.0)
    _assert_matches(rep)
    rep.per_demand.append({"demand": [], "errors": 0, "trials": 1})
    _assert_matches(rep)
