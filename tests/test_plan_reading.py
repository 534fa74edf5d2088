"""One reading of a plan, against the full scan, under per-receiver edits.

A builder plan whose per-receiver field is replaced
(``dataclasses.replace`` on ``message_parts`` or ``virtual_cached``)
keeps its orbits and families, but claims no symmetry
(``schemes._symmetry``): ``verify_plan`` checks every receiver and the
simulation compile peels every member.  Whatever the edit, and at
whichever receiver, the verify report must be the full scan's
(``oracles.verify_plan_explicit``), and DECODE must report a part that
cannot be obtained exactly when the compile finds a wanted part with no
provider (``_Compiled.starved``): the peel rule's two readers agree.
"""

from __future__ import annotations

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import exact, verify_plan_explicit
from strategies import scenarios
from secache import BUILDERS, ConfigError, IndexOutOfRange, InvalidParameter, NotApplicable
from secache import simulate
from secache.schemes import verify_plan

DOCUMENTED = (IndexOutOfRange, InvalidParameter, NotApplicable)
EDITS = ("add part", "drop part", "change rate", "add virtual", "drop virtual")


@st.composite
def edited_plans(draw):
    """(scenario, builder plan with K <= 8, the plan with one per-receiver
    edit at any receiver)."""
    s = draw(scenarios(max_k=4))
    name = draw(st.sampled_from(sorted(BUILDERS)))
    if name in ("piggyback-one", "piggyback-allkeys"):
        args = (draw(st.integers(1, max(1, s.K_w - 1))),)
    elif name == "symmetric-piggyback":
        args = (draw(st.integers(1, max(1, s.K_w))), draw(st.integers(1, max(1, s.K_s))))
    else:
        args = ()
    try:
        plan = BUILDERS[name](s, *args, draw(st.sampled_from((1e-4, 0.01))))
    except DOCUMENTED:
        assume(False)
    r = draw(st.integers(1, s.K))
    parts = tuple(plan.message_parts.get(r, ()))
    virtual = plan.virtual_cached.get(r, frozenset())
    labels = sorted({label for ps in plan.message_parts.values() for label, _ in ps}
                    | {a.label for atoms in plan.placement.values() for a in atoms})
    edit = draw(st.sampled_from(EDITS))
    if edit in ("drop part", "change rate"):
        assume(parts)
        i = draw(st.integers(0, len(parts) - 1))
        if edit == "drop part":
            parts = parts[:i] + parts[i + 1:]
        else:
            label, rate = parts[i]
            rate = draw(st.sampled_from((rate / 2, rate * 2, rate + 1e-3)))
            parts = parts[:i] + ((label, rate),) + parts[i + 1:]
    elif edit == "add part":
        label = draw(st.sampled_from(["nowhere", *labels]))
        parts += ((label, draw(st.sampled_from([0.01, *(rate for _, rate in parts)]))),)
    elif edit == "add virtual":
        virtual |= {draw(st.sampled_from(["nowhere", *labels]))}
    else:
        assume(virtual)
        virtual -= {draw(st.sampled_from(sorted(virtual)))}
    if edit.endswith("virtual"):
        changed = dataclasses.replace(plan, virtual_cached={**plan.virtual_cached, r: virtual})
    else:
        changed = dataclasses.replace(plan, message_parts={**plan.message_parts, r: parts})
    return s, changed


@settings(max_examples=150, deadline=2000)
@given(edited_plans())
def test_edited_plans_verify_as_the_full_scan_and_starve_as_decode_says(case):
    s, plan = case
    got = verify_plan(plan, s)
    assert got.to_json() == verify_plan_explicit(plan, s, total=exact).to_json()
    try:
        starved = simulate._compile(plan, s, 10**9).starved
    except ConfigError:  # a segment of fraction 0 that carries units
        return
    assert ("cannot obtain part" in got.check("DECODE").detail) == starved
