"""Hypothesis strategies shared by the property tests, and a helper that
changes a plan."""

from __future__ import annotations

import dataclasses

from hypothesis import strategies as st

from secache import ChannelScenario, SchemePlan
from secache.schemes import PlanOrbits

#: An erasure probability: a boundary value or a uniform draw.
erasures = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@st.composite
def scenarios(draw, max_k: int = 5) -> ChannelScenario:
    """A valid scenario with K_w and K_s in 0..max_k (K >= 1), erasures from
    :data:`erasures` and a library a few files above K."""
    K_w = draw(st.integers(0, max_k))
    K_s = draw(st.integers(0 if K_w else 1, max_k))
    delta_s, delta_w = sorted((draw(erasures), draw(erasures)))
    D = K_w + K_s + draw(st.integers(1, 5))
    return ChannelScenario(K_w, K_s, delta_w, delta_s, draw(erasures), D)


def edited(plan: SchemePlan, **changes) -> SchemePlan:
    """``plan`` with ``changes`` to its fields, ``schedule`` and
    ``placement`` among them.  A changed plan claims no symmetry, so its
    orbits are rebuilt from its schedule and placement by
    :meth:`PlanOrbits.explicit`."""
    schedule = changes.pop("schedule", plan.schedule)
    placement = changes.pop("placement", plan.placement)
    receivers = sorted(r for members in plan.orbits.classes for r in members)
    orbits = PlanOrbits.explicit(receivers, schedule, placement)
    return dataclasses.replace(plan, orbits=orbits, **changes)
