"""Lazy label families against the eager dicts they replace.

The subset builders place and key one object per receiver subset or
pair, so a plan names C(K, t) labels.  ``schemes.Family`` is such a
family as a read-only mapping from receiver ids to ``prefix[ids]``: its
length comes from binomials, it enumerates the ids in the order the
builders' dicts had, and it formats a label only when the label is read.
``tests/oracles.py::EagerFamily`` is the dict of every label that the
builders built before (the ``_family`` comprehension, the keyed
piggyback's K3 dict and ``symmetric-piggyback``'s pair dicts).  These
tests hold a family to that dict on length, order and lookups, a lookup
of ids parsed from a label from elsewhere to fail as the dict's did, and
every builder's plan to the plan built with the eager dicts.  The order
is what ``golden/plans.tsv`` digests (``key_order``, placement order).
"""

from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import EagerFamily, eager_labels
from strategies import scenarios
from secache import BUILDERS, ChannelScenario, IndexOutOfRange, InvalidParameter, NotApplicable
from secache import schemes
from secache.cli import PRESETS
from secache.schemes import (
    AtSlot,
    Family,
    _blocks,
    _ids,
    build_piggyback_allkeys,
    build_symmetric_piggyback,
)

DOCUMENTED = (IndexOutOfRange, InvalidParameter, NotApplicable)


@st.composite
def families(draw):
    """(prefix, blocks, outer_last): one block, or two blocks over disjoint
    classes of consecutive ids, each of size 1 or more, the last one
    outermost or not."""
    two = draw(st.booleans())
    lengths = [draw(st.integers(1 if two else 0, 6)) for _ in range(1 + two)]
    start, blocks = draw(st.integers(1, 3)), []
    for n in lengths:
        c = tuple(range(start, start + n))
        blocks.append((c, draw(st.integers(1 if two else 0, n + 1))))
        start += n + draw(st.integers(0, 2))
    return draw(st.sampled_from(("A", "K3", "Kw"))), tuple(blocks), two and draw(st.booleans())


#: ids that no family built by :func:`families` has, and ids that it may
foreign_ids = st.one_of(
    st.none(),
    st.integers(0, 20),
    st.lists(st.integers(-1, 20), max_size=6).map(tuple),
    st.lists(st.sampled_from((True, 1.0, 2.0, "1")), min_size=1, max_size=3).map(tuple),
)


@settings(max_examples=300)
@given(families(), st.lists(foreign_ids, max_size=12))
def test_a_family_is_its_eager_dict(spec, keys):
    prefix, blocks, outer_last = spec
    family = Family(prefix, *blocks, outer_last=outer_last)
    eager = eager_labels(prefix, *blocks, outer_last=outer_last)
    assert len(family) == len(eager)
    # lookups before the table is built read one label each
    for ids in keys + list(eager)[:2]:
        want = eager.get(ids) if type(ids) is tuple and all(type(i) is int for i in ids) else None
        assert family.get(ids) == want, ids
        assert (ids in family) == (want is not None), ids
    assert list(family.items()) == list(eager.items())
    assert list(family) == list(eager)
    assert list(family.values()) == list(eager.values())
    # lookups after: a float or bool id never stands for an int one
    for ids in keys:
        want = eager.get(ids) if type(ids) is tuple and all(type(i) is int for i in ids) else None
        assert family.get(ids) == want, ids


@settings(max_examples=200)
@given(families(), st.data())
def test_a_family_lists_its_own_order_whatever_order_it_was_read_in(spec, data):
    # Building a plan's schedule reads labels one at a time, in schedule
    # order; the family's items() stay in its own order, also once every
    # label has been read.
    prefix, blocks, outer_last = spec
    family = Family(prefix, *blocks, outer_last=outer_last)
    eager = eager_labels(prefix, *blocks, outer_last=outer_last)
    read = data.draw(st.permutations(list(eager)))
    if data.draw(st.booleans()):
        read = read[:data.draw(st.integers(0, len(read)))]
    for ids in read:
        assert family.label[ids] == eager[ids]
    assert list(family.items()) == list(eager.items())
    assert list(family.values()) == list(eager.values())


@settings(max_examples=100)
@given(families(), st.integers(1, 30))
def test_a_family_at_a_slot_is_the_tuple_of_its_pairs(spec, slot):
    # The piggyback phase-3 unit concatenates a whole family at one strong
    # slot: it equals, hashes as and adds like the tuple of (slot, label)
    # pairs it replaces, and formats no label before it is iterated.
    prefix, blocks, outer_last = spec
    family = Family(prefix, *blocks, outer_last=outer_last)
    parts = AtSlot(slot, family)
    assert len(parts) == len(family) and len(family.label) == 0
    pairs = tuple((slot, label) for label in
                  eager_labels(prefix, *blocks, outer_last=outer_last).values())
    assert parts == pairs and pairs == parts and parts == AtSlot(slot, family)
    assert hash(parts) == hash(pairs) and list(parts) == list(pairs)
    assert parts + ((0, "B[1]"),) == pairs + ((0, "B[1]"),)
    assert parts[1:3] == pairs[1:3] and parts != list(pairs)
    if pairs:
        assert parts[0] == pairs[0] and parts[-1] == pairs[-1]
        assert parts != pairs[:-1] and parts != AtSlot(slot + 1, family)
    unit = schemes.DeliveryUnit(parts, (0.25,) * len(parts), "concat")
    assert unit == unit._replace(parts=pairs)
    assert unit.payload_rate == unit._replace(parts=pairs).payload_rate


def test_k3_runs_weak_subset_by_weak_subset(fig3):
    # The keyed piggyback's K3 keys: for each weak subset G (lexicographic),
    # every strong receiver j, labelled K3[j,G].
    weak, strong = tuple(fig3.weak_ids), tuple(fig3.strong_ids)
    k3 = Family("K3", (strong, 1), (weak, 2), outer_last=True)
    labels = list(k3.values())
    assert labels[:3] == ["K3[6,1,2]", "K3[7,1,2]", "K3[8,1,2]"]
    assert labels[len(strong)] == "K3[6,1,3]"
    assert len(labels) == len(strong) * 10 == len(k3)


#: Labels of fig3 ``piggyback-allkeys(2)`` (weak 1..5, strong 6..20) and
#: ``symmetric-piggyback(2, 2)`` that name no object of their family:
#: their ids are unsorted, repeated, outside a block's class, or of the
#: wrong size.
FOREIGN = {
    "unsorted": ("B[2,1]", "K2[3,1]", "K3[6,2,1]", "Kw[6,1]", "Ks1[9,7,8]"),
    "repeated": ("B[2,2]", "K1[1,1,2]", "K3[6,1,1]", "Ks1[7,7,8]"),
    "outside the class": ("B[1,6]", "K2[0,1]", "K3[1,2,3]", "K4[5]", "Kw[1,2]", "Ks[6,7]"),
    "wrong size": ("B[1]", "B[1,2,3]", "K3[6,1]", "K3[6,7,1,2]", "K4[]", "Kw[1]", "Ks1[6,7]"),
    "not ids": ("B[1, 2]", "B[01,2]", "B[1,2", "B", "K3[6,1,2]x"),
}


def _fig3_keyed_plans(fig3):
    return build_piggyback_allkeys(fig3, 2, 1e-4), build_symmetric_piggyback(fig3, 2, 2, 1e-4)


@pytest.mark.parametrize("kind", sorted(FOREIGN))
def test_a_foreign_label_matches_nothing(fig3, kind, monkeypatch):
    lazy = _fig3_keyed_plans(fig3)
    monkeypatch.setattr(schemes, "Family", EagerFamily)
    eager = _fig3_keyed_plans(fig3)
    for plan, old in zip(lazy, eager):
        runs = [run for group in plan.orbits.families for run in group]
        old_runs = [run for group in old.orbits.families for run in group]
        for label in FOREIGN[kind]:
            ids = _ids(label)
            assert not any(run.labels.has(label, ids) for run in runs), label
            assert not any(run.labels.has(label, ids) for run in old_runs), label
            # the family of the label's prefix has no such ids (ids that
            # print back to another label, as in "B[1, 2]", do exist)
            for run, old_run in zip(runs, old_runs):
                if kind != "not ids" and run.labels.prefix == label.partition("[")[0]:
                    assert run.labels.get(ids) is None is old_run.labels.get(ids), label
            assert plan.key_rates.get(label) is None is old.key_rates.get(label), label
            assert label not in plan.key_rates
            with pytest.raises(KeyError):
                plan.key_rates[label]
    # a label of the family is found, by its run and in the key rates
    keyed, symmetric = lazy
    for plan, label in ((keyed, "K3[7,2,4]"), (symmetric, "Ks1[6,9,20]"), (symmetric, "Kw[3,11]")):
        run = next(run for group in plan.orbits.families for run in group
                   if run.labels.prefix == label.partition("[")[0])
        assert run.labels.has(label, _ids(label)) and plan.key_rates[label] == run.rate


def _plans(s: ChannelScenario, ts=None):
    """(case id, build thunk) for every builder of ``s`` at every valid
    index (or at the indices ``ts``)."""
    for name, build in BUILDERS.items():
        if name in ("piggyback-one", "piggyback-allkeys"):
            args = [(t,) for t in ts or range(1, s.K_w)]
        elif name == "symmetric-piggyback":
            args = list(itertools.product(ts or range(1, s.K_w + 1), ts or range(1, s.K_s + 1)))
        else:
            args = [()]
        for arg in args:
            yield f"{name}{arg}", lambda b=build, arg=arg: b(s, *arg, 1e-4)


def _same_as_eager(s: ChannelScenario, ts=None, schedule_first: bool = False) -> int:
    """Checks each plan of :func:`_plans` against its build with eager
    families; the number that build.  With ``schedule_first`` the plan's
    schedule is read and the plan verified before anything is compared,
    so its labels are first read in schedule and sub-orbit order."""
    checked = 0
    for case, build in _plans(s, ts):
        try:
            plan = build()
        except DOCUMENTED:
            continue
        if schedule_first:
            plan.schedule
            schemes.verify_plan(plan, s)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(schemes, "Family", EagerFamily)
            old = build()
        assert list(plan.key_rates) == list(old.key_rates), case
        assert dict(plan.message_parts) == dict(old.message_parts), case
        assert plan.placement == old.placement, case
        assert plan.schedule == old.schedule, case
        assert plan.to_json() == old.to_json(), case
        assert schemes.verify_plan(plan, s).to_json() == schemes.verify_plan(old, s).to_json(), case
        checked += 1
    return checked


@pytest.mark.parametrize("schedule_first", [False, True], ids=["lookups-first", "schedule-first"])
@pytest.mark.parametrize("preset", ["fig3", "fig4", "fig5"])
def test_plans_equal_the_eager_build_on_presets(preset, schedule_first):
    s = ChannelScenario(**PRESETS[preset])
    assert _same_as_eager(s, ts=(1, 2), schedule_first=schedule_first) >= 10


@settings(max_examples=40)
@given(scenarios(max_k=5), st.booleans())
def test_plans_equal_the_eager_build(s, schedule_first):
    _same_as_eager(s, schedule_first=schedule_first)


def test_the_blocks_of_family_members_are_the_familys(fig3, monkeypatch):
    # verify reads the class blocks of an orbit whose members are a
    # family from the family, and draws a few of its ids (a first member
    # per orbit, per sub-orbit and per part family), never its C(15, 8)
    # strong XORs.  Other members have no blocks, and are peeled in full.
    weak, strong = tuple(fig3.weak_ids), tuple(fig3.strong_ids)
    plan = build_symmetric_piggyback(fig3, 1, 7, 1e-4)
    strong_xors = plan.orbits.orbits[2].members
    assert len(strong_xors) == comb(15, 8)
    drawn = []
    enumerate_ids = Family.__iter__

    def counted(self):
        for ids in enumerate_ids(self):
            drawn.append(ids)
            yield ids

    with monkeypatch.context() as m:
        m.setattr(Family, "__iter__", counted)
        assert schemes.verify_plan(plan, fig3).passed
    assert 0 < len(drawn) <= 20, drawn
    assert _blocks(strong_xors, (weak, strong)) == [(strong, 8)]
    pairs = Family("Kw", (weak, 1), (strong, 1))
    assert _blocks(pairs, (weak, strong)) == [(weak, 1), (strong, 1)]
    assert _blocks(strong, (weak, strong)) == [(strong, 1)]
    # a block of no class, a class twice, an empty block, K3's order, and
    # members that are no family: the same ids as a tuple, or a part of a
    # class
    split = (weak, strong[:7], strong[7:])
    for members, classes in ((strong_xors, split),
                             (Family("Kw", (weak, 1), (weak, 1)), (weak, strong)),
                             (Family("B", (strong, 0), (weak, 2)), (weak, strong)),
                             (Family("K3", (strong, 1), (weak, 2), outer_last=True),
                              (weak, strong)),
                             (tuple(strong_xors), (weak, strong)),
                             (strong[:7], (weak, strong))):
        assert _blocks(members, classes) is None
