"""Counted DECODE and CACHE: a representative's placement and message
parts as runs, against the explicit plan.

``verify_plan`` reads each class representative ``r``'s atoms and message
parts, in a subset builder's plan, as runs (``schemes.Run``) over its
families (``PlanOrbits.families`` and ``parts``): a kind, a rate, a count
from binomials and a label family.  Any other plan lists its atoms
(``PlanOrbits.atoms``) and message parts, which verify reads as they are,
building no run.  CACHE sums each run's cost times its count exactly;
DECODE reads who holds a label from the holder map (``schemes._Holders``:
``r`` holds a family label when it is among the label's ids), and checks
one label per family and sub-orbit of ``r``, which stands for its
sub-orbit: the placement is class-symmetric, so whether ``r`` holds a
label is invariant under ``r``'s stabiliser.  These tests hold the runs
and the holder map to the explicit placement and message parts, and the
reports to the full scan (``verify_plan_explicit``).
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc
from math import comb, fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact, verify_plan_explicit
from strategies import scenarios
from secache import BUILDERS, ChannelScenario, IndexOutOfRange, InvalidParameter, NotApplicable
from secache import schemes
from secache.cli import PRESETS
from secache.schemes import (
    _Holders,
    _ids,
    _held,
    _sum,
    _usage,
    build_piggyback_allkeys,
    build_piggyback_one,
    build_symmetric_piggyback,
    verify_plan,
)

DOCUMENTED = (IndexOutOfRange, InvalidParameter, NotApplicable)
SUBSET = ("piggyback-one", "piggyback-allkeys", "symmetric-piggyback")


def _plans(s: ChannelScenario, eps: float, names=tuple(BUILDERS), ts=None):
    """(case id, plan) for each builder of ``names`` at each index of
    ``ts`` (every valid index when None) that builds."""
    for name in names:
        build = BUILDERS[name]
        if name in ("piggyback-one", "piggyback-allkeys"):
            args = [(t,) for t in ts or range(1, s.K_w)]
        elif name == "symmetric-piggyback":
            args = list(itertools.product(ts or range(1, s.K_w + 1), ts or range(1, s.K_s + 1)))
        else:
            args = [()]
        for arg in args:
            try:
                yield f"{name}{arg}", build(s, *arg, eps)
            except DOCUMENTED:
                pass


def _preset_plans(preset: str):
    s = ChannelScenario(**PRESETS[preset])
    # the weak side's first, middle and last subset sizes
    ts = sorted({1, 2, s.K_w // 2, s.K_w - 1})
    return s, list(_plans(s, 1e-4, SUBSET, ts))


def _run_atoms(plan, r):
    """Receiver ``r``'s atoms read from its runs, as the placement orders
    them: group by group of the plan's families, each label of a group's
    first run followed by the next labels of its other runs, as many as
    each has per label of the first.  Checks each run's count."""
    atoms = []
    for first, *rest in plan.orbits.families:
        group = [run.held_by(r) for run in (first, *rest)]
        entries = [iter(run.labels.items()) for run in group]
        shares = [1] + [len(run.labels) // len(first.labels) for run in rest]
        counts = [0] * len(group)
        for _ in first.labels:
            for k, (run, it, share) in enumerate(zip(group, entries, shares)):
                for ids, label in itertools.islice(it, share):
                    if r in ids:
                        atoms.append(schemes.Atom(run.kind, label, run.rate))
                        counts[k] += 1
        assert [run.count for run in group] == counts, r
    return atoms


def _labels(plan):
    """Every label the plan places, asks for, keys or holds virtually."""
    labels = set(plan.key_rates)
    for atoms in plan.placement.values():
        labels |= {a.label for a in atoms}
    for parts in plan.message_parts.values():
        labels |= {label for label, _ in parts}
    for virtual in plan.virtual_cached.values():
        labels |= virtual
    return labels


def _stabiliser_image(plan, r, rng):
    """A random permutation within each class that fixes ``r``, as a
    function on labels ``prefix[ids]`` that renames the ids and sorts each
    run of ids from one class, as the builders write them."""
    where, perm = {}, {}
    for c in plan.orbits.classes:
        moved = [i for i in c if i != r]
        perm |= dict(zip(moved, rng.sample(moved, len(moved)))) | ({r: r} if r in c else {})
        where |= dict.fromkeys(c, c)

    def image(label):
        ids = _ids(label)
        if ids is None:
            return label
        renamed = []
        for _, run in itertools.groupby(ids, where.get):
            renamed += sorted(perm[i] for i in run)
        return f"{label.partition('[')[0]}[{','.join(map(str, renamed))}]"
    return image


def _check_runs(case, plan, s, rng=None):
    """The runs of every representative of a family plan against the
    explicit plan."""
    po = plan.orbits
    assert po.families and po.parts, case
    holders = _Holders(po.atoms, po.families)
    labels = _labels(plan)
    for r in po.representatives:
        held, wanted = _held(po, r), po.parts.get(r, ())
        assert _run_atoms(plan, r) == list(plan.placement.get(r, ())), (case, r)
        assert {label for label in labels if holders[label] >> r & 1} == plan.cached_labels(r), (case, r)
        costs = [a.cache_cost(s.D) for a in plan.placement.get(r, ())]
        counted = _sum([run.cache_cost(s.D) for run in held], [run.count for run in held])
        assert repr(counted) == repr(fsum(costs)) == repr(schemes.cache_usage(plan, s.D).get(r, 0.0)), (case, r)
        assert repr(_usage(po, r, s.D)) == repr(counted), (case, r)
        parts = plan.message_parts.get(r, ())
        assert [(label, run.rate) for run in wanted for label in run.labels.values()] == list(parts)
        assert [run.count for run in wanted] == [len(run.labels) for run in wanted]
        assert repr(_sum([run.rate for run in wanted], [run.count for run in wanted])) == repr(
            fsum(rate for _, rate in parts)), (case, r)
        if rng is not None:
            image = _stabiliser_image(plan, r, rng)
            for label in labels:
                assert holders[image(label)] >> r & 1 == holders[label] >> r & 1, (case, r, label)


@pytest.mark.parametrize("preset", ["fig3", "fig4", "fig5"])
def test_runs_are_the_explicit_placement_and_parts_on_presets(preset):
    s, plans = _preset_plans(preset)
    rng = random.Random(preset)
    for case, plan in plans:
        _check_runs(case, plan, s, rng)
    assert len(plans) >= 10


@settings(max_examples=60)
@given(scenarios(max_k=5), st.sampled_from((1e-4, 0.05)))
def test_runs_are_the_explicit_placement_and_parts(s, eps):
    # The subset builders' family runs; the other builders' plans list
    # their atoms and have no runs.
    rng = random.Random(repr(s))
    for case, plan in _plans(s, eps, SUBSET):
        _check_runs(case, plan, s, rng)


def test_a_run_counts_its_labels_from_binomials(fig3):
    plan = build_symmetric_piggyback(fig3, 2, 7, 1e-4)
    held, wanted = _held(plan.orbits, 6), plan.orbits.parts[6]
    # B[6,...] subsets: C(14, 6); Ks1: C(14, 7); a Kw and a Ks key per weak receiver
    assert [(run.kind, run.count) for run in held] == [
        ("file_part", comb(14, 6)), ("key", comb(14, 7)), ("key", 5), ("key", 5)]
    assert [run.count for run in wanted] == [5, comb(15, 7)]


def _unpadded(plan, oi):
    """``plan`` with the pad keys of orbit ``oi``'s units renamed, at their
    rates, to keys that no receiver holds (a ``Z`` before each label), for
    every member alike.  The plan stays class-symmetric, and no receiver
    peels a part from those units any more."""
    po = plan.orbits
    orb = po.orbits[oi]

    def units(member):
        return tuple(u._replace(pad_keys=tuple("Z" + k for k in u.pad_keys))
                     for u in orb.units(member))

    key_rates = dict(plan.key_rates)
    for member in orb.members:
        for unit in orb.units(member):
            key_rates.update(("Z" + k, plan.key_rates[k]) for k in unit.pad_keys)
    orbits = po.orbits[:oi] + (orb._replace(units=units),) + po.orbits[oi + 1:]
    return dataclasses.replace(plan, key_rates=key_rates, orbits=po._replace(orbits=orbits))


@pytest.mark.parametrize("preset", ["fig3", "fig4", "fig5"])
def test_an_undeliverable_sub_orbit_names_the_first_missing_part(preset):
    # An XOR orbit that hands nothing over leaves one sub-orbit of a part
    # family (the subsets without the representative) undelivered; DECODE
    # checks one label of it and names the first, as the full scan does.
    s, plans = _preset_plans(preset)
    failed = 0
    for case, plan in plans:
        for oi, orb in enumerate(plan.orbits.orbits):
            unit = orb.units(next(iter(orb.members)))[0]
            if unit.combine != "xor" or len(unit.parts) < 2:
                continue
            mutant = _unpadded(plan, oi)
            got = verify_plan(mutant, s)
            assert got.to_json() == verify_plan_explicit(mutant, s, total=exact).to_json(), (case, oi)
            failed += "cannot obtain part" in got.check("DECODE").detail
    assert failed >= 5


class _CountedFamily(schemes.Family):
    """A label family that records itself in ``made``.  Each family keeps
    every label it formats, once, so the sizes of the recorded tables
    count the labels formatted."""

    __slots__ = ()
    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)

    @classmethod
    def formatted(cls) -> int:
        return sum(len(family.label) for family in cls.made)


@pytest.mark.parametrize("t_w", [1, 3])
def test_verify_work_does_not_grow_with_the_strong_family(fig3, monkeypatch, t_w):
    # fig3 symmetric-piggyback(t_w, t_s): the strong XORs run over
    # C(15, t_s + 1) subsets and the strong representative holds C(14,
    # t_s - 1) B-parts, yet verify makes Atom records only for what the
    # peeled units name, and build plus verify format only the labels
    # verify reads.
    made = {"atoms": 0}

    class CountedAtom(schemes.Atom):
        __slots__ = ()

        def __new__(cls, *args):
            made["atoms"] += 1
            return super().__new__(cls, *args)

    counts = {}
    monkeypatch.setattr(schemes, "Family", _CountedFamily)
    for t_s in range(1, 15):
        _CountedFamily.made = []
        plan = build_symmetric_piggyback(fig3, t_w, t_s, 1e-4)
        made.update(atoms=0)
        with monkeypatch.context() as m:
            m.setattr(schemes, "Atom", CountedAtom)
            assert verify_plan(plan, fig3).passed
        counts[t_s] = dict(made, labels=_CountedFamily.formatted(),
                           family=sum(map(len, _CountedFamily.made)))
    for t_s, made in counts.items():
        # the peeled strong XORs name 2 (t_s + 1) B-parts and pad keys;
        # the build formats each receiver's virtual part (Ar[i], Br[j])
        assert made["atoms"] <= 4 * (t_w + t_s + 4), (t_s, made)
        assert made["labels"] <= fig3.K + 4 * (t_w + t_s + 4), (t_s, made)
    assert comb(15, 8) > 100 * max(made["atoms"] for made in counts.values())
    assert counts[7]["family"] > 100 * counts[7]["labels"]

    # fig5 piggyback-one and piggyback-allkeys(t): C(20, t + 1) K1 keys,
    # C(20, t) B-parts (and Ks C(20, t) K3 keys) and, at each strong
    # slot of phase 3, C(20, t - 1) A-parts, yet build and verify format
    # a number of labels linear in K and t: the phase-2 row names t
    # A-parts, a weak representative reads about t of A and of B, and
    # the keyed scheme names 2 Ks K3 keys
    s = ChannelScenario(**PRESETS["fig5"])
    for build in (build_piggyback_one, build_piggyback_allkeys):
        for t in (1, 2, 3, 4, 17, 18, 19):
            _CountedFamily.made = []
            assert verify_plan(build(s, t, 1e-4), s).passed
            formatted = _CountedFamily.formatted()
            assert formatted <= 4 * (t + s.K_s + 2), (build.__name__, t, formatted)
            if t in (4, 17):
                assert sum(map(len, _CountedFamily.made)) > 100 * formatted, (build.__name__, t)


def test_piggyback_plans_verify_past_the_size_cap(monkeypatch):
    # fig5 piggyback-one(9) and piggyback-allkeys(9): their explicit plans
    # exceed the size cap (C(20, 10) XORs, 11 C(20, 9) period units) and
    # each phase-3 unit concatenates C(20, 8) = 125,970 A-parts.  With the
    # cap lifted, build plus verify reads every family by count, and all
    # four checks pass.
    s = ChannelScenario(**PRESETS["fig5"])
    assert comb(20, 10) + 11 * comb(20, 9) + s.K_s > schemes.MAX_PLAN_SIZE
    monkeypatch.setattr(schemes, "MAX_PLAN_SIZE", 10**9)
    for build in (build_piggyback_one, build_piggyback_allkeys):
        tracemalloc.start()
        try:
            report = verify_plan(build(s, 9, 1e-4), s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.name for c in report.checks if c.passed] == [
            "RATE", "DECODE", "SECRECY", "CACHE"], (build.__name__, report.to_json())
        assert peak < 4 * 2**20, (build.__name__, peak)


@pytest.mark.parametrize("preset", ["fig3", "fig5"])
def test_explicit_plans_verify_without_runs(preset, monkeypatch):
    # An explicit plan lists its atoms and message parts, and verify reads
    # them as they are: it builds no run for any of its receivers.
    s = ChannelScenario(**PRESETS[preset])
    made = []

    class CountedRun(schemes.Run):
        __slots__ = ()

        def __new__(cls, *args):
            made.append(args[:2])
            return super().__new__(cls, *args)

    plans = list(_plans(s, 1e-4, [name for name in BUILDERS if name not in SUBSET]))
    assert len(plans) == 4
    for case, plan in plans:
        assert not plan.orbits.families, case
        want = verify_plan_explicit(plan, s, total=exact).to_json()
        with monkeypatch.context() as m:
            m.setattr(schemes, "Run", CountedRun)
            got = verify_plan(plan, s).to_json()
        assert made == [], case
        assert got == want, case
    # the spy sees the runs a family plan's verify builds
    plan = build_symmetric_piggyback(s, 2, 2, 1e-4)
    with monkeypatch.context() as m:
        m.setattr(schemes, "Run", CountedRun)
        assert verify_plan(plan, s).passed
    assert made


def _phase3_changed(plan, change):
    """``plan`` with each phase-3 unit replaced by ``change(unit)``; its
    orbits keep their members, so verify still reads it by sub-orbit."""
    po = plan.orbits
    *rest, orb = po.orbits
    assert orb.phase == 3 and orb.members in po.classes
    units = orb.units
    changed = orb._replace(units=lambda j: tuple(change(u) for u in units(j)))
    return dataclasses.replace(plan, orbits=po._replace(orbits=(*rest, changed)))


@pytest.mark.parametrize("preset,ts", [("fig3", (1, 2, 4)), ("fig5", (1, 2, 19))])
def test_a_family_at_a_slot_is_read_at_the_checked_labels(preset, ts):
    # The phase-3 unit concatenates the A family at its strong slot, and
    # DECODE reads only the labels it checks of it.  Its report equals the
    # full scan's when the unit is intact and when it carries another
    # family, another prefix, sits at another slot or has another rate;
    # each of those leaves a strong receiver without its A-parts.  A unit
    # whose family is not whole at one rate (one part at another rate, a
    # plain mapping or a family over part of the weak class, each of which
    # still holds the labels DECODE checks) has its plan verified in full.
    s = ChannelScenario(**PRESETS[preset])
    strong = tuple(s.strong_ids)

    def other_slot(u):
        j = u.parts.slot
        return u._replace(parts=schemes.AtSlot(strong[(strong.index(j) + 1) % len(strong)],
                                               u.parts.labels))

    for build in (build_piggyback_one, build_piggyback_allkeys):
        for t in ts:
            plan = build(s, t, 1e-4)
            A = plan.orbits.orbits[-1].units(strong[0])[0].parts.labels
            B = plan.orbits.orbits[-2].members
            (weak, k), = A.blocks
            partial = dict(itertools.islice(A.items(), len(A) - 1))
            part_block = schemes.Family("A", (weak[:-1], k))
            whole = {
                "intact": lambda u: u,
                "B family": lambda u: u._replace(parts=schemes.AtSlot(u.parts.slot, B),
                                                 part_rates=u.part_rates[:1] * len(B)),
                "other prefix": lambda u: u._replace(parts=schemes.AtSlot(
                    u.parts.slot, schemes.Family("X", *A.blocks))),
                "other slot": other_slot,
                "other rate": lambda u: u._replace(part_rates=(2 * u.part_rates[0],) * len(A)),
            }
            not_whole = {
                "one odd rate": lambda u: u._replace(
                    part_rates=u.part_rates[1:] + (2 * u.part_rates[0],)),
                "plain mapping": lambda u: u._replace(
                    parts=schemes.AtSlot(u.parts.slot, partial),
                    part_rates=u.part_rates[:len(partial)]),
            }
            if len(part_block) < len(A):
                not_whole["part of the class"] = lambda u: u._replace(
                    parts=schemes.AtSlot(u.parts.slot, part_block),
                    part_rates=u.part_rates[:len(part_block)])
            for name, change in {**whole, **not_whole}.items():
                case = (build.__name__, t, name)
                mutant = _phase3_changed(build(s, t, 1e-4), change)
                got = verify_plan(mutant, s)
                if name in whole and len(A) > 4 * t:
                    # the weak representative reads 2t - 1 of them
                    formatted = mutant.orbits.orbits[-1].units(strong[0])[0].parts.labels.label
                    assert len(formatted) <= 2 * t, case
                assert got.to_json() == verify_plan_explicit(mutant, s, total=exact).to_json(), case
                assert got.check("DECODE").passed == (name == "intact"), case
