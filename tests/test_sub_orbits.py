"""DECODE by sub-orbits of each representative, against the pass it
replaced.

In a plan with label families (``schemes.Family``), whose orbits are
their families and so enumerate their orbits under the class group by
construction, ``verify_plan`` peels the units of one member per sub-orbit
of each class representative ``r`` (the members where ``r`` sits at one
position, or those without it) and reads one part label per sub-orbit,
the first.  A part counts as delivered only when a peeled unit hands over
that very label.  Any other plan, such as a listed one or one whose
members are a plain tuple, has every member peeled and every part read,
at every receiver.
The reduction is sound when every label is ``prefix[ids]`` with distinct
receiver ids (checked here on the subset builders' plans) and the
placement is class-symmetric; it is complete when each sub-orbit's first
label is itself handed over, which the comparison below checks on every
builder plan.  ``verify_plan_class_view`` (``tests/oracles.py``) is the
pass as it was before: it peels every unit that hands a representative a
part.  Reports must be equal byte for byte, the oracle's sums exact as
``verify_plan``'s are, on intact plans; a plan whose orbits lost,
repeated or reordered a member claims no symmetry, and its report must
be the full scan's (``verify_plan_explicit``).

The verifier's sums (``schemes._sum``) are exact and rounded once, an
orbit's terms weighted by its member count; where a term is NaN or
infinite, or the sum overflows, they are the plain sum's IEEE value.  A
NaN margin fails its check.
"""

from __future__ import annotations

import dataclasses
import random
import re
from math import fsum, isfinite, isnan

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import exact, legacy, verify_plan_class_view, verify_plan_explicit
from secache import (
    Atom,
    ChannelScenario,
    DeliveryUnit,
    RateMemoryPoint,
    SchemePlan,
    build_piggyback_allkeys,
    build_piggyback_one,
    verify_plan,
)
from secache.cli import PRESETS
from secache.schemes import (
    Orbit,
    PlanOrbits,
    _sum,
    build_symmetric_piggyback,
    cache_usage,
)

SUBSET_BUILDS = {
    "piggyback-one(2)": lambda s: build_piggyback_one(s, 2, 1e-4),
    "piggyback-allkeys(2)": lambda s: build_piggyback_allkeys(s, 2, 1e-4),
    "symmetric-piggyback(2,2)": lambda s: build_symmetric_piggyback(s, 2, 2, 1e-4),
}


def _with_members(plan, oi, members):
    """``plan`` with the members of orbit ``oi`` replaced."""
    po = plan.orbits
    orbits = list(po.orbits)
    orbits[oi] = orbits[oi]._replace(members=tuple(members))
    return dataclasses.replace(plan, orbits=po._replace(orbits=tuple(orbits)))


def _orbit_mutants(plan, rng):
    """Per orbit: one member dropped or repeated (the first, second,
    middle, last and a random one), the first two swapped, and the
    members reversed."""
    for oi, orb in enumerate(plan.orbits.orbits):
        members = list(orb.members)
        n = len(members)
        for i in sorted({0, 1, n // 2, n - 1, rng.randrange(n)} & set(range(n))):
            yield f"orbit {oi}: member {i} dropped", _with_members(
                plan, oi, members[:i] + members[i + 1:])
            yield f"orbit {oi}: member {i} repeated", _with_members(
                plan, oi, members[:i + 1] + members[i:])
        if n > 1:
            yield f"orbit {oi}: first two swapped", _with_members(
                plan, oi, [members[1], members[0]] + members[2:])
            yield f"orbit {oi}: reversed", _with_members(plan, oi, members[::-1])


@pytest.mark.parametrize("preset", ["fig3", "fig5"])
@pytest.mark.parametrize("name", sorted(SUBSET_BUILDS))
def test_orbit_mutants_match_the_class_view(preset, name):
    s = ChannelScenario(**PRESETS[preset])
    plan = SUBSET_BUILDS[name](s)
    assert verify_plan(plan, s).to_json() == verify_plan_class_view(plan, s, total=exact).to_json()
    undelivered = 0
    for case, mutant in _orbit_mutants(plan, random.Random(f"{preset}|{name}")):
        # A mutant's changed orbit has a plain tuple of members, so the
        # mutant claims no symmetry: every member is peeled and every
        # receiver checked, as the full scan does.
        got = verify_plan(mutant, s)
        assert got.to_json() == verify_plan_explicit(mutant, s, total=exact).to_json(), case
        undelivered += "cannot obtain" in got.check("DECODE").detail
    # Some dropped member takes the only provider of a receiver's part,
    # which a sub-orbit reduction of the mutant would not see.
    assert undelivered > 0


def _counting(plan):
    """``plan`` with each orbit's ``units`` recording ``(orbit index,
    member)`` per call, and the list of records."""
    calls = []

    def counted(oi, units):
        def call(member):
            calls.append((oi, member))
            return units(member)
        return call

    po = plan.orbits
    orbits = tuple(orb._replace(units=counted(oi, orb.units))
                   for oi, orb in enumerate(po.orbits))
    return dataclasses.replace(plan, orbits=po._replace(orbits=orbits)), calls


def _decode_members(plan, calls, oi):
    """The members whose units DECODE built for orbit ``oi``.  RATE and
    SECRECY first build each orbit's first member, in orbit order; every
    later call is DECODE's."""
    orbits = plan.orbits.orbits
    assert calls[:len(orbits)] == [(j, next(iter(orb.members))) for j, orb in enumerate(orbits)]
    return [m for j, m in calls[len(orbits):] if j == oi]


def test_decode_builds_one_member_per_sub_orbit(fig3):
    plan = build_symmetric_piggyback(fig3, 1, 7, 1e-4)
    reps = plan.orbits.representatives
    counted, calls = _counting(plan)
    assert (verify_plan(counted, fig3).to_json()
            == verify_plan_class_view(plan, fig3, total=exact).to_json())
    for oi, orb in enumerate(plan.orbits.orbits):
        built = _decode_members(plan, calls, oi)
        assert len(built) == len(set(built)), oi
        first = next(iter(orb.members))
        size = len(first) if isinstance(first, tuple) else 1
        assert len(built) <= (size + 1) * len(reps), (oi, len(built))
    # the strong XORs: C(15, 8) = 6,435 members, of which 2 are peeled
    assert len(plan.orbits.orbits[2].members) == 6435
    assert len(_decode_members(plan, calls, 2)) == 2

    # one strong XOR dropped: every member of every orbit is peeled
    members = tuple(plan.orbits.orbits[2].members)
    dropped, calls = _counting(_with_members(plan, 2, members[1:]))
    got = verify_plan(dropped, fig3).to_json()
    for oi, orb in enumerate(dropped.orbits.orbits):
        assert _decode_members(dropped, calls, oi) == list(orb.members), oi
    assert got == verify_plan_class_view(dropped, fig3, total=exact).to_json()


def _others_plan(to_self: bool) -> SchemePlan:
    """Three receivers in one class, each wanting X[1], X[2] and X[3] and
    caching nothing; member m's unit hands X[m] to every other receiver,
    and to m too if ``to_self``.  The plan is class-symmetric, but it has
    no families, so verify peels every member."""
    rate = 0.05

    def units(m):
        takers = [i for i in (1, 2, 3) if to_self or i != m]
        return (DeliveryUnit(
            parts=tuple((i, f"X[{m}]") for i in takers),
            part_rates=(rate,) * len(takers),
            combine="concat",
            decode_load=dict.fromkeys(takers, rate),
        ),)

    parts = tuple((f"X[{m}]", rate) for m in (1, 2, 3))
    return SchemePlan(
        scheme_name="others", params={},
        orbits=PlanOrbits(((1, 2, 3),), (Orbit(1, 1 / 3, (1, 2, 3), units),), {}),
        claimed_point=RateMemoryPoint(3 * rate, 0.0, 0.0, "others"),
        key_rates={}, message_parts=dict.fromkeys((1, 2, 3), parts),
    )


def test_a_label_naming_the_representative_keys_apart():
    # Receiver 1 gets X[2] and X[3] but never X[1]: X[1] names the
    # representative itself, and no delivered label stands for it.
    s = ChannelScenario(K_w=3, K_s=0, delta_w=0.5, delta_s=0.2, delta_z=0.9, D=4)
    for to_self, detail in ((False, "receiver 1 cannot obtain part 'X[1]'"), (True, "")):
        plan = _others_plan(to_self)
        got = verify_plan(plan, s)
        assert got.check("DECODE").detail == detail
        assert got.to_json() == verify_plan_class_view(plan, s, total=exact).to_json()
        assert got.to_json() == verify_plan_explicit(plan, s, total=exact).to_json()


def _listed_plan(dropped: str = "") -> SchemePlan:
    """Three receivers in one class, each caching its file part F[i] and
    its key K[i], listed (receiver 1 without the atom labelled
    ``dropped``), and each wanting F[1], F[2] and F[3]; member m's units
    hand F[m] to every other receiver i, padded by K[i].  The plan has no
    families, so verify reads the listed atoms and message parts."""
    rate = 0.05

    def units(m):
        return tuple(DeliveryUnit(
            parts=((i, f"F[{m}]"),), part_rates=(rate,), pad_keys=(f"K[{i}]",),
            intended=frozenset({i}), decode_load={i: rate},
        ) for i in (1, 2, 3) if i != m)

    atoms = {i: (Atom("file_part", f"F[{i}]", rate), Atom("key", f"K[{i}]", rate))
             for i in (1, 2, 3)}
    atoms[1] = tuple(a for a in atoms[1] if a.label != dropped)
    parts = tuple((f"F[{m}]", rate) for m in (1, 2, 3))
    return SchemePlan(
        scheme_name="listed", params={},
        orbits=PlanOrbits(((1, 2, 3),), (Orbit(1, 1 / 3, (1, 2, 3), units),), atoms),
        claimed_point=RateMemoryPoint(3 * rate, 0.3, 0.0, "listed"),
        key_rates={f"K[{i}]": rate for i in (1, 2, 3)},
        message_parts=dict.fromkeys((1, 2, 3), parts),
    )


@pytest.mark.parametrize("dropped, margin, detail", [
    ("", 0.3 - 0.25, ""),
    ("K[1]", 0.3 - 0.2, "receiver 1 cannot obtain part 'F[2]'"),
    ("F[1]", 0.3 - 0.05, "receiver 1 cannot obtain part 'F[1]'"),
])
def test_listed_atoms_of_a_class_match_the_class_view(dropped, margin, detail):
    # Receiver 1 is the lowest of a class of three and lists a key and a
    # file part: it peels F[2] and F[3].  Without its key it peels
    # nothing; without F[1] nothing stands for it.  A listed plan claims
    # no symmetry, so every receiver of the class is checked, as the full
    # scan checks it: CACHE reads receiver 1's own margin (``margin``)
    # only where it is the least.
    s = ChannelScenario(K_w=3, K_s=0, delta_w=0.5, delta_s=0.2, delta_z=0.9, D=4)
    plan = _listed_plan(dropped)
    assert not plan.orbits.families
    got = verify_plan(plan, s)
    assert got.to_json() == verify_plan_explicit(plan, s, total=exact).to_json()
    assert got.check("DECODE").detail == detail
    assert 0.3 - cache_usage(plan, s.D)[1] == pytest.approx(margin, abs=1e-15)
    assert got.check("CACHE").margin == pytest.approx(0.3 - 0.25, abs=1e-15)
    assert got.check("RATE").passed and got.check("SECRECY").passed
    if not dropped:
        assert got.passed
        assert got.to_json() == verify_plan_class_view(plan, s, total=exact).to_json()


def test_plans_without_family_orbits_peel_every_member(fig3):
    # Only an orbit that is a label family lets a member stand for its
    # sub-orbit.  A listed plan whose one class has three receivers, and a
    # family plan whose orbit lists its canonical members as a plain
    # tuple, are peeled member by member, as the class view does.
    one_class = ChannelScenario(K_w=3, K_s=0, delta_w=0.5, delta_s=0.2, delta_z=0.9, D=4)
    family_plan = build_symmetric_piggyback(fig3, 2, 2, 1e-4)
    strong_xors = family_plan.orbits.orbits[2].members
    assert len(strong_xors) == 455
    for plan, s in ((_listed_plan(), one_class),
                    (_with_members(family_plan, 2, strong_xors), fig3)):
        counted, calls = _counting(plan)
        got = verify_plan(counted, s)
        for oi, orb in enumerate(plan.orbits.orbits):
            assert _decode_members(plan, calls, oi) == list(orb.members), oi
        assert got.to_json() == verify_plan_class_view(plan, s, total=exact).to_json()


_LABEL = re.compile(r"([^\[\],]+)\[([^\[\]]*)\]")


def _labels(plan):
    """Every label a subset plan names: atoms, message parts, keys,
    virtual holdings, and each unit's parts, pads, jam keys and context."""
    yield from plan.key_rates
    for atoms in plan.placement.values():
        yield from (a.label for a in atoms)
    for parts in plan.message_parts.values():
        yield from (label for label, _ in parts)
    for labels in plan.virtual_cached.values():
        yield from labels
    for seg in plan.schedule:
        for unit in seg.units:
            yield from (label for _, label in unit.parts)
            yield from unit.pad_keys + unit.jam_keys
            for context in unit.context.values():
                yield from context


def _check_labels(plan, s):
    seen = 0
    for label in set(_labels(plan)):
        match = _LABEL.fullmatch(label)
        assert match, label
        ids = [int(i) for i in match[2].split(",")] if match[2] else []
        assert len(set(ids)) == len(ids), label
        assert all(1 <= i <= s.K for i in ids), label
        seen += 1
    return seen


@pytest.mark.parametrize("preset", ["fig3", "fig5"])
def test_subset_plan_labels_name_distinct_receivers(preset):
    s = ChannelScenario(**PRESETS[preset])
    builds = [lambda t=t: build_piggyback_one(s, t, 1e-4) for t in (1, 2, 3)]
    builds += [lambda t=t: build_piggyback_allkeys(s, t, 1e-4) for t in (1, 2, 3)]
    builds += [lambda tw=tw, ts=ts: build_symmetric_piggyback(s, tw, ts, 1e-4)
               for tw, ts in ((1, 1), (2, 2), (1, s.K_s), (s.K_w, 1))]
    assert sum(_check_labels(build(), s) for build in builds) > 1000


@pytest.mark.parametrize("builder", [build_piggyback_one, build_piggyback_allkeys])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_folded_sums_match_the_full_scan_on_fig5(builder, t):
    # fig5's weak XORs make one segment of C(20, t + 1) units, so RATE and
    # SECRECY weight each term by 190 to 15,504.
    s = ChannelScenario(**PRESETS["fig5"])
    plan = builder(s, t, 1e-4)
    assert plan.orbits.orbits[0].one_segment
    assert verify_plan(plan, s).to_json() == verify_plan_explicit(plan, s, total=exact).to_json()


@settings(max_examples=200)
@given(st.lists(st.tuples(st.floats(-1e300, 1e300), st.integers(1, 300)), max_size=8),
       st.integers(1, 300))
@example([(-0.0, 1)], 100)
def test_sums_are_exact_and_rounded_once(pairs, times):
    # Each branch of _sum (fsum for one pass, integer ratios for a count)
    # gives the correctly rounded sum of every term it stands for.
    terms = [term for term, _ in pairs]
    want = repr(fsum(terms * times))
    assert repr(_sum(terms, times)) == repr(_sum(terms * times)) == want
    counts = [count for _, count in pairs]
    assert repr(_sum(terms, counts)) == repr(fsum(
        [term for term, count in pairs for _ in range(count)]))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("load, key_rate", [
    (_NAN, _INF), (_INF, 1e308), (-_INF, -1.5e308), (1e308, -_INF), (-1.5e308, _NAN)])
def test_verify_never_raises_on_non_finite_sums(fig3, load, key_rate):
    # The weak XOR orbit is one segment of 10 members: receiver 1's load
    # and the pad key rates count 10 times, where the exact sums raise.
    # A margin that is not finite is the plain sum's.
    plan = build_piggyback_one(fig3, 2, 1e-4)
    po = plan.orbits
    orb = po.orbits[0]
    assert orb.one_segment and len(orb.members) == 10

    def units(member):
        return tuple(u._replace(decode_load={**u.decode_load, 1: load})
                     for u in orb.units(member))

    key_rates = {k: key_rate if k.startswith("K1") else v for k, v in plan.key_rates.items()}
    plan = dataclasses.replace(plan, key_rates=key_rates, orbits=po._replace(
        orbits=(orb._replace(units=units),) + po.orbits[1:]))
    got = verify_plan(plan, fig3)
    want = verify_plan_explicit(plan, fig3, total=legacy)
    assert [c.passed for c in got.checks] == [c.passed for c in want.checks]
    for mine, theirs in zip(got.checks, want.checks):
        if not isfinite(theirs.margin):
            assert repr(mine.margin) == repr(theirs.margin), mine.name


@pytest.mark.parametrize("check, load, key_rate", [("RATE", _NAN, None), ("SECRECY", None, _NAN)])
def test_a_nan_margin_fails_its_check(fig3, check, load, key_rate):
    # NaN is below no number, so a NaN margin never was the minimum and a
    # NaN load or key rate passed.  Now the first NaN is the check's
    # margin, and fails it.
    plan = build_piggyback_one(fig3, 2, 1e-4)
    po = plan.orbits
    orb = po.orbits[0]

    def units(member):
        return tuple(u._replace(decode_load={**u.decode_load, 1: load}) if load else u
                     for u in orb.units(member))

    key_rates = {k: key_rate if key_rate and k.startswith("K1") else v
                 for k, v in plan.key_rates.items()}
    plan = dataclasses.replace(plan, key_rates=key_rates, orbits=po._replace(
        orbits=(orb._replace(units=units),) + po.orbits[1:]))
    got = verify_plan(plan, fig3)
    failed = [c.name for c in got.checks if not c.passed]
    assert failed == [check] and isnan(got.check(check).margin)
    assert got.to_json() == verify_plan_explicit(plan, fig3, total=exact).to_json()


def _counted_plan(members: int, fraction: float, atoms: tuple) -> SchemePlan:
    """One receiver, caching ``atoms``, and one orbit of ``members``
    segments of length ``fraction``, each with one unit loading it at a
    tenth of its capacity."""
    unit = DeliveryUnit(parts=(), part_rates=(), decode_load={1: fraction / 20})
    return SchemePlan(
        scheme_name="counted", params={},
        orbits=PlanOrbits(((1,),), (Orbit(1, fraction, range(members), lambda m: (unit,)),),
                          {1: atoms}),
        claimed_point=RateMemoryPoint(0.0, 3.0, 0.0, "counted"),
        key_rates={}, message_parts={},
    )


def test_fractions_sum_exactly_over_many_members():
    # 100,000 segments of 1e-5: one at a time they add up to
    # 0.9999999999980838, 1.9e-12 short of 1, and RATE failed.
    s = ChannelScenario(K_w=1, K_s=0, delta_w=0.5, delta_s=0.2, delta_z=0.9, D=2)
    plan = _counted_plan(100_000, 1e-5, ())
    old = verify_plan_explicit(plan, s, total=legacy).check("RATE")
    assert old.detail == "fractions sum to 0.9999999999980838" and not old.passed
    got = verify_plan(plan, s)
    assert got.check("RATE").passed
    assert got.to_json() == verify_plan_explicit(plan, s, total=exact).to_json()


def test_cache_usage_sums_exactly_over_many_atoms():
    # 100,000 atoms of 3e-5: one at a time they add up to
    # 3.000000000005079, 5.1e-12 above the claimed 3, and CACHE failed.
    s = ChannelScenario(K_w=1, K_s=0, delta_w=0.5, delta_s=0.2, delta_z=0.9, D=2)
    plan = _counted_plan(1, 1.0, (Atom("key", "K", 3e-5),) * 100_000)
    old = verify_plan_explicit(plan, s, total=legacy).check("CACHE")
    assert old.margin == 3.0 - 3.000000000005079 and not old.passed
    got = verify_plan(plan, s)
    assert got.check("CACHE").passed and got.check("CACHE").margin == 0.0
    assert got.to_json() == verify_plan_explicit(plan, s, total=exact).to_json()
