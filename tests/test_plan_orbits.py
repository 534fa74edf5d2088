"""Orbit plans against the full scan they replace.

Every plan is described by orbits and receiver classes, and
``verify_plan`` checks one orbit member and one receiver per class.  The
subset builders give one orbit per segment family and one class per
receiver kind; the other builders, and a changed plan (``edited``), claim
no symmetry: one orbit per segment and one class per receiver.
``verify_plan_explicit`` (``tests/oracles.py``) is the verifier as it was
before: it reads the expanded plan and scans every segment, unit and
receiver.  With exact sums (``total=exact``) the two reports must be
equal, byte for byte, on every kind of failure too; a plan must be
immutable; neither ``verify`` nor ``simulate`` may expand a subset plan;
``simulate`` builds the units of only the first member of a many-segment
orbit, unless that member reads an id the stamp cannot rename; and the
size cap a subset builder applies before building must count at least
its expanded plan.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact, legacy, monte_carlo_scalar, verify_plan_explicit
from strategies import edited, scenarios
from test_peel_kernel import _same_compile
from secache import (
    BUILDERS,
    ChannelScenario,
    IndexOutOfRange,
    InvalidParameter,
    NotApplicable,
    SimConfig,
    build_piggyback_allkeys,
    build_piggyback_one,
    build_symmetric_piggyback,
    verify_plan,
)
from secache import schemes, simulate
from secache.cli import PRESETS, main

DOCUMENTED = (IndexOutOfRange, InvalidParameter, NotApplicable)


def _builds(s: ChannelScenario, eps: float, ts=None):
    """Every builder at every valid index of ``s`` (or at the indices
    ``ts``), as (case id, thunk) pairs."""
    for name, build in BUILDERS.items():
        if name in ("piggyback-one", "piggyback-allkeys"):
            for t in ts or range(1, s.K_w):
                yield f"{name}(t={t})", lambda b=build, t=t: b(s, t, eps)
        elif name == "symmetric-piggyback":
            for t_w in ts or range(1, s.K_w + 1):
                for t_s in ts or range(1, s.K_s + 1):
                    yield (f"{name}({t_w},{t_s})",
                           lambda b=build, tw=t_w, ts=t_s: b(s, tw, ts, eps))
        else:
            yield name, lambda b=build: b(s, eps)


def _same_report(case_id, s, build) -> bool:
    """The orbit report equals the full scan's; False when the builder
    refuses (with a documented error)."""
    try:
        plan = build()
    except DOCUMENTED:
        return False
    got = verify_plan(plan, s).to_json()
    assert got == verify_plan_explicit(plan, s, total=exact).to_json(), case_id
    return True


@settings(max_examples=100)
@given(scenarios(max_k=5), st.sampled_from((1e-4, 0.05)))
def test_orbit_reports_equal_the_full_scan(s, eps):
    for case_id, build in _builds(s, eps):
        _same_report(case_id, s, build)


@pytest.mark.parametrize("preset", ["fig3", "fig4", "fig5"])
def test_orbit_reports_equal_the_full_scan_on_presets(preset):
    s = ChannelScenario(**PRESETS[preset])
    checked = [_same_report(case_id, s, build)
               for case_id, build in _builds(s, 1e-4, ts=(1, 2, 3))]
    assert sum(checked) >= 10


def test_subset_builders_give_orbit_plans(fig3):
    for plan in (build_piggyback_one(fig3, 2, 1e-4), build_piggyback_allkeys(fig3, 2, 1e-4),
                 build_symmetric_piggyback(fig3, 2, 2, 1e-4)):
        assert plan.orbits.classes == (tuple(fig3.weak_ids), tuple(fig3.strong_ids))
        assert plan.orbits.representatives == (1, fig3.K_w + 1)
    # superposition-jamming's first strong unit alone carries the bin and
    # the jam keys: not class-invariant, so explicit
    plan = BUILDERS["superposition-jamming"](fig3, 1e-4)
    assert plan.orbits.representatives == tuple(range(1, fig3.K + 1))


SUBSET_BUILDERS = ("piggyback-one", "piggyback-allkeys", "symmetric-piggyback")


def _counted_and_expanded(build):
    """The ``(units, atom references)`` a subset builder passes to the
    plan-size cap, and those of its expanded plan; None when it refuses."""
    counted = []
    check = schemes._check_plan_size

    def record(units, atom_refs):
        counted.append((units, atom_refs))
        check(units, atom_refs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "_check_plan_size", record)
        try:
            plan = build()
        except DOCUMENTED:
            return None
    units = sum(len(seg.units) for seg in plan.schedule)
    atom_refs = sum(len(atoms) for atoms in plan.placement.values())
    (count,) = counted
    return count, (units, atom_refs)


@settings(max_examples=100)
@given(scenarios(max_k=5))
def test_plan_size_cap_counts_at_least_the_expanded_plan(s):
    for case_id, build in _builds(s, 1e-4):
        if case_id.split("(")[0] not in SUBSET_BUILDERS:
            continue
        got = _counted_and_expanded(build)
        if got is not None:
            (units, atom_refs), expanded = got
            assert sum(expanded) <= units + atom_refs, case_id


@pytest.mark.parametrize("build", [
    lambda s: build_piggyback_one(s, 2, 1e-4),
    lambda s: build_piggyback_allkeys(s, 2, 1e-4),
    lambda s: build_symmetric_piggyback(s, 2, 2, 1e-4),
], ids=["piggyback-one(2)", "piggyback-allkeys(2)", "symmetric-piggyback(2,2)"])
def test_plan_size_cap_counts_the_expanded_plan_exactly(fig3, build):
    count, expanded = _counted_and_expanded(lambda: build(fig3))
    assert count == expanded


def _drop_key(plan, receiver):
    """The plan without the last key atom of ``receiver``."""
    atoms = plan.placement[receiver]
    k = max(i for i, a in enumerate(atoms) if a.kind == "key")
    placement = dict(plan.placement)
    placement[receiver] = atoms[:k] + atoms[k + 1:]
    return edited(plan, placement=placement)


@pytest.mark.parametrize("build", [
    lambda s: build_piggyback_allkeys(s, 2, 1e-4),
    lambda s: build_symmetric_piggyback(s, 2, 2, 1e-4),
], ids=["piggyback-allkeys(2)", "symmetric-piggyback(2,2)"])
def test_dropped_key_at_a_non_representative_is_caught(fig3, build):
    # The highest-numbered receiver of each class stands for nobody: a
    # changed plan claims no symmetry and is verified in full.
    plan = build(fig3)
    assert verify_plan(plan, fig3).passed
    for receiver in (fig3.K_w, fig3.K):
        mutated = _drop_key(plan, receiver)
        assert mutated.orbits.representatives == tuple(range(1, fig3.K + 1))
        rep = verify_plan(mutated, fig3)
        assert not (rep.check("DECODE").passed and rep.check("SECRECY").passed)
        assert rep.to_json() == verify_plan_explicit(mutated, fig3, total=exact).to_json()


def _edit_segment(plan, si, change):
    """``plan`` with segment ``si`` replaced by ``change(segment)``."""
    schedule = list(plan.schedule)
    schedule[si] = change(schedule[si])
    return edited(plan, schedule=tuple(schedule))


def _edit_unit(plan, si, ui, **fields):
    """``plan`` with ``fields`` of unit ``ui`` of segment ``si`` changed."""
    def change(seg):
        units = list(seg.units)
        units[ui] = units[ui]._replace(**fields)
        return seg._replace(units=tuple(units))
    return _edit_segment(plan, si, change)


def _claim(plan, **fields):
    """``plan`` claiming a changed point."""
    return edited(plan, claimed_point=dataclasses.replace(plan.claimed_point, **fields))


#: One broken copy of fig3 ``piggyback-one(2)`` per kind of verify
#: failure: the check it fails and the start of that check's detail.  The
#: plan's segments are (1, 0) (weak XORs), (2, (i, j)) (10 piggyback rows)
#: and (3, r) for each strong receiver r (one binned unit each).
MUTATIONS = {
    "fractions-off-one": (
        lambda p: _edit_segment(p, 0, lambda seg: seg._replace(fraction=seg.fraction / 2)),
        "RATE", "fractions sum to 0.99"),
    "segment-over-capacity": (
        lambda p: _edit_unit(p, 12, 0, decode_load={7: 1.0}),
        "RATE", "segment (3, 7), receiver 7: load 1 vs capacity"),
    "part-never-delivered": (
        lambda p: _edit_segment(p, 0, lambda seg: seg._replace(units=seg.units[1:])),
        "DECODE", "receiver 1 cannot obtain part 'B[2,3]'"),
    "tiling-misses-claimed-rate": (
        lambda p: _claim(p, R=p.claimed_point.R + 1e-6),
        "DECODE", "receiver 1 reassembles rate 0.03151033797216699"),
    "xor-repeats-a-label": (
        lambda p: _edit_segment(p, 1, lambda seg: seg._replace(units=seg.units + (
            seg.units[0]._replace(parts=((1, "A[2]"), (2, "A[2]"))),))),
        "DECODE", "demand (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1): "
                  "merged contributions in segment (2, (1, 2))"),
    "bin-zeroed": (
        lambda p: _edit_unit(p, 13, 0, bin_rate=0.0),
        "SECRECY", "segment (3, 8): securing 0 vs required"),
    "memory-claim-below-usage": (
        lambda p: _claim(p, M_w=p.claimed_point.M_w - 1e-3),
        "CACHE", "receiver 1: usage 0.233613 vs claimed 0.232613"),
}


@pytest.mark.parametrize("kind", sorted(MUTATIONS))
def test_each_failure_kind_matches_the_full_scan(fig3, kind):
    mutate, name, detail = MUTATIONS[kind]
    plan = build_piggyback_one(fig3, 2, 1e-4)
    assert verify_plan(plan, fig3).passed
    mutated = mutate(plan)
    rep = verify_plan(mutated, fig3)
    check = rep.check(name)
    assert not check.passed
    assert check.detail.startswith(detail), check.detail
    assert rep.to_json() == verify_plan_explicit(mutated, fig3, total=exact).to_json()


@pytest.mark.parametrize("name", [
    "scheme_name", "params", "orbits", "claimed_point", "key_rates",
    "message_parts", "virtual_cached", "schedule", "placement",
])
def test_assigning_a_plan_field_raises(fig3, name):
    plan = build_symmetric_piggyback(fig3, 2, 2, 1e-4)
    value = getattr(plan, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(plan, name, value)


def test_explicit_plans_have_one_class_per_receiver(fig3):
    one_each = tuple((r,) for r in range(1, fig3.K + 1))
    explicit = [BUILDERS[name](fig3, 1e-4) for name in (
        "wiretap-cached-keys", "superposition-jamming", "piggyback-two", "cached-keys-all")]
    subset = [build_piggyback_one(fig3, 2, 1e-4), build_piggyback_allkeys(fig3, 2, 1e-4),
              build_symmetric_piggyback(fig3, 2, 2, 1e-4)]
    for plan in explicit:
        assert plan.orbits.classes == one_each, plan.scheme_name
    for plan in explicit + subset:
        changed = edited(plan)
        assert changed.orbits.classes == one_each, plan.scheme_name
        assert changed.to_json() == plan.to_json(), plan.scheme_name


#: SHA-256 of the stdout of ``verify`` on these plans before plans carried
#: orbits (the full-scan verifier), and before the explicit builders'
#: plans did.  Its sums then added one term at a time, as ``legacy`` does.
PARENT_REPORTS = {
    ("fig5", "piggyback-allkeys", "--t", "3"):
        "bf94d3df83041e60562770c3745d33a8a34d4e0846161adc6a08ba457243ce04",
    ("fig3", "symmetric-piggyback", "--tw", "1", "--ts", "7"):
        "336bde8a5db36be8a705042b1fc8a6b44892a6670315d09f387ecd9c9ebbf38e",
    ("fig3", "superposition-jamming"):
        "253376f9b0bfad7f00a45d465223ce5c27a53f72b853975cac97c1c10e666f26",
    ("fig5", "cached-keys-all"):
        "c690aba1e23277613b20c0fd8e5487164dcbcaf0fb37b2089eb1d348567f1054",
}


@pytest.mark.parametrize("case", sorted(PARENT_REPORTS))
def test_verify_never_expands_a_plan(case, monkeypatch, capsys):
    def expand(self):
        raise AssertionError("verify expanded an orbit plan")

    verified = []

    def spy(plan, s):
        verified.append((plan, s))
        return verify_plan(plan, s)

    monkeypatch.setattr(schemes, "verify_plan", spy)
    monkeypatch.setattr(schemes.SchemePlan, "schedule", property(expand))
    monkeypatch.setattr(schemes.SchemePlan, "placement", property(expand))
    preset, scheme, *params = case
    assert main(["verify", "--preset", preset, "--scheme", scheme, *params]) == 0
    out = capsys.readouterr().out
    monkeypatch.undo()
    [(plan, s)] = verified

    def stdout(total):
        return verify_plan_explicit(plan, s, total=total).to_json(indent=2) + "\n"

    assert hashlib.sha256(stdout(legacy).encode()).hexdigest() == PARENT_REPORTS[case]
    assert out == stdout(exact)


SIMULATED = [
    ("fig3", "symmetric-piggyback", "--tw", "2", "--ts", "2", "--n", "5000"),
    ("fig3", "symmetric-piggyback", "--tw", "2", "--ts", "2", "--n", "50000"),
    ("fig5", "piggyback-one", "--t", "1", "--n", "50000"),
    ("fig3", "piggyback-allkeys", "--t", "2", "--n", "50000"),
]


@pytest.mark.parametrize("case", SIMULATED)
def test_simulate_never_expands_a_subset_plan(case, monkeypatch, capsys):
    def expand(self):
        raise AssertionError("simulate expanded an orbit plan")

    simulated = []

    def spy(plan, s, cfg):
        simulated.append((plan, s, cfg))
        return run(plan, s, cfg)

    run = simulate.run_monte_carlo
    monkeypatch.setattr(simulate, "run_monte_carlo", spy)
    monkeypatch.setattr(schemes.SchemePlan, "schedule", property(expand))
    monkeypatch.setattr(schemes.SchemePlan, "placement", property(expand))
    preset, scheme, *params = case
    argv = ["simulate", "--preset", preset, "--scheme", scheme, *params,
            "--trials", "3", "--seed", "17", "--demands", "random:1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.undo()
    [(plan, s, cfg)] = simulated
    assert out == monte_carlo_scalar(plan, s, cfg).to_json(indent=2) + "\n"


def test_simulate_lists_no_key_family(fig3):
    # Who holds a label is read label by label (schemes._Holders): the
    # compile formats the keys its units name and lists no key family whole.
    plan = build_symmetric_piggyback(fig3, 2, 2, 1e-4)
    simulate._compile(plan, fig3, 50000)
    keys = [run.labels for group in plan.orbits.families for run in group if run.kind == "key"]
    assert len(keys) == 4 and not any(type(family.label) is dict for family in keys)


def _spied(plan):
    """``plan`` with each orbit's ``units`` recording, in a list per orbit,
    the members it is called for."""
    calls = [[] for _ in plan.orbits.orbits]

    def spy(orb, called):
        def units(m):
            called.append(m)
            return orb.units(m)
        return units

    po = plan.orbits
    orbits = tuple(orb._replace(units=spy(orb, called))
                   for orb, called in zip(po.orbits, calls))
    return dataclasses.replace(plan, orbits=po._replace(orbits=orbits)), calls


@pytest.mark.parametrize("preset,build", [
    ("fig3", lambda s: build_symmetric_piggyback(s, 2, 2, 1e-4)),
    ("fig5", lambda s: build_piggyback_one(s, 1, 1e-4)),
], ids=["symmetric-piggyback(2,2)", "piggyback-one(1)"])
def test_simulate_builds_the_first_member_of_a_many_segment_orbit_only(preset, build):
    # The other members are stamped from the first member's walk; a
    # one-segment orbit (the piggyback phase 1) walks every member's units.
    s = ChannelScenario(**PRESETS[preset])
    plan = build(s)
    spied, calls = _spied(plan)
    cfg = SimConfig(50000, 3, 17, "random:1")
    got = simulate.run_monte_carlo(spied, s, cfg).to_json()
    for orb, called in zip(plan.orbits.orbits, calls):
        members = list(orb.members)
        assert called == (members if orb.one_segment else members[:1]), orb.phase
    assert sum(len(orb.members) > 1 and not orb.one_segment for orb in plan.orbits.orbits) >= 2
    assert got == monte_carlo_scalar(plan, s, cfg).to_json()
    _same_compile(plan, s, cfg.n)


def test_a_member_read_outside_the_stamp_is_not_stamped(fig3):
    # Each row of the pair orbit (weak i, strong j) is loaded at every weak
    # receiver: the first member's walk reads weak ids other than its own,
    # in a class the orbit moves, which no renaming of the first member's
    # ids gives.  Every member of that orbit then walks its own units, and
    # the plan still compiles as the threshold-dict compile does.
    plan = build_symmetric_piggyback(fig3, 2, 2, 1e-4)
    weak = dict.fromkeys(fig3.weak_ids, 1e-3)

    def widened(orb):
        def units(ij):
            row, column = orb.units(ij)
            return row._replace(decode_load=weak | row.decode_load), column
        return orb._replace(units=units) if orb.phase == 2 else orb

    po = plan.orbits._replace(orbits=tuple(map(widened, plan.orbits.orbits)))
    plan = dataclasses.replace(plan, orbits=po)
    assert schemes._symmetry(plan).blocks
    for n in (5000, 50000):
        _same_compile(plan, fig3, n)
    spied, calls = _spied(plan)
    simulate._compile(spied, fig3, 50000)
    for orb, called in zip(plan.orbits.orbits, calls):
        members = list(orb.members)
        assert called == (members if orb.phase == 2 else members[:1]), orb.phase
    cfg = SimConfig(50000, 2, 3, "random:1")
    assert (simulate.run_monte_carlo(plan, fig3, cfg).to_json()
            == monte_carlo_scalar(plan, fig3, cfg).to_json())


@settings(max_examples=40)
@given(scenarios(max_k=5), st.sampled_from((1e-4, 0.05)), st.sampled_from((200, 5000, 10**6)))
def test_stamped_compiles_equal_the_threshold_dict_compile(s, eps, n):
    # Every subset builder plan at every index of small scenarios, with
    # erasures of 0 and 1, down to n = 200, where a segment can round to
    # zero channel uses.
    for case_id, build in _builds(s, eps):
        if case_id.split("(")[0] in SUBSET_BUILDERS:
            try:
                plan = build()
            except DOCUMENTED:
                continue
            _same_compile(plan, s, n)
