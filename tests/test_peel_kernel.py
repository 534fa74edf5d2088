"""The bitmask peel rule, the one-walk plan compile and the compiled
threshold kernel against their references: the per-receiver schedule
scan, the threshold-dict compile and the scalar trial loop kept in
``tests/oracles.py``.

Builder plans cover the subset builders over a wide range of ``t``; the
hand-mutated plans reach the branches no builder plan does (missing keys,
context or XOR partners, repeated XOR labels, several slots in one concat
unit, rate mismatches, zero loads, starved parts, erasures of 0 and 1).
On a class view, where only the representatives want parts, the peel
rule must give them exactly their deliveries in the full plan, and
``verify_plan``, which peels one member per sub-orbit of each
representative, must report as the class-view verifier does.
The block tests shrink the trial block to a few trials, so that runs
cross block edges; the draw-path tests send the same plans through both
ways of drawing a trial, one scalar ``binomial`` call per run of equal
(length, probability) and one array call.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from oracles import (
    _class_view,
    compile_threshold_dict,
    deliveries,
    deliveries_one_receiver,
    exact,
    monte_carlo_scalar,
    verify_plan_class_view,
)
from strategies import edited, scenarios
from secache import ChannelScenario, SecacheError, SimConfig, run_monte_carlo, schemes, simulate
from secache.cli import PRESETS
from secache.schemes import (
    DeliveryUnit,
    _Holders,
    _symmetry,
    build_cached_keys_all,
    build_piggyback_allkeys,
    build_piggyback_one,
    build_symmetric_piggyback,
    peel_rule,
    verify_plan,
)

PAIRS = ChannelScenario(K_w=2, K_s=2, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=5)
TRIO = ChannelScenario(K_w=3, K_s=2, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=6)
SMALL = ChannelScenario(K_w=1, K_s=1, delta_w=0.5, delta_s=0.2, delta_z=0.9, D=3)


def _builder_plans():
    for p in ("fig3", "fig4"):
        s = ChannelScenario(**PRESETS[p])
        for t_w in range(1, 6):
            for t_s in (1, 2, 5, 8, 14, 15):
                yield f"{p}|symmetric({t_w},{t_s})", s, (
                    lambda s, t_w=t_w, t_s=t_s: build_symmetric_piggyback(s, t_w, t_s, 1e-4)
                )
    for p in ("fig3", "fig4", "fig5"):
        s = ChannelScenario(**PRESETS[p])
        for t in (1, 2, 3, 4, 18, 19):
            yield f"{p}|piggyback-one({t})", s, (
                lambda s, t=t: build_piggyback_one(s, t, 1e-4)
            )
            yield f"{p}|piggyback-allkeys({t})", s, (
                lambda s, t=t: build_piggyback_allkeys(s, t, 1e-4)
            )


def _reference_deliveries(plan, K):
    out = {r: deliveries_one_receiver(plan, r) for r in range(1, K + 1)}
    return {r: d for r, d in out.items() if d}


def _same_compile(plan, s, n, delivered=None):
    """The one-walk compile and the threshold-dict compile give equal
    arrays (values and dtypes) and starved flags, or the same error;
    ``delivered`` is ``deliveries(plan)``, when the caller holds it."""
    try:
        want = compile_threshold_dict(plan, s, n, delivered)
    except SecacheError as exc:
        with pytest.raises(type(exc)):
            simulate._compile(plan, s, n)
        return
    got = simulate._compile(plan, s, n)
    assert len(got) == len(want)
    assert got.seg_lengths == want[0]
    for name, a, b in zip(got._fields[1:-1], got[1:-1], want[1:-1]):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.starved is want[-1]


def _same_report(plan, s, cfg, delivered=None):
    """run_monte_carlo and the scalar loop give the same JSON or error,
    and the plan compiles as the threshold-dict compile does."""
    _same_compile(plan, s, cfg.n, delivered)
    try:
        want = monte_carlo_scalar(plan, s, cfg).to_json()
    except SecacheError as exc:
        with pytest.raises(type(exc)):
            run_monte_carlo(plan, s, cfg)
        return None
    got = run_monte_carlo(plan, s, cfg).to_json()
    assert got == want
    return got


# ---------------------------------------------------------------------------
# builder plans
# ---------------------------------------------------------------------------

def test_builder_plans_match_the_references():
    # Builder plans are invariant under permutations within each receiver
    # class, so on plans above 2,000 units the first and last receiver of
    # each class stand for the rest (the scan costs K x units), and the
    # scalar loop, about a second per such plan, is left out: it would
    # only add rows to the same arrays, which the compile is still checked
    # for.  A long blocklength keeps every segment above zero channel uses.
    # Each plan is dropped after its checks, so the garbage collector never
    # scans all of them at once.
    checked = simulated = 0
    for i, (case_id, s, build) in enumerate(_builder_plans()):
        try:
            plan = build(s)
        except SecacheError:
            continue
        checked += 1
        got = deliveries(plan)
        receivers = range(1, s.K + 1)
        small = sum(len(seg.units) for seg in plan.schedule) <= 2000
        if not small:
            receivers = sorted({1, s.K_w, s.K_w + 1, s.K})
        for r in receivers:
            assert got.get(r, {}) == deliveries_one_receiver(plan, r), (case_id, r)
        if small:
            policy = ("all-distinct", "random:1")[i % 2]
            cfg = SimConfig(10**7, 1, 1000 + i, policy)
            assert _same_report(plan, s, cfg, got), case_id
            simulated += 1
        else:
            _same_compile(plan, s, 10**7, got)
    assert checked >= 80 and simulated >= 55


def _handed_positions(peel, unit):
    got = set(peel(unit))
    return [part in got for part in unit.parts]


def test_orbit_members_hand_over_at_the_first_members_positions():
    # The simulation compile peels only an orbit's first member and reads
    # every other member's handed parts at the same part positions
    # (schemes.Orbit).  On every builder plan, each member's peel result,
    # unit by unit, is the parts at those positions, its units' decode
    # loads take the first member's values, and who holds a label, read
    # from the families, is who holds it in the placement.
    checked = members = 0
    for case_id, s, build in _builder_plans():
        try:
            plan = build(s)
        except SecacheError:
            continue
        checked += 1
        po = plan.orbits
        placed = _Holders(plan.placement)
        held = _Holders(po.atoms, po.families)
        labels = {*placed, *(label for parts in plan.message_parts.values() for label, _ in parts)}
        for label in labels:
            assert held[label] == placed[label], (case_id, label)
        peel = peel_rule(held, plan.message_parts, plan.virtual_cached)
        firsts, blocks, receivers = _symmetry(plan)
        assert blocks and receivers == po.representatives, case_id
        for orb, block in zip(po.orbits, firsts):
            at = [_handed_positions(peel, unit) for unit in block]
            loads = [sorted(unit.decode_load.values()) for unit in block]
            for m in orb.members:
                units = orb.units(m)
                assert len(units) == len(block), (case_id, m)
                for k, unit in enumerate(units):
                    assert list(peel(unit)) == list(itertools.compress(unit.parts, at[k])), (
                        case_id, m, k)
                    assert sorted(unit.decode_load.values()) == loads[k], (case_id, m, k)
                members += 1
    assert checked >= 80 and members > 20000


def test_builder_plans_verify_as_the_class_view():
    # verify_plan peels one member per sub-orbit of each representative;
    # the class view peels every unit that hands a representative a part.
    checked = 0
    for case_id, s, build in _builder_plans():
        try:
            plan = build(s)
        except SecacheError:
            continue
        checked += 1
        got = verify_plan(plan, s).to_json()
        assert got == verify_plan_class_view(plan, s, total=exact).to_json(), case_id
    assert checked >= 80


# ---------------------------------------------------------------------------
# hand-mutated plans
# ---------------------------------------------------------------------------

def _replace_unit(plan, si, ui, **changes):
    seg = plan.schedule[si]
    units = list(seg.units)
    units[ui] = units[ui]._replace(**changes)
    schedule = list(plan.schedule)
    schedule[si] = seg._replace(units=tuple(units))
    return edited(plan, schedule=tuple(schedule))


def _add_unit(plan, si, unit):
    seg = plan.schedule[si]
    schedule = list(plan.schedule)
    schedule[si] = seg._replace(units=seg.units + (unit,))
    return edited(plan, schedule=tuple(schedule))


def _drop_atom(plan, r, label):
    placement = dict(plan.placement)
    kept = tuple(a for a in placement[r] if a.label != label)
    assert len(kept) < len(placement[r])
    placement[r] = kept
    return edited(plan, placement=placement)


def _find(plan, pred):
    for si, seg in enumerate(plan.schedule):
        for ui, unit in enumerate(seg.units):
            if pred(unit):
                return si, ui
    raise AssertionError("no unit matches")


def _pairs_mutations():
    """symmetric(1,1) on two weak and two strong receivers: an XOR over
    (1, 2), one row/column pair per (weak, strong) pair, an XOR over (3, 4)."""
    plan = build_symmetric_piggyback(PAIRS, 1, 1, 0.01)
    yield "intact", plan
    yield "dropped pad key Kw1[1,2]", _drop_atom(plan, 1, "Kw1[1,2]")
    yield "dropped context key Ks[1,3]", _drop_atom(plan, 1, "Ks[1,3]")
    yield "dropped XOR partner A[1]", _drop_atom(plan, 1, "A[1]")
    virtual = dict(plan.virtual_cached)
    virtual[1] = frozenset()
    yield "dropped virtual context Ar[1]", edited(plan, virtual_cached=virtual)
    context = dict(plan.schedule[1].units[0].context)
    context[1] = context[1] + ("Z",)
    yield "context label nobody holds", _replace_unit(plan, 1, 0, context=context)
    xor = plan.schedule[0].units[0]
    yield "repeated XOR label", _replace_unit(
        plan, 0, 0, parts=((1, "A[2]"), (2, "A[2]"))
    )
    # each slot's receiver holds its own label and lacks its partner's
    yield "swapped XOR labels", _replace_unit(
        plan, 0, 0, parts=((1, "A[1]"), (2, "A[2]"))
    )
    yield "XOR partner held only virtually", _replace_unit(
        plan, 0, 0, parts=xor.parts + ((1, "Ar[1]"),),
        part_rates=xor.part_rates * 2,
    )
    yield "part rate differs from message rate", _replace_unit(
        plan, 0, 0, part_rates=(xor.part_rates[0] / 2,) * 2
    )
    yield "zero-load entry", _replace_unit(
        plan, 0, 0, decode_load={1: 0.0, 2: xor.decode_load[2]}
    )
    yield "second provider for A[2]", _add_unit(plan, 1, DeliveryUnit(
        parts=((1, "A[2]"),),
        part_rates=xor.part_rates[:1],
        pad_keys=("Kw[1,3]",),
        decode_load={1: 0.01},
    ))
    message_parts = dict(plan.message_parts)
    message_parts[3] = message_parts[3] + (("nowhere", 0.01),)
    yield "part with no provider", edited(plan, message_parts=message_parts)
    delivered = next(iter(deliveries(plan)[1]))
    message_parts = dict(plan.message_parts)
    message_parts[1] += tuple(p for p in message_parts[1] if p[0] == delivered)
    yield "delivered part listed twice", edited(plan, message_parts=message_parts)


def _trio_mutations():
    """piggyback-allkeys(1) on three weak and two strong receivers: padded
    XORs, rows with context, padded columns, a padded concat per strong
    receiver."""
    plan = build_piggyback_allkeys(TRIO, 1, 0.01)
    yield "intact", plan
    si, ui = _find(plan, lambda u: u.combine == "concat")
    concat = plan.schedule[si].units[ui]
    j, label = concat.parts[0]
    j2 = next(r for r in TRIO.strong_ids if r != j)
    rate_b = dict(plan.message_parts[j2])["B[1]"]
    yield "concat with several slots", _replace_unit(
        plan, si, ui,
        parts=concat.parts + ((j2, "B[1]"), (j, label)),
        part_rates=concat.part_rates + (rate_b, concat.part_rates[0]),
        pad_keys=(),
        decode_load=concat.decode_load | {j2: 0.001},
    )
    yield "concat pad key dropped", _drop_atom(plan, j, concat.pad_keys[0])
    si, ui = _find(plan, lambda u: len(u.parts) > 1 and u.combine == "xor")
    unit = plan.schedule[si].units[ui]
    yield "XOR pad key dropped at one slot", _drop_atom(
        plan, unit.parts[0][0], unit.pad_keys[0]
    )


def _mutated_cases():
    for name, plan in _pairs_mutations():
        yield f"pairs|{name}", PAIRS, plan
    for name, plan in _trio_mutations():
        yield f"trio|{name}", TRIO, plan
    yield "small|cached-keys-all", SMALL, build_cached_keys_all(SMALL, 1e-3)


MUTATED = list(_mutated_cases())


@pytest.mark.parametrize("case_id,s,plan", MUTATED, ids=[c[0] for c in MUTATED])
def test_deliveries_match_per_receiver_scan_on_mutated_plans(case_id, s, plan):
    assert deliveries(plan) == _reference_deliveries(plan, s.K)


@pytest.mark.parametrize("case_id,s,plan", MUTATED, ids=[c[0] for c in MUTATED])
def test_kernel_matches_scalar_trials_on_mutated_plans(case_id, s, plan):
    policies = ["all-distinct", "random:3"]
    if s.D**s.K <= 700:
        policies.append("exhaustive-if-small")
    for n in (3000, 100000):
        for policy in policies:
            _same_report(plan, s, SimConfig(n, 3, 7, policy))
    # erasures of 0 and 1: every draw is the whole segment, or nothing
    for dw, ds in ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0)):
        edge = dataclasses.replace(s, delta_w=dw, delta_s=ds)
        _same_report(plan, edge, SimConfig(3000, 2, 5, "random:3"))


def test_mutations_break_decode():
    # The mutated cases are not vacuous: each one that removes a provider
    # fails DECODE, and the two that add one keep it.
    keep = ("intact", "cached-keys-all", "second provider for A[2]",
            "concat with several slots")
    for case_id, s, plan in MUTATED:
        passed = verify_plan(plan, s).check("DECODE").passed
        assert passed == case_id.endswith(keep), case_id


def test_extra_providers_are_listed_in_schedule_order():
    plan = dict(_pairs_mutations())["second provider for A[2]"]
    assert deliveries(plan)[1]["A[2]"] == [(0, 0), (1, 2)]
    plan = dict(_trio_mutations())["concat with several slots"]
    si, ui = _find(plan, lambda u: u.combine == "concat")
    j, label = plan.schedule[si].units[ui].parts[0]
    assert deliveries(plan)[j][label] == [(si, ui), (si, ui)]


def test_draw_order_holds_for_receiver_ids_above_a_set_resize():
    # A segment's draws follow the iteration order of the set of its
    # loaded receivers, which depends on how that set was built, not only
    # on its members.  With 5 to 7 receivers and ids of 16 or more, adding
    # them one at a time and adding them all at once give different
    # orders (the table sizes differ), so this case pins the former.
    s = ChannelScenario(K_w=16, K_s=3, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=20)
    plan = build_piggyback_one(s, 2, 1e-4)
    loads = [sorted(r for r, x in u.decode_load.items() if x > 0)
             for seg in plan.schedule for u in seg.units]
    assert [5, 6, 17, 18, 19] in loads
    assert _same_report(plan, s, SimConfig(10**6, 2, 3, "random:2"))


# ---------------------------------------------------------------------------
# class views: only receivers that want a part are peeled for
# ---------------------------------------------------------------------------

def _subset_builds(s, ts):
    for t in ts:
        yield f"piggyback-one({t})", lambda t=t: build_piggyback_one(s, t, 1e-4)
        yield f"piggyback-allkeys({t})", lambda t=t: build_piggyback_allkeys(s, t, 1e-4)
        for t_s in ts:
            yield (f"symmetric({t},{t_s})",
                   lambda t=t, t_s=t_s: build_symmetric_piggyback(s, t, t_s, 1e-4))


def _view_matches_plan(case_id, s, build) -> bool:
    """deliveries(view) equals deliveries(plan) restricted to the
    representatives, once the view's one segment is mapped back onto the
    plan's units that hand a representative a part; False when the
    builder refuses."""
    try:
        plan = build()
    except SecacheError:
        return False
    view, reps = _class_view(plan)
    at = [(si, ui) for si, seg in enumerate(plan.schedule)
          for ui, unit in enumerate(seg.units)
          if any(r in reps for r, _ in unit.parts)]
    assert view.schedule[0].units == tuple(
        plan.schedule[si].units[ui] for si, ui in at), case_id
    got = {r: {label: [at[ui] for _, ui in where] for label, where in d.items()}
           for r, d in deliveries(view).items()}
    full = deliveries(plan)
    assert got == {r: full[r] for r in reps if r in full}, case_id
    return True


@pytest.mark.parametrize("preset", ["fig3", "fig4", "fig5"])
def test_class_view_deliveries_are_the_plans_on_presets(preset):
    s = ChannelScenario(**PRESETS[preset])
    checked = [_view_matches_plan(case_id, s, build)
               for case_id, build in _subset_builds(s, (1, 2))]
    assert sum(checked) >= 3


@settings(max_examples=60)
@given(scenarios(max_k=5))
def test_class_view_deliveries_are_the_plans(s):
    for case_id, build in _subset_builds(s, range(1, 6)):
        _view_matches_plan(case_id, s, build)


@pytest.mark.parametrize("build", [
    lambda s: build_cached_keys_all(s, 1e-4),
    lambda s: build_piggyback_one(s, 2, 1e-4),
    lambda s: build_symmetric_piggyback(s, 2, 2, 1e-4),
], ids=["cached-keys-all", "piggyback-one(2)", "symmetric(2,2)"])
@pytest.mark.parametrize("idle", [1, 2, 20])
def test_receiver_wanting_nothing_leaves_the_others_alone(fig3, build, idle):
    plan = build(fig3)
    full = deliveries(plan)
    assert idle in full
    others = {r: d for r, d in full.items() if r != idle}
    for message_parts in (
        {**plan.message_parts, idle: ()},
        {r: p for r, p in plan.message_parts.items() if r != idle},
    ):
        changed = edited(plan, message_parts=message_parts)
        assert deliveries(changed) == others


def _same_reports(replaced, copy, s, cfg):
    """The replaced plan's verify report and simulation report are the
    edited copy's (every receiver its own class), byte for byte."""
    got = verify_plan(replaced, s)
    assert got.to_json() == verify_plan(copy, s).to_json()
    assert run_monte_carlo(replaced, s, cfg).to_json() == run_monte_carlo(copy, s, cfg).to_json()
    return got


@pytest.mark.parametrize("case", ["part added", "part dropped"])
def test_verify_reads_replaced_message_parts(fig3, case):
    # A plan whose message parts were replaced keeps its orbits and
    # families but claims no symmetry: verify reads the replaced parts,
    # member by member, and reports as it does on the same plan with
    # explicit orbits, and so does the simulation.  A part that no unit
    # carries is one the simulation starves, so it fails every trial.
    if case == "part added":
        plan = build_piggyback_one(fig3, 2, 0.002)
        parts = plan.message_parts[1] + (("nowhere", 0.01),)
    else:
        plan = build_symmetric_piggyback(fig3, 2, 2, 1e-4)
        parts = plan.message_parts[1][:-1]
    assert verify_plan(plan, fig3).passed
    message_parts = {**plan.message_parts, 1: parts}
    replaced = dataclasses.replace(plan, message_parts=message_parts)
    cfg = SimConfig(10**6, 3, 1)
    got = _same_reports(replaced, edited(plan, message_parts=message_parts), fig3, cfg)
    detail = got.check("DECODE").detail
    if case == "part added":
        assert detail == "receiver 1 cannot obtain part 'nowhere'"
        assert run_monte_carlo(replaced, fig3, cfg).worst_case_error_rate == 1.0
    else:
        assert detail.startswith("receiver 1 reassembles rate ")


@pytest.mark.parametrize("receiver", [2, 7])
def test_verify_reads_replaced_message_parts_beyond_representatives(fig3, receiver):
    # As above, but the part is added at a receiver that is not its class's
    # representative: the replaced plan is checked at every receiver, as
    # its explicit copy is, and reads "receiver 2 cannot obtain part
    # 'nowhere'" (or receiver 7's).
    plan = build_piggyback_one(fig3, 2, 0.002)
    parts = plan.message_parts[receiver] + (("nowhere", 0.01),)
    message_parts = {**plan.message_parts, receiver: parts}
    replaced = dataclasses.replace(plan, message_parts=message_parts)
    copy = edited(plan, message_parts=message_parts)
    want = verify_plan(copy, fig3)
    assert verify_plan(replaced, fig3).to_json() == want.to_json()
    assert want.check("DECODE").detail == f"receiver {receiver} cannot obtain part 'nowhere'"
    cfg = SimConfig(10**6, 3, 1)
    assert run_monte_carlo(replaced, fig3, cfg).to_json() == run_monte_carlo(copy, fig3, cfg).to_json()


@pytest.mark.parametrize("receiver", [1, 3])
def test_replaced_virtual_cached_loses_the_symmetry(fig3, receiver):
    # symmetric-piggyback's rows and columns need the receiver's own Ar or
    # Br slice, held virtually, as decoder context.  Emptying a receiver's
    # virtual labels leaves its Br parts without a provider: verify and the
    # simulation must both see that at every receiver, not only at a class
    # representative, and report as the explicit copy does.
    plan = build_symmetric_piggyback(fig3, 2, 2, 0.01)
    assert verify_plan(plan, fig3).passed
    virtual = {**plan.virtual_cached, receiver: frozenset()}
    replaced = dataclasses.replace(plan, virtual_cached=virtual)
    copy = edited(plan, virtual_cached=virtual)
    cfg = SimConfig(10**7, 5, 1)
    got = _same_reports(replaced, copy, fig3, cfg)
    assert got.check("DECODE").detail.startswith(f"receiver {receiver} cannot obtain part 'Br[")
    report = run_monte_carlo(replaced, fig3, cfg)
    assert report.worst_case_error_rate == 1.0
    assert simulate._compile(replaced, fig3, cfg.n).starved


# ---------------------------------------------------------------------------
# blocks of trials
# ---------------------------------------------------------------------------

BLOCK = 4


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(simulate, "_block_rows", lambda width: BLOCK)


def _all_cached(plan):
    """The plan with every wanted part held virtually: nothing to decode."""
    virtual = {
        r: frozenset(label for label, _ in parts)
        for r, parts in plan.message_parts.items()
    }
    return edited(plan, virtual_cached=virtual)


@pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
@pytest.mark.parametrize("policy", ["all-distinct", "random:3"])
def test_block_edges_match_scalar_trials(small_blocks, trials, policy):
    # At these n the intact plan fails some trials and not others, so a
    # trial lost or tested twice at a block edge changes the counts.
    plan = dict(_pairs_mutations())["intact"]
    reports = [
        json.loads(_same_report(plan, PAIRS, SimConfig(n, trials, 11, policy)))
        for n in (10000, 20000)
    ]
    errors = [d["errors"] for rep in reports for d in rep["per_demand"]]
    assert any(0 < e < trials for e in errors), errors


@pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK + 1])
def test_starved_part_fails_every_trial(small_blocks, trials):
    plan = dict(_pairs_mutations())["part with no provider"]
    rep = json.loads(_same_report(plan, PAIRS, SimConfig(3000, trials, 7, "random:3")))
    assert [d["errors"] for d in rep["per_demand"]] == [trials] * 4
    assert all(st["empirical_erasure_rate"] is not None for st in rep["segment_stats"])


@pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK + 1])
def test_nothing_to_decode_fails_no_trial(small_blocks, trials):
    # n=100 leaves the intact plan short of its thresholds in most trials;
    # with every part cached none of that matters.
    plan = _all_cached(dict(_pairs_mutations())["intact"])
    rep = json.loads(_same_report(plan, PAIRS, SimConfig(100, trials, 7, "random:3")))
    assert rep["worst_case_error_rate"] == 0.0
    assert all(st["empirical_erasure_rate"] is not None for st in rep["segment_stats"])


# ---------------------------------------------------------------------------
# draws by run or by array
# ---------------------------------------------------------------------------

def _preset_builder_plans():
    """Every builder on fig3, fig4 and fig5, at its smallest parameters;
    the builders that refuse a preset are left out."""
    extra = {"piggyback-one": (1,), "piggyback-allkeys": (1,), "symmetric-piggyback": (1, 1)}
    for preset in ("fig3", "fig4", "fig5"):
        s = ChannelScenario(**PRESETS[preset])
        for name, build in schemes.BUILDERS.items():
            try:
                plan = build(s, *extra.get(name, ()), 1e-4)
            except SecacheError:
                continue
            yield f"{preset}|{name}", s, plan


class _SpyGenerator(np.random.Generator):
    """A generator that records, per ``binomial`` call, whether its
    length was an array."""

    calls: list[bool] = []

    def binomial(self, n, p, size=None):
        self.calls.append(np.ndim(n) > 0)
        return super().binomial(n, p, size)


def _array_calls(monkeypatch, plan, s, cfg) -> set[bool]:
    """Whether run_monte_carlo's binomial calls took arrays, as a set."""
    _SpyGenerator.calls = []
    with monkeypatch.context() as m:
        m.setattr(np.random, "Generator", _SpyGenerator)
        run_monte_carlo(plan, s, cfg)
    return set(_SpyGenerator.calls)


@pytest.mark.parametrize("max_runs,array", [(0, True), (10**6, False)], ids=["array", "by-run"])
def test_both_draw_paths_match_scalar_trials(small_blocks, monkeypatch, max_runs, array):
    # Setting the run-count constant sends every plan down one path.
    monkeypatch.setattr(simulate, "_MAX_RUNS", max_runs)
    cases = list(_preset_builder_plans())
    assert len(cases) == 21
    for case_id, s, plan in cases:
        for n in (5000, 50000):
            cfg = SimConfig(n, BLOCK + 1, 3, "random:1")
            assert _same_report(plan, s, cfg), (case_id, n)
        assert _array_calls(monkeypatch, plan, s, cfg) == {array}, case_id
        # weak erasure 1 and strong erasure 0: runs with p = 0 and p = 1
        edge = dataclasses.replace(s, delta_w=1.0, delta_s=0.0)
        assert _same_report(plan, edge, SimConfig(5000, BLOCK + 1, 5, "random:1")), case_id


def _with_runs(count):
    """fig3 wiretap-cached-keys (5 weak segments, then 15 strong ones,
    one draw each: 2 runs) with its last ``count - 2`` segments
    lengthened alternately by 10% and 20%, so that its draws fall into
    ``count`` runs."""
    s = ChannelScenario(**PRESETS["fig3"])
    plan = schemes.build_wiretap_cached_keys(s, 1e-4)
    schedule = list(plan.schedule)
    for k in range(count - 2):
        i = len(schedule) - 1 - k
        schedule[i] = schedule[i]._replace(fraction=schedule[i].fraction * (1.1 + 0.1 * (k % 2)))
    return s, edited(plan, schedule=tuple(schedule))


@pytest.mark.parametrize("extra,array", [(0, False), (1, True)], ids=["at", "above"])
def test_run_count_at_and_above_the_constant(small_blocks, monkeypatch, extra, array):
    count = simulate._MAX_RUNS + extra
    s, plan = _with_runs(count)
    for n in (5000, 50000):
        compiled = simulate._compile(plan, s, n)
        assert len(simulate._runs(compiled.lengths, compiled.probs)) == count
        cfg = SimConfig(n, BLOCK + 1, 9, "random:1")
        assert _same_report(plan, s, cfg), n
        assert _array_calls(monkeypatch, plan, s, cfg) == {array}, n


def test_memory_stays_flat_in_trials(monkeypatch):
    # A 16 KB block budget: 10x the trials must reuse the same block
    # arrays, where one (trials, draws) array would take 10x the room.
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 1 << 14)
    plan = build_cached_keys_all(SMALL, 1e-3)
    run_monte_carlo(plan, SMALL, SimConfig(3000, 1, 5))  # one-time imports
    peaks = []
    for trials in (1500, 15000):
        cfg = SimConfig(3000, trials, 5)
        tracemalloc.start()
        try:
            run_monte_carlo(plan, SMALL, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0], peaks
