"""Walkthrough: coding schemes as explicit, checkable delivery plans.

Every corner point is backed by a constructive plan: a demand-agnostic
placement (which file parts and secret keys sit in which cache) and a
delivery schedule (time-shared segments carrying padded XORs, piggyback
rows/columns, or wiretap payloads).  The verifier replays four checks:

  RATE     decode loads fit each receiver's erasure capacity
  DECODE   cache + peeled deliveries reassemble every demanded file
  SECRECY  keys + wiretap bins cover what the eavesdropper could see
  CACHE    placement fits the claimed memory

Run:  python3 demos/03_scheme_plans.py
"""

import dataclasses

from secache import (
    ChannelScenario,
    build_piggyback_one,
    build_symmetric_piggyback,
    cache_usage_by_class,
    verify_plan,
)
from secache.schemes import PlanOrbits

s = ChannelScenario(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=30)
plan = build_piggyback_one(s, t=1, eps=1e-4)

print("scheme:", plan.scheme_name, plan.params)
print("claimed point:", plan.claimed_point)

print("\nplacement at weak receiver 1:")
for atom in plan.placement[1]:
    per_file = " per file" if atom.kind == "file_part" else ""
    print(f"  {atom.kind:9s} {atom.label:12s} rate={atom.rate:.6f}{per_file}")
usage = cache_usage_by_class(plan, s)
print(f"cache usage: weak {usage.M_w:.6f}, strong {usage.M_s:.6f}")

print("\nschedule (first 4 segments):")
for seg in plan.schedule[:4]:
    print(f"  segment {seg.id} fraction={seg.fraction:.6f}")
    for unit in seg.units[:3]:
        parts = " + ".join(f"W[d_{slot}].{lbl}" for slot, lbl in unit.parts)
        keys = ",".join(unit.pad_keys) or "-"
        print(f"    carries {parts}  pads={keys}  bin={unit.bin_rate:.6f}")
    if len(seg.units) > 3:
        print(f"    ... {len(seg.units) - 3} more units")

rep = verify_plan(plan, s)
print("\nverification:")
for check in rep.checks:
    print(f"  {check.name:8s} passed={check.passed} margin={check.margin:.3e}")

# ---------------------------------------------------------------------------
# Tamper with the plan: remove one key from one cache.  The holder can no
# longer strip the pad from its XOR, and DECODE flags it.  A plan is
# immutable, so the tampered plan is a new one.  Its orbits come from its
# schedule and placement (PlanOrbits.explicit): it claims no symmetry, so
# every segment and every receiver is checked.
# ---------------------------------------------------------------------------
victim = next(a.label for a in plan.placement[1] if a.kind == "key")
placement = dict(plan.placement)
placement[1] = tuple(a for a in placement[1] if a.label != victim)
orbits = PlanOrbits.explicit(range(1, s.K + 1), plan.schedule, placement)
tampered = dataclasses.replace(plan, orbits=orbits)
rep = verify_plan(tampered, s)
print(f"\nafter removing {victim} from receiver 1's cache:")
print(f"  DECODE passed={rep.check('DECODE').passed}  "
      f"({rep.check('DECODE').detail})")

# ---------------------------------------------------------------------------
# The pairwise scheme with caches everywhere: 3 weak x 2 strong receivers
# yields six piggyback periods, one per (weak, strong) pair.
# ---------------------------------------------------------------------------
s2 = ChannelScenario(K_w=3, K_s=2, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=6)
plan2 = build_symmetric_piggyback(s2, t_w=2, t_s=1, eps=1e-4)
pairs = [seg.id[1] for seg in plan2.schedule if seg.id[0] == 2]
print(f"\nsymmetric scheme pairing periods: {pairs}")
print("verified:", verify_plan(plan2, s2).passed)
