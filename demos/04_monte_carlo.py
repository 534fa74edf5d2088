"""Walkthrough: finite-blocklength behaviour of a verified plan.

The rate formulas are asymptotic; at blocklength n the erasure counts
fluctuate around their means.  The simulator samples erasures per
receiver and segment and decodes with the MDS abstraction (a payload of
b bits survives iff at least b symbols arrive unerased, counted
cumulatively over a receiver's units in a segment).  A receiver succeeds
iff every wanted part it lacks in cache has a decoded provider unit, as
given by the verifier's peel rule; pads and XOR partners cancel exactly,
so their values never matter.  The report gives the worst-case error
rate over demands.  The epsilon backoff chosen at build time is exactly
the concentration margin.

Run:  python3 demos/04_monte_carlo.py
"""

from secache import (
    ChannelScenario,
    SimConfig,
    build_piggyback_one,
    build_wiretap_cached_keys,
    run_monte_carlo,
)

s = ChannelScenario(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=30)
plan = build_wiretap_cached_keys(s, eps=0.002)

print("plan:", plan.scheme_name, "rate backoff eps=0.002")
print("\nblocklength sweep (200 trials each, fixed seed):")
print("       n   worst-case error")
for n in (500, 2000, 5000, 20000, 50000):
    rep = run_monte_carlo(plan, s, SimConfig(n=n, trials=200, seed=20240613))
    print(f"  {n:6d}   {rep.worst_case_error_rate:.3f}")
print("errors vanish once segment lengths dwarf the eps margin")

cfg = SimConfig(n=5000, trials=100, seed=7)
r1 = run_monte_carlo(plan, s, cfg)
r2 = run_monte_carlo(plan, s, cfg)
print(f"\nreproducible ({r1.generator} streams): {r1.to_json() == r2.to_json()}")

print("\nempirical erasure rates (first three segments):")
for st in r1.segment_stats[:3]:
    print(f"  segment {st['segment']} length {st['length']}: "
          f"{st['empirical_erasure_rate']:.4f}")

# ---------------------------------------------------------------------------
# A structurally rich plan: XOR peeling plus cache-restricted decoding.
# ---------------------------------------------------------------------------
plan2 = build_piggyback_one(s, t=1, eps=0.01)
rep = run_monte_carlo(plan2, s, SimConfig(n=60000, trials=50, seed=11))
print(f"\npiggyback plan at n=60000: worst-case error "
      f"{rep.worst_case_error_rate:.3f}")
