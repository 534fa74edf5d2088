"""Walkthrough: the tradeoff when only weak receivers hold caches.

A broadcast channel erases each transmitted bit independently: with
probability 0.7 at the 5 weak receivers, 0.3 at the 15 strong ones,
and 0.8 at the eavesdropper.  The library holds 30 files.  We compute
the achievable corner points, take their memory-sharing hull, and
compare against the converse bound, watching where the two meet.

Run:  python3 demos/01_weak_only_tradeoff.py
"""

from secache import (
    CacheSizes,
    ChannelScenario,
    Tradeoff,
    eval_hull_1d,
    exact_regimes,
    points_separate,
    points_weak_only,
    ub_best_grid,
    weak_only_max_slope,
    zero_cache_capacity,
)

s = ChannelScenario(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=30)
# the scenario's corner families and hulls, each built once on first use
lower = Tradeoff(s)

print("=" * 72)
print("scenario:", s.to_json())
print("=" * 72)

# ---------------------------------------------------------------------------
# 1. With no caches at all, secrecy rate is the harmonic-style baseline.
# ---------------------------------------------------------------------------
print(f"\nzero-cache secrecy capacity: {zero_cache_capacity(s):.6f}")
print(f"initial slope in weak cache size: {weak_only_max_slope(s):.4f}")
print("(storing pure keys pays off this steeply because a key helps")
print(" whatever file is demanded; data only helps for some demands)")

# ---------------------------------------------------------------------------
# 2. The corner points, one per coding scheme.
# ---------------------------------------------------------------------------
print("\ncorner points (memory at weak receivers, rate):")
for p in points_weak_only(s):
    print(f"  {p.label:26s} M_w={p.M_w:9.6f}  R={p.R:9.6f}")

# ---------------------------------------------------------------------------
# 3. Hull vs converse on a memory sweep.  Watch the exact regimes: the
#    keys-only segment at small memory and the saturated tail.  The
#    converse is evaluated over the whole sweep in one call.
# ---------------------------------------------------------------------------
print("\n   M_w      lower    upper    gap")
sweep = [0.0, 0.005, 0.01, 0.0142857, 0.05, 0.1, 0.3, 0.4727, 0.8, 1.2]
for m, upper in zip(sweep, ub_best_grid(s, [CacheSizes(m, 0.0) for m in sweep])):
    lo = eval_hull_1d(lower.weak_curve, m)
    print(f"  {m:7.4f}  {lo:.6f} {upper.value:.6f}  {upper.value - lo:.2e}")

# ---------------------------------------------------------------------------
# 4. Separate cache-channel coding loses rate in the middle of the curve.
# ---------------------------------------------------------------------------
sep = {p.label: p for p in points_separate(s)}
print(f"\nseparate-coding node t=1: M_w={sep['separate[t=1]'].M_w:.6f}, "
      f"R={sep['separate[t=1]'].R:.6f}")
print(f"joint-coding hull there:  R={eval_hull_1d(lower.weak_curve, sep['separate[t=1]'].M_w):.6f}")

# ---------------------------------------------------------------------------
# 5. Machine-checked exactness certificates.
# ---------------------------------------------------------------------------
print("\ncertified exact regimes:")
for claim in exact_regimes(s).claims:
    if claim.applicable:
        print(f"  {claim.name:28s} exact={claim.exact} "
              f"max_dev={claim.max_deviation:.2e} interval={claim.interval}")
