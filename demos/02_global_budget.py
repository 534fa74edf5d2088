"""Walkthrough: spending a total cache budget across receiver classes.

Given a total budget M_tot = K_w*M_w + K_s*M_s, where should the bits
go?  Small budgets: all of it to the weak receivers as secret keys when
the eavesdropper is weaker than the strong receivers; spread over all
receivers when the eavesdropper is stronger than everyone.  This demo
sweeps the budget and compares the optimised assignment against a
uniform split and against weak-only placement.

Run:  python3 demos/02_global_budget.py
"""

from secache import ChannelScenario, Tradeoff, eval_hull_1d, ub_global

s = ChannelScenario(K_w=20, K_s=10, delta_w=0.7, delta_s=0.2, delta_z=0.8, D=50)
print("eavesdropper weaker than everyone:", s.to_json())
# the scenario's corner families and hulls, each built once on first use
lower = Tradeoff(s)

print("\n  M_tot    optimised  uniform    weak-only  converse")
for m in [0.0, 0.08, 0.16, 0.5, 1.0, 3.0, 8.0, 14.0, 25.0]:
    glob = eval_hull_1d(lower.global_curve, m)
    uni = eval_hull_1d(lower.uniform_curve, m)
    weak = eval_hull_1d(lower.weak_curve, m / s.K_w)
    ub = ub_global(s, m)
    print(f"  {m:6.2f}   {glob:.6f}  {uni:.6f}  {weak:.6f}  {ub:.6f}")

print("\non [0, 0.16] the optimised curve meets the converse exactly:")
print("  the whole budget sits at the weak receivers, storing keys only.")

# ---------------------------------------------------------------------------
# When the eavesdropper is at least as strong as the strong receivers,
# uniform assignment over ALL receivers is optimal for small budgets and
# the curve is the straight line M_tot / K.
# ---------------------------------------------------------------------------
s2 = ChannelScenario(K_w=2, K_s=3, delta_w=0.7, delta_s=0.4, delta_z=0.3, D=10)
print("\neavesdropper stronger than everyone:", s2.to_json())
lower2 = Tradeoff(s2)
end = s2.K * (0.3 * 0.6) / (2 * 0.6 + 3 * 0.3)
print(f"exact all-keys segment ends at M_tot = {end:.6f}")
print("\n  M_tot    lower      upper      M_tot/K")
for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
    m = end * frac
    print(
        f"  {m:6.3f}   {eval_hull_1d(lower2.global_curve, m):.6f}  "
        f"{ub_global(s2, m):.6f}  {m / s2.K:.6f}"
    )
