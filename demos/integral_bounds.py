"""Integrated oscillatory sums against their analytic and conjectured caps.

The off-resonant part of a measured cycle walk is a sum of unit-modulus
oscillations; its time integral stays below 32*(n*log n)^2 no matter how
long the horizon.  Products of two such sums from coprime odd cycles appear
to obey an additive version of the bound, checked here on a random sample of
pairs the way the full sweep does.
"""

from latticemix import (
    bound_sweep,
    integrated_osc_bound,
    integrated_osc_sum,
    product_integral_bound,
    sample_coprime_odd_pairs,
)

print("single-cycle integral vs cap:")
for n, l, T in ((19, 0, 100.0), (19, 0, 10_000.0), (101, 50, 10_000.0)):
    lhs = abs(integrated_osc_sum(n, l, T))
    rhs = integrated_osc_bound(n)
    print(f"  n={n:3d} l={l:2d} T={T:7.0f}:  |integral| = {lhs:12.2f}   "
          f"cap = {rhs:12.1f}   ratio {lhs / rhs:.5f}")

pairs = sample_coprime_odd_pairs(10, 100, 8, seed=3)
print(f"\nproduct-integral sweep over {len(pairs)} sampled coprime odd pairs:")
reports = bound_sweep(pairs, [10.0, 1000.0, 10_000.0], dt=0.02)
for r in reports:
    if r["T"] == 10_000.0:
        print(f"  ({r['n1']:3d},{r['n2']:3d}) T=1e4:  "
              f"lhs = {r['lhs']:12.1f}   rhs = {r['rhs']:12.1f}   "
              f"satisfied = {r['satisfied']}")
print(f"all {len(reports)} rows satisfied: {all(r['satisfied'] for r in reports)}")
print(f"two-cycle cap for (19, 5): {product_integral_bound((19, 5)):.1f}")
