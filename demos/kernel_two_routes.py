"""The time-averaged measurement kernel, built twice and cross-checked.

Measuring after a uniformly random evolution time in [0, T] turns the walk
into a doubly stochastic kernel P_T.  The analytic route integrates each
frequency pair exactly; the quadrature route Simpson-averages instantaneous
kernels and knows nothing about frequencies.  Their agreement is the
package's core correctness argument, so this script shows it directly.
"""

import numpy as np

from latticemix import (
    LatticeSpec,
    averaged_kernel_analytic,
    averaged_kernel_quadrature,
    kernel_power,
    pairwise_column_distance,
    tv_distance,
    uniform,
)

lattice = LatticeSpec((19, 5))
T = 24.0

analytic = averaged_kernel_analytic(lattice, T)
quadrature = averaged_kernel_quadrature(lattice, T, dt=0.02)

gap = np.abs(analytic.first_column - quadrature.first_column).max()
print(f"P_T on Z_19 x Z_5 at T = {T}:")
print(f"  analytic vs quadrature, entrywise   {gap:.3e}")
print(f"  column sum (analytic)               {analytic.first_column.sum():.12f}")
print(f"  return entry P_T(0,0)               {analytic.first_column[0]:.6f}")
print(f"  uniform level 1/95                  {1 / 95:.6f}")

d1 = pairwise_column_distance(analytic)
print(f"\nrepeated measurement contracts the column distance:")
print(f"  d(P_T)   = {d1:.4f}")
for k in (2, 3, 4):
    dk = pairwise_column_distance(kernel_power(analytic, k))
    print(f"  d(P_T^{k}) = {dk:.6f}   cap d(P_T)^{k} = {d1 ** k:.6f}")

tv = tv_distance(kernel_power(analytic, 4).first_column, uniform(lattice.size))
print(f"  tv to uniform after 4 rounds        {tv:.6f}")

# the analytic route contracts one factor at a time, so it takes any number
# of cycles of any lengths; quadrature cross-checks it on a three-factor
# lattice, on Richter's Z_9 x Z_9 (equal lengths) and on even cycles too
print(f"\nanalytic vs quadrature at T = {T}, entrywise (Z_19 x Z_5: {gap:.3e}):")
for dims in ((7, 5, 3), (9, 9), (8, 6)):
    other = LatticeSpec(dims)
    gap_other = np.abs(
        averaged_kernel_analytic(other, T).first_column
        - averaged_kernel_quadrature(other, T, dt=0.02).first_column
    ).max()
    name = " x ".join(f"Z_{n}" for n in dims)
    print(f"  {name:<20}{gap_other:.3e}")
