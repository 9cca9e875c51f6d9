"""Walk amplitudes on cycles and lattices, from closed-form spectral data.

The cycle Z_n is circulant, so the walk operator diagonalizes in the Fourier
basis with eigenvalues cos(2*pi*j/n); amplitudes come out as O(n) sums rather
than matrix exponentials.  Since cos(2*pi*j/n) = cos(2*pi*(n-j)/n), the
library keeps one folded table per cycle, indexed by the mirror class
a = min(j, n-j).  This script prints that table for a small cycle, evolves a
walker, and checks the numbers a library user cares about:
unit norm, translation invariance, and the spectral gap.
"""

import numpy as np

from latticemix import (
    FULL,
    LatticeSpec,
    class_table,
    cycle_amplitude,
    product_amplitude,
    spectral_gap,
)

table = class_table(5)
print("eigenvalues of the Z_5 walk generator, read from the mirror classes:")
for j in range(5):
    a = min(j, 5 - j)
    print(f"  j={j}:  class a={a}  cos(2*pi*{a}/5) = {table.lambdas[a]:+.6f}")

amp = cycle_amplitude(19, 0, 19.0 / 3.0, FULL)
probs = np.abs(amp) ** 2
print(f"\nZ_19 walker at t = 19/3, started at vertex 0:")
print(f"  total probability      {probs.sum():.12f}")
print(f"  return probability     {probs[0]:.6f}")
print(f"  most likely vertex     {probs.argmax()} with p = {probs.max():.6f}")

shifted = cycle_amplitude(19, 7, 19.0 / 3.0, FULL)
print(f"  translation invariance: shifted run equals rolled run -> "
      f"{np.array_equal(shifted, np.roll(amp, 7))}")

lattice = LatticeSpec((19, 5))
joint = product_amplitude(lattice, (0, 0), 24.0)
print(f"\nZ_19 x Z_5 walker at t = 24:")
print(f"  joint norm             {(np.abs(joint) ** 2).sum():.12f}")
print(f"  spectral gap           {spectral_gap(lattice):.6f}")
print(f"  gap of Z_3 alone       {spectral_gap(LatticeSpec((3,))):.6f}  (= 3/2)")
