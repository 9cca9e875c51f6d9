"""Total variation machinery: column distances, contraction rates, mixing search.

Distributions are plain 1-D numpy arrays.  For the circulant kernels built in
this package every column is a cyclic shift of the first one, which collapses
the expensive definitions:

* distance to the uniform matrix, (1/2) * ||P - u 1^T||_1 with the matrix
  1-norm, equals tv(first_column, uniform);
* the maximum pairwise column distance d(P) equals the maximum over nonzero
  lattice shifts s of tv(first_column, first_column rolled by s); every
  Kernel column is even in each coordinate, so every sign pattern of s
  gives the same tv and one orthant of shifts suffices, and each shift's
  sum is even under x -> s - x, so its orbits {x, s - x} along the last
  axis are summed once each, at half the entries.

d(P) is submultiplicative under kernel composition and sits in the sandwich
tv(c, u) <= d(P) <= 2 * tv(c, u) for doubly stochastic P.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .kernels import Kernel

# Entries of one gathered operand of pairwise_column_distance; its three
# operands of a chunk stay within a 2 MB cache.
_SHIFT_BLOCK = 2**16


def uniform(size: int) -> np.ndarray:
    return np.full(int(size), 1.0 / int(size))


def tv_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) * sum |a_i - b_i|; in [0, 1] for probability vectors."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch {a.shape} vs {b.shape}")
    return 0.5 * float(np.abs(a - b).sum())


def distance_to_uniform(kernel: Kernel) -> float:
    """tv between any column and uniform; the threshold-mixing distance."""
    return tv_distance(kernel.first_column, uniform(kernel.lattice.size))


def pairwise_column_distance(kernel: Kernel) -> float:
    """d(P) = max over column pairs of their tv distance.

    Circulant shortcut: columns are shifts of the first, so only the
    tv between the first column c and each of its N - 1 nonzero rolls is
    needed.  c is even along every axis (Kernel stores it mirrored), so
    negating coordinate k maps tv(c, c rolled by v) onto the roll by v with
    v_k negated, and only the shifts 0..n_k//2 on every axis, one orthant,
    are scanned.  Evenness also halves each shift's sum: the summand
    |c(x) - c(x - s)| is unchanged under x -> s - x, so along the last axis
    only one representative of each orbit {x, s - x} is summed, weighted 1
    at a fixed point x = s - x and 2 for a pair.  The representatives are
    x = ceil(s/2) + j for j <= n//2, and on an even cycle an odd shift has
    no fixed point, so its last one repeats a pair and is weighted 0.  The
    weights are scaled into the gathered operands, which is exact.  Those
    are gathered for one chunk of last-axis shifts at a time, as windows of
    the grid written twice along that axis, in chunks that keep an operand
    near _SHIFT_BLOCK entries; a leading shift is a window of the shifted
    operand written twice along every leading axis, so the Python loop
    runs only over chunks and the shifts of the leading axes.
    """
    *lead, n = kernel.lattice.dims
    reps = n // 2 + 1
    twice = np.concatenate((kernel.grid, kernel.grid), axis=-1)
    # windows[t, ..., j] = c(., (t + j) mod n), a view
    windows = np.ndarray((n, *lead, reps), float, twice, 0,
                         (twice.itemsize, *twice.strides[:-1], twice.itemsize))
    # representative weights for even s (row 0) and odd s (row 1): x = s/2
    # is fixed, and so is x = (s + n)/2, the last representative, when
    # s + n is even; on an even cycle an odd s repeats its last pair
    weight = np.full((2, reps), 2.0)
    weight[0, 0] = 1.0
    weight[n % 2, -1] = 1.0
    if n % 2 == 0:
        weight[1, -1] = 0.0
    lead_shifts = list(itertools.product(*(range(m // 2 + 1) for m in lead)))
    step = max(1, _SHIFT_BLOCK // (kernel.lattice.size // n * reps))
    best = 0.0
    for lo in range(0, reps, step):
        shifts = np.arange(lo, min(lo + step, reps))
        scale = weight[shifts % 2].reshape(shifts.size, *(1 for _ in lead), reps)
        # here[k, ..., j] = c(., x_j) and there[k, ..., j] = c(., x_j - s) at s = shifts[k]
        here = windows[(shifts + 1) // 2]
        there = windows[-(shifts // 2) % n]
        here *= scale
        there *= scale
        # there written twice along every leading axis: each leading roll is a window of it
        for axis in range(1, there.ndim - 1):
            there = np.concatenate((there, there), axis=axis)
        diff = np.empty_like(here)
        for shift in lead_shifts:
            rolled = there[(slice(None), *(slice(m - v, 2 * m - v) for v, m in zip(shift, lead)))]
            np.subtract(here, rolled, out=diff)
            np.abs(diff, out=diff)
            best = max(best, float(diff.reshape(shifts.size, -1).sum(axis=1).max()))
    return 0.5 * best


def rounds_to_threshold(alpha: float) -> int:
    """Kernel applications needed to push d(P) <= alpha below 1/(2e).

    ceil(log(2e) / log(1/alpha)); submultiplicativity gives
    d(P^r) <= alpha^r <= 1/(2e) at this r.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"contraction rate must lie in (0, 1), got {alpha}")
    return math.ceil(math.log(2.0 * math.e) / math.log(1.0 / alpha))


def column_mass_bound(beta: float, gamma: float) -> float:
    """Bound on d(P) when a beta fraction of each column is >= gamma/N.

    Requires beta > 1/2 and gamma > 0; returns 1 - gamma * (1 - 2*(1 - beta)).
    """
    if not beta > 0.5:
        raise ValueError(f"mass fraction must exceed 1/2, got {beta}")
    if not (beta <= 1.0 and gamma > 0.0):
        raise ValueError(f"need beta <= 1 and gamma > 0, got beta={beta} gamma={gamma}")
    return 1.0 - gamma * (1.0 - 2.0 * (1.0 - beta))


def epsilon_mixing_time(
    times: np.ndarray, kernels: list[Kernel], epsilon: float
) -> float | None:
    """Earliest grid time from which the distance to uniform stays <= epsilon.

    The distance curve of a time-averaged quantum kernel is not monotone, so
    a first crossing is not enough; the whole suffix must sit below epsilon.
    Returns None when no suffix qualifies.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty time grid")
    if times.size != len(kernels):
        raise ValueError(f"{times.size} times vs {len(kernels)} kernels")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    dists = np.array([distance_to_uniform(k) for k in kernels])
    suffix_max = np.maximum.accumulate(dists[::-1])[::-1]
    hits = np.nonzero(suffix_max <= epsilon)[0]
    if hits.size == 0:
        return None
    return float(times[hits[0]])
