"""Total variation machinery: column distances, contraction rates, mixing search.

Distributions are plain 1-D numpy arrays.  For the circulant kernels built in
this package every column is a cyclic shift of the first one, which collapses
the expensive definitions:

* distance to the uniform matrix, (1/2) * ||P - u 1^T||_1 with the matrix
  1-norm, equals tv(first_column, uniform);
* the maximum pairwise column distance d(P) equals the maximum over nonzero
  lattice shifts s of tv(first_column, first_column rolled by s); every
  Kernel column is even in each coordinate, so every sign pattern of s
  gives the same tv and one orthant of shifts suffices.

d(P) is submultiplicative under kernel composition and sits in the sandwich
tv(c, u) <= d(P) <= 2 * tv(c, u) for doubly stochastic P.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .kernels import Kernel

# Entries of one gathered block of rolled columns in pairwise_column_distance.
_SHIFT_BLOCK = 2**18


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
    tv between the first column and each of its N - 1 nonzero rolls is needed.
    The column is even along every axis k (Kernel stores it mirrored), so
    negating coordinate k maps tv(c, c rolled by v) onto the roll by v with
    v_k negated, and only the shifts 0..n_k//2 on every axis, one orthant,
    are scanned.  The rolls along the last axis are gathered through the
    index rows idx[s, x] = (x - s) mod n_last, built for one chunk of shifts
    at a time that keeps a block near _SHIFT_BLOCK entries, so the Python
    loop runs only over chunks and the shifts of the leading axes.
    """
    grid = kernel.grid
    dims = kernel.lattice.dims
    *lead, last = [range(n // 2 + 1) for n in dims]
    x = np.arange(dims[-1])
    lead_axes = tuple(range(1, len(dims)))
    step = max(1, _SHIFT_BLOCK // grid.size)
    best = 0.0
    for lo in range(0, len(last), step):
        chunk = np.arange(lo, min(lo + step, len(last)))
        idx = (x[None, :] - chunk[:, None]) % dims[-1]
        # rolls[k] is the grid rolled by chunk[k] along the last axis
        rolls = np.ascontiguousarray(np.moveaxis(grid[..., idx], -2, 0))
        for shift in itertools.product(*lead):
            diff = np.roll(rolls, shift, axis=lead_axes)
            np.subtract(diff, grid, out=diff)
            np.abs(diff, out=diff)
            tvs = 0.5 * diff.reshape(len(diff), -1).sum(axis=1)
            best = max(best, float(tvs.max()))
    return best


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
