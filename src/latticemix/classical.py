"""Lazy classical random walk on a periodic lattice.

One step: stay put with probability 1/2, otherwise move to a uniformly chosen
nearest neighbor (probability 1/(4d) per unit shift; the two shifts coincide
when a cycle has length 2).  The chain is doubly stochastic with uniform
stationary distribution, and its epsilon-mixing time is bounded by
2*d*n1^2*ceil(log(d/epsilon)) steps, n1 the longest cycle, via a coupling of
two walkers that meet coordinate by coordinate.

The walk is diagonal in the Fourier basis, with eigenvalue
mu_a = 1/2 + sum_k lambda_{a_k}/(2d) on the mirror-class tuple a, so its
curves from a vertex are read off spectral.class_table in closed form:

    p_t(l) - 1/N = (1/N) * sum_{a != 0} mu_a^t * prod_k c_{a_k}(l_k),

which leaves out the stationary class a = 0 and so gives the deviation from
uniform with no cancellation.  p_t is even in every coordinate, so the tv to
uniform sums the offset classes l <= n/2 with their multiplicities c_l(0).

lazy_curves evaluates this in time blocks.  One step costs O(M * sum_k m_k)
for m_k = n_k//2 + 1 classes per cycle and M = prod_k m_k, about
N*(n1 + n2)/8 on two cycles, against O(N) for one stencil step on the grid,
so the gain shrinks as the cycles grow.  Measured with one BLAS thread on a
2-core VM (BENCH_classical.json), the closed form takes 2.3 us per step on
(15, 14), 0.9 us on (5, 4, 3) and 15 us on (45, 43), against 73-106 us per
stencil step; the two are about even near (101, 99), at 136-157 us per
step.  On (301, 299) the closed form took 1.0-1.2 ms per step and the
stencil 1-3.3 ms, varying between runs on a shared VM.  Every curve the
tests, the demos and the benchmark draw has at most 23 x 21 vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel
from .spectral import LatticeSpec, class_table

# Steps per exact power anchor of lazy_curves: within a run the powers are
# the anchor times a shared base mu^k, k < _POWER_RUN.
_POWER_RUN = 256

# Entries of one time block of class powers in lazy_curves.
_CURVE_BLOCK = 2**18


def lazy_kernel(lattice: LatticeSpec) -> Kernel:
    lattice.check_dense()
    d = lattice.d
    grid = np.zeros(lattice.dims)
    origin = (0,) * d
    grid[origin] = 0.5
    for axis, n in enumerate(lattice.dims):
        for step in (1, -1):
            idx = [0] * d
            idx[axis] = step % n
            grid[tuple(idx)] += 1.0 / (4 * d)
    return Kernel(lattice=lattice, first_column=grid.ravel(), kind="lazy")


def lazy_mixing_bound(lattice: LatticeSpec, epsilon: float) -> int:
    """Step count 2*d*n1^2*ceil(log(d/epsilon)) guaranteeing tv <= epsilon.

    Natural logarithm; valid for epsilon < 1/2.
    """
    if not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    d = lattice.d
    n1 = max(lattice.dims)
    return 2 * d * n1 * n1 * math.ceil(math.log(d / epsilon))


def lazy_curves(lattice: LatticeSpec, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Tv to uniform and return probability of the lazy walk, steps 0..t_max.

    Closed form on the folded class tables (see the module docstring).
    Steps go through in time blocks of about _CURVE_BLOCK class powers (one
    step per block once a step alone has more classes), so memory stays
    bounded for any t_max; each block is contracted with one factor's table
    at a time.
    """
    lattice.check_dense()
    t_max = int(t_max)
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    d = lattice.d
    tables = [class_table(n) for n in lattice.dims]
    # each table holds the rows l <= n/2: p_t is even, so the offset classes suffice
    rows = [table.cosines for table in tables]
    shape = [table.lambdas.size for table in tables]
    mu = np.full(1, 0.5)
    mult = np.ones(1)
    for table, row in zip(tables, rows):
        mu = np.add.outer(mu, table.lambdas / (2 * d)).ravel()
        mult = np.multiply.outer(mult, row[0]).ravel()

    steps = t_max + 1
    run = max(1, min(_POWER_RUN, steps, _CURVE_BLOCK // mu.size))
    base = np.power(mu, np.arange(run)[:, None])
    base[:, 0] = 0.0  # the stationary class a = 0
    span = run * max(1, _CURVE_BLOCK // (run * mu.size))
    tv = np.empty(steps)
    returns = np.empty(steps)
    for lo in range(0, steps, span):
        hi = min(lo + span, steps)
        anchors = np.power(mu, np.arange(lo, hi, run)[:, None])
        block = (anchors[:, None, :] * base).reshape(-1, *shape)[: hi - lo]
        for row in rows:
            block = np.tensordot(block, row, axes=([1], [1]))
        # N times the deviation from uniform, per offset class
        dev = block.reshape(hi - lo, -1)
        tv[lo:hi] = (np.abs(dev) @ mult) / (2 * lattice.size)
        returns[lo:hi] = (1.0 + dev[:, 0]) / lattice.size
    return tv, returns


@dataclass(frozen=True)
class CouplingResult:
    """Empirical meeting times of two coupled lazy walkers."""

    lattice: LatticeSpec
    trials: int
    seed: int
    mean_tau: np.ndarray          # per coordinate
    se_tau: np.ndarray            # standard error per coordinate
    mean_tau_couple: float         # mean of max_i tau_i
    se_tau_couple: float
    bound: np.ndarray              # d * n_i^2 / 4 per coordinate

    @property
    def within_bound(self) -> np.ndarray:
        """mean_tau_i <= bound_i + 3 standard errors, per coordinate."""
        return self.mean_tau <= self.bound + 3.0 * self.se_tau


def coupling_simulation(lattice: LatticeSpec, trials: int, seed: int) -> CouplingResult:
    """Simulate the coordinate-by-coordinate coupling of two lazy walkers.

    Each step picks a coordinate uniformly at random.  If the walkers agree
    there, both shift by +1/-1/0 with probabilities 1/4, 1/4, 1/2; otherwise a
    fair coin picks which walker moves and another picks the direction, so
    each walker's marginal is the lazy walk.  Walkers start antipodally
    (offset n_i // 2 in every coordinate).  tau_i records when coordinate i
    first agrees.

    Meeting times depend only on the gaps g_i = (y_i - x_i) mod n_i, so only
    the gaps are simulated: a joint move leaves a zero gap at zero, and a
    lone move of x or y by s shifts the gap by -s or +s.  Only nonzero gaps
    move, so agreement is absorbing by construction.

    All trials advance in lockstep from one PCG64 stream seeded with `seed`,
    so results are reproducible; draws are consumed in a fixed order (one
    coordinate array and two uniform arrays per step for the active trials).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    d = lattice.d
    dims = np.array(lattice.dims)
    max_steps = 2000 * d * int(dims.max()) ** 2
    rng = np.random.default_rng(seed)

    gap = np.tile(dims // 2, (trials, 1))
    tau = np.zeros((trials, d), dtype=np.int64)
    active = np.arange(trials)
    for t in range(1, max_steps + 1):
        if active.size == 0:
            break
        coord = rng.integers(0, d, active.size)
        u_move = rng.random(active.size)
        u_dir = rng.random(active.size)
        g = gap[active, coord]
        apart = g != 0
        # u_move < 1/2 moves x, else y; u_dir < 1/2 moves it up, else down;
        # x moving up or y moving down closes the gap by one
        step = np.where((u_move < 0.5) == (u_dir < 0.5), -1, 1)
        g = np.where(apart, (g + step) % dims[coord], 0)
        gap[active, coord] = g
        newly = apart & (g == 0)
        tau[active[newly], coord[newly]] = t
        active = active[gap[active].any(axis=1)]

    if active.size:
        raise RuntimeError(f"{active.size} trials uncoupled after {max_steps} steps")

    tau_couple = tau.max(axis=1)
    return CouplingResult(
        lattice=lattice,
        trials=trials,
        seed=seed,
        mean_tau=tau.mean(axis=0),
        se_tau=tau.std(axis=0, ddof=1) / math.sqrt(trials),
        mean_tau_couple=float(tau_couple.mean()),
        se_tau_couple=float(tau_couple.std(ddof=1)) / math.sqrt(trials),
        bound=d * dims.astype(float) ** 2 / 4.0,
    )
