"""Oscillatory pair sums of a measured cycle walk and their integral bounds.

For an odd cycle Z_n, offset l and the half time scale, the measurement
probability expands into a constant part and the oscillatory remainder

    osc(t) = sum over j != k, j + k != n of
             exp(-i*t*sin(pi*(j+k)/n)*sin(pi*(j-k)/n)) * w^(l*(j-k)),

so that n^2 * P_t(0, l) = n + (n*[l == 0] - 1) + osc(t).  At t = 0 it equals
(n-1)^2 for l = 0 and 1 - n otherwise.

The excluded pairs j = k and j + k = n are exactly those inside one mirror
class a = min(j, n-j), so folded onto the classes osc(t) is the real cosine
series over the class pairs a != b of spectral.class_table(n), with the
pair frequencies lambda_a - lambda_b at the half time scale,

    osc(t) = sum_{a != b} c_a(l)*c_b(l) * cos(t*(lambda_a - lambda_b)/2),

and the exact routes below pass its class-pair rows (_osc_series) to
kernels._class_pair_sum.

Everything here revolves around two facts checked numerically throughout the
test suite:

* |integral_0^T osc(t) dt| <= 32*(n*log(n))^2, uniformly in T and l, via the
  exact termwise primitive;
* the integral of a product of such sums from coprime odd cycles appears to
  satisfy an analogous additive bound (the sweep below hunts for violations).
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import ParityError, ResolutionError
from .kernels import _class_pair_sum, simpson_intervals, simpson_weights
from .spectral import HALF, class_table, cycle_amplitude_grid

MAX_PRODUCT_DT = 0.02

# Largest n1*n2 product_integral_exact accepts; its cost is quadratic in it.
MAX_EXACT_PRODUCT = 10_000

# Nodes per chunk of a product_integral_curve segment.  Even, so every chunk
# of a halving sweep starts on a coarse node.
_CURVE_CHUNK = 2**17


def _check_odd(n: int) -> int:
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise ParityError(f"need an odd cycle length >= 3, got {n}")
    return n


def _check_horizon(T: float) -> float:
    T = float(T)
    if not (np.isfinite(T) and T >= 0):
        raise ValueError(f"horizon must be finite and >= 0, got {T}")
    return T


def _osc_series(n: int, offset: int):
    """The class table, frequencies f and one-row table C with osc(t) = C[0] @ cos(f*t).

    The class-pair row of `offset` at the half time scale, scaled by n^2,
    with the same-class pairs a = b (the j = k and j + k = n terms) given
    coefficient 0.
    """
    table = class_table(n)
    coeff = table.pair_rows([table.mirror[int(offset) % n]]) * float(n) ** 2
    # the pairs are row-major, so (a, a) sits at a*(width + 1)
    coeff[:, :: table.lambdas.size + 1] = 0.0
    return table, HALF * table.pair_omega, coeff


def _osc_on_grid(n: int, offset: int, t0: float, h: float, count: int) -> np.ndarray:
    amp = cycle_amplitude_grid(n, offset, t0, h, count, HALF)
    constant = n + (n * (int(offset) % n == 0) - 1)
    return n * n * np.abs(amp) ** 2 - constant


def integrated_osc_sum(n: int, offset: int, T: float) -> float:
    """Signed integral_0^T osc(t) dt from the exact termwise primitive.

    Each term C*cos(f*t) integrates to C*T*sin(f*T)/(f*T), so the sum is
    T * C @ sinc(f*T), which keeps full relative accuracy as T -> 0.
    """
    n = _check_odd(n)
    T = _check_horizon(T)
    return float(T * _class_pair_sum([_osc_series(n, offset)], [T])[0])


def integrated_osc_bound(n: int) -> float:
    """32 * (n * log(n))^2, an n- and T-uniform cap on |integrated_osc_sum|."""
    n = _check_odd(n)
    return 32.0 * (n * math.log(n)) ** 2


def _check_coprime_dims(dims) -> tuple[int, ...]:
    """At least two odd cycle lengths >= 3, strictly decreasing and pairwise coprime."""
    dims = tuple(int(n) for n in dims)
    if len(dims) < 2:
        raise ValueError("need at least two cycle lengths")
    for n in dims:
        _check_odd(n)
    if any(a <= b for a, b in zip(dims, dims[1:])):
        raise ValueError(f"cycle lengths must be strictly decreasing, got {dims}")
    for a, b in itertools.combinations(dims, 2):
        if math.gcd(a, b) != 1:
            raise ValueError(f"{a} and {b} are not coprime")
    return dims


def product_integral_curve(
    n1: int,
    n2: int,
    offsets: tuple[int, int],
    T_grid,
    dt: float,
    halving: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Signed integral_0^T osc_1(t)*osc_2(t) dt at each grid horizon.

    Composite Simpson segment by segment between consecutive horizons: each
    segment gets an even number of intervals of length h <= dt, and node
    values come from the O(n) folded form on a uniform grid, _CURVE_CHUNK
    nodes at a time, so memory stays bounded for any horizon.  With halving,
    the nodes are evaluated once at step h/2; the curve uses every other
    node and the halved curve, returned second (None without halving), all
    of them, so it is at exactly h/2 on every segment.  Chunk and segment
    totals are combined with math.fsum so half a million accumulation steps
    do not erode the result.
    """
    n1, n2 = _check_coprime_dims((n1, n2))
    if not (0 < dt <= MAX_PRODUCT_DT):
        raise ResolutionError(f"dt must lie in (0, {MAX_PRODUCT_DT}], got {dt}")
    l1, l2 = offsets
    grid = np.asarray(T_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("need a non-empty 1-D horizon grid")
    bad = grid[~np.isfinite(grid) | (np.diff(grid, prepend=0.0) <= 0)]
    if bad.size:
        raise ValueError(
            f"horizons must be finite, positive and strictly increasing, got T = {bad[0]}"
        )

    split = 2 if halving else 1
    partials, fine_partials = [], []
    curve = np.empty(grid.size)
    halved = np.empty(grid.size) if halving else None
    prev = 0.0
    for idx, horizon in enumerate(grid):
        length = horizon - prev
        intervals = simpson_intervals(length, dt)
        h = length / intervals / split
        count = intervals * split + 1
        sums, fine_sums = [], []
        for lo in range(0, count, _CURVE_CHUNK):
            hi = min(lo + _CURVE_CHUNK, count)
            t0 = prev + h * lo
            vals = _osc_on_grid(n1, l1, t0, h, hi - lo) * _osc_on_grid(n2, l2, t0, h, hi - lo)
            # lo is even, so vals[::split] starts on the coarse node lo // split
            coarse = simpson_weights(lo // split, -(-hi // split), intervals + 1)
            sums.append(float(coarse @ vals[::split]))
            if halving:
                fine_sums.append(float(simpson_weights(lo, hi, count) @ vals))
        partials.append(math.fsum(sums) * (h * split) / 3.0)
        curve[idx] = math.fsum(partials)
        if halving:
            fine_partials.append(math.fsum(fine_sums) * h / 3.0)
            halved[idx] = math.fsum(fine_partials)
        prev = horizon
    return curve, halved


def product_integral_exact(n1: int, n2: int, offsets: tuple[int, int], T: float) -> float:
    """Signed integral_0^T osc_1(t)*osc_2(t) dt in closed form.

    cos(f1*t)*cos(f2*t) integrates to T*(sinc((f1+f2)*T) + sinc((f1-f2)*T))/2
    with sinc(x) = sin(x)/x.  Both series are symmetric under f -> -f, so the
    two halves are equal and the integral is T * C1 @ sinc((f1+f2)*T) @ C2,
    with no frequency thresholding.  Quadratic in n1*n2; refused above
    MAX_EXACT_PRODUCT.
    """
    n1, n2 = _check_coprime_dims((n1, n2))
    T = _check_horizon(T)
    if n1 * n2 > MAX_EXACT_PRODUCT:
        raise ValueError(f"n1*n2 = {n1 * n2} exceeds exact-path cap {MAX_EXACT_PRODUCT}")
    series = [_osc_series(n, offset) for n, offset in zip((n1, n2), offsets)]
    return float(T * _class_pair_sum(series, [T])[0])


def product_integral_bound(dims) -> float:
    """16 * d * sum_j (prod_{i != j} n_i) * (n_j * log(n_j))^2.

    Conjectured cap on |integral of prod_i osc_i|; at d = 2 it reads
    32*n1*(n2*log(n2))^2 + 32*n2*(n1*log(n1))^2.
    """
    dims = _check_coprime_dims(dims)
    d = len(dims)
    total = 0.0
    for j, n_j in enumerate(dims):
        others = math.prod(n for i, n in enumerate(dims) if i != j)
        total += others * (n_j * math.log(n_j)) ** 2
    return 16.0 * d * total


def bound_row(params: dict, lhs: float, rhs: float) -> dict:
    """One checked instance lhs <= rhs of a bound: params, then lhs, rhs and satisfied."""
    lhs, rhs = float(lhs), float(rhs)
    return {**params, "lhs": lhs, "rhs": rhs, "satisfied": lhs <= rhs}


def coprime_odd_pairs(lo: int, hi: int) -> list[tuple[int, int]]:
    """All pairs (n1, n2), lo <= n2 < n1 <= hi, both odd and coprime."""
    odds = [n for n in range(lo, hi + 1) if n % 2 == 1 and n >= 3]
    return [
        (n1, n2)
        for i, n2 in enumerate(odds)
        for n1 in odds[i + 1 :]
        if math.gcd(n1, n2) == 1
    ]


def sample_coprime_odd_pairs(lo: int, hi: int, count: int, seed: int) -> list[tuple[int, int]]:
    pairs = coprime_odd_pairs(lo, hi)
    if count >= len(pairs):
        return pairs
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(pairs), size=count, replace=False)
    return [pairs[i] for i in sorted(picked)]


def _sweep_one(job) -> list[dict]:
    (n1, n2), T_grid, dt, (l1, l2), check_halving = job
    rhs = product_integral_bound((n1, n2))
    curve, halved = product_integral_curve(n1, n2, (l1, l2), T_grid, dt, check_halving)
    reports = []
    for pos, T in enumerate(T_grid):
        params = {"n1": n1, "n2": n2, "T": float(T), "offset1": l1, "offset2": l2,
                  "dt": dt}
        if halved is not None:
            denom = max(abs(halved[pos]), 1e-30)
            params["halving_rel"] = abs(curve[pos] - halved[pos]) / denom
        reports.append(bound_row(params, abs(curve[pos]), rhs))
    return reports


def bound_sweep(
    pairs,
    T_grid,
    dt: float = MAX_PRODUCT_DT,
    offset=(0, 0),
    check_halving: bool = False,
    workers: int = 1,
) -> list[dict]:
    """Check |integral osc_1*osc_2| <= bound over (pair, horizon) at one offset pair.

    Each check is one bound_row.  Pairs are processed independently
    (optionally in a process pool); the rows are ordered by (pair position,
    horizon position) regardless of worker count.
    """
    T_grid = [float(T) for T in T_grid]
    jobs = [((int(n1), int(n2)), T_grid, dt, tuple(offset), check_halving)
            for n1, n2 in pairs]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            chunks = list(pool.map(_sweep_one, jobs))
    else:
        chunks = [_sweep_one(job) for job in jobs]
    return [report for chunk in chunks for report in chunk]
