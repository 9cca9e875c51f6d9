"""Oscillatory pair sums of a measured cycle walk and their integral bounds.

For an odd cycle Z_n, offset l and the half time scale, the measurement
probability expands into a constant part and the oscillatory remainder

    osc(t) = sum over j != k, j + k != n of
             exp(-i*t*sin(pi*(j+k)/n)*sin(pi*(j-k)/n)) * w^(l*(j-k)),

so that n^2 * P_t(0, l) = n + (n*[l == 0] - 1) + osc(t).  The terms pair up
into conjugates, hence osc(t) is real; at t = 0 it equals (n-1)^2 for l = 0
and 1 - n otherwise.

Everything here revolves around two facts checked numerically throughout the
test suite:

* |integral_0^T osc(t) dt| <= 32*(n*log(n))^2, uniformly in T and l, via the
  exact per-pair primitive;
* the integral of a product of such sums from coprime odd cycles appears to
  satisfy an analogous additive bound (the sweep below hunts for violations).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParityError, ResolutionError
from .spectral import HALF, cycle_amplitude_at, cycle_amplitude_grid, eigenphases

MAX_PRODUCT_DT = 0.02


def _check_odd(n: int) -> int:
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise ParityError(f"need an odd cycle length >= 3, got {n}")
    return n


def _pair_sines(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ordered index pairs (j, k), j < k, j + k != n, with their sine products."""
    j, k = np.triu_indices(n, k=1)
    keep = j + k != n
    j, k = j[keep], k[keep]
    sines = np.sin(np.pi * (j + k) / n) * np.sin(np.pi * (k - j) / n)
    return j, k, sines


def osc_sum_direct(n: int, offset: int, t: float) -> float:
    """O(n^2) evaluation straight from the pair sum; the reference path."""
    n = _check_odd(n)
    j = np.arange(n)
    jj, kk = np.meshgrid(j, j, indexing="ij")
    mask = (jj != kk) & (jj + kk != n)
    jj, kk = jj[mask], kk[mask]
    phase = np.sin(np.pi * (jj + kk) / n) * np.sin(np.pi * (jj - kk) / n)
    roots = eigenphases(n).unit_roots
    total = np.sum(np.exp(-1j * t * phase) * roots[(offset * (jj - kk)) % n])
    if abs(total.imag) > 1e-9:
        raise AssertionError(f"pair sum has imaginary part {total.imag}")
    return float(total.real)


def osc_sum_fast(n: int, offset: int, t):
    """O(n) evaluation via n^2*|amplitude|^2 - n - (n*[l==0] - 1).

    Accepts a scalar or an array of times.
    """
    n = _check_odd(n)
    offset = int(offset) % n
    ts = np.asarray(t, dtype=float)
    amp = cycle_amplitude_at(n, offset, ts.ravel(), HALF).reshape(ts.shape)
    constant = n + (n * (offset == 0) - 1)
    out = n * n * np.abs(amp) ** 2 - constant
    return float(out) if np.isscalar(t) else out


def _osc_on_grid(n: int, offset: int, t0: float, h: float, count: int) -> np.ndarray:
    amp = cycle_amplitude_grid(n, offset, t0, h, count, HALF)
    constant = n + (n * (int(offset) % n == 0) - 1)
    return n * n * np.abs(amp) ** 2 - constant


def integrated_osc_sum(n: int, offset: int, T: float) -> float:
    """Signed integral_0^T osc(t) dt from the exact per-pair primitive.

    Each conjugate pair j < k contributes 2*cos(t*s - theta) with
    s = sin(pi*(j+k)/n)*sin(pi*(k-j)/n) and theta = 2*pi*l*(k-j)/n, whose
    integral is 2*(sin(T*s - theta) + sin(theta))/s.
    """
    n = _check_odd(n)
    if not (np.isfinite(T) and T >= 0):
        raise ValueError(f"horizon must be finite and >= 0, got {T}")
    j, k, sines = _pair_sines(n)
    theta = 2.0 * np.pi * (int(offset) % n) * (k - j) / n
    terms = 2.0 * (np.sin(T * sines - theta) + np.sin(theta)) / sines
    return float(terms.sum())


def integrated_osc_bound(n: int) -> float:
    """32 * (n * log(n))^2, an n- and T-uniform cap on |integrated_osc_sum|."""
    n = _check_odd(n)
    return 32.0 * (n * math.log(n)) ** 2


def _check_coprime_pair(n1: int, n2: int) -> tuple[int, int]:
    n1, n2 = _check_odd(n1), _check_odd(n2)
    if n1 <= n2:
        raise ValueError(f"need n1 > n2, got {n1} <= {n2}")
    if math.gcd(n1, n2) != 1:
        raise ValueError(f"{n1} and {n2} are not coprime")
    return n1, n2


def _simpson(vals: np.ndarray, h: float) -> float:
    """Composite Simpson sum over an odd number of nodes spaced h apart."""
    weights = np.full(vals.size, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return float(weights @ vals) * h / 3.0


def _simpson_curves(
    n1: int,
    n2: int,
    offsets: tuple[int, int],
    T_grid,
    dt: float,
    halving: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Signed integral_0^T osc_1(t)*osc_2(t) dt at each grid horizon.

    Composite Simpson segment by segment between consecutive horizons: each
    segment gets an even number of intervals of length h <= dt, and node
    values come from the O(n) folded form on a uniform grid.  With halving,
    the nodes are evaluated once at step h/2; the curve uses every other
    node and the halved curve, returned second, all of them, so it is at
    exactly h/2 on every segment.  Segment totals are combined with
    math.fsum so half a million accumulation steps do not erode the result.
    """
    n1, n2 = _check_coprime_pair(n1, n2)
    if not (0 < dt <= MAX_PRODUCT_DT):
        raise ResolutionError(f"dt must lie in (0, {MAX_PRODUCT_DT}], got {dt}")
    l1, l2 = offsets
    grid = np.asarray(T_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("need a non-empty 1-D horizon grid")
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("horizons must be positive and strictly increasing")

    split = 2 if halving else 1
    partials, fine_partials = [], []
    curve = np.empty(grid.size)
    halved = np.empty(grid.size) if halving else None
    prev = 0.0
    for idx, horizon in enumerate(grid):
        length = horizon - prev
        intervals = max(2, int(np.ceil(length / dt)))
        intervals += intervals % 2
        h = length / intervals / split
        count = intervals * split + 1
        vals = _osc_on_grid(n1, l1, prev, h, count) * _osc_on_grid(n2, l2, prev, h, count)
        partials.append(_simpson(vals[::split], h * split))
        curve[idx] = math.fsum(partials)
        if halving:
            fine_partials.append(_simpson(vals, h))
            halved[idx] = math.fsum(fine_partials)
        prev = horizon
    return curve, halved


def product_integral_curve(
    n1: int,
    n2: int,
    offsets: tuple[int, int],
    T_grid,
    dt: float,
) -> np.ndarray:
    """Signed integral_0^T osc_1(t)*osc_2(t) dt at each grid horizon.

    Composite Simpson at step <= dt on each segment between consecutive
    horizons; see _simpson_curves.
    """
    return _simpson_curves(n1, n2, offsets, T_grid, dt, halving=False)[0]


def product_integral(n1: int, n2: int, offsets: tuple[int, int], T: float, dt: float) -> float:
    return float(product_integral_curve(n1, n2, offsets, [T], dt)[0])


def _signed_terms(n: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """All ordered pair terms of osc: frequencies sigma and unit coefficients."""
    j = np.arange(n)
    jj, kk = np.meshgrid(j, j, indexing="ij")
    mask = (jj != kk) & (jj + kk != n)
    jj, kk = jj[mask], kk[mask]
    sigma = np.sin(np.pi * (jj + kk) / n) * np.sin(np.pi * (jj - kk) / n)
    coeff = eigenphases(n).unit_roots[(offset * (jj - kk)) % n]
    return sigma, coeff


def product_integral_exact(
    n1: int,
    n2: int,
    offsets: tuple[int, int],
    T: float,
    max_product: int = 10_000,
) -> float:
    """Signed product integral by exact integration of all 4-index terms.

    integral_0^T exp(-i*t*(sigma1+sigma2)) dt = T*g(-(sigma1+sigma2)*T) with
    the entire function g(x) = (exp(ix) - 1)/(ix), whose real part weights
    the averaged kernels, so no frequency thresholding is involved.  Quadratic in n1*n2; refuse above max_product.
    """
    from .kernels import uniform_time_average

    n1, n2 = _check_coprime_pair(n1, n2)
    if n1 * n2 > max_product:
        raise ValueError(f"n1*n2 = {n1 * n2} exceeds exact-path cap {max_product}")
    sigma1, coeff1 = _signed_terms(n1, int(offsets[0]) % n1)
    sigma2, coeff2 = _signed_terms(n2, int(offsets[1]) % n2)
    total = 0.0 + 0.0j
    block = max(1, 4_000_000 // sigma2.size)
    for lo in range(0, sigma1.size, block):
        hi = min(lo + block, sigma1.size)
        weights = uniform_time_average(
            -(sigma1[lo:hi, None] + sigma2[None, :]) * T
        )
        total += coeff1[lo:hi] @ weights @ coeff2
    total *= T
    if abs(total.imag) > 1e-6 * max(1.0, abs(total.real)):
        raise AssertionError(f"product integral has imaginary part {total.imag}")
    return float(total.real)


def product_integral_bound(dims) -> float:
    """16 * d * sum_j (prod_{i != j} n_i) * (n_j * log(n_j))^2.

    Conjectured cap on |integral of prod_i osc_i|; at d = 2 it reads
    32*n1*(n2*log(n2))^2 + 32*n2*(n1*log(n1))^2.
    """
    dims = [int(n) for n in dims]
    if len(dims) < 2:
        raise ValueError("need at least two cycle lengths")
    for n in dims:
        _check_odd(n)
    if any(a <= b for a, b in zip(dims, dims[1:])):
        raise ValueError(f"cycle lengths must be strictly decreasing, got {dims}")
    for i, a in enumerate(dims):
        for b in dims[i + 1 :]:
            if math.gcd(a, b) != 1:
                raise ValueError(f"{a} and {b} are not coprime")
    d = len(dims)
    total = 0.0
    for j, n_j in enumerate(dims):
        others = math.prod(n for i, n in enumerate(dims) if i != j)
        total += others * (n_j * math.log(n_j)) ** 2
    return 16.0 * d * total


@dataclass(frozen=True)
class BoundReport:
    """One checked instance lhs <= rhs of an integral bound."""

    params: dict
    lhs: float
    rhs: float
    satisfied: bool
    method: str

    @classmethod
    def build(cls, params: dict, lhs: float, rhs: float, method: str) -> "BoundReport":
        return cls(params=dict(params), lhs=float(lhs), rhs=float(rhs),
                   satisfied=bool(lhs <= rhs), method=method)


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


def _sweep_one(job) -> list[BoundReport]:
    (n1, n2), T_grid, dt, offsets, check_halving = job
    rhs = product_integral_bound((n1, n2))
    reports = []
    for l1, l2 in offsets:
        curve, halved = _simpson_curves(n1, n2, (l1, l2), T_grid, dt, check_halving)
        for pos, T in enumerate(T_grid):
            params = {"n1": n1, "n2": n2, "T": float(T), "offset1": l1, "offset2": l2,
                      "dt": dt}
            if halved is not None:
                denom = max(abs(halved[pos]), 1e-30)
                params["halving_rel"] = abs(curve[pos] - halved[pos]) / denom
            reports.append(
                BoundReport.build(params, abs(curve[pos]), rhs, "QUADRATURE")
            )
    return reports


def bound_sweep(
    pairs,
    T_grid,
    dt: float = MAX_PRODUCT_DT,
    offsets=((0, 0),),
    check_halving: bool = False,
    workers: int = 1,
) -> list[BoundReport]:
    """Check |integral osc_1*osc_2| <= bound over (pair, horizon, offset).

    Pairs are processed independently (optionally in a process pool); the
    report list is ordered by (pair position, offset position, horizon
    position) regardless of worker count.
    """
    T_grid = [float(T) for T in T_grid]
    jobs = [((int(n1), int(n2)), T_grid, dt, tuple(offsets), check_halving)
            for n1, n2 in pairs]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            chunks = list(pool.map(_sweep_one, jobs))
    else:
        chunks = [_sweep_one(job) for job in jobs]
    return [report for chunk in chunks for report in chunk]
