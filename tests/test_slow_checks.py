"""Opt-in slow-tier checks (run with ``pytest -m slow``).

The heavy item cross-checks the (95, 93) averaged kernel at its full
deviation horizon T = 1600*(95+93)*log(95)^2 ~ 6.2e6 against a composite
Simpson quadrature of the instantaneous probabilities, at a reduced sample of
column entries.  The quadrature path never touches the per-frequency
integrals: amplitudes are evolved on the time grid, squared, multiplied
across factors and Simpson-weighted, so agreement validates the analytic
column end to end.
"""

import math
import time

import numpy as np
import pytest

from latticemix.experiments import deviation_time
from latticemix.kernels import averaged_kernel_analytic
from latticemix.spectral import LatticeSpec

pytestmark = pytest.mark.slow


def _factor_probabilities_on_grid(n, offsets, t0, h, count, scale):
    """(count, len(offsets)) measurement probabilities on a uniform time grid."""
    # the eigenvalues from their definition, not from the library's table
    j = np.arange(n)
    lam = np.cos(2.0 * np.pi * j / n)
    weights = np.stack(
        [np.exp(2j * np.pi * ((l * j) % n) / n) / n for l in offsets], axis=1
    )
    out = np.empty((count, len(offsets)))
    block = 8192
    base = np.exp(1j * scale * h * np.outer(np.arange(min(block, count)), lam))
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        anchor = np.exp(1j * scale * (t0 + lo * h) * lam)
        amps = (base[: hi - lo] * anchor) @ weights
        out[lo:hi] = np.abs(amps) ** 2
    return out


def test_full_horizon_quadrature_cross_check():
    n1, n2 = 95, 93
    T = deviation_time(n1, n2)
    entries = [(0, 0), (0, 1), (1, 0), (1, 1)]
    offsets1 = sorted({l1 for l1, _ in entries})
    offsets2 = sorted({l2 for _, l2 in entries})
    col1 = {l: i for i, l in enumerate(offsets1)}
    col2 = {l: i for i, l in enumerate(offsets2)}

    start = time.perf_counter()
    analytic = averaged_kernel_analytic(LatticeSpec((n1, n2)), T).grid

    dt = 0.05
    intervals = int(math.ceil(T / dt))
    intervals += intervals % 2
    h = T / intervals
    node_count = intervals + 1

    partials = {entry: [] for entry in entries}
    chunk = 1 << 20
    for lo in range(0, node_count, chunk):
        hi = min(lo + chunk, node_count)
        count = hi - lo
        t0 = lo * h
        p1 = _factor_probabilities_on_grid(n1, offsets1, t0, h, count, 0.5)
        p2 = _factor_probabilities_on_grid(n2, offsets2, t0, h, count, 0.5)
        idx = np.arange(lo, hi)
        weights = np.where(idx % 2 == 1, 4.0, 2.0)
        if lo == 0:
            weights[0] = 1.0
        if hi == node_count:
            weights[-1] = 1.0
        for l1, l2 in entries:
            vals = p1[:, col1[l1]] * p2[:, col2[l2]]
            partials[(l1, l2)].append(float(weights @ vals))

    worst = 0.0
    for l1, l2 in entries:
        quadrature = math.fsum(partials[(l1, l2)]) * h / (3.0 * T)
        gap = abs(quadrature - analytic[l1, l2])
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    print(f"full-horizon cross-check: worst entry gap {worst:.3e} in {elapsed:.0f}s")
    assert worst <= 1e-5
