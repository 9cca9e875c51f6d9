"""Independent brute-force oracles the test suite checks the library against.

Everything here goes through dense matrices and generic algorithms (matrix
exponentials, eigenvalue scans, all-pairs loops, linear solves) rather than
the spectral shortcuts under test.  The helpers at the end are the
exception: a point mass, the uniform kernel, dense views of a kernel and
thin evaluators of the library's own routes at single points, which only
tests need.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg

from latticemix.errors import SizeError
from latticemix.kernels import Kernel
from latticemix.oscsums import _check_odd, _osc_series, product_integral_curve
from latticemix.spectral import HALF, LatticeSpec, class_table, cycle_amplitude_at


def dense_cycle_adjacency(n: int) -> np.ndarray:
    """Normalized adjacency (W + W^(n-1)) / 2 of the n-cycle, densely."""
    shift = np.zeros((n, n))
    for i in range(n):
        shift[i, (i + 1) % n] = 1.0
    return (shift + np.linalg.matrix_power(shift, n - 1)) / 2.0


def dense_walk_matrix(lattice: LatticeSpec) -> np.ndarray:
    """Normalized adjacency (1/d) * sum_k I x ... x Abar_k x ... x I, densely."""
    total = np.zeros((lattice.size, lattice.size))
    for axis, n in enumerate(lattice.dims):
        factor = np.array([[1.0]])
        for other_axis, m in enumerate(lattice.dims):
            block = dense_cycle_adjacency(m) if other_axis == axis else np.eye(m)
            factor = np.kron(factor, block)
        total += factor
    return total / lattice.d


def enumerated_spectral_gap(lattice: LatticeSpec) -> float:
    """1 - the largest joint eigenvalue off the top one, over every class tuple.

    Joint eigenvalues are (1/d) * sum_k cos(2*pi*a_k/n_k); every index tuple
    has the eigenvalue of its class tuple a_k = min(j_k, n_k - j_k), so all
    prod_k (n_k//2 + 1) class tuples are enumerated and the maximum is taken
    off (0, ..., 0), which comes first.
    """
    joint = np.zeros(1)
    for n in lattice.dims:
        joint = np.add.outer(joint, np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)).ravel()
    return float(1.0 - np.max(joint[1:] / lattice.d))


def expm_amplitude_column(lattice: LatticeSpec, source_index: int, t: float) -> np.ndarray:
    """Column of exp(i * Abar * t) through scipy's Pade scaling-and-squaring."""
    walk = dense_walk_matrix(lattice)
    return scipy.linalg.expm(1j * t * walk)[:, source_index]


def unfolded_averaged_column(dims: tuple[int, ...], T: float) -> np.ndarray:
    """First column of the averaged kernel P_T as the plain sum over index pairs.

    P_T(0, l) = sum over all tuples of index pairs ((j_1, m_1), ..., (j_d, m_d))
    of prod_k w_k^(l_k*(j_k - m_k))/n_k^2 * Re g(x), with x = T * sum_k omega_k,
    omega_k = (lambda_j - lambda_m)/d and Re g(x) = sin(x)/x: the unfolded
    route over prod_k n_k^2 terms, with eigenvalues cos(2*pi*j/n) taken
    straight from their definition.
    """
    d = len(dims)
    x = np.zeros(())
    for n in dims:
        lam = np.cos(2.0 * np.pi * np.arange(n) / n)
        x = np.add.outer(x, np.subtract.outer(lam, lam).ravel() / d)
    column = np.sinc(x * T / np.pi)
    for n in dims:
        j = np.arange(n)
        delta = np.subtract.outer(j, j).ravel()
        roots = np.exp(2j * np.pi * np.outer(j, delta) / n) / n**2
        # contract the leading index-pair axis; the offset axis goes last
        column = np.tensordot(column, roots, axes=([0], [1]))
    return column.real.ravel()


def exp_amplitude_at(n: int, ts, scale: float) -> np.ndarray:
    """Amplitudes <l|exp(i*Abar*t*scale)|0> at every offset l < n, with complex-exp phases.

    The folded sum over the classes a <= n//2, with each phase
    exp(i*t*scale*lambda_a) taken from np.exp by its definition and the real
    class table times the (re, im) pairs; offset l > n//2 copies row n - l.
    Shape ts.shape + (n,).
    """
    table = class_table(n)
    ts = np.asarray(ts, dtype=float)
    # columns 2k and 2k + 1 of the real view are the (re, im) of time k
    phases = np.exp(1j * np.multiply.outer(table.lambdas, ts.ravel() * float(scale))).view(float)
    half = table.lambdas.size
    amps = np.empty((n, phases.shape[1]))
    np.matmul(table.cosines, phases, out=amps[:half])
    amps[:half] *= 1.0 / n
    amps[half:] = amps[n - half:0:-1]
    return amps.view(complex).T.reshape(ts.shape + (n,))


def cumsum_sampler(lattice: LatticeSpec, T: float, rounds: int, trajectories: int,
                   seed: int) -> np.ndarray:
    """Empirical distribution of the sampled measure-evolve walk, by cumulative sums.

    The random stream of experiments._sample_repeated: per round one uniform
    time in [0, T] for every trajectory, then per coordinate one uniform
    draw each.  The step is the number of offsets whose cumulative
    |amplitude|^2 (exp_amplitude_at, trajectory-major) lies below the draw,
    clipped to n - 1.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / lattice.d
    positions = np.zeros((trajectories, lattice.d), dtype=np.int64)
    for _ in range(rounds):
        ts = rng.uniform(0.0, T, trajectories)
        for axis, n in enumerate(lattice.dims):
            draws = rng.random(trajectories)
            probs = np.abs(exp_amplitude_at(n, ts, scale)) ** 2
            cum = np.cumsum(probs, axis=1)
            step = np.minimum((draws[:, None] > cum).sum(axis=1), n - 1)
            positions[:, axis] = (positions[:, axis] + step) % n
    flat = np.ravel_multi_index(positions.T, lattice.dims)
    return np.bincount(flat, minlength=lattice.size) / trajectories


def unfolded_class_pair_sum(tables, horizons) -> np.ndarray:
    """Sum over class-pair tuples p of prod_k C_k[l_k, p_k] * sin(x)/x, unfolded.

    `tables` holds one (omega_k, C_k) pair per factor over all class pairs
    (a, b), none folded, and x = T * sum_k omega_k[p_k] for each horizon T.
    The leading factors' frequencies are summed into one axis, one weight
    matrix per horizon is contracted against the last factor, then each
    leading factor's table in turn.  The result is flattened row-major over
    (T, l_1, ..., l_d).
    """
    horizons = np.asarray(horizons, dtype=float).ravel()
    *leading, (omega_last, coeff_last) = tables
    lead = np.zeros(1)
    for omega, _ in leading:
        lead = np.add.outer(lead, omega).ravel()
    x = np.multiply.outer(horizons, lead[:, None] + omega_last)
    weights = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    col, done = weights.reshape(-1, omega_last.size) @ coeff_last.T, horizons.size
    for omega, coeff in leading:
        col = np.matmul(coeff, col.reshape(done, coeff.shape[1], -1))
        done *= coeff.shape[0]
    return col.ravel()


def _unfolded_osc_terms(n: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies sigma_jk and unit coefficients w^(l*(j-k)) of every osc term.

    The index pairs are all (j, k) with j != k and j + k != n, with
    sigma_jk = sin(pi*(j+k)/n)*sin(pi*(j-k)/n) and the roots of unity taken
    straight from their definition.
    """
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    keep = (j != k) & (j + k != n)
    j, k = j[keep], k[keep]
    sigma = np.sin(np.pi * (j + k) / n) * np.sin(np.pi * (j - k) / n)
    roots = np.exp(2j * np.pi * ((offset * (j - k)) % n) / n)
    return sigma, roots


def unfolded_osc_sum(n: int, offset: int, t: float) -> complex:
    """osc(t) as the plain sum of exp(-i*t*sigma_jk)*w^(l*(j-k)) over index pairs."""
    sigma, roots = _unfolded_osc_terms(n, offset)
    return complex(np.sum(np.exp(-1j * t * sigma) * roots))


def unfolded_product_integral(n1: int, n2: int, offsets: tuple[int, int], T: float) -> complex:
    """integral_0^T osc_1(t)*osc_2(t) dt, summed over all 4-index terms.

    Each term integrates to T*g(x) at x = -(sigma1 + sigma2)*T, with the
    complex g(x) = (exp(ix) - 1)/(ix) = sin(x)/x + i*(1 - cos(x))/x.
    """
    sigma1, roots1 = _unfolded_osc_terms(n1, offsets[0])
    sigma2, roots2 = _unfolded_osc_terms(n2, offsets[1])
    x = -np.add.outer(sigma1, sigma2) * T
    half = np.sin(0.5 * x)
    im = np.divide(2.0 * half * half, x, out=np.zeros_like(x), where=x != 0.0)
    return complex(T * (roots1 @ (np.sinc(x / np.pi) + 1j * im) @ roots2))


def stepped_lazy_curve(lattice: LatticeSpec, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Tv to uniform and return probability of the lazy walk, steps 0..t_max.

    Steps a point mass at the origin with the np.roll stencil: stay with
    probability 1/2, shift by +1 or -1 along each axis with 1/(4d) each.
    """
    d = lattice.d
    grid = np.zeros(lattice.dims)
    grid[(0,) * d] = 1.0
    tv = np.empty(t_max + 1)
    returns = np.empty(t_max + 1)
    for t in range(t_max + 1):
        tv[t] = 0.5 * np.abs(grid - 1.0 / lattice.size).sum()
        returns[t] = grid[(0,) * d]
        out = 0.5 * grid
        for axis in range(d):
            out += (np.roll(grid, 1, axis) + np.roll(grid, -1, axis)) / (4 * d)
        grid = out
    return tv, returns


def allpairs_column_distance(matrix: np.ndarray) -> float:
    """Max pairwise column tv by scanning every column pair."""
    n = matrix.shape[1]
    best = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            best = max(best, 0.5 * np.abs(matrix[:, a] - matrix[:, b]).sum())
    return best


def orthant_column_distance(kernel: Kernel, block: int = 2**18) -> float:
    """d(P) as the max over the orthant shifts 0 <= s_k <= n_k//2 of tv(c, c rolled by s).

    The scan distances.pairwise_column_distance made before it halved each
    shift's sum: every entry of every orthant shift is summed.  The rolls
    along the last axis are gathered through the index rows
    idx[s, x] = (x - s) mod n_last, for chunks of shifts that keep a block
    near `block` entries, and the leading shifts by np.roll.
    """
    grid = kernel.grid
    dims = kernel.lattice.dims
    *lead, last = [range(n // 2 + 1) for n in dims]
    x = np.arange(dims[-1])
    lead_axes = tuple(range(1, len(dims)))
    step = max(1, block // grid.size)
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


def mixing_scan(matrix: np.ndarray, epsilon: float, t_max: int) -> int | None:
    """First step from which tv(column 0, uniform) stays <= epsilon."""
    n = matrix.shape[0]
    u = np.full(n, 1.0 / n)
    dist = np.zeros(n)
    dist[0] = 1.0
    tvs = []
    for _ in range(t_max + 1):
        tvs.append(0.5 * np.abs(dist - u).sum())
        dist = matrix @ dist
    tvs = np.array(tvs)
    suffix = np.maximum.accumulate(tvs[::-1])[::-1]
    hits = np.nonzero(suffix <= epsilon)[0]
    return int(hits[0]) if hits.size else None


def expected_meeting_time(n: int, start_gap: int) -> float:
    """Expected hitting time of 0 for the +-1 gap walk on Z_n, by linear solve.

    First-step analysis: h(0) = 0 and h(g) = 1 + (h(g-1) + h(g+1)) / 2 for the
    lazy-coupling gap chain restricted to steps where the gap actually moves.
    """
    system = np.zeros((n, n))
    rhs = np.ones(n)
    system[0, 0] = 1.0
    rhs[0] = 0.0
    for g in range(1, n):
        system[g, g] = 1.0
        system[g, (g - 1) % n] -= 0.5
        system[g, (g + 1) % n] -= 0.5
    hit = np.linalg.solve(system, rhs)
    return float(hit[start_gap])


def simpson_integral(fn, a: float, b: float, dt: float) -> float:
    """Plain composite Simpson of a vectorized scalar function."""
    intervals = max(2, int(np.ceil((b - a) / dt)))
    intervals += intervals % 2
    ts = np.linspace(a, b, intervals + 1)
    vals = fn(ts)
    weights = np.full(intervals + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return float(weights @ vals) * (b - a) / intervals / 3.0


def point_mass(index: int, size: int) -> np.ndarray:
    out = np.zeros(int(size))
    out[index] = 1.0
    return out


MAX_DENSE_MATRIX = 2048


def uniform_kernel(lattice: LatticeSpec) -> Kernel:
    lattice.check_dense()
    col = np.full(lattice.size, 1.0 / lattice.size)
    return Kernel(lattice=lattice, first_column=col, kind="uniform")


def kernel_column(kernel: Kernel, source: tuple[int, ...] | int = 0) -> np.ndarray:
    """Probability column out of `source`, as a flat length-N vector."""
    if isinstance(source, (int, np.integer)):
        source = np.unravel_index(source, kernel.lattice.dims)
    return np.roll(kernel.grid, shift=tuple(source), axis=range(kernel.lattice.d)).ravel()


def full_matrix(kernel: Kernel) -> np.ndarray:
    """Dense N x N matrix of a circulant kernel; refused above MAX_DENSE_MATRIX vertices."""
    n_total = kernel.lattice.size
    if n_total > MAX_DENSE_MATRIX:
        raise SizeError(f"dense matrix for N = {n_total} refused")
    out = np.empty((n_total, n_total))
    for p in range(n_total):
        out[:, p] = kernel_column(kernel, p)
    return out


def osc_sum_direct(n: int, offset: int, t: float) -> float:
    """O(n^2) evaluation of the library's class-pair cosine series."""
    n = _check_odd(n)
    _, freq, coeff = _osc_series(n, offset)
    return float(coeff[0] @ np.cos(freq * t))


def osc_sum_fast(n: int, offset: int, t):
    """O(n) evaluation via n^2*|amplitude|^2 - n - (n*[l==0] - 1).

    Accepts a scalar or an array of times.
    """
    n = _check_odd(n)
    offset = int(offset) % n
    ts = np.asarray(t, dtype=float)
    amp = cycle_amplitude_at(n, ts, HALF)[..., offset]
    constant = n + (n * (offset == 0) - 1)
    out = n * n * np.abs(amp) ** 2 - constant
    return float(out) if np.isscalar(t) else out


def product_integral(n1: int, n2: int, offsets: tuple[int, int], T: float, dt: float) -> float:
    """The library's Simpson curve at the one horizon T."""
    curve, _ = product_integral_curve(n1, n2, offsets, [T], dt)
    return float(curve[0])
