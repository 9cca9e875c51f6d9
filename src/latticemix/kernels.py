"""Stochastic kernels induced by measuring a lattice walk.

Every kernel here is circulant over the lattice: the full matrix is determined
by its first column (probabilities leaving vertex 0), with entry (p -> q)
equal to first_column[(q - p) mod dims] coordinate-wise.  Only that column is
ever stored.

Three constructions are provided:

* instantaneous_kernel: measure after evolving for a fixed time t, entries
  |amplitude|^2.
* averaged_kernel_analytic: measure after a time drawn uniformly from [0, T].
  The time average is done per frequency pair: each factor contributes terms
  coeff * exp(i*t*omega) with omega = scale*(lambda_j - lambda_k), and
  (1/T) * integral_0^T exp(i*omega*t) dt = g(omega*T) with
  g(x) = (exp(ix) - 1)/(ix).  Joint terms multiply across factors.
* averaged_kernel_quadrature: the same average by composite Simpson over a
  time grid, kept deliberately independent of the per-frequency path so the
  two can cross-check each other.

kernel_power composes a kernel with itself (repeated measurement rounds)
through the circulant diagonalization.
"""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ParityError, ResolutionError, SizeError
from .spectral import LatticeSpec, eigenphases, product_amplitude

MAX_DENSE_MATRIX = 2048
MAX_QUADRATURE_DT = 0.05

_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Kernel:
    """Column-stochastic circulant kernel stored by its first column."""

    lattice: LatticeSpec
    first_column: np.ndarray
    kind: str

    def __post_init__(self):
        col = np.asarray(self.first_column, dtype=float).ravel()
        if col.size != self.lattice.size:
            raise ValueError(
                f"column length {col.size} != vertex count {self.lattice.size}"
            )
        if col.min() < -1e-12:
            raise ValueError(f"kernel entry {col.min()} below -1e-12")
        col = np.clip(col, 0.0, None)
        col.setflags(write=False)
        object.__setattr__(self, "first_column", col)

    @property
    def grid(self) -> np.ndarray:
        """First column reshaped to the lattice dims."""
        return self.first_column.reshape(self.lattice.dims)

    def column(self, source: tuple[int, ...] | int = 0) -> np.ndarray:
        """Probability column out of `source`, as a flat length-N vector."""
        if isinstance(source, (int, np.integer)):
            source = np.unravel_index(source, self.lattice.dims)
        return np.roll(self.grid, shift=tuple(source), axis=range(self.lattice.d)).ravel()

    def full_matrix(self) -> np.ndarray:
        """Dense N x N matrix; guarded, for oracles and small experiments only."""
        n_total = self.lattice.size
        if n_total > MAX_DENSE_MATRIX:
            raise SizeError(f"dense matrix for N = {n_total} refused")
        out = np.empty((n_total, n_total))
        for p in range(n_total):
            out[:, p] = self.column(p)
        return out


def _check_stochastic(col: np.ndarray, tol: float, what: str) -> None:
    total = float(col.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(f"{what}: column sums to {total}, off 1 by > {tol}")


def uniform_kernel(lattice: LatticeSpec) -> Kernel:
    lattice.check_dense()
    col = np.full(lattice.size, 1.0 / lattice.size)
    return Kernel(lattice=lattice, first_column=col, kind="uniform")


def identity_kernel(lattice: LatticeSpec) -> Kernel:
    lattice.check_dense()
    col = np.zeros(lattice.size)
    col[0] = 1.0
    return Kernel(lattice=lattice, first_column=col, kind="identity")


def instantaneous_kernel(lattice: LatticeSpec, t: float) -> Kernel:
    """Measurement kernel P_t with entries |<q|U(t)|p>|^2."""
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    lattice.check_dense()
    amp = product_amplitude(lattice, (0,) * lattice.d, t)
    col = np.abs(amp.ravel()) ** 2
    _check_stochastic(col, 1e-9, f"instantaneous kernel t={t}")
    return Kernel(lattice=lattice, first_column=col, kind=f"instant(t={t})")


def uniform_time_average(x: np.ndarray) -> np.ndarray:
    """g(x) = (exp(ix) - 1)/(ix), the average of exp(i*omega*t) with x = omega*T.

    Evaluated as sin(x)/x + i*(1 - cos(x))/x in cancellation-free form;
    g(0) = 1 exactly, so frequency pairs that cancel identically (j = k and
    the mirrored j + k = n pairs, whose eigenvalues match bitwise) land on the
    exact time-independent value.
    """
    x = np.asarray(x, dtype=float)
    re = np.sinc(x / np.pi)
    half = np.sin(0.5 * x)
    im = np.divide(2.0 * half * half, x, out=np.zeros_like(x), where=x != 0.0)
    return re + 1j * im


@functools.lru_cache(maxsize=64)
def _factor_terms(n: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies omega_p and index offsets delta_p of one factor's n^2 pairs."""
    lam = eigenphases(n).lambdas
    omega = scale * np.subtract.outer(lam, lam)
    j = np.arange(n)
    delta = np.subtract.outer(j, j) % n
    omega = omega.ravel()
    delta = delta.ravel()
    omega.setflags(write=False)
    delta.setflags(write=False)
    return omega, delta


@functools.lru_cache(maxsize=64)
def _coeff_matrix(n: int) -> np.ndarray:
    """M[l, p] = w^(l * delta_p) / n^2, mapping pair terms to destinations."""
    _, delta = _factor_terms(n, 1.0)
    roots = eigenphases(n).unit_roots
    mat = roots[np.outer(np.arange(n), delta) % n] / float(n) ** 2
    mat.setflags(write=False)
    return mat


def _averaged_column_1d(n: int, T: float) -> np.ndarray:
    omega, _ = _factor_terms(n, 1.0)
    weights = uniform_time_average(omega * T)
    col = (_coeff_matrix(n) @ weights).real
    return col


def _load_checkpoint(path: str, meta: tuple) -> tuple[int, np.ndarray] | None:
    if path is None or not os.path.exists(path):
        return None
    data = np.load(path)
    stored = tuple(data["meta"])
    if stored != meta:
        raise ValueError(
            f"checkpoint {path} was written for different parameters {stored}"
        )
    return int(data["next_block"]), data["partial"]


def _save_checkpoint(path: str, meta: tuple, next_block: int, partial: np.ndarray) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    # suffix must end in .npz or np.savez silently writes elsewhere
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp.npz")
    os.close(fd)
    try:
        np.savez(tmp, meta=np.array(meta), next_block=next_block, partial=partial)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _averaged_column_2d(
    n1: int,
    n2: int,
    T: float,
    block_size: int,
    checkpoint: str | None,
    checkpoint_every: int,
) -> np.ndarray:
    """First column of the d=2 averaged kernel by factor-block contraction.

    Factor-1 pairs are processed in blocks; for each block the joint weights
    g((omega1 + omega2) * T) are contracted against factor 2's coefficient
    matrix, accumulating C[p1, l2] = sum_p2 M2[l2, p2] * g(...).  The column
    is then Re(M1 @ C).  Partial sums of C are checkpointable so a long run
    survives interruption; the block order is fixed, so a resumed run adds
    the same terms in the same order and reproduces the uninterrupted result
    bit for bit.
    """
    scale = 0.5
    omega1, _ = _factor_terms(n1, scale)
    omega2, _ = _factor_terms(n2, scale)
    m2t = np.ascontiguousarray(_coeff_matrix(n2).T)  # (n2^2, n2)
    p1_count = omega1.size
    blocks = range(0, p1_count, block_size)

    meta = (_CHECKPOINT_VERSION, n1, n2, float(T), block_size)
    start = 0
    partial = np.zeros((p1_count, n2), dtype=complex)
    resumed = _load_checkpoint(checkpoint, meta) if checkpoint else None
    if resumed is not None:
        start, partial = resumed

    for count, lo in enumerate(blocks):
        if lo < start:
            continue
        hi = min(lo + block_size, p1_count)
        joint = (omega1[lo:hi, None] + omega2[None, :]) * T
        partial[lo:hi] = uniform_time_average(joint) @ m2t
        if checkpoint and (count + 1) % checkpoint_every == 0 and hi < p1_count:
            _save_checkpoint(checkpoint, meta, hi, partial)

    col = (_coeff_matrix(n1) @ partial).real
    if checkpoint and os.path.exists(checkpoint):
        os.remove(checkpoint)
    return col.ravel()


def averaged_kernel_analytic(
    lattice: LatticeSpec,
    T: float,
    block_size: int = 256,
    checkpoint: str | None = None,
    checkpoint_every: int = 4,
) -> Kernel:
    """Time-averaged kernel P_T built from exact per-frequency integrals.

    Requires every cycle length odd (the time-independent part of the
    expansion collapses only for odd n) and d <= 2; the quadrature builder
    covers everything else.
    """
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"averaging horizon must be positive, got {T}")
    if not lattice.all_odd:
        raise ParityError(f"analytic averaged kernel needs odd dims, got {lattice.dims}")
    if lattice.d > 2:
        raise SizeError("analytic averaged kernel supports d <= 2; use quadrature")
    lattice.check_dense()

    if lattice.d == 1:
        col = _averaged_column_1d(lattice.dims[0], T)
    else:
        col = _averaged_column_2d(
            lattice.dims[0], lattice.dims[1], T, block_size, checkpoint, checkpoint_every
        )
    _check_stochastic(col, 1e-9, f"analytic averaged kernel T={T}")
    return Kernel(lattice=lattice, first_column=col, kind=f"averaged(T={T})")


def simpson_grid(T: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Simpson nodes and weights for the average (1/T) * integral over [0, T]."""
    intervals = int(np.ceil(T / dt))
    intervals += intervals % 2
    intervals = max(intervals, 2)
    h = T / intervals
    nodes = np.linspace(0.0, T, intervals + 1)
    weights = np.full(intervals + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= h / (3.0 * T)
    return nodes, weights


def averaged_kernel_quadrature(lattice: LatticeSpec, T: float, dt: float) -> Kernel:
    """Time-averaged kernel by composite Simpson over instantaneous kernels.

    dt must not exceed 0.05: joint phase frequencies are bounded by 2 rad per
    unit time (each factor contributes at most scale * 2 = 2/d), so this keeps
    >= 60 nodes per period of the fastest term.
    """
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"averaging horizon must be positive, got {T}")
    if not (0 < dt <= MAX_QUADRATURE_DT):
        raise ResolutionError(f"dt must lie in (0, {MAX_QUADRATURE_DT}], got {dt}")
    lattice.check_dense()
    nodes, weights = simpson_grid(T, dt)
    col = np.zeros(lattice.size)
    for t, w in zip(nodes, weights):
        col += w * instantaneous_kernel(lattice, t).first_column
    _check_stochastic(col, 1e-8, f"quadrature averaged kernel T={T}")
    return Kernel(lattice=lattice, first_column=col, kind=f"averaged_quad(T={T},dt={dt})")


def kernel_power(kernel: Kernel, rounds: int) -> Kernel:
    """Kernel composed with itself `rounds` times (circulant convolution power)."""
    rounds = int(rounds)
    if rounds < 0:
        raise ValueError(f"power must be >= 0, got {rounds}")
    if rounds == 0:
        return identity_kernel(kernel.lattice)
    if rounds == 1:
        return kernel
    spectrum = np.fft.fftn(kernel.grid)
    powered = np.fft.ifftn(spectrum**rounds).real
    col = powered.ravel()
    _check_stochastic(col, 1e-9 * rounds, f"kernel power {rounds}")
    return Kernel(
        lattice=kernel.lattice,
        first_column=col,
        kind=f"power({kernel.kind}, {rounds})",
    )
