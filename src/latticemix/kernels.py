"""Stochastic kernels induced by measuring a lattice walk.

Every kernel here is circulant over the lattice: the full matrix is determined
by its first column (probabilities leaving vertex 0), with entry (p -> q)
equal to first_column[(q - p) mod dims] coordinate-wise.  Only that column is
ever stored.  The walk's eigenvalues satisfy lambda_j = lambda_{n-j} on every
cycle, so every kernel of it is even in each coordinate; Kernel stores the
column mirrored through spectral.ClassTable.mirror (see mirrored), which
makes it bitwise even, and refuses a column that is not even to within
1e-12.  That lets distances.pairwise_column_distance scan one orthant of
shifts, and half of each shift's entries.

Three constructions are provided:

* instantaneous_kernel: measure after evolving for a fixed time t, entries
  |amplitude|^2.
* averaged_kernel_analytic: measure after a time drawn uniformly from [0, T].
  The average is done on folded spectral tables.  On any cycle
  lambda_j = lambda_{n-j}, so the indices fall into n//2 + 1 mirror classes
  a = min(j, n-j), and the n^2 index pairs (j, k) of |amplitude|^2 collapse
  onto class pairs (a, b) with frequency omega_ab = scale*(lambda_a - lambda_b)
  and the real coefficient c_a(l)*c_b(l)/n^2, where c_a(l) is the sum of
  w^(l*j) over the class: mult_a*cos(2*pi*l*a/n), with mult_a = 1 for a = 0
  and for a = n/2 on an even cycle, and mult_a = 2 otherwise.
  The pairs (a, b) and (b, a) are complex conjugates, so the time average
  (1/T)*integral_0^T exp(i*omega*t) dt = g(omega*T) enters only through
  Re g(x) = sin(x)/x, and the whole construction is real.  Joint terms of
  a d-factor lattice multiply across factors, with weight sin(x)/x at
  x = (omega_1 + ... + omega_d)*T and scale 1/d per factor; any d works.
  The class-pair frequencies and coefficients are the pair_omega (times
  the scale) and pair_coeff of spectral.class_table(n), and _class_pair_sum
  contracts them factor by factor.  It alone decides their layout: it
  folds each pair (a, b) of the first factor with its swap (b, a) (_fold),
  and it blocks the rows and chunks the horizons.  The return curve and the
  exact oscillatory sums pass it plain class-pair rows in the same way.  Since
  c_a(l) = c_a(n - l), only the rows l <= n//2 of each factor are
  contracted and the column is mirrored from them.  The weight takes one of
  two forms per sub-block of terms.  Where every |x| >= 1, its sine is
  sin(T*alpha)*cos(T*beta) + cos(T*alpha)*sin(T*beta), with alpha the
  leading factors' frequency sum and beta the last factor's, from
  per-factor phases of exact arguments (spectral._exact_phases, the one
  exact-phase routine, shared with the Simpson grid anchors): no sine per
  term, and no rounding of a long x in its sine.  A sub-block holding any
  |x| < 1 (the exact zeros, tuples of an even cycle that cancel only to
  rounding, short horizons) takes the sine of the rounded x
  (_sinc_average), which is exactly 1 at x = 0.  Past the largest double
  (T near 1e308) an x that overflows takes weight 0 (_far_sinc_average).
* averaged_kernel_quadrature: the same average by composite Simpson over
  batched amplitudes on a time grid, kept deliberately independent of the
  per-frequency path so the two can cross-check each other.

kernel_power composes a kernel with itself (repeated measurement rounds)
through the circulant diagonalization.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .spectral import (LatticeSpec, _check_entries, _exact_phases, class_table,
                       cycle_amplitude_at, product_amplitude)

MAX_QUADRATURE_DT = 0.05

_CHECKPOINT_VERSION = 3

# Leading class-pair rows per block of _class_pair_sum, and blocks per
# checkpoint write.  The block size is part of the checkpoint's meta, so a
# file resumes only under the size that wrote it.
_BLOCK_SIZE = 256
_CHECKPOINT_EVERY = 4

# Entries of one chunk of horizons' sin(x)/x weights in a block of
# _class_pair_sum, and of node probabilities in averaged_kernel_quadrature.
_WEIGHT_BLOCK = 2**18

# Entries of one sub-block of sin(x)/x weights in _class_pair_sum, evaluated
# in place in buffers that stay in cache.
_SINC_BLOCK = 2**13


@dataclass(frozen=True)
class Kernel:
    """Column-stochastic circulant kernel stored by its first column.

    The column is stored mirrored, bitwise even in every coordinate.
    """

    lattice: LatticeSpec
    first_column: np.ndarray
    kind: str

    def __post_init__(self):
        col = np.asarray(self.first_column, dtype=float).ravel()
        if col.size != self.lattice.size:
            raise ValueError(
                f"column length {col.size} != vertex count {self.lattice.size}"
            )
        # NaN compares false in both checks below, so it is refused first
        if not np.isfinite(col).all():
            raise ValueError(f"kernel entry {col[~np.isfinite(col)][0]} is not finite")
        if col.min() < -1e-12:
            raise ValueError(f"kernel entry {col.min()} below -1e-12")
        # the ufunc np.clip(col, 0.0, None) calls, without its Python wrapper
        col = np.maximum(col, 0.0)
        dims = self.lattice.dims
        even = mirrored(col.reshape(dims), dims).ravel()
        odd = np.abs(even - col).max()
        if odd > 1e-12:
            raise ValueError(f"kernel column differs from its mirror image by {odd} > 1e-12")
        even.setflags(write=False)
        object.__setattr__(self, "first_column", even)

    @property
    def grid(self) -> np.ndarray:
        """First column reshaped to the lattice dims."""
        return self.first_column.reshape(self.lattice.dims)


def mirrored(grid: np.ndarray, dims) -> np.ndarray:
    """`grid` read at index min(x_k, n_k - x_k) along every axis k.

    On an orthant-shaped grid, n_k//2 + 1 long on axis k, this expands the
    orthant to the whole lattice; on a full grid it copies each half
    x_k <= n_k//2 over the other.  Either way the result is bitwise even.
    """
    for axis, n in enumerate(dims):
        grid = grid.take(class_table(n).mirror, axis=axis)
    return grid


def _check_stochastic(cols: np.ndarray, tol: float, what: str) -> None:
    totals = cols.sum(axis=-1, keepdims=True).ravel()
    worst = float(totals[np.abs(totals - 1.0).argmax()])
    # a NaN sum fails too
    if not abs(worst - 1.0) <= tol:
        raise ValueError(f"{what}: column sums to {worst}, off 1 by > {tol}")


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


def _sinc_average(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Re g(x) = sin(x)/x, the weight of a conjugate-symmetric term pair, into `out`.

    Exactly 1 at x = 0, so the class pairs whose frequencies cancel
    identically (eigenvalues match bitwise) keep their full weight; tuples
    that cancel only to rounding (lambda_{n/2-a} = -lambda_a on an even
    cycle) keep it to within x^2/6, with x of order T*1e-16.  `x` is
    overwritten.
    """
    zero = x == 0.0
    np.sin(x, out=out)
    np.copyto(x, 1.0, where=zero)
    np.copyto(out, 1.0, where=zero)
    return np.divide(out, x, out=out)


def _far_sinc_average(ts: np.ndarray, freq: np.ndarray, x: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """_sinc_average of x = T*freq where it may overflow: an infinite x weighs 0, within 1e-308."""
    with np.errstate(over="ignore"):
        np.multiply(ts[:, None, None], freq, out=x)
    far = np.isinf(x)
    np.copyto(x, 1.0, where=far)    # a finite stand-in for the sine; a NaN stays NaN
    _sinc_average(x, out)
    np.copyto(out, 0.0, where=far)
    return out


def _separable_sinc(lead: np.ndarray, last: np.ndarray, freq: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """sin(x)/x into `out` for x[T, i, k] = T*(alpha_i + beta_k), from the phases of the summands.

    `lead` holds sin(T*alpha_i)/T and cos(T*alpha_i)/T at [T, i, :], `last`
    cos(T*beta_k) and sin(T*beta_k) at [T, :, k], and `freq` the rounded
    alpha_i + beta_k at [i, k].  So sin(x) = sin(T*alpha)*cos(T*beta)
    + cos(T*alpha)*sin(T*beta) is one product of depth 2 per horizon, with
    no sine.  The weight is off by a few roundings of itself plus about
    2**-52/|x|, where the sine of a rounded x is off by about 2**-52 whatever
    |x| is; so this route serves only blocks with every |x| >= 1.
    """
    np.matmul(lead, last, out=out)
    return np.divide(out, freq, out=out)


def _split_phases(leading, omega_last: np.ndarray, ts: np.ndarray):
    """The `lead` and `last` operands of _separable_sinc at the horizons `ts`.

    The leading phase of a tuple is the product of its factors' exact
    phases, in the row-major order of _class_pair_sum's summed leading axis.
    """
    lead = np.ones((ts.size, 1), dtype=complex)
    for _, omega, _ in leading:
        phases = _exact_phases(omega, ts[:, None])
        lead = (lead[:, :, None] * phases[:, None, :]).reshape(ts.size, -1)
    lead /= ts[:, None]
    last = _exact_phases(omega_last, ts[:, None])
    return np.stack((lead.imag, lead.real), axis=-1), np.stack((last.real, last.imag), axis=1)


def _cancellation_gap(lead: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """min over k of |lead_i + omega_k|, as rounded, for each i.

    The rounded sum is monotone in omega_k, so the least one is next to
    -lead_i in the sorted omega: the entries on either side of it.
    """
    order = np.sort(omega)
    at = np.searchsorted(order, -lead)
    below = order[np.maximum(at - 1, 0)]
    above = order[np.minimum(at, order.size - 1)]
    return np.minimum(np.abs(lead + below), np.abs(lead + above))


def _load_checkpoint(path: str, meta: tuple) -> tuple[int, np.ndarray] | None:
    if not os.path.exists(path):
        return None
    try:
        with np.load(path) as data:
            stored = tuple(float(v) for v in data["meta"])
            next_block, partial = int(data["next_block"]), data["partial"]
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(
            f"checkpoint {path} is not a readable partial-sum file ({exc}); delete it "
            f"to start the run over"
        ) from None
    if stored[0] != meta[0]:
        raise ValueError(
            f"checkpoint {path} has format version {stored[0]:g}, this build "
            f"reads version {meta[0]} (folded real partial sums); delete it "
            f"to start the run over"
        )
    if stored != meta:
        raise ValueError(
            f"checkpoint {path} was written for different parameters {stored}"
        )
    return next_block, partial


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


def _horizon_chunk(widths, rows_last: int, horizons: int) -> int:
    """Horizons per chunk of _class_pair_sum over tables of `widths` classes.

    Refuses with SizeError a chunk whose partial sums exceed
    spectral.MAX_PARTIAL_ENTRIES doubles.  Only the class counts are read, so a
    caller can check before it builds any class-pair table: the first factor
    has 1 + w(w-1)/2 folded pairs and every other factor w^2, the last
    factor's pairs are contracted in blocks of _BLOCK_SIZE leading rows, and
    the partial sums hold chunk * (leading pairs) * rows_last entries.
    """
    *lead, pairs = [1 + widths[0] * (widths[0] - 1) // 2, *(w * w for w in widths[1:])]
    lead_rows = math.prod(lead)
    chunk = min(horizons, max(1, _WEIGHT_BLOCK // (min(_BLOCK_SIZE, lead_rows) * pairs)))
    _check_entries(chunk * lead_rows * rows_last, "class-pair partial sums")
    return chunk


def _fold(table, omega: np.ndarray, coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One factor's class pairs folded onto one same-class column, then the pairs a < b.

    Column 0 has frequency 0 and coefficient sum_a C[l, (a, a)], and each
    pair a < b, row-major, keeps omega[(a, b)] with 2*C[l, (a, b)]: the terms
    of a pair and its swap (b, a), when a contraction is even under the swap.
    """
    classes = np.arange(table.lambdas.size)
    # column 0 starts as the last same-class pair (a, a), then takes the sum
    index = np.concatenate((classes[-1:] * (classes.size + 1),
                            np.flatnonzero(np.less.outer(classes, classes))))
    folded_omega, folded = omega[index], np.take(coeff, index, axis=1)
    folded_omega[0] = 0.0
    folded[:, 0] = np.take(coeff, classes * (classes.size + 1), axis=1).sum(axis=1)
    folded[:, 1:] *= 2.0
    return folded_omega, folded


def _class_pair_sum(factors, horizons, checkpoint: str | None = None) -> np.ndarray:
    """Sum over class-pair tuples p of prod_k C_k[l_k, p_k] * sin(x)/x.

    Here x = T * sum_k omega_k[p_k] for each horizon T in `horizons`, and
    `factors` holds one (table, omega_k, C_k) triple per factor: the
    spectral.class_table of the cycle, its pair_omega times the factor's
    time scale, and a (rows_k, pairs) block of its class-pair coefficient
    rows, both over all class pairs (a, b).

    The first factor is folded onto the pairs a <= b (_fold).  The fold is
    exact: each C_k is symmetric under the swap (a, b) <-> (b, a), which
    negates omega_k, and sin(x)/x is even, so swapping the pairs of every
    factor at once leaves a term unchanged, and the terms with the first
    factor's pair swapped add up to those without.  The same-class pairs
    (a, a), whose frequencies are exactly 0, share one column.

    The leading factors' frequencies are summed into one axis; the last
    factor is contracted against it in blocks of _BLOCK_SIZE leading rows,
    partial[T, p_lead, l_d] = sum_p_d sin(x)/x * C_d[l_d, p_d], with the
    horizons in chunks that keep a block's weights near _WEIGHT_BLOCK
    entries, evaluated in sub-blocks of about _SINC_BLOCK entries into
    buffers that stay in cache; then each leading factor's table is
    contracted in turn.  A sub-block whose every |x| is at least 1, by the
    least |x| of each leading row (_cancellation_gap), takes the separable
    weight (_separable_sinc) from the phases of its chunk of horizons,
    built once at the first such sub-block; any other takes _sinc_average,
    the same doubles as the sine of the rounded x always gave.  The result
    is flattened row-major over (T, l_1, ..., l_d).  A chunk's partial sums
    of more than spectral.MAX_PARTIAL_ENTRIES doubles are refused with
    SizeError (_horizon_chunk) before the fold.

    With one horizon, the partial sums are checkpointable so a long run
    survives interruption; the block order is fixed, so a resumed run adds
    the same terms in the same order and reproduces the uninterrupted
    result bit for bit.
    """
    horizons = np.asarray(horizons, dtype=float).ravel()
    if horizons.size == 0:
        return np.empty(0)
    (first, omega, coeff), *rest = factors
    chunk = _horizon_chunk([table.lambdas.size for table, _, _ in factors],
                           factors[-1][2].shape[0], horizons.size)
    *leading, (_, omega_last, coeff_last) = [(first, *_fold(first, omega, coeff)), *rest]
    lead = np.zeros(1)
    for _, omega, _ in leading:
        lead = np.add.outer(lead, omega).ravel()
    pairs, rows = omega_last.size, min(_BLOCK_SIZE, lead.size)
    step = max(1, _SINC_BLOCK // (chunk * pairs))
    # lead row 0 sums the leading factors' folded columns 0 and the last factor
    # has its pairs (a, a), all of frequency 0, so the sub-block of row 0 has
    # x = 0 and takes _sinc_average, and a table of one sub-block needs no gaps
    gap = _cancellation_gap(lead, omega_last) if lead.size > step else None
    weights = np.empty(chunk * rows * pairs)
    freq, x = np.empty((step, pairs)), np.empty((chunk, step, pairs))
    # rounding is monotone, so an x overflows only if max(T)*sum_k max|omega_k|,
    # in Python floats, does; any other call runs without the guard
    far = math.isinf(float(horizons.max()) * sum(float(np.abs(o).max()) for _, o, _ in factors))

    out = []
    for t0 in range(0, horizons.size, chunk):
        ts = horizons[t0 : t0 + chunk]
        # |x| >= reach[i] on lead row i, with equality at its nearest cancellation
        with np.errstate(over="ignore") if far else contextlib.nullcontext():
            reach, phases = None if gap is None else ts.min() * gap, None
        start, partial = 0, np.zeros((ts.size * lead.size, coeff_last.shape[0]))
        if checkpoint:
            meta = (_CHECKPOINT_VERSION, *(table.n for table, _, _ in factors), *ts, _BLOCK_SIZE)
            start, partial = _load_checkpoint(checkpoint, meta) or (start, partial)
        # a view, so block writes land in the partial sums the checkpoint saves
        blocks = partial.reshape(ts.size, lead.size, -1)
        for count, lo in enumerate(range(0, lead.size, rows)):
            if lo < start:
                continue
            hi = min(lo + rows, lead.size)
            block = weights[: ts.size * (hi - lo) * pairs].reshape(ts.size, hi - lo, pairs)
            for sub in range(lo, hi, step):
                width = min(step, hi - sub)
                np.add(lead[sub : sub + width, None], omega_last, out=freq[:width])
                dest = block[:, sub - lo : sub - lo + width]
                if reach is not None and reach[sub : sub + width].min() >= 1.0:
                    if phases is None:
                        phases = _split_phases(leading, omega_last, ts)
                    _separable_sinc(phases[0][:, sub : sub + width], phases[1], freq[:width], dest)
                elif far:
                    _far_sinc_average(ts, freq[:width], x[: ts.size, :width], dest)
                else:
                    np.multiply(ts[:, None, None], freq[:width], out=x[: ts.size, :width])
                    _sinc_average(x[: ts.size, :width], dest)
            sums = block.reshape(-1, pairs) @ coeff_last.T
            blocks[:, lo:hi] = sums.reshape(ts.size, hi - lo, -1)
            if checkpoint and (count + 1) % _CHECKPOINT_EVERY == 0 and hi < lead.size:
                _save_checkpoint(checkpoint, meta, hi, partial)

        col, done = partial, ts.size
        for _, _, coeff in leading:
            col = np.matmul(coeff, col.reshape(done, coeff.shape[1], -1))
            done *= coeff.shape[0]
        out.append(col.ravel())
    if checkpoint and os.path.exists(checkpoint):
        os.remove(checkpoint)
    return np.concatenate(out)


def averaged_kernel_analytic(
    lattice: LatticeSpec, T: float, *, checkpoint: str | None = None
) -> Kernel:
    """Time-averaged kernel P_T built from exact per-frequency integrals.

    Any cycle lengths and any number of factors, each with time scale 1/d.
    The rows l_k <= n_k//2 are contracted, and offset l_k reads row
    min(l_k, n_k - l_k).  With `checkpoint`, the partial sums are saved to
    that .npz file every _CHECKPOINT_EVERY blocks of _BLOCK_SIZE folded
    leading rows, a run resumes from it, and it is deleted on success.
    """
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"averaging horizon must be positive, got {T}")
    lattice.check_dense()

    scale = 1.0 / lattice.d
    tables = [class_table(n) for n in lattice.dims]
    # refuse an oversized contraction before any class-pair table is built
    _horizon_chunk([t.lambdas.size for t in tables], tables[-1].lambdas.size, 1)
    col = _class_pair_sum([(t, scale * t.pair_omega, t.pair_coeff) for t in tables], [T],
                          checkpoint)
    # rows l <= n//2 were contracted; offset l reads row min(l, n - l)
    col = mirrored(col.reshape([t.lambdas.size for t in tables]), lattice.dims).ravel()
    _check_stochastic(col, 1e-9, f"analytic averaged kernel T={T}")
    return Kernel(lattice=lattice, first_column=col, kind=f"averaged(T={T})")


def averaged_return_probability(lattice: LatticeSpec, horizons) -> np.ndarray:
    """Origin entry P_T(0, 0) of the analytic averaged kernel at each horizon.

    Matches averaged_kernel_analytic(lattice, T).first_column[0] for every T
    in `horizons`.  The origin entry needs only row 0 of each factor's
    class-pair table, so each horizon costs one pass over the joint class
    pairs.
    """
    horizons = np.asarray(horizons, dtype=float).ravel()
    if not np.all(np.isfinite(horizons) & (horizons > 0)):
        raise ValueError("averaging horizons must be positive and finite")
    scale = 1.0 / lattice.d
    return _class_pair_sum([(t, scale * t.pair_omega, t.pair_rows([0]))
                            for t in map(class_table, lattice.dims)], horizons)


def simpson_intervals(length: float, dt: float) -> int:
    """Fewest intervals for composite Simpson over `length`: even, >= 2, each <= dt.

    A count that is not finite or reaches 2**52 is refused: a halving sweep
    doubles it, and spectral._split_time needs node indices below 2**53.
    """
    ratio = float(length) / float(dt)   # an overflow is inf, with no numpy warning
    if not ratio <= 2.0**52 - 2:         # the even count of a larger ratio reaches 2**52
        raise ValueError(f"Simpson rule over {length:.6g} at step {dt:.6g} needs {ratio:.6g} "
                         f"intervals, past the grid limit 2**52")
    intervals = max(2, math.ceil(ratio))
    return intervals + intervals % 2


def simpson_weights(lo: int, hi: int, count: int) -> np.ndarray:
    """Weights of nodes lo..hi-1 of the rule 1, 4, 2, ..., 2, 4, 1 on an odd `count` nodes."""
    weights = np.full(hi - lo, 2.0)
    weights[(lo + 1) % 2 :: 2] = 4.0
    if lo == 0:
        weights[0] = 1.0
    if hi == count:
        weights[-1] = 1.0
    return weights


def averaged_kernel_quadrature(lattice: LatticeSpec, T: float, dt: float) -> Kernel:
    """Time-averaged kernel by composite Simpson over instantaneous kernels.

    dt must not exceed 0.05: joint phase frequencies are bounded by 2 rad per
    unit time (each factor contributes at most scale * 2 = 2/d), so this keeps
    >= 60 nodes per period of the fastest term.  A chunk of nodes takes one
    cycle_amplitude_at call per factor; every node's column must sum to 1.
    """
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"averaging horizon must be positive, got {T}")
    if not (0 < dt <= MAX_QUADRATURE_DT):
        raise ResolutionError(f"dt must lie in (0, {MAX_QUADRATURE_DT}], got {dt}")
    lattice.check_dense()
    intervals = simpson_intervals(T, dt)
    h, step = T / intervals, max(1, _WEIGHT_BLOCK // lattice.size)
    col = np.zeros(lattice.size)
    for lo in range(0, intervals + 1, step):
        ts = h * np.arange(lo, min(lo + step, intervals + 1))
        probs = np.ones((ts.size, 1))
        for n in lattice.dims:
            factor = np.abs(cycle_amplitude_at(n, ts, 1.0 / lattice.d)) ** 2
            probs = (probs[:, :, None] * factor[:, None, :]).reshape(ts.size, -1)
        _check_stochastic(probs, 1e-9, f"instantaneous kernels at t = {ts[0]}..{ts[-1]}")
        col += simpson_weights(lo, lo + ts.size, intervals + 1) @ probs
    col *= h / (3.0 * T)
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
