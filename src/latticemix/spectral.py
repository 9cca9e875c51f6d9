"""Closed-form spectral data and walk amplitudes for cycles and product lattices.

The cycle Z_n has normalized adjacency Abar = (W + W^(n-1))/2 with W the cyclic
shift.  Its eigenvalues are lambda_j = cos(2*pi*j/n) with Fourier eigenvectors,
so the walk operator exp(i*Abar*t*scale) acts in closed form:

    <q| exp(i*Abar*t*s) |p> = (1/n) * sum_j exp(i*t*s*lambda_j) * w^((q-p)*j),

with w = exp(2*pi*i/n).  On a product lattice Z_{n_1} x ... x Z_{n_d} the
normalized adjacency is the average (1/d) * sum_k H_k of the per-coordinate
generators, and the propagator factorizes into per-cycle amplitudes with time
scale 1/d each.

Every amplitude route runs on the folded form of that sum.  Since
lambda_j = lambda_{n-j}, the indices fall into n//2 + 1 mirror classes
a = min(j, n-j), and w^(l*j) + w^(-l*j) = 2*cos(2*pi*l*j/n), so

    <l| exp(i*Abar*t*s) |0> = sum_{a <= n/2} (c_a(l)/n) * exp(i*t*s*lambda_a),

with the real coefficients c_a(l) = mult_a * cos(2*pi*l*a/n), where mult_a is
1 for a = 0 (and for a = n/2 when n is even) and 2 otherwise.  class_table(n)
is the one spectral table per cycle; the kernels, the oscillatory sums, the
sampler and the spectral gap all read it.  It holds lambda_a from the start
and builds the rest on first use: the cosines c_a(l), and for squared
amplitudes the class pairs (a, b) with their unscaled frequency
lambda_a - lambda_b and real coefficient c_a(l)*c_b(l)/n^2.  Since
c_a(l) = c_a(n - l), every table keeps the offsets l <= n//2 only, and
`mirror` maps every offset to its row there, so the offsets l and n - l read
the same row.  Callers scale the pair frequencies by their own time scale;
the averaged kernels and the exact oscillatory sums are contractions of the
pair data.  A table over MAX_PARTIAL_ENTRIES doubles is refused.

The walk's spectrum on the product lattice is the set of averages
(1/d) * sum_k lambda_{a_k}, so its gap below the top eigenvalue 1 is the
smallest per-cycle gap 1 - lambda_1 over d, read from the eigenvalues alone.

cycle_amplitude_at evaluates the sum at every offset and any times.  It
takes its phases from unit_phases, a table-driven cos/sin (Cody-Waite
reduction modulo 2*pi/4096, a 4096-entry table, short Taylor corrections)
that costs a fraction of numpy's complex exp; its half-amplitude product
(cosines @ cos(theta), cosines @ sin(theta))/n over the rows l <= n//2 also
serves the sampler directly.

_CentredGrid, the one uniform-grid evaluator, serves only the Simpson curve
(oscsums.product_integral_curve, which checks the grid's limits).  It
evaluates the squared amplitude at one offset on a long uniform grid
t0 + h*k, in centred blocks of 2m + 1 nodes t_b + r*h, |r| <= m.  With the
anchors A_a = c_a(l)/n * exp(i*f_a*t_b), f_a = scale*lambda_a, the
amplitude there is P + i*Q and P - i*Q for

    P = sum_a A_a*cos(f_a*r*h),   Q = sum_a A_a*sin(f_a*r*h),   r >= 0,

so both halves of a block come from two real products of the stacked
[Re A; Im A] with the real tables cos(f_a*r*h) and sin(f_a*r*h), half the
multiply-adds of a complex product over every node, and no complex array of
nodes is formed.  One fill evaluates one group of at most 32 whole blocks
and takes one exponential at its first node; the block anchors are that
times a per-step table, so no phase error accumulates.  Both phases are
taken exactly by _exact_phases, the one exact-phase routine, which the separable class-pair weights of the kernels
call too: the time t0 + h*k is split into a 26-bit part and a small rest
(Dekker's product, Knuth's sum) and the frequency likewise, so f*t is a sum
of an exact product and a small term, and the anchors do not carry the
rounding of a long time (about 1e-13 rad at t = 1000) into the nodes.  The
tables belong to one cycle, offset, step and scale, so a caller that walks
one grid in chunks builds them once.  cycle_amplitude_grid is only a name
kept for the benchmark's tracer.

A scaled time |scale*t| >= 2**52 is refused by every route: there one ulp
of the phase is a radian or more.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeError

# Time-scale conventions for exp(i*Abar*t*scale).  A d-factor joint walk puts
# scale 1/d on each factor; HALF is the d=2 case.
FULL = 1.0
HALF = 0.5

# Largest vertex count for which dense first columns are built.
MAX_DENSE_VERTICES = 1_000_000

# Largest table or partial-sum array built in one piece, in doubles (2 GiB).
MAX_PARTIAL_ENTRIES = 2**28

# Entries per row block of ClassTable.cosines, so that building the table
# needs the table itself plus temporaries of one block.
_COSINE_BLOCK = 2**16

# Half-width m of a centred block of _CentredGrid: the block is
# the 2m + 1 nodes t_b + r*h, |r| <= m, and its tables have m + 1 columns.
_GRID_HALF = 128
_GRID_BLOCK = 2 * _GRID_HALF + 1

# Blocks per group of _CentredGrid, the most one fill evaluates.  A group takes
# one exact exponential; its block anchors are that times a per-step table entry.
_GRID_GROUP = 32

# Nodes of one whole group of blocks: 8224, even.
_GRID_GROUP_NODES = _GRID_GROUP * _GRID_BLOCK

# Largest |scale*t| taken by the arbitrary-time routes: from 2**52 on, one ulp
# of the phase lambda*scale*t is 1 rad or more, so the phase carries nothing.
MAX_PHASE_TIME = 2.0**52

# unit_phases reduces theta = k*h + y with h = 2*pi/_PHASE_STEPS.  h is split
# Cody-Waite style: _PHASE_HI is float32(2*pi) (24 significant bits) times
# 2**-12, so k*_PHASE_HI is exact while |k| < 2**29; _PHASE_LO is the rest of
# 2*pi, with pi - fl(pi) = 1.2246467991473532e-16 added back, times 2**-12.
_PHASE_STEPS = 4096
_PHASE_HI = float(np.float32(2.0 * math.pi)) / _PHASE_STEPS
_PHASE_LO = ((2.0 * math.pi - float(np.float32(2.0 * math.pi)))
             + 2.0 * 1.2246467991473532e-16) / _PHASE_STEPS
_PHASE_COS = np.cos(2.0 * np.pi * np.arange(_PHASE_STEPS) / _PHASE_STEPS)
_PHASE_SIN = np.sin(2.0 * np.pi * np.arange(_PHASE_STEPS) / _PHASE_STEPS)

# From |theta| = 2**40 on, theta/h and k*h round by a visible fraction of a
# table step, and past 2**45 by whole steps, which would take y out of the
# Taylor range; unit_phases then reduces y a second time.
_PHASE_REFINE = 2.0**40

# Entries per block of unit_phases: the block's six rows (four of scratch,
# cos and sin; 768 KiB) stay in cache, and its thirty-odd ufunc calls stay
# small against the arithmetic.
_PHASE_BLOCK = 2**14


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic lattice Z_{n_1} x ... x Z_{n_d} given by its cycle lengths."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) == 0:
            raise ValueError("lattice needs at least one cycle")
        if any(n < 2 for n in dims):
            raise ValueError(f"every cycle length must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)
        n_total = math.prod(dims)
        if n_total > 2**53:
            raise SizeError(f"vertex count {n_total} exceeds machine range")

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        """Total vertex count N = prod(dims)."""
        return math.prod(self.dims)

    def check_dense(self) -> None:
        if self.size > MAX_DENSE_VERTICES:
            raise SizeError(
                f"N = {self.size} exceeds dense limit {MAX_DENSE_VERTICES}"
            )


@dataclass(frozen=True)
class ClassTable:
    """Mirror classes a = 0..n//2 of the cycle Z_n.

    lambdas[a] is the class eigenvalue lambda_a = cos(2*pi*a/n), built
    eagerly; the tables below are built on first use, so a long cycle that
    needs only its eigenvalues (its spectrum and gap) never allocates the
    O(n^2) ones.
    """

    n: int
    lambdas: np.ndarray

    @functools.cached_property
    def cosines(self) -> np.ndarray:
        """c_a(l) = mult_a*cos(2*pi*l*a/n) at [l, a] for l <= n//2, shape (n//2 + 1, n//2 + 1).

        Offset l reads row mirror[l].  Built in row blocks of about
        _COSINE_BLOCK entries, each with the same per-entry formula, so the
        peak is the table plus one block.
        """
        n, width = self.n, self.lambdas.size
        _check_entries(width * width, f"cosines c_a(l) of Z_{n}")
        classes = np.arange(width)
        mult = np.where((classes == 0) | (2 * classes == n), 1.0, 2.0)
        out = np.empty((width, width))
        step = max(1, _COSINE_BLOCK // width)
        for lo in range(0, width, step):
            rows = np.arange(lo, min(lo + step, width))
            # l*a is reduced mod n first, so the cosine argument stays below 2*pi
            angles = 2.0 * np.pi * (np.outer(rows, classes) % n) / n
            out[lo : lo + rows.size] = mult * np.cos(angles)
        return _frozen(out)

    @functools.cached_property
    def mirror(self) -> np.ndarray:
        """min(j, n - j) for j < n: the class of index j, and the table row of offset j."""
        offsets = np.arange(self.n)
        return _frozen(np.minimum(offsets, self.n - offsets))

    @functools.cached_property
    def pair_omega(self) -> np.ndarray:
        """lambda_a - lambda_b over the class pairs (a, b), flattened row-major."""
        return _frozen(np.subtract.outer(self.lambdas, self.lambdas).ravel())

    @functools.cached_property
    def pair_coeff(self) -> np.ndarray:
        """c_a(l)*c_b(l)/n^2 at [l, (a, b)] for l <= n//2, the pairs flattened row-major."""
        return _frozen(self.pair_rows(slice(None)))

    def pair_rows(self, offsets) -> np.ndarray:
        """Rows `offsets` (a list or a slice) of the class-pair coefficients, l <= n//2."""
        c = self.cosines[offsets]
        _check_entries(c.shape[0] * c.shape[1] ** 2, f"class-pair coefficients of Z_{self.n}")
        return (c[:, :, None] * c[:, None, :]).reshape(c.shape[0], -1) / float(self.n) ** 2


def _check_entries(entries: int, what: str) -> None:
    """Refuse with SizeError, before allocating, an array over MAX_PARTIAL_ENTRIES doubles."""
    if entries > MAX_PARTIAL_ENTRIES:
        raise SizeError(
            f"{what} need {entries} doubles ({entries * 8 / 2**30:.1f} GiB), over the cap of "
            f"{MAX_PARTIAL_ENTRIES} ({MAX_PARTIAL_ENTRIES * 8 / 2**30:.0f} GiB)"
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _check_cycle(n: int) -> int:
    n = int(n)
    if n < 2:
        raise ValueError(f"cycle length must be >= 2, got {n}")
    return n


@functools.lru_cache(maxsize=64)
def class_table(n: int) -> ClassTable:
    """Folded spectral table of Z_n, shared by every spectral route.

    lambda_j = lambda_{n-j} holds bitwise, since the unfolded eigenvalue of
    index j is read as lambdas[min(j, n-j)]; frequency differences that
    vanish identically then vanish exactly in floating point too.
    """
    n = _check_cycle(n)
    return ClassTable(n=n, lambdas=_frozen(np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)))


def cycle_amplitude(n: int, source: int, t: float, scale: float = FULL) -> np.ndarray:
    """Amplitude column <q|exp(i*Abar*t*scale)|source> on Z_n, indexed by q.

    Returns a read-only complex array.  The vector for source 0 is
    cycle_amplitude_at at the one time t, rolled, so translation invariance
    holds exactly (identical arithmetic path for every source).
    """
    base = cycle_amplitude_at(n, t, scale)
    return _frozen(np.roll(base, int(source) % n))


def cycle_amplitude_at(n: int, ts, scale: float) -> np.ndarray:
    """Amplitudes <l|exp(i*Abar*t*scale)|0> at every offset l < n, shape ts.shape + (n,).

    One half-amplitude product for all the times fills the offsets
    l <= n//2, and offset l > n//2 copies row n - l, so the amplitudes are
    bitwise even in l.
    """
    n = _check_cycle(n)
    ts = np.asarray(ts, dtype=float)
    if not np.isfinite(ts).all():
        raise ValueError(f"time must be finite, got {ts[~np.isfinite(ts)].flat[0]}")
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    scaled = ts.ravel() * float(scale)
    table = class_table(n)
    # lambda_0 = 1, so unit_phases refuses |scale*t| >= MAX_PHASE_TIME
    theta = np.multiply.outer(table.lambdas, scaled)
    re, im = _half_amplitudes(table, theta, np.empty((2,) + theta.shape))
    half = table.lambdas.size
    amps = np.empty((n, scaled.size), dtype=complex)
    amps.real[:half] = re
    amps.imag[:half] = im
    amps[half:] = amps[n - half:0:-1]
    return amps.T.reshape(ts.shape + (n,))


def _check_phase_time(scaled_time: float) -> None:
    """Refuse a largest |scale*t| of MAX_PHASE_TIME or more with a one-line ValueError."""
    if scaled_time >= MAX_PHASE_TIME:
        raise ValueError(
            f"phase time scale*t = {scaled_time:.6g} is past the phase limit 2**52 = "
            f"{MAX_PHASE_TIME:.6g}, where one ulp of the phase is 1 rad or more"
        )


def _half_amplitudes(table: ClassTable, theta: np.ndarray, planes: np.ndarray):
    """Re and Im of <l|exp(i*Abar*t*scale)|0> at the offsets l <= n//2, from the phases.

    theta[a, k] = lambda_a*scale*t_k has shape (n//2 + 1, K); the result is
    (cosines @ cos(theta), cosines @ sin(theta)) / n, two real products with
    no complex copy of the table, scaled after the product.  `planes` is
    C-contiguous scratch of shape (2,) + theta.shape; Re is written over
    theta and Im over planes[0].
    """
    cos, sin = unit_phases(theta, out=(planes[0], planes[1]))
    re = np.matmul(table.cosines, cos, out=theta)
    im = np.matmul(table.cosines, sin, out=cos)
    re *= 1.0 / table.n
    im *= 1.0 / table.n
    return re, im


def unit_phases(theta, out=None) -> tuple[np.ndarray, np.ndarray]:
    """cos(theta) and sin(theta) of a float array, as two real arrays of its shape.

    Table-driven (Cody & Waite's reduction with Tang's table): theta =
    k*h + y with h = 2*pi/4096 and |y| <= h/2, and with (C, S) the cos and
    sin of j*h at j = k mod 4096, read from a table,

        cos(theta) = C + (C*(cos(y) - 1) - S*sin(y)),
        sin(theta) = S + (S*(cos(y) - 1) + C*sin(y)),

    with cos(y) - 1 and sin(y) from their Taylor series to degree 4 and 5
    (the first terms left out are below 3e-22).  The result is within a
    few units of 1e-16 of np.cos and np.sin, plus about half an ulp of theta
    once |theta| > 8e5, where k*h is no longer exact, and cos^2 + sin^2 = 1
    to rounding at every theta; theta = 0 gives exactly (1, 0).  A finite
    theta with |theta| >= MAX_PHASE_TIME is refused with ValueError.  `out`
    is an optional pair of C-contiguous float arrays of theta's shape that
    receive the result.
    """
    theta = np.asarray(theta, dtype=float)
    if out is None:
        out = (np.empty(theta.shape), np.empty(theta.shape))
    if any(a.shape != theta.shape or not a.flags.c_contiguous for a in out):
        raise ValueError("out must be two C-contiguous arrays of theta's shape")
    flat, cos, sin = theta.reshape(-1), out[0].reshape(-1), out[1].reshape(-1)
    largest = max(flat.max(), -flat.min()) if flat.size else 0.0
    _check_phase_time(largest)
    refine = largest >= _PHASE_REFINE
    width = min(_PHASE_BLOCK, flat.size)
    work = np.empty((4, width))
    for lo in range(0, flat.size, max(width, 1)):
        hi = min(lo + width, flat.size)
        y, z, u, j = work[:, : hi - lo]
        _unit_phase_block(flat[lo:hi], cos[lo:hi], sin[lo:hi], y, z, u, j.view(np.int64),
                          refine)
    return out


def _unit_phase_block(theta, c, s, y, z, u, j, refine: bool) -> None:
    """unit_phases of one block into c and s; y, z, u (float) and j (int64) are scratch."""
    _reduce_phase(theta, y, c, j)
    if refine:
        # y is off by up to a few hundred table steps: reduce it once more,
        # now exactly, and move its steps into the index
        steps = z.view(np.int64)
        _reduce_phase(y, u, c, steps)
        np.add(j, steps, out=j)
        y, u = u, y
    np.bitwise_and(j, _PHASE_STEPS - 1, out=j)      # table index k mod 4096
    # j is in range, so "clip" changes nothing and skips the bounds check
    _PHASE_COS.take(j, out=c, mode="clip")          # C
    _PHASE_SIN.take(j, out=s, mode="clip")          # S
    np.multiply(y, y, out=z)
    # sin(y) = y + y^3*(y^2/120 - 1/6), into y
    np.multiply(z, 1.0 / 120.0, out=u)
    np.subtract(u, 1.0 / 6.0, out=u)
    np.multiply(u, z, out=u)
    np.multiply(u, y, out=u)
    np.add(y, u, out=y)
    # cos(y) - 1 = y^2*(y^2/24 - 1/2), into z
    np.multiply(z, 1.0 / 24.0, out=u)
    np.subtract(u, 0.5, out=u)
    np.multiply(z, u, out=z)
    # the two brackets, with j's memory as the fourth float row
    f = j.view(np.float64)
    np.multiply(s, y, out=u)                        # S*sin(y)
    np.multiply(c, y, out=y)                        # C*sin(y)
    np.multiply(c, z, out=f)
    np.subtract(f, u, out=f)                        # C*(cos(y) - 1) - S*sin(y)
    np.multiply(s, z, out=z)
    np.add(z, y, out=z)                             # S*(cos(y) - 1) + C*sin(y)
    np.add(c, f, out=c)
    np.add(s, z, out=s)


def _reduce_phase(theta, y, k, steps) -> None:
    """y = theta - k*h with k = rint(theta/h), h = 2*pi/4096; k as int64 into steps.

    k is float scratch, and y must not be theta.
    """
    np.multiply(theta, _PHASE_STEPS / (2.0 * math.pi), out=k)
    np.rint(k, out=k)
    np.copyto(steps, k, casting="unsafe")
    np.subtract(theta, np.multiply(k, _PHASE_HI, out=y), out=y)    # exact while |k| < 2**29
    np.subtract(y, np.multiply(k, _PHASE_LO, out=k), out=y)


def cycle_amplitude_grid(
    n: int, offset: int, t0: float, h: float, count: int, scale: float
) -> np.ndarray:
    """Complex amplitude at one offset over the uniform time grid t0 + h*arange(count).

    No library code calls it; the name stays because the benchmark's tracer
    reports a work rate for it.
    """
    if int(count) < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return cycle_amplitude_at(n, t0 + h * np.arange(int(count)), scale)[:, int(offset) % n]


class _CentredGrid:
    """The Simpson curve's uniform grid: tables for one cycle, offset, step h and time scale.

    cos[a, r] and sin[a, r] hold cos(f_a*r*h) and sin(f_a*r*h) for r <= m,
    and steps[b, a] = exp(i*f_a*(b*(2m + 1) + m)*h), the phase of block b's
    centre from the start of its group, for b < _GRID_GROUP.  The step
    phases and the group anchors are taken exactly (_exact_phases), so
    neither carries the rounding of a long time into its exponential.  The
    scratch of the one group a fill evaluates is kept, so a fill allocates
    no node arrays; an instance serves one caller at a time.  It checks no
    input: its one builder, oscsums.product_integral_curve, checks the
    grid's limits.
    """

    def __init__(self, n: int, offset: int, h: float, scale: float):
        table = class_table(n)
        self.h = h
        self.freq = float(scale) * table.lambdas
        self.coeff = table.cosines[table.mirror[int(offset) % n]] / n
        half, width = _GRID_HALF, table.lambdas.size
        theta = np.multiply.outer(self.freq, h * np.arange(half + 1))
        self.cos, self.sin = np.cos(theta), np.sin(theta)
        centres = np.arange(_GRID_GROUP) * _GRID_BLOCK + half
        self.steps = _exact_phases(self.freq, 0.0, h, centres[:, None].astype(float))
        self._anchors = np.empty((_GRID_GROUP, width), dtype=complex)
        self._stacked = np.empty((2 * _GRID_GROUP, width))
        self._even = np.empty((2 * _GRID_GROUP, half + 1))
        self._odd = np.empty((2 * _GRID_GROUP, half + 1))
        self._re = np.empty((_GRID_GROUP, half + 1))
        self._im = np.empty((_GRID_GROUP, half + 1))

    def fill(self, t0: float, first: int, out: np.ndarray) -> np.ndarray:
        """The probabilities at t0 + h*(first + k), k < out.size, into out; returns out.

        out holds whole blocks of 2m + 1 nodes, at most _GRID_GROUP of them:
        one group, anchored at node `first` by one exact exponential.
        """
        half = _GRID_HALF
        blocks = out.size // _GRID_BLOCK
        anchor = _exact_phases(self.freq, t0, self.h, float(first))
        anchor *= self.coeff
        anchors = np.multiply(self.steps[:blocks], anchor, out=self._anchors[:blocks])
        stacked = self._stacked[: 2 * blocks]
        stacked[:blocks] = anchors.real
        stacked[blocks:] = anchors.imag
        # [Re P; Im P] and [Re Q; Im Q], r = 0..m; Q is 0 at r = 0
        even = np.matmul(stacked, self.cos, out=self._even[: 2 * blocks])
        odd = np.matmul(stacked, self.sin, out=self._odd[: 2 * blocks])
        nodes = out.reshape(blocks, _GRID_BLOCK)
        p_re, p_im, q_re, q_im = even[:blocks], even[blocks:], odd[:blocks], odd[blocks:]
        re, im = self._re[:blocks], self._im[:blocks]
        # node m + r: |P + i*Q|^2 = (Re P - Im Q)^2 + (Im P + Re Q)^2
        _squared_modulus(np.subtract(p_re, q_im, out=re), np.add(p_im, q_re, out=im),
                         nodes[:, half:])
        # node m - r: |P - i*Q|^2; r = 0 writes node m again, with the same value
        _squared_modulus(np.add(p_re, q_im, out=re), np.subtract(p_im, q_re, out=im),
                         nodes[:, half::-1])
        return out


# Veltkamp's splitting constant 2**27 + 1: x*_SPLIT - (x*_SPLIT - x) keeps the
# 26 leading significant bits of a double, and the rest is exact.
_SPLIT = 2.0**27 + 1.0


def _high_half(x):
    """x rounded to 26 significant bits; x - _high_half(x) is exact and of 26 bits too."""
    scaled = x * _SPLIT
    return scaled - (scaled - x)


def _exact_phases(freq, t0, h=0.0, k=0.0) -> np.ndarray:
    """exp(i*f*t) at t = t0 + h*k, broadcast against the frequencies f = `freq`.

    The one exact-phase routine: the time is split as c + d (_split_time)
    and f as f_hi + f_lo, with c and f_hi of 26 bits each, so f_hi*c is
    exact and f_lo*c + f*d, about 2**-25 of the phase, is rounded once.  So
    the phase f*t is held to about 2**-78 of itself, however long the time,
    and each exponential is of an exact argument.
    """
    c, d = _split_time(t0, h, k)
    freq_hi = _high_half(freq)
    small = c * (freq - freq_hi)
    small += d * freq
    phases = np.exp(1j * (c * freq_hi))
    phases *= np.exp(1j * small)
    return phases


def _split_time(t0, h, k):
    """(c, d) with c + d = t0 + h*k to about 2**-78 of it, and c of 26 significant bits.

    t0 and h are doubles and k a whole number below 2**53 as a double (or an
    array of them).  Dekker's exact product gives h*k as p + error and
    Knuth's exact sum gives t0 + p as s + error, so only the last rounding
    of d is lost.  The head c is split at 2**-28 of the sum and scaled
    back, which is exact and keeps it clear of the overflow of
    x*(2**27 + 1) from x = 1.34e300; with h = k = 0 both error terms are 0.
    """
    p = h * k
    h_hi, k_hi = _high_half(h), _high_half(k)
    h_lo, k_lo = h - h_hi, k - k_hi
    p_err = ((h_hi * k_hi - p) + h_hi * k_lo + h_lo * k_hi) + h_lo * k_lo
    s = t0 + p
    v = s - t0
    s_err = (t0 - (s - v)) + (p - v)
    c = _high_half(s * 2.0**-28) * 2.0**28
    return c, (s - c) + (s_err + p_err)


def _squared_modulus(re: np.ndarray, im: np.ndarray, out: np.ndarray) -> None:
    """re^2 + im^2 into out; re and im are squared in place."""
    np.multiply(re, re, out=re)
    np.multiply(im, im, out=im)
    np.add(re, im, out=out)


def product_amplitude(lattice: LatticeSpec, source: tuple[int, ...], t: float) -> np.ndarray:
    """Joint amplitude tensor <q|exp(i*Abar'*t)|source> on a product lattice.

    Abar' = (1/d) * sum_k H_k, so the propagator is the tensor product of
    per-cycle propagators each carrying time scale 1/d.  Returned array has
    shape `lattice.dims` and unit l2 norm.
    """
    lattice.check_dense()
    source = tuple(int(p) for p in source)
    if len(source) != lattice.d:
        raise ValueError(f"source {source} does not match dims {lattice.dims}")
    scale = 1.0 / lattice.d
    factors = [cycle_amplitude(n, p, t, scale) for n, p in zip(lattice.dims, source)]
    out = factors[0]
    for vec in factors[1:]:
        out = np.multiply.outer(out, vec)
    return out


def spectral_gap(lattice: LatticeSpec) -> float:
    """Gap 1 - max of the walk spectrum off the top joint eigenvalue.

    Joint eigenvalues are (1/d) * sum_k lambda_{a_k} over the class tuples.
    Each cycle's top class is lambda_0 = 1, so the largest one off
    (0, ..., 0) moves a single factor k to its largest lambda_a, a >= 1,
    and the gap is min_k (1 - max_{a >= 1} lambda_a) / d.  Only the class
    eigenvalues are read, so any lattice is served.
    """
    # every n >= 2 has a second class, so lambdas[1:] is never empty
    return float(min(1.0 - class_table(n).lambdas[1:].max() for n in lattice.dims) / lattice.d)
