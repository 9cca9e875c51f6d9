"""End-to-end mixing experiments combining kernels, distances and walks.

Four procedures:

* repeated_measurement_run: evolve for a uniformly random time in [0, T],
  measure, repeat.  Exact propagation works with the time-averaged kernel
  P_T and its powers; sampled propagation draws trajectories.
* coordinate_wise_run: evolve one coordinate at a time with its own cycle
  walk (full time scale) and measure that coordinate, sweeping rounds; the
  state stays an exact product of per-cycle distributions throughout, and
  each factor after s sweeps is the first column of kernel_power of its
  cycle's instantaneous kernel, so no n x n matrix is ever built.
* uniformity_case_check: quantify how far the d=2 averaged kernel sits from
  uniform, entry class by entry class, against the known deviation caps.
* return_probability_curves: time-averaged return probability of the quantum
  walk next to the running average of the lazy classical walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classical import lazy_curves
from .distances import (
    distance_to_uniform,
    pairwise_column_distance,
    rounds_to_threshold,
    tv_distance,
    uniform,
)
from .kernels import (
    averaged_kernel_analytic,
    averaged_return_probability,
    instantaneous_kernel,
    kernel_power,
)
from .oscsums import _check_coprime_dims, bound_row
from .spectral import LatticeSpec, _check_phase_time, _half_amplitudes, class_table

# Entries per (n//2 + 1, C) plane of _sample_repeated, which takes
# C = _SAMPLE_CHUNK // (n//2 + 1) trajectories at a time: its three planes
# (768 KiB) stay in cache whatever the cycle length.
_SAMPLE_CHUNK = 2**15


@dataclass
class ExperimentRecord:
    """Immutable-by-convention bundle of one experiment's inputs and outputs."""

    config: dict
    curves: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(self.verdicts.values())


def repeated_measurement_run(
    lattice: LatticeSpec,
    T: float,
    rounds: int,
    mode: str = "exact",
    trajectories: int = 100_000,
    seed: int = 0,
) -> ExperimentRecord:
    """Measure-evolve-measure walk for `rounds` rounds of horizon T.

    Exact mode composes the analytic averaged kernel with itself and
    reports, per round count k, the distance of the column to uniform, the
    pairwise column distance d(P_T^k) and the submultiplicative cap
    d(P_T)^k.  Sampled mode draws per-round evolution times uniformly from
    [0, T], samples each coordinate's step from its cycle kernel, and
    compares the empirical distribution with the exact column.
    """
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"horizon must be positive, got {T}")
    rounds = int(rounds)
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    if mode == "sampled" and trajectories < 1:
        raise ValueError(f"need at least one trajectory, got {trajectories}")
    config = {
        "dims": lattice.dims, "T": float(T), "rounds": rounds, "mode": mode,
    }
    record = ExperimentRecord(config=config)

    kernel = averaged_kernel_analytic(lattice, T)
    contraction = pairwise_column_distance(kernel)
    record.scalars["kernel_contraction"] = contraction

    if mode == "exact":
        ks = np.arange(1, rounds + 1)
        tvs, dps, caps = [], [], []
        for k in ks:
            powered = kernel_power(kernel, int(k))
            tvs.append(distance_to_uniform(powered))
            dps.append(pairwise_column_distance(powered))
            caps.append(contraction ** int(k))
        record.curves.update({
            "rounds": ks,
            "tv_to_uniform": np.array(tvs),
            "column_distance": np.array(dps),
            "submultiplicative_cap": np.array(caps),
        })
        record.scalars["final_tv"] = tvs[-1]
        record.verdicts["submultiplicative"] = bool(
            np.all(np.array(dps) <= np.array(caps) + 1e-9)
        )
    elif mode == "sampled":
        config.update({"trajectories": int(trajectories), "seed": int(seed)})
        empirical = _sample_repeated(lattice, T, rounds, int(trajectories), int(seed))
        exact_col = kernel_power(kernel, rounds).first_column
        gap = tv_distance(empirical, exact_col)
        tol = 3.0 * math.sqrt(lattice.size / trajectories)
        record.curves["empirical"] = empirical
        record.curves["exact"] = exact_col
        record.scalars.update({"tv_empirical_vs_exact": gap, "mc_tolerance": tol})
        record.verdicts["within_mc_error"] = bool(gap <= tol)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return record


def _sample_repeated(
    lattice: LatticeSpec, T: float, rounds: int, trajectories: int, seed: int
) -> np.ndarray:
    """Empirical distribution after `rounds` sampled measure-evolve rounds.

    Times and uniform draws are taken for all trajectories at once, so the
    random stream does not depend on _SAMPLE_CHUNK.  A chunk of
    C = _SAMPLE_CHUNK // (n//2 + 1) trajectories works offset-major:
    spectral._half_amplitudes gives the (n//2 + 1, C) planes of Re and Im
    at the offsets l <= n//2, and Re^2 + Im^2 are the step probabilities.
    The step is the count of offsets l < n - 1 whose running sum of
    probabilities, over the rows mirror[l], lies below the draw, so a total
    that rounds short of a draw still lands on offset n - 1.  The chunk
    buffers are taken once per round and coordinate.
    """
    scale = 1.0 / lattice.d
    _check_phase_time(T * scale)
    rng = np.random.default_rng(seed)
    positions = np.zeros((lattice.d, trajectories), dtype=np.int64)
    for _ in range(rounds):
        ts = rng.uniform(0.0, T, trajectories)
        # the joint step factorizes, so each coordinate is sampled on its own
        for axis, n in enumerate(lattice.dims):
            draws = rng.random(trajectories)
            table = class_table(n)
            width, rows = table.lambdas.size, table.mirror[: n - 1]
            chunk = min(max(1, _SAMPLE_CHUNK // width), trajectories)
            planes = np.empty(3 * width * chunk)
            sums, steps, flags = np.empty(chunk), np.empty(chunk, np.int64), np.empty(chunk, bool)
            for lo in range(0, trajectories, chunk):
                size = min(chunk, trajectories - lo)
                # a contiguous prefix, so the last, shorter chunk stays contiguous too
                work = planes[: 3 * width * size].reshape(3, width, size)
                theta = np.multiply.outer(table.lambdas, ts[lo : lo + size] * scale,
                                          out=work[0])
                re, im = _half_amplitudes(table, theta, work[1:])
                probs = np.multiply(re, re, out=re)
                probs += np.multiply(im, im, out=im)
                total, step, above = sums[:size], steps[:size], flags[:size]
                total.fill(0.0)
                step.fill(0)
                u = draws[lo : lo + size]
                for row in rows:
                    total += probs[row]
                    step += np.greater(u, total, out=above)
                positions[axis, lo : lo + size] += step
    # each coordinate has moved by at most rounds*(n - 1); wrap takes it mod n
    flat = np.ravel_multi_index(positions, lattice.dims, mode="wrap")
    counts = np.bincount(flat, minlength=lattice.size)
    return counts / trajectories


def spread_constant(n: int, t: float) -> float:
    """c such that at least 2/3 of the cycle kernel column sits at >= c/n.

    c is n times the ceil(2n/3)-th largest entry of the column of
    instantaneous_kernel(Z_n, t), whose scale 1/d is FULL; the recorded
    value, positive whenever the walk spreads.
    """
    return _spread(instantaneous_kernel(LatticeSpec((n,)), t).first_column)


def _spread(column: np.ndarray) -> float:
    """spread_constant of the cycle kernel whose first column is `column`."""
    n = column.size
    return float(n * np.sort(column)[::-1][math.ceil(2 * n / 3) - 1])


def coordinate_wise_run(
    lattice: LatticeSpec,
    epsilon: float = 0.1,
    times: list[float] | None = None,
    rounds: int | None = None,
) -> ExperimentRecord:
    """Exact propagation of the coordinate-at-a-time measured walk.

    Every coordinate k holds a distribution on its own cycle; one sweep pushes
    each through the cycle measurement kernel Q_k(t_k), the instantaneous
    kernel of Z_{n_k} at t_k, so after s sweeps the factor is the first
    column of kernel_power(Q_k, s).  With rounds=None each coordinate runs
    rounds_to_threshold(d(Q_k)) sweeps, the count that drives its column
    distance below 1/(2e); a given rounds must be >= 0, and a factor holds
    still once its own count is reached.  Evolution times default to n_k/3;
    times outside [n_k/3, n_k/2] are flagged in the record's warnings, not
    rejected, since the interval is sufficient rather than necessary.
    """
    lattice.check_dense()
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if rounds is not None and rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if times is None:
        times = [n / 3.0 for n in lattice.dims]
    times = [float(t) for t in times]
    if len(times) != lattice.d:
        raise ValueError(f"{len(times)} times for {lattice.d} coordinates")

    record = ExperimentRecord(
        config={"dims": lattice.dims, "epsilon": epsilon, "times": tuple(times),
                "rounds": rounds},
    )

    cycles, alphas, constants = [], [], []
    for n, t in zip(lattice.dims, times):
        if not (n / 3.0 <= t <= n / 2.0):
            record.warnings.append(
                f"evolution time {t} outside [{n / 3.0:.6g}, {n / 2.0:.6g}] on Z_{n}"
            )
        cycle = instantaneous_kernel(LatticeSpec((n,)), t)
        cycles.append(cycle)
        alphas.append(pairwise_column_distance(cycle))
        constants.append(_spread(cycle.first_column))

    per_coord_rounds = (
        [rounds_to_threshold(a) for a in alphas]
        if rounds is None
        else [int(rounds)] * lattice.d
    )

    factor_tv = np.empty((max(per_coord_rounds) + 1, lattice.d))
    joint = np.ones(())
    for axis, (cycle, r) in enumerate(zip(cycles, per_coord_rounds)):
        for sweep in range(r + 1):
            powered = kernel_power(cycle, sweep)
            factor_tv[sweep, axis] = distance_to_uniform(powered)
        factor_tv[r + 1:, axis] = factor_tv[r, axis]
        joint = np.multiply.outer(joint, powered.first_column)
    joint_tv = tv_distance(joint.ravel(), uniform(lattice.size))

    record.curves["factor_tv"] = factor_tv
    record.scalars.update({
        "joint_tv": joint_tv,
        "contractions": tuple(alphas),
        "rounds_used": tuple(per_coord_rounds),
        "spread_constants": tuple(constants),
    })
    record.verdicts["joint_within_epsilon"] = bool(joint_tv <= epsilon)
    record.verdicts["contractions_below_one"] = bool(max(alphas) < 1.0)
    return record


def deviation_time(n1: int, n2: int) -> float:
    """The averaging horizon 1600*(n1+n2)*log(n1)^2 used by the case check."""
    return 1600.0 * (n1 + n2) * math.log(n1) ** 2


def uniformity_case_check(
    n1: int,
    n2: int,
    T: float | None = None,
    strict: bool | None = None,
    checkpoint: str | None = None,
) -> list[dict]:
    """Deviation of the d=2 averaged kernel from uniform, entry class by class.

    Entries of the first column split by which coordinates of the offset
    vanish; each class has its own cap on the (scaled) deviation from
    1/(n1*n2), and the classes combine into a full-column l1 cap and a
    pairwise-column-distance cap of 1/(2e).  Strict mode (default when
    n2 > 91) insists on the hypotheses n1 > n2 > 91, both odd and coprime;
    relaxed mode evaluates smaller pairs and reports values without any claim
    that the caps should hold.  Each case is one bound_row.
    """
    n1, n2 = _check_coprime_dims((n1, n2))
    if strict is None:
        strict = n2 > 91
    if strict and n2 <= 91:
        raise ValueError(f"strict mode needs n2 > 91, got n2 = {n2}")
    if T is None:
        T = deviation_time(n1, n2)

    kernel = averaged_kernel_analytic(LatticeSpec((n1, n2)), T, checkpoint=checkpoint)
    grid = kernel.grid
    u = 1.0 / (n1 * n2)
    gaps = np.abs(grid - u)

    mode = "strict" if strict else "relaxed"
    base = {"n1": n1, "n2": n2, "T": float(T), "mode": mode}
    cases = (
        ("origin", gaps[0, 0], 4.0 / n2**2),
        ("axis2", n2 * gaps[0, 1:].max(), 3.0 / n2),
        ("axis1", n1 * gaps[1:, 0].max(), 3.0 / n2),
        ("interior", n1 * n2 * gaps[1:, 1:].max(), 3.0 / n2 + 2.0 / 50.0),
        ("column_l1", gaps.sum(), 13.0 / n2 + 2.0 / 50.0),
        ("column_distance", pairwise_column_distance(kernel), 1.0 / (2.0 * math.e)),
    )
    return [bound_row({**base, "case": case}, lhs, rhs) for case, lhs, rhs in cases]


def return_probability_curves(
    n1: int, n2: int, t_max: int | None = None
) -> ExperimentRecord:
    """Quantum vs classical time-averaged return probability from one vertex.

    Quantum curve: diagonal entry of the averaged kernel P_T at integer
    horizons T.  Classical curve: running average over steps 0..T of the lazy
    walk's return probability.  Both start at 1; the uniform level is
    1/(n1*n2).  The record also carries the classical tv to uniform at
    n1^2 + n2^2 steps, the square-time mark, and both curves' gaps to uniform
    at the mark n1 + n2, which are None when the mark lies past t_max.
    """
    lattice = LatticeSpec((n1, n2))
    square_time = n1 * n1 + n2 * n2
    if t_max is None:
        t_max = square_time
    t_max = int(t_max)

    quantum = np.empty(t_max + 1)
    quantum[0] = 1.0
    quantum[1:] = averaged_return_probability(lattice, np.arange(1, t_max + 1))

    tvs, returns = lazy_curves(lattice, max(t_max, square_time))
    classical = np.cumsum(returns[: t_max + 1]) / np.arange(1, t_max + 2)

    mark = n1 + n2
    u = 1.0 / (n1 * n2)

    record = ExperimentRecord(
        config={"dims": (n1, n2), "t_max": t_max},
        curves={
            "T": np.arange(t_max + 1),
            "quantum_return": quantum,
            "classical_return": classical,
        },
        scalars={
            "uniform_level": u,
            "mark_time": mark,
            "square_time": square_time,
            "quantum_gap_at_mark": abs(quantum[mark] - u) if mark <= t_max else None,
            "classical_gap_at_mark": abs(classical[mark] - u) if mark <= t_max else None,
            "classical_tv_at_square_time": float(tvs[square_time]),
        },
    )
    if mark <= t_max:
        record.verdicts["quantum_near_uniform_at_mark"] = bool(
            abs(quantum[mark] - u) <= 0.1 * (1.0 - u)
        )
        record.verdicts["quantum_closer_than_classical_at_mark"] = bool(
            abs(quantum[mark] - u) < abs(classical[mark] - u)
        )
    record.verdicts["classical_mixed_at_square_time"] = bool(tvs[square_time] <= 0.1)
    return record
