"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Criterion 8 is the desk-scale uniformity check on the (95, 93)
lattice; it is the heaviest item here (seconds on this implementation, since
the averaged kernel is built per frequency block with BLAS contractions).
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from latticemix.classical import coupling_simulation, lazy_curves, lazy_mixing_bound
from latticemix.cli import main as cli_main
from latticemix.experiments import (
    coordinate_wise_run,
    repeated_measurement_run,
    return_probability_curves,
    spread_constant,
    uniformity_case_check,
)
from latticemix.kernels import (
    averaged_kernel_analytic,
    averaged_kernel_quadrature,
    instantaneous_kernel,
)
from latticemix.oscsums import (
    bound_sweep,
    integrated_osc_bound,
    integrated_osc_sum,
    sample_coprime_odd_pairs,
)
from latticemix.spectral import FULL, LatticeSpec, cycle_amplitude, product_amplitude

from oracles import expm_amplitude_column, full_matrix


def report(number: int, passed: bool, detail: str, elapsed: float) -> None:
    flag = "PASS" if passed else "FAIL"
    print(f"[{flag}] criterion {number:2d} ({elapsed:6.2f}s): {detail}",
          file=sys.stderr, flush=True)
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_unitarity_and_stochasticity():
    start = time.perf_counter()
    worst_norm = 0.0
    worst_sum = 0.0
    for n in (3, 5, 19, 101):
        lattice = LatticeSpec((n,))
        for t in (0.0, 1.0, n / 3.0, 17.3):
            amp = cycle_amplitude(n, 0, t, FULL)
            worst_norm = max(worst_norm, abs((np.abs(amp) ** 2).sum() - 1.0))
            kernel = instantaneous_kernel(lattice, t)
            matrix = full_matrix(kernel)
            worst_sum = max(
                worst_sum,
                float(np.abs(matrix.sum(axis=0) - 1.0).max()),
                float(np.abs(matrix.sum(axis=1) - 1.0).max()),
            )
    elapsed = time.perf_counter() - start
    report(
        1,
        worst_norm <= 1e-10 and worst_sum <= 1e-9 and elapsed < 5.0,
        f"max |norm-1| = {worst_norm:.2e}, max stochasticity defect = {worst_sum:.2e}",
        elapsed,
    )


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    lattice = LatticeSpec((19, 5))
    worst_kernel = 0.0
    for T in (1.0, 24.0, 100.0):
        analytic = averaged_kernel_analytic(lattice, T).first_column
        quad = averaged_kernel_quadrature(lattice, T, 0.02).first_column
        worst_kernel = max(worst_kernel, float(np.abs(analytic - quad).max()))

    worst_amp = 0.0
    for dims, t in (((45,), 7.0), ((9, 5), 3.3), ((3, 5), 2.0), ((19,), 19 / 3)):
        small = LatticeSpec(dims)
        amp = product_amplitude(small, (0,) * small.d, t).ravel()
        oracle = expm_amplitude_column(small, 0, t)
        worst_amp = max(worst_amp, float(np.abs(amp - oracle).max()))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst_kernel <= 1e-6 and worst_amp <= 1e-9 and elapsed < 30.0,
        f"analytic vs quadrature = {worst_kernel:.2e}, "
        f"amplitudes vs expm = {worst_amp:.2e}",
        elapsed,
    )


def test_criterion_03_return_probability_comparison():
    start = time.perf_counter()
    record = return_probability_curves(19, 5)
    u = record.scalars["uniform_level"]
    quantum_gap = record.scalars["quantum_gap_at_mark"]
    classical_gap = record.scalars["classical_gap_at_mark"]
    classical_tv = record.scalars["classical_tv_at_square_time"]
    ok = (
        quantum_gap <= 0.1 * (1.0 - u)
        and classical_gap > quantum_gap
        and classical_tv <= 0.1
    )
    elapsed = time.perf_counter() - start
    report(
        3,
        ok and elapsed < 10.0,
        f"quantum gap at T=24 is {quantum_gap:.4f} (cap {0.1 * (1 - u):.4f}), "
        f"classical gap {classical_gap:.4f}, classical tv at t=386 is "
        f"{classical_tv:.4f}",
        elapsed,
    )


def test_criterion_04_integrated_sum_bound_grid():
    start = time.perf_counter()
    violations = 0
    checked = 0
    for n in range(5, 102, 2):
        cap = integrated_osc_bound(n)
        for l in (0, 1, n // 2):
            for T in (10.0, 100.0, 1000.0, 10000.0):
                checked += 1
                if abs(integrated_osc_sum(n, l, T)) > cap:
                    violations += 1
    elapsed = time.perf_counter() - start
    report(
        4,
        violations == 0 and elapsed < 60.0,
        f"{checked} grid points, {violations} violations",
        elapsed,
    )


def test_criterion_05_product_bound_sweep():
    start = time.perf_counter()
    pairs = sample_coprime_odd_pairs(10, 100, 50, seed=3)
    assert len(pairs) == 50
    assert all(10 <= n2 < n1 <= 100 for n1, n2 in pairs)
    reports = bound_sweep(
        pairs, [10.0, 100.0, 1000.0, 10000.0], dt=0.02, check_halving=True
    )
    unsatisfied = [r for r in reports if not r["satisfied"]]
    worst_halving = max(r["halving_rel"] for r in reports)
    worst_ratio = max(r["lhs"] / r["rhs"] for r in reports)
    elapsed = time.perf_counter() - start
    report(
        5,
        not unsatisfied and worst_halving <= 1e-5 and elapsed < 600.0,
        f"{len(pairs)} pairs x 4 horizons, worst lhs/rhs = {worst_ratio:.4f}, "
        f"worst step-halving gap = {worst_halving:.2e}",
        elapsed,
    )


def test_criterion_06_classical_certificates():
    start = time.perf_counter()
    tv_ok = True
    details = []
    for dims in ((9, 5), (7, 7)):
        lattice = LatticeSpec(dims)
        for epsilon in (0.25, 0.1):
            bound = lazy_mixing_bound(lattice, epsilon)
            tvs, _ = lazy_curves(lattice, bound)
            tv_ok = tv_ok and tvs[bound] <= epsilon
            details.append(f"{dims}@{bound}: tv={tvs[bound]:.2e}<=eps={epsilon}")
    coupling = coupling_simulation(LatticeSpec((19, 5)), 10_000, seed=1)
    coupling_ok = bool(coupling.within_bound.all())
    elapsed = time.perf_counter() - start
    report(
        6,
        tv_ok and coupling_ok and elapsed < 60.0,
        "; ".join(details)
        + f"; coupling means {np.round(coupling.mean_tau, 2).tolist()} vs bounds "
        f"{coupling.bound.tolist()} (3 SE slack)",
        elapsed,
    )


def test_criterion_07_coordinate_wise_mixing():
    start = time.perf_counter()
    record = coordinate_wise_run(LatticeSpec((19, 5)), epsilon=0.1)
    joint_ok = record.verdicts["joint_within_epsilon"]
    alphas_ok = record.verdicts["contractions_below_one"]

    min_constant = math.inf
    for n in range(5, 102, 2):
        c = spread_constant(n, n / 3.0)
        min_constant = min(min_constant, c)
    elapsed = time.perf_counter() - start
    report(
        7,
        joint_ok and alphas_ok and min_constant > 0.0 and elapsed < 60.0,
        f"joint tv = {record.scalars['joint_tv']:.4f} within "
        f"{record.scalars['rounds_used']} rounds (contractions "
        f"{tuple(round(a, 3) for a in record.scalars['contractions'])}); "
        f"min spread constant over odd n in [5,101] = {min_constant:.4f}",
        elapsed,
    )


def test_criterion_08_uniformity_desk_check():
    start = time.perf_counter()
    reports = uniformity_case_check(95, 93)
    by_case = {r["case"]: r for r in reports}
    ok = all(r["satisfied"] for r in reports)
    elapsed = time.perf_counter() - start
    detail = ", ".join(
        f"{case}: {by_case[case]['lhs']:.3e}<={by_case[case]['rhs']:.3e}"
        for case in ("origin", "axis2", "axis1", "interior", "column_l1",
                     "column_distance")
    )
    report(8, ok and elapsed < 1800.0, detail, elapsed)


def test_criterion_09_repeated_measurement_contraction():
    start = time.perf_counter()
    lattice = LatticeSpec((19, 5))
    record = repeated_measurement_run(lattice, 24.0, rounds=4)
    dps = record.curves["column_distance"]
    caps = record.curves["submultiplicative_cap"]
    submult_ok = bool(np.all(dps[1:] <= caps[1:] + 1e-9))

    contraction = record.scalars["kernel_contraction"]
    epsilon = 1e-3
    rounds = math.ceil(math.log(1.0 / epsilon) / math.log(1.0 / contraction))
    final = repeated_measurement_run(lattice, 24.0, rounds=rounds)
    tv_ok = final.curves["tv_to_uniform"][-1] <= epsilon
    elapsed = time.perf_counter() - start
    report(
        9,
        submult_ok and tv_ok and elapsed < 10.0,
        f"d(P_T) = {contraction:.4f}; d(P^k)<=d(P)^k for k in 2..4; "
        f"tv after {rounds} rounds = {final.curves['tv_to_uniform'][-1]:.2e} "
        f"<= {epsilon}",
        elapsed,
    )


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    jobs = [
        ("spectrum", "--dims", "5,3", "--out", "spectrum.csv"),
        ("kernel", "--dims", "19,5", "--kind", "averaged", "--T", "24",
         "--out", "kernel.csv"),
        ("mix-classical", "--dims", "9,5", "--epsilon", "0.25", "--t-max", "40",
         "--out", "classical.csv"),
        ("mix-coordinate", "--dims", "19,5", "--out", "coordinate.json"),
        ("mix-repeated", "--dims", "19,5", "--T", "24", "--rounds", "3",
         "--out", "repeated.csv"),
        ("mix-repeated", "--dims", "7,5", "--T", "9", "--rounds", "2", "--mode",
         "sampled", "--trajectories", "2000", "--seed", "11", "--out", "sampled.json"),
        ("lemma2", "--n", "19", "--T", "100", "--offset", "0", "--out", "lemma2.json"),
        ("conjecture", "--range", "10,60", "--pairs", "2", "--seed", "3",
         "--T-max", "100", "--out", "conjecture.csv"),
        ("theorem3", "--n1", "19", "--n2", "5", "--relaxed", "--tier", "slow",
         "--out", "theorem3.json"),
        ("fig1", "--dims", "19,5", "--t-max", "30", "--out", "fig1.csv"),
        ("fig1", "--dims", "19,5", "--t-max", "30", "--format", "svg",
         "--out", "fig1.svg"),
    ]
    identical = True
    for job in jobs:
        argv = list(job)
        out = str(tmp_path / argv[argv.index("--out") + 1])
        argv[argv.index("--out") + 1] = out
        code_first = cli_main(argv)
        with open(out, "rb") as fh:
            first = fh.read()
        with open(out + ".manifest.json", "rb") as fh:
            first_manifest = fh.read()
        code_second = cli_main(argv)
        with open(out, "rb") as fh:
            second = fh.read()
        with open(out + ".manifest.json", "rb") as fh:
            second_manifest = fh.read()
        identical = identical and first == second and code_first == code_second
        identical = identical and first_manifest == second_manifest
    elapsed = time.perf_counter() - start
    report(
        10,
        identical,
        f"{len(jobs)} CLI jobs rerun byte-identically (artifacts and manifests)",
        elapsed,
    )
