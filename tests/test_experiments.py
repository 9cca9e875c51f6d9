import math
import tracemalloc

import numpy as np
import pytest

from latticemix import experiments
from latticemix.errors import SizeError
from latticemix.distances import (
    distance_to_uniform,
    pairwise_column_distance,
    tv_distance,
    uniform,
)
from latticemix.experiments import (
    coordinate_wise_run,
    deviation_time,
    repeated_measurement_run,
    return_probability_curves,
    spread_constant,
    uniformity_case_check,
)
from latticemix.kernels import (
    averaged_kernel_analytic,
    averaged_kernel_quadrature,
    kernel_power,
)
from latticemix.spectral import FULL, LatticeSpec, class_table, cycle_amplitude

from oracles import cumsum_sampler, stepped_lazy_curve


class TestRepeatedMeasurement:
    def test_vanishing_horizon_keeps_the_walker_home(self):
        record = repeated_measurement_run(LatticeSpec((5,)), 1e-9, rounds=1)
        assert abs(record.scalars["final_tv"] - 0.8) < 1e-4

    def test_submultiplicative_curve(self):
        record = repeated_measurement_run(LatticeSpec((19, 5)), 24.0, rounds=4)
        dps = record.curves["column_distance"]
        caps = record.curves["submultiplicative_cap"]
        assert record.verdicts["submultiplicative"]
        assert np.all(dps <= caps + 1e-9)
        assert np.all(np.diff(record.curves["tv_to_uniform"]) < 0)

    def test_round_count_from_measured_contraction(self):
        record = repeated_measurement_run(LatticeSpec((19, 5)), 24.0, rounds=1)
        contraction = record.scalars["kernel_contraction"]
        epsilon = 1e-3
        rounds = math.ceil(math.log(1.0 / epsilon) / math.log(1.0 / contraction))
        record = repeated_measurement_run(LatticeSpec((19, 5)), 24.0, rounds=rounds)
        assert record.curves["tv_to_uniform"][-1] <= epsilon

    def test_sampled_mode_agrees_with_exact(self):
        record = repeated_measurement_run(
            LatticeSpec((19, 5)), 24.0, rounds=2, mode="sampled",
            trajectories=20_000, seed=7,
        )
        assert record.verdicts["within_mc_error"]
        assert abs(record.curves["empirical"].sum() - 1.0) < 1e-12

    def test_sampled_mode_is_seed_deterministic(self):
        a = repeated_measurement_run(
            LatticeSpec((7, 5)), 9.0, rounds=2, mode="sampled",
            trajectories=2_000, seed=3,
        )
        b = repeated_measurement_run(
            LatticeSpec((7, 5)), 9.0, rounds=2, mode="sampled",
            trajectories=2_000, seed=3,
        )
        assert np.array_equal(a.curves["empirical"], b.curves["empirical"])

    def test_sampler_chunking_keeps_the_counts(self, monkeypatch):
        # times and draws are taken for all trajectories before chunking, so
        # the chunk size cannot move a single trajectory
        lattice = LatticeSpec((23, 5))
        monkeypatch.setattr(experiments, "_SAMPLE_CHUNK", 7)
        chunked = experiments._sample_repeated(lattice, 9.0, 3, 1_000, 11)
        monkeypatch.setattr(experiments, "_SAMPLE_CHUNK", 1_000)
        whole = experiments._sample_repeated(lattice, 9.0, 3, 1_000, 11)
        assert np.array_equal(chunked, whole)

    @pytest.mark.parametrize("T", [2.0, 20.0, 1e5, 1e8])
    @pytest.mark.parametrize("dims", [(9, 7), (4,), (22, 6), (5, 3, 3)])
    def test_sampler_counts_match_the_cumsum_oracle(self, monkeypatch, dims, T):
        # the offset-major sampler and its table-driven phases land every
        # trajectory where the complex-exp cumulative-sum sampler does; a
        # small chunk makes the last chunk a short one
        lattice = LatticeSpec(dims)
        monkeypatch.setattr(experiments, "_SAMPLE_CHUNK", 700)
        for seed in (0, 1, 2):
            counts = experiments._sample_repeated(lattice, T, 2, 2_000, seed)
            assert np.array_equal(counts, cumsum_sampler(lattice, T, 2, 2_000, seed))

    def test_sampler_refuses_a_horizon_past_the_phase_limit(self, monkeypatch):
        # the refusal names the limit and comes before a generator is made
        def no_draws(seed):
            raise AssertionError("random stream opened before the refusal")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for dims, T in (((5, 3), 1e300), ((5, 3), 2.0**53), ((7,), 2.0**52)):
            with pytest.raises(ValueError, match="phase limit 2\\*\\*52"):
                experiments._sample_repeated(LatticeSpec(dims), T, 1, 10, 0)
        monkeypatch.undo()
        counts = experiments._sample_repeated(LatticeSpec((5, 3)), 2.0**53 - 2.0, 1, 10, 0)
        assert counts.sum() == 1.0

    @pytest.mark.parametrize("dims", [(7, 5, 3), (8, 5)])
    def test_three_factor_run_matches_quadrature_kernel(self, dims):
        # odd d = 3 and an even cycle both run on the analytic kernel;
        # quadrature is the reference
        lattice = LatticeSpec(dims)
        record = repeated_measurement_run(lattice, 9.0, rounds=3)
        analytic = averaged_kernel_analytic(lattice, 9.0)
        assert record.curves["tv_to_uniform"][0] == distance_to_uniform(analytic)
        quad = averaged_kernel_quadrature(lattice, 9.0, 0.02)
        # one sampled round reports the kernel column itself as its exact column
        column = repeated_measurement_run(lattice, 9.0, rounds=1, mode="sampled",
                                          trajectories=10).curves["exact"]
        assert np.array_equal(column, analytic.first_column)
        assert np.abs(column - quad.first_column).max() <= 1e-6
        tvs = [distance_to_uniform(kernel_power(quad, k)) for k in (1, 2, 3)]
        assert np.abs(record.curves["tv_to_uniform"] - tvs).max() <= 1e-6
        assert abs(record.scalars["kernel_contraction"]
                   - pairwise_column_distance(quad)) <= 1e-6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            repeated_measurement_run(LatticeSpec((5,)), 0.0, rounds=1)
        with pytest.raises(ValueError):
            repeated_measurement_run(LatticeSpec((5,)), 1.0, rounds=0)
        with pytest.raises(ValueError):
            repeated_measurement_run(LatticeSpec((5,)), 1.0, rounds=1, mode="bogus")
        with pytest.raises(ValueError, match="need at least one trajectory, got 0"):
            repeated_measurement_run(LatticeSpec((5,)), 1.0, rounds=1, mode="sampled",
                                     trajectories=0)


class TestCoordinateWise:
    def test_three_cycle_converges(self):
        record = coordinate_wise_run(LatticeSpec((3,)), epsilon=0.1, times=[1.0],
                                     rounds=40)
        assert record.curves["factor_tv"][-1, 0] < 1e-3

    def test_default_run_mixes_rectangle(self):
        record = coordinate_wise_run(LatticeSpec((19, 5)), epsilon=0.1)
        assert record.verdicts["joint_within_epsilon"]
        assert record.verdicts["contractions_below_one"]
        assert not record.warnings
        assert all(c > 0 for c in record.scalars["spread_constants"])
        rounds = record.scalars["rounds_used"]
        assert all(r >= 1 for r in rounds)

    def test_out_of_interval_time_warns_but_runs(self):
        record = coordinate_wise_run(LatticeSpec((9,)), times=[1.0], rounds=3)
        assert record.warnings

    def test_rejects_negative_rounds_and_oversized_lattice(self):
        with pytest.raises(ValueError, match="rounds must be >= 0"):
            coordinate_wise_run(LatticeSpec((5, 3)), rounds=-1)
        with pytest.raises(SizeError, match="dense limit"):
            coordinate_wise_run(LatticeSpec((1_000_000, 2)))

    def test_rejects_epsilon_of_one_and_a_short_times_list(self):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\), got 1.0"):
            coordinate_wise_run(LatticeSpec((5, 3)), epsilon=1.0)
        with pytest.raises(ValueError, match="1 times for 2 coordinates"):
            coordinate_wise_run(LatticeSpec((5, 3)), times=[2.0])

    @pytest.mark.parametrize("rounds", [0, 2, None])
    @pytest.mark.parametrize("dims", [(9, 7), (4,), (6, 5, 3), (2, 2)],
                             ids=lambda dims: "x".join(map(str, dims)))
    def test_product_state_matches_full_joint_propagation(self, dims, rounds):
        # oracle: push the full joint distribution through each coordinate's
        # dense measurement kernel along its own axis, for that coordinate's
        # own number of sweeps, and read each factor off the marginals
        lattice = LatticeSpec(dims)
        record = coordinate_wise_run(lattice, rounds=rounds)
        times = record.config["times"]
        per_coord = record.scalars["rounds_used"]

        def marginal_tvs(joint):
            axes = range(lattice.d)
            return [
                tv_distance(joint.sum(axis=tuple(a for a in axes if a != axis)), uniform(n))
                for axis, n in enumerate(lattice.dims)
            ]

        joint = np.zeros(lattice.dims)
        joint[(0,) * lattice.d] = 1.0
        factor_tv = [marginal_tvs(joint)]
        for sweep in range(max(per_coord)):
            for axis, (n, t) in enumerate(zip(lattice.dims, times)):
                if sweep >= per_coord[axis]:
                    continue
                col = np.abs(cycle_amplitude(n, 0, t, FULL)) ** 2
                circulant = col[np.subtract.outer(np.arange(n), np.arange(n)) % n]
                joint = np.moveaxis(
                    np.tensordot(circulant, joint, axes=([1], [axis])), 0, axis
                )
            factor_tv.append(marginal_tvs(joint))
        np.testing.assert_allclose(record.curves["factor_tv"], factor_tv, rtol=0, atol=1e-12)
        direct_tv = tv_distance(joint.ravel(), uniform(lattice.size))
        assert abs(record.scalars["joint_tv"] - direct_tv) <= 1e-12

    def test_long_cycle_builds_no_square_array(self):
        # the cosine table is built first, so the peak counts only the run's
        # own arrays; an n x n float circulant alone would be 72 MB
        n = 3001
        class_table(n).cosines
        tracemalloc.start()
        try:
            coordinate_wise_run(LatticeSpec((n,)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_spread_constant_definition(self):
        n = 19
        c = spread_constant(n, n / 3.0)
        probs = np.abs(cycle_amplitude(n, 0, n / 3.0, FULL)) ** 2
        qualifying = np.sum(probs >= c / n - 1e-15)
        assert qualifying >= math.ceil(2 * n / 3)
        assert c > 0

    def test_round_counts_bounded_across_cycle_sizes(self):
        # one cycle's measured contraction never needs more than a handful of
        # rounds to cross the 1/(2e) threshold, uniformly in n and in the
        # evolution time within [n/3, n/2]; observed maximum is 6
        from latticemix.distances import pairwise_column_distance, rounds_to_threshold
        from latticemix.kernels import Kernel

        worst = 0
        for n in range(5, 102, 2):
            for t in (n / 3.0, 5.0 * n / 12.0, n / 2.0):
                col = np.abs(cycle_amplitude(n, 0, t, FULL)) ** 2
                alpha = pairwise_column_distance(
                    Kernel(LatticeSpec((n,)), col, kind="cycle")
                )
                assert alpha < 1.0
                worst = max(worst, rounds_to_threshold(alpha))
        assert worst <= 8


class TestUniformityCaseCheck:
    def test_relaxed_small_pair_reports_all_cases(self):
        reports = uniformity_case_check(19, 5, strict=False)
        cases = [r["case"] for r in reports]
        assert cases == ["origin", "axis2", "axis1", "interior", "column_l1",
                         "column_distance"]
        by_case = {r["case"]: r for r in reports}
        # the full-column l1 cap 13/5 + 0.04 exceeds 2, hence holds vacuously
        assert by_case["column_l1"]["rhs"] > 2.0
        assert by_case["column_l1"]["satisfied"]
        assert all(r["mode"] == "relaxed" for r in reports)

    def test_default_horizon_formula(self):
        assert abs(
            deviation_time(95, 93) - 1600.0 * 188.0 * math.log(95.0) ** 2
        ) < 1e-9

    def test_strict_mode_guards_hypotheses(self):
        with pytest.raises(ValueError):
            uniformity_case_check(19, 5, strict=True)
        with pytest.raises(ValueError):
            uniformity_case_check(95, 99)      # not decreasing
        with pytest.raises(ValueError):
            uniformity_case_check(95, 35)      # not coprime
        with pytest.raises(ValueError):
            uniformity_case_check(96, 5)       # parity

    @pytest.mark.parametrize("n1, n2", [(5, 19), (9, 3), (19, 4)])
    def test_relaxed_mode_still_needs_a_decreasing_odd_coprime_pair(self, n1, n2):
        with pytest.raises(ValueError):
            uniformity_case_check(n1, n2, strict=False)

    def test_horizon_override(self):
        reports = uniformity_case_check(19, 5, T=100.0, strict=False)
        assert all(r["T"] == 100.0 for r in reports)


class TestReturnProbabilityCurves:
    def test_both_curves_start_at_one(self):
        record = return_probability_curves(19, 5, t_max=6)
        assert record.curves["quantum_return"][0] == 1.0
        assert record.curves["classical_return"][0] == 1.0

    def test_uniform_level(self):
        record = return_probability_curves(19, 5, t_max=6)
        assert abs(record.scalars["uniform_level"] - 0.010526315789473684) < 1e-18

    def test_mark_time_comparison(self):
        record = return_probability_curves(19, 5, t_max=30)
        assert record.scalars["mark_time"] == 24
        assert record.verdicts["quantum_near_uniform_at_mark"]
        assert record.verdicts["quantum_closer_than_classical_at_mark"]

    @pytest.mark.parametrize("n1, n2", [(23, 21), (10, 8)])
    def test_quantum_curve_matches_per_horizon_kernels(self, n1, n2):
        # (23, 21) has 144 * 121 joint class pairs, so 40 horizons span
        # several weight blocks; (10, 8) has even cycles
        record = return_probability_curves(n1, n2, t_max=40)
        lattice = LatticeSpec((n1, n2))
        per_T = [averaged_kernel_analytic(lattice, float(T)).first_column[0]
                 for T in range(1, 41)]
        assert np.abs(record.curves["quantum_return"][1:] - per_T).max() <= 1e-12

    def test_classical_mixes_by_square_time(self):
        record = return_probability_curves(19, 5, t_max=10)
        assert record.scalars["square_time"] == 386
        assert record.scalars["classical_tv_at_square_time"] <= 0.1
        assert record.verdicts["classical_mixed_at_square_time"]

    def test_classical_curves_match_stepped_oracle(self):
        record = return_probability_curves(19, 5, t_max=30)
        tv, returns = stepped_lazy_curve(LatticeSpec((19, 5)), 386)
        running = np.cumsum(returns[:31]) / np.arange(1, 32)
        assert np.abs(record.curves["classical_return"] - running).max() <= 1e-12
        assert abs(record.scalars["classical_tv_at_square_time"] - tv[386]) <= 1e-12
