import math

import numpy as np
import pytest

from latticemix import distances
from latticemix.classical import lazy_kernel
from latticemix.distances import (
    column_mass_bound,
    distance_to_uniform,
    epsilon_mixing_time,
    pairwise_column_distance,
    rounds_to_threshold,
    tv_distance,
    uniform,
)
from latticemix.kernels import (
    Kernel,
    averaged_kernel_analytic,
    averaged_kernel_quadrature,
    identity_kernel,
    instantaneous_kernel,
    kernel_power,
)
from latticemix.experiments import deviation_time
from latticemix.spectral import LatticeSpec

from oracles import (allpairs_column_distance, full_matrix, mixing_scan, orthant_column_distance,
                     point_mass, uniform_kernel)


def assorted_kernels():
    yield lazy_kernel(LatticeSpec((3,)))
    yield lazy_kernel(LatticeSpec((5, 3)))
    yield instantaneous_kernel(LatticeSpec((7,)), 2.5)
    yield instantaneous_kernel(LatticeSpec((4, 3)), 1.2)
    yield instantaneous_kernel(LatticeSpec((3, 4, 5)), 0.7)
    yield averaged_kernel_analytic(LatticeSpec((9, 5)), 7.0)
    yield averaged_kernel_analytic(LatticeSpec((13,)), 40.0)
    yield averaged_kernel_analytic(LatticeSpec((7, 5, 3)), 9.0)
    yield uniform_kernel(LatticeSpec((8,)))
    yield identity_kernel(LatticeSpec((6,)))


class TestTvDistance:
    def test_identical(self):
        assert tv_distance(uniform(5), uniform(5)) == 0.0

    def test_point_mass_vs_uniform(self):
        assert abs(tv_distance(point_mass(0, 5), uniform(5)) - 0.8) < 1e-15

    def test_disjoint_supports(self):
        assert tv_distance(point_mass(0, 4), point_mass(1, 4)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance(uniform(4), uniform(5))

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            a, b, c = (rng.dirichlet(np.ones(n)) for _ in range(3))
            assert tv_distance(a, a) < 1e-15
            assert abs(tv_distance(a, b) - tv_distance(b, a)) < 1e-15
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


class TestPairwiseColumnDistance:
    def test_uniform_kernel(self):
        assert pairwise_column_distance(uniform_kernel(LatticeSpec((6,)))) == 0.0

    def test_identity_kernel(self):
        assert pairwise_column_distance(identity_kernel(LatticeSpec((5,)))) == 1.0

    def test_lazy_step_on_three_cycle_vs_allpairs(self):
        kernel = lazy_kernel(LatticeSpec((3,)))
        shortcut = pairwise_column_distance(kernel)
        oracle = allpairs_column_distance(full_matrix(kernel))
        assert shortcut == oracle

    def test_shift_shortcut_matches_allpairs_scan(self):
        for kernel in assorted_kernels():
            if kernel.lattice.size > 64:
                continue
            shortcut = pairwise_column_distance(kernel)
            oracle = allpairs_column_distance(full_matrix(kernel))
            assert abs(shortcut - oracle) < 1e-12

    @pytest.mark.parametrize("block", [7, 64, 1])
    def test_blocked_shifts_match_allpairs_scan(self, monkeypatch, block):
        # small blocks build the index rows and gather the last-axis rolls a
        # few shifts at a time, down to one shift per block
        monkeypatch.setattr(distances, "_SHIFT_BLOCK", block)
        for kernel in assorted_kernels():
            oracle = allpairs_column_distance(full_matrix(kernel))
            assert abs(pairwise_column_distance(kernel) - oracle) < 1e-12

    @staticmethod
    def random_even_column(dims, seed):
        """A random probability column on dims, made bitwise even in every axis."""
        grid = np.random.default_rng(seed).random(dims)
        for axis, n in enumerate(dims):
            grid = (grid + grid.take((-np.arange(n)) % n, axis=axis)) / 2.0
        return Kernel(LatticeSpec(dims), (grid / grid.sum()).ravel(), kind="random")

    @pytest.mark.parametrize("dims", [(9,), (8,), (7, 5), (6, 5), (4, 6), (5, 4, 3), (3, 3, 4)])
    def test_orthant_scan_matches_allpairs_on_even_columns(self, dims):
        # every builder's stored column is bitwise even, powers included
        lattice = LatticeSpec(dims)
        instant = instantaneous_kernel(lattice, 2.7)
        analytic = averaged_kernel_analytic(LatticeSpec((13, 11)), 40.0)
        kernels = [*(self.random_even_column(dims, seed) for seed in range(3)),
                   instant, kernel_power(instant, 2), kernel_power(instant, 3),
                   averaged_kernel_quadrature(lattice, 3.0, 0.05),
                   analytic, kernel_power(analytic, 2), kernel_power(analytic, 3)]
        for kernel in kernels:
            grid = kernel.grid
            negated = grid[np.ix_(*((-np.arange(n)) % n for n in grid.shape))]
            assert np.array_equal(grid, negated), kernel.kind
            oracle = allpairs_column_distance(full_matrix(kernel))
            assert abs(pairwise_column_distance(kernel) - oracle) < 1e-12, kernel.kind

    HALF_SCAN_DIMS = [(2,), (3,), (9,), (12,), (19, 5), (8, 6), (9, 9), (12, 8, 4), (7, 5, 3)]

    def half_scan_kernels(self, dims):
        """Random even columns, an instantaneous kernel, and an averaged one with its square."""
        lattice = LatticeSpec(dims)
        analytic = averaged_kernel_analytic(lattice, 9.0 if len(dims) == 3 else 30.0)
        return [*(self.random_even_column(dims, seed) for seed in range(3)),
                instantaneous_kernel(lattice, 2.7), analytic, kernel_power(analytic, 2),
                identity_kernel(lattice)]

    @pytest.mark.parametrize("dims", HALF_SCAN_DIMS)
    def test_orbit_half_scan_matches_orthant_scan(self, dims):
        # odd and even last axes, odd and even shifts on each, one to three factors
        for kernel in self.half_scan_kernels(dims):
            oracle = orthant_column_distance(kernel)
            assert abs(pairwise_column_distance(kernel) - oracle) <= 1e-14 * oracle, kernel.kind

    @pytest.mark.parametrize("block", [1, 7, 64, 500])
    def test_orbit_half_scan_in_chunks_matches_orthant_scan(self, monkeypatch, block):
        # the last-axis shifts span several chunks, down to one shift per chunk
        monkeypatch.setattr(distances, "_SHIFT_BLOCK", block)
        for dims in self.HALF_SCAN_DIMS:
            for kernel in self.half_scan_kernels(dims):
                oracle = orthant_column_distance(kernel)
                assert abs(pairwise_column_distance(kernel) - oracle) <= 1e-14 * oracle

    def test_orbit_half_scan_at_the_deviation_time(self):
        kernel = averaged_kernel_analytic(LatticeSpec((55, 53)), deviation_time(55, 53))
        oracle = orthant_column_distance(kernel)
        assert abs(pairwise_column_distance(kernel) - oracle) <= 1e-14 * oracle

    def test_sandwich_inequality(self):
        # tv(c, u) <= d(P) <= 2 * tv(c, u) for every kernel this package builds
        for kernel in assorted_kernels():
            half_norm = distance_to_uniform(kernel)
            d = pairwise_column_distance(kernel)
            assert half_norm <= d + 1e-10
            assert d <= 2.0 * half_norm + 1e-10

    def test_submultiplicative_on_powers(self):
        rng = np.random.default_rng(3)
        for kernel in (
            lazy_kernel(LatticeSpec((5, 3))),
            averaged_kernel_analytic(LatticeSpec((9, 5)), 7.0),
            instantaneous_kernel(LatticeSpec((7,)), 2.5),
        ):
            for _ in range(4):
                a = int(rng.integers(1, 5))
                b = int(rng.integers(1, 5))
                d_ab = pairwise_column_distance(kernel_power(kernel, a + b))
                d_a = pairwise_column_distance(kernel_power(kernel, a))
                d_b = pairwise_column_distance(kernel_power(kernel, b))
                assert d_ab <= d_a * d_b + 1e-9


class TestThresholdFormulas:
    def test_exact_threshold(self):
        assert rounds_to_threshold(1.0 / (2.0 * math.e)) == 1

    def test_half(self):
        assert rounds_to_threshold(0.5) == 3

    def test_point_nine(self):
        assert rounds_to_threshold(0.9) == 17

    def test_matches_iterated_multiplication(self):
        for alpha in (0.9, 0.7, 0.31, 0.05):
            r = rounds_to_threshold(alpha)
            k, product = 0, 1.0
            while product > 1.0 / (2.0 * math.e):
                product *= alpha
                k += 1
            assert r == k

    def test_range_checks(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                rounds_to_threshold(bad)

    def test_column_mass_bound_values(self):
        assert column_mass_bound(1.0, 1.0) == 0.0
        assert abs(column_mass_bound(2.0 / 3.0, 1.0) - 2.0 / 3.0) < 1e-12
        assert abs(column_mass_bound(2.0 / 3.0, 0.3) - 0.9) < 1e-12

    def test_column_mass_bound_ranges(self):
        with pytest.raises(ValueError):
            column_mass_bound(0.5, 1.0)
        with pytest.raises(ValueError):
            column_mass_bound(0.8, 0.0)


class TestEpsilonMixingTime:
    def test_constant_identity_family_never_mixes(self):
        lattice = LatticeSpec((5,))
        kernels = [identity_kernel(lattice) for _ in range(4)]
        assert epsilon_mixing_time(np.arange(1.0, 5.0), kernels, 0.3) is None

    def test_uniform_family_mixes_immediately(self):
        lattice = LatticeSpec((5,))
        kernels = [uniform_kernel(lattice) for _ in range(4)]
        assert epsilon_mixing_time(np.arange(1.0, 5.0), kernels, 0.3) == 1.0

    def test_lazy_walk_matches_brute_force_scan(self):
        lattice = LatticeSpec((5,))
        kernel = lazy_kernel(lattice)
        t_max = 60
        kernels = [kernel_power(kernel, t) for t in range(1, t_max + 1)]
        found = epsilon_mixing_time(np.arange(1, t_max + 1, dtype=float), kernels, 0.1)
        oracle = mixing_scan(full_matrix(kernel), 0.1, t_max)
        assert found == float(oracle)

    def test_requires_sustained_crossing(self):
        lattice = LatticeSpec((4,))
        good = uniform_kernel(lattice)
        bad = identity_kernel(lattice)
        times = np.array([1.0, 2.0, 3.0])
        found = epsilon_mixing_time(times, [good, bad, good], 0.2)
        assert found == 3.0

    def test_input_validation(self):
        lattice = LatticeSpec((4,))
        with pytest.raises(ValueError):
            epsilon_mixing_time(np.array([]), [], 0.1)
        with pytest.raises(ValueError):
            epsilon_mixing_time(
                np.array([2.0, 1.0]),
                [uniform_kernel(lattice), uniform_kernel(lattice)],
                0.1,
            )
