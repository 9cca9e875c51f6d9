import numpy as np
import pytest

from latticemix import classical
from latticemix.classical import (
    coupling_simulation,
    lazy_curves,
    lazy_kernel,
    lazy_mixing_bound,
)
from latticemix.spectral import LatticeSpec

from oracles import expected_meeting_time, full_matrix, stepped_lazy_curve


class TestLazyKernel:
    def test_three_cycle(self):
        col = lazy_kernel(LatticeSpec((3,))).first_column
        assert np.array_equal(col, [0.5, 0.25, 0.25])

    def test_three_by_three(self):
        grid = lazy_kernel(LatticeSpec((3, 3))).grid
        assert grid[0, 0] == 0.5
        for neighbor in ((0, 1), (0, 2), (1, 0), (2, 0)):
            assert grid[neighbor] == 0.125

    def test_two_cycle_merges_neighbors(self):
        assert np.array_equal(lazy_kernel(LatticeSpec((2,))).first_column, [0.5, 0.5])

    def test_negation_symmetry_and_mass(self):
        grid = lazy_kernel(LatticeSpec((5, 3))).grid
        assert abs(grid.sum() - 1.0) < 1e-15
        reflected = np.roll(np.flip(grid, axis=(0, 1)), (1, 1), axis=(0, 1))
        assert np.array_equal(grid, reflected)

    def test_double_stochasticity(self):
        matrix = full_matrix(lazy_kernel(LatticeSpec((5, 3))))
        assert np.abs(matrix.sum(axis=0) - 1.0).max() < 1e-12
        assert np.abs(matrix.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(np.diag(matrix) == 0.5)


class TestMixingBound:
    def test_example_values(self):
        assert lazy_mixing_bound(LatticeSpec((19, 5)), 0.1) == 4332
        assert lazy_mixing_bound(LatticeSpec((3,)), 0.25) == 36
        assert lazy_mixing_bound(LatticeSpec((7, 5, 3)), 0.1) == 1176

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            lazy_mixing_bound(LatticeSpec((5,)), 0.5)


class TestMixingCurve:
    def test_initial_distance(self):
        tvs, _ = lazy_curves(LatticeSpec((3,)), 0)
        assert abs(tvs[0] - 2.0 / 3.0) < 1e-15

    def test_monotone_to_zero(self):
        tvs, _ = lazy_curves(LatticeSpec((5,)), 400)
        assert np.all(np.diff(tvs) <= 1e-12)
        assert tvs[-1] < 1e-10

    @pytest.mark.parametrize("dims", [
        (2,), (3,), (12,), (2, 2), (4, 6), (13, 2), (11, 9), (15, 14), (5, 4, 3),
    ])
    @pytest.mark.parametrize("run, block", [(256, 2**18), (7, 100)])
    def test_matches_stepped_oracle(self, monkeypatch, dims, run, block):
        # short runs and blocks put 600 steps through many partial time blocks
        monkeypatch.setattr(classical, "_POWER_RUN", run)
        monkeypatch.setattr(classical, "_CURVE_BLOCK", block)
        lattice = LatticeSpec(dims)
        want_tv, want_returns = stepped_lazy_curve(lattice, 600)
        tvs, returns = lazy_curves(lattice, 600)
        assert tvs.shape == returns.shape == (601,)
        assert np.abs(tvs - want_tv).max() <= 1e-12
        assert np.abs(returns - want_returns).max() <= 1e-12

    def test_default_blocks_match_stepped_oracle(self):
        # 64 classes: time blocks of 4096 steps, so 9000 steps take three
        lattice = LatticeSpec((15, 14))
        want_tv, want_returns = stepped_lazy_curve(lattice, 9000)
        tvs, returns = lazy_curves(lattice, 9000)
        assert np.abs(tvs - want_tv).max() <= 1e-12
        assert np.abs(returns - want_returns).max() <= 1e-12

    def test_negative_steps_refused(self):
        with pytest.raises(ValueError):
            lazy_curves(LatticeSpec((3,)), -1)

    @pytest.mark.parametrize("dims", [(9, 5), (7, 7), (5, 3, 3)])
    @pytest.mark.parametrize("epsilon", [0.25, 0.1])
    def test_bound_certifies_mixing(self, dims, epsilon):
        lattice = LatticeSpec(dims)
        bound = lazy_mixing_bound(lattice, epsilon)
        tvs, _ = lazy_curves(lattice, bound)
        assert tvs[bound] <= epsilon


class TestCoupling:
    def test_two_cycle_couples_fast(self):
        result = coupling_simulation(LatticeSpec((2,)), 500, seed=5)
        assert result.mean_tau[0] < 5.0

    def test_matches_linear_solve_on_nine_cycle(self):
        result = coupling_simulation(LatticeSpec((9,)), 10_000, seed=2)
        exact = expected_meeting_time(9, 9 // 2)
        assert abs(result.mean_tau[0] - exact) <= 3.0 * result.se_tau[0]

    def test_within_bound_on_rectangle(self):
        result = coupling_simulation(LatticeSpec((19, 5)), 10_000, seed=1)
        assert result.within_bound.all()

    def test_seeded_reproducibility(self):
        a = coupling_simulation(LatticeSpec((7, 3)), 200, seed=42)
        b = coupling_simulation(LatticeSpec((7, 3)), 200, seed=42)
        assert np.array_equal(a.mean_tau, b.mean_tau)
        assert a.mean_tau_couple == b.mean_tau_couple

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            coupling_simulation(LatticeSpec((3,)), 0, seed=0)
