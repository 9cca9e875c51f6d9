import numpy as np
import pytest

from latticemix.errors import SizeError
from latticemix.spectral import (
    FULL,
    HALF,
    LatticeSpec,
    cycle_amplitude,
    cycle_amplitude_at,
    cycle_amplitude_grid,
    class_table,
    eigenphases,
    product_amplitude,
    spectral_gap,
)

from oracles import dense_walk_matrix, expm_amplitude_column


class TestEigenphases:
    def test_quarter_turns(self):
        table = eigenphases(4)
        assert np.allclose(table.lambdas, [1.0, 0.0, -1.0, 0.0], atol=1e-15)

    def test_mirror_symmetry_is_exact(self):
        for n in (5, 19, 42):
            lam = eigenphases(n).lambdas
            assert lam[0] == 1.0
            for j in range(1, n):
                assert lam[j] == lam[n - j]

    def test_values_match_cosine(self):
        lam = eigenphases(5).lambdas
        expected = np.cos(2 * np.pi * np.arange(5) / 5)
        assert np.abs(lam - expected).max() < 1e-12

    def test_top_eigenvalue_isolated_for_odd_n(self):
        lam = eigenphases(19).lambdas
        assert lam[0] == 1.0
        assert np.all(lam[1:] < 1.0)

    def test_rejects_tiny_cycle(self):
        with pytest.raises(ValueError):
            eigenphases(1)


class TestCycleAmplitude:
    def test_zero_time_is_identity(self):
        for scale in (FULL, HALF):
            amp = cycle_amplitude(7, 0, 0.0, scale)
            assert np.abs(amp.entries - np.eye(7)[0]).max() < 1e-14

    def test_translation_is_an_exact_roll(self):
        base = cycle_amplitude(5, 0, 3.7, FULL)
        shifted = cycle_amplitude(5, 2, 3.7, FULL)
        assert np.array_equal(shifted.entries, np.roll(base.entries, 2))

    def test_against_dense_matrix_exponential(self):
        amp = cycle_amplitude(19, 0, 19.0 / 3.0, FULL)
        oracle = expm_amplitude_column(LatticeSpec((19,)), 0, 19.0 / 3.0)
        assert np.abs(amp.entries - oracle).max() < 1e-9

    def test_unitarity_on_random_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 120))
            t = float(rng.uniform(0.0, 200.0))
            amp = cycle_amplitude(n, int(rng.integers(n)), t, FULL)
            assert abs(amp.probabilities.sum() - 1.0) <= 1e-10

    def test_reflection_symmetry(self):
        # |<q|U(t)|p>| = |<p|U(t)|q>| since the generator is symmetric
        amp = cycle_amplitude(11, 0, 4.2, FULL).entries
        for q in range(11):
            assert abs(abs(amp[q]) - abs(amp[(-q) % 11])) < 1e-12

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            cycle_amplitude(5, 0, np.nan)
        with pytest.raises(ValueError):
            cycle_amplitude(5, 0, np.inf)

    def test_offset_and_grid_forms_agree(self):
        # the 805-node grids span 3 full blocks of 256 nodes and a ragged
        # fourth, from an off-origin start, on odd and even cycles
        cases = ((9, 0, 0.0, 0.5, 23), (9, 3, 0.0, 0.5, 23),
                 (19, 4, 7.25, 0.013, 805), (20, 13, 7.25, 0.013, 805),
                 (20, 10, 7.25, 0.013, 805))
        for n, offset, t0, h, count in cases:
            ts = t0 + h * np.arange(count)
            full = np.array(
                [cycle_amplitude(n, 0, t, HALF).entries[offset] for t in ts]
            )
            at = cycle_amplitude_at(n, offset, ts, HALF)
            grid = cycle_amplitude_grid(n, offset, t0, h, count, HALF)
            assert grid.shape == (count,)
            assert np.abs(full - at).max() < 1e-12
            assert np.abs(full - grid).max() < 1e-11
        assert cycle_amplitude_grid(19, 4, 7.25, 0.013, 0, HALF).size == 0


class TestClassTable:
    def test_cosines_sum_each_mirror_class(self):
        # c_a(l) is the sum of w^(l*j) over the indices j in class a
        for n in (9, 10):
            table = class_table(n)
            j = np.arange(n)
            roots = np.exp(2j * np.pi * j / n)
            classes = np.minimum(j, n - j)
            assert table.cosines.shape == (n, n // 2 + 1)
            for l in range(n):
                sums = np.zeros(n // 2 + 1, dtype=complex)
                np.add.at(sums, classes, roots[(l * j) % n])
                assert np.abs(table.cosines[l] - sums).max() < 1e-12

    def test_class_eigenvalues_are_the_unfolded_ones(self):
        for n in (9, 10):
            table = class_table(n)
            assert np.array_equal(table.lambdas, eigenphases(n).lambdas[: n // 2 + 1])


class TestProductAmplitude:
    def test_zero_time_is_identity(self):
        amp = product_amplitude(LatticeSpec((19, 5)), (0, 0), 0.0)
        expected = np.zeros((19, 5))
        expected[0, 0] = 1.0
        assert np.abs(amp - expected).max() < 1e-14

    def test_probability_factorizes(self):
        lattice = LatticeSpec((19, 5))
        amp = product_amplitude(lattice, (0, 0), 24.0)
        f1 = cycle_amplitude(19, 0, 24.0, 0.5).probabilities
        f2 = cycle_amplitude(5, 0, 24.0, 0.5).probabilities
        assert np.abs(np.abs(amp) ** 2 - np.multiply.outer(f1, f2)).max() < 1e-12

    def test_against_dense_matrix_exponential(self):
        lattice = LatticeSpec((3, 5))
        amp = product_amplitude(lattice, (1, 2), 2.0)
        source = int(np.ravel_multi_index((1, 2), lattice.dims))
        oracle = expm_amplitude_column(lattice, source, 2.0)
        assert np.abs(amp.ravel() - oracle).max() < 1e-9

    def test_global_unitarity(self):
        amp = product_amplitude(LatticeSpec((7, 5, 3)), (1, 2, 0), 13.0)
        assert abs((np.abs(amp) ** 2).sum() - 1.0) <= 1e-9

    def test_source_length_checked(self):
        with pytest.raises(ValueError):
            product_amplitude(LatticeSpec((3, 5)), (1,), 1.0)


class TestSpectralGap:
    def test_small_cycles(self):
        assert abs(spectral_gap(LatticeSpec((3,))) - 1.5) < 1e-12
        expected = 1.0 - np.cos(2 * np.pi / 5)
        assert abs(spectral_gap(LatticeSpec((5,))) - expected) < 1e-12

    def test_against_dense_eigenvalue_scan(self):
        lattice = LatticeSpec((19, 5))
        eigs = np.sort(np.linalg.eigvalsh(dense_walk_matrix(lattice)))
        assert abs(spectral_gap(lattice) - (1.0 - eigs[-2])) < 1e-12


class TestLatticeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(())
        with pytest.raises(ValueError):
            LatticeSpec((1, 5))
        with pytest.raises(SizeError):
            LatticeSpec((2**30, 2**30))

    def test_flags(self):
        assert LatticeSpec((19, 5)).odd_coprime_2d
        assert not LatticeSpec((5, 19)).odd_coprime_2d
        assert not LatticeSpec((9, 3)).odd_coprime_2d
        assert not LatticeSpec((19, 4)).odd_coprime_2d
        assert not LatticeSpec((19, 5, 3)).odd_coprime_2d
        assert LatticeSpec((7, 5, 3)).all_odd
        assert not LatticeSpec((7, 4)).all_odd

    def test_size(self):
        assert LatticeSpec((19, 5)).size == 95
