import numpy as np
import pytest

import latticemix.kernels as kernels_module
from latticemix.classical import lazy_kernel
from latticemix.errors import ResolutionError, SizeError
from latticemix.experiments import deviation_time
from latticemix.kernels import (
    Kernel,
    _fold,
    averaged_kernel_analytic,
    averaged_kernel_quadrature,
    averaged_return_probability,
    identity_kernel,
    instantaneous_kernel,
    kernel_power,
    simpson_intervals,
    simpson_weights,
)
from latticemix.oscsums import integrated_osc_sum, product_integral_exact
from latticemix.spectral import LatticeSpec, class_table

from oracles import (expm_amplitude_column, full_matrix, kernel_column, uniform_kernel,
                     unfolded_averaged_column, unfolded_class_pair_sum)


def assert_doubly_stochastic(kernel, tol=1e-9):
    matrix = full_matrix(kernel)
    assert np.abs(matrix.sum(axis=0) - 1.0).max() <= tol
    assert np.abs(matrix.sum(axis=1) - 1.0).max() <= tol
    assert np.abs(matrix - matrix.T).max() <= 1e-12


class TestInstantaneousKernel:
    def test_zero_time(self):
        col = instantaneous_kernel(LatticeSpec((5,)), 0.0).first_column
        assert np.abs(col - [1, 0, 0, 0, 0]).max() < 1e-12

    def test_column_sums_to_one(self):
        col = instantaneous_kernel(LatticeSpec((19, 5)), 24.0).first_column
        assert abs(col.sum() - 1.0) <= 1e-10

    def test_against_matrix_exponential(self):
        col = instantaneous_kernel(LatticeSpec((9,)), 3.0).first_column
        oracle = np.abs(expm_amplitude_column(LatticeSpec((9,)), 0, 3.0)) ** 2
        assert np.abs(col - oracle).max() < 1e-9

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            instantaneous_kernel(LatticeSpec((5,)), -1.0)


class TestAveragedKernels:
    def test_short_horizon_is_nearly_identity(self):
        col = averaged_kernel_analytic(LatticeSpec((5,)), 1e-9).first_column
        assert np.abs(col - [1, 0, 0, 0, 0]).max() < 1e-6

    @pytest.mark.parametrize("T", [1.0, 24.0, 100.0])
    def test_analytic_matches_quadrature(self, T):
        for dims in ((19, 5), (7, 5, 3), (6, 5), (8, 6), (9, 9), (12, 8, 4), (2, 3)):
            lattice = LatticeSpec(dims)
            analytic = averaged_kernel_analytic(lattice, T).first_column
            quad = averaged_kernel_quadrature(lattice, T, 0.02).first_column
            assert np.abs(analytic - quad).max() <= 1e-6

    @pytest.mark.parametrize("dims", [(19, 5), (23, 21), (9,), (7, 5, 3),
                                      (6,), (8, 6), (10, 10), (4, 4, 3)])
    @pytest.mark.parametrize("T", [1e-9, 7.0, 24.0, 6.2e6])
    def test_folded_analytic_matches_unfolded_sum(self, dims, T):
        folded = averaged_kernel_analytic(LatticeSpec(dims), T).first_column
        assert np.abs(folded - unfolded_averaged_column(dims, T)).max() <= 1e-12

    def test_three_factor_return_probability_matches_kernel_origin_entries(self):
        lattice = LatticeSpec((7, 5, 3))
        horizons = [1e-9, 1.0, 7.5, 24.0, 6.2e6]
        per_T = [averaged_kernel_analytic(lattice, T).first_column[0] for T in horizons]
        curve = averaged_return_probability(lattice, horizons)
        assert np.abs(curve - per_T).max() <= 1e-12

    def test_one_dimensional_analytic_matches_quadrature(self):
        lattice = LatticeSpec((9,))
        analytic = averaged_kernel_analytic(lattice, 17.0).first_column
        quad = averaged_kernel_quadrature(lattice, 17.0, 0.01).first_column
        assert np.abs(analytic - quad).max() <= 1e-7

    def test_quadrature_step_halving(self):
        lattice = LatticeSpec((5,))
        coarse = averaged_kernel_quadrature(lattice, 1.0, 0.01).first_column
        fine = averaged_kernel_quadrature(lattice, 1.0, 0.005).first_column
        assert np.abs(coarse - fine).max() <= 1e-8

    def test_quadrature_entries_are_probabilities(self):
        col = averaged_kernel_quadrature(LatticeSpec((3,)), 10.0, 0.01).first_column
        assert np.all(col >= 0.0) and np.all(col <= 1.0)

    def test_parity_and_dimension_guards(self):
        # even cycles take the same exact route as odd ones
        for dims in ((4,), (19, 4), (7, 5, 3)):
            assert_doubly_stochastic(averaged_kernel_analytic(LatticeSpec(dims), 1.0))
        with pytest.raises(ValueError):
            averaged_kernel_analytic(LatticeSpec((5,)), 0.0)

    def test_quadrature_covers_higher_dimension(self):
        lattice = LatticeSpec((3, 3, 3))
        kernel = averaged_kernel_quadrature(lattice, 5.0, 0.02)
        assert abs(kernel.first_column.sum() - 1.0) <= 1e-8

    def test_quadrature_rejects_coarse_step(self):
        with pytest.raises(ResolutionError):
            averaged_kernel_quadrature(LatticeSpec((5,)), 1.0, 0.2)

    def test_stochasticity_suite(self):
        for dims, T in (((5,), 3.0), ((19, 5), 24.0), ((7, 3), 11.0)):
            assert_doubly_stochastic(averaged_kernel_analytic(LatticeSpec(dims), T))

    def test_scaled_column_matches_oscillatory_expansion(self):
        # (n1*n2)^2 * P_T(0, l) recomposed from the per-factor constants, the
        # integrated single sums, and the exact product integral
        n1, n2, T = 19, 5, 24.0
        column = averaged_kernel_analytic(LatticeSpec((n1, n2)), T).grid
        for l1, l2 in ((0, 0), (0, 2), (7, 0), (11, 3)):
            c1 = n1 + (n1 * (l1 == 0) - 1)
            c2 = n2 + (n2 * (l2 == 0) - 1)
            i1 = integrated_osc_sum(n1, l1, T) / T
            i2 = integrated_osc_sum(n2, l2, T) / T
            i12 = product_integral_exact(n1, n2, (l1, l2), T) / T
            expansion = c1 * c2 + c2 * i1 + c1 * i2 + i12
            assert abs((n1 * n2) ** 2 * column[l1, l2] - expansion) <= 1e-6


class TestSimpsonRule:
    def test_whole_range_is_the_composite_rule(self):
        assert simpson_weights(0, 7, 7).tolist() == [1, 4, 2, 4, 2, 4, 1]
        assert simpson_weights(0, 3, 3).tolist() == [1, 4, 1]

    def test_ranges_concatenate_to_the_whole_rule(self):
        whole = simpson_weights(0, 11, 11)
        for cuts in ([0, 4, 11], [0, 1, 2, 7, 11], [0, 5, 6, 10, 11]):
            parts = [simpson_weights(lo, hi, 11) for lo, hi in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate(parts), whole)


class TestBatchedQuadrature:
    @pytest.mark.parametrize("dims, T", [((4, 6), 3.7), ((9,), 5.0), ((7, 5, 3), 2.4)])
    def test_equals_weighted_instantaneous_kernels(self, dims, T):
        lattice = LatticeSpec(dims)
        intervals = simpson_intervals(T, 0.05)
        h = T / intervals
        weights = np.full(intervals + 1, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        expected = sum(
            w * h / (3.0 * T) * instantaneous_kernel(lattice, k * h).first_column
            for k, w in enumerate(weights)
        )
        got = averaged_kernel_quadrature(lattice, T, 0.05).first_column
        assert np.abs(got - expected).max() <= 1e-14

    @pytest.mark.parametrize("block", [1, 28 * 5, 28 * 37])
    def test_chunk_size_does_not_change_the_column(self, monkeypatch, block):
        import latticemix.kernels as kernels_module

        # (7, 4) has 28 vertices, so the chunks hold 1, 5 and 37 of 127 nodes
        lattice = LatticeSpec((7, 4))
        reference = averaged_kernel_quadrature(lattice, 6.3, 0.05).first_column
        monkeypatch.setattr(kernels_module, "_WEIGHT_BLOCK", block)
        chunked = averaged_kernel_quadrature(lattice, 6.3, 0.05).first_column
        assert np.abs(chunked - reference).max() <= 1e-15

    def test_per_node_check_catches_scaled_amplitudes(self, monkeypatch):
        import latticemix.kernels as kernels_module
        from latticemix.spectral import cycle_amplitude_at

        def scaled(*args):
            return cycle_amplitude_at(*args) * (1.0 + 1e-6)

        monkeypatch.setattr(kernels_module, "cycle_amplitude_at", scaled)
        with pytest.raises(ValueError, match=r"instantaneous kernels at t = 0\.0\.\.2\.0: column sums"):
            averaged_kernel_quadrature(LatticeSpec((5, 4)), 2.0, 0.05)


class TestPartialSumCap:
    def test_oversized_partial_sums_refused_before_allocation(self, monkeypatch):
        import latticemix.kernels as kernels_module

        # (395, 165, 3) passes the dense limit, but its partial sums would
        # hold (1 + 198*197/2) folded class pairs of Z_395 times 83^2 class
        # pairs of Z_165, times 2 half rows of Z_3: 268726112 doubles, 2.0 GiB
        def must_not_run(*args):
            raise AssertionError("oversized contraction started")

        monkeypatch.setattr(kernels_module, "_sinc_average", must_not_run)
        class_table.cache_clear()
        with pytest.raises(SizeError, match=r"268726112 doubles \(2\.0 GiB\)"):
            averaged_kernel_analytic(LatticeSpec((395, 165, 3)), 5.0)
        # the count needs only the class counts, so neither the pair table of
        # Z_395 (198 x 198^2 doubles, 62 MB) nor any pair frequency is built
        for n in (395, 165, 3):
            built = vars(class_table(n))
            assert "pair_coeff" not in built and "pair_omega" not in built

    def test_cap_counts_horizons_and_rows(self, monkeypatch):
        import latticemix.spectral as spectral_module

        # (7, 5): 1 + 4*3/2 folded leading class pairs times 3 half rows per
        # horizon; the cap is spectral's, which the class tables check too,
        # so they are built first under the real cap
        for n in (7, 5):
            class_table(n).pair_coeff
        monkeypatch.setattr(spectral_module, "MAX_PARTIAL_ENTRIES", 21)
        averaged_kernel_analytic(LatticeSpec((7, 5)), 3.0)
        monkeypatch.setattr(spectral_module, "MAX_PARTIAL_ENTRIES", 20)
        with pytest.raises(SizeError, match="21 doubles"):
            averaged_kernel_analytic(LatticeSpec((7, 5)), 3.0)


class TestCheckpointing:
    def test_interrupted_run_resumes_to_identical_column(self, tmp_path, monkeypatch):
        import latticemix.kernels as kernels_module

        real = kernels_module._save_checkpoint
        monkeypatch.setattr(kernels_module, "_BLOCK_SIZE", 16)
        monkeypatch.setattr(kernels_module, "_CHECKPOINT_EVERY", 1)
        # (19, 5) has 1 + 10*9/2 = 46 folded leading class pairs, three
        # blocks of at most 16; (7, 5, 3) has (1 + 4*3/2) * 3^2 = 63, four
        for dims in ((19, 5), (7, 5, 3)):
            lattice = LatticeSpec(dims)
            reference = averaged_kernel_analytic(lattice, 24.0).first_column

            def interrupted(*args):
                real(*args)
                raise KeyboardInterrupt

            path = str(tmp_path / "partial.npz")
            monkeypatch.setattr(kernels_module, "_save_checkpoint", interrupted)
            with pytest.raises(KeyboardInterrupt):
                averaged_kernel_analytic(lattice, 24.0, checkpoint=path)
            monkeypatch.setattr(kernels_module, "_save_checkpoint", real)
            assert (tmp_path / "partial.npz").exists()

            resumed = averaged_kernel_analytic(lattice, 24.0, checkpoint=path).first_column
            assert np.array_equal(resumed, reference)
            assert not (tmp_path / "partial.npz").exists()

    def test_checkpoint_rejects_mismatched_parameters(self, tmp_path, monkeypatch):
        import latticemix.kernels as kernels_module

        monkeypatch.setattr(kernels_module, "_BLOCK_SIZE", 16)
        path = str(tmp_path / "partial.npz")
        kernels_module._save_checkpoint(path, (3, 19, 5, 23.0, 16), 16, np.zeros((46, 3)))
        with pytest.raises(ValueError, match="different parameters"):
            averaged_kernel_analytic(LatticeSpec((19, 5)), 24.0, checkpoint=path)

    def test_checkpoint_refuses_version_one_file(self, tmp_path, monkeypatch):
        import latticemix.kernels as kernels_module

        monkeypatch.setattr(kernels_module, "_BLOCK_SIZE", 64)
        path = str(tmp_path / "partial.npz")
        # version 1, the complex layout: one row per factor-1 index pair,
        # 19^2 of them; version 2, the real layout: one row of length n2 per
        # factor-1 class pair, 10^2 of them
        for version, partial in ((1, np.zeros((361, 5), complex)), (2, np.zeros((100, 5)))):
            kernels_module._save_checkpoint(path, (version, 19, 5, 24.0, 64), 64, partial)
            with pytest.raises(ValueError,
                               match=f"format version {version}, this build reads version 3"):
                averaged_kernel_analytic(LatticeSpec((19, 5)), 24.0, checkpoint=path)
            assert (tmp_path / "partial.npz").exists()


class TestFoldedContraction:
    """The swap-folded, half-row contraction against the unfolded oracle."""

    @staticmethod
    def unfolded_tables(dims, rows):
        """(omega, C) over every class pair (a, b) per factor, with C at the offsets rows(n).

        C[l, (a, b)] = c_a(l)*c_b(l)/n^2 with c_a(l) = mult_a*cos(2*pi*l*a/n)
        taken straight from its definition, for any offsets l < n.
        """
        scale = 1.0 / len(dims)
        tables = []
        for n in dims:
            classes = np.arange(n // 2 + 1)
            mult = np.where((classes == 0) | (2 * classes == n), 1.0, 2.0)
            c = mult * np.cos(2.0 * np.pi * np.outer(np.arange(n)[rows(n)], classes) / n)
            coeff = (c[:, :, None] * c[:, None, :]).reshape(c.shape[0], -1) / n**2
            tables.append((scale * class_table(n).pair_omega, coeff))
        return tables

    @pytest.mark.parametrize("n", [3, 7, 10])
    def test_folded_pair_tables(self, n):
        # _fold: one same-class column of frequency 0 and coefficient
        # sum_a c_a(l)^2/n^2, then the pairs a < b with lambda_a - lambda_b
        # and 2*c_a(l)*c_b(l)/n^2, for each l <= n//2
        table = class_table(n)
        lam, c = table.lambdas, table.cosines
        upper = [(a, b) for a in range(lam.size) for b in range(a + 1, lam.size)]
        omega, coeff = _fold(table, table.pair_omega, table.pair_coeff)
        assert omega.tolist() == [0.0] + [lam[a] - lam[b] for a, b in upper]
        expected = np.column_stack([(c * c / n**2).sum(axis=1)]
                                   + [2.0 * c[:, a] * c[:, b] / n**2 for a, b in upper])
        assert np.abs(coeff - expected).max() <= 1e-16

    @pytest.mark.parametrize("dims", [(9,), (13,), (19, 5), (23, 21), (5, 5), (9, 3),
                                      (7, 5, 3), (5, 5, 3)])
    @pytest.mark.parametrize("T", [1e-9, 7.0, 24.0, 1234.5, 6.2e6])
    def test_mirrored_kernel_matches_unfolded_contraction(self, dims, T):
        column = averaged_kernel_analytic(LatticeSpec(dims), T).first_column
        oracle = unfolded_class_pair_sum(self.unfolded_tables(dims, lambda n: slice(None)), [T])
        assert np.abs(column - oracle).max() <= 1e-13

    def test_mirrored_column_is_bitwise_even(self):
        dims = (9, 5, 3)
        grid = averaged_kernel_analytic(LatticeSpec(dims), 24.0).grid
        negated = grid[np.ix_(*((-np.arange(n)) % n for n in dims))]
        assert np.array_equal(grid, negated)

    @pytest.mark.parametrize("dims", [(11,), (9, 7), (9, 3), (7, 5, 3)])
    def test_many_horizons_in_blocks_match_unfolded_contraction(self, monkeypatch, dims):
        import latticemix.kernels as kernels_module

        horizons = np.geomspace(1e-3, 1e7, 23)
        scale = 1.0 / len(dims)
        factors = [(t, scale * t.pair_omega, t.pair_coeff) for t in map(class_table, dims)]
        oracle = unfolded_class_pair_sum(
            self.unfolded_tables(dims, lambda n: slice(0, n // 2 + 1)), horizons)
        # whole blocks, blocks of a few leading rows, one-row sub-blocks, and
        # one horizon per chunk
        for block, sub, weights in ((256, 2**13, 2**18), (3, 2**13, 2**18), (5, 1, 2**18),
                                    (3, 2**13, 1)):
            monkeypatch.setattr(kernels_module, "_BLOCK_SIZE", block)
            monkeypatch.setattr(kernels_module, "_SINC_BLOCK", sub)
            monkeypatch.setattr(kernels_module, "_WEIGHT_BLOCK", weights)
            got = kernels_module._class_pair_sum(factors, horizons)
            assert np.abs(got - oracle).max() <= 1e-13

    @pytest.mark.parametrize("dims", [(13,), (9, 7), (7, 5, 3)])
    def test_return_curve_matches_unfolded_contraction(self, dims):
        horizons = np.geomspace(0.1, 1e7, 60)
        oracle = unfolded_class_pair_sum(self.unfolded_tables(dims, lambda n: [0]), horizons)
        curve = averaged_return_probability(LatticeSpec(dims), horizons)
        assert np.abs(curve - oracle).max() <= 1e-13

    @pytest.mark.parametrize("dims", [(13, 11), (7, 5, 3)])
    @pytest.mark.parametrize("weights", [1, 500, 5000])
    def test_return_curve_in_many_horizon_chunks(self, monkeypatch, dims, weights):
        import latticemix.kernels as kernels_module

        # (13, 11) has 22 folded leading class pairs and 36 last ones, so the
        # chunks hold 1, 1 and 6 of the 60 horizons; (7, 5, 3) has 63 and 4,
        # so 1, 1 and 19
        lattice, horizons = LatticeSpec(dims), np.geomspace(0.1, 1e7, 60)
        whole = averaged_return_probability(lattice, horizons)
        monkeypatch.setattr(kernels_module, "_WEIGHT_BLOCK", weights)
        chunked = averaged_return_probability(lattice, horizons)
        oracle = unfolded_class_pair_sum(self.unfolded_tables(dims, lambda n: [0]), horizons)
        assert np.abs(chunked - whole).max() <= 1e-15
        assert np.abs(chunked - oracle).max() <= 1e-13

    def test_return_curve_of_no_horizons_is_empty(self):
        curve = averaged_return_probability(LatticeSpec((13, 11)), [])
        assert curve.shape == (0,)

    @pytest.mark.parametrize("n, offset", [(3, 0), (5, 2), (9, 4), (21, 0), (21, 13)])
    def test_one_row_osc_tables_match_unfolded_contraction(self, n, offset):
        from latticemix.oscsums import _osc_series

        # the sums reach about n^2, so the bound is relative to them
        for T in (1e-6, 0.7, 24.0, 6.2e6):
            _, freq, coeff = _osc_series(n, offset)
            oracle = unfolded_class_pair_sum([(freq, coeff)], [T])[0]
            got = integrated_osc_sum(n, offset, T) / T
            assert abs(got - oracle) <= 1e-13 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("n1, n2, offsets", [(7, 5, (0, 0)), (11, 9, (3, 4)), (13, 5, (6, 0))])
    def test_osc_product_integral_matches_unfolded_contraction(self, n1, n2, offsets):
        from latticemix.oscsums import _osc_series

        for T in (1e-6, 3.3, 150.0, 6.2e6):
            tables = [_osc_series(n, l)[1:] for n, l in zip((n1, n2), offsets)]
            oracle = unfolded_class_pair_sum(tables, [T])[0]
            got = product_integral_exact(n1, n2, offsets, T) / T
            assert abs(got - oracle) <= 1e-13 * max(1.0, abs(oracle))

    def test_zero_horizon_osc_integral_is_zero(self):
        assert integrated_osc_sum(5, 0, 0.0) == 0.0


class TestSeparableWeights:
    """sin(x)/x from exact per-factor phases, against long double and the unfolded sum."""

    @staticmethod
    def sampled_terms():
        """20 folded pair frequencies of Z_55 and 20 pair frequencies of Z_53, at time scale 1/2.

        The folded column 0, of frequency 0, is left out, so no term is an
        exact zero.
        """
        rng = np.random.default_rng(5)
        first, second = class_table(55), class_table(53)
        alpha, _ = _fold(first, 0.5 * first.pair_omega, first.pair_coeff)
        beta = 0.5 * second.pair_omega
        return (alpha[rng.choice(np.arange(1, alpha.size), 20, replace=False)],
                beta[rng.choice(beta.size, 20, replace=False)])

    @pytest.mark.parametrize("T", [1234.5, 1e6, 3.1e6, deviation_time(55, 53)])
    def test_separable_weights_match_long_double_sines(self, T):
        # 400 terms x = T*(alpha + beta) of (55, 53); the separable weight is
        # off by the rounding of its numerator over |x|, so by at most 1e-18
        # at the long horizons, where the sine of the rounded x is ~1e-16 off;
        # the deviation time has all 53 bits, so both halves of its split count
        alpha, beta = self.sampled_terms()
        ts = np.array([T])
        lead, last = kernels_module._split_phases([(None, alpha, None)], beta, ts)
        freq = alpha[:, None] + beta
        got = kernels_module._separable_sinc(lead, last, freq, np.empty((1,) + freq.shape))[0]
        x = T * freq
        assert np.abs(x).min() >= 1.0
        exact = np.longdouble(T) * (alpha.astype(np.longdouble)[:, None] + beta)
        reference = np.sin(exact) / exact
        err = np.abs(got - reference).astype(float)
        assert (err <= 1e-18 + 2.0**-51 / np.abs(x)).all()
        if T >= 1e6:
            assert err.max() <= 1e-18
            rounded = kernels_module._sinc_average(x.copy(), np.empty_like(x))
            assert np.abs(rounded - reference).max() > 10.0 * err.max()

    @pytest.mark.parametrize("dims, T, one_row", [((9, 7), 30.0, True), ((9, 7), 1e5, True),
                                                  ((7, 5, 3), 4e3, True), ((8, 6), 1e6, True),
                                                  ((55, 53), 2e6, False), ((21, 19, 9), 1e5, False)])
    def test_sub_blocks_route_by_their_least_x(self, monkeypatch, dims, T, one_row):
        # the sub-blocks with some |x| < 1 take _sinc_average, so their
        # weights are the sines of the rounded x bit for bit, and every
        # other sub-block the separable product; by rows, or in the sub-blocks
        # of many rows that hold rows of both kinds
        routes = {"sinc": [], "separable": []}
        sinc, separable = kernels_module._sinc_average, kernels_module._separable_sinc

        def spy_sinc(x, out):
            routes["sinc"].append(np.abs(x).min())
            return sinc(x, out)

        def spy_separable(lead, last, freq, out):
            routes["separable"].append(T * np.abs(freq).min())
            return separable(lead, last, freq, out)

        if one_row:
            monkeypatch.setattr(kernels_module, "_SINC_BLOCK", class_table(dims[-1]).lambdas.size ** 2)
        monkeypatch.setattr(kernels_module, "_sinc_average", spy_sinc)
        monkeypatch.setattr(kernels_module, "_separable_sinc", spy_separable)
        column = averaged_kernel_analytic(LatticeSpec(dims), T).first_column
        assert max(routes["sinc"]) < 1.0 <= min(routes["separable"], default=1.0)
        if T > 30.0:
            assert routes["separable"]
        oracle = unfolded_class_pair_sum(
            TestFoldedContraction.unfolded_tables(dims, lambda n: slice(None)), [T])
        assert np.abs(column - oracle).max() <= 1e-13

    @pytest.mark.parametrize("dims, T", [((13, 11), 7.0), ((7, 5), 8.0), ((23,), 12.0),
                                         ((9, 7), 30.0)])
    def test_one_sub_block_builds_no_phases(self, monkeypatch, dims, T):
        # the sub-block of leading row 0 holds x = 0, so a table of one
        # sub-block takes _sinc_average whole and never builds a phase
        def must_not_run(*args):
            raise AssertionError("phases built for a kernel without separable sub-blocks")

        monkeypatch.setattr(kernels_module, "_exact_phases", must_not_run)
        monkeypatch.setattr(kernels_module, "_cancellation_gap", must_not_run)
        averaged_kernel_analytic(LatticeSpec(dims), T)

    @pytest.mark.parametrize("dims", [(44, 44), (8, 6)])
    @pytest.mark.parametrize("T", [1e6, 1e7])
    def test_tuples_cancelling_to_rounding_match_unfolded_sum(self, dims, T):
        # lambda_{n/2-a} = -lambda_a on an even cycle, so some tuples sum to
        # about 1e-16 and |x| < 1: their sub-blocks keep _sinc_average
        column = averaged_kernel_analytic(LatticeSpec(dims), T).first_column
        oracle = unfolded_class_pair_sum(
            TestFoldedContraction.unfolded_tables(dims, lambda n: slice(None)), [T])
        assert np.abs(column - oracle).max() <= 1e-13

    def test_a_column_summing_to_nan_is_refused(self):
        # a NaN sum compares false both ways, so it is refused by name
        with pytest.raises(ValueError, match="column sums to nan"):
            kernels_module._check_stochastic(np.array([np.nan, 1.0]), 1e-9, "nan column")

    def test_cancellation_gap_is_the_least_rounded_sum(self):
        rng = np.random.default_rng(2)
        table = class_table(12)
        cases = [(np.array([0.0, 0.5, -0.5, 1.0, -2.0, 3.0]), table.pair_omega),
                 (rng.uniform(-2, 2, 50), rng.uniform(-2, 2, 7)),
                 (rng.uniform(-2, 2, 30), np.array([0.25])),
                 (_fold(table, table.pair_omega, table.pair_coeff)[0], table.pair_omega)]
        for lead, omega in cases:
            brute = np.abs(lead[:, None] + omega).min(axis=1)
            assert np.array_equal(kernels_module._cancellation_gap(lead, omega), brute)


class TestKernelPower:
    def test_power_one_is_unchanged(self):
        kernel = averaged_kernel_analytic(LatticeSpec((7,)), 3.0)
        assert np.array_equal(kernel_power(kernel, 1).first_column, kernel.first_column)

    def test_identity_is_fixed(self):
        kernel = identity_kernel(LatticeSpec((6,)))
        assert np.abs(
            kernel_power(kernel, 5).first_column - kernel.first_column
        ).max() < 1e-12

    def test_against_dense_matrix_cube(self):
        kernel = averaged_kernel_analytic(LatticeSpec((7,)), 3.0)
        cubed = kernel_power(kernel, 3)
        oracle = np.linalg.matrix_power(full_matrix(kernel), 3)
        assert np.abs(full_matrix(cubed) - oracle).max() <= 1e-9

    def test_two_dimensional_power(self):
        kernel = averaged_kernel_analytic(LatticeSpec((5, 3)), 6.0)
        squared = kernel_power(kernel, 2)
        oracle = np.linalg.matrix_power(full_matrix(kernel), 2)
        assert np.abs(full_matrix(squared) - oracle).max() <= 1e-9

    def test_zero_gives_identity_and_negative_rejected(self):
        kernel = uniform_kernel(LatticeSpec((4,)))
        assert np.array_equal(
            kernel_power(kernel, 0).first_column, identity_kernel(kernel.lattice).first_column
        )
        with pytest.raises(ValueError):
            kernel_power(kernel, -1)

    @pytest.mark.parametrize("rounds", [7, 10**3, 10**5, 10**6])
    def test_high_powers_of_a_long_cycle_stay_even(self, rounds):
        # mix-coordinate runs 7 sweeps of the instantaneous Z_2001 kernel at
        # t = n/3; the lazy walk is still far from uniform at 1e5 rounds,
        # where rounding leaves the power furthest from even (2.4e-15)
        lattice = LatticeSpec((2001,))
        mirror = class_table(2001).mirror
        for kernel in (instantaneous_kernel(lattice, 2001 / 3.0), lazy_kernel(lattice)):
            raw = np.fft.ifftn(np.fft.fftn(kernel.grid) ** rounds).real
            assert np.abs(raw - raw[mirror]).max() <= 1e-13
            powered = kernel_power(kernel, rounds)
            assert abs(powered.first_column.sum() - 1.0) <= 1e-9


class TestKernelType:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Kernel(LatticeSpec((3,)), np.array([1.0, 1e-6, -1e-6]), kind="bad")

    def test_clips_tiny_negatives(self):
        kernel = Kernel(LatticeSpec((3,)), np.array([1.0, -5e-13, -5e-13]), kind="ok")
        assert kernel.first_column.min() == 0.0

    def test_refuses_a_column_that_is_not_even(self):
        # offsets 1 and 2 of Z_3 mirror each other, and so do 1 and 3 of Z_4
        with pytest.raises(ValueError, match="mirror image by"):
            Kernel(LatticeSpec((3,)), np.array([0.5, 0.25 + 2e-12, 0.25 - 2e-12]), kind="odd")
        with pytest.raises(ValueError, match="mirror image by"):
            Kernel(LatticeSpec((4, 3)), np.arange(12.0) / 66.0, kind="odd")

    @pytest.mark.parametrize("col", [[np.nan] * 3, [np.nan, 0.5, 0.5], [0.0, np.inf, np.inf],
                                     [1.0, -np.inf, -np.inf]])
    def test_refuses_a_column_that_is_not_finite(self, col):
        # NaN compares false in the sign and evenness checks, and d(P) of an
        # all-NaN column would read 0, so a non-finite entry is refused by name
        with pytest.raises(ValueError, match="is not finite"):
            Kernel(LatticeSpec((3,)), np.array(col), kind="not finite")

    def test_stores_the_mirrored_column(self):
        # within 1e-12 of even, the half x_k <= n_k//2 is copied over the rest
        col = np.array([0.2, 0.25, 0.15, 0.15 + 5e-13, 0.25 - 5e-13]).repeat(2)
        kernel = Kernel(LatticeSpec((5, 2)), col, kind="almost even")
        assert np.array_equal(kernel.first_column,
                              np.array([0.2, 0.25, 0.15, 0.15, 0.25]).repeat(2))
        assert not kernel.first_column.flags.writeable

    def test_column_roll(self):
        kernel = instantaneous_kernel(LatticeSpec((5, 3)), 2.0)
        matrix = full_matrix(kernel)
        source = int(np.ravel_multi_index((2, 1), (5, 3)))
        assert np.array_equal(matrix[:, source], kernel_column(kernel, (2, 1)))

    def test_column_accepts_numpy_integer(self):
        kernel = instantaneous_kernel(LatticeSpec((5, 3)), 2.0)
        assert np.array_equal(kernel_column(kernel, np.int64(3)), kernel_column(kernel, 3))

    def test_dense_guard(self):
        with pytest.raises(SizeError):
            full_matrix(uniform_kernel(LatticeSpec((70, 70))))
