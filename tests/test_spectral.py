import math
from fractions import Fraction

import numpy as np
import pytest

from latticemix.errors import SizeError
from latticemix.experiments import deviation_time
from latticemix.spectral import (
    FULL,
    HALF,
    MAX_PHASE_TIME,
    LatticeSpec,
    _GRID_BLOCK,
    _GRID_GROUP_NODES,
    _exact_phases,
    _grid_fill,
    _grid_tables,
    _split_time,
    cycle_amplitude,
    cycle_amplitude_at,
    cycle_amplitude_grid,
    class_table,
    product_amplitude,
    spectral_gap,
    unit_phases,
)

from oracles import (dense_walk_matrix, enumerated_spectral_gap, exp_amplitude_at,
                     expm_amplitude_column)


def centred_grid(n, offset, t0, h, count):
    """Grid probabilities at t0 + h*k, k < count, filled one anchored group at a time.

    Each fill takes the whole blocks that cover its group's nodes, anchored
    at its first node, as the Simpson curve's chunks do, and keeps the nodes
    that lie on the grid.
    """
    tables, table, out = _grid_tables(n, h, HALF), class_table(n), np.empty(count)
    coeff = table.cosines[table.mirror[offset % n]] / n
    span = np.empty(_GRID_GROUP_NODES)
    for lo in range(0, count, _GRID_GROUP_NODES):
        hi = min(lo + _GRID_GROUP_NODES, count)
        whole = -(-(hi - lo) // _GRID_BLOCK) * _GRID_BLOCK
        anchor = _exact_phases(tables[0], t0, h, float(lo)) * coeff
        out[lo:hi] = _grid_fill(tables, anchor, span[:whole])[: hi - lo]
    return out


class TestEigenphases:
    """The class eigenvalues lambda_a = cos(2*pi*a/n), a = 0..n//2."""

    def test_quarter_turns(self):
        table = class_table(4)
        assert np.allclose(table.lambdas, [1.0, 0.0, -1.0], atol=1e-15)

    def test_mirror_symmetry_is_exact(self):
        # one entry per mirror class, and the same-class pair frequencies
        # lambda_a - lambda_a vanish exactly
        for n in (5, 19, 42):
            table = class_table(n)
            assert table.lambdas.shape == (n // 2 + 1,)
            assert table.lambdas[0] == 1.0
            diagonal = table.pair_omega.reshape(n // 2 + 1, -1).diagonal()
            assert np.all(diagonal == 0.0)

    def test_values_match_cosine(self):
        lam = class_table(5).lambdas
        expected = np.cos(2 * np.pi * np.arange(3) / 5)
        assert np.abs(lam - expected).max() < 1e-12

    def test_top_eigenvalue_isolated_for_odd_n(self):
        lam = class_table(19).lambdas
        assert lam[0] == 1.0
        assert np.all(lam[1:] < 1.0)

    def test_rejects_tiny_cycle(self):
        with pytest.raises(ValueError):
            class_table(1)


class TestCycleAmplitude:
    def test_zero_time_is_identity(self):
        for scale in (FULL, HALF):
            amp = cycle_amplitude(7, 0, 0.0, scale)
            assert np.abs(amp - np.eye(7)[0]).max() < 1e-14

    def test_translation_is_an_exact_roll(self):
        base = cycle_amplitude(5, 0, 3.7, FULL)
        shifted = cycle_amplitude(5, 2, 3.7, FULL)
        assert np.array_equal(shifted, np.roll(base, 2))

    def test_against_dense_matrix_exponential(self):
        amp = cycle_amplitude(19, 0, 19.0 / 3.0, FULL)
        oracle = expm_amplitude_column(LatticeSpec((19,)), 0, 19.0 / 3.0)
        assert np.abs(amp - oracle).max() < 1e-9

    def test_unitarity_on_random_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 120))
            t = float(rng.uniform(0.0, 200.0))
            amp = cycle_amplitude(n, int(rng.integers(n)), t, FULL)
            assert abs((np.abs(amp) ** 2).sum() - 1.0) <= 1e-10

    def test_reflection_symmetry(self):
        # |<q|U(t)|p>| = |<p|U(t)|q>| since the generator is symmetric
        amp = cycle_amplitude(11, 0, 4.2, FULL)
        for q in range(11):
            assert abs(abs(amp[q]) - abs(amp[(-q) % 11])) < 1e-12

    def test_returns_read_only_complex_array(self):
        amp = cycle_amplitude(9, 4, 2.5, HALF)
        assert isinstance(amp, np.ndarray) and amp.dtype == complex
        assert amp.shape == (9,) and not amp.flags.writeable

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            cycle_amplitude(5, 0, np.nan)
        with pytest.raises(ValueError):
            cycle_amplitude(5, 0, np.inf)

    # (n, offset, t0, h, count): one node, two nodes, a part of one centred
    # block (257 nodes), whole blocks and a ragged last one, and more than one
    # group (32 blocks, 8224 nodes) ending in a ragged block, from off-origin
    # starts up to 1e6, on odd and even cycles
    GRID_CASES = ((9, 0, 0.0, 0.5, 1), (9, 3, 0.0, 0.5, 2), (9, 3, 0.0, 0.5, 23),
                  (19, 4, 7.25, 0.013, 805), (20, 13, 7.25, 0.013, 805),
                  (20, 10, 7.25, 0.013, 805), (19, 4, 3.5e3, 0.01, 257),
                  (21, 5, 1e6, 0.01, 8224 + 300), (20, 7, 9.87e5, 0.013, 8224 + 257))

    @pytest.mark.parametrize("n, offset, t0, h, count", GRID_CASES)
    def test_offset_and_grid_forms_agree(self, n, offset, t0, h, count):
        ts = t0 + h * np.arange(count)
        at = cycle_amplitude_at(n, ts, HALF)[:, offset]
        amp = cycle_amplitude_grid(n, offset, t0, h, count, HALF)
        assert amp.shape == (count,) and amp.dtype == complex
        assert np.abs(amp - at).max() < 1e-12
        grid = centred_grid(n, offset, t0, h, count)
        assert grid.shape == (count,) and grid.dtype == float
        # every node, so both halves of every centred block are checked
        assert np.abs(grid - np.abs(at) ** 2).max() < 1e-11
        # the one-time column at nodes spread over the grid, the last included
        picks = np.unique(np.r_[np.arange(0, count, 37), count - 1])
        full = np.array([cycle_amplitude(n, 0, ts[k], HALF)[offset] for k in picks])
        assert np.abs(full - at[picks]).max() < 1e-12
        assert np.abs(np.abs(full) ** 2 - grid[picks]).max() < 1e-11

    @pytest.mark.parametrize("n, offset, t0, h, count",
                             GRID_CASES + ((31, 2, 3e7, 0.02, 9000), (97, 11, 4.5e6, 0.01, 16453)))
    def test_centred_grid_matches_exact_phase_sum(self, n, offset, t0, h, count):
        # every node against |sum_a (c_a(l)/n)*exp(i*f_a*t)|^2 with each phase
        # of the exact product f_a*t; the route of cycle_amplitude_at rounds
        # theta = f_a*t first and reads 5.6e-12 to 1.5e-10 off it at these long starts
        grid = centred_grid(n, offset, t0, h, count)
        table = class_table(n)
        coeff = table.cosines[table.mirror[offset % n]] / n
        phases = _exact_phases(HALF * table.lambdas, t0, h, np.arange(count, dtype=float)[:, None])
        assert np.abs(grid - np.abs(phases @ coeff) ** 2).max() <= 1e-15

    def test_grid_takes_an_empty_grid(self):
        tables = _grid_tables(19, 0.013, HALF)
        assert _grid_fill(tables, np.ones(10, dtype=complex), np.empty(0)).shape == (0,)

    def test_grid_tables_are_cached_per_cycle_step_and_scale(self):
        # the tables depend on the step: a step that differs in its last bit
        # gets tables of its own
        tables = _grid_tables(19, 0.013, HALF)
        assert _grid_tables(19, 0.013, HALF) is tables
        assert _grid_tables.cache_info().maxsize == 64
        assert not any(array.flags.writeable for array in tables)
        other = _grid_tables(19, np.nextafter(0.013, 1.0), HALF)
        assert not np.array_equal(other[1], tables[1])
        assert not np.array_equal(_grid_tables(19, 0.013, FULL)[0], tables[0])
        assert _grid_tables(21, 0.013, HALF)[0].size == 11

    def test_split_time_is_exact(self):
        # c + d = t0 + h*k to 2**-78 of it, c of 26 significant bits or fewer;
        # c*(2**27 + 1) would overflow near 1e301, so c is split at 2**-28 of it
        rng = np.random.default_rng(3)
        for t0, h, k in [(0.0, 0.01, 0.0), (7.25, 0.013, 805.0), (-3.5, 0.1, 2.0**52 - 1),
                         (1.2345e301, 0.3, 7.0),
                         *zip(rng.uniform(-1e6, 1e6, 50), rng.uniform(1e-4, 1.0, 50),
                              rng.integers(0, 2**40, 50).astype(float))]:
            c, d = _split_time(float(t0), float(h), float(k))
            exact = Fraction(float(t0)) + Fraction(float(h)) * Fraction(float(k))
            assert abs(Fraction(c) + Fraction(d) - exact) <= abs(exact) * Fraction(1, 2**78)
            mantissa = Fraction(c) / Fraction(2) ** (math.frexp(c)[1] - 26)
            assert mantissa.denominator == 1

    def test_amplitude_grid_refuses_a_negative_count(self):
        with pytest.raises(ValueError, match="count must be >= 0"):
            cycle_amplitude_grid(9, 1, 0.0, 0.5, -1, HALF)


class TestExactPhases:
    """_exact_phases, exp(i*f*t) of the exact product f*t at t = t0 + h*k."""

    # pi to 40 significant digits: its error moves a phase of 1e9 rad by 1e-31
    PI = Fraction("3.141592653589793238462643383279502884197")

    @classmethod
    def reference(cls, freq, t: Fraction) -> np.ndarray:
        """exp(i*f*t) from f*t reduced mod 2*pi in rationals, then rounded once."""
        out = []
        for f in freq:
            x = Fraction(float(f)) * t
            reduced = float(x - math.floor(x / (2 * cls.PI) + Fraction(1, 2)) * 2 * cls.PI)
            out.append(complex(math.cos(reduced), math.sin(reduced)))
        return np.array(out)

    @staticmethod
    def bound(freq, t: float) -> np.ndarray:
        # a few roundings of a unit phasor plus the phase error: the small
        # term, about 2**-25 of f*t, is rounded once, so about 2**-78 of f*t;
        # 1.5e-15 at |f*t| = 1e8, 7.5e-15 at 1e9 (2.5e-15 seen there)
        return 2.0**-50 + np.abs(freq * t) * 2.0**-77

    def test_plain_horizons_match_rational_phases(self):
        rng = np.random.default_rng(11)
        freq = np.concatenate((rng.uniform(-1.0, 1.0, 12), HALF * class_table(97).lambdas[::7]))
        for t in np.r_[10.0 ** rng.uniform(0.0, 9.0, 12), 1e9, deviation_time(95, 93)]:
            got = _exact_phases(freq, float(t))
            assert got.shape == freq.shape
            err = np.abs(got - self.reference(freq, Fraction(float(t))))
            assert (err <= self.bound(freq, t)).all()
            if t <= 1e7:
                assert err.max() <= 1e-15

    def test_grid_nodes_match_rational_phases(self):
        # t0 + h*k taken exactly, t0 and h*k both large and of either sign,
        # |t| below 1e7 and below 1e9
        rng = np.random.default_rng(12)
        freq = np.concatenate((rng.uniform(-1.0, 1.0, 12), HALF * class_table(95).lambdas[::7]))
        for span in (5e6, 5e8):
            for t0, h, k in zip(rng.uniform(-span, span, 6), rng.uniform(1e-3, 0.2, 6),
                                rng.integers(0, 4 * span, 6).astype(float)):
                got = _exact_phases(freq, float(t0), float(h), np.array([[k], [k + 1.0]]))
                assert got.shape == (2, freq.size)
                for row, node in zip(got, (k, k + 1.0)):
                    exact = Fraction(float(t0)) + Fraction(float(h)) * Fraction(node)
                    err = np.abs(row - self.reference(freq, exact))
                    assert (err <= self.bound(freq, float(exact))).all()
                    if abs(exact) <= 1e7:
                        assert err.max() <= 1e-15

    def test_exact_phases_hold_past_the_split_range(self):
        # T*(2**27 + 1) overflows from T = 1.34e300; the split is taken at 2**-28 of T
        omega = np.array([0.0, 0.25, -0.5, 1.0])
        phases = _exact_phases(omega, np.array([1e301, 3.0])[:, None])
        assert np.isfinite(phases).all()
        assert np.abs(np.abs(phases) - 1.0).max() <= 1e-15
        assert np.abs(phases[1] - np.exp(3j * omega)).max() <= 1e-15


class TestCycleAmplitudeAt:
    """The one arbitrary-time route: every offset at a time or an array of times."""

    def test_agrees_with_the_column_and_expm(self):
        ts = np.array([0.0, 0.7, 5.25, 31.0])
        for n in (2, 9, 20):
            every = cycle_amplitude_at(n, ts, HALF)
            assert every.shape == (ts.size, n) and every.dtype == complex
            for k, t in enumerate(ts):
                oracle = expm_amplitude_column(LatticeSpec((n,)), 0, HALF * t)
                assert np.abs(every[k] - oracle).max() < 1e-9
                assert np.abs(every[k] - cycle_amplitude(n, 0, t, HALF)).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 9, 20, 101])
    def test_batch_matches_one_time_and_is_even(self, n):
        ts = np.linspace(0.0, 3.0 * n, 2 * n + 1)
        negated = (-np.arange(n)) % n
        batch = cycle_amplitude_at(n, ts, HALF)
        for k, t in enumerate(ts[:5]):
            one = cycle_amplitude_at(n, t, HALF)
            assert np.abs(one - batch[k]).max() <= 1e-15
            assert np.array_equal(one, one[negated])
        assert np.array_equal(batch, batch[:, negated])

    def test_one_time_is_the_column_bitwise(self):
        for n, t in ((7, 2.5), (20, 13.0), (1000, 333.3)):
            assert np.array_equal(cycle_amplitude_at(n, t, FULL),
                                  cycle_amplitude(n, 0, t, FULL))

    def test_scalar_shapes_and_guards(self):
        assert cycle_amplitude_at(9, 2.0, FULL).shape == (9,)
        assert cycle_amplitude_at(9, [[1.0, 2.0, 3.0]], FULL).shape == (1, 3, 9)
        with pytest.raises(ValueError, match="time must be finite, got nan"):
            cycle_amplitude_at(9, [1.0, np.nan], FULL)
        with pytest.raises(ValueError):
            cycle_amplitude_at(9, 1.0, 0.0)

    @pytest.mark.parametrize("n", [2, 9, 20, 101])
    def test_matches_the_complex_exp_route(self, n):
        # the table-driven phases move the amplitudes at the rounding level
        # only; past |theta| = 8e5 by up to about an ulp of theta
        rng = np.random.default_rng(n)
        for t_max in (1.0, 30.0, 1e4, 1e9):
            ts = np.concatenate(([0.0, t_max], rng.uniform(0.0, t_max, 64)))
            for scale in (FULL, HALF):
                gap = np.abs(cycle_amplitude_at(n, ts, scale) - exp_amplitude_at(n, ts, scale))
                assert gap.max() <= 2e-15 + 4.0 * np.spacing(scale * t_max)

    def test_refuses_phases_past_the_limit(self):
        assert MAX_PHASE_TIME == 2.0**52
        for ts, scale in ((MAX_PHASE_TIME, FULL), (2.0 * MAX_PHASE_TIME, HALF),
                          ([1.0, -MAX_PHASE_TIME], FULL), (1e300, FULL)):
            with pytest.raises(ValueError, match="past the phase limit 2\\*\\*52"):
                cycle_amplitude_at(9, ts, scale)
        with pytest.raises(ValueError, match="phase limit"):
            cycle_amplitude(9, 0, 1e300)
        # just below the limit the phases are still unit-modulus amplitudes
        amp = cycle_amplitude_at(9, MAX_PHASE_TIME - 1.0, FULL)
        assert abs((np.abs(amp) ** 2).sum() - 1.0) <= 1e-14


class TestUnitPhases:
    """Table-driven cos and sin against numpy's, up to the phase limit."""

    def test_against_numpy_cos_and_sin(self):
        rng = np.random.default_rng(5)
        magnitudes = 10.0 ** np.arange(-6, 13)
        theta = np.concatenate([
            (rng.uniform(-1.0, 1.0, (magnitudes.size, 4000)) * magnitudes[:, None]).ravel(),
            2.0 * np.pi * np.arange(-50, 51),
            2.0 * np.pi * rng.integers(-10**11, 10**11, 200),
            np.pi / 2048.0 * (np.arange(-4, 5) + 0.5),
            [0.0, -0.0, np.pi, -np.pi, 1e12, -1e12],
        ])
        cos, sin = unit_phases(theta)
        tol = 1e-15 + 2.0 * np.spacing(np.abs(theta))
        assert np.all(np.abs(cos - np.cos(theta)) <= tol)
        assert np.all(np.abs(sin - np.sin(theta)) <= tol)

    def test_unit_modulus_up_to_the_phase_limit(self):
        # past 2**40 the remainder is reduced twice, so it stays in the
        # Taylor range and cos^2 + sin^2 = 1 holds to rounding
        rng = np.random.default_rng(6)
        for e in (20, 40, 44, 48, 52):
            theta = rng.uniform(-1.0, 1.0, 5000) * 2.0**e
            cos, sin = unit_phases(theta)
            assert np.abs(cos * cos + sin * sin - 1.0).max() <= 1e-15
            tol = 1e-15 + 2.0 * np.spacing(np.abs(theta))
            assert np.all(np.abs(cos - np.cos(theta)) <= tol)
            assert np.all(np.abs(sin - np.sin(theta)) <= tol)
        with pytest.raises(ValueError, match="past the phase limit 2\\*\\*52"):
            unit_phases([0.5, -MAX_PHASE_TIME])

    def test_zero_is_exact_and_shapes_follow_theta(self):
        cos, sin = unit_phases(0.0)
        assert cos == 1.0 and sin == 0.0
        cos, sin = unit_phases(np.zeros((3, 4)))
        assert np.all(cos == 1.0) and np.all(sin == 0.0) and cos.shape == (3, 4)
        assert [a.size for a in unit_phases(np.empty(0))] == [0, 0]

    def test_writes_into_out_across_blocks(self):
        theta = np.linspace(-40.0, 40.0, 5 * 5000).reshape(5, -1)
        out = (np.empty(theta.shape), np.empty(theta.shape))
        cos, sin = unit_phases(theta, out=out)
        assert cos is out[0] and sin is out[1]
        assert np.abs(cos - np.cos(theta)).max() <= 1e-15
        assert np.abs(sin - np.sin(theta)).max() <= 1e-15
        with pytest.raises(ValueError, match="C-contiguous"):
            unit_phases(theta, out=(np.empty(theta.shape[::-1]).T, out[1]))


class TestClassTable:
    def test_pair_rows_are_the_pair_coeff_rows(self):
        for n in (9, 10):
            table = class_table(n)
            assert np.array_equal(table.pair_rows([0, 3]), table.pair_coeff[[0, 3]])

    def test_oversized_tables_refused_before_allocation(self):
        with pytest.raises(SizeError, match=r"cosines c_a\(l\) of Z_200000 need 10000200001 doubles"):
            class_table(200000).cosines
        # the 751 half rows l <= 750 of 751^2 class pairs each
        with pytest.raises(SizeError, match="class-pair coefficients of Z_1501 need 423564751"):
            class_table(1501).pair_coeff
        # the eigenvalues alone are still served
        assert class_table(200000).lambdas.size == 100001

    def test_cosines_sum_each_mirror_class(self):
        # c_a(l) is the sum of w^(l*j) over the indices j in class a
        for n in (9, 10):
            table = class_table(n)
            j = np.arange(n)
            roots = np.exp(2j * np.pi * j / n)
            classes = np.minimum(j, n - j)
            assert table.cosines.shape == (n // 2 + 1, n // 2 + 1)
            for l in range(n):
                sums = np.zeros(n // 2 + 1, dtype=complex)
                np.add.at(sums, classes, roots[(l * j) % n])
                assert np.abs(table.cosines[table.mirror[l]] - sums).max() < 1e-12

    def test_class_eigenvalues_are_the_unfolded_ones(self):
        # lambda_a is the eigenvalue of both indices a and n - a
        for n in (9, 10):
            lam = class_table(n).lambdas
            j = np.arange(n)
            unfolded = np.cos(2 * np.pi * j / n)
            assert np.abs(lam[np.minimum(j, n - j)] - unfolded).max() < 1e-15

    def test_pair_tables(self):
        # pair (a, b) carries lambda_a - lambda_b and c_a(l)*c_b(l)/n^2,
        # kept for the offsets l <= n//2
        n = 7
        table = class_table(n)
        lam, c = table.lambdas, table.cosines
        omega = table.pair_omega.reshape(4, 4)
        coeff = table.pair_coeff.reshape(4, 4, 4)
        for a in range(4):
            for b in range(4):
                assert omega[a, b] == lam[a] - lam[b]
                assert np.array_equal(coeff[:, a, b], c[:4, a] * c[:4, b] / n**2)

    def test_rows_mirror_onto_the_half_table(self):
        # c_a(l) = c_a(n - l), so the table keeps the rows l <= n//2 and
        # offset l reads row min(l, n - l)
        for n in (9, 10):
            table = class_table(n)
            assert table.mirror.tolist() == [min(l, n - l) for l in range(n)]
            assert table.cosines.shape == (n // 2 + 1, n // 2 + 1)
            assert not table.mirror.flags.writeable

    @pytest.mark.parametrize("n", [2, 9, 10, 1001, 2048])
    def test_cosines_in_row_blocks_equal_the_one_shot_table(self, monkeypatch, n):
        import latticemix.spectral as spectral_module

        classes = np.arange(n // 2 + 1)
        mult = np.where((classes == 0) | (2 * classes == n), 1.0, 2.0)
        one_shot = mult * np.cos(2.0 * np.pi * (np.outer(classes, classes) % n) / n)
        # n >= 1001 spans several blocks of the default size; then one row
        # per block, and blocks that cut the table unevenly
        for block in (spectral_module._COSINE_BLOCK, 1, 3 * classes.size + 1):
            monkeypatch.setattr(spectral_module, "_COSINE_BLOCK", block)
            assert np.array_equal(spectral_module.ClassTable(n, class_table(n).lambdas).cosines,
                                  one_shot)

    def test_tables_are_built_on_first_use(self):
        class_table.cache_clear()
        table = class_table(11)
        assert table.lambdas.shape == (6,)
        assert not {"cosines", "pair_omega", "pair_coeff"} & set(vars(table))
        table.pair_coeff
        assert {"cosines", "pair_coeff"} <= set(vars(table))
        assert all(not array.flags.writeable for array in
                   (table.lambdas, table.cosines, table.pair_omega, table.pair_coeff))


class TestProductAmplitude:
    def test_zero_time_is_identity(self):
        amp = product_amplitude(LatticeSpec((19, 5)), (0, 0), 0.0)
        expected = np.zeros((19, 5))
        expected[0, 0] = 1.0
        assert np.abs(amp - expected).max() < 1e-14

    def test_probability_factorizes(self):
        lattice = LatticeSpec((19, 5))
        amp = product_amplitude(lattice, (0, 0), 24.0)
        f1 = np.abs(cycle_amplitude(19, 0, 24.0, 0.5)) ** 2
        f2 = np.abs(cycle_amplitude(5, 0, 24.0, 0.5)) ** 2
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


class TestLatticeLimits:
    def test_dense_limit_admits_exactly_its_vertex_count(self):
        LatticeSpec((1000, 1000)).check_dense()
        with pytest.raises(SizeError, match="exceeds dense limit"):
            LatticeSpec((1000001,)).check_dense()

    def test_vertex_count_up_to_two_to_the_53_is_accepted(self):
        assert LatticeSpec((2**26, 2**27)).size == 2**53
        with pytest.raises(SizeError, match="exceeds machine range"):
            LatticeSpec((3, 2**52))


class TestSpectralGap:
    def test_small_cycles(self):
        assert abs(spectral_gap(LatticeSpec((3,))) - 1.5) < 1e-12
        expected = 1.0 - np.cos(2 * np.pi / 5)
        assert abs(spectral_gap(LatticeSpec((5,))) - expected) < 1e-12

    def test_against_dense_eigenvalue_scan(self):
        lattice = LatticeSpec((19, 5))
        eigs = np.sort(np.linalg.eigvalsh(dense_walk_matrix(lattice)))
        assert abs(spectral_gap(lattice) - (1.0 - eigs[-2])) < 1e-12

    def test_three_factors_against_dense_eigenvalue_scan(self):
        lattice = LatticeSpec((7, 4, 3))
        eigs = np.sort(np.linalg.eigvalsh(dense_walk_matrix(lattice)))
        assert abs(spectral_gap(lattice) - (1.0 - eigs[-2])) < 1e-12

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (4, 6), (5, 5), (19, 5),
                                      (7, 4, 3), (9, 9, 9), (3, 3, 3, 3), (1001, 1003)])
    def test_per_cycle_gap_matches_class_tuple_enumeration(self, dims):
        # (1001, 1003) has N = 1004003 vertices, over the dense limit
        lattice = LatticeSpec(dims)
        assert abs(spectral_gap(lattice) - enumerated_spectral_gap(lattice)) <= 1e-15

    def test_long_cycle_builds_no_cosine_table(self):
        # the gap reads only lambda_a; an eager (n//2 + 1)^2 cosine table
        # would take 20 GB here
        n = 100003
        class_table.cache_clear()
        gap = spectral_gap(LatticeSpec((n,)))
        assert abs(gap - (1.0 - np.cos(2 * np.pi / n))) < 1e-15
        assert "cosines" not in vars(class_table(n))


class TestLatticeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(())
        with pytest.raises(ValueError):
            LatticeSpec((1, 5))
        with pytest.raises(SizeError):
            LatticeSpec((2**30, 2**30))

    def test_size(self):
        assert LatticeSpec((19, 5)).size == 95
