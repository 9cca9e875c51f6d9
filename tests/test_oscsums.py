import math

import numpy as np
import pytest

from latticemix import oscsums
from latticemix.errors import ParityError, ResolutionError
from latticemix.oscsums import (
    bound_row,
    bound_sweep,
    coprime_odd_pairs,
    integrated_osc_bound,
    integrated_osc_sum,
    product_integral_bound,
    product_integral_curve,
    product_integral_exact,
    sample_coprime_odd_pairs,
)
from latticemix.kernels import averaged_return_probability, simpson_intervals
from latticemix.spectral import (HALF, _GRID_BLOCK, _GRID_GROUP_NODES, LatticeSpec, _exact_phases,
                                 _grid_tables, class_table, cycle_amplitude)

from oracles import (
    osc_sum_direct,
    osc_sum_fast,
    product_integral,
    simpson_integral,
    unfolded_osc_sum,
    unfolded_product_integral,
)

HORIZONS = (1e-9, 7.0, 1e3, 1e4)


class TestPointEvaluations:
    def test_zero_time_origin_offset(self):
        # n^2 - n - (n - 1) surviving unit terms
        assert abs(osc_sum_direct(5, 0, 0.0) - 16.0) < 1e-12
        assert abs(osc_sum_fast(5, 0, 0.0) - 16.0) < 1e-12

    def test_zero_time_nonzero_offset(self):
        # forced by n^2 * P_0(0, l) = 0 for l != 0
        assert abs(osc_sum_direct(7, 3, 0.0) - (-6.0)) < 1e-12

    def test_fast_equals_direct_on_spec_point(self):
        assert abs(osc_sum_fast(19, 2, 7.3) - osc_sum_direct(19, 2, 7.3)) <= 1e-9

    @pytest.mark.parametrize("n", [3, 5, 19, 23])
    def test_direct_matches_unfolded_pair_sum(self, n):
        for offset in (0, 1, n // 2):
            for t in HORIZONS:
                oracle = unfolded_osc_sum(n, offset, t)
                assert abs(osc_sum_direct(n, offset, t) - oracle) <= 1e-9

    def test_fast_equals_direct_on_random_samples(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.choice(np.arange(3, 101, 2)))
            offset = int(rng.integers(n))
            t = float(rng.uniform(0.0, 300.0))
            assert abs(osc_sum_fast(n, offset, t) - osc_sum_direct(n, offset, t)) <= 1e-9

    def test_lower_bound_from_probability(self):
        # n^2 * P_t >= 0 forces the sum above -(2n - 1)
        n = 9
        ts = np.linspace(0.0, 50.0, 701)
        assert np.all(osc_sum_fast(n, 0, ts) >= -(2 * n - 1) - 1e-12)

    def test_probability_identity(self):
        # n^2 * P_t(0, l) = n + (n*[l==0] - 1) + osc(t)
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.choice(np.arange(3, 61, 2)))
            l = int(rng.integers(n))
            t = float(rng.uniform(0.0, 100.0))
            prob = abs(cycle_amplitude(n, 0, t, HALF)[l]) ** 2
            lhs = n * n * prob
            rhs = n + (n * (l == 0) - 1) + osc_sum_fast(n, l, t)
            assert abs(lhs - rhs) <= 1e-9

    def test_parity_rejection(self):
        with pytest.raises(ParityError):
            osc_sum_direct(6, 0, 1.0)
        with pytest.raises(ParityError):
            osc_sum_fast(6, 0, 1.0)


class TestIntegratedSum:
    def test_zero_horizon(self):
        assert integrated_osc_sum(5, 0, 0.0) == 0.0

    def test_matches_quadrature(self):
        for n, l, T in ((7, 3, 50.0), (19, 0, 100.0), (15, 7, 33.0)):
            exact = integrated_osc_sum(n, l, T)
            quad = simpson_integral(lambda ts: osc_sum_fast(n, l, ts), 0.0, T, 0.01)
            assert abs(exact - quad) <= 1e-5 * max(1.0, abs(quad))

    def test_small_horizon_is_linear(self):
        # the integral is T*osc(0) = T*(1 - n) to first order in T, and the
        # closed form must keep full relative accuracy there
        T = 1e-9
        for n in range(3, 99, 2):
            value = integrated_osc_sum(n, n // 2, T)
            assert abs(value - T * (1 - n)) <= 1e-12 * T * (n - 1)

    def test_bound_formula_values(self):
        assert abs(integrated_osc_bound(5) - 32 * (5 * math.log(5)) ** 2) == 0.0
        assert abs(integrated_osc_bound(5) - 2072.23) < 0.01
        assert abs(integrated_osc_bound(19) - 100152.6) < 0.1
        assert abs(integrated_osc_bound(101) - 6.9528e6) < 1e3

    def test_bound_holds_on_spec_point(self):
        assert abs(integrated_osc_sum(19, 0, 100.0)) <= integrated_osc_bound(19)

    def test_bound_holds_on_small_grid(self):
        for n in (5, 9, 15, 33):
            for l in (0, 1, n // 2):
                for T in (10.0, 100.0):
                    assert abs(integrated_osc_sum(n, l, T)) <= integrated_osc_bound(n)

    def test_parity_rejection(self):
        with pytest.raises(ParityError):
            integrated_osc_sum(8, 0, 1.0)
        with pytest.raises(ParityError):
            integrated_osc_bound(4)


class TestProductIntegral:
    def test_vanishes_at_zero_horizon(self):
        # integrand at t = 0 is (n1-1)^2 * (n2-1)^2, so the integral shrinks
        # linearly with the horizon
        T = 1e-9
        value = product_integral(19, 5, (0, 0), T, 0.02)
        assert abs(value - T * 18**2 * 4**2) < 1e-12

    def test_quadrature_matches_exact_form(self):
        for T in (10.0, 100.0):
            quad = product_integral(19, 5, (0, 0), T, 0.02)
            exact = product_integral_exact(19, 5, (0, 0), T)
            assert abs(quad - exact) <= 1e-4 * max(1.0, abs(exact))

    @pytest.mark.parametrize("pair", [(19, 5), (13, 11), (23, 21)])
    def test_exact_matches_unfolded_product(self, pair):
        for offsets in ((0, 0), (4, 3)):
            for T in HORIZONS:
                exact = product_integral_exact(*pair, offsets, T)
                oracle = unfolded_product_integral(*pair, offsets, T)
                assert abs(exact - oracle) <= 1e-9 * abs(oracle)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -5.0])
    def test_closed_forms_refuse_bad_horizon(self, T):
        with pytest.raises(ValueError):
            product_integral_exact(19, 5, (0, 0), T)
        with pytest.raises(ValueError):
            integrated_osc_sum(19, 0, T)

    def test_nonzero_offsets_agree_too(self):
        quad = product_integral(13, 11, (4, 7), 50.0, 0.02)
        exact = product_integral_exact(13, 11, (4, 7), 50.0)
        assert abs(quad - exact) <= 1e-4 * max(1.0, abs(exact))

    def test_step_halving_converges(self):
        grid = [10.0, 100.0]
        coarse, _ = product_integral_curve(19, 5, (0, 0), grid, 0.02)
        fine, _ = product_integral_curve(19, 5, (0, 0), grid, 0.01)
        rel = np.abs(coarse - fine) / np.maximum(np.abs(fine), 1e-30)
        assert rel.max() <= 1e-5

    def test_halved_curve_is_the_half_step_curve(self):
        # segment lengths 10 and 90 are multiples of dt, so the halving
        # sweep's fine node set is exactly the node set of dt/2
        grid = [10.0, 100.0]
        curve, halved = product_integral_curve(19, 5, (0, 0), grid, 0.02, halving=True)
        plain, none = product_integral_curve(19, 5, (0, 0), grid, 0.02)
        fine, _ = product_integral_curve(19, 5, (0, 0), grid, 0.01)
        assert none is None
        assert np.all(np.abs(curve - plain) <= 1e-12 * np.abs(plain))
        assert np.all(np.abs(halved - fine) <= 1e-12 * np.abs(fine))

    def test_chunked_segments_match_one_chunk(self, monkeypatch):
        # 64-node chunks cut every segment (500 and 1234 fine nodes) into
        # many pieces, ragged at the end; the halved curve's coarse nodes
        # stay on even chunk starts
        grid = [5.0, 11.17]
        curve, halved = product_integral_curve(19, 5, (1, 2), grid, 0.02, halving=True)
        plain, _ = product_integral_curve(19, 5, (1, 2), grid, 0.02)
        monkeypatch.setattr(oscsums, "_CURVE_CHUNK", 64)
        curve64, halved64 = product_integral_curve(19, 5, (1, 2), grid, 0.02, halving=True)
        plain64, _ = product_integral_curve(19, 5, (1, 2), grid, 0.02)
        assert np.all(np.abs(curve64 - curve) <= 1e-12 * np.abs(curve))
        assert np.all(np.abs(halved64 - halved) <= 1e-12 * np.abs(halved))
        assert np.all(np.abs(plain64 - plain) <= 1e-12 * np.abs(plain))

    @pytest.mark.parametrize("chunk, anchor_rows, halving", [(_GRID_GROUP_NODES, 1024, True),
                                                             (64, 3, True), (64, 3, False)])
    def test_each_fill_is_one_group_of_whole_blocks_at_its_chunk_start(self, monkeypatch, chunk,
                                                                        anchor_rows, halving):
        # segments of 500, 808 and 10000 fine intervals: at 8224-node chunks
        # one ragged chunk each, the last a whole group and then a ragged one;
        # each chunk's anchor, taken in one call with up to anchor_rows - 1
        # other chunks' anchors, is bitwise the exact-phase call at its first
        # node alone, times the offset's row c_a(l)/n; without halving the
        # nodes are those of step h, half as many
        grid, split = [5.0, 13.08, 113.08], 2 if halving else 1
        curve, halved = product_integral_curve(19, 5, (1, 2), grid, 0.02, halving=halving)
        fill, calls = oscsums._grid_fill, []

        def spy(tables, anchor, out):
            calls.append((tables, anchor.copy(), out.size))
            return fill(tables, anchor, out)

        monkeypatch.setattr(oscsums, "_grid_fill", spy)
        monkeypatch.setattr(oscsums, "_CURVE_CHUNK", chunk)
        monkeypatch.setattr(oscsums, "_ANCHOR_ROWS", anchor_rows)
        spied, spied_halved = product_integral_curve(19, 5, (1, 2), grid, 0.02, halving=halving)
        expected = []
        for t0, length in zip([0.0] + grid[:-1], np.diff(grid, prepend=0.0)):
            intervals = simpson_intervals(length, 0.02)
            h, count = length / intervals / split, split * intervals + 1
            for lo in range(0, count, chunk):
                span = -(-(min(lo + chunk, count) - lo) // _GRID_BLOCK) * _GRID_BLOCK
                for n, offset in ((19, 1), (5, 2)):
                    tables, table = _grid_tables(n, h, HALF), class_table(n)
                    anchor = _exact_phases(tables[0], t0, h, float(lo))
                    expected.append((tables, anchor * (table.cosines[offset] / n), span))
        assert len(calls) == len(expected)
        for (tables, anchor, size), (want_tables, want_anchor, want_size) in zip(calls, expected):
            assert tables is want_tables and size == want_size
            assert np.array_equal(anchor, want_anchor)
        assert all(size % _GRID_BLOCK == 0 and size <= _GRID_GROUP_NODES for _, _, size in calls)
        assert np.all(np.abs(spied - curve) <= 1e-12 * np.abs(curve))
        if halving:
            assert np.all(np.abs(spied_halved - halved) <= 1e-12 * np.abs(halved))
        else:
            assert spied_halved is None
        if chunk == _GRID_GROUP_NODES:
            assert np.array_equal(spied, curve) and np.array_equal(spied_halved, halved)

    @pytest.mark.parametrize("pair, offsets", [((19, 5), (4, 7)), ((13, 11), (4, 7)),
                                               ((21, 19), (0, 0)), ((21, 19), (4, 7))])
    def test_curve_matches_plain_simpson_of_node_products(self, pair, offsets):
        # 12.345 is no multiple of dt: one ragged segment of 618 coarse and
        # 1236 fine intervals, the same counts plain Simpson takes at dt and
        # dt/2; the nodes come from the arbitrary-time route
        T = 12.345
        curve, halved = product_integral_curve(*pair, offsets, [T], 0.02, halving=True)

        def product(ts):
            return osc_sum_fast(pair[0], offsets[0], ts) * osc_sum_fast(pair[1], offsets[1], ts)

        for value, dt in ((curve[0], 0.02), (halved[0], 0.01)):
            oracle = simpson_integral(product, 0.0, T, dt)
            assert abs(value - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("offsets", [(0, 0), (4, 7)])
    def test_segments_of_different_steps_match_the_closed_form(self, offsets):
        # segments of 1, 1.5 and 9.845 take the steps 1/50, 1.5/76 and
        # 9.845/494, so a grid table kept from an earlier segment would put
        # the later nodes at the wrong times (0.4% off at 12.345)
        grid = [1.0, 2.5, 12.345]
        curve, halved = product_integral_curve(21, 19, offsets, grid, 0.02, halving=True)
        for T, value, fine in zip(grid, curve, halved):
            exact = product_integral_exact(21, 19, offsets, T)
            assert abs(value - exact) <= 1e-8 * abs(exact)
            assert abs(fine - exact) <= 1e-8 * abs(exact)

    def test_halving_off_the_dt_lattice(self):
        # 12.345 is no multiple of dt: the coarse step is 12.345/618, and
        # the halved curve runs at exactly half of it
        reports = bound_sweep([(19, 5)], [12.345], dt=0.02, check_halving=True)
        assert reports[0]["halving_rel"] <= 1e-5

    def test_one_offset_builds_only_its_class_pair_row(self):
        # the whole pair table of Z_1001 would hold 1001 * 501^2 doubles, 1.9 GiB,
        # and that of Z_1291 646^3, over the cap, while one row holds 646^2
        assert integrated_osc_sum(1001, 5, 10.0) != 0.0
        assert integrated_osc_sum(1291, 5, 10.0) != 0.0
        averaged_return_probability(LatticeSpec((1001,)), [3.0])
        assert "pair_coeff" not in vars(class_table(1001))

    def test_grid_refuses_phase_past_the_limit(self, monkeypatch):
        # the last horizon reaches HALF*T = 2**52, and a segment of 2**52 or
        # more intervals cannot be indexed: both are refused before any grid
        # table is built, so before any node is evaluated; the first horizon alone
        # is not refused
        def must_not_run(*args):
            raise AssertionError("a grid table was built")

        monkeypatch.setattr(oscsums, "_grid_tables", must_not_run)
        with pytest.raises(ValueError, match="past the phase limit 2"):
            product_integral_curve(19, 5, (1, 2), [10.0, 2.0**53], 0.02)
        with pytest.raises(ValueError, match="past the grid limit 2"):
            product_integral_curve(19, 5, (1, 2), [10.0, 1e15], 0.02)
        with pytest.raises(ValueError, match="needs inf intervals"):
            product_integral_curve(19, 5, (1, 2), [10.0], 1e-320)
        monkeypatch.undo()
        curve, _ = product_integral_curve(19, 5, (1, 2), [10.0], 0.02)
        assert np.isfinite(curve).all()

    def test_exact_path_size_guard(self):
        # 137*73 = 10001 is the smallest odd coprime product over the cap
        for n1, n2 in ((103, 101), (137, 73)):
            with pytest.raises(ValueError, match=f"n1\\*n2 = {n1 * n2} exceeds exact-path cap"):
                product_integral_exact(n1, n2, (0, 0), 10.0)

    def test_precondition_checks(self):
        with pytest.raises(ValueError):
            product_integral(5, 19, (0, 0), 10.0, 0.02)       # n1 <= n2
        with pytest.raises(ValueError):
            product_integral(15, 5, (0, 0), 10.0, 0.02)       # not coprime
        with pytest.raises(ParityError):
            product_integral(8, 5, (0, 0), 10.0, 0.02)        # parity
        with pytest.raises(ResolutionError):
            product_integral(19, 5, (0, 0), 10.0, 0.1)        # dt too big
        with pytest.raises(ResolutionError):
            product_integral_curve(19, 5, (0, 0), [10.0], 0.0)
        with pytest.raises(ValueError, match="strictly decreasing"):
            product_integral_exact(5, 5, (0, 0), 10.0)        # equal lengths
        with pytest.raises(ValueError, match="strictly increasing, got T = 10.0"):
            product_integral_curve(19, 5, (0, 0), [10.0, 10.0], 0.02)
        for T in (math.nan, math.inf):                        # not finite
            with pytest.raises(ValueError, match=f"T = {T}"):
                product_integral_curve(19, 5, (0, 0), [10.0, T], 0.02)
        with pytest.raises(ValueError, match="need a non-empty 1-D horizon grid"):
            product_integral_curve(19, 5, (0, 0), [], 0.02)


class TestProductBound:
    def test_pair_value(self):
        expected = 32 * 19 * (5 * math.log(5)) ** 2 + 32 * 5 * (19 * math.log(19)) ** 2
        assert abs(product_integral_bound((19, 5)) - expected) < 1e-9
        assert abs(expected - 5.401e5) < 1e3

    def test_symmetric_in_the_pair(self):
        # the formula treats the two cycles symmetrically even though the
        # argument order is pinned to decreasing lengths
        n1, n2 = 19, 5
        swapped = 32 * n2 * (n1 * math.log(n1)) ** 2 + 32 * n1 * (n2 * math.log(n2)) ** 2
        assert abs(product_integral_bound((n1, n2)) - swapped) < 1e-9

    def test_three_factor_value(self):
        expected = 48 * (
            15 * (7 * math.log(7)) ** 2
            + 21 * (5 * math.log(5)) ** 2
            + 35 * (3 * math.log(3)) ** 2
        )
        assert abs(product_integral_bound((7, 5, 3)) - expected) < 1e-9

    def test_preconditions(self):
        with pytest.raises(ValueError):
            product_integral_bound((5, 19))
        with pytest.raises(ValueError):
            product_integral_bound((15, 5))
        with pytest.raises(ParityError):
            product_integral_bound((8, 5))
        with pytest.raises(ValueError):
            product_integral_bound((7,))


class TestSweep:
    def test_empty_pair_set(self):
        assert bound_sweep([], [10.0]) == []

    def test_single_pair_satisfied(self):
        reports = bound_sweep([(13, 11)], [10.0, 100.0, 1000.0])
        assert len(reports) == 3
        assert all(r["satisfied"] for r in reports)

    def test_pool_capped_at_pair_count(self, monkeypatch):
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(oscsums, "ProcessPoolExecutor", RecordingPool)
        reports = bound_sweep([(13, 11), (15, 13)], [10.0], workers=10_000)
        assert requested == [2]
        assert len(reports) == 2

    def test_report_consistency(self):
        row = bound_row({"x": 1}, lhs=2.0, rhs=1.0)
        assert row == {"x": 1, "lhs": 2.0, "rhs": 1.0, "satisfied": False}
        assert bound_row({"x": 1}, lhs=1.0, rhs=1.0)["satisfied"]

    @pytest.mark.parametrize("offset", [(1, 5), None])
    def test_offset_is_echoed_and_used(self, offset):
        # without an offset the sweep checks the origin pair (0, 0)
        grid = [10.0, 100.0]
        kwargs = {} if offset is None else {"offset": offset}
        reports = bound_sweep([(13, 11)], grid, dt=0.02, **kwargs)
        offset = offset or (0, 0)
        curve, _ = product_integral_curve(13, 11, offset, grid, 0.02)
        assert [(r["offset1"], r["offset2"]) for r in reports] == [offset] * 2
        assert [r["lhs"] for r in reports] == list(np.abs(curve))

    def test_halving_gap_is_relative_below_one(self):
        # at T = 1e-4 the integral is about 0.5, so the gap is divided by
        # it, not by a floor of 1
        [report] = bound_sweep([(19, 5)], [1e-4], check_halving=True)
        curve, halved = product_integral_curve(19, 5, (0, 0), [1e-4], 0.02, halving=True)
        assert abs(halved[0]) < 1.0
        assert report["halving_rel"] == abs(curve[0] - halved[0]) / abs(halved[0])

    def test_pair_enumeration(self):
        pairs = coprime_odd_pairs(10, 20)
        assert (13, 11) in pairs
        assert (15, 13) in pairs
        assert all(n1 > n2 and n1 % 2 == n2 % 2 == 1 for n1, n2 in pairs)
        assert (15, 11)[::-1] not in pairs
        assert not any(math.gcd(a, b) > 1 for a, b in pairs)

    def test_pair_range_includes_both_ends(self):
        assert coprime_odd_pairs(1, 7) == [(5, 3), (7, 3), (7, 5)]
        assert coprime_odd_pairs(10, 13) == [(13, 11)]
        assert coprime_odd_pairs(11, 13) == [(13, 11)]
        assert coprime_odd_pairs(12, 13) == []

    def test_pairs_are_a_fresh_list_each_call(self):
        # the pairs are computed once per range; a caller's edit reaches no other caller
        pairs = coprime_odd_pairs(10, 20)
        pairs.clear()
        assert coprime_odd_pairs(10, 20) == [(13, 11), (15, 11), (17, 11), (19, 11), (15, 13),
                                             (17, 13), (19, 13), (17, 15), (19, 15), (19, 17)]
        assert coprime_odd_pairs(10, 20) is not coprime_odd_pairs(10, 20)

    def test_sampling_is_deterministic(self):
        a = sample_coprime_odd_pairs(10, 100, 10, seed=3)
        b = sample_coprime_odd_pairs(10, 100, 10, seed=3)
        assert a == b
        assert len(a) == 10
