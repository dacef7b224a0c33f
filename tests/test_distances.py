"""Exact one-dimensional distance algorithms against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cltlab.distances import (
    DISTANCE_CSV_COLUMNS,
    DKW_ALPHA,
    TRANSFER_CONSTANT,
    DistanceReport,
    EmpiricalSample,
    be_transfer,
    compute_report,
    kolmogorov_se,
    kolmogorov_vs_normal,
    reports_to_csv,
    w1_se_batch_means,
    w1_vs_normal,
    wr_quantile_coupling,
)
from cltlab.errors import DomainError
from cltlab.numerics import integral_of_phi, normal_cdf, normal_quantile

from helpers import w1_by_quadrature


def sample_of(*values) -> EmpiricalSample:
    return EmpiricalSample.from_values(np.array(values, dtype=float))


finite_samples = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=60),
    elements=st.floats(min_value=-6.0, max_value=6.0),
)


class TestEmpiricalSample:
    def test_from_values_sorts(self):
        s = EmpiricalSample.from_values(np.array([2.0, -1.0, 0.5]))
        np.testing.assert_array_equal(s.values, [-1.0, 0.5, 2.0])
        assert s.replicates == 3

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(DomainError):
            EmpiricalSample(np.array([1.0, 0.0]))

    def test_rejects_empty_nan_and_2d(self):
        with pytest.raises(DomainError):
            EmpiricalSample(np.array([]))
        with pytest.raises(DomainError):
            EmpiricalSample(np.array([0.0, float("nan")]))
        with pytest.raises(DomainError):
            EmpiricalSample(np.zeros((2, 2)))


class TestKolmogorov:
    def test_two_point_golden(self):
        # [DERIVED] sample {-1, 1}: sup gap is Phi(1) - 1/2 on either side.
        assert abs(kolmogorov_vs_normal(sample_of(-1.0, 1.0)) - 0.3413447460685429) <= 1e-15

    def test_point_mass_at_zero(self):
        assert kolmogorov_vs_normal(sample_of(0.0)) == 0.5

    def test_quantile_grid_is_near_zero(self):
        r = 10**6
        grid = normal_quantile((np.arange(1, r + 1) - 0.5) / r)
        d = kolmogorov_vs_normal(EmpiricalSample(grid))
        assert d <= 0.5 / r + 1e-9

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.standard_normal(200))
        cdf = normal_cdf(x)
        i = np.arange(1, 201)
        brute = max(np.max(i / 200 - cdf), np.max(cdf - (i - 1) / 200))
        assert abs(kolmogorov_vs_normal(EmpiricalSample(x)) - brute) <= 1e-15

    @given(finite_samples)
    @settings(max_examples=50, deadline=None)
    def test_range_and_translation_monotonicity(self, raw):
        s = EmpiricalSample.from_values(raw)
        d = kolmogorov_vs_normal(s)
        assert 0.0 <= d <= 1.0
        far = EmpiricalSample.from_values(raw + 50.0)
        assert kolmogorov_vs_normal(far) >= d - 1e-12


class TestW1:
    def test_point_mass_golden(self):
        # [DERIVED] W1(delta_0, N(0,1)) = E|Z| = sqrt(2/pi).
        assert abs(w1_vs_normal(sample_of(0.0)) - 0.7978845608028654) <= 1e-12

    def test_two_point_golden(self):
        # [DERIVED] W1({-1,1}, N(0,1)) = 2*(J(1) - J(0)) - 1 + 2*J(-1)
        # = 0.53537732154787984 (mpmath, 50 digits).
        val = w1_vs_normal(sample_of(-1.0, 1.0))
        formula = (
            2.0 * (integral_of_phi(1.0) - integral_of_phi(0.0))
            - 1.0
            + 2.0 * integral_of_phi(-1.0)
        )
        assert abs(val - 0.53537732154787984) <= 1e-15
        assert abs(val - formula) <= 1e-15
        assert abs(val - w1_by_quadrature([-1.0, 1.0])) <= 1e-9

    def test_large_normal_sample_is_small(self):
        rng = np.random.default_rng(11)
        s = EmpiricalSample.from_values(rng.standard_normal(10**7))
        assert w1_vs_normal(s) <= 2e-3

    def test_quadrature_equivalence_random_samples(self):
        # The core oracle equivalence: 200 random small samples, piecewise
        # quadrature of |F_hat - Phi| versus the closed-form evaluator.
        rng = np.random.default_rng(2024)
        for _ in range(200):
            r = int(rng.integers(1, 65))
            kind = rng.integers(0, 3)
            if kind == 0:
                vals = rng.standard_normal(r)
            elif kind == 1:
                vals = rng.uniform(-4.0, 4.0, r)
            else:
                vals = np.round(rng.standard_normal(r) * 2.0) / 2.0  # heavy ties
            s = EmpiricalSample.from_values(vals)
            assert abs(w1_vs_normal(s) - w1_by_quadrature(s.values)) <= 1e-8

    @given(finite_samples)
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_triangle_vs_mean_shift(self, raw):
        s = EmpiricalSample.from_values(raw)
        d = w1_vs_normal(s)
        assert d >= 0.0
        # W1 to the Gaussian is at least |mean| (dual with f(x) = x).
        assert d >= abs(float(np.mean(raw))) - 1e-10


class TestWrCoupling:
    def test_two_point_golden_r1(self):
        # [DERIVED] midpoint-grid coupling of {-1,1} at R=2:
        # mean(|x - q|) with q = Phi^{-1}({1/4, 3/4}).
        val, upper = wr_quantile_coupling(sample_of(-1.0, 1.0), 1.0)
        assert abs(val - 0.32551024980391826) <= 1e-15
        assert upper is False

    def test_quantile_grid_r1_is_tiny(self):
        r = 1000
        grid = normal_quantile((np.arange(1, r + 1) - 0.5) / r)
        val, _ = wr_quantile_coupling(EmpiricalSample(grid), 1.0)
        assert val <= 1e-3

    def test_r1_replication_approaches_w1(self):
        # Replicating a fixed sample 10^5-fold makes the discretized optimal
        # coupling converge to the exact W1 of the two-point law.
        base = np.array([-1.0, 1.0])
        big = EmpiricalSample.from_values(np.repeat(base, 10**5))
        val, _ = wr_quantile_coupling(big, 1.0)
        assert abs(val - w1_vs_normal(sample_of(-1.0, 1.0))) <= 1e-3

    def test_fractional_order_flags_upper_bound(self):
        val, upper = wr_quantile_coupling(sample_of(0.0, 0.5), 0.5)
        assert upper is True
        assert val > 0.0

    @pytest.mark.parametrize("r", [0.0, -0.5, 1.5, float("nan")])
    def test_rejects_bad_order(self, r):
        with pytest.raises(DomainError):
            wr_quantile_coupling(sample_of(0.0), r)


class TestBeTransfer:
    def test_goldens(self):
        assert be_transfer(0.0, 3.0) == 0.0
        assert abs(be_transfer(1.0, 3.0) - 1.3989422804014327) <= 1e-15
        # [DERIVED] (1 + 1/sqrt(2 pi)) * 0.25^{1/2} = 0.69947114020071635...
        assert abs(be_transfer(0.25, 3.0) - 0.6994711402007164) <= 1e-15

    def test_constant(self):
        assert abs(TRANSFER_CONSTANT - (1.0 + 1.0 / math.sqrt(2.0 * math.pi))) <= 1e-16

    def test_exponent_depends_on_p(self):
        # p = 2.5 pairs with r = 1/2 and exponent 1/(p-1) = 2/3.
        assert abs(be_transfer(0.125, 2.5) - TRANSFER_CONSTANT * 0.125 ** (2.0 / 3.0)) <= 1e-15

    def test_rejects_bad_inputs(self):
        for p in (2.0, 3.5, float("nan")):
            with pytest.raises(DomainError):
                be_transfer(0.1, p)
        with pytest.raises(DomainError):
            be_transfer(-0.1, 3.0)
        with pytest.raises(DomainError):
            be_transfer(float("inf"), 3.0)


class TestStandardErrors:
    def test_dkw_golden(self):
        # sqrt(ln(2/0.05) / (2 R)) at R = 40: ln(40)/80.
        assert abs(kolmogorov_se(40) - math.sqrt(math.log(40.0) / 80.0)) <= 1e-15
        assert kolmogorov_se(100, alpha=0.05) > kolmogorov_se(400, alpha=0.05)
        with pytest.raises(DomainError):
            kolmogorov_se(0)

    def test_w1_batch_se_scales_like_sqrt(self):
        rng = np.random.default_rng(5)
        small = EmpiricalSample.from_values(rng.standard_normal(2000))
        big = EmpiricalSample.from_values(rng.standard_normal(32000))
        se_small = w1_se_batch_means(small)
        se_big = w1_se_batch_means(big)
        assert 0.0 < se_big < se_small
        ratio = se_small / se_big
        assert 1.5 < ratio < 11.0  # ~4 expected; noisy with 10 batches

    def test_w1_batch_se_small_sample_nan(self):
        assert math.isnan(w1_se_batch_means(sample_of(*range(5))))

    def test_batches_partition_the_sample(self):
        # Round-robin splits must cover every value exactly once.
        x = np.sort(np.random.default_rng(9).standard_normal(100))
        parts = [x[k::10] for k in range(10)]
        recombined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(recombined, x)


class TestReports:
    def _report(self, p=3.0):
        rng = np.random.default_rng(17)
        s = EmpiricalSample.from_values(rng.standard_normal(4000))
        return compute_report(s, model_id="toy", n=64, p=p)

    def test_report_fields(self):
        rep = self._report()
        assert rep.replicates == 4000
        assert rep.wr_r == 1.0
        assert rep.wr_is_upper_bound is False
        assert rep.transfer_bound() == be_transfer(rep.wr_value, 3.0)

    def test_default_coupling_order_tracks_p(self):
        rep = self._report(p=2.5)
        assert rep.wr_r == 0.5
        assert rep.wr_is_upper_bound is True

    def test_transfer_holds_gaussian_sample(self):
        assert self._report().transfer_holds()

    def test_transfer_check_requires_p3(self):
        with pytest.raises(DomainError):
            self._report(p=2.5).transfer_holds()

    def test_compute_report_rejects_bad_p(self):
        s = sample_of(0.0, 1.0)
        for p in (2.0, 3.2):
            with pytest.raises(DomainError):
                compute_report(s, "toy", 4, p)

    def test_csv_round_trip_exact(self):
        rep = self._report()
        text = reports_to_csv([rep])
        header, line, trailer = text.split("\n")
        assert header == ",".join(DISTANCE_CSV_COLUMNS)
        assert trailer == ""
        row = line.split(",")
        assert len(row) == len(DISTANCE_CSV_COLUMNS)
        assert row[0] == "toy"
        assert float(row[4]) == rep.kolmogorov  # repr round-trips bit-exactly
        assert float(row[6]) == rep.w1
        assert row[10] == "false"

    def test_determinism(self):
        a, b = self._report(), self._report()
        assert a == b
