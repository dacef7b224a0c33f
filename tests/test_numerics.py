"""Gaussian special functions, quadrature oracle, and seed lineage."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cltlab.errors import DomainError, QuadratureError
from cltlab.numerics import (
    BLOCK_STRIDE,
    SeedLineage,
    csv_text,
    integral_of_phi,
    normal_abs_moment,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    quadrature,
    splitmix64,
)


class TestNormalCdf:
    def test_golden_values(self):
        # [DERIVED] mpmath mp.dps=50: ncdf(1) = 0.84134474606854292578...
        assert normal_cdf(0.0) == 0.5
        assert abs(normal_cdf(1.0) - 0.8413447460685429) <= 1e-15
        assert 0.0 < normal_cdf(-8.0) < 1e-14

    def test_array_shape_and_scalar_type(self):
        out = normal_cdf(np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        assert isinstance(normal_cdf(0.3), float)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            normal_cdf(float("nan"))

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_symmetry(self, x):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 1e-15

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_pdf_is_cdf_slope(self, x):
        h = 1e-6
        slope = (normal_cdf(x + h) - normal_cdf(x - h)) / (2 * h)
        assert abs(slope - normal_pdf(x)) <= 1e-7


class TestNormalQuantile:
    def test_golden_values(self):
        assert normal_quantile(0.5) == 0.0
        assert abs(normal_quantile(0.8413447460685429) - 1.0) <= 1e-10

    def test_deep_tail_stays_finite(self):
        q = normal_quantile(1e-300)
        assert math.isfinite(q)
        assert -40.0 < q < -35.0

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.3, float("nan")])
    def test_rejects_outside_open_interval(self, u):
        with pytest.raises(DomainError):
            normal_quantile(u)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_roundtrip_identity(self, x):
        # Conditioning is 1/phi(x), so past |x| ~ 5.5 one ulp in the cdf
        # already moves the quantile by more than 1e-9.
        assert abs(normal_quantile(normal_cdf(x)) - x) <= 1e-9


class TestNormalAbsMoment:
    def test_golden_values(self):
        # [DERIVED] mpmath 2^{p/2} Gamma((p+1)/2)/sqrt(pi):
        #   p=1 -> 0.79788456080286535..., p=3 -> 1.59576912160573071...
        assert abs(normal_abs_moment(2.0) - 1.0) <= 1e-14
        assert abs(normal_abs_moment(1.0) - 0.7978845608028654) <= 1e-12
        assert abs(normal_abs_moment(3.0) - 1.5957691216057308) <= 1e-12

    def test_matches_quadrature(self):
        for p in (2.5, 3.0, 3.7):
            val = quadrature(lambda y: abs(y) ** p * normal_pdf(y), -12.0, 12.0, tol=1e-12)
            assert abs(val - normal_abs_moment(p)) <= 1e-10

    @pytest.mark.parametrize("p", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_order(self, p):
        with pytest.raises(DomainError):
            normal_abs_moment(p)


class TestIntegralOfPhi:
    def test_golden_values(self):
        # [DERIVED] J(x) = x*Phi(x) + phi(x); J(0) = 1/sqrt(2*pi),
        # J(1) = Phi(1) + phi(1) = 1.08331547058768632... (mpmath, 50 digits).
        assert abs(integral_of_phi(0.0) - 0.3989422804014327) <= 1e-15
        assert abs(integral_of_phi(1.0) - 1.0833154705876863) <= 1e-15
        assert 0.0 <= integral_of_phi(-40.0) < 1e-300

    def test_matches_quadrature(self):
        for x in (-2.0, -0.3, 0.0, 0.7, 1.0, 2.5):
            direct = quadrature(normal_cdf, -14.0, x, tol=1e-12)
            assert abs(direct - integral_of_phi(x)) <= 1e-10

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_dominates_positive_part(self, x):
        assert integral_of_phi(x) >= max(x, 0.0) - 1e-12

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_shift_identity(self, x):
        # J(x) - J(-x) = x exactly (integral of Phi(t) + Phi(-t) = 1).
        assert abs((integral_of_phi(x) - integral_of_phi(-x)) - x) <= 1e-12

    def test_convexity_on_grid(self):
        xs = np.linspace(-6.0, 6.0, 241)
        j = integral_of_phi(xs)
        second = j[2:] - 2.0 * j[1:-1] + j[:-2]
        assert np.all(second >= -1e-10)


class TestQuadrature:
    def test_constant(self):
        assert abs(quadrature(lambda t: 1.0, 0.0, 1.0, tol=1e-12) - 1.0) <= 1e-12

    def test_gaussian_mass(self):
        assert abs(quadrature(normal_pdf, -10.0, 10.0, tol=1e-13) - 1.0) <= 1e-12

    def test_orientation_antisymmetry(self):
        fwd = quadrature(lambda t: t * t, 0.0, 2.0, tol=1e-12)
        rev = quadrature(lambda t: t * t, 2.0, 0.0, tol=1e-12)
        assert abs(fwd + rev) <= 1e-14
        assert abs(fwd - 8.0 / 3.0) <= 1e-11

    def test_budget_exhaustion_raises(self):
        # Highly oscillatory integrand with a tiny budget must fail loudly.
        with pytest.raises(QuadratureError):
            quadrature(lambda t: math.sin(1000.0 * t), 0.0, 50.0, tol=1e-14, max_evals=50)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            quadrature(lambda t: 1.0, 0.0, float("inf"))
        with pytest.raises(DomainError):
            quadrature(lambda t: 1.0, 0.0, 1.0, tol=0.0)
        with pytest.raises(DomainError):
            quadrature(lambda t: float("nan"), 0.0, 1.0)

    def test_zero_width(self):
        assert quadrature(lambda t: 5.0, 2.0, 2.0) == 0.0


class TestSplitmix64:
    def test_published_vector(self):
        # First output of the reference SplitMix64 stream seeded with 0.
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_bijection_spot_check(self):
        outs = {splitmix64(z) for z in range(4096)}
        assert len(outs) == 4096

    def test_stays_in_64_bits(self):
        for z in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(z) < 2**64


class TestSeedLineage:
    def test_reproducible_draws(self):
        a = SeedLineage(12345, 7).generator().standard_normal(32)
        b = SeedLineage(12345, 7).generator().standard_normal(32)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_disagree(self):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(1000):
            master = int(rng.integers(0, 2**63))
            stream = int(rng.integers(0, 2**63))
            head = tuple(SeedLineage(master, stream).generator().integers(0, 2**32, 4).tolist())
            assert head not in seen
            seen.add(head)

    def test_key_construction(self):
        lin = SeedLineage(99, 3)
        k0 = splitmix64(99)
        assert lin.philox_key() == (k0, splitmix64(k0 ^ 3))

    def test_stream_for_layout(self):
        assert BLOCK_STRIDE == 1 << 40
        assert SeedLineage.stream_for(3, 5) == 3 * (1 << 40) + 5
        assert SeedLineage.stream_for(0, 0) == 0
        with pytest.raises(DomainError):
            SeedLineage.stream_for(-1, 0)
        with pytest.raises(DomainError):
            SeedLineage.stream_for(0, BLOCK_STRIDE)

    def test_field_validation(self):
        with pytest.raises(DomainError):
            SeedLineage(-1, 0)
        with pytest.raises(DomainError):
            SeedLineage(0, 2**64)
        with pytest.raises(DomainError):
            SeedLineage(1.5, 0)


class TestCsvText:
    def test_cells_and_free_text_quoting(self):
        text = csv_text(("id", "value", "exact", "formula"), [("a", 0.1, True, 'x "y", z')])
        assert text == 'id,value,exact,formula\na,0.1,true,"x ""y"", z"\n'

    def test_row_width_must_match_header(self):
        with pytest.raises(ValueError):
            csv_text(("id", "value"), [("a",)])
