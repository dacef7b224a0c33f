"""Gaussian special functions, quadrature oracle, and seed lineage."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from cltlab import numerics
from cltlab.errors import DomainError, QuadratureError
from cltlab.models import ModelSpec, ce
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
            # Phi from libm's erfc, not the port J is built on
            direct = quadrature(lambda t: 0.5 * math.erfc(-t / _SQRT2), -14.0, x, tol=1e-12)
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


def _both_signs(rng, lo, hi, size):
    x = rng.uniform(lo, hi, size)
    return np.concatenate((x, -x))


_RNG = np.random.default_rng(20_261_020)
_SQRT2 = math.sqrt(2.0)
# Arguments a of Phi by the branch of Cephes' ndtr that they reach, with
# z = |a| / sqrt(2): erf for z < 1, erfc's two rational fits for z < 8 and
# z >= 8, and erfc's underflow to 0 once z^2 passes log(DBL_MAX).
PHI_BRANCHES = {
    "erf": _RNG.uniform(-_SQRT2, _SQRT2, 4000),
    "erfc_below_8": _both_signs(_RNG, _SQRT2, 8.0 * _SQRT2, 2000),
    "erfc_from_8": _both_signs(_RNG, 8.0 * _SQRT2, 37.67, 2000),
    "underflow": _both_signs(_RNG, 37.68, 60.0, 500),
}
# Arguments u of Phi^-1 by the branch of Cephes' ndtri that they reach, with
# x = sqrt(-2 log min(u, 1 - u)): the centre for min(u, 1 - u) > e^-2, then
# the tail fits for x < 8 and x >= 8, on both sides.
_TAIL_BELOW_8 = np.exp(-_RNG.uniform(2.0, 32.0, 2000))
_TAIL_FROM_8 = np.exp(-_RNG.uniform(32.0, 700.0, 2000))
QUANTILE_BRANCHES = {
    "centre": _RNG.uniform(math.exp(-2.0), 1.0 - math.exp(-2.0), 4000),
    "tail_below_8": np.concatenate((_TAIL_BELOW_8, 1.0 - _TAIL_BELOW_8)),
    "tail_from_8": np.concatenate(
        (_TAIL_FROM_8, [1e-300, 5e-324], 1.0 - 10.0 ** -_RNG.uniform(14.0, 15.9, 500))
    ),
}


def _tail_x(u):
    return np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestCephesPort:
    """Phi, J and Phi^-1 give scipy.special's bits on every Cephes branch.

    There is one route, over arrays: a scalar or 0-d input runs as a
    one-element array and comes back a Python float, with the bits of the
    same argument inside an array."""

    def test_branch_arguments_reach_their_branch(self):
        z = {name: np.abs(a) / _SQRT2 for name, a in PHI_BRANCHES.items()}
        assert np.all(z["erf"] < 1.0)
        assert np.all((z["erfc_below_8"] >= 1.0) & (z["erfc_below_8"] < 8.0))
        assert np.all((z["erfc_from_8"] >= 8.0) & (z["erfc_from_8"] ** 2 <= numerics._MAXLOG))
        assert np.all(z["underflow"] ** 2 > numerics._MAXLOG)
        centre = QUANTILE_BRANCHES["centre"]
        assert np.all(np.minimum(centre, 1.0 - centre) > numerics._EXP_M2)
        assert np.all(_tail_x(QUANTILE_BRANCHES["tail_below_8"]) < 8.0)
        assert np.all(_tail_x(QUANTILE_BRANCHES["tail_from_8"]) >= 8.0)

    @pytest.mark.parametrize("branch", list(PHI_BRANCHES))
    def test_phi_and_j_match_scipy_bits(self, branch):
        a = PHI_BRANCHES[branch]
        ref = scipy.special.ndtr(a)
        j_ref = np.maximum(a * ref + np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi), 0.0)
        assert np.array_equal(_bits(normal_cdf(a)), _bits(ref))
        assert np.array_equal(_bits([normal_cdf(x) for x in a.tolist()]), _bits(ref))
        assert np.array_equal(_bits(integral_of_phi(a)), _bits(j_ref))
        assert np.array_equal(_bits([integral_of_phi(x) for x in a.tolist()]), _bits(j_ref))

    @pytest.mark.parametrize("branch", list(QUANTILE_BRANCHES))
    def test_quantile_matches_scipy_bits(self, branch):
        u = QUANTILE_BRANCHES[branch]
        ref = scipy.special.ndtri(u)
        assert np.array_equal(_bits(normal_quantile(u)), _bits(ref))
        assert np.array_equal(_bits([normal_quantile(x) for x in u.tolist()]), _bits(ref))

    def test_zero_dimensional_input_returns_a_float(self):
        assert isinstance(normal_quantile(np.float64(0.3)), float)
        assert isinstance(integral_of_phi(np.array(-2.0)), float)
        assert normal_cdf(np.array(1.5)) == normal_cdf(np.array([1.5]))[0]

    @pytest.mark.parametrize("branch", [*PHI_BRANCHES, *QUANTILE_BRANCHES])
    def test_scalar_zero_d_and_one_element_inputs_match_scipy_bits(self, branch):
        # every 40th argument: each call costs 25-45 us on one element
        if branch in PHI_BRANCHES:
            args = PHI_BRANCHES[branch][::40]
            refs = {normal_cdf: scipy.special.ndtr(args), integral_of_phi: integral_of_phi(args)}
        else:
            args = QUANTILE_BRANCHES[branch][::40]
            refs = {normal_quantile: scipy.special.ndtri(args)}
        for f, ref in refs.items():
            scalar = [f(x) for x in args.tolist()]
            zero_d = [f(np.array(x)) for x in args.tolist()]
            assert all(type(y) is float for y in scalar + zero_d)
            one = np.concatenate([f(args[i : i + 1]) for i in range(args.size)])
            for got in (scalar, zero_d, one):
                assert np.array_equal(_bits(got), _bits(ref))

    def test_matrix_keeps_its_shape(self):
        u = QUANTILE_BRANCHES["tail_below_8"][:12].reshape(3, 4)
        assert normal_quantile(u).shape == (3, 4)
        assert np.array_equal(normal_cdf(u), normal_cdf(u.ravel()).reshape(3, 4))


# Arguments of exp and log in the ranges the port takes them: erfc's -z^2,
# ndtri's y = min(u, 1 - u) on the tails (uniform and log-uniform halves)
# and its x = sqrt(-2 log y); a million of each, drawn afresh per test.
def _libm_args(name):
    rng = np.random.default_rng(20_261_021)
    if name == "exp_erfc":
        return np.exp, rng.uniform(-numerics._MAXLOG, -1.0, 1_000_000)
    if name == "log_ndtri_y":
        return np.log, np.concatenate((
            rng.uniform(1e-300, numerics._EXP_M2, 500_000),
            np.exp(rng.uniform(math.log(1e-300), -2.0, 500_000)),
        ))
    return np.log, rng.uniform(2.0, 39.0, 1_000_000)


LIBM_RANGES = ("exp_erfc", "log_ndtri_y", "log_ndtri_x")


class TestLibmRoute:
    """numpy's plain loop gives libm's exp and log bits, as math does, and
    the guard falls back to math when it does not."""

    @pytest.mark.parametrize("name", LIBM_RANGES)
    def test_loop_matches_math(self, name):
        f, x = _libm_args(name)
        assert np.array_equal(_bits(numerics._libm_loop(f, x)), _bits(numerics._libm_map(f, x)))

    @pytest.mark.parametrize("name", LIBM_RANGES)
    def test_loop_matches_math_at_every_small_size(self, name):
        f, x = _libm_args(name)
        for size in range(34):
            part = x[size * 40 : size * 41]  # fresh arguments at each size
            got = numerics._libm_loop(f, part)
            assert got.shape == (size,)
            assert np.array_equal(_bits(got), _bits(numerics._libm_map(f, part)))

    @pytest.mark.parametrize("f", [np.exp, np.log])
    def test_probe_holds_what_the_simd_loop_gets_wrong(self, f):
        # wherever numpy's contiguous loop differs from libm in the port's
        # ranges, it differs on the guard's probe too
        wrong = False
        for name in LIBM_RANGES:
            g, x = _libm_args(name)
            wrong |= g is f and not np.array_equal(_bits(f(x)), _bits(numerics._libm_map(f, x)))
        probe = numerics._libm_probe(f)
        assert wrong == (not np.array_equal(_bits(f(probe)), _bits(numerics._libm_map(f, probe))))

    def test_guard_takes_the_loop_that_matches(self, monkeypatch):
        monkeypatch.setattr(numerics, "_loop_agrees", {})
        normal_quantile(QUANTILE_BRANCHES["tail_below_8"])
        normal_cdf(PHI_BRANCHES["erfc_below_8"])
        assert numerics._loop_agrees == {np.exp: True, np.log: True}

    def test_guard_mismatch_falls_back_to_math(self, monkeypatch):
        def off_by_one_ulp(f, x):
            return np.nextafter(np.exp(x) if f is np.exp else np.log(x), np.inf)

        monkeypatch.setattr(numerics, "_loop_agrees", {})
        monkeypatch.setattr(numerics, "_libm_loop", off_by_one_ulp)
        for branch in ("erfc_below_8", "erfc_from_8"):
            a = PHI_BRANCHES[branch]
            assert np.array_equal(_bits(normal_cdf(a)), _bits(scipy.special.ndtr(a)))
        for branch in ("tail_below_8", "tail_from_8"):
            u = QUANTILE_BRANCHES[branch]
            assert np.array_equal(_bits(normal_quantile(u)), _bits(scipy.special.ndtri(u)))
        assert numerics._loop_agrees == {np.exp: False, np.log: False}

    def test_ce_draws_match_scipy_ndtri(self, monkeypatch):
        # three chunks of 1024 rows; off the window, the last k increments
        # are Phi^-1 of uniforms
        model = ce.CELowerBound(ModelSpec("ce_lowerbound", 256, 3.0))
        assert model.chunk_size() < 2500

        def run():
            rows = []
            sums = model.statistic_values(31, 2500, block=2, increments=rows.append)
            return sums, np.concatenate(rows)

        sums, rows = run()
        monkeypatch.setattr(ce, "normal_quantile", scipy.special.ndtri)
        ref_sums, ref_rows = run()
        assert np.array_equal(_bits(sums), _bits(ref_sums))
        assert np.array_equal(_bits(rows), _bits(ref_rows))
        assert np.any(sums == 0.0)  # the window branch was reached too


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

    def test_budget_exhaustion_raises(self, monkeypatch):
        # Highly oscillatory integrand with a tiny budget must fail loudly.
        monkeypatch.setattr(numerics, "QUADRATURE_MAX_EVALS", 50)
        with pytest.raises(QuadratureError, match="exceeded 50 evaluations"):
            quadrature(lambda t: math.sin(1000.0 * t), 0.0, 50.0, tol=1e-14)

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
