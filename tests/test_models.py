"""Model zoo: exact moment structure, sampling laws, and batch plumbing."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cltlab.errors import CapabilityError, ConfigurationError, DomainError
from cltlab.models import base, make_model
from cltlab.models.base import (
    DEFAULT_CHUNK,
    DRAW_BUDGET,
    PARALLEL_DRAW_WIDTH,
    ModelSpec,
    PathMoments,
)
from cltlab.models.ce import CEParams, CELowerBound, atom_fraction, branch_abs_moment
from cltlab.models.chain import RhoMixingChain
from cltlab.models import iid
from cltlab.models.iid import (
    GaussianIID,
    InnovationLadder,
    InnovationLaw,
    RademacherIID,
    gaussian_min_profile,
)
from cltlab.models.linear import LinearStatistic
from cltlab.models.seqdyn import SequentialMaps
from cltlab.numerics import BLOCK_STRIDE, SeedLineage, normal_abs_moment, normal_cdf, quadrature

from helpers import (
    ChainEnumeration,
    chain_autocovariance,
    chain_c_n_bound,
    chain_one_step_states,
    chain_spectral_gap_rho,
    chain_u_samples,
    increment_matrix,
    linear_chunk_routes,
    linear_covariance_vn,
    psi_mc_profile,
    sample_path,
)


def spec(family, n, p=3.0, **params):
    return ModelSpec(family=family, n=n, p=p, params=params)


ALL_FAMILIES = (
    spec("gaussian_iid", 6, sigma=[1.0, 2.0, 0.5, 1.5, 1.0, 3.0]),
    spec("rademacher_iid", 6),
    spec("ce_lowerbound", 32),
    spec("linear_statistic", 6, base={"kind": "ar1", "phi": 0.5}),
    spec("linear_statistic", 6, base={"kind": "ma", "theta": [1.0, -0.4, 0.2]}),
    spec("rho_mixing_chain", 6),
    spec("sequential_maps", 6, observable="cos12"),
)
FAMILY_IDS = (
    "gaussian_iid", "rademacher_iid", "ce_lowerbound", "linear_ar1", "linear_ma",
    "rho_mixing_chain", "sequential_maps",
)


def reference_row(model, lineage):
    """One replicate's draws from its own SeedLineage.generator(), the
    documented per-replicate construction the chunked streams must match."""
    row = np.empty(model._draw_width())
    model._draw_row(lineage.generator(), row)
    return row


def reference_rows(model, seed, block, replicates):
    return np.stack([
        reference_row(model, SeedLineage(seed, SeedLineage.stream_for(block, r)))
        for r in replicates
    ])


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(family="weibull", n=4)
        with pytest.raises(ConfigurationError):
            ModelSpec(family="gaussian_iid", n=0)
        with pytest.raises(ConfigurationError):
            ModelSpec(family="gaussian_iid", n=4, p=2.0)

    def test_dict_round_trip(self):
        s = spec("rademacher_iid", 8, p=2.5, sigma=2.0)
        assert ModelSpec.from_dict(s.to_dict()) == s
        with pytest.raises(ConfigurationError):
            ModelSpec.from_dict({"n": 4})

    def test_make_model_dispatch(self):
        cases = {
            "gaussian_iid": GaussianIID,
            "rademacher_iid": RademacherIID,
            "ce_lowerbound": CELowerBound,
            "linear_statistic": LinearStatistic,
            "rho_mixing_chain": RhoMixingChain,
            "sequential_maps": SequentialMaps,
        }
        for family, cls in cases.items():
            n = 32 if family == "ce_lowerbound" else 4
            assert isinstance(make_model(ModelSpec(family=family, n=n)), cls)


class TestPathMoments:
    def test_ladder_must_sum_to_vn(self):
        with pytest.raises(DomainError):
            PathMoments(sigma2=np.array([1.0, 1.0]), v_n=3.0, conditional_variance_constant=True)

    def test_delta_is_the_largest_scale_of_the_ladder(self):
        mo = PathMoments(sigma2=np.array([1.0, 4.0]), v_n=5.0, conditional_variance_constant=True)
        assert mo.delta_n == 2.0


class TestIIDFamilies:
    def test_affine_schedule_variance(self):
        # sigma_k = 1 + k/2 for n = 2: ladder (2.25, 4), V_2 = 6.25.
        m = GaussianIID(spec("gaussian_iid", 2, sigma={"rule": "affine", "intercept": 1.0, "slope": 1.0}))
        mom = m.moments()
        np.testing.assert_allclose(mom.sigma2, [2.25, 4.0], rtol=1e-15)
        assert abs(mom.v_n - 6.25) <= 1e-12
        assert abs(mom.delta_n - 2.0) <= 1e-12

    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            GaussianIID(spec("gaussian_iid", 2, sigma=-1.0))
        with pytest.raises(ConfigurationError):
            GaussianIID(spec("gaussian_iid", 2, sigma=[1.0, 2.0, 3.0]))
        with pytest.raises(ConfigurationError):
            GaussianIID(spec("gaussian_iid", 4, sigma={"rule": "affine", "intercept": 0.0, "slope": -1.0}))

    def test_gaussian_statistic_is_exactly_standard_normal(self):
        m = GaussianIID(spec("gaussian_iid", 3, sigma=[1.0, 2.0, 0.5]))
        vals = m.statistic_values(master_seed=11, replicates=20_000)
        assert abs(float(np.mean(vals))) <= 4.0 / math.sqrt(20_000)
        assert abs(float(np.var(vals)) - 1.0) <= 4.0 * math.sqrt(2.0 / 20_000)

    def test_rademacher_moment_capabilities(self):
        m = RademacherIID(spec("rademacher_iid", 10))
        assert m.sup_moment_ratio(3.0) == 1.0
        assert m.sum_abs_moments(2.5) == 10.0
        assert m.psi_closed_form(np.array([0.3, 7.0])).tolist() == [0.3, 1.0]

    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_rademacher_moments_match_sampled_increments(self, p):
        # |xi_k| = sigma_k on every row, so the sampled moments are exact
        sigma = np.array([0.5, 1.5, 2.0, 0.8, 1.2])
        m = RademacherIID(spec("rademacher_iid", 5, sigma=sigma.tolist()))
        moments = np.mean(np.abs(increment_matrix(m, master_seed=3, replicates=200)) ** p, axis=0)
        assert m.sup_moment_ratio(p) == pytest.approx(np.max(moments / sigma**2), rel=1e-12)
        assert m.sum_abs_moments(p) == pytest.approx(np.sum(moments), rel=1e-12)

    def test_rademacher_statistic_support(self):
        m = RademacherIID(spec("rademacher_iid", 1))
        vals = m.statistic_values(master_seed=5, replicates=64)
        assert set(np.unique(vals)) <= {-1.0, 1.0}

    def test_gaussian_psi_profile_matches_monte_carlo(self):
        rng = np.random.default_rng(42)
        z = rng.standard_normal(200_000)
        for t in (0.3, 1.0, 2.5):
            mc_vals = np.minimum(t * z * z, np.abs(z) ** 3)
            mc = float(np.mean(mc_vals))
            se = float(np.std(mc_vals) / math.sqrt(z.size))
            assert abs(float(gaussian_min_profile(t)) - mc) <= 3.0 * se

    def test_gaussian_psi_respects_scale_sup(self):
        m = GaussianIID(spec("gaussian_iid", 3, sigma=[0.5, 2.0, 1.0]))
        psi = m.psi_closed_form(np.array([1.0]))[0]
        assert abs(psi - 2.0 * float(gaussian_min_profile(1.0))) <= 1e-12


# A third law, defined only here: eps uniform on [-a, a] with a = sqrt(3), so
# Var eps = a^2 / 3 = 1 and E|eps|^p = a^p / (p + 1).
ROOT3 = math.sqrt(3.0)


def uniform_fill(g, row):
    g.random(out=row)
    row *= 2.0 * ROOT3
    row -= ROOT3


def uniform_min_profile(u):
    # |eps| is uniform on [0, a] and min(u x^2, x^3) is x^3 below x = u, so
    # E min(u eps^2, |eps|^3) = (v a^3 / 3 - v^4 / 12) / a with v = min(u, a)
    v = np.minimum(np.asarray(u, dtype=float), ROOT3)
    return (v * ROOT3**3 / 3.0 - v**4 / 12.0) / ROOT3


UNIFORM = InnovationLaw(uniform_fill, lambda p: ROOT3**p / (p + 1.0), uniform_min_profile)


class UniformIID(iid._IIDBase):
    law = UNIFORM


class TestInnovationLaws:
    SIGMA = [0.5, 1.5, 2.0, 0.8, 1.2]
    REPLICATES = 20_000

    def uniform_model(self):
        return UniformIID(spec("gaussian_iid", 5, sigma=self.SIGMA))

    def test_each_ladder_capability_is_written_once(self):
        for name in ("psi_closed_form", "sup_moment_ratio", "sum_abs_moments"):
            for cls in (GaussianIID, RademacherIID, LinearStatistic, UniformIID):
                assert getattr(cls, name) is getattr(InnovationLadder, name)
        for cls, law in ((GaussianIID, iid.GAUSSIAN), (RademacherIID, iid.RADEMACHER),
                         (LinearStatistic, iid.GAUSSIAN)):
            assert cls.law is law
        model = make_model(spec("rademacher_iid", 4))
        assert model._draw_row is iid.RADEMACHER.fill

    def test_laws_have_unit_variance(self):
        for law in (iid.GAUSSIAN, iid.RADEMACHER, UNIFORM):
            assert law.abs_moment(2.0) == pytest.approx(1.0, rel=1e-15)

    def test_third_law_psi_matches_monte_carlo(self):
        # t runs across the profile's kink at u = sqrt(3)
        m = self.uniform_model()
        t = np.array([0.1, 0.5, 1.0, 1.7, 2.5, 6.0])
        value, se = psi_mc_profile(m, self.REPLICATES, master_seed=7)(t)
        assert np.all(np.abs(m.psi_closed_form(t) - value) <= 4.0 * se)

    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_third_law_moments_match_sampled_increments(self, p):
        m = self.uniform_model()
        sigma = np.array(self.SIGMA)
        xi_p = np.abs(increment_matrix(m, master_seed=3, replicates=self.REPLICATES)) ** p
        root_r = math.sqrt(self.REPLICATES)
        sums = xi_p.sum(axis=1)
        assert abs(m.sum_abs_moments(p) - sums.mean()) <= 4.0 * sums.std(ddof=1) / root_r
        ratios = xi_p / sigma**2
        k = int(np.argmax(ratios.mean(axis=0)))
        assert k == int(np.argmax(sigma))
        sup = m.sup_moment_ratio(p)
        assert abs(sup - ratios[:, k].mean()) <= 4.0 * ratios[:, k].std(ddof=1) / root_r


class TestCELowerBound:
    def test_params_at_n100_p3(self):
        cp = CEParams.from_np(100, 3.0)
        assert abs(cp.a - math.sqrt(5.0)) <= 1e-12
        assert (cp.k, cp.m) == (20, 80)
        assert cp.a * cp.a <= 100 / 16  # the atom constants' hypothesis: 5 <= 6.25
        assert abs(cp.rate_exponent() + 0.25) <= 1e-15
        assert abs(cp.atom_lower_bound() - 0.12 * 100 ** -0.25) <= 1e-15

    def test_rejects_short_paths(self):
        with pytest.raises(ConfigurationError):
            CEParams.from_np(19, 3.0)
        with pytest.raises(ConfigurationError):
            CEParams.from_np(100, 2.0)

    def test_window_order_never_undercounts(self):
        for n in (20, 36, 64, 100, 256, 1000):
            for p in (2.2, 2.5, 3.0):
                cp = CEParams.from_np(n, p)
                assert cp.k >= 4.0 * cp.a**2 - 1e-6
                assert cp.k <= 4.0 * cp.a**2 + 1.0
                assert cp.m == n - cp.k

    def test_branch_probability_formula(self):
        cp = CEParams.from_np(100, 3.0)
        s = math.sqrt(80.0)
        want = 2.0 * (normal_cdf(2.0 * math.sqrt(5.0) / s) - normal_cdf(math.sqrt(5.0) / s))
        assert abs(cp.branch_probability() - want) <= 1e-15

    def test_branch_two_point_law_is_standardized(self):
        # The branch increment takes value -s/k w.p. k^2/(s^2+k^2) and k/s
        # otherwise; mean 0 and variance 1 hold identically in s.
        for s in (2.3, -3.1, 4.4):
            k = 20
            p_lo = k * k / (s * s + k * k)
            mean = p_lo * (-s / k) + (1.0 - p_lo) * (k / s)
            var = p_lo * (s / k) ** 2 + (1.0 - p_lo) * (k / s) ** 2
            assert abs(mean) <= 1e-15
            assert abs(var - 1.0) <= 1e-12

    def test_branch_abs_moment_formula(self):
        assert abs(branch_abs_moment(2.0, 5, 2.0) - 1.0) <= 1e-12
        with pytest.raises(DomainError):
            branch_abs_moment(0.0, 5, 3.0)

    def test_sample_path_bookkeeping(self):
        m = CELowerBound(spec("ce_lowerbound", 100))
        cp = m.params
        seen_zero = seen_partial = seen_off = False
        for r in range(400):
            lin = SeedLineage(7, r)
            path = sample_path(m, lin)
            assert path.increments.shape == (100,)
            draws = reference_row(m, lin)
            s_m = float(np.sum(draws[: cp.m]))
            np.testing.assert_array_equal(path.increments[: cp.m], draws[: cp.m])
            if cp.a <= abs(s_m) <= 2.0 * cp.a:
                b = int(np.count_nonzero(draws[cp.m :] <= cp.k**2 / (s_m * s_m + cp.k**2)))
                if b == cp.k:
                    assert path.path_sum == 0.0
                    seen_zero = True
                else:
                    want = s_m * (1.0 - b / cp.k) + (cp.k - b) * (cp.k / s_m)
                    assert path.path_sum == want
                    assert abs(path.path_sum - float(np.sum(path.increments))) <= 1e-9
                    seen_partial = True
            else:
                tail = path.increments[cp.m :]
                assert path.path_sum == s_m + float(np.sum(tail))
                seen_off = True
        assert seen_zero and seen_partial and seen_off

    def test_statistic_has_exact_atom_and_no_near_zeros(self):
        m = CELowerBound(spec("ce_lowerbound", 100))
        vals = m.statistic_values(master_seed=3, replicates=4000)
        frac, se = atom_fraction(vals)
        assert frac > 0.0
        assert frac >= m.params.atom_lower_bound() - 3.0 * se
        nonzero = vals[vals != 0.0]
        assert np.min(np.abs(nonzero)) > 1e-9

    def test_increment_matrix_rows_cancel_only_approximately(self):
        # Rows whose statistic is the exact atom still accumulate float dust
        # when summed naively; the exact-sum bookkeeping is what restores 0.
        m = CELowerBound(spec("ce_lowerbound", 100))
        vals = m.statistic_values(master_seed=3, replicates=600)
        mat = increment_matrix(m, master_seed=3, replicates=600)
        zero_rows = np.flatnonzero(vals == 0.0)
        assert zero_rows.size > 0
        naive = mat[zero_rows].sum(axis=1)
        assert np.max(np.abs(naive)) <= 1e-10

    def test_moment_cap_and_tail_moment(self):
        m = CELowerBound(spec("ce_lowerbound", 100))
        for p in (2.5, 3.0):
            tail = m.tail_abs_moment(p)
            assert normal_abs_moment(p) * 0.5 < tail <= m.moment_cap(p)
        assert abs(m.tail_abs_moment(2.0) - 1.0) <= 1e-9  # unit variance exactly

    def test_tail_moment_matches_monte_carlo(self):
        m = CELowerBound(spec("ce_lowerbound", 100))
        mat = increment_matrix(m, master_seed=19, replicates=4000)
        post = mat[:, m.params.m :].ravel()
        mc_vals = np.abs(post) ** 3.0
        mc = float(np.mean(mc_vals))
        # Post-split increments within a path are exchangeable but coupled;
        # use per-path means for an honest SE.
        per_path = (np.abs(mat[:, m.params.m :]) ** 3.0).mean(axis=1)
        se = float(np.std(per_path) / math.sqrt(mat.shape[0]))
        assert abs(mc - m.tail_abs_moment(3.0)) <= 3.0 * se

    def test_psi_closed_form_matches_monte_carlo(self):
        m = CELowerBound(spec("ce_lowerbound", 100))
        mat = increment_matrix(m, master_seed=23, replicates=20_000)
        col = mat[:, m.params.m]  # one post-split increment per path
        t = 1.0
        mc_vals = np.minimum(t * col * col, np.abs(col) ** 3)
        mc = float(np.mean(mc_vals))
        se = float(np.std(mc_vals) / math.sqrt(col.size))
        psi = m.psi_closed_form(np.array([t]))[0]
        gauss = float(gaussian_min_profile(t))
        assert abs(mc - max(gauss, psi) if psi < gauss else mc - psi) <= 3.0 * se + 1e-6

    def test_rejects_extra_params(self):
        with pytest.raises(ConfigurationError):
            CELowerBound(spec("ce_lowerbound", 100, window="wide"))

    def test_atom_fraction_guard(self):
        with pytest.raises(DomainError):
            atom_fraction(np.array([]))
        frac, se = atom_fraction(np.array([0.0, 1.0, 0.0, 2.0]))
        assert frac == 0.5
        assert se > 0.0


class TestLinearStatistic:
    def test_ar1_variance_n2(self):
        # gamma_0 = 4/3, gamma_1 = 2/3: V_2 = 2 gamma_0 + 2 gamma_1 = 4.
        m = LinearStatistic(spec("linear_statistic", 2, base={"kind": "ar1", "phi": 0.5}))
        assert abs(m.moments().v_n - 4.0) <= 1e-12
        assert abs(linear_covariance_vn(m) - 4.0) <= 1e-12
        assert abs(m.limit_sigma2() - 4.0) <= 1e-15

    def test_ma_variance_n2(self):
        # theta = (1, 1/2): gamma_0 = 5/4, gamma_1 = 1/2, V_2 = 7/2.
        m = LinearStatistic(spec("linear_statistic", 2, base={"kind": "ma", "theta": [1.0, 0.5]}))
        assert abs(m.moments().v_n - 3.5) <= 1e-12
        assert abs(linear_covariance_vn(m) - 3.5) <= 1e-12
        assert abs(m.limit_sigma2() - 2.25) <= 1e-15

    def test_weight_and_covariance_routes_agree(self):
        cases = [
            spec("linear_statistic", 17, base={"kind": "ar1", "phi": -0.6}),
            spec("linear_statistic", 17, base={"kind": "ar1", "phi": 0.5},
                 coefficients={"rule": "power", "kappa": 2.0, "alpha": 0.25}),
            spec("linear_statistic", 17, base={"kind": "ma", "theta": [1.0, -0.4, 0.2]},
                 coefficients={"rule": "explicit", "values": list(range(1, 18))}),
        ]
        for s in cases:
            m = LinearStatistic(s)
            v_n = m.moments().v_n
            assert abs(v_n - linear_covariance_vn(m)) <= 1e-9 * max(1.0, v_n)

    def test_ladder_is_constant_conditional_variance(self):
        m = LinearStatistic(spec("linear_statistic", 6, base={"kind": "ar1", "phi": 0.5}))
        mom = m.moments()
        assert mom.conditional_variance_constant
        assert abs(mom.v_n - float(np.sum(mom.sigma2))) <= 1e-12

    def test_statistic_variance_monte_carlo(self):
        for base in ({"kind": "ar1", "phi": 0.5}, {"kind": "ma", "theta": [1.0, 0.5]}):
            m = LinearStatistic(spec("linear_statistic", 16, base=base))
            vals = m.statistic_values(master_seed=29, replicates=20_000)
            assert abs(float(np.var(vals)) - 1.0) <= 4.0 * math.sqrt(2.0 / 20_000)

    def test_sample_path_matches_chunk_route(self):
        # sample_path is a chunk of one, and a one-row gemv may round
        # differently from the chunk gemv.
        m = LinearStatistic(spec("linear_statistic", 12, base={"kind": "ar1", "phi": 0.5}))
        vals = m.statistic_values(master_seed=31, replicates=50)
        norm = m.statistic_normalizer()
        for r in (0, 7, 49):
            path = sample_path(m, SeedLineage(31, SeedLineage.stream_for(0, r)))
            assert abs(path.path_sum / norm - vals[r]) <= 1e-10
            assert abs(float(np.sum(path.increments)) / norm - vals[r]) <= 1e-10

    def test_limit_normalization(self):
        m = LinearStatistic(
            spec("linear_statistic", 8, base={"kind": "ar1", "phi": 0.5}, normalization="limit")
        )
        assert abs(m.statistic_normalizer() - math.sqrt(4.0 * 8.0)) <= 1e-12
        with pytest.raises(ConfigurationError):
            LinearStatistic(
                spec("linear_statistic", 8, base={"kind": "ar1", "phi": 0.5},
                     normalization="limit",
                     coefficients={"rule": "power", "kappa": 1.0, "alpha": 0.3})
            )

    def test_base_validation(self):
        with pytest.raises(ConfigurationError):
            LinearStatistic(spec("linear_statistic", 4, base={"kind": "ar1", "phi": 1.0}))
        with pytest.raises(ConfigurationError):
            LinearStatistic(spec("linear_statistic", 4, base={"kind": "ma", "theta": [0.0, 1.0]}))
        with pytest.raises(ConfigurationError):
            LinearStatistic(spec("linear_statistic", 4, base={"kind": "garch"}))

    def test_projection_norms_ar1(self):
        m = LinearStatistic(spec("linear_statistic", 6, base={"kind": "ar1", "phi": 0.5}))
        lam, eta = m.projection_norms(3.0)
        assert lam.shape == (6,) and eta.shape == (7,)
        # eta decays geometrically at rate |phi|.
        ratios = eta[1:] / eta[:-1]
        np.testing.assert_allclose(ratios, 0.5, rtol=1e-12)
        assert np.all(np.diff(lam) < 0)

    def test_projection_norms_ma_vanish_beyond_q(self):
        m = LinearStatistic(spec("linear_statistic", 6, base={"kind": "ma", "theta": [1.0, 0.5]}))
        lam, eta = m.projection_norms(3.0)
        assert np.all(lam[1:] == 0.0)  # q = 1
        assert np.all(eta[2:] == 0.0)
        assert lam[0] > 0.0 and eta[0] > eta[1] > 0.0

    def test_projection_norms_match_monte_carlo_ar1(self):
        # ||E(Y_k | past at 0)||_p = |phi|^k ||Y_0||_p for AR(1); check by
        # simulation at k = 2, p = 3.
        m = LinearStatistic(spec("linear_statistic", 6, base={"kind": "ar1", "phi": 0.5}))
        _, eta = m.projection_norms(3.0)
        rng = np.random.default_rng(37)
        y0 = math.sqrt(m.gamma0) * rng.standard_normal(400_000)
        samples = np.abs(0.25 * y0) ** 3
        mc = float(np.mean(samples)) ** (1.0 / 3.0)
        se = float(np.std(samples) / math.sqrt(y0.size))
        third = float(np.mean(samples))
        assert abs(third - eta[2] ** 3) <= 3.0 * se
        assert abs(mc - eta[2]) <= 0.01


# -- the chain's per-k and per-ell loops, kept as references for its tables ---


def reference_h_stack(model):
    """h_r for r = 0..n-1 as rows; h_r = f + P h_{r-1}."""
    h = np.empty((model.spec.n, model.n_states))
    h[0] = model.f
    for r in range(1, model.spec.n):
        h[r] = model.f + model.P @ h[r - 1]
    return h


def reference_law(model, k):
    """The values of xi_k and their probabilities, one k at a time."""
    h = reference_h_stack(model)[model.spec.n - k]
    if k == 1:
        return h.copy(), model.pi.copy()
    ph = model.P @ h
    return (h[None, :] - ph[:, None]).ravel(), (model.pi[:, None] * model.P).ravel()


def reference_tables(model, p):
    """sigma_k^2 per k, the gap tables and U_ell(p) per ell, by the loops."""
    n, S, P, pi = model.spec.n, model.n_states, model.P, model.pi
    h = reference_h_stack(model)
    sigma2 = [float(pi @ (h[n - 1] ** 2))]
    for k in range(2, n + 1):
        sigma2.append(float(pi @ (h[n - k] ** 2) - pi @ ((P @ h[n - k]) ** 2)))
    gaps = np.empty((n - 1, S))
    g, tail = np.zeros(S), 0.0
    for ell in range(n, 1, -1):
        hk = h[n - ell]
        g = P @ (hk**2) - (P @ hk) ** 2 + P @ g
        tail += sigma2[ell - 1]
        gaps[ell - 2] = g - tail
    u = []
    for ell in range(2, n + 1):
        sigma, gap, hk = math.sqrt(sigma2[ell - 2]), gaps[ell - 2], h[n - ell + 1]
        if ell == 2:
            weights = np.maximum(np.abs(hk), sigma) ** (p - 2.0)
            u.append(float(np.sum(pi * weights * np.abs(gap))))
            continue
        ph, total = P @ hk, 0.0
        for y_prev in range(S):
            for y in range(S):
                xi = hk[y] - ph[y_prev]
                total += pi[y_prev] * P[y_prev, y] * max(abs(xi), sigma) ** (p - 2.0) * abs(gap[y])
        u.append(total)
    return sigma2, gaps, u


def reference_states(model, draws):
    """The chain's state paths by the per-step comparison loop: Y_t counts
    the thresholds of row Y_{t-1} of cumsum(P) (all but the last) at or
    below u_t, and Y_1 those of the stationary cdf, clipped to S-1."""
    last = model.n_states - 1
    cum_p, cum_pi = np.cumsum(model.P, axis=1), np.cumsum(model.pi)
    states = np.empty(draws.shape, dtype=np.intp)
    states[:, 0] = np.minimum(np.searchsorted(cum_pi, draws[:, 0], side="right"), last)
    for t in range(1, draws.shape[1]):
        rows = cum_p[states[:, t - 1]]
        states[:, t] = np.minimum((draws[:, t, None] >= rows[:, :-1]).sum(axis=1), last)
    return states


@st.composite
def chains_with_draws(draw):
    """A chain of 2..6 states and a draw matrix that lands on its thresholds.

    Integer weights give zero transitions (a threshold repeated within a
    row) and thresholds shared across rows, or every row is the same; a
    shrunk row's cumulative sum ends below 1, as weights like (1, 4, 1) do
    by rounding alone.  Draws are exact thresholds, the doubles just below
    them, 0.0 or any double in [0, 1).
    """
    S = draw(st.integers(2, 6))
    cells = st.lists(st.integers(0, 7), min_size=S, max_size=S)
    weights = np.array(draw(st.lists(cells, min_size=S, max_size=S)), dtype=float)
    weights[np.arange(S), (np.arange(S) + 1) % S] += 1.0  # a cycle through every state
    P = weights / weights.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        P[:] = P[0]
    P[np.array(draw(st.lists(st.booleans(), min_size=S, max_size=S)))] *= 1.0 - 2.0**-30
    n = draw(st.integers(1, 12))
    try:
        model = RhoMixingChain(
            spec("rho_mixing_chain", n, transition=P.tolist(), state_values=list(range(S)))
        )
    except ConfigurationError:
        assume(False)
    cuts = np.concatenate((np.cumsum(model.P, axis=1).ravel(), np.cumsum(model.pi), [0.0]))
    cuts = cuts[cuts < 1.0]
    landing = sorted(set(np.concatenate((cuts, np.nextafter(cuts, 0.0))).tolist()))
    values = st.one_of(st.sampled_from(landing), st.floats(0.0, 1.0, exclude_max=True))
    rows = draw(st.integers(1, 5))
    draws = np.array(draw(st.lists(values, min_size=rows * n, max_size=rows * n)))
    return model, draws.reshape(rows, n)


def two_state_on_thresholds():
    """The default chain, whose rows share the thresholds 0.25 and 0.75."""
    below = [np.nextafter(0.25, 0.0), np.nextafter(0.75, 0.0)]
    draws = np.array([
        [0.0, 0.25, 0.75, below[0], below[1], 0.5, 0.75, 0.0],
        [0.75, below[1], 0.25, 0.25, 0.0, below[0], 0.999, 0.25],
    ])
    return RhoMixingChain(spec("rho_mixing_chain", 8)), draws


def uniform_six_states_at_the_top():
    """Six equally likely states: both the rows' and the stationary cdf end
    at the largest double below 1, so a draw there needs the S-1 clip."""
    top = np.nextafter(1.0, 0.0)
    model = RhoMixingChain(
        spec("rho_mixing_chain", 4, transition=[[1 / 6] * 6] * 6, state_values=list(range(6)))
    )
    return model, np.array([[top, top, 0.5, top], [0.0, top, 1 / 6, 5 / 6]])


class TestRhoMixingChain:
    def two_state(self, n, stay=0.75):
        return RhoMixingChain(spec("rho_mixing_chain", n, transition={"rule": "two_state", "stay": stay}))

    def asymmetric(self, n):
        return RhoMixingChain(
            spec("rho_mixing_chain", n,
                 transition=[[0.7, 0.3], [0.2, 0.8]],
                 state_values=[1.0, -0.5])
        )

    def test_symmetric_second_order_structure(self):
        m = self.two_state(4)
        assert abs(chain_spectral_gap_rho(m) - 0.5) <= 1e-12
        assert abs(chain_c_n_bound(m) - 3.0) <= 1e-12
        assert m.k_n() == 1.0
        for lag in range(5):
            assert abs(chain_autocovariance(m, lag) - 0.5**lag) <= 1e-12
        # V_4 = 4 + 2( 3*0.5 + 2*0.25 + 0.125 ) = 8.25
        assert abs(m.moments().v_n - 8.25) <= 1e-12

    def test_window_ratio_stays_under_spectral_bound(self):
        for stay in (0.75, 0.25, 0.6):
            m = self.two_state(512, stay=stay)
            assert m.c_n() <= chain_c_n_bound(m) + 1e-9

    def test_window_ratio_agrees_with_autocovariance_route(self):
        # stay = 0.25: gamma_1 < 0, so C_n > 1 and is attained at a long window
        m = self.two_state(300, stay=0.25)
        gam = np.array([chain_autocovariance(m, d) for d in range(300)])
        w = np.arange(1, 301)
        cum_g = np.concatenate(([0.0], np.cumsum(gam[1:])))
        var_w = np.cumsum(gam[0] + 2.0 * cum_g)
        direct = float(np.max(w * gam[0] / var_w))
        assert direct > 2.9
        assert abs(m.c_n() - direct) <= 1e-12 * direct

    def test_negative_correlation_pushes_ratio_up(self):
        fast = self.two_state(256, stay=0.25)  # gamma_1 < 0 shrinks Var(S_n)
        assert fast.c_n() > 1.5
        slow = self.two_state(256, stay=0.75)
        assert abs(slow.c_n() - 1.0) <= 1e-12

    def test_ladder_sum_matches_autocovariance_route(self):
        for model in (self.two_state(16), self.asymmetric(16)):
            n = model.spec.n
            gam = [chain_autocovariance(model, d) for d in range(n)]
            direct = n * gam[0] + 2.0 * sum((n - d) * gam[d] for d in range(1, n))
            assert abs(model.moments().v_n - direct) <= 1e-9

    def test_symmetric_chain_has_constant_conditional_variance(self):
        m = self.two_state(8)
        np.testing.assert_allclose(m._gap_tables(), 0.0, atol=1e-12)
        assert m._gap_tables().shape == (7, 2)
        assert np.all(m.u_exact(3.0) <= 1e-12)

    def test_increments_match_path_enumeration(self):
        model = self.asymmetric(6)
        oracle = ChainEnumeration(model.P, model.f, model.pi, 6)
        assert abs(model.moments().v_n - sum(p * oracle.path_sum(s) ** 2 for p, s in oracle.paths)) <= 1e-12
        ladder = model.sigma2_ladder()
        moments = model.increment_abs_moments(2.5)
        for k in range(1, 7):
            assert abs(ladder[k - 1] - oracle.sigma2(k)) <= 1e-12
            want = sum(p * abs(oracle.xi(s, k)) ** 2.5 for p, s in oracle.paths)
            assert abs(moments[k - 1] - want) <= 1e-12

    def test_conditional_gap_matches_path_enumeration(self):
        model = self.asymmetric(6)
        oracle = ChainEnumeration(model.P, model.f, model.pi, 6)
        for ell in (2, 4, 6):
            for state in (0, 1):
                # any enumerated prefix ending in `state` carries the same gap
                prefix = tuple([1] * (ell - 2) + [state])
                want = oracle.cond_var_gap(prefix)
                got = model._gap_tables()[ell - 2][state]
                assert abs(got - want) <= 1e-12

    def test_fluctuation_statistic_matches_path_enumeration(self):
        model = self.asymmetric(6)
        oracle = ChainEnumeration(model.P, model.f, model.pi, 6)
        for p in (2.5, 3.0):
            for ell in (2, 3, 5, 6):
                assert abs(model.u_exact(p)[ell - 2] - oracle.u_ell(ell, p)) <= 1e-12

    def test_sample_path_increments_are_projection_increments(self):
        # The designated martingale array: xi_k along the sampled path must
        # equal the Doob increment computed by conditional means over all
        # suffix paths.
        model = self.asymmetric(6)
        oracle = ChainEnumeration(model.P, model.f, model.pi, 6)
        for r in range(5):
            lin = SeedLineage(107, r)
            path = sample_path(model, lin)
            states = tuple(int(s) for s in reference_states(model, reference_row(model, lin)[None])[0])
            want = [oracle.xi(states, k) for k in range(1, 7)]
            np.testing.assert_allclose(path.increments, want, atol=1e-12)
            assert abs(path.path_sum - oracle.path_sum(states)) <= 1e-12

    def test_fluctuation_monte_carlo_agrees_with_exact(self):
        model = self.asymmetric(6)
        states = model.prefix_states_chunk(master_seed=41, replicates=4000)
        for ell in (2, 4):
            samples = chain_u_samples(model, states, ell, 3.0)
            se = float(np.std(samples) / math.sqrt(samples.size))
            assert abs(float(np.mean(samples)) - model.u_exact(3.0)[ell - 2]) <= 3.0 * se + 1e-12

    def test_bracket_mean_is_variance(self):
        model = self.asymmetric(8)
        states = model.prefix_states_chunk(master_seed=43, replicates=4000)
        br = model.bracket_samples(states)
        se = float(np.std(br) / math.sqrt(br.size))
        assert abs(float(np.mean(br)) - model.moments().v_n) <= 3.0 * se

    def test_statistic_variance_monte_carlo(self):
        m = self.two_state(32)
        vals = m.statistic_values(master_seed=47, replicates=5000)
        assert abs(float(np.var(vals)) - 1.0) <= 0.1

    @settings(max_examples=200, deadline=None)
    @given(case=chains_with_draws())
    @example(case=two_state_on_thresholds())
    @example(case=uniform_six_states_at_the_top())
    def test_state_table_matches_per_step_loop(self, case):
        model, draws = case
        want = reference_states(model, draws)
        assert np.array_equal(model._states(draws), want)
        assert model._sums(draws).tobytes() == model.f[want].sum(axis=1).tobytes()
        n = model.spec.n
        h, ph, _ = model._stacks()
        xi = h[np.arange(n), want]
        xi[:, 1:] -= ph[np.arange(1, n), want[:, :-1]]
        assert model._increments(draws).tobytes() == xi.tobytes()

    # -- b steps per lookup against the one-step walk -------------------------

    def block_chains(self, n):
        return {
            "default": RhoMixingChain(spec("rho_mixing_chain", n)),
            "s3": make_model(dataclasses.replace(PINNED_CHAIN_S3, n=n)),
            # six states with random rows: 30 distinct thresholds, K^2 S > 2^12
            "many_thresholds": self.random_chain(n, 6, 5),
        }

    def test_block_length_comes_from_states_and_codes(self):
        b = {name: m._block_steps()[0] for name, m in self.block_chains(4).items()}
        assert b == {"default": 6, "s3": 4, "many_thresholds": 1}
        for m in self.block_chains(4).values():
            S, K = m.n_states, m._cuts.size + 1
            b, table = m._block_steps()
            assert table.size == K**b * S and K ** (b + 1) * S > 1 << 12
            assert b == 1 or table.size <= 1 << 12

    @pytest.mark.parametrize("chain", ("default", "s3", "many_thresholds"))
    def test_block_steps_match_the_one_step_walk(self, chain):
        b = self.block_chains(4)[chain]._block_steps()[0]
        rng = np.random.default_rng(17)
        for n in sorted({1, 2, b, b + 1, 2 * b + 1, 300}):
            m = self.block_chains(n)[chain]
            draws = rng.random((9, n))
            draws[::2] = np.resize(m._cuts, draws[::2].shape)  # draws on the thresholds
            got = m._states(draws)
            assert got.flags.c_contiguous
            assert got.dtype == m._step_table.dtype
            assert got.tobytes() == chain_one_step_states(m, draws).tobytes()

    @pytest.mark.parametrize("chain", ("default", "s3", "many_thresholds"))
    def test_block_steps_across_a_chunk(self, chain):
        m = self.block_chains(300)[chain]
        count = m.chunk_size() + 5
        states = m.prefix_states_chunk(master_seed=67, replicates=count, block=4)
        draws = m._map_chunks(lambda d: d, np.empty((count, 300)), 67, 0, 4)
        assert states.tobytes() == chain_one_step_states(m, draws).tobytes()

    def test_prefix_states_are_compact_reference_states(self):
        m = self.random_chain(16, 6, 5)
        count = m.chunk_size() + 5
        states = m.prefix_states_chunk(master_seed=61, replicates=count, block=9)
        assert states.dtype == np.uint8 and states.flags.c_contiguous
        draws = m._map_chunks(lambda d: d, np.empty((count, 16)), 61, 0, 9)
        assert np.array_equal(states, reference_states(m, draws))

    def test_state_paths_have_stationary_marginals(self):
        m = self.asymmetric(4)
        states = m.prefix_states_chunk(master_seed=53, replicates=5000)
        freq = (states == 0).mean(axis=0)
        np.testing.assert_allclose(freq, m.pi[0], atol=0.03)

    # -- the increment-law table against the per-k loops it replaces ---------

    @staticmethod
    def random_chain(n, n_states, seed):
        rng = np.random.default_rng(seed)
        P = rng.random((n_states, n_states)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        return RhoMixingChain(
            spec("rho_mixing_chain", n, transition=P.tolist(),
                 state_values=rng.normal(size=n_states).tolist())
        )

    def law_chains(self):
        # the periodic chain has sigma_k^2 = 0 for every k >= 2
        periodic = RhoMixingChain(spec("rho_mixing_chain", 7, transition=[[0.0, 1.0], [1.0, 0.0]]))
        return [
            self.two_state(1),
            self.two_state(40),
            self.asymmetric(33),
            periodic,
            *(self.random_chain(n, s, 1000 + s) for n, s in ((17, 3), (12, 4), (9, 5))),
        ]

    @staticmethod
    def per_k_reference(model, t, p):
        """psi(t), E|xi_k|^p, their sup ratio and sum, one k at a time."""
        sigma2 = model.sigma2_ladder()
        delta = math.sqrt(float(np.max(sigma2)))
        psi = sup = total = 0.0
        moments = []
        for k in range(1, model.spec.n + 1):
            vals, probs = reference_law(model, k)
            moments.append(float(np.sum(probs * np.abs(vals) ** p)))
            total += moments[-1]
            if sigma2[k - 1] <= 0.0:
                continue
            contrib = float(np.sum(probs * np.minimum(t * delta * vals**2, np.abs(vals) ** 3)))
            psi = max(psi, contrib / sigma2[k - 1])
            sup = max(sup, moments[-1] / sigma2[k - 1])
        return psi, moments, sup, total

    @pytest.mark.parametrize("p", (2.5, 3.0))
    def test_conditional_tables_match_per_k_and_per_ell_loops(self, p):
        for model in self.law_chains():
            sigma2, gaps, u = reference_tables(model, p)
            assert model.sigma2_ladder().tolist() == sigma2
            assert np.array_equal(model._gap_tables(), gaps)
            assert model.u_exact(p).tolist() == u
            values, probs = model._increment_laws()
            for k in range(1, model.spec.n + 1):
                v, q = reference_law(model, k)
                assert values[k - 1, : v.size].tolist() == v.tolist()
                assert probs[k - 1, : q.size].tolist() == q.tolist()
                assert not values[k - 1, v.size :].any() and not probs[k - 1, q.size :].any()

    def test_sampled_increments_are_law_values(self):
        for model in self.law_chains():
            values, _ = model._increment_laws()
            xi = increment_matrix(model, master_seed=59, replicates=300)
            for k in range(model.spec.n):
                assert np.isin(xi[:, k], values[k]).all(), (model.model_id, k + 1)

    @pytest.mark.parametrize("p", (2.5, 3.0))
    def test_increment_law_table_matches_per_k_loop(self, p):
        for model in self.law_chains():
            ts = (0.0, 1e-3, 0.37, 1.0, 6.0, 250.0)
            psi = [self.per_k_reference(model, t, p)[0] for t in ts]
            assert model.psi_closed_form(np.array(ts)).tolist() == psi
            _, moments, sup, total = self.per_k_reference(model, 1.0, p)
            assert model.increment_abs_moments(p).tolist() == moments
            assert model.sup_moment_ratio(p) == sup
            assert model.sum_abs_moments(p) == total

    def test_periodic_chain_skips_zero_variance_increments(self):
        m = self.law_chains()[3]
        assert np.all(m.sigma2_ladder()[1:] == 0.0)
        # only xi_1 = h_6(Y_1) = +-1 counts: E min(t xi^2, |xi|^3) / 1
        assert m.psi_closed_form(np.array([0.5])).tolist() == [0.5]
        assert m.sup_moment_ratio(3.0) == 1.0

    def test_window_variances_match_path_enumeration(self):
        s3 = RhoMixingChain(spec("rho_mixing_chain", 7, **S3_CHAIN))
        for model in (self.asymmetric(8), s3, self.two_state(8, stay=0.25)):
            n = model.spec.n
            oracle = ChainEnumeration(model.P, model.f, model.pi, n)
            want = [oracle.window_variance(ell) for ell in range(1, n + 1)]
            np.testing.assert_allclose(model._window_variances(), want, rtol=0.0, atol=1e-12)
            assert abs(model.moments().v_n - want[0]) <= 1e-12
            assert abs(model.c_n() - oracle.c_n()) <= 1e-12

    def test_autocovariance_by_matrix_power_matches_stepping(self):
        m = self.random_chain(8, 4, 7)
        g = m.f.copy()
        for lag in range(200):
            assert abs(chain_autocovariance(m, lag) - float(m.pi @ (m.f * g))) <= 1e-12
            g = m.P @ g

    def test_moments_and_draws_build_no_increment_law_table(self, monkeypatch):
        def no_table(self):
            raise AssertionError("the increment-law table was built")

        monkeypatch.setattr(RhoMixingChain, "_increment_laws", no_table)
        m = self.two_state(64)
        assert m.moments() is m.moments()
        m.statistic_values(master_seed=3, replicates=50)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RhoMixingChain(spec("rho_mixing_chain", 4, transition={"rule": "two_state", "stay": 1.0}))
        with pytest.raises(ConfigurationError):
            RhoMixingChain(spec("rho_mixing_chain", 4, transition=[[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ConfigurationError):
            RhoMixingChain(spec("rho_mixing_chain", 4, state_values=[2.0, 2.0]))


# t = 0, then a log grid from below 1e-3 to past Rademacher's cap at t = 1
PSI_GRID = np.concatenate(([0.0], np.geomspace(1e-4, 1e3, 97)))

S3_CHAIN = {
    "transition": [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
    "state_values": [1.0, -0.5, 2.0],
}
# mixes so slowly that h_{n-k} never reaches its float fixed point: no two
# law rows repeat, and the t-grid is split into blocks
SLOW_CHAIN = {
    "transition": [[0.998, 0.001, 0.001], [0.001, 0.998, 0.001], [0.0005, 0.0005, 0.999]],
    "state_values": [1.0, -0.5, 2.0],
}


def scalar_psi_reference(model, t):
    """psi at one Python float t by each family's per-t formula."""
    if isinstance(model, RhoMixingChain):
        # every row of the (n, S^2) law table, none deduplicated
        values, probs = model._increment_laws()
        sigma2 = model.sigma2_ladder()
        delta = math.sqrt(float(np.max(sigma2)))
        terms = probs * np.minimum(t * delta * values**2, np.abs(values) ** 3)
        live = sigma2 > 0.0
        if not np.any(live):
            return 0.0
        return float(np.max(model._expectations(terms)[live] / sigma2[live]))
    if isinstance(model, RademacherIID):
        return float(np.max(model.sigma)) * min(t, 1.0)
    if isinstance(model, CELowerBound):
        cp = model.params
        gauss = float(gaussian_min_profile(t))

        def integrand(x):
            s = math.sqrt(cp.m)
            dens = math.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
            lo, hi = abs(x) / cp.k, cp.k / abs(x)
            w_lo = cp.k**2 / (x * x + cp.k**2)
            val = w_lo * min(t * lo * lo, lo**3) + (1.0 - w_lo) * min(t * hi * hi, hi**3)
            return val * dens

        window = 2.0 * quadrature(integrand, cp.a, 2.0 * cp.a, tol=1e-12)
        return max(gauss, gauss * (1.0 - cp.branch_probability()) + window)
    sig = np.sqrt(model.moments().sigma2)  # the Gaussian families
    return float(float(np.max(sig)) * gaussian_min_profile(t))


class TestPsiProfiles:
    @pytest.mark.parametrize(
        "s",
        [
            spec("gaussian_iid", 6, sigma=[1.0, 2.0, 0.5, 1.5, 1.0, 3.0]),
            spec("rademacher_iid", 6, sigma={"rule": "affine", "intercept": 0.5, "slope": 2.0}),
            spec("ce_lowerbound", 100),
            spec("linear_statistic", 6, base={"kind": "ar1", "phi": 0.5}),
            spec("rho_mixing_chain", 192),
            spec("rho_mixing_chain", 16384),
            spec("rho_mixing_chain", 2000, **S3_CHAIN),
            spec("rho_mixing_chain", 600, **SLOW_CHAIN),
        ],
        ids=lambda s: f"{s.family}-n{s.n}-{len(s.params)}",
    )
    def test_array_psi_is_the_per_t_scalar_bit_for_bit(self, s):
        model = make_model(s)
        grid = PSI_GRID[::4] if s.family == "ce_lowerbound" else PSI_GRID
        reference = [scalar_psi_reference(model, float(t)) for t in grid]
        assert model.psi_closed_form(grid).tolist() == reference

    @pytest.mark.parametrize(
        "n, params, distinct", [(192, {}, 54), (16384, {}, 54), (2000, S3_CHAIN, 48), (600, SLOW_CHAIN, 599)]
    )
    def test_chain_psi_reads_the_distinct_law_rows(self, n, params, distinct):
        model = RhoMixingChain(spec("rho_mixing_chain", n, **params))
        values, probs = model._increment_laws()
        rows = model._law_rows
        assert rows.size == distinct
        table = np.column_stack((values, probs, model.sigma2_ladder()))
        # every live row k >= 2 repeats one of the indexed rows bit for bit
        live = np.flatnonzero(model.sigma2_ladder()[1:] > 0.0) + 1
        indexed = {table[k].tobytes() for k in rows}
        assert {table[k].tobytes() for k in live} == indexed


class TestSequentialMaps:
    def test_single_harmonic_variance_is_n(self):
        m = SequentialMaps(spec("sequential_maps", 50, observable="cos1"))
        # exact up to the float representation of (sqrt 2)^2
        assert abs(m.exact_vn() - 50.0) <= 1e-12
        mom = m.moments()
        np.testing.assert_allclose(mom.sigma2, 1.0, rtol=1e-15)

    def test_two_harmonic_collision(self):
        # doubling map: the h=2 term at step k meets the h=1 term at step k+1.
        m = SequentialMaps(spec("sequential_maps", 2, observable="cos12"))
        assert abs(m.exact_vn() - 1.75) <= 1e-12
        mom = m.moments()
        # the exact V_n spread over a flat ladder
        assert mom.v_n == m.exact_vn()
        assert mom.sigma2.tobytes() == np.full(2, m.exact_vn() / 2).tobytes()

    def test_coprime_cycle_has_no_collisions(self):
        m = SequentialMaps(
            spec("sequential_maps", 2, observable="cos12", multipliers={"rule": "cycle", "values": [2, 3]})
        )
        assert abs(m.exact_vn() - 1.25) <= 1e-12

    def test_exact_variance_matches_monte_carlo(self):
        m = SequentialMaps(spec("sequential_maps", 8, observable="cos12"))
        vals = m.statistic_values(master_seed=59, replicates=40_000)
        assert abs(float(np.var(vals)) - 1.0) <= 0.03

    def test_single_step_observable_moments(self):
        m = SequentialMaps(spec("sequential_maps", 1, observable="cos1"))
        vals = m.statistic_values(master_seed=61, replicates=40_000)
        assert abs(float(np.mean(vals))) <= 0.02
        assert abs(float(np.var(vals)) - 1.0) <= 0.03

    def test_backward_sampling_survives_long_orbits(self):
        # Forward float iteration of the doubling map dies after ~53 steps
        # (the orbit collapses to 0); backward preimage sampling must not.
        m = SequentialMaps(spec("sequential_maps", 60, observable="cos1"))
        vals = m.statistic_values(master_seed=67, replicates=8000)
        assert abs(float(np.mean(vals))) <= 0.04
        assert abs(float(np.var(vals)) - 1.0) <= 0.06

    def test_preimage_consistency(self):
        # Applying the forward map to each sampled point recovers the next.
        m = SequentialMaps(spec("sequential_maps", 12, observable="cos1",
                                multipliers={"rule": "cycle", "values": [2, 3, 5]}))
        lin = SeedLineage(71, 0)
        xs = m._points(reference_row(m, lin)[None])[0]
        np.testing.assert_array_equal(sample_path(m, lin).increments, m._observe(xs))
        for k in range(11):
            fwd = math.fmod(xs[k] * m.m[k + 1], 1.0)
            assert abs(fwd - xs[k + 1]) <= 1e-9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SequentialMaps(spec("sequential_maps", 4, observable="sin"))
        with pytest.raises(ConfigurationError):
            SequentialMaps(spec("sequential_maps", 4, multipliers=[2, 2, 2]))
        with pytest.raises(ConfigurationError):
            SequentialMaps(spec("sequential_maps", 4, multipliers=[2, 2, 2, 1]))


class TestBatchPlumbing:
    def test_statistic_values_bit_exact_rerun(self):
        m = RademacherIID(spec("rademacher_iid", 8))
        a = m.statistic_values(master_seed=73, replicates=100)
        b = m.statistic_values(master_seed=73, replicates=100)
        np.testing.assert_array_equal(a, b)
        c = m.statistic_values(master_seed=74, replicates=100)
        assert not np.array_equal(a, c)

    def test_range_slices_are_consistent(self):
        m = GaussianIID(spec("gaussian_iid", 4))
        full = m.statistic_values(master_seed=79, replicates=150)
        part = m.statistic_range(master_seed=79, start=50, count=10)
        np.testing.assert_array_equal(part, full[50:60])

    def test_blocks_give_fresh_streams(self):
        m = GaussianIID(spec("gaussian_iid", 4))
        a = m.statistic_values(master_seed=83, replicates=50, block=0)
        b = m.statistic_values(master_seed=83, replicates=50, block=1)
        assert not np.array_equal(a, b)

    def test_increment_matrix_matches_sample_path(self):
        for s in ALL_FAMILIES:
            m = make_model(s)
            reps = m.chunk_size() + 3  # the last rows come from a second chunk
            mat = increment_matrix(m, master_seed=89, replicates=reps, block=2)
            assert mat.shape == (reps, s.n)
            for r in (0, reps - 4, reps - 3, reps - 1):
                lin = SeedLineage(89, SeedLineage.stream_for(2, r))
                np.testing.assert_array_equal(mat[r], sample_path(m, lin).increments)

    def test_increment_matrix_from_an_offset(self):
        m = make_model(spec("ce_lowerbound", 33))
        full = increment_matrix(m, master_seed=5, replicates=300, block=2)
        part = increment_matrix(m, master_seed=5, replicates=40, block=2, start=250)
        assert part.tobytes() == full[250:290].tobytes()
        with pytest.raises(DomainError):
            increment_matrix(m, master_seed=5, replicates=40, start=-1)

    def test_statistic_is_normalized_path_sum(self):
        for s in ALL_FAMILIES:
            m = make_model(s)
            vals = m.statistic_values(master_seed=101, replicates=8)
            norm = m.statistic_normalizer()
            for r in range(8):
                lin = SeedLineage(101, SeedLineage.stream_for(0, r))
                path = sample_path(m, lin)
                # the increments map must add up to the sums map
                assert abs(float(np.sum(path.increments)) / norm - vals[r]) <= 1e-10
                got = path.path_sum / norm
                if s.family == "linear_statistic":
                    # a one-row gemv may round differently from the chunk gemv
                    assert abs(got - vals[r]) <= 1e-10
                else:
                    assert got == vals[r]

    def test_capability_errors_are_loud(self):
        m = SequentialMaps(spec("sequential_maps", 4))
        with pytest.raises(CapabilityError):
            m.sup_moment_ratio(3.0)
        with pytest.raises(CapabilityError):
            m.u_exact(3.0)


# Rows PARALLEL_DRAW_WIDTH draws wide: every family at that n, and linear
# AR(1) and MA(1), whose MA row holds one more draw.
WIDE_SPECS = (
    spec("gaussian_iid", PARALLEL_DRAW_WIDTH),
    spec("rademacher_iid", PARALLEL_DRAW_WIDTH),
    spec("ce_lowerbound", PARALLEL_DRAW_WIDTH),
    spec("linear_statistic", PARALLEL_DRAW_WIDTH, base={"kind": "ar1", "phi": 0.5}),
    spec("linear_statistic", PARALLEL_DRAW_WIDTH, base={"kind": "ma", "theta": [1.0, 0.5]}),
    spec("rho_mixing_chain", PARALLEL_DRAW_WIDTH),
    spec("sequential_maps", PARALLEL_DRAW_WIDTH, observable="cos12"),
)
WIDE_IDS = (
    "gaussian_iid", "rademacher_iid", "ce_lowerbound", "linear_ar1", "linear_ma1",
    "rho_mixing_chain", "sequential_maps",
)


class TestReplicateStreams:
    """Each chunk re-keys one Philox per replicate; every row must equal the
    row drawn from that replicate's own SeedLineage.generator(), however many
    CPUs draw the chunk's rows."""

    SEEDS = (0, 2**64 - 1, 0x5DEECE66D)
    BLOCKS = (0, 103, 1063)
    CPU_COUNTS = (1, 2, 3)

    @pytest.mark.parametrize("s", ALL_FAMILIES, ids=FAMILY_IDS)
    def test_chunk_rows_match_one_generator_per_replicate(self, s):
        m = make_model(s)
        for seed in self.SEEDS:
            for block in self.BLOCKS:
                for start, count in ((0, 5), (12_345, 3), (BLOCK_STRIDE - 4, 4)):
                    first = SeedLineage(seed, SeedLineage.stream_for(block, start))
                    got = m._draws(first, count)
                    want = reference_rows(m, seed, block, range(start, start + count))
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", ALL_FAMILIES, ids=FAMILY_IDS)
    def test_chunks_from_an_offset_cross_a_boundary(self, s):
        # the last replicate of the run is 2^40 - 1, the last of its block
        m = make_model(s)
        count = m.chunk_size() + 3
        start = BLOCK_STRIDE - count
        out = np.empty((count, m._draw_width()))
        m._map_chunks(lambda draws: draws, out, 2**64 - 1, start, 1063)
        want = reference_rows(m, 2**64 - 1, 1063, range(start, start + count))
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", WIDE_SPECS, ids=WIDE_IDS)
    def test_wide_rows_do_not_depend_on_the_cpu_count(self, s, monkeypatch):
        # 67 rows end at replicate 2^40 - 1, the last of the block, so the
        # blocks are uneven and the last one ends at the block boundary
        m = make_model(s)
        start, count = BLOCK_STRIDE - 67, 67
        first = SeedLineage(2**64 - 1, SeedLineage.stream_for(1063, start))
        want = reference_rows(m, 2**64 - 1, 1063, range(start, start + count)).tobytes()
        outputs = set()
        for cpus in self.CPU_COUNTS:
            monkeypatch.setattr(base, "CPUS", cpus)
            assert m._draws(first, count).tobytes() == want
            outputs.add((
                m.statistic_range(PINNED_SEED, start, count, block=5).tobytes(),
                increment_matrix(m, PINNED_SEED, count, block=5, start=start).tobytes(),
            ))
        assert len(outputs) == 1

    def test_more_blocks_than_cores_under_a_short_switch_interval(self, monkeypatch):
        # eight blocks on a fresh seven-thread pool, with the interpreter
        # switching threads every microsecond: a row written by the wrong
        # block or lost to a race would change the bytes
        monkeypatch.setattr(base, "CPUS", 8)
        monkeypatch.setattr(base, "_draw_pool_instance", None)
        m = make_model(spec("gaussian_iid", PARALLEL_DRAW_WIDTH))
        first = SeedLineage(7, SeedLineage.stream_for(4, 1000))
        want = reference_rows(m, 7, 4, range(1000, 1067)).tobytes()
        got = []
        drawer = threading.Thread(target=lambda: got.extend(m._draws(first, 67) for _ in range(20)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            drawer.start()
            drawer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            base._draw_pool().shutdown(wait=False)
        assert not drawer.is_alive()
        assert len(got) == 20 and all(d.tobytes() == want for d in got)

    def test_narrow_and_rademacher_rows_stay_serial(self, monkeypatch):
        def no_pool():
            raise RuntimeError("the draw pool was asked for")

        monkeypatch.setattr(base, "CPUS", 2)
        monkeypatch.setattr(base, "_draw_pool", no_pool)
        first = SeedLineage(3, SeedLineage.stream_for(2, 0))
        for s in (spec("gaussian_iid", PARALLEL_DRAW_WIDTH - 1), spec("rademacher_iid", 8192)):
            m = make_model(s)
            got = m._draws(first, 5)
            assert got.tobytes() == reference_rows(m, 3, 2, range(5)).tobytes()
        with pytest.raises(RuntimeError, match="draw pool"):
            make_model(spec("gaussian_iid", PARALLEL_DRAW_WIDTH))._draws(first, 5)

    def test_rademacher_rows_do_not_inherit_a_buffered_uint32(self):
        # integers(0, 2, n) draws 32-bit words, so an odd n leaves half of
        # the last 64-bit output buffered in the stream
        m = RademacherIID(spec("rademacher_iid", 7))
        got = m._draws(SeedLineage(5, 0), 6)
        assert got.tobytes() == reference_rows(m, 5, 0, range(6)).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1001])
    def test_rademacher_signs_are_the_integer_draws(self, n):
        # the documented draw: integers(0, 2, n) from the replicate's generator
        m = RademacherIID(spec("rademacher_iid", n))
        for r in range(4):
            lineage = SeedLineage(5, SeedLineage.stream_for(2, r))
            want = 2.0 * lineage.generator().integers(0, 2, n) - 1.0
            assert reference_row(m, lineage).tobytes() == want.tobytes()

    def test_runs_stay_inside_their_block(self, monkeypatch):
        m = GaussianIID(spec("gaussian_iid", 4))
        with pytest.raises(DomainError):
            m.statistic_range(master_seed=1, start=BLOCK_STRIDE - 2, count=3)
        with pytest.raises(DomainError):
            m.statistic_range(master_seed=2**64, start=0, count=1)
        with pytest.raises(DomainError):
            next(SeedLineage(1, SeedLineage.stream_for(2, BLOCK_STRIDE - 1)).generators(2))
        last = m.statistic_range(master_seed=1, start=BLOCK_STRIDE - 2, count=2, block=7)
        assert last.shape == (2,)
        # wide rows: the block that crosses the end is drawn on a pool thread
        monkeypatch.setattr(base, "CPUS", 3)
        wide = GaussianIID(spec("gaussian_iid", PARALLEL_DRAW_WIDTH))
        with pytest.raises(DomainError):
            wide.statistic_range(master_seed=1, start=BLOCK_STRIDE - 5, count=6)
        last = wide.statistic_range(master_seed=1, start=BLOCK_STRIDE - 6, count=6, block=7)
        assert last.shape == (6,)


# SHA-256 of increment_matrix(m, PINNED_SEED, 200, block=5) and of
# statistic_range(PINNED_SEED, 37, 200, block=5), recorded while every
# replicate still built its own SeedLineage.generator().  They pin the stream
# contract and each family's draw order and maps to the bit.  gaussian_iid
# and linear_statistic sum through BLAS and sequential_maps calls numpy's cos,
# so on another numpy or BLAS build a mismatch in those rows should first be
# reproduced against a per-replicate construction on that build.
PINNED_SEED = 2_718_281_828
PINNED_CHAIN_S3 = spec(
    "rho_mixing_chain", 64,
    transition=[[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
    state_values=[1.0, -0.7, 0.3],
)
PINNED_DIGESTS = {
    "gaussian_iid": (
        "7871e0575c76bb85c5099d27556831e68c02cb948d82f29bbb1cfa86cd921924",
        "d3a35f663e882888aca6b171ba981649f19e5e22c07b55a7944df08a93378594",
    ),
    "rademacher_iid": (
        "522c8a88ab7914357859a97d917c29d5063b4bde6b891167041bd9f8216be3d5",
        "ccff925cef636f7e563403c0f6eeff39820c212633564844fb5a1bb6391f5e40",
    ),
    "ce_lowerbound": (
        "7232b217ca5363d534654288a88f7183fb88b559d93424bc5f1adad0c61264d3",
        "5ec5c8e7d662bb70b1dd947fe0a3b2e36ce478777a99e34a18aabd088305c9f7",
    ),
    "linear_ar1": (
        "696b2e78f754cd0e16425105adf7fa7811bbb3e915a7bb10e133c817c5154bf2",
        "8777b1830366b2896879c3e473760f743ac31ba2080d7e087f9c2aa97d72b6cd",
    ),
    "linear_ma": (
        "f8ed24846603456f783a88fd615f564b93c6f585e5dc4c7e6386d44943d3bc38",
        "9dd57af20f8ddaa67ef59a6b0bb665107216f3ab6f1eaad4afe4520b81051995",
    ),
    "rho_mixing_chain": (
        "e89d163b4218130bc62173310f48df58a7cd4932591ca6285a6b53f3fde6237b",
        "845d05af966621a01e86335fd930225e8f3446771d4a5526d74cdbf5777a1ad6",
    ),
    "sequential_maps": (
        "5b0958b638135f8d8b90f737ef239c695d4e15fed8b961315da5a254f9b4f429",
        "07d1c4b911048f724e6e83c29d034325e9b8a2ded6708a74eda41c20c0fddc2a",
    ),
    "rho_mixing_chain_s3": (
        "c797d2ad5ec84990cfbda019ae107862bb1c64a6cff3d95a6c99f52d5c87eff1",
        "ec16ec89e230f0678805f10151b70326a0767a62cd0dc673cd4e678bb3968e22",
    ),
}


@pytest.mark.pinned
@pytest.mark.parametrize(
    "s,name",
    [*zip(ALL_FAMILIES, FAMILY_IDS), (PINNED_CHAIN_S3, "rho_mixing_chain_s3")],
    ids=[*FAMILY_IDS, "rho_mixing_chain_s3"],
)
def test_pinned_increment_and_statistic_bits(s, name):
    m = make_model(s)
    incs = increment_matrix(m, PINNED_SEED, 200, block=5)
    stats = m.statistic_range(PINNED_SEED, 37, 200, block=5)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (incs, stats))
    assert got == PINNED_DIGESTS[name]


# SHA-256 of the S3 chain's raw path sums (_sums through _map_chunks) for the
# statistic digest's seed, start and block.  The sums do not read V_n, so a
# change in V_n's rounding moves only the statistic digest.
PINNED_CHAIN_S3_SUMS = "d3f806c85e3b1e6725813a0a3395fe026809a0a92ccc4042735b34ccc3062904"


@pytest.mark.pinned
def test_pinned_chain_s3_raw_sums():
    m = make_model(PINNED_CHAIN_S3)
    sums = m._map_chunks(m._sums, np.empty(200), PINNED_SEED, 37, 5)
    assert hashlib.sha256(sums.tobytes()).hexdigest() == PINNED_CHAIN_S3_SUMS
    stats = m.statistic_range(PINNED_SEED, 37, 200, block=5)
    assert stats.tobytes() == (sums / math.sqrt(m.moments().v_n)).tobytes()


TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

CHUNK_RULE_SPECS = (
    *ALL_FAMILIES,
    *(spec("linear_statistic", n) for n in (1000, 1024, 16384, 40_000)),
    spec("linear_statistic", 1024, base={"kind": "ma", "theta": [1.0, 0.5]}),
    *(spec("rho_mixing_chain", n) for n in (192, 2048, 8192, 100_000)),
    *(spec("rademacher_iid", n) for n in (64, 1000, 5000)),
    spec("sequential_maps", 300),
)


class TestChunkRule:
    """Every family draws the largest power-of-two chunk that fits the one
    draw budget; for linear_statistic that must keep the bits of the former
    fixed DEFAULT_CHUNK-row chunk."""

    @pytest.mark.parametrize("s", CHUNK_RULE_SPECS, ids=lambda s: make_model(s).model_id)
    def test_chunk_is_the_largest_power_of_two_in_budget(self, s):
        m = make_model(s)
        chunk, width = m.chunk_size(), m._draw_width()
        assert 64 <= chunk <= DEFAULT_CHUNK and DEFAULT_CHUNK % chunk == 0
        assert chunk & (chunk - 1) == 0
        if 64 * width <= DRAW_BUDGET:
            assert chunk * width <= DRAW_BUDGET
        if chunk < DEFAULT_CHUNK:
            assert 2 * chunk * width > DRAW_BUDGET

    def test_long_linear_paths_draw_small_chunks(self):
        # AR(1) at n = 16384: 64 rows (8 MB) per chunk instead of 4096 (537 MB)
        assert LinearStatistic(spec("linear_statistic", 16384)).chunk_size() == 64

    # at n = 1024 AR(1) draws 256 rows per chunk and MA(1), 1025 wide, 128
    @pytest.mark.parametrize("base", ("ar1", "ma1"))
    def test_linear_statistic_keeps_the_fixed_chunk_bits(self, base):
        got, want = linear_chunk_routes(base, 1024, PINNED_SEED, 37, DEFAULT_CHUNK + 7, 5)
        assert got == want

    def test_linear_statistic_bits_with_one_blas_thread(self):
        # the benchmark pins BLAS to one thread, the test suite does not;
        # the variables are set for the child process only
        code = (
            "from helpers import linear_chunk_routes as r; "
            f"print(all(a == b for a, b in (r(k, 1024, {PINNED_SEED}, 37, {DEFAULT_CHUNK + 7}, 5) "
            "for k in ('ar1', 'ma1'))))"
        )
        env = {
            **os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(TESTS))),
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        }
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["True"]

    def test_chain_sums_match_the_float_gather(self):
        m = make_model(PINNED_CHAIN_S3)
        count = m.chunk_size() + 5
        draws = m._map_chunks(lambda d: d, np.empty((count, m.spec.n)), PINNED_SEED, 0, 5)
        want = m.f[m._states(draws)].sum(axis=1)
        assert m._sums(draws).tobytes() == want.tobytes()
        got = m.statistic_range(PINNED_SEED, 0, count, block=5)
        assert got.tobytes() == (want / m.statistic_normalizer()).tobytes()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
    def test_long_ar1_statistic_peak_memory(self):
        # one chunk of 4096 rows at n = 16384 held 537 MB.  The child reports
        # the peak of its own address space: its RUSAGE_SELF ru_maxrss would
        # start from this test process's peak, which exec carries over, and
        # RUSAGE_CHILDREN here spans every child of the session
        code = (
            "from cltlab.cli import MODEL_TAGS; "
            "from cltlab.models import ModelSpec, make_model; "
            "family, params = MODEL_TAGS['linear_ar1']; "
            "make_model(ModelSpec(family, 16384, params=params)).statistic_values(0, 4100); "
            "print(*[l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, check=True,
        )
        assert int(out.stdout.split()[-1]) < 200 * 1024  # VmHWM is in kB
