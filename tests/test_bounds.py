"""Term-by-term bound evaluators: closed forms, quadrature, Monte Carlo."""

import hashlib
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from cltlab import bounds as bounds_module
from cltlab.bounds import (
    ADDITIVE_CONST,
    BOUND_CSV_COLUMNS,
    BOUNDS,
    DEFAULT_BOUNDS,
    KAPPA_R1,
    BoundBreakdown,
    BoundTerm,
    berry_esseen_bound,
    berry_esseen_target_exponent,
    bnp,
    breakdowns_to_csv,
    corollary_w1_bound,
    heyde_brown_bound,
    l_n,
    linear_statistic_w1_bound,
    minimize_over_a,
    rho_mixing_bound,
    seqdyn_bound,
    theorem1_rhs,
    vn_of_a,
)
from cltlab.errors import CapabilityError, ConfigurationError, DomainError
from cltlab.models import KNOWN_FAMILIES, make_model
from cltlab.models.base import ModelSpec, PathMoments
from cltlab.models.chain import RhoMixingChain
from cltlab.models.iid import GaussianIID, RademacherIID, gaussian_min_profile
from cltlab.models.linear import LinearStatistic
from cltlab.models.seqdyn import SequentialMaps

from helpers import (
    PSI_BLOCK,
    ChainEnumeration,
    l_n_mc,
    psi_mc_profile,
    psi_n,
    term,
    u_ln,
    u_ln_mc,
)


def spec(family, n, p=3.0, **params):
    return ModelSpec(family=family, n=n, p=p, params=params)


def flat_moments(n, v):
    s = np.full(n, v / n)
    return PathMoments(sigma2=s, v_n=float(v), conditional_variance_constant=True)


def combined(bd):
    """The total by the breakdown's documented power and prefactor rule."""
    vals = [t.value for t in bd.terms]
    if bd.prefactor:
        return vals[0] * sum(vals[1:]) ** bd.power
    return sum(vals) ** bd.power


def rademacher(n, p=3.0):
    return RademacherIID(spec("rademacher_iid", n, p=p))


def asymmetric_chain(n, p=3.0):
    return RhoMixingChain(
        spec("rho_mixing_chain", n, p=p,
             transition=[[0.7, 0.3], [0.2, 0.8]],
             state_values=[1.0, -0.5])
    )


class TestScalarHelpers:
    def test_vn_of_a_goldens(self):
        assert abs(vn_of_a(1.0, flat_moments(10, 10.0)) - 21.0) <= 1e-12
        assert abs(vn_of_a(2.0, flat_moments(100, 100.0)) - 129.0) <= 1e-12

    def test_vn_of_a_rejects_small_a(self):
        with pytest.raises(DomainError):
            vn_of_a(0.5, flat_moments(4, 4.0))

    def test_target_exponents(self):
        assert berry_esseen_target_exponent(3.0) == -0.25
        assert abs(berry_esseen_target_exponent(2.5) + 1.0 / 6.0) <= 1e-15
        for p in (2.0, 3.5):
            with pytest.raises(DomainError):
                berry_esseen_target_exponent(p)


class TestPsiN:
    def test_zero_argument_is_exact_zero(self):
        assert psi_n(0.0, rademacher(8)) == (0.0, 0.0, True)

    def test_closed_form_rademacher(self):
        m = rademacher(8)
        val, se, exact = psi_n(0.3, m)
        assert (val, se, exact) == (0.3, 0.0, True)
        assert psi_n(5.0, m)[0] == 1.0

    def test_monte_carlo_matches_closed_form_gaussian(self):
        m = GaussianIID(spec("gaussian_iid", 8))
        for t in (0.5, 1.0, 2.0):
            closed = float(gaussian_min_profile(t))
            val, se, exact = psi_n(t, m, mode="monte_carlo", replicates=10_000, master_seed=7)
            assert not exact and se > 0.0
            assert abs(val - closed) <= 3.0 * se

    def test_monte_carlo_matches_closed_form_chain(self):
        m = asymmetric_chain(6)
        for t in (0.5, 1.5):
            closed = psi_n(t, m)[0]
            val, se, _ = psi_n(t, m, mode="monte_carlo", replicates=8_000, master_seed=11)
            assert abs(val - closed) <= 3.0 * se + 1e-9

    @pytest.mark.parametrize("model", [GaussianIID(spec("gaussian_iid", 8)), asymmetric_chain(6)])
    def test_monte_carlo_profile_is_the_per_t_loop(self, model):
        grid = np.concatenate(([0.0], np.geomspace(1e-3, 1e2, 17)))
        value, se = psi_mc_profile(model, 2_000, 5)(KAPPA_R1 * grid)
        mo = model.moments()
        live = mo.sigma2 > 0.0
        xi = model.increment_matrix(5, 2_000, PSI_BLOCK)[:, live]
        s2 = mo.sigma2[live]
        for i, x in enumerate(grid):
            t = KAPPA_R1 * x
            vals = np.minimum(t * mo.delta_n * xi**2, np.abs(xi) ** 3)
            k = int(np.argmax(vals.mean(axis=0) / s2))
            assert value[i] == float(np.max(vals.mean(axis=0) / s2))
            assert se[i] == float(vals[:, k].std(ddof=1) / (math.sqrt(xi.shape[0]) * s2[k]))

    # SHA-256 of the (value, se) bytes of psi_mc_profile(model, 5000, 5) on
    # KAPPA_R1 * MC_PSI_GRID, recorded while the profile held the raw table
    # and separate |xi|^2 and |xi|^3 copies
    MC_PSI_GRID = np.concatenate(([0.0], np.geomspace(1e-3, 1e2, 17)))
    MC_PSI_DIGESTS = {
        "gaussian_iid": (
            spec("gaussian_iid", 8),
            "5e2f6de22ca54973ebd6fff2152670086f301eec03890d641199c858d8451329",
        ),
        "ce_lowerbound": (
            spec("ce_lowerbound", 64),
            "e9dcf1127303cf3b9282315e585ff7e8450393cb3ef8a045f37091d943ee48f3",
        ),
        "periodic_chain": (  # one live column of seven
            spec("rho_mixing_chain", 7, transition=[[0.0, 1.0], [1.0, 0.0]]),
            "7ff87a1cd369d22af54e521f1602d6c3553405ab5b570d76f3ab5066c80608be",
        ),
        "rademacher_affine": (
            spec("rademacher_iid", 33, sigma={"rule": "affine", "intercept": 0.5, "slope": 1.0}),
            "d1e63e0522ce3e15c5861d3546cea1ffdb74bcc9154b7bed37e8cc37e4af388e",
        ),
    }

    @pytest.mark.pinned
    @pytest.mark.parametrize("name", list(MC_PSI_DIGESTS))
    def test_monte_carlo_profile_bits_are_pinned(self, name):
        s, digest = self.MC_PSI_DIGESTS[name]
        value, se = psi_mc_profile(make_model(s), 5000, 5)(KAPPA_R1 * self.MC_PSI_GRID)
        assert hashlib.sha256(value.tobytes() + se.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("family", ["gaussian_iid", "ce_lowerbound"])
    def test_monte_carlo_profile_holds_three_tables(self, family):
        model, reps = make_model(spec(family, 64)), 40_000
        psi_mc_profile(model, 200, 5)(np.array([1.0]))  # imports outside the trace
        table = 8 * reps * model.spec.n
        tracemalloc.start()
        try:
            psi_mc_profile(model, reps, 5)(np.geomspace(1e-3, 1e2, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * table

    def test_missing_closed_form_is_loud(self):
        m = SequentialMaps(spec("sequential_maps", 4))
        with pytest.raises(CapabilityError):
            psi_n(1.0, m, mode="closed_form")

    def test_validation(self):
        with pytest.raises(DomainError):
            psi_n(-1.0, rademacher(4))
        with pytest.raises(ConfigurationError):
            psi_n(1.0, rademacher(4), mode="quadrature")


class TestFluctuationStatistics:
    def test_constant_conditional_variance_short_circuits(self):
        assert u_ln(2, 3.0, rademacher(8)) == 0.0
        assert l_n(3.0, 1.0, 1.0, rademacher(8)) == 0.0
        lin = LinearStatistic(spec("linear_statistic", 8, base={"kind": "ar1", "phi": 0.5}))
        assert l_n(3.0, 1.0, 1.0, lin) == 0.0

    def test_symmetric_chain_fluctuations_vanish_exactly(self):
        m = RhoMixingChain(spec("rho_mixing_chain", 8))
        for ell in (2, 5, 8):
            assert u_ln(ell, 3.0, m) == 0.0
        assert l_n(3.0, 1.0, 1.0, m) == 0.0

    def test_u_ln_exact_matches_path_enumeration(self):
        m = asymmetric_chain(6)
        oracle = ChainEnumeration(m.P, m.f, m.pi, 6)
        for ell in (2, 4, 6):
            assert abs(u_ln(ell, 2.5, m) - oracle.u_ell(ell, 2.5)) <= 1e-12

    def test_u_ln_monte_carlo_agrees_with_exact(self):
        m = asymmetric_chain(6)
        for ell in (2, 4):
            exact_val = u_ln(ell, 3.0, m)
            val, se = u_ln_mc(ell, 3.0, m, replicates=4000, master_seed=3)
            assert se > 0.0
            assert abs(val - exact_val) <= 3.0 * se

    def test_l_n_exact_matches_path_enumeration(self):
        m = asymmetric_chain(6)
        oracle = ChainEnumeration(m.P, m.f, m.pi, 6)
        for (p, r, a) in ((3.0, 1.0, 1.0), (2.5, 0.5, 2.0)):
            assert abs(l_n(p, r, a, m) - oracle.l_n(p, r, a)) <= 1e-10

    def test_l_n_monte_carlo_agrees_with_exact(self):
        m = asymmetric_chain(6)
        exact_val = l_n(3.0, 1.0, 1.0, m)
        val, se = l_n_mc(3.0, 1.0, 1.0, m, replicates=4000, master_seed=5)
        assert se > 0.0
        assert abs(val - exact_val) <= 3.0 * se

    @pytest.mark.parametrize("a", (1.0, 1.5))
    def test_l_n_denominators_match_exact_tail_sums(self, a):
        # V_n - V_{ell-1} as exact rational tail sums of the ladder; each
        # term is rounded once and the terms are added with fsum, so the
        # reference is good to a few ulps at (p, r) = (3, 1), where the
        # denominators carry no power
        n = 1024
        m = RhoMixingChain(
            spec("rho_mixing_chain", n,
                 transition=[[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
                 state_values=[1.0, -0.5, 2.0])
        )
        mo, u = m.moments(), m.u_exact(3.0)
        floor = Fraction(a) ** 2 * Fraction(mo.delta_n) ** 2
        tail, terms = Fraction(0), []
        for ell in range(n, 1, -1):
            tail += Fraction(float(mo.sigma2[ell - 1]))
            terms.append(float(Fraction(float(u[ell - 2])) / (tail + floor)))
        reference = math.fsum(terms)
        value = l_n(3.0, 1.0, a, m)
        assert reference > 0.0
        assert abs(value - reference) <= 1e-13 * reference

    def test_l_n_nonincreasing_in_a(self):
        m = asymmetric_chain(8)
        vals = [l_n(3.0, 1.0, a, m) for a in (1.0, 2.0, 4.0)]
        assert vals[0] >= vals[1] >= vals[2] > 0.0

    def test_validation(self):
        m = asymmetric_chain(6)
        with pytest.raises(DomainError):
            u_ln(1, 3.0, m)
        with pytest.raises(DomainError):
            u_ln(7, 3.0, m)
        with pytest.raises(DomainError):
            l_n(3.0, 1.0, 0.5, m)
        with pytest.raises(DomainError):
            l_n(3.5, 1.0, 1.0, m)
        with pytest.raises(CapabilityError):
            l_n(3.0, 1.0, 1.0, SequentialMaps(spec("sequential_maps", 4)))

    def test_l_n_never_samples(self, monkeypatch):
        # without u_exact l_n raises at once: no prefix states are drawn for
        # a Monte Carlo estimate that could not be formed
        calls = []
        monkeypatch.setattr(
            SequentialMaps, "prefix_states_chunk", lambda self, *a, **k: calls.append(a)
        )
        with pytest.raises(CapabilityError):
            l_n(3.0, 1.0, 1.0, SequentialMaps(spec("sequential_maps", 4)))
        assert calls == []


class TestMasterBound:
    def test_rademacher_n100_explicit_terms(self):
        # delta = 1, V = 100, a = 1: v_n(a) = 201, X = sqrt(201).
        bd = theorem1_rhs(3.0, 1.0, rademacher(100))
        assert abs(term(bd, "variance_tail_integral").value - (1.0 - 1.0 / math.sqrt(201.0))) <= 1e-12
        # psi(6x) = 1 on the whole grid, so the log-grid trapezoid is exact:
        # integral of dx/x from 1 to sqrt(201) = log(201)/2.
        psi_term = term(bd, "psi_integral")
        assert abs(psi_term.value - 0.5 * math.log(201.0)) <= 1e-12
        assert psi_term.se <= 1e-12
        assert term(bd, "fluctuation_sum") == BoundTerm(
            "fluctuation_sum", 0.0,
            "sum_{l=2}^n U_l(p) / (V_n - V_{l-1} + a^2 delta^2)^((p-r)/2)",
        )
        assert abs(term(bd, "smoothing_floor").value - ADDITIVE_CONST) <= 1e-15
        assert bd.total == combined(bd)
        assert bd.meta["kappa"] == KAPPA_R1
        assert abs(bd.meta["x_upper"] - math.sqrt(201.0)) <= 1e-12
        assert bd.meta["cubic_constant"] == 1.0
        assert bd.meta["quartic_constant"] == 8.0 / 5.0

    @pytest.mark.parametrize("a", (2.0, 4.0, 8.0))
    def test_closed_form_terms_follow_a(self, a):
        # at a = 1 a mutant that squares a in term 4 still passes; here delta
        # is not 1 and each closed form is rebuilt from the moment ladder
        m = RademacherIID(spec("rademacher_iid", 33, sigma={"rule": "affine", "intercept": 0.5, "slope": 1.0}))
        mo = m.moments()
        delta = mo.delta_n
        bd = theorem1_rhs(3.0, a, m)
        x_hi = bd.meta["x_upper"]
        assert delta > 1.0
        assert math.isclose(x_hi, math.sqrt(a * a * delta**2 + (1.0 + a * a) / (a * a) * mo.v_n) / delta)
        assert math.isclose(term(bd, "smoothing_floor").value, 4.0 * math.sqrt(2.0) * a * delta)
        assert math.isclose(term(bd, "variance_tail_integral").value, delta * (1.0 / a - 1.0 / x_hi))

    def test_explicit_constants_need_r1(self):
        # the explicit constants exist at r = 1, the only order evaluated
        explicit = ("kappa_explicit", "cubic_constant", "quartic_constant")
        for p in (2.5, 3.0):
            r1 = theorem1_rhs(p, 1.0, rademacher(16))
            assert r1.constants_mode == "explicit_r1"
            assert r1.meta["r"] == 1.0 and isinstance(r1.meta["r"], float)
            assert [r1.meta[k] for k in explicit] == [KAPPA_R1, 1.0, 8.0 / 5.0]

    def test_fluctuation_term_enters_for_chains(self):
        m = asymmetric_chain(6)
        bd = theorem1_rhs(3.0, 1.0, m)
        lterm = term(bd, "fluctuation_sum")
        assert lterm.exact and lterm.value > 0.0
        assert abs(lterm.value - l_n(3.0, 1.0, 1.0, m)) <= 1e-12
        assert bd.total == combined(bd)

    def test_missing_oracle_raises_before_any_psi_path(self, monkeypatch):
        # sequential_maps has no conditional-variance oracle, so the
        # fluctuation sum cannot be formed: no psi path may be drawn first
        m = SequentialMaps(spec("sequential_maps", 32))
        calls = []
        draw = m.increment_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(m, "increment_matrix", counted)
        with pytest.raises(CapabilityError):
            theorem1_rhs(3.0, 1.0, m)
        assert calls == []

    def test_grid_refinement_converges(self):
        # Halving the psi grid should not move the trapezoid at 1e-6 scale
        # for a smooth profile (Gaussian family): the Richardson estimate of
        # the fine grid's error is what the psi term reports as its se.
        bd = theorem1_rhs(3.0, 1.0, GaussianIID(spec("gaussian_iid", 64)))
        psi = term(bd, "psi_integral")
        assert psi.value > 0.0
        assert psi.se <= 1e-6 * bd.total

    def test_minimize_over_a_scans_doubling_grid(self):
        seen = []

        def evaluate(a):
            seen.append(a)
            total = (a - 4.0) ** 2 + 1.0
            return BoundBreakdown(
                bound_id="theorem1_rhs",
                terms=(BoundTerm("only", total, "fake"),),
                constants_mode="shape_only",
            )

        best_a, best = minimize_over_a(evaluate, flat_moments(100, 100.0))
        assert seen == [1.0, 2.0, 4.0, 8.0]  # sqrt(V)/delta = 10
        assert best_a == 4.0 and best.total == 1.0


class TestTransportDisplays:
    def test_rademacher_log_display_golden(self):
        bd = corollary_w1_bound(3.0, 1.0, rademacher(100))
        assert bd.meta["display"] == "log"
        assert abs(bd.total - (ADDITIVE_CONST + 0.5 * math.log(201.0))) <= 1e-12

    def test_power_display_below_p3(self):
        bd = corollary_w1_bound(2.5, 1.0, rademacher(100))
        assert bd.meta["display"] == "power" and bd.meta["r"] == 1.0
        # moment term: sup * v_n(a)^((2+r-p)/2) = 1 * 201^(1/4)
        assert abs(term(bd, "moment_ratio_term").value - 201.0**0.25) <= 1e-12
        assert abs(term(bd, "smoothing_floor").value - ADDITIVE_CONST) <= 1e-12

    def test_rho_mixing_shape(self):
        # K_n = C_n = 1 and V_n = e - 1: 1 * (1 + log(e)) = 2
        model = SimpleNamespace(
            model_id="stub", k_n=lambda: 1.0, c_n=lambda: 1.0,
            moments=lambda: flat_moments(4, math.e - 1.0),
        )
        bd = rho_mixing_bound(model)
        assert [t.name for t in bd.terms] == ["shape"] and bd.terms[0].exact
        assert abs(bd.total - 2.0) <= 1e-12
        assert bd.meta == {"model_id": "stub", "k_n": 1.0, "c_n": 1.0, "v_n": math.e - 1.0}

    def test_seqdyn_shape(self):
        m = SequentialMaps(spec("sequential_maps", 1))
        bd = seqdyn_bound(m)
        assert [t.name for t in bd.terms] == ["shape"] and bd.terms[0].exact
        assert bd.total == math.log(2.0) * math.log(2.0 + m.moments().v_n)
        assert abs(bd.total - math.log(2.0) * math.log(3.0)) <= 1e-15
        longer = seqdyn_bound(SequentialMaps(spec("sequential_maps", 10)))
        assert longer.total > bd.total


class TestBerryEsseen:
    def test_rademacher_p3_golden(self):
        bd = berry_esseen_bound(3.0, rademacher(100))
        want = 100.0 ** -0.25 * (0.5 * math.log(201.0)) ** 0.5
        assert abs(bd.total - want) <= 1e-12
        assert bd.meta["target_exponent"] == -0.25
        assert bd.meta["log_correction"] is True
        assert bd.total == combined(bd)
        assert bd.prefactor and bd.power == 0.5

    def test_p_below_three_uses_power_combination(self):
        bd = berry_esseen_bound(2.5, rademacher(100))
        assert abs(bd.meta["target_exponent"] + 1.0 / 6.0) <= 1e-15
        assert bd.meta["log_correction"] is False
        # total = V^(-1/6) * (sup + L)^(1/(p-1)) with sup = 1, L = 0.
        assert abs(bd.total - 100.0 ** (-1.0 / 6.0)) <= 1e-12

    def test_chain_fluctuation_enters(self):
        m = asymmetric_chain(6)
        bd = berry_esseen_bound(3.0, m)
        assert term(bd, "fluctuation_sum").value > 0.0
        assert bd.total == combined(bd)


class TestHeydeBrown:
    def test_rademacher_eighth_root_shape(self):
        # sigma = 1, V = n: total = (n * n^{-3/2})^{1/4} = n^{-1/8}; at
        # n = 256 that is exactly 1/2.
        bd = heyde_brown_bound(3.0, rademacher(256))
        assert abs(bd.total - 0.5) <= 1e-12
        assert term(bd, "bracket_deviation").value == 0.0
        assert abs(term(bd, "lyapunov_sum").value - 256.0 ** -0.5) <= 1e-15

    def test_rademacher_p25_shape(self):
        # total = (n * n^{-5/4})^{2/7} = n^{-1/14}; exactly 1/2 at n = 2^14.
        bd = heyde_brown_bound(2.5, rademacher(2**14, p=2.5))
        assert abs(bd.total - 0.5) <= 1e-12

    def test_p4_allowed_but_not_beyond(self):
        assert heyde_brown_bound(4.0, rademacher(16)).total > 0.0
        with pytest.raises(DomainError):
            heyde_brown_bound(4.5, rademacher(16))

    def test_chain_bracket_deviation_positive(self, monkeypatch):
        monkeypatch.setattr(bounds_module, "U_REPLICATES", 2000)
        m = asymmetric_chain(6)
        bd = heyde_brown_bound(3.0, m, master_seed=13)
        first = term(bd, "bracket_deviation")
        assert not first.exact and first.value > 0.0 and first.se > 0.0
        assert bd.total == combined(bd)


@pytest.mark.pinned
class TestChainMonteCarloBits:
    """The Monte Carlo fluctuation sum and bracket deviation of an S = 3
    chain, pinned as float.hex values recorded when the state paths were
    still np.intp matrices built by a per-step comparison loop."""

    @staticmethod
    def chain():
        return RhoMixingChain(spec(
            "rho_mixing_chain", 300,
            transition=[[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
            state_values=[1.0, -0.7, 0.3],
        ))

    def test_fluctuation_sum(self):
        # 5000 replicates at n = 300 span two chunks of prefix states
        val, se = l_n_mc(2.7, 1.0, 1.5, self.chain(), replicates=5000, master_seed=17)
        assert (val.hex(), se.hex()) == ("0x1.7cbd87c01e68cp+0", "0x1.a0e40cb660deap-10")

    def test_heyde_brown(self, monkeypatch):
        monkeypatch.setattr(bounds_module, "U_REPLICATES", 5000)
        bd = heyde_brown_bound(3.0, self.chain(), master_seed=19)
        first = term(bd, "bracket_deviation")
        assert (first.value.hex(), first.se.hex(), bd.total.hex()) == (
            "0x1.0682b701b11f7p-10", "0x1.08bee9adaee91p-16", "0x1.0bf200ab940b4p-1")


class TestDependentSumBound:
    def test_bnp_hand_case_below_p3(self):
        # n=2, p=2.5, alphas=(1,1), lambda=(1/2,1/4), eta=(1,1/2,1/4):
        # m=1, s2=2, Lambda=1, eta=7/4.
        val = bnp(2, 2.5, [1.0, 1.0], [0.5, 0.25], [1.0, 0.5, 0.25])
        want = 1.75 ** 0.5 * (1.0 + 1.75 ** 2) * 2.0 ** 0.25
        assert abs(val - want) <= 1e-12

    def test_bnp_hand_case_at_p3(self):
        val = bnp(2, 3.0, [1.0, 1.0], [0.5, 0.25], [1.0, 0.5, 0.25])
        want = 1.75 * (1.0 + 1.75 ** 2) * math.log(2.0)
        assert abs(val - want) <= 1e-12

    def test_bnp_validation(self):
        with pytest.raises(DomainError):
            bnp(2, 3.0, [1.0], [0.5, 0.25], [1.0, 0.5, 0.25])
        with pytest.raises(DomainError):
            bnp(2, 3.0, [1.0, 1.0], [0.5], [1.0, 0.5, 0.25])
        with pytest.raises(DomainError):
            bnp(2, 3.0, [1.0, 1.0], [-0.5, 0.25], [1.0, 0.5, 0.25])
        with pytest.raises(DomainError):
            bnp(2, 3.5, [1.0, 1.0], [0.5, 0.25], [1.0, 0.5, 0.25])

    def test_linear_bound_itemization(self):
        m = LinearStatistic(spec("linear_statistic", 12, base={"kind": "ar1", "phi": 0.5}))
        bd = linear_statistic_w1_bound(m)
        assert {t.name for t in bd.terms} == {"projection_l2", "bnp"}
        assert all(t.value > 0.0 and t.exact for t in bd.terms)
        assert bd.total == combined(bd)

    def test_linear_bound_needs_projection_norms(self):
        with pytest.raises(CapabilityError):
            linear_statistic_w1_bound(GaussianIID(spec("gaussian_iid", 8)))


class TestBreakdownPlumbing:
    def test_total_se_propagation(self):
        bd = BoundBreakdown(
            bound_id="heyde_brown",
            terms=(
                BoundTerm("a", 3.0, "f", se=0.3, exact=False),
                BoundTerm("b", 1.0, "g", se=0.4, exact=False),
            ),
            constants_mode="shape_only",
            power=0.5,
        )
        # d/ds sqrt(s) at s=4 is 1/4; combined se = 0.5/4.
        assert bd.total == 2.0
        assert abs(bd.total_se() - 0.25 * 0.5) <= 1e-12

    def test_total_formula_follows_power_and_prefactor(self):
        terms = (BoundTerm("a", 2.0, "f"), BoundTerm("b", 4.0, "g"))
        cases = (
            ({}, "sum(terms)", 6.0),
            ({"power": 0.5}, "(sum(terms))^0.5", math.sqrt(6.0)),
            ({"power": 0.5, "prefactor": True}, "terms[0]*(sum(terms[1:]))^0.5", 4.0),
        )
        for kwargs, formula, total in cases:
            bd = BoundBreakdown("x", terms, "shape_only", **kwargs)
            assert bd.total_formula() == formula and bd.total == total

    def test_term_lookup(self):
        bd = berry_esseen_bound(3.0, rademacher(16))
        assert term(bd, "variance_power").exact
        with pytest.raises(KeyError):
            term(bd, "nonexistent")

    def test_csv_round_trip(self):
        bds = [
            theorem1_rhs(3.0, 1.0, rademacher(32)),
            heyde_brown_bound(3.0, rademacher(32)),
        ]
        text = breakdowns_to_csv(bds)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(BOUND_CSV_COLUMNS)
        # 4 terms + total, then 2 terms + total
        assert len(lines) == 1 + 5 + 3
        total_row = lines[5].split(",")
        assert total_row[1] == "total"
        assert float(total_row[2]) == bds[0].total  # repr round-trip
        assert all(line.split(",")[6].startswith('"') for line in lines[1:])


# tag -> the families that declare every oracle the display needs; each other
# (tag, family) pair raises CapabilityError.  README's bound table matches.
MARTINGALE_FAMILIES = {
    "gaussian_iid", "rademacher_iid", "ce_lowerbound", "linear_statistic", "rho_mixing_chain",
}
SUPPORTED = {
    "theorem1_rhs": MARTINGALE_FAMILIES,
    "w1_upper": MARTINGALE_FAMILIES,
    "berry_esseen": MARTINGALE_FAMILIES,
    "heyde_brown": MARTINGALE_FAMILIES,
    "linear_w1": {"linear_statistic"},
    "rho_mixing": {"rho_mixing_chain"},
    "seqdyn": set(KNOWN_FAMILIES),
}


class TestBoundTable:
    def test_matrix_covers_the_table(self):
        assert tuple(SUPPORTED) == tuple(BOUNDS)
        pairs = [(t, f) for t in BOUNDS for f in KNOWN_FAMILIES]
        assert len(pairs) == 42
        assert sum(f in SUPPORTED[t] for t, f in pairs) == 28

    @pytest.mark.parametrize("family", KNOWN_FAMILIES)
    @pytest.mark.parametrize("tag", tuple(BOUNDS))
    def test_capability_matrix(self, tag, family):
        model = make_model(spec(family, 32))
        if family in SUPPORTED[tag]:
            bd = BOUNDS[tag](model, 3.0, 0, 1.0)
            assert bd.bound_id == tag
            assert bd.total == combined(bd)
        else:
            with pytest.raises(CapabilityError):
                BOUNDS[tag](model, 3.0, 0, 1.0)

    def test_default_sets_are_supported_and_in_table_order(self):
        assert tuple(DEFAULT_BOUNDS) == KNOWN_FAMILIES
        for family, tags in DEFAULT_BOUNDS.items():
            assert tags and all(family in SUPPORTED[t] for t in tags)
            assert list(tags) == [t for t in BOUNDS if t in tags]

    def test_auto_a_is_the_minimizing_candidate(self):
        m = asymmetric_chain(32)
        auto = BOUNDS["w1_upper"](m, 3.0, 0, None)
        _, best = minimize_over_a(lambda a: corollary_w1_bound(3.0, a, m), m.moments())
        assert auto.meta["a"] == best.meta["a"] and auto.total == best.total
        fixed = BOUNDS["w1_upper"](m, 3.0, 0, 2.0)
        assert fixed.meta["a"] == 2.0

