"""Theoretical bound evaluators, itemized term by term.

Every bound on the Gaussian approximation error that the experiment suite
compares against is computed here, from the family's exact oracles; only
heyde_brown's quadratic-variation term is a Monte Carlo mean, reported with
its standard error.  Results come back as a BoundBreakdown whose terms can
be re-assembled into the total, so nothing is ever a single opaque number.

Unknown absolute constants are never invented: totals are computed with the
leading constant set to 1 and the breakdown flagged ``shape_only``.  The
one place explicit constants are known (r = 1: kappa = 6, the two cubic /
quartic smoothing constants 1 and 8/5) is the master bound, which is only
evaluated at r = 1, flagged ``explicit_r1`` and records them in the
breakdown metadata; the leading constant still enters as 1, so both modes
produce shape values suitable for rate comparisons, not certified numerical
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .distances import check_p
from .errors import DomainError
from .models.base import Model, PathMoments
from .numerics import csv_text

# Explicit constants available at r = 1.
KAPPA_R1 = 6.0
C_R1_CUBIC = 1.0
C_R1_QUARTIC = 8.0 / 5.0
# Additive smoothing constant 4*sqrt(2) in front of (a*delta)^r.
ADDITIVE_CONST = 4.0 * math.sqrt(2.0)

# heyde_brown's Monte Carlo replicates, read when it is called.  Its block
# keeps the bracket paths disjoint from the distance pipeline's replicate
# streams under the same master seed.
U_REPLICATES = 10_000
HB_BLOCK = 103

# The psi integral uses a trapezoid rule on a log-spaced grid; 513 points so
# the halved grid (every other point) still contains both endpoints for the
# Richardson error estimate.
PSI_GRID_POINTS = 513

# The fluctuation sum's formula in the displays whose floor carries a.
FLUCTUATION_FORMULA = "sum_{l=2}^n U_l(p) / (V_n - V_{l-1} + a^2 delta^2)^((p-r)/2)"

BOUND_CSV_COLUMNS = (
    "bound_id",
    "term",
    "value",
    "se",
    "exact",
    "constants_mode",
    "formula",
)


@dataclass(frozen=True)
class BoundTerm:
    """One itemized summand of a bound: value, provenance and, for a term
    that is not exact, its standard error."""

    name: str
    value: float
    formula: str
    se: float = 0.0
    exact: bool = True


@dataclass(frozen=True)
class BoundBreakdown:
    """A bound total together with the terms it is assembled from.

    The total, derived at construction, is (sum of the values) ** power, or
    values[0] * (sum of the other values) ** power with a prefactor.
    """

    bound_id: str
    terms: tuple[BoundTerm, ...]
    constants_mode: str
    power: float = 1.0
    prefactor: bool = False
    meta: Mapping[str, object] = field(default_factory=dict)
    total: float = field(init=False)

    def __post_init__(self) -> None:
        prefactor, summands = self._split()
        total = prefactor * float(sum(t.value for t in summands)) ** self.power
        object.__setattr__(self, "total", float(total))

    def _split(self) -> tuple[float, tuple[BoundTerm, ...]]:
        """(prefactor, summands): total = prefactor * sum(summands) ** power."""
        if self.prefactor:
            return self.terms[0].value, self.terms[1:]
        return 1.0, self.terms

    def total_formula(self) -> str:
        if self.prefactor:
            return f"terms[0]*(sum(terms[1:]))^{self.power:g}"
        if self.power == 1.0:
            return "sum(terms)"
        return f"(sum(terms))^{self.power:g}"

    def total_se(self) -> float:
        """First-order propagated standard error of the total."""
        prefactor, summands = self._split()
        spread = float(math.sqrt(float(np.sum(np.array([t.se for t in summands]) ** 2))))
        s = float(np.sum([t.value for t in summands]))
        if self.power != 1.0 and s <= 0.0:
            return 0.0
        return prefactor * abs(self.power) * s ** (self.power - 1.0) * spread


def breakdowns_to_csv(breakdowns: Sequence[BoundBreakdown]) -> str:
    """The bound table: one row per term plus a closing total row per breakdown."""
    rows = []
    for bd in breakdowns:
        exact = all(t.exact for t in bd.terms)
        total = BoundTerm("total", bd.total, bd.total_formula(), bd.total_se(), exact)
        mode = bd.constants_mode
        rows.extend(
            (bd.bound_id, t.name, float(t.value), float(t.se), t.exact, mode, t.formula)
            for t in (*bd.terms, total)
        )
    return csv_text(BOUND_CSV_COLUMNS, rows)


# ---------------------------------------------------------------------------
# scalar helpers


def vn_of_a(a: float, moments: PathMoments) -> float:
    """a^2 delta^2 + ((1+a^2)/a^2) V_n, the inflated variance scale."""
    if not (math.isfinite(a) and a >= 1.0):
        raise DomainError(f"a must be a real >= 1, got {a!r}")
    alpha = (1.0 + a * a) / (a * a)
    return a * a * moments.delta_n**2 + alpha * moments.v_n


# ---------------------------------------------------------------------------
# the conditional-variance fluctuation sum


def l_n(p: float, r: float, a: float, model: Model) -> float:
    """sum_{ell=2}^n U_ell(p) / (V_n - V_{ell-1} + a^2 delta^2)^((p-r)/2), exact.

    U_ell(p) = E[(|xi_{ell-1}| v sigma_{ell-1})^{p-2} |sum_{k>=ell}(E_{ell-1} xi_k^2 - sigma_k^2)|]
    is exactly 0 for models with constant conditional variances; otherwise
    it is read from the family's ``u_exact``, and a family that does not
    declare it raises CapabilityError.
    """
    check_p(p)
    if not (isinstance(r, (int, float)) and 0.0 < r <= p):
        raise DomainError(f"r must lie in (0, p], got {r!r}")
    if not (math.isfinite(a) and a >= 1.0):
        raise DomainError(f"a must be a real >= 1, got {a!r}")
    mo = model.moments()
    if mo.conditional_variance_constant:
        return 0.0
    # V_n - V_{ell-1} for ell = 2..n as the tail sums of the ladder
    tails = mo.tail_sums()[1:]
    denoms = (tails + a * a * mo.delta_n**2) ** ((p - r) / 2.0)
    return float(sum(u / d for u, d in zip(model.u_exact(p), denoms)))


# ---------------------------------------------------------------------------
# the master bound


def theorem1_rhs(p: float, a: float, model: Model) -> BoundBreakdown:
    """Four-term smoothing bound on the ideal metric of order r = 1.

    term 1  delta^r * integral_a^X x^(r-3) dx                 (closed form)
    term 2  delta^(r-1) * integral_a^X psi(kappa x) x^(r-2) dx (trapezoid)
    term 3  the conditional-variance fluctuation sum           (l_n, exact)
    term 4  4*sqrt(2) * a^r * delta^r                          (closed form)

    X = sqrt(v_n(a))/delta and kappa = 6.  psi is the family's
    ``psi_closed_form`` and the fluctuation sum its ``u_exact``; a family
    without either raises CapabilityError.  The leading constant multiplying
    terms 1-3 is unknown and entered as 1; the explicit smoothing constants
    known at r = 1 are recorded in the metadata, and the breakdown is flagged
    ``explicit_r1``.  The formulas keep the general-r form the table prints;
    each factor with exponent r - 1 is exactly 1.
    """
    check_p(p)
    mo = model.moments()
    delta = mo.delta_n
    va = vn_of_a(a, mo)
    x_hi = math.sqrt(va) / delta

    # integral_a^X x^(-2) dx in closed form
    t1 = delta * (a**-1.0 - x_hi**-1.0)

    # the fluctuation sum goes first: it raises CapabilityError for a family
    # without a fluctuation oracle before the psi profile is evaluated
    lv = l_n(p, 1.0, a, model)

    # integral_a^X psi(kappa x) dx/x: with u = log x the integrand is
    # psi(kappa e^u), taken by the trapezoid on a uniform u-grid; its
    # half-resolution restriction gives the Richardson error estimate
    u = np.linspace(math.log(a), math.log(x_hi), PSI_GRID_POINTS)
    g = model.psi_closed_form(KAPPA_R1 * np.exp(u))
    t2 = float(np.trapezoid(g, u))
    t2_se = abs(t2 - float(np.trapezoid(g[::2], u[::2]))) / 3.0

    t4 = ADDITIVE_CONST * a * delta

    terms = (
        BoundTerm("variance_tail_integral", float(t1), "delta^r * integral_a^X x^(r-3) dx"),
        BoundTerm(
            "psi_integral",
            t2,
            "delta^(r-1) * integral_a^X psi(kappa*x) * x^(r-2) dx",
            se=t2_se,
            exact=False,
        ),
        BoundTerm("fluctuation_sum", lv, FLUCTUATION_FORMULA),
        BoundTerm("smoothing_floor", float(t4), "4*sqrt(2) * a^r * delta^r"),
    )
    return BoundBreakdown(
        bound_id="theorem1_rhs",
        terms=terms,
        constants_mode="explicit_r1",
        meta={
            "model_id": model.model_id,
            "r": 1.0,
            "p": p,
            "a": a,
            "kappa": KAPPA_R1,
            "x_upper": x_hi,
            "v_n_of_a": va,
            "delta_n": delta,
            "v_n": mo.v_n,
            "psi_mode": "closed_form",
            "u_mode": "auto",
            "kappa_explicit": KAPPA_R1,
            "cubic_constant": C_R1_CUBIC,
            "quartic_constant": C_R1_QUARTIC,
        },
    )


def minimize_over_a(
    evaluate: Callable[[float], BoundBreakdown], moments: PathMoments
) -> tuple[float, BoundBreakdown]:
    """Smallest total over the doubling grid a in {1, 2, 4, ...} up to sqrt(V)/delta."""
    a_max = max(1.0, math.sqrt(moments.v_n) / moments.delta_n)
    best_a, best = 1.0, evaluate(1.0)
    a = 2.0
    while a <= a_max:
        cand = evaluate(a)
        if cand.total < best.total:
            best_a, best = a, cand
        a *= 2.0
    return best_a, best


# ---------------------------------------------------------------------------
# corollary-level displays


def corollary_w1_bound(p: float, a: float, model: Model) -> BoundBreakdown:
    """The closed-form W1 display implied by the master bound at r = 1.

    For p < 3 the middle term is sup_k E|xi_k|^p/sigma_k^2 times
    v_n(a)^((2+r-p)/2); at p = 3 the power degenerates and is replaced by
    log(sqrt(v_n(a))/delta).
    """
    check_p(p)
    mo = model.moments()
    delta = mo.delta_n
    va = vn_of_a(a, mo)
    sup = model.sup_moment_ratio(p)
    if p == 3.0:
        factor = math.log(math.sqrt(va) / delta)
        display = "log"
        mid_formula = "sup_k E|xi_k|^p/sigma_k^2 * log(sqrt(v_n(a))/delta)"
    else:
        factor = va ** ((3.0 - p) / 2.0)
        display = "power"
        mid_formula = "sup_k E|xi_k|^p/sigma_k^2 * v_n(a)^((2+r-p)/2)"
    lv = l_n(p, 1.0, a, model)
    terms = (
        BoundTerm(
            "smoothing_floor", float(ADDITIVE_CONST * (a * delta)), "4*sqrt(2) * (a*delta)^r"
        ),
        BoundTerm("moment_ratio_term", float(sup * factor), mid_formula),
        BoundTerm("fluctuation_sum", lv, FLUCTUATION_FORMULA),
    )
    return BoundBreakdown(
        bound_id="w1_upper",
        terms=terms,
        constants_mode="shape_only",
        meta={
            "model_id": model.model_id,
            "r": 1.0,
            "p": p,
            "a": a,
            "display": display,
            "v_n_of_a": va,
            "delta_n": delta,
            "v_n": mo.v_n,
        },
    )


def berry_esseen_target_exponent(p: float) -> float:
    """Predicted uniform-distance decay exponent in V_n: -(p-2)/(2(p-1))."""
    check_p(p)
    return -(p - 2.0) / (2.0 * (p - 1.0))


def berry_esseen_bound(p: float, model: Model) -> BoundBreakdown:
    """Shape of the uniform-distance rate for the normalized martingale.

    p < 3:  V^(-(p-2)/(2(p-1))) * (sup-ratio + fluctuation sum)^(1/(p-1))
    p = 3:  V^(-1/4) * (sup-ratio * log(sqrt(v_n(1))/delta) + fluct.)^(1/2)

    The metadata records the pure target exponent for the rate-fit module
    (log_correction marks the p = 3 square-root-of-log factor).
    """
    target = berry_esseen_target_exponent(p)
    mo = model.moments()
    sup = model.sup_moment_ratio(p)
    if p < 3.0:
        r = p - 2.0
        factor = 1.0
        mid_formula = "sup_k E|xi_k|^p/sigma_k^2"
    else:
        r = 1.0
        factor = math.log(math.sqrt(vn_of_a(1.0, mo)) / mo.delta_n)
        mid_formula = "sup_k E|xi_k|^3/sigma_k^2 * log(sqrt(v_n(1))/delta)"
    lv = l_n(p, r, 1.0, model)
    terms = (
        BoundTerm("variance_power", float(mo.v_n**target), "V_n^(-(p-2)/(2(p-1)))"),
        BoundTerm("moment_ratio_term", float(sup * factor), mid_formula),
        BoundTerm(
            "fluctuation_sum",
            lv,
            "sum_{l=2}^n U_l(p) / (V_n - V_{l-1} + delta^2)^((p-r)/2)",
        ),
    )
    return BoundBreakdown(
        bound_id="berry_esseen",
        terms=terms,
        constants_mode="shape_only",
        power=1.0 / (p - 1.0),
        prefactor=True,
        meta={
            "model_id": model.model_id,
            "p": p,
            "r": r,
            "target_exponent": target,
            "log_correction": p == 3.0,
            "v_n": mo.v_n,
        },
    )


def heyde_brown_bound(p: float, model: Model, master_seed: int = 0) -> BoundBreakdown:
    """Classical quadratic-variation bound shape, for comparison plots.

    (||<M>_n/V_n - 1||_{p/2}^{p/2} + V_n^(-p/2) sum_k E|xi_k|^p)^(1/(p+1))
    with the unknown leading constant entered as 1.  The first term is a
    mean over U_REPLICATES bracket paths unless the conditional variances
    are constant, where it is exactly 0.
    """
    if not (isinstance(p, (int, float)) and 2.0 < p <= 4.0):
        raise DomainError(f"p must lie in (2, 4], got {p!r}")
    mo = model.moments()
    if mo.conditional_variance_constant:
        first, first_se, first_exact = 0.0, 0.0, True
    else:
        states = model.prefix_states_chunk(master_seed, U_REPLICATES, HB_BLOCK)
        dev = np.abs(model.bracket_samples(states) / mo.v_n - 1.0) ** (p / 2.0)
        first = float(dev.mean())
        first_se = float(dev.std(ddof=1) / math.sqrt(dev.size))
        first_exact = False
    vpow = mo.v_n ** (-p / 2.0)
    terms = (
        BoundTerm(
            "bracket_deviation",
            first,
            "||<M>_n/V_n - 1||_{p/2}^{p/2}",
            se=first_se,
            exact=first_exact,
        ),
        BoundTerm(
            "lyapunov_sum",
            float(vpow * model.sum_abs_moments(p)),
            "V_n^(-p/2) * sum_k E|xi_k|^p",
        ),
    )
    return BoundBreakdown(
        bound_id="heyde_brown",
        terms=terms,
        constants_mode="shape_only",
        power=1.0 / (p + 1.0),
        meta={
            "model_id": model.model_id,
            "p": p,
            "v_n": mo.v_n,
            # decay exponent in V_n when the first term vanishes and the
            # moment ratio is bounded: -(p-2)/(2(p+1))
            "cvc_exponent": -(p - 2.0) / (2.0 * (p + 1.0)),
        },
    )


# ---------------------------------------------------------------------------
# dependent-sum displays


def bnp(
    n: int,
    p: float,
    alphas: Sequence[float],
    lambda_seq: Sequence[float],
    eta_seq: Sequence[float],
) -> float:
    """Weighted-sum bound block from the projection norms of the base sequence.

    p < 3:  m^(p-2) * eta^(p-2) * (Lambda + eta^2) * (sum alpha^2)^((3-p)/2)
    p = 3:  m * eta * (Lambda + eta^2) * log(sum alpha^2 / m)

    with m = max |alpha|, Lambda = sum_i i*lambda_i over i = 1..n, and
    eta = sum of eta_seq over i = 0..n.
    """
    check_p(p)
    a = np.asarray(alphas, dtype=float)
    if a.size == 0:
        raise DomainError("empty coefficient list")
    if a.size != n:
        raise DomainError(f"expected {n} coefficients, got {a.size}")
    lam = np.asarray(lambda_seq, dtype=float)
    eta = np.asarray(eta_seq, dtype=float)
    if lam.size < n or eta.size < n + 1:
        raise DomainError(
            f"need lambda_seq of length >= {n} and eta_seq of length >= {n + 1}"
        )
    if np.any(lam[:n] < 0) or np.any(eta[: n + 1] < 0):
        raise DomainError("projection norms must be nonnegative")
    m_n = float(np.max(np.abs(a)))
    s2 = float(np.sum(a * a))
    big_lambda = float(np.sum(np.arange(1, n + 1) * lam[:n]))
    eta_n = float(np.sum(eta[: n + 1]))
    if p < 3.0:
        value = (
            m_n ** (p - 2.0)
            * eta_n ** (p - 2.0)
            * (big_lambda + eta_n**2)
            * s2 ** ((3.0 - p) / 2.0)
        )
    else:
        value = m_n * eta_n * (big_lambda + eta_n**2) * math.log(s2 / m_n)
    return float(value)


def linear_statistic_w1_bound(model: Model) -> BoundBreakdown:
    """Transport bound for a weighted stationary-base sum, itemized.

    term 1  m_n * sum_k ||E(Y_k | past at 0)||_2   (projection decay)
    term 2  the projection-norm block B(n, p)

    The base is assumed to have a spectral floor, so no coefficient-increment
    term enters.
    """
    p = model.spec.p
    lam, eta_p = model.projection_norms(p)
    _, eta_2 = model.projection_norms(2.0)
    n = model.spec.n
    alphas = model.alpha
    m_n = float(np.max(np.abs(alphas)))
    t1 = m_n * float(np.sum(eta_2))
    t2 = bnp(n, p, alphas, lam, eta_p)
    terms = (
        BoundTerm("projection_l2", float(t1), "m_n * sum_{k=0}^n ||E(Y_k|G_0)||_2"),
        BoundTerm("bnp", float(t2), "B(n,p) from the projection norms"),
    )
    return BoundBreakdown(
        bound_id="linear_w1",
        terms=terms,
        constants_mode="shape_only",
        meta={
            "model_id": model.model_id,
            "p": p,
            "n": n,
            "m_n": m_n,
            "spectral_floor": True,
        },
    )


def rho_mixing_bound(model: Model) -> BoundBreakdown:
    """K_n * (1 + C_n * log(1 + C_n * V_n)), the bounded-mixing transport shape."""
    k_n, c_n, v_n = model.k_n(), model.c_n(), model.moments().v_n
    value = k_n * (1.0 + c_n * math.log1p(c_n * v_n))
    return BoundBreakdown(
        bound_id="rho_mixing",
        terms=(BoundTerm("shape", value, "K_n*(1+C_n*log(1+C_n*V_n))"),),
        constants_mode="shape_only",
        meta={"model_id": model.model_id, "k_n": k_n, "c_n": c_n, "v_n": v_n},
    )


def seqdyn_bound(model: Model) -> BoundBreakdown:
    """log(n+1) * log(2 + V_n), the sequential expanding-map transport shape."""
    v_n = model.moments().v_n
    value = math.log(model.spec.n + 1.0) * math.log(2.0 + v_n)
    return BoundBreakdown(
        bound_id="seqdyn",
        terms=(BoundTerm("shape", value, "log(n+1)*log(2+V_n)"),),
        constants_mode="shape_only",
        meta={"model_id": model.model_id, "v_n": v_n},
    )


# ---------------------------------------------------------------------------
# the bound table


def _at_a(
    evaluate: Callable[[float], BoundBreakdown], model: Model, a: Optional[float]
) -> BoundBreakdown:
    """evaluate at the fixed a, or at minimize_over_a's choice when a is None."""
    if a is None:
        return minimize_over_a(evaluate, model.moments())[1]
    return evaluate(a)


# tag -> evaluator(model, p, master_seed, a), in the order a config's bound
# requests are checked against; a = None picks a by minimize_over_a.  Only
# heyde_brown samples, so only it reads the seed.  A tag the family has no
# oracle for raises CapabilityError.
BOUNDS: dict[str, Callable[[Model, float, int, Optional[float]], BoundBreakdown]] = {
    "theorem1_rhs": lambda model, p, seed, a: _at_a(
        lambda x: theorem1_rhs(p, x, model), model, a
    ),
    "w1_upper": lambda model, p, seed, a: _at_a(
        lambda x: corollary_w1_bound(p, x, model), model, a
    ),
    "berry_esseen": lambda model, p, seed, a: berry_esseen_bound(p, model),
    "heyde_brown": lambda model, p, seed, a: heyde_brown_bound(p, model, master_seed=seed),
    "linear_w1": lambda model, p, seed, a: linear_statistic_w1_bound(model),
    "rho_mixing": lambda model, p, seed, a: rho_mixing_bound(model),
    "seqdyn": lambda model, p, seed, a: seqdyn_bound(model),
}

# The tags `cltlab bounds` evaluates for a family when a config requests none.
DEFAULT_BOUNDS: dict[str, tuple[str, ...]] = {
    "gaussian_iid": ("theorem1_rhs", "w1_upper", "berry_esseen", "heyde_brown"),
    "rademacher_iid": ("theorem1_rhs", "w1_upper", "berry_esseen", "heyde_brown"),
    "ce_lowerbound": ("w1_upper", "berry_esseen", "heyde_brown"),
    "linear_statistic": ("linear_w1",),
    "rho_mixing_chain": ("theorem1_rhs", "w1_upper", "berry_esseen", "rho_mixing"),
    "sequential_maps": ("seqdyn",),
}
