"""Theoretical bound evaluators, itemized term by term.

Every bound on the Gaussian approximation error that the experiment suite
compares against is computed here: exactly where a closed form exists, by
Monte Carlo with a reported standard error otherwise.  Results come back as
a BoundBreakdown whose terms can be re-assembled into the total, so nothing
is ever a single opaque number.

Unknown absolute constants are never invented: totals are computed with the
leading constant set to 1 and the breakdown flagged ``shape_only``.  The
one place explicit constants are known (r = 1: kappa = 6, the two cubic /
quartic smoothing constants 1 and 8/5) is the master bound at r = 1, which
is flagged ``explicit_r1`` and records them in the breakdown metadata; the
leading constant still enters as 1, so both modes produce shape values
suitable for rate comparisons, not certified numerical bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import CapabilityError, ConfigurationError, DomainError
from .models.base import Model, PathMoments
from .numerics import csv_text

# Explicit constants available at r = 1.
KAPPA_R1 = 6.0
C_R1_CUBIC = 1.0
C_R1_QUARTIC = 8.0 / 5.0
# Additive smoothing constant 4*sqrt(2) in front of (a*delta)^r.
ADDITIVE_CONST = 4.0 * math.sqrt(2.0)

# Monte Carlo defaults.  Blocks keep bound-estimation streams disjoint from
# the distance pipeline's replicate streams under the same master seed.
PSI_REPLICATES = 10_000
U_REPLICATES = 10_000
PSI_BLOCK = 101
U_BLOCK = 102
HB_BLOCK = 103

# The psi integral uses a trapezoid rule on a log-spaced grid; 513 points so
# the halved grid (every other point) still contains both endpoints for the
# Richardson error estimate.
PSI_GRID_POINTS = 513

# numpy 2 renamed trapz; support both without a deprecation warning.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

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
    """One itemized summand of a bound: value, uncertainty, provenance."""

    name: str
    value: float
    se: float
    exact: bool
    formula: str


# combination -> the bound table's formula for the total it derives
_TOTAL_FORMULAS = {
    "sum": lambda power: "sum(terms)",
    "powered_sum": lambda power: f"(sum(terms))^{power:g}",
    "prefactor_powered_sum": lambda power: f"terms[0]*(sum(terms[1:]))^{power:g}",
}


@dataclass(frozen=True)
class BoundBreakdown:
    """A bound total together with the terms it is assembled from.

    combination (a key of _TOTAL_FORMULAS) and power say how the terms make
    the total, which is derived at construction:
      sum                   total = sum(values)            (power must be 1)
      powered_sum           total = (sum(values)) ** power
      prefactor_powered_sum total = values[0] * (sum(values[1:])) ** power
    """

    bound_id: str
    terms: tuple[BoundTerm, ...]
    constants_mode: str
    combination: str = "sum"
    power: float = 1.0
    meta: Mapping[str, object] = field(default_factory=dict)
    total: float = field(init=False)

    def __post_init__(self) -> None:
        if self.combination not in _TOTAL_FORMULAS:
            raise ConfigurationError(f"unknown combination {self.combination!r}")
        if self.combination == "sum" and self.power != 1.0:
            raise ConfigurationError(f"a plain sum has power 1, got {self.power!r}")
        prefactor, summands = self._split()
        total = prefactor * float(sum(t.value for t in summands)) ** self.power
        object.__setattr__(self, "total", float(total))

    def _split(self) -> tuple[float, tuple[BoundTerm, ...]]:
        """(prefactor, summands): total = prefactor * sum(summands) ** power."""
        if self.combination == "prefactor_powered_sum":
            return self.terms[0].value, self.terms[1:]
        return 1.0, self.terms

    def total_formula(self) -> str:
        return _TOTAL_FORMULAS[self.combination](self.power)

    def total_se(self) -> float:
        """First-order propagated standard error of the total."""
        prefactor, summands = self._split()
        spread = float(math.sqrt(float(np.sum(np.array([t.se for t in summands]) ** 2))))
        s = float(np.sum([t.value for t in summands]))
        if self.power != 1.0 and s <= 0.0:
            return 0.0
        return prefactor * abs(self.power) * s ** (self.power - 1.0) * spread

    def term(self, name: str) -> BoundTerm:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(name)


def breakdowns_to_csv(breakdowns: Sequence[BoundBreakdown]) -> str:
    """The bound table: one row per term plus a closing total row per breakdown."""
    rows = []
    for bd in breakdowns:
        items = [(t.name, t.value, t.se, t.exact, t.formula) for t in bd.terms]
        exact = all(t.exact for t in bd.terms)
        items.append(("total", bd.total, bd.total_se(), exact, bd.total_formula()))
        rows.extend(
            (bd.bound_id, name, float(value), float(se), is_exact, bd.constants_mode, formula)
            for name, value, se, is_exact, formula in items
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


def _power_integral(a: float, x_hi: float, r: float) -> float:
    """integral_a^{x_hi} x^(r-3) dx, closed form."""
    if r == 2.0:
        return math.log(x_hi / a)
    q = r - 2.0
    return (x_hi**q - a**q) / q


# ---------------------------------------------------------------------------
# psi_n


def psi_n(
    t: float,
    model: Model,
    mode: str = "closed_form",
    replicates: int = PSI_REPLICATES,
    master_seed: int = 0,
) -> tuple[float, float, bool]:
    """sup_k E min(t delta_n xi_k^2, |xi_k|^3) / sigma_k^2  as (value, se, exact).

    closed_form delegates to the family's exact profile; monte_carlo draws
    ``replicates`` paths and reports the standard error of the attaining k.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be a real >= 0, got {t!r}")
    if t == 0.0 and mode in ("closed_form", "monte_carlo"):
        return 0.0, 0.0, True
    value, se = _psi_profile(model, mode, replicates, master_seed)(np.array([t]))
    return float(value[0]), 0.0 if se is None else float(se[0]), se is None


def _psi_profile(
    model: Model, mode: str, replicates: int, master_seed: int
) -> Callable[[np.ndarray], tuple[np.ndarray, Optional[np.ndarray]]]:
    """psi over an array of t, with its standard errors (None when exact)."""
    if mode == "closed_form":
        return lambda t: (model.psi_closed_form(t), None)
    if mode == "monte_carlo":
        return _psi_mc_profile(model, replicates, master_seed)
    raise ConfigurationError(f"psi mode must be closed_form or monte_carlo, got {mode!r}")


def _psi_mc_profile(
    model: Model, replicates: int, master_seed: int
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Shared-path psi estimator: one increment matrix serves every t."""
    mo = model.moments()
    xi = model.increment_matrix(master_seed, replicates, PSI_BLOCK)
    sigma2 = mo.sigma2
    mask = sigma2 > 0.0
    if not np.any(mask):
        raise DomainError("all increment variances are zero")
    xi2 = xi[:, mask] ** 2
    xi3 = np.abs(xi[:, mask]) ** 3
    s2 = sigma2[mask]
    delta = mo.delta_n
    root_r = math.sqrt(xi.shape[0])

    def at(t: float) -> tuple[float, float]:
        """psi(t) and the SE of the attaining k's mean, from one table."""
        vals = np.minimum(t * delta * xi2, xi3)
        ratios = vals.mean(axis=0) / s2
        k = int(np.argmax(ratios))
        return ratios[k], vals[:, k].std(ddof=1) / (root_r * s2[k])

    return lambda t: tuple(np.array([at(x) for x in t]).T)


# ---------------------------------------------------------------------------
# conditional-variance fluctuation statistics


def u_ln(
    ell: int,
    p: float,
    model: Model,
    replicates: int = U_REPLICATES,
    master_seed: int = 0,
    mode: str = "auto",
) -> tuple[float, float, bool]:
    """E[(|xi_{ell-1}| v sigma_{ell-1})^{p-2} |sum_{k>=ell}(E_{ell-1} xi_k^2 - sigma_k^2)|].

    Exactly 0 (no sampling) for models with constant conditional variances;
    otherwise by ``l_n``'s modes: auto (exact when the family declares
    u_exact, else Monte Carlo over path prefixes), exact, monte_carlo.
    """
    n = model.spec.n
    if not (2 <= ell <= n):
        raise DomainError(f"ell must be in [2, {n}], got {ell!r}")
    return _fluctuation_sum(
        model, model.moments(), p, (ell,), (1.0,), mode, replicates, master_seed
    )


def l_n(
    p: float,
    r: float,
    a: float,
    model: Model,
    mode: str = "auto",
    replicates: int = U_REPLICATES,
    master_seed: int = 0,
) -> tuple[float, float, bool]:
    """sum_{ell=2}^n U_ell(p) / (V_n - V_{ell-1} + a^2 delta^2)^((p-r)/2).

    mode: auto (exact when the family declares u_exact, else Monte Carlo),
    exact, monte_carlo.  The Monte Carlo path draws one prefix set and
    reuses it across every ell, so the reported SE accounts for the
    cross-ell correlation exactly.
    """
    _validate_rp(r, p)
    if not (math.isfinite(a) and a >= 1.0):
        raise DomainError(f"a must be a real >= 1, got {a!r}")
    mo = model.moments()
    # V_n - V_{ell-1} for ell = 2..n as the tail sums of the ladder, added
    # from the last increment back: one pass and no cancellation
    tails = np.cumsum(mo.sigma2[:0:-1])[::-1]
    denoms = (tails + a * a * mo.delta_n**2) ** ((p - r) / 2.0)
    return _fluctuation_sum(
        model, mo, p, range(2, model.spec.n + 1), denoms, mode, replicates, master_seed
    )


def _fluctuation_sum(
    model: Model, mo: PathMoments, p: float, ells: Sequence[int],
    denoms: Sequence[float], mode: str, replicates: int, master_seed: int,
) -> tuple[float, float, bool]:
    """sum over ells of U_ell(p) / denoms as (value, se, exact).

    Exactly 0 when the conditional variances are constant (mo says so).
    """
    if mode not in ("auto", "exact", "monte_carlo"):
        raise ConfigurationError(f"unknown fluctuation mode {mode!r}")
    if mo.conditional_variance_constant:
        return 0.0, 0.0, True
    if mode != "monte_carlo":
        try:
            u = model.u_exact(p)
            total = sum(u[ell - 2] / d for ell, d in zip(ells, denoms))
            return float(total), 0.0, True
        except CapabilityError:
            if mode == "exact":
                raise
    states = model.prefix_states_chunk(master_seed, replicates, U_BLOCK)
    acc = np.zeros(states.shape[0])
    for ell, d in zip(ells, denoms):
        acc += model.u_samples(states, ell, p) / d
    return float(acc.mean()), float(acc.std(ddof=1) / math.sqrt(acc.size)), False


def _validate_rp(r: float, p: float) -> None:
    if not (isinstance(p, (int, float)) and 2.0 < p <= 3.0):
        raise DomainError(f"p must lie in (2, 3], got {p!r}")
    if not (isinstance(r, (int, float)) and 0.0 < r <= p):
        raise DomainError(f"r must lie in (0, p], got {r!r}")


# ---------------------------------------------------------------------------
# the master bound


def theorem1_rhs(
    r: float,
    p: float,
    a: float,
    model: Model,
    psi_mode: str = "closed_form",
    u_mode: str = "auto",
    replicates: int = U_REPLICATES,
    master_seed: int = 0,
) -> BoundBreakdown:
    """Four-term smoothing bound on the ideal metric of order r.

    term 1  delta^r * integral_a^X x^(r-3) dx                 (closed form)
    term 2  delta^(r-1) * integral_a^X psi(kappa x) x^(r-2) dx (trapezoid)
    term 3  the conditional-variance fluctuation sum           (exact or MC)
    term 4  4*sqrt(2) * a^r * delta^r                          (closed form)

    X = sqrt(v_n(a))/delta and kappa = 6.  The leading constant multiplying
    terms 1-3 is unknown and entered as 1; at r = 1, where the explicit
    smoothing constants are known, the breakdown is flagged ``explicit_r1``
    and records them in the metadata, and otherwise it is ``shape_only``.
    """
    _validate_rp(r, p)
    mo = model.moments()
    delta = mo.delta_n
    va = vn_of_a(a, mo)
    x_hi = math.sqrt(va) / delta

    t1 = delta**r * _power_integral(a, x_hi, r)

    # the fluctuation sum goes first: it raises CapabilityError for a family
    # without a conditional-variance oracle before any psi path is drawn
    # (the two terms draw from disjoint stream blocks)
    lv, lse, lexact = l_n(
        p, r, a, model, mode=u_mode, replicates=replicates, master_seed=master_seed
    )

    t2, t2_se, t2_exact = _psi_term(model, mo, r, a, x_hi, psi_mode, replicates, master_seed)

    t4 = ADDITIVE_CONST * a**r * delta**r

    terms = (
        BoundTerm(
            name="variance_tail_integral",
            value=float(t1),
            se=0.0,
            exact=True,
            formula="delta^r * integral_a^X x^(r-3) dx",
        ),
        BoundTerm(
            name="psi_integral",
            value=float(t2),
            se=float(t2_se),
            exact=t2_exact,
            formula="delta^(r-1) * integral_a^X psi(kappa*x) * x^(r-2) dx",
        ),
        BoundTerm(
            name="fluctuation_sum",
            value=float(lv),
            se=float(lse),
            exact=lexact,
            formula="sum_{l=2}^n U_l(p) / (V_n - V_{l-1} + a^2 delta^2)^((p-r)/2)",
        ),
        BoundTerm(
            name="smoothing_floor",
            value=float(t4),
            se=0.0,
            exact=True,
            formula="4*sqrt(2) * a^r * delta^r",
        ),
    )
    meta: dict[str, object] = {
        "model_id": model.model_id,
        "r": r,
        "p": p,
        "a": a,
        "kappa": KAPPA_R1,
        "x_upper": x_hi,
        "v_n_of_a": va,
        "delta_n": delta,
        "v_n": mo.v_n,
        "psi_mode": psi_mode,
        "u_mode": u_mode,
    }
    constants_mode = "explicit_r1" if r == 1.0 else "shape_only"
    if constants_mode == "explicit_r1":
        meta["kappa_explicit"] = KAPPA_R1
        meta["cubic_constant"] = C_R1_CUBIC
        meta["quartic_constant"] = C_R1_QUARTIC
    return BoundBreakdown(
        bound_id="theorem1_rhs",
        terms=terms,
        constants_mode=constants_mode,
        combination="sum",
        meta=meta,
    )


def _psi_term(
    model: Model,
    mo: PathMoments,
    r: float,
    a: float,
    x_hi: float,
    psi_mode: str,
    replicates: int,
    master_seed: int,
) -> tuple[float, float, bool]:
    """delta^(r-1) * integral_a^X psi(kappa x) x^(r-2) dx on a log grid.

    Substituting u = log x turns the integrand into psi(kappa e^u) e^(u(r-1));
    the trapezoid on the uniform u-grid is paired with its half-resolution
    restriction for a Richardson error estimate.
    """
    u = np.linspace(math.log(a), math.log(x_hi), PSI_GRID_POINTS)
    values, ses = _psi_profile(model, psi_mode, replicates, master_seed)(KAPPA_R1 * np.exp(u))
    g = values * np.exp(u * (r - 1.0))
    fine = float(_trapezoid(g, u))
    coarse = float(_trapezoid(g[::2], u[::2]))
    richardson = abs(fine - coarse) / 3.0
    mc_se = 0.0
    if ses is not None:
        mc_se = float(_trapezoid(ses * np.exp(u * (r - 1.0)), u))
    delta = mo.delta_n
    scale = delta ** (r - 1.0)
    return scale * fine, scale * (richardson + mc_se), False


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


def corollary_w1_bound(
    p: float,
    a: float,
    model: Model,
    r: float = 1.0,
    u_mode: str = "auto",
    replicates: int = U_REPLICATES,
    master_seed: int = 0,
) -> BoundBreakdown:
    """The closed-form transport-distance display implied by the master bound.

    For (r, p) != (1, 3) the middle term is sup_k E|xi_k|^p/sigma_k^2 times
    v_n(a)^((2+r-p)/2); at (r, p) = (1, 3) the power degenerates and is
    replaced by log(sqrt(v_n(a))/delta).
    """
    _validate_rp(r, p)
    if r > 1.0:
        raise DomainError(f"the transport display needs r in (0, 1], got {r!r}")
    mo = model.moments()
    delta = mo.delta_n
    va = vn_of_a(a, mo)
    sup = model.sup_moment_ratio(p)
    if p == 3.0 and r == 1.0:
        factor = math.log(math.sqrt(va) / delta)
        display = "log"
        mid_formula = "sup_k E|xi_k|^p/sigma_k^2 * log(sqrt(v_n(a))/delta)"
    else:
        factor = va ** ((2.0 + r - p) / 2.0)
        display = "power"
        mid_formula = "sup_k E|xi_k|^p/sigma_k^2 * v_n(a)^((2+r-p)/2)"
    lv, lse, lexact = l_n(
        p, r, a, model, mode=u_mode, replicates=replicates, master_seed=master_seed
    )
    terms = (
        BoundTerm(
            name="smoothing_floor",
            value=float(ADDITIVE_CONST * (a * delta) ** r),
            se=0.0,
            exact=True,
            formula="4*sqrt(2) * (a*delta)^r",
        ),
        BoundTerm(
            name="moment_ratio_term",
            value=float(sup * factor),
            se=0.0,
            exact=True,
            formula=mid_formula,
        ),
        BoundTerm(
            name="fluctuation_sum",
            value=float(lv),
            se=float(lse),
            exact=lexact,
            formula="sum_{l=2}^n U_l(p) / (V_n - V_{l-1} + a^2 delta^2)^((p-r)/2)",
        ),
    )
    return BoundBreakdown(
        bound_id="w1_upper",
        terms=terms,
        constants_mode="shape_only",
        combination="sum",
        meta={
            "model_id": model.model_id,
            "r": r,
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
    if not 2.0 < p <= 3.0:
        raise DomainError(f"p must lie in (2, 3], got {p!r}")
    return -(p - 2.0) / (2.0 * (p - 1.0))


def berry_esseen_bound(
    p: float,
    model: Model,
    u_mode: str = "auto",
    replicates: int = U_REPLICATES,
    master_seed: int = 0,
) -> BoundBreakdown:
    """Shape of the uniform-distance rate for the normalized martingale.

    p < 3:  V^(-(p-2)/(2(p-1))) * (sup-ratio + fluctuation sum)^(1/(p-1))
    p = 3:  V^(-1/4) * (sup-ratio * log(sqrt(v_n(1))/delta) + fluct.)^(1/2)

    The metadata records the pure target exponent for the rate-fit module
    (log_correction marks the p = 3 square-root-of-log factor).
    """
    if not 2.0 < p <= 3.0:
        raise DomainError(f"p must lie in (2, 3], got {p!r}")
    mo = model.moments()
    target = berry_esseen_target_exponent(p)
    sup = model.sup_moment_ratio(p)
    if p < 3.0:
        r = p - 2.0
        factor = 1.0
        power = 1.0 / (p - 1.0)
        mid_formula = "sup_k E|xi_k|^p/sigma_k^2"
    else:
        r = 1.0
        factor = math.log(math.sqrt(vn_of_a(1.0, mo)) / mo.delta_n)
        power = 0.5
        mid_formula = "sup_k E|xi_k|^3/sigma_k^2 * log(sqrt(v_n(1))/delta)"
    lv, lse, lexact = l_n(
        p, r, 1.0, model, mode=u_mode, replicates=replicates, master_seed=master_seed
    )
    terms = (
        BoundTerm(
            name="variance_power",
            value=float(mo.v_n**target),
            se=0.0,
            exact=True,
            formula="V_n^(-(p-2)/(2(p-1)))",
        ),
        BoundTerm(
            name="moment_ratio_term",
            value=float(sup * factor),
            se=0.0,
            exact=True,
            formula=mid_formula,
        ),
        BoundTerm(
            name="fluctuation_sum",
            value=float(lv),
            se=float(lse),
            exact=lexact,
            formula="sum_{l=2}^n U_l(p) / (V_n - V_{l-1} + delta^2)^((p-r)/2)",
        ),
    )
    return BoundBreakdown(
        bound_id="berry_esseen",
        terms=terms,
        constants_mode="shape_only",
        combination="prefactor_powered_sum",
        power=power,
        meta={
            "model_id": model.model_id,
            "p": p,
            "r": r,
            "target_exponent": target,
            "log_correction": p == 3.0,
            "v_n": mo.v_n,
        },
    )


def heyde_brown_bound(
    p: float,
    model: Model,
    replicates: int = U_REPLICATES,
    master_seed: int = 0,
) -> BoundBreakdown:
    """Classical quadratic-variation bound shape, for comparison plots.

    (||<M>_n/V_n - 1||_{p/2}^{p/2} + V_n^(-p/2) sum_k E|xi_k|^p)^(1/(p+1))
    with the unknown leading constant entered as 1.
    """
    if not (isinstance(p, (int, float)) and 2.0 < p <= 4.0):
        raise DomainError(f"p must lie in (2, 4], got {p!r}")
    mo = model.moments()
    if mo.conditional_variance_constant:
        first, first_se, first_exact = 0.0, 0.0, True
    else:
        states = model.prefix_states_chunk(master_seed, replicates, HB_BLOCK)
        dev = np.abs(model.bracket_samples(states) / mo.v_n - 1.0) ** (p / 2.0)
        first = float(dev.mean())
        first_se = float(dev.std(ddof=1) / math.sqrt(dev.size))
        first_exact = False
    vpow = mo.v_n ** (-p / 2.0)
    terms = (
        BoundTerm(
            name="bracket_deviation",
            value=first,
            se=first_se,
            exact=first_exact,
            formula="||<M>_n/V_n - 1||_{p/2}^{p/2}",
        ),
        BoundTerm(
            name="lyapunov_sum",
            value=float(vpow * model.sum_abs_moments(p)),
            se=0.0,
            exact=True,
            formula="V_n^(-p/2) * sum_k E|xi_k|^p",
        ),
    )
    return BoundBreakdown(
        bound_id="heyde_brown",
        terms=terms,
        constants_mode="shape_only",
        combination="powered_sum",
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
    if not 2.0 < p <= 3.0:
        raise DomainError(f"p must lie in (2, 3], got {p!r}")
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


def linear_statistic_w1_bound(model: Model, spectral_floor: bool = True) -> BoundBreakdown:
    """Transport bound for a weighted stationary-base sum, itemized.

    term 1  m_n * sum_k ||E(Y_k | past at 0)||_2   (projection decay)
    term 2  the projection-norm block B(n, p)
    term 3  (optional) coefficient-increment term when no spectral floor
            is assumed.
    """
    p = model.spec.p
    lam, eta_p = model.projection_norms(p)
    _, eta_2 = model.projection_norms(2.0)
    n = model.spec.n
    alphas = model.alpha
    m_n = float(np.max(np.abs(alphas)))
    t1 = m_n * float(np.sum(eta_2))
    t2 = bnp(n, p, alphas, lam, eta_p)
    terms = [
        BoundTerm(
            name="projection_l2",
            value=float(t1),
            se=0.0,
            exact=True,
            formula="m_n * sum_{k=0}^n ||E(Y_k|G_0)||_2",
        ),
        BoundTerm(
            name="bnp",
            value=float(t2),
            se=0.0,
            exact=True,
            formula="B(n,p) from the projection norms",
        ),
    ]
    if not spectral_floor:
        padded = np.concatenate(([0.0], np.asarray(alphas, dtype=float), [0.0]))
        terms.append(
            BoundTerm(
                name="coefficient_increments",
                value=float(math.sqrt(float(np.sum(np.diff(padded) ** 2)))),
                se=0.0,
                exact=True,
                formula="(sum_{k=1}^{n+1} (alpha_k - alpha_{k-1})^2)^(1/2)",
            )
        )
    return BoundBreakdown(
        bound_id="linear_w1",
        terms=tuple(terms),
        constants_mode="shape_only",
        combination="sum",
        meta={
            "model_id": model.model_id,
            "p": p,
            "n": n,
            "m_n": m_n,
            "spectral_floor": spectral_floor,
        },
    )


def rho_mixing_bound(k_n: float, c_n: float, v_n: float) -> float:
    """K_n * (1 + C_n * log(1 + C_n * V_n)), the bounded-mixing transport shape."""
    if not (k_n > 0.0 and c_n > 0.0 and v_n > 0.0):
        raise DomainError("k_n, c_n and v_n must all be positive")
    return k_n * (1.0 + c_n * math.log1p(c_n * v_n))


def seqdyn_bound(n: int, v_n: float) -> float:
    """log(n+1) * log(2 + V_n), the sequential expanding-map transport shape."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    if not (math.isfinite(v_n) and v_n >= 0.0):
        raise DomainError(f"v_n must be a finite nonnegative real, got {v_n!r}")
    return math.log(n + 1.0) * math.log(2.0 + v_n)


def _shape_breakdown(
    bound_id: str, value: float, formula: str, meta: Mapping[str, object]
) -> BoundBreakdown:
    """A one-term shape display: the total is the shape value itself."""
    term = BoundTerm("shape", value, 0.0, True, formula)
    return BoundBreakdown(bound_id, (term,), "shape_only", meta=meta)


def _rho_mixing(model: Model) -> BoundBreakdown:
    k_n, c_n, v_n = model.k_n(), model.c_n(), model.moments().v_n
    meta = {"model_id": model.model_id, "k_n": k_n, "c_n": c_n, "v_n": v_n}
    value = rho_mixing_bound(k_n, c_n, v_n)
    return _shape_breakdown("rho_mixing", value, "K_n*(1+C_n*log(1+C_n*V_n))", meta)


def _seqdyn(model: Model) -> BoundBreakdown:
    v_n = model.moments().v_n
    meta = {"model_id": model.model_id, "v_n": v_n}
    return _shape_breakdown("seqdyn", seqdyn_bound(model.spec.n, v_n), "log(n+1)*log(2+V_n)", meta)


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
# requests are checked against; a = None picks a by minimize_over_a.  A tag
# the family has no oracle for raises CapabilityError.
BOUNDS: dict[str, Callable[[Model, float, int, Optional[float]], BoundBreakdown]] = {
    "theorem1_rhs": lambda model, p, seed, a: _at_a(
        lambda x: theorem1_rhs(1.0, p, x, model, master_seed=seed),
        model, a,
    ),
    "w1_upper": lambda model, p, seed, a: _at_a(
        lambda x: corollary_w1_bound(p, x, model, master_seed=seed), model, a
    ),
    "berry_esseen": lambda model, p, seed, a: berry_esseen_bound(p, model, master_seed=seed),
    "heyde_brown": lambda model, p, seed, a: heyde_brown_bound(p, model, master_seed=seed),
    "linear_w1": lambda model, p, seed, a: linear_statistic_w1_bound(model),
    "rho_mixing": lambda model, p, seed, a: _rho_mixing(model),
    "seqdyn": lambda model, p, seed, a: _seqdyn(model),
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
