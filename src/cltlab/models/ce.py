"""Lower-bound family: a martingale array built to put an atom at zero.

The construction splits the path at m = n - k.  The first m increments are
iid standard Gaussian with partial sum S_m.  If |S_m| lands in the window
[a, 2a], each of the last k increments is a two-point variable

    X_j = -S_m / k   with probability k^2 / (S_m^2 + k^2)
    X_j =  k / S_m   with probability S_m^2 / (S_m^2 + k^2)

driven by a uniform U_j; otherwise X_j = Phi^{-1}(U_j) (standard Gaussian by
inverse transform).  Conditionally on S_m the two-point variable has mean 0
and variance 1 exactly, so the array is a martingale difference sequence with
unit conditional variances — and whenever all k uniforms pick the first
branch, the path sum collapses to S_m - k * (S_m / k) = 0 *exactly*.  That
event has probability of order n^{-(p-2)/(2p-2)} and forces the same-order
atom at zero, hence a Kolmogorov distance no better than the stated rate.

Floating-point addition of the increments would smear the collapse over
~1e-16, so the generator tracks the branch count b and evaluates the sum as

    S_n = S_m * (1 - b/k) + (k - b) * (k / S_m),   b == k  =>  exactly 0.0

The atom detector downstream simply counts exact 0.0 values.

Moment bookkeeping (window probability, conditional p-th absolute moments,
their integrated versions) is closed form up to a one-dimensional Gaussian
integral, evaluated with the package's adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError, DomainError
from ..numerics import normal_abs_moment, normal_cdf, quadrature, scipy_special
from .base import Model, ModelSpec, PathMoments
from .iid import gaussian_min_profile

# Uniforms from numpy live in [0, 1); the inverse transform needs (0, 1).
_U_FLOOR = 1e-300


@dataclass(frozen=True)
class CEParams:
    """Derived construction parameters for path length n and moment order p.

    a = (n/4)^{1/(2p-2)}, k the smallest integer >= 4a^2 (exact-integer
    aware), m = n - k.  The mean-zero / unit-variance martingale structure
    holds for every n >= 20; the advertised numeric constants of the atom
    probability additionally require a^2 <= n/16, which the flag
    atom_constants_valid reports (at p = 3 it holds from n = 64 up).
    """

    n: int
    p: float
    a: float
    k: int
    m: int
    atom_constants_valid: bool

    @classmethod
    def from_np(cls, n: int, p: float) -> "CEParams":
        if not isinstance(n, (int, np.integer)) or n < 20:
            raise ConfigurationError(f"lower-bound construction needs n >= 20, got {n!r}")
        if not (isinstance(p, (int, float)) and math.isfinite(p)) or p <= 2.0:
            raise ConfigurationError(f"lower-bound construction needs p > 2, got {p!r}")
        a = (n / 4.0) ** (1.0 / (2.0 * p - 2.0))
        four_a2 = 4.0 * a * a
        k = int(math.ceil(four_a2 - 1e-9 * max(1.0, four_a2)))
        if k < four_a2 - 1e-6:  # ceil guard: never below 4a^2 by more than noise
            k += 1
        m = int(n) - k
        if m < 1:
            raise ConfigurationError(f"window order k={k} leaves no Gaussian prefix for n={n}")
        valid = a * a <= n / 16.0 + 1e-9
        return cls(n=int(n), p=float(p), a=a, k=k, m=m, atom_constants_valid=valid)

    def rate_exponent(self) -> float:
        """Exponent of the guaranteed atom/Kolmogorov decay: -(p-2)/(2p-2)."""
        return -(self.p - 2.0) / (2.0 * self.p - 2.0)

    def atom_lower_bound(self) -> float:
        """Guaranteed P(path sum = 0): 0.12 * n^{-(p-2)/(2p-2)}."""
        return 0.12 * self.n ** self.rate_exponent()

    def kolmogorov_lower_bound(self) -> float:
        """Guaranteed sup-distance to the Gaussian: 0.06 * n^{-(p-2)/(2p-2)}."""
        return 0.06 * self.n ** self.rate_exponent()

    def branch_probability(self) -> float:
        """P(|S_m| lands in [a, 2a]) under the exact N(0, m) law of S_m."""
        s = math.sqrt(self.m)
        return 2.0 * (normal_cdf(2.0 * self.a / s) - normal_cdf(self.a / s))


def branch_abs_moment(x: float, k: int, p: float) -> float:
    """E(|X_j|^p | S_m = x) on the two-point branch:
    (|x|^p k^{2-p} + k^p |x|^{2-p}) / (x^2 + k^2)."""
    ax = abs(x)
    if ax == 0.0:
        raise DomainError("branch moments are undefined at x = 0")
    return (ax**p * k ** (2.0 - p) + k**p * ax ** (2.0 - p)) / (x * x + k * k)


class CELowerBound(Model):
    """Martingale array with a designed atom at zero (worst-case family)."""

    def __init__(self, spec: ModelSpec) -> None:
        super().__init__(spec)
        if spec.params:
            unknown = set(spec.params) - set()
            raise ConfigurationError(
                f"lower-bound family takes no extra params, got {sorted(unknown)}"
            )
        self.params = CEParams.from_np(spec.n, spec.p)

    @property
    def model_id(self) -> str:
        return f"ce_lowerbound(n={self.spec.n},p={self.spec.p:g})"

    def moments(self) -> PathMoments:
        n = self.spec.n
        return PathMoments(
            sigma2=np.ones(n),
            v_n=float(n),
            delta_n=1.0,
            conditional_variance_constant=True,
            exact=True,
        )

    # -- path generation ---------------------------------------------------

    def _draw_row(self, g: np.random.Generator, row: np.ndarray) -> None:
        """Fixed draw order: m Gaussians, then k uniforms."""
        g.standard_normal(out=row[: self.params.m])
        g.random(out=row[self.params.m :])

    def _split(self, draws: np.ndarray) -> tuple[np.ndarray, ...]:
        """(S_m, uniforms, in-window mask, first-branch mask) per row."""
        cp = self.params
        s_m = draws[:, : cp.m].sum(axis=1)
        u = draws[:, cp.m :]
        in_window = (cp.a <= np.abs(s_m)) & (np.abs(s_m) <= 2.0 * cp.a)
        first = u <= (cp.k * cp.k / (s_m * s_m + cp.k * cp.k))[:, None]
        return s_m, u, in_window, first

    def _increments(self, draws: np.ndarray) -> np.ndarray:
        cp = self.params
        s_m, u, win, first = self._split(draws)
        xi = draws.copy()
        s = s_m[win, None]
        xi[win, cp.m :] = np.where(first[win], -s / cp.k, cp.k / s)
        xi[~win, cp.m :] = scipy_special().ndtri(np.maximum(u[~win], _U_FLOOR))
        return xi

    def _sums(self, draws: np.ndarray) -> np.ndarray:
        """Exact branch bookkeeping: b == k gives an exact 0.0."""
        k = self.params.k
        s_m, u, win, first = self._split(draws)
        out = np.empty(s_m.size)
        off = ~win
        out[off] = s_m[off] + scipy_special().ndtri(np.maximum(u[off], _U_FLOOR)).sum(axis=1)
        s, b = s_m[win], first[win].sum(axis=1)
        out[win] = np.where(b == k, 0.0, s * (1.0 - b / k) + (k - b) * (k / s))
        return out

    # -- closed-form / quadrature moment helpers ---------------------------

    def tail_abs_moment(self, p: Optional[float] = None) -> float:
        """E|X_j|^p for the post-split increments (j > m), exact up to quadrature."""
        cp = self.params
        if p is None:
            p = cp.p
        nu = normal_abs_moment(p)
        s = math.sqrt(cp.m)

        def integrand(x: float) -> float:
            dens = math.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
            return branch_abs_moment(x, cp.k, p) * dens

        window = 2.0 * quadrature(integrand, cp.a, 2.0 * cp.a, tol=1e-12)
        return nu * (1.0 - cp.branch_probability()) + window

    def moment_cap(self, p: Optional[float] = None) -> float:
        """The guaranteed ceiling E|X_j|^p <= E|Z|^p + 5^{p-2}."""
        if p is None:
            p = self.params.p
        return normal_abs_moment(p) + 5.0 ** (p - 2.0)

    def sup_moment_ratio(self, p: float) -> float:
        return max(normal_abs_moment(p), self.tail_abs_moment(p))

    def sum_abs_moments(self, p: float) -> float:
        cp = self.params
        return cp.m * normal_abs_moment(p) + cp.k * self.tail_abs_moment(p)

    def psi_closed_form(self, t: np.ndarray) -> np.ndarray:
        # Prefix increments are standard Gaussian; post-split increments are
        # bounded by |X_j| <= max(2a/k, k/a) on the branch and Gaussian off
        # it.  The sup over k is dominated by the Gaussian profile whenever
        # min(t z^2, |z|^3) integrates higher; evaluating both exactly:
        cp = self.params
        gauss = gaussian_min_profile(t)

        def integrand(x: float, t: float) -> float:
            s = math.sqrt(cp.m)
            dens = math.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
            lo = abs(x) / cp.k  # |X| on the first branch
            hi = cp.k / abs(x)  # |X| on the second branch
            w_lo = cp.k**2 / (x * x + cp.k**2)
            val = w_lo * min(t * lo * lo, lo**3) + (1.0 - w_lo) * min(t * hi * hi, hi**3)
            return val * dens

        window = [2.0 * quadrature(lambda x: integrand(x, ti), cp.a, 2.0 * cp.a, tol=1e-12)
                  for ti in np.asarray(t, dtype=float).tolist()]
        post = gauss * (1.0 - cp.branch_probability()) + np.array(window)
        return np.maximum(gauss, post)


def atom_fraction(values: np.ndarray) -> tuple[float, float]:
    """Fraction of exact zeros in a statistic sample, with binomial SE."""
    v = np.asarray(values)
    if v.size == 0:
        raise DomainError("empty sample")
    frac = float(np.mean(v == 0.0))
    se = math.sqrt(max(frac * (1.0 - frac), 1.0 / v.size) / v.size)
    return frac, se
