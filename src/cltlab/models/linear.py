"""Weighted partial sums of a stationary Gaussian sequence.

The path increment is X_{k,n} = alpha_{k,n} Y_k where (Y_k) is either a
stationary AR(1), Y_k = phi Y_{k-1} + eps_k with unit-variance Gaussian
innovations, or a finite moving average Y_k = sum_j theta_j eps_{k-j}.

Because the base is Gaussian and linear, everything is exact:

* the weighted sum S_n = sum_k alpha_k Y_k rewrites as an inner product of
  the innovation vector with deterministic weights (backward recursion
  c_t = alpha_t + phi c_{t+1} for AR(1); a finite convolution for MA), so
  V_n = sum of squared weights, sampling is one dot product per replicate,
  and the per-increment martingale ladder is the squared weights themselves;
* conditional variances given the past are deterministic (the ladder is
  constant), so the conditional-variance fluctuation statistics vanish;
* the projection norms feeding the dependent-sum bound — the decay of
  ||E(Y_i | past)||_p and the conditional second-order terms — have
  geometric (AR) or finite (MA) closed forms, reduced to one- or
  two-dimensional Gaussian integrals.

Draw order per replicate (documented for bit-exact reproduction): AR(1)
draws the stationary start then n-1 innovations in time order; MA draws the
n+q innovations eps_{1-q}, ..., eps_n in time order.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from ..numerics import normal_abs_moment, quadrature
from .base import Model, ModelSpec, PathMoments, config_real, config_reals
from .iid import gaussian_ladder_abs_sum, gaussian_ladder_psi, gaussian_ladder_sup_ratio


def coefficient_schedule(spec: ModelSpec) -> np.ndarray:
    """Resolve alpha_{k,n} from spec.params["coefficients"]."""
    n = spec.n
    key = f"{spec.family} coefficients"
    raw = spec.params.get("coefficients", {"rule": "constant", "kappa": 1.0})
    if isinstance(raw, (list, tuple, np.ndarray)):
        raw = {"rule": "explicit", "values": list(raw)}
    if not isinstance(raw, dict):
        raise ConfigurationError(f"unrecognized coefficient schedule {raw!r}")
    rule = raw.get("rule")
    if rule == "constant":
        kappa = config_real(f"{key} kappa", raw.get("kappa", 1.0))
        if kappa == 0.0:
            raise ConfigurationError("constant coefficients must be nonzero")
        return np.full(n, kappa)
    if rule == "power":
        kappa = config_real(f"{key} kappa", raw.get("kappa", 1.0))
        expo = config_real(f"{key} alpha", raw.get("alpha", 0.0))
        if expo <= -0.5:
            raise ConfigurationError("power rule needs exponent > -1/2")
        if kappa == 0.0:
            raise ConfigurationError("power coefficients must be nonzero")
        k = np.arange(1, n + 1, dtype=float)
        return kappa * k**expo
    if rule == "explicit":
        arr = config_reals(f"{key} values", raw.get("values"))
        if arr.shape != (n,):
            raise ConfigurationError(f"explicit coefficients must be {n} finite reals")
        if np.all(arr == 0.0):
            raise ConfigurationError("coefficients cannot be identically zero")
        return arr
    raise ConfigurationError(f"unrecognized coefficient rule {rule!r}")


@lru_cache(maxsize=32)
def _abs_z2_minus_1_moment(q: float) -> float:
    """E|Z^2 - 1|^q for standard Gaussian Z (split at the kink z = 1)."""

    def f(z: float) -> float:
        return abs(z * z - 1.0) ** q * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    return 2.0 * (quadrature(f, 0.0, 1.0, tol=1e-12) + quadrature(f, 1.0, 12.0, tol=1e-12))


_HERM_NODES = 96


@lru_cache(maxsize=1)
def _hermgauss() -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite.hermgauss(_HERM_NODES)
    return x, w


def _gaussian_product_norm(s1: float, s2: float, cov: float, q: float, center: float) -> float:
    """(E|X Y - center|^q)^{1/q} for centered jointly Gaussian (X, Y).

    X = s1 Z1, Y = rho-decomposed against Z1; evaluated by tensorized
    Gauss-Hermite quadrature.
    """
    if s1 == 0.0 or s2 == 0.0:
        return abs(center) if center else 0.0
    rho = cov / (s1 * s2)
    rho = min(1.0, max(-1.0, rho))
    x, w = _hermgauss()
    z1 = math.sqrt(2.0) * x
    z2 = math.sqrt(2.0) * x
    Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
    W = np.outer(w, w) / math.pi
    X = s1 * Z1
    Y = s2 * (rho * Z1 + math.sqrt(max(0.0, 1.0 - rho * rho)) * Z2)
    val = float(np.sum(W * np.abs(X * Y - center) ** q))
    return val ** (1.0 / q)


class LinearStatistic(Model):
    """Normalized weighted sum of a stationary Gaussian AR(1) or MA base."""

    def __init__(self, spec: ModelSpec) -> None:
        super().__init__(spec)
        base = spec.params.get("base", {"kind": "ar1", "phi": 0.5})
        if not isinstance(base, dict):
            raise ConfigurationError(
                f"base must be a dict like {{'kind': 'ar1', 'phi': 0.5}}, got {base!r}"
            )
        kind = base.get("kind")
        if kind == "ar1":
            phi = config_real(f"{spec.family} base phi", base.get("phi", 0.5))
            if not (-1.0 < phi < 1.0) or phi == 0.0:
                raise ConfigurationError(f"ar1 base needs 0 < |phi| < 1, got {phi!r}")
            self.kind = "ar1"
            self.phi = phi
            self.theta = None
            self.gamma0 = 1.0 / (1.0 - phi * phi)
        elif kind == "ma":
            theta = config_reals(f"{spec.family} base theta", base.get("theta", [1.0, 0.5]))
            if theta.ndim != 1 or theta.size < 1:
                raise ConfigurationError("ma base needs a 1-D list of finite theta weights")
            if theta[0] == 0.0:
                raise ConfigurationError("ma base needs theta_0 != 0")
            self.kind = "ma"
            self.phi = None
            self.theta = theta
            self.gamma0 = float(np.sum(theta**2))
        else:
            raise ConfigurationError(f"unknown base kind {kind!r} (want 'ar1' or 'ma')")

        self.alpha = coefficient_schedule(spec)
        self.normalization = spec.params.get("normalization", "exact_vn")
        if self.normalization not in ("exact_vn", "limit"):
            raise ConfigurationError(
                f"normalization must be 'exact_vn' or 'limit', got {self.normalization!r}"
            )
        if self.normalization == "limit" and np.ptp(self.alpha) != 0.0:
            raise ConfigurationError("'limit' normalization is defined for constant coefficients")
        self._weights = self._innovation_weights()
        self._v_n = float(np.sum(self._weights**2))

    @property
    def model_id(self) -> str:
        base = f"ar1(phi={self.phi:g})" if self.kind == "ar1" else f"ma(q={self.theta.size - 1})"
        return f"linear_statistic[{base}](n={self.spec.n})"

    # -- exact second-order structure ---------------------------------------

    def _innovation_weights(self) -> np.ndarray:
        """Deterministic weights w with S_n = w . (innovation draws)."""
        n = self.spec.n
        a = self.alpha
        if self.kind == "ar1":
            c = np.empty(n)
            c[-1] = a[-1]
            for t in range(n - 2, -1, -1):
                c[t] = a[t] + self.phi * c[t + 1]
            w = c.copy()
            w[0] = c[0] * math.sqrt(self.gamma0)  # stationary start absorbs the past
            return w
        q = self.theta.size - 1
        w = np.zeros(n + q)
        for j, th in enumerate(self.theta):
            w[q - j : q - j + n] += th * a
        return w

    def limit_sigma2(self) -> float:
        """Long-run variance sum_{k in Z} gamma_k of the base sequence."""
        if self.kind == "ar1":
            return 1.0 / (1.0 - self.phi) ** 2
        return float(np.sum(self.theta)) ** 2

    def moments(self) -> PathMoments:
        n = self.spec.n
        w2 = self._weights**2
        if self.kind == "ar1":
            sigma2 = w2
        else:
            q = self.theta.size - 1
            sigma2 = np.empty(n)
            sigma2[0] = float(np.sum(w2[: q + 1]))
            sigma2[1:] = w2[q + 1 :]
        return PathMoments(sigma2=sigma2, v_n=self._v_n, conditional_variance_constant=True)

    def statistic_normalizer(self) -> float:
        if self.normalization == "limit":
            return math.sqrt(self.limit_sigma2() * float(np.sum(self.alpha**2)))
        return math.sqrt(self._v_n)

    # -- sampling ------------------------------------------------------------

    def _draw_width(self) -> int:
        return self._weights.size

    def _draw_row(self, g: np.random.Generator, row: np.ndarray) -> None:
        g.standard_normal(out=row)

    def _increments(self, draws: np.ndarray) -> np.ndarray:
        """Martingale increments of the innovation ladder.

        AR(1): xi_t = w_t eps_t one-to-one.  MA(q): the q+1 innovations
        already visible at time 1 merge into xi_1; afterwards one new
        innovation arrives per step.
        """
        w = self._weights
        if self.kind == "ar1":
            return w * draws
        q = self.theta.size - 1
        xi = np.empty((draws.shape[0], self.spec.n))
        # per-row dots: a row's xi_1 must not depend on the chunk it is in
        xi[:, 0] = [float(w[: q + 1] @ row[: q + 1]) for row in draws]
        xi[:, 1:] = w[q + 1 :] * draws[:, q + 1 :]
        return xi

    def _sums(self, draws: np.ndarray) -> np.ndarray:
        return draws @ self._weights

    # -- moment capabilities: the increments are N(0, sigma_k^2) -------------

    def sup_moment_ratio(self, p: float) -> float:
        return gaussian_ladder_sup_ratio(np.sqrt(self.moments().sigma2), p)

    def sum_abs_moments(self, p: float) -> float:
        return gaussian_ladder_abs_sum(np.sqrt(self.moments().sigma2), p)

    def psi_closed_form(self, t: np.ndarray) -> np.ndarray:
        return gaussian_ladder_psi(np.sqrt(self.moments().sigma2), t)

    # -- projection-norm sequences for the dependent-sum bound ----------------

    def projection_norms(self, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(lambda_seq[1..n], eta_seq[0..n]) for the dependent-sum bound.

        eta_seq[i] = ||E(Y_i | past at time 0)||_p, lambda_seq[k] the larger
        of the projection-product and conditional-second-moment norms at lag
        k.  AR(1): geometric closed forms.  MA(q): finite forms, zero beyond
        lag q, product norms by Gauss-Hermite quadrature.
        """
        n = self.spec.n
        nu_p = normal_abs_moment(p)
        if self.kind == "ar1":
            aphi = abs(self.phi)
            norm_y0_p = math.sqrt(self.gamma0) * nu_p ** (1.0 / p)
            eta = norm_y0_p * aphi ** np.arange(0, n + 1, dtype=float)
            m_q = _abs_z2_minus_1_moment(p / 2.0) ** (2.0 / p)
            lam = np.empty(n)
            for k in range(1, n + 1):
                first = aphi**k * norm_y0_p**2
                second = aphi ** (2 * k) * self.gamma0 * m_q
                lam[k - 1] = max(first, second)
            return lam, eta
        theta = self.theta
        q = theta.size - 1
        tail2 = np.array([float(np.sum(theta[i:] ** 2)) for i in range(q + 1)])
        eta = np.zeros(n + 1)
        upto = min(q, n)
        eta[: upto + 1] = np.sqrt(tail2[: upto + 1]) * nu_p ** (1.0 / p)
        lam = np.zeros(n)
        qq = p / 2.0

        def tail_cov(i: int, j: int) -> float:
            # E(A_i A_j) with A_i the projection of Y_i on the past at 0.
            return float(np.sum([theta[v] * theta[v - (j - i)] for v in range(j, q + 1)]))

        for k in range(1, min(q, n) + 1):
            s_k = math.sqrt(tail2[k])
            first = _gaussian_product_norm(
                math.sqrt(self.gamma0), s_k, tail_cov(0, k), qq, 0.0
            )
            second = 0.0
            for i in range(k, q + 1):
                for j in range(i, q + 1):
                    cov_ij = tail_cov(i, j)
                    second = max(
                        second,
                        _gaussian_product_norm(
                            math.sqrt(tail2[i]), math.sqrt(tail2[j]), cov_ij, qq, cov_ij
                        ),
                    )
            lam[k - 1] = max(first, second)
        return lam, eta
