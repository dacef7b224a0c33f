"""Independent-increment families: Gaussian and Rademacher arrays.

Both take a deterministic scale schedule sigma_k (k = 1..n) given as a
constant, an explicit list, or the affine rule sigma_k = intercept +
slope * k / n.  Increments are xi_k = sigma_k * Z_k with Z_k standard
Gaussian, or sigma_k * eps_k with eps_k a fair sign.

Everything about these families is closed form: the variance ladder, the
truncated-third-moment profile used by the smoothing integral, and the
absolute moments.  They are the calibration targets of the laboratory —
their distance decay is the classical independent-case rate.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..numerics import normal_abs_moment, normal_cdf, normal_pdf
from .base import Model, ModelSpec, PathMoments


def sigma_schedule(spec: ModelSpec) -> np.ndarray:
    """Resolve the sigma_k schedule from spec.params["sigma"]."""
    n = spec.n
    raw = spec.params.get("sigma", 1.0)
    if isinstance(raw, (int, float)):
        if raw <= 0:
            raise ConfigurationError("sigma must be positive")
        return np.full(n, float(raw))
    if isinstance(raw, (list, tuple, np.ndarray)):
        arr = np.asarray(raw, dtype=float)
        if arr.shape != (n,) or np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise ConfigurationError(
                f"explicit sigma schedule must be {n} positive finite reals"
            )
        return arr
    if isinstance(raw, dict) and raw.get("rule") == "affine":
        intercept = float(raw.get("intercept", 1.0))
        slope = float(raw.get("slope", 1.0))
        k = np.arange(1, n + 1, dtype=float)
        arr = intercept + slope * k / n
        if np.any(arr <= 0):
            raise ConfigurationError("affine sigma schedule must stay positive")
        return arr
    raise ConfigurationError(f"unrecognized sigma schedule {raw!r}")


def gaussian_min_profile(u) -> np.ndarray:
    """E min(u Z^2, |Z|^3) for standard Gaussian Z, vectorized in u >= 0.

    The minimum switches at |Z| = u, giving the closed form
    2u(1 - Phi(u)) + 4(phi(0) - phi(u)).
    """
    u = np.asarray(u, dtype=float)
    res = 2.0 * u * (1.0 - normal_cdf(u)) + 4.0 * (normal_pdf(0.0) - normal_pdf(u))
    return np.maximum(res, 0.0)


# The capabilities of independent increments xi_k ~ N(0, sig_k^2), shared by
# the Gaussian families; each returns what the Model oracle of its name does.


def gaussian_ladder_psi(sig: np.ndarray, t: np.ndarray) -> np.ndarray:
    # sigma -> sigma * profile(t delta / sigma) is increasing, so the sup over
    # k of sig_k * E min((t delta / sig_k) Z^2, |Z|^3) sits at sig_k = delta_n
    return float(np.max(sig)) * gaussian_min_profile(t)


def gaussian_ladder_sup_ratio(sig: np.ndarray, p: float) -> float:
    return float(np.max(sig ** (p - 2.0))) * normal_abs_moment(p)


def gaussian_ladder_abs_sum(sig: np.ndarray, p: float) -> float:
    return float(np.sum(sig**p)) * normal_abs_moment(p)


class _IIDBase(Model):
    def __init__(self, spec: ModelSpec) -> None:
        super().__init__(spec)
        self.sigma = sigma_schedule(spec)
        self._v_n = float(np.sum(self.sigma**2))

    def moments(self) -> PathMoments:
        return PathMoments(sigma2=self.sigma**2, v_n=self._v_n, conditional_variance_constant=True)

    # Draw rows hold the unit variables Z_k or eps_k.

    def _increments(self, draws: np.ndarray) -> np.ndarray:
        return self.sigma * draws

    def _sums(self, draws: np.ndarray) -> np.ndarray:
        # one ddot per row, so a row's sum never depends on its chunk
        return np.fromiter(map(self.sigma.dot, draws), float, len(draws))


class GaussianIID(_IIDBase):
    """xi_k = sigma_k Z_k; the normalized sum is exactly standard Gaussian."""

    def _draw_row(self, g: np.random.Generator, row: np.ndarray) -> None:
        g.standard_normal(out=row)

    def psi_closed_form(self, t: np.ndarray) -> np.ndarray:
        return gaussian_ladder_psi(self.sigma, t)

    def sup_moment_ratio(self, p: float) -> float:
        return gaussian_ladder_sup_ratio(self.sigma, p)

    def sum_abs_moments(self, p: float) -> float:
        return gaussian_ladder_abs_sum(self.sigma, p)


class RademacherIID(_IIDBase):
    """xi_k = sigma_k eps_k with fair signs; the canonical lattice example."""

    # A row is a few raw Philox words, too short to pay for a thread handoff:
    # split rows drew 1.8-3.4x slower at n = 2048 and 4096, so rows never split.
    parallel_draw_width = float("inf")

    def _draw_row(self, g: np.random.Generator, row: np.ndarray) -> None:
        # The signs integers(0, 2, n) would give, read from the raw Philox
        # words: it takes one uint32 per sign, the low half of each 64-bit word
        # first, and keeps the top bit.  Decoded per row, while it is in cache.
        n = self.spec.n
        words = g.bit_generator.random_raw((n + 1) // 2).astype("<u8", copy=False)
        np.multiply(words.view("<u4")[:n] >> 31, 2.0, out=row)
        row -= 1.0

    def psi_closed_form(self, t: np.ndarray) -> np.ndarray:
        # E min(t delta sigma_k^2, sigma_k^3) / sigma_k^2 = min(t delta, sigma_k),
        # increasing in sigma_k, so the sup is min(t, 1) * delta.
        return self.moments().delta_n * np.minimum(t, 1.0)

    def sup_moment_ratio(self, p: float) -> float:
        return float(np.max(self.sigma ** (p - 2.0)))

    def sum_abs_moments(self, p: float) -> float:
        return float(np.sum(self.sigma**p))
