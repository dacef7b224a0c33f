"""Independent-increment families: Gaussian and Rademacher arrays.

Both take a deterministic scale schedule sigma_k (k = 1..n) given as a
constant, an explicit list, or the affine rule sigma_k = intercept +
slope * k / n.  Increments are xi_k = sigma_k * eps_k, with eps_k i.i.d.
standard Gaussian or fair signs.  Each law's draw order, E|eps|^p and psi
profile are written once, in its ``InnovationLaw`` (``GAUSSIAN``,
``RADEMACHER``); ``InnovationLadder`` turns a law and the ladder of
``moments()`` into the draw row, psi and the moment sums for these families
and ``linear_statistic``.  They are the calibration targets of the
laboratory — their distance decay is the classical independent-case rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigurationError
from ..numerics import normal_abs_moment, normal_cdf, normal_pdf
from .base import Model, ModelSpec, PathMoments, config_real, config_reals


def sigma_schedule(spec: ModelSpec) -> np.ndarray:
    """Resolve the sigma_k schedule from spec.params["sigma"]."""
    n = spec.n
    key = f"{spec.family} sigma"
    raw = spec.params.get("sigma", 1.0)
    if isinstance(raw, (list, tuple, np.ndarray)):
        arr = config_reals(key, raw)
        if arr.shape != (n,) or np.any(arr <= 0):
            raise ConfigurationError(f"explicit sigma schedule must be {n} positive finite reals")
        return arr
    if isinstance(raw, dict):
        if raw.get("rule") != "affine":
            raise ConfigurationError(f"unrecognized sigma schedule {raw!r}")
        intercept = config_real(f"{key} intercept", raw.get("intercept", 1.0))
        slope = config_real(f"{key} slope", raw.get("slope", 1.0))
        k = np.arange(1, n + 1, dtype=float)
        arr = intercept + slope * k / n
        if np.any(arr <= 0):
            raise ConfigurationError("affine sigma schedule must stay positive")
        return arr
    sigma = config_real(key, raw)
    if sigma <= 0:
        raise ConfigurationError("sigma must be positive")
    return np.full(n, sigma)


def gaussian_min_profile(u) -> np.ndarray:
    """E min(u Z^2, |Z|^3) for standard Gaussian Z, vectorized in u >= 0.

    The minimum switches at |Z| = u, giving the closed form
    2u(1 - Phi(u)) + 4(phi(0) - phi(u)).
    """
    u = np.asarray(u, dtype=float)
    res = 2.0 * u * (1.0 - normal_cdf(u)) + 4.0 * (normal_pdf(0.0) - normal_pdf(u))
    return np.maximum(res, 0.0)


def _rademacher_fill(g: np.random.Generator, row: np.ndarray) -> None:
    # The signs integers(0, 2, n) would give, read from the raw Philox
    # words: it takes one uint32 per sign, the low half of each 64-bit word
    # first, and keeps the top bit.  Decoded per row, while it is in cache.
    n = row.size
    words = g.bit_generator.random_raw((n + 1) // 2).astype("<u8", copy=False)
    np.multiply(words.view("<u4")[:n] >> 31, 2.0, out=row)
    row -= 1.0


@dataclass(frozen=True)
class InnovationLaw:
    """A unit-variance law of eps: fill(g, row) writes i.i.d. draws into row in
    the law's documented draw order, abs_moment(p) is E|eps|^p, and
    min_profile(u) is E min(u eps^2, |eps|^3), array of u >= 0 in, array out."""

    fill: Callable[[np.random.Generator, np.ndarray], None]
    abs_moment: Callable[[float], float]
    min_profile: Callable[[np.ndarray], np.ndarray]


GAUSSIAN = InnovationLaw(
    lambda g, row: g.standard_normal(out=row), normal_abs_moment, gaussian_min_profile
)
# |eps| = 1, so E|eps|^p = 1 and E min(u eps^2, |eps|^3) = min(u, 1)
RADEMACHER = InnovationLaw(_rademacher_fill, lambda p: 1.0, lambda u: np.minimum(u, 1.0))


class InnovationLadder(Model):
    """xi_k = sigma_k eps_k, eps_k i.i.d. of the class's ``law``, sigma_k^2 from moments().

    In binary64 sqrt(fl(sigma^2)) = sigma, so the closed forms keep sigma_k's bits."""

    law: InnovationLaw

    def __init__(self, spec: ModelSpec) -> None:
        super().__init__(spec)
        # the fill itself, not a method that calls it: a row costs one Python call
        self._draw_row = self.law.fill

    def psi_closed_form(self, t: np.ndarray) -> np.ndarray:
        # E min(t delta xi_k^2, |xi_k|^3) / sigma_k^2 = sigma_k profile(t delta / sigma_k)
        # is increasing in sigma_k, so the sup over k sits at sigma_k = delta_n
        return self.moments().delta_n * self.law.min_profile(t)

    def sup_moment_ratio(self, p: float) -> float:
        return float(np.max(np.sqrt(self.moments().sigma2) ** (p - 2.0))) * self.law.abs_moment(p)

    def sum_abs_moments(self, p: float) -> float:
        return float(np.sum(np.sqrt(self.moments().sigma2) ** p)) * self.law.abs_moment(p)


class _IIDBase(InnovationLadder):
    def __init__(self, spec: ModelSpec) -> None:
        super().__init__(spec)
        self.sigma = sigma_schedule(spec)
        self._v_n = float(np.sum(self.sigma**2))

    def moments(self) -> PathMoments:
        return PathMoments(sigma2=self.sigma**2, v_n=self._v_n, conditional_variance_constant=True)

    def _increments(self, draws: np.ndarray) -> np.ndarray:
        return self.sigma * draws

    def _sums(self, draws: np.ndarray) -> np.ndarray:
        # one ddot per row, so a row's sum never depends on its chunk
        return np.fromiter(map(self.sigma.dot, draws), float, len(draws))


class GaussianIID(_IIDBase):
    """xi_k = sigma_k Z_k; the normalized sum is exactly standard Gaussian."""

    law = GAUSSIAN


class RademacherIID(_IIDBase):
    """xi_k = sigma_k eps_k with fair signs; the canonical lattice example."""

    law = RADEMACHER

    # A row is a few raw Philox words, too short to pay for a thread handoff:
    # split rows drew 1.8-3.4x slower at n = 2048 and 4096, so rows never split.
    parallel_draw_width = float("inf")
