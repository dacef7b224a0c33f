"""Exact one-dimensional distances between an empirical sample and the
standard Gaussian, plus the Kolmogorov/W1 transfer inequality.

Everything here is closed form given the order statistics — no binning, no
numerical integration on the hot path:

* Kolmogorov distance: the usual one-sided envelope over order statistics,
  max_i max(i/R - Phi(x_(i)), Phi(x_(i)) - (i-1)/R).  Exact under ties.
* W1 against the Gaussian: the area between the empirical cdf and Phi,
  integrated piece by piece using the antiderivative J of Phi.  Between two
  consecutive order statistics the empirical cdf is the constant c = i/R and
  Phi crosses it at normal_quantile(c), so each piece splits into at most two
  exactly integrable parts.  The two tails contribute J(x_(1)) and J(-x_(R)).
* W_r by quantile coupling: mean_i |x_(i) - Phi^{-1}((i - 1/2)/R)|^r.  For
  r < 1 the map x -> x^r is concave, so the midpoint-quantile coupling is an
  upper bound rather than the exact optimal cost; the flag says so.

Standard errors are deliberately cheap and distribution free: the Kolmogorov
SE uses the 95% Dvoretzky–Kiefer–Wolfowitz envelope, the W1 SE batch means
over the ten round-robin subsequences of the sorted sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import DomainError
from .numerics import csv_text, integral_of_phi, normal_cdf, normal_quantile

# Prefactor of the Kolmogorov <= c * W_{p-2}^{1/(p-1)} transfer inequality:
# 1 + (2*pi)^{-1/2}.
TRANSFER_CONSTANT = 1.0 + 1.0 / math.sqrt(2.0 * math.pi)

DKW_ALPHA = 0.05

W1_SE_BATCHES = 10


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted replicate values of one normalized statistic.

    values must be finite and ascending; replicates == len(values).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DomainError("EmpiricalSample needs a nonempty 1-D array")
        if not np.all(np.isfinite(v)):
            raise DomainError("EmpiricalSample values must be finite")
        if np.any(np.diff(v) < 0):
            raise DomainError("EmpiricalSample values must be sorted ascending")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "EmpiricalSample":
        """Sort raw replicate values into a sample."""
        return cls(np.sort(np.asarray(values, dtype=float)))

    @property
    def replicates(self) -> int:
        return int(self.values.size)


def kolmogorov_vs_normal(sample: EmpiricalSample) -> float:
    """Exact sup-distance between the empirical cdf and Phi."""
    x = sample.values
    r = x.size
    cdf = normal_cdf(x)
    i = np.arange(1, r + 1, dtype=float)
    upper = np.max(i / r - cdf)
    lower = np.max(cdf - (i - 1.0) / r)
    return float(max(upper, lower, 0.0))


def w1_vs_normal(sample: EmpiricalSample) -> float:
    """Exact L1 distance between the empirical cdf and Phi.

    Equals the Wasserstein-1 distance between the empirical law and the
    standard Gaussian.
    """
    x = sample.values
    r = x.size
    jx = integral_of_phi(x)
    total = float(jx[0])  # left tail: integral of Phi over (-inf, x_(1)]
    total += float(integral_of_phi(-x[-1]))  # right tail: integral of 1 - Phi
    if r == 1:
        return total
    c = np.arange(1, r, dtype=float) / r  # empirical cdf level on (x_i, x_{i+1})
    q = normal_quantile(c)  # where Phi crosses that level
    u = x[:-1]
    v = x[1:]
    ju = jx[:-1]
    jv = jx[1:]
    width = v - u
    below = q <= u  # Phi >= c on the whole piece
    above = q >= v  # Phi <= c on the whole piece
    mid = ~(below | above)
    pieces = np.where(
        below,
        (jv - ju) - c * width,
        np.where(above, c * width - (jv - ju), 0.0),
    )
    if np.any(mid):
        jq = integral_of_phi(q[mid])
        pieces_mid = c[mid] * (2.0 * q[mid] - u[mid] - v[mid]) + ju[mid] + jv[mid] - 2.0 * jq
        pieces = np.where(mid, 0.0, pieces)
        pieces[mid] = pieces_mid
    total += float(np.sum(pieces))
    return max(total, 0.0)


def wr_quantile_coupling(sample: EmpiricalSample, r: float) -> tuple[float, bool]:
    """Order-r coupling cost against the Gaussian midpoint quantile grid.

    Returns (value, is_upper_bound).  For r = 1 this is the exact optimal
    coupling up to the O(1/R) quantile discretization; for r < 1 the
    discretized coupling only upper-bounds the minimal cost, hence the flag.
    """
    if not (0.0 < r <= 1.0):
        raise DomainError(f"coupling order r must lie in (0, 1], got {r!r}")
    x = sample.values
    n = x.size
    grid = normal_quantile((np.arange(1, n + 1, dtype=float) - 0.5) / n)
    value = float(np.mean(np.abs(x - grid) ** r))
    return value, bool(r < 1.0)


def be_transfer(wr_value: float, p: float) -> float:
    """Kolmogorov bound implied by a W_{p-2} distance, 2 < p <= 3.

    (1 + (2*pi)^{-1/2}) * wr_value^{1/(p-1)}.
    """
    if not (2.0 < p <= 3.0):
        raise DomainError(f"p must lie in (2, 3], got {p!r}")
    if wr_value < 0 or not math.isfinite(wr_value):
        raise DomainError(f"wr_value must be a finite nonnegative real, got {wr_value!r}")
    return TRANSFER_CONSTANT * wr_value ** (1.0 / (p - 1.0))


def kolmogorov_se(replicates: int, alpha: float = DKW_ALPHA) -> float:
    """Dvoretzky–Kiefer–Wolfowitz envelope half-width at confidence 1-alpha."""
    if replicates <= 0:
        raise DomainError("replicates must be positive")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * replicates))


def w1_se_batch_means(sample: EmpiricalSample, batches: int = W1_SE_BATCHES) -> float:
    """Batch-means SE for w1_vs_normal over round-robin sample splits.

    The sorted sample is split into `batches` interleaved subsequences (index
    mod `batches`); each is itself a sorted sample of the same law.  The SE is
    the sample standard deviation of their W1 values divided by sqrt(batches).
    """
    x = sample.values
    if x.size < 2 * batches:
        return float("nan")
    vals = [
        w1_vs_normal(EmpiricalSample(x[k::batches])) for k in range(batches)
    ]
    return float(np.std(vals, ddof=1) / math.sqrt(batches))


@dataclass(frozen=True)
class DistanceReport:
    """All distances of one (model, n) sample to the standard Gaussian."""

    model_id: str
    n: int
    p: float
    replicates: int
    kolmogorov: float
    kolmogorov_se: float
    w1: float
    w1_se: float
    wr_r: float
    wr_value: float
    wr_is_upper_bound: bool

    def transfer_bound(self) -> float:
        """Kolmogorov bound implied by the measured coupling distance."""
        return be_transfer(self.wr_value, self.p)

    def transfer_holds(self, slack_se: float = 3.0) -> bool:
        """Check kolmogorov <= be_transfer(w1, 3) + slack (p = 3 only)."""
        if self.p != 3.0:
            raise DomainError("the transfer check is defined for p = 3 reports")
        return self.kolmogorov <= (
            be_transfer(self.w1, 3.0) + slack_se * (self.kolmogorov_se + self.w1_se)
        )


def compute_report(
    sample: EmpiricalSample,
    model_id: str,
    n: int,
    p: float,
    wr_r: Optional[float] = None,
) -> DistanceReport:
    """Measure every distance column of the standard report for one sample.

    The coupling order defaults to the one the theory pairs with p: r = p - 2
    for p < 3 and r = 1 at p = 3.
    """
    if not (2.0 < p <= 3.0):
        raise DomainError(f"p must lie in (2, 3], got {p!r}")
    if wr_r is None:
        wr_r = 1.0 if p == 3.0 else p - 2.0
    wr_value, upper = wr_quantile_coupling(sample, wr_r)
    return DistanceReport(
        model_id=model_id,
        n=int(n),
        p=float(p),
        replicates=sample.replicates,
        kolmogorov=kolmogorov_vs_normal(sample),
        kolmogorov_se=kolmogorov_se(sample.replicates),
        w1=w1_vs_normal(sample),
        w1_se=w1_se_batch_means(sample),
        wr_r=float(wr_r),
        wr_value=wr_value,
        wr_is_upper_bound=upper,
    )


DISTANCE_CSV_COLUMNS = (
    "model_id",
    "n",
    "p",
    "replicates",
    "kolmogorov",
    "kolmogorov_se",
    "w1",
    "w1_se",
    "wr_r",
    "wr_value",
    "wr_is_upper_bound",
    "be_transfer",
)


def reports_to_csv(reports: Iterable[DistanceReport]) -> str:
    """The distance table; floats in shortest round-trip decimal form."""
    return csv_text(
        DISTANCE_CSV_COLUMNS,
        (
            (
                rep.model_id, rep.n, float(rep.p), rep.replicates,
                rep.kolmogorov, rep.kolmogorov_se, rep.w1, rep.w1_se,
                rep.wr_r, rep.wr_value, rep.wr_is_upper_bound, rep.transfer_bound(),
            )
            for rep in reports
        ),
    )
