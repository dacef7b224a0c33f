"""Empirical convergence-rate estimation on (n, distance) series.

One estimator, `fit`, takes one series per master seed on a shared n-grid.
It fits log-log regressions of measured distances against n, with an
optional logarithmic correction (removing a log n factor before fitting):
one series gives the regression slope and its SE, several give the mean
per-seed slope and a t-interval.  The comparison against a predicted
exponent becomes a three-way verdict: consistent, inconsistent, or
inconclusive when the series is too short or too narrow to support a
verdict at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .numerics import csv_text

DISTANCE_KINDS = ("kolmogorov", "w1", "w1_normalized")

# A verdict requires at least this many usable points ...
MIN_POINTS = 4
# ... spanning at least this many decades of n.
MIN_DECADES = 2.0

RATEFIT_CSV_COLUMNS = (
    "model_id",
    "distance_kind",
    "points_used",
    "n_min",
    "n_max",
    "decades",
    "exponent",
    "intercept",
    "ci_halfwidth",
    "log_corrected_exponent",
    "target_exponent",
    "tolerance",
    "verdict",
    "note",
)


@dataclass(frozen=True)
class RateSeries:
    """Measured distances along an n-grid for one model.

    points holds (n, v_n, distance, se) tuples with n strictly increasing.
    Non-positive distances cannot enter a log fit; they are dropped at
    construction and the drop is recorded in ``note``.
    """

    points: tuple[tuple[int, float, float, float], ...]
    model_id: str
    distance_kind: str
    note: str = field(init=False)

    def __post_init__(self) -> None:
        if self.distance_kind not in DISTANCE_KINDS:
            raise ConfigurationError(
                f"distance_kind must be one of {DISTANCE_KINDS}, got {self.distance_kind!r}"
            )
        cleaned = []
        dropped = 0
        last_n = 0
        for n, v_n, d, se in self.points:
            n = int(n)
            if n <= last_n:
                raise DomainError("n values must be strictly increasing")
            last_n = n
            if not (math.isfinite(v_n) and v_n > 0.0):
                raise DomainError(f"v_n must be positive and finite, got {v_n!r}")
            if not (math.isfinite(d) and math.isfinite(se) and se >= 0.0):
                raise DomainError("distances and ses must be finite, se >= 0")
            if d <= 0.0:
                dropped += 1
                continue
            cleaned.append((n, float(v_n), float(d), float(se)))
        note = f"excluded {dropped} non-positive distance value(s)" if dropped else ""
        object.__setattr__(self, "points", tuple(cleaned))
        object.__setattr__(self, "note", note)

    @property
    def n_values(self) -> np.ndarray:
        return np.array([p[0] for p in self.points], dtype=float)

    @property
    def distances(self) -> np.ndarray:
        return np.array([p[2] for p in self.points], dtype=float)

    @property
    def ses(self) -> np.ndarray:
        return np.array([p[3] for p in self.points], dtype=float)

    def decades(self) -> float:
        if len(self.points) < 2:
            return 0.0
        n = self.n_values
        return float(math.log10(n[-1] / n[0]))


@dataclass(frozen=True)
class RateFitResult:
    exponent: float
    intercept: float
    ci_halfwidth: float
    log_corrected_exponent: float
    target_exponent: float
    verdict: str
    points_used: int
    decades: float
    tolerance: float
    n_min: int = 0
    n_max: int = 0
    model_id: str = ""
    distance_kind: str = ""
    note: str = ""
    meta: Mapping[str, object] = field(default_factory=dict)


def _wls_line(x: np.ndarray, y: np.ndarray, w: Optional[np.ndarray]) -> tuple[float, float, float]:
    """Weighted least squares y = b*x + c; returns (b, c, se_b).

    With weights (inverse variances) the slope SE comes from the known-
    variance formula; unweighted fits use the residual-based estimate.
    """
    k = x.size
    if w is None:
        xbar, ybar = x.mean(), y.mean()
        sxx = float(np.sum((x - xbar) ** 2))
        b = float(np.sum((x - xbar) * (y - ybar)) / sxx)
        c = ybar - b * xbar
        if k > 2:
            rss = float(np.sum((y - b * x - c) ** 2))
            se_b = math.sqrt(max(rss, 0.0) / (k - 2) / sxx)
        else:
            se_b = 0.0
        return b, c, se_b
    sw = float(np.sum(w))
    xbar = float(np.sum(w * x) / sw)
    ybar = float(np.sum(w * y) / sw)
    sxx = float(np.sum(w * (x - xbar) ** 2))
    b = float(np.sum(w * (x - xbar) * (y - ybar)) / sxx)
    c = ybar - b * xbar
    return b, c, math.sqrt(1.0 / sxx)


def _fit_exponents(series: RateSeries) -> tuple[float, float, float, float]:
    """(exponent, intercept, slope_se, log_corrected_exponent) for one series."""
    n = series.n_values
    d = series.distances
    se = series.ses
    x = np.log(n)
    y = np.log(d)
    # weight by the delta-method SE of log d when every point carries one
    w = None
    if np.all(se > 0.0):
        w = (d / se) ** 2
    b, c, se_b = _wls_line(x, y, w)
    # log-corrected fit: strip a log n factor, needs log log n defined
    mask = n >= 2
    if int(np.sum(mask)) >= 2:
        xc = x[mask]
        yc = y[mask] - np.log(np.log(n[mask]))
        wc = w[mask] if w is not None else None
        bc, _, _ = _wls_line(xc, yc, wc)
    else:
        bc = math.nan
    return b, c, se_b, bc


def _verdict(
    exponent: float, target: float, ci: float, tolerance: float, points: int, decades: float
) -> str:
    if points < MIN_POINTS or decades < MIN_DECADES:
        return "inconclusive"
    return "consistent" if abs(exponent - target) <= max(ci, tolerance) else "inconsistent"


def fit(series: Sequence[RateSeries], target: float, tolerance: float = 0.05) -> RateFitResult:
    """Log-log rate fit of one series per master seed against a predicted exponent.

    Every series must cover the same n-grid.  One series gives the regression
    slope and 1.96 x its SE (under per-point weights, or the residual-based
    SE); several give the mean of the per-seed slopes and a 95 % t-interval
    on that mean.  Fewer than two usable points give nan estimates; fewer
    than four, or a grid narrower than two decades, yields verdict
    ``inconclusive`` rather than an exception.
    """
    if tolerance < 0.0:
        raise DomainError(f"tolerance must be >= 0, got {tolerance!r}")
    if len({tuple(p[0] for p in s.points) for s in series}) != 1:
        raise ConfigurationError("fit needs one or more series on one shared n-grid")
    first = series[0]
    points = len(first.points)
    decades = first.decades()
    n_min = n_max = 0
    note = first.note
    meta: dict[str, object] = {}
    if points < 2:
        exponent = intercept = ci = log_corrected = math.nan
        note = (note + "; " if note else "") + "too few usable points"
    else:
        n_min, n_max = first.points[0][0], first.points[-1][0]
        fits = [_fit_exponents(s) for s in series]
        k = len(fits)
        if k == 1:
            exponent, intercept, se_b, log_corrected = fits[0]
            ci = 1.96 * se_b
        else:
            exps = np.array([f[0] for f in fits])
            logcs = np.array([f[3] for f in fits])
            # the 97.5 % quantile of Student's t with k - 1 degrees of freedom
            import scipy.special  # about 0.3 s and 20 MB: only this branch loads it
            tq = float(scipy.special.stdtrit(k - 1, 0.975))
            exponent = float(exps.mean())
            intercept = float(np.mean([f[1] for f in fits]))
            ci = tq * float(exps.std(ddof=1)) / math.sqrt(k)
            log_corrected = float(np.nanmean(logcs))
            meta = {
                "seeds": k,
                "log_corrected_ci_halfwidth": tq * float(np.nanstd(logcs, ddof=1)) / math.sqrt(k),
            }
    return RateFitResult(
        exponent=exponent,
        intercept=intercept,
        ci_halfwidth=ci,
        log_corrected_exponent=log_corrected,
        target_exponent=target,
        verdict=_verdict(exponent, target, ci, tolerance, points, decades),
        points_used=points,
        decades=decades,
        tolerance=tolerance,
        n_min=n_min,
        n_max=n_max,
        model_id=first.model_id,
        distance_kind=first.distance_kind,
        note=note,
        meta=meta,
    )


def results_to_csv(results: Sequence[RateFitResult]) -> str:
    """The rate-fit table, one row per result."""
    return csv_text(
        RATEFIT_CSV_COLUMNS,
        (
            (
                r.model_id, r.distance_kind, r.points_used, r.n_min, r.n_max,
                float(r.decades), float(r.exponent), float(r.intercept),
                float(r.ci_halfwidth), float(r.log_corrected_exponent),
                float(r.target_exponent), float(r.tolerance), r.verdict, r.note,
            )
            for r in results
        ),
    )
