"""Sequential expanding circle maps with trigonometric observables.

The path increment is xi_k = g(tau_k x) where tau_k = T_k o ... o T_1,
T_k(x) = m_k x mod 1 with integer slopes m_k >= 2, x uniform on [0, 1), and
g a finite cosine polynomial sum_h c_h cos(2 pi h x) (no constant term, so
every increment has mean zero exactly).

Exact variance.  tau_k x = (M_k x) mod 1 with M_k = m_1 ... m_k, and
E[cos(2 pi a x) cos(2 pi b x)] = (1/2) 1{a=b} for positive integers a, b.
Two terms (k, h) and (l, h') therefore correlate iff h M_k = h' M_l, i.e.
iff the slope product between the two times equals a harmonic ratio.  With
a maximal harmonic H the product exceeds H after at most log2(H) steps, so
the exact V_n scan only ever inspects a bounded window — no big integers.

Exact sampling, backward.  Iterating x -> m x mod 1 in floating point
shifts mantissa bits out: after ~53 doubling steps the orbit is destroyed.
Instead the trajectory is sampled in reverse: x_n is uniform, and given
x_k the previous point is (x_k + j)/m_k with j uniform on {0..m_k-1} — each
preimage of an m-to-1 measure-preserving map carries mass 1/m, so this
realizes exactly the joint law of (tau_1 x, ..., tau_n x) while the
arithmetic *contracts*.  Draw order per replicate: n uniforms; the first
seeds x_n, the remaining n-1 drive the preimage choices for k = n..2.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from .base import Model, ModelSpec, PathMoments

OBSERVABLES = {
    # harmonic -> coefficient; no constant term, so means are exactly zero
    "cos1": {1: math.sqrt(2.0)},
    "cos12": {1: 1.0, 2: 0.5},
}


def _slopes(spec: ModelSpec) -> np.ndarray:
    raw = spec.params.get("multipliers", {"rule": "constant", "m": 2})
    n = spec.n
    if isinstance(raw, (list, tuple, np.ndarray)):
        arr = np.asarray(raw, dtype=np.int64)
        if arr.shape != (n,):
            raise ConfigurationError(f"explicit multipliers must give {n} integers")
    elif isinstance(raw, dict) and raw.get("rule") == "constant":
        arr = np.full(n, int(raw.get("m", 2)), dtype=np.int64)
    elif isinstance(raw, dict) and raw.get("rule") == "cycle":
        vals = [int(v) for v in raw.get("values", [2, 3])]
        if not vals:
            raise ConfigurationError("cycle rule needs at least one multiplier")
        arr = np.array([vals[k % len(vals)] for k in range(n)], dtype=np.int64)
    else:
        raise ConfigurationError(f"unrecognized multipliers {raw!r}")
    if np.any(arr < 2):
        raise ConfigurationError("all multipliers must be integers >= 2")
    return arr


class SequentialMaps(Model):
    """Non-stationary dynamical sums for expanding maps on the circle."""

    def __init__(self, spec: ModelSpec) -> None:
        super().__init__(spec)
        self.m = _slopes(spec)
        obs = spec.params.get("observable", "cos1")
        if obs not in OBSERVABLES:
            raise ConfigurationError(
                f"unknown observable {obs!r}; known: {sorted(OBSERVABLES)}"
            )
        self.observable = obs
        self.coeffs = dict(OBSERVABLES[obs])
        self._vn: Optional[float] = None

    @property
    def model_id(self) -> str:
        return f"sequential_maps[{self.observable}](n={self.spec.n})"

    # -- exact Fourier second-order structure --------------------------------

    def exact_vn(self) -> float:
        """Var(S_n) by exact frequency matching of the cosine terms."""
        if self._vn is None:
            n = self.spec.n
            h_max = max(self.coeffs)
            diag = sum(c * c for c in self.coeffs.values()) / 2.0
            total = n * diag
            # cross terms: (k, h) vs (l, h') with l > k collide iff
            # h == h' * prod(m_{k+1..l}); the product exceeds h_max fast.
            for k in range(n - 1):
                ratio = 1
                l = k + 1
                while l < n:
                    ratio *= int(self.m[l])
                    if ratio > h_max:
                        break
                    for h2, c2 in self.coeffs.items():
                        h1 = h2 * ratio
                        c1 = self.coeffs.get(h1)
                        if c1 is not None:
                            total += 2.0 * (c1 * c2 / 2.0)
                    l += 1
            self._vn = float(total)
        return self._vn

    def moments(self) -> PathMoments:
        """The exact V_n over a flat ladder V_n / n.

        No per-increment martingale split is available, and no bound this
        family supports reads sigma_k^2 or delta_n: only V_n enters.
        """
        n = self.spec.n
        v_n = self.exact_vn()
        return PathMoments(
            sigma2=np.full(n, v_n / n), v_n=v_n, conditional_variance_constant=False
        )

    # -- sampling --------------------------------------------------------------

    def _observe(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for h, c in self.coeffs.items():
            out += c * np.cos((2.0 * math.pi * h) * x)
        return out

    def _draw_row(self, g: np.random.Generator, row: np.ndarray) -> None:
        g.random(out=row)

    def _orbit(self, draws: np.ndarray) -> np.ndarray:
        """(n, chunk) trajectory points, time-major; row j holds x_{n-j}.

        Row 0 is the first draw, x_n.  Every step's preimage branch
        floor(u m_k) comes from one (n-1, chunk) matrix filled in one pass;
        step k then adds x_{k+1} to its contiguous row and divides by m_k in
        place.
        """
        n = self.spec.n
        slopes = self.m[n - 1 : 0 : -1].astype(float)  # m_k for k = n-1..1
        xs = np.empty((n, draws.shape[0]))
        xs[0] = draws[:, 0]
        np.multiply(draws[:, 1:].T, slopes[:, None], out=xs[1:])
        np.floor(xs[1:], out=xs[1:])
        rows = list(xs)
        for prev, row, m in zip(rows, rows[1:], slopes.tolist()):
            row += prev
            row /= m
        return xs

    def _points(self, draws: np.ndarray) -> np.ndarray:
        """(chunk, n) trajectory points; column k-1 holds tau_k x."""
        return np.ascontiguousarray(self._orbit(draws)[::-1].T)

    def _increments(self, draws: np.ndarray) -> np.ndarray:
        return self._observe(self._points(draws))

    def _sums(self, draws: np.ndarray) -> np.ndarray:
        # added row by row from x_n back to x_1, as the orbit is sampled
        xs = self._orbit(draws)
        total = self._observe(xs[0])
        for x in xs[1:]:
            total += self._observe(x)
        return total
