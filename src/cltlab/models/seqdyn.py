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
from typing import Iterator, Optional

import numpy as np

from ..errors import ConfigurationError
from .base import STEP_LOOP_DRAW_BUDGET, Model, ModelSpec, PathMoments

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

    draw_budget = STEP_LOOP_DRAW_BUDGET

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

    def increment_variance(self) -> float:
        """Var(xi_k), identical for every k: sum_h c_h^2 / 2."""
        return sum(c * c for c in self.coeffs.values()) / 2.0

    def moments(self) -> PathMoments:
        n = self.spec.n
        v_n = self.exact_vn()
        per = self.increment_variance()
        if abs(v_n - n * per) <= 1e-9 * max(1.0, v_n):
            # orthogonal case (e.g. single-harmonic observable): the flat
            # ladder *is* the per-increment variance, exactly.
            sigma2 = np.full(n, per)
            exact = True
            note = ""
        else:
            # cross-frequency collisions: V_n is exact but no per-increment
            # martingale split is available; report the flat proxy ladder.
            sigma2 = np.full(n, v_n / n)
            exact = False
            note = "flat proxy ladder; per-increment martingale split unavailable"
        return PathMoments(
            sigma2=sigma2,
            v_n=v_n,
            delta_n=float(math.sqrt(np.max(sigma2))),
            conditional_variance_constant=False,
            exact=exact,
            note=note,
        )

    # -- sampling --------------------------------------------------------------

    def _observe(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for h, c in self.coeffs.items():
            out += c * np.cos((2.0 * math.pi * h) * x)
        return out

    def _draw_row(self, g: np.random.Generator, row: np.ndarray) -> None:
        g.random(out=row)

    def _orbit(self, draws: np.ndarray) -> Iterator[np.ndarray]:
        """x_n, x_{n-1}, ..., x_1 per row, one array updated in place."""
        n = self.spec.n
        x = draws[:, 0].copy()
        yield x
        for k in range(n - 1, 0, -1):
            m = float(self.m[k])
            x += np.floor(draws[:, n - k] * m)  # preimage branch for step k
            x /= m
            yield x

    def _points(self, draws: np.ndarray) -> np.ndarray:
        """(chunk, n) trajectory points; column k-1 holds tau_k x."""
        xs = np.empty_like(draws)
        for col, x in zip(range(self.spec.n - 1, -1, -1), self._orbit(draws)):
            xs[:, col] = x
        return xs

    def _increments(self, draws: np.ndarray) -> np.ndarray:
        return self._observe(self._points(draws))

    def _sums(self, draws: np.ndarray) -> np.ndarray:
        # accumulated from x_n back to x_1, as the orbit is sampled
        orbit = self._orbit(draws)
        total = self._observe(next(orbit))
        for x in orbit:
            total += self._observe(x)
        return total
