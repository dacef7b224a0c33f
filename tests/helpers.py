"""Independent oracles shared across the test suite.

Nothing here reuses the package's closed forms beyond the Gaussian cdf and
the adaptive quadrature routine (which is itself oracle-grade and has its own
golden tests).  The W1 oracle integrates |F_hat - Phi| piece by piece; the
finite-chain oracles work purely by exhaustive path enumeration, so they are
algorithmically independent of the matrix-power machinery they check.
``linear_chunk_routes`` replays the chunking an older release used, so a
test can run it in a fresh interpreter under other BLAS thread settings.
``sample_path`` draws one path through a model's maps as a chunk of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from cltlab.models import ModelSpec, make_model
from cltlab.models.base import DEFAULT_CHUNK
from cltlab.numerics import SeedLineage, normal_cdf, quadrature


def w1_by_quadrature(values, lo: float = -12.0, hi: float = 12.0, tol: float = 1e-12) -> float:
    """integral of |F_hat - Phi| over [lo, hi], one smooth piece at a time.

    The truncation error beyond +/-12 is below 2e-33, far inside the 1e-8
    agreement the equivalence tests demand.
    """
    x = np.sort(np.asarray(values, dtype=float))
    r = x.size
    knots = [lo, *x.tolist(), hi]
    total = 0.0
    for i in range(len(knots) - 1):
        a, b = knots[i], knots[i + 1]
        if b <= a:
            continue
        c = i / r  # empirical cdf level between knots i and i+1
        total += quadrature(lambda t, c=c: abs(c - normal_cdf(t)), a, b, tol=tol)
    return total


# ---------------------------------------------------------------------------
# one path through a model's maps


@dataclass(frozen=True)
class PathSample:
    """One simulated path: its increments and its raw path sum.

    path_sum is the family's own sum of the draws (``_sums``), not a float
    sum of the increments: the lower-bound family's atom at zero is an exact
    0.0 only in the former.
    """

    increments: np.ndarray
    path_sum: float


def sample_path(model, lineage: SeedLineage) -> PathSample:
    """The path of one stream: the model's maps applied to a chunk of one."""
    draws = model._draws(lineage, 1)
    return PathSample(model._increments(draws)[0], float(model._sums(draws)[0]))


# ---------------------------------------------------------------------------
# the linear family's statistic under its former fixed chunk

LINEAR_BASES = {"ar1": {"kind": "ar1", "phi": 0.5}, "ma1": {"kind": "ma", "theta": [1.0, 0.5]}}


def linear_chunk_routes(base: str, n: int, seed: int, start: int, count: int, block: int):
    """(statistic_range, the DEFAULT_CHUNK route) of a linear_statistic model as bytes.

    The second replays the route the family took while it drew DEFAULT_CHUNK
    rows per chunk: one gemv over each DEFAULT_CHUNK rows of draws from start
    on, then one division by the normalizer.
    """
    model = make_model(ModelSpec("linear_statistic", n, params={"base": LINEAR_BASES[base]}))
    sums = []
    for done in range(0, count, DEFAULT_CHUNK):
        first = SeedLineage(seed, SeedLineage.stream_for(block, start + done))
        sums.append(model._draws(first, min(DEFAULT_CHUNK, count - done)) @ model._weights)
    want = np.concatenate(sums) / model.statistic_normalizer()
    return model.statistic_range(seed, start, count, block).tobytes(), want.tobytes()


# ---------------------------------------------------------------------------
# brute-force finite-chain oracles (exhaustive path enumeration)


def chain_paths(P: np.ndarray, pi: np.ndarray, length: int) -> Iterator[tuple[float, tuple[int, ...]]]:
    """All state paths (Y_1 .. Y_length) with their exact probabilities."""
    S = P.shape[0]

    def rec(prefix: tuple[int, ...], prob: float):
        t = len(prefix)
        if t == length:
            yield prob, prefix
            return
        if t == 0:
            for s in range(S):
                if pi[s] > 0:
                    yield from rec((s,), prob * float(pi[s]))
        else:
            y = prefix[-1]
            for s in range(S):
                if P[y, s] > 0:
                    yield from rec(prefix + (s,), prob * float(P[y, s]))

    yield from rec((), 1.0)


class ChainEnumeration:
    """Exact conditional structure of f(Y_1..Y_n) by total enumeration.

    Increments are the Doob differences xi_k = E(S_n | Y_1..k) - E(S_n | Y_1..k-1),
    with every conditional expectation computed by summing over all suffix
    paths -- no matrix powers, no recursions shared with the package.
    """

    def __init__(self, P, f, pi, n: int) -> None:
        self.P = np.asarray(P, dtype=float)
        self.pi = np.asarray(pi, dtype=float)
        f = np.asarray(f, dtype=float)
        self.f = f - float(self.pi @ f)
        self.n = n
        self.paths = list(chain_paths(self.P, self.pi, n))
        self._xi_cache: dict[tuple[int, ...], float] = {}

    def path_sum(self, states: tuple[int, ...]) -> float:
        return float(sum(self.f[s] for s in states))

    def cond_mean_sum(self, prefix: tuple[int, ...]) -> float:
        """E(S_n | Y_1..len(prefix) = prefix), brute force."""
        k = len(prefix)
        if k == 0:
            return float(sum(p * self.path_sum(s) for p, s in self.paths))
        num = 0.0
        den = 0.0
        for p, s in self.paths:
            if s[:k] == prefix:
                num += p * self.path_sum(s)
                den += p
        return num / den

    def xi(self, states: tuple[int, ...], k: int) -> float:
        """Doob increment xi_k along one path (k = 1..n)."""
        key = states[:k]
        if key not in self._xi_cache:
            prev = self.cond_mean_sum(states[: k - 1]) if k > 1 else self.cond_mean_sum(())
            self._xi_cache[key] = self.cond_mean_sum(states[:k]) - prev
        return self._xi_cache[key]

    def sigma2(self, k: int) -> float:
        return float(sum(p * self.xi(s, k) ** 2 for p, s in self.paths))

    def cond_var_gap(self, prefix: tuple[int, ...]) -> float:
        """sum_{k > len(prefix)} (E(xi_k^2 | prefix) - sigma_k^2)."""
        ell = len(prefix) + 1
        num = np.zeros(self.n - ell + 1)
        den = 0.0
        for p, s in self.paths:
            if s[: ell - 1] == prefix:
                den += p
                for j, k in enumerate(range(ell, self.n + 1)):
                    num[j] += p * self.xi(s, k) ** 2
        total = 0.0
        for j, k in enumerate(range(ell, self.n + 1)):
            total += num[j] / den - self.sigma2(k)
        return total

    def u_ell(self, ell: int, p: float) -> float:
        """E[(|xi_{ell-1}| v sigma_{ell-1})^{p-2} |gap_ell|], 2 <= ell <= n."""
        sig = math.sqrt(self.sigma2(ell - 1))
        total = 0.0
        seen: dict[tuple[int, ...], float] = {}
        for prob, s in self.paths:
            prefix = s[: ell - 1]
            if prefix not in seen:
                seen[prefix] = self.cond_var_gap(prefix)
            x = abs(self.xi(s, ell - 1))
            total += prob * max(x, sig) ** (p - 2.0) * abs(seen[prefix])
        return total

    def l_n(self, p: float, r: float, a: float) -> float:
        v = [self.sigma2(k) for k in range(1, self.n + 1)]
        v_n = sum(v)
        delta2 = max(v)
        total = 0.0
        for ell in range(2, self.n + 1):
            v_prev = sum(v[: ell - 1])
            denom = (v_n - v_prev + a * a * delta2) ** ((p - r) / 2.0)
            total += self.u_ell(ell, p) / denom
        return total
