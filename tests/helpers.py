"""Independent oracles and Monte Carlo cross-checks shared across the test suite.

The oracles reuse none of the package's closed forms beyond the Gaussian cdf
and the adaptive quadrature routine (which is itself oracle-grade and has its
own golden tests).  The W1 oracle integrates |F_hat - Phi| piece by piece; the
finite-chain oracles work purely by exhaustive path enumeration, so they are
algorithmically independent of the matrix-power machinery they check.
``linear_chunk_routes`` replays the chunking an older release used, so a
test can run it in a fresh interpreter under other BLAS thread settings.
``sample_path`` draws one path through a model's maps as a chunk of one,
``increment_matrix`` stacks the increment rows a model's statistic pass
hands its sink, ``chain_one_step_states`` walks a chain's state paths one
step per lookup, and ``term`` looks up one term of a bound breakdown by
name.

The Monte Carlo estimators of psi_n and of the fluctuation statistics
U_ell(p) and l_n, the autocovariance routes to V_n, and the chain's spectral
bound on its window constant live here too: they exist only to cross-check
the package's exact oracles, and no command reaches them.  Tests pin the
Monte Carlo estimators' outputs bit for bit, so their arithmetic must not
be reordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from cltlab.bounds import U_REPLICATES, BoundBreakdown, BoundTerm
from cltlab.errors import ConfigurationError, DomainError
from cltlab.models import ModelSpec, make_model
from cltlab.models.base import DEFAULT_CHUNK, check_table_size
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


def term(breakdown: BoundBreakdown, name: str) -> BoundTerm:
    """The term of a bound breakdown called name; KeyError when it has none."""
    for t in breakdown.terms:
        if t.name == name:
            return t
    raise KeyError(name)


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


def increment_matrix(model, master_seed: int, replicates: int, block: int = 0, start: int = 0):
    """(replicates, n) raw increments of replicates [start, start+replicates), one per row.

    The rows are the chunks statistic_range hands its increments sink,
    copied into one table; a table over the 1 GiB cap is refused before any
    draw, and a negative start or count raises DomainError.
    """
    check_table_size(replicates, model.spec.n)
    out = np.empty((max(replicates, 0), model.spec.n))
    done = 0

    def put(rows: np.ndarray) -> None:
        nonlocal done
        out[done : done + len(rows)] = rows
        done += len(rows)

    model.statistic_range(master_seed, start, replicates, block, increments=put)
    return out


def chain_one_step_states(model, draws: np.ndarray) -> np.ndarray:
    """A chain's (chunk, n) state paths by the one-step walk its draw ran
    before it took b steps per lookup: one add and one table lookup per
    time step across the chunk, in the one-step table's dtype.

    The codes of the whole (chunk, n) draw matrix are counted in place,
    one comparison pass per threshold; only these compact codes are laid
    out time-major.  Row t of that buffer holds code(u_t)*S until step t
    replaces it with the table entry at code(u_t)*S + Y_{t-1}, which is
    Y_t.  The states come back C-contiguous in the table's dtype.
    """
    chunk, n = draws.shape
    codes = np.zeros(draws.shape, dtype=model._step_table.dtype)
    hit = np.empty(draws.shape, dtype=bool)
    for cut in model._cuts:
        np.greater_equal(draws, cut, out=hit)
        codes += hit
    path = np.empty((n, chunk), dtype=model._step_table.dtype)
    np.multiply(codes.T, model.n_states, out=path)
    # Y_1 = #{j < S-1 : u_1 >= (cumsum pi)_j}, from the stationary law
    path[0] = np.searchsorted(model._cum_pi, draws[:, 0], side="right")
    step = np.empty(chunk, dtype=model._step_table.dtype)
    for t in range(1, n):
        np.add(path[t], path[t - 1], out=step)
        model._step_table.take(step, out=path[t])
    return np.ascontiguousarray(path.T)


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
# Monte Carlo cross-checks of the exact bound oracles

# Blocks keep these streams disjoint from the distance pipeline's replicate
# streams, and from heyde_brown's block 103, under the same master seed.
PSI_REPLICATES = 10_000
PSI_BLOCK = 101
U_BLOCK = 102


def psi_n(
    t: float,
    model,
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
    if mode not in ("closed_form", "monte_carlo"):
        raise ConfigurationError(f"psi mode must be closed_form or monte_carlo, got {mode!r}")
    if t == 0.0:
        return 0.0, 0.0, True
    if mode == "closed_form":
        return float(model.psi_closed_form(np.array([t]))[0]), 0.0, True
    value, se = psi_mc_profile(model, replicates, master_seed)(np.array([t]))
    return float(value[0]), float(se[0]), False


def psi_mc_profile(
    model, replicates: int, master_seed: int
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Shared-path psi estimator: one increment matrix serves every t.

    It holds three tables of the live columns: |xi|^2 and |xi|^3, both built
    from one masked copy (the raw table is dropped), and one buffer for the
    per-t values.
    """
    mo = model.moments()
    sigma2 = mo.sigma2
    mask = sigma2 > 0.0
    if not np.any(mask):
        raise DomainError("all increment variances are zero")
    xi2 = increment_matrix(model, master_seed, replicates, PSI_BLOCK)[:, mask]
    np.abs(xi2, out=xi2)
    xi3 = xi2**3
    np.square(xi2, out=xi2)
    vals = np.empty_like(xi2)
    s2 = sigma2[mask]
    delta = mo.delta_n
    root_r = math.sqrt(replicates)

    def at(t: float) -> tuple[float, float]:
        """psi(t) and the SE of the attaining k's mean, from one table."""
        np.multiply(t * delta, xi2, out=vals)
        np.minimum(vals, xi3, out=vals)
        ratios = vals.mean(axis=0) / s2
        k = int(np.argmax(ratios))
        return ratios[k], vals[:, k].std(ddof=1) / (root_r * s2[k])

    return lambda t: tuple(np.array([at(x) for x in t]).T)


def chain_u_samples(model, states: np.ndarray, ell: int, p: float) -> np.ndarray:
    """Per-path integrand of the chain's fluctuation statistic at split index ell.

    states is a (replicates, n) matrix of state indices from
    prefix_states_chunk; column t-1 holds Y_t.  The integrand reads the
    chain's conditional stacks and gap tables.
    """
    n = model.spec.n
    if not (2 <= ell <= n):
        raise DomainError(f"ell must be in [2, {n}]")
    h, ph, _ = model._stacks()
    sigma = math.sqrt(model.sigma2_ladder()[ell - 2])
    gap = model._gap_tables()[ell - 2][states[:, ell - 2]]
    xi = h[ell - 2][states[:, ell - 2]]
    if ell > 2:
        xi = xi - ph[ell - 2][states[:, ell - 3]]
    return np.maximum(np.abs(xi), sigma) ** (p - 2.0) * np.abs(gap)


def u_ln(ell: int, p: float, model) -> float:
    """U_ell(p) from the exact oracles, as bounds.l_n reads it.

    Exactly 0 for models with constant conditional variances; otherwise the
    family's ``u_exact`` at index ell-2.
    """
    n = model.spec.n
    if not (2 <= ell <= n):
        raise DomainError(f"ell must be in [2, {n}], got {ell!r}")
    if model.moments().conditional_variance_constant:
        return 0.0
    return float(model.u_exact(p)[ell - 2])


def u_ln_mc(
    ell: int, p: float, model, replicates: int = U_REPLICATES, master_seed: int = 0
) -> tuple[float, float]:
    """U_ell(p) of a chain by Monte Carlo over path prefixes, as (value, se)."""
    return _fluctuation_sum_mc(model, p, (ell,), (1.0,), replicates, master_seed)


def l_n_mc(
    p: float, r: float, a: float, model, replicates: int = U_REPLICATES, master_seed: int = 0
) -> tuple[float, float]:
    """bounds.l_n of a chain by Monte Carlo over path prefixes, as (value, se).

    The denominators are formed as bounds.l_n forms them.
    """
    mo = model.moments()
    tails = np.cumsum(mo.sigma2[:0:-1])[::-1]
    denoms = (tails + a * a * mo.delta_n**2) ** ((p - r) / 2.0)
    return _fluctuation_sum_mc(
        model, p, range(2, model.spec.n + 1), denoms, replicates, master_seed
    )


def _fluctuation_sum_mc(
    model, p: float, ells: Sequence[int], denoms: Sequence[float],
    replicates: int, master_seed: int,
) -> tuple[float, float]:
    """sum over ells of U_ell(p) / denoms, averaged over prefix states under U_BLOCK.

    One prefix set serves every ell, so the reported SE accounts for the
    cross-ell correlation exactly.
    """
    states = model.prefix_states_chunk(master_seed, replicates, U_BLOCK)
    acc = np.zeros(states.shape[0])
    for ell, d in zip(ells, denoms):
        acc += chain_u_samples(model, states, ell, p) / d
    return float(acc.mean()), float(acc.std(ddof=1) / math.sqrt(acc.size))


# ---------------------------------------------------------------------------
# second-order cross-checks: autocovariances and the chain's spectral bound


def chain_autocovariance(model, lag: int) -> float:
    """gamma_lag = E f(Y_0) f(Y_lag) of a rho_mixing_chain, by one matrix power."""
    g = np.linalg.matrix_power(model.P, abs(int(lag))) @ model.f
    return float(model.pi @ (model.f * g))


def chain_spectral_gap_rho(model) -> float:
    """Second-largest eigenvalue modulus of a chain's transition matrix."""
    vals = np.sort(np.abs(np.linalg.eigvals(model.P)))[::-1]
    return float(vals[1])


def chain_c_n_bound(model) -> float:
    """Spectral bound (1 + rho) / (1 - rho) for a chain's window variance ratio."""
    rho = chain_spectral_gap_rho(model)
    if rho >= 1.0 - 1e-12:
        raise ConfigurationError("chain is not geometrically mixing (rho = 1)")
    return (1.0 + rho) / (1.0 - rho)


def linear_autocovariance(model, lag: int) -> float:
    """gamma_|lag| of a linear_statistic's base sequence, exact."""
    lag = abs(int(lag))
    if model.kind == "ar1":
        return model.phi**lag * model.gamma0
    if lag >= model.theta.size:
        return 0.0
    return float(np.sum(model.theta[: model.theta.size - lag] * model.theta[lag:]))


def _geometric_cutoff(phi: float, tol: float = 1e-18) -> int:
    """Lag beyond which |phi|^lag is numerically negligible."""
    if phi == 0.0:
        return 0
    return max(1, int(math.ceil(math.log(tol) / math.log(abs(phi)))))


def linear_covariance_vn(model) -> float:
    """Var(S_n) of a linear_statistic from the autocovariance double sum."""
    n = model.spec.n
    a = model.alpha
    total = linear_autocovariance(model, 0) * float(np.sum(a * a))
    max_lag = n - 1 if model.kind == "ma" else min(n - 1, _geometric_cutoff(model.phi))
    if model.kind == "ma":
        max_lag = min(max_lag, model.theta.size - 1)
    for d in range(1, max_lag + 1):
        g = linear_autocovariance(model, d)
        if g == 0.0:
            continue
        total += 2.0 * g * float(np.sum(a[: n - d] * a[d:]))
    return total


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

    def window_variance(self, ell: int) -> float:
        """Var(S_n - S_{ell-1}) = Var(f(Y_ell) + .. + f(Y_n)), brute force."""
        tails = [(p, float(sum(self.f[x] for x in s[ell - 1 :]))) for p, s in self.paths]
        mean = sum(p * t for p, t in tails)
        return sum(p * t * t for p, t in tails) - mean * mean

    def c_n(self) -> float:
        """max_ell sum_{i>=ell} E f(Y_i)^2 / Var(S_n - S_{ell-1}), brute force."""
        second = [sum(p * self.f[s[i]] ** 2 for p, s in self.paths) for i in range(self.n)]
        return max(sum(second[ell - 1 :]) / self.window_variance(ell) for ell in range(1, self.n + 1))

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
