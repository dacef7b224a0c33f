"""Stationary finite-state Markov chain functionals (the mixing family).

The observable path is X_i = f(Y_i) for a finite chain (Y_i) started from
its stationary law pi, with f centered under pi.  The distance pipeline
studies S_n = sum X_i against a Gaussian with the exact variance Var(S_n).

For the martingale-side bound machinery the model designates the projection
increments of S_n,

    xi_k = E(S_n | Y_1..Y_k) - E(S_n | Y_1..Y_{k-1})
         = h_{n-k}(Y_k) - (P h_{n-k})(Y_{k-1}),     h_r = f + P h_{r-1},

whose sum telescopes exactly to S_n (so the bound and the measured distance
talk about the same random variable) and whose variance ladder sums exactly
to Var(S_n).  Every conditional quantity of the chain is a matrix-power
expression, built once as three (n, S) stacks: h_{n-k}, P h_{n-k} and the
conditional variance E(xi_k^2 | Y_{k-1}).  The draw, the variance ladder,
the conditional-variance gap tables, the per-increment laws (each xi_k takes
at most S^2 values) and the bound oracles built on them all read those
stacks.  Every oracle but the Monte Carlo integrand ``u_samples`` is exact,
and ``u_exact`` gives U_2..U_n at once.

Everything second-order (autocovariances gamma_k, Var(S_n), the window
variance-ratio statistic and its spectral bound) is computed from the
transition matrix directly.

The state paths follow the inverse-cdf rule of the stream contract,
Y_t = #{j < S-1 : u_t >= cumsum(P[Y_{t-1}])_j}, and Y_1 the same way from
the stationary cdf.  They are read from one interval table built with the
model: every threshold lies in the sorted distinct set T of the rows'
cumulative sums, so the code #{T <= u_t} of a draw fixes the next state
from every previous state at once.  A chunk's codes come from one pass over
its draw matrix, and each time step is then one add and one table lookup
across the chunk, in the smallest unsigned dtype that holds code*S + s.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ConfigurationError, DomainError
from .base import DRAW_BUDGET, STEP_LOOP_DRAW_BUDGET, Model, ModelSpec, PathMoments


def _resolve_transition(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """(P, f) from params; default two-state symmetric chain with f = (+1, -1)."""
    raw = spec.params.get("transition", {"rule": "two_state", "stay": 0.75})
    if isinstance(raw, dict):
        if raw.get("rule") != "two_state":
            raise ConfigurationError(f"unknown transition shorthand {raw!r}")
        stay = float(raw.get("stay", 0.75))
        if not (0.0 < stay < 1.0):
            raise ConfigurationError(f"two_state stay probability must be in (0,1), got {stay!r}")
        P = np.array([[stay, 1.0 - stay], [1.0 - stay, stay]])
    else:
        P = np.asarray(raw, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
            raise ConfigurationError("transition must be a square stochastic matrix")
        if np.any(P < 0) or not np.allclose(P.sum(axis=1), 1.0, atol=1e-12):
            raise ConfigurationError("transition rows must be nonnegative and sum to 1")
    f = np.asarray(spec.params.get("state_values", [1.0, -1.0][: P.shape[0]]), dtype=float)
    if f.shape != (P.shape[0],) or not np.all(np.isfinite(f)):
        raise ConfigurationError(f"state_values must give {P.shape[0]} finite reals")
    return P, f


class RhoMixingChain(Model):
    """Centered functional of a stationary finite Markov chain."""

    draw_budget = STEP_LOOP_DRAW_BUDGET

    def __init__(self, spec: ModelSpec) -> None:
        super().__init__(spec)
        P, f = _resolve_transition(spec)
        self.P = P
        self.n_states = P.shape[0]
        self.pi = self._stationary()
        # center the observable under the stationary law
        self.f = f - float(self.pi @ f)
        if np.allclose(self.f, 0.0):
            raise ConfigurationError("state_values are constant; the functional is degenerate")
        self._cum_pi = np.cumsum(self.pi)[:-1]
        # the interval table (see the module docstring): row code, column s
        # holds the state after s; flattened, one lookup at code*S + s
        cum_p = np.cumsum(P, axis=1)[:, :-1]
        self._cuts = np.unique(cum_p)
        below = cum_p[None, :, :] <= self._cuts[:, None, None]
        steps = np.vstack((np.zeros(self.n_states), below.sum(axis=2)))
        self._step_table = steps.ravel().astype(np.min_scalar_type(steps.size - 1))
        self._tables: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._sigma2: Optional[np.ndarray] = None
        self._gap: Optional[np.ndarray] = None
        self._moments: Optional[PathMoments] = None
        self._laws: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._law_rows: Optional[np.ndarray] = None

    @property
    def model_id(self) -> str:
        return f"rho_mixing_chain(S={self.n_states},n={self.spec.n})"

    # -- stationary structure -------------------------------------------------

    def _stationary(self) -> np.ndarray:
        vals, vecs = np.linalg.eig(self.P.T)
        idx = int(np.argmin(np.abs(vals - 1.0)))
        if abs(vals[idx] - 1.0) > 1e-9:
            raise ConfigurationError("transition matrix has no eigenvalue 1")
        pi = np.real(vecs[:, idx])
        pi = pi / np.sum(pi)
        if np.any(pi < -1e-12):
            raise ConfigurationError("stationary vector has negative mass; chain not ergodic?")
        pi = np.clip(pi, 0.0, None)
        return pi / np.sum(pi)

    def spectral_gap_rho(self) -> float:
        """Second-largest eigenvalue modulus of the transition matrix."""
        vals = np.sort(np.abs(np.linalg.eigvals(self.P)))[::-1]
        return float(vals[1])

    def c_n_bound(self) -> float:
        """Spectral bound (1 + rho) / (1 - rho) for the window variance ratio."""
        rho = self.spectral_gap_rho()
        if rho >= 1.0 - 1e-12:
            raise ConfigurationError("chain is not geometrically mixing (rho = 1)")
        return (1.0 + rho) / (1.0 - rho)

    def k_n(self) -> float:
        """Sup norm of the centered observable."""
        return float(np.max(np.abs(self.f)))

    def autocovariance(self, lag: int) -> float:
        """gamma_lag = E f(Y_0) f(Y_lag), exact."""
        g = np.linalg.matrix_power(self.P, abs(int(lag))) @ self.f
        return float(self.pi @ (self.f * g))

    def _gammas(self, upto: int) -> np.ndarray:
        out = np.empty(upto + 1)
        g = self.f.copy()
        out[0] = float(self.pi @ (self.f * g))
        for d in range(1, upto + 1):
            g = self.P @ g
            out[d] = float(self.pi @ (self.f * g))
        return out

    def var_sn(self, n: Optional[int] = None) -> float:
        """Var(S_n) from the exact autocovariances."""
        if n is None:
            n = self.spec.n
        gam = self._gammas(n - 1)
        d = np.arange(1, n, dtype=float)
        return float(n * gam[0] + 2.0 * np.sum((n - d) * gam[1:]))

    def c_n(self, n: Optional[int] = None) -> float:
        """max_l (sum_{i=l}^n E X_i^2) / Var(S_n - S_{l-1}), exact.

        With a stationary start this is a maximum over window lengths.
        """
        if n is None:
            n = self.spec.n
        gam = self._gammas(n - 1)
        # Var over window length w: w*g0 + 2*sum_{d=1}^{w-1} (w-d) g_d, built
        # by running sums: adding one step adds g0 + 2*sum_{d=1}^{w-1} g_d.
        cum_g = np.concatenate(([0.0], np.cumsum(gam[1:])))
        var_w = np.cumsum(gam[0] + 2.0 * cum_g)
        ratios = (np.arange(1, n + 1) * gam[0]) / var_w
        return float(np.max(ratios))

    # -- projection martingale ladder -----------------------------------------

    def _stacks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (n, S) conditional tables every exact oracle and the draw read.

        Row k-1 holds h_{n-k}, P h_{n-k} and (P h_{n-k}^2) - (P h_{n-k})^2,
        which for k >= 2 is the conditional variance E(xi_k^2 | Y_{k-1} = y).
        The batched matmul rounds each row as the matrix-vector product P @ h
        does.
        """
        if self._tables is None:
            n = self.spec.n
            h = np.empty((n, self.n_states))
            h[n - 1] = self.f
            for k in range(n - 1, 0, -1):
                h[k - 1] = self.f + self.P @ h[k]
            ph = np.matmul(self.P, h[:, :, None])[:, :, 0]
            w = np.matmul(self.P, (h**2)[:, :, None])[:, :, 0] - ph**2
            self._tables = (h, ph, w)
        return self._tables

    def sigma2_ladder(self) -> np.ndarray:
        """sigma_k^2 = pi h_{n-k}^2 - pi (P h_{n-k})^2; sigma_1^2 = pi h_{n-1}^2."""
        if self._sigma2 is None:
            h, ph, _ = self._stacks()
            # pi-weighted row sums, each rounded as the vector product pi @ v
            pi = self.pi[:, None]
            sigma2 = np.matmul((h**2)[:, None, :], pi)[:, 0, 0]
            sigma2[1:] -= np.matmul((ph[1:] ** 2)[:, None, :], pi)[:, 0, 0]
            self._sigma2 = sigma2
        return self._sigma2

    def moments(self) -> PathMoments:
        if self._moments is None:
            sigma2 = self.sigma2_ladder()
            self._moments = PathMoments(
                sigma2=sigma2,
                v_n=self.var_sn(),
                delta_n=float(math.sqrt(np.max(sigma2))),
                conditional_variance_constant=False,
                exact=True,
            )
        return self._moments

    def _gap_tables(self) -> np.ndarray:
        """Row ell-2 gives sum_{k>=ell}(E(xi_k^2 | Y_{ell-1}) - sigma_k^2) per state."""
        if self._gap is None:
            n = self.spec.n
            w = self._stacks()[2]
            sigma2 = self.sigma2_ladder()
            # G_ell(y) = sum_{k >= ell} E(xi_k^2 | Y_{ell-1}=y), backward:
            # G_ell = w_ell + P G_{ell+1}
            tables = np.empty((n - 1, self.n_states))
            g_next = np.zeros(self.n_states)
            tail_sigma = 0.0
            for ell in range(n, 1, -1):
                g_next = w[ell - 1] + self.P @ g_next
                tail_sigma += sigma2[ell - 1]
                tables[ell - 2] = g_next - tail_sigma
            self._gap = tables
        return self._gap

    def _increment_laws(self) -> tuple[np.ndarray, np.ndarray]:
        """The exact laws of xi_1..xi_n as (n, S^2) value and probability tables.

        Row k-1 (k >= 2) holds h_{n-k}(y) - (P h_{n-k})(y') with weight
        pi_{y'} P_{y'y} at column y' S + y; row 0 holds xi_1 = h_{n-1}(Y_1)'s
        S values with weights pi, padded with zero-probability zeros.  _law_rows
        holds k - 1 for the first k >= 2 of each bitwise-distinct (values,
        probabilities, sigma_k^2) row with sigma_k^2 > 0: only dozens, as h_{n-k}
        reaches its float fixed point a few dozen steps from the end.
        """
        if self._laws is None:
            h, ph, _ = self._stacks()
            n, S = self.spec.n, self.n_states
            values = (h[:, None, :] - ph[:, :, None]).reshape(n, S * S)
            probs = np.tile((self.pi[:, None] * self.P).ravel(), (n, 1))
            values[0], probs[0] = 0.0, 0.0
            values[0, :S], probs[0, :S] = h[0], self.pi
            self._laws = (values, probs)
            sigma2 = self.sigma2_ladder()
            key = np.column_stack((values, probs, sigma2))[1:].view(np.uint64)
            order = np.lexsort(key.T)  # stable: equal rows stay in k order
            first = np.diff(key[order], axis=0, prepend=~key[order[:1]]).any(axis=1)
            rows = 1 + np.sort(order[first])
            self._law_rows = rows[sigma2[rows] > 0.0]
        return self._laws

    def _expectations(self, terms: np.ndarray) -> np.ndarray:
        """Per-k sums of a (n, S^2) table of probability-weighted terms.

        Row 0 sums only xi_1's own S entries: with the padding included the
        pairwise summation would pair them differently once S >= 4.
        """
        out = np.empty(terms.shape[0])
        out[0] = np.sum(terms[0, : self.n_states])
        out[1:] = np.sum(terms[1:], axis=1)
        return out

    def increment_abs_moments(self, p: float) -> np.ndarray:
        """E|xi_k|^p for k = 1..n, exact."""
        values, probs = self._increment_laws()
        return self._expectations(probs * np.abs(values) ** p)

    def sup_moment_ratio(self, p: float) -> float:
        sigma2 = self.sigma2_ladder()
        live = sigma2 > 0.0
        return float(np.max(self.increment_abs_moments(p)[live] / sigma2[live], initial=0.0))

    def sum_abs_moments(self, p: float) -> float:
        # added left to right, one k at a time; np.sum would pair them differently
        return float(np.cumsum(self.increment_abs_moments(p))[-1])

    def psi_closed_form(self, t: np.ndarray) -> np.ndarray:
        """psi from xi_1's law (S entries) and the distinct law rows, each summed
        as the per-k table sums it; a block of t holds <= DRAW_BUDGET terms."""
        values, probs = self._increment_laws()
        sigma2, S = self.sigma2_ladder(), self.n_states
        scale = np.asarray(t, dtype=float)[:, None, None] * math.sqrt(float(np.max(sigma2)))
        out = np.zeros(scale.shape[0])
        for rows, width in ((np.flatnonzero(sigma2[:1] > 0.0), S), (self._law_rows, S * S)):
            v, q = values[rows, :width], probs[rows, :width]
            step = max(1, DRAW_BUDGET // max(v.size, 1))
            for lo in range(0, out.size if rows.size else 0, step):
                terms = q * np.minimum(scale[lo : lo + step] * v**2, np.abs(v) ** 3)
                ratios = np.sum(terms, axis=2) / sigma2[rows]
                out[lo : lo + step] = np.maximum(out[lo : lo + step], np.max(ratios, axis=1))
        return out

    def u_exact(self, p: float) -> np.ndarray:
        """U_ell(p) for ell = 2..n at index ell-2, exact.

        E[(|xi_{ell-1}| v sigma_{ell-1})^{p-2} |sum_{k>=ell}(E_{ell-1}(xi_k^2)-sigma_k^2)|]
        over the law of xi_{ell-1}: law row ell-2 pairs each value with the
        state Y_{ell-1} = y of its column, whose gap is row ell-2 of the gap
        table.  Each row is added left to right (row 0's zero-probability
        padding adds exact zeros).
        """
        values, probs = self._increment_laws()
        n = self.spec.n
        sigma = np.sqrt(self.sigma2_ladder()[: n - 1])
        weights = np.maximum(np.abs(values[: n - 1]), sigma[:, None]) ** (p - 2.0)
        gaps = np.tile(np.abs(self._gap_tables()), self.n_states)
        return np.cumsum(probs[: n - 1] * weights * gaps, axis=1)[:, -1]

    def u_samples(self, states: np.ndarray, ell: int, p: float) -> np.ndarray:
        """Per-path integrand of the fluctuation statistic at split index ell.

        states is a (replicates, n) matrix of state indices; column t-1 holds
        Y_t.  Used by the bound evaluators' Monte Carlo path, sharing one
        path set across all ell.
        """
        n = self.spec.n
        if not (2 <= ell <= n):
            raise DomainError(f"ell must be in [2, {n}]")
        h, ph, _ = self._stacks()
        sigma = math.sqrt(self.sigma2_ladder()[ell - 2])
        gap = self._gap_tables()[ell - 2][states[:, ell - 2]]
        xi = h[ell - 2][states[:, ell - 2]]
        if ell > 2:
            xi = xi - ph[ell - 2][states[:, ell - 3]]
        return np.maximum(np.abs(xi), sigma) ** (p - 2.0) * np.abs(gap)

    def bracket_samples(self, states: np.ndarray) -> np.ndarray:
        """Predictable quadratic variation <M>_n per path (exact given the path).

        <M>_n = sigma_1^2 + sum_{k=2}^n E(xi_k^2 | Y_{k-1}); each conditional
        expectation is a state lookup, so the only randomness is the path.
        """
        w = self._stacks()[2]
        out = np.full(states.shape[0], self.sigma2_ladder()[0])
        for k in range(2, self.spec.n + 1):
            out += w[k - 1][states[:, k - 2]]
        return out

    # -- sampling ---------------------------------------------------------------

    def _draw_row(self, g: np.random.Generator, row: np.ndarray) -> None:
        """n uniforms in time order."""
        g.random(out=row)

    def _states(self, draws: np.ndarray) -> np.ndarray:
        """(chunk, n) state paths Y_1..Y_n, one table lookup per time step.

        The codes of the whole (chunk, n) draw matrix are counted in place,
        one comparison pass per threshold; only these compact codes are laid
        out time-major.  Row t of that buffer holds code(u_t)*S until step t
        replaces it with the table entry at code(u_t)*S + Y_{t-1}, which is
        Y_t.  The states come back C-contiguous in the table's dtype.
        """
        chunk, n = draws.shape
        codes = np.zeros(draws.shape, dtype=self._step_table.dtype)
        hit = np.empty(draws.shape, dtype=bool)
        for cut in self._cuts:
            np.greater_equal(draws, cut, out=hit)
            codes += hit
        path = np.empty((n, chunk), dtype=self._step_table.dtype)
        np.multiply(codes.T, self.n_states, out=path)
        # Y_1 = #{j < S-1 : u_1 >= (cumsum pi)_j}, from the stationary law
        path[0] = np.searchsorted(self._cum_pi, draws[:, 0], side="right")
        step = np.empty(chunk, dtype=self._step_table.dtype)
        for t in range(1, n):
            np.add(path[t], path[t - 1], out=step)
            self._step_table.take(step, out=path[t])
        return np.ascontiguousarray(path.T)

    def _increments(self, draws: np.ndarray) -> np.ndarray:
        """Projection increments xi_1..xi_n along each state path.

        xi_k = h_{n-k}(Y_k) - (P h_{n-k})(Y_{k-1}); the sum telescopes to
        S_n = sum f(Y_i) (exactly in algebra, to rounding in floats).
        """
        states = self._states(draws)
        n = self.spec.n
        h, ph, _ = self._stacks()
        xi = h[np.arange(n), states]
        xi[:, 1:] -= ph[np.arange(1, n), states[:, :-1]]
        return xi

    def _sums(self, draws: np.ndarray) -> np.ndarray:
        return self.f[self._states(draws)].sum(axis=1)

    def prefix_states_chunk(
        self, master_seed: int, replicates: int, block: int = 0
    ) -> np.ndarray:
        """(replicates, n) state paths for the fluctuation-statistic MC."""
        out = np.empty((replicates, self.spec.n), dtype=self._step_table.dtype)
        return self._map_chunks(self._states, out, master_seed, 0, block)
