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
stacks.  Every oracle is exact, and ``u_exact`` gives U_2..U_n at once.

The second-order quantities read the same ladder: V_n = Var(S_n) is the sum
of the sigma_k^2, and each window variance Var(S_n - S_{l-1}) behind the
mixing constant C_n is the tail sum_{k>=l} sigma_k^2 plus the pi-variance of
E(S_n - S_{l-1} | Y_{l-1}) = (P h_{n-l})(Y_{l-1}).

The state paths follow the inverse-cdf rule of the stream contract,
Y_t = #{j < S-1 : u_t >= cumsum(P[Y_{t-1}])_j}, and Y_1 the same way from
the stationary cdf.  They are read from one interval table built with the
model: every threshold lies in the sorted distinct set T of the rows'
cumulative sums, so the code #{T <= u_t} of a draw fixes the next state
from every previous state at once.  A chunk's codes come from one pass over
its draw matrix.  Each lookup then walks b time steps: b codes combine into
one index of a b-step table of at most 2^12 entries, b taken from S and the
number of codes alone, so the chain's Python loop runs about n/b + b times
per chunk, not n.  The steps between those lookups are filled by the
one-step table, every block at once, in the smallest unsigned dtype that
holds code*S + s.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from .base import DRAW_BUDGET, Model, ModelSpec, PathMoments

# The b-step state table holds at most this many entries (K^b S <= 2^12),
# so it stays a few kB and in cache.
BLOCK_TABLE_ENTRIES = 1 << 12


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
        # np.unique's sort and drop of adjacent duplicates, without the
        # numpy.ma import np.unique makes
        cuts = np.sort(cum_p, axis=None)
        self._cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
        below = cum_p[None, :, :] <= self._cuts[:, None, None]
        steps = np.vstack((np.zeros(self.n_states), below.sum(axis=2)))
        self._step_table = steps.ravel().astype(np.min_scalar_type(steps.size - 1))
        self._block_table: Optional[tuple[int, np.ndarray]] = None
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

    def k_n(self) -> float:
        """Sup norm of the centered observable."""
        return float(np.max(np.abs(self.f)))

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
            sigma2 = self._pi_sums(h**2)
            sigma2[1:] -= self._pi_sums(ph[1:] ** 2)
            self._sigma2 = sigma2
        return self._sigma2

    def _pi_sums(self, rows: np.ndarray) -> np.ndarray:
        """pi-weighted row sums, each rounded as the vector product pi @ v."""
        return np.matmul(rows[:, None, :], self.pi[:, None])[:, 0, 0]

    def moments(self) -> PathMoments:
        if self._moments is None:
            sigma2 = self.sigma2_ladder()
            self._moments = PathMoments(
                sigma2=sigma2, v_n=float(np.sum(sigma2)), conditional_variance_constant=False
            )
        return self._moments

    def c_n(self) -> float:
        """max_ell (sum_{i=ell}^n E X_i^2) / Var(S_n - S_{ell-1}), exact."""
        second = float(self.pi @ self.f**2)
        return float(np.max(np.arange(self.spec.n, 0, -1) * second / self._window_variances()))

    def _window_variances(self) -> np.ndarray:
        """Var(S_n - S_{ell-1}) for ell = 1..n at index ell-1.

        The ladder's tail sum_{k>=ell} sigma_k^2 plus, for ell >= 2, the
        pi-variance of E(S_n - S_{ell-1} | Y_{ell-1}), row ell-1 of P h, whose
        pi-mean is 0.
        """
        var_w = self.moments().tail_sums()
        var_w[1:] += self._pi_sums(self._stacks()[1][1:] ** 2)
        return var_w

    def _gap_tables(self) -> np.ndarray:
        """Row ell-2 gives sum_{k>=ell}(E(xi_k^2 | Y_{ell-1}) - sigma_k^2) per state."""
        if self._gap is None:
            n = self.spec.n
            w = self._stacks()[2]
            tails = self.moments().tail_sums()
            # G_ell(y) = sum_{k >= ell} E(xi_k^2 | Y_{ell-1}=y), backward:
            # G_ell = w_ell + P G_{ell+1}
            tables = np.empty((n - 1, self.n_states))
            g_next = np.zeros(self.n_states)
            for ell in range(n, 1, -1):
                g_next = w[ell - 1] + self.P @ g_next
                tables[ell - 2] = g_next - tails[ell - 1]
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
        scale = np.asarray(t, dtype=float)[:, None, None] * self.moments().delta_n
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

    def _block_steps(self) -> tuple[int, np.ndarray]:
        """(b, BT): the b-step table, built on the first call.

        b is the largest integer with K^b S <= BLOCK_TABLE_ENTRIES, and at
        least 1, where K = len(cuts) + 1 counts the codes.  BT[C*S + y] is
        the state after b steps from y whose codes c_0..c_{b-1} give
        C = sum_i c_i K^i; with b = 1 it is the one-step table.
        """
        if self._block_table is None:
            S, K = self.n_states, self._cuts.size + 1
            b = 1
            while K ** (b + 1) * S <= BLOCK_TABLE_ENTRIES:
                b += 1
            combined = np.arange(K**b)[:, None]
            states = np.broadcast_to(np.arange(S), (K**b, S))
            for i in range(b):
                states = self._step_table[combined // K**i % K * S + states]
            self._block_table = (b, states.ravel())
        return self._block_table

    def _states(self, draws: np.ndarray) -> np.ndarray:
        """(chunk, n) state paths Y_1..Y_n, b time steps per table lookup.

        The codes of the whole (chunk, n) draw matrix are counted in place,
        one comparison pass per threshold; only these compact codes are laid
        out time-major, row t holding code*S for the draw of column t.  Row
        0 then takes Y_1.  The codes of rows (j-1)b+1..jb combine to C_j*S,
        so the heads, rows 0, b, 2b, ..., follow one another by one add and
        one b-step lookup each, at C_j*S plus the previous head.  Every
        other row t then takes its one-step entry at code*S plus row t-1,
        one row of every block at a time.  The states come back C-contiguous
        in the one-step table's dtype.
        """
        chunk, n = draws.shape
        S, K, dtype = self.n_states, self._cuts.size + 1, self._step_table.dtype
        b, table = self._block_steps()
        codes = np.zeros(draws.shape, dtype=dtype)
        hit = np.empty(draws.shape, dtype=bool)
        for cut in self._cuts:
            np.greater_equal(draws, cut, out=hit)
            codes += hit
        path = np.empty((n, chunk), dtype=dtype)
        np.multiply(codes.T, S, out=path)
        # Y_1 = #{j < S-1 : u_1 >= (cumsum pi)_j}, from the stationary law
        path[0] = np.searchsorted(self._cum_pi, draws[:, 0], side="right")
        blocks = (n - 1) // b
        index = np.min_scalar_type(table.size - 1)
        combined = np.zeros((blocks, chunk), dtype=index)
        for i in range(b):
            combined += np.multiply(path[1 + i : 1 + blocks * b : b], K**i, dtype=index)
        step = np.empty(chunk, dtype=index)
        for j in range(1, blocks + 1):
            np.add(combined[j - 1], path[(j - 1) * b], out=step)
            table.take(step, out=path[j * b])
        # the rows after each head, including the fewer than b after the last
        for i in range(1, b):
            rows = path[i::b]
            self._step_table.take(rows + path[i - 1 :: b][: rows.shape[0]], out=rows)
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
        # f gathered DRAW_BUDGET / 4 values at a time, not as one (chunk, n)
        # copy; each row keeps numpy's pairwise sum, so the bits do not change
        states = self._states(draws)
        out = np.empty(states.shape[0])
        step = max(1, DRAW_BUDGET // (4 * states.shape[1]))
        for lo in range(0, out.size, step):
            np.sum(self.f[states[lo : lo + step]], axis=1, out=out[lo : lo + step])
        return out

    def prefix_states_chunk(
        self, master_seed: int, replicates: int, block: int = 0
    ) -> np.ndarray:
        """(replicates, n) state paths Y_1..Y_n; column t-1 holds Y_t."""
        out = np.empty((replicates, self.spec.n), dtype=self._step_table.dtype)
        return self._map_chunks(self._states, out, master_seed, 0, block)
