"""Model plumbing shared by every path family.

A model is a pure function of (spec, seed lineage): the same spec and the
same (master_seed, stream_id) always reproduce the same path bit for bit.
Replicate r of grid block b draws from stream_id = b * 2^40 + r, so it sees
the same draws whichever replicate range it is drawn in.

Each family implements one draw kernel and the maps over it:

* ``_draw_row(g, row)`` spends one replicate's generator in the family's
                         documented draw order, writing its draws into
                         ``row`` (width ``_draw_width()``) in place,
* ``_increments(D)``    (chunk, n) martingale increments from the stacked
                         (chunk, width) draw matrix D,
* ``_sums(D)``          (chunk,) raw path sums from D, with the family's own
                         reduction order (and exact bookkeeping where float
                         addition of the increments would lose it),
* ``moments()``         the exact per-increment variance ladder.

``Model`` owns the only generator loop, ``_draws``: a chunk checks its seed
and replicate range once and re-keys one Philox per replicate
(``SeedLineage.generators``).  ``statistic_range`` and ``increment_matrix``
apply the maps chunk by chunk, and ``sample_path`` is a chunk of one.
``statistic_values`` turns the sums into the normalized statistic samples
the distance pipeline consumes.

Each oracle the bound evaluators use (``psi_closed_form``, the moment sums
``sup_moment_ratio`` and ``sum_abs_moments``, ``u_exact`` for every split
index at once, ``u_samples`` over ``prefix_states_chunk``,
``bracket_samples``, ``projection_norms``, ``k_n``, ``c_n``) is defined once
on ``Model`` and raises CapabilityError there; a family declares a
capability by overriding it.  ψ (array of t in, array out), the two moment
sums (plain floats) and ``u_exact`` (an array over ell) are exact;
``u_samples`` and ``bracket_samples`` return per-path samples that the bound
evaluators average into a value and its standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import numpy as np

from ..errors import CapabilityError, ConfigurationError, DomainError
from ..numerics import SeedLineage

# Replicates are drawn in chunks so the family maps can vectorize across a
# chunk.  Where a family's sums are one BLAS product per chunk
# (linear_statistic), the chunk boundaries decide which rows share a kernel
# and so reach the last bits of the output.
DEFAULT_CHUNK = 4096

# Families whose maps work row by row cap one chunk's (chunk, width) draw
# matrix at this many doubles (2 MB) instead, so the draws and the maps'
# temporaries stay small beside a caller's output.  At 16 MB the freed
# buffers of a partial last chunk stayed resident and raised verify-ce's
# peak memory by about 11 %.
DRAW_BUDGET = 1 << 18

# Families whose maps loop over the n time steps in Python (the chain and
# sequential_maps) pay that loop once per chunk; eight draw budgets (16 MB)
# keep it small next to the work.
STEP_LOOP_DRAW_BUDGET = 8 * DRAW_BUDGET

# The largest (replicates, n) float64 table one call may allocate: 1 GiB.
# The default simulate grid would need 26 GB at n = 16384, more than most
# machines hold; check_table_size refuses such a request before any draw.
MAX_TABLE_BYTES = 1 << 30

KNOWN_FAMILIES = (
    "gaussian_iid",
    "rademacher_iid",
    "ce_lowerbound",
    "linear_statistic",
    "rho_mixing_chain",
    "sequential_maps",
)


def check_table_size(replicates: int, n: int) -> None:
    """ConfigurationError when a (replicates, n) float64 table passes MAX_TABLE_BYTES."""
    size = 8 * replicates * n
    if size > MAX_TABLE_BYTES:
        raise ConfigurationError(
            f"a {replicates} x {n} table of float64 takes {size / 2**30:.1f} GiB, over the "
            f"{MAX_TABLE_BYTES / 2**30:g} GiB cap; lower the replicates or the largest n"
        )


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one path model.

    family   one of KNOWN_FAMILIES
    n        number of increments (path length)
    p        moment order the experiment targets, in (2, 3] unless the
             family documents a wider range
    params   family-specific parameters (JSON-serializable)
    """

    family: str
    n: int
    p: float = 3.0
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in KNOWN_FAMILIES:
            raise ConfigurationError(
                f"unknown model family {self.family!r}; known: {', '.join(KNOWN_FAMILIES)}"
            )
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool) or self.n < 1:
            raise ConfigurationError(f"n must be a positive integer, got {self.n!r}")
        if not (isinstance(self.p, (int, float)) and math.isfinite(self.p)) or self.p <= 2.0:
            raise ConfigurationError(f"p must be a finite real > 2, got {self.p!r}")

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "n": int(self.n),
            "p": float(self.p),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ModelSpec":
        if "family" not in d or "n" not in d:
            raise ConfigurationError("model spec needs at least 'family' and 'n'")
        return cls(
            family=d["family"],
            n=d["n"],
            p=float(d.get("p", 3.0)),
            params=dict(d.get("params", {})),
        )


@dataclass(frozen=True)
class PathMoments:
    """Per-increment variance ladder of the martingale the model designates.

    sigma2 sums to v_n (the variance of the designated path sum) within
    rounding; delta_n is the largest increment scale max_k sigma_k.  When a
    family cannot produce its ladder in closed form the values are flagged
    exact=False and carry the estimation note.
    """

    sigma2: np.ndarray
    v_n: float
    delta_n: float
    conditional_variance_constant: bool
    exact: bool = True
    note: str = ""

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma2, dtype=float)
        if s.ndim != 1 or s.size == 0 or np.any(s < 0) or not np.all(np.isfinite(s)):
            raise DomainError("sigma2 must be a nonempty 1-D array of finite nonnegatives")
        object.__setattr__(self, "sigma2", s)
        if not math.isfinite(self.v_n) or self.v_n <= 0:
            raise DomainError(f"v_n must be a positive real, got {self.v_n!r}")
        tol = 1e-12 * max(1.0, abs(self.v_n))
        if abs(float(np.sum(s)) - self.v_n) > 1e-8 * max(1.0, abs(self.v_n)) + tol:
            raise DomainError(
                f"variance ladder does not sum to v_n: {float(np.sum(s))!r} vs {self.v_n!r}"
            )
        expected_delta = math.sqrt(float(np.max(s)))
        if abs(self.delta_n - expected_delta) > 1e-9 * max(1.0, expected_delta):
            raise DomainError("delta_n must equal max_k sigma_k")


@dataclass(frozen=True)
class PathSample:
    """One simulated path: its increments and its raw path sum.

    path_sum is the family's own sum of the draws (``_sums``), not a float
    sum of the increments: the lower-bound family's atom at zero is an exact
    0.0 only in the former.
    """

    increments: np.ndarray
    path_sum: float


class Model:
    """Base class: deterministic path generation and batch statistics."""

    # doubles one chunk's draw matrix may hold (see DRAW_BUDGET)
    draw_budget = DRAW_BUDGET

    def __init__(self, spec: ModelSpec) -> None:
        self.spec = spec

    # -- identity ---------------------------------------------------------

    @property
    def model_id(self) -> str:
        return f"{self.spec.family}(n={self.spec.n})"

    # -- family surface ----------------------------------------------------

    def moments(self) -> PathMoments:
        raise NotImplementedError

    def _draw_width(self) -> int:
        """Number of draws one replicate's row holds."""
        return self.spec.n

    def _draw_row(self, g: np.random.Generator, row: np.ndarray) -> None:
        """Write one replicate's draws into row, in the family's documented order."""
        raise NotImplementedError

    def _increments(self, draws: np.ndarray) -> np.ndarray:
        """(chunk, n) martingale increments of a stacked draw matrix."""
        raise NotImplementedError

    def _sums(self, draws: np.ndarray) -> np.ndarray:
        """(chunk,) raw (unnormalized) path sums of a stacked draw matrix."""
        raise NotImplementedError

    # -- capabilities ------------------------------------------------------

    def psi_closed_form(self, t: np.ndarray) -> np.ndarray:
        """psi_n(t) = sup_k E min(t delta_n xi_k^2, |xi_k|^3) / sigma_k^2 per t >= 0, exact."""
        raise CapabilityError(f"{self.model_id} has no closed-form psi profile; use monte_carlo")

    def sup_moment_ratio(self, p: float) -> float:
        """sup_k E|xi_k|^p / sigma_k^2, exact."""
        raise CapabilityError(f"{self.model_id} cannot evaluate sup moment ratio")

    def sum_abs_moments(self, p: float) -> float:
        """sum_k E|xi_k|^p, exact."""
        raise CapabilityError(f"{self.model_id} cannot evaluate absolute moment sums")

    def u_exact(self, p: float) -> np.ndarray:
        """The fluctuation statistics U_ell(p) for ell = 2..n at index ell-2, exact."""
        raise CapabilityError(f"{self.model_id} has no exact fluctuation statistics")

    def prefix_states_chunk(self, master_seed: int, replicates: int, block: int = 0) -> np.ndarray:
        """Per-replicate path states that u_samples and bracket_samples read."""
        raise CapabilityError(f"{self.model_id} has no conditional-variance oracle for Monte Carlo")

    def u_samples(self, states: np.ndarray, ell: int, p: float) -> np.ndarray:
        """Per-path integrand of U_ell(p) over prefix_states_chunk's states."""
        raise CapabilityError(f"{self.model_id} has no conditional-variance oracle for Monte Carlo")

    def bracket_samples(self, states: np.ndarray) -> np.ndarray:
        """Predictable quadratic variation <M>_n per path."""
        raise CapabilityError(f"{self.model_id} cannot evaluate the quadratic-variation deviation")

    def projection_norms(self, p: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
        """(lambda_seq[1..n], eta_seq[0..n]) for the dependent-sum bound."""
        raise CapabilityError(f"{self.model_id} has no projection-norm closed forms")

    def k_n(self) -> float:
        """Sup norm of the observable (the mixing display's K_n)."""
        raise CapabilityError(f"{self.model_id} has no mixing-coefficient oracle")

    def c_n(self, n: Optional[int] = None) -> float:
        """The window variance ratio C_n of the mixing display."""
        raise CapabilityError(f"{self.model_id} has no mixing-coefficient oracle")

    # -- batch simulation ---------------------------------------------------

    def statistic_normalizer(self) -> float:
        """The path sum is divided by this to target the standard Gaussian."""
        return math.sqrt(self.moments().v_n)

    def chunk_size(self) -> int:
        return max(64, min(DEFAULT_CHUNK, self.draw_budget // self._draw_width()))

    def _draws(self, first: SeedLineage, count: int) -> np.ndarray:
        """The stacked (count, width) draw matrix of the streams from first on."""
        draws = np.empty((count, self._draw_width()))
        for row, g in zip(draws, first.generators(count)):
            self._draw_row(g, row)
        return draws

    def _map_chunks(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        out: np.ndarray,
        master_seed: int,
        start: int,
        block: int,
    ) -> np.ndarray:
        """Fill out[i] from replicate start + i, one chunk of draws at a time."""
        chunk = self.chunk_size()
        for done in range(0, out.shape[0], chunk):
            c = min(chunk, out.shape[0] - done)
            first = SeedLineage(master_seed, SeedLineage.stream_for(block, start + done))
            out[done : done + c] = fn(self._draws(first, c))
        return out

    def sample_path(self, lineage: SeedLineage) -> PathSample:
        """One path: the maps applied to a chunk of one."""
        draws = self._draws(lineage, 1)
        return PathSample(self._increments(draws)[0], float(self._sums(draws)[0]))

    def statistic_range(
        self, master_seed: int, start: int, count: int, block: int = 0
    ) -> np.ndarray:
        """Normalized statistic for replicates [start, start+count)."""
        if count < 0 or start < 0:
            raise DomainError("start and count must be nonnegative")
        norm = self.statistic_normalizer()
        out = self._map_chunks(self._sums, np.empty(count), master_seed, start, block)
        out /= norm
        return out

    def statistic_values(self, master_seed: int, replicates: int, block: int = 0) -> np.ndarray:
        """The normalized statistic of replicates [0, replicates)."""
        if replicates < 1:
            raise DomainError("replicates must be positive")
        return self.statistic_range(master_seed, 0, replicates, block)

    def increment_matrix(
        self, master_seed: int, replicates: int, block: int = 0
    ) -> np.ndarray:
        """(replicates, n) matrix of raw increments, one path per row."""
        check_table_size(replicates, self.spec.n)
        out = np.empty((replicates, self.spec.n))
        return self._map_chunks(self._increments, out, master_seed, 0, block)

