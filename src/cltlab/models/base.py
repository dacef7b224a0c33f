"""Model plumbing shared by every path family.

A model is a pure function of (spec, seed lineage): the same spec and the
same (master_seed, stream_id) always reproduce the same path bit for bit.
Replicate r of grid block b draws from stream_id = b * 2^40 + r, so it sees
the same draws whichever replicate range it is drawn in.

Each family implements one draw kernel and the maps over it:

* ``_draw_row(g, row)`` spends one replicate's generator in the family's
                         documented draw order, writing its draws into
                         ``row`` (width ``_draw_width()``) in place; it may
                         run on any thread (a ladder family's is its
                         ``iid.InnovationLaw``'s fill),
* ``_increments(D)``    (chunk, n) martingale increments from the stacked
                         (chunk, width) draw matrix D,
* ``_sums(D)``          (chunk,) raw path sums from D, with the family's own
                         reduction order (and exact bookkeeping where float
                         addition of the increments would lose it),
* ``moments()``         the exact per-increment variance ladder, its sum
                         V_n = Var(S_n) and its tail sums.

One rule sizes every family's chunk of replicates (``chunk_size``): at
most DRAW_BUDGET doubles of draws.  A family whose maps loop over the time
steps keeps that loop short in its maps, not with larger chunks.

``Model`` owns the only generator loop, ``_draws``: a chunk checks its seed
and replicate range once and re-keys one Philox per replicate
(``SeedLineage.generators``).  Rows at least ``parallel_draw_width`` draws
wide are drawn in contiguous blocks of rows, one per CPU the process may
use: the calling thread draws the first block and a module-level thread pool
the others, each block from its own ``SeedLineage.generators`` call, so each
re-keys its own Philox.  Replicate r's stream is keyed by r alone, so its
row holds the same bits whichever block or thread draws it, and the CPU
count never reaches an artifact.  That holds because ``_draw_row`` writes
only ``row``, spends only ``g`` and keeps no scratch on ``self``; numpy's
fills release the GIL, which is where the blocks run at once.
``statistic_range`` applies the maps chunk by chunk on the calling thread,
and ``statistic_values`` turns the sums into the normalized statistic
samples the distance pipeline consumes.  Given an ``increments`` sink, both
also hand the sink each chunk's increment rows, mapped from the same draw
matrix before the next chunk is drawn.  That single pass is the only route
to the increments: ``simulate`` writes the statistics and the increments of
a replicate from one draw, and ``verify-ce`` folds its moment table into
column sums one chunk at a time.

Each oracle the bound evaluators use (``psi_closed_form``, the moment sums
``sup_moment_ratio`` and ``sum_abs_moments``, ``u_exact`` for every split
index at once, ``bracket_samples`` over ``prefix_states_chunk``,
``projection_norms``, and the mixing display's ``k_n`` and ``c_n``) is
defined once on ``Model`` and raises CapabilityError there; a family
declares a capability by overriding it (the ladder families by subclassing
``iid.InnovationLadder``, which reads ψ and the moment sums off their law).
ψ (array of t in, array out), the two moment sums and ``c_n`` (plain
floats) and ``u_exact`` (an array over ell) are exact; the chain reads
``c_n``'s window variances off its ``moments()`` ladder.
``bracket_samples`` returns per-path samples that heyde_brown averages into
a value and its standard error.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Optional

import numpy as np

from ..errors import CapabilityError, ConfigurationError, DomainError
from ..numerics import SeedLineage

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# Replicates are drawn in chunks so the family maps can vectorize across a
# chunk.  Every family's chunk (Model.chunk_size) is the largest power of two
# c <= DEFAULT_CHUNK, and at least 64, whose (c, width) draw matrix fits
# DRAW_BUDGET.  linear_statistic sums a chunk with one BLAS gemv, whose bits
# depend on which rows share a call; as c divides DEFAULT_CHUNK and is a
# multiple of 4, the chunks split DEFAULT_CHUNK-row chunks at multiples of 4
# rows, and the gemv groups rows in fours, so each row keeps its bits.
DEFAULT_CHUNK = 4096

# The doubles one chunk's draw matrix may hold (2 MB), for every family, so
# the draws and the maps' temporaries stay small beside a caller's output:
# 4096 rows of AR(1) draws at n = 16384 took 537 MB.  At 16 MB the freed
# buffers of a partial last chunk stayed resident and raised verify-ce's peak
# memory by about 11 %, and the chain's distance run peaked 23 MB above
# gaussian_iid's.
DRAW_BUDGET = 1 << 18

# Rows at least this many draws wide are drawn in contiguous blocks, one per
# CPU.  Narrower rows fill too fast to pay for handing a block to another
# thread: at n = 512 every family drew its rows 1.1-3.0x slower split, and at
# n = 1024 the chain and sequential_maps still did.
PARALLEL_DRAW_WIDTH = 2048

# The CPUs this process may run on.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_draw_pool_instance: Optional[ThreadPoolExecutor] = None
_draw_pool_lock = threading.Lock()


def _draw_pool() -> ThreadPoolExecutor:
    """The threads that draw every block of a wide chunk but the first.

    concurrent.futures is imported here, on the first wide draw: it takes
    about 16 ms, which a command that draws no wide row never pays.
    """
    global _draw_pool_instance
    with _draw_pool_lock:
        if _draw_pool_instance is None:
            from concurrent.futures import ThreadPoolExecutor

            _draw_pool_instance = ThreadPoolExecutor(CPUS - 1, thread_name_prefix="cltlab-draw")
        return _draw_pool_instance


# The largest (replicates, n) float64 table one command may stream: 1 GiB.
# simulate and verify-ce take their tables one chunk at a time, so the cap
# bounds simulate's increment file and verify-ce's spill file, not memory.
# The default simulate grid would write 26 GB at n = 16384; check_table_size
# refuses such a request before any draw.
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


def config_real(key: str, x: Any) -> float:
    """A config value as a float: a finite JSON number, not a bool or a string."""
    if isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max:
        return float(x)
    raise ConfigurationError(f"{key} must be a finite real, got {x!r}")


def config_int(key: str, x: Any) -> int:
    """A config value as an int: a JSON integer or a whole float, not a bool or a string."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool) or (
        isinstance(x, float) and x.is_integer()
    ):
        return int(x)
    raise ConfigurationError(f"{key} must be an integer, got {x!r}")


def config_reals(key: str, xs: Any) -> np.ndarray:
    """A list, or a list of lists, of config values as a float array, each read by config_real."""
    arr = np.asarray(xs, dtype=object)
    return np.array([config_real(key, x) for x in arr.ravel()], dtype=float).reshape(arr.shape)


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
            p=config_real("p", d.get("p", 3.0)),
            params=dict(d.get("params", {})),
        )


@dataclass(frozen=True)
class PathMoments:
    """Per-increment variance ladder of the martingale the model designates.

    sigma2 sums to v_n (the variance of the designated path sum) within
    rounding.  delta_n, the largest increment scale max_k sigma_k, is not
    passed: it is read off the ladder as sqrt(max_k sigma_k^2).
    conditional_variance_constant says that E(xi_k^2 | past) = sigma_k^2 for
    every k, so the fluctuation statistics vanish.
    """

    sigma2: np.ndarray
    v_n: float
    conditional_variance_constant: bool
    delta_n: float = field(init=False)

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
        object.__setattr__(self, "delta_n", math.sqrt(float(np.max(s))))

    def tail_sums(self) -> np.ndarray:
        """sum_{k >= ell} sigma_k^2 for ell = 1..n at index ell-1, in a new array.

        Added from the last increment back: one pass and no cancellation.
        """
        return np.cumsum(self.sigma2[::-1])[::-1]


class Model:
    """Base class: deterministic path generation and batch statistics."""

    # the row width from which a chunk's rows are drawn on every CPU
    parallel_draw_width = PARALLEL_DRAW_WIDTH

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
        """Write one replicate's draws into row, in the family's documented order.

        It writes only row, spends only g and keeps no scratch on self, so
        rows of one chunk may be drawn on several threads at once.
        """
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
        raise CapabilityError(f"{self.model_id} has no closed-form psi profile")

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
        """Per-replicate path states that bracket_samples reads."""
        raise CapabilityError(f"{self.model_id} has no conditional-variance oracle for Monte Carlo")

    def bracket_samples(self, states: np.ndarray) -> np.ndarray:
        """Predictable quadratic variation <M>_n per path."""
        raise CapabilityError(f"{self.model_id} cannot evaluate the quadratic-variation deviation")

    def projection_norms(self, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(lambda_seq[1..n], eta_seq[0..n]) for the dependent-sum bound."""
        raise CapabilityError(f"{self.model_id} has no projection-norm closed forms")

    def k_n(self) -> float:
        """Sup norm of the observable (the mixing display's K_n)."""
        raise CapabilityError(f"{self.model_id} has no mixing-coefficient oracle")

    def c_n(self) -> float:
        """The window variance ratio C_n of the mixing display."""
        raise CapabilityError(f"{self.model_id} has no mixing-coefficient oracle")

    # -- batch simulation ---------------------------------------------------

    def statistic_normalizer(self) -> float:
        """The path sum is divided by this to target the standard Gaussian."""
        return math.sqrt(self.moments().v_n)

    def chunk_size(self) -> int:
        fit = max(1, DRAW_BUDGET // self._draw_width())
        return max(64, min(DEFAULT_CHUNK, 1 << (fit.bit_length() - 1)))

    def _draws(self, first: SeedLineage, count: int) -> np.ndarray:
        """The stacked (count, width) draw matrix of the streams from first on.

        Wide rows are split into min(CPUS, count) contiguous blocks, narrow
        rows make one block; the calling thread draws the first block and the
        draw pool the others.
        """
        draws = np.empty((count, self._draw_width()))
        blocks = min(CPUS, count) if draws.shape[1] >= self.parallel_draw_width else 1
        cuts = [count * k // blocks for k in range(blocks + 1)]
        futures = [
            _draw_pool().submit(
                self._draw_block,
                SeedLineage(first.master_seed, first.stream_id + lo).generators(hi - lo),
                draws[lo:hi],
            )
            for lo, hi in zip(cuts[1:-1], cuts[2:])
        ]
        try:
            self._draw_block(first.generators(cuts[1]), draws[: cuts[1]])
        finally:
            for f in futures:
                f.exception()  # waits for the block, even when the first failed
        for f in futures:
            f.result()
        return draws

    def _draw_block(self, generators: Iterator[np.random.Generator], rows: np.ndarray) -> None:
        """Draw each row from the next generator of one generators() call.

        The call is made on the calling thread and runs lazily on whichever
        thread draws the block, so that thread calls nothing but _draw_row
        and the generators.
        """
        for row, g in zip(rows, generators):
            self._draw_row(g, row)

    def _map_chunks(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        out: np.ndarray,
        master_seed: int,
        start: int,
        block: int,
        increments: Optional[Callable[[np.ndarray], None]] = None,
    ) -> np.ndarray:
        """Fill out[i] from replicate start + i, one chunk of draws at a time.

        increments, when given, is handed each chunk's (chunk, n) increment
        rows, mapped from the same draws, in replicate order.  Each is a
        fresh float64 array that no later step reads, so the sink may
        overwrite it.
        """
        chunk = self.chunk_size()
        for done in range(0, out.shape[0], chunk):
            c = min(chunk, out.shape[0] - done)
            first = SeedLineage(master_seed, SeedLineage.stream_for(block, start + done))
            draws = self._draws(first, c)
            out[done : done + c] = fn(draws)
            if increments is not None:
                increments(self._increments(draws))
            del draws  # freed before the next chunk is drawn
        return out

    def statistic_range(
        self,
        master_seed: int,
        start: int,
        count: int,
        block: int = 0,
        increments: Optional[Callable[[np.ndarray], None]] = None,
    ) -> np.ndarray:
        """Normalized statistic for replicates [start, start+count).

        increments, when given, also receives the increment rows of those
        replicates, one chunk at a time (see _map_chunks).
        """
        if count < 0 or start < 0:
            raise DomainError("start and count must be nonnegative")
        norm = self.statistic_normalizer()
        out = self._map_chunks(self._sums, np.empty(count), master_seed, start, block, increments)
        out /= norm
        return out

    def statistic_values(
        self,
        master_seed: int,
        replicates: int,
        block: int = 0,
        increments: Optional[Callable[[np.ndarray], None]] = None,
    ) -> np.ndarray:
        """The normalized statistic of replicates [0, replicates).

        increments, when given, also receives their increment rows, one chunk
        at a time, so that one draw of each replicate serves both.
        """
        if replicates < 1:
            raise DomainError("replicates must be positive")
        return self.statistic_range(master_seed, 0, replicates, block, increments)
