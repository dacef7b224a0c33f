"""Shared numerical kernel: Gaussian special functions, an adaptive
quadrature oracle, deterministic stream seeding, and the one writer of
every CSV artifact.

The Gaussian helpers are thin wrappers over the Cephes routines shipped with
scipy (`ndtr`, `ndtri`), which are accurate to a few ulp — comfortably inside
the 1e-15 absolute tolerance the rest of the package assumes.  They accept
scalars or arrays and always hand back the matching shape.  Every scipy call
goes through `scipy_special`, which imports scipy.special (about 0.3 s) on its
first call: a command that evaluates no Phi, Phi^-1 or t-quantile never does.

`quadrature` is intentionally *not* backed by scipy: it is the independent
cross-check used by the test-suite against every closed form in the package,
so it is a self-contained adaptive Simpson scheme with interval bisection and
a hard evaluation budget.  It is an oracle, not a hot path.

`SeedLineage` maps a (master_seed, stream_id) pair to a Philox key.  Philox is
counter based, so distinct keys give statistically independent streams without
jump bookkeeping.  The mixing is fixed and documented bit-exactly in the
README:

    k0 = splitmix64(master_seed)
    k1 = splitmix64(k0 XOR stream_id)
    generator = Generator(Philox(key=(k0, k1)))

splitmix64 is a bijection on 64-bit integers, so distinct (master_seed,
stream_id) pairs always produce distinct keys.  `SeedLineage.generators` draws
a run of streams from one re-keyed Philox, bit-identical to that construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import DomainError, QuadratureError

ArrayLike = Union[float, np.ndarray]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _as_checked_array(x: ArrayLike, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return arr


def _match_input(result: np.ndarray, x: ArrayLike) -> ArrayLike:
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(result)
    return result


def scipy_special():
    """The scipy.special module, imported on the first call."""
    import scipy.special
    return scipy.special


def normal_cdf(x: ArrayLike) -> ArrayLike:
    """Standard Gaussian cdf, vectorized, absolute error under 1e-15."""
    arr = _as_checked_array(x, "x")
    return _match_input(scipy_special().ndtr(arr), x)


def normal_pdf(x: ArrayLike) -> ArrayLike:
    """Standard Gaussian density."""
    arr = _as_checked_array(x, "x")
    return _match_input(np.exp(-0.5 * arr * arr) / _SQRT_2PI, x)


def normal_quantile(u: ArrayLike) -> ArrayLike:
    """Inverse of the standard Gaussian cdf on (0, 1).

    Tiny arguments stay finite: normal_quantile(1e-300) is about -37.0.
    Round-trip error |normal_cdf(normal_quantile(u)) - u| stays below 1e-12
    away from the extreme tails (where the cdf itself saturates).
    """
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"u must lie strictly inside (0, 1), got {u!r}")
    return _match_input(scipy_special().ndtri(arr), u)


def normal_abs_moment(p: float) -> float:
    """E|Z|^p for Z standard Gaussian, p > 0.

    Closed form 2^{p/2} Gamma((p+1)/2) / sqrt(pi), evaluated through gammaln
    so large p cannot overflow prematurely.  Relative error below 1e-12.
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p)) or p <= 0:
        raise DomainError(f"p must be a positive real, got {p!r}")
    return math.exp(
        0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi)
    )


def integral_of_phi(x: ArrayLike) -> ArrayLike:
    """Antiderivative of the Gaussian cdf: J(x) = integral of Phi over (-inf, x].

    Closed form x*Phi(x) + phi(x).  Satisfies J(x) - J(-x) = x exactly and
    decays like phi(x)/x^2 as x -> -infinity (underflows cleanly to 0.0 far
    out in the left tail, never to a negative number).
    """
    arr = _as_checked_array(x, "x")
    res = arr * scipy_special().ndtr(arr) + np.exp(-0.5 * arr * arr) / _SQRT_2PI
    # The subtraction inside x*Phi(x) + phi(x) can round to a tiny negative
    # number in the far left tail; the true value is nonnegative.
    res = np.maximum(res, 0.0)
    return _match_input(res, x)


def quadrature(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_evals: int = 100_000,
) -> float:
    """Adaptive Simpson integration of f over [lo, hi].

    Bisects intervals until the local Richardson error estimate is inside the
    (proportionally allocated) tolerance.  Raises QuadratureError if the
    evaluation budget runs out first — the caller is never handed a silently
    unconverged value.  This routine exists as an independent oracle for the
    closed forms elsewhere in the package; do not put it on a hot path.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("quadrature requires finite endpoints")
    if tol <= 0:
        raise DomainError("tol must be positive")
    if hi == lo:
        return 0.0
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0

    evals = 0

    def feval(x: float) -> float:
        nonlocal evals
        evals += 1
        if evals > max_evals:
            raise QuadratureError(
                f"quadrature exceeded {max_evals} evaluations before reaching tol={tol}"
            )
        y = float(f(x))
        if not math.isfinite(y):
            raise DomainError(f"integrand returned non-finite value at x={x}")
        return y

    def simpson(a: float, b: float, fa: float, fm: float, fb: float) -> float:
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    # Iterative stack of (a, b, fa, fm, fb, whole, tol_local).
    a, b = lo, hi
    fa, fb = feval(a), feval(b)
    m = 0.5 * (a + b)
    fm = feval(m)
    whole = simpson(a, b, fa, fm, fb)
    stack = [(a, b, fa, fm, fb, whole, tol)]
    total = 0.0
    while stack:
        a, b, fa, fm, fb, whole, tl = stack.pop()
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = feval(lm)
        frm = feval(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        err = left + right - whole
        if abs(err) <= 15.0 * tl or (b - a) < 1e-14 * (hi - lo):
            total += left + right + err / 15.0
        else:
            stack.append((a, m, fa, flm, fm, left, tl / 2.0))
            stack.append((m, b, fm, frm, fb, right, tl / 2.0))
    return sign * total


def splitmix64(z):
    """One SplitMix64 finalizer round (a 64-bit bijection); int or uint64 array."""
    z = (z + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# Replicate streams are grouped in blocks (one block per grid point of an
# experiment): stream_id = block * BLOCK_STRIDE + replicate_index.
BLOCK_STRIDE = 1 << 40


@dataclass(frozen=True)
class SeedLineage:
    """Deterministic pointer to one random stream.

    master_seed identifies the whole experiment, stream_id one stream inside
    it (replicate, block, ...).  Two lineages with the same fields always
    produce bit-identical draws; lineages differing in either field give
    independent Philox streams.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not (0 <= int(v) <= _MASK64):
                raise DomainError(f"{name} must be an integer in [0, 2^64), got {v!r}")

    def philox_key(self) -> tuple[int, int]:
        k0 = splitmix64(int(self.master_seed))
        k1 = splitmix64(k0 ^ int(self.stream_id))
        return k0, k1

    def generator(self) -> np.random.Generator:
        key = np.array(self.philox_key(), dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def generators(self, count: int) -> Iterator[np.random.Generator]:
        """generator() of streams stream_id .. stream_id + count - 1 (one block).

        One Philox is re-keyed per stream to the state generator() starts in:
        the key, a zero counter, an empty buffer and no held uint32.  Each
        yielded generator is valid until the next is taken.
        """
        if self.stream_id % BLOCK_STRIDE + count > BLOCK_STRIDE:
            raise DomainError("block and replicate must be nonnegative, replicate < 2^40")
        k0 = splitmix64(int(self.master_seed))
        ids = np.uint64(self.stream_id) + np.arange(count, dtype=np.uint64)
        g = np.random.Generator(np.random.Philox(key=0))
        philox = {"counter": [0, 0, 0, 0], "key": None}
        state = {"bit_generator": "Philox", "state": philox, "buffer": [0, 0, 0, 0],
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for k1 in splitmix64(np.uint64(k0) ^ ids).tolist():
            philox["key"] = [k0, k1]
            g.bit_generator.state = state
            yield g

    @staticmethod
    def stream_for(block: int, replicate: int) -> int:
        """Compose the documented stream id for (grid block, replicate)."""
        if block < 0 or replicate < 0 or replicate >= BLOCK_STRIDE:
            raise DomainError("block and replicate must be nonnegative, replicate < 2^40")
        return block * BLOCK_STRIDE + replicate


def csv_cell(x: object) -> str:
    """One CSV cell: true/false, floats in shortest round-trip form, else str."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


# Columns that hold free text (formulas, notes).  Their cells are always
# quoted, with any '"' doubled as RFC 4180 asks; every other cell is bare.
FREE_TEXT_COLUMNS = frozenset({"formula", "note"})


def csv_text(columns: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A CSV table: the header, then one csv_cell line per row, unix newlines."""
    quoted = [c in FREE_TEXT_COLUMNS for c in columns]
    lines = [",".join(columns)]
    for row in rows:
        cells = (
            '"' + csv_cell(x).replace('"', '""') + '"' if q else csv_cell(x)
            for x, q in zip(row, quoted, strict=True)
        )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
