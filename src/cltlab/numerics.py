"""Shared numerical kernel: Gaussian special functions, an adaptive
quadrature oracle, deterministic stream seeding, and the one writer of
every CSV artifact.

The Gaussian helpers evaluate Phi, its antiderivative J and Phi^-1 with a
port of the Cephes routines that scipy.special runs: ndtr.c (ndtr through
erf and erfc) and ndtri.c.  The port keeps Cephes' coefficient tables,
branch thresholds and Horner order (a denominator is Cephes' p1evl table
with its leading 1.0 written out, as 1.0 x is exact), so it returns scipy's
bits, which are accurate to a few ulp.  Its + - * / and sqrt are
IEEE-rounded in numpy as in scipy's C code.  Every exp and log takes the C
library's (libm's) bits, as scipy's does, through `_libm`, which runs
numpy's plain per-element C loop over libm (5-10 ns an element).  Numpy's
AVX-512 exp and log loops differ from libm in the last bit on a few percent
of arguments, so in the port they would move artifact bytes: `_libm` hands
the loop a reversed input, which those loops turn down, and once per process
checks the loop against math on a probe of arguments that the AVX-512 loops
get wrong, keeping math (85-150 ns an element) on any mismatch.  (The
density phi, alone and inside J, has always been np.exp and stays so.)

There is one route, over numpy arrays: a scalar or 0-d argument runs as a
one-element array and comes back a Python float, and each kernel skips the
branches its input has no element in.  A scalar call costs 25-45 us (1-2 us
on the pure-Python route this replaced), and no package integrand calls
Phi: the four benchmark workloads make 188 scalar calls a pass, under 10 ms
(22 per two-point `distance` run, 44 in the long-paths rate fit, 12 in ce's
bounds).  The test suite's quadrature oracles integrate libm's erfc, not the
port they check.

`quadrature` is intentionally *not* backed by scipy: it is a self-contained
adaptive Simpson scheme with interval bisection and a hard evaluation budget,
and the test-suite's independent cross-check of every closed form.  It is on
a bound path too: ce_lowerbound's psi profile runs it once per point and its
`tail_abs_moment` once per call, and linear_statistic's E|Z^2 - 1|^q once per q.

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


# ---------------------------------------------------------------------------
# Cephes ndtr.c (ndtr, erf, erfc) and ndtri.c, as scipy.special runs them.

_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): erfc underflows to 0 past it

# erfc(z) = exp(-z^2) P(z) / Q(z) on 1 <= z < 8 and exp(-z^2) R(z) / S(z) past 8
_NDTR_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_NDTR_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_NDTR_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_NDTR_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# erf(x) = x T(x^2) / U(x^2) on |x| < 1
_NDTR_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_NDTR_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)

_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # e^-2: Phi^-1's centre is e^-2 < u <= 1 - e^-2
# Phi^-1(1/2 + y) = (y + y y^2 P0(y^2) / Q0(y^2)) sqrt(2 pi) on the centre
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# tails, in x = sqrt(-2 log u): P1 / Q1 for 2 <= x < 8, P2 / Q2 for x >= 8
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N], Horner as Cephes' polevl; float or array."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


_MATH = {np.exp: math.exp, np.log: math.log}

# ufunc -> whether _libm_loop gave _libm_map's bits on the ufunc's probe
_loop_agrees: dict = {}


def _libm_map(f: np.ufunc, x: np.ndarray) -> np.ndarray:
    """f of each element of x through Python's math module, one call each."""
    return np.fromiter(map(_MATH[f], x.tolist()), dtype=float, count=x.size)


def _libm_loop(f: np.ufunc, x: np.ndarray) -> np.ndarray:
    """f of each element of x through numpy's plain per-element C loop.

    That loop calls the C library's exp and log.  The AVX-512 loops, which
    give other bits, turn down an input of negative stride, so the input
    goes in reversed and the output comes back reversed.
    """
    out = np.empty(x.size)
    f(np.ascontiguousarray(x)[::-1], out=out)
    return out[::-1]


def _libm_probe(f: np.ufunc) -> np.ndarray:
    """Arguments on which numpy's AVX-512 loop for f gave other bits than
    libm on an AVX-512 host, then a grid over each range the port takes f
    on: erfc's -z^2 in [-MAXLOG, -1], ndtri's y in [1e-300, e^-2] and its
    x in [2, 39]."""
    if f is np.exp:
        found = (-237.8866114848069, -93.3192464892768, -314.2954587225734, -10.553468293347805)
        ranges = ((-_MAXLOG, -1.0),)
    else:
        found = (0.12182420364070991, 0.07370332733705777, 0.02447105769027753,
                 14.668256001242954, 4.686043233262957, 24.245607139146227)
        ranges = ((1e-300, _EXP_M2), (2.0, 39.0))
    return np.concatenate([found, *(np.linspace(lo, hi, 257) for lo, hi in ranges)])


def _libm(f: np.ufunc, x: np.ndarray) -> np.ndarray:
    """f (np.exp or np.log) of each element of the 1-D x, with libm's bits.

    The first call for each f compares `_libm_loop` with `_libm_map` on
    `_libm_probe(f)`; on any mismatch, every call takes `_libm_map`.
    """
    agrees = _loop_agrees.get(f)
    if agrees is None:
        probe = _libm_probe(f)
        agrees = _loop_agrees[f] = _libm_loop(f, probe).tobytes() == _libm_map(f, probe).tobytes()
    return _libm_loop(f, x) if agrees else _libm_map(f, x)


def _ndtr_array(a: np.ndarray) -> np.ndarray:
    """Cephes ndtr of each element of a 1-D array, exp taken only where erfc needs it."""
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(x)
    # Cephes takes 0.5 + 0.5 erf(x) below z = 1/sqrt(2) and 0.5 erfc(z) =
    # 0.5 (1 - erf(z)) from there to z = 1.  Both give the same bits, since
    # 1 - erf(z) is exact there (Sterbenz), so the erf branch serves z < 1.
    inner = z < 1.0
    xi = x[inner]
    if xi.size:  # a branch with no element is skipped: a scalar call takes one branch
        z2 = xi * xi
        y[inner] = 0.5 + 0.5 * (xi * _polevl(z2, _NDTR_T) / _polevl(z2, _NDTR_U))
    outer = ~inner
    zo = z[outer]
    half = np.zeros_like(zo)  # stays 0 where erfc underflows
    near = zo < 8.0
    far = ~near & (zo * zo <= _MAXLOG)
    for rows, p, q in ((near, _NDTR_P, _NDTR_Q), (far, _NDTR_R, _NDTR_S)):
        zr = zo[rows]
        if zr.size:
            half[rows] = 0.5 * (_libm(np.exp, -zr * zr) * _polevl(zr, p) / _polevl(zr, q))
    y[outer] = np.where(x[outer] > 0.0, 1.0 - half, half)
    return y


def _ndtri_array(u: np.ndarray) -> np.ndarray:
    """Cephes ndtri of each element of a 1-D array in (0, 1), log taken only on the tails."""
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    out = np.empty_like(y)
    centre = y > _EXP_M2
    c = y[centre] - 0.5
    if c.size:
        c2 = c * c
        out[centre] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0))) * _S2PI
    tail = ~centre
    x = np.sqrt(-2.0 * _libm(np.log, y[tail]))
    z = 1.0 / x
    x1 = np.empty_like(x)
    near = x < 8.0
    for rows, p, q in ((near, _NDTRI_P1, _NDTRI_Q1), (~near, _NDTRI_P2, _NDTRI_Q2)):
        zr = z[rows]
        if zr.size:
            x1[rows] = zr * _polevl(zr, p) / _polevl(zr, q)
    x = x - _libm(np.log, x) / x - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _each(kernel: Callable[[np.ndarray], np.ndarray], v: np.ndarray) -> ArrayLike:
    """kernel of each element of v in v's shape; a Python float for a 0-d v."""
    y = kernel(v.ravel()).reshape(v.shape)
    return float(y) if v.ndim == 0 else y


def _as_checked(x: ArrayLike, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return v


def normal_cdf(x: ArrayLike) -> ArrayLike:
    """Standard Gaussian cdf, vectorized, absolute error under 1e-15."""
    return _each(_ndtr_array, _as_checked(x, "x"))


def normal_pdf(x: ArrayLike) -> ArrayLike:
    """Standard Gaussian density."""
    v = _as_checked(x, "x")
    d = np.exp(-0.5 * v * v) / _SQRT_2PI
    return float(d) if v.ndim == 0 else d


def normal_quantile(u: ArrayLike) -> ArrayLike:
    """Inverse of the standard Gaussian cdf on (0, 1).

    Tiny arguments stay finite: normal_quantile(1e-300) is about -37.0.
    Round-trip error |normal_cdf(normal_quantile(u)) - u| stays below 1e-12
    away from the extreme tails (where the cdf itself saturates).
    """
    v = np.asarray(u, dtype=float)
    if not np.all((v > 0.0) & (v < 1.0)):
        raise DomainError(f"u must lie strictly inside (0, 1), got {u!r}")
    return _each(_ndtri_array, v)


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
    v = _as_checked(x, "x")
    # The subtraction inside x*Phi(x) + phi(x) can round to a tiny negative
    # number in the far left tail; the true value is nonnegative.
    j = np.maximum(v * normal_cdf(v) + normal_pdf(v), 0.0)
    return float(j) if v.ndim == 0 else j


# The integrand evaluations one quadrature call may spend.
QUADRATURE_MAX_EVALS = 100_000


def quadrature(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson integration of f over [lo, hi].

    Bisects intervals until the local Richardson error estimate is inside the
    (proportionally allocated) tolerance.  Raises QuadratureError if the
    QUADRATURE_MAX_EVALS budget runs out first — the caller is never handed a
    silently unconverged value.
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
        if evals > QUADRATURE_MAX_EVALS:
            raise QuadratureError(
                f"quadrature exceeded {QUADRATURE_MAX_EVALS} evaluations before reaching tol={tol}"
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
        yielded generator is valid until the next is taken, so the one
        Philox must not be shared: each thread that draws needs its own call.
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
