"""A standing mutation audit: plant one-line defects and list the tests that catch them.

Each entry of MUTANTS names a file under src/cltlab, one of its lines as it
stands, the line that replaces it, and why the replacement is wrong.  For
each mutant the script copies src/, tests/, benchmarks/ and pyproject.toml
into a temporary directory, plants the mutant there, runs the tests that
are neither acceptance criteria nor recorded digests (``-m "not pinned"``),
nor the check of this list, and prints the tests that fail.  A test that already fails on the unmutated
copy is not counted as catching anything.  A mutant that no test catches
is a survivor: close it with a check by a second route, never by dropping
the mutant.

    python tests/mutants.py          # every mutant
    python tests/mutants.py 3 8      # mutants 3 and 8, numbered as printed

pytest does not collect this file.  tests/test_mutants.py checks that each
old line still occurs exactly once in src/, so the list cannot go stale
silently.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cltlab"


class Mutant(NamedTuple):
    file: str  # relative to src/cltlab
    old: str  # the whole line, indentation included
    new: str
    why: str


MUTANTS = (
    Mutant(
        "distances.py",
        "    lower = np.max(cdf - (i - 1.0) / r)",
        "    lower = np.max(cdf - i / r)",
        "the Kolmogorov distance loses the empirical cdf's left limit at each atom",
    ),
    Mutant(
        "models/chain.py",
        "                sigma2=sigma2, v_n=float(np.sum(sigma2)), conditional_variance_constant=False",
        "                sigma2=sigma2, v_n=float(np.sum(sigma2[1:])), conditional_variance_constant=False",
        "the chain's V_n drops sigma_1^2",
    ),
    Mutant(
        "ratefit.py",
        "        yc = y[mask] - np.log(np.log(n[mask]))",
        "        yc = y[mask] - 0.5 * np.log(np.log(n[mask]))",
        "the log correction strips half a log n factor",
    ),
    Mutant(
        "distances.py",
        "    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * replicates))",
        "    return math.sqrt(math.log(1.0 / DKW_ALPHA) / (2.0 * replicates))",
        "the DKW envelope is two-sided: log(2/alpha), not log(1/alpha)",
    ),
    Mutant(
        "distances.py",
        "    grid = normal_quantile((np.arange(1, n + 1, dtype=float) - 0.5) / n)",
        "    grid = normal_quantile((np.arange(1, n + 1, dtype=float) - 0.25) / n)",
        "the W_r coupling grid leaves the midpoint quantiles by a quarter step",
    ),
    Mutant(
        "distances.py",
        "    return float(np.std(vals, ddof=1) / math.sqrt(W1_SE_BATCHES))",
        "    return float(np.std(vals, ddof=1) / W1_SE_BATCHES)",
        "a batch-means SE divides the batch SD by sqrt(batches), not by batches",
    ),
    Mutant(
        "distances.py",
        "    return float(np.std(vals, ddof=1) / math.sqrt(W1_SE_BATCHES))",
        "    return float(np.std(vals, ddof=0) / math.sqrt(W1_SE_BATCHES))",
        "the batch SD is a sample SD (ddof = 1)",
    ),
    Mutant(
        "bounds.py",
        "    t4 = ADDITIVE_CONST * a * delta",
        "    t4 = ADDITIVE_CONST * a * a * delta",
        "theorem 1's smoothing floor is 4 sqrt(2) a delta at r = 1, not a^2",
    ),
    Mutant(
        "bounds.py",
        "    g = model.psi_closed_form(KAPPA_R1 * np.exp(u))",
        "    g = model.psi_closed_form(np.exp(u))",
        "theorem 1's psi term integrates psi(kappa x)/x with kappa = 6",
    ),
    Mutant(
        "numerics.py",
        "    f(np.ascontiguousarray(x)[::-1], out=out)",
        "    out = f(np.ascontiguousarray(x))[::-1]",
        "a contiguous input takes numpy's AVX-512 exp and log loops, whose bits are not libm's",
    ),
    Mutant(
        "models/ce.py",
        "        first = u <= (cp.k * cp.k / (s_m * s_m + cp.k * cp.k))[:, None]",
        "        first = u <= (s_m * s_m / (s_m * s_m + cp.k * cp.k))[:, None]",
        "the branch X_j = -S_m/k has probability k^2/(S_m^2 + k^2); swapped, X_j loses its zero mean",
    ),
    Mutant(
        "cli.py",
        "    return float(means[k_star]), float(np.std(column, ddof=1) / math.sqrt(replicates))",
        "    return float(means[k_star]), float(np.std(column, ddof=0) / math.sqrt(replicates))",
        "the standard error of a mean takes the sample SD (ddof = 1)",
    ),
    Mutant(
        "cli.py",
        "        atom_ok = atom >= atom_thr - 3.0 * atom_se",
        "        atom_ok = atom >= atom_thr + 3.0 * atom_se",
        "the atom check forgives three SE below its floor, not demands three SE above it",
    ),
    Mutant(
        "models/iid.py",
        "        return float(np.max(np.sqrt(self.moments().sigma2) ** (p - 2.0))) * self.law.abs_moment(p)",
        "        return float(np.max(np.sqrt(self.moments().sigma2) ** p)) * self.law.abs_moment(p)",
        "the ratio divides E|xi_k|^p = sigma_k^p E|eps|^p by sigma_k^2",
    ),
    Mutant(
        "models/linear.py",
        "            w[0] = c[0] * math.sqrt(self.gamma0)  # stationary start absorbs the past",
        "            w[0] = c[0] * self.gamma0  # stationary start absorbs the past",
        "the stationary start X_0 has standard deviation sqrt(gamma0), not variance",
    ),
    Mutant(
        "models/seqdyn.py",
        "                            total += 2.0 * (c1 * c2 / 2.0)",
        "                            total += c1 * c2 / 2.0",
        "each cross covariance enters V_n twice, once for each order of the pair",
    ),
    Mutant(
        "io.py",
        "        if self.master_seed + self.fit_seeds - 1 >= 2**64:",
        "        if self.master_seed + self.fit_seeds >= 2**64:",
        "the last master seed is master_seed + fit_seeds - 1, which may be 2^64 - 1",
    ),
    Mutant(
        "models/base.py",
        "        return np.cumsum(self.sigma2[::-1])[::-1]",
        "        return np.cumsum(self.sigma2)[::-1]",
        "a tail sum from ell adds sigma_k^2 over k >= ell, not the reversed prefix sums",
    ),
    Mutant(
        "models/iid.py",
        "RADEMACHER = InnovationLaw(_rademacher_fill, lambda p: 1.0, lambda u: np.minimum(u, 1.0))",
        "RADEMACHER = InnovationLaw(_rademacher_fill, lambda p: 1.0, lambda u: np.minimum(u, 2.0))",
        "a sign has |eps|^3 = 1, so min(u eps^2, |eps|^3) caps at 1, not 2",
    ),
)

TEST_DIRS = ("src", "tests", "benchmarks")


def copy_tree(source: Path, dest: Path) -> None:
    """The files a test run reads: src/, tests/, benchmarks/ and pyproject.toml."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".pytest_cache", ".hypothesis")
    for name in TEST_DIRS:
        shutil.copytree(source / name, dest / name, ignore=skip)
    shutil.copy2(source / "pyproject.toml", dest / "pyproject.toml")


def plant(root: Path, mutant: Mutant) -> None:
    path = root / "src" / "cltlab" / mutant.file
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.file}: {mutant.old.strip()!r} does not occur exactly once")
    lines[lines.index(mutant.old)] = mutant.new
    path.write_text("\n".join(lines), encoding="utf-8")


def failing_tests(root: Path) -> set[str]:
    """The ids that fail or error in the copy at root."""
    files = sorted(
        str(p.relative_to(root))
        for p in (root / "tests").glob("test_*.py")
        if p.name not in ("test_acceptance.py", "test_mutants.py")
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
         "--continue-on-collection-errors", "-m", "not pinned", *files],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):  # pytest itself failed: no test verdicts
        raise SystemExit(f"pytest exited {proc.returncode} in {root}:\n{proc.stdout[-2000:]}")
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE))


def main(argv: list[str]) -> int:
    picked = [int(a) for a in argv] or list(range(1, len(MUTANTS) + 1))
    t0 = time.perf_counter()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="cltlab-mutants-") as tmp:
        clean = Path(tmp) / "clean"  # every mutant starts from this one snapshot
        copy_tree(ROOT, clean)
        already = failing_tests(clean)
        if already:
            print(f"failing without a mutant (not counted): {', '.join(sorted(already))}")
        for k in picked:
            mutant = MUTANTS[k - 1]
            root = Path(tmp) / f"mutant{k}"
            copy_tree(clean, root)
            plant(root, mutant)
            t = time.perf_counter()
            caught = sorted(failing_tests(root) - already)
            shutil.rmtree(root)
            print(f"[{k}] {mutant.file}: {mutant.new.strip()}")
            print(f"    wrong because {mutant.why}")
            print(f"    caught by {len(caught)} tests in {time.perf_counter() - t:.0f} s")
            for test in caught:
                print(f"      {test}")
            if not caught:
                survivors.append(k)
    print(f"{len(picked)} mutants, {len(survivors)} survived {survivors or ''}; "
          f"{time.perf_counter() - t0:.0f} s in all")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
