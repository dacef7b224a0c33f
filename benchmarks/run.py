"""cltlab benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage:
  python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 benchmarks/run.py --write-reference

Run from the repository root or anywhere else: every path is resolved from
this file.  Each workload is a fixed sequence of `python -m cltlab.cli`
invocations (see workloads.py), run one at a time with PYTHONPATH=src,
CLTLAB_THREADS=1 and the BLAS/OpenMP thread counts pinned to 1.

--trace 0  times several fresh-interpreter set-ups, then untraced passes of
           the workload while one more still fits in --seconds (at least
           one), and prints the end-to-end metrics.
--trace 1  runs one untraced pass and two passes through traced_cli.py and
           prints the per-layer metrics, the trace's coverage and overhead.

Every invocation's exit code and artifact digests must match the first pass
of the same seed and, for the default seed, reference.json; a mismatch is a
failed operation.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
machine and settings.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Invocation

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

THREAD_VARS = {
    "CLTLAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_PROBES = 5
INVOCATION_TIMEOUT_S = 120
BATCH_HEADER_BYTES = 88  # the fixed header of a cltlab binary batch file

# Counts that must repeat exactly across the traced passes of one seed.
EXACT_COUNTS = (
    "numerics.generators",
    "models.increments",
    "models.path_rows",
    "models.psi_closed_form_calls",
    "io.batch_bytes",
    "io.bytes_hashed",
    "bounds.a_candidates",
)
LAYERS = ("numerics", "models", "distances", "bounds", "ratefit", "io", "cli")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0", **THREAD_VARS)


def timed_run(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child process from the root; wall time from spawn to exit.

    A child that outlives the timeout is killed and waited for before
    TimeoutExpired propagates.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=INVOCATION_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one invocation and its artifact checks


@dataclass
class Outcome:
    wall: float
    code: int
    files: dict[str, str]
    problems: list[str] = field(default_factory=list)
    bound_evals: int = 0
    trace: dict | None = None


def check_artifacts(inv: Invocation, out: Path, outcome: Outcome) -> None:
    """Digest every artifact and check it against its manifest and shape."""
    problems = outcome.problems
    if outcome.code not in inv.exit_codes:
        problems.append(f"exit code {outcome.code}, expected one of {inv.exit_codes}")
    if not out.is_dir():
        problems.append("no output directory")
        return
    outcome.files = {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}
    if inv.command == "verify-ce":
        expected = ["verify_ce.csv"]
    else:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        for name, digest in manifest["files"].items():
            if outcome.files.get(name) != digest:
                problems.append(f"{name}: digest differs from its manifest entry")
        expected = {
            "simulate": [f"{kind}_n{n}.bin" for n in inv.grid for kind in ("statistics", "increments")],
            "distance": ["distances.csv"],
            "ratefit": ["ratefit.csv", "distances.csv"],
            "bounds": ["bounds.csv", "bounds_meta.json"],
        }[inv.command]
    missing = [name for name in expected if name not in outcome.files]
    if missing:
        problems.append(f"missing artifacts {missing}")
        return
    if inv.command in ("distance", "ratefit", "verify-ce"):
        table = out / ("verify_ce.csv" if inv.command == "verify-ce" else "distances.csv")
        rows = table.read_text(encoding="utf-8").strip().splitlines()[1:]
        if len(rows) != len(inv.grid):
            problems.append(f"{table.name}: {len(rows)} rows for {len(inv.grid)} grid points")
    if inv.command == "simulate":
        for n in inv.grid:
            for kind, cols in (("statistics", 1), ("increments", n)):
                size = (out / f"{kind}_n{n}.bin").stat().st_size
                if size != BATCH_HEADER_BYTES + 8 * inv.reps * cols:
                    problems.append(f"{kind}_n{n}.bin: {size} bytes")
    if inv.command == "bounds":
        meta = json.loads((out / "bounds_meta.json").read_text(encoding="utf-8"))
        outcome.bound_evals = len(meta["entries"])
        if outcome.bound_evals == 0 or outcome.bound_evals % len(inv.grid):
            problems.append(f"bounds_meta.json: {outcome.bound_evals} entries")


def out_dir(workload: str, index: int) -> str:
    """Output directory of one invocation, relative to the root.

    The path is part of the config each artifact hashes, so it must not
    depend on where the checkout lives.
    """
    return f".bench_work/{workload}/{index}"


def run_invocation(workload: str, index: int, inv: Invocation, seed: int, traced: bool) -> Outcome:
    out_rel = out_dir(workload, index)
    out = ROOT / out_rel
    shutil.rmtree(out, ignore_errors=True)
    trace_path = WORK / f"trace-{workload}-{index}.json"
    if traced:
        trace_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path)]
    else:
        cmd = [sys.executable, "-m", "cltlab.cli"]
    cmd += inv.argv(seed, out_rel)
    try:
        wall, proc = timed_run(cmd)
    except subprocess.TimeoutExpired:
        return Outcome(INVOCATION_TIMEOUT_S, -1, {}, [f"timed out: {' '.join(cmd)}"])
    outcome = Outcome(wall, proc.returncode, {})
    try:
        check_artifacts(inv, out, outcome)
    except (OSError, ValueError, KeyError) as exc:
        outcome.problems.append(f"unreadable artifacts: {exc!r}")
    if traced and trace_path.is_file():
        outcome.trace = json.loads(trace_path.read_text(encoding="utf-8"))
    elif traced:
        outcome.problems.append("no trace written")
    if outcome.problems and proc.stderr:
        log(proc.stderr.decode(errors="replace")[-2000:])
    return outcome


class Checker:
    """Exit codes and digests of each invocation against their references."""

    def __init__(self, workload: str, seed: int, reference: list | None) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.first: dict[int, Outcome] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, index: int, inv: Invocation, outcome: Outcome) -> None:
        first = self.first.setdefault(index, outcome)
        if (outcome.code, outcome.files) != (first.code, first.files):
            outcome.problems.append("exit code or digests differ from the first pass of this seed")
        if self.reference is not None:
            ref = self.reference[index] if index < len(self.reference) else None
            if ref is None or ref["argv"] != inv.argv(self.seed, out_dir(self.workload, index)):
                outcome.problems.append("no reference for this invocation in reference.json")
            elif (outcome.code, outcome.files) != (ref["exit_code"], ref["files"]):
                outcome.problems.append("exit code or digests differ from reference.json")
        self.count(outcome.problems, f"{self.workload}[{index}] {inv.command}")

    def count(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                self.notes.append(f"{what}: {p}")
                log(f"FAILED {what}: {p}")


def run_pass(workload: str, seed: int, traced: bool, checker: Checker) -> list[Outcome]:
    outcomes = []
    for index, inv in enumerate(WORKLOADS[workload]):
        outcome = run_invocation(workload, index, inv, seed, traced)
        checker.check(index, inv, outcome)
        outcomes.append(outcome)
    walls = sum(o.wall for o in outcomes)
    log(f"{'traced' if traced else 'untraced'} pass: {walls:.3f} s")
    return outcomes


def measure_setup(workload: str, seed: int, checker: Checker) -> float:
    wall, proc = timed_run([sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)])
    problems = [f"exit code {proc.returncode}"] if proc.returncode else []
    if problems:
        log(proc.stderr.decode(errors="replace")[-2000:])
    checker.count(problems, f"{workload} set-up")
    return wall


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload: str, passes: list[list[Outcome]], setups: list[float], checker: Checker) -> dict:
    invs = WORKLOADS[workload]
    replicates = sum(inv.replicates for inv in invs)
    increments = sum(inv.increments for inv in invs)
    walls = [sum(o.wall for o in p) for p in passes]
    evals = [sum(o.bound_evals for o in p) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "replicates_per_s": statistics.median(replicates / w for w in walls),
        "increments_per_s": statistics.median(increments / w for w in walls),
        "bound_evals_per_s": statistics.median(e / w for e, w in zip(evals, walls)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ok_share": (checker.attempted - checker.failed) / checker.attempted,
    }


def layer_metrics(outcomes: list[Outcome]) -> dict:
    """Per-layer metrics of one traced pass.

    A span's self time is its duration minus that of its direct children.
    """
    total, self_s, calls, counters = Counter(), Counter(), Counter(), Counter()
    covered = 0.0
    for o in outcomes:
        if o.trace is None:  # already counted as a failed operation
            continue
        names, spans = o.trace["names"], o.trace["spans"]
        inner = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                inner[parent] += end - start
        for (name, parent, start, end), child_s in zip(spans, inner):
            total[names[name]] += end - start
            self_s[names[name]] += end - start - child_s
            calls[names[name]] += 1
            if parent < 0:
                covered += end - start
        counters.update(o.trace["counters"])
    wall = sum(o.wall for o in outcomes)

    def tot(*names: str) -> float:
        return sum(total[n] for n in names)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    generators = calls["numerics.generator"]
    increments = counters["models.increments"]
    m = {
        "numerics.generators": generators,
        "numerics.generator_s": tot("numerics.generator"),
        "numerics.generator_us": ratio(tot("numerics.generator"), generators) * 1e6,
        "models.replicates": counters["models.replicates"],
        "models.increments": increments,
        "models.draw_self_s": self_s["models.statistic_range"],
        "models.draw_ns_per_increment": ratio(self_s["models.statistic_range"], increments) * 1e9,
        "models.path_rows": counters["models.path_rows"],
        "models.increment_matrix_self_s": self_s["models.increment_matrix"],
        "models.normalizer_s": tot("models.statistic_normalizer"),
        "models.moments_calls": calls["models.moments"],
        "models.moments_s": tot("models.moments"),
        "models.psi_closed_form_calls": calls["models.psi_closed_form"],
        "models.psi_closed_form_s": tot("models.psi_closed_form"),
        "distances.values_sorted": counters["distances.values_sorted"],
        "distances.sort_s": tot("distances.from_values"),
        "distances.report_s": tot("distances.compute_report"),
        "distances.w1_se_s": tot("distances.w1_se_batch_means"),
        "distances.kolmogorov_s": tot("distances.kolmogorov_vs_normal"),
        "bounds.evals": counters["bounds.evals"],
        "bounds.theorem1_self_s": self_s["bounds.theorem1_rhs"],
        "bounds.l_n_s": tot("bounds.l_n"),
        "bounds.corollary_w1_s": tot("bounds.corollary_w1_bound"),
        "bounds.berry_esseen_s": tot("bounds.berry_esseen_bound"),
        "bounds.a_candidates": counters["bounds.a_candidates"],
        "bounds.a_useful_ratio": ratio(counters["bounds.a_chosen"], counters["bounds.a_candidates"]),
        "ratefit.fits": calls["ratefit.fit"] + calls["ratefit.fit_replicated"],
        "ratefit.fit_s": tot("ratefit.fit", "ratefit.fit_replicated"),
        "io.batch_bytes": counters["io.batch_bytes"],
        "io.write_batch_s": tot("io.write_batch"),
        "io.write_text_s": tot("io.write_text"),
        "io.manifest_s": tot("io.build_manifest", "io.write_manifest"),
        "io.bytes_hashed": counters["io.bytes_hashed"],
        "io.read_s": tot("io.read_batch", "io.read_distance_csv", "io.load_config"),
        "startup.import_s": tot("startup.import"),
        "trace.coverage": ratio(covered, wall),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    return m


def per_layer(workload: str, untraced: list[Outcome], traced: list[list[Outcome]], checker: Checker) -> dict:
    tables = [layer_metrics(p) for p in traced]
    problems = []
    for name in EXACT_COUNTS:
        values = {t[name] for t in tables}
        if len(values) != 1:
            problems.append(f"{name} differs between traced passes: {sorted(values)}")
    invs = WORKLOADS[workload]
    if tables[0]["models.replicates"] != sum(inv.replicates for inv in invs):
        problems.append("models.replicates differs from the workload's replicate count")
    if tables[0]["bounds.evals"] != sum(o.bound_evals for o in untraced):
        problems.append("bounds.evals differs from the bounds_meta.json entries")
    checker.count(problems, f"{workload} traced counts")
    # counts repeat exactly (checked above for EXACT_COUNTS); times are medians
    metrics = {
        k: v if isinstance(v, int) else statistics.median(t[k] for t in tables)
        for k, v in tables[0].items()
    }
    traced_wall = statistics.median(sum(o.wall for o in p) for p in traced)
    metrics["trace.overhead_s"] = traced_wall - sum(o.wall for o in untraced)
    return metrics


# ---------------------------------------------------------------------------
# machine record, reference digests, entry point


def machine_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor()

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_vars": THREAD_VARS,
        "loadavg_before": list(os.getloadavg()),
    }


def metric_units(trace: int) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def load_reference(workload: str) -> list:
    """Reference outcomes of the default seed; an absent file fails every check."""
    if not REFERENCE.is_file():
        return []
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"].get(workload, [])


def layout_ok() -> bool:
    return (ROOT / "src" / "cltlab" / "cli.py").is_file() and (ROOT / "BENCHMARK.json").is_file()


def write_reference() -> int:
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload, invs in WORKLOADS.items():
        checker = Checker(workload, DEFAULT_SEED, reference=None)
        outcomes = run_pass(workload, DEFAULT_SEED, False, checker)
        if checker.failed:
            return 1
        doc["workloads"][workload] = [
            {"argv": inv.argv(DEFAULT_SEED, out_dir(workload, i)), "exit_code": o.code, "files": o.files}
            for i, (inv, o) in enumerate(zip(invs, outcomes))
        ]
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    log(f"wrote {REFERENCE}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store the digests of every workload at seed {DEFAULT_SEED}")
    args = parser.parse_args()
    if not layout_ok():
        log(f"benchmark: {ROOT} is not a cltlab checkout (src/cltlab/cli.py or BENCHMARK.json is missing)")
        return 2
    WORK.mkdir(exist_ok=True)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    record = machine_record(args.workload, args.seed, args.seconds, args.trace)
    reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
    checker = Checker(args.workload, args.seed, reference)
    if args.trace:
        untraced = run_pass(args.workload, args.seed, False, checker)
        traced = [run_pass(args.workload, args.seed, True, checker) for _ in range(2)]
        values = per_layer(args.workload, untraced, traced, checker)
    else:
        setups = [measure_setup(args.workload, args.seed, checker) for _ in range(SETUP_PROBES)]
        passes: list[list[Outcome]] = []
        start = time.perf_counter()
        # closed loop: start another pass only while one more still fits
        while True:
            passes.append(run_pass(args.workload, args.seed, False, checker))
            last = sum(o.wall for o in passes[-1])
            if time.perf_counter() - start + last > args.seconds:
                break
        values = end_to_end(args.workload, passes, setups, checker)

    units = metric_units(args.trace)
    record["loadavg_after"] = list(os.getloadavg())
    record["problems"] = checker.notes
    print(json.dumps({"machine": record}))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
