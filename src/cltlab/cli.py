"""Command line front end binding models -> distances -> bounds -> rate fits.

Five subcommands, all driven by a JSON config and/or flags:

  simulate    write statistic and increment batch files plus a manifest
  distance    one distance-report CSV row per (model, n)
  bounds      itemized bound breakdowns, CSV plus a terminal table
  ratefit     fit measured convergence exponents against predicted rates
  verify-ce   check the lower-bound construction's advertised constants

Reruns with the same config and master seed reproduce every artifact byte
for byte; the manifest records the config hash and the stream block of each
output so rows are traceable to their random streams.  Exit codes: 0 all
checks passed, 1 a check failed, 2 bad configuration, 3 I/O or file-format
trouble.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import tempfile
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import bounds as _bounds
from . import ratefit as _ratefit
from .distances import (
    DistanceReport,
    EmpiricalSample,
    check_p,
    compute_report,
    kolmogorov_se,
    kolmogorov_vs_normal,
    reports_to_csv,
)
from .errors import (
    CapabilityError,
    ConfigurationError,
    DataFormatError,
    DomainError,
)
from .io import (
    ExperimentConfig,
    _plain,
    build_manifest,
    canonical_json,
    load_config,
    read_distance_csv,
    read_manifest,
    sha256_file,
    write_batch,
    write_manifest,
    write_text,
)
from .models import KNOWN_FAMILIES, Model, ModelSpec, atom_fraction, check_table_size, make_model
from .numerics import csv_text

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# spec defaults for grid studies: geometric n-grid, 2e5 replicates per point
DEFAULT_N_GRID = tuple(2**k for k in range(7, 15))
DEFAULT_REPLICATES = 200_000

# the only per-command defaults: without --config, verify-ce checks the
# lower-bound construction on its own short grid
COMMAND_DEFAULTS: dict[str, tuple[str, tuple[int, ...]]] = {
    "verify-ce": ("ce_lowerbound", (64, 256, 1024)),
}

# replicate cap for the per-increment moment table of verify-ce.  The table
# is taken one chunk at a time and spilled to a temporary file (8 R n bytes
# at the largest n), so the cap bounds the run time and the spill's size,
# not memory
VERIFY_MOMENT_REPLICATES = 20_000

# CLI shorthand tags on top of the raw family names
MODEL_TAGS: dict[str, tuple[str, dict]] = {
    "linear_ar1": (
        "linear_statistic",
        {"base": {"kind": "ar1", "phi": 0.5}, "coefficients": {"rule": "constant", "kappa": 1.0}},
    ),
    "linear_ma": (
        "linear_statistic",
        {"base": {"kind": "ma", "theta": [1.0, 0.5]}, "coefficients": {"rule": "constant", "kappa": 1.0}},
    ),
}


# ---------------------------------------------------------------------------
# argument parsing and config resolution


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cltlab",
        description="Monte Carlo laboratory for Gaussian-approximation rates of partial sums",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None, help="JSON experiment config")
    common.add_argument("--seed", metavar="U64", type=int, default=None, help="master seed override")
    common.add_argument("--reps", metavar="N", type=int, default=None, help="replicates per grid point")
    common.add_argument("--out", metavar="DIR", default=None, help="output directory override")
    common.add_argument(
        "--model",
        metavar="TAG",
        default=None,
        help="model family or shorthand: " + ", ".join(sorted((*KNOWN_FAMILIES, *MODEL_TAGS))),
    )
    common.add_argument("--n-grid", metavar="LIST", default=None, help="comma-separated path lengths")
    common.add_argument("--p", metavar="REAL", type=float, default=None, help="moment order in (2, 3]")
    common.add_argument("--a", metavar="REAL|auto", default=None, help="variance-inflation parameter")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="write batch files and a manifest")
    sub.add_parser("distance", parents=[common], help="distances to the standard Gaussian, CSV")
    sub.add_parser("bounds", parents=[common], help="itemized bound evaluations, CSV")
    sub.add_parser("ratefit", parents=[common], help="fit convergence exponents vs predictions")
    sub.add_parser("verify-ce", parents=[common], help="check the lower-bound construction constants")
    return parser


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError:
        raise ConfigurationError(f"--n-grid must be comma-separated integers, got {text!r}") from None
    if not vals:
        raise ConfigurationError("--n-grid is empty")
    return vals


def _resolve_tag(tag: str) -> tuple[str, dict]:
    if tag in MODEL_TAGS:
        return MODEL_TAGS[tag]
    if tag in KNOWN_FAMILIES:
        return tag, {}
    raise ConfigurationError(
        f"unknown model tag {tag!r}; known: " + ", ".join(sorted((*KNOWN_FAMILIES, *MODEL_TAGS)))
    )


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """A config file, or the defaults, with each flag applied once on top.

    Without --config the model is --model, or the command's default.  A
    model named by a tag is the template at the first grid point.
    """
    default_tag, default_grid = COMMAND_DEFAULTS.get(args.command, (None, DEFAULT_N_GRID))
    tag = args.model
    if args.config is not None:
        cfg = load_config(Path(args.config))
        fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    else:
        tag = default_tag if tag is None else tag
        if tag is None:
            raise ConfigurationError("provide --config PATH or --model TAG")
        fields = {"n_grid": default_grid, "replicates": DEFAULT_REPLICATES}

    if args.n_grid is not None:
        fields["n_grid"] = _parse_grid(args.n_grid)
    if tag is not None:
        family, params = _resolve_tag(tag)
        p = fields["model"].p if "model" in fields else 3.0
        fields["model"] = ModelSpec(family=family, n=fields["n_grid"][0], p=p, params=params)
    if args.p is not None:
        fields["model"] = dataclasses.replace(fields["model"], p=args.p)
    if args.seed is not None:
        fields["master_seed"] = args.seed
    if args.reps is not None:
        fields["replicates"] = args.reps
    if args.out is not None:
        fields["outputs"] = str(args.out)
    if args.a is not None:
        try:
            fields["a"] = None if args.a == "auto" else float(args.a)
        except ValueError:
            raise ConfigurationError(f"--a must be a real >= 1 or 'auto', got {args.a!r}") from None
    return ExperimentConfig(**fields)


def _grid_models(cfg: ExperimentConfig) -> list[tuple[int, int, Model]]:
    """(block, n, model) per grid point, each built and checked before any output."""
    return [(i, n, make_model(cfg.spec_for(n))) for i, n in enumerate(cfg.n_grid)]


def _ensure_out(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.outputs)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg: ExperimentConfig) -> int:
    check_table_size(cfg.replicates, cfg.n_grid[-1])
    models = _grid_models(cfg)
    out = _ensure_out(cfg)
    digest = cfg.digest()
    files: list[str] = []
    blocks: dict[str, int] = {}
    for i, n, model in models:
        # one draw of each chunk gives both its statistics and the increment
        # rows streamed to the file
        inc_name = f"increments_n{n}.bin"
        stats = write_batch(
            out / inc_name,
            lambda put: model.statistic_values(cfg.master_seed, cfg.replicates, i, increments=put),
            digest,
            (cfg.replicates, n),
        )
        stat_name = f"statistics_n{n}.bin"
        write_batch(out / stat_name, lambda put: put(stats), digest, stats.shape)
        files += [stat_name, inc_name]
        blocks[stat_name] = i
        blocks[inc_name] = i
        print(
            f"n={n:>6}  {stat_name}: {stats.size} statistics   "
            f"{inc_name}: {cfg.replicates}x{n} increments"
        )
    write_manifest(out, build_manifest(cfg, out, files, blocks))
    print(f"manifest.json  config_sha256={digest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# distance


def _measure(
    cfg: ExperimentConfig, models: list[tuple[int, int, Model]], master_seed: int
) -> list[DistanceReport]:
    """Draw, sort and measure every grid point; one report (and line) per n."""
    reports = []
    for i, n, model in models:
        values = model.statistic_values(master_seed, cfg.replicates, block=i)
        rep = compute_report(EmpiricalSample.from_values(values), model.model_id, n, cfg.model.p)
        reports.append(rep)
        print(
            f"n={n:>6}  kolmogorov={rep.kolmogorov:.6f} (se {rep.kolmogorov_se:.6f})  "
            f"w1={rep.w1:.6f} (se {rep.w1_se:.6f})  transfer={rep.transfer_bound():.6f}"
        )
    return reports


def cmd_distance(cfg: ExperimentConfig) -> int:
    check_p(cfg.model.p)
    models = _grid_models(cfg)
    out = _ensure_out(cfg)
    reports = _measure(cfg, models, cfg.master_seed)
    write_text(out / "distances.csv", reports_to_csv(reports))
    blocks = {f"distances.csv:n={n}": i for i, n in enumerate(cfg.n_grid)}
    write_manifest(out, build_manifest(cfg, out, ["distances.csv"], blocks))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds


def _print_breakdown(n: int, bd: _bounds.BoundBreakdown) -> None:
    a = bd.meta.get("a")
    suffix = f"  a={a:g}" if isinstance(a, (int, float)) else ""
    print(f"{bd.bound_id}  n={n}  total={bd.total:.6g}  [{bd.constants_mode}]{suffix}")
    width = max(len(t.name) for t in bd.terms)
    for t in bd.terms:
        star = "exact" if t.exact else f"se {t.se:.3g}"
        print(f"    {t.name:<{width}}  {t.value:>14.6g}   {star}")


def cmd_bounds(cfg: ExperimentConfig) -> int:
    # every breakdown is evaluated before the output directory is made, so a
    # tag that rejects the configuration leaves nothing behind
    tags = cfg.bound_requests or _bounds.DEFAULT_BOUNDS[cfg.model.family]
    breakdowns = []
    metas = []
    for i, n, model in _grid_models(cfg):
        for tag in tags:
            bd = _bounds.BOUNDS[tag](model, cfg.model.p, cfg.master_seed, cfg.a)
            breakdowns.append(bd)
            metas.append({"n": n, "bound_id": bd.bound_id, "meta": _plain(bd.meta)})
            _print_breakdown(n, bd)
    out = _ensure_out(cfg)
    write_text(out / "bounds.csv", _bounds.breakdowns_to_csv(breakdowns))
    write_text(out / "bounds_meta.json", canonical_json({"entries": metas}) + "\n")
    blocks = {f"bounds.csv:n={n}": i for i, n in enumerate(cfg.n_grid)}
    write_manifest(out, build_manifest(cfg, out, ["bounds.csv", "bounds_meta.json"], blocks))
    return EXIT_OK


# ---------------------------------------------------------------------------
# ratefit


def _default_target(cfg: ExperimentConfig) -> float:
    if cfg.distance_kind == "kolmogorov":
        return _bounds.berry_esseen_target_exponent(cfg.model.p)
    # w1_normalized is W1 times sqrt(V_n): its exponent is w1's plus 1/2, and
    # the p = 3 W1 display grows only like log V_n
    return -0.5 if cfg.distance_kind == "w1" else 0.0


def _series(
    cfg: ExperimentConfig, models: Mapping[int, Model], reports: Sequence[DistanceReport]
) -> _ratefit.RateSeries:
    """The (n, V_n, distance, se) series of cfg.distance_kind, read with models[n].

    A report whose model id or p differs from the config's model at its n was
    measured for another experiment: DataFormatError.
    """
    pts = []
    for rep in sorted(reports, key=lambda r: r.n):
        model = models[rep.n]
        if rep.model_id != model.model_id or rep.p != model.spec.p:
            raise DataFormatError(
                f"distance row for {rep.model_id} at p={rep.p:g} does not match the "
                f"configured {model.model_id} at p={model.spec.p:g}"
            )
        v_n = model.moments().v_n
        if cfg.distance_kind == "kolmogorov":
            d, se = rep.kolmogorov, rep.kolmogorov_se
        elif cfg.distance_kind == "w1":
            d, se = rep.w1, rep.w1_se
        else:  # w1_normalized: undo the /sqrt(V_n) statistic scaling
            root = math.sqrt(v_n)
            d, se = rep.w1 * root, rep.w1_se * root
        pts.append((rep.n, v_n, float(d), float(se)))
    return _ratefit.RateSeries(
        points=tuple(pts), model_id=cfg.model.family, distance_kind=cfg.distance_kind
    )


def cmd_ratefit(cfg: ExperimentConfig) -> int:
    check_p(cfg.model.p)
    models = _grid_models(cfg)
    by_n = {n: model for _, n, model in models}
    out = _ensure_out(cfg)
    target = cfg.target_exponent if cfg.target_exponent is not None else _default_target(cfg)
    files = ["ratefit.csv", "distances.csv"]  # a refit's manifest attests the table it read

    csv_path = out / "distances.csv"
    if csv_path.exists():
        if cfg.fit_seeds > 1:
            raise DataFormatError(
                f"{csv_path}: holds one seed's table, but fit_seeds = {cfg.fit_seeds} "
                "refits across seeds; remove the file to measure them"
            )
        manifest = read_manifest(out)
        if manifest is not None:
            listed = manifest.get("files")
            if not isinstance(listed, dict) or listed.get("distances.csv") != sha256_file(csv_path):
                raise DataFormatError(
                    f"{csv_path}: {out / 'manifest.json'} does not list it with its SHA-256, "
                    "so its seed is unknown; remove the file to measure them"
                )
            if manifest.get("master_seed") != cfg.master_seed:
                raise DataFormatError(
                    f"{csv_path}: its manifest records master_seed = {manifest.get('master_seed')}, "
                    f"but master_seed = {cfg.master_seed}; remove the file to measure them"
                )
        reports = read_distance_csv(csv_path)
        if not reports:
            raise DataFormatError(f"{csv_path}: no distance rows to fit")
        for rep in reports:
            if rep.replicates != cfg.replicates:
                raise DataFormatError(
                    f"{csv_path}: the row at n={rep.n} holds {rep.replicates} replicates, but "
                    f"replicates = {cfg.replicates}; remove the file to measure them"
                )
        table_grid = sorted({rep.n for rep in reports})
        if table_grid != list(cfg.n_grid):
            raise DataFormatError(
                f"{csv_path}: holds n = {table_grid}, but n_grid = {list(cfg.n_grid)}; "
                "remove the file to measure them"
            )
        series = [_series(cfg, by_n, reports)]
        print(f"fitting {len(reports)} rows from {csv_path}")
    else:
        series = []
        for j in range(cfg.fit_seeds):
            reports = _measure(cfg, models, cfg.master_seed + j)
            if j == 0:
                write_text(csv_path, reports_to_csv(reports))
            series.append(_series(cfg, by_n, reports))
            print(f"seed {cfg.master_seed + j}: measured {len(series[-1].points)} grid points")
    result = _ratefit.fit(series, target, tolerance=cfg.tolerance)

    write_text(out / "ratefit.csv", _ratefit.results_to_csv([result]))
    blocks = {f"n={n}": i for i, n in enumerate(cfg.n_grid)}
    write_manifest(out, build_manifest(cfg, out, files, blocks))

    print(
        f"{result.model_id} [{result.distance_kind}]  exponent={result.exponent:.4f} "
        f"+/- {result.ci_halfwidth:.4f}  log-corrected={result.log_corrected_exponent:.4f}  "
        f"target={result.target_exponent:.4f}  verdict={result.verdict}"
    )
    if result.note:
        print(f"note: {result.note}")
    if result.verdict == "inconsistent":
        return EXIT_CHECK
    if result.verdict == "inconclusive":
        print("warning: grid too short for a verdict (need 4+ points over 2+ decades)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-ce


VERIFY_CE_CSV_COLUMNS = (
    "n",
    "atom",
    "atom_se",
    "atom_threshold",
    "atom_pass",
    "kolmogorov",
    "kolmogorov_se",
    "kolmogorov_threshold",
    "kolmogorov_pass",
    "max_moment",
    "max_moment_se",
    "moment_cap",
    "moment_pass",
)


def _largest_abs_moment(
    model: Model, master_seed: int, replicates: int, block: int, p: float
) -> tuple[float, float]:
    """max_k mean |xi_k|^p over the paths, and the standard error of that mean.

    The (replicates, n) table of |xi|^p is never held.  statistic_range's sink
    turns each chunk of increments into |xi|^p in place and spills it to a
    temporary file.  The running column total is added into the chunk's first
    row and the chunk reduced along its rows, which adds the rows in the order
    a mean over the whole table does.  The attaining column is then read back
    one chunk at a time.
    """
    n, chunk = model.spec.n, model.chunk_size()
    total = np.zeros(n)
    with tempfile.TemporaryFile() as spill:

        def add(rows: np.ndarray) -> None:
            nonlocal total
            np.abs(rows, out=rows)
            rows **= p
            spill.write(rows)
            rows[0] += total
            total = np.add.reduce(rows, axis=0)

        model.statistic_range(master_seed, 0, replicates, block, increments=add)
        means = total / replicates
        k_star = int(np.argmax(means))
        column = np.empty(replicates)
        spill.seek(0)
        for done in range(0, replicates, chunk):
            rows = np.empty((min(chunk, replicates - done), n))
            spill.readinto(rows)
            column[done : done + rows.shape[0]] = rows[:, k_star]
    return float(means[k_star]), float(np.std(column, ddof=1) / math.sqrt(replicates))


def cmd_verify_ce(cfg: ExperimentConfig, write_csv: bool) -> int:
    """Check ce_lowerbound's constants; verify_ce.csv only when write_csv."""
    if cfg.model.family != "ce_lowerbound":
        raise ConfigurationError(f"verify-ce checks ce_lowerbound only, got {cfg.model.family!r}")
    p, reps, seed = cfg.model.p, cfg.replicates, cfg.master_seed
    check_p(p)
    m_reps = min(reps, VERIFY_MOMENT_REPLICATES)
    check_table_size(m_reps, cfg.n_grid[-1])

    # the whole grid must satisfy the construction's hypotheses before any work
    models = _grid_models(cfg)

    header = f"{'n':>6}  {'atom':>22}  {'uniform dist':>22}  {'max moment':>22}"
    print(header)
    rows = []
    all_pass = True
    for i, n, model in models:
        values = model.statistic_values(seed, reps, block=i)
        sample = EmpiricalSample.from_values(values)

        atom, atom_se = atom_fraction(values)
        atom_thr = model.params.atom_lower_bound()
        atom_ok = atom >= atom_thr - 3.0 * atom_se

        dist = kolmogorov_vs_normal(sample)
        dist_se = kolmogorov_se(reps)
        dist_thr = model.params.kolmogorov_lower_bound()
        dist_ok = dist >= dist_thr - 3.0 * dist_se

        moment, moment_se = _largest_abs_moment(model, seed, m_reps, 1000 + i, p)
        cap = model.moment_cap(p)
        moment_ok = moment <= cap + 3.0 * moment_se

        all_pass = all_pass and atom_ok and dist_ok and moment_ok
        print(
            f"{n:>6}  {atom:.5f}>={atom_thr:.5f} {'pass' if atom_ok else 'FAIL'}  "
            f"{dist:.5f}>={dist_thr:.5f} {'pass' if dist_ok else 'FAIL'}  "
            f"{moment:.5f}<={cap:.5f} {'pass' if moment_ok else 'FAIL'}"
        )
        rows.append((
            n,
            atom, atom_se, atom_thr, atom_ok,
            dist, dist_se, dist_thr, dist_ok,
            moment, moment_se, cap, moment_ok,
        ))
    if write_csv:
        write_text(_ensure_out(cfg) / "verify_ce.csv", csv_text(VERIFY_CE_CSV_COLUMNS, rows))
    print("all checks passed" if all_pass else "CHECK FAILURE")
    return EXIT_OK if all_pass else EXIT_CHECK


# ---------------------------------------------------------------------------
# entry point


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "simulate": cmd_simulate,
        "distance": cmd_distance,
        "bounds": cmd_bounds,
        "ratefit": cmd_ratefit,
        "verify-ce": functools.partial(cmd_verify_ce, write_csv=args.out is not None),
    }
    try:
        return commands[args.command](resolve_config(args))
    except (ConfigurationError, DomainError, CapabilityError) as exc:
        print(f"cltlab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"cltlab: data format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" [{name}]" if name else ""
        print(f"cltlab: i/o error{where}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
