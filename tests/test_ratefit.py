"""Rate-fit tests: exact recoveries, verdict rules, replication, CSV rows."""

from __future__ import annotations

import ast
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cltlab
from cltlab.errors import ConfigurationError, DomainError
from cltlab.ratefit import (
    MIN_DECADES,
    MIN_POINTS,
    RATEFIT_CSV_COLUMNS,
    RateSeries,
    fit,
    results_to_csv,
)

WIDE_GRID = (10, 100, 1000, 10000)


def power_series(amplitude, exponent, grid=WIDE_GRID, se=0.0, log_factor=False, **kw):
    """Series lying exactly on amplitude * n**exponent (optionally * log n)."""
    pts = []
    for n in grid:
        d = amplitude * float(n) ** exponent
        if log_factor:
            d *= math.log(n)
        pts.append((n, float(n), d, se))
    kw.setdefault("model_id", "synthetic")
    kw.setdefault("distance_kind", "kolmogorov")
    return RateSeries(points=tuple(pts), **kw)


class TestRateSeries:
    def test_rejects_unknown_distance_kind(self):
        with pytest.raises(ConfigurationError, match="distance_kind"):
            power_series(1.0, -0.25, distance_kind="levy")

    @pytest.mark.parametrize("grid", [(10, 10, 100, 1000), (100, 10, 1000, 10000)])
    def test_rejects_nonincreasing_n(self, grid):
        with pytest.raises(DomainError, match="strictly increasing"):
            power_series(1.0, -0.25, grid=grid)

    @pytest.mark.parametrize("bad_vn", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_variance(self, bad_vn):
        pts = ((8, 1.0, 0.5, 0.0), (80, bad_vn, 0.25, 0.0))
        with pytest.raises(DomainError, match="v_n"):
            RateSeries(points=pts, model_id="m", distance_kind="w1")

    @pytest.mark.parametrize(
        "d,se", [(math.nan, 0.0), (math.inf, 0.0), (0.5, -1.0), (0.5, math.nan)]
    )
    def test_rejects_nonfinite_distance_or_bad_se(self, d, se):
        pts = ((8, 8.0, d, se),)
        with pytest.raises(DomainError, match="finite"):
            RateSeries(points=pts, model_id="m", distance_kind="w1")

    def test_drops_nonpositive_distances_with_note(self):
        pts = (
            (10, 10.0, 0.5, 0.0),
            (100, 100.0, 0.0, 0.0),
            (1000, 1e3, -0.1, 0.0),
            (10000, 1e4, 0.1, 0.0),
        )
        s = RateSeries(points=pts, model_id="m", distance_kind="kolmogorov")
        assert len(s.points) == 2
        assert s.note == "excluded 2 non-positive distance value(s)"
        assert RateSeries(points=pts[:1], model_id="m", distance_kind="kolmogorov").note == ""

    def test_decades(self):
        assert power_series(1.0, -0.25).decades() == pytest.approx(3.0, abs=1e-15)
        single = RateSeries(
            points=((10, 10.0, 0.5, 0.0),), model_id="m", distance_kind="w1"
        )
        assert single.decades() == 0.0

    def test_array_views(self):
        s = power_series(2.0, -0.5, se=0.01)
        np.testing.assert_allclose(s.n_values, [10.0, 100.0, 1000.0, 10000.0])
        np.testing.assert_allclose(s.distances, 2.0 * s.n_values**-0.5)
        np.testing.assert_allclose(s.ses, 0.01)

    def test_verdict_gate_constants(self):
        assert MIN_POINTS == 4
        assert MIN_DECADES == 2.0


class TestFitExact:
    def test_exact_power_recovered_unweighted(self):
        r = fit([power_series(3.0, -0.25)], target=-0.25)
        assert abs(r.exponent - (-0.25)) <= 1e-12
        assert abs(r.intercept - math.log(3.0)) <= 1e-12
        assert r.ci_halfwidth <= 1e-12
        assert r.verdict == "consistent"
        assert r.points_used == 4
        assert (r.n_min, r.n_max) == (10, 10000)
        assert r.decades == pytest.approx(3.0, abs=1e-15)
        assert r.model_id == "synthetic"
        assert r.distance_kind == "kolmogorov"

    def test_exact_power_recovered_weighted(self):
        # all ses positive -> inverse-variance weights (d/se)^2; the line is
        # exact so the slope is unchanged and the ci comes from 1/sqrt(sxx)
        s = power_series(3.0, -0.25, se=0.01)
        r = fit([s], target=-0.25)
        assert abs(r.exponent - (-0.25)) <= 1e-12
        x = np.log(s.n_values)
        w = (s.distances / s.ses) ** 2
        xbar = float(np.sum(w * x) / np.sum(w))
        sxx = float(np.sum(w * (x - xbar) ** 2))
        assert r.ci_halfwidth == pytest.approx(1.96 / math.sqrt(sxx), rel=1e-12)
        assert r.verdict == "consistent"

    def test_constant_series_is_inconsistent(self):
        r = fit([power_series(0.5, 0.0)], target=-0.25)
        assert abs(r.exponent) <= 1e-12
        assert r.ci_halfwidth <= 1e-12
        assert r.verdict == "inconsistent"

    def test_negative_tolerance_rejected(self):
        with pytest.raises(DomainError, match="tolerance"):
            fit([power_series(1.0, -0.25)], target=-0.25, tolerance=-0.01)

    def test_verdict_uses_max_of_ci_and_tolerance(self):
        s = power_series(1.0, -0.25)  # exact, so ci ~ 0
        assert fit([s], target=-0.30, tolerance=0.04).verdict == "inconsistent"
        assert fit([s], target=-0.30, tolerance=0.06).verdict == "consistent"


class TestLogCorrection:
    def test_log_factor_stripped_exactly(self):
        # d = C n^{-1/2} log n: after removing log n the fit is an exact line
        s = power_series(0.8, -0.5, grid=(16, 64, 256, 1024, 4096), log_factor=True)
        r = fit([s], target=-0.5)
        assert abs(r.log_corrected_exponent - (-0.5)) <= 1e-12
        # the uncorrected slope absorbs part of the log factor
        assert r.exponent > -0.42
        assert r.verdict == "inconsistent"

    def test_log_corrected_fit_with_noise(self):
        rng = np.random.default_rng(20240817)
        grid = (16, 64, 256, 1024, 4096)
        pts = tuple(
            (n, float(n), 0.8 * n**-0.5 * math.log(n) * math.exp(0.01 * rng.standard_normal()), 0.0)
            for n in grid
        )
        r = fit([RateSeries(points=pts, model_id="m", distance_kind="w1")], target=-0.5)
        assert abs(r.log_corrected_exponent - (-0.5)) <= 0.02

    def test_log_correction_nan_below_two_usable_points(self):
        # only n >= 2 enters the corrected fit (log log n); here that is one point
        s = power_series(1.0, -0.25, grid=(1, 2))
        r = fit([s], target=-0.25)
        assert math.isnan(r.log_corrected_exponent)
        assert r.verdict == "inconclusive"


class TestVerdictGates:
    def test_three_points_inconclusive(self):
        r = fit([power_series(1.0, -0.25, grid=(10, 1000, 100000))], target=-0.25)
        assert r.points_used == 3
        assert r.verdict == "inconclusive"
        assert abs(r.exponent - (-0.25)) <= 1e-12  # the fit itself still runs

    def test_narrow_grid_inconclusive(self):
        r = fit([power_series(1.0, -0.25, grid=(100, 140, 200, 280, 400))], target=-0.25)
        assert r.decades < MIN_DECADES
        assert r.verdict == "inconclusive"

    @pytest.mark.parametrize("copies", [1, 3])
    def test_one_usable_point_is_inconclusive_for_any_seed_count(self, copies):
        pts = ((10, 10.0, 0.0, 0.0), (100, 100.0, 0.5, 0.0))
        series = [RateSeries(points=pts, model_id="m", distance_kind="w1")] * copies
        r = fit(series, target=-0.25)
        for value in (r.exponent, r.intercept, r.ci_halfwidth, r.log_corrected_exponent):
            assert math.isnan(value)
        assert r.verdict == "inconclusive"
        assert (r.points_used, r.n_min, r.n_max) == (1, 0, 0)
        assert r.note.endswith("too few usable points")
        assert r.meta == {}

    def test_too_few_usable_points_returns_nan_fit(self):
        pts = ((10, 10.0, 0.0, 0.0), (100, 100.0, 0.5, 0.0))
        r = fit([RateSeries(points=pts, model_id="m", distance_kind="w1")], target=-0.25)
        assert math.isnan(r.exponent)
        assert math.isnan(r.ci_halfwidth)
        assert r.verdict == "inconclusive"
        assert r.points_used == 1
        assert r.decades == 0.0
        assert r.note == "excluded 1 non-positive distance value(s); too few usable points"


class TestScaleInvariance:
    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_exponent_invariant_under_distance_rescaling(self, scale):
        # fixed per-point wobble so the fit has genuine residuals
        wobble = (1.05, 0.93, 1.08, 0.97)
        base = tuple(
            (n, float(n), w * n**-0.25, 0.0) for n, w in zip(WIDE_GRID, wobble)
        )
        scaled = tuple((n, v, scale * d, se) for n, v, d, se in base)
        r0 = fit([RateSeries(points=base, model_id="m", distance_kind="w1")], target=-0.25)
        r1 = fit([RateSeries(points=scaled, model_id="m", distance_kind="w1")], target=-0.25)
        assert abs(r1.exponent - r0.exponent) <= 1e-12
        assert abs(r1.ci_halfwidth - r0.ci_halfwidth) <= 1e-10
        assert r1.intercept - r0.intercept == pytest.approx(math.log(scale), abs=1e-10)
        assert r1.verdict == r0.verdict


class TestFitReplicated:
    def test_identical_series_recover_exact_power(self):
        series = [power_series(2.0, -0.25) for _ in range(8)]
        r = fit(series, target=-0.25)
        assert abs(r.exponent - (-0.25)) <= 1e-12
        assert r.ci_halfwidth <= 1e-12
        assert r.verdict == "consistent"
        assert r.meta["seeds"] == 8

    def test_noisy_seeds_average_out(self):
        rng = np.random.default_rng(991)
        series = []
        for _ in range(8):
            pts = tuple(
                (n, float(n), n**-0.25 * math.exp(0.02 * rng.standard_normal()), 0.0)
                for n in WIDE_GRID
            )
            series.append(RateSeries(points=pts, model_id="m", distance_kind="w1"))
        r = fit(series, target=-0.25)
        assert abs(r.exponent - (-0.25)) <= 0.02
        assert r.verdict == "consistent"
        assert r.ci_halfwidth > 0.0
        assert r.meta["log_corrected_ci_halfwidth"] >= 0.0

    def test_halfwidth_is_the_t_interval(self):
        # eight seeds: the 97.5 % quantile of Student's t with 7 degrees of
        # freedom is 2.364624251592784
        series = [power_series(1.0, -0.25 + 0.01 * j) for j in range(8)]
        slopes = np.array([fit([s], target=-0.25).exponent for s in series])
        r = fit(series, target=-0.25)
        expected = 2.364624251592784 * float(slopes.std(ddof=1)) / math.sqrt(8)
        assert abs(r.ci_halfwidth - expected) <= 1e-12 * expected

    def test_one_series_is_the_regression_fit_with_empty_meta(self):
        # residuals make the slope SE nonzero, so the 1.96 x SE rule shows
        wobble = (1.05, 0.93, 1.08, 0.97)
        pts = tuple((n, float(n), w * n**-0.25, 0.0) for n, w in zip(WIDE_GRID, wobble))
        r = fit([RateSeries(points=pts, model_id="m", distance_kind="w1")], target=-0.25)
        x = np.log(np.array(WIDE_GRID, dtype=float))
        y = np.log([p[2] for p in pts])
        (slope, intercept), cov = np.polyfit(x, y, 1, cov="unscaled")
        rss = float(np.sum((y - slope * x - intercept) ** 2))
        se = math.sqrt(rss / (len(x) - 2) * cov[0, 0])
        assert r.exponent == pytest.approx(slope, rel=1e-12)
        assert r.intercept == pytest.approx(intercept, rel=1e-12)
        assert r.ci_halfwidth == pytest.approx(1.96 * se, rel=1e-10)
        assert r.meta == {}

    def test_copies_of_one_series_fit_like_the_series(self):
        s = power_series(0.8, -0.5, grid=(16, 64, 256, 1024, 4096), log_factor=True)
        one = fit([s], target=-0.5)
        three = fit([s, s, s], target=-0.5)
        for name in ("exponent", "intercept", "log_corrected_exponent"):
            assert getattr(three, name) == pytest.approx(getattr(one, name), rel=1e-14), name
        assert abs(three.log_corrected_exponent - (-0.5)) <= 1e-12
        assert three.meta["seeds"] == 3

    def test_rejects_mismatched_grids(self):
        series = [
            power_series(1.0, -0.25),
            power_series(1.0, -0.25, grid=(10, 100, 1000, 20000)),
        ]
        with pytest.raises(ConfigurationError, match="n-grid"):
            fit(series, target=-0.25)
        with pytest.raises(ConfigurationError, match="n-grid"):
            fit([], target=-0.25)

    def test_identity_comes_from_first_series(self):
        series = [
            power_series(1.0, -0.25, model_id="first", distance_kind="w1"),
            power_series(2.0, -0.25, model_id="second", distance_kind="w1"),
        ]
        r = fit(series, target=-0.25)
        assert r.model_id == "first"
        assert r.distance_kind == "w1"
        assert (r.n_min, r.n_max) == (10, 10000)


class TestCsvRows:
    def make_results(self):
        r1 = fit([power_series(3.0, -0.25)], target=-0.25)
        r2 = fit([power_series(2.0, -0.25) for _ in range(3)], target=-0.25)
        return [r1, r2]

    def test_header_and_shape(self):
        text = results_to_csv(self.make_results())
        lines = text.splitlines()
        assert lines[0] == ",".join(RATEFIT_CSV_COLUMNS)
        assert len(lines) == 3
        assert text.endswith("\n")

    def test_float_fields_roundtrip_and_note_quoted(self):
        r = fit([power_series(3.0, -0.25)], target=-0.25)
        row = results_to_csv([r]).splitlines()[1]
        fields = row.split(",")
        assert len(fields) == len(RATEFIT_CSV_COLUMNS)
        assert fields[0] == "synthetic"
        assert fields[1] == "kolmogorov"
        assert int(fields[2]) == r.points_used
        assert (int(fields[3]), int(fields[4])) == (r.n_min, r.n_max)
        assert float(fields[6]) == r.exponent
        assert float(fields[7]) == r.intercept
        assert float(fields[10]) == r.target_exponent
        assert fields[12] == r.verdict
        assert fields[13] == '"' + r.note + '"'

    def test_note_with_quotes_and_commas_reads_back(self):
        r = dataclasses.replace(fit([power_series(3.0, -0.25)], target=-0.25), note='a "b", c')
        header, row = csv.reader(results_to_csv([r]).splitlines())
        assert len(header) == len(row) == 14
        assert row[13] == 'a "b", c'


SRC = Path(cltlab.__file__).resolve().parents[1]


def fresh_python(code, *args):
    """The last stdout line of code run in a new interpreter with args as argv[1:]."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=SRC,
    )
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a second to import and every CLI run pays it
    assert fresh_python("import sys, cltlab.cli; print('scipy.stats' in sys.modules)") == "False"


# runs one CLI command, then reports its exit code and whether it loaded scipy.special
CLI_THEN_SPECIAL = (
    "import sys, cltlab.cli; rc = cltlab.cli.main(sys.argv[1:]); "
    "print(rc, 'scipy.special' in sys.modules)"
)


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special costs about 0.3 s and 20 MB; only the t quantile of
    # fit_seeds > 1 loads it
    assert fresh_python("import sys, cltlab.cli; print('scipy.special' in sys.modules)") == "False"


# a config whose rate fit pools two seeds, so it takes a Student-t quantile
FIT_SEEDS_2 = {
    "schema_version": 1, "model": {"family": "gaussian_iid", "n": 16, "p": 3.0, "params": {}},
    "n_grid": [16, 32], "replicates": 200, "master_seed": 7, "outputs": "out",
    "bound_requests": [], "fit_seeds": 2,
}


# Phi, J and Phi^-1 come from numerics' own port of Cephes, ce's Gaussian
# draws included, so only a rate fit over several seeds loads scipy.special
@pytest.mark.parametrize(
    "args, loaded",
    [(("bounds", "--model", "rho_mixing_chain", "--n-grid", "16,32", "--a", "auto"), "False"),
     (("simulate", "--model", "ce_lowerbound", "--n-grid", "32", "--reps", "100"), "False"),
     (("distance", "--model", "ce_lowerbound", "--n-grid", "64,256", "--reps", "200"), "False"),
     (("verify-ce", "--n-grid", "64", "--reps", "200"), "False"),
     (("distance", "--model", "gaussian_iid", "--n-grid", "16,32", "--reps", "200"), "False"),
     (("distance", "--model", "rho_mixing_chain", "--n-grid", "16,32", "--reps", "200"), "False"),
     (("ratefit", "--model", "linear_ar1", "--n-grid", "16,32", "--reps", "200"), "False"),
     (("ratefit", "--config", "FIT_SEEDS_2"), "True"),
     (("bounds", "--model", "ce_lowerbound", "--n-grid", "64,256"), "False")],
    ids=("chain_bounds", "ce_simulate", "ce_distance", "verify_ce", "gaussian_distance",
         "chain_distance", "ar1_ratefit", "ratefit_two_seeds", "ce_bounds"),
)
def test_scipy_special_loads_only_where_phi_is_evaluated(tmp_path, args, loaded):
    config = tmp_path / "fit_seeds_2.json"
    config.write_text(json.dumps(FIT_SEEDS_2), encoding="utf-8")
    args = [str(config) if a == "FIT_SEEDS_2" else a for a in args]
    assert fresh_python(CLI_THEN_SPECIAL, *args, "--out", str(tmp_path / "out")) == f"0 {loaded}"


def test_no_module_imports_scipy_at_module_level():
    # every scipy name goes through numerics.scipy_special, imported on first
    # call; only statements that run at import time are checked, not the
    # bodies of functions
    def import_time_nodes(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            yield from import_time_nodes(ast.iter_child_nodes(node))

    offenders = []
    for path in sorted((SRC / "cltlab").rglob("*.py")):
        for node in import_time_nodes(ast.parse(path.read_text(encoding="utf-8")).body):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_no_module_reads_the_environment():
    # every setting comes from the config or a flag, so the manifest's config
    # hash describes the run completely
    hidden = {"environ", "environb", "getenv", "getenvb", "putenv"}
    offenders = []
    for path in sorted((SRC / "cltlab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in hidden:
                if isinstance(node.value, ast.Name) and node.value.id == "os":
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(alias.name in hidden for alias in node.names):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
