"""Acceptance ladder: one test per advertised guarantee of the package.

Each test prints a one-line summary of the measured quantities next to its
threshold.  The heavy Monte Carlo batches are shared through module-scoped
fixtures, and every run is fully deterministic in the master seeds below.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cltlab import bounds as _bounds
from cltlab import ratefit as _ratefit
from cltlab.cli import main as cli_main
from cltlab.distances import (
    EmpiricalSample,
    TRANSFER_CONSTANT,
    compute_report,
    w1_vs_normal,
)
from cltlab.models import ModelSpec, atom_fraction, make_model
from cltlab.numerics import (
    integral_of_phi,
    normal_abs_moment,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    quadrature,
    splitmix64,
)
from helpers import ChainEnumeration, chain_autocovariance, psi_n, u_ln_mc, w1_by_quadrature

CE_GRID = (64, 256, 1024)
CE_REPLICATES = 500_000
CE_SEED = 11

RADEMACHER_GRID = tuple(2**k for k in range(7, 14))
RADEMACHER_REPLICATES = 200_000
RADEMACHER_SEED = 5

LINEAR_GRID = (24, 48, 96, 192, 384)
LINEAR_REPLICATES = 200_000
LINEAR_SEEDS = tuple(range(100, 108))
LINEAR_PARAMS = {
    "base": {"kind": "ar1", "phi": 0.5},
    "coefficients": {"rule": "constant", "kappa": 1.0},
    "normalization": "limit",
}

CHAIN_GRID = (128, 256, 512, 1024, 2048)
CHAIN_REPLICATES = 50_000
CHAIN_SEED = 7

SEQDYN_GRID = (8, 16, 32, 64, 128)
SEQDYN_REPLICATES = 200_000
SEQDYN_SEED = 13
SEQDYN_PARAMS = {"observable": "cos1", "multipliers": {"rule": "cycle", "values": [2, 3]}}


def _grid_reports(family, grid, p, params, reps, seed, keep_values=False):
    """(n, model, report[, values]) tuples for one family over an n-grid."""
    runs = []
    for i, n in enumerate(grid):
        model = make_model(ModelSpec(family=family, n=n, p=p, params=dict(params)))
        values = model.statistic_values(seed, reps, block=i)
        report = compute_report(EmpiricalSample.from_values(values), model.model_id, n, p)
        runs.append((n, model, report, values) if keep_values else (n, model, report))
    return runs


@pytest.fixture(scope="module")
def ce_runs():
    return _grid_reports(
        "ce_lowerbound", CE_GRID, 3.0, {}, CE_REPLICATES, CE_SEED, keep_values=True
    )


@pytest.fixture(scope="module")
def rademacher_runs():
    return _grid_reports(
        "rademacher_iid", RADEMACHER_GRID, 3.0, {}, RADEMACHER_REPLICATES, RADEMACHER_SEED
    )


@pytest.fixture(scope="module")
def chain_runs():
    return _grid_reports(
        "rho_mixing_chain", CHAIN_GRID, 3.0, {}, CHAIN_REPLICATES, CHAIN_SEED
    )


@pytest.fixture(scope="module")
def seqdyn_runs():
    return _grid_reports(
        "sequential_maps", SEQDYN_GRID, 3.0, SEQDYN_PARAMS,
        SEQDYN_REPLICATES, SEQDYN_SEED, keep_values=True,
    )


def test_criterion_01_ce_kolmogorov_floor(ce_runs):
    """Lower-bound family keeps the Kolmogorov distance above 0.06 n^(-1/4)."""
    margins = []
    for n, model, report, _ in ce_runs:
        threshold = 0.06 * n ** -0.25
        margin = report.kolmogorov - (threshold - 3.0 * report.kolmogorov_se)
        margins.append(margin)
        assert margin >= 0.0, (
            f"n={n}: kolmogorov {report.kolmogorov:.5f} fell below "
            f"{threshold:.5f} - 3*{report.kolmogorov_se:.5f}"
        )
    print(f"criterion 01: min slack {min(margins):+.5f} over n={CE_GRID}")


def test_criterion_02_ce_atom_floor(ce_runs):
    """Exact-zero mass stays above 0.12 n^(-1/4); zeros come from symbolic
    cancellation, never from float round-off."""
    margins = []
    for n, model, report, values in ce_runs:
        frac, se = atom_fraction(values)
        threshold = 0.12 * n ** -0.25
        margin = frac - (threshold - 3.0 * se)
        margins.append(margin)
        assert margin >= 0.0, f"n={n}: atom {frac:.5f} below {threshold:.5f} - 3*{se:.5f}"

    # the atom is bookkept symbolically: rows whose cancelling branch fires
    # give exactly 0.0 even though naive float summation leaves dust behind
    n, model = CE_GRID[0], ce_runs[0][1]
    reps = 4000
    stats = model.statistic_values(CE_SEED, reps, block=50)
    rows = model.increment_matrix(CE_SEED, reps, block=50)
    zero = stats == 0.0
    assert np.count_nonzero(zero) > 0
    naive = rows[zero].sum(axis=1)
    assert np.all(np.abs(naive) <= 1e-9)
    assert np.any(naive != 0.0), "naive sums all exact: cancellation check is vacuous"
    print(
        f"criterion 02: min slack {min(margins):+.5f}; "
        f"{np.count_nonzero(zero)} symbolic zeros vs max naive dust "
        f"{np.max(np.abs(naive)):.2e}"
    )


def test_criterion_03_ce_moment_cap_and_conditional_moments():
    """Per-increment p-th moments stay under the advertised cap, and the
    post-split increments have conditional mean 0 / variance 1 in every bin."""
    n, reps = 256, 50_000
    details = []
    for j, p in enumerate((2.5, 3.0)):
        model = make_model(ModelSpec(family="ce_lowerbound", n=n, p=p, params={}))
        cp = model.params
        rows = model.increment_matrix(CE_SEED, reps, block=60 + j)

        abs_p = np.abs(rows) ** p
        means = abs_p.mean(axis=0)
        k_star = int(np.argmax(means))
        moment = float(means[k_star])
        se = float(abs_p[:, k_star].std(ddof=1) / math.sqrt(reps))
        cap = normal_abs_moment(p) + 5.0 ** (p - 2.0)
        assert moment <= cap + 3.0 * se, f"p={p}: max moment {moment:.4f} > cap {cap:.4f}"
        details.append(f"p={p}: max E|X|^p {moment:.4f} <= {cap:.4f}")

        # conditional moments of the branch increments, binned on |S_m|
        s_m = rows[:, : cp.m].sum(axis=1)
        on_branch = (np.abs(s_m) >= cp.a) & (np.abs(s_m) <= 2.0 * cp.a)
        branch = rows[on_branch, cp.m :]
        edges = np.linspace(cp.a, 2.0 * cp.a, 5)
        which = np.digitize(np.abs(s_m[on_branch]), edges[1:-1])
        for b in range(4):
            vals = branch[which == b].ravel()
            assert vals.size >= 1000, f"p={p}: bin {b} too thin ({vals.size})"
            mean_se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean()) <= 3.0 * mean_se, (
                f"p={p} bin {b}: conditional mean {vals.mean():+.5f} "
                f"exceeds 3*{mean_se:.5f}"
            )
            sq = vals**2
            var_se = sq.std(ddof=1) / math.sqrt(sq.size)
            assert abs(sq.mean() - 1.0) <= 3.0 * var_se, (
                f"p={p} bin {b}: conditional variance {sq.mean():.5f} "
                f"is off 1 by more than 3*{var_se:.5f}"
            )
    print(f"criterion 03: {';  '.join(details)} (4 bins each, all within 3 SE)")


def test_criterion_04_transfer_inequality(ce_runs, rademacher_runs, chain_runs, seqdyn_runs):
    """Every measured report obeys the Kolmogorov-from-W1 transfer bound."""
    reports = [run[2] for runs in (ce_runs, rademacher_runs, chain_runs, seqdyn_runs)
               for run in runs]
    worst = -math.inf
    for rep in reports:
        assert rep.p == 3.0
        rhs = TRANSFER_CONSTANT * math.sqrt(rep.w1) + 3.0 * (rep.kolmogorov_se + rep.w1_se)
        worst = max(worst, rep.kolmogorov - rhs)
        assert rep.transfer_holds(), (
            f"{rep.model_id} n={rep.n}: kolmogorov {rep.kolmogorov:.5f} "
            f"breaks transfer bound {rhs:.5f}"
        )
        assert rep.kolmogorov <= rhs
    print(f"criterion 04: {len(reports)} reports, worst transfer slack {-worst:.5f}")


def test_criterion_05_rademacher_exponent_and_envelope(rademacher_runs):
    """Independent signed steps converge at the iid rate and never beat the
    quarter-power bound shape by a growing factor."""
    pts = tuple(
        (n, float(n), rep.kolmogorov, rep.kolmogorov_se) for n, _, rep in rademacher_runs
    )
    series = _ratefit.RateSeries(
        points=pts, model_id="rademacher_iid", distance_kind="kolmogorov"
    )
    result = _ratefit.fit([series], target=-0.5, tolerance=0.10)
    assert abs(result.exponent - (-0.5)) <= 0.10, (
        f"kolmogorov exponent {result.exponent:.4f} not within 0.10 of -0.50"
    )
    # the 2^7..2^13 grid spans 1.81 decades, inside the fitter's conservative
    # verdict gate (2 decades), so the enum stays "inconclusive" by design;
    # the quantitative window above is the acceptance target
    assert result.verdict != "inconsistent"

    shapes = [ _bounds.berry_esseen_bound(3.0, model).total
               for _, model, _ in rademacher_runs ]
    ratios = [rep.kolmogorov / s for (_, _, rep), s in zip(rademacher_runs, shapes)]
    c_env = max(ratios)
    for (n, _, rep), s in zip(rademacher_runs, shapes):
        assert rep.kolmogorov <= c_env * s * (1.0 + 1e-12)
    assert ratios[-1] <= ratios[0], (
        f"measured/bound ratio grew along the grid: {ratios[0]:.4f} -> {ratios[-1]:.4f}"
    )
    print(
        f"criterion 05: exponent {result.exponent:+.4f} (ci {result.ci_halfwidth:.4f}), "
        f"envelope constant {c_env:.4f}, edge ratios {ratios[0]:.4f} -> {ratios[-1]:.4f}"
    )


def test_criterion_06_linear_statistic_log_rate():
    """AR(1) running averages reach the root-n rate after removing one log
    factor, and sit under a single multiple of n^(-1/2) log n on the grid."""
    per_seed = []
    w1_by_n = np.zeros(len(LINEAR_GRID))
    for seed in LINEAR_SEEDS:
        pts = []
        for i, n in enumerate(LINEAR_GRID):
            model = make_model(
                ModelSpec(family="linear_statistic", n=n, p=3.0, params=LINEAR_PARAMS)
            )
            values = model.statistic_values(seed, LINEAR_REPLICATES, block=i)
            report = compute_report(
                EmpiricalSample.from_values(values), model.model_id, n, 3.0
            )
            pts.append((n, model.moments().v_n, report.w1, report.w1_se))
            w1_by_n[i] += report.w1 / len(LINEAR_SEEDS)
        per_seed.append(
            _ratefit.RateSeries(
                points=tuple(pts), model_id="linear_ar1", distance_kind="w1"
            )
        )
    result = _ratefit.fit(per_seed, target=-0.5, tolerance=0.05)
    bc = result.log_corrected_exponent
    bc_ci = float(result.meta["log_corrected_ci_halfwidth"])
    assert bc + bc_ci <= -0.40, (
        f"log-corrected exponent {bc:.4f} + ci {bc_ci:.4f} does not reach -0.40"
    )

    shape = np.array([math.log(n) / math.sqrt(n) for n in LINEAR_GRID])
    ratios = w1_by_n / shape
    c_env = float(ratios.max())
    assert np.all(w1_by_n <= c_env * shape * (1.0 + 1e-12))
    assert ratios[-1] <= ratios[0], (
        f"w1/(n^-1/2 log n) grew along the grid: {ratios[0]:.4f} -> {ratios[-1]:.4f}"
    )
    print(
        f"criterion 06: log-corrected exponent {bc:+.4f} +/- {bc_ci:.4f} "
        f"({len(LINEAR_SEEDS)} seeds), envelope constant {c_env:.4f}"
    )


def test_criterion_07_chain_window_constant_and_bound_ratio(chain_runs):
    """Two-state chain: exact variance-window constant stays under the
    spectral ceiling 3 for every n up to 2^13, and measured W1 tracks the
    mixing bound within a factor-5 band across the grid."""
    n_max = 2**13
    model = make_model(
        ModelSpec(family="rho_mixing_chain", n=n_max, p=3.0, params={})
    )
    gam = np.array([chain_autocovariance(model, d) for d in range(n_max)])
    w = np.arange(1, n_max + 1, dtype=float)
    # Var(S_w) = w*gamma_0 + 2*sum_{d=1}^{w-1} (w-d) gamma_d, via cumulants
    tail_a = np.concatenate(([0.0], np.cumsum(gam[1:])))          # sum_{d<=w-1} gamma_d
    tail_b = np.concatenate(([0.0], np.cumsum(np.arange(1, n_max) * gam[1:])))
    var_w = w * gam[0] + 2.0 * (w * tail_a - tail_b)
    ratios_w = w * gam[0] / var_w
    c_max = float(ratios_w.max())
    assert c_max <= 3.0 + 1e-12, f"window constant {c_max:.6f} exceeds 3"
    assert abs(model.c_n() - c_max) <= 1e-9  # scan agrees with the model oracle

    normalized = []
    for n, m, rep in chain_runs:
        w1_unnormalized = rep.w1 * math.sqrt(m.moments().v_n)
        bound = _bounds.rho_mixing_bound(m).total
        normalized.append(w1_unnormalized / bound)
    band = max(normalized) / min(normalized)
    assert band <= 5.0, f"W1/bound series spans a factor {band:.2f} > 5"
    print(
        f"criterion 07: max window constant {c_max:.6f} <= 3 (n <= {n_max}), "
        f"W1/bound band {band:.3f} <= 5"
    )


def test_criterion_08_seqdyn_variance_and_decay(seqdyn_runs):
    """Doubling/tripling circle maps: exact flat variance ladder matches the
    sampled variance, and W1 decays under the double-log bound shape."""
    for n, model, rep, values in seqdyn_runs:
        exact = model.exact_vn()
        assert abs(exact - n) <= 1e-9 * n
        sums = values * model.statistic_normalizer()
        var_hat = float(sums.var(ddof=1))
        centered = sums - sums.mean()
        se_var = math.sqrt(
            (np.mean(centered**4) - var_hat**2) / len(sums)
        )
        assert abs(var_hat - exact) <= 3.0 * se_var, (
            f"n={n}: sampled Var(S_n) {var_hat:.4f} off exact {exact:.4f} "
            f"by more than 3*{se_var:.4f}"
        )

    w1s = [rep.w1 for _, _, rep, _ in seqdyn_runs]
    assert all(b < a for a, b in zip(w1s, w1s[1:])), f"W1 not decreasing: {w1s}"

    shapes = [
        _bounds.seqdyn_bound(model).total / math.sqrt(n)
        for n, model, _, _ in seqdyn_runs
    ]
    ratios = [w / s for w, s in zip(w1s, shapes)]
    c_env = max(ratios)
    for w, s in zip(w1s, shapes):
        assert w <= c_env * s * (1.0 + 1e-12)
    assert ratios[-1] <= ratios[0]
    print(
        f"criterion 08: W1 {w1s[0]:.4f} -> {w1s[-1]:.4f} decreasing over n={SEQDYN_GRID}, "
        f"envelope constant {c_env:.4f}"
    )


def test_criterion_09_oracle_equivalences():
    """Independent oracles agree with the production code paths."""
    # W1 against an adaptive-quadrature integral of |F_hat - Phi|
    rng = np.random.default_rng(2024)
    worst_w1 = 0.0
    for trial in range(200):
        size = int(rng.integers(3, 65))
        kind = trial % 3
        if kind == 0:
            x = rng.standard_normal(size)
        elif kind == 1:
            x = rng.uniform(-3.0, 3.0, size)
        else:
            x = np.round(rng.standard_normal(size) * 2.0) / 2.0
        gap = abs(
            w1_vs_normal(EmpiricalSample.from_values(x)) - w1_by_quadrature(x)
        )
        worst_w1 = max(worst_w1, gap)
    assert worst_w1 <= 1e-8

    # conditional-fluctuation statistic vs exhaustive 2^6-path enumeration
    chain_params = {
        "transition": [[0.7, 0.3], [0.2, 0.8]],
        "state_values": [1.0, -0.5],
    }
    model = make_model(
        ModelSpec(family="rho_mixing_chain", n=6, p=3.0, params=chain_params)
    )
    oracle = ChainEnumeration(np.asarray(chain_params["transition"]),
                              np.asarray(chain_params["state_values"]), model.pi, 6)
    worst_u = 0.0
    for ell in (2, 4, 6):
        mc, se = u_ln_mc(ell, 3.0, model, replicates=20_000, master_seed=17)
        assert se > 0.0
        gap = abs(mc - oracle.u_ell(ell, 3.0))
        worst_u = max(worst_u, gap / se)
        assert gap <= 3.0 * se + 1e-12, f"u_ln ell={ell}: {gap:.5f} > 3*{se:.5f}"

    # closed-form psi profiles vs Monte Carlo resampling
    worst_psi = 0.0
    for family, params, ts in (
        ("gaussian_iid", {}, (0.5, 2.0)),
        ("rho_mixing_chain", {}, (1.0,)),
    ):
        m = make_model(ModelSpec(family=family, n=16, p=3.0, params=params))
        for t in ts:
            closed, _, is_exact = psi_n(t, m)
            assert is_exact
            mc, se, _ = psi_n(t, m, mode="monte_carlo", replicates=20_000, master_seed=23)
            # the chain profile is attained at an a.s.-constant increment, so
            # its Monte Carlo SE collapses; keep an absolute one-ulp floor
            gap = abs(mc - closed)
            worst_psi = max(worst_psi, gap / max(se, 1e-12))
            assert gap <= 3.0 * se + 1e-12, f"{family} t={t}: psi {gap:.5f} > 3*{se:.5f}"

    # numerics golden values
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert abs(normal_cdf(1.0) - 0.8413447460685429) <= 1e-15
    assert abs(integral_of_phi(1.0) - 1.0833154705876863) <= 1e-15
    assert abs(normal_abs_moment(3.0) - 2.0 * math.sqrt(2.0 / math.pi)) <= 1e-15
    assert abs(normal_quantile(0.975) - 1.959963984540054) <= 1e-12
    assert abs(quadrature(normal_pdf, -10.0, 10.0) - 1.0) <= 1e-10
    print(
        f"criterion 09: w1 gap {worst_w1:.2e} <= 1e-8; u_ln worst {worst_u:.2f} SE; "
        f"psi worst {worst_psi:.2f} SE; numerics goldens exact"
    )


def test_criterion_10_reproducible_artifacts(tmp_path):
    """Same master seed, same bytes: every CSV artifact is rerun-stable."""
    checked = []
    jobs = (
        ("distance", ["--model", "rademacher_iid", "--n-grid", "32,64",
                      "--reps", "2000", "--seed", "3"], ("distances.csv",)),
        ("bounds", ["--model", "rademacher_iid", "--n-grid", "16",
                    "--reps", "100", "--seed", "3"], ("bounds.csv",)),
        ("ratefit", ["--model", "rademacher_iid", "--n-grid", "32,64",
                     "--reps", "2000", "--seed", "3"], ("ratefit.csv", "distances.csv")),
    )
    for command, flags, artifacts in jobs:
        first = tmp_path / f"{command}_first"
        again = tmp_path / f"{command}_again"
        for out in (first, again):
            rc = cli_main([command, *flags, "--out", str(out)])
            assert rc == 0
        for name in artifacts:
            b1 = (first / name).read_bytes()
            b2 = (again / name).read_bytes()
            assert b1 == b2, f"{command}/{name} differs between identical runs"
            checked.append(f"{command}/{name} ({len(b1)} bytes)")
    print(f"criterion 10: byte-identical reruns for {', '.join(checked)}")
