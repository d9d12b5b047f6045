"""End-to-end acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Monte Carlo criteria fix base seed 0 so every run reproduces the same numbers.
Replicates whose empirical threshold is ambiguous (boundary tie) are excluded
from the Monte Carlo means; each line reports the effective sample size where
it differs from the nominal replicate count.
"""

import dataclasses
import hashlib
import os
import time
import warnings

import numpy as np
import pytest

import exindex as ex
from exindex.estimate import _combine
from exindex.sim import map_replicates


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(f"\n{line}")
    return line


def test_criterion_01_hand_count_exactness():
    start = time.perf_counter()
    x = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0]
    b = ex.blocks_fixed(x, 3, 3.5)
    rr = ex.runs_estimator(x, 2, 3.5)
    elapsed = time.perf_counter() - start
    ok = b == 2.0 / 3.0 and rr == 0.5 and elapsed < 1.0
    line = _report(1, ok, f"blocks {b:.12g} (want 2/3), runs {rr:.12g} (want 0.5), {elapsed:.3f}s < 1s")
    assert ok, line


def test_criterion_02_bias_annihilation_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    done = 0
    while done < 1000:
        theta = float(rng.uniform(0.05, 0.99))
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.5))
        delta = float(rng.choice([0.3, 0.5, 1.0, 2.0]))
        kind = done % 3
        if kind == 0:
            p, q = np.sort(rng.uniform(0.1, 1.0, size=2))
            if p == q:
                continue
            mu = ex.two_atom_measure(float(p), float(q), float(rng.uniform(1.5, 4.0)))
        elif kind == 1:
            mu = ex.product_measure(
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(1.5, 4.0)),
                float(rng.uniform(1.5, 4.0)),
                int(rng.integers(1, 6)),
            )
        else:
            mu = ex.scale_measure(
                ex.two_atom_measure(0.4, 0.9, 2.0), float(rng.uniform(0.3, 1.0))
            )
        est = ex.corrected_estimate(lambda t: theta + c * t**delta, mu)
        worst = max(worst, abs(est - theta))
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    line = _report(2, ok, f"1000 tuples, worst |error| {worst:.2e} <= 1e-10, {elapsed:.2f}s < 5s")
    assert ok, line


def _wn_estimates(model, n, r, k, replicates, t=1.0):
    """Empirical-threshold estimates at level t, skipping boundary-tied replicates."""
    vals = []
    for rep in range(replicates):
        x = ex.generate(model, n, ex.substream(0, rep))
        try:
            vals.append(ex.BlocksEvaluator(x.values, r, k)(t))
        except ex.TiesDetected:
            pass
    return np.asarray(vals)


def test_criterion_03_wn_oracle_agreement():
    start = time.perf_counter()
    model = ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01())
    vals = _wn_estimates(model, 20_000, 10, 200, 500)
    oracle = ex.theta_nt_wn(0.6, 10, 0.01, 1.0)
    bias = float(vals.mean() - oracle)
    band = 3.0 * float(vals.std(ddof=1)) / np.sqrt(500)
    elapsed = time.perf_counter() - start
    ok = abs(bias) <= band and elapsed < 120.0
    line = _report(
        3,
        ok,
        f"|MC mean - {oracle:.4f}| = {abs(bias):.5f} <= 3 SE {band:.5f} "
        f"(n_eff {vals.size}/500, {elapsed:.1f}s < 2 min)",
    )
    assert ok, line


def test_criterion_04_bias_reduction_wn():
    start = time.perf_counter()
    model = ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01())
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)
    theta_n = ex.bias_expansion_wn(0.6, 20, 0.02).theta_n
    evaluators = []
    raw, corr = [], []
    for rep in range(500):
        x = ex.generate(model, 20_000, ex.substream(0, rep))
        ev = ex.BlocksEvaluator(x.values, 20, 400)
        evaluators.append(ev)
        try:
            raw.append(ev(1.0))
        except ex.TiesDetected:
            pass
        try:
            corr.append(ex.corrected_estimate(ev, mu))
        except (ex.TiesDetected, ex.DegenerateDenominator):
            pass
    raw_bias = float(np.mean(raw)) - theta_n
    corr_bias = float(np.mean(corr)) - theta_n
    budget = 0.5 * abs(raw_bias)
    ok = abs(corr_bias) <= budget

    # diagnostic: correcting the tie-free MC mean curve instead of averaging
    # per-replicate corrections overshoots; reported but not asserted
    def mean_curve(t):
        vals = []
        for ev in evaluators:
            try:
                vals.append(ev(t))
            except ex.TiesDetected:
                pass
        return float(np.mean(vals))

    try:
        diag = f"{ex.corrected_estimate(mean_curve, mu) - theta_n:+.4f}"
    except ex.DegenerateDenominator:
        diag = "degenerate"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 180.0
    line = _report(
        4,
        ok,
        f"corrected bias {corr_bias:+.4f}, budget half raw bias {budget:.4f} "
        f"(raw {raw_bias:+.4f}, n_eff corr {len(corr)}/500 raw {len(raw)}/500; "
        f"mean-curve diagnostic {diag}; {elapsed:.1f}s < 3 min)",
    )
    assert ok, line


def test_criterion_05_iid_oracle():
    start = time.perf_counter()
    model = ex.IID(innovation=ex.Uniform01())
    marg = model.marginal
    cfg = ex.EstimatorConfig(r=10, k=200)
    vals = np.array(
        [
            ex.blocks_true_quantile(
                ex.generate(model, 20_000, ex.substream(0, rep)).values,
                cfg, 1.0, marg.quantile,
            )
            for rep in range(500)
        ]
    )
    oracle = ex.theta_nt_wn(0.0, 10, 0.01, 1.0)
    bias = float(vals.mean() - oracle)
    band = 3.0 * float(vals.std(ddof=1)) / np.sqrt(500)
    elapsed = time.perf_counter() - start
    ok = abs(bias) <= band and elapsed < 120.0
    line = _report(
        5,
        ok,
        f"|MC mean - {oracle:.4f}| = {abs(bias):.5f} <= 3 SE {band:.5f} ({elapsed:.1f}s < 2 min)",
    )
    assert ok, line


def test_criterion_06_figure_qualitative_reproduction():
    start = time.perf_counter()
    grid = tuple(np.round(np.linspace(0.2, 1.0, 81), 10))
    cfg = ex.ExperimentConfig(
        model=ex.AR1Cauchy(phi=0.6),
        n=20_000,
        r_list=(5, 10, 20),
        k=2000,
        t_grid=grid,
        measure=ex.two_atom_measure(0.5, 1.0, 2.0),
        replicates=100,
        base_seed=0,
    )
    res = ex.run(cfg)
    garr = np.asarray(grid)
    probe = [int(np.argmin(np.abs(garr - t))) for t in (0.25, 0.5, 0.75, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        raw_mean = {r: np.nanmean(res.raw[r], axis=0) for r in cfg.r_list}
        corr_mean = {r: np.nanmean(res.corrected[r], axis=0) for r in cfg.r_list}
    ordered = all(
        raw_mean[5][i] < raw_mean[10][i] < raw_mean[20][i] for i in probe
    )
    mad = lambda curve: float(np.mean(np.abs(curve - 0.4)))
    reductions = {r: 1.0 - mad(corr_mean[r]) / mad(raw_mean[r]) for r in cfg.r_list}
    rng_ratio = {
        r: float(np.ptp(corr_mean[r]) / np.ptp(raw_mean[r])) for r in cfg.r_list
    }
    ok_i = ordered
    ok_ii = all(reductions[r] >= 0.30 for r in cfg.r_list)
    ok_iii = all(rng_ratio[r] <= 0.5 for r in cfg.r_list)
    elapsed = time.perf_counter() - start
    ok = ok_i and ok_ii and ok_iii and elapsed < 600.0
    line = _report(
        6,
        ok,
        f"(i) raw means increasing in r: {ok_i}; "
        f"(ii) MAD reduction >= 30%: {ok_ii} "
        f"({', '.join(f'r={r}: {100 * reductions[r]:+.0f}%' for r in cfg.r_list)}); "
        f"(iii) range ratio <= 0.5: {ok_iii} "
        f"({', '.join(f'r={r}: {rng_ratio[r]:.2f}' for r in cfg.r_list)}); "
        f"{elapsed:.1f}s < 10 min",
    )
    assert ok, line


def _criterion_06_config() -> ex.ExperimentConfig:
    """Criterion 6's config and seed, for the tests that explain its failure."""
    return ex.ExperimentConfig(
        model=ex.AR1Cauchy(phi=0.6),
        n=20_000,
        r_list=(5, 10, 20),
        k=2000,
        t_grid=tuple(np.round(np.linspace(0.2, 1.0, 81), 10)),
        measure=ex.two_atom_measure(0.5, 1.0, 2.0),
        replicates=100,
        base_seed=0,
    )


def test_criterion_06_fails_because_each_r_targets_its_own_intercept():
    # Why criterion 6 (ii) fails, on its own config: each r's mean raw curve is
    # close to a_r + b_r t with a_r = theta + (1 - theta) / r, not theta.  The
    # correction removes the t-term only, so even an exact one leaves the
    # constant a_r, whose distance from 0.4 is not 30% below the raw curve's
    # mean distance for r = 5 and r = 10.
    theta = 0.4
    cfg = _criterion_06_config()
    grid = cfg.t_grid
    res = ex.run(cfg)
    fits, reductions = {}, {}
    for r in cfg.r_list:
        raw_mean = res.raw[r].mean(axis=0)  # AR(1) Cauchy has no ties: every cell is defined
        assert not np.isnan(raw_mean).any()
        fits[r] = np.polynomial.polynomial.polyfit(np.asarray(grid), raw_mean, 1)
        exact = abs(fits[r][0] - theta)  # MAD of the constant curve a_r against theta
        reductions[r] = 1.0 - exact / float(np.mean(np.abs(raw_mean - theta)))
    a = {r: fits[r][0] for r in cfg.r_list}
    b = {r: fits[r][1] for r in cfg.r_list}
    assert a[5] > a[10] > a[20]
    for r in cfg.r_list:
        assert abs(a[r] - (theta + (1.0 - theta) / r)) <= 0.03, (r, a[r])
    assert 0.0 > b[5] > b[10] > b[20]  # the t-term grows with r: -theta^2 r v t / 2
    assert reductions[5] < 0.30 and reductions[10] < 0.30, reductions


def test_criterion_06_correction_denominator_is_mostly_noise():
    # Why the corrected mean curves of criterion 6 scatter: per replicate the
    # correction divides by sum_a w_a (theta_hat(t s_a) + theta_hat(t s'_a)),
    # and on criterion 6's config that denominator's mean across replicates is
    # smaller than its spread at every level t <= 0.5, for every r.
    cfg = _criterion_06_config()
    grid = np.asarray(cfg.t_grid)
    scaled = [ex.scale_measure(cfg.measure, t).arrays() for t in grid]
    w = scaled[0][2]
    at_s, at_t = (np.array([atoms[i] for atoms in scaled]).T for i in (0, 1))  # (atoms, grid)
    levels = np.unique(np.concatenate([at_s.ravel(), at_t.ravel()]))
    at_s, at_t = np.searchsorted(levels, at_s), np.searchsorted(levels, at_t)

    def dens(x):
        out = []
        for r in cfg.r_list:
            curve = ex.sweep(x, ex.EstimatorConfig(r=r, k=cfg.k), levels).theta_hat
            assert not np.isnan(curve).any()  # no ties, and r divides n
            out.append(_combine(w, curve[at_s], curve[at_t], 0.0)[1])
        return out

    def step(_, paths):
        return list(map(dens, paths))

    groups = map_replicates(step, cfg.model, cfg.n, cfg.base_seed, cfg.replicates)
    den = np.array([d for group in groups for d in group])
    snr = np.abs(den.mean(axis=0)) / den.std(axis=0, ddof=1)  # (r, grid)
    low = grid <= 0.5
    for r, ratio in zip(cfg.r_list, snr):
        assert ratio[low].max() < 1.0, (r, ratio[low].max())


def test_criterion_07_measure_validator():
    start = time.perf_counter()
    good_two = ex.check_conditions(ex.two_atom_measure(0.5, 1.0, 2.0)).ok
    good_prod = ex.check_conditions(ex.product_measure(1.0, 2.0, 3.0, 2)).ok
    single = ex.check_conditions(ex.SignedMeasureAtoms(((0.5, 0.5, 1.0),)))
    single_code = single.violations()[0] if single.violations() else "none"
    with pytest.raises(ex.MeasureConditionError) as excinfo:
        ex.two_atom_measure(0.5, 0.5, 2.0)
    equal_code = excinfo.value.code
    elapsed = time.perf_counter() - start
    ok = (
        good_two
        and good_prod
        and single_code == "M1_VIOLATION"
        and equal_code == "M2_VIOLATION"
        and elapsed < 1.0
    )
    line = _report(
        7,
        ok,
        f"two_atom ok {good_two}, product ok {good_prod}, single atom -> {single_code}, "
        f"p=q -> {equal_code}, {elapsed:.3f}s < 1s",
    )
    assert ok, line


def test_criterion_08_tail_process_variance():
    start = time.perf_counter()
    model = ex.IID(innovation=ex.Uniform01())
    marg = model.marginal
    n, r, k = 10_000, 10, 100
    v = k / n
    z = np.empty(500)
    for rep in range(500):
        x = ex.generate(model, n, ex.substream(0, rep))
        blocks = ex.standardize(x.values, v=v, r=r, marginal_cdf=marg.cdf)
        z[rep] = (ex.g_count(blocks, 1.0).sum() - n * v) / np.sqrt(n * v)
    var = float(z.var(ddof=1))
    elapsed = time.perf_counter() - start
    ok = abs(var - 1.0) <= 0.15 and elapsed < 120.0
    line = _report(
        8, ok, f"Var(Z_n(g_1)) = {var:.4f}, want within 15% of 1 ({elapsed:.1f}s < 2 min)"
    )
    assert ok, line


def test_criterion_09_brute_force_equivalence():
    rng = np.random.default_rng(0)
    checked = 0
    mismatches = 0
    for case in range(200):
        n = int(rng.integers(6, 31))
        r = int(rng.integers(1, 6))
        k = int(rng.integers(1, n))
        # alternate continuous and heavily tied integer-valued samples
        if case % 2 == 0:
            x = rng.random(n)
        else:
            x = rng.integers(0, 10, size=n).astype(float)
        curve = ex.sweep(x, ex.EstimatorConfig(r=r, k=k), ex.default_grid(k))
        xs = np.sort(x)
        m = n // r
        covered = x[: m * r]
        for j, t in enumerate(ex.default_grid(k)):
            kt = ex.count_at(k, t)
            u = xs[n - kt - 1]
            naive_exc = int((covered > u).sum())
            if xs[n - kt] == u:
                expect = ("skip", "TIES_DETECTED")
            elif naive_exc == 0:
                expect = ("skip", "NO_EXCEEDANCES")
            else:
                hit = sum(
                    1 for b in range(m) if covered[b * r : (b + 1) * r].max() > u
                )
                expect = ("val", hit / naive_exc)
            checked += 1
            if curve.t[j] != t or curve.k_t[j] != kt:
                mismatches += 1
            elif expect[0] == "skip":
                if curve.code[j] != expect[1]:
                    mismatches += 1
            elif curve.code[j] or curve.theta_hat[j] != expect[1]:
                mismatches += 1
    ok = mismatches == 0
    line = _report(
        9, ok, f"{checked} grid points over 200 instances, {mismatches} mismatches"
    )
    assert ok, line


def _criterion_10_config(out_dir):
    return ex.ExperimentConfig(
        model=ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01()),
        n=400,
        r_list=(5, 10),
        k=40,
        t_grid=(0.25, 0.5, 0.75, 1.0),
        measure=ex.two_atom_measure(0.5, 1.0, 2.0),
        replicates=20,
        base_seed=0,
        out_dir=str(out_dir),
    )


def test_criterion_10_determinism(tmp_path):
    cfg = _criterion_10_config(tmp_path / "exp")
    names = ("curves.csv", "summary.csv", "meta.json")
    ex.run(cfg)
    first = {name: (tmp_path / "exp" / name).read_bytes() for name in names}
    ex.run(cfg)
    same_run = all(
        (tmp_path / "exp" / name).read_bytes() == first[name] for name in names
    )
    fig_cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "fig"))
    fig_first = {p: open(p, "rb").read() for p in ex.figure1_bundle(fig_cfg)}
    same_fig = all(
        open(p, "rb").read() == content for p, content in fig_first.items()
    )
    ok = same_run and same_fig
    line = _report(
        10,
        ok,
        f"rerun byte-identical: mc outputs {same_run} ({len(first)} files), "
        f"figure bundle {same_fig} ({len(fig_first)} files)",
    )
    assert ok, line


# sha256 of the files of the criterion-10 figure bundle as commit 4fd5f4a writes them, with
# numpy 2.4.6 on x86-64: a refactor of the writers keeps every byte.  meta.json and
# figure1_meta.json embed the output directory, so they are not pinned here.
CRITERION_10_SHA256 = {
    "curves.csv": "96f00df757b83867748351f4a1b70e7bf69667749687904f6b199e42fffb9d28",
    "summary.csv": "e04ea7bfbe397aa8ea9e8662c660034fef2b6587457e9ade9708ddcf1c9e8117",
    "blocks_curves.csv": "63c60d958259ca925b7f9ac2ba4a456d1277ded55c042d4a4dea4514cd7b8169",
    "runs_curves.csv": "c119bd1352ab5e5f110092452afdf6a81d59e11aa019f98e978bdf00670eb333",
    "corrected_curves.csv": "ee1b5ba0b7d2e850b940d027bbd7aab18be96cd0de370150bc362e28f0ffe5bf",
}


def test_criterion_10_config_writes_the_recorded_bytes(tmp_path):
    paths = ex.figure1_bundle(_criterion_10_config(tmp_path / "fig"))
    got = {os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest() for p in paths}
    assert {name: got[name] for name in CRITERION_10_SHA256} == CRITERION_10_SHA256
