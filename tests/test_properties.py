"""Property tests: the array kernels against their definitions and the scalar path."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exindex as ex
from exindex.clusterproc import _level_sums
from exindex.harness import MCResult, _curves_csv, _runs_curve_values

TIES = "TIES_DETECTED"
NO_EXC = "NO_EXCEEDANCES"


@st.composite
def series(draw, min_size=6):
    """A continuous or a heavily tied integer-valued series of at most 40 values."""
    n = draw(st.integers(min_size, 40))
    if draw(st.booleans()):
        x = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    else:
        x = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return np.asarray(x, dtype=float)


@st.composite
def samples(draw):
    """(x, r, k): continuous or heavily tied integer-valued series with r <= n, k < n."""
    x = draw(series())
    n = len(x)
    r = draw(st.integers(1, min(6, n)))
    k = draw(st.integers(1, n - 1))
    return x, r, k


levels = st.floats(1e-3, 1.0)
grids = st.lists(levels, min_size=1, max_size=12, unique=True).map(sorted)


def brute_force(x, r, k, t):
    """The criterion-9 definition: (value, "") or (nan, code), counted on the series."""
    n = len(x)
    xs = np.sort(x)
    m = n // r
    covered = x[: m * r]
    kt = ex.count_at(k, t)
    u = xs[n - kt - 1]
    if xs[n - kt] == u:
        return math.nan, TIES
    exceed = int((covered > u).sum())
    if exceed == 0:
        return math.nan, NO_EXC
    hit = sum(1 for b in range(m) if covered[b * r : (b + 1) * r].max() > u)
    return hit / exceed, ""


def count_rule(k, t):
    """ceil(k t), snapping products within 1e-12 (relative) of an integer to it."""
    prod = k * t
    nearest = round(prod)
    if abs(prod - nearest) <= 1e-12 * max(1.0, abs(prod)):
        return max(int(nearest), 1)
    return max(math.ceil(prod + 1e-12), 1)


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5000), st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=30))
def test_count_at_array_matches_scalar_rule(k, ts):
    got = ex.count_at(k, np.asarray(ts))
    assert got.tolist() == [count_rule(k, t) for t in ts]
    assert [ex.count_at(k, t) for t in ts] == [count_rule(k, t) for t in ts]


@settings(max_examples=300, deadline=None)
@given(samples(), st.one_of(st.none(), grids))
def test_sweep_matches_brute_force(sample, grid):
    x, r, k = sample
    if grid is None:
        grid = ex.default_grid(k)
    curve = ex.sweep(x, ex.EstimatorConfig(r=r, k=k), grid)
    assert len(curve.t) == len(curve.k_t) == len(curve.theta_hat) == len(curve.code) == len(grid)
    for j, t in enumerate(grid):
        value, code = brute_force(x, r, k, t)
        assert curve.t[j] == t and curve.k_t[j] == ex.count_at(k, t)
        assert curve.code[j] == code
        assert same(curve.theta_hat[j], value)
    assert [(p.t, p.k_t, p.reason) for p in curve.skipped] == [
        (float(curve.t[j]), int(curve.k_t[j]), curve.code[j])
        for j in range(len(grid))
        if curve.code[j]
    ]


@st.composite
def measures(draw):
    if draw(st.booleans()):
        p = draw(st.floats(0.05, 1.0))
        q = draw(st.floats(0.05, 1.0))
        assume(p != q)
        return ex.two_atom_measure(p, q, draw(st.floats(1.1, 4.0)))
    return ex.product_measure(
        draw(st.floats(0.5, 3.0)),
        draw(st.floats(1.1, 4.0)),
        draw(st.floats(1.1, 4.0)),
        draw(st.integers(1, 4)),
    )


def pointwise_corrected(x, r, k, mu, t):
    """corrected_estimate on the measure scaled to level t, as (value, code)."""
    try:
        return ex.corrected_estimate(ex.BlocksEvaluator(x, r, k), ex.scale_measure(mu, t)), ""
    except ex.ExindexError as err:
        return math.nan, err.code


@settings(max_examples=150, deadline=None)
@given(samples(), measures(), grids)
def test_corrected_curve_matches_pointwise_estimate(sample, mu, grid):
    x, r, k = sample
    curve = ex.corrected_curve(x, ex.EstimatorConfig(r=r, k=k), mu, grid)
    assert curve.variant == "corrected"
    for j, t in enumerate(grid):
        value, code = pointwise_corrected(x, r, k, mu, t)
        assert curve.t[j] == t and curve.k_t[j] == ex.count_at(k, t)
        assert curve.code[j] == code
        assert same(curve.theta_hat[j], value)  # bit for bit


@settings(max_examples=100, deadline=None)
@given(samples(), measures(), grids, st.sampled_from([-4.0, -1.0, 0.125, 0.5, 2.0, 8.0]))
def test_corrected_curve_weight_scale_invariance(sample, mu, grid, lam):
    # power-of-two scales are exact in floating point, so the curve must not move at all
    x, r, k = sample
    cfg = ex.EstimatorConfig(r=r, k=k)
    base = ex.corrected_curve(x, cfg, mu, grid)
    scaled = ex.corrected_curve(x, cfg, mu.scaled_weights(lam), grid)
    np.testing.assert_array_equal(scaled.code, base.code)
    np.testing.assert_array_equal(scaled.theta_hat, base.theta_hat)


@settings(max_examples=150, deadline=None)
@given(samples(), measures(), grids)
def test_symmetrizing_the_measure_leaves_the_corrected_curve(sample, mu, grid):
    # the swapped atoms repeat every term of both sums, so the ratio stays put
    x, r, k = sample
    cfg = ex.EstimatorConfig(r=r, k=k)
    base = ex.corrected_curve(x, cfg, mu, grid)
    sym = ex.corrected_curve(x, cfg, mu.symmetrized(), grid)
    np.testing.assert_array_equal(sym.code, base.code)
    for got, want in zip(sym.theta_hat, base.theta_hat):
        assert math.isclose(got, want, rel_tol=1e-9) or (math.isnan(got) and math.isnan(want))


@settings(max_examples=150, deadline=None)
@given(samples(), measures(), grids)
def test_curves_from_an_evaluator_equal_curves_from_the_series(sample, mu, grid):
    x, r, k = sample
    cfg = ex.EstimatorConfig(r=r, k=k)
    ev = ex.BlocksEvaluator(x, r, k)
    for from_series, from_evaluator in (
        (ex.sweep(x, cfg, grid), ex.sweep(ev, cfg, grid)),
        (ex.corrected_curve(x, cfg, mu, grid), ex.corrected_curve(ev, cfg, mu, grid)),
    ):
        np.testing.assert_array_equal(from_evaluator.k_t, from_series.k_t)
        np.testing.assert_array_equal(from_evaluator.code, from_series.code)
        np.testing.assert_array_equal(from_evaluator.theta_hat, from_series.theta_hat)
        assert from_evaluator.n == from_series.n


@st.composite
def runs_cases(draw):
    """(x, run_length, thresholds): thresholds are sample values or levels around them."""
    x = draw(series(min_size=2))
    run_length = draw(st.integers(1, len(x) - 1))
    level = st.one_of(st.sampled_from(x.tolist()), st.floats(-1.0, 10.0))
    return x, run_length, np.asarray(draw(st.lists(level, min_size=1, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(runs_cases())
def test_runs_curve_matches_runs_estimator(case):
    x, run_length, thresholds = case
    curve = _runs_curve_values(x, run_length, thresholds)
    assert curve.shape == thresholds.shape
    for u, got in zip(thresholds, curve):
        try:
            want = ex.runs_estimator(x, run_length, u)
        except ex.NoExceedances:
            assert math.isnan(got)
        else:
            assert got == want


def rank_blocks_reference(x, v, r):
    """Rank-mode standardized blocks by a full stable argsort of the series."""
    n = len(x)
    ranks = np.empty(n)
    ranks[np.argsort(x, kind="stable")] = np.arange(1, n + 1)
    excess = np.clip((ranks / n - (1.0 - v)) / v, 0.0, None)
    m = n // r
    return excess[: m * r].reshape(m, r)


fractions = st.one_of(
    st.floats(1e-9, 1e-3), st.floats(1e-3, 0.999), st.floats(0.999, 1.0, exclude_max=True)
)


@settings(max_examples=300, deadline=None)
@given(series(min_size=1), fractions, st.data())
def test_standardize_rank_mode_matches_full_stable_sort(x, v, data):
    r = data.draw(st.integers(1, len(x)))
    sb = ex.standardize(x, v=v, r=r)
    assert sb.mode == "rank"
    np.testing.assert_array_equal(sb.blocks, rank_blocks_reference(x, v, r))


def test_standardize_rank_mode_matches_full_stable_sort_on_long_series():
    rng = np.random.default_rng(5)
    ar1 = ex.generate(ex.AR1Cauchy(phi=0.6), 20_000, ex.substream(0, 0)).values
    rounded = np.round(rng.standard_normal(20_000), 1)
    integers = rng.integers(0, 50, 20_000).astype(float)
    for x in (ar1, rounded, integers, rounded[:10]):
        for v in (1e-6, 0.01, 0.1, 0.5, 0.999):
            for r in (1, 7, 10):
                got = ex.standardize(x, v=v, r=r).blocks
                np.testing.assert_array_equal(got, rank_blocks_reference(x, v, r))


@settings(max_examples=300, deadline=None)
@given(series(min_size=1), fractions, st.booleans(), grids, st.data())
def test_level_sums_match_per_level_functionals(x, v, known, grid, data):
    r = data.draw(st.integers(1, len(x)))
    cdf = (lambda z: z / (1.0 + np.max(z))) if known else None
    sb = ex.standardize(x, v=v, r=r, marginal_cdf=cdf)
    # levels that put 1 - t on or next to a standardized excess test the strict ">"
    edges = [1.0 - e for e in sb.blocks.ravel().tolist() if 0.0 < 1.0 - e <= 1.0]
    levels = np.array(sorted(set(grid) | set(edges)))
    hit, count = _level_sums(sb.blocks, levels)
    assert hit.tolist() == [ex.f_max(sb.blocks, t).sum() for t in levels]
    assert count.tolist() == [ex.g_count(sb.blocks, t).sum() for t in levels]


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def curves_csv_row_by_row(result):
    """The reference curves.csv writer: one row tuple per point, each cell through ``_fmt``."""
    cfg = result.config
    rows = []
    for kind, curves, codes in result.kinds():
        for r in cfg.r_list:
            if r not in curves:
                continue
            for rep in range(cfg.replicates):
                for j, t in enumerate(cfg.t_grid):
                    val = curves[r][rep, j]
                    shown = "" if np.isnan(val) else _fmt(float(val))
                    rows.append((rep, kind, r, t, shown, codes[r][rep, j]))
    header = ["replicate", "kind", "r", "t", "value", "flag"]
    return "".join(",".join(_fmt(x) for x in row) + "\n" for row in [header] + rows)


cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -0.0, 0.0, 0.1, 1 / 3, 5e-324, -2.2250738585072014e-308, 1e300]),
)
flags = st.sampled_from(["", TIES, NO_EXC, "DEGENERATE_DENOMINATOR"])


@st.composite
def mc_results(draw):
    """An ``MCResult`` with arbitrary values and codes, with or without corrected curves."""
    r_list = tuple(draw(st.lists(st.integers(1, 50), min_size=1, max_size=3, unique=True)))
    level = st.one_of(st.floats(1e-9, 1.0), st.sampled_from([0.1, 0.2, 1 / 3, 0.7, 1.0]))
    t_grid = sorted(draw(st.lists(level, min_size=1, max_size=5, unique=True)))
    replicates = draw(st.integers(1, 4))
    measured = draw(st.booleans())
    cfg = ex.ExperimentConfig(
        model=ex.AR1Cauchy(phi=0.6),
        n=1000,
        r_list=r_list,
        k=100,
        t_grid=t_grid,
        measure=ex.two_atom_measure(0.5, 1.0, 2.0) if measured else None,
        replicates=replicates,
    )
    shape = (replicates, len(t_grid))
    size = replicates * len(t_grid)

    def array(elements, dtype=float):
        drawn = draw(st.lists(elements, min_size=size, max_size=size))
        return np.array(drawn, dtype=dtype).reshape(shape)

    def curves(keys):
        return {r: array(cells) for r in keys}, {r: array(flags, object) for r in keys}

    raw, raw_code = curves(r_list)
    corrected, corrected_code = curves(r_list if measured else ())
    return MCResult(cfg, raw, corrected, raw_code, corrected_code)


@settings(max_examples=200, deadline=None)
@given(mc_results())
def test_curves_csv_equals_the_row_by_row_writer(result):
    assert _curves_csv(result) == curves_csv_row_by_row(result)


def where_bisection(p, below, lo, hi):
    """Reference: the bisection with two ``np.where`` selects and fresh temporaries per step."""
    lo = np.full_like(p, lo)
    hi = np.full_like(p, hi)
    pending = below(hi, p)
    while np.any(pending):
        hi[pending] *= 2.0
        pending = below(hi, p)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        left = below(mid, p)
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def where_quantile(law, p):
    if isinstance(law, ex.SecondOrderPareto):
        def below(z, q):
            return law._raw_survival(z) >= 1.0 - q

        return where_bisection(p, below, law.z_min, max(2.0 * law.z_min, 2.0))
    z_min = law.innovation.z_min
    return where_bisection(p, lambda z, q: law.cdf(z) <= q, z_min, 2.0 * z_min)


@st.composite
def tail_laws(draw):
    """A valid second-order Pareto law (either sign of c2) or a moving-maxima marginal of one."""
    beta1, beta2 = draw(st.floats(0.2, 4.0)), draw(st.floats(0.2, 4.0))
    c1 = draw(st.floats(0.5, 20.0))
    c2 = draw(st.floats(1e-3, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    try:
        sop = ex.SecondOrderPareto(beta1, beta2, c1, c2)
    except ValueError:
        assume(False)
    if draw(st.booleans()):
        return sop
    coeff = st.just(0.0) | st.floats(1e-3, 1.0) | st.floats(5e-324, 2.0**-1022, exclude_max=True)
    coeffs = draw(st.lists(coeff, min_size=0, max_size=3))
    return ex.MovingMaxima(coeffs=(1.0, *coeffs), beta1=beta1, beta2=beta2, c1=c1, c2=c2).marginal


@settings(max_examples=150, deadline=None)
@given(tail_laws(), st.lists(st.floats(0.5**53, 1.0 - 2.0**-53), min_size=0, max_size=30))
def test_tail_quantiles_have_the_bits_of_the_where_bisection(law, ps):
    p = np.array([0.5**53, 1.0 - 2.0**-53, 0.5, *ps])
    got = law.quantile(p)
    assert got.shape == p.shape
    np.testing.assert_array_equal(got.view(np.int64), where_quantile(law, p).view(np.int64))
    grid = np.stack([p, p[::-1]])
    assert law.quantile(grid).shape == grid.shape
    np.testing.assert_array_equal(law.quantile(grid).view(np.int64),
                                  where_quantile(law, grid).view(np.int64))
    one = law.quantile(float(p[-1]))
    assert type(one) is float
    assert np.float64(one).view(np.int64) == got[-1:].view(np.int64)[0]
    for bad in (0.0, 1.0, -0.5, 1.5, [0.5, 1.0], math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            law.quantile(bad)


@pytest.mark.parametrize("params", [(0.2, 1.0, 20.0, 0.5), (0.5, 1.0, 1.0, 0.5)])
def test_tail_quantile_keeps_the_bits_where_the_narrow_bracket_falls_back(params):
    # at p = 0.5**53 the test fails at z_min itself, so the lower end of the
    # narrow bracket cannot be confirmed and falls back to z_min; below z_min
    # the test holds again, so a bracket reaching under z_min would end elsewhere
    law = ex.SecondOrderPareto(*params)
    p = np.array([0.5**53, 1.0 - 2.0**-53])
    at_z_min = law._tail_test(p)(np.full(2, law.z_min), np.empty(2, dtype=bool))
    assert at_z_min.tolist() == [False, True]
    got = law.quantile(p)
    np.testing.assert_array_equal(got.view(np.int64), where_quantile(law, p).view(np.int64))
    assert [law.quantile(float(q)) for q in p] == got.tolist()


def test_tail_quantile_keeps_the_bits_where_the_newton_start_is_nan():
    # with c1 tiny and beta2 / beta1 large, exp(-r w) overflows in the Newton
    # steps and the start is NaN at small p: both ends take the wide bracket
    law = ex.SecondOrderPareto(0.2, 4.0, 1e-16, 0.5)
    p = np.array([0.5**53, 0.5, 0.9, 1.0 - 2.0**-53])
    with np.errstate(all="ignore"):
        assert np.isnan(law._newton_start(p)).tolist() == [True, True, False, False]
    got = law.quantile(p)
    np.testing.assert_array_equal(got.view(np.int64), where_quantile(law, p).view(np.int64))
