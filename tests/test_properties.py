"""Property tests: the array kernels against their definitions and the scalar path."""

import csv
import itertools
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import exindex as ex
from exindex.clusterproc import _excess_rule, _level_sums, _replicate_sums
from exindex import harness, sim
from exindex.estimate import (
    CODE_NAMES,
    OK,
    CurveKernel,
    _coded_values,
    _counts,
    _raise_coded,
    _runs_curves,
    _thresholds,
    _top_slice,
    _top_tables,
)
from exindex.harness import (
    _CURVES_HEADER,
    Curves,
    MCResult,
    _column_stats,
    _format_rows,
    _persist,
    _row_templates,
)

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
def nested_samples(draw):
    """(x, r, r2, k) with r | r2 | n: every r2-block is r2 / r whole r-blocks, no tail."""
    r = draw(st.integers(1, 5))
    r2 = r * draw(st.integers(1, 4))
    x = draw(series(min_size=max(2, r2)))
    x = x[: len(x) - len(x) % r2]
    return x, r, r2, draw(st.integers(1, len(x) - 1))


@settings(max_examples=300, deadline=None)
@given(nested_samples())
def test_nested_blocks_order_the_estimates_at_every_budget(sample):
    # why criterion 6 (i) cannot hold: with no uncovered tail both block
    # lengths divide by k_t, and each r2-block that exceeds the threshold
    # holds between 1 and r2 / r exceeding r-blocks
    x, r, r2, k = sample
    fine = ex.sweep(x, ex.EstimatorConfig(r=r, k=k))
    coarse = ex.sweep(x, ex.EstimatorConfig(r=r2, k=k))
    np.testing.assert_array_equal(coarse.code, fine.code)
    defined = fine.code == ""
    k_t = fine.k_t[defined]
    hits_fine = np.rint(fine.theta_hat[defined] * k_t).astype(np.int64)
    hits_coarse = np.rint(coarse.theta_hat[defined] * k_t).astype(np.int64)
    assert np.all(hits_coarse <= hits_fine)
    assert np.all(hits_fine <= (r2 // r) * hits_coarse)
    assert np.all(coarse.theta_hat[defined] <= fine.theta_hat[defined])


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
    scaled = ex.SignedMeasureAtoms(tuple((s, t, lam * w) for s, t, w in mu.atoms))
    scaled = ex.corrected_curve(x, cfg, scaled, grid)
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


@st.composite
def kernel_cases(draw):
    """(x, r_list, k): up to four block lengths, any r <= n, so the tail may be long."""
    x = draw(series())
    n = len(x)
    r_list = draw(st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True))
    return x, r_list, draw(st.integers(1, n - 1))


@settings(max_examples=200, deadline=None)
@given(kernel_cases(), st.one_of(st.none(), measures()), grids)
# the top value sits in the tail of 7 = 2 * 3 + 1 values: NO_EXCEEDANCES at k_t = 1
@example((np.arange(7.0), [3, 2], 3), ex.two_atom_measure(0.5, 1.0, 2.0), [1 / 3, 1.0])
# at t = 1 the first atom level ties (k_t = 5) and the second has its top value in the tail (k_t = 1)
@example((np.array([0, 1, 1, 2, 3, 5, 9.0]), [3], 6), ex.two_atom_measure(1.0, 1 / 6, 1.2), [1.0])
# ties at every budget, under a product measure
@example((np.array([1.0, 2, 2, 2, 2, 1, 2, 2]), [2, 3], 4), ex.product_measure(1, 2, 2, 2), [0.5])
def test_curve_kernel_matches_the_definitions_for_every_r(case, mu, grid):
    x, r_list, k = case
    n = len(x)
    run_lengths = (n - 1, 1, 2)  # any order, every one below n
    kernel = CurveKernel(k, grid, mu, r_list, run_lengths)
    # a group of samples: each one's rows have the bits of a call on that sample alone
    group = [x, x[::-1], x - 10.0]
    together = kernel(iter(group))
    for b, xs in enumerate(group):
        for got, alone in zip(together, kernel([xs])):
            assert got[:, b].tobytes() == alone[:, 0].tobytes()
    values, codes, runs = (rows[:, 0] for rows in together)
    # every r's raw row, then under a measure every r's corrected row
    rows = len(r_list) * (1 if mu is None else 2)
    assert values.shape == codes.shape == (rows, len(grid))
    assert runs.shape == (len(run_lengths), len(grid))
    for run_length, curve in zip(run_lengths, runs):
        for t, got in zip(grid, curve):
            try:
                want = ex.runs_estimator(x, run_length, np.sort(x)[n - 1 - ex.count_at(k, t)])
            except ex.NoExceedances:
                assert math.isnan(got)
            else:
                assert got == want
    raw_values, raw_codes = values[: len(r_list)], codes[: len(r_list)]
    values, codes = values[len(r_list) :], codes[len(r_list) :]
    for i, r in enumerate(r_list):
        for j, t in enumerate(grid):
            value, code = brute_force(x, r, k, t)
            assert CODE_NAMES[raw_codes[i, j]] == code
            assert same(raw_values[i, j], value)
            if mu is not None:
                value, code = pointwise_corrected(x, r, k, mu, t)
                assert CODE_NAMES[codes[i, j]] == code
                assert same(values[i, j], value)  # bit for bit


@st.composite
def runs_cases(draw):
    """(x, run_lengths, thresholds): 1 to 4 run lengths, in any order, repeats allowed.

    The thresholds are sample values or levels around them.
    """
    x = draw(series(min_size=2))
    run_lengths = draw(st.lists(st.integers(1, len(x) - 1), min_size=1, max_size=4))
    level = st.one_of(st.sampled_from(x.tolist()), st.floats(-1.0, 10.0))
    return x, run_lengths, np.asarray(draw(st.lists(level, min_size=1, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(runs_cases())
@example((np.array([0.0, 3.0, 1.0, 2.0, 0.5, 4.0, 0.2]), [4, 1, 2],
          np.array([0.0, 0.5, 1.0, 2.0])))
def test_runs_curve_matches_runs_estimator(case):
    # one running maximum serves every run length: each row must match its L alone
    x, run_lengths, thresholds = case
    # the positions at or above the lowest threshold, as ``_top_slice`` lists them
    curves = _runs_curves(x, np.flatnonzero(x >= thresholds.min()), run_lengths, thresholds)
    assert curves.shape == (len(run_lengths), len(thresholds))
    # a wider superset of the candidates, every position, counts the same
    wide = _runs_curves(x, np.arange(len(x)), run_lengths, thresholds)
    assert wide.view(np.int64).tolist() == curves.view(np.int64).tolist()
    for run_length, curve in zip(run_lengths, curves):
        for u, got in zip(thresholds, curve):
            try:
                want = ex.runs_estimator(x, run_length, u)
            except ex.NoExceedances:
                assert math.isnan(got)
            else:
                assert got == want


def full_sort_runs_curve(values, run_length, thresholds):
    """Reference: both runs counts over every position, from two sorts of the whole sample."""
    stop = len(values) - run_length
    starts = values[:stop]
    after = values[1 : stop + 1].copy()
    for j in range(2, run_length + 1):
        np.maximum(after, values[j : j + stop], out=after)
    denom = stop - np.searchsorted(np.sort(starts), thresholds, side="right")
    both = stop - np.searchsorted(np.sort(np.minimum(starts, after)), thresholds, side="right")
    out = np.full(len(thresholds), np.nan)
    np.divide(denom - both, denom, out=out, where=denom > 0)
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_runs_curve_on_a_moving_maxima_path_has_the_bits_of_the_full_sort(seed):
    mm = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    x = ex.generate(mm, 20_000, seed).values
    grid = np.linspace(0.2, 1.0, 81)
    for k in (2000, 400):
        top, above = _top_slice(x, k)
        thresholds, _ = _thresholds(top, ex.count_at(k, grid))
        run_lengths = (1, 5, 10, 20)
        # every run length from one call, over the positions of the slice
        curves = _runs_curves(x, above, run_lengths, thresholds)
        for run_length, got in zip(run_lengths, curves):
            want = full_sort_runs_curve(x, run_length, thresholds)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
            assert not np.isnan(got).any()


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
    blocks = ex.standardize(x, v=v, r=r)
    np.testing.assert_array_equal(blocks, rank_blocks_reference(x, v, r))


def test_standardize_rank_mode_matches_full_stable_sort_on_long_series():
    rng = np.random.default_rng(5)
    ar1 = ex.generate(ex.AR1Cauchy(phi=0.6), 20_000, ex.substream(0, 0)).values
    rounded = np.round(rng.standard_normal(20_000), 1)
    integers = rng.integers(0, 50, 20_000).astype(float)
    for x in (ar1, rounded, integers, rounded[:10]):
        for v in (1e-6, 0.01, 0.1, 0.5, 0.999):
            for r in (1, 7, 10):
                got = ex.standardize(x, v=v, r=r)
                np.testing.assert_array_equal(got, rank_blocks_reference(x, v, r))


def scaled_cdf(z):
    """A known-marginal stand-in: the values scaled into [0, 1)."""
    return z / (1.0 + np.max(z))


def with_edges(grid, blocks):
    """``grid`` plus the levels that put 1 - t on or next to a standardized excess."""
    edges = set()
    for e in blocks.ravel().tolist():
        t = 1.0 - e
        edges |= {t, np.nextafter(t, 0.0), np.nextafter(t, 1.0)}
    return np.array(sorted(set(grid) | {t for t in edges if 0.0 < t <= 1.0}))


@settings(max_examples=300, deadline=None)
@given(series(min_size=1), fractions, st.booleans(), grids, st.data())
def test_level_sums_match_per_level_functionals(x, v, known, grid, data):
    r = data.draw(st.integers(1, len(x)))
    cdf = scaled_cdf if known else None
    blocks = ex.standardize(x, v=v, r=r, marginal_cdf=cdf)
    levels = with_edges(grid, blocks)
    index, excess = _excess_rule(len(x), v, cdf)(x)
    hit, count = _level_sums(index, excess, r, len(blocks), levels)
    assert hit.tolist() == [ex.f_max(blocks, t).sum() for t in levels]
    assert count.tolist() == [ex.g_count(blocks, t).sum() for t in levels]


def dense_level_sums(blocks, grid):
    """Sums of f_max and g_count over the m x r blocks at every level, from the dense array."""
    levels = 1.0 - np.asarray(grid)
    maxima = np.sort(blocks.max(axis=1))
    positive = np.sort(blocks[blocks > 0.0])
    hit = maxima.size - np.searchsorted(maxima, levels, side="right")
    count = positive.size - np.searchsorted(positive, levels, side="right")
    return hit.astype(float), count.astype(float)


@settings(max_examples=300, deadline=None)
@given(samples(), st.booleans(), grids)
# v = 2/11 gives k + 1 = 3 positive rank excesses, and 11 % 3 != 0; with_edges
# puts 1 - t exactly on the excess 0.5000000000000001
@example((np.arange(11.0)[::-1], 3, 2), False, [0.5, 1.0])
@example((np.arange(11.0), 3, 2), True, [0.25, 1.0])
# the threshold ties the smallest retained value
@example((np.array([1.0, 2, 2, 2, 2, 1, 2, 2]), 3, 4), False, [1.0])
@example((np.full(9, 4.0), 2, 3), True, [0.5, 1.0])
# every retained value lies beyond the block coverage
@example((np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.9, 0.8]), 5, 2), False, [1.0])
def test_replicate_sums_match_dense_level_sums_and_evaluator(sample, known, grid):
    x, r, k = sample
    n, v = len(x), k / len(x)
    cdf = scaled_cdf if known else None
    blocks = ex.standardize(x, v=v, r=r, marginal_cdf=cdf)
    levels = with_edges(grid, blocks)
    sf, sg, value, code = _replicate_sums(
        x, ex.EstimatorConfig(r=r, k=k), _excess_rule(n, v, cdf), levels
    )
    want_f, want_g = dense_level_sums(blocks, levels)
    assert sf.tolist() == want_f.tolist()
    assert sg.tolist() == want_g.tolist()
    try:
        want = ex.BlocksEvaluator(x, r, k)(1.0)
    except (ex.TiesDetected, ex.NoExceedances) as err:
        assert math.isnan(value)
        with pytest.raises(type(err), match=str(err)):
            _raise_coded(code, k)
    else:
        assert code == OK and value == want


@settings(max_examples=300, deadline=None)
@given(samples())
# a block whose only value at the smallest threshold equals it, and a tied tail
@example((np.array([3.0, 1, 1, 2, 0, 2, 2]), 3, 2))
def test_top_tables_give_the_block_tables_estimates_at_every_budget(sample):
    # from the positions at or above the smallest threshold, every budget <= k
    # reads the value and code that the definition counts on every block; the
    # shifted copy is all negative, where an empty block filled with 0 would count
    x, r, k = sample
    for xs in (x, x - 10.0):
        top, above = _top_slice(xs, k)
        assert above.tolist() == np.flatnonzero(xs >= top[0]).tolist()
        counts = _counts(top, [_top_tables(xs, above, r)], np.arange(1, k + 1))
        values, codes = _coded_values(*counts)
        for budget in range(1, k + 1):
            value, code = brute_force(xs, r, k, budget / k)
            assert CODE_NAMES[codes[0, budget - 1]] == code
            assert same(values[0, budget - 1], value)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def by_key(result, kind):
    """``({key: values}, {key: codes})`` of the table entry ``kind`` of ``result``."""
    (entry,) = [entry for entry in result.curves if entry.kind == kind]
    codes = {} if entry.codes is None else dict(zip(entry.keys, entry.codes))
    return dict(zip(entry.keys, entry.values)), codes


def curves_csv_row_by_row(result):
    """The reference curves.csv writer: one row tuple per point, each cell through ``_fmt``."""
    cfg = result.config
    rows = []
    for kind in ("raw", "corrected"):
        curves, codes = by_key(result, kind)
        for r in cfg.r_list:
            if r not in curves:
                continue
            for rep in range(cfg.replicates):
                for j, t in enumerate(cfg.t_grid):
                    val = curves[r][rep, j]
                    shown = "" if np.isnan(val) else _fmt(float(val))
                    rows.append((rep, kind, r, t, shown, CODE_NAMES[codes[r][rep, j]]))
    header = ["replicate", "kind", "r", "t", "value", "flag"]
    return "".join(",".join(_fmt(x) for x in row) + "\n" for row in [header] + rows)


cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -0.0, 0.0, 0.1, 1 / 3, 5e-324, -2.2250738585072014e-308, 1e300]),
)
skip_codes = st.integers(0, len(CODE_NAMES) - 1)
CODE_OF = {name: code for code, name in enumerate(CODE_NAMES.tolist())}
# each kind's parameter and band file
KINDS = {"raw": ("r", "blocks_curves.csv"), "runs": ("run_length", "runs_curves.csv"),
         "corrected": ("r", "corrected_curves.csv")}


def table_result(cfg, raw, raw_codes, corrected=None, corrected_codes=None, runs=None):
    """An ``MCResult`` of ``cfg`` whose table holds these ``{key: array}`` curves and codes."""
    shape = (cfg.replicates, len(cfg.t_grid))

    def entry(kind, values, codes):
        param, band_file = KINDS[kind]

        def stack(arrays, dtype):
            return np.array(list(arrays), dtype=dtype).reshape(len(values), *shape)

        codes = None if codes is None else stack(codes.values(), np.int8)
        return Curves(kind, param, tuple(values), stack(values.values(), float), codes, band_file)

    return MCResult(cfg, (entry("raw", raw, raw_codes), entry("runs", runs or {}, None),
                          entry("corrected", corrected or {}, corrected_codes or {})))


def with_runs(result, runs, out_dir):
    """``result`` persisting to ``out_dir``, with ``runs`` ({run length: array}) as its runs."""
    raw, corrected = (by_key(result, kind) for kind in ("raw", "corrected"))
    return table_result(replace(result.config, out_dir=str(out_dir)), *raw, *corrected, runs)


@st.composite
def mc_results(draw, values=cells, measured=st.booleans()):
    """An ``MCResult`` with ``values`` and arbitrary codes, with or without corrected curves."""
    r_list = tuple(draw(st.lists(st.integers(1, 50), min_size=1, max_size=3, unique=True)))
    level = st.one_of(st.floats(1e-9, 1.0), st.sampled_from([0.1, 0.2, 1 / 3, 0.7, 1.0]))
    t_grid = sorted(draw(st.lists(level, min_size=1, max_size=5, unique=True)))
    replicates = draw(st.integers(1, 4))
    measured = draw(measured)
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
        return {r: array(values) for r in keys}, {r: array(skip_codes, np.int8) for r in keys}

    return table_result(cfg, *curves(r_list), *curves(r_list if measured else ()))


def replicate_rows(result):
    """Every replicate's ``_format_rows``, as ``_replicates`` hands them to ``_persist``."""
    cfg = result.config
    coded = [entry for entry in result.curves if entry.codes is not None]
    blocks = [pair for entry in coded for pair in zip(entry.values, entry.codes)]
    templates = _row_templates([(entry.kind, entry.keys) for entry in coded], cfg.t_grid)
    # (heads, skipped) per (kind, r): one head per level, one skipped row per level and code
    assert len(templates) == len(blocks)
    for heads, skipped in templates:
        assert len(heads) == len(cfg.t_grid)
        assert [len(rows) for rows in skipped] == [len(cfg.t_grid)] * len(CODE_NAMES)
    return [
        _format_rows(
            templates,
            rep,
            np.array([values[rep] for values, _ in blocks]),
            np.array([codes[rep] for _, codes in blocks]),
        )
        for rep in range(cfg.replicates)
    ]


def curves_csv_from_replicate_rows(result):
    """curves.csv as ``_persist`` writes it: every replicate's ``_format_rows`` per (kind, r)."""
    return _CURVES_HEADER + "".join("".join(block) for block in zip(*replicate_rows(result)))


def one_replicate_result(values, flags):
    """A one-replicate ``MCResult`` at r = 10 over len(values) levels, raw curves only."""
    cfg = ex.ExperimentConfig(model=ex.AR1Cauchy(phi=0.6), n=1000, r_list=(10,), k=100,
                              t_grid=[0.1 * (j + 1) for j in range(len(values))], measure=None,
                              replicates=1)
    return table_result(cfg, {10: np.array([values])}, {10: [[CODE_OF[name] for name in flags]]})


@settings(max_examples=200, deadline=None)
@given(mc_results())
# value and flag are independent: a NaN value under code OK, defined values under set codes
@example(one_replicate_result([math.nan, 0.25, -0.0, math.nan],
                              ["", TIES, "DEGENERATE_DENOMINATOR", NO_EXC]))
def test_curves_csv_equals_the_row_by_row_writer(result):
    assert curves_csv_from_replicate_rows(result) == curves_csv_row_by_row(result)


def column_stats_one_by_one(arr, refs):
    """(n_used, mean, sd, rmse) of each column from its own non-NaN values: the per-column path."""
    out = []
    for col, ref in zip(arr.T, refs):
        used = col[~np.isnan(col)]
        mean = float(used.mean()) if used.size else math.nan
        sd = float(used.std(ddof=1)) if used.size > 1 else math.nan
        rmse = float(np.sqrt(((used - ref) ** 2).mean())) if used.size else math.nan
        out.append((used.size, mean, sd, rmse))
    return out


def bits(rows):
    return [(used, *(float(x).hex() for x in stats)) for used, *stats in rows]


@st.composite
def stat_columns(draw):
    """(replicates x columns) arrays whose columns hold no NaN, some NaN or only NaN, and refs.

    Replicate counts run from 1 and 2 to past numpy's pairwise-summation
    block of 128 values.
    """
    replicates = draw(st.one_of(st.sampled_from([1, 2, 3, 127, 128, 129, 257]),
                                st.integers(1, 600)))
    columns = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    arr = rng.standard_normal((replicates, columns)) * scale + draw(st.floats(-10.0, 10.0))
    for j, pattern in enumerate(draw(st.lists(st.sampled_from(["none", "some", "all"]),
                                              min_size=columns, max_size=columns))):
        if pattern == "all":
            arr[:, j] = np.nan
        elif pattern == "some":
            arr[rng.random(replicates) < draw(st.floats(0.0, 1.0)), j] = np.nan
    refs = [draw(st.one_of(st.just(math.nan), st.floats(-10.0, 10.0))) for _ in range(columns)]
    return arr, refs


@settings(max_examples=300, deadline=None)
@given(stat_columns())
@example((np.array([[0.1, np.nan, np.nan]]), [0.4, 0.4, math.nan]))
@example((np.array([[0.1, 0.2, np.nan], [0.3, np.nan, np.nan]]), [math.nan, 0.4, 0.4]))
def test_column_stats_have_the_bits_of_the_per_column_path(case):
    arr, refs = case
    got = list(zip(*_column_stats(arr, refs)))
    assert bits(got) == bits(column_stats_one_by_one(arr, refs))
    assert all(isinstance(used, int) for used, *_ in got)
    # without refs every rmse is NaN, and the rest is unchanged
    plain = list(zip(*_column_stats(arr)))
    assert bits(plain) == bits(column_stats_one_by_one(arr, [math.nan] * len(refs)))


SHARED_COUNTS = [0, 1, 2, 7, 8, 9, 127, 128, 129]


@st.composite
def shared_count_columns(draw):
    """(replicates x columns) arrays in which several columns share a used count, and refs.

    Each count is kept by two to four columns, each on its own random rows,
    so a group of equal count holds its NaN in different rows.
    """
    counts = draw(st.lists(st.sampled_from(SHARED_COUNTS) | st.integers(0, 140), min_size=1,
                           max_size=4, unique=True))
    replicates = max(counts) + draw(st.integers(0, 3)) or 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for used in counts:
        for _ in range(draw(st.integers(2, 4))):
            col = np.full(replicates, np.nan)
            col[rng.choice(replicates, used, replace=False)] = rng.standard_normal(used)
            columns.append(col)
    arr = np.stack(columns, axis=1)[:, rng.permutation(len(columns))]
    refs = [draw(st.one_of(st.just(math.nan), st.floats(-10.0, 10.0))) for _ in columns]
    return arr, refs


@settings(max_examples=150, deadline=None)
@given(shared_count_columns())
def test_column_stats_of_columns_that_share_a_used_count_have_the_per_column_bits(case):
    arr, refs = case
    got = list(zip(*_column_stats(arr, refs)))
    assert bits(got) == bits(column_stats_one_by_one(arr, refs))


@pytest.mark.parametrize("used", SHARED_COUNTS)
def test_column_stats_at_a_listed_shared_count_have_the_per_column_bits(used):
    # three columns of this count, each on its own rows, two rows of NaN at least
    rng = np.random.default_rng(used)
    replicates = used + 2
    arr = np.full((replicates, 3), np.nan)
    for j in range(3):
        arr[rng.choice(replicates, used, replace=False), j] = rng.standard_normal(used)
    refs = [0.5, math.nan, -1.0]
    got = list(zip(*_column_stats(arr, refs)))
    assert [n_used for n_used, *_ in got] == [used] * 3
    assert bits(got) == bits(column_stats_one_by_one(arr, refs))


def figure_bands_one_by_one(curves, t_grid):
    """A figure band file's rows from the per-column path, as the per-cell writer wrote them."""
    rows = []
    for key in sorted(curves):
        for t, (used, mean, sd, _) in zip(
            t_grid, column_stats_one_by_one(curves[key], [math.nan] * len(t_grid))
        ):
            rows.append((key, t, _fmt(mean) if used else "", _fmt(sd) if used > 1 else "", used))
    return "".join(",".join(_fmt(x) for x in row) + "\n" for row in rows)


# finite values, so that neither path meets numpy's overflow or inf - inf warnings
bounded = st.one_of(st.just(math.nan), st.floats(-1e6, 1e6))


@settings(max_examples=60, deadline=None)
@given(mc_results(values=bounded, measured=st.just(True)))
def test_figure_bands_and_summary_have_the_bits_of_the_per_column_path(tmp_path_factory, result):
    cfg = result.config
    out_dir = tmp_path_factory.mktemp("bands")
    runs = {2: result.raw[cfg.r_list[0]]}
    result = with_runs(result, runs, out_dir)
    _persist(result, replicate_rows(result), 0, bands=True)
    for name, curves, param in (("blocks_curves.csv", result.raw, "r"),
                                ("runs_curves.csv", runs, "run_length"),
                                ("corrected_curves.csv", result.corrected, "r")):
        want = f"{param},t,mean,sd,n_used\n" + figure_bands_one_by_one(curves, cfg.t_grid)
        assert (out_dir / name).read_text() == want
    # AR(1) has no curve target, so only the corrected rows have a reference: theta
    summary = result.summarize()
    for kind in ("raw", "corrected"):
        curves, _ = by_key(result, kind)
        refs = [math.nan if kind == "raw" else cfg.model.theta] * len(cfg.t_grid)
        want = [stats for r in cfg.r_list for stats in column_stats_one_by_one(curves[r], refs)]
        got = [(row["n_used"], row["mean"], row["sd"], row["rmse"]) for row in summary
               if row["kind"] == kind]
        assert bits(got) == bits(want)


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


GUESSES = ("near", "far", "relative", "nan", "inf", "zero")


@settings(max_examples=100, deadline=None)
@given(st.floats(0.2, 4.0), st.floats(0.2, 4.0), st.floats(0.5, 20.0), st.floats(1e-3, 2.0),
       st.lists(st.floats(0.5**53, 1.0 - 2.0**-53), max_size=20), st.data())
def test_every_fallback_of_the_narrow_bracket_has_the_bits_of_the_where_bisection(
    beta1, beta2, c1, c2, ps, data
):
    # each element's Newton guess is replaced by the quantile moved within the
    # narrow bracket, beyond it but within 1e-12, beyond 1e-12, or by NaN, inf or 0
    law = ex.SecondOrderPareto(beta1, beta2, c1, c2)
    p = np.array([0.5**53, 1.0 - 2.0**-53, 0.5, 0.1, 0.9, 0.99, *ps])
    kinds = data.draw(st.permutations(GUESSES)) + data.draw(
        st.lists(st.sampled_from(GUESSES), min_size=len(ps), max_size=len(ps))
    )
    want = where_quantile(law, p)
    guess = want.copy()
    for i, kind in enumerate(kinds):
        if kind == "near":
            guess.view(np.int64)[i] += data.draw(st.integers(-sim._ULPS, sim._ULPS))
        elif kind == "far":  # 2000 floats are below 1e-12 relative
            steps = data.draw(st.integers(sim._ULPS + 1, 2000))
            guess.view(np.int64)[i] += steps * data.draw(st.sampled_from([-1, 1]))
        elif kind == "relative":
            guess[i] *= 1.0 + data.draw(st.floats(1e-11, 0.5)) * data.draw(st.sampled_from([-1, 1]))
        else:
            guess[i] = {"nan": math.nan, "inf": math.inf, "zero": 0.0}[kind]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ex.SecondOrderPareto, "_newton_start", lambda self, q: guess.copy())
        got = law.quantile(p)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def mm_models(draw, c2_signs=(-1.0, 1.0)):
    """A valid moving-maxima model: up to four coefficients, the largest 1, zeros allowed."""
    beta1, beta2 = draw(st.floats(0.2, 4.0)), draw(st.floats(0.2, 4.0))
    c1 = draw(st.floats(0.5, 20.0))
    c2 = draw(st.floats(1e-3, 2.0)) * draw(st.sampled_from(c2_signs))
    others = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0), max_size=3))
    at = draw(st.integers(0, len(others)))
    try:
        return ex.MovingMaxima(coeffs=(*others[:at], 1.0, *others[at:]), beta1=beta1,
                               beta2=beta2, c1=c1, c2=c2)
    except ValueError:  # c2 < 0 whose survival never reaches 1
        assume(False)


@settings(max_examples=100, deadline=None)
@given(mm_models(), st.integers(1, 400), st.integers(1, 420), st.integers(0, 2**32 - 1))
def test_top_only_path_equals_the_full_path_at_its_top_values(model, n, top, seed):
    full = ex.generate(model, n, ex.substream(seed, 0)).values
    part = ex.generate(model, n, ex.substream(seed, 0), top=top)
    assert part.top == top
    kth = np.sort(full)[-min(top, n)]
    at_top = full >= kth
    np.testing.assert_array_equal(part.values[at_top].view(np.int64),
                                  full[at_top].view(np.int64))
    assert np.all(part.values[~at_top] < kth) and np.all(full[~at_top] < kth)


def floats_above(x: float, k: int) -> float:
    """The float ``k`` steps above the positive float ``x``."""
    return float((np.array([x]).view(np.int64) + k).view(np.float64)[0])


@st.composite
def pareto_points(draw):
    """(law, xs): a moving-maxima innovation law and points at, below and above its z_min."""
    law = draw(mm_models()).innovation
    z_min = law.z_min
    points = st.one_of(
        st.floats(0.0, 1.0).map(lambda f: z_min * f),  # at or below z_min
        st.integers(1, 64).map(lambda k: floats_above(z_min, k)),
        st.floats(-15.0, 8.0).map(lambda e: z_min * (1.0 + 10.0**e)),
        st.floats(1e300, 1.7e308),
    )
    return law, draw(st.lists(points, max_size=30))


@settings(max_examples=200, deadline=None)
@given(pareto_points())
# a c2 < 0 law whose float survival one step above z_min is 1 + 2**-52: only the clip makes it 1
@example((ex.SecondOrderPareto(2.48239924123048, 0.5413606642402438, 12.323892784328223,
                               -0.9709788147714458), []))
def test_second_order_pareto_cdf_of_a_float_has_the_bits_of_the_array_path(case):
    # the oracle's factors: a Python float takes the float path, a 0-d array numpy's
    law, xs = case
    for x in [law.z_min, floats_above(law.z_min, 1), *xs]:
        got = law.cdf(x)
        assert type(got) is float
        assert got.hex() == float(law.cdf(np.array(x))).hex()
        assert float(law.cdf(np.float64(x))).hex() == got.hex()


@settings(max_examples=60, deadline=None)
@given(mm_models(), st.lists(st.integers(1, 30), min_size=1, max_size=3),
       st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6), st.floats(1e-3, 0.2))
def test_mm_oracle_has_the_bits_of_the_scalar_block_product(model, r_list, grid, v):
    # each block length's columns multiply in the order of m, as ``mm_block_nonexceed`` does
    got = ex.theta_nt_mm_exact(model, r_list, v, grid)
    u = np.ravel(model.marginal.quantile(1.0 - v * np.asarray(grid))).tolist()
    for row, r in zip(got, r_list):
        want = [(1.0 - ex.mm_block_nonexceed(model, r, ui)) / (r * (v * t))
                for ui, t in zip(u, grid)]
        assert [x.hex() for x in row.tolist()] == [x.hex() for x in want]


@settings(max_examples=100, deadline=None)
@given(mm_models(), st.lists(st.floats(0.5**53, 1.0 - 2.0**-53), min_size=1, max_size=40),
       st.data())
def test_tail_quantile_of_a_subset_has_the_bits_of_the_whole_array(model, ps, data):
    # what lets the top-only path invert only some of the uniforms
    law = model.innovation
    u = np.array(ps)
    idx = np.array(data.draw(st.lists(st.integers(0, len(u) - 1), min_size=1, unique=True)))
    np.testing.assert_array_equal(law.quantile(u[idx]).view(np.int64),
                                  law.quantile(u)[idx].view(np.int64))


@settings(max_examples=100, deadline=None)
@given(mm_models(c2_signs=(1.0,)), st.lists(st.floats(0.5**53, 1.0 - 2.0**-53), max_size=20),
       st.floats(1e-4, 0.5))
def test_moving_maxima_marginal_newton_start_keeps_the_wide_bracket_bits(model, ps, v):
    # the benchmark's levels 1 - v t, t in (0, 1], plus any others
    marginal = model.marginal
    p = np.array([*(1.0 - v * np.linspace(0.2, 1.0, 9)), 0.5**53, 0.5, 1.0 - 2.0**-53, *ps])
    z_min = marginal.innovation.z_min
    wide = sim._bisect_quantile(p, marginal._below, z_min, 2.0 * z_min)
    np.testing.assert_array_equal(marginal.quantile(p).view(np.int64), wide.view(np.int64))


def accumulated_repetition(model, rng, size):
    """Reference: the random-repetition path through ``np.where`` and ``maximum.accumulate``."""
    z = model.innovation.sample(rng, size + 1)
    renew = rng.random(size) >= model.psi
    pos = np.where(renew, np.arange(1, size + 1), 0)
    return z[np.maximum.accumulate(pos)]  # index of the innovation in force


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0.0, 0.6, 0.99]), st.sampled_from([ex.Uniform01(), ex.StandardCauchy()]),
       st.one_of(st.integers(1, 5), st.integers(1, 3000)), st.integers(0, 2**32 - 1))
def test_random_repetition_repeat_path_equals_the_accumulated_index_path(psi, law, size, seed):
    model = ex.RandomRepetition(psi=psi, innovation=law)
    got = model.sample(np.random.Generator(np.random.Philox(seed)), size)
    want = accumulated_repetition(model, np.random.Generator(np.random.Philox(seed)), size)
    assert got.shape == (size,)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def per_cell_csv(path, header, rows):
    """Reference: the writer summary.csv and the band files had, one ``_fmt`` call per cell."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


SUMMARY_COLUMNS = ["kind", "r", "t", "n_used", "n_skipped", "mean", "sd", "reference", "bias",
                   "rmse"]
WRITTEN_FILES = ("curves.csv", "summary.csv", "blocks_curves.csv", "runs_curves.csv",
                 "corrected_curves.csv")


def per_cell_files(result, out_dir):
    """Reference: summary.csv and the band files of ``result`` from the per-cell writer.

    summary.csv holds the ``summarize`` rows (``per_cell_csv``), a band file
    the rows of ``figure_bands_one_by_one``.
    """
    rows = [tuple(row[c] for c in SUMMARY_COLUMNS) for row in result.summarize()]
    per_cell_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS, rows)
    for name, curves, param in (("blocks_curves.csv", result.raw, "r"),
                                ("runs_curves.csv", by_key(result, "runs")[0], "run_length"),
                                ("corrected_curves.csv", result.corrected, "r")):
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(f"{param},t,mean,sd,n_used\n"
                     + figure_bands_one_by_one(curves, result.config.t_grid))


# finite values, so that summarize meets no overflow warning; NaN columns and negative zeros
written = st.one_of(st.sampled_from([math.nan, -0.0, 0.0, 5e-324, 1 / 3]), st.floats(-1e6, 1e6))


@settings(max_examples=100, deadline=None)
@given(mc_results(values=written))
# one replicate, so every sd is blank: a NaN column, a negative zero mean
@example(one_replicate_result([math.nan, -0.0, 0.25], [NO_EXC, "", ""]))
def test_csv_writer_has_the_bytes_of_the_per_cell_writer(tmp_path_factory, result):
    # every CSV of ``_persist`` given runs, each written in one text pass
    out = tmp_path_factory.mktemp("files")
    r_list = result.config.r_list
    runs = {7: result.raw[r_list[0]], 2: result.raw[r_list[-1]][::-1]}
    result = with_runs(result, runs, out / "text")
    paths = _persist(result, replicate_rows(result), 0, bands=True)
    assert [os.path.basename(p) for p in paths] == ["curves.csv", "summary.csv", "meta.json",
                                                    *WRITTEN_FILES[2:]]
    os.mkdir(out / "cells")
    per_cell_files(result, out / "cells")
    (out / "cells" / "curves.csv").write_text(curves_csv_row_by_row(result))
    for name in WRITTEN_FILES:
        assert (out / "text" / name).read_bytes() == (out / "cells" / name).read_bytes(), name


def key_blocks(path, columns):
    """The runs of consecutive rows of the CSV at ``path`` with equal ``columns``: (key, length)."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return [(key, len(list(group)))
            for key, group in itertools.groupby(tuple(row[c] for c in columns) for row in rows)]


@settings(max_examples=60, deadline=None)
@given(mc_results(values=bounded), st.lists(st.integers(1, 50), max_size=3, unique=True))
def test_every_writer_follows_the_table_order(tmp_path_factory, result, run_lengths):
    # curves.csv blocks and summary rows follow the coded kinds in table order, each r in
    # r_list order; the band files follow the table order, each with its rows sorted by key
    cfg = result.config
    levels, replicates = len(cfg.t_grid), cfg.replicates
    runs = {length: result.raw[cfg.r_list[i % len(cfg.r_list)]]
            for i, length in enumerate(run_lengths)}
    result = with_runs(result, runs, tmp_path_factory.mktemp("order"))
    paths = _persist(result, replicate_rows(result), 0, bands=True)
    assert [entry.kind for entry in result.curves] == ["raw", "runs", "corrected"]
    coded = [(entry.kind, str(r)) for entry in result.curves if entry.codes is not None
             for r in entry.keys]
    kinds = ["raw", "corrected"] if cfg.measure is not None else ["raw"]
    assert coded == [(kind, str(r)) for kind in kinds for r in cfg.r_list]
    assert key_blocks(paths[0], ("kind", "r")) == [(key, replicates * levels) for key in coded]
    assert key_blocks(paths[1], ("kind", "r")) == [(key, levels) for key in coded]
    assert [os.path.basename(p) for p in paths[3:]] == [entry.band_file
                                                        for entry in result.curves]
    for path, entry in zip(paths[3:], result.curves):
        with open(path) as fh:
            assert fh.readline().startswith(f"{entry.param},t,")
        assert key_blocks(path, (entry.param,)) == [((str(key),), levels)
                                                   for key in sorted(entry.keys)]


# ---------------------------------------------------------------------------
# Replicate groups: the same curves and rows however the replicates are grouped
# ---------------------------------------------------------------------------

UNIFORM = ex.Uniform01()
TWO_ATOM = ex.two_atom_measure(0.5, 1.0, 2.0)
TEN_LEVELS = tuple(np.linspace(0.1, 1.0, 10))
# config fields, and the skip code each case's example seed shows
GROUP_CASES = {
    "wn_ties": (dict(model=ex.RandomRepetition(psi=0.6, innovation=UNIFORM), n=300,
                     r_list=(4, 10), k=40, measure=TWO_ATOM), TIES),
    # 150 % 100 = 50 and 150 % 7 = 3 values lie beyond the blocks
    "uncovered_tail": (dict(model=ex.IID(innovation=UNIFORM), n=150, r_list=(100, 7), k=20,
                            measure=TWO_ATOM, t_grid=(0.05, 0.1, 0.5, 1.0)), NO_EXC),
    # iid blocks of 2 rarely hold two exceedances: a flat curve at the atom levels
    "flat_curve": (dict(model=ex.IID(innovation=UNIFORM), n=1000, r_list=(2, 3), k=10,
                        measure=TWO_ATOM), "DEGENERATE_DENOMINATOR"),
    "product32": (dict(model=ex.AR1Cauchy(phi=0.6), n=400, r_list=(5, 8), k=40,
                       measure=ex.product_measure(1.0, 2.0, 1.5, 4)), "DEGENERATE_DENOMINATOR"),
    "no_measure": (dict(model=ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2.0, beta2=1.0, c1=1.0,
                                             c2=0.5),
                        n=300, r_list=(3, 5), k=30, run_lengths=(2, 5)), ""),
}
GROUP_EXAMPLE_SEEDS = {"wn_ties": 1, "uncovered_tail": 2, "flat_curve": 0, "product32": 1,
                       "no_measure": 0}


def group_case_config(name, seed, replicates):
    fields = {"t_grid": TEN_LEVELS, **GROUP_CASES[name][0]}
    return ex.ExperimentConfig(replicates=replicates, base_seed=seed, out_dir="unused", **fields)


def grouped_replicates(cfg, group, chunks):
    """``harness._replicates`` with groups of ``group`` replicates over ``chunks`` chunks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_GROUP", group)
        mp.setattr(sim, "_MIN_CHUNK_VALUES", 1)
        mp.setattr(sim, "_usable_cores", lambda: chunks)
        return harness._replicates(cfg, cfg.run_lengths)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(GROUP_CASES)), st.integers(0, 2**32 - 1), st.integers(1, 9))
@example("wn_ties", GROUP_EXAMPLE_SEEDS["wn_ties"], 5)
@example("uncovered_tail", GROUP_EXAMPLE_SEEDS["uncovered_tail"], 5)
@example("flat_curve", GROUP_EXAMPLE_SEEDS["flat_curve"], 5)
@example("product32", GROUP_EXAMPLE_SEEDS["product32"], 5)
@example("no_measure", GROUP_EXAMPLE_SEEDS["no_measure"], 5)
def test_replicates_are_the_same_in_any_groups_and_chunks(name, seed, replicates):
    cfg = group_case_config(name, seed, replicates)
    want, want_rows, want_flags = grouped_replicates(cfg, replicates, 1)
    # groups of one, two, seven and a whole chunk, on one to three chunks
    for group, chunks in itertools.product((1, 2, 7, replicates), (1, 2, 3)):
        got, rows, flags = grouped_replicates(cfg, group, chunks)
        assert rows == want_rows and flags == want_flags
        for a, b in zip(got.curves, want.curves):  # bit for bit
            assert a.keys == b.keys and a.values.tobytes() == b.values.tobytes()
            assert np.array_equal(a.codes, b.codes)  # also where both are None (runs)


@pytest.mark.parametrize("name", sorted(GROUP_CASES))
def test_group_case_examples_show_their_skip_code(name):
    cfg = group_case_config(name, GROUP_EXAMPLE_SEEDS[name], 5)
    result, rows, _ = harness._replicates(cfg, cfg.run_lengths)
    assert len(rows) == 5
    codes = {str(code) for entry in result.curves if entry.codes is not None
             for code in CODE_NAMES[entry.codes.ravel()]}
    assert GROUP_CASES[name][1] in codes


# ---------------------------------------------------------------------------
# Covariance kernels: one matrix read against the per-point definitions
# ---------------------------------------------------------------------------


def tail_chain_point(kern, s, t):
    """(c, c_g, c_fg) of a ``TailChainSeries`` at one pair, as per-lag means over its windows."""
    w = kern.windows

    def c_g(s, t):
        first_s, first_t = w[:, 0] > 1.0 - s, w[:, 0] > 1.0 - t
        series = np.mean(first_s[:, None] & (w[:, 1:] > 1.0 - t), axis=0).sum()
        series += np.mean(first_t[:, None] & (w[:, 1:] > 1.0 - s), axis=0).sum()
        return min(s, t) + float(series)

    def c_fg(s, t):
        if s >= t:
            return t
        first, rest = w[:, 0], w[:, 1:]
        rest_max = rest.max(axis=1) if rest.shape[1] else np.zeros(len(w))
        lead = np.mean((first > 1.0 - t) & (w.max(axis=1) > 1.0 - s))
        hit_t = rest > 1.0 - t
        series = np.mean(
            (first > 1.0 - s)[:, None] & hit_t & (rest_max <= 1.0 - s)[:, None], axis=0
        ).sum()
        return float(lead + series)

    th = kern.theta
    return th * (min(s, t) - c_fg(s, t) - c_fg(t, s)) + th * th * c_g(s, t), c_g(s, t), c_fg(s, t)


def eighths_windows():
    """80 windows of length 12 on the eighths, so that levels in eighths meet entries at 1 - t."""
    rng = np.random.default_rng(5)
    w = rng.integers(0, 9, size=(80, 12)) / 8.0 * (rng.random((80, 12)) < 0.3)
    w[:, 0] = rng.integers(1, 9, size=80) / 8.0
    return w


TAIL_WINDOWS = {
    "eighths": eighths_windows(),
    "wn": ex.tail_chain_probabilities(ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01()),
                                      v=2e-3, K=12, replicates=10, seed=2, n=20_000).windows,
}
# levels in (0, 1], the eighths among them
kernel_levels = st.lists(
    st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from(np.arange(1, 9) / 8.0)),
    min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(TAIL_WINDOWS)), st.integers(1, 12), kernel_levels, kernel_levels)
@example("eighths", 1, [0.25, 0.5, 1.0], [1.0, 0.375])  # K = 1: no later entries
def test_tail_chain_matrices_equal_the_per_lag_means(windows, K, s, t):
    # the counts are exact sums of table products, the per-lag means are not: a relative
    # error of 1e-12 of the terms, which are of order 1
    kern = ex.TailChainSeries(TAIL_WINDOWS[windows][:, :K], theta=0.4)
    got = kern.matrices(s, t)
    want = np.array([[tail_chain_point(kern, a, b) for b in t] for a in s])
    for which in range(3):
        assert got[which].shape == (len(s), len(t))
        np.testing.assert_allclose(got[which], want[:, :, which], rtol=1e-12, atol=1e-12)


def bilinear_point(mat, ext, s, t):
    """The scalar bilinear read at one pair of a matrix padded on the grid extended by 0."""
    i = min(int(np.searchsorted(ext, s, side="right")), len(ext) - 1)
    j = min(int(np.searchsorted(ext, t, side="right")), len(ext) - 1)
    ds = (s - ext[i - 1]) / (ext[i] - ext[i - 1])
    dt = (t - ext[j - 1]) / (ext[j] - ext[j - 1])
    return (mat[i - 1, j - 1] * (1 - ds) * (1 - dt) + mat[i, j - 1] * ds * (1 - dt)
            + mat[i - 1, j] * (1 - ds) * dt + mat[i, j] * ds * dt)


def random_mc_grid():
    """An ``MCGrid`` on an uneven grid, with symmetric c and c_g and a non-symmetric c_fg."""
    rng = np.random.default_rng(9)
    a, b, cross = (rng.normal(size=(5, 5)) for _ in range(3))
    return ex.MCGrid([0.1, 0.25, 0.5, 0.8, 0.9], a @ a.T, b @ b.T, cross, 0.4)


MC_GRID = random_mc_grid()
grid_levels = st.lists(
    st.one_of(st.floats(0.0, 0.9), st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.8, 0.9])),
    min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(grid_levels, grid_levels)
def test_mc_grid_matrices_equal_the_scalar_bilinear_read(s, t):
    # entries of order 1, so an absolute 1e-12 covers the weights that round near 0
    got = MC_GRID.matrices(s, t)
    for which, mat in enumerate((MC_GRID._c, MC_GRID._cg, MC_GRID._cfg)):
        want = [[bilinear_point(mat, MC_GRID._ext, a, b) for b in t] for a in s]
        np.testing.assert_allclose(got[which], want, rtol=1e-12, atol=1e-12)


def test_mc_grid_reads_its_stored_entries_at_grid_points():
    levels = np.concatenate([[0.0], MC_GRID.grid])[::-1]
    got = MC_GRID.matrices(levels, levels)
    for which, mat in enumerate((MC_GRID._c, MC_GRID._cg, MC_GRID._cfg)):
        assert np.array_equal(got[which], mat[::-1, ::-1])
    assert MC_GRID.c(0.25, 0.8) == MC_GRID._c[2, 4]
    for bad in (math.nan, -0.1, 0.9 + 1e-12, math.inf):
        for s, t in (([bad], [0.5]), ([0.5], [0.25, bad])):
            with pytest.raises(ValueError, match="outside kernel grid range"):
                MC_GRID.matrices(s, t)
        with pytest.raises(ValueError, match="outside kernel grid range"):
            MC_GRID.c(0.5, bad)
