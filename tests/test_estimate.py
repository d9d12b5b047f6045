"""Blocks and runs estimators, threshold sweeps, and their counting rules."""

import re

import numpy as np
import pytest

import exindex as ex

X6 = np.array([5.0, 1.0, 4.0, 2.0, 3.0, 6.0])


def test_blocks_fixed_hand_count():
    assert ex.blocks_fixed(X6, r=3, u=3.5) == 2.0 / 3.0


def test_blocks_fixed_r1_identity():
    # each exceedance is its own block
    assert ex.blocks_fixed(X6, r=1, u=3.5) == 1.0
    rng = np.random.default_rng(0)
    x = rng.random(100)
    assert ex.blocks_fixed(x, r=1, u=0.7) == 1.0


def test_blocks_fixed_no_exceedances():
    with pytest.raises(ex.NoExceedances):
        ex.blocks_fixed(X6, r=3, u=10.0)


def test_runs_estimator_hand_counts():
    assert ex.runs_estimator(X6, 1, 3.5) == 1.0
    assert ex.runs_estimator(X6, 2, 3.5) == 0.5


def test_runs_estimator_monotone_series():
    # decreasing series: the single exceedance terminates its run immediately
    x = np.arange(10.0, 0.0, -1.0)
    assert ex.runs_estimator(x, 1, 9.5) == 1.0
    # increasing series: every in-range exceedance is followed by a larger value
    x = np.arange(1.0, 11.0)
    assert ex.runs_estimator(x, 1, 8.5) == 0.0
    with pytest.raises(ex.NoExceedances):
        ex.runs_estimator(x, 1, 9.5)  # only the last value exceeds, out of range


def test_runs_estimator_no_exceedances():
    with pytest.raises(ex.NoExceedances):
        ex.runs_estimator(X6, 2, 10.0)


def test_blocks_empirical_hand_count():
    assert ex.BlocksEvaluator(X6, r=3, k=4)(0.5) == 1.0


def test_blocks_empirical_single_top_value():
    # ceil(4 * 0.25) = 1: threshold is the second-largest value, one block exceeds
    assert ex.BlocksEvaluator(X6, r=3, k=4)(0.25) == 1.0


def test_sweep_hand_curve():
    cfg = ex.EstimatorConfig(r=3, k=4)
    curve = ex.sweep(X6, cfg, [0.25, 0.5, 0.75, 1.0])
    assert curve.variant == "empirical_quantile"
    assert not curve.skipped
    assert list(curve.code) == [""] * 4
    assert list(curve.k_t) == [1, 2, 3, 4]
    assert list(curve.theta_hat) == [1.0, 1.0, 2.0 / 3.0, 0.5]


def test_curves_do_not_share_the_callers_grid():
    cfg = ex.EstimatorConfig(r=3, k=4)
    grid = np.array([0.25, 0.5, 0.75, 1.0])
    for curve in (ex.sweep(X6, cfg, grid),
                  ex.corrected_curve(X6, cfg, ex.two_atom_measure(0.5, 1.0, 2.0), grid)):
        curve.t[0] = 0.125
        assert grid.tolist() == [0.25, 0.5, 0.75, 1.0]
    assert ex.sweep(X6, cfg, grid).t.tolist() == [0.25, 0.5, 0.75, 1.0]


def test_sweep_singleton_matches_blocks_empirical():
    rng = np.random.default_rng(3)
    x = rng.random(60)
    cfg = ex.EstimatorConfig(r=5, k=12)
    curve = ex.sweep(x, cfg, [0.5])
    assert len(curve.theta_hat) == 1 and curve.code[0] == ""
    assert curve.theta_hat[0] == ex.BlocksEvaluator(x, cfg.r, cfg.k)(0.5)


def test_sweep_grid_validation():
    cfg = ex.EstimatorConfig(r=3, k=4)
    with pytest.raises(ValueError):
        ex.sweep(X6, cfg, [0.5, 0.25])  # unsorted
    with pytest.raises(ValueError):
        ex.sweep(X6, cfg, [0.0, 0.5])  # t must be positive
    with pytest.raises(ValueError):
        ex.sweep(X6, cfg, [0.5, 1.5])  # t must not exceed 1


def test_count_at_exact_fractions():
    for k in range(1, 51):
        for j in range(1, k + 1):
            assert ex.count_at(k, j / k) == j


def test_count_at_interior_points():
    assert ex.count_at(3, 0.33) == 1
    assert ex.count_at(3, 0.34) == 2
    assert ex.count_at(10, 1e-9) == 1  # clamped to at least one order statistic
    with pytest.raises(ValueError):
        ex.count_at(3, 0.0)
    # an infinite level has no budget: it is rejected, not cast to -2**63
    for t in (np.inf, [0.5, np.inf], np.nan):
        with pytest.raises(ValueError, match="^t must be positive and finite"):
            ex.count_at(10, t)
    with pytest.raises(ValueError, match="^t must be positive and finite, got inf$"):
        ex.BlocksEvaluator(np.arange(100.0), 5, 50)(np.inf)


def test_default_grid_anchored_at_order_statistics():
    grid = ex.default_grid(7)
    np.testing.assert_allclose(grid, np.arange(1, 8) / 7.0)
    assert all(ex.count_at(7, t) == j for j, t in enumerate(grid, start=1))


def test_monotone_counting_invariant():
    # as t grows the threshold falls: both the hit count and ceil(kt) are nondecreasing
    rng = np.random.default_rng(8)
    x = rng.random(504)
    cfg = ex.EstimatorConfig(r=7, k=50)
    curve = ex.sweep(x, cfg, ex.default_grid(50))
    defined = curve.code == ""
    kts = curve.k_t[defined]
    hits = curve.theta_hat[defined] * kts
    assert (np.diff(kts) >= 0).all()
    assert (np.diff(hits) >= -1e-9).all()
    # n divisible by r: the simplified form applies, so theta_hat * k_t is an integer
    np.testing.assert_allclose(hits, np.round(hits), atol=1e-9)


def test_estimates_stay_in_unit_interval():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(20, 200))
        x = rng.random(n)
        cfg = ex.EstimatorConfig(r=int(rng.integers(1, 8)), k=int(rng.integers(2, n // 2 + 2)))
        curve = ex.sweep(x, cfg, ex.default_grid(cfg.k))
        vals = curve.theta_hat[curve.code == ""]
        assert (vals > 0).all() and (vals <= 1).all()


def test_boundary_tie_detected():
    # sorted: [1..4, 5, 5, 6, 7]; k_t=3 puts the threshold on the duplicated 5
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 6.0, 7.0])
    ev = ex.BlocksEvaluator(x, 2, 4)
    with pytest.raises(ex.TiesDetected):
        ev.at_count(3)
    # k_t=2: threshold 5 with smallest retained top value 6, unambiguous; hit block {6,7}
    assert ev.at_count(2) == 0.5


def test_evaluator_takes_whole_budgets_and_levels_up_to_one():
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 1000, 0)
    ev = ex.BlocksEvaluator(x, 10, 100)
    assert ev.at_count(2.0) == ev.at_count(2) == ev.at_count(np.int64(2))
    # a fraction was truncated, True read as 1 and NaN failed in numpy's cast
    for k_t in (2.5, 0.5, True, np.bool_(True), np.nan, np.inf, "2"):
        with pytest.raises(ValueError, match=f"^k_t must be a whole number, got {k_t}$"):
            ev.at_count(k_t)
    with pytest.raises(ValueError, match=r"^need 1 <= k_t <= k=100, got 0$"):
        ev.at_count(0)
    # a level above 1 is named as the level, not as its budget 150
    with pytest.raises(ValueError, match=r"^t must lie in \(0, 1\], got 1.5$"):
        ev(1.5)
    assert ev(1.0) == ev.at_count(100)


def test_interior_tie_is_not_ambiguous():
    # duplicate inside the top group but not at the threshold boundary
    x = np.array([1.0, 2.0, 3.0, 4.0, 7.0, 7.0, 8.0, 9.0])
    ev = ex.BlocksEvaluator(x, 2, 5)
    assert ev.at_count(4) > 0  # top-4 = {7,7,8,9}, threshold 4 is unique


def test_tail_top_value_triggers_ratio_form():
    # n=7, r=3 leaves x[6]=100 outside the blocks; top-2 = {100, 6}
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 100.0])
    ev = ex.BlocksEvaluator(x, 3, 3)
    # threshold 5; in-block exceedances {6}, hit blocks {(4,5,6)}: ratio 1/1
    assert ev.at_count(2) == 1.0
    # the simplified form would have said 1/2; cross-check against fixed-u counting
    assert ex.blocks_fixed(x, 3, 5.0) == 1.0


def test_sweep_skips_points_with_reasons():
    # all top-k_t values can sit in the dropped tail for small t
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 100.0])
    cfg = ex.EstimatorConfig(r=3, k=3)
    curve = ex.sweep(x, cfg, [1.0 / 3.0, 2.0 / 3.0, 1.0])
    reasons = {p.t: p.reason for p in curve.skipped}
    assert reasons[1.0 / 3.0] == "NO_EXCEEDANCES"  # only the tail value 100 is top-1
    assert len(curve.theta_hat) == len(curve.code) == 3
    assert int(np.isnan(curve.theta_hat).sum()) == len(curve.skipped)


def test_sweep_matches_naive_recount():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(8, 31))
        r = int(rng.integers(1, 6))
        k = int(rng.integers(1, n))
        x = rng.random(n)
        cfg = ex.EstimatorConfig(r=r, k=k)
        curve = ex.sweep(x, cfg, ex.default_grid(k))
        xs = np.sort(x)
        m = n // r
        covered = x[: m * r]
        for j, t in enumerate(ex.default_grid(k)):
            k_t = ex.count_at(k, t)
            u = xs[n - k_t - 1]
            if not (covered > u).any():
                assert curve.code[j] == "NO_EXCEEDANCES"
            else:
                assert curve.code[j] == ""
                assert curve.theta_hat[j] == ex.blocks_fixed(x, r, u)


def test_blocks_true_quantile_iid_uniform():
    rng = np.random.default_rng(4)
    x = rng.random(400)
    cfg = ex.EstimatorConfig(r=8, k=40)
    v = cfg.v(400)
    for t in (0.25, 1.0):
        u = 1.0 - v * t
        assert ex.blocks_true_quantile(x, cfg, t, lambda p: p) == ex.blocks_fixed(x, 8, u)


def test_blocks_true_quantile_threshold_above_max():
    cfg = ex.EstimatorConfig(r=2, k=2)
    with pytest.raises(ex.NoExceedances):
        ex.blocks_true_quantile(X6, cfg, 1.0, lambda p: 1000.0)


def test_blocks_true_quantile_wn_oracle_agreement():
    # denominator is random here, so the match holds within MC error only
    model = ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01())
    marg = model.marginal
    cfg = ex.EstimatorConfig(r=10, k=200)
    target = ex.theta_nt_wn(0.6, 10, 0.01, 1.0)
    vals = np.array(
        [
            ex.blocks_true_quantile(
                ex.generate(model, 20_000, ex.substream(0, rep)).values, cfg, 1.0, marg.quantile
            )
            for rep in range(200)
        ]
    )
    band = 3.0 * vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) <= band


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        ex.EstimatorConfig(r=0, k=5)
    with pytest.raises(ValueError):
        ex.EstimatorConfig(r=2, k=0)
    cfg = ex.EstimatorConfig(r=50, k=5)
    with pytest.raises(ValueError):
        cfg.validate_for(20)
    with pytest.raises(ValueError):
        ex.EstimatorConfig(r=2, k=30).validate_for(20)
    assert ex.EstimatorConfig(r=2, k=5).v(50) == 0.1


def test_evaluator_accepts_series_sample():
    x = ex.generate(ex.IID(innovation=ex.Uniform01()), 100, ex.substream(1, 0))
    assert ex.BlocksEvaluator(x, 5, 10)(1.0) == ex.BlocksEvaluator(x.values, 5, 10)(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sweep_rejects_non_finite_values(bad):
    # a NaN would take a top-k slot yet never count as a block hit
    x = np.random.default_rng(5).random(1000)
    x[137] = bad
    with pytest.raises(ValueError, match="finite"):
        ex.sweep(x, ex.EstimatorConfig(r=10, k=50), [0.5, 1.0])
    with pytest.raises(ValueError, match="finite"):
        ex.BlocksEvaluator(x, 10, 50)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_blocks_fixed_rejects_non_finite_values(bad):
    x = X6.copy()
    x[2] = bad
    with pytest.raises(ValueError, match="finite"):
        ex.blocks_fixed(x, 3, 3.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_runs_estimator_rejects_non_finite_values(bad):
    x = X6.copy()
    x[2] = bad
    with pytest.raises(ValueError, match="finite"):
        ex.runs_estimator(x, 2, 3.5)


@pytest.mark.parametrize("shape", [(1000, 2), (1, 1000), (), (10, 10, 10)])
def test_a_series_that_is_not_one_dimensional_is_rejected(shape):
    # a column pair or a scalar would reach numpy's reshape, partition or broadcast errors
    x = np.random.default_rng(2).random(shape)
    message = re.escape(f"series must be one-dimensional, got shape {shape}")
    calls = [
        lambda: ex.sweep(x, ex.EstimatorConfig(r=10, k=50), [0.5, 1.0]),
        lambda: ex.BlocksEvaluator(x, 10, 50),
        lambda: ex.blocks_fixed(x, 10, 0.5),
        lambda: ex.runs_estimator(x, 2, 0.5),
        lambda: ex.corrected_curve(x, ex.EstimatorConfig(r=10, k=50),
                                   ex.two_atom_measure(0.5, 1.0, 2.0), [0.5, 1.0]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
