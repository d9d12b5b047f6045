"""Blocks and runs estimators, threshold sweeps, and their counting rules."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

import exindex as ex
from exindex.estimate import check_run_length

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
        with pytest.raises(ValueError, match=r"^t must lie in \(0, inf\), got"):
            ex.count_at(10, t)
    with pytest.raises(ValueError, match=r"^t must lie in \(0, 1\], got inf$"):
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
    with pytest.raises(ValueError, match=r"^k_t must lie in \[1, 100\], got 0$"):
        ev.at_count(0)
    # a level above 1 is named as the level, not as its budget 150
    with pytest.raises(ValueError, match=r"^t must lie in \(0, 1\], got 1.5$"):
        ev(1.5)
    assert ev(1.0) == ev.at_count(100)


def test_boolean_levels_are_rejected():
    # a boolean level was read as t = 1: count_at(100, True) returned 100,
    # check_grid([True]) returned [1.], the evaluator the estimate at t = 1
    # and sweep a one-level curve
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 1000, 0)
    for t in (True, np.True_, False, [0.5, True], np.array([True])):
        with pytest.raises(ValueError, match="^t must not be boolean"):
            ex.count_at(100, t)
    for grid in ([True], [np.True_], [0.5, True], np.array([True]), (np.False_, 1.0)):
        with pytest.raises(ValueError, match="^grid must not be boolean"):
            ex.check_grid(grid)
        with pytest.raises(ValueError, match="^grid must not be boolean"):
            ex.sweep(x, ex.EstimatorConfig(r=10, k=100), grid)
    with pytest.raises(ValueError, match="^t_grid must not be boolean"):
        ex.check_grid([True], "t_grid")
    for t in (True, np.True_):
        with pytest.raises(ValueError, match=f"^t must be a real number, got {t}$"):
            ex.BlocksEvaluator(x, 10, 100)(t)
    # numbers still pass, the numpy scalar types among them
    assert ex.count_at(100, np.float64(0.5)) == ex.count_at(100, 0.5) == 50
    assert ex.check_grid([np.float32(0.5), 1]).tolist() == [0.5, 1.0]


def test_levels_must_be_real_numbers():
    # a string level was read as the number it spells (count_at(10, '0.5')
    # returned 5, check_grid(['0.5', '1']) returned [0.5, 1.]) or failed on a
    # comparison (the evaluator's TypeError), and a ragged grid raised numpy's
    # "inhomogeneous shape" message without naming the grid
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 1000, 0)
    cfg = ex.EstimatorConfig(r=10, k=100)
    for t in ("0.5", ["0.5", 1.0], np.array(["0.5"]), 0.5 + 0j, [None], [[0.5], [0.5, 1.0]]):
        with pytest.raises(ValueError, match="^t must hold real numbers only, got"):
            ex.count_at(10, t)
    for t in ("0.5", 0.5 + 0j, None):
        with pytest.raises(ValueError, match="^t must be a real number, got"):
            ex.BlocksEvaluator(x, 10, 100)(t)
    bad_grids = (["0.5", "1"], np.array(["0.5", "1"]), [0.5, "1"], [[0.5], [0.5, 1.0]],
                 np.array([0.5, 1.0], dtype=complex), (0.5, None))
    for grid in bad_grids:
        with pytest.raises(ValueError, match="^grid must hold real numbers only, got"):
            ex.check_grid(grid)
        with pytest.raises(ValueError, match="^grid must hold real numbers only, got"):
            ex.sweep(x, cfg, grid)
        with pytest.raises(ValueError, match="^grid must hold real numbers only, got"):
            ex.MCGrid(grid, np.eye(2), np.eye(2), np.eye(2), 1.0)
    with pytest.raises(ValueError, match="^t_grid must hold real numbers only, got"):
        ex.check_grid(["0.5"], "t_grid")
    # a nested grid of numbers meets the grid rule's one-dimensional message
    with pytest.raises(ValueError, match=r"^grid must be one-dimensional, got shape \(1, 2\)$"):
        ex.check_grid([[0.5, 1.0]])
    # integer, fraction and numpy levels pass
    assert ex.count_at(10, Fraction(1, 2)) == 5
    assert ex.check_grid([Fraction(1, 2), 1]).tolist() == [0.5, 1.0]
    assert ex.check_grid(np.array([1])).tolist() == [1.0]
    assert ex.sweep(x, cfg, [0.5, 1]).k_t.tolist() == [50, 100]


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


def test_grid_must_be_one_dimensional():
    # a nested grid was told it must be "finite, strictly increasing and inside
    # (0, 1]", three conditions it met, and not the one it broke
    for grid, shape in ((0.5, "()"), (np.ones((2, 2)) / 2, "(2, 2)"), ([[]], "(1, 0)")):
        message = f"^grid must be one-dimensional, got shape {re.escape(shape)}$"
        with pytest.raises(ValueError, match=message):
            ex.check_grid(grid)
    with pytest.raises(ValueError, match=r"^t_grid must be one-dimensional, got shape \(1, 2\)$"):
        ex.check_grid([[0.5, 1.0]], "t_grid")


def test_a_nan_threshold_is_bad_input():
    # it raised NoExceedances, a domain result: nothing exceeds u = nan
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 1000, 0)
    calls = (
        lambda: ex.blocks_fixed(x, 10, np.nan),
        lambda: ex.runs_estimator(x, 5, float("nan")),
        lambda: ex.blocks_true_quantile(x, ex.EstimatorConfig(r=10, k=100), 0.5, lambda p: np.nan),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^u must be a real number, got nan$"):
            call()
    # a NaN level is named as the level, not as the NaN threshold it gives
    with pytest.raises(ValueError, match=r"^t must be a real number, got nan$"):
        ex.blocks_true_quantile(x, ex.EstimatorConfig(r=10, k=100), np.nan, lambda p: p)
    # an infinite threshold is a threshold nothing exceeds, as before
    with pytest.raises(ex.NoExceedances):
        ex.blocks_fixed(x, 10, np.inf)


def _count_entry_points():
    """(call of one count argument, the name its error gives, a value below its range)."""
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 1000, 0)
    wn = ex.RandomRepetition(psi=0.5, innovation=ex.Uniform01())
    mm = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    cfg = ex.EstimatorConfig(r=10, k=100)
    base = dict(model=wn, n=1000, r_list=(5,), k=50, t_grid=(0.5, 1.0))

    def config(key, value):
        return ex.ExperimentConfig(**{**base, key: value})

    return [
        (lambda v: ex.EstimatorConfig(r=v, k=100), "r", 0),
        (lambda v: ex.EstimatorConfig(r=10, k=v), "k", 0),
        (lambda v: ex.blocks_fixed(x, v, 1.0), "r", 0),
        (lambda v: ex.runs_estimator(x, v, 1.0), "run_length", 0),
        (lambda v: ex.BlocksEvaluator(x, v, 100), "r", 0),
        (lambda v: ex.BlocksEvaluator(x, 10, v), "k", 0),
        (ex.BlocksEvaluator(x, 10, 100).at_count, "k_t", 0),
        (lambda v: ex.count_at(v, 0.5), "k", 0),
        (ex.default_grid, "k", 0),
        (lambda v: ex.standardize(x, 0.1, v), "r", 0),
        (lambda v: ex.estimate_kernel_mc(wn, 1000, cfg, [0.5, 1.0], replicates=v, seed=0),
         "replicates", 99),
        (lambda v: ex.tail_chain_probabilities(wn, 0.1, replicates=v, n=1000), "replicates", 0),
        (lambda v: ex.tail_chain_probabilities(wn, 0.1, K=v, n=1000), "K", 1),
        (lambda v: ex.tail_chain_probabilities(wn, 0.1, n=v), "n", 0),
        (lambda v: ex.theta_nt_wn(0.5, v, 0.1, 0.5), "r", 0),
        (lambda v: ex.bias_expansion_wn(0.5, v, 0.1), "r", 0),
        (lambda v: ex.mm_block_nonexceed(mm, v, 1.0), "r", 0),
        (lambda v: ex.theta_nt_mm_exact(mm, v, 0.1, 0.5), "r", 0),
        (lambda v: ex.bias_expansion_mm(mm, v, 0.1), "r", 0),
        (lambda v: ex.product_measure(1.0, 2.0, 1.5, v), "m", 0),
        (lambda v: ex.generate(wn, v, 0), "n", 0),
        (lambda v: ex.generate(mm, 100, 0, top=v), "top", 0),
        (lambda v: config("n", v), "n", 0),
        (lambda v: config("k", v), "k", 0),
        (lambda v: config("replicates", v), "replicates", 0),
        (lambda v: config("base_seed", v), "base_seed", -1),
        (lambda v: config("r_list", (v,)), "r_list entry", 0),
        (lambda v: config("run_lengths", (v,)), "run_length", 0),
    ]


def test_every_count_follows_one_rule():
    # fractions were truncated or went through (count_at(2.5, 0.5) returned 2),
    # booleans read as 1, and integral floats crashed inside numpy
    for call, name, low in _count_entry_points():
        for value in (2.5, True, np.True_, np.nan, np.inf, -np.inf, "3", low):
            with pytest.raises(ValueError) as err:
                call(value)
            message = str(err.value)
            assert message.startswith(f"{name} must "), (name, value, message)
            assert message.endswith(f", got {value}"), (name, value, message)


def test_integral_counts_give_the_bits_of_the_int():
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 1000, 0)
    wn = ex.RandomRepetition(psi=0.5, innovation=ex.Uniform01())
    mm = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)

    def bits(ten):
        curve = ex.sweep(x, ex.EstimatorConfig(r=ten, k=10 * ten))
        top = ex.generate(mm, 100, 0, top=ten)
        return [
            curve.theta_hat.tobytes(), curve.k_t.tobytes(), curve.config,
            ex.sweep(x, ex.EstimatorConfig(r=10, k=ten)).theta_hat.tobytes(),
            ex.BlocksEvaluator(x, ten, 100)(0.5), ex.BlocksEvaluator(x, 10, ten).at_count(ten),
            ex.standardize(x, 0.1, ten).tobytes(),
            ex.theta_nt_wn(0.5, ten, 0.1, 0.5).hex(),
            ex.generate(wn, ten, 0).values.tobytes(), top.values.tobytes(), top.top,
        ]

    expected = bits(10)
    for ten in (10.0, np.int64(10), np.float64(10)):
        assert bits(ten) == expected, ten
        cfg = ex.EstimatorConfig(r=ten, k=ten)
        assert type(cfg.r) is int and type(cfg.k) is int
        exp = ex.ExperimentConfig(model=wn, n=100 * ten, r_list=(ten,), k=ten, t_grid=(0.5, 1.0),
                                  replicates=ten, base_seed=ten, run_lengths=(ten,))
        for key in ("n", "k", "replicates", "base_seed"):
            assert type(getattr(exp, key)) is int, key
        assert exp.r_list == exp.run_lengths == (10,) and type(exp.r_list[0]) is int


def test_an_empty_count_range_says_the_series_is_too_short():
    # it said "k must lie in [1, 0], got 1", a range no count fits
    calls = (
        (lambda: ex.EstimatorConfig(r=1, k=1).validate_for(1), "k"),
        (lambda: ex.sweep(np.array([1.0]), ex.EstimatorConfig(r=1, k=1)), "k"),
        (lambda: check_run_length(1, 1), "run_length"),
    )
    for call, name in calls:
        rule = "it must be at least 1 and at most 0, so the series is too short"
        with pytest.raises(ValueError, match=f"^no {name} fits: {rule}, got 1$"):
            call()


def _real_entry_points():
    """(call of one real argument, the name its error gives, values outside its interval)."""
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 1000, 0)
    wn = ex.RandomRepetition(psi=0.5, innovation=ex.Uniform01())
    mm = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)
    cfg = ex.EstimatorConfig(r=10, k=100)
    base = dict(model=wn, n=1000, r_list=(5,), k=50, t_grid=(0.5, 1.0), measure=mu)
    # the outside values, by the finite ends an interval excludes
    inf = np.inf
    zero, unit, one, none = (0, -inf, inf), (0, 1, -inf, inf), (1, -inf, inf), (-inf, inf)
    return [
        (lambda v: ex.UnitPareto(alpha=v), "alpha", zero),
        (lambda v: ex.SecondOrderPareto(v, 1, 1, 0.5), "beta1", zero),
        (lambda v: ex.SecondOrderPareto(2, v, 1, 0.5), "beta2", zero),
        (lambda v: ex.SecondOrderPareto(2, 1, v, 0.5), "c1", zero),
        (lambda v: ex.SecondOrderPareto(2, 1, 1, v), "c2", none),
        (lambda v: ex.AR1Cauchy(phi=v), "phi", unit),
        (lambda v: ex.RandomRepetition(psi=v, innovation=ex.Uniform01()), "psi", one),
        (lambda v: ex.MovingMaxima((1.0, v), 2, 1, 1, 0.5), "coeffs entry", none),
        (lambda v: ex.MovingMaxima((1.0, 0.5), v, 1, 1, 0.5), "beta1", zero),
        (lambda v: ex.SignedMeasureAtoms(((v, 0.5, 1.0),)), "atom 0 s", zero),
        (lambda v: ex.SignedMeasureAtoms(((0.5, 0.5, 1.0), (0.5, v, -1.0))), "atom 1 t", zero),
        (lambda v: ex.SignedMeasureAtoms(((0.5, 0.5, v),)), "atom 0 weight", none),
        (lambda v: ex.two_atom_measure(v, 1.0, 2.0), "p", zero),
        (lambda v: ex.two_atom_measure(0.5, v, 2.0), "q", zero),
        (lambda v: ex.two_atom_measure(0.5, 1.0, v), "a", one),
        (lambda v: ex.product_measure(v, 2.0, 1.5, 2), "kappa", zero),
        (lambda v: ex.product_measure(1.0, v, 1.5, 2), "a", one),
        (lambda v: ex.product_measure(1.0, 2.0, v, 2), "b", one),
        (lambda v: ex.check_conditions(mu, [v]), "delta probe", zero),
        (lambda v: ex.scale_measure(mu, v), "t0", zero),
        (lambda v: ex.sigma2_mu(mu, v, ex.ClosedFormIID()), "delta", zero),
        (lambda v: ex.blocks_fixed(x, 5, v), "u", ()),
        (lambda v: ex.runs_estimator(x, 5, v), "u", ()),
        (ex.BlocksEvaluator(x, 10, 100), "t", zero),
        (lambda v: ex.blocks_true_quantile(x, cfg, v, ex.Uniform01().quantile), "t", zero),
        (lambda v: ex.standardize(x, v, 5), "v", unit),
        (lambda v: ex.tail_chain_probabilities(wn, v, n=1000), "v", unit),
        (lambda v: ex.f_max(np.ones((2, 5)), v), "t", zero),
        (lambda v: ex.g_count(np.ones((2, 5)), v), "t", zero),
        (lambda v: ex.TailChainSeries(np.ones((60, 3)), v), "theta", none),
        (lambda v: ex.BiasExpansion(theta=v, theta_n=0.5, c_n=0.1, delta=1.0), "theta", zero),
        (lambda v: ex.BiasExpansion(theta=0.5, theta_n=0.5, c_n=0.1, delta=v), "delta", zero),
        (lambda v: ex.theta_nt_wn(v, 5, 0.1, 1.0), "psi", one),
        (lambda v: ex.theta_nt_wn(0.5, 5, v, 1.0), "v", unit),
        (lambda v: ex.theta_nt_wn(0.5, 5, 0.1, v), "t", zero),
        (lambda v: ex.bias_expansion_wn(0.5, 5, v), "v", unit),
        (lambda v: ex.bias_expansion_mm(mm, 5, v), "v", unit),
        (lambda v: ex.theta_nt_mm_exact(mm, 5, v, 0.5), "v", unit),
        (lambda v: ex.mm_block_nonexceed(mm, 5, v), "u", ()),
        (lambda v: ex.ExperimentConfig(**base, delta=v), "delta", zero),
    ]


def test_every_real_parameter_follows_one_rule():
    # booleans read as 1 or 0 (UnitPareto(alpha=True) was the law with alpha = 1),
    # and strings raised operator or numpy TypeErrors that carried no code
    for call, name, outside in _real_entry_points():
        for value in (True, np.True_, "0.5", None, np.nan, *outside):
            with pytest.raises(ValueError) as err:
                call(value)
            message = str(err.value)
            assert message.startswith(f"{name} must "), (name, value, message)
            assert message.endswith(f", got {value}"), (name, value, message)


def test_integral_reals_give_the_bits_of_the_float():
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 1000, 0)
    cfg = ex.EstimatorConfig(r=10, k=100)

    def bits(real):
        """Paths, atoms, curves and oracle values, each real parameter given as ``real(value)``."""
        one, half, two, tenth = real(1.0), real(0.5), real(2.0), real(0.1)
        mm = ex.MovingMaxima(coeffs=(one, half), beta1=two, beta2=one, c1=one, c2=half)
        models = (
            ex.IID(innovation=ex.UnitPareto(alpha=two)),
            ex.IID(innovation=ex.SecondOrderPareto(two, one, one, half)),
            ex.AR1Cauchy(phi=half),
            ex.RandomRepetition(psi=real(0.0), innovation=ex.Uniform01()),
            ex.RandomRepetition(psi=half, innovation=ex.Uniform01()),
            mm,
        )
        mu = ex.two_atom_measure(half, one, two)
        measures = (
            mu, ex.product_measure(one, two, real(1.5), 2), ex.scale_measure(mu, half),
            ex.SignedMeasureAtoms(((half, one, one), (one, half, real(-1.0)))),
        )
        kernel = ex.MCGrid([0.25, 0.5, 1.0], np.eye(3) + 1, np.eye(3), np.eye(3), 0.5)
        config = ex.ExperimentConfig(model=models[3], n=1000, r_list=(5,), k=50,
                                     t_grid=(0.5, 1.0), measure=mu, delta=one)
        evaluator = ex.BlocksEvaluator(x, 10, 100)
        return [
            *(repr(model) for model in models),
            *(ex.generate(model, 200, 0).values.tobytes() for model in models),
            *(repr(measure.atoms) for measure in measures),
            repr(ex.check_conditions(mu, [one, two])),
            ex.sigma2_mu(mu, one, kernel).hex(),
            ex.corrected_curve(x, cfg, mu, [0.5, 1.0]).theta_hat.tobytes(),
            ex.blocks_fixed(x, 5, one).hex(), ex.runs_estimator(x, 5, one).hex(),
            evaluator(half).hex(), evaluator(one).hex(),
            ex.blocks_true_quantile(x, cfg, one, ex.AR1Cauchy(phi=0.6).marginal.quantile).hex(),
            ex.standardize(x, tenth, 5).tobytes(),
            repr(ex.BiasExpansion(theta=one, theta_n=1.0, c_n=0.0, delta=one)),
            ex.theta_nt_wn(real(0.0), 5, tenth, one).hex(), ex.theta_nt_wn(half, 5, tenth, half).hex(),
            repr(ex.bias_expansion_wn(half, 5, tenth)), repr(ex.bias_expansion_mm(mm, 5, tenth)),
            ex.theta_nt_mm_exact(mm, 5, tenth, 0.5).hex(), ex.mm_block_nonexceed(mm, 5, two).hex(),
            repr(config), json.dumps(config.to_dict()),
        ]

    expected = bits(float)
    for real in (lambda v: int(v) if v.is_integer() else v,
                 lambda v: np.int64(v) if v.is_integer() else np.float64(v), np.float64):
        assert bits(real) == expected
