"""Standardized exceedance blocks, fluctuation paths, and covariance kernels."""

import hashlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import exindex as ex
import exindex.sim as sim_module
from exindex.clusterproc import _cdf_budgets, _cdf_values, _rank_budgets, _sample_counts


def level_sums(x, v, r, grid, marginal_cdf=None):
    """The kernel's sums of f_max and g_count over the blocks of one sample, at every level.

    They are the count stage's block maxima and in-block exceedances: of the
    sample at the budgets q(t) in rank mode, where it must not tie at any
    of them, and of U = F(X) at the budgets b(t) in known-marginal mode,
    where no tie can straddle a cut.
    """
    grid = np.asarray(grid, dtype=float)
    if marginal_cdf is not None:
        x = _cdf_values(x, marginal_cdf)
        budgets = _cdf_budgets(x, v, grid)
    else:
        budgets = _rank_budgets(len(x), v, grid)
    tied, hit, in_blocks = _sample_counts(x, r, budgets)
    assert not tied.any()
    return hit, in_blocks


def test_standardize_known_marginal_hand_values():
    x = np.array([0.1, 0.95, 0.99, 0.4])
    blocks = ex.standardize(x, v=0.1, r=2, marginal_cdf=lambda z: z)
    assert blocks.shape == (2, 2)
    np.testing.assert_allclose(blocks, [[0.0, 0.5], [0.9, 0.0]], atol=1e-12)


def test_f_max_and_g_count_hand_values():
    blocks = np.array([[0.0, 0.5], [0.9, 0.0]])
    np.testing.assert_array_equal(ex.f_max(blocks, 0.6), [1.0, 1.0])
    np.testing.assert_array_equal(ex.f_max(blocks, 0.4), [0.0, 1.0])
    np.testing.assert_array_equal(ex.g_count(blocks, 0.6), [1.0, 1.0])
    # strict inequality at the boundary: excess 0.5 does not count at t = 0.5
    np.testing.assert_array_equal(ex.g_count(blocks, 0.5), [0.0, 1.0])


def test_standardize_rank_mode_matches_empirical_thresholds():
    rng = np.random.default_rng(14)
    n, r, k = 40, 5, 8
    x = rng.random(n)
    blocks = ex.standardize(x, v=k / n, r=r)
    ev = ex.BlocksEvaluator(x, r, k)
    for t in (0.25, 0.5, 0.75, 1.0):
        k_t = ex.count_at(k, t)
        # n divisible by r: every top-k_t rank lands in a block
        assert int(ex.g_count(blocks, t).sum()) == k_t
        # hit blocks equal the empirical-threshold numerator
        assert int(ex.f_max(blocks, t).sum()) == round(ev.at_count(k_t) * k_t)


def test_standardize_validation():
    x = np.arange(10.0)
    with pytest.raises(ValueError):
        ex.standardize(x, v=0.0, r=2)
    with pytest.raises(ValueError):
        ex.standardize(x, v=1.0, r=2)
    with pytest.raises(ValueError):
        ex.standardize(x, v=0.1, r=11)


def test_process_path_mc_mean_centering_is_exact():
    # Z_n(f_t) = (n v)^(-1/2) (sum_j f_t(Y_j) - m E f_t) from the level sums,
    # centred by the cross-replicate mean per block, averages to 0
    model = ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01())
    marg = model.marginal
    n, v, r = 2000, 0.05, 10
    grid = np.array([0.5, 1.0])
    samples = [ex.generate(model, n, ex.substream(0, rep)).values for rep in range(20)]
    blocks = [ex.standardize(x, v=v, r=r, marginal_cdf=marg.cdf) for x in samples]
    m = n // r
    sums = np.array([[ex.f_max(b, t).sum() / m for t in grid] for b in blocks])
    mean_per_block = sums.mean(axis=0)
    paths = [
        (level_sums(x, v, r, grid, marg.cdf)[0] - m * mean_per_block) / np.sqrt(n * v)
        for x in samples
    ]
    assert np.abs(np.mean(paths, axis=0)).max() < 1e-12


def test_process_path_model_centering_wn():
    # exact per-block means E f_t = r v t theta_nt and E g_t = r v t keep the
    # fluctuation paths Z_n(f_t), Z_n(g_t) centered across replicates
    model = ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01())
    marg = model.marginal
    n, r, v, t = 10_000, 10, 0.01, 1.0
    m = n // r
    zf, zg = [], []
    for rep in range(200):
        x = ex.generate(model, n, ex.substream(1, rep))
        (hit,), (count,) = level_sums(x.values, v, r, [t], marg.cdf)
        zf.append((hit - m * r * v * t * ex.theta_nt_wn(0.6, r, v, t)) / np.sqrt(n * v))
        zg.append((count - m * r * v * t) / np.sqrt(n * v))
    assert abs(np.mean(zf)) < 0.4
    assert abs(np.mean(zg)) < 0.4
    w = np.array(zf) - 0.4 * np.array(zg)
    assert 0.1 < w.var(ddof=1) < 0.35  # limit kernel value c(1,1) = 0.24


def test_expected_count_identity_iid():
    # E g_1 = r * v * t exactly for the known-marginal standardization
    model = ex.IID(innovation=ex.Uniform01())
    r, v = 10, 0.05
    total, blocks_seen = 0.0, 0
    for rep in range(300):
        x = ex.generate(model, 2000, ex.substream(2, rep))
        blocks = ex.standardize(x.values, v=v, r=r, marginal_cdf=lambda z: z)
        total += ex.g_count(blocks, 1.0).sum()
        blocks_seen += len(blocks)
    assert total / blocks_seen == pytest.approx(r * v * 1.0, abs=0.01)


def test_closed_form_iid_kernel():
    kern = ex.ClosedFormIID()
    assert kern.c(0.3, 0.7) == 0.0
    assert kern.c_g(1.0, 1.0) == 1.0
    assert kern.c_g(0.4, 0.9) == 0.4
    assert kern.c_fg(0.2, 0.9) == 0.2
    assert kern.theta == 1.0
    assert kern.c(1.0, 1.0) == 0.0


def test_tail_chain_iid_degenerate_kernel():
    series = ex.tail_chain_probabilities(
        ex.IID(innovation=ex.Uniform01()), v=1e-3, K=50, replicates=100, seed=0, n=100_000
    )
    assert series.theta == 1.0
    for s, t in ((1.0, 1.0), (0.5, 1.0), (0.5, 0.5)):
        assert abs(series.c(s, t)) <= 0.15
        assert abs(series.c_g(s, t) - min(s, t)) <= 0.15
    assert series.c_fg(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    # dropping the last 10 window positions barely moves c_g(1, 1)
    full = series.c_g(1.0, 1.0)
    short = ex.TailChainSeries(series.windows[:, :-10], series.theta).c_g(1.0, 1.0)
    assert abs(full - short) / abs(full) < 0.05


def test_tail_chain_wn_kernel():
    model = ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01())
    series = ex.tail_chain_probabilities(model, v=1e-3, K=50, replicates=100, seed=0, n=100_000)
    assert abs(series.c_g(1.0, 1.0) - 4.0) <= 0.5  # (1 + psi) / (1 - psi)
    assert abs(series.c(1.0, 1.0) - 0.24) <= 0.15
    assert abs(series.c_fg(0.5, 1.0) - 0.5) <= 0.1


def test_tail_chain_ar1_shows_clustering():
    series = ex.tail_chain_probabilities(ex.AR1Cauchy(phi=0.6), v=1e-3, K=50,
                                         replicates=100, seed=0, n=100_000)
    assert series.c_g(1.0, 1.0) > 1.5  # well above the iid value 1


def test_tail_chain_needs_enough_windows():
    with pytest.raises(ValueError):
        ex.tail_chain_probabilities(ex.IID(innovation=ex.Uniform01()), v=1e-6,
                                    replicates=100, seed=0, n=1000)
    with pytest.raises(ValueError):
        ex.tail_chain_probabilities(ex.IID(innovation=ex.Uniform01()), v=0.01, K=1,
                                    replicates=100, seed=0)


def test_tail_chain_rejects_bad_v_and_replicates_before_simulating(monkeypatch):
    # a v outside (0, 1) once printed a kernel (v = 1.5, -0.1) or divided by zero (v = 0)
    seeds = recording_generate(monkeypatch)
    model = ex.AR1Cauchy(phi=0.6)
    for v in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError, match=rf"^v must lie in \(0, 1\), got {v}$"):
            ex.tail_chain_probabilities(model, v=v, replicates=2, n=1000)
    with pytest.raises(ValueError, match="^v must be a real number, got nan$"):
        ex.tail_chain_probabilities(model, v=float("nan"), replicates=2, n=1000)
    for replicates in (0, -1):
        with pytest.raises(ValueError, match=f"^replicates must be at least 1, got {replicates}$"):
            ex.tail_chain_probabilities(model, v=0.1, replicates=replicates, n=1000)
    assert seeds == []


def test_kernel_mc_iid_known_marginal():
    u01 = ex.Uniform01()
    kern = ex.estimate_kernel_mc(
        ex.IID(innovation=u01), 2000, ex.EstimatorConfig(r=10, k=20),
        [0.5, 1.0], replicates=200, seed=0, marginal_cdf=u01.cdf,
    )
    assert abs(kern.c(1.0, 1.0)) <= 0.2
    assert 0.5 <= kern.c_g(1.0, 1.0) <= 1.2
    assert 0.4 <= kern.c_fg(1.0, 1.0) <= 1.1
    assert kern.theta == pytest.approx(ex.theta_nt_wn(0.0, 10, 0.01, 1.0), abs=0.05)
    assert abs(kern.c(1e-9, 1e-9)) <= 1e-6  # kernel vanishes toward t = 0


def test_kernel_mc_rank_mode_pins_counts():
    # rank standardization with no dropped tail fixes the exceedance counts,
    # so the count-process covariances are exactly zero at every level pair;
    # only c carries information
    cases = [
        (ex.IID(innovation=ex.Uniform01()), 2000, 20, [0.5, 1.0]),
        (ex.AR1Cauchy(phi=0.6), 20_000, 200, np.linspace(0.05, 1.0, 20)),
    ]
    for model, n, k, grid in cases:
        kern = ex.estimate_kernel_mc(model, n, ex.EstimatorConfig(r=10, k=k), grid,
                                     replicates=100, seed=0)
        pairs = [(s, t) for s in grid for t in grid]
        assert [kern.c_g(s, t) for s, t in pairs] == [0.0] * len(pairs)
        assert [kern.c_fg(s, t) for s, t in pairs] == [0.0] * len(pairs)
        assert all(kern.c(t, t) > 0.0 for t in grid)


def test_kernel_mc_deterministic():
    args = (ex.IID(innovation=ex.Uniform01()), 1000, ex.EstimatorConfig(r=5, k=10), [1.0])
    a = ex.estimate_kernel_mc(*args, replicates=100, seed=3)
    b = ex.estimate_kernel_mc(*args, replicates=100, seed=3)
    c = ex.estimate_kernel_mc(*args, replicates=100, seed=4)
    assert a.c(1.0, 1.0) == b.c(1.0, 1.0)
    assert a.c(1.0, 1.0) != c.c(1.0, 1.0)
    with pytest.raises(ValueError):
        ex.estimate_kernel_mc(*args, replicates=50, seed=0)


def kernel_mc_reference(model, n, cfg, grid, replicates, seed, marginal_cdf=None):
    """The per-level loop over full stable-sort ranks, as an ``MCGrid``."""
    grid = np.asarray(grid, dtype=float)
    v = cfg.v(n)
    m = n // cfg.r
    sf = np.zeros((replicates, grid.size))
    sg = np.zeros((replicates, grid.size))
    theta_hats = np.zeros(replicates)
    for rep in range(replicates):
        x = ex.generate(model, n, ex.substream(seed, rep)).values
        if marginal_cdf is None:
            ranks = np.empty(n)
            ranks[np.argsort(x, kind="stable")] = np.arange(1, n + 1)
            u = ranks / n
        else:
            u = marginal_cdf(x)
        blocks = np.clip((u - (1.0 - v)) / v, 0.0, None)[: m * cfg.r].reshape(m, cfg.r)
        for j, t in enumerate(grid):
            sf[rep, j] = ex.f_max(blocks, t).sum()
            sg[rep, j] = ex.g_count(blocks, t).sum()
        theta_hats[rep] = ex.BlocksEvaluator(x, cfg.r, cfg.k)(1.0)
    scale = 1.0 / np.sqrt(n * v)
    zf = scale * (sf - sf.mean(axis=0))
    zg = scale * (sg - sg.mean(axis=0))
    theta = float(theta_hats.mean())
    return ex.MCGrid(
        grid,
        np.cov(zf - theta * zg, rowvar=False),
        np.cov(zg, rowvar=False),
        zf.T @ zg / (replicates - 1),
        theta,
    )


@pytest.mark.parametrize("case", ["ar1_rank", "iid_known_marginal"])
def test_kernel_mc_equals_per_level_loop(case):
    u01 = ex.Uniform01()
    if case == "ar1_rank":
        model, cdf, cfg = ex.AR1Cauchy(phi=0.6), None, ex.EstimatorConfig(r=10, k=100)
    else:
        model, cdf, cfg = ex.IID(innovation=u01), u01.cdf, ex.EstimatorConfig(r=5, k=40)
    grid = np.linspace(0.1, 1.0, 8)
    got = ex.estimate_kernel_mc(model, 4000, cfg, grid, replicates=100, seed=3, marginal_cdf=cdf)
    want = kernel_mc_reference(model, 4000, cfg, grid, 100, 3, marginal_cdf=cdf)
    for name in ("_c", "_cg", "_cfg"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.theta == want.theta


@pytest.mark.parametrize("cdf", [
    lambda z: np.round(z, 3),  # coarse: many values of U tie, some of them at a cut
    lambda z: (np.sin(7.0 * z) + 1.0) / 2.0,  # not monotone in z
], ids=["coarse", "non_monotone"])
def test_kernel_mc_known_marginal_counts_u_itself(cdf):
    # the known-marginal sums count the values of U = F(X) at their own
    # budgets; nothing assumes that F orders U as it orders X, or that U is untied
    model, cfg = ex.IID(innovation=ex.Uniform01()), ex.EstimatorConfig(r=5, k=40)
    grid = np.linspace(0.1, 1.0, 8)
    got = ex.estimate_kernel_mc(model, 4000, cfg, grid, replicates=100, seed=3, marginal_cdf=cdf)
    want = kernel_mc_reference(model, 4000, cfg, grid, 100, 3, marginal_cdf=cdf)
    for name in ("_c", "_cg", "_cfg"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.theta == want.theta


def test_kernel_mc_sorts_each_sample_once_per_replicate(monkeypatch):
    # one partial sort per replicate serves the level sums and theta_hat(1):
    # no evaluator is built and no m x r blocks array is standardized.  The
    # slice is as wide as the largest budget q(1), the count of positive rank
    # excesses: k = 100 at n = 4000, and k + 1 = 101 at n = 1014
    from exindex import clusterproc, estimate

    model, cfg = ex.AR1Cauchy(phi=0.6), ex.EstimatorConfig(r=10, k=100)
    grid = np.linspace(0.1, 1.0, 8)
    widths = {4000: 100, 1014: 101}
    plain = {n: ex.estimate_kernel_mc(model, n, cfg, grid, replicates=100, seed=2) for n in widths}

    sorts, builds, standardized = [], [], []
    top_slice, build, standardize = (
        clusterproc._top_slice, estimate.BlocksEvaluator, clusterproc.standardize
    )

    def counted_sort(xs, k):
        sorts.append((len(xs), k))
        return top_slice(xs, k)

    def counted_build(*args, **kwargs):
        builds.append(args[1:])
        return build(*args, **kwargs)

    def counted_standardize(*args, **kwargs):
        standardized.append(args[1:])
        return standardize(*args, **kwargs)

    monkeypatch.setattr(clusterproc, "_top_slice", counted_sort)
    monkeypatch.setattr(clusterproc, "standardize", counted_standardize)
    for module in (estimate, clusterproc):
        monkeypatch.setattr(module, "BlocksEvaluator", counted_build)
    for n, width in widths.items():
        assert clusterproc._rank_budgets(n, cfg.k / n, grid)[-1] == width
        sorts.clear()
        counted = ex.estimate_kernel_mc(model, n, cfg, grid, replicates=100, seed=2)
        assert sorts == [(n, width)] * 100
        assert builds == []
        assert standardized == []
        for name in ("_c", "_cg", "_cfg"):
            assert np.array_equal(getattr(counted, name), getattr(plain[n], name)), name
        assert counted.theta == plain[n].theta


# sha256 of the c, c_g and c_fg matrices (zero-padded, as MCGrid keeps them) and
# theta of the benchmark's AR(1) kernel config at seed 0: a change to the
# kernel that moves one bit of them fails here
AR1_KERNEL_SHA256 = "e9a15761b1305007d8abbf9067c3c63f0190310b2a72efea13cdaad3b6d5fc5a"


def test_kernel_mc_equals_recorded_hash():
    kern = ex.estimate_kernel_mc(ex.AR1Cauchy(phi=0.6), 20_000, ex.EstimatorConfig(r=10, k=200),
                                 np.linspace(0.05, 1.0, 20), replicates=200, seed=0)
    digest = hashlib.sha256()
    for mat in (kern._c, kern._cg, kern._cfg):
        digest.update(mat.tobytes())
    digest.update(np.float64(kern.theta).tobytes())
    assert digest.hexdigest() == AR1_KERNEL_SHA256


class TiedAt:
    """A stub model of uniform paths, some of them tied across a budget.

    ``ties`` maps a draw index to a budget q: that draw's (q + 1)-th largest
    value is set equal to its q-th.  Draws are counted in this process, so
    the kernel must not fork.
    """

    def __init__(self, ties):
        self.ties = ties  # {draw index: budget}
        self.drawn = 0

    def sample(self, rng, n):
        x = rng.random(n)
        budget = self.ties.get(self.drawn)
        self.drawn += 1
        if budget is not None:
            order = np.argsort(x)
            x[order[n - budget - 1]] = x[order[n - budget]]
        return x


def test_kernel_mc_raises_a_tie_at_a_grid_level_naming_replicate_seed_and_level():
    # a tie straddling the cut at q(0.5) but not at budget k = 20 once counted
    # stable ranks silently; now the earliest failing replicate of its group
    # raises, ahead of a later one that ties at budget k
    from exindex import clusterproc

    n, cfg, grid = 1000, ex.EstimatorConfig(r=10, k=20), [0.5, 1.0]
    q = clusterproc._rank_budgets(n, cfg.k / n, np.array(grid))
    # q(0.5) is one more than count_at(20, 0.5) = 10: the float excess of rank 990 exceeds 0.5
    assert q.tolist() == [11, 20]
    model = TiedAt({37: 11, 41: 20})
    x = ex.generate(TiedAt({0: 11}), n, ex.substream(5, 37)).values
    assert 0.0 < ex.BlocksEvaluator(x, cfg.r, cfg.k)(1.0)  # no tie at budget k
    with pytest.raises(ex.TiesDetected) as err:
        ex.estimate_kernel_mc(model, n, cfg, grid, replicates=100, seed=5)
    assert str(err.value) == (
        "replicate 37 (base_seed 5) at level t=0.5: threshold order statistic ties"
        " the smallest of the top 11 values"
    )
    with pytest.raises(ex.TiesDetected, match="replicate 41 \\(base_seed 5\\): threshold"):
        ex.estimate_kernel_mc(TiedAt({41: 20}), n, cfg, grid, replicates=100, seed=5)
    ex.estimate_kernel_mc(TiedAt({}), n, cfg, grid, replicates=100, seed=5)


def test_process_path_equals_per_level_sums():
    # the rank-mode fluctuation paths from the level sums, against one level at a time
    n, v = 3000, 0.05
    x = ex.generate(ex.AR1Cauchy(phi=0.6), n, ex.substream(4, 0)).values
    blocks = ex.standardize(x, v=v, r=10)
    m = len(blocks)
    grid = np.linspace(0.05, 1.0, 11)
    expected = 0.4 * grid
    scale = 1.0 / np.sqrt(n * v)
    for sums, h in zip(level_sums(x, v, 10, grid), (ex.f_max, ex.g_count)):
        path = scale * (sums - m * expected)
        want = [scale * (h(blocks, t).sum() - m * e) for t, e in zip(grid, expected)]
        assert path.tolist() == want


def test_standardize_rejects_non_finite_values():
    for bad in (np.nan, np.inf, -np.inf):
        x = np.arange(20.0)
        x[7] = bad
        with pytest.raises(ValueError, match="finite"):
            ex.standardize(x, v=0.1, r=5)
        with pytest.raises(ValueError, match="finite"):
            ex.standardize(x, v=0.1, r=5, marginal_cdf=lambda z: z / 20.0)
        # a cdf value of NaN or inf is rejected too, not read as a zero excess
        with pytest.raises(ValueError, match="marginal_cdf must return finite values"):
            ex.standardize(np.arange(20.0), v=0.1, r=5,
                           marginal_cdf=lambda z: np.where(z == 7, bad, z / 20.0))


BAD_GRIDS = ([0.5, 1.5], [1.0, 0.5], [0.5, 0.5], [0.0, 0.5], [-0.2, 1.0], [np.nan],
             [0.5, np.inf], [])


def recording_generate(monkeypatch):
    """Seeds of the paths drawn through ``sim.generate``, the binding the replicate loop calls."""
    seeds = []
    generate = sim_module.generate

    def recorded(model, n, seed, top=None):
        seeds.append(seed)
        return generate(model, n, seed, top=top)

    monkeypatch.setattr(sim_module, "generate", recorded)
    return seeds


def test_kernel_mc_rejects_bad_grid_before_simulating(monkeypatch):
    seeds = recording_generate(monkeypatch)
    args = (ex.IID(innovation=ex.Uniform01()), 1000, ex.EstimatorConfig(r=5, k=10))
    for grid in BAD_GRIDS:
        with pytest.raises(ValueError, match="grid"):
            ex.estimate_kernel_mc(*args, grid, replicates=100, seed=0)
    assert seeds == []
    ex.estimate_kernel_mc(*args, [1.0], replicates=100, seed=0)
    assert len(seeds) == 100  # the recorder sees the draws of a good grid


def test_kernel_and_tail_chain_draw_each_replicate_once_in_order(monkeypatch):
    seeds = recording_generate(monkeypatch)
    u01 = ex.Uniform01()
    model = ex.IID(innovation=u01)
    ex.estimate_kernel_mc(model, 1000, ex.EstimatorConfig(r=5, k=50), [0.5, 1.0],
                          replicates=100, seed=7, marginal_cdf=u01.cdf)
    ex.tail_chain_probabilities(model, v=0.1, K=5, replicates=3, seed=8, n=1000)
    want = [(7, (rep,)) for rep in range(100)] + [(8, (rep,)) for rep in range(3)]
    assert [(s.entropy, s.spawn_key) for s in seeds] == want


def test_mc_grid_rejects_bad_grid():
    for grid in BAD_GRIDS:
        with pytest.raises(ValueError, match="grid"):
            ex.MCGrid(grid, np.eye(len(grid)), np.eye(len(grid)), np.eye(len(grid)), 1.0)
    # a matrix of another size once read an entry of a level the grid does not hold
    for bad in (np.eye(3), np.eye(1), np.ones((2, 3)), np.ones(2)):
        for mats in ((bad, np.eye(2), np.eye(2)), (np.eye(2), bad, np.eye(2)),
                     (np.eye(2), np.eye(2), bad)):
            with pytest.raises(ValueError, match="2 x 2 matrix for 2 grid levels"):
                ex.MCGrid([0.5, 1.0], *mats, 1.0)


TAIL_MODELS = {
    "ar1": ex.AR1Cauchy(phi=0.6),
    "mm": ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2.0, beta2=1.0, c1=1.0, c2=0.5),
    "wn": ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01()),
}


@pytest.mark.parametrize("name", sorted(TAIL_MODELS))
def test_tail_chain_windows_equal_the_inline_excess_formula(name):
    # the reference writes the known-marginal excess formula out inline; the kernel
    # takes its excesses from the dense array of ``_excess``
    model, v, K, n = TAIL_MODELS[name], 0.02, 20, 5000
    series = ex.tail_chain_probabilities(model, v=v, K=K, replicates=10, seed=3, n=n)
    rows = []
    for rep in range(10):
        x = ex.generate(model, n, ex.substream(3, rep))
        u = np.asarray(model.marginal.cdf(x.values), dtype=float)
        excess = np.clip((u - (1.0 - v)) / v, 0.0, None)
        starts = np.flatnonzero(excess[: n - K + 1] > 0.0)
        rows.append(sliding_window_view(excess, K)[starts])
    want = np.concatenate(rows)
    assert series.windows.shape == want.shape
    assert series.windows.tobytes() == want.tobytes()


class _NanAbove:
    """A marginal whose cdf is NaN above ``cut``."""

    def __init__(self, base, cut):
        self.base, self.cut = base, cut

    def cdf(self, x):
        return np.where(np.asarray(x) > self.cut, np.nan, self.base.cdf(x))


class _NanMarginalAR1(ex.AR1Cauchy):
    @property
    def marginal(self):
        return _NanAbove(super().marginal, 50.0)


def test_tail_chain_rejects_a_marginal_cdf_that_returns_nan():
    # the windows starting at a NaN were once dropped without a word
    with pytest.raises(ValueError, match="marginal_cdf must return finite values"):
        ex.tail_chain_probabilities(_NanMarginalAR1(phi=0.6), v=0.1, K=5, replicates=2,
                                    seed=0, n=2000)


def test_tail_chain_windows_equal_per_exceedance_loop():
    model = ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01())
    v, K, n = 2e-3, 20, 20_000
    series = ex.tail_chain_probabilities(model, v=v, K=K, replicates=30, seed=2, n=n)
    marg = model.marginal
    rows = []
    for rep in range(30):
        x = ex.generate(model, n, ex.substream(2, rep))
        excess = np.clip((marg.cdf(x.values) - (1.0 - v)) / v, 0.0, None)
        for i in np.flatnonzero(excess[: n - K + 1] > 0.0):
            rows.append(excess[i : i + K])
    assert np.array_equal(series.windows, np.array(rows))
    with pytest.raises(ValueError, match=r"^K must lie in \[2, 1000\], got 1001$"):
        ex.tail_chain_probabilities(model, v=0.01, K=1001, replicates=100, seed=0, n=1000)


def test_mc_grid_rejects_non_finite_matrices_and_theta():
    # a NaN or infinite entry made every read near it a silent NaN
    grid, good = [0.5, 1.0], np.eye(2)
    for bad in (np.nan, np.inf, -np.inf):
        for i, name in enumerate(("c_mat", "cg_mat", "cfg_mat")):
            mats = [good, good, good]
            mats[i] = np.array([[1.0, bad], [bad, 1.0]])
            with pytest.raises(ValueError, match=f"^{name} must be finite; found NaN or inf$"):
                ex.MCGrid(grid, *mats, 1.0)
        rule = "be a real number" if np.isnan(bad) else r"lie in \(-inf, inf\)"
        with pytest.raises(ValueError, match=f"^theta must {rule}, got {bad}$"):
            ex.MCGrid(grid, good, good, good, bad)
    assert ex.MCGrid(grid, good, good, good, 1.0).c(0.5, 1.0) == 0.0
