"""Empirical cluster-process machinery: standardized excess blocks, the block
functionals f_t (block contains an exceedance) and g_t (exceedance count), the
normalized fluctuation process Z_n(h), and covariance kernels.

Given marginally-uniform scores U_i and an exceedance fraction v, define the
standardized excesses ((U_i - (1 - v)) clipped at 0) / v in [0, 1] and cut the
series into m disjoint blocks of length r.  For a block y and level t in (0, 1]

    f_t(y) = 1{max_i y_i > 1 - t}          g_t(y) = #{i : y_i > 1 - t}

and the fluctuation process of a functional family h is

    Z_n(h_t) = (n * v)^(-1/2) * sum_j (h_t(Y_j) - E h_t(Y_j)).

The limiting covariances are expressed through the tail sequence (W_k): the
weak limit of a standardized window of the series started at an exceedance.
With p_k(s, t) = P{W_1 > 1-s, W_k > 1-t},

    c_g(s, t)  = min(s, t) + sum_{k>=2} (p_k(s, t) + p_k(t, s))
    c_fg(s, t) = t                                          if s >= t
               = P{W_1 > 1-t, max_{j>=1} W_j > 1-s}
                 + sum_{k>=2} P{W_1 > 1-s, W_k > 1-t, max_{j>=2} W_j <= 1-s}
                                                            if s < t
    c(s, t)    = theta * (min(s, t) - c_fg(s, t) - c_fg(t, s))
                 + theta^2 * c_g(s, t)

For independent data the tail sequence is degenerate (W_k = 0 for k >= 2), so
c_g = c_fg = min(s, t), theta = 1 and c vanishes identically.

Every kernel is read as matrices: ``matrices(s, t)`` of two 1-D sequences of
levels returns c, c_g and c_fg with entry (i, j) at the levels (s_i, t_j), and
the per-point ``c(s, t)``, ``c_g`` and ``c_fg`` read its one entry.

The Monte Carlo kernel never forms the m x r blocks: both modes sum f_t and
g_t over the blocks through the blocks estimator's count stage
(``estimate._counts``), the block maxima above a threshold and the
exceedances inside the blocks.  In rank mode the excesses above 1 - t belong
to the q(t) highest ranks (``_rank_budgets``), so the sums are the counts of
the sample at the budget q(t) wherever no tie straddles that threshold; the
count stage flags one that does.  Per sample, one partial sort serves every
q(t) and the budget k of theta_hat(1), and the value stage runs once per
group of samples.  In known-marginal mode the levels are fixed on the cdf
scale: the excesses above 1 - t belong to the b(t) largest of U = F(X)
(``_cdf_budgets``), so the sums are the counts of U itself at the budgets
b(t), and no tie can straddle their cuts.  ``standardize`` and
``tail_chain_probabilities`` read the dense excess array of ``_excess``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import sim
from .estimate import (
    OK,
    TIES,
    EstimatorConfig,
    _coded_values,
    _counts,
    _raise_coded,
    _real,
    _top_slice,
    _top_tables,
    _values,
    _whole,
    check_grid,
)
from .estimate import BlocksEvaluator  # noqa: F401  (perfbench/layers.py traces this binding)

__all__ = [
    "standardize",
    "f_max",
    "g_count",
    "ClosedFormIID",
    "TailChainSeries",
    "MCGrid",
    "estimate_kernel_mc",
    "tail_chain_probabilities",
]


def standardize(x, v: float, r: int, marginal_cdf=None) -> np.ndarray:
    """m x r array of standardized excesses ((U_i - (1 - v))+ ) / v, m = n // r.

    With ``marginal_cdf`` given, U_i = F(X_i) (known-marginal mode); otherwise
    U_i = rank_i / n.  Ranks are those of a stable sort (ties ranked in index
    order); only the values with a positive excess are ranked.  In rank mode
    the excesses above 1 - t belong to the q(t) highest ranks
    (``_rank_budgets``), which are the exceedances of the empirical-threshold
    estimator at the budget q(t) when no tie straddles its threshold.  That
    budget is not always ``count_at(k, t)``: the float excess of rank
    n - count_at(k, t) can land just above 1 - t, so q(t) can exceed it by
    one.  In known-marginal mode they are the b(t) largest values of U
    (``_cdf_budgets``), whatever the ties.  The array is the first m * r
    entries of ``_excess``.
    """
    xs = _values(x)
    n = len(xs)
    v = _real(v, "v", 0, 1)
    r = _whole(r, "r", high=n)
    m = n // r
    return _excess(xs, v, marginal_cdf)[: m * r].reshape(m, r)


def _excess(xs: np.ndarray, v: float, marginal_cdf=None) -> np.ndarray:
    """The standardized excess of every value of ``xs``, 0 where it is not positive.

    In known-marginal mode it is clipped from U = F(X) (``_cdf_values``).  In
    rank mode the q positive excesses (``_rank_ladder``) belong to the q
    highest stable ranks.  Those values are at least the (n - q)-th order
    statistic b; stably sorting the values xs >= b, kept in index order,
    ranks them exactly as a stable sort of the whole sample would.
    """
    if marginal_cdf is not None:
        return np.clip((_cdf_values(xs, marginal_cdf) - (1.0 - v)) / v, 0.0, None)
    n = len(xs)
    ladder = _rank_ladder(n, v)
    q = len(ladder)
    excess = np.zeros(n)
    if q:
        above = np.flatnonzero(xs >= np.partition(xs, n - q)[n - q])
        excess[above[np.argsort(xs[above], kind="stable")[-q:]]] = ladder
    return excess


def _cdf_values(xs: np.ndarray, marginal_cdf) -> np.ndarray:
    """U = F(X) of every value of ``xs``, checked finite."""
    u = np.asarray(marginal_cdf(xs), dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("marginal_cdf must return finite values; found NaN or inf")
    return u


def _cdf_budgets(u: np.ndarray, v: float, grid: np.ndarray) -> np.ndarray:
    """b(t) at every grid level: the number of values whose excess (u - (1 - v)) / v exceeds 1 - t.

    The excess is nondecreasing in u, so those values are the b(t) largest
    of ``u`` and no tie straddles their cut: the count stage on ``u`` at
    the budgets b(t) (``_sample_counts``) gives the sums of f_t and g_t
    over the blocks of known-marginal mode, whether or not the float cdf
    is monotone.  Only the values above 1 - v, where the excess is
    positive, are sorted.
    """
    excess = (np.sort(u[u > 1.0 - v]) - (1.0 - v)) / v
    return len(excess) - np.searchsorted(excess, 1.0 - grid, side="right")


def _rank_ladder(n: int, v: float) -> np.ndarray:
    """The positive excesses (i / n - (1 - v)) / v of the ranks i <= n, ascending.

    The excess is nondecreasing in i and positive exactly where the float
    i / n exceeds the float 1 - v, which holds for at most ceil(v * n) + 1
    ranks (both roundings are within 2^-53 of 1), so only the top
    ceil(v * n) + 2 entries of the ladder are computed.
    """
    width = min(n, math.ceil(v * n) + 2)
    ladder = np.clip((np.arange(n - width + 1, n + 1) / n - (1.0 - v)) / v, 0.0, None)
    return ladder[ladder > 0.0]


def _rank_budgets(n: int, v: float, grid: np.ndarray) -> np.ndarray:
    """q(t) at every grid level: the number of ranks whose excess exceeds 1 - t.

    Those are the q(t) highest ranks, the count of ``_rank_ladder`` entries
    above 1 - t; q(1) is the ladder's length, k or k + 1 with v = k / n, and
    n when every rank has a positive excess.
    """
    ladder = _rank_ladder(n, v)
    return len(ladder) - np.searchsorted(ladder, 1.0 - grid, side="right")


def f_max(blocks: np.ndarray, t: float) -> np.ndarray:
    """Indicator per block: does any standardized excess exceed 1 - t?"""
    return (np.asarray(blocks).max(axis=1) > 1.0 - _real(t, "t", 0, 1, "(]")).astype(float)


def g_count(blocks: np.ndarray, t: float) -> np.ndarray:
    """Count per block of standardized excesses strictly above 1 - t."""
    above = np.asarray(blocks) > 1.0 - _real(t, "t", 0, 1, "(]")
    return np.count_nonzero(above, axis=1).astype(float)


def _sample_counts(xs: np.ndarray, r: int, budgets: np.ndarray) -> tuple:
    """``(tied, hit, in_blocks)`` of one sample at the ascending ``budgets``, block length r.

    The count stage ``estimate._counts`` on one ``_top_slice`` as wide as the
    largest budget, which may exceed the k of the estimator's own curves.
    """
    top, above = _top_slice(xs, budgets[-1])
    tied, (hit,), (in_blocks,) = _counts(top, [_top_tables(xs, above, r)], budgets)
    return tied, hit, in_blocks


# ---------------------------------------------------------------------------
# Covariance kernels
# ---------------------------------------------------------------------------


class _Kernel:
    """The per-point reads of a kernel's ``matrices``."""

    def c(self, s: float, t: float) -> float:
        return self._entry(0, s, t)

    def c_g(self, s: float, t: float) -> float:
        return self._entry(1, s, t)

    def c_fg(self, s: float, t: float) -> float:
        return self._entry(2, s, t)

    def _entry(self, which: int, s: float, t: float) -> float:
        return float(self.matrices([s], [t])[which][0, 0])


class ClosedFormIID(_Kernel):
    """Exact kernel for independent data: c_g = c_fg = min(s, t), c = 0."""

    theta = 1.0

    def matrices(self, s, t) -> tuple:
        low = np.minimum.outer(s, t)
        return np.zeros_like(low), low, low


class TailChainSeries(_Kernel):
    """Kernel assembled from standardized windows started at an exceedance.

    ``windows`` has one row per collected exceedance; row entries are the
    standardized excesses of the K observations starting there (the first
    entry is the starting excess itself).  Probabilities over the tail
    sequence are estimated by counting rows; series over k are truncated at K.
    Each count is a product of two tables over levels u and windows: is the
    first entry above 1 - u, is the later maximum, how many later entries are.
    """

    def __init__(self, windows: np.ndarray, theta: float):
        self.windows = np.asarray(windows, dtype=float)
        if self.windows.ndim != 2 or self.windows.shape[0] < 50:
            raise ValueError("need at least 50 collected windows")
        self.theta = _real(theta, "theta")

    def matrices(self, s, t) -> tuple:
        levels, index = np.unique(np.concatenate([s, t]), return_inverse=True)
        cut = 1.0 - levels[:, None]
        w, count = self.windows, len(self.windows)
        # float tables, levels x windows: ``@`` on boolean arrays is a logical OR, not a count
        first = (w[:, 0] > cut).astype(float)
        later_max = (w[:, 1:].max(axis=1, initial=0.0) > cut).astype(float)
        later = np.count_nonzero(w[:, 1:] > cut[:, :, None], axis=2).astype(float)
        low = np.minimum.outer(levels, levels)
        # entry (a, b): sum over k >= 2 of P{W_1 > 1-a, W_k > 1-b}
        pairs = first @ later.T
        c_g = low + (pairs + pairs.T) / count
        # a < b: P{W_1 > 1-b, max_j W_j > 1-a} plus the windows whose later
        # entries stay at or below 1 - a, counted at every later W_k > 1-b
        whole = np.maximum(first, later_max)
        series = whole @ first.T + (first * (1.0 - later_max)) @ later.T
        c_fg = np.where(levels[:, None] >= levels, levels, series / count)
        th = self.theta
        c = th * (low - c_fg - c_fg.T) + th * th * c_g
        rows, cols = np.ix_(index[: len(s)], index[len(s):])
        return c[rows, cols], c_g[rows, cols], c_fg[rows, cols]


class MCGrid(_Kernel):
    """Empirical covariance kernel on a grid, bilinearly interpolated off-grid.

    The grid is implicitly extended by t = 0 where every path (and hence every
    covariance) vanishes, so evaluation is defined on [0, max(grid)]^2.  A read
    is W_s M W_t^T with bilinear weights W, exactly M's entry at grid points.

    From :func:`estimate_kernel_mc` in rank mode, ``c_g`` and ``c_fg`` are
    exactly 0 whenever r divides n; only ``c`` is meaningful there.
    """

    def __init__(self, grid, c_mat, cg_mat, cfg_mat, theta: float):
        self.grid = check_grid(grid)
        for what, value in {"c_mat": c_mat, "cg_mat": cg_mat, "cfg_mat": cfg_mat}.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{what} must be finite; found NaN or inf")
        self.theta = _real(theta, "theta")
        self._ext = np.concatenate([[0.0], self.grid])
        self._c, self._cg, self._cfg = map(self._pad, (c_mat, cg_mat, cfg_mat))

    def _pad(self, mat) -> np.ndarray:
        # np.cov of a single variable is 0-d; promote to a 1x1 matrix
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        g = len(self.grid)
        if mat.shape != (g, g):
            raise ValueError(f"need a {g} x {g} matrix for {g} grid levels, got shape {mat.shape}")
        out = np.zeros((g + 1, g + 1))
        out[1:, 1:] = mat
        return out

    def _weights(self, levels) -> np.ndarray:
        """Bilinear weights on the extended grid, one row per level."""
        g = self._ext
        x = np.asarray(levels, dtype=float)
        inside = (x >= 0.0) & (x <= g[-1])  # NaN is outside
        if not inside.all():
            raise ValueError(f"levels {x[~inside].tolist()} outside kernel grid range")
        hi = np.minimum(np.searchsorted(g, x, side="right"), len(g) - 1)
        lo = hi - 1
        d = (x - g[lo]) / (g[hi] - g[lo])
        out = np.zeros((len(x), len(g)))
        rows = np.arange(len(x))
        out[rows, lo] = 1.0 - d
        out[rows, hi] = d
        return out

    def matrices(self, s, t) -> tuple:
        ws, wt = self._weights(s), self._weights(t)
        return tuple(ws @ mat @ wt.T for mat in (self._c, self._cg, self._cfg))


def estimate_kernel_mc(
    model, n: int, cfg: EstimatorConfig, grid, replicates: int, seed: int,
    marginal_cdf=None,
) -> MCGrid:
    """Monte Carlo covariance kernel of the combined process Z_f - theta * Z_g.

    Simulates ``replicates`` independent paths, builds the functional sums on
    the grid, centers them by cross-replicate means, and returns the empirical
    covariance matrices (combined, count-count, and indicator-count cross) as
    an interpolating kernel.  theta is the Monte Carlo mean of the blocks
    estimate at t = 1.  Each path is counted (``_sample_counts``) at the
    budget k and, in rank mode, at the budgets q(t) of the level sums
    (``_rank_budgets``); in known-marginal mode the level sums count U = F(X)
    at its budgets b(t) (``_cdf_budgets``).  No m x r blocks array and no
    ``BlocksEvaluator`` is built.

    In rank mode (``marginal_cdf=None``) the count sum at each level is the
    number of top-ranked values among the covered ones, which is fixed when r
    divides n.  Z_g then has no variance, so ``c_g`` and ``c_fg`` are exactly
    0 at every level and only ``c`` is meaningful; pass ``marginal_cdf`` for
    the count kernels.

    A path whose estimate at t = 1 is undefined raises its coded error
    (``TiesDetected`` or ``NoExceedances``); in rank mode, so does a path
    whose threshold at some q(t) ties the smallest value above it, since its
    stable ranks would then split equal values (no tie can straddle a b(t)).
    The error names the replicate i, ``seed`` and, for a tie at a grid
    level, the level t, so ``sim.substream(seed, i)`` regenerates the path;
    within a group of paths the earliest failing replicate's error is raised.
    """
    replicates = _whole(replicates, "replicates", low=100)
    grid = check_grid(grid)
    cfg.validate_for(n)
    v = cfg.v(n)
    if marginal_cdf is None:
        q_k = np.append(_rank_budgets(n, v, grid), cfg.k)  # q(t) at every grid level, then k
        budgets, at = np.unique(q_k, return_inverse=True)
    else:
        budgets = np.array([cfg.k])

    def counted(x):
        """The budgets of the grid levels and then of k, and the counts of ``x`` at them."""
        xs = _values(x)
        counts = _sample_counts(xs, cfg.r, budgets)
        if marginal_cdf is None:
            return q_k, *(part[at] for part in counts)
        u = _cdf_values(xs, marginal_cdf)
        b = _cdf_budgets(u, v, grid)
        return np.append(b, cfg.k), *map(np.append, _sample_counts(u, cfg.r, b), counts)

    def step(first, paths):
        k_t, tied, hit, in_blocks = map(np.array, zip(*map(counted, paths)))
        values, codes = _coded_values(tied[:, -1], hit[:, -1], in_blocks[:, -1])
        failed = np.column_stack([codes, np.where(tied[:, :-1], TIES, OK)])
        if failed.any():
            i, j = np.argwhere(failed)[0]  # the earliest failing replicate, its first failure
            where = f"replicate {first + i} (base_seed {seed})"
            if j == 0:
                _raise_coded(failed[i, 0], cfg.k, f"{where}: ")
            _raise_coded(TIES, k_t[i, j - 1], f"{where} at level t={grid[j - 1]}: ")
        return hit[:, :-1], in_blocks[:, :-1], values

    sf, sg, theta_hats = (
        np.concatenate(parts).astype(float)
        for parts in zip(*sim.map_replicates(step, model, n, seed, replicates))
    )
    scale = 1.0 / np.sqrt(n * v)
    zf = scale * (sf - sf.mean(axis=0))
    zg = scale * (sg - sg.mean(axis=0))
    theta = float(theta_hats.mean())
    w = zf - theta * zg
    c_mat = np.cov(w, rowvar=False)
    cg_mat = np.cov(zg, rowvar=False)
    cfg_mat = zf.T @ zg / (replicates - 1)  # rows already centered
    return MCGrid(grid, c_mat, cg_mat, cfg_mat, theta)


def tail_chain_probabilities(
    model, v: float, K: int = 50, replicates: int = 100, seed: int = 0,
    n: int = 10_000,
) -> TailChainSeries:
    """Kernel from standardized windows of length K started at each exceedance.

    Windows are collected over ``replicates`` simulated paths using the exact
    model marginal, from the known-marginal excesses of ``_excess``; windows
    running past a path's end are discarded.
    """
    v = _real(v, "v", 0, 1)
    replicates = _whole(replicates, "replicates")
    n = _whole(n, "n")
    K = _whole(K, "K", low=2, high=n)

    def windows(x):
        excess = _excess(x.values, v, model.marginal.cdf)
        return sliding_window_view(excess, K)[np.flatnonzero(excess[: n - K + 1])]

    def step(_, paths):
        return list(map(windows, paths))

    groups = sim.map_replicates(step, model, n, seed, replicates)
    rows = np.concatenate(list(itertools.chain.from_iterable(groups)))
    if len(rows) < 50:
        raise ValueError(f"only {len(rows)} windows collected; need at least 50")
    return TailChainSeries(rows, theta=model.theta)
