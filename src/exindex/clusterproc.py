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

The Monte Carlo kernel never forms the m x r blocks.  Per sample, one partial
sort (``estimate._top_slice``) serves both the level sums and the blocks
estimate at t = 1: in rank mode its top k + 1 values hold the smallest value
with a positive excess, so only the values at or above it are ranked, and the
sums of f_t and g_t over the blocks at every level come from the sparse
(index, excess) pairs of the positive excesses (``_level_sums``); theta_hat(1)
is read from the same partial sort through ``estimate._counts`` and
``_coded_values`` (the threshold rule's two stages, for one sample), with
the maxima of only the blocks that hold one of the top values.
``standardize`` scatters the same pairs into the m x r array.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import sim
from .estimate import (
    EstimatorConfig,
    _block_maxima,
    _coded_values,
    _counts,
    _raise_coded,
    _top_slice,
    _top_tables,
    _values,
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
    U_i = rank_i / n, which reproduces exactly the exceedance sets of the
    empirical-threshold estimator.  Ranks are those of a stable sort (ties
    ranked in index order); only the values with a positive excess are ranked.
    The array is the scatter of ``_excess_rule``, the one ranking rule.
    """
    xs = _values(x)
    n = len(xs)
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must lie in (0, 1), got {v}")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    index, excess = _excess_rule(n, v, marginal_cdf)(xs)
    blocks = np.zeros(n)
    blocks[index] = excess
    m = n // r
    return blocks[: m * r].reshape(m, r)


def _excess_rule(n: int, v: float, marginal_cdf=None):
    """``pairs(xs, above=None)``: flat indices and values of the positive standardized excesses.

    It is the one ranking rule for samples of length n.  In rank mode the
    pairs come in ascending rank order, the ladder of excesses is computed
    once per rule, and ``above``, the ascending positions that
    ``_top_slice`` returns, saves the pass that finds the ranked values when
    it holds enough of them.  In known-marginal mode the pairs come in index
    order.
    """
    if marginal_cdf is not None:
        return lambda xs, above=None: _cdf_pairs(xs, v, marginal_cdf)
    ladder = _rank_ladder(n, v)
    return lambda xs, above=None: _rank_pairs(xs, ladder, above)


def _cdf_pairs(xs: np.ndarray, v: float, marginal_cdf) -> tuple:
    """Indices and values of the positive excesses of U_i = F(X_i), in index order."""
    u = np.asarray(marginal_cdf(xs), dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("marginal_cdf must return finite values; found NaN or inf")
    excess = np.clip((u - (1.0 - v)) / v, 0.0, None)
    index = np.flatnonzero(excess)
    return index, excess[index]


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


def _rank_pairs(xs: np.ndarray, ladder: np.ndarray, above=None) -> tuple:
    """Indices of the values with a positive rank excess, by ascending rank, and their excesses.

    The q positive excesses (the ``ladder``) belong to the q highest stable
    ranks.  Those values are at least the (n - q)-th order statistic b;
    stably sorting any candidates kept in index order that include every
    value xs >= b ranks them exactly as a stable sort of the whole sample
    would.  ``above``, the positions of the values at or above some level,
    serves as the candidates when it holds at least q of them, since b then
    lies at or above that level; with v = k / n, q is k or k + 1, so the
    positions that ``_top_slice(xs, k)`` returns always serve.
    """
    n, q = len(xs), len(ladder)
    if q == 0:
        return np.empty(0, dtype=np.intp), ladder
    if above is None or len(above) < q:
        above = np.flatnonzero(xs >= np.partition(xs, n - q)[n - q])
    return above[np.argsort(xs[above], kind="stable")[-q:]], ladder


def f_max(blocks: np.ndarray, t: float) -> np.ndarray:
    """Indicator per block: does any standardized excess exceed 1 - t?"""
    return (np.asarray(blocks).max(axis=1) > 1.0 - t).astype(float)


def g_count(blocks: np.ndarray, t: float) -> np.ndarray:
    """Count per block of standardized excesses strictly above 1 - t."""
    return np.count_nonzero(np.asarray(blocks) > 1.0 - t, axis=1).astype(float)


def _level_sums(index: np.ndarray, excess: np.ndarray, r: int, m: int, grid: np.ndarray) -> tuple:
    """Sums over the blocks of f_max and g_count at every grid level at once.

    The blocks are the m x r array that holds the positive ``excess`` at the
    flat positions ``index`` and 0 elsewhere (``standardize`` scatters
    ``_excess_rule`` pairs so).  For a grid inside (0, 1], 1 - t >= 0, so zero
    excesses and empty blocks never count, and each sum is a count of sorted
    values above 1 - t: of the block maxima (``estimate._block_maxima``) for
    f_max, of the excesses for g_count.
    """
    covered = index < m * r
    excess = excess[covered]
    maxima = _block_maxima(index[covered] // r, excess, m)
    positive = np.sort(excess)
    levels = 1.0 - grid
    hit = maxima.size - np.searchsorted(maxima, levels, side="right")
    count = positive.size - np.searchsorted(positive, levels, side="right")
    return hit.astype(float), count.astype(float)


def _replicate_sums(xs: np.ndarray, cfg: EstimatorConfig, pairs, grid) -> tuple:
    """``(sf, sg, value, code)`` of one sample, from one partial sort.

    ``sf`` and ``sg`` are the level sums of f_max and g_count on the grid
    over the excesses that ``pairs`` (an ``_excess_rule``) finds; ``value``
    and ``code`` are the blocks estimate at t = 1 and its skip code, read
    through the threshold rule's stages ``_counts`` and ``_coded_values``
    from the same ``_top_slice``.  In rank mode the ranked excesses are
    picked among the positions it locates, and the block maxima are taken
    only over the blocks that hold one (``_top_tables``).
    """
    top, above = _top_slice(xs, cfg.k)
    index, excess = pairs(xs, above)
    sf, sg = _level_sums(index, excess, cfg.r, len(xs) // cfg.r, grid)
    tables = [_top_tables(xs, above, cfg.r)]
    values, codes = _coded_values(*_counts(top, tables, np.array([cfg.k])))
    return sf, sg, values[0, 0], codes[0, 0]


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
        self.theta = theta

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
        self.theta = theta
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
    estimate at t = 1.  One partial sort per path serves its functional sums
    and its estimate at t = 1 (``_replicate_sums``); no m x r blocks array and
    no ``BlocksEvaluator`` is built.  A path whose estimate at t = 1 is
    undefined raises its coded error (``TiesDetected`` or ``NoExceedances``),
    naming the replicate i and ``seed``, so ``sim.substream(seed, i)``
    regenerates it.

    In rank mode (``marginal_cdf=None``) the thresholds are empirical: the
    count sum over blocks at each level is the number of top-ranked values
    among the covered ones, which is fixed when r divides n.  Z_g then has no
    variance, so ``c_g`` and ``c_fg`` are exactly 0 at every level and only
    ``c`` is meaningful; pass ``marginal_cdf`` for the count kernels.
    """
    if replicates < 100:
        raise ValueError(f"need at least 100 replicates, got {replicates}")
    grid = check_grid(grid)
    cfg.validate_for(n)
    v = cfg.v(n)
    pairs = _excess_rule(n, v, marginal_cdf)

    def sums(rep, x):
        sf, sg, theta_hat, code = _replicate_sums(_values(x), cfg, pairs, grid)
        _raise_coded(code, cfg.k, f"replicate {rep} (base_seed {seed}): ")
        return sf, sg, theta_hat

    def step(first, paths):
        return list(map(sums, itertools.count(first), paths))

    groups = sim.map_replicates(step, model, n, seed, replicates)
    sf, sg, theta_hats = map(np.array, zip(*itertools.chain.from_iterable(groups)))
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
    model marginal, through ``_excess_rule`` in known-marginal mode; windows
    running past a path's end are discarded.
    """
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must lie in (0, 1), got {v}")
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    if not 2 <= K <= n:
        raise ValueError(f"need 2 <= K <= n, got K={K}, n={n}")
    pairs = _excess_rule(n, v, model.marginal.cdf)

    def windows(x):
        index, positive = pairs(x.values)
        excess = np.zeros(n)
        excess[index] = positive
        starts = index[index <= n - K]
        return sliding_window_view(excess, K)[starts]

    def step(_, paths):
        return list(map(windows, paths))

    groups = sim.map_replicates(step, model, n, seed, replicates)
    rows = np.concatenate(list(itertools.chain.from_iterable(groups)))
    if len(rows) < 50:
        raise ValueError(f"only {len(rows)} windows collected; need at least 50")
    return TailChainSeries(rows, theta=model.theta)
