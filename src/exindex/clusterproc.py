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
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import sim
from .estimate import BlocksEvaluator, EstimatorConfig, _values, check_grid

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
    """
    xs = _values(x)
    n = len(xs)
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must lie in (0, 1), got {v}")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if marginal_cdf is not None:
        u = np.asarray(marginal_cdf(xs), dtype=float)
        excess = np.clip((u - (1.0 - v)) / v, 0.0, None)
    else:
        excess = _rank_excess(xs, v)
    m = n // r
    return excess[: m * r].reshape(m, r)


def _rank_excess(xs: np.ndarray, v: float) -> np.ndarray:
    """Excess of rank_i / n for every value, ranking only the top of the sample.

    The excess is nondecreasing in the rank, so the q positive ones belong to
    the q highest stable ranks.  Those values are at least the (n - q)-th order
    statistic b; stably sorting the candidates xs >= b (kept in index order)
    ranks them exactly as a stable sort of the whole sample would.
    """
    n = len(xs)
    ladder = np.clip((np.arange(1, n + 1) / n - (1.0 - v)) / v, 0.0, None)
    q = int(np.count_nonzero(ladder))
    excess = np.zeros(n)
    if q:
        b = np.partition(xs, n - q)[n - q]
        candidates = np.flatnonzero(xs >= b)
        top = candidates[np.argsort(xs[candidates], kind="stable")[-q:]]
        excess[top] = ladder[n - q :]
    return excess


def f_max(blocks: np.ndarray, t: float) -> np.ndarray:
    """Indicator per block: does any standardized excess exceed 1 - t?"""
    return (np.asarray(blocks).max(axis=1) > 1.0 - t).astype(float)


def g_count(blocks: np.ndarray, t: float) -> np.ndarray:
    """Count per block of standardized excesses strictly above 1 - t."""
    return np.count_nonzero(np.asarray(blocks) > 1.0 - t, axis=1).astype(float)


def _level_sums(blocks: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over all blocks of f_max and g_count at every grid level at once.

    Equal to ``f_max(blocks, t).sum()`` and ``g_count(blocks, t).sum()`` for
    each t in a grid inside (0, 1]: there 1 - t >= 0, so zero excesses never
    count, and each sum is a count of sorted values above 1 - t.
    """
    levels = 1.0 - grid
    maxima = np.sort(blocks.max(axis=1))
    positive = np.sort(blocks[blocks > 0.0])
    hit = maxima.size - np.searchsorted(maxima, levels, side="right")
    count = positive.size - np.searchsorted(positive, levels, side="right")
    return hit.astype(float), count.astype(float)


# ---------------------------------------------------------------------------
# Covariance kernels
# ---------------------------------------------------------------------------


class ClosedFormIID:
    """Exact kernel for independent data: c_g = c_fg = min(s, t), c = 0."""

    theta = 1.0

    def c_g(self, s: float, t: float) -> float:
        return min(s, t)

    def c_fg(self, s: float, t: float) -> float:
        return min(s, t)

    def c(self, s: float, t: float) -> float:
        return 0.0


class TailChainSeries:
    """Kernel assembled from standardized windows started at an exceedance.

    ``windows`` has one row per collected exceedance; row entries are the
    standardized excesses of the K observations starting there (the first
    entry is the starting excess itself).  Probabilities over the tail
    sequence are estimated by counting rows; series over k are truncated at K.
    """

    def __init__(self, windows: np.ndarray, theta: float, v: float):
        self.windows = np.asarray(windows, dtype=float)
        if self.windows.ndim != 2 or self.windows.shape[0] < 50:
            raise ValueError("need at least 50 collected windows")
        self.theta = theta
        self.v = v
        self.K = self.windows.shape[1]

    def c_g(self, s: float, t: float, K: int | None = None) -> float:
        K = self.K if K is None else min(K, self.K)
        w = self.windows
        first_s = w[:, 0] > 1.0 - s
        first_t = w[:, 0] > 1.0 - t
        later_t = w[:, 1:K] > 1.0 - t
        later_s = w[:, 1:K] > 1.0 - s
        series = np.mean(first_s[:, None] & later_t, axis=0).sum()
        series += np.mean(first_t[:, None] & later_s, axis=0).sum()
        return min(s, t) + float(series)

    def c_fg(self, s: float, t: float, K: int | None = None) -> float:
        if s >= t:
            return t
        K = self.K if K is None else min(K, self.K)
        w = self.windows[:, :K]
        first = w[:, 0]
        rest = w[:, 1:]
        whole_max = w.max(axis=1)
        rest_max = rest.max(axis=1) if rest.shape[1] else np.zeros(len(w))
        lead = np.mean((first > 1.0 - t) & (whole_max > 1.0 - s))
        hit_t = rest > 1.0 - t
        series = np.mean(
            (first > 1.0 - s)[:, None] & hit_t & (rest_max <= 1.0 - s)[:, None], axis=0
        ).sum()
        return float(lead + series)

    def c(self, s: float, t: float) -> float:
        th = self.theta
        return th * (min(s, t) - self.c_fg(s, t) - self.c_fg(t, s)) + th * th * self.c_g(s, t)


class MCGrid:
    """Empirical covariance kernel on a grid, bilinearly interpolated off-grid.

    The grid is implicitly extended by t = 0 where every path (and hence every
    covariance) vanishes, so evaluation is defined on [0, max(grid)]^2.

    From :func:`estimate_kernel_mc` in rank mode, ``c_g`` and ``c_fg`` are
    exactly 0 whenever r divides n; only ``c`` is meaningful there.
    """

    def __init__(self, grid, c_mat, cg_mat, cfg_mat, theta: float):
        self.grid = check_grid(grid)
        self.theta = theta
        self._ext = np.concatenate([[0.0], self.grid])
        self._c = self._pad(c_mat)
        self._cg = self._pad(cg_mat)
        self._cfg = self._pad(cfg_mat)

    @staticmethod
    def _pad(mat) -> np.ndarray:
        # np.cov of a single variable is 0-d; promote to a 1x1 matrix
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        g = mat.shape[0]
        out = np.zeros((g + 1, g + 1))
        out[1:, 1:] = mat
        return out

    def _bilinear(self, mat: np.ndarray, s: float, t: float) -> float:
        g = self._ext
        if not (0.0 <= s <= g[-1] and 0.0 <= t <= g[-1]):
            raise ValueError(f"point ({s}, {t}) outside kernel grid range")
        i = min(int(np.searchsorted(g, s, side="right")), len(g) - 1)
        j = min(int(np.searchsorted(g, t, side="right")), len(g) - 1)
        i0, j0 = i - 1, j - 1
        ds = (s - g[i0]) / (g[i] - g[i0])
        dt = (t - g[j0]) / (g[j] - g[j0])
        return float(
            mat[i0, j0] * (1 - ds) * (1 - dt)
            + mat[i, j0] * ds * (1 - dt)
            + mat[i0, j] * (1 - ds) * dt
            + mat[i, j] * ds * dt
        )

    def c(self, s: float, t: float) -> float:
        return self._bilinear(self._c, s, t)

    def c_g(self, s: float, t: float) -> float:
        return self._bilinear(self._cg, s, t)

    def c_fg(self, s: float, t: float) -> float:
        return self._bilinear(self._cfg, s, t)


def estimate_kernel_mc(
    model, n: int, cfg: EstimatorConfig, grid, replicates: int, seed: int,
    marginal_cdf=None,
) -> MCGrid:
    """Monte Carlo covariance kernel of the combined process Z_f - theta * Z_g.

    Simulates ``replicates`` independent paths, builds the functional sums on
    the grid, centers them by cross-replicate means, and returns the empirical
    covariance matrices (combined, count-count, and indicator-count cross) as
    an interpolating kernel.  theta is the Monte Carlo mean of the blocks
    estimate at t = 1.

    In rank mode (``marginal_cdf=None``) the thresholds are empirical: the
    count sum over blocks at each level is the number of top-ranked values
    among the covered ones, which is fixed when r divides n.  Z_g then has no
    variance, so ``c_g`` and ``c_fg`` are exactly 0 at every level and only
    ``c`` is meaningful; pass ``marginal_cdf`` for the count kernels.
    """
    if replicates < 100:
        raise ValueError(f"need at least 100 replicates, got {replicates}")
    grid = check_grid(grid)
    v = cfg.v(n)
    sf = np.zeros((replicates, grid.size))
    sg = np.zeros((replicates, grid.size))
    theta_hats = np.zeros(replicates)
    for rep, x in sim.replicate_paths(model, n, seed, replicates):
        blocks = standardize(x, v=v, r=cfg.r, marginal_cdf=marginal_cdf)
        sf[rep], sg[rep] = _level_sums(blocks, grid)
        theta_hats[rep] = BlocksEvaluator(x, cfg.r, cfg.k)(1.0)
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
    model marginal; windows running past a path's end are discarded.
    """
    if not 2 <= K <= n:
        raise ValueError(f"need 2 <= K <= n, got K={K}, n={n}")
    marginal = model.marginal
    windows = []
    for _, x in sim.replicate_paths(model, n, seed, replicates):
        u = np.asarray(marginal.cdf(x.values), dtype=float)
        excess = np.clip((u - (1.0 - v)) / v, 0.0, None)
        starts = np.flatnonzero(excess[: n - K + 1] > 0.0)
        windows.append(sliding_window_view(excess, K)[starts])
    rows = np.concatenate(windows)
    if len(rows) < 50:
        raise ValueError(f"only {len(rows)} windows collected; need at least 50")
    return TailChainSeries(rows, theta=model.theta, v=v)
