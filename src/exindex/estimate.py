"""Blocks and runs estimators of the extremal index, at fixed and swept thresholds.

The blocks estimator splits the first m*r observations into m disjoint blocks of
length r and returns

    (# blocks whose maximum exceeds u) / (# exceedances of u inside the blocks).

The swept variant replaces u by the sample order statistic leaving ceil(k*t)
exceedances in the full sample, t in (0, 1], so one sample yields a whole curve
t -> theta_hat(t).  When none of those top values falls in the uncovered tail
segment (m*r, n], the denominator simplifies to ceil(k*t) exactly.

Every threshold a curve with budget k reads lies among the k + 1 largest
sample values, so one partial sort of the sample (``_top_slice``) serves all
levels and all block lengths.  It also locates the values at or above the
smallest of them, and each block length takes its sorted block maxima over
those positions only (``_top_tables``).  One threshold rule
(``_coded_counts``) turns an array of budgets into estimates and integer skip
codes for every block length at once.  The Monte Carlo driver calls it once
per replicate through ``biascorrect.CurveKernel``, and
``clusterproc.estimate_kernel_mc`` once per replicate for the estimate at
t = 1; ``sweep`` and ``BlocksEvaluator`` are its single-r entry points.

The runs estimator counts an exceedance as a cluster end when the next
``run_length`` observations all stay below the threshold:

    sum_{i<=n-run_length} 1{X_i > u, following run_length values <= u}
    / sum_{i<=n-run_length} 1{X_i > u}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, NoExceedances, TiesDetected

__all__ = [
    "EstimatorConfig",
    "SkippedPoint",
    "ThresholdCurve",
    "BlocksEvaluator",
    "count_at",
    "blocks_fixed",
    "blocks_true_quantile",
    "runs_estimator",
    "sweep",
    "default_grid",
    "check_grid",
    "check_run_length",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Block length ``r`` and top-order-statistic budget ``k``."""

    r: int
    k: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r must be at least 1, got {self.r}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")

    def validate_for(self, n: int) -> None:
        if self.r > n:
            raise ValueError(f"r={self.r} exceeds series length n={n}")
        if self.k >= n:
            raise ValueError(f"k={self.k} must be smaller than n={n}")

    def v(self, n: int) -> float:
        return self.k / n


@dataclass(frozen=True)
class SkippedPoint:
    t: float
    k_t: int
    reason: str


@dataclass(frozen=True, eq=False)
class ThresholdCurve:
    """Estimates on a threshold grid, one array entry per grid level.

    ``theta_hat[j]`` is NaN exactly where ``code[j]`` names the error that
    left level ``t[j]`` undefined; ``code[j]`` is "" where a value exists.
    """

    t: np.ndarray
    k_t: np.ndarray
    theta_hat: np.ndarray
    code: np.ndarray
    variant: str  # empirical_quantile | corrected
    config: EstimatorConfig
    n: int

    @property
    def skipped(self) -> tuple:
        """The undefined levels as (t, k_t, reason) records, in grid order."""
        return tuple(
            SkippedPoint(t=float(self.t[j]), k_t=int(self.k_t[j]), reason=str(self.code[j]))
            for j in np.flatnonzero(self.code != "")
        )


def count_at(k: int, t):
    """Exceedance budget ceil(k*t), robust to floating-point boundary droop.

    Products within 1e-12 (relative) of an integer are treated as exactly that
    integer before the ceiling is taken, so grid values like j/k never flip to
    the next count; everything else is nudged up by 1e-12 and ceiled.  A
    scalar ``t`` gives an int, an array of levels an integer array.
    """
    ts = np.asarray(t, dtype=float)
    if not np.all(ts > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    prod = k * ts
    nearest = np.rint(prod)
    exact = np.abs(prod - nearest) <= 1e-12 * np.maximum(1.0, np.abs(prod))
    kt = np.maximum(np.where(exact, nearest, np.ceil(prod + 1e-12)), 1).astype(np.int64)
    return int(kt) if kt.ndim == 0 else kt


def _values(x) -> np.ndarray:
    xs = np.asarray(getattr(x, "values", x), dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"series must be one-dimensional, got shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError("series values must be finite; found NaN or inf")
    return xs


def blocks_fixed(x, r: int, u: float) -> float:
    """Blocks estimate at a fixed threshold ``u``."""
    xs = _values(x)
    n = len(xs)
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    m = n // r
    covered = xs[: m * r]
    exceed = int(np.count_nonzero(covered > u))
    if exceed == 0:
        raise NoExceedances(f"no observation in the {m} blocks exceeds u={u}")
    hit = int(np.count_nonzero(covered.reshape(m, r).max(axis=1) > u))
    return hit / exceed


def check_run_length(run_length: int, n: int) -> None:
    """Reject a run length the runs estimator cannot use on a series of length ``n``."""
    if not 1 <= run_length < n:
        raise ValueError(f"need 1 <= run_length < n, got run_length={run_length}, n={n}")


def runs_estimator(x, run_length: int, u: float) -> float:
    """Runs estimate at a fixed threshold ``u``."""
    xs = _values(x)
    n = len(xs)
    check_run_length(run_length, n)
    exc = xs > u
    stop = n - run_length
    denom = int(np.count_nonzero(exc[:stop]))
    if denom == 0:
        raise NoExceedances(f"no observation among the first {stop} exceeds u={u}")
    clear = np.ones(stop, dtype=bool)
    for j in range(1, run_length + 1):
        clear &= ~exc[j : j + stop]
    numer = int(np.count_nonzero(exc[:stop] & clear))
    return numer / denom


# Integer skip codes of the curve kernels; ``CODE_NAMES[code]`` is the
# error code a curve reports, "" where the value is defined.
OK, TIES, NO_EXC, DEGENERATE = 0, 1, 2, 3
CODE_NAMES = np.array(["", TiesDetected.code, NoExceedances.code, DegenerateDenominator.code])


def _top_slice(xs: np.ndarray, k: int) -> tuple:
    """``(top, above)``: the k + 1 largest values, ascending, and the positions of those >= top[0].

    A budget 1 <= k_t <= k reads only the order statistics n - k_t - 1 and
    n - k_t, so ``top`` is all a threshold needs: one partition of the sample
    and a sort of its top k + 1 values replace a sort of the sample.  Every
    value that can exceed such a threshold sits at a position in ``above``,
    which lists them in ascending order.
    """
    top = np.partition(xs, len(xs) - k - 1)[len(xs) - k - 1 :]
    top.sort()
    return top, np.flatnonzero(xs >= top[0])


def _block_maxima(block: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """Sorted maxima of the nonempty blocks among m, block[i] holding values[i].

    Series values are finite, so the -inf fill marks only the empty blocks.
    """
    maxima = np.full(m, -np.inf)
    np.maximum.at(maxima, block, values)
    maxima = maxima[maxima > -np.inf]
    maxima.sort()
    return maxima


def _top_tables(xs: np.ndarray, above: np.ndarray, r: int) -> tuple:
    """Sorted block maxima and uncovered tail of block length r, over ``above`` of ``_top_slice``.

    A budget k_t <= k puts its threshold at or above top[0], so
    ``_coded_counts`` counts only block maxima and tail values above top[0].
    Every block holding such a value keeps its exact maximum, taken over its
    positions in ``above``; no other block of the sample is reduced.
    """
    m = len(xs) // r
    covered = above[: np.searchsorted(above, m * r)]
    return _block_maxima(covered // r, xs[covered], m), np.sort(xs[above[len(covered) :]])


def _thresholds(top: np.ndarray, k_t) -> tuple:
    """Threshold and tie flag of each budget k_t, read from the ``top`` of ``_top_slice``.

    The threshold is the order statistic below the top k_t values; it is tied
    when it equals the smallest of them.
    """
    below = len(top) - 1 - k_t
    u = top[below]
    return u, u == top[below + 1]


def _coded_counts(top: np.ndarray, tables, k_t: np.ndarray) -> tuple:
    """Blocks estimates and integer skip codes at the budgets ``k_t``: the one threshold rule.

    ``top`` comes from ``_top_slice`` and ``tables`` holds one
    ``_top_tables`` pair per block length.  The thresholds and tie flags of
    ``_thresholds`` are read once for all block lengths.  Returns
    ``(values, codes)`` of shape (len(tables), len(k_t)): a code is ``TIES``
    where the threshold ties the smallest retained value, else ``NO_EXC``
    where every retained value lies beyond the block coverage, else ``OK``
    with the value defined; values are NaN wherever a code is set.
    """
    u, tied = _thresholds(top, k_t)
    hit = np.empty((len(tables), len(k_t)), dtype=np.int64)
    in_blocks = np.empty_like(hit)
    for i, (block_max, tail) in enumerate(tables):
        hit[i] = len(block_max) - np.searchsorted(block_max, u, side="right")
        # without a tie exactly k_t values exceed u, so the in-block count is
        # k_t minus those in the tail
        in_blocks[i] = k_t - (len(tail) - np.searchsorted(tail, u, side="right"))
    codes = np.where(tied, TIES, np.where(in_blocks == 0, NO_EXC, OK))
    values = np.where(codes == OK, hit / np.maximum(in_blocks, 1), np.nan)
    return values, codes


def _raise_coded(code, k_t: int, where: str = "") -> None:
    """Raise the coded error of an estimate at budget ``k_t`` left undefined by ``code``.

    Nothing happens for ``OK``; ``where`` prefixes the message.
    """
    if code == TIES:
        raise TiesDetected(
            f"{where}threshold order statistic ties the smallest of the top {k_t} values"
        )
    if code == NO_EXC:
        raise NoExceedances(f"{where}all top {k_t} values lie beyond the block coverage")


class BlocksEvaluator:
    """Reusable k_t -> theta_hat evaluator for one (sample, r, k).

    Keeps the k + 1 largest sample values, found by one partial sort, and the
    sorted block maxima and uncovered tail values at or above the smallest of
    them (``_top_slice``, ``_top_tables``); ``_coded`` then evaluates any
    array of exceedance budgets with two binary searches over all of them at
    once (the estimate depends on t only through k_t).  It is the single-r
    case of the curve kernel.
    """

    def __init__(self, x, r: int, k: int):
        xs = _values(x)
        n = len(xs)
        cfg = EstimatorConfig(r=r, k=k)
        cfg.validate_for(n)
        self.n = n
        self.r = r
        self.k = k
        self._top, above = _top_slice(xs, k)
        self._tables = _top_tables(xs, above, r)

    def _coded(self, k_t) -> tuple:
        """Values and integer skip codes shaped like ``k_t`` (see ``_coded_counts``)."""
        k_t = np.asarray(k_t, dtype=np.int64)
        if np.any((k_t < 1) | (k_t > self.k)):
            raise ValueError(f"need 1 <= k_t <= k={self.k}, got {k_t}")
        values, codes = _coded_counts(self._top, [self._tables], k_t.ravel())
        return values.reshape(k_t.shape), codes.reshape(k_t.shape)

    def at_count(self, k_t: int) -> float:
        """The estimate for one budget; an undefined one raises its coded error."""
        values, codes = self._coded(k_t)
        _raise_coded(codes, k_t)
        return float(values)

    def __call__(self, t: float) -> float:
        return self.at_count(count_at(self.k, t))


def blocks_true_quantile(x, cfg: EstimatorConfig, t: float, marginal_quantile) -> float:
    """Blocks estimate with the threshold at the known marginal (1 - v*t)-quantile."""
    xs = _values(x)
    cfg.validate_for(len(xs))
    if t <= 0.0 or t > 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    u = float(marginal_quantile(1.0 - cfg.v(len(xs)) * t))
    return blocks_fixed(xs, cfg.r, u)


def default_grid(k: int) -> np.ndarray:
    """One grid point per distinct order-statistic threshold: t_j = j/k."""
    return np.arange(1, k + 1) / k


def check_grid(grid, what: str = "grid") -> np.ndarray:
    """``grid`` as a new float array, once it passes the one rule for threshold grids.

    A grid is 1-D, nonempty, finite, strictly increasing and inside (0, 1];
    ``what`` names it in the ``ValueError`` that a bad one raises.  The
    array is a copy, so a curve or kernel that keeps it never shares the
    caller's array.
    """
    levels = np.array(grid, dtype=float)
    if levels.size == 0:
        raise ValueError(f"{what} must be nonempty")
    if (
        levels.ndim != 1
        or not np.isfinite(levels).all()
        or np.any(np.diff(levels) <= 0)
        or not 0.0 < levels[0] <= levels[-1] <= 1.0
    ):
        raise ValueError(
            f"{what} must be finite, strictly increasing and inside (0, 1], got {levels}"
        )
    return levels


def sweep(x, cfg: EstimatorConfig, grid=None) -> ThresholdCurve:
    """Evaluate the empirical-threshold blocks estimator of series ``x`` on a grid of t values.

    ``grid`` defaults to ``default_grid(k)``; any other grid must pass
    ``check_grid``.  It is the single-r entry point of the raw half of the
    curve kernel: the budgets go through the same threshold rule,
    ``_coded_counts``.  Grid points where the estimate is
    undefined (no exceedance inside the blocks, or a threshold tie) keep their
    place in the curve with a NaN value and the error code, instead of
    silently disappearing.
    """
    grid = default_grid(cfg.k) if grid is None else check_grid(grid)
    ev = BlocksEvaluator(x, cfg.r, cfg.k)
    k_t = count_at(cfg.k, grid)
    values, codes = ev._coded(k_t)
    return ThresholdCurve(
        t=grid,
        k_t=k_t,
        theta_hat=values,
        code=CODE_NAMES[codes],
        variant="empirical_quantile",
        config=cfg,
        n=ev.n,
    )
