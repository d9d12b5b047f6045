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
those positions only (``_top_tables``).  One threshold rule turns an array of
budgets into estimates and integer skip codes for every block length at once,
in two stages: ``_counts`` takes the integer counts of one sample, and
``_coded_values`` turns the stacked counts of many samples into values and codes.
``CurveKernel`` runs a group of samples through both stages into raw curves
and, under a signed measure, corrected ones: it counts each sample from its
one slice, takes its runs curves (``_runs_curves``) from the same slice,
drops it, and runs the value stage once for the group.  It returns one
``(values, codes)`` pair per curve kind, raw, runs and corrected in that
order.  The Monte Carlo driver calls it once per group of replicates, and
``sweep`` and ``biascorrect.corrected_curve`` take the raw and the corrected
pair of a group of one sample (``_sample_curve``).
``clusterproc.estimate_kernel_mc`` counts each replicate, and in
known-marginal mode its cdf values U = F(X) too, through ``_counts`` at its
own budgets, which may be 0 or run past k up to n, and runs the value stage
once per group of replicates.

The runs estimator counts an exceedance as a cluster end when the next
``run_length`` observations all stay below the threshold:

    sum_{i<=n-run_length} 1{X_i > u, following run_length values <= u}
    / sum_{i<=n-run_length} 1{X_i > u}.
"""

from __future__ import annotations

import numbers
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
        object.__setattr__(self, "r", _whole(self.r, "r"))
        object.__setattr__(self, "k", _whole(self.k, "k"))

    def validate_for(self, n: int) -> None:
        _whole(self.r, "r", high=n)
        _whole(self.k, "k", high=n - 1)

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
    scalar ``t`` gives an int, an array of levels an integer array.  A
    level must be a real number: a boolean is an error, not the level 1,
    and a string an error, not the number it spells.
    """
    k = _whole(k, "k")
    _reject_non_reals(t, "t")
    ts = np.asarray(t, dtype=float)
    if not np.all((ts > 0.0) & np.isfinite(ts)):
        raise ValueError(f"t must lie in (0, inf), got {t}")
    prod = k * ts
    nearest = np.rint(prod)
    exact = np.abs(prod - nearest) <= 1e-12 * np.maximum(1.0, np.abs(prod))
    kt = np.maximum(np.where(exact, nearest, np.ceil(prod + 1e-12)), 1).astype(np.int64)
    return int(kt) if kt.ndim == 0 else kt


def _reject_non_reals(levels, what: str) -> None:
    """Raise a ``ValueError`` naming ``what`` unless ``levels`` holds real, non-boolean numbers only.

    ``levels`` is a level or a (possibly nested) sequence of them; a ragged
    one holds sequences where numbers belong and is rejected too.  An
    integer or float array passes without a look at its entries.
    """
    items = levels if isinstance(levels, np.ndarray) else np.asarray(levels, dtype=object)
    if items.dtype.kind in "iuf":
        return
    kinds = {items.dtype.type} if items.dtype != object else set(map(type, items.ravel().tolist()))
    if any(issubclass(kind, (bool, np.bool_)) for kind in kinds):
        raise ValueError(f"{what} must not be boolean, got {levels}")
    if not all(issubclass(kind, numbers.Real) for kind in kinds):
        raise ValueError(f"{what} must hold real numbers only, got {levels}")


def _whole(value, what: str, low: int = 1, high: int = None) -> int:
    """``value`` as an int, once it passes the one rule for counts: a whole number in [low, high].

    ``high`` None sets no upper bound.  A boolean, fraction, NaN, inf or non-number, or a count
    out of range, raises ``ValueError`` naming ``what``; an integral float gives its int.
    """
    if type(value) is int:  # the usual count skips the slower abstract-type tests
        count = value
    else:
        real = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
        if not (real and (isinstance(value, numbers.Integral) or float(value).is_integer())):
            raise ValueError(f"{what} must be a whole number, got {value}")
        count = int(value)
    if high is None and count < low:
        raise ValueError(f"{what} must be at least {low}, got {count}")
    if high is not None and high < low:  # every upper bound is set by a series length
        raise ValueError(f"no {what} fits: it must be at least {low} and at most {high}, "
                         f"so the series is too short, got {count}")
    if high is not None and not low <= count <= high:
        raise ValueError(f"{what} must lie in [{low}, {high}], got {count}")
    return count


def _real(value, what: str, low: float = -np.inf, high: float = np.inf, ends: str = "()") -> float:
    """``value`` as a float, once it passes the one rule for reals: a real number in an interval.

    ``ends`` holds the brackets, so ``_real(t, "t", 0, 1, "(]")`` takes t in (0, 1] and the
    default every finite number.  A boolean, NaN or non-number, or a value outside the interval,
    raises ``ValueError`` naming ``what``; an int or numpy number gives its float.
    """
    # a float, np.float64 included, skips the slower type tests: most calls pass one
    if not (isinstance(value, float) or isinstance(value, numbers.Real)
            and not isinstance(value, (bool, np.bool_))) or value != value:
        raise ValueError(f"{what} must be a real number, got {value}")
    real = float(value)
    if not ((low < real or low == real and ends[0] == "[")
            and (real < high or real == high and ends[1] == "]")):
        raise ValueError(f"{what} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value}")
    return real


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
    r = _whole(r, "r", high=n)
    u = _real(u, "u", -np.inf, np.inf, "[]")
    m = n // r
    covered = xs[: m * r]
    exceed = int(np.count_nonzero(covered > u))
    if exceed == 0:
        raise NoExceedances(f"no observation in the {m} blocks exceeds u={u}")
    hit = int(np.count_nonzero(covered.reshape(m, r).max(axis=1) > u))
    return hit / exceed


def check_run_length(run_length: int, n: int) -> int:
    """``run_length`` as an int, once it is a count (``_whole``) below the series length ``n``."""
    return _whole(run_length, "run_length", high=n - 1)


def runs_estimator(x, run_length: int, u: float) -> float:
    """Runs estimate at a fixed threshold ``u``."""
    xs = _values(x)
    n = len(xs)
    run_length = check_run_length(run_length, n)
    u = _real(u, "u", -np.inf, np.inf, "[]")
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


def _runs_curves(values, above, run_lengths, thresholds) -> np.ndarray:
    """``runs_estimator(values, L, u)`` at every run length L and threshold u, NaN where undefined.

    One row per entry of ``run_lengths``.  With M_i the maximum of the L
    values after X_i, a run ends at exceedance i iff M_i <= u.  Over
    i < n - L, the denominator is #{X_i > u} and the numerator that minus
    #{min(X_i, M_i) > u}.  Only the positions i with X_i above the lowest
    threshold can count in either; ``above`` lists, ascending, a superset
    of them (the ``above`` of ``_top_slice``, whose top[0] no threshold
    lies below), and M_i is built at those positions alone, for every L
    from one running maximum: each offset j = 1..max L is gathered once, at
    the positions with i + j < n, and each L takes its minima as the maximum
    passes it.  Every count comes from one binary search per threshold on a
    sorted array: the same integers as over every position.  The values
    X_i are sorted once; an L takes its denominator as their count above u
    less that of the few positions i >= n - L at the end of ``index``, and
    sorts its minima.  The caller checks each run length
    (``check_run_length``).
    """
    n = len(values)
    index = above[: np.searchsorted(above, n - min(run_lengths))]
    index = index[values[index] > thresholds.min()]
    starts = values[index]

    def exceeding(sample):
        return len(sample) - np.searchsorted(np.sort(sample), thresholds, side="right")

    exceed = exceeding(starts)
    # ends[j]: the count of positions i < n - j, a prefix of ``index``
    ends = np.searchsorted(index, n - np.arange(max(run_lengths) + 1))
    after = values[index + 1]  # i < n - 1 throughout
    curves, done = {}, 1
    for length in sorted(set(run_lengths)):
        for j in range(done + 1, length + 1):
            head = after[: ends[j]]
            np.maximum(head, values[j:][index[: ends[j]]], out=head)
        done, stop = length, ends[length]
        denom = exceed - exceeding(starts[stop:])
        kept = exceeding(np.minimum(starts[:stop], after[:stop]))
        curves[length] = np.full(len(thresholds), np.nan)
        np.divide(denom - kept, denom, out=curves[length], where=denom > 0)
    return np.array([curves[length] for length in run_lengths])


# Integer skip codes of the curve kernels, int8 as the Monte Carlo tables
# store them; ``CODE_NAMES[code]`` is the error code a curve reports, "" where
# the value is defined.
OK, TIES, NO_EXC, DEGENERATE = (np.int8(code) for code in range(4))
CODE_NAMES = np.array(["", TiesDetected.code, NoExceedances.code, DegenerateDenominator.code])


def _top_slice(xs: np.ndarray, k: int) -> tuple:
    """``(top, above)``: the k + 1 largest values, ascending, and the positions of those >= top[0].

    A budget 0 <= k_t <= k reads only the order statistics n - k_t - 1 and
    n - k_t, so ``top`` is all a threshold needs: one partition of the sample
    and a sort of its top k + 1 values replace a sort of the sample.  Every
    value that can exceed such a threshold sits at a position in ``above``,
    which lists them in ascending order.  With k = n the order statistic
    below every value is -inf, so ``top`` is the sorted sample after -inf.
    """
    cut = len(xs) - k - 1
    if cut < 0:
        return np.concatenate([[-np.inf], np.sort(xs)]), np.arange(len(xs))
    top = np.partition(xs, cut)[cut:]
    top.sort()
    return top, np.flatnonzero(xs >= top[0])


def _top_tables(xs: np.ndarray, above: np.ndarray, r: int) -> tuple:
    """Sorted block maxima and uncovered tail of block length r, over ``above`` of ``_top_slice``.

    A budget k_t <= k puts its threshold at or above top[0], so
    ``_counts`` counts only block maxima and tail values above top[0].
    Every block holding such a value keeps its exact maximum, taken over its
    positions in ``above``; no other block of the sample is reduced.  Series
    values are finite, so the -inf fill marks only the blocks that hold none
    of those positions.
    """
    m = len(xs) // r
    covered = above[: np.searchsorted(above, m * r)]
    maxima = np.full(m, -np.inf)
    np.maximum.at(maxima, covered // r, xs[covered])
    maxima = maxima[maxima > -np.inf]
    maxima.sort()
    return maxima, np.sort(xs[above[len(covered) :]])


def _thresholds(top: np.ndarray, k_t) -> tuple:
    """Threshold and tie flag of each budget k_t, read from the ``top`` of ``_top_slice``.

    The threshold is the order statistic below the top k_t values; it is tied
    when it equals the smallest of them.  Budget 0 puts the threshold at the
    largest value, which nothing exceeds, and is never tied.
    """
    below = len(top) - 1 - k_t
    upper = np.minimum(below + 1, len(top) - 1)
    u = top[below]
    return u, (u == top[upper]) & (below < upper)


def _counts(top: np.ndarray, tables, k_t: np.ndarray) -> tuple:
    """``(tied, hit, in_blocks)`` of one sample at the budgets ``k_t``: the count stage.

    ``top`` comes from ``_top_slice`` and ``tables`` holds one
    ``_top_tables`` pair per block length.  The thresholds and tie flags of
    ``_thresholds`` are read once for all block lengths: ``tied`` has one
    entry per budget.  ``hit`` and ``in_blocks`` are (len(tables), len(k_t))
    integer arrays: the block maxima above each threshold and the
    exceedances inside the blocks, each from one binary search per block
    length.  Nothing returned refers to the sample.
    """
    u, tied = _thresholds(top, k_t)
    hit = np.empty((len(tables), len(k_t)), dtype=np.int64)
    in_blocks = np.empty_like(hit)
    for i, (block_max, tail) in enumerate(tables):
        hit[i] = len(block_max) - np.searchsorted(block_max, u, side="right")
        # without a tie exactly k_t values exceed u, so the in-block count is
        # k_t minus those in the tail
        in_blocks[i] = k_t - (len(tail) - np.searchsorted(tail, u, side="right"))
    return tied, hit, in_blocks


def _coded_values(tied, hit, in_blocks) -> tuple:
    """Blocks estimates and integer skip codes from ``_counts``: the value stage.

    ``tied`` is (..., budgets) and ``hit`` and ``in_blocks`` are
    (rows, ..., budgets), so the counts of many samples, stacked along an
    axis after the rows, are evaluated at once.  Returns ``(values, codes)``
    shaped like ``hit``: a code is ``TIES`` where the threshold ties the
    smallest retained value, else ``NO_EXC`` where every retained value lies
    beyond the block coverage, else ``OK`` with the value hit / in_blocks;
    values are NaN wherever a code is set.
    """
    codes = np.where(tied, TIES, np.where(in_blocks == 0, NO_EXC, OK))
    values = np.where(codes == OK, hit / np.maximum(in_blocks, 1), np.nan)
    return values, codes


class CurveKernel:
    """Raw, runs and corrected curves on a fixed (k, grid, measure), for many samples.

    Built once per configuration: it checks the grid, tabulates the budgets
    count_at(k, grid) and, under a ``biascorrect.SignedMeasureAtoms`` ``mu``,
    count_at(k, t s) and count_at(k, t s') of every grid level t and atom
    (s, s', w), as ``scale_measure(mu, t)`` places them, and collects the
    distinct budgets among them.  A call takes a group of samples: each is
    partially sorted once (``_top_slice``), counted at the distinct budgets
    for every block length of ``lengths`` (``_counts``) and, for the run
    lengths ``run_lengths``, read into runs curves at the grid thresholds
    (``_runs_curves``), all from that one slice, and then dropped.  The
    value stage (``_coded_values``) then runs once on the group's stacked
    counts, and the raw grid rows and the atom levels of the corrected rows
    are gathered from it.  A call returns one ``(values, codes)`` pair per
    kind, in the order raw, runs, corrected; the runs pair has codes None.
    """

    def __init__(self, k: int, grid, mu=None, lengths=(), run_lengths=()):
        self.grid = check_grid(grid)
        self.k = k
        self.mu = mu
        self.lengths = tuple(lengths)
        self.run_lengths = tuple(run_lengths)
        levels = self.grid
        if mu is not None:
            s, t, self._w = mu.arrays()
            self._eps_den = 1e-8 * mu.total_variation
            atom_levels = np.outer(self.grid, np.column_stack([s, t]).ravel())
            levels = np.concatenate([levels, atom_levels.ravel()])
        budgets = count_at(k, levels)
        self.k_t = budgets[: len(self.grid)].copy()  # a view keeps all atom levels' budgets alive
        self._budgets, where = np.unique(budgets, return_inverse=True)
        self._raw_at = where[: len(self.grid)]
        # (2 * atoms, grid): the budget index of each atom level, in the order s1, t1, s2, t2, ...
        self._levels_at = where[len(self.grid) :].reshape(len(self.grid), -1).T

    def _sample(self, xs: np.ndarray) -> tuple:
        """``((tied, hit, in_blocks), runs)`` of one sample: nothing returned refers to it."""
        top, above = _top_slice(xs, self.k)
        counts = _counts(top, [_top_tables(xs, above, r) for r in self.lengths], self._budgets)
        if not self.run_lengths:
            return counts, np.empty((0, len(self.grid)))
        return counts, _runs_curves(xs, above, self.run_lengths, _thresholds(top, self.k_t)[0])

    def __call__(self, samples) -> tuple:
        """One ``(values, codes)`` pair per curve kind of the B one-dimensional ``samples``.

        The kinds come in the order raw, runs, corrected, each pair (rows, B,
        grid) arrays: a row per block length of ``lengths``; per run length of
        ``run_lengths``, with codes None; and per block length under a
        measure, none without.  Values are NaN where undefined, codes the skip
        codes of ``CODE_NAMES``.  ``samples`` may be lazy: each sample is
        dropped once it is counted, before the next is drawn.
        """
        counts, runs = zip(*map(self._sample, samples))
        tied, hit, in_blocks = zip(*counts)
        hit, in_blocks = (np.stack(part, axis=1) for part in (hit, in_blocks))
        raw, corrected = self._rows(np.stack(tied), hit, in_blocks)
        return raw, (np.stack(runs, axis=1), None), corrected

    def _rows(self, tied, hit, in_blocks) -> tuple:
        """The value stage of a call: raw and corrected ``(values, codes)`` of stacked counts."""
        values, codes = _coded_values(tied, hit, in_blocks)
        raw = values[..., self._raw_at], codes[..., self._raw_at]
        if self.mu is None:
            return raw, tuple(part[:0] for part in raw)
        return raw, _corrected_rows(self._w, self._eps_den, self._levels_at, values, codes)


def _corrected_rows(w, eps_den, at, values, codes) -> tuple:
    """Corrected values and integer codes from the curve at the distinct budgets.

    ``values`` and ``codes`` run over the budgets along their last axis, and
    the result has the grid there instead.  ``at[j]`` holds the budget index
    of atom level j at every grid level, in the order s1, t1, s2, t2, ....
    A value is the ``_combine`` ratio; its code is that of its first
    undefined atom level, else ``DEGENERATE`` when the denominator falls
    below ``eps_den``, and such values are NaN.  The budget axis is moved to
    the front once, so that a gather copies whole blocks of the other axes,
    and each atom level is gathered inside the loop over the levels: besides
    that one copy of the input, every array made here has the size of the
    result, however many atoms the measure has.
    """
    values, codes = (np.moveaxis(a, -1, 0).copy() for a in (values, codes))
    num, den, degenerate = _combine(
        w, (values.take(i, axis=0) for i in at[0::2]),
        (values.take(i, axis=0) for i in at[1::2]), eps_den,
    )
    first = codes.take(at[0], axis=0)
    for i in at[1:]:  # a level's code stands only where every earlier level is defined
        np.copyto(first, codes.take(i, axis=0), where=first == OK)
    code = np.where(first != OK, first, np.where(degenerate, DEGENERATE, OK))
    value = np.full(code.shape, np.nan)
    np.divide(num, den, out=value, where=code == OK)
    return np.moveaxis(value, 0, -1), np.moveaxis(code, 0, -1)


def _combine(w, hs, ht, eps_den):
    """Numerator, denominator and degeneracy flag of the mu-combination.

    ``hs[a]`` and ``ht[a]`` are the curve at the two levels of atom ``a`` (a
    number or a row of grid values); both sums run over the atoms in atom
    order, so the curve and the point estimate agree bit for bit.
    """
    num = den = 0.0
    for wa, a, b in zip(w, hs, ht):
        num = num + wa * a * b
        den = den + wa * (a + b)
    return num, den, np.abs(den) < eps_den


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
    them (``_top_slice``, ``_top_tables``); ``at_count`` then counts a budget
    with two binary searches (the estimate depends on t only through k_t).
    """

    def __init__(self, x, r: int, k: int):
        xs = _values(x)
        cfg = EstimatorConfig(r=r, k=k)
        cfg.validate_for(len(xs))
        self.n, self.r, self.k = len(xs), cfg.r, cfg.k
        self._top, above = _top_slice(xs, self.k)
        self._tables = _top_tables(xs, above, self.r)

    def at_count(self, k_t: int) -> float:
        """The estimate at a budget k_t, a count (``_whole``) in [1, k], or its coded error."""
        k_t = _whole(k_t, "k_t", high=self.k)
        values, codes = _coded_values(*_counts(self._top, [self._tables], np.array([k_t])))
        _raise_coded(codes[0, 0], k_t)
        return float(values[0, 0])

    def __call__(self, t: float) -> float:
        return self.at_count(count_at(self.k, _real(t, "t", 0, 1, "(]")))


def blocks_true_quantile(x, cfg: EstimatorConfig, t: float, marginal_quantile) -> float:
    """Blocks estimate with the threshold at the known marginal (1 - v*t)-quantile."""
    xs = _values(x)
    cfg.validate_for(len(xs))
    t = _real(t, "t", 0, 1, "(]")
    u = float(marginal_quantile(1.0 - cfg.v(len(xs)) * t))
    return blocks_fixed(xs, cfg.r, u)


def default_grid(k: int) -> np.ndarray:
    """One grid point per distinct order-statistic threshold: t_j = j/k."""
    k = _whole(k, "k")
    return np.arange(1, k + 1) / k


def check_grid(grid, what: str = "grid") -> np.ndarray:
    """``grid`` as a new float array, once it passes the one rule for threshold grids.

    A grid is 1-D, nonempty, finite, strictly increasing and inside (0, 1],
    and holds real numbers only, no boolean; ``what`` names it in the
    ``ValueError`` that a bad one raises.  The array is a copy, so a curve or
    kernel that keeps it never shares the caller's array.
    """
    _reject_non_reals(grid, what)
    levels = np.array(grid, dtype=float)
    if levels.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {levels.shape}")
    if levels.size == 0:
        raise ValueError(f"{what} must be nonempty")
    inside = np.isfinite(levels).all() and 0.0 < levels[0] <= levels[-1] <= 1.0
    if not (inside and np.all(np.diff(levels) > 0)):
        rule = "finite, strictly increasing and inside (0, 1]"
        raise ValueError(f"{what} must be {rule}, got {levels}")
    return levels


def _sample_curve(x, cfg: EstimatorConfig, kernel, pair: int, variant: str) -> ThresholdCurve:
    """Pair ``pair`` of ``kernel``, built with the one block length ``cfg.r``, on the sample ``x``.

    A group of B = 1 samples; ``pair`` is the position in the kernel's
    order of kinds: 0 the raw curve, 2 the corrected one.
    """
    xs = _values(x)
    cfg.validate_for(len(xs))
    values, codes = kernel([xs])[pair]
    return ThresholdCurve(
        t=kernel.grid,
        k_t=kernel.k_t,
        theta_hat=values[0, 0],
        code=CODE_NAMES[codes[0, 0]],
        variant=variant,
        config=cfg,
        n=len(xs),
    )


def sweep(x, cfg: EstimatorConfig, grid=None) -> ThresholdCurve:
    """Evaluate the empirical-threshold blocks estimator of series ``x`` on a grid of t values.

    ``grid`` defaults to ``default_grid(k)``; any other grid must pass
    ``check_grid``.  It is the raw curve of ``CurveKernel`` on one sample.
    Grid points where the estimate is undefined (no exceedance inside the
    blocks, or a threshold tie) keep their place in the curve with a NaN
    value and the error code, instead of silently disappearing.
    """
    grid = default_grid(cfg.k) if grid is None else grid
    return _sample_curve(x, cfg, CurveKernel(cfg.k, grid, None, (cfg.r,)), 0, "empirical_quantile")
