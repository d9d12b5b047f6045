"""Seeded simulation of the stationary model families used throughout the package.

Marginal distributions (with exact cdf/survival/quantile) and four time-series
models:

* ``IID`` -- independent draws from a given marginal.
* ``AR1Cauchy`` -- X_t = phi * X_{t-1} + eps_t with standard Cauchy innovations,
  started from its exact stationary marginal (Cauchy with scale 1/(1-phi)).
* ``RandomRepetition`` -- X_0 = Z_0 and X_t = xi_t * Z_t + (1 - xi_t) * X_{t-1}
  where the Z_t are iid draws from the innovation marginal and the xi_t are iid
  Bernoulli with P{xi_t = 0} = psi.  Each value is repeated a geometric number
  of times, so the extremal index is 1 - psi.
* ``MovingMaxima`` -- X_t = max_{0<=j<=q} psi_j * Z_{t-j} with heavy-tailed
  innovations whose survival function is c1 * z^(-b1) * (1 + c2 * z^(-b2)).

Every model and every innovation law answers the same questions:
``sample(rng, size)`` draws values and ``to_dict()`` writes its config form
under its config ``name``.  Each model also has ``marginal`` (its exact
stationary law) and ``theta`` (its extremal index) properties, and two
oracle methods from :mod:`exindex.oracle`: ``theta_nt(r, v, t)``, the exact
mean curve of the blocks estimator (a float for a scalar ``r`` and ``t``,
one row per block length for a sequence ``r``), and ``bias_expansion(r, v)``,
its leading bias model.  Both return None where no exact form is known
(AR(1)).  ``IID`` is the psi = 0 case of ``RandomRepetition`` and shares its
oracles.  The constructor fields, as :func:`config_fields` lists them, are
the parameter list that ``to_dict``, the config parser and the CLI's model
flag reader follow; ``cli._add_model_args`` declares the flags by hand.

All generators are deterministic functions of (model, n, seed, top).
Every Monte Carlo loop runs its replicates through :func:`map_replicates`,
which hands each step a group of consecutive replicates' paths, drawn one
at a time as the step reads them.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .estimate import _real, _whole

__all__ = [
    "StandardCauchy",
    "UnitPareto",
    "SecondOrderPareto",
    "Uniform01",
    "IID",
    "AR1Cauchy",
    "RandomRepetition",
    "MovingMaxima",
    "SeriesSample",
    "config_fields",
    "substream",
    "generate",
    "map_replicates",
]


def config_fields(cls) -> tuple:
    """Names of the constructor fields of dataclass ``cls``, in order."""
    return tuple(f.name for f in fields(cls) if f.init)


def _config_value(value):
    """A field as a config form writes it: a law through its ``to_dict``, a tuple as a list."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return list(value) if isinstance(value, tuple) else value


class _ConfigForm:
    """``to_dict``: the config ``name`` plus every constructor field."""

    def to_dict(self) -> dict:
        out = {"name": self.name}
        out.update((key, _config_value(getattr(self, key))) for key in config_fields(type(self)))
        return out


# ---------------------------------------------------------------------------
# Marginal distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform01(_ConfigForm):
    """Uniform distribution on (0, 1)."""

    name = "uniform"

    def cdf(self, x):
        return np.clip(x, 0.0, 1.0)

    def survival(self, x):
        return 1.0 - self.cdf(x)

    def quantile(self, p):
        return np.asarray(p, dtype=float) if np.ndim(p) else float(p)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size)


@dataclass(frozen=True)
class _CauchyScale:
    """Cauchy distribution with location 0 and the given scale."""

    scale: float

    def cdf(self, x):
        return 0.5 + np.arctan(np.asarray(x, dtype=float) / self.scale) / np.pi

    def survival(self, x):
        return 0.5 - np.arctan(np.asarray(x, dtype=float) / self.scale) / np.pi

    def quantile(self, p):
        return self.scale * np.tan(np.pi * (np.asarray(p, dtype=float) - 0.5))


@dataclass(frozen=True)
class StandardCauchy(_ConfigForm, _CauchyScale):
    """Standard Cauchy distribution: the Cauchy law at scale 1, where the scaling is exact."""

    scale: float = field(default=1.0, init=False, repr=False)
    name = "cauchy"

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_cauchy(size)


@dataclass(frozen=True)
class UnitPareto(_ConfigForm):
    """Pareto distribution on [1, inf) with survival z^(-alpha)."""

    alpha: float = 1.0
    name = "pareto"

    def __post_init__(self):
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha", 0))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 1.0, 0.0, 1.0 - x ** (-self.alpha))

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 1.0, 1.0, x ** (-self.alpha))

    def quantile(self, p):
        return (1.0 - np.asarray(p, dtype=float)) ** (-1.0 / self.alpha)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # 1 - U lies in (0, 1], avoiding a zero-probability division blow-up
        return (1.0 - rng.random(size)) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class SecondOrderPareto(_ConfigForm):
    """Heavy-tailed distribution with survival c1 * z^(-b1) * (1 + c2 * z^(-b2)).

    The formula only pins down the tail; the body is the same expression
    truncated at the support start ``z_min`` where it first equals 1.  For
    c2 > 0 the survival is strictly decreasing on (0, inf), so ``z_min`` always
    exists.  For c2 < 0 the expression increases up to
    z* = ((b1 + b2) * (-c2) / b1)^(1/b2) and decreases beyond it; the
    parameters are valid only if the maximum value reaches 1, so that a root
    z_min >= z* exists on the decreasing branch.

    ``quantile`` bisects the survival test of ``_tail_test``.  For c2 > 0 it
    starts each element's bracket at a Newton estimate of the quantile
    (``_newton_start``), which ends the bisection after 2 confirmations and
    4 halvings instead of ~60 steps, with the same bits: every operation of
    the test is then monotone in z, so the test flips at one pair of
    adjacent floats, which any confirmed bracket finds.  For c2 < 0 the
    float survival is not monotone just above ``z_min``, so a narrow bracket
    could end on another flip; those laws keep the wide bracket
    [z_min, max(2 * z_min, 2)].
    """

    beta1: float
    beta2: float
    c1: float
    c2: float
    z_min: float = field(init=False, repr=False)
    name = "second_order_pareto"

    def __post_init__(self):
        for key, low in (("beta1", 0), ("beta2", 0), ("c1", 0), ("c2", -np.inf)):
            object.__setattr__(self, key, _real(getattr(self, key), key, low))
        if self.c2 == 0:
            raise ValueError("c2 must be nonzero")
        object.__setattr__(self, "z_min", self._solve_support_start())

    def _raw_survival(self, z):
        return self.c1 * z ** (-self.beta1) * (1.0 + self.c2 * z ** (-self.beta2))

    def _solve_support_start(self) -> float:
        if self.c2 < 0:
            z_star = ((self.beta1 + self.beta2) * (-self.c2) / self.beta1) ** (
                1.0 / self.beta2
            )
            if self._raw_survival(z_star) < 1.0:
                raise ValueError(
                    "survival formula never reaches 1 on its decreasing branch; "
                    "parameters do not define a distribution"
                )
            lo = z_star
        else:
            lo = 1.0
            while self._raw_survival(lo) <= 1.0:
                lo /= 2.0
        hi = max(lo, 1.0)
        while self._raw_survival(hi) >= 1.0:
            hi *= 2.0
        # bisection: survival is strictly decreasing on [lo, hi]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self._raw_survival(mid) >= 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def survival(self, x):
        """1 at and below ``z_min``, ``_raw_survival`` clipped to [0, 1] above it.

        A Python float, ``np.float64`` included, takes a float path: Python's
        ``**`` and numpy's scalar power both call libm ``pow``, so it has the
        bits of a 0-d array, ~30 times faster.  An array's power loop may
        differ from ``pow`` in the last bit.  Above ``z_min`` each power is
        below its value at a point the support search evaluated, so the float
        ``**`` cannot overflow.
        """
        if isinstance(x, float):
            if x <= self.z_min:
                return 1.0
            s = self._raw_survival(x)
            return 0.0 if s < 0.0 else 1.0 if s > 1.0 else s
        x = np.asarray(x, dtype=float)
        out = np.where(x <= self.z_min, 1.0, self._raw_survival(np.maximum(x, self.z_min)))
        return np.clip(out, 0.0, 1.0)

    def cdf(self, x):
        return 1.0 - self.survival(x)

    def quantile(self, p):
        start = self._newton_start if self.c2 > 0 else None
        return _bisect_quantile(
            p, self._tail_test, self.z_min, max(2.0 * self.z_min, 2.0), start
        )

    def _newton_start(self, p):
        """``start`` for :func:`_bisect_quantile`: the quantile after 3 Newton steps.

        With w = beta1 * log z, survival(z) = 1 - p reads f(w) = 0 for
        f(w) = a - w + log1p(c2 * exp(-r * w)), a = log(c1) - log1p(-p) and
        r = beta2 / beta1.  The steps start at w = a, the quantile of the
        Pareto part c1 * z^(-beta1).  For c2 > 0, f is convex and decreasing
        with f(a) > 0, so they approach the root from below.  On the benchmark
        law (2, 1, 1, 0.5) the third step lands at most 6 floats from the
        quantile, over 20 001 uniform draws and over a grid of 20 001 levels
        spanning (0, 1); a fourth step moves no draw closer than 6 floats, and
        two steps leave it ~5e8 floats off.  The result and three scratch
        arrays are made once per call; the steps allocate nothing.
        """
        r = self.beta2 / self.beta1
        a = np.negative(p)
        np.log1p(a, out=a)
        np.subtract(np.log(self.c1), a, out=a)
        e = np.empty_like(p)
        f = np.empty_like(p)
        z = a.copy()
        for _ in range(3):
            np.multiply(-r, z, out=e)
            np.exp(e, out=e)
            np.multiply(self.c2, e, out=e)
            np.log1p(e, out=f)
            np.add(f, a, out=f)
            np.subtract(f, z, out=f)  # f(w)
            np.add(1.0, e, out=e)
            np.divide(-r, e, out=e)
            np.add(1.0 + r, e, out=e)  # -f'(w) = 1 + r * e / (1 + e)
            np.divide(f, e, out=f)
            np.add(z, f, out=z)
        np.divide(z, self.beta1, out=z)
        return np.exp(z, out=z)

    def _tail_test(self, p):
        """``below`` for :func:`_bisect_quantile`: writes ``_raw_survival(z) >= 1 - p``.

        The survival is evaluated into two scratch arrays in the operation
        order of ``_raw_survival``, so it has the same bits without allocating.
        """
        level = 1.0 - p
        s = np.empty_like(p)
        t = np.empty_like(p)

        def below(z, out):
            np.power(z, -self.beta1, out=s)
            np.multiply(self.c1, s, out=s)
            np.power(z, -self.beta2, out=t)
            np.multiply(self.c2, t, out=t)
            np.add(1.0, t, out=t)
            np.multiply(s, t, out=s)
            return np.greater_equal(s, level, out=out)

        return below

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.quantile(self._uniforms(rng, size))

    @staticmethod
    def _uniforms(rng: np.random.Generator, size: int) -> np.ndarray:
        """The levels ``sample`` inverts: ``size`` uniform draws, 0 raised to 2**-53.

        Every draw is a multiple of 2**-53, so the maximum changes zeros alone.
        """
        u = rng.random(size)
        return np.maximum(u, 0.5**53, out=u)  # keep p strictly inside (0, 1)


# half-width in floats of a bracket around a ``start`` guess: the c2 > 0 Newton
# start of the innovation lies within 6 floats of the quantile on the benchmark
# law, so 2 confirmations and 4 halvings end its bisection; that of the
# moving-maxima marginal lies up to 18 floats off there
_ULPS = 8
_MM_ULPS = 32


def _bisect_quantile(p, below_for, lo: float, hi: float, start=None, ulps: int = _ULPS):
    """Invert a distribution at ``p`` (scalar or array) by bracketed bisection.

    ``below_for(p)`` returns ``below(z, out)``, which writes into the boolean
    array ``out`` where z lies below the p-quantile and returns it; it must
    hold at ``lo`` and turn False once, as z grows.  The upper bracket starts
    at ``hi`` and doubles until ``below`` fails there; from 2**1023 it steps
    to the largest float instead, and from there to inf, so only a quantile
    beyond every float is inf.  When an upper end exceeds half the largest
    float, ``lo + hi`` may overflow, and the midpoint adds the halves
    wherever it does (``_wide_midpoint``).  Bisection stops as
    soon as every midpoint equals its ``lo`` or ``hi``: from then on each
    later midpoint is that same value.  Each step halves the gap between the
    ends, and every float64 is a multiple of 2**-1074 below 2**1024, so from
    any finite bracket the gap reaches adjacent floats within 2098 steps.  The
    cap of 2100 steps therefore never stops a finite bracket short of that
    fixed point, however far the quantile lies below the bracket's width.

    ``start(p)``, if given, returns a guess z of each quantile.  Each
    element's bracket then narrows to the floats ``ulps`` steps below and
    above z (stepped through the int64 view, the lower one raised to ``lo``),
    but an end is kept only where ``below`` confirms it (True at the lower
    end, False at the upper one).  An element whose end is not confirmed
    tries max(z * (1 - 1e-12), lo) or z * (1 + 1e-12) instead, and only where
    that fails too keeps ``lo`` or ``hi``; the upper ends double only if one
    of them is ``hi``.  So a stray guess costs its element a wider bracket,
    not the whole array.  Where ``below`` flips at a single pair of adjacent
    floats, every confirmed bracket ends on that pair, so the result has the
    bits of the wide bracket whenever the wide bisection reaches its fixed
    point; a guess within ``ulps`` floats only shortens the bisection to
    about log2(2 * ulps) steps.  An end that is not finite is never confirmed.

    A step allocates nothing: the midpoint, the stop test and the test result
    live in buffers made once per call, and the result is the last midpoint,
    written into its buffer.  The guess becomes the midpoint
    buffer, and the start frees its scratch before the brackets are made, so
    it does not raise the call's peak memory; only a fallback end takes
    temporaries, sized by its unconfirmed elements.  The brackets are updated
    through their int64 views with a branch-free select, ``lo ^= (lo ^ mid) & mask``
    and ``hi = mid ^ ((hi ^ mid) & mask)`` with ``mask`` all ones where
    ``below`` holds.  That copies whole bit patterns, so every bracket and the
    result have the same bits as selecting with ``np.where``.  A masked copy
    (``np.copyto(..., where=)``) branches on each element: with the test's
    unpredictable pattern it took 3 to 6 times as long as these seven
    operations on 2 003 and 20 001 elements.
    """
    scalar = np.ndim(p) == 0
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not np.all((p > 0.0) & (p < 1.0)):  # also rejects NaN
        raise ValueError("p must lie strictly between 0 and 1")
    if p.size == 0:
        return np.empty(p.shape)
    below = below_for(p)
    left = np.empty(p.shape, dtype=bool)
    same = np.empty(p.shape, dtype=bool)
    grow = start is None
    if grow:
        mid = np.empty_like(p)
        lo = np.full_like(p, lo)
        hi = np.full_like(p, hi)
    else:
        lo_end, hi_end = lo, hi

        def unconfirmed(end, upper):
            """Writes into ``left`` where ``end`` is not confirmed; True if anywhere."""
            if upper:
                np.logical_not(np.isfinite(end, out=same), out=same)
                np.logical_or(below(end, left), same, out=left)
            else:
                np.maximum(end, lo_end, out=end)
                np.logical_not(below(end, left), out=left)
            return left.any()

        with np.errstate(all="ignore"):  # a guess that overflows is just not confirmed
            mid = start(p)
            lo, hi = np.empty_like(p), np.empty_like(p)
            for end, upper, step, factor, wide_end in (
                (lo, False, -ulps, 1.0 - 1e-12, lo_end),
                (hi, True, ulps, 1.0 + 1e-12, hi_end),
            ):
                np.add(mid.view(np.int64), step, out=end.view(np.int64))
                if unconfirmed(end, upper):
                    end[left] = mid[left] * factor
                    if unconfirmed(end, upper):
                        end[left] = wide_end
                        grow |= upper
    mask = np.empty(p.shape, dtype=np.int64)
    bits = np.empty(p.shape, dtype=np.int64)
    lo_bits, hi_bits, mid_bits = lo.view(np.int64), hi.view(np.int64), mid.view(np.int64)
    while grow and np.any(below(hi, left)):
        # from 2**1023 up, hi steps to the largest float and only then to inf,
        # the right result for a quantile beyond every float
        grown = hi[left]
        with np.errstate(over="ignore"):
            past = np.where(grown < _MAX, _MAX, np.inf)
            hi[left] = np.where(grown < 2.0**1023, 2.0 * grown, past)
    wide = hi.max() > _MAX / 2  # lo + hi may overflow; hi only falls from here

    def midpoint():
        if wide:
            return _wide_midpoint(lo, hi, mid)
        np.add(lo, hi, out=mid)
        return np.multiply(0.5, mid, out=mid)

    for _ in range(2100):
        midpoint()
        np.equal(mid, lo, out=same)
        np.logical_or(same, np.equal(mid, hi, out=left), out=same)
        if same.all():
            break
        np.subtract(0, below(mid, left), out=mask, dtype=np.int64)
        np.bitwise_xor(lo_bits, mid_bits, out=bits)
        np.bitwise_and(bits, mask, out=bits)
        np.bitwise_xor(lo_bits, bits, out=lo_bits)
        np.bitwise_xor(hi_bits, mid_bits, out=bits)
        np.bitwise_and(bits, mask, out=bits)
        np.bitwise_xor(mid_bits, bits, out=hi_bits)
    out = midpoint()
    return float(out[0]) if scalar else out


_MAX = np.finfo(float).max


def _wide_midpoint(lo, hi, out):
    """``0.5 * (lo + hi)`` into ``out``; where the sum overflows, the halves are added instead.

    Elsewhere ``out`` has the bits of ``0.5 * (lo + hi)``, so a bracket whose
    sum stays finite takes the same steps as on the plain path.
    """
    with np.errstate(over="ignore"):
        np.add(lo, hi, out=out)
    over = np.isinf(out) & np.isfinite(hi)
    np.multiply(0.5, out, out=out)
    out[over] = 0.5 * lo[over] + 0.5 * hi[over]
    return out


# ---------------------------------------------------------------------------
# Model specifications
# ---------------------------------------------------------------------------


class _Repetition(_ConfigForm):
    """Random repetition with repeat probability ``psi`` and its oracles; iid is psi = 0."""

    @property
    def marginal(self):
        return self.innovation

    @property
    def theta(self) -> float:
        return 1.0 - self.psi

    def theta_nt(self, r, v: float, t):
        """``theta_nt_wn`` at each block length of ``r`` (one row each) and level of ``t``."""
        from .oracle import theta_nt_wn

        levels, lengths = np.ravel(t).tolist(), np.ravel(r).tolist()
        out = [[theta_nt_wn(self.psi, length, v, level) for level in levels] for length in lengths]
        out = np.reshape(out, np.shape(r) + np.shape(t))
        return float(out) if out.ndim == 0 else out

    def bias_expansion(self, r: int, v: float):
        from .oracle import bias_expansion_wn

        return bias_expansion_wn(self.psi, r, v)


@dataclass(frozen=True)
class IID(_Repetition):
    """Independent draws from ``innovation``."""

    innovation: object
    name = "iid"
    psi = 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.innovation.sample(rng, size)


@dataclass(frozen=True)
class AR1Cauchy(_ConfigForm):
    """AR(1) recursion with standard Cauchy innovations; extremal index 1 - phi."""

    phi: float
    name = "ar1_cauchy"

    def __post_init__(self):
        object.__setattr__(self, "phi", _real(self.phi, "phi", 0, 1))

    @property
    def marginal(self):
        return _CauchyScale(scale=1.0 / (1.0 - self.phi))

    @property
    def theta(self) -> float:
        return 1.0 - self.phi

    def theta_nt(self, r, v: float, t):
        return None

    def bias_expansion(self, r: int, v: float):
        return None

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        eps = rng.standard_cauchy(size)
        x0 = rng.standard_cauchy() / (1.0 - self.phi)
        # the arrays lfilter([1], [1, -phi], eps, zi=[phi * x0]) hands its compiled filter
        values, _ = _linear_filter()(
            np.array([1.0]), np.array([1.0, -self.phi]), eps, -1, np.array([self.phi * x0])
        )
        return values


@functools.cache
def _linear_filter():
    """The compiled filter under ``scipy.signal.lfilter``, loaded without ``scipy.signal``.

    ``lfilter`` passes a denominator of two or more taps and its arrays
    unchanged to ``scipy.signal._sigtools._linear_filter(b, a, x, axis, zi)``,
    so calling it directly gives the same bits.  Importing ``scipy.signal``
    instead loads some 800 modules, about 75 MB and 1-2 s on a fresh
    interpreter.  The extension file is found without running any scipy
    ``__init__``, and its entry in ``sys.modules`` is taken out again, so a
    later ``import scipy.signal`` imports it as usual.  Where the file cannot
    be found or loaded, ``lfilter`` itself stands in: it takes the same
    positional arguments.
    """
    name = "scipy.signal._sigtools"
    try:
        if name in sys.modules:  # scipy.signal is imported already
            return sys.modules[name]._linear_filter
        roots = importlib.util.find_spec("scipy").submodule_search_locations
        paths = [
            os.path.join(root, "signal", "_sigtools" + suffix)
            for root in roots
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        ]
        path = next(filter(os.path.isfile, paths), None)
        if path is None:
            raise ImportError(f"no {name} extension among {paths}")
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
        sys.modules.pop(name, None)  # the extension put itself there, with no parent package
        return module._linear_filter
    except (ImportError, OSError, AttributeError):
        from scipy.signal import lfilter

        return lfilter


@dataclass(frozen=True)
class RandomRepetition(_Repetition):
    """Each innovation is repeated a geometric number of times; extremal index 1 - psi."""

    psi: float
    innovation: object
    name = "wn"

    def __post_init__(self):
        object.__setattr__(self, "psi", _real(self.psi, "psi", 0, 1, "[)"))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        z = self.innovation.sample(rng, size + 1)  # Z_0 .. Z_size
        # Z_0 starts in force; Z_t takes over at X_t where xi_t = 1, t = 1..size
        renew = np.empty(size + 1, dtype=bool)
        renew[0] = True
        np.greater_equal(rng.random(size), self.psi, out=renew[1:])
        starts = np.flatnonzero(renew)
        lengths = np.diff(starts, append=size + 1)  # Z_t holds from X_t on; Z_0 from X_1
        lengths[0] -= 1
        return np.repeat(z[starts], lengths)


@dataclass(frozen=True)
class MovingMaxima(_ConfigForm):
    """Moving maximum of scaled heavy-tailed innovations.

    ``coeffs`` are the nonnegative scale coefficients (psi_0, ..., psi_q),
    normalized so that max_j psi_j = 1.  Innovations follow the second-order
    Pareto law with parameters (beta1, beta2, c1, c2).  The extremal index is
    1 / sum_j psi_j^beta1.
    """

    coeffs: tuple
    beta1: float
    beta2: float
    c1: float
    c2: float
    name = "mm"

    def __post_init__(self):
        coeffs = tuple(_real(c, "coeffs entry", 0, np.inf, "[)") for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) == 0:
            raise ValueError("coeffs must be nonempty")
        if abs(max(coeffs) - 1.0) > 1e-12:
            raise ValueError("coeffs must be normalized so max_j psi_j = 1")
        innovation = SecondOrderPareto(self.beta1, self.beta2, self.c1, self.c2)
        for key in ("beta1", "beta2", "c1", "c2"):  # as the innovation checked and stored them
            object.__setattr__(self, key, getattr(innovation, key))
        object.__setattr__(self, "innovation", innovation)

    @property
    def q(self) -> int:
        return len(self.coeffs) - 1

    @property
    def marginal(self):
        return _MovingMaximaMarginal(self)

    @property
    def theta(self) -> float:
        return 1.0 / sum(c ** self.beta1 for c in self.coeffs)

    def theta_nt(self, r, v: float, t):
        from .oracle import theta_nt_mm_exact

        return theta_nt_mm_exact(self, r, v, t)

    def bias_expansion(self, r: int, v: float):
        from .oracle import bias_expansion_mm

        return bias_expansion_mm(self, r, v)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._combine(self.innovation.sample(rng, size + self.q), size)

    def sample_top(self, rng: np.random.Generator, size: int, top: int) -> np.ndarray:
        """``sample(rng, size)`` at and above its ``top``-th largest value, and below it elsewhere.

        The same uniforms are drawn, but only the innovations at the
        ``top + q + 1`` largest of them are inverted; each other one is set
        to minus its uniform, in (-1, 0) and so below ``z_min`` > 0.  Those
        stand-ins are as distinct as the uniforms, so the partition that
        reads the top values meets no run of ties (a constant such as 0.0
        makes it several times slower).  The quantile is nondecreasing in
        the level and inverts each element alone, so the inverted
        innovations have their bits in ``sample``, and the others lie at or
        below the smallest of them, c, in ``sample`` and below 0 here.  In
        both paths, then, a value above c comes from inverted innovations
        alone and is the same, and every other value is at most c.  Where at
        least ``top`` values exceed c, so does the ``top``-th largest, which
        proves the claim.  The coefficient 1 puts all but q
        of the inverted innovations onto the path unscaled, so that fails
        only where innovations tie at c; the rest are then inverted too, and
        the result is ``sample``'s.
        """
        u = self.innovation._uniforms(rng, size + self.q)
        skip = len(u) - (top + self.q + 1)  # innovations left at -u
        if skip <= 0:
            return self._combine(self.innovation.quantile(u), size)
        inverted = np.argpartition(u, skip)[skip:]
        z = np.negative(u)
        z[inverted] = exact = self.innovation.quantile(u[inverted])
        values = self._combine(z, size)
        if np.count_nonzero(values > exact.min()) < top:
            rest = np.ones(len(u), dtype=bool)
            rest[inverted] = False
            z[rest] = self.innovation.quantile(u[rest])
            values = self._combine(z, size)
        return values

    def _combine(self, z: np.ndarray, size: int) -> np.ndarray:
        """X_t = max_j psi_j * Z_{t-j} for t = 1..size, from z = (Z_{1-q}, ..., Z_size).

        The first positive coefficient's products are the path, and each later
        one's are folded in through one scratch array, made only if there is
        one: the bits of a maximum over a path filled with -inf.
        """
        q = self.q
        (j, coeff), *rest = [(j, c) for j, c in enumerate(self.coeffs) if c > 0]
        values = np.multiply(coeff, z[q - j : q - j + size])
        scaled = np.empty(size) if rest else None
        for j, coeff in rest:
            np.maximum(values, np.multiply(coeff, z[q - j : q - j + size], out=scaled),
                       out=values)
        return values


@dataclass(frozen=True, eq=False)
class SeriesSample:
    """One simulated stationary path plus its generation provenance."""

    values: np.ndarray
    model: object
    seed: object
    top: object = None  # set where only the ``top`` largest values are exact (``generate``)

    @property
    def n(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def substream(seed: int, replicate: int) -> np.random.SeedSequence:
    """Independent, reproducible seed for one replicate of a seeded experiment."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def generate(model, n: int, seed, top=None) -> SeriesSample:
    """Simulate a stationary path of length ``n`` from ``model``.

    ``seed`` may be an integer or a numpy ``SeedSequence`` (e.g. from
    :func:`substream`).  Identical (model, n, seed, top) inputs yield
    bit-identical output.  Every model here starts from an exactly stationary
    state, so the path is ``model.sample(rng, n)`` with nothing discarded.

    ``top``, if given, lets a model with ``sample_top(rng, size, top)`` draw
    a cheaper path: one that equals the full path at every position at or
    above its ``top``-th largest value and lies below that value everywhere
    else.  A consumer that reads only those values (every estimate at budgets
    below ``top``) gets the same bits from either path.  Other models, and
    every call without ``top``, draw the full path; the result's ``top`` says
    which was drawn.
    """
    n = _whole(n, "n")
    top = None if top is None else _whole(top, "top")
    sample = getattr(model, "sample", None)
    if sample is None:
        raise ValueError(f"unknown model spec: {model!r}")
    sample_top = getattr(model, "sample_top", None)
    if top is None or sample_top is None:
        values, top = sample(_rng(seed), n), None
    else:
        values = sample_top(_rng(seed), n, top)
    return SeriesSample(values=np.asarray(values, dtype=float), model=model, seed=seed, top=top)


# A chunk of fewer values than this is not forked.  Forking and reaping a 46 or
# 110 MB process took 4.3-4.9 ms on a 2 vCPU host (tools/bench_layers.py), the
# time of ~250 000 values of the cheapest replicates (iid uniform paths, ~15 ns
# a value); AR(1) paths with the kernel step (~65 ns a value) already break
# even at ~7 replicates of 20 000 values.  A run of any model, AR(1) included,
# forks at 36-42 MB; 110 MB is a process that has imported scipy.signal.
_MIN_CHUNK_VALUES = 250_000


# Replicates per step call.  ``harness._replicates`` runs a group's float stage
# in one ``CurveKernel`` call, so a larger group spreads that call's fixed numpy
# overhead wider but holds more arrays at once.  On 2 vCPU, groups of 32 and 64
# ran the kernel stage 1-9% faster per replicate than 16, yet all three were
# within 2% end to end, and only 16 kept the peak resident size of the wn_ties
# benchmark (41.4 MB) below that of groups of one (41.7-41.8 MB); 32 and 64
# raised it to 42.4-42.7 MB.
_GROUP = 16


def map_replicates(step, model, n: int, seed: int, replicates: int, top=None) -> list:
    """``[step(first, paths) for each group]``: groups of consecutive replicates, in order.

    Replicate i draws ``path_i = generate(model, n, substream(seed, i),
    top=top)``, so each path depends only on (model, n, seed, i, top), and a
    step whose result depends only on its paths and their indices gives the
    same results however the replicates are split and grouped.

    The replicates run in ``min(usable cores, replicates, n * replicates //
    _MIN_CHUNK_VALUES)`` contiguous chunks: the calling process runs the first
    and forks one child per other chunk, which sends its results back pickled
    through a pipe.  Below that size, with one usable core, without
    ``os.fork`` or ``os.sched_getaffinity``, or while another thread is alive
    (a fork copies only the calling thread), every replicate runs here.
    Each chunk calls ``step(first, paths)`` once per group of at most
    ``_GROUP`` consecutive replicates, first to last: ``paths`` is a lazy
    iterator over the group's paths from replicate ``first`` on, and a path
    is drawn only when the step asks for the next one, through the module's
    ``generate``.  A step that drops each path before it asks for the next
    holds at most one path at a time.  A step that fails raises here, the
    earliest failing group's error first (so the earliest failing
    replicate's, for a step that works through its paths in order); no
    child outlives the call.  What a step does to the process, such as a
    wrapper on ``sim.generate`` counting calls, stays in the process that
    ran it.
    """
    chunks = _chunk_count(n, replicates)
    bounds = [replicates * c // chunks for c in range(chunks + 1)]

    def paths(lo, hi):
        return (generate(model, n, substream(seed, i), top=top) for i in range(lo, hi))

    def run(lo, hi):
        groups = range(lo, hi, _GROUP)
        return [step(first, paths(first, min(first + _GROUP, hi))) for first in groups]

    if chunks == 1:
        return run(0, replicates)
    return _forked(run, bounds)


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def _chunk_count(n: int, replicates: int) -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cores(), replicates, n * replicates // _MIN_CHUNK_VALUES))


def _forked(run, bounds) -> list:
    """``run(bounds[0], bounds[1])`` here and every later chunk in a forked child, concatenated.

    The children's results are read in chunk order, so the first error read
    belongs to the earliest failing group: each chunk stops at its first
    failure, and this process's chunk comes first.  On any failure the
    remaining children are killed; every child is reaped before returning.
    """
    children = []  # (pid, read end of its pipe)
    finished = False
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child(run, lo, hi, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = run(bounds[0], bounds[1])
        for pid, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            if not payload:
                raise RuntimeError(f"replicate worker {pid} exited without sending its results")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results.extend(value)
        finished = True
        return results
    finally:
        import signal  # loaded here, where it is used, to keep ``import exindex`` short

        for pid, read_fd in children:
            os.close(read_fd)
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(run, lo: int, hi: int, write_fd: int) -> None:
    """Send ``(True, run(lo, hi))``, or ``(False, error)``, pickled to ``write_fd``; never returns.

    The forked child leaves through ``os._exit``, so it runs none of the
    parent's exit handlers and flushes none of its buffers; if even sending
    fails, the parent finds the pipe empty.
    """
    status = 1
    try:
        try:
            payload = pickle.dumps((True, run(lo, hi)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # the parent raises it; this process only reports it
            import traceback

            if hasattr(exc, "add_note"):  # Python 3.11+: the parent shows where it failed
                exc.add_note("raised in a replicate worker:\n" + traceback.format_exc())
            try:
                payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
                pickle.loads(payload)  # an error the parent could not rebuild fails here
            except Exception:
                error = RuntimeError(f"replicate worker failed: {exc!r}")
                payload = pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# Model-level marginals (for oracles and true-quantile work)
# ---------------------------------------------------------------------------


class _MovingMaximaMarginal:
    """Stationary marginal of a moving-maximum series: prod_j F_Z(x / psi_j)."""

    name = "moving_maxima_marginal"

    def __init__(self, model: MovingMaxima):
        self.model = model
        self.innovation = model.innovation

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x, dtype=float)
        for coeff in self.model.coeffs:
            if coeff > 0:
                # a subnormal coeff overflows x / coeff to inf, where the cdf is 1
                with np.errstate(over="ignore"):
                    scaled = x / coeff
                out = out * self.innovation.cdf(scaled)
        return out

    def survival(self, x):
        return 1.0 - self.cdf(x)

    def quantile(self, p):
        """Bisects ``cdf(x) <= p`` from [z_min, 2 * z_min]: z_min starts the support.

        For c2 > 0 every operation of the cdf is monotone in x, so the test
        flips at one pair of adjacent floats and a Newton start
        (``_newton_start``) keeps the bits of the wide bracket.  The start
        lands up to 18 floats off the flip point, so its bracket spans
        ``_MM_ULPS`` floats either side, four times the innovation's.  c2 < 0
        keeps the wide bracket, as the innovation law does.
        """
        z_min = self.innovation.z_min
        start = self._newton_start if self.innovation.c2 > 0 else None
        return _bisect_quantile(p, self._below, z_min, 2.0 * z_min, start, _MM_ULPS)

    def _below(self, p):
        """``below`` for :func:`_bisect_quantile`: writes ``cdf(x) <= p``."""
        return lambda x, out: np.less_equal(self.cdf(x), p, out=out)

    def _newton_start(self, p):
        """``start`` for :func:`_bisect_quantile` when c2 > 0: the quantile after 4 Newton steps.

        With w = log x and z_j = x / psi_j, the quantile solves h(w) = 0 for
        h(w) = sum_j log(1 - S(z_j)) - log p.  The innovation survival is
        S = P + Q with P = c1 * z^(-b1) and Q = c2 * P * z^(-b2).  For c2 > 0
        both parts decrease exponentially in w, so h is increasing and
        concave, and Newton steps from below the root stay below it.  They
        start at the larger of two lower bounds: the innovation's own start
        (F <= F_Z, the factor of the coefficient 1), and the x where
        -sum_j c1 * psi_j^b1 * x^(-b1) = log p, since log(1 - S) <= -S <= -P.
        """
        law = self.innovation
        b1, b2 = law.beta1, law.beta2
        coeffs = np.array([c for c in self.model.coeffs if c > 0])
        shift = -np.log(coeffs)  # log z_j - w
        level = np.log(p)
        pareto = (np.log(law.c1 * np.sum(coeffs**b1)) - np.log(-level)) / b1
        w = np.maximum(np.log(law._newton_start(p)), pareto)
        for _ in range(4):
            z = np.exp(w[..., None] + shift)
            pareto_part = law.c1 * z**-b1
            second = law.c2 * pareto_part * z**-b2
            h = np.log1p(-(pareto_part + second)).sum(axis=-1) - level
            slope = (b1 * pareto_part + (b1 + b2) * second) / (1.0 - pareto_part - second)
            w = w - h / slope.sum(axis=-1)
        return np.exp(w)

