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
stationary law) and ``theta`` (its extremal index) properties.  The
constructor fields, as :func:`config_fields` lists them, are the only list of
a class's parameters: ``to_dict``, the config parser and the CLI model flags
all read them.

All generators are deterministic functions of (model, n, seed, burn_in).
Replicate streams come from a counter-based generator keyed by
(seed, replicate), so parallel Monte Carlo runs are reproducible independent of
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

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
class StandardCauchy(_ConfigForm):
    """Standard Cauchy distribution (location 0, scale 1)."""

    name = "cauchy"

    def cdf(self, x):
        return 0.5 + np.arctan(x) / np.pi

    def survival(self, x):
        return 0.5 - np.arctan(x) / np.pi

    def quantile(self, p):
        return np.tan(np.pi * (np.asarray(p, dtype=float) - 0.5))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.standard_cauchy(size)


@dataclass(frozen=True)
class UnitPareto(_ConfigForm):
    """Pareto distribution on [1, inf) with survival z^(-alpha)."""

    alpha: float = 1.0
    name = "pareto"

    def __post_init__(self):
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

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
    (``_newton_start``), which ends the bisection after ~15 steps instead of
    ~60 with the same bits: every operation of the test is then monotone in
    z, so the test flips at one pair of adjacent floats, which any confirmed
    bracket finds.  For c2 < 0 the float survival is not monotone just above
    ``z_min``, so a narrow bracket could end on another flip; those laws keep
    the wide bracket [z_min, max(2 * z_min, 2)].
    """

    beta1: float
    beta2: float
    c1: float
    c2: float
    z_min: float = field(init=False, repr=False)
    name = "second_order_pareto"

    def __post_init__(self):
        params = (self.beta1, self.beta2, self.c1, self.c2)
        if not np.all(np.isfinite(params)):
            raise ValueError(f"beta1, beta2, c1 and c2 must be finite, got {params}")
        if not (self.beta1 > 0 and self.beta2 > 0):
            raise ValueError("beta1 and beta2 must be positive")
        if not self.c1 > 0:
            raise ValueError("c1 must be positive")
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
        """``start`` for :func:`_bisect_quantile`: the quantile after 4 Newton steps.

        With w = beta1 * log z, survival(z) = 1 - p reads f(w) = 0 for
        f(w) = a - w + log1p(c2 * exp(-r * w)), a = log(c1) - log1p(-p) and
        r = beta2 / beta1.  The steps start at w = a, the quantile of the
        Pareto part c1 * z^(-beta1).  For c2 > 0, f is convex and decreasing
        with f(a) > 0, so they approach the root from below.  The result and
        three scratch arrays are made once per call; the steps allocate
        nothing.
        """
        r = self.beta2 / self.beta1
        a = np.negative(p)
        np.log1p(a, out=a)
        np.subtract(np.log(self.c1), a, out=a)
        e = np.empty_like(p)
        f = np.empty_like(p)
        z = a.copy()
        for _ in range(4):
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
        u = rng.random(size)
        u = np.where(u == 0.0, 0.5 ** 53, u)  # keep p strictly inside (0, 1)
        return self.quantile(u)


def _bisect_quantile(p, below_for, lo: float, hi: float, start=None):
    """Invert a distribution at ``p`` (scalar or array) by bracketed bisection.

    ``below_for(p)`` returns ``below(z, out)``, which writes into the boolean
    array ``out`` where z lies below the p-quantile and returns it; it must
    hold at ``lo`` and turn False once, as z grows.  The upper bracket starts
    at ``hi`` and doubles until ``below`` fails there.  Bisection stops after
    100 steps or as soon as every midpoint equals its ``lo`` or ``hi``: from
    then on each later midpoint is that same value, so stopping early returns
    exactly what all 100 steps would.

    ``start(p)``, if given, returns a guess z of each quantile.  Each
    element's bracket then narrows to [max(z * (1 - 1e-12), lo),
    z * (1 + 1e-12)], but an end is kept only where ``below`` confirms it
    (True at the lower end, False at the upper one); elsewhere that element
    keeps ``lo`` or ``hi``.  Where ``below`` flips at a single pair of
    adjacent floats, every confirmed bracket ends on that pair, so the result
    has the bits of the wide bracket whenever the wide bisection reaches its
    fixed point; a guess within 1e-12 only shortens the bisection to ~15
    steps.  An end that is not finite is never confirmed.

    A step allocates nothing: the midpoint, the stop test and the test result
    live in buffers made once per call.  The guess becomes the midpoint
    buffer, and the start frees its scratch before the brackets are made, so
    it does not raise the call's peak memory.  The brackets are updated
    through their int64 views with a branch-free select, ``lo ^= (lo ^ mid) & mask``
    and ``hi = mid ^ ((hi ^ mid) & mask)`` with ``mask`` all ones where
    ``below`` holds.  That copies whole bit patterns, so every bracket and the
    result have the same bits as selecting with ``np.where``.
    """
    scalar = np.ndim(p) == 0
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not np.all((p > 0.0) & (p < 1.0)):  # also rejects NaN
        raise ValueError("p must lie strictly between 0 and 1")
    below = below_for(p)
    left = np.empty(p.shape, dtype=bool)
    same = np.empty(p.shape, dtype=bool)
    if start is None:
        mid = np.empty_like(p)
        lo = np.full_like(p, lo)
        hi = np.full_like(p, hi)
    else:
        lo_end, hi_end = lo, hi
        with np.errstate(all="ignore"):  # a guess that overflows is just not confirmed
            mid = start(p)
            lo = np.multiply(mid, 1.0 - 1e-12)
            np.maximum(lo, lo_end, out=lo)
            np.logical_not(below(lo, left), out=left)
            np.copyto(lo, lo_end, where=left)
            hi = np.multiply(mid, 1.0 + 1e-12)
            np.logical_not(np.isfinite(hi, out=same), out=same)
            np.logical_or(below(hi, left), same, out=left)
            np.copyto(hi, hi_end, where=left)
    mask = np.empty(p.shape, dtype=np.int64)
    bits = np.empty(p.shape, dtype=np.int64)
    lo_bits, hi_bits, mid_bits = lo.view(np.int64), hi.view(np.int64), mid.view(np.int64)
    while np.any(below(hi, left)):
        hi[left] *= 2.0
    for _ in range(100):
        np.add(lo, hi, out=mid)
        np.multiply(0.5, mid, out=mid)
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
    out = 0.5 * (lo + hi)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Model specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IID(_ConfigForm):
    """Independent draws from ``innovation``."""

    innovation: object
    name = "iid"

    @property
    def marginal(self):
        return self.innovation

    @property
    def theta(self) -> float:
        return 1.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.innovation.sample(rng, size)


@dataclass(frozen=True)
class AR1Cauchy(_ConfigForm):
    """AR(1) recursion with standard Cauchy innovations; extremal index 1 - phi."""

    phi: float
    name = "ar1_cauchy"

    def __post_init__(self):
        if not 0.0 < self.phi < 1.0:
            raise ValueError(f"phi must lie in (0, 1), got {self.phi}")

    @property
    def marginal(self):
        return _CauchyScale(scale=1.0 / (1.0 - self.phi))

    @property
    def theta(self) -> float:
        return 1.0 - self.phi

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        from scipy.signal import lfilter  # loaded here, so other models never import scipy

        eps = rng.standard_cauchy(size)
        x0 = rng.standard_cauchy() / (1.0 - self.phi)
        values, _ = lfilter([1.0], [1.0, -self.phi], eps, zi=[self.phi * x0])
        return values


@dataclass(frozen=True)
class RandomRepetition(_ConfigForm):
    """Each innovation is repeated a geometric number of times; extremal index 1 - psi."""

    psi: float
    innovation: object
    name = "wn"

    def __post_init__(self):
        if not 0.0 <= self.psi < 1.0:
            raise ValueError(f"psi must lie in [0, 1), got {self.psi}")

    @property
    def marginal(self):
        return self.innovation

    @property
    def theta(self) -> float:
        return 1.0 - self.psi

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        z = self.innovation.sample(rng, size + 1)  # Z_0 .. Z_size
        renew = rng.random(size) >= self.psi  # xi_t = 1 events, t = 1..size
        pos = np.where(renew, np.arange(1, size + 1), 0)
        last = np.maximum.accumulate(pos)  # index of the innovation in force
        return z[last]


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
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) == 0:
            raise ValueError("coeffs must be nonempty")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError(f"coeffs must be finite, got {coeffs}")
        if any(c < 0 for c in coeffs):
            raise ValueError("coeffs must be nonnegative")
        if abs(max(coeffs) - 1.0) > 1e-12:
            raise ValueError("coeffs must be normalized so max_j psi_j = 1")
        # validates the tail parameters
        object.__setattr__(
            self, "innovation", SecondOrderPareto(self.beta1, self.beta2, self.c1, self.c2)
        )

    @property
    def q(self) -> int:
        return len(self.coeffs) - 1

    @property
    def marginal(self):
        return _MovingMaximaMarginal(self)

    @property
    def theta(self) -> float:
        return 1.0 / sum(c ** self.beta1 for c in self.coeffs)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        q = self.q
        z = self.innovation.sample(rng, size + q)  # Z_{1-q} .. Z_size
        values = np.full(size, -np.inf)
        for j, coeff in enumerate(self.coeffs):
            if coeff > 0:
                np.maximum(values, coeff * z[q - j : q - j + size], out=values)
        return values


@dataclass(frozen=True, eq=False)
class SeriesSample:
    """One simulated stationary path plus its generation provenance."""

    values: np.ndarray
    model: object
    seed: object
    burn_in: int = 0

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


def generate(model, n: int, seed, burn_in: int = 0) -> SeriesSample:
    """Simulate a stationary path of length ``n`` from ``model``.

    ``seed`` may be an integer or a numpy ``SeedSequence`` (e.g. from
    :func:`substream`).  Identical (model, n, seed, burn_in) inputs yield
    bit-identical output.  ``burn_in`` leading values are generated and
    discarded; it may be 0 for every model here because each one starts from
    an exactly stationary state.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")
    sample = getattr(model, "sample", None)
    if sample is None:
        raise ValueError(f"unknown model spec: {model!r}")
    values = sample(_rng(seed), n + burn_in)
    return SeriesSample(values=np.asarray(values[burn_in:], dtype=float), model=model,
                        seed=seed, burn_in=burn_in)


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
        # support starts at z_min because max_j psi_j = 1
        z_min = self.innovation.z_min
        return _bisect_quantile(
            p, lambda q: lambda z, out: np.less_equal(self.cdf(z), q, out=out), z_min, 2.0 * z_min
        )


@dataclass(frozen=True)
class _CauchyScale:
    """Cauchy distribution with location 0 and the given scale."""

    scale: float
    name = "cauchy_scaled"

    def cdf(self, x):
        return 0.5 + np.arctan(np.asarray(x, dtype=float) / self.scale) / np.pi

    def survival(self, x):
        return 0.5 - np.arctan(np.asarray(x, dtype=float) / self.scale) / np.pi

    def quantile(self, p):
        return self.scale * np.tan(np.pi * (np.asarray(p, dtype=float) - 0.5))
