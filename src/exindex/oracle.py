"""Closed-form and numerically exact finite-sample targets for the estimators.

For the random-repetition model with repeat probability psi (extremal index
theta = 1 - psi) and a continuous innovation law, the finite-sample mean curve
of the blocks estimator at exceedance fraction v and level t is

    theta_nt_wn(psi, r, v, t) = (1 - (1 - v t) (1 - theta v t)^(r-1)) / (r v t)
                              = theta - (theta^2 / 2) r v t + (1 - theta) / r
                                + O(v + r^2 v^2),

so the curve is linear in t to leading order (delta = 1) with slope
c_n = -theta^2 r v / 2 and level theta_n = theta + (1 - theta) / r.

For the moving-maxima model the non-exceedance probability of a block maximum
is an exact finite product over innovation positions, each scaled by the
largest coefficient through which that innovation can influence the block;
inverting the marginal numerically makes theta_nt exact up to quantile
tolerance.  Its leading bias is a multiple of t^(beta2/beta1) in the
small-threshold regime (r v^(b2/b1) large, r v^(1-b2/b1) small), and linear in
t in the general regime (r v^max(1/2, 1-b2/b1) large); both expansions are
reported with diagnostics because the regimes are asymptotic statements.

Independent data are the psi = 0 case: ``theta_nt_wn(0, r, v, t)`` is their
exact curve (1 - (1 - v t)^r) / (r v t), and their degenerate tail sequence
makes the limit covariance of the normalized blocks estimator vanish
identically (``clusterproc.ClosedFormIID``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimate import _real, _reject_non_reals, _whole

__all__ = [
    "BiasExpansion",
    "MMExpansionReport",
    "theta_nt_wn",
    "bias_expansion_wn",
    "mm_block_nonexceed",
    "theta_nt_mm_exact",
    "bias_expansion_mm",
]


@dataclass(frozen=True)
class BiasExpansion:
    """Curve model theta_n + c_n * t^delta (+ remainder) for a mean estimate curve."""

    theta: float
    theta_n: float
    c_n: float
    delta: float
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "theta", _real(self.theta, "theta", 0, 1, "(]"))
        object.__setattr__(self, "delta", _real(self.delta, "delta", 0))

    def curve(self, t):
        return self.theta_n + self.c_n * np.asarray(t, dtype=float) ** self.delta


def _check_wn_args(psi: float, r: int, v: float, t: float) -> tuple:
    """``(psi, r, v, t)`` as floats and an int, once each passes its rule and v*t lies below 1."""
    psi, r = _real(psi, "psi", 0, 1, "[)"), _whole(r, "r")
    v, t = _real(v, "v", 0, 1), _real(t, "t", 0)
    if not v * t < 1.0:
        raise ValueError(f"v*t must lie in (0, 1), got {v * t}")
    return psi, r, v, t


def theta_nt_wn(psi: float, r: int, v: float, t: float) -> float:
    """Exact mean curve of the blocks estimator under random repetition."""
    psi, r, v, t = _check_wn_args(psi, r, v, t)
    theta = 1.0 - psi
    vt = v * t
    return (1.0 - (1.0 - vt) * (1.0 - theta * vt) ** (r - 1)) / (r * vt)


def bias_expansion_wn(psi: float, r: int, v: float) -> BiasExpansion:
    """Leading curve model under random repetition: linear in t (delta = 1)."""
    psi, r, v, _ = _check_wn_args(psi, r, v, 1.0)
    theta = 1.0 - psi
    return BiasExpansion(
        theta=theta,
        theta_n=theta + (1.0 - theta) / r,
        c_n=-0.5 * theta * theta * r * v,
        delta=1.0,
        note=f"remainder O(v + r^2 v^2) = O({v + r * r * v * v:.3g}); "
        "slope dominates the remainder when r^2 v is large",
    )


# ---------------------------------------------------------------------------
# Moving maxima
# ---------------------------------------------------------------------------


def _block_coefficients(spec, r: int) -> list:
    """psi*_m of every innovation Z_m that can reach an r-block, in the order of m.

    psi*_m is the largest coefficient through which Z_m enters the block;
    innovations with no applicable coefficient, or only zero ones, are left
    out, since they contribute factor 1.
    """
    r = _whole(r, "r")
    q = spec.q
    out = []
    for m in range(1 - q, r + 1):
        lo = max(0, 1 - m)
        hi = min(q, r - m)
        if lo <= hi:
            best = max(spec.coeffs[lo : hi + 1])
            if best > 0.0:
                out.append(best)
    return out


def mm_block_nonexceed(spec, r: int, u: float) -> float:
    """Exact P{max of an r-block <= u} for the moving-maxima model.

    The block maximum is below u iff every innovation Z_m feeding the block
    satisfies psi_j * Z_m <= u for each coefficient j through which it enters,
    i.e. Z_m <= u / psi*_m with psi*_m the largest applicable coefficient.
    Innovations with no applicable coefficient (or only zero ones) contribute
    factor 1.  The factors F_Z(u / psi*_m) are multiplied in the order of m.
    """
    u = _real(u, "u", -np.inf, np.inf, "[]")
    fz = spec.innovation.cdf
    prob = 1.0
    for best in _block_coefficients(spec, r):
        prob *= float(fz(u / best))
    return prob


def theta_nt_mm_exact(spec, r: int, v: float, t):
    """Exact mean curve of the blocks estimator for the moving-maxima model.

    Inverts the stationary marginal at 1 - v t numerically, then evaluates the
    exact block-maximum probability product.  ``t`` may be an array of levels
    and ``r`` a sequence of block lengths: the marginal is then inverted at
    all levels in one call, the innovation cdf is evaluated once per level
    and distinct psi*_m for all block lengths, the result has one row per
    block length, and each value equals the one for its level and block
    length alone, bit for bit.

    Each distinct psi*_m gives one column of factors over the levels, and a
    block length multiplies its columns into a ones array in the order of m:
    the IEEE products of ``mm_block_nonexceed``, element by element.
    """
    _reject_non_reals(t, "t")
    vt = _real(v, "v", 0, 1) * np.asarray(t, dtype=float)
    if not np.all((0.0 < vt) & (vt < 1.0)):
        raise ValueError(f"v*t must lie in (0, 1), got {vt}")
    lengths = np.ravel(r).tolist()
    blocks = [_block_coefficients(spec, length) for length in lengths]
    u = np.ravel(spec.marginal.quantile(1.0 - vt)).tolist()
    # cdf calls on Python floats, which take its float path: the array cdf can
    # differ from the scalar one in the last bit
    fz = spec.innovation.cdf
    distinct = dict.fromkeys(best for block in blocks for best in block)
    factors = {best: np.array([fz(ui / best) for ui in u]) for best in distinct}
    rows = []
    for length, coefficients in zip(lengths, blocks):
        nonexceed = np.ones(len(u))
        for best in coefficients:
            np.multiply(nonexceed, factors[best], out=nonexceed)
        rows.append((1.0 - nonexceed.reshape(vt.shape)) / (length * vt))
    out = np.array(rows).reshape(np.shape(r) + vt.shape)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MMExpansionReport:
    """Both leading-bias expansions for moving maxima, plus regime diagnostics.

    ``power`` has exponent delta = beta2/beta1 and applies when the window is
    long relative to the threshold (r v^(b2/b1) large, r v^(1-b2/b1) small);
    ``linear`` has delta = 1 and applies in the general regime.  ``selected``
    names the branch whose finite-sample inequalities look satisfied; both are
    always reported because the regimes are asymptotic and can be ambiguous.
    """

    theta: float
    power: BiasExpansion
    linear: BiasExpansion
    selected: str  # "power" | "linear"
    diagnostics: dict

    @property
    def expansion(self) -> BiasExpansion:
        return self.power if self.selected == "power" else self.linear


def bias_expansion_mm(spec, r: int, v: float) -> MMExpansionReport:
    """Leading curve models for the moving-maxima blocks estimator."""
    r, v = _whole(r, "r"), _real(v, "v", 0, 1)
    s1 = sum(c ** spec.beta1 for c in spec.coeffs)
    s2 = sum(c ** (spec.beta1 + spec.beta2) for c in spec.coeffs)
    theta = 1.0 / s1
    ratio = spec.beta2 / spec.beta1
    d = (
        spec.c2
        / spec.c1 ** ratio
        * s1 ** -(1.0 + ratio)
        * (1.0 - s2 / s1)
    )
    power = BiasExpansion(
        theta=theta,
        theta_n=theta,
        c_n=d * v ** ratio,
        delta=ratio,
        note=f"d={d:.6g}; requires beta2 < beta1 (here ratio={ratio:.3g})",
    )
    linear = BiasExpansion(
        theta=theta,
        theta_n=theta,
        c_n=-0.5 * theta * theta * r * v,
        delta=1.0,
        note="general regime",
    )
    grow = r * v ** ratio
    shrink = r * v ** (1.0 - ratio)
    general = r * v ** max(0.5, 1.0 - ratio)
    power_ok = spec.beta2 < spec.beta1 and grow > 1.0 and shrink < 1.0
    return MMExpansionReport(
        theta=theta,
        power=power,
        linear=linear,
        selected="power" if power_ok else "linear",
        diagnostics={
            "d": d,
            "r*v^(b2/b1)": grow,
            "r*v^(1-b2/b1)": shrink,
            "r*v^max(1/2,1-b2/b1)": general,
            "beta2<beta1": spec.beta2 < spec.beta1,
        },
    )
