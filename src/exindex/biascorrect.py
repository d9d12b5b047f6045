"""Signed-measure bias removal for threshold-sweep estimates.

A finite signed measure mu on (0,1]^2 with atoms (s, t, w) combines estimates
at pairs of levels into

    corrected = [sum w * th(s) * th(t)] / [sum w * (th(s) + th(t))].

If the raw curve follows th(t) = theta + c * t^delta and mu satisfies

    (M1) the pushforward of mu under (s, t) -> s*t is the zero measure,
    (M2) the integral of s^delta + t^delta under mu is nonzero,
    (M3) the integral of 1/(s*t) under |mu| is finite,

then the numerator reduces to theta * c * M and the denominator to c * M with
M the (M2) integral, so the ratio recovers theta exactly: the t^delta bias
cancels regardless of c.  (M1) makes the theta^2 and c^2 cross terms vanish,
which is why the discretized product construction below pairs its atoms so
that products cancel exactly rather than approximately.

Corrected curves come from ``estimate.CurveKernel``, next to the threshold
rule it runs; ``corrected_estimate`` combines a pointwise evaluator's values
through the kernel's sums (``estimate._combine``), so the two agree bit for bit.

``sigma2_mu`` evaluates the asymptotic variance of the corrected estimator:
after symmetrizing mu, it is the double sum of w * w~ * (s * s~)^delta
/ (t * t~) * c(t, t~) over atom pairs, divided by the squared normalizer
sum w * s^delta, where c is the limit covariance kernel of the normalized
estimator process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, MeasureConditionError
from .estimate import CurveKernel, ThresholdCurve, _combine, _sample_curve
from .estimate import BlocksEvaluator  # noqa: F401  (perfbench/layers.py traces this binding)

__all__ = [
    "SignedMeasureAtoms",
    "ConditionReport",
    "DEFAULT_DELTA_PROBE",
    "two_atom_measure",
    "product_measure",
    "check_conditions",
    "scale_measure",
    "corrected_estimate",
    "corrected_curve",
    "sigma2_mu",
    "read_measure_csv",
    "write_measure_csv",
]

DEFAULT_DELTA_PROBE = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class SignedMeasureAtoms:
    """Finite signed measure on (0,1]^2 given by atoms (s, t, weight)."""

    atoms: tuple  # of (s, t, w)
    provenance: str = "custom"  # two_atom | product_construction | custom

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise ValueError("measure must have at least one atom")
        for atom in self.atoms:
            if not hasattr(atom, "__len__") or len(atom) != 3:
                raise ValueError(f"each atom must be (s, t, w), got {atom!r}")
        object.__setattr__(self, "atoms", tuple((float(s), float(t), float(w)) for s, t, w in self.atoms))
        for s, t, w in self.atoms:
            if not (0.0 < s <= 1.0 and 0.0 < t <= 1.0):
                raise ValueError(f"atom coordinates must lie in (0, 1], got ({s}, {t})")
            if not math.isfinite(w):
                raise ValueError(f"atom weights must be finite, got atom ({s}, {t}, {w})")
        if self.total_variation == 0.0:
            raise ValueError("measure must have a nonzero weight")
        # Total weight 0 is implied by the cancellation condition and is
        # diagnosed by check_conditions, not enforced here, so that invalid
        # measures can still be loaded and reported on.

    @property
    def total_variation(self) -> float:
        return sum(abs(w) for _, _, w in self.atoms)

    @property
    def max_coordinate(self) -> float:
        return max(max(s, t) for s, t, _ in self.atoms)

    def arrays(self):
        a = np.asarray(self.atoms, dtype=float)
        return a[:, 0], a[:, 1], a[:, 2]

    def symmetrized(self) -> "SignedMeasureAtoms":
        """Union of the atoms with their coordinate swaps: mu~(AxB) = mu(AxB) + mu(BxA)."""
        swapped = tuple((t, s, w) for s, t, w in self.atoms)
        return SignedMeasureAtoms(self.atoms + swapped, provenance=self.provenance)


def two_atom_measure(p: float, q: float, a: float) -> SignedMeasureAtoms:
    """Measure with atoms (p/a, q, +1) and (p, q/a, -1).

    Both atoms share the product p*q/a, so the product pushforward vanishes;
    the level integral is (p^d - q^d)(a^-d - 1), nonzero whenever p != q.
    """
    if not (0.0 < p <= 1.0 and 0.0 < q <= 1.0):
        raise ValueError(f"p and q must lie in (0, 1], got p={p}, q={q}")
    if not a > 1.0:
        raise ValueError(f"a must exceed 1, got {a}")
    if p == q:
        raise MeasureConditionError(
            f"p and q must differ (p={p}): equal levels make every level integral vanish",
            code="M2_VIOLATION",
        )
    return SignedMeasureAtoms(
        ((p / a, q, 1.0), (p, q / a, -1.0)), provenance="two_atom"
    )


def product_measure(kappa: float, a: float, b: float, m: int) -> SignedMeasureAtoms:
    """Discretized product-form measure QF^Ta x QG - QF x QG^Ta with QG = QF^Tb.

    QF has density proportional to t^kappa on (0,1], midpoint-discretized into
    m equal-width atoms; Tc is the map t -> t/c.  Atom (i, j) of the positive
    part sits at (t_i/a, t_j/b) and pairs with (t_i, t_j/(a b)) of the negative
    part at the same product t_i t_j/(a b), so cancellation is exact by
    construction.  kappa > 0 keeps 1/(s t) integrable near the origin.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not (a > 1.0 and b > 1.0):
        raise ValueError(f"a and b must exceed 1, got a={a}, b={b}")
    if m < 1:
        raise ValueError(f"discretization size must be at least 1, got {m}")
    mid = (np.arange(m) + 0.5) / m
    mass = mid**kappa
    if not mass.sum() > 0:  # 0/0 below: every weight would be NaN
        raise ValueError(f"kappa={kappa} underflows every midpoint mass t^kappa to 0 (m={m})")
    mass /= mass.sum()
    atoms = []
    for i in range(m):
        for j in range(m):
            w = mass[i] * mass[j]
            atoms.append((mid[i] / a, mid[j] / b, w))
            atoms.append((mid[i], mid[j] / b / a, -w))
    return SignedMeasureAtoms(tuple(atoms), provenance="product_construction")


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three structural checks on a signed measure."""

    m1_ok: bool
    m1_max_group_residual: float  # worst |group weight sum| / total variation
    m2_ok: bool
    m2_integrals: dict  # delta -> integral of s^delta + t^delta
    m2_failures: tuple
    m3_value: float  # integral of 1/(s t) under |mu|
    total_weight: float

    @property
    def ok(self) -> bool:
        return self.m1_ok and self.m2_ok

    def violations(self) -> tuple:
        out = []
        if not self.m1_ok:
            out.append("M1_VIOLATION")
        if not self.m2_ok:
            out.append("M2_VIOLATION")
        return tuple(out)


def check_conditions(
    mu: SignedMeasureAtoms, delta_probe=None
) -> ConditionReport:
    """Verify the cancellation, level-integral, and integrability conditions.

    (M1): atoms grouped by product s*t within relative tolerance 1e-9 must
    have weights summing to 0 in every group.  (M2): the integral of
    s^delta + t^delta must exceed 1e-10 in magnitude for every probed delta
    (unverifiable for all delta > 0, so a finite probe set is used; callers
    should include the delta actually in use).  (M3): the integral of 1/(s t)
    under |mu| is finite for atomic measures and is reported.  An empty probe
    set, or a probe that is not positive and finite, raises ``ValueError``.
    """
    probes = DEFAULT_DELTA_PROBE if delta_probe is None else tuple(delta_probe)
    if not probes:
        raise ValueError("delta probes must name at least one delta")
    for d in probes:
        if not 0 < d < math.inf:
            raise ValueError(f"delta probes must be positive and finite, got {d}")
    s, t, w = mu.arrays()
    tv = mu.total_variation

    prod = s * t
    order = np.argsort(prod)
    worst = 0.0
    i = 0
    n = len(prod)
    while i < n:
        ref = prod[order[i]]
        j = i + 1
        while j < n and prod[order[j]] <= ref * (1.0 + 1e-9):
            j += 1
        group_sum = float(w[order[i:j]].sum())
        worst = max(worst, abs(group_sum))
        i = j
    m1_ok = worst <= 1e-9 * tv

    integrals = {}
    failures = []
    for d in probes:
        val = float((w * (s**d + t**d)).sum())
        integrals[float(d)] = val
        if abs(val) <= 1e-10:
            failures.append(float(d))

    return ConditionReport(
        m1_ok=m1_ok,
        m1_max_group_residual=worst / tv,
        m2_ok=not failures,
        m2_integrals=integrals,
        m2_failures=tuple(failures),
        m3_value=float((np.abs(w) / (s * t)).sum()),
        total_weight=float(w.sum()),
    )


def scale_measure(mu: SignedMeasureAtoms, t0: float) -> SignedMeasureAtoms:
    """Pushforward under (s, t) -> (t0 s, t0 t), shrinking the measure toward 0.

    Products scale by t0^2 so cancellation groups are preserved; level
    integrals scale by t0^delta != 0.
    """
    if not 0.0 < t0 <= 1.0:
        raise ValueError(f"t0 must lie in (0, 1], got {t0}")
    return SignedMeasureAtoms(
        tuple((t0 * s, t0 * t, w) for s, t, w in mu.atoms), provenance=mu.provenance
    )


def corrected_estimate(evaluator, mu: SignedMeasureAtoms) -> float:
    """Combine curve evaluations under mu into a bias-reduced point estimate.

    ``evaluator`` maps a level t in (0,1] to an estimate.  A near-zero
    denominator (below 1e-8 times the total variation, as in
    ``corrected_curve``) signals a constant or already bias-free curve, for
    which the combination is 0/0; DegenerateDenominator is raised carrying the
    plug-in evaluation at the largest atom coordinate as a usable fallback.
    A NaN or infinite evaluation raises ``ValueError`` naming its level.
    """
    eps_den = 1e-8 * mu.total_variation
    cache = {}

    def ev(t):
        if t not in cache:
            value = float(evaluator(t))
            if not math.isfinite(value):
                raise ValueError(f"evaluator gave {value} at level t={t}, not a finite estimate")
            cache[t] = value
        return cache[t]

    hs, ht = zip(*[(ev(s), ev(t)) for s, t, _ in mu.atoms])  # order s1, t1, s2, t2, ...
    num, den, degenerate = _combine([w for _, _, w in mu.atoms], hs, ht, eps_den)
    if degenerate:
        raise DegenerateDenominator(
            f"correction denominator {den:.3e} below {eps_den:.3e}; "
            "curve is constant or bias-free at the atom levels",
            fallback=ev(mu.max_coordinate),
        )
    return num / den


def corrected_curve(x, cfg, mu: SignedMeasureAtoms, t_grid) -> ThresholdCurve:
    """Corrected estimate per threshold level, via the measure scaled to each level.

    ``t_grid`` must pass ``check_grid``.  At grid level t the
    measure is shrunk to atoms (t s, t s', w), as scale_measure(mu, t) does,
    so all atom levels sit at or below t.  It is the corrected curve of
    ``estimate.CurveKernel`` on one sample: a level takes the code of its
    first undefined atom level, in the order s1, t1, s2, t2, ..., else
    ``DEGENERATE_DENOMINATOR`` when the denominator falls below 1e-8 times
    the total variation; such levels are NaN, not interpolated.
    """
    if mu is None:  # the kernel would return the raw row alone
        raise ValueError("corrected_curve needs a measure, got None")
    return _sample_curve(x, cfg, CurveKernel(cfg.k, t_grid, mu, (cfg.r,)), "corrected")


def sigma2_mu(mu: SignedMeasureAtoms, delta: float, kernel) -> float:
    """Asymptotic variance of the corrected estimator under covariance kernel c.

    Symmetrizes mu, then returns the quadratic form a C a over the atoms,
    a = w s^delta / t and C the matrix c(t, t~) at every pair of their second
    coordinates, divided by [sum of w s^delta]^2.  The kernel must expose
    ``matrices(s, t)``, whose first matrix holds c(s_i, t_j) at entry (i, j).
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    sym = mu.symmetrized()
    s, t, w = sym.arrays()
    norm = float((w * s**delta).sum())
    if abs(norm) <= 1e-10:
        raise MeasureConditionError(
            f"normalizer sum w*s^delta = {norm:.3e} vanishes at delta={delta}",
            code="M2_VIOLATION",
        )
    a = w * s**delta / t
    return float(a @ kernel.matrices(t, t)[0] @ a) / norm**2


def write_measure_csv(mu: SignedMeasureAtoms, path) -> None:
    """Write atoms as CSV with header s,t,w."""
    import csv  # loaded here, so the kernel path does not import it

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "t", "w"])
        for s, t, w in mu.atoms:
            writer.writerow([repr(s), repr(t), repr(w)])


def read_measure_csv(path) -> SignedMeasureAtoms:
    """Read atoms from CSV with header s,t,w."""
    import csv

    atoms = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["s", "t", "w"]:
            raise ValueError(f"expected header s,t,w in {path}, got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"{path} line {reader.line_num}: expected s,t,w, got {row}")
            atoms.append((float(row[0]), float(row[1]), float(row[2])))
    return SignedMeasureAtoms(tuple(atoms), provenance="custom")
