"""Signed measures, structural condition checks, and bias-removing combination."""

import functools
import re

import numpy as np
import pytest

import exindex as ex
from exindex.estimate import CurveKernel


def level_integral(mu, delta):
    s, t, w = mu.arrays()
    return float((w * (s**delta + t**delta)).sum())


def product_integral(mu, delta):
    s, t, w = mu.arrays()
    return float((w * (s * t) ** delta).sum())


def test_two_atom_construction():
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)
    assert mu.provenance == "two_atom"
    assert mu.atoms == ((0.25, 1.0, 1.0), (0.5, 0.5, -1.0))
    for delta in (0.5, 1.0, 2.0):
        assert product_integral(mu, delta) == pytest.approx(0.0, abs=1e-15)
    assert level_integral(mu, 1.0) == pytest.approx(0.25, abs=1e-12)


def test_two_atom_validation():
    with pytest.raises(ex.MeasureConditionError) as err:
        ex.two_atom_measure(0.5, 0.5, 2.0)
    assert err.value.code == "M2_VIOLATION"
    with pytest.raises(ValueError):
        ex.two_atom_measure(0.5, 1.0, 1.0)  # a must exceed 1
    with pytest.raises(ValueError):
        ex.two_atom_measure(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        ex.two_atom_measure(0.5, 1.5, 2.0)


def test_product_measure_single_cell_reduces_to_two_atom():
    a, b = 2.0, 3.0
    mu = ex.product_measure(1.0, a, b, 1)
    ref = ex.two_atom_measure(0.5, 0.5 / b, a)
    assert np.allclose(np.asarray(mu.atoms), np.asarray(ref.atoms))


def test_product_measure_cancellation_and_weight():
    mu = ex.product_measure(1.0, 2.0, 2.0, 200)
    assert mu.provenance == "product_construction"
    assert abs(product_integral(mu, 0.7)) <= 1e-12
    s, t, w = mu.arrays()
    assert abs(w.sum()) <= 1e-12
    report = ex.check_conditions(mu, delta_probe=(0.5, 1.0))
    assert report.ok


def test_product_measure_validation():
    with pytest.raises(ValueError):
        ex.product_measure(0.0, 2.0, 2.0, 10)
    with pytest.raises(ValueError):
        ex.product_measure(1.0, 1.0, 2.0, 10)
    with pytest.raises(ValueError):
        ex.product_measure(1.0, 2.0, 2.0, 0)


def test_measure_atom_validation():
    with pytest.raises(ValueError):
        ex.SignedMeasureAtoms(())
    with pytest.raises(ValueError):
        ex.SignedMeasureAtoms(((0.5, 1.5, 1.0),))
    with pytest.raises(ValueError):
        ex.SignedMeasureAtoms(((0.5, 0.5, 0.0),))  # zero total variation
    # a nonzero total weight is constructible: diagnosed later, not rejected here
    mu = ex.SignedMeasureAtoms(((0.5, 0.5, 1.0),))
    assert mu.total_variation == 1.0
    assert mu.max_coordinate == 0.5


@pytest.mark.parametrize("atom", [(0.5, 0.5), (0.5, 0.5, 1.0, 0.0), [0.5], 0.5])
def test_measure_names_an_atom_that_is_not_three_numbers(atom):
    with pytest.raises(ValueError, match=rf"^each atom must be \(s, t, w\), got {re.escape(repr(atom))}$"):
        ex.SignedMeasureAtoms(((0.25, 1.0, 1.0), atom))


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_measure_rejects_a_non_finite_weight_naming_its_atom(weight):
    message = rf"weights must be finite, got atom \(0.5, 0.25, {weight}\)"
    with pytest.raises(ValueError, match=message):
        ex.SignedMeasureAtoms(((0.25, 0.5, 1.0), (0.5, 0.25, weight)))


@pytest.mark.parametrize("kappa", [np.inf, 1e4])
def test_product_measure_rejects_a_kappa_that_leaves_no_mass(kappa):
    # t^kappa underflows to 0 at every midpoint, so the normalized masses would be 0/0
    with pytest.raises(ValueError, match=f"kappa={kappa} underflows every midpoint mass"):
        ex.product_measure(kappa, 2.0, 1.5, 2)


def test_check_conditions_two_atom_passes():
    report = ex.check_conditions(ex.two_atom_measure(0.5, 1.0, 2.0))
    assert report.ok
    assert report.violations() == ()
    assert report.m1_max_group_residual <= 1e-12
    assert report.m2_integrals[1.0] == pytest.approx(0.25, abs=1e-12)
    # integral of 1/(s t) under |mu|: 1/0.25 + 1/0.25
    assert report.m3_value == pytest.approx(8.0, abs=1e-12)
    assert report.total_weight == pytest.approx(0.0, abs=1e-15)


def test_check_conditions_single_atom_fails_m1():
    report = ex.check_conditions(ex.SignedMeasureAtoms(((0.5, 0.5, 1.0),)))
    assert not report.m1_ok
    assert "M1_VIOLATION" in report.violations()


def test_check_conditions_rejects_an_empty_probe_set():
    # the level integral is 0 at every delta: no probe set that checks anything passes M2
    mu = ex.SignedMeasureAtoms(((0.5, 0.5, 1.0), (0.5, 0.5, -1.0)))
    assert not ex.check_conditions(mu).m2_ok
    with pytest.raises(ValueError, match="^delta probes must name at least one delta$"):
        ex.check_conditions(mu, delta_probe=[])


def test_check_conditions_four_atom_product_cancellation():
    mu = ex.SignedMeasureAtoms(
        ((0.25, 1.0, 1.0), (0.5, 0.5, -1.0), (0.1, 0.1, 1.0), (0.01, 1.0, -1.0))
    )
    report = ex.check_conditions(mu)
    assert report.m1_ok  # products pair off as {0.25, 0.25} and {0.01, 0.01}


def test_scale_measure_atoms():
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)
    assert ex.scale_measure(mu, 1.0).atoms == mu.atoms
    scaled = ex.scale_measure(mu, 0.5)
    assert scaled.atoms == ((0.125, 0.5, 1.0), (0.25, 0.25, -1.0))
    with pytest.raises(ValueError):
        ex.scale_measure(mu, 0.0)
    with pytest.raises(ValueError):
        ex.scale_measure(mu, 1.5)


def test_scale_measure_preserves_conditions():
    rng = np.random.default_rng(6)
    for mu in (ex.two_atom_measure(0.5, 1.0, 2.0), ex.product_measure(1.0, 2.0, 3.0, 4)):
        for _ in range(10):
            t0 = rng.uniform(0.05, 1.0)
            assert ex.check_conditions(ex.scale_measure(mu, t0)).ok


def test_corrected_estimate_hand_example():
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)
    val = ex.corrected_estimate(lambda t: 0.4 + 0.3 * t, mu)
    assert val == pytest.approx(0.4, abs=1e-12)


def test_corrected_estimate_constant_curve_degenerates():
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)
    with pytest.raises(ex.DegenerateDenominator) as err:
        ex.corrected_estimate(lambda t: 0.4, mu)
    assert err.value.fallback == pytest.approx(0.4)
    assert err.value.code == "DEGENERATE_DENOMINATOR"


def test_corrected_estimate_near_constant_curve_degenerates():
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)
    evaluator = lambda t: 0.4 + 1e-12 * t
    with pytest.raises(ex.DegenerateDenominator):
        ex.corrected_estimate(evaluator, mu)  # threshold 1e-8 * total variation = 2e-8


def test_corrected_estimate_rejects_a_non_finite_evaluation():
    # a NaN or an infinity at any atom level made the estimate a silent nan
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)  # levels 0.25, 1, 0.5, 0.5, in atom order
    with pytest.raises(ValueError, match=r"^evaluator gave nan at level t=0\.25, "):
        ex.corrected_estimate(lambda t: float("nan"), mu)
    with pytest.raises(ValueError, match=r"^evaluator gave inf at level t=0\.5, "):
        ex.corrected_estimate(lambda t: np.inf if t == 0.5 else 0.4 + 0.3 * t, mu)


def test_corrected_estimate_product_measure_fractional_delta():
    mu = ex.product_measure(1.0, 2.0, 3.0, 200)
    val = ex.corrected_estimate(lambda t: 0.4 + 0.3 * t**0.5, mu)
    assert val == pytest.approx(0.4, abs=1e-10)


def test_bias_annihilation_property():
    rng = np.random.default_rng(17)
    for i in range(300):
        theta = rng.uniform(0.05, 0.99)
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.5))
        delta = float(rng.choice([0.3, 0.5, 1.0, 2.0]))
        kind = i % 3
        if kind == 0:
            p, q = np.sort(rng.uniform(0.1, 1.0, size=2))
            if p == q:
                continue
            mu = ex.two_atom_measure(float(p), float(q), float(rng.uniform(1.5, 4.0)))
        elif kind == 1:
            mu = ex.product_measure(
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(1.5, 4.0)),
                float(rng.uniform(1.5, 4.0)),
                int(rng.integers(1, 6)),
            )
        else:
            mu = ex.scale_measure(ex.two_atom_measure(0.4, 0.9, 2.0), float(rng.uniform(0.3, 1.0)))
        val = ex.corrected_estimate(lambda t: theta + c * t**delta, mu)
        assert abs(val - theta) <= 1e-10


def test_corrected_estimate_weight_scale_invariance():
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)
    evaluator = lambda t: 0.3 + 0.2 * t**0.5
    base = ex.corrected_estimate(evaluator, mu)
    for lam in (-3.0, 0.5, 7.0):
        scaled = ex.SignedMeasureAtoms(tuple((s, t, lam * w) for s, t, w in mu.atoms))
        assert ex.corrected_estimate(evaluator, scaled) == pytest.approx(base, abs=1e-14)


def test_corrected_estimate_symmetrization_neutrality():
    mu = ex.product_measure(1.0, 2.0, 3.0, 3)
    evaluator = lambda t: 0.3 + 0.2 * t
    assert ex.corrected_estimate(evaluator, mu.symmetrized()) == pytest.approx(
        ex.corrected_estimate(evaluator, mu), abs=1e-14
    )


def test_corrected_curve_accounting():
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 5000, ex.substream(0, 0))
    cfg = ex.EstimatorConfig(r=10, k=100)
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)
    grid = [0.2, 0.4, 0.6, 0.8, 1.0]
    curve = ex.corrected_curve(x, cfg, mu, grid)
    assert curve.variant == "corrected"
    assert curve.n == 5000
    assert list(curve.t) == grid
    assert len(curve.theta_hat) == len(curve.code) == len(grid)
    assert (np.isnan(curve.theta_hat) == (curve.code != "")).all()
    allowed = {"DEGENERATE_DENOMINATOR", "NO_EXCEEDANCES", "TIES_DETECTED"}
    assert all(p.reason in allowed for p in curve.skipped)


def test_corrected_curve_without_a_measure_names_it_before_any_work():
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 500, ex.substream(0, 0)).values
    cfg = ex.EstimatorConfig(r=5, k=50)
    for sample in (x, x.reshape(50, 10)):  # the series is not read: a 2-D one is not rejected
        with pytest.raises(ValueError, match="^corrected_curve needs a measure, got None$"):
            ex.corrected_curve(sample, cfg, None, [0.5, 1.0])


def test_corrected_curve_repeats_its_curve_and_owns_its_grid():
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 5000, ex.substream(0, 1))
    cfg = ex.EstimatorConfig(r=10, k=100)
    mu = ex.product_measure(1.0, 2.0, 1.5, 3)
    grid = np.linspace(0.2, 1.0, 9)
    first = ex.corrected_curve(x, cfg, mu, grid)
    assert not np.shares_memory(first.t, grid)
    first.t[:] = 0.5  # the returned arrays are the caller's own
    first.k_t[:] = 0
    again = [ex.corrected_curve(x, cfg, mu, list(grid)) for _ in range(3)]
    again.append(ex.corrected_curve(x, cfg, ex.product_measure(1.0, 2.0, 1.5, 3), tuple(grid)))
    for curve in again:
        assert np.array_equal(curve.theta_hat, again[0].theta_hat, equal_nan=True)
        assert np.array_equal(curve.code, again[0].code)
        assert np.array_equal(curve.t, grid)
        assert np.array_equal(curve.k_t, ex.count_at(cfg.k, grid))
    assert np.array_equal(first.theta_hat, again[0].theta_hat, equal_nan=True)
    other_k = ex.corrected_curve(x, ex.EstimatorConfig(r=10, k=50), mu, grid)
    assert np.array_equal(other_k.k_t, ex.count_at(50, grid))


def test_curve_budgets_do_not_keep_the_atom_level_budgets_alive():
    # 81 grid levels and 128 atoms: the budgets of all 81 * 257 levels
    mu = ex.product_measure(1.0, 2.0, 1.5, 8)
    grid = np.linspace(0.2, 1.0, 81)
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 20_000, ex.substream(0, 1))
    curve = ex.corrected_curve(x, ex.EstimatorConfig(r=10, k=2000), mu, grid)
    kernel = CurveKernel(2000, grid, mu)
    for k_t in (curve.k_t, kernel.k_t):
        assert k_t.shape == (81,) and k_t.base is None
        assert not np.shares_memory(k_t, kernel._budgets)
    assert np.array_equal(curve.k_t, ex.count_at(2000, grid))


def test_corrected_curve_takes_first_failing_atom_code():
    # sorted: 1,2,3,4,5,5,100 with blocks (1,2,3), (5,5,4) and the tail (100);
    # k_t=1 keeps only the tail value (NO_EXCEEDANCES), k_t=2 ties at 5
    x = np.array([1.0, 2.0, 3.0, 5.0, 5.0, 4.0, 100.0])
    cfg = ex.EstimatorConfig(r=3, k=3)
    ev = ex.BlocksEvaluator(x, 3, 3)
    for mu, want in (
        # atom levels s1=0.5 (k_t=2, tie) before t1=0.3 (k_t=1)
        (ex.two_atom_measure(1.0, 0.3, 2.0), "TIES_DETECTED"),
        # s1=0.25 (k_t=1) before s2=0.5 (k_t=2, tie)
        (ex.two_atom_measure(0.5, 1.0, 2.0), "NO_EXCEEDANCES"),
    ):
        curve = ex.corrected_curve(x, cfg, mu, [1.0])
        assert list(curve.code) == [want]
        assert np.isnan(curve.theta_hat[0])
        with pytest.raises(ex.ExindexError) as err:
            ex.corrected_estimate(ev, mu)
        assert err.value.code == want


def test_corrected_curve_iid_is_flat_or_degenerate():
    # raw iid curves are nearly constant near 1, so the correction either
    # degenerates or returns a value in the neighborhood of 1
    x = ex.generate(ex.IID(innovation=ex.Uniform01()), 10_000, ex.substream(0, 0))
    cfg = ex.EstimatorConfig(r=10, k=100)
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)
    grid = [0.2, 0.4, 0.6, 0.8, 1.0]
    curve = ex.corrected_curve(x, cfg, mu, grid)
    defined = curve.theta_hat[curve.code == ""]
    near_one = int(np.count_nonzero(np.abs(defined - 1.0) <= 0.5))
    assert near_one + len(curve.skipped) >= 3


def test_sigma2_hand_oracle():
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)

    # the test kernels hold only the c matrix, the one sigma2_mu reads
    class MinKernel:
        def c(self, s, t):
            return min(s, t)

        def matrices(self, s, t):
            return (np.minimum.outer(s, t),)

    assert ex.sigma2_mu(mu, 1.0, MinKernel()) == pytest.approx(33.0, abs=1e-9)


def test_sigma2_matches_brute_force():
    class Kern:
        def c(self, s, t):
            return min(s, t) + 0.25 * s * t

        def matrices(self, s, t):
            return (np.minimum.outer(s, t) + 0.25 * np.multiply.outer(s, t),)

    # the benchmark's AR(1) kernel config, and tail-chain windows of the same model
    mc = ex.estimate_kernel_mc(ex.AR1Cauchy(phi=0.6), 20_000, ex.EstimatorConfig(r=10, k=200),
                               np.linspace(0.05, 1.0, 20), replicates=200, seed=0)
    tail = ex.tail_chain_probabilities(ex.AR1Cauchy(phi=0.6), v=1e-3, K=50, replicates=20,
                                       seed=0, n=100_000)
    cases = [
        (Kern(), ex.two_atom_measure(0.3, 0.8, 2.5)),
        (Kern(), ex.product_measure(1.5, 2.0, 2.0, 3)),
        (Kern(), ex.scale_measure(ex.two_atom_measure(0.5, 1.0, 2.0), 0.7)),
        (mc, ex.two_atom_measure(0.5, 1.0, 2.0)),
        (tail, ex.product_measure(1.0, 2.0, 1.5, 8)),
    ]
    for kern, mu in cases:
        c = functools.cache(kern.c)  # 256 atoms on 29 levels: read each pair once
        for delta in (0.5, 1.0):
            s, t, w = mu.symmetrized().arrays()
            num = sum(
                w[i] * w[j] * (s[i] * s[j]) ** delta / (t[i] * t[j]) * c(t[i], t[j])
                for i in range(len(w))
                for j in range(len(w))
            )
            norm = float((w * s**delta).sum())
            assert ex.sigma2_mu(mu, delta, kern) == pytest.approx(num / norm**2, rel=1e-9)


def test_sigma2_bilinearity_and_zero_kernel():
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)

    class Scaled:
        def __init__(self, fac):
            self.fac = fac

        def c(self, s, t):
            return self.fac * min(s, t)

        def matrices(self, s, t):
            return (self.fac * np.minimum.outer(s, t),)

    class Zero:
        def c(self, s, t):
            return 0.0

        def matrices(self, s, t):
            return (np.zeros((len(s), len(t))),)

    assert ex.sigma2_mu(mu, 1.0, Zero()) == 0.0
    assert ex.sigma2_mu(mu, 1.0, Scaled(4.0)) == pytest.approx(
        4.0 * ex.sigma2_mu(mu, 1.0, Scaled(1.0)), rel=1e-12
    )


def test_sigma2_zero_normalizer_raises():
    # symmetric atoms at a single point cancel: the level integral vanishes
    mu = ex.SignedMeasureAtoms(((0.5, 0.5, 1.0), (0.5, 0.5, -1.0)))
    with pytest.raises(ex.MeasureConditionError) as err:
        ex.sigma2_mu(mu, 1.0, ex.ClosedFormIID())
    assert err.value.code == "M2_VIOLATION"
    # delta = inf once returned a number (0.8505 on an AR(1) Monte Carlo kernel)
    for delta in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"delta must be positive and finite, got {delta}"):
            ex.sigma2_mu(ex.two_atom_measure(0.5, 1.0, 2.0), delta, ex.ClosedFormIID())


def test_measure_csv_roundtrip(tmp_path):
    mu = ex.product_measure(1.0, 2.0, 3.0, 2)
    path = tmp_path / "mu.csv"
    ex.write_measure_csv(mu, path)
    back = ex.read_measure_csv(path)
    assert back.atoms == mu.atoms
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        ex.read_measure_csv(bad)
    short = tmp_path / "short.csv"
    short.write_text("s,t,w\n0.25,1,1\n0.5,1\n")
    with pytest.raises(ValueError, match=rf"{short} line 3: expected s,t,w, got \['0.5', '1'\]"):
        ex.read_measure_csv(short)


def test_bias_model_curve():
    model = ex.BiasExpansion(theta=0.4, theta_n=0.43, c_n=-0.032, delta=1.0)
    assert model.curve(0.5) == pytest.approx(0.43 - 0.016)
    with pytest.raises(ValueError):
        ex.BiasExpansion(theta=0.4, theta_n=0.4, c_n=0.1, delta=0.0)
    with pytest.raises(ValueError):
        ex.BiasExpansion(theta=1.5, theta_n=0.4, c_n=0.1, delta=1.0)
