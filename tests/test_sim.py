"""Marginal laws, stationary model simulators, and seed management."""

import hashlib

import numpy as np
import pytest
from scipy import stats

import exindex as ex

MARGINALS = [
    ex.Uniform01(),
    ex.StandardCauchy(),
    ex.UnitPareto(1.7),
    ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5),
    ex.SecondOrderPareto(2.0, 1.0, 1.0, -0.3),
]

ALL_MODELS = [
    ex.IID(innovation=ex.Uniform01()),
    ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01()),
    ex.AR1Cauchy(phi=0.6),
    ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5),
]


def test_marginal_quantile_cdf_roundtrip():
    for marg in MARGINALS:
        for p in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
            z = marg.quantile(p)
            assert marg.cdf(z) == pytest.approx(p, abs=1e-9)
            assert marg.survival(z) == pytest.approx(1.0 - p, abs=1e-9)


def test_second_order_pareto_quantile_solves_survival():
    sop = ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5)
    z = sop.quantile(0.5)
    assert z ** -2 * (1.0 + 0.5 / z) == pytest.approx(0.5, abs=1e-12)
    p = 1.0 - sop.survival(7.0)
    assert sop.quantile(p) == pytest.approx(7.0, rel=1e-9)


def test_second_order_pareto_tiny_c2_is_pareto():
    # second-order term negligible: quantile collapses to plain Pareto 1/(1-p)
    sop = ex.SecondOrderPareto(1.0, 1.0, 1.0, 1e-300)
    for p in (0.2, 0.9, 0.99):
        assert sop.quantile(p) == pytest.approx(1.0 / (1.0 - p), rel=1e-9)


def test_second_order_pareto_parameter_validation():
    # survival maximum below 1: no valid support start exists
    with pytest.raises(ValueError):
        ex.SecondOrderPareto(2.0, 1.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        ex.SecondOrderPareto(-1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ex.SecondOrderPareto(2.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.0)


def test_second_order_pareto_sampling_matches_law():
    sop = ex.SecondOrderPareto(2.0, 1.0, 1.0, -0.3)
    z = sop.sample(np.random.Generator(np.random.Philox(1)), 5000)
    assert z.min() >= sop.z_min - 1e-12
    for zq in (sop.quantile(0.5), sop.quantile(0.95)):
        assert np.mean(z > zq) == pytest.approx(sop.survival(zq), abs=0.025)


def test_second_order_pareto_scalar_quantile_matches_array():
    sop = ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5)
    z = sop.quantile(0.9)
    assert isinstance(z, float)
    assert z == sop.quantile(np.array([0.9]))[0]


def reference_quantile(law, p):
    """Reference: the plain bisection, always 100 steps, with no early stop."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if isinstance(law, ex.SecondOrderPareto):
        def below(z):
            return law._raw_survival(z) >= 1.0 - p

        lo, hi = law.z_min, max(2.0 * law.z_min, 2.0)
    else:
        def below(z):
            return law.cdf(z) <= p

        lo, hi = law.innovation.z_min, 2.0 * law.innovation.z_min
    lo = np.full_like(p, lo)
    hi = np.full_like(p, hi)
    pending = below(hi)
    while np.any(pending):
        hi[pending] *= 2.0
        pending = below(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        left = below(mid)
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def test_bisection_quantiles_equal_100_step_reference():
    laws = [
        ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5),
        ex.SecondOrderPareto(2.0, 1.0, 1.0, -0.3),
        ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5).marginal,
    ]
    rng = np.random.Generator(np.random.Philox(5))
    edges = np.array([0.5**53, 1.0 - 0.5**53])
    for law in laws:
        for p in (edges, rng.random(1000), rng.random(7) ** 8):
            got = law.quantile(p)
            np.testing.assert_array_equal(got, reference_quantile(law, p))
            assert [law.quantile(float(pi)) for pi in p] == got.tolist()


def count_tail_tests(monkeypatch, law, p):
    """Number of ``below`` evaluations in one ``law.quantile(p)``."""
    tail_test = ex.SecondOrderPareto._tail_test
    calls = []

    def counting(self, q):
        below = tail_test(self, q)

        def counted(z, out):
            calls.append(1)
            return below(z, out)

        return counted

    with monkeypatch.context() as patch:
        patch.setattr(ex.SecondOrderPareto, "_tail_test", counting)
        law.quantile(p)
    return len(calls)


def test_newton_start_shortens_the_bisection_for_positive_c2_only(monkeypatch):
    p = np.random.Generator(np.random.Philox(0)).random(20001)
    # the wide bracket takes 63 evaluations on these draws, for either sign of c2
    assert count_tail_tests(monkeypatch, ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5), p) < 25
    assert count_tail_tests(monkeypatch, ex.SecondOrderPareto(2.0, 1.0, 1.0, -0.3), p) == 63


def test_generate_deterministic_and_substreams_distinct():
    for model in ALL_MODELS:
        a = ex.generate(model, 200, ex.substream(11, 3))
        b = ex.generate(model, 200, ex.substream(11, 3))
        c = ex.generate(model, 200, ex.substream(11, 4))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert a.n == 200
        assert a.model is model


def test_generate_burn_in_is_a_shifted_window():
    for model in ALL_MODELS:
        burned = ex.generate(model, 100, ex.substream(0, 0), burn_in=50)
        full = ex.generate(model, 150, ex.substream(0, 0))
        assert np.array_equal(burned.values, full.values[50:])
        assert burned.burn_in == 50


def test_generate_rejects_bad_args():
    model = ex.IID(innovation=ex.Uniform01())
    with pytest.raises(ValueError):
        ex.generate(model, 0, 1)
    with pytest.raises(ValueError):
        ex.generate(model, 10, 1, burn_in=-1)
    with pytest.raises(ValueError):
        ex.generate(object(), 10, 1)


def test_substream_spawn_key_separation():
    a = ex.substream(0, 0)
    b = ex.substream(0, 1)
    assert a.spawn_key != b.spawn_key
    ra = np.random.Generator(np.random.Philox(a)).random(4)
    rb = np.random.Generator(np.random.Philox(b)).random(4)
    assert not np.array_equal(ra, rb)


def test_random_repetition_zero_psi_never_repeats():
    x = ex.generate(
        ex.RandomRepetition(psi=0.0, innovation=ex.Uniform01()), 1000, ex.substream(2, 0)
    )
    assert len(np.unique(x.values)) == 1000
    assert stats.kstest(x.values, "uniform").pvalue > 1e-4


def test_random_repetition_repeat_fraction_matches_psi():
    x = ex.generate(
        ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01()), 10_000, ex.substream(5, 0)
    )
    frac = np.mean(x.values[1:] == x.values[:-1])
    assert frac == pytest.approx(0.6, abs=0.03)


def test_random_repetition_marginal_ks_across_seeds():
    # weak dependence keeps the iid 1% KS critical value usable; strong psi would not
    model = ex.RandomRepetition(psi=0.2, innovation=ex.Uniform01())
    n = 10_000
    crit = stats.kstwobign.ppf(0.99) / np.sqrt(n)
    below = sum(
        stats.kstest(ex.generate(model, n, ex.substream(42, s)).values, "uniform").statistic
        < crit
        for s in range(100)
    )
    assert below >= 95


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        ex.RandomRepetition(psi=1.0, innovation=ex.Uniform01())
    with pytest.raises(ValueError):
        ex.RandomRepetition(psi=-0.1, innovation=ex.Uniform01())
    with pytest.raises(ValueError):
        ex.AR1Cauchy(phi=0.0)
    with pytest.raises(ValueError):
        ex.AR1Cauchy(phi=1.0)
    with pytest.raises(ValueError):
        ex.MovingMaxima(coeffs=(0.9, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    with pytest.raises(ValueError):
        ex.MovingMaxima(coeffs=(), beta1=2, beta2=1, c1=1, c2=0.5)


def test_moving_maxima_identity_coeffs_reduce_to_iid():
    sop = ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5)
    mm = ex.generate(
        ex.MovingMaxima(coeffs=(1.0,), beta1=2, beta2=1, c1=1, c2=0.5),
        50,
        ex.substream(7, 1),
    )
    iid = ex.generate(ex.IID(innovation=sop), 50, ex.substream(7, 1))
    assert np.array_equal(mm.values, iid.values)


def test_moving_maxima_marginal_product_formula():
    model = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    marg = model.marginal
    inn = ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5)
    for u in (2.0, 5.0, 20.0):
        assert marg.cdf(u) == pytest.approx(inn.cdf(u) * inn.cdf(2.0 * u), rel=1e-12)
    assert marg.cdf(marg.quantile(0.97)) == pytest.approx(0.97, abs=1e-9)


def test_moving_maxima_marginal_matches_empirical():
    model = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    marg = model.marginal
    x = ex.generate(model, 200_000, ex.substream(3, 0))
    for p in (0.5, 0.9, 0.99):
        assert np.mean(x.values <= marg.quantile(p)) == pytest.approx(p, abs=0.012)


def test_ar1_marginal_scale():
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 100_000, ex.substream(9, 0))
    # stationary marginal is Cauchy with scale 1/(1-phi) = 2.5; median |X| equals the scale
    assert np.median(np.abs(x.values)) == pytest.approx(2.5, abs=0.1)
    marg = ex.AR1Cauchy(phi=0.6).marginal
    assert marg.quantile(0.75) == pytest.approx(2.5, rel=1e-9)
    assert marg.cdf(0.0) == pytest.approx(0.5, abs=1e-12)


def test_ar1_runs_near_theta_at_high_threshold():
    model = ex.AR1Cauchy(phi=0.6)
    u = model.marginal.quantile(0.996)
    vals = [
        ex.runs_estimator(ex.generate(model, 100_000, ex.substream(7, s)).values, 2, u)
        for s in range(10)
    ]
    assert np.mean(vals) == pytest.approx(0.4, abs=0.08)


def test_model_theta_values():
    assert ex.IID(innovation=ex.Uniform01()).theta == 1.0
    assert ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01()).theta == pytest.approx(0.4)
    assert ex.AR1Cauchy(phi=0.6).theta == pytest.approx(0.4)
    mm = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    assert mm.theta == pytest.approx(1.0 / 1.25)


# sha256 of generate(model, 2000, substream(7, 3), burn_in=b).values.tobytes():
# a change to any model's ``sample`` that moves one bit of its stream fails here
GOLDEN_MODELS = {
    "iid_uniform": ex.IID(innovation=ex.Uniform01()),
    "iid_cauchy": ex.IID(innovation=ex.StandardCauchy()),
    "iid_pareto2": ex.IID(innovation=ex.UnitPareto(2.0)),
    "iid_sop": ex.IID(innovation=ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5)),
    "ar1": ex.AR1Cauchy(phi=0.6),
    "wn_uniform": ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01()),
    "wn_cauchy": ex.RandomRepetition(psi=0.6, innovation=ex.StandardCauchy()),
    "mm_pos": ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5),
    "mm_neg": ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=-0.3),
}
GOLDEN_STREAMS = {
    ("iid_uniform", 0): "4f91d2125526df5777e6d620f2e266046bdb0354465c2a99343fc8053fde4632",
    ("iid_uniform", 5): "31361adf34e2aed6ccc3c366c8a3b991ec4431263fae129ab6c0c0f0c57f259f",
    ("iid_cauchy", 0): "a300a6f57212d5a318c8e1c9ffe15b69e183fc333316893afe319e4d9d64416a",
    ("iid_cauchy", 5): "48d760de08f3c82bd2f6b9335f108d176badea4d5162954a25690575bf4076a3",
    ("iid_pareto2", 0): "eaeedf46743c6b75c933412eae4dcca3395e10faf4ac165f07ff03332a6b8118",
    ("iid_pareto2", 5): "fb0e1615d2cd528b279c7f5ed5d39981c9efcf4009cf9f6465c0631233dc7c47",
    ("iid_sop", 0): "7571ada9112bee57bf46810a494ace3d5baff8e04a6da1ff960b083f94ba81ff",
    ("iid_sop", 5): "5bb3a64f919cd2ca562a92b2191e98a3d7652e11cdfed22a8500210c53e1bac7",
    ("ar1", 0): "c977d66c6b508dea8b6975dac2d443a46efbaeb8ceda27561eed74be6034930c",
    ("ar1", 5): "ac6047fcfe9cd2b007f8e76c228601dbbb79055e1a90af8c2a8ddf7145369db6",
    ("wn_uniform", 0): "a71512e72908739a03fa553633d9c4923065c9e2da5374c717b30d3cbf21c909",
    ("wn_uniform", 5): "5eeead00b5ad06de2a2f230e4827d7bbebbdedede019ff4c6e8a7806a183c167",
    ("wn_cauchy", 0): "aa8636def246e1c0d0e32b3a9dc68308988f7cad20aa560dc79c94f96aca34ac",
    ("wn_cauchy", 5): "e5591d2f6516176dbb362d395c701c907817f9989ed301b2457568070666052b",
    ("mm_pos", 0): "b600597dce31f882842cbc0ec24812e8728cdb80ab1da2ef84746811a49acf05",
    ("mm_pos", 5): "896061f09ae1c25c63bb49fb8bf4645380beca4bd029337e8e1e6ab64eb2aab9",
    ("mm_neg", 0): "fb65773e3fc4a07018287378043a7354ae36d72ab228aff6ef0158e0185f15c8",
    ("mm_neg", 5): "d8278daae1cb97e24ba15fb7507154bb1ca52de97e8502842ea81dc049299279",
}


@pytest.mark.parametrize("name, burn_in", sorted(GOLDEN_STREAMS))
def test_generate_streams_equal_recorded_hashes(name, burn_in):
    x = ex.generate(GOLDEN_MODELS[name], 2000, ex.substream(7, 3), burn_in=burn_in)
    assert hashlib.sha256(x.values.tobytes()).hexdigest() == GOLDEN_STREAMS[name, burn_in]


@pytest.mark.parametrize(
    "build",
    [
        lambda: ex.MovingMaxima(coeffs=(np.nan, 1.0), beta1=2, beta2=1, c1=1, c2=0.5),
        lambda: ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=np.nan),
        lambda: ex.SecondOrderPareto(2.0, 1.0, np.inf, 0.5),
        lambda: ex.SecondOrderPareto(np.inf, 1.0, 1.0, 0.5),
        lambda: ex.UnitPareto(alpha=np.inf),
    ],
    ids=["mm_coeff_nan", "mm_c2_nan", "c1_inf", "beta1_inf", "pareto_alpha_inf"],
)
def test_non_finite_parameters_are_rejected(build):
    with pytest.raises(ValueError, match="must be .*finite"):
        build()
