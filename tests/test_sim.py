"""Marginal laws, stationary model simulators, and seed management."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import exindex as ex
from exindex import harness, sim
from exindex.errors import DegenerateDenominator, MeasureConditionError, TiesDetected

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


def test_standard_cauchy_keeps_the_bits_of_its_scale_free_formulas():
    law = ex.StandardCauchy()
    x = np.concatenate([np.linspace(-50.0, 50.0, 2001), [-np.inf, np.inf, -0.0, 1e300, 5e-324]])
    p = np.concatenate([np.linspace(0.0, 1.0, 2001), [5e-324, 1.0 - 2.0**-53]])
    # the formulas StandardCauchy stated before it became the scale-1 Cauchy law
    reference = {
        "cdf": lambda v: 0.5 + np.arctan(v) / np.pi,
        "survival": lambda v: 0.5 - np.arctan(v) / np.pi,
        "quantile": lambda u: np.tan(np.pi * (np.asarray(u, dtype=float) - 0.5)),
    }
    for name, formula in reference.items():
        points = p if name == "quantile" else x
        assert getattr(law, name)(points).tobytes() == formula(points).tobytes()
        for v in (0.3, -2, 0.5, 7.25):
            got, want = getattr(law, name)(v), formula(v)
            assert type(got) is type(want) and got.tobytes() == want.tobytes()
    rng, again = np.random.default_rng(0), np.random.default_rng(0)
    assert law.sample(rng, 100).tobytes() == again.standard_cauchy(100).tobytes()
    assert sim.config_fields(ex.StandardCauchy) == ()
    assert law.to_dict() == {"name": "cauchy"} and repr(law) == "StandardCauchy()"


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
    # the wide bracket takes 63 evaluations on these draws, for either sign of c2;
    # the narrow one, around a 3-step start at most 6 floats off, takes 2 to
    # confirm its ends and 4 to halve 2 * 8 floats
    assert sim._ULPS == 8
    assert count_tail_tests(monkeypatch, ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5), p) <= 6
    assert count_tail_tests(monkeypatch, ex.SecondOrderPareto(2.0, 1.0, 1.0, -0.3), p) == 63


def test_a_stray_newton_guess_falls_back_to_the_relative_bracket_alone(monkeypatch):
    law = ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5)
    p = np.random.Generator(np.random.Philox(0)).random(20001)
    want = law.quantile(p)
    newton = ex.SecondOrderPareto._newton_start

    def stray(self, q):
        guess = newton(self, q)
        guess.view(np.int64)[0] += 100  # 100 floats off: outside 8 floats, inside 1e-12
        return guess

    monkeypatch.setattr(ex.SecondOrderPareto, "_newton_start", stray)
    # one element's 1e-12 bracket: 2 more confirmations and ~10 more steps, not 63 in all
    assert count_tail_tests(monkeypatch, law, p) <= 16
    np.testing.assert_array_equal(law.quantile(p).view(np.int64), want.view(np.int64))


def test_quantiles_of_no_levels_are_empty():
    for law in MARGINALS[3:]:
        assert law.quantile(np.array([])).shape == (0,)
        assert ex.IID(innovation=law).sample(np.random.default_rng(0), 0).shape == (0,)
    marginal = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5).marginal
    assert marginal.quantile(np.array([])).shape == (0,)
    assert sim._bisect_quantile(np.empty((0, 3)), None, 1.0, 2.0).shape == (0, 3)


def test_wide_bracket_reaches_quantiles_far_below_its_width():
    # z_min is ~1e-40 and the bracket starts at [z_min, 2]: 100 halvings stop ~1e-30 wide
    for c2 in (-1e-41, 0.5):
        law = ex.SecondOrderPareto(1.0, 1.0, 1e-40, c2)
        z = law.quantile([0.5, 0.9])
        np.testing.assert_allclose(law.survival(z), [0.5, 0.1], rtol=1e-12)


def test_quantile_beyond_the_largest_float_is_inf_without_a_warning():
    # the upper bracket doubles past the largest float; RuntimeWarnings fail tests here
    assert ex.SecondOrderPareto(0.01, 1.0, 1.0, 0.5).quantile(1.0 - 2.0**-53) == np.inf


@pytest.mark.parametrize("c2", [-0.001, 0.5])
def test_quantile_above_two_to_the_1023_is_finite_without_a_warning(c2):
    # the survival at the largest float, ~8.27e-4, is already below 8.3e-4
    law = ex.SecondOrderPareto(0.01, 1.0, 1.0, c2)
    p = 1.0 - 8.3e-4
    z = law.quantile(p)
    assert 2.0**1023 < z < np.inf
    assert law.survival(z * (1.0 - 1e-12)) >= 8.3e-4 >= law.survival(z * (1.0 + 1e-12))
    # an element whose bracket never nears the largest float keeps its bits
    assert law.quantile(np.array([p, 0.5])).tolist() == [z, law.quantile(0.5)]


def test_generate_deterministic_and_substreams_distinct():
    for model in ALL_MODELS:
        a = ex.generate(model, 200, ex.substream(11, 3))
        b = ex.generate(model, 200, ex.substream(11, 3))
        c = ex.generate(model, 200, ex.substream(11, 4))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert a.n == 200
        assert a.model is model


def test_generate_rejects_bad_args():
    model = ex.IID(innovation=ex.Uniform01())
    with pytest.raises(ValueError):
        ex.generate(model, 0, 1)
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


def test_moving_maxima_marginal_newton_start_shortens_the_bisection(monkeypatch):
    # the benchmark's 81 levels 1 - 0.1 t: the wide bracket takes 57 or 58
    # evaluations of the cdf; from the Newton start, which lands up to 18 floats
    # off, every level confirms a 32-float bracket: 2 confirmations and 6 halvings
    p = 1.0 - 0.1 * np.linspace(0.2, 1.0, 81)
    below = sim._MovingMaximaMarginal._below
    calls = []

    def counting(self, q):
        test = below(self, q)

        def counted(z, out):
            calls.append(1)
            return test(z, out)

        return counted

    monkeypatch.setattr(sim._MovingMaximaMarginal, "_below", counting)
    assert sim._MM_ULPS == 32 and sim._ULPS == 8
    for c2, most in ((0.5, 8), (-0.3, 58)):
        calls.clear()
        ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=c2).marginal.quantile(p)
        assert len(calls) <= most


@pytest.mark.parametrize("coeffs", [(0.0, 1.0, 0.5), (1.0,), (0.5, 0.0, 1.0), (1.0, 0.0)])
def test_moving_maxima_combine_has_the_bits_of_a_maximum_over_minus_inf(coeffs):
    model = ex.MovingMaxima(coeffs=coeffs, beta1=2, beta2=1, c1=1, c2=0.5)
    rng = np.random.Generator(np.random.Philox(4))
    z = np.concatenate([model.innovation.sample(rng, 500), -rng.random(10)])
    rng.shuffle(z)
    size = len(z) - model.q
    want = np.full(size, -np.inf)
    for j, coeff in enumerate(coeffs):
        if coeff > 0:
            want = np.maximum(want, coeff * z[model.q - j : model.q - j + size])
    np.testing.assert_array_equal(model._combine(z, size).view(np.int64), want.view(np.int64))


def test_moving_maxima_marginal_matches_empirical():
    model = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    marg = model.marginal
    x = ex.generate(model, 200_000, ex.substream(3, 0))
    for p in (0.5, 0.9, 0.99):
        assert np.mean(x.values <= marg.quantile(p)) == pytest.approx(p, abs=0.012)


def test_top_only_moving_maxima_path_is_exact_at_its_top_values():
    model = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    full = ex.generate(model, 20_000, ex.substream(0, 3))
    part = ex.generate(model, 20_000, ex.substream(0, 3), top=2001)
    kth = np.sort(full.values)[-2001]
    at_top = full.values >= kth
    assert np.array_equal(part.values[at_top], full.values[at_top])
    assert np.all(part.values[~at_top] < kth)
    assert not np.array_equal(part.values, full.values)  # the rest are not inverted
    assert (part.top, full.top) == (2001, None)
    # a top beyond the path inverts every innovation
    whole = ex.generate(model, 50, 1, top=60)
    assert np.array_equal(whole.values, ex.generate(model, 50, 1).values)


def test_generate_draws_the_full_path_where_no_top_only_path_applies():
    model = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    for other in ALL_MODELS[:3]:  # no sample_top
        x = ex.generate(other, 100, 4, top=5)
        assert np.array_equal(x.values, ex.generate(other, 100, 4).values)
        assert x.top is None
    for bad in (0, -3):
        with pytest.raises(ValueError, match="top must be at least 1"):
            ex.generate(model, 100, 4, top=bad)


def test_top_only_path_inverts_the_rest_where_innovations_tie_at_the_cut(monkeypatch):
    # beta1 = 1e15 rounds the quantile of most uniforms to a few floats just
    # above 1: the innovations tie at the smallest inverted one, fewer than
    # top values exceed it, and the rest of the uniforms are inverted too
    model = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=1e15, beta2=1, c1=1, c2=0.5)
    sizes = []
    quantile = ex.SecondOrderPareto.quantile

    def counted(self, p):
        sizes.append(np.size(p))
        return quantile(self, p)

    monkeypatch.setattr(ex.SecondOrderPareto, "quantile", counted)
    x = ex.generate(model, 300, 0, top=100)
    assert sizes == [102, 199]
    assert np.array_equal(x.values, ex.generate(model, 300, 0).values)


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


# sha256 of generate(model, 2000 + offset, substream(7, 3)).values[offset:].tobytes():
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


def _golden_hash(name, offset):
    x = ex.generate(GOLDEN_MODELS[name], 2000 + offset, ex.substream(7, 3))
    return hashlib.sha256(x.values[offset:].tobytes()).hexdigest()


@pytest.mark.parametrize("name, offset", sorted(GOLDEN_STREAMS))
def test_generate_streams_equal_recorded_hashes(name, offset):
    assert _golden_hash(name, offset) == GOLDEN_STREAMS[name, offset]


class _Draws:
    """Stands in for the generator: ``standard_cauchy`` gives ``eps``, then ``z0``."""

    def __init__(self, eps, z0):
        self.eps, self.z0 = eps, z0

    def standard_cauchy(self, size=None):
        return self.z0 if size is None else self.eps


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(1, 5000),
    st.integers(0, 2**32 - 1),
    st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300]), st.floats(-1e6, 1e6)),
)
def test_ar1_recursion_equals_lfilter_bit_for_bit(phi, size, seed, z0):
    from scipy.signal import lfilter

    assert sim._linear_filter() is not lfilter  # the compiled filter, called directly
    eps = np.random.default_rng(seed).standard_cauchy(size)
    x0 = z0 / (1.0 - phi)
    want, _ = lfilter([1.0], [1.0, -phi], eps, zi=[phi * x0])
    assert np.array_equal(ex.AR1Cauchy(phi=phi).sample(_Draws(eps, z0), size), want,
                          equal_nan=True)


@pytest.fixture
def fresh_filter_lookup():
    sim._linear_filter.cache_clear()
    yield
    sim._linear_filter.cache_clear()


@pytest.mark.parametrize("layout", ["no_spec", "no_extension_file", "unloadable_file"])
def test_ar1_falls_back_to_lfilter_where_the_extension_cannot_load(
    layout, tmp_path, monkeypatch, fresh_filter_lookup
):
    import importlib.machinery
    import importlib.util

    from scipy.signal import lfilter

    if layout == "unloadable_file":
        (tmp_path / "signal").mkdir()
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            (tmp_path / "signal" / f"_sigtools{suffix}").write_bytes(b"not a shared object")
    spec = None if layout == "no_spec" else SimpleNamespace(submodule_search_locations=[tmp_path])
    monkeypatch.delitem(sys.modules, "scipy.signal._sigtools", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    assert sim._linear_filter() is lfilter
    for offset in (0, 5):
        assert _golden_hash("ar1", offset) == GOLDEN_STREAMS["ar1", offset]


_LOAD_ORDER_PROBE = """
import hashlib, json, sys
import numpy as np
import exindex as ex
from exindex import harness, sim

x = ex.generate(ex.AR1Cauchy(phi=0.6), 2000, ex.substream(7, 3)).values
before = [name in sys.modules for name in ("scipy", "scipy.signal", "scipy.signal._sigtools")]
import scipy.signal
from scipy.signal import lfilter

draws = sim._rng(ex.substream(7, 3))
eps = draws.standard_cauchy(2000)
x0 = draws.standard_cauchy() / 0.4
y, _ = lfilter([1.0], [1.0, -0.6], eps, zi=[0.6 * x0])
print(json.dumps([before, hashlib.sha256(x.tobytes()).hexdigest(), bool(np.array_equal(x, y)),
                  scipy.signal._sigtools is sys.modules["scipy.signal._sigtools"]]))
"""


def fresh_python(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this checkout's exindex.

    The test process has loaded scipy and built the parser through other tests.
    """
    src = os.path.dirname(os.path.dirname(ex.__file__))
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_scipy_signal_imports_after_the_ar1_filter_loaded_alone():
    proc = fresh_python("-c", _LOAD_ORDER_PROBE)
    assert proc.returncode == 0, proc.stderr
    before, digest, same, registered = json.loads(proc.stdout)
    assert before == [False, False, False]
    assert digest == GOLDEN_STREAMS["ar1", 0]
    assert same and registered


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
    with pytest.raises(ValueError, match=r" must (be a real number|lie in \(0, inf\)), got (nan|inf)$"):
        build()


# ---------------------------------------------------------------------------
# Replicate driver
# ---------------------------------------------------------------------------


def chunked(monkeypatch, chunks: int) -> None:
    """Make ``map_replicates`` split any input into ``chunks`` chunks, at most one a replicate."""
    monkeypatch.setattr(sim, "_MIN_CHUNK_VALUES", 1)
    monkeypatch.setattr(sim, "_usable_cores", lambda: chunks)


def path_and_pid(first, paths):
    return [(rep, x.values, os.getpid()) for rep, x in enumerate(paths, first)]


def flat(groups) -> list:
    """The per-replicate results of a step that returns one list per group, in order."""
    return [result for group in groups for result in group]


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300), st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_map_replicates_equals_the_serial_driver_in_order(n, replicates, chunks, seed):
    model = ex.AR1Cauchy(phi=0.6)
    with pytest.MonkeyPatch.context() as mp:
        chunked(mp, 1)
        serial = flat(sim.map_replicates(path_and_pid, model, n, seed, replicates))
        chunked(mp, chunks)
        split = flat(sim.map_replicates(path_and_pid, model, n, seed, replicates))
    assert [rep for rep, _, _ in split] == list(range(replicates))
    for (_, want, _), (_, got, _) in zip(serial, split):
        assert np.array_equal(want, got)
    # the first chunk runs here and each later one in its own child
    pids = [pid for _, _, pid in split]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == min(chunks, replicates)
    assert_no_children()


@pytest.mark.parametrize("first", [
    DegenerateDenominator("replicate 5: flat curve", fallback=0.25),
    MeasureConditionError("replicate 5: weights sum to 0", code="M3_VIOLATION"),
])
def test_map_replicates_raises_the_earliest_failing_replicate(monkeypatch, first):
    # replicates 4-7 run in the second chunk and 8-11 in the third; both fail
    def step(start, paths):
        done = []
        for rep, _ in enumerate(paths, start):
            if rep == 5:
                raise first
            if rep == 9:
                raise TiesDetected("replicate 9: tie")
            done.append(rep)
        return done

    model = ex.IID(innovation=ex.Uniform01())
    for chunks in (1, 3):
        chunked(monkeypatch, chunks)
        with pytest.raises(type(first)) as caught:
            sim.map_replicates(step, model, 10, 0, 12)
        err = caught.value
        assert str(err) == str(first)
        assert err.code == first.code
        assert getattr(err, "fallback", None) == getattr(first, "fallback", None)
        assert_no_children()


def test_map_replicates_kills_and_reaps_children_when_its_own_chunk_fails(monkeypatch):
    parent = os.getpid()

    def step(first, paths):
        if os.getpid() != parent:
            time.sleep(60)  # children outlive the test unless they are killed
        raise ValueError(f"replicate {first}")

    chunked(monkeypatch, 3)
    started = time.perf_counter()
    with pytest.raises(ValueError, match="replicate 0"):
        sim.map_replicates(step, ex.IID(innovation=ex.Uniform01()), 10, 0, 6)
    assert time.perf_counter() - started < 30
    assert_no_children()


def test_map_replicates_stays_serial_while_another_thread_is_alive(monkeypatch):
    chunked(monkeypatch, 3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        results = flat(sim.map_replicates(path_and_pid, ex.AR1Cauchy(phi=0.6), 50, 1, 6))
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert {pid for _, _, pid in results} == {os.getpid()}
    # with the thread gone, the same call forks
    assert len({pid for _, _, pid in flat(sim.map_replicates(
        path_and_pid, ex.AR1Cauchy(phi=0.6), 50, 1, 6))}) == 3


class TrackedPaths:
    """iid uniform paths that record, as each is drawn, how many earlier ones are alive."""

    name = "tracked"

    def __init__(self):
        self.drawn = []  # a weak reference to each path's values
        self.alive = []  # per draw, the earlier paths still alive

    def sample(self, rng, size):
        self.alive.append(sum(ref() is not None for ref in self.drawn))
        values = rng.random(size)
        self.drawn.append(weakref.ref(values))
        return values


@pytest.mark.parametrize("chunks", [1, 3])
def test_map_replicates_holds_one_path_at_a_time_in_each_process(monkeypatch, chunks):
    chunked(monkeypatch, chunks)
    monkeypatch.setattr(sim, "_GROUP", 4)
    model = TrackedPaths()

    def step(first, paths):
        # map drops each path once it is summed, before it draws the next
        sums = list(map(lambda x: float(x.values.sum()), paths))
        return sums, os.getpid(), list(model.alive)

    groups = sim.map_replicates(step, model, 50, 0, 24)
    assert [len(sums) for sums, _, _ in groups] == [4, 4] * 3
    assert len({pid for _, pid, _ in groups}) == chunks
    # every process drew all of its replicates with no earlier path alive
    final = {pid: alive for _, pid, alive in groups}  # each process's last group
    assert sorted(len(alive) for alive in final.values()) == [24 // chunks] * chunks
    assert all(alive == [0] * len(alive) for alive in final.values())
    assert_no_children()
    # a step that keeps its group's paths holds up to a whole group at once
    chunked(monkeypatch, 1)
    model.alive.clear()
    sim.map_replicates(lambda first, paths: len(list(paths)), model, 50, 0, 8)
    assert model.alive == [0, 1, 2, 3] * 2


def test_replicates_step_holds_one_path_at_a_time(monkeypatch):
    monkeypatch.setattr(sim, "_usable_cores", lambda: 1)
    monkeypatch.setattr(sim, "_GROUP", 4)
    model = TrackedPaths()
    cfg = ex.ExperimentConfig(model=model, n=500, r_list=(5, 7), k=40, t_grid=(0.5, 1.0),
                              measure=ex.two_atom_measure(0.5, 1.0, 2.0), replicates=10,
                              out_dir="unused", run_lengths=(3,))
    result, rows = harness._replicates(cfg, cfg.run_lengths)
    assert len(rows) == cfg.replicates and result.raw[5].shape == (10, 2)
    assert model.alive == [0] * cfg.replicates


def test_map_replicates_chunks_only_large_inputs(monkeypatch):
    monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
    assert sim._chunk_count(20_000, 10) == 1  # mm_figure's size stays serial
    assert sim._chunk_count(20_000, 25) == 2
    assert sim._chunk_count(10**6, 1) == 1
    monkeypatch.setattr(sim, "_usable_cores", lambda: 1)
    assert sim._chunk_count(20_000, 200) == 1
