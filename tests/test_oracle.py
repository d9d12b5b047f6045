"""Finite-sample mean-curve targets and leading bias expansions."""

import numpy as np
import pytest

import exindex as ex

MM_SPEC = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)


def test_theta_nt_wn_r1_identity():
    for psi in (0.0, 0.3, 0.6):
        for t in (0.1, 0.5, 1.0):
            assert ex.theta_nt_wn(psi, 1, 0.01, t) == pytest.approx(1.0, abs=1e-12)


def test_theta_nt_wn_formula():
    psi, r, v, t = 0.6, 10, 0.01, 0.7
    theta = 1.0 - psi
    vt = v * t
    expect = (1.0 - (1.0 - vt) * (1.0 - theta * vt) ** (r - 1)) / (r * vt)
    assert ex.theta_nt_wn(psi, r, v, t) == expect
    # the block-exceedance probability is r v t theta_nt
    assert r * vt * ex.theta_nt_wn(psi, r, v, t) == pytest.approx(
        1.0 - (1.0 - vt) * (1.0 - theta * vt) ** (r - 1), rel=1e-12
    )


def test_theta_nt_wn_decreasing_in_t():
    grid = np.linspace(0.05, 1.0, 20)
    vals = [ex.theta_nt_wn(0.6, 10, 0.01, t) for t in grid]
    assert (np.diff(vals) < 0).all()


def test_theta_nt_wn_validation():
    with pytest.raises(ValueError):
        ex.theta_nt_wn(1.0, 10, 0.01, 1.0)
    with pytest.raises(ValueError):
        ex.theta_nt_wn(0.6, 0, 0.01, 1.0)
    with pytest.raises(ValueError):
        ex.theta_nt_wn(0.6, 10, 0.01, 0.0)


def test_theta_nt_iid_formula():
    r, v, t = 10, 0.01, 1.0
    assert ex.theta_nt_wn(0.0, r, v, t) == pytest.approx(
        (1.0 - (1.0 - v * t) ** r) / (r * v * t), rel=1e-12
    )
    assert ex.theta_nt_wn(0.0, 1, 0.05, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_bias_expansion_wn_values():
    exp = ex.bias_expansion_wn(0.6, 20, 0.02)
    assert exp.theta == pytest.approx(0.4)
    assert exp.theta_n == pytest.approx(0.43)  # theta + (1 - theta) / r
    assert exp.c_n == pytest.approx(-0.032)  # -theta^2 r v / 2
    assert exp.delta == 1.0
    assert exp.curve(0.5) == pytest.approx(0.43 - 0.016)
    exp2 = ex.bias_expansion_wn(0.6, 10, 0.01)
    assert exp2.theta_n == pytest.approx(0.46)
    assert exp2.c_n == pytest.approx(-0.008)


def test_wn_expansion_remainder_bound():
    # the exact curve minus the linear model stays within 0.5 * (v + r^2 v^2)
    for psi in (0.2, 0.6):
        for r, v in ((5, 0.01), (10, 0.01), (20, 0.02), (10, 0.05)):
            exp = ex.bias_expansion_wn(psi, r, v)
            bound = 0.5 * (v + r * r * v * v)
            for t in np.linspace(0.05, 1.0, 20):
                resid = ex.theta_nt_wn(psi, r, v, t) - float(exp.curve(t))
                assert abs(resid) <= bound


def test_mm_block_nonexceed_r1_is_marginal_cdf():
    marg = MM_SPEC.marginal
    for u in (2.0, 5.0, 20.0):
        assert ex.mm_block_nonexceed(MM_SPEC, 1, u) == pytest.approx(marg.cdf(u), rel=1e-12)


def test_mm_block_nonexceed_product_structure():
    # r=3, coeffs (1, 0.5): innovation Z_0 only reaches the block through 0.5
    inn = MM_SPEC.innovation
    for u in (3.0, 8.0):
        expect = inn.cdf(2.0 * u) * inn.cdf(u) ** 3
        assert ex.mm_block_nonexceed(MM_SPEC, 3, u) == pytest.approx(expect, rel=1e-12)


def distinct_coefficients(spec, r_list):
    """The distinct positive psi*_m over the r-blocks: max psi_j over 0 <= j <= q with 1 <= m + j <= r."""
    q = spec.q
    return {
        best
        for r in r_list
        for m in range(1 - q, r + 1)
        if (best := max((spec.coeffs[j] for j in range(q + 1) if 1 <= m + j <= r), default=0.0))
        > 0.0
    }


@pytest.mark.parametrize(
    "coeffs, r_list, calls",
    [((1.0, 0.5), (5, 10, 20), 162), ((0.3, 1.0, 0.0, 0.8), (1, 2, 7), None)],
)
def test_mm_oracle_calls_the_innovation_cdf_once_per_level_and_coefficient(
    monkeypatch, coeffs, r_list, calls
):
    # the first case is the benchmark's moving-maxima figure: 81 levels, 2 coefficients
    spec = ex.MovingMaxima(coeffs=coeffs, beta1=2, beta2=1, c1=1, c2=0.5)
    v, grid = 0.1, np.linspace(0.2, 1.0, 81)
    want = [ex.theta_nt_mm_exact(spec, r, v, grid) for r in r_list]
    expected = len(grid) * len(distinct_coefficients(spec, r_list))
    assert calls in (None, expected)
    cdf = ex.SecondOrderPareto.cdf
    scalar = []  # the marginal's inversion calls the cdf on arrays

    def counted(self, x):
        if np.ndim(x) == 0:
            scalar.append(x)
        return cdf(self, x)

    monkeypatch.setattr(ex.SecondOrderPareto, "cdf", counted)
    got = ex.theta_nt_mm_exact(spec, r_list, v, grid)
    assert len(scalar) == expected
    for row, per_r in zip(got, want):
        assert [x.hex() for x in row.tolist()] == [x.hex() for x in per_r.tolist()]


def test_theta_nt_mm_consistency():
    val = ex.theta_nt_mm_exact(MM_SPEC, 50, 0.005, 1.0)
    u = MM_SPEC.marginal.quantile(1.0 - 0.005)
    prob = 1.0 - ex.mm_block_nonexceed(MM_SPEC, 50, u)
    assert val == pytest.approx(prob / (50 * 0.005), rel=1e-12)
    assert 0.0 < val <= 1.0


def test_theta_nt_mm_single_coeff_matches_iid():
    spec = ex.MovingMaxima(coeffs=(1.0,), beta1=2, beta2=1, c1=1, c2=0.5)
    for r, v, t in ((10, 0.01, 1.0), (20, 0.005, 0.5)):
        assert ex.theta_nt_mm_exact(spec, r, v, t) == pytest.approx(
            ex.theta_nt_wn(0.0, r, v, t), abs=1e-10
        )


def test_theta_nt_mm_matches_simulation():
    marg = MM_SPEC.marginal
    exact = ex.theta_nt_mm_exact(MM_SPEC, 50, 0.005, 1.0)
    cfg = ex.EstimatorConfig(r=50, k=100)
    vals = np.array(
        [
            ex.blocks_true_quantile(
                ex.generate(MM_SPEC, 20_000, ex.substream(0, rep)).values,
                cfg,
                1.0,
                marg.quantile,
            )
            for rep in range(300)
        ]
    )
    band = 3.0 * vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= band


def test_mm_expansion_d_sign_follows_c2():
    rep = ex.bias_expansion_mm(MM_SPEC, 10, 0.01)
    assert rep.diagnostics["d"] > 0.0  # c2 = +0.5
    neg = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=0.5, c1=1, c2=-0.2)
    assert ex.bias_expansion_mm(neg, 10, 0.01).diagnostics["d"] < 0.0
    flat = ex.MovingMaxima(coeffs=(1.0,), beta1=2, beta2=1, c1=1, c2=0.5)
    assert ex.bias_expansion_mm(flat, 10, 0.01).diagnostics["d"] == pytest.approx(0.0)


def test_mm_expansion_theta_and_branches():
    rep = ex.bias_expansion_mm(MM_SPEC, 10, 0.01)
    assert rep.theta == pytest.approx(0.8)  # 1 / (1 + 0.25)
    # beta2/beta1 = 0.5 makes the power-regime inequalities contradictory
    assert rep.selected == "linear"
    assert rep.expansion is rep.linear
    assert rep.expansion.delta == 1.0
    assert rep.expansion.c_n == pytest.approx(-0.5 * 0.8**2 * 10 * 0.01)
    assert rep.power.delta == 0.5
    for key in ("d", "r*v^(b2/b1)", "r*v^(1-b2/b1)", "beta2<beta1"):
        assert key in rep.diagnostics


def test_mm_expansion_power_branch_selection():
    spec = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=0.5, c1=1, c2=0.5)
    # ratio 0.25: grow = r v^0.25 > 1 and shrink = r v^0.75 < 1 both hold
    rep = ex.bias_expansion_mm(spec, 100, 1e-4)
    assert rep.selected == "power"
    assert rep.expansion is rep.power
    assert rep.expansion.delta == 0.25
    assert rep.expansion.c_n == pytest.approx(rep.diagnostics["d"] * (1e-4) ** 0.25)
    # same spec in a short-window regime falls back to the linear branch
    assert ex.bias_expansion_mm(spec, 2, 1e-4).selected == "linear"


def test_mm_power_expansion_converges():
    # along r = v^(-1/2) the exact curve approaches the power expansion at rate
    # faster than v^(1/4): normalized residuals at t=1 decrease strictly
    spec = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=0.5, c1=1, c2=0.5)
    resid = []
    for v in (1e-2, 1e-3, 1e-4, 1e-5):
        r = int(round(v**-0.5))
        rep = ex.bias_expansion_mm(spec, r, v)
        assert rep.selected == "power"
        resid.append(abs(ex.theta_nt_mm_exact(spec, r, v, 1.0) - float(rep.expansion.curve(1.0))) / v**0.25)
    assert all(b < a for a, b in zip(resid, resid[1:]))


def test_iid_kernel_is_closed_form():
    kern = ex.ClosedFormIID()
    assert kern.c(0.5, 1.0) == 0.0
    assert kern.c_g(0.3, 0.6) == 0.3
