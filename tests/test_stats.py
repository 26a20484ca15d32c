"""Statistical helpers against scipy oracles and synthetic calibrations."""
import numpy as np
import pytest
from scipy import stats as sps

from mfclt.rng import stream
from mfclt.stats import (
    empirical_cov,
    kolmogorov_sf,
    ks_test_normal,
    loglog_slope,
    normal_cdf,
    normal_quantile,
)


def test_normal_cdf_matches_scipy():
    x = np.linspace(-6, 6, 201)
    assert np.allclose(normal_cdf(x), sps.norm.cdf(x), atol=1e-14)
    assert np.allclose(normal_cdf(x, 1.5, 2.0), sps.norm.cdf(x, 1.5, 2.0),
                       atol=1e-14)


def test_normal_quantile_inverts_cdf():
    p = np.linspace(0.001, 0.999, 97)
    x = normal_quantile(p, -0.3, 1.7)
    assert np.allclose(normal_cdf(x, -0.3, 1.7), p, atol=1e-12)


def test_kolmogorov_sf_matches_scipy():
    for x in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0):
        assert kolmogorov_sf(x) == pytest.approx(sps.kstwobign.sf(x), abs=1e-10)
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(50.0) == 0.0


def test_ks_test_matches_scipy_kstest():
    rng = stream(3, "ks-oracle")
    s = rng.normal(size=500)
    ours = ks_test_normal(s)
    ref = sps.kstest(s, "norm")
    assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
    # scipy uses the exact finite-n law; the asymptotic one agrees to O(1/sqrt n)
    assert ours.pvalue == pytest.approx(ref.pvalue, abs=0.02)


def test_ks_detects_wrong_variance():
    rng = stream(4, "ks-power")
    s = rng.normal(size=4000) * 1.3
    assert ks_test_normal(s, 0.0, 1.0).pvalue < 1e-6
    assert ks_test_normal(s, 0.0, 1.69).pvalue > 0.01


def test_ks_pvalue_calibration_under_null():
    pvals = [ks_test_normal(stream(11, "ks-cal", i).normal(size=200)).pvalue
             for i in range(200)]
    pvals = np.asarray(pvals)
    # p-values should be roughly uniform: mean near 1/2, few tiny ones
    assert abs(pvals.mean() - 0.5) < 0.08
    assert (pvals < 0.01).mean() <= 0.03


def test_empirical_cov_against_numpy_and_jackknife_scale():
    rng = stream(5, "cov")
    x = rng.normal(size=(400, 2)) @ np.array([[1.0, 0.0], [0.7, 0.5]])
    est = empirical_cov(x)
    assert np.allclose(est.cov, np.cov(x, rowvar=False, ddof=1), atol=1e-12)
    # jackknife SE of a variance is near sqrt((m4 - var^2)/R)
    v = x[:, 0]
    m4 = np.mean((v - v.mean()) ** 4)
    want = np.sqrt((m4 - np.var(v, ddof=1) ** 2) / len(v))
    assert est.stderr[0, 0] == pytest.approx(want, rel=0.2)


def test_empirical_cov_needs_three_rows():
    with pytest.raises(ValueError):
        empirical_cov(np.zeros((2, 2)))


def test_loglog_slope_exact_power_law():
    xs = np.array([10.0, 100.0, 1000.0])
    fit = loglog_slope(xs, 5.0 * xs ** -1.5)
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_loglog_slope_rejects_nonpositive():
    with pytest.raises(ValueError):
        loglog_slope([1.0, 2.0], [1.0, 0.0])
