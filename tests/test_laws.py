"""Sampling laws: specs, stratified proxies, quantiles, mixtures."""
import numpy as np
import pytest
from scipy import stats as sps

from mfclt.laws import Law, LawError, MixtureLaw, SamplerSpec, as_law
from mfclt.measures import DiscreteMeasure
from mfclt.rng import stream


def test_normal_spec_moments():
    law = as_law(SamplerSpec.normal(1.5, 2.0))
    x = law.sample(stream(1, "laws"), 200_000)[:, 0]
    assert x.mean() == pytest.approx(1.5, abs=0.02)
    assert x.std() == pytest.approx(2.0, abs=0.02)
    assert law.moment(2.0) == pytest.approx(1.5 ** 2 + 4.0, rel=1e-6)


def test_uniform_spec_cdf_pdf_quantile():
    law = as_law(SamplerSpec.uniform(-1.0, 3.0))
    assert law.cdf(1.0) == pytest.approx(0.5)
    assert law.pdf(0.0) == pytest.approx(0.25)
    assert law.quantile(0.25) == pytest.approx(0.0)
    assert law.quantile(0.5) == pytest.approx(1.0)


def test_normal_quantile_matches_scipy():
    law = as_law(SamplerSpec.normal(0.3, 1.2))
    for v in (0.1, 0.5, 0.9):
        assert law.quantile(v) == pytest.approx(sps.norm.ppf(v, 0.3, 1.2),
                                                abs=1e-9)


def test_proxy_measure_integrates_accurately():
    law = as_law(SamplerSpec.normal(0.0, 1.0))
    proxy = law.proxy_measure(4096)
    assert proxy.expect(lambda p: p[:, 0] ** 2) == pytest.approx(1.0, abs=1e-3)
    assert proxy.expect(lambda p: p[:, 0]) == pytest.approx(0.0, abs=1e-12)


def test_expect_uses_quadrature_for_1d():
    law = as_law(SamplerSpec.normal(0.0, 1.0))
    # E sin(x)^2 = (1 - e^{-2})/2 for standard normal
    want = 0.5 * (1.0 - np.exp(-2.0))
    assert law.expect(lambda p: np.sin(p[:, 0]) ** 2) == pytest.approx(
        want, abs=1e-6)


def test_discrete_spec_round_trip():
    mu = DiscreteMeasure(np.array([[0.0], [2.0]]), np.array([0.25, 0.75]))
    assert as_law(mu) is mu  # bare measures pass through unchanged
    assert as_law(SamplerSpec.discrete(mu)) is mu  # atom specs unwrap too
    law = Law(SamplerSpec.discrete(mu))
    assert law.is_discrete
    assert law.quantile(0.2) == pytest.approx(0.0)
    assert law.quantile(0.5) == pytest.approx(2.0)
    draws = law.sample(stream(2, "laws"), 50_000)[:, 0]
    assert (draws == 2.0).mean() == pytest.approx(0.75, abs=0.01)


def test_callback_spec():
    spec = SamplerSpec.callback(
        lambda rng, n: rng.exponential(size=(n, 1)), dim=1,
        label="exp")
    law = as_law(spec)
    x = law.sample(stream(3, "laws"), 100_000)[:, 0]
    assert x.mean() == pytest.approx(1.0, abs=0.02)
    assert law.dim == 1


def test_mixture_law_quantile_and_moments():
    mix = MixtureLaw([
        (0.5, as_law(SamplerSpec.normal(-2.0, 1.0))),
        (0.5, as_law(SamplerSpec.normal(2.0, 1.0))),
    ])
    assert mix.cdf(0.0) == pytest.approx(0.5, abs=1e-9)
    assert mix.quantile(0.5) == pytest.approx(0.0, abs=1e-8)
    want = 0.5 * sps.norm.ppf(0.4 / 0.5 * 0.5, -2.0, 1.0)  # sanity: negative side
    assert mix.quantile(0.25) < 0 < mix.quantile(0.75)
    assert mix.moment(2.0) == pytest.approx(5.0, rel=1e-6)


def test_as_law_passthrough_and_errors():
    law = as_law(SamplerSpec.normal())
    assert as_law(law) is law
    mix = MixtureLaw([(1.0, as_law(SamplerSpec.uniform()))])
    assert as_law(mix) is mix
    with pytest.raises(LawError):
        as_law(42)


def test_bad_specs_rejected():
    with pytest.raises(LawError):
        SamplerSpec.normal(0.0, -1.0)
    with pytest.raises(LawError):
        SamplerSpec.uniform(2.0, 1.0)
    nan, inf = float("nan"), float("inf")
    for make, args in [(SamplerSpec.normal, (nan, 1.0)),
                       (SamplerSpec.normal, (0.0, nan)),
                       (SamplerSpec.normal, (0.0, inf)),
                       (SamplerSpec.uniform, (0.0, inf)),
                       (SamplerSpec.uniform, (nan, 1.0))]:
        with pytest.raises(LawError, match="finite"):
            make(*args)


def test_stratified_proxy_levels_are_midpoints():
    law = as_law(SamplerSpec.uniform(0.0, 1.0))
    pts = law.proxy_points(4)[:, 0]
    assert np.allclose(sorted(pts), [0.125, 0.375, 0.625, 0.875])
