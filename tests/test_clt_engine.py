"""Monte Carlo CLT harness and the martingale decomposition.

Variance oracles are closed forms under the standard normal: the mean has
variance 1, the second moment has Var(x^2) = 2, the cube of the second
moment linearizes to 3 m2^2 x^2 with variance 18, and the median carries
v(1-v)/pdf(q)^2 = pi/2.
"""
import numpy as np
import pytest

from mfclt.clt_engine import (
    EngineError,
    asymptotic_variance,
    decompose_many,
    martingale_decomposition,
    martingale_increment_regression,
    remainder_scaling,
    run_clt_experiment,
    sqrtn_l1_check,
)
from mfclt.functionals import Linear, make_functional
from mfclt.laws import SamplerSpec, as_law
from mfclt.measures import DiscreteMeasure
from mfclt.rng import stream

NORMAL = SamplerSpec.normal(0.0, 1.0)


# ---------------------------------------------------------------------------
# asymptotic variance oracles


@pytest.mark.parametrize("name,want", [
    ("linear-mean", 1.0),
    ("linear-square", 2.0),
    ("cube-of-second-moment", 18.0),
    ("quantile:0.5", np.pi / 2),
])
def test_variance_closed_forms(name, want):
    est = asymptotic_variance(make_functional(name), NORMAL)
    assert est.value == pytest.approx(want, rel=1e-3)
    assert not est.degenerate


@pytest.mark.parametrize("name", ["mean-square", "sin-five-halves"])
def test_degenerate_at_standard_normal(name):
    est = asymptotic_variance(make_functional(name), NORMAL)
    assert est.degenerate
    assert est.value < 1e-10


def test_variance_exact_on_atoms():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    est = asymptotic_variance(make_functional("linear-mean"), mu)
    assert est.method == "exact-atoms"
    assert est.value == pytest.approx(0.25, rel=1e-12)
    assert est.stderr == 0.0


def test_mean_square_not_degenerate_off_center():
    est = asymptotic_variance(make_functional("mean-square"),
                              SamplerSpec.normal(0.7, 1.0))
    # Var(2 m x) = 4 m^2 Var(x) = 4 * 0.49
    assert est.value == pytest.approx(1.96, rel=1e-3)
    assert not est.degenerate


# ---------------------------------------------------------------------------
# CLT replications


def test_clt_linear_mean_gaussian():
    rep = run_clt_experiment(make_functional("linear-mean"), NORMAL,
                             n=2000, r=400, seed=7)
    assert rep.sigma2_theory == pytest.approx(1.0, rel=1e-3)
    assert rep.sigma2_empirical == pytest.approx(1.0, rel=0.2)
    assert rep.ks_pvalue > 0.01
    assert not rep.degenerate


def test_clt_asymmetric_law_still_gaussian():
    spec = SamplerSpec.callback(
        lambda rng, n: rng.exponential(size=(n, 1)) - 1.0, dim=1,
        label="centered-exponential")
    rep = run_clt_experiment(make_functional("linear-mean"), spec,
                             n=4000, r=400, seed=11)
    assert rep.sigma2_theory == pytest.approx(1.0, rel=0.02)
    assert rep.ks_pvalue > 0.01


def test_clt_negative_control_rejects_heavy_tails():
    # infinite-variance base law: sqrt(N) scaling has no Gaussian limit,
    # so the KS gate must fail loudly rather than rubber-stamp the run
    spec = SamplerSpec.callback(
        lambda rng, n: rng.pareto(1.5, size=(n, 1)) + 1.0, dim=1,
        label="pareto-1.5")
    rep = run_clt_experiment(make_functional("linear-mean"), spec,
                             n=200, r=500, seed=13)
    assert rep.ks_pvalue < 1e-6


def test_clt_degenerate_case_shrinks():
    rep1 = run_clt_experiment(make_functional("mean-square"), NORMAL,
                              n=1000, r=300, seed=5)
    rep2 = run_clt_experiment(make_functional("mean-square"), NORMAL,
                              n=10_000, r=300, seed=5)
    assert rep1.degenerate and rep2.degenerate
    assert np.isnan(rep1.ks_stat)
    assert rep2.sigma2_empirical < rep1.sigma2_empirical
    assert rep2.sigma2_empirical < 0.05


def test_clt_worker_determinism():
    kw = dict(n=500, r=60, seed=3)
    u = make_functional("linear-square")
    a = run_clt_experiment(u, NORMAL, workers=1, **kw)
    b = run_clt_experiment(u, NORMAL, workers=4, **kw)
    assert np.array_equal(a.samples, b.samples)


def test_clt_report_metadata():
    rep = run_clt_experiment(make_functional("linear-mean"), NORMAL,
                             n=200, r=50, seed=1)
    assert rep.n == 200 and rep.replications == 50 and rep.seed == 1
    assert rep.samples.shape == (50,)
    assert rep.d_metric_branch in ("m0-discrete", "m0-general")


# ---------------------------------------------------------------------------
# martingale decomposition


@pytest.mark.parametrize("name", ["linear-mean", "linear-square",
                                  "mean-square", "cube-of-second-moment",
                                  "ustat-product"])
def test_identity_exact_for_moment_functionals(name):
    u = make_functional(name)
    law = as_law(NORMAL)
    pts = law.sample(stream(61, "decomp", name), 200)
    rec = martingale_decomposition(u, NORMAL, pts)
    assert rec.identity_residual < 1e-10


def test_linear_functional_has_zero_remainder():
    u = make_functional("linear-square")
    pts = as_law(NORMAL).sample(stream(62, "linear-rn"), 300)
    rec = martingale_decomposition(u, NORMAL, pts)
    assert rec.r_n == pytest.approx(0.0, abs=1e-14)
    assert rec.q_n == pytest.approx(rec.delta_u, rel=1e-12)


def test_generic_route_agrees_with_moment_route():
    fast = make_functional("mean-square")
    slow_phi = lambda x, y: x[..., 0] * y[..., 0]
    from mfclt.functionals import UStatistic
    slow = UStatistic(slow_phi, 2, dim=1)  # no product kernel: generic route
    assert slow.moment_form() is None
    mu = DiscreteMeasure(np.array([[-1.0], [0.5], [2.0]]),
                         np.array([0.25, 0.5, 0.25]))
    pts = np.array([[0.3], [-0.7], [1.1], [0.2]])
    a = martingale_decomposition(fast, mu, pts)
    b = martingale_decomposition(slow, mu, pts)
    assert a.delta_u == pytest.approx(b.delta_u, rel=1e-9)
    assert a.q_n == pytest.approx(b.q_n, rel=1e-7, abs=1e-9)
    assert a.r_n == pytest.approx(b.r_n, rel=1e-6, abs=1e-9)
    assert b.identity_residual < 1e-8


def test_martingale_increments_mean_zero():
    u = make_functional("mean-square")
    recs = decompose_many(u, NORMAL, n=300, r=400, seed=17,
                          keep_increments=True)
    increments = np.stack([r.increments for r in recs])  # (R, N)
    # column means are averages of martingale increments: ~0 at rate 1/sqrt R
    col = increments.mean(axis=0)
    scale = increments.std(axis=0) / np.sqrt(len(recs))
    assert np.all(np.abs(col) < 5 * scale + 1e-12)


def test_increment_regression_finds_no_signal():
    u = make_functional("mean-square")
    results = martingale_increment_regression(u, NORMAL, n=200, r=300, seed=19)
    for reg in results:
        # every coefficient statistically indistinguishable from zero
        assert np.all(np.abs(reg.tstat) < 4.0), (reg.index, reg.tstat)


def test_qn_variance_matches_theory():
    # Var(Q_N) -> Var(dU/dm) / N * N = sigma2; scaled by N it matches theory
    u = make_functional("cube-of-second-moment")
    recs = decompose_many(u, NORMAL, n=400, r=800, seed=23)
    qn = np.asarray([r.q_n for r in recs])
    sigma2 = asymptotic_variance(u, NORMAL).value
    assert 400 * qn.var() == pytest.approx(sigma2, rel=0.15)


# ---------------------------------------------------------------------------
# remainder scaling and the sqrt(N) L1 bound


def test_remainder_scaling_mean_square():
    rep = remainder_scaling(make_functional("mean-square"), NORMAL,
                            n_grid=(100, 316, 1000), r=200, seed=29)
    assert rep.slope <= -0.5
    assert rep.r_squared > 0.9
    assert not rep.degenerate


def test_remainder_scaling_degenerate_for_linear():
    rep = remainder_scaling(make_functional("linear-square"), NORMAL,
                            n_grid=(100, 316), r=50, seed=31)
    assert rep.degenerate
    assert rep.slope == -np.inf


def test_sqrtn_l1_bounded():
    vals = sqrtn_l1_check(make_functional("cube-of-second-moment"), NORMAL,
                          n_grid=(100, 316, 1000), r=200, seed=37)
    vals = np.asarray(vals)
    assert vals.max() / vals.min() < 3.0


# ---------------------------------------------------------------------------
# error paths


def test_run_needs_positive_sizes():
    u = make_functional("linear-mean")
    with pytest.raises(EngineError):
        run_clt_experiment(u, NORMAL, n=0, r=10, seed=1)
    with pytest.raises(EngineError):
        run_clt_experiment(u, NORMAL, n=10, r=0, seed=1)


def test_scaling_needs_two_grid_points():
    with pytest.raises(EngineError):
        remainder_scaling(make_functional("mean-square"), NORMAL,
                          n_grid=(100,), r=10, seed=1)
