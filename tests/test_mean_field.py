"""Interacting-particle simulation and the mean-field fluctuation machinery.

Oracles are closed forms under Euler dynamics: an OU cloud started at the
Dirac at x0 has mean x0 * (1 - dt)^k after k steps, and the OU fluctuation
covariance is Sigma_ij = e^{-(ti+tj)} (1 + (e^{2 min(ti,tj)} - 1) / 2).
"""
import hashlib

import numpy as np
import pytest

import mfclt.mean_field as mean_field
from mfclt.functionals import Linear, SmoothOfLinear, evaluate, make_functional
from mfclt.laws import SamplerSpec, as_law
from mfclt.measures import DiscreteMeasure
from mfclt.mean_field import (
    BatchEmpirical,
    CovarianceConfig,
    MasterEvaluator,
    MeanFieldError,
    MkvModel,
    cramer_wold_normality,
    fluctuation_process,
    fourth_moment_bound_probe,
    make_model,
    master_equation_residual,
    master_lderiv,
    master_lfd,
    master_lfd2,
    master_value,
    model_names,
    reference_spread,
    simulate_limit_reference,
    simulate_particles,
    theoretical_covariance,
    theta_second_derivative,
    time_regularity_probe,
)
from mfclt.mean_field import (
    _adjoint_lderiv,
    _base_cloud,
    _integrate,
    _master_noise,
    _stratified_initial,
    master_lfd_batch,
)
from mfclt.rng import stream

LINEAR_MEAN = make_functional("linear-mean")


def euler_factor(t: float, dt: float = 0.01) -> float:
    return (1.0 - dt) ** round(t / dt)


def dirac(x: float) -> SamplerSpec:
    return SamplerSpec.discrete(DiscreteMeasure(np.array([[float(x)]])))


def mean_revert_half() -> MkvModel:
    # mean-revert started off centre, at N(1/2, 1)
    base = make_model("mean-revert")
    return MkvModel("mean-revert-half", base.drift, base.sigma,
                    SamplerSpec.normal(0.5, 1.0), drift_vjp=base.drift_vjp)


def ou_from(x0: float) -> MkvModel:
    base = make_model("ou")
    return MkvModel("ou-dirac", base.drift, base.sigma, dirac(x0),
                    flags=frozenset({"is_dirac_initial"}),
                    drift_vjp=base.drift_vjp)


# ---------------------------------------------------------------------------
# models and the batched empirical view


def test_model_registry():
    assert model_names() == ["bounded-sine", "mean-revert", "ou"]
    with pytest.raises(MeanFieldError, match="mean-revert"):
        make_model("nope")


@pytest.mark.parametrize("name", ["ou", "mean-revert", "bounded-sine"])
def test_drift_vjp_dot_product(name):
    # <J dx, w rho> = <dx, w vjp(rho)> for the drift map of a weighted cloud,
    # J dx by a central difference (exact for the linear models)
    model = make_model(name)
    rng = stream(5, "vjp-dot", name)
    x, dx, rho = (rng.normal(size=(1, 7, 1)) for _ in range(3))
    w = rng.uniform(0.1, 1.0, size=7)
    w /= w.sum()

    def drift(p):
        return model.drift(p, BatchEmpirical(p, w))

    h = 1e-6
    jdx = (drift(x + h * dx) - drift(x - h * dx)) / (2 * h)
    lhs = float(np.sum(w[:, None] * jdx[0] * rho[0]))
    vjp = model.drift_vjp(x, BatchEmpirical(x, w), rho)
    rhs = float(np.sum(w[:, None] * dx[0] * vjp[0]))
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)


def test_batch_empirical_weighted_expectations():
    pts = np.arange(6, dtype=float).reshape(1, 6, 1)
    w = np.array([[0.5, 0.1, 0.1, 0.1, 0.1, 0.1]])
    mu = BatchEmpirical(pts, w)
    assert mu.expect(lambda p: p[..., 0])[0, 0] == pytest.approx(1.5)
    assert mu.mean()[0, 0, 0] == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# integrator oracles


def test_frozen_dynamics_is_exactly_constant():
    frozen = MkvModel("frozen", lambda x, mu: np.zeros_like(x), 0.0, dirac(1.5))
    path = simulate_particles(frozen, n=8, dt=0.01, t=0.5, seed=1)
    assert np.all(path == 1.5)


def test_ou_dirac_mean_matches_euler_factor():
    # zero-noise mean dynamics: antithetic reference kills the noise average
    final, _ = simulate_limit_reference(ou_from(1.0), m=2000, dt=0.01, t=1.0,
                                        seed=3)
    assert final.shape == (2000, 1)
    assert final.mean() == pytest.approx(euler_factor(1.0), abs=1e-12)


def test_ou_cloud_variance_matches_discrete_recursion():
    dt, t = 0.01, 1.0
    final, _ = simulate_limit_reference(ou_from(0.0), m=4000, dt=dt, t=t,
                                        seed=4)
    # Var_{k+1} = (1-dt)^2 Var_k + dt has fixed point dt/(1-(1-dt)^2)
    var = 0.0
    for _ in range(round(t / dt)):
        var = (1.0 - dt) ** 2 * var + dt
    assert final.var() == pytest.approx(var, rel=0.05)


def test_mean_conservation_two_particles():
    # drift mu.mean() - x with zero diffusion keeps the empirical mean fixed:
    # exact in real arithmetic, one or two ulps of drift in floating point
    model = MkvModel(
        "conserve", lambda x, mu: mu.mean() - x, 0.0,
        SamplerSpec.callback(lambda rng, n: np.array([[0.0], [2.0]])[:n],
                             dim=1, label="pair"))
    path = simulate_particles(model, n=2, dt=0.01, t=1.0, seed=5)
    means = path.mean(axis=1)[:, 0]
    assert np.all(np.abs(means - 1.0) < 1e-12)
    assert np.max(np.abs(np.diff(means))) < 5e-16


def test_off_grid_time_rejected():
    with pytest.raises(MeanFieldError, match="grid"):
        simulate_particles(make_model("ou"), n=4, dt=0.01, t=0.505, seed=1)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_exploding_dynamics_raises_with_step_info():
    hot = MkvModel("hot", lambda x, mu: x ** 3 * 1e6, 1.0, SamplerSpec.normal())
    with pytest.raises(MeanFieldError, match="non-finite"):
        simulate_particles(hot, n=16, dt=0.01, t=1.0, seed=6)


def test_particle_paths_deterministic_in_seed():
    a = simulate_particles(make_model("ou"), n=32, dt=0.01, t=0.25, seed=7)
    b = simulate_particles(make_model("ou"), n=32, dt=0.01, t=0.25, seed=7)
    c = simulate_particles(make_model("ou"), n=32, dt=0.01, t=0.25, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (26, 32, 1)


def test_stratified_initial_samples_callback_law_without_cdf():
    spec = SamplerSpec.callback(lambda rng, n: rng.normal(size=(n, 1)))
    cloud = _stratified_initial(spec, 6, stream(3, "init"))
    assert np.array_equal(cloud, stream(3, "init").normal(size=(6, 1)))


def test_stratified_initial_propagates_cdf_failures():
    def broken_cdf(x):
        raise RuntimeError("cdf callback failed")

    spec = SamplerSpec.callback(lambda rng, n: rng.normal(size=(n, 1)),
                                cdf_fn=broken_cdf)
    with pytest.raises(RuntimeError, match="cdf callback failed"):
        _stratified_initial(spec, 6, stream(3, "init"))


def test_reference_spread_is_small_for_big_clouds():
    final, _ = simulate_limit_reference(make_model("ou"), m=4000, dt=0.01,
                                        t=0.5, seed=9)
    assert abs(reference_spread(LINEAR_MEAN, final)) < 0.05


# ---------------------------------------------------------------------------
# fluctuation process


def test_fluctuation_report_shapes_and_determinism():
    kw = dict(n=200, times=(0.25, 0.5), r=40, seed=11, dt=0.01)
    rep1 = fluctuation_process(LINEAR_MEAN, make_model("ou"), workers=1, **kw)
    rep4 = fluctuation_process(LINEAR_MEAN, make_model("ou"), workers=4, **kw)
    assert rep1.f_samples.shape == (40, 2)
    assert np.array_equal(rep1.f_samples, rep4.f_samples)
    assert rep1.ref_size == 2000
    assert rep1.sigma_empirical.shape == (2, 2)


def one_run_at_a_time(model, n, dt, snap_steps, init_rng, noise_rng):
    """The N-particle Euler run of one replication on its own, as a loop:
    the reference the chunked driver must reproduce bit for bit."""
    x = model.initial.sample(init_rng, n)[None]
    root_dt, clouds = np.sqrt(dt), []
    for k in range(snap_steps[-1] + 1):
        clouds += [x[0]] * snap_steps.count(k)
        if k < snap_steps[-1]:
            mu = BatchEmpirical(x)
            xi = noise_rng.standard_normal((n, model.dim))
            x = x + model.drift(x, mu) * dt + root_dt * (model.sigma * xi)
    return clouds


def test_two_dimensional_model_gives_each_coordinate_its_own_noise():
    # sigma I_2: the driver reproduces the loop bit for bit, and the noise
    # part of each step, x_{k+1} - (1 - dt) x_k, differs between coordinates
    model = MkvModel("ou-2d", lambda x, mu: -x, 0.5, SamplerSpec.normal(dim=2),
                     drift_vjp=lambda x, mu, rho: -rho)
    assert model.dim == 2
    path = simulate_particles(model, n=16, dt=0.01, t=0.1, seed=53)
    want = one_run_at_a_time(model, 16, 0.01, list(range(11)),
                             stream(53, "particles"),
                             stream(53, "particles-noise"))
    assert path.shape == (11, 16, 2)
    assert path.tolist() == np.asarray(want).tolist()
    kicks = path[1:] - 0.99 * path[:-1]
    assert np.all(np.abs(kicks[..., 0] - kicks[..., 1]) > 1e-9)


@pytest.mark.parametrize("model_name", ["ou", "mean-revert", "bounded-sine"])
def test_fluctuation_chunks_equal_one_run_at_a_time(model_name):
    # r = 23 is two full chunks of ten and a partial one
    model, phi = make_model(model_name), make_functional("mean-square")
    n, times, r, seed = 30, (0.05, 0.1), 23, 47
    _, ref = simulate_limit_reference(model, 10 * n, 0.01, times[-1], seed,
                                      snapshot_times=times)
    ref_values = np.asarray([mean_field._phi_on_cloud(phi, ref[t])
                             for t in times])
    want = []
    for rep in range(r):
        clouds = one_run_at_a_time(model, n, 0.01, [5, 10],
                                   stream(seed, "fluct-init", rep),
                                   stream(seed, "fluct-noise", rep))
        values = np.asarray([mean_field._phi_on_cloud(phi, c) for c in clouds])
        want.append(float(np.sqrt(n)) * (values - ref_values))
    for workers in (1, 3):
        got = fluctuation_process(phi, model, n, times, r, seed, workers=workers)
        assert got.f_samples.tolist() == np.asarray(want).tolist(), workers


@pytest.mark.parametrize("model_name", ["ou", "mean-revert", "bounded-sine"])
def test_time_regularity_chunks_equal_one_run_at_a_time(model_name):
    model, seed, r = make_model(model_name), 49, 23
    _, ref = simulate_limit_reference(model, 10 * 20, 0.01, 0.1, seed,
                                      snapshot_times=(0.05, 0.1))
    ref1, ref2 = (mean_field._phi_on_cloud(LINEAR_MEAN, ref[t])
                  for t in (0.05, 0.1))
    want = []
    for n in (10, 20):
        acc = 0.0
        for rep in range(r):
            at1, at2 = one_run_at_a_time(model, n, 0.01, [5, 10],
                                         stream(seed, "time-reg-init", n, rep),
                                         stream(seed, "time-reg-noise", n, rep))
            d2 = mean_field._phi_on_cloud(LINEAR_MEAN, at2) - ref2
            d1 = mean_field._phi_on_cloud(LINEAR_MEAN, at1) - ref1
            acc += (d2 - d1) ** 4
        want.append(acc / r)
    probe = time_regularity_probe(LINEAR_MEAN, model, 0.05, 0.1, (10, 20), r,
                                  seed)
    assert probe.values == tuple(want)


@pytest.mark.parametrize("kw", [dict(r=2), dict(n=0), dict(ref_size=2)])
def test_fluctuation_rejects_too_small_runs(kw):
    args = {"n": 20, "times": (0.1,), "r": 5, "seed": 1, **kw}
    with pytest.raises(MeanFieldError, match="r >= 3"):
        fluctuation_process(LINEAR_MEAN, make_model("ou"), **args)


def test_fluctuation_variance_near_ou_closed_form():
    rep = fluctuation_process(LINEAR_MEAN, make_model("ou"), n=400,
                              times=(1.0,), r=300, seed=13)
    want = np.exp(-2.0) * (1.0 + (np.exp(2.0) - 1.0) / 2.0)
    got = rep.sigma_empirical[0, 0]
    assert got == pytest.approx(want, abs=4 * rep.sigma_empirical_stderr[0, 0]
                                + 0.05 * want)


# ---------------------------------------------------------------------------
# master-function evaluator: OU + Linear is exact


def test_master_value_linear_ou():
    ev = MasterEvaluator(LINEAR_MEAN, ou_from(1.0), m=2000, dt=0.01)
    got = master_value(ev, 0.5, dirac(1.0), seed=15)
    assert got == pytest.approx(euler_factor(0.5), abs=1e-12)
    # t = 0 evaluates the functional directly
    assert master_value(ev, 0.0, dirac(1.0), seed=15) == pytest.approx(1.0)


def test_master_lfd_linear_ou_is_discounted_identity():
    ev = MasterEvaluator(LINEAR_MEAN, make_model("ou"), m=2000, dt=0.01)
    nu = DiscreteMeasure(np.array([[0.3], [-0.8]]))
    for y in (0.7, -1.2):
        got = master_lfd(ev, 0.5, nu, y, seed=17)
        assert got == pytest.approx(euler_factor(0.5) * y, abs=1e-10)


@pytest.mark.parametrize("atoms, weights", [
    ([-1.0, -0.3, 0.2, 0.9, 1.6], None),  # odd count: once raised
    ([-1.0, -0.3, 0.2, 0.9, 1.6, 2.4], [0.3, 0.1, 0.1, 0.2, 0.1, 0.2]),
])
def test_master_cloud_of_many_atoms_keeps_pairs_on_one_point(atoms, weights):
    # more atoms than m / 2: the cloud is thinned, and each antithetic pair
    # sits on one point, so under OU x linear-mean the noise of every pair
    # cancels and V is the Euler factor times the cloud's mean
    nu = DiscreteMeasure(np.array(atoms)[:, None],
                         None if weights is None else np.array(weights))
    ev = MasterEvaluator(LINEAR_MEAN, make_model("ou"), m=8, dt=0.01)
    pts, base_w = _base_cloud(ev, nu, seed=51)
    assert pts.shape == (8, 1)
    assert np.array_equal(pts[0::2], pts[1::2])
    assert np.array_equal(base_w[0::2], base_w[1::2])
    want = euler_factor(0.25) * float(base_w @ pts[:, 0])
    assert master_value(ev, 0.25, nu, seed=51) == pytest.approx(want, abs=1e-12)


def test_master_lderiv_linear_ou_is_euler_factor():
    ev = MasterEvaluator(LINEAR_MEAN, make_model("ou"), m=2000, dt=0.01)
    nu = DiscreteMeasure(np.array([[0.0]]))
    got = master_lderiv(ev, 0.25, nu, 0.4, seed=19)
    assert got[0] == pytest.approx(euler_factor(0.25), abs=1e-9)


def test_master_lderiv_mean_square_has_no_eps_bias():
    # V(t, mu) = (e(t) mean(mu))^2 under zero-noise-mean OU dynamics, so
    # d_mu V(t, delta_c)(y) = 2 e(t)^2 c at every y; an eps-slot difference
    # would carry the bias 2 e(t)^2 eps (y - c)
    c, t = 0.5, 0.25
    ev = MasterEvaluator(make_functional("mean-square"), make_model("ou"),
                         m=2000, dt=0.01)
    for y in (-0.7, 1.3):
        got = master_lderiv(ev, t, DiscreteMeasure(np.array([[c]])), y, seed=19)
        assert got[0] == pytest.approx(2 * euler_factor(t) ** 2 * c, abs=1e-12)


def test_master_lfd_mean_square_expansion():
    # V(t, mu) = (e(t) mean)^2 under zero-noise-mean dynamics; the eps-slope
    # of the squared mean at a Dirac at c adds the O(eps) quadratic term
    c, y, eps, t = 0.5, 1.3, 0.05, 0.25
    ev = MasterEvaluator(make_functional("mean-square"), make_model("ou"),
                         m=2000, dt=0.01, eps=eps)
    e2 = euler_factor(t) ** 2
    # normalized slope of (mean)^2 along (1-eps) delta_c + eps delta_y
    want = e2 * (2 * c * y + eps * ((y - c) ** 2 - c ** 2))
    got = master_lfd(ev, t, DiscreteMeasure(np.array([[c]])), y, seed=21)
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("model_name", ["ou", "mean-revert", "bounded-sine"])
def test_time_grid_equals_stacked_single_times(model_name):
    # one run snapshotted at every time equals one run per time, bit for bit:
    # a shorter Euler run under the same noise stream is a prefix of a longer
    ev = MasterEvaluator(make_functional("mean-square"), make_model(model_name),
                         m=200, dt=0.01)
    nu = as_law(ev.model.initial)
    ys = np.array([[-0.7], [0.4], [1.1]])
    both = master_lfd_batch(ev, (0.05, 0.1), nu, ys, seed=5)
    one = [master_lfd_batch(ev, (t,), nu, ys, seed=5)[0] for t in (0.05, 0.1)]
    assert both.tolist() == np.stack(one).tolist()
    pts, base_w = _base_cloud(ev, nu, seed=5)
    noise = lambda: _master_noise(5, len(pts), 1)
    both = _adjoint_lderiv(ev, (5, 10), pts, base_w, noise())
    one = [_adjoint_lderiv(ev, (k,), pts, base_w, noise())[0] for k in (5, 10)]
    assert both.shape == (2, 200, 1)
    assert both.tolist() == np.stack(one).tolist()


def test_descending_time_grids_are_rejected():
    ou = make_model("ou")
    noise = lambda k: np.zeros((4, 1))
    with pytest.raises(MeanFieldError, match="ascending"):
        _integrate(ou, np.zeros((1, 4, 1)), None, 0.01, noise, (3, 1))
    with pytest.raises(MeanFieldError, match="strictly increasing"):
        theoretical_covariance(LINEAR_MEAN, ou, (0.2, 0.1),
                               CovarianceConfig(force=True), seed=1)


def test_master_lfd2_mean_square():
    # second derivative of mean^2 against two insertions is 2 e(t)^2 y z;
    # the iterated eps-difference of a quadratic carries an exact (1 - eps)
    t, y, z, eps = 0.25, 0.9, -0.6, 0.05
    ev = MasterEvaluator(make_functional("mean-square"), make_model("ou"),
                         m=2000, dt=0.01, eps=eps)
    nu = DiscreteMeasure(np.array([[0.0]]))
    got = master_lfd2(ev, t, nu, y, z, seed=25)
    want = (1.0 - eps) * 2.0 * euler_factor(t) ** 2 * y * z
    assert got == pytest.approx(want, abs=1e-9)


def test_theta_estimator_exactly_zero_for_linear_phi():
    # measure-flatness of V for linear Phi and measure-free coefficients:
    # the mixed second difference must return literal 0.0, not merely small
    ev = MasterEvaluator(LINEAR_MEAN, make_model("ou"), m=512, dt=0.01)
    nu = DiscreteMeasure(np.array([[0.4], [-0.2]]))
    got = theta_second_derivative(ev, 0.25, nu, 0.8, -0.5, seed=27)
    assert got == 0.0


def test_theta_estimator_nonzero_for_nonlinear_phi():
    # V = (e(t) m(mu))^2 with e(t) the Euler factor (1 for mean-revert, which
    # conserves the mean), so d_mu V(y) = 2 e^2 m(mu) and theta = 2 e^2; an
    # eps-slot stencil would carry an O(eps) bias
    nu = DiscreteMeasure(np.array([[0.4]]))
    for name, e in (("ou", euler_factor(0.25)), ("mean-revert", 1.0)):
        ev = MasterEvaluator(make_functional("mean-square"), make_model(name),
                             m=2000, dt=0.01)
        got = theta_second_derivative(ev, 0.25, nu, 1.0, 1.0, seed=29)
        assert got == pytest.approx(2.0 * e ** 2, abs=1e-12), name


def test_master_evaluator_rejects_odd_m():
    with pytest.raises(MeanFieldError):
        MasterEvaluator(LINEAR_MEAN, make_model("ou"), m=999)


# ---------------------------------------------------------------------------
# master-equation residual


@pytest.mark.parametrize("phi_name", ["linear-mean", "mean-square"])
def test_master_residual_within_budget(phi_name):
    mu = DiscreteMeasure(np.array([[-1.0], [-0.2], [0.4], [1.1]]),
                         np.array([0.2, 0.2, 0.3, 0.3]))
    ev = MasterEvaluator(make_functional(phi_name), make_model("ou"),
                         m=4000, dt=0.01)
    res = master_equation_residual(ev, 0.25, mu, seed=31)
    assert res.residual < res.budget
    # the check must not be vacuous: the two sides are genuinely nonzero
    assert abs(res.lhs) > 0.01
    assert abs(res.rhs) > 0.01


@pytest.mark.parametrize("model_name", ["ou", "mean-revert"])
def test_master_residual_rhs_mean_square_is_exact(model_name):
    # d_mu V(t, mu)(y) = 2 e(t)^2 m(mu) at every y and d_v d_mu V = 0, so the
    # rhs is int 2 e^2 m b dmu: -2 e^2 m^2 under OU (b = -y), and 0 under
    # mean-revert (e = 1, b = m - y)
    mu = DiscreteMeasure(np.array([[-1.0], [-0.2], [0.4], [1.1]]),
                         np.array([0.2, 0.2, 0.3, 0.3]))
    m = float(mu.weights @ mu.points[:, 0])
    want = -2.0 * euler_factor(0.25) ** 2 * m ** 2 if model_name == "ou" else 0.0
    ev = MasterEvaluator(make_functional("mean-square"),
                         make_model(model_name), m=2000, dt=0.01)
    res = master_equation_residual(ev, 0.25, mu, seed=37)
    assert res.rhs == pytest.approx(want, abs=1e-12)


def test_master_residual_needs_supported_law():
    ev = MasterEvaluator(LINEAR_MEAN, make_model("ou"), m=512, dt=0.01)
    from mfclt.laws import MixtureLaw
    mix = MixtureLaw([(1.0, as_law(SamplerSpec.normal()))])
    with pytest.raises(MeanFieldError, match="discrete or basic"):
        master_equation_residual(ev, 0.25, mix, seed=1)


# ---------------------------------------------------------------------------
# two-term covariance


def fast_cov_config(**kw):
    base = dict(inner_m=1000, xi_probes=32, s_stride=2, ref_size=2000,
                force=True)
    base.update(kw)
    return CovarianceConfig(**base)


def test_covariance_gate_blocks_ou_without_force():
    with pytest.raises(MeanFieldError, match="force"):
        theoretical_covariance(LINEAR_MEAN, make_model("ou"), (0.5,),
                               CovarianceConfig(force=False), seed=1)


def test_covariance_gate_strings():
    res = theoretical_covariance(LINEAR_MEAN, make_model("ou"), (0.25,),
                                 fast_cov_config(), seed=33)
    assert res.gate == "forced (outside the theorem's stated hypotheses)"
    res2 = theoretical_covariance(
        LINEAR_MEAN, ou_from(0.5), (0.25,),
        fast_cov_config(force=False), seed=33)
    assert res2.gate == "hypothesis flags satisfied"


def test_covariance_ou_closed_form_loose():
    times = (0.5, 1.0)
    res = theoretical_covariance(LINEAR_MEAN, make_model("ou"), times,
                                 fast_cov_config(), seed=35)
    for i, ti in enumerate(times):
        for j, tj in enumerate(times):
            want = np.exp(-(ti + tj)) * (
                1.0 + (np.exp(2.0 * min(ti, tj)) - 1.0) / 2.0)
            assert res.matrix[i, j] == pytest.approx(want, rel=0.05), (ti, tj)
    assert np.allclose(res.matrix, res.term1 + res.term2)
    assert np.all(res.stderr >= 0)


def test_covariance_mean_revert_exact_forms():
    # drift mean(mu) - x, sigma = 1/2 conserves the mean, so the fluctuation
    # covariance is Var(initial) + min(s, t)/4 in closed form: the initial
    # spread enters through term1 and the Brownian average through term2
    times = (0.5, 1.0)
    base = make_model("mean-revert")
    from_dirac = theoretical_covariance(
        LINEAR_MEAN,
        MkvModel("mean-revert-dirac", base.drift, base.sigma,
                 dirac(1.0), flags=frozenset({"is_dirac_initial"}),
                 drift_vjp=base.drift_vjp),
        times, fast_cov_config(force=False), seed=37)
    from_normal = theoretical_covariance(
        LINEAR_MEAN, base, times, fast_cov_config(), seed=37)
    for i, ti in enumerate(times):
        for j, tj in enumerate(times):
            brownian = min(ti, tj) / 4.0
            assert from_dirac.matrix[i, j] == pytest.approx(
                brownian, rel=1e-6), (ti, tj)
            assert from_normal.matrix[i, j] == pytest.approx(
                1.0 + brownian, rel=0.02), (ti, tj)
    assert np.allclose(from_dirac.term1, 0.0, atol=1e-9)


def euler_term2(times, dt=0.01) -> np.ndarray:
    # OU x linear-mean: d_mu V(t - s) = (1 - dt)^(K - k) everywhere and a = 1,
    # so left-Riemann term 2 is sum_k dt (1 - dt)^(Ki + Kj - 2k)
    steps = [round(t / dt) for t in times]
    return np.array([[sum(dt * (1 - dt) ** (ki + kj - 2 * k)
                          for k in range(min(ki, kj))) for kj in steps]
                     for ki in steps])


def test_covariance_term2_ou_is_the_euler_sum():
    times = (0.1, 0.2)
    res = theoretical_covariance(LINEAR_MEAN, make_model("ou"), times,
                                 fast_cov_config(s_stride=1, ref_size=800),
                                 seed=7)
    assert np.max(np.abs(res.term2 - euler_term2(times))) < 1e-12


def test_covariance_term2_mean_revert_linear_square_exact_euler():
    # V(tau, mu) = m^2 (1 - q) + q M2 + (1 - q)/8 with q = (1 - dt)^(2K) under
    # mean-revert Euler dynamics; integrating the exact d_mu V over the Euler
    # law of X_s with the left-Riemann rule gives these three entries
    res = theoretical_covariance(make_functional("linear-square"),
                                 mean_revert_half(),
                                 (0.1, 0.2), CovarianceConfig(force=True),
                                 seed=7)
    want = np.array([[0.099275, 0.085750], [0.085750, 0.162284]])
    assert np.all(np.abs(res.term2 - want) <= 3 * res.stderr)
    # not vacuous: three reported SE resolve a 2 % bias
    assert np.all(3 * res.stderr < 0.02 * want)


def test_term2_runs_the_reference_once_per_seed(monkeypatch):
    seeds = []
    real = mean_field.simulate_limit_reference

    def recording(model, m, dt, t, seed, snapshot_times=()):
        seeds.append(seed)
        return real(model, m, dt, t, seed, snapshot_times)

    monkeypatch.setattr(mean_field, "simulate_limit_reference", recording)
    theoretical_covariance(LINEAR_MEAN, make_model("ou"), (0.02, 0.04),
                           fast_cov_config(), seed=7)
    assert seeds == [7, 8]


def test_adjoint_refuses_what_it_cannot_serve():
    ou = make_model("ou")
    no_vjp = MkvModel("no-vjp", ou.drift, ou.sigma, ou.initial)
    cases = [(no_vjp, LINEAR_MEAN, "no drift VJP"),
             (ou, make_functional("quantile:0.5"), "point mass"),
             (ou, Linear(lambda p: p[..., 0], dim=1), "statistic gradients")]
    nu = DiscreteMeasure(np.array([[0.0]]))
    for model, phi, msg in cases:
        with pytest.raises(MeanFieldError, match=msg):
            theoretical_covariance(phi, model, (0.02,), fast_cov_config(),
                                   seed=1)
        ev = MasterEvaluator(phi, model, m=8)
        with pytest.raises(MeanFieldError, match=msg):
            master_lderiv(ev, 0.02, nu, 0.4, seed=1)
        with pytest.raises(MeanFieldError, match=msg):
            master_equation_residual(ev, 0.02, nu, seed=1)
        with pytest.raises(MeanFieldError, match=msg):
            theta_second_derivative(ev, 0.02, nu, 0.4, -0.2, seed=1)


# Outputs of the nested Monte Carlo estimators.  term1 was recorded before
# the slot rows were shared between estimators; term2 (so matrix and stderr)
# was re-recorded when the adjoint replaced the +/-h stencil, whose values
# here were its eps bias: mean-square at a centred law has d_mu V near 0.
# mean-revert-half conserves its mean 1/2, so d_mu V = 2 m = 1 and term 2 is
# min(ti, tj) / 4: a real value, which the centred laws' residues are not.
# Exact equality: a restructuring of the estimators must not move a bit.
PINNED_COVARIANCE = {
    "ou": {
        "matrix": [[0.0033448587928484024, 0.0027357832119538077],
                   [0.0027357832119538072, 0.002237616068819055]],
        "stderr": [[1.5178830414797062e-18, 1.0842021724855044e-18],
                   [1.3010426069826053e-18, 8.673617379884035e-19]],
        "term1": [[0.0033448587928484024, 0.0027357832119538077],
                  [0.0027357832119538072, 0.002237616068819055]],
        "term2": [[6.976421116426504e-35, -1.8784962512108213e-35],
                  [-1.8784962512108213e-35, 2.8984127491035894e-34]],
    },
    "mean-revert": {
        "matrix": [[0.0049999999999999906, 0.0049999999999999975],
                   [0.0049999999999999975, 0.005000000000000003]],
        "stderr": [[2.6454533008646308e-17, 1.6479873021779667e-17],
                   [1.6479873021779667e-17, 7.806255641895632e-18]],
        "term1": [[0.0049999999999999906, 0.0049999999999999975],
                  [0.0049999999999999975, 0.005000000000000003]],
        "term2": [[6.891218082260578e-35, 1.6313980798452037e-35],
                  [1.6313980798452037e-35, 4.242970369180063e-35]],
    },
    "bounded-sine": {
        "matrix": [[0.006415184218828212, 0.007239096895277223],
                   [0.007239096895277223, 0.008249682463825412]],
        "stderr": [[1.3389499073441462e-05, 1.3122176705836267e-05],
                   [1.3122176705836267e-05, 5.322291312826258e-06]],
        "term1": [[0.00641517845606741, 0.00723907007449787],
                  [0.00723907007449787, 0.008249105773574924]],
        "term2": [[5.7627608015469244e-09, 2.682077935271922e-08],
                  [2.682077935271922e-08, 5.766902504876492e-07]],
    },
    "mean-revert-half": {
        "matrix": [[1.0299999999999998, 1.0300000000000002],
                   [1.0300000000000005, 1.055000000000001]],
        "stderr": [[1.222980050563649e-15, 5.568462357885551e-16],
                   [3.3480163086352377e-16, 5.551115123125783e-16]],
        "term1": [[1.005, 1.0050000000000003],
                  [1.0050000000000006, 1.005000000000001]],
        "term2": [[0.024999999999999994, 0.024999999999999994],
                  [0.024999999999999994, 0.05000000000000001]],
    },
}


@pytest.mark.parametrize("model_name", sorted(PINNED_COVARIANCE))
def test_covariance_pinned_outputs(model_name):
    model = (mean_revert_half() if model_name == "mean-revert-half"
             else make_model(model_name))
    res = theoretical_covariance(
        make_functional("mean-square"), model, (0.1, 0.2),
        CovarianceConfig(force=True, inner_m=400, ref_size=800), seed=3)
    for key, want in PINNED_COVARIANCE[model_name].items():
        assert getattr(res, key).tolist() == want, key


def _digest(a) -> str:
    raw = np.ascontiguousarray(a, dtype=float).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def test_particle_drivers_pinned_outputs():
    # every N-particle and reference run goes through one Euler driver; these
    # exact values (or digests of the raw float64 bytes) guard its arithmetic
    ou = make_model("ou")
    path = simulate_particles(ou, 8, 0.01, 0.1, seed=11)
    assert path.shape == (11, 8, 1)
    assert _digest(path) == "a3045ba1e61fae8f"
    assert path[-1, :, 0].tolist() == [
        -0.34365681081295707, 0.9331559882116783, 0.9620638163582803,
        -0.255490091573089, 0.902660145498724, 1.8953610929947693,
        1.430841627379433, -0.9988537140676943]
    final, clouds = simulate_limit_reference(ou, 200, 0.01, 0.1, seed=13,
                                             snapshot_times=(0.05, 0.1))
    assert final.shape == (200, 1) and sorted(clouds) == [0.05, 0.1]
    assert [_digest(final), _digest(clouds[0.05]), _digest(clouds[0.1])] == [
        "f6df5086dbb63c04", "359f0c34fd2e4928", "f6df5086dbb63c04"]
    rep = fluctuation_process(make_functional("mean-square"), ou, 50,
                              (0.05, 0.1), 5, seed=17)
    assert rep.f_samples.tolist() == [
        [0.3076795099910766, 0.19891897993102312],
        [0.21180676103148824, 0.15761432724516983],
        [0.050640015075502885, 0.026725814531021456],
        [0.04917325117620014, 0.14078405202867592],
        [1.4704794000266035, 1.291766857985135]]
    probe = time_regularity_probe(LINEAR_MEAN, ou, 0.05, 0.1, n_grid=(10, 20),
                                  r=3, seed=19)
    assert probe.values == (0.00012924906687350056, 2.8942699655682235e-05)


@pytest.mark.parametrize("n_grid,r", [((10, 20), 0), ((), 3), ((0, 20), 3)])
def test_time_regularity_probe_rejects_empty_work(n_grid, r):
    with pytest.raises(MeanFieldError):
        time_regularity_probe(LINEAR_MEAN, make_model("ou"), 0.05, 0.1,
                              n_grid, r, seed=1)


def test_covariance_zero_horizon_is_the_initial_clt():
    # at t = 0 the time-evolution term integrates over [0, 0], and the
    # initialisation term of linear-mean under N(0, 1) is Var N(0, 1) = 1
    res = theoretical_covariance(LINEAR_MEAN, make_model("ou"), (0.0,),
                                 CovarianceConfig(force=True), seed=1)
    assert res.term2.tolist() == [[0.0]]
    assert abs(res.matrix[0, 0] - 1.0) <= 1e-12


# rhs comes from the adjoint; for mean-square it is the exact -2 e^2 m(mu)^2
# (test_master_residual_rhs_mean_square_is_exact), so it carries no eps bias.
@pytest.mark.parametrize("phi_name, lhs, rhs", [
    ("linear-mean", -0.16417573880689457, -0.16334248547382085),
    ("mean-square", -0.05364458183634707, -0.0533615351215308),
])
def test_master_residual_pinned_outputs(phi_name, lhs, rhs):
    mu = DiscreteMeasure(np.array([[-1.0], [-0.2], [0.4], [1.1]]),
                         np.array([0.2, 0.2, 0.3, 0.3]))
    ev = MasterEvaluator(make_functional(phi_name), make_model("ou"),
                         m=2000, dt=0.01)
    res = master_equation_residual(ev, 0.25, mu, seed=37)
    assert (res.lhs, res.rhs) == (lhs, rhs)


def test_covariance_bounded_sine_smoke():
    # strongly coupled drift: the estimator carries a large honest stderr,
    # so only sanity properties are asserted here
    res = theoretical_covariance(LINEAR_MEAN, make_model("bounded-sine"),
                                 (0.5,), fast_cov_config(force=False), seed=39)
    assert res.gate == "hypothesis flags satisfied"
    assert res.matrix[0, 0] > 0
    assert np.isfinite(res.stderr).all()


# ---------------------------------------------------------------------------
# normality diagnostics and probes


def test_cramer_wold_accepts_matched_gaussian():
    rng = stream(41, "cw")
    sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
    f = rng.multivariate_normal([0, 0], sigma, size=600)
    tests = cramer_wold_normality(f, sigma)
    assert len(tests) == 3
    assert all(t.pvalue > 0.01 for t in tests)
    assert not any(t.skipped for t in tests)


def test_cramer_wold_rejects_mismatched_scale():
    rng = stream(42, "cw-bad")
    f = rng.normal(size=(600, 1)) * 3.0
    tests = cramer_wold_normality(f, np.array([[1.0]]))
    assert tests[0].pvalue < 1e-6
    # with one time the all-ones direction is the axis: tested once
    assert [t.direction for t in tests] == [(1.0,)]


def test_cramer_wold_skips_degenerate_directions():
    rng = stream(43, "cw-degen")
    f = rng.normal(size=(100, 2))
    tests = cramer_wold_normality(f, np.zeros((2, 2)))
    assert all(t.skipped for t in tests)
    assert all(np.isnan(t.pvalue) for t in tests)


def test_time_regularity_probe_slope_near_minus_two():
    rep = time_regularity_probe(LINEAR_MEAN, make_model("ou"), 0.25, 0.5,
                                n_grid=(200, 632, 2000), r=300, seed=45)
    assert -2.5 < rep.slope < -1.5
    assert len(rep.values) == 3


def test_fourth_moment_probe_bounded_for_smooth_phi():
    phi = SmoothOfLinear.scalar(
        lambda t: t * t, lambda t: 2.0 * t, lambda t: np.full_like(t, 2.0),
        lambda p: np.sin(p[..., 0]), name="sin-mean-squared")
    rep = fourth_moment_bound_probe(phi, SamplerSpec.normal(0.7, 1.0),
                                    n_grid=(200, 632, 2000), r=300, seed=47)
    vals = np.asarray(rep.values)
    assert vals.max() / vals.min() < 3.0
