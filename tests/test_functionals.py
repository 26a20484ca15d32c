"""The functional-derivative calculus.

Every symbolic derivative is cross-checked against an independent numeric
route (Gateaux slopes with Richardson extrapolation), and the structural
rules (normalization, symmetry) are asserted on random measures.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfclt.functionals import (
    ExternalIntegral,
    FunctionalError,
    Linear,
    NestedIntegrand,
    Quantile,
    SmoothOfLinear,
    UStatistic,
    derivative_pairing,
    evaluate,
    finite_difference_identity_check,
    gateaux_numeric,
    gateaux_probe_eps,
    growth_class_check,
    lfd,
    make_functional,
    mix,
    registry_names,
)
from mfclt.laws import SamplerSpec, as_law
from mfclt.measures import DiscreteMeasure
from mfclt.rng import stream

CONCRETE = ["linear-mean", "linear-square", "mean-square",
            "cube-of-second-moment", "sin-five-halves", "ustat-product",
            "quantile:0.5"]


def rand_measure(rng, k=5, dim=1):
    return DiscreteMeasure(rng.normal(size=(int(k), dim)))


def functional_and_base(name, rng):
    u = make_functional(name)
    if name.startswith("quantile"):
        return u, as_law(SamplerSpec.normal(0.0, 1.0))
    return u, rand_measure(rng)


# ---------------------------------------------------------------------------
# registry and evaluation oracles


def test_registry_lists_everything():
    names = registry_names()
    for required in ("linear-mean", "linear-square", "mean-square",
                     "cube-of-second-moment", "sin-five-halves",
                     "ustat-product", "quantile:<v>"):
        assert required in names


def test_alias_mean_squared():
    mu = DiscreteMeasure(np.array([[1.0], [3.0]]))
    a = evaluate(make_functional("mean-squared"), mu)
    b = evaluate(make_functional("mean-square"), mu)
    assert a == b == pytest.approx(4.0)


def test_unknown_name_lists_registry():
    with pytest.raises(FunctionalError, match="linear-mean"):
        make_functional("nope")


def test_registry_values_on_known_measure():
    mu = DiscreteMeasure(np.array([[1.0], [2.0]]))  # mean 1.5, second moment 2.5
    vals = {
        "linear-mean": 1.5,
        "linear-square": 2.5,
        "mean-square": 1.5 ** 2,
        "cube-of-second-moment": 2.5 ** 3,
        "sin-five-halves": abs(0.5 * (np.sin(1) + np.sin(2))) ** 2.5,
        "ustat-product": 1.5 ** 2,
    }
    for name, want in vals.items():
        assert evaluate(make_functional(name), mu) == pytest.approx(want), name


def test_quantile_value_and_helper():
    law = as_law(SamplerSpec.normal(0.0, 2.0))
    u = Quantile(0.25)
    assert evaluate(u, law) == pytest.approx(2.0 * -0.6744897501960817, abs=1e-8)


# ---------------------------------------------------------------------------
# calculus outputs pinned bit for bit
#
# evaluate on PIN_ATOMS, lfd(u, k) for k = 1..max_order on the paired batches
# (PIN_Y, reversed PIN_Y, PIN_Y rolled by one), and the moment form's stats,
# value and grad at the stats of PIN_Y.  The quantile's derivative needs a
# density, so it is taken at N(0, 1).  Exact equality: any change to these
# numbers is a change to the calculus, not round-off to be tolerated.

PIN_ATOMS = np.array([[-1.25], [-0.5], [0.25], [0.75], [1.5]])
PIN_Y = np.array([[-2.0], [-0.75], [0.5], [1.75]])
PINNED = {
    "cube-of-second-moment": {
        "value": 0.823974609375,
        "lfd": [
            [10.546875, 1.483154296875, 0.6591796875, 8.074951171875],
            [68.90625, 0.791015625, 0.791015625, 68.90625],
            [225.09375, 3.375, 0.474609375, 18.375],
        ],
        "stats": [[4.0], [0.5625], [0.25], [3.0625]],
        "mvalue": [64.0, 0.177978515625, 0.015625, 28.722900390625],
        "grad": [[48.0], [0.94921875], [0.1875], [28.13671875]],
    },
    "linear-mean": {
        "value": 0.15000000000000005,
        "lfd": [
            [-2.0, -0.75, 0.5, 1.75],
            [0.0, 0.0, 0.0, 0.0],
        ],
        "stats": [[-2.0], [-0.75], [0.5], [1.75]],
        "mvalue": [-2.0, -0.75, 0.5, 1.75],
        "grad": [[1.0], [1.0], [1.0], [1.0]],
    },
    "linear-square": {
        "value": 0.9375,
        "lfd": [
            [4.0, 0.5625, 0.25, 3.0625],
            [0.0, 0.0, 0.0, 0.0],
        ],
        "stats": [[4.0], [0.5625], [0.25], [3.0625]],
        "mvalue": [4.0, 0.5625, 0.25, 3.0625],
        "grad": [[1.0], [1.0], [1.0], [1.0]],
    },
    "mean-square": {
        "value": 0.022500000000000017,
        "lfd": [
            [-0.6000000000000002, -0.2250000000000001,
             0.15000000000000005, 0.5250000000000001],
            [-7.0, -0.75, -0.75, -7.0],
            [0.0, 0.0, 0.0, 0.0],
        ],
        "stats": [[-2.0], [-0.75], [0.5], [1.75]],
        "mvalue": [4.0, 0.5625, 0.25, 3.0625],
        "grad": [[-4.0], [-1.5], [1.0], [3.5]],
    },
    "quantile:0.5": {
        "value": 0.25,
        "lfd": [
            [-0.0, -0.0, 2.5066282746310002, 2.5066282746310002],
        ],
    },
    "sin-five-halves": {
        "value": 0.0031327546952776117,
        "lfd": [
            [-0.07148284097051577, -0.05358584951921187,
             0.03768920764780524, 0.07735434950383543],
            [-1.0590376588940735, -0.38680491885777585,
             -0.3868049188577758, -1.0590376588940735],
        ],
        "stats": [[-0.9092974268256817], [-0.6816387600233341],
                  [0.479425538604203], [0.9839859468739369]],
        "mvalue": [0.7884332029554754, 0.38360626763090294,
                   0.15914863279449543, 0.960444424785556],
        "grad": [[-2.1676988730405347], [-1.4069265501340154],
                 [0.829892339787738], [2.4401883681287044]],
    },
    "ustat-product": {
        "value": 0.022500000000000017,
        "lfd": [
            [-0.6000000000000002, -0.2250000000000001,
             0.15000000000000005, 0.5250000000000001],
            [-7.0, -0.75, -0.75, -7.0],
        ],
        "stats": [[-2.0], [-0.75], [0.5], [1.75]],
        "mvalue": [4.0, 0.5625, 0.25, 3.0625],
        "grad": [[-4.0], [-1.5], [1.0], [3.5]],
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_calculus_outputs_pinned(name):
    want = PINNED[name]
    u = make_functional(name)
    mu = DiscreteMeasure(PIN_ATOMS)
    assert evaluate(u, mu) == want["value"]
    base = as_law(SamplerSpec.normal(0.0, 1.0)) if name.startswith("quantile") else mu
    batches = [PIN_Y, PIN_Y[::-1], np.roll(PIN_Y, 1, axis=0)]
    got = [lfd(u, k).values(base, *batches[:k]).tolist()
           for k in range(1, u.max_order + 1)]
    assert got == want["lfd"]
    mf = u.moment_form()
    assert (mf is None) == ("stats" not in want)
    if mf is not None:
        s = mf.stats(PIN_Y)
        assert s.tolist() == want["stats"]
        assert mf.value(s).tolist() == want["mvalue"]
        assert mf.grad(s).tolist() == want["grad"]


@pytest.mark.parametrize("name", [n for n in CONCRETE if ":" not in n])
def test_moment_form_stat_gradients_match_central_differences(name):
    mf = make_functional(name).moment_form()
    pts = stream(43, "stat-grad", name).normal(size=(9, 1))
    h = 1e-6
    numeric = (mf.stats(pts + h) - mf.stats(pts - h)) / (2 * h)  # (K, q)
    got = mf.stat_grads(pts)
    assert got.shape == (9, mf.stat_dim, 1)
    assert np.allclose(got[..., 0], numeric, rtol=1e-8, atol=1e-9)


# ---------------------------------------------------------------------------
# normalization and structure of the derivative field


@pytest.mark.parametrize("name", CONCRETE)
def test_lfd_vanishes_at_origin(name):
    rng = stream(41, "origin", name)
    u, mu = functional_and_base(name, rng)
    field = lfd(u, 1)
    val = field.values(mu, np.zeros((1, 1)))
    assert abs(float(val[0])) < 1e-12


def test_second_derivative_symmetric_in_arguments():
    rng = stream(42, "sym2")
    u = make_functional("cube-of-second-moment")
    mu = rand_measure(rng)
    y = rng.normal(size=(6, 1))
    z = rng.normal(size=(6, 1))
    field = lfd(u, 2)
    assert np.allclose(field.values(mu, y, z), field.values(mu, z, y),
                       atol=1e-12)


def test_order_beyond_max_rejected():
    u = make_functional("linear-mean")
    with pytest.raises(FunctionalError):
        lfd(u, 3)
    with pytest.raises(FunctionalError):
        lfd(Quantile(0.5), 2)


# ---------------------------------------------------------------------------
# symbolic vs numeric cross-checks


@pytest.mark.parametrize("name", CONCRETE)
def test_symbolic_matches_numeric_gateaux(name):
    rng = stream(43, "cross", name)
    u, _ = functional_and_base(name, rng)
    worst = 0.0
    for _ in range(20):
        if name.startswith("quantile"):
            mu = as_law(SamplerSpec.normal(float(rng.normal()) * 0.2, 1.0))
        else:
            mu = rand_measure(rng)
        nu = rand_measure(rng, k=3)
        num = gateaux_numeric(u, mu, nu, eps=1e-3, richardson=2)
        sym = derivative_pairing(lfd(u, 1), mu, nu)
        worst = max(worst, abs(num - sym) / (1.0 + abs(sym)))
    assert worst < 1e-6, worst


def test_quantile_probe_eps_keeps_slopes_inside_the_formula():
    # the seed-8 `derivcheck` probe: nu has an atom 2.9e-4 from mu's median,
    # and the eps = 1e-3 slopes carry the mixture's median across it
    u = make_functional("quantile:0.5")
    mu = as_law(SamplerSpec.normal(-0.46618397210216167, 1.0))
    nu = DiscreteMeasure(np.array([[0.09172354563142149], [0.1907994267877533],
                                   [-0.465899079988161]]))
    sym = derivative_pairing(lfd(u, 1), mu, nu)

    def gap(eps):
        num = gateaux_numeric(u, mu, nu, eps=eps, richardson=2)
        return abs(num - sym) / (1.0 + abs(sym))

    eps = gateaux_probe_eps(u, mu, nu, 1e-3)
    dist = -0.465899079988161 - -0.46618397210216167
    assert eps == pytest.approx(dist * float(mu.pdf(mu.quantile(0.5))), rel=1e-12)
    assert gap(1e-3) > 0.3
    assert gap(eps) < 1e-6


def test_probe_eps_is_kept_away_from_quantile_atoms():
    rng = stream(46, "probe-eps")
    mu = rand_measure(rng)
    nu = rand_measure(rng, k=3)
    law = as_law(SamplerSpec.normal(0.0, 1.0))
    far = DiscreteMeasure(np.array([[2.0], [-3.0]]))
    assert gateaux_probe_eps(make_functional("mean-square"), mu, nu, 1e-3) == 1e-3
    assert gateaux_probe_eps(make_functional("quantile:0.5"), law, far, 1e-3) == 1e-3
    assert gateaux_probe_eps(make_functional("quantile:0.5"), law,
                             as_law(SamplerSpec.normal(0.0, 1.0)), 1e-3) == 1e-3


def test_richardson_levels_tighten_the_slope():
    u = make_functional("cube-of-second-moment")
    rng = stream(44, "richardson")
    mu, nu = rand_measure(rng), rand_measure(rng)
    sym = derivative_pairing(lfd(u, 1), mu, nu)
    errs = [abs(gateaux_numeric(u, mu, nu, eps=0.05, richardson=lv) - sym)
            for lv in (0, 1, 2)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-8


def test_gateaux_slope_decays_linearly_in_eps():
    u = make_functional("mean-square")
    rng = stream(45, "eps-decay")
    mu, nu = rand_measure(rng), rand_measure(rng)
    sym = derivative_pairing(lfd(u, 1), mu, nu)
    e1 = abs(gateaux_numeric(u, mu, nu, eps=0.2) - sym)
    e2 = abs(gateaux_numeric(u, mu, nu, eps=0.1) - sym)
    e3 = abs(gateaux_numeric(u, mu, nu, eps=0.05) - sym)
    assert e2 == pytest.approx(e1 / 2, rel=0.05)
    assert e3 == pytest.approx(e2 / 2, rel=0.05)


@pytest.mark.parametrize("name", ["mean-square", "cube-of-second-moment",
                                  "ustat-product"])
def test_finite_difference_identity(name):
    rng = stream(46, "fd-identity", name)
    u = make_functional(name)
    for _ in range(10):
        m, m2 = rand_measure(rng), rand_measure(rng, k=4)
        assert finite_difference_identity_check(u, m, m2) < 1e-10


def test_second_order_pairing_via_nested_slopes():
    # d/ds of the first pairing along mu -> nu equals the second pairing
    u = make_functional("cube-of-second-moment")
    rng = stream(47, "second-pair")
    mu, nu = rand_measure(rng), rand_measure(rng)
    field2 = lfd(u, 2)
    fn = lambda pts_y: None  # placeholder, built below

    def first_pair(s):
        at = mix(mu, nu, s)
        return derivative_pairing(lfd(u, 1), mu, nu, at=at)

    h = 1e-4
    num = (first_pair(h) - first_pair(0.0)) / h
    # symbolic: int int d2U(mu; y, z) (nu-mu)(dy) (nu-mu)(dz)
    inner = lambda pts: np.asarray(
        [derivative_pairing(
            DerivativeFieldView(field2, row), mu, nu) for row in pts])

    class DerivativeFieldView:
        def __init__(self, field, z):
            self.field, self.z = field, z

        def values(self, m, y):
            zz = np.broadcast_to(self.z, y.shape)
            return self.field.values(m, y, zz)

    sym = float(nu.expect(inner) - mu.expect(inner))
    assert num == pytest.approx(sym, rel=1e-3, abs=1e-6)


# ---------------------------------------------------------------------------
# U-statistics


def test_ustat_value_is_product_of_means():
    mu = DiscreteMeasure(np.array([[1.0], [2.0], [4.0]]),
                         np.array([0.5, 0.25, 0.25]))
    u = make_functional("ustat-product")
    mean = 0.5 * 1 + 0.25 * 2 + 0.25 * 4
    assert evaluate(u, mu) == pytest.approx(mean ** 2, rel=1e-12)


def test_ustat_rejects_asymmetric_kernel():
    with pytest.raises(FunctionalError, match="symmetric"):
        UStatistic(lambda x, y: x[..., 0] * 2.0 + y[..., 0], 2, dim=1)


def test_ustat_generic_route_matches_product_route():
    phi = lambda x, y: np.cos(x[..., 0]) * np.cos(y[..., 0])
    fast = UStatistic(phi, 2, product_kernel=lambda p: np.cos(p[..., 0]), dim=1)
    slow = UStatistic(phi, 2, dim=1)
    rng = stream(51, "ustat-routes")
    mu, nu = rand_measure(rng), rand_measure(rng, k=3)
    assert evaluate(fast, mu) == pytest.approx(evaluate(slow, mu), rel=1e-10)
    a = derivative_pairing(lfd(fast, 1), mu, nu)
    b = derivative_pairing(lfd(slow, 1), mu, nu)
    assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------------------
# quantile derivative against its closed form


def test_quantile_lfd_closed_form():
    law = as_law(SamplerSpec.normal(0.0, 1.0))
    u = Quantile(0.5)
    y = np.array([[-1.0], [0.5], [2.0]])
    got = lfd(u, 1).values(law, y)
    p0 = float(law.pdf(0.0))
    want = -((y[:, 0] <= 0.0).astype(float) - 1.0) / p0  # 1{0<=q} = 1
    assert np.allclose(got, want, atol=1e-10)


def test_quantile_needs_density():
    u = Quantile(0.5)
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]))
    with pytest.raises(FunctionalError, match="density"):
        lfd(u, 1).values(mu, np.array([[0.5]]))


# ---------------------------------------------------------------------------
# probe-grade functional wrappers


def test_external_integral_matches_linear_case():
    lam = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    # phi(x, mu) = x * mean(mu): U(mu) = 0.5 * mean, lfd = 0.5 * (y - 0)
    u = ExternalIntegral(
        phi=lambda x, mu: float(x[0]) * mu.expect(lambda p: p[:, 0]),
        lam=lam,
        phi_lfd=lambda x, mu, y: float(x[0]) * float(y[0]),
        dim=1)
    rng = stream(52, "external")
    mu, nu = rand_measure(rng), rand_measure(rng)
    mean = lambda m: float(m.expect(lambda p: p[:, 0]))
    assert evaluate(u, mu) == pytest.approx(0.5 * mean(mu), rel=1e-12)
    got = derivative_pairing(lfd(u, 1), mu, nu)
    assert got == pytest.approx(0.5 * (mean(nu) - mean(mu)), rel=1e-9)


def test_nested_integrand_matches_ustat():
    # phi(x1, x2, mu) = x1 * x2 with no measure dependence: the mean squared
    u = NestedIntegrand(
        phi=lambda xs, mu: float(xs[0][0]) * float(xs[1][0]),
        n=2,
        phi_lfd=lambda xs, mu, y: 0.0,
        dim=1)
    mu = DiscreteMeasure(np.array([[1.0], [2.0]]))
    assert evaluate(u, mu) == pytest.approx(2.25, rel=1e-10)
    nu = DiscreteMeasure(np.array([[0.0], [3.0]]))
    got = derivative_pairing(lfd(u, 1), mu, nu)
    ref = derivative_pairing(lfd(make_functional("ustat-product"), 1), mu, nu)
    assert got == pytest.approx(ref, rel=1e-8)


def test_nested_integrand_with_measure_dependence():
    # phi(x, mu) = x * mean(mu): U(mu) = mean^2, matching mean-square
    mean = lambda m: float(m.expect(lambda p: p[:, 0]))
    u = NestedIntegrand(
        phi=lambda xs, mu: float(xs[0][0]) * mean(mu),
        n=1,
        phi_lfd=lambda xs, mu, y: float(xs[0][0]) * float(y[0]),
        dim=1)
    mu = DiscreteMeasure(np.array([[1.0], [2.0]]))
    nu = DiscreteMeasure(np.array([[0.5], [-1.0]]))
    got = derivative_pairing(lfd(u, 1), mu, nu)
    ref = derivative_pairing(lfd(make_functional("mean-square"), 1), mu, nu)
    assert got == pytest.approx(ref, rel=1e-8)


# ---------------------------------------------------------------------------
# growth classes and mixing


def test_growth_class_bound_finite_and_small():
    rng = stream(53, "growth")
    u = make_functional("cube-of-second-moment")
    measures = [rand_measure(rng) for _ in range(5)]
    points = [rng.normal(size=1) * 3 for _ in range(8)]
    sup = growth_class_check(u, 2, 6.0, 2.0, measures, points)
    assert np.isfinite(sup)
    assert sup < 1e3


def test_mix_interpolates_moments():
    mu = DiscreteMeasure(np.array([[0.0]]))
    nu = DiscreteMeasure(np.array([[1.0]]))
    m = mix(mu, nu, 0.25)
    assert m.expect(lambda p: p[:, 0]) == pytest.approx(0.25)
    assert mix(mu, nu, 0.0).expect(lambda p: p[:, 0]) == pytest.approx(0.0)


@settings(max_examples=40, deadline=None)
@given(
    xs=st.lists(st.floats(-5, 5), min_size=2, max_size=5),
    ys=st.lists(st.floats(-5, 5), min_size=2, max_size=5),
    s=st.floats(0.01, 0.99),
)
def test_mix_property_linear_functionals_affine(xs, ys, s):
    mu = DiscreteMeasure(np.asarray(xs)[:, None])
    nu = DiscreteMeasure(np.asarray(ys)[:, None])
    u = make_functional("linear-square")
    mixed = evaluate(u, mix(mu, nu, s))
    want = (1 - s) * evaluate(u, mu) + s * evaluate(u, nu)
    assert mixed == pytest.approx(want, rel=1e-10, abs=1e-10)
