"""Weighted discrete measures and the transport-distance suite.

The d = 1 quantile-coupling route is validated against the exact LP on small
supports; metric axioms run as randomized property checks.
"""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfclt
from mfclt.measures import (
    DiscreteMeasure,
    MeasureError,
    MetricKind,
    _lp_transport_costs,
    _pairwise_abs_diff,
    _lp_problem,
    distance,
    distances,
    metric_axiom_suite,
    tv_wasserstein_inequality_check,
    weighted_variation_integral,
)
from mfclt.rng import stream


def small_measure(rng, max_atoms=6, dim=1):
    k = int(rng.integers(1, max_atoms + 1))
    return DiscreteMeasure(rng.normal(size=(k, dim)))


# ---------------------------------------------------------------------------
# DiscreteMeasure basics


def test_weights_default_uniform_and_sum_to_one():
    mu = DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]))
    assert np.allclose(mu.weights, 1.0 / 3.0)
    nu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    assert np.allclose(nu.weights, [0.25, 0.75])


def test_bad_weights_rejected():
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(MeasureError):
        DiscreteMeasure(pts, np.array([0.5, -0.5]))
    with pytest.raises(MeasureError):
        DiscreteMeasure(pts, np.array([0.0, 0.0]))
    with pytest.raises(MeasureError):
        DiscreteMeasure(pts, np.array([1.0]))
    with pytest.raises(MeasureError):
        DiscreteMeasure(pts, np.array([2.0, 6.0]))  # mass must already be 1
    with pytest.raises(MeasureError, match="at least one atom"):
        DiscreteMeasure(np.empty((0, 1)))  # equal weights 1/0 must not run first


def test_expect_mean_and_moment():
    mu = DiscreteMeasure(np.array([[1.0], [3.0]]), np.array([0.25, 0.75]))
    assert mu.expect(lambda p: p[:, 0]) == pytest.approx(2.5)
    assert mu.moment(2.0) == pytest.approx(0.25 * 1 + 0.75 * 9)


def test_merged_collapses_duplicate_atoms():
    mu = DiscreteMeasure(np.array([[1.0], [1.0], [2.0]]),
                         np.array([0.2, 0.3, 0.5]))
    m = mu.merged()
    assert len(m.weights) == 2
    assert m.expect(lambda p: p[:, 0]) == pytest.approx(mu.expect(lambda p: p[:, 0]))


def test_text_round_trip():
    mu = DiscreteMeasure(np.array([[0.1, -2.0], [3.5, 0.0]]),
                         np.array([0.4, 0.6]))
    back = DiscreteMeasure.from_text(mu.to_text())
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)


# ---------------------------------------------------------------------------
# distances: dual routes and known values


def test_w1_two_diracs_is_their_gap():
    mu = DiscreteMeasure(np.array([[0.0]]))
    nu = DiscreteMeasure(np.array([[3.0]]))
    assert distance(mu, nu, MetricKind.wasserstein(1.0)) == pytest.approx(3.0)
    # for ell < 1 the metric is the raw cost integral, no outer root
    assert distance(mu, nu, MetricKind.wasserstein(0.5)) == pytest.approx(
        np.sqrt(3.0))


def test_w2_shift_of_uniform_atoms():
    pts = np.arange(5, dtype=float)[:, None]
    mu = DiscreteMeasure(pts)
    nu = DiscreteMeasure(pts + 0.7)
    assert distance(mu, nu, MetricKind.wasserstein(2.0)) == pytest.approx(0.7)


def test_total_variation_disjoint_and_overlap():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    nu = DiscreteMeasure(np.array([[5.0], [6.0]]), np.array([0.5, 0.5]))
    assert distance(mu, nu, MetricKind.total_variation()) == pytest.approx(1.0)
    rho = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.3, 0.7]))
    assert distance(mu, rho, MetricKind.total_variation()) == pytest.approx(0.2)


def test_quantile_route_matches_lp_oracle():
    rng = stream(21, "dual-route")
    worst = 0.0
    for _ in range(60):
        mu, nu = small_measure(rng), small_measure(rng)
        ell = float(rng.uniform(1.0, 3.0))
        fast = distance(mu, nu, MetricKind.wasserstein(ell))
        cost = _pairwise_abs_diff(mu, nu) ** ell
        slow = _lp_transport_costs([(cost, mu.weights, nu.weights)])[0] ** (1.0 / ell)
        worst = max(worst, abs(fast - slow))
    assert worst < 1e-9


def _mixed_lp_items(rng, count):
    """LP-route (mu, nu, kind) items: one-atom sides, d = 1 and 2, W_0.5,
    W_2 and the bounded Wasserstein distance."""
    kinds = [MetricKind.wasserstein(0.5), MetricKind.wasserstein(2.0),
             MetricKind.bounded_wasserstein()]
    items = []
    for k in range(count):
        dim = 1 + k % 2
        kind = kinds[k % 3]
        if kind.tag == "wasserstein" and kind.ell >= 1.0 and dim == 1:
            dim = 2
        max_atoms = 1 if k % 7 == 0 else 6
        items.append((small_measure(rng, max_atoms, dim),
                      small_measure(rng, 6, dim), kind))
    return items


@pytest.mark.parametrize("size", [1, 100, 101, 250])
def test_batched_lp_costs_equal_one_lp_per_problem(size):
    items = _mixed_lp_items(stream(24, "lp-batch"), 250)[:size]
    problems = [_lp_problem(mu, nu, kind, 512)[0] for mu, nu, kind in items]
    one_by_one = [_lp_transport_costs([p])[0] for p in problems]
    batched = _lp_transport_costs(problems)
    assert len(batched) == size
    assert np.max(np.abs(np.subtract(batched, one_by_one))) <= 1e-12
    assert distances(items) == pytest.approx(
        [distance(mu, nu, kind) for mu, nu, kind in items], abs=1e-12, rel=0)


def test_batched_distance_to_a_shuffled_copy_vanishes():
    rng = stream(25, "lp-self")
    items = []
    for mu, _, kind in _mixed_lp_items(rng, 150):
        perm = rng.permutation(mu.natoms)
        items.append((mu, DiscreteMeasure(mu.points[perm], mu.weights[perm]), kind))
    assert all(d <= 1e-10 for d in distances(items))


def test_importing_the_cli_leaves_the_lp_solver_unloaded():
    code = "import sys, mfclt.cli; print('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(mfclt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_lp_route_used_for_d2():
    rng = stream(22, "lp-d2")
    mu, nu = small_measure(rng, dim=2), small_measure(rng, dim=2)
    d = distance(mu, nu, MetricKind.wasserstein(2.0))
    assert d > 0.0
    assert distance(mu, mu, MetricKind.wasserstein(2.0)) == pytest.approx(0.0, abs=1e-9)


def test_support_cap_enforced():
    rng = stream(23, "cap")
    mu = DiscreteMeasure(rng.normal(size=(40, 2)))
    nu = DiscreteMeasure(rng.normal(size=(40, 2)))
    with pytest.raises(MeasureError):
        distance(mu, nu, MetricKind.wasserstein(2.0), support_cap=30)


def test_weighted_variation_integral_known_value():
    mu = DiscreteMeasure(np.array([[1.0], [2.0]]), np.array([0.5, 0.5]))
    nu = DiscreteMeasure(np.array([[1.0], [3.0]]), np.array([0.25, 0.75]))
    # integral |y|^2 d|mu - nu| = 1*0.25 + 4*0.5 + 9*0.75
    want = 1 * 0.25 + 4 * 0.5 + 9 * 0.75
    assert weighted_variation_integral(mu, nu, 2.0) == pytest.approx(want)


# ---------------------------------------------------------------------------
# axioms and inequalities


# the outer 1/ell root lifts ~1e-16 transport-cost dust to dust**(1/ell),
# so orders above 1 need a tolerance near sqrt(eps) on the identity axiom
@pytest.mark.parametrize("kind,tol", [
    (MetricKind.wasserstein(0.5), 1e-10),
    (MetricKind.wasserstein(1.0), 1e-10),
    (MetricKind.wasserstein(2.0), 1e-7),
    (MetricKind.total_variation(), 1e-10),
    (MetricKind.bounded_wasserstein(), 1e-10),
])
def test_metric_axioms(kind, tol):
    report = metric_axiom_suite(kind, stream(31, "axioms", kind.tag, kind.ell),
                                n_triples=60, tol=tol)
    assert report.ok, f"{kind.tag}: {report}"


def test_axiom_suite_counts_triples():
    report = metric_axiom_suite(MetricKind.wasserstein(1.0),
                                stream(32, "axioms"), n_triples=25)
    assert report.triples == 25
    assert report.max_violation < 1e-10


def test_tv_wasserstein_inequality_random_pairs():
    rng = stream(33, "ineq")
    pairs = []
    for _ in range(300):
        mu, nu = small_measure(rng), small_measure(rng)
        pairs.append((mu, nu, float(rng.uniform(0.3, 2.5))))
    assert all(tv_wasserstein_inequality_check(pairs))


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(st.floats(-10, 10), min_size=1, max_size=5),
    ys=st.lists(st.floats(-10, 10), min_size=1, max_size=5),
    ell=st.floats(0.5, 2.0),
)
def test_distance_symmetry_property(xs, ys, ell):
    mu = DiscreteMeasure(np.asarray(xs)[:, None])
    nu = DiscreteMeasure(np.asarray(ys)[:, None])
    kind = MetricKind.wasserstein(ell)
    assert distance(mu, nu, kind) == pytest.approx(distance(nu, mu, kind),
                                                   abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(-10, 10), min_size=1, max_size=5))
def test_distance_identity_property(xs):
    mu = DiscreteMeasure(np.asarray(xs)[:, None])
    assert distance(mu, mu, MetricKind.wasserstein(1.0)) == pytest.approx(
        0.0, abs=1e-10)
