"""Acceptance gate: every quantitative target at its stated tolerance.

Each test prints exactly one `[criterion NN] PASS/FAIL ...` line with the
measured numbers next to their thresholds, then asserts.  Tolerances are the
contract; nothing here is tuned to pass.
"""
import json
import time

import numpy as np
import pytest

from mfclt.cli import _csv_lines, main
from mfclt.clt_engine import (
    asymptotic_variance,
    decompose_many,
    remainder_scaling,
    run_clt_experiment,
    sqrtn_l1_check,
)
from mfclt.functionals import (
    derivative_pairing,
    gateaux_numeric,
    lfd,
    make_functional,
    registry_names,
)
from mfclt.laws import SamplerSpec, as_law
from mfclt.measures import (
    DiscreteMeasure,
    MetricKind,
    _lp_transport_costs,
    _pairwise_abs_diff,
    distance,
    metric_axiom_suite,
    tv_wasserstein_inequality_check,
)
from mfclt.mean_field import (
    CovarianceConfig,
    MasterEvaluator,
    cramer_wold_normality,
    fluctuation_process,
    make_model,
    master_equation_residual,
    theoretical_covariance,
    time_regularity_probe,
)
from mfclt.rng import stream

NORMAL = SamplerSpec.normal(0.0, 1.0)


def criterion(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_quantile_clt():
    t0 = time.perf_counter()
    rep = run_clt_experiment(make_functional("quantile:0.5"), NORMAL,
                             n=10_000, r=2000, seed=7, workers=4)
    elapsed = time.perf_counter() - t0
    want = np.pi / 2
    gap = abs(rep.sigma2_empirical - want) / want
    ok = gap <= 0.10 and rep.ks_pvalue > 0.01 and elapsed < 60.0
    criterion(1, ok,
              f"median CLT: empirical var {rep.sigma2_empirical:.4f} vs "
              f"pi/2 = {want:.4f} (gap {100 * gap:.1f}%, tol 10%), "
              f"KS p = {rep.ks_pvalue:.3f} (> 0.01), {elapsed:.1f} s (< 60 s)")


def test_criterion_02_cube_of_second_moment():
    rep = run_clt_experiment(make_functional("cube-of-second-moment"), NORMAL,
                             n=10_000, r=2000, seed=11, workers=4)
    gap = abs(rep.sigma2_empirical - 18.0) / 18.0
    ok = (abs(rep.sigma2_theory - 18.0) < 1e-2 and gap <= 0.10
          and rep.ks_pvalue > 0.01)
    criterion(2, ok,
              f"(second moment)^3: theory {rep.sigma2_theory:.4f} (= 18), "
              f"empirical {rep.sigma2_empirical:.3f} (gap {100 * gap:.1f}%, "
              f"tol 10%), KS p = {rep.ks_pvalue:.3f} (> 0.01)")


def test_criterion_03_degenerate_sin():
    est = asymptotic_variance(make_functional("sin-five-halves"), NORMAL)
    reps = [run_clt_experiment(make_functional("sin-five-halves"), NORMAL,
                               n=n, r=500, seed=13, workers=4)
            for n in (1000, 10_000)]
    v1, v2 = (r.sigma2_empirical for r in reps)
    ok = est.value < 1e-12 and v2 < v1 and v2 < 0.02
    criterion(3, ok,
              f"degenerate |mean sin|^(5/2): theory var {est.value:.2e} "
              f"(< 1e-12), empirical {v1:.2e} at N=1e3 -> {v2:.2e} at N=1e4 "
              f"(decreasing toward 0)")


POLYNOMIAL_DERIVATIVE = ["linear-mean", "linear-square", "mean-square",
                         "cube-of-second-moment", "ustat-product"]


def test_criterion_04_decomposition_identity():
    worst, worst_name = 0.0, ""
    for name in POLYNOMIAL_DERIVATIVE:
        recs = decompose_many(make_functional(name), NORMAL, n=200, r=100,
                              seed=17)
        gap = max(r.identity_residual for r in recs)
        if gap > worst:
            worst, worst_name = gap, name
    ok = worst < 1e-8
    criterion(4, ok,
              f"decomposition identity |dU - Q_N - R_N|: worst "
              f"{worst:.2e} ({worst_name}, 100 reps x N=200, tol 1e-8)")


def test_criterion_05_remainder_scaling():
    details, ok = [], True
    for name in ("mean-square", "cube-of-second-moment"):
        rep = remainder_scaling(make_functional(name), NORMAL,
                                n_grid=(100, 316, 1000, 3162), r=500, seed=19)
        ok = ok and rep.slope <= -0.5 and rep.r_squared > 0.9
        details.append(f"{name}: slope {rep.slope:.3f} (<= -0.5), "
                       f"r2 {rep.r_squared:.3f} (> 0.9)")
    criterion(5, ok, "remainder scaling E|R_N|: " + "; ".join(details))


def test_criterion_06_sqrtn_l1_bounded():
    vals = np.asarray(sqrtn_l1_check(
        make_functional("cube-of-second-moment"), NORMAL,
        n_grid=(100, 178, 316, 562, 1000), r=500, seed=23))
    ratio = float(vals.max() / vals.min())
    ok = ratio < 3.0
    criterion(6, ok,
              f"sqrt(N) E|dU| over N in [100, 1000]: range "
              f"[{vals.min():.3f}, {vals.max():.3f}], max/min {ratio:.2f} (< 3)")


def test_criterion_07_derivative_cross_check():
    rng = stream(29, "acceptance-derivcheck")
    worst, worst_name = 0.0, ""
    names = [n if ":" not in n else "quantile:0.5" for n in registry_names()]
    for name in names:
        u = make_functional(name)
        for _ in range(50):
            mu = DiscreteMeasure(rng.normal(size=(4, 1)))
            nu = DiscreteMeasure(rng.normal(size=(3, 1)))
            if name.startswith("quantile"):
                mu = as_law(SamplerSpec.normal(float(rng.normal()) * 0.2, 1.0))
            num = gateaux_numeric(u, mu, nu, eps=1e-3, richardson=2)
            sym = derivative_pairing(lfd(u, 1), mu, nu)
            gap = abs(num - sym) / (1.0 + abs(sym))
            if gap > worst:
                worst, worst_name = gap, name
    ok = worst < 1e-6
    criterion(7, ok,
              f"symbolic vs Gateaux numeric on {len(names)} functionals x 50 "
              f"probes: worst relative gap {worst:.2e} ({worst_name}, "
              f"tol 1e-6)")


def test_criterion_08_metric_suite():
    rng = stream(31, "acceptance-metrics")
    axioms = metric_axiom_suite(MetricKind.wasserstein(0.5), rng,
                                n_triples=200, tol=1e-10)
    worst_lp = 0.0
    for _ in range(50):
        mu = DiscreteMeasure(rng.normal(size=(int(rng.integers(1, 7)), 1)))
        nu = DiscreteMeasure(rng.normal(size=(int(rng.integers(1, 7)), 1)))
        ell = float(rng.uniform(1.0, 3.0))
        fast = distance(mu, nu, MetricKind.wasserstein(ell))
        cost = _pairwise_abs_diff(mu, nu) ** ell
        slow = _lp_transport_costs([(cost, mu.weights, nu.weights)])[0] ** (1.0 / ell)
        worst_lp = max(worst_lp, abs(fast - slow))
    pairs = []
    for _ in range(1000):
        mu = DiscreteMeasure(rng.normal(size=(int(rng.integers(1, 6)), 1)))
        nu = DiscreteMeasure(rng.normal(size=(int(rng.integers(1, 6)), 1)))
        pairs.append((mu, nu, float(rng.uniform(0.3, 2.5))))
    ineq_fail = sum(not ok for ok in tv_wasserstein_inequality_check(pairs))
    ok = axioms.ok and worst_lp < 1e-9 and ineq_fail == 0
    criterion(8, ok,
              f"metric suite: W_0.5 axioms on 200 triples (max violation "
              f"{axioms.max_violation:.2e}, tol 1e-10), quantile-vs-LP gap "
              f"{worst_lp:.2e} (tol 1e-9), TV-Wasserstein inequality "
              f"{1000 - ineq_fail}/1000 pairs")


def ou_sigma(ti: float, tj: float) -> float:
    lo = min(ti, tj)
    return np.exp(-(ti + tj)) * (1.0 + (np.exp(2.0 * lo) - 1.0) / 2.0)


def test_criterion_09_mean_field_ou_oracle():
    t0 = time.perf_counter()
    times = (0.5, 1.0)
    phi = make_functional("linear-mean")
    model = make_model("ou")
    rep = fluctuation_process(phi, model, n=500, times=times, r=500, seed=7,
                              dt=0.01, ref_size=5000, workers=4)
    theory = theoretical_covariance(phi, model, times,
                                    CovarianceConfig(force=True), seed=7)
    closed = np.array([[ou_sigma(ti, tj) for tj in times] for ti in times])
    theory_gap = np.abs(theory.matrix - closed)
    theory_tol = 0.05 * np.abs(closed) + theory.stderr
    combined = np.sqrt(rep.sigma_empirical_stderr ** 2 + theory.stderr ** 2)
    emp_gap = np.abs(rep.sigma_empirical - theory.matrix)
    cw = cramer_wold_normality(rep.f_samples, theory.matrix)
    pvals = [t.pvalue for t in cw]
    elapsed = time.perf_counter() - t0
    ok = (np.all(theory_gap <= theory_tol)
          and np.all(emp_gap <= 3.0 * combined)
          and len(cw) == 3 and all(p > 0.01 for p in pvals)
          and elapsed < 600.0)
    criterion(9, ok,
              f"OU fluctuation oracle: theory diag "
              f"({theory.matrix[0, 0]:.4f}, {theory.matrix[1, 1]:.4f}) vs "
              f"closed form ({closed[0, 0]:.4f}, {closed[1, 1]:.4f}) within "
              f"5% + SE; empirical gap <= 3 combined SE (max ratio "
              f"{float(np.max(emp_gap / combined)):.2f}); Cramer-Wold p = "
              f"{', '.join(f'{p:.3f}' for p in pvals)} (> 0.01); "
              f"{elapsed:.0f} s (< 600 s)")


def test_criterion_10_master_equation_residual():
    mu = DiscreteMeasure(np.array([[-1.0], [-0.2], [0.4], [1.1]]),
                         np.array([0.2, 0.2, 0.3, 0.3]))
    model = make_model("ou")
    details, ok = [], True
    for phi_name in ("linear-mean", "mean-squared"):
        ev = MasterEvaluator(make_functional(phi_name), model, m=10_000,
                             dt=0.01)
        for t in (0.25, 0.5):
            res = master_equation_residual(ev, t, mu, seed=37)
            ok = ok and res.residual < res.budget
            details.append(f"{phi_name}@t={t}: {res.residual:.1e} < "
                           f"{res.budget:.1e}")
    criterion(10, ok, "master-equation residual (M=1e4, CRN): "
              + "; ".join(details))


def test_criterion_11_fourth_moment_time_regularity():
    rep = time_regularity_probe(make_functional("linear-mean"),
                                make_model("ou"), 0.5, 1.0,
                                n_grid=(200, 632, 2000), r=300, seed=7)
    ok = abs(rep.slope - (-2.0)) <= 0.3
    criterion(11, ok,
              f"4th-moment time increment: log-log slope {rep.slope:.3f} "
              f"in [-2.3, -1.7], r2 {rep.r2:.3f}")


def test_criterion_12_worker_determinism():
    outputs = {}
    for label, runner in {
        "quantile-clt": lambda w: _csv_lines(
            "sqrtN_deltaU",
            run_clt_experiment(make_functional("quantile:0.5"), NORMAL,
                               n=10_000, r=2000, seed=7, workers=w).samples),
        "decomposition": lambda w: _csv_lines(
            "identity_residual",
            [r.identity_residual for r in decompose_many(
                make_functional("mean-square"), NORMAL, n=200, r=100,
                seed=17, workers=w)]),
        "ou-fluctuation": lambda w: _csv_lines(
            "F_t0.5,F_t1",
            fluctuation_process(
                make_functional("linear-mean"), make_model("ou"), n=500,
                times=(0.5, 1.0), r=500, seed=7, dt=0.01, ref_size=5000,
                workers=w).f_samples),
    }.items():
        outputs[label] = [runner(w) for w in (1, 4, 8)]
    mismatched = [label for label, (a, b, c) in outputs.items()
                  if not (a == b == c)]
    ok = not mismatched
    criterion(12, ok,
              "byte-identical sample CSVs across 1/4/8 workers for "
              "criteria 1, 4, 9" + (f" (MISMATCH: {mismatched})"
                                    if mismatched else ""))
