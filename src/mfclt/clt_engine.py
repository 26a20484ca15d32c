"""Monte Carlo verification of the empirical-measure central limit theorem.

For U a functional of probability measures, m0 a base law with i.i.d. draws
zeta_1, ..., zeta_N and m^N their empirical measure, the engine

* estimates the limit variance Var(dU/dm(m0, zeta_1)),
* replicates sqrt(N) (U(m^N) - U(m0)) and tests it against the Gaussian limit,
* reproduces the sequential martingale decomposition U(m^N) - U(m0) = Q_N + R_N
  built on the interpolated measures
  m^{N,i}_s = (1 + (1 - i - s)/N) m0 + (1/N) sum_{j<i} delta_j + (s/N) delta_i,
* and fits the N^(-alpha) decay of E|R_N|.

Replications own counter-based RNG streams keyed by (seed, purpose, index), so
results are bit-identical for any worker count or schedule.  Continuous base
laws enter through their deterministic high-resolution proxy cloud; the proxy
is the engine's definition of m0 wherever an inner integral needs one, and its
resolution error is measured by size-doubling and reported, never hidden.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .functionals import Functional, Quantile, evaluate, lfd
from .laws import Law, SamplerSpec, as_law
from .measures import DiscreteMeasure, _as_points
from .rng import map_replications, stream
from .stats import empirical_cov, ks_test_normal, loglog_slope, normal_cdf

DEGENERACY_TOL = 1e-12
DEFAULT_QUAD_POINTS = 8
# outer sample / stratified proxy size of the limit-variance estimate
MC_SIZE = 1_000_000
# generic-route decompositions re-evaluate the derivative field against the
# base proxy once per (i, s) node; keep that proxy modest
_GENERIC_DECOMP_PROXY = 4096


class EngineError(ValueError):
    """Monte Carlo engine misuse (bad sizes, unsupported functional)."""


def _gauss_legendre_01(quad_points: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(int(quad_points))
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _metric_branch(law: object) -> str:
    """Which convergence-metric branch of the limit theorem applies (recorded
    for the report only; the harness never evaluates the metric)."""
    return "m0-discrete" if isinstance(law, DiscreteMeasure) else "m0-general"


def _is_stratified(law: object) -> bool:
    return (isinstance(law, Law) and not law.is_discrete and law.dim == 1
            and law.spec.kind in ("normal", "uniform"))


def _draw(law: object, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. points from a base measure (law sampler or discrete atoms)."""
    if isinstance(law, DiscreteMeasure):
        idx = rng.choice(law.natoms, size=n, p=law.weights)
        return law.points[idx]
    if isinstance(law, Law):
        return law.sample(rng, n)
    raise EngineError(f"cannot sample from {type(law).__name__}")


# ---------------------------------------------------------------------------
# asymptotic variance


@dataclass(frozen=True)
class VarianceEstimate:
    """Var(dU/dm(m0, zeta_1)) with how it was computed and how well."""

    value: float
    stderr: float
    method: str  # "exact-atoms" | "stratified-quadrature" | "monte-carlo"
    degenerate: bool

    def __float__(self) -> float:
        return self.value


def asymptotic_variance(u: Functional, m0: object, seed: int = 0
                        ) -> VarianceEstimate:
    """Limit variance of the CLT: exact on atoms, quadrature or MC otherwise.

    d = 1 normal/uniform laws use the deterministic stratified proxy (error
    probed by doubling); other continuous laws fall back to MC_SIZE i.i.d.
    draws used both as the inner measure argument and the outer sample.
    """
    law = as_law(m0)
    field = lfd(u, 1)
    if isinstance(law, DiscreteMeasure):
        vals = field.values(law, law.points)
        mean = float(law.weights @ vals)
        var = float(law.weights @ (vals - mean) ** 2)
        est = VarianceEstimate(var, 0.0, "exact-atoms", var < DEGENERACY_TOL)
        return est

    def _weighted_var(points: np.ndarray, at: object) -> float:
        vals = field.values(at, points)
        return float(np.mean(vals ** 2) - np.mean(vals) ** 2)

    if _is_stratified(law):
        var = _weighted_var(law.proxy_points(MC_SIZE), law)
        half = _weighted_var(law.proxy_points(MC_SIZE // 2), law)
        return VarianceEstimate(var, abs(var - half), "stratified-quadrature",
                                var < DEGENERACY_TOL)

    rng = stream(seed, "asymptotic-variance")
    draws = law.sample(rng, MC_SIZE)
    emp = DiscreteMeasure(draws)
    vals = field.values(emp, draws)
    var = float(np.var(vals, ddof=1))
    centered = vals - vals.mean()
    m4 = float(np.mean(centered ** 4))
    stderr = float(np.sqrt(max(m4 - var ** 2, 0.0) / len(vals)))
    return VarianceEstimate(var, stderr, "monte-carlo", var < DEGENERACY_TOL)


# ---------------------------------------------------------------------------
# CLT replication harness


@dataclass(frozen=True)
class CltReport:
    n: int
    replications: int
    seed: int
    samples: np.ndarray  # (R,) values of sqrt(N) (U(m^N) - U(m0))
    sigma2_theory: float
    sigma2_theory_stderr: float
    sigma2_empirical: float
    sigma2_empirical_stderr: float
    ks_stat: float  # nan when the limit is degenerate
    ks_pvalue: float
    mean_abs_scaled: float
    degenerate: bool
    u_ref: float
    u_ref_error: float
    d_metric_branch: str
    functional: str
    law_label: str


def _reference_value(u: Functional, law: object) -> tuple[float, float]:
    """(U(m0), resolution-error estimate)."""
    if isinstance(law, DiscreteMeasure):
        return evaluate(u, law), 0.0
    if isinstance(u, Quantile):
        return evaluate(u, law), 0.0  # closed-form inverse CDF
    full = evaluate(u, law)
    half = evaluate(u, Law(law.spec, proxy_size=max(law.proxy_size // 2, 2)))
    return full, abs(full - half)


def _empirical_value_fn(u: Functional) -> Callable[[np.ndarray], float]:
    """U(empirical measure of a sample block), vectorized where possible."""
    mf = u.moment_form()
    if mf is not None:
        return lambda pts: float(mf.value(mf.stats(pts).mean(axis=0)))
    return lambda pts: evaluate(u, DiscreteMeasure(pts))


def run_clt_experiment(u: Functional, m0: object, n: int, r: int, seed: int,
                       workers: int = 1) -> CltReport:
    """R replications of sqrt(N) (U(m^N) - U(m0)) plus the Gaussian-limit test.

    Replication ``rep`` draws its N points from ``stream(seed, "clt", rep)``;
    the sample vector is therefore identical for every worker count.
    """
    if n < 1 or r < 3:
        raise EngineError("need n >= 1 and r >= 3")
    law = as_law(m0)
    theory = asymptotic_variance(u, law, seed=seed)
    u_ref, u_ref_error = _reference_value(u, law)
    value_fn = _empirical_value_fn(u)
    root_n = float(np.sqrt(n))

    def one_rep(rep: int) -> float:
        pts = _draw(law, stream(seed, "clt", rep), n)
        return root_n * (value_fn(pts) - u_ref)

    samples = np.asarray(map_replications(one_rep, r, workers), dtype=float)
    if not np.all(np.isfinite([theory.value, u_ref, *samples])):
        raise EngineError("non-finite limit variance, reference value or sample")
    samples.setflags(write=False)
    cov = empirical_cov(samples[:, None])
    sigma2_emp = float(cov.cov[0, 0])
    sigma2_se = float(cov.stderr[0, 0])
    if theory.degenerate:
        ks_stat = ks_pvalue = float("nan")
    else:
        ks = ks_test_normal(samples, 0.0, theory.value)
        ks_stat, ks_pvalue = ks.statistic, ks.pvalue
    return CltReport(
        n=int(n), replications=int(r), seed=int(seed), samples=samples,
        sigma2_theory=theory.value, sigma2_theory_stderr=theory.stderr,
        sigma2_empirical=sigma2_emp, sigma2_empirical_stderr=sigma2_se,
        ks_stat=ks_stat, ks_pvalue=ks_pvalue,
        mean_abs_scaled=float(np.mean(np.abs(samples))),
        degenerate=theory.degenerate, u_ref=u_ref, u_ref_error=u_ref_error,
        d_metric_branch=_metric_branch(law),
        functional=u.name or type(u).__name__,
        law_label=getattr(getattr(law, "spec", None), "label", None) or "atoms",
    )


# ---------------------------------------------------------------------------
# martingale decomposition


@dataclass(frozen=True)
class DecompositionRecord:
    n: int
    q_n: float
    r_n: float
    delta_u: float
    identity_residual: float
    quad_points: int
    increments: np.ndarray | None = None  # per-i martingale increments X_{N,i}


def _reference_measure(law: object, proxy_size: int | None) -> DiscreteMeasure:
    if isinstance(law, DiscreteMeasure):
        return law
    if isinstance(law, Law):
        return law.proxy_measure(proxy_size)
    raise EngineError("decomposition needs a discrete measure or a Law base")


def _reference_moments(mf, law: object) -> np.ndarray:
    """Moment vector of m0 (its default proxy cloud for continuous laws)."""
    ref = _reference_measure(law, None)
    return mf.stats(ref.points).T @ ref.weights


def _decompose_moment_form(mf, pts: np.ndarray, v0: np.ndarray,
                           quad_points: int, keep_increments: bool
                           ) -> DecompositionRecord:
    n = pts.shape[0]
    g = mf.stats(pts)  # (N, q)
    idx = np.arange(1, n + 1, dtype=float)
    head = 1.0 + (1.0 - idx) / n  # base-law weight at s = 0
    assert np.all(head - 1.0 / n >= -1e-15), "interpolation weights went negative"
    csum = np.vstack([np.zeros_like(v0), np.cumsum(g[:-1], axis=0)])
    base = head[:, None] * v0 + csum / n  # moment vector of m^{N,i}_0
    step = (g - v0) / n  # d/ds moment vector along the i-th interpolation
    grad0 = mf.grad(base)
    increments = np.einsum("iq,iq->i", grad0, g - v0) / n
    q_n = float(increments.sum())
    nodes, weights = _gauss_legendre_01(quad_points)
    r_n = 0.0
    for s, w in zip(nodes, weights):
        grad_s = mf.grad(base + s * step)
        r_n += w * float(np.einsum("iq,iq->i", grad_s - grad0, g - v0).sum()) / n
    delta_u = float(mf.value(g.mean(axis=0)) - mf.value(v0))
    return DecompositionRecord(
        n=n, q_n=q_n, r_n=r_n, delta_u=delta_u,
        identity_residual=abs(delta_u - q_n - r_n),
        quad_points=int(quad_points),
        increments=increments if keep_increments else None)


def martingale_decomposition(u: Functional, m0: object, samples: object,
                             quad_points: int = DEFAULT_QUAD_POINTS,
                             keep_increments: bool = False) -> DecompositionRecord:
    """Split U(m^N) - U(m0) into the martingale part Q_N plus remainder R_N.

    Q_N sums the s = 0 increments exactly; R_N integrates the s-variation by
    Gauss-Legendre quadrature.  For continuous m0 every integral against m0
    (including the reference value) uses one fixed proxy cloud, so the
    identity residual reflects s-quadrature error alone.
    """
    law = as_law(m0)
    pts = _as_points(samples, getattr(law, "dim", None))
    n = pts.shape[0]
    if n < 1:
        raise EngineError("need at least one sample")

    mf = u.moment_form()
    if mf is not None:
        return _decompose_moment_form(mf, pts, _reference_moments(mf, law),
                                      quad_points, keep_increments)

    # generic route: build each interpolated measure explicitly
    ref = _reference_measure(law, _GENERIC_DECOMP_PROXY)
    field = u.derivative(1)
    nodes, weights = _gauss_legendre_01(quad_points)
    q_n = 0.0
    r_n = 0.0
    increments = np.zeros(n) if keep_increments else None

    def pair_at(i: int, s: float) -> float:
        head = 1.0 + (1.0 - i - s) / n
        assert head >= -1e-15, "interpolation weights went negative"
        w = np.concatenate([
            head * ref.weights, np.full(i - 1, 1.0 / n), [s / n]])
        p = np.vstack([ref.points, pts[: i - 1], pts[i - 1 : i]])
        keep = w > 0
        mu_is = DiscreteMeasure(p[keep], w[keep])
        vals_ref = field.values(mu_is, ref.points)
        return float(field(mu_is, pts[i - 1]) - ref.weights @ vals_ref)

    for i in range(1, n + 1):
        at0 = pair_at(i, 0.0)
        q_n += at0 / n
        if increments is not None:
            increments[i - 1] = at0 / n
        r_n += sum(w * (pair_at(i, float(s)) - at0) for s, w in zip(nodes, weights)) / n
    delta_u = evaluate(u, DiscreteMeasure(pts)) - evaluate(u, ref)
    return DecompositionRecord(
        n=n, q_n=q_n, r_n=r_n, delta_u=delta_u,
        identity_residual=abs(delta_u - q_n - r_n),
        quad_points=int(quad_points), increments=increments)


def decompose_many(u: Functional, m0: object, n: int, r: int, seed: int,
                   quad_points: int = DEFAULT_QUAD_POINTS, workers: int = 1,
                   keep_increments: bool = False) -> list[DecompositionRecord]:
    """R independent decompositions; replication rep draws from
    stream(seed, "decompose", rep)."""
    law = as_law(m0)
    mf = u.moment_form()
    if mf is not None:
        v0 = _reference_moments(mf, law)  # shared across replications

        def one_rep(rep: int) -> DecompositionRecord:
            pts = _draw(law, stream(seed, "decompose", rep), n)
            return _decompose_moment_form(mf, pts, v0, quad_points,
                                          keep_increments)
    else:
        def one_rep(rep: int) -> DecompositionRecord:
            pts = _draw(law, stream(seed, "decompose", rep), n)
            return martingale_decomposition(
                u, law, pts, quad_points=quad_points,
                keep_increments=keep_increments)

    records = map_replications(one_rep, r, workers)
    if not np.all(np.isfinite([(x.delta_u, x.q_n, x.r_n) for x in records])):
        raise EngineError("non-finite decomposition (delta U, Q_N or R_N)")
    return records


# ---------------------------------------------------------------------------
# remainder scaling and the sqrt(N) L1 bound


@dataclass(frozen=True)
class ScalingReport:
    n_grid: tuple[int, ...]
    mean_abs_remainder: tuple[float, ...]
    slope: float  # -inf sentinel when R_N vanishes identically
    r_squared: float
    degenerate: bool


def remainder_scaling(u: Functional, m0: object, n_grid: Sequence[int], r: int,
                      seed: int, quad_points: int = DEFAULT_QUAD_POINTS,
                      workers: int = 1) -> ScalingReport:
    """Fit log E|R_N| against log N over the grid; CLT needs slope <= -1/2."""
    grid = tuple(int(n) for n in n_grid)
    if len(grid) < 2:
        raise EngineError("need at least two grid points")
    means = []
    for n in grid:
        sub_seed = int(stream(seed, "scaling-seed", n).integers(1 << 62))
        recs = decompose_many(u, m0, n, r, sub_seed, quad_points=quad_points,
                              workers=workers)
        means.append(float(np.mean([abs(rec.r_n) for rec in recs])))
    if max(means) < 1e-300:
        return ScalingReport(grid, tuple(means), float("-inf"), 1.0, True)
    fit = loglog_slope(np.asarray(grid, dtype=float), np.asarray(means))
    return ScalingReport(grid, tuple(means), fit.slope, fit.r2, False)


def sqrtn_l1_check(u: Functional, m0: object, n_grid: Sequence[int], r: int,
                   seed: int, workers: int = 1) -> list[float]:
    """sqrt(N) E|U(m^N) - U(m0)| over the grid (bounded when the CLT holds)."""
    out = []
    for n in n_grid:
        sub_seed = int(stream(seed, "sqrtn-l1", int(n)).integers(1 << 62))
        rep = run_clt_experiment(u, m0, int(n), r, sub_seed, workers=workers)
        out.append(rep.mean_abs_scaled)
    return out


# ---------------------------------------------------------------------------
# martingale-increment diagnostics


@dataclass(frozen=True)
class IncrementRegression:
    """OLS of X_{N,i} on past-measurable features, per probed index."""

    index: int
    feature_names: tuple[str, ...]
    coef: np.ndarray
    tstat: np.ndarray
    pvalue: np.ndarray


def martingale_increment_regression(u: Functional, m0: object, n: int, r: int,
                                    seed: int,
                                    indices: Sequence[int] | None = None
                                    ) -> list[IncrementRegression]:
    """Regress martingale increments on functions of the past.

    E[X_{N,i} | zeta_1, ..., zeta_{i-1}] = 0, so every coefficient (intercept
    included) should be statistically indistinguishable from zero.
    """
    if u.moment_form() is None:
        raise EngineError("increment regression needs a moment-form functional")
    law = as_law(m0)
    if indices is None:
        indices = [max(n // 2, 2), n]
    indices = sorted({int(i) for i in indices})
    if indices[0] < 2 or indices[-1] > n:
        raise EngineError("probe indices must lie in [2, n]")

    mf = u.moment_form()
    v0 = _reference_moments(mf, law)
    m2 = law.moment(2.0)  # theoretical centering keeps features past-measurable

    responses = {i: np.zeros(r) for i in indices}
    features = {i: np.zeros((r, 4)) for i in indices}
    for rep in range(r):
        pts = _draw(law, stream(seed, "increment-regression", rep), n)
        incr = _decompose_moment_form(
            mf, pts, v0, DEFAULT_QUAD_POINTS, True).increments
        first = pts[:, 0]
        sq = np.sum(pts * pts, axis=1)
        for i in indices:
            responses[i][rep] = incr[i - 1]
            features[i][rep] = (1.0, first[: i - 1].mean(),
                                sq[: i - 1].mean() - m2, first[i - 2])

    names = ("intercept", "past-mean", "past-sq-centered", "previous-point")
    out = []
    for i in indices:
        x, y = features[i], responses[i]
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ coef
        dof = max(len(y) - x.shape[1], 1)
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.inv(x.T @ x)
        se = np.sqrt(np.diag(cov))
        tstat = coef / se
        pvalue = 2.0 * (1.0 - normal_cdf(np.abs(tstat)))
        out.append(IncrementRegression(i, names, coef, tstat, np.asarray(pvalue)))
    return out
