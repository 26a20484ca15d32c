"""Interacting particles, their mean-field limit, and the fluctuation CLT.

The particle system is the Euler-Maruyama discretization of
Y_{k+1} = Y_k + b(Y_k, mu^N_k) dt + sigma sqrt(dt) xi_k with mu^N_k the
current (possibly weighted) empirical measure, sigma a constant and xi_k
standard normal in R^d: the diffusion is sigma I_d, one independent Brownian
motion per coordinate, so a = sigma sigma^T = sigma^2 I_d.  On top of the
integrator sit:

* a frozen high-M reference run standing in for the limit law mu_t (variance
  reduced: stratified initial cloud plus antithetic noise pairs; its residual
  bias is estimated by split-half and reported, never absorbed),
* the fluctuation process F^N_t = sqrt(N) [Phi(mu^N_t) - Phi(mu_t)] replicated
  over independent particle runs,
* a MasterEvaluator for V(t, mu) = Phi(Law(X_t^theta)): dV/dm and d2V/dm2 by
  common-random-number eps-slot differences, where (1 - eps) mu + eps delta_y
  reweights the same atoms plus one antithetic slot pair,
* every spatial derivative of V by reverse mode through the stored Euler
  states: du/dx_j = w_j d_mu V(x_j) for u = Phi of the evolved weighted cloud,
  so one forward and one backward pass give d_mu V at every particle and at
  weight-0 test particles,
* the two-term limit covariance Sigma of the fluctuation CLT (term 1 from
  eps-slot differences, term 2 from the adjoint), the Ito-remainder kernel
  theta and a master-equation residual, both from the adjoint.

Time discretization is an artifact parameter (default dt = 1e-2); every
quantity here is the Euler approximation of its continuous counterpart, and
oracle comparisons budget for that explicitly.

Determinism: every noise tensor comes from a counter-based stream keyed by
(seed, purpose, replication), so identical seeds give bit-identical results
for any worker count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .functionals import Functional, MomentForm, evaluate
from .laws import Law, LawError, SamplerSpec, as_law
from .measures import DiscreteMeasure
from .rng import map_replications, stream
from .stats import empirical_cov, ks_test_normal, loglog_slope

DEFAULT_DT = 1e-2
DEFAULT_EPS = 0.05
DEFAULT_H = 0.05
_REF_FACTOR = 10  # reference cloud size = factor * largest particle count
MAX_TIMES = 8  # time points of one covariance run (cost cap)
_CHUNK = 10  # N-particle runs integrated as one batch (peak memory vs overhead)


class MeanFieldError(ValueError):
    """Simulation misuse or blow-up (bad grids, non-finite states, gates)."""


# ---------------------------------------------------------------------------
# batched empirical measures and models


class BatchEmpirical:
    """Measure view of a batch of weighted clouds: points (B, n, d).

    ``expect(fn)`` returns a (B, 1) array ready to broadcast against the
    particle axis; ``mean()`` returns (B, 1, d).  Weights are per-batch rows
    (B, n) or a shared (n,) vector; None means equal weights.
    """

    def __init__(self, points: np.ndarray, weights: np.ndarray | None = None):
        self.points = points
        self.weights = weights

    def expect(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        vals = np.asarray(fn(self.points), dtype=float)  # (B, n)
        if self.weights is None:
            return vals.mean(axis=-1, keepdims=True)
        w = np.broadcast_to(self.weights, vals.shape)
        return np.sum(vals * w, axis=-1, keepdims=True)

    def mean(self) -> np.ndarray:
        if self.weights is None:
            return self.points.mean(axis=-2, keepdims=True)
        w = np.broadcast_to(self.weights, self.points.shape[:-1])
        return np.sum(self.points * w[..., None], axis=-2, keepdims=True)


@dataclass(frozen=True)
class MkvModel:
    """McKean-Vlasov coefficients plus their initial law.

    ``drift(x, mu) -> like x`` must be vectorized over (B, n, d) point tensors
    with ``mu`` the matching BatchEmpirical.  The diffusion is ``sigma`` I_d,
    with d = ``initial.dim``: each coordinate has its own Brownian motion of
    constant scale sigma, so a = sigma^2 I_d.  It is constant because the
    adjoint differentiates the drift only.  ``flags`` may contain
    "is_dirac_initial" and "claims_bounded_coeffs"; they gate the covariance
    estimator.  Lipschitz continuity of the drift is the constructor's
    contract, spot-checked on probes.

    ``drift_vjp(x, mu, rho) -> like x`` is the drift's vector-Jacobian product
    per unit mass: with mu = sum_l w_l delta_{x_l} and cotangents rho_l, row j
    is sum_l (d b(x_l, mu) / d x_j)^T w_l rho_l / w_j, written so that a row
    of weight 0 needs no division.  The adjoint L-derivative (covariance term
    2, master_lderiv) needs it and refuses a model without one.
    """

    name: str
    drift: Callable[[np.ndarray, BatchEmpirical], np.ndarray]
    sigma: float
    initial: SamplerSpec
    flags: frozenset = frozenset()
    drift_vjp: Callable[[np.ndarray, BatchEmpirical, np.ndarray],
                        np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.initial.dim


def _lipschitz_spot_check(model: MkvModel, cap: float = 1e6) -> None:
    rng = stream(7321, "lipschitz-probe", model.name)
    x = rng.normal(size=(1, 6, model.dim))
    dx = 1e-3 * rng.normal(size=x.shape)
    mu = BatchEmpirical(x)
    a = np.asarray(model.drift(x, mu), dtype=float)
    b = np.asarray(model.drift(x + dx, mu), dtype=float)
    num = float(np.max(np.abs(b - a)))
    den = float(np.max(np.abs(dx)))
    if num > cap * den:
        raise MeanFieldError(
            f"model {model.name!r}: drift jump {num:.2e} over step "
            f"{den:.2e} fails the Lipschitz spot check")


def _ou_drift(x, mu):
    return -x


def _ou_vjp(x, mu, rho):
    return -rho


def _mean_revert_drift(x, mu):
    return mu.mean() - x


def _mean_revert_vjp(x, mu, rho):
    return BatchEmpirical(rho, mu.weights).mean() - rho


def _sine_drift(x, mu):
    pull = mu.expect(lambda p: np.sin(p[..., 0]))  # (B, 1)
    return np.sin(x) + pull[..., None]


def _sine_vjp(x, mu, rho):
    return np.cos(x) * (rho + BatchEmpirical(rho, mu.weights).mean())


def make_model(name: str) -> MkvModel:
    """Built-in d = 1 models: ``ou``, ``mean-revert``, ``bounded-sine``."""
    if name == "ou":
        model = MkvModel("ou", _ou_drift, 1.0, SamplerSpec.normal(),
                         drift_vjp=_ou_vjp)
    elif name == "mean-revert":
        model = MkvModel("mean-revert", _mean_revert_drift, 0.5,
                         SamplerSpec.normal(), drift_vjp=_mean_revert_vjp)
    elif name == "bounded-sine":
        model = MkvModel("bounded-sine", _sine_drift, 1.0, SamplerSpec.normal(),
                         flags=frozenset({"claims_bounded_coeffs"}),
                         drift_vjp=_sine_vjp)
    else:
        raise MeanFieldError(
            f"unknown model {name!r}; known: {', '.join(model_names())}")
    _lipschitz_spot_check(model)
    return model


def model_names() -> list[str]:
    return ["bounded-sine", "mean-revert", "ou"]


# ---------------------------------------------------------------------------
# Euler-Maruyama core


def _steps_for(t: float, dt: float) -> int:
    if not (dt > 0 and np.isfinite(dt) and np.isfinite(t / dt)):
        raise MeanFieldError(
            f"time {t} with step dt={dt}: both must be finite, with dt > 0")
    k = int(round(t / dt))
    if k < 0 or abs(k * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise MeanFieldError(f"time {t} is negative or not on the dt={dt} grid")
    return k


def _integrate(model: MkvModel, points: np.ndarray,
               weights: np.ndarray | None, dt: float,
               noise_fn: Callable[[int], np.ndarray],
               snapshot_steps: Sequence[int]) -> np.ndarray:
    """Run the batched integrator to the last of the ascending snapshot_steps;
    returns the states at those steps as one (K, B, n, d) array.

    ``noise_fn(k)`` gives the step-k standard normal noise: one (n, d) array
    shared by every batch row (common random numbers), or a (B, n, d) array
    with one block per row.  The result is used before the next call, so it
    may be a buffer the caller refills.  The state is updated in place, with
    the operations of x + b dt + sqrt(dt) (sigma xi) in that order.
    """
    if any(b < a for a, b in zip(snapshot_steps, snapshot_steps[1:])):
        raise MeanFieldError("snapshot steps must be ascending")
    x = np.array(points, dtype=float)
    snaps = np.empty((len(snapshot_steps),) + x.shape)
    root_dt = np.sqrt(dt)
    k = 0
    for j, stop in enumerate(snapshot_steps):
        while k < stop:
            mu = BatchEmpirical(x, weights)
            bx = np.asarray(model.drift(x, mu), dtype=float)
            step = model.sigma * noise_fn(k)
            step *= root_dt
            x += bx * dt
            x += step
            k += 1
            if not np.all(np.isfinite(x)):
                raise MeanFieldError(f"non-finite particle state at step {k}")
        snaps[j] = x
    return snaps


def _antithetic_noise(rng: np.random.Generator, n: int, d: int
                      ) -> Callable[[int], np.ndarray]:
    """(n, d) noise of interleaved +/- row pairs (n even)."""
    if n % 2:
        raise MeanFieldError("antithetic noise needs an even row count")

    def draw(k: int) -> np.ndarray:
        g = rng.standard_normal((n // 2, d))
        out = np.empty((n, d))
        out[0::2] = g
        out[1::2] = -g
        return out

    return draw


def _particle_run(model: MkvModel, n: int, dt: float,
                  snapshot_steps: Sequence[int],
                  rngs: Sequence[tuple[np.random.Generator, np.random.Generator]]
                  ) -> np.ndarray:
    """(K, C, n, d) states at snapshot_steps of C independent N-particle runs,
    integrated as one batch; run c is seeded by rngs[c] = (init_rng,
    noise_rng).  Each run draws its i.i.d. initial cloud from its init_rng,
    and at every step its (n, d) Gaussian noise from its noise_rng,
    so its states do not depend on C or on the other runs of the batch."""
    x0 = np.stack([model.initial.sample(init_rng, n) for init_rng, _ in rngs])
    buf = np.empty((len(rngs), n, model.dim))

    def noise(k: int) -> np.ndarray:
        for row, (_, noise_rng) in zip(buf, rngs):
            noise_rng.standard_normal(out=row)
        return buf

    return _integrate(model, x0, None, dt, noise, snapshot_steps)


def simulate_particles(model: MkvModel, n: int, dt: float, t: float,
                       seed: int) -> np.ndarray:
    """(steps+1, N, d) Euler-Maruyama trajectory of the N-particle system."""
    if n < 2:
        raise MeanFieldError("need at least two particles")
    if dt <= 0 or t < dt:
        raise MeanFieldError("need dt > 0 and T >= dt")
    rngs = [(stream(seed, "particles"), stream(seed, "particles-noise"))]
    return _particle_run(model, n, dt, range(_steps_for(t, dt) + 1), rngs)[:, 0]


def _stratified_initial(base: object, m: int, rng: np.random.Generator
                        ) -> np.ndarray:
    """(m, d) cloud: inverse-CDF midpoints when available, else i.i.d."""
    law = as_law(base)
    if isinstance(law, DiscreteMeasure) and law.dim == 1:
        order = np.argsort(law.points[:, 0], kind="stable")
        cum = np.cumsum(law.weights[order])
        idx = np.searchsorted(cum, (np.arange(m) + 0.5) / m, side="left")
        return law.points[order[np.minimum(idx, law.natoms - 1)]]
    if isinstance(law, Law) and law.dim == 1 and law.spec.kind in (
            "normal", "uniform"):
        return np.array(law.proxy_points(m))  # the loop's midpoints, vectorised
    if law.dim == 1 and hasattr(law, "quantile"):
        try:
            return np.asarray(
                [law.quantile((j + 0.5) / m) for j in range(m)])[:, None]
        except LawError:
            pass
    if isinstance(law, DiscreteMeasure):
        idx = rng.choice(law.natoms, size=m, p=law.weights)
        return law.points[idx]
    if hasattr(law, "sample"):
        return law.sample(rng, m)
    raise MeanFieldError("cannot draw an initial cloud from this base measure")


def simulate_limit_reference(model: MkvModel, m: int, dt: float, t: float,
                             seed: int, snapshot_times: Sequence[float] = ()
                             ) -> tuple[np.ndarray, dict]:
    """High-M self-interacting run whose clouds proxy the limit law mu_t.

    Returns (trajectory-final cloud (m, d), {time: cloud}).  The initial cloud
    is stratified and the noise antithetically paired; that removes the
    O(M^-1/2) mean noise for linear models and shrinks it otherwise.  The
    remaining bias is the caller's to estimate (see reference_spread).
    """
    if m % 2:
        m += 1
    steps = _steps_for(t, dt)
    snap_steps = [_steps_for(s, dt) for s in snapshot_times]
    grid = sorted({*snap_steps, steps})
    rng = stream(seed, "reference-init")
    x0 = _stratified_initial(model.initial, m, rng)[None]
    noise = _antithetic_noise(stream(seed, "reference-noise"), m, model.dim)
    snaps = _integrate(model, x0, None, dt, noise, grid)[:, 0]
    clouds = {s: snaps[grid.index(k)] for s, k in zip(snapshot_times, snap_steps)}
    return snaps[grid.index(steps)], clouds


def reference_spread(phi: Functional, cloud: np.ndarray) -> float:
    """Split-half spread of Phi on a reference cloud: |Phi(A) - Phi(B)| / 2.

    Halves take alternating antithetic pairs so each is itself balanced.
    """
    a = np.concatenate([cloud[0::4], cloud[1::4]])
    b = np.concatenate([cloud[2::4], cloud[3::4]])
    return abs(evaluate(phi, DiscreteMeasure(a)) - evaluate(phi, DiscreteMeasure(b))) / 2.0


# ---------------------------------------------------------------------------
# fluctuation process


@dataclass(frozen=True)
class FluctuationReport:
    times: tuple[float, ...]
    n: int
    replications: int
    seed: int
    dt: float
    f_samples: np.ndarray  # (R, K)
    sigma_empirical: np.ndarray  # (K, K)
    sigma_empirical_stderr: np.ndarray
    ref_size: int
    ref_bias_scaled: np.ndarray  # (K,) sqrt(N)-scaled reference spread
    model: str
    phi: str


def _phi_on_cloud(phi: Functional, cloud: np.ndarray) -> float:
    mf = phi.moment_form()
    if mf is not None:
        return float(mf.value(mf.stats(cloud).mean(axis=0)))
    return evaluate(phi, DiscreteMeasure(cloud))


def _phi_of_runs(phi: Functional, model: MkvModel, n: int, dt: float,
                 snapshot_steps: Sequence[int], r: int,
                 rngs: Callable[[int], tuple[np.random.Generator,
                                             np.random.Generator]],
                 workers: int = 1) -> np.ndarray:
    """(r, K) values of Phi at the snapshot steps of r independent N-particle
    runs, run ``rep`` seeded by rngs(rep) = (init_rng, noise_rng).

    Runs are integrated _CHUNK at a time as one batch, and each chunk is one
    task of map_replications.  Every run draws only from its own streams and
    Phi is evaluated one cloud at a time, so the values do not depend on the
    chunking or on ``workers``.
    """
    def one_chunk(c: int) -> list[list[float]]:
        batch = [rngs(rep) for rep in range(c * _CHUNK, min(r, (c + 1) * _CHUNK))]
        snaps = _particle_run(model, n, dt, snapshot_steps, batch)
        return [[_phi_on_cloud(phi, cloud) for cloud in snaps[:, b]]
                for b in range(len(batch))]

    chunks = map_replications(one_chunk, -(-r // _CHUNK), workers)
    return np.asarray([row for chunk in chunks for row in chunk])


def fluctuation_process(phi: Functional, model: MkvModel, n: int,
                        times: Sequence[float], r: int, seed: int,
                        dt: float = DEFAULT_DT, ref_size: int | None = None,
                        workers: int = 1) -> FluctuationReport:
    """R replications of F^N_t = sqrt(N) [Phi(mu^N_t) - Phi(mu_t)].

    The limit law is one frozen reference run (size 10 N by default, seed
    tag separated from the particle streams) shared by every replication; its
    sqrt(N)-scaled split-half spread is reported as ref_bias_scaled.
    Replication ``rep`` draws from the ("fluct-init", rep) and ("fluct-noise",
    rep) streams.  Replications are integrated in chunks of ten, and the
    samples are bit for bit the same for any chunking and any ``workers``.
    """
    if n < 1 or r < 3 or (ref_size is not None and ref_size < 3):
        raise MeanFieldError("need n >= 1, r >= 3 and ref_size >= 3")
    times = tuple(float(t) for t in times)
    if any(b <= a for a, b in zip(times, times[1:])) or not times:
        raise MeanFieldError("times must be strictly increasing and nonempty")
    horizon = times[-1]
    m_ref = int(ref_size) if ref_size is not None else _REF_FACTOR * n
    _, ref_clouds = simulate_limit_reference(
        model, m_ref, dt, horizon, seed, snapshot_times=times)
    ref_values = np.asarray([_phi_on_cloud(phi, ref_clouds[t]) for t in times])
    ref_bias = np.asarray(
        [reference_spread(phi, ref_clouds[t]) for t in times])
    snap_steps = [_steps_for(t, dt) for t in times]
    root_n = float(np.sqrt(n))

    values = _phi_of_runs(
        phi, model, n, dt, snap_steps, r,
        lambda rep: (stream(seed, "fluct-init", rep),
                     stream(seed, "fluct-noise", rep)), workers)
    f_samples = root_n * (values - ref_values)
    f_samples.setflags(write=False)
    cov = empirical_cov(f_samples)
    return FluctuationReport(
        times=times, n=int(n), replications=int(r), seed=int(seed), dt=float(dt),
        f_samples=f_samples, sigma_empirical=cov.cov,
        sigma_empirical_stderr=cov.stderr, ref_size=m_ref,
        ref_bias_scaled=root_n * ref_bias, model=model.name,
        phi=phi.name or type(phi).__name__)


# ---------------------------------------------------------------------------
# master function V(t, mu) and its derivatives


@dataclass(frozen=True)
class MasterEvaluator:
    """Nested Monte Carlo evaluator of V(t, mu) = Phi(Law(X_t | X_0 ~ mu)).

    ``m`` inner particles (even), measure step ``eps``, spatial step DEFAULT_H.
    All runs with the same seed share the master noise (CRN): an eps slot
    reweights the base atoms and adds one antithetic pair of rows, and a test
    particle is a weight-0 pair, so differences subtract coupled runs.
    """

    phi: Functional
    model: MkvModel
    m: int = 2000
    dt: float = DEFAULT_DT
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if self.m < 4 or self.m % 2:
            raise MeanFieldError("inner particle count must be even and >= 4")
        if self.eps <= 0 or self.dt <= 0:
            raise MeanFieldError("eps and dt must be positive")


def _even_counts(weights: np.ndarray, m: int) -> np.ndarray:
    """Even per-atom replication counts summing to m (largest remainder)."""
    half = m // 2
    raw = weights * half
    counts = np.maximum(np.floor(raw).astype(int), 1)
    frac = raw - np.floor(raw)
    gap = half - counts.sum()
    order = np.argsort(-frac)
    idx = 0
    while gap > 0:
        counts[order[idx % len(order)]] += 1
        idx += 1
        gap -= 1
    while gap < 0:
        big = int(np.argmax(counts))
        if counts[big] <= 1:
            raise MeanFieldError("inner cloud too small for the atom count")
        counts[big] -= 1
        gap += 1
    return 2 * counts


def _base_cloud(ev: MasterEvaluator, mu: object, seed: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """(points (m, d), weights (m,)) representing mu exactly when possible.

    A discrete law keeps each antithetic pair of rows (2j, 2j + 1) on one
    atom: with 2 natoms <= m every atom is replicated to an even count,
    otherwise m / 2 stratified atoms are each taken twice.
    """
    law = as_law(mu)
    m = ev.m
    if isinstance(law, DiscreteMeasure):
        if 2 * law.natoms <= m:
            counts = _even_counts(law.weights, m)
            points = np.repeat(law.points, counts, axis=0)
            weights = np.repeat(law.weights / counts, counts)
            return points, weights
        rng = stream(seed, "master-cloud-thin")
        pts = np.repeat(_stratified_initial(law, m // 2, rng), 2, axis=0)
        return pts, np.full(m, 1.0 / m)
    rng = stream(seed, "master-cloud")
    pts = _stratified_initial(law, m, rng)
    return pts, np.full(pts.shape[0], 1.0 / pts.shape[0])


def _phi_batch(phi: Functional, points: np.ndarray, weights: np.ndarray
               ) -> np.ndarray:
    """(K, B) values of Phi on a (K, B, n, d) batch of clouds that share the
    (B, n) weights across the K snapshots."""
    k, b, n, d = points.shape
    points, weights = points.reshape(k * b, n, d), np.tile(weights, (k, 1))
    mf = phi.moment_form()
    if mf is not None:
        g = mf.stats(points.reshape(-1, d)).reshape(k * b, n, -1)
        v = np.einsum("bnq,bn->bq", g, weights)
        return np.asarray(mf.value(v), dtype=float).reshape(k, b)
    out = np.empty(k * b)
    for i in range(k * b):
        keep = weights[i] > 0
        out[i] = evaluate(phi, DiscreteMeasure(points[i, keep], weights[i, keep]))
    return out.reshape(k, b)


def _master_noise(seed: int, n: int, d: int) -> Callable[[int], np.ndarray]:
    """The antithetic noise stream every master-function run of one seed
    shares (n rows, +/- pairs 2j and 2j + 1)."""
    return _antithetic_noise(stream(seed, "master-noise"), n, d)


def _slot_values(ev: MasterEvaluator, steps: Sequence[int], pts: np.ndarray,
                 base_w: np.ndarray, ys: np.ndarray, eps: float, seed: int
                 ) -> np.ndarray:
    """(K, P) values V(t_k, (1 - eps) nu + eps delta_y) for each of the K
    ascending step counts and each row y of ys, from one CRN run.

    ``(pts, base_w)`` is the base cloud of nu; eps = 0 gives V(t, nu).  Rows
    are [n base | 0 0 | y y]: y is an antithetic pair of weight eps/2 each (so
    its noise has zero mean under linear dynamics), and the weight-0 pair
    keeps the noise layout every estimator of one seed has always used.  A
    shorter horizon is a prefix of the same run.
    """
    n, d = pts.shape
    points = np.zeros((len(ys), n + 4, d))
    points[:, :n] = pts
    points[:, n + 2:] = ys[:, None]
    weights = np.zeros((len(ys), n + 4))
    weights[:, :n] = (1.0 - eps) * base_w
    weights[:, n + 2:] = eps / 2.0
    noise = _master_noise(seed, n + 4, d)
    return _phi_batch(ev.phi, _integrate(ev.model, points, weights, ev.dt,
                                         noise, steps), weights)


def _adjoint_moment_form(phi: Functional) -> MomentForm:
    """Phi's moment form, which must carry exact statistic gradients: they
    give the adjoint its terminal cotangent grad f(v) . grad G(x_j)."""
    mf = phi.moment_form()
    if mf is None or mf.stat_grad_fn is None:
        raise MeanFieldError(
            f"functional {phi.name or type(phi).__name__!r} has no moment form "
            "with exact statistic gradients, which the adjoint L-derivative "
            "needs (a quantile's particle gradient is a point mass)")
    return mf


def _require_drift_vjp(model: MkvModel) -> None:
    if model.drift_vjp is None:
        raise MeanFieldError(f"model {model.name!r} has no drift VJP, which "
                             "the adjoint L-derivative needs")


def _adjoint_lderiv(ev: MasterEvaluator, steps: Sequence[int], pts: np.ndarray,
                    weights: np.ndarray,
                    noise: Callable[[int], np.ndarray]) -> np.ndarray:
    """(K, n, d) L-derivative d_mu V(t_k, mu)(x_j) at every row x_j of the
    cloud mu = sum_j w_j delta_{x_j}, for each of the K ascending step counts.

    One forward Euler pass under ``noise`` (the antithetic master-noise
    stream: rows 2j and 2j + 1 form a +/- pair) stores every state.  One
    backward pass carries the cotangent per unit mass, rho_j = (du/dx_j) / w_j
    for u = Phi of the evolved cloud, from the terminal grad f(v) . grad G(x_j)
    through rho <- rho + dt * drift_vjp(x, mu, rho) to step 0, where it is
    d_mu V(x_j).  Each time is one row of the cotangent batch, entering at its
    own step.  A row of weight 0 is a test particle: it moves in the cloud's
    field without acting on it.
    """
    model = ev.model
    mf = _adjoint_moment_form(ev.phi)
    _require_drift_vjp(model)
    states = _integrate(model, pts[None], weights, ev.dt, noise,
                        range(steps[-1] + 1))[:, 0]
    rho = np.zeros((len(steps),) + pts.shape)
    for k in range(steps[-1], -1, -1):
        for i, stop in enumerate(steps):
            if stop == k:
                g = mf.stat_grads(states[k])  # (n, q, d)
                v = weights @ mf.stats(states[k])
                rho[i] = np.einsum("q,nqd->nd", mf.grad(v), g)
        if k:
            x = np.broadcast_to(states[k - 1], rho.shape)
            rho = rho + ev.dt * np.asarray(
                model.drift_vjp(x, BatchEmpirical(x, weights), rho), dtype=float)
    if not np.all(np.isfinite(rho)):
        raise MeanFieldError("non-finite adjoint L-derivative")
    return rho


def _lderiv_at(ev: MasterEvaluator, steps: Sequence[int], pts: np.ndarray,
               weights: np.ndarray, ys: np.ndarray, seed: int) -> np.ndarray:
    """(K, P, d) d_mu V(t_k, mu)(y) at each row y of ys for the cloud mu =
    (pts, weights): each y is a weight-0 test-particle pair, and its two
    gradients are averaged.  Every pair reuses rows n and n + 1 of the master
    noise; test particles do not act on the cloud, so nearby ys stay coupled.
    """
    n, p = len(pts), len(ys)
    draw = _master_noise(seed, n + 2, ev.model.dim)

    def noise(k: int) -> np.ndarray:
        xi = draw(k)
        return np.concatenate([xi[:n], np.tile(xi[n:], (p, 1))])

    rho = _adjoint_lderiv(ev, steps, np.vstack([pts, np.repeat(ys, 2, axis=0)]),
                          np.concatenate([weights, np.zeros(2 * p)]), noise)
    return rho[:, n:].reshape(len(steps), p, 2, -1).mean(axis=2)


def master_value(ev: MasterEvaluator, t: float, mu: object, seed: int) -> float:
    """V(t, mu) = Phi of the evolved inner cloud; t = 0 is exact."""
    law = as_law(mu)
    if t == 0:
        return evaluate(ev.phi, law)
    pts, base_w = _base_cloud(ev, law, seed)
    vals = _slot_values(ev, (_steps_for(t, ev.dt),), pts, base_w,
                        np.zeros((1, ev.model.dim)), 0.0, seed)
    return float(vals[0, 0])


def master_lfd_batch(ev: MasterEvaluator, times: Sequence[float], nu: object,
                     ys: np.ndarray, seed: int) -> np.ndarray:
    """dV/dm(t, nu, y) at each ascending time t and each row y, (K, P):
    [V((1-eps)nu + eps delta_y) - V((1-eps)nu + eps delta_0)] / eps,
    CRN-coupled (normalization built in), every time from one run."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    law = as_law(nu)
    steps = [_steps_for(t, ev.dt) for t in times]
    pts, base_w = _base_cloud(ev, law, seed)
    rows = np.vstack([np.zeros((1, ys.shape[1])), ys])  # baseline y = 0 first
    vals = _slot_values(ev, steps, pts, base_w, rows, ev.eps, seed)
    return (vals[:, 1:] - vals[:, :1]) / ev.eps


def master_lfd(ev: MasterEvaluator, t: float, nu: object, y: object,
               seed: int) -> float:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return float(master_lfd_batch(ev, (t,), nu, y[None], seed)[0, 0])


def master_lderiv(ev: MasterEvaluator, t: float, nu: object, y: object,
                  seed: int) -> np.ndarray:
    """L-derivative d_mu V(t, nu)(y) = grad_y dV/dm, (d,), by the adjoint
    with y as a test particle."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    pts, base_w = _base_cloud(ev, as_law(nu), seed)
    return _lderiv_at(ev, (_steps_for(t, ev.dt),), pts, base_w, y[None],
                      seed)[0, 0]


def _with_z_slot(pts: np.ndarray, base_w: np.ndarray, z: np.ndarray,
                 eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(1 - eps) nu + eps delta_z: z joins nu's cloud as a pair of eps/2 rows."""
    return (np.vstack([pts, z, z]),
            np.concatenate([(1.0 - eps) * base_w, [eps / 2.0, eps / 2.0]]))


def master_lfd2(ev: MasterEvaluator, t: float, nu: object, y: object,
                z: object, seed: int) -> float:
    """Second measure derivative d2V/dm2(t, nu, y, z) by iterated eps-steps:
    [dV/dm(nu_z, y) - dV/dm(nu, y)] / eps with nu_z = (1-eps)nu + eps delta_z;
    nu carries the z pair at weight 0, so all four runs share one layout."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    pts, base_w = _base_cloud(ev, as_law(nu), seed)
    eps, steps = ev.eps, (_steps_for(t, ev.dt),)
    rows = np.vstack([y, np.zeros_like(y)])  # slot at y, baseline slot at 0
    v = np.concatenate([_slot_values(ev, steps, *_with_z_slot(pts, base_w, z, w),
                                     rows, eps, seed)[0] for w in (eps, 0.0)])
    return float(((v[0] - v[1]) - (v[2] - v[3])) / eps ** 2)


def theta_second_derivative(ev: MasterEvaluator, t: float, nu: object,
                            z: object, y: object, seed: int) -> float:
    """Mixed spatial second derivative d_z d_y of d2V/dm2(t, nu, z, y).

    This is the kernel weighting the O(N^-3/2) Ito remainder; it vanishes
    identically for linear Phi under linear dynamics.  The estimate is
    [d_mu V(nu_{z+h})(y) - d_mu V(nu_{z-h})(y)] / (2 h eps) by the adjoint,
    with nu_z = (1 - eps) nu + eps delta_z; where d_mu V does not depend on
    the cloud, the two passes agree bit for bit and it is 0.0 exactly.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if ev.model.dim != 1:
        raise MeanFieldError("theta probe implemented for d = 1")
    pts, base_w = _base_cloud(ev, as_law(nu), seed)
    eps, h, steps = ev.eps, DEFAULT_H, (_steps_for(t, ev.dt),)
    rho_y = [_lderiv_at(ev, steps, *_with_z_slot(pts, base_w, zh, eps), y[None],
                        seed)[0, 0, 0] for zh in (z + h, z - h)]
    return float(rho_y[0] - rho_y[1]) / (2.0 * h * eps)


# ---------------------------------------------------------------------------
# limit covariance Sigma


@dataclass(frozen=True)
class CovarianceConfig:
    """Sample sizes and grids of the two-term fluctuation covariance.

    Term 1 uses ``xi_probes`` quadrature points of the initial law and an
    ``inner_m``-particle slot cloud; term 2 uses every point of a
    ``ref_size`` reference cloud at each ``s_stride``-th step of the dt grid.
    """

    inner_m: int = 2000
    dt: float = DEFAULT_DT
    xi_probes: int = 64
    s_stride: int = 1  # left-Riemann stride over the dt grid
    ref_size: int = 4000
    force: bool = False


@dataclass(frozen=True)
class CovarianceResult:
    matrix: np.ndarray  # (K, K) = term1 + term2
    stderr: np.ndarray
    term1: np.ndarray
    term2: np.ndarray
    times: tuple[float, ...]
    gate: str


def _xi_probes(initial: object, p: int, seed: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Probe points and weights quadrating the initial law.

    Gauss-Hermite for normal laws, Gauss-Legendre for uniform, the atoms
    themselves for small discrete laws, stratified midpoints otherwise.
    """
    law = as_law(initial)
    spec = getattr(law, "spec", None)
    if spec is not None and spec.dim == 1:
        if spec.kind == "normal":
            nodes, w = np.polynomial.hermite_e.hermegauss(p)
            return (spec.mean + spec.sd * nodes)[:, None], w / w.sum()
        if spec.kind == "uniform":
            nodes, w = np.polynomial.legendre.leggauss(p)
            mid, half = (spec.low + spec.high) / 2, (spec.high - spec.low) / 2
            return (mid + half * nodes)[:, None], w / w.sum()
    if isinstance(law, DiscreteMeasure) and law.natoms <= p:
        return law.points, law.weights
    rng = stream(seed, "xi-probes")
    pts = _stratified_initial(law, p, rng)
    return pts, np.full(pts.shape[0], 1.0 / pts.shape[0])


def _cov_of_values(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(K, K) covariance of rows of a under probe weights w."""
    mean = a @ w
    centered = a - mean[:, None]
    return (centered * w) @ centered.T


def theoretical_covariance(phi: Functional, model: MkvModel,
                           times: Sequence[float], config: CovarianceConfig,
                           seed: int) -> CovarianceResult:
    """Sigma_ij = Cov(dV/dm(t_i, nu, xi), dV/dm(t_j, nu, xi))
    + E int_0^{t_i ^ t_j} d_mu V(t_i - s, mu_s)(X_s)^T a d_mu V(t_j - s,
    mu_s)(X_s) ds with a = sigma^2 I_d, both by nested Monte Carlo.

    Term 1 differences eps-slot runs at quadrature probes of the initial
    law.  Term 2 takes mu_s as the reference cloud at each grid step s,
    enters every cloud point as a +/- antithetic noise pair, and gets
    d_mu V(t_i - s, mu_s) at all of them from one forward and one backward
    Euler pass (the adjoint); X_s ranges over the cloud.  The adjoint needs
    a drift VJP and a moment-form Phi with exact statistic gradients;
    anything else raises MeanFieldError.

    Gate: the fluctuation theorem needs a Dirac initial law or bounded
    coefficients; models claiming neither flag require ``config.force``
    (documented as a diagnostic run outside the theorem's hypotheses).
    Each term's standard error is |full - half| + |full - alt| / 2: half
    uses half the term-1 probes, or the term-2 cloud points of every other
    antithetic pair of the same pass; alt re-runs at seed + 1.
    """
    times = tuple(float(t) for t in times)
    k = len(times)
    if not 1 <= k <= MAX_TIMES:
        raise MeanFieldError(f"between 1 and {MAX_TIMES} time points (cost cap)")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise MeanFieldError("times must be strictly increasing")
    if not (model.flags & {"is_dirac_initial", "claims_bounded_coeffs"}):
        if not config.force:
            raise MeanFieldError(
                f"model {model.name!r} claims neither a Dirac initial law nor "
                "bounded coefficients; pass force=True to run anyway")
        gate = "forced (outside the theorem's stated hypotheses)"
    else:
        gate = "hypothesis flags satisfied"

    ev = MasterEvaluator(phi, model, m=config.inner_m, dt=config.dt)
    nu = as_law(model.initial)
    _adjoint_moment_form(phi)  # refuse before term 1 spends its runs
    _require_drift_vjp(model)

    def term1_at(p: int, sub_seed: int) -> np.ndarray:
        xis, xi_w = _xi_probes(model.initial, p, sub_seed)
        return _cov_of_values(master_lfd_batch(ev, times, nu, xis, sub_seed),
                              xi_w)

    def term2_at(sub_seed: int) -> tuple[np.ndarray, np.ndarray]:
        """(full, half) from one reference run and one adjoint pass per s."""
        s_grid = _s_grid(times, config)
        final, ref_clouds = simulate_limit_reference(
            model, config.ref_size, config.dt, times[-1], sub_seed,
            snapshot_times=s_grid)
        m_ref, d = final.shape
        a = model.sigma ** 2 * np.eye(d)
        # every pass restarts the same noise stream: draw it once
        draw = _master_noise(sub_seed, 2 * m_ref, d)
        noise = np.asarray(
            [draw(j) for j in range(_steps_for(times[-1], config.dt))])
        full, half = np.zeros((k, k)), np.zeros((k, k))
        for s in s_grid:
            cloud = ref_clouds[s]
            # the live times t > s are a suffix of the ascending times
            live = [_steps_for(t - s, config.dt) for t in times if t > s + 1e-12]
            rho = _adjoint_lderiv(ev, live, np.repeat(cloud, 2, axis=0),
                                  np.full(2 * m_ref, 0.5 / m_ref),
                                  noise.__getitem__)
            g = rho.reshape(len(live), m_ref, 2, d).mean(axis=2)  # pair means
            # the reference pairs its own rows antithetically: keep every other
            every_other = g[:, (np.arange(m_ref) // 2) % 2 == 0]
            lo = k - len(live)
            for out, gs in ((full, g), (half, every_other)):
                out[lo:, lo:] += (config.s_stride * config.dt / gs.shape[1]
                                  ) * np.einsum("ipk,kl,jpl->ij", gs, a, gs)
        return full, half

    def stderr(full: np.ndarray, half: np.ndarray, alt: np.ndarray
               ) -> np.ndarray:
        return np.abs(full - half) + np.abs(full - alt) / 2.0

    p = config.xi_probes
    t1 = term1_at(p, seed)
    se1 = stderr(t1, term1_at(max(p // 2, 2), seed), term1_at(p, seed + 1))
    t2, t2_half = term2_at(seed)
    se2 = stderr(t2, t2_half, term2_at(seed + 1)[0])

    return CovarianceResult(
        matrix=t1 + t2, stderr=se1 + se2, term1=t1, term2=t2,
        times=times, gate=gate)


def _s_grid(times: Sequence[float], config: CovarianceConfig) -> list[float]:
    horizon = max(times)
    n_steps = _steps_for(horizon, config.dt)
    return [k * config.dt for k in range(0, n_steps, config.s_stride)]


# ---------------------------------------------------------------------------
# master-equation residual


@dataclass(frozen=True)
class MasterResidual:
    lhs: float  # d/ds V(t, mu), central difference
    rhs: float  # int [d_mu V . b + 1/2 tr(a d_v d_mu V)] dmu
    residual: float
    budget: float
    mc_spread: float
    tau: float


def master_equation_residual(ev: MasterEvaluator, t: float, mu: object,
                             seed: int) -> MasterResidual:
    """|dV/dt - int [d_mu V . b + 1/2 tr(a d_v d_mu V)] dmu| at (t, mu).

    dV/dt is a CRN central difference (tau = 2 dt); d_mu V at each atom y
    and at y +/- h (h = DEFAULT_H) comes from the adjoint, as in covariance
    term 2, and d_v d_mu V is the central difference; d = 1 only.  The budget
    3 * spread + (5 dt + 5 tau^2 + 5 h^2) * (1 + |lhs| + |rhs|) combines a
    two-seed Monte Carlo spread with first-order discretization allowances;
    it is a smoke-test tolerance, not a proven bound.
    """
    if ev.model.dim != 1:
        raise MeanFieldError("master-equation residual implemented for d = 1")
    _adjoint_moment_form(ev.phi)  # refuse before lhs spends its runs
    _require_drift_vjp(ev.model)
    a = ev.model.sigma ** 2
    law = as_law(mu)
    tau, h = 2 * ev.dt, DEFAULT_H
    if t - tau < -1e-12:
        raise MeanFieldError("need t >= tau for the centered time difference")

    if isinstance(law, DiscreteMeasure):
        support = law
    elif isinstance(law, Law):
        support = law.proxy_measure(32)
    else:
        raise MeanFieldError("residual probe needs a discrete or basic law")
    if support.natoms > 64:
        raise MeanFieldError("residual probe capped at 64 atoms")

    def lhs_at(s: int) -> float:
        if t - tau == 0:  # V(0, mu) is the exact evaluate
            down = master_value(ev, 0.0, law, s)
            up = master_value(ev, t + tau, law, s)
        else:  # one run, snapshotted at both times
            pts, base_w = _base_cloud(ev, law, s)
            steps = (_steps_for(t - tau, ev.dt), _steps_for(t + tau, ev.dt))
            down, up = _slot_values(ev, steps, pts, base_w, np.zeros((1, 1)),
                                    0.0, s)[:, 0]
        return (up - down) / (2.0 * tau)

    def rhs_at(s: int) -> float:
        pts, base_w = _base_cloud(ev, law, s)
        stencil = support.points + np.asarray([h, 0.0, -h])  # (atoms, 3)
        rho = _lderiv_at(ev, (_steps_for(t, ev.dt),), pts, base_w,
                         stencil.reshape(-1, 1), s).reshape(support.natoms, 3)
        second = (rho[:, 0] - rho[:, 2]) / (2.0 * h)
        batch = BatchEmpirical(support.points[None], support.weights[None])
        bx = np.asarray(ev.model.drift(support.points[None], batch))[0, :, 0]
        integrand = rho[:, 1] * bx + 0.5 * a * second
        return float(support.weights @ integrand)

    lhs, rhs = lhs_at(seed), rhs_at(seed)
    lhs_b, rhs_b = lhs_at(seed + 1), rhs_at(seed + 1)
    spread = max(abs(lhs - lhs_b), abs(rhs - rhs_b))
    residual = abs(lhs - rhs)
    scale = 1.0 + abs(lhs) + abs(rhs)
    budget = 3.0 * spread + (5 * ev.dt + 5 * tau ** 2 + 5 * h ** 2) * scale
    return MasterResidual(lhs=lhs, rhs=rhs, residual=residual, budget=budget,
                          mc_spread=spread, tau=tau)


# ---------------------------------------------------------------------------
# regularity probes and the Cramer-Wold check


@dataclass(frozen=True)
class ProbeReport:
    n_grid: tuple[int, ...]
    values: tuple[float, ...]
    slope: float
    r2: float


def time_regularity_probe(phi: Functional, model: MkvModel, t1: float,
                          t2: float, n_grid: Sequence[int], r: int, seed: int
                          ) -> ProbeReport:
    """Slope in N of E|(V(t2, mu0^N) - V(t2, nu)) - (V(t1, mu0^N) - V(t1, nu))|^4.

    Each of the r replications at each N is one N-particle run from i.i.d.
    initial atoms, snapshotted at t1 and t2 (runs integrated in chunks, as in
    fluctuation_process); the limit values come from one big stratified
    antithetic reference.  The fourth moment should fall like N^-2.
    """
    if not 0 < t1 < t2:
        raise MeanFieldError("need 0 < t1 < t2")
    if r < 1:
        raise MeanFieldError("need at least one replication")
    grid = tuple(int(n) for n in n_grid)
    if not grid or min(grid) < 1:
        raise MeanFieldError("n_grid needs at least one size, each >= 1")
    m_ref = _REF_FACTOR * max(grid)
    _, ref_clouds = simulate_limit_reference(model, m_ref, DEFAULT_DT, t2, seed,
                                             snapshot_times=(t1, t2))
    ref1 = _phi_on_cloud(phi, ref_clouds[t1])
    ref2 = _phi_on_cloud(phi, ref_clouds[t2])
    snap_steps = (_steps_for(t1, DEFAULT_DT), _steps_for(t2, DEFAULT_DT))
    values = []
    for n in grid:
        runs = _phi_of_runs(
            phi, model, n, DEFAULT_DT, snap_steps, r,
            lambda rep: (stream(seed, "time-reg-init", n, rep),
                         stream(seed, "time-reg-noise", n, rep)))
        acc = 0.0
        for v1, v2 in runs.tolist():
            acc += ((v2 - ref2) - (v1 - ref1)) ** 4
        values.append(acc / r)
    fit = loglog_slope(np.asarray(grid, dtype=float), np.asarray(values))
    return ProbeReport(grid, tuple(values), fit.slope, fit.r2)


def fourth_moment_bound_probe(phi: Functional, m0: object,
                              n_grid: Sequence[int], r: int, seed: int
                              ) -> ProbeReport:
    """N^2 E|Phi(m^N) - Phi(m0)|^4 across the grid (bounded when Phi is
    smooth with bounded derivatives); equals E|sqrt(N) delta|^4 directly."""
    from .clt_engine import run_clt_experiment

    grid = tuple(int(n) for n in n_grid)
    values = []
    for n in grid:
        sub_seed = int(stream(seed, "fourth-moment", n).integers(1 << 62))
        rep = run_clt_experiment(phi, m0, n, r, sub_seed)
        values.append(float(np.mean(rep.samples ** 4)))
    fit = loglog_slope(np.asarray(grid, dtype=float), np.asarray(values))
    return ProbeReport(grid, tuple(values), fit.slope, fit.r2)


@dataclass(frozen=True)
class DirectionTest:
    direction: tuple[float, ...]
    variance: float
    ks_stat: float
    pvalue: float
    skipped: bool


def cramer_wold_normality(f_samples: np.ndarray, sigma_theory: np.ndarray
                          ) -> list[DirectionTest]:
    """KS test of theta^T F^N against N(0, theta^T Sigma theta) per direction.

    Directions: the coordinate axes plus, for K > 1, the normalized all-ones
    direction.  Degenerate directions (zero theoretical variance) are skipped
    and flagged.
    """
    f = np.asarray(f_samples, dtype=float)
    sigma = np.asarray(sigma_theory, dtype=float)
    k = f.shape[1]
    directions = [tuple(np.eye(k)[i]) for i in range(k)]
    if k > 1:  # with one time the all-ones direction is the axis itself
        directions.append(tuple(np.full(k, 1.0 / np.sqrt(k))))
    out = []
    for theta in directions:
        th = np.asarray(theta, dtype=float)
        var = float(th @ sigma @ th)
        if var < 1e-12:
            out.append(DirectionTest(tuple(th), var, float("nan"),
                                     float("nan"), True))
            continue
        ks = ks_test_normal(f @ th, 0.0, var)
        out.append(DirectionTest(tuple(th), var, ks.statistic, ks.pvalue, False))
    return out
