"""Weighted discrete probability measures and transport-style distances.

Conventions used throughout the package:

* points are stored as an (n, dim) float array; d = 1 inputs may be given
  as flat arrays and are reshaped,
* scalar test functions are vectorized: they take an (n, dim) array and
  return an (n,) array,
* atoms are merged only under exact coordinate equality (no snapping).

Distances between measures with supports ``mu`` and ``nu``:

* ``wasserstein(ell)``: order-ell transport distance.  The reported value
  is ``cost ** (1 / max(ell, 1))`` where cost is the optimal expected
  ``|x - y| ** ell``; for ell < 1 the cost itself is the metric.
* ``total_variation()``: half the mass of ``|mu - nu|``.
* ``bounded_wasserstein()``: optimal expected ``min(|x - y|, 1)``.
* ``weighted_tv(ell)``: ``integral (1 + |y|**ell) d|mu - nu|``.

One-dimensional transport with ell >= 1 uses the quantile coupling; every
other transport case is solved as an explicit linear program on supports
capped at ``support_cap`` atoms per side.  ``distances`` takes many pairs at
once and stacks their LPs into block-diagonal problems of up to
``_LP_BATCH`` blocks, so a metric suite pays the solver's per-call overhead
a few times rather than once per pair.  ``scipy.optimize`` is imported on
the first LP, not with the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

WEIGHT_SUM_TOL = 1e-12
WEIGHT_PRUNE_TOL = 1e-15
DEFAULT_SUPPORT_CAP = 512
# transport problems per stacked LP; one unchunked LP of a whole metric
# suite raised peak memory by about 11 MB
_LP_BATCH = 100

# HiGHS rejects tolerances below 1e-10 with an "Invalid option value" warning
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class MeasureError(ValueError):
    """Invalid measure data or an unsupported distance request."""


def _as_points(points: object, dim: int | None = None) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dim in (None, 1) else pts.reshape(1, -1)
    elif pts.ndim != 2:
        raise MeasureError(f"points must be (n, dim), got shape {pts.shape}")
    if dim is not None and pts.shape[1] != dim:
        raise MeasureError(f"expected dim={dim}, got {pts.shape[1]}")
    return pts


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure sum_i w_i delta_{x_i}."""

    points: np.ndarray
    weights: np.ndarray

    def __init__(self, points: object, weights: object | None = None):
        pts = _as_points(points)
        if pts.shape[0] == 0:
            raise MeasureError("a measure needs at least one atom")
        if weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(weights, dtype=float).reshape(-1)
        if pts.shape[0] != w.shape[0]:
            raise MeasureError("points and weights length mismatch")
        if not np.all(np.isfinite(pts)):
            raise MeasureError("non-finite atom coordinates")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise MeasureError("weights must be finite and nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise MeasureError(f"weights sum to {total!r}, not 1")
        w = w / total
        keep = w >= WEIGHT_PRUNE_TOL
        if not np.any(keep):
            raise MeasureError("all weights below prune tolerance")
        if not np.all(keep):
            pts, w = pts[keep], w[keep]
            w = w / w.sum()
        pts = pts.copy()
        w = w.copy()
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def natoms(self) -> int:
        return self.points.shape[0]

    def expect(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """integral fn d(mu) for a vectorized scalar function fn."""
        vals = np.asarray(fn(self.points), dtype=float).reshape(-1)
        if vals.shape[0] != self.natoms:
            raise MeasureError("integrand returned wrong length")
        return float(self.weights @ vals)

    def moment(self, ell: float) -> float:
        """integral |x|**ell d(mu), Euclidean norm, ell >= 0."""
        if ell < 0:
            raise MeasureError("moment order must be nonnegative")
        if ell == 0:
            return 1.0
        norms = np.linalg.norm(self.points, axis=1)
        return float(self.weights @ norms**ell)

    def mean(self) -> np.ndarray:
        return np.asarray(self.weights @ self.points, dtype=float)

    # -- one-dimensional distribution functions --------------------------

    def _sorted_1d(self) -> tuple[np.ndarray, np.ndarray]:
        if self.dim != 1:
            raise MeasureError("cdf/quantile require dim=1")
        order = np.argsort(self.points[:, 0], kind="stable")
        return self.points[order, 0], self.weights[order]

    def cdf(self, x: object) -> np.ndarray | float:
        xs, ws = self._sorted_1d()
        cum = np.cumsum(ws)
        x_arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(xs, x_arr, side="right")
        out = np.where(idx > 0, cum[np.minimum(idx, len(cum)) - 1], 0.0)
        out = np.where(idx == 0, 0.0, out)
        return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out

    def quantile(self, v: float) -> float:
        """Left-continuous generalized inverse: inf{x : F(x) >= v}."""
        if not 0.0 < v <= 1.0:
            raise MeasureError("quantile level must be in (0, 1]")
        xs, ws = self._sorted_1d()
        cum = np.cumsum(ws)
        idx = int(np.searchsorted(cum, v, side="left"))
        return float(xs[min(idx, len(xs) - 1)])

    # -- canonical form ---------------------------------------------------

    def merged(self) -> "DiscreteMeasure":
        """Atoms merged under exact coordinate equality, sorted lexicographically."""
        return DiscreteMeasure(*_merge_atoms(self.points, self.weights))

    def same_as(self, other: "DiscreteMeasure", tol: float = 0.0) -> bool:
        a, b = self.merged(), other.merged()
        if a.natoms != b.natoms or a.dim != b.dim:
            return False
        return bool(
            np.array_equal(a.points, b.points)
            and np.all(np.abs(a.weights - b.weights) <= tol + 1e-15)
        )

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"dim={self.dim} atoms={self.natoms}"]
        for w, row in zip(self.weights, self.points):
            coords = " ".join(format(c, ".17g") for c in row)
            lines.append(f"{format(w, '.17g')} {coords}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "DiscreteMeasure":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise MeasureError("empty measure text")
        header = lines[0].split()
        try:
            fields = dict(part.split("=") for part in header)
            dim, natoms = int(fields["dim"]), int(fields["atoms"])
        except (ValueError, KeyError) as exc:
            raise MeasureError(f"bad measure header {lines[0]!r}") from exc
        if len(lines) - 1 != natoms:
            raise MeasureError(f"expected {natoms} atom lines, got {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            vals = [float(tok) for tok in ln.split()]
            if len(vals) != dim + 1:
                raise MeasureError(f"atom line {ln!r} needs 1 weight + {dim} coords")
            rows.append(vals)
        arr = np.asarray(rows, dtype=float)
        return DiscreteMeasure(arr[:, 1:], arr[:, 0])


def _merge_atoms(pts: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographically sorted distinct points with their summed weights."""
    order = np.lexsort(pts.T[::-1])
    pts, w = pts[order], w[order]
    new_group = np.ones(len(pts), dtype=bool)
    new_group[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    group_ids = np.cumsum(new_group) - 1
    gpts = pts[new_group]
    gw = np.zeros(len(gpts))
    np.add.at(gw, group_ids, w)
    return gpts, gw


def interpolate(mu: DiscreteMeasure, nu: DiscreteMeasure, s: float) -> DiscreteMeasure:
    """Mixture (1 - s) mu + s nu, atoms merged under exact equality."""
    if mu.dim != nu.dim:
        raise MeasureError("dimension mismatch")
    if not 0.0 <= s <= 1.0:
        raise MeasureError("mixture parameter must lie in [0, 1]")
    if s == 0.0:
        return mu
    if s == 1.0:
        return nu
    pts = np.vstack([mu.points, nu.points])
    w = np.concatenate([(1.0 - s) * mu.weights, s * nu.weights])
    return DiscreteMeasure(pts, w).merged()


# -- metric kinds ---------------------------------------------------------


@dataclass(frozen=True)
class MetricKind:
    """Which distance between measures to compute."""

    tag: str
    ell: float | None = None

    @staticmethod
    def wasserstein(ell: float) -> "MetricKind":
        if not ell > 0:
            raise MeasureError("wasserstein order must be positive")
        return MetricKind("wasserstein", float(ell))

    @staticmethod
    def total_variation() -> "MetricKind":
        return MetricKind("total_variation")

    @staticmethod
    def bounded_wasserstein() -> "MetricKind":
        return MetricKind("bounded_wasserstein")

    @staticmethod
    def weighted_tv(ell: float) -> "MetricKind":
        if ell < 0:
            raise MeasureError("weighted TV order must be nonnegative")
        return MetricKind("weighted_tv", float(ell))


def _signed_atom_difference(
    mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[np.ndarray, np.ndarray]:
    """Union support and net weights of mu - nu (exact-equality merging)."""
    a, b = mu.merged(), nu.merged()
    return _merge_atoms(np.vstack([a.points, b.points]),
                        np.concatenate([a.weights, -b.weights]))


def _pairwise_abs_diff(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    return np.linalg.norm(diff, axis=2)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: the module
    costs about 0.2 s of import time and only the transport LPs need it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


TransportProblem = tuple[np.ndarray, np.ndarray, np.ndarray]


def _lp_transport_costs(problems: Sequence[TransportProblem]) -> list[float]:
    """Exact optimal cost of each (cost, w_mu, w_nu) transport problem.

    Up to ``_LP_BATCH`` problems are solved as one block-diagonal LP; block
    k's value is c_k @ x_k, since the blocks share no variable or row.
    """
    return [cost for start in range(0, len(problems), _LP_BATCH)
            for cost in _solve_block_lp(problems[start:start + _LP_BATCH])]


def _solve_block_lp(problems: Sequence[TransportProblem]) -> list[float]:
    from scipy.sparse import coo_matrix

    rows, cols, b_eq, spans = [], [], [], []
    n_rows = n_vars = 0
    for cost, w_mu, w_nu in problems:
        n, m = cost.shape
        i, j = np.divmod(np.arange(n * m), m)
        var = n_vars + np.arange(n * m)
        # row sums, then column sums; one marginal constraint is redundant
        # and dropping it (the last column) keeps HiGHS happy
        col = j < m - 1
        rows += [n_rows + i, n_rows + n + j[col]]
        cols += [var, var[col]]
        b_eq += [w_mu, w_nu[:-1]]
        spans.append((n_vars, n_vars + n * m))
        n_rows += n + m - 1
        n_vars += n * m
    r, c = np.concatenate(rows), np.concatenate(cols)
    a_eq = coo_matrix((np.ones(len(r)), (r, c)), shape=(n_rows, n_vars))
    c_all = np.concatenate([cost.ravel() for cost, _, _ in problems])
    res = linprog(c_all, A_eq=a_eq, b_eq=np.concatenate(b_eq),
                  bounds=(0, None), method="highs", options=_LP_OPTIONS)
    if not res.success:
        raise MeasureError(f"transport LP failed: {res.message}")
    return [float(c_all[lo:hi] @ res.x[lo:hi]) for lo, hi in spans]


def _quantile_coupling_cost(
    mu: DiscreteMeasure, nu: DiscreteMeasure, ell: float
) -> float:
    """Optimal expected |x-y|**ell in d=1 for convex cost (ell >= 1)."""
    a, b = mu.merged(), nu.merged()
    xs, ws = a._sorted_1d()
    ys, vs = b._sorted_1d()
    ca, cb = np.cumsum(ws), np.cumsum(vs)
    ca[-1] = cb[-1] = 1.0
    bounds = np.concatenate([[0.0], np.union1d(ca, cb)])
    widths = np.diff(bounds)
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    ia = np.searchsorted(ca, mids, side="left")
    ib = np.searchsorted(cb, mids, side="left")
    gaps = np.abs(xs[np.minimum(ia, len(xs) - 1)] - ys[np.minimum(ib, len(ys) - 1)])
    return float(widths @ gaps**ell)


def distance(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    kind: MetricKind,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> float:
    """Distance between two discrete measures under the requested metric."""
    return distances([(mu, nu, kind)], support_cap)[0]


def distances(
    items: Iterable[tuple[DiscreteMeasure, DiscreteMeasure, MetricKind]],
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> list[float]:
    """``distance`` of each (mu, nu, kind); every LP case goes into one
    batched ``_lp_transport_costs`` call."""
    out: list[float] = []
    problems: list[TransportProblem] = []
    lp_slots: list[tuple[int, float]] = []
    for mu, nu, kind in items:
        if mu.dim != nu.dim:
            raise MeasureError("dimension mismatch")
        if kind.tag == "total_variation":
            _, net = _signed_atom_difference(mu, nu)
            out.append(0.5 * float(np.abs(net).sum()))
        elif kind.tag == "weighted_tv":
            pts, net = _signed_atom_difference(mu, nu)
            norms = np.linalg.norm(pts, axis=1)
            weight = 1.0 + (norms**kind.ell if kind.ell > 0 else np.ones_like(norms))
            out.append(float(weight @ np.abs(net)))
        elif kind.tag == "wasserstein" and mu.dim == 1 and kind.ell >= 1.0:
            out.append(_quantile_coupling_cost(mu, nu, kind.ell) ** (1.0 / kind.ell))
        elif kind.tag in ("wasserstein", "bounded_wasserstein"):
            problem, power = _lp_problem(mu, nu, kind, support_cap)
            problems.append(problem)
            lp_slots.append((len(out), power))
            out.append(float("nan"))
        else:
            raise MeasureError(f"unknown metric kind {kind.tag!r}")
    for (slot, power), cost in zip(lp_slots, _lp_transport_costs(problems)):
        out[slot] = cost**power
    return out


def _lp_problem(mu: DiscreteMeasure, nu: DiscreteMeasure, kind: MetricKind,
                cap: int) -> tuple[TransportProblem, float]:
    """The transport LP of a wasserstein or bounded_wasserstein kind, and the
    power that turns its optimal cost into the distance."""
    _check_cap(mu, nu, cap)
    gaps = _pairwise_abs_diff(mu, nu)
    if kind.tag == "bounded_wasserstein":
        return (np.minimum(gaps, 1.0), mu.weights, nu.weights), 1.0
    return (gaps**kind.ell, mu.weights, nu.weights), 1.0 / max(kind.ell, 1.0)


def lp_wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, ell: float,
                   support_cap: int = DEFAULT_SUPPORT_CAP) -> float:
    """``wasserstein(ell)`` by the explicit LP in any dimension, one LP per
    call; in d = 1 with ell >= 1 it cross-checks the quantile coupling of
    ``distance``."""
    problem, power = _lp_problem(mu, nu, MetricKind.wasserstein(ell), support_cap)
    return _lp_transport_costs([problem])[0] ** power


def _check_cap(mu: DiscreteMeasure, nu: DiscreteMeasure, cap: int) -> None:
    if mu.natoms > cap or nu.natoms > cap:
        raise MeasureError(
            f"transport LP supports capped at {cap} atoms per side "
            f"(got {mu.natoms} and {nu.natoms}); raise support_cap explicitly"
        )


# -- validation suites ----------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    triples: int
    symmetry_failures: int
    identity_failures: int
    triangle_failures: int
    max_violation: float

    @property
    def ok(self) -> bool:
        return (
            self.symmetry_failures == 0
            and self.identity_failures == 0
            and self.triangle_failures == 0
        )


def _random_measure(
    rng: np.random.Generator, dim: int, max_atoms: int = 5
) -> DiscreteMeasure:
    n = int(rng.integers(1, max_atoms + 1))
    pts = rng.normal(size=(n, dim))
    w = rng.gamma(1.0, 1.0, size=n) + 1e-3
    return DiscreteMeasure(pts, w / w.sum())


def metric_axiom_suite(
    kind: MetricKind,
    rng: np.random.Generator,
    n_triples: int = 200,
    tol: float = 1e-10,
    dim: int = 1,
) -> AxiomReport:
    """Check symmetry, identity, and the triangle inequality on random triples.

    Every triple and permutation is drawn first; the 5 distances per triple
    are then computed in one ``distances`` call.
    """
    triples = []
    for _ in range(n_triples):
        m1 = _random_measure(rng, dim)
        m2 = _random_measure(rng, dim)
        m3 = _random_measure(rng, dim)
        # distance to an atom-shuffled copy of itself must vanish
        perm = rng.permutation(m1.natoms)
        triples.append((m1, m2, m3, DiscreteMeasure(m1.points[perm], m1.weights[perm])))
    dists = distances(
        item
        for m1, m2, m3, copy in triples
        for item in ((m1, m2, kind), (m2, m1, kind), (m1, copy, kind),
                     (m1, m3, kind), (m2, m3, kind)))
    sym = ident = tri = 0
    worst = 0.0
    for k, (m1, m2, _, _) in enumerate(triples):
        d12, d21, d_self, d13, d23 = dists[5 * k : 5 * k + 5]
        if abs(d12 - d21) > tol:
            sym += 1
        worst = max(worst, abs(d12 - d21))
        if d_self > tol:
            ident += 1
        worst = max(worst, d_self)
        if d12 <= tol and not m1.same_as(m2, tol=tol):
            ident += 1
        violation = d13 - (d12 + d23)
        if violation > tol:
            tri += 1
        worst = max(worst, violation)
    return AxiomReport(n_triples, sym, ident, tri, worst)


def weighted_variation_integral(
    mu: DiscreteMeasure, nu: DiscreteMeasure, ell: float
) -> float:
    """integral |y|**ell d|mu - nu|(y)."""
    pts, net = _signed_atom_difference(mu, nu)
    norms = np.linalg.norm(pts, axis=1)
    return float((norms**ell) @ np.abs(net))


def tv_wasserstein_inequality_check(
    pairs: Iterable[tuple[DiscreteMeasure, DiscreteMeasure, float]],
    tol: float = 1e-10,
) -> list[bool]:
    """For each (mu, nu, ell), check
    W_ell^(ell v 1) <= 2^((ell-1)+) * integral |y|^ell d|mu-nu| + tol.

    Proof sketch: couple the common mass mu ^ nu on the diagonal and the
    residuals (mu - nu)+ and (nu - mu)+ by an independent product; bounding
    |x - y|^ell by 2^((ell-1)+) (|x|^ell + |y|^ell) on the residual part
    gives exactly the right-hand side.  The bound is tight, e.g. for
    delta_{-1} against (delta_{-1} + delta_{1}) / 2 with ell = 1.
    The Wasserstein distances of all pairs come from one ``distances`` call.
    """
    pairs = list(pairs)
    if any(ell <= 0 for _, _, ell in pairs):
        raise MeasureError("inequality check requires ell > 0")
    w = distances((mu, nu, MetricKind.wasserstein(ell)) for mu, nu, ell in pairs)
    out = []
    for w_ell, (mu, nu, ell) in zip(w, pairs):
        lhs = w_ell ** max(ell, 1.0)
        rhs = 2.0 ** max(ell - 1.0, 0.0) * weighted_variation_integral(mu, nu, ell)
        out.append(lhs <= rhs + tol)
    return out
