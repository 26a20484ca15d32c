"""Functionals U on probability measures with exact derivative fields.

The AST nodes mirror the closed-form derivative rules for measure functionals:

* ``Linear``: U(mu) = int phi d(mu).
* ``SmoothOfLinear``: U(mu) = F(int G_1 dmu, ..., int G_q dmu) with user-supplied
  gradient / Hessian (optionally third-derivative) callbacks for F.
* ``UStatistic``: the with-replacement n-fold product integral of a symmetric
  kernel, with the alternating-difference derivative formula.
* ``Quantile``: the level-v generalized inverse of the CDF (d = 1).
* ``NestedIntegrand`` / ``ExternalIntegral``: integrands that themselves depend
  on the measure, with trusted derivative callbacks.

Derivative fields of order j are normalized to vanish whenever any spatial
argument is the origin; every closed form below builds that in as an exact
difference rather than a post-hoc subtraction.

``MomentForm`` is a flattened (F, grad F, stats G) view used by the Monte Carlo
engines for O(N) vectorized evaluation; every registry functional provides one
except the quantile, together with the exact spatial gradient of each of its
statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .laws import Law, MixtureLaw, SamplerSpec, as_law
from .measures import DiscreteMeasure, interpolate

DEFAULT_GATEAUX_EPS = 1e-3
# Total grid cells allowed when a node integrates over an n-fold product of a
# support; above this the node errors instead of silently subsampling.
GRID_CELL_CAP = 1 << 22
# Proxy resolution used when an n-fold grid integral meets a continuous law.
_GRID_PROXY_CELLS = 1 << 21


class FunctionalError(ValueError):
    """Unsupported functional operation (order, dimension, missing callback)."""


# ---------------------------------------------------------------------------
# argument plumbing


def _as_batch(y: object, dim: int) -> np.ndarray:
    """Normalize a spatial argument to a (K, dim) float array."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0:
        if dim != 1:
            raise FunctionalError(f"scalar point given to a dim={dim} field")
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        if dim == 1:
            return arr.reshape(-1, 1)
        if arr.shape[0] == dim:
            return arr.reshape(1, dim)
        raise FunctionalError(f"point of length {arr.shape[0]} given to a dim={dim} field")
    if arr.ndim == 2 and arr.shape[1] == dim:
        return arr
    raise FunctionalError(f"cannot interpret shape {arr.shape} as points of dim {dim}")


def _measure_dim(mu: object) -> int:
    return int(mu.dim)


def _support_measure(mu: object, cells: int) -> DiscreteMeasure:
    """A discrete stand-in for mu usable as an integration grid.

    Discrete measures are used exactly (error above the cell cap); continuous
    laws contribute their deterministic proxy cloud truncated to the cap;
    mixtures concatenate weighted component grids.
    """
    if isinstance(mu, DiscreteMeasure):
        if mu.natoms > cells:
            raise FunctionalError(
                f"support of {mu.natoms} atoms exceeds the grid cap {cells}")
        return mu
    if isinstance(mu, Law):
        if mu.is_discrete:
            return _support_measure(mu.spec.atoms, cells)
        return mu.proxy_measure(cells)
    if isinstance(mu, MixtureLaw):
        live = [(w, c) for w, c in mu.components if w > 0]
        share = max(cells // max(len(live), 1), 1)
        pts, wts = [], []
        for w, comp in live:
            sub = _support_measure(comp, share)
            pts.append(sub.points)
            wts.append(w * sub.weights)
        return DiscreteMeasure(np.concatenate(pts), np.concatenate(wts))
    raise FunctionalError(f"cannot build a support grid from {type(mu).__name__}")


def _grid_side(mu: object, n: int, cells: int = _GRID_PROXY_CELLS) -> DiscreteMeasure:
    """Support grid sized so the full n-fold product stays under the cell cap."""
    if n <= 0:
        raise FunctionalError("grid order must be positive")
    side = max(int(cells ** (1.0 / n)), 2)
    if isinstance(mu, DiscreteMeasure):
        if mu.natoms ** n > GRID_CELL_CAP:
            raise FunctionalError(
                f"{mu.natoms} atoms to the power {n} exceeds the grid cap")
        return mu
    return _support_measure(mu, side)


# ---------------------------------------------------------------------------
# derivative fields


@dataclass(frozen=True)
class DerivativeField:
    """Order-j linear functional derivative, normalized to vanish at the origin.

    ``values(mu, Y1, ..., Yj)`` is the vectorized form: each ``Yi`` is a
    (K, d) batch (rows are paired across arguments) and the result is (K,).
    Calling the field directly takes single d-vectors and returns a float.
    """

    order: int
    dim: int | None
    _values: Callable[..., np.ndarray]

    def values(self, mu: object, *ys: object) -> np.ndarray:
        if len(ys) != self.order:
            raise FunctionalError(
                f"order-{self.order} field called with {len(ys)} point arguments")
        d = self.dim if self.dim is not None else _measure_dim(mu)
        batches = [_as_batch(y, d) for y in ys]
        rows = {b.shape[0] for b in batches}
        if len(rows - {1}) > 1:
            raise FunctionalError("point batches must share their length")
        k = max(rows)
        batches = [np.broadcast_to(b, (k, d)) if b.shape[0] == 1 else b for b in batches]
        out = np.asarray(self._values(mu, *batches), dtype=float)
        return out.reshape(k)

    def __call__(self, mu: object, *ys: object) -> float:
        return float(self.values(mu, *ys)[0])


def _zero_field(order: int, dim: int | None) -> DerivativeField:
    def values(mu, *ys):
        return np.zeros(ys[0].shape[0])

    return DerivativeField(order, dim, values)


# ---------------------------------------------------------------------------
# flattened moment form


@dataclass(frozen=True)
class MomentForm:
    """U(mu) = value_fn(int stats d(mu)) with a vectorized gradient.

    ``stat_fn`` maps (K, d) points to (K, q) statistics; ``value_fn`` and
    ``grad_fn`` map (..., q) moment vectors to (...) and (..., q).
    ``stat_grad_fn``, when known, maps (K, d) points to the (K, q, d) spatial
    gradients of the statistics.  The Monte Carlo engines lean on this view
    for O(N) decompositions, and the mean-field adjoint on the gradients.
    """

    stat_dim: int
    stat_fn: Callable[[np.ndarray], np.ndarray]
    value_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    stat_grad_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def stats(self, points: np.ndarray) -> np.ndarray:
        out = np.asarray(self.stat_fn(points), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        return out

    def value(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(self.value_fn(np.asarray(v, dtype=float)), dtype=float)

    def grad(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad_fn(np.asarray(v, dtype=float)), dtype=float)

    def stat_grads(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.stat_grad_fn(points), dtype=float).reshape(
            points.shape[0], self.stat_dim, points.shape[1])


# ---------------------------------------------------------------------------
# AST nodes


class Functional:
    """Base node: a real-valued functional of a probability measure."""

    dim: int | None = None
    max_order: int = 2
    name: str = ""

    def __init__(self, dim: int | None = None, name: str = ""):
        self.dim = dim
        self.name = name

    def value(self, mu: object) -> float:
        raise NotImplementedError

    def derivative(self, order: int) -> DerivativeField:
        raise NotImplementedError

    def moment_form(self) -> MomentForm | None:
        return None

    def _check_order(self, order: int) -> None:
        if not 1 <= order <= self.max_order:
            raise FunctionalError(
                f"{type(self).__name__} supports derivative orders 1..{self.max_order},"
                f" got {order}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name or '...'})"


class Linear(Functional):
    """U(mu) = int phi d(mu) for a vectorized scalar phi on R^d; ``grad``
    optionally maps (K, d) points to the (K, d) gradient of phi."""

    def __init__(self, phi: Callable[[np.ndarray], np.ndarray], dim: int | None = None,
                 name: str = "", grad: Callable[[np.ndarray], np.ndarray] | None = None):
        self.phi = phi
        self.phi_grad = grad
        super().__init__(dim, name)

    def value(self, mu: object) -> float:
        return float(mu.expect(self.phi))

    def derivative(self, order: int) -> DerivativeField:
        self._check_order(order)
        if order >= 2:
            return _zero_field(order, self.dim)
        phi = self.phi

        def values(mu, y):
            zero = np.asarray(phi(np.zeros((1, y.shape[1]))), dtype=float).reshape(())
            return np.asarray(phi(y), dtype=float) - zero

        return DerivativeField(1, self.dim, values)

    def moment_form(self) -> MomentForm:
        return MomentForm(
            1, self.phi,
            lambda v: v[..., 0],
            lambda v: np.ones_like(v),
            self.phi_grad,
        )


class SmoothOfLinear(Functional):
    """U(mu) = F(int G_1 dmu, ..., int G_q dmu).

    ``stats`` is a list of q vectorized scalar functions; ``value/grad/hess``
    (and optionally ``third``) are callbacks on (..., q) arrays returning
    (...), (..., q), (..., q, q) and (..., q, q, q).  ``stat_grads``
    optionally lists the (K, d) spatial gradients of the q statistics.
    """

    def __init__(self, value: Callable, grad: Callable, hess: Callable,
                 stats: Sequence[Callable[[np.ndarray], np.ndarray]],
                 third: Callable | None = None, dim: int | None = None,
                 name: str = "",
                 stat_grads: Sequence[Callable[[np.ndarray], np.ndarray]] | None = None):
        self.f_value = value
        self.f_grad = grad
        self.f_hess = hess
        self.f_third = third
        self.stats = tuple(stats)
        self.stat_grads = None if stat_grads is None else tuple(stat_grads)
        super().__init__(dim, name)
        self.max_order = 3 if third is not None else 2

    @classmethod
    def scalar(cls, f: Callable, df: Callable, d2f: Callable,
               stat: Callable[[np.ndarray], np.ndarray],
               d3f: Callable | None = None,
               stat_grad: Callable[[np.ndarray], np.ndarray] | None = None,
               **kwargs) -> "SmoothOfLinear":
        """q = 1 convenience: elementwise callbacks f, df, d2f on scalars."""
        value = lambda v: np.asarray(f(v[..., 0]), dtype=float)
        grad = lambda v: np.asarray(df(v[..., 0]), dtype=float)[..., None]
        hess = lambda v: np.asarray(d2f(v[..., 0]), dtype=float)[..., None, None]
        third = None
        if d3f is not None:
            third = lambda v: np.asarray(d3f(v[..., 0]), dtype=float)[..., None, None, None]
        stat_grads = None if stat_grad is None else [stat_grad]
        return cls(value, grad, hess, [stat], third=third, stat_grads=stat_grads,
                   **kwargs)

    def _stat_matrix(self, points: np.ndarray) -> np.ndarray:
        return np.stack(
            [np.asarray(g(points), dtype=float) for g in self.stats], axis=-1)

    def _moments(self, mu: object) -> np.ndarray:
        return np.asarray([mu.expect(g) for g in self.stats], dtype=float)

    def value(self, mu: object) -> float:
        return float(np.asarray(self.f_value(self._moments(mu)), dtype=float))

    def derivative(self, order: int) -> DerivativeField:
        self._check_order(order)
        tensor_fn = (self.f_grad, self.f_hess, self.f_third)[order - 1]

        def values(mu, *ys):
            v = self._moments(mu)
            tensor = np.asarray(tensor_fn(v), dtype=float)  # (q,)*order
            zero = self._stat_matrix(np.zeros((1, ys[0].shape[1])))[0]
            out = np.broadcast_to(tensor, (ys[0].shape[0],) + tensor.shape)
            for y in ys:
                centered = self._stat_matrix(y) - zero  # (K, q)
                # peel one q-axis off the (symmetric) tensor per argument
                out = np.einsum("kq,kq...->k...", centered, out)
            return out

        return DerivativeField(order, self.dim, values)

    def moment_form(self) -> MomentForm:
        stat_grad = None
        if self.stat_grads is not None:
            stat_grad = lambda p: np.stack(
                [np.asarray(g(p), dtype=float) for g in self.stat_grads], axis=-2)
        return MomentForm(
            len(self.stats), self._stat_matrix,
            lambda v: self.f_value(v),
            lambda v: self.f_grad(v),
            stat_grad,
        )


def _symmetry_spot_check(phi: Callable, n: int, dim: int) -> None:
    from .rng import stream

    rng = stream(4242, "ustat-symmetry", n, dim)
    pts = [rng.normal(size=(3, dim)) for _ in range(n)]
    base = np.asarray(phi(*pts), dtype=float)
    for _ in range(3):
        perm = rng.permutation(n)
        swapped = np.asarray(phi(*[pts[i] for i in perm]), dtype=float)
        if not np.allclose(base, swapped, rtol=1e-10, atol=1e-12):
            raise FunctionalError("UStatistic kernel is not permutation symmetric")


class UStatistic(Functional):
    """U(mu) = int ... int phi(x_1, ..., x_n) mu(dx_1) ... mu(dx_n).

    ``phi`` must broadcast over (..., d) point batches and be symmetric in its
    arguments (spot-checked at construction).  ``product_kernel`` g declares
    phi = prod_i g(x_i), unlocking closed-form O(K) derivative evaluation and
    factored values; the generic route integrates over full support grids.
    ``kernel_grad`` optionally maps (K, d) points to the (K, d) gradient of g.
    """

    def __init__(self, phi: Callable, n: int,
                 product_kernel: Callable[[np.ndarray], np.ndarray] | None = None,
                 dim: int | None = None, name: str = "",
                 kernel_grad: Callable[[np.ndarray], np.ndarray] | None = None):
        if n < 1:
            raise FunctionalError("UStatistic order n must be >= 1")
        self.phi = phi
        self.n = int(n)
        self.product_kernel = product_kernel
        self.kernel_grad = kernel_grad
        super().__init__(dim, name)
        self.max_order = self.n
        if n > 1:
            _symmetry_spot_check(phi, self.n, dim if dim is not None else 1)

    def value(self, mu: object) -> float:
        if self.product_kernel is not None:
            return float(mu.expect(self.product_kernel)) ** self.n
        grid = _grid_side(mu, self.n)
        pts, w = grid.points, grid.weights
        m, d = pts.shape
        views = []
        for i in range(self.n):
            shape = [1] * self.n + [d]
            shape[i] = m
            views.append(pts.reshape(shape) if self.n > 1 else pts)
        vals = np.asarray(self.phi(*views), dtype=float)
        for _ in range(self.n):
            vals = np.tensordot(vals, w, axes=([-1], [0]))
        return float(vals)

    def derivative(self, order: int) -> DerivativeField:
        if order > self.n:
            return _zero_field(order, self.dim)
        self._check_order(order)
        coeff = math.perm(self.n, order)
        j, n = order, self.n

        if self.product_kernel is not None:
            g = self.product_kernel

            def values(mu, *ys):
                mean_g = float(mu.expect(g))
                g0 = np.asarray(g(np.zeros((1, ys[0].shape[1]))), dtype=float).reshape(())
                out = np.full(ys[0].shape[0], coeff * mean_g ** (n - j))
                for y in ys:
                    out = out * (np.asarray(g(y), dtype=float) - g0)
                return out

            return DerivativeField(order, self.dim, values)

        phi = self.phi

        def values(mu, *ys):
            k, d = ys[0].shape
            rem = n - j
            if rem > 0:
                grid = _grid_side(mu, rem)
                pts, w = grid.points, grid.weights
                m = pts.shape[0]
                if k * m ** rem > GRID_CELL_CAP:
                    raise FunctionalError("derivative grid exceeds the cell cap")
            else:
                pts, w, m = None, None, 1
            zeros = np.zeros((k, d))
            x_views = []
            for t in range(rem):
                shape = [1] * (1 + rem) + [d]
                shape[1 + t] = m
                x_views.append(pts.reshape(shape))
            total = np.zeros(k)
            y_shape = [k] + [1] * rem + [d]
            for mask in range(1 << j):
                bits = bin(mask).count("1")
                sign = (-1.0) ** (j - bits)
                args = [
                    (ys[i] if (mask >> i) & 1 else zeros).reshape(y_shape)
                    for i in range(j)
                ]
                vals = np.asarray(phi(*(args + x_views)), dtype=float)
                vals = np.broadcast_to(vals, [k] + [m] * rem)
                for _ in range(rem):
                    vals = np.tensordot(vals, w, axes=([-1], [0]))
                total += sign * vals
            return coeff * total

        return DerivativeField(order, self.dim, values)

    def moment_form(self) -> MomentForm | None:
        if self.product_kernel is None:
            return None
        n = self.n
        return MomentForm(
            1, self.product_kernel,
            lambda v: v[..., 0] ** n,
            lambda v: n * v ** (n - 1),
            self.kernel_grad,
        )


class Quantile(Functional):
    """U(mu) = inf{x : mu((-inf, x]) >= v}, the level-v quantile (d = 1)."""

    max_order = 1

    def __init__(self, v: float, name: str = ""):
        if not 0.0 < v < 1.0:
            raise FunctionalError("quantile level must lie in (0, 1)")
        super().__init__(1, name or f"quantile:{v:g}")
        self.v = float(v)

    def value(self, mu: object) -> float:
        if _measure_dim(mu) != 1:
            raise FunctionalError("quantile functional requires dim=1 measures")
        return float(mu.quantile(self.v))

    def derivative(self, order: int) -> DerivativeField:
        self._check_order(order)
        v = self.v

        def values(mu, y):
            q = float(mu.quantile(v))
            pdf = getattr(mu, "pdf", None)
            if pdf is None:
                raise FunctionalError(
                    "quantile derivative requires a base measure with a density callback")
            p0 = float(pdf(q))
            if not p0 > 0:
                raise FunctionalError(f"density vanishes at the quantile ({p0!r})")
            yy = y[:, 0]
            return -((yy <= q).astype(float) - float(0.0 <= q)) / p0

        return DerivativeField(1, 1, values)


def _double_difference(fn: Callable[[np.ndarray, np.ndarray], float],
                       y: np.ndarray, z: np.ndarray, zero: np.ndarray) -> float:
    """fn(y, z) - fn(0, z) - fn(y, 0) + fn(0, 0): exact two-argument centering."""
    return fn(y, z) - fn(zero, z) - fn(y, zero) + fn(zero, zero)


class NestedIntegrand(Functional):
    """U(mu) = int ... int phi(x_1, ..., x_n, mu) mu(dx_1) ... mu(dx_n).

    ``phi(xs, mu)`` takes a tuple of n points (symmetric in them) plus the
    measure; ``phi_lfd(xs, mu, y)`` is its trusted measure derivative and
    ``phi_lfd2(xs, mu, y, z)`` the optional second one.  Scalar callbacks,
    integrated over support grids; meant for probes, not hot loops.
    """

    def __init__(self, phi: Callable, n: int, phi_lfd: Callable,
                 phi_lfd2: Callable | None = None, dim: int | None = None,
                 name: str = ""):
        self.phi = phi
        self.n = int(n)
        self.phi_lfd = phi_lfd
        self.phi_lfd2 = phi_lfd2
        super().__init__(dim, name)
        self.max_order = 2 if phi_lfd2 is not None else 1

    # scalar python loops: keep continuous-law proxies at a few thousand cells
    _SCALAR_CELLS = 4096

    def _grid_tuples(self, mu: object, order: int):
        if order <= 0:
            yield (), 1.0
            return
        grid = _grid_side(mu, order, cells=self._SCALAR_CELLS)
        pts, w = grid.points, grid.weights
        idx = np.indices([pts.shape[0]] * order).reshape(order, -1).T
        for row in idx:
            yield tuple(pts[i] for i in row), float(np.prod(w[row]))

    def value(self, mu: object) -> float:
        total = 0.0
        for xs, w in self._grid_tuples(mu, self.n):
            total += w * float(self.phi(xs, mu))
        return total

    def derivative(self, order: int) -> DerivativeField:
        self._check_order(order)
        n, phi, phi_lfd, phi_lfd2 = self.n, self.phi, self.phi_lfd, self.phi_lfd2

        def first(mu, y):
            zero = np.zeros_like(y)
            spatial = 0.0
            for xs, w in self._grid_tuples(mu, n - 1):
                spatial += w * (phi((y,) + xs, mu) - phi((zero,) + xs, mu))
            measure = 0.0
            for xs, w in self._grid_tuples(mu, n):
                measure += w * (phi_lfd(xs, mu, y) - phi_lfd(xs, mu, zero))
            return n * spatial + measure

        if order == 1:
            def values(mu, y):
                return np.asarray([first(mu, row) for row in y])
            return DerivativeField(1, self.dim, values)

        def second(mu, y, z):
            zero = np.zeros_like(y)
            out = 0.0
            if n >= 2:
                for xs, w in self._grid_tuples(mu, n - 2):
                    out += n * (n - 1) * w * _double_difference(
                        lambda a, b: phi((a, b) + xs, mu), y, z, zero)
            for xs, w in self._grid_tuples(mu, n - 1):
                out += n * w * _double_difference(
                    lambda a, b: phi_lfd((a,) + xs, mu, b), y, z, zero)
                out += n * w * _double_difference(
                    lambda a, b: phi_lfd((b,) + xs, mu, a), y, z, zero)
            for xs, w in self._grid_tuples(mu, n):
                out += w * _double_difference(
                    lambda a, b: phi_lfd2(xs, mu, a, b), y, z, zero)
            return out

        def values2(mu, y, z):
            return np.asarray([second(mu, ry, rz) for ry, rz in zip(y, z)])

        return DerivativeField(2, self.dim, values2)


class ExternalIntegral(Functional):
    """U(mu) = int phi(x, mu) lam(dx) for a fixed reference measure lam."""

    def __init__(self, phi: Callable, lam: DiscreteMeasure, phi_lfd: Callable,
                 phi_lfd2: Callable | None = None, dim: int | None = None,
                 name: str = ""):
        self.phi = phi
        self.lam = lam
        self.phi_lfd = phi_lfd
        self.phi_lfd2 = phi_lfd2
        super().__init__(dim, name)
        self.max_order = 2 if phi_lfd2 is not None else 1

    def value(self, mu: object) -> float:
        return float(sum(
            w * float(self.phi(x, mu))
            for x, w in zip(self.lam.points, self.lam.weights)))

    def derivative(self, order: int) -> DerivativeField:
        self._check_order(order)
        lam, phi_lfd, phi_lfd2 = self.lam, self.phi_lfd, self.phi_lfd2

        if order == 1:
            def values(mu, y):
                zero = np.zeros(y.shape[1])
                out = np.zeros(y.shape[0])
                for x, w in zip(lam.points, lam.weights):
                    out += w * np.asarray(
                        [phi_lfd(x, mu, row) - phi_lfd(x, mu, zero) for row in y])
                return out
            return DerivativeField(1, self.dim, values)

        def values2(mu, y, z):
            zero = np.zeros(y.shape[1])
            out = np.zeros(y.shape[0])
            for x, w in zip(lam.points, lam.weights):
                out += w * np.asarray([
                    _double_difference(lambda a, b: phi_lfd2(x, mu, a, b), ry, rz, zero)
                    for ry, rz in zip(y, z)])
            return out

        return DerivativeField(2, self.dim, values2)


# ---------------------------------------------------------------------------
# module-level operations


def evaluate(u: Functional, mu: object) -> float:
    """Exact evaluation of U at a measure-like argument."""
    mu = as_law(mu)
    if u.dim is not None and _measure_dim(mu) != u.dim:
        raise FunctionalError(
            f"dimension mismatch: functional expects d={u.dim}, measure has d={mu.dim}")
    return u.value(mu)


def lfd(u: Functional, order: int = 1) -> DerivativeField:
    """Symbolic linear functional derivative of the requested order."""
    return u.derivative(order)


def mix(mu: object, nu: object, s: float) -> object:
    """The measure (1 - s) mu + s nu, discrete when both arguments are."""
    if isinstance(mu, DiscreteMeasure) and isinstance(nu, DiscreteMeasure):
        return interpolate(mu, nu, s)
    comps: list[tuple[float, object]] = []
    for w, c in ((1.0 - s, mu), (s, nu)):
        if isinstance(c, MixtureLaw):
            comps.extend((w * wc, cc) for wc, cc in c.components)
        elif isinstance(c, SamplerSpec):
            comps.append((w, as_law(c)))
        else:
            comps.append((w, c))
    return MixtureLaw(comps)


def derivative_pairing(field: DerivativeField, mu: object, nu: object,
                       at: object | None = None) -> float:
    """int field(at, y) d(nu - mu)(y); ``at`` defaults to mu."""
    base = mu if at is None else at
    fn = lambda pts: field.values(base, pts)
    return float(nu.expect(fn) - mu.expect(fn))


def gateaux_numeric(u: Functional, mu: object, nu: object,
                    eps: float = DEFAULT_GATEAUX_EPS, richardson: int = 0) -> float:
    """One-sided slope (U(mu + eps (nu - mu)) - U(mu)) / eps.

    ``richardson`` = 1 eliminates the O(eps) term with the eps/2 slope;
    ``richardson`` = 2 also removes O(eps^2) using eps/4.
    """
    if not 0.0 < eps <= 1.0:
        raise FunctionalError("eps must lie in (0, 1]")
    base = evaluate(u, mu)

    def slope(e: float) -> float:
        return (evaluate(u, mix(mu, nu, e)) - base) / e

    if richardson == 0:
        return slope(eps)
    if richardson == 1:
        return 2.0 * slope(eps / 2) - slope(eps)
    if richardson == 2:
        return (8.0 * slope(eps / 4) - 6.0 * slope(eps / 2) + slope(eps)) / 3.0
    raise FunctionalError("richardson level must be 0, 1 or 2")


def gateaux_probe_eps(u: Functional, mu: object, nu: object, eps: float) -> float:
    """``eps`` capped so that ``gateaux_numeric``'s slopes stay inside the
    domain of u's derivative formula.

    Only the quantile has such a limit.  Mixing in s nu moves the level-v
    quantile q of a law with a density by at most s max(v, 1 - v) / pdf(q)
    to first order; once it reaches an atom of a discrete nu the slope jumps.
    So eps is capped at half the mass that would carry q to nu's nearest
    atom.  Every other functional, or a nu without atoms, keeps eps.
    """
    pdf = getattr(mu, "pdf", None)
    if not isinstance(u, Quantile) or not isinstance(nu, DiscreteMeasure) or pdf is None:
        return eps
    q = float(mu.quantile(u.v))
    dist = float(np.min(np.abs(nu.points[:, 0] - q)))
    return min(eps, dist * float(pdf(q)) / (2.0 * max(u.v, 1.0 - u.v)))


def finite_difference_identity_check(u: Functional, m: object, m2: object,
                                     quad_points: int = 8) -> float:
    """|U(m2) - U(m) - int_0^1 int dU/dm((1-s)m + s m2, y) (m2 - m)(dy) ds|.

    The s-integral uses Gauss-Legendre quadrature mapped to (0, 1), exact for
    integrands polynomial in s of degree <= 2 * quad_points - 1.
    """
    field = u.derivative(1)
    nodes, weights = np.polynomial.legendre.leggauss(int(quad_points))
    inner = 0.0
    for x, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        m_s = mix(m, m2, float(x))
        inner += w * derivative_pairing(field, m, m2, at=m_s)
    return abs(evaluate(u, m2) - evaluate(u, m) - inner)


def growth_class_check(u: Functional, j: int, k: float, ell: float,
                       probe_measures: Sequence[object],
                       probe_points: Sequence[object]) -> float:
    """Empirical sup of |d^i U| / (1 + sum |x_p|^k + moment(mu, ell)^(k/ell)).

    A finite value over rich probes is evidence of membership in the growth
    class with those exponents, never a proof.
    """
    points = [np.atleast_1d(np.asarray(p, dtype=float)) for p in probe_points]
    if not points:
        raise FunctionalError("need at least one probe point")
    sup = 0.0
    for order in range(1, j + 1):
        if order > u.max_order:
            break
        field = u.derivative(order)
        for mu in probe_measures:
            mterm = mu.moment(ell) ** (k / ell) if ell > 0 and k > 0 else 1.0
            for t in range(len(points)):
                tup = [points[(t + s) % len(points)] for s in range(order)]
                num = abs(field(mu, *tup))
                den = 1.0 + sum(np.linalg.norm(p) ** k for p in tup) + mterm
                sup = max(sup, num / den)
    return sup


# ---------------------------------------------------------------------------
# registry


def _first_coord(p: np.ndarray) -> np.ndarray:
    return p[..., 0]


def _first_coord_grad(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    out[..., 0] = 1.0
    return out


def _sq_norm(p: np.ndarray) -> np.ndarray:
    return np.sum(p * p, axis=-1)


def _sq_norm_grad(p: np.ndarray) -> np.ndarray:
    return 2.0 * p


def _sin_first(p: np.ndarray) -> np.ndarray:
    return np.sin(p[..., 0])


def _sin_first_grad(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    out[..., 0] = np.cos(p[..., 0])
    return out


def _make_linear_mean() -> Functional:
    return Linear(_first_coord, dim=1, name="linear-mean", grad=_first_coord_grad)


def _make_linear_square() -> Functional:
    return Linear(_sq_norm, dim=1, name="linear-square", grad=_sq_norm_grad)


def _make_mean_square() -> Functional:
    return SmoothOfLinear.scalar(
        f=lambda t: t ** 2,
        df=lambda t: 2.0 * t,
        d2f=lambda t: 2.0 * np.ones_like(t),
        d3f=lambda t: np.zeros_like(t),
        stat=_first_coord, stat_grad=_first_coord_grad,
        dim=1, name="mean-square",
    )


def _make_cube_of_second_moment() -> Functional:
    return SmoothOfLinear.scalar(
        f=lambda t: t ** 3,
        df=lambda t: 3.0 * t ** 2,
        d2f=lambda t: 6.0 * t,
        d3f=lambda t: 6.0 * np.ones_like(t),
        stat=_sq_norm, stat_grad=_sq_norm_grad,
        dim=1, name="cube-of-second-moment",
    )


def _make_sin_five_halves() -> Functional:
    return SmoothOfLinear.scalar(
        f=lambda t: np.abs(t) ** 2.5,
        df=lambda t: 2.5 * np.sign(t) * np.abs(t) ** 1.5,
        d2f=lambda t: 3.75 * np.abs(t) ** 0.5,
        stat=_sin_first, stat_grad=_sin_first_grad,
        dim=1, name="sin-five-halves",
    )


def _product_phi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[..., 0] * y[..., 0]


def _make_ustat_product() -> Functional:
    return UStatistic(
        _product_phi, 2, product_kernel=_first_coord,
        dim=1, name="ustat-product", kernel_grad=_first_coord_grad,
    )


_REGISTRY: dict[str, Callable[[], Functional]] = {
    "linear-mean": _make_linear_mean,
    "linear-square": _make_linear_square,
    "mean-square": _make_mean_square,
    "cube-of-second-moment": _make_cube_of_second_moment,
    "sin-five-halves": _make_sin_five_halves,
    "ustat-product": _make_ustat_product,
}

_ALIASES = {"mean-squared": "mean-square"}


def registry_names(include_template: bool = True) -> list[str]:
    names = sorted(_REGISTRY)
    if include_template:
        names.append("quantile:<v>")
    return names


def make_functional(name: str) -> Functional:
    """Named built-in functional; `quantile:<v>` parses the level."""
    key = _ALIASES.get(name.strip(), name.strip())
    if key.startswith("quantile:"):
        try:
            level = float(key.split(":", 1)[1])
        except ValueError:
            raise FunctionalError(f"bad quantile level in {name!r}")
        return Quantile(level)
    factory = _REGISTRY.get(key)
    if factory is None:
        raise FunctionalError(
            f"unknown functional {name!r}; known: {', '.join(registry_names())}")
    return factory()
