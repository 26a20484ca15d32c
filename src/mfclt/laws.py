"""Base laws: declared samplers plus measure-like adapters.

A `SamplerSpec` describes where i.i.d. samples come from (normal, uniform,
a discrete measure, or a user callback).  A `Law` wraps a spec and exposes
the measure-like interface the functional calculus consumes:

* ``expect(fn)``: expectation of a vectorized scalar function.  For d = 1
  normal/uniform laws this is a deterministic stratified inverse-CDF
  quadrature on ``proxy_size`` midpoints.  Callback and d > 1 laws fall
  back to a frozen Monte Carlo proxy with a documented seed.  Proxy
  resolution is probed by size-doubling where it matters, in
  ``clt_engine._reference_value`` and ``clt_engine.asymptotic_variance``.
* ``cdf`` / ``pdf`` / ``quantile`` for d = 1 laws that have them.

`MixtureLaw` represents (1 - eps) * law + eps * discrete-part mixtures, so
finite-difference derivatives in the measure argument can be evaluated on
continuous base laws.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .measures import DiscreteMeasure, MeasureError, _as_points
from .rng import stream

DEFAULT_PROXY_SIZE = 1_000_000
_PROXY_FALLBACK_SEED = 9101  # frozen seed for Monte Carlo proxies of callback laws
_BISECT_TOL = 1e-12


class LawError(ValueError):
    """Unsupported law operation (missing density, bad parameters, ...)."""


@dataclass(frozen=True)
class SamplerSpec:
    """How to draw i.i.d. samples from the base law."""

    kind: str  # "normal" | "uniform" | "atoms" | "callback"
    dim: int = 1
    mean: float = 0.0
    sd: float = 1.0
    low: float = 0.0
    high: float = 1.0
    atoms: DiscreteMeasure | None = None
    sample_fn: Callable[[np.random.Generator, int], np.ndarray] | None = None
    cdf_fn: Callable[[np.ndarray], np.ndarray] | None = None
    pdf_fn: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""

    @staticmethod
    def normal(mean: float = 0.0, sd: float = 1.0, dim: int = 1) -> "SamplerSpec":
        if not (np.isfinite(mean) and np.isfinite(sd) and sd > 0):
            raise LawError("need a finite mean and a finite sd > 0")
        return SamplerSpec(
            "normal", dim=dim, mean=float(mean), sd=float(sd),
            label=f"normal:{mean},{sd}",
        )

    @staticmethod
    def uniform(low: float = 0.0, high: float = 1.0, dim: int = 1) -> "SamplerSpec":
        if not (np.isfinite(low) and np.isfinite(high) and high > low):
            raise LawError("need finite bounds with high > low")
        return SamplerSpec(
            "uniform", dim=dim, low=float(low), high=float(high),
            label=f"uniform:{low},{high}",
        )

    @staticmethod
    def discrete(measure: DiscreteMeasure) -> "SamplerSpec":
        return SamplerSpec(
            "atoms", dim=measure.dim, atoms=measure,
            label=f"atoms[{measure.natoms}]",
        )

    @staticmethod
    def callback(
        sample_fn: Callable[[np.random.Generator, int], np.ndarray],
        dim: int = 1,
        cdf_fn: Callable | None = None,
        pdf_fn: Callable | None = None,
        label: str = "callback",
    ) -> "SamplerSpec":
        return SamplerSpec(
            "callback", dim=dim, sample_fn=sample_fn, cdf_fn=cdf_fn,
            pdf_fn=pdf_fn, label=label,
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(n, dim) array of i.i.d. draws."""
        if self.kind == "normal":
            return self.mean + self.sd * rng.standard_normal((n, self.dim))
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size=(n, self.dim))
        if self.kind == "atoms":
            idx = rng.choice(self.atoms.natoms, size=n, p=self.atoms.weights)
            return self.atoms.points[idx]
        out = _as_points(self.sample_fn(rng, n), self.dim)
        if out.shape != (n, self.dim):
            raise LawError(f"callback returned shape {out.shape}, wanted {(n, self.dim)}")
        return out


class Law:
    """Measure-like view of a SamplerSpec (expectations, cdf/pdf/quantile)."""

    def __init__(self, spec: SamplerSpec, proxy_size: int = DEFAULT_PROXY_SIZE):
        self.spec = spec
        self.proxy_size = int(proxy_size)
        self._proxy_cache: dict[int, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def is_discrete(self) -> bool:
        return self.spec.kind == "atoms"

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.spec.sample(rng, n)

    # -- quadrature proxy --------------------------------------------------

    def _stratified_levels(self, size: int) -> np.ndarray:
        return (np.arange(size) + 0.5) / size

    def proxy_points(self, size: int | None = None) -> np.ndarray:
        """Deterministic proxy cloud (size, dim) standing in for the law.

        d = 1 normal/uniform laws use inverse-CDF midpoints (stratified,
        symmetric); everything else uses a frozen-seed Monte Carlo cloud.
        """
        size = self.proxy_size if size is None else int(size)
        cached = self._proxy_cache.get(size)
        if cached is not None:
            return cached
        if self.spec.kind == "atoms":
            raise LawError("discrete laws have exact atoms; no proxy needed")
        if self.spec.kind == "normal" and self.dim == 1:
            pts = (self.spec.mean + self.spec.sd * special.ndtri(
                self._stratified_levels(size)))[:, None]
        elif self.spec.kind == "uniform" and self.dim == 1:
            pts = (self.spec.low + (self.spec.high - self.spec.low)
                   * self._stratified_levels(size))[:, None]
        else:
            pts = self.spec.sample(stream(_PROXY_FALLBACK_SEED, "law-proxy",
                                          self.spec.label, size), size)
        pts.setflags(write=False)
        self._proxy_cache[size] = pts
        return pts

    def proxy_measure(self, size: int | None = None) -> DiscreteMeasure:
        if self.spec.kind == "atoms":
            return self.spec.atoms
        return DiscreteMeasure(self.proxy_points(size))

    def expect(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        if self.spec.kind == "atoms":
            return self.spec.atoms.expect(fn)
        pts = self.proxy_points()
        return float(np.mean(np.asarray(fn(pts), dtype=float)))

    def moment(self, ell: float) -> float:
        if ell == 0:
            return 1.0
        return self.expect(lambda p: np.linalg.norm(p, axis=1) ** ell)

    # -- one-dimensional distribution functions ----------------------------

    def cdf(self, x: object) -> np.ndarray | float:
        if self.dim != 1:
            raise LawError("cdf requires dim=1")
        arr = np.asarray(x, dtype=float)
        if self.spec.kind == "normal":
            z = (arr - self.spec.mean) / (self.spec.sd * np.sqrt(2.0))
            out = 0.5 * special.erfc(-z)
        elif self.spec.kind == "uniform":
            out = np.clip((arr - self.spec.low) / (self.spec.high - self.spec.low), 0.0, 1.0)
        elif self.spec.kind == "atoms":
            out = self.spec.atoms.cdf(arr)
        elif self.spec.cdf_fn is not None:
            out = np.asarray(self.spec.cdf_fn(arr), dtype=float)
        else:
            raise LawError("law has no cdf callback")
        out = np.asarray(out, dtype=float)
        return float(out) if out.ndim == 0 else out

    def pdf(self, x: object) -> np.ndarray | float:
        if self.dim != 1:
            raise LawError("pdf requires dim=1")
        arr = np.asarray(x, dtype=float)
        if self.spec.kind == "normal":
            out = np.exp(-0.5 * ((arr - self.spec.mean) / self.spec.sd) ** 2) / (
                self.spec.sd * np.sqrt(2.0 * np.pi))
        elif self.spec.kind == "uniform":
            inside = (arr >= self.spec.low) & (arr <= self.spec.high)
            out = np.where(inside, 1.0 / (self.spec.high - self.spec.low), 0.0)
        elif self.spec.pdf_fn is not None:
            out = np.asarray(self.spec.pdf_fn(arr), dtype=float)
        else:
            raise LawError("law has no density")
        out = np.asarray(out, dtype=float)
        return float(out) if out.ndim == 0 else out

    def quantile(self, v: float) -> float:
        """Left-continuous generalized inverse of the CDF, by bisection."""
        if self.dim != 1:
            raise LawError("quantile requires dim=1")
        if not 0.0 < v < 1.0:
            raise LawError("quantile level must be in (0, 1)")
        if self.spec.kind == "normal":
            return float(self.spec.mean + self.spec.sd * special.ndtri(v))
        if self.spec.kind == "uniform":
            return float(self.spec.low + (self.spec.high - self.spec.low) * v)
        if self.spec.kind == "atoms":
            return self.spec.atoms.quantile(v)
        return _bisect_quantile(self.cdf, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Law({self.spec.label})"


def _bisect_quantile(cdf: Callable[[float], float], v: float) -> float:
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if cdf(lo) < v:
            break
        lo *= 2.0
    for _ in range(200):
        if cdf(hi) >= v:
            break
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _BISECT_TOL * (1.0 + abs(mid)):
            break
        if cdf(mid) >= v:
            hi = mid
        else:
            lo = mid
    return float(hi)


class MixtureLaw:
    """Finite mixture of measure-like components (laws or discrete measures)."""

    def __init__(self, components: Sequence[tuple[float, object]]):
        if not components:
            raise LawError("mixture needs at least one component")
        weights = np.asarray([w for w, _ in components], dtype=float)
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise LawError("mixture weights must be nonnegative and sum to 1")
        dims = {c.dim for _, c in components}
        if len(dims) != 1:
            raise LawError("mixture components must share a dimension")
        self.components = [(float(w), c) for w, c in components]
        self.dim = dims.pop()

    def expect(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(sum(w * c.expect(fn) for w, c in self.components if w > 0))

    def moment(self, ell: float) -> float:
        if ell == 0:
            return 1.0
        return self.expect(lambda p: np.linalg.norm(p, axis=1) ** ell)

    def cdf(self, x: object) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr, dtype=float)
        for w, c in self.components:
            if w > 0:
                out = out + w * np.asarray(c.cdf(arr), dtype=float)
        return float(out) if out.ndim == 0 else out

    def quantile(self, v: float) -> float:
        if not 0.0 < v < 1.0:
            raise LawError("quantile level must be in (0, 1)")
        return _bisect_quantile(self.cdf, v)


def as_law(base: object) -> object:
    """Normalize a base-measure argument to something measure-like.

    DiscreteMeasure and MixtureLaw pass through; SamplerSpec is wrapped in a
    Law; an existing Law passes through.
    """
    if isinstance(base, (DiscreteMeasure, MixtureLaw, Law)):
        return base
    if isinstance(base, SamplerSpec):
        if base.kind == "atoms":
            return base.atoms
        return Law(base)
    raise LawError(f"cannot interpret {type(base).__name__} as a base measure")
