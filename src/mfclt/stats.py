"""Small statistical kernels used by the experiment drivers.

Provides a one-sample Kolmogorov-Smirnov test against a normal law (with
the asymptotic Kolmogorov tail series), empirical covariance matrices with
jackknife standard errors, and least-squares slopes on log-log scales.
These are the measurement instruments of the package, so they are written
out explicitly and validated against independent oracles in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

_SQRT2 = np.sqrt(2.0)
KOLMOGOROV_SERIES_TOL = 1e-12


def normal_cdf(x: object, mean: float = 0.0, sd: float = 1.0) -> np.ndarray | float:
    """Gaussian CDF via the complementary error function."""
    if sd <= 0:
        raise ValueError("sd must be positive")
    z = (np.asarray(x, dtype=float) - mean) / (sd * _SQRT2)
    out = 0.5 * special.erfc(-z)
    return float(out) if out.ndim == 0 else out


def normal_quantile(p: object, mean: float = 0.0, sd: float = 1.0) -> np.ndarray | float:
    """Gaussian quantile function."""
    if sd <= 0:
        raise ValueError("sd must be positive")
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0) | (arr >= 1)):
        raise ValueError("quantile levels must lie in (0, 1)")
    out = mean + sd * special.ndtri(arr)
    return float(out) if out.ndim == 0 else out


def kolmogorov_sf(x: float) -> float:
    """P(sup |Brownian bridge| > x) = 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 x^2).

    Terms are added until they drop below KOLMOGOROV_SERIES_TOL.  The series
    alternates, so the truncation error is below the first dropped term.
    """
    if x <= 0:
        return 1.0
    total = 0.0
    sign = 1.0
    k = 1
    while True:
        term = np.exp(-2.0 * k * k * x * x)
        total += sign * term
        if term < KOLMOGOROV_SERIES_TOL:
            break
        sign = -sign
        k += 1
        if k > 100_000:  # unreachable for x > 0; guards infinite loops
            break
    return float(min(max(2.0 * total, 0.0), 1.0))


@dataclass(frozen=True)
class KsResult:
    statistic: float
    pvalue: float
    n: int


def ks_test_normal(samples: object, mean: float = 0.0, variance: float = 1.0) -> KsResult:
    """One-sample KS test of `samples` against N(mean, variance)."""
    s = np.sort(np.asarray(samples, dtype=float).reshape(-1))
    n = s.shape[0]
    if n == 0:
        raise ValueError("need at least one sample")
    if variance <= 0:
        raise ValueError("variance must be positive for a KS test")
    f = normal_cdf(s, mean, np.sqrt(variance))
    grid = np.arange(n, dtype=float)
    d_plus = np.max((grid + 1.0) / n - f)
    d_minus = np.max(f - grid / n)
    stat = float(max(d_plus, d_minus))
    return KsResult(stat, kolmogorov_sf(np.sqrt(n) * stat), n)


@dataclass(frozen=True)
class CovarianceEstimate:
    cov: np.ndarray
    stderr: np.ndarray
    n: int


def empirical_cov(samples: np.ndarray) -> CovarianceEstimate:
    """Unbiased covariance of rows (R, K) with jackknife standard errors."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    r, k = x.shape
    if r < 3:
        raise ValueError("need at least 3 replications for jackknife errors")
    cov = np.cov(x, rowvar=False, ddof=1).reshape(k, k)
    s1 = x.sum(axis=0)
    s2 = np.einsum("ri,rj->ij", x, x)
    nn = r - 1
    m = (s1 - x) / nn  # leave-one-out means, (R, K)
    loo = (s2 - x[:, :, None] * x[:, None, :]
           - nn * (m[:, :, None] * m[:, None, :])) / (nn - 1)
    loo_mean = loo.mean(axis=0)
    stderr = np.sqrt((nn / r) * np.sum((loo - loo_mean) ** 2, axis=0))
    return CovarianceEstimate(cov, stderr, r)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float


def loglog_slope(xs: object, ys: object) -> SlopeFit:
    """Least-squares slope of log(ys) against log(xs)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log(np.asarray(xs, dtype=float))
        y = np.log(np.asarray(ys, dtype=float))
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-d arrays with >= 2 points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("log-log fit needs positive finite inputs")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return SlopeFit(float(slope), float(intercept), float(r2))
