"""Location-scale noise families: logistic, Laplace, Gaussian.

Densities are evaluated through exp(-|t|) so large arguments underflow to
zero instead of overflowing, and samplers map open-interval uniforms through
exact inverse transforms. Everything is float64; the density-ratio privacy
certificates downstream need roughly 1e-12 of headroom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, check_float


@dataclass(frozen=True)
class LogisticParams:
    """Logistic location mu and scale s; variance is s^2 pi^2 / 3."""

    mu: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        check_float(self.mu, "mu")
        check_float(self.s, "s", above=0)


@dataclass(frozen=True)
class LaplaceParams:
    """Laplace location mu and scale b; variance is 2 b^2."""

    mu: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        check_float(self.mu, "mu")
        check_float(self.b, "b", above=0)


@dataclass(frozen=True)
class GaussianParams:
    """Gaussian location mu and standard deviation sigma."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        check_float(self.mu, "mu")
        check_float(self.sigma, "sigma", above=0)


def _standardized(x, mu: float, scale: float) -> np.ndarray:
    t = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("x must be finite")
    return (t - mu) / scale


def _match_shape(out: np.ndarray, x):
    if np.ndim(x) == 0:
        return float(out)
    return out


def logistic_log_pdf(x, p: LogisticParams = LogisticParams()):
    """Log density of logistic(mu, s): -|t| - 2 log1p(exp(-|t|)) - log s,
    with t = (x-mu)/s."""
    t = np.abs(_standardized(x, p.mu, p.s))
    return _match_shape(-t - 2.0 * np.log1p(np.exp(-t)) - math.log(p.s), x)


def logistic_cdf(x, p: LogisticParams = LogisticParams()):
    """1 / (1 + exp(-(x-mu)/s)), evaluated through e = exp(-|t|) so exp never
    overflows: 1 / (1 + e) for t >= 0 and e / (1 + e) below."""
    t = _standardized(x, p.mu, p.s)
    e = np.exp(-np.abs(t))
    return _match_shape(np.where(t >= 0, 1.0, e) / (1.0 + e), x)


def sample_logistic(rng: RngStream, p: LogisticParams, n: int) -> np.ndarray:
    """n iid draws via the inverse CDF mu + s ln(u / (1 - u))."""
    u = rng.uniforms(n)
    return p.mu + p.s * np.log(u / (1.0 - u))


def sample_laplace(rng: RngStream, p: LaplaceParams, n: int) -> np.ndarray:
    """n iid draws via mu - b sgn(u - 1/2) ln(1 - 2|u - 1/2|)."""
    u = rng.uniforms(n)
    c = u - 0.5
    return p.mu - p.b * np.sign(c) * np.log1p(-2.0 * np.abs(c))


def sample_gaussian(rng: RngStream, p: GaussianParams, n: int) -> np.ndarray:
    """n iid draws via the Box-Muller transform of uniform pairs."""
    m = (int(n) + 1) // 2
    u = rng.uniforms(2 * m)
    r = np.sqrt(-2.0 * np.log(u[:m]))
    a = (2.0 * math.pi) * u[m:]
    z = np.concatenate([r * np.cos(a), r * np.sin(a)])[: int(n)]
    return p.mu + p.sigma * z


def ks_distance(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance sup_x |F_n(x) - F(x)|."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(x), dtype=np.float64)
    steps = np.arange(n, dtype=np.float64)
    above = np.max((steps + 1.0) / n - f)
    below = np.max(f - steps / n)
    return float(max(above, below))
