"""Privacy accounting for additive noise on weight vectors.

Converts between noise scale and privacy budget for the logistic, Laplace,
and Gaussian mechanisms, perturbs flat weight vectors with iid per-coordinate
noise, and certifies the differential-privacy density-ratio bounds
numerically. The logistic and Laplace mechanisms are calibrated against
1-norm sensitivity (budget epsilon = sensitivity / scale, delta = 0); the
Gaussian mechanism against 2-norm sensitivity with
sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .noise import (
    GaussianParams,
    LaplaceParams,
    LogisticParams,
    sample_gaussian,
    sample_laplace,
    sample_logistic,
)
from .rng import RngStream
from .weights import WeightVector


class MechanismKind(str, Enum):
    LOGISTIC = "logistic"
    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"


class NormKind(str, Enum):
    L1 = "l1"
    L2 = "l2"


# Each mechanism's calibration is only valid against one sensitivity norm;
# mixing them silently would void the budget arithmetic.
_REQUIRED_NORM = {
    MechanismKind.LOGISTIC: NormKind.L1,
    MechanismKind.LAPLACE: NormKind.L1,
    MechanismKind.GAUSSIAN: NormKind.L2,
}


def _check_delta(kind: MechanismKind, delta: float) -> None:
    if kind is MechanismKind.GAUSSIAN:
        if not 0.0 < delta < 1.0:
            raise ValueError(f"gaussian mechanism needs delta in (0, 1), got {delta}")
    elif delta != 0.0:
        raise ValueError(f"{kind.value} mechanism must have delta = 0, got {delta}")


@dataclass(frozen=True)
class MechanismSpec:
    """A mechanism kind with its noise scale (s, b, or sigma) and delta."""

    kind: MechanismKind
    scale: float
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        _check_delta(self.kind, self.delta)


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (math.isfinite(self.delta) and 0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class Sensitivity:
    norm: NormKind
    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ValueError(f"sensitivity must be nonnegative and finite, got {self.value}")


def _check_pairing(kind: MechanismKind, sens: Sensitivity) -> None:
    required = _REQUIRED_NORM[kind]
    if sens.norm is not required:
        raise ValueError(
            f"{kind.value} mechanism requires {required.value} sensitivity, got {sens.norm.value}"
        )
    if sens.value <= 0:
        raise ValueError("sensitivity must be positive to calibrate a scale")


def _gaussian_factor(delta: float) -> float:
    return math.sqrt(2.0 * math.log(1.25 / delta))


def scale_for_budget(kind: MechanismKind, budget: PrivacyBudget, sens: Sensitivity) -> MechanismSpec:
    """Noise scale that spends exactly the given budget.

    logistic/laplace: scale = sensitivity / epsilon (pure epsilon-DP);
    gaussian: sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon.
    """
    _check_pairing(kind, sens)
    _check_delta(kind, budget.delta)
    if kind is MechanismKind.GAUSSIAN:
        scale = (sens.value * _gaussian_factor(budget.delta)) / budget.epsilon
    else:
        scale = sens.value / budget.epsilon
    return MechanismSpec(kind, scale, budget.delta)


def budget_for_scale(spec: MechanismSpec, sens: Sensitivity) -> PrivacyBudget:
    """Exact inverse of scale_for_budget (same association, so ~1 ulp)."""
    _check_pairing(spec.kind, sens)
    if spec.kind is MechanismKind.GAUSSIAN:
        epsilon = (sens.value * _gaussian_factor(spec.delta)) / spec.scale
    else:
        epsilon = sens.value / spec.scale
    return PrivacyBudget(epsilon, spec.delta)


def noise_params(spec: MechanismSpec):
    """Location-0 params for the spec's noise distribution."""
    if spec.kind is MechanismKind.LOGISTIC:
        return LogisticParams(0.0, spec.scale)
    if spec.kind is MechanismKind.LAPLACE:
        return LaplaceParams(0.0, spec.scale)
    return GaussianParams(0.0, spec.scale)


def sample_noise(spec: MechanismSpec, rng: RngStream, n: int) -> np.ndarray:
    """n iid location-0 noise draws for the spec; pure in (spec, rng, n)."""
    p = noise_params(spec)
    if spec.kind is MechanismKind.LOGISTIC:
        return sample_logistic(rng, p, n)
    if spec.kind is MechanismKind.LAPLACE:
        return sample_laplace(rng, p, n)
    return sample_gaussian(rng, p, n)


def perturb(w: WeightVector, spec: MechanismSpec, rng: RngStream) -> WeightVector:
    """w plus iid per-coordinate noise; input left unmodified."""
    v = w.values
    if not np.all(np.isfinite(v)):
        raise ValueError("weights must be finite")
    return WeightVector(v + sample_noise(spec, rng, v.size), w.shape_tag)


def _log_density_ratio(kind: MechanismKind, scale: float, gamma: float, z: np.ndarray) -> np.ndarray:
    """log p(z - gamma) - log p(z) per entry, for location-0 noise.

    The logistic and Laplace ratios are evaluated through
    |t| - |t - g| = clip(sign(g) (2t - g), -|g|, |g|) with t = z/scale and
    g = gamma/scale, which keeps the computed ratio at or below |g| even
    when |z|/scale is so large that direct log-density differences would
    lose the bound to cancellation.
    """
    t = z / scale
    g = gamma / scale
    if kind is MechanismKind.GAUSSIAN:
        return g * (2.0 * t - g) / 2.0
    core = np.clip(np.sign(g) * (2.0 * t - g), -abs(g), abs(g))
    if kind is MechanismKind.LAPLACE:
        return core
    return core + 2.0 * (np.log1p(np.exp(-np.abs(t))) - np.log1p(np.exp(-np.abs(t - g))))


def log_ratio_bound_check(spec: MechanismSpec, gamma: float, z_grid) -> float:
    """Max over the grid of log p(z - gamma) - log p(z) for spec's noise.

    For the logistic and Laplace mechanisms the result never exceeds
    |gamma| / scale (up to ~1e-12 of rounding); for the Gaussian mechanism
    the ratio is unbounded and simply grows with the grid range.
    """
    z = np.asarray(z_grid, dtype=np.float64).reshape(-1)
    if z.size == 0:
        raise ValueError("z_grid must be nonempty")
    if not (np.all(np.isfinite(z)) and math.isfinite(gamma)):
        raise ValueError("gamma and z_grid must be finite")
    return float(np.max(_log_density_ratio(spec.kind, spec.scale, gamma, z)))


def ratio_probe_grid(scale: float, gamma: float, points: int) -> np.ndarray:
    """Evenly spaced ratio probes covering both densities and the far tail."""
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    half = 50.0 * scale + abs(gamma)
    return np.linspace(-half, half, int(points))


def multivariate_log_ratio_check(
    spec: MechanismSpec,
    gamma_vec,
    z_grid_per_dim: int = 1001,
    num_samples: int = 100_000,
    rng: RngStream | None = None,
) -> float:
    """Max over probe vectors z of the summed per-coordinate log ratios.

    Coordinate i is probed on ratio_probe_grid(scale, gamma_vec[i],
    z_grid_per_dim). Probes are num_samples random grid-index combinations
    plus the coordinate-wise argmax combination; the argmax combination
    dominates every sampled one because the sum separates per coordinate,
    so the result is the exact maximum over the whole product grid. For a
    single coordinate this equals log_ratio_bound_check on the same grid.
    """
    g = np.asarray(gamma_vec, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(g)):
        raise ValueError("gamma_vec must be finite")
    if g.size == 0:
        return 0.0
    per_dim = np.stack(
        [
            _log_density_ratio(spec.kind, spec.scale, gi, ratio_probe_grid(spec.scale, gi, z_grid_per_dim))
            for gi in g
        ]
    )
    best = float(np.sum(np.max(per_dim, axis=1)))
    if num_samples > 0:
        if rng is None:
            rng = RngStream(0, 0)
        idx = rng.indices(num_samples * g.size, per_dim.shape[1]).reshape(num_samples, g.size)
        sampled = float(np.max(np.sum(per_dim[np.arange(g.size)[None, :], idx], axis=1)))
        best = max(best, sampled)
    return best

