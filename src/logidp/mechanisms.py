"""Privacy accounting for additive noise on weight vectors.

Converts between noise scale and privacy budget for the logistic, Laplace,
and Gaussian mechanisms, draws their iid location-0 noise, and certifies the
differential-privacy density-ratio bounds numerically. The logistic and
Laplace mechanisms are calibrated against 1-norm sensitivity (budget
epsilon = sensitivity / scale, delta = 0); the Gaussian mechanism against
2-norm sensitivity with sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon.
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
from .rng import RngStream, check_float


class NormKind(str, Enum):
    L1 = "l1"
    L2 = "l2"


class MechanismKind(str, Enum):
    LOGISTIC = "logistic"
    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"

    @property
    def norm(self) -> NormKind:
        """The one sensitivity norm this mechanism's calibration is valid
        against; mixing norms silently would void the budget arithmetic."""
        return NormKind.L2 if self is MechanismKind.GAUSSIAN else NormKind.L1

    def delta_for(self, delta: float) -> float:
        """The delta this mechanism carries out of a configured one: all of
        it for gaussian, which needs it in (0, 1); none for logistic and
        laplace, which are pure epsilon-DP."""
        if self is not MechanismKind.GAUSSIAN:
            return 0.0
        if not 0.0 < delta < 1.0:
            raise ValueError(f"gaussian mechanism needs delta in (0, 1), got {delta}")
        return delta


def _check_delta(kind: MechanismKind, delta: float) -> None:
    if kind.delta_for(delta) != delta:
        raise ValueError(f"{kind.value} mechanism must have delta = 0, got {delta}")


@dataclass(frozen=True)
class MechanismSpec:
    """A mechanism kind with its noise scale (s, b, or sigma) and delta."""

    kind: MechanismKind
    scale: float
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", MechanismKind(self.kind))
        check_float(self.scale, "scale", above=0)
        _check_delta(self.kind, check_float(self.delta, "delta"))


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        check_float(self.epsilon, "epsilon", above=0)
        check_float(self.delta, "delta", at_least=0, below=1)


@dataclass(frozen=True)
class Sensitivity:
    """A positive sensitivity in one norm; also a sweep config's fixed source."""

    norm: NormKind
    value: float

    def __post_init__(self):
        object.__setattr__(self, "norm", NormKind(self.norm))
        check_float(self.value, "value", above=0)

    def for_mechanism(self, kind: MechanismKind) -> Sensitivity:
        """This sensitivity, if it is in the norm kind calibrates against."""
        if self.norm is not kind.norm:
            raise ValueError(
                f"{kind.value} mechanism needs {kind.norm.value} sensitivity, got {self.norm.value}"
            )
        return self


def _noise_factor(kind: MechanismKind, delta: float) -> float:
    """Scale per unit of sensitivity / epsilon: sqrt(2 ln(1.25/delta)) for
    the gaussian mechanism, exactly 1 for logistic and laplace."""
    return math.sqrt(2.0 * math.log(1.25 / delta)) if kind is MechanismKind.GAUSSIAN else 1.0


def scale_for_budget(kind: MechanismKind, budget: PrivacyBudget, sens: Sensitivity) -> MechanismSpec:
    """Noise scale that spends exactly the given budget.

    logistic/laplace: scale = sensitivity / epsilon (pure epsilon-DP);
    gaussian: sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon.
    """
    kind = MechanismKind(kind)
    sens = sens.for_mechanism(kind)
    _check_delta(kind, budget.delta)
    scale = (sens.value * _noise_factor(kind, budget.delta)) / budget.epsilon
    return MechanismSpec(kind, scale, budget.delta)


def budget_for_scale(spec: MechanismSpec, sens: Sensitivity) -> PrivacyBudget:
    """Exact inverse of scale_for_budget (same association, so ~1 ulp)."""
    sens = sens.for_mechanism(spec.kind)
    epsilon = (sens.value * _noise_factor(spec.kind, spec.delta)) / spec.scale
    return PrivacyBudget(epsilon, spec.delta)


def sample_noise(spec: MechanismSpec, rng: RngStream, n: int) -> np.ndarray:
    """n iid location-0 noise draws for the spec; pure in (spec, rng, n)."""
    if spec.kind is MechanismKind.LOGISTIC:
        return sample_logistic(rng, LogisticParams(0.0, spec.scale), n)
    if spec.kind is MechanismKind.LAPLACE:
        return sample_laplace(rng, LaplaceParams(0.0, spec.scale), n)
    return sample_gaussian(rng, GaussianParams(0.0, spec.scale), n)


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
    z_grid_per_dim). The sum separates per coordinate, so the coordinate-wise
    argmax combination dominates every other point of the product grid: the
    sum of log_ratio_bound_check over the coordinates is the exact maximum
    over the whole grid. num_samples and rng are unused and kept for
    existing callers; they drew random grid combinations, which that argmax
    bound never let change the result.
    """
    g = np.asarray(gamma_vec, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(g)):
        raise ValueError("gamma_vec must be finite")
    return float(
        np.sum([log_ratio_bound_check(spec, gi, ratio_probe_grid(spec.scale, gi, z_grid_per_dim)) for gi in g])
    )
