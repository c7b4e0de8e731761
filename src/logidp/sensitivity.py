"""Empirical sensitivity of head training under leave-one-out adjacency.

The L1/L2 sensitivity of the fine-tuning step is estimated by retraining the
head on pairs of datasets that each drop one record, with the training seed
held fixed so the weight difference reflects data influence only. Retrained
weights are cached per dropped index; a pair that drops the same index twice
therefore yields exactly zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pipeline import Dataset, TrainConfig, finetune_head
from .rng import RngStream
from .weights import WeightVector

# Training cost of an exhaustive pass grows as |d| squared.
BRUTE_FORCE_MAX_RECORDS = 12

TrainerFn = Callable[[Dataset], WeightVector]


@dataclass(frozen=True)
class SensitivityEstimate:
    """Max weight-difference norms over sampled leave-one-out pairs."""

    delta_l1: float
    delta_l2: float
    m: int
    seed: int
    per_pair_norms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        norms = tuple((float(l1), float(l2)) for l1, l2 in self.per_pair_norms)
        object.__setattr__(self, "per_pair_norms", norms)
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if len(norms) != self.m:
            raise ValueError(f"expected {self.m} per-pair norms, got {len(norms)}")
        if not np.all(np.isfinite(norms)):
            raise ValueError("per-pair norms must be finite")
        if any(l1 < 0 or l2 < 0 for l1, l2 in norms):
            raise ValueError("per-pair norms must be nonnegative")
        if any(l2 > l1 * (1 + 1e-12) + 1e-300 for l1, l2 in norms):
            raise ValueError("per-pair l2 norm cannot exceed the l1 norm")
        if self.delta_l1 != max(l1 for l1, _ in norms):
            raise ValueError("delta_l1 must be the max of the per-pair l1 norms")
        if self.delta_l2 != max(l2 for _, l2 in norms):
            raise ValueError("delta_l2 must be the max of the per-pair l2 norms")


def sensitivity_index_pairs(n: int, m: int, seed: int) -> np.ndarray:
    """m (i, j) pairs drawn uniformly from [0, n); a prefix-stable stream,
    so the first pairs for a larger m reproduce those of a smaller m."""
    if n < 2:
        raise ValueError(f"need at least 2 records to form pairs, got {n}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return RngStream(seed, 0).indices(2 * m, n).reshape(m, 2)


def _pair_norms(d: Dataset, pairs: np.ndarray, trainer: TrainerFn):
    cache: dict[int, np.ndarray] = {}

    def left_out(i: int) -> np.ndarray:
        if i not in cache:
            cache[i] = trainer(d.without_index(i)).values
        return cache[i]

    norms = []
    for i, j in pairs:
        diff = left_out(int(i)) - left_out(int(j))
        norms.append((float(np.abs(diff).sum()), float(np.sqrt(diff @ diff))))
    return tuple(norms)


def _finish(norms, m: int, seed: int) -> SensitivityEstimate:
    return SensitivityEstimate(
        delta_l1=max(l1 for l1, _ in norms),
        delta_l2=max(l2 for _, l2 in norms),
        m=m,
        seed=seed,
        per_pair_norms=norms,
    )


def sample_sensitivity(
    theta: WeightVector,
    d: Dataset,
    cfg: TrainConfig,
    m: int,
    seed: int,
    trainer: TrainerFn | None = None,
    pairs: np.ndarray | None = None,
) -> SensitivityEstimate:
    """Monte-Carlo sensitivity over m seeded leave-one-out pairs.

    Repeated indices (i = j) stay in the sample. trainer overrides the
    default head fine-tuning (used by tests with analytically known
    trainers); pairs overrides the seeded draw with an explicit (m, 2)
    index array.
    """
    if len(d) < 2:
        raise ValueError(f"need at least 2 records, got {len(d)}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if pairs is None:
        pairs = sensitivity_index_pairs(len(d), m, seed)
    else:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.shape != (m, 2):
            raise ValueError(f"pairs must have shape ({m}, 2), got {pairs.shape}")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= len(d)):
            raise ValueError("pair indices out of range")
    if trainer is None:
        trainer = lambda subset: finetune_head(theta, subset, cfg)
    return _finish(_pair_norms(d, pairs, trainer), m, seed)


def brute_force_sensitivity(
    theta: WeightVector,
    d: Dataset,
    cfg: TrainConfig,
    trainer: TrainerFn | None = None,
) -> SensitivityEstimate:
    """Exact max over all ordered leave-one-out pairs; |d|^2 pairs, so
    guarded to small datasets. The recorded seed is 0 (nothing is sampled)."""
    n = len(d)
    if n < 2:
        raise ValueError(f"need at least 2 records, got {n}")
    if n > BRUTE_FORCE_MAX_RECORDS:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX_RECORDS} records, got {n}")
    if trainer is None:
        trainer = lambda subset: finetune_head(theta, subset, cfg)
    grid = np.arange(n)
    pairs = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    return _finish(_pair_norms(d, pairs, trainer), n * n, 0)


def estimate_to_json_dict(est: SensitivityEstimate) -> dict:
    return {
        "delta_l1": est.delta_l1,
        "delta_l2": est.delta_l2,
        "m": est.m,
        "seed": est.seed,
        "per_pair_norms": [[l1, l2] for l1, l2 in est.per_pair_norms],
    }


def estimate_from_json_dict(obj: dict) -> SensitivityEstimate:
    try:
        return SensitivityEstimate(
            delta_l1=float(obj["delta_l1"]),
            delta_l2=float(obj["delta_l2"]),
            m=int(obj["m"]),
            seed=int(obj["seed"]),
            per_pair_norms=tuple((float(l1), float(l2)) for l1, l2 in obj["per_pair_norms"]),
        )
    except KeyError as missing:
        raise ValueError(f"sensitivity document is missing field {missing}") from None


def save_estimate(est: SensitivityEstimate, path) -> None:
    with open(path, "w") as fh:
        json.dump(estimate_to_json_dict(est), fh, indent=2)
        fh.write("\n")


def load_estimate(path) -> SensitivityEstimate:
    with open(path) as fh:
        return estimate_from_json_dict(json.load(fh))
