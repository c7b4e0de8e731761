"""Empirical sensitivity of head training under leave-one-out adjacency.

The L1/L2 sensitivity of the fine-tuning step is estimated by retraining the
head on pairs of datasets that each drop one record, with the training seed
held fixed so the weight difference reflects data influence only. The head
is fit once per distinct dropped index, all of them in one batched
finetune_head call; a pair that drops the same index twice therefore yields
exactly zero.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .pipeline import Dataset, TrainConfig, finetune_head
from .rng import RngStream
from .weights import WeightVector

# An exhaustive pass costs n fits, one per record, but keeps n^2 pair rows.
BRUTE_FORCE_MAX_RECORDS = 12

TrainerFn = Callable[[Dataset], WeightVector]
# fits the heads that leave out each of the given record indices, in order
FitFn = Callable[[list[int]], Sequence[WeightVector]]


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


def _pair_norms(pairs: np.ndarray, fit: FitFn):
    dropped = list(dict.fromkeys(int(i) for i in pairs.ravel()))
    heads = {i: head.values for i, head in zip(dropped, fit(dropped))}
    norms = []
    for i, j in pairs:
        diff = heads[int(i)] - heads[int(j)]
        norms.append((float(np.abs(diff).sum()), float(np.sqrt(diff @ diff))))
    return tuple(norms)


def _loo_fitter(theta: WeightVector, d: Dataset, cfg: TrainConfig, trainer: TrainerFn | None) -> FitFn:
    """Batched head fine-tuning, or trainer called once per dropped index."""
    if trainer is None:
        return lambda dropped: finetune_head(theta, d, cfg, leave_out=dropped)
    return lambda dropped: [trainer(d.without_index(i)) for i in dropped]


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
    return _finish(_pair_norms(pairs, _loo_fitter(theta, d, cfg, trainer)), m, seed)


def brute_force_sensitivity(
    theta: WeightVector,
    d: Dataset,
    cfg: TrainConfig,
    trainer: TrainerFn | None = None,
) -> SensitivityEstimate:
    """Exact max over all ordered leave-one-out pairs: |d| fits, one per
    dropped record, but |d|^2 pair norms are kept, hence the size guard.
    The recorded seed is 0 (nothing is sampled)."""
    n = len(d)
    if n < 2:
        raise ValueError(f"need at least 2 records, got {n}")
    if n > BRUTE_FORCE_MAX_RECORDS:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX_RECORDS} records, got {n}")
    grid = np.arange(n)
    pairs = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    return _finish(_pair_norms(pairs, _loo_fitter(theta, d, cfg, trainer)), n * n, 0)


def _from_json_dict(cls, obj, **blocks):
    """cls(**obj), so the constructor's own checks validate every document
    read. blocks maps a field to the reader of its nested block. A missing
    or unknown key raises ValueError naming it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(obj).__name__}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(obj) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"{cls.__name__} has no field {unknown[0]!r}")
    for f in fields:
        if f.name not in obj and f.default is f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{cls.__name__} is missing field {f.name!r}")
    values = {}
    for name, value in obj.items():
        try:
            values[name] = blocks[name](value) if name in blocks else value
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return cls(**values)


def estimate_to_json_dict(est: SensitivityEstimate) -> dict:
    return dataclasses.asdict(est)


def estimate_from_json_dict(obj: dict) -> SensitivityEstimate:
    return _from_json_dict(SensitivityEstimate, obj)


def save_estimate(est: SensitivityEstimate, path) -> None:
    with open(path, "w") as fh:
        json.dump(estimate_to_json_dict(est), fh, indent=2)
        fh.write("\n")


def load_estimate(path) -> SensitivityEstimate:
    with open(path) as fh:
        return estimate_from_json_dict(json.load(fh))
