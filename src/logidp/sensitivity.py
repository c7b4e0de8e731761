"""Empirical sensitivity of head training under leave-one-out adjacency.

The L1/L2 sensitivity of the fine-tuning step is estimated by retraining the
head on pairs of datasets that each drop one record, with the training seed
held fixed so the weight difference reflects data influence only. The head
is fit once per distinct dropped index, all of them in one batched
finetune_head call; a pair that drops the same index twice therefore yields
exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
# annotations only: a module-level Callable alias would pin each import's classes in typing's caches
from typing import Callable

import numpy as np

from .mechanisms import MechanismKind, NormKind, Sensitivity
from .pipeline import Dataset, TrainConfig, finetune_head
from .rng import RngStream, check_float, check_int, check_int_array, check_list, check_seed
from .weights import WeightVector

# An exhaustive pass costs n fits, one per record, but keeps n^2 pair rows.
BRUTE_FORCE_MAX_RECORDS = 12


@dataclass(frozen=True)
class SensitivityEstimate:
    """Max weight-difference norms over sampled leave-one-out pairs."""

    delta_l1: float
    delta_l2: float
    m: int
    seed: int
    per_pair_norms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        norm = partial(check_float, name="per_pair_norms", at_least=0)
        norms = []
        for pair in check_list(self.per_pair_norms, "per_pair_norms"):
            if len(check_list(pair, "per_pair_norms")) != 2:
                raise ValueError(f"per_pair_norms must hold (l1, l2) pairs, got {pair!r}")
            norms.append((norm(pair[0]), norm(pair[1])))
        object.__setattr__(self, "per_pair_norms", tuple(norms))
        check_int(self.m, "m", 1)
        check_seed(self.seed)
        check_float(self.delta_l1, "delta_l1")
        check_float(self.delta_l2, "delta_l2")
        if len(norms) != self.m:
            raise ValueError(f"expected {self.m} per-pair norms, got {len(norms)}")
        if any(l2 > l1 * (1 + 1e-12) + 1e-300 for l1, l2 in norms):
            raise ValueError("per-pair l2 norm cannot exceed the l1 norm")
        if self.delta_l1 != max(l1 for l1, _ in norms):
            raise ValueError("delta_l1 must be the max of the per-pair l1 norms")
        if self.delta_l2 != max(l2 for _, l2 in norms):
            raise ValueError("delta_l2 must be the max of the per-pair l2 norms")

    def for_mechanism(self, kind: MechanismKind) -> Sensitivity:
        """The estimated max in the norm kind calibrates against."""
        return Sensitivity(kind.norm, self.delta_l1 if kind.norm is NormKind.L1 else self.delta_l2)


def sensitivity_index_pairs(n: int, m: int, seed: int) -> np.ndarray:
    """m (i, j) pairs drawn uniformly from [0, n); a prefix-stable stream,
    so the first pairs for a larger m reproduce those of a smaller m."""
    if n < 2:
        raise ValueError(f"need at least 2 records to form pairs, got {n}")
    check_int(m, "m", 1)
    return RngStream(seed, 0).indices(2 * m, n).reshape(m, 2)


def sample_sensitivity(
    theta: WeightVector,
    d: Dataset,
    cfg: TrainConfig,
    m: int,
    seed: int,
    trainer: Callable[[Dataset], WeightVector] | None = None,
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
    check_int(m, "m", 1)
    if pairs is None:
        pairs = sensitivity_index_pairs(len(d), m, seed)
    else:
        pairs = check_int_array(pairs, "pairs")
        if pairs.shape != (m, 2):
            raise ValueError(f"pairs must have shape ({m}, 2), got {pairs.shape}")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= len(d)):
            raise ValueError("pair indices out of range")
    dropped = list(dict.fromkeys(int(i) for i in pairs.ravel()))
    if trainer is None:
        fits = finetune_head(theta, d, cfg, leave_out=dropped)
    else:
        fits = [trainer(d.without_index(i)) for i in dropped]
    heads = {i: head.values for i, head in zip(dropped, fits)}
    norms = []
    for i, j in pairs:
        diff = heads[int(i)] - heads[int(j)]
        norms.append((float(np.abs(diff).sum()), float(np.sqrt(diff @ diff))))
    return SensitivityEstimate(max(l1 for l1, _ in norms), max(l2 for _, l2 in norms), m, seed, tuple(norms))


def brute_force_sensitivity(
    theta: WeightVector,
    d: Dataset,
    cfg: TrainConfig,
    trainer: Callable[[Dataset], WeightVector] | None = None,
) -> SensitivityEstimate:
    """Exact max over all ordered leave-one-out pairs: the sampler over all
    |d|^2 pairs, recorded with seed 0 (nothing is sampled). That is |d| fits,
    but |d|^2 pair norms are kept, hence the size guard."""
    n = len(d)
    if n > BRUTE_FORCE_MAX_RECORDS:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX_RECORDS} records, got {n}")
    grid = np.arange(n)
    pairs = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    return sample_sensitivity(theta, d, cfg, n * n, 0, trainer, pairs=pairs)
