"""Membership inference attack against a protected model.

The attacker trains a shadow head on data it controls, collects the shadow
model's (output vector, one-hot label) pairs for records inside and outside
the shadow training set, and fits a small binary MLP on those pairs. Attack
accuracy against the victim is the fraction of balanced member/non-member
queries the classifier gets right at threshold 0.5; 0.5 is random guessing.
The MLP trains and scores in float32, as attack models usually do; the
release path (noise, calibration, sensitivity, encoder, heads) stays float64.

Records carry a provenance tag so the trainer can refuse victim-derived
records: the classifier must only ever see shadow outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import logistic_cdf
from .pipeline import Dataset, encode, one_hot, predict_from_representations
from .protection import ProtectedModel
from .rng import RngStream
from .weights import WeightVector

SHADOW_SOURCE = "shadow"
VICTIM_SOURCE = "victim"

_STREAM_IN = 0
_STREAM_OUT = 1


@dataclass(frozen=True)
class AttackRecord:
    """One (model output, true label, membership) training example."""

    output_vector: np.ndarray
    label_onehot: np.ndarray
    membership: int
    source: str = SHADOW_SOURCE

    def __post_init__(self):
        out = np.asarray(self.output_vector, dtype=np.float64).copy()
        lab = np.asarray(self.label_onehot, dtype=np.float64).copy()
        out.flags.writeable = False
        lab.flags.writeable = False
        object.__setattr__(self, "output_vector", out)
        object.__setattr__(self, "label_onehot", lab)
        if out.ndim != 1 or lab.ndim != 1 or out.shape != lab.shape:
            raise ValueError("output_vector and label_onehot must be 1-d and the same length")
        if not (np.all(np.isfinite(out)) and abs(out.sum() - 1.0) <= 1e-9):
            raise ValueError(f"output_vector must be finite and sum to 1 within 1e-9, got {out.sum()!r}")
        nonzero = np.flatnonzero(lab)
        if len(nonzero) != 1 or lab[nonzero[0]] != 1.0:
            raise ValueError("label_onehot must have exactly one entry equal to 1")
        if self.membership not in (0, 1):
            raise ValueError(f"membership must be 0 or 1, got {self.membership}")
        if self.source not in (SHADOW_SOURCE, VICTIM_SOURCE):
            raise ValueError(f"unknown record source {self.source!r}")

    @property
    def num_classes(self) -> int:
        return len(self.output_vector)


@dataclass(frozen=True)
class AttackClassifierConfig:
    """Shape and schedule of the binary membership classifier."""

    epochs: int
    seed: int
    hidden_layers: int = 5
    hidden_width: int = 64
    learning_rate: float = 0.001
    train_pairs: int = 2000

    def __post_init__(self):
        if self.hidden_layers < 1:
            raise ValueError(f"hidden_layers must be >= 1, got {self.hidden_layers}")
        if self.hidden_width < 1:
            raise ValueError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.train_pairs < 2 or self.train_pairs % 2:
            raise ValueError(f"train_pairs must be even and >= 2, got {self.train_pairs}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in u64, got {self.seed}")


@dataclass(frozen=True)
class AttackClassifier:
    """Trained membership MLP: ReLU hidden stack, sigmoid output, float32 layers."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    num_classes: int

    def __post_init__(self):
        frozen = []
        for w, b in self.layers:
            w = np.asarray(w, dtype=np.float32).copy()
            b = np.asarray(b, dtype=np.float32).copy()
            w.flags.writeable = False
            b.flags.writeable = False
            frozen.append((w, b))
        object.__setattr__(self, "layers", tuple(frozen))
        if self.layers[0][0].shape[0] != 2 * self.num_classes:
            raise ValueError("first layer width must match 2 * num_classes")
        if self.layers[-1][0].shape[1] != 1:
            raise ValueError("output layer must have a single unit")


def _stack_inputs(records) -> tuple[np.ndarray, np.ndarray]:
    xs = np.stack([np.concatenate([r.output_vector, r.label_onehot]) for r in records])
    ys = np.array([r.membership for r in records], dtype=np.float64)
    return xs, ys


def _layer_init(stream: RngStream, fan_in: int, fan_out: int, gain: float) -> tuple[np.ndarray, np.ndarray]:
    # symmetric uniform; gain 6 keeps variance flat through a ReLU stack,
    # gain 3 is the linear-output choice; bias starts at zero. Drawn in
    # float64, rounded once to the float32 the MLP trains in
    bound = np.sqrt(gain / fan_in)
    w = (stream.uniforms(fan_in * fan_out) * 2.0 - 1.0) * bound
    return w.reshape(fan_in, fan_out).astype(np.float32), np.zeros(fan_out, dtype=np.float32)


def _init_layers(cfg: AttackClassifierConfig, num_classes: int):
    sizes = [2 * num_classes] + [cfg.hidden_width] * cfg.hidden_layers + [1]
    last = len(sizes) - 2
    return [
        _layer_init(RngStream(cfg.seed, i), sizes[i], sizes[i + 1], 3.0 if i == last else 6.0)
        for i in range(len(sizes) - 1)
    ]


def _forward(layers, x: np.ndarray, acts) -> np.ndarray:
    """Output logits of the MLP on the rows of x; each hidden layer's ReLU
    activation is written to its (rows, width) buffer in acts."""
    h = x
    for (w, b), a in zip(layers[:-1], acts):
        np.matmul(h, w, out=a)
        a += b
        np.maximum(a, 0.0, out=a)
        h = a
    w, b = layers[-1]
    return (h @ w + b).ravel()


def _balanced_inputs(theta: WeightVector, omega: WeightVector, members: Dataset, nonmembers: Dataset,
                     size: int, seed: int) -> list[np.ndarray]:
    """Rows [output vector | one-hot label] of the model on size records of
    each set, drawn seeded and without replacement: members, then non-members."""
    rows = []
    for dataset, stream_index in ((members, _STREAM_IN), (nonmembers, _STREAM_OUT)):
        picks = RngStream(seed, stream_index).permutation(len(dataset))[:size]
        probs = predict_from_representations(omega, encode(theta, dataset.features[picks]))
        if probs.shape[1] != dataset.num_classes:
            raise ValueError("model output width does not match the dataset's num_classes")
        rows.append(np.hstack([probs, one_hot(dataset.labels[picks], dataset.num_classes)]))
    return rows


def check_attack_partitions(in_set: Dataset, out_set: Dataset, pairs: int) -> None:
    """Raises ValueError unless pairs is even and >= 2, each partition holds
    pairs/2 records, and both share num_classes."""
    if pairs < 2 or pairs % 2:
        raise ValueError(f"pairs must be even and >= 2, got {pairs}")
    half = pairs // 2
    if len(in_set) < half or len(out_set) < half:
        raise ValueError(
            f"need {half} records in each partition, have {len(in_set)} in / {len(out_set)} out"
        )
    if in_set.num_classes != out_set.num_classes:
        raise ValueError("partitions must share num_classes")


def build_attack_dataset(
    shadow_theta: WeightVector,
    shadow_omega: WeightVector,
    in_set: Dataset,
    out_set: Dataset,
    pairs: int,
    seed: int,
) -> list[AttackRecord]:
    """Balanced shadow-output records: pairs/2 members, pairs/2 non-members.

    Sampling is seeded and without replacement within each partition.
    """
    check_attack_partitions(in_set, out_set, pairs)
    c = in_set.num_classes
    members, nonmembers = _balanced_inputs(shadow_theta, shadow_omega, in_set, out_set, pairs // 2, seed)
    return [AttackRecord(row[:c], row[c:], membership)
            for rows, membership in ((members, 1), (nonmembers, 0)) for row in rows]


def _descend(w, b, grad: np.ndarray, h_in: np.ndarray, gz: np.ndarray, lr: np.float32) -> None:
    """One in-place gradient step of layer (w, b) from its input h_in and
    pre-activation gradient gz; grad is scratch of w's shape."""
    np.matmul(h_in.T, gz, out=grad)
    grad *= lr
    w -= grad
    b -= lr * gz.sum(axis=0)


def train_attack_classifier(records, cfg: AttackClassifierConfig) -> AttackClassifier:
    """Full-batch gradient descent on binary cross-entropy.

    Input is the concatenated (output vector, one-hot label); hidden stack is
    cfg.hidden_layers ReLU layers of cfg.hidden_width; output is one sigmoid
    unit. Deterministic given cfg.seed. Refuses victim-tagged records, and
    raises ValueError at the first non-finite logit of a diverging run.
    """
    records = list(records)
    if not records:
        raise ValueError("no attack records given")
    if any(r.source == VICTIM_SOURCE for r in records):
        raise ValueError("attack classifier must be trained on shadow records only")
    classes = {r.membership for r in records}
    if classes != {0, 1}:
        raise ValueError("attack training set must contain both members and non-members")
    num_classes = records[0].num_classes
    if any(r.num_classes != num_classes for r in records):
        raise ValueError("all attack records must share num_classes")

    x, y = (a.astype(np.float32) for a in _stack_inputs(records))
    layers = _init_layers(cfg, num_classes)
    n = len(records)
    # float32 scalars keep every product float32 under both numpy 1.x
    # value-based casting and numpy 2 promotion
    lr = np.float32(cfg.learning_rate)
    inv_n = np.float32(1.0 / n)
    # every (n x width) array is allocated once and rewritten each epoch;
    # the ReLU mask is read off the stored activation (a > 0 exactly where
    # the pre-activation is > 0, NaN included), and the layers update in
    # place with the same two roundings as w - lr * G
    hidden = len(layers) - 1
    acts = [np.empty((n, cfg.hidden_width), dtype=np.float32) for _ in range(hidden)]
    inputs = [x] + acts[:-1]
    grad_h = np.empty((n, cfg.hidden_width), dtype=np.float32)
    gz = np.empty((n, cfg.hidden_width), dtype=np.float32)
    mask = np.empty((n, cfg.hidden_width), dtype=bool)
    grads = [np.empty_like(w) for w, _ in layers]
    w_out, b_out = layers[-1]
    for _ in range(cfg.epochs):
        logits = _forward(layers, x, acts)
        # d(BCE)/d(logit) for sigmoid output; logistic_cdf evaluates in
        # float64 and raises on a non-finite logit
        g = (logistic_cdf(logits).astype(np.float32) - y).reshape(-1, 1) * inv_n
        np.matmul(g, w_out.T, out=grad_h)
        _descend(w_out, b_out, grads[-1], acts[-1], g, lr)
        for i in range(hidden - 1, -1, -1):
            np.greater(acts[i], 0.0, out=mask)
            np.multiply(grad_h, mask, out=gz)
            w, b = layers[i]
            if i:  # the input gradient of layer 0 has no use
                np.matmul(gz, w.T, out=grad_h)
            _descend(w, b, grads[i], inputs[i], gz, lr)
    return AttackClassifier(tuple(layers), num_classes)


def attack_accuracy(
    classifier: AttackClassifier,
    victim: ProtectedModel,
    members: Dataset,
    nonmembers: Dataset,
    use_protected_outputs: int,
    seed: int,
) -> float:
    """Score the classifier against the victim on a balanced evaluation set.

    Victim outputs come from omega_noisy when use_protected_outputs is 1 and
    omega_clean otherwise. Unequal sets are subsampled (seeded, without
    replacement) down to the smaller size so 0.5 stays the guessing baseline.
    """
    if len(members) == 0 or len(nonmembers) == 0:
        raise ValueError("evaluation sets must be nonempty")
    size = min(len(members), len(nonmembers))
    omega = victim.omega_noisy if use_protected_outputs else victim.omega_clean
    x = np.concatenate(_balanced_inputs(victim.theta, omega, members, nonmembers, size, seed), dtype=np.float32)
    if x.shape[1] != 2 * classifier.num_classes:
        raise ValueError("victim output width does not match the classifier")
    acts = [np.empty((len(x), w.shape[1]), dtype=np.float32) for w, _ in classifier.layers[:-1]]
    logits = _forward(classifier.layers, x, acts)
    is_member = np.arange(2 * size) < size
    return float(np.mean((logistic_cdf(logits) >= 0.5) == is_member))
