"""Membership inference attack against a protected model.

The attacker trains a shadow head on data it controls, collects the shadow
model's (output vector, one-hot label) rows for records inside and outside
the shadow training set as one AttackSet, an (n, 2 * classes) feature array
and an (n,) membership array checked once, and fits a small binary MLP on
those rows. Attack accuracy against the victim is the fraction of balanced
member/non-member queries the classifier gets right at threshold 0.5; 0.5
is random guessing. build_attack_dataset is the one builder of attack
rows: the victim's scoring rows are an AttackSet from it too, made and
checked as the shadow rows are.
The MLP trains and scores in float32, as attack models usually do; the
release path (noise, calibration, sensitivity, encoder, heads) stays float64.
Each layer is one (in + 1, out) matrix whose last row is the bias, from
initialization to scoring. Training and scoring run on fixed blocks of at
most 125 records, and training adds the blocks' gradients in block order,
so the trained layers have the same bits on any BLAS thread count. A
training epoch allocates nothing but the float64 logistic CDF's
temporaries: the one forward pass also writes each hidden layer's ReLU
mask into a reused buffer, and each input gradient is a product against a
reused contiguous copy of its layer's transposed weights.

The classifier sees shadow outputs only, by construction: train_auditor in
experiments builds its AttackSet from the shadow splits alone, and the victim
is only ever scored, never trained on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import logistic_cdf
from .pipeline import Dataset, encode, one_hot, predict_from_representations
from .protection import ProtectedModel
from .rng import RngStream, check_float, check_int, check_int_array, check_seed
from .weights import WeightVector

_STREAM_IN = 0
_STREAM_OUT = 1

# Rows per record block of the attack MLP. A product of the default 64-wide
# MLP on one block is at most 125 x 65 x 64 multiply-adds, under OpenBLAS's
# threading threshold, so it runs on the calling thread whatever the BLAS
# thread count. Smaller blocks pay more BLAS calls.
_BLOCK_ROWS = 125


@dataclass(frozen=True)
class AttackSet:
    """A batch of attack examples. Row i of the (n, 2 * num_classes) features
    is a model output followed by its one-hot label; membership[i] is 1 for a
    member and 0 for a non-member. Both are read-only copies. len() is n, and
    an int or a slice index gives the AttackSet of those rows."""

    features: np.ndarray
    membership: np.ndarray
    num_classes: int

    def __post_init__(self):
        c = check_int(self.num_classes, "num_classes", 1)
        x = np.array(self.features, dtype=np.float64, copy=True)
        bits = check_int_array(self.membership, "membership")
        if x.ndim != 2 or x.shape[1] != 2 * c:
            raise ValueError(f"features must be (n, {2 * c}) for {c} classes, got shape {x.shape}")
        if bits.shape != (len(x),):
            raise ValueError(f"membership must be ({len(x)},), one bit per row, got shape {bits.shape}")
        # a non-finite output makes its row's sum non-finite
        sums = x[:, :c].sum(axis=1)
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-9))
        if bad.size:
            raise ValueError(f"outputs must be finite and sum to 1 within 1e-9, row {bad[0]} sums to "
                             f"{float(sums[bad[0]])!r}")
        labels = x[:, c:]
        if not ((np.count_nonzero(labels, axis=1) == 1) & (labels.sum(axis=1) == 1.0)).all():
            raise ValueError("labels must be one-hot: exactly one entry per row, equal to 1")
        outside = bits[(bits != 0) & (bits != 1)]
        if outside.size:
            raise ValueError(f"membership must be 0 or 1, got {outside[0]}")
        x.setflags(write=False)
        bits.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "membership", bits)

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, index) -> AttackSet:
        return AttackSet(np.atleast_2d(self.features[index]), np.atleast_1d(self.membership[index]),
                         self.num_classes)


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
        check_int(self.hidden_layers, "hidden_layers", 1)
        check_int(self.hidden_width, "hidden_width", 1)
        check_int(self.epochs, "epochs")
        if check_int(self.train_pairs, "train_pairs", 2) % 2:
            raise ValueError(f"train_pairs must be even, got {self.train_pairs}")
        check_seed(self.seed)
        # the trainer steps at np.float32(learning_rate)
        check_float(self.learning_rate, "learning_rate", above=0, at_most=float(np.finfo(np.float32).max))
        if not np.float32(self.learning_rate):
            raise ValueError(f"learning_rate must be above 0 in float32, got {self.learning_rate!r}")


@dataclass(frozen=True)
class AttackClassifier:
    """Trained membership MLP: ReLU hidden stack, sigmoid output. Each layer
    is one read-only float32 (in + 1, out) matrix whose last row is the bias."""

    layers: tuple[np.ndarray, ...]
    num_classes: int

    def __post_init__(self):
        frozen = tuple(np.asarray(w, dtype=np.float32).copy() for w in self.layers)
        for w in frozen:
            w.flags.writeable = False
        object.__setattr__(self, "layers", frozen)
        if not frozen:
            raise ValueError("layers must hold at least the output layer")
        if frozen[0].shape[0] != 2 * self.num_classes + 1:
            raise ValueError("first layer must have 2 * num_classes + 1 rows, the last its bias")
        for i in range(1, len(frozen)):
            if frozen[i].shape[0] != frozen[i - 1].shape[1] + 1:
                raise ValueError(f"layer {i} must have {frozen[i - 1].shape[1] + 1} rows, one per "
                                 f"output of layer {i - 1} and the bias, got {frozen[i].shape[0]}")
        if frozen[-1].shape[1] != 1:
            raise ValueError("output layer must have a single unit")


def _layer_init(stream: RngStream, fan_in: int, fan_out: int, gain: float) -> np.ndarray:
    # symmetric uniform; gain 6 keeps variance flat through a ReLU stack,
    # gain 3 is the linear-output choice; the bias row starts at zero. Drawn
    # in float64, rounded once to the float32 the MLP trains in
    bound = np.sqrt(gain / fan_in)
    layer = np.zeros((fan_in + 1, fan_out), dtype=np.float32)
    layer[:-1] = ((stream.uniforms(fan_in * fan_out) * 2.0 - 1.0) * bound).reshape(fan_in, fan_out)
    return layer


def _init_layers(cfg: AttackClassifierConfig, num_classes: int):
    sizes = [2 * num_classes] + [cfg.hidden_width] * cfg.hidden_layers + [1]
    last = len(sizes) - 2
    return [
        _layer_init(RngStream(cfg.seed, i), sizes[i], sizes[i + 1], 3.0 if i == last else 6.0)
        for i in range(len(sizes) - 1)
    ]


def _blocks(x: np.ndarray) -> np.ndarray:
    """The rows of x as (blocks, rows, width + 1) float32 record blocks: a
    trailing ones column carries each layer's bias, and the last block is
    padded with zero-feature rows."""
    n, width = x.shape
    count = -(-n // _BLOCK_ROWS)
    rows = -(-n // count)
    flat = np.ones((count * rows, width + 1), dtype=np.float32)
    flat[:n, :-1] = x
    flat[n:, :-1] = 0.0
    return flat.reshape(count, rows, width + 1)


def _activations(layers, x: np.ndarray) -> list[np.ndarray]:
    """One (blocks, rows, width + 1) buffer per hidden layer, its ones column
    set, then one (blocks, rows, 1) buffer for the output logits."""
    return ([np.ones((*x.shape[:2], w.shape[1] + 1), dtype=np.float32) for w in layers[:-1]]
            + [np.empty((*x.shape[:2], 1), dtype=np.float32)])


def _forward(layers, x: np.ndarray, acts, masks=None) -> np.ndarray:
    """Output logits of the MLP on the record blocks x, flattened in record
    order with the padding rows last. Each layer is one (in + 1, out) matrix
    whose last row is the bias; each hidden layer's ReLU activation is
    written before the ones column of its buffer in acts, and, when masks
    is given, its a > 0 into the same-shaped bool buffer in masks. The
    logits are a view of the last buffer in acts."""
    h = x
    for i, (w, a) in enumerate(zip(layers[:-1], acts)):
        np.matmul(h, w, out=a[..., :-1])
        np.maximum(a, 0.0, out=a)
        if masks is not None:
            np.greater(a, 0.0, out=masks[i])
        h = a
    return np.matmul(h, layers[-1], out=acts[-1]).reshape(-1)


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
    theta: WeightVector,
    omega: WeightVector,
    in_set: Dataset,
    out_set: Dataset,
    pairs: int,
    seed: int,
) -> AttackSet:
    """Balanced attack rows as one AttackSet: the model's [output vector |
    one-hot label] on pairs/2 members, then on pairs/2 non-members. The one
    builder of attack rows: the shadow head's for training, the victim's
    for scoring.

    Sampling is seeded and without replacement within each partition.
    """
    check_attack_partitions(in_set, out_set, pairs)
    rows = []
    for dataset, stream_index in ((in_set, _STREAM_IN), (out_set, _STREAM_OUT)):
        picks = RngStream(seed, stream_index).permutation(len(dataset))[:pairs // 2]
        probs = predict_from_representations(omega, encode(theta, dataset.features[picks]))
        if probs.shape[1] != dataset.num_classes:
            raise ValueError("model output width does not match the dataset's num_classes")
        rows.append(np.hstack([probs, one_hot(dataset.labels[picks], dataset.num_classes)]))
    return AttackSet(np.concatenate(rows), np.repeat([1, 0], pairs // 2), in_set.num_classes)


def train_attack_classifier(records: AttackSet, cfg: AttackClassifierConfig) -> AttackClassifier:
    """Full-batch gradient descent on binary cross-entropy, one step per epoch.

    Input is the batch's feature rows, each an output vector and its one-hot
    label; hidden stack is cfg.hidden_layers ReLU layers of
    cfg.hidden_width; output is one sigmoid unit. The rows run as
    ceil(n / 125) equal blocks, the last padded with rows whose gradient is
    0. Every array an epoch works in is allocated once, before the first:
    the forward pass takes the ReLU masks, and the input gradients are
    products against a contiguous copy of each layer's w[:-1].T.
    Deterministic given cfg.seed, on any BLAS thread count. Raises
    ValueError at the first non-finite logit of a diverging run.
    """
    if not len(records):
        raise ValueError("no attack records given")
    if len(np.unique(records.membership)) != 2:
        raise ValueError("attack training set must contain both members and non-members")

    x, y = _blocks(records.features), records.membership.astype(np.float32)
    layers = _init_layers(cfg, records.num_classes)
    n = len(records)
    # float32 scalars keep every product float32 under both numpy 1.x
    # value-based casting and numpy 2 promotion
    lr = np.float32(cfg.learning_rate)
    inv_n = np.float32(1.0 / n)
    acts = _activations(layers, x)
    inputs = [x] + acts[:-1]
    masks = [np.empty(a.shape, dtype=bool) for a in acts[:-1]]
    # reused buffers: each layer's per-block gradients, its summed step and
    # its contiguous w[:-1].T copy in turn, and two input gradients that
    # alternate down the stack
    largest = max(w.size for w in layers)
    grad_buf = np.empty(len(x) * largest, dtype=np.float32)
    step_buf = np.empty(largest, dtype=np.float32)
    wt_buf = np.empty(largest, dtype=np.float32)
    g_bufs = [np.empty(acts[0][..., :-1].shape, dtype=np.float32) for _ in range(2)]
    # the padding rows' output gradient stays 0, so they add exact zeros
    g_out = np.zeros((*x.shape[:2], 1), dtype=np.float32)
    g_logits = g_out.reshape(-1)[:n]
    for _ in range(cfg.epochs):
        logits = _forward(layers, x, acts, masks)[:n]
        # d(BCE)/d(logit) for sigmoid output; logistic_cdf evaluates in
        # float64, raises on a non-finite logit and is rounded to float32
        np.copyto(g_logits, logistic_cdf(logits), casting="same_kind")
        g_logits -= y
        g_logits *= inv_n
        g = g_out
        # output layer down: each layer hands on its input gradient, masked
        # where its input's ReLU was 0, before its in-place update
        for i in range(len(layers) - 1, -1, -1):
            w, h = layers[i], inputs[i]
            gw = grad_buf[:len(x) * w.size].reshape(len(x), *w.shape)
            if i:  # layer 0's input gradient has no use
                wt = wt_buf[:w[:-1].size].reshape(w.shape[1], -1)
                np.copyto(wt, w[:-1].T)
                g_below = g_bufs[i % 2]
                # the 1-wide output layer's is a broadcast multiply: on the
                # sweep's (8, 125, 1) @ (1, 64) float32 product, np.matmul
                # gives the same bytes but took about 100 us a call against
                # 38 us (Xeon, 2 vCPUs, numpy 2.4), some 5% of an epoch
                if g.shape[-1] == 1:
                    np.multiply(g, wt, out=g_below)
                else:
                    np.matmul(g, wt, out=g_below)
                g_below *= masks[i - 1][..., :-1]
            # one weight-and-bias gradient per block, added in block order
            np.matmul(h.swapaxes(1, 2), g, out=gw)
            step = step_buf[:w.size].reshape(w.shape)
            gw.sum(axis=0, out=step)
            step *= lr
            w -= step
            g = g_below
    return AttackClassifier(tuple(layers), records.num_classes)


def attack_accuracy(
    classifier: AttackClassifier,
    victim: ProtectedModel,
    members: Dataset,
    nonmembers: Dataset,
    use_protected_outputs: int,
    seed: int,
) -> float:
    """Score the classifier against the victim on a balanced evaluation set.

    The set is the victim's AttackSet from build_attack_dataset, the
    builder of the classifier's training rows, and the classifier is scored
    against its membership. Victim outputs come from
    omega_noisy when use_protected_outputs is 1 and omega_clean otherwise.
    Unequal sets are subsampled (seeded, without replacement) down to the
    smaller size so 0.5 stays the guessing baseline.
    """
    if check_int(use_protected_outputs, "use_protected_outputs", low=None) not in (0, 1):
        raise ValueError(f"use_protected_outputs must be 0 or 1, got {use_protected_outputs}")
    if len(members) == 0 or len(nonmembers) == 0:
        raise ValueError("evaluation sets must be nonempty")
    size = min(len(members), len(nonmembers))
    omega = victim.omega_noisy if use_protected_outputs else victim.omega_clean
    rows = build_attack_dataset(victim.theta, omega, members, nonmembers, 2 * size, seed)
    if rows.num_classes != classifier.num_classes:
        raise ValueError("victim output width does not match the classifier")
    x = _blocks(rows.features)
    logits = _forward(classifier.layers, x, _activations(classifier.layers, x))[:2 * size]
    return float(np.mean((logistic_cdf(logits) >= 0.5) == rows.membership))
