"""Deterministic desk-scale training pipeline.

A one-hidden-layer encoder is pretrained on a self-supervised pseudo-label
task (predict which seeded signed coordinate permutation was applied to the
input), then a bias-free linear softmax head is fit on the frozen encoder's
outputs by full-batch gradient descent. Every training step is an explicit
numpy expression over seeded draws, so identical inputs give bitwise-identical
weights; the sensitivity sampler depends on that. Softmax logits are laid out
class-major, (classes, records), because numpy reduces a short contiguous
class axis one record at a time but reduces across rows in a few vectorised
passes. The class sum is numpy's own over that axis, so classes add in index
order, ((z0 + z1) + z2) + ..., except for a single record, whose classes form
one contiguous run that numpy sums pairwise (the same order below 8 classes).
Every head, the full one too, is fit on an index array of the split's
rows, and equal-size ones train together through one loop as a (heads,
classes, records) stack; batched matmul makes the same BLAS call for each
head as a fit on its own, so each head keeps its bytes. Stacks of up to 16
heads train on one worker thread per usable CPU, in the same bytes.

The encoder nonlinearity is sinh: odd and unbounded, it stretches the scale
spectrum of the representations, so different records tolerate very different
amounts of weight noise. That gives weight perturbation studies a wide, smooth
utility transition instead of a single cliff.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, check_float, check_int, check_int_array, check_list, check_seed
from .weights import WeightVector, make_tag, parse_tag

# Pseudo-label task size: the identity plus three seeded transformations.
PSEUDO_TASK_CLASSES = 4

_STREAM_INIT = 0
_STREAM_TASK = 1


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for either training stage.

    hidden_dims feeds the encoder, whose one entry is the hidden width; the
    head ignores it. epochs must be >= 1; learning_rate=0 is allowed, and a
    fit at it returns its initialization. weight_decay adds
    lr * weight_decay * w to each update (an L2 pull toward zero); it damps
    how far any single record can drag the trained weights.
    """

    hidden_dims: tuple[int, ...] = (8,)
    epochs: int = 200
    learning_rate: float = 0.5
    seed: int = 0
    init_scale: float = 0.1
    weight_decay: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(
            check_int(h, "hidden_dims", 1) for h in check_list(self.hidden_dims, "hidden_dims")))
        check_int(self.epochs, "epochs", 1)
        check_seed(self.seed)
        check_float(self.learning_rate, "learning_rate", at_least=0)
        check_float(self.init_scale, "init_scale", above=0)
        check_float(self.weight_decay, "weight_decay", at_least=0)


@dataclass(frozen=True)
class Dataset:
    """Ordered feature/label arrays; order is part of the dataset's identity."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        f = np.array(self.features, dtype=np.float64, copy=True)
        y = check_int_array(self.labels, "labels")
        if f.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {f.shape}")
        if y.shape != (f.shape[0],):
            raise ValueError("labels must be one per record")
        if not np.all(np.isfinite(f)):
            raise ValueError("features must be finite")
        check_int(self.num_classes, "num_classes", 1)
        if y.size and (y.min() < 0 or y.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")
        f.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def subset(self, indices) -> "Dataset":
        idx = check_int_array(indices, "indices")
        outside = idx[(idx < 0) | (idx >= len(self))]
        if outside.size:
            raise IndexError(f"record index {outside[0]} out of range")
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)

    def without_index(self, i: int) -> "Dataset":
        if not 0 <= check_int(i, "record index", low=None) < len(self):
            raise IndexError(f"record index {i} out of range")
        keep = np.concatenate([np.arange(i), np.arange(i + 1, len(self))])
        return self.subset(keep)


def load_dataset_csv(path, num_classes: int | None = None) -> Dataset:
    """Header row ending in a label column, then one record per row. A row
    whose field count differs from the header's, with a non-numeric or
    non-finite feature, or with a label that is not an integer in
    [0, num_classes) (or >= 0 when num_classes is None), raises ValueError
    naming path:line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "label":
            raise ValueError(f"not a dataset CSV (missing label column): {path}")
        feats, labels = [], []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: expected {len(header)} fields, got {len(row)}")
            try:
                feat = [float(v) for v in row[:-1]]
                label = int(row[-1])
            except ValueError:
                raise ValueError(f"{where}: features must be numbers and the label an "
                                 f"integer, got {row}") from None
            if not all(math.isfinite(v) for v in feat):
                raise ValueError(f"{where}: features must be finite, got {row}")
            if label < 0 or (num_classes is not None and label >= num_classes):
                bound = "" if num_classes is None else f" and < num_classes {num_classes}"
                raise ValueError(f"{where}: label must be >= 0{bound}, got {label}")
            feats.append(feat)
            labels.append(label)
    if not feats:
        raise ValueError(f"dataset CSV has no records: {path}")
    y = np.array(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(y.max()) + 1
    return Dataset(np.array(feats, dtype=np.float64), y, num_classes)


# Total width, in octaves, of the per-class tightness ladder below.
_SPREAD_LADDER_OCTAVES = 2.0


def class_spread_factors(num_classes: int) -> np.ndarray:
    """Per-class multipliers on cluster_spread, a geometric ladder around 1.

    Classes range from half to double the nominal spread (2 octaves total),
    so decision margins cover a range of scales instead of one shared one.
    A single class gets factor 1.
    """
    if num_classes == 1:
        return np.ones(1)
    t = np.arange(num_classes) / (num_classes - 1)
    return 2.0 ** (_SPREAD_LADDER_OCTAVES * (t - 0.5))


def make_synthetic_dataset(
    num_classes: int, per_class: int, feature_dim: int, cluster_spread: float, seed: int
) -> Dataset:
    """Gaussian class clusters with seeded centers, shuffled into one set.

    Centers are standard-normal draws; each record is its class center plus
    class-scaled cluster_spread times standard-normal noise. Per-class scale
    factors follow class_spread_factors, so some classes are tight and some
    diffuse around the same nominal spread.
    """
    check_int(num_classes, "num_classes", 1)
    check_int(per_class, "per_class", 1)
    check_int(feature_dim, "feature_dim", 1)
    check_float(cluster_spread, "cluster_spread", at_least=0)
    from .noise import sample_gaussian

    centers = sample_gaussian(RngStream(seed, 0), 1.0, num_classes * feature_dim)
    centers = centers.reshape(num_classes, feature_dim)
    n = num_classes * per_class
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    jitter = sample_gaussian(RngStream(seed, 1), 1.0, n * feature_dim).reshape(n, feature_dim)
    spread = cluster_spread * class_spread_factors(num_classes)
    features = centers[labels] + spread[labels, None] * jitter
    order = RngStream(seed, 2).permutation(n)
    return Dataset(features[order], labels[order], num_classes)


def one_hot(labels, num_classes: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    out = np.zeros((y.size, num_classes))
    out[np.arange(y.size), y] = 1.0
    return out


def _softmax_inplace(z: np.ndarray) -> np.ndarray:
    """Softmax over the class axis (-2) of a contiguous (..., classes, n)
    array, in place."""
    z -= z.max(axis=-2, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-2, keepdims=True)
    return z


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax of (n, classes) logits, computed class-major."""
    return _softmax_inplace(logits.T.copy()).T


def _cross_entropy(logits_t: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of contiguous class-major (classes, n) logits."""
    z = logits_t - logits_t.max(axis=0)
    picked = z[labels, np.arange(len(labels))]
    np.exp(z, out=z)
    return float(np.mean(np.log(z.sum(axis=0)) - picked))


def _uniform_init(stream: RngStream, count: int, init_scale: float) -> np.ndarray:
    return (2.0 * stream.uniforms(count) - 1.0) * init_scale


def _pseudo_task_transforms(feature_dim: int, seed: int):
    """Identity plus PSEUDO_TASK_CLASSES-1 seeded signed coordinate permutations."""
    stream = RngStream(seed, _STREAM_TASK)
    u = stream.uniforms(2 * (PSEUDO_TASK_CLASSES - 1) * feature_dim)
    perms = [np.arange(feature_dim)]
    signs = [np.ones(feature_dim)]
    pos = 0
    for _ in range(PSEUDO_TASK_CLASSES - 1):
        perms.append(np.argsort(u[pos : pos + feature_dim], kind="stable"))
        pos += feature_dim
        signs.append(np.where(u[pos : pos + feature_dim] < 0.5, -1.0, 1.0))
        pos += feature_dim
    return perms, signs


def _pseudo_task_data(dataset: Dataset, seed: int):
    perms, signs = _pseudo_task_transforms(dataset.feature_dim, seed)
    xs = [dataset.features[:, perm] * sign for perm, sign in zip(perms, signs)]
    x = np.concatenate(xs, axis=0)
    y = np.repeat(np.arange(PSEUDO_TASK_CLASSES, dtype=np.int64), len(dataset))
    return x, y


def pretrain_encoder(dataset: Dataset, cfg: TrainConfig) -> WeightVector:
    """Train on the pseudo-label task and return the hidden layer.

    Pseudo-labels index which seeded transformation produced each input;
    dataset.labels never enter. The returned vector is the hidden layer's
    weight matrix (row-major) followed by its bias. A non-finite encoder
    (sinh overflow or divergence) raises ValueError.
    """
    if len(dataset) == 0:
        raise ValueError("pretraining dataset is empty")
    if len(cfg.hidden_dims) != 1:
        raise ValueError(f"hidden_dims must hold exactly one encoder width, got {cfg.hidden_dims}")
    d, h, k = dataset.feature_dim, cfg.hidden_dims[0], PSEUDO_TASK_CLASSES
    x, y = _pseudo_task_data(dataset, cfg.seed)
    init = RngStream(cfg.seed, _STREAM_INIT)
    flat = _uniform_init(init, d * h + h + h * k + k, cfg.init_scale)
    w1 = flat[: d * h].reshape(d, h).copy()
    b1 = flat[d * h : d * h + h].copy()
    w2 = flat[d * h + h : d * h + h + h * k].reshape(h, k).copy()
    b2 = flat[d * h + h + h * k :].copy()
    yy = one_hot(y, k)
    n = x.shape[0]
    lr, wd = cfg.learning_rate, cfg.weight_decay
    for _ in range(cfg.epochs):
        pre = x @ w1 + b1
        hidden = np.sinh(pre)
        probs = _softmax(hidden @ w2 + b2)
        g = (probs - yy) / n
        d_hidden = (g @ w2.T) * np.cosh(pre)
        w2 -= lr * (hidden.T @ g + wd * w2)
        b2 -= lr * g.sum(axis=0)
        w1 -= lr * (x.T @ d_hidden + wd * w1)
        b1 -= lr * d_hidden.sum(axis=0)
    values = np.concatenate([w1.ravel(), b1])
    if not np.all(np.isfinite(values)):
        raise ValueError("pretrained encoder is not finite; the encoder overflowed or training diverged")
    return WeightVector(values, make_tag("encoder", **{"in": d, "hidden": h}))


def _unflatten_encoder(theta: WeightVector):
    kind, dims = parse_tag(theta.shape_tag)
    if kind != "encoder" or set(dims) != {"in", "hidden"}:
        raise ValueError(f"not an encoder weight vector: {theta.shape_tag}")
    d, h = dims["in"], dims["hidden"]
    if len(theta) != d * h + h:
        raise ValueError("encoder weight vector length does not match its tag")
    return theta.values[: d * h].reshape(d, h), theta.values[d * h :]


def _unflatten_head(omega: WeightVector):
    kind, dims = parse_tag(omega.shape_tag)
    if kind != "head" or set(dims) != {"in", "classes"}:
        raise ValueError(f"not a head weight vector: {omega.shape_tag}")
    h, c = dims["in"], dims["classes"]
    if len(omega) != h * c:
        raise ValueError("head weight vector length does not match its tag")
    return omega.values.reshape(h, c)


def check_model(theta: WeightVector, omega: WeightVector) -> None:
    """Raises ValueError unless theta is an encoder and omega a head on its
    outputs, each as long as its tag says."""
    hidden = _unflatten_encoder(theta)[1].size
    head_in = _unflatten_head(omega).shape[0]
    if head_in != hidden:
        raise ValueError(f"encoder hidden width {hidden} does not match head input width {head_in}")


def _as_batch(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ValueError(f"inputs must be 1-D or 2-D, got shape {arr.shape}")


def encode(theta: WeightVector, x):
    """Deterministic forward pass; output width is the encoder hidden width."""
    w1, b1 = _unflatten_encoder(theta)
    batch, single = _as_batch(x)
    if batch.shape[1] != w1.shape[0]:
        raise ValueError(f"input dim {batch.shape[1]} does not match encoder dim {w1.shape[0]}")
    out = np.sinh(batch @ w1 + b1)
    return out[0] if single else out


def predict_from_representations(omega: WeightVector, reps):
    """Softmax head on precomputed representations.

    Raises ValueError rather than return a non-finite probability, which
    the unbounded sinh encoder produces on large enough features.
    """
    w = _unflatten_head(omega)
    batch, single = _as_batch(reps)
    if batch.shape[1] != w.shape[0]:
        raise ValueError(f"representation dim {batch.shape[1]} does not match head dim {w.shape[0]}")
    probs = _softmax(batch @ w)
    if not np.all(np.isfinite(probs)):
        raise ValueError("model outputs are not finite; the encoder overflowed on these features")
    return probs[0] if single else probs


def predict(theta: WeightVector, omega: WeightVector, x):
    """Probability vector(s) over classes for raw feature input."""
    return predict_from_representations(omega, encode(theta, x))


def _head_init(hidden: int, num_classes: int, cfg: TrainConfig) -> np.ndarray:
    flat = _uniform_init(RngStream(cfg.seed, _STREAM_INIT), hidden * num_classes, cfg.init_scale)
    return flat.reshape(hidden, num_classes).copy()


def _head_tag(hidden: int, num_classes: int) -> str:
    return make_tag("head", **{"in": hidden, "classes": num_classes})


# Heads are fit this many to a stack: long enough stacks to amortise the
# per-step numpy calls, short enough that the (k, classes, records) arrays
# stay small.
_STACK_HEADS = 16


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def finetune_head(theta: WeightVector, dataset: Dataset, cfg: TrainConfig, leave_out=None):
    """Fit the bias-free linear softmax head on encoded features.

    Full-batch gradient descent on mean cross-entropy for cfg.epochs steps
    from a seeded uniform init; the encoder is read, never written.
    cfg.weight_decay adds the usual L2 pull on every step (head_loss and
    head_loss_gradient report the cross-entropy term alone).
    learning_rate 0 returns the initialization exactly. A non-finite head
    (encoder overflow or divergence) raises ValueError.

    With leave_out, a sequence of record indices, returns a tuple of heads
    in that order: head j is byte-equal to finetune_head(theta,
    dataset.without_index(leave_out[j]), cfg). Every head, the full one
    too, trains in a stack of up to 16 row subsets on one worker thread per
    CPU the process may use; the bytes do not depend on the worker count.
    """
    rows = np.arange(len(dataset))
    if leave_out is None:
        return _fit_subsets(theta, dataset, 1, lambda j: rows, cfg)[0]
    indices = [check_int(i, "leave_out", low=None) for i in leave_out]
    for i in indices:
        if not 0 <= i < len(dataset):
            raise IndexError(f"record index {i} out of range")
    return tuple(_fit_subsets(theta, dataset, len(indices), lambda j: np.delete(rows, indices[j]), cfg))


def _fit_subsets(theta: WeightVector, dataset: Dataset, count: int, subset, cfg: TrainConfig) -> list[WeightVector]:
    """count heads in order, head j fit on subset(j), an index array of
    dataset's rows; every subset is one size. The empty check and the seeded
    init draw run here, on the calling thread; the stacks train on the pool,
    each building its own subsets, so a stack's row arrays live only while it
    trains."""
    if not count:
        return []
    if len(subset(0)) == 0:
        raise ValueError("fine-tuning dataset is empty")
    init = _head_init(_unflatten_encoder(theta)[1].size, dataset.num_classes, cfg)

    def fit_stack(start):
        stack = [subset(j) for j in range(start, min(start + _STACK_HEADS, count))]
        reps = np.empty((len(stack), len(stack[0]), init.shape[0]))
        for k, rows in enumerate(stack):
            reps[k] = encode(theta, dataset.features[rows])
        return _fit_heads(reps, dataset.labels[np.stack(stack)], init, cfg)

    starts = range(0, count, _STACK_HEADS)
    with ThreadPoolExecutor(min(len(starts), _usable_cpus())) as pool:
        return [head for heads in pool.map(fit_stack, starts) for head in heads]


def _fit_heads(reps: np.ndarray, labels: np.ndarray, init: np.ndarray, cfg: TrainConfig) -> list[WeightVector]:
    """The head-training loop, run on k same-size training sets at once, given
    as (k, records, hidden) representations, (k, records) labels and one init:
    logits are a (k, classes, records) stack and every step is one batched
    matmul per product, so each head gets the bytes of a fit on its set alone.
    Returns the k heads."""
    k, n, hidden = reps.shape
    c = init.shape[1]
    w = np.repeat(init[None], k, axis=0)
    reps_t = np.ascontiguousarray(reps.swapaxes(1, 2))
    # flat positions of the label entries of z, where the one-hot target is 1
    label_at = ((np.arange(k)[:, None] * c + labels) * n + np.arange(n)).ravel()
    z = np.empty((k, c, n))
    # views fixed for the loop: w and z are updated in place
    w_t, z_t, z_flat = w.swapaxes(1, 2), z.swapaxes(1, 2), z.reshape(-1)
    lr, wd = cfg.learning_rate, cfg.weight_decay
    for _ in range(cfg.epochs):
        np.matmul(w_t, reps_t, out=z)
        _softmax_inplace(z)
        z_flat[label_at] -= 1.0
        w -= lr * ((reps.swapaxes(1, 2) @ z_t) / n + wd * w)
    if not np.all(np.isfinite(w)):
        raise ValueError("fine-tuned head is not finite; the encoder overflowed or training diverged")
    tag = _head_tag(hidden, c)
    return [WeightVector(head.ravel(), tag) for head in w]


def head_loss(theta: WeightVector, dataset: Dataset, omega: WeightVector) -> float:
    """Mean cross-entropy of the head on the dataset."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    w = _unflatten_head(omega)
    logits = encode(theta, dataset.features) @ w
    return _cross_entropy(np.ascontiguousarray(logits.T), dataset.labels)


def head_loss_gradient(theta: WeightVector, dataset: Dataset, omega: WeightVector) -> np.ndarray:
    """Analytic gradient of head_loss in omega's flat layout, the same bytes
    as the cross-entropy term of a finetune_head step at omega."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    w = _unflatten_head(omega)
    reps = encode(theta, dataset.features)
    g = _softmax(reps @ w) - one_hot(dataset.labels, dataset.num_classes)
    return ((reps.T @ g) / len(dataset)).ravel()


def accuracy(predictions, labels) -> float:
    """Fraction of argmax matches; argmax ties resolve to the lowest class."""
    probs = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError("need a nonempty batch of probability vectors")
    if probs.shape[0] != y.size:
        raise ValueError("predictions and labels must have equal length")
    return float(np.mean(np.argmax(probs, axis=1) == y))
