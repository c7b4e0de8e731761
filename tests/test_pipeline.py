import tempfile
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import logidp.pipeline
from logidp.pipeline import (
    Dataset,
    PSEUDO_TASK_CLASSES,
    TrainConfig,
    _STREAM_INIT,
    _cross_entropy,
    _head_init,
    _pseudo_task_data,
    _softmax,
    _softmax_inplace,
    _uniform_init,
    accuracy,
    encode,
    finetune_head,
    head_loss,
    head_loss_gradient,
    load_dataset_csv,
    make_synthetic_dataset,
    one_hot,
    predict,
    predict_from_representations,
    pretrain_encoder,
)
from logidp.rng import RngStream
from logidp.weights import WeightVector

from blas_threads import stdout_by_thread_count
from dataset_csv import save_dataset_csv


# Reference trainers: the row-major (records x classes) softmax, loss, head
# loop and pseudo-task loop that the class-major pipeline must match bit for
# bit.


def reference_class_sum(e: np.ndarray) -> np.ndarray:
    """Per-record sums of (records, classes) values, classes added in index
    order. A single record's classes are one contiguous run, which numpy
    sums pairwise whatever the layout, so that record's sum is numpy's."""
    if len(e) == 1:
        return e.sum(axis=1)
    s = e[:, 0].copy()
    for j in range(1, e.shape[1]):
        s += e[:, j]
    return s


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / reference_class_sum(e)[:, None]


def reference_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(reference_class_sum(np.exp(z)))
    return float(np.mean(logsumexp - z[np.arange(len(labels)), labels]))


def reference_finetune_head(theta, dataset, cfg):
    """Head weights and the loss before each step plus after the last."""
    reps = encode(theta, dataset.features)
    n, hidden = reps.shape
    c = dataset.num_classes
    w = _head_init(hidden, c, cfg)
    yy = one_hot(dataset.labels, c)
    lr, wd = cfg.learning_rate, cfg.weight_decay
    losses = []
    for _ in range(cfg.epochs):
        logits = reps @ w
        losses.append(reference_cross_entropy(logits, dataset.labels))
        w -= lr * ((reps.T @ (reference_softmax(logits) - yy)) / n + wd * w)
    losses.append(reference_cross_entropy(reps @ w, dataset.labels))
    return w.ravel(), np.array(losses)


def reference_pseudo_task_network(dataset, cfg):
    """The full pretraining network (w1, b1, w2, b2) and its task data (x, y)."""
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
        probs = reference_softmax(hidden @ w2 + b2)
        g = (probs - yy) / n
        d_hidden = (g @ w2.T) * np.cosh(pre)
        w2 -= lr * (hidden.T @ g + wd * w2)
        b2 -= lr * g.sum(axis=0)
        w1 -= lr * (x.T @ d_hidden + wd * w1)
        b1 -= lr * d_hidden.sum(axis=0)
    return w1, b1, w2, b2, x, y


def reference_pretrain(dataset, cfg) -> np.ndarray:
    """The encoder values pretrain_encoder returns: w1 row-major, then b1."""
    w1, b1, *_ = reference_pseudo_task_network(dataset, cfg)
    return np.concatenate([w1.ravel(), b1])


@pytest.fixture(scope="module")
def ten_class():
    return make_synthetic_dataset(10, 50, 32, 0.5, 3)


@pytest.fixture(scope="module")
def trained(ten_class):
    theta = pretrain_encoder(
        ten_class, TrainConfig(hidden_dims=(8,), epochs=200, learning_rate=0.1, init_scale=0.05, seed=11)
    )
    omega = finetune_head(theta, ten_class, TrainConfig(epochs=300, learning_rate=0.5, seed=5))
    return theta, omega


class TestDataset:
    def test_basic_shape(self):
        d = Dataset(np.zeros((3, 4)), [0, 1, 0], 2)
        assert len(d) == 3 and d.feature_dim == 4

    def test_arrays_are_read_only(self):
        d = Dataset(np.zeros((2, 2)), [0, 0], 1)
        with pytest.raises(ValueError):
            d.features[0, 0] = 1.0

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), [0, 2], 2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 2)), [-1], 2)

    @pytest.mark.parametrize("labels", [[0.7, 1.9], [True, False], np.array([0.0, 1.0])])
    def test_rejects_labels_that_are_not_integers(self, labels):
        with pytest.raises(ValueError, match=r"^labels must be integers, got dtype (float64|bool)$"):
            Dataset(np.zeros((2, 3)), labels, 3)

    def test_integer_and_empty_labels_accepted(self):
        assert Dataset(np.zeros((2, 3)), np.array([2, 0], dtype=np.uint8), 3).labels.dtype == np.int64
        assert len(Dataset(np.zeros((0, 3)), [], 3)) == 0

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError):
            Dataset([[np.nan, 0.0]], [0], 1)

    def test_without_index_preserves_order(self):
        d = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 2, 3], 4)
        got = d.without_index(1)
        assert got.labels.tolist() == [0, 2, 3]
        assert got.features[1].tolist() == [4.0, 5.0]
        with pytest.raises(IndexError):
            d.without_index(4)

    def test_subset_keeps_requested_order(self):
        d = Dataset(np.arange(6.0).reshape(3, 2), [0, 1, 2], 3)
        assert d.subset([2, 0]).labels.tolist() == [2, 0]
        assert len(d.subset([])) == 0

    @pytest.mark.parametrize("indices, dtype", [([0.5, 1.7], "float64"), ([True, False], "bool")])
    def test_subset_refuses_indices_that_are_not_integers(self, indices, dtype):
        d = Dataset(np.arange(6.0).reshape(3, 2), [0, 1, 2], 3)
        with pytest.raises(ValueError, match=f"^indices must be integers, got dtype {dtype}$"):
            d.subset(indices)

    @pytest.mark.parametrize("index", [-1, 3])
    def test_subset_refuses_indices_out_of_range(self, index):
        d = Dataset(np.arange(6.0).reshape(3, 2), [0, 1, 2], 3)
        with pytest.raises(IndexError, match=f"^record index {index} out of range$"):
            d.subset([0, index])
        assert d.subset(range(3)).labels.tolist() == [0, 1, 2]

    def test_without_index_refuses_a_float(self):
        d = Dataset(np.arange(10.0).reshape(5, 2), [0, 1, 2, 3, 4], 5)
        with pytest.raises(ValueError, match="^record index must be an integer, got 1.5$"):
            d.without_index(1.5)


class TestSyntheticData:
    def test_two_singleton_clusters(self):
        d = make_synthetic_dataset(2, 1, 2, 0.1, seed=7)
        assert len(d) == 2 and sorted(d.labels.tolist()) == [0, 1]

    def test_ten_class_set_is_linearly_separable(self, ten_class):
        d = ten_class
        assert len(d) == 500 and d.feature_dim == 32
        x = np.hstack([d.features, np.ones((len(d), 1))])
        w, *_ = np.linalg.lstsq(x, one_hot(d.labels, 10), rcond=None)
        assert np.mean(np.argmax(x @ w, axis=1) == d.labels) > 0.9

    def test_deterministic_in_seed(self):
        a = make_synthetic_dataset(3, 5, 4, 0.2, 9)
        b = make_synthetic_dataset(3, 5, 4, 0.2, 9)
        c = make_synthetic_dataset(3, 5, 4, 0.2, 10)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_classes_are_balanced(self):
        d = make_synthetic_dataset(4, 7, 3, 1.0, 0)
        assert np.bincount(d.labels).tolist() == [7, 7, 7, 7]

    def test_zero_spread_collapses_clusters(self):
        d = make_synthetic_dataset(2, 3, 5, 0.0, 1)
        for label in (0, 1):
            pts = d.features[d.labels == label]
            assert np.ptp(pts, axis=0).max() == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset(0, 1, 2, 0.1, 0)
        with pytest.raises(ValueError):
            make_synthetic_dataset(2, 1, 2, -0.5, 0)


class TestTrainConfig:
    def test_defaults_are_usable(self):
        cfg = TrainConfig()
        assert cfg.epochs >= 1 and cfg.learning_rate > 0

    def test_zero_epochs_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"^epochs must be >= 1, got 0$"):
            TrainConfig(epochs=0)
        assert TrainConfig(epochs=1, learning_rate=0.0).learning_rate == 0.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(hidden_dims=(0,))
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(init_scale=0.0)


class TestPretraining:
    def test_beats_chance_on_pseudo_task(self, ten_class):
        cfg = TrainConfig(hidden_dims=(8,), epochs=200, learning_rate=0.5, seed=11)
        w1, b1, w2, b2, x, y = reference_pseudo_task_network(ten_class, cfg)
        assert pretrain_encoder(ten_class, cfg).values.tobytes() == np.concatenate([w1.ravel(), b1]).tobytes()
        acc = accuracy(reference_softmax(np.sinh(x @ w1 + b1) @ w2 + b2), y)
        assert acc > 1.0 / PSEUDO_TASK_CLASSES
        assert acc > 0.5

    def test_returns_hidden_layer_shape(self, ten_class):
        theta = pretrain_encoder(ten_class, TrainConfig(hidden_dims=(6,), epochs=2, learning_rate=0.5, seed=1))
        assert theta.shape_tag == "encoder:in=32,hidden=6"
        assert len(theta) == 32 * 6 + 6

    def test_bitwise_deterministic(self, ten_class):
        cfg = TrainConfig(hidden_dims=(5,), epochs=20, learning_rate=0.5, seed=4)
        assert pretrain_encoder(ten_class, cfg) == pretrain_encoder(ten_class, cfg)

    def test_zero_epochs_rejected(self, ten_class):
        with pytest.raises(ValueError):
            pretrain_encoder(ten_class, TrainConfig(epochs=0))

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(ValueError):
            pretrain_encoder(empty, TrainConfig())

    @pytest.mark.parametrize("hidden_dims", [(), (6, 16)])
    def test_exactly_one_hidden_width(self, ten_class, hidden_dims):
        # the encoder has one hidden layer; a second width would be ignored
        with pytest.raises(ValueError, match=r"hidden_dims must hold exactly one encoder width"):
            pretrain_encoder(ten_class, TrainConfig(hidden_dims=hidden_dims, epochs=2, seed=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_encoder_raises(self):
        # features this large overflow sinh, and every encoder weight turns NaN
        data = make_synthetic_dataset(3, 20, 6, 0.5, 17)
        huge = Dataset(data.features * 1e4, data.labels, data.num_classes)
        with pytest.raises(ValueError, match="encoder is not finite.*encoder overflowed"):
            pretrain_encoder(huge, TrainConfig((4,), 20, 0.1, seed=1))

    def test_ignores_true_labels(self, ten_class):
        relabeled = Dataset(ten_class.features, np.zeros(len(ten_class), dtype=np.int64), 10)
        cfg = TrainConfig(hidden_dims=(5,), epochs=10, learning_rate=0.5, seed=4)
        assert pretrain_encoder(ten_class, cfg) == pretrain_encoder(relabeled, cfg)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.03])
    def test_byte_equal_to_reference_trainer(self, ten_class, weight_decay):
        cfg = TrainConfig(
            hidden_dims=(8,), epochs=200, learning_rate=0.1, init_scale=0.05, seed=11,
            weight_decay=weight_decay,
        )
        assert pretrain_encoder(ten_class, cfg).values.tobytes() == reference_pretrain(ten_class, cfg).tobytes()


class TestEncode:
    def test_zero_weights_give_zero_output(self, ten_class):
        zero = WeightVector(np.zeros(32 * 4 + 4), "encoder:in=32,hidden=4")
        out = encode(zero, ten_class.features[:3])
        assert out.shape == (3, 4) and np.all(out == 0.0)

    def test_preactivation_is_affine(self, trained, ten_class):
        theta, _ = trained
        a = np.arcsinh(encode(theta, ten_class.features[0]))
        b = np.arcsinh(encode(theta, 2.0 * ten_class.features[0]))
        zero = np.arcsinh(encode(theta, np.zeros(32)))
        assert np.allclose(b - a, a - zero, atol=1e-12)

    def test_single_and_batch_agree(self, trained, ten_class):
        # not bitwise: the matmul kernel differs between (1,d) and (n,d) shapes
        theta, _ = trained
        batch = encode(theta, ten_class.features[:4])
        assert np.allclose(batch[2], encode(theta, ten_class.features[2]), rtol=1e-14, atol=0)

    def test_dimension_mismatch(self, trained):
        theta, _ = trained
        with pytest.raises(ValueError):
            encode(theta, np.zeros(31))

    def test_output_expands_preactivation(self, trained, ten_class):
        # sinh: odd, sign-preserving, and at least as large as its argument
        theta, _ = trained
        pre = ten_class.features @ theta.values[: 32 * 8].reshape(32, 8) + theta.values[32 * 8 :]
        out = encode(theta, ten_class.features)
        assert np.all(np.sign(out) == np.sign(pre))
        assert np.all(np.abs(out) >= np.abs(pre))


class TestFinetune:
    def test_single_record_memorized(self, trained, ten_class):
        theta, _ = trained
        one = ten_class.subset([0])
        omega = finetune_head(theta, one, TrainConfig(epochs=3000, learning_rate=1.0, seed=2))
        probs = predict(theta, omega, one.features[0])
        assert probs[int(one.labels[0])] > 0.99

    def test_zero_learning_rate_returns_init(self, trained, ten_class):
        theta, _ = trained
        cfg = TrainConfig(epochs=10, learning_rate=0.0, seed=5)
        a = finetune_head(theta, ten_class, cfg)
        b = finetune_head(theta, ten_class.subset(range(50)), cfg)
        # no data dependence without steps, only the seeded init: uniforms
        # from stream 0 of the seed, init_scale wide
        assert a == b
        assert a.values.tobytes() == ((2.0 * RngStream(5, 0).uniforms(len(a)) - 1.0) * cfg.init_scale).tobytes()

    def test_bitwise_deterministic(self, trained, ten_class):
        theta, _ = trained
        cfg = TrainConfig(epochs=40, learning_rate=1.0, seed=5)
        assert finetune_head(theta, ten_class, cfg) == finetune_head(theta, ten_class, cfg)

    def test_fits_training_set(self, trained, ten_class):
        theta, omega = trained
        assert accuracy(predict(theta, omega, ten_class.features), ten_class.labels) > 0.8

    def test_empty_dataset_rejected(self, trained):
        theta, _ = trained
        empty = Dataset(np.zeros((0, 32)), np.zeros(0, dtype=np.int64), 10)
        with pytest.raises(ValueError):
            finetune_head(theta, empty, TrainConfig())

    def test_zero_epochs_rejected(self, trained, ten_class):
        theta, _ = trained
        with pytest.raises(ValueError):
            finetune_head(theta, ten_class, TrainConfig(epochs=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_head_raises(self):
        # features this large overflow the sinh encoder, so every step is NaN
        data = make_synthetic_dataset(3, 20, 6, 0.5, 17)
        theta = pretrain_encoder(data, TrainConfig((4,), 20, 0.1, seed=1))
        huge = Dataset(data.features * 1e4, data.labels, data.num_classes)
        with pytest.raises(ValueError, match="head is not finite.*encoder overflowed"):
            finetune_head(theta, huge, TrainConfig(epochs=50, seed=2))

    def test_loss_history_monotone_at_moderate_rate(self, trained, ten_class):
        theta, _ = trained
        fits = [finetune_head(theta, ten_class, TrainConfig(epochs=e, learning_rate=0.05, seed=5)) for e in range(1, 51)]
        losses = [head_loss(theta, ten_class, omega) for omega in fits]
        assert np.all(np.diff(losses) <= 0)

    # one record sums its classes pairwise from 8 classes up, 420 records
    # in index order
    @pytest.mark.parametrize("num_classes", [1, 4, 7, 8, 10, 16, 17, 25])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.03])
    @pytest.mark.parametrize("records", [1, 420])
    def test_byte_equal_to_reference_trainer(self, trained, num_classes, weight_decay, records):
        theta, _ = trained
        per_class = -(-records // num_classes)
        data = make_synthetic_dataset(num_classes, per_class, 32, 1.0, num_classes).subset(range(records))
        cfg = TrainConfig(epochs=40, learning_rate=0.5, seed=5, weight_decay=weight_decay)
        want, want_losses = reference_finetune_head(theta, data, cfg)
        omega = finetune_head(theta, data, cfg)
        assert omega.values.tobytes() == want.tobytes()
        assert head_loss(theta, data, omega) == want_losses[-1]
        reps = encode(theta, data.features)
        g = reference_softmax(reps @ omega.values.reshape(8, -1)) - one_hot(data.labels, num_classes)
        assert head_loss_gradient(theta, data, omega).tobytes() == ((reps.T @ g) / records).ravel().tobytes()


class TestLeaveOneOutHeads:
    @settings(max_examples=60, deadline=None)
    @given(
        # two records leave one-record heads, whose class sums are pairwise;
        # 128+ classes split past numpy's pairwise block
        classes=st.one_of(st.integers(1, 40), st.sampled_from([128, 129, 136])),
        records=st.integers(2, 40),
        weight_decay=st.sampled_from([0.0, 0.03]),
        # one chunk of 16 heads, and one, two or three chunks with a remainder
        count=st.sampled_from([1, 16, 17, 33]),
        data=st.data(),
    )
    def test_byte_equal_to_looped_fits(self, trained, classes, records, weight_decay, count, data):
        theta, _ = trained
        per_class = -(-records // classes)
        d = make_synthetic_dataset(classes, per_class, 32, 1.0, classes).subset(range(records))
        idx = data.draw(st.lists(st.integers(0, records - 1), min_size=count, max_size=count))
        cfg = TrainConfig(epochs=20, learning_rate=0.5, seed=5, weight_decay=weight_decay)
        heads = finetune_head(theta, d, cfg, leave_out=idx)
        assert isinstance(heads, tuple) and len(heads) == count
        for i, head in zip(idx, heads):
            alone = finetune_head(theta, d.without_index(i), cfg)
            assert head.shape_tag == alone.shape_tag
            assert head.values.tobytes() == alone.values.tobytes()

    def test_repeated_index_gives_the_same_head(self, trained, ten_class):
        theta, _ = trained
        cfg = TrainConfig(epochs=30, learning_rate=0.5, seed=5, weight_decay=0.03)
        heads = finetune_head(theta, ten_class, cfg, leave_out=[7, 499, 7, 0])
        assert heads[0] == heads[2] and heads[0] != heads[1]
        assert heads[1] == finetune_head(theta, ten_class.without_index(499), cfg)

    def test_no_indices_fit_no_heads(self, trained, ten_class):
        theta, _ = trained
        assert finetune_head(theta, ten_class, TrainConfig(epochs=5), leave_out=[]) == ()

    def test_heads_train_on_row_indices_not_dataset_copies(self, trained, ten_class, monkeypatch):
        theta, _ = trained
        built, check = [], Dataset.__post_init__

        def counting(self):
            built.append(len(self))
            check(self)

        monkeypatch.setattr(Dataset, "__post_init__", counting)
        cfg = TrainConfig(epochs=5, seed=5)
        finetune_head(theta, ten_class, cfg)
        finetune_head(theta, ten_class, cfg, leave_out=range(40))
        assert built == []
        ten_class.without_index(0)  # the counter sees a copy
        assert built == [len(ten_class) - 1]

    def test_errors(self, trained, ten_class):
        theta, _ = trained
        cfg = TrainConfig(epochs=5, seed=5)
        for bad in ([0, len(ten_class)], [-1]):
            with pytest.raises(IndexError, match="out of range"):
                finetune_head(theta, ten_class, cfg, leave_out=bad)
        # leaving out the only record leaves nothing to fit
        with pytest.raises(ValueError, match="empty"):
            finetune_head(theta, ten_class.subset([0]), cfg, leave_out=[0])
        with pytest.raises(ValueError, match="epochs"):
            finetune_head(theta, ten_class, TrainConfig(epochs=0), leave_out=[0])
        with pytest.raises(ValueError, match="^leave_out must be an integer, got 1.5$"):
            finetune_head(theta, ten_class, cfg, leave_out=[1.5])


class TestLeaveOneOutWorkers:
    """Leave-one-out chunks run on a thread pool sized by the usable CPUs."""

    @pytest.fixture()
    def fit_threads(self, monkeypatch):
        """Thread ids of the head-training loops run during the test."""
        threads, loop = [], logidp.pipeline._fit_heads

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return loop(*args, **kwargs)

        monkeypatch.setattr(logidp.pipeline, "_fit_heads", recording)
        return threads

    def test_bytes_do_not_depend_on_worker_count(self, trained, ten_class, monkeypatch, fit_threads):
        theta, _ = trained
        cfg = TrainConfig(epochs=20, learning_rate=0.5, seed=5, weight_decay=0.03)
        looped = tuple(finetune_head(theta, ten_class.without_index(i), cfg) for i in range(40))
        full = reference_finetune_head(theta, ten_class, cfg)[0]
        for cpus in (1, 2, 3):
            monkeypatch.setattr(logidp.pipeline, "_usable_cpus", lambda: cpus)
            fit_threads.clear()
            assert finetune_head(theta, ten_class, cfg).values.tobytes() == full.tobytes(), cpus
            # the full head is one stack of one head, on a pool worker
            assert len(fit_threads) == 1 and threading.get_ident() not in fit_threads
            fit_threads.clear()
            heads = finetune_head(theta, ten_class, cfg, leave_out=range(40))
            assert [h.values.tobytes() for h in heads] == [h.values.tobytes() for h in looped], cpus
            # three chunks of 16, 16 and 8 heads, each on a pool worker
            assert len(fit_threads) == 3 and threading.get_ident() not in fit_threads
            assert 1 <= len(set(fit_threads)) <= cpus

    def test_draws_stay_on_the_calling_thread(self, trained, ten_class, monkeypatch):
        theta, _ = trained
        draws, uniforms = [], RngStream.uniforms

        def recording(self, n):
            draws.append(threading.get_ident())
            return uniforms(self, n)

        monkeypatch.setattr(RngStream, "uniforms", recording)
        monkeypatch.setattr(logidp.pipeline, "_usable_cpus", lambda: 3)
        cfg = TrainConfig(epochs=5, seed=5)
        for leave_out in (range(40), range(40), None):
            draws.clear()
            finetune_head(theta, ten_class, cfg, leave_out=leave_out)
            assert draws == [threading.get_ident()]

    def test_each_stack_builds_its_own_row_arrays(self, trained, ten_class, monkeypatch):
        # 217 heads over 500 records: built all at once, their row arrays
        # would hold 217 x 499 indices, 0.83 MiB, until the call returned
        theta, _ = trained
        monkeypatch.setattr(logidp.pipeline, "_usable_cpus", lambda: 1)
        cfg = TrainConfig(epochs=2, seed=5)

        def peak(count):
            tracemalloc.start()
            try:
                finetune_head(theta, ten_class, cfg, leave_out=range(count))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_stack = peak(16)
        assert peak(217) - one_stack < 217 * (len(ten_class) - 1) * 8 / 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # the overflow data of TestFinetune.test_nonfinite_head_raises
        data = make_synthetic_dataset(3, 20, 6, 0.5, 17)
        theta = pretrain_encoder(data, TrainConfig((4,), 20, 0.1, seed=1))
        huge = Dataset(data.features * 1e4, data.labels, data.num_classes)
        monkeypatch.setattr(logidp.pipeline, "_usable_cpus", lambda: 3)
        before = threading.active_count()
        with pytest.raises(ValueError, match="fine-tuned head is not finite.*encoder overflowed"):
            finetune_head(theta, huge, TrainConfig(epochs=50, seed=2), leave_out=range(40))
        assert threading.active_count() == before

    def test_bad_index_raises_before_any_worker(self, trained, ten_class, monkeypatch):
        theta, _ = trained

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(logidp.pipeline, "ThreadPoolExecutor", no_pool)
        for bad in ([*range(20), len(ten_class)], [*range(20), -1]):
            with pytest.raises(IndexError, match="out of range"):
                finetune_head(theta, ten_class, TrainConfig(epochs=5, seed=5), leave_out=bad)
        with pytest.raises(ValueError, match="empty"):
            finetune_head(theta, ten_class.subset([0]), TrainConfig(epochs=5), leave_out=[0] * 20)


@pytest.fixture(scope="module")
def thread_digests():
    """threads -> SHA-256 of the encoder from pretrain_encoder and from
    reference_pretrain, of the head from finetune_head and from
    reference_finetune_head, then of 20 leave-one-out heads fit batched and
    looped, each run in a fresh process at the benchmark's shapes: 2000
    pretraining records (8000 pseudo-task rows) through 4 hidden units, a
    10-class head on 500 records for 300 epochs."""
    return stdout_by_thread_count(textwrap.dedent("""
        import hashlib
        import numpy as np
        from test_pipeline import reference_finetune_head, reference_pretrain
        from logidp.pipeline import TrainConfig, finetune_head, make_synthetic_dataset, pretrain_encoder
        full = make_synthetic_dataset(10, 250, 32, 1.0, 126)
        pre, tune = full.subset(range(2000)), full.subset(range(2000, 2500))
        pre_cfg = TrainConfig(hidden_dims=(4,), epochs=50, learning_rate=0.1, init_scale=0.05, seed=101)
        tune_cfg = TrainConfig(epochs=300, learning_rate=0.5, weight_decay=0.03, seed=202)
        theta = pretrain_encoder(pre, pre_cfg)
        dropped = range(0, 500, 26)
        batched = finetune_head(theta, tune, tune_cfg, leave_out=dropped)
        looped = [finetune_head(theta, tune.without_index(i), tune_cfg) for i in dropped]
        for values in (
            theta.values, reference_pretrain(pre, pre_cfg),
            finetune_head(theta, tune, tune_cfg).values, reference_finetune_head(theta, tune, tune_cfg)[0],
            np.concatenate([h.values for h in batched]), np.concatenate([h.values for h in looped]),
        ):
            print(hashlib.sha256(values.tobytes()).hexdigest())
    """))


@pytest.fixture(scope="module")
def concurrent_chunk_digests():
    """threads -> SHA-256 of 40 leave-one-out heads fit in one call, three
    chunks on two pool workers, then of the same heads fit one by one, each
    run in a fresh process at the shapes of thread_digests."""
    return stdout_by_thread_count(textwrap.dedent("""
        import hashlib
        import numpy as np
        import logidp.pipeline
        from logidp.pipeline import TrainConfig, finetune_head, make_synthetic_dataset, pretrain_encoder
        # two workers, so one runs two chunks while the other runs the third
        logidp.pipeline._usable_cpus = lambda: 2
        full = make_synthetic_dataset(10, 250, 32, 1.0, 126)
        pre, tune = full.subset(range(2000)), full.subset(range(2000, 2500))
        theta = pretrain_encoder(pre, TrainConfig(hidden_dims=(4,), epochs=50, learning_rate=0.1, init_scale=0.05, seed=101))
        tune_cfg = TrainConfig(epochs=300, learning_rate=0.5, weight_decay=0.03, seed=202)
        dropped = range(0, 500, 12)[:40]
        batched = finetune_head(theta, tune, tune_cfg, leave_out=dropped)
        looped = [finetune_head(theta, tune.without_index(i), tune_cfg) for i in dropped]
        for heads in (batched, looped):
            print(len(heads), hashlib.sha256(np.concatenate([h.values for h in heads]).tobytes()).hexdigest())
    """))


class TestBlasThreadCounts:
    def test_matches_reference_trainers_under_each_count(self, thread_digests):
        for threads, (encoder, ref_encoder, head, ref_head, *_) in thread_digests.items():
            assert len(encoder) == 64 and encoder == ref_encoder and head == ref_head, threads

    def test_batched_leave_one_out_heads_match_looped_under_each_count(self, thread_digests):
        for threads, digests in thread_digests.items():
            assert len(digests) == 6 and digests[4] == digests[5], threads

    def test_encoder_and_head_identical_across_counts(self, thread_digests):
        assert thread_digests["1"] == thread_digests["2"]

    def test_concurrent_leave_one_out_chunks_match_looped_and_across_counts(self, concurrent_chunk_digests):
        for threads, (count, batched, looped_count, looped) in concurrent_chunk_digests.items():
            assert count == looped_count == "40" and batched == looped, threads
        assert concurrent_chunk_digests["1"] == concurrent_chunk_digests["2"]


class TestClassMajorSoftmax:
    @settings(max_examples=150, deadline=None)
    @given(
        records=st.integers(1, 600),
        # up to 40 classes, plus runs past numpy's 128-value pairwise block
        classes=st.one_of(st.integers(1, 40), st.sampled_from([128, 129, 136, 300])),
        seed=st.integers(0, 2**32 - 1),
        low=st.floats(-12.0, 3.0),
        span=st.floats(0.0, 290.0),
        tie_share=st.floats(0.0, 1.0),
    )
    def test_softmax_and_loss_byte_equal_to_row_major(self, records, classes, seed, low, span, tie_share):
        rng = np.random.default_rng(seed)
        magnitude = 10.0 ** rng.uniform(low, low + span, (records, classes))
        logits = np.where(rng.random((records, classes)) < 0.5, -magnitude, magnitude)
        logits[:, rng.random(classes) < tie_share] = logits[:, [rng.integers(classes)]]
        flat_rows = rng.random(records) < tie_share / 4
        logits[flat_rows] = logits[flat_rows, :1]
        labels = rng.integers(0, classes, records)
        before = logits.tobytes()
        assert _softmax(logits).tobytes() == reference_softmax(logits).tobytes()
        assert logits.tobytes() == before
        assert _cross_entropy(np.ascontiguousarray(logits.T), labels) == reference_cross_entropy(logits, labels)

    @settings(max_examples=100, deadline=None)
    @given(
        heads=st.integers(1, 5),
        records=st.integers(1, 300),
        classes=st.one_of(st.integers(1, 40), st.sampled_from([128, 129, 136, 300])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_softmax_byte_equal_to_reference_per_head(self, heads, records, classes, seed):
        # the (heads, classes, records) softmax that _fit_heads steps on
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(heads, classes, records)) * 10.0 ** rng.uniform(-3.0, 3.0, (heads, classes, records))
        probs = _softmax_inplace(logits.copy())
        for j in range(heads):
            want = reference_softmax(np.ascontiguousarray(logits[j].T))
            assert np.ascontiguousarray(probs[j].T).tobytes() == want.tobytes()


class TestPredict:
    def test_rows_sum_to_one(self, trained, ten_class):
        theta, omega = trained
        probs = predict(theta, omega, ten_class.features)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12

    def test_zero_head_is_exactly_uniform(self, trained, ten_class):
        theta, _ = trained
        zero = WeightVector(np.zeros(8 * 10), "head:in=8,classes=10")
        probs = predict(theta, zero, ten_class.features[:5])
        assert np.all(probs == 0.1)

    def test_logit_shift_invariance(self, trained, ten_class):
        # adding the same constant to every logit leaves softmax unchanged
        theta, omega = trained
        rep = encode(theta, ten_class.features[0])
        w = omega.values.reshape(8, 10)
        shift = np.outer(rep, np.ones(10)) * (7.0 / (rep @ rep))
        shifted = WeightVector((w + shift).ravel(), omega.shape_tag)
        a = predict_from_representations(omega, rep)
        b = predict_from_representations(shifted, rep)
        assert np.allclose(b, a, atol=1e-12)

    def test_representation_path_matches(self, trained, ten_class):
        theta, omega = trained
        reps = encode(theta, ten_class.features[:6])
        assert np.array_equal(
            predict_from_representations(omega, reps), predict(theta, omega, ten_class.features[:6])
        )

    def test_head_dimension_mismatch(self, trained):
        theta, _ = trained
        wrong = WeightVector(np.zeros(7 * 10 + 10), "head:in=7,classes=10")
        with pytest.raises(ValueError):
            predict(theta, wrong, np.zeros(32))

    def test_rejects_wrong_tag_kind(self, trained, ten_class):
        theta, omega = trained
        with pytest.raises(ValueError):
            predict(theta, theta, ten_class.features[0])
        with pytest.raises(ValueError):
            predict(omega, omega, ten_class.features[0])


class TestHeadLossGradient:
    def test_matches_central_differences(self, trained, ten_class):
        theta, omega = trained
        rng = np.random.default_rng(0)
        probes = 0
        for _ in range(10):
            w = WeightVector(rng.normal(size=len(omega)) * 0.3, omega.shape_tag)
            grad = head_loss_gradient(theta, ten_class, w)
            eps = 1e-6
            for idx in rng.choice(len(grad), size=10, replace=False):
                v = w.values.copy()
                v[idx] += eps
                up = head_loss(theta, ten_class, WeightVector(v, w.shape_tag))
                v[idx] -= 2 * eps
                down = head_loss(theta, ten_class, WeightVector(v, w.shape_tag))
                numeric = (up - down) / (2 * eps)
                rel = abs(numeric - grad[idx]) / max(1e-8, abs(numeric), abs(grad[idx]))
                assert rel < 1e-5
                probes += 1
        assert probes == 100

    @pytest.mark.parametrize("weight_decay", [0.0, 0.03])
    def test_one_finetune_epoch_steps_on_this_gradient(self, trained, ten_class, weight_decay):
        theta, _ = trained
        lr = 0.5
        init = finetune_head(theta, ten_class, TrainConfig(epochs=1, learning_rate=0.0, seed=5)).values
        omega = finetune_head(theta, ten_class, TrainConfig(epochs=1, learning_rate=lr, seed=5, weight_decay=weight_decay))
        grad = head_loss_gradient(theta, ten_class, WeightVector(init, omega.shape_tag))
        assert omega.values.tobytes() == (init - lr * (grad + weight_decay * init)).tobytes()

    def test_gradient_zero_at_separable_optimum_direction(self, trained, ten_class):
        # scaling a perfectly-separating head grows confidence, so the loss
        # keeps a negative slope along that ray
        theta, omega = trained
        grad = head_loss_gradient(theta, ten_class, omega)
        slope = float(grad @ omega.values)
        assert slope < 1e-3


class TestAccuracy:
    def test_three_of_four(self):
        probs = one_hot([0, 1, 2, 3], 4)
        assert accuracy(probs, [0, 1, 2, 0]) == 0.75

    def test_argmax_tie_goes_to_lowest_class(self):
        probs = np.array([[0.5, 0.5]])
        assert accuracy(probs, [0]) == 1.0
        assert accuracy(probs, [1]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 3)), [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.eye(3), [0, 1])


class TestOneHot:
    def test_rows_are_unit_mass(self):
        out = one_hot([2, 0], 3)
        assert out.tolist() == [[0, 0, 1], [1, 0, 0]]


class TestDatasetIO:
    def test_csv_round_trip_exact(self, ten_class, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset_csv(ten_class, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.features, ten_class.features)
        assert np.array_equal(back.labels, ten_class.labels)
        assert back.num_classes == 10

    @pytest.mark.parametrize("line, num_classes, message", [
        ("", None, "expected 3 fields, got 0"),
        ("1.0,2.0", None, "expected 3 fields, got 2"),
        ("1.0,2.0,1.0", None, "the label an integer"),
        ("1.0,x,1", None, "features must be numbers"),
        ("1.0,nan,0", None, "features must be finite"),
        ("inf,2.0,0", None, "features must be finite"),
        ("1.0,2.0,-1", None, "label must be >= 0, got -1"),
        ("1.0,2.0,5", 3, "label must be >= 0 and < num_classes 3, got 5"),
    ])
    def test_malformed_row_names_path_and_line(self, tmp_path, line, num_classes, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n{line}\n3.0,4.0,1\n")
        with pytest.raises(ValueError) as info:
            load_dataset_csv(path, num_classes)
        assert str(info.value).startswith(f"{path}:3: ")
        assert message in str(info.value)

    def test_csv_explicit_class_count(self, tmp_path):
        d = Dataset([[1.0, 2.0]], [0], 4)
        path = tmp_path / "one.csv"
        save_dataset_csv(d, path)
        assert load_dataset_csv(path, num_classes=4).num_classes == 4
        assert load_dataset_csv(path).num_classes == 1

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 5)),
        data=st.data(),
    )
    def test_csv_round_trip_is_byte_exact(self, shape, data):
        n, dim = shape
        floats = st.floats(allow_nan=False, allow_infinity=False)
        features = np.array(data.draw(st.lists(floats, min_size=n * dim, max_size=n * dim)))
        num_classes = data.draw(st.integers(1, 6))
        labels = data.draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
        d = Dataset(features.reshape(n, dim), labels, num_classes)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            save_dataset_csv(d, path)
            back = load_dataset_csv(path, num_classes=num_classes)
        assert back.features.tobytes() == d.features.tobytes()
        assert back.labels.tobytes() == d.labels.tobytes()
        assert back.num_classes == num_classes

    def test_csv_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)
