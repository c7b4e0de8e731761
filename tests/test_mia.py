import textwrap

import numpy as np
import pytest

from logidp.mechanisms import MechanismKind, MechanismSpec
from logidp.mia import (
    AttackClassifier,
    AttackClassifierConfig,
    AttackRecord,
    attack_accuracy,
    _forward,
    _init_layers,
    _stack_inputs,
    build_attack_dataset,
    train_attack_classifier,
)
from logidp.pipeline import Dataset, TrainConfig, make_synthetic_dataset, pretrain_encoder, finetune_head, predict
from logidp.protection import ProtectedModel, protect_existing
from logidp.weights import WeightVector, make_tag

from blas_threads import stdout_by_thread_count


def confident_record(rng, member, num_classes=4):
    # members: 0.9 on the true class; non-members: 0.2 (clear separation)
    label = np.zeros(num_classes)
    k = rng.integers(num_classes)
    label[k] = 1.0
    conf = 0.9 if member else 0.2
    out = np.full(num_classes, (1 - conf) / (num_classes - 1))
    out[k] = conf
    return AttackRecord(out, label, int(member))


def records_accuracy(classifier, records) -> float:
    """Accuracy of the classifier on the records, scored by attack_accuracy.

    The victim's encoder and head are identity matrices, so its output on a
    feature row arcsinh(log p) is softmax(log p) = p, each record's own
    output vector.
    """
    c = records[0].num_classes
    eye = np.eye(c)
    theta = WeightVector(np.concatenate([eye.ravel(), np.zeros(c)]), make_tag("encoder", **{"in": c, "hidden": c}))
    omega = WeightVector(eye.ravel(), make_tag("head", **{"in": c, "classes": c}))
    victim = ProtectedModel(theta, omega, omega, MechanismSpec(MechanismKind.LOGISTIC, 1.0), 0)

    def as_dataset(membership):
        rows = [r for r in records if r.membership == membership]
        features = np.arcsinh(np.log([r.output_vector for r in rows]))
        return Dataset(features, [int(np.argmax(r.label_onehot)) for r in rows], c)

    return attack_accuracy(classifier, victim, as_dataset(1), as_dataset(0), 0, 0)


def random_records(count, num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    eye = np.eye(num_classes)
    return [
        AttackRecord(rng.dirichlet(np.full(num_classes, 0.5)), eye[rng.integers(num_classes)], i % 2)
        for i in range(count)
    ]


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_train(records, cfg):
    """The allocating full-batch trainer that train_attack_classifier must
    match bit for bit: fresh float32 arrays every epoch, pre-activations
    kept for the ReLU mask, and an input gradient at every layer. The
    sigmoid is evaluated in float64 and rounded to float32."""

    def forward(layers, x):
        pre_acts = []
        h = x
        for w, b in layers[:-1]:
            z = h @ w + b
            pre_acts.append((h, z))
            h = np.maximum(z, 0.0)
        w, b = layers[-1]
        logits = (h @ w + b).ravel()
        return pre_acts, h, logits

    x, y = (a.astype(np.float32) for a in _stack_inputs(records))
    layers = _init_layers(cfg, records[0].num_classes)
    n = len(records)
    lr = np.float32(cfg.learning_rate)
    inv_n = np.float32(1.0 / n)
    for _ in range(cfg.epochs):
        pre_acts, h_last, logits = forward(layers, x)
        g = (_sigmoid(logits.astype(np.float64)).astype(np.float32) - y).reshape(-1, 1) * inv_n
        w_out, b_out = layers[-1]
        grad_h = g @ w_out.T
        layers[-1] = (w_out - lr * (h_last.T @ g), b_out - lr * g.sum(axis=0))
        for i in range(len(layers) - 2, -1, -1):
            h_in, z = pre_acts[i]
            gz = grad_h * (z > 0)
            w, b = layers[i]
            grad_h = gz @ w.T
            layers[i] = (w - lr * (h_in.T @ gz), b - lr * gz.sum(axis=0))
    return layers


def layer_bytes(layers) -> bytes:
    return b"".join(w.tobytes() + b.tobytes() for w, b in layers)


@pytest.fixture(scope="module")
def separable_records():
    rng = np.random.default_rng(0)
    return [confident_record(rng, i % 2 == 0) for i in range(200)]


@pytest.fixture(scope="module")
def shadow_setup():
    full = make_synthetic_dataset(10, 60, 32, 1.0, 42)
    pre = full.subset(range(0, 300))
    vic_in = full.subset(range(300, 350))
    vic_out = full.subset(range(350, 400))
    sh_in = full.subset(range(400, 450))
    sh_out = full.subset(range(450, 500))
    theta = pretrain_encoder(
        pre, TrainConfig(hidden_dims=(16,), epochs=200, learning_rate=0.1, init_scale=0.05, seed=101)
    )
    omega_victim = finetune_head(theta, vic_in, TrainConfig(epochs=3000, learning_rate=0.5, seed=5))
    omega_shadow = finetune_head(theta, sh_in, TrainConfig(epochs=3000, learning_rate=0.5, seed=6))
    return theta, omega_victim, omega_shadow, vic_in, vic_out, sh_in, sh_out


class TestAttackRecord:
    def test_output_must_sum_to_one(self):
        with pytest.raises(ValueError):
            AttackRecord(np.array([0.5, 0.4]), np.array([1.0, 0.0]), 1)

    def test_label_must_be_one_hot(self):
        with pytest.raises(ValueError):
            AttackRecord(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 1)
        with pytest.raises(ValueError):
            AttackRecord(np.array([0.5, 0.5]), np.array([0.0, 0.0]), 1)

    def test_membership_is_a_bit(self):
        with pytest.raises(ValueError):
            AttackRecord(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 2)

    def test_nonfinite_output_rejected(self):
        with pytest.raises(ValueError):
            AttackRecord(np.array([np.nan, 1.0]), np.array([1.0, 0.0]), 1)
        with pytest.raises(ValueError):
            AttackRecord(np.array([np.inf, 0.0]), np.array([1.0, 0.0]), 1)

    def test_arrays_read_only(self):
        r = AttackRecord(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0)
        with pytest.raises(ValueError):
            r.output_vector[0] = 0.9


class TestBuildAttackDataset:
    def test_two_pairs_gives_one_of_each(self, shadow_setup):
        theta, _, omega_shadow, _, _, sh_in, sh_out = shadow_setup
        records = build_attack_dataset(theta, omega_shadow, sh_in, sh_out, 2, 7)
        assert sorted(r.membership for r in records) == [0, 1]

    def test_balance_invariant(self, shadow_setup):
        theta, _, omega_shadow, _, _, sh_in, sh_out = shadow_setup
        records = build_attack_dataset(theta, omega_shadow, sh_in, sh_out, 60, 7)
        assert sum(r.membership for r in records) == 30
        assert len(records) == 60

    def test_same_seed_identical(self, shadow_setup):
        theta, _, omega_shadow, _, _, sh_in, sh_out = shadow_setup
        a = build_attack_dataset(theta, omega_shadow, sh_in, sh_out, 40, 9)
        b = build_attack_dataset(theta, omega_shadow, sh_in, sh_out, 40, 9)
        assert all(
            np.array_equal(x.output_vector, y.output_vector) and x.membership == y.membership
            for x, y in zip(a, b)
        )

    def test_different_seed_differs(self, shadow_setup):
        theta, _, omega_shadow, _, _, sh_in, sh_out = shadow_setup
        a = build_attack_dataset(theta, omega_shadow, sh_in, sh_out, 40, 9)
        b = build_attack_dataset(theta, omega_shadow, sh_in, sh_out, 40, 10)
        assert any(
            not np.array_equal(x.output_vector, y.output_vector) for x, y in zip(a, b)
        )

    def test_without_replacement_uses_each_record_once(self, shadow_setup):
        theta, _, omega_shadow, _, _, sh_in, sh_out = shadow_setup
        records = build_attack_dataset(theta, omega_shadow, sh_in, sh_out, 2 * len(sh_in), 3)
        members = [r for r in records if r.membership == 1]
        outs = {tuple(np.round(r.output_vector, 12)) for r in members}
        assert len(outs) == len(sh_in)

    def test_insufficient_records_error(self, shadow_setup):
        theta, _, omega_shadow, _, _, sh_in, sh_out = shadow_setup
        with pytest.raises(ValueError):
            build_attack_dataset(theta, omega_shadow, sh_in, sh_out, 2 * len(sh_in) + 2, 3)

    def test_odd_pairs_error(self, shadow_setup):
        theta, _, omega_shadow, _, _, sh_in, sh_out = shadow_setup
        with pytest.raises(ValueError):
            build_attack_dataset(theta, omega_shadow, sh_in, sh_out, 3, 3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_shadow_outputs_rejected(self, shadow_setup):
        # features this large overflow the sinh encoder into NaN outputs
        theta, _, omega_shadow, _, _, sh_in, sh_out = shadow_setup
        huge = Dataset(sh_in.features * 1e5, sh_in.labels, sh_in.num_classes)
        with pytest.raises(ValueError, match="not finite"):
            build_attack_dataset(theta, omega_shadow, huge, sh_out, 10, 3)

    def test_outputs_come_from_the_shadow_model(self, shadow_setup):
        theta, _, omega_shadow, _, _, sh_in, sh_out = shadow_setup
        records = build_attack_dataset(theta, omega_shadow, sh_in, sh_out, 2 * len(sh_in), 3)
        member_outs = {tuple(np.round(r.output_vector, 10)) for r in records if r.membership}
        expect = {
            tuple(np.round(predict(theta, omega_shadow, x), 10)) for x in sh_in.features
        }
        assert member_outs == expect


@pytest.fixture(scope="module")
def thread_digests():
    """threads -> SHA-256 of the layers from train_attack_classifier and from
    reference_train, each trained in a fresh process at the benchmark's
    attack shape: 1000 records through 5 x 64 hidden units, large enough
    for OpenBLAS to split the matmuls over threads."""
    return stdout_by_thread_count(textwrap.dedent("""
        import hashlib
        from test_mia import layer_bytes, random_records, reference_train
        from logidp.mia import AttackClassifierConfig, train_attack_classifier
        records = random_records(1000, num_classes=10)
        cfg = AttackClassifierConfig(epochs=20, seed=4)
        for layers in (train_attack_classifier(records, cfg).layers, reference_train(records, cfg)):
            print(hashlib.sha256(layer_bytes(layers)).hexdigest())
    """))


class TestTrainAttackClassifier:
    def test_separable_records_reach_perfect_training_accuracy(self, separable_records):
        cfg = AttackClassifierConfig(epochs=1500, seed=7)
        clf = train_attack_classifier(separable_records, cfg)
        assert records_accuracy(clf, separable_records) == 1.0

    def test_zero_epochs_leaves_seeded_initialization(self, separable_records):
        cfg = AttackClassifierConfig(epochs=0, seed=21)
        a = train_attack_classifier(separable_records, cfg)
        b = train_attack_classifier(separable_records[:10], cfg)
        # training data cannot matter at zero epochs
        assert all(
            np.array_equal(wa, wb) and np.array_equal(ba, bb)
            for (wa, ba), (wb, bb) in zip(a.layers, b.layers)
        )

    def test_deterministic_given_seed(self, separable_records):
        cfg = AttackClassifierConfig(epochs=50, seed=3)
        a = train_attack_classifier(separable_records, cfg)
        b = train_attack_classifier(separable_records, cfg)
        assert all(
            np.array_equal(wa, wb) and np.array_equal(ba, bb)
            for (wa, ba), (wb, bb) in zip(a.layers, b.layers)
        )

    def test_permuted_memberships_score_at_chance_on_held_out(self):
        # memberships reassigned by coin flip: no signal to learn
        rng = np.random.default_rng(3)
        base = [confident_record(rng, i % 2 == 0) for i in range(800)]
        perm = rng.permutation(800)
        shuffled = [
            AttackRecord(base[i].output_vector, base[i].label_onehot, int(j % 2 == 0))
            for j, i in enumerate(perm)
        ]
        train, held = shuffled[:400], shuffled[400:]
        clf = train_attack_classifier(train, AttackClassifierConfig(epochs=600, seed=11))
        assert abs(records_accuracy(clf, held) - 0.5) <= 0.05

    @pytest.mark.parametrize(
        "hidden_layers,hidden_width,epochs", [(1, 8, 25), (3, 16, 25), (5, 64, 10), (5, 64, 0)]
    )
    def test_layers_byte_equal_to_reference_trainer(self, hidden_layers, hidden_width, epochs):
        records = random_records(240, seed=hidden_layers)
        cfg = AttackClassifierConfig(
            epochs=epochs, seed=9, hidden_layers=hidden_layers, hidden_width=hidden_width,
            learning_rate=0.05,
        )
        clf = train_attack_classifier(records, cfg)
        assert layer_bytes(clf.layers) == layer_bytes(reference_train(records, cfg))

    def test_matches_reference_trainer_under_each_blas_thread_count(self, thread_digests):
        for threads, (trained, reference) in thread_digests.items():
            assert len(trained) == 64 and trained == reference, threads

    @pytest.mark.xfail(
        strict=True,
        reason="OpenBLAS reduces the float32 (64 x 1000) @ (1000 x 64) weight "
        "gradient in a different order on 1 and 2 threads, so the layers differ "
        "in the last bits; the sweep report does not (TestSweep in test_cli.py)",
    )
    def test_layers_identical_across_blas_thread_counts(self, thread_digests):
        assert thread_digests["1"][0] == thread_digests["2"][0]

    def test_trains_and_scores_in_float32(self, separable_records, monkeypatch):
        passes = []

        def recording_forward(layers, x, acts):
            passes.append({x.dtype, *(a.dtype for a in acts), *(p.dtype for layer in layers for p in layer)})
            return _forward(layers, x, acts)

        monkeypatch.setattr("logidp.mia._forward", recording_forward)
        clf = train_attack_classifier(separable_records, AttackClassifierConfig(epochs=3, seed=2))
        records_accuracy(clf, separable_records)
        assert len(passes) == 4  # three training epochs, one scoring pass
        assert all(dtypes == {np.dtype(np.float32)} for dtypes in passes)
        assert all(p.dtype == np.float32 for layer in constant_classifier(4, 0.0).layers for p in layer)

    def test_diverging_run_raises_instead_of_returning_nan_layers(self):
        cfg = AttackClassifierConfig(epochs=50, seed=9, learning_rate=1e200)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
            train_attack_classifier(random_records(240), cfg)

    def test_single_class_error(self, separable_records):
        members = [r for r in separable_records if r.membership == 1]
        with pytest.raises(ValueError):
            train_attack_classifier(members, AttackClassifierConfig(epochs=1, seed=0))

    def test_empty_error(self):
        with pytest.raises(ValueError):
            train_attack_classifier([], AttackClassifierConfig(epochs=1, seed=0))

    def test_architecture_matches_config(self, separable_records):
        cfg = AttackClassifierConfig(epochs=0, seed=1, hidden_layers=3, hidden_width=16)
        clf = train_attack_classifier(separable_records, cfg)
        shapes = [w.shape for w, _ in clf.layers]
        assert shapes == [(8, 16), (16, 16), (16, 16), (16, 1)]


def constant_classifier(num_classes: int, logit: float) -> AttackClassifier:
    width = 4
    layers = [
        (np.zeros((2 * num_classes, width)), np.zeros(width)),
        (np.zeros((width, 1)), np.full(1, logit)),
    ]
    return AttackClassifier(tuple(layers), num_classes)


class TestAttackAccuracy:
    def test_constant_predictor_scores_half_on_balanced_sets(self, shadow_setup):
        theta, omega_victim, *_ , vic_in, vic_out, _, _ = (
            shadow_setup[0], shadow_setup[1], shadow_setup[2],
            shadow_setup[3], shadow_setup[4], shadow_setup[5], shadow_setup[6],
        )
        victim = protect_existing(theta, omega_victim, MechanismSpec(MechanismKind.LOGISTIC, 1.0), 9)
        clf = constant_classifier(vic_in.num_classes, 1e-6)
        acc = attack_accuracy(clf, victim, vic_in, vic_out, 0, 5)
        assert acc == 0.5

    def test_empty_sets_error(self, shadow_setup):
        theta, omega_victim, _, vic_in, *_ = shadow_setup
        victim = protect_existing(theta, omega_victim, MechanismSpec(MechanismKind.LOGISTIC, 1.0), 9)
        clf = constant_classifier(vic_in.num_classes, 1e-6)
        empty = vic_in.subset([])
        with pytest.raises(ValueError):
            attack_accuracy(clf, victim, empty, vic_in, 0, 5)
        with pytest.raises(ValueError):
            attack_accuracy(clf, victim, vic_in, empty, 0, 5)

    def test_overfit_victim_leaks_membership(self, shadow_setup):
        theta, omega_victim, omega_shadow, vic_in, vic_out, sh_in, sh_out = shadow_setup
        # confidence gap precondition: members are held with much higher
        # true-class probability than fresh records
        from logidp.pipeline import encode, predict_from_representations

        def true_class_prob(ds):
            p = predict_from_representations(omega_victim, encode(theta, ds.features))
            return float(p[np.arange(len(ds)), ds.labels].mean())

        gap = true_class_prob(vic_in) - true_class_prob(vic_out)
        assert gap > 0.2

        records = build_attack_dataset(theta, omega_shadow, sh_in, sh_out, 100, 77)
        clf = train_attack_classifier(
            records, AttackClassifierConfig(epochs=2000, seed=7, learning_rate=0.01)
        )
        victim = protect_existing(theta, omega_victim, MechanismSpec(MechanismKind.LOGISTIC, 1.0), 9)
        acc = attack_accuracy(clf, victim, vic_in.subset(range(25)), vic_out.subset(range(25)), 0, 1)
        assert acc > 0.55

    def test_protected_path_ignores_clean_head(self, shadow_setup):
        theta, omega_victim, _, vic_in, vic_out, *_ = shadow_setup
        base = protect_existing(theta, omega_victim, MechanismSpec(MechanismKind.LOGISTIC, 1.0), 9)
        sabotaged = ProtectedModel(
            theta,
            WeightVector(np.full(len(omega_victim), np.nan), omega_victim.shape_tag),
            base.omega_noisy,
            base.spec,
            base.noise_seed,
        )
        clf = constant_classifier(vic_in.num_classes, 1e-6)
        acc = attack_accuracy(clf, sabotaged, vic_in, vic_out, 1, 5)
        assert np.isfinite(acc)

    def test_deterministic_given_seed(self, shadow_setup):
        theta, omega_victim, omega_shadow, vic_in, vic_out, sh_in, sh_out = shadow_setup
        records = build_attack_dataset(theta, omega_shadow, sh_in, sh_out, 60, 4)
        clf = train_attack_classifier(records, AttackClassifierConfig(epochs=200, seed=8))
        victim = protect_existing(theta, omega_victim, MechanismSpec(MechanismKind.LOGISTIC, 0.2), 9)
        a = attack_accuracy(clf, victim, vic_in, vic_out, 1, 5)
        b = attack_accuracy(clf, victim, vic_in, vic_out, 1, 5)
        assert a == b

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_victim_outputs_rejected(self, shadow_setup):
        theta, omega_victim, _, vic_in, vic_out, *_ = shadow_setup
        victim = protect_existing(theta, omega_victim, MechanismSpec(MechanismKind.LOGISTIC, 1.0), 9)
        clf = constant_classifier(vic_in.num_classes, 1e-6)
        huge = Dataset(vic_out.features * 1e5, vic_out.labels, vic_out.num_classes)
        for use_protected_outputs in (0, 1):
            with pytest.raises(ValueError, match="not finite"):
                attack_accuracy(clf, victim, vic_in, huge, use_protected_outputs, 5)

    def test_unequal_sets_are_subsampled_to_balance(self, shadow_setup):
        theta, omega_victim, _, vic_in, vic_out, *_ = shadow_setup
        victim = protect_existing(theta, omega_victim, MechanismSpec(MechanismKind.LOGISTIC, 1.0), 9)
        clf = constant_classifier(vic_in.num_classes, 1e-6)
        acc = attack_accuracy(clf, victim, vic_in.subset(range(10)), vic_out, 0, 5)
        assert acc == 0.5


class TestScores:
    def test_width_mismatch_rejected(self, separable_records, shadow_setup):
        theta, omega_victim, _, vic_in, vic_out, *_ = shadow_setup
        clf = train_attack_classifier(separable_records, AttackClassifierConfig(epochs=1, seed=2))
        victim = protect_existing(theta, omega_victim, MechanismSpec(MechanismKind.LOGISTIC, 1.0), 9)
        assert vic_in.num_classes != clf.num_classes
        with pytest.raises(ValueError):
            attack_accuracy(clf, victim, vic_in, vic_out, 0, 5)
