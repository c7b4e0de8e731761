import re
import textwrap

import numpy as np
import pytest

from logidp.mechanisms import MechanismKind, MechanismSpec
from logidp.mia import (
    AttackClassifier,
    AttackClassifierConfig,
    AttackRecord,
    attack_accuracy,
    _activations,
    _blocks,
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
    """An allocating oracle of the blocked trainer that train_attack_classifier
    must match bit for bit. The records are cut into ceil(n / 125) blocks of
    equal rows, the last padded with zero-feature rows whose output gradient
    is 0. Each epoch walks the blocks in a Python loop with 2-D matmuls on
    fresh arrays: every layer input gets a separate ones column and every
    layer is one (in + 1, out) matrix whose last row is the bias, the
    pre-activations are kept for the ReLU mask, and the blocks' weight
    gradients are added in block order. The sigmoid is evaluated in float64
    and rounded to float32."""
    x, y = (a.astype(np.float32) for a in _stack_inputs(records))
    n = len(records)
    count = -(-n // 125)
    rows = -(-n // count)
    x = np.vstack([x, np.zeros((count * rows - n, x.shape[1]), dtype=np.float32)])
    ones = np.ones((rows, 1), dtype=np.float32)
    layers = _init_layers(cfg, records[0].num_classes)
    lr = np.float32(cfg.learning_rate)
    inv_n = np.float32(1.0 / n)
    for _ in range(cfg.epochs):
        inputs, pre_acts = [], []  # per layer, one array per block
        hs = np.split(x, count)
        for w in layers:
            inputs.append([np.hstack([h, ones]) for h in hs])
            pre_acts.append([h1 @ w for h1 in inputs[-1]])
            hs = [np.maximum(z, 0.0) for z in pre_acts[-1]]
        logits = np.concatenate(pre_acts[-1]).ravel()[:n]
        g = (_sigmoid(logits.astype(np.float64)).astype(np.float32) - y) * inv_n
        gs = np.split(np.concatenate([g, np.zeros(count * rows - n, dtype=np.float32)]).reshape(-1, 1), count)
        for i in range(len(layers) - 1, -1, -1):
            w = layers[i]
            total = inputs[i][0].T @ gs[0]
            for h1, gb in zip(inputs[i][1:], gs[1:]):
                total = total + h1.T @ gb
            if i:
                gs = [(gb @ w[:-1].T) * (z > 0) for gb, z in zip(gs, pre_acts[i - 1])]
            layers[i] = w - lr * total
    return layers


def layer_bytes(layers) -> bytes:
    # a C-contiguous (in + 1, out) matrix's bytes are its weights', then its bias's
    return b"".join(w.tobytes() for w in layers)


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

    @pytest.mark.parametrize("bad, message", [
        (True, "membership must be an integer, got True"),
        (1.0, "membership must be an integer, got 1.0"),
    ])
    def test_membership_is_an_integer_bit(self, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AttackRecord(np.array([0.5, 0.5]), np.array([1.0, 0.0]), bad)
        assert AttackRecord(np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.int64(1)).membership == 1

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
    """threads -> record count -> SHA-256 of the layers from
    train_attack_classifier and from reference_train, each trained in a
    fresh process at the benchmark's attack shape: 1000 or 1002 records
    through 5 x 64 hidden units. Whole, those records' products are large
    enough for OpenBLAS to split over threads; as 8 blocks of 125, or 9
    blocks of 112 with 6 padding rows, each block's products run on the
    calling thread."""
    digests = stdout_by_thread_count(textwrap.dedent("""
        import hashlib
        from test_mia import layer_bytes, random_records, reference_train
        from logidp.mia import AttackClassifierConfig, train_attack_classifier
        cfg = AttackClassifierConfig(epochs=20, seed=4)
        for count in (1000, 1002):
            records = random_records(count, num_classes=10)
            print(count, *(hashlib.sha256(layer_bytes(layers)).hexdigest()
                            for layers in (train_attack_classifier(records, cfg).layers,
                                           reference_train(records, cfg))))
    """))
    return {threads: {int(out[k]): out[k + 1:k + 3] for k in range(0, len(out), 3)}
            for threads, out in digests.items()}


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
        assert all(np.array_equal(wa, wb) for wa, wb in zip(a.layers, b.layers))

    def test_deterministic_given_seed(self, separable_records):
        cfg = AttackClassifierConfig(epochs=50, seed=3)
        a = train_attack_classifier(separable_records, cfg)
        b = train_attack_classifier(separable_records, cfg)
        assert all(np.array_equal(wa, wb) for wa, wb in zip(a.layers, b.layers))

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
        "hidden_layers,hidden_width,epochs,count",
        # 240 records are 2 blocks of 120; 1002 are 9 blocks of 112 with 6 padding rows
        [(1, 8, 25, 240), (3, 16, 25, 240), (5, 64, 10, 240), (5, 64, 0, 240),
         (3, 16, 25, 1002), (5, 64, 10, 1002)],
    )
    def test_layers_byte_equal_to_reference_trainer(self, hidden_layers, hidden_width, epochs, count):
        records = random_records(count, seed=hidden_layers)
        cfg = AttackClassifierConfig(
            epochs=epochs, seed=9, hidden_layers=hidden_layers, hidden_width=hidden_width,
            learning_rate=0.05,
        )
        clf = train_attack_classifier(records, cfg)
        assert layer_bytes(clf.layers) == layer_bytes(reference_train(records, cfg))

    def test_matches_reference_trainer_under_each_blas_thread_count(self, thread_digests):
        for threads, by_count in thread_digests.items():
            assert sorted(by_count) == [1000, 1002], threads
            for count, (trained, reference) in by_count.items():
                assert len(trained) == 64 and trained == reference, (threads, count)

    def test_layers_identical_across_blas_thread_counts(self, thread_digests):
        assert thread_digests["1"] == thread_digests["2"]

    def test_trains_and_scores_in_float32(self, separable_records, monkeypatch):
        passes = []

        def recording_forward(layers, x, acts, masks=None):
            passes.append(({x.dtype, *(a.dtype for a in acts), *(w.dtype for w in layers)}, masks is not None))
            return _forward(layers, x, acts, masks)

        monkeypatch.setattr("logidp.mia._forward", recording_forward)
        clf = train_attack_classifier(separable_records, AttackClassifierConfig(epochs=3, seed=2))
        records_accuracy(clf, separable_records)
        # three training epochs take the ReLU masks, one scoring pass does not
        assert [masked for _, masked in passes] == [True, True, True, False]
        assert all(dtypes == {np.dtype(np.float32)} for dtypes, _ in passes)
        assert all(w.dtype == np.float32 for w in constant_classifier(4, 0.0).layers)

    def test_forward_pass_takes_each_hidden_layers_relu_mask(self):
        layers = _init_layers(AttackClassifierConfig(epochs=0, seed=3), 4)
        x = _blocks(_stack_inputs(random_records(240))[0])
        acts = _activations(layers, x)
        masks = [np.zeros(a.shape, dtype=bool) for a in acts[:-1]]  # the last buffer holds the logits
        logits = _forward(layers, x, acts, masks)
        for a, m in zip(acts, masks):
            assert np.array_equal(m, a > 0)
            assert m[..., -1].all() and 0 < m[..., :-1].mean() < 1  # ones column, then a real mask
        # without masks, the scoring pass, it writes the same logits and activations
        unmasked_acts = _activations(layers, x)
        assert np.array_equal(_forward(layers, x, unmasked_acts), logits)
        assert all(np.array_equal(a, b) for a, b in zip(unmasked_acts, acts))

    def test_diverging_run_raises_instead_of_returning_nan_layers(self):
        cfg = AttackClassifierConfig(epochs=50, seed=9, learning_rate=1e30)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
            train_attack_classifier(random_records(240), cfg)

    @pytest.mark.parametrize("lr, rule", [
        (1e-50, "above 0 in float32, got 1e-50"),  # rounds to a float32 0: no step would be taken
        (1e39, "<= 3.4028234663852886e+38, got 1e+39"),  # overflows the float32 cast
    ])
    def test_learning_rate_must_survive_the_float32_cast(self, lr, rule):
        with pytest.raises(ValueError, match=f"^learning_rate must be {re.escape(rule)}$"):
            AttackClassifierConfig(epochs=1, seed=0, learning_rate=lr)
        smallest = float(np.finfo(np.float32).smallest_subnormal)
        assert AttackClassifierConfig(epochs=1, seed=0, learning_rate=smallest).learning_rate == smallest

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
        shapes = [w.shape for w in clf.layers]
        assert shapes == [(9, 16), (17, 16), (17, 16), (17, 1)]


def constant_classifier(num_classes: int, logit: float) -> AttackClassifier:
    # zero weights; the output layer's bias row carries the logit
    width = 4
    output = np.zeros((width + 1, 1))
    output[-1] = logit
    return AttackClassifier((np.zeros((2 * num_classes + 1, width)), output), num_classes)


class TestAttackClassifier:
    def test_layers_are_read_only_float32_copies(self):
        first = np.zeros((9, 4))
        clf = AttackClassifier((first, np.zeros((5, 1))), 4)
        first[0, 0] = 1.0
        assert all(w.dtype == np.float32 and not w.flags.writeable for w in clf.layers)
        assert clf.layers[0][0, 0] == 0.0

    def test_first_layer_without_bias_row_rejected(self):
        with pytest.raises(ValueError, match="2 \\* num_classes \\+ 1 rows"):
            AttackClassifier((np.zeros((8, 4)), np.zeros((5, 1))), 4)

    def test_layers_that_do_not_chain_rejected(self):
        with pytest.raises(ValueError, match="^layer 1 must have 5 rows, one per output of layer 0 "
                                             "and the bias, got 6$"):
            AttackClassifier((np.zeros((9, 4)), np.zeros((6, 1))), 4)

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError, match="^layers must hold at least the output layer$"):
            AttackClassifier((), 4)

    def test_output_layer_wider_than_one_unit_rejected(self):
        with pytest.raises(ValueError, match="single unit"):
            AttackClassifier((np.zeros((9, 4)), np.zeros((5, 2))), 4)


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

    @pytest.mark.parametrize("bad, message", [
        (2, "must be 0 or 1, got 2"), (-1, "must be 0 or 1, got -1"),
        (True, "must be an integer, got True"), ("no", "must be an integer, got 'no'"),
        (0.0, "must be an integer, got 0.0"), (None, "must be an integer, got None"),
    ])
    def test_use_protected_outputs_is_an_integer_bit(self, shadow_setup, bad, message):
        theta, omega_victim, _, vic_in, vic_out, *_ = shadow_setup
        victim = protect_existing(theta, omega_victim, MechanismSpec(MechanismKind.LOGISTIC, 1.0), 9)
        clf = constant_classifier(vic_in.num_classes, 1e-6)
        with pytest.raises(ValueError, match=f"^use_protected_outputs {re.escape(message)}$"):
            attack_accuracy(clf, victim, vic_in, vic_out, bad, 5)

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
