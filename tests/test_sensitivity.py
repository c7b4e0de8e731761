import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import logidp.pipeline
import logidp.sensitivity
from logidp.experiments import _from_json_dict, emit_estimate, estimate_from_json_dict
from logidp.mechanisms import MechanismKind
from logidp.pipeline import Dataset, TrainConfig, make_synthetic_dataset, pretrain_encoder
from logidp.sensitivity import (
    BRUTE_FORCE_MAX_RECORDS,
    SensitivityEstimate,
    brute_force_sensitivity,
    sample_sensitivity,
    sensitivity_index_pairs,
)
from logidp.weights import WeightVector


def mean_trainer(subset: Dataset) -> WeightVector:
    """Coordinate-wise mean of the features; leave-one-out differences have
    the closed form (x_j - x_i) / (n - 1)."""
    return WeightVector(subset.features.mean(axis=0), "head:in=1,classes=1")


def exact_mean_dataset(n: int, dim: int, seed: int) -> Dataset:
    """Integer features that are multiples of n-1, so every mean and every
    closed-form difference is exact in binary floating point."""
    rng = np.random.default_rng(seed)
    feats = (n - 1) * rng.integers(-20, 21, size=(n, dim)).astype(np.float64)
    return Dataset(feats, np.zeros(n, dtype=np.int64), 1)


def closed_form_norms(d: Dataset, pairs: np.ndarray):
    n = len(d)
    out = []
    for i, j in pairs:
        diff = (d.features[int(j)] - d.features[int(i)]) / (n - 1)
        out.append((float(np.abs(diff).sum()), float(np.sqrt(diff @ diff))))
    return out


DUMMY_THETA = WeightVector(np.zeros(0), "encoder:in=0,hidden=0")


@pytest.fixture(scope="module")
def small_real():
    d = make_synthetic_dataset(2, 4, 6, 0.5, 21)
    theta = pretrain_encoder(d, TrainConfig(hidden_dims=(4,), epochs=50, learning_rate=0.05, init_scale=0.05, seed=3))
    cfg = TrainConfig(epochs=60, learning_rate=0.5, seed=9)
    return theta, d, cfg


class TestEstimateType:
    def test_rejects_inconsistent_maxima(self):
        with pytest.raises(ValueError):
            SensitivityEstimate(1.0, 1.0, 1, 0, ((0.5, 0.5),))

    def test_rejects_l2_above_l1(self):
        with pytest.raises(ValueError):
            SensitivityEstimate(1.0, 2.0, 1, 0, ((1.0, 2.0),))

    def test_rejects_wrong_pair_count(self):
        with pytest.raises(ValueError):
            SensitivityEstimate(1.0, 1.0, 3, 0, ((1.0, 1.0),))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite_norms(self, bad):
        # a non-finite pair anywhere must not hide behind a finite max
        refused = f"^per_pair_norms must be a finite number, got {bad}$"
        with pytest.raises(ValueError, match=refused):
            SensitivityEstimate(1.0, 0.5, 2, 0, ((1.0, 0.5), (bad, bad)))
        with pytest.raises(ValueError, match=refused):
            SensitivityEstimate(1.0, 0.5, 2, 0, ((bad, bad), (1.0, 0.5)))
        with pytest.raises(ValueError, match=refused):
            SensitivityEstimate(1.0, 0.5, 2, 0, ((1.0, 0.5), (0.5, bad)))
        # JSON reads NaN and Infinity, so a saved estimate is checked the same way
        doc = {"delta_l1": 1.0, "delta_l2": 0.5, "m": 2, "seed": 0, "per_pair_norms": [[1.0, 0.5], [bad, bad]]}
        with pytest.raises(ValueError, match=refused):
            _from_json_dict(SensitivityEstimate, json.loads(json.dumps(doc)))

    def test_rejects_seed_outside_u64(self):
        with pytest.raises(ValueError, match="^seed must fit in u64, got -1$"):
            SensitivityEstimate(1.0, 1.0, 1, -1, ((1.0, 1.0),))

    def test_accepts_consistent_values(self):
        est = SensitivityEstimate(3.0, 2.0, 2, 7, ((3.0, 2.0), (1.0, 1.0)))
        assert est.delta_l1 == 3.0 and est.m == 2


class TestIndexPairs:
    def test_shape_and_range(self):
        pairs = sensitivity_index_pairs(10, 25, 4)
        assert pairs.shape == (25, 2)
        assert pairs.min() >= 0 and pairs.max() < 10

    def test_prefix_stability(self):
        small = sensitivity_index_pairs(7, 3, 11)
        large = sensitivity_index_pairs(7, 50, 11)
        assert np.array_equal(large[:3], small)

    def test_errors(self):
        with pytest.raises(ValueError):
            sensitivity_index_pairs(1, 5, 0)
        with pytest.raises(ValueError):
            sensitivity_index_pairs(5, 0, 0)


class TestStubTrainerOracle:
    def test_matches_closed_form_exactly(self):
        d = exact_mean_dataset(4, 5, seed=1)
        pairs = sensitivity_index_pairs(4, 12, 3)
        est = sample_sensitivity(DUMMY_THETA, d, TrainConfig(), 12, 3, trainer=mean_trainer)
        expected = closed_form_norms(d, pairs)
        assert list(est.per_pair_norms) == expected
        assert est.delta_l1 == max(l1 for l1, _ in expected)
        assert est.delta_l2 == max(l2 for _, l2 in expected)

    def test_brute_force_matches_closed_form_exactly(self):
        d = exact_mean_dataset(4, 3, seed=2)
        est = brute_force_sensitivity(DUMMY_THETA, d, TrainConfig(), trainer=mean_trainer)
        grid = np.arange(4)
        pairs = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        expected = closed_form_norms(d, pairs)
        assert est.m == 16
        assert list(est.per_pair_norms) == expected
        assert est.delta_l1 == max(l1 for l1, _ in expected)

    def test_same_index_pairs_give_zero(self):
        d = exact_mean_dataset(2, 3, seed=3)
        forced = np.array([[0, 0], [1, 1], [0, 0]])
        est = sample_sensitivity(DUMMY_THETA, d, TrainConfig(), 3, 0, trainer=mean_trainer, pairs=forced)
        assert est.per_pair_norms == ((0.0, 0.0),) * 3
        assert est.delta_l1 == 0.0 and est.delta_l2 == 0.0

    def test_two_record_brute_force_structure(self):
        d = exact_mean_dataset(2, 3, seed=4)
        est = brute_force_sensitivity(DUMMY_THETA, d, TrainConfig(), trainer=mean_trainer)
        assert est.m == 4
        zero_pairs = sum(1 for l1, _ in est.per_pair_norms if l1 == 0.0)
        assert zero_pairs == 2
        diff = d.features[1] - d.features[0]
        assert est.delta_l1 == float(np.abs(diff).sum())


class TestMonotonicityAndBounds:
    def test_nested_m_is_monotone(self):
        d = exact_mean_dataset(6, 4, seed=5)
        one = sample_sensitivity(DUMMY_THETA, d, TrainConfig(), 1, 17, trainer=mean_trainer)
        five = sample_sensitivity(DUMMY_THETA, d, TrainConfig(), 5, 17, trainer=mean_trainer)
        assert five.delta_l1 >= one.delta_l1
        assert five.delta_l2 >= one.delta_l2
        assert five.per_pair_norms[0] == one.per_pair_norms[0]

    def test_sampled_never_exceeds_brute_force_stub(self):
        d = exact_mean_dataset(5, 3, seed=6)
        brute = brute_force_sensitivity(DUMMY_THETA, d, TrainConfig(), trainer=mean_trainer)
        for seed in range(8):
            est = sample_sensitivity(DUMMY_THETA, d, TrainConfig(), 6, seed, trainer=mean_trainer)
            assert est.delta_l1 <= brute.delta_l1
            assert est.delta_l2 <= brute.delta_l2

    def test_sampled_never_exceeds_brute_force_real_trainer(self, small_real):
        theta, d, cfg = small_real
        brute = brute_force_sensitivity(theta, d, cfg)
        for seed in range(5):
            est = sample_sensitivity(theta, d, cfg, 10, seed)
            assert est.delta_l1 <= brute.delta_l1
            assert est.delta_l2 <= brute.delta_l2

    def test_norm_ordering(self, small_real):
        theta, d, cfg = small_real
        est = sample_sensitivity(theta, d, cfg, 8, 2)
        dim = 4 * d.num_classes
        assert est.delta_l2 <= est.delta_l1 <= np.sqrt(dim) * est.delta_l2 + 1e-15

    def test_deterministic_end_to_end(self, small_real):
        theta, d, cfg = small_real
        a = sample_sensitivity(theta, d, cfg, 6, 13)
        b = sample_sensitivity(theta, d, cfg, 6, 13)
        assert a == b
        assert a.per_pair_norms == b.per_pair_norms


class TestTracedFitBoundary:
    """The benchmark's tracer times head fits by wrapping finetune_head where
    sensitivity looks it up; a fit reached any other way would count as the
    sampler's own time."""

    def test_every_fit_goes_through_the_module_lookup(self, small_real, monkeypatch):
        theta, d, cfg = small_real
        fitted, open_calls = [], []
        traced, loop = logidp.sensitivity.finetune_head, logidp.pipeline._fit_heads

        def counting(*args, **kwargs):
            open_calls.append(None)
            try:
                heads = traced(*args, **kwargs)
            finally:
                open_calls.pop()
            fitted.append(len(heads))
            return heads

        def guarded_loop(*args, **kwargs):
            assert open_calls, "a head was trained outside sensitivity.finetune_head"
            return loop(*args, **kwargs)

        monkeypatch.setattr(logidp.sensitivity, "finetune_head", counting)
        monkeypatch.setattr(logidp.pipeline, "_fit_heads", guarded_loop)
        pairs = sensitivity_index_pairs(len(d), 6, 13)
        sample_sensitivity(theta, d, cfg, 6, 13)
        assert fitted == [len(set(pairs.ravel().tolist()))]
        fitted.clear()
        brute_force_sensitivity(theta, d, cfg)
        assert fitted == [len(d)]


class TestErrors:
    def test_sample_needs_two_records(self):
        d = exact_mean_dataset(2, 2, 0).subset([0])
        with pytest.raises(ValueError):
            sample_sensitivity(DUMMY_THETA, d, TrainConfig(), 3, 0, trainer=mean_trainer)

    def test_sample_needs_positive_m(self):
        d = exact_mean_dataset(3, 2, 0)
        with pytest.raises(ValueError):
            sample_sensitivity(DUMMY_THETA, d, TrainConfig(), 0, 0, trainer=mean_trainer)

    def test_brute_force_guard(self):
        d = exact_mean_dataset(BRUTE_FORCE_MAX_RECORDS + 1, 2, 0)
        with pytest.raises(ValueError):
            brute_force_sensitivity(DUMMY_THETA, d, TrainConfig(), trainer=mean_trainer)

    def test_injected_pairs_validated(self):
        d = exact_mean_dataset(3, 2, 0)
        with pytest.raises(ValueError):
            sample_sensitivity(DUMMY_THETA, d, TrainConfig(), 2, 0, trainer=mean_trainer,
                               pairs=np.array([[0, 3], [1, 1]]))
        with pytest.raises(ValueError):
            sample_sensitivity(DUMMY_THETA, d, TrainConfig(), 2, 0, trainer=mean_trainer,
                               pairs=np.array([[0, 1]]))

    def test_injected_pairs_must_be_integers(self):
        d = exact_mean_dataset(3, 2, 0)
        with pytest.raises(ValueError, match="^pairs must be integers, got dtype float64$"):
            sample_sensitivity(DUMMY_THETA, d, TrainConfig(), 2, 0, trainer=mean_trainer,
                               pairs=[[0.5, 1.7], [1.0, 2.0]])

    def test_zero_sensitivity_says_what_it_is(self, small_real):
        theta, d, cfg = small_real
        # learning rate 0 returns the init, so every leave-one-out head is the same
        est = sample_sensitivity(theta, d, dataclasses.replace(cfg, learning_rate=0), 6, 13)
        assert est.delta_l1 == est.delta_l2 == 0.0
        for kind, norm in ((MechanismKind.LOGISTIC, "l1"), (MechanismKind.GAUSSIAN, "l2")):
            message = (f"sampled {norm} sensitivity is 0 over 6 pairs: every sampled pair gave the same head, "
                       "so no noise scale calibrates against it")
            with pytest.raises(ValueError, match=f"^{message}$"):
                est.for_mechanism(kind)


class TestSerialization:
    def test_json_round_trip_exact(self, tmp_path):
        d = exact_mean_dataset(5, 4, seed=8)
        est = sample_sensitivity(DUMMY_THETA, d, TrainConfig(), 7, 99, trainer=mean_trainer)
        path = tmp_path / "est.json"
        emit_estimate(est, path)
        assert estimate_from_json_dict(json.loads(path.read_text())) == est

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.floats(0.0, 1e308), st.floats(0.0, 1e308)), min_size=1, max_size=20),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_dict_round_trip(self, pairs, seed):
        norms = tuple((max(a, b), min(a, b)) for a, b in pairs)
        est = SensitivityEstimate(
            max(l1 for l1, _ in norms), max(l2 for _, l2 in norms), len(norms), seed, norms
        )
        back = _from_json_dict(SensitivityEstimate, json.loads(json.dumps(dataclasses.asdict(est))))
        assert back == est
        assert np.array(back.per_pair_norms).tobytes() == np.array(norms).tobytes()

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            _from_json_dict(SensitivityEstimate, {"delta_l1": 1.0})
