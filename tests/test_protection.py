import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from logidp.mechanisms import MechanismKind, MechanismSpec, NormKind, Sensitivity, budget_for_scale, sample_noise
from logidp.pipeline import TrainConfig, make_synthetic_dataset, pretrain_encoder, finetune_head, predict
from logidp.protection import (
    ProtectedModel,
    export_protected_model,
    load_protected_release,
    noise_vector,
    predict_protected,
    protect_existing,
)
from logidp.rng import RngStream
from logidp.weights import WeightVector, load_weights, save_weights

LOG = MechanismSpec(MechanismKind.LOGISTIC, 0.5)
SENS = Sensitivity(NormKind.L1, 2.0)


@pytest.fixture(scope="module")
def small():
    data = make_synthetic_dataset(3, 20, 6, 0.5, 17)
    pre_cfg = TrainConfig(hidden_dims=(4,), epochs=60, learning_rate=0.05, init_scale=0.05, seed=1)
    fine_cfg = TrainConfig(epochs=80, learning_rate=0.5, seed=2)
    theta = pretrain_encoder(data, pre_cfg)
    omega = finetune_head(theta, data, fine_cfg)
    return data, pre_cfg, fine_cfg, theta, omega


class TestProtectExisting:
    def test_noise_regenerates_noisy_weights_bitwise(self, small):
        # replaying (spec, noise_seed) reconstructs the release exactly
        *_, theta, omega = small
        model = protect_existing(theta, omega, LOG, 99)
        replay = model.omega_clean.values + noise_vector(LOG, 99, len(omega))
        assert np.array_equal(model.omega_noisy.values, replay)
        recovered = model.omega_noisy.values - model.omega_clean.values
        assert np.allclose(recovered, noise_vector(LOG, 99, len(omega)), rtol=1e-12, atol=1e-15)
        # the noise is the mechanism's own location-0 draw; an empty draw is empty
        assert np.array_equal(noise_vector(LOG, 99, len(omega)), sample_noise(LOG, RngStream(99, 0), len(omega)))
        assert noise_vector(LOG, 99, 0).shape == (0,)
        spec, n = MechanismSpec(MechanismKind.LOGISTIC, 0.3), 10_000
        assert abs(noise_vector(spec, 12, n).mean()) < 5 * spec.scale * np.pi / np.sqrt(3 * n)

    def test_non_integer_noise_seed_rejected(self, small):
        *_, theta, omega = small
        model = protect_existing(theta, omega, LOG, 1)
        with pytest.raises(ValueError, match="^noise_seed must be an integer, got 1.5$"):
            dataclasses.replace(model, noise_seed=1.5)

    def test_different_seed_changes_only_noisy(self, small):
        *_, theta, omega = small
        a = protect_existing(theta, omega, LOG, 1)
        b = protect_existing(theta, omega, LOG, 2)
        assert a.omega_clean == b.omega_clean
        assert not np.array_equal(a.omega_noisy.values, b.omega_noisy.values)

    def test_all_kinds_accepted(self, small):
        *_, theta, omega = small
        for spec in (LOG, MechanismSpec(MechanismKind.LAPLACE, 0.3),
                     MechanismSpec(MechanismKind.GAUSSIAN, 0.7, delta=1e-5)):
            model = protect_existing(theta, omega, spec, 5)
            assert model.spec == spec
            assert len(model.omega_noisy) == len(omega)

    def test_theta_untouched(self, small):
        *_, theta, omega = small
        before = omega.values.copy()
        model = protect_existing(theta, omega, LOG, 3)
        assert model.theta == theta
        assert np.array_equal(omega.values, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_head_never_reaches_a_release(self, small, tmp_path, bad):
        *_, theta, omega = small
        values = omega.values.copy()
        values[2] = bad
        broken = WeightVector(values, omega.shape_tag)
        with pytest.raises(ValueError, match="head weights must be finite"):
            model = protect_existing(theta, broken, LOG, 6)
            export_protected_model(model, tmp_path / "release", SENS)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_encoder_never_reaches_a_release(self, small, tmp_path, bad):
        *_, theta, omega = small
        values = theta.values.copy()
        values[0] = bad
        broken = WeightVector(values, theta.shape_tag)
        with pytest.raises(ValueError, match="encoder weights must be finite"):
            model = protect_existing(broken, omega, LOG, 6)
            export_protected_model(model, tmp_path / "release", SENS)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_noise_never_reaches_a_release(self, small, tmp_path):
        # logistic draws reach |log(u / (1 - u))| > 1, so scale 1e308 overflows
        *_, theta, omega = small
        huge = MechanismSpec(MechanismKind.LOGISTIC, 1e308)
        with pytest.raises(ValueError, match="noisy head weights must be finite; the noise overflowed"):
            model = protect_existing(theta, omega, huge, 1234)
            export_protected_model(model, tmp_path / "release", SENS)
        assert list(tmp_path.iterdir()) == []

    def test_reprotection_starts_from_clean(self, small):
        *_, theta, omega = small
        first = protect_existing(theta, omega, LOG, 7)
        again = protect_existing(first.theta, first.omega_clean, MechanismSpec(MechanismKind.LOGISTIC, 0.1), 8)
        # rebuilding from clean means the two noises never stack
        assert np.array_equal(
            again.omega_noisy.values,
            omega.values + noise_vector(again.spec, 8, len(omega)),
        )

    def test_shape_mismatch_rejected(self, small):
        *_, theta, _ = small
        wrong_width = WeightVector(np.zeros(7 * 3), "head:in=7,classes=3")
        with pytest.raises(ValueError):
            protect_existing(theta, wrong_width, LOG, 0)
        not_a_head = WeightVector(np.zeros(4), "encoder:in=2,hidden=2")
        with pytest.raises(ValueError):
            protect_existing(theta, not_a_head, LOG, 0)

    def test_head_length_must_match_its_tag(self, small, tmp_path):
        *_, theta, _ = small
        short = WeightVector(np.zeros(7), "head:in=4,classes=10")
        with pytest.raises(ValueError, match="head weight vector length does not match its tag"):
            model = protect_existing(theta, short, LOG, 0)
            export_protected_model(model, tmp_path / "release", SENS)
        assert list(tmp_path.iterdir()) == []

    def test_mismatched_clean_noisy_rejected(self, small):
        *_, theta, omega = small
        other = WeightVector(np.zeros(len(omega) + 1), omega.shape_tag)
        with pytest.raises(ValueError):
            ProtectedModel(theta, omega, other, LOG, 0)


class TestQueryHandler:
    """predict_protected answers the queries of a protected release."""

    def test_empty_queries_give_empty_output(self, small):
        data, *_, theta, omega = small
        model = protect_existing(theta, omega, LOG, 4)
        assert predict_protected(model, data.features[:0]).shape == (0, 3)

    def test_tiny_scale_matches_unprotected(self, small):
        data, _, _, theta, omega = small
        tiny = MechanismSpec(MechanismKind.LOGISTIC, 1e-12)
        model = protect_existing(theta, omega, tiny, 11)
        # tail mass beyond 1e-9 at scale 1e-12 is ~2 exp(-1000) per coordinate
        assert np.abs(model.omega_noisy.values - omega.values).max() < 1e-9
        for q in data.features[:20]:
            assert np.abs(predict_protected(model, q) - predict(theta, omega, q)).max() < 1e-6

    def test_deterministic_end_to_end(self, small):
        data, *_, theta, omega = small
        qs = data.features[:3]
        m1 = protect_existing(theta, omega, LOG, 21)
        m2 = protect_existing(theta, omega, LOG, 21)
        assert m1.omega_noisy == m2.omega_noisy and m1.theta == m2.theta
        assert np.array_equal(predict_protected(m1, qs), predict_protected(m2, qs))

    def test_outputs_are_probability_vectors(self, small):
        data, *_, theta, omega = small
        model = protect_existing(theta, omega, LOG, 12)
        for q in data.features[:4]:
            out = predict_protected(model, q)
            assert out.shape == (3,)
            assert abs(out.sum() - 1.0) < 1e-12


class TestProtectedPaths:
    def test_protected_path_never_reads_clean_head(self, small):
        # sabotaged clean head: NaNs would poison any output computed from it
        *_, theta, omega = small
        model = protect_existing(theta, omega, LOG, 13)
        sabotaged = ProtectedModel(
            theta,
            WeightVector(np.full(len(omega), np.nan), omega.shape_tag),
            model.omega_noisy,
            model.spec,
            model.noise_seed,
        )
        data, *_ = small
        out = predict_protected(sabotaged, data.features[0])
        assert np.all(np.isfinite(out))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_encoder_overflow_raises_instead_of_nan(self, small):
        # features this large overflow sinh; no NaN row may be returned
        data, *_, theta, omega = small
        model = protect_existing(theta, omega, LOG, 14)
        huge = data.features[:10] * 1e5
        with pytest.raises(ValueError, match="not finite.*encoder overflowed"):
            predict_protected(model, huge)
        with pytest.raises(ValueError, match="not finite.*encoder overflowed"):
            predict(theta, omega, huge)

    def test_protected_and_clean_disagree_at_large_scale(self, small):
        data, _, _, theta, omega = small
        model = protect_existing(theta, omega, MechanismSpec(MechanismKind.LOGISTIC, 50.0), 15)
        a = np.stack([predict_protected(model, x) for x in data.features[:10]])
        b = np.stack([predict(theta, omega, x) for x in data.features[:10]])
        assert np.abs(a - b).max() > 1e-3


class TestExport:
    def test_export_writes_release_files(self, small, tmp_path):
        *_, theta, omega = small
        model = protect_existing(theta, omega, LOG, 30)
        base = tmp_path / "release"
        export_protected_model(model, base, SENS)
        got_theta, got_omega, sidecar = load_protected_release(base)
        assert got_theta == theta
        assert got_omega == model.omega_noisy
        assert sidecar == {"kind": "logistic", "scale": 0.5, "delta": 0.0, "epsilon": 2.0 / 0.5}

    @pytest.mark.parametrize("spec, sens", [
        (LOG, SENS),
        (MechanismSpec(MechanismKind.LAPLACE, 0.3), Sensitivity(NormKind.L1, 0.7)),
        (MechanismSpec(MechanismKind.GAUSSIAN, 0.9, delta=1e-5), Sensitivity(NormKind.L2, 0.4)),
    ])
    def test_every_sidecar_carries_epsilon(self, small, tmp_path, spec, sens):
        *_, theta, omega = small
        model = protect_existing(theta, omega, spec, 31)
        returned = export_protected_model(model, tmp_path / "a", sens)
        _, _, written = load_protected_release(tmp_path / "a")
        assert returned == written
        assert written["epsilon"] == budget_for_scale(spec, sens).epsilon

    def test_wrong_norm_sensitivity_writes_no_file(self, small, tmp_path):
        *_, theta, omega = small
        model = protect_existing(theta, omega, LOG, 31)
        with pytest.raises(ValueError, match="logistic mechanism needs l1 sensitivity, got l2"):
            export_protected_model(model, tmp_path / "a", Sensitivity(NormKind.L2, 2.0))
        assert list(tmp_path.iterdir()) == []

    def test_export_omits_clean_head_and_seed(self, small, tmp_path):
        *_, theta, omega = small
        model = protect_existing(theta, omega, LOG, 32)
        base = tmp_path / "c"
        export_protected_model(model, base, SENS)
        sidecar = json.loads((tmp_path / "c.json").read_text())
        assert "noise_seed" not in sidecar
        _, got_omega, _ = load_protected_release(base)
        assert not np.array_equal(got_omega.values, model.omega_clean.values)

    def test_noise_reproducible_from_sidecar_scale(self, small, tmp_path):
        # a holder of the seed can regenerate the noise from the sidecar spec
        *_, theta, omega = small
        model = protect_existing(theta, omega, LOG, 33)
        base = tmp_path / "d"
        export_protected_model(model, base, SENS)
        _, got_omega, sidecar = load_protected_release(base)
        spec = MechanismSpec(MechanismKind(sidecar["kind"]), sidecar["scale"], sidecar["delta"])
        replay = omega.values + noise_vector(spec, model.noise_seed, len(omega))
        assert np.array_equal(got_omega.values, replay)


    def test_truncated_weight_file_named(self, small, tmp_path):
        *_, theta, omega = small
        export_protected_model(protect_existing(theta, omega, LOG, 34), tmp_path / "e", SENS)
        path = tmp_path / "e.theta.bin"
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .* not whole float64 values$"):
            load_protected_release(tmp_path / "e")

    def test_malformed_shape_tag_named_at_load(self, small, tmp_path):
        *_, theta, omega = small
        export_protected_model(protect_existing(theta, omega, LOG, 35), tmp_path / "f", SENS)
        path = tmp_path / "f.omega.bin"
        header, _, payload = path.read_bytes().partition(b"\n")
        assert header == b"weightvector/1 head:in=4,classes=3"
        path.write_bytes(b"weightvector/1 head:in=4,classes\n" + payload)
        message = "shape tag 'head:in=4,classes': 'classes' is not name=integer"
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'f'))}: {re.escape(message)}$"):
            load_protected_release(tmp_path / "f")


class TestWeightFiles:
    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64),
        tag=st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=40),
    )
    @example(values=[-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308], tag="head:in=4,classes=3")
    @example(values=[], tag="")
    def test_round_trip_is_byte_exact(self, values, tag):
        w = WeightVector(np.array(values, dtype=np.float64), tag)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.bin"
            save_weights(w, path)
            back = load_weights(path)
        assert back.shape_tag == tag
        assert back.values.tobytes() == w.values.tobytes()
