"""The traced benchmark run's hooks still fit the library.

perfbench/spans.py wraps each traced function at the module attributes where
another logidp module looks it up, and counts the attack trainer's flops from
its bound arguments. A refactor that drops a lookup site, or changes what the
trainer takes, would otherwise show only as a failed `--trace 1` run.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import logidp.experiments  # noqa: E402
import logidp.mechanisms  # noqa: E402
from logidp.experiments import SweepConfig, SyntheticDataSpec  # noqa: E402
from logidp.mechanisms import MechanismSpec, NormKind, Sensitivity  # noqa: E402
from logidp.mia import AttackClassifierConfig, build_attack_dataset, train_attack_classifier  # noqa: E402
from logidp.pipeline import TrainConfig, finetune_head, make_synthetic_dataset, pretrain_encoder  # noqa: E402
from logidp.rng import RngStream  # noqa: E402


def test_every_traced_function_is_looked_up_by_another_module():
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder):
        assert logidp.experiments.train_attack_classifier is not train_attack_classifier
    assert recorder.unwrapped == []
    assert logidp.experiments.train_attack_classifier is train_attack_classifier


def test_every_noise_draw_goes_through_its_traced_sampler():
    # a lookup site alone is not enough: sample_noise must call the samplers
    # through the names the wrappers replace
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder):
        for spec in (MechanismSpec("logistic", 0.5), MechanismSpec("laplace", 0.5),
                     MechanismSpec("gaussian", 0.5, 1e-5)):
            logidp.mechanisms.sample_noise(spec, RngStream(3), 4)
    assert [s.name for s in recorder.spans if s.name.startswith("noise.")] == [
        "noise.sample_logistic", "noise.sample_laplace", "noise.sample_gaussian"]


def test_every_release_a_sweep_makes_is_a_cell():
    # experiments looks protect_existing up at its module attribute, so the
    # wrapper sees every release the sweep makes
    cfg = SweepConfig(
        dataset=SyntheticDataSpec(3, 20, 6, 0.5, 17, pretrain=20, finetune=10, holdout=10,
                                  shadow_in=10, shadow_out=10),
        pretrain=TrainConfig(hidden_dims=(4,), epochs=5, learning_rate=0.05, seed=1),
        finetune=TrainConfig(epochs=5, learning_rate=0.5, seed=2),
        mechanisms=("logistic", "laplace"),
        sensitivity=Sensitivity(NormKind.L1, 0.5),
        attack=AttackClassifierConfig(epochs=4, seed=1, hidden_layers=2, hidden_width=8, train_pairs=10),
        master_seed=3,
        scale_grid=(0.5, 0.25, 0.125),
        repeats_per_point=2,
    )
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder):
        logidp.experiments.run_sweep(cfg)
    releases = [s for s in recorder.spans if s.name == "protection.protect_existing"]
    assert len(releases) == 2 * 3 * 2


def test_attack_flop_counts_the_trainer_arguments():
    data = make_synthetic_dataset(3, 20, 6, 0.5, 17)
    theta = pretrain_encoder(data, TrainConfig(hidden_dims=(4,), epochs=5, learning_rate=0.05, seed=1))
    members, nonmembers = data.subset(range(0, 60, 2)), data.subset(range(1, 60, 2))
    omega = finetune_head(theta, members, TrainConfig(epochs=5, learning_rate=0.5, seed=2))
    records = build_attack_dataset(theta, omega, members, nonmembers, 10, 3)
    cfg = AttackClassifierConfig(epochs=4, seed=1, hidden_layers=2, hidden_width=8)
    recorder = spans.SpanRecorder()
    recorder.wrap("mia.train_attack_classifier", train_attack_classifier)(records, cfg)
    (span,) = recorder.spans
    # (2 * 3 inputs -> 8 -> 8 -> 1) products, three per layer, 10 records, 4 epochs
    assert span.counts == {"flop": 3 * 2.0 * 10 * (6 * 8 + 8 * 8 + 8 * 1) * 4}
