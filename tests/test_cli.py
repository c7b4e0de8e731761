"""End-to-end coverage of the command-line interface."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logidp.cli import build_parser, main
from logidp.experiments import (
    AttackClassifierConfig,
    CsvDataSpec,
    SampledSensitivity,
    SweepConfig,
    SyntheticDataSpec,
    config_to_json_dict,
    emit_report,
    estimate_from_json_dict,
    load_report,
)
from logidp.mechanisms import (
    MechanismKind,
    MechanismSpec,
    NormKind,
    Sensitivity,
    sample_noise,
)
from logidp.pipeline import Dataset, TrainConfig, pretrain_encoder
from logidp.protection import load_protected_release
from logidp.rng import RngStream
from logidp.sensitivity import sample_sensitivity

from dataset_csv import save_dataset_csv


DATA = SyntheticDataSpec(
    num_classes=5, per_class=60, feature_dim=8, cluster_spread=0.8, seed=31,
    pretrain=150, finetune=50, holdout=50, shadow_in=25, shadow_out=25,
)
PRE = TrainConfig((6,), 60, 0.05, init_scale=0.05, seed=1)
FINE = TrainConfig(epochs=80, learning_rate=0.5, seed=2)
ATTACK = AttackClassifierConfig(epochs=300, seed=5, train_pairs=30)


def refuse_training(cfg):
    raise AssertionError("training ran before the budget flags were checked")


def small_config(**overrides):
    base = dict(
        dataset=DATA,
        pretrain=PRE,
        finetune=FINE,
        mechanisms=(MechanismKind.LOGISTIC, MechanismKind.GAUSSIAN),
        sensitivity=SampledSensitivity(m=8, seed=44),
        attack=ATTACK,
        master_seed=777,
        epsilon_grid=(8.0, 2.0, 0.5),
        repeats_per_point=2,
    )
    base.update(overrides)
    return SweepConfig(**base)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "config.json"
    path.write_text(json.dumps(config_to_json_dict(small_config())))
    return path


class TestSample:
    def test_draws_match_library_replay(self, tmp_path):
        out = tmp_path / "noise.csv"
        code = main(["sample", "--kind", "logistic", "--scale", "0.5",
                     "--count", "40", "--seed", "9", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "noise"
        got = np.array([float(v) for v in lines[1:]])
        expected = sample_noise(MechanismSpec(MechanismKind.LOGISTIC, 0.5), RngStream(9), 40)
        assert np.array_equal(got, expected)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--kind", "gaussian", "--scale", "1.5", "--count", "25", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sample", "--kind", "laplace", "--scale", "1.0", "--count", "25",
                     "--seed", "3", "--out", str(a)]) == 0
        assert main(["sample", "--kind", "laplace", "--scale", "1.0", "--count", "25",
                     "--seed", "4", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_unknown_kind_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--kind", "cauchy", "--scale", "1.0", "--count", "5",
                  "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code != 0

    def test_bad_scale_exits_nonzero(self, tmp_path, capsys):
        code = main(["sample", "--kind", "logistic", "--scale", "-1.0", "--count", "5",
                     "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSensitivity:
    def test_estimate_matches_direct_call(self, config_path, tmp_path):
        out = tmp_path / "est.json"
        assert main(["sensitivity", "--config", str(config_path), "--out", str(out)]) == 0
        est = estimate_from_json_dict(json.loads(out.read_text()))
        splits = DATA.load()
        theta = pretrain_encoder(splits["pretrain"], PRE)
        direct = sample_sensitivity(theta, splits["finetune"], FINE, 8, 44)
        assert est == direct

    def test_fixed_sensitivity_config_rejected(self, tmp_path, capsys):
        cfg = small_config(sensitivity=Sensitivity(NormKind.L1, 0.5))
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps(config_to_json_dict(cfg)))
        code = main(["sensitivity", "--config", str(path), "--out", str(tmp_path / "e.json")])
        assert code == 1
        assert "sampled" in capsys.readouterr().err


class TestProtect:
    def test_exports_release_files(self, config_path, tmp_path):
        base = tmp_path / "release"
        code = main(["protect", "--config", str(config_path), "--mechanism", "logistic",
                     "--epsilon", "2.0", "--out", str(base)])
        assert code == 0
        theta, omega_noisy, sidecar = load_protected_release(base)
        assert sidecar["kind"] == "logistic"
        assert sidecar["delta"] == 0.0
        assert sidecar["epsilon"] == pytest.approx(2.0, rel=1e-9)
        assert omega_noisy.values.shape[0] > 0

    def test_scale_flag_bypasses_budget(self, config_path, tmp_path):
        base = tmp_path / "release"
        code = main(["protect", "--config", str(config_path), "--mechanism", "laplace",
                     "--scale", "0.25", "--out", str(base)])
        assert code == 0
        sidecar = json.loads((tmp_path / "release.json").read_text())
        assert sidecar["scale"] == 0.25

    def test_epsilon_and_scale_together_rejected(self, config_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("logidp.cli.train_model", refuse_training)
        code = main(["protect", "--config", str(config_path), "--mechanism", "logistic",
                     "--epsilon", "2.0", "--scale", "0.1", "--out", str(tmp_path / "r")])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_neither_epsilon_nor_scale_rejected(self, config_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("logidp.cli.train_model", refuse_training)
        code = main(["protect", "--config", str(config_path), "--mechanism", "logistic",
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_second_encoder_width_rejected(self, tmp_path, capsys):
        doc = config_to_json_dict(small_config(pretrain=TrainConfig((6, 16), 60, 0.05, init_scale=0.05, seed=1)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        base = tmp_path / "release"
        code = main(["protect", "--config", str(path), "--mechanism", "logistic",
                     "--epsilon", "1.0", "--out", str(base)])
        assert code == 1
        assert "error: hidden_dims must hold exactly one encoder width, got (6, 16)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_scale_writes_no_release(self, config_path, tmp_path, capsys):
        code = main(["protect", "--config", str(config_path), "--mechanism", "logistic",
                     "--scale", "1e308", "--out", str(tmp_path / "release")])
        assert code == 1
        assert "error: noisy head weights must be finite; the noise overflowed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestBudgetPointChecks:
    """protect and attack refuse a bad flag or an uncalibratable mechanism,
    and attack and sweep shadow splits too small for the attack's pairs,
    before anything is trained."""

    @pytest.fixture()
    def pretrain_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr("logidp.experiments.pretrain_encoder", lambda *a: calls.append(a))
        return calls

    @pytest.mark.parametrize("command", ["protect", "attack"])
    @pytest.mark.parametrize("flag, value", [
        ("--epsilon", "0"), ("--epsilon", "nan"), ("--epsilon", "inf"), ("--scale", "-1"), ("--scale", "0"),
    ])
    def test_budget_flag_must_be_positive_and_finite(self, config_path, tmp_path, capsys, pretrain_calls,
                                                     command, flag, value):
        out = tmp_path / "out"
        code = main([command, "--config", str(config_path), "--mechanism", "logistic",
                     flag, value, "--out", str(out)])
        assert code == 1
        rule = "> 0" if math.isfinite(float(value)) else "a finite number"
        assert f"error: {flag} must be {rule}, got {float(value)}\n" in capsys.readouterr().err
        assert pretrain_calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["protect", "attack"])
    @pytest.mark.parametrize("overrides, message", [
        (dict(delta=0.0), "gaussian mechanism needs delta in (0, 1), got 0.0"),
        (dict(sensitivity=Sensitivity(NormKind.L1, 0.5)), "gaussian mechanism needs l2 sensitivity"),
    ])
    def test_mechanism_calibration_checked(self, tmp_path, capsys, pretrain_calls, command, overrides, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_json_dict(small_config(**overrides))))
        out = tmp_path / "out"
        code = main([command, "--config", str(path), "--mechanism", "gaussian",
                     "--epsilon", "1.0", "--out", str(out)])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert pretrain_calls == []
        assert not out.exists()

    @pytest.fixture()
    def too_many_pairs_path(self, tmp_path):
        # 60 pairs need 30 records in each 25-record shadow split
        attack = AttackClassifierConfig(epochs=300, seed=5, train_pairs=60)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_json_dict(small_config(attack=attack))))
        return path

    @pytest.mark.parametrize("command, flags", [
        ("attack", ["--mechanism", "logistic", "--scale", "0.5"]), ("sweep", []),
    ])
    def test_attack_pairs_checked_before_training(self, too_many_pairs_path, tmp_path, capsys,
                                                  pretrain_calls, command, flags):
        out = tmp_path / "out"
        code = main([command, "--config", str(too_many_pairs_path), *flags, "--out", str(out)])
        assert code == 1
        assert "error: need 30 records in each partition, have 25 in / 25 out" in capsys.readouterr().err
        assert pretrain_calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("protect", ["--mechanism", "logistic", "--epsilon", "1.0"]), ("sensitivity", []),
    ])
    def test_attack_pairs_unchecked_without_an_attack(self, too_many_pairs_path, tmp_path, command, flags):
        out = tmp_path / "out"
        assert main([command, "--config", str(too_many_pairs_path), *flags, "--out", str(out)]) == 0


class TestAttack:
    def test_reports_both_accuracies(self, config_path, tmp_path):
        out = tmp_path / "attack.json"
        code = main(["attack", "--config", str(config_path), "--mechanism", "logistic",
                     "--epsilon", "0.5", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert set(result) == {"mechanism", "scale", "delta", "epsilon",
                               "protected_mia_accuracy", "unprotected_mia_accuracy"}
        assert 0.0 <= result["protected_mia_accuracy"] <= 1.0
        assert 0.0 <= result["unprotected_mia_accuracy"] <= 1.0
        assert result["mechanism"] == "logistic"
        # the one JSON layout every written document shares
        assert out.read_text() == json.dumps(result, indent=2, sort_keys=True) + "\n"

    def test_deterministic(self, config_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["attack", "--config", str(config_path), "--mechanism", "gaussian",
                "--epsilon", "2.0"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags", [["--epsilon", "2.0", "--scale", "0.1"], []])
    def test_budget_flags_checked_before_training(self, config_path, tmp_path, capsys,
                                                  monkeypatch, flags):
        monkeypatch.setattr("logidp.cli.train_model", refuse_training)
        code = main(["attack", "--config", str(config_path), "--mechanism", "logistic",
                     *flags, "--out", str(tmp_path / "a.json")])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, samples", [
        ("attack", ["--scale", "0.5"], 0),
        ("attack", ["--epsilon", "0.5"], 1),
        ("protect", ["--scale", "0.5"], 1),
    ])
    def test_sensitivity_sampled_only_when_used(self, config_path, tmp_path, monkeypatch,
                                                command, flags, samples):
        calls = []

        def counting_sample_sensitivity(*args):
            calls.append(args)
            return sample_sensitivity(*args)

        monkeypatch.setattr("logidp.experiments.sample_sensitivity", counting_sample_sensitivity)
        code = main([command, "--config", str(config_path), "--mechanism", "logistic",
                     *flags, "--out", str(tmp_path / "out")])
        assert code == 0
        assert len(calls) == samples


class TestSweep:
    def test_two_runs_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--config", str(config_path)]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format_loads_back(self, config_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["sweep", "--config", str(config_path), "--format", "json",
                     "--out", str(out)]) == 0
        report = load_report(out)
        assert report.config == small_config()
        assert len(report.rows) == 2 * 3 * 2

    def test_seed_override_changes_rows(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(config_path), "--out", str(a)]) == 0
        assert main(["sweep", "--config", str(config_path), "--seed", "778",
                     "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_json_identical_across_blas_thread_counts(self, config_path, tmp_path):
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "logidp.cli", "sweep", "--config", str(config_path),
                 "--format", "json", "--out", str(out)],
                env=env, check=True, timeout=300,
            )
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_missing_config_exits_nonzero(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_block_is_named(self, tmp_path, capsys):
        doc = config_to_json_dict(small_config())
        del doc["dataset"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert "error: SweepConfig is missing field 'dataset'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_sensitivity_seed_rejected_before_training(self, tmp_path, capsys,
                                                                     monkeypatch, seed):
        calls = []
        monkeypatch.setattr("logidp.experiments.pretrain_encoder", lambda *a: calls.append(a))
        doc = config_to_json_dict(small_config())
        doc["sensitivity"]["seed"] = seed
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert f"error: sensitivity: seed must fit in u64, got {seed}" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_csv_splits_of_different_widths_rejected_before_training(self, tmp_path, capsys,
                                                                     monkeypatch):
        calls = []
        monkeypatch.setattr("logidp.experiments.pretrain_encoder", lambda *a: calls.append(a))
        splits = DATA.load()
        holdout = splits["holdout"]
        splits["holdout"] = Dataset(holdout.features[:, :6], holdout.labels, holdout.num_classes)
        paths = {name: str(tmp_path / f"{name}.csv") for name in splits}
        for name, ds in splits.items():
            save_dataset_csv(ds, paths[name])
        doc = config_to_json_dict(small_config(dataset=CsvDataSpec(**paths, num_classes=5)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert "error: splits disagree on feature_dim: [6, 8]" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_zero_epochs_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("logidp.experiments.pretrain_encoder", lambda *a: calls.append(a))
        doc = config_to_json_dict(small_config())
        doc["finetune"]["epochs"] = 0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert "error: finetune: epochs must be >= 1, got 0" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("block, field, value", [
        ("finetune", "epochs", 2.5),
        ("attack", "epochs", 2.5),
        ("attack", "train_pairs", 4.0),
        ("sensitivity", "m", 2.5),
        (None, "repeats_per_point", 1.5),
        ("pretrain", "seed", 1.5),
        ("pretrain", "hidden_dims", [4.7]),
        (None, "master_seed", True),
        ("dataset", "pretrain", 150.5),
    ])
    def test_non_integer_field_rejected_before_training(self, tmp_path, capsys, monkeypatch,
                                                        block, field, value):
        calls = []
        monkeypatch.setattr("logidp.experiments.pretrain_encoder", lambda *a: calls.append(a))
        doc = config_to_json_dict(small_config())
        (doc[block] if block else doc)[field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        got = value[0] if isinstance(value, list) else value
        prefix = f"{block}: " if block else ""
        assert f"error: {prefix}{field} must be an integer, got {got!r}" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("value", [True, 0])
    def test_csv_path_that_is_not_a_path_rejected_before_training(self, tmp_path, value):
        # open() would read fd 1 for True and fd 0 for 0, and close it; a
        # subprocess keeps this test's own descriptors out of reach
        paths = {name: str(tmp_path / f"{name}.csv") for name in DATA.split_counts()}
        doc = config_to_json_dict(small_config(dataset=CsvDataSpec(**paths, num_classes=5)))
        doc["dataset"]["pretrain"] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.csv"
        code = (
            "import os, sys\n"
            "import logidp.experiments\n"
            "from logidp.cli import main\n"
            "calls = []\n"
            "logidp.experiments.pretrain_encoder = lambda *a: calls.append(a)\n"
            "code = main(sys.argv[1:])\n"
            "for fd in (0, 1):\n"
            "    os.fstat(fd)\n"
            "print(f'pretrain calls: {len(calls)}', file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "sweep", "--config", str(path), "--out", str(out)],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert f"error: dataset: pretrain must be a path, got {value!r}\n" in proc.stderr
        # both descriptors still open, and nothing trained
        assert proc.stderr.endswith("pretrain calls: 0\n")
        assert not out.exists()

    def test_malformed_csv_row_named_before_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("logidp.experiments.pretrain_encoder", lambda *a: calls.append(a))
        paths = {name: str(tmp_path / f"{name}.csv") for name in DATA.split_counts()}
        for name, ds in DATA.load().items():
            save_dataset_csv(ds, paths[name])
        with open(paths["holdout"], "a") as fh:
            fh.write("1.0,2.0\n")
        doc = config_to_json_dict(small_config(dataset=CsvDataSpec(**paths, num_classes=5)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        line = 2 + DATA.holdout
        assert f"error: {paths['holdout']}:{line}: expected 9 fields, got 2" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


@pytest.fixture(scope="module")
def report_json(config_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "report.json"
    assert main(["sweep", "--config", str(config_path), "--format", "json",
                 "--out", str(path)]) == 0
    return path


class TestReport:
    def test_reformat_matches_direct_emission(self, report_json, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["report", "--in", str(report_json), "--out", str(out)]) == 0
        direct = tmp_path / "direct.csv"
        emit_report(load_report(report_json), direct, "csv")
        assert out.read_bytes() == direct.read_bytes()

    def test_averaged_rows(self, report_json, tmp_path):
        out = tmp_path / "avg.csv"
        assert main(["report", "--in", str(report_json), "--averaged",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mechanism,epsilon,scale,utility_loss,mia_accuracy,repeats"
        assert len(lines) == 1 + 2 * 3
        assert all(line.endswith(",2") for line in lines[1:])

    def test_averaged_json_rejected(self, report_json, tmp_path, capsys):
        out = tmp_path / "avg.json"
        assert main(["report", "--in", str(report_json), "--averaged", "--format", "json",
                     "--out", str(out)]) == 1
        assert "--averaged writes CSV only" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_nonzero(self, tmp_path, capsys):
        code = main(["report", "--in", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 1

    @pytest.mark.parametrize("edit, named", [
        (lambda rows: [row.update(repeat_index=0) for row in rows],
         "(logistic, epsilon 8.0, repeat 0) is extra"),
        (lambda rows: rows[0].update(epsilon=3.0), "(logistic, epsilon 3.0, repeat 0) is extra"),
        (lambda rows: rows[0].update(mechanism="laplace"),
         "(laplace, epsilon 8.0, repeat 0) is extra"),
    ], ids=["repeat-0-everywhere", "epsilon-off-grid", "mechanism-not-in-config"])
    def test_rows_that_are_not_the_config_cells_rejected(self, report_json, tmp_path, capsys,
                                                         edit, named):
        doc = json.loads(report_json.read_text())
        edit(doc["rows"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert main(["report", "--in", str(bad), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_sensitivity_rejected(self, report_json, tmp_path, capsys):
        doc = json.loads(report_json.read_text())
        doc["sensitivity"]["per_pair_norms"][-1] = [float("nan"), float("nan")]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert main(["report", "--in", str(bad), "--out", str(out)]) == 1
        assert "per_pair_norms must be a finite number, got nan" in capsys.readouterr().err
        assert not out.exists()


class TestSharedStages:
    """Every command reuses the sweep's stages, so their outputs agree."""

    def test_commands_agree_with_sweep(self, config_path, report_json, tmp_path):
        report = json.loads(report_json.read_text())
        sens = tmp_path / "sens.json"
        assert main(["sensitivity", "--config", str(config_path), "--out", str(sens)]) == 0
        block = report["sensitivity"]
        assert block["kind"] == "sampled"
        # the JSON report's writer: sorted keys, two-space indent
        assert sens.read_text() == json.dumps(block, indent=2, sort_keys=True) + "\n"

        budget = ["--config", str(config_path), "--mechanism", "gaussian", "--epsilon", "2.0"]
        assert main(["protect", *budget, "--out", str(tmp_path / "release")]) == 0
        assert main(["attack", *budget, "--out", str(tmp_path / "attack.json")]) == 0
        sidecar = json.loads((tmp_path / "release.json").read_text())
        attack = json.loads((tmp_path / "attack.json").read_text())
        (row,) = [r for r in report["averaged"]
                  if r["mechanism"] == "gaussian" and r["epsilon"] == 2.0]
        assert sidecar["scale"] == attack["scale"] == row["scale"]
        baseline = report["unprotected_baseline"]["mia_accuracy"]
        assert attack["unprotected_mia_accuracy"] == baseline

    def test_one_evaluation_set_on_unequal_splits(self, tmp_path):
        # 40 holdout records against 50 finetune members: each score draws
        # 40 of the members, so the scores agree only if they draw the same 40
        cfg = small_config(
            dataset=dataclasses.replace(DATA, holdout=40), mechanisms=(MechanismKind.LOGISTIC,),
            sensitivity=Sensitivity(NormKind.L1, 0.5), epsilon_grid=None, scale_grid=(1e-9, 0.5),
            repeats_per_point=3,
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_json_dict(cfg)))
        assert main(["sweep", "--config", str(path), "--format", "json",
                     "--out", str(tmp_path / "report.json")]) == 0
        assert main(["attack", "--config", str(path), "--mechanism", "logistic", "--scale", "1e-9",
                     "--out", str(tmp_path / "attack.json")]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        attack = json.loads((tmp_path / "attack.json").read_text())
        baseline = report["unprotected_baseline"]["mia_accuracy"]
        assert attack["unprotected_mia_accuracy"] == baseline
        # noise at scale 1e-9 moves no attack decision
        near_zero = [row["mia_accuracy"] for row in report["rows"] if row["scale"] == 1e-9]
        assert near_zero == [baseline] * 3


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        out = tmp_path / "noise.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "logidp.cli", "sample", "--kind", "logistic",
             "--scale", "1.0", "--count", "5", "--seed", "2", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert len(out.read_text().splitlines()) == 6

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for name in ("sample", "sensitivity", "protect", "attack", "sweep", "report"):
            assert name in help_text

    def test_no_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0

    def test_parser_builds(self):
        assert build_parser().prog == "logidp"


class TestDependencies:
    def test_numpy_is_the_only_runtime_dependency(self):
        # a fresh interpreter, so modules the test process already holds do not count
        code = (
            "import importlib, json, pkgutil, sys, logidp\n"
            "names = [m.name for m in pkgutil.iter_modules(logidp.__path__)]\n"
            "for name in names: importlib.import_module('logidp.' + name)\n"
            "scipy = sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.'))\n"
            "print(json.dumps([names, scipy]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        names, scipy = json.loads(proc.stdout)
        assert {"cli", "experiments", "mia", "sensitivity", "pipeline", "protection",
                "mechanisms", "noise", "rng", "weights"} <= set(names)
        assert scipy == []
        pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        block = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
        assert re.findall(r'"([^"]+)"', block) == ["numpy>=1.24"]

    def test_reimported_modules_are_released(self):
        # a fresh import per job, as perfbench's worker makes, must not keep
        # the previous import's classes alive
        code = (
            "import gc, importlib, sys\n"
            "for _ in range(3):\n"
            "    for name in [n for n in sys.modules if n.split('.')[0] == 'logidp']:\n"
            "        del sys.modules[name]\n"
            "    importlib.import_module('logidp.cli')\n"
            "gc.collect()\n"
            "print(sum(isinstance(o, type) and o.__module__ == 'logidp.pipeline'\n"
            "          and o.__name__ == 'Dataset' for o in gc.get_objects()))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "1"
