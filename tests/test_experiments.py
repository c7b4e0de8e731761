import dataclasses
import json
import math
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import spearmanr

from logidp.mechanisms import (
    MechanismKind,
    MechanismSpec,
    NormKind,
    PrivacyBudget,
    Sensitivity,
    budget_for_scale,
    scale_for_budget,
)
from logidp.mia import AttackClassifierConfig
from logidp.noise import GaussianParams, LaplaceParams, LogisticParams
from logidp.pipeline import TrainConfig
from logidp.sensitivity import SensitivityEstimate
from logidp.experiments import (
    AveragedRow,
    CsvDataSpec,
    SampledSensitivity,
    SweepConfig,
    SweepReport,
    SweepRow,
    SyntheticDataSpec,
    check_calibration,
    config_from_json_dict,
    config_to_json_dict,
    emit_averaged,
    emit_report,
    load_report,
    report_from_json_dict,
    report_to_json_dict,
    run_sweep,
    trend_statistics,
    utility_loss,
)

from dataset_csv import save_dataset_csv


DATA = SyntheticDataSpec(
    num_classes=5, per_class=60, feature_dim=8, cluster_spread=0.8, seed=31,
    pretrain=150, finetune=50, holdout=50, shadow_in=25, shadow_out=25,
)
PRE = TrainConfig(hidden_dims=(6,), epochs=60, learning_rate=0.05, init_scale=0.05, seed=1)
FINE = TrainConfig(epochs=80, learning_rate=0.5, seed=2)
ATTACK = AttackClassifierConfig(epochs=300, seed=5, train_pairs=30)


def small_config(**overrides):
    base = dict(
        dataset=DATA, pretrain=PRE, finetune=FINE,
        mechanisms=(MechanismKind.LOGISTIC, MechanismKind.GAUSSIAN),
        sensitivity=SampledSensitivity(m=8, seed=44),
        attack=ATTACK, master_seed=777,
        epsilon_grid=(8.0, 2.0, 0.5), repeats_per_point=2,
    )
    base.update(overrides)
    return SweepConfig(**base)


u64 = st.integers(0, 2**64 - 1)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def synthetic_specs(draw):
    num_classes, per_class = draw(st.integers(1, 6)), draw(st.integers(5, 40))
    most = num_classes * per_class // 5
    counts = draw(st.lists(st.integers(1, most), min_size=5, max_size=5))
    return SyntheticDataSpec(num_classes, per_class, draw(st.integers(1, 16)), draw(nonnegative),
                             draw(u64), *counts)


@st.composite
def sweep_configs(draw):
    train = st.builds(
        TrainConfig, hidden_dims=st.lists(st.integers(1, 64), max_size=3).map(tuple),
        epochs=st.integers(1, 10**6), learning_rate=nonnegative, seed=u64,
        init_scale=positive, weight_decay=nonnegative,
    )
    grid = tuple(draw(st.lists(positive, min_size=1, max_size=8, unique=True)))
    epsilon_grid, scale_grid = (grid, None) if draw(st.booleans()) else (None, grid)
    return SweepConfig(
        dataset=draw(st.one_of(
            synthetic_specs(),
            st.builds(CsvDataSpec, *[st.text()] * 5, st.none() | st.integers(1, 100)),
        )),
        pretrain=draw(train),
        finetune=draw(train),
        mechanisms=tuple(draw(st.lists(st.sampled_from(MechanismKind), min_size=1, unique=True))),
        sensitivity=draw(st.one_of(
            st.builds(SampledSensitivity, st.integers(1, 10**6), u64),
            st.builds(Sensitivity, st.sampled_from(NormKind), positive),
        )),
        attack=draw(st.builds(
            AttackClassifierConfig, epochs=st.integers(0, 10**5), seed=u64,
            hidden_layers=st.integers(1, 8), hidden_width=st.integers(1, 128),
            learning_rate=positive, train_pairs=st.integers(1, 5000).map(lambda k: 2 * k),
        )),
        master_seed=draw(u64),
        epsilon_grid=epsilon_grid,
        scale_grid=scale_grid,
        delta=draw(st.floats(0.0, 1.0, exclude_max=True)),
        repeats_per_point=draw(st.integers(1, 100)),
    )


@pytest.fixture(scope="module")
def small_report():
    return run_sweep(small_config())


class TestUtilityLoss:
    def test_equal_metrics_lose_nothing(self):
        assert utility_loss(0.73, 0.73) == 0.0

    def test_half_of_baseline(self):
        assert utility_loss(0.5, 1.0) == 0.5

    def test_noise_can_help(self):
        assert utility_loss(0.6, 0.5) < 0.0

    def test_zero_baseline_error(self):
        with pytest.raises(ValueError):
            utility_loss(0.1, 0.0)


class TestSweepConfigValidation:
    def test_both_grids_rejected(self):
        with pytest.raises(ValueError):
            small_config(scale_grid=(0.1,))

    def test_no_grid_rejected(self):
        with pytest.raises(ValueError):
            small_config(epsilon_grid=None)

    def test_empty_mechanisms_rejected(self):
        with pytest.raises(ValueError):
            small_config(mechanisms=())

    def test_duplicate_mechanisms_rejected(self):
        with pytest.raises(ValueError):
            small_config(mechanisms=(MechanismKind.LOGISTIC, MechanismKind.LOGISTIC))

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(ValueError):
            small_config(epsilon_grid=(1.0, -2.0))

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError):
            small_config(repeats_per_point=0)


class TestSyntheticDataSpec:
    def test_split_sizes(self):
        splits = DATA.load()
        assert [len(splits[k]) for k in ("pretrain", "finetune", "holdout", "shadow_in", "shadow_out")] == [150, 50, 50, 25, 25]

    def test_splits_are_disjoint_slices_of_the_source(self):
        splits = DATA.load()
        stacked = np.vstack([splits[k].features for k in ("pretrain", "finetune", "holdout", "shadow_in", "shadow_out")])
        assert len(np.unique(stacked, axis=0)) == len(stacked)

    def test_oversubscribed_splits_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(DATA, pretrain=1000)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="^shadow_out must be >= 1, got 0$"):
            dataclasses.replace(DATA, shadow_out=0)


def test_csv_spec_rejects_zero_classes():
    with pytest.raises(ValueError, match="^num_classes must be >= 1, got 0$"):
        CsvDataSpec("a.csv", "b.csv", "c.csv", "d.csv", "e.csv", num_classes=0)


class TestRunSweep:
    def test_single_cell_gives_single_row(self):
        cfg = small_config(mechanisms=(MechanismKind.LOGISTIC,), epsilon_grid=(2.0,), repeats_per_point=1)
        report = run_sweep(cfg)
        assert len(report.rows) == 1
        assert report.rows[0].repeat_index == 0

    def test_row_count_invariant(self, small_report):
        cfg = small_report.config
        assert len(small_report.rows) == len(cfg.mechanisms) * len(cfg.epsilon_grid) * cfg.repeats_per_point

    def test_identical_seed_identical_report(self, small_report):
        assert run_sweep(small_config()) == small_report

    def test_budget_bookkeeping_round_trips(self, small_report):
        sens = small_report.sensitivity
        for row in small_report.rows:
            norm = NormKind.L2 if row.mechanism is MechanismKind.GAUSSIAN else NormKind.L1
            value = sens.delta_l2 if norm is NormKind.L2 else sens.delta_l1
            delta = small_report.config.delta if row.mechanism is MechanismKind.GAUSSIAN else 0.0
            spec = MechanismSpec(row.mechanism, row.scale, delta)
            back = budget_for_scale(spec, Sensitivity(norm, value))
            assert math.isclose(back.epsilon, row.epsilon, rel_tol=1e-12)

    def test_norm_discipline(self, small_report):
        sens = small_report.sensitivity
        factor = math.sqrt(2 * math.log(1.25 / small_report.config.delta))
        for row in small_report.rows:
            if row.mechanism is MechanismKind.GAUSSIAN:
                assert math.isclose(row.scale, factor * sens.delta_l2 / row.epsilon, rel_tol=1e-12)
            else:
                assert math.isclose(row.scale, sens.delta_l1 / row.epsilon, rel_tol=1e-12)

    def test_gaussian_with_zero_delta_errors(self):
        with pytest.raises(ValueError):
            run_sweep(small_config(mechanisms=(MechanismKind.GAUSSIAN,), delta=0.0))

    def test_fixed_sensitivity_wrong_norm_errors(self):
        cfg = small_config(
            mechanisms=(MechanismKind.GAUSSIAN,),
            sensitivity=Sensitivity(NormKind.L1, 0.5),
        )
        with pytest.raises(ValueError):
            run_sweep(cfg)

    @pytest.mark.parametrize("overrides, message", [
        (dict(delta=0.0), "gaussian mechanism needs delta in"),
        (dict(sensitivity=Sensitivity(NormKind.L1, 0.5)), "gaussian mechanism needs l2 sensitivity"),
    ])
    def test_calibration_checked_before_training(self, monkeypatch, overrides, message):
        calls = []
        monkeypatch.setattr("logidp.experiments.pretrain_encoder", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=message):
            run_sweep(small_config(**overrides))
        assert calls == []

    @pytest.mark.parametrize("kind, norm, delta, message", [
        (MechanismKind.LOGISTIC, NormKind.L2, 0.0, "logistic mechanism needs l1 sensitivity, got l2"),
        (MechanismKind.LAPLACE, NormKind.L2, 0.0, "laplace mechanism needs l1 sensitivity, got l2"),
        (MechanismKind.GAUSSIAN, NormKind.L1, 1e-5, "gaussian mechanism needs l2 sensitivity, got l1"),
    ])
    def test_wrong_norm_message_same_on_every_path(self, kind, norm, delta, message):
        sens = Sensitivity(norm, 0.5)
        calls = (
            lambda: scale_for_budget(kind, PrivacyBudget(1.0, delta), sens),
            lambda: budget_for_scale(MechanismSpec(kind, 1.0, delta), sens),
            lambda: check_calibration(small_config(mechanisms=(kind,), sensitivity=sens, delta=1e-5), [kind]),
        )
        messages = []
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            messages.append(str(exc.value))
        assert messages == [message] * 3

    def test_fixed_sensitivity_drives_scales(self):
        cfg = small_config(
            mechanisms=(MechanismKind.LOGISTIC,),
            sensitivity=Sensitivity(NormKind.L1, 0.5),
            epsilon_grid=(2.0, 1.0, 0.25),
            repeats_per_point=1,
        )
        report = run_sweep(cfg)
        assert [r.scale for r in report.rows] == [0.25, 0.5, 2.0]

    def test_scale_grid_resolves_epsilons_descending(self):
        cfg = small_config(
            mechanisms=(MechanismKind.LOGISTIC,),
            sensitivity=Sensitivity(NormKind.L1, 0.5),
            epsilon_grid=None,
            scale_grid=(0.5, 0.125, 2.0),
            repeats_per_point=1,
        )
        report = run_sweep(cfg)
        assert [r.scale for r in report.rows] == [0.125, 0.5, 2.0]
        assert [r.epsilon for r in report.rows] == [4.0, 1.0, 0.25]

    def test_baseline_fields(self, small_report):
        base = small_report.unprotected_baseline
        assert set(base) == {"accuracy", "mia_accuracy"}
        assert 0.0 < base["accuracy"] <= 1.0
        assert 0.0 <= base["mia_accuracy"] <= 1.0

    def test_averaged_rows_are_repeat_means(self, small_report):
        for avg in small_report.averaged:
            cell = [r for r in small_report.rows
                    if r.mechanism is avg.mechanism and r.epsilon == avg.epsilon]
            assert len(cell) == small_report.config.repeats_per_point == avg.repeats
            assert avg.utility_loss == pytest.approx(np.mean([r.utility_loss for r in cell]))
            assert avg.mia_accuracy == pytest.approx(np.mean([r.mia_accuracy for r in cell]))

    def test_csv_dataset_spec_round_trips_through_files(self, tmp_path, small_report):
        splits = DATA.load()
        paths = {}
        for name, ds in splits.items():
            paths[name] = str(tmp_path / f"{name}.csv")
            save_dataset_csv(ds, paths[name])
        cfg = small_config(dataset=CsvDataSpec(**paths, num_classes=5))
        report = run_sweep(cfg)
        assert [r.utility_loss for r in report.rows] == [r.utility_loss for r in small_report.rows]


    def test_csv_class_count_inferred_over_all_splits(self, tmp_path):
        splits = DATA.load()
        holdout = splits["holdout"]
        splits["holdout"] = holdout.subset(np.flatnonzero(holdout.labels < 4))
        paths = {}
        for name, ds in splits.items():
            paths[name] = str(tmp_path / f"{name}.csv")
            save_dataset_csv(ds, paths[name])
        loaded = CsvDataSpec(**paths).load()
        assert {d.num_classes for d in loaded.values()} == {5}
        assert loaded["holdout"].labels.max() == 3
        assert np.array_equal(loaded["holdout"].features, splits["holdout"].features)


class TestEmitReport:
    def test_csv_row_count(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(small_report, path, "csv")
        lines = path.read_text().splitlines()
        assert len(lines) == len(small_report.rows) + 1

    def test_empty_report_is_header_only(self, small_report, tmp_path):
        empty = dataclasses.replace(small_report, rows=())
        path = tmp_path / "empty.csv"
        emit_report(empty, path, "csv")
        assert path.read_text() == "mechanism,epsilon,scale,utility_loss,mia_accuracy,repeat_index\n"

    def test_csv_deterministic_order(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(small_report, path, "csv")
        lines = path.read_text().splitlines()[1:]
        mechs = [l.split(",")[0] for l in lines]
        assert mechs == ["logistic"] * 6 + ["gaussian"] * 6
        eps = [float(l.split(",")[1]) for l in lines[:6]]
        assert eps == sorted(eps, reverse=True)

    def test_json_round_trip(self, small_report, tmp_path):
        path = tmp_path / "report.json"
        emit_report(small_report, path, "json")
        assert load_report(path) == small_report

    def test_two_emissions_byte_identical(self, small_report, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(small_report, a, "csv")
        emit_report(run_sweep(small_config()), b, "csv")
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format_rejected(self, small_report, tmp_path):
        with pytest.raises(ValueError):
            emit_report(small_report, tmp_path / "x.xml", "xml")

    def test_loaded_report_reemits_identical_bytes(self, small_report, tmp_path):
        saved = tmp_path / "report.json"
        emit_report(small_report, saved, "json")
        loaded = load_report(saved)
        for name, emit in (
            ("json", lambda r, p: emit_report(r, p, "json")),
            ("csv", lambda r, p: emit_report(r, p, "csv")),
            ("averaged", emit_averaged),
        ):
            emit(small_report, tmp_path / f"direct.{name}")
            emit(loaded, tmp_path / f"loaded.{name}")
            assert (tmp_path / f"loaded.{name}").read_bytes() == (tmp_path / f"direct.{name}").read_bytes()
        assert trend_statistics(loaded) == trend_statistics(small_report)

    def test_averaged_row_coerces_mechanism(self):
        row = AveragedRow("laplace", 1.0, 0.5, 0.1, 0.5, 3)
        assert row.mechanism is MechanismKind.LAPLACE

    @pytest.mark.parametrize("field, value", [
        ("utility_loss", float("nan")), ("mia_accuracy", 1.5), ("repeats", 0),
    ])
    def test_load_rejects_out_of_bounds_averaged_row(self, tmp_path, field, value):
        doc = report_to_json_dict(handmade_report([0.0, 0.1, 0.2], [0.6, 0.55, 0.5]))
        doc["averaged"][0][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"averaged: {field} must"):
            load_report(path)

    @pytest.mark.parametrize("baseline, message", [
        ({"accuracy": "high", "mia_accuracy": True}, "unprotected_baseline.accuracy must be a finite number, got 'high'"),
        ({"accuracy": 0.9, "mia_accuracy": True}, "unprotected_baseline.mia_accuracy must be a finite number, got True"),
        ({"accuracy": 1.5, "mia_accuracy": 0.5}, "unprotected_baseline.accuracy must be <= 1, got 1.5"),
    ])
    def test_load_rejects_baseline_that_is_not_two_rates(self, tmp_path, baseline, message):
        doc = report_to_json_dict(handmade_report([0.0, 0.1, 0.2], [0.6, 0.55, 0.5]))
        doc["unprotected_baseline"] = baseline
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_report(path)

    def test_load_rejects_averaged_rows_that_are_not_the_row_means(self, tmp_path):
        doc = report_to_json_dict(handmade_report([0.0, 0.1, 0.2], [0.6, 0.55, 0.5]))
        doc["averaged"][0]["utility_loss"] = 0.9
        doc["averaged"][1] = dict(doc["averaged"][0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"averaged: row \(logistic, epsilon 8\.0\) is not the mean"):
            load_report(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda rows: rows.pop(), "epsilon 2.0"),
        (lambda rows: rows.append(dict(rows[0], epsilon=0.5)), "epsilon 0.5"),
    ])
    def test_load_rejects_missing_or_extra_averaged_rows(self, tmp_path, edit, named):
        doc = report_to_json_dict(handmade_report([0.0, 0.1, 0.2], [0.6, 0.55, 0.5]))
        edit(doc["averaged"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"averaged: row \\(logistic, {named}\\)"):
            load_report(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda rows: [row.update(repeat_index=0) for row in rows],
         "(logistic, epsilon 8.0, repeat 0) is extra"),
        (lambda rows: rows[0].update(epsilon=3.0), "(logistic, epsilon 3.0, repeat 0) is extra"),
        (lambda rows: rows[0].update(mechanism="laplace"),
         "(laplace, epsilon 8.0, repeat 0) is extra"),
        (lambda rows: rows.pop(), "(gaussian, epsilon 0.5, repeat 1) is missing"),
    ], ids=["repeat-0-everywhere", "epsilon-off-grid", "mechanism-not-in-config", "row-missing"])
    def test_load_rejects_rows_that_are_not_the_config_cells(self, small_report, tmp_path,
                                                             edit, named):
        doc = json.loads(json.dumps(report_to_json_dict(small_report)))
        edit(doc["rows"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(named)):
            load_report(path)

    def test_rows_are_cells_in_any_order(self, small_report):
        rows = tuple(reversed(small_report.rows))
        assert dataclasses.replace(small_report, rows=rows).rows == rows

    def test_scale_grid_rows_are_keyed_by_scale(self):
        sens = Sensitivity(NormKind.L1, 0.5)
        cfg = small_config(mechanisms=(MechanismKind.LOGISTIC,), epsilon_grid=None,
                           scale_grid=(1.0, 0.5), repeats_per_point=1, sensitivity=sens)
        rows = [SweepRow(MechanismKind.LOGISTIC, 0.5 / s, s, 0.1, 0.5, 0) for s in (1.0, 0.5)]
        base = {"accuracy": 0.9, "mia_accuracy": 0.6}
        SweepReport(tuple(rows), sens, cfg, base)
        rows[1] = SweepRow(MechanismKind.LOGISTIC, 2.0, 0.25, 0.1, 0.5, 0)
        with pytest.raises(ValueError, match=re.escape("(logistic, scale 0.25, repeat 0) is extra")):
            SweepReport(tuple(rows), sens, cfg, base)

    def test_averaged_rows_are_computed_not_stored(self):
        assert "averaged" not in {f.name for f in dataclasses.fields(SweepReport)}


def handmade_report(utils, mias, mechanisms=(MechanismKind.LOGISTIC,), eps=None):
    eps = eps or tuple(8.0 / 2**k for k in range(len(utils)))
    sens = Sensitivity(NormKind.L1, 0.5)
    cfg = small_config(mechanisms=mechanisms, epsilon_grid=eps, repeats_per_point=1,
                       sensitivity=sens)
    rows = [SweepRow(kind, e, 0.5 / e, u, m, 0)
            for kind in mechanisms for e, u, m in zip(eps, utils, mias)]
    return SweepReport(tuple(rows), sens, cfg, {"accuracy": 0.9, "mia_accuracy": 0.6})


class TestTrendStatistics:
    def test_perfectly_monotone_series(self):
        report = handmade_report([0.0, 0.1, 0.2, 0.3], [0.60, 0.55, 0.52, 0.50])
        stats = trend_statistics(report)[MechanismKind.LOGISTIC]
        assert stats.spearman_eps_vs_utility == -1.0
        assert stats.spearman_eps_vs_mia == 1.0
        assert not stats.utility_degenerate

    def test_constant_series_is_degenerate_zero(self):
        report = handmade_report([0.2, 0.2, 0.2], [0.5, 0.5, 0.5])
        stats = trend_statistics(report)[MechanismKind.LOGISTIC]
        assert stats.spearman_eps_vs_utility == 0.0
        assert stats.utility_degenerate
        assert stats.spearman_eps_vs_mia == 0.0
        assert stats.mia_degenerate

    def test_too_few_epsilons_error(self):
        report = handmade_report([0.1, 0.2], [0.5, 0.5])
        with pytest.raises(ValueError):
            trend_statistics(report)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_scipy_spearman(self, data):
        eps = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=40, unique=True))
        # values from a small pool, so that ties are common
        pool = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
        series = [data.draw(st.lists(st.sampled_from(pool), min_size=len(eps), max_size=len(eps)))
                  for _ in range(2)]
        stats = trend_statistics(handmade_report(*series, eps=tuple(eps)))[MechanismKind.LOGISTIC]
        got = [(stats.spearman_eps_vs_utility, stats.utility_degenerate),
               (stats.spearman_eps_vs_mia, stats.mia_degenerate)]
        for values, (rho, degenerate) in zip(series, got):
            if len(set(values)) == 1:
                assert (rho, degenerate) == (0.0, True)
            else:
                expected = spearmanr(eps, values).statistic
                assert np.float64(rho).tobytes() == np.float64(expected).tobytes()
                assert not degenerate


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = small_config()
        assert config_from_json_dict(config_to_json_dict(cfg)) == cfg

    def test_round_trip_through_json_text(self):
        cfg = small_config(
            sensitivity=Sensitivity(NormKind.L1, 0.25),
            mechanisms=(MechanismKind.LOGISTIC, MechanismKind.LAPLACE),
        )
        text = json.dumps(config_to_json_dict(cfg))
        assert config_from_json_dict(json.loads(text)) == cfg

    def test_csv_dataset_round_trip(self):
        cfg = small_config(dataset=CsvDataSpec("a.csv", "b.csv", "c.csv", "d.csv", "e.csv", 5))
        assert config_from_json_dict(config_to_json_dict(cfg)) == cfg

    def test_unknown_dataset_type_rejected(self):
        obj = config_to_json_dict(small_config())
        obj["dataset"]["type"] = "parquet"
        with pytest.raises(ValueError):
            config_from_json_dict(obj)

    def test_misspelt_training_key_rejected(self):
        obj = json.loads(json.dumps(config_to_json_dict(small_config())))
        obj["finetune"]["weight_decy"] = 0.5
        with pytest.raises(ValueError, match="finetune: TrainConfig has no field 'weight_decy'"):
            config_from_json_dict(obj)

    def test_misspelt_top_level_key_rejected(self):
        obj = json.loads(json.dumps(config_to_json_dict(small_config())))
        obj["repeats_per_pont"] = obj.pop("repeats_per_point")
        with pytest.raises(ValueError, match="SweepConfig has no field 'repeats_per_pont'"):
            config_from_json_dict(obj)

    @pytest.mark.parametrize("block", ["dataset", "finetune", "sensitivity", "attack"])
    def test_missing_block_rejected(self, block):
        obj = json.loads(json.dumps(config_to_json_dict(small_config())))
        del obj[block]
        with pytest.raises(ValueError, match=f"SweepConfig is missing field '{block}'"):
            config_from_json_dict(obj)

    def test_fixed_sensitivity_block_loads(self):
        obj = json.loads(json.dumps(config_to_json_dict(small_config())))
        obj["sensitivity"] = {"kind": "fixed", "norm": "l1", "value": 0.5}
        assert config_from_json_dict(obj).sensitivity == Sensitivity(NormKind.L1, 0.5)

    @pytest.mark.parametrize("value", [0, -0.5, float("inf"), float("nan")])
    def test_nonpositive_fixed_sensitivity_rejected_at_load(self, value):
        obj = json.loads(json.dumps(config_to_json_dict(small_config())))
        obj["sensitivity"] = {"kind": "fixed", "norm": "l1", "value": value}
        rule = "> 0" if math.isfinite(value) else "a finite number"
        with pytest.raises(ValueError, match=f"^sensitivity: value must be {rule}, got {value}$"):
            config_from_json_dict(obj)

    def test_omitted_training_keys_take_train_config_defaults(self):
        obj = json.loads(json.dumps(config_to_json_dict(small_config())))
        # FINE sets only epochs, learning_rate and seed
        obj["finetune"] = {"epochs": 80, "learning_rate": 0.5, "seed": 2}
        cfg = config_from_json_dict(obj)
        assert cfg.finetune.init_scale == TrainConfig().init_scale
        assert cfg.finetune.hidden_dims == TrainConfig().hidden_dims
        assert cfg == small_config()

    @settings(max_examples=150, deadline=None)
    @given(cfg=sweep_configs())
    def test_round_trip_is_exact(self, cfg):
        text = json.dumps(config_to_json_dict(cfg))
        back = config_from_json_dict(json.loads(text))
        assert back == cfg
        assert json.dumps(config_to_json_dict(back)) == text

    def test_report_loader_names_bad_keys(self, small_report):
        obj = json.loads(json.dumps(report_to_json_dict(small_report)))
        del obj["averaged"]
        with pytest.raises(ValueError, match="SweepReport is missing field 'averaged'"):
            report_from_json_dict(obj)
        obj = json.loads(json.dumps(report_to_json_dict(small_report)))
        obj["rows"][0]["repeat"] = 0
        with pytest.raises(ValueError, match="rows: SweepRow has no field 'repeat'"):
            report_from_json_dict(obj)


def classes_reached(*roots) -> set[type]:
    """Every dataclass reachable from roots through their resolved field
    annotations, into unions and tuples."""
    seen, todo = set(), list(roots)
    while todo:
        tp = todo.pop()
        if dataclasses.is_dataclass(tp) and tp not in seen:
            seen.add(tp)
            todo.extend(typing.get_type_hints(tp).values())
        todo.extend(typing.get_args(tp))
    return seen


# one valid instance of each class the JSON reader builds: a report and its
# stored averaged rows, and every block nested in them
READER_SAMPLES = {type(obj): obj for obj in (
    SweepReport((), Sensitivity(NormKind.L1, 0.5), small_config(), {"accuracy": 0.9, "mia_accuracy": 0.5}),
    SweepRow(MechanismKind.LOGISTIC, 2.0, 0.25, 0.1, 0.5, 0),
    AveragedRow(MechanismKind.LOGISTIC, 2.0, 0.25, 0.1, 0.5, 5),
    small_config(), DATA, CsvDataSpec("a.csv", "b.csv", "c.csv", "d.csv", "e.csv", 5), PRE,
    SampledSensitivity(8, 44), Sensitivity(NormKind.L1, 0.5), ATTACK,
    SensitivityEstimate(0.3, 0.2, 1, 44, ((0.3, 0.2),)),
)}
INTEGER_FIELDS = [
    pytest.param(cls, name, hint == tuple[int, ...], id=f"{cls.__name__}.{name}")
    for cls in READER_SAMPLES for name, hint in typing.get_type_hints(cls).items()
    if hint in (int, int | None, tuple[int, ...])
]


class TestIntegerFields:
    """Each integer field checks its own type in its constructor, so a value
    built in Python and one read from JSON meet the same rule."""

    def test_samples_cover_every_class_the_reader_builds(self):
        assert classes_reached(SweepReport, AveragedRow) == set(READER_SAMPLES)
        names = {p.id for p in INTEGER_FIELDS}
        assert {"TrainConfig.hidden_dims", "CsvDataSpec.num_classes", "SweepConfig.master_seed",
                "SensitivityEstimate.seed", "SweepRow.repeat_index"} <= names

    @pytest.mark.parametrize("cls, field, is_tuple", INTEGER_FIELDS)
    @pytest.mark.parametrize("bad", [2.5, 4.0, True, "3"])
    def test_non_integer_rejected_from_python(self, cls, field, is_tuple, bad):
        value = (bad,) if is_tuple else bad
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(bad))}$"):
            dataclasses.replace(READER_SAMPLES[cls], **{field: value})

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(hidden_dims=(np.int32(6),), epochs=np.int64(60), seed=np.uint64(1))
        assert cfg.hidden_dims == (6,) and type(cfg.hidden_dims[0]) is int


# constructors the JSON reader does not build, walked for their float fields
FLOAT_ONLY_SAMPLES = {type(obj): obj for obj in (
    MechanismSpec(MechanismKind.LOGISTIC, 1.0), PrivacyBudget(1.0),
    LogisticParams(), LaplaceParams(), GaussianParams(),
)}
FLOAT_FIELDS = [
    pytest.param(cls, name, hint != float, id=f"{cls.__name__}.{name}")
    for cls in (*READER_SAMPLES, *FLOAT_ONLY_SAMPLES) for name, hint in typing.get_type_hints(cls).items()
    if hint in (float, tuple[float, ...] | None)
]


class TestFloatFields:
    """Each float field checks itself through rng.check_float in its
    constructor, so a bool, a string or a non-finite value fails the same way
    built in Python and read from JSON."""

    def test_walk_reaches_every_kind_of_float_field(self):
        names = {p.id for p in FLOAT_FIELDS}
        assert {"SweepConfig.epsilon_grid", "SweepConfig.scale_grid", "SweepConfig.delta",
                "SyntheticDataSpec.cluster_spread", "TrainConfig.learning_rate", "Sensitivity.value",
                "AttackClassifierConfig.learning_rate", "SensitivityEstimate.delta_l1",
                "SweepRow.mia_accuracy", "AveragedRow.utility_loss", "MechanismSpec.delta",
                "PrivacyBudget.epsilon", "LogisticParams.s", "LaplaceParams.b",
                "GaussianParams.mu"} <= names

    @pytest.mark.parametrize("cls, field, is_tuple", FLOAT_FIELDS)
    @pytest.mark.parametrize("bad", [True, "1.5", math.nan])
    def test_non_number_rejected_from_python(self, cls, field, is_tuple, bad):
        value = (bad,) if is_tuple else bad
        sample = READER_SAMPLES.get(cls) or FLOAT_ONLY_SAMPLES[cls]
        with pytest.raises(ValueError, match=f"^{field} must be a finite number, got {re.escape(repr(bad))}$"):
            dataclasses.replace(sample, **{field: value})

    @pytest.mark.parametrize("bad, rule", [
        (True, "a finite number, got True"), ("1.5", "a finite number, got '1.5'"),
        (math.nan, "a finite number, got nan"), (-0.5, ">= 0, got -0.5"),
    ])
    def test_per_pair_norms_are_nonnegative_numbers(self, bad, rule):
        for pair in ((bad, 0.2), (0.3, bad)):
            with pytest.raises(ValueError, match=f"^per_pair_norms must be {re.escape(rule)}$"):
                dataclasses.replace(READER_SAMPLES[SensitivityEstimate], per_pair_norms=(pair,))

    @pytest.mark.parametrize("block, key, value, message", [
        ("finetune", "learning_rate", True, "finetune: learning_rate must be a finite number, got True"),
        ("dataset", "cluster_spread", True, "dataset: cluster_spread must be a finite number, got True"),
        ("sensitivity", "value", True, "sensitivity: value must be a finite number, got True"),
        (None, "epsilon_grid", ["1.5", 0.5, 0.25], "epsilon_grid must be a finite number, got '1.5'"),
        (None, "epsilon_grid", [True, 0.5, 0.25], "epsilon_grid must be a finite number, got True"),
    ])
    def test_non_number_rejected_from_json(self, block, key, value, message):
        obj = json.loads(json.dumps(config_to_json_dict(small_config(sensitivity=Sensitivity(NormKind.L1, 0.5)))))
        (obj[block] if block else obj)[key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_json_dict(obj)

    def test_numbers_keep_the_value_they_were_given(self):
        obj = json.loads(json.dumps(config_to_json_dict(small_config())))
        obj["finetune"]["learning_rate"] = 1
        cfg = config_from_json_dict(obj)
        assert type(cfg.finetune.learning_rate) is int
        assert config_to_json_dict(cfg)["finetune"]["learning_rate"] == 1
        assert TrainConfig(learning_rate=np.float32(0.25), weight_decay=np.int64(0)).learning_rate == 0.25
        assert small_config(epsilon_grid=(np.float32(2.0), 1)).epsilon_grid == (2.0, 1.0)
