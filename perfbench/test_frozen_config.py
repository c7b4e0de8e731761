"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_frozen_config.py

The byte-for-byte sweep comparison runs the frozen acceptance sweep twice
(about 40 s on 2 cores).
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from logidp.cli import main as cli_main  # noqa: E402
from logidp.experiments import config_from_json_dict, emit_report, run_sweep  # noqa: E402
from spans import Span, self_times  # noqa: E402


def _sweep_config():
    spec = importlib.util.spec_from_file_location("acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SWEEP_CONFIG


def test_default_seed_sweep_is_the_frozen_acceptance_config():
    cfg = workloads.config_for("sweep", workloads.DEFAULT_SEED)
    assert config_from_json_dict(cfg) == _sweep_config()


def test_default_seed_sweep_report_matches_run_sweep(tmp_path):
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(workloads.config_for("sweep", workloads.DEFAULT_SEED)))
    via_cli = tmp_path / "cli.json"
    assert cli_main(workloads.argv_for("sweep", config_path, via_cli)) == 0
    direct = tmp_path / "direct.json"
    emit_report(run_sweep(_sweep_config()), direct, "json")
    assert via_cli.read_bytes() == direct.read_bytes()


def _without_seeds(obj):
    if isinstance(obj, dict):
        return {k: _without_seeds(v) for k, v in obj.items() if "seed" not in k}
    return obj


def test_other_seeds_change_only_seeds():
    for workload in workloads.WORKLOADS:
        base = workloads.config_for(workload, workloads.DEFAULT_SEED)
        for seed in (1, 17, 2**32 - 1):
            other = workloads.config_for(workload, seed)
            assert other != base
            assert _without_seeds(other) == _without_seeds(base)
            config_from_json_dict(other)


def _report(cfg):
    rows = [
        {"mechanism": kind, "epsilon": eps, "scale": 0.1, "utility_loss": 0.2,
         "mia_accuracy": 0.5, "repeat_index": r}
        for kind in cfg["mechanisms"]
        for eps in cfg["epsilon_grid"]
        for r in range(cfg["repeats_per_point"])
    ]
    return {"rows": rows, "averaged": [], "unprotected_baseline": {"accuracy": 0.5, "mia_accuracy": 0.5}}


def test_check_report_counts_bad_and_missing_cells(tmp_path):
    cfg = workloads.config_for("sweep", workloads.DEFAULT_SEED)
    out = tmp_path / "report.json"
    report = _report(cfg)
    out.write_text(json.dumps(report))
    assert workloads.check_report(cfg, out) == []

    report["rows"][0]["utility_loss"] = 1.5
    report["rows"][1]["mia_accuracy"] = math.nan
    del report["rows"][2]
    out.write_text(json.dumps(report))
    assert len(workloads.check_report(cfg, out)) == 3


def test_self_time_subtracts_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, None, "job0"),
        Span("a", 1.0, 4.0, 0, "job0"),
        Span("b", 2.0, 3.0, 1, "job0"),
        Span("c", 5.0, 6.0, 0, "job0"),
    ]
    selfs = self_times(spans)
    assert selfs == [6.0, 2.0, 1.0, 1.0]
    assert sum(selfs) == spans[0].end - spans[0].start
