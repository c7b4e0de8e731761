"""Workload definitions: seeded config documents, CLI argv and output checks.

Every workload is a `logidp` CLI command run on a config JSON document that
this module builds from the benchmark seed. Seed 0 reproduces the frozen
acceptance sweep config exactly; any other seed shifts every seed in the
document by the same offset, so data, pairs, noise and attack draws change
while every array shape, epoch count and grid size (and therefore the work
done) stays the same.

Nothing here imports `logidp`: the launcher uses this module before the
package is imported, and the program only ever sees the generated JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

WORKLOADS = ("sweep", "audit", "release")
DEFAULT_SEED = 0

# The frozen acceptance sweep: 3 mechanisms x 7 epsilon x 5 repeats.
_SWEEP_GRID = [2.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
# The audit extends the same halving grid to 9 points.
_AUDIT_GRID = [2.0 * 0.5**k for k in range(9)]
# Dense audit: each (mechanism, epsilon) point is drawn this many times.
# Scaled down from 20 so that several jobs fit in one run.
AUDIT_REPEATS = 10
RELEASE_EPSILON = 1.0
RELEASE_PAIRS = 150


def _offset(seed: int) -> int:
    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must lie in [0, 2**32), got {seed}")
    return seed


def _base_config(seed: int) -> dict:
    o = _offset(seed)
    return {
        "dataset": {
            "type": "synthetic",
            "num_classes": 10,
            "per_class": 400,
            "feature_dim": 32,
            "cluster_spread": 1.0,
            "seed": 126 + o,
            "pretrain": 2000,
            "finetune": 500,
            "holdout": 500,
            "shadow_in": 500,
            "shadow_out": 500,
        },
        "pretrain": {
            "hidden_dims": [4],
            "epochs": 200,
            "learning_rate": 0.1,
            "seed": 101 + o,
            "init_scale": 0.05,
            "weight_decay": 0.0,
        },
        "finetune": {
            "hidden_dims": [8],
            "epochs": 300,
            "learning_rate": 0.5,
            "seed": 202 + o,
            "init_scale": 0.1,
            "weight_decay": 0.03,
        },
        "mechanisms": ["logistic", "laplace", "gaussian"],
        "sensitivity": {"kind": "sampled", "m": 50, "seed": 303 + o},
        "attack": {
            "epochs": 2000,
            "seed": 7 + o,
            "hidden_layers": 5,
            "hidden_width": 64,
            "learning_rate": 0.01,
            "train_pairs": 1000,
        },
        "delta": 1e-05,
        "repeats_per_point": 5,
        "master_seed": 1000 + o,
        "epsilon_grid": list(_SWEEP_GRID),
    }


def config_for(workload: str, seed: int) -> dict:
    """The config document the workload's CLI command reads."""
    cfg = _base_config(seed)
    if workload == "sweep":
        return cfg
    if workload == "audit":
        cfg["epsilon_grid"] = list(_AUDIT_GRID)
        cfg["repeats_per_point"] = AUDIT_REPEATS
        cfg["attack"]["epochs"] = 200
        cfg["sensitivity"]["m"] = 4
        return cfg
    if workload == "release":
        cfg["mechanisms"] = ["logistic"]
        cfg["sensitivity"]["m"] = RELEASE_PAIRS
        return cfg
    raise ValueError(f"unknown workload {workload!r}")


def warmup_config_for(workload: str, seed: int) -> dict:
    """Same data shapes as the workload, a few epochs of each stage.

    The first full-size training call in a process pays about a second of
    one-off cost (allocator and BLAS thread start-up); a CLI user pays it on
    every run, so it belongs in set-up, not in the timed job.
    """
    cfg = config_for(workload, seed)
    cfg["pretrain"]["epochs"] = 10
    cfg["finetune"]["epochs"] = 10
    cfg["attack"]["epochs"] = 10
    cfg["sensitivity"]["m"] = 2
    cfg["epsilon_grid"] = cfg["epsilon_grid"][:1]
    cfg["repeats_per_point"] = 1
    return cfg


def argv_for(workload: str, config_path: Path, out: Path) -> list[str]:
    """Arguments for `logidp.cli.main`."""
    if workload in ("sweep", "audit"):
        return ["sweep", "--config", str(config_path), "--out", str(out), "--format", "json"]
    return [
        "protect", "--config", str(config_path), "--out", str(out),
        "--mechanism", "logistic", "--epsilon", repr(RELEASE_EPSILON),
    ]


def units_per_job(workload: str, cfg: dict) -> int:
    """Sweep cells for sweep/audit; one release round trip for release."""
    if workload == "release":
        return 1
    return len(cfg["mechanisms"]) * len(cfg["epsilon_grid"]) * cfg["repeats_per_point"]


def output_files(workload: str, out: Path) -> list[Path]:
    if workload == "release":
        return [Path(str(out) + suffix) for suffix in (".theta.bin", ".omega.bin", ".json")]
    return [out]


def output_sha256(workload: str, out: Path) -> str:
    digest = hashlib.sha256()
    for path in output_files(workload, out):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_report(cfg: dict, out: Path) -> list[str]:
    """Problems with one sweep report: one entry per bad or missing cell,
    plus one for any non-finite averaged row or baseline.

    Every expected cell must be present once with finite numbers and
    utility_loss <= 1.
    """
    report = json.loads(out.read_text())
    expected = {
        (kind, eps, r)
        for kind in cfg["mechanisms"]
        for eps in cfg["epsilon_grid"]
        for r in range(cfg["repeats_per_point"])
    }
    problems = []
    seen = set()
    for row in report["rows"]:
        key = (row["mechanism"], row["epsilon"], row["repeat_index"])
        values = (row["scale"], row["utility_loss"], row["mia_accuracy"])
        if key in seen or key not in expected:
            problems.append(f"unexpected or repeated cell {key}")
        elif not _finite(*values) or row["utility_loss"] > 1.0:
            problems.append(f"bad cell {key}: {values}")
        seen.add(key)
    problems += [f"missing cell {key}" for key in sorted(expected - seen)]
    averaged = [(r["scale"], r["utility_loss"], r["mia_accuracy"]) for r in report["averaged"]]
    baseline = report["unprotected_baseline"]
    if not _finite(baseline["accuracy"], baseline["mia_accuracy"], *sum(averaged, ())):
        problems.append("non-finite averaged row or baseline")
    return problems
