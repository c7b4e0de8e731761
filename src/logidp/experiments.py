"""Privacy/utility/attack sweep orchestration and report plumbing.

A sweep trains the two-stage model once, estimates (or accepts) sensitivity,
then walks a mechanism x epsilon grid: each row protects the head at the
budget-derived scale with a row-specific derived noise seed, measures
relative utility loss on a held-out split, and scores a shadow-trained
membership attack against the protected outputs. Reports serialize to CSV
(plot-ready rows) and JSON (full provenance); identical configs produce
byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.stats import spearmanr

from .mechanisms import (
    _REQUIRED_NORM,
    MechanismKind,
    MechanismSpec,
    NormKind,
    PrivacyBudget,
    Sensitivity,
    budget_for_scale,
    scale_for_budget,
)
from .mia import (
    AttackClassifier,
    AttackClassifierConfig,
    attack_accuracy,
    build_attack_dataset,
    train_attack_classifier,
)
from .pipeline import (
    Dataset,
    TrainConfig,
    accuracy,
    encode,
    finetune_head,
    load_dataset_csv,
    make_synthetic_dataset,
    predict_from_representations,
    pretrain_encoder,
)
from .protection import protect_existing
from .rng import derive_seed
from .sensitivity import (
    SensitivityEstimate,
    _from_json_dict,
    sample_sensitivity,
)
from .weights import WeightVector

_SPLIT_NAMES = ("pretrain", "finetune", "holdout", "shadow_in", "shadow_out")


@dataclass(frozen=True)
class SyntheticDataSpec:
    """Seeded synthetic source carved into the five sweep splits."""

    num_classes: int
    per_class: int
    feature_dim: int
    cluster_spread: float
    seed: int
    pretrain: int
    finetune: int
    holdout: int
    shadow_in: int
    shadow_out: int

    def __post_init__(self):
        counts = self.split_counts()
        if any(c < 1 for c in counts.values()):
            raise ValueError("every split must get at least one record")
        total = self.num_classes * self.per_class
        if sum(counts.values()) > total:
            raise ValueError(
                f"splits need {sum(counts.values())} records, dataset has {total}"
            )

    def split_counts(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _SPLIT_NAMES}

    def load(self) -> dict[str, Dataset]:
        full = make_synthetic_dataset(
            self.num_classes, self.per_class, self.feature_dim, self.cluster_spread, self.seed
        )
        splits = {}
        start = 0
        for name in _SPLIT_NAMES:
            count = getattr(self, name)
            splits[name] = full.subset(range(start, start + count))
            start += count
        return splits


@dataclass(frozen=True)
class CsvDataSpec:
    """Five pre-split CSV files, one per sweep role."""

    pretrain: str
    finetune: str
    holdout: str
    shadow_in: str
    shadow_out: str
    num_classes: int | None = None

    def load(self) -> dict[str, Dataset]:
        splits = {
            name: load_dataset_csv(getattr(self, name), num_classes=self.num_classes)
            for name in _SPLIT_NAMES
        }
        classes = {d.num_classes for d in splits.values()}
        if len(classes) != 1:
            raise ValueError(f"splits disagree on num_classes: {sorted(classes)}")
        return splits


@dataclass(frozen=True)
class SampledSensitivity:
    """Estimate sensitivity by leave-one-out sampling at sweep time."""

    m: int
    seed: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")


@dataclass(frozen=True)
class FixedSensitivity:
    """Externally supplied sensitivity for a single norm."""

    value: float
    norm: NormKind

    def __post_init__(self):
        object.__setattr__(self, "norm", NormKind(self.norm))
        if not (np.isfinite(self.value) and self.value > 0):
            raise ValueError(f"sensitivity value must be positive, got {self.value}")


@dataclass(frozen=True)
class SweepConfig:
    dataset: SyntheticDataSpec | CsvDataSpec
    pretrain: TrainConfig
    finetune: TrainConfig
    mechanisms: tuple[MechanismKind, ...]
    sensitivity: SampledSensitivity | FixedSensitivity
    attack: AttackClassifierConfig
    master_seed: int
    epsilon_grid: tuple[float, ...] | None = None
    scale_grid: tuple[float, ...] | None = None
    delta: float = 1e-5
    repeats_per_point: int = 5

    def __post_init__(self):
        object.__setattr__(
            self, "mechanisms", tuple(MechanismKind(m) for m in self.mechanisms)
        )
        if not self.mechanisms:
            raise ValueError("mechanisms must be nonempty")
        if len(set(self.mechanisms)) != len(self.mechanisms):
            raise ValueError("mechanisms must be distinct")
        if (self.epsilon_grid is None) == (self.scale_grid is None):
            raise ValueError("exactly one of epsilon_grid or scale_grid is required")
        for grid_name in ("epsilon_grid", "scale_grid"):
            grid = getattr(self, grid_name)
            if grid is None:
                continue
            grid = tuple(float(g) for g in grid)
            object.__setattr__(self, grid_name, grid)
            if not grid:
                raise ValueError(f"{grid_name} must be nonempty")
            if any(not (np.isfinite(g) and g > 0) for g in grid):
                raise ValueError(f"{grid_name} entries must be positive and finite")
            if len(set(grid)) != len(grid):
                raise ValueError(f"{grid_name} entries must be distinct")
        if self.repeats_per_point < 1:
            raise ValueError(f"repeats_per_point must be >= 1, got {self.repeats_per_point}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must fit in u64, got {self.master_seed}")
        if not (np.isfinite(self.delta) and 0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class SweepRow:
    mechanism: MechanismKind
    epsilon: float
    scale: float
    utility_loss: float
    mia_accuracy: float
    repeat_index: int

    def __post_init__(self):
        object.__setattr__(self, "mechanism", MechanismKind(self.mechanism))
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not (np.isfinite(self.utility_loss) and self.utility_loss <= 1.0):
            raise ValueError(f"utility_loss must be finite and <= 1, got {self.utility_loss}")
        if not 0.0 <= self.mia_accuracy <= 1.0:
            raise ValueError(f"mia_accuracy must lie in [0, 1], got {self.mia_accuracy}")
        if self.repeat_index < 0:
            raise ValueError(f"repeat_index must be >= 0, got {self.repeat_index}")


@dataclass(frozen=True)
class AveragedRow:
    """Repeat-mean of one (mechanism, epsilon) grid point."""

    mechanism: MechanismKind
    epsilon: float
    scale: float
    utility_loss: float
    mia_accuracy: float
    repeats: int

    def __post_init__(self):
        object.__setattr__(self, "mechanism", MechanismKind(self.mechanism))


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    averaged: tuple[AveragedRow, ...]
    sensitivity: SensitivityEstimate | FixedSensitivity
    config: SweepConfig
    unprotected_baseline: dict

    def __post_init__(self):
        grid = self.config.epsilon_grid or self.config.scale_grid
        expected = len(self.config.mechanisms) * len(grid) * self.config.repeats_per_point
        # rows may be stripped to () for header-only emission; anything else
        # must be the full mechanisms x grid x repeats block
        if self.rows and len(self.rows) != expected:
            raise ValueError(f"expected {expected} rows, got {len(self.rows)}")
        base = self.unprotected_baseline
        if set(base) != {"accuracy", "mia_accuracy"}:
            raise ValueError("unprotected_baseline must carry accuracy and mia_accuracy")


def utility_loss(protected_metric: float, unprotected_metric: float) -> float:
    """Relative performance drop: 1 - protected/unprotected.

    Negative when noise accidentally helps; undefined at a zero baseline.
    """
    if unprotected_metric == 0:
        raise ValueError("unprotected metric is zero, utility loss is undefined")
    return 1.0 - protected_metric / unprotected_metric


# --- pipeline stages ---------------------------------------------------------
# run_sweep and every CLI command build on these, so a given config and
# master seed train, sample and audit identically on every path.

def train_model(cfg: SweepConfig) -> tuple[dict[str, Dataset], WeightVector, WeightVector]:
    """Load the splits, pretrain the encoder, fine-tune the head: (splits, theta, omega)."""
    splits = cfg.dataset.load()
    theta = pretrain_encoder(splits["pretrain"], cfg.pretrain)
    omega = finetune_head(theta, splits["finetune"], cfg.finetune)
    return splits, theta, omega


def resolve_sensitivity(cfg: SweepConfig, theta: WeightVector, splits) -> SensitivityEstimate | FixedSensitivity:
    """The config's fixed sensitivity, or a leave-one-out sample over the finetune split."""
    source = cfg.sensitivity
    if isinstance(source, FixedSensitivity):
        return source
    return sample_sensitivity(theta, splits["finetune"], cfg.finetune, source.m, source.seed)


def sensitivity_for(kind: MechanismKind, record) -> Sensitivity:
    """The sensitivity in the norm the mechanism calibrates against."""
    required = _REQUIRED_NORM[kind]
    if isinstance(record, FixedSensitivity):
        if record.norm is not required:
            raise ValueError(
                f"{kind.value} mechanism needs {required.value} sensitivity, "
                f"config fixes {record.norm.value}"
            )
        return Sensitivity(required, record.value)
    value = record.delta_l1 if required is NormKind.L1 else record.delta_l2
    return Sensitivity(required, value)


def train_auditor(cfg: SweepConfig, theta: WeightVector, splits) -> AttackClassifier:
    """Shadow head on shadow_in, then the membership classifier on its outputs."""
    shadow_cfg = dataclasses.replace(
        cfg.finetune, seed=derive_seed(cfg.master_seed, "shadow-head")
    )
    shadow_omega = finetune_head(theta, splits["shadow_in"], shadow_cfg)
    records = build_attack_dataset(
        theta,
        shadow_omega,
        splits["shadow_in"],
        splits["shadow_out"],
        cfg.attack.train_pairs,
        derive_seed(cfg.master_seed, "attack-data"),
    )
    return train_attack_classifier(records, cfg.attack)


def mechanism_spec(cfg: SweepConfig, kind: MechanismKind, sens: Sensitivity, *,
                   epsilon: float | None = None, scale: float | None = None) -> MechanismSpec:
    """Spec at the given noise scale or, without one, the scale that spends
    epsilon. Only the gaussian mechanism carries the config's delta."""
    delta = cfg.delta if kind is MechanismKind.GAUSSIAN else 0.0
    if scale is not None:
        return MechanismSpec(kind, scale, delta)
    return scale_for_budget(kind, PrivacyBudget(epsilon, delta), sens)


def _grid_for(cfg: SweepConfig, kind: MechanismKind, sens: Sensitivity):
    """Per-mechanism (epsilon, spec) pairs, epsilon descending."""
    if cfg.epsilon_grid is not None:
        points = [(eps, mechanism_spec(cfg, kind, sens, epsilon=eps)) for eps in cfg.epsilon_grid]
    else:
        specs = [mechanism_spec(cfg, kind, sens, scale=scale) for scale in cfg.scale_grid]
        points = [(budget_for_scale(spec, sens).epsilon, spec) for spec in specs]
    points.sort(key=lambda p: -p[0])
    return points


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Train once, then measure every (mechanism, epsilon, repeat) cell."""
    splits, theta, omega = train_model(cfg)

    holdout = splits["holdout"]
    holdout_reps = encode(theta, holdout.features)
    clean_acc = accuracy(predict_from_representations(omega, holdout_reps), holdout.labels)

    sens_record = resolve_sensitivity(cfg, theta, splits)
    classifier = train_auditor(cfg, theta, splits)

    baseline_model = protect_existing(
        theta, omega, MechanismSpec(MechanismKind.LOGISTIC, 1.0),
        derive_seed(cfg.master_seed, "baseline-noise"),
    )
    baseline = {
        "accuracy": clean_acc,
        "mia_accuracy": attack_accuracy(
            classifier, baseline_model, splits["finetune"], holdout, 0,
            derive_seed(cfg.master_seed, "attack-eval-baseline"),
        ),
    }

    rows = []
    averaged = []
    for kind in cfg.mechanisms:
        sens = sensitivity_for(kind, sens_record)
        for eps_index, (eps, spec) in enumerate(_grid_for(cfg, kind, sens)):
            cell = []
            for repeat in range(cfg.repeats_per_point):
                noise_seed = derive_seed(cfg.master_seed, "noise", kind.value, eps_index, repeat)
                model = protect_existing(theta, omega, spec, noise_seed)
                noisy_acc = accuracy(
                    predict_from_representations(model.omega_noisy, holdout_reps), holdout.labels
                )
                mia = attack_accuracy(
                    classifier, model, splits["finetune"], holdout, 1,
                    derive_seed(cfg.master_seed, "attack-eval", kind.value, eps_index, repeat),
                )
                row = SweepRow(kind, eps, spec.scale, utility_loss(noisy_acc, clean_acc), mia, repeat)
                cell.append(row)
                rows.append(row)
            averaged.append(AveragedRow(
                kind, eps, spec.scale,
                float(np.mean([r.utility_loss for r in cell])),
                float(np.mean([r.mia_accuracy for r in cell])),
                cfg.repeats_per_point,
            ))
    return SweepReport(tuple(rows), tuple(averaged), sens_record, cfg, baseline)


@dataclass(frozen=True)
class TrendStats:
    spearman_eps_vs_utility: float
    spearman_eps_vs_mia: float
    utility_degenerate: bool
    mia_degenerate: bool


def _spearman(eps, values) -> tuple[float, bool]:
    if len(set(values)) == 1:
        return 0.0, True
    return float(spearmanr(eps, values).statistic), False


def trend_statistics(report: SweepReport) -> dict[MechanismKind, TrendStats]:
    """Rank correlation of epsilon against the repeat-averaged curves."""
    out = {}
    for kind in report.config.mechanisms:
        points = [a for a in report.averaged if a.mechanism is kind]
        if len({a.epsilon for a in points}) < 3:
            raise ValueError(f"need >= 3 distinct epsilon values for {kind.value}")
        eps = [a.epsilon for a in points]
        s_util, d_util = _spearman(eps, [a.utility_loss for a in points])
        s_mia, d_mia = _spearman(eps, [a.mia_accuracy for a in points])
        out[kind] = TrendStats(s_util, s_mia, d_util, d_mia)
    return out


# --- serialization ---------------------------------------------------------
# Each dataclass is its own JSON schema: dataclasses.asdict writes it and
# _from_json_dict reads it back through its constructor. A tagged union is a
# (tag key, {tag: class}) pair.

_DATASET = ("type", {"synthetic": SyntheticDataSpec, "csv": CsvDataSpec})
_SOURCE = ("kind", {"sampled": SampledSensitivity, "fixed": FixedSensitivity})
_ESTIMATE = ("kind", {"sampled": SensitivityEstimate, "fixed": FixedSensitivity})


def _to_tagged(union, obj) -> dict:
    key, table = union
    return {key: next(t for t, cls in table.items() if type(obj) is cls), **dataclasses.asdict(obj)}


def _from_tagged(union, obj):
    key, table = union
    tag = obj.get(key) if isinstance(obj, dict) else None
    if tag not in table:
        raise ValueError(f"{key} must be one of {', '.join(table)}, got {tag!r}")
    return _from_json_dict(table[tag], {k: v for k, v in obj.items() if k != key})


def config_to_json_dict(cfg: SweepConfig) -> dict:
    # the unused grid is None and is left out
    out = {k: v for k, v in dataclasses.asdict(cfg).items() if v is not None}
    return {**out, "dataset": _to_tagged(_DATASET, cfg.dataset),
            "sensitivity": _to_tagged(_SOURCE, cfg.sensitivity)}


def config_from_json_dict(obj: dict) -> SweepConfig:
    return _from_json_dict(
        SweepConfig, obj,
        dataset=partial(_from_tagged, _DATASET),
        pretrain=partial(_from_json_dict, TrainConfig),
        finetune=partial(_from_json_dict, TrainConfig),
        sensitivity=partial(_from_tagged, _SOURCE),
        attack=partial(_from_json_dict, AttackClassifierConfig),
    )


def report_to_json_dict(report: SweepReport) -> dict:
    return {**dataclasses.asdict(report), "config": config_to_json_dict(report.config),
            "sensitivity": _to_tagged(_ESTIMATE, report.sensitivity)}


def report_from_json_dict(obj: dict) -> SweepReport:
    return _from_json_dict(
        SweepReport, obj,
        rows=lambda rows: tuple(_from_json_dict(SweepRow, r) for r in rows),
        averaged=lambda rows: tuple(_from_json_dict(AveragedRow, r) for r in rows),
        sensitivity=partial(_from_tagged, _ESTIMATE),
        config=config_from_json_dict,
    )


_CSV_FLOATS = ("epsilon", "scale", "utility_loss", "mia_accuracy")


def _csv_text(count_column: str, rows) -> str:
    """Header plus one line per row: mechanism, the float columns as
    repr so the text round-trips exactly, then the integer count column."""
    lines = [",".join(("mechanism", *_CSV_FLOATS, count_column))]
    for row in rows:
        floats = (repr(float(getattr(row, c))) for c in _CSV_FLOATS)
        lines.append(",".join((row.mechanism.value, *floats, str(getattr(row, count_column)))))
    return "\n".join(lines) + "\n"


def _ordered_rows(report: SweepReport):
    order = {kind: i for i, kind in enumerate(report.config.mechanisms)}
    return sorted(
        report.rows,
        key=lambda r: (order[r.mechanism], -r.epsilon, r.repeat_index),
    )


def emit_report(report: SweepReport, path, format: str = "csv") -> None:
    """CSV: header plus one deterministic line per row; JSON: full report."""
    if format == "csv":
        text = _csv_text("repeat_index", _ordered_rows(report))
    elif format == "json":
        text = json.dumps(report_to_json_dict(report), indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown report format {format!r}")
    with open(path, "w") as fh:
        fh.write(text)


def emit_averaged(report: SweepReport, path) -> None:
    """CSV of the repeat-averaged rows, in report order."""
    with open(path, "w") as fh:
        fh.write(_csv_text("repeats", report.averaged))


def load_report(path) -> SweepReport:
    with open(path) as fh:
        return report_from_json_dict(json.load(fh))
