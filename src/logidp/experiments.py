"""Privacy/utility/attack sweep orchestration and report plumbing.

A sweep trains the two-stage model once, estimates (or accepts) sensitivity,
then walks a mechanism x epsilon grid: each row protects the head at the
budget-derived scale with a row-specific derived noise seed, measures
relative utility loss on a held-out split, and scores a shadow-trained
membership attack against the protected outputs. Every row and the
unprotected baseline score one balanced evaluation set, drawn from one seed
per run, through the audit that train_auditor returns. Reports serialize to
CSV (plot-ready rows) and JSON (full provenance); identical configs produce
byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import zip_longest

import numpy as np

from .mechanisms import (
    MechanismKind,
    MechanismSpec,
    PrivacyBudget,
    Sensitivity,
    budget_for_scale,
    scale_for_budget,
)
from .mia import (
    AttackClassifierConfig,
    attack_accuracy,
    build_attack_dataset,
    check_attack_partitions,
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
from .protection import ProtectedModel, protect_existing
from .rng import check_float, check_int, check_list, check_seed, derive_seed
from .sensitivity import SensitivityEstimate, sample_sensitivity
from .weights import WeightVector, write_json

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
        for name in ("num_classes", "per_class", "feature_dim", *_SPLIT_NAMES):
            check_int(getattr(self, name), name, 1)
        check_float(self.cluster_spread, "cluster_spread", at_least=0)
        check_seed(self.seed)
        counts = self.split_counts()
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

    def __post_init__(self):
        for name in _SPLIT_NAMES:
            path = getattr(self, name)
            # open() would take a bool or an int for a file descriptor
            if not isinstance(path, (str, os.PathLike)):
                raise ValueError(f"{name} must be a path, got {path!r}")
            # kept as a string, so the config writes to JSON
            object.__setattr__(self, name, os.fspath(path))
        if self.num_classes is not None:
            check_int(self.num_classes, "num_classes", 1)

    def load(self) -> dict[str, Dataset]:
        """The five splits; without num_classes, every split gets the count
        the largest label over all five implies."""
        splits = {
            name: load_dataset_csv(getattr(self, name), num_classes=self.num_classes)
            for name in _SPLIT_NAMES
        }
        widths = {d.feature_dim for d in splits.values()}
        if len(widths) != 1:
            raise ValueError(f"splits disagree on feature_dim: {sorted(widths)}")
        if self.num_classes is None:
            count = max(d.num_classes for d in splits.values())
            splits = {name: Dataset(d.features, d.labels, count) for name, d in splits.items()}
        return splits


@dataclass(frozen=True)
class SampledSensitivity:
    """Estimate sensitivity by leave-one-out sampling at sweep time."""

    m: int
    seed: int

    def __post_init__(self):
        check_int(self.m, "m", 1)
        check_seed(self.seed)


@dataclass(frozen=True)
class SweepConfig:
    dataset: SyntheticDataSpec | CsvDataSpec
    pretrain: TrainConfig
    finetune: TrainConfig
    mechanisms: tuple[MechanismKind, ...]
    sensitivity: SampledSensitivity | Sensitivity
    attack: AttackClassifierConfig
    master_seed: int
    epsilon_grid: tuple[float, ...] | None = None
    scale_grid: tuple[float, ...] | None = None
    delta: float = 1e-5
    repeats_per_point: int = 5

    def __post_init__(self):
        object.__setattr__(
            self, "mechanisms", tuple(MechanismKind(m) for m in check_list(self.mechanisms, "mechanisms"))
        )
        if not self.mechanisms:
            raise ValueError("mechanisms must be nonempty")
        if len(set(self.mechanisms)) != len(self.mechanisms):
            raise ValueError("mechanisms must be distinct")
        for grid_name in ("epsilon_grid", "scale_grid"):
            grid = getattr(self, grid_name)
            if grid is None:
                continue
            grid = tuple(check_float(g, grid_name, above=0) for g in check_list(grid, grid_name))
            object.__setattr__(self, grid_name, grid)
            if not grid:
                raise ValueError(f"{grid_name} must be nonempty")
            if len(set(grid)) != len(grid):
                raise ValueError(f"{grid_name} entries must be distinct")
        if (self.epsilon_grid is None) == (self.scale_grid is None):
            raise ValueError("exactly one of epsilon_grid or scale_grid is required")
        check_int(self.repeats_per_point, "repeats_per_point", 1)
        check_seed(self.master_seed, "master_seed")
        check_float(self.delta, "delta", at_least=0, below=1)


@dataclass(frozen=True)
class _GridPoint:
    """One (mechanism, epsilon) measurement; the bounds every report row keeps."""

    mechanism: MechanismKind
    epsilon: float
    scale: float
    utility_loss: float
    mia_accuracy: float

    def __post_init__(self):
        object.__setattr__(self, "mechanism", MechanismKind(self.mechanism))
        check_float(self.epsilon, "epsilon", above=0)
        check_float(self.scale, "scale", above=0)
        check_float(self.utility_loss, "utility_loss", at_most=1)
        check_float(self.mia_accuracy, "mia_accuracy", at_least=0, at_most=1)


@dataclass(frozen=True)
class SweepRow(_GridPoint):
    repeat_index: int

    def __post_init__(self):
        super().__post_init__()
        check_int(self.repeat_index, "repeat_index")


@dataclass(frozen=True)
class AveragedRow(_GridPoint):
    """Repeat-mean of one (mechanism, epsilon) grid point."""

    repeats: int

    def __post_init__(self):
        super().__post_init__()
        check_int(self.repeats, "repeats", 1)


@dataclass(frozen=True)
class SweepReport:
    """Per-repeat rows of a sweep: each of the config's mechanisms x grid x
    repeats cells exactly once, in any order, or none for header-only
    emission. A row's grid value is its epsilon, or its scale for a
    scale_grid config."""

    rows: tuple[SweepRow, ...]
    sensitivity: SensitivityEstimate | Sensitivity
    config: SweepConfig
    unprotected_baseline: dict

    def __post_init__(self):
        object.__setattr__(self, "rows", check_list(self.rows, "rows"))
        if self.rows:
            cfg = self.config
            column, grid = (("epsilon", cfg.epsilon_grid) if cfg.epsilon_grid is not None
                            else ("scale", cfg.scale_grid))
            want = Counter((m, g, r) for m in cfg.mechanisms for g in grid
                           for r in range(cfg.repeats_per_point))
            got = Counter((row.mechanism, getattr(row, column), row.repeat_index) for row in self.rows)
            for cells, what in ((got - want, "extra"), (want - got, "missing")):
                if cells:
                    m, g, r = next(iter(cells))
                    raise ValueError(f"rows must hold each config cell once; "
                                     f"({m.value}, {column} {g!r}, repeat {r}) is {what}")
        base = self.unprotected_baseline
        if set(base) != {"accuracy", "mia_accuracy"}:
            raise ValueError("unprotected_baseline must carry accuracy and mia_accuracy")
        for key, value in base.items():
            check_float(value, f"unprotected_baseline.{key}", at_least=0, at_most=1)

    @property
    def averaged(self) -> tuple[AveragedRow, ...]:
        """Repeat-mean of each (mechanism, epsilon) cell, in row order."""
        cells = {}
        for row in self.rows:
            cells.setdefault((row.mechanism, row.epsilon), []).append(row)
        return tuple(
            AveragedRow(*point, cell[0].scale, float(np.mean([r.utility_loss for r in cell])),
                        float(np.mean([r.mia_accuracy for r in cell])), len(cell))
            for point, cell in cells.items()
        )


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

def train_model(
    cfg: SweepConfig, *, audit: bool = False
) -> tuple[dict[str, Dataset], WeightVector, WeightVector]:
    """Load the splits, pretrain the encoder, fine-tune the head: (splits, theta, omega).

    With audit, the shadow splits are first checked to supply the attack's
    train_pairs, so a run that cannot audit fails before any training.
    """
    splits = cfg.dataset.load()
    if audit:
        check_attack_partitions(splits["shadow_in"], splits["shadow_out"], cfg.attack.train_pairs)
    theta = pretrain_encoder(splits["pretrain"], cfg.pretrain)
    omega = finetune_head(theta, splits["finetune"], cfg.finetune)
    return splits, theta, omega


def resolve_sensitivity(cfg: SweepConfig, theta: WeightVector, splits) -> SensitivityEstimate | Sensitivity:
    """The config's fixed sensitivity, or a leave-one-out sample over the finetune split."""
    source = cfg.sensitivity
    if isinstance(source, Sensitivity):
        return source
    return sample_sensitivity(theta, splits["finetune"], cfg.finetune, source.m, source.seed)


def train_auditor(cfg: SweepConfig, theta: WeightVector, splits) -> Callable[[ProtectedModel, int], float]:
    """The run's audit, audit(model, use_protected_outputs): the membership
    classifier's accuracy on the run's one evaluation set, the finetune
    members against the holdout non-members, drawn from one seed. The
    classifier trains on a shadow head's outputs for shadow_in and
    shadow_out; no victim record enters."""
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
    classifier = train_attack_classifier(records, cfg.attack)
    eval_seed = derive_seed(cfg.master_seed, "attack-eval")

    def audit(model: ProtectedModel, use_protected_outputs: int) -> float:
        return attack_accuracy(classifier, model, splits["finetune"], splits["holdout"],
                               use_protected_outputs, eval_seed)
    return audit


def check_calibration(cfg: SweepConfig, kinds) -> None:
    """Raises ValueError, before anything is trained, unless the config can
    calibrate each mechanism: a gaussian delta in (0, 1), and a fixed
    sensitivity in the norm the mechanism needs."""
    for kind in kinds:
        kind.delta_for(cfg.delta)
        if isinstance(cfg.sensitivity, Sensitivity):
            cfg.sensitivity.for_mechanism(kind)


def mechanism_spec(cfg: SweepConfig, kind: MechanismKind, sens: Sensitivity | None, *,
                   epsilon: float | None = None, scale: float | None = None) -> MechanismSpec:
    """Spec at the given noise scale or, without one, the scale that spends
    epsilon at sensitivity sens. Only the gaussian mechanism carries the
    config's delta."""
    delta = kind.delta_for(cfg.delta)
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
    check_calibration(cfg, cfg.mechanisms)
    splits, theta, omega = train_model(cfg, audit=True)

    holdout = splits["holdout"]
    holdout_reps = encode(theta, holdout.features)
    clean_acc = accuracy(predict_from_representations(omega, holdout_reps), holdout.labels)

    sens_record = resolve_sensitivity(cfg, theta, splits)
    audit = train_auditor(cfg, theta, splits)

    rows = []
    for kind in cfg.mechanisms:
        sens = sens_record.for_mechanism(kind)
        for eps_index, (eps, spec) in enumerate(_grid_for(cfg, kind, sens)):
            for repeat in range(cfg.repeats_per_point):
                noise_seed = derive_seed(cfg.master_seed, "noise", kind.value, eps_index, repeat)
                model = protect_existing(theta, omega, spec, noise_seed)
                noisy_acc = accuracy(
                    predict_from_representations(model.omega_noisy, holdout_reps), holdout.labels
                )
                rows.append(SweepRow(kind, eps, spec.scale, utility_loss(noisy_acc, clean_acc),
                                     audit(model, 1), repeat))
    # every release carries the clean head; the last one's scores the unprotected baseline
    return SweepReport(tuple(rows), sens_record, cfg, {"accuracy": clean_acc, "mia_accuracy": audit(model, 0)})


@dataclass(frozen=True)
class TrendStats:
    spearman_eps_vs_utility: float
    spearman_eps_vs_mia: float
    utility_degenerate: bool
    mia_degenerate: bool


def _spearman(eps, values) -> tuple[float, bool]:
    if len(set(values)) == 1:
        return 0.0, True
    x = np.column_stack((eps, values))
    ranks = (x[:, None] > x).sum(1) + ((x[:, None] == x).sum(1) + 1) / 2
    return float(np.corrcoef(ranks, rowvar=False)[1, 0]), False


def trend_statistics(report: SweepReport) -> dict[MechanismKind, TrendStats]:
    """Spearman rank correlation of epsilon against the repeat-averaged
    curves: the Pearson correlation of the ranks, tied values sharing their
    mean rank. A constant curve gives 0.0 and is marked degenerate."""
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
# (tag key, {tag: class}) pair. Every document goes through write_json, so an
# estimate file reads exactly as a report's sensitivity block.

def _from_json_dict(cls, obj, **blocks):
    """cls(**obj), so the constructor's own checks validate every document
    read, an integer field's type among them. blocks maps a field to the
    reader of its nested block, whose errors it prefixes with the field. A
    missing or unknown key raises ValueError naming it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(obj).__name__}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(obj) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"{cls.__name__} has no field {unknown[0]!r}")
    for f in fields:
        if f.name not in obj and f.default is f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{cls.__name__} is missing field {f.name!r}")
    values = {}
    for name, value in obj.items():
        try:
            values[name] = blocks[name](value) if name in blocks else value
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return cls(**values)


_DATASET = ("type", {"synthetic": SyntheticDataSpec, "csv": CsvDataSpec})
_SOURCE = ("kind", {"sampled": SampledSensitivity, "fixed": Sensitivity})
_ESTIMATE = ("kind", {"sampled": SensitivityEstimate, "fixed": Sensitivity})


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


def estimate_from_json_dict(obj) -> SensitivityEstimate | Sensitivity:
    """A report's sensitivity block, or the file `emit_estimate` writes."""
    return _from_tagged(_ESTIMATE, obj)


def emit_estimate(estimate: SensitivityEstimate | Sensitivity, path) -> None:
    """The estimate as JSON, exactly as a JSON report's sensitivity block."""
    write_json(_to_tagged(_ESTIMATE, estimate), path)


def report_to_json_dict(report: SweepReport) -> dict:
    return {**dataclasses.asdict(report), "config": config_to_json_dict(report.config),
            "sensitivity": _to_tagged(_ESTIMATE, report.sensitivity),
            "averaged": [dataclasses.asdict(a) for a in report.averaged]}


def report_from_json_dict(obj: dict) -> SweepReport:
    """The report, once its stored averaged rows prove to be the means of
    its rows; the first (mechanism, epsilon) that differs is named."""
    if not isinstance(obj, dict) or "averaged" not in obj:
        raise ValueError("SweepReport is missing field 'averaged'")
    report = _from_json_dict(
        SweepReport, {k: v for k, v in obj.items() if k != "averaged"},
        # anything but a list is left for SweepReport's own check to refuse
        rows=lambda rows: (tuple(_from_json_dict(SweepRow, r) for r in rows)
                           if isinstance(rows, list) else rows),
        sensitivity=estimate_from_json_dict,
        config=config_from_json_dict,
    )
    averaged = check_list(obj["averaged"], "averaged")
    try:
        stored = tuple(_from_json_dict(AveragedRow, r) for r in averaged)
    except ValueError as exc:
        raise ValueError(f"averaged: {exc}") from None
    for got, want in zip_longest(stored, report.averaged):
        if got != want:
            point = want or got
            raise ValueError(f"averaged: row ({point.mechanism.value}, epsilon {point.epsilon!r}) "
                             "is not the mean of its rows")
    return report


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
    if format == "json":
        write_json(report_to_json_dict(report), path)
    elif format == "csv":
        with open(path, "w") as fh:
            fh.write(_csv_text("repeat_index", _ordered_rows(report)))
    else:
        raise ValueError(f"unknown report format {format!r}")


def emit_averaged(report: SweepReport, path) -> None:
    """CSV of the repeat-averaged rows, in report order."""
    with open(path, "w") as fh:
        fh.write(_csv_text("repeats", report.averaged))


def load_report(path) -> SweepReport:
    with open(path) as fh:
        return report_from_json_dict(json.load(fh))
