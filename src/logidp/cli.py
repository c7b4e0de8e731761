"""Command-line front end over the noise, sensitivity, protection, attack,
and sweep layers.

Subcommands: sample (emit raw noise draws), sensitivity (estimate and save a
leave-one-out sensitivity record), protect (train and export a protected
release), attack (membership-inference accuracy for one budget point), sweep
(full grid run from a config file), report (reformat a saved report). One
JSON config document describes the dataset, training, mechanisms, and grid;
--seed overrides its master_seed so a run can be re-rolled without editing
the file. Every failure exits nonzero with the reason on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .experiments import (
    SampledSensitivity,
    check_calibration,
    config_from_json_dict,
    emit_averaged,
    emit_estimate,
    emit_report,
    load_report,
    mechanism_spec,
    resolve_sensitivity,
    run_sweep,
    train_auditor,
    train_model,
)
from .mechanisms import MechanismKind, MechanismSpec, sample_noise
from .mia import attack_accuracy
from .protection import export_protected_model, protect_existing
from .rng import RngStream, check_float, derive_seed
from .weights import write_json


def _load_config(path: str, seed_override: int | None):
    with open(path) as fh:
        obj = json.load(fh)
    cfg = config_from_json_dict(obj)
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, master_seed=seed_override)
    return cfg


def _budget_config(args):
    """Config and mechanism kind for protect and attack; the budget flags and
    the mechanism's calibration are checked before anything is trained."""
    if (args.epsilon is None) == (args.scale is None):
        raise ValueError("give exactly one of --epsilon and --scale")
    flag, value = ("--epsilon", args.epsilon) if args.scale is None else ("--scale", args.scale)
    check_float(value, flag, above=0)
    cfg = _load_config(args.config, args.seed)
    kind = MechanismKind(args.mechanism)
    check_calibration(cfg, [kind])
    return cfg, kind


def _cmd_sample(args) -> None:
    kind = MechanismKind(args.kind)
    spec = MechanismSpec(kind, args.scale, kind.delta_for(args.delta))
    draws = sample_noise(spec, RngStream(args.seed), args.count)
    with open(args.out, "w") as fh:
        fh.write("noise\n")
        for v in draws:
            fh.write(repr(float(v)) + "\n")


def _cmd_sensitivity(args) -> None:
    cfg = _load_config(args.config, args.seed)
    if not isinstance(cfg.sensitivity, SampledSensitivity):
        raise ValueError("config must use a sampled sensitivity source for this command")
    splits, theta, _ = train_model(cfg)
    emit_estimate(resolve_sensitivity(cfg, theta, splits), args.out)


def _cmd_protect(args) -> None:
    cfg, kind = _budget_config(args)
    splits, theta, omega = train_model(cfg)
    sens = resolve_sensitivity(cfg, theta, splits).for_mechanism(kind)
    spec = mechanism_spec(cfg, kind, sens, epsilon=args.epsilon, scale=args.scale)
    model = protect_existing(
        theta, omega, spec, derive_seed(cfg.master_seed, "cli-protect")
    )
    export_protected_model(model, args.out, sens)


def _cmd_attack(args) -> None:
    cfg, kind = _budget_config(args)
    splits, theta, omega = train_model(cfg, audit=True)
    sens = None  # only a budget needs it; a given --scale is used as is
    if args.scale is None:
        sens = resolve_sensitivity(cfg, theta, splits).for_mechanism(kind)
    spec = mechanism_spec(cfg, kind, sens, epsilon=args.epsilon, scale=args.scale)
    classifier = train_auditor(cfg, theta, splits)
    model = protect_existing(
        theta, omega, spec, derive_seed(cfg.master_seed, "cli-attack-noise")
    )
    protected = attack_accuracy(
        classifier, model, splits["finetune"], splits["holdout"], 1,
        derive_seed(cfg.master_seed, "cli-attack-eval"),
    )
    unprotected = attack_accuracy(
        classifier, model, splits["finetune"], splits["holdout"], 0,
        derive_seed(cfg.master_seed, "cli-attack-eval-baseline"),
    )
    result = {
        "mechanism": spec.kind.value,
        "scale": spec.scale,
        "delta": spec.delta,
        "protected_mia_accuracy": protected,
        "unprotected_mia_accuracy": unprotected,
    }
    if args.epsilon is not None:
        result["epsilon"] = args.epsilon
    write_json(result, args.out)


def _cmd_sweep(args) -> None:
    cfg = _load_config(args.config, args.seed)
    report = run_sweep(cfg)
    emit_report(report, args.out, args.format)


def _cmd_report(args) -> None:
    if args.averaged and args.format == "json":
        raise ValueError("--averaged writes CSV only; drop --format json")
    report = load_report(args.input)
    if args.averaged:
        emit_averaged(report, args.out)
    else:
        emit_report(report, args.out, args.format)


def _add_config_seed_out(sub) -> None:
    sub.add_argument("--config", required=True, help="sweep-config JSON file")
    sub.add_argument("--seed", type=int, default=None, help="override config master_seed")
    sub.add_argument("--out", required=True, help="output path")


_KIND_NAMES = tuple(kind.value for kind in MechanismKind)


def _add_budget_args(sub) -> None:
    sub.add_argument("--mechanism", choices=_KIND_NAMES, required=True)
    sub.add_argument("--epsilon", type=float, default=None, help="privacy budget")
    sub.add_argument("--scale", type=float, default=None, help="noise scale, bypassing the budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logidp",
        description="Additive-noise privacy protection for fine-tuned model heads.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sample = commands.add_parser("sample", help="emit noise draws as single-column CSV")
    sample.add_argument("--kind", choices=_KIND_NAMES, required=True)
    sample.add_argument("--scale", type=float, required=True)
    sample.add_argument("--delta", type=float, default=1e-5, help="gaussian delta")
    sample.add_argument("--count", type=int, required=True)
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--out", required=True)
    sample.set_defaults(func=_cmd_sample)

    sensitivity = commands.add_parser(
        "sensitivity", help="run the leave-one-out sampler, save the estimate JSON"
    )
    _add_config_seed_out(sensitivity)
    sensitivity.set_defaults(func=_cmd_sensitivity)

    protect = commands.add_parser(
        "protect", help="train from config, protect the head, export the release"
    )
    _add_config_seed_out(protect)
    _add_budget_args(protect)
    protect.set_defaults(func=_cmd_protect)

    attack = commands.add_parser(
        "attack", help="membership-inference accuracy at one budget point"
    )
    _add_config_seed_out(attack)
    _add_budget_args(attack)
    attack.set_defaults(func=_cmd_attack)

    sweep = commands.add_parser("sweep", help="full mechanism-by-epsilon grid run")
    _add_config_seed_out(sweep)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(func=_cmd_sweep)

    report = commands.add_parser("report", help="reformat or aggregate a saved report")
    report.add_argument("--in", dest="input", required=True, help="report JSON file")
    report.add_argument("--out", required=True)
    report.add_argument("--format", choices=("csv", "json"), default="csv")
    report.add_argument(
        "--averaged", action="store_true", help="emit repeat-averaged rows as CSV instead of raw rows"
    )
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # argparse handles usage errors; this covers the rest
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
