"""One benchmark process: set up, run the workload's CLI job, check outputs.

Started by run.py with the repository's `src` on PYTHONPATH. Set-up is the
`logidp` import, writing the generated config documents and one warm-up
call of the same command on a short-epoch config; the process prints READY
when set-up is done, which is where run.py stops its set-up clock. With
--setup-only it exits there. Otherwise it repeats the timed job (one
in-process `logidp.cli.main` call) while another job still fits in
--seconds, checks every output, and prints one JSON line for run.py.
Each job runs on freshly imported `logidp` modules, as a CLI user's fresh
process would, so state a module keeps between calls cannot speed up later
jobs. With --trace 1 untraced and traced jobs alternate; only traced jobs
record spans.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# A later job faster than this share of the first one is taken as a cache
# that outlives a job; a CLI user would not see that gain. Between jobs of
# one run the ratio stayed above 0.77 on the reference machine.
CACHE_RATIO = 0.6
# Spans that only dispatch to traced layers; a larger share of the traced
# job as their self time means a layer's calls went unwrapped.
DISPATCHERS = (
    "cli.main", "experiments.run_sweep", "sensitivity.sample_sensitivity",
    "protection.protect_existing",
)
DISPATCH_SHARE = 0.05


def fresh_cli():
    """Drop every imported `logidp` module and import `logidp.cli` anew."""
    for name in [n for n in sys.modules if n == "logidp" or n.startswith("logidp.")]:
        del sys.modules[name]
    return importlib.import_module("logidp.cli")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_model": cpu,
    }


def check_release(out: Path, holdout_features) -> list[str]:
    """The release loads back, predicts finite distributions on the holdout
    set, and its sidecar carries the requested budget."""
    import numpy as np
    from logidp.mechanisms import MechanismKind, MechanismSpec
    from logidp.protection import ProtectedModel, load_protected_release, predict_protected

    theta, omega_noisy, sidecar = load_protected_release(out)
    spec = MechanismSpec(MechanismKind(sidecar["kind"]), sidecar["scale"], sidecar["delta"])
    # predict_protected reads only the noisy head; the release carries no clean one
    probs = predict_protected(ProtectedModel(theta, omega_noisy, omega_noisy, spec, 0), holdout_features)
    problems = []
    if not np.isfinite(probs).all():
        problems.append("non-finite protected prediction")
    elif abs(probs.sum(axis=1) - 1.0).max() > 1e-9:
        problems.append("protected prediction rows do not sum to 1")
    epsilon = sidecar.get("epsilon")
    if epsilon is None or abs(epsilon - workloads.RELEASE_EPSILON) > math.ulp(workloads.RELEASE_EPSILON):
        problems.append(f"sidecar epsilon {epsilon!r} is not the requested budget")
    return problems


def _check(workload: str, cfg: dict, out: Path, holdout, units: int) -> list[str]:
    """Problems with one job's outputs; unreadable outputs fail every unit."""
    try:
        if workload == "release":
            return check_release(out, holdout)
        return workloads.check_report(cfg, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output unreadable: {exc!r}"] * units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import logidp.cli

    if Path(logidp.cli.__file__).resolve().parents[2] != ROOT:
        raise RuntimeError(f"imported {logidp.cli.__file__}, not this checkout's src/logidp")
    from logidp.experiments import config_from_json_dict

    workload = args.workload
    cfg = workloads.config_for(workload, args.seed)
    work = RESULTS / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(cfg))
        warm_path = work / "warmup.json"
        warm_path.write_text(json.dumps(workloads.warmup_config_for(workload, args.seed)))
        holdout = None
        if workload == "release":
            holdout = config_from_json_dict(cfg).dataset.load()["holdout"].features
        if logidp.cli.main(workloads.argv_for(workload, warm_path, work / "warmup-out")) != 0:
            raise RuntimeError("warm-up call failed")
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(args, cfg, work, holdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


def measure(args, cfg: dict, work: Path, holdout) -> dict:
    from spans import SpanRecorder, instrumented, layer_metrics, self_times

    workload = args.workload
    units = workloads.units_per_job(workload, cfg)
    recorder = SpanRecorder()
    jobs = []  # (traced, seconds)
    problems, failed, digests = [], 0, set()
    start = time.perf_counter()
    while True:
        index = len(jobs)
        traced = bool(args.trace) and index % 2 == 1
        out = work / (f"job{index}" + ("" if workload == "release" else ".json"))
        argv = workloads.argv_for(workload, work / "config.json", out)
        cli = fresh_cli()
        with instrumented(recorder) if traced else contextlib.nullcontext(cli.main) as entry:
            recorder.job = f"job{index}"
            t0 = time.perf_counter()
            code = entry(argv)
            seconds = time.perf_counter() - t0
            recorder.job = f"check{index}"
            found = (_check(workload, cfg, out, holdout, units) if code == 0
                     else [f"job {index} exited with code {code}"] * units)
        if not found:
            digests.add(workloads.output_sha256(workload, out))
        for path in workloads.output_files(workload, out):
            path.unlink(missing_ok=True)
        jobs.append((traced, seconds))
        failed += min(units, len(found))
        problems += found
        typical = statistics.median(s for _, s in jobs)
        enough = not args.trace or index >= 1
        if enough and time.perf_counter() - start + typical > args.seconds:
            break

    job_s = [s for t, s in jobs if not t]
    invalid = []  # problems with the measurement itself; they make `correct` false
    if len(job_s) > 1 and statistics.median(job_s[1:]) < CACHE_RATIO * job_s[0]:
        invalid.append(f"later jobs took under {CACHE_RATIO} of the first job's time: {job_s}")
    result = {
        "job_s": job_s,
        "attempted": units * len(jobs),
        "failed": failed,
        "problems": problems[:10],
        "invalid": invalid,
        "output_sha256": sorted(digests),
    }
    if args.trace:
        selfs = self_times(recorder.spans)
        invalid += [f"{name} has no lookup site to wrap" for name in recorder.unwrapped]
        per_job = []
        for index, (traced, seconds) in enumerate(jobs):
            if not traced:
                continue
            job = f"job{index}"
            covered = sum(x for s, x in zip(recorder.spans, selfs) if s.job == job)
            if abs(covered - seconds) > 0.005 * seconds + 0.002:
                invalid.append(f"{job}: span self times sum to {covered}, traced job_s is {seconds}")
            for name in DISPATCHERS:
                own = sum(x for s, x in zip(recorder.spans, selfs) if s.job == job and s.name == name)
                if own > DISPATCH_SHARE * seconds:
                    invalid.append(f"{job}: {name} self time {own:.3f}s is over "
                                   f"{DISPATCH_SHARE:.0%} of the job; a layer went unwrapped")
            metrics = layer_metrics(recorder.spans, selfs, job, f"check{index}")
            metrics["traced_job_s"] = seconds
            per_job.append(metrics)
        layer = {key: statistics.median(m[key] for m in per_job) for key in per_job[0]}
        layer["trace.overhead_ratio"] = layer.pop("traced_job_s") / statistics.median(result["job_s"]) - 1
        result["per_layer"] = layer
        result["self_s_by_span"] = _self_by_name(recorder.spans, selfs)
        recorder.dump(RESULTS / f"spans_{workload}_seed{args.seed}.json")
    return result


def _self_by_name(spans, selfs) -> dict:
    """Self time per span name over all traced jobs, largest first."""
    totals = {}
    for s, x in zip(spans, selfs):
        if s.job.startswith("job"):
            totals[s.name] = totals.get(s.name, 0.0) + x
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


if __name__ == "__main__":
    sys.exit(main())
