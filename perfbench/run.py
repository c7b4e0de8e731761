"""logidp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 55 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (setup_s, job_s, peak_rss_mb); with
--trace 1 they are the per-layer ones from a traced run. Lines before it,
prefixed with '#', are for people. The full result, with the environment,
goes to perfbench/results/BENCH_<workload>_seed<seed>_trace<t>.json, and a
traced run also writes its spans next to it.

Set-up is measured from process start to ready, so it runs in child
processes: SETUP_SAMPLES fresh processes each import logidp, generate the
inputs and make one warm-up call; the last of them goes on to run the timed
jobs. setup_s is their median. BLAS threads are capped at the number of
CPUs this process may run on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import RESULTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
# The watchdog allows --seconds plus this much per set-up process and this
# much for the last job, which may start just before --seconds run out.
SETUP_ALLOWANCE_S = 15.0
JOB_MARGIN_S = 60.0
END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {
        "s": "s", "self_s": "s", "ms_p50": "ms", "ms_tail": "ms", "us_p50": "us",
        "gflop": "GFLOP", "gflop_per_s": "GFLOP/s", "retrains_per_s": "1/s",
        "draws_per_s": "1/s", "retrain_reuse_ratio": "ratio", "overhead_ratio": "ratio",
    }.get(suffix, "count")


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    try:
        threads = min(int(env.get("OPENBLAS_NUM_THREADS") or nproc), nproc)
    except ValueError:
        threads = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(max(threads, 1))
    return env


def _worker(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; returns (seconds from start to READY, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker exited with code {code} before finishing")
    return ready, (None if setup_only else json.loads(last))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "logidp" / "cli.py").is_file():
        print(f"error: no logidp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**32 or args.seconds <= 0:
        print("error: --seed must lie in [0, 2**32) and --seconds be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds + SETUP_SAMPLES * SETUP_ALLOWANCE_S + JOB_MARGIN_S
    RESULTS.mkdir(exist_ok=True)
    try:
        # set-up is not reported by a traced run, so it takes one sample only
        setups = [_worker(args, True, deadline)[0]
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        ready, result = _worker(args, False, deadline)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)

    failed, attempted = result["failed"], result["attempted"]
    correct = failed == 0 and not result["invalid"]
    if args.trace:
        values = result["per_layer"]
        units = {name: _unit(name) for name in values}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "job_s": statistics.median(result["job_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    env = result["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + " ".join(
        f"{k}={v}" for k, v in env.items()))
    print(f"# jobs={len(result['job_s'])} untraced job_s={result['job_s']} setup_s samples={setups}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(f"# failed_ops_ratio = {failed / attempted} ratio ({failed} of {attempted} units)")
    for problem in result["problems"] + result["invalid"]:
        print(f"# problem: {problem}")
    if args.trace:
        top = list(result["self_s_by_span"].items())[:5]
        print("# largest self time: " + ", ".join(f"{k} {v:.3f}s" for k, v in top))
    print(f"# output sha256: {' '.join(result['output_sha256'])}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_s_samples": setups,
        "job_s_samples": result["job_s"], "repeats": len(result["job_s"]),
        "job_s_quartiles": (statistics.quantiles(result["job_s"], n=4)
                            if len(result["job_s"]) > 1 else None),
        "failed_ops_ratio": failed / attempted,
        "metrics": metrics, "output_sha256": result["output_sha256"],
        "problems": result["problems"], "invalid": result["invalid"],
        "self_s_by_span": result.get("self_s_by_span"),
    }
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
