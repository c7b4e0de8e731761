"""Run a test script in fresh processes under one and two BLAS threads."""

import os
import subprocess
import sys

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")


def stdout_by_thread_count(script: str) -> dict[str, tuple[str, ...]]:
    """threads -> the script's whitespace-split stdout, run with
    OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to "1" and to "2". The
    tests and src directories come first on the script's sys.path."""
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; sys.path[:0] = sys.argv[1:]\n" + script, TESTS_DIR, SRC_DIR],
            env=env, check=True, capture_output=True, text=True, timeout=300,
        )
        digests[threads] = tuple(proc.stdout.split())
    return digests
