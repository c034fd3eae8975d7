#!/usr/bin/env python3
"""Builds the dphist benchmark in Release and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <refresh_sweep|service_mix|ingest_churn> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and scratch files (WAL, crash images, traces) to .bench_work/, both inside the
checkout. Build output goes to stderr; the last line of stdout is the JSON
result. `--checks-test` builds and runs the benchmark's own check tests
instead.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, target)


def main(argv):
    target = "perfbench_checks_test" if "--checks-test" in argv else "perfbench"
    binary = build(target)
    if binary is None:
        print("benchmark build failed", file=sys.stderr)
        return 1
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    if target != "perfbench":
        return subprocess.run([binary], cwd=work).returncode
    try:
        proc = subprocess.run([binary] + argv + ["--work-dir", work],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
