#!/usr/bin/env python3
"""End-to-end benchmark of tms: build, generate, run, check, report.

    python3 e2ebench/run.py --workload ranked_deep --seed 1 --seconds 25 \
        --trace 0
    python3 e2ebench/run.py --selftest

Run from the root of a checkout. The benchmark is built from ../src into
.bench_build/e2ebench (or $CARGO_TARGET_DIR/e2ebench when that is set).
Each run generates its models into a fresh directory under
.bench_build/e2ebench/runs/, outside the source tree, and removes it at
exit. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; see README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(base)
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build(out):
    """Configures once and builds tms_e2e; progress on stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no src/CMakeLists.txt beside the benchmark; "
                 "run from a full checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out)],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "tms_e2e"], stdout=sys.stderr, check=True)
    return out / "tms_e2e"


def run_child(cmd):
    """Runs cmd to completion, killing it on timeout or when this process
    is told to stop, and waiting until it has ended."""
    child = subprocess.Popen(cmd)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {cmd[1]} timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 124
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def stop(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans "
                        "(JSON lines) to this file")
    parser.add_argument("--selftest", action="store_true",
                        help="check that the output checker rejects "
                        "corrupted answers")
    args = parser.parse_args()

    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")
    if args.selftest:
        sys.exit(run_child([str(binary), "selftest"]))
    if not args.workload:
        parser.error("--workload is required")

    runs = out / "runs"
    runs.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=runs)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", work]
        code = run_child([str(binary), "generate"] + common)
        if code != 0:
            sys.exit(code)
        cmd = [str(binary), "run"] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.spans:
            cmd += ["--spans", os.path.abspath(args.spans)]
        # tms_e2e serves and drives everything in-process; when
        # it exits, nothing it started is left running.
        sys.exit(run_child(cmd))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
