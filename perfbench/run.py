#!/usr/bin/env python3
"""The atpm benchmark: one command per workload run.

    python3 perfbench/run.py --workload adaptive-parallel --seed 1 \
        --seconds 50 --trace 0

Run from the repository root. It builds perfbench/ (which builds the atpm
libraries from the root with the root's own flags) into $CARGO_TARGET_DIR
(default .bench_build), generates the workload's inputs (the same problem
instances for every seed; the seed drives the policies' random streams),
runs the timed phases, checks every output and prints one JSON object as
the last line of stdout: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes a Chrome trace plus a per-layer self-time table into
$CARGO_TARGET_DIR/perfbench-out/. Exits non-zero on any failed check.
BENCHMARK.json describes the workloads and the metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adaptive-parallel", "fixed-pool")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "--target",
                    "atpm_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(cmake_dir, "atpm_perfbench")


def source_version():
    """The git commit, or a digest of the sources outside git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def inputs(binary, data_root, workload):
    """Generates the workload's inputs (the same problems for every seed).

    Inputs are reused while the binary that wrote them stays the same."""
    data_dir = os.path.join(data_root, workload)
    stamp = os.path.join(data_dir, "stamp")
    key = str(os.stat(binary).st_mtime_ns)
    if os.path.exists(stamp):
        with open(stamp) as handle:
            if handle.read() == key:
                return data_dir
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    subprocess.run([binary, "gen", "--workload", workload, "--dir", data_dir],
                   check=True, timeout=RUN_TIMEOUT_S)
    with open(stamp, "w") as handle:
        handle.write(key)
    return data_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    with open(os.path.join(HERE, "baseline.json")) as handle:
        reference = json.load(handle)["profit_ratio"][args.workload]
    try:
        binary = build(build_dir)
        data_dir = inputs(binary, os.path.join(build_dir, "perfbench-data"),
                          args.workload)
    except (subprocess.SubprocessError, OSError) as error:
        log(f"perfbench: build or input generation failed: {error}")
        return 2
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--dir", data_dir,
               "--out", out_dir, "--commit", source_version(),
               "--profit-ref", repr(reference["mean"]),
               "--profit-tol", repr(reference["tolerance"])]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = result.stdout.splitlines()
    if result.returncode not in (0, 1) or not lines:
        log(f"perfbench: run failed with code {result.returncode}")
        return 2
    print("\n".join(lines), flush=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
