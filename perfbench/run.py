#!/usr/bin/env python3
"""Builds and runs the Jarvis runtime benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload s2s_pinned --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which builds the repository's jarvis library from source)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload. The last stdout line is the result JSON; every earlier line and all
build output are for people. Exits non-zero, printing no result, when the
build, a run or a correctness check fails, or when the metrics the binary
reports do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no jarvis sources next to {BENCH_DIR.name}/; run from a checkout")
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", str(out), "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    binary = out / "jarvis_perfbench"
    if not binary.is_file():
        fail("build produced no jarvis_perfbench binary")
    return binary


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(out / f"spans_{args.workload}.csv")]
    # The runtime reads JARVIS_* knobs (faults, threads, codecs) from the
    # environment; the workloads set every knob explicitly instead.
    env = {k: v for k, v in os.environ.items() if not k.startswith("JARVIS_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines[:-1]), file=sys.stderr)
        fail(f"run failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(args.trace) or not result["correct"]:
        print("\n".join(lines), file=sys.stderr)
        fail("reported metrics do not match BENCHMARK.json")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
