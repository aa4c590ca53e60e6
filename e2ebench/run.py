#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

Usage, from the root of a source tree:

    python3 e2ebench/run.py --workload planted-bcast --seed 1 --seconds 40 --trace 0

Builds e2ebench/e2ebench.exe with dune (build output goes to stderr),
runs it, and prints a host fingerprint line followed by the result line:
one JSON object with the keys correct, attempted, failed and metrics.
README.md in this directory describes the workloads and the metrics.
Exits nonzero, printing no result, when the tree cannot be built or the
run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

TARGET = "e2ebench/e2ebench.exe"
EXE = "_build/default/" + TARGET
BUILD_TIMEOUT_S = 850
# A run measures --seconds, plus set-up and at most one instance past the
# budget (a few seconds at the largest size); anything longer is a hang.
RUN_GRACE_S = 120


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH (run `eval $(opam env)` first)")


def source_version():
    """`git describe` where the tree is a git checkout, else a hash of the
    library, CLI and benchmark sources (the benchmark may run from an
    exported tree with no .git)."""
    if os.path.isdir(".git") and shutil.which("git"):
        r = subprocess.run(["git", "describe", "--always", "--dirty"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", "bin", "e2ebench"):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def mem_total_mb():
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) // 1024
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("e2ebench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of the source tree")

    try:
        build = subprocess.run(dune_command() + ["build", "--root", ".", "./" + TARGET],
                               stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        fail(f"workload exited with code {run.returncode}")
    info = json.loads(lines[-2])["run"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")

    host = {
        "cores": len(os.sched_getaffinity(0)),
        "ram_mb": mem_total_mb(),
        "ocaml": info["ocaml"],
        "pool": info["pool"],
        "version": source_version(),
        "workload": info["workload"],
        "seed": info["seed"],
        "samples": info["samples"],
    }
    print(json.dumps({"host": host}))
    print(lines[-1])


if __name__ == "__main__":
    main()
