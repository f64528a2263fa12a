#!/usr/bin/env python3
"""Builds and runs the Laminar repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the cargo package in perfbench/, built in release mode
into $CARGO_TARGET_DIR (default: .bench_build). Each workload runs in its
own process, because the label interner, the flow cache, the audit-trace
switch and the fault counters are process-global. The last line of
standard output is the JSON result; build output goes to standard error.
With --workload all, every workload runs in turn and the result line
holds every metric as <workload>.<metric>. In a traced run the spans are
written to <target dir>/perfbench-spans-<workload>.jsonl.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["syscall_mix", "tenant_scale", "chat_server", "vm_suite"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(files):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(target):
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "laminar-perfbench")


def run_workload(binary, args, workload, rev, target):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--rev", rev,
    ]
    if args.trace:
        cmd += ["--spans-out", os.path.join(target, f"perfbench-spans-{workload}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"{workload} failed: {e}", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(target)
    if binary is None:
        return 1
    rev = revision()
    if args.workload != "all":
        code, out = run_workload(binary, args, args.workload, rev, target)
        sys.stdout.write(out)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, out = run_workload(binary, args, w, rev, target)
        lines = out.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{w}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"[{w}] printed no result", file=sys.stderr)
            return 1
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
