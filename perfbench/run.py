#!/usr/bin/env python3
"""Builds `fenceplace` and the benchmark harness from source, then runs
one workload (or all of them) and relays the harness's result.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is the result JSON of the workload
(with `--workload all`, one JSON object keyed by workload). The exit
code is non-zero when a build fails, an output check fails or the
harness cannot run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_sweep", "large_stream", "serve_edit", "certify"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(env):
    """Builds the program the way the repository builds it, then the
    harness package (its own workspace, same target directory)."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "fenceplace"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_one(env, target, workload, args):
    harness = os.path.join(target, "release", "perfbench")
    cmd = [
        harness,
        "--fenceplace", os.path.join(target, "release", "fenceplace"),
        "--work", os.path.join(".bench_work", workload),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, proc.stdout, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ("Cargo.toml", os.path.join("src", "bin", "fenceplace", "main.rs"),
                   os.path.join("tests", "golden", "pipeline.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a checkout of the repository")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env["CARGO_TARGET_DIR"] = target
    build(env)

    if args.workload != "all":
        code, out, result = run_one(env, target, args.workload, args)
        sys.stdout.write(out)
        if result is None and code == 0:
            code = 2
        sys.exit(code)

    results, worst = {}, 0
    for w in WORKLOADS:
        code, _, result = run_one(env, target, w, args)
        worst = worst or code or (2 if result is None else 0)
        results[w] = result
        if result is None:
            print(f"{w}: no result (exit {code})")
            continue
        status = "ok" if result["correct"] else "FAILED"
        print(f"{w}: {status}, {result['failed']} of {result['attempted']} failed")
        for name, m in result["metrics"].items():
            print(f"  {name:32} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps(results))
    sys.exit(worst)


if __name__ == "__main__":
    main()
