#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--out <results.jsonl>] [--out-dir <dir>]

Builds the `perfbench` package (its own Cargo workspace, path-depending
on the library crates) into `$CARGO_TARGET_DIR` (default `.bench_build`),
runs it, and passes its standard output through. The last line is the
result object. `--out` also appends that object, tagged with the workload,
seed and trace flag, to a JSON-lines file for `perfbench/compare.py`.
`--out-dir` is where traced runs write their Chrome trace and self-time
table (default `.bench_out`). The exit code is the benchmark's: non-zero
when the build fails or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--out", help="append the result object to this JSON-lines file")
    ap.add_argument("--out-dir", default=".bench_out", help="where traced runs write traces")
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", args.out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        sys.stdout.write(out.decode() if isinstance(out, bytes) else out)
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if args.out and proc.returncode == 0:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(workload=args.workload, seed=args.seed, trace=int(args.trace))
        with open(args.out, "a") as f:
            f.write(json.dumps(result) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
