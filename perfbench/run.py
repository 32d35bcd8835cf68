#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

The Go program in this directory is built into .bench_build/ (with its
Go build cache there too) and run from the repository root. Its last
line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics. Run records and span exports go
to .bench_out/.

Exits with code 2, printing no result, when the repository sources are
not next to this directory; with code 1 and a failed result when the
benchmark program crashes or overruns its time.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BUILD_TIMEOUT_S = 800
RUN_LIMIT_S = 175


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOMODCACHE=str(BUILD / "gomodcache"),
        GOPATH=str(BUILD / "gopath"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        GOTELEMETRY="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    binary = BUILD / "perfbench"
    BUILD.mkdir(exist_ok=True)
    try:
        subprocess.run(
            ["go", "build", "-trimpath", "-o", str(binary), "."],
            cwd=HERE, env=go_env(), check=True, timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        fail("the go toolchain is not on PATH", 2)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 2)
    return binary


def failed_result(trace):
    """A result line for a run that produced none: every metric of the
    requested kind, zero, and the run marked incorrect."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 0, "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["fleet", "apps", "acopy"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "go.mod").is_file() or not (ROOT / "internal" / "core").is_dir():
        fail(f"no repository sources next to {HERE.name}/; nothing to benchmark", 2)
    start = time.monotonic()
    binary = build()

    cmd = [str(binary), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-out", str(OUT)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    limit = max(RUN_LIMIT_S - (time.monotonic() - start), 10)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(json.dumps(failed_result(args.trace)))
        fail(f"{args.workload} did not finish within {limit:.0f} s", 1)
    sys.stdout.write(out.decode())
    if proc.returncode != 0:
        print(json.dumps(failed_result(args.trace)))
        fail(f"{args.workload} exited with code {proc.returncode}", 1)


if __name__ == "__main__":
    main()
