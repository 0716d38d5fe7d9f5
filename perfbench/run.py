#!/usr/bin/env python3
"""Build perfbench inside the checkout and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite|replay|serve --seed N \
        --seconds S --trace 0|1

The Go toolchain builds perfbench into .bench_build/, with its build
cache there too, so nothing is written outside the checkout. The
workload then runs in a fresh process, and its result is re-printed as
the last line of standard output after the human-readable report. When
the build or the run fails, the script exits non-zero and prints no
result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def source_revision(root):
    """Returns the git revision, or a digest of the Go sources outside git."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["suite", "replay", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOENV": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench", "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build: {e}")
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-rev", source_revision(root)]
    if args.trace:
        cmd += ["-spans", os.path.join(out, "spans", f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S}s")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        sys.exit(f"perfbench: {args.workload} exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(stdout)
        sys.exit("perfbench: the last output line is not a result object")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
