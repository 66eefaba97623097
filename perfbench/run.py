#!/usr/bin/env python3
"""Run one workload of the RouteNet benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <offline|serve-sweep> \
        --seed N --seconds S --trace <0|1>

Builds the `routenet-serve` daemon from the workspace and the benchmark
package in this directory (release, offline, into $CARGO_TARGET_DIR or
.bench_build), then runs the benchmark binary. Build output goes to stderr;
the last line of stdout is the JSON result. Work files go to .bench_work/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("offline", "serve-sweep")


def git_rev(root):
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(root):
            return "none"
        return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "routenet-serve", "--bin", "routenet-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    )
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip()
    env["PERFBENCH_GIT_REV"] = git_rev(root)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "routenet-perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--daemon", os.path.join(release, "routenet-serve"),
        "--model", os.path.join(HERE, "model.json"),
        "--work", os.path.join(root, ".bench_work"),
    ]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
