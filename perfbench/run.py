#!/usr/bin/env python3
"""Build the MVEE benchmark from source and run it.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --reference

The Go program is built into .bench_build/ at the repository root, with
its own Go build cache there, so a run reads and writes only inside the
checkout. The first run builds (about a minute on 2 CPUs); later runs
reuse the cache. Every argument is passed to the program; see README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# A run ends well inside 180 s (the program's own hard limit is 170 s);
# this bounds a wedged build or run anyway.
RUN_TIMEOUT = 178
BUILD_TIMEOUT = 850


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOENV": "off",
    })
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    try:
        proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.stderr.write(f"perfbench: build failed: {err}\n")
        return False
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + proc.stdout.decode(errors="replace"))
        return False
    return True


def main():
    if not build():
        return 2
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT} s\n")
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
