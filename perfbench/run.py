#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload grid-match --seed 1 --seconds 10 --trace 0

The Go program is built from source into .bench_build/ (build cache
included), so the benchmark reads and writes nothing outside the checkout.
All arguments are passed through to the program; its last line of output is
the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOFLAGS": "-mod=mod",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=go_env(), stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
