#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0

The Go build cache, module cache and the binary live in .bench_build at
the checkout root, so nothing is read or written outside the checkout.
The build needs the repository's own module one directory up; without
it the build fails and the script exits nonzero without a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_binary():
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    if go is None or not os.path.exists(go):
        sys.exit("perfbench: no go toolchain on PATH")
    return go


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go_binary(), "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
