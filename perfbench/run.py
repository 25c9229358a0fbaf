#!/usr/bin/env python3
"""Build and run the repository benchmark. Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
    python3 perfbench/run.py summarize FILE...
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

The benchmark is the Go program in this directory (its own module, which
uses the repository's module through a replace directive). This script builds
it with the local Go toolchain into .bench_build/, keeping the build cache
and temporary files there too, and runs it with the given arguments. Build
output goes to standard error, so the result stays the last line of standard
output. See README.md for the workloads and metrics.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    for need in ("go.mod", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, need)):
            sys.exit(f"run.py: {need} not found; run from the repository root")
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOSUMDB="off",
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)
    sys.exit(subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode)


if __name__ == "__main__":
    main()
