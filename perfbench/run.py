#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim --seed 1 --seconds 10 --trace 0

The benchmark is a Go program (perfbench/*.go), a module of its own that
builds the simulator from this checkout. This wrapper builds it with every
Go cache and temporary directory inside the checkout, under
$CARGO_TARGET_DIR (default .bench_build), then runs it with the same
arguments and exits with its status. The program prints the result line.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isfile(os.path.join(bench_dir, "go.mod"))):
        print("perfbench: run from the root of a wbsim checkout "
              "(go.mod and perfbench/go.mod not found)", file=sys.stderr)
        return 2

    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    dirs = {name: os.path.join(out, name)
            for name in ("gocache", "gopath", "tmp", "home")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": dirs["gocache"],
        "GOPATH": dirs["gopath"],
        "GOMODCACHE": os.path.join(dirs["gopath"], "pkg", "mod"),
        "GOTMPDIR": dirs["tmp"],
        "TMPDIR": dirs["tmp"],
        "HOME": dirs["home"],
        "XDG_CONFIG_HOME": os.path.join(dirs["home"], ".config"),
        "XDG_CACHE_HOME": os.path.join(dirs["home"], ".cache"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })

    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."],
                               cwd=bench_dir, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run the go toolchain: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
