#!/usr/bin/env python3
"""Build and run xtenergy's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload characterize|explore|daemon \
        --seed N --seconds S --trace 0|1

Builds the Go program in perfbench/ from the checkout's source into the
build directory ($CARGO_TARGET_DIR, else .bench_build), with every Go
cache and temp dir inside it, then runs it with the same arguments. If the
build fails it exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    # A relative work dir keeps the daemon's unix socket path short.
    workdir = os.path.relpath(build)
    return subprocess.run([binary, "--workdir", workdir, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
