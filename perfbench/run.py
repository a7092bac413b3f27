#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload perm-sweep --seed 1 --seconds 15 --trace 0

Every argument is passed to the binary (see perfbench/README.md). The Go
build cache, the binary and the Go tool's own state live under the build
directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout,
so nothing is read from or written to the rest of the machine. The build
runs offline; it fails, and so does this script, unless the repository's
module sits next to this directory.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = os.path.join(build, "perfbench", "perfbench")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "go-path"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    built = subprocess.run(["go", "build", "-o", out, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.exit(built.returncode)
    os.execv(out, [out] + sys.argv[1:])


if __name__ == "__main__":
    main()
