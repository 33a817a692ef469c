#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from anywhere; the repository root is this file's parent directory:

    python3 perfbench/run.py --workload paper-grouped --seed 1 --seconds 20 --trace 0

Every build product (binary, Go build cache, temporary files) and every
file the benchmark writes lives under .bench_build/ in the repository
root. A tree without the engine's sources fails the build, and the
script exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for k in ("GOFLAGS", "GOOS", "GOARCH", "GOWORK"):
        env.pop(k, None)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "bin", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(1)
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
