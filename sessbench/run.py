#!/usr/bin/env python3
"""Build the session-serving benchmark and run one measurement.

    python3 sessbench/run.py --workload storm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark (sessbench/main.ml) is
built from source with dune at the release profile into _build/, with
dune's shared cache off so nothing is written outside the checkout.
The last line of standard output is the benchmark's JSON result; when the
build or an output check fails, the exit code is non-zero and no result
is printed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./sessbench/main.exe"


def build(env):
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release", TARGET]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    return done.returncode == 0


def main(argv):
    env = dict(os.environ, DUNE_CACHE="disabled")
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("sessbench: no dune-project at %s; nothing to build" % ROOT, file=sys.stderr)
        return 2
    if not build(env):
        print("sessbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "sessbench", "main.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + argv, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
