#!/usr/bin/env python3
"""Build the benchmark and the hppa-serve daemon from source, then run it.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ (dune's --build-dir); sockets and the
traced run's span file go to .bench_build/perfbench/. All arguments are
passed on to the benchmark binary; the last line it prints is the JSON
result. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGETS = ["./perfbench/main.exe", "./bin/hppa_served.exe"]


def main():
    needed = ["dune-project", "bin/hppa_served.ml", "perfbench/main.ml", "lib"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        sys.stderr.write("perfbench: not a source checkout (missing %s)\n" % ", ".join(missing))
        return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    # The dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release"] + TARGETS,
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    workdir = os.path.join(BUILD_DIR, "perfbench")
    os.makedirs(workdir, exist_ok=True)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    server = os.path.join(BUILD_DIR, "default", "bin", "hppa_served.exe")
    # The benchmark on one CPU and the daemon on another: left to the
    # scheduler, where each runs changes from run to run, and with it
    # what a request costs.
    pin = []
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2 and shutil.which("taskset"):
        os.sched_setaffinity(0, {cpus[0]})
        pin = ["--daemon-cpu", str(cpus[1])]
    args = [exe] + sys.argv[1:] + ["--server", server, "--workdir", workdir] + pin
    sys.stdout.flush()
    os.execv(exe, args)


if __name__ == "__main__":
    sys.exit(main())
