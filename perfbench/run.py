#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 20 --trace 0

builds perfbench/bench.exe with dune under the perfbench profile (the
only one that enables perfbench/) and runs it with the same arguments; its last line of output is the result record. See
perfbench/README.md.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: run from the root of a full checkout\n")
        return 2
    env = dict(os.environ)
    # Keep every file the build and the run write inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    tmp = os.path.abspath(".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = tmp
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "perfbench",
         "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 2
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
