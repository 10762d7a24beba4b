#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is an OCaml executable (perfbench/main.ml) linked against
the repository's libraries, so it is built with dune into the
checkout's own _build/ (the shared dune cache is switched off, so
nothing is written outside the checkout). All arguments are passed
through; see perfbench/README.md for workloads and metrics.
"""

import glob
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def dune_command(env):
    """dune from PATH, else from the active or an installed opam switch,
    whose bin/ then also goes on PATH so dune finds the compilers."""
    if shutil.which("dune", path=env.get("PATH")):
        return ["dune"]
    prefixes = [env["OPAM_SWITCH_PREFIX"]] if "OPAM_SWITCH_PREFIX" in env else []
    prefixes += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
    for prefix in prefixes:
        bin_dir = os.path.join(prefix, "bin")
        if os.path.isfile(os.path.join(bin_dir, "dune")):
            env["PATH"] = bin_dir + os.pathsep + env.get("PATH", "")
            return [os.path.join(bin_dir, "dune")]
    return None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = dune_command(env)
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        dune + ["build", "--root", ".", "--display", "quiet",
                "./perfbench/main.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execve(EXE, [EXE] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
