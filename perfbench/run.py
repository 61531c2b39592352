#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload storm|policy|cluster \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py selftest

Run from the root of a checkout of the repository. The harness is built
with dune inside the checkout (no shared dune cache), then run in this
process's place; its last line of standard output is the JSON result.
Build output goes to standard error.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT = os.path.join("_build", "perfbench")


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: %s is not a checkout of the repository "
                         "(no dune-project or lib/)\n" % root)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write("run.py: build failed\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    # Spans of traced runs, and the runtime's GC event ring, stay in
    # the build directory.
    env["PERFBENCH_OUT"] = OUT
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    sys.stdout.flush()
    os.execve(EXE, [EXE] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
