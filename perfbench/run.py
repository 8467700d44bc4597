#!/usr/bin/env python3
"""Repository benchmark for the tokencmp simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oltp_token --seed 1 --seconds 10 --trace 0

The driver builds the benchmark program from source, runs it, checks
its result line and prints that line last. The build happens in
.bench_build/ at the checkout root: lib/ and perfbench/_ocaml/ are
copied into a staging tree (lib/ and bench/) with its own dune-project,
so the repository's own dune build never sees the benchmark and the
benchmark always links the library as the checkout has it. Files are
only rewritten when their contents change, so repeated runs rebuild
nothing. The first run of a fresh checkout compiles the library.

Workloads, metrics and what they mean are described in
perfbench/_ocaml/main.ml. Exit status is 0 only when a result was
printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
STAGE = os.path.join(ROOT, ".bench_build", "stage")
EXE = os.path.join(STAGE, "_build", "default", "bench", "main.exe")

BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 150


def sync_tree(src, dst, skip=()):
    """Mirror src into dst, rewriting only files whose bytes differ."""
    os.makedirs(dst, exist_ok=True)
    wanted = set()
    for entry in os.scandir(src):
        if entry.name.startswith((".", "_")) or entry.name in skip:
            continue
        wanted.add(entry.name)
        target = os.path.join(dst, entry.name)
        if entry.is_dir(follow_symlinks=False):
            sync_tree(entry.path, target)
        elif entry.is_file(follow_symlinks=False):
            with open(entry.path, "rb") as f:
                data = f.read()
            try:
                with open(target, "rb") as f:
                    same = f.read() == data
            except OSError:
                same = False
            if not same:
                with open(target, "wb") as f:
                    f.write(data)
    for name in os.listdir(dst):
        if name not in wanted and not name.startswith((".", "_")):
            path = os.path.join(dst, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)


def build():
    lib = os.path.join(ROOT, "lib")
    src = os.path.join(HERE, "_ocaml")
    if not os.path.isdir(lib) or not os.path.isdir(src):
        sys.exit("perfbench: run from a checkout root holding lib/ and perfbench/")
    sync_tree(lib, os.path.join(STAGE, "lib"))
    sync_tree(src, os.path.join(STAGE, "bench"), skip=("dune-project",))
    shutil.copyfile(os.path.join(src, "dune-project"), os.path.join(STAGE, "dune-project"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", STAGE, "--profile", "release", "./bench/main.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + RUN_GRACE_S)
    lines = proc.stdout.rstrip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: benchmark program failed (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
