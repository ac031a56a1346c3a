"""Byte identity of the command line against another revision.

``python tools/golden.py REV`` checks REV out into a temporary git
worktree and runs a fixed list of ``python -m bratteli`` commands on that
tree and on the working tree, each in a fresh process through
``ci_checks.run``: once at OPENBLAS_NUM_THREADS=1 and once at the machine
default.  It prints every command whose stdout, stderr or exit code
differs between the two trees, for each thread setting apart, and exits 1
if any does.  No reference output is stored: BLAS bytes depend on the
machine and the thread count, so REV run on the same machine is the
reference.  Both trees read the same spec files, the working tree's.
"""
import glob
import json
import os
import subprocess
import sys
import tempfile

import ci_checks as ci

FIBONACCI = os.path.join("examples_specs", "fibonacci.json")
BAND = {"band": {"-2": 1, "0": 2, "2": 1}, "window": [-100, 100, 2],
        "depth": 12}   # 101 vertices
NAT = {"substitution": {"name": "nat_length_two"}, "window": [0, 40]}
# (name, value of OPENBLAS_NUM_THREADS or None for the machine default)
THREADS = (("OPENBLAS_NUM_THREADS=1", "1"), ("machine default", None))


def commands(specs, kinds, band: str, nat: str) -> list:
    """The argument lists after ``python -m bratteli``: every spec in
    ``specs`` under every command form, then Fibonacci at depth 60, the
    101-vertex band held in the file ``band`` and the clipped
    ``nat_length_two`` window held in ``nat``."""
    out = []
    for spec in specs:
        out += [["validate", spec], ["validate", spec, "--emit-spec"],
                ["check", spec],
                *(["check", spec, "--format", "json", "--seed", seed]
                  for seed in ("0", "7")),
                *(["analyze", spec, kind] for kind in kinds)]
    return out + [
        ["check", FIBONACCI, "--depth", "60", "--seed", "1"],
        ["analyze", FIBONACCI, "laplacian", "--depth", "60"],
        ["check", band], ["analyze", band, "laplacian"],
        ["analyze", band, "energy"],
        ["check", nat, "--depth", "20"]]


def _first_line(a: bytes, b: bytes) -> int:
    """The number, from 1, of the first line where a and b differ."""
    la, lb = a.splitlines(), b.splitlines()
    return next((k + 1 for k, (x, y) in enumerate(zip(la, lb)) if x != y),
                min(len(la), len(lb)) + 1)


def differences(old, new) -> list:
    """One line per pair of runs of one command whose exit code, stdout or
    stderr differ, naming what differs; empty when every pair agrees."""
    out = []
    for a, b in zip(old, new, strict=True):
        what = [f"exit code {a.code} -> {b.code}"] if a.code != b.code else []
        what += [f"{name} from line {_first_line(x, y)}"
                 for name, x, y in (("stdout", a.stdout, b.stdout),
                                    ("stderr", a.stderr, b.stderr))
                 if x != y]
        if what:
            out.append(f"{ci._command(b)}: {', '.join(what)}")
    return out


def _env(tree: str, threads) -> dict:
    """This process's environment, importing bratteli from ``tree`` and
    with OPENBLAS_NUM_THREADS set to ``threads`` (None: unset)."""
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(tree, "src"), env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def compare(tree: str, argvs) -> int:
    """Run every command on ``tree`` and on the working tree at each thread
    setting; print the differences and return how many there are."""
    found = 0
    for name, threads in THREADS:
        old, new = [], []
        for argv in argvs:   # alternating, so load drifts hit both alike
            old.append(ci.run([*ci.BRATTELI, *argv], env=_env(tree, threads)))
            new.append(ci.run([*ci.BRATTELI, *argv],
                              env=_env(ci.ROOT, threads)))
        diff = differences(old, new)
        for line in diff:
            print(f"{name}: {line}", flush=True)
        print(f"{name}: {len(diff)} of {len(argvs)} commands differ",
              flush=True)
        found += len(diff)
    return found


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tools/golden.py REV", file=sys.stderr)
        return 2
    os.chdir(ci.ROOT)
    kinds = ci.analysis_kinds(_env(ci.ROOT, None))
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", tree,
                        argv[0]], check=True)
        try:
            files = []
            for name, doc in (("band.json", BAND), ("nat.json", NAT)):
                files.append(os.path.join(tmp, name))
                with open(files[-1], "w") as fh:
                    json.dump(doc, fh)
            specs = sorted(glob.glob("examples_specs/*.json"))
            found = compare(tree, commands(specs, kinds, *files))
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", tree],
                           check=True)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
