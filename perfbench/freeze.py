#!/usr/bin/env python3
"""Write frozen.json: every operation's gated answer at the default seed.

    python3 perfbench/freeze.py

The committed frozen.json was written at commit e092d2a, before any
optimisation, and is the reference every later commit is checked against.
Writing it again hides any answer a change has altered, so a refreeze is a
deliberate act, recorded in CHANGES.md with its reason.
"""
from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    ops = {}
    run.import_package()
    for name, wl in workloads.WORKLOADS.items():
        with run.work_dir() as tmp:
            paths = workloads.write_specs(wl, tmp)
            ops[name] = {}
            for op in wl.ops:
                rc, text = run.run_op(op.command(paths,
                                                 workloads.DEFAULT_SEED))
                if rc != 0:
                    sys.stderr.write(f"{name}/{op.name} failed: {rc}\n")
                    return 1
                ops[name][op.name] = checks.gated_view(op.kind,
                                                       json.loads(text))
                print(f"froze {name}/{op.name}", flush=True)
    with open(run.FROZEN, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "ops": ops}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
