#!/usr/bin/env python3
"""Show that the benchmark's checks bite; exits 1 if one does not.

    python3 perfbench/selftest.py

Each case hands an operation's result to the same check the benchmark
runs after every round; a non-empty problem list is what makes the
benchmark count the operation as failed.  Every perturbed case must fail
and every control must pass.
"""
from __future__ import annotations

import copy
import json
import os
import sys

import checks
import run
import workloads

SEED = workloads.DEFAULT_SEED
BAD_MARKOV = {"matrix": [[1, 1], [1, 1]], "depth": 2,
              "markov": {"q0": [0.5, 0.5],
                         "edges": [[lvl, s, t, 0.9 if (lvl, s, t) == (0, 0, 0)
                                    else 0.5]
                                   for lvl in range(2) for s in range(2)
                                   for t in range(2)]}}


def verdict(kind, payload, frozen, rc=0, reference=None, seeded=True):
    text = payload if isinstance(payload, str) else json.dumps(payload)
    return checks.check_op(kind, seeded, rc, text, SEED, SEED, frozen,
                           reference)


def cases(tmp: str):
    """(description, problems, should fail) per case."""
    with open(run.FROZEN, encoding="utf-8") as fh:
        frozen = json.load(fh)["ops"]

    walk = frozen["walk_fixed"]["walk"]
    yield "frozen walk answer", verdict("walk", walk, walk), False
    moved = copy.deepcopy(walk)
    moved["trace"][7][1] = 1 - moved["trace"][7][1]
    yield "walk trace with one vertex changed", verdict("walk", moved, walk), True
    moved = copy.deepcopy(walk)
    moved["mean_returns_per_step"] *= 1.0 + 1e-15
    yield ("walk mean_returns_per_step off in the last digits",
           verdict("walk", moved, walk), True)

    fib = os.path.join(tmp, "fib.json")
    with open(fib, "w", encoding="utf-8") as fh:
        json.dump(workloads.SPECS["fib"], fh)
    depth = workloads.LAPLACIAN_DEPTH
    ref = checks.harmonic_reference(workloads.network(fib, depth), 0.0, 1.0)
    gated = frozen["deep_fib"]["laplacian"]
    rc, text = run.run_op(["analyze", fib, "laplacian", "--depth",
                           str(depth)])
    yield (f"analyze laplacian --depth {depth} as the program answers it",
           verdict("laplacian", text, gated, rc=rc, reference=ref), False)
    exact = {"iterations": 1, "residual": 0.0, "max_principle_ok": True,
             "levels": [v.tolist() for v in ref.levels]}
    yield ("harmonic values equal to the dense solve",
           verdict("laplacian", exact, gated, reference=ref), False)
    moved = copy.deepcopy(exact)
    moved["levels"][depth // 2][0] += 1e-6
    yield ("harmonic value off by 1e-6",
           verdict("laplacian", moved, gated, reference=ref), True)
    flat = dict(exact, levels=[[0.0] * len(v) for v in ref.levels[:1]]
                + [[0.5] * len(v) for v in ref.levels[1:-1]]
                + [[1.0] * len(v) for v in ref.levels[-1:]])
    yield ("harmonic values 0.5 on every interior level",
           verdict("laplacian", flat, gated, reference=ref), True)

    check = frozen["deep_fib"]["check"]
    flipped = copy.deepcopy(check)
    flipped["results"][3]["passed"] = False
    yield ("check answer with one invariant flag flipped",
           verdict("check", flipped, check), True)
    bad = os.path.join(tmp, "bad_markov.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(BAD_MARKOV, fh)
    rc, text = run.run_op(["check", bad, "--suite", "operators",
                           "--format", "json"])
    yield (f"check that exits {rc} (a row sums to 1.4)",
           verdict("check", text, check, rc=rc), True)

    allones = os.path.join(tmp, "allones.json")
    with open(allones, "w", encoding="utf-8") as fh:
        json.dump(workloads.SPECS["allones"], fh)
    net = workloads.network(allones, workloads.HIT_DEPTH)
    exact_hit = float(checks.dense_harmonic(
        net, 0.0, 1.0)[workloads.HIT_LEVEL][0])
    hit = frozen["walk_hitting"]["hitting"]
    far = dict(hit, estimate=exact_hit + 5 * hit["stderr"])
    yield ("hitting estimate 5 stderr from the dense solve at another seed",
           checks.check_op("hitting", True, 0, json.dumps(far), SEED + 1,
                           SEED, hit, exact_hit), True)
    kern = copy.deepcopy(frozen["walk_fixed"]["kernels"])
    kern["sample"]["max_z"] = 6.0
    yield ("sampler max_z of 6 at another seed",
           checks.check_op("kernels", True, 0, json.dumps(kern), SEED + 1,
                           SEED, frozen["walk_fixed"]["kernels"]), True)


def main() -> int:
    bad = 0
    run.import_package()
    with run.work_dir() as tmp:
        for what, problems, should_fail in cases(tmp):
            ok = bool(problems) == should_fail
            bad += not ok
            outcome = "failed" if problems else "passed"
            print(f"{'ok ' if ok else 'BAD'} {what}: {outcome}"
                  + (f" ({problems[0]})" if problems else ""))
    print("all checks bite" if not bad else f"{bad} case(s) wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
