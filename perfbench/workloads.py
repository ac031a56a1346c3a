"""The benchmark's workloads: generated inputs, operation lists and sizes.

Each workload is a closed loop: one client runs its operations back to
back, the next only after the previous one returned.  The workload seed
feeds the program's ``--seed`` arguments and the sampling seeds; the specs
themselves are fixed, so the unseeded operations answer the same for every
seed.  README.md next to this file says why each workload was chosen and
which layer it stresses.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 0

FIB_DEPTH = 60
# The harmonic values themselves are checked at a smaller depth: the same
# solver at depth 60 would double the round and halve the rounds a run
# measures.
LAPLACIAN_DEPTH = 30
BAND_WINDOW = [-800, 800, 2]
BAND_DEPTH = 20
WALK_TRIALS = 20_000
WALK_STEPS = 400
KERNEL_TRIALS = 200_000
KERNEL_DEPTH = 3
HIT_DEPTH = 30
HIT_LEVEL = 3
HIT_TRIALS = 40_000

SPECS = {
    "fib": {"substitution": {"name": "fibonacci"}, "depth": 8},
    "band": {"band": {"-2": 1, "0": 2, "2": 1}, "window": BAND_WINDOW,
             "depth": BAND_DEPTH},
    "allones": {"matrix": [[1, 1], [1, 1]], "depth": 6,
                "markov": {"from_tail_invariant": True,
                           "normalization": "probability"}},
    "kernels": {"matrix": [[1]], "depth": KERNEL_DEPTH,
                "kernels": {"nu0": [0.5, 0.5],
                            "chain": [[[0.7, 0.3], [0.4, 0.6]],
                                      [[0.2, 0.8], [0.5, 0.5]],
                                      [[0.9, 0.1], [0.3, 0.7]]]}},
}


@dataclass(frozen=True)
class Op:
    """One operation: a ``bratteli`` command line, or ``hitting`` for the
    one kernel no command reaches.  ``{name}`` stands for the path of the
    spec ``name`` and ``{seed}`` for the workload seed."""

    name: str
    argv: tuple[str, ...]

    @property
    def kind(self) -> str:
        if self.argv[0] == "analyze":
            return self.argv[2]
        return self.argv[0]

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.argv

    def command(self, paths: dict[str, str], seed: int) -> list[str]:
        return [a.format(seed=seed, **paths) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    warm_up: bool = False            # run each sampling kernel once in set-up
    work: tuple[tuple[str, int], ...] = ()   # per-round work of a kernel

    def specs(self) -> list[str]:
        """Names of the specs the operations use."""
        return [key for key in SPECS
                if any("{%s}" % key in a for op in self.ops for a in op.argv)]


WORKLOADS = {w.name: w for w in (
    Workload("deep_fib", (
        Op("validate", ("validate", "{fib}", "--depth", str(FIB_DEPTH))),
        Op("pf", ("analyze", "{fib}", "pf")),
        Op("check", ("check", "{fib}", "--depth", str(FIB_DEPTH),
                     "--format", "json", "--seed", "{seed}")),
        Op("laplacian", ("analyze", "{fib}", "laplacian", "--depth",
                         str(LAPLACIAN_DEPTH))),
    )),
    Workload("wide_band", (
        Op("validate", ("validate", "{band}")),
        Op("check_consistency", ("check", "{band}", "--suite", "consistency",
                                 "--format", "json")),
        Op("check_operators", ("check", "{band}", "--suite", "operators",
                               "--format", "json", "--seed", "{seed}")),
        Op("markov", ("analyze", "{band}", "markov")),
        Op("measure", ("analyze", "{band}", "measure")),
    )),
    Workload("walk_fixed", (
        Op("walk", ("analyze", "{allones}", "walk", "--trials",
                    str(WALK_TRIALS), "--steps", str(WALK_STEPS),
                    "--seed", "{seed}")),
        Op("kernels", ("analyze", "{kernels}", "kernels", "--trials",
                       str(KERNEL_TRIALS), "--seed", "{seed}")),
    ), warm_up=True, work=(
        ("accel.walk_returns_kernel", WALK_TRIALS * WALK_STEPS),
        ("accel.sample_chain_kernel", KERNEL_TRIALS * KERNEL_DEPTH))),
    Workload("walk_hitting", (
        Op("hitting", ("hitting", "{allones}", "{seed}")),
    ), warm_up=True, work=(("accel.walk_hitting_kernel", HIT_TRIALS),)),
)}


def write_specs(workload: Workload, directory: str) -> dict[str, str]:
    """Write the workload's specs into ``directory``; name -> path."""
    paths = {}
    for key in workload.specs():
        path = os.path.join(directory, key + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(SPECS[key], fh)
        paths[key] = path
    return paths


def network(spec_path: str, depth: int):
    """The Laplacian network of an induced-Markov spec, built through the
    package's public functions the way ``analyze laplacian`` builds it."""
    from bratteli import laplacian as lp, markov as mk, measures as ms
    from bratteli.specfile import load_spec
    spec = load_spec(spec_path, depth)
    d = spec.diagram
    mu, _ = ms.stationary_pf_measure(d, normalization="probability",
                                     tol=1e-10)
    return lp.build_network(mk.dual_kernels(
        mk.markov_from_tail_invariant(d, mu)))


def hitting(spec_path: str, seed: int) -> str:
    """The ``hitting`` operation; returns its answer as JSON text."""
    from bratteli import laplacian as lp
    net = network(spec_path, HIT_DEPTH)
    start = (HIT_LEVEL, net.kernels.diagram.vertices(HIT_LEVEL)[0])
    est = lp.hitting_probability(net, start, trials=HIT_TRIALS, seed=seed)
    return json.dumps({"estimate": est.estimate, "stderr": est.stderr,
                       "top_hits": est.top_hits,
                       "bottom_hits": est.bottom_hits,
                       "timeouts": est.timeouts, "trials": est.trials,
                       "backend": getattr(est, "backend", None)},
                      sort_keys=True) + "\n"


def warm_up(paths: dict[str, str]) -> None:
    """One tiny call per sampling kernel, so that a JIT compiles in set-up
    and not in the first timed round."""
    from bratteli import cells as cl, laplacian as lp
    from bratteli.specfile import parse_spec
    net = network(paths["allones"], 3)
    lp.walk(net, (0, 0), steps=10, trials=10, seed=0)
    lp.hitting_probability(net, (1, 0), trials=10, seed=0)
    spaces, kernels = parse_spec(SPECS["kernels"]).kernels
    cl.path_measure_sample(spaces, kernels, 0, KERNEL_DEPTH, seed=0,
                           trials=10)
