#!/usr/bin/env python3
"""Benchmark of the bratteli pipeline, end to end and layer by layer.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 perfbench/run.py --workload deep_fib --seed 1 --seconds 25
    python3 perfbench/run.py --workload walk_fixed --trace 1
    python3 perfbench/run.py --workload all        # every workload, a table

One run is one workload in one fresh process: set-up, then rounds of the
workload's operations back to back until ``--seconds`` have passed.  Every
operation's answer is checked (checks.py).  With ``--trace 1`` one more
round runs with spans around the package's functions (tracing.py) and the
run reports per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
record (run facts, round times, failures).  README.md describes the
workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import tracing
import workloads

PROCESS_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_BASE = os.path.join(ROOT, ".perfbench_work")
FROZEN = os.path.join(HERE, "frozen.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
# Set-up probes run before the first round and after every round, so that
# their median spans the whole run and not one moment of it.
PROBES_PER_GAP = 3
# No round starts when it would end later than this after process start,
# so that a run ends within 180 s even on a slow commit.
ROUND_BUDGET_S = 140.0


def import_package():
    """Import bratteli from this checkout's ``src/`` and nowhere else."""
    package_dir = os.path.join(SRC, "bratteli")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise SystemExit(f"perfbench: no package source in {package_dir}; "
                         "run from the root of a checkout")
    sys.path.insert(0, SRC)
    import bratteli
    if os.path.dirname(os.path.abspath(bratteli.__file__)) != package_dir:
        raise SystemExit(f"perfbench: bratteli imported from "
                         f"{bratteli.__file__}, not {package_dir}")


@contextlib.contextmanager
def work_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    os.makedirs(WORK_BASE, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_BASE) as tmp:
            yield tmp
    finally:
        with contextlib.suppress(OSError):   # another run still uses it
            os.rmdir(WORK_BASE)


class Setup:
    """Everything a workload needs before its first timed round."""

    def __init__(self, name: str, seed: int, directory: str):
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        paths = workloads.write_specs(self.workload, directory)
        self.commands = [op.command(paths, seed) for op in self.workload.ops]
        with open(FROZEN, encoding="utf-8") as fh:
            self.frozen = json.load(fh)["ops"][name]
        # The dense harmonic solve each operation's answer is held to.
        self.references = {}
        for op in self.workload.ops:
            if op.kind == "hitting":
                net = workloads.network(paths["allones"], workloads.HIT_DEPTH)
                self.references[op.name] = float(checks.dense_harmonic(
                    net, 0.0, 1.0)[workloads.HIT_LEVEL][0])
            elif op.kind == "laplacian":
                net = workloads.network(paths["fib"],
                                        workloads.LAPLACIAN_DEPTH)
                self.references[op.name] = checks.harmonic_reference(
                    net, 0.0, 1.0)
        if self.workload.warm_up:
            workloads.warm_up(paths)


def declared(key: str) -> list[dict]:
    """The metrics BENCHMARK.json declares under ``key``."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)[key]


def run_op(argv: list[str]):
    """Run one operation in this process; (exit code or error, stdout)."""
    from bratteli import cli
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            if argv[0] == "hitting":
                sys.stdout.write(workloads.hitting(argv[1], int(argv[2])))
                rc = 0
            else:
                rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # the loop goes on; the operation counts failed
        rc = f"raised {type(e).__name__}: {e}"
    return rc, buf.getvalue()


def run_round(setup: Setup):
    """One pass over the operation list: (wall seconds, results, op times)."""
    results, op_times = [], []
    start = time.perf_counter()
    for argv in setup.commands:
        t0 = time.perf_counter()
        results.append(run_op(argv))
        op_times.append(time.perf_counter() - t0)
    return time.perf_counter() - start, results, op_times


def judge(setup: Setup, results, first, verdicts) -> list[list[str]]:
    """Problems per operation.  The first round is checked against the
    frozen values and references; every later round must repeat its
    output byte for byte."""
    if first is None:
        for op, (rc, text) in zip(setup.workload.ops, results):
            try:
                verdicts.append(checks.check_op(
                    op.kind, op.seeded, rc, text, setup.seed,
                    workloads.DEFAULT_SEED, setup.frozen.get(op.name),
                    setup.references.get(op.name)))
            except (AttributeError, IndexError, KeyError, TypeError) as e:
                verdicts.append([f"answer has an unexpected shape: {e!r}"])
        return verdicts
    return [v if got == want else ["output differs from the first round"]
            for v, got, want in zip(verdicts, results, first)]


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code "
                           f"{proc.returncode}")
    return elapsed


def run_facts() -> dict:
    import numpy as np
    from bratteli import _accel
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    digest = hashlib.sha256()
    package_dir = os.path.join(SRC, "bratteli")
    for fname in sorted(os.listdir(package_dir)):
        if fname.endswith(".py"):
            with open(os.path.join(package_dir, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {"git_sha": git_sha(), "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "numba_imports": has_numba,
            "backend": getattr(_accel, "backend", lambda: None)(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "blas": blas}


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """One run: (result line, run record)."""
    load_start = os.getloadavg()
    with work_dir() as tmp:
        setup = Setup(name, seed, tmp)
        setup_times = []

        def probe():
            if not trace:
                setup_times.extend(probe_setup(name, seed)
                                   for _ in range(PROBES_PER_GAP))

        probe()
        rounds, op_times, failures, verdicts = [], [], [], []
        first = None
        attempted = failed = 0

        def account(label, results):
            nonlocal attempted, failed
            problems = judge(setup, results, first, verdicts)
            attempted += len(problems)
            for op, p in zip(setup.workload.ops, problems):
                if p:
                    failed += 1
                    failures.append({"round": label, "op": op.name,
                                     "problems": p[:5]})

        start = time.perf_counter()
        while True:
            dt, results, times = run_round(setup)
            rounds.append(dt)
            op_times.append(times)
            account(len(rounds), results)
            if first is None:
                first = results
            probe()
            now = time.perf_counter()
            extra = 2 if trace else 1
            if (now - start >= seconds
                    or now + extra * dt - PROCESS_START > ROUND_BUDGET_S):
                break
        round_s = statistics.median(rounds)

        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_s, results, _ = run_round(setup)
            finally:
                tracer.remove()
            account("traced", results)
            max_err = max((checks.harmonic_error(sol.f.values,
                                                 checks.dense_harmonic(*arg))
                           for *arg, sol in tracer.harmonic
                           if hasattr(getattr(sol, "f", None), "values")),
                          default=0.0)
            metrics = tracing.layer_metrics(tracer, declared("per_layer"),
                                            dict(setup.workload.work),
                                            max_err, traced_s - round_s)
            samples = dict.fromkeys(metrics, 1)
        else:
            values = {
                "setup_s": statistics.median(setup_times),
                "round_s": round_s,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ops_ok_frac": (attempted - failed) / attempted,
            }
            metrics = {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]}
                       for m in declared("end_to_end")}
            samples = {"setup_s": len(setup_times), "round_s": len(rounds),
                       "peak_rss_mb": 1, "ops_ok_frac": attempted}

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "facts": run_facts(),
              "load_avg_start": load_start, "load_avg_end": os.getloadavg(),
              "round_s": rounds, "setup_s": setup_times,
              "op_median_s": {op.name: statistics.median(t[i]
                                                         for t in op_times)
                              for i, op in enumerate(setup.workload.ops)},
              "samples": samples, "failures": failures[:20]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def run_all(args) -> int:
    """Every workload in its own process, one after another; a table."""
    ok = True
    combined = {}
    print(f"{'workload':<13} {'metric':<46} {'value':>14} {'unit':<6} samples")
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name:<13} FAILED with exit code {proc.returncode}")
            ok = False
            continue
        record, result = json.loads(lines[-2])["run"], json.loads(lines[-1])
        combined[name] = result
        ok = ok and result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:<13} {metric:<46} {m['value']:>14.6g} "
                  f"{m['unit']:<6} {record['samples'][metric]}")
        print(f"{name:<13} {'operations failed / attempted':<46} "
              f"{result['failed']:>6} / {result['attempted']}")
    print(json.dumps({"correct": ok, "workloads": combined}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_package()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        with work_dir() as tmp:
            Setup(args.workload, args.seed, tmp)
            print("ready", flush=True)
        return 0
    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    rounds = record["round_s"]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"round_s median {statistics.median(rounds):.4f} s, "
          f"{result['failed']} of {result['attempted']} operations failed")
    for f in record["failures"]:
        print(f"  round {f['round']} {f['op']}: {'; '.join(f['problems'])}")
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
