"""Every CI check after tier-1, each in fresh processes: memory bounds,
output bytes, the hypothesis property tests, the benchmark's self-test and
its frozen answers.

Each row of ``rows()`` runs its commands (``python -m bratteli``, pytest or
a ``perfbench`` script) in fresh processes, and a pure function of their
readings decides it.  ``python tools/ci_checks.py`` prints every row's
reading and exits 1 if any row fails.
"""
import functools
import glob
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BRATTELI = (sys.executable, "-m", "bratteli")
# the hypothesis property tests, which skip in tier-1 without hypothesis
PROPERTY_TESTS = (
    "tests/test_cells.py::test_refinement_commutes_with_aggregation",
    "tests/test_diagram.py::test_heights_satisfy_recursion")
WORKLOADS = ("deep_fib", "wide_band", "walk_fixed", "walk_hitting")
SAMPLED = ("walk_fixed", "walk_hitting")   # their kernels may run in shards
Run = namedtuple("Run", "argv code stdout stderr wall_s maxrss_mb ncpus")


def run(argv, cpus=None) -> Run:
    """Run ``argv`` in a fresh process, on the CPU set ``cpus`` when given.
    stdout and stderr are the bytes the child wrote.  maxrss is the child's
    own (os.wait4), but never below the caller's peak RSS, which Linux
    records at exec."""
    pin = (None if cpus is None
           else functools.partial(os.sched_setaffinity, 0, cpus))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, preexec_fn=pin)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(tuple(argv), proc.returncode, out.read(), err.read(),
                   wall, usage.ru_maxrss / 1024,
                   len(cpus or os.sched_getaffinity(0)))


def one_cpu() -> set:
    """One CPU of this process's set, on which a walk runs unsharded."""
    return {min(os.sched_getaffinity(0))}


def run_on(spec: bytes, command: str, *args) -> Run:
    """``python -m bratteli command <a spec file holding spec> args``."""
    with tempfile.NamedTemporaryFile(suffix=".json") as fh:
        fh.write(spec)
        fh.flush()
        return run([*BRATTELI, command, fh.name, *args])


def _command(r: Run) -> str:
    """The run's command line, without the interpreter and -m bratteli."""
    skip = len(BRATTELI) if r.argv[1:3] == BRATTELI[1:] else 1
    return " ".join(r.argv[skip:])


def _exits(runs, codes=(0,)) -> str:
    """Each run whose exit code is not in ``codes`` (None: any)."""
    if codes is None:
        return ""
    return "".join(f"; {_command(r)}: exit code {r.code}, "
                   f"{len(r.stderr)} bytes on stderr\n"
                   f"{r.stderr.decode(errors='replace')}"
                   for r in runs if r.code not in codes)


def maxrss(bound, codes=(0,)):
    """At most ``bound`` MB: one run's maxrss, or the second run's above the
    first's; each exit code in ``codes`` (None: any)."""
    def check(runs):
        mb = [r.maxrss_mb for r in runs]
        reading = f"maxrss {' / '.join(f'{x:.1f}' for x in mb)} MB"
        over = mb[0]
        if len(mb) == 2:
            over = mb[1] - mb[0]
            reading += f", growth {over:.1f} MB"
        err = _exits(runs, codes)
        return not err and over <= bound, f"{reading} (bound {bound} MB){err}"
    return check


def same_bytes(runs):
    """The same stdout bytes on one CPU and on every CPU, at least two."""
    one, every = runs
    err = _exits(runs)
    if every.ncpus < 2:
        err += "; a single CPU runs one shard"
    if one.stdout != every.stdout:
        err += "; the bytes differ"
    return not err, (f"{len(one.stdout)} bytes on 1 CPU, {len(every.stdout)}"
                     f" on {every.ncpus}{err or ', equal'}")


def _fault(r: Run) -> str:
    """Why one command on an example spec fails, or "" if it passes."""
    if r.code not in ((0, 1) if r.argv[3] == "analyze" else (0,)) or r.stderr:
        return _exits([r], ())
    try:   # strict UTF-8: a stray byte is not JSON
        text = r.stdout.decode()
        canonical = text == json.dumps(json.loads(text), sort_keys=True,
                                       indent=2) + "\n"
    except ValueError:
        canonical = False
    return "" if canonical else f"; {_command(r)}: not canonical JSON"


def _ints_only(x) -> bool:
    if isinstance(x, dict):
        x = [v for k, v in x.items() if k not in ("markov", "kernels")]
    return (all(map(_ints_only, x)) if isinstance(x, list)
            else not isinstance(x, float))


def json_bytes(runs):
    """The CLI writes its JSON itself: byte for byte json.dumps(sort_keys=True,
    indent=2), nothing on stderr.  validate and check exit 0 on every example;
    analyze may exit 1 with an error object (kernels without a kernels
    block).  validate --emit-spec writes the canonical spec, which must emit
    itself again and hold no float outside markov and kernels."""
    emitted = {r.stdout for r in runs if r.argv[-1] == "--emit-spec"}
    faults = "".join(map(_fault, runs)) or (
        "" if len(emitted) == 1 and _ints_only(json.loads(emitted.pop()))
        else "; --emit-spec is no fixpoint, or emits a float as an int")
    return not faults, faults[2:] or f"{len(runs)} commands pass"


def _lines(r: Run) -> list:
    return r.stdout.decode(errors="replace").splitlines()


def _verdict(lines, err):
    """(passed, reading): the lines, then why the row fails, if it does."""
    return not err, "\n".join([*lines, err[2:]] if err else lines)


def property_tests(runs):
    """pytest exits 0 and a summary line starts with "2 passed": a skip,
    as where hypothesis is missing, is not a pass.  The reading is the
    summary, or pytest's whole stdout when the row fails."""
    (r,) = runs
    lines = _lines(r)
    err = _exits(runs)
    if not any(line.startswith("2 passed") for line in lines):
        err += "; not both tests passed"
    return _verdict(lines if err else lines[-1:], err)


def self_test(runs):
    """perfbench/selftest.py exits 0: every check of the benchmark bites.
    The reading is its last line, or its whole stdout when it fails."""
    (r,) = runs
    lines = _lines(r)
    err = _exits(runs)
    return _verdict(lines if err else lines[-1:], err)


def frozen_answers(runs):
    """perfbench/run.py exits 0 whether or not its answers are right, so
    the verdict is its last stdout line, the result JSON, whose "correct"
    must be true.  The reading is every line but the two JSON lines at
    the end: the run's summary and its failures."""
    (r,) = runs
    lines = _lines(r)
    try:
        correct = json.loads(lines[-1])["correct"] is True
    except (IndexError, KeyError, TypeError, ValueError):
        correct = False
    err = _exits(runs) + ("" if correct else "; the answers are not correct")
    return _verdict(lines[:-2], err)


def _frozen(workload, pinned=False):
    """One seed-0 benchmark run of ``workload``, on one CPU if pinned."""
    return [run([sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "0", "--seconds", "1"],
                cpus=one_cpu() if pinned else None)]


def _example(spec, kinds):
    runs = [run([*BRATTELI, *argv]) for argv in (
        ["validate", spec], ["validate", spec, "--emit-spec"],
        ["check", spec, "--format", "json"],
        *(["analyze", spec, kind] for kind in kinds))]
    return runs + [run_on(runs[1].stdout, "validate", "--emit-spec")]


def rows(kinds):
    """(name, measure, check): measure runs the row's commands, each in a
    fresh process, and check maps their readings to (passed, reading)."""
    drunkard = {"substitution": {"name": "drunkard_walk"}, "depth": 3,
                "window": [-100000, 100000, 2]}   # 100001 vertices
    band = {"band": {"-2": 1, "0": 2, "2": 1}, "window": [-800, 800, 2]}
    walk = [*BRATTELI, "analyze", "examples_specs/allones.json", "walk",
            "--trials", "20000", "--steps", "200", "--seed", "3"]
    return [
        # A sampler derives each block's seed words when the block starts,
        # so its memory does not grow with the trial count; analyze kernels
        # keeps no per-trial result at all.
        ("analyze kernels at 200000, then 2000000 trials",
         lambda: [run([*BRATTELI, "analyze", "examples_specs/kernels.json",
                       "kernels", "--trials", str(n)])
                  for n in (200000, 2000000)], maxrss(8)),
        # Every trial owns its seed stream, so a walk's answers cannot
        # depend on how its trials are split into shards: one on one CPU
        # (and one BLAS thread), 2 or more when it may fork on every CPU.
        ("analyze walk on one CPU and on every CPU",
         lambda: [run(walk, cpus=one_cpu()), run(walk)],
         same_bytes),
        # An edge order is one int64 array of natural edge positions per
        # level, so a reading order costs about as much memory as the
        # natural order, which builds nothing.
        ("validate the drunkard walk, natural then reading order",
         lambda: [run_on(json.dumps({**drunkard, "order": order}).encode(),
                         "validate")
                  for order in ("natural", "reading")], maxrss(15)),
        # A stationary diagram holds one level record and exact heights
        # stream, so depth costs time, not memory.  Fibonacci's masses
        # underflow at depth 40000, so check exits 1: only memory counts.
        ("check fibonacci.json --suite consistency --depth 40000",
         lambda: [run([*BRATTELI, "check", "examples_specs/fibonacci.json",
                       "--suite", "consistency", "--depth", "40000"])],
         maxrss(80, codes=None)),
        # The induced system, its sweep, the checks and the network keep
        # one row per level in one array per batch, and the dense kernels
        # live a batch at a time, so a full check grows with depth only
        # by those rows.
        ("check fibonacci.json --seed 1 at depth 60, then 1400",
         lambda: [run([*BRATTELI, "check", "examples_specs/fibonacci.json",
                       "--seed", "1", "--depth", str(depth)])
                  for depth in (60, 1400)], maxrss(10)),
        ("validate allones.json --depth 1000000",
         lambda: [run([*BRATTELI, "validate", "examples_specs/allones.json",
                       "--depth", "1000000"])], maxrss(100)),
        # The operators and Laplacian loops read the dense kernels a batch
        # of levels at a time, as many as fit in a fixed budget of floats,
        # so a level wider than the budget is a batch of one and depth
        # costs time, not memory, on the 801-vertex band.
        ("check --suite operators on the band, depth 2 then 20",
         lambda: [run_on(json.dumps({**band, "depth": depth}).encode(),
                         "check", "--suite", "operators", "--format", "json")
                  for depth in (2, 20)], maxrss(8)),
    ] + [(f"{spec}: every command", functools.partial(_example, spec, kinds),
          json_bytes) for spec in sorted(glob.glob("examples_specs/*.json",
                                                   root_dir=ROOT))] + [
        # tier-1 runs without hypothesis, where the two property tests
        # skip; here both must run and pass
        ("property tests with hypothesis",
         lambda: [run([sys.executable, "-m", "pytest", "-q",
                       *PROPERTY_TESTS])], property_tests),
        ("benchmark self-test",
         lambda: [run([sys.executable, "perfbench/selftest.py"])], self_test),
        # At seed 0 every workload's answers are frozen bit for bit.  With
        # several CPUs the walk kernels run in forked shards, so the sampled
        # workloads run again on one CPU, where they run in-process, and
        # must give the same frozen answers.
    ] + [(f"frozen answers of {w}", functools.partial(_frozen, w),
          frozen_answers) for w in WORKLOADS] + [
        (f"frozen answers of {w} on one CPU",
         functools.partial(_frozen, w, pinned=True), frozen_answers)
        for w in SAMPLED]


def main() -> int:
    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")]))
    kinds = subprocess.run(   # in a child: this process never imports numpy
        [sys.executable, "-c", "from bratteli import cli; "
         "print(*sorted(cli._ANALYSES))"],
        check=True, capture_output=True, text=True).stdout.split()
    failed = 0
    for name, measure, check in rows(kinds):
        runs = measure()
        passed, reading = check(runs)
        print(f"{'ok' if passed else '::error::FAIL'} {name}: {reading} "
              f"[{sum(r.wall_s for r in runs):.1f} s]", flush=True)
        failed += not passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
