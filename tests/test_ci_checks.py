"""tools/ci_checks.py: every row's check on fabricated readings, and the
runner's per-child maxrss on real children."""
import importlib.util
import json
import pathlib
import pickle
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ci_checks.py"
_spec = importlib.util.spec_from_file_location("ci_checks", TOOL)
ci = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci)

# the bound rows: (bound in MB, whether the bound is on growth over a first
# run, the exit codes allowed or None for any); no bound may move
BOUNDS = {
    "analyze kernels at 200000, then 2000000 trials": (8, True, (0,)),
    "validate the drunkard walk, natural then reading order":
        (15, True, (0,)),
    "check fibonacci.json --suite consistency --depth 40000":
        (80, False, None),
    "validate allones.json --depth 1000000": (100, False, (0,)),
    "check --suite operators on the band, depth 2 then 20": (8, True, (0,)),
}
WALK = "analyze walk on one CPU and on every CPU"
EXAMPLE = "examples_specs/allones.json: every command"


@pytest.fixture(scope="module")
def checks():
    return {name: check for name, _, check in ci.rows(["kernels", "pf"])}


def reading(*args, code=0, stdout=b"", stderr=b"", mb=40.0, ncpus=2):
    return ci.Run(("python", "-m", "bratteli", *args), code, stdout, stderr,
                  0.1, mb, ncpus)


def test_every_row_is_covered(checks):
    examples = {n for n in checks if n.startswith("examples_specs/")}
    assert set(checks) - examples == {*BOUNDS, WALK}
    assert EXAMPLE in examples and len(examples) >= 5


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_bound_fails_just_above_its_number_and_passes_at_it(checks, name):
    bound, growth, codes = BOUNDS[name]
    base = 32.0 if growth else 0.0

    def verdict(mb, code=0):
        runs = [reading("x", mb=mb, code=code)]
        if growth:
            runs.insert(0, reading("x", mb=base))
        return checks[name](runs)[0]

    assert verdict(base + bound)
    assert not verdict(base + bound + 0.1)
    assert verdict(base + bound, code=1) is (codes is None)
    assert verdict(base + bound, code=2) is (codes is None)


def test_walk_needs_equal_bytes_on_two_cpus(checks):
    check = checks[WALK]
    out = b'{\n  "mean": 0.5\n}\n'
    assert check([reading(ncpus=1, stdout=out), reading(stdout=out)])[0]
    assert not check([reading(ncpus=1, stdout=out),
                      reading(stdout=out.replace(b"5", b"6"))])[0]
    # bytes that are no UTF-8 differ too, though both decode to U+FFFD
    assert not check([reading(ncpus=1, stdout=b"\xff"),
                      reading(stdout=b"\xfe")])[0]
    assert not check([reading(ncpus=1, stdout=out),
                      reading(ncpus=1, stdout=out)])[0]
    assert not check([reading(ncpus=1, stdout=out),
                      reading(stdout=out, code=1)])[0]


def _example_runs(emit=b'{\n  "depth": 2\n}\n', again=None):
    spec = "examples_specs/allones.json"
    ok = json.dumps({"passed": True}, indent=2).encode() + b"\n"
    err = json.dumps({"error": {"kind": "SpecError"}}, indent=2).encode()
    err += b"\n"
    return [reading("validate", spec, stdout=ok),
            reading("validate", spec, "--emit-spec", stdout=emit),
            reading("check", spec, "--format", "json", stdout=ok),
            reading("analyze", spec, "kernels", code=1, stdout=err),
            reading("analyze", spec, "pf", stdout=ok),
            reading("validate", "emitted.json", "--emit-spec",
                    stdout=emit if again is None else again)]


def test_example_commands(checks):
    check = checks[EXAMPLE]
    assert check(_example_runs())[0]
    # floats are read as floats in markov and kernels only
    assert check(_example_runs(b'{\n  "markov": {\n    "q0": [\n      0.5\n'
                               b'    ]\n  }\n}\n'))[0]
    assert not check(_example_runs(b'{\n  "depth": 2.0\n}\n'))[0]
    assert not check(_example_runs(again=b'{\n  "depth": 3\n}\n'))[0]


@pytest.mark.parametrize("i, change", [
    (0, {"stderr": b"RuntimeWarning: overflow\n"}),
    (3, {"stderr": b"Traceback\n"}),
    (0, {"code": 1}),
    (2, {"code": 1}),
    (3, {"code": 2}),
    (4, {"stdout": b'{"passed": true}\n'}),
    (4, {"stdout": b"not json\n"}),
    (4, {"stdout": b'{\n  "passed": true\n}'}),
    (4, {"stdout": b'{\n  "passed": "\xff"\n}\n'}),
])
def test_example_command_faults(checks, i, change):
    runs = _example_runs()
    runs[i] = runs[i]._replace(**change)
    assert not checks[EXAMPLE](runs)[0]


def test_run_reads_each_childs_own_maxrss():
    """A child that allocates 50 MB, then one that does nothing: the second
    reading is the smaller (RUSAGE_CHILDREN would repeat the first).  The
    runner runs in a fresh process, since Linux counts the caller's peak
    RSS into a child's at exec, and this test process is large."""
    code = f"""if True:
        import os, pickle, sys
        sys.path.insert(0, {str(TOOL.parent)!r})
        from ci_checks import run
        big = run([sys.executable, "-c", "import os, sys; "
                   "b = b'x' * (50 << 20); "
                   "print(len(os.sched_getaffinity(0))); "
                   "sys.stderr.buffer.write(bytes([255])); sys.exit(3)"],
                  cpus={{min(os.sched_getaffinity(0))}})
        small = run([sys.executable, "-c", "pass"])
        sys.stdout.buffer.write(pickle.dumps([tuple(big), tuple(small)]))"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    big, small = (ci.Run(*r) for r in pickle.loads(proc.stdout))
    # stderr keeps the byte that is no UTF-8
    assert (big.code, big.stdout, big.stderr, big.ncpus) == (3, b"1\n",
                                                             b"\xff", 1)
    assert (small.code, small.stdout, small.stderr) == (0, b"", b"")
    assert big.maxrss_mb > 50
    assert small.maxrss_mb < big.maxrss_mb - 40
    assert big.wall_s > 0 and small.wall_s > 0
