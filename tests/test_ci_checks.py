"""tools/ci_checks.py: every row's check on fabricated readings, every moved
command through a recorder, and the runner's per-child maxrss on real
children; tools/golden.py: its comparison on fabricated readings and its
command list."""
import importlib.util
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ci_checks.py"
_spec = importlib.util.spec_from_file_location("ci_checks", TOOL)
ci = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci)
# tools/golden.py imports ci_checks; it gets the module loaded above
sys.modules.setdefault("ci_checks", ci)
_gspec = importlib.util.spec_from_file_location("golden",
                                                TOOL.parent / "golden.py")
golden = importlib.util.module_from_spec(_gspec)
_gspec.loader.exec_module(golden)

# the bound rows: (bound in MB, whether the bound is on growth over a first
# run, the exit codes allowed or None for any); no bound may move
BOUNDS = {
    "analyze kernels at 200000, then 2000000 trials": (8, True, (0,)),
    "validate the drunkard walk, natural then reading order":
        (15, True, (0,)),
    "check fibonacci.json --suite consistency --depth 40000":
        (80, False, None),
    "check fibonacci.json --seed 1 at depth 60, then 1400": (10, True, (0,)),
    "validate allones.json --depth 1000000": (100, False, (0,)),
    "check --suite operators on the band, depth 2 then 20": (8, True, (0,)),
}
WALK = "analyze walk on one CPU and on every CPU"
EXAMPLE = "examples_specs/allones.json: every command"
PROPERTY = "property tests with hypothesis"
SELF_TEST = "benchmark self-test"
# the frozen-answer rows: workload and whether it runs pinned to one CPU
FROZEN = {
    **{f"frozen answers of {w}": (w, False)
       for w in ("deep_fib", "wide_band", "walk_fixed", "walk_hitting")},
    **{f"frozen answers of {w} on one CPU": (w, True)
       for w in ("walk_fixed", "walk_hitting")},
}


@pytest.fixture(scope="module")
def table():
    return {name: (measure, check)
            for name, measure, check in ci.rows(["kernels", "pf"])}


@pytest.fixture(scope="module")
def checks(table):
    return {name: check for name, (_, check) in table.items()}


def reading(*args, code=0, stdout=b"", stderr=b"", mb=40.0, ncpus=2):
    return ci.Run(("python", "-m", "bratteli", *args), code, stdout, stderr,
                  0.1, mb, ncpus)


def test_every_row_is_covered(checks):
    examples = {n for n in checks if n.startswith("examples_specs/")}
    assert set(checks) - examples == {*BOUNDS, WALK, PROPERTY, SELF_TEST,
                                      *FROZEN}
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


def tool(*args, code=0, stdout=b""):
    return ci.Run(("python", *args), code, stdout, b"", 0.1, 40.0, 2)


def benchmark_output(last):
    """perfbench/run.py's stdout: summary, a failure, then the two JSON
    lines, the run record and ``last``."""
    return (b"deep_fib seed 0: 2 rounds, 1 of 8 operations failed\n"
            b"  round 0 check: answer differs\n"
            b'{"run": {"workload": "deep_fib"}}\n' + last)


@pytest.mark.parametrize("name", sorted(FROZEN))
@pytest.mark.parametrize("stdout, code, passed", [
    (benchmark_output(b'{"correct": true, "failed": 0}\n'), 0, True),
    (benchmark_output(b'{"correct": false, "failed": 1}\n'), 0, False),
    (benchmark_output(b'{"correct": 1}\n'), 0, False),
    (benchmark_output(b'{"failed": 0}\n'), 0, False),
    (benchmark_output(b'[true]\n'), 0, False),
    (benchmark_output(b"Traceback (most recent call last):\n"), 0, False),
    (b"", 0, False),
    (benchmark_output(b'{"correct": true, "failed": 0}\n'), 1, False),
], ids=["correct", "not-correct", "correct-1", "no-key", "not-an-object",
        "not-json", "empty", "exit-1"])
def test_frozen_answers(checks, name, stdout, code, passed):
    verdict, text = checks[name]([tool("perfbench/run.py", code=code,
                                       stdout=stdout)])
    assert verdict is passed
    if stdout:   # every line but the last two, as head -n -2 gives
        assert text.splitlines()[:2] == [
            "deep_fib seed 0: 2 rounds, 1 of 8 operations failed",
            "  round 0 check: answer differs"]
        assert "{" not in text and "[true]" not in text


@pytest.mark.parametrize("stdout, code, passed", [
    (b"..\n2 passed in 1.50s\n", 0, True),
    (b"..\n2 passed, 1 warning in 1.50s\n", 0, True),
    (b"ss\n2 skipped in 0.10s\n", 0, False),
    (b".s\n1 passed, 1 skipped in 0.80s\n", 0, False),
    (b"F.\n1 failed, 1 passed in 0.90s\n", 1, False),
    (b"..\n2 passed in 1.50s\n", 1, False),
    (b"", 0, False),
], ids=["passed", "passed-warning", "skipped", "one-skipped", "one-failed",
        "exit-1", "empty"])
def test_property_tests_pass_only_when_both_ran(checks, stdout, code, passed):
    verdict, text = checks[PROPERTY]([tool("-m", "pytest", code=code,
                                           stdout=stdout)])
    assert verdict is passed
    # the summary line, or all of pytest's stdout on a failure
    assert text.startswith(stdout.decode() if not passed
                           else "2 passed")


@pytest.mark.parametrize("code", [0, 1, 2])
def test_self_test_must_exit_zero(checks, code):
    out = b"ok  a case: failed\nall checks bite\n"
    verdict, text = checks[SELF_TEST]([tool("perfbench/selftest.py",
                                            code=code, stdout=out)])
    assert verdict is (code == 0)
    assert text.startswith("all checks bite" if code == 0 else
                           "ok  a case: failed\nall checks bite\n")


def test_moved_commands_and_cpu_sets(monkeypatch, table):
    """The commands the tier-1 workflow once ran inline, unchanged: a row
    whose command moves fails here.  The sampled workloads run a second
    time on the one CPU that the walk row pins."""
    calls = []

    def recorder(argv, cpus=None):
        calls.append((tuple(argv), cpus))
        return tool()

    monkeypatch.setattr(ci, "run", recorder)
    table[WALK][0]()
    pinned = calls[0][1]
    assert len(pinned) == 1 and pinned <= os.sched_getaffinity(0)
    py = sys.executable
    expected = {
        PROPERTY: ((py, "-m", "pytest", "-q",
                    "tests/test_cells.py::"
                    "test_refinement_commutes_with_aggregation",
                    "tests/test_diagram.py::test_heights_satisfy_recursion"),
                   None),
        SELF_TEST: ((py, "perfbench/selftest.py"), None),
        **{name: ((py, "perfbench/run.py", "--workload", w, "--seed", "0",
                   "--seconds", "1"), pinned if one else None)
           for name, (w, one) in FROZEN.items()},
    }
    for name, call in expected.items():
        calls.clear()
        table[name][0]()
        assert calls == [call], name


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


# -- tools/golden.py ----------------------------------------------------------

def _golden_runs():
    pf = b'{\n  "lam": 1.618033988749895\n}\n'
    return [reading("check", "a.json", stdout=b"all passed\n"),
            reading("analyze", "a.json", "pf", stdout=pf),
            reading("analyze", "a.json", "kernels", code=1,
                    stdout=b'{"error": {}}\n')]


def test_golden_passes_equal_readings():
    assert golden.differences(_golden_runs(), _golden_runs()) == []


@pytest.mark.parametrize("i, change, said", [
    (1, {"stdout": b'{\n  "lam": 1.618033988749894\n}\n'},
     "analyze a.json pf: stdout from line 2"),
    (2, {"code": 0}, "analyze a.json kernels: exit code 1 -> 0"),
    (0, {"stderr": b"RuntimeWarning: overflow\n"},
     "check a.json: stderr from line 1"),
    (0, {"stdout": b"all passed\nand more\n"},
     "check a.json: stdout from line 2"),
])
def test_golden_names_each_difference(i, change, said):
    new = _golden_runs()
    new[i] = new[i]._replace(**change)
    assert golden.differences(_golden_runs(), new) == [said]


def test_golden_command_list():
    argvs = golden.commands(["a.json", "b.json"], ["pf", "walk"],
                            "band.json", "nat.json")
    assert len(argvs) == len({tuple(a) for a in argvs}) == 2 * 7 + 6
    for spec in ("a.json", "b.json"):
        for argv in (["validate", spec], ["validate", spec, "--emit-spec"],
                     ["check", spec], ["analyze", spec, "pf"],
                     ["analyze", spec, "walk"],
                     *(["check", spec, "--format", "json", "--seed", seed]
                       for seed in ("0", "7"))):
            assert argv in argvs
    assert ["check", "band.json"] in argvs
    assert ["analyze", "band.json", "energy"] in argvs
    assert ["check", "nat.json", "--depth", "20"] in argvs
    assert ["check", golden.FIBONACCI, "--depth", "60", "--seed",
            "1"] in argvs


def test_golden_runs_both_trees_at_both_thread_settings(monkeypatch, capsys):
    """Each command runs on REV's tree and on the working tree, at one BLAS
    thread and at the default; a difference counts once per setting."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    calls = []

    def recorder(argv, cpus=None, env=None):
        tree = env["PYTHONPATH"].split(os.pathsep)[0]
        calls.append((argv[-1], tree, env.get("OPENBLAS_NUM_THREADS")))
        old = tree == "REV/src" and argv[-1] == "b"
        return ci.Run(tuple(argv), 0, b"old" if old else b"same", b"", 0.1,
                      40.0, 2)

    monkeypatch.setattr(ci, "run", recorder)
    assert golden.compare("REV", [["a"], ["b"]]) == 2
    here = os.path.join(ci.ROOT, "src")
    assert calls == [(argv, tree, threads)
                     for threads in ("1", None) for argv in "ab"
                     for tree in ("REV/src", here)]
    out = capsys.readouterr().out.splitlines()
    assert out == ["OPENBLAS_NUM_THREADS=1: b: stdout from line 1",
                   "OPENBLAS_NUM_THREADS=1: 1 of 2 commands differ",
                   "machine default: b: stdout from line 1",
                   "machine default: 1 of 2 commands differ"]
