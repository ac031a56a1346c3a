"""Command-line behavior: validate/analyze/check over the shipped example
specs, exit codes (0 ok, 1 failed validation or invariant, 2 usage), CSV
versus JSON output, canonical spec emission, and seeded determinism."""

import contextlib
import dataclasses
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from bratteli import cli

SPECS = pathlib.Path(__file__).resolve().parent.parent / "examples_specs"
ALLONES = str(SPECS / "allones.json")
FIBONACCI = str(SPECS / "fibonacci.json")
KERNELS = str(SPECS / "kernels.json")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


# -- validate -------------------------------------------------------------------

def test_validate_ok(capsys):
    rc, rep = run_json(capsys, "validate", ALLONES)
    assert rc == 0
    assert rep["valid"] is True
    assert rep["depth"] == 6
    assert rep["stationary"] is True
    assert rep["level_sizes"] == [2] * 7
    assert rep["has_markov"] is True and rep["has_kernels"] is False


def test_validate_window_past_2_53(capsys, tmp_path):
    """Window vertices are found in integers: a float quotient put the
    first vertex of [2^60 + 1, 2^60 + 2] at 2^60 and reported a valid spec
    as a WindowMismatch."""
    p = _spec(tmp_path, "far.json", {"matrix": [[1, 1], [1, 1]],
                                     "window": [2 ** 60 + 1, 2 ** 60 + 2],
                                     "depth": 2})
    rc, rep = run_json(capsys, "validate", p)
    assert (rc, rep["valid"], rep["level_sizes"]) == (0, True, [2, 2, 2])


def test_validate_reports_structure_violation(capsys, tmp_path):
    p = tmp_path / "zero_row.json"
    p.write_text(json.dumps({"matrix": [[1, 0], [0, 0]], "depth": 2}))
    rc, rep = run_json(capsys, "validate", str(p))
    assert rc == 1
    assert rep["valid"] is False
    v = rep["violations"][0]
    assert v["kind"] == "ZeroRow"
    assert v["level"] == 0 and v["vertex"] == 1


def test_validate_reports_schema_violation(capsys, tmp_path):
    p = tmp_path / "two_ways.json"
    p.write_text(json.dumps({"matrix": [[1]], "band": {"0": 1}, "depth": 2,
                             "window": [0, 0]}))
    rc, rep = run_json(capsys, "validate", str(p))
    assert rc == 1
    assert rep["violations"][0]["kind"] == "SpecError"


def test_depth_past_the_limit_is_refused_at_once(capsys, tmp_path):
    """A depth above MAX_DEPTH is a SpecError naming depth, before any
    level is built; the 401-digit depth once ran until it was killed."""
    deep = _spec(tmp_path, "deep.json", {"matrix": [[1, 1], [1, 1]],
                                         "depth": 10 ** 400})
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "bratteli", "validate", deep],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stderr) == (1, "")
    want = {"kind": "SpecError", "detail": "depth must be at most 1000000"}
    assert json.loads(proc.stdout)["violations"] == [want]
    rc, rep = run_json(capsys, "validate", ALLONES, "--depth", "1000001")
    assert (rc, rep["violations"]) == (1, [want])
    for argv in (["analyze", ALLONES, "pf"], ["check", ALLONES]):
        rc, d = run_json(capsys, *argv, "--depth", "1000001",
                         *(["--format", "json"] if argv[0] == "check" else []))
        assert (rc, d["error"]) == (1, want)


def test_validate_bad_json_file(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ nope")
    rc, rep = run_json(capsys, "validate", str(p))
    assert rc == 1
    assert rep["violations"][0]["kind"] == "SpecError"


_TRIPLETS_2 = {"triplets": [[0, 0, 0, 2], [0, 0, 1, 1], [0, 1, 0, 1],
                            [1, 0, 0, 1], [1, 0, 1, 1]],
               "windows": [[0, 1], [0, 1], [0, 0]]}
_NUMBER_FIELDS = {
    "depth": ({"matrix": [[1, 1], [1, 0]], "depth": 2},
              {"matrix": [[1, 1], [1, 0]], "depth": 2.0}),
    "matrix": ({"matrix": [[2, 1], [1, 0]], "depth": 2},
               {"matrix": [[2.0, 1.0], [1, 0.0]], "depth": 2}),
    "window": ({"band": {"-2": 1, "0": 2, "2": 1}, "window": [-6, 6, 2],
                "depth": 2},
               {"band": {"-2": 1, "0": 2.0, "2": 1}, "window": [-6.0, 6, 2.0],
                "depth": 2}),
    "triplets": (_TRIPLETS_2,
                 {**_TRIPLETS_2, "triplets": [[0.0, 0, 0, 2.0],
                                              [0, 0.0, 1.0, 1],
                                              [0, 1, 0, 1], [1.0, 0, 0, 1],
                                              [1, 0, 1, 1.0]],
                  "windows": [[0, 1.0], [0.0, 1], [0, 0]]}),
    "odometer-k": ({"substitution": {"name": "odometer", "k": 2}, "depth": 2},
                   {"substitution": {"name": "odometer", "k": 2.0},
                    "depth": 2}),
    "offsets-word": ({"substitution": {"offsets_word": [-2, 0, 2]},
                      "window": [-6, 6, 2], "depth": 2},
                     {"substitution": {"offsets_word": [-2.0, 0, 2.0]},
                      "window": [-6, 6, 2], "depth": 2}),
    "exceptions": tuple(
        {"substitution": {"offsets_word": [-2, 1], "alphabet": "nat",
                          "exceptions": {"0": [0, 1], "1": [0, kind(2)]}},
         "window": [0, 12], "depth": 2}
        for kind in (int, float)),
    "markov-edges": tuple(
        {"matrix": [[1, 1], [1, 1]], "depth": 1,
         "markov": {"q0": [0.5, 0.5],
                    "edges": [[kind(0), kind(s), kind(t), 0.5]
                              for s in (0, 1) for t in (0, 1)]}}
        for kind in (int, float)),
}


@pytest.mark.parametrize("name", sorted(_NUMBER_FIELDS))
def test_emit_spec_writes_numbers_as_read(capsys, tmp_path, name):
    """Specs that differ only by 2 against 2.0 in one integer field build
    the same objects, so they emit the same bytes, with ints.  The emitted
    form emits itself again."""
    outs = []
    for i, doc in enumerate(_NUMBER_FIELDS[name]):
        rc, out = run(capsys, "validate", _spec(tmp_path, f"{i}.json", doc),
                      "--emit-spec")
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
    again = tmp_path / "canon.json"
    again.write_text(outs[0])
    assert run(capsys, "validate", str(again), "--emit-spec") == (0, outs[0])


def test_emit_spec_is_canonical_and_idempotent(capsys, tmp_path):
    src = tmp_path / "messy.json"
    src.write_text(json.dumps({"window": [-4, 4, 2], "depth": 3,
                               "band": {"2": 1, "-2": 1, "0": 2}}))
    rc, out = run(capsys, "validate", str(src), "--emit-spec")
    assert rc == 0
    canon = json.loads(out)
    assert list(canon["band"]) == ["-2", "0", "2"]
    assert canon["window"] == [-4, 4, 2]
    again = tmp_path / "canon.json"
    again.write_text(out)
    rc2, out2 = run(capsys, "validate", str(again), "--emit-spec")
    assert rc2 == 0 and out2 == out


# -- analyze --------------------------------------------------------------------

def test_analyze_pf_fibonacci(capsys):
    rc, d = run_json(capsys, "analyze", FIBONACCI, "pf")
    assert rc == 0
    assert d["lambda"] == pytest.approx((1 + 5 ** 0.5) / 2, abs=1e-12)
    assert d["classification"] == "PositiveRecurrent"
    assert d["residual"] < 1e-10
    assert d["right"][0] / d["right"][1] == pytest.approx(d["lambda"],
                                                          abs=1e-9)


# one spec per solve branch, pinned to the values the solver prints: both
# sums known, column sums only, no shortcut, and a truncated substitution
# window, whose column-sum claim alone leaves the whole pair to the window
PF_BRANCHES = {
    "allones": (None, 2.0, "constant-row-and-column-sums", 0, 0.0,
                "PositiveRecurrent"),
    "column_sums": ({"matrix": [[1, 1], [2, 0]], "depth": 2},
                    2.0, "constant-column-sums", 1, 0.0, "PositiveRecurrent"),
    "fibonacci": ({"matrix": [[1, 1], [1, 0]], "depth": 2},
                  1.618033988749895, None, 36, 6.861555643110587e-16,
                  "PositiveRecurrent"),
    "nat_window": ({"substitution": {"name": "nat_length_two"},
                    "window": [0, 60], "depth": 2},
                   2.000000000000234, None, 1394, 3.4372493424348206e-13,
                   "Unknown"),
}


@pytest.mark.parametrize("name", list(PF_BRANCHES))
def test_analyze_pf_pinned_per_branch(capsys, tmp_path, name):
    doc, lam, shortcut, iterations, residual, cls = PF_BRANCHES[name]
    spec = ALLONES
    if doc is not None:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
    rc, d = run_json(capsys, "analyze", str(spec), "pf")
    assert rc == 0
    assert d["lambda"] == lam
    assert d["shortcut"] == shortcut
    assert d["iterations"] == iterations
    assert d["residual"] == residual
    assert d["classification"] == cls


def test_analyze_measure_csv(capsys):
    rc, out = run(capsys, "analyze", ALLONES, "measure", "--depth", "4",
                  "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["level", "vertex", "value"]
    assert len(rows) == 1 + 2 * 5
    for lvl, vtx, val in rows[1:]:
        assert float(val) == 2.0 ** -int(lvl)


def test_analyze_measure_json(capsys):
    rc, d = run_json(capsys, "analyze", ALLONES, "measure",
                     "--normalization", "probability")
    assert rc == 0
    assert d["lambda"] == 2.0
    assert d["max_invariance_residual"] <= 1e-12
    assert d["levels"][0] == [0.5, 0.5]


def test_analyze_markov(capsys):
    rc, d = run_json(capsys, "analyze", ALLONES, "markov")
    assert rc == 0
    assert d["stochasticity_deviation"] <= 1e-12
    assert d["q"][0] == pytest.approx([0.5, 0.5])


def test_analyze_markov_reports_vanished_mass(capsys, tmp_path):
    """analyze markov and laplacian report a level mass that vanished."""
    edges = [[lv, s, t, 1e-320 if t else 1.0] for lv in (0, 1)
             for s in (0, 1) for t in (0, 1)]
    p = tmp_path / "vanishing.json"
    p.write_text(json.dumps({"matrix": [[1, 1], [1, 1]], "depth": 2,
                             "markov": {"q0": [0.5, 0.5], "edges": edges}}))
    for kind in ("markov", "laplacian"):
        rc, d = run_json(capsys, "analyze", str(p), kind)
        assert rc == 1
        assert d["error"]["kind"] == "ZeroMass"
        assert d["error"]["detail"].startswith("level mass q^(1)_1 vanished")


def test_exactly_vanished_mass_is_one_error_object(capsys, tmp_path):
    """q^(1)_1 is exactly 0.0, so Q-hat into it is 0/0: each command that
    reads the dual kernels prints the ZeroMass error object and exits 1,
    with no warning, also where warnings are errors."""
    edges = [[lv, s, t, 5e-324 if t else 1.0] for lv in (0, 1)
             for s in (0, 1) for t in (0, 1)]
    p = str(tmp_path / "vanished.json")
    pathlib.Path(p).write_text(json.dumps(
        {"matrix": [[1, 1], [1, 1]], "depth": 2,
         "markov": {"q0": [0.5, 0.5], "edges": edges}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["analyze", p, "markov"], ["analyze", p, "laplacian"],
                     ["check", p, "--format", "json"]):
            rc = cli.main(argv)
            out, err = capsys.readouterr()
            assert (rc, err) == (1, "")
            d = json.loads(out)["error"]
            assert d["kind"] == "ZeroMass"
            assert d["detail"].startswith("level mass q^(1)_1 vanished;")


def test_analyze_laplacian_and_energy(capsys):
    rc, d = run_json(capsys, "analyze", ALLONES, "laplacian")
    assert rc == 0
    assert d["max_principle_ok"] is True
    assert d["levels"][0] == [0.0, 0.0]
    assert d["levels"][-1] == [1.0, 1.0]
    rc, e = run_json(capsys, "analyze", ALLONES, "energy")
    assert rc == 0
    assert e["agreement"] <= 1e-10
    assert e["qm_identity_residual"] <= 1e-12


def test_analyze_laplacian_deep_fibonacci(capsys):
    rc, d = run_json(capsys, "analyze", FIBONACCI, "laplacian",
                     "--depth", "80")
    assert rc == 0
    assert d["max_principle_ok"] is True
    assert len(d["levels"]) == 81


def test_analyze_walk_deterministic(capsys):
    args = ("analyze", ALLONES, "walk", "--trials", "40", "--steps", "60",
            "--seed", "7")
    rc1, out1 = run(capsys, *args)
    rc2, out2 = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    d = json.loads(out1)
    assert d["seed"] == 7 and d["trials"] == 40
    rc3, out3 = run(capsys, *args[:-1], "8")
    assert out3 != out1


def test_analyze_walk_csv_rows(capsys):
    rc, out = run(capsys, "analyze", ALLONES, "walk", "--trials", "12",
                  "--steps", "30", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["trial", "returns"]
    assert len(rows) == 13
    assert all(int(r[1]) >= 0 for r in rows[1:])


def test_analyze_walk_bad_start_level(capsys):
    rc, d = run_json(capsys, "analyze", ALLONES, "walk",
                     "--start-level", "99")
    assert rc == 1
    assert d["error"]["kind"] == "SpecError"


def test_analyze_kernels(capsys):
    rc, d = run_json(capsys, "analyze", KERNELS, "kernels", "--trials",
                     "2000")
    assert rc == 0
    assert len(d["levels"]) == 3
    for lvl in d["levels"]:
        assert lvl["duality_residual"] <= 1e-12
        assert lvl["marginal_residual"] <= 1e-12
        assert lvl["gram_min_eigenvalue"] >= -1e-10
    assert d["sample"]["tv_distance"] < 0.1


@pytest.mark.parametrize("flags", [("--trials", "0"), ("--trials", "-3"),
                                   ("--steps", "0"), ("--steps", "-3")])
def test_analyze_walk_rejects_empty_runs(capsys, flags):
    rc, d = run_json(capsys, "analyze", ALLONES, "walk", *flags)
    assert rc == 1
    assert d["error"]["kind"] == "ValueError"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_analyze_kernels_rejects_empty_runs(capsys, trials):
    rc, out = run(capsys, "analyze", KERNELS, "kernels", "--trials", trials)
    assert rc == 1
    assert "NaN" not in out
    assert json.loads(out)["error"]["kind"] == "ValueError"


def test_analyze_kernels_missing_block(capsys):
    """analyze kernels and check --suite kernels refuse a spec without a
    kernels block (check once passed with no invariant); a full check
    skips the suite."""
    error = {"kind": "SpecError", "detail": "spec has no kernels block"}
    rc, d = run_json(capsys, "analyze", FIBONACCI, "kernels")
    assert (rc, d["error"]) == (1, error)
    for fmt in ("json", "text"):
        rc, d = run_json(capsys, "check", FIBONACCI, "--suite", "kernels",
                         "--format", fmt)
        assert (rc, d["error"]) == (1, error)
    rc, d = run_json(capsys, "check", FIBONACCI, "--format", "json")
    assert rc == 0 and d["passed"]
    assert {r["suite"] for r in d["results"]} == {
        "consistency", "operators", "laplacian"}


def test_analyze_out_file(capsys, tmp_path):
    dest = tmp_path / "pf.json"
    rc, out = run(capsys, "analyze", FIBONACCI, "pf", "--out", str(dest))
    assert rc == 0
    assert out == ""
    assert json.loads(dest.read_text())["classification"] == \
        "PositiveRecurrent"


def test_analyze_unwritable_out_is_an_error_object(capsys, tmp_path):
    dest = tmp_path / "missing" / "pf.json"
    rc, d = run_json(capsys, "analyze", FIBONACCI, "pf", "--out", str(dest))
    assert rc == 1
    assert d["error"] == {
        "kind": "FileNotFoundError",
        "detail": f"cannot write --out {dest}: No such file or directory"}


@pytest.mark.parametrize("command", [["validate"], ["analyze", "pf"],
                                     ["check"]])
def test_missing_spec_file_is_an_error_object(capsys, tmp_path, command):
    path = tmp_path / "missing.json"
    rc, d = run_json(capsys, command[0], str(path), *command[1:])
    assert rc == 1
    detail = f"cannot read spec {path}: No such file or directory"
    if command == ["validate"]:
        assert d == {"valid": False,
                     "violations": [{"kind": "SpecError", "detail": detail}]}
    else:
        assert d["error"] == {"kind": "SpecError", "detail": detail}


# -- check ----------------------------------------------------------------------

def test_check_all_pass_text(capsys):
    rc, out = run(capsys, "check", ALLONES)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "all passed"
    assert len(lines) == 17        # 16 invariants + verdict
    assert all(line.endswith("pass") for line in lines[:-1])


def test_check_all_pass_json(capsys):
    rc, d = run_json(capsys, "check", ALLONES, "--format", "json")
    assert rc == 0
    assert d["passed"] is True
    names = {r["invariant"] for r in d["results"]}
    assert {"HeightRecursion", "TailInvariance", "DetailedBalance",
            "Adjointness", "ConstantsHarmonic", "HarmonicSolve"} <= names


@pytest.mark.parametrize("spec", sorted(p.name for p in SPECS.glob("*.json")))
def test_every_example_passes_check(capsys, spec):
    rc, out = run(capsys, "check", str(SPECS / spec))
    assert rc == 0
    assert out.strip().splitlines()[-1] == "all passed"
    rc, d = run_json(capsys, "check", str(SPECS / spec), "--format", "json")
    assert rc == 0
    assert d["passed"] is True


@pytest.mark.parametrize("order", ["natural", "reading"])
@pytest.mark.parametrize("depth", ["4", "60"])
def test_check_passes_on_a_clipped_nat_window(capsys, tmp_path, order, depth):
    """The window's own Perron pair, not the infinite matrix's lambda 2
    with the window's vector, which failed TailInvariance at 3.2e-4."""
    spec = tmp_path / "nat.json"
    spec.write_text(json.dumps({"substitution": {"name": "nat_length_two"},
                                "window": [0, 12], "order": order}))
    rc, d = run_json(capsys, "check", str(spec), "--depth", depth,
                     "--format", "json")
    failed = [r["invariant"] for r in d["results"] if not r["passed"]]
    assert (rc, d["passed"], failed) == (0, True, [])


def test_check_consistency_deep_fibonacci(capsys):
    """Heights past 2**53 still satisfy F_n H^(n) = H^(n+1) exactly."""
    rc, d = run_json(capsys, "check", FIBONACCI, "--suite", "consistency",
                     "--depth", "100", "--format", "json")
    assert rc == 0
    assert {r["invariant"]: r["passed"] for r in d["results"]} == {
        "HeightRecursion": True, "TailInvariance": True,
        "HatRowsSumToOne": True, "KolmogorovExtension": True}


def test_check_kernels_suite(capsys):
    rc, d = run_json(capsys, "check", KERNELS, "--suite", "kernels",
                     "--format", "json")
    assert rc == 0
    assert {r["invariant"] for r in d["results"]} == {
        "DualityIdentity", "MarginalPushforward", "SymmetricMeasures",
        "GramPSD", "ChainEnergyAgreement"}


def test_check_corrupted_row_fails(capsys, tmp_path):
    half = [[lv, s, t, 0.5] for lv in (0, 1) for s in (0, 1) for t in (0, 1)]
    half[0][3] = 0.6               # row (level 0, source 0) now sums to 1.1
    p = tmp_path / "corrupt.json"
    p.write_text(json.dumps({
        "matrix": [[1, 1], [1, 1]], "depth": 2,
        "markov": {"q0": [0.5, 0.5], "edges": half}}))
    rc, d = run_json(capsys, "check", str(p), "--format", "json")
    assert rc == 1
    assert d["passed"] is False
    sto = [r for r in d["results"]
           if r["invariant"] == "StochasticityViolation"]
    assert sto and sto[0]["passed"] is False
    assert sto[0]["residual"] == pytest.approx(0.1, abs=1e-12)
    # a bad row is a reported failure, not a crash, and downstream suites
    # still run
    assert any(r["suite"] == "laplacian" for r in d["results"])


def test_check_corrupted_row_text_verdict(capsys, tmp_path):
    p = tmp_path / "corrupt.json"
    p.write_text(json.dumps({
        "matrix": [[1]], "depth": 1,
        "markov": {"q0": [1.0], "edges": [[0, 0, 0, 0.75]]}}))
    rc, out = run(capsys, "check", str(p))
    assert rc == 1
    assert out.strip().splitlines()[-1] == "FAILURES present"
    assert "FAIL" in out


def _spec(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# level 0 leaves vertex 1 of level 1 with a mass of about 1e-320
_VANISHING_LEVEL0 = [[0, 0, 0, 1.0], [0, 0, 1, 1e-320],
                     [0, 1, 0, 1.0], [0, 1, 1, 1e-320]]


def test_vanished_mass_and_bad_rows_keep_their_precedence(capsys, tmp_path):
    """The level sweep raises nothing.  A vanished mass is ZeroMass only
    where a dual kernel is built, and a bad row, even at a later level,
    is reported before it."""
    zm = _spec(tmp_path, "zm.json", {
        "matrix": [[1, 1], [1, 1]], "depth": 1,
        "markov": {"q0": [0.5, 0.5], "edges": _VANISHING_LEVEL0}})
    rc, out = run(capsys, "check", zm, "--suite", "consistency")
    assert (rc, out.splitlines()[-1]) == (0, "all passed")
    for argv in (["check"], ["check", "--suite", "operators"],
                 ["analyze", "markov"]):
        rc, d = run_json(capsys, argv[0], zm, *argv[1:])
        assert rc == 1
        assert d["error"]["kind"] == "ZeroMass"
        assert d["error"]["detail"].startswith("level mass q^(1)_1 vanished;")

    later = [[lv, s, t, 0.3 if (lv, s, t) == (2, 0, 1) else 0.5]
             for lv in (1, 2) for s in (0, 1) for t in (0, 1)]
    corrupt = _spec(tmp_path, "zm_corrupt.json", {
        "matrix": [[1, 1], [1, 1]], "depth": 3,
        "markov": {"q0": [0.5, 0.5], "edges": _VANISHING_LEVEL0 + later}})
    rc, out = run(capsys, "check", corrupt, "--suite", "operators")
    assert rc == 1
    assert out.splitlines()[0].split() == [
        "operators", "StochasticityViolation", "0.19999999999999996", "FAIL"]
    rc, out = run(capsys, "check", corrupt, "--suite", "consistency")
    assert rc == 1
    assert out.splitlines()[3].split() == [
        "consistency", "KolmogorovExtension", "0.099999999999999978", "FAIL"]


@pytest.mark.parametrize("analysis", ["pf", "measure"])
def test_a_window_too_wide_for_its_dense_form_is_an_error_object(
        capsys, tmp_path, monkeypatch, analysis):
    """The Perron solve of the 100001-vertex window asks for a dense
    100001 x 100001 level, 74.5 GiB: where that cannot be allocated (here
    numpy's MemoryError is injected above 10**8 elements), the command
    prints an error object naming the level, the shape and the size."""
    real = np.zeros

    def zeros(shape, *args, **kwargs):
        if int(np.prod(shape)) > 10**8:
            raise MemoryError("injected")
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    p = _spec(tmp_path, "wide.json",
              {"substitution": {"name": "drunkard_walk"}, "depth": 4,
               "window": [-100000, 100000, 2]})
    rc, d = run_json(capsys, "analyze", p, analysis)
    assert rc == 1
    assert d == {"error": {
        "kind": "DenseTooLarge",
        "detail": "a dense 100001 x 100001 float64 form of level 0 needs "
                  "74.5 GiB, more than can be allocated"}}


def test_operators_suite_builds_each_dense_kernel_once(tmp_path, monkeypatch):
    """check --suite operators scatters three dense kernels per level (the
    level sweep's P-hat, then the P-hat and Q-hat of the samples), each by
    source into a loop's scratch array, a batch of levels at a time, and
    applies each operator once per batch, to all 20 samples of every
    level at once.  The 6 levels of a 21-vertex band fit in one batch;
    with one level per batch each count is per level.  The one fresh
    array is the Perron solve's dense level."""
    from bratteli import diagram as dg
    from bratteli import markov as mk
    calls = dict.fromkeys(("apply_TP", "apply_TQ"), 0)
    scatters = []   # (kind, by_source, stack height) of every scatter

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def recorded(kind, fn):
        def scatter(self, *args, by_source=False, level=0):
            values = args[-1]   # after the level, for a Scratch
            height = len(values) if np.ndim(values) == 2 else None
            scatters.append((kind, by_source, height))
            return fn(self, *args, by_source=by_source, level=level)
        return scatter

    monkeypatch.setattr(dg.IncidenceMatrix, "scatter",
                        recorded("fresh", dg.IncidenceMatrix.scatter))
    monkeypatch.setattr(dg.Scratch, "scatter",
                        recorded("scratch", dg.Scratch.scatter))
    for name in calls:
        monkeypatch.setattr(mk, name, counted(name, getattr(mk, name)))
    p = _spec(tmp_path, "band.json", {"band": {"-2": 1, "0": 2, "2": 1},
                                      "window": [-20, 20, 2], "depth": 6})
    for per_batch in (6, 1):
        monkeypatch.setattr(mk, "BATCH_FLOATS", 21 * 21 * per_batch)
        calls.update(dict.fromkeys(calls, 0))
        scatters.clear()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(["check", p, "--suite", "operators"])
        assert rc == 0, out.getvalue()
        batches = 6 // per_batch
        assert calls == {"apply_TP": batches, "apply_TQ": batches}
        assert scatters == ([("fresh", False, None)]
                            + [("scratch", True, per_batch)] * (3 * batches))


def test_check_builds_each_stage_once(tmp_path, monkeypatch):
    """One command builds the analysis chain once: the Perron measure, the
    induced system, its level sweep, the dual kernels and the network are
    shared by every suite that reads them.  Nothing is kept from one
    command to the next, so the second command builds its own chain."""
    from functools import cached_property

    from bratteli import laplacian as lp
    from bratteli import markov as mk
    from bratteli import measures as ms
    stages = ("stationary_pf_measure", "markov_from_tail_invariant",
              "levels", "dual_kernels", "build_network")
    calls = dict.fromkeys(stages, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in ((ms, "stationary_pf_measure"),
                      (mk, "markov_from_tail_invariant"),
                      (mk, "dual_kernels"), (lp, "build_network")):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    sweep = cached_property(counted("levels", mk.MarkovSystem.levels.func))
    sweep.__set_name__(mk.MarkovSystem, "levels")
    monkeypatch.setattr(mk.MarkovSystem, "levels", sweep)
    p = _spec(tmp_path, "band.json", {"band": {"-2": 1, "0": 2, "2": 1},
                                      "window": [-20, 20, 2], "depth": 6})
    for suite, want in (("all", (1, 1, 1, 1, 1)),
                        ("consistency", (1, 1, 1, 0, 0))):
        calls.update(dict.fromkeys(stages, 0))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(["check", p, "--suite", suite])
        assert rc == 0, out.getvalue()
        assert calls == dict(zip(stages, want)), suite


def test_stochastic_row_error_names_the_worst_row(capsys, tmp_path):
    """The error gives the worst row's vertex with that row's own sum."""
    p = _spec(tmp_path, "rows.json", {
        "triplets": [[0, 0, 0, 1], [0, 1, 0, 1], [0, 1, 1, 1],
                     [1, 0, 0, 2], [1, 0, 1, 1], [1, 1, 1, 1]],
        "windows": [[0, 1], [0, 1], [0, 1]],
        "markov": {"q0": [0.5, 0.5],
                   "edges": [[0, 0, 0, 0.5], [0, 0, 1, 0.5], [0, 1, 1, 1.0],
                             [1, 0, 0, [0.4, 0.4]], [1, 1, 0, 0.3],
                             [1, 1, 1, 0.3]]}})
    rc, d = run_json(capsys, "analyze", p, "markov")
    assert rc == 1
    assert d["error"] == {"kind": "PathInvalid",
                          "detail": "outgoing probabilities at level 1 "
                                    "vertex 1 sum to 0.6, not 1"}


@pytest.mark.parametrize("command", [("check",), ("analyze", "markov")])
def test_overflowing_row_is_an_error_with_a_quiet_stderr(tmp_path, command):
    """A row of two 1e308 edges sums to inf: even check, which takes rows
    that sum away from 1 as failed invariants, refuses it, and the
    overflow writes no warning."""
    p = _spec(tmp_path, "overflow.json", {
        "matrix": [[1, 1], [1, 1]], "depth": 2,
        "markov": {"q0": [0.5, 0.5],
                   "edges": [[lv, s, t, 1e308 if (lv, s) == (0, 0) else 0.5]
                             for lv in (0, 1) for s in (0, 1)
                             for t in (0, 1)]}})
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "bratteli", command[0], p, *command[1:]],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == {
        "kind": "PathInvalid",
        "detail": "outgoing probabilities at level 0 vertex 0 sum to inf, "
                  "not 1"}


@pytest.mark.parametrize("command", [("validate",), ("analyze", "markov")])
def test_huge_integer_number_is_an_error_with_a_quiet_stderr(tmp_path,
                                                             command):
    """An integer beyond the float range in a number field is a SpecError
    naming the field; float() on it used to end in an OverflowError
    traceback."""
    doc = json.loads((SPECS / "explicit_markov.json").read_text())
    doc["markov"]["q0"][0] = 10 ** 400
    p = _spec(tmp_path, "huge.json", doc)
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "bratteli", command[0], p, *command[1:]],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stderr) == (1, "")
    error = {"kind": "SpecError",
             "detail": "markov q0 entry is too large for a float"}
    d = json.loads(proc.stdout)
    assert d.get("error") == error or d["violations"] == [error]


@pytest.mark.parametrize("command", [("check",), ("analyze", "markov")])
def test_depth_beyond_the_markov_block_names_its_levels(capsys, command):
    """explicit_markov.json gives levels 0..2: run at depth 60, the error
    names those levels and the depth, where it used to report level 3 as
    keyed off the edge set.  At the spec's own depth the example passes."""
    spec = str(SPECS / "explicit_markov.json")
    rc, d = run_json(capsys, command[0], spec, *command[1:],
                     "--depth", "60", *(("--format", "json")
                                        if command == ("check",) else ()))
    assert rc == 1
    assert d["error"] == {
        "kind": "DimensionMismatch",
        "detail": "probabilities given for levels 0..2, not for depth 60"}
    rc, _ = run(capsys, command[0], spec, *command[1:], "--depth", "3")
    assert rc == 0


_NO_VERTEX = {"band": {"band": {"0": 1}, "window": [1, 1, 2], "depth": 2},
              "triplets": {"triplets": [], "windows": [[1, 1, 2], [1, 1, 2]]}}


@pytest.mark.parametrize("name", sorted(_NO_VERTEX))
@pytest.mark.parametrize("command", [("validate",), ("check",),
                                     ("analyze", "pf")])
def test_window_without_a_vertex_is_an_error(tmp_path, name, command):
    """[1, 1] holds no multiple of 2: such a spec validated with empty
    levels, and check and analyze pf ended in an IndexError traceback."""
    p = _spec(tmp_path, f"{name}.json", _NO_VERTEX[name])
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "bratteli", command[0], p, *command[1:]],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stderr) == (1, "")
    error = {"kind": "WindowMismatch",
             "detail": "window [1, 1] holds no multiple of its step 2"}
    d = json.loads(proc.stdout)
    assert d.get("error") == error or d["violations"] == [error]


def test_perron_failure_has_one_kind(capsys, tmp_path):
    """A periodic band fails the Perron solve; analyze pf printed it as a
    ValueError while measure, markov and check wrapped it as PFFailed.  A
    non-square stationary level was a ValueError from every command."""
    periodic = _spec(tmp_path, "periodic.json", {
        "band": {"-2": 1, "1": 3, "2": 1}, "window": [-11, 10, 2],
        "depth": 3})
    non_square = _spec(tmp_path, "non_square.json",
                       {"matrix": [[1, 1]], "depth": 1})
    for p, detail in (
            (periodic, "matrix fails irreducibility/aperiodicity on the "
                       "largest window: period 2"),
            (non_square, "Perron data needs equal source and target "
                         "windows, got 2 source and 1 target vertices")):
        for command in (("analyze", p, "pf"), ("analyze", p, "measure"),
                        ("analyze", p, "markov"), ("analyze", p, "laplacian"),
                        ("check", p, "--format", "json")):
            rc, d = run_json(capsys, *command)
            assert (rc, d["error"]) == (1, {"kind": "PFFailed",
                                            "detail": detail}), command


def test_nonstationary_diagram_measure_and_pf(capsys, tmp_path):
    """A triplet diagram takes the tail-invariant solve, which has no
    Perron normalization; pf analysis refuses it."""
    p = _spec(tmp_path, "trip.json", {
        "triplets": [[0, 0, 0, 1], [0, 1, 0, 1], [0, 1, 1, 1],
                     [1, 0, 0, 2], [1, 0, 1, 1], [1, 1, 1, 1]],
        "windows": [[0, 1], [0, 1], [0, 1]]})
    rc, out = run(capsys, "check", p)
    assert (rc, out.splitlines()[-1]) == (0, "all passed")
    rc, d = run_json(capsys, "analyze", p, "measure")
    assert rc == 0
    assert d["lambda"] is None and d["normalization"] is None
    assert d["max_invariance_residual"] == 0.0
    rc, d = run_json(capsys, "analyze", p, "pf")
    assert rc == 1
    assert d["error"] == {"kind": "SpecError",
                          "detail": "pf analysis needs a stationary diagram"}


def test_laplacian_suite_reports_conductance_asymmetry(capsys, monkeypatch):
    """Dual kernels that are not a dual pair fail ConductanceSymmetry with
    the violation's delta, and the suite stops there."""
    from bratteli import laplacian as lp
    from bratteli import markov as mk
    dual = mk.dual_kernels

    def skewed(sysm):
        hk = dual(sysm)
        return dataclasses.replace(
            hk, qhat_values=tuple(q * 1.1 for q in hk.qhat_values))

    monkeypatch.setattr(mk, "dual_kernels", skewed)
    with pytest.raises(lp.BalanceViolation) as exc:
        cli._Context(cli.load_spec(ALLONES), strict=False).network
    assert exc.value.delta > 0
    rc, d = run_json(capsys, "check", ALLONES, "--suite", "laplacian",
                     "--format", "json")
    assert rc == 1
    assert d["results"] == [{"suite": "laplacian",
                             "invariant": "ConductanceSymmetry",
                             "residual": exc.value.delta, "passed": False}]


# -- malformed specs -----------------------------------------------------------

def _uniform_edges(levels):
    return [[lv, s, t, 0.5] for lv in levels for s in (0, 1) for t in (0, 1)]


_ALLONES_2 = '{"matrix": [[1, 1], [1, 1]], "depth": 2, '
MALFORMED = {
    "unknown_letter": ('{"substitution": {"rules": {"a": "ax"}}, "depth": 3}',
                       "SpecError"),
    "empty_image": ('{"substitution": {"rules": {"a": ""}}, "depth": 3}',
                    "EmptyImage"),
    "edge_level_past_depth": (
        _ALLONES_2 + '"markov": {"q0": [0.5, 0.5], "edges": %s}}'
        % json.dumps(_uniform_edges((0, 1)) + [[5, 0, 0, 0.5]]),
        "SpecError"),
    "edge_level_negative": (
        _ALLONES_2 + '"markov": {"q0": [0.5, 0.5], "edges": %s}}'
        % json.dumps(_uniform_edges((0, -1))), "SpecError"),
    "fractional_band_offset": (
        '{"band": {"0.5": 2, "2": 1}, "window": [-10, 10, 2], "depth": 2}',
        "SpecError"),
    "scalar_q0": (_ALLONES_2 + '"markov": {"q0": 5, "edges": %s}}'
                  % json.dumps(_uniform_edges((0, 1))), "SpecError"),
    "scalar_edges": (_ALLONES_2 + '"markov": {"q0": [0.5, 0.5], "edges": 5}}',
                     "SpecError"),
    "scalar_nu0": ('{"matrix": [[1]], "depth": 2, "kernels": {"nu0": 1, '
                   '"chain": [[[1.0]]]}}', "SpecError"),
    "repeated_edge": (_ALLONES_2 + '"markov": {"q0": [0.5, 0.5], "edges": %s}}'
                      % json.dumps(_uniform_edges((0, 1)) + [[0, 0, 0, 0.9]]),
                      "SpecError"),
    "nan_cell_mass": ('{"matrix": [[1]], "depth": 2, "kernels": {"nu0": '
                      '[0.5, NaN], "chain": [[[0.5, 0.5], [0.5, 0.5]]]}}',
                      "SpecError"),
    "negative_cell_mass": ('{"matrix": [[1]], "depth": 2, "kernels": {"nu0": '
                           '[0.5, -0.5], "chain": [[[0.5, 0.5], '
                           '[0.5, 0.5]]]}}', "ZeroTotalMass"),
    # level 1 has a source outside its window, but level 0, read first,
    # has an empty column: the lower level's error is the one reported
    "lower_level_error_first": ('{"triplets": [[0, 0, 0, 1], [0, 1, 0, 1], '
                                '[1, 0, 0, 1], [1, 0, 1, 1], [1, 0, 7, 1]], '
                                '"windows": [[0, 1], [0, 1], [0, 0]]}',
                                "ZeroColumn"),
    "fractional_matrix_entry": ('{"matrix": [[1.5, 1], [1, 1]], "depth": 2}',
                                "WindowMismatch"),
    "fractional_band_value": ('{"band": {"-2": 1, "0": 1.5, "2": 1}, '
                              '"window": [-10, 10, 2], "depth": 2}',
                              "WindowMismatch"),
    "nan_q0": (_ALLONES_2 + '"markov": {"q0": [NaN, 0.5], "edges": %s}}'
               % json.dumps(_uniform_edges((0, 1))), "SpecError"),
    "fractional_odometer_k": (
        '{"substitution": {"name": "odometer", "k": 2.7}, "depth": 3}',
        "SpecError"),
    "edge_level_fractional": (
        _ALLONES_2 + '"markov": {"q0": [0.5, 0.5], "edges": %s}}'
        % json.dumps(_uniform_edges((0, 1.7))), "SpecError"),
    "edge_level_half": (
        _ALLONES_2 + '"markov": {"q0": [0.5, 0.5], "edges": %s}}'
        % json.dumps(_uniform_edges((0.5, 1))), "SpecError"),
    "edge_source_fractional": (
        _ALLONES_2 + '"markov": {"q0": [0.5, 0.5], "edges": %s}}'
        % json.dumps(_uniform_edges((0, 1)) + [[0, 0.5, 0, 0.5]]),
        "SpecError"),
    "edge_target_fractional": (
        _ALLONES_2 + '"markov": {"q0": [0.5, 0.5], "edges": %s}}'
        % json.dumps(_uniform_edges((0, 1)) + [[1, 1, 1.25, 0.5]]),
        "SpecError"),
    "infinite_probability": (
        _ALLONES_2 + '"markov": {"q0": [0.5, 0.5], "edges": %s}}'
        % json.dumps(_uniform_edges((0, 1))).replace("0.5]]", "1e999]]"),
        "SpecError"),
}


@pytest.mark.parametrize("command", [("validate",), ("analyze", "markov"),
                                     ("check",)])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_spec_is_an_error_object(capsys, tmp_path, name, command):
    text, kind = MALFORMED[name]
    p = tmp_path / "bad.json"
    p.write_text(text)
    rc = cli.main([command[0], str(p), *command[1:]])
    out, err = capsys.readouterr()
    assert rc == 1
    assert err == ""
    report = json.loads(out)
    got = (report["violations"][0] if command[0] == "validate"
           else report["error"])
    assert got["kind"] == kind


def test_repeated_markov_edge_is_refused_in_either_order(capsys, tmp_path):
    """A Markov edge given twice is an error naming the edge, whichever of
    its two probabilities comes first; it used to keep the last one."""
    edges = _uniform_edges((0, 1))
    for listed in ([[0, 0, 0, 0.9]] + edges, edges + [[0, 0, 0, 0.9]]):
        p = _spec(tmp_path, "twice.json",
                  {"matrix": [[1, 1], [1, 1]], "depth": 2,
                   "markov": {"q0": [0.5, 0.5], "edges": listed}})
        rc, d = run_json(capsys, "check", p)
        assert rc == 1
        assert d["error"] == {
            "kind": "SpecError",
            "detail": "markov edge (level 0, source 0, target 0) is given "
                      "more than once"}


# -- usage errors ----------------------------------------------------------------

def test_python_dash_m_bratteli():
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "bratteli", "validate", FIBONACCI],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["valid"] is True


def test_one_parser_serves_every_command_of_a_process():
    """main builds its parser once per process.  Commands run one after
    another in this process, a usage error among them, give the stdout,
    stderr and exit code each gives in a fresh interpreter."""
    commands = [["validate", ALLONES], ["analyze", ALLONES, "spectrum"],
                ["analyze", FIBONACCI, "pf"], ["check", FIBONACCI],
                ["check", ALLONES, "--seed", "-1"],
                ["validate", FIBONACCI, "--depth", "3"]]
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code
        proc = subprocess.run([sys.executable, "-m", "bratteli", *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert (rc, out.getvalue(), err.getvalue()) == (
            proc.returncode, proc.stdout, proc.stderr), argv
        assert rc == (2 if "spectrum" in argv or "-1" in argv else 0)
    assert cli.build_parser() is cli.build_parser()


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this package."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=SPECS.parent,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LOADED = ("sorted(m for m in sys.modules "
           "if m.startswith('bratteli.'))")


def test_import_loads_no_submodule():
    assert _fresh(f"import sys, bratteli; print({_LOADED})") == "[]\n"


def test_submodules_load_on_first_use():
    out = _fresh(
        "import importlib, bratteli\n"
        "for name in bratteli.__all__:\n"
        "    mod = getattr(bratteli, name)\n"
        "    assert mod is importlib.import_module('bratteli.' + name), name\n"
        "assert set(bratteli.__all__) <= set(dir(bratteli))\n"
        "try:\n"
        "    bratteli.nope\n"
        "except AttributeError as e:\n"
        "    print(e)\n")
    assert out == "module 'bratteli' has no attribute 'nope'\n"


def test_star_import_and_from_import():
    out = _fresh("from bratteli import *\n"
                 "from bratteli import cells as cl\n"
                 "print(cells is cl, cli.__name__, substitution.__name__)")
    assert out == "True bratteli.cli bratteli.substitution\n"


def test_diagram_spec_loads_no_sampling_code():
    out = _fresh("import sys\n"
                 "from bratteli.specfile import load_spec\n"
                 "load_spec('examples_specs/fibonacci.json')\n"
                 f"print({_LOADED})\n"
                 "spaces, kernels = load_spec("
                 "'examples_specs/kernels.json').kernels\n"
                 "print(len(spaces) == len(kernels) + 1)")
    assert out.splitlines() == [
        "['bratteli.diagram', 'bratteli.measures', 'bratteli.perron', "
        "'bratteli.specfile', 'bratteli.substitution']", "True"]


def test_validate_and_pf_load_no_sampling_code():
    """cli catches one Error base class, so it needs cells, laplacian and
    markov only in the stages that use them."""
    out = _fresh("import contextlib, io, sys\n"
                 "from bratteli import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    cli.main(['validate', 'examples_specs/fibonacci.json'])\n"
                 "    cli.main(['analyze', 'examples_specs/fibonacci.json', "
                 "'pf'])\n"
                 f"print({_LOADED})\n")
    assert out.splitlines() == [
        "['bratteli.cli', 'bratteli.diagram', 'bratteli.measures', "
        "'bratteli.perron', 'bratteli.specfile', 'bratteli.substitution']"]


def test_reported_errors_share_one_base_class():
    import bratteli
    from bratteli import (cells, diagram, laplacian, markov, measures,
                          perron, specfile, substitution)
    reported = (specfile.SpecError, diagram.DiagramError,
                substitution.EmptyImage, perron.NoConvergence,
                perron.PFFailed, measures.DimensionMismatch,
                markov.PathInvalid, markov.ZeroMass, markov.ZeroMeasureVertex,
                laplacian.BalanceViolation, cells.ZeroTotalMass, cells.NotPSD)
    assert all(issubclass(e, bratteli.Error) for e in reported)
    assert measures.PFFailed is perron.PFFailed
    assert issubclass(perron.PFFailed, ValueError)
    assert cli._ERRORS == (bratteli.Error, ValueError)


def test_unknown_analysis_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["analyze", FIBONACCI, "bogus"])
    assert ei.value.code == 2


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main([])
    assert ei.value.code == 2


def test_bad_choice_value_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["check", ALLONES, "--suite", "nope"])
    assert ei.value.code == 2


def test_analyze_takes_no_tol(capsys):
    # only check has a tolerance: it gates every invariant there
    with pytest.raises(SystemExit) as ei:
        cli.main(["analyze", ALLONES, "measure", "--tol", "1e-3"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_negative_check_seed_is_usage_error(capsys):
    # numpy's default_rng takes no negative seed; analyze's walk seeds do
    with pytest.raises(SystemExit) as ei:
        cli.main(["check", ALLONES, "--seed", "-1"])
    assert ei.value.code == 2
    assert "argument --seed" in capsys.readouterr().err
    rc, _ = run(capsys, "check", ALLONES, "--seed", "0")
    assert rc == 0


def test_check_empty_kernel_chain_names_the_chain(capsys, tmp_path):
    p = _spec(tmp_path, "empty_chain.json", {
        "matrix": [[1]], "depth": 2,
        "kernels": {"nu0": [1.0], "chain": []}})
    rc, d = run_json(capsys, "check", p, "--suite", "kernels",
                     "--format", "json")
    assert rc == 1
    assert d["error"] == {"kind": "DimensionMismatch",
                          "detail": "a chain network needs at least one "
                                    "kernel"}


def test_operators_suite_holds_one_level_of_dense_kernels(tmp_path):
    """check --suite operators on a 401-vertex band at depth 20 keeps at
    most a few levels' dense kernel pairs alive at once, not one per
    level."""
    p = tmp_path / "band.json"
    p.write_text(json.dumps({"band": {"-2": 1, "0": 2, "2": 1},
                             "window": [-400, 400, 2], "depth": 20}))
    m = 401
    pair = 2 * m * m * 8   # bytes of one level's dense P-hat and Q-hat
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(["check", str(p), "--suite", "operators"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, out.getvalue()
    assert peak < 5 * pair, f"peak {peak / pair:.1f} level pairs"


def test_huge_multiplicity_loads_without_edge_tables(tmp_path):
    """A multiplicity of 2^53 + 1 costs nothing to load: the natural edge
    order is built per target, and only when asked for.  Runs under an
    address-space limit so that a regression fails instead of exhausting
    memory."""
    resource = pytest.importorskip("resource")
    limit = 1 << 30

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    p = tmp_path / "big.json"
    p.write_text(json.dumps({"matrix": [[9007199254740993, 1],
                                        [1, 9007199254740993]],
                             "depth": 2}))
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    for argv in (["validate"], ["analyze", "pf"], ["analyze", "measure"],
                 ["check"]):
        proc = subprocess.run(
            [sys.executable, "-m", "bratteli", argv[0], str(p), *argv[1:]],
            capture_output=True, text=True, timeout=60, preexec_fn=cap,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, (argv, proc.stdout, proc.stderr)


def test_measure_past_int64_prints_positive_levels(capsys, tmp_path):
    """Every entry 2^62: the row sums 2^63 overflowed int64, so lambda
    read -2^63 and the measure's levels were negative."""
    p = _spec(tmp_path, "big.json", {"matrix": [[2 ** 62] * 2] * 2,
                                     "depth": 2})
    rc, d = run_json(capsys, "analyze", p, "measure")
    assert rc == 0
    assert d["lambda"] == 2.0 ** 63
    assert all(x > 0 for level in d["levels"] for x in level)
    assert d["max_invariance_residual"] == 0.0


def test_induced_system_past_int64_multiplicity(capsys, tmp_path):
    """A multiplicity of 2^70 is held as a Python int; the induced
    system's outgoing sums used it as np.bincount weights, which raised
    an uncaught TypeError."""
    p = _spec(tmp_path, "wide.json", {"matrix": [[2 ** 70, 1], [1, 1]],
                                      "depth": 2})
    rc, d = run_json(capsys, "analyze", p, "markov")
    assert rc == 0
    assert d["normalized_rows"] == []
    assert d["stochasticity_deviation"] == 0.0


def test_operators_suite_builds_one_pair_index_per_level_structure(
        tmp_path, monkeypatch):
    """The self-adjointness check reads T-hat_n at the source pairs of the
    level; a stationary band holds one level record, so the pair index is
    built once, not once per level."""
    from functools import cached_property

    from bratteli import diagram as dg
    builds = []
    source_pairs = dg.IncidenceMatrix.source_pairs.func

    def counted(self):
        builds.append(self)
        return source_pairs(self)

    prop = cached_property(counted)
    prop.__set_name__(dg.IncidenceMatrix, "source_pairs")
    monkeypatch.setattr(dg.IncidenceMatrix, "source_pairs", prop)
    p = _spec(tmp_path, "band.json", {"band": {"-2": 1, "0": 2, "2": 1},
                                      "window": [-30, 30, 2], "depth": 8})
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(["check", p, "--suite", "operators"])
    assert rc == 0, out.getvalue()
    assert len(builds) == 1


# -- the JSON writer -------------------------------------------------------------

def _reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2,
                      default=lambda o: o.tolist()) + "\n"


_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
           -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
           1e16, 1e22, 123456789.0, -1.5]
_INTS = [0, -1, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 + 7, -(2 ** 70)]
_CHARS = ("abc xyz 019 \" \\ / \x00 \x01 \x1f \x7f \x80 \xe9 ÿ   "
          "☃ \ud800 \U0001f600 \b \f \n \r \t").split(" ") + [" ", ""]


def _random_float(rng):
    if rng.random() < 0.5:
        return _FLOATS[rng.integers(len(_FLOATS))]
    return float(np.frombuffer(rng.bytes(8), dtype=np.float64)[0])


def _random_str(rng):
    return "".join(_CHARS[i] for i in rng.integers(len(_CHARS),
                                                   size=rng.integers(0, 6)))


def _random_payload(rng, depth=0):
    """A random JSON-able value of the kinds the commands print: Python and
    numpy scalars and arrays inside lists, tuples and dicts."""
    kinds = 14 if depth < 4 else 8
    k = int(rng.integers(kinds))
    if k == 0:
        return _random_float(rng)
    if k == 1:
        return _INTS[rng.integers(len(_INTS))] if rng.random() < 0.5 else \
            int(rng.integers(-10 ** 9, 10 ** 9))
    if k == 2:
        return [True, False, None][rng.integers(3)]
    if k == 3:
        return _random_str(rng)
    if k == 4:
        return np.float64(_random_float(rng))
    if k == 5:
        return [np.int64(rng.integers(-2 ** 62, 2 ** 62)), np.bool_(True),
                np.bool_(False), np.float32(1.5), np.str_("s\xe9")][
            rng.integers(5)]
    if k == 6:
        shape = [(0,), (3,), (2, 2), (1, 0)][rng.integers(4)]
        dtype = [np.float64, np.int64, bool][rng.integers(3)]
        return (rng.standard_normal(shape) * 1e5).astype(dtype)
    if k == 7:   # a list of floats, as the level vectors are
        return [_random_float(rng) if rng.random() < 0.7
                else np.float64(_random_float(rng))
                for _ in range(rng.integers(1, 40))]
    size = int(rng.integers(0, 5))
    if k in (8, 9):
        items = [_random_payload(rng, depth + 1) for _ in range(size)]
        return items if k == 8 else tuple(items)
    if k == 10:
        return {_random_str(rng): _random_payload(rng, depth + 1)
                for _ in range(size)}
    keys = [[int(x) for x in rng.integers(-50, 50, size)],
            [_random_float(rng) for _ in range(size)],
            [[None], [True, False]][rng.integers(2)][:size]][k - 11]
    return {key: _random_payload(rng, depth + 1) for key in keys}


def test_json_writer_matches_json_dumps_on_random_payloads():
    """_json writes what json.dumps(sort_keys=True, indent=2,
    default=tolist) writes, byte for byte: NaN and infinities, signed
    zeros, subnormals, integers past int64, non-ASCII and control
    characters, lone surrogates, empty and nested containers, tuples,
    numpy scalars and arrays, and dict keys of every kind json takes."""
    rng = np.random.default_rng(20)
    for _ in range(2000):
        obj = _random_payload(rng)
        assert cli._json(obj) == _reference_json(obj), obj


@pytest.mark.parametrize("obj", [
    _INTS, [-3, 0, 5, -(2 ** 64) - 1, 2 ** 64, 2 ** 200],
    [True, 1, 0, False], [1, True], [False, 0], [1, 2.5, -3],
    [[1, 2], [], [[-1, [2 ** 65]], 3]], [], [[]], {"a": [0, -7, 2 ** 64]},
    [np.int64(4), 5], [1, None, 2]])
def test_json_writer_matches_json_dumps_on_int_lists(obj):
    """Lists of Python ints go to json's C encoder in one piece, as float
    lists do; bools and numpy integers among them take the element path."""
    assert cli._json(obj) == _reference_json(obj)


def test_json_writer_rejects_what_json_rejects():
    for bad in ({(1, 2): 0}, {"a": object()}):
        with pytest.raises((TypeError, AttributeError)) as want:
            _reference_json(bad)
        with pytest.raises(want.type):
            cli._json(bad)


@pytest.mark.parametrize("spec", sorted(p.name for p in SPECS.glob("*.json")))
def test_json_writer_matches_json_dumps_on_every_command(spec, monkeypatch):
    """Every payload an example spec's validate, analyze kinds and
    check --format json build, error objects included, prints as
    json.dumps prints it."""
    payloads = []
    writer = cli._json

    def compared(obj):
        payloads.append(obj)
        text = writer(obj)
        assert text == _reference_json(obj)
        return text

    monkeypatch.setattr(cli, "_json", compared)
    path = str(SPECS / spec)
    commands = [["validate", path], ["validate", path, "--emit-spec"],
                ["check", path, "--format", "json"]]
    commands += [["analyze", path, kind, "--trials", "300", "--steps", "20"]
                 for kind in sorted(cli._ANALYSES)]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    assert len(payloads) == len(commands)
