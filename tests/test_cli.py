"""Command-line behavior: validate/analyze/check over the shipped example
specs, exit codes (0 ok, 1 failed validation or invariant, 2 usage), CSV
versus JSON output, canonical spec emission, and seeded determinism."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

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


def test_validate_bad_json_file(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ nope")
    rc, rep = run_json(capsys, "validate", str(p))
    assert rc == 1
    assert rep["violations"][0]["kind"] == "SpecError"


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


# one spec per solve branch, pinned to the values the solver has always
# printed: both sums known, column sums only, no shortcut, and a truncated
# substitution window whose column-sum claim leaves a long right-vector solve
PF_BRANCHES = {
    "allones": (None, 2.0, "constant-row-and-column-sums", 0, 0.0),
    "column_sums": ({"matrix": [[1, 1], [2, 0]], "depth": 2},
                    2.0, "constant-column-sums", 1, 0.0),
    "fibonacci": ({"matrix": [[1, 1], [1, 0]], "depth": 2},
                  1.618033988749895, None, 36, 6.861555643110587e-16),
    "nat_window": ({"substitution": {"name": "nat_length_two"},
                    "window": [0, 60], "depth": 2},
                   2.0, "constant-column-sums", 827, 2.643046068372988e-13),
}


@pytest.mark.parametrize("name", list(PF_BRANCHES))
def test_analyze_pf_pinned_per_branch(capsys, tmp_path, name):
    doc, lam, shortcut, iterations, residual = PF_BRANCHES[name]
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
    """analyze markov builds no dual kernel, yet still reports a level mass
    that vanished, as the dual kernel would."""
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
    rc, d = run_json(capsys, "analyze", FIBONACCI, "kernels")
    assert rc == 1
    assert d["error"]["kind"] == "SpecError"


def test_analyze_out_file(capsys, tmp_path):
    dest = tmp_path / "pf.json"
    rc, out = run(capsys, "analyze", FIBONACCI, "pf", "--out", str(dest))
    assert rc == 0
    assert out == ""
    assert json.loads(dest.read_text())["classification"] == \
        "PositiveRecurrent"


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
