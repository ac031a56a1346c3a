"""Command-line behavior: validate/analyze/check over the shipped example
specs, exit codes (0 ok, 1 failed validation or invariant, 2 usage), CSV
versus JSON output, canonical spec emission, and seeded determinism."""

import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

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
    "allones": (None, 2.0, "constant-row-and-column-sums", 0, 0.0,
                "PositiveRecurrent"),
    "column_sums": ({"matrix": [[1, 1], [2, 0]], "depth": 2},
                    2.0, "constant-column-sums", 1, 0.0, "PositiveRecurrent"),
    "fibonacci": ({"matrix": [[1, 1], [1, 0]], "depth": 2},
                  1.618033988749895, None, 36, 6.861555643110587e-16,
                  "PositiveRecurrent"),
    "nat_window": ({"substitution": {"name": "nat_length_two"},
                    "window": [0, 60], "depth": 2},
                   2.0, "constant-column-sums", 827, 2.643046068372988e-13,
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


def test_operators_suite_builds_each_dense_kernel_once(tmp_path, monkeypatch):
    """check --suite operators scatters three dense kernels per level (the
    level sweep's P-hat, then the P-hat and Q-hat of the samples) and
    applies each operator once per level, to all 20 samples at once."""
    from bratteli import markov as mk
    calls = dict.fromkeys(("_scatter", "apply_TP", "apply_TQ"), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mk, name, counted(name, getattr(mk, name)))
    p = _spec(tmp_path, "band.json", {"band": {"-2": 1, "0": 2, "2": 1},
                                      "window": [-20, 20, 2], "depth": 6})
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(["check", p, "--suite", "operators"])
    assert rc == 0, out.getvalue()
    assert calls == {"_scatter": 3 * 6, "apply_TP": 6, "apply_TQ": 6}


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
        return mk.HatKernels(hk.diagram, hk.q, hk.phat_values,
                             tuple(q * 1.1 for q in hk.qhat_values))

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
        "ValueError"),
    "nan_cell_mass": ('{"matrix": [[1]], "depth": 2, "kernels": {"nu0": '
                      '[0.5, NaN], "chain": [[[0.5, 0.5], [0.5, 0.5]]]}}',
                      "SpecError"),
    "negative_cell_mass": ('{"matrix": [[1]], "depth": 2, "kernels": {"nu0": '
                           '[0.5, -0.5], "chain": [[[0.5, 0.5], '
                           '[0.5, 0.5]]]}}', "ZeroTotalMass"),
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
