"""Command-line front end.

Three commands over one JSON spec format: ``validate`` (structure check,
machine-readable report), ``analyze`` (run one analysis and print CSV or
JSON), ``check`` (run invariant suites and exit 0 only if all hold).
All floating output keeps full round-trip precision so downstream diffs
are exact; fixed seeds give byte-identical output.

Exit codes: 0 success, 1 validation or invariant failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import cells as cl
from . import diagram as dg
from . import laplacian as lp
from . import markov as mk
from . import measures as ms
from . import perron as pf
from .specfile import ParsedSpec, SpecError, load_spec


# ---------------------------------------------------------------- output

def _f(x) -> str:
    return "%.17g" % float(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _emit(args, payload: dict, rows: list | None, header: list | None) -> None:
    """JSON object, or CSV when rows were supplied and csv requested."""
    if getattr(args, "format", "json") == "csv" and rows is not None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_f(x) if isinstance(x, (float, np.floating)) else x
                        for x in row])
        text = buf.getvalue()
    else:
        text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(kind: str, detail: str) -> int:
    sys.stdout.write(json.dumps(
        {"error": {"kind": kind, "detail": detail}}, sort_keys=True,
        indent=2) + "\n")
    return 1


# ---------------------------------------------------------------- builders

def _measure(spec: ParsedSpec, normalization: str):
    d = spec.diagram
    if d.stationary:
        return ms.stationary_pf_measure(d, normalization=normalization)
    return ms.solve_tail_invariant(d), None


def _system(spec: ParsedSpec, strict: bool = True) -> mk.MarkovSystem:
    """Build the Markov system a spec describes (induced by default).

    strict=False skips the stochasticity tolerance so the check suites
    can report a corrupted row as a failed invariant instead of dying.
    """
    blk = spec.markov or {"from_tail_invariant": True,
                          "normalization": "probability"}
    d = spec.diagram
    if blk.get("from_tail_invariant"):
        mu, _ = _measure(spec, blk.get("normalization", "probability"))
        return mk.markov_from_tail_invariant(d, mu)
    probs: list[dict] = [{} for _ in range(d.depth)]
    for (lvl, src, tgt, p) in blk["edges"]:
        probs[lvl][(src, tgt)] = p
    sysm = mk.MarkovSystem(d, np.asarray(blk["q0"], dtype=np.float64),
                           tuple(probs))
    mk.validate_system(sysm, tol=1e-12 if strict else float("inf"))
    return sysm


def _network(spec: ParsedSpec, strict: bool = True) -> lp.WeightedNetwork:
    return lp.build_network(mk.dual_kernels(_system(spec, strict)))


# ---------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    try:
        spec = load_spec(args.spec, args.depth)
    except (SpecError, dg.DiagramError) as e:
        report = {"valid": False,
                  "violations": [{"kind": type(e).__name__,
                                  "detail": str(e),
                                  **{k: getattr(e, k) for k in
                                     ("level", "vertex") if hasattr(e, k)}}]}
        sys.stdout.write(json.dumps(_jsonable(report), sort_keys=True,
                                    indent=2) + "\n")
        return 1
    if args.emit_spec:
        sys.stdout.write(json.dumps(spec.canonical, sort_keys=True,
                                    indent=2) + "\n")
        return 0
    d = spec.diagram
    report = {"valid": True,
              "depth": d.depth,
              "stationary": d.stationary,
              "level_sizes": [len(d.window(n)) for n in range(d.depth + 1)],
              "has_markov": spec.markov is not None,
              "has_kernels": spec.kernels is not None}
    sys.stdout.write(json.dumps(_jsonable(report), sort_keys=True,
                                indent=2) + "\n")
    return 0


# ---------------------------------------------------------------- analyze

def _analyze_pf(spec: ParsedSpec, args):
    d = spec.diagram
    if not d.stationary:
        raise SpecError("pf analysis needs a stationary diagram")
    w = pf.incidence_transpose(d.F(0))
    sd = pf.pf_solve(w)
    rec = pf.classify_recurrence(w, sd.lam)
    payload = {"lambda": sd.lam, "classification": rec.classification,
               "residual": sd.residual, "shortcut": sd.shortcut,
               "iterations": sd.iterations,
               "vertices": list(sd.vertices),
               "right": list(sd.right), "left": list(sd.left)}
    rows = [(v, sd.right[i], sd.left[i]) for i, v in enumerate(sd.vertices)]
    return payload, rows, ["vertex", "right", "left"]


def _analyze_measure(spec: ParsedSpec, args):
    mu, rep = _measure(spec, args.normalization)
    inv = ms.verify_tail_invariance(spec.diagram, mu, tol=args.tol)
    payload = {"kind": mu.kind,
               "normalization": args.normalization if rep else None,
               "lambda": rep.lam if rep else None,
               "max_invariance_residual": max(inv.residuals),
               "levels": [list(mu.level(n)) for n in range(mu.depth + 1)]}
    rows = [(n, v, float(mu.level(n)[i]))
            for n in range(mu.depth + 1)
            for i, v in enumerate(spec.diagram.vertices(n))]
    return payload, rows, ["level", "vertex", "value"]


def _analyze_markov(spec: ParsedSpec, args):
    sysm = _system(spec)
    qs = [np.asarray(sysm.q0, dtype=np.float64)]
    devs = []
    for n in range(sysm.depth):   # one dense P-hat per level, no Q-hat
        P = sysm.phat(n)
        qs.append(qs[n] @ P)
        mk.check_mass(sysm, n + 1, qs[-1])
        devs.append(float(np.abs(P.sum(axis=1) - 1.0).max()))
    payload = {"q0": list(map(float, sysm.q0)),
               "stochasticity_deviation": max(devs),
               "normalized_rows": list(sysm.meta.get("normalized", ())),
               "q": [list(map(float, q)) for q in qs]}
    rows = [(n, v, float(qs[n][i]))
            for n in range(sysm.depth + 1)
            for i, v in enumerate(spec.diagram.vertices(n))]
    return payload, rows, ["level", "vertex", "q"]


def _analyze_laplacian(spec: ParsedSpec, args):
    net = _network(spec)
    sol = lp.solve_harmonic(net, 0.0, 1.0)
    payload = {"residual": sol.residual,
               "max_principle_ok": sol.max_principle_ok,
               "levels": [list(v) for v in sol.f.values]}
    rows = [(n, v, float(sol.f.values[n][i]))
            for n in range(net.depth + 1)
            for i, v in enumerate(spec.diagram.vertices(n))]
    return payload, rows, ["level", "vertex", "value"]


def _analyze_energy(spec: ParsedSpec, args):
    net = _network(spec)
    sol = lp.solve_harmonic(net, 0.0, 1.0)
    er = lp.energy_norm(net, sol.f)
    payload = {"direct": er.direct, "operator_form": er.operator_form,
               "agreement": er.agreement,
               "qm_identity_residual": lp.qM_identity_residual(net),
               "mass_vs_q_deviation": net.mass_vs_q_dev}
    rows = [(er.direct, er.operator_form, er.agreement)]
    return payload, rows, ["direct", "operator_form", "agreement"]


def _analyze_walk(spec: ParsedSpec, args):
    net = _network(spec)
    level = args.start_level
    if not 0 <= level <= net.depth:
        raise SpecError(f"start level {level} outside 0..{net.depth}")
    start = (level, spec.diagram.vertices(level)[0])
    st = lp.walk(net, start, steps=args.steps, trials=args.trials,
                 seed=args.seed)
    payload = {"start": list(start), "steps": st.steps, "trials": st.trials,
               "seed": args.seed, "backend": "python",
               "return_probability": st.return_probability,
               "mean_returns_per_step": st.mean_returns_per_step,
               "trace": [list(s) for s in st.trace.states]}
    rows = [(t, int(r)) for t, r in enumerate(st.returns)]
    return payload, rows, ["trial", "returns"]


def _analyze_kernels(spec: ParsedSpec, args):
    if spec.kernels is None:
        raise SpecError("spec has no kernels block")
    spaces, kernels = spec.kernels
    per_level = []
    for k, K in enumerate(kernels):
        rho, nu2, Q = cl.dual_kernel(spaces[k], K)
        res = cl.duality_residual(spaces[k], K, nu2, Q)
        lam1, lam2 = cl.symmetric_measures(K, Q, spaces[k], nu2)
        gram = cl.rkhs_gram(np.asarray(lam1, dtype=np.float64),
                            [[i] for i in range(spaces[k].m)])
        per_level.append({"duality_residual": res,
                          "marginal_residual": float(np.abs(
                              nu2.nu(False) - spaces[k + 1].nu(False)).max()),
                          "gram_min_eigenvalue": gram.min_eigenvalue})
    depth = min(len(kernels), args.depth or len(kernels))
    samp = cl.path_measure_sample(spaces, kernels, 0, depth,
                                  seed=args.seed, trials=args.trials)
    payload = {"levels": per_level,
               "sample": {"depth": depth, "trials": samp.trials,
                          "max_z": samp.max_z,
                          "tv_distance": samp.tv_distance,
                          "backend": "python"},
               "start_cell_variation":
                   cl.start_cell_variation(spaces, kernels, depth)}
    rows = [(k, lvl["duality_residual"], lvl["marginal_residual"],
             lvl["gram_min_eigenvalue"]) for k, lvl in enumerate(per_level)]
    return payload, rows, ["level", "duality_residual", "marginal_residual",
                           "gram_min_eigenvalue"]


_ANALYSES = {"pf": _analyze_pf, "measure": _analyze_measure,
             "markov": _analyze_markov, "laplacian": _analyze_laplacian,
             "energy": _analyze_energy, "walk": _analyze_walk,
             "kernels": _analyze_kernels}


def cmd_analyze(args) -> int:
    try:
        spec = load_spec(args.spec, args.depth)
        payload, rows, header = _ANALYSES[args.analysis](spec, args)
    except (SpecError, dg.DiagramError) as e:
        return _fail(type(e).__name__, str(e))
    except (pf.NoConvergence, ms.PFFailed,
            ms.DimensionMismatch, mk.PathInvalid, mk.ZeroMass,
            mk.ZeroMeasureVertex, lp.BalanceViolation, cl.ZeroTotalMass,
            cl.NotPSD, ValueError) as e:
        return _fail(type(e).__name__, str(e))
    _emit(args, payload, rows, header)
    return 0


# ---------------------------------------------------------------- check

def _suite_consistency(spec: ParsedSpec, tol: float, seed: int, out: list):
    d = spec.diagram
    hs = [dg.heights(d, n) for n in range(d.depth + 1)]
    ok = True
    for n in range(d.depth):
        # F_n H^(n) in exact integers, from the level's own entries
        m = d.F(n)
        h = dict(zip(m.sources, hs[n]))
        nxt = dict.fromkeys(m.targets, 0)
        for (v, w), mult in m.entries.items():
            nxt[v] += mult * h[w]
        ok = ok and list(nxt.values()) == hs[n + 1]
    out.append(("consistency", "HeightRecursion", 0.0 if ok else 1.0, ok))

    mu, _ = _measure(spec, "probability")
    inv = ms.verify_tail_invariance(d, mu, tol=tol)
    out.append(("consistency", "TailInvariance", max(inv.residuals),
                inv.passed))

    worst = 0
    for n in range(d.depth):
        worst = max(worst, ms.hat_matrix(d, n).row_deviation())
    out.append(("consistency", "HatRowsSumToOne", float(worst), worst == 0))

    sysm = _system(spec, strict=False)
    qs = mk.propagate_q(sysm)
    worst = 0.0
    for n in range(d.depth):   # the extension qs[n] @ phat(n) is qs[n + 1]
        back = float(np.abs(qs[n + 1].sum() - qs[n].sum())
                     / max(qs[n].sum(), 1e-300))
        worst = max(worst, back)
    out.append(("consistency", "KolmogorovExtension", worst, worst <= tol))


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b|, computed in a's buffer (a is a fresh product)."""
    return float(np.abs(np.subtract(a, b, out=a), out=a).max())


def _suite_operators(spec: ParsedSpec, tol: float, seed: int, out: list):
    sysm = _system(spec, strict=False)
    d = spec.diagram
    dev = max(float(np.abs(sysm.phat(n).sum(axis=1) - 1.0).max())
              for n in range(d.depth))
    out.append(("operators", "StochasticityViolation", dev, dev <= tol))
    if dev > tol:
        return
    hk = mk.dual_kernels(sysm)
    bal = max(mk.balance_gap(hk, n) for n in range(d.depth))
    out.append(("operators", "DetailedBalance", bal, bal <= tol))
    induced = spec.markov is None or spec.markov.get("from_tail_invariant")
    if induced:
        devqf = mk.hat_vs_incidence(d, hk)
        out.append(("operators", "DualEqualsHatIncidence", devqf,
                    devqf <= tol))
    rng = np.random.default_rng(seed)
    worst_adj = worst_con = worst_fix = 0.0
    for n in range(d.depth):
        sp_lo = mk.space(hk, n)
        sp_hi = mk.space(hk, n + 1)
        for _ in range(20):
            f = rng.standard_normal(len(hk.q[n]))
            g = rng.standard_normal(len(hk.q[n + 1]))
            lhs = sp_lo.inner(f, mk.apply_TP(hk, n, g))
            rhs = sp_hi.inner(mk.apply_TQ(hk, n, f), g)
            worst_adj = max(worst_adj, abs(lhs - rhs))
            worst_con = max(worst_con,
                            sp_lo.norm(mk.apply_TP(hk, n, g)) - sp_hi.norm(g),
                            sp_hi.norm(mk.apply_TQ(hk, n, f)) - sp_lo.norm(f))
        T = mk.compose_Tn(hk, n)
        worst_fix = max(worst_fix,
                        float(np.abs(T.sum(axis=1) - 1.0).max()),
                        float(np.abs(hk.q[n] @ T - hk.q[n]).max()),
                        _max_abs_diff(hk.q[n][:, None] * T,
                                      (hk.q[n][:, None] * T).T))
    out.append(("operators", "Adjointness", worst_adj, worst_adj <= tol))
    out.append(("operators", "Contractivity", worst_con, worst_con <= tol))
    out.append(("operators", "ComposedKernelFixesQ", worst_fix,
                worst_fix <= tol))


def _suite_laplacian(spec: ParsedSpec, tol: float, seed: int, out: list):
    try:
        net = _network(spec, strict=False)
    except lp.BalanceViolation as e:
        out.append(("laplacian", "ConductanceSymmetry", e.delta, False))
        return
    out.append(("laplacian", "ConductanceSymmetry", 0.0, True))
    out.append(("laplacian", "VertexMassMatchesQ", net.mass_vs_q_dev,
                net.mass_vs_q_dev <= tol))
    qm = lp.qM_identity_residual(net)
    out.append(("laplacian", "QHalfSumIdentity", qm, qm <= tol))
    const = lp.LevelFunction.constant(net, 1.0)
    dc = lp.apply_Delta(net, const)
    cres = max(float(np.abs(v).max()) for v in dc.values)
    out.append(("laplacian", "ConstantsHarmonic", cres, cres <= tol))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        f = lp.LevelFunction.of([rng.standard_normal(len(q))
                                 for q in net.kernels.q])
        worst = max(worst, lp.energy_norm(net, f).agreement)
    out.append(("laplacian", "EnergyFormsAgree", worst, worst <= tol))
    if net.depth >= 2:
        sol = lp.solve_harmonic(net, 0.0, 1.0)
        out.append(("laplacian", "HarmonicSolve", sol.residual,
                    sol.max_principle_ok and sol.residual <= tol))


def _suite_kernels(spec: ParsedSpec, tol: float, seed: int, out: list):
    if spec.kernels is None:
        return
    spaces, kernels = spec.kernels
    worst_dual = worst_marg = worst_sym = 0.0
    min_eig = np.inf
    for k, K in enumerate(kernels):
        rho, nu2, Q = cl.dual_kernel(spaces[k], K)
        worst_dual = max(worst_dual,
                         cl.duality_residual(spaces[k], K, nu2, Q))
        worst_marg = max(worst_marg, float(np.abs(
            nu2.nu(False) - spaces[k + 1].nu(False)).max()))
        lam1, lam2 = cl.symmetric_measures(K, Q, spaces[k], nu2)
        l1 = np.asarray(lam1, dtype=np.float64)
        l2 = np.asarray(lam2, dtype=np.float64)
        worst_sym = max(worst_sym, float(np.abs(l1 - l1.T).max()),
                        float(np.abs(l2 - l2.T).max()))
        gram = cl.rkhs_gram(l1, [[i] for i in range(spaces[k].m)])
        min_eig = min(min_eig, gram.min_eigenvalue)
    out.append(("kernels", "DualityIdentity", worst_dual, worst_dual <= tol))
    out.append(("kernels", "MarginalPushforward", worst_marg,
                worst_marg <= tol))
    out.append(("kernels", "SymmetricMeasures", worst_sym, worst_sym == 0.0))
    out.append(("kernels", "GramPSD", float(min_eig), min_eig >= -1e-10))
    net = cl.chain_network(spaces, kernels)
    F = lp.LevelFunction.of([np.random.default_rng(seed).standard_normal(s.m)
                             for s in spaces])
    er = cl.chain_energy(net, F)
    out.append(("kernels", "ChainEnergyAgreement", er.agreement,
                er.agreement <= tol))


_SUITES = {"consistency": _suite_consistency, "operators": _suite_operators,
           "laplacian": _suite_laplacian, "kernels": _suite_kernels}


def cmd_check(args) -> int:
    try:
        spec = load_spec(args.spec, args.depth)
    except (SpecError, dg.DiagramError) as e:
        return _fail(type(e).__name__, str(e))
    names = (list(_SUITES) if args.suite == "all" else [args.suite])
    results: list[tuple[str, str, float, bool]] = []
    try:
        for name in names:
            _SUITES[name](spec, args.tol, args.seed, results)
    except (SpecError, dg.DiagramError, ms.PFFailed, ms.DimensionMismatch,
            mk.PathInvalid, mk.ZeroMass, mk.ZeroMeasureVertex,
            cl.ZeroTotalMass, cl.NotPSD, ValueError) as e:
        return _fail(type(e).__name__, str(e))
    ok = all(r[3] for r in results)
    if args.format == "json":
        payload = {"passed": ok,
                   "results": [{"suite": s, "invariant": n,
                                "residual": v, "passed": p}
                               for (s, n, v, p) in results]}
        sys.stdout.write(json.dumps(_jsonable(payload), sort_keys=True,
                                    indent=2) + "\n")
    else:
        width = max((len(r[1]) for r in results), default=10)
        for (s, n, v, p) in results:
            sys.stdout.write(f"{s:<12} {n:<{width}} {_f(v):>24} "
                             f"{'pass' if p else 'FAIL'}\n")
        sys.stdout.write(f"{'all passed' if ok else 'FAILURES present'}\n")
    return 0 if ok else 1


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bratteli",
        description="Harmonic analysis on generalized Bratteli diagrams")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check a diagram spec")
    pv.add_argument("spec")
    pv.add_argument("--depth", type=int, default=None)
    pv.add_argument("--emit-spec", action="store_true",
                    help="print the canonical form of the spec")
    pv.set_defaults(func=cmd_validate)

    pa = sub.add_parser("analyze", help="run one analysis")
    pa.add_argument("spec")
    pa.add_argument("analysis", choices=sorted(_ANALYSES))
    pa.add_argument("--depth", type=int, default=None)
    pa.add_argument("--tol", type=float, default=1e-10)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--trials", type=int, default=10_000)
    pa.add_argument("--steps", type=int, default=1_000)
    pa.add_argument("--start-level", type=int, default=0)
    pa.add_argument("--normalization", default="level0",
                    choices=["level0", "probability", "anchored"])
    pa.add_argument("--format", choices=["csv", "json"], default="json")
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("check", help="run invariant suites")
    pc.add_argument("spec")
    pc.add_argument("--suite", default="all",
                    choices=["consistency", "operators", "laplacian",
                             "kernels", "all"])
    pc.add_argument("--depth", type=int, default=None)
    pc.add_argument("--tol", type=float, default=1e-10)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--format", choices=["text", "json"], default="text")
    pc.set_defaults(func=cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
