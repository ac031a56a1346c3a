"""Command-line front end.

Three commands over one JSON spec format: ``validate`` (structure check,
machine-readable report), ``analyze`` (run one analysis and print CSV or
JSON), ``check`` (run invariant suites and exit 0 only if all hold).
All floating output keeps full round-trip precision so downstream diffs
are exact; fixed seeds give byte-identical output.  Each command builds
one analysis context, whose stages (measure, Markov system, dual kernels,
network) are computed at most once per command.

Exit codes: 0 success, 1 validation or invariant failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cached_property

import numpy as np

from . import cells as cl
from . import diagram as dg
from . import laplacian as lp
from . import markov as mk
from . import measures as ms
from . import perron as pf
from . import substitution as sb
from .specfile import ParsedSpec, SpecError, load_spec

# every error a command reports as an error object instead of a traceback
_ERRORS = (SpecError, dg.DiagramError, sb.EmptyImage, pf.NoConvergence,
           ms.PFFailed, ms.DimensionMismatch, mk.PathInvalid, mk.ZeroMass,
           mk.ZeroMeasureVertex, lp.BalanceViolation, cl.ZeroTotalMass,
           cl.NotPSD, ValueError)


# ---------------------------------------------------------------- output

def _f(x) -> str:
    return "%.17g" % float(x)


def _json(obj) -> str:
    """Indented JSON with sorted keys.  np.float64 is a float and prints
    as one; other numpy scalars and arrays go through ``tolist``."""
    return json.dumps(obj, sort_keys=True, indent=2,
                      default=lambda o: o.tolist()) + "\n"


def _emit(args, payload: dict, rows, header: list) -> None:
    """JSON object, or CSV when requested; only CSV iterates the rows."""
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_f(x) if isinstance(x, (float, np.floating)) else x
                        for x in row])
        text = buf.getvalue()
    else:
        text = _json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(kind: str, detail: str) -> int:
    sys.stdout.write(_json({"error": {"kind": kind, "detail": detail}}))
    return 1


# ---------------------------------------------------------------- context

class _Context:
    """One command's analysis chain over one spec: each stage is built on
    first use and kept for the command, unless it raised.  check is not
    strict, so a bad explicit row is a failed invariant, not an error."""

    def __init__(self, spec: ParsedSpec, strict: bool):
        self.spec, self.diagram, self.strict = spec, spec.diagram, strict
        self.induced = spec.markov is None or "edges" not in spec.markov
        self._measures: dict = {}

    def measure(self, normalization: str):
        """(measure, normalization report or None), once per normalization."""
        if normalization not in self._measures:
            d = self.diagram
            self._measures[normalization] = (
                ms.stationary_pf_measure(d, normalization=normalization)
                if d.stationary else (ms.solve_tail_invariant(d), None))
        return self._measures[normalization]

    @cached_property
    def system(self) -> mk.MarkovSystem:
        d, blk = self.diagram, self.spec.markov
        if self.induced:
            norm = "probability" if blk is None else blk["normalization"]
            return mk.markov_from_tail_invariant(d, self.measure(norm)[0])
        probs: list[dict] = [{} for _ in range(d.depth)]
        for (lvl, src, tgt, p) in blk["edges"]:
            probs[lvl][(src, tgt)] = p
        sysm = mk.MarkovSystem(d, np.asarray(blk["q0"], dtype=np.float64),
                               tuple(probs))
        mk.validate_system(sysm, tol=1e-12 if self.strict else float("inf"))
        return sysm

    @cached_property
    def kernels(self) -> mk.HatKernels:
        return mk.dual_kernels(self.system)

    @cached_property
    def network(self) -> lp.WeightedNetwork:
        return lp.build_network(self.kernels)


# ---------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    try:
        spec = load_spec(args.spec, args.depth)
    except _ERRORS as e:
        report = {"valid": False,
                  "violations": [{"kind": type(e).__name__,
                                  "detail": str(e),
                                  **{k: getattr(e, k) for k in
                                     ("level", "vertex") if hasattr(e, k)}}]}
        sys.stdout.write(_json(report))
        return 1
    if args.emit_spec:
        sys.stdout.write(_json(spec.canonical))
        return 0
    d = spec.diagram
    report = {"valid": True,
              "depth": d.depth,
              "stationary": d.stationary,
              "level_sizes": [len(d.window(n)) for n in range(d.depth + 1)],
              "has_markov": spec.markov is not None,
              "has_kernels": spec.kernels is not None}
    sys.stdout.write(_json(report))
    return 0


# ---------------------------------------------------------------- analyze

def _analyze_pf(ctx: _Context, args):
    d = ctx.diagram
    if not d.stationary:
        raise SpecError("pf analysis needs a stationary diagram")
    sd = pf.pf_solve(d.F(0))
    rec = pf.classify_recurrence(d.F(0), sd.lam)
    payload = {"lambda": sd.lam, "classification": rec.classification,
               "residual": sd.residual, "shortcut": sd.shortcut,
               "iterations": sd.iterations,
               "vertices": list(sd.vertices),
               "right": list(sd.right), "left": list(sd.left)}
    rows = ((v, sd.right[i], sd.left[i]) for i, v in enumerate(sd.vertices))
    return payload, rows, ["vertex", "right", "left"]


def _analyze_measure(ctx: _Context, args):
    mu, rep = ctx.measure(args.normalization)
    inv = ms.verify_tail_invariance(ctx.diagram, mu, tol=args.tol)
    payload = {"kind": mu.kind,
               "normalization": args.normalization if rep else None,
               "lambda": rep.lam if rep else None,
               "max_invariance_residual": max(inv.residuals),
               "levels": [list(mu.level(n)) for n in range(mu.depth + 1)]}
    rows = ((n, v, float(mu.level(n)[i]))
            for n in range(mu.depth + 1)
            for i, v in enumerate(ctx.diagram.vertices(n)))
    return payload, rows, ["level", "vertex", "value"]


def _analyze_markov(ctx: _Context, args):
    sysm = ctx.system
    qs = ctx.kernels.q   # ZeroMass where a level mass vanished
    payload = {"q0": list(map(float, sysm.q0)),
               "stochasticity_deviation": max(sysm.levels.stochasticity),
               "normalized_rows": list(sysm.meta.get("normalized", ())),
               "q": [list(map(float, q)) for q in qs]}
    rows = ((n, v, float(qs[n][i]))
            for n in range(sysm.depth + 1)
            for i, v in enumerate(ctx.diagram.vertices(n)))
    return payload, rows, ["level", "vertex", "q"]


def _analyze_laplacian(ctx: _Context, args):
    net = ctx.network
    sol = lp.solve_harmonic(net, 0.0, 1.0)
    payload = {"residual": sol.residual,
               "max_principle_ok": sol.max_principle_ok,
               "levels": [list(v) for v in sol.f.values]}
    rows = ((n, v, float(sol.f.values[n][i]))
            for n in range(net.depth + 1)
            for i, v in enumerate(ctx.diagram.vertices(n)))
    return payload, rows, ["level", "vertex", "value"]


def _analyze_energy(ctx: _Context, args):
    net = ctx.network
    sol = lp.solve_harmonic(net, 0.0, 1.0)
    er = lp.energy_norm(net, sol.f)
    payload = {"direct": er.direct, "operator_form": er.operator_form,
               "agreement": er.agreement,
               "qm_identity_residual": lp.qM_identity_residual(net),
               "mass_vs_q_deviation": net.mass_vs_q_dev}
    rows = [(er.direct, er.operator_form, er.agreement)]
    return payload, rows, ["direct", "operator_form", "agreement"]


def _analyze_walk(ctx: _Context, args):
    net = ctx.network
    level = args.start_level
    if not 0 <= level <= net.depth:
        raise SpecError(f"start level {level} outside 0..{net.depth}")
    start = (level, ctx.diagram.vertices(level)[0])
    st = lp.walk(net, start, steps=args.steps, trials=args.trials,
                 seed=args.seed)
    payload = {"start": list(start), "steps": st.steps, "trials": st.trials,
               "seed": args.seed, "backend": "python",
               "return_probability": st.return_probability,
               "mean_returns_per_step": st.mean_returns_per_step,
               "trace": [list(s) for s in st.trace.states]}
    rows = ((t, int(r)) for t, r in enumerate(st.returns))
    return payload, rows, ["trial", "returns"]


def _cell_duality(spaces, kernels) -> list[dict]:
    """Per-level diagnostics of each kernel's dual pair: the duality and
    marginal residuals, the asymmetry of the two symmetric measures, and
    the smallest eigenvalue of the singleton Gram matrix."""
    levels = []
    for k, K in enumerate(kernels):
        _, nu2, Q = cl.dual_kernel(spaces[k], K)
        l1, l2 = (np.asarray(lam, dtype=np.float64) for lam in
                  cl.symmetric_measures(K, Q, spaces[k], nu2))
        gram = cl.rkhs_gram(l1, [[i] for i in range(spaces[k].m)])
        levels.append({
            "duality_residual": cl.duality_residual(spaces[k], K, nu2, Q),
            "marginal_residual": float(np.abs(
                nu2.nu(False) - spaces[k + 1].nu(False)).max()),
            "asymmetry": max(float(np.abs(l1 - l1.T).max()),
                             float(np.abs(l2 - l2.T).max())),
            "gram_min_eigenvalue": gram.min_eigenvalue})
    return levels


def _analyze_kernels(ctx: _Context, args):
    if ctx.spec.kernels is None:
        raise SpecError("spec has no kernels block")
    spaces, kernels = ctx.spec.kernels
    per_level = [{key: lvl[key] for key in ("duality_residual",
                                            "marginal_residual",
                                            "gram_min_eigenvalue")}
                 for lvl in _cell_duality(spaces, kernels)]
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
    rows = ((k, lvl["duality_residual"], lvl["marginal_residual"],
             lvl["gram_min_eigenvalue"]) for k, lvl in enumerate(per_level))
    return payload, rows, ["level", "duality_residual", "marginal_residual",
                           "gram_min_eigenvalue"]


_ANALYSES = {"pf": _analyze_pf, "measure": _analyze_measure,
             "markov": _analyze_markov, "laplacian": _analyze_laplacian,
             "energy": _analyze_energy, "walk": _analyze_walk,
             "kernels": _analyze_kernels}


def cmd_analyze(args) -> int:
    try:
        ctx = _Context(load_spec(args.spec, args.depth), strict=True)
        payload, rows, header = _ANALYSES[args.analysis](ctx, args)
    except _ERRORS as e:
        return _fail(type(e).__name__, str(e))
    _emit(args, payload, rows, header)
    return 0


# ---------------------------------------------------------------- check

def _suite_consistency(ctx: _Context, tol: float, seed: int, out: list):
    d = ctx.diagram
    # H^(n+1)_v = sum_w f_vw H^(n)_w exactly iff every hat row sums to 1
    worst = max([0] + [ms.hat_matrix(d, n).row_deviation()
                       for n in range(d.depth)])
    ok = worst == 0
    out.append(("consistency", "HeightRecursion", 0.0 if ok else 1.0, ok))

    mu, _ = ctx.measure("probability")
    inv = ms.verify_tail_invariance(d, mu, tol=tol)
    out.append(("consistency", "TailInvariance", max(inv.residuals),
                inv.passed))
    out.append(("consistency", "HatRowsSumToOne", float(worst), ok))

    # the extension q^(n) @ phat(n) is q^(n+1): compare level totals
    tot = [q.sum() for q in ctx.system.levels.q]
    worst = max([0.0] + [float(np.abs(b - a) / max(a, 1e-300))
                         for a, b in zip(tot, tot[1:])])
    out.append(("consistency", "KolmogorovExtension", worst, worst <= tol))


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b|, computed in a's buffer (a is a fresh product)."""
    return float(np.abs(np.subtract(a, b, out=a), out=a).max())


_SAMPLES = 20   # random functions per level (operators) or per suite


def _operator_samples(P, Q, sp_lo, sp_hi, rng) -> tuple[list, list]:
    """One level's random samples, in sample order: |<f, T_P g> - <T_Q f, g>|
    per sample, and ||T_P g|| - ||g||, ||T_Q f|| - ||f|| per sample,
    interleaved.  Row s of one (_SAMPLES, m_n + m_{n+1}) draw is sample s's
    f then g, the values of alternating per-sample draws.  The stacks are
    freed on return, before the level's m x m products are formed, so they
    do not sit between those in the heap."""
    m = P.shape[0]
    FG = rng.standard_normal((_SAMPLES, m + P.shape[1]))
    F, G = FG[:, :m], FG[:, m:]
    PG, QF = mk.apply_TP(P, G), mk.apply_TQ(Q, F)
    adj = np.abs(sp_lo.inner(F, PG) - sp_hi.inner(QF, G))
    con = np.column_stack((sp_lo.norm(PG) - sp_hi.norm(G),
                           sp_hi.norm(QF) - sp_lo.norm(F)))
    return adj.tolist(), con.ravel().tolist()


def _suite_operators(ctx: _Context, tol: float, seed: int, out: list):
    d = ctx.diagram
    dev = max(ctx.system.levels.stochasticity)
    out.append(("operators", "StochasticityViolation", dev, dev <= tol))
    if dev > tol:
        return
    hk = ctx.kernels
    bal = max(mk.balance_gap(hk, n) for n in range(d.depth))
    out.append(("operators", "DetailedBalance", bal, bal <= tol))
    if ctx.induced:
        devqf = mk.hat_vs_incidence(d, hk)
        out.append(("operators", "DualEqualsHatIncidence", devqf,
                    devqf <= tol))
    rng = np.random.default_rng(seed)
    worst_adj = worst_con = worst_fix = 0.0
    for n in range(d.depth):   # one dense kernel pair at a time
        P, Q = hk.phat[n], hk.qhat[n]
        adj, con = _operator_samples(P, Q, mk.space(hk, n),
                                     mk.space(hk, n + 1), rng)
        # fold in sample order, so max keeps its first-wins and NaN rules
        worst_adj = max(worst_adj, *adj)
        worst_con = max(worst_con, *con)
        T = mk.compose_Tn(P, Q)
        del P, Q
        worst_fix = max(worst_fix,
                        float(np.abs(T.sum(axis=1) - 1.0).max()),
                        float(np.abs(hk.q[n] @ T - hk.q[n]).max()),
                        _max_abs_diff(hk.q[n][:, None] * T,
                                      (hk.q[n][:, None] * T).T))
    out.append(("operators", "Adjointness", worst_adj, worst_adj <= tol))
    out.append(("operators", "Contractivity", worst_con, worst_con <= tol))
    out.append(("operators", "ComposedKernelFixesQ", worst_fix,
                worst_fix <= tol))


def _suite_laplacian(ctx: _Context, tol: float, seed: int, out: list):
    try:
        net = ctx.network
    except lp.BalanceViolation as e:
        out.append(("laplacian", "ConductanceSymmetry", e.delta, False))
        return
    out.append(("laplacian", "ConductanceSymmetry", 0.0, True))
    out.append(("laplacian", "VertexMassMatchesQ", net.mass_vs_q_dev,
                net.mass_vs_q_dev <= tol))
    qm = lp.qM_identity_residual(net)
    out.append(("laplacian", "QHalfSumIdentity", qm, qm <= tol))
    dc = lp.apply_Delta(net, lp.LevelFunction.constant(net, 1.0))
    cres = max(float(np.abs(v).max()) for v in dc.values)
    out.append(("laplacian", "ConstantsHarmonic", cres, cres <= tol))
    # row s holds sample s's levels in order: the draws of one call per
    # sample and level
    sizes = [len(q) for q in net.kernels.q]
    X = np.random.default_rng(seed).standard_normal((_SAMPLES, sum(sizes)))
    f = lp.LevelFunction(tuple(np.split(X, np.cumsum(sizes)[:-1], axis=1)))
    worst = max(0.0, *lp.energy_norm(net, f).agreement.tolist())
    out.append(("laplacian", "EnergyFormsAgree", worst, worst <= tol))
    if net.depth >= 2:
        sol = lp.solve_harmonic(net, 0.0, 1.0)
        out.append(("laplacian", "HarmonicSolve", sol.residual,
                    sol.max_principle_ok and sol.residual <= tol))


def _suite_kernels(ctx: _Context, tol: float, seed: int, out: list):
    if ctx.spec.kernels is None:
        return
    spaces, kernels = ctx.spec.kernels
    levels = _cell_duality(spaces, kernels)
    worst_dual, worst_marg, worst_sym = (
        max([0.0] + [lvl[key] for lvl in levels])
        for key in ("duality_residual", "marginal_residual", "asymmetry"))
    min_eig = min([np.inf] + [lvl["gram_min_eigenvalue"] for lvl in levels])
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
    names = (list(_SUITES) if args.suite == "all" else [args.suite])
    results: list[tuple[str, str, float, bool]] = []
    try:
        ctx = _Context(load_spec(args.spec, args.depth), strict=False)
        for name in names:
            _SUITES[name](ctx, args.tol, args.seed, results)
    except _ERRORS as e:
        return _fail(type(e).__name__, str(e))
    ok = all(r[3] for r in results)
    if args.format == "json":
        payload = {"passed": ok,
                   "results": [{"suite": s, "invariant": n,
                                "residual": v, "passed": p}
                               for (s, n, v, p) in results]}
        sys.stdout.write(_json(payload))
    else:
        width = max((len(r[1]) for r in results), default=10)
        for (s, n, v, p) in results:
            sys.stdout.write(f"{s:<12} {n:<{width}} {_f(v):>24} "
                             f"{'pass' if p else 'FAIL'}\n")
        sys.stdout.write(f"{'all passed' if ok else 'FAILURES present'}\n")
    return 0 if ok else 1


# ---------------------------------------------------------------- parser

def non_negative(text: str) -> int:
    """An integer argument of at least 0, such as check's --seed, which
    seeds numpy's default_rng."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


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
                    choices=ms.NORMALIZATIONS)
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
    pc.add_argument("--seed", type=non_negative, default=0)
    pc.add_argument("--format", choices=["text", "json"], default="text")
    pc.set_defaults(func=cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
