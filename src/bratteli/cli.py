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
from functools import cache, cached_property

import numpy as np

from . import Error
from . import measures as ms
from . import perron as pf
from .diagram import LevelRows
from .specfile import ParsedSpec, SpecError, load_spec

# every error a command reports as an error object instead of a traceback;
# cells, laplacian and markov are imported by the stages that use them, so
# that validate and analyze pf load none of the sampling code
_ERRORS = (Error, ValueError)


# ---------------------------------------------------------------- output

def _f(x) -> str:
    return "%.17g" % float(x)


def _json(obj) -> str:
    """Indented JSON with sorted keys, plus a newline: the bytes of
    ``json.dumps(obj, sort_keys=True, indent=2, default=tolist)``.  With an
    indent ``json`` runs its pure-Python encoder, so the text is written
    here, and each list of floats or ints, where the time goes, is handed to
    json's C encoder with that depth's line break as its item separator.
    np.float64 is a float and prints as one; other numpy scalars and arrays
    go through ``tolist``.  Element types match exactly, so a list holding
    a bool or a numpy integer takes the element path."""
    out: list[str] = []
    _encode(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_FLAT = frozenset({float, np.float64, int})
_INF = float("inf")
_quote = json.encoder.encode_basestring_ascii


def _scalar(o) -> str | None:
    """json's text of a str, None, bool, int or float; None otherwise."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o in (_INF, -_INF):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    return None


def _encode(o, nl: str, out: list) -> None:
    """Append the JSON text of o, its nested lines starting with nl."""
    text = _scalar(o)
    if text is not None:
        out.append(text)
    elif isinstance(o, (list, tuple, dict)):
        inner = nl + "  "
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
        elif isinstance(o, dict):
            out.append("{")
            for i, (k, v) in enumerate(sorted(o.items())):
                out.append(("," if i else "") + inner + _quote(_key(k)) + ": ")
                _encode(v, inner, out)
            out.append(nl + "}")
        elif _FLAT.issuperset(map(type, o)):
            flat = json.JSONEncoder(separators=("," + inner, ": "))
            out.append("[" + inner + flat.encode(o)[1:-1] + nl + "]")
        else:
            out.append("[")
            for i, v in enumerate(o):
                out.append(("," if i else "") + inner)
                _encode(v, inner, out)
            out.append(nl + "]")
    else:
        _encode(o.tolist(), nl, out)


def _key(k) -> str:
    """A dict key as json writes it: str, float, bool, None or int."""
    text = k if isinstance(k, str) else _scalar(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {k.__class__.__name__}")
    return text


def _emit(args, payload: dict, rows, header: list) -> int:
    """JSON object, or CSV when requested; only CSV iterates the rows.
    The exit code: 1, with an error object, when --out cannot be written."""
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
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            return _fail(type(e).__name__,
                         f"cannot write --out {args.out}: {e.strerror}")
    else:
        sys.stdout.write(text)
    return 0


def _fail(kind: str, detail: str) -> int:
    sys.stdout.write(_json({"error": {"kind": kind, "detail": detail}}))
    return 1


# ---------------------------------------------------------------- context

class _Context:
    """One command's analysis chain over one spec: each stage is built on
    first use and kept for the command, unless it raised.  check is not
    strict, so an explicit row that sums away from 1 is a failed
    invariant, not an error; a row whose sum overflows is an error even
    there."""

    def __init__(self, spec: ParsedSpec, strict: bool):
        self.spec, self.diagram, self.strict = spec, spec.diagram, strict
        self.induced = spec.markov is None or "probs" not in spec.markov
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
        from . import markov as mk
        d, blk = self.diagram, self.spec.markov
        if self.induced:
            norm = "probability" if blk is None else blk["normalization"]
            return mk.markov_from_tail_invariant(d, self.measure(norm)[0])
        return mk.explicit_system(d, blk["q0"], blk["probs"],
                                  tol=1e-12 if self.strict else float("inf"))

    @property
    def cell_kernels(self):
        """The spec's (spaces, kernels) block; a SpecError without one."""
        if self.spec.kernels is None:
            raise SpecError("spec has no kernels block")
        return self.spec.kernels

    @cached_property
    def kernels(self) -> mk.HatKernels:
        from . import markov as mk
        return mk.dual_kernels(self.system)

    @cached_property
    def network(self) -> lp.WeightedNetwork:
        from . import laplacian as lp
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
    inv = ms.verify_tail_invariance(ctx.diagram, mu)
    payload = {"kind": "CylinderValues",
               "normalization": args.normalization if rep else None,
               "lambda": rep.lam if rep else None,
               "max_invariance_residual": max(inv.residuals),
               "levels": [list(mu.level(n)) for n in range(mu.depth + 1)]}
    rows = ((n, v, float(mu.level(n)[i]))
            for n in range(mu.depth + 1)
            for i, v in enumerate(ctx.diagram.vertices(n)))
    return payload, rows, ["level", "vertex", "value"]


def _analyze_markov(ctx: _Context, args):
    sysm, hk = ctx.system, ctx.kernels   # ZeroMass where a mass vanished
    payload = {"q0": list(map(float, sysm.q0)),
               "stochasticity_deviation": max(hk.stochasticity.tolist()),
               "normalized_rows": list(sysm.normalized),
               "q": [list(map(float, q)) for q in hk.q]}
    rows = ((n, v, float(hk.q[n][i]))
            for n in range(sysm.depth + 1)
            for i, v in enumerate(ctx.diagram.vertices(n)))
    return payload, rows, ["level", "vertex", "q"]


def _analyze_laplacian(ctx: _Context, args):
    from . import laplacian as lp
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
    from . import laplacian as lp
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
    from . import laplacian as lp
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
    from . import cells as cl
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
    from . import cells as cl
    spaces, kernels = ctx.cell_kernels
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
    return _emit(args, payload, rows, header)


# ---------------------------------------------------------------- check

def _suite_consistency(ctx: _Context, tol: float, seed: int, out: list):
    d = ctx.diagram
    # H^(n+1)_v = sum_w f_vw H^(n)_w exactly iff every hat row sums to 1
    worst = max([0] + [hm.row_deviation() for hm in ms.hat_matrices(d)])
    ok = worst == 0
    out.append(("consistency", "HeightRecursion", 0.0 if ok else 1.0, ok))

    mu, _ = ctx.measure("probability")
    inv = ms.verify_tail_invariance(d, mu, tol=tol)
    out.append(("consistency", "TailInvariance", max(inv.residuals),
                inv.passed))
    out.append(("consistency", "HatRowsSumToOne", float(worst), ok))

    # the extension q^(n) @ phat(n) is q^(n+1): compare level totals
    tot = ctx.system.levels.q.per_row(lambda q: q.sum(axis=-1))
    with np.errstate(over="ignore", invalid="ignore"):
        rel = np.abs(tot[1:] - tot[:-1]) / np.maximum(tot[:-1], 1e-300)
    worst = max([0.0] + rel.tolist())
    out.append(("consistency", "KolmogorovExtension", worst, worst <= tol))


_SAMPLES = 20   # random functions per level (operators) or per suite


def _operator_samples(P, Q, sp_lo, sp_hi, rng) -> tuple[list, list]:
    """A batch's random samples, by level and sample: |<f, T_P g> -
    <T_Q f, g>|, and ||T_P g|| - ||g||, ||T_Q f|| - ||f|| interleaved.
    Row s of level i of one (b, _SAMPLES, m_n + m_{n+1}) draw is sample
    s's f then g, the values of alternating per-sample draws.  The stacks
    are freed on return, before the batch's m x m products are formed, so
    they do not sit between those in the heap."""
    from . import markov as mk
    m = P.shape[-2]
    FG = rng.standard_normal((len(P), _SAMPLES, m + P.shape[-1]))
    F, G = FG[..., :m], FG[..., m:]
    PG, QF = mk.apply_TP(P, G), mk.apply_TQ(Q, F)
    adj = np.abs(sp_lo.inner(F, PG) - sp_hi.inner(QF, G))
    con = np.stack((sp_lo.norm(PG) - sp_hi.norm(G),
                    sp_hi.norm(QF) - sp_lo.norm(F)), axis=-1)
    return adj.ravel().tolist(), con.ravel().tolist()


def _suite_operators(ctx: _Context, tol: float, seed: int, out: list):
    from . import markov as mk
    d = ctx.diagram
    dev = max(ctx.system.levels.stochasticity.tolist())
    out.append(("operators", "StochasticityViolation", dev, dev <= tol))
    if dev > tol:
        return
    hk = ctx.kernels
    bal = max(mk.balance_gaps(hk).tolist())
    out.append(("operators", "DetailedBalance", bal, bal <= tol))
    if ctx.induced:
        devqf = mk.hat_vs_incidence(d, hk)
        out.append(("operators", "DualEqualsHatIncidence", devqf,
                    devqf <= tol))
    rng = np.random.default_rng(seed)
    worst_adj = worst_con = worst_fix = 0.0
    for n, P, Q in hk.batches():   # one stack of dense kernel pairs
        sp_lo, sp_hi = mk.space(hk, n, len(P)), mk.space(hk, n + 1, len(P))
        adj, con = _operator_samples(P, Q, sp_lo, sp_hi, rng)
        q_lo = sp_lo.weights[:, 0]
        # fold in level and sample order: max keeps first-wins and NaN rules
        worst_adj = max(worst_adj, *adj)
        worst_con = max(worst_con, *con)
        T = mk.compose_Tn(P, Q)
        fix = np.stack((np.abs(T.sum(axis=-1) - 1.0).max(axis=-1),
                        np.abs((q_lo[:, None] @ T)[:, 0] - q_lo).max(axis=-1),
                        mk.self_adjoint_gap(T, q_lo, d.F(n).source_pairs)),
                       axis=-1)
        worst_fix = max(worst_fix, *fix.ravel().tolist())
        del T   # so the next batch's T is not formed beside this one
    out.append(("operators", "Adjointness", worst_adj, worst_adj <= tol))
    out.append(("operators", "Contractivity", worst_con, worst_con <= tol))
    out.append(("operators", "ComposedKernelFixesQ", worst_fix,
                worst_fix <= tol))


def _suite_laplacian(ctx: _Context, tol: float, seed: int, out: list):
    from . import laplacian as lp
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
    cres = max(LevelRows.of(dc.values).per_row(
        lambda v: np.abs(v).max(axis=-1)).tolist())
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
    from . import cells as cl
    from . import laplacian as lp
    spaces, kernels = ctx.cell_kernels
    levels = _cell_duality(spaces, kernels)
    worst_dual, worst_marg, worst_sym = (
        max([0.0] + [lvl[key] for lvl in levels])
        for key in ("duality_residual", "marginal_residual", "asymmetry"))
    min_eig = min([np.inf] + [lvl["gram_min_eigenvalue"] for lvl in levels])
    out.append(("kernels", "DualityIdentity", worst_dual, worst_dual <= tol))
    out.append(("kernels", "MarginalPushforward", worst_marg,
                worst_marg <= tol))
    out.append(("kernels", "SymmetricMeasures", worst_sym, worst_sym == 0.0))
    out.append(("kernels", "GramPSD", float(min_eig),
                min_eig >= -cl.GRAM_TOL))
    net = cl.chain_network(spaces, kernels)
    F = lp.LevelFunction.of([np.random.default_rng(seed).standard_normal(s.m)
                             for s in spaces])
    er = cl.chain_energy(net, F)
    out.append(("kernels", "ChainEnergyAgreement", er.agreement,
                er.agreement <= tol))


_SUITES = {"consistency": _suite_consistency, "operators": _suite_operators,
           "laplacian": _suite_laplacian, "kernels": _suite_kernels}


def cmd_check(args) -> int:
    results: list[tuple[str, str, float, bool]] = []
    try:
        ctx = _Context(load_spec(args.spec, args.depth), strict=False)
        # --suite all runs the kernels suite only where there are kernels
        names = ([args.suite] if args.suite != "all" else
                 [n for n in _SUITES
                  if n != "kernels" or ctx.spec.kernels is not None])
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


@cache   # one parser per process: parsing leaves it unchanged
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
