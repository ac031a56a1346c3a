"""The check suites' random samples run as one batch per level.

The per-sample loops that the batched operators and Laplacian suites
replaced are kept here as references: on every input below the suites
must report residuals equal (==, not close) to theirs, because each
batched row reduces the same values in the same order.
"""
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bratteli import cli
from bratteli import diagram as dg
from bratteli import laplacian as lp
from bratteli import markov as mk
from bratteli import measures as ms
from bratteli.specfile import parse_spec

from conftest import DRUNKEN, random_system


# ---------------------------------------------------------------- references

def _inner(w, a, b) -> float:
    return float(np.sum(w * a * b))


def _norm(w, a) -> float:
    return float(np.sqrt(_inner(w, a, a)))


def reference_operators(hk, seed):
    """Adjointness and contractivity residuals, one sample at a time."""
    rng = np.random.default_rng(seed)
    worst_adj = worst_con = 0.0
    for n in range(hk.depth):
        P, Q = hk.phat[n], hk.qhat[n]
        w_lo, w_hi = hk.q[n], hk.q[n + 1]
        for _ in range(20):
            f = rng.standard_normal(len(w_lo))
            g = rng.standard_normal(len(w_hi))
            Pg, Qf = P @ g, Q @ f
            worst_adj = max(worst_adj,
                            abs(_inner(w_lo, f, Pg) - _inner(w_hi, Qf, g)))
            worst_con = max(worst_con,
                            _norm(w_lo, Pg) - _norm(w_hi, g),
                            _norm(w_hi, Qf) - _norm(w_lo, f))
    return worst_adj, worst_con


def reference_energy(net, f):
    """(direct, operator_form) of one function, level by level."""
    hk = net.kernels
    direct = oper = 0.0
    for n in range(net.depth):
        fn, fn1 = f[n], f[n + 1]
        P = hk.phat[n]
        diff = fn[:, None] - fn1[None, :]
        direct += 0.5 * float(np.sum(hk.q[n][:, None] * P * diff ** 2))
        nn = float(np.sum(hk.q[n] * fn * fn))
        cross = float(np.sum(hk.q[n] * fn * (P @ fn1)))
        nn1 = float(np.sum(hk.q[n + 1] * fn1 * fn1))
        oper += 0.5 * (nn - 2.0 * cross + nn1)
    return direct, oper


def reference_laplacian(net, seed):
    """The EnergyFormsAgree residual, one sample at a time."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        f = [rng.standard_normal(len(q)) for q in net.kernels.q]
        direct, oper = reference_energy(net, f)
        worst = max(worst, abs(direct - oper) / (1.0 + abs(direct)))
    return worst


# ---------------------------------------------------------------- inputs

def _random_context(seed):
    sysm = random_system(seed)
    hk = mk.dual_kernels(sysm)
    return SimpleNamespace(diagram=sysm.diagram, system=sysm, kernels=hk,
                           induced=False, network=lp.build_network(hk))


def _spec_context(doc):
    return cli._Context(parse_spec(doc), strict=False)


CASES = {
    **{f"random{s}": (lambda s=s: _random_context(s)) for s in range(4)},
    "fibonacci60": lambda: _spec_context(
        {"substitution": {"name": "fibonacci"}, "depth": 60}),
    "band41": lambda: _spec_context(
        {"band": {"-2": 1, "0": 2, "2": 1}, "window": [-40, 40, 2],
         "depth": 6}),
}


def _residuals(suite, ctx, seed):
    out = []
    suite(ctx, 1e-10, seed, out)
    return {name: value for (_, name, value, _) in out}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_suites_equal_per_sample_loops(case, seed):
    ctx = CASES[case]()
    ops = _residuals(cli._suite_operators, ctx, seed)
    adj, con = reference_operators(ctx.kernels, seed)
    assert ops["Adjointness"] == adj
    assert ops["Contractivity"] == con
    lap = _residuals(cli._suite_laplacian, ctx, seed)
    assert lap["EnergyFormsAgree"] == reference_laplacian(ctx.network, seed)


@pytest.mark.parametrize("case", ["random1", "fibonacci60", "band41"])
def test_energy_batch_rows_equal_single_functions(case):
    net = CASES[case]().network
    sizes = [len(q) for q in net.kernels.q]
    X = np.random.default_rng(3).standard_normal((5, sum(sizes)))
    levels = np.split(X, np.cumsum(sizes)[:-1], axis=1)
    batch = lp.energy_norm(net, lp.LevelFunction(tuple(levels)))
    assert batch.direct.shape == batch.operator_form.shape == (5,)
    for s in range(5):
        f = [lvl[s].copy() for lvl in levels]
        one = lp.energy_norm(net, lp.LevelFunction(f))
        assert type(one.direct) is float and type(one.operator_form) is float
        assert (one.direct, one.operator_form) == reference_energy(net, f)
        assert (batch.direct[s], batch.operator_form[s]) == reference_energy(
            net, f)


def test_operator_stacks_equal_rows():
    hk = mk.dual_kernels(random_system(4))
    rng = np.random.default_rng(5)
    for n in range(hk.depth):
        P, Q = hk.phat[n], hk.qhat[n]
        G = rng.standard_normal((7, P.shape[1]))
        F = rng.standard_normal((7, Q.shape[1]))
        sp = mk.space(hk, n)
        PG, QF = mk.apply_TP(P, G), mk.apply_TQ(Q, F)
        for s in range(7):
            assert np.array_equal(PG[s], P @ G[s])
            assert np.array_equal(QF[s], Q @ F[s])
            assert sp.inner(F, PG)[s] == sp.inner(F[s], PG[s])
            assert sp.norm(PG)[s] == sp.norm(PG[s])


def test_operator_rejects_wrong_width():
    hk = mk.dual_kernels(random_system(4))
    P = hk.phat[0]
    with pytest.raises(mk.DimensionMismatch):
        mk.apply_TP(P, np.zeros((3, P.shape[1] + 1)))
    with pytest.raises(mk.DimensionMismatch):
        mk.apply_TP(P, np.zeros((2, 3, P.shape[1])))


@pytest.mark.parametrize("a,b", [(2, 3), (5, 1), (41, 41)])
def test_one_draw_equals_alternating_draws(a, b):
    """standard_normal((k, a+b)) fills row by row from the same stream
    that k alternating draws of sizes a and b consume."""
    k = 20
    block = np.random.default_rng(11).standard_normal((k, a + b))
    rng = np.random.default_rng(11)
    rows = [np.concatenate((rng.standard_normal(a), rng.standard_normal(b)))
            for _ in range(k)]
    assert np.array_equal(block, np.array(rows))


# ---------------------------------------------------------------- costs

def _band_network(half_width, depth):
    d = dg.band_diagram(DRUNKEN, depth=depth,
                        window=dg.Window(-half_width, half_width, 2))
    mu, _ = ms.stationary_pf_measure(d)
    return lp.build_network(mk.dual_kernels(
        mk.markov_from_tail_invariant(d, mu)))


def _batch(net, k, seed=0):
    rng = np.random.default_rng(seed)
    return lp.LevelFunction(tuple(rng.standard_normal((k, len(q)))
                                  for q in net.kernels.q))


def test_energy_batch_scatters_each_level_once(monkeypatch):
    """20 functions in one call scatter each level once, a batch of levels
    at a time: the 7 levels of a 21-vertex band fit in one batch, one
    stack of P-hat and one of Q-hat, and with one level per batch there
    are 7 of each.  20 single calls would make 20 times as many."""
    net = _band_network(20, 7)
    calls = []   # the stack height of every scatter
    fresh, scratch = dg.IncidenceMatrix.scatter, dg.Scratch.scatter

    def counted(fn):
        def scatter(self, *args, **kwargs):
            calls.append(len(args[-1]))   # the values follow the level
            return fn(self, *args, **kwargs)
        return scatter

    monkeypatch.setattr(dg.IncidenceMatrix, "scatter", counted(fresh))
    monkeypatch.setattr(dg.Scratch, "scatter", counted(scratch))
    lp.energy_norm(net, _batch(net, 20))
    assert calls == [net.depth] * 2
    calls.clear()
    monkeypatch.setattr(mk, "BATCH_FLOATS", 1)
    lp.energy_norm(net, _batch(net, 20))
    assert calls == [1] * (2 * net.depth)


def test_energy_batch_memory_stays_one_sample_wide():
    """On a 401-vertex band a 20-function batch peaks below 6 m^2 floats:
    the direct term's m x m temporaries are built one block at a time."""
    net = _band_network(400, 3)
    m = len(net.kernels.q[0])
    assert m == 401
    f = _batch(net, 20)
    tracemalloc.start()
    try:
        lp.energy_norm(net, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * m * m * 8
