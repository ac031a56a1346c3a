"""The batched level loops against the per-level loops they replaced.

Every per-level quantity of ``check`` and ``analyze`` is computed a batch
of levels (``markov.level_batches``) at a time, on 2-D ``LevelRows``
slices.  The loop forms below are the definitions they replaced, one level
at a time on 1-D arrays, kept as references.  On Fibonacci at depth 200,
allones at depth 100, the clipped band [-20, 20, 2], the 101-vertex band
at depth 20 (6 levels per batch, so a batch ends mid-depth), the
nonstationary example and seeded random explicit systems, both must give
the same bits, the same ``normalized`` rows in the same order, and the
same first level and vertex in ZeroMeasureVertex and ZeroMass.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bratteli import diagram as dg
from bratteli import laplacian as lp
from bratteli import markov as mk
from bratteli import measures as ms
from bratteli import cli
from bratteli.specfile import parse_spec

from conftest import random_system

SPECS = Path(__file__).resolve().parent.parent / "examples_specs"


# -- reference loop forms -----------------------------------------------------

def ref_measure(d, lam, t):
    return [t * lam ** (1 - n) for n in range(d.depth + 1)]


def ref_markov_from_tail_invariant(d, vecs):
    """(p per level, normalized) or the ZeroMeasureVertex it raises."""
    for n in range(d.depth + 1):
        if (vecs[n] <= 0).any():
            return mk.ZeroMeasureVertex(
                n, int(d.vertices(n)[int(np.argmin(vecs[n]))]))
    ps, normalized = [], []
    for n in range(d.depth):
        m = d.F(n)
        c = m.csr
        p = vecs[n + 1][c.rows] / vecs[n][c.indices]
        sums = np.zeros(len(c.colptr) - 1)
        np.add.at(sums, c.indices, np.asarray(c.mult * p, dtype=np.float64))
        clipped = np.abs(sums - 1.0) > mk.CLIP_TOL
        ps.append(p / np.where(clipped, sums, 1.0)[c.indices])
        normalized.extend((n, m.sources[j]) for j in np.flatnonzero(clipped))
    return ps, normalized


def ref_verify_tail_invariance(d, vecs):
    zero = all(float(np.abs(v).sum()) == 0.0 for v in vecs)
    residuals = []
    for n in range(d.depth):
        F = d.F(n)
        A = F.to_dense().T
        mask = F.interior_cols
        diff = A @ vecs[n + 1] - vecs[n]
        num = float(np.abs(diff[mask]).sum())
        den = max(float(np.abs(vecs[n][mask]).sum()), 1e-300)
        residuals.append(num / den if not zero else 0.0)
    return residuals, zero


def ref_sweep(sysm):
    """(q, P-hat, Q-hat, stochasticity) per level, each level on its own."""
    q, phat, qhat, devs = [np.asarray(sysm.q0, dtype=np.float64)], [], [], []
    for n in range(sysm.depth):
        F = sysm.diagram.F(n)
        c = F.csr
        edges = mk._phat(c.mult, sysm.p_values[n], sysm.p_ranks[n])
        P = F.scatter(edges, by_source=True)
        devs.append(float(np.abs(P.sum(axis=1) - 1.0).max()))
        q.append(q[-1] @ P)
        with np.errstate(divide="ignore", invalid="ignore"):
            qhat.append(edges * q[n][c.indices] / q[n + 1][c.rows])
        phat.append(edges)
    return q, phat, qhat, devs


def ref_zero_mass(d, q):
    for n in range(1, d.depth + 1):
        if (q[n] < mk.Q_FLOOR).any():
            return n, int(d.vertices(n)[q[n].argmin()])
    return None


def ref_balance_gaps(hk):
    out = []
    for n in range(hk.depth):
        c = hk.diagram.F(n).csr
        out.append(float(np.abs(hk.q[n][c.indices] * hk.phat_values[n]
                                - hk.q[n + 1][c.rows]
                                * hk.qhat_values[n]).max()))
    return out


def ref_hat_vs_incidence(d, hk):
    worst = 0.0
    clean = np.ones(len(d.vertices(0)), dtype=bool)
    for n, fhat in enumerate(ms.hat_matrices(d)):
        F = fhat.matrix
        c = F.csr
        mask = np.logical_and.reduceat((clean & F.interior_cols)[c.indices],
                                       c.indptr[:-1])
        if not mask.any():
            break
        diff = np.abs(hk.qhat_values[n] - fhat.values())
        worst = max(worst, float(diff[mask[c.rows]].max()))
        clean = mask
    return worst


def ref_row_deviation(d):
    return max([Fraction(0)] + [hm.row_deviation()
                                for hm in ms.hat_matrices(d)])


def ref_kolmogorov(q):
    tot = [v.sum() for v in q]
    return max([0.0] + [float(np.abs(b - a) / max(a, 1e-300))
                        for a, b in zip(tot, tot[1:])])


def ref_vertex_mass(hk):
    """The masses and the deviation of ``build_network``, level by level."""
    d, N = hk.diagram, hk.depth
    masses = [np.zeros(len(v)) for v in hk.q]
    for n in range(N):
        F = d.F(n)
        c = F.csr
        up = 0.5 * hk.q[n][c.indices] * hk.phat_values[n]
        dense = F.scatter(up, by_source=True)
        masses[n] += dense.sum(axis=-1)
        masses[n + 1] += dense.sum(axis=-2)
    devs = [float(np.abs(masses[n] - hk.q[n]).max()
                  / max(float(hk.q[n].max()), 1e-300)) for n in range(N)]
    return masses, max([0.0] + devs[1:])


def ref_harmonic_checks(hk, f):
    """The residual and maximum principle of ``solve_harmonic``."""
    N = hk.depth
    res = [float(np.abs(2.0 * f[n] - hk.phat[n] @ f[n + 1]
                        - hk.qhat[n - 1] @ f[n - 1]).max())
           for n in range(1, N)]
    lo = min(float(f[0].min()), float(f[N].min()))
    hi = max(float(f[0].max()), float(f[N].max()))
    ok = all(float(v.min()) >= lo - 1e-12 and float(v.max()) <= hi + 1e-12
             for v in f[1:N])
    return max(res), ok


# -- the systems ----------------------------------------------------------------

BAND = {"band": {"-2": 1, "0": 2, "2": 1}}
CASES = {
    "fibonacci-200": ("fibonacci.json", 200),
    "allones-100": ("allones.json", 100),
    "band-clipped": ({**BAND, "window": [-20, 20, 2], "depth": 12}, None),
    "band-101": ({**BAND, "window": [-100, 100, 2], "depth": 20}, None),
    "nonstationary": ("nonstationary.json", None),
}


def _context(name):
    """A check command's analysis context on the case's spec."""
    doc, depth = CASES[name]
    if isinstance(doc, str):
        doc = json.loads((SPECS / doc).read_text())
    return cli._Context(parse_spec(doc, depth), strict=False)


def _bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_rows(rows, ref):
    return len(rows) == len(ref) and all(map(_bits, rows, ref))


# -- the comparisons ------------------------------------------------------------

def test_the_101_vertex_band_ends_a_batch_mid_depth():
    batches = list(mk.level_batches(_context("band-101").diagram))
    assert batches[0] == (0, 6) and len(batches) == 4


@pytest.mark.parametrize("name", sorted(CASES))
def test_measure_induced_system_and_consistency_suite(name):
    ctx = _context(name)
    d = ctx.diagram
    mu = ctx.measure("probability")[0]
    if d.stationary:
        sd = ms.perron.pf_solve(d.F(0))
        t = sd.right / (sd.lam * float(sd.right.sum()))
        assert _same_rows(mu.vectors, ref_measure(d, sd.lam, t))
    vecs = [np.array(v) for v in mu.vectors]
    got = ms.verify_tail_invariance(d, mu)
    ref, zero = ref_verify_tail_invariance(d, vecs)
    assert _bits(got.residuals, ref) and got.zero_measure == zero
    # a measure off by random factors, whose residuals depend on the order
    # each level's sums add in
    rng = np.random.default_rng(len(name))
    noisy = [v * rng.uniform(0.5, 1.5, len(v)) for v in vecs]
    got = ms.verify_tail_invariance(d, ms.MeasureSequence(noisy))
    assert _bits(got.residuals, ref_verify_tail_invariance(d, noisy)[0])
    ps, normalized = ref_markov_from_tail_invariant(d, vecs)
    assert _same_rows(ctx.system.p_values, ps)
    assert list(ctx.system.normalized) == normalized
    assert all(type(v) is int for row in normalized for v in row)
    assert name.startswith("band") == bool(normalized)
    out = []
    cli._suite_consistency(ctx, 1e-10, 0, out)
    q = ref_sweep(ctx.system)[0]
    assert [row[1:3] for row in out] == [
        ("HeightRecursion", 0.0), ("TailInvariance", max(ref)),
        ("HatRowsSumToOne", float(ref_row_deviation(d))),
        ("KolmogorovExtension", ref_kolmogorov(q))]


def _systems():
    out = {name: (lambda n=name: _context(n).system) for name in CASES}
    for seed in range(3):
        out[f"random-{seed}"] = lambda s=seed: random_system(s, depth=7)
    return out


@pytest.mark.parametrize("name", sorted(_systems()))
def test_sweep_checks_and_network(name):
    sysm = _systems()[name]()
    d = sysm.diagram
    hk = mk.dual_kernels(sysm)
    q, phat, qhat, devs = ref_sweep(sysm)
    assert _same_rows(hk.q, q)
    assert _same_rows(hk.phat_values, phat)
    assert _same_rows(hk.qhat_values, qhat)
    assert _bits(hk.stochasticity, devs)
    assert _bits(mk.balance_gaps(hk), ref_balance_gaps(hk))
    assert mk.hat_vs_incidence(d, hk) == ref_hat_vs_incidence(d, hk)
    net = lp.build_network(hk)
    masses, dev = ref_vertex_mass(hk)
    assert _same_rows(net.vertex_mass, masses)
    assert net.mass_vs_q_dev == dev
    if d.depth >= 2:
        sol = lp.solve_harmonic(net, 0.0, 1.0)
        f = [np.array(v) for v in sol.f.values]
        assert (sol.residual, sol.max_principle_ok) == ref_harmonic_checks(
            hk, f)


@pytest.mark.parametrize("name", sorted(CASES))
def test_operators_suite_edge_checks(name):
    ctx = _context(name)
    out = []
    cli._suite_operators(ctx, 1e-10, 0, out)
    found = {row[1]: row[2] for row in out}
    assert found["StochasticityViolation"] == max(ref_sweep(ctx.system)[3])
    assert found["DetailedBalance"] == max(ref_balance_gaps(ctx.kernels))
    assert found["DualEqualsHatIncidence"] == ref_hat_vs_incidence(
        ctx.diagram, ctx.kernels)


@pytest.mark.parametrize("name", sorted(CASES))
def test_zero_measure_vertex_names_the_first_level(name):
    ctx = _context(name)
    d, mu = ctx.diagram, ctx.measure("probability")[0]
    vecs = [np.array(v) for v in mu.vectors]
    last = d.depth
    vecs[last][-1] = 0.0
    vecs[last // 2][len(vecs[last // 2]) // 2] = -1.0
    vecs[last // 2][0] = 0.0
    want = ref_markov_from_tail_invariant(d, vecs)
    with pytest.raises(mk.ZeroMeasureVertex) as exc:
        mk.markov_from_tail_invariant(d, ms.MeasureSequence(vecs))
    assert (exc.value.level, exc.value.vertex) == (want.level, want.vertex)
    assert str(exc.value) == str(want)


@pytest.mark.parametrize("name", sorted(_systems()))
def test_zero_mass_names_the_first_level(name):
    sysm = _systems()[name]()
    d = sysm.diagram
    q = [np.array(v) for v in sysm.levels.q]
    assert ref_zero_mass(d, q) is None
    q[0][0] = 0.0   # level 0 is not scanned
    q[d.depth][-1] = 1e-301
    q[max(1, d.depth // 3)][len(q[max(1, d.depth // 3)]) // 2] = 0.0
    broken = dataclasses.replace(sysm)
    broken.__dict__["levels"] = dataclasses.replace(sysm.levels, q=q)
    with pytest.raises(mk.ZeroMass) as exc:
        mk.dual_kernels(broken)
    assert (exc.value.level, exc.value.vertex) == ref_zero_mass(d, q)


def test_level_rows_read_as_the_sequence_they_store():
    rows = [np.arange(3.0), np.arange(3) + 1, np.arange(2.0), -np.ones(2)]
    lr = dg.LevelRows.of(rows)
    assert [b.shape for b in lr.blocks] == [(2, 3), (2, 2)]
    assert all(b.dtype == np.float64 for b in lr.blocks)
    assert len(lr) == 4 and _same_rows(list(lr), rows)
    for n in range(-4, 4):
        assert _bits(lr[n], rows[n]) and not lr[n].flags.writeable
    assert lr[1].base is lr.blocks[0] or lr[1].base is lr.blocks[0].base
    assert _bits(lr[2:4], np.stack(rows[2:4]))
    assert lr[4:].shape == (0, 2) and dg.LevelRows.of(lr) is lr
    for bad in (np.s_[1:3], np.s_[::2], np.s_[4]):
        with pytest.raises(IndexError):
            lr[bad]
    assert _bits(lr.per_row(lambda b: b.sum(axis=-1)), [3.0, 6.0, 1.0, -2.0])


def test_a_measure_of_mixed_dtypes_reads_as_float64():
    """Integer and float level vectors of one shape are one float64 run,
    so a batch of a stationary diagram is still one slice."""
    d = parse_spec(json.loads((SPECS / "fibonacci.json").read_text()),
                   2).diagram
    vecs = (np.ones(2), np.array([1, 1]), np.ones(2))
    mixed = ms.MeasureSequence(vecs)
    assert len(mixed.vectors.blocks) == 1
    floats = ms.MeasureSequence([np.asarray(v, dtype=np.float64)
                                 for v in vecs])
    got = ms.verify_tail_invariance(d, mixed)
    assert _bits(got.residuals, ref_verify_tail_invariance(d, vecs)[0])
    assert got == ms.verify_tail_invariance(d, floats)
    assert _same_rows(mk.markov_from_tail_invariant(d, mixed).p_values,
                      mk.markov_from_tail_invariant(d, floats).p_values)


def test_hat_vs_incidence_reads_heights_only_while_a_target_is_clean(
        monkeypatch):
    doc = {**BAND, "window": [-20, 20, 2], "depth": 40}
    d = parse_spec(doc, None).diagram
    hk = mk.dual_kernels(mk.markov_from_tail_invariant(
        d, ms.stationary_pf_measure(d, normalization="probability")[0]))
    read = []

    def counted(d):
        for hm in ms.hat_matrices(d):
            read.append(hm.level)
            yield hm
    monkeypatch.setattr(mk, "hat_matrices", counted)
    assert mk.hat_vs_incidence(d, hk) == ref_hat_vs_incidence(d, hk)
    assert 0 < len(read) < d.depth
