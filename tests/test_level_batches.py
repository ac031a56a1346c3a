"""Level batches: the operators and Laplacian loops read the dense kernels
a stack of levels at a time (``markov.HatKernels.batches``).

A stack gives every level the bits it has alone: each slice of a stacked
scatter is the level's own scatter, and matmul on a stack makes, slice by
slice, the call the 2-D product makes.  So the printed output does not
depend on how the levels are batched, which the commands below check by
running once with one level per batch and once at the default budget.
"""
import contextlib
import dataclasses
import io
import json
import pathlib

import numpy as np
import pytest

from bratteli import cli
from bratteli import diagram as dg
from bratteli import markov as mk
from bratteli import measures as ms
from bratteli import specfile as sf

from conftest import random_system

SPECS = pathlib.Path(__file__).resolve().parent.parent / "examples_specs"

_TRIPLETS = {"triplets": [[0, 0, 0, 2], [0, 0, 1, 1], [0, 1, 0, 1],
                          [0, 1, 1, 1], [1, 0, 0, 1], [1, 1, 0, 1],
                          [1, 1, 1, 2], [1, 2, 1, 1], [1, 2, 0, 1],
                          [2, 0, 0, 1], [2, 0, 1, 1], [2, 0, 2, 1],
                          [2, 1, 2, 3], [3, 0, 0, 2], [3, 1, 1, 1],
                          [3, 0, 1, 1]],
             "windows": [[0, 1], [0, 1], [0, 2], [0, 1], [0, 1]]}

_CASES = {
    "fibonacci-60": (SPECS / "fibonacci.json", ["--depth", "60"]),
    "allones": (SPECS / "allones.json", []),
    # 101^2 floats per level: batches of 6 split the 12 levels
    "band-101": ({"band": {"-2": 1, "0": 2, "2": 1},
                  "window": [-100, 100, 2], "depth": 12}, []),
    "triplets": (_TRIPLETS, []),
    "explicit-markov": (SPECS / "explicit_markov.json", []),
}


def _outputs(path, extra):
    out = []
    for argv in (["check", path, "--format", "json"],
                 ["analyze", path, "laplacian"],
                 ["analyze", path, "energy"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv + extra)
        out.append((rc, buf.getvalue()))
    return out


@pytest.mark.parametrize("name", sorted(_CASES))
def test_outputs_do_not_depend_on_the_batching(tmp_path, monkeypatch, name):
    spec, extra = _CASES[name]
    if isinstance(spec, dict):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        spec = path
    batched = _outputs(str(spec), extra)
    assert [rc for rc, _ in batched] == [0, 0, 0]
    monkeypatch.setattr(mk, "BATCH_FLOATS", 1)
    assert _outputs(str(spec), extra) == batched


def test_batches_split_runs_by_record_and_budget(monkeypatch):
    band = dg.band_diagram({-2: 1, 0: 2, 2: 1}, 12, dg.Window(-100, 100, 2))
    assert list(mk.level_batches(band)) == [(0, 6), (6, 12)]
    monkeypatch.setattr(mk, "BATCH_FLOATS", 1)
    assert list(mk.level_batches(band)) == [(n, n + 1) for n in range(12)]
    # one record per level: no two levels share a batch
    d = random_system(0, depth=5).diagram
    assert list(mk.level_batches(d)) == [(n, n + 1) for n in range(5)]


def test_equal_triplet_levels_are_the_matrix_they_repeat():
    """triplets.json lists allones.json's level six times: validate stores
    it as one record, which forms one batch, and every command that visits
    the levels prints the matrix spec's bytes."""
    d = sf.load_spec(str(SPECS / "triplets.json")).diagram
    assert d.stationary and len(d.levels) == 1
    assert list(mk.level_batches(d)) == [(0, d.depth)]

    def outputs(spec):
        out = []
        for argv in (["validate"], ["check", "--format", "json"],
                     ["analyze", "measure"], ["analyze", "markov"],
                     ["analyze", "laplacian"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main([argv[0], str(SPECS / spec), *argv[1:]])
            out.append((rc, buf.getvalue()))
        return out

    assert outputs("triplets.json") == outputs("allones.json")


def _stationary_kernels(seed):
    """The dual kernels of the induced system on a stationary 7-vertex
    band, with random, unequal edge values and masses per level."""
    d = dg.band_diagram({-2: 1, 0: 2, 2: 1}, 9, dg.Window(-6, 6, 2))
    mu, _ = ms.stationary_pf_measure(d)
    hk = mk.dual_kernels(mk.markov_from_tail_invariant(d, mu))
    rng = np.random.default_rng(seed)
    E = len(d.F(0).csr.rows)
    q = tuple(rng.uniform(0.5, 2.0, 7) for _ in range(10))
    p = tuple(rng.uniform(0.1, 1.0, E) for _ in range(9))
    qv = tuple(rng.uniform(0.1, 1.0, E) for _ in range(9))
    return dataclasses.replace(hk, q=q, phat_values=p, qhat_values=qv)


@pytest.mark.parametrize("seed", range(4))
def test_stacks_equal_their_levels_bit_for_bit(seed, monkeypatch):
    """Every slice of a stacked scatter is its level's own scatter, with
    its strides, and compose_Tn, apply_TP and apply_TQ on a stack give
    each level's own product bit for bit; batches of 4 make the last
    batch shorter than the others."""
    hk = _stationary_kernels(seed)
    F = hk.diagram.F(0)
    monkeypatch.setattr(mk, "BATCH_FLOATS", 4 * 7 * 7)
    rng = np.random.default_rng(100 + seed)
    seen = []
    for n, P, Q in hk.batches():
        b = len(P)
        seen += range(n, n + b)
        G = rng.standard_normal((b, 20, 7))
        T, PG, QG = mk.compose_Tn(P, Q), mk.apply_TP(P, G), mk.apply_TQ(Q, G)
        PV = mk.apply_TP(P, G[:, 0])
        for i in range(b):
            Pn, Qn = hk.phat[n + i], hk.qhat[n + i]
            for got, want in ((P[i], Pn), (Q[i], Qn)):
                assert got.strides == want.strides
                assert got.tobytes(order="A") == want.tobytes(order="A")
            assert P[i].tobytes() == F.scatter(hk.phat_values[n + i],
                                               by_source=True).tobytes()
            assert T[i].tobytes() == (Pn @ Qn).tobytes()
            assert PG[i].tobytes() == mk.apply_TP(Pn, G[i]).tobytes()
            assert QG[i].tobytes() == mk.apply_TQ(Qn, G[i]).tobytes()
            assert PV[i].tobytes() == (Pn @ G[i, 0]).tobytes()
    assert seen == list(range(hk.depth))
    assert [len(P) for _, P, _ in hk.batches()] == [4, 4, 1]


def test_stacked_scratch_reuses_and_clears_its_buffer():
    """A Scratch takes a (b, edges) stack: each slice equals the level's
    fresh scatter, also after a taller or a differently laid out call
    wrote other entries into the same buffer."""
    F = dg.band_diagram({-2: 1, 0: 2, 2: 1}, 1, dg.Window(-8, 8, 2)).F(0)
    rng = np.random.default_rng(0)
    scratch = dg.Scratch()
    for b, by_source in ((3, True), (3, True), (1, True), (2, False),
                         (3, True), (1, False)):
        vals = rng.standard_normal((b, len(F.csr.rows)))
        got = scratch.scatter(F, vals, by_source=by_source)
        assert got.shape == (b, 9, 9) and not got.flags.writeable
        assert got.tobytes() == F.scatter(vals, by_source).tobytes()
        for i in range(b):
            assert got[i].tobytes() == F.scatter(vals[i], by_source).tobytes()


def test_stack_product_checks_the_level_axis():
    hk = _stationary_kernels(0)
    _, P, _ = next(hk.batches())
    with pytest.raises(mk.DimensionMismatch, match="got shape"):
        mk.apply_TP(P, np.ones((len(P) + 1, 7)))
    _, P, Q = next(hk.batches())
    with pytest.raises(mk.DimensionMismatch, match="dual kernel"):
        mk.compose_Tn(P, Q[:-1])


def _folded_systems():
    """name -> a builder of a fresh system (its sweep is cached), so each
    batching sweeps anew: random systems with per-rank values, the
    clipped band, an explicit spec with per-rank values and the
    non-stationary example."""
    def band():
        d = dg.band_diagram({-2: 1, 0: 2, 2: 1}, 8, dg.Window(-30, 30, 2))
        mu, _ = ms.stationary_pf_measure(d, normalization="probability")
        return mk.markov_from_tail_invariant(d, mu)

    def spec(name):
        return lambda: cli._Context(sf.load_spec(str(SPECS / name)),
                                    strict=True).system

    cases = {f"random-{seed}": (lambda s=seed: random_system(s))
             for seed in range(10)}
    cases.update({"clipped-band": band,
                  "explicit-markov": spec("explicit_markov.json"),
                  "nonstationary": spec("nonstationary.json")})
    return cases


@pytest.mark.parametrize("name", sorted(_folded_systems()))
def test_sweep_qhat_is_the_elementwise_dual_bit_for_bit(name, monkeypatch):
    """The sweep's Q-hat on every level is p * q^(n)_v / q^(n+1)_u of its
    own P-hat edge values and masses, bit for bit, at the default budget
    and with one level per batch."""
    build = _folded_systems()[name]
    seen = []
    for floats in (mk.BATCH_FLOATS, 1):
        monkeypatch.setattr(mk, "BATCH_FLOATS", floats)
        hk = build().levels
        for n, p in enumerate(hk.phat_values):
            c = hk.diagram.F(n).csr
            want = p * hk.q[n][c.indices] / hk.q[n + 1][c.rows]
            assert np.array_equal(hk.qhat_values[n].view(np.uint64),
                                  want.view(np.uint64)), n
        seen.append([v.tobytes() for v in hk.qhat_values])
    assert seen[0] == seen[1]
