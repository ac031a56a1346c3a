"""Tail-invariant measures: exact hat matrices, invariance residuals, the
spectral construction with its three normalizations, backward solving,
ERS/ECS detection, and tower masses."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from bratteli import diagram as dg
from bratteli import measures as ms

from conftest import (DRUNKEN, GOLDEN, allones_diagram, fib_diagram,
                      random_system)

ERS_232 = [
    [[1, 1], [2, 0]],   # row sums 2
    [[2, 1], [1, 2]],   # row sums 3
    [[1, 1], [0, 2]],   # row sums 2
]


def ers_diagram():
    return dg.validate([dg.incidence_from_dense(n, m)
                        for n, m in enumerate(ERS_232)])


# -- hat matrices ------------------------------------------------------------

def test_hat_rows_sum_to_one_exactly():
    d = fib_diagram(6)
    for n in range(d.depth):
        hm = ms.hat_matrix(d, n)
        assert hm.matrix.totals(hm.num).tolist() == hm.den.tolist()
        assert hm.row_deviation() == 0


def test_hat_matrices_stream_the_levels_hat_matrix_gives():
    """One pass over the levels gives, level by level, the numerators and
    denominators that ``hat_matrix`` computes for that level alone."""
    cases = [random_system(seed, depth=5, min_m=1, max_m=8).diagram
             for seed in range(6)]
    cases += [fib_diagram(30), dg.band_diagram(DRUNKEN, 4,
                                               dg.Window(-10, 10, 2))]
    for d in cases:
        streamed = list(ms.hat_matrices(d))
        assert len(streamed) == d.depth
        for n, hm in enumerate(streamed):
            one = ms.hat_matrix(d, n)
            assert (hm.level, hm.matrix) == (n, d.F(n))
            assert hm.num.tolist() == one.num.tolist()
            assert hm.den.tolist() == one.den.tolist() == dg.heights(d, n + 1)
    for n in (-1, d.depth):
        with pytest.raises(dg.CutsOutOfRange):
            ms.hat_matrix(d, n)


def test_hat_rows_exact_on_clipped_band():
    d = dg.band_diagram(DRUNKEN, depth=3, window=dg.Window(-10, 10, 2))
    hm = ms.hat_matrix(d, 2)
    assert hm.matrix.totals(hm.num).tolist() == hm.den.tolist()
    assert hm.row_deviation() == 0


def test_hat_matrix_values_allones():
    d = allones_diagram(3)
    hm = ms.hat_matrix(d, 1)
    # H^(1) = (2,2), H^(2) = (4,4): every entry 2*1/4
    assert (hm.num.tolist(), hm.den.tolist()) == ([2, 2, 2, 2], [4, 4])
    assert np.array_equal(hm.matrix.scatter(hm.values()),
                          [[0.5, 0.5], [0.5, 0.5]])


def test_hat_values_are_rounded_fractions_past_int64():
    """Float entries equal float(Fraction) exactly and rows sum to 1 in
    integers, with heights past 2^63."""
    d = fib_diagram(100)
    assert max(dg.heights(d, 100)) > 2**63
    for n in range(d.depth):
        hm = ms.hat_matrix(d, n)
        m = d.F(n)
        tv, sv = m.targets, m.sources
        h_lo, h_hi = dg.heights(d, n), dg.heights(d, n + 1)
        exact = {(v, w): Fraction(h_lo[sv.index(w)] * k, h_hi[tv.index(v)])
                 for v, w, k in m.triplets()}
        ref = np.zeros((len(tv), len(sv)))
        for (v, w), x in exact.items():
            ref[tv.index(v), sv.index(w)] = float(x)
        assert np.array_equal(hm.matrix.scatter(hm.values()), ref)
        assert {(v, w): Fraction(a, hm.den[tv.index(v)]) for (v, w, _), a
                in zip(m.triplets(), hm.num.tolist())} == exact
        assert hm.row_deviation() == 0


def test_corrupted_hat_row_reports_exact_deviation():
    d = dg.band_diagram(DRUNKEN, depth=3, window=dg.Window(-10, 10, 2))
    hm = ms.hat_matrix(d, 2)
    m = d.F(2)
    k = 4                                    # an edge of target row 1
    v, w, _ = m.triplets()[k]
    num = hm.num.copy()
    num[k] += 3
    bad = dataclasses.replace(hm, num=num)
    h_lo, h_hi = dg.heights(d, 2), dg.heights(d, 3)
    fracs = {(t, s): Fraction(h_lo[m.sources.index(s)] * mult
                              + (3 if (t, s) == (v, w) else 0),
                              h_hi[m.targets.index(t)])
             for t, s, mult in m.triplets()}
    ref = max(abs(sum(x for (t, _), x in fracs.items() if t == u) - 1)
              for u in m.targets)
    assert ref == Fraction(3, h_hi[m.targets.index(v)])
    assert bad.row_deviation() == ref


# -- invariance --------------------------------------------------------------

def test_invariance_allones_exact():
    d = allones_diagram(6)
    mu = ms.MeasureSequence(
        tuple(np.full(2, 2.0 ** -n) for n in range(7)))
    rep = ms.verify_tail_invariance(d, mu, tol=1e-12)
    assert rep.passed
    assert max(rep.residuals) == 0.0


def test_invariance_zero_measure_flagged():
    d = allones_diagram(4)
    mu = ms.MeasureSequence(tuple(np.zeros(2) for _ in range(5)))
    rep = ms.verify_tail_invariance(d, mu)
    assert rep.zero_measure
    assert max(rep.residuals) == 0.0


def test_invariance_detects_violation():
    d = allones_diagram(3)
    vecs = [np.full(2, 2.0 ** -n) for n in range(4)]
    vecs[2] = np.array([0.3, 0.1])
    rep = ms.verify_tail_invariance(
        d, ms.MeasureSequence(tuple(vecs)))
    assert not rep.passed


def test_invariance_length_check():
    d = allones_diagram(3)
    mu = ms.MeasureSequence((np.ones(2),))
    with pytest.raises(ms.DimensionMismatch):
        ms.verify_tail_invariance(d, mu)


# -- spectral measures -------------------------------------------------------

def test_stationary_measure_allones_level0():
    d = allones_diagram(5)
    mu, rep = ms.stationary_pf_measure(d)
    assert rep.lam == 2.0
    for n in range(6):
        assert np.allclose(mu.level(n), 2.0 ** -n, rtol=0, atol=1e-15)


def test_stationary_measure_allones_probability():
    d = allones_diagram(5)
    mu, rep = ms.stationary_pf_measure(d, "probability")
    assert abs(rep.total_mass - 1.0) < 1e-15
    # every tower carries mass 1/2 at every level
    for n in range(6):
        hs = np.array(dg.heights(d, n), dtype=float)
        assert np.allclose(mu.level(n) * hs, 0.5, rtol=0, atol=1e-15)


def test_stationary_measure_fibonacci():
    d = fib_diagram(8)
    mu, rep = ms.stationary_pf_measure(d, "anchored", tol=1e-12)
    assert abs(rep.lam - GOLDEN) < 1e-9
    # anchored right vector is (phi, 1); its sum is phi + 1 = phi^2
    assert abs(rep.t_sum - (GOLDEN + 1.0)) < 1e-9
    for n in range(8):
        assert np.allclose(mu.level(n + 1) * rep.lam, mu.level(n), rtol=1e-12)
    inv = ms.verify_tail_invariance(d, mu, tol=1e-12)
    assert inv.passed


def test_stationary_measure_drunken_sum_diverges_with_window():
    sums = []
    for half in (20, 40):
        d = dg.band_diagram(DRUNKEN, depth=2,
                            window=dg.Window(-2 * half, 2 * half, 2))
        _, rep = ms.stationary_pf_measure(d, "anchored")
        sums.append(rep.t_sum)
    # constant right eigenvector: the raw sum grows linearly in the window
    assert sums[1] / sums[0] > 1.9


def test_stationary_measure_needs_stationary():
    with pytest.raises(ms.PFFailed):
        ms.stationary_pf_measure(ers_diagram())


def test_unknown_normalization():
    with pytest.raises(ValueError):
        ms.stationary_pf_measure(allones_diagram(2), "bogus")


# -- backward solving --------------------------------------------------------

def test_solve_tail_invariant_recovers_dyadic():
    d = allones_diagram(6)
    mu = ms.solve_tail_invariant(d, anchor=np.full(2, 2.0 ** -6))
    for n in range(7):
        assert np.array_equal(mu.level(n), np.full(2, 2.0 ** -n))


def test_solve_tail_invariant_depth_zero_anchor_unchanged():
    d = dg.validate([dg.incidence_from_dense(0, [[1, 1], [1, 1]])])
    anchor = np.array([0.3, 0.7])
    mu = ms.solve_tail_invariant(d, anchor=anchor)
    assert np.array_equal(mu.level(d.depth), anchor)


def test_solve_tail_invariant_ecs_constants():
    # column sums 2 everywhere: constants propagate backward
    d = dg.stationary_diagram([[1, 2], [1, 0]], 3)
    mu = ms.solve_tail_invariant(d, anchor=np.full(2, 2.0 ** -3))
    for n in range(4):
        assert np.allclose(mu.level(n), 2.0 ** -n, rtol=0, atol=0)


def test_solve_tail_invariant_passes_verifier():
    d = ers_diagram()
    mu = ms.solve_tail_invariant(d)
    rep = ms.verify_tail_invariance(d, mu, tol=1e-13)
    assert rep.passed


def test_solve_tail_invariant_rejects_negative_anchor():
    d = allones_diagram(2)
    with pytest.raises(ValueError):
        ms.solve_tail_invariant(d, anchor=np.array([1.0, -0.5]))


# -- ERS / ECS ---------------------------------------------------------------

def test_classify_allones_both():
    c = ms.ers_ecs_classify(allones_diagram(4))
    assert c.kind == "both"
    assert c.row_sums == (2, 2, 2, 2)
    assert c.col_sums == (2, 2, 2, 2)


def test_classify_fibonacci_neither():
    assert ms.ers_ecs_classify(fib_diagram(3)).kind == "neither"


def test_classify_drunken_both_four():
    d = dg.band_diagram(DRUNKEN, depth=2, window=dg.Window(-12, 12, 2))
    c = ms.ers_ecs_classify(d)
    assert c.kind == "both"
    assert c.row_sums == (4, 4)


def test_classify_ers_level_sums():
    c = ms.ers_ecs_classify(ers_diagram())
    assert c.kind == "ERS"
    assert c.row_sums == (2, 3, 2)
    assert c.ers_level_sums == (
        Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 12))


# -- tower masses ------------------------------------------------------------
# The tower masses s^(n) = mu^(n) H^(n) satisfy s^(n+1) Fhat_n = s^(n):
# that is tail invariance multiplied through by H^(n), which
# verify_tail_invariance checks.  Their level sums are the total mass.

def _tower_masses(d, mu):
    return [mu.level(n) * h.astype(np.float64)
            for n, h in enumerate(dg.all_heights(d))]


def test_tower_masses_allones_probability():
    d = allones_diagram(6)
    mu, _ = ms.stationary_pf_measure(d, "probability")
    rep = ms.verify_tail_invariance(d, mu)
    assert rep.passed and max(rep.residuals) < 1e-15
    for s in _tower_masses(d, mu):
        assert np.allclose(s, 0.5, rtol=0, atol=1e-15)


def test_tower_masses_level0_equals_mu():
    d = fib_diagram(4)
    mu, _ = ms.stationary_pf_measure(d)
    assert ms.verify_tail_invariance(d, mu).passed
    assert np.array_equal(_tower_masses(d, mu)[0], mu.level(0))


def test_tower_masses_fibonacci_sums_constant():
    d = fib_diagram(8)
    mu, _ = ms.stationary_pf_measure(d, "probability", tol=1e-12)
    assert ms.verify_tail_invariance(d, mu, tol=1e-12).passed
    sums = np.array([s.sum() for s in _tower_masses(d, mu)])
    assert np.abs(sums - 1.0).max() < 1e-12
