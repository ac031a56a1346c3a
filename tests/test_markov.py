"""Markov path measures and their vertex-level reductions.

    - cylinder masses are products along the path
    - q propagates forward through P-hat and back through Q-hat
    - detailed balance ties the two kernels together exactly
    - tail-invariant-induced systems reproduce the hat incidence matrix
    - T_P / T_Q are adjoint contractions between weighted l2 levels
    - the stored per-edge P-hat, the Q-hat scattered from it and the
      edge-only comparisons equal the dense definitions bit for bit
"""

import numpy as np
import pytest

from bratteli import diagram as dg
from bratteli import markov as mk
from bratteli import measures as ms

from fractions import Fraction

from conftest import (DRUNKEN, GOLDEN, allones_diagram, fib_diagram,
                      random_system, uniform_allones_system)


def fib_induced(depth=6):
    d = fib_diagram(depth)
    mu, _ = ms.stationary_pf_measure(d, "probability", tol=1e-13)
    return d, mu, mk.markov_from_tail_invariant(d, mu)


# -- validation --------------------------------------------------------------

class TestValidate:
    def test_uniform_allones_valid(self):
        mk.validate_system(uniform_allones_system(4))

    def test_q0_must_be_positive(self):
        sysm = uniform_allones_system(2)
        bad = mk.MarkovSystem(sysm.diagram, np.array([1.0, 0.0]), sysm.probs)
        with pytest.raises(mk.ZeroMeasureVertex):
            mk.validate_system(bad)

    def test_rows_must_be_stochastic(self):
        sysm = uniform_allones_system(2)
        probs = tuple(dict(p) for p in sysm.probs)
        probs[0][(0, 1)] = 0.4
        bad = mk.MarkovSystem(sysm.diagram, sysm.q0, probs)
        with pytest.raises(mk.PathInvalid):
            mk.validate_system(bad)

    def test_edge_set_must_match(self):
        sysm = uniform_allones_system(2)
        probs = tuple(dict(p) for p in sysm.probs)
        del probs[1][(0, 0)]
        with pytest.raises(mk.PathInvalid):
            mk.validate_system(
                mk.MarkovSystem(sysm.diagram, sysm.q0, probs))

    def test_rank_arity_must_match(self):
        d = dg.stationary_diagram([[2]], 2)
        probs = ({(0, 0): (0.5, 0.3, 0.2)}, {(0, 0): (0.5, 0.5)})
        with pytest.raises(mk.PathInvalid):
            mk.validate_system(mk.MarkovSystem(d, np.array([1.0]), probs))

    def test_random_systems_validate(self):
        for seed in range(5):
            mk.validate_system(random_system(seed))


# -- cylinder masses ---------------------------------------------------------

def test_empty_cylinder_is_q0():
    sysm = uniform_allones_system(3)
    p = dg.FinitePath((), start=(0, 1))
    assert mk.cylinder_mass(sysm, p) == 0.5


def test_uniform_depth2_cylinder():
    sysm = uniform_allones_system(3)
    p = dg.FinitePath(((0, 0, 1, 0), (1, 1, 0, 0)))
    assert mk.cylinder_mass(sysm, p) == 0.5 ** 3


def test_odometer_bernoulli_cylinders():
    d = dg.stationary_diagram([[2]], 5)
    probs = tuple({(0, 0): (0.5, 0.5)} for _ in range(5))
    sysm = mk.MarkovSystem(d, np.array([1.0]), probs)
    for path in dg.enumerate_cylinders(d, (5, 0)):
        assert mk.cylinder_mass(sysm, path) == 2.0 ** -5


def test_cylinder_must_start_at_level0():
    sysm = uniform_allones_system(3)
    p = dg.FinitePath(((1, 0, 0, 0),), start=(1, 0))
    with pytest.raises(mk.PathInvalid):
        mk.cylinder_mass(sysm, p)


def test_extension_sum_identity():
    """Mass of a cylinder = sum of the masses of its one-edge extensions."""
    sysm = random_system(17, depth=4)
    d = sysm.diagram
    for v in d.vertices(2):
        for p in dg.enumerate_cylinders(d, (2, v)):
            ext = 0.0
            m = d.F(2)
            for (u, mult) in m.col_entries(v):
                for r in range(mult):
                    ext += mk.cylinder_mass(
                        sysm, dg.FinitePath(p.edges + ((2, v, u, r),)))
            assert abs(ext - mk.cylinder_mass(sysm, p)) < 1e-14


# -- q propagation -----------------------------------------------------------

def test_propagate_uniform_fixed_point():
    qs = mk.propagate_q(uniform_allones_system(6))
    for q in qs:
        assert np.allclose(q, 0.5, rtol=0, atol=1e-15)


def test_propagate_point_mass_stays_stochastic():
    sysm = random_system(3, depth=4)
    m0 = len(sysm.diagram.window(0))
    q0 = np.zeros(m0)
    q0[0] = 1.0
    probed = mk.MarkovSystem(sysm.diagram, q0 + 1e-14, sysm.probs)
    for q in mk.propagate_q(probed):
        assert abs(q.sum() - 1.0) < 1e-12


def test_induced_q_equals_height_times_measure():
    d, mu, sysm = fib_induced(6)
    qs = mk.propagate_q(sysm)
    for n in range(7):
        hs = np.array(dg.heights(d, n), dtype=float)
        assert np.abs(qs[n] - hs * mu.level(n)).max() < 1e-13


# -- dual kernels ------------------------------------------------------------

def test_dual_uniform_allones():
    hk = mk.dual_kernels(uniform_allones_system(4))
    for n in range(4):
        assert np.allclose(hk.qhat[n], 0.5, rtol=0, atol=1e-15)


def test_dual_rows_stochastic():
    for seed in (0, 1):
        hk = mk.dual_kernels(random_system(seed))
        for n in range(hk.depth):
            assert np.abs(hk.qhat[n].sum(axis=1) - 1.0).max() < 1e-12


def test_detailed_balance():
    """q_v phat(v,u) = q'_u qhat(u,v), edge by edge."""
    hk = mk.dual_kernels(random_system(7))
    for n in range(hk.depth):
        lhs = hk.q[n][:, None] * hk.phat[n]
        rhs = (hk.q[n + 1][:, None] * hk.qhat[n]).T
        assert np.abs(lhs - rhs).max() < 1e-15


def test_dual_reverses_q():
    hk = mk.dual_kernels(random_system(11))
    for n in range(hk.depth):
        back = hk.q[n + 1] @ hk.qhat[n]
        assert np.abs(back - hk.q[n]).max() < 1e-13


def test_deterministic_chain_dual_is_permutation():
    d = dg.stationary_diagram([[0, 1], [1, 0]], 3)
    probs = tuple({(0, 1): 1.0, (1, 0): 1.0} for _ in range(3))
    sysm = mk.MarkovSystem(d, np.array([0.3, 0.7]), probs)
    hk = mk.dual_kernels(sysm)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    for n in range(3):
        assert np.array_equal(hk.qhat[n], swap)


def test_qhat_edges_split_uniformly():
    d = dg.stationary_diagram([[2]], 2)
    probs = tuple({(0, 0): (0.25, 0.75)} for _ in range(2))
    sysm = mk.MarkovSystem(d, np.array([1.0]), probs)
    hk = mk.dual_kernels(sysm)
    assert hk.qhat_edges(0, 0, 0) == (0.5, 0.5)


def test_zero_mass_level_detected():
    # target vertex 1 only reachable through a vanishing branch
    d = dg.stationary_diagram([[1, 1], [1, 1]], 1)
    probs = ({(0, 0): 1.0 - 1e-320, (0, 1): 1e-320,
              (1, 0): 1.0 - 1e-320, (1, 1): 1e-320},)
    sysm = mk.MarkovSystem(d, np.array([0.5, 0.5]), probs)
    with pytest.raises(mk.ZeroMass):
        mk.dual_kernels(sysm)


# -- induced systems ---------------------------------------------------------

def test_induced_allones_is_uniform():
    d = allones_diagram(5)
    mu, _ = ms.stationary_pf_measure(d, "probability")
    sysm = mk.markov_from_tail_invariant(d, mu)
    for n in range(5):
        for val in sysm.probs[n].values():
            assert abs(float(val) - 0.5) < 1e-15
    assert sysm.meta["normalized"] == ()


def test_induced_fibonacci_edge_probabilities():
    d, mu, sysm = fib_induced(5)
    t = mu.level(1) * GOLDEN   # proportional to (phi, 1) normalized
    # p on edge v -> u is t_u / (phi t_v)
    for n in range(5):
        for (v, u), val in sysm.probs[n].items():
            expect = t[u] / (GOLDEN * t[v])
            assert abs(float(val) - expect) < 1e-12


def test_induced_requires_positive_measure():
    d = allones_diagram(3)
    vecs = tuple(np.full(2, 2.0 ** -n) for n in range(4))
    vecs = vecs[:2] + (np.array([0.25, 0.0]),) + vecs[3:]
    with pytest.raises(mk.ZeroMeasureVertex):
        mk.markov_from_tail_invariant(
            d, ms.MeasureSequence(vecs, "CylinderValues"))


def test_induced_normalizes_clipped_boundary():
    from conftest import DRUNKEN
    d = dg.band_diagram(DRUNKEN, depth=3, window=dg.Window(-10, 10, 2))
    mu, _ = ms.stationary_pf_measure(d)
    sysm = mk.markov_from_tail_invariant(d, mu)
    assert len(sysm.meta["normalized"]) > 0
    mk.validate_system(sysm)   # rows sum to 1 after the fix-up


def test_dual_equals_hat_incidence_for_induced():
    d, mu, sysm = fib_induced(6)
    hk = mk.dual_kernels(sysm)
    assert mk.hat_vs_incidence(d, hk) < 1e-13


def test_hat_vs_incidence_masks_clipped_rows():
    from conftest import DRUNKEN
    d = dg.band_diagram(DRUNKEN, depth=3, window=dg.Window(-14, 14, 2))
    mu, _ = ms.stationary_pf_measure(d)
    sysm = mk.markov_from_tail_invariant(d, mu)
    hk = mk.dual_kernels(sysm)
    assert mk.hat_vs_incidence(d, hk) < 1e-12


# -- transfer operators --------------------------------------------------------

def test_TP_preserves_constants():
    hk = mk.dual_kernels(random_system(2))
    for n in range(hk.depth):
        ones = np.ones(hk.phat[n].shape[1])
        assert np.abs(mk.apply_TP(hk, n, ones) - 1.0).max() < 1e-12


def test_TP_kills_odd_mode_on_uniform():
    hk = mk.dual_kernels(uniform_allones_system(3))
    out = mk.apply_TP(hk, 0, np.array([1.0, -1.0]))
    assert np.array_equal(out, [0.0, 0.0])


def test_operators_are_contractions():
    rng = np.random.default_rng(23)
    hk = mk.dual_kernels(random_system(5))
    for n in range(hk.depth):
        lo, hi = mk.space(hk, n), mk.space(hk, n + 1)
        for _ in range(20):
            f = rng.standard_normal(len(hk.q[n + 1]))
            g = rng.standard_normal(len(hk.q[n]))
            assert lo.norm(mk.apply_TP(hk, n, f)) <= hi.norm(f) + 1e-12
            assert hi.norm(mk.apply_TQ(hk, n, g)) <= lo.norm(g) + 1e-12


def test_operators_are_adjoint():
    rng = np.random.default_rng(29)
    hk = mk.dual_kernels(random_system(9))
    worst = 0.0
    for n in range(hk.depth):
        lo, hi = mk.space(hk, n), mk.space(hk, n + 1)
        for _ in range(20):
            f = rng.standard_normal(len(hk.q[n]))
            g = rng.standard_normal(len(hk.q[n + 1]))
            lhs = lo.inner(f, mk.apply_TP(hk, n, g))
            rhs = hi.inner(mk.apply_TQ(hk, n, f), g)
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


def test_composed_kernel_uniform():
    hk = mk.dual_kernels(uniform_allones_system(3))
    assert np.allclose(mk.compose_Tn(hk, 1), 0.5, rtol=0, atol=1e-15)


def test_composed_kernel_deterministic_is_identity():
    d = dg.stationary_diagram([[0, 1], [1, 0]], 2)
    probs = tuple({(0, 1): 1.0, (1, 0): 1.0} for _ in range(2))
    hk = mk.dual_kernels(mk.MarkovSystem(d, np.array([0.4, 0.6]), probs))
    assert np.array_equal(mk.compose_Tn(hk, 0), np.eye(2))


def test_composed_kernel_fixes_q_and_is_self_adjoint():
    hk = mk.dual_kernels(random_system(13))
    rng = np.random.default_rng(31)
    for n in range(hk.depth):
        T = mk.compose_Tn(hk, n)
        assert np.abs(T.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(hk.q[n] @ T - hk.q[n]).max() < 1e-13
        sp = mk.space(hk, n)
        f = rng.standard_normal(len(hk.q[n]))
        g = rng.standard_normal(len(hk.q[n]))
        assert abs(sp.inner(f, T @ g) - sp.inner(T @ f, g)) < 1e-12


# -- stored edge form --------------------------------------------------------

def _edge_form_cases():
    clipped = dg.band_diagram(DRUNKEN, depth=4, window=dg.Window(-14, 14, 2))
    mu, _ = ms.stationary_pf_measure(clipped)
    induced = mk.markov_from_tail_invariant(clipped, mu)
    assert induced.meta["normalized"]
    # source 0: a double edge with per-rank values and a double edge with
    # one shared value; source 1: a single edge
    mixed = mk.MarkovSystem(
        dg.stationary_diagram([[2, 1], [2, 0]], 3), np.array([0.3, 0.7]),
        tuple({(0, 0): (0.25, 0.35), (0, 1): 0.2, (1, 0): 1.0}
              for _ in range(3)))
    return {"random-uneven": random_system(9, depth=4, min_m=1, max_m=7),
            "explicit-mixed": mixed,
            "clipped-band": induced}


def _phat_reference(sysm, n):
    """Dense P-hat from ``probs`` and ``entries`` alone."""
    m = sysm.diagram.F(n)
    tv, sv = m.targets, m.sources
    out = np.zeros((len(sv), len(tv)))
    for (w, v), val in sysm.probs[n].items():
        mult = m.entries[(v, w)]
        out[sv.index(w), tv.index(v)] = (mult * float(val) if np.isscalar(val)
                                         else float(sum(val)))
    return out


@pytest.mark.parametrize("name", sorted(_edge_form_cases()))
def test_phat_edges_match_probs(name):
    sysm = _edge_form_cases()[name]
    for n in range(sysm.depth):
        ref = _phat_reference(sysm, n)
        c = sysm.diagram.F(n).csr
        edges = sysm.phat_edges(n)
        assert np.array_equal(edges, ref[c.indices, c.rows])
        assert not edges.flags.writeable
        assert np.array_equal(sysm.phat(n), ref)


@pytest.mark.parametrize("name", sorted(_edge_form_cases()))
def test_dual_kernels_match_dense_formulas(name):
    sysm = _edge_form_cases()[name]
    hk = mk.dual_kernels(sysm)
    rng = np.random.default_rng(1)
    q = [np.asarray(sysm.q0, dtype=np.float64)]
    for n in range(sysm.depth):
        P = _phat_reference(sysm, n)
        q.append(q[n] @ P)
        Q = P.T * q[n][np.newaxis, :] / q[n + 1][:, np.newaxis]
        assert np.array_equal(hk.phat[n], P)
        assert np.array_equal(hk.qhat[n], Q)
        # same memory layout, so the same BLAS calls and the same rounding
        assert hk.qhat[n].flags.f_contiguous == Q.flags.f_contiguous
        f = rng.standard_normal(len(q[n]))
        assert np.array_equal(hk.qhat[n] @ f, Q @ f)
        assert np.array_equal(hk.phat[n] @ hk.qhat[n], P @ Q)
    assert all(np.array_equal(a, b) for a, b in zip(hk.q, q))
    assert all(np.array_equal(a, b) for a, b in zip(mk.propagate_q(sysm), q))


def test_edge_comparisons_match_dense_reference():
    """hat_vs_incidence and balance_gap read edges only; on a clipped band
    with masked rows they equal the dense computations exactly."""
    d = dg.band_diagram(DRUNKEN, depth=4, window=dg.Window(-14, 14, 2))
    mu, _ = ms.stationary_pf_measure(d)
    hk = mk.dual_kernels(mk.markov_from_tail_invariant(d, mu))
    worst, masked = 0.0, 0
    clean = set(d.vertices(0))
    for n in range(d.depth):
        F = d.F(n)
        tv, sv = F.targets, F.sources
        ok = {w for w, inner in zip(sv, F.interior_cols()) if inner} & clean
        clean = {v for v in tv if all(w in ok for w, _ in F.row_entries(v))}
        masked += len(tv) - len(clean)
        h_lo, h_hi = dg.heights(d, n), dg.heights(d, n + 1)
        fhat = np.zeros((len(tv), len(sv)))
        for (v, w), mult in F.entries.items():
            i, j = tv.index(v), sv.index(w)
            fhat[i, j] = float(Fraction(h_lo[j] * mult, h_hi[i]))
        rows = [tv.index(v) for v in sorted(clean)]
        if rows:
            worst = max(worst, float(np.abs(hk.qhat[n] - fhat)[rows].max()))
        lhs = hk.q[n][:, None] * hk.phat[n]
        rhs = (hk.q[n + 1][:, None] * hk.qhat[n]).T
        assert mk.balance_gap(hk, n) == float(np.abs(lhs - rhs).max())
    assert masked > 0
    assert mk.hat_vs_incidence(d, hk) == worst
