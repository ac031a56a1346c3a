"""Markov path measures and their vertex-level reductions.

    - cylinder masses are products along the path
    - q propagates forward through P-hat and back through Q-hat
    - detailed balance ties the two kernels together exactly
    - tail-invariant-induced systems reproduce the hat incidence matrix
    - T_P / T_Q are adjoint contractions between weighted l2 levels
    - the stored per-edge P-hat, the Q-hat scattered from it and the
      edge-only comparisons equal the dense definitions bit for bit
"""

import dataclasses
import warnings

import numpy as np
import pytest

from bratteli import diagram as dg
from bratteli import markov as mk
from bratteli import measures as ms

from fractions import Fraction

from conftest import (DRUNKEN, GOLDEN, allones_diagram, fib_diagram,
                      random_probs, random_system, uniform_allones_system)


def fib_induced(depth=6):
    d = fib_diagram(depth)
    mu, _ = ms.stationary_pf_measure(d, "probability", tol=1e-13)
    return d, mu, mk.markov_from_tail_invariant(d, mu)


# -- validation --------------------------------------------------------------

def _uniform_probs(depth):
    """One {(source, target): 1/2} mapping per level of the all-ones 2x2."""
    return [{(w, v): 0.5 for w in (0, 1) for v in (0, 1)}
            for _ in range(depth)]


class TestValidate:
    def test_uniform_allones_valid(self):
        sysm = mk.explicit_system(allones_diagram(4), [0.5, 0.5],
                                  _uniform_probs(4))
        assert all(r is None for r in sysm.p_ranks)
        assert all(p.tolist() == [0.5] * 4 for p in sysm.p_values)

    def test_q0_must_be_positive(self):
        with pytest.raises(mk.ZeroMeasureVertex):
            mk.explicit_system(allones_diagram(2), [1.0, 0.0],
                               _uniform_probs(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_q0_must_be_finite(self, value):
        with pytest.raises(mk.PathInvalid, match="non-finite q0"):
            mk.explicit_system(allones_diagram(2), [value, 0.5],
                               _uniform_probs(2))

    @pytest.mark.parametrize("value", [np.nan, (np.nan,)])
    def test_probabilities_must_be_finite(self, value):
        probs = _uniform_probs(2)
        probs[1][(0, 1)] = value
        with pytest.raises(mk.PathInvalid, match="non-finite probability"):
            mk.explicit_system(allones_diagram(2), [0.5, 0.5], probs)

    def test_rows_must_be_stochastic(self):
        probs = _uniform_probs(2)
        probs[0][(0, 1)] = 0.4
        with pytest.raises(mk.PathInvalid, match="sum to 0.9, not 1"):
            mk.explicit_system(allones_diagram(2), [0.5, 0.5], probs)
        # a tolerance of inf admits the row; the level sweep reports it
        sysm = mk.explicit_system(allones_diagram(2), [0.5, 0.5], probs,
                                  tol=np.inf)
        assert sysm.levels.stochasticity[0] == pytest.approx(0.1)

    def test_edge_set_must_match(self):
        probs = _uniform_probs(2)
        del probs[1][(0, 0)]
        with pytest.raises(mk.PathInvalid, match="keyed off the edge set"):
            mk.explicit_system(allones_diagram(2), [0.5, 0.5], probs)

    def test_rank_arity_must_match(self):
        d = dg.stationary_diagram([[2]], 2)
        probs = ({(0, 0): (0.5, 0.3, 0.2)}, {(0, 0): (0.5, 0.5)})
        with pytest.raises(mk.PathInvalid, match="3 values for 2 edges"):
            mk.explicit_system(d, [1.0], probs)

    def test_random_systems_validate(self):
        for seed in range(5):
            sysm = random_system(seed)
            assert len(sysm.p_values) == len(sysm.p_ranks) == sysm.depth

    @pytest.mark.parametrize("q0, levels, edits, kind, match", [
        ([0.0], 2, [(0, (0, 0), 0.4)], ms.DimensionMismatch,
         "q0 does not match"),
        ([np.nan, 0.0], 2, [], mk.PathInvalid, "non-finite q0"),
        ([0.0, 1.0], 1, [], mk.ZeroMeasureVertex, "level 0 vertex 0"),
        ([0.5, 0.5], 1, [(0, (0, 0), 0.4)], ms.DimensionMismatch,
         "1 probability levels for depth 2"),
        ([0.5, 0.5], 2, [(0, (0, 0), 0.4), (1, (0, 0), None)],
         mk.PathInvalid, "level 0 vertex 0 sum to 0.9"),
        ([0.5, 0.5], 2, [(0, (1, 1), 0.0), (0, (0, 0), None)],
         mk.PathInvalid, "level 0 probabilities keyed off"),
        ([0.5, 0.5], 2, [(0, (1, 1), 0.0), (0, (1, 0), (0.5, 0.5))],
         mk.PathInvalid, r"nonpositive .* edge \(1->1\)"),
        ([0.5, 0.5], 2, [(0, (1, 0), (0.5, 0.5)), (0, (1, 1), 0.0)],
         mk.PathInvalid, r"edge \(1->0\) at level 0 has 2 values"),
    ])
    def test_first_fault_is_reported(self, q0, levels, edits, kind, match):
        """With several faults, the one named is the first of: q0 length,
        finiteness, positivity, level count; then per level the edge set,
        each entry in mapping order, the row sums."""
        probs = _uniform_probs(levels)
        for n, key, val in edits:
            del probs[n][key]
            if val is not None:
                probs[n][key] = val   # now the last entry of its level
        with pytest.raises(kind, match=match):
            mk.explicit_system(allones_diagram(2), q0, probs)


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
    sysm = mk.explicit_system(d, [1.0], probs)
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
    qs = uniform_allones_system(6).levels.q
    for q in qs:
        assert np.allclose(q, 0.5, rtol=0, atol=1e-15)


def test_propagate_point_mass_stays_stochastic():
    sysm = random_system(3, depth=4)
    m0 = len(sysm.diagram.window(0))
    q0 = np.zeros(m0)
    q0[0] = 1.0
    probed = dataclasses.replace(sysm, q0=q0 + 1e-14)
    for q in probed.levels.q:
        assert abs(q.sum() - 1.0) < 1e-12


def test_induced_q_equals_height_times_measure():
    d, mu, sysm = fib_induced(6)
    qs = sysm.levels.q
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
    sysm = mk.explicit_system(d, [0.3, 0.7], probs)
    hk = mk.dual_kernels(sysm)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    for n in range(3):
        assert np.array_equal(hk.qhat[n], swap)


def test_qhat_value_covers_parallel_edges():
    # one value per vertex pair: the dual of two parallel edges with
    # ranked probabilities 0.25 and 0.75 carries their whole mass
    d = dg.stationary_diagram([[2]], 2)
    probs = tuple({(0, 0): (0.25, 0.75)} for _ in range(2))
    sysm = mk.explicit_system(d, [1.0], probs)
    hk = mk.dual_kernels(sysm)
    assert d.F(0).csr.mult.tolist() == [2]
    assert hk.qhat_values[0].tolist() == [1.0]


def test_zero_mass_level_detected():
    # target vertex 1 only reachable through a vanishing branch
    d = dg.stationary_diagram([[1, 1], [1, 1]], 1)
    probs = ({(0, 0): 1.0 - 1e-320, (0, 1): 1e-320,
              (1, 0): 1.0 - 1e-320, (1, 1): 1e-320},)
    sysm = mk.explicit_system(d, [0.5, 0.5], probs)
    assert sysm.levels.q[1][1] < mk.Q_FLOOR   # the sweep itself raises nothing
    with pytest.raises(mk.ZeroMass) as exc:
        mk.dual_kernels(sysm)
    assert (exc.value.level, exc.value.vertex) == (1, 1)


def test_exactly_vanished_mass_is_zero_mass_without_a_warning():
    """p = 5e-324 into vertex 1 makes q^(1)_1 exactly 0.0, so the sweep's
    Q-hat into it is 0/0: the sweep warns nothing, and dual_kernels names
    the vanished mass."""
    d = dg.stationary_diagram([[1, 1], [1, 1]], 2)
    level = {(0, 0): 1.0, (0, 1): 5e-324, (1, 0): 1.0, (1, 1): 5e-324}
    sysm = mk.explicit_system(d, [0.5, 0.5], (level, level))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hk = sysm.levels
        assert hk.q[1][1] == 0.0
        with pytest.raises(mk.ZeroMass) as exc:
            mk.dual_kernels(sysm)
    assert (exc.value.level, exc.value.vertex) == (1, 1)


def test_space_names_the_vanished_vertex_by_label():
    """A level-0 mass of zero passes dual_kernels (it checks levels 1..N)
    and is caught by the weighted space, which names the vertex label,
    not its window position."""
    d = dg.band_diagram(DRUNKEN, depth=2, window=dg.Window(-4, 4, 2))
    mu, _ = ms.stationary_pf_measure(d)
    induced = mk.markov_from_tail_invariant(d, mu)
    q0 = np.array(induced.q0)
    q0[d.window(0).position(-2)] = 0.0
    hk = mk.dual_kernels(dataclasses.replace(induced, q0=q0))
    with pytest.raises(mk.ZeroMass) as exc:
        mk.space(hk, 0)
    assert (exc.value.level, exc.value.vertex) == (0, -2)
    assert "q^(0)_-2" in str(exc.value)


def test_level_sweep_is_cached_and_read_only():
    """The sweep runs once per system and is the system's dual kernels:
    its masses and edge values are shared with every reader, so they are
    read-only, q0 included."""
    sysm = random_system(4)
    sweep = sysm.levels
    assert sysm.levels is sweep
    assert mk.dual_kernels(sysm) is sweep
    assert len(sweep.q) == sysm.depth + 1
    assert (len(sweep.stochasticity) == len(sweep.phat_values)
            == len(sweep.qhat_values) == sysm.depth)
    assert not any(a.flags.writeable for a in
                   (*sweep.q, *sweep.phat_values, *sweep.qhat_values))
    assert sysm.q0.flags.writeable


# -- induced systems ---------------------------------------------------------

def test_induced_allones_is_uniform():
    d = allones_diagram(5)
    mu, _ = ms.stationary_pf_measure(d, "probability")
    sysm = mk.markov_from_tail_invariant(d, mu)
    assert all(r is None for r in sysm.p_ranks)
    for p in sysm.p_values:
        assert np.abs(p - 0.5).max() < 1e-15
    assert sysm.normalized == ()


def test_induced_fibonacci_edge_probabilities():
    d, mu, sysm = fib_induced(5)
    t = mu.level(1) * GOLDEN   # proportional to (phi, 1) normalized
    # p on edge v -> u is t_u / (phi t_v)
    for n in range(5):
        for (v, u), val in _shared_probs(sysm)[n].items():
            expect = t[u] / (GOLDEN * t[v])
            assert abs(val - expect) < 1e-12


def test_induced_requires_positive_measure():
    d = allones_diagram(3)
    vecs = tuple(np.full(2, 2.0 ** -n) for n in range(4))
    vecs = vecs[:2] + (np.array([0.25, 0.0]),) + vecs[3:]
    with pytest.raises(mk.ZeroMeasureVertex):
        mk.markov_from_tail_invariant(
            d, ms.MeasureSequence(vecs))


def test_induced_normalizes_clipped_boundary():
    from conftest import DRUNKEN
    d = dg.band_diagram(DRUNKEN, depth=3, window=dg.Window(-10, 10, 2))
    mu, _ = ms.stationary_pf_measure(d)
    sysm = mk.markov_from_tail_invariant(d, mu)
    assert len(sysm.normalized) > 0
    # rows sum to 1 after the fix-up, within explicit_system's tolerance
    assert max(sysm.levels.stochasticity) <= 1e-12


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
        assert np.abs(mk.apply_TP(hk.phat[n], ones) - 1.0).max() < 1e-12


def test_TP_kills_odd_mode_on_uniform():
    hk = mk.dual_kernels(uniform_allones_system(3))
    out = mk.apply_TP(hk.phat[0], np.array([1.0, -1.0]))
    assert np.array_equal(out, [0.0, 0.0])


def test_operators_are_contractions():
    rng = np.random.default_rng(23)
    hk = mk.dual_kernels(random_system(5))
    for n in range(hk.depth):
        lo, hi = mk.space(hk, n), mk.space(hk, n + 1)
        for _ in range(20):
            f = rng.standard_normal(len(hk.q[n + 1]))
            g = rng.standard_normal(len(hk.q[n]))
            assert lo.norm(mk.apply_TP(hk.phat[n], f)) <= hi.norm(f) + 1e-12
            assert hi.norm(mk.apply_TQ(hk.qhat[n], g)) <= lo.norm(g) + 1e-12


def test_operators_are_adjoint():
    rng = np.random.default_rng(29)
    hk = mk.dual_kernels(random_system(9))
    worst = 0.0
    for n in range(hk.depth):
        lo, hi = mk.space(hk, n), mk.space(hk, n + 1)
        for _ in range(20):
            f = rng.standard_normal(len(hk.q[n]))
            g = rng.standard_normal(len(hk.q[n + 1]))
            lhs = lo.inner(f, mk.apply_TP(hk.phat[n], g))
            rhs = hi.inner(mk.apply_TQ(hk.qhat[n], f), g)
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


def test_composed_kernel_uniform():
    hk = mk.dual_kernels(uniform_allones_system(3))
    assert np.allclose(mk.compose_Tn(hk.phat[1], hk.qhat[1]), 0.5, rtol=0,
                       atol=1e-15)


def test_composed_kernel_deterministic_is_identity():
    d = dg.stationary_diagram([[0, 1], [1, 0]], 2)
    probs = tuple({(0, 1): 1.0, (1, 0): 1.0} for _ in range(2))
    hk = mk.dual_kernels(mk.explicit_system(d, [0.4, 0.6], probs))
    assert np.array_equal(mk.compose_Tn(hk.phat[0], hk.qhat[0]), np.eye(2))


def test_composed_kernel_fixes_q_and_is_self_adjoint():
    hk = mk.dual_kernels(random_system(13))
    rng = np.random.default_rng(31)
    for n in range(hk.depth):
        T = mk.compose_Tn(hk.phat[n], hk.qhat[n])
        assert np.abs(T.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(hk.q[n] @ T - hk.q[n]).max() < 1e-13
        sp = mk.space(hk, n)
        f = rng.standard_normal(len(hk.q[n]))
        g = rng.standard_normal(len(hk.q[n]))
        assert abs(sp.inner(f, T @ g) - sp.inner(T @ f, g)) < 1e-12


# -- stored edge form --------------------------------------------------------

def _shared_probs(sysm):
    """The {(source, target): p} mapping of each level of a system whose
    parallel edges all share their value, read off the edge arrays."""
    assert all(r is None for r in sysm.p_ranks)
    return [{(v, u): x for (u, v, _), x in
             zip(sysm.diagram.F(n).triplets(), p.tolist())}
            for n, p in enumerate(sysm.p_values)]


def _edge_form_cases():
    """name -> (system, the {(source, target): value} mappings it holds)."""
    clipped = dg.band_diagram(DRUNKEN, depth=4, window=dg.Window(-14, 14, 2))
    mu, _ = ms.stationary_pf_measure(clipped)
    induced = mk.markov_from_tail_invariant(clipped, mu)
    assert induced.normalized
    # source 0: a double edge with per-rank values and a double edge with
    # one shared value; source 1: a single edge
    d = dg.stationary_diagram([[2, 1], [2, 0]], 3)
    mixed = tuple({(0, 0): (0.25, 0.35), (0, 1): 0.2, (1, 0): 1.0}
                  for _ in range(3))
    d_rand, q0, rand = random_probs(9, depth=4, min_m=1, max_m=7)
    return {"random-uneven": (mk.explicit_system(d_rand, q0, rand), rand),
            "explicit-mixed": (mk.explicit_system(d, [0.3, 0.7], mixed),
                               mixed),
            "clipped-band": (induced, _shared_probs(induced))}


def _phat_reference(sysm, probs, n):
    """Dense P-hat from the input mappings and the level's triplets alone."""
    m = sysm.diagram.F(n)
    tv, sv = m.targets, m.sources
    mults = {(v, w): k for v, w, k in m.triplets()}
    out = np.zeros((len(sv), len(tv)))
    for (w, v), val in probs[n].items():
        mult = mults[(v, w)]
        out[sv.index(w), tv.index(v)] = (mult * float(val) if np.isscalar(val)
                                         else float(sum(val)))
    return out


@pytest.mark.parametrize("name", sorted(_edge_form_cases()))
def test_phat_edges_match_probs(name):
    sysm, probs = _edge_form_cases()[name]
    for n in range(sysm.depth):
        ref = _phat_reference(sysm, probs, n)
        c = sysm.diagram.F(n).csr
        edges = sysm.levels.phat_values[n]
        assert np.array_equal(edges, ref[c.indices, c.rows])
        assert not edges.flags.writeable
        assert np.array_equal(
            sysm.diagram.F(n).scatter(edges, by_source=True), ref)


@pytest.mark.parametrize("name", sorted(_edge_form_cases()))
def test_cylinder_masses_match_probs(name):
    """Every cylinder's mass is q0 times the mappings' edge values, in
    path order, bit for bit."""
    sysm, probs = _edge_form_cases()[name]
    d = sysm.diagram
    count = 0
    for level in range(d.depth + 1):
        for v in d.vertices(level):
            for path in dg.enumerate_cylinders(d, (level, v)):
                lvl0, v0 = path.initial
                want = float(sysm.q0[d.window(0).position(v0)])
                for (lvl, src, tgt, rank) in path.edges:
                    val = probs[lvl][(src, tgt)]
                    want *= float(val) if np.isscalar(val) else val[rank]
                assert mk.cylinder_mass(sysm, path) == want
                count += 1
    assert count > sum(len(d.vertices(n)) for n in range(d.depth + 1))


@pytest.mark.parametrize("name", sorted(_edge_form_cases()))
def test_dual_kernels_match_dense_formulas(name):
    sysm, probs = _edge_form_cases()[name]
    hk = mk.dual_kernels(sysm)
    rng = np.random.default_rng(1)
    q = [np.asarray(sysm.q0, dtype=np.float64)]
    for n in range(sysm.depth):
        P = _phat_reference(sysm, probs, n)
        q.append(q[n] @ P)
        assert sysm.levels.stochasticity[n] == np.abs(P.sum(axis=1)
                                                      - 1.0).max()
        Q = P.T * q[n][np.newaxis, :] / q[n + 1][:, np.newaxis]
        assert np.array_equal(hk.phat[n], P)
        assert np.array_equal(hk.qhat[n], Q)
        # same memory layout, so the same BLAS calls and the same rounding
        assert hk.phat[n].flags.c_contiguous
        assert hk.qhat[n].flags.f_contiguous and Q.flags.f_contiguous
        c = sysm.diagram.F(n).csr
        assert np.array_equal(hk.phat_values[n], P[c.indices, c.rows])
        assert np.array_equal(hk.qhat_values[n], Q[c.rows, c.indices])
        f = rng.standard_normal(len(q[n]))
        assert np.array_equal(hk.qhat[n] @ f, Q @ f)
        assert np.array_equal(hk.phat[n] @ hk.qhat[n], P @ Q)
    assert hk.q is sysm.levels.q
    assert len(hk.q) == len(q)
    assert all(np.array_equal(a, b) for a, b in zip(hk.q, q))


def test_dense_kernels_are_built_per_index():
    """hk.phat / hk.qhat hold no array: each index scatters a fresh one
    from the read-only edge values."""
    hk = mk.dual_kernels(random_system(3))
    assert len(hk.phat) == len(hk.qhat) == hk.depth
    assert hk.phat[0] is not hk.phat[0]
    assert np.array_equal(hk.qhat[-1], hk.qhat[hk.depth - 1])
    with pytest.raises(IndexError):
        hk.phat[hk.depth]
    for vals in (*hk.phat_values, *hk.qhat_values):
        assert vals.ndim == 1 and not vals.flags.writeable


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
        ok = {w for w, inner in zip(sv, F.interior_cols) if inner} & clean
        clean = {v for v in tv if all(w in ok for w, _ in F.row_entries(v))}
        masked += len(tv) - len(clean)
        h_lo, h_hi = dg.heights(d, n), dg.heights(d, n + 1)
        fhat = np.zeros((len(tv), len(sv)))
        for v, w, mult in F.triplets():
            i, j = tv.index(v), sv.index(w)
            fhat[i, j] = float(Fraction(h_lo[j] * mult, h_hi[i]))
        rows = [tv.index(v) for v in sorted(clean)]
        if rows:
            worst = max(worst, float(np.abs(hk.qhat[n] - fhat)[rows].max()))
        lhs = hk.q[n][:, None] * hk.phat[n]
        rhs = (hk.q[n + 1][:, None] * hk.qhat[n]).T
        assert mk.balance_gaps(hk)[n] == float(np.abs(lhs - rhs).max())
    assert masked > 0
    assert mk.hat_vs_incidence(d, hk) == worst


def _dense_gap(q, T):
    """max |q_v T(v, w) - q_w T(w, v)| over the whole array, the way the
    operators suite used to form it: two products, subtracted in place."""
    a, b = q[:, None] * T, (q[:, None] * T).T
    return float(np.abs(np.subtract(a, b, out=a), out=a).max())


def _all_pairs(F):
    """Brute-force source pairs sharing a target, without the size rule."""
    B = F.scatter(np.ones(len(F.csr.rows))).astype(int)
    return tuple(np.nonzero(np.triu(B.T @ B)))


def _assert_gap_matches_dense(hk):
    for n in range(hk.depth):
        F = hk.diagram.F(n)
        T = mk.compose_Tn(hk.phat[n], hk.qhat[n])
        want = np.float64(_dense_gap(hk.q[n], T)).tobytes()
        for pairs in (F.source_pairs, _all_pairs(F)):
            got = mk.self_adjoint_gap(T, hk.q[n], pairs)
            assert np.float64(got).tobytes() == want, (n, got)


def _with(hk, *, p=None, q=None, qv=None):
    """hk with some edge values or level masses replaced."""
    return dataclasses.replace(hk, q=hk.q if qv is None else qv,
                               phat_values=hk.phat_values if p is None else p,
                               qhat_values=hk.qhat_values if q is None else q)


def test_self_adjoint_gap_on_pairs_matches_dense_bit_for_bit():
    """T-hat_n's q-weighted asymmetry read at the source pairs equals the
    maximum over the whole array, bit for bit: on random systems, the
    clipped band, kernels of both signs, overflowing products, and with
    inf or NaN in an edge value or a level mass, which makes a diagonal
    pair NaN, as it makes the dense maximum."""
    band = dg.band_diagram(DRUNKEN, depth=5, window=dg.Window(-30, 30, 2))
    mu, _ = ms.stationary_pf_measure(band)
    cases = [mk.dual_kernels(mk.markov_from_tail_invariant(band, mu))]
    cases += [mk.dual_kernels(random_system(seed, depth=4, max_m=m))
              for seed in range(12) for m in (6, 30)]
    rng = np.random.default_rng(19)
    for hk in list(cases):
        def signed(values):
            return tuple(v * rng.choice([-1.0, 1.0], len(v)) for v in values)
        cases.append(_with(hk, p=signed(hk.phat_values),
                           q=signed(hk.qhat_values)))
        cases.append(_with(hk, p=tuple(v * 1e200 for v in hk.phat_values),
                           q=tuple(v * 1e200 for v in hk.qhat_values)))
        for bad in (np.inf, -np.inf, np.nan):
            p = [v.copy() for v in hk.phat_values]
            p[1][rng.integers(len(p[1]))] = bad
            cases.append(_with(hk, p=tuple(p)))
            q = [v.copy() for v in hk.qhat_values]
            q[0][rng.integers(len(q[0]))] = bad
            cases.append(_with(hk, q=tuple(q)))
            qv = [v.copy() for v in hk.q]
            qv[2][rng.integers(len(qv[2]))] = bad
            cases.append(_with(hk, qv=tuple(qv)))
    with np.errstate(over="ignore", invalid="ignore"):   # inf - inf
        for hk in cases:
            _assert_gap_matches_dense(hk)
