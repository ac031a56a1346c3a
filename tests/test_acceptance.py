"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line under ``pytest -v``) each.

 1. closed-form dominant eigenvalues (golden ratio, 2, 4) at tight
    tolerances, under 5 s
 2. stationary measures pass tail-invariance below 1e-12 on interior
    windows at depth 10
 3. one-step cylinder extension sums on 10 random Markov systems
 4. dual-kernel mass propagation, detailed balance, dual = normalized
    incidence for induced systems
 5. adjointness / contractivity / fixed-mass identities over 100 random
    function pairs
 6. Laplacian identities, energy-form agreement on 100 random functions,
    harmonic solve on the all-ones depth-10 network
 7. Monte-Carlo hitting probability within 3 standard errors of the
    solver, 1e5 walks under 30 s
 8. exact rational duality/marginals/symmetry, Gram positivity,
    factorization, and sampler accuracy for the cell chains
 9. the depth-10 binary odometer enumerates all 1024 paths exactly once
10. equal-row-sum diagrams pin each level sum of a probability measure
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from bratteli import cells as cl
from bratteli import diagram as dg
from bratteli import laplacian as lp
from bratteli import markov as mk
from bratteli import measures as ms
from bratteli import perron as pf

from conftest import (DRUNKEN, GOLDEN, allones_network, random_system,
                      uniform_allones_system)

ERS_232 = [
    [[1, 1], [2, 0]],
    [[2, 1], [1, 2]],
    [[1, 1], [0, 2]],
]


def _pf_of(d: dg.Diagram) -> pf.SpectralData:
    return pf.pf_solve(pf.incidence_transpose(d.F(0)))


def test_criterion_01_pf_closed_forms():
    t0 = time.perf_counter()
    fib = _pf_of(dg.stationary_diagram([[1, 1], [1, 0]], 8))
    ones = _pf_of(dg.stationary_diagram([[1, 1], [1, 1]], 6))
    drunk = _pf_of(dg.band_diagram(DRUNKEN, 6, dg.Window(-40, 40, 2)))
    elapsed = time.perf_counter() - t0
    assert abs(fib.lam - GOLDEN) < 1e-9
    assert abs(ones.lam - 2.0) < 1e-12
    assert abs(drunk.lam - 4.0) < 1e-6
    assert len(drunk.vertices) == 41
    assert np.ptp(drunk.right) < 1e-6
    assert elapsed < 5.0
    print(f"criterion 1: pass - lam errors {abs(fib.lam - GOLDEN):.2e}/"
          f"{abs(ones.lam - 2):.2e}/{abs(drunk.lam - 4):.2e} "
          f"in {elapsed:.2f}s")


def test_criterion_02_tail_invariance_depth10():
    worst = 0.0
    for d in (dg.stationary_diagram([[1, 1], [1, 0]], 10),
              dg.stationary_diagram([[1, 1], [1, 1]], 10),
              dg.band_diagram(DRUNKEN, 10, dg.Window(-30, 30, 2))):
        mu, _ = ms.stationary_pf_measure(d, normalization="anchored")
        inv = ms.verify_tail_invariance(d, mu, tol=1e-12)
        assert inv.passed, inv.residuals
        worst = max(worst, max(inv.residuals))
    assert worst < 1e-12
    print(f"criterion 2: pass - worst interior residual {worst:.2e}")


def test_criterion_03_extension_sums():
    worst = 0.0
    checked = 0
    for seed in range(10):
        sysm = random_system(seed)
        d = sysm.diagram
        for n in range(d.depth):
            F = d.F(n)
            for v in d.window(n).vertices:
                for p in dg.enumerate_cylinders(d, (n, v)):
                    mass = mk.cylinder_mass(sysm, p)
                    ext = sum(
                        mk.cylinder_mass(
                            sysm, dg.FinitePath(p.edges + ((n, v, u, r),)))
                        for (u, mult) in F.col_entries(v)
                        for r in range(mult))
                    worst = max(worst, abs(ext - mass) / mass)
                    checked += 1
    assert checked > 10_000
    assert worst <= 1e-13
    print(f"criterion 3: pass - {checked} cylinders, worst relative "
          f"deviation {worst:.2e}")


def test_criterion_04_dual_kernel_identities():
    worst_prop = worst_bal = 0.0
    for seed in range(10):
        hk = mk.dual_kernels(random_system(seed))
        for n in range(hk.diagram.depth):
            worst_prop = max(
                worst_prop,
                float(np.abs(hk.q[n] @ hk.phat[n] - hk.q[n + 1]).max()),
                float(np.abs(hk.q[n + 1] @ hk.qhat[n] - hk.q[n]).max()))
            worst_bal = max(worst_bal, float(np.abs(
                hk.q[n][:, None] * hk.phat[n]
                - (hk.q[n + 1][:, None] * hk.qhat[n]).T).max()))
    assert worst_prop <= 1e-12
    assert worst_bal <= 1e-13

    worst_hat = 0.0
    for d in (dg.stationary_diagram([[1, 1], [1, 0]], 8),
              dg.stationary_diagram([[1, 1], [1, 1]], 6),
              dg.band_diagram(DRUNKEN, 6, dg.Window(-20, 20, 2))):
        mu, _ = ms.stationary_pf_measure(d, normalization="anchored")
        hk = mk.dual_kernels(mk.markov_from_tail_invariant(d, mu))
        worst_hat = max(worst_hat, mk.hat_vs_incidence(d, hk))
    assert worst_hat <= 1e-12
    print(f"criterion 4: pass - propagation {worst_prop:.2e}, balance "
          f"{worst_bal:.2e}, dual-vs-incidence {worst_hat:.2e}")


def test_criterion_05_operator_suite():
    rng = np.random.default_rng(2024)
    worst_adj = worst_con = worst_fix = 0.0
    pairs = 0
    for seed in range(10):
        hk = mk.dual_kernels(random_system(seed))
        for n in range(hk.diagram.depth):
            lo, hi = mk.space(hk, n), mk.space(hk, n + 1)
            for _ in range(2):
                f = rng.standard_normal(len(hk.q[n]))
                g = rng.standard_normal(len(hk.q[n + 1]))
                worst_adj = max(worst_adj,
                                abs(lo.inner(f, mk.apply_TP(hk, n, g))
                                    - hi.inner(mk.apply_TQ(hk, n, f), g)))
                worst_con = max(
                    worst_con,
                    lo.norm(mk.apply_TP(hk, n, g)) - hi.norm(g),
                    hi.norm(mk.apply_TQ(hk, n, f)) - lo.norm(f))
                pairs += 1
            T = mk.compose_Tn(hk, n)
            worst_fix = max(worst_fix,
                            float(np.abs(hk.q[n] @ T - hk.q[n]).max()))
    assert pairs >= 100
    assert worst_adj < 1e-10
    assert worst_con <= 1e-12
    assert worst_fix <= 1e-12
    print(f"criterion 5: pass - {pairs} pairs, adjointness {worst_adj:.2e},"
          f" slack {worst_con:.2e}, fixed mass {worst_fix:.2e}")


def test_criterion_06_laplacian_suite():
    net10 = lp.build_network(mk.dual_kernels(uniform_allones_system(10)))
    nets = [net10,
            lp.build_network(mk.dual_kernels(random_system(3))),
            lp.build_network(mk.dual_kernels(random_system(7)))]
    worst_qm = max(lp.qM_identity_residual(net) for net in nets)
    assert worst_qm <= 1e-12

    const = lp.LevelFunction.constant(net10, 1.0)
    cres = max(float(np.abs(v).max())
               for v in lp.apply_Delta(net10, const).values)
    assert cres == 0.0

    rng = np.random.default_rng(6)
    worst_energy = 0.0
    for _ in range(100):
        f = lp.LevelFunction.of([rng.standard_normal(len(q))
                                 for q in net10.kernels.q])
        worst_energy = max(worst_energy, lp.energy_norm(net10, f).agreement)
    assert worst_energy <= 1e-10

    sol = lp.solve_harmonic(net10, 0.0, 1.0)
    assert sol.residual < 1e-8
    profile_err = max(float(np.abs(v - n / 10.0).max())
                      for n, v in enumerate(sol.f.values))
    assert profile_err <= 1e-12
    print(f"criterion 6: pass - qM {worst_qm:.2e}, constants {cres}, energy"
          f" {worst_energy:.2e}, solve {sol.residual:.2e}, linear profile "
          f"within {profile_err:.2e}")


def test_criterion_07_monte_carlo_hitting():
    t0 = time.perf_counter()
    net = allones_network(6)
    sol = lp.solve_harmonic(net, 0.0, 1.0)
    truth = float(sol.f.values[2][0])
    est = lp.hitting_probability(net, (2, 0), trials=100_000, seed=11)
    elapsed = time.perf_counter() - t0
    assert est.timeouts == 0
    dev = abs(est.estimate - truth)
    assert dev <= 3.0 * est.stderr
    assert elapsed < 30.0
    print(f"criterion 7: pass - {est.estimate:.5f} vs {truth:.5f} "
          f"({dev / est.stderr:.2f} standard errors) in {elapsed:.2f}s")


def _exact_chain(rng, m1: int, m2: int):
    masses = [Fraction(int(a), 1) for a in rng.integers(1, 10, m1)]
    total = sum(masses)
    nu1 = cl.CellSpace(tuple(a / total for a in masses))
    rows = []
    for _ in range(m1):
        raw = [Fraction(int(a), 1) for a in rng.integers(1, 10, m2)]
        s = sum(raw)
        rows.append([a / s for a in raw])
    return nu1, cl.kernel_from(rows)


def test_criterion_08_cell_kernel_suite():
    rng = np.random.default_rng(88)
    # duality + marginals + symmetry, exact for every size up to 8
    for m1 in range(2, 9):
        m2 = int(rng.integers(2, 9))
        nu1, P = _exact_chain(rng, m1, m2)
        rho, nu2, Q = cl.dual_kernel(nu1, P)
        assert cl.duality_residual(nu1, P, nu2, Q) == 0.0
        assert list(rho.marginal_first()) == list(nu1.nu(True))
        assert list(rho.marginal_second()) == list(nu2.nu(True))
        lam1, lam2 = cl.symmetric_measures(P, Q, nu1, nu2)
        for lam in (lam1, lam2):
            a = np.asarray(lam, dtype=object)
            assert np.abs(a - a.T).max() == 0

    # Gram positivity over 20 random subset families on a float chain
    nu1, P = _exact_chain(rng, 8, 8)
    rho, nu2, Q = cl.dual_kernel(nu1, P)
    lam1, _ = cl.symmetric_measures(P, Q, nu1, nu2)
    lam = np.asarray(lam1, dtype=np.float64)
    min_eig = np.inf
    for _ in range(20):
        sets = [list(np.flatnonzero(rng.integers(0, 2, 8)))
                for _ in range(int(rng.integers(2, 7)))]
        sets = [s for s in sets if s] or [[0]]
        min_eig = min(min_eig, cl.rkhs_gram(lam, sets).min_eigenvalue)
    assert min_eig >= -1e-10

    # factorization of 10 random positive semidefinite operators, m = 6
    worst_fact = 0.0
    for _ in range(10):
        B = rng.standard_normal((6, 6))
        G = B @ B.T
        space = cl.CellSpace(tuple(rng.dirichlet(np.ones(6)) + 0.01))
        R = G / np.array(space.masses)[:, None]
        worst_fact = max(worst_fact, cl.factorization_check(R, space).residual)
    assert worst_fact < 1e-10

    # sampler against the exact tensor contraction
    mats = ([[0.7, 0.3], [0.4, 0.6]], [[0.2, 0.8], [0.5, 0.5]],
            [[0.9, 0.1], [0.3, 0.7]])
    ks = [cl.kernel_from(m) for m in mats]
    spaces = [cl.CellSpace((0.5, 0.5))]
    for k in ks:
        spaces.append(cl.CellSpace(
            tuple(spaces[-1].nu(False) @ k.array(False))))
    samp = cl.path_measure_sample(spaces, ks, 0, 3, seed=0, trials=100_000)
    assert samp.max_z <= 3.0
    print(f"criterion 8: pass - exact duality, gram min eig {min_eig:.2e}, "
          f"factorization {worst_fact:.2e}, sampler max z {samp.max_z:.2f}")


def test_criterion_09_odometer_enumeration():
    d = dg.stationary_diagram([[2]], 10)
    order = dg.natural_order(d)
    orbit = dg.vershik_orbit(d, order, dg.minimal_path(d, order, (10, 0)))
    assert len(orbit) == 1024
    assert len({p.edges for p in orbit}) == 1024
    assert dg.vershik_successor(d, order, orbit[-1]) is None
    print("criterion 9: pass - 1024 paths visited exactly once, then the "
          "maximal flag")


def test_criterion_10_ers_level_sums():
    d = dg.validate([dg.incidence_from_dense(n, m)
                     for n, m in enumerate(ERS_232)])
    rep = ms.ers_ecs_classify(d)
    assert rep.kind == "ERS" and rep.row_sums == (2, 3, 2)
    top = len(d.window(d.depth))
    height = int(np.prod(rep.row_sums))      # constant across vertices
    mu = ms.solve_tail_invariant(
        d, anchor=np.full(top, 1.0 / (top * height)))
    assert sum(mu.level(0)) == pytest.approx(1.0, abs=1e-12)
    worst = 0.0
    expect = 1.0
    for n in range(d.depth):
        expect /= rep.row_sums[n]
        worst = max(worst, abs(sum(mu.level(n + 1)) - expect))
    assert worst <= 1e-12
    print(f"criterion 10: pass - level sums match reciprocal height "
          f"products, worst deviation {worst:.2e}")
