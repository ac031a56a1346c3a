"""Finite-cell kernel duality: exact rational dual kernels, membership of
measure pairs, symmetric quadratic forms, Gram positivity, operator
factorization, path sampling against exact tensor contraction, and the
refinement/aggregation round trip."""

import pathlib
from fractions import Fraction as Fr

import numpy as np
import pytest

from bratteli import cells as cl
from bratteli import laplacian as lp
from bratteli import specfile as sf

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples_specs"

NU1 = cl.CellSpace((Fr(1, 3), Fr(1, 6), Fr(1, 2)))
P32 = cl.kernel_from([[Fr(1, 2), Fr(1, 2)],
                      [Fr(1, 4), Fr(3, 4)],
                      [Fr(2, 3), Fr(1, 3)]])


# -- spaces and kernels --------------------------------------------------------

def test_space_exactness_detection():
    assert NU1.exact
    assert not cl.CellSpace((0.5, 0.5)).exact
    assert NU1.total == Fr(1)


def test_space_rejects_negative_and_empty():
    with pytest.raises(cl.ZeroTotalMass):
        cl.CellSpace((1, -1))
    with pytest.raises(cl.ZeroTotalMass):
        cl.CellSpace((0, 0))


def test_kernel_probability_rows():
    assert P32.is_probability()
    assert not cl.kernel_from([[0.5, 0.4]]).is_probability()


def test_kernel_rejects_bad_input():
    with pytest.raises(cl.ZeroTotalMass):
        cl.kernel_from([[0.5, -0.5]])
    with pytest.raises(cl.DimensionMismatch):
        cl.kernel_from([[0.5], [0.5, 0.5]])


def test_compose_is_matrix_product():
    K = cl.compose(P32, cl.kernel_from([[Fr(1, 2), Fr(1, 2)],
                                        [Fr(1, 3), Fr(2, 3)]]))
    assert K.shape == (3, 2)
    assert K.is_probability()
    assert K.matrix[0][0] == Fr(1, 2) * Fr(1, 2) + Fr(1, 2) * Fr(1, 3)


# -- dual kernel ----------------------------------------------------------------

def test_dual_kernel_exact_rationals():
    rho, nu2, Q = cl.dual_kernel(NU1, P32)
    assert nu2.masses == (Fr(13, 24), Fr(11, 24))
    assert Q.matrix[0] == (Fr(4, 13), Fr(1, 13), Fr(8, 13))
    assert Q.matrix[1] == (Fr(4, 11), Fr(3, 11), Fr(4, 11))
    assert cl.duality_residual(NU1, P32, nu2, Q) == 0
    assert rho.total == Fr(1)


def test_dual_marginals_exact():
    rho, nu2, _ = cl.dual_kernel(NU1, P32)
    assert tuple(rho.marginal_first()) == NU1.masses
    assert tuple(rho.marginal_second()) == nu2.masses


def test_dual_constant_kernel_gives_product():
    nu2_target = (Fr(1, 4), Fr(3, 4))
    P = cl.kernel_from([list(nu2_target)] * 3)
    rho, nu2, Q = cl.dual_kernel(NU1, P)
    assert nu2.masses == nu2_target
    # rho is the product measure, and every dual row is nu1
    for x in range(3):
        for y in range(2):
            assert rho.matrix[x][y] == NU1.masses[x] * nu2_target[y]
    for y in range(2):
        assert Q.matrix[y] == NU1.masses


def test_dual_point_mass_start():
    nu1 = cl.CellSpace((0, 1, 0))
    rho, nu2, Q = cl.dual_kernel(nu1, P32)
    for y in range(2):
        assert Q.matrix[y] == (0, 1, 0)
    assert nu2.masses == P32.matrix[1]


def test_dual_single_cell():
    nu1 = cl.CellSpace((Fr(1),))
    rho, nu2, Q = cl.dual_kernel(nu1, cl.kernel_from([[Fr(1)]]))
    assert nu2.masses == (Fr(1),)
    assert Q.matrix == ((Fr(1),),)
    assert rho.matrix == ((Fr(1),),)


def test_dual_zero_row_at_positive_mass_rejected():
    nu1 = cl.CellSpace((Fr(1, 2), Fr(1, 2)))
    # a kernel whose second row carries no mass cannot be normalized
    with pytest.raises(cl.ZeroTotalMass):
        cl.dual_kernel(nu1, cl.CellKernel(((Fr(1), Fr(0)), (Fr(0), Fr(0)))))


# -- membership -----------------------------------------------------------------

def test_built_pair_is_member():
    rho, nu2, _ = cl.dual_kernel(NU1, P32)
    rep = cl.membership_tests(rho, NU1, nu2)
    assert rep.pair_represents
    assert rep.recovery_residual == 0
    assert tuple(rep.marginal_first) == NU1.masses


def test_zero_cell_breaks_membership():
    rho, nu2, _ = cl.dual_kernel(NU1, P32)
    starved = cl.CellSpace((Fr(1, 2), Fr(1, 2), Fr(0)))
    rep = cl.membership_tests(rho, starved, nu2)
    assert not rep.pair_represents
    assert rep.recovery_residual > 0


def test_scaled_pair_recovers_scaled_kernels():
    """Equivalent measures stay members; the recovered kernels are the
    cellwise ratio derivatives of rho against the new masses."""
    rho, nu2, Q = cl.dual_kernel(NU1, P32)
    f = (Fr(2), Fr(1, 2), Fr(3))
    nu1b = cl.CellSpace(tuple(a * b for a, b in zip(f, NU1.masses)))
    rep = cl.membership_tests(rho, nu1b, nu2)
    assert rep.pair_represents
    assert rep.recovery_residual == 0
    for x in range(3):
        for y in range(2):
            assert (rep.kernel_rows.matrix[x][y]
                    == P32.matrix[x][y] / f[x])


# -- symmetric measures -----------------------------------------------------------

def test_symmetric_measures_exact():
    rho, nu2, Q = cl.dual_kernel(NU1, P32)
    lam1, lam2 = cl.symmetric_measures(P32, Q, NU1, nu2)
    assert (lam1 == lam1.T).all()
    assert (lam2 == lam2.T).all()
    # row sums return the base masses
    assert tuple(lam1.sum(axis=1)) == NU1.masses
    assert tuple(lam2.sum(axis=1)) == nu2.masses


def test_symmetric_measures_float_structural_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(10):
        raw = rng.random((4, 3)) + 0.05
        P = cl.kernel_from(raw / raw.sum(axis=1, keepdims=True))
        nu1 = cl.CellSpace(tuple(rng.dirichlet(np.ones(4))))
        rho, nu2, Q = cl.dual_kernel(nu1, P)
        lam1, lam2 = cl.symmetric_measures(P, Q, nu1, nu2)
        assert np.abs(lam1 - lam1.T).max() == 0.0
        assert np.abs(lam2 - lam2.T).max() == 0.0


def test_constant_kernel_rank_one_lambda():
    P = cl.kernel_from([[Fr(1, 2), Fr(1, 2)]] * 3)
    rho, nu2, Q = cl.dual_kernel(NU1, P)
    lam1, _ = cl.symmetric_measures(P, Q, NU1, nu2)
    n1 = np.array(NU1.masses, dtype=object)
    assert (lam1 == np.outer(n1, n1)).all()


# -- gram ------------------------------------------------------------------------

def test_gram_indicator_sets():
    rho, nu2, Q = cl.dual_kernel(NU1, P32)
    lam1, _ = cl.symmetric_measures(P32, Q, NU1, nu2)
    sets = [(0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2)]
    rep = cl.rkhs_gram(np.array(lam1, dtype=np.float64), sets)
    assert rep.psd
    assert rep.matrix.shape == (6, 6)
    # G[a][b] = lambda1(A x B)
    assert abs(rep.matrix[0, 3] - float(lam1[0, 0] + lam1[0, 1])) < 1e-15


def test_gram_random_families_stay_psd():
    rng = np.random.default_rng(7)
    for _ in range(10):
        raw = rng.random((5, 5)) + 0.01
        P = cl.kernel_from(raw / raw.sum(axis=1, keepdims=True))
        nu1 = cl.CellSpace(tuple(rng.dirichlet(np.ones(5))))
        _, nu2, Q = cl.dual_kernel(nu1, P)
        lam1, _ = cl.symmetric_measures(P, Q, nu1, nu2)
        sets = [tuple(np.nonzero(rng.random(5) < 0.5)[0]) or (0,)
                for _ in range(8)]
        rep = cl.rkhs_gram(lam1, sets)
        assert rep.min_eigenvalue >= -1e-10


# -- factorization ---------------------------------------------------------------

def test_factorize_identity():
    nu1 = cl.CellSpace((0.25, 0.25, 0.25, 0.25))
    rep = cl.factorization_check(np.eye(4) * 0.25, nu1)
    assert rep.residual < 1e-14
    assert rep.rank == 4


def test_factorize_rank_one_projection():
    # conditional expectation onto constants: R f = (integral of f) 1
    nu = np.array([0.1, 0.2, 0.3, 0.4])
    R = np.tile(nu, (4, 1))
    rep = cl.factorization_check(R, cl.CellSpace(tuple(nu)))
    assert rep.rank == 1
    assert rep.residual < 1e-14
    assert rep.nu2.m == 1


def test_factorize_random_psd():
    rng = np.random.default_rng(3)
    for _ in range(5):
        B = rng.standard_normal((6, 6))
        G = B @ B.T
        nu1 = cl.CellSpace(tuple(rng.dirichlet(np.ones(6)) + 0.01))
        n = np.array(nu1.masses)
        # self-adjoint in the weighted product: diag(nu) R symmetric
        R = G / n[:, None]
        rep = cl.factorization_check(R, nu1)
        assert rep.residual < 1e-10
        assert rep.P @ rep.Q == pytest.approx(R, abs=1e-10)


def test_factorize_random_basis_same_residual():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((5, 5))
    G = B @ B.T
    nu1 = cl.CellSpace(tuple(np.full(5, 0.2)))
    R = G * 0.04
    a = cl.factorization_check(R, nu1, basis="natural")
    b = cl.factorization_check(R, nu1, basis="random", seed=12)
    assert abs(a.residual - b.residual) < 1e-12
    assert not np.allclose(a.P, b.P)


def test_factorize_rejects_non_psd():
    nu1 = cl.CellSpace((0.5, 0.5))
    with pytest.raises(cl.NotPSD):
        cl.factorization_check(np.array([[0.0, 0.5], [0.5, 0.0]])
                               * np.array([0.5, 0.5]), nu1)


def test_factorize_rejects_asymmetric():
    nu1 = cl.CellSpace((0.5, 0.5))
    with pytest.raises(cl.NotPSD):
        cl.factorization_check(np.array([[0.3, 0.4], [0.1, 0.3]]), nu1)


# -- sampling --------------------------------------------------------------------

def two_cell_chain(depth=3):
    spaces = [cl.CellSpace((0.5, 0.5))]
    kernels = []
    mats = ([[0.7, 0.3], [0.4, 0.6]],
            [[0.2, 0.8], [0.5, 0.5]],
            [[0.9, 0.1], [0.3, 0.7]])
    for k in range(depth):
        K = cl.kernel_from(mats[k % 3])
        nu_next = tuple(float(x) for x in
                        np.array(spaces[-1].masses) @ np.array(mats[k % 3]))
        spaces.append(cl.CellSpace(nu_next))
        kernels.append(K)
    return spaces, kernels


def test_exact_cylinders_shape_and_mass():
    spaces, kernels = two_cell_chain(3)
    T = cl.exact_cylinders(spaces, kernels, 0, 3)
    assert T.shape == (2, 2, 2)
    assert abs(T.sum() - 1.0) < 1e-15
    assert T[1, 0, 1] == pytest.approx(0.3 * 0.5 * 0.1, abs=1e-15)


def test_sampler_matches_exact():
    spaces, kernels = two_cell_chain(3)
    rep = cl.path_measure_sample(spaces, kernels, 0, 3, seed=1,
                                 trials=20_000)
    assert rep.max_z < 4.0
    assert rep.tv_distance < 0.02
    assert rep.counts.sum() == rep.trials


def test_sampler_deterministic():
    spaces, kernels = two_cell_chain(2)
    a = cl.path_measure_sample(spaces, kernels, 1, 2, seed=9, trials=5000)
    b = cl.path_measure_sample(spaces, kernels, 1, 2, seed=9, trials=5000)
    assert np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("trials", [0, -3])
def test_sampler_rejects_empty_runs(depth, trials):
    spaces, kernels = two_cell_chain(2)
    with pytest.raises(ValueError):
        cl.path_measure_sample(spaces, kernels, 0, depth, trials=trials)


@pytest.mark.parametrize("x0", [-1, 2])
def test_sampler_rejects_a_start_outside_space_zero(x0):
    spaces, kernels = two_cell_chain(2)
    with pytest.raises(cl.DimensionMismatch, match="start cell"):
        cl.path_measure_sample(spaces, kernels, x0, 2, trials=10)


def test_start_cell_variation_constant_chain_is_zero():
    nu2 = (0.25, 0.75)
    spaces = [cl.CellSpace((0.5, 0.5)), cl.CellSpace(nu2)]
    kernels = [cl.kernel_from([list(nu2)] * 2)]
    assert cl.start_cell_variation(spaces, kernels, 1) == 0.0


def test_start_cell_variation_generic_positive():
    spaces, kernels = two_cell_chain(2)
    assert cl.start_cell_variation(spaces, kernels, 2) > 0.01


# -- chain networks ---------------------------------------------------------------

def test_chain_network_and_measurable_laplacian():
    spaces, kernels = two_cell_chain(3)
    net = cl.chain_network(spaces, kernels)
    assert net.depth == 3
    rng = np.random.default_rng(8)
    F = lp.LevelFunction.of([rng.standard_normal(2) for _ in range(4)])
    delta = cl.measurable_laplacian(net, F)
    # spell the definition out: (c+d) F - P F_up - Q F_down
    for n in range(4):
        expect = np.zeros(2)
        cnt = 0.0
        if n < 3:
            expect -= net.kernels.phat[n] @ F.values[n + 1]
            cnt += 1.0
        if n > 0:
            expect -= net.kernels.qhat[n - 1] @ F.values[n - 1]
            cnt += 1.0
        expect += cnt * F.values[n]
        assert np.abs(delta.values[n] - expect).max() < 1e-15


def test_chain_network_matches_direct_formulas():
    """The network of the example chain, built through the Markov layer,
    equals the one the chain's own formulas give, bit for bit:
    P = K, Q = K^T nu_k / nu_{k+1}, q = the given masses, and vertex
    masses summed from dense conductances."""
    spec = sf.load_spec(str(EXAMPLES / "kernels.json"))
    spaces, kernels = spec.kernels
    net = cl.chain_network(spaces, kernels)
    hk = net.kernels
    nus = [s.nu(False) for s in spaces]
    conduct = []
    for k, kernel in enumerate(kernels):
        K = kernel.array(False)
        assert np.array_equal(hk.phat[k], K)
        assert np.array_equal(hk.qhat[k], K.T * nus[k][None, :]
                              / nus[k + 1][:, None])
        assert hk.qhat[k].flags.f_contiguous
        conduct.append(0.5 * nus[k][:, None] * K)
    for n, nu in enumerate(nus):
        assert np.array_equal(hk.q[n], nu)
        mass = np.zeros(len(nu))
        if n < len(kernels):
            mass += conduct[n].sum(axis=1)
        if n > 0:
            mass += conduct[n - 1].sum(axis=0)
        assert np.array_equal(net.vertex_mass[n], mass)


def test_chain_network_rational_masses_within_ulps():
    """Exact input: q on later levels is the propagated float, a few ulps
    from the rounded exact mass at most."""
    _, nu2, _ = cl.dual_kernel(NU1, P32)
    P2 = cl.kernel_from([[Fr(1, 3), Fr(2, 3)], [Fr(5, 7), Fr(2, 7)]])
    _, nu3, _ = cl.dual_kernel(nu2, P2)
    spaces = [NU1, nu2, nu3]
    net = cl.chain_network(spaces, [P32, P2])
    for q, space in zip(net.kernels.q, spaces):
        np.testing.assert_array_max_ulp(q, space.nu(False), maxulp=4)


def test_chain_network_rejects_inconsistent_masses():
    spaces, kernels = two_cell_chain(2)
    broken = list(spaces)
    broken[1] = cl.CellSpace((0.9, 0.1))
    with pytest.raises(ValueError):
        cl.chain_network(broken, kernels)


def test_chain_network_needs_a_kernel():
    with pytest.raises(cl.DimensionMismatch, match="at least one kernel"):
        cl.chain_network([cl.CellSpace((1.0,))], [])


def test_chain_energy_doubles_network_energy():
    spaces, kernels = two_cell_chain(3)
    net = cl.chain_network(spaces, kernels)
    rng = np.random.default_rng(10)
    F = lp.LevelFunction.of([rng.standard_normal(2) for _ in range(4)])
    ce = cl.chain_energy(net, F)
    ne = lp.energy_norm(net, F)
    assert ce.direct == 2.0 * ne.direct
    assert ce.agreement < 1e-10


def test_measurable_laplacian_of_constants_vanishes():
    spaces, kernels = two_cell_chain(2)
    net = cl.chain_network(spaces, kernels)
    F = lp.LevelFunction.constant(net, 4.0)
    delta = cl.measurable_laplacian(net, F)
    assert max(np.abs(v).max() for v in delta.values) < 1e-14


# -- refinement --------------------------------------------------------------------

def test_refine_space_halves():
    nu = cl.CellSpace((Fr(1, 3), Fr(2, 3)))
    fine = cl.refine_space(nu)
    assert fine.masses == (Fr(1, 6), Fr(1, 6), Fr(1, 3), Fr(1, 3))
    assert cl.aggregate_cells(fine.masses) == nu.masses


def test_refine_kernel_preserves_rows():
    fine = cl.refine_kernel(P32)
    assert fine.shape == (6, 4)
    assert fine.is_probability()


def test_refinement_commutes_with_aggregation():
    """Refining a dual pair and aggregating back returns the original
    product measure exactly (rational arithmetic throughout)."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=25, deadline=None)
    @hyp.given(st.lists(st.integers(1, 9), min_size=2, max_size=4),
               st.data())
    def check(masses, data):
        m = len(masses)
        total = sum(masses)
        nu1 = cl.CellSpace(tuple(Fr(a, total) for a in masses))
        rows = []
        for _ in range(m):
            w = data.draw(st.lists(st.integers(1, 9), min_size=3,
                                   max_size=3))
            s = sum(w)
            rows.append(tuple(Fr(a, s) for a in w))
        P = cl.CellKernel(tuple(rows))
        rho, nu2, Q = cl.dual_kernel(nu1, P)
        rho_f, nu2_f, Q_f = cl.dual_kernel(cl.refine_space(nu1),
                                           cl.refine_kernel(P))
        back = cl.aggregate_product(rho_f)
        assert back.matrix == rho.matrix
        assert cl.aggregate_cells(nu2_f.masses) == nu2.masses

    check()
