"""Network layer: conductances, the averaging kernel M, the Laplacian,
harmonic solving, energy forms, and the compiled random walk."""

import dataclasses

import numpy as np
import pytest

from bratteli import diagram as dg
from bratteli import laplacian as lp
from bratteli import markov as mk

from bratteli import measures as ms

from conftest import (DRUNKEN, allones_network, random_system,
                      uniform_allones_system)


def deterministic_network(depth=2):
    d = dg.stationary_diagram([[0, 1], [1, 0]], depth)
    probs = tuple({(0, 1): 1.0, (1, 0): 1.0} for _ in range(depth))
    sysm = mk.explicit_system(d, [0.5, 0.5], probs)
    return lp.build_network(mk.dual_kernels(sysm))


def alternating(net):
    return lp.LevelFunction.of(
        [np.full(len(q), (-1.0) ** n) for n, q in enumerate(net.kernels.q)])


# -- construction ------------------------------------------------------------

def test_uniform_conductances_are_one_eighth():
    # every conductance is 1/8: two edges per end vertex, four inside
    net = allones_network(4)
    for n, m in enumerate(net.vertex_mass):
        assert np.array_equal(m, np.full(2, 0.25 if n in (0, 4) else 0.5))
    assert net.mass_vs_q_dev == 0.0


def test_vertex_masses_match_q_inside():
    net = allones_network(4)
    for n in range(1, 4):
        assert np.array_equal(net.vertex_mass[n], net.kernels.q[n])
    assert np.array_equal(net.vertex_mass[0], 0.5 * net.kernels.q[0])
    assert np.array_equal(net.vertex_mass[4], 0.5 * net.kernels.q[4])


def test_deterministic_chain_conductance():
    net = deterministic_network(2)
    # single edge per vertex and level pair: c = q/2 = 1/4 on it
    for n, m in enumerate(net.vertex_mass):
        assert np.array_equal(m, np.full(2, 0.5 if n == 1 else 0.25))


def test_balance_violation_detected():
    hk = mk.dual_kernels(uniform_allones_system(2))
    skew = tuple(q * 1.1 for q in hk.qhat_values)
    bad = dataclasses.replace(hk, qhat_values=skew)
    with pytest.raises(lp.BalanceViolation) as exc:
        lp.build_network(bad)
    assert exc.value.level == 0


def two_pass_masses(hk):
    """Vertex masses as sums over dense conductance matrices: the row sums
    of the level above, then the column sums of the level below."""
    conduct = [0.5 * hk.q[n][:, None] * hk.phat[n] for n in range(hk.depth)]
    masses = []
    for n in range(hk.depth + 1):
        m = np.zeros(len(hk.q[n]))
        if n < hk.depth:
            m += conduct[n].sum(axis=1)
        if n > 0:
            m += conduct[n - 1].sum(axis=0)
        masses.append(m)
    return masses


def test_random_networks_build():
    for seed in range(12):
        net = lp.build_network(mk.dual_kernels(random_system(seed)))
        assert net.mass_vs_q_dev < 1e-12
        for got, want in zip(net.vertex_mass, two_pass_masses(net.kernels)):
            assert np.array_equal(got, want)


def dense_violation(hk):
    """(level, v, u, delta) of the first level whose dense conductance
    sides disagree: both scattered to m_n x m_{n+1} arrays, the worst
    relative gap taken by argmax in C order; None for a dual pair."""
    for n in range(hk.depth):
        up = 0.5 * hk.q[n][:, None] * hk.phat[n]
        down = 0.5 * (hk.q[n + 1][:, None] * hk.qhat[n]).T
        delta = np.abs(up - down)
        scale = np.maximum(np.abs(up), 1e-300)
        if (delta > lp.BALANCE_TOL * scale).any():
            v, u = np.unravel_index(int(np.argmax(delta / scale)), up.shape)
            return (n, int(hk.diagram.vertices(n)[v]),
                    int(hk.diagram.vertices(n + 1)[u]), float(delta[v, u]))
    return None


def skewed(hk, seed, mode):
    """hk with Q-hat scaled: by 1.1 everywhere, so that near-ties decide
    the worst edge; by up to 1 + 1e-6 on a random third of the edges; or
    by 1 + 1e-9 on one edge of the last level only."""
    rng = np.random.default_rng(seed)
    qv = [np.array(q) for q in hk.qhat_values]
    for n, q in enumerate(qv):
        if mode == "all":
            q *= 1.1
        elif mode == "some":
            hit = rng.random(len(q)) < 0.3
            q[hit] *= 1 + rng.random(int(hit.sum())) * 1e-6
        elif n == hk.depth - 1:
            q[rng.integers(len(q))] *= 1 + 1e-9
    return dataclasses.replace(hk, qhat_values=tuple(qv))


@pytest.mark.parametrize("mode", ["all", "some", "one"])
def test_balance_violation_matches_dense_reference(mode):
    systems = [random_system(seed) for seed in range(12)]
    d = dg.band_diagram(DRUNKEN, 8, dg.Window(-30, 30, 2))
    mu, _ = ms.stationary_pf_measure(d, normalization="probability")
    systems.append(mk.markov_from_tail_invariant(d, mu))
    for seed, sysm in enumerate(systems):
        bad = skewed(mk.dual_kernels(sysm), seed, mode)
        with pytest.raises(lp.BalanceViolation) as exc:
            lp.build_network(bad)
        e = exc.value
        assert (e.level, e.v, e.u, e.delta) == dense_violation(bad)


def _arrays(obj, seen=None):
    """Every ndarray reachable from obj through containers and the
    attributes of package objects; a LevelRows gives its per-level rows."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dg.LevelRows):   # stored as (levels, ...) blocks
        children = list(obj)
    elif isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (tuple, list, set, frozenset)):
        children = obj
    elif type(obj).__module__.startswith("bratteli."):
        children = [*getattr(obj, "__dict__", {}).values(),
                    *(getattr(obj, k) for k in getattr(obj, "__slots__", ())
                      if hasattr(obj, k))]
    else:
        return
    for child in children:
        yield from _arrays(child, seen)


def test_networks_hold_no_dense_kernel():
    """Kernels are stored as edge values: no 2-D array is reachable from
    dual_kernels or build_network, also after the network was used."""
    d = dg.band_diagram(DRUNKEN, depth=5, window=dg.Window(-14, 14, 2))
    mu, _ = ms.stationary_pf_measure(d)
    for sysm in (random_system(1), mk.markov_from_tail_invariant(d, mu)):
        hk = mk.dual_kernels(sysm)
        assert all(a.ndim == 1 for a in _arrays(hk))
        net = lp.build_network(hk)
        sol = lp.solve_harmonic(net, 0.0, 1.0)
        lp.energy_norm(net, sol.f)
        lp.walk(net, (0, sysm.diagram.vertices(0)[0]), steps=5, trials=3)
        found = list(_arrays(net))
        assert found and all(a.ndim == 1 for a in found)


# -- M and Delta -------------------------------------------------------------

def test_constants_are_harmonic():
    net = allones_network(5)
    f = lp.LevelFunction.constant(net, 3.0)
    mf = lp.apply_M(net, f)
    for v in mf.values:
        assert np.array_equal(v, np.full_like(v, 3.0))
    delta = lp.apply_Delta(net, f)
    assert max(np.abs(v).max() for v in delta.values) == 0.0


def test_alternating_mode():
    net = allones_network(6)
    f = alternating(net)
    mf = lp.apply_M(net, f)
    for n in range(7):
        assert np.array_equal(mf.values[n], -f.values[n])
    delta = lp.apply_Delta(net, f)
    for n in range(1, 6):
        # interior: Delta f = 2 q (-1)^n with q = 1/2
        assert np.array_equal(delta.values[n], np.full(2, (-1.0) ** n))
    assert np.array_equal(delta.values[0], np.full(2, 0.5))


def test_qM_identity():
    assert lp.qM_identity_residual(allones_network(6)) == 0.0
    for seed in (1, 6):
        net = lp.build_network(mk.dual_kernels(random_system(seed)))
        assert lp.qM_identity_residual(net) < 1e-13


def test_function_shape_checked():
    net = allones_network(3)
    f = lp.LevelFunction.of([np.zeros(2)] * 3)
    with pytest.raises(lp.DimensionMismatch):
        lp.apply_M(net, f)


# -- harmonic solving ----------------------------------------------------------

def test_harmonic_profile_is_linear():
    net = allones_network(6)
    sol = lp.solve_harmonic(net, 0.0, 1.0)
    assert sol.residual < 1e-8
    assert sol.max_principle_ok
    for n in range(7):
        assert np.abs(sol.f.values[n] - n / 6.0).max() < 1e-6


def test_harmonic_constant_boundary():
    net = allones_network(5)
    sol = lp.solve_harmonic(net, 1.0, 1.0)
    for v in sol.f.values:
        assert np.abs(v - 1.0).max() < 1e-7


def test_harmonic_vector_boundary():
    net = lp.build_network(mk.dual_kernels(random_system(21, depth=4)))
    bottom = np.linspace(0.2, 0.8, len(net.kernels.q[0]))
    top = np.linspace(1.0, 2.0, len(net.kernels.q[4]))
    sol = lp.solve_harmonic(net, bottom, top)
    assert np.array_equal(sol.f.values[0], bottom)
    assert np.array_equal(sol.f.values[4], top)
    assert sol.residual < 1e-8
    assert sol.max_principle_ok


def dense_harmonic_levels(net, bottom, top):
    """The interior equations 2 f_n - phat_n f_{n+1} - qhat_{n-1} f_{n-1} = 0
    as one dense system, with the pinned ends moved to the right side."""
    hk = net.kernels
    N = net.depth
    sizes = [len(q) for q in hk.q]
    f0 = np.broadcast_to(np.asarray(bottom, dtype=np.float64), (sizes[0],))
    fN = np.broadcast_to(np.asarray(top, dtype=np.float64), (sizes[N],))
    off = np.concatenate(([0], np.cumsum(sizes[1:N])))
    A = 2.0 * np.eye(off[-1])
    b = np.zeros(off[-1])
    for n in range(1, N):
        rows = slice(off[n - 1], off[n])
        if n + 1 < N:
            A[rows, off[n]:off[n + 1]] = -hk.phat[n]
        else:
            b[rows] += hk.phat[n] @ fN
        if n > 1:
            A[rows, off[n - 2]:off[n - 1]] = -hk.qhat[n - 1]
        else:
            b[rows] += hk.qhat[0] @ f0
    x = np.linalg.solve(A, b)
    return [f0] + [x[off[n - 1]:off[n]] for n in range(1, N)] + [fN]


@pytest.mark.parametrize("seed", [0, 5, 9, 33])
@pytest.mark.parametrize("vector_boundary", [False, True])
def test_harmonic_matches_dense_solve(seed, vector_boundary):
    net = lp.build_network(mk.dual_kernels(random_system(seed)))
    sizes = [len(q) for q in net.kernels.q]
    assert len(set(sizes)) > 1
    if vector_boundary:
        rng = np.random.default_rng(seed)
        bottom = rng.uniform(-1.0, 0.0, sizes[0])
        top = rng.uniform(1.0, 2.0, sizes[-1])
    else:
        bottom, top = 0.0, 1.0
    sol = lp.solve_harmonic(net, bottom, top)
    expect = dense_harmonic_levels(net, bottom, top)
    for got, want in zip(sol.f.values, expect):
        assert np.abs(got - want).max() <= 1e-12
    assert sol.residual <= 1e-12
    assert sol.max_principle_ok


# -- energy --------------------------------------------------------------------

def test_alternating_energy_two_per_level():
    depth = 5
    net = allones_network(depth)
    er = lp.energy_norm(net, alternating(net))
    assert er.direct == pytest.approx(2.0 * depth, abs=1e-12)
    assert er.agreement < 1e-12


def test_constant_energy_zero():
    net = allones_network(4)
    er = lp.energy_norm(net, lp.LevelFunction.constant(net, 7.0))
    assert er.direct == 0.0
    assert abs(er.operator_form) < 1e-12


def test_energy_forms_agree_on_random_functions():
    rng = np.random.default_rng(41)
    net = lp.build_network(mk.dual_kernels(random_system(3)))
    for _ in range(50):
        f = lp.LevelFunction.of(
            [rng.standard_normal(len(q)) for q in net.kernels.q])
        er = lp.energy_norm(net, f)
        assert er.agreement < 1e-10


# -- random walk ---------------------------------------------------------------

def test_two_level_walk_oscillates():
    net = deterministic_network(1)
    stats = lp.walk(net, (0, 0), steps=10, trials=32, seed=3)
    assert stats.return_probability == 1.0
    # deterministic flip: the trace alternates between the two levels
    levels = [s[0] for s in stats.trace.states]
    assert levels == [0, 1] * 5 + [0]


def test_walk_seed_determinism():
    net = allones_network(5)
    a = lp.walk(net, (2, 0), steps=100, trials=200, seed=7)
    b = lp.walk(net, (2, 0), steps=100, trials=200, seed=7)
    assert np.array_equal(a.returns, b.returns)
    assert a.trace.states == b.trace.states
    c = lp.walk(net, (2, 0), steps=100, trials=200, seed=8)
    assert not np.array_equal(a.returns, c.returns)


def test_walk_return_frequency_matches_transfer_matrix():
    """Empirical return frequency vs. the exact chain power, within 3 sigma."""
    depth, steps, trials = 3, 12, 4000
    net = allones_network(depth)
    # exact chain on the flattened 8-state space
    rowptr, cum, tgt, _, offsets = lp._flatten(net)
    m = len(rowptr)
    P = np.zeros((m, m))
    for s in range(m):
        lo = rowptr[s]
        hi = rowptr[s + 1] if s + 1 < m else len(cum)
        prev = 0.0
        for k in range(lo, hi):
            P[s, tgt[k]] += cum[k] - prev
            prev = cum[k]
    start = offsets[1]          # state (1, 0)
    p_return = 0.0
    row = np.zeros(m)
    row[start] = 1.0
    hit = np.zeros(trials)
    # exact probability that the walk is at start after k steps, any k
    probs = []
    for _ in range(steps):
        row = row @ P
        probs.append(row[start])
    stats = lp.walk(net, (1, 0), steps=steps, trials=trials, seed=5)
    exact_mean = float(np.sum(probs)) / steps
    se = np.sqrt(exact_mean * (1 - exact_mean) / (trials * steps))
    assert abs(stats.mean_returns_per_step - exact_mean) < 4 * se


def _dense_row_flatten(net):
    """Reference move table: np.nonzero over the dense P-hat and Q-hat rows
    of one state at a time, up-moves first."""
    hk = net.kernels
    sizes = [len(q) for q in hk.q]
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    level_of = np.concatenate([np.full(s, n, dtype=np.int64)
                               for n, s in enumerate(sizes)])
    rowptr, cum, tgt = [0], [], []
    N = net.depth
    for n, s in enumerate(sizes):
        for i in range(s):
            moves = []
            if n < N:
                row = hk.phat[n][i]
                moves += [((1.0 if n == 0 else 0.5) * row[j], offsets[n + 1] + j)
                          for j in np.nonzero(row)[0]]
            if n > 0:
                row = hk.qhat[n - 1][i]
                moves += [((1.0 if n == N else 0.5) * row[j], offsets[n - 1] + j)
                          for j in np.nonzero(row)[0]]
            acc = np.cumsum([p for p, _ in moves])
            acc[-1] = 1.0
            cum.extend(acc.tolist())
            tgt.extend(j for _, j in moves)
            rowptr.append(len(cum))
    return (np.asarray(rowptr[:-1], dtype=np.int64),
            np.asarray(cum, dtype=np.float64),
            np.asarray(tgt, dtype=np.int64), level_of, offsets)


def clipped_band_network():
    """The DRUNKEN band on a small window: clipped rows were renormalized."""
    d = dg.band_diagram(DRUNKEN, 4, dg.Window(-12, 12, 2))
    mu, _ = ms.stationary_pf_measure(d, normalization="probability")
    sysm = mk.markov_from_tail_invariant(d, mu)
    assert sysm.normalized
    return lp.build_network(mk.dual_kernels(sysm))


@pytest.mark.parametrize("make", [
    *(lambda seed=seed: lp.build_network(mk.dual_kernels(random_system(seed)))
      for seed in range(8)),
    clipped_band_network, lambda: allones_network(5), deterministic_network],
    ids=[*(f"random{seed}" for seed in range(8)), "clipped_band", "allones",
         "deterministic"])
def test_flatten_matches_dense_rows(make):
    net = make()
    names = ("rowptr", "cum", "tgt", "level_of", "offsets")
    for name, got, want in zip(names, lp._flatten(net),
                               _dense_row_flatten(net)):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_hitting_matches_harmonic():
    net = allones_network(6)
    sol = lp.solve_harmonic(net, 0.0, 1.0)
    est = lp.hitting_probability(net, (2, 0), trials=20_000, seed=11)
    expect = sol.f.values[2][0]
    assert est.timeouts == 0
    assert abs(est.estimate - expect) < 3 * est.stderr


def test_hitting_seed_determinism():
    net = allones_network(4)
    a = lp.hitting_probability(net, (2, 0), trials=2000, seed=9)
    b = lp.hitting_probability(net, (2, 0), trials=2000, seed=9)
    assert (a.top_hits, a.bottom_hits, a.timeouts) == \
        (b.top_hits, b.bottom_hits, b.timeouts)
    c = lp.hitting_probability(net, (2, 0), trials=2000, seed=10)
    assert (a.top_hits, a.bottom_hits) != (c.top_hits, c.bottom_hits)


@pytest.mark.parametrize("steps, trials", [(0, 10), (-3, 10), (10, 0),
                                           (10, -3)])
def test_walk_rejects_empty_runs(steps, trials):
    with pytest.raises(ValueError):
        lp.walk(allones_network(3), (1, 0), steps=steps, trials=trials)


@pytest.mark.parametrize("trials", [0, -3])
def test_hitting_rejects_empty_runs(trials):
    with pytest.raises(ValueError):
        lp.hitting_probability(allones_network(3), (1, 0), trials=trials)


@pytest.mark.parametrize("max_steps", [-1, -50])
def test_hitting_rejects_negative_max_steps(max_steps):
    with pytest.raises(ValueError, match=f"max_steps .*{max_steps}"):
        lp.hitting_probability(allones_network(3), (1, 0), trials=10,
                               max_steps=max_steps)


def test_walk_start_must_exist():
    net = allones_network(3)
    with pytest.raises(KeyError):
        lp.walk(net, (1, 9), steps=5, trials=4)
