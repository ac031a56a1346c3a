"""Sampling kernels: seed streams are exact integer arithmetic, and the
lockstep numpy kernels reproduce, bit for bit, a plain scalar loop that
runs one trial at a time."""

import math
import os
import warnings

import numpy as np
import pytest

from bratteli import _accel
from bratteli import cells as cl
from bratteli import laplacian as lp
from bratteli import markov as mk

from conftest import allones_network, random_system

M1, M2 = _accel.M1, _accel.M2

# walk(allones depth 6, start (2,0), steps=200, trials=500, seed=42)
RETURNS_HEAD = [22, 18, 19, 21, 12, 17, 22, 17, 22, 15]
RETURNS_TOTAL = 8525


# -- seed streams ------------------------------------------------------------

def test_trial_seeds_deterministic():
    a1, a2 = _accel.trial_seeds(42, 100)
    b1, b2 = _accel.trial_seeds(42, 100)
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
    c1, _ = _accel.trial_seeds(43, 100)
    assert not np.array_equal(a1, c1)


def test_trial_seeds_prefix_stable():
    # trial t's stream cannot depend on how many trials were requested
    a1, a2 = _accel.trial_seeds(7, 10)
    b1, b2 = _accel.trial_seeds(7, 1000)
    assert np.array_equal(a1, b1[:10]) and np.array_equal(a2, b2[:10])


def test_trial_seeds_in_range():
    s1, s2 = _accel.trial_seeds(123456789, 5000)
    assert s1.min() >= 1 and s1.max() <= M1 - 1
    assert s2.min() >= 1 and s2.max() <= M2 - 1


def test_trial_seeds_match_integer_reference():
    s1, s2 = _accel.trial_seeds(42, 4)
    for t in range(4):
        r1 = ((42 * 2654435761 + t * 40503 + 12345) % 2 ** 64) % (M1 - 1) + 1
        r2 = ((42 * 1779033703 + t * 69069 + 97531) % 2 ** 64) % (M2 - 1) + 1
        assert int(s1[t]) == r1 and int(s2[t]) == r2


# trial_seeds(seed, 2) as the former numpy scalar product gave them, with
# an overflow warning for these seeds
SEED_WORDS = {
    -3: ([626668895, 626709398], [1105696617, 1105765686]),
    -1: ([1640573293, 1640613796], [368797227, 368866296]),
    0: ([12346, 52849], [97532, 166601]),
    7: ([1401194177, 1401234680], [1715916463, 1715985532]),
    2 ** 40: ([1170421014, 1170461517], [1443024408, 1443093477]),
    10 ** 12: ([1316062668, 1316103171], [954889420, 954958489]),
    2 ** 63 + 5: ([387304571, 387345074], [305457455, 305526524]),
}


@pytest.mark.parametrize("seed, words", [
    *((s, s) for s in sorted(SEED_WORDS)),
    (np.int64(7), 7), (np.uint64(7), 7), (np.int64(-3), -3),
    (np.uint64(2 ** 63 + 5), 2 ** 63 + 5)])
def test_trial_seeds_wrap_without_warning(seed, words):
    # a numpy integer seed gives the words of the same Python int
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s1, s2 = _accel.trial_seeds(seed, 2)
    assert (s1.tolist(), s2.tolist()) == SEED_WORDS[words]


def test_generator_products_fit_int64():
    # the words are float64 arrays of exact integers: every product a*s
    # fits in 47 bits, inside int64 and inside float64's 53-bit mantissa
    assert _accel.A1 * (M1 - 1) < 2 ** 47
    assert _accel.A2 * (M2 - 1) < 2 ** 47
    for a, m in ((_accel.A1, M1), (_accel.A2, M2)):
        assert a * (m - 1) < 2 ** 53
        # m is prime, so a*s/m (0 < s < m) is never an integer and lies at
        # least 1/m from one; the quotient is below a, so its rounding
        # (half an ulp of a) cannot carry it across: floor is exact
        assert all(m % p for p in range(2, math.isqrt(m) + 1))
        assert math.ulp(float(a)) < 1 / m


def _preimages(a, m, targets):
    """States s with a*s = target (mod m)."""
    inv = pow(a, -1, m)
    return [x * inv % m for x in targets]


@pytest.mark.parametrize("a, m", [(_accel.A1, M1), (_accel.A2, M2)])
def test_float_words_match_integer_recursion(a, m):
    rng = np.random.default_rng(20)
    ref = ([1, m - 1] + _preimages(a, m, [1, -1, 2, -2])
           + rng.integers(1, m, 100_000).tolist())
    s = np.array(ref, dtype=np.float64)
    t = np.empty_like(s)
    for _ in range(4):
        _accel._advance(s, a, m, t)
        ref = [a * x % m for x in ref]
        assert np.array_equal(s, np.array(ref, dtype=np.float64))


def test_float_uniform_matches_integer_formula():
    # advanced words that put s1 - s2 at 0, at both signs of 1 and at the
    # ends of its range
    ends = [(1, 1), (7, 7), (2, 1), (1, 2), (M1 - 1, 1), (1, M2 - 1),
            (M1 - 1, M2 - 1), (12345, 678910)]
    s1 = _preimages(_accel.A1, M1, [e[0] for e in ends])
    s2 = _preimages(_accel.A2, M2, [e[1] for e in ends])
    f1, f2 = np.array(s1, dtype=np.float64), np.array(s2, dtype=np.float64)
    u = _accel._uniform(f1, f2, np.empty_like(f1))
    assert [(int(x), int(y)) for x, y in zip(f1, f2)] == ends
    assert u.tolist() == [_next(x, y)[2] for x, y in zip(s1, s2)]


# -- scalar reference: one trial at a time, Python integers -------------------

def _next(s1, s2):
    s1 = (_accel.A1 * s1) % M1
    s2 = (_accel.A2 * s2) % M2
    return s1, s2, ((s1 - s2) % (M1 - 1)) / M1


def _step(rowptr, cum, tgt, state, s1, s2):
    s1, s2, u = _next(s1, s2)
    j = int(rowptr[state])
    while u >= cum[j]:
        j += 1
    return int(tgt[j]), s1, s2


def ref_walk(rowptr, cum, tgt, start, steps, s1s, s2s):
    """Returns per trial, and trial 0's states."""
    returns, paths = [], []
    for s1, s2 in zip(s1s.tolist(), s2s.tolist()):
        state, cnt, path = int(start), 0, [int(start)]
        for _ in range(steps):
            state, s1, s2 = _step(rowptr, cum, tgt, state, s1, s2)
            cnt += state == start
            path.append(state)
        returns.append(cnt)
        paths.append(path)
    return returns, paths[0]


def ref_hitting_moves(rowptr, cum, tgt, level_of, start, bot, top,
                      max_steps, s1s, s2s):
    """(result, moves) per trial; a timeout counts its max_steps moves."""
    out = []
    for s1, s2 in zip(s1s.tolist(), s2s.tolist()):
        state, res, moves = int(start), -1, 0
        for moves in range(max_steps + 1):
            lvl = level_of[state]
            if lvl == bot:
                res = 0
                break
            if lvl == top:
                res = 1
                break
            state, s1, s2 = _step(rowptr, cum, tgt, state, s1, s2)
        out.append((res, moves))
    return out


def ref_hitting(*args):
    return [res for res, _ in ref_hitting_moves(*args)]


def ref_chain(rowptr, cum, tgt, offsets, strides, x0, ncyl, s1s, s2s):
    """Cylinder counts, one trial at a time over the move table."""
    counts = [0] * ncyl
    for s1, s2 in zip(s1s.tolist(), s2s.tolist()):
        state, idx = int(x0), 0
        for k in range(len(strides)):
            state, s1, s2 = _step(rowptr, cum, tgt, state, s1, s2)
            idx += (state - int(offsets[k + 1])) * int(strides[k])
        counts[idx] += 1
    return counts


def spy(monkeypatch, name):
    """Record the arguments and result of every call to an _accel kernel."""
    calls = []
    real = getattr(_accel, name)

    def recorded(*args):
        result = real(*args)
        calls.append((args, result))
        return result
    monkeypatch.setattr(_accel, name, recorded)
    return calls


def cpus(monkeypatch, n):
    """Make the kernels see n available CPUs and no CPU quota."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(_accel, "_QUOTA_FILES", ())


# shard size for the tests that compare shard counts, so that short walks
# shard; the real thresholds are tested on their own
SMALL = 1 << 12


@pytest.fixture
def small_shards(monkeypatch):
    monkeypatch.setattr(_accel, "SHARD_MIN", SMALL)
    monkeypatch.setattr(_accel, "SHARD_WORK", SMALL)


def count_forks(monkeypatch, fail_at=None):
    """Count, in this process, the children the kernels fork; once
    `fail_at` have been forked, every further fork raises OSError."""
    forks = []
    real = os.fork

    def counted():
        if len(forks) == fail_at:
            raise OSError("no more processes")
        pid = real()
        if pid:
            forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return forks


def random_network(seed):
    return lp.build_network(mk.dual_kernels(random_system(seed)))


def kernel_chain():
    nu0 = cl.CellSpace((0.5, 0.5))
    ks = [cl.kernel_from(m) for m in ([[0.7, 0.3], [0.4, 0.6]],
                                      [[0.2, 0.8], [0.5, 0.5]],
                                      [[0.9, 0.1], [0.3, 0.7]])]
    spaces = [nu0]
    for k in ks:
        spaces.append(cl.CellSpace(tuple(spaces[-1].nu(False)
                                         @ k.array(False))))
    return spaces, ks


def uneven_chain():
    """Cell counts 2, 3, 4, 3 with zero entries inside the rows."""
    ks = [cl.kernel_from(m) for m in (
        [[0.5, 0.0, 0.5], [0.1, 0.6, 0.3]],
        [[0.25, 0.25, 0.0, 0.5], [0.0, 0.0, 1.0, 0.0], [0.4, 0.3, 0.2, 0.1]],
        [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.3, 0.3, 0.4]])]
    spaces = [cl.CellSpace((0.3, 0.7))]
    for k in ks:
        spaces.append(cl.CellSpace(tuple(spaces[-1].nu(False)
                                         @ k.array(False))))
    return spaces, ks


# -- frozen trajectories ------------------------------------------------------

def test_walk_returns_frozen_oracle():
    st = lp.walk(allones_network(6), (2, 0), steps=200, trials=500, seed=42)
    assert st.returns[:10].tolist() == RETURNS_HEAD
    assert int(st.returns.sum()) == RETURNS_TOTAL


# -- lockstep equals the scalar reference ------------------------------------

def _check_walk(monkeypatch, net, start, steps, trials, seed):
    calls = spy(monkeypatch, "walk_returns_kernel")
    st = lp.walk(net, start, steps=steps, trials=trials, seed=seed)
    (args, (returns, path)), = calls
    ref_returns, ref_path = ref_walk(*args)
    assert returns.tolist() == ref_returns
    assert path.tolist() == ref_path
    assert st.returns.tolist() == ref_returns
    assert len(st.trace.states) == steps + 1
    return st


def test_walk_matches_scalar_reference(monkeypatch):
    st = _check_walk(monkeypatch, allones_network(6), (2, 0), 200, 500, 42)
    assert st.returns[:10].tolist() == RETURNS_HEAD


def test_walk_across_blocks_matches_scalar_reference(monkeypatch):
    trials = _accel.BLOCK + 37
    _check_walk(monkeypatch, allones_network(4), (1, 0), 5, trials, 3)


@pytest.mark.parametrize("seed", [0, 5, 12])
def test_walk_uneven_rows_matches_scalar_reference(monkeypatch, seed):
    net = random_network(seed)
    start = (2, net.kernels.diagram.vertices(2)[0])
    _check_walk(monkeypatch, net, start, 60, 300, seed)


def _check_hitting(monkeypatch, net, start, trials, seed, max_steps):
    calls = spy(monkeypatch, "walk_hitting_kernel")
    est = lp.hitting_probability(net, start, trials=trials, seed=seed,
                                 max_steps=max_steps)
    (args, res), = calls
    assert res.tolist() == ref_hitting(*args)
    return est


def test_hitting_matches_scalar_reference(monkeypatch):
    est = _check_hitting(monkeypatch, allones_network(6), (3, 1), 3000, 5,
                         10_000)
    assert est.timeouts == 0
    assert est.top_hits + est.bottom_hits == 3000


def test_hitting_timeouts_match_scalar_reference(monkeypatch):
    est = _check_hitting(monkeypatch, allones_network(8), (4, 0), 2000, 11,
                         6)
    assert est.timeouts > 0 and est.top_hits + est.bottom_hits > 0
    assert est.top_hits + est.bottom_hits + est.timeouts == 2000


def test_hitting_zero_steps_decides_only_the_start(monkeypatch):
    net = allones_network(4)
    est = _check_hitting(monkeypatch, net, (2, 0), 50, 1, 0)
    assert est.timeouts == 50
    # no decided trial: no estimate, not a certain 0
    assert math.isnan(est.estimate) and est.stderr == math.inf
    est = _check_hitting(monkeypatch, net, (4, 1), 50, 1, 0)
    assert est.top_hits == 50
    assert est.estimate == 1.0 and est.stderr == math.sqrt(1e-300 / 50)


def test_hitting_across_blocks_matches_scalar_reference(monkeypatch):
    trials = _accel.BLOCK + 101
    _check_hitting(monkeypatch, allones_network(3), (1, 0), trials, 2, 40)


def test_hitting_pool_timeouts_match_scalar_reference(monkeypatch):
    # refilled trials join at different steps, so their deadlines differ
    trials = 2 * _accel.BLOCK + 37
    est = _check_hitting(monkeypatch, allones_network(8), (4, 0), trials, 8,
                         5)
    assert est.timeouts > _accel.BLOCK
    assert est.top_hits > 0 and est.bottom_hits > 0


@pytest.mark.parametrize("start, side", [((0, 1), "bottom_hits"),
                                         ((4, 0), "top_hits")])
def test_hitting_absorbing_start_over_a_block(monkeypatch, start, side):
    trials = _accel.BLOCK + 3
    est = _check_hitting(monkeypatch, allones_network(4), start, trials, 6,
                         10)
    assert getattr(est, side) == trials


def test_hitting_pool_pays_one_straggler_tail(monkeypatch):
    # a block at a time pays each block's longest walk; the refilled pool
    # moves fewer times than their sum.  One shard, so that every move is
    # made, and counted, in this process.
    cpus(monkeypatch, 1)
    moves = spy(monkeypatch, "_move")
    calls = spy(monkeypatch, "walk_hitting_kernel")
    trials = 2 * _accel.BLOCK + 37
    lp.hitting_probability(allones_network(6), (1, 0), trials=trials, seed=3)
    (args, res), = calls
    ref = ref_hitting_moves(*args)
    assert res.tolist() == [r for r, _ in ref]
    longest = [max(m for _, m in ref[lo:lo + _accel.BLOCK])
               for lo in range(0, trials, _accel.BLOCK)]
    assert len(moves) < sum(longest)
    assert len(moves) >= max(m for _, m in ref)


@pytest.mark.parametrize("seed", [0, 5, 12])
def test_hitting_uneven_rows_matches_scalar_reference(monkeypatch, seed):
    net = random_network(seed)
    start = (3, net.kernels.diagram.vertices(3)[0])
    _check_hitting(monkeypatch, net, start, 400, seed, 25)


def _check_chain(monkeypatch, spaces, kernels, x0, depth, trials, seed):
    calls = spy(monkeypatch, "sample_chain_kernel")
    rep = cl.path_measure_sample(spaces, kernels, x0, depth, seed=seed,
                                 trials=trials)
    (args, counts), = calls
    assert counts.tolist() == ref_chain(*args)
    assert int(rep.counts.sum()) == trials
    return rep


# frozen path_measure_sample counts: kernel_chain() from cell 1, depth 3,
# seed 4, BLOCK + 500 trials, and uneven_chain() from cell 0, depth 3,
# seed 21, 3000 trials
CHAIN_COUNTS = [1228, 130, 1634, 3762, 4557, 514, 1508, 3551]
UNEVEN_COUNTS = [71, 111, 190, 376, 0, 0, 0, 0, 0, 229, 226, 296,
                 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                 126, 182, 294, 447, 0, 0, 0, 156, 148, 43, 40, 65]


def test_chain_counts_frozen_oracle():
    spaces, ks = kernel_chain()
    rep = cl.path_measure_sample(spaces, ks, 1, 3, seed=4,
                                 trials=_accel.BLOCK + 500)
    assert rep.counts.ravel().tolist() == CHAIN_COUNTS
    spaces, ks = uneven_chain()
    rep = cl.path_measure_sample(spaces, ks, 0, 3, seed=21, trials=3000)
    assert rep.counts.ravel().tolist() == UNEVEN_COUNTS


@pytest.mark.parametrize("chain", [kernel_chain, uneven_chain])
def test_chain_table_rows_are_kernel_cumsums(monkeypatch, chain):
    # every kernel entry is a move, zeros included, so each cell's row is
    # np.cumsum of its kernel row with the last entry forced to 1.0
    spaces, ks = chain()
    calls = spy(monkeypatch, "sample_chain_kernel")
    cl.path_measure_sample(spaces, ks, 0, len(ks), trials=10)
    (args, _), = calls
    rowptr, cum, tgt, offsets = args[:4]
    for k, K in enumerate(ks):
        acc = np.cumsum(K.array(False), axis=1)
        acc[:, -1] = 1.0
        cells = list(range(offsets[k + 1], offsets[k + 2]))
        for i, row in enumerate(acc):
            j = rowptr[offsets[k] + i]
            assert cum[j:j + len(row)].tolist() == row.tolist()
            assert tgt[j:j + len(row)].tolist() == cells


def test_chain_matches_scalar_reference(monkeypatch):
    spaces, ks = kernel_chain()
    _check_chain(monkeypatch, spaces, ks, 0, 3, 4000, 9)


def test_chain_across_blocks_matches_scalar_reference(monkeypatch):
    spaces, ks = kernel_chain()
    _check_chain(monkeypatch, spaces, ks, 1, 2, _accel.BLOCK + 500, 4)


@pytest.mark.parametrize("x0", [0, 1])
def test_chain_uneven_widths_matches_scalar_reference(monkeypatch, x0):
    spaces, ks = uneven_chain()
    rep = _check_chain(monkeypatch, spaces, ks, x0, 3, 3000, 21)
    assert rep.shape == (3, 4, 3)


# -- shards: forked children give the answers of one process -----------------

# (trials, forks at 1, 2 and 3 CPUs): below, across and above SMALL,
# none a multiple of 2 or 3 shards, the last with shards over a BLOCK
SHARD_TRIALS = [(SMALL - 1, [0, 0, 0]),
                (2 * SMALL + 1, [0, 1, 1]),
                (3 * SMALL + 1, [0, 1, 2]),
                (2 * _accel.BLOCK + 1, [0, 1, 2])]


def walk_call(trials):
    net = allones_network(4)
    return lambda: lp.walk(net, (1, 0), steps=5, trials=trials, seed=3)


def _sharded_calls(monkeypatch, call):
    """The call's results at 1, 2 and 3 CPUs, and the forks each made."""
    forked = count_forks(monkeypatch)
    results, forks = [], []
    for n in (1, 2, 3):
        cpus(monkeypatch, n)
        before = len(forked)
        results.append(call())
        forks.append(len(forked) - before)
    return results, forks


@pytest.mark.usefixtures("small_shards")
@pytest.mark.parametrize("trials, want_forks", SHARD_TRIALS)
def test_sharded_walk_equals_one_shard(monkeypatch, trials, want_forks):
    calls = spy(monkeypatch, "walk_returns_kernel")
    stats, forks = _sharded_calls(monkeypatch, walk_call(trials))
    assert forks == want_forks
    (_, (returns, path)), *rest = calls
    assert returns.shape == (trials,)
    for _, (r, p) in rest:
        assert r.tolist() == returns.tolist()
        assert p.tolist() == path.tolist()
    assert len({st.trace for st in stats}) == 1


@pytest.mark.usefixtures("small_shards")
@pytest.mark.parametrize("trials, want_forks", SHARD_TRIALS)
@pytest.mark.parametrize("start, max_steps", [((4, 0), 6), ((8, 1), 6),
                                              ((4, 0), 0)])
def test_sharded_hitting_equals_one_shard(monkeypatch, trials, want_forks,
                                          start, max_steps):
    # (4, 0) with 6 steps has timeouts; (8, 1) starts absorbed at the top
    # and 0 steps decides only the start, so neither walks or forks
    net = allones_network(8)
    calls = spy(monkeypatch, "walk_hitting_kernel")
    estimates, forks = _sharded_calls(
        monkeypatch, lambda: lp.hitting_probability(
            net, start, trials=trials, seed=8, max_steps=max_steps))
    (_, res), *rest = calls
    assert res.shape == (trials,)
    for _, r in rest:
        assert r.tolist() == res.tolist()
    if start == (4, 0) and max_steps:
        assert forks == want_forks
        assert estimates[0].timeouts > 0
    else:
        assert forks == [0, 0, 0]


@pytest.mark.usefixtures("small_shards")
@pytest.mark.parametrize("fail_at", [0, 1])
def test_fork_failure_runs_shards_in_process(monkeypatch, fail_at):
    trials = 3 * SMALL + 1
    cpus(monkeypatch, 1)
    want = walk_call(trials)()
    cpus(monkeypatch, 3)
    forked = count_forks(monkeypatch, fail_at)
    got = walk_call(trials)()
    assert len(forked) == fail_at
    assert got.returns.tolist() == want.returns.tolist()
    assert got.trace == want.trace


def forks_or_fail(monkeypatch, want):
    """Count forks where some are wanted; otherwise a fork fails the test."""
    if want:
        return count_forks(monkeypatch)
    monkeypatch.setattr(
        os, "fork", lambda: pytest.fail("forked below the fork gate"))
    return []


# 2 shards need 2 * SHARD_MIN trials and 2 * SHARD_WORK trial-moves
TWO = 2 * _accel.SHARD_MIN
TWO_STEPS = 2 * _accel.SHARD_WORK // TWO


@pytest.mark.parametrize("trials, steps, want_forks", [
    (TWO - 1, 4 * TWO_STEPS, 0), (TWO, TWO_STEPS - 1, 0),
    (TWO, TWO_STEPS, 1)])
def test_walk_forks_only_for_enough_work(monkeypatch, trials, steps,
                                         want_forks):
    cpus(monkeypatch, 3)
    forked = forks_or_fail(monkeypatch, want_forks)
    st = lp.walk(allones_network(4), (1, 0), steps=steps, trials=trials,
                 seed=3)
    assert len(forked) == want_forks
    assert st.returns.shape == (trials,)


@pytest.mark.parametrize("start, max_steps, want_forks", [
    ((15, 0), 10_000, 1),            # 15 * 15 moves expected
    ((15, 0), TWO_STEPS, 1),         # capped by max_steps
    ((15, 0), TWO_STEPS - 1, 0),
    ((1, 0), 10_000, 0)])            # 1 * 29 moves expected
def test_hitting_forks_only_for_enough_work(monkeypatch, start, max_steps,
                                            want_forks):
    cpus(monkeypatch, 3)
    forked = forks_or_fail(monkeypatch, want_forks)
    est = lp.hitting_probability(allones_network(30), start, trials=TWO,
                                 seed=5, max_steps=max_steps)
    assert len(forked) == want_forks
    assert est.trials == TWO


@pytest.mark.parametrize("n, quota, want", [(8, None, 8), (8, 3, 3),
                                            (2, 3, 2), (1, None, 1)])
def test_shards_capped_by_cpus_and_quota(monkeypatch, n, quota, want):
    cpus(monkeypatch, n)
    monkeypatch.setattr(_accel, "_cpu_quota", lambda: quota)
    big = 16 * _accel.SHARD_MIN
    shards = _accel._shards(big, 16 * _accel.SHARD_WORK)
    assert len(shards) == want
    assert shards[0][0] == 0 and shards[-1][1] == big
    assert all(a[1] == b[0] for a, b in zip(shards, shards[1:]))
    assert len(_accel._shards(big, 2 * _accel.SHARD_WORK)) == min(want, 2)


@pytest.mark.parametrize("texts, want", [
    (["200000 100000\n"], 2), (["150000 100000\n"], 1),
    (["50000 100000\n"], 1), (["max 100000\n"], None),
    (["250000\n", "100000\n"], 2), (["-1\n", "100000\n"], None),
    ([], None)])
def test_cpu_quota_reads_cgroup_files(monkeypatch, tmp_path, texts, want):
    # cgroup v2 keeps quota and period in one file, v1 in two; a missing
    # file moves on to the next layout
    names = []
    for i, text in enumerate(texts):
        (tmp_path / str(i)).write_text(text)
        names.append(str(tmp_path / str(i)))
    missing = (str(tmp_path / "missing"),)
    monkeypatch.setattr(_accel, "_QUOTA_FILES",
                        (missing, tuple(names) or missing))
    assert _accel._cpu_quota() == want


@pytest.mark.usefixtures("small_shards")
@pytest.mark.parametrize("kernel, rng", [
    ("walk_returns_kernel", "_walk_returns_range"),
    ("walk_hitting_kernel", "_walk_hitting_range")])
def test_failing_child_raises_and_is_reaped(monkeypatch, capfd, kernel,
                                            rng):
    cpus(monkeypatch, 2)
    real = getattr(_accel, rng)

    def failing(*args):
        lo = args[-3]
        if lo > 0:
            raise ValueError(f"shard at {lo} fails")
        return real(*args)
    monkeypatch.setattr(_accel, rng, failing)
    trials = 2 * SMALL + 1
    net = allones_network(4)
    with pytest.raises(RuntimeError, match=kernel):
        if kernel == "walk_returns_kernel":
            lp.walk(net, (1, 0), steps=5, trials=trials, seed=1)
        else:
            lp.hitting_probability(net, (1, 0), trials=trials, seed=1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    out, err = capfd.readouterr()
    assert out == ""
    assert f"shard at {trials // 2} fails" in err


@pytest.mark.usefixtures("small_shards")
def test_interrupted_child_exits_quietly(monkeypatch, capfd):
    # Ctrl-C reaches every process of the group and the parent reports
    # it, so a child leaves without a traceback of its own
    cpus(monkeypatch, 2)
    real = _accel._walk_returns_range

    def interrupted(*args):
        if args[-3] > 0:
            raise KeyboardInterrupt
        return real(*args)
    monkeypatch.setattr(_accel, "_walk_returns_range", interrupted)
    with pytest.raises(RuntimeError, match="walk_returns_kernel"):
        walk_call(2 * SMALL + 1)()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr() == ("", "")
