"""Lockstep numpy sampling on the one move-table layout every sampler walks.

The RNG is a combined multiplicative congruential generator (L'Ecuyer
1988).  Each trial owns its own stream, derived affinely from (seed, trial
index), so all trials advance together as one float64 array per state
word.  The words are exact integers: every product a*s stays below 2**47,
well inside float64's 53-bit mantissa, and a*s mod m is formed as
a*s - floor(a*s/m)*m, whose floor is exact (see _advance).  The inverse-CDF
scan advances a trial's row cursor only while its uniform is at or past
the cumulative entry, which is exactly the comparison sequence of a scalar
loop: every trajectory is the one a trial would follow on its own.

The two walk kernels split their trials into contiguous shards, one per
available CPU, when the call has enough work to repay a fork: each shard
needs at least SHARD_MIN trials and SHARD_WORK trial-moves (trials times
steps for fixed-length walks; for absorbed walks, an estimate capped by
max_steps).  Shard 0 runs in the calling process; every other shard runs
in a child made by os.fork, which writes its results into an anonymous
shared mapping.  With one CPU, too little work, or no fork on the
platform, a kernel runs in-process.  sample_chain_kernel always runs
in-process: its jobs are too short to repay a fork.

In each process at most BLOCK trials walk at once, which bounds that
process's working memory independently of the trial count.  Fixed-length
walks and chains run block after block (_lockstep); absorbed walks share
one pool that a finished trial's slot refills from the unstarted ones of
its shard.  Results depend on none of this: every trial has its stream.
"""
from __future__ import annotations

import mmap
import operator
import os
from functools import partial

import numpy as np

M1 = 2147483563
M2 = 2147483399
A1 = 40014
A2 = 40692

BLOCK = 1 << 14
# A forked shard costs milliseconds (the fork, copy-on-write faults, the
# reaping), and each process pays numpy's per-step call overhead in full,
# so a shard needs both trials and trial-moves to repay it.  Timed on a
# 2-CPU x86-64 host, one call per fresh process, all-ones walks of
# 200000 x 3, 20000 x 30 and 50000 x 10 ran 15-55% slower in 2 shards;
# from 2**20 trial-moves per shard of 8192 trials or more, 2 shards were
# 25-40% faster, while shards of 4096 trials gained 8-15% at best.
SHARD_MIN = 1 << 13
SHARD_WORK = 1 << 20
# CFS quota and period, in microseconds: cgroup v2's one file, then v1's two
_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max",),
                ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                 "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


def trial_seeds(seed: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent (s1, s2) state pairs per trial, exact uint64 mixing."""
    idx = np.arange(trials, dtype=np.uint64)
    # The seed's words are Python ints reduced mod 2**64: a numpy scalar
    # product wraps the same way but warns about overflow, and a numpy
    # integer seed cannot hold 2**64.
    seed = operator.index(seed)
    b1 = np.uint64(seed * 2654435761 % 2 ** 64)
    b2 = np.uint64(seed * 1779033703 % 2 ** 64)
    s1 = (b1 + idx * np.uint64(40503) + np.uint64(12345)) % np.uint64(M1 - 1)
    s2 = (b2 + idx * np.uint64(69069) + np.uint64(97531)) % np.uint64(M2 - 1)
    return (s1 + np.uint64(1)).astype(np.int64), \
           (s2 + np.uint64(1)).astype(np.int64)


def _advance(s: np.ndarray, a: int, m: int, t: np.ndarray) -> None:
    """s <- a*s mod m in place, on float64 words; t is scratch.

    a*s < 2**47, so the product and floor(a*s/m)*m are exact.  m is prime
    and 0 < s < m, so a*s/m is never an integer: its fractional part is at
    least 1/m (about 4.7e-10), far above the rounding of a quotient below
    2**16 (at most 2**-37), and the floor is the exact quotient."""
    np.multiply(s, a, out=t)
    np.divide(t, m, out=s)
    np.floor(s, out=s)
    s *= m
    np.subtract(t, s, out=s)


def _uniform(s1: np.ndarray, s2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Advance both generator words in place; one uniform in [0, 1) each:
    ((s1 - s2) mod (M1 - 1)) / M1."""
    _advance(s1, A1, M1, t)
    _advance(s2, A2, M2, t)
    u = s1 - s2
    u += (u < 0) * (M1 - 1.0)
    u /= M1
    return u


def _move(rowptr, width, cum, tgt, state, s1, s2, t):
    """One inverse-CDF step for every trial in the arrays.  Every row ends
    in 1.0 > u, so the longest row's length - 1 passes stop every cursor."""
    j = rowptr[state]
    u = _uniform(s1, s2, t)
    for _ in range(int(width[state].max()) - 1):
        j += u >= cum[j]
    return tgt[j]


def move_table(levels):
    """The move table of a level-by-level chain; no other module builds
    one.  `levels` yields (size, state, prob, dest) per level: move i goes
    from the level's state[i] (0..size-1) to dest[i], counting all levels'
    states in turn, with probability prob[i].  Returns (rowptr, cum, tgt):
    state g's moves start at rowptr[g], in given order; cum rows end in 1.0."""
    rowptr, cum, tgt = [], [], []
    base = 0
    for size, state, prob, dest in levels:
        order = np.argsort(state, kind="stable")
        state, prob, dest = state[order], prob[order], dest[order]
        counts = np.bincount(state, minlength=size)
        ptr = np.concatenate(([0], np.cumsum(counts)))
        col = np.arange(len(state)) - ptr[state]
        # one padded row per state, so each cumulative sum stays sequential
        pad = np.zeros((size, int(counts.max())))
        pad[state, col] = prob
        acc = np.cumsum(pad, axis=1)[state, col]
        acc[ptr[1:] - 1] = 1.0
        rowptr.append(base + ptr[:-1])
        cum.append(acc)
        tgt.append(dest)
        base += len(state)
    return (np.concatenate(rowptr).astype(np.int64), np.concatenate(cum),
            np.concatenate(tgt).astype(np.int64))


def _lockstep(rowptr, cum, tgt, start, steps, s1s, s2s, lo, hi):
    """Trials lo..hi-1 walk `steps` moves each from `start`, BLOCK at a
    time: yields (b, k, states after move k) for the block from trial b."""
    width = np.diff(rowptr, append=cum.shape[0])
    for b in range(lo, hi, BLOCK):
        e = min(b + BLOCK, hi)
        s1, s2 = _words(s1s[b:e]), _words(s2s[b:e])
        t = np.empty_like(s1)
        state = np.full(s1.shape[0], start, dtype=np.int64)
        for k in range(steps):
            state = _move(rowptr, width, cum, tgt, state, s1, s2, t)
            yield b, k, state


def _words(s: np.ndarray) -> np.ndarray:
    """A float64 copy of generator words; exact, since they are < 2**31."""
    return s.astype(np.float64)


def _cpu_quota():
    """Whole CPUs allowed by this process's cgroup CPU quota (at least 1),
    or None where no quota is set or none can be read."""
    for files in _QUOTA_FILES:
        try:
            words = []
            for name in files:
                with open(name) as f:
                    words += f.read().split()
        except OSError:
            continue
        try:
            quota, period = map(int, words)
        except ValueError:  # v2's "max": no quota
            return None
        return max(1, quota // period) if quota > 0 and period > 0 else None
    return None


def _cpus() -> int:
    """CPUs a shard may use: the affinity set, capped by a CPU quota; 1
    where the platform cannot fork or report its CPU set."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    quota = _cpu_quota()
    cpus = len(os.sched_getaffinity(0))
    return cpus if quota is None else min(cpus, quota)


def _shards(trials: int, work: int) -> list[tuple[int, int]]:
    """(lo, hi) of each contiguous shard of range(trials): one per CPU,
    each with at least SHARD_MIN trials and SHARD_WORK of the call's
    `work` trial-moves, and at least one shard."""
    k = min(trials // SHARD_MIN, work // SHARD_WORK)
    if k > 1:  # only a call that could shard asks for the CPUs
        k = min(k, _cpus())
    k = max(1, k)
    return [(trials * i // k, trials * (i + 1) // k) for i in range(k)]


def _child(run, lo, hi, out):
    """A forked shard's whole life.  It leaves through os._exit whatever
    happens, so it runs no atexit handler, flushes no buffer it inherited,
    and never returns into the parent's code.  An error's traceback goes
    straight to file descriptor 2; an interrupt, which the parent gets
    too, leaves quietly."""
    code = 1
    try:
        run(lo, hi, out)
        code = 0
    except Exception:
        import traceback
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _fan_out(name, trials, work, run):
    """Call run(lo, hi, out) once per shard of range(trials), a job of
    about `work` trial-moves; each call fills out[lo:hi] of the one int64
    array returned, so results come in trial order.

    Shard 0 runs in this process, every other one in a forked child that
    writes into an anonymous shared mapping.  A child runs only
    elementwise numpy code, never BLAS, whose thread pool is the one
    other thread a numpy process holds at the fork.  A shard whose fork
    fails runs here, as do the ones after it: a process limit costs time,
    not an answer.  Every child is reaped before return; one that failed
    raises RuntimeError naming the kernel.
    """
    shards = _shards(trials, work)
    out = (np.empty(trials, dtype=np.int64) if len(shards) == 1 else
           np.frombuffer(mmap.mmap(-1, 8 * trials), dtype=np.int64))
    local, children = shards[:1], []
    try:
        for i, (lo, hi) in enumerate(shards[1:], 1):
            try:
                pid = os.fork()
            except OSError:
                local += shards[i:]
                break
            if pid == 0:
                _child(run, lo, hi, out)
            children.append((pid, lo, hi))
        for lo, hi in local:
            run(lo, hi, out)
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid, _, _ in children]
    for (_, lo, hi), status in zip(children, statuses):
        if status:
            raise RuntimeError(
                f"{name}: the forked shard of trials [{lo}, {hi}) failed "
                f"(exit code {os.waitstatus_to_exitcode(status)})")
    return out


def walk_returns_kernel(rowptr, cum, tgt, start, steps, s1s, s2s):
    """Run every trial `steps` moves from `start`.

    Returns (returns per trial, trial 0's states), the second of length
    steps + 1 starting at `start`.
    """
    path = np.empty(steps + 1, dtype=np.int64)
    path[0] = start
    trials = s1s.shape[0]
    out = _fan_out("walk_returns_kernel", trials, trials * steps,
                   partial(_walk_returns_range, rowptr, cum, tgt, start,
                           steps, s1s, s2s, path))
    return out, path


def _walk_returns_range(rowptr, cum, tgt, start, steps, s1s, s2s, path,
                        lo, hi, out):
    """Trials lo..hi-1 of walk_returns_kernel, block after block: their
    returns into out[lo:hi], and trial 0's states into path if lo is 0."""
    out[lo:hi] = 0
    for b, k, state in _lockstep(rowptr, cum, tgt, start, steps, s1s, s2s,
                                 lo, hi):
        out[b:b + state.shape[0]] += state == start
        if b == 0:
            path[k + 1] = state[0]


def walk_hitting_kernel(rowptr, cum, tgt, level_of, start, bot, top,
                        max_steps, s1s, s2s):
    """Absorb at the bottom or top level; 1 = top, 0 = bottom, -1 = timeout.

    A trial is checked after 0..max_steps moves.  Up to BLOCK trials of a
    shard walk at once; a finished trial's slot goes to the shard's next
    unstarted one, which times out max_steps moves after it joined, so a
    shard has a single straggler tail however many trials it has.
    """
    trials = s1s.shape[0]
    first = level_of[start]
    # Every trial starts at `start`, so the check before its first move
    # (absorbed, or out of steps) is the same for all of them: made once.
    if first == bot or first == top:
        return np.full(trials, int(first == top), dtype=np.int64)
    if max_steps <= 0:
        return np.full(trials, -1, dtype=np.int64)
    width = np.diff(rowptr, append=cum.shape[0])
    # the mean number of moves of an unbiased +-1 walk between the levels
    moves = min(max_steps, (first - bot) * (top - first))
    return _fan_out("walk_hitting_kernel", trials, trials * moves,
                    partial(_walk_hitting_range, rowptr, width, cum, tgt,
                            level_of, start, bot, top, max_steps, s1s, s2s))


def _walk_hitting_range(rowptr, width, cum, tgt, level_of, start, bot, top,
                        max_steps, s1s, s2s, lo, hi, out):
    """Trials lo..hi-1 of walk_hitting_kernel, one refilled pool: their
    results into out[lo:hi]."""
    out, s1s, s2s = out[lo:hi], s1s[lo:hi], s2s[lo:hi]
    out[:] = -1
    trials = hi - lo
    n = min(trials, BLOCK)
    idx = np.arange(n)
    state = np.full(n, start, dtype=np.int64)
    s1, s2 = _words(s1s[:n]), _words(s2s[:n])
    t = np.empty_like(s1)
    deadline = np.full(n, max_steps, dtype=np.int64)
    joined = n
    k = 0
    while idx.shape[0]:
        state = _move(rowptr, width, cum, tgt, state, s1, s2, t)
        k += 1
        lvl = level_of[state]
        hit = (lvl == bot) | (lvl == top)
        done = hit | (deadline == k)
        if not done.any():
            continue
        out[idx[hit]] = lvl[hit] == top
        free = np.flatnonzero(done)
        new = min(free.shape[0], trials - joined)
        if new:
            slot = free[:new]
            idx[slot] = np.arange(joined, joined + new)
            state[slot] = start
            s1[slot] = s1s[joined:joined + new]
            s2[slot] = s2s[joined:joined + new]
            deadline[slot] = k + max_steps
            joined += new
        if new < free.shape[0]:
            live = ~done
            live[free[:new]] = True
            idx, state, s1, s2, deadline = (
                a[live] for a in (idx, state, s1, s2, deadline))
            t = t[:idx.shape[0]]


def sample_chain_kernel(rowptr, cum, tgt, offsets, strides, x0, ncyl,
                        s1s, s2s):
    """Cylinder counts of a chain whose move table takes the cells of space
    k, table-wide states offsets[k] on, to those of space k + 1.  Every
    trial moves len(strides) times from cell x0; its cylinder index is the
    sum over steps k of (state - offsets[k + 1]) * strides[k]."""
    counts = np.zeros(ncyl, dtype=np.int64)
    for _, k, state in _lockstep(rowptr, cum, tgt, x0, len(strides), s1s,
                                 s2s, 0, s1s.shape[0]):
        cell = (state - offsets[k + 1]) * strides[k]
        idx = cell if k == 0 else idx + cell
        if k == len(strides) - 1:
            counts += np.bincount(idx, minlength=ncyl)
    return counts
