"""Lockstep numpy sampling on the one move-table layout every sampler walks.

The RNG is a combined multiplicative congruential generator (L'Ecuyer
1988).  Each trial owns its own stream, derived affinely from (seed, trial
index), so all trials advance together: their two state words are the rows
of one float64 array, which one call advances with a multiplier and a
modulus per row, in exact integer arithmetic (see _advance).  A trial
carries the row position of its state in the move table; move j leads to
row position nxt[j].  The inverse-CDF scan advances a trial's cursor only
while its uniform is at or past the cumulative entry, exactly as a scalar
loop does, so every trajectory is the one a trial would follow on its own.
Rows end in 1.0 > u, so a scan as long as the longest row trials can
occupy, fixed before the walk, stops every cursor.  Absorbed walks read
from per-move tables whether a move ends the walk and at which end.

The two walk kernels split their trials into contiguous shards, one per
available CPU, when the call has enough work to repay a fork: each shard
needs at least SHARD_MIN trials and SHARD_WORK trial-moves (trials times
steps for fixed-length walks; for absorbed walks, an estimate capped by
max_steps).  Shard 0 runs in the calling process; every other shard runs
in a child made by os.fork, which writes its results into an anonymous
shared mapping.  With one CPU, too little work, or no fork on the
platform, a kernel runs in-process.  sample_chain_kernel always runs
in-process: its jobs are too short to repay a fork.

In each process at most BLOCK trials walk at once, and a kernel derives
their seed words from (seed, trial range) only when they start, so a
process's seed words and working arrays stay within a bound independent of
the trial count.  The per-trial results (8 bytes a trial for the walks,
none for chains) are outside that bound.  Fixed-length walks and chains run
block after block (_lockstep); absorbed walks share one pool that a
finished trial's slot refills from a reservoir of at most BLOCK unstarted
trials of its shard.  Results depend on none of this: every trial has its
stream.
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
# the multipliers and the moduli of the two words, as columns
_A, _M = np.array([[[A1], [A2]], [[M1], [M2]]], dtype=np.float64)

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


def trial_seeds(seed: int, hi: int, lo: int = 0
                ) -> tuple[np.ndarray, np.ndarray]:
    """Independent (s1, s2) state pairs of trials lo..hi-1, exact uint64
    mixing of each trial's index alone: trial_seeds(seed, hi, lo) equals
    trial_seeds(seed, hi)[lo:]."""
    idx = np.arange(lo, hi, dtype=np.uint64)
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


def _advance(s: np.ndarray, a, m, t: np.ndarray) -> None:
    """s <- a*s mod m in place, on float64 words; t is scratch.

    a*s < 2**47, so the product and floor(a*s/m)*m are exact.  m is prime
    and 0 < s < m, so a*s/m lies at least 1/m (about 4.7e-10) from any
    integer, far above the error of the quotient below 2**16 taken as a*s
    times the rounded 1/m (at most 2**-35): the floor is the exact one."""
    np.multiply(s, a, out=t)
    np.multiply(t, 1 / m, out=s)
    np.floor(s, out=s)
    s *= m
    np.subtract(t, s, out=s)


def _uniform(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Advance both generator words, the rows (s1, s2) of w, in place; one
    uniform in [0, 1) per column: ((s1 - s2) mod (M1 - 1)) / M1."""
    _advance(w, _A, _M, t)
    u = w[0] - w[1]
    u += (u < 0) * (M1 - 1.0)
    u /= M1
    return u


def _move(cum, j, w, t, passes):
    """One inverse-CDF step for every trial: advances the words w, and each
    cursor j in place from its row position to the move drawn; returns j.
    passes >= the longest occupied row's length - 1 stops every cursor."""
    u = _uniform(w, t)
    for _ in range(passes):
        j += u >= cum[j]
    return j


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


def _rows(rowptr, cum, tgt):
    """(nxt, width): move j leads to row position nxt[j], and state g has
    width[g] moves.  A target without moves (a chain's last space) gets
    a row position it never leaves."""
    return (rowptr.take(tgt, mode="clip"),
            np.diff(rowptr, append=cum.shape[0]))


def _lockstep(nxt, cum, p0, passes, seed, lo, hi):
    """Trials lo..hi-1 walk len(passes) moves each from row position p0,
    BLOCK at a time, move k a scan of passes[k]: yields (b, k, the moves
    drawn, the row positions they lead to) for the block from trial b."""
    words, scratch = np.empty((2, 2, min(hi - lo, BLOCK)))
    for b in range(lo, hi, BLOCK):
        n = min(hi - b, BLOCK)
        w, t = words[:, :n], scratch[:, :n]
        w[0], w[1] = trial_seeds(seed, b + n, b)
        pos = np.full(n, p0, dtype=np.int64)
        for k, p in enumerate(passes):
            j = _move(cum, pos, w, t, p)
            pos = nxt[j]
            yield b, k, j, pos


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


def walk_returns_kernel(rowptr, cum, tgt, start, steps, seed, trials):
    """Run trials 0..trials-1 of `seed` `steps` moves each from `start`.

    Returns (returns per trial, trial 0's states), the second of length
    steps + 1 starting at `start`.  Every state has a move, so a row
    position names its state.
    """
    nxt, width = _rows(rowptr, cum, tgt)
    path = np.empty(steps + 1, dtype=np.int64)
    path[0] = start
    out = _fan_out("walk_returns_kernel", trials, trials * steps,
                   partial(_walk_returns_range, nxt, cum, tgt,
                           int(rowptr[start]), [int(width.max()) - 1] * steps,
                           seed, path))
    return out, path


def _walk_returns_range(nxt, cum, tgt, p0, passes, seed, path, lo, hi, out):
    """Trials lo..hi-1 of walk_returns_kernel, block after block: their
    returns into out[lo:hi], and trial 0's states into path if lo is 0."""
    out[lo:hi] = 0
    for b, k, j, pos in _lockstep(nxt, cum, p0, passes, seed, lo, hi):
        out[b:b + pos.shape[0]] += pos == p0
        if b == 0:
            path[k + 1] = tgt[j[0]]


def walk_hitting_kernel(rowptr, cum, tgt, level_of, start, bot, top,
                        max_steps, seed, trials):
    """Absorb at the bottom or top level; 1 = top, 0 = bottom, -1 = timeout,
    for each of trials 0..trials-1 of `seed`.

    A trial is checked after 0..max_steps moves.  Up to BLOCK trials of a
    shard walk at once; a finished trial's slot goes to the shard's next
    unstarted one, which times out max_steps moves after it joined, so a
    shard has a single straggler tail however many trials it has.
    """
    first = level_of[start]
    # Every trial starts at `start`, so the check before its first move
    # (absorbed, or out of steps) is the same for all of them: made once.
    if first == bot or first == top:
        return np.full(trials, int(first == top), dtype=np.int64)
    if max_steps <= 0:
        return np.full(trials, -1, dtype=np.int64)
    nxt, width = _rows(rowptr, cum, tgt)
    lvl = level_of[tgt]   # whether move j ends its walk, and at which end
    stop, at_top = (lvl == bot) | (lvl == top), lvl == top
    # the mean number of moves of an unbiased +-1 walk between the levels
    moves = min(max_steps, (first - bot) * (top - first))
    return _fan_out("walk_hitting_kernel", trials, trials * moves,
                    partial(_walk_hitting_range, nxt, cum, stop, at_top,
                            int(rowptr[start]), int(width.max()) - 1,
                            max_steps, seed))


def _walk_hitting_range(nxt, cum, stop, at_top, p0, passes, max_steps, seed,
                        lo, hi, out):
    """Trials lo..hi-1 of walk_hitting_kernel, one refilled pool: their
    results into out[lo:hi]."""
    out[lo:hi] = -1
    n = min(hi - lo, BLOCK)
    idx = np.arange(lo, lo + n)
    pos = np.full(n, p0, dtype=np.int64)
    w = np.array(trial_seeds(seed, lo + n, lo), dtype=np.float64)
    t = np.empty_like(w)
    deadline = np.full(n, max_steps, dtype=np.int64)
    due = max_steps   # no live deadline falls before step `due`
    # trials joined.. have not started; the reservoir holds the words of
    # trials r0..r1-1, derived BLOCK at a time as the pool drains it
    joined = r0 = r1 = lo + n
    k = 0
    while idx.shape[0]:
        j = _move(cum, pos, w, t, passes)
        pos = nxt[j]
        k += 1
        done = hit = stop[j]
        if k == due:
            done = hit | (deadline == k)
            due = deadline[~done].min(initial=k + max_steps)
        elif not np.count_nonzero(hit):
            continue
        out[idx[hit]] = at_top[j[hit]]
        free = np.flatnonzero(done)
        new = min(free.shape[0], hi - joined)
        if new:
            if r1 < joined + new:
                r0, r1 = joined, min(joined + BLOCK, hi)
                res = np.array(trial_seeds(seed, r1, r0), dtype=np.float64)
            slot = free[:new]
            idx[slot] = np.arange(joined, joined + new)
            pos[slot] = p0
            w[:, slot] = res[:, joined - r0:joined - r0 + new]
            deadline[slot] = k + max_steps
            joined += new
        if new < free.shape[0]:
            live = ~done
            live[free[:new]] = True
            idx, pos, deadline = idx[live], pos[live], deadline[live]
            w = np.compress(live, w, axis=1)
            t = np.empty_like(w)


def sample_chain_kernel(rowptr, cum, tgt, offsets, strides, x0, ncyl,
                        seed, trials):
    """Cylinder counts of trials 0..trials-1 of `seed` on a chain whose move
    table takes the cells of space k, table-wide states offsets[k] on, to
    those of space k + 1.  Every trial moves len(strides) times from cell
    x0; its cylinder index is the sum over steps k of
    (state - offsets[k + 1]) * strides[k]."""
    nxt, width = _rows(rowptr, cum, tgt)
    passes = (np.maximum.reduceat(width, offsets[:len(strides)]) - 1).tolist()
    step = np.searchsorted(offsets, tgt, side="right") - 2   # of each move
    term = (tgt - offsets[step + 1]) * strides[step]   # its cylinder term
    counts = np.zeros(ncyl, dtype=np.int64)
    for _, k, j, _ in _lockstep(nxt, cum, int(rowptr[x0]), passes, seed,
                                0, trials):
        idx = term[j] if k == 0 else idx + term[j]
        if k == len(passes) - 1:
            counts += np.bincount(idx, minlength=ncyl)
    return counts
