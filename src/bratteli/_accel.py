"""Lockstep numpy kernels for random-walk and path sampling.

The RNG is a combined multiplicative congruential generator (L'Ecuyer
1988).  Each trial owns its own stream, derived affinely from (seed, trial
index), so all trials advance together as one float64 array per state
word.  The words are exact integers: every product a*s stays below 2**47,
well inside float64's 53-bit mantissa, and a*s mod m is formed as
a*s - floor(a*s/m)*m, whose floor is exact (see _advance).  The inverse-CDF
scan advances a trial's row cursor only while its uniform is at or past
the cumulative entry, which is exactly the comparison sequence of a scalar
loop: every trajectory is the one a trial would follow on its own.

At most BLOCK trials walk at once, which bounds the working memory of a
call independently of the trial count.  Fixed-length walks run block after
block; absorbed walks share one pool that a finished trial's slot refills
from the unstarted ones.  Results depend on neither.
"""
from __future__ import annotations

import numpy as np

M1 = 2147483563
M2 = 2147483399
A1 = 40014
A2 = 40692

BLOCK = 1 << 14


def trial_seeds(seed: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent (s1, s2) state pairs per trial, exact uint64 mixing."""
    idx = np.arange(trials, dtype=np.uint64)
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    s1 = (base * np.uint64(2654435761)
          + idx * np.uint64(40503) + np.uint64(12345)) % np.uint64(M1 - 1)
    s2 = (base * np.uint64(1779033703)
          + idx * np.uint64(69069) + np.uint64(97531)) % np.uint64(M2 - 1)
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


def _scan(cum, j, u, longest):
    """Inverse-CDF scan: advance each cursor j (in place) while
    u >= cum[j].  A cursor stops at the first entry above u and stays
    there, and every row ends in 1.0 > u, so longest - 1 passes stop
    every cursor within its row, longest being the longest of their rows."""
    for _ in range(longest - 1):
        j += u >= cum[j]
    return j


def _move(rowptr, width, cum, tgt, state, s1, s2, t):
    """One step of the flattened chain for every trial in the arrays."""
    return tgt[_scan(cum, rowptr[state], _uniform(s1, s2, t),
                     int(width[state].max()))]


def _words(s: np.ndarray) -> np.ndarray:
    """A float64 copy of generator words; exact, since they are < 2**31."""
    return s.astype(np.float64)


def walk_returns_kernel(rowptr, cum, tgt, start, steps, s1s, s2s):
    """Run every trial `steps` moves from `start`.

    Returns (returns per trial, trial 0's states), the second of length
    steps + 1 starting at `start`.
    """
    trials = s1s.shape[0]
    width = np.diff(rowptr, append=cum.shape[0])
    out = np.zeros(trials, dtype=np.int64)
    path = np.empty(steps + 1, dtype=np.int64)
    path[0] = start
    for lo in range(0, trials, BLOCK):
        s1 = _words(s1s[lo:lo + BLOCK])
        s2 = _words(s2s[lo:lo + BLOCK])
        t = np.empty_like(s1)
        state = np.full(s1.shape[0], start, dtype=np.int64)
        cnt = out[lo:lo + BLOCK]
        for k in range(steps):
            state = _move(rowptr, width, cum, tgt, state, s1, s2, t)
            cnt += state == start
            if lo == 0:
                path[k + 1] = state[0]
    return out, path


def walk_hitting_kernel(rowptr, cum, tgt, level_of, start, bot, top,
                        max_steps, s1s, s2s):
    """Absorb at the bottom or top level; 1 = top, 0 = bottom, -1 = timeout.

    A trial is checked after 0..max_steps moves.  Up to BLOCK trials walk
    at once; a finished trial's slot goes to the next unstarted one, which
    times out max_steps moves after it joined, so a run has a single
    straggler tail however many trials it has.
    """
    trials = s1s.shape[0]
    out = np.full(trials, -1, dtype=np.int64)
    first = level_of[start]
    # Every trial starts at `start`, so the check before its first move
    # (absorbed, or out of steps) is the same for all of them: made once.
    if first == bot or first == top:
        out[:] = first == top
        return out
    if max_steps <= 0:
        return out
    width = np.diff(rowptr, append=cum.shape[0])
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
    return out


def sample_chain_kernel(cumflat, rowstart, strides, x0, depth, ncyl,
                        s1s, s2s):
    """Depth-step Markov chain over cell kernels; counts mixed-radix
    cylinder indices.  rowstart[k, i] locates the cumulative row of cell i
    at step k; strides give each step's positional weight in the index,
    so step k's rows have ncyl // strides[0] cells at k = 0 and
    strides[k - 1] // strides[k] after."""
    widths = np.concatenate(([ncyl], strides[:-1])) // strides
    counts = np.zeros(ncyl, dtype=np.int64)
    for lo in range(0, s1s.shape[0], BLOCK):
        s1 = _words(s1s[lo:lo + BLOCK])
        s2 = _words(s2s[lo:lo + BLOCK])
        t = np.empty_like(s1)
        cell = np.full(s1.shape[0], x0, dtype=np.int64)
        idx = np.zeros(s1.shape[0], dtype=np.int64)
        for k in range(depth):
            base = rowstart[k, cell]
            cell = _scan(cumflat, base.copy(), _uniform(s1, s2, t),
                         int(widths[k])) - base
            idx += cell * strides[k]
        counts += np.bincount(idx, minlength=ncyl)
    return counts
