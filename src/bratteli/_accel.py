"""Lockstep numpy kernels for random-walk and path sampling.

The RNG is a combined multiplicative congruential generator (L'Ecuyer
1988): every intermediate product stays below 2**47, so the arithmetic is
exact in int64.  Each trial owns its own stream, derived affinely from
(seed, trial index), so all trials can advance together as one int64
array per state word.  The inverse-CDF scan advances a trial's row cursor
only while its uniform is at or past the cumulative entry, which is exactly
the comparison sequence of a scalar loop: every trajectory is the one a
trial would follow on its own.

Trials run in blocks of BLOCK, which bounds the working memory of a call
independently of the trial count; results do not depend on the block size.
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


def _uniform(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Advance both generator words in place; one uniform in [0, 1) each."""
    np.remainder(A1 * s1, M1, out=s1)
    np.remainder(A2 * s2, M2, out=s2)
    return ((s1 - s2) % (M1 - 1)) / M1


def _scan(cum, j, u):
    """Inverse-CDF scan: advance each cursor j (in place) while
    u >= cum[j].  Every cumulative row ends in 1.0, so no cursor leaves
    its row."""
    more = u >= cum[j]
    while more.any():
        j += more
        more = u >= cum[j]
    return j


def _move(rowptr, cum, tgt, state, s1, s2):
    """One step of the flattened chain for every trial in the arrays."""
    return tgt[_scan(cum, rowptr[state], _uniform(s1, s2))]


def walk_returns_kernel(rowptr, cum, tgt, start, steps, s1s, s2s):
    """Run every trial `steps` moves from `start`.

    Returns (returns per trial, trial 0's states), the second of length
    steps + 1 starting at `start`.
    """
    trials = s1s.shape[0]
    out = np.zeros(trials, dtype=np.int64)
    path = np.empty(steps + 1, dtype=np.int64)
    path[0] = start
    for lo in range(0, trials, BLOCK):
        s1 = s1s[lo:lo + BLOCK].copy()
        s2 = s2s[lo:lo + BLOCK].copy()
        state = np.full(s1.shape[0], start, dtype=np.int64)
        cnt = out[lo:lo + BLOCK]
        for k in range(steps):
            state = _move(rowptr, cum, tgt, state, s1, s2)
            cnt += state == start
            if lo == 0:
                path[k + 1] = state[0]
    return out, path


def walk_hitting_kernel(rowptr, cum, tgt, level_of, start, bot, top,
                        max_steps, s1s, s2s):
    """Absorb at the bottom or top level; 1 = top, 0 = bottom, -1 = timeout.

    A trial is checked after 0..max_steps moves; absorbed trials leave the
    active arrays, so stragglers cost only their own steps.
    """
    trials = s1s.shape[0]
    out = np.full(trials, -1, dtype=np.int64)
    for lo in range(0, trials, BLOCK):
        s1 = s1s[lo:lo + BLOCK].copy()
        s2 = s2s[lo:lo + BLOCK].copy()
        idx = np.arange(lo, lo + s1.shape[0])
        state = np.full(s1.shape[0], start, dtype=np.int64)
        for k in range(max_steps + 1):
            lvl = level_of[state]
            done = (lvl == bot) | (lvl == top)
            if done.any():
                out[idx[done]] = lvl[done] == top
                live = ~done
                idx, state, s1, s2 = idx[live], state[live], s1[live], s2[live]
                if idx.shape[0] == 0:
                    break
            if k < max_steps:
                state = _move(rowptr, cum, tgt, state, s1, s2)
    return out


def sample_chain_kernel(cumflat, rowstart, strides, x0, depth, ncyl,
                        s1s, s2s):
    """Depth-step Markov chain over cell kernels; counts mixed-radix
    cylinder indices.  rowstart[k, i] locates the cumulative row of cell i
    at step k; strides give each step's positional weight in the index."""
    counts = np.zeros(ncyl, dtype=np.int64)
    for lo in range(0, s1s.shape[0], BLOCK):
        s1 = s1s[lo:lo + BLOCK].copy()
        s2 = s2s[lo:lo + BLOCK].copy()
        cell = np.full(s1.shape[0], x0, dtype=np.int64)
        idx = np.zeros(s1.shape[0], dtype=np.int64)
        for k in range(depth):
            base = rowstart[k, cell]
            cell = _scan(cumflat, base.copy(), _uniform(s1, s2)) - base
            idx += cell * strides[k]
        counts += np.bincount(idx, minlength=ncyl)
    return counts
