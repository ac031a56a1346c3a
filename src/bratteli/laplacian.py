"""Weighted network, Laplacian, harmonic solver and random walk.

A Markov system's dual kernel pair turns the diagram into an electrical
network: the conductance between v at level n and u at level n+1 is
c_n(v, u) = (1/2) q^(n)_v phat_n(v, u), which equals
(1/2) q^(n+1)_u qhat_n(u, v) by detailed balance -- symmetry is an identity,
not a tolerance.  The induced reversible kernel M averages half up, half
down; the Laplacian is Delta f = c (f - Mf) with c the total conductance at
the vertex (the level mass q on two-sided levels).

Truncation needs a boundary rule, and there is one: levels 0 and N have a
single neighbouring level, so M sends the full unit mass across that side.

Harmonic functions with pinned bottom and top levels solve a
block-tridiagonal system, because each level couples only to its two
neighbours; solve_harmonic eliminates it directly, level by level, with
no tolerance or iteration budget.

The network keeps no dense kernel: ``HatKernels`` stores P-hat and Q-hat
as edge values, and every level loop here reads them a batch of levels
at a time (``HatKernels.batches``), per-level vectors as slices of their
``LevelRows`` (the masses and the vertex masses are stored so, and the
harmonic solution while its residual is read), so a stationary diagram
costs numpy calls per batch, not per level; each level keeps its bits.
energy_norm also takes B functions, a (B, m_n) array per level.  The
walk's move table and build_network's balance test read the edge
values.  solve_harmonic still keeps every elimination block G_n, so its
memory grows as depth x m^2.

The random walk runs on a move table of all (level, vertex) states with
the lockstep kernels from _accel; per-trial seeds fix every trajectory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import Error, _accel
from .diagram import LevelRows, Scratch
from .markov import (BATCH_FLOATS, HatKernels, apply_TP, apply_TQ,
                     level_batches, shift_in)
from .measures import DimensionMismatch


class BalanceViolation(Error):
    def __init__(self, level: int, v: int, u: int, delta: float):
        super().__init__(f"conductance asymmetry {delta:.3e} between level-"
                         f"{level} vertex {v} and level-{level + 1} vertex {u}")
        self.level = level
        self.v = v
        self.u = u
        self.delta = delta


# ---------------------------------------------------------------- types

@dataclass(frozen=True)
class LevelFunction:
    """One real vector per level, 0..N; for a batch of B functions (which
    energy_norm takes), one (B, m_n) array per level."""

    values: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.values) - 1

    @staticmethod
    def of(vectors: Sequence) -> "LevelFunction":
        return LevelFunction(tuple(np.asarray(v, dtype=np.float64)
                                   for v in vectors))

    @staticmethod
    def constant(net: "WeightedNetwork", value: float) -> "LevelFunction":
        return LevelFunction(tuple(LevelRows(
            np.full(q.shape, float(value)) for q in net.kernels.q.blocks)))


@dataclass(frozen=True)
class WeightedNetwork:
    kernels: HatKernels
    vertex_mass: LevelRows   # total conductance at each vertex
    mass_vs_q_dev: float

    @property
    def depth(self) -> int:
        return self.kernels.depth


BALANCE_TOL = 1e-12   # relative gap allowed between the two balance sides


def build_network(hk: HatKernels) -> WeightedNetwork:
    """Vertex masses from the kernel pair, with the symmetry check.

    The conductance c_n(v, u) is computed on the edges from both
    detailed-balance sides independently; a relative mismatch beyond
    BALANCE_TOL means the supplied kernels are not a dual pair and raises
    BalanceViolation.  The conductances themselves are not kept: a batch's
    are scattered into one dense stack, whose row sums go to the masses of
    V_n and its column sums to those of V_{n+1}.  On two-sided
    levels the masses reproduce q^(n) and the worst deviation is kept as a
    diagnostic.
    """
    if hk.depth < 1:
        raise DimensionMismatch("a network needs at least two levels")
    d = hk.diagram
    masses, devs = [], []   # per batch; level 0 is one-sided and left out
    carry = np.zeros(len(hk.q[0]))   # the column sums of the level below
    scratch = Scratch()
    for lo, hi in level_batches(d):   # (b, edges) edge arrays per batch
        c = d.F(lo).csr
        q_lo, q_hi = hk.q[lo:hi], hk.q[lo + 1:hi + 1]
        up = 0.5 * q_lo[:, c.indices] * hk.phat_values[lo:hi]
        down = 0.5 * (q_hi[:, c.rows] * hk.qhat_values[lo:hi])
        delta = np.abs(up - down)
        scale = np.maximum(np.abs(up), 1e-300)
        bad = (delta > BALANCE_TOL * scale).any(axis=-1)
        if bad.any():
            # the first worst edge in (source, target) order, the
            # row-major order of a sources x targets array
            i = int(np.argmax(bad))
            e = c.colperm[int(np.argmax((delta[i] / scale[i])[c.colperm]))]
            v, u = c.indices[e], c.rows[e]
            raise BalanceViolation(lo + i, int(d.vertices(lo + i)[v]),
                                   int(d.vertices(lo + i + 1)[u]),
                                   float(delta[i, e]))
        dense = scratch.scatter(d.F(lo), up, by_source=True, level=lo)
        rows, cols = dense.sum(axis=-1), dense.sum(axis=-2)
        # level n's mass adds level n - 1's column sums, then its row sums
        mass = np.zeros_like(rows) + shift_in(carry, cols) + rows
        carry = cols[-1]
        masses.append(mass)
        devs.append(np.abs(mass - q_lo).max(axis=-1)
                    / np.maximum(q_lo.max(axis=-1), 1e-300))
    masses.append(np.zeros_like(carry)[None] + carry)
    devs = np.concatenate(devs).tolist()
    return WeightedNetwork(hk, LevelRows(masses), max([0.0] + devs[1:]))


# ---------------------------------------------------------------- operators

def _check_f(net: WeightedNetwork, f: LevelFunction, batch: bool = False):
    """f has the network's levels; with batch, every level may also be a
    (B, m_n) stack of B functions, the same B on every level."""
    if f.depth != net.depth:
        raise DimensionMismatch(
            f"function has {f.depth + 1} levels, network {net.depth + 1}")
    lead = f.values[0].shape[:-1]
    if lead and not (batch and len(lead) == 1):
        raise DimensionMismatch(f"level 0 has shape {f.values[0].shape}")
    for n, (vec, q) in enumerate(zip(f.values, net.kernels.q)):
        if vec.shape != lead + q.shape:
            raise DimensionMismatch(f"level {n} length mismatch")


def apply_M(net: WeightedNetwork, f: LevelFunction) -> LevelFunction:
    """Mf_n = (1/2)(phat_n f_{n+1} + qhat_{n-1} f_{n-1}) on interior levels;
    the boundary rows take their one side with full weight."""
    _check_f(net, f)
    return LevelFunction(tuple(_averaged(net.kernels, _rows(f))))


def _rows(f: LevelFunction) -> LevelRows:
    """f's levels as float64 ``LevelRows``, so that a batch is a slice."""
    return LevelRows.of(f.values)


def _interior(d) -> Iterator[tuple[int, int]]:
    """(lo, hi) per batch of the interior levels 1..N-1, in order."""
    return ((max(lo, 1), hi) for lo, hi in level_batches(d)
            if max(lo, 1) < hi)


def _averaged(hk: HatKernels, v: LevelRows) -> LevelRows:
    """M v, a batch of levels at a time (see apply_M)."""
    up, dn = _sides(hk, v)
    mid = (0.5 * (up[lo:hi] + dn[lo - 1:hi - 1])
           for lo, hi in _interior(hk.diagram))
    return LevelRows([up[0][None], *mid, dn[hk.depth - 1][None]])


def _sides(hk: HatKernels, v: Sequence) -> tuple[LevelRows, LevelRows]:
    """phat_n v_{n+1} for levels n = 0..N-1 and qhat_{n-1} v_{n-1} for
    levels n = 1..N (at index n - 1), a batch at a time."""
    up, dn = [], []
    for n, P, Q in hk.batches():
        b = len(P)
        up.append(apply_TP(P, v[n + 1:n + b + 1]))
        dn.append(apply_TQ(Q, v[n:n + b]))
    return LevelRows(up), LevelRows(dn)


def apply_Delta(net: WeightedNetwork, f: LevelFunction) -> LevelFunction:
    """Delta f = c (f - Mf) with c the vertex conductance mass."""
    _check_f(net, f)
    fv = _rows(f)
    mv = _averaged(net.kernels, fv)
    # one shape per level in all three, so their runs are the same
    return LevelFunction(tuple(LevelRows(
        c * (a - b) for c, a, b in zip(net.vertex_mass.blocks, fv.blocks,
                                       mv.blocks))))


def qM_identity_residual(net: WeightedNetwork) -> float:
    """max deviation in q^(n) M = (1/2)(q^(n+1) + q^(n-1)), interior levels.

    The up-component is the defining propagation q^(n) phat = q^(n+1); the
    down-component is the duality identity, so this is a round-off check.
    """
    hk = net.kernels
    devs = np.zeros((len(hk.q), 2))   # per level: up and down deviations
    for n, P, Q in hk.batches():
        b = len(P)
        q_lo, q_hi = hk.q[n:n + b], hk.q[n + 1:n + b + 1]
        up = (q_lo[:, None] @ (0.5 * P))[:, 0]   # levels n..n+b-1
        dn = (q_hi[:, None] @ (0.5 * Q))[:, 0]   # levels n+1..n+b
        devs[n:n + b, 0] = np.abs(up - 0.5 * q_hi).max(axis=-1)
        devs[n + 1:n + b + 1, 1] = np.abs(dn - 0.5 * q_lo).max(axis=-1)
    return max([0.0] + devs[1:-1].ravel().tolist())


# ---------------------------------------------------------------- harmonic

@dataclass(frozen=True)
class HarmonicSolution:
    f: LevelFunction
    residual: float
    max_principle_ok: bool


def solve_harmonic(net: WeightedNetwork, bottom, top) -> HarmonicSolution:
    """Direct solve of 2 f_n = phat_n f_{n+1} + qhat_{n-1} f_{n-1} on the
    interior levels, with f_0, f_N pinned to the given boundary data.

    Each level couples only to its two neighbours, so the system is block
    tridiagonal and block LU solves it in one sweep (Golub & Van Loan,
    Matrix Computations, 4.5).  Forward elimination writes
    f_n = G_n f_{n+1} + g_n, where D_n = 2I - qhat_{n-1} G_{n-1} and
    [G_n | g_n] = D_n^{-1} [phat_n | qhat_{n-1} g_{n-1}], starting from
    G_0 = 0, g_0 = f_0; back substitution then runs down from f_N.  The
    interior matrix is a nonsingular M-matrix and so is every Schur
    complement D_n, so no pivoting across levels is needed.

    The residual is the largest equation residual of the returned values.
    The solution averages its neighbours, so the discrete maximum principle
    must hold; it is checked and reported.
    """
    hk = net.kernels
    N = net.depth
    if N < 2:
        raise DimensionMismatch("harmonic solve needs at least one interior level")
    f = [np.zeros(len(q)) for q in hk.q]
    f[0] = np.broadcast_to(np.asarray(bottom, dtype=np.float64),
                           f[0].shape).copy()
    f[N] = np.broadcast_to(np.asarray(top, dtype=np.float64),
                           f[N].shape).copy()
    G = np.zeros((len(hk.q[0]), len(hk.q[1])))
    g = f[0]
    eliminated = [None]
    levels = (PQ for _, P, Q in hk.batches() for PQ in zip(P, Q))
    _, Q = next(levels)
    two = np.zeros((0, 0))   # 2I of the last level's size
    for n in range(1, N):
        if len(two) != len(hk.q[n]):
            two = 2.0 * np.eye(len(hk.q[n]))
        # level n - 1's Q-hat, read before the next slice can move its batch
        D, Qg = two - Q @ G, Q @ g
        P, Q = next(levels)
        Gg = np.linalg.solve(D, np.column_stack((P, Qg)))
        G, g = Gg[:, :-1], Gg[:, -1]
        eliminated.append((G, g))
    levels.close()   # frees its stacks before the residual's
    for n in range(N - 1, 0, -1):
        G, g = eliminated[n]
        f[n] = g + G @ f[n + 1]
    f = LevelRows.of(f)
    up, dn = _sides(hk, f)
    res = []   # the interior levels' residuals, a batch at a time
    for lo, hi in _interior(hk.diagram):
        r = 2.0 * f[lo:hi] - up[lo:hi] - dn[lo - 1:hi - 1]
        res += np.abs(r).max(axis=-1).tolist()
    residual = max(res)
    lo = min(float(f[0].min()), float(f[N].min()))
    hi = max(float(f[0].max()), float(f[N].max()))
    low = f.per_row(lambda v: v.min(axis=-1))[1:N]
    high = f.per_row(lambda v: v.max(axis=-1))[1:N]
    ok = bool((low >= lo - 1e-12).all() and (high <= hi + 1e-12).all())
    return HarmonicSolution(LevelFunction(tuple(f)), residual, ok)


# ---------------------------------------------------------------- energy

@dataclass(frozen=True)
class EnergyReport:
    """The two energy forms: floats for one function, arrays of B values
    for a batch of B."""

    direct: float | np.ndarray
    operator_form: float | np.ndarray

    @property
    def agreement(self) -> float | np.ndarray:
        return abs(self.direct - self.operator_form) / (1.0 + abs(self.direct))


def _direct_terms(q: np.ndarray, P: np.ndarray, fn: np.ndarray,
                  fn1: np.ndarray) -> np.ndarray:
    """(1/2) sum over v, u of q_v P(v, u) (fn(v) - fn1(u))^2, one value per
    row of the (B, m_n) and (B, m_{n+1}) stacks fn, fn1, or (b, B) values
    for a stack of b levels.  Each row's m_n x m_{n+1} terms are summed as
    one contiguous block, as np.sum sums them for one function.  The terms
    are formed for a block of rows at a time, at most BATCH_FLOATS elements
    but one row of every level at least, so a batch of functions peaks at
    the memory of one function."""
    qP = (q[..., :, None] * P)[..., None, :, :]
    out = np.empty(fn.shape[:-1])
    step = max(1, BATCH_FLOATS // P.size)
    for s in range(0, fn.shape[-2], step):
        diff = fn[..., s:s + step, :, None] - fn1[..., s:s + step, None, :]
        np.square(diff, out=diff)
        diff *= qP
        out[..., s:s + step] = 0.5 * diff.reshape(
            diff.shape[:-2] + (-1,)).sum(axis=-1)
    return out


def energy_norm(net: WeightedNetwork, f: LevelFunction) -> EnergyReport:
    """Dirichlet energy, twice over.

    direct sums (1/2) q_v phat(v,u) (f_n(v) - f_{n+1}(u))^2 over level
    pairs; operator_form expands the square into weighted norms and the
    T_P cross term.  Equality is an algebraic identity (the cross-level
    weight is q^(n+1) because q propagates through phat).

    f is one function, giving floats, or a batch of B functions whose
    levels are (B, m_n) arrays, giving arrays of B values; the sample axis
    leads.  Each batch of levels is scattered once for all functions.
    Every function keeps its own accumulators, added in level order, and
    each of its sums reduces the same values in the same order as when it
    is alone, so a batch gives each function's energies bit for bit.
    """
    _check_f(net, f, batch=True)
    hk = net.kernels
    vals = [np.atleast_2d(v) for v in f.values]   # (B, m_n) per level
    acc = np.zeros((1, 2, len(vals[0])))   # direct, operator form
    for n, P, _ in hk.batches():
        b = len(P)
        q, q1 = hk.q[n:n + b], hk.q[n + 1:n + b + 1]
        fn, fn1 = np.stack(vals[n:n + b]), np.stack(vals[n + 1:n + b + 1])
        nn = np.sum(q[:, None] * fn * fn, axis=-1)
        cross = np.sum(q[:, None] * fn * apply_TP(P, fn1), axis=-1)
        nn1 = np.sum(q1[:, None] * fn1 * fn1, axis=-1)
        terms = np.stack((_direct_terms(q, P, fn, fn1),
                          0.5 * (nn - 2.0 * cross + nn1)), axis=1)
        # np.add.accumulate adds the batch's levels one after another
        acc = np.add.accumulate(np.concatenate((acc, terms)))[-1:]
    direct, oper = acc[0]
    if f.values[0].ndim == 1:
        return EnergyReport(float(direct[0]), float(oper[0]))
    return EnergyReport(direct, oper)


# ---------------------------------------------------------------- walks

@dataclass(frozen=True)
class WalkTrace:
    states: tuple[tuple[int, int], ...]   # (level, vertex index)
    seed: int


@dataclass(frozen=True)
class WalkStats:
    trials: int
    steps: int
    returns: np.ndarray
    return_probability: float
    mean_returns_per_step: float
    trace: WalkTrace


@dataclass(frozen=True)
class HittingEstimate:
    estimate: float
    stderr: float
    top_hits: int
    bottom_hits: int
    timeouts: int
    trials: int


def _flatten(net: WeightedNetwork):
    """The move table of the M-chain over all (level, vertex) states.

    State (n, i) moves up along column i of F(n), targets ascending, with
    P-hat weights, then down along row i of F(n-1), sources ascending, with
    Q-hat weights; a move of weight 0 is dropped.  Each state's cumulative
    sums run in that order (see _accel.move_table).
    """
    hk = net.kernels
    d = hk.diagram
    sizes = [len(q) for q in hk.q]
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    level_of = np.concatenate([np.full(s, n, dtype=np.int64)
                               for n, s in enumerate(sizes)])
    N = net.depth

    def level(n, s):
        parts = []   # (state, kernel value, destination, weight) per side
        if n < N:
            c = d.F(n).csr
            parts.append((c.indices[c.colperm], hk.phat_values[n][c.colperm],
                          offsets[n + 1] + c.rows[c.colperm],
                          1.0 if n == 0 else 0.5))
        if n > 0:
            c = d.F(n - 1).csr
            parts.append((c.rows, hk.qhat_values[n - 1],
                          offsets[n - 1] + c.indices, 1.0 if n == N else 0.5))
        state, val, dest, prob = (np.concatenate(x) for x in zip(*[
            (i, v, t, w * v) for i, v, t, w in parts]))
        keep = val != 0
        return s, state[keep], prob[keep], dest[keep]

    return (*_accel.move_table(level(n, s) for n, s in enumerate(sizes)),
            level_of, offsets)


def _state_of(net: WeightedNetwork, start: tuple[int, int],
              offsets: np.ndarray) -> int:
    level, vertex = start
    win = net.kernels.diagram.window(level)
    return int(offsets[level] + win.position(vertex))


def walk(net: WeightedNetwork, start: tuple[int, int], steps: int,
         trials: int, seed: int = 0) -> WalkStats:
    """Sample the M-chain; counts returns to the start state and traces
    trial 0.

    Fixing the seed fixes every trajectory exactly, because trial streams
    are derived from (seed, index).
    """
    if steps < 1 or trials < 1:
        raise ValueError(f"a walk needs steps >= 1 and trials >= 1, "
                         f"got steps={steps}, trials={trials}")
    rowptr, cum, tgt, level_of, offsets = _flatten(net)
    s0 = _state_of(net, start, offsets)
    returns, path = _accel.walk_returns_kernel(rowptr, cum, tgt, s0, steps,
                                               seed, trials)
    d = net.kernels.diagram
    states = []
    for st in path:
        lvl = int(level_of[st])
        states.append((lvl, int(d.vertices(lvl)[st - offsets[lvl]])))
    return WalkStats(trials, steps, returns,
                     float(np.mean(returns > 0)),
                     float(returns.sum()) / (trials * steps),
                     WalkTrace(tuple(states), seed))


def hitting_probability(net: WeightedNetwork, start: tuple[int, int],
                        trials: int, seed: int = 0,
                        max_steps: int = 10_000) -> HittingEstimate:
    """P(reach the top level before level 0), estimated by absorbed walks.

    This is the Monte-Carlo counterpart of solve_harmonic with boundary
    data 0 at the bottom and 1 at the top.  Each trial is checked for
    absorption before its first move and after each of up to max_steps
    moves; a trial still walking after max_steps moves is a timeout and
    is left out of the estimate.  max_steps = 0 decides only the start.
    With no decided trial the estimate is nan and its stderr infinite.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, got {max_steps}")
    rowptr, cum, tgt, level_of, offsets = _flatten(net)
    s0 = _state_of(net, start, offsets)
    res = _accel.walk_hitting_kernel(rowptr, cum, tgt, level_of, s0, 0,
                                     net.depth, max_steps, seed, trials)
    top = int(np.sum(res == 1))
    bot = int(np.sum(res == 0))
    out = int(np.sum(res == -1))
    decided = top + bot
    if decided == 0:
        return HittingEstimate(math.nan, math.inf, top, bot, out, trials)
    p = top / decided
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / decided)
    return HittingEstimate(p, se, top, bot, out, trials)
