"""Markov measures on path spaces and their transfer operators.

A Markov system is an initial mass vector q^(0) on the level-0 window plus,
for every level, one probability per outgoing edge: the mass of a cylinder
is q at its start times the product of edge probabilities.  Vertex-level
reductions P-hat (sum of edge probabilities between a source/target pair)
propagate the level masses q^(n); the dual kernels Q-hat run the chain
backwards and satisfy detailed balance

    q^(n)_v * phat_n(v, u) = q^(n+1)_u * qhat_n(u, v)

by construction.  T_P and T_Q act on level functions as P-hat / Q-hat and
are mutually adjoint contractions between the q-weighted l2 spaces; their
composition T_n = P-hat Q-hat is row-stochastic, fixes q^(n) on the left
and is self-adjoint in the level-n weighted inner product.

Stored form.  Everything is kept per level in the CSR order of
``diagram.F(n).csr``, and every per-level record is a ``diagram.LevelRows``:
one read-only float64 2-D array per run of levels whose vectors share a
shape, so the whole depth of a stationary diagram is one array, a level
is a row view of it and a batch of levels a 2-D slice.  A system holds its
probabilities so (``MarkovSystem.p_values``, with rank offsets ``p_ranks``
only where an entry gives one value per edge rank); ``explicit_system`` is
the one reader of {(source, target): value} mappings.  P-hat
(``HatKernels.phat_values``) and Q-hat (``HatKernels.qhat_values``) are one
value per edge, and the masses ``HatKernels.q`` one vector per level, in
the same form.  Every loop over the levels runs over ``level_batches``,
runs of levels that share one level record, as many as fit in BATCH_FLOATS
floats of dense kernel: elementwise expressions and reductions over the
last axis of a batch's slices give each level the bits of its own 1-D
computation, so the induced system, the mass scan, the balance gaps and
Q-hat against the hat incidence matrix cost numpy calls per batch, not
per level.  Levels that cannot share a batch (a nonstationary diagram, a
level wider than the budget) run the same code with batches of one.  The
products whose float summation order reaches an output stay dense: ``q @
P``, row sums, T_P / T_Q, T_n and the Laplacian.  A dense kernel exists
only while its batch is processed: the level sweep below, the operators
check and the Laplacian scatter a batch (``HatKernels.batches``) into
reused (b, m_n, m_{n+1}) ``diagram.Scratch`` stacks.  Each slice is the
array a dense computation holds, in its layout (Q-hat is the transpose of
a by-source scatter), and matmul on a stack makes each slice's own BLAS
call, so every printed number stays identical while memory grows with
the edges, not depth x m^2.  ``hk.phat[n]`` and ``hk.qhat[n]`` scatter
one level afresh.  Per-vertex sums of edge values (the clipped-row
renormalization of an induced system) go through
``IncidenceMatrix.totals``, one np.add.at per batch.  T_n is dense, but
its self-adjointness is read only where it can be nonzero, at the source
pairs of the level (``self_adjoint_gap``).

``MarkovSystem.levels`` owns the one dense sweep over the levels, cached
on the system, and returns the system's ``HatKernels``: each level's P-hat
edge values, q^(n+1) = q^(n) P-hat_n, each level's largest |row sum - 1|
and the Q-hat edge values formed from the batch's P-hat edges and masses.
Every reader of P-hat, Q-hat, the masses or the row deviations uses it;
``dual_kernels`` only checks that no mass vanished before handing it out.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import Error
from .diagram import Diagram, FinitePath, LevelRows, Scratch, path_entries
from .measures import DimensionMismatch, MeasureSequence, hat_matrices

Q_FLOOR = 1e-300  # below this a level mass is treated as identically zero
CLIP_TOL = 1e-9   # outgoing sums further than this from 1 mark a clipped row


class PathInvalid(Error):
    pass


class ZeroMass(Error):
    def __init__(self, level: int, vertex: int):
        super().__init__(f"level mass q^({level})_{vertex} vanished; dual "
                         f"kernel rows into it are undefined")
        self.level = level
        self.vertex = vertex


class ZeroMeasureVertex(Error):
    def __init__(self, level: int, vertex: int):
        super().__init__(f"measure vanishes at level {level} vertex {vertex}")
        self.level = level
        self.vertex = vertex


# ---------------------------------------------------------------- system

@dataclass(frozen=True)
class MarkovSystem:
    """q^(0) plus edge-resolved transition probabilities per level.

    p_values[n] holds level n's probabilities in the CSR order of
    ``diagram.F(n).csr``: a read-only float64 row of a ``LevelRows``, so
    that the levels of a batch are one 2-D slice (any sequence of
    per-level arrays given is stored so).  When p_ranks[n] is None, entry
    k has the one value p_values[n][k], shared by its mult[k] parallel
    edges.  Otherwise entry k's values are
    p_values[n][p_ranks[n][k]:p_ranks[n][k + 1]]: one shared value, or one
    value per edge rank.  ``explicit_system`` builds a checked system from
    {(source, target): value} mappings.  ``normalized`` lists the (level,
    source vertex) rows that ``markov_from_tail_invariant`` renormalized.
    """

    diagram: Diagram
    q0: np.ndarray
    p_values: LevelRows
    p_ranks: tuple[np.ndarray | None, ...]
    normalized: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "p_values", LevelRows.of(self.p_values))

    @property
    def depth(self) -> int:
        return self.diagram.depth

    def _phat(self, lo: int, hi: int) -> np.ndarray:
        """(hi - lo, edges) P-hat edge values of a batch of levels."""
        mult, ranks = self.diagram.F(lo).csr.mult, self.p_ranks[lo:hi]
        if all(r is None for r in ranks):
            return _phat(mult, self.p_values[lo:hi], None)
        return np.stack([_phat(mult, self.p_values[n], r)
                         for n, r in zip(range(lo, hi), ranks)])

    @cached_property
    def levels(self) -> HatKernels:
        """P-hat, Q-hat and the masses, batch by batch; checks nothing.  A
        vanished mass gives inf or NaN Q-hat values into its vertex, which
        ``dual_kernels`` reports as ZeroMass."""
        d = self.diagram
        q_n = np.asarray(self.q0, dtype=np.float64)
        q, devs, phat, qhat = [q_n[None]], [], [], []
        scratch = Scratch()
        for lo, hi in level_batches(d):
            F = d.F(lo)
            c = F.csr
            edges = self._phat(lo, hi)
            P = scratch.scatter(F, edges, by_source=True, level=lo)
            devs.append(np.abs(P.sum(axis=-1) - 1.0).max(axis=-1))
            q_hi = np.empty((hi - lo, P.shape[-1]))
            for Pn, row in zip(P, q_hi):
                q_n = row[:] = q_n @ Pn
            q_lo = shift_in(q[-1][-1], q_hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                qhat.append(edges * q_lo[:, c.indices] / q_hi[:, c.rows])
            q.append(q_hi)
            phat.append(edges)
        return HatKernels(d, LevelRows(q), LevelRows(phat), LevelRows(qhat),
                          np.concatenate(devs))


def shift_in(first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of levels lo..hi-1 from level lo's row and the (hi - lo)
    rows of levels lo+1..hi: a batch of several levels has one window."""
    if len(rows) == 1:   # the window may change from level to level
        return first[None]
    return np.concatenate((first[None], rows[:-1]))


def _phat(mult: np.ndarray, p: np.ndarray, ranks: np.ndarray | None
          ) -> np.ndarray:
    """``HatKernels.phat_values`` of one level's arrays, or of a stack of
    levels without rank offsets."""
    if ranks is None:
        return np.asarray(mult * p, dtype=np.float64)
    lo, count = ranks[:-1], np.diff(ranks)
    out = np.zeros(len(count))
    for r in range(int(count.max())):   # a sequential sum, as sum() adds
        live = count > r
        out[live] += p[lo[live] + r]
    shared = count == 1
    out[shared] = mult[shared] * p[lo[shared]]
    return out


def explicit_system(d: Diagram, q0, probs: Sequence[Mapping],
                    tol: float = 1e-12) -> MarkovSystem:
    """The system whose probs[n] maps each source/target pair (v in V_n,
    u in V_{n+1}) to one float shared by its parallel edges or a tuple
    with one value per edge rank.

    Checks, in this order: q0 against the level-0 window, finite and
    positive; one mapping per level, the last one not empty; then per
    level, its keys are the level's edge set, each value in mapping order
    has one value or one per rank, all finite and positive, and each
    outgoing row sums to 1 within tol; a row whose sum overflows fails at
    every tol, inf too.
    """
    q0 = np.asarray(q0, dtype=np.float64)
    if len(q0) != len(d.window(0)):
        raise DimensionMismatch("q0 does not match the level-0 window")
    for j in np.flatnonzero(~np.isfinite(q0))[:1]:
        raise PathInvalid(f"non-finite q0 entry {q0[j]} at level-0 vertex "
                          f"{d.vertices(0)[j]}")
    if (q0 <= 0).any():
        raise ZeroMeasureVertex(0, int(d.vertices(0)[int(np.argmin(q0))]))
    if len(probs) != d.depth:
        raise DimensionMismatch(
            f"{len(probs)} probability levels for depth {d.depth}")
    given = next((n for n in range(d.depth, 0, -1) if probs[n - 1]), 0)
    if given < d.depth:   # a spec run deeper than its markov block
        raise DimensionMismatch(f"probabilities given for levels 0.."
                                f"{given - 1}, not for depth {d.depth}")
    p_values, p_ranks = [], []
    for n, level in enumerate(probs):
        m = d.F(n)
        edges = {(w, v): mult for v, w, mult in m.triplets()}
        if set(level) != set(edges):
            raise PathInvalid(f"level {n} probabilities keyed off the edge "
                              f"set of the diagram")
        for (w, v), val in level.items():
            vals = (val,) if np.isscalar(val) else tuple(val)
            mult = edges[(w, v)]
            if not np.isscalar(val) and len(vals) != mult:
                raise PathInvalid(f"edge ({w}->{v}) at level {n} has "
                                  f"{len(vals)} values for {mult} edges")
            if not all(0 < x < np.inf for x in vals):
                raise PathInvalid(f"nonpositive or non-finite probability "
                                  f"on edge ({w}->{v}) at level {n}")
        entries = [level[key] for key in edges]   # in CSR order
        if all(map(np.isscalar, entries)):
            p, ranks = np.array(entries, dtype=np.float64), None
        else:
            parts = [np.atleast_1d(x) for x in entries]
            p = np.concatenate(parts, dtype=np.float64)
            ranks = np.cumsum([0] + [len(a) for a in parts])
        with np.errstate(over="ignore"):   # an overflowing row is reported
            sums = m.scatter(_phat(m.csr.mult, p, ranks), by_source=True,
                             level=n).sum(axis=1)
        j = int(np.argmax(np.abs(sums - 1.0)))   # the worst row
        if abs(sums[j] - 1.0) > tol or np.isinf(sums[j]):
            raise PathInvalid(f"outgoing probabilities at level {n} vertex "
                              f"{d.vertices(n)[j]} sum to {float(sums[j])}, "
                              f"not 1")
        p_values.append(p)
        p_ranks.append(ranks)
    return MarkovSystem(d, q0, tuple(p_values), tuple(p_ranks))


# ---------------------------------------------------------------- masses

def cylinder_mass(ms: MarkovSystem, p: FinitePath) -> float:
    """m([e]) = q0 at the start vertex times the edge probabilities.
    Kolmogorov consistency: test_criterion_03_extension_sums."""
    d = ms.diagram
    try:
        entries = path_entries(d, p)
    except ValueError:
        raise PathInvalid(f"path not in diagram: {p}") from None
    mass = float(ms.q0[d.window(0).position(p.initial[1])])
    # a value is shared by all parallel edges or given per rank
    for (lvl, _, _, rank), k in zip(p.edges, entries):
        ranks = ms.p_ranks[lvl]
        if ranks is not None:
            lo, hi = int(ranks[k]), int(ranks[k + 1])
            k = lo + rank if hi - lo > 1 else lo
        mass *= float(ms.p_values[lvl][k])
    return mass


# ---------------------------------------------------------------- duals

BATCH_FLOATS = 2 ** 16   # floats per stack of dense levels


def level_batches(d: Diagram) -> Iterator[tuple[int, int]]:
    """(lo, hi) per batch of levels lo..hi-1, in order: as many as fit in
    BATCH_FLOATS floats of dense m x m kernel (one at least) on a
    stationary diagram, which holds one level record however it was given
    (``validate`` stores equal levels as one), else one level at a time."""
    m = len(d.window(0))
    b = max(1, BATCH_FLOATS // (m * m)) if d.stationary else 1
    return ((n, min(n + b, d.depth)) for n in range(0, d.depth, b))


class _DenseLevels:
    """``hk.phat`` / ``hk.qhat``: indexing by level scatters a fresh dense
    kernel from the edge values; nothing is cached."""

    __slots__ = ("_diagram", "_values", "_dual")

    def __init__(self, diagram: Diagram, values: LevelRows, dual: bool):
        self._diagram, self._values, self._dual = diagram, values, dual

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, n: int) -> np.ndarray:
        K = self._diagram.F(n).scatter(self._values[n], by_source=True,
                                       level=n)
        return K.T if self._dual else K


@dataclass(frozen=True)
class HatKernels:
    """P-hat, Q-hat and the level masses of one Markov system, as
    ``MarkovSystem.levels`` builds them.

    q, phat_values and qhat_values are float64 ``LevelRows``: per level
    one read-only row, and a batch of levels one 2-D slice.  q[n] is q^(n).
    Each kernel is stored as one value per edge of level n, in the CSR
    order of ``diagram.F(n).csr``: phat_values[n] is P-hat (mult * p for a
    shared value, the sum of the per-rank values, added left to right,
    otherwise) and qhat_values[n] the dual value on the same edge.
    stochasticity is one read-only float array, with stochasticity[n] =
    max_v |sum_u P-hat_n(v, u) - 1|.  Any sequence of per-level arrays
    given for a field is stored in these forms.  ``phat[n]`` (rows V_n,
    columns V_{n+1}) and ``qhat[n]`` (rows V_{n+1}, columns V_n: it runs
    the chain downwards) build the dense kernel afresh on every index;
    ``batches`` scatters the levels of a batch into one stack.
    """

    diagram: Diagram
    q: LevelRows
    phat_values: LevelRows
    qhat_values: LevelRows
    stochasticity: np.ndarray

    def __post_init__(self):
        for name in ("q", "phat_values", "qhat_values"):
            object.__setattr__(self, name, LevelRows.of(getattr(self, name)))
        dev = np.array(self.stochasticity, dtype=np.float64)
        dev.flags.writeable = False
        object.__setattr__(self, "stochasticity", dev)

    @property
    def depth(self) -> int:
        return self.diagram.depth

    @property
    def phat(self) -> _DenseLevels:
        return _DenseLevels(self.diagram, self.phat_values, False)

    @property
    def qhat(self) -> _DenseLevels:
        return _DenseLevels(self.diagram, self.qhat_values, True)

    def batches(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(n, P, Q) per batch of levels n..n+b-1: P[i], Q[i] are phat[n + i],
        qhat[n + i] in read-only stacks that the next batch overwrites."""
        kernels = (Scratch(), self.phat_values), (Scratch(), self.qhat_values)
        for lo, hi in level_batches(self.diagram):
            P, Q = (s.scatter(self.diagram.F(lo), v[lo:hi], by_source=True,
                              level=lo) for s, v in kernels)
            yield lo, P, Q.swapaxes(-1, -2)


def dual_kernels(ms: MarkovSystem) -> HatKernels:
    """Backward kernels qhat_n(u, v) = (q^(n)_v / q^(n+1)_u) phat_n(v, u),
    from the system's sweep ``ms.levels``, after ZeroMass has named the
    first level whose mass vanished somewhere."""
    q = ms.levels.q
    low = q.per_row(lambda v: (v < Q_FLOOR).any(axis=-1))
    for n in np.flatnonzero(low[1:])[:1] + 1:
        raise ZeroMass(int(n), int(ms.diagram.vertices(n)[q[n].argmin()]))
    return ms.levels


def markov_from_tail_invariant(d: Diagram, nu: MeasureSequence
                               ) -> MarkovSystem:
    """The Markov system whose cylinder masses reproduce a tail-invariant
    measure: p^(n) on every edge v -> u equals nu^(n+1)_u / nu^(n)_v.

    All parallel edges share the value, so no level has rank offsets.  On
    windowed truncations the outgoing sums at clipped source vertices fall
    short of 1; those rows are renormalized (and listed in ``normalized``)
    since a window cannot carry the lost mass.  Each batch of levels is
    one pass of array expressions over its rows.
    """
    if nu.depth != d.depth:
        raise DimensionMismatch(
            f"measure depth {nu.depth} != diagram depth {d.depth}")
    mu = nu.vectors
    for n in np.flatnonzero(mu.per_row(lambda v: (v <= 0).any(axis=-1)))[:1]:
        raise ZeroMeasureVertex(int(n),
                                int(d.vertices(n)[int(np.argmin(mu[n]))]))
    ps = []
    normalized: list[tuple[int, int]] = []
    for lo, hi in level_batches(d):
        m = d.F(lo)
        c = m.csr
        p = mu[lo + 1:hi + 1][:, c.rows] / mu[lo:hi][:, c.indices]
        # outgoing sums equal (A nu^(n+1))_v / nu^(n)_v = 1 except where the
        # window clipped the row; each sum adds its column in target order
        sums = m.totals(np.asarray(c.mult * p, dtype=np.float64),
                        by_source=True)
        clipped = np.abs(sums - 1.0) > CLIP_TOL
        ps.append(p / np.where(clipped, sums, 1.0)[:, c.indices])
        normalized.extend((lo + int(i), m.sources[j])
                          for i, j in zip(*np.nonzero(clipped)))
    return MarkovSystem(d, np.array(mu[0], dtype=np.float64), LevelRows(ps),
                        (None,) * d.depth, tuple(normalized))


def balance_gaps(hk: HatKernels) -> np.ndarray:
    """Per level n, max |q^(n)_v phat_n(v, u) - q^(n+1)_u qhat_n(u, v)|
    over the edges of level n, a batch of levels at a time; off the edges
    both kernels of a dual pair vanish."""
    gaps = []
    for lo, hi in level_batches(hk.diagram):
        c = hk.diagram.F(lo).csr
        gaps.append(np.abs(hk.q[lo:hi][:, c.indices] * hk.phat_values[lo:hi]
                           - hk.q[lo + 1:hi + 1][:, c.rows]
                           * hk.qhat_values[lo:hi]).max(axis=-1))
    return np.concatenate(gaps)


def hat_vs_incidence(d: Diagram, hk: HatKernels) -> float:
    """max |Q-hat_n - F-hat_n| over rows unaffected by truncation.

    For systems induced by a tail-invariant measure this is a round-off
    quantity: the dual kernel IS the row-stochastic incidence matrix.  On
    windowed truncations the identity only holds where the level masses
    propagated without touching a clipped source row, so such rows are
    masked level by level.  Both kernels vanish off the edges, so only
    edges are compared.  The exact heights are read up to the last level
    with a clean target.
    """
    hats = hat_matrices(d)
    worst = 0.0
    clean = np.ones(len(d.vertices(0)), dtype=bool)
    for lo, hi in level_batches(d):
        F = d.F(lo)
        c = F.csr
        edges = []   # per level of the batch: the edges into clean targets
        for n in range(lo, hi):
            # a target stays clean when every source in its row is
            mask = np.logical_and.reduceat((clean & F.interior_cols)[c.indices],
                                           c.indptr[:-1])
            if not mask.any():
                break   # and no later level has a clean target
            edges.append(mask[c.rows])
            if np.array_equal(mask, clean):   # F's step fixes the mask
                edges += edges[-1:] * (hi - n - 1)
                break
            clean = mask
        if edges:
            b = len(edges)
            fhat = np.stack([hm.values() for hm in islice(hats, b)])
            diff = np.abs(hk.qhat_values[lo:lo + b] - fhat)
            worst = max(worst, *np.where(edges, diff, -np.inf)
                        .max(axis=-1).tolist())
        if len(edges) < hi - lo:
            break
    return worst


# ---------------------------------------------------------------- spaces

@dataclass(frozen=True)
class WeightedSeqSpace:
    """l2 space on one level window with weights q^(n).

    ``inner`` and ``norm`` reduce over the last axis: two vectors give a
    float, two stacks of B vectors (shape (B, m)) give B values, each the
    same float that its pair of vectors alone gives.  ``space(hk, n, b)``
    stacks b levels: (b, 1, m) weights take (b, B, m) stacks to (b, B).
    """

    level: int
    weights: np.ndarray
    vertices: Sequence[int]   # the window's vertex labels, for errors

    def __post_init__(self):
        if (self.weights <= 0).any():
            i, j = divmod(int(np.argmin(self.weights)), len(self.vertices))
            raise ZeroMass(self.level + i, int(self.vertices[j]))

    def inner(self, f, g):
        r = np.sum(self.weights * np.asarray(f) * np.asarray(g), axis=-1)
        return float(r) if r.ndim == 0 else r

    def norm(self, f):
        r = np.sqrt(self.inner(f, f))
        return float(r) if r.ndim == 0 else r


def space(hk: HatKernels, n: int, b: int | None = None) -> WeightedSeqSpace:
    w = hk.q[n] if b is None else hk.q[n:n + b][:, None]
    return WeightedSeqSpace(n, w, hk.diagram.vertices(n))


def _stack_product(K: np.ndarray, f, where: str) -> np.ndarray:
    """K applied to a vector or each row of a (B, k) stack, per level for a
    stack of levels K.  The stack goes through matmul as column vectors, so
    each row makes the same gemv call that the row alone makes and gets the
    same bits; a ``K @ F.T`` would be one gemm, which rounds differently."""
    f = np.asarray(f, dtype=np.float64)
    lead = K.shape[:-2]
    if (f.ndim - len(lead) not in (1, 2) or f.shape[:len(lead)] != lead
            or f.shape[-1] != K.shape[-1]):
        raise DimensionMismatch(
            f"{where} ({K.shape[-1]} vertices), got shape {f.shape}")
    K = K[..., None, :, :] if lead and f.ndim == K.ndim else K
    return (K @ f[..., None])[..., 0]


def apply_TP(P: np.ndarray, f) -> np.ndarray:
    """(T_P f)(v) = sum over outgoing edges of p * f(target): V_{n+1} -> V_n,
    with P = hk.phat[n].  f is one vector on V_{n+1}, or a (B, m_{n+1})
    stack of them, giving a (B, m_n) stack."""
    return _stack_product(P, f, "T_P expects vectors on V_{n+1}")


def apply_TQ(Q: np.ndarray, g) -> np.ndarray:
    """(T_Q g)(u) = sum over incoming edges of qhat * g(source): V_n -> V_{n+1},
    with Q = hk.qhat[n].  g is one vector on V_n, or a (B, m_n) stack of
    them, giving a (B, m_{n+1}) stack."""
    return _stack_product(Q, g, "T_Q expects vectors on V_n")


def compose_Tn(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """T-hat_n = P-hat_n Q-hat_n, from P = hk.phat[n] and Q = hk.qhat[n]:
    row-stochastic, fixes q^(n) on the left, self-adjoint in the
    q^(n)-weighted inner product.  Stacks of levels give stacks."""
    if Q.shape[:-2] + Q.shape[-2:][::-1] != P.shape:
        raise DimensionMismatch(
            f"T_n needs a {P.shape[-1]}x{P.shape[-2]} dual kernel, got "
            f"{Q.shape[-2]}x{Q.shape[-1]}")
    return P @ Q


def self_adjoint_gap(T: np.ndarray, q: np.ndarray, pairs) -> float:
    """max over v, w of |q_v T(v, w) - q_w T(w, v)|, with T = compose_Tn of
    level n and q = q^(n): how far T is from self-adjoint in l2(q).

    ``pairs`` is ``diagram.F(n).source_pairs``, and only those entries
    are read (|x - y| = |y - x|, so one order of each pair is enough).
    Every product in an entry of T off the pairs has a zero factor, so
    while q and the kernels are finite that entry is an exact zero and its
    gap 0.  A value of q or of the kernels that is not finite makes the
    diagonal pair of its vertex NaN, and so the dense maximum too.  Either
    way the maximum over the pairs is the maximum over the whole array,
    which is read when ``pairs`` is None.  Stacks of b levels give b gaps.
    """
    if pairs is None:
        qT = q[..., :, None] * T
        gap = np.abs(qT - qT.swapaxes(-1, -2)).max(axis=(-2, -1))
    else:
        v, w = pairs
        gap = q[..., v] * T[..., v, w] - q[..., w] * T[..., w, v]
        gap = np.abs(gap, out=gap).max(axis=-1)
    return float(gap) if gap.ndim == 0 else gap
