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

Stored form.  Both kernels are nonzero only on the edges of the level's
incidence matrix, so a system keeps P-hat as one value per edge, in the
CSR order of ``diagram.F(n).csr`` (``MarkovSystem.phat_edges``), computed
once per level.  Q-hat is scattered from those values, and comparisons
that are elementwise (detailed balance, Q-hat against the hat incidence
matrix) read the edges alone.  The products whose float summation order
reaches an output stay dense: ``q @ P``, row sums, T_P / T_Q, T_n and
the Laplacian built on ``HatKernels``.  That keeps every printed number
identical to the dense computation, so ``phat`` and ``HatKernels`` still
hand out m x m arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .diagram import Diagram, FinitePath, path_in_diagram
from .measures import DimensionMismatch, MeasureSequence, hat_matrix

Q_FLOOR = 1e-300  # below this a level mass is treated as identically zero


class PathInvalid(Exception):
    pass


class ZeroMass(Exception):
    def __init__(self, level: int, vertex: int):
        super().__init__(f"level mass q^({level})_{vertex} vanished; dual "
                         f"kernel rows into it are undefined")
        self.level = level
        self.vertex = vertex


class ZeroMeasureVertex(Exception):
    def __init__(self, level: int, vertex: int):
        super().__init__(f"measure vanishes at level {level} vertex {vertex}")
        self.level = level
        self.vertex = vertex


# ---------------------------------------------------------------- system

@dataclass(frozen=True)
class MarkovSystem:
    """q^(0) plus edge-resolved transition probabilities per level.

    probs[n] maps a source/target pair (v in V_n, u in V_{n+1}) to either a
    single float (one shared value for all parallel edges -- the storage
    used by tail-invariant-induced systems) or a tuple with one value per
    edge rank.
    """

    diagram: Diagram
    q0: np.ndarray
    probs: tuple[Mapping[tuple[int, int], object], ...]
    meta: Mapping[str, object] = field(default_factory=dict)
    # level -> phat_edges(level), filled on first use
    _edges: dict[int, np.ndarray] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)

    @property
    def depth(self) -> int:
        return self.diagram.depth

    def phat_edges(self, level: int) -> np.ndarray:
        """P-hat at ``level``, one read-only value per edge of
        ``diagram.F(level).csr``: mult * p for a shared value, the sum of
        the per-rank values otherwise.  Computed once per level."""
        if level not in self._edges:
            tots = []
            for u, v, mult in self.diagram.F(level).triplets():
                val = self.probs[level][(v, u)]
                tots.append(mult * float(val) if np.isscalar(val)
                            else float(sum(val)))
            self._edges[level] = _frozen(np.array(tots, dtype=np.float64))
        return self._edges[level]

    def phat(self, level: int) -> np.ndarray:
        """Vertex-level kernel: rows = V_level sources, cols = V_{level+1}."""
        m = self.diagram.F(level)
        out = np.zeros((len(m.sources), len(m.targets)))
        out[m.csr.indices, m.csr.rows] = self.phat_edges(level)
        return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def validate_system(ms: MarkovSystem, tol: float = 1e-12) -> None:
    """Positivity exactly on edges, stochastic rows within tol."""
    d = ms.diagram
    if len(ms.q0) != len(d.window(0)):
        raise DimensionMismatch("q0 does not match the level-0 window")
    if (np.asarray(ms.q0) <= 0).any():
        raise ZeroMeasureVertex(0, int(d.vertices(0)[int(np.argmin(ms.q0))]))
    if len(ms.probs) != d.depth:
        raise DimensionMismatch(
            f"{len(ms.probs)} probability levels for depth {d.depth}")
    for n in range(d.depth):
        m = d.F(n)
        edges = {(w, v): mult for v, w, mult in m.triplets()}
        if set(ms.probs[n]) != set(edges):
            raise PathInvalid(f"level {n} probabilities keyed off the edge "
                              f"set of the diagram")
        for (w, v), val in ms.probs[n].items():
            vals = (val,) if np.isscalar(val) else tuple(val)
            mult = edges[(w, v)]
            if not np.isscalar(val) and len(vals) != mult:
                raise PathInvalid(f"edge ({w}->{v}) at level {n} has "
                                  f"{len(vals)} values for {mult} edges")
            if any(x <= 0 for x in vals):
                raise PathInvalid(f"nonpositive probability on edge "
                                  f"({w}->{v}) at level {n}")
        sums = ms.phat(n).sum(axis=1)
        bad = np.abs(sums - 1.0) > tol
        if bad.any():
            w = d.vertices(n)[int(np.argmax(np.abs(sums - 1.0)))]
            raise PathInvalid(f"outgoing probabilities at level {n} vertex "
                              f"{w} sum to {sums[bad][0]!r}, not 1")


# ---------------------------------------------------------------- masses

def cylinder_mass(ms: MarkovSystem, p: FinitePath) -> float:
    """m([e]) = q0 at the start vertex times the edge probabilities."""
    d = ms.diagram
    if not path_in_diagram(d, p):
        raise PathInvalid(f"path not in diagram: {p}")
    lvl0, v0 = p.initial
    if lvl0 != 0:
        raise PathInvalid("cylinder masses are rooted at level 0")
    mass = float(ms.q0[d.window(0).position(v0)])
    # path_in_diagram has checked every rank against its multiplicity; a
    # value is shared by all parallel edges or given per rank
    for (lvl, src, tgt, rank) in p.edges:
        val = ms.probs[lvl][(src, tgt)]
        mass *= float(val) if np.isscalar(val) else float(val[rank])
    return mass


def propagate_q(ms: MarkovSystem) -> list[np.ndarray]:
    """q^(n+1) = q^(n) P-hat_n for n = 0..depth-1."""
    q = [np.asarray(ms.q0, dtype=np.float64)]
    for n in range(ms.depth):
        q.append(q[-1] @ ms.phat(n))
    return q


# ---------------------------------------------------------------- duals

@dataclass(frozen=True)
class HatKernels:
    """P-hat, Q-hat and the level masses of one Markov system.

    qhat[n] has rows indexed by V_{n+1} and columns by V_n (it runs the
    chain downwards); edge-level dual probabilities split qhat(u, v)
    uniformly among the parallel edges (the split is genuinely non-unique).
    """

    diagram: Diagram
    phat: tuple[np.ndarray, ...]
    qhat: tuple[np.ndarray, ...]
    q: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return self.diagram.depth

    def qhat_edges(self, level: int, u: int, v: int) -> tuple[float, ...]:
        """Per-rank dual probabilities for the edges between v and u."""
        m = self.diagram.F(level)
        mult = m.multiplicity(u, v)
        if mult == 0:
            raise PathInvalid(f"no edges between level-{level} source {v} "
                              f"and target {u}")
        total = float(self.qhat[level][m.row_window.position(u),
                                       m.col_window.position(v)])
        return (total / mult,) * mult


def check_mass(ms: MarkovSystem, level: int, q: np.ndarray) -> None:
    """Raise ZeroMass when the level mass q^(level) vanished somewhere."""
    if (q < Q_FLOOR).any():
        raise ZeroMass(level,
                       int(ms.diagram.vertices(level)[int(np.argmin(q))]))


def dual_kernels(ms: MarkovSystem) -> HatKernels:
    """Backward kernels qhat_n(u, v) = (q^(n)_v / q^(n+1)_u) phat_n(v, u).

    One pass per level: the dense P-hat, q^(n+1) = q^(n) P-hat (as in
    propagate_q), and Q-hat scattered from the edge values of P-hat.
    """
    qs = [np.asarray(ms.q0, dtype=np.float64)]
    phats, qhats = [], []
    for n in range(ms.depth):
        c = ms.diagram.F(n).csr
        P = ms.phat(n)
        q_lo, q_hi = qs[n], qs[n] @ P
        check_mass(ms, n + 1, q_hi)
        # Fortran order is the layout of P.T: dense products with Q-hat
        # make the same BLAS calls, and round the same way, as always
        Q = np.zeros(P.shape[::-1], order="F")
        Q[c.rows, c.indices] = (ms.phat_edges(n) * q_lo[c.indices]
                                / q_hi[c.rows])
        qs.append(q_hi)
        phats.append(P)
        qhats.append(Q)
    return HatKernels(ms.diagram, tuple(phats), tuple(qhats), tuple(qs))


def markov_from_tail_invariant(d: Diagram, nu: MeasureSequence,
                               boundary_tol: float = 1e-9) -> MarkovSystem:
    """The Markov system whose cylinder masses reproduce a tail-invariant
    measure: p^(n) on every edge v -> u equals nu^(n+1)_u / nu^(n)_v.

    All parallel edges share the value, so it is stored once per vertex
    pair.  On windowed truncations the outgoing sums at clipped source
    vertices fall short of 1; those rows are renormalized (and recorded in
    meta["normalized"]) since a window cannot carry the lost mass.
    """
    if nu.kind != "CylinderValues":
        raise DimensionMismatch("need CylinderValues to induce a system")
    if nu.depth != d.depth:
        raise DimensionMismatch(
            f"measure depth {nu.depth} != diagram depth {d.depth}")
    for n in range(d.depth + 1):
        vec = nu.level(n)
        if (vec <= 0).any():
            raise ZeroMeasureVertex(
                n, int(d.vertices(n)[int(np.argmin(vec))]))
    probs = []
    edges = {}
    normalized: list[tuple[int, int]] = []
    for n in range(d.depth):
        m = d.F(n)
        c = m.csr
        p = nu.level(n + 1)[c.rows] / nu.level(n)[c.indices]
        # outgoing sums equal (A nu^(n+1))_v / nu^(n)_v = 1 except where the
        # window clipped the row; each sum adds its column in target order
        sums = np.bincount(c.indices, weights=c.mult * p,
                           minlength=len(m.sources))
        clipped = np.abs(sums - 1.0) > boundary_tol
        p = p / np.where(clipped, sums, 1.0)[c.indices]
        normalized.extend((n, m.sources[j]) for j in np.flatnonzero(clipped))
        probs.append({(v, u): x
                      for (u, v, _), x in zip(m.triplets(), p.tolist())})
        edges[n] = _frozen(np.asarray(c.mult * p, dtype=np.float64))
    ms = MarkovSystem(d, np.asarray(nu.level(0), dtype=np.float64),
                      tuple(probs), {"normalized": tuple(normalized)})
    ms._edges.update(edges)   # the edge values are at hand
    return ms


def balance_gap(hk: HatKernels, n: int) -> float:
    """max |q^(n)_v phat_n(v, u) - q^(n+1)_u qhat_n(u, v)| over the edges
    of level n; off the edges both kernels of a dual pair vanish."""
    c = hk.diagram.F(n).csr
    return float(np.abs(hk.q[n][c.indices] * hk.phat[n][c.indices, c.rows]
                        - hk.q[n + 1][c.rows] * hk.qhat[n][c.rows, c.indices]
                        ).max())


def hat_vs_incidence(d: Diagram, hk: HatKernels) -> float:
    """max |Q-hat_n - F-hat_n| over rows unaffected by truncation.

    For systems induced by a tail-invariant measure this is a round-off
    quantity: the dual kernel IS the row-stochastic incidence matrix.  On
    windowed truncations the identity only holds where the level masses
    propagated without touching a clipped source row, so such rows are
    masked level by level.  Both kernels vanish off the edges, so only
    edges are compared.
    """
    worst = 0.0
    clean = np.ones(len(d.vertices(0)), dtype=bool)
    for n in range(d.depth):
        F = d.F(n)
        c = F.csr
        ok = clean & F.interior_cols()
        # a target stays clean when every source in its row is
        mask = np.logical_and.reduceat(ok[c.indices], c.indptr[:-1])
        if mask.any():
            diff = np.abs(hk.qhat[n][c.rows, c.indices]
                          - hat_matrix(d, n).values())
            worst = max(worst, float(diff[mask[c.rows]].max()))
        clean = mask
    return worst


# ---------------------------------------------------------------- spaces

@dataclass(frozen=True)
class WeightedSeqSpace:
    """l2 space on one level window with weights q^(n)."""

    level: int
    weights: np.ndarray

    def __post_init__(self):
        if (self.weights <= 0).any():
            raise ZeroMass(self.level,
                           int(np.argmin(self.weights)))

    def inner(self, f, g) -> float:
        return float(np.sum(self.weights * np.asarray(f) * np.asarray(g)))

    def norm(self, f) -> float:
        return float(np.sqrt(self.inner(f, f)))


def space(hk: HatKernels, n: int) -> WeightedSeqSpace:
    return WeightedSeqSpace(n, hk.q[n])


def apply_TP(hk: HatKernels, n: int, f) -> np.ndarray:
    """(T_P f)(v) = sum over outgoing edges of p * f(target): V_{n+1} -> V_n."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (hk.phat[n].shape[1],):
        raise DimensionMismatch(
            f"T_P at level {n} expects a vector on V_{n + 1}")
    return hk.phat[n] @ f


def apply_TQ(hk: HatKernels, n: int, g) -> np.ndarray:
    """(T_Q g)(u) = sum over incoming edges of qhat * g(source): V_n -> V_{n+1}."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (hk.qhat[n].shape[1],):
        raise DimensionMismatch(
            f"T_Q at level {n} expects a vector on V_{n}")
    return hk.qhat[n] @ g


def compose_Tn(hk: HatKernels, n: int) -> np.ndarray:
    """T-hat_n = P-hat_n Q-hat_n: row-stochastic, fixes q^(n) on the left,
    self-adjoint in the q^(n)-weighted inner product."""
    return hk.phat[n] @ hk.qhat[n]
