"""Generalized Bratteli diagrams on explicit integer windows.

A diagram is a sequence of sparse nonnegative-integer incidence matrices
F_0, F_1, ... where ``F_n[(v, w)]`` counts the edges between the source
vertex ``w`` on level n and the target vertex ``v`` on level n+1.  Levels
that are countably infinite in principle (integer- or natural-indexed) are
materialized on explicit windows; band rules declare how rows continue
outside the window so that truncation effects can be masked downstream.

A level is given as an ``entries`` dict and stored once as CSR arrays,
built on first use (``validate`` uses them), which every row, column,
dense and sum query reads.  Heights are computed once per ``Diagram``, as
exact Python integers.

Everything here is pure and immutable after construction.
"""
from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

DEFAULT_PATH_CAP = 10**6


# ---------------------------------------------------------------- errors

class DiagramError(Exception):
    """Base class for structural diagram violations."""


class ZeroRow(DiagramError):
    def __init__(self, level: int, vertex: int):
        super().__init__(f"row of vertex {vertex} at level {level + 1} is empty")
        self.level = level
        self.vertex = vertex


class ZeroColumn(DiagramError):
    def __init__(self, level: int, vertex: int):
        super().__init__(f"column of vertex {vertex} at level {level} is empty")
        self.level = level
        self.vertex = vertex


class InfiniteRow(DiagramError):
    """Row support leaves the declared window and no band rule explains it."""

    def __init__(self, level: int, vertex: int, source: int):
        super().__init__(
            f"entry ({vertex}, {source}) at level {level} lies outside the "
            f"source window and the matrix declares no band rule")
        self.level = level
        self.vertex = vertex
        self.source = source


class WindowMismatch(DiagramError):
    pass


class CutsOutOfRange(DiagramError):
    pass


class TooManyPaths(DiagramError):
    def __init__(self, cap: int, count):
        super().__init__(f"cylinder enumeration would produce {count} paths "
                         f"(cap {cap})")
        self.cap = cap
        self.count = count


class LengthMismatch(DiagramError):
    pass


# ---------------------------------------------------------------- windows

@dataclass(frozen=True)
class Window:
    """Integer index window [lo, hi] restricted to multiples of ``step``.

    ``step`` > 1 models sublattices: a band rule with offsets (-2, 0, +2)
    lives on the even integers, so its natural window has step 2.
    """

    lo: int
    hi: int
    step: int = 1

    def __post_init__(self):
        if self.step < 1:
            raise WindowMismatch(f"window step must be >= 1, got {self.step}")
        if self.hi < self.lo:
            raise WindowMismatch(f"empty window [{self.lo}, {self.hi}]")

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        first = math.ceil(self.lo / self.step) * self.step
        return tuple(range(first, self.hi + 1, self.step))

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, idx: int) -> bool:
        return self.lo <= idx <= self.hi and idx % self.step == 0

    def position(self, idx: int) -> int:
        """Array position of a vertex index; raises KeyError when outside."""
        if idx not in self:
            raise KeyError(f"vertex {idx} not in window {self}")
        return (idx - self.vertices[0]) // self.step

    def __str__(self):  # pragma: no cover - cosmetic
        s = f"[{self.lo}, {self.hi}]"
        return s if self.step == 1 else s + f"/{self.step}"


def window_of(seq_or_window) -> Window:
    if isinstance(seq_or_window, Window):
        return seq_or_window
    lo, hi, *rest = seq_or_window
    return Window(int(lo), int(hi), int(rest[0]) if rest else 1)


# ---------------------------------------------------------------- matrices

class CSR(NamedTuple):
    """One incidence level as arrays over window positions.

    Entry k joins target ``rows[k]`` to source ``indices[k]`` with
    multiplicity ``mult[k]``; entries run by (target, source), so row i is
    ``indptr[i]:indptr[i+1]``.  Column j lists its entries, by target, in
    ``colperm[colptr[j]:colptr[j+1]]``.  ``mult`` is int64, or Python ints
    (dtype object) when a multiplicity does not fit in int64.
    """

    indptr: np.ndarray
    indices: np.ndarray
    mult: np.ndarray
    rows: np.ndarray
    colptr: np.ndarray
    colperm: np.ndarray


@dataclass(frozen=True)
class IncidenceMatrix:
    """One level of incidence data: target rows over source columns.

    entries : {(target v in V_{n+1}, source w in V_n): multiplicity > 0}
    band    : optional ((offset, value), ...) declaration meaning that on the
              untruncated lattice row v has entry ``value`` at source
              ``v + offset``; used to mask truncation at window edges.

    For truncations of infinite matrices that are not pure band rules, the
    exterior_{rows,cols} sets list the vertices whose row/column lost
    entries to the window edge.  row_sum_claim / col_sum_claim assert that
    *untruncated* rows/columns all share that sum (e.g. a constant-length
    substitution), which windowed sums alone cannot reveal.
    """

    level: int
    entries: Mapping[tuple[int, int], int]
    row_window: Window
    col_window: Window
    band: tuple[tuple[int, int], ...] | None = None
    row_sum_claim: int | None = None
    col_sum_claim: int | None = None
    exterior_rows: frozenset | None = None
    exterior_cols: frozenset | None = None

    @cached_property
    def csr(self) -> CSR:
        """The level's arrays, built once from ``entries``.  Raises the
        error of the first malformed entry in ``entries`` order."""
        keys, vals = list(self.entries), list(self.entries.values())
        rpos = {v: i for i, v in enumerate(self.targets)}
        cpos = {w: j for j, w in enumerate(self.sources)}
        rows = np.array([rpos.get(v, -1) for v, _ in keys], dtype=np.int64)
        cols = np.array([cpos.get(w, -1) for _, w in keys], dtype=np.int64)
        mult = np.array(vals)
        good = (mult > 0) & (mult % 1 == 0)
        for k in np.flatnonzero(~good | (rows < 0) | (cols < 0))[:1]:
            (v, w), lvl = keys[k], self.level
            if not good[k]:
                raise WindowMismatch(f"entry ({v},{w}) at level {lvl} has "
                                     f"multiplicity {vals[k]!r}")
            if rows[k] < 0:
                raise WindowMismatch(f"target {v} outside window "
                                     f"{self.row_window} at level {lvl}")
            raise InfiniteRow(lvl, v, w)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        colperm = np.lexsort((rows, cols))
        ints = [int(x) for x in mult[order]]
        wide = max(ints, default=0) >= 2**63
        mult = np.array(ints, dtype=object if wide else np.int64)
        n_rows, n_cols = len(self.row_window), len(self.col_window)
        return CSR(np.searchsorted(rows, np.arange(n_rows + 1)), cols, mult,
                   rows, np.searchsorted(cols[colperm], np.arange(n_cols + 1)),
                   colperm)

    # -- shape helpers -------------------------------------------------
    @property
    def targets(self) -> tuple[int, ...]:
        return self.row_window.vertices

    @property
    def sources(self) -> tuple[int, ...]:
        return self.col_window.vertices

    def row_entries(self, v: int) -> list[tuple[int, int]]:
        """[(source, multiplicity), ...] of target v, by source."""
        if v not in self.row_window:
            return []
        c = self.csr
        i = self.row_window.position(v)
        lo, hi = int(c.indptr[i]), int(c.indptr[i + 1])
        src = self.sources
        return [(src[j], m) for j, m in zip(c.indices[lo:hi].tolist(),
                                            c.mult[lo:hi].tolist())]

    def col_entries(self, w: int) -> list[tuple[int, int]]:
        """[(target, multiplicity), ...] of source w, by target."""
        if w not in self.col_window:
            return []
        c = self.csr
        j = self.col_window.position(w)
        ks = c.colperm[c.colptr[j]:c.colptr[j + 1]]
        tgt = self.targets
        return [(tgt[i], m)
                for i, m in zip(c.rows[ks].tolist(), c.mult[ks].tolist())]

    def triplets(self) -> list[tuple[int, int, int]]:
        """(target, source, multiplicity) of every entry, by target, source."""
        c, tgt, src = self.csr, self.targets, self.sources
        return [(tgt[i], src[j], m) for i, j, m in
                zip(c.rows.tolist(), c.indices.tolist(), c.mult.tolist())]

    def edge_index(self, v: int, w: int) -> int:
        """Position of the entry (target v, source w) in ``csr``, or -1 when
        there is none: a binary search in v's row."""
        try:
            i = self.row_window.position(v)
            j = self.col_window.position(w)
        except KeyError:
            return -1
        c = self.csr
        lo, hi = c.indptr[i:i + 2].tolist()
        k = bisect_left(c.indices, j, lo, hi)
        return k if k < hi and c.indices[k] == j else -1

    def multiplicity(self, v: int, w: int) -> int:
        """Edges between target v and source w."""
        k = self.edge_index(v, w)
        return int(self.csr.mult[k]) if k >= 0 else 0

    def to_dense(self, dtype=np.float64) -> np.ndarray:
        out = np.zeros((len(self.row_window), len(self.col_window)), dtype=dtype)
        c = self.csr
        out[c.rows, c.indices] = c.mult
        return out

    # -- truncation masks ----------------------------------------------
    def interior_rows(self) -> np.ndarray:
        """True where the window row equals the untruncated row."""
        return self._interior[0]

    def interior_cols(self) -> np.ndarray:
        """True where the window column receives every untruncated edge."""
        return self._interior[1]

    @cached_property
    def _interior(self) -> tuple[np.ndarray, np.ndarray]:
        """(row mask, column mask), built once and read-only.  A band row v
        is interior when every v + offset lies in the source window, a band
        column w when every w - offset lies in the target window."""
        tv, sv = np.array(self.targets), np.array(self.sources)
        masks = []
        for verts, exterior, other, sign in (
                (tv, self.exterior_rows, self.col_window, 1),
                (sv, self.exterior_cols, self.row_window, -1)):
            if exterior is not None:
                ok = ~np.isin(verts, list(exterior))
            elif self.band is None:
                ok = np.ones(len(verts), dtype=bool)
            else:
                ok = np.ones(len(verts), dtype=bool)
                for o, _ in self.band:
                    x = verts + sign * o
                    ok &= ((other.lo <= x) & (x <= other.hi)
                           & (x % other.step == 0))
            ok.flags.writeable = False
            masks.append(ok)
        return masks[0], masks[1]

    def row_sums(self) -> np.ndarray:
        """Exact row sums, in the dtype of ``csr.mult``."""
        out = np.zeros(len(self.row_window), dtype=self.csr.mult.dtype)
        np.add.at(out, self.csr.rows, self.csr.mult)
        return out

    def col_sums(self) -> np.ndarray:
        """Exact column sums, in the dtype of ``csr.mult``."""
        out = np.zeros(len(self.col_window), dtype=self.csr.mult.dtype)
        np.add.at(out, self.csr.indices, self.csr.mult)
        return out


def _multiplicity(m, where: str) -> int:
    """m as an int; a non-integral or non-finite m raises WindowMismatch."""
    if not (isinstance(m, numbers.Integral) or isinstance(m, numbers.Real)
            and math.isfinite(m) and m % 1 == 0):
        raise WindowMismatch(f"{where} has multiplicity {m!r}")
    return int(m)


def incidence_from_dense(level: int, matrix, row_window=None,
                         col_window=None) -> IncidenceMatrix:
    arr = [list(row) for row in matrix]
    nrow, ncol = len(arr), len(arr[0])
    rw = window_of(row_window) if row_window is not None else Window(0, nrow - 1)
    cw = window_of(col_window) if col_window is not None else Window(0, ncol - 1)
    tv, sv = rw.vertices, cw.vertices
    if len(tv) != nrow or len(sv) != ncol:
        raise WindowMismatch(
            f"dense shape {nrow}x{ncol} does not match windows {rw} x {cw}")
    entries = {}
    for i, v in enumerate(tv):
        for j, w in enumerate(sv):
            m = arr[i][j]
            if m:
                entries[(v, w)] = _multiplicity(
                    m, f"entry ({v},{w}) at level {level}")
    return IncidenceMatrix(level, entries, rw, cw)


def band_matrix(level: int, window, offsets_values: Mapping[int, int],
                ) -> IncidenceMatrix:
    """Materialize a band rule on a window (same window for both levels).

    Sources that fall outside the window are truncated away; the band
    declaration is kept so that the resulting boundary rows can be masked.
    """
    win = window_of(window)
    band = tuple(sorted((int(o), _multiplicity(v, f"band offset {o}"))
                        for o, v in offsets_values.items()))
    if not band or any(val <= 0 for _, val in band):
        raise WindowMismatch("band rule needs positive values")
    span = max(abs(o) for o, _ in band)
    if span and span % win.step != 0:
        raise WindowMismatch(
            f"band offsets {sorted(o for o, _ in band)} do not respect window "
            f"step {win.step}")
    if win.hi - win.lo < 2 * span:
        raise WindowMismatch(
            f"window {win} too small for band offsets spanning +-{span}")
    entries = {}
    for v in win.vertices:
        for o, val in band:
            w = v + o
            if w in win:
                entries[(v, w)] = entries.get((v, w), 0) + val
    total = sum(val for _, val in band)
    return IncidenceMatrix(level, entries, win, win, band=band,
                           row_sum_claim=total, col_sum_claim=total)


# ---------------------------------------------------------------- diagram

@dataclass(frozen=True)
class Diagram:
    """Validated sequence of incidence matrices, levels 0 .. depth."""

    matrices: tuple[IncidenceMatrix, ...]
    stationary: bool

    @property
    def depth(self) -> int:
        return len(self.matrices)

    def F(self, n: int) -> IncidenceMatrix:
        return self.matrices[n]

    def window(self, n: int) -> Window:
        if n < self.depth:
            return self.matrices[n].col_window
        return self.matrices[-1].row_window

    def vertices(self, n: int) -> tuple[int, ...]:
        return self.window(n).vertices

    @cached_property
    def _heights(self) -> tuple[tuple[int, ...], ...]:
        """H^(0..depth) as Python ints, one CSR product per level."""
        hs = [np.ones(len(self.window(0)), dtype=object)]
        for m in self.matrices:
            c = m.csr
            hs.append(np.add.reduceat(c.mult.astype(object) * hs[-1][c.indices],
                                      c.indptr[:-1]))
        return tuple(tuple(h.tolist()) for h in hs)


def _matrices_equal(a: IncidenceMatrix, b: IncidenceMatrix) -> bool:
    """Same windows and the same CSR entries; copies sharing one ``csr``
    (as ``stationary_diagram`` makes them) are equal at once."""
    if a.row_window != b.row_window or a.col_window != b.col_window:
        return False
    ca, cb = a.csr, b.csr
    return ca is cb or (np.array_equal(ca.indptr, cb.indptr)
                        and np.array_equal(ca.indices, cb.indices)
                        and np.array_equal(ca.mult, cb.mult))


def validate(matrices: Sequence[IncidenceMatrix]) -> Diagram:
    """Check the defining structural conditions and assemble a Diagram.

    Raises ZeroRow / ZeroColumn / InfiniteRow / WindowMismatch.  Row
    finiteness is automatic for sparse storage; emptiness is not.
    """
    if not matrices:
        raise WindowMismatch("a diagram needs at least one incidence matrix")
    mats = tuple(matrices)
    for k, m in enumerate(mats):
        if m.level != k:
            raise WindowMismatch(f"matrix {k} carries level tag {m.level}")
        if k > 0 and m.col_window != mats[k - 1].row_window:
            raise WindowMismatch(
                f"source window of level {k} ({m.col_window}) differs from the "
                f"target window of level {k - 1} ({mats[k - 1].row_window})")
        for i in np.flatnonzero(np.diff(m.csr.indptr) == 0)[:1]:
            raise ZeroRow(k, m.targets[i])
        for j in np.flatnonzero(np.diff(m.csr.colptr) == 0)[:1]:
            raise ZeroColumn(k, m.sources[j])
    stationary = all(_matrices_equal(mats[0], m) for m in mats[1:])
    return Diagram(mats, stationary)


def stationary_diagram(matrix, depth: int, window=None) -> Diagram:
    """Repeat one dense matrix (or band-built IncidenceMatrix) ``depth`` times."""
    proto = (matrix if isinstance(matrix, IncidenceMatrix)
             else incidence_from_dense(0, matrix, window, window))
    mats = [replace(proto, level=k) for k in range(depth)]
    for m in mats[1:]:  # one level repeated: prime each copy's csr cache
        vars(m)["csr"] = mats[0].csr
    return validate(mats)


def band_diagram(offsets_values: Mapping[int, int], depth: int,
                 window) -> Diagram:
    proto = band_matrix(0, window, offsets_values)
    return stationary_diagram(proto, depth)


# ---------------------------------------------------------------- telescoping

def _sparse_product(high: IncidenceMatrix, low: IncidenceMatrix,
                    level: int) -> IncidenceMatrix:
    """high @ low with exact integer arithmetic (high sits above low)."""
    if high.col_window != low.row_window:
        raise WindowMismatch("incompatible windows in telescoping product")
    by_target: dict[int, list[tuple[int, int]]] = {}
    for u, w, m in low.triplets():
        by_target.setdefault(u, []).append((w, m))
    out: dict[tuple[int, int], int] = {}
    for v, u, m2 in high.triplets():
        for w, m1 in by_target.get(u, ()):
            key = (v, w)
            out[key] = out.get(key, 0) + m2 * m1
    return IncidenceMatrix(level, out, high.row_window, low.col_window)


def _exterior(block: Sequence[IncidenceMatrix], rows: bool):
    """Vertices whose row (column) of the block product lost entries to a
    window edge: exterior on their own level, or joined to such a vertex
    on the level below (above).  None when there are none."""
    mats = block if rows else block[::-1]
    bad = None
    for f in mats:
        c = f.csr
        own = ~(f.interior_rows() if rows else f.interior_cols())
        if bad is not None:
            here, there = (c.rows, c.indices) if rows else (c.indices, c.rows)
            own[here[bad[there]]] = True
        bad = own
    verts = mats[-1].targets if rows else mats[-1].sources
    return frozenset(v for v, b in zip(verts, bad) if b) or None


def telescope(d: Diagram, cuts: Sequence[int]) -> Diagram:
    """Collapse level blocks: F'_k = F_{n_{k+1}-1} ... F_{n_k}.

    The product is taken in descending level order so the height recursion
    survives telescoping: F'_k H^(n_k) = H^(n_{k+1}).  Truncation masks
    compose (a product row is interior only when every row it multiplies
    through is) and constant-sum claims multiply.
    """
    cuts = list(cuts)
    if (not cuts or cuts[0] != 0 or any(b <= a for a, b in zip(cuts, cuts[1:]))
            or cuts[-1] > d.depth):
        raise CutsOutOfRange(f"cuts {cuts} invalid for depth {d.depth}")
    if len(cuts) < 2:
        raise CutsOutOfRange("need at least two cut points")
    mats = []
    for k in range(len(cuts) - 1):
        lo_cut, hi_cut = cuts[k], cuts[k + 1]
        block = [d.F(n) for n in range(lo_cut, hi_cut)]
        prod = block[0]
        for f in block[1:]:
            prod = _sparse_product(f, prod, level=k)
        rclaims = [f.row_sum_claim for f in block]
        cclaims = [f.col_sum_claim for f in block]
        rsum = math.prod(rclaims) if all(c is not None for c in rclaims) else None
        csum = math.prod(cclaims) if all(c is not None for c in cclaims) else None
        mats.append(IncidenceMatrix(
            k, prod.entries, prod.row_window, prod.col_window,
            block[0].band if len(block) == 1 else None,
            rsum, csum, _exterior(block, rows=True),
            _exterior(block, rows=False)))
    return validate(mats)


# ---------------------------------------------------------------- heights

def heights(d: Diagram, n: int) -> list[int]:
    """H^(n) = F_{n-1} ... F_0 1, exact integers aligned to vertices(n).

    H^(n)_v counts the paths from level 0 into v; Python integers make
    overflow a non-issue.  Returns a copy of the diagram's cached level.
    """
    if n < 0 or n > d.depth:
        raise CutsOutOfRange(f"level {n} outside 0..{d.depth}")
    return list(d._heights[n])


# ---------------------------------------------------------------- paths

@dataclass(frozen=True)
class FinitePath:
    """Edge list (level, source, target, edge_rank) from level 0 upward.

    ``start`` is only used for empty paths (a bare level-0 vertex, which
    still determines a cylinder).
    """

    edges: tuple[tuple[int, int, int, int], ...]
    start: tuple[int, int] | None = None

    def __post_init__(self):
        prev = None
        for k, (lvl, src, tgt, rank) in enumerate(self.edges):
            if rank < 0:
                raise ValueError(f"negative edge rank at position {k}")
            if prev is not None:
                plvl, _, ptgt, _ = prev
                if lvl != plvl + 1 or src != ptgt:
                    raise ValueError(
                        f"edge {k} does not chain: {prev} -> {self.edges[k]}")
            elif lvl != 0 and self.start is None:
                raise ValueError("paths must start at level 0")
            prev = self.edges[k]

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def terminal(self) -> tuple[int, int]:
        if self.edges:
            lvl, _, tgt, _ = self.edges[-1]
            return (lvl + 1, tgt)
        if self.start is None:
            raise ValueError("empty path without a start vertex")
        return self.start

    @property
    def initial(self) -> tuple[int, int]:
        if self.edges:
            lvl, src, _, _ = self.edges[0]
            return (lvl, src)
        return self.terminal


def path_in_diagram(d: Diagram, p: FinitePath) -> bool:
    if not p.edges:
        lvl, v = p.terminal
        return lvl <= d.depth and v in d.window(lvl)
    for (lvl, src, tgt, rank) in p.edges:
        if lvl >= d.depth:
            return False
        if rank >= d.F(lvl).multiplicity(tgt, src):
            return False
    return True


def enumerate_cylinders(d: Diagram, vertex: tuple[int, int],
                        cap: int = DEFAULT_PATH_CAP) -> list[FinitePath]:
    """All paths from level 0 ending at ``vertex`` = (level, index).

    The count equals the height H^(level)_index; enumeration refuses to
    build more than ``cap`` paths.
    """
    level, v = vertex
    if level < 0 or level > d.depth:
        raise CutsOutOfRange(f"level {level} outside diagram")
    if v not in d.window(level):
        raise KeyError(f"vertex {v} not on level {level}")
    h = heights(d, level)[d.window(level).position(v)]
    if h > cap:
        raise TooManyPaths(cap, h)
    if level == 0:
        return [FinitePath((), start=(0, v))]
    partial: list[tuple[tuple, int]] = [((), v)]
    for lvl in range(level - 1, -1, -1):
        m = d.F(lvl)
        nxt = []
        for (suffix, cur) in partial:
            for (w, mult) in m.row_entries(cur):
                for rank in range(mult):
                    nxt.append((((lvl, w, cur, rank),) + suffix, w))
        partial = nxt
    return [FinitePath(edges) for (edges, _) in partial]


def tail_equivalent(p: FinitePath, q: FinitePath):
    """Smallest m with identical edges from position m on, else None.

    None means not equivalent within the truncation (the paths still differ
    at their last edge).
    """
    if len(p) != len(q):
        raise LengthMismatch(f"path lengths {len(p)} != {len(q)}")
    if not p.edges:
        return 0 if p.terminal == q.terminal else None
    m = 0
    for k, (ep, eq) in enumerate(zip(p.edges, q.edges)):
        if ep != eq:
            m = k + 1
    return None if m == len(p) else m


# ---------------------------------------------------------------- order / Vershik

@dataclass(frozen=True)
class EdgeOrder:
    """Total order on incoming edges r^{-1}(v), per edge level and target.

    orders[level][target] lists (source, rank) pairs from minimal to
    maximal.  A stationary order stores level 0 only and reuses it.
    """

    orders: tuple[Mapping[int, tuple[tuple[int, int], ...]], ...]
    stationary: bool = False

    def order_at(self, level: int, target: int) -> tuple[tuple[int, int], ...]:
        table = self.orders[0] if self.stationary else self.orders[level]
        return table[target]


class _Incoming(Mapping):
    """Each target's incoming edges as (source, rank), by source then rank,
    built for one target at a time on lookup: a level's table would hold
    one pair per parallel edge."""

    def __init__(self, m: IncidenceMatrix):
        self._m = m

    def __getitem__(self, v: int) -> tuple[tuple[int, int], ...]:
        if v not in self._m.row_window:
            raise KeyError(v)
        return tuple((w, r) for w, mult in self._m.row_entries(v)
                     for r in range(mult))

    def __iter__(self):
        return iter(self._m.targets)

    def __len__(self) -> int:
        return len(self._m.targets)


def natural_order(d: Diagram) -> EdgeOrder:
    """Sort incoming edges by (source, rank); stationary diagrams share it.
    Nothing is built until ``order_at`` asks for a target."""
    if d.stationary:
        return EdgeOrder((_Incoming(d.F(0)),), stationary=True)
    return EdgeOrder(tuple(_Incoming(d.F(n)) for n in range(d.depth)))


def check_order(d: Diagram, order: EdgeOrder) -> None:
    """Each order list must be a bijection with the incoming edge set."""
    for n in range(d.depth):
        for v, expect in _Incoming(d.F(n)).items():
            listed = order.order_at(n, v)
            if set(listed) != set(expect) or len(listed) != len(expect):
                raise WindowMismatch(
                    f"order at level {n}, target {v} is not a bijection with "
                    f"the incoming edges")


def minimal_path(d: Diagram, order: EdgeOrder, vertex: tuple[int, int]
                 ) -> FinitePath:
    level, v = vertex
    edges = []
    cur = v
    for lvl in range(level - 1, -1, -1):
        src, rank = order.order_at(lvl, cur)[0]
        edges.append((lvl, src, cur, rank))
        cur = src
    return FinitePath(tuple(reversed(edges)), start=(0, v) if not edges else None)


def vershik_successor(d: Diagram, order: EdgeOrder, p: FinitePath):
    """Adic successor: bump the first non-maximal edge, minimal prefix below.

    Returns None when every edge is maximal (the path is the last one of its
    tower in the lexicographic order).
    """
    for k, (lvl, src, tgt, rank) in enumerate(p.edges):
        lst = order.order_at(lvl, tgt)
        pos = lst.index((src, rank))
        if pos + 1 < len(lst):
            nsrc, nrank = lst[pos + 1]
            prefix = minimal_path(d, order, (lvl, nsrc)).edges
            return FinitePath(prefix + ((lvl, nsrc, tgt, nrank),)
                              + p.edges[k + 1:])
    return None


def vershik_orbit(d: Diagram, order: EdgeOrder, start: FinitePath
                  ) -> list[FinitePath]:
    """Iterate the successor from ``start`` until the maximal path; more
    than DEFAULT_PATH_CAP paths raise TooManyPaths."""
    out = [start]
    cur = start
    while True:
        nxt = vershik_successor(d, order, cur)
        if nxt is None:
            return out
        out.append(nxt)
        cur = nxt
        if len(out) > DEFAULT_PATH_CAP:
            raise TooManyPaths(DEFAULT_PATH_CAP, f">{DEFAULT_PATH_CAP}")
