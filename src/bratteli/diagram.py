"""Generalized Bratteli diagrams on explicit integer windows.

A diagram is a sequence of sparse nonnegative-integer incidence matrices
F_0, F_1, ... where ``F_n[(v, w)]`` counts the edges between the source
vertex ``w`` on level n and the target vertex ``v`` on level n+1.  Levels
that are countably infinite in principle (integer- or natural-indexed) are
materialized on explicit windows; each level's builder marks the rows and
columns the window clipped, so that truncation effects can be masked
downstream.

A level is stored once, as the CSR arrays its builder makes from
coordinates and the interior masks it sets; a ``{(target, source):
multiplicity}`` mapping has one reader, ``incidence_from_entries``.  Every
row, column, dense and sum query reads the arrays.  A loop over the levels
scatters each level into one reused ``Scratch`` array instead of a fresh
one.  A diagram holds its distinct levels and its depth: ``validate``
stores levels that are all equal, in windows, entries, interior masks
and sum claims, as one record, and a diagram is stationary exactly when
it holds one.  Exact heights are Python integers, computed from the
level below whenever they are read.

An edge order is stored once too: per distinct level, nothing for the
natural order (by target, source and rank, as the CSR lists the edges),
or one int64 array of natural edge positions; an order of one record
repeats it on every level.  One reader maps a target's slice of it to
(source, rank) pairs through the level's cumulative multiplicities.
The cylinders into a vertex are one tower of the Vershik map: the orbit
of the natural order's minimal path.

Everything here is pure and immutable after construction.
"""
from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import Error

DEFAULT_PATH_CAP = 10**6


# ---------------------------------------------------------------- errors

class DiagramError(Error):
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


class DenseTooLarge(DiagramError):
    """A dense form of a level that cannot be allocated."""

    def __init__(self, level: int, shape: tuple[int, ...]):
        self.level = level
        self.shape = tuple(shape)
        self.gib = math.prod(self.shape) * 8 / 2**30
        super().__init__(f"a dense {' x '.join(map(str, self.shape))} "
                         f"float64 form of level {level} needs "
                         f"{self.gib:.1f} GiB, more than can be allocated")


def _zeros(shape: tuple[int, ...], level: int) -> np.ndarray:
    """np.zeros(shape), or DenseTooLarge when it cannot be allocated."""
    try:
        return np.zeros(shape)
    except MemoryError:
        raise DenseTooLarge(level, shape) from None


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
        if -(-self.lo // self.step) * self.step > self.hi:   # exact past 2**53
            raise WindowMismatch(f"window [{self.lo}, {self.hi}] holds no "
                                 f"multiple of its step {self.step}")

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        first = -(-self.lo // self.step) * self.step  # exact past 2**53
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

    def __str__(self):
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


def _csr_from_coo(rows, cols, mult, shape: tuple[int, int]) -> CSR:
    """A level's arrays from target and source positions and multiplicities
    (or one for all), in any order: sorted, repeats summed exactly."""
    rows, cols = (np.asarray(a, dtype=np.int64) for a in (rows, cols))
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    mult = np.broadcast_to(mult, rows.shape)[order]
    starts = np.flatnonzero(np.diff(rows, prepend=-1)
                            | np.diff(cols, prepend=-1))
    if len(starts) < len(rows):
        rows, cols = rows[starts], cols[starts]
        mult = np.add.reduceat(mult.astype(object), starts)
    if mult.dtype != np.int64:
        wide = len(mult) and mult.max() >= 2**63
        mult = mult.astype(object if wide else np.int64)
    colperm = np.argsort(cols, kind="stable")
    return CSR(np.searchsorted(rows, np.arange(shape[0] + 1)), cols, mult,
               rows, np.searchsorted(cols[colperm], np.arange(shape[1] + 1)),
               colperm)


def _meet(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, k) for every e and every k in range(lo[e], hi[e]), by e then k."""
    reps = hi - lo
    first = np.repeat(np.arange(len(lo)), reps)
    turn = np.arange(len(first)) - np.repeat(np.cumsum(reps) - reps, reps)
    return first, np.repeat(lo, reps) + turn


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """One level of incidence data: target rows over source columns.

    csr           : the level's entries, (target v in V_{n+1}, source w in
                    V_n) with multiplicity > 0, as arrays over window
                    positions
    interior_rows : read-only bool per target position, True where the
                    window row equals the untruncated row
    interior_cols : read-only bool per source position, True where the
                    window column receives every untruncated edge

    The builder that clips a level sets its masks; one that clips nothing
    passes none, and every row and column is interior.  row_sum_claim /
    col_sum_claim assert that *untruncated* rows/columns all share that sum
    (e.g. a constant-length substitution), which windowed sums alone cannot
    reveal.  ``==`` is identity; ``_matrices_equal`` compares windows,
    entries, masks and claims.
    """

    csr: CSR
    row_window: Window
    col_window: Window
    row_sum_claim: int | None = None
    col_sum_claim: int | None = None
    interior_rows: np.ndarray | None = None
    interior_cols: np.ndarray | None = None

    def __post_init__(self):
        for name, win in (("interior_rows", self.row_window),
                          ("interior_cols", self.col_window)):
            mask = getattr(self, name)
            if mask is None:
                mask = np.ones(len(win), dtype=bool)
                object.__setattr__(self, name, mask)
            mask.flags.writeable = False

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

    @cached_property
    def edge_starts(self) -> np.ndarray:
        """Natural position of each entry's first edge, then the level's
        edge count: edges are numbered as ``csr`` lists them, by target,
        then source, then rank.  int64, or Python ints (dtype object) when
        the count might not fit."""
        mult = self.csr.mult
        wide = mult.dtype == object or len(mult) and (
            int(mult.max()) * len(mult) >= 2**63)
        return np.concatenate(
            ([0], np.cumsum(mult.astype(object) if wide else mult)))

    def to_dense(self, level: int = 0) -> np.ndarray:
        return self.scatter(self.csr.mult, level=level)

    # -- the only dense form and per-vertex sum of a level's edge values --
    def scatter(self, values: np.ndarray, by_source: bool = False,
                level: int = 0) -> np.ndarray:
        """One value per ``csr`` entry as a C-ordered float64 array: targets
        x sources, or sources x targets with ``by_source``.  Q-hat is the .T
        of a by-source scatter, in Fortran order like P.T, so its products
        make the same BLAS calls, and round the same, as a transposed P-hat.
        An array that cannot be allocated raises DenseTooLarge, naming
        ``level``, the level the record stands for."""
        shape, index = self._layout(values, by_source)
        out = _zeros(shape, level)
        out[index] = values
        return out

    def _layout(self, values, by_source: bool) -> tuple[tuple, tuple]:
        """(shape, index) of a scatter of ``values``, or of a stack of them."""
        c = self.csr
        shape = (len(c.indptr) - 1, len(c.colptr) - 1)
        lead = np.shape(values)[:-1]
        if by_source:
            return lead + shape[::-1], (..., c.indices, c.rows)
        return lead + shape, (..., c.rows, c.indices)

    def totals(self, values: np.ndarray, by_source: bool = False
               ) -> np.ndarray:
        """Per-target (or per-source) sums of one value per ``csr`` entry,
        in the values' dtype, each adding its entries one by one in CSR
        order: exact for Python ints, np.bincount's bits for float64.  A
        (b, entries) stack of levels gives (b, vertices) sums, each row
        added as the row alone adds, in one np.add.at."""
        c = self.csr
        index = c.indices if by_source else c.rows
        size = len(c.colptr if by_source else c.indptr) - 1
        out = np.zeros(values.shape[:-1] + (size,), dtype=values.dtype)
        if values.ndim > 1:   # each row's sums in its own stretch of out
            index = (np.arange(len(values))[:, None] * size + index).ravel()
        np.add.at(out.reshape(-1), index, values.reshape(-1))
        return out

    @cached_property
    def source_pairs(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Source positions (v, w), v <= w, of every pair of sources that
        share a target, each pair once and sorted: the only entries where a
        product through the level, such as T-hat_n = P-hat_n Q-hat_n, can
        be nonzero.  None when the rows would give more pairs than the
        sources x sources array has entries, so that reading it whole is
        cheaper."""
        c = self.csr
        k = np.diff(c.indptr)
        m = len(c.colptr) - 1
        if int(k @ k) > m * m:
            return None
        # each entry meets every entry of its row, in turn
        first, second = _meet(c.indptr[c.rows], c.indptr[c.rows + 1])
        v, w = c.indices[first], c.indices[second]
        flat = np.unique((v * m + w)[v <= w])
        return flat // m, flat % m

    def row_sums(self) -> np.ndarray:
        """Exact row sums, as Python ints (dtype object)."""
        return self.totals(self.csr.mult.astype(object))

    def col_sums(self) -> np.ndarray:
        """Exact column sums, as Python ints (dtype object)."""
        return self.totals(self.csr.mult.astype(object), by_source=True)


class Scratch:
    """One float64 buffer that a loop over levels scatters each level into.

    ``scatter`` returns what ``IncidenceMatrix.scatter`` returns, with the
    same values, dtype, shape and C layout, but as a read-only view of the
    buffer that holds until the next call; a stack of levels gives a stack.
    Each call zeroes only the entries the previous call wrote, so a level
    costs its edges instead of a fresh m x m zero-fill; the same level in
    the same layout and shape, as a stationary diagram gives on every
    level, overwrites those entries.  The buffer grows to the largest call
    and is freed with the object, at the end of the loop that made it; a
    buffer that cannot be allocated raises DenseTooLarge, naming ``level``,
    the first level of the call.
    """

    __slots__ = ("_buf", "_last")

    def __init__(self):
        self._buf = np.zeros(0)
        self._last = None   # (writable view, index, layout) of the last call

    def scatter(self, m: IncidenceMatrix, values: np.ndarray,
                by_source: bool = False, level: int = 0) -> np.ndarray:
        shape, index = m._layout(values, by_source)
        size, key = math.prod(shape), (m, by_source, shape)
        if size > self._buf.size:
            self._buf = _zeros(shape, level).reshape(-1)
        elif self._last is not None and self._last[2] != key:
            self._last[0][self._last[1]] = 0.0
        out = self._buf[:size].reshape(shape)
        out[index] = values
        self._last = (out, index, key)
        view = out.view()
        view.flags.writeable = False
        return view


class LevelRows(Sequence):
    """One float64 vector per level, stored as 2-D blocks: each run of
    consecutive levels whose vectors share a shape is one read-only,
    C-ordered float64 array, levels first.  A stationary diagram's levels
    are one run, so every batch of ``markov.level_batches`` is a slice of
    one array.

    ``rows[n]`` is a row view of its run; ``rows[lo:hi]`` is a 2-D view
    when lo..hi-1 lie in one run, as a batch always does, and an
    IndexError otherwise.  The constructor takes the runs' blocks in level
    order, stores them as float64 and joins consecutive blocks of one row
    shape; ``LevelRows.of`` takes one vector per level.
    """

    __slots__ = ("blocks", "_ends")

    def __init__(self, blocks: Iterable[np.ndarray]):
        runs: list[list[np.ndarray]] = []
        for b in blocks:
            if runs and b.shape[1:] == runs[-1][0].shape[1:]:
                runs[-1].append(b)
            else:
                runs.append([b])
        self.blocks = tuple(np.ascontiguousarray(
            r[0] if len(r) == 1 else np.concatenate(r), dtype=np.float64)
            for r in runs)
        for b in self.blocks:
            b.flags.writeable = False
        self._ends = np.cumsum([len(b) for b in self.blocks]).tolist()

    @classmethod
    def of(cls, rows: Iterable) -> "LevelRows":
        """The rows of a sequence of per-level vectors, or the sequence
        itself when it is a LevelRows."""
        if isinstance(rows, LevelRows):
            return rows
        runs = groupby(map(np.asarray, rows), lambda r: r.shape)
        return cls(np.stack(list(run)) for _, run in runs)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[np.ndarray]:
        for b in self.blocks:
            yield from b

    def __getitem__(self, n):
        if isinstance(n, slice):
            lo, hi, step = n.indices(len(self))
            k = min(bisect_right(self._ends, lo), len(self.blocks) - 1)
            if step != 1 or k < 0 or hi > max(self._ends[k], lo):
                raise IndexError(f"rows[{lo}:{hi}:{step}] is not a slice "
                                 f"of one run of levels")
            start = self._ends[k] - len(self.blocks[k])
            return self.blocks[k][lo - start:max(hi, lo) - start]
        if len(self.blocks) == 1:
            return self.blocks[0][n]
        i = n + len(self) if n < 0 else n
        if not 0 <= i < len(self):
            raise IndexError(f"level {n} outside 0..{len(self) - 1}")
        k = bisect_right(self._ends, i)
        return self.blocks[k][i - self._ends[k] + len(self.blocks[k])]

    def per_row(self, fn) -> np.ndarray:
        """fn of every run, joined: fn maps a (levels, ...) block to one
        value per level, so a reduction over each row gives every level
        the bits of that reduction over the level's vector alone."""
        return np.concatenate([fn(b) for b in self.blocks])


def _multiplicity(m, where: str) -> int:
    """m as an int; a boolean, non-integral or non-finite m raises
    WindowMismatch."""
    if isinstance(m, bool) or not (
            isinstance(m, numbers.Integral) or isinstance(m, numbers.Real)
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
            if m or m is False:   # false is refused, not read as 0
                entries[(v, w)] = _multiplicity(
                    m, f"entry ({v},{w}) at level {level}")
    return incidence_from_entries(level, entries, rw, cw)


def incidence_from_entries(level: int, entries: Mapping[tuple[int, int], int],
                           rw: Window, cw: Window) -> IncidenceMatrix:
    """A level from a ``{(target, source): multiplicity}`` mapping, the form
    a spec's ``matrix`` and ``triplets`` take.  Raises the error of the
    first malformed entry in ``entries`` order."""
    keys, vals = list(entries), list(entries.values())
    rpos = {v: i for i, v in enumerate(rw.vertices)}
    cpos = {w: j for j, w in enumerate(cw.vertices)}
    rows = np.array([rpos.get(v, -1) for v, _ in keys], dtype=np.int64)
    cols = np.array([cpos.get(w, -1) for _, w in keys], dtype=np.int64)
    mult = np.array(vals)
    good = (mult > 0) & (mult % 1 == 0)
    for k in np.flatnonzero(~good | (rows < 0) | (cols < 0))[:1]:
        (v, w) = keys[k]
        if not good[k]:
            raise WindowMismatch(f"entry ({v},{w}) at level {level} has "
                                 f"multiplicity {vals[k]!r}")
        if rows[k] < 0:
            raise WindowMismatch(f"target {v} outside window {rw} at level "
                                 f"{level}")
        raise InfiniteRow(level, v, w)
    return IncidenceMatrix(_csr_from_coo(
        rows, cols, [int(x) for x in mult], (len(rw), len(cw))), rw, cw)


def band_matrix(window, offsets_values: Mapping[int, int]
                ) -> IncidenceMatrix:
    """Materialize a band rule on a window (same window for both levels).

    Sources that fall outside the window are truncated away.  Row v is
    interior when every v + offset is a vertex, column w when every
    w - offset is; an offset off the step reaches no vertex, so it leaves
    no row or column interior.
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
    total = sum(val for _, val in band)
    n = len(win)
    kept = [(o // win.step, val) for o, val in band if o % win.step == 0]
    # source position by target (row) and kept offset (column): CSR order
    src = np.arange(n)[:, None] + np.array([d for d, _ in kept], dtype=np.int64)
    hit = (src >= 0) & (src < n)
    rows, k = np.nonzero(hit)
    csr = _csr_from_coo(rows, src[hit], np.array([v for _, v in kept])[k],
                        (n, n))
    inner = np.zeros((2, n), dtype=bool)   # rows, columns
    if len(kept) == len(band):
        lo, hi = kept[0][0], kept[-1][0]
        inner[0, max(0, -lo):n - max(0, hi)] = True
        inner[1, max(0, hi):n + min(0, lo)] = True
    return IncidenceMatrix(csr, win, win, total, total, *inner)


# ---------------------------------------------------------------- diagram

@dataclass(frozen=True)
class Diagram:
    """Validated incidence matrices of levels 0 .. depth - 1.

    ``levels`` holds the distinct level records: one, which a stationary
    diagram repeats on every level, or one per level.
    """

    levels: tuple[IncidenceMatrix, ...]
    depth: int

    @property
    def stationary(self) -> bool:
        return len(self.levels) == 1

    def F(self, n: int) -> IncidenceMatrix:
        """Level n's matrix, indexed as a sequence of ``depth`` levels."""
        if len(self.levels) > 1:
            return self.levels[n]
        if -self.depth <= n < self.depth:
            return self.levels[0]
        raise IndexError(f"level {n} outside depth {self.depth}")

    def window(self, n: int) -> Window:
        if n < self.depth:
            return self.F(n).col_window
        return self.levels[-1].row_window

    def vertices(self, n: int) -> tuple[int, ...]:
        return self.window(n).vertices


def _matrices_equal(a: IncidenceMatrix, b: IncidenceMatrix) -> bool:
    """Same windows, sum claims, CSR entries and interior masks."""
    if a is b:
        return True
    if (a.row_window, a.col_window, a.row_sum_claim, a.col_sum_claim) != (
            b.row_window, b.col_window, b.row_sum_claim, b.col_sum_claim):
        return False
    ca, cb = a.csr, b.csr
    return all(np.array_equal(x, y) for x, y in (
        (ca.indptr, cb.indptr), (ca.indices, cb.indices), (ca.mult, cb.mult),
        (a.interior_rows, b.interior_rows),
        (a.interior_cols, b.interior_cols)))


def validate(matrices: Iterable[IncidenceMatrix]) -> Diagram:
    """Check the defining structural conditions and assemble a Diagram.

    Raises ZeroRow / ZeroColumn / WindowMismatch.  Row finiteness is
    automatic for sparse storage; emptiness is not.  Each level is checked
    before the next is taken, so a generator reports its lowest bad level.
    Levels that all equal level 0 are stored as its one record.
    """
    mats: list[IncidenceMatrix] = []
    for k, m in enumerate(matrices):
        if k > 0 and m.col_window != mats[-1].row_window:
            raise WindowMismatch(
                f"source window of level {k} ({m.col_window}) differs from the "
                f"target window of level {k - 1} ({mats[-1].row_window})")
        for i in np.flatnonzero(np.diff(m.csr.indptr) == 0)[:1]:
            raise ZeroRow(k, m.targets[i])
        for j in np.flatnonzero(np.diff(m.csr.colptr) == 0)[:1]:
            raise ZeroColumn(k, m.sources[j])
        mats.append(m)
    if not mats:
        raise WindowMismatch("a diagram needs at least one incidence matrix")
    if all(_matrices_equal(mats[0], m) for m in mats[1:]):
        return Diagram((mats[0],), len(mats))
    return Diagram(tuple(mats), len(mats))


def stationary_diagram(matrix, depth: int, window=None) -> Diagram:
    """Repeat one dense matrix (or band-built IncidenceMatrix) ``depth``
    times, as one level record: validated as level 0 and, when a level
    follows, as the level above itself."""
    proto = (matrix if isinstance(matrix, IncidenceMatrix)
             else incidence_from_dense(0, matrix, window, window))
    validate([proto] * min(depth, 2))
    return Diagram((proto,), depth)


def band_diagram(offsets_values: Mapping[int, int], depth: int,
                 window) -> Diagram:
    return stationary_diagram(band_matrix(window, offsets_values), depth)


# ---------------------------------------------------------------- telescoping

def _sparse_product(high: CSR, low: CSR) -> CSR:
    """high @ low in Python ints (high sits above low): each entry of high
    meets every entry of low's row at its source."""
    first, second = _meet(low.indptr[high.indices],
                          low.indptr[high.indices + 1])
    return _csr_from_coo(high.rows[first], low.indices[second],
                         high.mult.astype(object)[first]
                         * low.mult.astype(object)[second],
                         (len(high.indptr) - 1, len(low.colptr) - 1))


def _interior(block: Sequence[IncidenceMatrix], rows: bool) -> np.ndarray:
    """Mask of the block product's rows (columns) that lost no entry to a
    window edge: interior on their own level, and joined only to interior
    rows (columns) on the level below (above)."""
    mats = block if rows else block[::-1]
    ok = None
    for f in mats:
        own = f.interior_rows if rows else f.interior_cols
        if ok is not None:
            c = f.csr
            here, there = (c.rows, c.indices) if rows else (c.indices, c.rows)
            own = own.copy()
            own[here[~ok[there]]] = False
        ok = own
    return ok


def telescope(d: Diagram, cuts: Sequence[int]) -> Diagram:
    """Collapse level blocks: F'_k = F_{n_{k+1}-1} ... F_{n_k}.

    The product is taken in descending level order so the height recursion
    survives telescoping: F'_k H^(n_k) = H^(n_{k+1}).  Interior masks
    compose (a product row is interior only when every row it multiplies
    through is; a one-level block keeps its level's arrays) and constant-sum
    claims multiply.  Heights survive: test_telescope_preserves_heights.
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
        prod = block[0].csr
        for f in block[1:]:
            prod = _sparse_product(f.csr, prod)
        rclaims = [f.row_sum_claim for f in block]
        cclaims = [f.col_sum_claim for f in block]
        rsum = math.prod(rclaims) if all(c is not None for c in rclaims) else None
        csum = math.prod(cclaims) if all(c is not None for c in cclaims) else None
        mats.append(IncidenceMatrix(
            prod, block[-1].row_window, block[0].col_window, rsum, csum,
            _interior(block, rows=True), _interior(block, rows=False)))
    return validate(mats)


# ---------------------------------------------------------------- heights

def all_heights(d: Diagram) -> Iterator[np.ndarray]:
    """H^(0), H^(1), ..., H^(depth) in turn, each an object array of
    Python ints computed from the one before by one CSR product, so that
    two levels are live however deep the diagram is."""
    h = np.ones(len(d.window(0)), dtype=object)
    yield h
    for n in range(d.depth):
        m = d.F(n)
        h = m.totals(m.csr.mult.astype(object) * h[m.csr.indices])
        yield h


def heights(d: Diagram, n: int) -> list[int]:
    """H^(n) = F_{n-1} ... F_0 1, exact integers aligned to vertices(n).

    H^(n)_v counts the paths from level 0 into v; Python integers make
    overflow a non-issue.  Computed on each call, through levels 0 .. n;
    a loop over the levels reads ``all_heights`` instead.
    """
    if n < 0 or n > d.depth:
        raise CutsOutOfRange(f"level {n} outside 0..{d.depth}")
    return next(islice(all_heights(d), n, None)).tolist()


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
    """Whether every vertex of p lies on a level of d, and every edge rank
    below its multiplicity."""
    try:
        _vertex(d, p.initial)
        for (lvl, src, tgt, rank) in p.edges:
            _vertex(d, (lvl + 1, tgt))
            if rank >= d.F(lvl).multiplicity(tgt, src):
                return False
    except (CutsOutOfRange, KeyError):
        return False
    return True


def _vertex(d: Diagram, vertex: tuple[int, int]) -> tuple[int, int]:
    """``vertex`` = (level, index), checked: a level outside 0..depth raises
    CutsOutOfRange, a vertex off its level KeyError."""
    level, v = vertex
    if level < 0 or level > d.depth:
        raise CutsOutOfRange(f"level {level} outside diagram")
    if v not in d.window(level):
        raise KeyError(f"vertex {v} not on level {level}")
    return level, v


def enumerate_cylinders(d: Diagram, vertex: tuple[int, int],
                        cap: int = DEFAULT_PATH_CAP) -> list[FinitePath]:
    """All paths from level 0 ending at ``vertex`` = (level, index): the
    Vershik orbit of the natural order's minimal path, whose top edge
    varies slowest.

    The count equals the height H^(level)_index; enumeration refuses to
    build more than ``cap`` paths, or than the orbit's DEFAULT_PATH_CAP.
    """
    level, v = _vertex(d, vertex)
    h = heights(d, level)[d.window(level).position(v)]
    if h > cap:
        raise TooManyPaths(cap, h)
    order = natural_order(d)
    return vershik_orbit(d, order, minimal_path(d, order, vertex))


def tail_equivalent(p: FinitePath, q: FinitePath):
    """Smallest m with identical edges from position m on, else None.

    None means not equivalent within the truncation (the paths still differ
    at their last edge).  Tail equivalence: test_tail_equivalent_* tests.
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

@dataclass(frozen=True, eq=False)
class EdgeOrder:
    """Total order on incoming edges r^{-1}(v), per edge level and target.

    A level's edges are numbered as its ``csr`` lists them, target by
    target, then by source, then by rank: an edge's natural position (see
    ``IncidenceMatrix.edge_starts``).  ``perms`` holds, per distinct level,
    None for the natural order itself, or a read-only int64 array listing
    the natural positions of the level's edges, target by target, each
    target's from minimal to maximal.  A stationary order holds one
    record and reuses it on every level.
    """

    perms: tuple[np.ndarray | None, ...]

    def __post_init__(self):
        for perm in self.perms:
            if perm is not None:
                perm.flags.writeable = False

    @property
    def stationary(self) -> bool:
        return len(self.perms) == 1

    def order_at(self, d: Diagram, level: int, target: int
                 ) -> tuple[tuple[int, int], ...]:
        """Target's incoming (source, rank) pairs on ``level``, minimal
        first; more than DEFAULT_PATH_CAP edges raise TooManyPaths."""
        m, lo, starts, seq = _incoming(d, self, level, target)
        count = int(starts[-1])
        if count > DEFAULT_PATH_CAP:
            raise TooManyPaths(DEFAULT_PATH_CAP, count)
        return tuple(_pairs(m, lo, starts,
                            np.arange(count) if seq is None else seq))


def natural_order(d: Diagram) -> EdgeOrder:
    """Incoming edges by (source, rank), on every diagram: builds nothing."""
    return EdgeOrder((None,))


def check_order(d: Diagram, order: EdgeOrder) -> None:
    """Each level's array must be a permutation of its natural positions
    that keeps every edge inside its target's block.  A stationary order on
    a stationary diagram repeats level 0 on every level, so level 0 is the
    only one checked."""
    for n in range(1 if d.stationary and order.stationary else d.depth):
        perm, m = order.perms[0 if order.stationary else n], d.F(n)
        if perm is None:
            continue
        bounds = m.edge_starts[m.csr.indptr]   # each target's block
        if len(perm) != bounds[-1]:
            raise WindowMismatch(f"order at level {n} lists {len(perm)} "
                                 f"edges, not {bounds[-1]}")
        target = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        # an entry out of range fails the sort test; the clip lets it index
        bad = (np.sort(perm) != np.arange(len(perm))) | (
            target[np.clip(perm, 0, len(perm) - 1)] != target)
        for p in np.flatnonzero(bad)[:1]:
            raise WindowMismatch(
                f"order at level {n}, target {m.targets[target[p]]} is not a "
                f"bijection with the incoming edges")


def _incoming(d: Diagram, order: EdgeOrder, level: int, target: int):
    """Target's incoming edges on one edge level: the level's matrix, the
    row's first CSR entry, the row's edge starts from 0 (its edge count
    last), and the row's natural positions in the order's sequence, or
    None when that is the natural one."""
    if not 0 <= level < d.depth:
        raise CutsOutOfRange(f"edge level {level} outside 0..{d.depth - 1}")
    m = d.F(level)
    i = m.row_window.position(target)
    lo, hi = m.csr.indptr[i:i + 2].tolist()
    starts = m.edge_starts[lo:hi + 1]
    perm = order.perms[0 if order.stationary else level]
    seq = None if perm is None else perm[starts[0]:starts[-1]] - starts[0]
    return m, lo, starts - starts[0], seq


def _pairs(m: IncidenceMatrix, lo: int, starts: np.ndarray,
           positions: np.ndarray) -> list[tuple[int, int]]:
    """(source, rank) of the edges at the row's natural ``positions``,
    through the cumulative multiplicities ``starts``."""
    k = np.searchsorted(starts, positions, side="right") - 1
    src = m.sources
    return list(zip(map(src.__getitem__, m.csr.indices[lo + k].tolist()),
                    (positions - starts[k]).tolist()))


def minimal_path(d: Diagram, order: EdgeOrder, vertex: tuple[int, int]
                 ) -> FinitePath:
    """The path into ``vertex`` = (level, index) that takes each target's
    minimal incoming edge."""
    level, v = _vertex(d, vertex)
    edges = []
    cur = v
    for lvl in range(level - 1, -1, -1):
        m, lo, starts, seq = _incoming(d, order, lvl, cur)
        (src, rank), = _pairs(m, lo, starts,
                              np.arange(1) if seq is None else seq[:1])
        edges.append((lvl, src, cur, rank))
        cur = src
    return FinitePath(tuple(reversed(edges)), start=(0, v) if not edges else None)


def vershik_successor(d: Diagram, order: EdgeOrder, p: FinitePath):
    """Adic successor: bump the first non-maximal edge, minimal prefix below.

    Returns None when every edge is maximal (the path is the last one of its
    tower in the lexicographic order).  An edge not in the diagram raises
    ValueError.
    """
    for e in p.edges:
        lvl, src, tgt, rank = e
        if not (0 <= lvl < d.depth and rank < d.F(lvl).multiplicity(tgt, src)):
            raise ValueError(f"edge {e} is not in the diagram")
    for k, (lvl, src, tgt, rank) in enumerate(p.edges):
        m, lo, starts, seq = _incoming(d, order, lvl, tgt)
        pos = starts[m.edge_index(tgt, src) - lo] + rank   # natural position
        place = pos if seq is None else int(np.flatnonzero(seq == pos)[0])
        if place + 1 < starts[-1]:
            nxt = place + 1 if seq is None else seq[place + 1]
            (nsrc, nrank), = _pairs(m, lo, starts, np.array([nxt]))
            prefix = minimal_path(d, order, (lvl, nsrc)).edges
            return FinitePath(prefix + ((lvl, nsrc, tgt, nrank),)
                              + p.edges[k + 1:])
    return None


def vershik_orbit(d: Diagram, order: EdgeOrder, start: FinitePath
                  ) -> list[FinitePath]:
    """Iterate the successor from ``start`` until the maximal path; more
    than DEFAULT_PATH_CAP paths raise TooManyPaths.  A tower is one orbit,
    each path once: test_criterion_09_odometer_enumeration."""
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
