"""Perron-Frobenius analysis for countable nonnegative matrices.

Matrices are handled through finite window snapshots (`MatrixWindow`).  A
snapshot knows which of its rows/columns are *interior*, i.e. identical to
the rows of the untruncated matrix, and optionally carries the exact
constant row/column sum of the infinite matrix when a band rule guarantees
one.  That constant-sum information gives exact eigendata (lambda = c,
constant eigenvector) where plain truncation could never reach tight
tolerances; everything else runs through shifted power iteration per window
plus a safeguarded polynomial extrapolation in 1/(window size)^2.

Recurrence classification follows the return-series route: with
a^(n)_ii the diagonal of the n-th power and l_ii(n) the first-return
weights, the matrix is transient iff sum_n a^(n)_ii lambda^-n converges and
positive recurrent iff sum_n n l_ii(n) lambda^-n converges.  Neither series
can be decided by a finite computation, so the classifier reports a
power-law trend estimate with explicit diagnostics and returns Unknown when
the estimates sit inside the safety margin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .diagram import IncidenceMatrix, Window, window_of


# ---------------------------------------------------------------- errors

class NoConvergence(Exception):
    def __init__(self, iterations: int, residual: float):
        super().__init__(f"power iteration did not converge in {iterations} "
                         f"iterations (residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class WindowUnstable(Exception):
    def __init__(self, delta: float):
        super().__init__(f"eigenvalue decreased by {delta:.3e} on a larger "
                         f"window; nested windows must be nondecreasing")
        self.delta = delta


# ---------------------------------------------------------------- snapshots

@dataclass(frozen=True)
class MatrixWindow:
    """Finite snapshot of a (possibly infinite) nonnegative matrix.

    exact keeps integer entries keyed by vertex pairs for the return-series
    arithmetic; global_row_sum / global_col_sum are set when the untruncated
    matrix provably has that constant sum on every row / column.
    """

    vertices: tuple[int, ...]
    dense: np.ndarray
    interior_rows: np.ndarray
    interior_cols: np.ndarray
    exact: Mapping[tuple[int, int], int] | None = None
    global_row_sum: float | None = None
    global_col_sum: float | None = None

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def truncated(self) -> bool:
        return not (self.interior_rows.all() and self.interior_cols.all())


def _constant_of(sums: np.ndarray):
    return float(sums[0]) if len(sums) and np.all(sums == sums[0]) else None


def dense_window(matrix, vertices=None) -> MatrixWindow:
    """Snapshot of a genuinely finite matrix (nothing is truncated)."""
    dense = np.asarray(matrix, dtype=np.float64)
    m = dense.shape[0]
    if dense.shape != (m, m):
        raise ValueError(f"need a square matrix, got {dense.shape}")
    if (dense < 0).any():
        raise ValueError("matrix entries must be nonnegative")
    verts = tuple(vertices) if vertices is not None else tuple(range(m))
    ones = np.ones(m, dtype=bool)
    exact = None
    if np.all(dense == np.round(dense)):
        exact = {(verts[i], verts[j]): int(dense[i, j])
                 for i in range(m) for j in range(m) if dense[i, j]}
    return MatrixWindow(verts, dense, ones, ones, exact,
                        _constant_of(dense.sum(axis=1)),
                        _constant_of(dense.sum(axis=0)))


def band_window(offsets_values: Mapping[int, int], window,
                support: str = "int") -> MatrixWindow:
    """Snapshot of a band matrix A[x, x+o] = value on a window.

    support="int" : the matrix lives on all of (a sublattice of) Z, so any
                    window edge is pure truncation and the untruncated sums
                    are the constant sum(values).
    support="nat" : rows never existed below 0 (the window must start there);
                    only the upper edge is truncation and no constant global
                    sum is claimed.
    """
    win = window_of(window)
    band = sorted((int(o), int(v)) for o, v in offsets_values.items())
    if support == "nat" and win.lo != 0:
        raise ValueError("support='nat' windows must start at 0")
    verts = win.vertices
    m = len(verts)
    pos = {x: i for i, x in enumerate(verts)}
    dense = np.zeros((m, m))
    exact = {}
    for i, x in enumerate(verts):
        for o, val in band:
            y = x + o
            if y in pos:
                dense[i, pos[y]] += val
                exact[(x, y)] = exact.get((x, y), 0) + val
    def row_ok(x):
        return all((x + o in win) or (support == "nat" and x + o < 0)
                   for o, _ in band)
    def col_ok(y):
        return all((y - o in win) or (support == "nat" and y - o < 0)
                   for o, _ in band)
    irows = np.array([row_ok(x) for x in verts])
    icols = np.array([col_ok(y) for y in verts])
    total = float(sum(v for _, v in band))
    grs = total if support == "int" else None
    return MatrixWindow(verts, dense, irows, icols, exact, grs, grs)


def band_schedule(offsets_values: Mapping[int, int], halfwidths: Sequence[int],
                  step: int = 1, support: str = "int") -> list[MatrixWindow]:
    """Nested band snapshots, windows [-h*step, h*step] (or [0, ...] on nat)."""
    out = []
    for h in halfwidths:
        lo = 0 if support == "nat" else -h * step
        out.append(band_window(offsets_values,
                               Window(lo, h * step, step), support))
    return out


def incidence_transpose(m: IncidenceMatrix) -> MatrixWindow:
    """A = F^T for one (square-window) incidence matrix.

    Rows of A are indexed by source vertices, so A's interior rows are F's
    interior columns and vice versa.
    """
    if m.row_window != m.col_window:
        raise ValueError("transpose snapshots need equal source/target windows")
    verts = m.col_window.vertices
    dense = m.to_dense().T
    exact = {(w, v): mult for v, w, mult in m.triplets()}
    # row sums of F^T are column sums of F and vice versa
    grs = float(m.col_sum_claim) if m.col_sum_claim is not None else None
    gcs = float(m.row_sum_claim) if m.row_sum_claim is not None else None
    if m.interior_rows().all() and m.interior_cols().all():
        if grs is None:
            grs = _constant_of(dense.sum(axis=1).astype(np.int64))
        if gcs is None:
            gcs = _constant_of(dense.sum(axis=0).astype(np.int64))
    return MatrixWindow(verts, dense, m.interior_cols(), m.interior_rows(),
                        exact, grs, gcs)


# ---------------------------------------------------------------- structure

@dataclass(frozen=True)
class IrreducibilityReport:
    ok: bool
    strongly_connected: bool
    period: int | None
    horizon: int
    note: str = ""


def check_irreducible_aperiodic(mw, horizon: int | None = None
                                ) -> IrreducibilityReport:
    """Strong connectivity within a horizon plus the cycle-length gcd.

    The period is computed from a BFS level assignment: for a strongly
    connected digraph, gcd over edges (u, v) of dist(u) + 1 - dist(v) equals
    the gcd of all return lengths.
    """
    dense = mw.dense if isinstance(mw, MatrixWindow) else np.asarray(mw, float)
    m = dense.shape[0]
    horizon = horizon if horizon is not None else m
    adj = [np.nonzero(dense[i] > 0)[0] for i in range(m)]
    radj = [np.nonzero(dense[:, j] > 0)[0] for j in range(m)]

    def bfs(neigh):
        dist = np.full(m, -1)
        dist[0] = 0
        frontier = [0]
        d = 0
        while frontier and d < horizon:
            d += 1
            nxt = []
            for u in frontier:
                for v in neigh[u]:
                    if dist[v] < 0:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        return dist

    fwd, bwd = bfs(adj), bfs(radj)
    connected = bool((fwd >= 0).all() and (bwd >= 0).all())
    if not connected:
        return IrreducibilityReport(
            False, False, None, horizon,
            f"not strongly connected within horizon {horizon}")
    g = 0
    for u in range(m):
        for v in adj[u]:
            g = math.gcd(g, int(fwd[u]) + 1 - int(fwd[v]))
    g = abs(g)
    return IrreducibilityReport(g == 1, True, g, horizon,
                                "" if g == 1 else f"period {g}")


# ---------------------------------------------------------------- pf solve

@dataclass(frozen=True)
class SpectralData:
    lam: float
    left: np.ndarray
    right: np.ndarray
    vertices: tuple[int, ...]
    classification: str
    window: tuple[int, int]
    residual: float
    lambdas: tuple[float, ...]
    extrapolated: bool
    shortcut: str | None
    st_dot: float
    converged: bool
    iterations: int


def _neville_at_zero(xs, ys):
    t = list(ys)
    for k in range(1, len(t)):
        for i in range(len(t) - k):
            t[i] = t[i + 1] + (t[i] - t[i + 1]) * (-xs[i + k]) / (xs[i] - xs[i + k])
    return t[0]


def _power(dense: np.ndarray, v0: np.ndarray, maxiter: int,
           vec_tol: float = 1e-13):
    """Shifted power iteration, run until the eigen-residual is tiny.

    The +1 shift keeps the iteration monotone-friendly for matrices with
    zero diagonal; the stopping test is on |Bv - lam v|, not on the lambda
    increments, because downstream tolerances need the *vector* converged.
    """
    m = dense.shape[0]
    B = dense + np.eye(m)
    v = np.abs(v0).astype(float)
    v /= np.abs(v).max()
    res = math.inf
    best = None
    polish = 0
    for it in range(1, maxiter + 1):
        w = B @ v
        w /= np.abs(w).max()
        Bw = B @ w
        lam = (w @ Bw) / (w @ w)
        res = np.abs(Bw - lam * w).max() / np.abs(w).max()
        v = w
        if best is None or res < best[3]:
            best = (lam - 1.0, v, it, res)
        if res < vec_tol * max(1.0, lam):
            # converged; keep iterating briefly in case round-off still shrinks
            polish += 1
            if polish >= 40 or res == 0.0:
                return best
    if best is not None and polish:
        return best
    raise NoConvergence(maxiter, res)


def _embed(prev: np.ndarray, prev_verts, verts) -> np.ndarray:
    pos = {v: i for i, v in enumerate(prev_verts)}
    out = np.full(len(verts), float(np.median(prev)))
    for i, v in enumerate(verts):
        if v in pos:
            out[i] = prev[pos[v]]
    return np.maximum(out, 1e-12)


def pf_solve(windows, tol: float = 1e-10, anchor: int | None = None,
             maxiter: int = 200_000) -> SpectralData:
    """Perron eigendata from a nested window schedule.

    windows may be a single MatrixWindow or an increasing sequence.  The
    right vector is anchored to 1 at the window's center vertex (or at
    ``anchor``); on fully finite matrices the left vector is scaled so that
    s.t = 1, on truncated snapshots it is anchored too and s.t is reported
    as a raw diagnostic.
    """
    if isinstance(windows, MatrixWindow):
        windows = [windows]
    windows = list(windows)
    if not windows:
        raise ValueError("need at least one window")
    if any(b.size < a.size for a, b in zip(windows, windows[1:])):
        raise ValueError("window schedule must be nondecreasing in size")
    last = windows[-1]
    chk = check_irreducible_aperiodic(last)
    if not chk.ok:
        raise ValueError(f"matrix fails irreducibility/aperiodicity on the "
                         f"largest window: {chk.note}")

    m = last.size
    anchor_pos = (m // 2 if anchor is None
                  else list(last.vertices).index(anchor))
    iterations = 0
    shortcut = None

    # -- lambda and right vector ---------------------------------------
    row_sum = last.global_row_sum
    if row_sum is None and not last.truncated:
        row_sum = _constant_of(last.dense.sum(axis=1))
    if row_sum is not None:
        lam = row_sum
        t = np.ones(m)
        lams = [lam] * len(windows)
        extrapolated = False
        shortcut = "constant-row-sums"
        converged = True
    elif last.global_col_sum is not None:
        # column sums pin lambda exactly; only the right vector needs iterating
        lam = last.global_col_sum
        lams = [lam] * len(windows)
        extrapolated = False
        shortcut = "constant-column-sums"
        converged = True
        _, t, its, _ = _power(last.dense, np.ones(m), maxiter)
        iterations += its
    else:
        lams = []
        prev = None
        t = None
        for mw in windows:
            v0 = (np.ones(mw.size) if prev is None
                  else _embed(prev[0], prev[1], mw.vertices))
            lam_k, vec, its, _ = _power(mw.dense, v0, maxiter)
            iterations += its
            lams.append(lam_k)
            prev = (vec, mw.vertices)
            t = vec
        for a, b in zip(lams, lams[1:]):
            if b < a - 1e-12 * max(1.0, abs(a)):
                raise WindowUnstable(a - b)
        lam = lams[-1]
        extrapolated = False
        if len(lams) >= 3:
            xs = [1.0 / (w.size + 1) ** 2 for w in windows]
            ex_all = _neville_at_zero(xs, lams)
            ex_tail = _neville_at_zero(xs[1:], lams[1:])
            gap = abs(lams[-1] - lams[-2])
            if abs(ex_all - ex_tail) <= 0.05 * gap + 10 * tol * max(1.0, abs(ex_all)):
                lam = ex_all
                extrapolated = True
        if len(lams) >= 2:
            converged = (abs(lams[-1] - lams[-2]) < tol * max(1.0, abs(lam))
                         or extrapolated)
        else:
            converged = not last.truncated
    t = t / t[anchor_pos]

    # -- left vector -----------------------------------------------------
    col_sum = last.global_col_sum
    if col_sum is None and not last.truncated:
        col_sum = _constant_of(last.dense.sum(axis=0))
    if col_sum is not None:
        s = np.ones(m)
        if shortcut == "constant-row-sums":
            shortcut = "constant-row-and-column-sums"
    else:
        _, s, its, _ = _power(last.dense.T, np.ones(m), maxiter)
        iterations += its
    if last.truncated:
        s = s / s[anchor_pos]
    else:
        s = s / (s @ t)

    # -- residual on interior rows/columns -------------------------------
    rt = np.abs(last.dense @ t - lam * t)[last.interior_rows]
    rs = np.abs(s @ last.dense - lam * s)[last.interior_cols]
    residual = max(rt.max(initial=0.0) / np.abs(t).max(),
                   rs.max(initial=0.0) / np.abs(s).max())

    return SpectralData(
        lam=float(lam), left=s, right=t, vertices=last.vertices,
        classification="Unknown",
        window=(last.vertices[0], last.vertices[-1]),
        residual=float(residual), lambdas=tuple(float(x) for x in lams),
        extrapolated=extrapolated, shortcut=shortcut,
        st_dot=float(s @ t) if last.truncated else 1.0,
        converged=converged, iterations=iterations)


# ---------------------------------------------------------------- recurrence

@dataclass(frozen=True)
class ReturnSeries:
    """Exact diagonal powers a^(n)_ii and first-return weights l_ii(n).

    The recursion l_ij(n+1) = sum_{k != i} l_ik(n) a_kj is realized by
    propagating the first-entrance row vector and harvesting its i-entry
    before each step.
    """

    vertex: int
    a: tuple[int, ...]
    ell: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return len(self.a)


def _neighbor_map(mw: MatrixWindow):
    if mw.exact is None:
        raise ValueError("return series need exact integer entries")
    nbr: dict[int, list[tuple[int, int]]] = {}
    for (i, j), mult in mw.exact.items():
        nbr.setdefault(i, []).append((j, mult))
    return nbr


def return_series(mw: MatrixWindow, vertex: int | None = None,
                  horizon: int = 12) -> ReturnSeries:
    verts = mw.vertices
    if vertex is None:
        vertex = verts[len(verts) // 2]
    nbr = _neighbor_map(mw)

    def step(row):
        out: dict[int, int] = {}
        for k, wgt in row.items():
            for j, mult in nbr.get(k, ()):
                out[j] = out.get(j, 0) + wgt * mult
        return out

    row = {vertex: 1}
    a = []
    for _ in range(horizon):
        row = step(row)
        a.append(row.get(vertex, 0))
    first = step({vertex: 1})
    ell = []
    for _ in range(horizon):
        ell.append(first.get(vertex, 0))
        first.pop(vertex, None)
        first = step(first)
    return ReturnSeries(vertex, tuple(a), tuple(ell))


def _safe_horizon(mw: MatrixWindow, vertex: int, horizon: int) -> int:
    """Largest n such that length-n paths from the vertex only cross
    interior rows (so the windowed series equals the infinite one)."""
    nbr = _neighbor_map(mw)
    interior = {v: bool(ok) for v, ok in zip(mw.vertices, mw.interior_rows)}
    dist = {vertex: 0}
    frontier = [vertex]
    d_bad = horizon
    d = 0
    while frontier and d < horizon:
        d += 1
        nxt = []
        for u in frontier:
            if not interior.get(u, False):
                d_bad = min(d_bad, dist[u])
                continue
            for j, _ in nbr.get(u, ()):
                if j not in dist:
                    dist[j] = d
                    nxt.append(j)
        frontier = nxt
    if not interior.get(vertex, True):
        return 0
    # length-n paths step from vertices at distance <= n-1, so a bad row at
    # distance d contaminates lengths >= d+1
    return min(horizon, d_bad)


def _tail_exponent(ns, us):
    pts = [(n, u) for n, u in zip(ns, us) if u > 0]
    if len(pts) < 4:
        return None

    def avg_near(target):
        best = min(range(len(pts)), key=lambda i: abs(pts[i][0] - target))
        lo = max(0, best - 1)
        sel = pts[lo:best + 1]
        return (sum(p[0] for p in sel) / len(sel),
                sum(p[1] for p in sel) / len(sel))

    n_hi, u_hi = avg_near(pts[-1][0])
    n_lo, u_lo = avg_near(pts[-1][0] / 2)
    if u_hi <= 0 or u_lo <= 0 or n_hi <= n_lo:
        return None
    return -math.log(u_hi / u_lo) / math.log(n_hi / n_lo)


@dataclass(frozen=True)
class RecurrenceReport:
    classification: str
    alpha_hat: float | None
    beta_hat: float | None
    horizon: int
    partial_a: float
    partial_ell: float
    lam_hat: float | None
    note: str = ""


def classify_recurrence(mw: MatrixWindow, lam: float, horizon: int = 32,
                        margin: float = 0.25, vertex: int | None = None
                        ) -> RecurrenceReport:
    """Trend classification of the return series (not a proof).

    Power-law exponents are estimated at the horizon and its half; a series
    sum c*n^-alpha converges iff alpha > 1, so estimates outside
    1 +- margin decide Transient / (Null|Positive)Recurrent and anything
    inside the band is reported as Unknown.  Finite fully-interior
    irreducible matrices short-circuit to PositiveRecurrent.
    """
    verts = mw.vertices
    if vertex is None:
        vertex = verts[len(verts) // 2]
    chk = check_irreducible_aperiodic(mw)
    if not mw.truncated and chk.strongly_connected:
        rs = return_series(mw, vertex, min(horizon, 2 * mw.size + 4))
        ns = range(1, rs.horizon + 1)
        return RecurrenceReport(
            "PositiveRecurrent", None, None, rs.horizon,
            sum(a * lam ** -n for n, a in zip(ns, rs.a)),
            sum(n * e * lam ** -n for n, e in zip(ns, rs.ell)),
            None, "finite irreducible matrix")

    h = _safe_horizon(mw, vertex, horizon)
    note = "" if h == horizon else (
        f"horizon reduced to {h}: longer paths leave the interior window")
    rs = return_series(mw, vertex, h)
    ns = list(range(1, h + 1))
    loglam = math.log(lam)
    u = [math.exp(math.log(a) - n * loglam) if a > 0 else 0.0
         for n, a in zip(ns, rs.a)]
    v = [n * math.exp(math.log(e) - n * loglam) if e > 0 else 0.0
         for n, e in zip(ns, rs.ell)]
    alpha = _tail_exponent(ns, u)
    beta = _tail_exponent(ns, v)
    lam_hat = math.exp(math.log(rs.a[-1]) / h) if rs.a[-1] > 0 else None

    if alpha is None:
        cls = "Unknown"
    elif alpha >= 1 + margin:
        cls = "Transient"
    elif alpha <= 1 - margin:
        if beta is None:
            cls = "Unknown"
        elif beta >= 1 + margin:
            cls = "PositiveRecurrent"
        elif beta <= 1 - margin:
            cls = "NullRecurrent"
        else:
            cls = "Unknown"
    else:
        cls = "Unknown"
    return RecurrenceReport(cls, alpha, beta, h,
                            float(sum(u)), float(sum(v)), lam_hat, note)
