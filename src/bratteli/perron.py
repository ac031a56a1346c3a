"""Perron-Frobenius analysis of one square incidence level, A = F^T.

Every function here takes the level's ``IncidenceMatrix`` and reads it
through its CSR arrays.  The level knows which of its rows/columns are
*interior*, i.e. identical to those of the untruncated matrix, and may
claim the exact constant row/column sum of the infinite matrix when a band
rule guarantees one.  That constant-sum information gives exact eigendata
(lambda = c, constant eigenvector) where plain truncation could never reach
tight tolerances; everything else runs through shifted power iteration on
the dense window.  The graph questions (strong connectivity, period, the
safe horizon of the return series) are answered by one breadth-first
search over neighbour lists built from the same arrays.

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

import numpy as np

from . import Error
from .diagram import IncidenceMatrix


_MAXITER = 200_000   # power-iteration cap
_MARGIN = 0.25       # half-width of the Unknown band around exponent 1


# ---------------------------------------------------------------- errors

class NoConvergence(Error):
    def __init__(self, iterations: int, residual: float):
        super().__init__(f"power iteration did not converge in {iterations} "
                         f"iterations (residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class PFFailed(Error, ValueError):
    """No Perron data: the level is not square, or reducible or periodic on
    its window, or the diagram is not stationary."""


# ---------------------------------------------------------------- graph

def _constant_of(sums: np.ndarray):
    return float(sums[0]) if len(sums) and np.all(sums == sums[0]) else None


def _truncated(m: IncidenceMatrix) -> bool:
    return not (m.interior_rows.all() and m.interior_cols.all())


def _adjacency(m: IncidenceMatrix):
    """A = F^T as neighbour lists over window positions: i -> j when F has
    an edge from source i to target j.  Returns the forward targets, their
    multiplicities (exact ints) and the backward sources, each ascending."""
    if m.row_window != m.col_window:
        raise PFFailed(f"Perron data needs equal source and target "
                       f"windows, got {len(m.col_window)} source and "
                       f"{len(m.row_window)} target vertices")
    c = m.csr
    size = len(m.col_window)
    cp, rp = c.colptr.tolist(), c.indptr.tolist()
    tgt, mult = c.rows[c.colperm].tolist(), c.mult[c.colperm].tolist()
    src = c.indices.tolist()
    return ([tgt[cp[i]:cp[i + 1]] for i in range(size)],
            [mult[cp[i]:cp[i + 1]] for i in range(size)],
            [src[rp[j]:rp[j + 1]] for j in range(size)])


def _bfs(nbr: list, start: int, horizon: int) -> np.ndarray:
    """Step distances from ``start`` up to ``horizon``; -1 where unreached."""
    dist = [-1] * len(nbr)
    dist[start] = 0
    frontier, d = [start], 0
    while frontier and d < horizon:
        d += 1
        nxt = []
        for u in frontier:
            for v in nbr[u]:
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return np.array(dist, dtype=np.int64)


# ---------------------------------------------------------------- structure

@dataclass(frozen=True)
class IrreducibilityReport:
    ok: bool
    strongly_connected: bool
    period: int | None
    horizon: int
    note: str = ""


def check_irreducible_aperiodic(m: IncidenceMatrix) -> IrreducibilityReport:
    """Strong connectivity of A = F^T plus its cycle-length gcd.

    The period is computed from a BFS level assignment: for a strongly
    connected digraph, gcd over edges (u, v) of dist(u) + 1 - dist(v) equals
    the gcd of all return lengths (Seneta, Non-negative Matrices and Markov
    Chains, 1981).
    """
    fwd, _, bwd = _adjacency(m)
    horizon = len(fwd)
    dist = _bfs(fwd, 0, horizon)
    if (dist < 0).any() or (_bfs(bwd, 0, horizon) < 0).any():
        return IrreducibilityReport(
            False, False, None, horizon,
            f"not strongly connected within horizon {horizon}")
    c = m.csr
    g = int(abs(np.gcd.reduce(dist[c.indices] + 1 - dist[c.rows])))
    return IrreducibilityReport(g == 1, True, g, horizon,
                                "" if g == 1 else f"period {g}")


# ---------------------------------------------------------------- pf solve

@dataclass(frozen=True)
class SpectralData:
    """Perron eigendata of one level.  ``iterations`` is the index of the
    best iterate of each power solve, summed over the right and the left
    solves that ran, so 0 when both shortcuts hold; it is not the loop
    count, since polishing runs on past the best iterate."""

    lam: float
    left: np.ndarray
    right: np.ndarray
    vertices: tuple[int, ...]
    residual: float
    shortcut: str | None
    iterations: int


def _power(dense: np.ndarray):
    """Shifted power iteration from the all-ones vector, run until the
    eigen-residual is tiny; returns (lambda, vector, iterations).

    The +1 shift keeps the iteration monotone-friendly for matrices with
    zero diagonal; the stopping test is on |Bv - lam v|, not on the lambda
    increments, because downstream tolerances need the *vector* converged.
    An iterate equal to the last, bit for bit, repeats forever: polishing
    stops there.
    """
    m = dense.shape[0]
    B = dense + np.eye(m)
    v = np.ones(m)
    res = math.inf
    best = None
    polish = 0
    for it in range(1, _MAXITER + 1):
        w = B @ v
        w /= np.abs(w).max()
        Bw = B @ w
        lam = (w @ Bw) / (w @ w)
        res = np.abs(Bw - lam * w).max() / np.abs(w).max()
        fixed = w.tobytes() == v.tobytes()
        v = w
        if best is None or res < best[3]:
            best = (lam - 1.0, v, it, res)
        if res < 1e-13 * max(1.0, lam):
            # converged; keep iterating briefly in case round-off still shrinks
            polish += 1
            if polish >= 40 or res == 0.0 or fixed:
                return best[:3]
    if polish:
        return best[:3]
    raise NoConvergence(_MAXITER, res)


def pf_solve(m: IncidenceMatrix) -> SpectralData:
    """Perron eigendata of A = F^T on the level's window.

    The right vector is anchored to 1 at the window's center vertex.  On
    untruncated levels the left vector is scaled so that s.t = 1; on
    truncated ones it is anchored too.

    A sum claim is a fact about the infinite matrix.  On a truncated
    window a column claim alone does not pin lambda: the clipped window's
    own Perron value lies below it, so lambda, t and s all come from power
    iteration on the window and no shortcut is taken.
    """
    chk = check_irreducible_aperiodic(m)
    if not chk.ok:
        raise PFFailed(f"matrix fails irreducibility/aperiodicity on the "
                       f"largest window: {chk.note}")

    A = m.to_dense().T   # rows are sources; a Fortran-ordered view
    size = A.shape[0]
    center = size // 2
    truncated = _truncated(m)
    iterations = 0
    shortcut = None

    # A's row sums are F's column sums and vice versa; the windowed sums
    # decide only when nothing is truncated
    row_sum, col_sum = m.col_sum_claim, m.row_sum_claim
    if not truncated:
        if row_sum is None:
            row_sum = _constant_of(m.col_sums())
        if col_sum is None:
            col_sum = _constant_of(m.row_sums())
    elif row_sum is None:
        # a column claim alone is a fact about the infinite matrix; the
        # window's Perron value is below it, so the window gives the pair
        col_sum = None

    # -- lambda and right vector ---------------------------------------
    if row_sum is not None:
        lam = float(row_sum)
        t = np.ones(size)
        shortcut = "constant-row-sums"
    elif col_sum is not None:
        # column sums pin lambda exactly; only the right vector needs iterating
        lam = float(col_sum)
        shortcut = "constant-column-sums"
        _, t, iterations = _power(A)
    else:
        lam, t, iterations = _power(A)
    t = t / t[center]

    # -- left vector -----------------------------------------------------
    if col_sum is not None:
        s = np.ones(size)
        if shortcut == "constant-row-sums":
            shortcut = "constant-row-and-column-sums"
    else:
        _, s, its = _power(A.T)
        iterations += its
    if truncated:
        s = s / s[center]
    else:
        s = s / (s @ t)

    # -- residual on interior rows/columns -------------------------------
    rt = np.abs(A @ t - lam * t)[m.interior_cols]
    rs = np.abs(s @ A - lam * s)[m.interior_rows]
    residual = max(rt.max(initial=0.0) / np.abs(t).max(),
                   rs.max(initial=0.0) / np.abs(s).max())

    return SpectralData(lam=float(lam), left=s, right=t,
                        vertices=m.col_window.vertices,
                        residual=float(residual),
                        shortcut=shortcut, iterations=iterations)


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


def return_series(m: IncidenceMatrix, vertex: int | None = None,
                  horizon: int = 12) -> ReturnSeries:
    """The series of ``vertex``, by default the window's centre; exact."""
    fwd, wts, _ = _adjacency(m)
    verts = m.col_window.vertices
    if vertex is None:
        vertex = verts[len(verts) // 2]
    start = m.col_window.position(vertex)

    def step(row):
        out: dict[int, int] = {}
        for k, wgt in row.items():
            for j, mult in zip(fwd[k], wts[k]):
                out[j] = out.get(j, 0) + wgt * mult
        return out

    row, a = {start: 1}, []
    for _ in range(horizon):
        row = step(row)
        a.append(row.get(start, 0))
    first, ell = step({start: 1}), []
    for _ in range(horizon):
        ell.append(first.pop(start, 0))
        first = step(first)
    return ReturnSeries(vertex, tuple(a), tuple(ell))


def _safe_horizon(m: IncidenceMatrix, vertex: int, horizon: int) -> int:
    """Largest n such that length-n paths from ``vertex`` only cross
    interior rows of A (so the windowed series equals the infinite one).

    A shortest path to the nearest non-interior row crosses interior rows
    only, so that row's plain BFS distance d is where the window starts to
    matter: length-n paths step from rows at distance <= n-1, so a bad row
    at distance d contaminates lengths >= d+1.
    """
    dist = _bfs(_adjacency(m)[0], m.col_window.position(vertex), horizon)
    bad = dist[(dist >= 0) & ~m.interior_cols]
    return int(bad.min(initial=horizon))


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


def classify_recurrence(m: IncidenceMatrix, lam: float, horizon: int = 32,
                        vertex: int | None = None) -> RecurrenceReport:
    """Trend classification of the return series (not a proof).

    Power-law exponents are estimated at the horizon and its half; a series
    sum c*n^-alpha converges iff alpha > 1, so estimates outside
    1 +- _MARGIN decide Transient / (Null|Positive)Recurrent and anything
    inside the band is reported as Unknown.  Finite fully-interior
    irreducible matrices short-circuit to PositiveRecurrent.
    """
    rs = return_series(m, vertex, horizon)   # each cut below is a prefix
    if not _truncated(m) and check_irreducible_aperiodic(m).strongly_connected:
        h = min(horizon, 2 * len(m.col_window) + 4)
        a, ell = rs.a[:h], rs.ell[:h]
        ns = range(1, len(a) + 1)
        return RecurrenceReport(
            "PositiveRecurrent", None, None, len(a),
            sum(x * lam ** -n for n, x in zip(ns, a)),
            sum(n * e * lam ** -n for n, e in zip(ns, ell)),
            None, "finite irreducible matrix")

    h = _safe_horizon(m, rs.vertex, horizon)
    note = "" if h == horizon else (
        f"horizon reduced to {h}: longer paths leave the interior window")
    a, ell = rs.a[:h], rs.ell[:h]
    ns = list(range(1, h + 1))
    loglam = math.log(lam)
    u = [math.exp(math.log(x) - n * loglam) if x > 0 else 0.0
         for n, x in zip(ns, a)]
    v = [n * math.exp(math.log(e) - n * loglam) if e > 0 else 0.0
         for n, e in zip(ns, ell)]
    alpha = _tail_exponent(ns, u)
    beta = _tail_exponent(ns, v)
    lam_hat = math.exp(math.log(a[-1]) / h) if h and a[-1] > 0 else None

    if alpha is None:
        cls = "Unknown"
    elif alpha >= 1 + _MARGIN:
        cls = "Transient"
    elif alpha <= 1 - _MARGIN:
        if beta is None:
            cls = "Unknown"
        elif beta >= 1 + _MARGIN:
            cls = "PositiveRecurrent"
        elif beta <= 1 - _MARGIN:
            cls = "NullRecurrent"
        else:
            cls = "Unknown"
    else:
        cls = "Unknown"
    return RecurrenceReport(cls, alpha, beta, h,
                            float(sum(u)), float(sum(v)), lam_hat, note)
