"""Tail-invariant measures on path spaces of Bratteli diagrams.

A tail-invariant measure assigns to every cylinder through a level-n vertex
v the same value mu^(n)_v, and the per-level vectors are linked by the
transposed incidence matrices: A_n mu^(n+1) = mu^(n) with A_n = F_n^T.
This module verifies that recursion, builds the stationary Perron measure
mu^(n) = t / lambda^(n-1), solves the nonstationary problem by backward
propagation from a deep anchor, converts cylinder values to tower masses
s^(n) = mu^(n) * H^(n), and exposes the exactly row-stochastic hat matrices
fhat_vw = (H^(n)_w / H^(n+1)_v) f_vw.

A hat matrix is stored on the edges of its incidence level, in the CSR
order of ``IncidenceMatrix.csr``: the exact integer numerator H^(n)_w f_vw
of every edge and the denominator H^(n+1)_v of every row, as Python ints
(heights outgrow int64 near depth 90).  The row check is the integer
identity sum_w H^(n)_w f_vw = H^(n+1)_v, and the float value of an entry
is the Python-int true division of its numerator by its denominator,
which is correctly rounded like float(Fraction(...)).  Products with a
hat matrix (``tower_masses``) use its dense form, because their float
summation order reaches the output.

Normalization conventions (the two useful scalings differ by lambda):
  "level0"      : sum of t over the level-0 window is 1
  "probability" : total path-space mass sum_v mu^(n)_v H^(n)_v is 1
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import perron
from .diagram import Diagram, IncidenceMatrix, heights


class DimensionMismatch(Exception):
    pass


class PFFailed(Exception):
    pass


# ---------------------------------------------------------------- types

@dataclass(frozen=True)
class MeasureSequence:
    """Per-level nonnegative vectors aligned to the diagram windows.

    kind is "CylinderValues" (mu^(n), one value per cylinder through the
    vertex) or "TowerMasses" (s^(n) = mu^(n) * H^(n), one value per tower).
    """

    vectors: tuple[np.ndarray, ...]
    kind: str
    meta: Mapping[str, object] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.vectors) - 1

    def level(self, n: int) -> np.ndarray:
        return self.vectors[n]


@dataclass(frozen=True)
class HatMatrix:
    """Row-stochastic rescaling of an incidence matrix, held exactly.

    fhat_vw = H^(n)_w * f_vw / H^(n+1)_v.  ``num`` holds the numerators
    H^(n)_w * f_vw, one per edge of ``matrix.csr``; ``den`` holds the
    denominators H^(n+1)_v, one per target; both are object arrays of
    Python ints.  Because the truncated heights satisfy
    H^(n+1)_v = sum_w f_vw H^(n)_w by construction, every row sums to
    exactly 1 -- including rows clipped by the window.  ``matrix`` is the
    incidence level it rescales.
    """

    level: int
    num: np.ndarray
    den: np.ndarray
    matrix: IncidenceMatrix

    @property
    def targets(self) -> tuple[int, ...]:
        return self.matrix.targets

    @property
    def sources(self) -> tuple[int, ...]:
        return self.matrix.sources

    @property
    def entries(self) -> dict[tuple[int, int], Fraction]:
        """{(v, w): fhat_vw} as exact fractions."""
        rows = self.matrix.csr.rows.tolist()
        return {(v, w): Fraction(a, self.den[i]) for (v, w, _), a, i in
                zip(self.matrix.triplets(), self.num.tolist(), rows)}

    def row_sum(self, v: int) -> Fraction:
        if v not in self.matrix.row_window:
            return Fraction(0)
        c = self.matrix.csr
        i = self.matrix.row_window.position(v)
        return Fraction(sum(self.num[c.indptr[i]:c.indptr[i + 1]].tolist()),
                        self.den[i])

    def row_deviation(self) -> Fraction:
        """max_v |sum_w fhat_vw - 1|, exactly, from integer row sums."""
        sums = np.add.reduceat(self.num, self.matrix.csr.indptr[:-1])
        return max((Fraction(abs(s - h), h) for s, h in
                    zip(sums.tolist(), self.den.tolist()) if s != h),
                   default=Fraction(0))

    def values(self) -> np.ndarray:
        """fhat per edge as float64, each correctly rounded."""
        quot = self.num / self.den[self.matrix.csr.rows]
        return quot.astype(np.float64)

    def to_dense(self) -> np.ndarray:
        c = self.matrix.csr
        out = np.zeros((len(self.targets), len(self.sources)))
        out[c.rows, c.indices] = self.values()
        return out


def hat_matrix(d: Diagram, n: int) -> HatMatrix:
    m = d.F(n)
    c = m.csr
    h_lo = np.array(heights(d, n), dtype=object)
    num = c.mult.astype(object) * h_lo[c.indices]
    return HatMatrix(n, num, np.array(heights(d, n + 1), dtype=object), m)


# ---------------------------------------------------------------- verify

def _check_lengths(d: Diagram, m: MeasureSequence):
    if m.depth != d.depth:
        raise DimensionMismatch(
            f"measure covers levels 0..{m.depth}, diagram 0..{d.depth}")
    for n, vec in enumerate(m.vectors):
        want = len(d.window(n))
        if len(vec) != want:
            raise DimensionMismatch(
                f"level {n} vector has {len(vec)} entries, window has {want}")


@dataclass(frozen=True)
class InvarianceReport:
    residuals: tuple[float, ...]
    passed: bool
    zero_measure: bool
    tol: float


def verify_tail_invariance(d: Diagram, m: MeasureSequence,
                           tol: float = 1e-10) -> InvarianceReport:
    """Per-level relative l1 residuals of A_n mu^(n+1) = mu^(n).

    Rows whose incidence column was clipped by the window are excluded
    from both sides of the norm, so truncation cannot fail the check.
    """
    if m.kind != "CylinderValues":
        raise DimensionMismatch("tail invariance applies to CylinderValues")
    _check_lengths(d, m)
    residuals = []
    zero = all(float(np.abs(v).sum()) == 0.0 for v in m.vectors)
    for n in range(d.depth):
        F = d.F(n)
        A = F.to_dense().T
        mask = F.interior_cols()
        diff = A @ m.vectors[n + 1] - m.vectors[n]
        num = float(np.abs(diff[mask]).sum())
        den = max(float(np.abs(m.vectors[n][mask]).sum()), 1e-300)
        residuals.append(num / den if not zero else 0.0)
    passed = all(r < tol for r in residuals)
    return InvarianceReport(tuple(residuals), passed, zero, tol)


# ---------------------------------------------------------------- builders

@dataclass(frozen=True)
class NormalizationReport:
    lam: float
    t_sum: float
    total_mass: float


NORMALIZATIONS = ("level0", "probability", "anchored")


def stationary_pf_measure(d: Diagram, normalization: str = "level0",
                          tol=None
                          ) -> tuple[MeasureSequence, NormalizationReport]:
    """mu^(n) = t / lambda^(n-1) from the Perron data of A = F^T.

    The returned scaling follows ``normalization``: "level0" makes t sum to
    1 over the window, "probability" makes the total mass
    sum_v mu^(n)_v H^(n)_v equal 1 (the two differ by a factor lambda), and
    "anchored" keeps pf_solve's center-anchored vector.  On truncated
    windows the level-0 sum is reported as-is; whether it stabilizes under
    window growth is the caller's diagnostic for sigma-finiteness.

    ``tol`` is accepted and ignored: the solve on the diagram's one window
    has no tolerance to set, but the benchmark workloads still pass it.
    """
    if not d.stationary:
        raise PFFailed("stationary_pf_measure needs a stationary diagram")
    try:
        sd = perron.pf_solve(d.F(0))
    except (perron.NoConvergence, ValueError) as exc:
        raise PFFailed(str(exc)) from exc
    t_raw = sd.right
    raw_sum = float(t_raw.sum())
    if normalization == "level0":
        t = t_raw / raw_sum
    elif normalization == "probability":
        t = t_raw / (sd.lam * raw_sum)
    elif normalization == "anchored":
        t = t_raw
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    vectors = tuple(t * sd.lam ** (1 - n) for n in range(d.depth + 1))
    total = (float(vectors[1] @ np.array([float(h) for h in heights(d, 1)]))
             if d.depth >= 1 else float(t.sum()))
    meas = MeasureSequence(vectors, "CylinderValues",
                           {"lam": sd.lam, "normalization": normalization})
    report = NormalizationReport(sd.lam, float(t.sum()), total)
    return meas, report


def solve_tail_invariant(d: Diagram, anchor=None) -> MeasureSequence:
    """Backward propagation mu^(n) = A_n mu^(n+1) from a level-N anchor.

    The anchor defaults to the uniform probability vector on the deepest
    window.  Consistency holds by construction, so the result passes
    verify_tail_invariance at round-off level.
    """
    m_top = len(d.window(d.depth))
    if anchor is None:
        anchor = np.full(m_top, 1.0 / m_top)
    anchor = np.asarray(anchor, dtype=np.float64)
    if len(anchor) != m_top:
        raise DimensionMismatch(
            f"anchor has {len(anchor)} entries, top window has {m_top}")
    if (anchor < 0).any():
        raise ValueError("anchor must be nonnegative")
    vecs = [anchor]
    for n in range(d.depth - 1, -1, -1):
        A = d.F(n).to_dense().T
        vecs.append(A @ vecs[-1])
    return MeasureSequence(tuple(reversed(vecs)), "CylinderValues")


# ---------------------------------------------------------------- ERS/ECS

@dataclass(frozen=True)
class SumClassification:
    kind: str                       # "ERS" | "ECS" | "both" | "neither"
    row_sums: tuple[int, ...] | None
    col_sums: tuple[int, ...] | None
    ers_level_sums: tuple[Fraction, ...] | None

    @property
    def is_ers(self) -> bool:
        return self.kind in ("ERS", "both")

    @property
    def is_ecs(self) -> bool:
        return self.kind in ("ECS", "both")


def _uniform_sum(m: IncidenceMatrix, rows: bool) -> int | None:
    """The shared row (or column) sum, from the claim or interior data."""
    claim = m.row_sum_claim if rows else m.col_sum_claim
    if claim is not None:
        return int(claim)
    sums = m.row_sums() if rows else m.col_sums()
    mask = m.interior_rows() if rows else m.interior_cols()
    vals = {int(s) for s, ok in zip(sums, mask) if ok}
    return vals.pop() if len(vals) == 1 else None


def ers_ecs_classify(d: Diagram) -> SumClassification:
    """Equal-row-sum / equal-column-sum detection, exact integers.

    For ERS(r_n) diagrams the level sums of any tail-invariant measure with
    sum mu^(0) = 1 are pinned: sum_v mu^(n+1)_v = (r_0 ... r_n)^-1, reported
    here as exact fractions.
    """
    rows = [_uniform_sum(m, True) for m in d.matrices]
    cols = [_uniform_sum(m, False) for m in d.matrices]
    ers = all(r is not None for r in rows)
    ecs = all(c is not None for c in cols)
    level_sums = None
    if ers:
        level_sums = [Fraction(1)]
        for r in rows:
            level_sums.append(level_sums[-1] / r)
        level_sums = tuple(level_sums)
    kind = {(True, True): "both", (True, False): "ERS",
            (False, True): "ECS", (False, False): "neither"}[(ers, ecs)]
    return SumClassification(kind,
                             tuple(rows) if ers else None,
                             tuple(cols) if ecs else None,
                             level_sums)


# ---------------------------------------------------------------- towers

@dataclass(frozen=True)
class TowerReport:
    masses: MeasureSequence
    recursion_residuals: tuple[float, ...]
    level_sums: tuple[float, ...]
    probability: bool


def tower_masses(d: Diagram, m: MeasureSequence) -> TowerReport:
    """s^(n)_v = mu^(n)_v H^(n)_v plus a check of s^(n+1) Fhat_n = s^(n).

    The level sums of s are the total path-space mass and are constant in n
    for an exactly tail-invariant measure; probability=True when they sit
    at 1 within 1e-10.
    """
    if m.kind != "CylinderValues":
        raise DimensionMismatch("tower masses start from CylinderValues")
    _check_lengths(d, m)
    svecs = []
    for n in range(d.depth + 1):
        h = np.array([float(x) for x in heights(d, n)])
        svecs.append(m.vectors[n] * h)
    residuals = []
    for n in range(d.depth):
        fhat = hat_matrix(d, n).to_dense()
        diff = svecs[n + 1] @ fhat - svecs[n]
        mask = d.F(n).interior_cols()
        den = max(float(np.abs(svecs[n][mask]).sum()), 1e-300)
        residuals.append(float(np.abs(diff[mask]).sum()) / den)
    sums = tuple(float(s.sum()) for s in svecs)
    prob = all(abs(x - 1.0) < 1e-10 for x in sums)
    masses = MeasureSequence(tuple(svecs), "TowerMasses", dict(m.meta))
    return TowerReport(masses, tuple(residuals), sums, prob)
