"""Tail-invariant measures on path spaces of Bratteli diagrams.

A tail-invariant measure assigns to every cylinder through a level-n vertex
v the same value mu^(n)_v, and the per-level vectors are linked by the
transposed incidence matrices: A_n mu^(n+1) = mu^(n) with A_n = F_n^T.
This module verifies that recursion, builds the stationary Perron measure
mu^(n) = t / lambda^(n-1), solves the nonstationary problem by backward
propagation from a deep anchor, and exposes the exactly row-stochastic hat
matrices fhat_vw = (H^(n)_w / H^(n+1)_v) f_vw.

A hat matrix is stored on the edges of its incidence level, in the CSR
order of ``IncidenceMatrix.csr``: the exact integer numerator H^(n)_w f_vw
of every edge and the denominator H^(n+1)_v of every row, as Python ints
(heights outgrow int64 near depth 90).  The row check is the integer
identity sum_w H^(n)_w f_vw = H^(n+1)_v, summed exactly by
``IncidenceMatrix.totals``, and the float value of an entry is the
Python-int true division of its numerator by its denominator, which is
correctly rounded like float(Fraction(...)).  A loop over every level reads
``hat_matrices``, which streams the exact heights, two levels at a time.

Normalization conventions (the two useful scalings differ by lambda):
  "level0"      : sum of t over the level-0 window is 1
  "probability" : total path-space mass sum_v mu^(n)_v H^(n)_v is 1
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

import numpy as np

from . import Error, perron
from .diagram import (CutsOutOfRange, Diagram, IncidenceMatrix, LevelRows,
                      Scratch, all_heights, heights)


class DimensionMismatch(Error):
    pass


PFFailed = perron.PFFailed


# ---------------------------------------------------------------- types

@dataclass(frozen=True)
class MeasureSequence:
    """Per-level nonnegative vectors aligned to the diagram windows: mu^(n),
    one value per cylinder through the vertex.  ``vectors`` is a float64
    ``LevelRows`` (any sequence of per-level arrays given is stored as
    one), so a batch of levels is one 2-D slice."""

    vectors: LevelRows

    def __post_init__(self):
        object.__setattr__(self, "vectors", LevelRows.of(self.vectors))

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

    def row_deviation(self) -> Fraction:
        """max_v |sum_w fhat_vw - 1|, exactly, from integer row sums."""
        sums = self.matrix.totals(self.num)
        return max((Fraction(abs(s - h), h) for s, h in
                    zip(sums.tolist(), self.den.tolist()) if s != h),
                   default=Fraction(0))

    def values(self) -> np.ndarray:
        """fhat per edge as float64, each correctly rounded."""
        quot = self.num / self.den[self.matrix.csr.rows]
        return quot.astype(np.float64)


def hat_matrix(d: Diagram, n: int) -> HatMatrix:
    """Level n's hat matrix, computed through levels 0 .. n; a loop over
    the levels reads ``hat_matrices`` instead."""
    if not 0 <= n < d.depth:
        raise CutsOutOfRange(f"edge level {n} outside 0..{d.depth - 1}")
    return next(islice(hat_matrices(d), n, None))


def hat_matrices(d: Diagram) -> Iterator[HatMatrix]:
    """The hat matrix of every level in turn, from one pass of the exact
    heights."""
    hs = all_heights(d)
    h_lo = next(hs)
    for n, h_hi in enumerate(hs):
        m = d.F(n)
        yield HatMatrix(n, m.csr.mult.astype(object) * h_lo[m.csr.indices],
                        h_hi, m)
        h_lo = h_hi


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


def verify_tail_invariance(d: Diagram, m: MeasureSequence,
                           tol: float = 1e-10) -> InvarianceReport:
    """Per-level relative l1 residuals of A_n mu^(n+1) = mu^(n).

    Rows whose incidence column was clipped by the window are excluded
    from both sides of the norm, so truncation cannot fail the check.  A
    batch of levels (``markov.level_batches``) takes one scatter of A and
    one product, with the batch's mu^(n+1) as column vectors, so that each
    level makes the gemv call, and gets the bits, of A @ mu^(n+1) alone.
    """
    from .markov import level_batches
    _check_lengths(d, m)
    mu = m.vectors
    zero = bool((mu.per_row(lambda v: np.abs(v).sum(axis=-1)) == 0.0).all())
    residuals = []
    scratch = Scratch()
    for lo, hi in level_batches(d):
        F = d.F(lo)
        A = scratch.scatter(F, F.csr.mult, level=lo).T
        mask = F.interior_cols
        diff = (A @ mu[lo + 1:hi + 1][..., None])[..., 0] - mu[lo:hi]
        # compress keeps each row contiguous, so each sums as its row alone
        num = np.abs(np.compress(mask, diff, axis=-1)).sum(axis=-1)
        den = np.maximum(np.abs(np.compress(mask, mu[lo:hi], axis=-1))
                         .sum(axis=-1), 1e-300)
        with np.errstate(over="ignore", invalid="ignore"):
            residuals += (num / den).tolist() if not zero else [0.0] * len(num)
    passed = all(r < tol for r in residuals)
    return InvarianceReport(tuple(residuals), passed, zero)


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
    sd = perron.pf_solve(d.F(0))
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
    scale = np.array([sd.lam ** (1 - n) for n in range(d.depth + 1)])
    vectors = LevelRows([scale[:, None] * t])
    total = (float(vectors[1] @ np.array([float(h) for h in heights(d, 1)]))
             if d.depth >= 1 else float(t.sum()))
    report = NormalizationReport(sd.lam, float(t.sum()), total)
    return MeasureSequence(vectors), report


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
        A = d.F(n).to_dense(level=n).T
        vecs.append(A @ vecs[-1])
    return MeasureSequence(tuple(reversed(vecs)))


# ---------------------------------------------------------------- ERS/ECS

@dataclass(frozen=True)
class SumClassification:
    kind: str                       # "ERS" | "ECS" | "both" | "neither"
    row_sums: tuple[int, ...] | None
    col_sums: tuple[int, ...] | None
    ers_level_sums: tuple[Fraction, ...] | None


def _uniform_sum(m: IncidenceMatrix, rows: bool) -> int | None:
    """The shared row (or column) sum, from the claim or interior data."""
    claim = m.row_sum_claim if rows else m.col_sum_claim
    if claim is not None:
        return int(claim)
    sums = m.row_sums() if rows else m.col_sums()
    mask = m.interior_rows if rows else m.interior_cols
    vals = {int(s) for s, ok in zip(sums, mask) if ok}
    return vals.pop() if len(vals) == 1 else None


def ers_ecs_classify(d: Diagram) -> SumClassification:
    """Equal-row-sum / equal-column-sum detection, exact integers.

    For ERS(r_n) diagrams the level sums of any tail-invariant measure with
    sum mu^(0) = 1 are pinned: sum_v mu^(n+1)_v = (r_0 ... r_n)^-1, reported
    here as exact fractions: test_criterion_10_ers_level_sums.
    """
    rows = [_uniform_sum(d.F(n), True) for n in range(d.depth)]
    cols = [_uniform_sum(d.F(n), False) for n in range(d.depth)]
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
